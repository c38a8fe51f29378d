//! The `C type system: ANSI C scalar/aggregate types plus the `cspec` and
//! `vspec` type constructors with their *evaluation types* (paper §3:
//! "an evaluation type allows dynamic code to be statically typed,
//! enabling the compiler to do all type checking and some instruction
//! selection at static compile time").

use std::fmt;
use tcc_rt::ValKind;

/// A `C type.
#[derive(Clone, Debug, PartialEq)]
pub enum Type {
    /// `void`.
    Void,
    /// `char` (signed, 1 byte).
    Char,
    /// `unsigned char`.
    UChar,
    /// `short`.
    Short,
    /// `unsigned short`.
    UShort,
    /// `int` (32-bit).
    Int,
    /// `unsigned int`.
    UInt,
    /// `long` (64-bit).
    Long,
    /// `unsigned long`.
    ULong,
    /// `double` (also the representation of `float`).
    Double,
    /// Pointer.
    Ptr(Box<Type>),
    /// Array with element type and length.
    Array(Box<Type>, u64),
    /// Struct, by index into the program's struct table.
    Struct(usize),
    /// Function type.
    Func(Box<FuncSig>),
    /// `T cspec` — a code specification with evaluation type `T`.
    Cspec(Box<Type>),
    /// `T vspec` — a variable specification with evaluation type `T`.
    Vspec(Box<Type>),
}

/// A function signature.
#[derive(Clone, Debug, PartialEq)]
pub struct FuncSig {
    /// Return type.
    pub ret: Type,
    /// Parameter types.
    pub params: Vec<Type>,
}

/// One field of a struct.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Byte offset within the struct.
    pub offset: u64,
}

/// A struct definition with computed layout.
#[derive(Clone, Debug, PartialEq)]
pub struct StructDef {
    /// Tag name.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<Field>,
    /// Total size (padded to alignment).
    pub size: u64,
    /// Alignment.
    pub align: u64,
}

impl StructDef {
    /// Computes field offsets, size and alignment from field types.
    pub fn layout(name: String, fields: Vec<(String, Type)>, structs: &[StructDef]) -> StructDef {
        let mut off = 0u64;
        let mut align = 1u64;
        let mut out = Vec::new();
        for (fname, ty) in fields {
            let a = ty.align(structs);
            let s = ty.size(structs);
            off = (off + a - 1) & !(a - 1);
            out.push(Field {
                name: fname,
                ty,
                offset: off,
            });
            off += s;
            align = align.max(a);
        }
        let size = (off + align - 1) & !(align - 1);
        StructDef {
            name,
            fields: out,
            size: size.max(1),
            align,
        }
    }

    /// Finds a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

impl Type {
    /// Size in bytes.
    ///
    /// # Panics
    ///
    /// Panics for `void` and function types (no size).
    pub fn size(&self, structs: &[StructDef]) -> u64 {
        match self {
            Type::Char | Type::UChar => 1,
            Type::Short | Type::UShort => 2,
            Type::Int | Type::UInt => 4,
            Type::Long | Type::ULong | Type::Double => 8,
            Type::Ptr(_) | Type::Cspec(_) | Type::Vspec(_) => 8,
            Type::Array(t, n) => t.size(structs) * n,
            Type::Struct(i) => structs[*i].size,
            Type::Void | Type::Func(_) => panic!("sizeless type {self:?}"),
        }
    }

    /// Alignment in bytes.
    pub fn align(&self, structs: &[StructDef]) -> u64 {
        match self {
            Type::Array(t, _) => t.align(structs),
            Type::Struct(i) => structs[*i].align,
            _ => self.size(structs),
        }
    }

    /// The machine value kind carrying this type in a register.
    ///
    /// # Panics
    ///
    /// Panics for types that are not register values (arrays, structs,
    /// void).
    pub fn kind(&self) -> ValKind {
        match self {
            Type::Char | Type::UChar | Type::Short | Type::UShort | Type::Int | Type::UInt => {
                ValKind::W
            }
            Type::Long | Type::ULong => ValKind::D,
            Type::Ptr(_) | Type::Func(_) | Type::Cspec(_) | Type::Vspec(_) => ValKind::P,
            Type::Double => ValKind::F,
            Type::Void | Type::Array(..) | Type::Struct(_) => {
                panic!("{self:?} is not a register value")
            }
        }
    }

    /// True for the integer types.
    pub fn is_integer(&self) -> bool {
        matches!(
            self,
            Type::Char
                | Type::UChar
                | Type::Short
                | Type::UShort
                | Type::Int
                | Type::UInt
                | Type::Long
                | Type::ULong
        )
    }

    /// True for integer or floating types.
    pub fn is_arith(&self) -> bool {
        self.is_integer() || *self == Type::Double
    }

    /// True for unsigned integer types.
    pub fn is_unsigned(&self) -> bool {
        matches!(self, Type::UChar | Type::UShort | Type::UInt | Type::ULong)
    }

    /// True for pointer types (after decay).
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    /// True for `cspec`/`vspec` types.
    pub fn is_spec(&self) -> bool {
        matches!(self, Type::Cspec(_) | Type::Vspec(_))
    }

    /// True if a value of this type holds a cspec or vspec: the type is
    /// one, or an array or struct with one inside. A pointer does not
    /// hold its pointee.
    pub fn holds_spec(&self, structs: &[StructDef]) -> bool {
        self.holds_spec_below(structs, structs.len())
    }

    /// [`Type::holds_spec`], looking only into structs indexed below
    /// `below`. A struct's by-value fields name only structs defined
    /// before it, so narrowing `below` at each struct ends the walk even
    /// on a struct that names itself by value.
    fn holds_spec_below(&self, structs: &[StructDef], below: usize) -> bool {
        match self {
            Type::Cspec(_) | Type::Vspec(_) => true,
            Type::Array(t, _) => t.holds_spec_below(structs, below),
            Type::Struct(i) if *i < below => structs[*i]
                .fields
                .iter()
                .any(|f| f.ty.holds_spec_below(structs, *i)),
            _ => false,
        }
    }

    /// True if this type is, or is built from, a pointer whose pointee
    /// holds a cspec or vspec.
    pub fn points_to_spec(&self, structs: &[StructDef]) -> bool {
        match self {
            Type::Ptr(t) => t.holds_spec(structs) || t.points_to_spec(structs),
            Type::Array(t, _) | Type::Cspec(t) | Type::Vspec(t) => t.points_to_spec(structs),
            Type::Func(sig) => {
                sig.ret.points_to_spec(structs)
                    || sig.params.iter().any(|p| p.points_to_spec(structs))
            }
            _ => false,
        }
    }

    /// The evaluation type of a cspec/vspec, or `self` otherwise.
    pub fn eval_ty(&self) -> &Type {
        match self {
            Type::Cspec(t) | Type::Vspec(t) => t,
            t => t,
        }
    }

    /// Array-to-pointer and function-to-pointer decay.
    pub fn decay(&self) -> Type {
        match self {
            Type::Array(t, _) => Type::Ptr(t.clone()),
            Type::Func(sig) => Type::Ptr(Box::new(Type::Func(sig.clone()))),
            t => t.clone(),
        }
    }

    /// The usual arithmetic conversions (simplified to this machine:
    /// `int` rank for everything below `int`, then `unsigned int`,
    /// `long`, `unsigned long`, `double`).
    pub fn usual_arith(&self, other: &Type) -> Type {
        use Type::*;
        if *self == Double || *other == Double {
            return Double;
        }
        let rank = |t: &Type| match t {
            ULong => 5,
            Long => 4,
            UInt => 3,
            _ => 2, // everything at/below int promotes to int
        };
        let (a, b) = (rank(self), rank(other));
        match a.max(b) {
            5 => ULong,
            4 => Long,
            3 => UInt,
            _ => Int,
        }
    }

    /// Integer promotion (char/short → int).
    pub fn promote(&self) -> Type {
        match self {
            Type::Char | Type::UChar | Type::Short | Type::UShort => Type::Int,
            t => t.clone(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Char => write!(f, "char"),
            Type::UChar => write!(f, "unsigned char"),
            Type::Short => write!(f, "short"),
            Type::UShort => write!(f, "unsigned short"),
            Type::Int => write!(f, "int"),
            Type::UInt => write!(f, "unsigned"),
            Type::Long => write!(f, "long"),
            Type::ULong => write!(f, "unsigned long"),
            Type::Double => write!(f, "double"),
            Type::Ptr(t) => write!(f, "{t}*"),
            Type::Array(t, n) => write!(f, "{t}[{n}]"),
            Type::Struct(i) => write!(f, "struct#{i}"),
            Type::Func(sig) => {
                write!(f, "{}(", sig.ret)?;
                for (i, p) in sig.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Type::Cspec(t) => write!(f, "{t} cspec"),
            Type::Vspec(t) => write!(f, "{t} vspec"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_kinds() {
        let s = &[];
        assert_eq!(Type::Int.size(s), 4);
        assert_eq!(Type::Ptr(Box::new(Type::Char)).size(s), 8);
        assert_eq!(Type::Array(Box::new(Type::Int), 10).size(s), 40);
        assert_eq!(Type::Int.kind(), ValKind::W);
        assert_eq!(Type::ULong.kind(), ValKind::D);
        assert_eq!(Type::Double.kind(), ValKind::F);
        assert_eq!(Type::Cspec(Box::new(Type::Int)).kind(), ValKind::P);
    }

    #[test]
    fn struct_layout_with_padding() {
        // { char c; int i; char d; long l; } -> offsets 0, 4, 8, 16; size 24
        let sd = StructDef::layout(
            "s".into(),
            vec![
                ("c".into(), Type::Char),
                ("i".into(), Type::Int),
                ("d".into(), Type::Char),
                ("l".into(), Type::Long),
            ],
            &[],
        );
        assert_eq!(sd.field("c").unwrap().offset, 0);
        assert_eq!(sd.field("i").unwrap().offset, 4);
        assert_eq!(sd.field("d").unwrap().offset, 8);
        assert_eq!(sd.field("l").unwrap().offset, 16);
        assert_eq!(sd.size, 24);
        assert_eq!(sd.align, 8);
    }

    #[test]
    fn twelve_byte_struct_like_heap_benchmark() {
        let sd = StructDef::layout(
            "rec".into(),
            vec![
                ("a".into(), Type::Int),
                ("b".into(), Type::Int),
                ("c".into(), Type::Int),
            ],
            &[],
        );
        assert_eq!(sd.size, 12);
    }

    #[test]
    fn usual_arith_conversions() {
        assert_eq!(Type::Char.usual_arith(&Type::Char), Type::Int);
        assert_eq!(Type::Int.usual_arith(&Type::UInt), Type::UInt);
        assert_eq!(Type::UInt.usual_arith(&Type::Long), Type::Long);
        assert_eq!(Type::Long.usual_arith(&Type::ULong), Type::ULong);
        assert_eq!(Type::Int.usual_arith(&Type::Double), Type::Double);
    }

    #[test]
    fn decay_and_eval_types() {
        let arr = Type::Array(Box::new(Type::Int), 4);
        assert_eq!(arr.decay(), Type::Ptr(Box::new(Type::Int)));
        let cs = Type::Cspec(Box::new(Type::Int));
        assert_eq!(cs.eval_ty(), &Type::Int);
        assert!(cs.is_spec());
    }
}
