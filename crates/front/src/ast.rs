//! Abstract syntax, shared between the parser (which produces unresolved
//! names) and the semantic analyzer (which resolves them in place and
//! annotates types).

use crate::types::{FuncSig, StructDef, Type};

/// Built-in functions provided by the `C run-time system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `void puts(char *)`.
    Puts,
    /// `void puti(int)`.
    Puti,
    /// `void putd(double)`.
    Putd,
    /// `void putchar(int)`.
    Putchar,
    /// `void printf(char *fmt, ...)` — up to five scalar arguments,
    /// `%d`/`%ld`/`%u`/`%x`/`%c`/`%s` conversions.
    Printf,
    /// `void *malloc(long)`.
    Malloc,
    /// `void abort(void)`.
    Abort,
}

impl Builtin {
    /// Looks up a builtin by source name.
    pub fn by_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "puts" => Builtin::Puts,
            "puti" => Builtin::Puti,
            "putd" => Builtin::Putd,
            "putchar" => Builtin::Putchar,
            "printf" => Builtin::Printf,
            "malloc" => Builtin::Malloc,
            "abort" => Builtin::Abort,
            _ => return None,
        })
    }
}

/// A resolved variable reference.
#[derive(Clone, Debug, PartialEq)]
pub enum VarRef {
    /// Global by index.
    Global(usize),
    /// Function local (parameters come first) by index.
    Local(usize),
    /// Defined function by index.
    Func(usize),
    /// Run-time library builtin.
    Builtin(Builtin),
    /// Inside a tick body: free variable capture `i` (address in the
    /// closure).
    TickFv(usize),
    /// Inside a tick body: `$`-bound run-time constant capture `i`.
    TickRtc(usize),
    /// Inside a tick body: composed cspec capture `i`.
    TickCspec(usize),
    /// Inside a tick body: composed vspec capture `i`.
    TickVspec(usize),
    /// Inside a tick body: dynamic local `i` of the tick.
    TickLocal(usize),
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnaryOp {
    /// `-`.
    Neg,
    /// `~`.
    BitNot,
    /// `!`.
    LogNot,
    /// `*`.
    Deref,
    /// `&`.
    Addr,
}

/// Binary operators (logical `&&`/`||` included; they short-circuit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    LogAnd,
    LogOr,
}

/// An expression: kind, type annotation (filled by sema), source line.
#[derive(Clone, Debug, PartialEq)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Its type (meaningless before sema).
    pub ty: Type,
    /// Source line.
    pub line: u32,
}

impl Expr {
    /// A fresh expression with placeholder type.
    pub fn new(kind: ExprKind, line: u32) -> Expr {
        Expr {
            kind,
            ty: Type::Void,
            line,
        }
    }
}

/// Expression kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Floating literal.
    FloatLit(f64),
    /// String literal (the linker lays it out in the image's data).
    StrLit(Vec<u8>),
    /// Unresolved name (parser output only).
    Ident(String),
    /// Resolved variable (sema output).
    Var(VarRef),
    /// Unary operation.
    Un(UnaryOp, Box<Expr>),
    /// Pre-increment/decrement (`true` = increment).
    PreIncDec(Box<Expr>, bool),
    /// Post-increment/decrement (`true` = increment).
    PostIncDec(Box<Expr>, bool),
    /// Binary operation.
    Bin(BinaryOp, Box<Expr>, Box<Expr>),
    /// Assignment, possibly compound (`a op= b`).
    Assign(Option<BinaryOp>, Box<Expr>, Box<Expr>),
    /// Function call.
    Call(Box<Expr>, Vec<Expr>),
    /// Array indexing.
    Index(Box<Expr>, Box<Expr>),
    /// Member access; the `u64` is the byte offset (filled by sema),
    /// the `bool` is `->`.
    Member(Box<Expr>, String, bool, u64),
    /// Cast.
    Cast(Type, Box<Expr>),
    /// Conditional `?:`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Comma operator.
    Comma(Box<Expr>, Box<Expr>),
    /// `sizeof(type)` (sema folds to a literal).
    SizeofT(Type),
    /// `sizeof expr`.
    SizeofE(Box<Expr>),
    /// A tick expression before sema: the raw body.
    TickRaw(Box<TickBody>),
    /// A tick expression after sema: index into [`Program::ticks`].
    Tick(usize),
    /// `$expr` (only valid inside a tick body; sema rewrites to
    /// [`VarRef::TickRtc`]).
    Dollar(Box<Expr>),
    /// `compile(cspec, type)`.
    CompileExpr(Box<Expr>, Type),
    /// `local(type)` — create a dynamic local vspec.
    LocalForm(Type),
    /// `param(type, index)` — create a dynamic parameter vspec.
    ParamForm(Type, Box<Expr>),
    /// `label()` — create a dynamic label object (a `void cspec` that,
    /// when spliced into a tick body, marks a position).
    LabelForm,
    /// `jump(l)` — emit a jump to the dynamic label `l` (tick bodies
    /// only).
    JumpForm(Box<Expr>),
    /// `push_init()` — create a dynamic argument list (specification
    /// time).
    ArglistNew,
    /// `push(list, cspec)` — append an argument to a dynamic call
    /// (specification time).
    ArglistPush(Box<Expr>, Box<Expr>),
    /// `apply(f, list)` — emit a call to `f` with the list's composed
    /// arguments (tick bodies only; result type `int`).
    Apply(Box<Expr>, Box<Expr>),
}

/// The body of a tick expression.
#[derive(Clone, Debug, PartialEq)]
pub enum TickBody {
    /// `` `expr `` — evaluation type is the expression's type.
    Expr(Expr),
    /// `` `{ ... } `` — evaluation type `void`.
    Block(Vec<Stmt>),
}

/// A variable declared in a declaration statement.
#[derive(Clone, Debug, PartialEq)]
pub struct DeclItem {
    /// Name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Initializer.
    pub init: Option<Init>,
    /// Resolved local index (sema).
    pub local_id: usize,
}

/// An initializer.
#[derive(Clone, Debug, PartialEq)]
pub enum Init {
    /// Scalar initializer.
    Expr(Expr),
    /// Brace-enclosed list (arrays).
    List(Vec<Init>),
}

/// An item inside a `switch` body.
#[derive(Clone, Debug, PartialEq)]
pub enum SwitchItem {
    /// `case N:`.
    Case(i64),
    /// `default:`.
    Default,
    /// An ordinary statement (fallthrough preserved).
    Stmt(Stmt),
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// Expression statement.
    Expr(Expr),
    /// Declaration.
    Decl(Vec<DeclItem>),
    /// `if`.
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    /// `while`.
    While(Expr, Box<Stmt>),
    /// `do … while`.
    DoWhile(Box<Stmt>, Expr),
    /// `for(init; cond; step) body` — `init` may be an expression or a
    /// declaration.
    For(Option<Box<Stmt>>, Option<Expr>, Option<Expr>, Box<Stmt>),
    /// `return`.
    Return(Option<Expr>),
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// Compound statement.
    Block(Vec<Stmt>),
    /// `switch` with a flat body (fallthrough works).
    Switch(Expr, Vec<SwitchItem>),
    /// `goto label`.
    Goto(String),
    /// `label: stmt`.
    Labeled(String, Box<Stmt>),
    /// `;`.
    Empty,
}

/// A local variable (parameters first).
#[derive(Clone, Debug, PartialEq)]
pub struct LocalDef {
    /// Name (for diagnostics).
    pub name: String,
    /// Type.
    pub ty: Type,
    /// True if the variable's address is taken — by `&`, by array/struct
    /// use, or by being captured as a tick free variable; such locals
    /// must live in memory.
    pub addr_taken: bool,
}

/// A capture in a tick expression's closure (paper §4.3: run-time
/// constants, free variable addresses, nested cspec/vspec pointers).
#[derive(Clone, Debug, PartialEq)]
pub struct Capture {
    /// What is captured.
    pub kind: CaptureKind,
    /// The captured value's type (the evaluation type for splices).
    pub ty: Type,
}

/// The kinds of closure captures.
#[derive(Clone, Debug, PartialEq)]
pub enum CaptureKind {
    /// A `$`-bound run-time constant: the expression is evaluated in the
    /// enclosing scope at specification time.
    Dollar(Expr),
    /// A free variable of the enclosing function: its *address* is
    /// captured.
    FreeVar(usize),
    /// A composed cspec: the enclosing-scope expression yields a closure
    /// pointer.
    Cspec(Expr),
    /// A composed vspec: the enclosing-scope expression yields a vspec
    /// object pointer.
    Vspec(Expr),
}

/// A tick expression hoisted out of its function by sema.
#[derive(Clone, Debug, PartialEq)]
pub struct TickDef {
    /// Evaluation type (`void` for statement ticks).
    pub eval_ty: Type,
    /// The body, with inner references rewritten to tick-relative
    /// [`VarRef`]s.
    pub body: TickBody,
    /// Closure captures in field order.
    pub captures: Vec<Capture>,
    /// Locals declared inside the tick body (dynamic locals).
    pub dyn_locals: Vec<LocalDef>,
    /// The distinct string literals of the body, in source order. The
    /// linker lays them out in the static image's data, so dynamic code
    /// that mentions one holds the same address in every session.
    pub str_lits: Vec<Vec<u8>>,
    /// The function the tick appears in.
    pub owner: usize,
}

/// A global variable.
#[derive(Clone, Debug, PartialEq)]
pub struct GlobalDef {
    /// Name.
    pub name: String,
    /// Type.
    pub ty: Type,
    /// Initializer (must be constant; checked by sema).
    pub init: Option<Init>,
}

/// A function definition.
#[derive(Clone, Debug, PartialEq)]
pub struct FuncDef {
    /// Name.
    pub name: String,
    /// Signature.
    pub sig: FuncSig,
    /// Number of parameters (the first `nparams` locals).
    pub nparams: usize,
    /// All locals, parameters first.
    pub locals: Vec<LocalDef>,
    /// Body.
    pub body: Vec<Stmt>,
}

/// A fully analyzed program.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Struct table.
    pub structs: Vec<StructDef>,
    /// Globals.
    pub globals: Vec<GlobalDef>,
    /// Functions.
    pub funcs: Vec<FuncDef>,
    /// Tick expressions (dynamic code sites).
    pub ticks: Vec<TickDef>,
    /// Whether a cspec or vspec may outlive the top-level call that
    /// built it: the program has a global that holds one, a pointer type
    /// whose pointee holds one, or a cast into or out of a spec type.
    /// When set, no call releases its spec-time objects.
    pub spec_escapes: bool,
    /// Functions whose return type holds a cspec or vspec, ascending: a
    /// call entering at one keeps its spec-time objects.
    pub spec_returns: Vec<usize>,
}

impl Program {
    /// Finds a function index by name.
    pub fn func(&self, name: &str) -> Option<usize> {
        self.funcs.iter().position(|f| f.name == name)
    }
}
