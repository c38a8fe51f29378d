//! The link-time translator-pruning analysis.
//!
//! Paper §5.2: "ICODE has several hundred instructions (the cross product
//! of operation kinds and operand types), and the code to translate and
//! peephole-optimize each instruction is on the order of 100
//! instructions … tcc therefore keeps track of the ICODE instructions
//! used by an application, and automatically creates a customized ICODE
//! back end containing code to only translate the required instructions
//! … This simple trick cuts the size of the ICODE library by up to an
//! order of magnitude for most programs."
//!
//! Here the translator is a keyed dispatch table; the *full* table holds
//! one entry per (operation, value-kind) combination, and
//! [`TranslatorTable::pruned_for`] retains only the combinations a
//! program actually emits. The emitter refuses to translate instructions
//! missing from its table, so the pruning analysis is load-bearing, and
//! the ablation bench reports the size reduction.
//!
//! Keys are dense: [`key_of`] maps an instruction to an index below
//! [`FULL_ENTRIES`], and a table is a fixed-size bitset over those
//! indices — full or pruned, the same type, a bit test per lookup, no
//! heap. The emitter asserts [`TranslatorTable::supports`] on every
//! instruction of every dynamic compile, so the lookup has to cost what
//! a dispatch-table index costs.

use crate::ir::{IInsn, IOp, IcodeBuf};

/// A translator key: one per (operation, kind) combination, as a dense
/// index below [`FULL_ENTRIES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpKey(u16);

/// Nominal instruction count of one translator entry (paper: "on the
/// order of 100 instructions").
pub const ENTRY_NOMINAL_INSNS: usize = 100;

/// Sub-operations per category, in category order (see [`key_of`]):
/// the three binary-operator categories have one per [`BinOp`], unary
/// one per [`UnOp`], loads and stores one per width.
///
/// [`BinOp`]: tcc_vcode::ops::BinOp
/// [`UnOp`]: tcc_vcode::ops::UnOp
const SUBS: [u16; 20] = [
    1, 1, 23, 23, 7, 8, 5, 1, 1, 23, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
];

/// First index of each category within one kind's span.
const CAT_BASE: [u16; 20] = {
    let mut base = [0u16; 20];
    let mut c = 1;
    while c < 20 {
        base[c] = base[c - 1] + SUBS[c - 1];
        c += 1;
    }
    base
};

/// Keys per value kind.
const PER_KIND: u16 = CAT_BASE[19] + SUBS[19];

/// Entries in the full table: every operation at each of the four value
/// kinds.
pub const FULL_ENTRIES: usize = 4 * PER_KIND as usize;

const TABLE_WORDS: usize = FULL_ENTRIES.div_ceil(64);

/// Derives the translator key of an instruction. The sub-operation is
/// the operator's declaration index (`tests::sub_indices_are_dense`
/// holds the enums to the `SUBS` counts).
pub fn key_of(insn: &IInsn) -> OpKey {
    let (cat, sub): (usize, u8) = match insn.op {
        IOp::Li => (0, 0),
        IOp::Lif => (1, 0),
        IOp::Bin(b) => (2, b as u8),
        IOp::BinImm(b) => (3, b as u8),
        IOp::Un(u) => (4, u as u8),
        IOp::Load(l) => (5, l as u8),
        IOp::Store(s) => (6, s as u8),
        IOp::Label => (7, 0),
        IOp::Jmp => (8, 0),
        IOp::BrCmp(b) => (9, b as u8),
        IOp::BrTrue => (10, 0),
        IOp::BrFalse => (11, 0),
        IOp::Arg(_) => (12, 0),
        IOp::CallAddr => (13, 0),
        IOp::CallInd => (14, 0),
        IOp::Hcall => (15, 0),
        IOp::Ret => (16, 0),
        IOp::GetParam(_) => (17, 0),
        IOp::LoopBegin | IOp::LoopEnd => (18, 0),
        IOp::FrameAddr => (19, 0),
    };
    debug_assert!(u16::from(sub) < SUBS[cat]);
    OpKey(u16::from(insn.k.code()) * PER_KIND + CAT_BASE[cat] + u16::from(sub))
}

/// A translator dispatch table (full or pruned): a bitset over
/// [`OpKey`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranslatorTable {
    bits: [u64; TABLE_WORDS],
}

impl TranslatorTable {
    /// The table with no entries (the identity of
    /// [`TranslatorTable::union_with`]).
    pub const fn empty() -> TranslatorTable {
        TranslatorTable {
            bits: [0; TABLE_WORDS],
        }
    }

    /// The full cross product: every operation at every kind it supports.
    pub fn full() -> TranslatorTable {
        TranslatorTable::from_keys((0..FULL_ENTRIES as u16).map(OpKey))
    }

    /// The pruned table for a set of ICODE buffers (the "link-time"
    /// analysis runs over every dynamic code site in the program).
    pub fn pruned_for<'a>(bufs: impl IntoIterator<Item = &'a IcodeBuf>) -> TranslatorTable {
        TranslatorTable::from_keys(bufs.into_iter().flat_map(|b| b.insns.iter().map(key_of)))
    }

    /// A table containing exactly `keys`.
    pub fn from_keys(keys: impl IntoIterator<Item = OpKey>) -> TranslatorTable {
        let mut t = TranslatorTable::empty();
        for k in keys {
            t.insert(k);
        }
        t
    }

    /// Adds the entry for `key`.
    pub fn insert(&mut self, key: OpKey) {
        self.bits[usize::from(key.0) / 64] |= 1 << (key.0 % 64);
    }

    /// Adds every entry of `other` (how the runtime accumulates the keys
    /// its compiles observed: one OR per compile).
    pub fn union_with(&mut self, other: &TranslatorTable) {
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Number of translator entries.
    pub fn entries(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Nominal code size (instructions) of the translator.
    pub fn nominal_size(&self) -> usize {
        self.entries() * ENTRY_NOMINAL_INSNS
    }

    /// True if the table has the entry for `key`.
    pub fn contains(&self, key: OpKey) -> bool {
        self.bits[usize::from(key.0) / 64] & (1 << (key.0 % 64)) != 0
    }

    /// True if the table can translate `insn`.
    pub fn supports(&self, insn: &IInsn) -> bool {
        self.contains(key_of(insn))
    }
}

impl Default for TranslatorTable {
    fn default() -> Self {
        TranslatorTable::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_rt::ValKind;
    use tcc_vcode::ops::{BinOp, LoadKind, StoreKind, UnOp};
    use tcc_vcode::CodeSink;

    #[test]
    fn full_table_has_several_hundred_entries() {
        let t = TranslatorTable::full();
        assert_eq!(t.entries(), 412);
        assert_eq!(t.entries(), FULL_ENTRIES);
        assert!(t.nominal_size() > 30_000);
    }

    /// `key_of` casts operators to their declaration index; this holds
    /// every enum to the sub-operation count its category reserves, so
    /// adding an operator without widening [`SUBS`] fails here instead of
    /// aliasing a neighbouring key.
    #[test]
    fn sub_indices_are_dense() {
        use BinOp::*;
        let bins = [
            Add, Sub, Mul, Div, DivU, Rem, RemU, And, Or, Xor, Shl, Shr, ShrU, Eq, Ne, Lt, LtU, Le,
            LeU, Gt, GtU, Ge, GeU,
        ];
        let uns = {
            use UnOp::*;
            [Neg, Not, Mov, CvtWtoF, CvtFtoW, CvtLtoF, CvtFtoL]
        };
        let loads = {
            use LoadKind::*;
            [I8, U8, I16, U16, I32, U32, I64, F64]
        };
        let stores = {
            use StoreKind::*;
            [I8, I16, I32, I64, F64]
        };
        let dense = |idx: Vec<u8>, n: u16| {
            assert_eq!(idx, (0..n as u8).collect::<Vec<_>>());
        };
        dense(bins.iter().map(|&b| b as u8).collect(), SUBS[2]);
        dense(uns.iter().map(|&u| u as u8).collect(), SUBS[4]);
        dense(loads.iter().map(|&l| l as u8).collect(), SUBS[5]);
        dense(stores.iter().map(|&s| s as u8).collect(), SUBS[6]);
        // Every (op, kind) lands on its own index below FULL_ENTRIES.
        let mut seen = TranslatorTable::empty();
        for k in [ValKind::W, ValKind::D, ValKind::P, ValKind::F] {
            for &b in &bins {
                for op in [IOp::Bin(b), IOp::BinImm(b), IOp::BrCmp(b)] {
                    let key = key_of(&IInsn {
                        op,
                        k,
                        dst: crate::ir::VReg::NONE,
                        a: crate::ir::VReg::NONE,
                        b: crate::ir::VReg::NONE,
                        imm: 0,
                    });
                    assert!(!seen.contains(key), "{op:?}/{k:?} aliases another key");
                    seen.insert(key);
                }
            }
        }
        assert_eq!(seen.entries(), 4 * 3 * 23);
    }

    #[test]
    fn pruned_table_is_an_order_of_magnitude_smaller_for_small_programs() {
        let mut b = IcodeBuf::new();
        let x = b.param(0, ValKind::W);
        let y = b.temp(ValKind::W);
        b.li(y, 3);
        b.bin(BinOp::Mul, ValKind::W, y, y, x);
        b.ret_val(ValKind::W, y);
        let full = TranslatorTable::full();
        let pruned = TranslatorTable::pruned_for([&b]);
        assert!(pruned.entries() * 10 <= full.entries());
        for insn in &b.insns {
            assert!(pruned.supports(insn));
        }
    }

    #[test]
    fn pruned_table_rejects_unused_ops() {
        let mut b = IcodeBuf::new();
        let x = b.temp(ValKind::W);
        b.li(x, 1);
        b.ret_val(ValKind::W, x);
        let pruned = TranslatorTable::pruned_for([&b]);
        let mut other = IcodeBuf::new();
        let f = other.temp(ValKind::F);
        other.lif(f, 1.0);
        assert!(!pruned.supports(&other.insns[0]));
    }

    #[test]
    fn keys_are_stable_per_op_and_kind() {
        let mut b = IcodeBuf::new();
        let x = b.temp(ValKind::W);
        let y = b.temp(ValKind::D);
        b.bin(BinOp::Add, ValKind::W, x, x, x);
        b.bin(BinOp::Add, ValKind::D, y, y, y);
        b.bin(BinOp::Add, ValKind::W, x, x, x);
        let k0 = key_of(&b.insns[0]);
        let k1 = key_of(&b.insns[1]);
        let k2 = key_of(&b.insns[2]);
        assert_eq!(k0, k2);
        assert_ne!(k0, k1);
    }
}
