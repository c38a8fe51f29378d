//! The ICODE intermediate representation.
//!
//! ICODE "provides an interface similar to that of VCODE, with two main
//! extensions: (1) an infinite number of registers, and (2) primitives to
//! express changes in estimated usage frequency of code" (§5.2). The
//! builder here records one [`IInsn`] per operation into a flat buffer;
//! the representation is designed to be compact and trivially parseable
//! so the later passes stay cheap (the paper packs two 4-byte words per
//! instruction; we keep a fixed-size POD struct with the same flavor).

use tcc_rt::ValKind;
use tcc_vcode::ops::{BinOp, LoadKind, StoreKind, UnOp};
use tcc_vcode::CodeSink;

/// A virtual register. ICODE clients "emit code that assumes no spills,
/// leaving the work of global, inter-cspec register allocation to ICODE".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

impl VReg {
    /// Sentinel for "no register" (absent destination or operand).
    pub const NONE: VReg = VReg(u32::MAX);

    /// True if this is a real register.
    pub fn is_some(self) -> bool {
        self != VReg::NONE
    }
}

/// A label handle inside an [`IcodeBuf`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LblId(pub u32);

/// ICODE operations. The `imm` field of [`IInsn`] carries the immediate,
/// the label id, the call target address, or the host call number,
/// depending on the operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IOp {
    /// `dst <- imm`.
    Li,
    /// `dst <- f64::from_bits(imm)`.
    Lif,
    /// `dst <- a op b`.
    Bin(BinOp),
    /// `dst <- a op imm` (strength-reduced at emission).
    BinImm(BinOp),
    /// `dst <- op a`.
    Un(UnOp),
    /// `dst <- mem[a + imm]`.
    Load(LoadKind),
    /// `mem[a + imm] <- b`.
    Store(StoreKind),
    /// Marks label `imm`.
    Label,
    /// Jump to label `imm`.
    Jmp,
    /// `if (a op b) goto imm`.
    BrCmp(BinOp),
    /// `if (a != 0) goto imm`.
    BrTrue,
    /// `if (a == 0) goto imm`.
    BrFalse,
    /// Passes `a` as argument number `0` (position in the field) of the
    /// upcoming call; integer and float positions are numbered
    /// separately.
    Arg(u8),
    /// Direct call; `imm` is the code address, `dst` the result (or
    /// [`VReg::NONE`]).
    CallAddr,
    /// Indirect call through `a`.
    CallInd,
    /// Host call `imm`.
    Hcall,
    /// Return `a` (or [`VReg::NONE`] for void).
    Ret,
    /// `dst <- parameter i` (must precede any call).
    GetParam(u8),
    /// `dst <- address of frame block imm` (local arrays/structs and
    /// address-taken locals).
    FrameAddr,
    /// Usage-frequency hint: loop entry (weights below are scaled up).
    LoopBegin,
    /// Usage-frequency hint: loop exit.
    LoopEnd,
}

/// One ICODE instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IInsn {
    /// Operation.
    pub op: IOp,
    /// Value kind the operation works at.
    pub k: ValKind,
    /// Destination virtual register (or [`VReg::NONE`]).
    pub dst: VReg,
    /// First operand.
    pub a: VReg,
    /// Second operand.
    pub b: VReg,
    /// Immediate / label id / call address / host call number.
    pub imm: i64,
}

impl IInsn {
    /// The virtual register this instruction defines, if any.
    pub fn def(&self) -> Option<VReg> {
        if self.dst.is_some() {
            Some(self.dst)
        } else {
            None
        }
    }

    /// The virtual registers this instruction uses (0, 1 or 2).
    pub fn uses(&self) -> [Option<VReg>; 2] {
        let a = if self.a.is_some() { Some(self.a) } else { None };
        let b = if self.b.is_some() { Some(self.b) } else { None };
        [a, b]
    }

    /// True for instructions that end a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self.op,
            IOp::Jmp | IOp::BrCmp(_) | IOp::BrTrue | IOp::BrFalse | IOp::Ret
        )
    }
}

/// The ICODE instruction buffer a CGF fills at dynamic compile time.
#[derive(Clone, Debug, Default)]
pub struct IcodeBuf {
    /// The recorded instructions.
    pub insns: Vec<IInsn>,
    /// Kind of each virtual register, indexed by number.
    pub vreg_kinds: Vec<ValKind>,
    /// Number of labels created.
    pub nlabels: u32,
    /// Sizes (bytes) of frame blocks for addressable locals.
    pub frame_blocks: Vec<u64>,
    max_param: u8,
}

impl IcodeBuf {
    /// Creates an empty buffer.
    pub fn new() -> IcodeBuf {
        IcodeBuf::default()
    }

    /// Empties the buffer for the next function, keeping its storage.
    pub fn clear(&mut self) {
        self.insns.clear();
        self.vreg_kinds.clear();
        self.frame_blocks.clear();
        self.nlabels = 0;
        self.max_param = 0;
    }

    /// Allocates a fresh virtual register of kind `k`.
    pub fn vreg(&mut self, k: ValKind) -> VReg {
        self.vreg_kinds.push(k);
        VReg(self.vreg_kinds.len() as u32 - 1)
    }

    /// Kind of `v`.
    pub fn kind_of(&self, v: VReg) -> ValKind {
        self.vreg_kinds[v.0 as usize]
    }

    /// Number of virtual registers allocated.
    pub fn num_vregs(&self) -> usize {
        self.vreg_kinds.len()
    }

    /// Highest parameter index referenced (for prologue setup).
    pub fn max_param(&self) -> u8 {
        self.max_param
    }

    fn push(&mut self, i: IInsn) {
        self.insns.push(i);
    }

    /// Reserves a frame block of `size` bytes; returns its index.
    pub fn frame_block(&mut self, size: u64) -> usize {
        self.frame_blocks.push(size);
        self.frame_blocks.len() - 1
    }

    /// `dst <- address of frame block `block``.
    pub fn frame_addr(&mut self, dst: VReg, block: usize) {
        self.push(IInsn {
            op: IOp::FrameAddr,
            k: tcc_rt::ValKind::P,
            dst,
            a: VReg::NONE,
            b: VReg::NONE,
            imm: block as i64,
        });
    }
}

impl CodeSink for IcodeBuf {
    type Val = VReg;
    type Lbl = LblId;

    fn temp(&mut self, k: ValKind) -> VReg {
        self.vreg(k)
    }

    fn temp_saved(&mut self, k: ValKind) -> VReg {
        // The allocator decides; the hint is unnecessary with global
        // information (the point of ICODE).
        self.vreg(k)
    }

    fn release(&mut self, _v: VReg) {}

    fn param(&mut self, i: usize, k: ValKind) -> VReg {
        let dst = self.vreg(k);
        self.max_param = self.max_param.max(i as u8 + 1);
        self.push(IInsn {
            op: IOp::GetParam(i as u8),
            k,
            dst,
            a: VReg::NONE,
            b: VReg::NONE,
            imm: 0,
        });
        dst
    }

    fn li(&mut self, dst: VReg, v: i64) {
        let k = self.kind_of(dst);
        self.push(IInsn {
            op: IOp::Li,
            k,
            dst,
            a: VReg::NONE,
            b: VReg::NONE,
            imm: v,
        });
    }

    fn lif(&mut self, dst: VReg, v: f64) {
        self.push(IInsn {
            op: IOp::Lif,
            k: ValKind::F,
            dst,
            a: VReg::NONE,
            b: VReg::NONE,
            imm: v.to_bits() as i64,
        });
    }

    fn bin(&mut self, op: BinOp, k: ValKind, dst: VReg, a: VReg, b: VReg) {
        self.push(IInsn {
            op: IOp::Bin(op),
            k,
            dst,
            a,
            b,
            imm: 0,
        });
    }

    fn bin_imm(&mut self, op: BinOp, k: ValKind, dst: VReg, a: VReg, imm: i64) {
        self.push(IInsn {
            op: IOp::BinImm(op),
            k,
            dst,
            a,
            b: VReg::NONE,
            imm,
        });
    }

    fn un(&mut self, op: UnOp, k: ValKind, dst: VReg, a: VReg) {
        self.push(IInsn {
            op: IOp::Un(op),
            k,
            dst,
            a,
            b: VReg::NONE,
            imm: 0,
        });
    }

    fn load(&mut self, lk: LoadKind, dst: VReg, base: VReg, off: i64) {
        self.push(IInsn {
            op: IOp::Load(lk),
            k: lk.result_kind(),
            dst,
            a: base,
            b: VReg::NONE,
            imm: off,
        });
    }

    fn store(&mut self, sk: StoreKind, val: VReg, base: VReg, off: i64) {
        self.push(IInsn {
            op: IOp::Store(sk),
            k: sk.value_kind(),
            dst: VReg::NONE,
            a: base,
            b: val,
            imm: off,
        });
    }

    fn label(&mut self) -> LblId {
        self.nlabels += 1;
        LblId(self.nlabels - 1)
    }

    fn bind(&mut self, l: LblId) {
        self.push(IInsn {
            op: IOp::Label,
            k: ValKind::W,
            dst: VReg::NONE,
            a: VReg::NONE,
            b: VReg::NONE,
            imm: l.0 as i64,
        });
    }

    fn jmp(&mut self, l: LblId) {
        self.push(IInsn {
            op: IOp::Jmp,
            k: ValKind::W,
            dst: VReg::NONE,
            a: VReg::NONE,
            b: VReg::NONE,
            imm: l.0 as i64,
        });
    }

    fn br_cmp(&mut self, op: BinOp, k: ValKind, a: VReg, b: VReg, l: LblId) {
        self.push(IInsn {
            op: IOp::BrCmp(op),
            k,
            dst: VReg::NONE,
            a,
            b,
            imm: l.0 as i64,
        });
    }

    fn br_true(&mut self, a: VReg, l: LblId) {
        let k = self.kind_of(a);
        self.push(IInsn {
            op: IOp::BrTrue,
            k,
            dst: VReg::NONE,
            a,
            b: VReg::NONE,
            imm: l.0 as i64,
        });
    }

    fn br_false(&mut self, a: VReg, l: LblId) {
        let k = self.kind_of(a);
        self.push(IInsn {
            op: IOp::BrFalse,
            k,
            dst: VReg::NONE,
            a,
            b: VReg::NONE,
            imm: l.0 as i64,
        });
    }

    fn call_addr(&mut self, addr: u64, args: &[(ValKind, VReg)], ret: Option<(ValKind, VReg)>) {
        self.push_args(args);
        let (k, dst) = ret.map_or((ValKind::W, VReg::NONE), |(k, v)| (k, v));
        self.push(IInsn {
            op: IOp::CallAddr,
            k,
            dst,
            a: VReg::NONE,
            b: VReg::NONE,
            imm: addr as i64,
        });
    }

    fn call_ind(&mut self, target: VReg, args: &[(ValKind, VReg)], ret: Option<(ValKind, VReg)>) {
        self.push_args(args);
        let (k, dst) = ret.map_or((ValKind::W, VReg::NONE), |(k, v)| (k, v));
        self.push(IInsn {
            op: IOp::CallInd,
            k,
            dst,
            a: target,
            b: VReg::NONE,
            imm: 0,
        });
    }

    fn hcall(&mut self, num: u32, args: &[(ValKind, VReg)], ret: Option<(ValKind, VReg)>) {
        self.push_args(args);
        let (k, dst) = ret.map_or((ValKind::W, VReg::NONE), |(k, v)| (k, v));
        self.push(IInsn {
            op: IOp::Hcall,
            k,
            dst,
            a: VReg::NONE,
            b: VReg::NONE,
            imm: num as i64,
        });
    }

    fn ret_val(&mut self, k: ValKind, v: VReg) {
        self.push(IInsn {
            op: IOp::Ret,
            k,
            dst: VReg::NONE,
            a: v,
            b: VReg::NONE,
            imm: 0,
        });
    }

    fn ret_void(&mut self) {
        self.push(IInsn {
            op: IOp::Ret,
            k: ValKind::W,
            dst: VReg::NONE,
            a: VReg::NONE,
            b: VReg::NONE,
            imm: 0,
        });
    }

    fn loop_begin(&mut self) {
        self.push(IInsn {
            op: IOp::LoopBegin,
            k: ValKind::W,
            dst: VReg::NONE,
            a: VReg::NONE,
            b: VReg::NONE,
            imm: 0,
        });
    }

    fn loop_end(&mut self) {
        self.push(IInsn {
            op: IOp::LoopEnd,
            k: ValKind::W,
            dst: VReg::NONE,
            a: VReg::NONE,
            b: VReg::NONE,
            imm: 0,
        });
    }

    fn emitted(&self) -> u64 {
        self.insns.len() as u64
    }
}

impl IcodeBuf {
    fn push_args(&mut self, args: &[(ValKind, VReg)]) {
        let (mut ni, mut nf) = (0u8, 0u8);
        for &(k, v) in args {
            let pos = if k == ValKind::F {
                nf += 1;
                nf - 1
            } else {
                ni += 1;
                ni - 1
            };
            self.push(IInsn {
                op: IOp::Arg(pos),
                k,
                dst: VReg::NONE,
                a: v,
                b: VReg::NONE,
                imm: 0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_instructions() {
        let mut b = IcodeBuf::new();
        let x = b.param(0, ValKind::W);
        let t = b.temp(ValKind::W);
        b.li(t, 5);
        b.bin(BinOp::Add, ValKind::W, t, t, x);
        b.ret_val(ValKind::W, t);
        assert_eq!(b.insns.len(), 4);
        assert_eq!(b.num_vregs(), 2);
        assert_eq!(b.kind_of(t), ValKind::W);
        assert_eq!(b.max_param(), 1);
    }

    #[test]
    fn def_use_extraction() {
        let mut b = IcodeBuf::new();
        let x = b.temp(ValKind::W);
        let y = b.temp(ValKind::W);
        b.bin(BinOp::Sub, ValKind::W, y, y, x);
        let i = b.insns[0];
        assert_eq!(i.def(), Some(y));
        assert_eq!(i.uses(), [Some(y), Some(x)]);
        b.store(StoreKind::I32, x, y, 4);
        let s = b.insns[1];
        assert_eq!(s.def(), None);
        assert_eq!(s.uses(), [Some(y), Some(x)]);
    }

    #[test]
    fn labels_and_branches() {
        let mut b = IcodeBuf::new();
        let l = b.label();
        let x = b.temp(ValKind::W);
        b.li(x, 0);
        b.bind(l);
        b.br_true(x, l);
        assert!(b.insns[2].is_terminator());
        assert_eq!(b.insns[1].op, IOp::Label);
        assert_eq!(b.insns[1].imm, 0);
    }

    #[test]
    fn args_numbered_per_class() {
        let mut b = IcodeBuf::new();
        let i1 = b.temp(ValKind::W);
        let f1 = b.temp(ValKind::F);
        let i2 = b.temp(ValKind::W);
        b.call_addr(
            0x8000_0000,
            &[(ValKind::W, i1), (ValKind::F, f1), (ValKind::W, i2)],
            None,
        );
        let args: Vec<_> = b
            .insns
            .iter()
            .filter_map(|i| match i.op {
                IOp::Arg(p) => Some((p, i.k)),
                _ => None,
            })
            .collect();
        assert_eq!(
            args,
            vec![(0, ValKind::W), (0, ValKind::F), (1, ValKind::W)]
        );
    }
}
