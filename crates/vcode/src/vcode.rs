//! The VCODE abstraction: one-pass typed emission over possibly-spilled
//! locations.
//!
//! This is the paper's fast dynamic back end (§5.1): `getreg`/`putreg`
//! register management, spilled locations recognized by every macro, and
//! immediate binary emission with no intermediate representation. Code
//! quality is whatever falls out of the one pass — which is the point:
//! the VCODE/ICODE comparison in the evaluation hinges on exactly this
//! trade-off.

use crate::asm::Label;
use crate::func::{FinishedFunc, FuncBufs, FuncBuilder};
use crate::ops::{int_binop_op, int_branch_op, BinOp, LoadKind, StoreKind, UnOp};
use crate::regmgr::RegMgr;
use tcc_rt::ValKind;
use tcc_vm::regs::{ARG_REGS, AT0, AT1, FARG_REGS, FAT, RA, ZERO};
use tcc_vm::{CodeSpace, FReg, Insn, Op, Reg, VmError};

/// A value location: a physical register or a spilled stack slot.
///
/// Spilled locations are the paper's "negative register numbers": every
/// emission macro accepts them and brackets the operation with reloads
/// and stores through the reserved scratch registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Loc {
    /// An integer register.
    R(Reg),
    /// A floating point register.
    F(FReg),
    /// An integer value spilled to the stack (`fp`-relative offset).
    Spill(i32),
    /// A floating point value spilled to the stack.
    FSpill(i32),
}

impl Loc {
    /// True for floating point locations.
    pub fn is_float(self) -> bool {
        matches!(self, Loc::F(_) | Loc::FSpill(_))
    }

    /// True for spilled locations.
    pub fn is_spill(self) -> bool {
        matches!(self, Loc::Spill(_) | Loc::FSpill(_))
    }
}

/// A call target for [`Vcode::call`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallTarget {
    /// A known code address (direct `jal`).
    Addr(u64),
    /// An address held in a location (indirect `jalr`).
    Ind(Loc),
}

/// Everything a [`Vcode`] allocates for one function — the register
/// manager's free lists, the spill-slot free lists, the builder's and
/// the assembler's tables — kept for the next: whoever emits many
/// functions passes it back through [`Vcode::with_bufs`], and a
/// steady-state function allocates none of it again. The default is
/// empty and allocates nothing (so it can stand in while a function
/// has the real one).
#[derive(Clone, Debug, Default)]
pub struct VcodeBufs {
    func: FuncBufs,
    /// `None` until a first function builds the pool.
    regs: Option<RegMgr>,
    free_slots: Vec<i32>,
    free_fslots: Vec<i32>,
}

/// The one-pass code generator. See the [crate docs](crate) for an
/// example.
#[derive(Debug)]
pub struct Vcode<'a> {
    /// Function scaffolding (public for prologue-level access).
    pub fb: FuncBuilder<'a>,
    regs: RegMgr,
    unchecked: bool,
    /// An unchecked `getreg` found the pool empty (sticky).
    exhausted: bool,
    free_slots: Vec<i32>,
    free_fslots: Vec<i32>,
    /// How many getreg requests had to be satisfied with spill slots.
    pub spill_getregs: u64,
}

impl<'a> Vcode<'a> {
    /// Begins a new function (prologue included).
    pub fn new(code: &'a mut CodeSpace, name: &str) -> Vcode<'a> {
        Vcode::with_bufs(code, name, VcodeBufs::default())
    }

    /// [`Vcode::new`] on the storage an earlier function left (reset
    /// here; [`Vcode::finish_with_bufs`] hands it back).
    pub fn with_bufs(code: &'a mut CodeSpace, name: &str, bufs: VcodeBufs) -> Vcode<'a> {
        let VcodeBufs {
            func,
            regs,
            mut free_slots,
            mut free_fslots,
        } = bufs;
        let mut regs = regs.unwrap_or_default();
        regs.reset();
        free_slots.clear();
        free_fslots.clear();
        Vcode {
            fb: FuncBuilder::with_bufs(code, name, func),
            regs,
            unchecked: false,
            exhausted: false,
            free_slots,
            free_fslots,
            spill_getregs: 0,
        }
    }

    /// Disables the per-operand spill checks: a `getreg` that finds the
    /// pool empty marks the function [`Vcode::exhausted`] instead of
    /// counting on a spilled location. The paper offers this mode for
    /// "situations where register pressure is not data dependent", buying
    /// roughly a factor of two in code generation speed.
    pub fn set_unchecked(&mut self, unchecked: bool) {
        self.unchecked = unchecked;
    }

    /// True once an unchecked `getreg` has found the pool empty: the
    /// function broke the unchecked contract, and the caller should
    /// report that as the paper's "run-time error" rather than finish
    /// it. (The location handed out was a spill slot, as in checked
    /// mode, so emission itself carried on.)
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Number of instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.fb.asm.emitted()
    }

    /// Allocates a location of kind `k` (`getreg`). Falls back to a spill
    /// slot when the pool is empty; in unchecked mode that also marks the
    /// function [`Vcode::exhausted`] (the paper: "it terminates the
    /// program with a run-time error").
    pub fn getreg(&mut self, k: ValKind) -> Loc {
        self.getreg_pref(k, false)
    }

    /// `getreg` preferring a callee-saved register — for values that must
    /// survive calls (including nested-CGF-driven calls in dynamic code).
    pub fn getreg_saved(&mut self, k: ValKind) -> Loc {
        self.getreg_pref(k, true)
    }

    fn getreg_pref(&mut self, k: ValKind, prefer_saved: bool) -> Loc {
        if k == ValKind::F {
            if let Some((f, callee_saved)) = self.regs.get_float(prefer_saved) {
                if callee_saved {
                    self.fb.use_callee_saved_f(f);
                }
                return Loc::F(f);
            }
            self.exhausted |= self.unchecked;
            self.spill_getregs += 1;
            let off = self
                .free_fslots
                .pop()
                .unwrap_or_else(|| self.fb.alloc_slot());
            return Loc::FSpill(off);
        }
        if let Some((r, callee_saved)) = self.regs.get_int(prefer_saved) {
            if callee_saved {
                self.fb.use_callee_saved(r);
            }
            return Loc::R(r);
        }
        self.exhausted |= self.unchecked;
        self.spill_getregs += 1;
        let off = self
            .free_slots
            .pop()
            .unwrap_or_else(|| self.fb.alloc_slot());
        Loc::Spill(off)
    }

    /// Releases a location (`putreg`).
    pub fn putreg(&mut self, loc: Loc) {
        match loc {
            Loc::R(r) => self.regs.put_int(r),
            Loc::F(f) => self.regs.put_float(f),
            Loc::Spill(off) => self.free_slots.push(off),
            Loc::FSpill(off) => self.free_fslots.push(off),
        }
    }

    /// Reserves `n` temporaries for static management (see
    /// [`RegMgr::reserve_temps`]).
    pub fn reserve_temps(&mut self, n: usize) -> Vec<Reg> {
        self.regs.reserve_temps(n)
    }

    /// The location of the `i`-th integer argument on entry.
    pub fn arg_loc(&self, i: usize) -> Loc {
        Loc::R(ARG_REGS[i])
    }

    /// The location of the `i`-th floating point argument on entry.
    pub fn farg_loc(&self, i: usize) -> Loc {
        Loc::F(FARG_REGS[i])
    }

    /// Creates an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.fb.asm.new_label()
    }

    /// Binds a label here.
    pub fn bind(&mut self, l: Label) {
        self.fb.asm.bind(l);
    }

    // ---- operand plumbing ------------------------------------------------

    /// Materializes an integer operand into a register (reloading spills
    /// into the selected scratch register).
    fn use_int(&mut self, loc: Loc, scratch: Reg) -> Reg {
        match loc {
            Loc::R(r) => r,
            Loc::Spill(off) => {
                self.fb.load_slot(scratch, off);
                scratch
            }
            _ => panic!("expected integer location, got {loc:?}"),
        }
    }

    fn use_f(&mut self, loc: Loc, scratch: FReg) -> FReg {
        match loc {
            Loc::F(f) => f,
            Loc::FSpill(off) => {
                self.fb.load_slot_f(scratch, off);
                scratch
            }
            _ => panic!("expected fp location, got {loc:?}"),
        }
    }

    fn def_int(&mut self, loc: Loc) -> Reg {
        match loc {
            Loc::R(r) => r,
            Loc::Spill(_) => AT0,
            _ => panic!("expected integer location, got {loc:?}"),
        }
    }

    fn commit_int(&mut self, loc: Loc, r: Reg) {
        if let Loc::Spill(off) = loc {
            self.fb.store_slot(r, off);
        }
    }

    fn def_f(&mut self, loc: Loc) -> FReg {
        match loc {
            Loc::F(f) => f,
            Loc::FSpill(_) => FAT,
            _ => panic!("expected fp location, got {loc:?}"),
        }
    }

    fn commit_f(&mut self, loc: Loc, f: FReg) {
        if let Loc::FSpill(off) = loc {
            self.fb.store_slot_f(f, off);
        }
    }

    // ---- typed emission macros -------------------------------------------

    /// Loads an integer constant into `dst`.
    pub fn li(&mut self, dst: Loc, v: i64) {
        let d = self.def_int(dst);
        self.fb.asm.li(d, v);
        self.commit_int(dst, d);
    }

    /// Loads a floating point constant into `dst`.
    pub fn lif(&mut self, dst: Loc, v: f64) {
        let d = self.def_f(dst);
        self.fb.asm.lif(d, v);
        self.commit_f(dst, d);
    }

    /// `dst <- a op b` at kind `k`. Comparisons at kind `F` take fp
    /// operands but an *integer* destination.
    pub fn bin(&mut self, op: BinOp, k: ValKind, dst: Loc, a: Loc, b: Loc) {
        if k == ValKind::F {
            if op.is_cmp() {
                self.float_cmp(op, dst, a, b);
            } else {
                let fa = self.use_f(a, FAT);
                // A second fp scratch does not exist; spilled second
                // operands reload into FAT only when `a` was in a register.
                let fb_reg = match b {
                    Loc::F(f) => f,
                    Loc::FSpill(off) => {
                        assert!(
                            !matches!(a, Loc::FSpill(_)),
                            "both fp operands spilled; reserve a register first"
                        );
                        self.fb.load_slot_f(FAT, off);
                        FAT
                    }
                    _ => panic!("expected fp operand"),
                };
                let d = self.def_f(dst);
                let mop = match op {
                    BinOp::Add => Op::Fadd,
                    BinOp::Sub => Op::Fsub,
                    BinOp::Mul => Op::Fmul,
                    BinOp::Div => Op::Fdiv,
                    _ => panic!("fp op {op:?} unsupported"),
                };
                self.fb.asm.emit(Insn::fr(mop, d, fa, fb_reg));
                self.commit_f(dst, d);
            }
            return;
        }
        let ra = self.use_int(a, AT0);
        let rb = self.use_int(b, AT1);
        let d = self.def_int(dst);
        self.int_bin_regs(op, k, d, ra, rb);
        self.commit_int(dst, d);
    }

    fn int_bin_regs(&mut self, op: BinOp, k: ValKind, d: Reg, ra: Reg, rb: Reg) {
        if let Some(mop) = int_binop_op(op, k) {
            self.fb.asm.emit(Insn::r(mop, d, ra, rb));
            return;
        }
        // Gt/Ge/Le and unsigned variants: compose from slt/xori.
        use BinOp::*;
        match op {
            Gt | GtU => {
                let slt = int_binop_op(if op == Gt { Lt } else { LtU }, k).expect("slt exists");
                self.fb.asm.emit(Insn::r(slt, d, rb, ra));
            }
            Le | LeU => {
                let slt = int_binop_op(if op == Le { Lt } else { LtU }, k).expect("slt exists");
                self.fb.asm.emit(Insn::r(slt, d, rb, ra));
                self.fb.asm.emit(Insn::i(Op::Xori, d, d, 1));
            }
            Ge | GeU => {
                let slt = int_binop_op(if op == Ge { Lt } else { LtU }, k).expect("slt exists");
                self.fb.asm.emit(Insn::r(slt, d, ra, rb));
                self.fb.asm.emit(Insn::i(Op::Xori, d, d, 1));
            }
            _ => panic!("unhandled integer op {op:?}"),
        }
    }

    fn float_cmp(&mut self, op: BinOp, dst: Loc, a: Loc, b: Loc) {
        use BinOp::*;
        let fa = self.use_f(a, FAT);
        let fb_reg = match b {
            Loc::F(f) => f,
            Loc::FSpill(off) => {
                assert!(!matches!(a, Loc::FSpill(_)), "both fp operands spilled");
                self.fb.load_slot_f(FAT, off);
                FAT
            }
            _ => panic!("expected fp operand"),
        };
        let d = self.def_int(dst);
        let (mop, swap, negate) = match op {
            Eq => (Op::Feq, false, false),
            Ne => (Op::Feq, false, true),
            Lt => (Op::Flt, false, false),
            Le => (Op::Fle, false, false),
            Gt => (Op::Flt, true, false),
            Ge => (Op::Fle, true, false),
            _ => panic!("fp comparison {op:?} unsupported"),
        };
        let (x, y) = if swap { (fb_reg, fa) } else { (fa, fb_reg) };
        self.fb.asm.emit(Insn {
            op: mop,
            rd: d.0,
            rs1: x.0,
            rs2: y.0,
            imm: 0,
        });
        if negate {
            self.fb.asm.emit(Insn::i(Op::Xori, d, d, 1));
        }
        self.commit_int(dst, d);
    }

    /// `dst <- a + imm` at kind `k` (integer kinds).
    pub fn addi(&mut self, k: ValKind, dst: Loc, a: Loc, imm: i64) {
        let ra = self.use_int(a, AT0);
        let d = self.def_int(dst);
        self.fb.asm.add_ri(k, d, ra, imm);
        self.commit_int(dst, d);
    }

    /// Strength-reduced `dst <- a * imm` (the run-time-constant multiply
    /// macro).
    pub fn mul_imm(&mut self, k: ValKind, dst: Loc, a: Loc, imm: i64) {
        let ra = self.use_int(a, AT1);
        let d = self.def_int(dst);
        self.fb.asm.mul_imm(k, d, ra, imm);
        self.commit_int(dst, d);
    }

    /// Strength-reduced signed divide by a constant.
    pub fn divs_imm(&mut self, k: ValKind, dst: Loc, a: Loc, imm: i64) {
        let ra = self.use_int(a, AT1);
        let d = self.def_int(dst);
        self.fb.asm.divs_imm(k, d, ra, imm);
        self.commit_int(dst, d);
    }

    /// Strength-reduced unsigned divide by a constant.
    pub fn divu_imm(&mut self, k: ValKind, dst: Loc, a: Loc, imm: u64) {
        let ra = self.use_int(a, AT1);
        let d = self.def_int(dst);
        self.fb.asm.divu_imm(k, d, ra, imm);
        self.commit_int(dst, d);
    }

    /// Strength-reduced unsigned remainder by a constant.
    pub fn remu_imm(&mut self, k: ValKind, dst: Loc, a: Loc, imm: u64) {
        let ra = self.use_int(a, AT1);
        let d = self.def_int(dst);
        self.fb.asm.remu_imm(k, d, ra, imm);
        self.commit_int(dst, d);
    }

    /// `dst <- op a` at kind `k`.
    pub fn un(&mut self, op: UnOp, k: ValKind, dst: Loc, a: Loc) {
        match op {
            UnOp::Neg if k == ValKind::F => {
                let fa = self.use_f(a, FAT);
                let d = self.def_f(dst);
                self.fb.asm.emit(Insn::fr(Op::Fneg, d, fa, fa));
                self.commit_f(dst, d);
            }
            UnOp::Mov if k == ValKind::F => {
                let fa = self.use_f(a, FAT);
                let d = self.def_f(dst);
                self.fb.asm.fmov(d, fa);
                self.commit_f(dst, d);
            }
            UnOp::Neg => {
                let ra = self.use_int(a, AT0);
                let d = self.def_int(dst);
                let sub = if k == ValKind::W { Op::Subw } else { Op::Subd };
                self.fb.asm.emit(Insn::r(sub, d, ZERO, ra));
                self.commit_int(dst, d);
            }
            UnOp::Not => {
                let ra = self.use_int(a, AT0);
                let d = self.def_int(dst);
                self.fb.asm.li(AT1, -1);
                self.fb.asm.emit(Insn::r(Op::Xor, d, ra, AT1));
                if k == ValKind::W {
                    // renormalize to sign-extended 32-bit form
                    self.fb.asm.emit(Insn::i(Op::Addiw, d, d, 0));
                }
                self.commit_int(dst, d);
            }
            UnOp::Mov => {
                let ra = self.use_int(a, AT0);
                let d = self.def_int(dst);
                if k == ValKind::W {
                    self.fb.asm.emit(Insn::i(Op::Addiw, d, ra, 0));
                } else {
                    self.fb.asm.mov(d, ra);
                }
                self.commit_int(dst, d);
            }
            UnOp::CvtWtoF | UnOp::CvtLtoF => {
                let ra = self.use_int(a, AT0);
                let d = self.def_f(dst);
                let mop = if op == UnOp::CvtWtoF {
                    Op::Cvtwd
                } else {
                    Op::Cvtld
                };
                self.fb.asm.emit(Insn {
                    op: mop,
                    rd: d.0,
                    rs1: ra.0,
                    rs2: 0,
                    imm: 0,
                });
                self.commit_f(dst, d);
            }
            UnOp::CvtFtoW | UnOp::CvtFtoL => {
                let fa = self.use_f(a, FAT);
                let d = self.def_int(dst);
                let mop = if op == UnOp::CvtFtoW {
                    Op::Cvtdw
                } else {
                    Op::Cvtdl
                };
                self.fb.asm.emit(Insn {
                    op: mop,
                    rd: d.0,
                    rs1: fa.0,
                    rs2: 0,
                    imm: 0,
                });
                self.commit_int(dst, d);
            }
        }
    }

    /// Typed load `dst <- mem[base + off]`.
    pub fn load(&mut self, lk: LoadKind, dst: Loc, base: Loc, off: i64) {
        let rb = self.use_int(base, AT1);
        if lk == LoadKind::F64 {
            let d = self.def_f(dst);
            self.fb.asm.fload(d, rb, off);
            self.commit_f(dst, d);
        } else {
            let d = self.def_int(dst);
            self.fb.asm.load(lk.op(), d, rb, off);
            self.commit_int(dst, d);
        }
    }

    /// Typed store `mem[base + off] <- val`.
    pub fn store(&mut self, sk: StoreKind, val: Loc, base: Loc, off: i64) {
        let rb = self.use_int(base, AT0);
        if sk == StoreKind::F64 {
            let fv = self.use_f(val, FAT);
            self.fb.asm.fstore(fv, rb, off);
        } else {
            let rv = self.use_int(val, AT1);
            self.fb.asm.store(sk.op(), rv, rb, off);
        }
    }

    /// Fused compare-and-branch: `if (a op b) goto label`.
    pub fn br_cmp(&mut self, op: BinOp, k: ValKind, a: Loc, b: Loc, label: Label) {
        debug_assert!(op.is_cmp());
        if k == ValKind::F {
            let t = Loc::R(AT0);
            self.float_cmp(op, t, a, b);
            self.fb.asm.br(Op::Bne, AT0, ZERO, label);
            return;
        }
        let ra = self.use_int(a, AT0);
        let rb = self.use_int(b, AT1);
        let (mop, swap) = int_branch_op(op, k).expect("comparison");
        let (x, y) = if swap { (rb, ra) } else { (ra, rb) };
        self.fb.asm.br(mop, x, y, label);
    }

    /// Branch if `loc` is non-zero.
    pub fn br_true(&mut self, loc: Loc, label: Label) {
        let r = self.use_int(loc, AT0);
        self.fb.asm.br(Op::Bne, r, ZERO, label);
    }

    /// Branch if `loc` is zero.
    pub fn br_false(&mut self, loc: Loc, label: Label) {
        let r = self.use_int(loc, AT0);
        self.fb.asm.br(Op::Beq, r, ZERO, label);
    }

    /// Unconditional jump.
    pub fn jmp(&mut self, label: Label) {
        self.fb.asm.jmp(label);
    }

    /// Emits a call. `args` are `(kind, loc)` pairs assigned to argument
    /// registers in order (integers and floats numbered separately).
    /// Returns results into `ret` if given.
    ///
    /// Caller-saved locations are **not** preserved across the call; the
    /// caller of this method must have arranged for live values to sit in
    /// callee-saved registers or spill slots (see [`Vcode::getreg_saved`]).
    pub fn call(
        &mut self,
        target: CallTarget,
        args: &[(ValKind, Loc)],
        ret: Option<(ValKind, Loc)>,
    ) {
        // Assign argument registers (the ABI bounds both lists, so they
        // live on the stack: emitting a call allocates nothing).
        let mut int_moves = [(Loc::R(ZERO), ZERO); ARG_REGS.len()];
        let mut float_moves = [(Loc::R(ZERO), FARG_REGS[0]); FARG_REGS.len()];
        let (mut ni, mut nf) = (0, 0);
        for &(k, loc) in args {
            if k == ValKind::F {
                float_moves[nf] = (loc, FARG_REGS[nf]);
                nf += 1;
            } else {
                int_moves[ni] = (loc, ARG_REGS[ni]);
                ni += 1;
            }
        }
        let float_moves = &float_moves[..nf];
        self.parallel_int_moves(&mut int_moves[..ni]);
        // Float moves: sources are never float arg registers in our
        // lowerings except the identity case; do a simple hazard check.
        for &(src, dst) in float_moves {
            let hazard = float_moves
                .iter()
                .any(|&(s, _)| matches!(s, Loc::F(f) if f == dst) && s != src);
            assert!(!hazard, "fp argument shuffle cycle unsupported");
            let f = self.use_f(src, FAT);
            self.fb.asm.fmov(dst, f);
        }
        match target {
            CallTarget::Addr(a) => self.fb.asm.call_addr(a),
            CallTarget::Ind(loc) => {
                let r = match loc {
                    // Target must survive the argument moves; it may not
                    // be an argument register.
                    Loc::R(r) => {
                        debug_assert!(!ARG_REGS.contains(&r), "call target in argument register");
                        r
                    }
                    Loc::Spill(off) => {
                        self.fb.load_slot(AT0, off);
                        AT0
                    }
                    _ => panic!("call target must be an integer location"),
                };
                self.fb.asm.call_reg(r);
            }
        }
        if let Some((k, loc)) = ret {
            if k == ValKind::F {
                let d = self.def_f(loc);
                self.fb.asm.fmov(d, FARG_REGS[0]);
                self.commit_f(loc, d);
            } else {
                let d = self.def_int(loc);
                self.fb.asm.mov(d, ARG_REGS[0]);
                self.commit_int(loc, d);
            }
        }
    }

    /// Executes a set of moves into distinct destination registers,
    /// honoring read-before-write hazards (breaking cycles via `at1`).
    /// Works in place: `moves` is consumed.
    fn parallel_int_moves(&mut self, moves: &mut [(Loc, Reg)]) {
        /// Removes `pending[i]`, keeping the order of the rest.
        fn take(pending: &mut &mut [(Loc, Reg)], i: usize) -> (Loc, Reg) {
            let taken = pending[i];
            pending.copy_within(i + 1.., i);
            let all = std::mem::take(pending);
            let n = all.len() - 1;
            *pending = &mut all[..n];
            taken
        }
        let mut pending = moves;
        while let Some(i) = (pending.iter()).position(|&(src, dst)| src == Loc::R(dst)) {
            take(&mut pending, i);
        }
        while !pending.is_empty() {
            let ready = pending.iter().position(|&(_, dst)| {
                !pending
                    .iter()
                    .any(|&(s, _)| matches!(s, Loc::R(r) if r == dst))
            });
            match ready {
                Some(i) => {
                    let (src, dst) = take(&mut pending, i);
                    match src {
                        Loc::R(r) => self.fb.asm.mov(dst, r),
                        Loc::Spill(off) => self.fb.load_slot(dst, off),
                        _ => panic!("integer argument expected"),
                    }
                }
                None => {
                    // Cycle: `dst` is a source of some other pending move,
                    // so park dst's current value in at1, repoint the moves
                    // that read it, then perform this move.
                    let (src, dst) = take(&mut pending, 0);
                    debug_assert!(
                        !pending.iter().any(|&(s, _)| s == Loc::R(AT1)),
                        "overlapping move cycles"
                    );
                    self.fb.asm.mov(AT1, dst);
                    for p in pending.iter_mut() {
                        if p.0 == Loc::R(dst) {
                            p.0 = Loc::R(AT1);
                        }
                    }
                    match src {
                        Loc::R(r) => self.fb.asm.mov(dst, r),
                        Loc::Spill(off) => self.fb.load_slot(dst, off),
                        _ => panic!("integer argument expected"),
                    }
                }
            }
        }
    }

    /// Host call with call-style argument passing.
    pub fn hcall_with(&mut self, num: u32, args: &[(ValKind, Loc)], ret: Option<(ValKind, Loc)>) {
        let mut int_moves = [(Loc::R(ZERO), ZERO); ARG_REGS.len()];
        let (mut ni, mut nf) = (0, 0);
        for &(k, loc) in args {
            if k == ValKind::F {
                let f = self.use_f(loc, FAT);
                self.fb.asm.fmov(FARG_REGS[nf], f);
                nf += 1;
            } else {
                int_moves[ni] = (loc, ARG_REGS[ni]);
                ni += 1;
            }
        }
        self.parallel_int_moves(&mut int_moves[..ni]);
        self.fb.asm.hcall(num);
        if let Some((k, loc)) = ret {
            if k == ValKind::F {
                let d = self.def_f(loc);
                self.fb.asm.fmov(d, FARG_REGS[0]);
                self.commit_f(loc, d);
            } else {
                let d = self.def_int(loc);
                self.fb.asm.mov(d, ARG_REGS[0]);
                self.commit_int(loc, d);
            }
        }
    }

    /// Moves `loc` to the ABI return register and returns.
    pub fn ret_val(&mut self, k: ValKind, loc: Loc) {
        if k == ValKind::F {
            let f = self.use_f(loc, FAT);
            self.fb.ret_freg(f);
        } else {
            let r = self.use_int(loc, AT0);
            self.fb.ret_reg(r);
        }
    }

    /// Returns with no value.
    pub fn ret(&mut self) {
        self.fb.ret();
    }

    /// Raw access to the link register (used when a caller wants the
    /// current return address — not normally needed).
    pub fn ra(&self) -> Reg {
        RA
    }

    /// Seals the function.
    ///
    /// # Errors
    ///
    /// [`VmError::CodeBudget`] when the function crossed its code
    /// space's budget: the space has rolled it back.
    pub fn finish(self) -> Result<FinishedFunc, VmError> {
        self.finish_with_bufs().0
    }

    /// [`Vcode::finish`], also returning the generator's storage for the
    /// next function's [`Vcode::with_bufs`] (whether or not it sealed).
    pub fn finish_with_bufs(self) -> (Result<FinishedFunc, VmError>, VcodeBufs) {
        let (f, func) = self.fb.finish_with_bufs();
        let bufs = VcodeBufs {
            func,
            regs: Some(self.regs),
            free_slots: self.free_slots,
            free_fslots: self.free_fslots,
        };
        (f, bufs)
    }

    /// Abandons the function — the way out of a compile that failed
    /// part-way — leaving the code space as it was before
    /// [`Vcode::with_bufs`] began it, and returns the generator's
    /// storage for the next function.
    pub fn abort_with_bufs(self) -> (Result<(), VmError>, VcodeBufs) {
        let (rolled_back, func) = self.fb.abort_with_bufs();
        let bufs = VcodeBufs {
            func,
            regs: Some(self.regs),
            free_slots: self.free_slots,
            free_fslots: self.free_fslots,
        };
        (rolled_back, bufs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_vm::Vm;

    fn with_vm(build: impl FnOnce(&mut Vcode<'_>)) -> (Vm, u64) {
        let mut code = CodeSpace::new();
        let mut vc = Vcode::new(&mut code, "t");
        build(&mut vc);
        let f = vc.finish().unwrap();
        (Vm::new(code, 1 << 20), f.addr)
    }

    #[test]
    fn all_int_binops_against_reference() {
        use BinOp::*;
        let cases = [
            (7i64, 3i64),
            (-7, 3),
            (0, 5),
            (i32::MAX as i64, 2),
            (i32::MIN as i64, -1),
            (100, 10),
            (-1, 1),
        ];
        for op in [
            Add, Sub, Mul, Div, DivU, Rem, RemU, And, Or, Xor, Shl, Shr, ShrU, Eq, Ne, Lt, LtU, Le,
            LeU, Gt, GtU, Ge, GeU,
        ] {
            for k in [ValKind::W, ValKind::D] {
                for (a, b) in cases {
                    if matches!(op, Div | DivU | Rem | RemU) && b == 0 {
                        continue;
                    }
                    if matches!(op, Shl | Shr | ShrU) && b < 0 {
                        continue;
                    }
                    // skip the W-kind overflow div corner (hardware traps vary)
                    let expect = match op.eval_int(k, a, b) {
                        Some(v) => v,
                        None => continue,
                    };
                    let (mut vm, addr) = with_vm(|vc| {
                        let x = vc.arg_loc(0);
                        let y = vc.arg_loc(1);
                        let d = vc.getreg(k);
                        vc.bin(op, k, d, x, y);
                        vc.ret_val(k, d);
                    });
                    let got = vm.call(addr, &[a as u64, b as u64]).unwrap();
                    assert_eq!(got as i64, expect, "{op:?}/{k:?} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn spilled_locations_work_transparently() {
        // Exhaust the pool, compute with spilled locations.
        let (mut vm, addr) = with_vm(|vc| {
            let mut locs = Vec::new();
            for i in 0..25 {
                let l = vc.getreg(ValKind::W);
                vc.li(l, i as i64 + 1);
                locs.push(l);
            }
            assert!(
                locs.iter().any(|l| l.is_spill()),
                "expected spills after 20 getregs"
            );
            let acc = vc.getreg(ValKind::W);
            assert!(acc.is_spill());
            vc.li(acc, 0);
            for &l in &locs {
                vc.bin(BinOp::Add, ValKind::W, acc, acc, l);
            }
            vc.ret_val(ValKind::W, acc);
        });
        assert_eq!(vm.call(addr, &[]).unwrap(), (1..=25).sum::<u64>());
    }

    #[test]
    fn unchecked_mode_flags_exhaustion() {
        for unchecked in [false, true] {
            let mut code = CodeSpace::new();
            let mut vc = Vcode::new(&mut code, "t");
            vc.set_unchecked(unchecked);
            for _ in 0..21 {
                assert!(!vc.exhausted());
                vc.getreg(ValKind::W);
            }
            assert_eq!(vc.exhausted(), unchecked);
            assert_eq!(vc.spill_getregs, 1);
        }
    }

    #[test]
    fn float_arithmetic_and_compare() {
        let (mut vm, addr) = with_vm(|vc| {
            let x = vc.farg_loc(0);
            let y = vc.farg_loc(1);
            let d = vc.getreg(ValKind::F);
            vc.bin(BinOp::Mul, ValKind::F, d, x, y);
            let c = vc.getreg(ValKind::W);
            vc.bin(BinOp::Gt, ValKind::F, c, d, x);
            vc.ret_val(ValKind::W, c);
        });
        assert_eq!(vm.call_with(addr, &[], &[2.0, 3.0]).unwrap().0, 1); // 6 > 2
        assert_eq!(vm.call_with(addr, &[], &[2.0, 0.5]).unwrap().0, 0); // 1 !> 2
    }

    #[test]
    fn branches_over_locs() {
        // max(a, b)
        let (mut vm, addr) = with_vm(|vc| {
            let a = vc.arg_loc(0);
            let b = vc.arg_loc(1);
            let l = vc.new_label();
            let r = vc.getreg(ValKind::W);
            vc.un(UnOp::Mov, ValKind::W, r, a);
            vc.br_cmp(BinOp::Ge, ValKind::W, a, b, l);
            vc.un(UnOp::Mov, ValKind::W, r, b);
            vc.bind(l);
            vc.ret_val(ValKind::W, r);
        });
        assert_eq!(vm.call(addr, &[3, 9]).unwrap(), 9);
        assert_eq!(vm.call(addr, &[9, 3]).unwrap(), 9);
        assert_eq!(vm.call(addr, &[(-5i64) as u64, 3]).unwrap(), 3);
    }

    #[test]
    fn call_shuffles_argument_registers_safely() {
        let mut code = CodeSpace::new();
        // callee(a, b) = a - b
        let mut vc = Vcode::new(&mut code, "callee");
        let d = vc.getreg(ValKind::W);
        let (a, b) = (vc.arg_loc(0), vc.arg_loc(1));
        vc.bin(BinOp::Sub, ValKind::W, d, a, b);
        vc.ret_val(ValKind::W, d);
        let callee = vc.finish().unwrap();

        // caller(a, b) = callee(b, a)  — swap requires cycle breaking
        let mut vc = Vcode::new(&mut code, "caller");
        let (a, b) = (vc.arg_loc(0), vc.arg_loc(1));
        let r = vc.getreg_saved(ValKind::W);
        vc.call(
            CallTarget::Addr(callee.addr),
            &[(ValKind::W, b), (ValKind::W, a)],
            Some((ValKind::W, r)),
        );
        vc.ret_val(ValKind::W, r);
        let caller = vc.finish().unwrap();

        let mut vm = Vm::new(code, 1 << 20);
        assert_eq!(vm.call(caller.addr, &[10, 3]).unwrap() as i64, -7);
    }

    #[test]
    fn indirect_call_through_spill() {
        let mut code = CodeSpace::new();
        let mut vc = Vcode::new(&mut code, "seven");
        let d = vc.getreg(ValKind::W);
        vc.li(d, 7);
        vc.ret_val(ValKind::W, d);
        let seven = vc.finish().unwrap();

        let mut vc = Vcode::new(&mut code, "caller");
        let t = vc.getreg(ValKind::P);
        vc.li(t, seven.addr as i64);
        vc.call(CallTarget::Ind(t), &[], Some((ValKind::W, t)));
        vc.ret_val(ValKind::W, t);
        let caller = vc.finish().unwrap();

        let mut vm = Vm::new(code, 1 << 20);
        assert_eq!(vm.call(caller.addr, &[]).unwrap(), 7);
    }

    #[test]
    fn loads_stores_and_conversions() {
        let (mut vm, addr) = with_vm(|vc| {
            let base = vc.arg_loc(1);
            let v = vc.arg_loc(0);
            vc.store(StoreKind::I32, v, base, 0);
            let w = vc.getreg(ValKind::W);
            vc.load(LoadKind::I32, w, base, 0);
            let f = vc.getreg(ValKind::F);
            vc.un(UnOp::CvtWtoF, ValKind::F, f, w);
            vc.bin(BinOp::Add, ValKind::F, f, f, f);
            let out = vc.getreg(ValKind::W);
            vc.un(UnOp::CvtFtoW, ValKind::W, out, f);
            vc.ret_val(ValKind::W, out);
        });
        let buf_vm_addr = {
            // allocate after VM construction
            0
        };
        let _ = buf_vm_addr;
        let buf = vm.state_mut().mem.alloc(8, 8).unwrap();
        assert_eq!(vm.call(addr, &[21, buf]).unwrap(), 42);
    }

    #[test]
    fn unops_match_reference() {
        for (op, x, expect) in [
            (UnOp::Neg, 5i64, -5i64),
            (UnOp::Neg, i32::MIN as i64, i32::MIN as i64), // wraps
            (UnOp::Not, 0, -1),
            (UnOp::Not, -1, 0),
            (UnOp::Mov, 77, 77),
        ] {
            let (mut vm, addr) = with_vm(|vc| {
                let a = vc.arg_loc(0);
                let d = vc.getreg(ValKind::W);
                vc.un(op, ValKind::W, d, a);
                vc.ret_val(ValKind::W, d);
            });
            assert_eq!(
                vm.call(addr, &[x as u64]).unwrap() as i64,
                expect,
                "{op:?} {x}"
            );
        }
    }
}
