//! Raw instruction emission: labels, forward-reference patching, constant
//! synthesis, long-offset addressing, calls.
//!
//! `Asm` is the lowest layer every code generator in the workspace shares.
//! It deliberately mirrors what VCODE's per-instruction C macros did:
//! "most VCODE macros simply perform bit manipulations on their arguments
//! and write the resulting machine instruction to memory" (§5.1). Multi-
//! instruction sequences appear exactly where a real RISC needs them:
//! large immediates, long memory offsets, strength-reduced multiplies.

use tcc_rt::ValKind;
use tcc_vm::isa::{fits_imm14, IMM14_MAX, IMM14_MIN, IMM24_MAX, IMM24_MIN};
use tcc_vm::regs::{AT0, AT1, RA, ZERO};
use tcc_vm::{CodeSpace, FReg, FuncHandle, Insn, Op, Reg, CODE_BASE};

/// A branch target within the function being emitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// End of a label's forward-reference chain.
const NO_REF: u32 = u32::MAX;

/// Whether a word displacement fits the 24-bit field of `j`/`jal`.
fn fits_imm24(off: i64) -> bool {
    (i64::from(IMM24_MIN)..=i64::from(IMM24_MAX)).contains(&off)
}

#[derive(Clone, Copy, Debug)]
struct LabelInfo {
    bound: Option<usize>,
    /// Latest not-yet-patched reference to this label (an index into
    /// [`Asm::refs`]), chained to the earlier ones.
    last_ref: u32,
}

/// An assembler's per-function tables, kept for the next function: a
/// caller that emits many functions hands them back in through
/// [`Asm::with_bufs`] and a steady-state emission allocates neither.
#[derive(Clone, Debug, Default)]
pub struct AsmBufs {
    labels: Vec<LabelInfo>,
    refs: Vec<(usize, u32)>,
}

/// An assembler positioned inside one function of a [`CodeSpace`].
#[derive(Debug)]
pub struct Asm<'a> {
    code: &'a mut CodeSpace,
    func: FuncHandle,
    labels: Vec<LabelInfo>,
    /// Forward references awaiting their label: (word index to patch,
    /// previous reference to the same label). One array for the whole
    /// function, so a label costs no allocation of its own.
    refs: Vec<(usize, u32)>,
    start_index: usize,
}

impl<'a> Asm<'a> {
    /// Begins a new function named `name` in `code`.
    pub fn new(code: &'a mut CodeSpace, name: &str) -> Asm<'a> {
        Asm::with_bufs(code, name, AsmBufs::default())
    }

    /// [`Asm::new`] on the tables an earlier function left (emptied
    /// here; [`Asm::finish_with_bufs`] hands them back).
    pub fn with_bufs(code: &'a mut CodeSpace, name: &str, bufs: AsmBufs) -> Asm<'a> {
        let func = code.begin_function(name);
        let start_index = code.next_index();
        let AsmBufs {
            mut labels,
            mut refs,
        } = bufs;
        labels.clear();
        refs.clear();
        Asm {
            code,
            func,
            labels,
            refs,
            start_index,
        }
    }

    /// The function handle being emitted into.
    pub fn func(&self) -> FuncHandle {
        self.func
    }

    /// Number of instructions emitted into this function so far.
    pub fn emitted(&self) -> u64 {
        (self.code.next_index() - self.start_index) as u64
    }

    /// Emits one instruction; returns its word index for patching.
    #[inline]
    pub fn emit(&mut self, insn: Insn) -> usize {
        self.code.push(insn)
    }

    /// Overwrites a previously emitted instruction.
    pub fn patch(&mut self, index: usize, insn: Insn) {
        self.code.patch(index, insn);
    }

    /// Word index the next instruction will occupy.
    pub fn here(&self) -> usize {
        self.code.next_index()
    }

    /// Seals the function; returns its callable address. All labels must
    /// be bound.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label was never bound.
    pub fn finish(self) -> u64 {
        self.finish_with_bufs().0
    }

    /// [`Asm::finish`], also returning the label tables for the next
    /// function's [`Asm::with_bufs`].
    ///
    /// # Panics
    ///
    /// As [`Asm::finish`].
    pub fn finish_with_bufs(self) -> (u64, AsmBufs) {
        for (i, l) in self.labels.iter().enumerate() {
            assert!(
                l.bound.is_some() || l.last_ref == NO_REF,
                "label {i} referenced but never bound"
            );
        }
        let addr = self
            .code
            .finish_function(self.func)
            .expect("asm seals its function exactly once");
        let bufs = AsmBufs {
            labels: self.labels,
            refs: self.refs,
        };
        (addr, bufs)
    }

    /// Creates a fresh unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(LabelInfo {
            bound: None,
            last_ref: NO_REF,
        });
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the next instruction and patches every earlier
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound or a branch offset overflows.
    pub fn bind(&mut self, label: Label) {
        let at = self.code.next_index();
        let info = &mut self.labels[label.0];
        assert!(info.bound.is_none(), "label bound twice");
        info.bound = Some(at);
        let mut pending = std::mem::replace(&mut info.last_ref, NO_REF);
        while pending != NO_REF {
            let (r, earlier) = self.refs[pending as usize];
            pending = earlier;
            let word = self
                .code
                .fetch(CODE_BASE + (r as u64) * 4)
                .expect("own code");
            let mut insn = Insn::decode(word).expect("own code decodes");
            let off = at as i64 - (r as i64 + 1);
            if insn.op == Op::J || insn.op == Op::Jal {
                assert!(fits_imm24(off), "jump offset {off} overflows imm24");
                insn.imm = off as i32;
            } else {
                assert!(
                    (IMM14_MIN as i64..=IMM14_MAX as i64).contains(&off),
                    "branch offset {off} overflows imm14"
                );
                insn.imm = off as i32;
            }
            self.code.patch(r, insn);
        }
    }

    fn label_ref(&mut self, label: Label, at: usize) -> i32 {
        match self.labels[label.0].bound {
            Some(b) => {
                let off = b as i64 - (at as i64 + 1);
                assert!(fits_imm24(off), "label offset {off} overflows imm24");
                off as i32
            }
            None => {
                let info = &mut self.labels[label.0];
                let earlier = std::mem::replace(&mut info.last_ref, self.refs.len() as u32);
                self.refs.push((at, earlier));
                0
            }
        }
    }

    /// Emits a conditional branch `op` comparing `a` and `b`, targeting
    /// `label`.
    pub fn br(&mut self, op: Op, a: Reg, b: Reg, label: Label) {
        debug_assert!(op.is_branch());
        let at = self.here();
        let imm = self.label_ref(label, at);
        assert!(
            fits_imm14(imm.into()),
            "branch offset {imm} overflows imm14"
        );
        self.emit(Insn {
            op,
            rd: a.0,
            rs1: b.0,
            rs2: 0,
            imm,
        });
    }

    /// Unconditional jump to `label`.
    pub fn jmp(&mut self, label: Label) {
        let at = self.here();
        let imm = self.label_ref(label, at);
        self.emit(Insn {
            op: Op::J,
            rd: 0,
            rs1: 0,
            rs2: 0,
            imm,
        });
    }

    /// Direct call to an absolute code address: `jal` with a relative
    /// offset when the 24-bit jump field reaches the target, otherwise
    /// the address loaded into the emitter scratch `at0` and called
    /// through `jalr`.
    pub fn call_addr(&mut self, target: u64) {
        debug_assert!(target >= CODE_BASE && target.is_multiple_of(4));
        let at = self.here() as i64;
        let target_word = ((target - CODE_BASE) / 4) as i64;
        let off = target_word - (at + 1);
        if fits_imm24(off) {
            self.emit(Insn::j(Op::Jal, off as i32));
        } else {
            self.li(AT0, target as i64);
            self.call_reg(AT0);
        }
    }

    /// Indirect call through a register.
    pub fn call_reg(&mut self, target: Reg) {
        self.emit(Insn {
            op: Op::Jalr,
            rd: RA.0,
            rs1: target.0,
            rs2: 0,
            imm: 0,
        });
    }

    /// Host call trap.
    pub fn hcall(&mut self, num: u32) {
        self.emit(Insn::i(Op::Hcall, ZERO, ZERO, num as i32));
    }

    /// Register move.
    pub fn mov(&mut self, rd: Reg, rs: Reg) {
        if rd != rs {
            self.emit(Insn::i(Op::Addid, rd, rs, 0));
        }
    }

    /// Floating point register move.
    pub fn fmov(&mut self, fd: FReg, fs: FReg) {
        if fd != fs {
            self.emit(Insn::fr(Op::Fmov, fd, fs, fs));
        }
    }

    /// Loads an arbitrary 64-bit constant into `rd`, choosing the
    /// shortest sequence (1, 2 or up to 7 instructions). Data and code
    /// addresses and all `i32`/`u32` values take at most two.
    ///
    /// Uses `at1` (or `at0` when `rd == at1`) as scratch on the full
    /// 64-bit path.
    pub fn li(&mut self, rd: Reg, v: i64) {
        if fits_imm14(v) {
            self.emit(Insn::i(Op::Addid, rd, ZERO, v as i32));
            return;
        }
        // sethi+ori reaches any value whose top bits collapse into a
        // signed 19-bit high part: v in [-2^32, 2^33).
        let hi = v >> 14;
        if (-(1 << 18)..(1 << 18)).contains(&hi) {
            self.emit(Insn::sethi(rd, hi as i32));
            let lo = (v & 0x3fff) as i32;
            if lo != 0 {
                self.emit(Insn::i(Op::Ori, rd, rd, lo));
            }
            return;
        }
        // Full 64-bit: high 32 into rd, shift, build low 32 in scratch,
        // zero-extend it, or together.
        let scratch = if rd == AT1 { AT0 } else { AT1 };
        let hi32 = v >> 32;
        let lo32 = v & 0xffff_ffff;
        self.li(rd, hi32);
        self.emit(Insn::i(Op::Sllid, rd, rd, 32));
        self.li(scratch, lo32); // 0..2^32: within sethi+ori reach
        self.emit(Insn::r(Op::Or, rd, rd, scratch));
    }

    /// Loads an `f64` constant into `fd` by synthesizing its bits in
    /// `at0` and moving them across.
    pub fn lif(&mut self, fd: FReg, v: f64) {
        self.li(AT0, v.to_bits() as i64);
        self.emit(Insn {
            op: Op::Fmvdx,
            rd: fd.0,
            rs1: AT0.0,
            rs2: 0,
            imm: 0,
        });
    }

    /// `rd <- rs + imm` at kind `k`, synthesizing large immediates.
    pub fn add_ri(&mut self, k: ValKind, rd: Reg, rs: Reg, imm: i64) {
        let op = if k == ValKind::W {
            Op::Addiw
        } else {
            Op::Addid
        };
        if fits_imm14(imm) {
            self.emit(Insn::i(op, rd, rs, imm as i32));
        } else {
            self.li(AT0, imm);
            let rop = if k == ValKind::W { Op::Addw } else { Op::Addd };
            self.emit(Insn::r(rop, rd, rs, AT0));
        }
    }

    /// Integer load with an offset of any size (long offsets go through
    /// `at0`).
    pub fn load(&mut self, op: Op, rd: Reg, base: Reg, off: i64) {
        debug_assert!(matches!(
            op,
            Op::Lb | Op::Lbu | Op::Lh | Op::Lhu | Op::Lw | Op::Lwu | Op::Ld
        ));
        if fits_imm14(off) {
            self.emit(Insn::i(op, rd, base, off as i32));
        } else {
            self.li(AT0, off);
            self.emit(Insn::r(Op::Addd, AT0, base, AT0));
            self.emit(Insn::i(op, rd, AT0, 0));
        }
    }

    /// Integer store with an offset of any size.
    pub fn store(&mut self, op: Op, value: Reg, base: Reg, off: i64) {
        debug_assert!(matches!(op, Op::Sb | Op::Sh | Op::Sw | Op::Sd));
        debug_assert!(value != AT0, "store value must not be the scratch reg");
        if fits_imm14(off) {
            self.emit(Insn::i(op, value, base, off as i32));
        } else {
            self.li(AT0, off);
            self.emit(Insn::r(Op::Addd, AT0, base, AT0));
            self.emit(Insn::i(op, value, AT0, 0));
        }
    }

    /// Floating load with an offset of any size.
    pub fn fload(&mut self, fd: FReg, base: Reg, off: i64) {
        if fits_imm14(off) {
            self.emit(Insn::fmem(Op::Fld, fd, base, off as i32));
        } else {
            self.li(AT0, off);
            self.emit(Insn::r(Op::Addd, AT0, base, AT0));
            self.emit(Insn::fmem(Op::Fld, fd, AT0, 0));
        }
    }

    /// Floating store with an offset of any size.
    pub fn fstore(&mut self, fs: FReg, base: Reg, off: i64) {
        if fits_imm14(off) {
            self.emit(Insn::fmem(Op::Fsd, fs, base, off as i32));
        } else {
            self.li(AT0, off);
            self.emit(Insn::r(Op::Addd, AT0, base, AT0));
            self.emit(Insn::fmem(Op::Fsd, fs, AT0, 0));
        }
    }

    /// Strength-reduced multiply by a compile-time-known constant — the
    /// paper's "fancier code-generation macro than usual: rather than
    /// emitting a fixed sequence of instructions, it first checks the
    /// value of its immediate operand" (§4.4). Handles 0, ±1, powers of
    /// two and 2^n±1; falls back to `li`+`mul`.
    pub fn mul_imm(&mut self, k: ValKind, rd: Reg, rs: Reg, imm: i64) {
        debug_assert!(k != ValKind::F);
        let w = k == ValKind::W;
        let (shl, add, sub, mul) = if w {
            (Op::Slliw, Op::Addw, Op::Subw, Op::Mulw)
        } else {
            (Op::Sllid, Op::Addd, Op::Subd, Op::Muld)
        };
        let neg = imm < 0;
        let mag = imm.unsigned_abs();
        match mag {
            0 => {
                self.emit(Insn::i(Op::Addid, rd, ZERO, 0));
                return;
            }
            1 => {
                if neg {
                    self.emit(Insn::r(sub, rd, ZERO, rs));
                } else {
                    self.mov(rd, rs);
                }
                return;
            }
            m if m.is_power_of_two() => {
                let sh = m.trailing_zeros() as i32;
                self.emit(Insn::i(shl, rd, rs, sh));
                if neg {
                    self.emit(Insn::r(sub, rd, ZERO, rd));
                }
                return;
            }
            m if (m - 1).is_power_of_two() => {
                // x * (2^n + 1) = (x << n) + x
                let sh = (m - 1).trailing_zeros() as i32;
                self.emit(Insn::i(shl, AT0, rs, sh));
                self.emit(Insn::r(add, rd, AT0, rs));
                if neg {
                    self.emit(Insn::r(sub, rd, ZERO, rd));
                }
                return;
            }
            m if (m + 1).is_power_of_two() => {
                // x * (2^n - 1) = (x << n) - x
                let sh = (m + 1).trailing_zeros() as i32;
                self.emit(Insn::i(shl, AT0, rs, sh));
                self.emit(Insn::r(sub, rd, AT0, rs));
                if neg {
                    self.emit(Insn::r(sub, rd, ZERO, rd));
                }
                return;
            }
            _ => {}
        }
        self.li(AT0, imm);
        self.emit(Insn::r(mul, rd, rs, AT0));
    }

    /// Strength-reduced *unsigned* divide by a constant (powers of two
    /// become logical shifts).
    pub fn divu_imm(&mut self, k: ValKind, rd: Reg, rs: Reg, imm: u64) {
        debug_assert!(k != ValKind::F && imm != 0);
        let w = k == ValKind::W;
        if imm.is_power_of_two() {
            let sh = imm.trailing_zeros() as i32;
            let op = if w { Op::Srliw } else { Op::Srlid };
            if sh == 0 {
                self.mov(rd, rs);
            } else {
                self.emit(Insn::i(op, rd, rs, sh));
            }
            return;
        }
        self.li(AT0, imm as i64);
        let op = if w { Op::Divuw } else { Op::Divud };
        self.emit(Insn::r(op, rd, rs, AT0));
    }

    /// Strength-reduced *signed* divide by a constant. Powers of two use
    /// the round-toward-zero shift sequence; everything else falls back
    /// to `li`+`div`.
    pub fn divs_imm(&mut self, k: ValKind, rd: Reg, rs: Reg, imm: i64) {
        debug_assert!(k != ValKind::F && imm != 0);
        let w = k == ValKind::W;
        if imm > 1 && (imm as u64).is_power_of_two() {
            let sh = imm.trailing_zeros() as i32;
            let bits = if w { 32 } else { 64 };
            let (srai, srli, add) = if w {
                (Op::Sraiw, Op::Srliw, Op::Addw)
            } else {
                (Op::Sraid, Op::Srlid, Op::Addd)
            };
            // bias = (x >> bits-1) >>u (bits - sh); x' = x + bias; x' >> sh
            self.emit(Insn::i(srai, AT0, rs, bits - 1));
            self.emit(Insn::i(srli, AT0, AT0, bits - sh));
            self.emit(Insn::r(add, AT0, rs, AT0));
            self.emit(Insn::i(srai, rd, AT0, sh));
            return;
        }
        self.li(AT0, imm);
        let op = if w { Op::Divw } else { Op::Divd };
        self.emit(Insn::r(op, rd, rs, AT0));
    }

    /// Strength-reduced *unsigned* remainder by a constant (powers of two
    /// become masks).
    pub fn remu_imm(&mut self, k: ValKind, rd: Reg, rs: Reg, imm: u64) {
        debug_assert!(k != ValKind::F && imm != 0);
        let w = k == ValKind::W;
        if imm.is_power_of_two() {
            let mask = imm - 1;
            if mask <= 0x3fff {
                self.emit(Insn::i(Op::Andi, rd, rs, mask as i32));
            } else {
                self.li(AT0, mask as i64);
                self.emit(Insn::r(Op::And, rd, rs, AT0));
            }
            return;
        }
        self.li(AT0, imm as i64);
        let op = if w { Op::Remuw } else { Op::Remud };
        self.emit(Insn::r(op, rd, rs, AT0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_vm::regs::{A0, A1};
    use tcc_vm::Vm;

    fn exec(build: impl FnOnce(&mut Asm<'_>), args: &[u64]) -> u64 {
        let mut code = CodeSpace::new();
        let mut asm = Asm::new(&mut code, "t");
        build(&mut asm);
        asm.emit(Insn::ret());
        let addr = asm.finish();
        let mut vm = Vm::new(code, 1 << 20);
        vm.call(addr, args).unwrap()
    }

    #[test]
    fn li_covers_interesting_constants() {
        for v in [
            0i64,
            1,
            -1,
            8191,
            -8192,
            8192,
            0x1234_5678,
            -0x1234_5678,
            i32::MAX as i64,
            i32::MIN as i64,
            u32::MAX as i64,
            CODE_BASE as i64,
            0x1_0000_0000,
            i64::MAX,
            i64::MIN,
            -0x1234_5678_9abc_def0,
        ] {
            let got = exec(|a| a.li(A0, v), &[]);
            assert_eq!(got as i64, v, "li {v:#x}");
        }
    }

    #[test]
    fn li_into_scratch_register_is_safe() {
        let got = exec(
            |a| {
                a.li(AT1, 0x1234_5678_9abc_def0);
                a.mov(A0, AT1);
            },
            &[],
        );
        assert_eq!(got as i64, 0x1234_5678_9abc_def0);
    }

    #[test]
    fn forward_and_backward_labels() {
        // a0 = (a0 != 0) ? 10 : 20, with a forward branch and a join.
        let got = |x: u64| {
            exec(
                |a| {
                    let els = a.new_label();
                    let join = a.new_label();
                    a.br(Op::Beq, A0, ZERO, els);
                    a.li(A0, 10);
                    a.jmp(join);
                    a.bind(els);
                    a.li(A0, 20);
                    a.bind(join);
                },
                &[x],
            )
        };
        assert_eq!(got(1), 10);
        assert_eq!(got(0), 20);
    }

    #[test]
    fn backward_branch_loops() {
        // sum 1..=a0
        let got = exec(
            |a| {
                a.li(A1, 0);
                let top = a.new_label();
                let done = a.new_label();
                a.bind(top);
                a.br(Op::Beq, A0, ZERO, done);
                a.emit(Insn::r(Op::Addw, A1, A1, A0));
                a.emit(Insn::i(Op::Addiw, A0, A0, -1));
                a.jmp(top);
                a.bind(done);
                a.mov(A0, A1);
            },
            &[10],
        );
        assert_eq!(got, 55);
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics_on_finish() {
        let mut code = CodeSpace::new();
        let mut asm = Asm::new(&mut code, "t");
        let l = asm.new_label();
        asm.jmp(l);
        asm.finish();
    }

    #[test]
    fn mul_imm_strength_reduction_is_correct() {
        for imm in [
            0i64, 1, -1, 2, -2, 8, 3, 5, 9, 7, 15, -7, 6, 10, 100, -100, 12345,
        ] {
            for x in [0i64, 1, -1, 7, -13, 1 << 20, i32::MAX as i64] {
                let got = exec(|a| a.mul_imm(ValKind::W, A0, A0, imm), &[x as u64]);
                assert_eq!(
                    got as i64,
                    (x as i32).wrapping_mul(imm as i32) as i64,
                    "w: {x} * {imm}"
                );
                let got = exec(|a| a.mul_imm(ValKind::D, A0, A0, imm), &[x as u64]);
                assert_eq!(got as i64, x.wrapping_mul(imm), "d: {x} * {imm}");
            }
        }
    }

    #[test]
    fn mul_imm_power_of_two_avoids_mul() {
        let mut code = CodeSpace::new();
        let mut asm = Asm::new(&mut code, "t");
        asm.mul_imm(ValKind::W, A0, A1, 16);
        let f = asm.func();
        asm.emit(Insn::ret());
        asm.finish();
        let insns = code.instructions(f).unwrap();
        assert!(insns.iter().all(|i| i.op != Op::Mulw && i.op != Op::Muld));
    }

    #[test]
    fn div_rem_imm_match_reference() {
        for imm in [1i64, 2, 4, 1024, 3, 10] {
            for x in [
                0i64,
                5,
                -5,
                1023,
                -1024,
                i32::MAX as i64,
                i32::MIN as i64 + 1,
            ] {
                let got = exec(|a| a.divs_imm(ValKind::W, A0, A0, imm), &[x as u64]);
                assert_eq!(got as i64, ((x as i32) / (imm as i32)) as i64, "{x}/{imm}");
            }
            for x in [0u64, 5, 1023, u32::MAX as u64] {
                let got = exec(
                    |a| a.divu_imm(ValKind::W, A0, A0, imm as u64),
                    &[x as u32 as i32 as i64 as u64],
                );
                assert_eq!(got as u32, (x as u32) / (imm as u32), "{x}/u{imm}");
                let got = exec(
                    |a| a.remu_imm(ValKind::W, A0, A0, imm as u64),
                    &[x as u32 as i32 as i64 as u64],
                );
                assert_eq!(got as u32, (x as u32) % (imm as u32), "{x}%u{imm}");
            }
        }
    }

    #[test]
    fn long_offset_loads_and_stores() {
        let mut code = CodeSpace::new();
        let mut asm = Asm::new(&mut code, "t");
        asm.store(Op::Sw, A0, A1, 100_000);
        asm.load(Op::Lw, A0, A1, 100_000);
        asm.emit(Insn::ret());
        let addr = asm.finish();
        let mut vm = Vm::new(code, 1 << 20);
        let region = vm.state_mut().mem.alloc(100_016, 8).unwrap();
        let got = vm.call(addr, &[77, region]).unwrap();
        assert_eq!(got, 77);
        assert_eq!(
            vm.state().mem.load_u32(region + 100_000).unwrap(),
            77,
            "store landed at base+offset"
        );
    }

    #[test]
    fn call_addr_links_and_returns() {
        let mut code = CodeSpace::new();
        let mut asm = Asm::new(&mut code, "callee");
        asm.emit(Insn::i(Op::Addiw, A0, A0, 5));
        asm.emit(Insn::ret());
        let callee = asm.finish();

        let mut asm = Asm::new(&mut code, "caller");
        use tcc_vm::regs::SP;
        asm.emit(Insn::i(Op::Addid, SP, SP, -16));
        asm.emit(Insn::i(Op::Sd, RA, SP, 0));
        asm.call_addr(callee);
        asm.emit(Insn::i(Op::Ld, RA, SP, 0));
        asm.emit(Insn::i(Op::Addid, SP, SP, 16));
        asm.emit(Insn::ret());
        let caller = asm.finish();

        let mut vm = Vm::new(code, 1 << 20);
        assert_eq!(vm.call(caller, &[1]).unwrap(), 6);
    }

    #[test]
    fn lif_materializes_doubles() {
        let mut code = CodeSpace::new();
        let mut asm = Asm::new(&mut code, "t");
        use tcc_vm::regs::FA0;
        asm.lif(FA0, 2.5);
        asm.emit(Insn::ret());
        let addr = asm.finish();
        let mut vm = Vm::new(code, 1 << 20);
        assert_eq!(vm.call_f(addr, &[], &[]).unwrap(), 2.5);
    }

    #[test]
    fn emitted_counts_instructions() {
        let mut code = CodeSpace::new();
        let mut asm = Asm::new(&mut code, "t");
        assert_eq!(asm.emitted(), 0);
        asm.li(A0, 1);
        assert_eq!(asm.emitted(), 1);
        asm.li(A0, 0x7fff_0001);
        assert_eq!(asm.emitted(), 3); // sethi+ori
        asm.li(A0, 0x7fff_0000);
        assert_eq!(asm.emitted(), 4); // sethi only (low bits zero)
    }
}
