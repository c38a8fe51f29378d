//! Function scaffolding: prologue, epilogue, stack slots, lazy
//! callee-saved spills.
//!
//! Frame layout (grows down; `fp` = caller's `sp`):
//!
//! ```text
//!   fp -  8 : saved ra
//!   fp - 16 : saved caller fp
//!   fp - 24 - 8*i : slot i   (spills, dynamic locals, callee-saved saves)
//!   sp      : 16-aligned bottom of the frame
//! ```
//!
//! The prologue is five fixed instructions; the `sp` adjustment for slots
//! is a placeholder patched when the function is finished, so one-pass
//! emitters never need to know their frame size in advance. Callee-saved
//! registers are saved *lazily*, at the moment a code generator first
//! claims one — at that point the caller's value is still intact, so a
//! single store suffices and the epilogue restores it.

use crate::asm::{Asm, AsmBufs, Label};
use tcc_vm::regs::{FP, RA, SP};
use tcc_vm::{CodeSpace, FReg, FuncHandle, Insn, Op, Reg};

/// A completed function: address, handle, and emission statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FinishedFunc {
    /// Callable address.
    pub addr: u64,
    /// Handle in the code space (for disassembly).
    pub handle: FuncHandle,
    /// Number of instructions emitted (the denominator of the paper's
    /// "cycles per generated instruction" metric).
    pub insns: u64,
}

/// A builder's per-function vectors (the assembler's tables and the
/// callee-saved save lists), kept for the next function.
#[derive(Clone, Debug, Default)]
pub struct FuncBufs {
    asm: AsmBufs,
    saved: Vec<(Reg, i32)>,
    fsaved: Vec<(FReg, i32)>,
}

/// Builder for one function: an [`Asm`] plus frame management.
#[derive(Debug)]
pub struct FuncBuilder<'a> {
    /// The underlying assembler (public: code generators emit through it).
    pub asm: Asm<'a>,
    nslots: u32,
    sp_patch: usize,
    epilogue: Label,
    saved: Vec<(Reg, i32)>,
    fsaved: Vec<(FReg, i32)>,
}

impl<'a> FuncBuilder<'a> {
    /// Begins a function and emits its prologue.
    pub fn new(code: &'a mut CodeSpace, name: &str) -> FuncBuilder<'a> {
        FuncBuilder::with_bufs(code, name, FuncBufs::default())
    }

    /// [`FuncBuilder::new`] on the vectors an earlier function left
    /// (emptied here; [`FuncBuilder::finish_with_bufs`] hands them back).
    pub fn with_bufs(code: &'a mut CodeSpace, name: &str, bufs: FuncBufs) -> FuncBuilder<'a> {
        let FuncBufs {
            asm,
            mut saved,
            mut fsaved,
        } = bufs;
        saved.clear();
        fsaved.clear();
        let mut asm = Asm::with_bufs(code, name, asm);
        asm.emit(Insn::i(Op::Addid, SP, SP, -16));
        asm.emit(Insn::i(Op::Sd, RA, SP, 8));
        asm.emit(Insn::i(Op::Sd, FP, SP, 0));
        asm.emit(Insn::i(Op::Addid, FP, SP, 16));
        let sp_patch = asm.emit(Insn::i(Op::Addid, SP, SP, 0));
        let epilogue = asm.new_label();
        FuncBuilder {
            asm,
            nslots: 0,
            sp_patch,
            epilogue,
            saved,
            fsaved,
        }
    }

    /// Allocates a fresh 8-byte stack slot; returns its `fp`-relative
    /// offset (negative).
    ///
    /// # Panics
    ///
    /// Panics beyond 1000 slots (the offset would leave immediate range).
    pub fn alloc_slot(&mut self) -> i32 {
        let off = -24 - 8 * self.nslots as i32;
        self.nslots += 1;
        assert!(self.nslots <= 1000, "frame too large");
        off
    }

    /// Allocates a contiguous block of `bytes` (rounded up to 8) in the
    /// frame; returns the `fp`-relative offset of its *lowest* address.
    /// Used for local arrays and structs.
    ///
    /// # Panics
    ///
    /// Panics if the frame grows past 1000 slots.
    pub fn alloc_block(&mut self, bytes: u64) -> i32 {
        let n = bytes.div_ceil(8).max(1) as u32;
        self.nslots += n;
        assert!(self.nslots <= 1000, "frame too large");
        -24 - 8 * (self.nslots as i32 - 1)
    }

    /// Marks a callee-saved integer register as used, saving it into a
    /// fresh slot on first use.
    pub fn use_callee_saved(&mut self, r: Reg) {
        if self.saved.iter().any(|&(s, _)| s == r) {
            return;
        }
        let off = self.alloc_slot();
        self.asm.emit(Insn::i(Op::Sd, r, FP, off));
        self.saved.push((r, off));
    }

    /// Marks a callee-saved floating point register as used.
    pub fn use_callee_saved_f(&mut self, f: FReg) {
        if self.fsaved.iter().any(|&(s, _)| s == f) {
            return;
        }
        let off = self.alloc_slot();
        self.asm.emit(Insn::fmem(Op::Fsd, f, FP, off));
        self.fsaved.push((f, off));
    }

    /// Loads a slot into an integer register (full 64-bit, preserving the
    /// canonical form of whatever was stored).
    pub fn load_slot(&mut self, rd: Reg, off: i32) {
        self.asm.emit(Insn::i(Op::Ld, rd, FP, off));
    }

    /// Stores an integer register into a slot.
    pub fn store_slot(&mut self, rs: Reg, off: i32) {
        self.asm.emit(Insn::i(Op::Sd, rs, FP, off));
    }

    /// Loads a slot into a floating point register.
    pub fn load_slot_f(&mut self, fd: FReg, off: i32) {
        self.asm.emit(Insn::fmem(Op::Fld, fd, FP, off));
    }

    /// Stores a floating point register into a slot.
    pub fn store_slot_f(&mut self, fs: FReg, off: i32) {
        self.asm.emit(Insn::fmem(Op::Fsd, fs, FP, off));
    }

    /// The address expression of a slot, as `(base, offset)` — slots are
    /// addressable so dynamic locals can live in them.
    pub fn slot_base_off(&self, off: i32) -> (Reg, i32) {
        (FP, off)
    }

    /// Jumps to the (shared) epilogue.
    pub fn ret(&mut self) {
        let l = self.epilogue;
        self.asm.jmp(l);
    }

    /// Moves an integer value into the return register and returns. The
    /// value must already be in `a0`'s kind-correct form.
    pub fn ret_reg(&mut self, r: Reg) {
        self.asm.mov(tcc_vm::regs::A0, r);
        self.ret();
    }

    /// Binds the epilogue, patches the frame size, and seals the
    /// function.
    pub fn finish(self) -> FinishedFunc {
        self.finish_with_bufs().0
    }

    /// [`FuncBuilder::finish`], also returning the builder's vectors for
    /// the next function's [`FuncBuilder::with_bufs`].
    pub fn finish_with_bufs(mut self) -> (FinishedFunc, FuncBufs) {
        let epilogue = self.epilogue;
        self.asm.bind(epilogue);
        for &(r, off) in &self.saved {
            self.asm.emit(Insn::i(Op::Ld, r, FP, off));
        }
        for &(f, off) in &self.fsaved {
            self.asm.emit(Insn::fmem(Op::Fld, f, FP, off));
        }
        self.asm.emit(Insn::i(Op::Ld, RA, FP, -8));
        self.asm.emit(Insn::i(Op::Ld, tcc_vm::regs::AT0, FP, -16));
        self.asm.emit(Insn::i(Op::Addid, SP, FP, 0));
        self.asm.emit(Insn::i(Op::Addid, FP, tcc_vm::regs::AT0, 0));
        self.asm.emit(Insn::ret());
        // Patch the slot-area sp adjustment (16-byte aligned).
        let area = (8 * self.nslots as i32 + 15) & !15;
        self.asm
            .patch(self.sp_patch, Insn::i(Op::Addid, SP, SP, -area));
        let insns = self.asm.emitted();
        let handle = self.asm.func();
        let (addr, asm) = self.asm.finish_with_bufs();
        let func = FinishedFunc {
            addr,
            handle,
            insns,
        };
        let bufs = FuncBufs {
            asm,
            saved: self.saved,
            fsaved: self.fsaved,
        };
        (func, bufs)
    }

    /// Moves a floating point return value into `fa0` and returns.
    pub fn ret_freg(&mut self, f: FReg) {
        self.asm.fmov(tcc_vm::regs::FA0, f);
        self.ret();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_vm::regs::{A0, A1, S0};
    use tcc_vm::Vm;

    #[test]
    fn prologue_epilogue_preserve_callee_saved_and_fp() {
        let mut code = CodeSpace::new();
        // leaf: clobbers s0, must restore it.
        let mut fb = FuncBuilder::new(&mut code, "leaf");
        fb.use_callee_saved(S0);
        fb.asm.li(S0, 999);
        fb.asm.mov(A0, S0);
        fb.ret();
        let leaf = fb.finish();

        // caller: puts a sentinel in s0, calls leaf, checks it survived.
        let mut fb = FuncBuilder::new(&mut code, "caller");
        fb.use_callee_saved(S0);
        fb.asm.li(S0, 123);
        fb.asm.call_addr(leaf.addr);
        // a0 = leaf() + s0  (999 + 123)
        fb.asm.emit(Insn::r(Op::Addw, A0, A0, S0));
        fb.ret();
        let caller = fb.finish();

        let mut vm = Vm::new(code, 1 << 20);
        assert_eq!(vm.call(caller.addr, &[]).unwrap(), 1122);
    }

    #[test]
    fn slots_hold_values_across_calls() {
        let mut code = CodeSpace::new();
        let mut fb = FuncBuilder::new(&mut code, "id");
        fb.ret();
        let id = fb.finish();

        let mut fb = FuncBuilder::new(&mut code, "f");
        let slot = fb.alloc_slot();
        fb.store_slot(A1, slot);
        fb.asm.call_addr(id.addr);
        fb.load_slot(A0, slot);
        fb.ret();
        let f = fb.finish();

        let mut vm = Vm::new(code, 1 << 20);
        assert_eq!(vm.call(f.addr, &[0, 4242]).unwrap(), 4242);
    }

    #[test]
    fn recursion_works() {
        // fact(n) = n <= 1 ? 1 : n * fact(n-1)
        let mut code = CodeSpace::new();
        let mut fb = FuncBuilder::new(&mut code, "fact");
        let self_addr = code_addr_guess(&fb);
        let base = fb.asm.new_label();
        fb.asm.li(tcc_vm::regs::AT1, 1);
        fb.asm.br(Op::Bged, tcc_vm::regs::AT1, A0, base);
        let slot = fb.alloc_slot();
        fb.store_slot(A0, slot);
        fb.asm.emit(Insn::i(Op::Addiw, A0, A0, -1));
        fb.asm.call_addr(self_addr);
        fb.load_slot(A1, slot);
        fb.asm.emit(Insn::r(Op::Mulw, A0, A0, A1));
        fb.ret();
        fb.asm.bind(base);
        fb.asm.li(A0, 1);
        fb.ret();
        let fact = fb.finish();
        assert_eq!(fact.addr, self_addr);

        let mut vm = Vm::new(code, 1 << 20);
        assert_eq!(vm.call(fact.addr, &[10]).unwrap(), 3_628_800);
    }

    fn code_addr_guess(fb: &FuncBuilder<'_>) -> u64 {
        // The function started `emitted()` instructions ago.
        tcc_vm::CODE_BASE + ((fb.asm.here() as u64) - fb.asm.emitted()) * 4
    }

    #[test]
    fn float_callee_saved_round_trip() {
        use tcc_vm::regs::{FA0, FSAVED_REGS};
        let mut code = CodeSpace::new();
        let mut fb = FuncBuilder::new(&mut code, "f");
        let fs0 = FSAVED_REGS[0];
        fb.use_callee_saved_f(fs0);
        fb.asm.lif(fs0, 1.25);
        fb.asm.fmov(FA0, fs0);
        fb.ret();
        let f = fb.finish();
        let mut vm = Vm::new(code, 1 << 20);
        assert_eq!(vm.call_f(f.addr, &[], &[]).unwrap(), 1.25);
    }

    #[test]
    fn finished_func_counts_instructions() {
        let mut code = CodeSpace::new();
        let mut fb = FuncBuilder::new(&mut code, "f");
        fb.asm.li(A0, 7);
        fb.ret();
        let f = fb.finish();
        // 5 prologue + li + jmp + epilogue(5) = 12
        assert_eq!(f.insns, 12);
    }
}
