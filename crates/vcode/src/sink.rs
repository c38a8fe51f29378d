//! The abstract code-generation interface shared by both dynamic back
//! ends.
//!
//! tcc "compiles dynamic code to two abstract machines" (§4.2): VCODE
//! emits binary immediately, ICODE records an intermediate representation
//! first. Both expose the same instruction vocabulary; in this
//! reproduction that shared vocabulary is the [`CodeSink`] trait, and the
//! code-generating functions produced by the static compiler are
//! interpreted against *either* implementation.

use crate::asm::Label;
use crate::ops::{BinOp, LoadKind, StoreKind, UnOp};
use crate::vcode::{CallTarget, Loc, Vcode};
use tcc_rt::ValKind;

/// Abstract code generation: the operation vocabulary of VCODE/ICODE over
/// an implementation-defined value type (physical/spilled locations for
/// VCODE, virtual registers for ICODE).
pub trait CodeSink {
    /// A value location.
    type Val: Copy + std::fmt::Debug + PartialEq;
    /// A branch target handle.
    type Lbl: Copy + std::fmt::Debug;

    /// Allocates a temporary of kind `k`.
    fn temp(&mut self, k: ValKind) -> Self::Val;
    /// Allocates a temporary that must survive calls (VCODE prefers a
    /// callee-saved register; ICODE lets the allocator decide).
    fn temp_saved(&mut self, k: ValKind) -> Self::Val;
    /// Releases a temporary (`putreg`; a no-op for ICODE).
    fn release(&mut self, v: Self::Val);
    /// Binds the `i`-th integer-or-float parameter (numbered separately
    /// per class) to a value usable anywhere in the function.
    fn param(&mut self, i: usize, k: ValKind) -> Self::Val;

    /// Integer constant.
    fn li(&mut self, dst: Self::Val, v: i64);
    /// Floating constant.
    fn lif(&mut self, dst: Self::Val, v: f64);
    /// `dst <- a op b`.
    fn bin(&mut self, op: BinOp, k: ValKind, dst: Self::Val, a: Self::Val, b: Self::Val);
    /// `dst <- a op imm`, strength-reduced per the immediate's value —
    /// the paper's run-time-constant partial evaluation hook.
    fn bin_imm(&mut self, op: BinOp, k: ValKind, dst: Self::Val, a: Self::Val, imm: i64);
    /// `dst <- op a`.
    fn un(&mut self, op: UnOp, k: ValKind, dst: Self::Val, a: Self::Val);
    /// Typed load.
    fn load(&mut self, lk: LoadKind, dst: Self::Val, base: Self::Val, off: i64);
    /// Typed store.
    fn store(&mut self, sk: StoreKind, val: Self::Val, base: Self::Val, off: i64);

    /// Creates an unbound label.
    fn label(&mut self) -> Self::Lbl;
    /// Binds a label at the current position.
    fn bind(&mut self, l: Self::Lbl);
    /// Unconditional jump.
    fn jmp(&mut self, l: Self::Lbl);
    /// Fused compare-and-branch.
    fn br_cmp(&mut self, op: BinOp, k: ValKind, a: Self::Val, b: Self::Val, l: Self::Lbl);
    /// Branch if non-zero.
    fn br_true(&mut self, a: Self::Val, l: Self::Lbl);
    /// Branch if zero.
    fn br_false(&mut self, a: Self::Val, l: Self::Lbl);

    /// Direct call to a known address.
    fn call_addr(
        &mut self,
        addr: u64,
        args: &[(ValKind, Self::Val)],
        ret: Option<(ValKind, Self::Val)>,
    );
    /// Indirect call through a value.
    fn call_ind(
        &mut self,
        target: Self::Val,
        args: &[(ValKind, Self::Val)],
        ret: Option<(ValKind, Self::Val)>,
    );
    /// Host call with the same argument convention as calls.
    fn hcall(&mut self, num: u32, args: &[(ValKind, Self::Val)], ret: Option<(ValKind, Self::Val)>);

    /// Return a value.
    fn ret_val(&mut self, k: ValKind, v: Self::Val);
    /// Return without a value.
    fn ret_void(&mut self);

    /// Usage-frequency hint: entering a loop (ICODE §5.2: "primitives to
    /// express changes in estimated usage frequency of code").
    fn loop_begin(&mut self) {}
    /// Usage-frequency hint: leaving a loop.
    fn loop_end(&mut self) {}

    /// Work emitted so far (machine instructions for VCODE, IR
    /// instructions for ICODE) — feeds the per-instruction cost metrics.
    fn emitted(&self) -> u64;
}

impl<'a> CodeSink for Vcode<'a> {
    type Val = Loc;
    type Lbl = Label;

    fn temp(&mut self, k: ValKind) -> Loc {
        self.getreg(k)
    }

    fn temp_saved(&mut self, k: ValKind) -> Loc {
        self.getreg_saved(k)
    }

    fn release(&mut self, v: Loc) {
        self.putreg(v);
    }

    fn param(&mut self, i: usize, k: ValKind) -> Loc {
        // Move the incoming argument register to a call-surviving home.
        let home = self.getreg_saved(k);
        if k == ValKind::F {
            let src = self.farg_loc(i);
            self.un(UnOp::Mov, k, home, src);
        } else {
            let src = self.arg_loc(i);
            self.un(UnOp::Mov, k, home, src);
        }
        home
    }

    fn li(&mut self, dst: Loc, v: i64) {
        Vcode::li(self, dst, v);
    }

    fn lif(&mut self, dst: Loc, v: f64) {
        Vcode::lif(self, dst, v);
    }

    fn bin(&mut self, op: BinOp, k: ValKind, dst: Loc, a: Loc, b: Loc) {
        Vcode::bin(self, op, k, dst, a, b);
    }

    fn bin_imm(&mut self, op: BinOp, k: ValKind, dst: Loc, a: Loc, imm: i64) {
        match op {
            BinOp::Add => self.addi(k, dst, a, imm),
            BinOp::Sub => self.addi(k, dst, a, imm.wrapping_neg()),
            BinOp::Mul => self.mul_imm(k, dst, a, imm),
            BinOp::Div => self.divs_imm(k, dst, a, imm),
            BinOp::DivU => self.divu_imm(k, dst, a, imm as u64),
            BinOp::RemU => self.remu_imm(k, dst, a, imm as u64),
            _ => {
                // General path: materialize and use the register form.
                let t = Loc::R(tcc_vm::regs::AT1);
                Vcode::li(self, t, imm);
                Vcode::bin(self, op, k, dst, a, t);
            }
        }
    }

    fn un(&mut self, op: UnOp, k: ValKind, dst: Loc, a: Loc) {
        Vcode::un(self, op, k, dst, a);
    }

    fn load(&mut self, lk: LoadKind, dst: Loc, base: Loc, off: i64) {
        Vcode::load(self, lk, dst, base, off);
    }

    fn store(&mut self, sk: StoreKind, val: Loc, base: Loc, off: i64) {
        Vcode::store(self, sk, val, base, off);
    }

    fn label(&mut self) -> Label {
        self.new_label()
    }

    fn bind(&mut self, l: Label) {
        Vcode::bind(self, l);
    }

    fn jmp(&mut self, l: Label) {
        Vcode::jmp(self, l);
    }

    fn br_cmp(&mut self, op: BinOp, k: ValKind, a: Loc, b: Loc, l: Label) {
        Vcode::br_cmp(self, op, k, a, b, l);
    }

    fn br_true(&mut self, a: Loc, l: Label) {
        Vcode::br_true(self, a, l);
    }

    fn br_false(&mut self, a: Loc, l: Label) {
        Vcode::br_false(self, a, l);
    }

    fn call_addr(&mut self, addr: u64, args: &[(ValKind, Loc)], ret: Option<(ValKind, Loc)>) {
        self.call(CallTarget::Addr(addr), args, ret);
    }

    fn call_ind(&mut self, target: Loc, args: &[(ValKind, Loc)], ret: Option<(ValKind, Loc)>) {
        self.call(CallTarget::Ind(target), args, ret);
    }

    fn hcall(&mut self, num: u32, args: &[(ValKind, Loc)], ret: Option<(ValKind, Loc)>) {
        Vcode::hcall_with(self, num, args, ret);
    }

    fn ret_val(&mut self, k: ValKind, v: Loc) {
        Vcode::ret_val(self, k, v);
    }

    fn ret_void(&mut self) {
        Vcode::ret(self);
    }

    fn emitted(&self) -> u64 {
        Vcode::emitted(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_vm::{CodeSpace, Vm};

    // A generic builder exercising the trait — the same function text
    // works against any sink.
    fn build_poly<S: CodeSink>(s: &mut S) {
        // f(x) = x > 10 ? x * 8 : x + 100
        let x = s.param(0, ValKind::W);
        let r = s.temp(ValKind::W);
        let big = s.label();
        let done = s.label();
        let ten = s.temp(ValKind::W);
        s.li(ten, 10);
        s.br_cmp(BinOp::Gt, ValKind::W, x, ten, big);
        s.bin_imm(BinOp::Add, ValKind::W, r, x, 100);
        s.jmp(done);
        s.bind(big);
        s.bin_imm(BinOp::Mul, ValKind::W, r, x, 8);
        s.bind(done);
        s.ret_val(ValKind::W, r);
    }

    #[test]
    fn vcode_implements_the_sink() {
        let mut code = CodeSpace::new();
        let mut vc = Vcode::new(&mut code, "poly");
        build_poly(&mut vc);
        let f = vc.finish().unwrap();
        let mut vm = Vm::new(code, 1 << 20);
        assert_eq!(vm.call(f.addr, &[5]).unwrap(), 105);
        assert_eq!(vm.call(f.addr, &[11]).unwrap(), 88);
    }

    #[test]
    fn hcall_through_sink() {
        use tcc_vm::interp::MachineState;
        let mut code = CodeSpace::new();
        let mut vc = Vcode::new(&mut code, "h");
        let x = vc.param(0, ValKind::W);
        let r = vc.temp(ValKind::W);
        CodeSink::hcall(&mut vc, 40, &[(ValKind::W, x)], Some((ValKind::W, r)));
        vc.ret_val(ValKind::W, r);
        let f = vc.finish().unwrap();
        let host = |num: u32, st: &mut MachineState| {
            let a = st.arg(0);
            st.set_ret(a + num as u64);
            Ok(())
        };
        let mut vm = Vm::with_host(code, 1 << 20, host);
        assert_eq!(vm.call(f.addr, &[2]).unwrap(), 42);
    }
}
