//! # tcc-vcode — the fast one-pass code generation layer
//!
//! A Rust reimplementation of the role VCODE plays in tcc (paper §4.2 and
//! §5.1): "an interface resembling that of an idealized load/store RISC
//! architecture; each instruction in this interface is a C macro which
//! emits the corresponding instruction (or series of instructions) for
//! the target architecture."
//!
//! Layering, bottom up:
//!
//! * [`asm::Asm`] — raw instruction emission over a [`tcc_vm::CodeSpace`]:
//!   labels with forward-reference patching, constant synthesis
//!   (`sethi`/`ori` sequences), long-offset memory access, calls.
//! * [`ops`] — the *typed operation vocabulary* shared with ICODE:
//!   [`ops::BinOp`]/[`ops::UnOp`] parameterized by [`tcc_rt::ValKind`],
//!   plus load/store widths.
//! * [`func::FuncBuilder`] — function scaffolding: prologue/epilogue,
//!   stack-slot allocation, lazy callee-saved register saves. The static
//!   back ends build on this directly.
//! * [`regmgr::RegMgr`] — `getreg`/`putreg`. When the register pool runs
//!   dry, `getreg` returns a *spilled location* ("designated by a negative
//!   number" in the paper; a typed [`Loc::Spill`] here), and the emission
//!   macros transparently wrap such operands in loads and stores. That
//!   per-operand check can be disabled (`unchecked` mode) for roughly the
//!   paper's "factor of two" emission speedup, at the price of a run-time
//!   error when the pool is exhausted.
//! * [`vcode::Vcode`] — the VCODE abstraction itself: typed emission
//!   macros over [`Loc`]s, one pass, no IR.
//!
//! ## Example: emit `f(x) = 3*x + 1` dynamically
//!
//! ```rust
//! use tcc_rt::ValKind;
//! use tcc_vcode::{ops::BinOp, Vcode};
//! use tcc_vm::{CodeSpace, Vm};
//!
//! # fn main() -> Result<(), tcc_vm::VmError> {
//! let mut code = CodeSpace::new();
//! let mut vc = Vcode::new(&mut code, "triple_plus_one");
//! let x = vc.arg_loc(0);
//! let t = vc.getreg(ValKind::W);
//! vc.li(t, 3);
//! vc.bin(BinOp::Mul, ValKind::W, t, t, x);
//! vc.addi(ValKind::W, t, t, 1);
//! vc.ret_val(ValKind::W, t);
//! let f = vc.finish()?;
//!
//! let mut vm = Vm::new(code, 1 << 20);
//! assert_eq!(vm.call(f.addr, &[13])?, 40);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod asm;
pub mod func;
pub mod ops;
pub mod regmgr;
pub mod sink;
pub mod vcode;

pub use asm::{Asm, AsmBufs, Label};
pub use func::{FinishedFunc, FuncBufs, FuncBuilder};
pub use ops::{BinOp, LoadKind, StoreKind, UnOp};
pub use regmgr::RegMgr;
pub use sink::CodeSink;
pub use vcode::{CallTarget, Loc, Vcode, VcodeBufs};
