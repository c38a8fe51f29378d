//! # tcc-icode — the optimizing dynamic back end
//!
//! A reimplementation of ICODE (paper §5.2): the dynamic back end tcc
//! uses "in cases where dynamically generated code is used frequently or
//! runs for a long time", trading extra dynamic compilation time for
//! better code quality.
//!
//! ICODE extends the VCODE interface with an infinite number of virtual
//! registers and usage-frequency hints. Instead of emitting binary
//! immediately, a code-generating function records [`ir::IInsn`]s into an
//! [`ir::IcodeBuf`] (it implements [`tcc_vcode::CodeSink`], so the same
//! CGF drives either back end). Invoking the compiler then:
//!
//! 1. cleans the IR ([`peephole`]: dead code from composition, jump
//!    threading),
//! 2. builds a flow graph in one pass ([`flow`]),
//! 3. solves live variables by relaxation ([`liveness`]),
//! 4. coarsens them to *live intervals* ([`intervals`]),
//! 5. allocates registers with the paper's **linear scan** (Figure 3,
//!    [`linear_scan`]) or the Chaitin-style graph-coloring baseline
//!    ([`color`]),
//! 6. emits binary through the VCODE macros with spill bracketing and
//!    strength reduction ([`emit`]), consulting a (possibly pruned)
//!    translator table ([`prune`]).
//!
//! Each phase is individually timed ([`compile::Phases`]) to regenerate
//! the paper's Figure 7 cost breakdown, and each works in storage the
//! [`IcodeCompiler`] owns: a compiler that is kept compiles its second
//! and later functions without allocating (see [`compile`]).
//!
//! ## Example
//!
//! ```rust
//! use tcc_icode::{IcodeBuf, IcodeCompiler, Strategy};
//! use tcc_rt::ValKind;
//! use tcc_vcode::{ops::BinOp, CodeSink};
//! use tcc_vm::{CodeSpace, Vm};
//!
//! # fn main() -> Result<(), tcc_vm::VmError> {
//! let mut buf = IcodeBuf::new();
//! let x = buf.param(0, ValKind::W);
//! let t = buf.temp(ValKind::W);
//! buf.li(t, 3);
//! buf.bin(BinOp::Mul, ValKind::W, t, t, x);
//! buf.ret_val(ValKind::W, t);
//!
//! let mut code = CodeSpace::new();
//! let result = IcodeCompiler::new(Strategy::LinearScan)
//!     .compile(&mut code, "triple", &mut buf)?;
//! let mut vm = Vm::new(code, 1 << 20);
//! assert_eq!(vm.call(result.func.addr, &[14])?, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod alloc;
pub mod color;
pub mod compile;
pub mod emit;
pub mod flow;
pub mod intervals;
pub mod ir;
pub mod linear_scan;
pub mod liveness;
pub mod peephole;
pub mod prune;

pub use alloc::{AllocLoc, Assignment, Pools};
pub use compile::{IcodeCompiler, IcodeResult, Phases, Strategy};
pub use emit::MissingTranslator;
pub use intervals::Interval;
pub use ir::{IInsn, IOp, IcodeBuf, LblId, VReg};
pub use prune::TranslatorTable;
