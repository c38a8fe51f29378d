//! # tcc-vm — the target machine substrate
//!
//! The tcc paper (PLDI 1997) generates SPARC/MIPS binary code at run time.
//! This reproduction instead targets a deterministic 64-bit load/store RISC
//! **virtual machine** so that every compiler in the workspace — the naive
//! (lcc-like) static back end, the optimizing (gcc-like) static back end,
//! and the VCODE/ICODE dynamic back ends — emits binary code for the *same*
//! ISA and is measured with the *same* cycle cost model.
//!
//! The machine:
//!
//! * 32 integer registers of 64 bits ([`regs`]): `r0` is hardwired zero,
//!   plus link/stack/frame registers, six argument registers, ten
//!   caller-saved and ten callee-saved registers, and two emitter-reserved
//!   scratch registers (used by spill reloads and constant synthesis, like
//!   MIPS `$at`).
//! * 16 double-precision floating point registers.
//! * Fixed-width 32-bit binary instruction encodings ([`isa`]) with 14-bit
//!   immediates and a SPARC-style `sethi` for large constants, so
//!   materializing a 32-bit constant costs two instructions — the code-size
//!   and codegen-cost structure of the paper's targets is preserved.
//! * A flat byte-addressed data memory ([`mem`]) with the stack at the top,
//!   and a separate code space ([`code`]) whose addresses have bit 31 set.
//! * A cycle cost model ([`cost`]) flavored after the paper's 70 MHz
//!   SparcStation 5: multiplies and divides are expensive, loads cost more
//!   than ALU ops. The interpreter ([`interp`]) counts cycles exactly and
//!   deterministically.
//! * Host calls ([`host`]) — the mechanism by which `compile` and the small
//!   `C run-time library are reached from generated code.
//!
//! ## Example
//!
//! ```rust
//! use tcc_vm::isa::{Insn, Op};
//! use tcc_vm::regs::A0;
//! use tcc_vm::{CodeSpace, Vm};
//!
//! # fn main() -> Result<(), tcc_vm::VmError> {
//! let mut code = CodeSpace::new();
//! // fn add1(x) { return x + 1 }
//! let f = code.begin_function("add1");
//! code.push(Insn::i(Op::Addiw, A0, A0, 1));
//! code.push(Insn::ret());
//! let addr = code.finish_function(f)?;
//!
//! let mut vm = Vm::new(code, 1 << 20);
//! let got = vm.call(addr, &[41])?;
//! assert_eq!(got, 42);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod adaptive;
pub mod code;
pub mod cost;
pub mod error;
pub mod host;
pub mod interp;
pub mod isa;
mod map;
pub mod mem;
pub mod predecode;
pub mod regs;
pub mod threaded;

pub use adaptive::{AdaptiveStats, Tier, TransHub, DEFAULT_THREAD_AFTER};
pub use code::{CodeFootprint, CodeSpace, CodeStats, FuncHandle, CODE_BASE, CODE_BUDGET};
pub use cost::CostModel;
pub use error::VmError;
pub use host::{HostCall, NoHost};
pub use interp::{ExitStatus, Vm};
pub use isa::{FReg, Insn, Op, Reg};
pub use map::COMMIT_BYTES;
pub use mem::Memory;
pub use predecode::{ExecEngine, ExecStats};
pub use threaded::{handler_table_sizes, HANDLER_TABLE_SIZE, SUPER_HANDLERS};
