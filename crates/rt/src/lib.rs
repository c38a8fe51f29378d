//! # tcc-rt — run-time support shared by the compilers
//!
//! This crate holds the pieces of the `C run-time system that sit *under*
//! the dynamic compiler (paper §4.2-4.4):
//!
//! * [`ValKind`] — the four machine-level value kinds every layer agrees
//!   on (32-bit int, 64-bit int, pointer, double).
//! * [`VmArena`] — spec-time memory inside VM data memory. The paper
//!   reduces closure allocation "down to a pointer increment, in the
//!   normal case, by using arenas"; `VmArena` is that allocator: a list
//!   of chunks, a bump cursor, and mark/release to free in bulk.
//! * [`closure`] — the layout of closures and vspec objects in VM memory,
//!   mirroring the paper's §4.2 lowering (`cgf` pointer first, then
//!   run-time constants, free-variable addresses and nested cspecs).
//! * [`hcalls`] — the host-call numbering shared by the static back ends
//!   (which emit `hcall`) and the `tcc` runtime (which handles them).

#![forbid(unsafe_code)]

pub mod arena;
pub mod closure;
pub mod hcalls;
pub mod kind;

pub use arena::{ArenaMark, VmArena};
pub use closure::{ClosureRef, VspecObj, VspecTag, ARGLIST_MARKER, ARGLIST_MAX, LABEL_MARKER};
pub use kind::ValKind;
