//! Facade crate for the tcc reproduction. Re-exports every subsystem.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record.

#![forbid(unsafe_code)]

pub use tcc as tickc_core;
pub use tcc_cache as cache;
pub use tcc_front as front;
pub use tcc_icode as icode;
pub use tcc_mir as mir;
pub use tcc_obs as obs;
pub use tcc_rt as rt;
pub use tcc_suite as suite;
pub use tcc_vcode as vcode;
pub use tcc_vm as vm;
