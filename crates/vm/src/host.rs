//! Host call interface.
//!
//! `hcall n` traps out of generated code into the embedding Rust program.
//! This is how the `C run-time system is reached: closure allocation,
//! `compile`, `printf`-style output, and `malloc` are all host calls
//! installed by higher layers (see the `tcc` crate).

use crate::error::VmError;
use crate::interp::MachineState;

/// Handler for `hcall` traps.
///
/// Arguments arrive in the integer argument registers (`a0`..`a5`) and
/// floating point argument registers; results are returned in `a0` (or
/// `fa0`). The handler may freely mutate machine state, including
/// appending new functions to the code space — that is exactly what
/// `compile` does.
///
/// Hosts are `'static` (they own their state rather than borrowing it)
/// so the adaptive engine's background translation service, whose
/// channel types are parameterized over the host, can outlive any
/// particular borrow of the VM.
pub trait HostCall: 'static {
    /// Handles host call number `num`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::BadHostCall`] for unknown numbers, or
    /// [`VmError::Host`] to abort execution with a diagnostic.
    fn call(&mut self, num: u32, state: &mut MachineState) -> Result<(), VmError>;
}

/// A host that provides no calls; every `hcall` faults. The default for
/// [`crate::Vm::new`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoHost;

impl HostCall for NoHost {
    fn call(&mut self, num: u32, _state: &mut MachineState) -> Result<(), VmError> {
        Err(VmError::BadHostCall(num))
    }
}

impl<F> HostCall for F
where
    F: FnMut(u32, &mut MachineState) -> Result<(), VmError> + 'static,
{
    fn call(&mut self, num: u32, state: &mut MachineState) -> Result<(), VmError> {
        self(num, state)
    }
}
