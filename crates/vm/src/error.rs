//! Machine fault conditions.

use std::fmt;

/// A machine fault raised by the interpreter, decoder, or memory system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// An unassigned opcode byte was fetched.
    BadOpcode(u8),
    /// A data access touched an address outside the mapped data memory.
    BadAddress(u64),
    /// A load or store was not aligned to its access size.
    Misaligned(u64),
    /// The program counter left the code space or a fetched word was not
    /// part of any function.
    BadPc(u64),
    /// Integer division or remainder by zero.
    DivideByZero,
    /// The cycle budget was exhausted (runaway-loop backstop).
    OutOfFuel,
    /// A `hcall` named an unregistered host call number.
    BadHostCall(u32),
    /// A host call failed; carries its diagnostic message.
    Host(String),
    /// The stack pointer crossed into the heap.
    StackOverflow,
    /// Execution entered a word range that was freed (or never sealed):
    /// the address was once handed out but its code no longer exists.
    StaleCode(u64),
    /// A code-space lifecycle violation: sealing a function twice,
    /// taking the address of an unfinished or freed function, or
    /// freeing a function that is not sealed.
    CodeLifecycle(String),
    /// A function would not fit below the code space's budget (the
    /// payload, in words), so it was refused and rolled back; code
    /// already sealed is untouched.
    CodeBudget(usize),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::BadOpcode(b) => write!(f, "unassigned opcode byte {b:#04x}"),
            VmError::BadAddress(a) => write!(f, "data access out of bounds at {a:#x}"),
            VmError::Misaligned(a) => write!(f, "misaligned access at {a:#x}"),
            VmError::BadPc(a) => write!(f, "program counter out of code space at {a:#x}"),
            VmError::DivideByZero => write!(f, "integer division by zero"),
            VmError::OutOfFuel => write!(f, "cycle budget exhausted"),
            VmError::BadHostCall(n) => write!(f, "unregistered host call {n}"),
            VmError::Host(msg) => write!(f, "host call failed: {msg}"),
            VmError::StackOverflow => write!(f, "stack overflow"),
            VmError::StaleCode(a) => {
                write!(f, "call into freed or unsealed code at {a:#x}")
            }
            VmError::CodeLifecycle(msg) => write!(f, "code lifecycle violation: {msg}"),
            VmError::CodeBudget(words) => {
                write!(f, "code budget of {words} words spent: function refused")
            }
        }
    }
}

impl std::error::Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errors = [
            VmError::BadOpcode(7),
            VmError::BadAddress(16),
            VmError::Misaligned(3),
            VmError::BadPc(0),
            VmError::DivideByZero,
            VmError::OutOfFuel,
            VmError::BadHostCall(9),
            VmError::Host("x".into()),
            VmError::StackOverflow,
            VmError::StaleCode(0x8000_0000),
            VmError::CodeLifecycle("y".into()),
            VmError::CodeBudget(64),
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }
}
