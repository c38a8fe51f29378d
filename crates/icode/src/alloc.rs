//! Register-allocation result types and the physical register pools.

use crate::ir::VReg;
use tcc_vm::regs::{FSAVED_REGS, FTEMP_REGS, SAVED_REGS, TEMP_REGS};
use tcc_vm::{FReg, Reg};

/// Where a virtual register ended up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocLoc {
    /// An integer register.
    R(Reg),
    /// A floating point register.
    F(FReg),
    /// A numbered integer spill slot.
    Slot(u32),
    /// A numbered floating point spill slot.
    FSlot(u32),
}

impl AllocLoc {
    /// True for stack locations.
    pub fn is_spill(self) -> bool {
        matches!(self, AllocLoc::Slot(_) | AllocLoc::FSlot(_))
    }
}

/// A complete allocation: one location per live virtual register.
#[derive(Clone, Debug, Default)]
pub struct Assignment {
    /// Indexed by virtual register number; `None` for registers that
    /// never appeared (dead code).
    pub locs: Vec<Option<AllocLoc>>,
    /// Number of integer spill slots used.
    pub num_slots: u32,
    /// Number of floating point spill slots used.
    pub num_fslots: u32,
    /// Callee-saved integer registers handed out (prologue must save).
    pub used_callee_saved: Vec<Reg>,
    /// Callee-saved fp registers handed out.
    pub used_callee_saved_f: Vec<FReg>,
    /// Number of intervals that were spilled.
    pub spilled: u32,
}

impl Assignment {
    /// Empties the assignment for a function of `nv` virtual registers,
    /// keeping its storage.
    pub fn reset(&mut self, nv: usize) {
        self.locs.clear();
        self.locs.resize(nv, None);
        self.used_callee_saved.clear();
        self.used_callee_saved_f.clear();
        (self.num_slots, self.num_fslots, self.spilled) = (0, 0, 0);
    }

    /// Records `loc` for `v`.
    pub fn set(&mut self, v: VReg, loc: AllocLoc) {
        self.locs[v.0 as usize] = Some(loc);
        match loc {
            AllocLoc::R(r) if SAVED_REGS.contains(&r) && !self.used_callee_saved.contains(&r) => {
                self.used_callee_saved.push(r);
            }
            AllocLoc::F(f)
                if FSAVED_REGS.contains(&f) && !self.used_callee_saved_f.contains(&f) =>
            {
                self.used_callee_saved_f.push(f);
            }
            AllocLoc::Slot(_) | AllocLoc::FSlot(_) => self.spilled += 1,
            _ => {}
        }
    }

    /// Allocates a fresh integer spill slot.
    pub fn new_slot(&mut self) -> AllocLoc {
        self.num_slots += 1;
        AllocLoc::Slot(self.num_slots - 1)
    }

    /// Allocates a fresh floating point spill slot.
    pub fn new_fslot(&mut self) -> AllocLoc {
        self.num_fslots += 1;
        AllocLoc::FSlot(self.num_fslots - 1)
    }

    /// Location of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was never assigned (indicates a pass bug).
    pub fn loc(&self, v: VReg) -> AllocLoc {
        self.locs[v.0 as usize].unwrap_or_else(|| panic!("vreg {v:?} unassigned"))
    }
}

/// The allocatable physical registers, split by class.
#[derive(Clone, Debug)]
pub struct Pools {
    /// Caller-saved integer registers (`t0..t9`).
    pub int_caller: Vec<Reg>,
    /// Callee-saved integer registers (`s0..s9`).
    pub int_callee: Vec<Reg>,
    /// Caller-saved fp registers.
    pub f_caller: Vec<FReg>,
    /// Callee-saved fp registers.
    pub f_callee: Vec<FReg>,
}

impl Default for Pools {
    fn default() -> Self {
        Pools::full()
    }
}

impl Pools {
    /// All allocatable registers (20 integer, 11 floating point).
    pub fn full() -> Pools {
        Pools {
            int_caller: TEMP_REGS.to_vec(),
            int_callee: SAVED_REGS.to_vec(),
            f_caller: FTEMP_REGS.to_vec(),
            f_callee: FSAVED_REGS.to_vec(),
        }
    }

    /// A reduced pool with `n` integer registers total (ablation /
    /// register-pressure experiments). Callee-saved registers are kept
    /// preferentially so code with calls still works.
    pub fn with_int_limit(n: usize) -> Pools {
        let mut p = Pools::full();
        let callee_keep = n.min(p.int_callee.len());
        let caller_keep = n - callee_keep;
        p.int_callee.truncate(callee_keep);
        p.int_caller.truncate(caller_keep);
        p
    }

    /// Total integer registers.
    pub fn int_total(&self) -> usize {
        self.int_caller.len() + self.int_callee.len()
    }

    /// Total floating point registers.
    pub fn float_total(&self) -> usize {
        self.f_caller.len() + self.f_callee.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_tracks_callee_saved_and_spills() {
        let mut a = Assignment::default();
        a.reset(4);
        a.set(VReg(0), AllocLoc::R(TEMP_REGS[0]));
        a.set(VReg(1), AllocLoc::R(SAVED_REGS[0]));
        let s = a.new_slot();
        a.set(VReg(2), s);
        assert_eq!(a.used_callee_saved, vec![SAVED_REGS[0]]);
        assert_eq!(a.spilled, 1);
        assert_eq!(a.num_slots, 1);
        assert_eq!(a.loc(VReg(0)), AllocLoc::R(TEMP_REGS[0]));
    }

    #[test]
    #[should_panic(expected = "unassigned")]
    fn unassigned_lookup_panics() {
        let mut a = Assignment::default();
        a.reset(1);
        a.loc(VReg(0));
    }

    #[test]
    fn limited_pools() {
        let p = Pools::with_int_limit(6);
        assert_eq!(p.int_total(), 6);
        assert_eq!(p.int_caller.len(), 0);
        assert_eq!(p.int_callee.len(), 6);
        let p = Pools::with_int_limit(14);
        assert_eq!(p.int_caller.len(), 4);
        assert_eq!(p.int_callee.len(), 10);
    }
}
