//! `getreg`/`putreg` — VCODE's dynamic register management (paper §5.1).
//!
//! The pool hands out caller-saved temporaries first, then callee-saved
//! registers (whose first use triggers a lazy save, handled by the
//! [`crate::Vcode`] layer). A code generator can also *reserve* registers
//! out of the pool: "tcc reduces the number of run-time register
//! allocations that occur by reserving a limited number of physical
//! registers … managed at static compile time" — the tcc crate uses that
//! for expression temporaries whose live ranges do not span cspec
//! composition.

use tcc_vm::regs::{FSAVED_REGS, FTEMP_REGS, SAVED_REGS, TEMP_REGS};
use tcc_vm::{FReg, Reg};

/// The register pool. Pure bookkeeping: no instructions are emitted here.
#[derive(Clone, Debug)]
pub struct RegMgr {
    free_temp: Vec<Reg>,
    free_saved: Vec<Reg>,
    free_ftemp: Vec<FReg>,
    free_fsaved: Vec<FReg>,
    reserved: Vec<Reg>,
}

impl Default for RegMgr {
    fn default() -> Self {
        RegMgr::new()
    }
}

impl RegMgr {
    /// A full pool: all temporaries and callee-saved registers.
    pub fn new() -> RegMgr {
        let mut m = RegMgr {
            free_temp: Vec::new(),
            free_saved: Vec::new(),
            free_ftemp: Vec::new(),
            free_fsaved: Vec::new(),
            reserved: Vec::new(),
        };
        m.reset();
        m
    }

    /// Refills the pool, whatever was handed out or reserved — in the
    /// free lists it already has, so a manager kept across functions
    /// allocates once.
    pub fn reset(&mut self) {
        fn refill<R: Copy>(free: &mut Vec<R>, all: &[R]) {
            free.clear();
            // Pop from the end: hand out t0 first, then t1, …
            free.extend(all.iter().rev());
        }
        refill(&mut self.free_temp, &TEMP_REGS);
        refill(&mut self.free_saved, &SAVED_REGS);
        refill(&mut self.free_ftemp, &FTEMP_REGS);
        refill(&mut self.free_fsaved, &FSAVED_REGS);
        self.reserved.clear();
    }

    /// Removes `n` caller-saved temporaries from the pool for static
    /// management; returns them. They are never handed out by `getreg`
    /// again until [`RegMgr::unreserve_all`].
    pub fn reserve_temps(&mut self, n: usize) -> Vec<Reg> {
        let n = n.min(self.free_temp.len());
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let r = self.free_temp.pop().expect("len checked");
            self.reserved.push(r);
            out.push(r);
        }
        out
    }

    /// Returns all reserved registers to the pool.
    pub fn unreserve_all(&mut self) {
        while let Some(r) = self.reserved.pop() {
            self.free_temp.push(r);
        }
    }

    /// Takes an integer register from the pool. `prefer_saved` requests a
    /// callee-saved register (for values that must survive calls).
    /// Returns the register and whether it is callee-saved.
    pub fn get_int(&mut self, prefer_saved: bool) -> Option<(Reg, bool)> {
        if prefer_saved {
            if let Some(r) = self.free_saved.pop() {
                return Some((r, true));
            }
            return self.free_temp.pop().map(|r| (r, false));
        }
        if let Some(r) = self.free_temp.pop() {
            return Some((r, false));
        }
        self.free_saved.pop().map(|r| (r, true))
    }

    /// Takes a floating point register from the pool.
    pub fn get_float(&mut self, prefer_saved: bool) -> Option<(FReg, bool)> {
        if prefer_saved {
            if let Some(f) = self.free_fsaved.pop() {
                return Some((f, true));
            }
            return self.free_ftemp.pop().map(|f| (f, false));
        }
        if let Some(f) = self.free_ftemp.pop() {
            return Some((f, false));
        }
        self.free_fsaved.pop().map(|f| (f, true))
    }

    /// Returns an integer register to the pool.
    ///
    /// # Panics
    ///
    /// Panics if the register is not a pool register (argument and
    /// scratch registers are never pooled).
    pub fn put_int(&mut self, r: Reg) {
        if TEMP_REGS.contains(&r) {
            debug_assert!(!self.free_temp.contains(&r), "double putreg of {r}");
            self.free_temp.push(r);
        } else if SAVED_REGS.contains(&r) {
            debug_assert!(!self.free_saved.contains(&r), "double putreg of {r}");
            self.free_saved.push(r);
        } else {
            panic!("putreg of non-pool register {r}");
        }
    }

    /// Returns a floating point register to the pool.
    ///
    /// # Panics
    ///
    /// Panics if the register is not a pool register.
    pub fn put_float(&mut self, f: FReg) {
        if FTEMP_REGS.contains(&f) {
            debug_assert!(!self.free_ftemp.contains(&f));
            self.free_ftemp.push(f);
        } else if FSAVED_REGS.contains(&f) {
            debug_assert!(!self.free_fsaved.contains(&f));
            self.free_fsaved.push(f);
        } else {
            panic!("putreg of non-pool fp register {f}");
        }
    }

    /// Number of integer registers currently available.
    pub fn free_int_count(&self) -> usize {
        self.free_temp.len() + self.free_saved.len()
    }

    /// Number of fp registers currently available.
    pub fn free_float_count(&self) -> usize {
        self.free_ftemp.len() + self.free_fsaved.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_cycles_through_pool() {
        let mut m = RegMgr::new();
        let (r1, cs1) = m.get_int(false).unwrap();
        assert!(!cs1);
        m.put_int(r1);
        let (r2, _) = m.get_int(false).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let mut m = RegMgr::new();
        let mut got = Vec::new();
        while let Some((r, _)) = m.get_int(false) {
            got.push(r);
        }
        assert_eq!(got.len(), 20); // 10 temps + 10 saved
        assert!(m.get_int(false).is_none());
        for r in got {
            m.put_int(r);
        }
        assert_eq!(m.free_int_count(), 20);
    }

    #[test]
    fn prefer_saved_hands_out_callee_saved() {
        let mut m = RegMgr::new();
        let (r, cs) = m.get_int(true).unwrap();
        assert!(cs, "expected a callee-saved register, got {r}");
    }

    #[test]
    fn reserve_shrinks_pool() {
        let mut m = RegMgr::new();
        let reserved = m.reserve_temps(4);
        assert_eq!(reserved.len(), 4);
        let mut handed = Vec::new();
        while let Some((r, _)) = m.get_int(false) {
            assert!(!reserved.contains(&r));
            handed.push(r);
        }
        assert_eq!(handed.len(), 16);
        for r in handed {
            m.put_int(r);
        }
        m.unreserve_all();
        assert_eq!(m.free_int_count(), 20);
    }

    #[test]
    #[should_panic(expected = "non-pool register")]
    fn putting_argument_register_panics() {
        let mut m = RegMgr::new();
        m.put_int(tcc_vm::regs::A0);
    }

    #[test]
    fn reset_restores_the_full_pool_in_first_use_order() {
        let mut m = RegMgr::new();
        let first = m.get_int(false).unwrap();
        m.reserve_temps(3);
        while m.get_float(true).is_some() {}
        m.reset();
        assert_eq!(m.free_int_count(), 20);
        assert_eq!(m.free_float_count(), 11);
        assert_eq!(m.get_int(false).unwrap(), first);
    }

    #[test]
    fn float_pool_works() {
        let mut m = RegMgr::new();
        let (f, cs) = m.get_float(false).unwrap();
        assert!(!cs);
        m.put_float(f);
        assert_eq!(m.free_float_count(), 11);
    }
}
