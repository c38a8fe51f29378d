//! Fast linear-scan register allocation — the paper's Figure 3.
//!
//! "Given R available registers and a list of live intervals, allocating
//! registers so as to minimize the number of spilled intervals involves
//! removing the smallest number of live intervals so that no more than R
//! live intervals overlap any one instruction. … the algorithm traverses
//! the list of intervals in reverse order, jumping from end point to end
//! point while maintaining a list, *active*, of intervals live at the
//! current point. When the number of these intervals exceeds R, the
//! longest interval (the one with the earliest start point) is spilled.
//! The active list is maintained in order of increasing start point. As a
//! result, spilling the longest interval simply means removing the first
//! element, and expiring intervals that are no longer active just
//! involves a short search backwards from the end of the list."
//!
//! Asymptotic running time: `O(I · R)`.
//!
//! Two machine-imposed adaptations (documented in DESIGN.md): registers
//! come in two classes per bank (caller- and callee-saved), and intervals
//! that cross a call may only take callee-saved registers; and the
//! integer and floating point banks are allocated independently.

use crate::alloc::{AllocLoc, Assignment, Pools};
use crate::intervals::Interval;
use tcc_rt::ValKind;
use tcc_vm::{FReg, Reg};

#[derive(Clone, Copy, Debug)]
enum Phys {
    R(Reg),
    F(FReg),
}

/// The allocator's working lists, kept for the next compile.
#[derive(Clone, Debug, Default)]
pub struct ScanScratch {
    free_caller: Vec<Phys>,
    free_callee: Vec<Phys>,
    /// (interval index, register), sorted by increasing start point.
    active: Vec<(usize, Phys)>,
}

/// Runs the Figure 3 allocator over `intervals` (which must be sorted by
/// increasing end point, as [`crate::intervals::Intervals::build`] leaves
/// them), writing the assignment for `nv` virtual registers into `asn`.
pub fn linear_scan(
    intervals: &[Interval],
    nv: usize,
    pools: &Pools,
    scratch: &mut ScanScratch,
    asn: &mut Assignment,
) {
    asn.reset(nv);
    run_bank(intervals, asn, pools, scratch, false);
    run_bank(intervals, asn, pools, scratch, true);
}

fn run_bank(
    intervals: &[Interval],
    asn: &mut Assignment,
    pools: &Pools,
    scratch: &mut ScanScratch,
    float: bool,
) {
    let ScanScratch {
        free_caller,
        free_callee,
        active,
    } = scratch;
    free_caller.clear();
    free_callee.clear();
    active.clear();
    if float {
        free_caller.extend(pools.f_caller.iter().rev().map(|&f| Phys::F(f)));
        free_callee.extend(pools.f_callee.iter().rev().map(|&f| Phys::F(f)));
    } else {
        free_caller.extend(pools.int_caller.iter().rev().map(|&r| Phys::R(r)));
        free_callee.extend(pools.int_callee.iter().rev().map(|&r| Phys::R(r)));
    }
    let is_callee = |p: Phys| match p {
        Phys::R(r) => pools.int_callee.contains(&r),
        Phys::F(f) => pools.f_callee.contains(&f),
    };

    // "foreach live interval i, from last to first" — of this bank.
    for (ii, iv) in intervals.iter().enumerate().rev() {
        if (iv.kind == ValKind::F) != float {
            continue;
        }

        // EXPIREOLDINTERVALS(i): walk active from the back (largest start
        // point); intervals starting after i ends no longer overlap.
        while let Some(&(j, reg)) = active.last() {
            if intervals[j].start <= iv.end {
                break;
            }
            active.pop();
            if is_callee(reg) {
                free_callee.push(reg);
            } else {
                free_caller.push(reg);
            }
        }

        // Pick a free register honoring the call-crossing constraint.
        let reg = if iv.crosses_call {
            free_callee.pop()
        } else {
            free_caller.pop().or_else(|| free_callee.pop())
        };

        let reg = match reg {
            Some(r) => Some(r),
            None => spill_longest(intervals, active, asn, iv, is_callee),
        };

        match reg {
            Some(r) => {
                asn.set(iv.vreg, to_alloc(r));
                // "add i to active, sorted by start point"
                let pos = active.partition_point(|&(j, _)| intervals[j].start <= iv.start);
                active.insert(pos, (ii, r));
            }
            None => {
                // "location[i] <- new stack location"
                let slot = if float {
                    asn.new_fslot()
                } else {
                    asn.new_slot()
                };
                asn.set(iv.vreg, slot);
            }
        }
    }
}

/// SPILLLONGESTINTERVAL(i): the longest active interval is the first
/// element (earliest start point). If it starts before `i` — and its
/// register is legal for `i` — spill it and take its register; otherwise
/// spill `i` itself (return `None`).
fn spill_longest(
    intervals: &[Interval],
    active: &mut Vec<(usize, Phys)>,
    asn: &mut Assignment,
    iv: &Interval,
    is_callee: impl Fn(Phys) -> bool,
) -> Option<Phys> {
    // A victim's register is acceptable if it is callee-saved, or if
    // neither interval crosses a call (never hand a caller-saved register
    // taken from a non-crossing interval to one that crosses calls).
    let pos = active.iter().position(|&(j, reg)| {
        intervals[j].start < iv.start
            && (is_callee(reg) || (!iv.crosses_call && !intervals[j].crosses_call))
    })?;
    let (j, reg) = active.remove(pos);
    let victim = &intervals[j];
    let slot = if victim.kind == ValKind::F {
        asn.new_fslot()
    } else {
        asn.new_slot()
    };
    asn.set(victim.vreg, slot);
    Some(reg)
}

fn to_alloc(p: Phys) -> AllocLoc {
    match p {
        Phys::R(r) => AllocLoc::R(r),
        Phys::F(f) => AllocLoc::F(f),
    }
}

/// Checks the fundamental invariant of any register allocation: no two
/// intervals that overlap in time share a physical register. Returns the
/// offending pair if the invariant is violated (used by tests and
/// property tests).
pub fn check_no_overlap_conflicts(
    intervals: &[Interval],
    asn: &Assignment,
) -> Option<(crate::ir::VReg, crate::ir::VReg)> {
    for (i, a) in intervals.iter().enumerate() {
        for b in &intervals[i + 1..] {
            let overlap = a.start <= b.end && b.start <= a.end;
            if !overlap {
                continue;
            }
            let (la, lb) = (asn.loc(a.vreg), asn.loc(b.vreg));
            if la == lb && !la.is_spill() {
                return Some((a.vreg, b.vreg));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::VReg;

    fn iv(v: u32, start: usize, end: usize) -> Interval {
        Interval {
            vreg: VReg(v),
            kind: ValKind::W,
            start,
            end,
            crosses_call: false,
            weight: 1,
        }
    }

    fn pools(n: usize) -> Pools {
        Pools::with_int_limit(n)
    }

    fn linear_scan(intervals: &[Interval], nv: usize, pools: &Pools) -> Assignment {
        let mut asn = Assignment::default();
        super::linear_scan(intervals, nv, pools, &mut ScanScratch::default(), &mut asn);
        asn
    }

    #[test]
    fn disjoint_intervals_share_registers() {
        let ivs = vec![iv(0, 0, 1), iv(1, 2, 3), iv(2, 4, 5)];
        let asn = linear_scan(&ivs, 3, &pools(1));
        assert_eq!(asn.spilled, 0);
        let l0 = asn.loc(VReg(0));
        let l1 = asn.loc(VReg(1));
        let l2 = asn.loc(VReg(2));
        assert_eq!(l0, l1);
        assert_eq!(l1, l2);
    }

    #[test]
    fn overlapping_intervals_get_distinct_registers() {
        let ivs = vec![iv(0, 0, 10), iv(1, 2, 12), iv(2, 4, 14)];
        let asn = linear_scan(&ivs, 3, &pools(3));
        assert_eq!(asn.spilled, 0);
        assert!(check_no_overlap_conflicts(&ivs, &asn).is_none());
    }

    #[test]
    fn pressure_beyond_r_spills_the_longest() {
        // Three overlapping intervals, two registers: the one with the
        // earliest start (longest) is the spill victim per Figure 3.
        let mut ivs = vec![iv(0, 0, 20), iv(1, 5, 15), iv(2, 6, 14)];
        ivs.sort_by_key(|i| i.end);
        let asn = linear_scan(&ivs, 3, &pools(2));
        assert_eq!(asn.spilled, 1);
        assert!(asn.loc(VReg(0)).is_spill(), "longest interval spilled");
        assert!(!asn.loc(VReg(1)).is_spill());
        assert!(!asn.loc(VReg(2)).is_spill());
        assert!(check_no_overlap_conflicts(&ivs, &asn).is_none());
    }

    #[test]
    fn crossing_intervals_take_callee_saved() {
        let mut a = iv(0, 0, 10);
        a.crosses_call = true;
        let ivs = vec![a];
        let asn = linear_scan(&ivs, 1, &Pools::full());
        match asn.loc(VReg(0)) {
            AllocLoc::R(r) => assert!(tcc_vm::regs::SAVED_REGS.contains(&r)),
            other => panic!("expected callee-saved register, got {other:?}"),
        }
        assert_eq!(asn.used_callee_saved.len(), 1);
    }

    #[test]
    fn many_intervals_no_conflicts() {
        // A pseudo-random torture layout, deterministic.
        let mut ivs = Vec::new();
        let mut x: u64 = 0x12345;
        for v in 0..60u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = (x >> 33) as usize % 100;
            let e = s + 1 + (x >> 17) as usize % 40;
            let mut i = iv(v, s, e);
            i.crosses_call = (x & 1) == 0 && v % 3 == 0;
            ivs.push(i);
        }
        ivs.sort_by_key(|i| (i.end, i.start));
        let asn = linear_scan(&ivs, 60, &Pools::full());
        assert!(check_no_overlap_conflicts(&ivs, &asn).is_none());
        // Callee-only constraint respected.
        for i in &ivs {
            if i.crosses_call {
                match asn.loc(i.vreg) {
                    AllocLoc::R(r) => assert!(tcc_vm::regs::SAVED_REGS.contains(&r)),
                    AllocLoc::Slot(_) => {}
                    other => panic!("bad loc {other:?}"),
                }
            }
        }
    }

    #[test]
    fn float_bank_is_independent() {
        let mut ivs = vec![iv(0, 0, 10)];
        ivs.push(Interval {
            vreg: VReg(1),
            kind: ValKind::F,
            start: 0,
            end: 10,
            crosses_call: false,
            weight: 1,
        });
        let asn = linear_scan(&ivs, 2, &Pools::full());
        assert!(matches!(asn.loc(VReg(0)), AllocLoc::R(_)));
        assert!(matches!(asn.loc(VReg(1)), AllocLoc::F(_)));
    }
}
