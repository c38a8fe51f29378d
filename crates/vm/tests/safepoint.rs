//! The adaptive engine's tier-1 backedge safepoint, through the public
//! surface: a single entry is promoted by its own iteration count, and
//! — the mid-run swap point of the background pipeline — a function
//! granted tier 2 while looping inside the decoded dispatcher picks the
//! finished build up at its next clock tick, unless the function died
//! in between.

use tcc_vm::interp::MachineState;
use tcc_vm::isa::{Insn, Op};
use tcc_vm::regs::{A0, AT0, ZERO};
use tcc_vm::{CodeSpace, ExecEngine, FuncHandle, HostCall, Tier, TransHub, Vm, VmError};

/// One clock tick: this many backward transfers count as one run.
const TICK: u64 = 64;

/// The tier a clock reading earns.
fn tier_for(clock: u64, thread_after: u32) -> Tier {
    if clock >= u64::from(thread_after) {
        Tier::Threaded
    } else {
        Tier::Fused
    }
}

/// sum(1..=n) by counted loop: one backward transfer (the `j`) and four
/// instructions per iteration.
fn loop_vm(thread_after: u32) -> (Vm, u64) {
    let mut cs = CodeSpace::new();
    let f = cs.begin_function("sum");
    cs.push(Insn::i(Op::Addiw, AT0, ZERO, 0));
    cs.push(Insn::i(Op::Beq, A0, ZERO, 3));
    cs.push(Insn::r(Op::Addw, AT0, AT0, A0));
    cs.push(Insn::i(Op::Addiw, A0, A0, -1));
    cs.push(Insn::j(Op::J, -4));
    cs.push(Insn::r(Op::Addw, A0, AT0, ZERO));
    cs.push(Insn::ret());
    let addr = cs.finish_function(f).unwrap();
    let mut vm = Vm::new(cs, 1 << 16);
    vm.set_engine(ExecEngine::Adaptive {
        thread_after,
        background: false,
    });
    (vm, addr)
}

#[test]
fn safepoint_promotes_a_single_entry_by_its_iteration_count() {
    // One entry, N loop iterations. The entry itself is one run on the
    // clock, so the run ends at the tier `1 + N / 64` runs earn: tier 2
    // iff N >= (thread_after - 1) * 64, tier 1 (where it entered)
    // otherwise.
    for thread_after in [2u32, 3, 4, 8] {
        let thread_at = u64::from(thread_after - 1) * TICK;
        for n in [
            1,
            TICK - 1,
            TICK,
            thread_at - 1,
            thread_at,
            thread_at + 1,
            thread_at + 500,
        ] {
            let (mut vm, addr) = loop_vm(thread_after);
            assert_eq!(vm.call(addr, &[n]).unwrap(), (1..=n).sum::<u64>());
            // Read at entry (clock 0) and at ticks, nowhere between.
            let clock = if n < TICK { 0 } else { 1 + n / TICK };
            let want = tier_for(clock, thread_after);
            assert_eq!(
                vm.adaptive_tier(addr),
                Some((want, 1)),
                "{thread_after}, n = {n}: backedges are not entries"
            );
            let s = vm.adaptive_stats();
            assert_eq!(s.promotions, u64::from(want == Tier::Threaded));
            assert_eq!(
                (s.total_runs, s.runs_tier1),
                (1, 1),
                "counted at entry tier"
            );
            assert_eq!(s.insns_tier0, 0, "nothing single-stepped");
            assert_eq!(s.insns_tier0 + s.insns_tier1 + s.insns_tier2, vm.insns());
            // Everything past the promoting backedge ran threaded.
            assert!(s.insns_tier2 >= 4 * n.saturating_sub(thread_at), "{s:?}");
            assert_eq!(s.insns_tier2 > 0, n >= thread_at, "n = {n}: {s:?}");
        }
    }
}

/// Host for the mid-run swap tests. Every call first waits for the
/// shared hub to finish everything queued before it, which makes "the
/// build completed at this host-call boundary" deterministic; call
/// number `free.0` then frees the function `free.1`.
struct MidrunHost {
    hub: Option<TransHub<MidrunHost>>,
    calls: u64,
    free: Option<(u64, FuncHandle)>,
}

impl HostCall for MidrunHost {
    fn call(&mut self, _num: u32, st: &mut MachineState) -> Result<(), VmError> {
        self.calls += 1;
        if let Some(hub) = &self.hub {
            hub.barrier();
        }
        if self.free.is_some_and(|(at, _)| at == self.calls) {
            st.code.free_function(self.free.unwrap().1).unwrap();
        }
        Ok(())
    }
}

/// sum(1..=n) with a host call at the loop head (four instructions an
/// iteration), on a hub-backed background engine with threshold 3 — or
/// on the reference engine.
fn midrun_vm(background: bool) -> (Vm<MidrunHost>, u64, FuncHandle) {
    let mut cs = CodeSpace::new();
    let f = cs.begin_function("sum_hcall");
    cs.push(Insn::i(Op::Addiw, AT0, ZERO, 0));
    cs.push(Insn::i(Op::Hcall, ZERO, ZERO, 1)); // loop head
    cs.push(Insn::r(Op::Addw, AT0, AT0, A0));
    cs.push(Insn::i(Op::Addiw, A0, A0, -1));
    cs.push(Insn::i(Op::Bne, A0, ZERO, -4));
    cs.push(Insn::r(Op::Addw, A0, AT0, ZERO));
    cs.push(Insn::ret());
    let addr = cs.finish_function(f).unwrap();
    let host = MidrunHost {
        hub: None,
        calls: 0,
        free: None,
    };
    let mut vm = Vm::with_host(cs, 1 << 16, host);
    if background {
        vm.set_engine(ExecEngine::Adaptive {
            thread_after: 3,
            background: true,
        });
        let hub = TransHub::spawn();
        vm.host_mut().hub = Some(hub.clone());
        vm.set_translation_hub(hub);
    } else {
        vm.set_engine(ExecEngine::DecodePerStep);
    }
    (vm, addr, f)
}

/// Two short runs: the function is at tier 1 with its decoded buffer,
/// built inline at the first entry, and nothing in flight.
fn warm_to_tier1(vm: &mut Vm<MidrunHost>, addr: u64) {
    assert_eq!(vm.call(addr, &[1]).unwrap(), 1);
    assert_eq!(vm.call(addr, &[1]).unwrap(), 1);
    assert_eq!(vm.adaptive_stats().async_translations, 0);
    assert_eq!(vm.exec_stats().translations, 1);
    assert_eq!(vm.adaptive_tier(addr), Some((Tier::Fused, 2)));
    vm.host_mut().calls = 0;
}

#[test]
fn background_midrun_swap_at_the_tier1_safepoint_ends_the_run_threaded() {
    let (mut reference, raddr, _) = midrun_vm(false);
    for n in [1, 1, 300] {
        reference.call(raddr, &[n]).unwrap();
    }
    let (mut vm, addr, _) = midrun_vm(true);
    warm_to_tier1(&mut vm, addr);
    // The third entry starts at tier 1 with the clock at 3: the tick at
    // backedge 64 grants tier 2 and enqueues the build, the host call
    // right after it sees the build finish, and the tick at backedge
    // 128 — still inside `dispatch`'s loop — swaps it in. The rest of
    // the run is threaded.
    assert_eq!(vm.call(addr, &[300]).unwrap(), (1..=300).sum::<u64>());
    assert_eq!(
        (vm.cycles(), vm.insns()),
        (reference.cycles(), reference.insns())
    );
    assert_eq!(vm.adaptive_tier(addr), Some((Tier::Threaded, 3)));
    let s = vm.adaptive_stats();
    assert_eq!((s.async_translations, s.discarded_stale), (1, 0), "{s:?}");
    assert_eq!(
        (s.runs_tier0, s.runs_tier1, s.runs_tier2),
        (0, 3, 0),
        "entries count at the tier granted when they started"
    );
    // The two 7-instruction warm-up runs, the prologue and iterations
    // 1..=128 at tier 1, iterations 129..=300 and the epilogue at
    // tier 2.
    assert_eq!(
        (s.insns_tier0, s.insns_tier1, s.insns_tier2),
        (0, 14 + 1 + 4 * 128, 4 * 172 + 2)
    );
    assert_eq!(s.insns_tier0 + s.insns_tier1 + s.insns_tier2, vm.insns());
}

#[test]
fn background_midrun_build_for_a_freed_function_is_discarded_stale() {
    let (mut reference, raddr, rf) = midrun_vm(false);
    reference.call(raddr, &[1]).unwrap();
    reference.call(raddr, &[1]).unwrap();
    reference.host_mut().calls = 0;
    reference.host_mut().free = Some((70, rf));
    let want = reference.call(raddr, &[300]);
    assert_eq!(want, Err(VmError::StaleCode(raddr + 8)), "after the hcall");

    let (mut vm, addr, f) = midrun_vm(true);
    warm_to_tier1(&mut vm, addr);
    // Between the tick that enqueued the tier-2 build (backedge 64) and
    // the tick that would swap it in (128), the 70th host call frees
    // the running function. The finished build is sitting in the
    // completion channel; it must never be installed.
    vm.host_mut().free = Some((70, f));
    assert_eq!(vm.call(addr, &[300]), want);
    assert_eq!(
        (vm.cycles(), vm.insns()),
        (reference.cycles(), reference.insns())
    );
    assert_eq!(vm.adaptive_tier(addr), None, "no live range remains");
    vm.drain_background_translations();
    let s = vm.adaptive_stats();
    assert_eq!((s.async_translations, s.discarded_stale), (0, 1), "{s:?}");
    assert_eq!(vm.exec_stats().translations, 1, "only tier 1's ever was");
    assert_eq!(s.insns_tier2, 0, "no dead word ran promoted");
    assert_eq!(s.demotions, 1, "the record died holding tier 2's grant");
}
