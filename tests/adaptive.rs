//! Property tests for the adaptive tiering engine at the session level:
//! per-function promotion sequences are monotone, start at tier 1 and
//! reach tier 2 no later than the configured entry threshold (exactly
//! at it for loop-free code; sooner when loop iterations get the clock
//! there first, within a single run if the loop is long enough), epoch bumps
//! (here: a one-session pool's budget evictions, freed at the next
//! call) retire the evicted function's record and leave every
//! survivor's tier and run count alone, freed-then-hot functions fault
//! `StaleCode` no matter which tier they had reached, and the
//! `AdaptiveMetrics` accounting invariants hold across arbitrary
//! compile/run/evict interleavings.

use proptest::prelude::*;
use std::sync::Arc;
use tickc::tickc_core::{Config, Error, Session, SharedArtifacts};
use tickc::vm::{ExecEngine, Tier, VmError, DEFAULT_THREAD_AFTER};

/// `mk(n)` compiles a distinct closure per `n` (the `$`-bound seed
/// changes the fingerprint) so budget pressure eventually evicts a
/// result the pool's CLOCK hand finds unreferenced; `run` executes one.
const SRC: &str = r#"
int seed = 0;
long mk(int n) {
    seed = n;
    int cspec c = `(
        $seed * 3 + $seed * 5 + $seed * 7 + $seed * 9 +
        $seed * 11 + $seed * 13 + $seed * 17 + $seed * 19 +
        $seed * 23 + $seed * 29 + $seed * 31 + $seed * 37);
    return (long)compile(c, int);
}
int run(long fp) {
    int (*g)(void) = (int (*)(void))fp;
    return (*g)();
}
"#;

/// n × (3+5+7+9+11+13+17+19+23+29+31+37).
const PRIME_SUM: u64 = 204;

/// A session under adaptive tiering, bounded by a one-session pool of
/// `budget` bytes.
fn session(thread_after: u32, budget: u64) -> (Session, Arc<SharedArtifacts>) {
    let shared = SharedArtifacts::with_budget(budget);
    let s = Session::new(
        SRC,
        Config {
            shared: Some(Arc::clone(&shared)),
            engine: Some(ExecEngine::Adaptive {
                thread_after,
                background: false,
            }),
            ..Config::default()
        },
    )
    .expect("compiles");
    (s, shared)
}

/// The tier the entry schedule grants a function's `k`-th run
/// (1-indexed): the decision is made at entry against the `k - 1`
/// completed prior runs. A floor — backward transfers only add to the
/// clock — and exact for `SRC`, whose functions take none.
fn expected_tier(k: u64, thread_after: u32) -> Tier {
    if k > u64::from(thread_after) {
        Tier::Threaded
    } else {
        Tier::Fused
    }
}

/// Promotion thresholds: 1 <= thread_after <= 8.
fn thresholds() -> impl Strategy<Value = u32> {
    1u32..=8
}

/// Compiles fresh closures until the pool's budget evicts at least one
/// artifact. The session frees its copy (an epoch bump) at its next
/// call.
fn force_eviction(s: &mut Session, shared: &SharedArtifacts, start_seed: &mut u64) {
    let before = shared.metrics().evictions;
    while shared.metrics().evictions == before {
        s.call("mk", &[*start_seed]).expect("later compile");
        *start_seed += 1;
        assert!(*start_seed < 1000, "budget never forced an eviction");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Per-function tier sequences are monotone and, for loop-free
    /// code, track the configured thresholds exactly; an epoch bump
    /// costs only what it invalidated — the evicted function loses its
    /// record and faults, the survivor's tier and run count carry on.
    #[test]
    fn promotion_sequences_are_monotone_and_reset_on_epoch_bump(
        thread_after in thresholds(),
        runs in 1u64..14,
    ) {
        let (mut s, shared) = session(thread_after, 512);
        let fp = s.call("mk", &[1]).expect("compile");
        prop_assert_eq!(s.vm.adaptive_tier(fp), None, "never entered yet");
        let mut last = Tier::Fused;
        for k in 1..=runs {
            prop_assert_eq!(s.call("run", &[fp]).expect("runs"), PRIME_SUM);
            let (tier, count) = s.vm.adaptive_tier(fp).expect("tracked after a run");
            prop_assert_eq!(count, k, "run counter advances by one per entry");
            prop_assert!(tier >= last, "tier never moves down between runs");
            prop_assert_eq!(
                tier,
                expected_tier(k, thread_after),
                "tier at run {} under threshold {}",
                k,
                thread_after
            );
            last = tier;
        }
        // Asking for it again is a memo hit, which sets its referenced
        // bit in the pool: the CLOCK hand passes it over once.
        prop_assert_eq!(s.call("mk", &[1]).expect("memo hit"), fp);
        // A second function climbs the same schedule; `run` never
        // touches the compile cache, so its bit stays clear and it is
        // the artifact the budget reclaims.
        let victim = s.call("mk", &[2]).expect("compile");
        for _ in 0..runs {
            prop_assert_eq!(s.call("run", &[victim]).expect("runs"), 2 * PRIME_SUM);
        }
        let (victim_tier, _) = s.vm.adaptive_tier(victim).expect("tracked");
        prop_assert_eq!(victim_tier, last, "same thresholds, same climb");
        let demotions_before = s.metrics().adaptive.demotions;
        // Epoch bump: the pool evicts the victim, and the next call's
        // sync frees its code. Only the victim pays for it.
        let mut seed = 3;
        force_eviction(&mut s, &shared, &mut seed);
        match s.call("run", &[victim]) {
            Err(Error::Vm(VmError::StaleCode(addr))) => prop_assert_eq!(addr, victim),
            other => {
                return Err(TestCaseError::fail(format!(
                    "expected StaleCode({victim:#x}), got {other:?}"
                )))
            }
        }
        prop_assert_eq!(s.vm.adaptive_tier(victim), None, "evicted: no record");
        let demotions = s.metrics().adaptive.demotions - demotions_before;
        prop_assert!(
            demotions >= u64::from(last == Tier::Threaded),
            "the victim's level was lost"
        );
        prop_assert_eq!(
            s.vm.adaptive_tier(fp),
            Some((last, runs)),
            "the survivor kept tier and run count across the bump"
        );
        prop_assert_eq!(s.call("run", &[fp]).expect("still resident"), PRIME_SUM);
        let (tier, count) = s.vm.adaptive_tier(fp).expect("still tracked");
        prop_assert_eq!(count, runs + 1, "run count continues across the bump");
        prop_assert_eq!(tier, expected_tier(runs + 1, thread_after));
    }

    /// (b) A freed-then-called function faults `StaleCode` at its own
    /// address regardless of the tier it had climbed to.
    #[test]
    fn freed_hot_function_faults_stale_at_every_tier(
        thread_after in thresholds(),
        warm_runs in 0u64..10,
    ) {
        let (mut s, shared) = session(thread_after, 256);
        let fp = s.call("mk", &[1]).expect("compile");
        for _ in 0..warm_runs {
            prop_assert_eq!(s.call("run", &[fp]).expect("warm run"), PRIME_SUM);
        }
        if warm_runs > 0 {
            let (tier, _) = s.vm.adaptive_tier(fp).expect("tracked");
            prop_assert_eq!(tier, expected_tier(warm_runs, thread_after));
        }
        // `run` never touches the compile cache, so `fp`'s referenced
        // bit stays clear: published first, it is the first artifact
        // the budget reclaims, and the probe's call frees it.
        let mut seed = 2;
        force_eviction(&mut s, &shared, &mut seed);
        match s.call("run", &[fp]) {
            Err(Error::Vm(VmError::StaleCode(addr))) => prop_assert_eq!(addr, fp),
            other => {
                return Err(TestCaseError::fail(format!(
                    "expected StaleCode({fp:#x}) after {warm_runs} warm runs, got {other:?}"
                )))
            }
        }
    }

    /// (c) `AdaptiveMetrics` accounting invariants across arbitrary
    /// compile/run/evict interleavings: tier run counts partition the
    /// total, promotions never trail demotions, and both only grow.
    #[test]
    fn metrics_invariants_hold_across_interleavings(
        thread_after in thresholds(),
        script in prop::collection::vec((0u8..3, 1u64..6), 1..12),
    ) {
        let (mut s, shared) = session(thread_after, 512);
        let mut fps: Vec<u64> = Vec::new();
        let mut seed = 1u64;
        let (mut last_promotions, mut last_demotions) = (0u64, 0u64);
        for (op, n) in script {
            match op {
                0 => {
                    fps.push(s.call("mk", &[seed]).expect("compile"));
                    seed += 1;
                }
                1 => {
                    if let Some(&fp) = fps.last() {
                        for _ in 0..n {
                            // May be StaleCode if churn evicted it.
                            let _ = s.call("run", &[fp]);
                        }
                    }
                }
                _ => {
                    force_eviction(&mut s, &shared, &mut seed);
                    fps.clear();
                }
            }
            let a = s.metrics().adaptive;
            prop_assert_eq!(
                a.runs_tier0 + a.runs_tier1 + a.runs_tier2,
                a.total_runs,
                "tier run counts partition total_runs"
            );
            prop_assert!(a.promotions >= a.demotions, "cannot lose more levels than gained");
            prop_assert!(a.promotions >= last_promotions, "promotions are monotone");
            prop_assert!(a.demotions >= last_demotions, "demotions are monotone");
            last_promotions = a.promotions;
            last_demotions = a.demotions;
        }
    }
}

/// One dynamic function whose run time is a loop of `k` iterations.
const LOOP_SRC: &str = r#"
long mk_loop(int n) {
    int vspec k = param(int, 0);
    void cspec c = `{
        int i;
        int acc;
        acc = 0;
        for (i = 0; i < k; i++) {
            acc = acc + i * $n;
        }
        return acc;
    };
    return (long)compile(c, int);
}
int run_loop(long fp, int k) {
    int (*g)(void) = (int (*)(void))fp;
    return (*g)(k);
}
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (d) With a loop in the function the entry thresholds are "no
    /// later than": every run executes at or above the tier its entry
    /// count earns, the tier never moves down, and a single entry whose
    /// loop is long enough ends at the top tier on iterations alone.
    #[test]
    fn loops_reach_each_tier_no_later_than_the_entry_schedule(
        thread_after in thresholds(),
        iters in 1u64..120,
        runs in 1u64..10,
    ) {
        let config = Config {
            engine: Some(ExecEngine::Adaptive {
                thread_after,
                background: false,
            }),
            ..Config::default()
        };
        let mut s = Session::new(LOOP_SRC, config.clone()).expect("compiles");
        let fp = s.call("mk_loop", &[3]).expect("compile");
        let want = 3 * (iters * (iters - 1) / 2);
        let mut last = Tier::Fused;
        for k in 1..=runs {
            prop_assert_eq!(s.call("run_loop", &[fp, iters]).expect("runs"), want);
            let (tier, count) = s.vm.adaptive_tier(fp).expect("tracked after a run");
            prop_assert_eq!(count, k, "backedges are not entries");
            prop_assert!(tier >= last, "tier never moves down between runs");
            prop_assert!(
                tier >= expected_tier(k, thread_after),
                "run {} under {} is behind its entry schedule at {:?}",
                k, thread_after, tier
            );
            last = tier;
        }
        // The clock is one run per 64 backedges and the loop takes one
        // a trip (two would still fit), so fewer than 32 trips in total
        // never tick: such a function is exactly on the entry schedule.
        if iters * runs < 32 {
            prop_assert_eq!(last, expected_tier(runs, thread_after));
        }
        // One entry, `thread_after` runs' worth of iterations (and a
        // tick to spare): tier 2 before the run is over.
        let mut s = Session::new(LOOP_SRC, config).expect("compiles");
        let fp = s.call("mk_loop", &[3]).expect("compile");
        let long = (u64::from(thread_after) + 1) << 6;
        s.call("run_loop", &[fp, long]).expect("runs");
        prop_assert_eq!(s.vm.adaptive_tier(fp), Some((Tier::Threaded, 1)));
        let a = s.metrics().adaptive;
        prop_assert!(a.insns_tier2 > 0, "the tail of the run was threaded: {:?}", a);
    }
}

#[test]
fn adaptive_is_the_default_engine_and_reports_metrics() {
    let mut s = Session::with_defaults(SRC).expect("compiles");
    assert!(
        matches!(
            s.vm.engine(),
            ExecEngine::Adaptive { thread_after, background }
                if thread_after == DEFAULT_THREAD_AFTER && !background
        ),
        "Config::default must select adaptive tiering, got {:?}",
        s.vm.engine()
    );
    let fp = s.call("mk", &[1]).expect("compile");
    for _ in 0..10 {
        assert_eq!(s.call("run", &[fp]).expect("runs"), PRIME_SUM);
    }
    let m = s.metrics();
    assert!(m.adaptive.total_runs > 0, "runs were counted");
    assert!(
        m.adaptive.promotions >= 2,
        "ten repeat runs take `run` and the closure past the default threshold"
    );
    assert_eq!(
        (m.adaptive.runs_tier0, m.adaptive.insns_tier0),
        (0, 0),
        "nothing single-stepped"
    );
    assert!(
        m.adaptive.runs_tier2 > 0,
        "steady state reached the threaded tier"
    );
    let json = m.to_json().pretty();
    for key in [
        "\"adaptive\"",
        "\"promotions\"",
        "\"demotions\"",
        "\"top_tier_insn_share\"",
    ] {
        assert!(json.contains(key), "session JSON missing {key}");
    }
}

#[test]
fn a_pool_install_runs_fused_from_its_first_entry() {
    // A compiles the closure and publishes it; B installs A's words,
    // and B's first run of them decodes them once, at the function's
    // first entry, and dispatches that array: nothing single-stepped.
    let shared = SharedArtifacts::unbounded();
    let config = Config {
        shared: Some(Arc::clone(&shared)),
        ..Config::default()
    };
    let mut a = Session::new(SRC, config.clone()).expect("compiles");
    let fa = a.call("mk", &[1]).expect("compile");
    assert_eq!(a.call("run", &[fa]).expect("runs"), PRIME_SUM);
    let mut b = Session::new(SRC, config).expect("compiles");
    // B's static caller runs once first, on a closure of B's own, so
    // its own first-entry decode is not part of what is measured.
    let own = b.call("mk", &[2]).expect("compile");
    assert_eq!(b.call("run", &[own]).expect("runs"), 2 * PRIME_SUM);
    let fb = b.call("mk", &[1]).expect("installs");
    assert_eq!(b.dyn_stats().compiles, 1, "A's artifact was installed");
    let before = b.metrics().adaptive;
    assert_eq!(b.call("run", &[fb]).expect("runs"), PRIME_SUM);
    let after = b.metrics().adaptive;
    assert_eq!(
        after.insns_tier0 - before.insns_tier0,
        0,
        "nothing single-stepped: {after:?}"
    );
    let start = ((fb - tickc::vm::CODE_BASE) / 4) as usize;
    let (lo, hi) = b.vm.state().code.live_range_containing(start).unwrap();
    assert_eq!(
        after.translated_words - before.translated_words,
        (hi - lo) as u64,
        "decoded once, at its first entry: {after:?}"
    );
    assert_eq!(b.vm.adaptive_tier(fb), Some((Tier::Fused, 1)));
}
