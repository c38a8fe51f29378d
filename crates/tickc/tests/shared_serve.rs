//! Multi-tenant shared-artifact integration: sessions built around one
//! [`SharedArtifacts`] compile each unique closure once, install the
//! published words everywhere else, and observe another thread's churn
//! as `VmError::StaleCode` faults — never as silently stale execution.

use std::sync::Arc;
use tcc::{Config, Error, Session, SharedArtifacts, VmError};
use tcc_cache::{Acquire, Artifact};

const SRC: &str = r#"
    long mk(int m) {
        int vspec x = param(int, 0);
        int cspec c = `(x * $m + $m);
        return (long)compile(c, int);
    }
"#;

fn shared_session(shared: &Arc<SharedArtifacts>) -> Session {
    shared_session_of(SRC, shared)
}

fn shared_session_of(src: &str, shared: &Arc<SharedArtifacts>) -> Session {
    Session::new(
        src,
        Config {
            shared: Some(Arc::clone(shared)),
            ..Config::default()
        },
    )
    .expect("compiles")
}

#[test]
fn session_and_config_are_send() {
    // The serve pool moves whole sessions onto worker threads; this is
    // the compile-time audit that everything a `Session` owns (VM
    // state, runtime, shared-cache handles, hub channels) crosses.
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
    assert_send::<Config>();
}

#[test]
fn sessions_share_one_compile_across_the_cache() {
    let shared = SharedArtifacts::unbounded();
    let mut a = shared_session(&shared);
    let mut b = shared_session(&shared);

    let fa = a.call("mk", &[9]).expect("compiles");
    assert_eq!(a.call_addr(fa, &[5]).unwrap(), 5 * 9 + 9);
    let m = shared.metrics();
    assert_eq!((m.misses, m.published), (1, 1));
    assert_eq!(a.dyn_stats().compiles, 1);

    // The second session installs the published artifact: a shared
    // hit, zero compiles of its own.
    let fb = b.call("mk", &[9]).expect("installs");
    assert_eq!(b.call_addr(fb, &[5]).unwrap(), 5 * 9 + 9);
    let m = shared.metrics();
    assert_eq!(m.published, 1, "second session must not recompile");
    assert_eq!(m.hits, 1);
    assert_eq!(b.dyn_stats().compiles, 0);

    // Differential: the installed copy is word-identical, so the
    // execution cost is bit-identical to the compiling session's.
    let (i0, c0) = (a.insns(), a.cycles());
    assert_eq!(a.call_addr(fa, &[123]).unwrap(), 123 * 9 + 9);
    let (da_i, da_c) = (a.insns() - i0, a.cycles() - c0);
    let (i0, c0) = (b.insns(), b.cycles());
    assert_eq!(b.call_addr(fb, &[123]).unwrap(), 123 * 9 + 9);
    assert_eq!((b.insns() - i0, b.cycles() - c0), (da_i, da_c));

    // Re-requesting in the compiling session hits its installed memo.
    let fa2 = a.call("mk", &[9]).expect("memo");
    assert_eq!(fa2, fa);
    assert_eq!(shared.metrics().hits, 2);

    // A different `$`-constant is a different fingerprint.
    let f3 = a.call("mk", &[3]).expect("fresh compile");
    assert_eq!(a.call_addr(f3, &[5]).unwrap(), 5 * 3 + 3);
    assert_eq!(shared.metrics().published, 2);
}

#[test]
fn cross_thread_invalidation_faults_stale_code() {
    let shared = SharedArtifacts::unbounded();
    let mut s = shared_session(&shared);
    let addr = s.call("mk", &[9]).expect("compiles");
    assert_eq!(s.call_addr(addr, &[1]).unwrap(), 18);

    // Another thread churns the rule set out from under the executor.
    let churner = Arc::clone(&shared);
    std::thread::spawn(move || {
        let fp = churner.sample_fingerprint(0).expect("one resident");
        assert!(churner.invalidate(&fp));
    })
    .join()
    .unwrap();

    // The executor's next call syncs the generation bump, frees its
    // installed copy, and the stale address faults — never UB.
    match s.call_addr(addr, &[1]) {
        Err(Error::Vm(VmError::StaleCode(at))) => assert_eq!(at, addr),
        other => panic!("expected StaleCode fault, got {other:?}"),
    }

    // Recompiling republishes and the function is callable again.
    let addr2 = s.call("mk", &[9]).expect("recompiles");
    assert_eq!(s.call_addr(addr2, &[1]).unwrap(), 18);
    assert_eq!(shared.metrics().published, 2);
}

#[test]
fn eviction_under_budget_faults_like_invalidation() {
    // A budget small enough that the second artifact evicts the first:
    // the session that installed the first sees StaleCode, not stale
    // bytes.
    let shared = SharedArtifacts::with_budget(64);
    let mut s = shared_session(&shared);
    let a1 = s.call("mk", &[9]).expect("compiles");
    assert_eq!(s.call_addr(a1, &[2]).unwrap(), 2 * 9 + 9);
    let a2 = s.call("mk", &[3]).expect("compiles");
    assert_eq!(s.call_addr(a2, &[2]).unwrap(), 2 * 3 + 3);
    if shared.metrics().evictions > 0 {
        match s.call_addr(a1, &[2]) {
            Err(Error::Vm(VmError::StaleCode(_))) => {}
            other => panic!("expected StaleCode after eviction, got {other:?}"),
        }
    }
}

#[test]
fn uninstallable_shared_artifact_is_compiled_once_and_replaced() {
    let shared = SharedArtifacts::unbounded();
    let mut a = shared_session(&shared);
    a.call("mk", &[9]).expect("compiles");

    // Republish an artifact no code space can take (an undecodable
    // word) under the closure's real fingerprint.
    let fp = shared.sample_fingerprint(0).expect("one resident");
    assert!(shared.invalidate(&fp));
    let Acquire::Miss(claim) = shared.get_or_begin(&fp) else {
        panic!("invalidated fingerprint must be claimable");
    };
    claim.publish(Artifact {
        name: "junk".into(),
        orig_start: 0,
        words: vec![0xFFFF_FFFF],
        bytes: 4,
        compile_ns: 1,
        translation: None,
    });

    // A second session finds it, cannot install it, compiles — once:
    // its memo remembers the result like any other compile.
    let mut b = shared_session(&shared);
    for _ in 0..2 {
        let f = b.call("mk", &[9]).expect("answers");
        assert_eq!(b.call_addr(f, &[5]).unwrap(), 5 * 9 + 9);
    }
    assert_eq!(b.dyn_stats().compiles, 1, "not once per request");

    // And the compile replaced the bad artifact for everyone else.
    let mut c = shared_session(&shared);
    let f = c.call("mk", &[9]).expect("installs b's artifact");
    assert_eq!(c.call_addr(f, &[5]).unwrap(), 5 * 9 + 9);
    assert_eq!(c.dyn_stats().compiles, 0);
}

#[test]
fn string_literals_in_tick_bodies_survive_the_pool() {
    // The published words hold the literal's address; the session that
    // installs them has a different heap (it `malloc`s first) and must
    // still print the literal: the address is the static image's.
    const GREET: &str = r#"
        long fill(long n) { return (long)malloc(n); }
        long greet(int n) {
            void cspec c = `{ puts("hello from dynamic code"); puti($n); };
            return (long)compile(c, void);
        }
    "#;
    let shared = SharedArtifacts::unbounded();
    let mut a = shared_session_of(GREET, &shared);
    let mut b = shared_session_of(GREET, &shared);
    let fa = a.call("greet", &[7]).expect("compiles");
    a.call_addr(fa, &[]).expect("runs");
    assert_eq!(a.output(), "hello from dynamic code\n7\n");

    b.call("fill", &[4096]).expect("mallocs first");
    let fb = b.call("greet", &[7]).expect("installs");
    assert_eq!((b.dyn_stats().compiles, shared.metrics().hits), (0, 1));
    b.call_addr(fb, &[]).expect("runs");
    assert_eq!(b.output(), "hello from dynamic code\n7\n");
}

#[test]
fn three_sessions_each_decode_their_own_installs() {
    // `out`'s tick calls a static function: installing it rebases that
    // call, so the words a session runs are not the words published.
    const TWO_TICKS: &str = r#"
        int sq(int v) { return v * v; }
        long mk(int m) {
            int vspec x = param(int, 0);
            int cspec c = `(x * $m + $m);
            return (long)compile(c, int);
        }
        long out(int m) {
            int vspec x = param(int, 0);
            int cspec c = `(sq(x) + $m);
            return (long)compile(c, int);
        }
    "#;
    let want = |f: &str, m: u64, x: u64| if f == "mk" { x * m + m } else { x * x + m };
    let cells = |i: usize| [("mk", 10 + i as u64), ("out", 20 + i as u64)];
    let shared = SharedArtifacts::unbounded();
    let mut sessions: Vec<Session> = (0..3)
        .map(|_| shared_session_of(TWO_TICKS, &shared))
        .collect();
    // Each session compiles and runs its own two cells first, so every
    // static function it enters below (`mk`, `out`, and `sq` under
    // `out`'s tick) is already decoded.
    for (i, s) in sessions.iter_mut().enumerate() {
        for (f, m) in cells(i) {
            let addr = s.call(f, &[m]).expect("compiles");
            assert_eq!(s.call_addr(addr, &[3]).unwrap(), want(f, m, 3));
        }
    }
    for (i, s) in sessions.iter_mut().enumerate() {
        for (f, m) in (0..3).filter(|&j| j != i).flat_map(cells) {
            let before = s.metrics();
            let addr = s.call(f, &[m]).expect("installs");
            let installed = s.metrics();
            assert_eq!(installed.dynamic.compiles, 2, "{i}: {f}({m}) installed");
            assert_eq!(
                (
                    installed.exec.translations,
                    installed.adaptive.translated_words
                ),
                (before.exec.translations, before.adaptive.translated_words),
                "{i}: installing {f}({m}) decodes nothing"
            );
            assert_eq!(s.call_addr(addr, &[3]).unwrap(), want(f, m, 3));
            let ran = s.metrics();
            let start = ((addr - tcc_vm::CODE_BASE) / 4) as usize;
            let (lo, hi) = s.vm.state().code.live_range_containing(start).unwrap();
            assert_eq!(
                (
                    ran.exec.translations - installed.exec.translations,
                    ran.adaptive.translated_words - installed.adaptive.translated_words,
                ),
                (1, (hi - lo) as u64),
                "{i}: {f}({m}) decoded once, at its first entry"
            );
            assert_eq!(s.call_addr(addr, &[7]).unwrap(), want(f, m, 7));
            assert_eq!(s.metrics().exec.translations, ran.exec.translations);
        }
        assert_eq!(s.metrics().adaptive.insns_tier0, 0, "{i}: nothing stepped");
    }
    let m = shared.metrics();
    assert_eq!((m.published, m.hits), (6, 12), "each cell compiled once");
}

#[test]
fn a_kept_address_runs_its_own_code_or_faults_unless_reused_at_an_entry() {
    // One thread, one session, a budget small enough to evict: compile
    // m = 1..7 in turn, keep every address, and after each compile call
    // every kept address with x = 2. An address whose function was
    // evicted either faults `StaleCode` or — when another function was
    // sealed into the range starting exactly there — runs that one.
    // Never does it run from the middle of another live function.
    let shared = SharedArtifacts::with_budget(256);
    let mut s = shared_session(&shared);
    let mut kept = Vec::new();
    let (mut right, mut stale, mut reused) = (0, 0, 0);
    for m in 1..=7u64 {
        kept.push((m, s.call("mk", &[m]).expect("compiles")));
        for &(k, addr) in &kept {
            match s.call_addr(addr, &[2]) {
                Ok(v) if v == 3 * k => right += 1,
                Ok(v) => {
                    let word = ((addr - tcc_vm::CODE_BASE) / 4) as usize;
                    let range = s.vm.state().code.live_range_containing(word);
                    assert_eq!(
                        range.map(|(start, _)| start),
                        Some(word),
                        "m = {k}'s address answered {v} from inside another function"
                    );
                    reused += 1;
                }
                Err(Error::Vm(VmError::StaleCode(at))) => {
                    assert_eq!(at, addr);
                    stale += 1;
                }
                Err(e) => panic!("m = {k}'s address: {e}"),
            }
        }
    }
    // 28 calls over 4 evictions. The 2 answers from a reused entry are
    // m = 1's address running a later `mk`: what a per-range reuse tag
    // on addresses would turn into `StaleCode` too.
    assert_eq!(shared.metrics().evictions, 4);
    assert_eq!((right, stale, reused), (18, 8, 2));
}

/// One thread calls cells through a `Session` — installed from the
/// pool, or compiled and published — and checks every answer, while
/// another retires them: it publishes other cells past a tight budget
/// (evicting), invalidates residents, and re-publishes what it
/// invalidated. A call must answer right, or fault `StaleCode` and
/// answer right once recompiled; it must never answer wrong.
///
/// The caller asks for the cell before each round of calls, as a
/// server would per request: a freed address may be reused by the next
/// install, so an address is only good until the session compiles
/// again.
fn retire_vs_hit(rounds: u64) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const CELLS: u64 = 6;
    /// Stops the churner however the caller leaves, panics included.
    struct Done<'a>(&'a AtomicBool);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    // Room for a handful of artifacts, against 6 + 16 cells in play.
    let shared = SharedArtifacts::with_budget(256);
    let done = AtomicBool::new(false);
    let churns = AtomicU64::new(0);
    let stale = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut churner = shared_session(&shared);
            let mut i = 0u64;
            while !done.load(Ordering::Relaxed) {
                i += 1;
                // Alternately one of the caller's cells (so the caller
                // installs it) and one of its own (a publish that
                // evicts).
                let m = if i.is_multiple_of(2) {
                    1 + i % CELLS
                } else {
                    100 + i % 16
                };
                churner.call("mk", &[m]).expect("compiles or installs");
                if let Some(fp) = shared.sample_fingerprint(i) {
                    if let Acquire::Hit { artifact, .. } = shared.get_or_begin(&fp) {
                        if shared.invalidate(&fp) {
                            if let Acquire::Miss(claim) = shared.get_or_begin(&fp) {
                                claim.publish((*artifact).clone());
                            }
                        }
                    }
                }
                if let Some(fp) = shared.sample_fingerprint(i * 7) {
                    shared.invalidate(&fp);
                }
                churns.fetch_add(1, Ordering::Relaxed);
            }
        });
        let _done = Done(&done);
        let mut s = shared_session(&shared);
        let mut stale = 0u64;
        for r in 0..rounds {
            let m = 1 + r % CELLS;
            let mut calls = 0;
            for attempt in 0.. {
                assert!(attempt < 1000, "cell {m} never answered");
                let f = s.call("mk", &[m]).expect("compiles or installs");
                while calls < 4 {
                    let x = r + calls;
                    match s.call_addr(f, &[x]) {
                        Ok(v) => assert_eq!(v, x * m + m, "round {r}, cell {m}"),
                        Err(Error::Vm(VmError::StaleCode(at))) => {
                            assert_eq!(at, f);
                            stale += 1;
                            break;
                        }
                        Err(e) => panic!("round {r}, cell {m}: {e}"),
                    }
                    calls += 1;
                }
                if calls == 4 {
                    break;
                }
            }
        }
        // Let the churner get some work in even if the caller was fast.
        while churns.load(Ordering::Relaxed) < 20 {
            std::thread::yield_now();
        }
        stale
    });
    let m = shared.metrics();
    assert!(m.evictions > 0 && m.invalidations > 0, "{m:?}");
    assert!(m.bytes_live <= 256);
    eprintln!("{rounds} rounds: {stale} stale faults recovered; {m:?}");
}

#[test]
fn retiring_under_a_caller_never_yields_a_wrong_answer() {
    retire_vs_hit(10_000);
}

/// Ten times the debug run's rounds; `ci.sh` runs it in release.
#[test]
#[ignore = "release-only: ten times the rounds"]
fn retiring_under_a_caller_never_yields_a_wrong_answer_release() {
    retire_vs_hit(100_000);
}
