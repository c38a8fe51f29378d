//! End-to-end semantics of the dynamic-code lifecycle manager
//! (`tcc-cache`): compile memoization, code-space reclamation when a
//! one-session pool's byte budget retires artifacts, and stale-code
//! faulting — all driven through the public `Session` API.

use std::sync::Arc;
use tickc::tickc_core::{Config, Error, Session, SharedArtifacts};
use tickc::vm::VmError;

/// One dynamic-compilation site specializing on `$n`: every distinct
/// argument is a distinct closure, every repeat an identical one.
/// `idle` enters the VM without compiling, so the call's sync is all
/// that happens.
const MAKE: &str = r#"
long make(int n) {
    int cspec c = `($n * 3 + 4);
    int (*f)(void) = compile(c, int);
    return (long)f;
}
int idle(void) { return 0; }
"#;

fn session(config: Config) -> Session {
    Session::new(MAKE, config).expect("compiles")
}

/// A session bounded the one way there is: a pool of one whose CLOCK
/// budget retires artifacts, each freed locally at the next call.
fn bounded(budget: u64) -> (Session, Arc<SharedArtifacts>) {
    let shared = SharedArtifacts::with_budget(budget);
    let s = session(Config {
        shared: Some(Arc::clone(&shared)),
        ..Config::default()
    });
    (s, shared)
}

/// A `mk()` whose closure body is long enough that a real compile
/// dwarfs a fingerprint walk (for the hit-economics test).
fn big_src() -> String {
    let mut body = String::new();
    for i in 0..120 {
        let (d, s) = if i % 2 == 0 { ("a", "b") } else { ("b", "a") };
        body.push_str(&format!("        {d} = {d} * 3 + {s} + {};\n", i % 7 + 1));
    }
    format!(
        r#"
int seed = 5;
long mk(void) {{
    void cspec c = `{{
        int a;
        int b;
        a = $seed;
        b = 2;
{body}        return a + b;
    }};
    return (long)compile(c, int);
}}
"#
    )
}

#[test]
fn repeated_compile_returns_the_same_pointer() {
    let mut s = session(Config::default());
    let first = s.call("make", &[7]).unwrap();
    for _ in 0..4 {
        assert_eq!(s.call("make", &[7]).unwrap(), first, "hit changed pointer");
    }
    // A different `$`-constant is a different closure.
    let other = s.call("make", &[8]).unwrap();
    assert_ne!(first, other);
    let m = s.metrics().cache;
    assert_eq!(m.hits, 4);
    assert_eq!(m.misses, 2);
    assert_eq!(m.uncacheable, 0);
    // Cached code still runs (and was compiled from the right constant).
    assert_eq!(s.call_addr(first, &[]).unwrap(), 25);
    assert_eq!(s.call_addr(other, &[]).unwrap(), 28);
}

#[test]
fn disabling_the_cache_recompiles_every_time() {
    let mut s = session(Config {
        cache: false,
        ..Config::default()
    });
    let a = s.call("make", &[7]).unwrap();
    let b = s.call("make", &[7]).unwrap();
    assert_ne!(a, b, "uncached compiles emit fresh code");
    let m = s.metrics();
    assert_eq!(m.dynamic.compiles, 2);
    assert_eq!(m.cache.hits, 0);
    assert_eq!(m.cache.misses, 0);
}

#[test]
fn cache_hits_are_an_order_of_magnitude_cheaper_than_recompiles() {
    // The acceptance bar: answering a compile from cache costs at least
    // 10x less than re-running the CGF. `ns_saved` accumulates the
    // original compile time per hit; `hit_ns` the fingerprint + lookup
    // time actually spent answering hits.
    let mut s = Session::new(&big_src(), Config::default()).expect("compiles");
    for _ in 0..20 {
        s.call("mk", &[]).unwrap();
    }
    let m = s.metrics().cache;
    assert_eq!(m.hits, 19);
    assert!(
        m.ns_saved >= 10 * m.hit_ns,
        "hits not 10x cheaper: saved {} ns vs spent {} ns",
        m.ns_saved,
        m.hit_ns
    );
}

#[test]
fn budget_bounds_live_code_and_books_balance() {
    let budget = 2048u64;
    let (mut s, shared) = bounded(budget);
    // Drive well past the budget with distinct closures.
    for n in 0..200u64 {
        s.call("make", &[n]).unwrap();
    }
    assert!(
        shared.metrics().evictions > 0,
        "budget never forced an eviction"
    );
    // The next call syncs: the memo drops what the pool retired.
    s.call("idle", &[]).unwrap();
    let m = s.metrics().cache;
    let pool = shared.metrics();
    assert_eq!(
        m.evictions, pool.evictions,
        "every retirement freed locally"
    );
    assert_eq!(
        m.bytes_live, pool.bytes_live,
        "the memo holds what the pool holds"
    );
    assert!(
        m.bytes_live <= budget,
        "live cached code {} exceeds budget {budget}",
        m.bytes_live
    );
    // The cache's books agree with the code space's own accounting:
    // everything the cache reclaimed is words the arena marked free.
    let stats = s.vm.state().code.stats();
    assert_eq!(
        m.bytes_reclaimed,
        stats.reclaimed_words as u64 * 4,
        "cache and code space disagree on reclaimed bytes"
    );
    assert!(stats.free_words > 0, "reclaimed space not in the free list");

    // Steady state: freed ranges are reused, so another round of churn
    // barely grows the arena (identical-size functions fit old holes).
    let before = s.vm.state().code.stats().total_words;
    for n in 200..400u64 {
        s.call("make", &[n]).unwrap();
    }
    let after = s.vm.state().code.stats().total_words;
    assert!(
        after <= before + before / 4,
        "code space not bounded under churn: {before} -> {after} words"
    );
}

#[test]
fn evicted_code_faults_stale_when_called() {
    let (mut s, shared) = bounded(256);
    let first = s.call("make", &[0]).unwrap();
    assert_eq!(s.call_addr(first, &[]).unwrap(), 4);
    // Distinct closures until the pool's CLOCK hand evicts `first`:
    // published earliest and never asked for again, its referenced bit
    // is clear. The call that probes it syncs first, freeing the local
    // copy, and compiles nothing that could recycle the range (after
    // which the address would alias fresh code).
    let mut n = 1u64;
    while shared.metrics().evictions == 0 {
        s.call("make", &[n]).unwrap();
        n += 1;
        assert!(n < 1000, "budget never forced an eviction");
    }
    let err = s.call_addr(first, &[]).unwrap_err();
    assert!(
        matches!(err, Error::Vm(VmError::StaleCode(_))),
        "stale pointer should fault cleanly, got: {err}"
    );
    assert_eq!(s.metrics().cache.evictions, shared.metrics().evictions);
}

/// A `$` operand that indexes memory is evaluated against VM memory at
/// dynamic compile time, so the generated code depends on state the
/// closure does not carry.
const ROW: &str = r#"
int row[4] = {10, 20, 30, 40};
void set(int k, int v) { row[k] = v; }
long pick(int k) {
    void cspec c = `{
        int j;
        int s;
        s = 0;
        for (j = 0; j < 4; j++)
            if (j == $k) s = $row[j];
        return s;
    };
    return (long)compile(c, int);
}
long pure(int n) {
    int cspec c = `($n * 2);
    return (long)compile(c, int);
}
"#;

#[test]
fn a_memory_reading_dollar_bypasses_the_memo() {
    let mut s = Session::new(ROW, Config::default()).expect("compiles");
    let f = s.call("pick", &[2]).unwrap();
    assert_eq!(s.call_addr(f, &[]).unwrap(), 30);
    s.call("set", &[2, 33]).unwrap();
    let g = s.call("pick", &[2]).unwrap();
    assert_eq!(s.call_addr(g, &[]).unwrap(), 33, "a hit served a stale row");
    let m = s.metrics();
    assert_eq!((m.cache.uncacheable, m.cache.hits), (2, 0));
    assert_eq!(m.dynamic.compiles, 2);

    // A pure `$` is keyed: the second compile is a hit.
    let a = s.call("pure", &[21]).unwrap();
    assert_eq!(s.call("pure", &[21]).unwrap(), a);
    assert_eq!(s.call_addr(a, &[]).unwrap(), 42);
    let m = s.metrics();
    assert_eq!((m.cache.uncacheable, m.cache.hits), (2, 1));
}

#[test]
fn of_the_suite_only_dp_reads_memory_under_dollar() {
    // `blur`'s `$blur_w` names a scalar global, which sema captures by
    // value at specification time; only `dp`'s `$dp_row[k]` loads.
    use tickc::suite::{benchmarks, BLUR_SMALL};
    let mut got = Vec::new();
    for bench in benchmarks(BLUR_SMALL) {
        let mut s = Session::new(bench.src, Config::default()).expect("suite program compiles");
        (bench.setup)(&mut s);
        (bench.compile_dyn)(&mut s);
        got.push((bench.name, s.metrics().cache.uncacheable));
    }
    let want: Vec<_> = got
        .iter()
        .map(|&(name, _)| (name, u64::from(name == "dp")))
        .collect();
    assert_eq!(got.len(), 14);
    assert_eq!(got, want);
}

#[test]
fn memo_hits_give_a_closure_its_second_chance() {
    let (mut s, shared) = bounded(256);
    let hot = s.call("make", &[0]).unwrap();
    let cold = s.call("make", &[1]).unwrap();
    // Distinct closures push the CLOCK hand round the ring; after each,
    // the hot closure is asked for again and answered by the memo.
    let mut n = 2u64;
    while shared.metrics().evictions < 40 {
        s.call("make", &[n]).unwrap();
        n += 1;
        assert!(n < 1000, "budget never forced enough evictions");
        assert_eq!(
            s.call("make", &[0]).unwrap(),
            hot,
            "the hot closure recompiled"
        );
        if shared.metrics().evictions == 1 {
            // The hand's first victim is the closure never asked for
            // again, published before everything else still resident.
            // No install since its sync freed it: the address is stale.
            let err = s.call_addr(cold, &[]).unwrap_err();
            assert!(matches!(err, Error::Vm(VmError::StaleCode(_))), "{err}");
        }
    }
    assert_eq!(s.call_addr(hot, &[]).unwrap(), 4);
    let m = s.metrics().cache;
    assert_eq!(
        m.misses, n,
        "one compile per closure: the hot one never again"
    );
    assert_eq!(m.evictions, shared.metrics().evictions);
}

#[test]
fn a_kept_entry_follows_its_key_to_the_republished_resident() {
    let shared = SharedArtifacts::with_budget(256);
    let member = || {
        session(Config {
            shared: Some(Arc::clone(&shared)),
            ..Config::default()
        })
    };
    let (mut a, mut b) = (member(), member());
    a.call("make", &[0]).unwrap();
    let key = shared.sample_fingerprint(0).expect("one resident");
    let kept = b.call("make", &[0]).unwrap();
    assert_eq!(b.metrics().cache.misses, 0, "b installed a's artifact");
    // `a` churns until the hand evicts the key, then asks for it again:
    // its own sync dropped its copy, so it compiles and republishes.
    // `b` has not entered the VM meanwhile, so its memo still holds the
    // key and the address installed from the first resident.
    let mut n = 1u64;
    while shared.contains(&key) {
        a.call("make", &[n]).unwrap();
        n += 1;
        assert!(n < 1000, "budget never evicted the key");
    }
    a.call("make", &[0]).unwrap();
    assert!(shared.contains(&key), "republished");
    // From here only `b` asks for the key. Its sync finds the key
    // resident again and keeps the entry; its hits must reach the new
    // resident, or the hand evicts that and `b` recompiles.
    let evictions = shared.metrics().evictions;
    while shared.metrics().evictions < evictions + 40 {
        a.call("make", &[n]).unwrap();
        n += 1;
        assert!(n < 2000, "budget never forced enough evictions");
        assert_eq!(b.call("make", &[0]).unwrap(), kept, "b recompiled the key");
        assert!(
            shared.contains(&key),
            "the republished resident was evicted"
        );
    }
    assert_eq!(b.metrics().cache.misses, 0);
    assert_eq!(b.call_addr(kept, &[]).unwrap(), 4);
}
