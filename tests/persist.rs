//! End-to-end semantics of the persistent cross-process code cache:
//! a session's dynamic compiles survive process death (simulated by
//! dropping the session) and warm-start the next process from disk;
//! the on-disk store is single-writer; entries written under a
//! different static program (different ABI salt) are rejected cold;
//! and artifacts loaded from disk still honor the in-memory
//! invalidation protocol (`VmError::StaleCode`, never stale bytes).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tickc::tickc_core::{Config, Error, Session, SharedArtifacts};
use tickc::vm::VmError;

/// One dynamic-compilation site specializing on `$n`.
const MAKE: &str = r#"
long make(int n) {
    int vspec x = param(int, 0);
    int cspec c = `(x * $n + $n);
    return (long)compile(c, int);
}
"#;

/// A different static program (two entry points, different globals) so
/// its ABI salt cannot collide with `MAKE`'s.
const OTHER: &str = r#"
int bias = 11;
long mk_a(int n) {
    int cspec c = `($n + $bias);
    return (long)compile(c, int);
}
long mk_b(int n) {
    int cspec c = `($n * $bias);
    return (long)compile(c, int);
}
"#;

/// Fresh store path per test invocation (tests run concurrently).
fn store_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tcc-e2e-{tag}-{}-{n}.tccp", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut lock = path.to_path_buf().into_os_string();
    lock.push(".lock");
    let _ = std::fs::remove_file(lock);
}

fn persist_session(src: &str, path: &Path) -> Session {
    Session::new(
        src,
        Config {
            persist_path: Some(path.to_path_buf()),
            ..Config::default()
        },
    )
    .expect("compiles")
}

#[test]
fn warm_start_answers_compiles_from_disk() {
    let path = store_path("warm");

    // "Process 1": compile three closures, record results, die.
    let mut results = Vec::new();
    {
        let mut s = persist_session(MAKE, &path);
        for n in [3u64, 9, 12] {
            let addr = s.call("make", &[n]).expect("compiles");
            results.push(s.call_addr(addr, &[5]).expect("runs"));
        }
        let m = s.metrics();
        assert_eq!(m.dynamic.compiles, 3, "cold process compiles everything");
        assert_eq!(m.persist.disk_hits, 0);
        assert_eq!(m.persist.disk_misses, 3);
        // Drop flushes the dirty store and releases the writer lock.
    }
    assert!(path.exists(), "store file written on process exit");

    // "Process 2": the same requests are answered from disk — zero
    // dynamic compiles, bit-identical results.
    {
        let mut s = persist_session(MAKE, &path);
        for (i, n) in [3u64, 9, 12].iter().enumerate() {
            let addr = s.call("make", &[*n]).expect("warm compile");
            assert_eq!(s.call_addr(addr, &[5]).expect("runs"), results[i]);
        }
        let m = s.metrics();
        assert_eq!(m.dynamic.compiles, 0, "warm process must not recompile");
        assert_eq!(m.persist.disk_hits, 3);
        assert_eq!(m.persist.corrupt_rejected, 0);
        assert_eq!(m.persist.version_rejected, 0);
        assert!((m.persist.disk_hit_rate() - 1.0).abs() < 1e-9);
        // Disk hits count as cache hits and credit compile-minus-load.
        assert_eq!(m.cache.hits, 3);
        // A closure the store has never seen is still a disk miss that
        // compiles fresh and is re-recorded.
        let addr = s.call("make", &[77]).expect("fresh compile");
        assert_eq!(s.call_addr(addr, &[5]).unwrap(), 5 * 77 + 77);
        assert_eq!(s.metrics().persist.disk_misses, 1);
        s.flush_persist().expect("writer flush succeeds");
    }

    // "Process 3" sees all four.
    {
        let mut s = persist_session(MAKE, &path);
        for n in [3u64, 9, 12, 77] {
            s.call("make", &[n]).expect("warm compile");
        }
        assert_eq!(s.metrics().persist.disk_hits, 4);
        assert_eq!(s.metrics().dynamic.compiles, 0);
    }
    cleanup(&path);
}

#[test]
fn different_static_program_rejects_the_store_cold() {
    let path = store_path("salt");
    {
        let mut s = persist_session(MAKE, &path);
        s.call("make", &[9]).expect("compiles");
    }

    // A process running a *different* static program opens the same
    // path: the ABI salt differs, so the whole file is rejected as a
    // version mismatch — never served.
    {
        let mut s = persist_session(OTHER, &path);
        let m = s.metrics();
        assert_eq!(m.persist.version_rejected, 1, "salt mismatch rejected");
        assert_eq!(m.persist.entries_loaded, 0);
        let addr = s.call("mk_a", &[9]).expect("fresh compile");
        assert_eq!(s.call_addr(addr, &[]).unwrap(), 20);
        assert_eq!(s.metrics().dynamic.compiles, 1);
        assert_eq!(s.metrics().persist.disk_hits, 0);
    }
    cleanup(&path);
}

#[test]
fn two_processes_share_one_store_under_a_single_writer() {
    let path = store_path("twoproc");

    // "Process A": its own SharedArtifacts pool, holds the writer
    // lock, publishes two artifacts, flushes mid-life.
    let shared_a = SharedArtifacts::unbounded();
    let mut a = Session::new(
        MAKE,
        Config {
            shared: Some(Arc::clone(&shared_a)),
            persist_path: Some(path.clone()),
            ..Config::default()
        },
    )
    .expect("compiles");
    let fa = a.call("make", &[9]).expect("compiles");
    let ra = a.call_addr(fa, &[5]).expect("runs");
    a.call("make", &[3]).expect("compiles");
    a.flush_persist().expect("writer flushes");

    // "Process B": a second SharedArtifacts pool over the same path,
    // opened while A is still alive. The lock file makes it a reader:
    // it serves A's flushed entries but cannot clobber the store.
    let shared_b = SharedArtifacts::unbounded();
    let mut b = Session::new(
        MAKE,
        Config {
            shared: Some(Arc::clone(&shared_b)),
            persist_path: Some(path.clone()),
            ..Config::default()
        },
    )
    .expect("compiles");
    assert_eq!(
        b.metrics().persist.entries_loaded,
        2,
        "reader sees the flush"
    );
    let fb = b.call("make", &[9]).expect("disk fill");
    assert_eq!(b.call_addr(fb, &[5]).expect("runs"), ra);
    assert_eq!(b.metrics().persist.disk_hits, 1);
    assert_eq!(b.dyn_stats().compiles, 0, "B never compiled");
    assert_eq!(shared_b.metrics().published, 0);
    let err = b.flush_persist().expect_err("reader must not flush");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);

    // Invalidation still composes: churning the disk-loaded artifact
    // out of B's pool faults the executing session with StaleCode.
    let fp = shared_b.sample_fingerprint(0).expect("one resident");
    assert!(shared_b.invalidate(&fp));
    match b.call_addr(fb, &[5]) {
        Err(Error::Vm(VmError::StaleCode(at))) => assert_eq!(at, fb),
        other => panic!("expected StaleCode fault, got {other:?}"),
    }
    // And the next request recovers (recompile or re-fill; A's store
    // entry is tombstoned only in B's in-memory view).
    let fb2 = b.call("make", &[9]).expect("recovers");
    assert_eq!(b.call_addr(fb2, &[5]).expect("runs"), ra);

    drop(a);
    drop(shared_a);

    // With A gone the lock is released: a third pool opens as writer
    // and serves everything A persisted.
    let shared_c = SharedArtifacts::unbounded();
    let mut c = Session::new(
        MAKE,
        Config {
            shared: Some(Arc::clone(&shared_c)),
            persist_path: Some(path.clone()),
            ..Config::default()
        },
    )
    .expect("compiles");
    c.call("make", &[9]).expect("disk fill");
    c.call("make", &[3]).expect("disk fill");
    assert_eq!(c.metrics().persist.disk_hits, 2);
    assert_eq!(c.dyn_stats().compiles, 0);
    c.flush_persist().expect("writer again");

    drop(b);
    drop(c);
    drop(shared_b);
    drop(shared_c);
    cleanup(&path);
}

/// A tick body that mentions a string literal, and a way to move the
/// session's heap before compiling it.
const GREET: &str = r#"
long fill(long n) { return (long)malloc(n); }
long greet(int n) {
    void cspec c = `{ puts("hello from dynamic code"); puti($n); };
    return (long)compile(c, void);
}
"#;

#[test]
fn string_literals_in_tick_bodies_survive_the_store() {
    // The generated code holds the literal's address. It is an address
    // in the static image's data — the same in every session of the
    // program — so an artifact on disk prints the same bytes in a
    // process whose heap looks nothing like the compiling one's.
    let path = store_path("strlit");
    {
        let mut s = persist_session(GREET, &path);
        let fp = s.call("greet", &[7]).expect("compiles");
        s.call_addr(fp, &[]).expect("runs");
        assert_eq!(s.output(), "hello from dynamic code\n7\n");
        assert_eq!(s.metrics().dynamic.compiles, 1);
    }
    {
        let mut s = persist_session(GREET, &path);
        s.call("fill", &[4096]).expect("mallocs first");
        let fp = s.call("greet", &[7]).expect("answered from disk");
        let m = s.metrics();
        assert_eq!((m.persist.disk_hits, m.dynamic.compiles), (1, 0));
        s.call_addr(fp, &[]).expect("runs");
        assert_eq!(s.output(), "hello from dynamic code\n7\n");
    }
    cleanup(&path);
}

#[test]
fn compiling_a_string_literal_does_not_grow_the_heap() {
    let config = Config {
        cache: false,
        ..Config::default()
    };
    let mut s = Session::new(GREET, config).expect("compiles");
    let brk_after = |s: &mut Session, compiles: u64| {
        for _ in 0..compiles {
            s.call("greet", &[7]).expect("compiles");
        }
        s.vm.state().mem.brk()
    };
    // One compile's closure goes to the arena (allocated by the first);
    // a hundred more take nothing from the general heap.
    let first = brk_after(&mut s, 1);
    assert_eq!(brk_after(&mut s, 100), first);
    assert_eq!(s.metrics().dynamic.compiles, 101);
}

#[test]
fn a_session_without_a_memo_opens_no_store() {
    let path = store_path("nomemo");
    cleanup(&path);
    {
        let mut s = Session::new(
            MAKE,
            Config {
                cache: false,
                persist_path: Some(path.clone()),
                ..Config::default()
            },
        )
        .expect("compiles");
        for n in [3, 3, 4] {
            let f = s.call("make", &[n]).unwrap();
            assert_eq!(s.call_addr(f, &[2]).unwrap(), 3 * n);
        }
        s.flush_persist().expect("no store: flushing is a no-op");
        let m = s.metrics();
        assert_eq!(m.dynamic.compiles, 3, "no memo: every compile compiles");
        assert_eq!(m.persist, Default::default(), "no store: every count zero");
    }
    let mut lock = path.clone().into_os_string();
    lock.push(".lock");
    assert!(!path.exists(), "a store file was written");
    assert!(!Path::new(&lock).exists(), "a store lock was taken");
}
