//! A session holds one data memory, and pays the host only for the
//! pages its program touches: `Config::mem_size` is address space.
//! Alone in its binary so no other test binary moves the reading; the
//! tests here take turns on one lock.
#![cfg(target_os = "linux")]

use std::sync::Mutex;

use tcc::{Backend, Config, Session, Strategy};
use tcc_suite::{benchmarks, BLUR_SMALL};

/// Held by every test for its whole run: each reads the process's RSS.
static RSS: Mutex<()> = Mutex::new(());

const SRC: &str = r#"
int make(int n) {
    int cspec c = `($n * 3 + 4);
    int (*f)(void) = compile(c, int);
    return (*f)();
}
"#;

/// Resident set size in bytes, from `/proc/self/statm`'s second field
/// (pages; 4 KiB on every Linux this runs on).
fn resident_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("procfs");
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm resident field");
    pages * 4096
}

#[test]
fn eight_default_sessions_stay_under_one_default_memory() {
    let _turn = RSS.lock().unwrap_or_else(|e| e.into_inner());
    let before = resident_bytes();
    let mut sessions: Vec<Session> = (0..8)
        .map(|_| Session::with_defaults(SRC).expect("compiles"))
        .collect();
    for (n, s) in sessions.iter_mut().enumerate() {
        assert_eq!(s.call("make", &[n as u64]).unwrap(), n as u64 * 3 + 4);
    }
    let grown = resident_bytes().saturating_sub(before);
    // 8 x 64 MiB of address space. A session that copied its image's
    // memory would have written all of it: 512 MiB resident.
    assert!(
        grown < 64 << 20,
        "8 live default sessions grew the process by {} KiB",
        grown >> 10
    );
}

const BACKENDS: [Backend; 3] = [
    Backend::Vcode { unchecked: false },
    Backend::Icode {
        strategy: Strategy::LinearScan,
    },
    Backend::Icode {
        strategy: Strategy::GraphColor,
    },
];

/// A memo-off 2 MiB session of suite program `bench`, set up the way the
/// repo benchmark's `codegen_cold` sets up its sessions.
fn suite_session(bench: &tcc_suite::BenchDef, backend: &Backend) -> Session {
    let config = Config {
        backend: backend.clone(),
        cache: false,
        mem_size: 2 << 20,
        ..Config::default()
    };
    let mut s = Session::new(bench.src, config).expect("compiles");
    (bench.setup)(&mut s);
    s
}

/// One session per suite program x dynamic back end: a `codegen_cold`
/// slice's 42.
fn generation() -> Vec<Session> {
    let suite = benchmarks(BLUR_SMALL);
    suite
        .iter()
        .flat_map(|bench| BACKENDS.iter().map(|b| suite_session(bench, b)))
        .collect()
}

#[test]
fn a_second_generation_of_sessions_pays_only_for_its_pages() {
    let _turn = RSS.lock().unwrap_or_else(|e| e.into_inner());
    drop(suite_session(&benchmarks(BLUR_SMALL)[0], &BACKENDS[0]));
    let first = generation();
    assert_eq!(first.len(), 42, "14 suite programs x 3 back ends");
    // Allocated after the first generation and alive across its drop,
    // so the memories freed under it cannot go back by shrinking a heap.
    let later = std::hint::black_box(vec![1u64; 1024]);
    drop(first);
    let before = resident_bytes();
    let second = generation();
    let grown = resident_bytes().saturating_sub(before);
    // 42 x 2 MiB of address space, of which the setups write well under
    // 100 KiB each. Memories carved from the first generation's freed
    // heap blocks would be zeroed whole: about +80 MiB.
    assert!(
        grown < 16 << 20,
        "42 sessions built after 42 dropped grew the process by {} KiB",
        grown >> 10
    );
    drop((second, later));
}
