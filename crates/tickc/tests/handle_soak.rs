//! A session that compiles without end holds memory bounded by what is
//! live, not by what it ever compiled.
//!
//! One session in a pool with a 256-byte budget compiles a new `mk(m)`
//! for every `m`, so each compile publishes, evicts an older cell and
//! frees its function. The code space reuses the freed words and the
//! freed function's registry slot, and the translation cache reuses the
//! slot's record: after a warm-up, compiling more must not grow the
//! heap. Bytes live are counted by a `#[global_allocator]`.
//!
//! This file is its own test binary because it installs that allocator;
//! it holds a single test so no other test's allocations run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use tcc::{Config, Session, SharedArtifacts};

struct Counting;

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is a
// static atomic, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SRC: &str = r#"
    long mk(int m) {
        int vspec x = param(int, 0);
        int cspec c = `(x * $m + $m);
        return (long)compile(c, int);
    }
"#;

/// Compiles `mk(m)` for each `m` in `ms` and checks its answer at x = 2.
fn compile_and_call(s: &mut Session, ms: std::ops::Range<u64>) {
    for m in ms {
        let f = s.call("mk", &[m]).expect("compiles");
        assert_eq!(s.call_addr(f, &[2]).expect("runs"), 3 * m, "m = {m}");
    }
}

#[test]
fn twenty_thousand_more_compiles_grow_the_heap_by_nothing() {
    let shared = SharedArtifacts::with_budget(256);
    let mut s = Session::new(
        SRC,
        Config {
            shared: Some(shared.clone()),
            ..Config::default()
        },
    )
    .expect("compiles");
    const N: u64 = 20_000;
    compile_and_call(&mut s, 1..N + 1);
    let warm = LIVE.load(Ordering::Relaxed);
    compile_and_call(&mut s, N + 1..2 * N + 1);
    let grown = LIVE.load(Ordering::Relaxed) - warm;
    assert!(
        shared.metrics().evictions >= 2 * N - 100,
        "every compile evicts"
    );
    assert!(
        grown <= 4096,
        "{grown} bytes more live after {N} more compiles: something grows per compile"
    );
}
