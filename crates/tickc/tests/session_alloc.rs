//! A ratchet on what `Session::new` costs the allocator.
//!
//! The static half of the pipeline — lex, parse, sema, lowering, the
//! mid-level optimizer, ICODE's compile of every static function and
//! the linker — runs once per session, before any dynamic code exists.
//! Its cost was allocation churn more than algorithms: SipHash tables
//! keyed by dense vreg ids, a clone of every function body, an
//! allocation per token clone and per scope. The gate is the exact
//! allocator call count (`alloc` + `realloc`) of `Session::new` over the
//! 14 suite programs in a row, on one thread, memo off, 2 MiB of data
//! memory each: not a clock.
//!
//! When the count falls, lower [`SESSION_NEW_ALLOCATIONS`] to it; a rise
//! means an allocation crept into the static pipeline (the failure
//! message prints the per-program counts).
//!
//! This file is its own test binary because it installs a counting
//! `#[global_allocator]`; it holds a single test so no other test's
//! allocations run beside it, and it counts only on the thread that
//! asked.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tcc::{Config, Session};
use tcc_suite::{benchmarks, BLUR_SMALL};

struct Counting;

thread_local! {
    /// `Some(n)` while this thread is counting.
    static CALLS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = CALLS.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: defers every operation to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls (`alloc` + `realloc`) `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    CALLS.with(|c| c.set(Some(0)));
    let r = f();
    let n = CALLS.with(|c| c.replace(None)).expect("still counting");
    (r, n)
}

/// Allocator calls of the 14 `Session::new`s. It was 19,859 before the
/// static pipeline kept dense per-vreg tables, shared types instead of
/// cloning them, stopped cloning function bodies and tokens, and kept
/// its working storage from one image to the next.
const SESSION_NEW_ALLOCATIONS: u64 = 6_338;

#[test]
fn session_new_allocations_stay_at_or_below_the_committed_count() {
    let config = Config {
        cache: false,
        mem_size: 2 << 20,
        ..Config::default()
    };
    let mut per_program = Vec::new();
    let mut total = 0;
    for bench in benchmarks(BLUR_SMALL) {
        let (s, n) = allocations(|| Session::new(bench.src, config.clone()));
        drop(s.expect("suite program compiles"));
        per_program.push((bench.name, n));
        total += n;
    }
    assert!(
        total <= SESSION_NEW_ALLOCATIONS,
        "Session::new over the suite made {total} allocator calls, \
         more than the committed {SESSION_NEW_ALLOCATIONS}: {per_program:?}"
    );
    if total < SESSION_NEW_ALLOCATIONS {
        eprintln!(
            "Session::new made {total} allocator calls: lower \
             SESSION_NEW_ALLOCATIONS to {total}"
        );
    }
}
