//! A steady-state dynamic compile allocates nothing of its own.
//!
//! The runtime keeps everything a compile works in: the CGF plans (built
//! by a tick's first instantiation), the walker's frames and maps,
//! VCODE's register and label tables, ICODE's phases. From the second
//! compile of a program on, the heap traffic left is the code space
//! growing — and that is the session's, amortized over every function it
//! will ever hold. The gate is the allocator call count of a whole
//! `compile_dyn` operation (the `Session::call` that builds the closure
//! and reaches `compile`), exact and repeatable, not a clock.
//!
//! This file is its own test binary because it installs a counting
//! `#[global_allocator]`; it holds a single test so no other test's
//! allocations run beside it, and it counts only on the thread that
//! asked.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tcc::{Backend, Config, ExecEngine, Session, Strategy};
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

/// What the compile itself allocates once the session has compiled the
/// program before: nothing — not per closure, per loop lowered, per
/// place built, per call emitted, nor per unrolled iteration.
const COMPILE_ALLOCATIONS: u64 = 0;

/// What a compile may trip in the *code space*, which keeps these for
/// the session's whole life (`Config { cache: false }` never frees, so
/// every compile adds a function):
///
/// * 1: the function registry doubling (`CodeSpace::begin_function`),
///   once per doubling, so the typical compile sees none.
///
/// The word array and its parallel owner index make no allocator call:
/// they grow in place, committing pages of one reservation
/// (`CodeSpace::push`).
const CODE_SPACE_GROWTH: u64 = 1;

/// A tick whose unrolled trip count (`n`) and whose body size (`big`)
/// are the caller's; every iteration emits loads, stores and a call.
const SIZED_SRC: &str = r#"
int acc[64];
int twice(int x) { return 2 * x; }
long mk(int n, int big) {
    void cspec c = `{
        int k;
        for (k = 0; k < $n; k++) {
            acc[k & 63] = acc[k & 63] * $k + twice(k);
            if ($big) {
                acc[(k + 1) & 63] += acc[k & 63] * 3 + $k;
                acc[(k + 2) & 63] -= acc[k & 63] * 5 + $k;
                acc[(k + 3) & 63] ^= twice(acc[k & 63] * 7 + $k);
            }
        }
    };
    return (long)compile(c, void);
}
"#;

/// Steady-state allocator calls of `compile`, repeated on one session.
fn steady_counts(s: &mut Session, mut compile: impl FnMut(&mut Session)) -> Vec<u64> {
    for _ in 0..4 {
        compile(s);
    }
    let mut counts: Vec<u64> = (0..24).map(|_| allocations(|| compile(s)).1).collect();
    counts.sort_unstable();
    counts
}

fn assert_steady(what: &str, counts: &[u64]) {
    let (median, max) = (counts[counts.len() / 2], counts[counts.len() - 1]);
    assert!(
        median == COMPILE_ALLOCATIONS && max <= COMPILE_ALLOCATIONS + CODE_SPACE_GROWTH,
        "{what}: allocator calls per steady-state compile {counts:?}"
    );
}

#[test]
fn second_and_later_compiles_allocate_only_code_space_growth() {
    let strategy = Strategy::LinearScan;
    for backend in [
        Backend::Vcode { unchecked: false },
        Backend::Icode { strategy },
    ] {
        let config = || Config {
            backend: backend.clone(),
            cache: false,
            // The reference interpreter: no tier promotion of the static
            // `*_compile` function lands inside a counted operation.
            engine: Some(ExecEngine::DecodePerStep),
            ..Config::default()
        };
        for bench in benchmarks(BLUR_SMALL) {
            if !matches!(bench.name, "ms" | "dp" | "blur") {
                continue;
            }
            let mut s = Session::new(bench.src, config()).expect("suite program compiles");
            (bench.setup)(&mut s);
            let counts = steady_counts(&mut s, |s| {
                (bench.compile_dyn)(s);
            });
            assert_steady(&format!("{backend:?} {}", bench.name), &counts);
        }
        // The same count whatever the trip count and the body size.
        let mut sizes = Vec::new();
        for (n, big) in [(2, 0), (2, 1), (48, 0), (48, 1)] {
            let mut s = Session::new(SIZED_SRC, config()).expect("compiles");
            let counts = steady_counts(&mut s, |s| {
                s.call("mk", &[n, big]).expect("compiles dynamically");
            });
            assert_steady(&format!("{backend:?} n = {n}, big = {big}"), &counts);
            let d = s.dyn_stats();
            sizes.push(d.generated_insns / d.compiles);
        }
        assert!(
            sizes.windows(2).all(|w| w[0] < w[1]) && sizes[3] > 20 * sizes[0],
            "the four shapes should differ in size: {sizes:?} instructions"
        );
    }
}
