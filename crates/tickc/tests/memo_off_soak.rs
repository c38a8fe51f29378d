//! A session with the memo off frees nothing it compiles, and costs the
//! host what `Config::cache`'s doc says per compile: its registry entry
//! on the heap, and 8 bytes per code word (word and owner index)
//! committed in the code space's reservation — nothing else.
//!
//! One `cache: false` session compiles `mk(m)` for N distinct `m`, then
//! N more. Over the second N, bytes live on the heap (a counting
//! `#[global_allocator]`) grow by no more than the registry's capacity
//! did, and the code space's committed bytes by its words, to a commit
//! step.
//!
//! This file is its own test binary because it installs that allocator;
//! it holds a single test so no other test's allocations run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use tcc::{Config, Session};
use tcc_vm::COMMIT_BYTES;

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

/// A registry entry, as `Config::cache`'s doc states it (64-bit hosts).
const REGISTRY_ENTRY: u64 = 56;

/// Compiles `mk(m)` for each `m` in `ms`; the result is not called, so
/// nothing is translated.
fn compile(s: &mut Session, ms: std::ops::Range<u64>) {
    for m in ms {
        s.call("mk", &[m]).expect("compiles");
    }
}

#[test]
fn twenty_thousand_more_memo_off_compiles_cost_their_registry_entries_and_words() {
    let mut s = Session::new(
        SRC,
        Config {
            cache: false,
            ..Config::default()
        },
    )
    .expect("compiles");
    const N: u64 = 20_000;
    compile(&mut s, 1..N + 1);
    // Every function is still there, and runs.
    let f = s.call("mk", &[7]).expect("compiles");
    assert_eq!(s.call_addr(f, &[2]).expect("runs"), 21);
    let (warm, before) = (LIVE.load(Ordering::Relaxed), s.metrics().memory);
    let live_before = s.vm.state().code.stats().live_words;

    compile(&mut s, N + 1..2 * N + 1);
    let grown = LIVE.load(Ordering::Relaxed) - warm;
    let after = s.metrics().memory;
    let stats = s.vm.state().code.stats();
    assert_eq!(stats.reclaimed_words, 0, "the memo off frees nothing");
    assert_eq!(stats.live_words, stats.total_words - stats.free_words);

    // The heap: the registry and nothing else.
    let registry = after.code_registry_bytes - before.code_registry_bytes;
    assert!(
        grown as u64 <= registry + 4096,
        "{grown} bytes more live over {N} compiles, of which the registry grew {registry}"
    );
    // Its vector is never more than twice what its entries fill.
    let functions = 2 * N + 2;
    assert!(
        after.code_registry_bytes <= 2 * REGISTRY_ENTRY * functions,
        "{} registry bytes for {functions} functions",
        after.code_registry_bytes
    );

    // The code space: 8 bytes a word, committed to within a step.
    let words = (stats.live_words - live_before) as u64;
    assert_eq!(
        after.code_words_bytes - before.code_words_bytes,
        4 * words,
        "every word emitted is live"
    );
    let committed = (after.code_words_committed_bytes + after.code_owner_committed_bytes)
        - (before.code_words_committed_bytes + before.code_owner_committed_bytes);
    assert!(
        committed.abs_diff(8 * words) <= 2 * COMMIT_BYTES as u64,
        "{committed} bytes committed for {words} words"
    );
    assert!(words >= 10 * N, "{words} words over {N} compiles");
}
