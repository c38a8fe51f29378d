//! The steady-state compile allocates nothing of its own.
//!
//! One `IcodeCompiler`, kept across compiles, owns every phase's working
//! storage; from the second compile of a buffer on, the only heap
//! traffic left is what installing a function costs. The gate is the
//! allocator call count — exact and repeatable — not wall-clock.
//!
//! This file is its own test binary because it installs a counting
//! `#[global_allocator]`; it holds a single test so no other test's
//! allocations run beside it, and it counts only on the thread that
//! asked.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tcc_icode::{IcodeBuf, IcodeCompiler, Strategy};
use tcc_rt::ValKind;
use tcc_vcode::ops::BinOp;
use tcc_vcode::CodeSink;
use tcc_vm::{CodeSpace, Vm};

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

/// `pow`-shaped: a parameter raised to a fixed power by an unrolled
/// multiply chain — 18 IR instructions, one block, no labels.
fn pow_like() -> IcodeBuf {
    let mut b = IcodeBuf::new();
    let x = b.param(0, ValKind::W);
    let acc = b.temp(ValKind::W);
    b.li(acc, 1);
    for _ in 0..15 {
        b.bin(BinOp::Mul, ValKind::W, acc, acc, x);
    }
    b.ret_val(ValKind::W, acc);
    assert_eq!(b.insns.len(), 18);
    b
}

/// `binary`-shaped: a binary search over sorted keys unrolled into a
/// tree of compare-and-branch — 260 IR instructions, one forward label
/// per inner node, one `ret` per leaf.
fn binary_like() -> IcodeBuf {
    fn search(b: &mut IcodeBuf, x: tcc_icode::VReg, lo: i64, hi: i64) {
        if lo == hi {
            let r = b.temp(ValKind::W);
            b.li(r, lo);
            b.ret_val(ValKind::W, r);
            return;
        }
        let mid = (lo + hi) / 2;
        let key = b.temp(ValKind::W);
        let left = b.label();
        b.li(key, 10 * mid + 5);
        b.br_cmp(BinOp::Le, ValKind::W, x, key, left);
        search(b, x, mid + 1, hi);
        b.bind(left);
        search(b, x, lo, mid);
    }
    let mut b = IcodeBuf::new();
    let x = b.param(0, ValKind::W);
    b.loop_begin();
    b.loop_end();
    search(&mut b, x, 0, 51);
    assert_eq!(b.insns.len(), 260);
    b
}

/// What installing one function costs, whoever generates it — the
/// allocator calls of a steady-state compile: none. The function's name
/// (`CodeSpace::begin_function` keeps a `String` for disassembly) is
/// written into the freed registry slot the function reuses, whose
/// `String` already has the room.
///
/// Sealing allocates nothing: the owner index is written in place, and a
/// function relocated into a freed range is rewritten there directly.
///
/// The one-pass emitter underneath — its register manager's free lists,
/// the assembler's label table and forward-reference list — is part of
/// the compiler's kept storage like every phase's, so neither its
/// start-up nor its growth with the function's labels shows from the
/// second compile of a shape on. The installed words themselves extend
/// the code space's word array and its owner index in place; the test
/// frees each function, so the next reuses its range and neither grows.
const INSTALL_ALLOCATIONS: u64 = 0;

/// On top of that, a compile may be the one that doubles a vector the
/// *code space* keeps for its whole life: the function registry (one
/// entry per function ever begun) and, the first time a function is
/// freed, the free list.
const CODE_SPACE_GROWTH: u64 = 2;

#[test]
fn second_and_later_compiles_allocate_only_the_installed_function() {
    for strategy in [Strategy::LinearScan, Strategy::GraphColor] {
        let mut compiler = IcodeCompiler::new(strategy);
        let mut code = CodeSpace::new();
        let mut buf = IcodeBuf::new();
        for (template, arg, expect, pinned) in [
            (pow_like(), 2u64, 1 << 15, INSTALL_ALLOCATIONS),
            (binary_like(), 237, 24, INSTALL_ALLOCATIONS),
        ] {
            let mut counts = Vec::new();
            for round in 0..8 {
                buf.clone_from(&template);
                let (r, n) = allocations(|| compiler.compile(&mut code, "f", &mut buf));
                let r = r.expect("full table");
                counts.push(n);
                if round == 0 {
                    // The code is real: run it once.
                    let mut vm = Vm::new(code.clone(), 1 << 16);
                    assert_eq!(vm.call(r.func.addr, &[arg]).expect("runs"), expect);
                }
                code.free_function(r.func.handle).expect("sealed");
            }
            let ir = template.insns.len();
            // The first compile of a shape sizes the compiler's buffers;
            // every later one finds them. The typical later compile makes
            // the pinned calls and no more; none exceeds them by more than
            // the code space's own growth.
            let mut later = counts[1..].to_vec();
            later.sort_unstable();
            assert!(
                later[later.len() / 2] <= pinned
                    && later[later.len() - 1] <= pinned + CODE_SPACE_GROWTH,
                "{strategy:?}, {ir} IR: allocator calls per compile {counts:?}, pinned {pinned}"
            );
        }
    }
}
