//! Criterion benches of the two ICODE register allocators in isolation —
//! the Figure 3 linear scan vs the Chaitin-style baseline — across
//! program sizes, plus the O(I·R) scaling claim.
//!
//! Run with: `cargo bench -p tcc-bench --bench regalloc`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcc_icode::{IcodeBuf, IcodeCompiler, Strategy};
use tcc_rt::ValKind;
use tcc_vcode::ops::BinOp;
use tcc_vcode::CodeSink;
use tcc_vm::CodeSpace;

/// Builds a deterministic random program with `n` operations over a
/// sliding window of live values (register pressure ~window).
fn random_program(n: usize, window: usize, seed: u64) -> IcodeBuf {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = IcodeBuf::new();
    let p0 = b.param(0, ValKind::W);
    let p1 = b.param(1, ValKind::W);
    let mut vals = vec![p0, p1];
    for _ in 0..n {
        let d = b.temp(ValKind::W);
        let i = vals.len() - rng.gen_range(1..=window.min(vals.len()));
        let j = vals.len() - rng.gen_range(1..=window.min(vals.len()));
        let op = [BinOp::Add, BinOp::Sub, BinOp::Xor, BinOp::Mul][rng.gen_range(0..4usize)];
        b.bin(op, ValKind::W, d, vals[i], vals[j]);
        vals.push(d);
    }
    // Keep the last `window` values live to the end.
    let acc = b.temp(ValKind::W);
    b.li(acc, 0);
    for &v in vals.iter().rev().take(window) {
        b.bin(BinOp::Add, ValKind::W, acc, acc, v);
    }
    b.ret_val(ValKind::W, acc);
    b
}

fn bench_allocators(c: &mut Criterion) {
    let mut g = c.benchmark_group("register_allocation");
    for &n in &[50usize, 200, 800] {
        for &window in &[6usize, 24] {
            for (name, strategy) in [
                ("linear_scan", Strategy::LinearScan),
                ("graph_color", Strategy::GraphColor),
            ] {
                let id = BenchmarkId::new(name, format!("n{n}_w{window}"));
                g.bench_with_input(id, &(), |bch, ()| {
                    bch.iter_with_large_drop(|| {
                        let mut buf = random_program(n, window, 42);
                        let mut code = CodeSpace::new();
                        let mut comp = IcodeCompiler::new(strategy);
                        comp.run_peephole = false;
                        comp.compile(&mut code, "p", &mut buf)
                    });
                });
            }
        }
    }
    g.finish();

    // Print the per-phase story once for the record.
    for (name, strategy) in [
        ("linear_scan", Strategy::LinearScan),
        ("graph_color", Strategy::GraphColor),
    ] {
        let mut buf = random_program(800, 24, 42);
        let mut code = CodeSpace::new();
        let mut comp = IcodeCompiler::new(strategy);
        comp.run_peephole = false;
        let r = comp.compile(&mut code, "p", &mut buf);
        eprintln!(
            "  {name}: alloc {} ns over {} intervals, {} spills, alloc fraction {:.0}%",
            r.phases.alloc_ns,
            r.intervals,
            r.spills,
            r.phases.alloc_fraction() * 100.0
        );
    }
}

criterion_group!(benches, bench_allocators);
criterion_main!(benches);
