//! Table 1 micro-benchmarks: code generation overhead per generated
//! instruction in the paper's four extreme cases — {one large cspec,
//! many small cspecs} × {dynamic locals, free variables}; and Figure 7's
//! size sweep of the two register allocators in isolation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcc::{Backend, Config, Session};
use tcc_icode::{IcodeBuf, IcodeCompiler, Strategy};
use tcc_mir::OptLevel;
use tcc_rt::ValKind;
use tcc_vcode::ops::BinOp;
use tcc_vcode::CodeSink;
use tcc_vm::CodeSpace;

/// One Table 1 row.
#[derive(Clone, Debug)]
pub struct MicroCase {
    /// Row label (paper's wording).
    pub label: &'static str,
    /// Generated `C source.
    pub src: String,
}

/// Builds the four Table 1 cases. `large_stmts` controls the size of the
/// "one large cspec" bodies (~4 instructions per statement; the paper
/// used ≈1000 instructions) and `compositions` the number of
/// self-compositions for the small-cspec cases (paper: 100).
pub fn table1_cases(large_stmts: usize, compositions: usize) -> Vec<MicroCase> {
    vec![
        MicroCase {
            label: "One large cspec, dynamic locals",
            src: large_cspec_src(large_stmts, false),
        },
        MicroCase {
            label: "One large cspec, free variables",
            src: large_cspec_src(large_stmts, true),
        },
        MicroCase {
            label: "Many small cspecs, dynamic locals",
            src: small_cspecs_src(compositions, false),
        },
        MicroCase {
            label: "Many small cspecs, free variables",
            src: small_cspecs_src(compositions, true),
        },
    ]
}

/// A single tick expression whose body is a long chain of statements.
fn large_cspec_src(stmts: usize, free_vars: bool) -> String {
    let mut body = String::new();
    for i in 0..stmts {
        // alternate the accumulators so the chain isn't trivially foldable
        let (d, s1) = if i % 2 == 0 { ("a", "b") } else { ("b", "a") };
        body.push_str(&format!("        {d} = {d} * 3 + {s1} + {};\n", i % 7 + 1));
    }
    if free_vars {
        format!(
            r#"
long micro_compile(void) {{
    int a = 1;
    int b = 2;
    void cspec c = `{{
{body}        return a + b;
    }};
    return (long)compile(c, int);
}}
"#
        )
    } else {
        format!(
            r#"
long micro_compile(void) {{
    void cspec c = `{{
        int a;
        int b;
        a = 1;
        b = 2;
{body}        return a + b;
    }};
    return (long)compile(c, int);
}}
"#
        )
    }
}

/// A small cspec (one composition + one addition) composed `n` times
/// with itself.
fn small_cspecs_src(n: usize, free_vars: bool) -> String {
    if free_vars {
        format!(
            r#"
long micro_compile(void) {{
    int x = 1;
    int cspec c = `(x + 1);
    int i;
    for (i = 0; i < {n}; i++) c = `(c + x + 1);
    return (long)compile(c, int);
}}
"#
        )
    } else {
        format!(
            r#"
long micro_compile(void) {{
    int vspec x = local(int);
    int cspec c = `(x + 1);
    int i;
    for (i = 0; i < {n}; i++) c = `(c + x + 1);
    return (long)compile(c, int);
}}
"#
        )
    }
}

/// Measured overheads for one case and back end.
#[derive(Clone, Copy, Debug)]
pub struct MicroResult {
    /// Nanoseconds of codegen per generated instruction.
    pub ns_per_insn: f64,
    /// Calibrated cycles per generated instruction.
    pub cycles_per_insn: f64,
    /// Generated instructions per compile.
    pub insns: f64,
}

/// Table 1's back-end configurations, under the keys
/// `BENCH_table1.json` uses: VCODE checked and unchecked, ICODE with
/// linear scan and with graph coloring. The text table prints the first
/// and the third.
pub const TABLE1_BACKENDS: [(&str, Backend); 4] = [
    ("vcode", Backend::Vcode { unchecked: false }),
    ("vcode_unchecked", Backend::Vcode { unchecked: true }),
    (
        "icode_linear_scan",
        Backend::Icode {
            strategy: Strategy::LinearScan,
        },
    ),
    (
        "icode_graph_color",
        Backend::Icode {
            strategy: Strategy::GraphColor,
        },
    ),
];

/// One measured Table 1 row: a case on each of [`TABLE1_BACKENDS`], in
/// that order.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Row label (paper's wording).
    pub label: &'static str,
    /// One result per entry of [`TABLE1_BACKENDS`].
    pub results: [MicroResult; 4],
}

/// Measures Table 1 once — every case of
/// [`table1_cases`]`(large_stmts, compositions)` on every back end — for
/// the text table and the JSON document to render alike.
pub fn measure_table1(
    ns_per_cycle: f64,
    large_stmts: usize,
    compositions: usize,
) -> Vec<Table1Row> {
    table1_cases(large_stmts, compositions)
        .iter()
        .map(|case| Table1Row {
            label: case.label,
            results: TABLE1_BACKENDS
                .map(|(_, backend)| measure_micro_backend(case, backend, ns_per_cycle)),
        })
        .collect()
}

/// Measures codegen cost per generated instruction for a case on one
/// runtime [`Backend`] configuration.
pub fn measure_micro_backend(case: &MicroCase, backend: Backend, ns_per_cycle: f64) -> MicroResult {
    let config = Config {
        static_opt: OptLevel::Optimizing,
        backend,
        // Memo off, so each rep compiles (Table 1 is compile cost; with
        // the memo on, every rep after the first is a hit).
        cache: false,
        ..Config::default()
    };
    let mut s = Session::new(&case.src, config)
        .unwrap_or_else(|e| panic!("micro case failed to compile: {e}"));
    let reps = 10;
    for _ in 0..reps {
        s.call("micro_compile", &[]).expect("compiles");
    }
    let st = s.dyn_stats();
    let ns = st.total_ns as f64 / st.compiles as f64;
    let insns = st.generated_insns as f64 / st.compiles as f64;
    MicroResult {
        ns_per_insn: ns / insns.max(1.0),
        cycles_per_insn: ns / insns.max(1.0) / ns_per_cycle,
        insns,
    }
}

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

/// One cell of the allocator size sweep.
#[derive(Clone, Copy, Debug)]
pub struct AllocCell {
    /// Random operations in the program.
    pub n: usize,
    /// Live-value window (register pressure).
    pub window: usize,
    /// The allocator.
    pub strategy: Strategy,
    /// IR instructions compiled.
    pub ir_insns: usize,
    /// Allocation-phase ns per IR instruction, best of five compiles.
    pub alloc_ns_per_ir: f64,
    /// Live intervals.
    pub intervals: usize,
    /// Spilled intervals.
    pub spills: u32,
}

/// `random_program(n, window, 42)` for n ∈ {50, 200, 800} × window
/// ∈ {6, 24}, compiled with the peephole stage off by each allocator.
pub fn alloc_sweep() -> Vec<AllocCell> {
    let mut cells = Vec::new();
    for n in [50, 200, 800] {
        for window in [6, 24] {
            for strategy in [Strategy::LinearScan, Strategy::GraphColor] {
                let mut comp = IcodeCompiler::new(strategy);
                comp.run_peephole = false;
                let r = (0..5)
                    .map(|_| {
                        let mut buf = random_program(n, window, 42);
                        comp.compile(&mut CodeSpace::new(), "p", &mut buf)
                            .expect("the full translator table covers every instruction")
                    })
                    .min_by_key(|r| r.phases.alloc_ns)
                    .expect("five compiles");
                cells.push(AllocCell {
                    n,
                    window,
                    strategy,
                    ir_insns: r.ir_len,
                    alloc_ns_per_ir: r.phases.alloc_ns as f64 / r.ir_len as f64,
                    intervals: r.intervals,
                    spills: r.spills,
                });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::DynBackend;

    #[test]
    fn micro_sources_compile_and_run() {
        let cases = table1_cases(50, 10);
        // The two large-cspec variants compute the same statement chain
        // on (a=1, b=2); verify the value. The small-composition
        // variants read an uninitialized vspec by design (the paper's
        // composition stress test); just verify they compile and run.
        let expect = {
            let (mut a, mut b) = (1i32, 2i32);
            for i in 0..50 {
                if i % 2 == 0 {
                    a = a.wrapping_mul(3).wrapping_add(b).wrapping_add(i % 7 + 1);
                } else {
                    b = b.wrapping_mul(3).wrapping_add(a).wrapping_add(i % 7 + 1);
                }
            }
            a.wrapping_add(b)
        };
        for (ci, case) in cases.iter().enumerate() {
            for b in [DynBackend::Vcode, DynBackend::IcodeLinear] {
                let config = Config {
                    backend: b.backend(),
                    ..Config::default()
                };
                let mut s = Session::new(&case.src, config).expect("compiles");
                let fp = s.call("micro_compile", &[]).expect("runs");
                let v = s.call_addr(fp, &[]).expect("generated code runs");
                if ci < 2 {
                    assert_eq!(v as i64, expect as i64, "{} / {}", case.label, b.name());
                }
            }
        }
    }

    #[test]
    fn small_composition_chains_work() {
        // c composed n times: value = (x+1) + n*(x+1) with x = 5? No:
        // c0 = x+1; c_{k} = c_{k-1} + x + 1. With x bound at run time.
        let case = &table1_cases(10, 25)[2]; // dynamic locals variant
        let mut s = Session::with_defaults(&case.src).expect("compiles");
        let fp = s.call("micro_compile", &[]).expect("compile runs");
        let v = s.call_addr(fp, &[7]).expect("generated code runs");
        // x is param-like? No: vspec local, uninitialized. The dynamic
        // local variant returns garbage-based math; just check it runs.
        let _ = v;
    }
}
