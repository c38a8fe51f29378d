//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. closure **arena** allocation vs the general allocator (§4.2);
//! 2. the **pruned ICODE translator** vs the full cross-product table
//!    (§5.2 link-time analysis) — size and compile-time effect;
//! 3. VCODE **unchecked mode** (per-operand spill checks disabled, §5.1);
//! 4. the **cspec-first operand order** heuristic (§5.1, Figure 2).
//!
//! Run with: `cargo bench -p tcc-bench --bench ablations`

use criterion::{criterion_group, criterion_main, Criterion};
use tcc::{Backend, Config, Session, Strategy};
use tcc_bench::iter_chunked;
use tcc_icode::TranslatorTable;

const CLOSURE_HEAVY: &str = r#"
long spec_many(int n) {
    int i;
    long last = 0;
    for (i = 0; i < n; i++) {
        int cspec c = `($i + 1);
        last = (long)c;
    }
    return last;
}
"#;

fn bench_arena(c: &mut Criterion) {
    // Specification time in VM cycles is the paper-relevant number
    // (closure allocation is inline VM code + one host call).
    for (name, use_arena) in [("arena", true), ("general_alloc", false)] {
        let mut s = Session::with_defaults(CLOSURE_HEAVY).expect("compiles");
        s.vm.host_mut().use_arena = use_arena;
        s.reset_counters();
        s.call("spec_many", &[200]).expect("runs");
        eprintln!("  {name}: {} VM cycles for 200 closures", s.cycles());
    }
    // Wall-clock comparison with a fresh session per iteration so
    // closures never accumulate past the data memory.
    let mut g = c.benchmark_group("closure_allocation");
    g.sample_size(10);
    for (name, use_arena) in [("arena", true), ("general_alloc", false)] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut s = Session::with_defaults(CLOSURE_HEAVY).expect("compiles");
                    s.vm.host_mut().use_arena = use_arena;
                    s
                },
                |mut s| s.call("spec_many", &[200]).expect("runs"),
                criterion::BatchSize::PerIteration,
            );
        });
    }
    g.finish();
}

const ICODE_WORK: &str = r#"
int buf[128];
long go(int a) {
    int vspec i = local(int);
    int vspec s = local(int);
    void cspec c = `{
        s = 0;
        for (i = 0; i < 128; i++) s = s + buf[i] * $a;
        return s;
    };
    return (long)compile(c, int);
}
"#;

fn bench_pruned_translator(c: &mut Criterion) {
    let full = TranslatorTable::full();
    // Run the "link-time" analysis: observe the ICODE instructions this
    // program's CGFs emit, then build the customized back end.
    let config = Config {
        backend: Backend::Icode {
            strategy: Strategy::LinearScan,
        },
        ..Config::default()
    };
    let mut probe = Session::new(ICODE_WORK, config.clone()).expect("compiles");
    probe.call("go", &[3]).expect("runs");
    let pruned = probe.vm.host().observed_keys;
    eprintln!(
        "  translator size: full {} entries (~{} insns) -> pruned {} entries (~{} insns), {:.1}x smaller",
        full.entries(),
        full.nominal_size(),
        pruned.entries(),
        pruned.nominal_size(),
        full.entries() as f64 / pruned.entries().max(1) as f64
    );
    let mut g = c.benchmark_group("translator_table");
    for (name, table) in [("full", None), ("pruned", Some(pruned))] {
        let config = config.clone();
        g.bench_function(name, |b| {
            iter_chunked(
                b,
                4096,
                || {
                    let mut s = Session::new(ICODE_WORK, config.clone()).expect("compiles");
                    s.vm.host_mut().set_table(table);
                    s
                },
                |s| {
                    s.call("go", &[3]).expect("runs");
                },
            );
        });
    }
    g.finish();
}

fn bench_unchecked_vcode(c: &mut Criterion) {
    let mut g = c.benchmark_group("vcode_spill_checks");
    for (name, unchecked) in [("checked", false), ("unchecked", true)] {
        let config = Config {
            backend: Backend::Vcode { unchecked },
            ..Config::default()
        };
        g.bench_function(name, |b| {
            iter_chunked(
                b,
                4096,
                || Session::new(ICODE_WORK, config.clone()).expect("compiles"),
                |s| {
                    s.call("go", &[3]).expect("runs");
                },
            );
        });
    }
    g.finish();
}

const PRESSURE: &str = r#"
int gx;
long go(int a) {
    gx = a;
    int cspec c = `(gx + 1);
    int i;
    /* Figure 2: the cspec is the RIGHT operand, so naive left-to-right
       evaluation loads gx into a fresh temporary and holds it across
       every nested CGF call — one extra live register per level. */
    for (i = 0; i < 30; i++) c = `(gx + c);
    void cspec f = `{ return c; };
    return (long)compile(f, int);
}
int run_it(long fp) { int (*g)(void) = (int (*)(void))fp; return (*g)(); }
"#;

fn bench_cspec_first_heuristic(c: &mut Criterion) {
    // Measures generated-code quality (VM cycles), not codegen time:
    // the §5.1 operand-order heuristic exists to reduce spills.
    eprintln!("  cspec-first operand heuristic (generated code quality):");
    for (name, on) in [("cspec_first", true), ("naive_order", false)] {
        let mut s = Session::with_defaults(PRESSURE).expect("compiles");
        s.vm.host_mut().cspec_first = on;
        let fp = s.call("go", &[5]).expect("compiles dynamically");
        s.reset_counters();
        let v = s.call("run_it", &[fp]).expect("runs");
        assert_eq!(v as i64, 5 + 1 + 30 * 5);
        eprintln!(
            "    {name}: {} cycles, {} instructions generated",
            s.cycles(),
            s.dyn_stats().generated_insns
        );
    }
    // Keep criterion happy with a tiny timing group as well.
    let mut g = c.benchmark_group("cspec_first");
    for (name, on) in [("on", true), ("off", false)] {
        g.bench_function(name, |b| {
            iter_chunked(
                b,
                512,
                || {
                    let mut s = Session::with_defaults(PRESSURE).expect("compiles");
                    s.vm.host_mut().cspec_first = on;
                    s
                },
                |s| {
                    s.call("go", &[5]).expect("runs");
                },
            );
        });
    }
    g.finish();
}

const UNROLL_SRC: &str = r#"
int row[32];
int col[32];
int n = 32;
void fill(void) {
    int i;
    int seed = 7;
    for (i = 0; i < n; i++) {
        seed = seed * 1103515245 + 12345;
        row[i] = (seed >> 16) & 1 ? ((seed >> 18) & 15) + 1 : 0;
        col[i] = i + 1;
    }
}
long go(void) {
    /* NOTE: no $-indexing by the loop variable here — `$row[k]` is only
       meaningful when the loop unrolls (k must be a derived run-time
       constant), and this ablation must be valid with unrolling off. */
    void cspec c = `{
        int k;
        int sum;
        sum = 0;
        for (k = 0; k < $n; k++)
            sum = sum + col[k] * row[k];
        return sum;
    };
    return (long)compile(c, int);
}
int run_it(long fp) { int (*g)(void) = (int (*)(void))fp; return (*g)(); }

/* The full §4.4 treatment: unrolling plus $-hardwired row values and
   dead code elimination of zero entries (only legal when unrolled). */
long go_hardwired(void) {
    void cspec c = `{
        int k;
        int sum;
        sum = 0;
        for (k = 0; k < $n; k++)
            if ($row[k])
                sum = sum + col[k] * $row[k];
        return sum;
    };
    return (long)compile(c, int);
}
"#;

fn bench_unrolling(c: &mut Criterion) {
    // §4.4 dynamic loop unrolling: the headline partial evaluation.
    eprintln!("  dynamic loop unrolling ablation (generated code quality):");
    let mut results = Vec::new();
    for (name, on) in [("unrolled", true), ("loop_kept", false)] {
        let mut s = Session::with_defaults(UNROLL_SRC).expect("compiles");
        s.vm.host_mut().enable_unroll = on;
        s.call("fill", &[]).expect("setup");
        let fp = s.call("go", &[]).expect("dynamic compile");
        s.reset_counters();
        let v = s.call("run_it", &[fp]).expect("runs");
        results.push(v);
        eprintln!(
            "    {name}: {} cycles/run, {} instructions generated",
            s.cycles(),
            s.dyn_stats().generated_insns
        );
    }
    assert_eq!(results[0], results[1], "unrolling must not change results");
    // The full partial evaluation: unroll + hardwire + dead-code-eliminate.
    {
        let mut s = Session::with_defaults(UNROLL_SRC).expect("compiles");
        s.call("fill", &[]).expect("setup");
        let fp = s.call("go_hardwired", &[]).expect("dynamic compile");
        s.reset_counters();
        let v = s.call("run_it", &[fp]).expect("runs");
        assert_eq!(v, results[0], "hardwired variant must agree");
        eprintln!(
            "    unrolled+hardwired: {} cycles/run, {} instructions generated \
             (the paper's dp treatment: zero entries eliminated, values immediate)",
            s.cycles(),
            s.dyn_stats().generated_insns
        );
    }
    let mut g = c.benchmark_group("dynamic_unrolling");
    for (name, on) in [("on", true), ("off", false)] {
        g.bench_function(name, |b| {
            iter_chunked(
                b,
                1024,
                || {
                    let mut s = Session::with_defaults(UNROLL_SRC).expect("compiles");
                    s.vm.host_mut().enable_unroll = on;
                    s.call("fill", &[]).expect("setup");
                    s
                },
                |s| {
                    s.call("go", &[]).expect("compiles");
                },
            );
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_arena,
    bench_pruned_translator,
    bench_unchecked_vcode,
    bench_cspec_first_heuristic,
    bench_unrolling
);
criterion_main!(benches);
