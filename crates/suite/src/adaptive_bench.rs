//! Adaptive-tiering calibration: total (translate + run) wall-clock as
//! a function of reuse count.
//!
//! The fixed engines bake in a bet: decode-per-step pays nothing up
//! front and the most per instruction; the fused engine pays one
//! decoding pass; the threaded engine pays a handler pass on top
//! before the first instruction retires. Which bet wins depends on how
//! often the function runs — exactly the paper's break-even economics,
//! applied to the VM's own translation layer. The adaptive engine is
//! supposed to get (close to) the best of the translated two by
//! running every function fused from its first entry and promoting it
//! to threaded once its run count crosses the threshold. This
//! experiment sweeps the reuse count like
//! `cache_bench` does: each timed region starts from a cold
//! translation cache (`set_engine` drops translations and tier state)
//! and executes the kernel `reuse` times, so the row captures the full
//! cold-to-hot trajectory — the price of the climb itself. Steady state
//! is not measured here: that is `vm.adaptive_ns_per_insn` against
//! `vm.threaded_ns_per_insn` on the repo benchmark's `exec_steady`
//! workload. This is a report, gated by nothing; the cross-engine
//! equivalence assert inside `compare` is the only thing in it that
//! can fail. Emitted as `BENCH_adaptive.json` by the suite binary; the
//! committed copy under `baselines/` is the record of the calibration
//! used to pick the default threshold (DESIGN.md §12).

use std::sync::OnceLock;
use std::time::Instant;

use crate::programs::{benchmarks, BenchDef, BLUR_SMALL};
use tcc::{Config, ExecEngine, Session};
use tcc_obs::json::Json;

/// Reuse counts swept (runs of the compiled kernel per cold start).
pub const ADAPTIVE_REUSE_SWEEP: [u64; 5] = [1, 2, 4, 8, 32];

/// Suite kernels included in the sweep (loop-heavy, dispatch-bound).
const SUITE_KERNELS: [&str; 3] = ["hash", "binary", "dp"];

/// Long-loop suite kernels: one run is tens of thousands of
/// instructions, so which tier the *loop* reaches inside its first run
/// decides the cell — the case the short kernels above cannot show and
/// the `exec_cold` benchmark workload is made of.
const LONG_KERNELS: [&str; 2] = ["ms", "heap"];

/// Reuse counts swept for the long-loop kernels (the `exec_cold` points).
pub const LONG_REUSE_SWEEP: [u64; 3] = [1, 2, 4];

/// Statement count of the synthetic straight-line kernel — long enough
/// that translating it is real work compared to executing it once,
/// which is where an up-front translation loses at reuse 1.
const STRAIGHT_STMTS: usize = 400;

/// Wall-clock target per (kernel, reuse, engine) cell, full mode.
const TARGET_NS: u64 = 40_000_000;

/// The engines compared per cell. The adaptive engine runs with its
/// shipping default (`ExecEngine::default()`); `adaptive-bg` is the
/// same threshold with the threaded build handed to the background
/// worker.
const ENGINES: [(&str, ExecEngine); 5] = [
    ("decode", ExecEngine::DecodePerStep),
    ("fused", ExecEngine::Predecoded { fuse: true }),
    ("threaded", ExecEngine::Threaded),
    (
        "adaptive",
        ExecEngine::Adaptive {
            thread_after: tcc::DEFAULT_THREAD_AFTER,
            background: false,
        },
    ),
    (
        "adaptive-bg",
        ExecEngine::Adaptive {
            thread_after: tcc::DEFAULT_THREAD_AFTER,
            background: true,
        },
    ),
];

/// One (kernel, reuse) cell: fastest observed cold-start wall-clock
/// per engine (min over reps — the noise-robust estimator).
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveBenchRow {
    /// Kernel name.
    pub kernel: &'static str,
    /// Runs of the compiled kernel per cold start.
    pub reuse: u64,
    /// Cold-start repetitions measured (the fastest is kept).
    pub reps: u64,
    /// Fastest cold start, ns: decode-per-step.
    pub decode_ns: u64,
    /// Fastest cold start, ns: predecoded + fused.
    pub fused_ns: u64,
    /// Fastest cold start, ns: direct-threaded.
    pub threaded_ns: u64,
    /// Fastest cold start, ns: adaptive tiering, default threshold.
    pub adaptive_ns: u64,
    /// Fastest cold start, ns: adaptive with the background worker.
    pub adaptive_bg_ns: u64,
    /// Tier levels gained by the adaptive engine across all its reps.
    pub promotions: u64,
    /// Instructions the synchronous adaptive engine retired at tiers
    /// 0, 1 and 2 over its cold reps — where the cell's time went, as
    /// opposed to where its entries landed.
    pub insns_tier: [u64; 3],
}

impl AdaptiveBenchRow {
    /// The cheapest fixed engine for this cell.
    pub fn best_fixed_ns(&self) -> u64 {
        self.decode_ns.min(self.fused_ns).min(self.threaded_ns)
    }

    /// Adaptive cost relative to the best fixed engine (1.0 = matched
    /// it; the calibration target is <= 1.05 at reuse >= 8).
    pub fn adaptive_vs_best(&self) -> f64 {
        self.adaptive_ns as f64 / self.best_fixed_ns().max(1) as f64
    }

    /// Share of the adaptive engine's cold-rep instructions that ran
    /// at tier 2 (`0.0` when nothing retired).
    pub fn top_tier_insn_share(&self) -> f64 {
        let [insns_tier0, insns_tier1, insns_tier2] = self.insns_tier;
        tcc_obs::AdaptiveMetrics {
            insns_tier0,
            insns_tier1,
            insns_tier2,
            ..Default::default()
        }
        .top_tier_insn_share()
    }

    /// Adaptive speedup over always-threaded (> 1.0 means deferring the
    /// handler pass won; expected below `thread_after` runs).
    pub fn speedup_vs_threaded(&self) -> f64 {
        self.threaded_ns as f64 / self.adaptive_ns.max(1) as f64
    }
}

fn straight_src() -> String {
    let mut body = String::new();
    for i in 0..STRAIGHT_STMTS {
        let (d, s) = if i % 2 == 0 { ("a", "b") } else { ("b", "a") };
        body.push_str(&format!("        {d} = {d} * 3 + {s} + {};\n", i % 7 + 1));
    }
    format!(
        r#"
int seed = 5;
long mk(void) {{
    void cspec c = `{{
        int a;
        int b;
        a = $seed;
        b = 2;
{body}        return a + b;
    }};
    return (long)compile(c, int);
}}
int runit(long fp) {{
    int (*g)(void) = (int (*)(void))fp;
    return (*g)();
}}
"#
    )
}

fn straight_setup(_s: &mut Session) {}

fn straight_static(_s: &mut Session) -> u64 {
    0
}

fn straight_compile(s: &mut Session) -> u64 {
    s.call("mk", &[]).expect("straight kernel compiles")
}

fn straight_run(s: &mut Session, fp: u64) -> u64 {
    s.call("runit", &[fp]).expect("straight kernel runs")
}

/// The synthetic straight-line kernel as a [`BenchDef`], so the drive
/// loop treats it exactly like the suite kernels.
fn straight_def() -> BenchDef {
    static SRC: OnceLock<String> = OnceLock::new();
    BenchDef {
        name: "straight",
        style: "synthetic straight-line chain (no loops)",
        src: SRC.get_or_init(straight_src),
        setup: straight_setup,
        run_static: straight_static,
        compile_dyn: straight_compile,
        run_dyn: straight_run,
        check: straight_static,
    }
}

/// A kernel's reuse counts: the full run's, and the smoke run's.
type Sweeps = (&'static [u64], &'static [u64]);

/// Short kernels cover the whole sweep; the smoke run samples it.
const SHORT_SWEEPS: Sweeps = (&ADAPTIVE_REUSE_SWEEP, &[1, 4]);

/// Long kernels stay at the cold end; their smoke cell is reuse 1.
const LONG_SWEEPS: Sweeps = (&LONG_REUSE_SWEEP, &[1]);

/// The kernels measured, each with the reuse counts it is swept over:
/// three short loop kernels and the straight-line synthetic across the
/// full sweep, two long-loop kernels at the cold end of it.
fn defs() -> Vec<(BenchDef, Sweeps)> {
    let all = benchmarks(BLUR_SMALL);
    let pick = |name: &&str| {
        all.iter()
            .find(|b| b.name == *name)
            .unwrap_or_else(|| panic!("no bench named {name}"))
            .clone()
    };
    let short = SUITE_KERNELS.iter().map(pick).chain([straight_def()]);
    let long = LONG_KERNELS.iter().map(pick);
    short
        .map(|b| (b, SHORT_SWEEPS))
        .chain(long.map(|b| (b, LONG_SWEEPS)))
        .collect()
}

struct Timed {
    ns: u64,
    checksum: u64,
    cycles: u64,
    insns: u64,
    promotions: u64,
    /// Instructions retired per tier.
    insns_tier: [u64; 3],
}

/// Times `reps` cold starts of `reuse` runs each and keeps the fastest
/// (the standard estimator for fixed work: noise only ever adds time).
/// `set_engine` before every timed region drops the translation cache
/// *and* the adaptive tier state, so each rep pays the engine's full
/// translate+run cost from scratch — the quantity the tiering
/// threshold trades off. The clock is read at the two ends of a rep and
/// nowhere inside it.
fn drive(b: &BenchDef, engine: ExecEngine, reuse: u64, reps: u64) -> Timed {
    let mut s = Session::new(b.src, Config::default()).expect("benchmark source compiles");
    s.vm.set_engine(engine);
    (b.setup)(&mut s);
    let fp = (b.compile_dyn)(&mut s);
    s.reset_counters();
    let mut checksum = 0u64;
    let mut best = u64::MAX;
    for _ in 0..reps {
        s.vm.set_engine(engine);
        let t = Instant::now();
        for _ in 0..reuse {
            checksum = checksum.wrapping_add((b.run_dyn)(&mut s, fp));
        }
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    let adaptive = s.metrics().adaptive;
    Timed {
        ns: best,
        checksum,
        cycles: s.cycles(),
        insns: s.insns(),
        promotions: adaptive.promotions,
        insns_tier: [
            adaptive.insns_tier0,
            adaptive.insns_tier1,
            adaptive.insns_tier2,
        ],
    }
}

/// Picks a rep count so one cell's timed region lands near `target_ns`
/// (probed on the decode engine, shared by every engine in the cell).
fn pick_reps(b: &BenchDef, reuse: u64, target_ns: u64) -> u64 {
    let probe = drive(b, ExecEngine::DecodePerStep, reuse, 1);
    (target_ns / probe.ns.max(1)).clamp(3, 1 << 14)
}

/// Runs one (kernel, reuse) cell through all engines, asserting the
/// observational-equivalence contract (checksums and modeled counters
/// identical across engines).
fn compare(b: &BenchDef, reuse: u64, reps: u64) -> AdaptiveBenchRow {
    let cells: Vec<Timed> = ENGINES
        .iter()
        .map(|&(_, e)| drive(b, e, reuse, reps))
        .collect();
    let reference = &cells[0];
    for ((label, _), t) in ENGINES.iter().zip(&cells).skip(1) {
        assert_eq!(
            (t.checksum, t.cycles, t.insns),
            (reference.checksum, reference.cycles, reference.insns),
            "{}: {label} engine diverges from decode-per-step at reuse {reuse}",
            b.name
        );
    }
    AdaptiveBenchRow {
        kernel: b.name,
        reuse,
        reps,
        decode_ns: cells[0].ns,
        fused_ns: cells[1].ns,
        threaded_ns: cells[2].ns,
        adaptive_ns: cells[3].ns,
        adaptive_bg_ns: cells[4].ns,
        promotions: cells[3].promotions,
        insns_tier: cells[3].insns_tier,
    }
}

/// Full run: the whole sweep at calibrated rep counts.
pub fn adaptive_bench() -> Vec<AdaptiveBenchRow> {
    let mut rows = Vec::new();
    for (b, (sweep, _)) in defs() {
        eprintln!("adaptive: measuring {}...", b.name);
        for &reuse in sweep {
            let reps = pick_reps(&b, reuse, TARGET_NS);
            rows.push(compare(&b, reuse, reps));
        }
    }
    rows
}

/// Smoke run: every cell at a few reps with the equivalence asserts
/// live. Timing numbers are not meaningful at this size.
pub fn adaptive_bench_smoke() -> Vec<AdaptiveBenchRow> {
    let mut rows = Vec::new();
    for (b, (_, smoke)) in defs() {
        for &reuse in smoke {
            rows.push(compare(&b, reuse, 2));
        }
    }
    rows
}

/// The sweep as JSON (`BENCH_adaptive.json`).
pub fn adaptive_json(rows: &[AdaptiveBenchRow]) -> Json {
    let rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("kernel", Json::from(r.kernel)),
                ("reuse", Json::from(r.reuse)),
                ("reps", Json::from(r.reps)),
                ("decode_ns", Json::from(r.decode_ns)),
                ("fused_ns", Json::from(r.fused_ns)),
                ("threaded_ns", Json::from(r.threaded_ns)),
                ("adaptive_ns", Json::from(r.adaptive_ns)),
                ("adaptive_bg_ns", Json::from(r.adaptive_bg_ns)),
                ("promotions", Json::from(r.promotions)),
                ("insns_tier0", Json::from(r.insns_tier[0])),
                ("insns_tier1", Json::from(r.insns_tier[1])),
                ("insns_tier2", Json::from(r.insns_tier[2])),
                ("top_tier_insn_share", Json::from(r.top_tier_insn_share())),
                ("best_fixed_ns", Json::from(r.best_fixed_ns())),
                ("adaptive_vs_best", Json::from(r.adaptive_vs_best())),
                ("speedup_vs_threaded", Json::from(r.speedup_vs_threaded())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::from("adaptive")),
        (
            "description",
            Json::from(
                "cold-start (translate + run) wall-clock vs reuse count per engine, \
                 fastest of `reps` cold starts; adaptive_vs_best is the adaptive \
                 engine's cost over the cheapest fixed engine for that cell; \
                 insns_tier0/1/2 are where the adaptive engine's instructions \
                 retired; adaptive_bg moves translation to the background worker",
            ),
        ),
        ("straight_stmts", Json::from(STRAIGHT_STMTS as u64)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Human-readable sweep table.
pub fn adaptive_report(rows: &[AdaptiveBenchRow]) -> String {
    let mut out = String::new();
    out.push_str("Adaptive tiering: cold-start translate+run cost vs reuse count\n");
    out.push_str("(every timed region starts with an empty translation cache)\n\n");
    out.push_str(
        "  kernel    reuse   decode (ns)    fused (ns)   threaded (ns)   adaptive (ns)   adapt-bg (ns)   vs-best   vs-thread   promo   tier2-insns\n",
    );
    for r in rows {
        out.push_str(&format!(
            "  {:8} {:6}   {:11}   {:11}   {:13}   {:13}   {:13}   {:6.2}x   {:8.2}x   {:5}   {:10.3}\n",
            r.kernel,
            r.reuse,
            r.decode_ns,
            r.fused_ns,
            r.threaded_ns,
            r.adaptive_ns,
            r.adaptive_bg_ns,
            r.adaptive_vs_best(),
            r.speedup_vs_threaded(),
            r.promotions,
            r.top_tier_insn_share(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_and_adaptive_promotes_within_a_cell() {
        // One cell end-to-end: compare() panics on any checksum or
        // counter divergence. Nine runs cross the default threshold, so
        // the adaptive engine must promote; it single-steps nothing.
        let b = straight_def();
        let row = compare(&b, 9, 2);
        assert_eq!((row.kernel, row.reuse, row.reps), ("straight", 9, 2));
        assert!(row.promotions > 0, "no promotions at reuse 9: {row:?}");
        assert_eq!(row.insns_tier[0], 0, "{row:?}");
    }

    #[test]
    fn suite_kernels_resolve_and_agree_at_reuse_one() {
        let all = benchmarks(BLUR_SMALL);
        let b = all.iter().find(|b| b.name == "binary").unwrap();
        let row = compare(b, 1, 2);
        assert_eq!(row.reuse, 1);
    }

    #[test]
    fn a_long_loop_reaches_the_top_tier_inside_its_first_run() {
        // The cell the short kernels never showed: one cold run of a
        // long-loop kernel. The loop's own iterations carry it past the
        // threshold, so most of the run retires threaded.
        let all = benchmarks(BLUR_SMALL);
        let b = all.iter().find(|b| b.name == "heap").unwrap();
        let row = compare(b, 1, 2);
        assert!(row.promotions >= 2, "{row:?}");
        assert!(row.top_tier_insn_share() > 0.5, "{row:?}");
    }

    #[test]
    fn json_has_rows_and_derived_columns() {
        let rows = vec![AdaptiveBenchRow {
            kernel: "straight",
            reuse: 8,
            reps: 10,
            decode_ns: 4000,
            fused_ns: 1500,
            threaded_ns: 1000,
            adaptive_ns: 1040,
            adaptive_bg_ns: 1020,
            promotions: 3,
            insns_tier: [10, 30, 120],
        }];
        let text = adaptive_json(&rows).to_string();
        for key in [
            "experiment",
            "kernel",
            "reuse",
            "adaptive_ns",
            "adaptive_bg_ns",
            "promotions",
            "insns_tier0",
            "insns_tier1",
            "insns_tier2",
            "top_tier_insn_share",
            "best_fixed_ns",
            "adaptive_vs_best",
            "speedup_vs_threaded",
        ] {
            assert!(text.contains(&format!("\"{key}\"")), "missing {key}");
        }
        assert_eq!(rows[0].best_fixed_ns(), 1000);
        assert!((rows[0].adaptive_vs_best() - 1.04).abs() < 1e-12);
        assert!((rows[0].top_tier_insn_share() - 0.75).abs() < 1e-12);
    }
}
