//! Measurement harness: runs a benchmark through every compilation path
//! and produces the numbers behind the paper's Table 1 and Figures 4-7.
//!
//! Units (see EXPERIMENTS.md): code *run time* is measured in exact VM
//! cycles under the configured cost model; *code generation* is measured
//! in host wall-clock nanoseconds and converted to equivalent VM cycles
//! with the interpreter calibration factor, so cross-over points are
//! expressed in "runs", exactly as in Figure 5.

use crate::programs::BenchDef;
use tcc::{Backend, Config, Session, Strategy};
use tcc_icode::Phases;
use tcc_mir::OptLevel;
use tcc_vm::CostModel;

/// How many fresh compiles to average code-generation cost over.
pub const COMPILE_REPS: u64 = 5;

/// Dynamic back ends measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DynBackend {
    /// One-pass VCODE.
    Vcode,
    /// ICODE with linear-scan allocation.
    IcodeLinear,
    /// ICODE with graph-coloring allocation.
    IcodeColor,
}

impl DynBackend {
    /// All measured back ends.
    pub const ALL: [DynBackend; 3] = [
        DynBackend::Vcode,
        DynBackend::IcodeLinear,
        DynBackend::IcodeColor,
    ];

    /// The runtime configuration for this back end.
    pub fn backend(self) -> Backend {
        match self {
            DynBackend::Vcode => Backend::Vcode { unchecked: false },
            DynBackend::IcodeLinear => Backend::Icode {
                strategy: Strategy::LinearScan,
            },
            DynBackend::IcodeColor => Backend::Icode {
                strategy: Strategy::GraphColor,
            },
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DynBackend::Vcode => "vcode",
            DynBackend::IcodeLinear => "icode(ls)",
            DynBackend::IcodeColor => "icode(gc)",
        }
    }
}

/// Per-back-end dynamic measurements.
#[derive(Clone, Debug, Default)]
pub struct DynMeasure {
    /// Cycles per execution of the generated code.
    pub run_cycles: u64,
    /// Codegen nanoseconds per compile (averaged).
    pub codegen_ns: f64,
    /// Machine instructions generated per compile.
    pub insns: f64,
    /// CGF walk nanoseconds per compile.
    pub walk_ns: f64,
    /// ICODE phase breakdown per compile (zeros for VCODE).
    pub phases: Phases,
    /// ICODE IR instructions per compile.
    pub ir_insns: f64,
    /// Result value (for verification).
    pub result: u64,
    /// Side-effect checksum.
    pub check: u64,
}

/// One Figure 7 row: where an ICODE compile's time went, nanoseconds
/// per compile. The six columns sum to `total`, so time outside every
/// phase has a column of its own instead of hiding in the total.
#[derive(Clone, Copy, Debug)]
pub struct Breakdown {
    /// The CGF walk, recording IR.
    pub walk: f64,
    /// Flow graph construction.
    pub flow: f64,
    /// Live variables and live intervals.
    pub liveness: f64,
    /// Register allocation proper.
    pub alloc: f64,
    /// IR cleanup (peephole, scheduler) and translation to binary.
    pub emit: f64,
    /// `total` minus all of the above: the `compile` intercept's own
    /// work (closure scan, naming, bookkeeping) and anything a phase
    /// timer does not cover.
    pub other: f64,
    /// The whole `compile` call.
    pub total: f64,
}

impl Breakdown {
    /// Share of `total` in liveness + intervals + allocation ("register
    /// allocation and related operations", the paper's 70-80%).
    pub fn alloc_fraction(&self) -> f64 {
        (self.liveness + self.alloc) / self.total.max(1.0)
    }
}

impl DynMeasure {
    /// The Figure 7 row of this measurement (phases are accumulated over
    /// [`COMPILE_REPS`] compiles; walk and total are already averages).
    pub fn breakdown(&self) -> Breakdown {
        let per_compile = |ns: u64| ns as f64 / COMPILE_REPS as f64;
        let ph = &self.phases;
        let mut b = Breakdown {
            walk: self.walk_ns,
            flow: per_compile(ph.flow_ns),
            liveness: per_compile(ph.liveness_ns + ph.intervals_ns),
            alloc: per_compile(ph.alloc_ns),
            emit: per_compile(ph.emit_ns + ph.peephole_ns),
            other: 0.0,
            total: self.codegen_ns,
        };
        b.other = b.total - (b.walk + b.flow + b.liveness + b.alloc + b.emit);
        b
    }
}

/// Complete measurements for one benchmark.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark name.
    pub name: &'static str,
    /// Static run cycles under the lcc-like back end.
    pub static_naive_cycles: u64,
    /// Static run cycles under the gcc-like back end.
    pub static_opt_cycles: u64,
    /// Dynamic measurements: `[vcode, icode-ls, icode-gc]`.
    pub dynamic: [DynMeasure; 3],
    /// Static result value / checksum (for verification).
    pub static_result: u64,
    /// Static side-effect checksum.
    pub static_check: u64,
}

impl Measurement {
    /// Figure 4 ratio: static(naive=lcc) time over dynamic time.
    pub fn ratio_vs_naive(&self, b: DynBackend) -> f64 {
        self.static_naive_cycles as f64 / self.dynamic[b as usize].run_cycles.max(1) as f64
    }

    /// Figure 4 ratio: static(optimizing=gcc) time over dynamic time.
    pub fn ratio_vs_opt(&self, b: DynBackend) -> f64 {
        self.static_opt_cycles as f64 / self.dynamic[b as usize].run_cycles.max(1) as f64
    }

    /// Figure 5 cross-over point vs the chosen static baseline; `None`
    /// when dynamic code never pays off.
    pub fn crossover(&self, b: DynBackend, vs_opt: bool, ns_per_cycle: f64) -> Option<f64> {
        let stat = if vs_opt {
            self.static_opt_cycles
        } else {
            self.static_naive_cycles
        };
        let dynm = &self.dynamic[b as usize];
        if dynm.run_cycles >= stat {
            return None;
        }
        let codegen_cycles = dynm.codegen_ns / ns_per_cycle;
        Some(codegen_cycles / (stat - dynm.run_cycles) as f64)
    }
}

fn run_static(bench: &BenchDef, opt: OptLevel, cost: &CostModel) -> (u64, u64, u64) {
    let config = Config {
        static_opt: opt,
        backend: Backend::Vcode { unchecked: false },
        cost: cost.clone(),
        ..Config::default()
    };
    let mut s = Session::new(bench.src, config)
        .unwrap_or_else(|e| panic!("{}: front end failed: {e}", bench.name));
    (bench.setup)(&mut s);
    s.reset_counters();
    let result = (bench.run_static)(&mut s);
    let cycles = s.cycles();
    let check = (bench.check)(&mut s);
    (cycles, result, check)
}

fn run_dynamic(bench: &BenchDef, b: DynBackend, cost: &CostModel) -> DynMeasure {
    let config = Config {
        static_opt: OptLevel::Optimizing,
        backend: b.backend(),
        cost: cost.clone(),
        // Memo off: every rep must be a compile. With it on, reps 2..N
        // of a cacheable closure are hits, and the "average" is one
        // cold compile whose phases are then divided by N.
        cache: false,
        ..Config::default()
    };
    let mut s = Session::new(bench.src, config)
        .unwrap_or_else(|e| panic!("{}: front end failed: {e}", bench.name));
    (bench.setup)(&mut s);
    let fp = (bench.compile_dyn)(&mut s);
    for _ in 1..COMPILE_REPS {
        (bench.compile_dyn)(&mut s);
    }
    let st = s.dyn_stats().clone();
    assert_eq!(
        st.compiles, COMPILE_REPS,
        "{}: a rep did not compile",
        bench.name
    );
    let n = st.compiles as f64;
    s.reset_counters();
    let result = (bench.run_dyn)(&mut s, fp);
    let run_cycles = s.cycles();
    let check = (bench.check)(&mut s);
    DynMeasure {
        run_cycles,
        codegen_ns: st.total_ns as f64 / n,
        insns: st.generated_insns as f64 / n,
        walk_ns: st.walk_ns as f64 / n,
        phases: st.phases,
        ir_insns: st.ir_insns as f64 / n,
        result,
        check,
    }
}

/// Runs one benchmark through all five compilation paths and verifies
/// that every path computes the same answer.
///
/// # Panics
///
/// Panics if any path disagrees with the static reference (correctness
/// is a precondition for the performance claims).
pub fn measure(bench: &BenchDef) -> Measurement {
    measure_with(bench, &CostModel::default())
}

/// Like [`measure`], under an explicit cycle cost model (the sensitivity
/// experiment).
///
/// # Panics
///
/// Panics if any path disagrees with the static reference.
pub fn measure_with(bench: &BenchDef, cost: &CostModel) -> Measurement {
    let (static_naive_cycles, r1, c1) = run_static(bench, OptLevel::Naive, cost);
    let (static_opt_cycles, r2, c2) = run_static(bench, OptLevel::Optimizing, cost);
    assert_eq!(r1, r2, "{}: static back ends disagree", bench.name);
    assert_eq!(
        c1, c2,
        "{}: static back ends disagree on checksum",
        bench.name
    );
    let dynamic = [
        run_dynamic(bench, DynBackend::Vcode, cost),
        run_dynamic(bench, DynBackend::IcodeLinear, cost),
        run_dynamic(bench, DynBackend::IcodeColor, cost),
    ];
    for (d, b) in dynamic.iter().zip(DynBackend::ALL) {
        assert_eq!(
            d.result,
            r1,
            "{}: dynamic ({}) result differs from static",
            bench.name,
            b.name()
        );
        assert_eq!(
            d.check,
            c1,
            "{}: dynamic ({}) checksum differs from static",
            bench.name,
            b.name()
        );
    }
    Measurement {
        name: bench.name,
        static_naive_cycles,
        static_opt_cycles,
        dynamic,
        static_result: r1,
        static_check: c1,
    }
}
