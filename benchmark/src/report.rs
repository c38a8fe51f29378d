//! From slices to the numbers printed: the end-to-end metrics of the
//! untraced pass and the workload-side per-layer metrics of the traced
//! pass.
//!
//! Wall-clock metrics are computed per **window** of 50–100 ms. A
//! single-threaded workload reports its best window, a pool its median
//! window; best, median and inter-quartile range across windows are
//! all kept. See README.md, "Slices, windows, and which window".

use crate::json::Json;
use crate::layers::Values;
use crate::stats::{best_window, geomean, median, percentile, Better, WindowAgg};
use crate::trace::{coverage, durations, Span, SpanName};
use crate::workload::{Acc, PerInsn, SliceOut, Workload};

/// How a workload's slices cut into windows.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// One thread, round-robin: a window is this many consecutive ops
    /// (whole rounds, so every window holds the same work).
    Rounds { window_ops: usize },
    /// A pool: a window is this much wall-clock, and holds the ops of
    /// every worker that ended inside it. `lat_ns` and `start_ns` hold
    /// the workers' sequences one after the other, equally long.
    Pool { workers: usize, window_ns: u64 },
}

impl Shape {
    /// The window a run reports. Single-threaded windows hold a fixed
    /// computation, noise only ever adds time to it, and the best
    /// window estimates the undisturbed cost. A pool's windows do not:
    /// which worker holds a shard lock when the host deschedules it is
    /// luck, luck can also *remove* contention, and the best of many
    /// windows is then a lucky one — so a pool reports its median.
    pub fn reported(self, a: &WindowAgg) -> f64 {
        match self {
            Shape::Rounds { .. } => a.best,
            Shape::Pool { .. } => a.median,
        }
    }
}

/// One window's (ops per second, p50 µs, p99 µs, ops).
type Window = (f64, f64, f64, usize);

fn window_of(mut lat: Vec<u64>, span_ns: u64) -> Window {
    lat.sort_unstable();
    (
        lat.len() as f64 * 1e9 / span_ns.max(1) as f64,
        percentile(&lat, 0.50) as f64 / 1e3,
        percentile(&lat, 0.99) as f64 / 1e3,
        lat.len(),
    )
}

/// Every whole window of one slice.
fn windows(s: &SliceOut, shape: Shape) -> Vec<Window> {
    match shape {
        Shape::Rounds { window_ops } => s
            .lat_ns
            .chunks_exact(window_ops.max(1))
            .map(|run| window_of(run.to_vec(), run.iter().sum()))
            .collect(),
        Shape::Pool { workers, window_ns } => {
            // Windows count from the first op's start and stop where
            // the first worker runs out of requests, so every window
            // has every worker busy from edge to edge.
            let per_worker = s.lat_ns.len() / workers.max(1);
            let end = |i: usize| s.start_ns[i] + s.lat_ns[i];
            let origin = s.start_ns.iter().copied().min().unwrap_or(0);
            let horizon = (0..workers)
                .map(|w| end((w + 1) * per_worker - 1))
                .min()
                .unwrap_or(origin);
            let whole = ((horizon - origin) / window_ns.max(1)) as usize;
            if whole == 0 {
                // A slice shorter than one window is one window.
                return vec![window_of(s.lat_ns.clone(), horizon - origin)];
            }
            let mut buckets = vec![Vec::new(); whole];
            for i in 0..s.lat_ns.len() {
                let k = ((end(i) - origin) / window_ns.max(1)) as usize;
                if k < whole {
                    buckets[k].push(s.lat_ns[i]);
                }
            }
            buckets
                .into_iter()
                .map(|lat| window_of(lat, window_ns))
                .collect()
        }
    }
}

/// Ops per second of the reported window over `slices`.
pub fn window_rate(slices: &[&SliceOut], shape: Shape) -> f64 {
    let rates: Vec<f64> = slices
        .iter()
        .flat_map(|s| windows(s, shape))
        .map(|w| w.0)
        .collect();
    shape.reported(&best_window(&rates, Better::Higher))
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics of one untraced run.
pub struct EndToEnd {
    /// Median over slices: every slice sets up from scratch.
    pub setup_s: f64,
    pub ops_per_s: WindowAgg,
    pub op_p50_us: WindowAgg,
    pub op_p99_us: WindowAgg,
    /// Ops in one window (the median window of a pool), and how many
    /// of them lie beyond its p99.
    pub window_ops: usize,
    pub p99_samples_beyond: usize,
    pub peak_rss_mb: f64,
    pub gen_insns: u64,
    pub run_cycles: u64,
    shape: Shape,
}

impl EndToEnd {
    pub fn from_slices(slices: &[SliceOut], w: &dyn Workload) -> EndToEnd {
        let shape = w.shape();
        let all: Vec<Window> = slices.iter().flat_map(|s| windows(s, shape)).collect();
        let column = |pick: fn(&Window) -> f64| all.iter().map(pick).collect::<Vec<_>>();
        let setups: Vec<f64> = slices.iter().map(|s| s.setup_ns as f64 / 1e9).collect();
        let window_ops = median(&column(|w| w.3 as f64)) as usize;
        EndToEnd {
            setup_s: median(&setups),
            ops_per_s: best_window(&column(|w| w.0), Better::Higher),
            op_p50_us: best_window(&column(|w| w.1), Better::Lower),
            op_p99_us: best_window(&column(|w| w.2), Better::Lower),
            window_ops,
            p99_samples_beyond: window_ops - (window_ops as f64 * 0.99).ceil() as usize,
            peak_rss_mb: peak_rss_mb(),
            gen_insns: w.gen_insns(),
            run_cycles: w.run_cycles(),
            shape,
        }
    }

    /// (name, value) in `names::END_TO_END` order.
    pub fn values(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", self.setup_s),
            ("ops_per_s", self.shape.reported(&self.ops_per_s)),
            ("op_p50_us", self.shape.reported(&self.op_p50_us)),
            ("op_p99_us", self.shape.reported(&self.op_p99_us)),
            ("peak_rss_mb", self.peak_rss_mb),
            ("gen_insns", self.gen_insns as f64),
            ("run_cycles", self.run_cycles as f64),
        ]
    }

    /// The window spread behind `name`, where it has one.
    pub fn spread(&self, name: &str) -> Option<WindowAgg> {
        match name {
            "ops_per_s" => Some(self.ops_per_s),
            "op_p50_us" => Some(self.op_p50_us),
            "op_p99_us" => Some(self.op_p99_us),
            _ => None,
        }
    }
}

pub fn agg_json(a: &WindowAgg) -> Json {
    Json::obj(vec![
        ("best", Json::from(a.best)),
        ("median", Json::from(a.median)),
        ("iqr", Json::from(a.iqr)),
        ("windows", Json::from(a.windows)),
    ])
}

fn ratio(a: i64, b: i64) -> f64 {
    if b > 0 {
        a as f64 / b as f64
    } else {
        0.0
    }
}

/// Best (lowest) slice of the geomean over cells of a ns-per-insn
/// ratio; 0 where no slice measured it.
fn best_geomean(slices: &[&SliceOut], pick: impl Fn(&SliceOut) -> &Vec<PerInsn>) -> f64 {
    let per_slice: Vec<f64> = slices
        .iter()
        .map(|s| {
            let cells: Vec<f64> = pick(s)
                .iter()
                .filter(|c| c.ns > 0 && c.insns > 0)
                .map(PerInsn::ratio)
                .collect();
            geomean(&cells)
        })
        .filter(|g| *g > 0.0)
        .collect();
    best_window(&per_slice, Better::Lower).best
}

fn p50(spans: &[Span], name: SpanName) -> f64 {
    percentile(&durations(spans, name), 0.50) as f64
}

/// The per-layer metrics read off the workload itself: counter deltas
/// over the traced slices and `spans`, everything those slices
/// recorded around each layer call. `untraced` are the same workload's
/// slices run without recording, for the overhead ratio.
pub fn workload_layers(
    traced: &[&SliceOut],
    untraced: &[&SliceOut],
    shape: Shape,
    spans: &[Span],
) -> Values {
    let mut a = Acc::default();
    traced.iter().for_each(|s| a += &s.acc);
    let n = traced.len().max(1) as i64;
    let untraced_rate = window_rate(untraced, shape);

    let mut v = Values::new();
    v.insert("rt.heap_bytes_per_request", ratio(a.heap_bytes, a.requests));
    v.insert("tickc.compiles", a.compiles as f64);
    v.insert(
        "tickc.codegen_ns_per_insn",
        best_geomean(traced, |s| &s.codegen),
    );
    v.insert("tickc.compile_call_ns", p50(spans, SpanName::CompileCall));
    v.insert("tickc.hit_call_ns", p50(spans, SpanName::HitCall));
    v.insert(
        "tickc.walk_ns_per_insn",
        ratio(a.walk_ns, a.generated_insns),
    );
    v.insert("tickc.closures_per_compile", ratio(a.closures, a.compiles));
    v.insert("tickc.unrolled_iters", a.unrolled_iters as f64);
    v.insert(
        "cache.shared_hit_ratio",
        ratio(a.shared_hits, a.shared_hits + a.shared_misses),
    );
    v.insert("cache.waits", a.waits as f64);
    v.insert("cache.published", a.published as f64);
    v.insert("cache.evictions", a.evictions as f64);
    v.insert("cache.invalidations", a.invalidations as f64);
    v.insert(
        "cache.compiles_per_unique",
        ratio(a.published, a.unique_cells + a.invalidations + a.evictions),
    );
    v.insert("cache.stale_faults", a.stale_faults as f64);
    v.insert("cache.bytes_live", ratio(a.bytes_live, n));
    v.insert("cache.disk_hits", a.disk_hits as f64);
    v.insert("cache.disk_rejected", a.disk_rejected as f64);
    v.insert("vm.exec_ns_per_insn", best_geomean(traced, |s| &s.exec));
    v.insert("vm.execute_call_ns", p50(spans, SpanName::ExecuteCall));
    v.insert(
        "vm.translate_ns_per_word",
        ratio(a.translation_ns, a.translated_words),
    );
    v.insert("vm.translations", a.translations as f64);
    v.insert("vm.promotions", a.promotions as f64);
    v.insert("vm.demotions", a.demotions as f64);
    v.insert("vm.invalidations", a.trans_invalidations as f64);
    v.insert("vm.tier0_run_share", ratio(a.runs_tier0, a.runs));
    v.insert("vm.dispatches_per_insn", ratio(a.dispatches, a.fast_insns));
    v.insert("vm.fused_pairs", a.fused_pairs as f64);
    v.insert("vm.superinstructions", a.superinstructions as f64);
    v.insert("vm.insns", a.insns as f64);
    v.insert("vm.hcalls", a.hcalls as f64);
    v.insert("pool.rotations", a.sessions_built as f64);
    v.insert(
        "pool.rotate_ms",
        ratio(a.session_build_ns, a.sessions_built) / 1e6,
    );
    v.insert("trace.coverage", coverage(spans));
    v.insert(
        "trace.overhead_ratio",
        if untraced_rate > 0.0 {
            window_rate(traced, shape) / untraced_rate
        } else {
            0.0
        },
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(Shape);
    impl Workload for Fixed {
        fn slice(&mut self, _: usize, _: bool) -> SliceOut {
            SliceOut::default()
        }
        fn shape(&self) -> Shape {
            self.0
        }
        fn gen_insns(&self) -> u64 {
            11
        }
        fn run_cycles(&self) -> u64 {
            22
        }
    }

    fn slice(lat_ns: Vec<u64>, setup_ns: u64) -> SliceOut {
        SliceOut {
            setup_ns,
            busy_ns: lat_ns.iter().sum(),
            lat_ns,
            ..SliceOut::default()
        }
    }

    #[test]
    fn end_to_end_takes_the_best_window_and_the_median_setup() {
        // Windows of 4 ops; a trailing partial window is dropped.
        let a = slice(
            vec![1_000, 1_000, 1_000, 1_000, 2_000, 2_000, 2_000, 6_000, 9],
            5_000_000,
        );
        let b = slice(vec![4_000; 4], 7_000_000);
        let c = slice(vec![4_000; 4], 90_000_000);
        let w = Fixed(Shape::Rounds { window_ops: 4 });
        let e = EndToEnd::from_slices(&[a, b, c], &w);
        assert_eq!(e.ops_per_s.windows, 4);
        assert_eq!(e.ops_per_s.best, 1e6);
        assert_eq!(e.op_p50_us.best, 1.0);
        assert_eq!(e.op_p99_us.best, 1.0);
        assert_eq!(e.op_p99_us.median, 4.0);
        assert_eq!(e.values()[1], ("ops_per_s", 1e6));
        assert_eq!(e.setup_s, 0.007);
        assert_eq!((e.window_ops, e.p99_samples_beyond), (4, 0));
        assert_eq!((e.gen_insns, e.run_cycles), (11, 22));
        assert_eq!(e.values().len(), crate::names::END_TO_END.len());
        assert!(e.spread("ops_per_s").is_some() && e.spread("setup_s").is_none());
    }

    #[test]
    fn a_pool_window_counts_every_workers_ops_that_end_inside_it() {
        // Two workers from t = 100 µs, six ops each; windows of 10 µs.
        // Worker 0 issues 5 µs ops back to back and is done at 130;
        // worker 1 starts with two 10 µs ops and is done at 140. Three
        // windows have both workers busy from edge to edge.
        let s = SliceOut {
            lat_ns: vec![
                5_000, 5_000, 5_000, 5_000, 5_000, 5_000, // worker 0
                10_000, 10_000, 5_000, 5_000, 5_000, 5_000, // worker 1
            ],
            start_ns: vec![
                100_000, 105_000, 110_000, 115_000, 120_000, 125_000, // worker 0
                100_000, 110_000, 120_000, 125_000, 130_000, 135_000, // worker 1
            ],
            ..SliceOut::default()
        };
        let shape = Shape::Pool {
            workers: 2,
            window_ns: 10_000,
        };
        let w = windows(&s, shape);
        assert_eq!(w.len(), 3);
        // An op ending exactly on an edge belongs to the next window:
        // [100, 110) holds only worker 0's first op.
        assert_eq!(w[0].3, 1);
        assert_eq!(w[1].3, 3, "two of worker 0, one of worker 1");
        assert_eq!(w[1].0, 3.0 * 1e9 / 10_000.0);
        assert_eq!((w[1].1, w[1].2), (5.0, 10.0));
        assert_eq!(w[2].3, 4);
        assert_eq!(
            window_rate(&[&s], shape),
            3e5,
            "a pool reports its median window"
        );
    }

    #[test]
    fn workload_layers_derive_ratios_from_counter_sums() {
        let mut s = slice(vec![1_000; 100], 1);
        s.acc.requests = 100;
        s.acc.heap_bytes = 14_000;
        s.acc.compiles = 4;
        s.acc.closures = 12;
        s.acc.shared_hits = 90;
        s.acc.shared_misses = 10;
        s.codegen = vec![
            PerInsn {
                ns: 200,
                insns: 100,
            },
            PerInsn {
                ns: 800,
                insns: 100,
            },
        ];
        let faster = slice(vec![500; 100], 1);
        let shape = Shape::Rounds { window_ops: 50 };
        let v = workload_layers(&[&s], &[&faster], shape, &[]);
        assert_eq!(v["rt.heap_bytes_per_request"], 140.0);
        assert_eq!(v["tickc.closures_per_compile"], 3.0);
        assert_eq!(v["cache.shared_hit_ratio"], 0.9);
        assert!((v["tickc.codegen_ns_per_insn"] - 4.0).abs() < 1e-9);
        assert_eq!(v["trace.overhead_ratio"], 0.5);
        assert_eq!(v["vm.exec_ns_per_insn"], 0.0);
    }
}
