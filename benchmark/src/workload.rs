//! What every workload produces: one [`SliceOut`] per slice.
//!
//! A slice is a fixed number of operations (so counters repeat run to
//! run) sized to take about a second. It builds what it needs from
//! scratch — sessions, caches, a primed store — with that set-up timed
//! apart from the operations; then times each operation; then, outside
//! any timed span, checks every answer and reads the layers' counters.

use std::ops::AddAssign;

use tcc::SessionMetrics;
use tcc_obs::SharedCacheMetrics;

use std::time::Instant;

use crate::report::Shape;
use crate::trace::{Span, Tracer};

/// A workload: slices plus the fixed facts about its compile set.
pub trait Workload {
    /// Runs slice `index`; `record` keeps spans.
    fn slice(&mut self, index: usize, record: bool) -> SliceOut;

    /// How the slices' latencies cut into windows of equal work.
    fn shape(&self) -> Shape;

    /// VM instructions generated for the workload's fixed compile set
    /// (each cell compiled once).
    fn gen_insns(&self) -> u64;

    /// Modelled cycles of the workload's fixed execution set, in the
    /// reference (decode-per-step) session.
    fn run_cycles(&self) -> u64;
}

/// Time and instruction count of one cell or kernel inside a slice,
/// the two halves of a ns-per-instruction ratio.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerInsn {
    pub ns: u64,
    pub insns: u64,
}

impl PerInsn {
    pub fn ratio(&self) -> f64 {
        self.ns as f64 / self.insns.max(1) as f64
    }
}

#[derive(Debug, Default)]
pub struct SliceOut {
    /// Building everything the slice's first timed op needs.
    pub setup_ns: u64,
    /// Wall-clock of the timed window (for a pool: first worker start
    /// to last worker end).
    pub busy_ns: u64,
    /// One latency per op, in issue order; a pool's workers one after
    /// the other.
    pub lat_ns: Vec<u64>,
    /// When each op started, in ns since the slice's epoch. Filled by
    /// the pool workloads only, whose windows are cut by time.
    pub start_ns: Vec<u64>,
    /// Ops that failed or answered wrongly.
    pub failed: u64,
    /// Compile time over instructions generated, one entry per cell
    /// (empty where the workload times no compiles per cell).
    pub codegen: Vec<PerInsn>,
    /// Execution time over instructions retired, one entry per kernel.
    pub exec: Vec<PerInsn>,
    /// Layer counters over the timed window.
    pub acc: Acc,
    pub spans: Vec<Span>,
}

impl SliceOut {
    /// Marks set-up as finished: everything since `epoch` went into
    /// building `sessions` sessions and what they need.
    pub fn setup_done(&mut self, epoch: Instant, sessions: usize) {
        self.setup_ns = epoch.elapsed().as_nanos() as u64;
        self.acc.sessions_built = sessions as i64;
        self.acc.session_build_ns = self.setup_ns as i64;
    }

    /// Closes a single-threaded slice: its busy time is the sum of its
    /// op latencies (untimed checks sit between ops), every op was one
    /// request, and the tracer's spans are the slice's.
    pub fn finish(mut self, tracer: Tracer) -> SliceOut {
        self.busy_ns = self.lat_ns.iter().sum();
        self.acc.requests = self.lat_ns.len() as i64;
        self.spans = tracer.into_spans();
        self
    }
}

/// Declares [`Acc`] once: the struct, its field listing and its sum.
macro_rules! acc {
    ($($field:ident),* $(,)?) => {
        /// Layer counters summed over a slice's sessions, restricted
        /// to the timed window (set-up work is subtracted where a
        /// session did any). Every field is a plain count or a
        /// nanosecond total (`*_ns`) read from `Session::metrics()` /
        /// `SharedArtifacts::metrics()`, or counted by the driver at a
        /// call boundary.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Acc {
            $(pub $field: i64,)*
        }

        impl Acc {
            /// (field name, value) for every counter.
            pub fn fields(&self) -> Vec<(&'static str, i64)> {
                vec![$((stringify!($field), self.$field),)*]
            }
        }

        impl AddAssign<&Acc> for Acc {
            fn add_assign(&mut self, o: &Acc) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

acc!(
    // counted by the driver
    requests,
    heap_bytes,
    stale_faults,
    unique_cells,
    sessions_built,
    session_build_ns,
    // tickc (`DynMetrics`)
    compiles,
    compile_ns,
    walk_ns,
    phase_ns,
    generated_insns,
    closures,
    unrolled_iters,
    // vm (`VmMetrics`, `ExecMetrics`, `AdaptiveMetrics`)
    insns,
    hcalls,
    translations,
    translated_words,
    translation_ns,
    fused_pairs,
    superinstructions,
    fast_insns,
    dispatches,
    trans_invalidations,
    runs,
    runs_tier0,
    promotions,
    demotions,
    // cache (`SharedCacheMetrics`, `PersistMetrics`)
    shared_hits,
    shared_misses,
    waits,
    published,
    evictions,
    invalidations,
    bytes_live,
    disk_hits,
    disk_misses,
    disk_rejected,
);

impl Acc {
    /// The counters that must repeat exactly run to run on a
    /// single-threaded workload: everything but the nanosecond totals.
    pub fn exact(&self) -> Vec<(&'static str, i64)> {
        self.fields()
            .into_iter()
            .filter(|(name, _)| !name.ends_with("_ns"))
            .collect()
    }

    /// Adds (`sign` = 1) or subtracts (`sign` = -1) one session's
    /// counters — subtracting a snapshot taken before the timed window
    /// leaves the window's own work.
    pub fn absorb(&mut self, m: &SessionMetrics, sign: i64) {
        let add = |field: &mut i64, v: u64| *field += sign * v as i64;
        add(&mut self.compiles, m.dynamic.compiles);
        add(&mut self.compile_ns, m.dynamic.total_ns);
        add(&mut self.walk_ns, m.dynamic.walk_ns);
        add(&mut self.phase_ns, m.dynamic.phases.total_ns());
        add(&mut self.generated_insns, m.dynamic.generated_insns);
        add(&mut self.closures, m.dynamic.closures);
        add(&mut self.unrolled_iters, m.dynamic.unrolled_iters);
        add(&mut self.insns, m.vm.insns);
        add(&mut self.hcalls, m.vm.hcalls);
        add(&mut self.translations, m.exec.translations);
        add(&mut self.translated_words, m.exec.translated_words);
        add(&mut self.translation_ns, m.adaptive.translation_ns);
        add(&mut self.fused_pairs, m.exec.fused_pairs);
        add(&mut self.superinstructions, m.exec.superinstructions);
        add(&mut self.fast_insns, m.exec.fast_insns);
        add(&mut self.dispatches, m.exec.dispatches);
        add(&mut self.trans_invalidations, m.exec.invalidations);
        add(&mut self.runs, m.adaptive.total_runs);
        add(&mut self.runs_tier0, m.adaptive.runs_tier0);
        add(&mut self.promotions, m.adaptive.promotions);
        add(&mut self.demotions, m.adaptive.demotions);
        add(&mut self.disk_hits, m.persist.disk_hits);
        add(&mut self.disk_misses, m.persist.disk_misses);
        add(
            &mut self.disk_rejected,
            m.persist.corrupt_rejected + m.persist.version_rejected,
        );
    }

    /// Adds a pool's shared-cache counters (a fresh cache per slice, so
    /// its totals are the slice's).
    pub fn absorb_shared(&mut self, m: &SharedCacheMetrics) {
        self.shared_hits += m.hits as i64;
        self.shared_misses += m.misses as i64;
        self.waits += m.waits as i64;
        self.published += m.published as i64;
        self.evictions += m.evictions as i64;
        self.invalidations += m.invalidations as i64;
        self.bytes_live += m.bytes_live as i64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtracting_a_snapshot_leaves_the_window() {
        let mut before = SessionMetrics::default();
        before.dynamic.compiles = 7;
        before.vm.insns = 1000;
        before.persist.corrupt_rejected = 1;
        let mut after = before.clone();
        after.dynamic.compiles = 10;
        after.vm.insns = 1800;
        after.persist.version_rejected = 2;
        let mut acc = Acc::default();
        acc.absorb(&after, 1);
        acc.absorb(&before, -1);
        assert_eq!((acc.compiles, acc.insns, acc.disk_rejected), (3, 800, 2));
        let mut sum = Acc::default();
        sum += &acc;
        sum += &acc;
        assert_eq!((sum.compiles, sum.insns), (6, 1600));
        assert!(sum.exact().contains(&("compiles", 6)));
        assert!(sum.exact().iter().all(|(name, _)| *name != "compile_ns"));
        assert_eq!(sum.fields().len(), sum.exact().len() + 5);
    }
}
