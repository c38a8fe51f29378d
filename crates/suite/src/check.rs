//! Benchmark regression gate: compare a freshly generated
//! `BENCH_exec.json` (and, when present, `BENCH_adaptive.json`)
//! against the committed baselines in `baselines/`.
//!
//! The gate reads only the files this suite itself writes
//! ([`crate::exec_json`] serialized with `Json::pretty`), so a tiny
//! line-oriented scanner suffices — one `"key": value` pair per line,
//! rows delimited by their `"name"` keys. No general JSON parser is
//! needed (and the workspace deliberately has no serde dependency).
//!
//! Wall-clock nanoseconds are machine- and load-dependent, so the gate
//! compares *speedups* (ratios of engines run back-to-back on the same
//! machine), which are stable. The CI contract: for every kernel, none
//! of the gated speedup columns ([`GATED_COLUMNS`]: fused, threaded,
//! adaptive) may regress more than [`DEFAULT_TOLERANCE`] below the
//! committed baseline. A baseline written before a column existed
//! stores no value for it; such columns are reported as warnings and
//! skipped rather than gated, so an old `BENCH_exec.json` never turns
//! into a spurious CI failure.
//!
//! [`check_adaptive`] *reports* the tiering pipeline's tail-latency
//! column and gates only its structure: per (kernel, reuse) row, a
//! fresh `tail_p99_improvement` (cold per-run p99 of the synchronous
//! adaptive engine over the background worker's) more than the
//! tolerance below the baseline (callers pass [`TAIL_TOLERANCE`]) is a
//! `WARN` line in the report, not a failure; a baseline row missing
//! from the fresh run still fails. The ratio is a wake-up latency
//! between two threads: on a 2-vCPU host it sits at 0.12–0.29 against
//! a baseline of 0.41–0.94 cut elsewhere, on the same code — a number
//! about the host's scheduler, which ROADMAP aim 1 says reports rather
//! than gates ("bit-exact counters gate; wall-clock reports").

use std::collections::BTreeMap;

/// Maximum tolerated relative drop in a gated speedup column (0.30 =
/// fresh may be at worst 30% below baseline).
pub const DEFAULT_TOLERANCE: f64 = 0.30;

/// Tolerance for tail ratios: the drop past which [`check_adaptive`]
/// marks a row `WARN`, and what the serve gate's callers pass. Looser
/// than [`DEFAULT_TOLERANCE`]: the speedup columns divide
/// min-estimator numbers (noise only ever adds time, so the min
/// converges), but a p99-over-p99 ratio keeps the tail noise on both
/// sides by construction, and single runs are microseconds long.
pub const TAIL_TOLERANCE: f64 = 0.50;

/// Floor the serve gate holds the largest pool's shared-cache hit
/// rate to, regardless of baseline: a hot Zipfian working set that
/// stops hitting means artifact sharing itself broke.
pub const SERVE_MIN_HIT_RATE: f64 = 0.90;

/// Tolerance for the serve p99 gate, looser still than
/// [`TAIL_TOLERANCE`]. The serve replay's p99 is bimodal by
/// construction: a few percent of requests carry a compile (cache
/// misses plus churn recompiles), so the 1% boundary lands on the
/// compile-latency cliff and shifts by 3–4x between idle and loaded
/// runs of identical code. A 75% tolerance (fresh p99 up to 4x the
/// baseline) still catches a real tail pathology — a lost in-flight
/// wait or a lock held across compilation inflates the tail by an
/// order of magnitude — without tripping on scheduler noise.
pub const SERVE_TAIL_TOLERANCE: f64 = 0.75;

/// Absolute floor the persist gate holds every kernel's warm-start
/// speedup to, regardless of baseline: the issue's acceptance bar is
/// that a warm restart's compile path (disk load + install) costs at
/// least 5x less than re-running the CGF. Falling below this means
/// either the store stopped answering (disk misses recompile) or loads
/// became as expensive as compiles.
pub const PERSIST_MIN_SPEEDUP: f64 = 5.0;

/// The unified gate-failure diagnostic: one line naming the row (the
/// kernel, sweep cell, or pool), the gated column, the observed value,
/// the floor it fell below, the baseline, and the tolerance that
/// produced the floor. Every gate in this module (exec speedups,
/// adaptive tails, serve ratios) reports violations through this one
/// formatter, so CI logs stay uniformly grep-able.
pub fn gate_failure_line(row: &str, key: &str, observed: f64, base: f64, tolerance: f64) -> String {
    let floor = base * (1.0 - tolerance);
    format!(
        "  {row}: {key} {observed:.2}x regressed below {floor:.2}x \
         (baseline {base:.2}x - {:.0}% tolerance)\n",
        tolerance * 100.0,
    )
}

/// Companion diagnostic for rows that vanished from the fresh run.
pub fn missing_row_line(row: &str) -> String {
    format!("  {row}: present in baseline, missing from fresh run\n")
}

/// One gated speedup column: its JSON key and row accessor.
pub type GatedColumn = (&'static str, fn(&CheckRow) -> f64);

/// The speedup columns the gate guards, as (key, accessor) pairs. Every
/// column is held to the same relative tolerance; a baseline value of
/// zero means the column predates the baseline and is warned about
/// instead of gated.
///
/// `dispatch_reduction` is the superinstruction gate: the reciprocal of
/// the threaded engine's dispatches-per-insn ratio (instructions
/// retired per dispatch-loop iteration), so "higher is better" holds
/// like the speedup columns and the same relative-drop floor applies.
/// Losing superinstruction or run-batching coverage raises
/// dispatches-per-insn toward 1.0 and drops this column. A baseline
/// written before the column existed parses as 0.0 and is warned about
/// and skipped, like every other gated column.
pub const GATED_COLUMNS: [GatedColumn; 4] = [
    ("speedup_fused", |r| r.speedup_fused),
    ("speedup_threaded", |r| r.speedup_threaded),
    ("speedup_adaptive", |r| r.speedup_adaptive),
    ("dispatch_reduction", CheckRow::dispatch_reduction),
];

/// The per-kernel fields the gate reads from `BENCH_exec.json`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckRow {
    /// Kernel name.
    pub name: String,
    /// Predecoded+fused speedup over decode-per-step (gated).
    pub speedup_fused: f64,
    /// Direct-threaded speedup over decode-per-step (gated).
    pub speedup_threaded: f64,
    /// Adaptive-tiering speedup over decode-per-step (gated; 0.0 when
    /// the file predates the adaptive engine).
    pub speedup_adaptive: f64,
    /// Threaded-over-fused ratio (reported).
    pub speedup_threaded_vs_fused: f64,
    /// ICODE fusion-aware scheduler pair gain (reported).
    pub fused_pairs_icode_delta: i64,
    /// Threaded dispatch-loop iterations per retired instruction
    /// (gated through [`CheckRow::dispatch_reduction`]; 0.0 when the
    /// file predates the superinstruction columns).
    pub dispatches_per_insn: f64,
}

impl CheckRow {
    /// Instructions retired per threaded dispatch — the reciprocal of
    /// `dispatches_per_insn`, so that bigger means more dispatch
    /// reduction and the standard "may not drop below baseline ×
    /// (1 − tolerance)" gate applies. 0.0 (warn-and-skip) when the
    /// column is absent.
    pub fn dispatch_reduction(&self) -> f64 {
        if self.dispatches_per_insn <= 0.0 {
            0.0
        } else {
            1.0 / self.dispatches_per_insn
        }
    }
}

/// Extracts one `"key": value` pair from a pretty-printed JSON line.
/// Returns `None` for structural lines (braces, brackets).
fn key_value(line: &str) -> Option<(&str, &str)> {
    let line = line.trim().trim_end_matches(',');
    let rest = line.strip_prefix('"')?;
    let (key, rest) = rest.split_once('"')?;
    let value = rest.strip_prefix(':')?.trim();
    Some((key, value))
}

/// Scans the text of a `BENCH_exec.json` for its per-kernel rows.
/// Unknown keys are ignored; a new row starts at each `"name"`.
pub fn parse_exec_rows(text: &str) -> Vec<CheckRow> {
    let mut rows: Vec<CheckRow> = Vec::new();
    for line in text.lines() {
        let Some((key, value)) = key_value(line) else {
            continue;
        };
        if key == "name" {
            let name = value.trim_matches('"').to_string();
            // The top-level "experiment"/"description" strings never
            // use the key "name", so every hit opens a kernel row.
            rows.push(CheckRow {
                name,
                ..CheckRow::default()
            });
            continue;
        }
        let Some(row) = rows.last_mut() else { continue };
        match key {
            "speedup_fused" => row.speedup_fused = value.parse().unwrap_or(0.0),
            "speedup_threaded" => row.speedup_threaded = value.parse().unwrap_or(0.0),
            "speedup_adaptive" => row.speedup_adaptive = value.parse().unwrap_or(0.0),
            "speedup_threaded_vs_fused" => {
                row.speedup_threaded_vs_fused = value.parse().unwrap_or(0.0);
            }
            "fused_pairs_icode_delta" => {
                row.fused_pairs_icode_delta = value.parse().unwrap_or(0);
            }
            "dispatches_per_insn" => {
                row.dispatches_per_insn = value.parse().unwrap_or(0.0);
            }
            _ => {}
        }
    }
    rows
}

/// Compares fresh exec-bench results against a baseline. Returns a
/// human-readable report on success, or a description of every
/// violated bound on failure. A kernel fails when any gated speedup
/// column ([`GATED_COLUMNS`]) drops more than `tolerance` (relative)
/// below its baseline value; kernels present in the baseline but
/// missing from the fresh run also fail. Fresh kernels without a
/// baseline pass (they are new) and are noted in the report, as are
/// gated columns the baseline does not carry yet (value 0.0 — e.g. a
/// pre-adaptive `BENCH_exec.json`), which are warned about and
/// skipped.
///
/// # Errors
///
/// A multi-line description of every regression found.
pub fn check_exec(baseline: &str, fresh: &str, tolerance: f64) -> Result<String, String> {
    let base: BTreeMap<String, CheckRow> = parse_exec_rows(baseline)
        .into_iter()
        .map(|r| (r.name.clone(), r))
        .collect();
    let fresh_rows = parse_exec_rows(fresh);
    if fresh_rows.is_empty() {
        return Err("fresh BENCH_exec.json has no kernel rows".into());
    }
    let fresh_names: Vec<&str> = fresh_rows.iter().map(|r| r.name.as_str()).collect();
    let mut report = String::from(
        "exec-check: fresh speedups vs committed baseline\n\
         \n  bench     fused(base)  fused(fresh)   thread(fresh)  adapt(fresh)  t/f     icodeD   d/i\n",
    );
    let mut warnings = String::new();
    let mut failures = String::new();
    for f in &fresh_rows {
        let b = base.get(&f.name);
        let base_fused = b.map_or(0.0, |b| b.speedup_fused);
        report.push_str(&format!(
            "  {:7}   {:9.2}x   {:10.2}x   {:11.2}x  {:10.2}x  {:5.2}x   {:+5}   {:4.2}{}\n",
            f.name,
            base_fused,
            f.speedup_fused,
            f.speedup_threaded,
            f.speedup_adaptive,
            f.speedup_threaded_vs_fused,
            f.fused_pairs_icode_delta,
            f.dispatches_per_insn,
            if b.is_none() { "   (no baseline)" } else { "" },
        ));
        let Some(b) = b else { continue };
        for (key, column) in GATED_COLUMNS {
            let base_value = column(b);
            if base_value == 0.0 {
                warnings.push_str(&format!(
                    "  warning: baseline has no {key} for {} (pre-{key} file?) — not gated\n",
                    f.name,
                ));
                continue;
            }
            if column(f) < base_value * (1.0 - tolerance) {
                failures.push_str(&gate_failure_line(
                    &f.name,
                    key,
                    column(f),
                    base_value,
                    tolerance,
                ));
            }
        }
    }
    for name in base.keys() {
        if !fresh_names.contains(&name.as_str()) {
            failures.push_str(&missing_row_line(name));
        }
    }
    if !warnings.is_empty() {
        report.push_str(&format!("\n{warnings}"));
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(format!("{report}\nREGRESSIONS:\n{failures}"))
    }
}

/// The per-row fields the adaptive tail gate reads from
/// `BENCH_adaptive.json`. Rows are keyed by (kernel, reuse) — each
/// kernel appears once per reuse point in the sweep.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdaptiveCheckRow {
    /// Kernel name.
    pub kernel: String,
    /// Reuse count of the sweep cell.
    pub reuse: u64,
    /// Sync-over-background cold per-run p99 ratio (gated; 0.0 when
    /// the file predates the tail columns).
    pub tail_p99_improvement: f64,
}

/// Scans the text of a `BENCH_adaptive.json` for its sweep rows. A new
/// row starts at each `"kernel"` key; the top-level `warm_summary`
/// entries also open on `"kernel"` but carry neither `reuse` nor
/// `tail_p99_improvement`, so they parse as zero rows and are dropped.
pub fn parse_adaptive_rows(text: &str) -> Vec<AdaptiveCheckRow> {
    let mut rows: Vec<AdaptiveCheckRow> = Vec::new();
    for line in text.lines() {
        let Some((key, value)) = key_value(line) else {
            continue;
        };
        if key == "kernel" {
            rows.push(AdaptiveCheckRow {
                kernel: value.trim_matches('"').to_string(),
                ..AdaptiveCheckRow::default()
            });
            continue;
        }
        let Some(row) = rows.last_mut() else { continue };
        match key {
            "reuse" => row.reuse = value.parse().unwrap_or(0),
            "tail_p99_improvement" => {
                row.tail_p99_improvement = value.parse().unwrap_or(0.0);
            }
            _ => {}
        }
    }
    // Drop the warm_summary echoes (no reuse key ⇒ not a sweep row).
    rows.retain(|r| r.reuse > 0);
    rows
}

/// Compares fresh adaptive-bench tail latencies against a baseline.
/// Per (kernel, reuse) row, a fresh `tail_p99_improvement` more than
/// `tolerance` (relative) below its baseline value gets a `WARN` line
/// in the report: the ratio is wall-clock wake-up latency, so it is
/// reported, not gated. Rows whose baseline value is 0.0 — a
/// `BENCH_adaptive.json` written before the tail columns existed —
/// are warned about and skipped, as are fresh rows with no baseline
/// counterpart; baseline rows missing from the fresh run fail,
/// mirroring [`check_exec`].
///
/// # Errors
///
/// An empty fresh file, or a baseline row the fresh run lacks.
pub fn check_adaptive(baseline: &str, fresh: &str, tolerance: f64) -> Result<String, String> {
    let base: BTreeMap<(String, u64), AdaptiveCheckRow> = parse_adaptive_rows(baseline)
        .into_iter()
        .map(|r| ((r.kernel.clone(), r.reuse), r))
        .collect();
    let fresh_rows = parse_adaptive_rows(fresh);
    if fresh_rows.is_empty() {
        return Err("fresh BENCH_adaptive.json has no sweep rows".into());
    }
    let fresh_keys: Vec<(String, u64)> = fresh_rows
        .iter()
        .map(|r| (r.kernel.clone(), r.reuse))
        .collect();
    let mut report = String::from(
        "exec-check: adaptive cold-run tail (p99 sync / p99 background) vs baseline\n\
         \n  kernel    reuse   tail(base)   tail(fresh)\n",
    );
    let mut warnings = String::new();
    let mut failures = String::new();
    for f in &fresh_rows {
        let b = base.get(&(f.kernel.clone(), f.reuse));
        report.push_str(&format!(
            "  {:8} {:6}   {:8.2}x   {:9.2}x{}\n",
            f.kernel,
            f.reuse,
            b.map_or(0.0, |b| b.tail_p99_improvement),
            f.tail_p99_improvement,
            if b.is_none() { "   (no baseline)" } else { "" },
        ));
        let Some(b) = b else { continue };
        if b.tail_p99_improvement == 0.0 {
            warnings.push_str(&format!(
                "  warning: baseline has no tail_p99_improvement for {}/{} \
                 (pre-tail-column file?) — not gated\n",
                f.kernel, f.reuse,
            ));
            continue;
        }
        if f.tail_p99_improvement < b.tail_p99_improvement * (1.0 - tolerance) {
            warnings.push_str("  WARN (wall-clock, not gated):");
            warnings.push_str(&gate_failure_line(
                &format!("{}/{}", f.kernel, f.reuse),
                "tail_p99_improvement",
                f.tail_p99_improvement,
                b.tail_p99_improvement,
                tolerance,
            ));
        }
    }
    for key in base.keys() {
        if !fresh_keys.contains(key) {
            failures.push_str(&missing_row_line(&format!("{}/{}", key.0, key.1)));
        }
    }
    if !warnings.is_empty() {
        report.push_str(&format!("\n{warnings}"));
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(format!("{report}\nREGRESSIONS:\n{failures}"))
    }
}

/// The per-pool fields the serve gate reads from `BENCH_serve.json`.
/// Rows are keyed by thread count — each pool size appears once.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeCheckRow {
    /// Worker threads in the pool.
    pub threads: u64,
    /// Requests per second over the replay wall clock (gated as a
    /// fresh/baseline ratio).
    pub throughput_rps: f64,
    /// 99th-percentile per-request latency (gated as a
    /// baseline/fresh ratio — bigger fresh tail ⇒ smaller ratio).
    pub p99_ns: f64,
    /// Shared-cache hit rate (absolute floor on the largest pool).
    pub hit_rate: f64,
    /// Compiles per compile-worthy event (absolute ceiling of 1 on the
    /// largest pool — above 1 means workers duplicated compiles).
    pub compiles_per_unique: f64,
}

/// Scans the text of a `BENCH_serve.json` for its per-pool rows. A new
/// row starts at each `"threads"` key.
pub fn parse_serve_rows(text: &str) -> Vec<ServeCheckRow> {
    let mut rows: Vec<ServeCheckRow> = Vec::new();
    for line in text.lines() {
        let Some((key, value)) = key_value(line) else {
            continue;
        };
        if key == "threads" {
            rows.push(ServeCheckRow {
                threads: value.parse().unwrap_or(0),
                ..ServeCheckRow::default()
            });
            continue;
        }
        let Some(row) = rows.last_mut() else { continue };
        match key {
            "throughput_rps" => row.throughput_rps = value.parse().unwrap_or(0.0),
            "p99_ns" => row.p99_ns = value.parse().unwrap_or(0.0),
            "hit_rate" => row.hit_rate = value.parse().unwrap_or(0.0),
            "compiles_per_unique" => {
                row.compiles_per_unique = value.parse().unwrap_or(0.0);
            }
            _ => {}
        }
    }
    rows
}

/// Compares a fresh serve sweep against a baseline. Per pool size, the
/// fresh throughput may not drop more than `tolerance` (relative)
/// below the baseline (callers pass [`TAIL_TOLERANCE`]: wall-clock on
/// a loaded CI box is far noisier than the same-machine engine ratios
/// of [`check_exec`]), and the fresh p99 tail may not grow so much
/// that `baseline_p99 / fresh_p99` falls below
/// `1 - max(tolerance, `[`SERVE_TAIL_TOLERANCE`]`)` — the p99 gets its
/// own, wider floor because the replay's tail is bimodal (see the
/// constant's docs). On top of the relative gates, the largest fresh
/// pool is held to two absolute bounds from the service's contract:
/// shared-cache hit rate at least [`SERVE_MIN_HIT_RATE`], and
/// compiles-per-unique at most 1 (the first-compiler-wins invariant —
/// above 1 means concurrent workers duplicated a compile). Baseline
/// rows with a zero value warn and skip; baseline pool sizes missing
/// from the fresh run fail, mirroring [`check_exec`].
///
/// # Errors
///
/// A multi-line description of every violated bound.
pub fn check_serve(baseline: &str, fresh: &str, tolerance: f64) -> Result<String, String> {
    let base: BTreeMap<u64, ServeCheckRow> = parse_serve_rows(baseline)
        .into_iter()
        .map(|r| (r.threads, r))
        .collect();
    let fresh_rows = parse_serve_rows(fresh);
    if fresh_rows.is_empty() {
        return Err("fresh BENCH_serve.json has no pool rows".into());
    }
    let fresh_threads: Vec<u64> = fresh_rows.iter().map(|r| r.threads).collect();
    let max_threads = *fresh_threads.iter().max().expect("non-empty");
    let mut report = String::from(
        "exec-check: serve throughput/p99 vs committed baseline\n\
         \n  threads    rps(base)    rps(fresh)    p99(base)    p99(fresh)   hit     c/u\n",
    );
    let mut warnings = String::new();
    let mut failures = String::new();
    for f in &fresh_rows {
        let b = base.get(&f.threads);
        report.push_str(&format!(
            "  {:7}   {:10.0}   {:11.0}   {:10.0}   {:11.0}   {:4.2}   {:5.2}{}\n",
            f.threads,
            b.map_or(0.0, |b| b.throughput_rps),
            f.throughput_rps,
            b.map_or(0.0, |b| b.p99_ns),
            f.p99_ns,
            f.hit_rate,
            f.compiles_per_unique,
            if b.is_none() { "   (no baseline)" } else { "" },
        ));
        if let Some(b) = b {
            if b.throughput_rps <= 0.0 {
                warnings.push_str(&format!(
                    "  warning: baseline has no throughput_rps for serve/{} — not gated\n",
                    f.threads,
                ));
            } else {
                let ratio = f.throughput_rps / b.throughput_rps;
                if ratio < 1.0 - tolerance {
                    failures.push_str(&gate_failure_line(
                        &format!("serve/{}", f.threads),
                        "throughput_ratio",
                        ratio,
                        1.0,
                        tolerance,
                    ));
                }
            }
            if b.p99_ns <= 0.0 {
                warnings.push_str(&format!(
                    "  warning: baseline has no p99_ns for serve/{} — not gated\n",
                    f.threads,
                ));
            } else {
                let tail_tolerance = tolerance.max(SERVE_TAIL_TOLERANCE);
                let ratio = b.p99_ns / f.p99_ns.max(1.0);
                if ratio < 1.0 - tail_tolerance {
                    failures.push_str(&gate_failure_line(
                        &format!("serve/{}", f.threads),
                        "tail_p99_ratio",
                        ratio,
                        1.0,
                        tail_tolerance,
                    ));
                }
            }
        }
        // The service's structural contract, gated absolutely on the
        // largest pool (the configuration the acceptance bar names).
        if f.threads == max_threads {
            if f.hit_rate < SERVE_MIN_HIT_RATE {
                failures.push_str(&gate_failure_line(
                    &format!("serve/{}", f.threads),
                    "hit_rate",
                    f.hit_rate,
                    SERVE_MIN_HIT_RATE,
                    0.0,
                ));
            }
            if f.compiles_per_unique > 1.0 + 1e-9 {
                failures.push_str(&format!(
                    "  serve/{}: compiles_per_unique {:.2} exceeded 1.00 — \
                     concurrent workers duplicated a compile\n",
                    f.threads, f.compiles_per_unique,
                ));
            }
        }
    }
    for threads in base.keys() {
        if !fresh_threads.contains(threads) {
            failures.push_str(&missing_row_line(&format!("serve/{threads}")));
        }
    }
    if !warnings.is_empty() {
        report.push_str(&format!("\n{warnings}"));
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(format!("{report}\nREGRESSIONS:\n{failures}"))
    }
}

/// The per-kernel fields the persist gate reads from
/// `BENCH_persist.json`. Rows are keyed by kernel name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PersistCheckRow {
    /// Kernel name.
    pub kernel: String,
    /// Distinct closures the process pair compiled/loaded.
    pub cells: f64,
    /// Warm-process disk hits (structural: must cover every cell).
    pub disk_hits: f64,
    /// Cold compile-path cost over warm restart cost (gated: relative
    /// vs baseline *and* absolute vs [`PERSIST_MIN_SPEEDUP`]).
    pub warm_speedup: f64,
}

/// Scans the text of a `BENCH_persist.json` for its per-kernel rows.
/// A new row starts at each `"kernel"` key.
pub fn parse_persist_rows(text: &str) -> Vec<PersistCheckRow> {
    let mut rows: Vec<PersistCheckRow> = Vec::new();
    for line in text.lines() {
        let Some((key, value)) = key_value(line) else {
            continue;
        };
        if key == "kernel" {
            rows.push(PersistCheckRow {
                kernel: value.trim_matches('"').to_string(),
                ..PersistCheckRow::default()
            });
            continue;
        }
        let Some(row) = rows.last_mut() else { continue };
        match key {
            "cells" => row.cells = value.parse().unwrap_or(0.0),
            "disk_hits" => row.disk_hits = value.parse().unwrap_or(0.0),
            "warm_speedup" => row.warm_speedup = value.parse().unwrap_or(0.0),
            _ => {}
        }
    }
    rows
}

/// Compares a fresh persist sweep against a baseline. Per kernel, the
/// fresh warm-start speedup may not drop more than `tolerance`
/// (relative) below the baseline (callers pass [`TAIL_TOLERANCE`]:
/// cold/warm divides wall-clock sums, noisier than the exec engine
/// ratios), and — absolutely, baseline or not — may not fall below
/// [`PERSIST_MIN_SPEEDUP`], the acceptance bar for the store being
/// worth opening at all. Each fresh row must also show `disk_hits ==
/// cells` (the warm process answered everything from disk; the bench
/// asserts this at run time, so a violation here means the JSON was
/// produced some other way). Baseline rows with a zero speedup warn
/// and skip the relative gate; baseline kernels missing from the fresh
/// run fail, mirroring [`check_exec`].
///
/// # Errors
///
/// A multi-line description of every violated bound.
pub fn check_persist(baseline: &str, fresh: &str, tolerance: f64) -> Result<String, String> {
    let base: BTreeMap<String, PersistCheckRow> = parse_persist_rows(baseline)
        .into_iter()
        .map(|r| (r.kernel.clone(), r))
        .collect();
    let fresh_rows = parse_persist_rows(fresh);
    if fresh_rows.is_empty() {
        return Err("fresh BENCH_persist.json has no kernel rows".into());
    }
    let fresh_names: Vec<&str> = fresh_rows.iter().map(|r| r.kernel.as_str()).collect();
    let mut report = String::from(
        "exec-check: persist warm-start speedup vs committed baseline\n\
         \n  kernel     cells   hits   warm(base)   warm(fresh)\n",
    );
    let mut warnings = String::new();
    let mut failures = String::new();
    for f in &fresh_rows {
        let b = base.get(&f.kernel);
        report.push_str(&format!(
            "  {:8}   {:5.0}   {:4.0}   {:9.1}x   {:10.1}x{}\n",
            f.kernel,
            f.cells,
            f.disk_hits,
            b.map_or(0.0, |b| b.warm_speedup),
            f.warm_speedup,
            if b.is_none() { "   (no baseline)" } else { "" },
        ));
        if f.warm_speedup < PERSIST_MIN_SPEEDUP {
            failures.push_str(&gate_failure_line(
                &format!("persist/{}", f.kernel),
                "warm_speedup",
                f.warm_speedup,
                PERSIST_MIN_SPEEDUP,
                0.0,
            ));
        }
        if f.disk_hits < f.cells {
            failures.push_str(&format!(
                "  persist/{}: warm process hit disk {:.0} times for {:.0} cells — \
                 the store failed to answer every request\n",
                f.kernel, f.disk_hits, f.cells,
            ));
        }
        if let Some(b) = b {
            if b.warm_speedup <= 0.0 {
                warnings.push_str(&format!(
                    "  warning: baseline has no warm_speedup for persist/{} — not gated\n",
                    f.kernel,
                ));
            } else if f.warm_speedup < b.warm_speedup * (1.0 - tolerance) {
                failures.push_str(&gate_failure_line(
                    &format!("persist/{}", f.kernel),
                    "warm_speedup",
                    f.warm_speedup,
                    b.warm_speedup,
                    tolerance,
                ));
            }
        }
    }
    for kernel in base.keys() {
        if !fresh_names.contains(&kernel.as_str()) {
            failures.push_str(&missing_row_line(&format!("persist/{kernel}")));
        }
    }
    if !warnings.is_empty() {
        report.push_str(&format!("\n{warnings}"));
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(format!("{report}\nREGRESSIONS:\n{failures}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive_bench::AdaptiveBenchRow;
    use crate::exec_bench::ExecBenchRow;
    use crate::persist_bench::PersistBenchRow;
    use crate::serve_bench::ServeBenchRow;
    use crate::{adaptive_json, exec_json, persist_json, serve_json};

    fn sample_row(name: &'static str, decode_ns: u64, fused_ns: u64) -> ExecBenchRow {
        engines_row(name, decode_ns, fused_ns, fused_ns / 2, fused_ns)
    }

    /// A row with every engine's wall-clock pinned independently, so
    /// tests can regress one gated column at a time.
    fn engines_row(
        name: &'static str,
        decode_ns: u64,
        fused_ns: u64,
        threaded_ns: u64,
        adaptive_ns: u64,
    ) -> ExecBenchRow {
        ExecBenchRow {
            name,
            reps: 10,
            decode_ns,
            predecoded_ns: fused_ns + 100,
            fused_ns,
            threaded_ns,
            adaptive_ns,
            promotions: 4,
            cycles: 1000,
            insns: 900,
            fused_pairs: 12,
            hit_rate: 1.0,
            batched_blocks: 40,
            fused_pairs_icode: 9,
            fused_pairs_icode_unsched: 7,
            superinstructions: 6,
            fused_dispatch_rate: 0.4,
            dispatches_per_insn: 0.5,
            pair_histogram: vec![("addiw+bne".into(), 20)],
        }
    }

    #[test]
    fn roundtrips_through_the_emitted_json() {
        let rows = vec![sample_row("hash", 4000, 1000), sample_row("ms", 9000, 2000)];
        let text = exec_json(&rows).pretty();
        let parsed = parse_exec_rows(&text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "hash");
        assert!((parsed[0].speedup_fused - 4.0).abs() < 1e-9);
        assert!((parsed[1].speedup_threaded - 9.0).abs() < 1e-9);
        assert!((parsed[0].speedup_threaded_vs_fused - 2.0).abs() < 1e-9);
        assert_eq!(parsed[0].fused_pairs_icode_delta, 2);
    }

    #[test]
    fn passes_within_tolerance_and_reports() {
        let base = exec_json(&[sample_row("hash", 4000, 1000)]).pretty();
        // 4.0x baseline; fresh 3.2x is a 20% drop — inside 30%.
        let fresh = exec_json(&[sample_row("hash", 3200, 1000)]).pretty();
        let report = check_exec(&base, &fresh, DEFAULT_TOLERANCE).expect("within tolerance");
        assert!(report.contains("hash"));
    }

    #[test]
    fn fails_beyond_tolerance() {
        let base = exec_json(&[sample_row("hash", 4000, 1000)]).pretty();
        // Fresh 2.0x vs baseline 4.0x: a 50% drop.
        let fresh = exec_json(&[sample_row("hash", 2000, 1000)]).pretty();
        let err = check_exec(&base, &fresh, DEFAULT_TOLERANCE).expect_err("regression");
        assert!(err.contains("REGRESSIONS"), "{err}");
        assert!(err.contains("hash"), "{err}");
    }

    #[test]
    fn fails_on_missing_kernel_and_tolerates_new_ones() {
        let base = exec_json(&[sample_row("hash", 4000, 1000)]).pretty();
        let fresh = exec_json(&[sample_row("ms", 4000, 1000)]).pretty();
        let err = check_exec(&base, &fresh, DEFAULT_TOLERANCE).expect_err("missing kernel");
        assert!(err.contains("missing from fresh run"), "{err}");
        // A fresh-only kernel alone is fine when the baseline is empty.
        let empty = exec_json(&[]).pretty();
        assert!(check_exec(&empty, &fresh, DEFAULT_TOLERANCE).is_ok());
    }

    #[test]
    fn fails_when_only_the_threaded_column_regresses() {
        // fused and adaptive hold steady; threaded alone drops from
        // 8.0x to 2.0x. The old single-column gate shipped this bug
        // through silently.
        let base = exec_json(&[engines_row("hash", 4000, 1000, 500, 1000)]).pretty();
        let fresh = exec_json(&[engines_row("hash", 4000, 1000, 2000, 1000)]).pretty();
        let err = check_exec(&base, &fresh, DEFAULT_TOLERANCE).expect_err("threaded regression");
        assert!(err.contains("speedup_threaded"), "{err}");
        assert!(!err.contains("speedup_fused 4"), "{err}");
    }

    #[test]
    fn fails_when_only_the_dispatch_reduction_regresses() {
        // Every wall-clock speedup holds; the threaded engine merely
        // dispatches more per instruction (0.5 → 0.9 dispatches/insn,
        // i.e. dispatch_reduction 2.0x → 1.11x, a 44% drop): losing the
        // superinstruction coverage must fail on its own.
        let base = exec_json(&[engines_row("hash", 4000, 1000, 500, 1000)]).pretty();
        let regressed = ExecBenchRow {
            dispatches_per_insn: 0.9,
            ..engines_row("hash", 4000, 1000, 500, 1000)
        };
        let fresh = exec_json(&[regressed]).pretty();
        let err = check_exec(&base, &fresh, DEFAULT_TOLERANCE).expect_err("dispatch regression");
        assert!(err.contains("dispatch_reduction"), "{err}");
        assert!(!err.contains("speedup_threaded 8"), "{err}");
    }

    #[test]
    fn baseline_without_dispatch_column_warns_instead_of_failing() {
        // A pre-superinstruction baseline has no dispatches_per_insn
        // key: the reciprocal parses to 0.0 and the column is skipped
        // with a warning, never gated.
        let base: String = exec_json(&[engines_row("hash", 4000, 1000, 500, 1000)])
            .pretty()
            .lines()
            .filter(|l| !l.contains("dispatches_per_insn"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!base.contains("dispatches_per_insn"));
        let fresh = exec_json(&[ExecBenchRow {
            dispatches_per_insn: 0.99,
            ..engines_row("hash", 4000, 1000, 500, 1000)
        }])
        .pretty();
        let report = check_exec(&base, &fresh, DEFAULT_TOLERANCE).expect("warns, not fails");
        assert!(
            report.contains("warning: baseline has no dispatch_reduction"),
            "{report}"
        );
    }

    #[test]
    fn fails_when_only_the_adaptive_column_regresses() {
        // adaptive alone drops from 4.0x to 1.0x (>30%).
        let base = exec_json(&[engines_row("hash", 4000, 1000, 500, 1000)]).pretty();
        let fresh = exec_json(&[engines_row("hash", 4000, 1000, 500, 4000)]).pretty();
        let err = check_exec(&base, &fresh, DEFAULT_TOLERANCE).expect_err("adaptive regression");
        assert!(err.contains("speedup_adaptive"), "{err}");
    }

    #[test]
    fn baseline_without_adaptive_column_warns_instead_of_failing() {
        // A pre-adaptive baseline: strip the adaptive lines from the
        // emitted JSON, as if the file had been written before the
        // column existed. Even a fresh adaptive value far below the
        // others must pass — with a warning — because there is nothing
        // to gate against.
        let base: String = exec_json(&[engines_row("hash", 4000, 1000, 500, 1000)])
            .pretty()
            .lines()
            .filter(|l| !l.contains("adaptive"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!base.contains("speedup_adaptive"));
        let fresh = exec_json(&[engines_row("hash", 4000, 1000, 500, 40000)]).pretty();
        let report = check_exec(&base, &fresh, DEFAULT_TOLERANCE).expect("warns, not fails");
        assert!(
            report.contains("warning: baseline has no speedup_adaptive"),
            "{report}"
        );
    }

    #[test]
    fn empty_fresh_is_an_error() {
        let base = exec_json(&[sample_row("hash", 4000, 1000)]).pretty();
        assert!(check_exec(&base, "{}", DEFAULT_TOLERANCE).is_err());
    }

    /// A sweep row with the cold-run p99 tails pinned (sync, bg), so
    /// tests can steer `tail_p99_improvement` directly.
    fn tail_row(kernel: &'static str, reuse: u64, p99_sync: u64, p99_bg: u64) -> AdaptiveBenchRow {
        AdaptiveBenchRow {
            kernel,
            reuse,
            reps: 4,
            decode_ns: 4000,
            fused_ns: 1500,
            threaded_ns: 1000,
            adaptive_ns: 1040,
            adaptive_bg_ns: 1020,
            promotions: 3,
            insns_tier: [0; 3],
            warm_decode_ns: 400,
            warm_fused_ns: 120,
            warm_threaded_ns: 100,
            warm_adaptive_ns: 103,
            warm_adaptive_bg_ns: 104,
            run_max_adaptive_ns: p99_sync * 2,
            run_p99_adaptive_ns: p99_sync,
            run_max_adaptive_bg_ns: p99_bg * 2,
            run_p99_adaptive_bg_ns: p99_bg,
        }
    }

    #[test]
    fn adaptive_rows_roundtrip_through_the_emitted_json() {
        let rows = vec![tail_row("hash", 4, 800, 250), tail_row("hash", 8, 900, 300)];
        let parsed = parse_adaptive_rows(&adaptive_json(&rows).pretty());
        // The warm_summary block repeats "kernel" but has no reuse key,
        // so only the two sweep rows survive.
        assert_eq!(parsed.len(), 2);
        assert_eq!((parsed[0].kernel.as_str(), parsed[0].reuse), ("hash", 4));
        assert!((parsed[0].tail_p99_improvement - 3.2).abs() < 1e-9);
        assert_eq!(parsed[1].reuse, 8);
    }

    #[test]
    fn adaptive_tail_passes_within_tolerance_and_warns_beyond() {
        let base = adaptive_json(&[tail_row("hash", 4, 800, 250)]).pretty(); // 3.2x
        let ok = adaptive_json(&[tail_row("hash", 4, 700, 280)]).pretty(); // 2.5x, -22%
        let report = check_adaptive(&base, &ok, DEFAULT_TOLERANCE).expect("within tolerance");
        assert!(report.contains("hash"), "{report}");
        assert!(!report.contains("WARN"), "{report}");
        // A wall-clock ratio reports; it does not fail the gate.
        let bad = adaptive_json(&[tail_row("hash", 4, 500, 500)]).pretty(); // 1.0x, -69%
        let report = check_adaptive(&base, &bad, DEFAULT_TOLERANCE).expect("reported, not gated");
        assert!(report.contains("WARN"), "{report}");
        assert!(
            report.contains("hash/4: tail_p99_improvement 1.00x"),
            "{report}"
        );
    }

    #[test]
    fn adaptive_tail_gate_warns_and_skips_zero_baselines() {
        // A baseline from before the tail columns: both p99 sides are
        // zero, so tail_p99_improvement serializes as 0.0. Even a
        // fresh collapse to 1.0x must pass with a warning.
        let base = adaptive_json(&[tail_row("hash", 4, 0, 0)]).pretty();
        let fresh = adaptive_json(&[tail_row("hash", 4, 500, 500)]).pretty();
        let report = check_adaptive(&base, &fresh, DEFAULT_TOLERANCE).expect("warns, not fails");
        assert!(
            report.contains("warning: baseline has no tail_p99_improvement"),
            "{report}"
        );
    }

    #[test]
    fn adaptive_tail_gate_handles_missing_and_new_rows() {
        let base = adaptive_json(&[tail_row("hash", 4, 800, 250)]).pretty();
        let fresh = adaptive_json(&[tail_row("hash", 8, 800, 250)]).pretty();
        let err = check_adaptive(&base, &fresh, DEFAULT_TOLERANCE).expect_err("missing row");
        assert!(err.contains("missing from fresh run"), "{err}");
        // Fresh-only rows against an empty baseline pass (all new).
        assert!(check_adaptive("{}", &fresh, DEFAULT_TOLERANCE).is_ok());
        // An empty fresh file is always an error.
        assert!(check_adaptive(&base, "{}", DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn gate_failure_line_names_every_component() {
        let line = gate_failure_line("serve/4", "throughput_ratio", 0.40, 1.0, 0.50);
        assert_eq!(
            line,
            "  serve/4: throughput_ratio 0.40x regressed below 0.50x \
             (baseline 1.00x - 50% tolerance)\n"
        );
        assert_eq!(
            missing_row_line("hash/4"),
            "  hash/4: present in baseline, missing from fresh run\n"
        );
    }

    /// A serve pool row with throughput, tail, and the structural
    /// columns pinned, serialized through the real emitter.
    fn serve_row(threads: u64, rps: f64, p99: u64, hit: f64, cpu: f64) -> ServeBenchRow {
        ServeBenchRow {
            threads,
            requests: 2000,
            elapsed_ns: 20_000_000,
            throughput_rps: rps,
            p50_ns: p99 / 10,
            p99_ns: p99,
            p999_ns: p99 * 3,
            hit_rate: hit,
            hits: 1900,
            misses: 70,
            waits: 3,
            evictions: 0,
            invalidations: 30,
            unique_fingerprints: 40,
            compiles: 69,
            compiles_per_unique: cpu,
            stale_faults: 2,
            checksum: 0xc840_4492_d610_a568,
        }
    }

    #[test]
    fn serve_rows_roundtrip_through_the_emitted_json() {
        let rows = vec![
            serve_row(1, 80_000.0, 50_000, 0.91, 0.93),
            serve_row(4, 100_000.0, 60_000, 0.96, 0.99),
        ];
        let parsed = parse_serve_rows(&serve_json(&rows).pretty());
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].threads, 1);
        assert_eq!(parsed[1].threads, 4);
        assert!((parsed[1].throughput_rps - 100_000.0).abs() < 1e-6);
        assert!((parsed[1].p99_ns - 60_000.0).abs() < 1e-6);
        assert!((parsed[1].hit_rate - 0.96).abs() < 1e-9);
        assert!((parsed[1].compiles_per_unique - 0.99).abs() < 1e-9);
    }

    #[test]
    fn serve_gate_passes_within_tolerance_and_fails_on_throughput() {
        let base = serve_json(&[serve_row(4, 100_000.0, 60_000, 0.96, 0.99)]).pretty();
        // 40% below baseline throughput: inside the 50% tail tolerance.
        let ok = serve_json(&[serve_row(4, 60_000.0, 60_000, 0.96, 0.99)]).pretty();
        let report = check_serve(&base, &ok, TAIL_TOLERANCE).expect("within tolerance");
        assert!(report.contains("serve"), "{report}");
        // 60% below: past the tolerance.
        let bad = serve_json(&[serve_row(4, 40_000.0, 60_000, 0.96, 0.99)]).pretty();
        let err = check_serve(&base, &bad, TAIL_TOLERANCE).expect_err("regression");
        assert!(err.contains("REGRESSIONS"), "{err}");
        assert!(err.contains("throughput_ratio"), "{err}");
    }

    #[test]
    fn serve_gate_fails_when_the_tail_blows_up() {
        let base = serve_json(&[serve_row(4, 100_000.0, 60_000, 0.96, 0.99)]).pretty();
        // p99 tripled: base/fresh = 0.33 — bimodal-tail noise the serve
        // gate's own wider tolerance absorbs.
        let noisy = serve_json(&[serve_row(4, 100_000.0, 180_000, 0.96, 0.99)]).pretty();
        check_serve(&base, &noisy, TAIL_TOLERANCE).expect("within SERVE_TAIL_TOLERANCE");
        // p99 6x: base/fresh = 0.17, below 1 - SERVE_TAIL_TOLERANCE.
        let bad = serve_json(&[serve_row(4, 100_000.0, 360_000, 0.96, 0.99)]).pretty();
        let err = check_serve(&base, &bad, TAIL_TOLERANCE).expect_err("tail regression");
        assert!(err.contains("tail_p99_ratio"), "{err}");
        assert!(err.contains("75% tolerance"), "{err}");
    }

    #[test]
    fn serve_gate_holds_the_largest_pool_to_absolute_bounds() {
        let base = serve_json(&[
            serve_row(1, 80_000.0, 50_000, 0.50, 0.93),
            serve_row(4, 100_000.0, 60_000, 0.96, 0.99),
        ])
        .pretty();
        // A cold small pool is fine; the 4-thread pool falling under
        // the hit-rate floor is not, even with healthy throughput.
        let bad_hit = serve_json(&[
            serve_row(1, 80_000.0, 50_000, 0.50, 0.93),
            serve_row(4, 100_000.0, 60_000, 0.80, 0.99),
        ])
        .pretty();
        let err = check_serve(&base, &bad_hit, TAIL_TOLERANCE).expect_err("hit-rate floor");
        assert!(err.contains("hit_rate"), "{err}");
        // Duplicated compiles (c/u above 1) on the largest pool fail.
        let dup = serve_json(&[serve_row(4, 100_000.0, 60_000, 0.96, 1.40)]).pretty();
        let err = check_serve(&base, &dup, TAIL_TOLERANCE).expect_err("duplicate compiles");
        assert!(err.contains("compiles_per_unique"), "{err}");
        assert!(err.contains("duplicated a compile"), "{err}");
    }

    #[test]
    fn serve_gate_warns_on_zero_baselines_and_handles_missing_rows() {
        let fresh = serve_json(&[serve_row(4, 100_000.0, 60_000, 0.96, 0.99)]).pretty();
        // Baseline with zeroed throughput/p99: warn and skip, not fail.
        let zeroed = serve_json(&[serve_row(4, 0.0, 0, 0.96, 0.99)]).pretty();
        let report = check_serve(&zeroed, &fresh, TAIL_TOLERANCE).expect("warns, not fails");
        assert!(
            report.contains("warning: baseline has no throughput_rps"),
            "{report}"
        );
        assert!(
            report.contains("warning: baseline has no p99_ns"),
            "{report}"
        );
        // A baseline pool size the fresh run dropped is a failure.
        let base = serve_json(&[
            serve_row(2, 90_000.0, 55_000, 0.95, 0.98),
            serve_row(4, 100_000.0, 60_000, 0.96, 0.99),
        ])
        .pretty();
        let err = check_serve(&base, &fresh, TAIL_TOLERANCE).expect_err("missing pool");
        assert!(
            err.contains("serve/2: present in baseline, missing"),
            "{err}"
        );
        // Fresh-only pools against an empty baseline pass (all new),
        // as long as the absolute bounds hold; empty fresh errors.
        assert!(check_serve("{}", &fresh, TAIL_TOLERANCE).is_ok());
        assert!(check_serve(&base, "{}", TAIL_TOLERANCE).is_err());
    }

    /// A persist kernel row serialized through the real emitter.
    fn persist_row(kernel: &str, cold_ns: u64, warm_ns: u64, disk_hits: u64) -> PersistBenchRow {
        PersistBenchRow {
            kernel: kernel.to_string(),
            cells: 6,
            cold_ns,
            warm_ns,
            disk_hits,
            load_ns: warm_ns / 3,
        }
    }

    #[test]
    fn persist_rows_roundtrip_through_the_emitted_json() {
        let rows = vec![
            persist_row("pk_pow", 120_000, 6_000, 6),
            persist_row("pk_dot", 90_000, 9_000, 6),
        ];
        let parsed = parse_persist_rows(&persist_json(&rows).pretty());
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].kernel, "pk_pow");
        assert!((parsed[0].warm_speedup - 20.0).abs() < 1e-9);
        assert!((parsed[0].cells - 6.0).abs() < 1e-9);
        assert!((parsed[1].disk_hits - 6.0).abs() < 1e-9);
    }

    #[test]
    fn persist_gate_passes_within_tolerance_and_fails_beyond() {
        let base = persist_json(&[persist_row("pk_pow", 120_000, 6_000, 6)]).pretty(); // 20x
                                                                                       // 12x: 40% below baseline, inside the 50% tail tolerance and
                                                                                       // above the absolute floor.
        let ok = persist_json(&[persist_row("pk_pow", 120_000, 10_000, 6)]).pretty();
        let report = check_persist(&base, &ok, TAIL_TOLERANCE).expect("within tolerance");
        assert!(report.contains("pk_pow"), "{report}");
        // 8x: still over the absolute 5x floor but 60% below baseline.
        let bad = persist_json(&[persist_row("pk_pow", 120_000, 15_000, 6)]).pretty();
        let err = check_persist(&base, &bad, TAIL_TOLERANCE).expect_err("regression");
        assert!(err.contains("REGRESSIONS"), "{err}");
        assert!(err.contains("warm_speedup"), "{err}");
    }

    #[test]
    fn persist_gate_holds_the_absolute_speedup_floor() {
        // 3x warm speedup: within any relative tolerance of its own
        // baseline, but below PERSIST_MIN_SPEEDUP — fails regardless.
        let row = persist_json(&[persist_row("pk_pow", 30_000, 10_000, 6)]).pretty();
        let err = check_persist(&row, &row, TAIL_TOLERANCE).expect_err("absolute floor");
        assert!(err.contains("warm_speedup"), "{err}");
        assert!(err.contains("5.00x"), "{err}");
        // And a warm process that missed disk fails structurally.
        let base = persist_json(&[persist_row("pk_pow", 120_000, 6_000, 6)]).pretty();
        let cold_hits = persist_json(&[persist_row("pk_pow", 120_000, 6_000, 4)]).pretty();
        let err = check_persist(&base, &cold_hits, TAIL_TOLERANCE).expect_err("missed disk");
        assert!(err.contains("failed to answer"), "{err}");
    }

    #[test]
    fn persist_gate_warns_on_zero_baselines_and_handles_missing_rows() {
        let fresh = persist_json(&[persist_row("pk_pow", 120_000, 6_000, 6)]).pretty();
        let zeroed = persist_json(&[persist_row("pk_pow", 0, 6_000, 6)]).pretty();
        let report = check_persist(&zeroed, &fresh, TAIL_TOLERANCE).expect("warns, not fails");
        assert!(
            report.contains("warning: baseline has no warm_speedup"),
            "{report}"
        );
        let base = persist_json(&[
            persist_row("pk_pow", 120_000, 6_000, 6),
            persist_row("pk_dot", 90_000, 9_000, 6),
        ])
        .pretty();
        let err = check_persist(&base, &fresh, TAIL_TOLERANCE).expect_err("missing kernel");
        assert!(
            err.contains("persist/pk_dot: present in baseline, missing"),
            "{err}"
        );
        // Fresh-only kernels against an empty baseline pass (all new),
        // as long as the absolute floor holds; empty fresh errors.
        assert!(check_persist("{}", &fresh, TAIL_TOLERANCE).is_ok());
        assert!(check_persist(&base, "{}", TAIL_TOLERANCE).is_err());
    }
}
