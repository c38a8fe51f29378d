//! # tcc-serve — the multi-tenant codegen service harness
//!
//! The paper's system compiles for one program in one thread. This
//! crate turns the stack into a *service*: a pool of worker threads,
//! each owning its own [`Session`] (VM + code space + runtime), all
//! sharing one [`SharedArtifacts`] cache and one background
//! translation hub. A seeded Zipfian request stream — mixed
//! compile/execute with periodic rule-set churn — is replayed across
//! the pool, and the harness reports throughput, tail latency, shared
//! cache hit rate, and compiles-per-unique-fingerprint.
//!
//! The load model: `KERNELS.len()` code-generating kernels, each
//! parameterized by a small integer (`$`-bound at spec time), giving
//! `kernels × params` distinct *cells*. Each request draws a cell from
//! a Zipf distribution (hot working set), asks its session to compile
//! the cell's closure (memo → shared install → fresh compile, in that
//! order), and executes the produced function on a cell-derived
//! argument. Requests are bit-deterministic: the same cell must
//! produce the same result, instruction count, and cycle count on
//! every thread of every pool size — the differential harness inside
//! [`run_serve`] asserts this of every single request, after the replay.
//!
//! Churn: every `churn_every`-th request invalidates a resident
//! artifact chosen deterministically from the shared cache, forcing
//! recompiles and exercising the cross-thread stale-code path
//! (`VmError::StaleCode`, retried by the worker — never stale bytes).

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::distributions::{Distribution, Zipf};
use rand::{rngs::StdRng, SeedableRng};
use tcc::{Config, Error, Session, SharedArtifacts, TransHub, VmError};
use tcc_obs::SharedCacheMetrics;

/// The service's code-generating kernels: one `C entry point per
/// workload shape, each `long srv_*(int p)` returning the compiled
/// function pointer. Tick bodies are pure (no memory reads), so every
/// (kernel, p) cell fingerprints cacheably.
pub const KERNELS: [&str; 5] = ["srv_pow", "srv_poly", "srv_filter", "srv_hash", "srv_dot"];

/// The combined `C source every worker session loads.
pub const SERVE_SRC: &str = r#"
    long srv_pow(int p) {
        int vspec x = param(int, 0);
        int cspec c = `1;
        int i;
        for (i = 0; i < p; i++) c = `(c * x);
        return (long)compile(c, int);
    }
    long srv_poly(int p) {
        int vspec x = param(int, 0);
        int cspec c = `0;
        int i;
        for (i = 1; i <= p; i++) c = `(c * x + $i);
        return (long)compile(c, int);
    }
    long srv_filter(int p) {
        int vspec x = param(int, 0);
        int cspec c = `(((x >> $p) ^ x) & ((1 << $p) + 7));
        return (long)compile(c, int);
    }
    long srv_hash(int p) {
        int vspec x = param(int, 0);
        int cspec h = `x;
        int i;
        for (i = 0; i < p; i++) h = `((h ^ ($i * 40503)) * 31);
        return (long)compile(h, int);
    }
    long srv_dot(int p) {
        int vspec x = param(int, 0);
        int cspec c = `0;
        int i;
        for (i = 1; i <= p; i++) c = `(c + (x >> $i) * $i);
        return (long)compile(c, int);
    }
"#;

/// Knobs for one serve run.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Total requests replayed across the pool.
    pub requests: usize,
    /// Parameter values per kernel (cells = kernels × this).
    pub params_per_kernel: u64,
    /// Stream seed (Zipf draws).
    pub seed: u64,
    /// Zipf exponent (`s = 0` = uniform; ~1 = classic hot set).
    pub zipf_s: f64,
    /// Invalidate a resident artifact every N requests (`None` = no
    /// churn).
    pub churn_every: Option<usize>,
    /// Shared-cache byte budget (`None` = unbounded).
    pub budget: Option<u64>,
}

impl ServeOptions {
    /// The full-size configuration (the repo benchmark's
    /// `serve.run_serve_*` layer replays it, at 40,000 requests).
    pub fn full() -> ServeOptions {
        ServeOptions {
            requests: 2000,
            params_per_kernel: 8,
            seed: 0x5eed_5e12,
            zipf_s: 1.1,
            churn_every: Some(64),
            budget: None,
        }
    }

    /// A seconds-scale variant for tests (`tests/concurrency.rs`).
    pub fn smoke() -> ServeOptions {
        ServeOptions {
            requests: 150,
            params_per_kernel: 2,
            seed: 0x5eed_5e12,
            zipf_s: 1.1,
            churn_every: Some(32),
            budget: None,
        }
    }

    /// Distinct (kernel, param) cells this configuration can draw.
    pub fn cells(&self) -> u64 {
        KERNELS.len() as u64 * self.params_per_kernel
    }
}

/// What one pool run measured.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Worker threads (= sessions) in the pool.
    pub threads: usize,
    /// Requests served.
    pub requests: u64,
    /// Wall-clock for the whole replay.
    pub elapsed_ns: u64,
    /// Requests per second over the wall clock.
    pub throughput_rps: f64,
    /// Median per-request latency.
    pub p50_ns: u64,
    /// 99th-percentile per-request latency.
    pub p99_ns: u64,
    /// 99.9th-percentile per-request latency.
    pub p999_ns: u64,
    /// Shared-cache counters at the end of the run.
    pub metrics: SharedCacheMetrics,
    /// Distinct cells the stream actually requested.
    pub unique_fingerprints: u64,
    /// Compiles actually performed (shared-cache publishes).
    pub compiles: u64,
    /// Compiles per compile-worthy event: `published / (unique +
    /// invalidations + evictions)`. ≈ 1 means concurrent sessions
    /// never duplicated a compile.
    pub compiles_per_unique: f64,
    /// `StaleCode` faults workers recovered from (churn races).
    pub stale_faults: u64,
    /// Order-independent digest over every request's (cell, result,
    /// insns, cycles) — must be identical for every pool size.
    pub checksum: u64,
}

/// One request: a cell index encoding (kernel, param).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Cell(u32);

impl Cell {
    fn kernel(self) -> &'static str {
        KERNELS[self.0 as usize % KERNELS.len()]
    }
    fn param(self) -> u64 {
        self.0 as u64 / KERNELS.len() as u64 + 1
    }
    /// The cell-derived execution argument (thread-independent).
    fn arg(self) -> u64 {
        (self.0 as u64 * 7 + 3) % 97 + 1
    }
}

/// splitmix64-style mixer for the order-independent checksum.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z.wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// Pre-generates the request stream: the same (seed, cells, s) always
/// yields the same cell sequence, so every pool size replays an
/// identical workload.
fn gen_stream(opts: &ServeOptions) -> Vec<Cell> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let zipf = Zipf::new(opts.cells(), opts.zipf_s).expect("valid Zipf parameters");
    (0..opts.requests)
        .map(|_| Cell((zipf.sample(&mut rng) - 1) as u32))
        .collect()
}

/// Nearest-rank percentile over a sorted latency vector.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What each worker records per request, merged after the join.
#[derive(Default)]
struct WorkerOut {
    latencies_ns: Vec<u64>,
    /// Every request's signature, in the order this worker served them:
    /// what the differential and the replay digest are computed from,
    /// once the clock has stopped.
    signatures: Vec<(Cell, Signature)>,
    stale_faults: u64,
}

/// Per-cell execution signature for the differential harness.
type Signature = (u64, u64, u64); // (result, insns, cycles)

/// One pool worker's session: promoted translations are built on the
/// shared background hub.
fn serve_session(shared: &Arc<SharedArtifacts>, hub: &TransHub<tcc::TccRuntime>) -> Session {
    Session::new(
        SERVE_SRC,
        Config {
            shared: Some(Arc::clone(shared)),
            translation_hub: Some(hub.clone()),
            adaptive_background: true,
            mem_size: 8 << 20,
            ..Config::default()
        },
    )
    .expect("serve source compiles")
}

/// Compiles and executes one cell in `session`, retrying compile +
/// execute when churn on another thread faulted the address stale.
fn serve_one(session: &mut Session, cell: Cell, out: &mut WorkerOut) -> Signature {
    let mut attempts = 0;
    loop {
        let addr = session
            .call(cell.kernel(), &[cell.param()])
            .expect("kernel compile succeeds");
        let i0 = session.insns();
        let c0 = session.cycles();
        match session.call_addr(addr, &[cell.arg()]) {
            Ok(result) => {
                return (result, session.insns() - i0, session.cycles() - c0);
            }
            Err(Error::Vm(VmError::StaleCode(_))) => {
                // Another session's churn dropped the artifact between
                // our compile step and the execution: recompile.
                out.stale_faults += 1;
                attempts += 1;
                assert!(attempts < 100, "stale-code retry did not converge");
            }
            Err(e) => panic!("serve request failed: {e}"),
        }
    }
}

/// Replays the request stream over a pool of `threads` sessions
/// sharing one artifact cache and one translation hub.
///
/// # Panics
///
/// On any cross-thread divergence: a cell whose result, executed
/// instruction count, or cycle count differs from another thread's
/// execution of the same cell (the differential harness), or any
/// non-stale execution error.
pub fn run_serve(threads: usize, opts: &ServeOptions) -> ServeReport {
    assert!(threads >= 1, "pool needs at least one worker");
    let stream = Arc::new(gen_stream(opts));
    let unique: u64 = {
        let mut cells: Vec<u32> = stream.iter().map(|c| c.0).collect();
        cells.sort_unstable();
        cells.dedup();
        cells.len() as u64
    };
    let shared = SharedArtifacts::new(16, opts.budget);
    let hub = TransHub::spawn();
    let next = Arc::new(AtomicUsize::new(0));
    // Sessions are built (front end + static codegen) outside the
    // timed window: a service constructs its pool once, then serves.
    let sessions: Vec<Session> = (0..threads).map(|_| serve_session(&shared, &hub)).collect();

    let t0 = Instant::now();
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for mut session in sessions {
            let stream = Arc::clone(&stream);
            let next = Arc::clone(&next);
            let shared = Arc::clone(&shared);
            let churn_every = opts.churn_every;
            joins.push(scope.spawn(move || {
                let mut out = WorkerOut::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= stream.len() {
                        break;
                    }
                    let cell = stream[i];
                    let t = Instant::now();
                    if let Some(every) = churn_every {
                        if i > 0 && i.is_multiple_of(every) {
                            // Deterministic pick; rule-set churn.
                            if let Some(fp) = shared.sample_fingerprint(i as u64) {
                                shared.invalidate(&fp);
                            }
                        }
                    }
                    let sig = serve_one(&mut session, cell, &mut out);
                    out.latencies_ns.push(t.elapsed().as_nanos() as u64);
                    out.signatures.push((cell, sig));
                }
                out
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("worker"))
            .collect()
    });
    let elapsed_ns = t0.elapsed().as_nanos() as u64;

    // The differential: every execution of a cell must match the first
    // recorded signature, no matter which thread ran it or which session
    // compiled it. Checked here, over what the workers wrote down, so
    // that no request waits on another's check inside the timed window.
    let mut differential: HashMap<Cell, Signature> = HashMap::new();
    let mut checksum = 0u64;
    for &(cell, sig) in outs.iter().flat_map(|out| &out.signatures) {
        let first = *differential.entry(cell).or_insert(sig);
        assert_eq!(
            first, sig,
            "cell {cell:?} diverged across threads: {first:?} vs {sig:?}"
        );
        checksum = checksum.wrapping_add(mix(
            cell.0 as u64,
            sig.0 ^ sig.1.rotate_left(16) ^ sig.2.rotate_left(32),
        ));
    }

    let mut latencies: Vec<u64> = Vec::with_capacity(stream.len());
    let mut stale_faults = 0u64;
    for out in outs {
        latencies.extend(out.latencies_ns);
        stale_faults += out.stale_faults;
    }
    latencies.sort_unstable();
    let metrics = shared.metrics();
    let compile_worthy = unique + metrics.invalidations + metrics.evictions;
    ServeReport {
        threads,
        requests: latencies.len() as u64,
        elapsed_ns,
        throughput_rps: latencies.len() as f64 / (elapsed_ns.max(1) as f64 / 1e9),
        p50_ns: percentile(&latencies, 0.50),
        p99_ns: percentile(&latencies, 0.99),
        p999_ns: percentile(&latencies, 0.999),
        unique_fingerprints: unique,
        compiles: metrics.published,
        compiles_per_unique: metrics.published as f64 / compile_worthy.max(1) as f64,
        stale_faults,
        checksum,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_skewed() {
        let opts = ServeOptions::smoke();
        let a = gen_stream(&opts);
        let b = gen_stream(&opts);
        assert_eq!(a, b, "same seed, same stream");
        assert_eq!(a.len(), opts.requests);
        assert!(a.iter().all(|c| (c.0 as u64) < opts.cells()));
        // Zipf: the hottest cell dominates a uniform share.
        let mut counts = vec![0usize; opts.cells() as usize];
        for c in &a {
            counts[c.0 as usize] += 1;
        }
        let max = *counts.iter().max().expect("non-empty");
        assert!(
            max * (opts.cells() as usize) > 2 * opts.requests,
            "hot cell should exceed 2x the uniform share"
        );
    }

    #[test]
    fn cells_cover_every_kernel_and_param() {
        let opts = ServeOptions::full();
        let mut kernels = std::collections::BTreeSet::new();
        let mut params = std::collections::BTreeSet::new();
        for raw in 0..opts.cells() as u32 {
            kernels.insert(Cell(raw).kernel());
            params.insert(Cell(raw).param());
        }
        assert_eq!(kernels.len(), KERNELS.len());
        assert_eq!(params.len(), opts.params_per_kernel as usize);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&lat, 0.50), 50);
        assert_eq!(percentile(&lat, 0.99), 99);
        assert_eq!(percentile(&lat, 0.999), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn single_thread_smoke_run_is_consistent() {
        let r = run_serve(1, &ServeOptions::smoke());
        assert_eq!(r.requests, 150);
        assert!(r.compiles >= r.unique_fingerprints);
        assert!(r.metrics.hit_rate() > 0.5, "hot set must mostly hit");
        assert!(r.compiles_per_unique <= 1.0 + 1e-9);
        assert!(r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns);
    }
}
