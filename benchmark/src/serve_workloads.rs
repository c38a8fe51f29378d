//! The pool workloads (`serve_hot`, `serve_churn`) and `warm_restart`,
//! all over `programs/serve.tc`.
//!
//! The pool is driven in-process and closed-loop: each worker thread
//! owns a session and a request stream and issues its next request
//! when the previous one returns — callers of a library wait for their
//! reply. Never more workers than cores.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use tcc::{Config, Error, Session, SharedArtifacts, TransHub, VmError};
use tcc_cache::PersistentStore;
use tcc_vm::CostModel;

use crate::cells::{cell_count, Cell, PARAMS_LARGE, PARAMS_SMALL, SERVE_SRC};
use crate::oracle::{serve_reference, Expected, ServeRef};
use crate::report::Shape;
use crate::rng::{Rng, Zipf};
use crate::trace::{self, SpanName, Tracer};
use crate::workload::{SliceOut, Workload};

/// Worker threads a pool workload uses: two, or one on a single core.
pub fn pool_workers() -> usize {
    cores().min(2)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What distinguishes the pool workloads.
pub struct PoolParams {
    pub name: &'static str,
    /// Parameter values per kernel (cells = 5 × this).
    pub params: u32,
    pub zipf_s: f64,
    /// A worker invalidates one resident artifact before every N-th of
    /// its requests.
    pub churn_every: usize,
    /// Shared-cache byte budget.
    pub budget: Option<u64>,
    pub requests_per_worker: usize,
    /// Wall-clock per window.
    pub window_ns: u64,
}

/// Hit-dominated: 40 cells under a steep Zipf, light churn, no budget.
/// Nearly every request is answered by the session's installed copy
/// (`touch` under a shard mutex, a generation check) — the read side of
/// the shared cache, where pool scaling is won or lost.
pub const SERVE_HOT: PoolParams = PoolParams {
    name: "serve_hot",
    params: PARAMS_SMALL,
    zipf_s: 1.1,
    churn_every: 64,
    budget: None,
    requests_per_worker: 73_728,
    window_ns: 100_000_000,
};

/// Miss-dominated: 320 cells drawn almost uniformly against a 24 KiB
/// budget (about a fifth of the working set), heavy churn. Publish,
/// evict, reclaim, recompile and stale-install collection dominate —
/// the write side of the same layer, so a hit-path gain that taxes
/// publish or evict shows here.
pub const SERVE_CHURN: PoolParams = PoolParams {
    name: "serve_churn",
    params: PARAMS_LARGE,
    zipf_s: 0.2,
    churn_every: 16,
    budget: Some(24 << 10),
    requests_per_worker: 12_288,
    window_ns: 100_000_000,
};

/// Session data memory. Every spec-time request leaks ~140 B of VM
/// heap (see README, "session heap leak"), so a session is sized for
/// one slice and rebuilt for the next.
const POOL_MEM: usize = 32 << 20;

/// Compile the cell, execute it once; recompile when another worker's
/// churn freed the address in between. Returns what the execution
/// reported, or `None` when the request failed.
fn request(
    s: &mut Session,
    cell: Cell,
    tr: &mut Tracer,
    stale: &mut i64,
) -> Option<(u64, u64, u64)> {
    for _ in 0..100 {
        let compiles = s.dyn_stats().compiles;
        let (addr, _) = tr.span(SpanName::CompileCall, || {
            s.call(cell.compile_entry(), &[cell.param()])
        });
        if tr.recording() && s.dyn_stats().compiles == compiles {
            tr.rename_last(SpanName::HitCall);
        }
        let addr = addr.ok()?;
        let (i0, c0) = (s.insns(), s.cycles());
        match tr
            .span(SpanName::ExecuteCall, || s.call_addr(addr, &[cell.arg()]))
            .0
        {
            Ok(result) => return Some((result, s.insns() - i0, s.cycles() - c0)),
            Err(Error::Vm(VmError::StaleCode(_))) => *stale += 1,
            Err(_) => return None,
        }
    }
    None
}

fn matches(got: Option<(u64, u64, u64)>, want: &ServeRef) -> bool {
    got == Some((want.result, want.insns, want.cycles))
}

pub struct Pool {
    p: &'static PoolParams,
    workers: usize,
    seed: u64,
    refs: Vec<ServeRef>,
    zipf: Zipf,
}

impl Pool {
    pub fn new(
        p: &'static PoolParams,
        workers: usize,
        seed: u64,
        expected: &Expected,
    ) -> Result<Pool, String> {
        let cells = cell_count(p.params);
        Ok(Pool {
            p,
            workers,
            seed,
            refs: serve_reference(cells, expected)?,
            zipf: Zipf::new(cells, p.zipf_s),
        })
    }

    /// Worker `w`'s requests in slice `index`: Zipf rank r is cell r.
    pub fn stream(&self, index: usize, w: usize) -> Vec<u32> {
        let mut rng = Rng::for_stream(self.seed, self.p.name, (index * self.workers + w) as u64);
        self.zipf.stream(&mut rng, self.p.requests_per_worker)
    }
}

struct WorkerOut {
    lat_ns: Vec<u64>,
    start_ns: Vec<u64>,
    failed: u64,
    stale: i64,
    end: Instant,
    session: Session,
    tracer: Tracer,
}

impl Workload for Pool {
    fn slice(&mut self, index: usize, record: bool) -> SliceOut {
        let streams: Vec<Vec<u32>> = (0..self.workers).map(|w| self.stream(index, w)).collect();
        let mut out = SliceOut::default();
        out.acc.unique_cells = {
            let mut seen = vec![false; self.refs.len()];
            streams
                .iter()
                .flatten()
                .for_each(|c| seen[*c as usize] = true);
            seen.iter().filter(|s| **s).count() as i64
        };

        let epoch = Instant::now();
        let shared = SharedArtifacts::new(16, self.p.budget);
        let hub = TransHub::spawn();
        let sessions: Vec<Session> = (0..self.workers)
            .map(|_| {
                Session::new(
                    SERVE_SRC,
                    Config {
                        shared: Some(Arc::clone(&shared)),
                        translation_hub: Some(hub.clone()),
                        adaptive_background: true,
                        mem_size: POOL_MEM,
                        ..Config::default()
                    },
                )
                .expect("serve.tc compiles")
            })
            .collect();
        out.setup_done(epoch, self.workers);
        let brk0: i64 = sessions.iter().map(|s| s.vm.state().mem.brk() as i64).sum();

        let barrier = Barrier::new(self.workers + 1);
        let (refs, p) = (&self.refs, self.p);
        let workers = self.workers;
        let (start, done) = std::thread::scope(|scope| {
            let handles: Vec<_> = sessions
                .into_iter()
                .zip(&streams)
                .enumerate()
                .map(|(w, (mut s, stream))| {
                    let (shared, barrier) = (&shared, &barrier);
                    scope.spawn(move || {
                        let mut tr = Tracer::new(record, epoch, w as u8);
                        let mut lat_ns = Vec::with_capacity(stream.len());
                        let mut start_ns = Vec::with_capacity(stream.len());
                        let (mut failed, mut stale) = (0u64, 0i64);
                        barrier.wait();
                        for (i, c) in stream.iter().enumerate() {
                            let t = tr.begin_op();
                            start_ns.push((t - epoch).as_nanos() as u64);
                            if (i + 1) % p.churn_every == 0 {
                                tr.span(SpanName::Invalidate, || {
                                    let k = (i * workers + w) as u64;
                                    if let Some(fp) = shared.sample_fingerprint(k) {
                                        shared.invalidate(&fp);
                                    }
                                });
                            }
                            let got = request(&mut s, Cell(*c), &mut tr, &mut stale);
                            lat_ns.push(tr.end_op(t));
                            failed += u64::from(!matches(got, &refs[*c as usize]));
                        }
                        WorkerOut {
                            lat_ns,
                            start_ns,
                            failed,
                            stale,
                            end: Instant::now(),
                            session: s,
                            tracer: tr,
                        }
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let done: Vec<WorkerOut> = handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked"))
                .collect();
            (start, done)
        });

        out.acc.absorb_shared(&shared.metrics());
        for w in done {
            out.busy_ns = out.busy_ns.max((w.end - start).as_nanos() as u64);
            out.lat_ns.extend(w.lat_ns);
            out.start_ns.extend(w.start_ns);
            out.failed += w.failed;
            out.acc.stale_faults += w.stale;
            out.acc.absorb(&w.session.metrics(), 1);
            out.acc.heap_bytes += w.session.vm.state().mem.brk() as i64;
            trace::merge(&mut out.spans, w.tracer.into_spans());
        }
        out.acc.heap_bytes -= brk0;
        out.acc.requests = out.lat_ns.len() as i64;
        out
    }

    fn shape(&self) -> Shape {
        Shape::Pool {
            workers: self.workers,
            window_ns: self.p.window_ns,
        }
    }

    fn gen_insns(&self) -> u64 {
        self.refs.iter().map(|r| r.gen_insns).sum()
    }

    fn run_cycles(&self) -> u64 {
        self.refs.iter().map(|r| r.cycles).sum()
    }
}

// ---------------------------------------------------------------------
// warm_restart
// ---------------------------------------------------------------------

/// Restarts per slice.
const RESTARTS: usize = 288;
/// Cells each restarted process asks for.
const RESTART_CELLS: usize = 64;
/// Restarts per window (≈ 50 ms).
const RESTART_WINDOW: usize = 16;

/// One op = what a restarted process pays before it is useful again:
/// `Session::new` against a store already holding all 320 cells, 64
/// compile calls (a seeded subset, drawn per op) that the store must
/// answer, one execution of each, and the drop. The disk path of the
/// cache, `install_function`, and front-end/static start-up; zero
/// back-end compiles and zero disk misses are required of every op.
pub struct WarmRestart {
    seed: u64,
    refs: Vec<ServeRef>,
    dir: PathBuf,
}

impl WarmRestart {
    pub fn new(seed: u64, expected: &Expected, out_dir: &std::path::Path) -> Result<Self, String> {
        let dir = out_dir.join("tmp");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WarmRestart {
            seed,
            refs: serve_reference(cell_count(PARAMS_LARGE), expected)?,
            dir,
        })
    }

    fn config(path: &std::path::Path, mem_size: usize) -> Config {
        Config {
            persist_path: Some(path.to_path_buf()),
            mem_size,
            ..Config::default()
        }
    }
}

impl Workload for WarmRestart {
    fn slice(&mut self, index: usize, record: bool) -> SliceOut {
        let mut rng = Rng::for_stream(self.seed, "warm_restart", index as u64);
        let cells = self.refs.len() as u32;
        let subsets: Vec<Vec<u32>> = (0..RESTARTS)
            .map(|_| rng.subset(cells, RESTART_CELLS))
            .collect();
        let path = self
            .dir
            .join(format!("warm_{}_{index}.store", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let epoch = Instant::now();
        let mut tr = Tracer::new(record, epoch, 0);
        let mut out = SliceOut::default();
        // Prime: a first process compiles every cell and flushes.
        let mut primer = Session::new(SERVE_SRC, WarmRestart::config(&path, 4 << 20))
            .expect("serve.tc compiles");
        let mut primed = true;
        for c in 0..cells {
            let cell = Cell(c);
            primed &= primer.call(cell.compile_entry(), &[cell.param()]).is_ok();
        }
        primed &= tr
            .span(SpanName::PersistFlush, || primer.flush_persist())
            .0
            .is_ok();
        let salt = tcc::persist_abi_salt(&primer.image, &CostModel::default());
        drop(primer);
        let (store, _) = tr.span(SpanName::PersistOpen, || PersistentStore::open(&path, salt));
        primed &= store.len() == cells as usize;
        drop(store);
        out.setup_done(epoch, 1);

        for subset in &subsets {
            let mut ok = primed;
            let mut stale = 0;
            let t = tr.begin_op();
            let (s, _) = tr.span(SpanName::SessionNew, || {
                Session::new(SERVE_SRC, WarmRestart::config(&path, 1 << 20))
            });
            let mut s = s.expect("serve.tc compiles");
            let brk0 = s.vm.state().mem.brk() as i64;
            for c in subset {
                let got = request(&mut s, Cell(*c), &mut tr, &mut stale);
                ok &= matches(got, &self.refs[*c as usize]);
            }
            let m = s.metrics();
            out.acc.heap_bytes += s.vm.state().mem.brk() as i64 - brk0;
            tr.span(SpanName::SessionDrop, || drop(s));
            out.lat_ns.push(tr.end_op(t));
            out.acc.absorb(&m, 1);
            ok &= m.dynamic.compiles == 0 && m.persist.disk_misses == 0;
            out.failed += u64::from(!ok);
        }
        let _ = std::fs::remove_file(&path);
        out.acc.unique_cells = cells as i64;
        out.finish(tr)
    }

    fn shape(&self) -> Shape {
        Shape::Rounds {
            window_ops: RESTART_WINDOW,
        }
    }

    fn gen_insns(&self) -> u64 {
        self.refs.iter().map(|r| r.gen_insns).sum()
    }

    fn run_cycles(&self) -> u64 {
        self.refs.iter().map(|r| r.cycles).sum()
    }
}
