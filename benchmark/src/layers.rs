//! The direct-call pass: each layer's public entry points called on
//! their own, outside any workload, so a layer's cost has a number
//! that does not depend on what else a request does. Runs only in the
//! traced pass; the same for every workload.
//!
//! Each measurement repeats a few times and keeps the fastest — these
//! are fixed computations, and noise only adds time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use tcc::{Config, ExecEngine, Session, SharedArtifacts};
use tcc_cache::{Acquire, Artifact, Fingerprint, FingerprintBuilder, PersistentStore};
use tcc_mir::{build_image_scheduled, OptLevel};
use tcc_serve::{run_serve, ServeOptions};
use tcc_vm::CostModel;

use crate::cells::{
    cell_count, loop_kernels, open_suite, suite, suite_config, Cell, BACKENDS, PARAMS_LARGE,
    SERVE_SRC,
};
use crate::oracle::Expected;
use crate::report::window_rate;
use crate::serve_workloads::{pool_workers, Pool, SERVE_HOT};
use crate::stats::{geomean, percentile};
use crate::workload::Workload;

pub type Values = BTreeMap<&'static str, f64>;

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Fastest of `reps` timings of `f`, in ns.
fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn div(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// `front` and `mir`: parse + sema, then static lowering and linking,
/// over the 14 suite sources and `serve.tc`.
fn front_and_mir(v: &mut Values) {
    let mut sources: Vec<&str> = suite().iter().map(|b| b.src).collect();
    sources.push(SERVE_SRC);
    let bytes: usize = sources.iter().map(|s| s.len()).sum();
    let mut static_insns = 0;
    let mut mir_ns = f64::INFINITY;
    let front_ns = best_of(3, || {
        let t = Instant::now();
        let progs: Vec<_> = sources
            .iter()
            .map(|s| tcc_front::compile_unit(s).expect("benchmark sources compile"))
            .collect();
        let front = ns_since(t);
        let t = Instant::now();
        static_insns = progs
            .iter()
            .map(|p| {
                build_image_scheduled(p, OptLevel::Optimizing, 1 << 20, true)
                    .expect("benchmark sources link")
                    .static_insns
            })
            .sum();
        mir_ns = mir_ns.min(ns_since(t));
        front
    });
    v.insert("front.parse_sema_us", front_ns / 1e3);
    v.insert("front.src_bytes_per_s", div(bytes as f64 * 1e9, front_ns));
    v.insert("mir.build_image_us", mir_ns / 1e3);
    v.insert("mir.static_insns", static_insns as f64);
}

/// `vcode` / `icode`: every suite program compiled `REPS` times per
/// back end, memo off; `DynMetrics` gives the walk/back-end split and
/// the ICODE phase breakdown (the paper's Figure 7), one run of each
/// generated function the modelled cycles.
fn backends(v: &mut Values) {
    const REPS: u64 = 24;
    for (b, backend) in BACKENDS.iter().enumerate() {
        let mut best = tcc::DynMetrics {
            total_ns: u64::MAX,
            ..Default::default()
        };
        let mut cycles = 0;
        for _ in 0..3 {
            let mut sum = tcc::DynMetrics::default();
            cycles = 0;
            for bench in suite() {
                let mut s = open_suite(&bench, suite_config(backend, false, None));
                let mut fp = 0;
                for _ in 0..REPS {
                    fp = (bench.compile_dyn)(&mut s);
                }
                let c0 = s.cycles();
                (bench.run_dyn)(&mut s, fp);
                cycles += s.cycles() - c0;
                let d = s.dyn_stats();
                sum.total_ns += d.total_ns;
                sum.walk_ns += d.walk_ns;
                sum.phases.accumulate(&d.phases);
                sum.generated_insns += d.generated_insns;
                sum.ir_insns += d.ir_insns;
                sum.spills += d.spills;
            }
            if sum.total_ns < best.total_ns {
                best = sum;
            }
        }
        let insns = best.generated_insns as f64;
        let ir = best.ir_insns as f64;
        let per_compile = |n: u64| (n / REPS) as f64;
        match b {
            0 => {
                let emit = best.total_ns.saturating_sub(best.walk_ns) as f64;
                v.insert("vcode.emit_ns_per_insn", div(emit, insns));
                v.insert("vcode.gen_insns", per_compile(best.generated_insns));
                v.insert("vcode.run_cycles", cycles as f64);
            }
            1 => {
                v.insert("icode.ls_ns_per_insn", div(best.total_ns as f64, insns));
                let p = best.phases;
                v.insert("icode.peephole_ns_per_ir", div(p.peephole_ns as f64, ir));
                v.insert("icode.flow_ns_per_ir", div(p.flow_ns as f64, ir));
                v.insert("icode.liveness_ns_per_ir", div(p.liveness_ns as f64, ir));
                v.insert("icode.intervals_ns_per_ir", div(p.intervals_ns as f64, ir));
                v.insert("icode.alloc_ls_ns_per_ir", div(p.alloc_ns as f64, ir));
                v.insert("icode.emit_ns_per_ir", div(p.emit_ns as f64, ir));
                v.insert("icode.ir_insns", per_compile(best.ir_insns));
                v.insert("icode.spills_ls", per_compile(best.spills));
                v.insert("icode.gen_insns", per_compile(best.generated_insns));
                v.insert("icode.run_cycles", cycles as f64);
            }
            _ => {
                v.insert("icode.gc_ns_per_insn", div(best.total_ns as f64, insns));
                v.insert(
                    "icode.alloc_gc_ns_per_ir",
                    div(best.phases.alloc_ns as f64, ir),
                );
                v.insert("icode.spills_gc", per_compile(best.spills));
            }
        }
    }
}

fn synthetic_fp(i: u64) -> Fingerprint {
    let mut b = FingerprintBuilder::new();
    b.push_tag(0xB7);
    b.push_u64(i);
    b.build()
}

/// `cache`, in-memory side: the shared cache's own operations on
/// synthetic fingerprints, from one thread and from two.
/// `touch_ns_2t − touch_ns_1t` is the contention a sharding change
/// would remove.
fn shared_cache(v: &mut Values) {
    const ENTRIES: u64 = 4096;
    const TOUCHES: usize = 400_000;
    let fps: Vec<Fingerprint> = (0..ENTRIES).map(synthetic_fp).collect();
    let mut publish = f64::INFINITY;
    let mut invalidate = f64::INFINITY;
    let mut get_hit = f64::INFINITY;
    let mut touch1 = f64::INFINITY;
    let mut touch2 = f64::INFINITY;
    for _ in 0..3 {
        let shared = SharedArtifacts::new(16, None);
        let t = Instant::now();
        for fp in &fps {
            if let Acquire::Miss(claim) = shared.get_or_begin(fp) {
                claim.publish(Artifact {
                    name: "synthetic".to_string(),
                    orig_start: 0,
                    words: vec![0; 32],
                    bytes: 128,
                    compile_ns: 0,
                    translation: None,
                });
            }
        }
        publish = publish.min(ns_since(t) / ENTRIES as f64);

        let t = Instant::now();
        for _ in 0..16 {
            for fp in &fps {
                black_box(matches!(shared.get_or_begin(fp), Acquire::Hit { .. }));
            }
        }
        get_hit = get_hit.min(ns_since(t) / (16 * ENTRIES) as f64);

        let touch = |shared: &SharedArtifacts, from: usize| {
            let t = Instant::now();
            for i in 0..TOUCHES {
                black_box(shared.touch(&fps[(from + i) % fps.len()]));
            }
            ns_since(t) / TOUCHES as f64
        };
        touch1 = touch1.min(touch(&shared, 0));
        if pool_workers() >= 2 {
            let barrier = Barrier::new(2);
            let per_thread: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2)
                    .map(|w| {
                        let (shared, barrier, touch) = (&shared, &barrier, &touch);
                        scope.spawn(move || {
                            barrier.wait();
                            touch(shared, w * 977)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("touch thread panicked"))
                    .collect()
            });
            touch2 = touch2.min(per_thread.iter().sum::<f64>() / 2.0);
        }

        let t = Instant::now();
        for fp in &fps {
            black_box(shared.invalidate(fp));
        }
        invalidate = invalidate.min(ns_since(t) / ENTRIES as f64);
    }
    v.insert("cache.publish_ns", publish);
    v.insert("cache.get_hit_ns", get_hit);
    v.insert("cache.touch_ns_1t", touch1);
    // On a single core there is no second thread to contend with.
    v.insert(
        "cache.touch_ns_2t",
        if touch2.is_finite() { touch2 } else { touch1 },
    );
    v.insert("cache.invalidate_ns", invalidate);
}

/// The private memo's own clock for a hit (`CacheMetrics::hit_ns`):
/// one serve cell compiled again and again in a default session.
fn private_memo(v: &mut Values) {
    const CALLS: usize = 20_000;
    let mut s = Session::new(
        SERVE_SRC,
        Config {
            mem_size: 8 << 20,
            ..Config::default()
        },
    )
    .expect("serve.tc compiles");
    let cell = Cell(22);
    for _ in 0..CALLS {
        black_box(s.call(cell.compile_entry(), &[cell.param()]).ok());
    }
    let m = s.metrics().cache;
    v.insert("cache.memo_hit_ns", div(m.hit_ns as f64, m.hits as f64));
}

/// `cache`, disk side, and `vm` install/free: a 320-cell store primed
/// through a one-session pool (which also hands back the cells'
/// fingerprints), then opened, loaded and installed directly.
fn persist_and_install(v: &mut Values, out_dir: &Path) -> Result<(), String> {
    let dir = out_dir.join("tmp");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("layers_{}.store", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cells = cell_count(PARAMS_LARGE);

    let shared = SharedArtifacts::new(16, None);
    let mut s = Session::new(
        SERVE_SRC,
        Config {
            shared: Some(Arc::clone(&shared)),
            persist_path: Some(path.clone()),
            mem_size: 4 << 20,
            ..Config::default()
        },
    )
    .expect("serve.tc compiles");
    for c in 0..cells {
        let cell = Cell(c);
        s.call(cell.compile_entry(), &[cell.param()])
            .map_err(|e| format!("priming cell {c}: {e}"))?;
    }
    let fps: Vec<Fingerprint> = (0..cells as u64)
        .filter_map(|k| shared.sample_fingerprint(k))
        .collect();
    let t = Instant::now();
    s.flush_persist().map_err(|e| format!("flush: {e}"))?;
    v.insert("cache.persist_flush_us", ns_since(t) / 1e3);
    let salt = tcc::persist_abi_salt(&s.image, &CostModel::default());
    let code = s.image.code.clone();
    drop(s);
    drop(shared);
    let file_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("store: {e}"))?
        .len();
    v.insert("cache.persist_file_bytes", file_bytes as f64);

    let open_ns = best_of(5, || {
        let t = Instant::now();
        black_box(PersistentStore::open(&path, salt).len());
        ns_since(t)
    });
    v.insert("cache.persist_open_us", open_ns / 1e3);

    let mut store = PersistentStore::open(&path, salt);
    if store.len() != cells as usize || fps.len() != cells as usize {
        return Err(format!(
            "primed store holds {} of {cells} cells ({} fingerprints)",
            store.len(),
            fps.len()
        ));
    }
    let mut arts = Vec::new();
    let load_ns = best_of(5, || {
        arts.clear();
        let t = Instant::now();
        for fp in &fps {
            arts.extend(store.load(fp).map(|(a, _)| a));
        }
        ns_since(t) / fps.len() as f64
    });
    v.insert("cache.persist_load_ns", load_ns);
    drop(store);
    let _ = std::fs::remove_file(&path);

    let words: usize = arts.iter().map(|a| a.words.len()).sum();
    let mut free_ns = f64::INFINITY;
    let install_ns = best_of(10, || {
        let mut space = code.clone();
        let t = Instant::now();
        let handles: Vec<_> = arts
            .iter()
            .filter_map(|a| space.install_function(&a.name, &a.words, a.orig_start).ok())
            .collect();
        let install = ns_since(t) / words as f64;
        let t = Instant::now();
        for h in &handles {
            black_box(space.free_function(h.1).ok());
        }
        free_ns = free_ns.min(ns_since(t) / handles.len().max(1) as f64);
        install
    });
    v.insert("vm.install_ns_per_word", install_ns);
    v.insert("vm.free_ns", free_ns);
    Ok(())
}

/// `vm`: the seven loop kernels with the engine pinned, geomean of ns
/// per retired instruction. Adaptive should equal the best fixed one.
fn engines(v: &mut Values) {
    let pinned: [(&'static str, ExecEngine); 5] = [
        ("vm.decode_ns_per_insn", ExecEngine::DecodePerStep),
        (
            "vm.predecoded_ns_per_insn",
            ExecEngine::Predecoded { fuse: false },
        ),
        (
            "vm.fused_ns_per_insn",
            ExecEngine::Predecoded { fuse: true },
        ),
        ("vm.threaded_ns_per_insn", ExecEngine::Threaded),
        ("vm.adaptive_ns_per_insn", ExecEngine::default()),
    ];
    for (name, engine) in pinned {
        let per_kernel: Vec<f64> = loop_kernels()
            .iter()
            .map(|(bench, runs)| {
                let mut s = open_suite(bench, suite_config(&BACKENDS[0], true, Some(engine)));
                let fp = (bench.compile_dyn)(&mut s);
                for _ in 0..10 {
                    (bench.run_dyn)(&mut s, fp);
                }
                best_of(2, || {
                    (bench.setup)(&mut s);
                    let i0 = s.insns();
                    let t = Instant::now();
                    for _ in 0..*runs {
                        black_box((bench.run_dyn)(&mut s, fp));
                    }
                    ns_since(t) / (s.insns() - i0).max(1) as f64
                })
            })
            .collect();
        v.insert(name, geomean(&per_kernel));
    }
}

/// `serve`: the repo's own harness, `tcc_serve::run_serve`, at its
/// published configuration but 40,000 requests. Its differential
/// mutex sits inside the timed window; the gap to `pool.*` prices it.
fn run_serve_harness(v: &mut Values) {
    let opts = ServeOptions {
        requests: 40_000,
        ..ServeOptions::full()
    };
    let one = run_serve(1, &opts);
    let two = run_serve(pool_workers(), &opts);
    v.insert("serve.run_serve_rps_1w", one.throughput_rps);
    v.insert("serve.run_serve_rps_2w", two.throughput_rps);
    v.insert("serve.run_serve_p99_us_2w", two.p99_ns as f64 / 1e3);
}

/// `pool`: the benchmark's own driver on `serve_hot`, one slice at one
/// worker and one at the full pool.
fn pool(v: &mut Values, seed: u64, expected: &Expected) -> Result<(), String> {
    let rate = |workers: usize| -> Result<(f64, Vec<u64>), String> {
        let mut pool = Pool::new(&SERVE_HOT, workers, seed, expected)?;
        let mut out = pool.slice(0, false);
        if out.failed > 0 {
            return Err(format!(
                "pool at {workers} workers: {} wrong answers",
                out.failed
            ));
        }
        let rate = window_rate(&[&out], pool.shape());
        out.lat_ns.sort_unstable();
        Ok((rate, out.lat_ns))
    };
    let (rps1, _) = rate(1)?;
    let (rps2, lat2) = rate(pool_workers())?;
    v.insert("pool.rps_1w", rps1);
    v.insert("pool.scaling_2w", div(rps2, rps1));
    v.insert("pool.p999_us", percentile(&lat2, 0.999) as f64 / 1e3);
    Ok(())
}

/// `obs`: what reading the counters costs.
fn obs(v: &mut Values) {
    let s = Session::new(
        SERVE_SRC,
        Config {
            mem_size: 1 << 20,
            ..Config::default()
        },
    )
    .expect("serve.tc compiles");
    const SNAPSHOTS: usize = 100_000;
    let t = Instant::now();
    for _ in 0..SNAPSHOTS {
        black_box(s.metrics());
    }
    v.insert("obs.metrics_snapshot_ns", ns_since(t) / SNAPSHOTS as f64);
    const ENCODES: usize = 2_000;
    let m = s.metrics();
    let t = Instant::now();
    for _ in 0..ENCODES {
        black_box(m.to_json().to_string());
    }
    v.insert("obs.json_encode_us", ns_since(t) / ENCODES as f64 / 1e3);
}

/// `tickc.session_new_ms`: building the session a pool worker uses.
fn session_new(v: &mut Values) {
    let ns = best_of(5, || {
        let t = Instant::now();
        black_box(
            Session::new(
                SERVE_SRC,
                Config {
                    mem_size: 32 << 20,
                    ..Config::default()
                },
            )
            .is_ok(),
        );
        ns_since(t)
    });
    v.insert("tickc.session_new_ms", ns / 1e6);
}

/// Every direct-call metric.
pub fn direct_pass(seed: u64, expected: &Expected, out_dir: &Path) -> Result<Values, String> {
    let mut v = Values::new();
    front_and_mir(&mut v);
    session_new(&mut v);
    backends(&mut v);
    shared_cache(&mut v);
    private_memo(&mut v);
    persist_and_install(&mut v, out_dir)?;
    engines(&mut v);
    run_serve_harness(&mut v);
    pool(&mut v, seed, expected)?;
    obs(&mut v);
    Ok(v)
}
