//! The three single-threaded workloads over the suite programs:
//! `codegen_cold` (compile only), `exec_steady` (execute only, warm)
//! and `exec_cold` (compile, then a few runs from tier 0).

use std::time::Instant;

use tcc::Session;
use tcc_suite::BenchDef;

use crate::cells::{loop_kernels, open_suite, suite, suite_config, BACKENDS};
use crate::oracle::{suite_reference, suite_twin, Answer, Expected, Sig};
use crate::report::Shape;
use crate::trace::{SpanName, Tracer};
use crate::workload::{Acc, PerInsn, SliceOut, Workload};

fn brk(s: &Session) -> i64 {
    s.vm.state().mem.brk() as i64
}

/// Runs `f` and adds what it did to `acc` — the session's counter
/// deltas and heap growth across the call.
fn windowed<R>(acc: &mut Acc, s: &mut Session, f: impl FnOnce(&mut Session) -> R) -> R {
    let before = s.metrics();
    let brk0 = brk(s);
    let r = f(s);
    acc.absorb(&s.metrics(), 1);
    acc.absorb(&before, -1);
    acc.heap_bytes += brk(s) - brk0;
    r
}

// ---------------------------------------------------------------------
// codegen_cold
// ---------------------------------------------------------------------

/// Compiles per cell per slice. 42 cells × 320 ≈ 13k compiles ≈ 1.1 s.
const CODEGEN_ROUNDS: u64 = 320;
/// Rounds per window (16 × 42 = 672 compiles ≈ 50 ms).
const CODEGEN_WINDOW_ROUNDS: usize = 16;

struct CodegenCell {
    bench: BenchDef,
    backend: usize,
    twin: Answer,
    gen_insns: u64,
}

/// One op = one `compile_dyn` call — the spec-time closure build plus
/// the `compile` host call — with the memo off, round-robin over every
/// suite program × back end. The engines and caches do almost nothing;
/// the CGF walk and the back ends do nearly all of it (Table 1).
pub struct CodegenCold {
    cells: Vec<CodegenCell>,
    run_cycles: u64,
}

impl CodegenCold {
    pub fn new(expected: &Expected) -> Result<CodegenCold, String> {
        let mut cells = Vec::new();
        let mut run_cycles = 0;
        for bench in suite() {
            let twin = suite_twin(&bench, expected)?;
            for (backend, b) in BACKENDS.iter().enumerate() {
                let r = suite_reference(&bench, b, &[1], twin)?;
                run_cycles += r.after[0].cycles;
                cells.push(CodegenCell {
                    bench: bench.clone(),
                    backend,
                    twin,
                    gen_insns: r.gen_insns,
                });
            }
        }
        Ok(CodegenCold { cells, run_cycles })
    }
}

impl Workload for CodegenCold {
    fn slice(&mut self, _index: usize, record: bool) -> SliceOut {
        let epoch = Instant::now();
        let mut tr = Tracer::new(record, epoch, 0);
        let mut out = SliceOut::default();
        let mut sessions: Vec<Session> = self
            .cells
            .iter()
            .map(|c| open_suite(&c.bench, suite_config(&BACKENDS[c.backend], false, None)))
            .collect();
        out.setup_done(epoch, sessions.len());

        let before: Vec<_> = sessions.iter().map(|s| (s.metrics(), brk(s))).collect();
        let mut last_fp = vec![0u64; self.cells.len()];
        out.codegen = vec![PerInsn::default(); self.cells.len()];
        for _ in 0..CODEGEN_ROUNDS {
            for (i, (cell, s)) in self.cells.iter().zip(&mut sessions).enumerate() {
                let t = tr.begin_op();
                last_fp[i] = tr
                    .span(SpanName::CompileCall, || (cell.bench.compile_dyn)(s))
                    .0;
                let lat = tr.end_op(t);
                out.lat_ns.push(lat);
                out.codegen[i].ns += lat;
            }
        }

        for (i, (cell, s)) in self.cells.iter().zip(&mut sessions).enumerate() {
            let m = s.metrics();
            out.acc.absorb(&m, 1);
            out.acc.absorb(&before[i].0, -1);
            out.acc.heap_bytes += brk(s) - before[i].1;
            let compiled = m.dynamic.compiles - before[i].0.dynamic.compiles;
            let generated = m.dynamic.generated_insns - before[i].0.dynamic.generated_insns;
            out.codegen[i].insns = generated;
            // The last function compiled must behave like the twin, and
            // every compile must have produced the reference's size.
            let result = (cell.bench.run_dyn)(s, last_fp[i]);
            let answer = (result, (cell.bench.check)(s));
            if answer != cell.twin
                || compiled != CODEGEN_ROUNDS
                || generated != CODEGEN_ROUNDS * cell.gen_insns
            {
                out.failed += CODEGEN_ROUNDS;
            }
        }
        out.finish(tr)
    }

    fn shape(&self) -> Shape {
        Shape::Rounds {
            window_ops: CODEGEN_WINDOW_ROUNDS * self.cells.len(),
        }
    }

    fn gen_insns(&self) -> u64 {
        self.cells.iter().map(|c| c.gen_insns).sum()
    }

    fn run_cycles(&self) -> u64 {
        self.run_cycles
    }
}

// ---------------------------------------------------------------------
// exec_steady
// ---------------------------------------------------------------------

/// Round-robin rounds per slice; a round is one block per kernel.
const STEADY_ROUNDS: u64 = 28;
/// Rounds per window (2 × 94 runs ≈ 55 ms).
const STEADY_WINDOW_ROUNDS: usize = 2;
/// Untimed runs before the first timed one, so every function has
/// reached the tier it will stay at.
const STEADY_WARMUP_RUNS: u32 = 40;

struct SteadyKernel {
    bench: BenchDef,
    /// Runs per block.
    runs: u32,
    /// What one block (fresh set-up, `runs` runs) must reproduce.
    block: Sig,
    gen_insns: u64,
}

/// One op = one `run_dyn` of a function compiled and promoted during
/// set-up, under the default engine. The engines do all the work and
/// the compiler none: an engine speed-up — or an overhead added to the
/// run loop — shows here and nowhere else as clearly.
///
/// Kernels take turns in blocks of about 5 ms. Several kernels mutate
/// their data, so each block starts from the program's own set-up
/// (untimed) and ends with its checksum (untimed): a block is then a
/// fixed computation with one right answer.
pub struct ExecSteady {
    kernels: Vec<SteadyKernel>,
}

impl ExecSteady {
    pub fn new(expected: &Expected) -> Result<ExecSteady, String> {
        let mut kernels = Vec::new();
        for (bench, runs) in loop_kernels() {
            let twin = suite_twin(&bench, expected)?;
            let r = suite_reference(&bench, &BACKENDS[0], &[runs], twin)?;
            kernels.push(SteadyKernel {
                bench,
                runs,
                block: r.after[0],
                gen_insns: r.gen_insns,
            });
        }
        Ok(ExecSteady { kernels })
    }
}

impl Workload for ExecSteady {
    fn slice(&mut self, _index: usize, record: bool) -> SliceOut {
        let epoch = Instant::now();
        let mut tr = Tracer::new(record, epoch, 0);
        let mut out = SliceOut::default();
        let mut sessions: Vec<(Session, u64)> = self
            .kernels
            .iter()
            .map(|k| {
                let mut s = open_suite(&k.bench, suite_config(&BACKENDS[0], true, None));
                let fp = (k.bench.compile_dyn)(&mut s);
                for _ in 0..STEADY_WARMUP_RUNS {
                    (k.bench.run_dyn)(&mut s, fp);
                }
                (s, fp)
            })
            .collect();
        out.setup_done(epoch, sessions.len());

        out.exec = vec![PerInsn::default(); self.kernels.len()];
        for _ in 0..STEADY_ROUNDS {
            for (i, (k, (s, fp))) in self.kernels.iter().zip(&mut sessions).enumerate() {
                (k.bench.setup)(s);
                let mut sig = Sig::default();
                let (i0, c0) = (s.insns(), s.cycles());
                windowed(&mut out.acc, s, |s| {
                    for _ in 0..k.runs {
                        let t = tr.begin_op();
                        let (result, _) =
                            tr.span(SpanName::ExecuteCall, || (k.bench.run_dyn)(s, *fp));
                        let lat = tr.end_op(t);
                        out.lat_ns.push(lat);
                        out.exec[i].ns += lat;
                        sig.result_sum = sig.result_sum.wrapping_add(result);
                    }
                });
                sig.insns = s.insns() - i0;
                sig.cycles = s.cycles() - c0;
                sig.check = (k.bench.check)(s);
                out.exec[i].insns += sig.insns;
                if sig != k.block {
                    out.failed += k.runs as u64;
                }
            }
        }
        out.finish(tr)
    }

    fn shape(&self) -> Shape {
        let round: u32 = self.kernels.iter().map(|k| k.runs).sum();
        Shape::Rounds {
            window_ops: STEADY_WINDOW_ROUNDS * round as usize,
        }
    }

    fn gen_insns(&self) -> u64 {
        self.kernels.iter().map(|k| k.gen_insns).sum()
    }

    fn run_cycles(&self) -> u64 {
        self.kernels.iter().map(|k| k.block.cycles).sum()
    }
}

// ---------------------------------------------------------------------
// exec_cold
// ---------------------------------------------------------------------

/// Rounds per slice; a round is every kernel at every reuse count.
const COLD_ROUNDS: u64 = 16;
/// Runs of the freshly compiled function per op, cycled.
const COLD_REUSE: [u32; 3] = [1, 2, 4];
/// Rounds per window (2 × 21 ops ≈ 110 ms).
const COLD_WINDOW_ROUNDS: usize = 2;

struct ColdKernel {
    bench: BenchDef,
    /// Signature after 1, 2 and 4 runs from a fresh set-up.
    after: Vec<Sig>,
    gen_insns: u64,
}

/// One op = a fresh compile (memo off, so a brand-new function at
/// tier 0) followed by 1, 2 or 4 runs of it. Translation and the low
/// tiers sit on the critical path here, the opposite of `exec_steady`:
/// an eager-translation change that wins there and costs here is
/// caught.
pub struct ExecCold {
    kernels: Vec<ColdKernel>,
}

impl ExecCold {
    pub fn new(expected: &Expected) -> Result<ExecCold, String> {
        let mut kernels = Vec::new();
        for (bench, _) in loop_kernels() {
            let twin = suite_twin(&bench, expected)?;
            let r = suite_reference(&bench, &BACKENDS[0], &COLD_REUSE, twin)?;
            kernels.push(ColdKernel {
                bench,
                after: r.after,
                gen_insns: r.gen_insns,
            });
        }
        Ok(ExecCold { kernels })
    }
}

impl Workload for ExecCold {
    fn slice(&mut self, _index: usize, record: bool) -> SliceOut {
        let epoch = Instant::now();
        let mut tr = Tracer::new(record, epoch, 0);
        let mut out = SliceOut::default();
        let mut sessions: Vec<Session> = self
            .kernels
            .iter()
            .map(|k| open_suite(&k.bench, suite_config(&BACKENDS[0], false, None)))
            .collect();
        out.setup_done(epoch, sessions.len());

        out.codegen = vec![PerInsn::default(); self.kernels.len()];
        out.exec = vec![PerInsn::default(); self.kernels.len()];
        for _ in 0..COLD_ROUNDS {
            for (r, reuse) in COLD_REUSE.iter().enumerate() {
                for (i, (k, s)) in self.kernels.iter().zip(&mut sessions).enumerate() {
                    (k.bench.setup)(s);
                    let mut sig = Sig::default();
                    let g0 = s.dyn_stats().generated_insns;
                    windowed(&mut out.acc, s, |s| {
                        let t = tr.begin_op();
                        let (fp, ns) = tr.span(SpanName::CompileCall, || (k.bench.compile_dyn)(s));
                        out.codegen[i].ns += ns;
                        let (i0, c0) = (s.insns(), s.cycles());
                        for _ in 0..*reuse {
                            let (result, ns) =
                                tr.span(SpanName::ExecuteCall, || (k.bench.run_dyn)(s, fp));
                            out.exec[i].ns += ns;
                            sig.result_sum = sig.result_sum.wrapping_add(result);
                        }
                        out.lat_ns.push(tr.end_op(t));
                        sig.insns = s.insns() - i0;
                        sig.cycles = s.cycles() - c0;
                    });
                    sig.check = (k.bench.check)(s);
                    let generated = s.dyn_stats().generated_insns - g0;
                    out.codegen[i].insns += generated;
                    out.exec[i].insns += sig.insns;
                    if sig != k.after[r] || generated != k.gen_insns {
                        out.failed += 1;
                    }
                }
            }
        }
        out.finish(tr)
    }

    fn shape(&self) -> Shape {
        Shape::Rounds {
            window_ops: COLD_WINDOW_ROUNDS * COLD_REUSE.len() * self.kernels.len(),
        }
    }

    fn gen_insns(&self) -> u64 {
        self.kernels.iter().map(|k| k.gen_insns).sum()
    }

    fn run_cycles(&self) -> u64 {
        self.kernels
            .iter()
            .flat_map(|k| k.after.iter().map(|s| s.cycles))
            .sum()
    }
}
