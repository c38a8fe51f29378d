//! The ICODE dynamic compilation pipeline (paper §5.2).
//!
//! "When compile is invoked in ICODE mode, ICODE builds a flow graph,
//! identifies live ranges, employs a linear-time algorithm to perform
//! register allocation, and performs some peephole optimizations.
//! Finally, it translates the intermediate representation to the target
//! machine's binary format. We have attempted to minimize the cost of
//! each of these operations."
//!
//! Each phase is timed individually — that per-phase breakdown is Figure
//! 7 of the paper (where register allocation and liveness account for
//! 70-80% of ICODE's code generation cost).

use crate::alloc::{Assignment, Pools};
use crate::color::{graph_color, ColorScratch};
use crate::emit::{emit, EmitScratch, MissingTranslator};
use crate::flow::FlowGraph;
use crate::intervals::Intervals;
use crate::ir::IcodeBuf;
use crate::linear_scan::{linear_scan, ScanScratch};
use crate::liveness::Liveness;
use crate::peephole::Peephole;
use crate::prune::TranslatorTable;
use std::time::Instant;
use tcc_vcode::FinishedFunc;
use tcc_vm::CodeSpace;

/// Register allocation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// The paper's fast linear scan (Figure 3).
    #[default]
    LinearScan,
    /// The Chaitin-style graph-coloring baseline.
    GraphColor,
}

/// Per-phase wall-clock nanoseconds (the Figure 7 breakdown).
///
/// The definition lives in the observability crate so the runtime and
/// the suite can accumulate it without depending on ICODE internals;
/// this alias keeps the historical `tcc_icode::Phases` name working.
pub use tcc_obs::CodegenPhases as Phases;

/// Result of one ICODE compilation.
#[derive(Clone, Debug)]
pub struct IcodeResult {
    /// The generated function.
    pub func: FinishedFunc,
    /// Per-phase timing.
    pub phases: Phases,
    /// Number of spilled live intervals.
    pub spills: u32,
    /// IR instructions after cleanup.
    pub ir_len: usize,
    /// Basic block count.
    pub blocks: usize,
    /// Live interval count.
    pub intervals: usize,
    /// Translator entries this compile used (the pruning analysis's
    /// observation; OR it into a running table).
    pub keys: TranslatorTable,
}

/// The ICODE back-end compiler: configuration, the `compile` entry
/// point, and the working storage of every phase.
///
/// Build one and keep it: each phase re-zeroes the buffers it finds
/// here instead of allocating its own, so from the second function on a
/// compile's only heap traffic is the code it installs. Every phase
/// initializes what it reads, so nothing one compile leaves behind —
/// even one that panicked halfway — reaches the next.
#[derive(Clone, Debug)]
pub struct IcodeCompiler {
    /// Allocation strategy (linear scan vs graph coloring).
    pub strategy: Strategy,
    /// Whether to run the IR cleanup passes.
    pub run_peephole: bool,
    /// Whether the peephole stage also runs the fusion-aware scheduler
    /// (sinks pure defs onto branches/consumers so the VM's
    /// superinstruction pairer finds more adjacencies). Independent
    /// knob so the fused-pair gain is measurable.
    pub schedule_fusion: bool,
    /// Allocatable register pools.
    pub pools: Pools,
    /// Translator table (full by default; prune for the ablation).
    pub table: TranslatorTable,
    work: Work,
}

/// Every phase's working storage and results.
#[derive(Clone, Debug, Default)]
struct Work {
    peephole: Peephole,
    flow: FlowGraph,
    liveness: Liveness,
    intervals: Intervals,
    scan: ScanScratch,
    color: ColorScratch,
    assignment: Assignment,
    emit: EmitScratch,
}

impl Default for IcodeCompiler {
    fn default() -> Self {
        IcodeCompiler::new(Strategy::LinearScan)
    }
}

impl IcodeCompiler {
    /// A compiler with the given strategy, full pools and full table.
    pub fn new(strategy: Strategy) -> IcodeCompiler {
        IcodeCompiler {
            strategy,
            run_peephole: true,
            schedule_fusion: true,
            pools: Pools::full(),
            table: TranslatorTable::full(),
            work: Work::default(),
        }
    }

    /// Compiles an ICODE buffer into executable code. The cleanup passes
    /// rewrite `buf` in place; the caller may [`IcodeBuf::clear`] it and
    /// record the next function into the same storage.
    ///
    /// # Errors
    ///
    /// [`MissingTranslator`] when [`IcodeCompiler::table`] lacks an
    /// instruction `buf` needs: no word is emitted, and the compiler
    /// stays usable.
    pub fn compile(
        &mut self,
        code: &mut CodeSpace,
        name: &str,
        buf: &mut IcodeBuf,
    ) -> Result<IcodeResult, MissingTranslator> {
        let mut phases = Phases::default();
        let mut lap = Instant::now();
        let mut split = |slot: &mut u64| {
            let now = Instant::now();
            *slot = (now - lap).as_nanos() as u64;
            lap = now;
        };

        let w = &mut self.work;
        if self.run_peephole {
            w.peephole.dead_code(buf);
            w.peephole.thread_jumps(buf);
            if self.schedule_fusion {
                w.peephole.schedule_for_fusion(buf);
            }
        }
        split(&mut phases.peephole_ns);

        w.flow.build(buf);
        split(&mut phases.flow_ns);

        w.liveness.solve(buf, &w.flow);
        split(&mut phases.liveness_ns);

        w.intervals.build(buf, &w.flow, &w.liveness);
        let ivs = &w.intervals.list;
        split(&mut phases.intervals_ns);

        let (nv, pools, asn) = (buf.num_vregs(), &self.pools, &mut w.assignment);
        match self.strategy {
            Strategy::LinearScan => linear_scan(ivs, nv, pools, &mut w.scan, asn),
            Strategy::GraphColor => {
                graph_color(buf, &w.flow, &w.liveness, ivs, pools, &mut w.color, asn);
            }
        }
        split(&mut phases.alloc_ns);

        let (func, keys) = emit(code, name, buf, asn, &self.table, &mut w.emit)?;
        split(&mut phases.emit_ns);

        Ok(IcodeResult {
            func,
            phases,
            spills: asn.spilled,
            ir_len: buf.insns.len(),
            blocks: w.flow.len(),
            intervals: ivs.len(),
            keys,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_rt::ValKind;
    use tcc_vcode::ops::BinOp;
    use tcc_vcode::CodeSink;
    use tcc_vm::Vm;

    fn sum_to_n_buf() -> IcodeBuf {
        // f(n) = sum 1..=n
        let mut b = IcodeBuf::new();
        let n = b.param(0, ValKind::W);
        let s = b.temp(ValKind::W);
        let i = b.temp(ValKind::W);
        b.li(s, 0);
        b.li(i, 1);
        let top = b.label();
        let done = b.label();
        b.loop_begin();
        b.bind(top);
        b.br_cmp(BinOp::Gt, ValKind::W, i, n, done);
        b.bin(BinOp::Add, ValKind::W, s, s, i);
        b.bin_imm(BinOp::Add, ValKind::W, i, i, 1);
        b.jmp(top);
        b.loop_end();
        b.bind(done);
        b.ret_val(ValKind::W, s);
        b
    }

    #[test]
    fn both_strategies_compile_and_agree() {
        for strategy in [Strategy::LinearScan, Strategy::GraphColor] {
            let mut code = CodeSpace::new();
            let mut c = IcodeCompiler::new(strategy);
            let r = c
                .compile(&mut code, "sum", &mut sum_to_n_buf())
                .expect("full table");
            let mut vm = Vm::new(code, 1 << 20);
            assert_eq!(vm.call(r.func.addr, &[100]).unwrap(), 5050, "{strategy:?}");
            assert_eq!(r.spills, 0);
            assert!(r.blocks >= 3);
        }
    }

    #[test]
    fn high_pressure_program_spills_but_stays_correct() {
        // 30 simultaneously live values.
        let mut b = IcodeBuf::new();
        let vals: Vec<_> = (0..30).map(|_| b.temp(ValKind::W)).collect();
        for (i, &v) in vals.iter().enumerate() {
            b.li(v, (i * i) as i64);
        }
        let acc = b.temp(ValKind::W);
        b.li(acc, 0);
        for &v in &vals {
            b.bin(BinOp::Add, ValKind::W, acc, acc, v);
        }
        b.ret_val(ValKind::W, acc);

        let expect: u64 = (0..30).map(|i| (i * i) as u64).sum();
        for strategy in [Strategy::LinearScan, Strategy::GraphColor] {
            let mut code = CodeSpace::new();
            let mut c = IcodeCompiler::new(strategy);
            let r = c
                .compile(&mut code, "pressure", &mut b.clone())
                .expect("full table");
            assert!(r.spills > 0, "{strategy:?} should spill");
            let mut vm = Vm::new(code, 1 << 20);
            assert_eq!(vm.call(r.func.addr, &[]).unwrap(), expect, "{strategy:?}");
        }
    }

    #[test]
    fn phase_breakdown_is_populated() {
        let mut code = CodeSpace::new();
        let mut c = IcodeCompiler::default();
        let r = c
            .compile(&mut code, "sum", &mut sum_to_n_buf())
            .expect("full table");
        assert!(r.phases.total_ns() > 0);
        assert!(r.ir_len > 0);
        assert!(r.intervals >= 3);
    }

    #[test]
    fn peephole_shrinks_ir() {
        let mut b = sum_to_n_buf();
        let dead = b.temp(ValKind::W);
        b.li(dead, 42); // appended after ret; dead
        let mut code = CodeSpace::new();
        let mut c = IcodeCompiler::default();
        let r = c.compile(&mut code, "sum", &mut b).expect("full table");
        let mut code2 = CodeSpace::new();
        let mut c2 = IcodeCompiler {
            run_peephole: false,
            ..IcodeCompiler::default()
        };
        let mut b2 = {
            let mut b = sum_to_n_buf();
            let dead = b.temp(ValKind::W);
            b.li(dead, 42);
            b
        };
        let r2 = c2.compile(&mut code2, "sum", &mut b2).expect("full table");
        assert!(r.ir_len < r2.ir_len);
    }
}
