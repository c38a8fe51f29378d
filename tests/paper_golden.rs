//! Golden: every exact number EXPERIMENTS.md prints.
//!
//! Figure 4's underlying counts for each `tcc_suite::benchmarks` program
//! — static run cycles under the lcc-like and gcc-like back ends, then
//! run cycles and generated instructions under VCODE, ICODE linear scan
//! and ICODE colouring —, the same cycle counts under the uniform cost
//! model for the programs the cost-model sensitivity table uses, and
//! every row of `tcc_suite::ablations::exact`. `measure` panics when a
//! path computes a different answer than the static reference, so no
//! cell comes from a wrong run.
//!
//! Blur runs at `BLUR_SMALL` here; at the paper's 640×480 (§6.2) it is
//! `blur_at_paper_size_matches_the_committed_table`, `#[ignore]`d;
//! `ci.sh` runs it:
//! `cargo test --release -p tickc --test paper_golden -- --ignored`.
//!
//! A deliberate change re-blesses a table: the failure message prints
//! every cell in source form.

use tcc_suite::{ablations, benchmarks, measure, measure_with, report, Measurement};
use tcc_suite::{DynBackend, BLUR_FULL, BLUR_SMALL};
use tcc_vm::CostModel;

/// (experiment, program or ablation, quantity, value).
type Cell = (&'static str, &'static str, &'static str, u64);

const FIGURE4: &[Cell] = &[
    ("figure4", "hash", "static_naive_cycles", 463),
    ("figure4", "hash", "static_opt_cycles", 348),
    ("figure4", "hash", "vcode_cycles", 246),
    ("figure4", "hash", "vcode_insns", 58),
    ("figure4", "hash", "icode_ls_cycles", 222),
    ("figure4", "hash", "icode_ls_insns", 52),
    ("figure4", "hash", "icode_gc_cycles", 222),
    ("figure4", "hash", "icode_gc_insns", 52),
    ("figure4", "ms", "static_naive_cycles", 390033),
    ("figure4", "ms", "static_opt_cycles", 190025),
    ("figure4", "ms", "vcode_cycles", 210026),
    ("figure4", "ms", "vcode_insns", 33),
    ("figure4", "ms", "icode_ls_cycles", 180022),
    ("figure4", "ms", "icode_ls_insns", 29),
    ("figure4", "ms", "icode_gc_cycles", 180022),
    ("figure4", "ms", "icode_gc_insns", 29),
    ("figure4", "heap", "static_naive_cycles", 3674283),
    ("figure4", "heap", "static_opt_cycles", 1390515),
    ("figure4", "heap", "vcode_cycles", 993138),
    ("figure4", "heap", "vcode_insns", 325),
    ("figure4", "heap", "icode_ls_cycles", 428064),
    ("figure4", "heap", "icode_ls_insns", 203),
    ("figure4", "heap", "icode_gc_cycles", 428060),
    ("figure4", "heap", "icode_gc_insns", 201),
    ("figure4", "ntn", "static_naive_cycles", 2116),
    ("figure4", "ntn", "static_opt_cycles", 1775),
    ("figure4", "ntn", "vcode_cycles", 1300),
    ("figure4", "ntn", "vcode_insns", 116),
    ("figure4", "ntn", "icode_ls_cycles", 1284),
    ("figure4", "ntn", "icode_ls_insns", 108),
    ("figure4", "ntn", "icode_gc_cycles", 1284),
    ("figure4", "ntn", "icode_gc_insns", 108),
    ("figure4", "cmp", "static_naive_cycles", 161856),
    ("figure4", "cmp", "static_opt_cycles", 102459),
    ("figure4", "cmp", "vcode_cycles", 52264),
    ("figure4", "cmp", "vcode_insns", 73),
    ("figure4", "cmp", "icode_ls_cycles", 47132),
    ("figure4", "cmp", "icode_ls_insns", 64),
    ("figure4", "cmp", "icode_gc_cycles", 47132),
    ("figure4", "cmp", "icode_gc_insns", 64),
    ("figure4", "query", "static_naive_cycles", 1180605),
    ("figure4", "query", "static_opt_cycles", 705531),
    ("figure4", "query", "vcode_cycles", 145003),
    ("figure4", "query", "vcode_insns", 94),
    ("figure4", "query", "icode_ls_cycles", 118983),
    ("figure4", "query", "icode_ls_insns", 77),
    ("figure4", "query", "icode_gc_cycles", 118983),
    ("figure4", "query", "icode_gc_insns", 77),
    ("figure4", "mshl", "static_naive_cycles", 400),
    ("figure4", "mshl", "static_opt_cycles", 205),
    ("figure4", "mshl", "vcode_cycles", 100),
    ("figure4", "mshl", "vcode_insns", 44),
    ("figure4", "mshl", "icode_ls_cycles", 70),
    ("figure4", "mshl", "icode_ls_insns", 29),
    ("figure4", "mshl", "icode_gc_cycles", 70),
    ("figure4", "mshl", "icode_gc_insns", 29),
    ("figure4", "umshl", "static_naive_cycles", 105),
    ("figure4", "umshl", "static_opt_cycles", 75),
    ("figure4", "umshl", "vcode_cycles", 98),
    ("figure4", "umshl", "vcode_insns", 32),
    ("figure4", "umshl", "icode_ls_cycles", 94),
    ("figure4", "umshl", "icode_ls_insns", 30),
    ("figure4", "umshl", "icode_gc_cycles", 94),
    ("figure4", "umshl", "icode_gc_insns", 30),
    ("figure4", "pow", "static_naive_cycles", 247),
    ("figure4", "pow", "static_opt_cycles", 129),
    ("figure4", "pow", "vcode_cycles", 93),
    ("figure4", "pow", "vcode_insns", 35),
    ("figure4", "pow", "icode_ls_cycles", 81),
    ("figure4", "pow", "icode_ls_insns", 29),
    ("figure4", "pow", "icode_gc_cycles", 81),
    ("figure4", "pow", "icode_gc_insns", 29),
    ("figure4", "binary", "static_naive_cycles", 383),
    ("figure4", "binary", "static_opt_cycles", 194),
    ("figure4", "binary", "vcode_cycles", 185),
    ("figure4", "binary", "vcode_insns", 227),
    ("figure4", "binary", "icode_ls_cycles", 131),
    ("figure4", "binary", "icode_ls_insns", 209),
    ("figure4", "binary", "icode_gc_cycles", 114),
    ("figure4", "binary", "icode_gc_insns", 143),
    ("figure4", "dp", "static_naive_cycles", 1644),
    ("figure4", "dp", "static_opt_cycles", 858),
    ("figure4", "dp", "vcode_cycles", 370),
    ("figure4", "dp", "vcode_insns", 222),
    ("figure4", "dp", "icode_ls_cycles", 234),
    ("figure4", "dp", "icode_ls_insns", 154),
    ("figure4", "dp", "icode_gc_cycles", 234),
    ("figure4", "dp", "icode_gc_insns", 154),
    ("figure4", "blur", "static_naive_cycles", 3115133),
    ("figure4", "blur", "static_opt_cycles", 1445776),
    ("figure4", "blur", "vcode_cycles", 840509),
    ("figure4", "blur", "vcode_insns", 272),
    ("figure4", "blur", "icode_ls_cycles", 800763),
    ("figure4", "blur", "icode_ls_insns", 255),
    ("figure4", "blur", "icode_gc_cycles", 767639),
    ("figure4", "blur", "icode_gc_insns", 244),
    ("figure4", "filter", "static_naive_cycles", 289025),
    ("figure4", "filter", "static_opt_cycles", 137058),
    ("figure4", "filter", "vcode_cycles", 113699),
    ("figure4", "filter", "vcode_insns", 104),
    ("figure4", "filter", "icode_ls_cycles", 88911),
    ("figure4", "filter", "icode_ls_insns", 85),
    ("figure4", "filter", "icode_gc_cycles", 86863),
    ("figure4", "filter", "icode_gc_insns", 84),
    ("figure4", "demux", "static_naive_cycles", 411841),
    ("figure4", "demux", "static_opt_cycles", 205830),
    ("figure4", "demux", "vcode_cycles", 243412),
    ("figure4", "demux", "vcode_insns", 237),
    ("figure4", "demux", "icode_ls_cycles", 149296),
    ("figure4", "demux", "icode_ls_insns", 154),
    ("figure4", "demux", "icode_gc_cycles", 147248),
    ("figure4", "demux", "icode_gc_insns", 153),
];

const SENSITIVITY: &[Cell] = &[
    ("uniform", "hash", "static_naive_cycles", 266),
    ("uniform", "hash", "static_opt_cycles", 189),
    ("uniform", "hash", "vcode_cycles", 180),
    ("uniform", "hash", "icode_ls_cycles", 168),
    ("uniform", "hash", "icode_gc_cycles", 168),
    ("uniform", "ms", "static_naive_cycles", 250024),
    ("uniform", "ms", "static_opt_cycles", 110019),
    ("uniform", "ms", "vcode_cycles", 170019),
    ("uniform", "ms", "icode_ls_cycles", 150017),
    ("uniform", "ms", "icode_gc_cycles", 150017),
    ("uniform", "query", "static_naive_cycles", 849618),
    ("uniform", "query", "static_opt_cycles", 538992),
    ("uniform", "query", "vcode_cycles", 104328),
    ("uniform", "query", "icode_ls_cycles", 90318),
    ("uniform", "query", "icode_gc_cycles", 90318),
    ("uniform", "umshl", "static_naive_cycles", 78),
    ("uniform", "umshl", "static_opt_cycles", 58),
    ("uniform", "umshl", "vcode_cycles", 74),
    ("uniform", "umshl", "icode_ls_cycles", 72),
    ("uniform", "umshl", "icode_gc_cycles", 72),
    ("uniform", "binary", "static_naive_cycles", 273),
    ("uniform", "binary", "static_opt_cycles", 146),
    ("uniform", "binary", "vcode_cycles", 123),
    ("uniform", "binary", "icode_ls_cycles", 95),
    ("uniform", "binary", "icode_gc_cycles", 82),
    ("uniform", "dp", "static_naive_cycles", 1098),
    ("uniform", "dp", "static_opt_cycles", 572),
    ("uniform", "dp", "vcode_cycles", 221),
    ("uniform", "dp", "icode_ls_cycles", 153),
    ("uniform", "dp", "icode_gc_cycles", 153),
];

const ABLATIONS: &[Cell] = &[
    ("ablations", "translator", "full_entries", 412),
    ("ablations", "translator", "full_insns", 41200),
    ("ablations", "translator", "pruned_entries", 14),
    ("ablations", "translator", "pruned_insns", 1400),
    ("ablations", "cspec_first", "on_cycles", 163),
    ("ablations", "cspec_first", "on_insns", 106),
    ("ablations", "cspec_first", "off_cycles", 275),
    ("ablations", "cspec_first", "off_insns", 162),
    ("ablations", "unroll", "loop_kept_cycles", 790),
    ("ablations", "unroll", "loop_kept_insns", 38),
    ("ablations", "unroll", "unrolled_cycles", 1053),
    ("ablations", "unroll", "unrolled_insns", 537),
    ("ablations", "unroll", "hardwired_cycles", 193),
    ("ablations", "unroll", "hardwired_insns", 111),
    ("ablations", "closures", "arena_cycles", 4636),
    ("ablations", "closures", "heap_cycles", 4636),
];

const BLUR_PAPER_SIZE: &[Cell] = &[
    ("blur", "blur", "static_naive_cycles", 314817821),
    ("blur", "blur", "static_opt_cycles", 146061232),
    ("blur", "blur", "vcode_cycles", 100315633),
    ("blur", "blur", "vcode_insns", 282),
    ("blur", "blur", "icode_ls_cycles", 96324095),
    ("blur", "blur", "icode_ls_insns", 265),
    ("blur", "blur", "icode_gc_cycles", 92951611),
    ("blur", "blur", "icode_gc_insns", 254),
];

/// Figure 4's counts for one measurement: run cycles of every path and,
/// with `insns`, the instructions each dynamic back end generated.
fn cells(experiment: &'static str, m: &Measurement, insns: bool) -> Vec<Cell> {
    let mut out = vec![
        (
            experiment,
            m.name,
            "static_naive_cycles",
            m.static_naive_cycles,
        ),
        (experiment, m.name, "static_opt_cycles", m.static_opt_cycles),
    ];
    for (b, cycles, generated) in [
        (DynBackend::Vcode, "vcode_cycles", "vcode_insns"),
        (DynBackend::IcodeLinear, "icode_ls_cycles", "icode_ls_insns"),
        (DynBackend::IcodeColor, "icode_gc_cycles", "icode_gc_insns"),
    ] {
        let d = &m.dynamic[b as usize];
        out.push((experiment, m.name, cycles, d.run_cycles));
        if insns {
            out.push((experiment, m.name, generated, d.insns as u64));
        }
    }
    out
}

fn check(got: &[Cell], want: &[Cell]) {
    if got != want {
        let mut table = String::new();
        for cell @ (experiment, subject, quantity, value) in got {
            table.push_str(&format!(
                "    ({experiment:?}, {subject:?}, {quantity:?}, {value}),{}\n",
                if want.contains(cell) {
                    ""
                } else {
                    " // differs"
                }
            ));
        }
        panic!("a paper number moved; computed table:\n{table}");
    }
}

#[test]
fn figure4_counts_match_the_committed_table() {
    let got: Vec<Cell> = benchmarks(BLUR_SMALL)
        .iter()
        .flat_map(|b| cells("figure4", &measure(b), true))
        .collect();
    check(&got, FIGURE4);
}

#[test]
fn uniform_cost_model_counts_match_the_committed_table() {
    let got: Vec<Cell> = benchmarks(BLUR_SMALL)
        .iter()
        .filter(|b| report::SENSITIVITY_SUBSET.contains(&b.name))
        .flat_map(|b| cells("uniform", &measure_with(b, &CostModel::uniform()), false))
        .collect();
    check(&got, SENSITIVITY);
}

#[test]
fn ablation_counts_match_the_committed_table() {
    let got: Vec<Cell> = ablations::exact()
        .into_iter()
        .map(|(ablation, quantity, value)| ("ablations", ablation, quantity, value))
        .collect();
    check(&got, ABLATIONS);
}

#[test]
#[ignore = "640x480 Blur, release only; ci.sh runs it"]
fn blur_at_paper_size_matches_the_committed_table() {
    let blur = benchmarks(BLUR_FULL)
        .into_iter()
        .find(|b| b.name == "blur")
        .expect("blur is a suite program");
    check(&cells("blur", &measure(&blur), true), BLUR_PAPER_SIZE);
}
