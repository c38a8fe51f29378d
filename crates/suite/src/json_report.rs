//! Machine-readable reports: the same numbers the text printers in
//! [`crate::report`] format, emitted as JSON (`BENCH_table1.json`,
//! `BENCH_figure4.json`, ...) so downstream tooling can track the
//! reproduction's results without scraping tables.
//!
//! Every document carries `experiment` (which table/figure of the paper
//! it reproduces), `ns_per_cycle` where a calibration was used, and a
//! `rows` array with one object per benchmark.

use crate::measure::{DynBackend, Measurement};
use crate::micro::{MicroResult, Table1Row, TABLE1_BACKENDS};
use tcc_obs::json::Json;

fn micro_json(r: &MicroResult) -> Json {
    Json::obj(vec![
        ("cycles_per_generated_insn", Json::from(r.cycles_per_insn)),
        ("ns_per_generated_insn", Json::from(r.ns_per_insn)),
        ("generated_insns_per_compile", Json::from(r.insns)),
    ])
}

/// Table 1 as JSON: codegen overhead in cycles per generated
/// instruction, four extreme cases × four back-end configurations
/// (VCODE, VCODE-unchecked, ICODE linear scan, ICODE graph coloring),
/// from [`crate::micro::measure_table1`]'s rows.
pub fn table1_json(rows: &[Table1Row], ns_per_cycle: f64) -> Json {
    let rows: Vec<Json> = rows
        .iter()
        .map(|row| {
            let backends: Vec<(String, Json)> = TABLE1_BACKENDS
                .iter()
                .zip(&row.results)
                .map(|((key, _), r)| (key.to_string(), micro_json(r)))
                .collect();
            Json::obj(vec![
                ("benchmark", Json::from(row.label)),
                ("backends", Json::Obj(backends)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::from("table1")),
        (
            "description",
            Json::from("code generation overhead per generated instruction"),
        ),
        ("ns_per_cycle", Json::from(ns_per_cycle)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Figure 4 as JSON: speedup of dynamic over static code, per benchmark
/// and back end, against both static baselines.
pub fn figure4_json(ms: &[Measurement]) -> Json {
    let rows: Vec<Json> = ms
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("benchmark", Json::from(m.name)),
                ("static_naive_cycles", Json::from(m.static_naive_cycles)),
                ("static_opt_cycles", Json::from(m.static_opt_cycles)),
                (
                    "speedup",
                    Json::obj(vec![
                        (
                            "vcode_vs_lcc",
                            Json::from(m.ratio_vs_naive(DynBackend::Vcode)),
                        ),
                        (
                            "icode_vs_lcc",
                            Json::from(m.ratio_vs_naive(DynBackend::IcodeLinear)),
                        ),
                        (
                            "vcode_vs_gcc",
                            Json::from(m.ratio_vs_opt(DynBackend::Vcode)),
                        ),
                        (
                            "icode_vs_gcc",
                            Json::from(m.ratio_vs_opt(DynBackend::IcodeLinear)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::from("figure4")),
        (
            "description",
            Json::from("ratio of static to dynamic run time"),
        ),
        ("rows", Json::Arr(rows)),
    ])
}

/// Figure 5 as JSON: cross-over points in runs (`null` = dynamic code
/// never pays off against that baseline).
pub fn figure5_json(ms: &[Measurement], ns_per_cycle: f64) -> Json {
    let rows: Vec<Json> = ms
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("benchmark", Json::from(m.name)),
                (
                    "crossover_runs",
                    Json::obj(vec![
                        (
                            "vcode_vs_lcc",
                            Json::from(m.crossover(DynBackend::Vcode, false, ns_per_cycle)),
                        ),
                        (
                            "icode_vs_lcc",
                            Json::from(m.crossover(DynBackend::IcodeLinear, false, ns_per_cycle)),
                        ),
                        (
                            "vcode_vs_gcc",
                            Json::from(m.crossover(DynBackend::Vcode, true, ns_per_cycle)),
                        ),
                        (
                            "icode_vs_gcc",
                            Json::from(m.crossover(DynBackend::IcodeLinear, true, ns_per_cycle)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::from("figure5")),
        (
            "description",
            Json::from("runs needed to amortize dynamic code generation"),
        ),
        ("ns_per_cycle", Json::from(ns_per_cycle)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Figure 6 as JSON: VCODE codegen cost per benchmark.
pub fn figure6_json(ms: &[Measurement], ns_per_cycle: f64) -> Json {
    let rows: Vec<Json> = ms
        .iter()
        .map(|m| {
            let d = &m.dynamic[DynBackend::Vcode as usize];
            let per = d.codegen_ns / d.insns.max(1.0);
            Json::obj(vec![
                ("benchmark", Json::from(m.name)),
                ("generated_insns_per_compile", Json::from(d.insns)),
                ("ns_per_generated_insn", Json::from(per)),
                ("cycles_per_generated_insn", Json::from(per / ns_per_cycle)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::from("figure6")),
        (
            "description",
            Json::from("VCODE dynamic compilation cost per generated instruction"),
        ),
        ("ns_per_cycle", Json::from(ns_per_cycle)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Figure 7 as JSON: ICODE codegen cost breakdown (cycles per generated
/// instruction per phase), linear scan vs graph coloring.
pub fn figure7_json(ms: &[Measurement], ns_per_cycle: f64) -> Json {
    let rows: Vec<Json> = ms
        .iter()
        .map(|m| {
            let allocators: Vec<(String, Json)> = [
                (DynBackend::IcodeLinear, "linear_scan"),
                (DynBackend::IcodeColor, "graph_color"),
            ]
            .into_iter()
            .map(|(b, key)| {
                let d = &m.dynamic[b as usize];
                let per = |ns: f64| ns / d.insns.max(1.0) / ns_per_cycle;
                let row = d.breakdown();
                let breakdown = Json::obj(vec![
                    ("walk_and_ir", Json::from(per(row.walk))),
                    ("flow", Json::from(per(row.flow))),
                    ("liveness", Json::from(per(row.liveness))),
                    ("alloc", Json::from(per(row.alloc))),
                    ("emit", Json::from(per(row.emit))),
                    ("other", Json::from(per(row.other))),
                    ("total", Json::from(per(row.total))),
                    ("alloc_fraction", Json::from(row.alloc_fraction())),
                    ("other_fraction", Json::from(row.other / row.total.max(1.0))),
                ]);
                (key.to_string(), breakdown)
            })
            .collect();
            Json::obj(vec![
                ("benchmark", Json::from(m.name)),
                ("cycles_per_generated_insn", Json::Obj(allocators)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("experiment", Json::from("figure7")),
        (
            "description",
            Json::from("ICODE dynamic compilation cost breakdown"),
        ),
        ("ns_per_cycle", Json::from(ns_per_cycle)),
        ("rows", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure;
    use crate::programs::{benchmarks, BLUR_SMALL};

    fn one_measurement() -> Measurement {
        let b = benchmarks(BLUR_SMALL)
            .into_iter()
            .find(|b| b.name == "pow")
            .expect("pow bench");
        measure(&b)
    }

    #[test]
    fn table1_json_has_all_four_backends() {
        let j = table1_json(&crate::micro::measure_table1(1.0, 20, 8), 1.0);
        let text = j.to_string();
        for key in [
            "vcode",
            "vcode_unchecked",
            "icode_linear_scan",
            "icode_graph_color",
        ] {
            assert!(
                text.contains(&format!("\"{key}\"")),
                "missing backend {key}"
            );
        }
        assert!(text.contains("\"cycles_per_generated_insn\""));
        // Four rows: {large, small} x {dynamic locals, free variables}.
        assert_eq!(text.matches("\"benchmark\"").count(), 4);
    }

    #[test]
    fn figure_jsons_cover_each_measurement() {
        let ms = vec![one_measurement()];
        for (j, needle) in [
            (figure4_json(&ms), "\"speedup\""),
            (figure5_json(&ms, 1.0), "\"crossover_runs\""),
            (figure6_json(&ms, 1.0), "\"ns_per_generated_insn\""),
            (figure7_json(&ms, 1.0), "\"alloc_fraction\""),
            (figure7_json(&ms, 1.0), "\"other\""),
        ] {
            let text = j.to_string();
            assert!(text.contains("\"pow\""), "missing benchmark name in {text}");
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}
