//! Reference answers, from two sources that do not pass through the
//! code being measured:
//!
//! * each program's **static-C twin**, compiled by the naive static
//!   back end and run decode-per-step — no dynamic back end, no cache,
//!   no translated engine;
//! * the committed `expected/results.json`, so the twins themselves
//!   cannot drift unnoticed.
//!
//! A second, memo-off decode-per-step session per cell then fixes what
//! the *generated* code must report — result, retired instructions and
//! modelled cycles — for every engine, cache layer and thread.

use std::collections::BTreeMap;

use tcc::{Backend, Config, ExecEngine, Session};
use tcc_mir::OptLevel;
use tcc_suite::BenchDef;

use crate::cells::{open_suite, suite_config, Cell, SERVE_SRC, SUITE_MEM};
use crate::json::{self, Json};

/// A program's (result value, side-effect checksum).
pub type Answer = (u64, u64);

/// What a fixed sequence of runs of one generated function must
/// reproduce on every engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sig {
    /// Wrapping sum of the runs' result values.
    pub result_sum: u64,
    /// Side-effect checksum after the last run.
    pub check: u64,
    /// Instructions the runs retired.
    pub insns: u64,
    /// Modelled cycles the runs took.
    pub cycles: u64,
}

/// The committed answers.
pub struct Expected {
    pub suite: BTreeMap<String, Answer>,
    pub serve: Vec<u64>,
}

/// Values go through strings: results are full 64-bit patterns, which
/// a JSON number cannot carry exactly.
fn num(v: u64) -> Json {
    Json::from(v.to_string())
}

fn read_num(v: Option<&Json>) -> Result<u64, String> {
    v.and_then(json::as_str)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "expected/results.json: value is not a decimal string".to_string())
}

impl Expected {
    /// The file compiled into the binary.
    pub fn committed() -> Result<Expected, String> {
        Expected::parse(include_str!("../expected/results.json"))
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = json::parse(text)?;
        let mut suite = BTreeMap::new();
        if let Some(Json::Obj(rows)) = json::get(&doc, "suite") {
            for (name, row) in rows {
                let answer = (
                    read_num(json::get(row, "result"))?,
                    read_num(json::get(row, "check"))?,
                );
                suite.insert(name.clone(), answer);
            }
        }
        let serve = json::get(&doc, "serve")
            .and_then(json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|v| read_num(Some(v)))
            .collect::<Result<_, _>>()?;
        Ok(Expected { suite, serve })
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "suite",
                Json::Obj(
                    self.suite
                        .iter()
                        .map(|(name, (result, check))| {
                            let row =
                                Json::obj(vec![("result", num(*result)), ("check", num(*check))]);
                            (name.clone(), row)
                        })
                        .collect(),
                ),
            ),
            (
                "serve",
                Json::Arr(self.serve.iter().map(|v| num(*v)).collect()),
            ),
        ])
    }
}

/// The static twin's answer for a suite program.
pub fn static_answer(bench: &BenchDef) -> Answer {
    let mut s = open_suite(
        bench,
        Config {
            static_opt: OptLevel::Naive,
            engine: Some(ExecEngine::DecodePerStep),
            mem_size: SUITE_MEM,
            ..Config::default()
        },
    );
    let result = (bench.run_static)(&mut s);
    (result, (bench.check)(&mut s))
}

/// The twin's answer, checked against the committed file.
pub fn suite_twin(bench: &BenchDef, expected: &Expected) -> Result<Answer, String> {
    let twin = static_answer(bench);
    match expected.suite.get(bench.name) {
        Some(want) if *want == twin => Ok(twin),
        Some(want) => Err(format!(
            "{}: static twin gives {twin:?}, expected/results.json says {want:?}",
            bench.name
        )),
        None => Err(format!(
            "{}: missing from expected/results.json",
            bench.name
        )),
    }
}

/// What the code generated for one suite cell must do.
pub struct SuiteRef {
    /// VM instructions one compile generates.
    pub gen_insns: u64,
    /// Signature after each requested number of runs from a fresh
    /// set-up, in the order requested.
    pub after: Vec<Sig>,
}

/// Compiles `bench` with `backend` in a memo-off decode-per-step
/// session, runs it `max(run_counts)` times from a fresh set-up and
/// records the signature at each count. The first run must give the
/// twin's answer.
pub fn suite_reference(
    bench: &BenchDef,
    backend: &Backend,
    run_counts: &[u32],
    twin: Answer,
) -> Result<SuiteRef, String> {
    let mut s = open_suite(
        bench,
        suite_config(backend, false, Some(ExecEngine::DecodePerStep)),
    );
    let fp = (bench.compile_dyn)(&mut s);
    let gen_insns = s.dyn_stats().generated_insns;
    let mut sig = Sig::default();
    let mut at = BTreeMap::new();
    for run in 1..=run_counts.iter().copied().max().unwrap_or(0) {
        let (i0, c0) = (s.insns(), s.cycles());
        let result = (bench.run_dyn)(&mut s, fp);
        sig.insns += s.insns() - i0;
        sig.cycles += s.cycles() - c0;
        sig.result_sum = sig.result_sum.wrapping_add(result);
        if run == 1 || run_counts.contains(&run) {
            sig.check = (bench.check)(&mut s);
        }
        if run == 1 && (result, sig.check) != twin {
            return Err(format!(
                "{} ({backend:?}): generated code gives {:?}, static twin {twin:?}",
                bench.name,
                (result, sig.check)
            ));
        }
        at.insert(run, sig);
    }
    Ok(SuiteRef {
        gen_insns,
        after: run_counts.iter().map(|n| at[n]).collect(),
    })
}

/// What one serve cell must do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeRef {
    pub result: u64,
    pub insns: u64,
    pub cycles: u64,
    pub gen_insns: u64,
}

/// The twin's result for every one of `cells` serve cells.
pub fn serve_twins(cells: u32) -> Vec<u64> {
    let mut s = Session::new(
        SERVE_SRC,
        Config {
            static_opt: OptLevel::Naive,
            engine: Some(ExecEngine::DecodePerStep),
            mem_size: 1 << 20,
            ..Config::default()
        },
    )
    .expect("serve.tc compiles");
    (0..cells)
        .map(|c| {
            let cell = Cell(c);
            s.call(cell.twin_entry(), &[cell.param(), cell.arg()])
                .expect("static twin runs")
        })
        .collect()
}

/// References for serve cells `0..cells`: the twin's result (checked
/// against the committed file) and a memo-off decode-per-step
/// session's instruction and cycle counts for the generated function.
pub fn serve_reference(cells: u32, expected: &Expected) -> Result<Vec<ServeRef>, String> {
    let twins = serve_twins(cells);
    if expected.serve.get(..cells as usize) != Some(&twins[..]) {
        return Err("serve twins differ from expected/results.json".to_string());
    }
    let mut s = Session::new(
        SERVE_SRC,
        Config {
            cache: false,
            engine: Some(ExecEngine::DecodePerStep),
            mem_size: 4 << 20,
            ..Config::default()
        },
    )
    .expect("serve.tc compiles");
    let mut out = Vec::with_capacity(cells as usize);
    for (c, twin) in twins.iter().enumerate() {
        let cell = Cell(c as u32);
        let g0 = s.dyn_stats().generated_insns;
        let addr = s
            .call(cell.compile_entry(), &[cell.param()])
            .map_err(|e| format!("cell {c}: reference compile failed: {e}"))?;
        let gen_insns = s.dyn_stats().generated_insns - g0;
        let (i0, c0) = (s.insns(), s.cycles());
        let result = s
            .call_addr(addr, &[cell.arg()])
            .map_err(|e| format!("cell {c}: reference run failed: {e}"))?;
        if result != *twin {
            return Err(format!(
                "cell {c}: generated code gives {result}, static twin {twin}"
            ));
        }
        out.push(ServeRef {
            result,
            insns: s.insns() - i0,
            cycles: s.cycles() - c0,
            gen_insns,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_file_round_trips_full_width_values() {
        let mut suite = BTreeMap::new();
        suite.insert("cmp".to_string(), (u64::MAX - 5, 1u64 << 63));
        let e = Expected {
            suite,
            serve: vec![0, u64::MAX],
        };
        let back = Expected::parse(&e.to_json().pretty()).unwrap();
        assert_eq!(back.suite, e.suite);
        assert_eq!(back.serve, e.serve);
        assert!(
            Expected::parse("{\"serve\":[1]}").is_err(),
            "numbers are refused"
        );
    }

    #[test]
    fn committed_file_covers_every_program_and_cell() {
        let e = Expected::committed().unwrap();
        assert_eq!(e.suite.len(), 14);
        assert_eq!(e.serve.len(), 320);
    }
}
