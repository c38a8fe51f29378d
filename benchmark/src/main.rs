//! The repo benchmark. One process runs one workload:
//!
//! ```text
//! tcc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! prints every metric as `workload metric value unit`, writes the
//! detail to `DIR/result_NAME.json` (untraced) or `DIR/layers_NAME.json`
//! and `DIR/trace_NAME.json` (traced), and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. It exits
//! non-zero when an answer was wrong. `run.sh` wraps it; see README.md.

mod cells;
mod json;
mod layers;
mod names;
mod oracle;
mod report;
mod rng;
mod serve_workloads;
mod stats;
mod suite_workloads;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use names::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use oracle::Expected;
use report::{agg_json, workload_layers, EndToEnd};
use serve_workloads::{cores, pool_workers, Pool, WarmRestart, SERVE_CHURN, SERVE_HOT};
use suite_workloads::{CodegenCold, ExecCold, ExecSteady};
use workload::{Acc, SliceOut, Workload};

/// Default `--seconds`, and `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u64 = 10;

/// Slices in an untraced run: one per second of `--seconds` after a
/// fifth is set aside for set-up and checking; never fewer than 2,
/// never more than 8, never shorter than a second each.
fn untraced_slices(seconds: u64) -> usize {
    (seconds * 4 / 5).clamp(2, 8) as usize
}

/// Workload slices in a traced run: untraced and traced alternating.
const TRACED_PASS: [bool; 4] = [false, true, false, true];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    mode: Mode,
}

enum Mode {
    Run,
    List,
    SelfCheck,
    Bless(PathBuf),
    Compare {
        manifest: PathBuf,
        a: PathBuf,
        b: PathBuf,
    },
}

const USAGE: &str =
    "usage: tcc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       tcc-benchmark --list | --selfcheck [--seed N] | --bless FILE
       tcc-benchmark --compare BENCHMARK.json A.json B.json";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| {
        text.parse::<u64>()
            .map_err(|_| format!("{flag}: {text:?} is not a whole number"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, &flag)?),
            "--seed" => args.seed = number(value(&mut it, &flag)?, &flag)?,
            "--seconds" => args.seconds = number(value(&mut it, &flag)?, &flag)?,
            "--trace" => args.trace = number(value(&mut it, &flag)?, &flag)? != 0,
            "--traced" => args.trace = true,
            "--out" => args.out = PathBuf::from(value(&mut it, &flag)?),
            "--list" => args.mode = Mode::List,
            "--selfcheck" => args.mode = Mode::SelfCheck,
            "--bless" => args.mode = Mode::Bless(PathBuf::from(value(&mut it, &flag)?)),
            "--compare" => {
                args.mode = Mode::Compare {
                    manifest: PathBuf::from(value(&mut it, &flag)?),
                    a: PathBuf::from(value(&mut it, &flag)?),
                    b: PathBuf::from(value(&mut it, &flag)?),
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 60".to_string());
    }
    Ok(args)
}

fn build(
    name: &str,
    seed: u64,
    expected: &Expected,
    out: &Path,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "codegen_cold" => Box::new(CodegenCold::new(expected)?),
        "exec_steady" => Box::new(ExecSteady::new(expected)?),
        "exec_cold" => Box::new(ExecCold::new(expected)?),
        "serve_hot" => Box::new(Pool::new(&SERVE_HOT, pool_workers(), seed, expected)?),
        "serve_churn" => Box::new(Pool::new(&SERVE_CHURN, pool_workers(), seed, expected)?),
        "warm_restart" => Box::new(WarmRestart::new(seed, expected, out)?),
        other => {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("no workload {other:?}; known: {}", known.join(" ")));
        }
    })
}

fn slice_json(s: &SliceOut) -> Json {
    let mut lat = s.lat_ns.clone();
    lat.sort_unstable();
    Json::obj(vec![
        ("setup_s", Json::from(s.setup_ns as f64 / 1e9)),
        ("busy_s", Json::from(s.busy_ns as f64 / 1e9)),
        ("ops", Json::from(lat.len())),
        ("failed", Json::from(s.failed)),
        (
            "ops_per_s",
            Json::from(lat.len() as f64 * 1e9 / s.busy_ns.max(1) as f64),
        ),
        (
            "p50_us",
            Json::from(stats::percentile(&lat, 0.5) as f64 / 1e3),
        ),
        (
            "p99_us",
            Json::from(stats::percentile(&lat, 0.99) as f64 / 1e3),
        ),
        ("spans", Json::from(s.spans.len())),
    ])
}

fn acc_json(acc: &Acc) -> Json {
    Json::Obj(
        acc.fields()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::from(v)))
            .collect(),
    )
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the metric lines and the final JSON line; returns the
/// `metrics` object for the result file.
fn emit(
    workload: &str,
    defs: &[MetricDef],
    values: &[(&'static str, f64)],
    attempted: u64,
    failed: u64,
    correct: bool,
) -> Result<Json, String> {
    let mut metrics = Vec::new();
    for def in defs {
        let value = values
            .iter()
            .find(|(name, _)| *name == def.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("internal: metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("internal: metric {} is not finite", def.name));
        }
        println!("{workload} {} {value} {}", def.name, def.unit);
        metrics.push((
            def.name,
            Json::obj(vec![
                ("value", Json::from(value)),
                ("unit", Json::from(def.unit)),
            ]),
        ));
    }
    if values.len() != defs.len() {
        return Err("internal: a measured metric has no definition".to_string());
    }
    let metrics = Json::obj(metrics);
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::from(correct)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("metrics", metrics.clone()),
        ])
    );
    Ok(metrics)
}

fn header(workload: &str, args: &Args, slices: &[SliceOut]) -> Vec<(&'static str, Json)> {
    vec![
        ("workload", Json::from(workload)),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("nproc", Json::from(cores())),
        ("pool_workers", Json::from(pool_workers())),
        ("slices", Json::Arr(slices.iter().map(slice_json).collect())),
    ]
}

fn run(name: &str, args: &Args) -> Result<bool, String> {
    let expected = Expected::committed()?;
    let mut w = build(name, args.seed, &expected, &args.out)?;
    let pass: Vec<bool> = if args.trace {
        TRACED_PASS.to_vec()
    } else {
        vec![false; untraced_slices(args.seconds)]
    };
    let mut slices: Vec<SliceOut> = pass
        .iter()
        .enumerate()
        .map(|(i, record)| w.slice(i, *record))
        .collect();
    let attempted: u64 = slices.iter().map(|s| s.lat_ns.len() as u64).sum();
    let failed: u64 = slices.iter().map(|s| s.failed).sum();
    let mut correct = failed == 0;
    let mut counters = Acc::default();
    slices.iter().for_each(|s| counters += &s.acc);
    let mut doc = header(name, args, &slices);
    doc.push(("counters", acc_json(&counters)));

    let file = if args.trace {
        let mut spans = Vec::new();
        for s in &mut slices {
            trace::merge(&mut spans, std::mem::take(&mut s.spans));
        }
        let side = |recorded: bool| -> Vec<&SliceOut> {
            let of_side = slices.iter().zip(&pass).filter(|(_, r)| **r == recorded);
            of_side.map(|(s, _)| s).collect()
        };
        let mut values = workload_layers(&side(true), &side(false), w.shape(), &spans);
        values.extend(layers::direct_pass(args.seed, &expected, &args.out)?);
        if values["trace.coverage"] < 0.9 {
            eprintln!(
                "{name}: trace.coverage {} is below 0.9",
                values["trace.coverage"]
            );
            correct = false;
        }
        let listed: Vec<(&'static str, f64)> = values.into_iter().collect();
        let metrics = emit(name, &PER_LAYER, &listed, attempted, failed, correct)?;
        doc.push(("metrics", metrics));
        write_file(
            &args.out.join(format!("trace_{name}.json")),
            &trace::to_json(name, args.seed, &spans).to_string(),
        )?;
        "layers"
    } else {
        let e = EndToEnd::from_slices(&slices, w.as_ref());
        for def in &END_TO_END {
            if let Some(a) = e.spread(def.name) {
                println!(
                    "# {name} {}: {} windows, best {}, median {}, iqr {}",
                    def.name, a.windows, a.best, a.median, a.iqr
                );
            }
        }
        println!(
            "# {name} a window is {} ops; {} of them lie beyond its p99",
            e.window_ops, e.p99_samples_beyond
        );
        let metrics = emit(name, &END_TO_END, &e.values(), attempted, failed, correct)?;
        doc.push(("metrics", metrics));
        doc.push((
            "spread",
            Json::Obj(
                END_TO_END
                    .iter()
                    .filter_map(|d| Some((d.name.to_string(), agg_json(&e.spread(d.name)?))))
                    .collect(),
            ),
        ));
        doc.push((
            "window",
            Json::obj(vec![
                ("ops", Json::from(e.window_ops)),
                ("p99_samples_beyond", Json::from(e.p99_samples_beyond)),
            ]),
        ));
        "result"
    };
    doc.push(("attempted", Json::from(attempted)));
    doc.push(("failed", Json::from(failed)));
    doc.push(("correct", Json::from(correct)));
    write_file(
        &args.out.join(format!("{file}_{name}.json")),
        &Json::obj(doc).pretty(),
    )?;
    Ok(correct)
}

/// Determinism: the single-threaded workloads must report identical
/// counts on two runs at one seed; another seed must change the seeded
/// streams and still produce no wrong answer.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let expected = Expected::committed()?;
    let mut ok = true;
    let one = |name: &str, seed: u64| -> Result<(SliceOut, u64, u64), String> {
        let mut w = build(name, seed, &expected, &args.out)?;
        let s = w.slice(0, false);
        Ok((s, w.gen_insns(), w.run_cycles()))
    };
    for name in ["codegen_cold", "exec_steady", "exec_cold", "warm_restart"] {
        let (a, a_gen, a_cycles) = one(name, args.seed)?;
        let (b, b_gen, b_cycles) = one(name, args.seed)?;
        let same = a.acc.exact() == b.acc.exact() && (a_gen, a_cycles) == (b_gen, b_cycles);
        let clean = a.failed == 0 && b.failed == 0;
        println!(
            "selfcheck {name}: counts {} ({} counters, gen_insns {a_gen}, run_cycles {a_cycles}), failed {}",
            if same { "repeat" } else { "DIFFER" },
            a.acc.exact().len(),
            a.failed + b.failed
        );
        if !same {
            for ((field, x), (_, y)) in a.acc.exact().iter().zip(b.acc.exact()) {
                if *x != y {
                    println!("  {field}: {x} vs {y}");
                }
            }
        }
        ok &= same && clean;
    }
    for (name, params) in [("serve_hot", &SERVE_HOT), ("serve_churn", &SERVE_CHURN)] {
        let here = Pool::new(params, pool_workers(), args.seed, &expected)?;
        let mut there = Pool::new(params, pool_workers(), args.seed + 1, &expected)?;
        let moved = here.stream(0, 0) != there.stream(0, 0);
        let repeat = here.stream(0, 0) == here.stream(0, 0);
        let s = there.slice(0, false);
        println!(
            "selfcheck {name}: stream {} with the seed, failed {} of {}",
            if moved && repeat {
                "moves"
            } else {
                "DOES NOT MOVE"
            },
            s.failed,
            s.lat_ns.len()
        );
        ok &= moved && repeat && s.failed == 0;
    }
    let (s, _, _) = one("warm_restart", args.seed + 1)?;
    println!("selfcheck warm_restart: second seed failed {}", s.failed);
    ok &= s.failed == 0;
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

/// Rewrites the expected-answers file from the static twins.
fn bless(path: &Path) -> Result<(), String> {
    let expected = Expected {
        suite: cells::suite()
            .iter()
            .map(|b| (b.name.to_string(), oracle::static_answer(b)))
            .collect(),
        serve: oracle::serve_twins(cells::cell_count(cells::PARAMS_LARGE)),
    };
    write_file(path, &expected.to_json().pretty())
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn number(v: Option<&Json>) -> Option<f64> {
    match v? {
        Json::Num(n) => Some(*n),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// A/A comparison of two merged result files (`{"<workload>": …}`):
/// every end-to-end metric of every workload, both values, how much
/// worse (+) or better (−) the second is, and the bound from
/// `BENCHMARK.json`. Two runs of one build must agree within the bound
/// in either direction.
fn compare(manifest: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let manifest = read_json(manifest)?;
    let (a, b) = (read_json(a)?, read_json(b)?);
    let bounds = json::get(&manifest, "end_to_end")
        .and_then(json::as_arr)
        .ok_or("manifest has no end_to_end")?;
    let mut within = true;
    println!(
        "{:<13} {:<12} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (workload, _) in WORKLOADS {
        for def in &END_TO_END {
            let bound = bounds
                .iter()
                .find(|row| json::get(row, "name").and_then(json::as_str) == Some(def.name))
                .and_then(|row| number(json::get(row, "bound")))
                .ok_or_else(|| format!("manifest has no bound for {}", def.name))?;
            let read = |doc: &Json| {
                let metrics = json::get(json::get(doc, workload)?, "metrics")?;
                number(json::get(json::get(metrics, def.name)?, "value"))
            };
            let (Some(x), Some(y)) = (read(&a), read(&b)) else {
                return Err(format!(
                    "{workload} {}: missing from a result file",
                    def.name
                ));
            };
            let rise = if x == y { 0.0 } else { (y - x) / x.abs() };
            let worse = match def.better {
                stats::Better::Lower => rise,
                stats::Better::Higher => -rise,
            };
            let ok = worse.abs() <= bound;
            within &= ok;
            println!(
                "{workload:<13} {:<12} {x:>16.4} {y:>16.4} {:>+8.2}% {:>6.1}%{}",
                def.name,
                worse * 100.0,
                bound * 100.0,
                if ok { "" } else { "  EXCEEDS" }
            );
        }
    }
    Ok(within)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match &args.mode {
        Mode::List => {
            WORKLOADS.iter().for_each(|w| println!("{}", w.0));
            Ok(true)
        }
        Mode::SelfCheck => selfcheck(&args),
        Mode::Bless(path) => bless(path).map(|()| true),
        Mode::Compare { manifest, a, b } => compare(manifest, a, b),
        Mode::Run => match &args.workload {
            Some(name) => run(name, &args),
            None => Err(format!("--workload is required\n{USAGE}")),
        },
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tcc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
