//! Command-line harness: regenerates every table and figure.
//!
//! Usage:
//!
//! ```text
//! suite [all|table1|figure4|figure5|figure6|figure7|blur|sensitivity|ablations|smoke|cache|adaptive] [--small] [--json] [--smoke]
//! ```
//!
//! With `--json`, each measured experiment also writes a machine-readable
//! `BENCH_<experiment>.json` file into the current directory (see
//! DESIGN.md §10 for the schema). `smoke` runs one small benchmark through
//! all five compilation paths (two static, three dynamic) and exits
//! non-zero if any path disagrees. `cache` sweeps repeat compiles with
//! the memo off and on. `ablations` prints the design ablations' exact
//! counts and their two wall-clock rows. `adaptive` is the tiering
//! calibration report: it sweeps reuse counts through the fixed engines
//! and the adaptive tiering engine — both synchronous and with the
//! background translation worker — each timed region starting from a
//! cold translation cache (`BENCH_adaptive.json`); `adaptive --smoke`
//! runs a tiny sweep with the same cross-engine equivalence asserts
//! live.
//!
//! The suite reproduces the paper and reports; it gates nothing. What
//! gates is the test suite (`cargo test --workspace`), and wall-clock is
//! measured by the repo benchmark (`benchmark/run.sh`).
//!
//! An experiment takes only the flags [`EXPERIMENTS`] lists for it;
//! anything else — an unknown experiment or flag, a flag the experiment
//! does not read, a second positional argument — exits 2 with the usage
//! line instead of being ignored. If any `--json` output file cannot be
//! written the remaining files are still written and the run exits
//! non-zero naming every failure.

use tcc_obs::json::Json;
use tcc_suite::{
    ablations, adaptive_bench, adaptive_bench_smoke, adaptive_json, adaptive_report, benchmarks,
    cache_bench, cache_json, cache_report, json_report, measure,
    micro::{alloc_sweep, measure_table1},
    ns_per_cycle, report, DynBackend, Measurement, BLUR_FULL, BLUR_SMALL,
};

/// Every experiment and the flags it reads.
const EXPERIMENTS: [(&str, &[&str]); 12] = [
    ("all", &["--small", "--json"]),
    ("table1", &["--json"]),
    ("figure4", &["--small", "--json"]),
    ("figure5", &["--small", "--json"]),
    ("figure6", &["--small", "--json"]),
    ("figure7", &["--small", "--json"]),
    ("blur", &["--small"]),
    ("sensitivity", &["--small"]),
    ("ablations", &[]),
    ("smoke", &[]),
    ("cache", &["--json"]),
    ("adaptive", &["--smoke", "--json"]),
];

/// Names what was not understood, prints the usage line, exits 2.
fn usage_error(problem: &str) -> ! {
    let forms: Vec<String> = EXPERIMENTS
        .iter()
        .map(|(name, flags)| {
            let flags: String = flags.iter().map(|f| format!(" [{f}]")).collect();
            format!("{name}{flags}")
        })
        .collect();
    eprintln!("suite: {problem}");
    eprintln!("usage: suite [{}]", forms.join(" | "));
    std::process::exit(2);
}

/// Writes one `BENCH_<name>.json`. An unwritable path (read-only cwd,
/// ENOSPC, …) is not a panic: the failure is recorded so the caller
/// can finish writing the remaining files and exit non-zero naming
/// everything that failed — measured results that *did* serialize are
/// never thrown away because a sibling file could not be.
fn write_json(name: &str, j: &Json, failed: &mut Vec<String>) {
    let path = format!("BENCH_{name}.json");
    match std::fs::write(&path, j.pretty()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("error: cannot write {path}: {e}");
            failed.push(path);
        }
    }
}

/// Exits non-zero listing every output file that failed to write; a
/// no-op when all writes succeeded.
fn exit_on_write_failures(failed: &[String]) {
    if !failed.is_empty() {
        eprintln!("error: failed to write: {}", failed.join(", "));
        std::process::exit(1);
    }
}

fn main() {
    let mut what: Option<String> = None;
    let mut flags: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg.starts_with("--") {
            flags.push(arg);
        } else if let Some(first) = &what {
            usage_error(&format!("unexpected argument {arg} after {first}"));
        } else {
            what = Some(arg);
        }
    }
    let what = what.as_deref().unwrap_or("all");
    let Some((_, accepted)) = EXPERIMENTS.iter().find(|(name, _)| *name == what) else {
        usage_error(&format!("unknown experiment {what}"));
    };
    if let Some(flag) = flags.iter().find(|f| !accepted.contains(&f.as_str())) {
        usage_error(&format!("{what} does not take {flag}"));
    }
    let flag = |name: &str| flags.iter().any(|f| f == name);
    let (small, json, smoke) = (flag("--small"), flag("--json"), flag("--smoke"));
    let blur_dims = if small { BLUR_SMALL } else { BLUR_FULL };
    let mut failed_writes: Vec<String> = Vec::new();

    if what == "smoke" {
        // One small benchmark, every compilation path; measure() panics
        // if the two static and three dynamic paths disagree.
        let b = benchmarks(BLUR_SMALL)
            .into_iter()
            .find(|b| b.name == "pow")
            .expect("pow bench");
        let m = measure(&b);
        println!(
            "smoke ok: {} — static(lcc)={}cyc static(gcc)={}cyc vcode={}cyc icode-ls={}cyc icode-gc={}cyc",
            m.name,
            m.static_naive_cycles,
            m.static_opt_cycles,
            m.dynamic[DynBackend::Vcode as usize].run_cycles,
            m.dynamic[DynBackend::IcodeLinear as usize].run_cycles,
            m.dynamic[DynBackend::IcodeColor as usize].run_cycles,
        );
        return;
    }

    if what == "ablations" {
        print!("{}", ablations::report());
        return;
    }

    if what == "adaptive" {
        // Reuse-count sweep: cold-start translate+run cost per engine,
        // with the cross-engine equivalence asserts always live.
        let rows = if smoke {
            adaptive_bench_smoke()
        } else {
            adaptive_bench()
        };
        if json {
            write_json("adaptive", &adaptive_json(&rows), &mut failed_writes);
        }
        print!("{}", adaptive_report(&rows));
        exit_on_write_failures(&failed_writes);
        return;
    }

    eprintln!("calibrating interpreter...");
    let nspc = ns_per_cycle();
    eprintln!("calibration: {nspc:.2} ns per VM cycle");

    let need_bench = matches!(what, "all" | "figure4" | "figure5" | "figure6" | "figure7");
    let ms: Vec<Measurement> = if need_bench {
        benchmarks(blur_dims)
            .iter()
            .map(|b| {
                eprintln!("measuring {} ({})...", b.name, b.style);
                measure(b)
            })
            .collect()
    } else {
        Vec::new()
    };

    match what {
        "table1" => {
            let rows = measure_table1(nspc, 250, 100);
            if json {
                write_json(
                    "table1",
                    &json_report::table1_json(&rows, nspc),
                    &mut failed_writes,
                );
            }
            print!("{}", report::table1(&rows, nspc));
        }
        "figure4" => {
            if json {
                write_json(
                    "figure4",
                    &json_report::figure4_json(&ms),
                    &mut failed_writes,
                );
            }
            print!("{}", report::figure4(&ms));
        }
        "figure5" => {
            if json {
                write_json(
                    "figure5",
                    &json_report::figure5_json(&ms, nspc),
                    &mut failed_writes,
                );
            }
            print!("{}", report::figure5(&ms, nspc));
        }
        "figure6" => {
            if json {
                write_json(
                    "figure6",
                    &json_report::figure6_json(&ms, nspc),
                    &mut failed_writes,
                );
            }
            print!("{}", report::figure6(&ms, nspc));
        }
        "figure7" => {
            if json {
                write_json(
                    "figure7",
                    &json_report::figure7_json(&ms, nspc),
                    &mut failed_writes,
                );
            }
            print!("{}", report::figure7(&ms, nspc));
            print!("\n{}", report::figure7_sizes(&alloc_sweep()));
        }
        "sensitivity" => {
            print!("{}", report::sensitivity(&benchmarks(blur_dims)));
        }
        "cache" => {
            let rows = cache_bench();
            if json {
                write_json("cache", &cache_json(&rows), &mut failed_writes);
            }
            print!("{}", cache_report(&rows));
        }
        "blur" => {
            let b = benchmarks(blur_dims)
                .into_iter()
                .find(|b| b.name == "blur")
                .expect("blur");
            eprintln!("measuring blur...");
            let m = measure(&b);
            print!("{}", report::blur_report(&m, nspc));
        }
        "all" => {
            let rows = measure_table1(nspc, 250, 100);
            if json {
                write_json(
                    "table1",
                    &json_report::table1_json(&rows, nspc),
                    &mut failed_writes,
                );
                write_json(
                    "figure4",
                    &json_report::figure4_json(&ms),
                    &mut failed_writes,
                );
                write_json(
                    "figure5",
                    &json_report::figure5_json(&ms, nspc),
                    &mut failed_writes,
                );
                write_json(
                    "figure6",
                    &json_report::figure6_json(&ms, nspc),
                    &mut failed_writes,
                );
                write_json(
                    "figure7",
                    &json_report::figure7_json(&ms, nspc),
                    &mut failed_writes,
                );
            }
            println!("{}", report::table1(&rows, nspc));
            println!("{}", report::figure4(&ms));
            println!("{}", report::figure5(&ms, nspc));
            println!("{}", report::figure6(&ms, nspc));
            println!("{}", report::figure7(&ms, nspc));
            println!("{}", report::figure7_sizes(&alloc_sweep()));
            if let Some(m) = ms.iter().find(|m| m.name == "blur") {
                println!("{}", report::blur_report(m, nspc));
            }
            println!();
            println!("{}", report::sensitivity(&benchmarks(blur_dims)));
        }
        _ => unreachable!("validated above"),
    }
    exit_on_write_failures(&failed_writes);
}
