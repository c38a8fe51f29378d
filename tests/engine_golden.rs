//! Golden: the translated engines' decisions, counter for counter.
//!
//! For every `tcc_suite::benchmarks(BLUR_SMALL)` program × {VCODE, ICODE
//! linear scan} × {`Predecoded{fuse:false}`, `Predecoded{fuse:true}`,
//! `Threaded`, default `Adaptive`}, one compile and `RUNS` runs of the
//! dynamic function are digested: the last result, `cycles`, `insns`,
//! every `exec` counter (bar `handlers`, a constant of the build rather
//! than a decision), the adaptive engine's exact counters, and the sorted
//! superinstruction shape histogram. The fixed engines' rows were
//! computed at commit `d55273b`, when tier 1 and tier 2 each decoded the
//! words into a layout of their own; the adaptive rows were re-cut when
//! the engine stopped single-stepping a function's first two runs (every
//! tier-0 run and instruction moved to tier 1, run-once functions gained
//! a decode, and the 0→1 promotions went; tier 2 did not move). Any
//! change to what is fused, batched, grouped, promoted or counted shows
//! here as a named cell, not as a moved benchmark number.
//!
//! A deliberate change to the engines' decisions re-blesses the table:
//! the failure message prints every cell in source form.
//!
//! The table says the engines do what they did; two asserts beside it
//! say that was right. Every program × back end also runs under
//! `DecodePerStep`, and each of the group's four cells must equal it in
//! (result, check, cycles, insns) — the reference is run here, not
//! trusted from the day the table was cut. And the ICODE scheduler's
//! effect on what the fused translator can pair is pinned per loop
//! kernel ([`SCHEDULER_PAIR_GAIN`]).

use tcc::{Backend, Config, ExecEngine, Session, SessionMetrics, Strategy};
use tcc_suite::{benchmarks, BenchDef, BLUR_SMALL};

/// Runs of the dynamic function per cell: past the default adaptive
/// threshold, so the adaptive cells cover the first-entry decode, the
/// promotion and the top tier.
const RUNS: usize = 10;

/// (program, back end, engine, cycles, insns, FNV-1a digest of
/// everything listed in the module docs).
type Cell = (&'static str, &'static str, &'static str, u64, u64, u64);

// One cell a line, as the failure message prints them.
#[rustfmt::skip]
const GOLDEN: &[Cell] = &[
    ("hash", "vcode", "predecoded", 58381, 36681, 0x649be7b02cdd2095),
    ("hash", "vcode", "fused", 58381, 36681, 0x34cf0c3f9898e4e7),
    ("hash", "vcode", "threaded", 58381, 36681, 0x5096fa5b80917609),
    ("hash", "vcode", "adaptive", 58381, 36681, 0xbf74a206390305aa),
    ("hash", "icode-ls", "predecoded", 58141, 36561, 0x9a27f627fe8e5095),
    ("hash", "icode-ls", "fused", 58141, 36561, 0x83f53ee12aaf41b1),
    ("hash", "icode-ls", "threaded", 58141, 36561, 0x54f85ba0323a18af),
    ("hash", "icode-ls", "adaptive", 58141, 36561, 0x62355e0f60f3280f),
    ("ms", "vcode", "predecoded", 2240363, 1810246, 0x2d86fe998d832b90),
    ("ms", "vcode", "fused", 2240363, 1810246, 0x5cc7071df81de3c2),
    ("ms", "vcode", "threaded", 2240363, 1810246, 0xf773a8f1e289f6fc),
    ("ms", "vcode", "adaptive", 2240363, 1810246, 0x1e50911e4854bd78),
    ("ms", "icode-ls", "predecoded", 1940323, 1610226, 0xefc530bef9f51502),
    ("ms", "icode-ls", "fused", 1940323, 1610226, 0xa0aff9e0d89aade4),
    ("ms", "icode-ls", "threaded", 1940323, 1610226, 0x9d4450bcfbef818e),
    ("ms", "icode-ls", "adaptive", 1940323, 1610226, 0xb9e592e832e0f1d0),
    ("heap", "vcode", "predecoded", 10498873, 5831532, 0x41544dc7d6aa1f29),
    ("heap", "vcode", "fused", 10498873, 5831532, 0xeff507f12e7d2b35),
    ("heap", "vcode", "threaded", 10498873, 5831532, 0x4abb0dd6899f2435),
    ("heap", "vcode", "adaptive", 10498873, 5831532, 0xc0ad94380c8a1f0c),
    ("heap", "icode-ls", "predecoded", 4554805, 2852008, 0xf992fdac4b3d3599),
    ("heap", "icode-ls", "fused", 4554805, 2852008, 0x9b4b635832796af1),
    ("heap", "icode-ls", "threaded", 4554805, 2852008, 0x077df993a064250a),
    ("heap", "icode-ls", "adaptive", 4554805, 2852008, 0x9faa52585502b249),
    ("ntn", "vcode", "predecoded", 13178, 5286, 0xdd7edc0b14264d7d),
    ("ntn", "vcode", "fused", 13178, 5286, 0x8ceab5cac81d3d0a),
    ("ntn", "vcode", "threaded", 13178, 5286, 0x1ba488e31b422160),
    ("ntn", "vcode", "adaptive", 13178, 5286, 0x5a8ee44882cae1da),
    ("ntn", "icode-ls", "predecoded", 13018, 5206, 0xd8e3731fd8c679be),
    ("ntn", "icode-ls", "fused", 13018, 5206, 0x8af1902fa19e1a11),
    ("ntn", "icode-ls", "threaded", 13018, 5206, 0x1df3067eda36fba7),
    ("ntn", "icode-ls", "adaptive", 13018, 5206, 0xd0e6b2a9915bdf91),
    ("cmp", "vcode", "predecoded", 543304, 484719, 0x131183ad828204e2),
    ("cmp", "vcode", "fused", 543304, 484719, 0x617fb2073adb4edb),
    ("cmp", "vcode", "threaded", 543304, 484719, 0x60fe26264417a414),
    ("cmp", "vcode", "adaptive", 543304, 484719, 0x617e3a1ed15372fa),
    ("cmp", "icode-ls", "predecoded", 491984, 453939, 0xe33d994ad8a559ea),
    ("cmp", "icode-ls", "fused", 491984, 453939, 0x1f4ad2b38b8e196a),
    ("cmp", "icode-ls", "threaded", 491984, 453939, 0xfcdea317e56dd77a),
    ("cmp", "icode-ls", "adaptive", 491984, 453939, 0x26bb8c5ed93da32a),
    ("query", "vcode", "predecoded", 1696571, 1217578, 0xf4f2bf4345139fbc),
    ("query", "vcode", "fused", 1696571, 1217578, 0x6845538c75bf7a3b),
    ("query", "vcode", "threaded", 1696571, 1217578, 0x6b9a762621c7bdf4),
    ("query", "vcode", "adaptive", 1696571, 1217578, 0x76a66922aea25de9),
    ("query", "icode-ls", "predecoded", 1436371, 1077478, 0x97f8df0dda92019e),
    ("query", "icode-ls", "fused", 1436371, 1077478, 0xfb045e3368544bc5),
    ("query", "icode-ls", "threaded", 1436371, 1077478, 0x8fb660b2b286f13e),
    ("query", "icode-ls", "adaptive", 1436371, 1077478, 0x47d5ee3163745eea),
    ("mshl", "vcode", "predecoded", 1365, 885, 0x18cd48d09928dce9),
    ("mshl", "vcode", "fused", 1365, 885, 0xa9973c4807f5331a),
    ("mshl", "vcode", "threaded", 1365, 885, 0x563eb93bfff55772),
    ("mshl", "vcode", "adaptive", 1365, 885, 0xebf5a7d2f0734b3c),
    ("mshl", "icode-ls", "predecoded", 1065, 735, 0x500624bab8047b36),
    ("mshl", "icode-ls", "fused", 1065, 735, 0x84b9d92b1e9060da),
    ("mshl", "icode-ls", "threaded", 1065, 735, 0x425ba049b2033fad),
    ("mshl", "icode-ls", "adaptive", 1065, 735, 0x6809ff6f79723804),
    ("umshl", "vcode", "predecoded", 1363, 954, 0x61dbf49f73e8ad86),
    ("umshl", "vcode", "fused", 1363, 954, 0x79da4f5ef9fbb5ff),
    ("umshl", "vcode", "threaded", 1363, 954, 0x715cf01e87bc78ee),
    ("umshl", "vcode", "adaptive", 1363, 954, 0x02870fc6ec41e956),
    ("umshl", "icode-ls", "predecoded", 1323, 934, 0x15a648f43e0ec1ec),
    ("umshl", "icode-ls", "fused", 1323, 934, 0x58ef4b9e231e9993),
    ("umshl", "icode-ls", "threaded", 1323, 934, 0x5b7c56dd7f8b365c),
    ("umshl", "icode-ls", "adaptive", 1323, 934, 0x562a9ac543ac1dbc),
    ("pow", "vcode", "predecoded", 1237, 671, 0x67ef21289a874c1f),
    ("pow", "vcode", "fused", 1237, 671, 0x5275a0c48bacb9b7),
    ("pow", "vcode", "threaded", 1237, 671, 0x94ddf97280d64582),
    ("pow", "vcode", "adaptive", 1237, 671, 0xe79d2903dadd259d),
    ("pow", "icode-ls", "predecoded", 1117, 611, 0xc1b8c3f5d4b293dd),
    ("pow", "icode-ls", "fused", 1117, 611, 0x952a4c488e3a3bb7),
    ("pow", "icode-ls", "threaded", 1117, 611, 0x50b3cd86f9c76eac),
    ("pow", "icode-ls", "adaptive", 1117, 611, 0xff28cb34c9fcec9d),
    ("binary", "vcode", "predecoded", 4580, 2869, 0x4ca8b0b1568412f9),
    ("binary", "vcode", "fused", 4580, 2869, 0x0fc4fee14f340300),
    ("binary", "vcode", "threaded", 4580, 2869, 0xb38bfd2b695bdbf7),
    ("binary", "vcode", "adaptive", 4580, 2869, 0x07d4ccdd98cdee5b),
    ("binary", "icode-ls", "predecoded", 4040, 2589, 0x838e5128c54f5b52),
    ("binary", "icode-ls", "fused", 4040, 2589, 0xe7eba11d1599d8a5),
    ("binary", "icode-ls", "threaded", 4040, 2589, 0x8282efc215b70dd2),
    ("binary", "icode-ls", "adaptive", 4040, 2589, 0x545a32a2b743160f),
    ("dp", "vcode", "predecoded", 5313, 3455, 0x786b24efc5350204),
    ("dp", "vcode", "fused", 5313, 3455, 0x8f75562566e05ce5),
    ("dp", "vcode", "threaded", 5313, 3455, 0xf92d9a88361d9a1f),
    ("dp", "vcode", "adaptive", 5313, 3455, 0x9fd3a190e8be20bf),
    ("dp", "icode-ls", "predecoded", 3953, 2775, 0x5e100332a153d7a7),
    ("dp", "icode-ls", "fused", 3953, 2775, 0xa2a360d3254eaa8d),
    ("dp", "icode-ls", "threaded", 3953, 2775, 0x2f83f44e4947764b),
    ("dp", "icode-ls", "adaptive", 3953, 2775, 0x84fcc6882b61eb3a),
    ("blur", "vcode", "predecoded", 8500494, 7364427, 0xc8e907e6a14f5339),
    ("blur", "vcode", "fused", 8500494, 7364427, 0x481d3a1d4c9b5507),
    ("blur", "vcode", "threaded", 8500494, 7364427, 0x9f97eba45f71db81),
    ("blur", "vcode", "adaptive", 8500494, 7364427, 0xf4899ec854e0d221),
    ("blur", "icode-ls", "predecoded", 8103034, 7150097, 0x6e6620741b815825),
    ("blur", "icode-ls", "fused", 8103034, 7150097, 0x5e04582f978d1c9e),
    ("blur", "icode-ls", "threaded", 8103034, 7150097, 0xcc8a67b943542571),
    ("blur", "icode-ls", "adaptive", 8103034, 7150097, 0xc89f8b8f1851f750),
    ("filter", "vcode", "predecoded", 1192719, 951918, 0x072798f57e75ff46),
    ("filter", "vcode", "fused", 1192719, 951918, 0x9d8f18c3c56bbc24),
    ("filter", "vcode", "threaded", 1192719, 951918, 0x0ccf00dc7e8c55f9),
    ("filter", "vcode", "adaptive", 1192719, 951918, 0x7a71a23fd8903ef1),
    ("filter", "icode-ls", "predecoded", 944839, 827978, 0x569e02f0aa9d286e),
    ("filter", "icode-ls", "fused", 944839, 827978, 0xe0c8f35788ee08ee),
    ("filter", "icode-ls", "threaded", 944839, 827978, 0xa28d1752a081d7d4),
    ("filter", "icode-ls", "adaptive", 944839, 827978, 0x3d9d12321cb7966f),
    ("demux", "vcode", "predecoded", 2502279, 1850510, 0xc2b213862cd3e8c6),
    ("demux", "vcode", "fused", 2502279, 1850510, 0x6b97728cc1bece30),
    ("demux", "vcode", "threaded", 2502279, 1850510, 0xf4b73e7b71d3bd83),
    ("demux", "vcode", "adaptive", 2502279, 1850510, 0x6ae2f414a031a4a1),
    ("demux", "icode-ls", "predecoded", 1561119, 1379930, 0x6fbb3111c1ba460e),
    ("demux", "icode-ls", "fused", 1561119, 1379930, 0x5ac2251cba3a1bea),
    ("demux", "icode-ls", "threaded", 1561119, 1379930, 0x68362b4d513d66fe),
    ("demux", "icode-ls", "adaptive", 1561119, 1379930, 0x29488930b5220bfd),
];

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

const ICODE_LS: Backend = Backend::Icode {
    strategy: Strategy::LinearScan,
};

/// One compile and `runs` runs of the dynamic function under `config`:
/// the session, its metrics as the last run left them, and the
/// engine-independent observables (result, check, cycles, insns).
fn observe(bench: &BenchDef, config: Config, runs: usize) -> (Session, SessionMetrics, [u64; 4]) {
    let mut s = Session::new(bench.src, config).expect("suite program compiles");
    (bench.setup)(&mut s);
    let fp = (bench.compile_dyn)(&mut s);
    let mut result = 0;
    for _ in 0..runs {
        result = (bench.run_dyn)(&mut s, fp);
    }
    let m = s.metrics();
    let check = (bench.check)(&mut s);
    let observed = [result, check, m.vm.cycles, m.vm.insns];
    (s, m, observed)
}

#[test]
fn engine_counters_match_the_committed_digests() {
    let backends = [("vcode", Backend::default()), ("icode-ls", ICODE_LS)];
    let engines = [
        ("predecoded", ExecEngine::Predecoded { fuse: false }),
        ("fused", ExecEngine::Predecoded { fuse: true }),
        ("threaded", ExecEngine::Threaded),
        ("adaptive", ExecEngine::default()),
    ];
    let mut got: Vec<Cell> = Vec::new();
    for bench in benchmarks(BLUR_SMALL) {
        for (btag, backend) in &backends {
            let config = |engine| Config {
                backend: backend.clone(),
                engine: Some(engine),
                ..Config::default()
            };
            let (_, _, reference) = observe(&bench, config(ExecEngine::DecodePerStep), RUNS);
            for (etag, engine) in engines {
                let (s, m, observed) = observe(&bench, config(engine), RUNS);
                assert_eq!(
                    observed, reference,
                    "{} {btag} {etag}: (result, check, cycles, insns) diverge from decode-per-step",
                    bench.name
                );
                let mut h = Fnv(0xcbf2_9ce4_8422_2325);
                let (e, a) = (&m.exec, &m.adaptive);
                for v in observed.into_iter().chain([
                    e.translations,
                    e.translated_words,
                    e.fused_pairs,
                    e.fast_insns,
                    e.slow_insns,
                    e.invalidations,
                    e.batched_blocks,
                    e.fuel_reconciliations,
                    e.superinstructions,
                    e.dispatches,
                    e.fused_dispatches,
                    a.total_runs,
                    a.runs_tier0,
                    a.runs_tier1,
                    a.runs_tier2,
                    a.insns_tier0,
                    a.insns_tier1,
                    a.insns_tier2,
                    a.promotions,
                    a.demotions,
                ]) {
                    h.u64(v);
                }
                for (shape, count) in s.fused_shape_histogram() {
                    h.bytes(shape.as_bytes());
                    h.u64(count);
                }
                got.push((bench.name, btag, etag, m.vm.cycles, m.vm.insns, h.0));
            }
        }
    }
    if got != GOLDEN {
        let mut table = String::new();
        for cell in &got {
            let (name, btag, etag, cycles, insns, digest) = cell;
            let moved = !GOLDEN.contains(cell);
            table.push_str(&format!(
                "    ({name:?}, {btag:?}, {etag:?}, {cycles}, {insns}, {digest:#018x}),{}\n",
                if moved { " // differs" } else { "" }
            ));
        }
        panic!("engine decisions moved; computed table:\n{table}");
    }
}

/// Superinstruction pairs the fused translator finds in ICODE
/// (linear-scan) code with `icode_schedule` on, minus off, per
/// loop-heavy kernel — the evidence that `schedule_for_fusion` moves
/// anything (DESIGN.md §11). Exact: pairing is decided at translation
/// time. With the scheduler's fallback order forced (never prefer a
/// producer) every row reads 0.
const SCHEDULER_PAIR_GAIN: [(&str, i64); 10] = [
    ("hash", 0),
    ("ms", 0),
    ("cmp", 0),
    ("query", 0),
    ("binary", 0),
    ("dp", 0),
    ("blur", 0),
    ("heap", 2),
    ("filter", 1),
    ("demux", 1),
];

#[test]
fn icode_scheduler_exposes_the_committed_pair_gain() {
    let all = benchmarks(BLUR_SMALL);
    // Pair counts are a translation-time property: one run is enough.
    let fused_pairs = |bench: &BenchDef, icode_schedule: bool| {
        let config = Config {
            backend: ICODE_LS,
            icode_schedule,
            engine: Some(ExecEngine::Predecoded { fuse: true }),
            ..Config::default()
        };
        observe(bench, config, 1).1.exec.fused_pairs as i64
    };
    let got: Vec<(&str, i64)> = SCHEDULER_PAIR_GAIN
        .iter()
        .map(|&(name, _)| {
            let bench = all.iter().find(|b| b.name == name).expect("suite kernel");
            (name, fused_pairs(bench, true) - fused_pairs(bench, false))
        })
        .collect();
    assert_eq!(got, SCHEDULER_PAIR_GAIN);
}
