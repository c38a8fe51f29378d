//! Engine-differential fuzzing: randomized `C programs executed through
//! the decode-per-step reference interpreter, the predecoded engine
//! (with and without superinstruction fusion), the direct-threaded
//! fuel-batched engine, and the adaptive tiering engine, asserting
//! bit-identical observable behavior — result value, modeled `cycles`, retired
//! `insns`, exit status, and error, including `OutOfFuel` raised at the
//! same instruction under swept fuel budgets (before, during, and after
//! adaptive tier promotions — including the promotion a long loop earns
//! mid-run, at the tier-1 dispatcher's backedge safepoint). Also pins down the
//! stale-code interactions: freed and cache-evicted functions must
//! fault with `StaleCode` even when the translation cache is warm.

use proptest::prelude::*;
use tickc::tickc_core::{Backend, Config, Error, Session, Strategy as Alloc};
use tickc::vm::{ExecEngine, VmError};

const ENGINES: [ExecEngine; 8] = [
    ExecEngine::DecodePerStep,
    ExecEngine::Predecoded { fuse: false },
    ExecEngine::Predecoded { fuse: true },
    ExecEngine::Threaded,
    // Hair-trigger threshold: functions climb to the threaded tier
    // within a single observation, so promotions land inside the sweep.
    ExecEngine::Adaptive {
        thread_after: 2,
        background: false,
    },
    // Shipping default: most functions stay on tier 1.
    ExecEngine::Adaptive {
        thread_after: 8,
        background: false,
    },
    // The same two thresholds with the threaded build on the background
    // worker: whether a given run dispatches through the swapped-in
    // form or is still on the decoded array depends on worker timing,
    // but the observables (results, modeled cycles/insns, faults) must
    // be bit-identical either way — that timing-independence IS the
    // async pipeline's contract.
    ExecEngine::Adaptive {
        thread_after: 2,
        background: true,
    },
    ExecEngine::Adaptive {
        thread_after: 8,
        background: true,
    },
];

fn engine_label(e: ExecEngine) -> &'static str {
    match e {
        ExecEngine::DecodePerStep => "decode-per-step",
        ExecEngine::Predecoded { fuse: false } => "predecoded",
        ExecEngine::Predecoded { fuse: true } => "predecoded+fused",
        ExecEngine::Threaded => "threaded",
        ExecEngine::Adaptive {
            thread_after: 2,
            background: false,
        } => "adaptive(hair-trigger)",
        ExecEngine::Adaptive {
            thread_after: 2,
            background: true,
        } => "adaptive(hair-trigger,bg)",
        ExecEngine::Adaptive {
            background: true, ..
        } => "adaptive(bg)",
        ExecEngine::Adaptive { .. } => "adaptive",
    }
}

// ---------------------------------------------------------------------------
// Random program generation: assignments, bounded loops, branches, and
// a division that can trap, over four locals + a parameter + a
// run-time constant.
// ---------------------------------------------------------------------------

const NVARS: usize = 4;

#[derive(Clone, Debug)]
enum Val {
    Var(usize),
    Param,
    Rtc,
    Lit(i32),
}

#[derive(Clone, Debug)]
enum St {
    /// `vK = a op b;` — op index into OPS (last entry divides, which
    /// can fault with DivideByZero).
    Assign(usize, usize, Val, Val),
    /// `if (a < b) { .. } else { .. }`
    If(Val, Val, Vec<St>, Vec<St>),
    /// `for (k = 0; k < n; k++) { body }`
    Loop(u8, Vec<St>),
}

const OPS: [&str; 6] = ["+", "-", "*", "^", "&", "/"];

fn val_strategy() -> impl Strategy<Value = Val> {
    prop_oneof![
        (0..NVARS).prop_map(Val::Var),
        Just(Val::Param),
        Just(Val::Rtc),
        (-20i32..20).prop_map(Val::Lit),
    ]
}

fn st_strategy() -> impl Strategy<Value = St> {
    let assign = (0..NVARS, 0..OPS.len(), val_strategy(), val_strategy())
        .prop_map(|(d, op, a, b)| St::Assign(d, op, a, b));
    assign.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            3 => (0..NVARS, 0..OPS.len(), val_strategy(), val_strategy())
                .prop_map(|(d, op, a, b)| St::Assign(d, op, a, b)),
            1 => (
                val_strategy(),
                val_strategy(),
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(a, b, t, e)| St::If(a, b, t, e)),
            1 => (1u8..6, prop::collection::vec(inner, 1..3))
                .prop_map(|(n, body)| St::Loop(n, body)),
        ]
    })
}

fn val_c(v: &Val, dollar: bool) -> String {
    match v {
        Val::Var(i) => format!("v{i}"),
        Val::Param => "p".into(),
        Val::Rtc => {
            if dollar {
                "$r".into()
            } else {
                "r".into()
            }
        }
        Val::Lit(c) => format!("({c})"),
    }
}

fn st_c(s: &St, dollar: bool, depth: usize, counter: &mut usize) -> String {
    let pad = "    ".repeat(depth + 1);
    match s {
        St::Assign(d, op, a, b) => format!(
            "{pad}v{d} = {} {} {};\n",
            val_c(a, dollar),
            OPS[*op],
            val_c(b, dollar)
        ),
        St::If(a, b, t, e) => {
            let mut out = format!("{pad}if ({} < {}) {{\n", val_c(a, dollar), val_c(b, dollar));
            for s in t {
                out.push_str(&st_c(s, dollar, depth + 1, counter));
            }
            out.push_str(&format!("{pad}}} else {{\n"));
            for s in e {
                out.push_str(&st_c(s, dollar, depth + 1, counter));
            }
            out.push_str(&format!("{pad}}}\n"));
            out
        }
        St::Loop(n, body) => {
            let k = *counter;
            *counter += 1;
            let mut out = format!("{pad}for (k{k} = 0; k{k} < {n}; k{k}++) {{\n");
            for s in body {
                out.push_str(&st_c(s, dollar, depth + 1, counter));
            }
            out.push_str(&format!("{pad}}}\n"));
            out
        }
    }
}

fn count_loops(sts: &[St]) -> usize {
    sts.iter()
        .map(|s| match s {
            St::Assign(..) => 0,
            St::If(_, _, t, e) => count_loops(t) + count_loops(e),
            St::Loop(_, b) => 1 + count_loops(b),
        })
        .sum()
}

fn program_for(sts: &[St]) -> String {
    let nloops = count_loops(sts);
    let decl_ks = |prefix: &str| -> String {
        (0..nloops)
            .map(|k| format!("{prefix}int k{k};\n"))
            .collect()
    };
    let decl_vs =
        |prefix: &str| -> String { (0..NVARS).map(|i| format!("{prefix}int v{i};\n")).collect() };
    let init_vs: String = (0..NVARS)
        .map(|i| format!("    v{i} = {};\n", i as i32 + 1))
        .collect();
    let mut c0 = 0usize;
    let static_body: String = sts.iter().map(|s| st_c(s, false, 0, &mut c0)).collect();
    let mut c1 = 0usize;
    let dyn_body: String = sts.iter().map(|s| st_c(s, true, 0, &mut c1)).collect();
    let sum: String = (0..NVARS)
        .map(|i| format!(" + v{i}"))
        .collect::<String>()
        .trim_start_matches(" + ")
        .to_string();
    format!(
        r#"
int static_f(int p, int r) {{
{}{}
{init_vs}{static_body}    return {sum};
}}
long dyn_compile(int r) {{
    int vspec p = param(int, 0);
    void cspec c = `{{
{}{}
{init_vs}{dyn_body}        return {sum};
    }};
    return (long)compile(c, int);
}}
int dyn_run(long fp, int p) {{
    int (*g)(void) = (int (*)(void))fp;
    return (*g)(p);
}}
"#,
        decl_vs("    "),
        decl_ks("    "),
        decl_vs("        "),
        decl_ks("        "),
    )
}

// ---------------------------------------------------------------------------
// The differential observation: everything an engine can affect.
// ---------------------------------------------------------------------------

fn vm_err(e: Error) -> VmError {
    match e {
        Error::Vm(v) => v,
        Error::Front(f) => panic!("front-end error during execution: {f}"),
    }
}

/// Full observable trace of one session run: per-call outcome plus
/// final counters. Equality of this struct across engines IS the
/// equivalence contract (an error at a different instruction shows up
/// as a different cycle/insn count).
#[derive(Debug, PartialEq)]
struct Obs {
    static_result: Result<u64, VmError>,
    compile_result: Result<u64, VmError>,
    dyn_result: Option<Result<u64, VmError>>,
    cycles: u64,
    insns: u64,
    hcalls: u64,
}

fn observe(src: &str, backend: &Backend, engine: ExecEngine, fuel: Option<u64>, p: i64) -> Obs {
    let mut s = Session::new(
        src,
        Config {
            backend: backend.clone(),
            ..Config::default()
        },
    )
    .unwrap_or_else(|e| panic!("generated program rejected: {e}\n{src}"));
    s.vm.set_engine(engine);
    if let Some(f) = fuel {
        s.vm.set_fuel(f);
    }
    let static_result = s.call("static_f", &[p as u64, 13]).map_err(vm_err);
    let compile_result = s.call("dyn_compile", &[13]).map_err(vm_err);
    let dyn_result = compile_result
        .as_ref()
        .ok()
        .copied()
        .map(|fp| s.call("dyn_run", &[fp, p as u64]).map_err(vm_err));
    Obs {
        static_result,
        compile_result,
        dyn_result,
        cycles: s.cycles(),
        insns: s.insns(),
        hcalls: s.hcalls(),
    }
}

fn check_differential(sts: &[St], p: i64) -> Result<(), TestCaseError> {
    let src = program_for(sts);
    for backend in [
        Backend::Vcode { unchecked: false },
        Backend::Icode {
            strategy: Alloc::LinearScan,
        },
    ] {
        // Unlimited fuel: results, counters, and any traps (e.g.
        // DivideByZero) must agree.
        let reference = observe(&src, &backend, ENGINES[0], None, p);
        for &e in &ENGINES[1..] {
            let got = observe(&src, &backend, e, None, p);
            prop_assert_eq!(
                &got,
                &reference,
                "{} diverges ({:?})\n{}",
                engine_label(e),
                backend,
                src
            );
        }
        // Swept fuel budgets: OutOfFuel must fire at the same
        // instruction (identical cycles/insns at the stop point).
        let total = reference.cycles;
        for fuel in [total / 7, total / 3, total / 2, total.saturating_sub(1)] {
            let reference = observe(&src, &backend, ENGINES[0], Some(fuel), p);
            for &e in &ENGINES[1..] {
                let got = observe(&src, &backend, e, Some(fuel), p);
                prop_assert_eq!(
                    &got,
                    &reference,
                    "{} diverges at fuel {} ({:?})\n{}",
                    engine_label(e),
                    fuel,
                    backend,
                    src
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engines_agree_on_random_programs(
        sts in prop::collection::vec(st_strategy(), 1..6),
        p in -100i64..100,
    ) {
        check_differential(&sts, p)?;
    }
}

#[test]
fn fixed_differential_regressions() {
    use St::*;
    use Val::*;
    let cases: Vec<Vec<St>> = vec![
        // Tight loop: the fused compare+branch back edge.
        vec![Loop(5, vec![Assign(0, 0, Var(0), Rtc)])],
        // Division by a loop-carried value that reaches zero: the trap
        // must fire at the same instruction on every engine.
        vec![
            Assign(1, 1, Var(1), Var(1)), // v1 = 0
            Assign(0, 5, Param, Var(1)),  // v0 = p / 0
        ],
        // Nested loops with a branch in the middle of fusable pairs.
        vec![Loop(
            3,
            vec![If(
                Var(0),
                Rtc,
                vec![Assign(0, 0, Var(0), Lit(3))],
                vec![Assign(2, 2, Var(2), Lit(2))],
            )],
        )],
    ];
    for sts in cases {
        check_differential(&sts, 7).expect("agrees");
        check_differential(&sts, -41).expect("agrees");
    }
}

/// Dense fuel sweep aimed at the batched engine's edges: budgets in
/// windows around phase boundaries — the end of the static call, the
/// `compile` host call (where the threaded engine must reconcile its
/// counters across the host boundary), and the final cycle — plus the
/// program's entry blocks. Within each window every single budget is
/// tried, so exhaustion lands on block boundaries, mid-block, and
/// host-call reconciliation points alike.
#[test]
fn fuel_sweep_covers_block_boundaries_and_hcall_reconciliation() {
    let sts = vec![
        St::Loop(3, vec![St::Assign(0, 0, Val::Var(0), Val::Rtc)]),
        St::Assign(1, 5, Val::Param, Val::Var(0)),
    ];
    let src = program_for(&sts);
    let backend = Backend::Vcode { unchecked: false };
    // Phase-boundary cycle counts from an unlimited reference run.
    let mut s = Session::new(
        &src,
        Config {
            backend: backend.clone(),
            ..Config::default()
        },
    )
    .expect("compiles");
    s.vm.set_engine(ENGINES[0]);
    s.call("static_f", &[7, 13]).expect("static");
    let after_static = s.cycles();
    let fp = s.call("dyn_compile", &[13]).expect("compile");
    let after_compile = s.cycles();
    let _ = s.call("dyn_run", &[fp, 7]);
    let total = s.cycles();
    assert!(s.hcalls() > 0, "compile path must cross the host boundary");

    let mut budgets: Vec<u64> = (0..40).collect();
    for edge in [after_static, after_compile, total] {
        budgets.extend(edge.saturating_sub(25)..edge + 25);
    }
    budgets.retain(|&f| f < total);
    budgets.sort_unstable();
    budgets.dedup();
    for fuel in budgets {
        let reference = observe(&src, &backend, ENGINES[0], Some(fuel), 7);
        for &e in &ENGINES[1..] {
            let got = observe(&src, &backend, e, Some(fuel), 7);
            assert_eq!(
                got,
                reference,
                "{} diverges at fuel {fuel}",
                engine_label(e)
            );
        }
    }
}

/// Fuel budgets that exhaust INSIDE threaded superinstruction groups.
/// The kernel's loop bodies compile into run+branch and run+jump
/// groups (multi-instruction scalar runs ending in control flow), so a
/// per-cycle sweep across the dynamic function's whole execution lands
/// budgets mid-run inside fused handlers — exercising the batched
/// charge / un-charge reconciliation from within a single dispatch.
/// Every engine must stop at the identical instruction.
#[test]
fn fuel_sweep_straddles_superinstruction_groups_mid_group() {
    let sts = vec![
        St::Loop(
            4,
            vec![
                St::Assign(0, 0, Val::Var(0), Val::Param),  // v0 = v0 + p
                St::Assign(1, 1, Val::Var(1), Val::Lit(3)), // v1 = v1 - 3
            ],
        ),
        St::Assign(2, 2, Val::Var(2), Val::Var(1)),
    ];
    let src = program_for(&sts);
    for backend in [
        Backend::Vcode { unchecked: false },
        Backend::Icode {
            strategy: Alloc::LinearScan,
        },
    ] {
        // Confirm the threaded engine actually compiles and dispatches
        // superinstructions on this kernel — otherwise the sweep below
        // would vacuously pass without touching the fused handlers.
        let mut s = Session::new(
            &src,
            Config {
                backend: backend.clone(),
                ..Config::default()
            },
        )
        .expect("compiles");
        s.vm.set_engine(ExecEngine::Threaded);
        s.call("static_f", &[7, 13]).expect("static");
        let after_compile;
        {
            let fp = s.call("dyn_compile", &[13]).expect("compile");
            after_compile = s.cycles();
            s.call("dyn_run", &[fp, 7]).expect("dyn run");
        }
        let total = s.cycles();
        let exec = s.metrics().exec;
        assert!(
            exec.superinstructions > 0,
            "kernel must compile superinstructions ({backend:?})"
        );
        assert!(
            exec.fused_dispatches > 0,
            "kernel must dispatch through fused handlers ({backend:?})"
        );
        assert!(
            !s.fused_shape_histogram().is_empty(),
            "shape histogram populated ({backend:?})"
        );

        // Per-cycle sweep across the dynamic run (where the loop — and
        // so every superinstruction group — lives), plus the entry
        // window.
        let mut budgets: Vec<u64> = (0..24).collect();
        budgets.extend(after_compile.saturating_sub(8)..total);
        budgets.retain(|&f| f < total);
        budgets.dedup();
        for fuel in budgets {
            let reference = observe(&src, &backend, ENGINES[0], Some(fuel), 7);
            for &e in &ENGINES[1..] {
                let got = observe(&src, &backend, e, Some(fuel), 7);
                assert_eq!(
                    got,
                    reference,
                    "{} diverges at fuel {fuel} ({:?})",
                    engine_label(e),
                    backend
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Promotion-boundary differentials: the adaptive engine re-tiers a
// function between (and never during) runs, so a sequence of calls that
// straddles the fuse/thread thresholds must stay bit-identical to the
// reference run by run — including when fuel runs out mid-way through
// the very run whose entry triggered a promotion, and when that run
// faults.
// ---------------------------------------------------------------------------

/// One entry of the per-run trace: the call outcome plus the cumulative
/// counters after it. `OutOfFuel` and traps at a different instruction
/// surface as different cycle/insn counts.
#[derive(Debug, PartialEq)]
struct RunObs {
    result: Result<u64, VmError>,
    cycles: u64,
    insns: u64,
}

/// Compiles `src` once, then calls `dyn_run` with each parameter in
/// `ps`, recording every outcome. `fuel` is the session-wide budget, so
/// exhaustion can land inside any run of the sequence. Returns the
/// per-run trace plus the session's final promotion count (zero for
/// non-adaptive engines).
fn observe_run_sequence(
    src: &str,
    engine: ExecEngine,
    fuel: Option<u64>,
    ps: &[i64],
) -> (Vec<RunObs>, u64) {
    let mut s = Session::new(src, Config::default()).expect("compiles");
    s.vm.set_engine(engine);
    if let Some(f) = fuel {
        s.vm.set_fuel(f);
    }
    let mut trace = Vec::new();
    let compile = s.call("dyn_compile", &[13]).map_err(vm_err);
    trace.push(RunObs {
        result: compile.clone(),
        cycles: s.cycles(),
        insns: s.insns(),
    });
    if let Ok(fp) = compile {
        for &p in ps {
            let result = s.call("dyn_run", &[fp, p as u64]).map_err(vm_err);
            trace.push(RunObs {
                result,
                cycles: s.cycles(),
                insns: s.insns(),
            });
        }
    }
    (trace, s.metrics().adaptive.promotions)
}

/// Fuel budgets straddling every run boundary of the unlimited
/// reference trace, so exhaustion lands before, during, and after each
/// adaptive promotion.
fn boundary_budgets(reference: &[RunObs]) -> Vec<u64> {
    let mut budgets: Vec<u64> = (0..16).collect();
    for obs in reference {
        budgets.extend(obs.cycles.saturating_sub(8)..obs.cycles + 8);
    }
    let total = reference.last().expect("non-empty trace").cycles;
    budgets.retain(|&f| f < total);
    budgets.sort_unstable();
    budgets.dedup();
    budgets
}

#[test]
fn adaptive_promotion_boundaries_match_reference_under_fuel_sweep() {
    // A loopy kernel: enough work per run that fuel budgets can land
    // mid-run, not just on call boundaries.
    let sts = vec![
        St::Loop(4, vec![St::Assign(0, 0, Val::Var(0), Val::Param)]),
        St::Assign(1, 2, Val::Var(0), Val::Rtc),
    ];
    let src = program_for(&sts);
    // Threshold 4 inside a six-run sequence: runs 1-4 execute on
    // tier 1, run 5 is the thread-promotion run, run 6 steady-state
    // threaded. Swept both synchronously and with the background
    // worker, where the fuel budgets additionally straddle in-flight
    // translation swaps.
    let ps: Vec<i64> = vec![7, -3, 11, 2, 9, -5];
    for background in [false, true] {
        let adaptive = ExecEngine::Adaptive {
            thread_after: 4,
            background,
        };
        let (reference, _) = observe_run_sequence(&src, ENGINES[0], None, &ps);
        let (got, promotions) = observe_run_sequence(&src, adaptive, None, &ps);
        assert_eq!(
            got, reference,
            "unlimited-fuel trace diverges (background: {background})"
        );
        assert!(
            promotions >= 1,
            "six runs must cross the tier boundary, saw {promotions} promotions"
        );
        for fuel in boundary_budgets(&reference) {
            let (reference, _) = observe_run_sequence(&src, ENGINES[0], Some(fuel), &ps);
            let (got, _) = observe_run_sequence(&src, adaptive, Some(fuel), &ps);
            assert_eq!(
                got, reference,
                "adaptive (background: {background}) diverges at fuel {fuel}"
            );
        }
    }
}

#[test]
fn fault_during_promotion_triggering_run_matches_reference() {
    // `v0 = r / p` traps with DivideByZero exactly when p == 0. With
    // thread_after == 2 the third run executes under the just-promoted
    // threaded tier; passing p == 0 there faults mid-way through that
    // promotion-triggering run. Later runs re-enter the promoted
    // function after the fault.
    let sts = vec![
        St::Loop(2, vec![St::Assign(1, 0, Val::Var(1), Val::Param)]),
        St::Assign(0, 5, Val::Rtc, Val::Param),
    ];
    let src = program_for(&sts);
    let ps: Vec<i64> = vec![7, 5, 0, 3, 0, 8, 6];
    for engine in [
        ExecEngine::Adaptive {
            thread_after: 2,
            background: false,
        },
        // Same sequence with the fault on the fifth run, the
        // promotion run under threshold 4.
        ExecEngine::Adaptive {
            thread_after: 4,
            background: false,
        },
        // Both again with the background worker: a fault mid-way
        // through the promotion-triggering run can land while that
        // run's translation is still in flight.
        ExecEngine::Adaptive {
            thread_after: 2,
            background: true,
        },
        ExecEngine::Adaptive {
            thread_after: 4,
            background: true,
        },
    ] {
        let (reference, _) = observe_run_sequence(&src, ENGINES[0], None, &ps);
        let (got, promotions) = observe_run_sequence(&src, engine, None, &ps);
        assert!(
            reference
                .iter()
                .filter(|o| o.result == Err(VmError::DivideByZero))
                .count()
                == 2,
            "both p == 0 runs must trap"
        );
        assert_eq!(got, reference, "{} diverges", engine_label(engine));
        assert!(promotions >= 1, "the trapping sequence still promotes");
        // The trap must not wedge tiering: sweep fuel across the
        // faulting trace too.
        for fuel in boundary_budgets(&reference).into_iter().step_by(3) {
            let (reference, _) = observe_run_sequence(&src, ENGINES[0], Some(fuel), &ps);
            let (got, _) = observe_run_sequence(&src, engine, Some(fuel), &ps);
            assert_eq!(
                got,
                reference,
                "{} diverges at fuel {fuel}",
                engine_label(engine)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The tier-1 safepoint: a loop long enough to prove its own heat is
// promoted 1 -> 2 *inside* a run — the decoded dispatcher yields at a
// taken backward transfer and the run resumes, mid-function, through
// the threaded dispatcher. Raw VM kernels, so the instruction shapes at
// the yield and at the resume point are chosen, not hoped for.
// ---------------------------------------------------------------------------

use tickc::vm::interp::MachineState;
use tickc::vm::isa::{Insn, Op};
use tickc::vm::regs::{A0, AT0, AT1, ZERO};
use tickc::vm::{CodeSpace, FuncHandle, HostCall, Tier, Vm};

/// Threshold 4 (tier 2 — through the safepoint — at backedge 192 of a
/// single entry) and the hair trigger (tier 2 at backedge 64), each
/// inline and on the worker.
const SAFEPOINT_ENGINES: [ExecEngine; 4] = [
    ExecEngine::Adaptive {
        thread_after: 4,
        background: false,
    },
    ExecEngine::Adaptive {
        thread_after: 4,
        background: true,
    },
    ExecEngine::Adaptive {
        thread_after: 2,
        background: false,
    },
    ExecEngine::Adaptive {
        thread_after: 2,
        background: true,
    },
];

/// Everything one raw call can show: result (or fault, with its
/// address), cycles, instructions — an `OutOfFuel` at a different
/// instruction is a different cycle/insn pair.
type RawObs = (Result<u64, VmError>, u64, u64);

fn raw_observe<H: HostCall>(vm: &mut Vm<H>, addr: u64, n: u64) -> RawObs {
    (vm.call(addr, &[n]), vm.cycles(), vm.insns())
}

/// sum(1..=n): the back edge is a plain `j`, the resume pc a branch.
fn jump_loop_kernel() -> (CodeSpace, u64) {
    let mut cs = CodeSpace::new();
    let f = cs.begin_function("sum_j");
    cs.push(Insn::i(Op::Addiw, AT0, ZERO, 0));
    cs.push(Insn::i(Op::Beq, A0, ZERO, 3)); // loop head
    cs.push(Insn::r(Op::Addw, AT0, AT0, A0));
    cs.push(Insn::i(Op::Addiw, A0, A0, -1));
    cs.push(Insn::j(Op::J, -4));
    cs.push(Insn::r(Op::Addw, A0, AT0, ZERO));
    cs.push(Insn::ret());
    let addr = cs.finish_function(f).unwrap();
    (cs, addr)
}

/// A countdown whose decrement feeds its backward branch, laid out so
/// that at tier 1 every trip runs `Fused2(2,3)` then `FusedBr(4,5)` —
/// the yielding branch is the second half of a fused pair — and the
/// loop head (word 2) sits in the *middle* of the threaded tier's
/// run+branch group over words 0..=5, so the resume dispatches that
/// group's own mid-group suffix entry.
fn fused_branch_kernel() -> (CodeSpace, u64) {
    let mut cs = CodeSpace::new();
    let f = cs.begin_function("sum_fbr");
    cs.push(Insn::i(Op::Addiw, AT0, ZERO, 0));
    cs.push(Insn::i(Op::Addiw, AT1, ZERO, 1));
    cs.push(Insn::r(Op::Addw, AT0, AT0, A0)); // loop head
    cs.push(Insn::r(Op::Xor, AT1, AT1, AT0));
    cs.push(Insn::i(Op::Addiw, A0, A0, -1));
    cs.push(Insn::i(Op::Bne, A0, ZERO, -4));
    cs.push(Insn::r(Op::Addw, A0, AT0, AT1));
    cs.push(Insn::ret());
    let addr = cs.finish_function(f).unwrap();
    (cs, addr)
}

/// One entry of `n` iterations under every budget from 0 to the run's
/// full cost — a superset of any window around the yield — on every
/// safepoint engine, against decode-per-step.
fn sweep_safepoint(cs: &CodeSpace, addr: u64, n: u64, shape: &str) {
    let run = |engine: ExecEngine, fuel: u64| {
        let mut vm = Vm::new(cs.clone(), 1 << 16);
        vm.set_engine(engine);
        vm.set_fuel(fuel);
        let obs = raw_observe(&mut vm, addr, n);
        (obs, vm)
    };
    let (reference, _) = run(ExecEngine::DecodePerStep, u64::MAX);
    assert!(reference.0.is_ok());
    // Not vacuous: the synchronous threshold-4 engine really does spend
    // part of the run at each tier and crosses 1 -> 2 at the safepoint,
    // through the shapes the kernel was built for.
    let (got, vm) = run(SAFEPOINT_ENGINES[0], u64::MAX);
    assert_eq!(got, reference);
    let a = vm.adaptive_stats();
    assert_eq!(vm.adaptive_tier(addr), Some((Tier::Threaded, 1)));
    assert_eq!(a.promotions, 1);
    assert!(
        a.insns_tier0 == 0 && a.insns_tier1 > 0 && a.insns_tier2 > 0,
        "{a:?}"
    );
    assert!(vm.exec_stats().fused_pairs > 0);
    let shapes = vm.fused_shape_histogram();
    assert!(
        shapes.iter().any(|(name, _)| name == shape),
        "threaded group {shape} missing: {shapes:?}"
    );
    for fuel in 0..=reference.1 {
        let (want, _) = run(ExecEngine::DecodePerStep, fuel);
        for &e in &SAFEPOINT_ENGINES {
            let (got, _) = run(e, fuel);
            assert_eq!(got, want, "{e:?} diverges at fuel {fuel}");
        }
    }
}

#[test]
fn safepoint_fuel_sweep_matches_reference_at_every_budget() {
    let (cs, addr) = jump_loop_kernel();
    sweep_safepoint(&cs, addr, 260, "addiw+j");
}

#[test]
fn safepoint_yield_from_a_fused_branch_resumes_mid_group() {
    let (cs, addr) = fused_branch_kernel();
    sweep_safepoint(&cs, addr, 260, "addiw+bne");
}

/// sum(1..=n) with a host call at the loop head whose `free_at`-th call
/// frees the function it is called from.
fn midrun_free_vm(engine: ExecEngine, free_at: u64) -> (Vm<impl HostCall>, u64) {
    let mut cs = CodeSpace::new();
    let f: FuncHandle = cs.begin_function("sum_hcall");
    cs.push(Insn::i(Op::Addiw, AT0, ZERO, 0));
    cs.push(Insn::i(Op::Hcall, ZERO, ZERO, 1)); // loop head
    cs.push(Insn::r(Op::Addw, AT0, AT0, A0));
    cs.push(Insn::i(Op::Addiw, A0, A0, -1));
    cs.push(Insn::i(Op::Bne, A0, ZERO, -4));
    cs.push(Insn::r(Op::Addw, A0, AT0, ZERO));
    cs.push(Insn::ret());
    let addr = cs.finish_function(f).unwrap();
    let mut calls = 0u64;
    let host = move |_num: u32, st: &mut MachineState| {
        calls += 1;
        if calls == free_at {
            st.code.free_function(f).unwrap();
        }
        Ok(())
    };
    let mut vm = Vm::with_host(cs, 1 << 16, host);
    vm.set_engine(engine);
    (vm, addr)
}

#[test]
fn safepoint_midrun_free_between_ticks_faults_stale_like_the_reference() {
    // The running function is freed by its own host call: before its
    // clock has ticked (call 30), between the first tick and the next
    // (call 100: tier 1 under threshold 4, tier 2 under 2), just before
    // the 1 -> 2 safepoint is due under 4 (call 191), and after it
    // (call 250).
    // Every engine leaves its buffer at the host-call boundary and
    // faults from the reference path, at the word after the `hcall`.
    for free_at in [30u64, 100, 191, 250] {
        let (mut reference, addr) = midrun_free_vm(ExecEngine::DecodePerStep, free_at);
        let want = raw_observe(&mut reference, addr, 300);
        assert_eq!(want.0, Err(VmError::StaleCode(addr + 8)));
        for &e in &SAFEPOINT_ENGINES {
            let (mut vm, addr) = midrun_free_vm(e, free_at);
            assert_eq!(
                raw_observe(&mut vm, addr, 300),
                want,
                "{e:?}, freed at {free_at}"
            );
            // Dead words are never promoted: the record died with the
            // function, whatever a worker still had in flight comes
            // back stale, and nothing is translated for them again.
            vm.drain_background_translations();
            let translations = vm.exec_stats().translations;
            assert_eq!(vm.adaptive_tier(addr), None);
            assert_eq!(vm.call(addr, &[300]), Err(VmError::StaleCode(addr)));
            assert_eq!(vm.exec_stats().translations, translations);
            let a = vm.adaptive_stats();
            assert_eq!(a.promotions, a.demotions, "every level granted was lost");
        }
    }
}

// ---------------------------------------------------------------------------
// Stale-code composition: the translation cache must never outlive the
// code it shadows.
// ---------------------------------------------------------------------------

/// Source whose `mk(n)` compiles a distinct closure per `n` (the
/// `$`-bound seed changes the fingerprint), so a small pool budget
/// eventually forces the CLOCK hand to evict the earliest result.
const EVICT_SRC: &str = r#"
int seed = 0;
long mk(int n) {
    seed = n;
    int cspec c = `(
        $seed * 3 + $seed * 5 + $seed * 7 + $seed * 9 +
        $seed * 11 + $seed * 13 + $seed * 17 + $seed * 19 +
        $seed * 23 + $seed * 29 + $seed * 31 + $seed * 37);
    return (long)compile(c, int);
}
int run(long fp) {
    int (*g)(void) = (int (*)(void))fp;
    return (*g)();
}
"#;

#[test]
fn evicted_code_faults_stale_with_warm_translation_cache() {
    // A one-session pool: its budget retires artifacts, and the
    // session frees its copy at its next call.
    let shared = tickc::tickc_core::SharedArtifacts::with_budget(256);
    let mut s = Session::new(
        EVICT_SRC,
        Config {
            shared: Some(std::sync::Arc::clone(&shared)),
            ..Config::default()
        },
    )
    .expect("compiles");
    assert!(matches!(s.vm.engine(), ExecEngine::Adaptive { .. }));
    let fp1 = s.call("mk", &[1]).expect("first compile");
    // Warm the translation cache on fp1 before evicting it: its first
    // run decodes it, and nine runs take it past the default threshold
    // to tier 2.
    let expect1: u64 = (3 + 5 + 7 + 9 + 11 + 13 + 17 + 19 + 23 + 29 + 31 + 37) as u64;
    for _ in 0..9 {
        assert_eq!(s.call("run", &[fp1]).expect("warm run"), expect1);
    }
    assert!(s.metrics().exec.translations >= 1, "fp1 was translated");
    assert!(
        s.metrics().adaptive.promotions >= 1,
        "repeat runs promoted a function"
    );
    // Distinct closures until the pool evicts fp1: published earliest,
    // never asked for again (`run` executes it but does not touch the
    // compile cache), so its referenced bit is clear when the hand
    // reaches it. The probe's own call frees it at its sync and runs
    // it with the range still on the free list; the warm translation
    // must not mask the fault.
    let mut n = 2u64;
    while shared.metrics().evictions == 0 {
        s.call("mk", &[n]).expect("later compile");
        n += 1;
        assert!(n < 1000, "budget never forced an eviction");
    }
    match s.call("run", &[fp1]) {
        Err(Error::Vm(VmError::StaleCode(addr))) => assert_eq!(addr, fp1),
        other => panic!("expected StaleCode({fp1:#x}), got {other:?}"),
    }
}
