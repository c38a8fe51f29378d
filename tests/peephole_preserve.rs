//! Property test: the ICODE peephole pipeline (dead-code elimination,
//! jump threading, fusion-aware scheduling) preserves program results.
//!
//! Random ICODE buffers with forward control flow — conditional skips,
//! empty jump chains that the threader collapses, and dead pure code —
//! are compiled twice, with the cleanup passes off and on, and both
//! functions must return the same value for the same inputs. The
//! peephole-on function also runs under the reference decode-per-step
//! engine to tie the property back to the differential contract.

use proptest::prelude::*;
use tcc_icode::{IInsn, IOp, IcodeBuf, IcodeCompiler, Strategy as Alloc};
use tcc_rt::ValKind;
use tcc_vcode::ops::BinOp;
use tcc_vcode::CodeSink;
use tcc_vm::{CodeSpace, ExecEngine, Vm};

/// One structural element of a random program.
#[derive(Clone, Debug)]
enum Step {
    /// Push a constant value.
    Const(i32),
    /// Push `vals[a] op vals[b]` (non-faulting op set, shifts masked).
    Bin(BinOp, usize, usize),
    /// `acc = init; if vals[c] != 0 { acc = acc op vals[a] } ; push acc`
    /// — a forward conditional skip: both arms define `acc`, so the
    /// value vector stays consistent on every path.
    CondAdd(usize, i32, BinOp, usize),
    /// An empty forward jump chain of the given length (1-3 hops) with
    /// dead pure definitions between the hops. No semantic effect;
    /// jump threading and DCE should dissolve it entirely.
    JmpChain(u8),
}

fn binop() -> impl Strategy<Value = BinOp> {
    use BinOp::*;
    prop::sample::select(vec![
        Add, Sub, Mul, And, Or, Xor, Shl, Shr, ShrU, Eq, Ne, Lt, LtU, Le, Gt, Ge,
    ])
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (-1000i32..1000).prop_map(Step::Const),
            (binop(), 0usize..64, 0usize..64).prop_map(|(op, a, b)| Step::Bin(op, a, b)),
            (0usize..64, -100i32..100, binop(), 0usize..64)
                .prop_map(|(c, i, op, a)| Step::CondAdd(c, i, op, a)),
            (1u8..4).prop_map(Step::JmpChain),
        ],
        4..32,
    )
}

/// Applies one binary op with the same shift normalization the builder
/// emits. Returns `None` on overflow-class failures (never happens for
/// the selected op set, but `eval_int` is fallible).
fn eval(op: BinOp, x: i64, y: i64) -> Option<i64> {
    if matches!(op, BinOp::Shl | BinOp::Shr | BinOp::ShrU) {
        op.eval_int(ValKind::W, x, y & 31)
    } else {
        op.eval_int(ValKind::W, x, y)
    }
}

/// Host-side reference semantics.
fn reference(steps: &[Step], p0: i32, p1: i32) -> Option<i32> {
    let mut vals: Vec<i64> = vec![p0 as i64, p1 as i64];
    for s in steps {
        match s {
            Step::Const(c) => vals.push(*c as i64),
            Step::Bin(op, a, b) => {
                let (x, y) = (vals[a % vals.len()], vals[b % vals.len()]);
                vals.push(eval(*op, x, y)?);
            }
            Step::CondAdd(c, init, op, a) => {
                let mut acc = *init as i64;
                if vals[c % vals.len()] != 0 {
                    acc = eval(*op, acc, vals[a % vals.len()])?;
                }
                vals.push(acc);
            }
            Step::JmpChain(_) => {}
        }
    }
    let mut out: i64 = 0;
    for v in &vals {
        out = eval(BinOp::Add, out, *v)?;
    }
    Some(out as i32)
}

/// Builds the equivalent ICODE program.
fn build(b: &mut IcodeBuf, steps: &[Step]) {
    let p0 = b.param(0, ValKind::W);
    let p1 = b.param(1, ValKind::W);
    let mut vals = vec![p0, p1];
    for step in steps {
        match step {
            Step::Const(c) => {
                let d = b.temp_saved(ValKind::W);
                b.li(d, *c as i64);
                vals.push(d);
            }
            Step::Bin(op, a, x) => {
                let (a, x) = (vals[*a % vals.len()], vals[*x % vals.len()]);
                let d = b.temp_saved(ValKind::W);
                if matches!(op, BinOp::Shl | BinOp::Shr | BinOp::ShrU) {
                    let t = b.temp(ValKind::W);
                    b.bin_imm(BinOp::And, ValKind::W, t, x, 31);
                    b.bin(*op, ValKind::W, d, a, t);
                    b.release(t);
                } else {
                    b.bin(*op, ValKind::W, d, a, x);
                }
                vals.push(d);
            }
            Step::CondAdd(c, init, op, a) => {
                let cond = vals[*c % vals.len()];
                let arg = vals[*a % vals.len()];
                let acc = b.temp_saved(ValKind::W);
                let skip = b.label();
                b.li(acc, *init as i64);
                b.br_false(cond, skip);
                if matches!(op, BinOp::Shl | BinOp::Shr | BinOp::ShrU) {
                    let t = b.temp(ValKind::W);
                    b.bin_imm(BinOp::And, ValKind::W, t, arg, 31);
                    b.bin(*op, ValKind::W, acc, acc, t);
                    b.release(t);
                } else {
                    b.bin(*op, ValKind::W, acc, acc, arg);
                }
                b.bind(skip);
                vals.push(acc);
            }
            Step::JmpChain(hops) => {
                // jmp l0; dead; l0: jmp l1; dead; ...; l_last:
                let labels: Vec<_> = (0..*hops).map(|_| b.label()).collect();
                for (i, l) in labels.iter().enumerate() {
                    b.jmp(*l);
                    let dead = b.temp(ValKind::W);
                    b.li(dead, i as i64);
                    b.bind(*l);
                }
            }
        }
    }
    let acc = b.temp(ValKind::W);
    b.li(acc, 0);
    for &v in &vals {
        b.bin(BinOp::Add, ValKind::W, acc, acc, v);
    }
    b.ret_val(ValKind::W, acc);
}

/// Compiles and runs, returning (result, modeled cycles, retired
/// instructions).
fn compile_and_run(
    steps: &[Step],
    peephole: bool,
    schedule: bool,
    engine: ExecEngine,
    p0: i32,
    p1: i32,
) -> (i32, u64, u64) {
    let mut buf = IcodeBuf::new();
    build(&mut buf, steps);
    let mut code = CodeSpace::new();
    let mut c = IcodeCompiler::new(Alloc::LinearScan);
    c.run_peephole = peephole;
    c.schedule_fusion = schedule;
    let r = c.compile(&mut code, "prog", &mut buf).expect("full table");
    let mut vm = Vm::new(code, 1 << 20);
    vm.set_engine(engine);
    let out = vm
        .call(r.func.addr, &[p0 as i64 as u64, p1 as i64 as u64])
        .expect("runs") as i32;
    (out, vm.cycles(), vm.insns())
}

/// Builds the same program shape as [`build`] but interleaves pinned
/// instructions — loads, stores, faulting divides, and a host call —
/// between the pure steps, so the structural property test exercises
/// the scheduler's ordering constraints densely. The result is only
/// inspected, never executed, so the memory addresses and divisors
/// need not be meaningful.
fn build_structural(b: &mut IcodeBuf, steps: &[Step], seed: i32) {
    use tcc_vcode::ops::{LoadKind, StoreKind};
    let p = b.temp_saved(ValKind::P);
    b.li(p, 0x2000);
    let p0 = b.param(0, ValKind::W);
    let p1 = b.param(1, ValKind::W);
    let mut vals = vec![p0, p1];
    for (k, step) in steps.iter().enumerate() {
        match step {
            Step::Const(c) => {
                let d = b.temp_saved(ValKind::W);
                b.li(d, *c as i64);
                vals.push(d);
            }
            Step::Bin(op, a, x) => {
                let (a, x) = (vals[*a % vals.len()], vals[*x % vals.len()]);
                let d = b.temp_saved(ValKind::W);
                b.bin(*op, ValKind::W, d, a, x);
                vals.push(d);
            }
            Step::CondAdd(c, init, op, a) => {
                let cond = vals[*c % vals.len()];
                let arg = vals[*a % vals.len()];
                let acc = b.temp_saved(ValKind::W);
                let skip = b.label();
                b.li(acc, *init as i64);
                b.br_false(cond, skip);
                b.bin(*op, ValKind::W, acc, acc, arg);
                b.bind(skip);
                vals.push(acc);
            }
            Step::JmpChain(_) => {}
        }
        let x = vals[(k + seed as usize % 7) % vals.len()];
        match k % 4 {
            0 => b.store(StoreKind::I32, x, p, (k as i32 * 8).into()),
            1 => {
                let v = b.temp_saved(ValKind::W);
                b.load(LoadKind::I32, v, p, (k as i32 * 8).into());
                vals.push(v);
            }
            2 => {
                let d = b.temp_saved(ValKind::W);
                b.bin(BinOp::Div, ValKind::W, d, x, x);
                vals.push(d);
            }
            _ => b.hcall(1, &[(ValKind::W, x)], None),
        }
    }
    let acc = b.temp(ValKind::W);
    b.li(acc, 0);
    for &v in &vals {
        b.bin(BinOp::Add, ValKind::W, acc, acc, v);
    }
    b.ret_val(ValKind::W, acc);
}

/// Memory-touching, faulting, or call-related: the scheduler must keep
/// these in their original relative order.
fn is_pinned(i: &IInsn) -> bool {
    match i.op {
        IOp::Load(_) | IOp::Store(_) | IOp::Hcall | IOp::CallAddr | IOp::CallInd | IOp::Arg(_) => {
            true
        }
        IOp::Bin(op) | IOp::BinImm(op) => {
            matches!(op, BinOp::Div | BinOp::DivU | BinOp::Rem | BinOp::RemU)
        }
        _ => false,
    }
}

/// True/anti/output dependence between an earlier `x` and a later `y`.
fn vreg_dep(x: &IInsn, y: &IInsn) -> bool {
    if let Some(d) = x.def() {
        if y.uses().into_iter().flatten().any(|u| u == d) || y.def() == Some(d) {
            return true;
        }
    }
    if let Some(yd) = y.def() {
        if x.uses().into_iter().flatten().any(|u| u == yd) {
            return true;
        }
    }
    false
}

/// Maps each original position to its position in the scheduled order,
/// matching duplicate (identical) instructions first-come first-served.
fn match_permutation(orig: &[IInsn], new: &[IInsn]) -> Vec<usize> {
    let mut taken = vec![false; new.len()];
    orig.iter()
        .map(|o| {
            let k = new
                .iter()
                .enumerate()
                .position(|(k, n)| !taken[k] && n == o)
                .expect("permutation: every instruction survives");
            taken[k] = true;
            k
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn peephole_passes_preserve_results(
        steps in steps(),
        p0 in -1000i32..1000,
        p1 in -1000i32..1000,
    ) {
        let expect = reference(&steps, p0, p1).expect("op set never faults");
        let (raw, _, _) = compile_and_run(&steps, false, false, ExecEngine::Threaded, p0, p1);
        let cleaned = compile_and_run(&steps, true, true, ExecEngine::Threaded, p0, p1);
        let cleaned_ref =
            compile_and_run(&steps, true, true, ExecEngine::DecodePerStep, p0, p1);
        prop_assert_eq!(raw, expect, "peephole-off compile diverges from host reference");
        prop_assert_eq!(cleaned.0, expect, "peephole-on compile diverges from host reference");
        prop_assert_eq!(cleaned_ref.0, expect, "engines disagree on the cleaned program");
        prop_assert_eq!(
            (cleaned.1, cleaned.2),
            (cleaned_ref.1, cleaned_ref.2),
            "threaded and reference engines disagree on cycles/insns"
        );
        // The fusion-aware scheduler alone (same DCE + jump threading,
        // reordering on vs off) may not change the result. Exact
        // machine-level cycles/insns are NOT compared across that
        // toggle: register allocation runs after scheduling, so a
        // shortened live range can legitimately drop a spill (the
        // scheduler making the program cheaper). Cycle/insn exactness
        // is pinned where it is sound — between engines on the same
        // compiled program (above) and structurally on the ICODE
        // permutation (`dag_schedule_is_dependence_respecting`).
        let unsched = compile_and_run(&steps, true, false, ExecEngine::Threaded, p0, p1);
        prop_assert_eq!(
            cleaned.0,
            unsched.0,
            "schedule_for_fusion changed the program result"
        );
    }

    /// The DAG scheduler's output is a dependence-respecting
    /// permutation of each basic block: block boundaries stay put, the
    /// instruction multiset is unchanged, memory-touching / faulting /
    /// call instructions keep their exact relative order, and every
    /// pair of data-dependent instructions keeps its orientation.
    #[test]
    fn dag_schedule_is_dependence_respecting(
        steps in steps(),
        p0 in -1000i32..1000,
    ) {
        let mut buf = IcodeBuf::new();
        build_structural(&mut buf, &steps, p0);
        let orig = buf.insns.clone();
        tcc_icode::peephole::Peephole::default().schedule_for_fusion(&mut buf);
        let new = &buf.insns;
        prop_assert_eq!(new.len(), orig.len(), "scheduler dropped or duplicated code");

        // Boundaries (labels, loop markers) and terminators never move.
        for (k, o) in orig.iter().enumerate() {
            let fixed = matches!(o.op, IOp::Label | IOp::LoopBegin | IOp::LoopEnd)
                || o.is_terminator();
            if fixed {
                prop_assert_eq!(&new[k], o, "boundary or terminator moved");
            }
        }

        // Same multiset of instructions.
        let key = |i: &IInsn| format!("{i:?}");
        let mut a: Vec<String> = orig.iter().map(key).collect();
        let mut b: Vec<String> = new.iter().map(key).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b, "scheduled block is not a permutation");

        // Pinned instructions (memory, faulting div/rem, calls, host
        // calls, argument setup) keep their exact relative order.
        let pinned: Vec<&IInsn> = orig.iter().filter(|i| is_pinned(i)).collect();
        let pinned_new: Vec<&IInsn> = new.iter().filter(|i| is_pinned(i)).collect();
        prop_assert_eq!(pinned, pinned_new, "pinned instructions reordered");

        // Every data-dependent pair keeps its orientation. Duplicate
        // instructions are matched in order, which is sound because
        // equal instructions are interchangeable.
        let perm = match_permutation(&orig, new);
        for i in 0..orig.len() {
            for j in i + 1..orig.len() {
                if vreg_dep(&orig[i], &orig[j]) {
                    prop_assert!(
                        perm[i] < perm[j],
                        "dependence inverted: {:?} must stay before {:?}",
                        orig[i],
                        orig[j]
                    );
                }
            }
        }
    }
}
