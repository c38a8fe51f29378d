//! Differential tests: the same ICODE program compiled with linear scan,
//! with graph coloring, and emitted directly through VCODE must agree
//! with a host-side reference evaluation — including under register
//! pressure that forces spills.

use proptest::prelude::*;
use tcc_icode::{IcodeBuf, IcodeCompiler, Pools, Strategy as Alloc};
use tcc_rt::ValKind;
use tcc_vcode::ops::BinOp;
use tcc_vcode::{CodeSink, Vcode};
use tcc_vm::{CodeSpace, Vm};

/// A tiny random straight-line program over two parameters.
#[derive(Clone, Debug)]
enum Step {
    Const(i32),
    Bin(BinOp, usize, usize),
    BinImm(BinOp, usize, i32),
}

fn binop_strategy() -> impl Strategy<Value = BinOp> {
    use BinOp::*;
    prop::sample::select(vec![
        Add, Sub, Mul, And, Or, Xor, Shl, Shr, ShrU, Eq, Ne, Lt, LtU, Le, Gt, Ge,
    ])
}

fn imm_op_strategy() -> impl Strategy<Value = BinOp> {
    use BinOp::*;
    prop::sample::select(vec![Add, Sub, Mul, DivU, RemU])
}

fn steps_strategy() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (-1000i32..1000).prop_map(Step::Const),
            (binop_strategy(), 0usize..64, 0usize..64).prop_map(|(op, a, b)| Step::Bin(op, a, b)),
            (imm_op_strategy(), 0usize..64, 1i32..64).prop_map(|(op, a, i)| Step::BinImm(op, a, i)),
        ],
        4..48,
    )
}

/// Reference semantics on the host.
fn reference(steps: &[Step], p0: i32, p1: i32) -> Option<i32> {
    let mut vals: Vec<i64> = vec![p0 as i64, p1 as i64];
    for s in steps {
        let v = match s {
            Step::Const(c) => *c as i64,
            Step::Bin(op, a, b) => {
                let (x, y) = (vals[a % vals.len()], vals[b % vals.len()]);
                if matches!(op, BinOp::Shl | BinOp::Shr | BinOp::ShrU) && !(0..32).contains(&y) {
                    // normalize shift amounts like the builder below
                    op.eval_int(ValKind::W, x, y.rem_euclid(32))?
                } else {
                    op.eval_int(ValKind::W, x, y)?
                }
            }
            Step::BinImm(op, a, i) => op.eval_int(ValKind::W, vals[a % vals.len()], *i as i64)?,
        };
        vals.push(v);
    }
    // Consume everything so all values stay live to the end (register
    // pressure, forcing spills in every back end).
    let mut acc: i64 = 0;
    for v in &vals {
        acc = BinOp::Add
            .eval_int(ValKind::W, acc, *v)
            .expect("add never fails");
    }
    Some(acc as i32)
}

/// Builds the equivalent program into any sink.
fn build<S: CodeSink>(s: &mut S, steps: &[Step]) {
    let p0 = s.param(0, ValKind::W);
    let p1 = s.param(1, ValKind::W);
    let mut vals = vec![p0, p1];
    for step in steps {
        let d = s.temp_saved(ValKind::W);
        match step {
            Step::Const(c) => s.li(d, *c as i64),
            Step::Bin(op, a, b) => {
                let (x, y) = (vals[a % vals.len()], vals[b % vals.len()]);
                if matches!(op, BinOp::Shl | BinOp::Shr | BinOp::ShrU) {
                    // normalize the shift amount into range with a mask
                    let t = s.temp(ValKind::W);
                    s.bin_imm(BinOp::And, ValKind::W, t, y, 31);
                    s.bin(*op, ValKind::W, d, x, t);
                    s.release(t);
                } else {
                    s.bin(*op, ValKind::W, d, x, y);
                }
            }
            Step::BinImm(op, a, i) => {
                s.bin_imm(*op, ValKind::W, d, vals[a % vals.len()], *i as i64)
            }
        }
        vals.push(d);
    }
    let acc = s.temp(ValKind::W);
    s.li(acc, 0);
    for &v in &vals {
        s.bin(BinOp::Add, ValKind::W, acc, acc, v);
    }
    s.ret_val(ValKind::W, acc);
}

fn run_icode(steps: &[Step], strategy: Alloc, pools: Pools, p0: i32, p1: i32) -> i32 {
    let mut buf = IcodeBuf::new();
    build(&mut buf, steps);
    let mut code = CodeSpace::new();
    let mut c = IcodeCompiler::new(strategy);
    c.pools = pools;
    // DCE would be correct, but keep every value to maximize pressure.
    c.run_peephole = false;
    let r = c.compile(&mut code, "prog", &mut buf).expect("full table");
    let mut vm = Vm::new(code, 1 << 20);
    vm.call(r.func.addr, &[p0 as i64 as u64, p1 as i64 as u64])
        .expect("runs") as i32
}

fn run_vcode(steps: &[Step], p0: i32, p1: i32) -> i32 {
    let mut code = CodeSpace::new();
    let mut vc = Vcode::new(&mut code, "prog");
    build(&mut vc, steps);
    let f = vc.finish();
    let mut vm = Vm::new(code, 1 << 20);
    vm.call(f.addr, &[p0 as i64 as u64, p1 as i64 as u64])
        .expect("runs") as i32
}

/// Shift amounts in reference already normalized; division by zero steps
/// are skipped by returning None from reference — mirror that by
/// filtering.
fn divides_safely(steps: &[Step], p0: i32, p1: i32) -> bool {
    reference(steps, p0, p1).is_some()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_backends_agree_with_reference(
        steps in steps_strategy(),
        p0 in -10_000i32..10_000,
        p1 in -10_000i32..10_000,
    ) {
        prop_assume!(divides_safely(&steps, p0, p1));
        let expect = reference(&steps, p0, p1).expect("assumed safe");
        prop_assert_eq!(run_vcode(&steps, p0, p1), expect, "vcode");
        prop_assert_eq!(
            run_icode(&steps, Alloc::LinearScan, Pools::full(), p0, p1),
            expect,
            "linear scan"
        );
        prop_assert_eq!(
            run_icode(&steps, Alloc::GraphColor, Pools::full(), p0, p1),
            expect,
            "graph coloring"
        );
    }

    #[test]
    fn allocators_correct_under_tiny_register_pools(
        steps in steps_strategy(),
        p0 in -100i32..100,
        p1 in -100i32..100,
        nregs in 3usize..8,
    ) {
        prop_assume!(divides_safely(&steps, p0, p1));
        let expect = reference(&steps, p0, p1).expect("assumed safe");
        prop_assert_eq!(
            run_icode(&steps, Alloc::LinearScan, Pools::with_int_limit(nregs), p0, p1),
            expect
        );
        prop_assert_eq!(
            run_icode(&steps, Alloc::GraphColor, Pools::with_int_limit(nregs), p0, p1),
            expect
        );
    }
}

#[test]
fn loop_program_agrees_across_backends() {
    // f(n, step) = sum of (i*step) for i in 1..=n
    fn build_loop<S: CodeSink>(s: &mut S) {
        let n = s.param(0, ValKind::W);
        let stepv = s.param(1, ValKind::W);
        let acc = s.temp_saved(ValKind::W);
        let i = s.temp_saved(ValKind::W);
        s.li(acc, 0);
        s.li(i, 1);
        let top = s.label();
        let done = s.label();
        s.loop_begin();
        s.bind(top);
        s.br_cmp(BinOp::Gt, ValKind::W, i, n, done);
        let t = s.temp(ValKind::W);
        s.bin(BinOp::Mul, ValKind::W, t, i, stepv);
        s.bin(BinOp::Add, ValKind::W, acc, acc, t);
        s.release(t);
        s.bin_imm(BinOp::Add, ValKind::W, i, i, 1);
        s.jmp(top);
        s.loop_end();
        s.bind(done);
        s.ret_val(ValKind::W, acc);
    }

    let expect: i64 = (1..=250i64).map(|i| i * 3).sum();

    let mut code = CodeSpace::new();
    let mut vc = Vcode::new(&mut code, "loop");
    build_loop(&mut vc);
    let f = vc.finish();
    let mut vm = Vm::new(code, 1 << 20);
    assert_eq!(vm.call(f.addr, &[250, 3]).unwrap() as i64, expect);

    for strategy in [Alloc::LinearScan, Alloc::GraphColor] {
        let mut buf = IcodeBuf::new();
        build_loop(&mut buf);
        let mut code = CodeSpace::new();
        let r = IcodeCompiler::new(strategy)
            .compile(&mut code, "loop", &mut buf)
            .expect("full table");
        let mut vm = Vm::new(code, 1 << 20);
        assert_eq!(
            vm.call(r.func.addr, &[250, 3]).unwrap() as i64,
            expect,
            "{strategy:?}"
        );
    }
}

#[test]
fn icode_code_quality_beats_vcode_under_pressure() {
    // The paper's Figure 2 scenario: a long expression chain makes the
    // one-pass VCODE allocator spill, while global allocation does not.
    let steps: Vec<Step> = (0..30).map(|i| Step::BinImm(BinOp::Add, i, 1)).collect();
    let cycles = |build_and_run: &dyn Fn() -> (CodeSpace, u64)| {
        let (code, addr) = build_and_run();
        let mut vm = Vm::new(code, 1 << 20);
        vm.call(addr, &[1, 2]).unwrap();
        vm.cycles()
    };
    let vcode_cycles = cycles(&|| {
        let mut code = CodeSpace::new();
        let mut vc = Vcode::new(&mut code, "p");
        build(&mut vc, &steps);
        let f = vc.finish();
        (code, f.addr)
    });
    let icode_cycles = cycles(&|| {
        let mut buf = IcodeBuf::new();
        build(&mut buf, &steps);
        let mut code = CodeSpace::new();
        let mut c = IcodeCompiler::new(Alloc::LinearScan);
        c.run_peephole = false;
        let r = c.compile(&mut code, "p", &mut buf).expect("full table");
        (code, r.func.addr)
    });
    assert!(
        icode_cycles <= vcode_cycles,
        "icode ({icode_cycles}) should generate code at least as good as vcode ({vcode_cycles})"
    );
}
