//! Focused tests of automatic dynamic partial evaluation (§4.4): what
//! code the CGFs emit, not just what it computes.

use tcc::{Backend, Config, Session, Strategy};

fn session(src: &str, backend: Backend) -> Session {
    Session::new(
        src,
        Config {
            backend,
            ..Config::default()
        },
    )
    .expect("compiles")
}

fn vcode() -> Backend {
    Backend::Vcode { unchecked: false }
}

/// Generated instruction count for one compile in a fresh session.
fn gen_insns(src: &str, compile_fn: &str, args: &[u64]) -> (u64, Session) {
    let mut s = session(src, vcode());
    s.call(compile_fn, args).expect("dynamic compile");
    let n = s.dyn_stats().generated_insns;
    (n, s)
}

#[test]
fn unrolling_direction_and_step_variants() {
    // Down-counting, step-by-2, and reassignment-style steps all unroll
    // and agree with a straightforward sum.
    let src = r#"
        int n = 10;
        long down(void) {
            void cspec c = `{
                int k; int s; s = 0;
                for (k = $n; k > 0; k--) s = s + k;
                return s;
            };
            return (long)compile(c, int);
        }
        long by2(void) {
            void cspec c = `{
                int k; int s; s = 0;
                for (k = 0; k < $n; k += 2) s = s + k;
                return s;
            };
            return (long)compile(c, int);
        }
        long reassign(void) {
            void cspec c = `{
                int k; int s; s = 0;
                for (k = 1; k < $n; k = k * 2) s = s + k;
                return s;
            };
            return (long)compile(c, int);
        }
    "#;
    for b in [
        vcode(),
        Backend::Icode {
            strategy: Strategy::LinearScan,
        },
    ] {
        let mut s = session(src, b);
        let fp = s.call("down", &[]).unwrap();
        assert_eq!(s.call_addr(fp, &[]).unwrap(), (1..=10).sum::<u64>());
        let fp = s.call("by2", &[]).unwrap();
        assert_eq!(
            s.call_addr(fp, &[]).unwrap(),
            (0..10).step_by(2).sum::<u64>()
        );
        let fp = s.call("reassign", &[]).unwrap();
        assert_eq!(s.call_addr(fp, &[]).unwrap(), 1 + 2 + 4 + 8);
        assert!(s.dyn_stats().unrolled_iters >= 5 + 5 + 4);
    }
}

#[test]
fn nested_unrolling_propagates_derived_constants() {
    // The paper: "run-time constant information propagates down loop
    // nesting levels" — the inner bound depends on the outer variable.
    let src = r#"
        int n = 4;
        long mk(void) {
            void cspec c = `{
                int i; int j; int s; s = 0;
                for (i = 0; i < $n; i++)
                    for (j = 0; j <= i; j++)
                        s = s + 1;
                return s;
            };
            return (long)compile(c, int);
        }
    "#;
    let (insns, mut s) = gen_insns(src, "mk", &[]);
    let fp = s.call("mk", &[]).unwrap();
    assert_eq!(s.call_addr(fp, &[]).unwrap(), 1 + 2 + 3 + 4);
    // Fully unrolled: no branches at all in the generated function.
    let d = s.disassemble_addr(fp).expect("disassembles");
    assert!(
        !d.contains(" beq ") && !d.contains(" bltw ") && !d.contains(" bgew "),
        "expected straight-line code:\n{d}"
    );
    assert!(insns > 0);
}

#[test]
fn dead_branches_emit_no_code() {
    // `if ($flag)` over a run-time constant: only the live arm exists.
    let src = r#"
        long mk(int flag) {
            void cspec c = `{
                if ($flag) return 1111;
                return 2222;
            };
            return (long)compile(c, int);
        }
    "#;
    let (n_true, mut s1) = gen_insns(src, "mk", &[1]);
    let (n_false, mut s2) = gen_insns(src, "mk", &[0]);
    let fp1 = s1.call("mk", &[1]).unwrap();
    let fp2 = s2.call("mk", &[0]).unwrap();
    assert_eq!(s1.call_addr(fp1, &[]).unwrap(), 1111);
    assert_eq!(s2.call_addr(fp2, &[]).unwrap(), 2222);
    // Both arms are tiny — and neither contains a compare/branch.
    let d = s1.disassemble_addr(fp1).expect("disassembles");
    assert!(!d.contains("beq") && !d.contains("bne"), "{d}");
    assert!(n_true <= 20 && n_false <= 20, "{n_true} / {n_false}");
}

#[test]
fn static_switch_selects_one_arm_with_fallthrough() {
    let src = r#"
        long mk(int sel) {
            void cspec c = `{
                int r;
                r = 0;
                switch ($sel) {
                    case 1: r += 1;
                    case 2: r += 2; break;
                    case 3: r += 3; break;
                    default: r = 99;
                }
                return r;
            };
            return (long)compile(c, int);
        }
    "#;
    for (sel, expect) in [(1u64, 3u64), (2, 2), (3, 3), (7, 99)] {
        let mut s = session(src, vcode());
        let fp = s.call("mk", &[sel]).unwrap();
        assert_eq!(s.call_addr(fp, &[]).unwrap(), expect, "sel={sel}");
        // No dispatch chain survives: switch over an RTC is free.
        let d = s.disassemble_addr(fp).expect("disassembles");
        assert!(!d.contains("beq"), "sel={sel}:\n{d}");
    }
}

#[test]
fn strength_reduction_eliminates_mul_and_div_for_powers_of_two() {
    let src = r#"
        long mk(int m) {
            int vspec x = param(int, 0);
            int cspec c = `(x * $m + x / $m + (int)((unsigned)x % (unsigned)$m));
            return (long)compile(c, int);
        }
    "#;
    let mut s = session(src, vcode());
    let fp = s.call("mk", &[64]).unwrap();
    let x = 1000u64;
    assert_eq!(
        s.call_addr(fp, &[x]).unwrap() as i64,
        (1000 * 64 + 1000 / 64 + 1000 % 64) as i64
    );
    let d = s.disassemble_addr(fp).expect("disassembles");
    assert!(!d.contains("mulw"), "power-of-two multiply survived:\n{d}");
    assert!(
        !d.contains("divw") && !d.contains("divuw"),
        "divide survived:\n{d}"
    );
    assert!(!d.contains("remuw"), "remainder survived:\n{d}");

    // Non-power-of-two keeps the real operations (checked for honesty).
    let mut s = session(src, vcode());
    let fp = s.call("mk", &[7]).unwrap();
    assert_eq!(
        s.call_addr(fp, &[x]).unwrap() as i64,
        (1000 * 7 + 1000 / 7 + 1000 % 7) as i64
    );
}

#[test]
fn mixed_static_dynamic_expressions_fold_static_parts() {
    // (2*$a + $b*3) + x: everything but the x-add happens at compile
    // time, so the code is li + add + ret (+ prologue).
    let src = r#"
        long mk(int a, int b) {
            int vspec x = param(int, 0);
            int cspec c = `(2 * $a + $b * 3 + x);
            return (long)compile(c, int);
        }
    "#;
    let (n, mut s) = gen_insns(src, "mk", &[10, 5]);
    let fp = s.call("mk", &[10, 5]).unwrap();
    assert_eq!(s.call_addr(fp, &[7]).unwrap(), 2 * 10 + 5 * 3 + 7);
    assert!(n <= 20, "expected a folded constant, got {n} instructions");
}

#[test]
fn rtc_local_demotion_is_sound() {
    // sum starts as a run-time constant (static initializer), then a
    // dynamic store demotes it; the static prefix must still be folded
    // into the initial value.
    let src = r#"
        long mk(int p0) {
            int vspec x = param(int, 0);
            void cspec c = `{
                int sum;
                sum = $p0 * 2;      /* static: rtc-resident */
                sum = sum + 10;     /* still static */
                sum = sum + x;      /* demotes to a register */
                sum = sum + 1;      /* dynamic add */
                return sum;
            };
            return (long)compile(c, int);
        }
    "#;
    for b in [
        vcode(),
        Backend::Icode {
            strategy: Strategy::GraphColor,
        },
    ] {
        let mut s = session(src, b);
        let fp = s.call("mk", &[20]).unwrap();
        assert_eq!(s.call_addr(fp, &[5]).unwrap(), 40 + 10 + 5 + 1);
    }
}

#[test]
fn unroll_bails_to_a_loop_past_the_limit() {
    // Trip count 5000 > 1024: stays a loop, still correct, few insns.
    let src = r#"
        int n = 5000;
        long mk(void) {
            void cspec c = `{
                int k; int s; s = 0;
                for (k = 0; k < $n; k++) s = s + 2;
                return s;
            };
            return (long)compile(c, int);
        }
    "#;
    let (insns, mut s) = gen_insns(src, "mk", &[]);
    let fp = s.call("mk", &[]).unwrap();
    assert_eq!(s.call_addr(fp, &[]).unwrap(), 10_000);
    assert!(
        insns < 60,
        "expected a loop, got {insns} instructions (unrolled?)"
    );
    assert_eq!(s.dyn_stats().unrolled_iters, 0);
}

#[test]
fn body_that_writes_the_condition_variable_stays_a_loop() {
    // The bound is a free variable (address capture), so the condition
    // is not a run-time constant at all — must remain a dynamic loop
    // even though init/step look static.
    let src = r#"
        long mk(int n0) {
            int vspec out = local(int);
            void cspec c = `{
                int k;
                int limit;
                limit = $n0;
                out = 0;
                for (k = 0; k < limit; k++) {
                    out = out + k;
                    if (out > 100) limit = 0;   /* assigns a cond dependency */
                }
                return out;
            };
            return (long)compile(c, int);
        }
    "#;
    let mut s = session(src, vcode());
    let fp = s.call("mk", &[50]).unwrap();
    // reference semantics
    let expect = {
        let (mut out, mut limit) = (0i32, 50i32);
        let mut k = 0;
        while k < limit {
            out += k;
            if out > 100 {
                limit = 0;
            }
            k += 1;
        }
        out
    };
    assert_eq!(s.call_addr(fp, &[]).unwrap() as i64, expect as i64);
}

#[test]
fn zero_compare_branches_use_the_zero_register() {
    // `x != 0` / `x == 0` in branch position fold to a truthiness
    // branch on x alone (bne/beq against the hardwired r0), exactly
    // like the static back end — no materialized zero operand.
    let src = r#"
        long mk(void) {
            int vspec x = param(int, 0);
            void cspec c = `{
                int k; int s; k = x; s = 5;
                while (k != 0) { s = s + k; k = k - 1; }
                if (s == 0) return -1;
                return s;
            };
            return (long)compile(c, int);
        }
    "#;
    for b in [
        vcode(),
        Backend::Icode {
            strategy: Strategy::LinearScan,
        },
    ] {
        let mut s = session(src, b);
        let fp = s.call("mk", &[]).unwrap();
        assert_eq!(
            s.call_addr(fp, &[10]).unwrap() as i64,
            5 + (1..=10).sum::<i64>()
        );
        let d = s.disassemble_addr(fp).expect("disassembles");
        assert!(
            d.contains(", r0, "),
            "expected a branch against the zero register:\n{d}"
        );
        assert!(
            !d.contains("addid") || !d.contains(", r0, 0"),
            "zero operand was materialized:\n{d}"
        );
    }
}

#[test]
fn float_zero_compares_keep_the_real_comparison() {
    // The fold is integer-only: -0.0 == 0.0 must stay true, which a
    // bit-pattern test against the zero register would get wrong.
    let src = r#"
        long mk(void) {
            double vspec x = param(double, 0);
            void cspec c = `{
                if (x == 0) return 1;
                return 0;
            };
            return (long)compile(c, int);
        }
        double drive(long fp, double v) {
            int (*g)(double) = (int (*)(double))fp;
            return (double)g(v);
        }
    "#;
    let mut s = session(src, vcode());
    let fp = s.call("mk", &[]).unwrap();
    assert_eq!(s.call_f("drive", &[fp], &[-0.0]).unwrap(), 1.0);
    assert_eq!(s.call_f("drive", &[fp], &[0.0]).unwrap(), 1.0);
    assert_eq!(s.call_f("drive", &[fp], &[1.5]).unwrap(), 0.0);
}

#[test]
fn comma_operands_compose_and_order_like_any_other() {
    // The right operand is a comma expression that ends in a composed
    // cspec: the cspec-first rule (§5.1) has to see through the comma,
    // and the discarded left half still emits (a `li` into a dead temp).
    let src = r#"
        long mk(int n) {
            int vspec x = param(int, 0);
            int cspec inner = `(x * $n);
            int cspec c = `(x * 3 + (1, inner) + (x, 2));
            return (long)compile(c, int);
        }
    "#;
    for b in [
        vcode(),
        Backend::Icode {
            strategy: Strategy::LinearScan,
        },
    ] {
        let mut s = session(src, b);
        let fp = s.call("mk", &[5]).unwrap();
        assert_eq!(s.call_addr(fp, &[7]).unwrap(), 7 * 3 + 7 * 5 + 2);
        assert_eq!(s.dyn_stats().closures, 2);
    }
}

#[test]
fn conditional_with_one_static_arm_folds_only_when_that_arm_is_chosen() {
    // `$sel ? $a * 2 : x + 1` is a run-time constant exactly when the
    // condition picks the static arm; `x ? $a : x + 3` never is, but its
    // static arm is still an immediate.
    let src = r#"
        long mk(int sel, int a) {
            int vspec x = param(int, 0);
            int cspec c = `(($sel ? $a * 2 : x + 1) + (x ? $a : x + 3));
            return (long)compile(c, int);
        }
    "#;
    let (folded, mut s) = gen_insns(src, "mk", &[1, 10]);
    let fp = s.call("mk", &[1, 10]).unwrap();
    assert_eq!(s.call_addr(fp, &[7]).unwrap(), 20 + 10);
    assert_eq!(s.call_addr(fp, &[0]).unwrap(), 20 + 3);
    let (emitted, mut s) = gen_insns(src, "mk", &[0, 10]);
    let fp = s.call("mk", &[0, 10]).unwrap();
    assert_eq!(s.call_addr(fp, &[7]).unwrap(), 8 + 10);
    assert_eq!(s.call_addr(fp, &[0]).unwrap(), 1 + 3);
    assert!(
        folded < emitted,
        "the static arm should cost less than the dynamic one: {folded} vs {emitted}"
    );
}
