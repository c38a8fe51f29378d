//! Failure injection: machine faults and dynamic-compilation errors must
//! surface as typed errors with useful diagnostics — never panics, never
//! silent corruption.

use tickc::tickc_core::{Config, Session};
use tickc::vm::VmError;

#[test]
fn null_pointer_dereference_faults() {
    let mut s =
        Session::with_defaults("int f(void) { int *p = (int*)0; return *p; }").expect("compiles");
    let err = s.call("f", &[]).unwrap_err().to_string();
    assert!(err.contains("out of bounds"), "{err}");
}

#[test]
fn division_by_zero_faults() {
    let mut s = Session::with_defaults("int f(int a, int b) { return a / b; }").expect("compiles");
    assert_eq!(s.call("f", &[10, 2]).unwrap(), 5);
    let err = s.call("f", &[10, 0]).unwrap_err().to_string();
    assert!(err.contains("division by zero"), "{err}");
}

#[test]
fn division_by_zero_in_dynamic_code_faults() {
    let mut s = Session::with_defaults(
        r#"
        long mk(void) {
            int vspec a = param(int, 0);
            int vspec b = param(int, 1);
            int cspec c = `(a / b);
            return (long)compile(c, int);
        }
        int run2(long fp, int a, int b) {
            int (*g)(void) = (int (*)(void))fp;
            return (*g)(a, b);
        }
        "#,
    )
    .expect("compiles");
    let fp = s.call("mk", &[]).expect("compiles dynamically");
    assert_eq!(s.call("run2", &[fp, 12, 3]).unwrap(), 4);
    let err = s.call("run2", &[fp, 12, 0]).unwrap_err().to_string();
    assert!(err.contains("division by zero"), "{err}");
}

#[test]
fn runaway_dynamic_code_hits_the_fuel_limit() {
    let mut s = Session::with_defaults(
        r#"
        long mk(void) {
            void cspec c = `{ int i; i = 0; while (1) i = i + 1; };
            return (long)compile(c, void);
        }
        "#,
    )
    .expect("compiles");
    let fp = s.call("mk", &[]).expect("compiles dynamically");
    s.vm.set_fuel(100_000);
    let err = s.call_addr(fp, &[]).unwrap_err();
    assert!(
        matches!(err, tickc::tickc_core::Error::Vm(VmError::OutOfFuel)),
        "{err}"
    );
}

#[test]
fn huge_static_loop_stays_a_loop() {
    // 3M iterations of a statically-bounded loop: the trip-count
    // pre-simulation refuses to unroll, so it compiles to a real loop
    // and still runs correctly.
    let mut s = Session::with_defaults(
        r#"
        int big = 3000000;
        long mk(void) {
            void cspec c = `{
                int k;
                long s;
                s = 0;
                for (k = 0; k < $big; k++) s = s + 2;
                return s;
            };
            return (long)compile(c, long);
        }
        int run_it(long fp) {
            long (*g)(void) = (long (*)(void))fp;
            return (int)((*g)() / 1000);
        }
        "#,
    )
    .expect("compiles");
    let fp = s.call("mk", &[]).expect("bails to a loop");
    assert_eq!(
        s.dyn_stats().unrolled_iters,
        0,
        "must not unroll 3M iterations"
    );
    assert_eq!(s.call("run_it", &[fp]).unwrap(), 6000);
}

#[test]
fn abort_builtin_aborts() {
    let mut s = Session::with_defaults("void f(int x) { if (x) abort(); }").expect("compiles");
    s.call("f", &[0]).expect("no abort");
    let err = s.call("f", &[1]).unwrap_err().to_string();
    assert!(err.contains("abort"), "{err}");
}

#[test]
fn compile_of_garbage_closure_pointer_is_detected() {
    // Call compile() on a pointer that is not a closure.
    let mut s = Session::with_defaults(
        r#"
        int x = 77;
        long f(void) {
            int cspec c = (int cspec)(long)&x;
            return (long)compile(c, int);
        }
        "#,
    )
    .expect("compiles");
    let err = s.call("f", &[]).unwrap_err().to_string();
    assert!(
        err.contains("bad cgf id") || err.contains("out of bounds"),
        "{err}"
    );
}

#[test]
fn stack_smashing_dynamic_recursion_is_bounded() {
    // Composition depth guard: a closure graph deeper than the limit.
    let mut s = Session::with_defaults(
        r#"
        long mk(int n) {
            int cspec c = `1;
            int i;
            for (i = 0; i < n; i++) c = `(c + 1);
            return (long)compile(c, int);
        }
        "#,
    )
    .expect("compiles");
    // Within the limit: fine.
    let fp = s.call("mk", &[200]).expect("compiles");
    assert_eq!(s.call_addr(fp, &[]).unwrap(), 201);
    // Past the limit: clean error, not a host stack overflow.
    let err = s.call("mk", &[600]).unwrap_err().to_string();
    assert!(err.contains("too deep"), "{err}");
}

/// A compile site parameterized on `$n` for the lifecycle fault tests.
const MAKE: &str = r#"
long make(int n) {
    int cspec c = `($n * 3 + 4);
    int (*f)(void) = compile(c, int);
    return (long)f;
}
"#;

#[test]
fn budget_smaller_than_one_function_still_compiles() {
    // A pool budget no function fits into cannot keep anything — but
    // it must never refuse the compile itself.
    let shared = tickc::tickc_core::SharedArtifacts::with_budget(8);
    let mut s = Session::new(
        MAKE,
        Config {
            shared: Some(std::sync::Arc::clone(&shared)),
            ..Config::default()
        },
    )
    .expect("compiles");
    let a = s.call("make", &[5]).unwrap();
    let b = s.call("make", &[6]).unwrap();
    assert_eq!(s.call_addr(a, &[]).unwrap(), 19);
    assert_eq!(s.call_addr(b, &[]).unwrap(), 22);
    let m = shared.metrics();
    assert_eq!(m.uncacheable, 2, "oversized artifacts must be counted");
    assert_eq!((m.entries, m.bytes_live), (0, 0), "nothing fits");
    assert_eq!(s.dyn_stats().compiles, 2);
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]

    /// Fingerprints are injective over `$`-constant values: two
    /// specializations on different run-time constants can never alias
    /// to one cached function.
    #[test]
    fn distinct_dollar_values_never_share_code(a in 0u64..100_000, b in 0u64..100_000) {
        proptest::prop_assume!(a != b);
        let mut s = Session::new(MAKE, Config::default()).expect("compiles");
        let fa = s.call("make", &[a]).unwrap();
        let fb = s.call("make", &[b]).unwrap();
        proptest::prop_assert_ne!(fa, fb, "distinct constants collided in cache");
        proptest::prop_assert_eq!(s.call_addr(fa, &[]).unwrap(), a * 3 + 4);
        proptest::prop_assert_eq!(s.call_addr(fb, &[]).unwrap(), b * 3 + 4);
    }
}

#[test]
fn memory_exhaustion_is_an_error_not_a_panic() {
    let mut s = Session::new(
        "long f(long n) { return (long)malloc(n); }",
        Config {
            mem_size: 1 << 20,
            ..Config::default()
        },
    )
    .expect("compiles");
    assert!(s.call("f", &[1024]).is_ok());
    let err = s.call("f", &[64 << 20]).unwrap_err().to_string();
    assert!(err.contains("out of bounds"), "{err}");
}
