//! Plan walker ≡ AST walker, over every program the repository has.
//!
//! In this crate's test build every compile is shadowed by
//! [`crate::oracle::check`]; these tests are the programs to shadow. The
//! integration suites are compiled in as modules, so each of their
//! tests runs once more here with the comparison live, and a program
//! added to one of them is covered without an edit here.

use crate::oracle::{check, checks};
use crate::{Backend, Config, Session, Strategy};

/// The 14 suite programs, with their drivers.
#[allow(dead_code)]
#[path = "../../suite/src/programs.rs"]
mod suite_programs;

#[path = "../../../tests/paper_examples.rs"]
mod paper_examples;

#[path = "../../../tests/dynamic_labels.rs"]
mod dynamic_labels;

#[path = "../../../tests/dynamic_calls.rs"]
mod dynamic_calls;

#[path = "../tests/parteval.rs"]
mod parteval;

/// Includes the proptest over random statement programs.
#[path = "../../../tests/statement_fuzz.rs"]
mod statement_fuzz;

fn backends() -> [Backend; 2] {
    let strategy = Strategy::LinearScan;
    [
        Backend::Vcode { unchecked: false },
        Backend::Icode { strategy },
    ]
}

fn session(src: &str, backend: Backend) -> Session {
    let config = Config {
        backend,
        cache: false,
        ..Config::default()
    };
    Session::new(src, config).expect("compiles")
}

#[test]
fn suite_programs_walk_identically() {
    for bench in suite_programs::benchmarks(suite_programs::BLUR_SMALL) {
        for backend in backends() {
            let before = checks().0;
            let mut s = session(bench.src, backend);
            (bench.setup)(&mut s);
            let fp = (bench.compile_dyn)(&mut s);
            (bench.run_dyn)(&mut s, fp);
            assert!(checks().0 > before, "{}: no walk was compared", bench.name);
        }
    }
}

#[test]
fn serve_kernels_walk_identically() {
    let before = checks().0;
    for backend in backends() {
        let mut s = session(tcc_serve::SERVE_SRC, backend);
        for kernel in tcc_serve::KERNELS {
            for p in 1..=8 {
                let fp = s.call(kernel, &[p]).expect("kernel compiles");
                s.call_addr(fp, &[p * 7 + 3]).expect("kernel runs");
            }
        }
    }
    assert_eq!(checks().0 - before, 2 * 5 * 8);
}

/// Both ablation knobs reach both walkers.
#[test]
fn ablation_knobs_walk_identically() {
    for bench in suite_programs::benchmarks(suite_programs::BLUR_SMALL) {
        for (cspec_first, enable_unroll) in [(false, true), (true, false)] {
            // `dp` and `blur` index `$row[k]` by their induction
            // variable: without unrolling they do not compile.
            if !enable_unroll && matches!(bench.name, "dp" | "blur") {
                continue;
            }
            let mut s = session(bench.src, Backend::default());
            s.vm.host_mut().cspec_first = cspec_first;
            s.vm.host_mut().enable_unroll = enable_unroll;
            (bench.setup)(&mut s);
            (bench.compile_dyn)(&mut s);
        }
    }
}

/// Runs `entry` of `src`, which must fail in the CGF walk — in both
/// walkers, with the same text (the shadow check panics otherwise) —
/// and count as no compile. Returns the error.
fn walk_error(src: &str, entry: &str) -> String {
    let (walks, errors) = checks();
    let mut s = session(src, Backend::default());
    let err = s.call(entry, &[]).unwrap_err().to_string();
    assert_eq!(checks(), (walks + 1, errors + 1), "walkers must both fail");
    assert_eq!(s.dyn_stats().compiles, 0, "{err}");
    err
}

#[test]
fn walk_errors_are_the_same_error() {
    let err = walk_error(
        r#"
        int f(void) {
            void cspec l = label();
            void cspec all = `{ l; l; return 0; };
            int (*g)(void) = compile(all, int);
            return (*g)();
        }"#,
        "f",
    );
    assert!(err.contains("dynamic label spliced twice"), "{err}");

    let err = walk_error(
        r#"
        int f(void) {
            void cspec l = label();
            void cspec c = `{ jump(l); return 0; };
            int (*g)(void) = compile(c, int);
            return (*g)();
        }"#,
        "f",
    );
    assert!(err.contains("is jumped to but never spliced"), "{err}");

    let err = walk_error(
        r#"
        int tab[4] = {1, 2, 3, 4};
        int f(void) {
            int vspec v = param(int, 0);
            void cspec c = `{ int k; k = v; return $tab[k]; };
            int (*g)(void) = compile(c, int);
            return (*g)(1);
        }"#,
        "f",
    );
    assert!(
        err.contains("$ operand was not a run-time constant"),
        "{err}"
    );

    // A `$p[k]` whose compile-time load is out of range.
    let err = walk_error(
        r#"
        int tab[4] = {1, 2, 3, 4};
        int f(void) {
            int cspec c = `($tab[500000000] + 1);
            int (*g)(void) = compile(c, int);
            return (*g)();
        }"#,
        "f",
    );
    assert!(err.contains("out of bounds"), "{err}");
}

/// Malformed closures that `compile`'s closure scan would reject before
/// any walk: handed to the walkers directly.
#[test]
fn malformed_closures_fail_identically() {
    let mut s = session(
        "int x = 77; int f(void) { int cspec c = `1; return 0; }",
        Backend::default(),
    );
    let (global, mut mem) = (s.global_addr("x").unwrap(), s.vm.state().mem.clone());
    let (input, ..) = s.vm.host_mut().walk_parts();
    let (walks, errors) = checks();
    // A bad cgf id.
    let junk = mem.alloc(8, 8).unwrap();
    mem.store_u64(junk, 9999).unwrap();
    check(input, &mem, None, junk);
    // tests/faults.rs::compile_of_garbage_closure_pointer_is_detected:
    // a global's bytes read as a closure.
    check(input, &mem, None, global);
    // An unmapped closure address.
    check(input, &mem, None, 1 << 40);
    // An argument list compiled as a closure.
    let list = mem.alloc(16, 8).unwrap();
    mem.store_u64(list, tcc_rt::ARGLIST_MARKER).unwrap();
    check(input, &mem, None, list);
    assert_eq!(checks(), (walks + 4, errors + 4));
}
