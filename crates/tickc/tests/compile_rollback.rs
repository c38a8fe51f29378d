//! A dynamic compile that fails part-way leaves the code space as it
//! found it: no words at the emission tail, no registry slot.
//!
//! VCODE emits while the CGF walk runs, so a walk error — here a `$`
//! operand that is not a run-time constant, met after the prologue and
//! the `1 +` are emitted — or an unchecked register pool running dry
//! strikes after words are in the space. The function is rolled back, its slot released for the next
//! compile, and the session keeps compiling and running. ICODE records
//! IR first and emits nothing on a walk error; it is held to the same
//! account.
//!
//! The first failure may grow the registry's list of released slots
//! once; from then on a failed compile costs nothing, which is what the
//! five after it check.

use tcc::{Backend, Config, Session, Strategy};
use tcc_suite::{benchmarks, BLUR_SMALL};
use tcc_vm::CodeFootprint;

const SRC: &str = r#"
long mk(long p) {
    int cspec c = `(1 + $*(int *)p);
    return (long)compile(c, int);
}
long good(int n) {
    int cspec c = `(1 + $n);
    return (long)compile(c, int);
}
"#;

/// What a failed compile must leave unchanged: the words ever emitted
/// and the host memory behind the space.
fn code_state(s: &Session) -> (usize, CodeFootprint) {
    let code = &s.vm.state().code;
    (code.stats().total_words, code.footprint())
}

#[test]
fn a_failed_walk_leaves_no_words_and_no_registry_slot() {
    for backend in [
        Backend::Vcode { unchecked: false },
        Backend::Vcode { unchecked: true },
        Backend::Icode {
            strategy: Strategy::LinearScan,
        },
    ] {
        let config = Config {
            backend: backend.clone(),
            cache: false,
            ..Config::default()
        };
        let mut s = Session::new(SRC, config).expect("compiles");
        let fresh = code_state(&s).0;
        s.call("mk", &[8]).expect_err("the walk fails");
        let before = code_state(&s);
        assert_eq!(before.0, fresh, "{backend:?}: the first failure left words");
        for _ in 0..5 {
            s.call("mk", &[8]).expect_err("the walk fails");
            assert_eq!(
                code_state(&s),
                before,
                "{backend:?}: a failed compile leaked"
            );
        }
        let fp = s
            .call("good", &[41])
            .expect("a good compile after the failures");
        assert_eq!(s.call_addr(fp, &[]).expect("runs"), 42, "{backend:?}");
    }
}

#[test]
fn an_exhausted_unchecked_pool_leaves_no_words_and_no_registry_slot() {
    // `heap` needs more registers than the unchecked pool holds (the
    // `vu` row that `tests/icode_golden.rs` pins as (0, 0)).
    let heap = benchmarks(BLUR_SMALL)
        .into_iter()
        .find(|b| b.name == "heap")
        .expect("heap is a suite program");
    let config = Config {
        backend: Backend::Vcode { unchecked: true },
        cache: false,
        ..Config::default()
    };
    let mut s = Session::new(heap.src, config).expect("compiles");
    (heap.setup)(&mut s);
    let fresh = code_state(&s).0;
    s.call("heap_compile", &[]).expect_err("the pool runs dry");
    let before = code_state(&s);
    assert_eq!(before.0, fresh, "the first failure left words");
    for _ in 0..5 {
        let err = s.call("heap_compile", &[]).expect_err("the pool runs dry");
        assert!(err.to_string().contains("exhausted"), "{err}");
        assert_eq!(code_state(&s), before, "a failed compile leaked");
    }
}
