//! Code that is never freed is bounded: a session whose code space
//! reaches its budget gets a typed error from the `compile` that would
//! cross it — not a panic, and nothing half-installed — and keeps
//! running the code it has.
//!
//! The code space is filled to just below the budget with raw pushes,
//! as `tests/far_calls.rs` pads it: 2²⁴ words, 128 MiB touched (words
//! and owner index) while each session lives.

use tcc::{Backend, Config, Error, Session, Strategy, VmError};
use tcc_vm::{Insn, CODE_BUDGET};

const SRC: &str = r#"
int sq(int v) { return v * v; }
long mk(int m) {
    int vspec x = param(int, 0);
    int cspec c = `(sq(x) * $m + $m);
    return (long)compile(c, int);
}
"#;

#[test]
fn a_memo_off_session_at_the_budget_gets_the_typed_error_and_keeps_running() {
    for backend in [
        Backend::Vcode { unchecked: false },
        Backend::Icode {
            strategy: Strategy::LinearScan,
        },
    ] {
        let mut s = Session::new(
            SRC,
            Config {
                backend: backend.clone(),
                cache: false,
                ..Config::default()
            },
        )
        .expect("compiles");
        let f = s.call("mk", &[3]).expect("compiles the closure");
        assert_eq!(s.call_addr(f, &[2]).expect("runs"), 15);

        // Leave four words: fewer than the closure needs.
        let code = &mut s.vm.state_mut().code;
        assert_eq!(code.budget(), CODE_BUDGET);
        for _ in code.next_index()..CODE_BUDGET - 4 {
            code.push(Insn::nop());
        }
        let before = (code.stats(), code.live_epoch(), code.next_index());
        for m in [5, 6] {
            match s.call("mk", &[m]) {
                Err(Error::Vm(VmError::CodeBudget(words))) => {
                    assert_eq!(words, CODE_BUDGET, "{backend:?}");
                }
                other => panic!("{backend:?}: m = {m} gave {other:?}"),
            }
            let code = &s.vm.state().code;
            assert_eq!(
                (code.stats(), code.live_epoch(), code.next_index()),
                before,
                "{backend:?}: the refused function was rolled back"
            );
            assert!(!code.exhausted());
        }

        // The session still runs what it has.
        assert_eq!(s.call("sq", &[7]).expect("static code runs"), 49);
        assert_eq!(s.call_addr(f, &[2]).expect("sealed code runs"), 15);
    }
}
