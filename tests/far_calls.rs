//! A direct call whose callee lies beyond the reach of `jal`'s 24-bit
//! word displacement (8 Mi words either way) still lands on the callee.
//! A long-lived session that keeps compiling new closures places them
//! ever further past the static image; the emitter then calls through a
//! register instead of truncating the displacement, which used to send
//! control to whatever the truncated offset named.

use tickc::tickc_core::{Backend, Config, Session, Strategy};
use tickc::vm::isa::Insn;

/// `sq` is static; the closure calls it directly.
const SRC: &str = r#"
int sq(int v) { return v * v; }
long mk(void) {
    int vspec x = param(int, 0);
    int cspec c = `(sq(x) + 2);
    return (long)compile(c, int);
}
"#;

/// Words pushed between the static image and the closure: past what a
/// `jal` displacement can span.
const GAP: usize = (1 << 23) + 64;

#[test]
fn a_direct_call_past_the_jal_reach_lands_on_its_callee() {
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
                ..Config::default()
            },
        )
        .expect("compiles");
        let code = &mut s.vm.state_mut().code;
        for _ in 0..GAP {
            code.push(Insn::nop());
        }
        let fp = s.call("mk", &[]).expect("compiles the closure");
        let sq = s.image.addr_of("sq").expect("static sq");
        assert!(
            (fp - sq) / 4 > 1 << 23,
            "{backend:?}: the callee is out of jal reach"
        );
        assert_eq!(s.call_addr(fp, &[7]).expect("runs"), 51, "{backend:?}");
    }
}
