//! Table 1 micro-benchmarks: code generation overhead per generated
//! instruction in the paper's four extreme cases — {one large cspec,
//! many small cspecs} × {dynamic locals, free variables}.

use tcc::{Backend, Config, Session};
use tcc_mir::OptLevel;

use crate::measure::DynBackend;

/// One Table 1 row.
#[derive(Clone, Debug)]
pub struct MicroCase {
    /// Row label (paper's wording).
    pub label: &'static str,
    /// Generated `C source.
    pub src: String,
}

/// Builds the four Table 1 cases. `large_stmts` controls the size of the
/// "one large cspec" bodies (~4 instructions per statement; the paper
/// used ≈1000 instructions) and `compositions` the number of
/// self-compositions for the small-cspec cases (paper: 100).
pub fn table1_cases(large_stmts: usize, compositions: usize) -> Vec<MicroCase> {
    vec![
        MicroCase {
            label: "One large cspec, dynamic locals",
            src: large_cspec_src(large_stmts, false),
        },
        MicroCase {
            label: "One large cspec, free variables",
            src: large_cspec_src(large_stmts, true),
        },
        MicroCase {
            label: "Many small cspecs, dynamic locals",
            src: small_cspecs_src(compositions, false),
        },
        MicroCase {
            label: "Many small cspecs, free variables",
            src: small_cspecs_src(compositions, true),
        },
    ]
}

/// A single tick expression whose body is a long chain of statements.
fn large_cspec_src(stmts: usize, free_vars: bool) -> String {
    let mut body = String::new();
    for i in 0..stmts {
        // alternate the accumulators so the chain isn't trivially foldable
        let (d, s1) = if i % 2 == 0 { ("a", "b") } else { ("b", "a") };
        body.push_str(&format!("        {d} = {d} * 3 + {s1} + {};\n", i % 7 + 1));
    }
    if free_vars {
        format!(
            r#"
long micro_compile(void) {{
    int a = 1;
    int b = 2;
    void cspec c = `{{
{body}        return a + b;
    }};
    return (long)compile(c, int);
}}
"#
        )
    } else {
        format!(
            r#"
long micro_compile(void) {{
    void cspec c = `{{
        int a;
        int b;
        a = 1;
        b = 2;
{body}        return a + b;
    }};
    return (long)compile(c, int);
}}
"#
        )
    }
}

/// A small cspec (one composition + one addition) composed `n` times
/// with itself.
fn small_cspecs_src(n: usize, free_vars: bool) -> String {
    if free_vars {
        format!(
            r#"
long micro_compile(void) {{
    int x = 1;
    int cspec c = `(x + 1);
    int i;
    for (i = 0; i < {n}; i++) c = `(c + x + 1);
    return (long)compile(c, int);
}}
"#
        )
    } else {
        format!(
            r#"
long micro_compile(void) {{
    int vspec x = local(int);
    int cspec c = `(x + 1);
    int i;
    for (i = 0; i < {n}; i++) c = `(c + x + 1);
    return (long)compile(c, int);
}}
"#
        )
    }
}

/// Measured overheads for one case and back end.
#[derive(Clone, Copy, Debug)]
pub struct MicroResult {
    /// Nanoseconds of codegen per generated instruction.
    pub ns_per_insn: f64,
    /// Calibrated cycles per generated instruction.
    pub cycles_per_insn: f64,
    /// Generated instructions per compile.
    pub insns: f64,
}

/// Measures codegen cost per generated instruction for a case.
pub fn measure_micro(case: &MicroCase, b: DynBackend, ns_per_cycle: f64) -> MicroResult {
    measure_micro_backend(case, b.backend(), ns_per_cycle)
}

/// Like [`measure_micro`], for an arbitrary runtime [`Backend`]
/// configuration — the JSON Table 1 also reports VCODE's unchecked
/// mode, which [`DynBackend`] (the three standard measurement paths)
/// does not cover.
pub fn measure_micro_backend(case: &MicroCase, backend: Backend, ns_per_cycle: f64) -> MicroResult {
    let config = Config {
        static_opt: OptLevel::Optimizing,
        backend,
        // Memo off, so each rep compiles (Table 1 is compile cost; with
        // the memo on, every rep after the first is a hit).
        cache: false,
        ..Config::default()
    };
    let mut s = Session::new(&case.src, config)
        .unwrap_or_else(|e| panic!("micro case failed to compile: {e}"));
    let reps = 10;
    for _ in 0..reps {
        s.call("micro_compile", &[]).expect("compiles");
    }
    let st = s.dyn_stats();
    let ns = st.total_ns as f64 / st.compiles as f64;
    let insns = st.generated_insns as f64 / st.compiles as f64;
    MicroResult {
        ns_per_insn: ns / insns.max(1.0),
        cycles_per_insn: ns / insns.max(1.0) / ns_per_cycle,
        insns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_sources_compile_and_run() {
        let cases = table1_cases(50, 10);
        // The two large-cspec variants compute the same statement chain
        // on (a=1, b=2); verify the value. The small-composition
        // variants read an uninitialized vspec by design (the paper's
        // composition stress test); just verify they compile and run.
        let expect = {
            let (mut a, mut b) = (1i32, 2i32);
            for i in 0..50 {
                if i % 2 == 0 {
                    a = a.wrapping_mul(3).wrapping_add(b).wrapping_add(i % 7 + 1);
                } else {
                    b = b.wrapping_mul(3).wrapping_add(a).wrapping_add(i % 7 + 1);
                }
            }
            a.wrapping_add(b)
        };
        for (ci, case) in cases.iter().enumerate() {
            for b in [DynBackend::Vcode, DynBackend::IcodeLinear] {
                let config = Config {
                    backend: b.backend(),
                    ..Config::default()
                };
                let mut s = Session::new(&case.src, config).expect("compiles");
                let fp = s.call("micro_compile", &[]).expect("runs");
                let v = s.call_addr(fp, &[]).expect("generated code runs");
                if ci < 2 {
                    assert_eq!(v as i64, expect as i64, "{} / {}", case.label, b.name());
                }
            }
        }
    }

    #[test]
    fn small_composition_chains_work() {
        // c composed n times: value = (x+1) + n*(x+1) with x = 5? No:
        // c0 = x+1; c_{k} = c_{k-1} + x + 1. With x bound at run time.
        let case = &table1_cases(10, 25)[2]; // dynamic locals variant
        let mut s = Session::with_defaults(&case.src).expect("compiles");
        let fp = s.call("micro_compile", &[]).expect("compile runs");
        let v = s.call_addr(fp, &[7]).expect("generated code runs");
        // x is param-like? No: vspec local, uninitialized. The dynamic
        // local variant returns garbage-based math; just check it runs.
        let _ = v;
    }
}
