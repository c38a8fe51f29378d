//! # tcc — the `C dynamic compilation system (the paper's core contribution)
//!
//! This crate glues the whole pipeline together into the system the paper
//! describes:
//!
//! * **Static compilation** (paper Figure 1): the front end
//!   ([`tcc_front`]) type-checks `C and hoists tick expressions with
//!   their capture lists; the static back ends ([`tcc_mir`]) compile the
//!   non-dynamic code to VM binary, lowering each tick expression to
//!   closure-construction code.
//! * **Dynamic specification time** (§4.3): the running program builds
//!   closures — CGF index, `$`-bound run-time constants, free-variable
//!   addresses, nested cspec/vspec pointers — via arena-allocating host
//!   calls ([`runtime`]).
//! * **Dynamic compilation** (§4.4, §5): `compile` invokes the CGF
//!   machinery ([`dyncomp`]) against the selected back end — one-pass
//!   VCODE or optimizing ICODE with linear-scan/graph-coloring register
//!   allocation — with automatic dynamic partial evaluation: run-time
//!   constant folding, strength reduction, dynamic loop unrolling, and
//!   dead code elimination.
//!
//! The high-level entry point is [`Session`]:
//!
//! ```rust
//! use tcc::Session;
//!
//! // The paper's §3 example: compose two cspecs, compile, run.
//! let mut s = Session::with_defaults(r#"
//!     int nine(void) {
//!         int cspec c1 = `4, cspec c2 = `5;
//!         int cspec c = `(c1 + c2);
//!         int (*f)(void) = compile(c, int);
//!         return (*f)();
//!     }
//! "#).expect("compiles");
//! assert_eq!(s.call("nine", &[]).unwrap(), 9);
//! ```

#![forbid(unsafe_code)]

mod addr_map;
pub mod api;
pub mod dyncomp;
pub mod fingerprint;
#[cfg(test)]
mod oracle;
#[cfg(test)]
mod oracle_tests;
mod plan;
pub mod runtime;

// The integration suites `oracle_tests` compiles in name this crate the
// way they do from outside: directly, or through the root facade.
#[cfg(test)]
extern crate self as tcc;
#[cfg(test)]
extern crate self as tickc;
#[cfg(test)]
pub(crate) use {crate as tickc_core, tcc_front as front, tcc_mir as mir};

pub use api::{persist_abi_salt, Config, Error, Session, SessionImage};
pub use dyncomp::WalkStats;
pub use runtime::{Backend, DynStats, TccRuntime};
pub use tcc_cache::SharedArtifacts;
pub use tcc_icode::Strategy;
pub use tcc_mir::OptLevel;
pub use tcc_obs::SharedCacheMetrics;
pub use tcc_obs::{
    CodegenPhases, DynMetrics, ExecMetrics, FrontendMetrics, MemoryMetrics, PersistMetrics,
    SessionMetrics, StaticMetrics, VmMetrics,
};
pub use tcc_vm::{
    AdaptiveStats, ExecEngine, ExecStats, Tier, TransHub, VmError, DEFAULT_THREAD_AFTER,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn session(src: &str, backend: &Backend) -> Session {
        let config = Config {
            backend: backend.clone(),
            ..Config::default()
        };
        Session::new(src, config).expect("compiles")
    }

    fn all_backends() -> Vec<Backend> {
        vec![
            Backend::Vcode { unchecked: false },
            Backend::Icode {
                strategy: Strategy::LinearScan,
            },
            Backend::Icode {
                strategy: Strategy::GraphColor,
            },
        ]
    }

    #[test]
    fn hello_world_from_the_paper() {
        for b in &all_backends() {
            let mut s = session(
                r#"
                void f(void) {
                    void cspec hello = `{ printf("hello world\n"); };
                    void (*fp)(void) = compile(hello, void);
                    (*fp)();
                }
            "#,
                b,
            );
            s.call("f", &[]).unwrap();
            assert_eq!(s.output(), "hello world\n");
        }
    }

    #[test]
    fn dollar_binding_semantics_from_the_paper() {
        // $x is bound at specification time (1); plain x reads 14 at run
        // time — the exact example from §3.
        for b in &all_backends() {
            let mut s = session(
                r#"
                void f(void) {
                    void (*fp)(void);
                    int x = 1;
                    fp = compile(`{ printf("$x = %d, x = %d\n", $x, x); }, void);
                    x = 14;
                    (*fp)();
                }
            "#,
                b,
            );
            s.call("f", &[]).unwrap();
            assert_eq!(s.output(), "$x = 1, x = 14\n", "{b:?}");
        }
    }

    #[test]
    fn composition_4_plus_5() {
        for b in &all_backends() {
            let mut s = session(
                r#"
                int f(void) {
                    int cspec c1 = `4, cspec c2 = `5;
                    int cspec c = `(c1 + c2);
                    int (*g)(void) = compile(c, int);
                    return (*g)();
                }
            "#,
                b,
            );
            assert_eq!(s.call("f", &[]).unwrap(), 9, "{b:?}");
        }
    }

    #[test]
    fn closure_example_i_plus_j_times_k() {
        // §4.2: int cspec i = `5; c = `{ return i + $j * k; }
        for b in &all_backends() {
            let mut s = session(
                r#"
                int f(int j, int k) {
                    int cspec i = `5;
                    void cspec c = `{ return i + $j * k; };
                    int (*g)(void) = compile(c, int);
                    k = k * 10;
                    return (*g)();
                }
            "#,
                b,
            );
            // i=5, $j bound at spec time, k read at run time (k*10)
            assert_eq!(s.call("f", &[3, 7]).unwrap(), 5 + 3 * 70, "{b:?}");
        }
    }

    #[test]
    fn free_variables_are_addresses() {
        for b in &all_backends() {
            let mut s = session(
                r#"
                int f(void) {
                    int x = 10;
                    int cspec c = `(x * 2);
                    int (*g)(void) = compile(c, int);
                    x = 21;
                    return (*g)();
                }
            "#,
                b,
            );
            assert_eq!(s.call("f", &[]).unwrap(), 42, "{b:?}");
        }
    }

    #[test]
    fn vspec_locals_and_params() {
        for b in &all_backends() {
            let mut s = session(
                r#"
                int f(void) {
                    int vspec a = param(int, 0);
                    int vspec b = param(int, 1);
                    int vspec t = local(int);
                    void cspec c = `{ t = a * 10; return t + b; };
                    int (*g)(void) = compile(c, int);
                    return (*g)(4, 2);
                }
            "#,
                b,
            );
            assert_eq!(s.call("f", &[]).unwrap(), 42, "{b:?}");
        }
    }

    #[test]
    fn dynamic_locals_in_tick_bodies() {
        for b in &all_backends() {
            let mut s = session(
                r#"
                int f(int n) {
                    void cspec c = `{ int acc; acc = $n; acc = acc * 3; return acc; };
                    int (*g)(void) = compile(c, int);
                    return (*g)();
                }
            "#,
                b,
            );
            assert_eq!(s.call("f", &[14]).unwrap(), 42, "{b:?}");
        }
    }

    #[test]
    fn dynamic_loop_unrolling_dot_product() {
        // The §4.4 dp example: the loop disappears; row values are
        // hardwired; zero entries generate no code.
        for b in &all_backends() {
            let mut s = session(
                r#"
                int row[8] = {1, 0, 2, 0, 3, 0, 4, 5};
                int col[8] = {10, 20, 30, 40, 50, 60, 70, 80};
                int n = 8;
                int f(void) {
                    void cspec c = `{
                        int k;
                        int sum;
                        sum = 0;
                        for (k = 0; k < $n; k++)
                            if ($row[k])
                                sum = sum + col[k] * $row[k];
                        return sum;
                    };
                    int (*g)(void) = compile(c, int);
                    return (*g)();
                }
            "#,
                b,
            );
            let expect = 10 + 2 * 30 + 3 * 50 + 4 * 70 + 5 * 80;
            assert_eq!(s.call("f", &[]).unwrap() as i64, expect as i64, "{b:?}");
            // The generated code must contain no branches (fully
            // unrolled, dead entries eliminated).
            assert!(s.dyn_stats().unrolled_iters >= 8, "{b:?}");
        }
    }

    #[test]
    fn statement_cspec_composition() {
        // Build a statement chain: body = `{ @body; x += i; }
        for b in &all_backends() {
            let mut s = session(
                r#"
                int f(int n) {
                    int x = 0;
                    void cspec body = `{};
                    int i;
                    for (i = 1; i <= n; i++)
                        body = `{ @body; x += $i; };
                    void (*g)(void) = compile(body, void);
                    (*g)();
                    return x;
                }
            "#,
                b,
            );
            assert_eq!(s.call("f", &[10]).unwrap(), 55, "{b:?}");
        }
    }

    #[test]
    fn strength_reduction_on_runtime_constants() {
        {
            let b = &Backend::Vcode { unchecked: false };
            let mut s = session(
                r#"
                int f(int m, int x) {
                    int cspec c = `(x * $m + x / $m + x % $m);
                    int (*g)(void) = compile(c, int);
                    return (*g)();
                }
            "#,
                b,
            );
            // power-of-two multiplier: shifts, no mul/div emitted
            assert_eq!(s.call("f", &[16, 100]).unwrap() as i64, 1600 + 6 + 4);
            assert_eq!(s.call("f", &[7, 100]).unwrap() as i64, 700 + 14 + 2);
        }
    }

    #[test]
    fn dynamic_code_calls_static_functions_directly() {
        for b in &all_backends() {
            let mut s = session(
                r#"
                int helper(int x) { return x * 2; }
                int f(int n) {
                    int cspec c = `(helper($n) + 1);
                    int (*g)(void) = compile(c, int);
                    return (*g)();
                }
            "#,
                b,
            );
            assert_eq!(s.call("f", &[20]).unwrap(), 41, "{b:?}");
        }
    }

    #[test]
    fn double_dynamic_code() {
        for b in &all_backends() {
            let mut s = session(
                r#"
                double f(double x) {
                    double cspec c = `($x * 2.5 + 1.0);
                    double (*g)(void) = compile(c, double);
                    return (*g)();
                }
            "#,
                b,
            );
            assert_eq!(s.call_f("f", &[], &[4.0]).unwrap(), 11.0, "{b:?}");
        }
    }

    #[test]
    fn dynamic_if_dead_code_elimination() {
        for b in &all_backends() {
            let mut s = session(
                r#"
                int f(int flag) {
                    void cspec c = `{
                        if ($flag) return 111;
                        else return 222;
                    };
                    int (*g)(void) = compile(c, int);
                    return (*g)();
                }
            "#,
                b,
            );
            assert_eq!(s.call("f", &[1]).unwrap(), 111, "{b:?}");
            assert_eq!(s.call("f", &[0]).unwrap(), 222, "{b:?}");
        }
    }

    #[test]
    fn dynamic_control_flow_loops() {
        // A genuinely dynamic loop in generated code.
        for b in &all_backends() {
            let mut s = session(
                r#"
                int f(void) {
                    int vspec n = param(int, 0);
                    int vspec s = local(int);
                    int vspec i = local(int);
                    void cspec c = `{
                        s = 0;
                        for (i = 1; i <= n; i++) s += i;
                        return s;
                    };
                    int (*g)(void) = compile(c, int);
                    return (*g)(100);
                }
            "#,
                b,
            );
            assert_eq!(s.call("f", &[]).unwrap(), 5050, "{b:?}");
        }
    }

    #[test]
    fn compose_same_cspec_twice_duplicates_code() {
        for b in &all_backends() {
            let mut s = session(
                r#"
                int calls = 0;
                int effect(void) { calls += 1; return 10; }
                int f(void) {
                    int cspec e = `effect();
                    int cspec c = `(e + e);
                    int (*g)(void) = compile(c, int);
                    return (*g)() * 100 + calls;
                }
            "#,
                b,
            );
            assert_eq!(s.call("f", &[]).unwrap(), 20 * 100 + 2, "{b:?}");
        }
    }

    #[test]
    fn many_compiles_accumulate_stats() {
        let mut s = session(
            r#"
            int f(int n) {
                int i;
                int total = 0;
                for (i = 0; i < n; i++) {
                    int cspec c = `($i * 2);
                    int (*g)(void) = compile(c, int);
                    total += (*g)();
                }
                return total;
            }
        "#,
            &Backend::Vcode { unchecked: false },
        );
        assert_eq!(s.call("f", &[10]).unwrap(), 90);
        let st = s.dyn_stats();
        assert_eq!(st.compiles, 10);
        assert!(st.generated_insns > 0);
        assert!(st.total_ns > 0);
    }

    #[test]
    fn icode_stats_have_phases() {
        let mut s = session(
            r#"
            int f(int n) {
                int cspec c = `($n * 3);
                int (*g)(void) = compile(c, int);
                return (*g)();
            }
        "#,
            &Backend::Icode {
                strategy: Strategy::LinearScan,
            },
        );
        assert_eq!(s.call("f", &[5]).unwrap(), 15);
        let st = s.dyn_stats();
        assert!(st.phases.total_ns() > 0);
        assert!(st.ir_insns > 0);
    }

    #[test]
    fn goto_inside_dynamic_code() {
        for b in &all_backends() {
            let mut s = session(
                r#"
                int f(void) {
                    void cspec c = `{
                        int i;
                        int s;
                        i = 0; s = 0;
                        again:
                        s += i;
                        i += 1;
                        if (i < 5) goto again;
                        return s;
                    };
                    int (*g)(void) = compile(c, int);
                    return (*g)();
                }
            "#,
                b,
            );
            assert_eq!(s.call("f", &[]).unwrap(), 10, "{b:?}");
        }
    }

    #[test]
    fn currying_with_hidden_state() {
        // §6.2 "other uses": a wrapper that binds state invisible to the
        // caller.
        for b in &all_backends() {
            let mut s = session(
                r#"
                int add(int a, int b) { return a + b; }
                long curry_add(int bound) {
                    int cspec c = `add($bound, 7);
                    return (long)compile(c, int);
                }
                int f(void) {
                    long g = curry_add(35);
                    int (*fp)(void) = (int (*)(void))g;
                    return (*fp)();
                }
            "#,
                b,
            );
            assert_eq!(s.call("f", &[]).unwrap(), 42, "{b:?}");
        }
    }
}
