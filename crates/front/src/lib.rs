//! # tcc-front — the `C front end
//!
//! Lexer, parser, and semantic analyzer for `C (Tick-C): ANSI C (a
//! practical subset — scalars, pointers, arrays, structs, function
//! pointers, the full statement set) extended with the paper's dynamic
//! code generation constructs:
//!
//! * the backquote operator `` ` `` over expressions and compound
//!   statements, producing `cspec` values,
//! * the `$` operator binding run-time constants at specification time,
//! * the `cspec`/`vspec` type constructors with evaluation types,
//! * the `compile`, `local` and `param` special forms.
//!
//! The analyzer resolves every name, types every expression, and — the
//! `C-specific part — hoists each tick expression into a
//! [`ast::TickDef`] carrying its *capture list*: exactly the fields the
//! closure will hold at run time (paper §4.3: CGF pointer, `$`-bound
//! run-time constants, free-variable addresses, nested cspec/vspec
//! pointers). Those captures drive both the static lowering (closure
//! construction code) and the dynamic compiler (CGF generation) in the
//! downstream crates.
//!
//! ```rust
//! let src = r#"
//!     int make_adder_body(int n) { return n; }
//!     void demo(int x) {
//!         int cspec c = `($x + 4);
//!         int (*f)(void) = compile(c, int);
//!     }
//! "#;
//! let prog = tcc_front::compile_unit(src).expect("valid `C");
//! assert_eq!(prog.ticks.len(), 1);
//! assert_eq!(prog.ticks[0].captures.len(), 1); // the $x run-time constant
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod sema;
pub mod token;
pub mod types;

pub use ast::Program;
pub use error::FrontError;

/// Parses and analyzes a `C translation unit.
///
/// # Errors
///
/// Returns the first lexical, syntax, or semantic error.
pub fn compile_unit(src: &str) -> Result<Program, FrontError> {
    sema::analyze(parser::parse(src)?)
}

#[cfg(test)]
mod tests {
    use super::ast::*;
    use super::types::Type;
    use super::*;

    #[test]
    fn hello_world_from_the_paper() {
        let src = r#"
            void f(void) {
                void cspec hello = `{ printf("hello world\n"); };
                void (*fp)(void) = compile(hello, void);
            }
        "#;
        let p = compile_unit(src).unwrap();
        assert_eq!(p.ticks.len(), 1);
        assert_eq!(p.ticks[0].eval_ty, Type::Void);
        assert!(p.ticks[0].captures.is_empty());
    }

    #[test]
    fn composition_example_from_the_paper() {
        // `4+5` via composition of two cspecs (paper §3).
        let src = r#"
            void f(void) {
                int cspec c1 = `4, cspec c2 = `5;
                int cspec c = `(c1 + c2);
            }
        "#;
        let p = compile_unit(src).unwrap();
        assert_eq!(p.ticks.len(), 3);
        let c = &p.ticks[2];
        assert_eq!(c.eval_ty, Type::Int);
        assert_eq!(c.captures.len(), 2);
        assert!(matches!(c.captures[0].kind, CaptureKind::Cspec(_)));
        assert!(matches!(c.captures[1].kind, CaptureKind::Cspec(_)));
    }

    #[test]
    fn dollar_binding_example_from_the_paper() {
        // fp = compile(`{ printf(..., $x, x); }, void)
        let src = r#"
            void f(void) {
                int x = 1;
                void cspec c = `{ printf("%d %d\n", $x, x); };
            }
        "#;
        let p = compile_unit(src).unwrap();
        let t = &p.ticks[0];
        assert_eq!(t.captures.len(), 2);
        assert!(matches!(t.captures[0].kind, CaptureKind::Dollar(_)));
        assert!(matches!(t.captures[1].kind, CaptureKind::FreeVar(_)));
        // The free variable forces x into memory.
        assert!(p.funcs[0]
            .locals
            .iter()
            .any(|l| l.name == "x" && l.addr_taken));
    }

    #[test]
    fn paper_closure_example_types() {
        // int cspec i = `5; void cspec c = `{ return i + $j * k; };
        let src = r#"
            void f(void) {
                int j = 2, k = 3;
                int cspec i = `5;
                void cspec c = `{ return i + $j * k; };
            }
        "#;
        let p = compile_unit(src).unwrap();
        let c = &p.ticks[1];
        assert_eq!(c.captures.len(), 3);
        // order of first reference: i (cspec), $j (rtc), k (free var)
        assert!(matches!(c.captures[0].kind, CaptureKind::Cspec(_)));
        assert!(matches!(c.captures[1].kind, CaptureKind::Dollar(_)));
        assert!(matches!(c.captures[2].kind, CaptureKind::FreeVar(_)));
    }

    #[test]
    fn vspec_param_and_local_forms() {
        let src = r#"
            void f(void) {
                int vspec v = local(int);
                int vspec p = param(int, 0);
                void cspec c = `{ v = p + 1; };
            }
        "#;
        let p = compile_unit(src).unwrap();
        let t = &p.ticks[0];
        assert_eq!(t.captures.len(), 2);
        assert!(matches!(t.captures[0].kind, CaptureKind::Vspec(_)));
        assert!(matches!(t.captures[1].kind, CaptureKind::Vspec(_)));
    }

    #[test]
    fn capture_dedup() {
        let src = r#"
            void f(int x) {
                int cspec c = `(x + x + $x + $x);
            }
        "#;
        let p = compile_unit(src).unwrap();
        // x dedups to one free-var capture; both $x dedup to one value
        // capture (the specification-time value is the same).
        assert_eq!(p.ticks[0].captures.len(), 2);
    }

    #[test]
    fn goto_cannot_escape_cspec() {
        let src = r#"
            void f(void) {
                void cspec c = `{ goto out; };
                out: return;
            }
        "#;
        let err = compile_unit(src).unwrap_err().to_string();
        assert!(err.contains("outside the cspec"), "{err}");
    }

    #[test]
    fn goto_within_cspec_is_fine() {
        let src = r#"
            void f(void) {
                void cspec c = `{ int i; i = 0; again: i = i + 1; if (i < 3) goto again; };
            }
        "#;
        compile_unit(src).unwrap();
    }

    #[test]
    fn dollar_outside_tick_rejected() {
        let err = compile_unit("void f(int x) { int y = $x; }")
            .unwrap_err()
            .to_string();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn nested_ticks_rejected() {
        let err = compile_unit("void f(void) { int cspec c = `(1 + `2); }")
            .unwrap_err()
            .to_string();
        assert!(err.contains("nested"), "{err}");
    }

    #[test]
    fn cspec_type_mismatch_rejected() {
        let err = compile_unit("void f(void) { int cspec c = `1; double cspec d; d = c; }")
            .unwrap_err()
            .to_string();
        assert!(err.contains("cannot assign"), "{err}");
    }

    #[test]
    fn compile_requires_cspec() {
        let err = compile_unit("void f(int x) { int (*g)(void) = compile(x, int); }").unwrap_err();
        assert!(err.to_string().contains("requires a cspec"));
    }

    #[test]
    fn ordinary_c_type_errors_still_caught() {
        assert!(compile_unit("void f(void) { undeclared = 3; }").is_err());
        assert!(compile_unit("void f(int x) { x.field = 1; }").is_err());
        assert!(compile_unit("int f(void) { return; }").is_err());
        assert!(compile_unit("void f(void) { break; }").is_err());
        assert!(compile_unit("struct s { int a; }; void f(struct s v) { v->a = 1; }").is_err());
    }

    #[test]
    fn struct_member_offsets_resolved() {
        let src = r#"
            struct rec { int key; long val; };
            long get(struct rec *r) { return r->val; }
        "#;
        let p = compile_unit(src).unwrap();
        let body = &p.funcs[0].body;
        let Stmt::Return(Some(e)) = &body[0] else {
            panic!("expected return")
        };
        let ExprKind::Member(_, _, true, off) = &e.kind else {
            panic!("expected member")
        };
        assert_eq!(*off, 8);
        assert_eq!(e.ty, Type::Long);
    }

    #[test]
    fn pointer_arithmetic_types() {
        let src = "int f(int *p, int n) { return *(p + n); }";
        let p = compile_unit(src).unwrap();
        assert_eq!(p.funcs[0].sig.ret, Type::Int);
    }

    #[test]
    fn switch_checks() {
        assert!(compile_unit(
            "int f(int x) { switch (x) { case 1: return 1; case 1: return 2; } return 0; }"
        )
        .is_err());
        compile_unit(
            "int f(int x) { switch (x) { case 1: case 2: return 1; default: return 9; } }",
        )
        .unwrap();
    }

    #[test]
    fn sizeof_folds() {
        let src = "struct s { int a; int b; }; int f(void) { return sizeof(struct s); }";
        let p = compile_unit(src).unwrap();
        let Stmt::Return(Some(e)) = &p.funcs[0].body[0] else {
            panic!()
        };
        assert_eq!(e.kind, ExprKind::IntLit(8));
    }

    #[test]
    fn dyn_locals_in_tick_bodies() {
        let src = r#"
            void f(int n) {
                void cspec c = `{ int acc; acc = $n; acc = acc * 2; return acc; };
            }
        "#;
        let p = compile_unit(src).unwrap();
        assert_eq!(p.ticks[0].dyn_locals.len(), 1);
        assert_eq!(p.ticks[0].dyn_locals[0].name, "acc");
    }

    #[test]
    fn dollar_of_cspec_rejected() {
        let err = compile_unit("void f(void) { int cspec a = `1; int cspec b = `(1 + $a); }")
            .unwrap_err()
            .to_string();
        assert!(err.contains("cspec"), "{err}");
    }

    #[test]
    fn spec_escape_rule() {
        let escapes = |src: &str| compile_unit(src).unwrap().spec_escapes;
        // Spec values in locals, parameters, local arrays and local
        // structs die with their frame, within the call.
        for src in [
            "int f(int n) { int cspec c = `($n + 1); int (*g)(void) = compile(c, int); return (*g)(); }",
            "long f(void) { int vspec x = param(int, 0); return (long)compile(`(x + 1), int); }",
            "int f(int cspec c) { int cspec a[2]; a[0] = c; a[1] = a[0]; return 0; }",
            "struct s { int cspec c; int n; }; int f(void) { struct s v; v.c = `1; return v.n; }",
            "struct s { int a; struct s *next; }; int f(struct s *p) { return p->a; }",
        ] {
            assert!(!escapes(src), "{src}");
        }
        // A global holding one, a pointer to something holding one, and a
        // cast into or out of a spec type each let a spec outlive it.
        for src in [
            "int cspec g; void f(void) { g = `1; }",
            "int vspec keys[4]; void f(void) { }",
            "struct s { int cspec c; }; struct s g; void f(void) { }",
            "void f(int cspec a[4]) { }",
            "struct s { int cspec c; }; void f(struct s *p) { }",
            "struct s { int cspec c; }; struct t { struct s *p; }; int f(void) { return 0; }",
            "long f(void) { int cspec c = `1; return (long)&c; }",
            "long f(void) { int cspec c = `1; return (long)c; }",
            "struct s { int vspec v; }; int f(void) { return sizeof(struct s *); }",
            "struct s { struct s inner; int cspec c; }; struct s g; void f(void) { }",
        ] {
            assert!(escapes(src), "{src}");
        }
        // Returning one escapes only the call that entered there.
        let p = compile_unit(
            "int g(void) { return 1; } int cspec mk(int n) { return `($n + g()); } \
             struct s { int vspec v; }; struct s mv(void) { struct s r; r.v = local(int); return r; }",
        )
        .unwrap();
        assert!(!p.spec_escapes);
        assert_eq!(p.spec_returns, [1, 2]);
    }
}
