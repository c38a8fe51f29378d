//! # tcc-mir — static compilation: lowering, optimization, linking
//!
//! The static half of the tcc pipeline (paper Figure 1): the analyzed `C
//! program is lowered to the ICODE-level IR and compiled to VM binary by
//! one of **two static back ends**:
//!
//! * [`OptLevel::Naive`] — the lcc-like baseline: named locals live in
//!   memory, no mid-level optimization. "The assembly code emitted by
//!   [lcc's] traditional static back ends is usually significantly slower
//!   (even three or more times slower) than that emitted by optimizing
//!   compilers" — this back end plays that role, and per the paper it is
//!   the correct baseline for dynamic-code speedups because the CGFs are
//!   generated from the same IR-level decisions.
//! * [`OptLevel::Optimizing`] — the gcc-like comparator: register-resident
//!   locals, constant/copy propagation, local value-numbering CSE, dead
//!   code elimination, strength reduction, plus the global linear-scan
//!   register allocator.
//!
//! Tick expressions in static code lower to closure construction (arena
//! `hcall`, CGF index, captured fields); `compile` becomes a host call
//! into the `tcc` crate's dynamic compiler.
//!
//! [`build_image`] produces a runnable [`Image`]: code space, initialized
//! data memory (globals, strings, function table) and symbol addresses.
//!
//! ```rust
//! use tcc_mir::{build_image, OptLevel};
//! use tcc_vm::{Vm, NoHost};
//!
//! let prog = tcc_front::compile_unit(
//!     "int add(int a, int b) { return a + b; }",
//! ).expect("valid C");
//! let img = build_image(&prog, OptLevel::Optimizing, 1 << 20).expect("links");
//! let mut vm = Vm::from_parts(img.code.clone(), img.mem.clone(), NoHost);
//! assert_eq!(vm.call(img.addr_of("add").unwrap(), &[2, 40]).unwrap(), 42);
//! ```

#![forbid(unsafe_code)]

pub mod linker;
pub mod lower;
pub mod opt;

pub use linker::{build_image, build_image_scheduled, BuildTimes, Image};
pub use lower::{lower_function, LinkEnv, LowerScratch, OptLevel};
pub use opt::Optimizer;

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_vm::{NoHost, Vm};

    fn run(src: &str, func: &str, args: &[u64], opt: OptLevel) -> u64 {
        let prog = tcc_front::compile_unit(src).expect("compiles");
        let img = build_image(&prog, opt, 1 << 22).expect("links");
        let mut vm = Vm::from_parts(img.code.clone(), img.mem.clone(), NoHost);
        vm.call(img.addr_of(func).expect("function exists"), args)
            .expect("runs")
    }

    fn run_both(src: &str, func: &str, args: &[u64]) -> u64 {
        let a = run(src, func, args, OptLevel::Naive);
        let b = run(src, func, args, OptLevel::Optimizing);
        assert_eq!(a, b, "naive and optimizing back ends disagree");
        a
    }

    #[test]
    fn arithmetic_and_calls() {
        let src = r#"
            int square(int x) { return x * x; }
            int f(int a, int b) { return square(a) + square(b) + a / b - a % b; }
        "#;
        assert_eq!(run_both(src, "f", &[7, 3]) as i64, 49 + 9 + 2 - 1);
    }

    #[test]
    fn loops_and_locals() {
        let src = r#"
            int sum(int n) {
                int s = 0;
                int i;
                for (i = 1; i <= n; i++) s += i;
                return s;
            }
        "#;
        assert_eq!(run_both(src, "sum", &[100]), 5050);
    }

    #[test]
    fn while_do_break_continue() {
        let src = r#"
            int f(int n) {
                int s = 0;
                while (1) {
                    n--;
                    if (n < 0) break;
                    if (n % 2) continue;
                    s += n;
                }
                do { s += 1000; } while (0);
                return s;
            }
        "#;
        let expect: i64 = (0..10).filter(|x| x % 2 == 0).sum::<i64>() + 1000;
        assert_eq!(run_both(src, "f", &[10]) as i64, expect);
    }

    #[test]
    fn arrays_and_pointers() {
        let src = r#"
            int a[10];
            int f(int n) {
                int i;
                int *p;
                for (i = 0; i < n; i++) a[i] = i * i;
                p = a;
                p = p + 2;
                return *p + a[3] + p[1];
            }
        "#;
        assert_eq!(run_both(src, "f", &[10]), 4 + 9 + 9);
    }

    #[test]
    fn structs_members_and_copies() {
        let src = r#"
            struct rec { int a; int b; long c; };
            struct rec g;
            long f(void) {
                struct rec r;
                r.a = 3; r.b = 4; r.c = 100;
                g = r;
                g.b += 1;
                return g.a + g.b + g.c;
            }
        "#;
        assert_eq!(run_both(src, "f", &[]), 3 + 5 + 100);
    }

    #[test]
    fn struct_pointers_and_arrow() {
        let src = r#"
            struct node { int v; struct node *next; };
            int sum(struct node *n) {
                int s = 0;
                while (n) { s += n->v; n = n->next; }
                return s;
            }
            struct node a, b, c;
            int f(void) {
                a.v = 1; b.v = 2; c.v = 3;
                a.next = &b; b.next = &c; c.next = (struct node*)0;
                return sum(&a);
            }
        "#;
        assert_eq!(run_both(src, "f", &[]), 6);
    }

    #[test]
    fn function_pointers() {
        let src = r#"
            int add(int a, int b) { return a + b; }
            int mul(int a, int b) { return a * b; }
            int apply(int (*f)(int, int), int x, int y) { return f(x, y); }
            int g(int sel) {
                int (*f)(int, int);
                if (sel) f = add; else f = mul;
                return apply(f, 6, 7) + (*f)(2, 3);
            }
        "#;
        assert_eq!(run_both(src, "g", &[1]), 13 + 5);
        assert_eq!(run_both(src, "g", &[0]), 42 + 6);
    }

    #[test]
    fn recursion() {
        let src = "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }";
        assert_eq!(run_both(src, "fib", &[15]), 610);
    }

    #[test]
    fn doubles_and_conversions() {
        let src = r#"
            double half(double x) { return x / 2.0; }
            int f(int n) {
                double d = n;
                d = half(d) + 0.25;
                return (int)(d * 4.0);
            }
        "#;
        assert_eq!(run_both(src, "f", &[10]), 21);
    }

    #[test]
    fn unsigned_semantics() {
        let src = r#"
            int f(unsigned a, unsigned b) {
                unsigned q = a / b;
                unsigned r = a % b;
                if (a > b) q += 100;
                return (int)(q + r);
            }
        "#;
        // a = 0xFFFFFFF0 (as unsigned), b = 16
        let a = 0xFFFF_FFF0u32 as i32 as i64 as u64;
        let got = run_both(src, "f", &[a, 16]);
        let q = 0xFFFF_FFF0u32 / 16 + 100;
        let r = 0xFFFF_FFF0u32 % 16;
        assert_eq!(got as u32, q + r);
    }

    #[test]
    fn char_short_narrowing() {
        let src = r#"
            int f(int x) {
                char c = (char)x;
                unsigned char u = (unsigned char)x;
                short s = (short)x;
                return c + u + s;
            }
        "#;
        let x = 0x1234_89ABu32 as i32;
        let expect = (x as i8) as i32 + (x as u8) as i32 + (x as i16) as i32;
        assert_eq!(run_both(src, "f", &[x as i64 as u64]) as i64, expect as i64);
    }

    #[test]
    fn narrowed_local_shifted_by_its_narrowing_amount() {
        // Narrowing `c` to char ends in `c = c >> 24`; the `c >> 24`
        // below is a new value, not that one.
        let src = "int f(int x) { char c = x; return c >> 24; }";
        assert_eq!(run_both(src, "f", &[0x80]) as i32, -1);
        assert_eq!(run_both(src, "f", &[0x7f]) as i32, 0);
    }

    #[test]
    fn globals_with_initializers() {
        let src = r#"
            int scale = 7;
            int table[5] = {1, 2, 3, 4, 5};
            double pi = 3.5;
            char msg[6] = "hello";
            int f(void) {
                return scale * table[2] + (int)pi + msg[1];
            }
        "#;
        assert_eq!(run_both(src, "f", &[]) as i64, 21 + 3 + 'e' as i64);
    }

    #[test]
    fn switch_with_fallthrough() {
        let src = r#"
            int f(int x) {
                int r = 0;
                switch (x) {
                    case 1: r += 1;
                    case 2: r += 2; break;
                    case 3: r += 3; break;
                    default: r = 99;
                }
                return r;
            }
        "#;
        assert_eq!(run_both(src, "f", &[1]), 3);
        assert_eq!(run_both(src, "f", &[2]), 2);
        assert_eq!(run_both(src, "f", &[3]), 3);
        assert_eq!(run_both(src, "f", &[7]), 99);
    }

    #[test]
    fn goto_and_labels() {
        let src = r#"
            int f(int n) {
                int s = 0;
                top:
                s += n;
                n--;
                if (n > 0) goto top;
                return s;
            }
        "#;
        assert_eq!(run_both(src, "f", &[4]), 10);
    }

    #[test]
    fn ternary_comma_logical() {
        let src = r#"
            int f(int a, int b) {
                int m = a > b ? a : b;
                int both = a && b;
                int either = a || b;
                int seq = (a++, a + b);
                return m * 1000 + both * 100 + either * 10 + (seq == a + b);
            }
        "#;
        assert_eq!(run_both(src, "f", &[3, 9]), 9 * 1000 + 100 + 10 + 1);
        assert_eq!(run_both(src, "f", &[0, 9]), (9 * 1000) + 10 + 1);
    }

    #[test]
    fn inc_dec_with_pointers() {
        let src = r#"
            int a[4] = {10, 20, 30, 40};
            int f(void) {
                int *p = a;
                int x = *p++;
                x += *p;
                ++p;
                x += *--p * 100;
                return x;
            }
        "#;
        assert_eq!(run_both(src, "f", &[]), 10 + 20 + 2000);
    }

    #[test]
    fn optimizing_backend_is_faster_on_loops() {
        let src = r#"
            int work(int n) {
                int s = 0;
                int i;
                for (i = 0; i < n; i++) s += i * 3 + (s >> 2);
                return s;
            }
        "#;
        let prog = tcc_front::compile_unit(src).unwrap();
        let cycles = |opt| {
            let img = build_image(&prog, opt, 1 << 22).unwrap();
            let mut vm = Vm::from_parts(img.code.clone(), img.mem.clone(), NoHost);
            let r1 = vm.call(img.addr_of("work").unwrap(), &[1000]).unwrap();
            (r1, vm.cycles())
        };
        let (r_naive, c_naive) = cycles(OptLevel::Naive);
        let (r_opt, c_opt) = cycles(OptLevel::Optimizing);
        assert_eq!(r_naive, r_opt);
        assert!(
            c_opt * 3 < c_naive * 2,
            "optimizing ({c_opt}) should be at least 1.5x faster than naive ({c_naive})"
        );
    }

    #[test]
    fn malloc_builtin() {
        let src = r#"
            int f(int n) {
                int *p = (int*)malloc(n * sizeof(int));
                int i;
                for (i = 0; i < n; i++) p[i] = i;
                return p[n-1];
            }
        "#;
        // malloc is a host call: install the standard handler inline.
        let prog = tcc_front::compile_unit(src).unwrap();
        let img = build_image(&prog, OptLevel::Optimizing, 1 << 22).unwrap();
        let host = |num: u32, st: &mut tcc_vm::interp::MachineState| match num {
            tcc_rt::hcalls::HC_MALLOC => {
                let size = st.arg(0);
                let a = st.mem.alloc(size, 8)?;
                st.set_ret(a);
                Ok(())
            }
            n => Err(tcc_vm::VmError::BadHostCall(n)),
        };
        let mut vm = Vm::from_parts(img.code.clone(), img.mem.clone(), host);
        assert_eq!(vm.call(img.addr_of("f").unwrap(), &[10]).unwrap(), 9);
    }
}
