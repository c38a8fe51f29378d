//! Composition depth costs no host stack.
//!
//! The CGF walk is one loop over a frame stack it keeps in its scratch,
//! so a compile nests as deep as composition allows on whatever stack
//! calls it. Every case here compiles and runs on a thread with a
//! 512 KiB stack, in the debug build, at composition depths 0, 64, 65
//! and 299 (the deepest a walk accepts: 300 closures on one path), with
//! each back end and at each splice site: a value cspec in an
//! expression, a `void cspec` statement in a dynamic loop and in a
//! dynamic `if`, and an `apply` argument list. Depth is counted as the
//! closure scan counts it: the closures on the longest path, less one.
//!
//! This is a root test, not one of the `tcc` crate's, so no recursive
//! oracle walk shadows the compile.

use tickc::tickc_core::{Backend, Config, Session, Strategy};

const SRC: &str = r#"
int x;
int inc(int a) { return a + 1; }

long value(int n) {
    int cspec c = `1;
    int k;
    for (k = 0; k < n; k++) c = `(c + 1);
    return (long)compile(c, int);
}

long in_loop(int n) {
    void cspec body = `{ x = x + 1; };
    int k;
    for (k = 0; k < n; k++) {
        int vspec i = local(int);
        body = `{ for (i = 0; i < 1; i++) body; };
    }
    return (long)compile(body, void);
}

long in_if(int n) {
    void cspec body = `{ x = x + 1; };
    int k;
    for (k = 0; k < n; k++) body = `{ if (x >= 0) body; };
    return (long)compile(body, void);
}

long applied(int n) {
    int cspec c = `0;
    int k;
    for (k = 0; k < n; k++) {
        void cspec args = push_init();
        push(args, c);
        c = `apply(inc, args);
    }
    return (long)compile(c, int);
}

int run(long f) {
    return ((int (*)(void))f)();
}

int run_void(long f) {
    x = 0;
    ((void (*)(void))f)();
    return x;
}
"#;

const SITES: [&str; 4] = ["value", "in_loop", "in_if", "applied"];
const DEPTHS: [u64; 4] = [0, 64, 65, 299];

fn backends() -> [(&'static str, Backend); 3] {
    [
        ("vcode", Backend::Vcode { unchecked: false }),
        (
            "linear",
            Backend::Icode {
                strategy: Strategy::LinearScan,
            },
        ),
        (
            "colour",
            Backend::Icode {
                strategy: Strategy::GraphColor,
            },
        ),
    ]
}

/// Compiles `site` at `depth` and runs it: the function's answer, and
/// the instructions the compile generated. A `void` function (`in_*`)
/// answers through `x`, which its innermost splice sets to 1.
fn case(backend: &Backend, site: &str, depth: u64) -> Result<(u64, u64), String> {
    let config = Config {
        backend: backend.clone(),
        cache: false,
        ..Config::default()
    };
    let mut s = Session::new(SRC, config).expect("compiles");
    let f = s.call(site, &[depth]).map_err(|e| e.to_string())?;
    let run = if site.starts_with("in_") {
        "run_void"
    } else {
        "run"
    };
    let answer = s.call(run, &[f]).map_err(|e| e.to_string())?;
    Ok((answer, s.dyn_stats().generated_insns))
}

/// Runs `f` on a thread with a 512 KiB stack.
fn small_stack<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    std::thread::Builder::new()
        .stack_size(512 << 10)
        .spawn(f)
        .expect("spawns")
        .join()
        .expect("no panic")
}

#[test]
fn composition_depth_costs_no_host_stack() {
    let mut got = Vec::new();
    for (name, backend) in backends() {
        for site in SITES {
            for depth in DEPTHS {
                let b = backend.clone();
                let (answer, insns) = small_stack(move || case(&b, site, depth))
                    .unwrap_or_else(|e| panic!("{name} {site} {depth}: {e}"));
                got.push((name, site, depth, answer, insns));
            }
        }
    }
    let want: Vec<_> = EXPECTED.to_vec();
    assert_eq!(got, want, "cases as (back end, site, depth, answer, insns)");
}

#[test]
fn depth_300_is_refused() {
    for (name, backend) in backends() {
        for site in SITES {
            let b = backend.clone();
            let err = small_stack(move || case(&b, site, 300)).unwrap_err();
            assert!(err.contains("too deep"), "{name} {site}: {err}");
        }
    }
}

/// (back end, site, depth, answer, generated instructions), recorded at
/// the commit before the walk became a loop, on a large stack.
const EXPECTED: [(&str, &str, u64, u64, u64); 48] = [
    ("vcode", "value", 0, 1, 13),
    ("vcode", "value", 64, 65, 77),
    ("vcode", "value", 65, 66, 78),
    ("vcode", "value", 299, 300, 312),
    ("vcode", "in_loop", 0, 1, 17),
    ("vcode", "in_loop", 64, 1, 1189),
    ("vcode", "in_loop", 65, 1, 1209),
    ("vcode", "in_loop", 299, 1, 5889),
    ("vcode", "in_if", 0, 1, 17),
    ("vcode", "in_if", 64, 1, 273),
    ("vcode", "in_if", 65, 1, 277),
    ("vcode", "in_if", 299, 1, 1213),
    ("vcode", "applied", 0, 0, 13),
    ("vcode", "applied", 64, 64, 209),
    ("vcode", "applied", 65, 65, 212),
    ("vcode", "applied", 299, 299, 914),
    ("linear", "value", 0, 1, 13),
    ("linear", "value", 64, 65, 77),
    ("linear", "value", 65, 66, 78),
    ("linear", "value", 299, 300, 312),
    ("linear", "in_loop", 0, 1, 16),
    ("linear", "in_loop", 64, 1, 672),
    ("linear", "in_loop", 65, 1, 683),
    ("linear", "in_loop", 299, 1, 3257),
    ("linear", "in_if", 0, 1, 16),
    ("linear", "in_if", 64, 1, 272),
    ("linear", "in_if", 65, 1, 276),
    ("linear", "in_if", 299, 1, 1212),
    ("linear", "applied", 0, 0, 13),
    ("linear", "applied", 64, 64, 205),
    ("linear", "applied", 65, 65, 208),
    ("linear", "applied", 299, 299, 910),
    ("colour", "value", 0, 1, 13),
    ("colour", "value", 64, 65, 77),
    ("colour", "value", 65, 66, 78),
    ("colour", "value", 299, 300, 312),
    ("colour", "in_loop", 0, 1, 16),
    ("colour", "in_loop", 64, 1, 668),
    ("colour", "in_loop", 65, 1, 679),
    ("colour", "in_loop", 299, 1, 3253),
    ("colour", "in_if", 0, 1, 16),
    ("colour", "in_if", 64, 1, 272),
    ("colour", "in_if", 65, 1, 276),
    ("colour", "in_if", 299, 1, 1212),
    ("colour", "applied", 0, 0, 13),
    ("colour", "applied", 64, 64, 205),
    ("colour", "applied", 65, 65, 208),
    ("colour", "applied", 299, 299, 910),
];
