//! Spec-time memory is reclaimed. Closures, vspecs, labels and argument
//! lists live in the session's arena until the top-level call that made
//! them returns, and are then released — unless the escape rule keeps
//! them (DESIGN, "Spec-time memory"). Every check here is a counter or
//! an answer, never a clock.
//!
//! `spec_memory_soaks_in_release` is `#[ignore]`d; `ci.sh` runs it:
//! `cargo test --release -p tickc --test spec_memory -- --ignored`.

use tcc::{Config, Session};
use tcc_serve::{run_serve, ServeOptions, KERNELS};

/// The serve workloads' program: five `srv_*` kernels, each returning a
/// function specialised on its parameter, and a static twin `ref_*` of
/// each.
const SERVE_TC: &str = include_str!("../benchmark/programs/serve.tc");

/// Arguments each cell's function is run on.
const XS: [u64; 4] = [3, 17, 40, 97];

/// Bytes in one arena chunk.
const CHUNK: u64 = 1 << 16;

/// Cell `c`'s kernel and parameter: kernels vary fastest, parameters run
/// from 1 to `cells / 5`.
fn cell(c: u32) -> (&'static str, u64) {
    let k = KERNELS.len() as u32;
    (KERNELS[(c % k) as usize], (c / k + 1) as u64)
}

fn brk(s: &Session) -> u64 {
    s.vm.state().mem.brk()
}

/// A 2 MiB `serve.tc` session answers `requests` requests over the
/// first `cells` cells, each checked against the static twin, and its
/// heap stops growing after the first request.
fn soak(cells: u32, requests: u32) {
    let config = Config {
        mem_size: 2 << 20,
        ..Config::default()
    };
    let mut s = Session::new(SERVE_TC, config).expect("serve.tc compiles");
    let want: Vec<[u64; 4]> = (0..cells)
        .map(|c| {
            let (kernel, p) = cell(c);
            let twin = kernel.replace("srv_", "ref_");
            XS.map(|x| s.call(&twin, &[p, x]).expect("twin runs"))
        })
        .collect();
    let mut after_first = None;
    for i in 0..requests {
        let c = (i.wrapping_mul(2_654_435_761) >> 8) % cells;
        let x = (i % 4) as usize;
        let (kernel, p) = cell(c);
        let f = s
            .call(kernel, &[p])
            .unwrap_or_else(|e| panic!("request {i}: {kernel}({p}) failed: {e}"));
        let got = s.call_addr(f, &[XS[x]]).expect("runs");
        assert_eq!(got, want[c as usize][x], "request {i}: {kernel}({p})");
        after_first.get_or_insert(brk(&s));
    }
    assert_eq!(
        Some(brk(&s)),
        after_first,
        "the heap grew after the first request"
    );
    let d = s.metrics().dynamic;
    assert_eq!(d.spec_releases, 2 * requests as u64 + 4 * cells as u64);
    assert_eq!(d.spec_pinned_calls, 0);
    assert!(d.spec_high_water > 0 && d.spec_high_water <= CHUNK, "{d:?}");
}

/// Before calls released their spec-time objects, every request leaked
/// its closures and vspec, and this session faulted `BadAddress` on
/// request 11,409 (on request 2,056 over 320 cells).
#[test]
fn a_two_mib_session_answers_a_hundred_thousand_requests() {
    soak(40, 100_000);
}

#[test]
#[ignore = "release soak, about 10 s; ci.sh runs it"]
fn spec_memory_soaks_in_release() {
    soak(40, 1_000_000);
    soak(320, 1_000_000);
    // The pool harness's 8 MiB sessions faulted after 86,472 requests
    // of `ServeOptions::full()` on one worker before the arena was
    // released per call.
    let opts = ServeOptions {
        requests: 200_000,
        ..ServeOptions::full()
    };
    let r = run_serve(1, &opts);
    assert_eq!(r.requests, 200_000);
    assert!(r.compiles_per_unique <= 1.0 + 1e-9, "{r:?}");
}

/// A cspec stored in a global by one call and compiled by the next: the
/// global makes the whole program keep its spec-time objects.
#[test]
fn a_cspec_kept_in_a_global_survives_the_call_that_made_it() {
    let mut s = Session::with_defaults(
        r#"
        int cspec saved;
        void save(int n) { saved = `($n * 10); }
        int use(int m) {
            int cspec d = `($m + 1);
            int (*f)(void) = compile(`(saved + d), int);
            return (*f)();
        }
        "#,
    )
    .expect("compiles");
    assert!(s.prog.spec_escapes);
    s.call("save", &[4]).unwrap();
    assert_eq!(s.call("use", &[2]).unwrap(), 43);
    assert_eq!(s.call("use", &[5]).unwrap(), 46);
    let d = s.metrics().dynamic;
    assert_eq!((d.spec_releases, d.spec_pinned_calls), (0, 3));
}

/// A cspec returned to the host by one call, composed and compiled by a
/// later one: only the call that returned it keeps its objects.
#[test]
fn a_cspec_returned_to_the_host_survives_the_calls_after_it() {
    let mut s = Session::with_defaults(
        r#"
        int cspec times(int n) { return `($n * 10); }
        int use(int cspec c, int m) {
            int cspec d = `($m + 1);
            int (*f)(void) = compile(`(c + d), int);
            return (*f)();
        }
        "#,
    )
    .expect("compiles");
    assert!(!s.prog.spec_escapes);
    let c = s.call("times", &[4]).unwrap();
    assert_eq!(s.call("use", &[c, 2]).unwrap(), 43);
    assert_eq!(s.call("use", &[c, 5]).unwrap(), 46);
    let d = s.metrics().dynamic;
    assert_eq!((d.spec_releases, d.spec_pinned_calls), (2, 1));
}

/// Every kind of spec-time object: a parameter and two locals (vspecs),
/// a label, an argument list and the closures composing them.
const EVERY_OBJECT: &str = r#"
int sum3(int a, int b, int c) { return a + b + c; }
int make(int n) {
    int vspec p = param(int, 0);
    int vspec i = local(int);
    int vspec acc = local(int);
    void cspec top = label();
    void cspec args = push_init();
    push(args, `$n);
    push(args, `p);
    push(args, `acc);
    void cspec all = `{
        i = 3;
        acc = 0;
        top;
        acc = acc + apply(sum3, args);
        i = i - 1;
        if (i > 0) jump(top);
        return acc;
    };
    int (*f)(int) = compile(all, int);
    return (*f)(n);
}
"#;

/// A program with none of the escape forms releases every call: ten
/// thousand compiles, and the heap holds one chunk.
#[test]
fn without_an_escape_form_every_call_releases() {
    let mut s = Session::with_defaults(EVERY_OBJECT).expect("compiles");
    assert!(!s.prog.spec_escapes);
    let before = brk(&s);
    assert_eq!(s.call("make", &[1]).unwrap(), 14);
    let after_first = brk(&s);
    assert!(
        after_first - before >= CHUNK,
        "the first call reserves a chunk"
    );
    for i in 1..10_000u64 {
        let n = i % 50;
        assert_eq!(s.call("make", &[n]).unwrap(), 14 * n, "call {i}");
    }
    assert_eq!(brk(&s), after_first);
    let d = s.metrics().dynamic;
    assert_eq!((d.spec_releases, d.spec_pinned_calls), (10_000, 0));
    assert_eq!(d.compiles, 50, "the memo answers the rest");

    // The §4.2 ablation allocates from the general heap, which nothing
    // frees, and answers the same.
    let mut s = Session::with_defaults(EVERY_OBJECT).expect("compiles");
    s.vm.host_mut().use_arena = false;
    let before = brk(&s);
    for n in 0..50u64 {
        assert_eq!(s.call("make", &[n]).unwrap(), 14 * n);
    }
    assert!(brk(&s) > before);
    assert_eq!(s.metrics().dynamic.spec_high_water, 0);
}

/// Of the suite's programs only `binary`, whose global `int vspec bkey`
/// outlives every call, keeps its spec-time objects; the rest hold their
/// heap flat across repeated compiles.
#[test]
fn only_binary_keeps_its_spec_time_objects() {
    for bench in tcc_suite::benchmarks(tcc_suite::BLUR_SMALL) {
        let mut s = Session::with_defaults(bench.src).expect("suite program compiles");
        assert_eq!(
            s.prog.spec_escapes,
            bench.name == "binary",
            "{}",
            bench.name
        );
        (bench.setup)(&mut s);
        let f = (bench.compile_dyn)(&mut s);
        (bench.run_dyn)(&mut s, f);
        let (heap, high) = (brk(&s), s.metrics().dynamic.spec_high_water);
        for _ in 0..20 {
            (bench.compile_dyn)(&mut s);
        }
        let d = s.metrics().dynamic;
        if bench.name == "binary" {
            assert_eq!(d.spec_releases, 0);
            assert!(d.spec_high_water > high, "binary's objects accumulate");
        } else {
            assert_eq!(d.spec_pinned_calls, 0, "{}", bench.name);
            assert_eq!(d.spec_high_water, high, "{}", bench.name);
            assert_eq!(brk(&s), heap, "{}'s heap grew", bench.name);
        }
    }
}
