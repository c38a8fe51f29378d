//! The design ablations DESIGN.md calls out (§4.2 closure arenas, §4.4
//! dynamic loop unrolling, §5.1 cspec-first operand order and unchecked
//! VCODE, §5.2 translator pruning), each on a small program.
//!
//! [`exact`] measures what is deterministic — VM cycles, generated
//! instructions, translator entries — and `tests/paper_golden.rs` pins
//! every row of it. [`report`], which `suite ablations` prints, adds the
//! two wall-clock claims.

use std::time::Instant;
use tcc::{Backend, Config, Session, Strategy};
use tcc_icode::TranslatorTable;

/// One exact ablation row: (ablation, quantity, value).
pub type Row = (&'static str, &'static str, u64);

/// Makes 200 closures at specification time (the §4.2 arena ablation).
const CLOSURE_HEAVY: &str = r#"
long spec_many(int n) {
    int i;
    long last = 0;
    for (i = 0; i < n; i++) {
        int cspec c = `($i + 1);
        last = (long)c;
    }
    return last;
}
"#;

/// A 128-element loop compiled with `$a` folded in: the translator
/// pruning probe and the unchecked-VCODE workload.
const ICODE_WORK: &str = r#"
int buf[128];
long go(int a) {
    int vspec i = local(int);
    int vspec s = local(int);
    void cspec c = `{
        s = 0;
        for (i = 0; i < 128; i++) s = s + buf[i] * $a;
        return s;
    };
    return (long)compile(c, int);
}
"#;

/// Figure 2's composition chain.
const PRESSURE: &str = r#"
int gx;
long go(int a) {
    gx = a;
    int cspec c = `(gx + 1);
    int i;
    /* Figure 2: the cspec is the RIGHT operand, so naive left-to-right
       evaluation loads gx into a fresh temporary and holds it across
       every nested CGF call — one extra live register per level. */
    for (i = 0; i < 30; i++) c = `(gx + c);
    void cspec f = `{ return c; };
    return (long)compile(f, int);
}
int run_it(long fp) { int (*g)(void) = (int (*)(void))fp; return (*g)(); }
"#;

/// A 32-element sparse dot product, with and without `$`-indexing.
const UNROLL_SRC: &str = r#"
int row[32];
int col[32];
int n = 32;
void fill(void) {
    int i;
    int seed = 7;
    for (i = 0; i < n; i++) {
        seed = seed * 1103515245 + 12345;
        row[i] = (seed >> 16) & 1 ? ((seed >> 18) & 15) + 1 : 0;
        col[i] = i + 1;
    }
}
long go(void) {
    /* NOTE: no $-indexing by the loop variable here — `$row[k]` is only
       meaningful when the loop unrolls (k must be a derived run-time
       constant), and this ablation must be valid with unrolling off. */
    void cspec c = `{
        int k;
        int sum;
        sum = 0;
        for (k = 0; k < $n; k++)
            sum = sum + col[k] * row[k];
        return sum;
    };
    return (long)compile(c, int);
}
int run_it(long fp) { int (*g)(void) = (int (*)(void))fp; return (*g)(); }

/* The full §4.4 treatment: unrolling plus $-hardwired row values and
   dead code elimination of zero entries (only legal when unrolled). */
long go_hardwired(void) {
    void cspec c = `{
        int k;
        int sum;
        sum = 0;
        for (k = 0; k < $n; k++)
            if ($row[k])
                sum = sum + col[k] * $row[k];
        return sum;
    };
    return (long)compile(c, int);
}
"#;

fn session(src: &str) -> Session {
    Session::with_defaults(src).expect("ablation program compiles")
}

/// Compiles with `compiler` (a function returning a code address), then
/// runs the code through `run_it`: (result, run cycles, generated
/// instructions).
fn compile_and_run(s: &mut Session, compiler: &str, args: &[u64]) -> (u64, u64, u64) {
    let fp = s.call(compiler, args).expect("dynamic compile");
    s.reset_counters();
    let v = s.call("run_it", &[fp]).expect("generated code runs");
    (v, s.cycles(), s.dyn_stats().generated_insns)
}

/// Every exact ablation number.
///
/// # Panics
///
/// Panics if an ablated variant computes a different answer than the
/// default.
pub fn exact() -> Vec<Row> {
    let mut rows = Vec::new();

    // §5.2: the "link-time" analysis observes the translator entries
    // this program's CGFs use; the pruned table must still compile it.
    let icode = Config {
        backend: Backend::Icode {
            strategy: Strategy::LinearScan,
        },
        ..Config::default()
    };
    let mut probe = Session::new(ICODE_WORK, icode.clone()).expect("compiles");
    probe.call("go", &[3]).expect("runs");
    let pruned = probe.vm.host().observed_keys;
    let mut s = Session::new(ICODE_WORK, icode).expect("compiles");
    s.vm.host_mut().set_table(Some(pruned));
    s.call("go", &[3])
        .expect("the pruned table compiles its program");
    let full = TranslatorTable::full();
    rows.push(("translator", "full_entries", full.entries() as u64));
    rows.push(("translator", "full_insns", full.nominal_size() as u64));
    rows.push(("translator", "pruned_entries", pruned.entries() as u64));
    rows.push(("translator", "pruned_insns", pruned.nominal_size() as u64));

    // §5.1, Figure 2: generated code quality with the operand order on
    // and off.
    for (on, cycles, insns) in [
        (true, "on_cycles", "on_insns"),
        (false, "off_cycles", "off_insns"),
    ] {
        let mut s = session(PRESSURE);
        s.vm.host_mut().cspec_first = on;
        let (v, c, i) = compile_and_run(&mut s, "go", &[5]);
        assert_eq!(v, 5 + 1 + 30 * 5, "cspec_first {on}");
        rows.push(("cspec_first", cycles, c));
        rows.push(("cspec_first", insns, i));
    }

    // §4.4: unrolling off, unrolling alone, and unrolling with `$row[k]`
    // hardwired and zero entries eliminated.
    let mut answer = None;
    for (compiler, unroll, cycles, insns) in [
        ("go", false, "loop_kept_cycles", "loop_kept_insns"),
        ("go", true, "unrolled_cycles", "unrolled_insns"),
        ("go_hardwired", true, "hardwired_cycles", "hardwired_insns"),
    ] {
        let mut s = session(UNROLL_SRC);
        s.vm.host_mut().enable_unroll = unroll;
        s.call("fill", &[]).expect("setup");
        let (v, c, i) = compile_and_run(&mut s, compiler, &[]);
        assert_eq!(*answer.get_or_insert(v), v, "{cycles}: the answer moved");
        rows.push(("unroll", cycles, c));
        rows.push(("unroll", insns, i));
    }

    // §4.2: the spec-time cost of 200 closures in VM cycles, which the
    // allocator behind the trap does not change.
    for (use_arena, cycles) in [(true, "arena_cycles"), (false, "heap_cycles")] {
        let mut s = session(CLOSURE_HEAVY);
        s.vm.host_mut().use_arena = use_arena;
        s.reset_counters();
        s.call("spec_many", &[200]).expect("runs");
        rows.push(("closures", cycles, s.cycles()));
    }
    rows
}

/// Samples per variant of a timed ablation.
const SAMPLES: usize = 31;

/// Memo-off compiles in one VCODE sample.
const COMPILES: u64 = 500;

/// ns per generated instruction over [`COMPILES`] compiles of
/// `ICODE_WORK` in a fresh session with the memo off.
fn vcode_ns_per_insn(unchecked: bool) -> f64 {
    let config = Config {
        backend: Backend::Vcode { unchecked },
        cache: false,
        ..Config::default()
    };
    let mut s = Session::new(ICODE_WORK, config).expect("compiles");
    for _ in 0..COMPILES {
        s.call("go", &[3]).expect("dynamic compile");
    }
    let st = s.dyn_stats();
    assert_eq!(st.compiles, COMPILES, "a timed call was not a compile");
    st.total_ns as f64 / st.generated_insns as f64
}

/// µs for a session's second `spec_many(200)` call.
fn closures_us(use_arena: bool) -> f64 {
    let mut s = session(CLOSURE_HEAVY);
    s.vm.host_mut().use_arena = use_arena;
    s.call("spec_many", &[200]).expect("runs");
    let t = Instant::now();
    s.call("spec_many", &[200]).expect("runs");
    t.elapsed().as_secs_f64() * 1e6
}

/// [`SAMPLES`] of `f(false)` and of `f(true)`, interleaved, as quartiles.
fn quartiles(f: fn(bool) -> f64) -> [[f64; 3]; 2] {
    let mut samples = [Vec::new(), Vec::new()];
    for _ in 0..SAMPLES {
        samples[0].push(f(false));
        samples[1].push(f(true));
    }
    samples.map(|mut xs| {
        xs.sort_by(f64::total_cmp);
        [1, 2, 3].map(|q| xs[(xs.len() - 1) * q / 4])
    })
}

/// `suite ablations`: the exact rows, then the two wall-clock ones —
/// §5.1 unchecked VCODE and §4.2 arenas — as median [q1, q3].
pub fn report() -> String {
    let mut out = String::from("Ablations: exact counts (tests/paper_golden.rs pins them)\n");
    for (ablation, quantity, value) in exact() {
        out.push_str(&format!("{ablation:<12} {quantity:<18} {value:>8}\n"));
    }
    out.push_str(&format!(
        "\nAblations: wall clock, median [q1, q3] of {SAMPLES} interleaved samples\n"
    ));
    let [checked, unchecked] = quartiles(vcode_ns_per_insn);
    let [heap, arena] = quartiles(closures_us);
    for (ablation, variant, [q1, median, q3], unit) in [
        ("vcode spill checks", "checked", checked, "ns/insn"),
        ("vcode spill checks", "unchecked", unchecked, "ns/insn"),
        ("200 closures", "arena", arena, "us"),
        ("200 closures", "general heap", heap, "us"),
    ] {
        out.push_str(&format!(
            "{ablation:<20} {variant:<13} {median:>7.1} [{q1:.1}, {q3:.1}] {unit}\n"
        ));
    }
    out
}
