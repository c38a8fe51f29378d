//! A reused ICODE compile context leaks nothing from one compile into
//! the next.
//!
//! The back end keeps every phase's working storage in the
//! `IcodeCompiler` and re-zeroes it instead of allocating. This test
//! holds that to its consequence: whatever a compiler compiled before —
//! bigger functions, smaller ones, one that spilled, one that a pruned
//! translator table refused after every analysis phase — the next
//! function comes out exactly as a
//! brand-new compiler would produce it: same words, same spill count,
//! same IR length, blocks and intervals.

use tcc::{Backend, Config, Session, Strategy};
use tcc_icode::{IcodeBuf, IcodeCompiler, TranslatorTable};
use tcc_rt::ValKind;
use tcc_suite::{benchmarks, BLUR_SMALL};
use tcc_vcode::ops::BinOp;
use tcc_vcode::CodeSink;
use tcc_vm::CodeSpace;

/// Everything observable about one compile.
#[derive(Debug, PartialEq)]
struct Outcome {
    words: Vec<u32>,
    spills: u32,
    ir_len: usize,
    blocks: usize,
    intervals: usize,
}

/// Compiles a copy of `buf` into a code space of its own (so the words
/// of two compiles are comparable address for address).
fn compile(compiler: &mut IcodeCompiler, buf: &IcodeBuf) -> Outcome {
    let mut code = CodeSpace::new();
    let r = compiler
        .compile(&mut code, "f", &mut buf.clone())
        .expect("full table");
    let (_, words) = code.function_words(r.func.handle).expect("sealed");
    Outcome {
        words,
        spills: r.spills,
        ir_len: r.ir_len,
        blocks: r.blocks,
        intervals: r.intervals,
    }
}

/// The dynamic function of every suite program, as IR.
fn suite_buffers() -> Vec<(String, IcodeBuf)> {
    benchmarks(BLUR_SMALL)
        .into_iter()
        .map(|bench| {
            let config = Config {
                backend: Backend::Icode {
                    strategy: Strategy::LinearScan,
                },
                cache: false,
                ..Config::default()
            };
            let mut s = Session::new(bench.src, config).expect("suite program compiles");
            (bench.setup)(&mut s);
            (bench.compile_dyn)(&mut s);
            let buf = s.vm.host().last_icode().clone();
            assert!(!buf.insns.is_empty(), "{}: no IR captured", bench.name);
            (bench.name.to_string(), buf)
        })
        .collect()
}

/// 30 simultaneously live values: spills under either allocator.
fn high_pressure() -> IcodeBuf {
    let mut b = IcodeBuf::new();
    let vals: Vec<_> = (0..30).map(|_| b.temp(ValKind::W)).collect();
    for (i, &v) in vals.iter().enumerate() {
        b.li(v, (i * i) as i64);
    }
    let acc = b.temp(ValKind::W);
    b.li(acc, 0);
    for &v in &vals {
        b.bin(BinOp::Add, ValKind::W, acc, acc, v);
    }
    b.ret_val(ValKind::W, acc);
    b
}

#[test]
fn a_reused_compiler_compiles_like_a_fresh_one() {
    let mut buffers = suite_buffers();
    buffers.push(("pressure".to_string(), high_pressure()));
    let smallest = buffers
        .iter()
        .min_by_key(|(_, b)| b.insns.len())
        .map(|(_, b)| b.clone())
        .expect("buffers");

    for strategy in [Strategy::LinearScan, Strategy::GraphColor] {
        for schedule in [true, false] {
            let make = || {
                let mut c = IcodeCompiler::new(strategy);
                c.schedule_fusion = schedule;
                c
            };
            let fresh: Vec<Outcome> = buffers
                .iter()
                .map(|(_, b)| compile(&mut make(), b))
                .collect();
            let pressure = fresh.last().expect("pressure");
            assert!(
                pressure.spills > 0,
                "{strategy:?}: the pressure buffer must spill"
            );

            // Every buffer three times over, in a fixed shuffle: each is
            // compiled after larger and after smaller ones, and again
            // after itself has been through (A, B, A').
            let mut order: Vec<usize> = (0..3 * buffers.len()).map(|i| i % buffers.len()).collect();
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            for i in (1..order.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }

            let mut reused = make();
            for (step, &i) in order.iter().enumerate() {
                if step == order.len() / 2 {
                    // A compile refused at the emitter, past every
                    // analysis phase: a table pruned for the smallest
                    // program meets the largest. No word is emitted, and
                    // the compiler stays usable — the steps after this
                    // one are the proof.
                    let largest = buffers
                        .iter()
                        .max_by_key(|(_, b)| b.insns.len())
                        .map(|(_, b)| b)
                        .expect("buffers");
                    reused.table = TranslatorTable::pruned_for([&smallest]);
                    let mut code = CodeSpace::new();
                    let refused = reused.compile(&mut code, "f", &mut largest.clone());
                    assert!(
                        refused.is_err(),
                        "the pruned table must refuse the larger program"
                    );
                    assert_eq!(code.next_index(), 0, "a refused compile emits nothing");
                    reused.table = TranslatorTable::full();
                }
                let (name, buf) = &buffers[i];
                assert_eq!(
                    compile(&mut reused, buf),
                    fresh[i],
                    "{strategy:?}, schedule {schedule}: step {step} ({name}) differs from a fresh compiler"
                );
            }
        }
    }
}

#[test]
fn a_refused_compile_is_an_error_from_session_call() {
    let src = r#"
        int make(int n) {
            int cspec c = `($n + 4);
            int (*f)(void) = compile(c, int);
            return (*f)();
        }
    "#;
    let config = Config {
        backend: Backend::Icode {
            strategy: Strategy::LinearScan,
        },
        cache: false,
        ..Config::default()
    };
    let mut s = Session::new(src, config).expect("compiles");
    s.vm.host_mut().set_table(Some(TranslatorTable::empty()));
    let words = s.vm.state().code.next_index();
    let refused = s.call("make", &[38]);
    assert!(
        matches!(refused, Err(tcc::Error::Vm(tcc_vm::VmError::Host(_)))),
        "{refused:?}"
    );
    assert_eq!(s.vm.state().code.next_index(), words, "no word emitted");
    s.vm.host_mut().set_table(None);
    assert_eq!(s.call("make", &[38]).expect("full table compiles"), 42);
}
