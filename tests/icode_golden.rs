//! Golden: both dynamic back ends' output, word for word.
//!
//! For every `tcc_suite::benchmarks(BLUR_SMALL)` program × {linear scan,
//! graph colouring} × `icode_schedule` {on, off}, the whole code space
//! after one `compile_dyn` — the static image (which the linker also
//! compiles through ICODE, scheduler knob included) plus the dynamic
//! function — is digested and compared with the table below. The table
//! was computed at commit `afc2e84`, before the back end was given a
//! reusable compile context and linear passes; any change to a pass that
//! alters instruction order, register choice or spill placement shows
//! here as a named cell, not as a moved benchmark number.
//!
//! The `vc`/`vu` rows are the same digest under `Backend::Vcode`
//! (`unchecked` false/true; the scheduler knob only reaches the static
//! image there), computed at commit `7078e9b`, before the CGF walk was
//! lowered to a per-tick plan: the walk's output is VCODE's words and
//! ICODE's input, so a walker that emits differently moves a cell here.
//!
//! A deliberate code-generation change re-blesses the table: the failure
//! message prints every cell in source form.

use std::panic::{catch_unwind, AssertUnwindSafe};
use tcc::{Backend, Config, Session, Strategy};
use tcc_suite::{benchmarks, BLUR_SMALL};
use tcc_vm::CODE_BASE;

/// (program, back end — `ls`/`gc` ICODE allocators, `vc`/`vu` VCODE
/// checked/unchecked —, `icode_schedule`, words in the code space,
/// FNV-1a digest of those words).
type Cell = (&'static str, &'static str, bool, usize, u64);

const GOLDEN: &[Cell] = &[
    ("hash", "ls", true, 302, 0xa900294a6dae0126),
    ("hash", "ls", false, 302, 0xff69ecc8b3a0096f),
    ("hash", "gc", true, 302, 0x68d18180cc4919f3),
    ("hash", "gc", false, 302, 0x7863d6faaaf41b02),
    ("hash", "vc", true, 308, 0xcab99667b719df08),
    ("hash", "vu", true, 308, 0xcab99667b719df08),
    ("ms", "ls", true, 148, 0x18f956ec6611b588),
    ("ms", "ls", false, 148, 0x18f956ec6611b588),
    ("ms", "gc", true, 148, 0x71ba77ff394ba459),
    ("ms", "gc", false, 148, 0x71ba77ff394ba459),
    ("ms", "vc", true, 152, 0xc2d32eca191b0284),
    ("ms", "vu", true, 152, 0xc2d32eca191b0284),
    ("heap", "ls", true, 564, 0x215255da334aefc3),
    ("heap", "ls", false, 564, 0xd6041ec72926e581),
    ("heap", "gc", true, 562, 0x42cf596ac699416f),
    ("heap", "gc", false, 562, 0x73b78fff7883ddfa),
    ("heap", "vc", true, 686, 0xaaf8843aff91706b),
    ("heap", "vu", true, 0, 0x0000000000000000),
    ("ntn", "ls", true, 339, 0x4198e896726c53e3),
    ("ntn", "ls", false, 339, 0x9618dcc8e2d434b3),
    ("ntn", "gc", true, 339, 0xfc4c9ae60970f286),
    ("ntn", "gc", false, 339, 0xe3e85ff7d8e43116),
    ("ntn", "vc", true, 347, 0xac7dc29f446b7b57),
    ("ntn", "vu", true, 347, 0xac7dc29f446b7b57),
    ("cmp", "ls", true, 319, 0x75c7a8c5662e2523),
    ("cmp", "ls", false, 319, 0x384161815a5340c3),
    ("cmp", "gc", true, 319, 0x41e18745898b353a),
    ("cmp", "gc", false, 319, 0xef8c1162fb24385a),
    ("cmp", "vc", true, 328, 0xc5a683a5dd642fe2),
    ("cmp", "vu", true, 328, 0xc5a683a5dd642fe2),
    ("query", "ls", true, 472, 0xd2ba3814abe4965a),
    ("query", "ls", false, 472, 0x40f22319931d408a),
    ("query", "gc", true, 472, 0xb83c2f3d59aa8410),
    ("query", "gc", false, 472, 0x73fc3dad51b42cf4),
    ("query", "vc", true, 489, 0x5ad9e10d5b1ebd1b),
    ("query", "vu", true, 489, 0x5ad9e10d5b1ebd1b),
    ("mshl", "ls", true, 239, 0x6e6e2d63eb9c95cb),
    ("mshl", "ls", false, 239, 0x9bbd972f4c788cf2),
    ("mshl", "gc", true, 239, 0x6e6e2d63eb9c95cb),
    ("mshl", "gc", false, 239, 0x9bbd972f4c788cf2),
    ("mshl", "vc", true, 254, 0xe8f05d6df9de1542),
    ("mshl", "vu", true, 254, 0xe8f05d6df9de1542),
    ("umshl", "ls", true, 187, 0x929a4c6e5e5b3a48),
    ("umshl", "ls", false, 187, 0x01190d0a9e041998),
    ("umshl", "gc", true, 187, 0x3475ad0f7d1dcfb5),
    ("umshl", "gc", false, 187, 0x194c706be9eb5ec5),
    ("umshl", "vc", true, 189, 0x7ffdfe8bfb4463b2),
    ("umshl", "vu", true, 189, 0x7ffdfe8bfb4463b2),
    ("pow", "ls", true, 190, 0xa222307c6229afd3),
    ("pow", "ls", false, 190, 0xbee7552116b3a9aa),
    ("pow", "gc", true, 190, 0x9d37800bdeba7c83),
    ("pow", "gc", false, 190, 0xae8463f01a58f49a),
    ("pow", "vc", true, 196, 0x36b6c8f06c5dbbf8),
    ("pow", "vu", true, 196, 0x36b6c8f06c5dbbf8),
    ("binary", "ls", true, 451, 0xc441a0350de78517),
    ("binary", "ls", false, 451, 0xb76415114f5dfd47),
    ("binary", "gc", true, 385, 0x0304cc09daf0019e),
    ("binary", "gc", false, 385, 0x37777ea00b87376e),
    ("binary", "vc", true, 469, 0x0d45bc0cc20acb38),
    ("binary", "vu", true, 469, 0x0d45bc0cc20acb38),
    ("dp", "ls", true, 268, 0x1052247761f7e6ec),
    ("dp", "ls", false, 268, 0x1052247761f7e6ec),
    ("dp", "gc", true, 268, 0x23c60344f0625386),
    ("dp", "gc", false, 268, 0x23c60344f0625386),
    ("dp", "vc", true, 336, 0x99d3354c3fc3dbee),
    ("dp", "vu", true, 0, 0x0000000000000000),
    ("blur", "ls", true, 489, 0x311c611e3b21130b),
    ("blur", "ls", false, 489, 0x09f0cd93ba0a40a6),
    ("blur", "gc", true, 478, 0x707b3ef543f63c6d),
    ("blur", "gc", false, 478, 0xd2bade6751496604),
    ("blur", "vc", true, 506, 0x05a6fe778f22a2d2),
    ("blur", "vu", true, 506, 0x05a6fe778f22a2d2),
    ("filter", "ls", true, 416, 0xafecf711ee7785ee),
    ("filter", "ls", false, 416, 0xfb678a12f20f1ee4),
    ("filter", "gc", true, 415, 0xbb66e4f012466638),
    ("filter", "gc", false, 416, 0xa9688d2ba6392aa1),
    ("filter", "vc", true, 435, 0x3180ddc376437a88),
    ("filter", "vu", true, 435, 0x3180ddc376437a88),
    ("demux", "ls", true, 626, 0xef5356766858e601),
    ("demux", "ls", false, 626, 0x5e7f0d2134517a95),
    ("demux", "gc", true, 625, 0xdef00bed8010f48d),
    ("demux", "gc", false, 626, 0xbd0e2658e0fec30b),
    ("demux", "vc", true, 709, 0x0d6c8d468357d5df),
    ("demux", "vu", true, 0, 0x0000000000000000),
];

fn digest_code_space(s: &Session) -> (usize, u64) {
    let code = &s.vm.state().code;
    let n = code.next_index();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..n {
        let w = code
            .fetch(CODE_BASE + 4 * i as u64)
            .expect("every index below next_index is fetchable");
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (n, h)
}

fn backends() -> [(&'static str, Backend); 4] {
    [
        (
            "ls",
            Backend::Icode {
                strategy: Strategy::LinearScan,
            },
        ),
        (
            "gc",
            Backend::Icode {
                strategy: Strategy::GraphColor,
            },
        ),
        ("vc", Backend::Vcode { unchecked: false }),
        ("vu", Backend::Vcode { unchecked: true }),
    ]
}

#[test]
fn emitted_words_match_the_committed_digests() {
    let mut got: Vec<Cell> = Vec::new();
    for bench in benchmarks(BLUR_SMALL) {
        for (tag, backend) in backends() {
            let schedules: &[bool] = match backend {
                Backend::Icode { .. } => &[true, false],
                Backend::Vcode { .. } => &[true],
            };
            for &schedule in schedules {
                let config = Config {
                    backend: backend.clone(),
                    icode_schedule: schedule,
                    cache: false,
                    ..Config::default()
                };
                let mut s = Session::new(bench.src, config).expect("suite program compiles");
                (bench.setup)(&mut s);
                // Unchecked VCODE fails the compile with an error when the
                // walk asks for more registers than the pool holds (§5.1's
                // "run-time error"); which programs do is pinned as (0, 0).
                // `compile_dyn`, whose signature the benchmark spells,
                // panics on that error, hence the `catch_unwind`.
                let compiled = catch_unwind(AssertUnwindSafe(|| (bench.compile_dyn)(&mut s)));
                let (words, digest) = match compiled {
                    Ok(_) => digest_code_space(&s),
                    Err(_) => (0, 0),
                };
                got.push((bench.name, tag, schedule, words, digest));
            }
        }
    }
    if got != GOLDEN {
        let mut table = String::new();
        for (name, tag, schedule, words, digest) in &got {
            let moved = !GOLDEN.contains(&(*name, *tag, *schedule, *words, *digest));
            table.push_str(&format!(
                "    ({name:?}, {tag:?}, {schedule}, {words}, {digest:#018x}),{}\n",
                if moved { " // differs" } else { "" }
            ));
        }
        panic!("dynamic back-end output moved; computed table:\n{table}");
    }
}
