//! Golden: the static image `Session::new` builds, byte for byte.
//!
//! For every `tcc_suite::benchmarks(BLUR_SMALL)` program × static back
//! end (`naive` = `OptLevel::Naive`, `opt` = `OptLevel::Optimizing`) ×
//! `icode_schedule` {on, off}, a fresh session's image is digested: the
//! code words, every function, global and tick-string address, and the
//! data memory from `Memory::FIRST_VALID` up to `brk`. Nothing has run
//! yet, so the digest is what the front end, the lowering, the
//! mid-level optimizer, the static ICODE compile and the linker made
//! between them. A change meant only to make that pipeline cheaper must
//! leave every cell as it is; one that changes static code on purpose
//! re-blesses the table from the failure message, which prints every
//! cell in source form.

use tcc::{Config, OptLevel, Session};
use tcc_suite::{benchmarks, BLUR_SMALL};
use tcc_vm::{Memory, CODE_BASE};

/// (program, static back end, `icode_schedule`, code words, FNV-1a
/// digest of the image).
type Cell = (&'static str, &'static str, bool, usize, u64);

const GOLDEN: &[Cell] = &[
    ("hash", "naive", true, 326, 0x794d0fdbc69c6d6f),
    ("hash", "naive", false, 326, 0x1d72be125a77de22),
    ("hash", "opt", true, 250, 0x99988bfe05ce3d59),
    ("hash", "opt", false, 250, 0x5fbdd4d60ce9bed8),
    ("ms", "naive", true, 167, 0xa67a041bba815000),
    ("ms", "naive", false, 167, 0x8e492583ec370849),
    ("ms", "opt", true, 119, 0x77e44c979b8c1fc4),
    ("ms", "opt", false, 119, 0x77e44c979b8c1fc4),
    ("heap", "naive", true, 551, 0x7736ce8394892ff9),
    ("heap", "naive", false, 551, 0x3c3f8a6c8d312701),
    ("heap", "opt", true, 361, 0xad7f4ed0947be9f0),
    ("heap", "opt", false, 361, 0x5e88fb60f946935c),
    ("ntn", "naive", true, 305, 0x0aabb4cbe555fb94),
    ("ntn", "naive", false, 305, 0x2be16569306ed163),
    ("ntn", "opt", true, 231, 0x8b2f0bc44c5701f2),
    ("ntn", "opt", false, 231, 0xd6af3979af396942),
    ("cmp", "naive", true, 337, 0x9188eef081fc5751),
    ("cmp", "naive", false, 337, 0xe44e82748b0801a1),
    ("cmp", "opt", true, 255, 0x9fa852bb04a5233b),
    ("cmp", "opt", false, 255, 0x9926e27ddfe12c9b),
    ("query", "naive", true, 610, 0x43e9276410762dc9),
    ("query", "naive", false, 610, 0xb4b8eff408397648),
    ("query", "opt", true, 395, 0x7899fb625a87d8a1),
    ("query", "opt", false, 395, 0x7c00fdd8401422c1),
    ("mshl", "naive", true, 307, 0xc0aac86154dd3cb6),
    ("mshl", "naive", false, 307, 0x8d83ce776e0457e5),
    ("mshl", "opt", true, 210, 0x2e9fae2b6db67aad),
    ("mshl", "opt", false, 210, 0xf581ae9362976acc),
    ("umshl", "naive", true, 213, 0xe0c80f0d6cce5fd1),
    ("umshl", "naive", false, 213, 0xb3d9d81308d3a59b),
    ("umshl", "opt", true, 157, 0xcd16eee5f2923358),
    ("umshl", "opt", false, 157, 0xb060c4f8147626a8),
    ("pow", "naive", true, 235, 0xbd97ae7275820e7d),
    ("pow", "naive", false, 235, 0xa51f10e0d3d4e9d0),
    ("pow", "opt", true, 161, 0x4529fd1ee62a0436),
    ("pow", "opt", false, 161, 0xd750c4d8549e7a8f),
    ("binary", "naive", true, 344, 0x463c5a9331c279bf),
    ("binary", "naive", false, 344, 0x74ab92c14b6b05b5),
    ("binary", "opt", true, 242, 0xddac7b587492647d),
    ("binary", "opt", false, 242, 0x3e5a0b43b1ec5c0d),
    ("dp", "naive", true, 163, 0x08b4bb4b0b1f51e4),
    ("dp", "naive", false, 163, 0x004b972c76fbb51d),
    ("dp", "opt", true, 114, 0x30cf9e4599f2d508),
    ("dp", "opt", false, 114, 0x30cf9e4599f2d508),
    ("blur", "naive", true, 345, 0x5a68a3882b821bbd),
    ("blur", "naive", false, 345, 0x1cd05e614f5c98ca),
    ("blur", "opt", true, 234, 0x6197393e51d69b5c),
    ("blur", "opt", false, 234, 0xbc87acaa62377635),
    ("filter", "naive", true, 458, 0x4e7873e31482925e),
    ("filter", "naive", false, 458, 0xd98338bc95d5c986),
    ("filter", "opt", true, 331, 0x155ad8444ab9ebeb),
    ("filter", "opt", false, 331, 0x63795627d8b7a2bf),
    ("demux", "naive", true, 656, 0x71036ec96e14f20f),
    ("demux", "naive", false, 656, 0x37671cc3b9ea9d90),
    ("demux", "opt", true, 472, 0xb16a80a025df88d3),
    ("demux", "opt", false, 472, 0x1327432b56567417),
];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn list(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
    }
}

fn digest_image(s: &Session) -> (usize, u64) {
    let state = s.vm.state();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let n = state.code.next_index();
    for i in 0..n {
        let w = state
            .code
            .fetch(CODE_BASE + 4 * i as u64)
            .expect("every index below next_index is fetchable");
        h.bytes(&w.to_le_bytes());
    }
    h.list(&s.image.func_addrs);
    h.list(&s.image.global_addrs);
    for strs in &s.image.tick_strs {
        h.list(strs);
    }
    let brk = state.mem.brk();
    h.u64(brk);
    let len = (brk - Memory::FIRST_VALID) as usize;
    h.bytes(
        state
            .mem
            .read_bytes(Memory::FIRST_VALID, len)
            .expect("the static data lies below brk"),
    );
    (n, h.0)
}

#[test]
fn static_images_match_the_committed_digests() {
    let mut got: Vec<Cell> = Vec::new();
    for bench in benchmarks(BLUR_SMALL) {
        for (tag, opt) in [("naive", OptLevel::Naive), ("opt", OptLevel::Optimizing)] {
            for schedule in [true, false] {
                let config = Config {
                    static_opt: opt,
                    icode_schedule: schedule,
                    cache: false,
                    mem_size: 2 << 20,
                    ..Config::default()
                };
                let s = Session::new(bench.src, config).expect("suite program compiles");
                let (words, digest) = digest_image(&s);
                got.push((bench.name, tag, schedule, words, digest));
            }
        }
    }
    if got != GOLDEN {
        let mut table = String::new();
        for cell @ (name, tag, schedule, words, digest) in &got {
            table.push_str(&format!(
                "    ({name:?}, {tag:?}, {schedule}, {words}, {digest:#018x}),{}\n",
                if GOLDEN.contains(cell) {
                    ""
                } else {
                    " // differs"
                }
            ));
        }
        panic!("the static image moved; computed table:\n{table}");
    }
}
