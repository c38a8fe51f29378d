//! Pins the closure fingerprint encoding. A store primed over fixed
//! closures is read back frame by frame (DESIGN §14's on-disk format)
//! and every key's bytes are folded into one 64-bit digest. The digest
//! moves exactly when some closure keys differently — which orphans
//! every store on disk unless `fingerprint::SCHEME_VERSION` moves too.
//! Keys, not the file: a frame also records its compile time.

use std::path::{Path, PathBuf};

use tickc::suite::{benchmarks, BLUR_SMALL};
use tickc::tickc_core::{Backend, Config, Session, Strategy};

/// Every fingerprint tag the suite may miss: a `local()` vspec, a
/// `param()` vspec, a label object and an argument list.
const SHAPES: &str = r#"
int buf[4] = {3, 5, 7, 11};
int add3(int a, int b, int c) { return a + b + c; }
long mk(int n) {
    void cspec top = label();
    int vspec p = param(int, 0);
    int vspec i = local(int);
    int vspec acc = local(int);
    void cspec args = push_init();
    push(args, `buf[$n]);
    push(args, `(p * $n));
    push(args, `acc);
    void cspec body = `{ acc = acc + i; i = i - 1; };
    void cspec back = `{ if (i > 0) jump(top); };
    void cspec all = `{
        i = $n;
        acc = 0;
        top;
        body;
        back;
        return apply(add3, args);
    };
    return (long)compile(all, int);
}
"#;

/// The digest of every key below, computed when the pin was added.
const PINNED: u64 = 0x3f3c_febc_6ba2_0301;

fn store_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tcc-fp-pin-{tag}-{}.tccp", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut lock = path.to_path_buf().into_os_string();
    lock.push(".lock");
    let _ = std::fs::remove_file(lock);
}

/// Runs `drive` in a session persisting to a fresh store, drops the
/// session (which flushes), and returns the stored keys in file order.
fn stored_keys(
    src: &str,
    backend: &Backend,
    tag: &str,
    drive: impl Fn(&mut Session),
) -> Vec<Vec<u8>> {
    let path = store_path(tag);
    cleanup(&path);
    {
        let config = Config {
            backend: backend.clone(),
            persist_path: Some(path.clone()),
            ..Config::default()
        };
        let mut s = Session::new(src, config).expect("compiles");
        drive(&mut s);
    }
    // A session that recorded nothing (every compile uncacheable) leaves
    // no file; the key count below catches one that should have.
    let file = std::fs::read(&path).unwrap_or_default();
    cleanup(&path);
    if file.is_empty() {
        return Vec::new();
    }
    let u32_at = |at: usize| u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) as usize;
    // header: magic | format_version | abi_salt; then
    // entry: payload_len | crc32 | payload, payload: fp_len | fp | ...
    assert_eq!(&file[..4], b"TCCP");
    let (mut at, mut keys) = (16, Vec::new());
    while at < file.len() {
        let payload = at + 8;
        let fp_len = u32_at(payload);
        keys.push(file[payload + 4..payload + 4 + fp_len].to_vec());
        at = payload + u32_at(at);
    }
    keys
}

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn fingerprint_keys_match_the_pinned_digest() {
    let backends = [
        Backend::Vcode { unchecked: false },
        Backend::Icode {
            strategy: Strategy::LinearScan,
        },
    ];
    let (mut h, mut keys) = (0xcbf2_9ce4_8422_2325, 0);
    for (b, backend) in backends.iter().enumerate() {
        let mut add = |ks: Vec<Vec<u8>>| {
            for k in ks {
                h = fold(h, &(k.len() as u32).to_le_bytes());
                h = fold(h, &k);
                keys += 1;
            }
        };
        for bench in benchmarks(BLUR_SMALL) {
            add(stored_keys(
                bench.src,
                backend,
                &format!("{}-{b}", bench.name),
                |s| {
                    (bench.setup)(s);
                    (bench.compile_dyn)(s);
                },
            ));
        }
        let shapes = stored_keys(SHAPES, backend, &format!("shapes-{b}"), |s| {
            for n in [1u64, 2, 3] {
                s.call("mk", &[n]).expect("compiles");
            }
        });
        // Each key holds a label, a `param` and a `local` vspec (tags 5,
        // 6, 7, as `push_tag` writes them) and opens an argument list
        // (tag 2, as `open` writes it).
        for key in &shapes {
            for tag in [[1, 5], [1, 6], [1, 7], [4, 2]] {
                assert!(key.windows(2).any(|w| w == tag), "{tag:?} missing");
            }
        }
        add(shapes);
    }
    // Two back ends × (13 cacheable suite programs + 3 shapes).
    assert_eq!(keys, 32);
    assert_eq!(h, PINNED, "fingerprint encoding moved: {h:#018x}");
}
