//! A store file that rots between two processes: the frames are
//! verified when they are first asked for, not when the file is
//! opened, so the damage must surface there — as one recompile with
//! the right answer, never as wrong bytes — and heal at the next flush.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tickc::cache::{Artifact, PersistentStore};
use tickc::tickc_core::{persist_abi_salt, Config, Session, SharedArtifacts};
use tickc::vm::isa::{Insn, Op};
use tickc::vm::regs::{A0, A1};
use tickc::vm::CostModel;

const MAKE: &str = r#"
long make(int n) {
    int vspec x = param(int, 0);
    int cspec c = `(x * $n + $n);
    return (long)compile(c, int);
}
"#;

const PARAMS: [u64; 3] = [3, 9, 12];

fn persist_session(path: &Path) -> Session {
    Session::new(
        MAKE,
        Config {
            persist_path: Some(path.to_path_buf()),
            ..Config::default()
        },
    )
    .expect("compiles")
}

/// Compiles and runs every cell; returns the results.
fn sweep(s: &mut Session) -> Vec<u64> {
    PARAMS
        .iter()
        .map(|&n| {
            let addr = s.call("make", &[n]).expect("compile entry");
            s.call_addr(addr, &[5]).expect("runs")
        })
        .collect()
}

#[test]
fn bit_flip_in_stored_words_recompiles_that_cell_and_heals() {
    let path: PathBuf =
        std::env::temp_dir().join(format!("tcc-e2e-rot-{}.tccp", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let expected = sweep(&mut persist_session(&path));
    assert_eq!(expected, [5 * 3 + 3, 5 * 9 + 9, 5 * 12 + 12]);

    // The file's last byte is in the last frame's last code word.
    let mut bytes = std::fs::read(&path).expect("flushed on drop");
    *bytes.last_mut().expect("non-empty") ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();

    {
        let mut s = persist_session(&path);
        let m = s.metrics().persist;
        assert_eq!((m.entries_loaded, m.corrupt_rejected), (3, 0));
        assert!(m.open_ns > 0);
        assert_eq!(sweep(&mut s), expected, "never wrong bytes");
        let m = s.metrics();
        assert_eq!(m.dynamic.compiles, 1, "only the rotten cell recompiles");
        assert_eq!(m.persist.corrupt_rejected, 1);
        assert_eq!((m.persist.disk_hits, m.persist.disk_misses), (2, 1));
        // Drop flushes: the recompiled cell replaces the bad frame.
    }

    let mut s = persist_session(&path);
    assert_eq!(sweep(&mut s), expected);
    let m = s.metrics();
    assert_eq!(m.dynamic.compiles, 0);
    assert_eq!((m.persist.disk_hits, m.persist.corrupt_rejected), (3, 0));
    drop(s);
    let _ = std::fs::remove_file(&path);
}

/// A session in a one-member pool whose store is attached to the
/// pool's [`SharedArtifacts`] (which the session keeps alive).
fn pool_session(path: &Path) -> Session {
    Session::new(
        MAKE,
        Config {
            shared: Some(SharedArtifacts::unbounded()),
            persist_path: Some(path.to_path_buf()),
            ..Config::default()
        },
    )
    .expect("compiles")
}

/// Function bodies a CRC cannot vouch for: each frame below is written
/// by the store itself, so every checksum is valid — over words no
/// code space should make executable.
fn hostile_bodies() -> [(&'static str, usize, Vec<u32>); 4] {
    let ret = Insn::ret().encode();
    [
        ("undecodable word", 0, vec![0xFFFF_FFFF, ret]),
        (
            "cross-function branch",
            0,
            vec![Insn::i(Op::Beq, A0, A1, 1000).encode(), ret],
        ),
        // An external call sealed so far away that rebasing it to any
        // placement here leaves the 24-bit displacement.
        (
            "jal out of range once rebased",
            1 << 30,
            vec![Insn::j(Op::Jal, 1000).encode(), ret],
        ),
        ("zero words", 0, vec![]),
    ]
}

#[test]
fn valid_crc_over_hostile_words_is_rejected_at_install_and_heals() {
    const CELLS: [u64; 4] = [3, 9, 12, 21];
    let sweep = |s: &mut Session| -> Vec<u64> {
        CELLS
            .iter()
            .map(|&n| {
                let addr = s.call("make", &[n]).expect("compile entry");
                s.call_addr(addr, &[5]).expect("runs")
            })
            .collect()
    };
    let expected: Vec<u64> = CELLS.iter().map(|n| 5 * n + n).collect();

    for (mode, session) in [
        ("private", persist_session as fn(&Path) -> Session),
        ("pool", pool_session),
    ] {
        let path: PathBuf = std::env::temp_dir().join(format!(
            "tcc-e2e-hostile-{mode}-{}.tccp",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        // The cells' real fingerprints, from a pool that compiled them.
        let shared = SharedArtifacts::unbounded();
        let mut primer = Session::new(
            MAKE,
            Config {
                shared: Some(Arc::clone(&shared)),
                ..Config::default()
            },
        )
        .expect("compiles");
        assert_eq!(sweep(&mut primer), expected);
        let salt = persist_abi_salt(&primer.image, &CostModel::default());
        drop(primer);

        // One hostile frame per cell, each under a valid CRC.
        let mut store = PersistentStore::open(&path, salt);
        for (k, (name, orig_start, words)) in hostile_bodies().into_iter().enumerate() {
            let fp = shared.sample_fingerprint(k as u64).expect("four resident");
            store.record(
                fp,
                Arc::new(Artifact {
                    name: name.to_string(),
                    orig_start,
                    bytes: (words.len() * 4) as u64,
                    words,
                    compile_ns: 1_000_000,
                    translation: None,
                }),
            );
        }
        store.flush().expect("writer");
        drop(store);

        {
            let mut s = session(&path);
            assert_eq!(s.metrics().persist.entries_loaded, 4, "{mode}");
            assert_eq!(sweep(&mut s), expected, "{mode}: never wrong bytes");
            // And a repeat is a memo hit, not another compile.
            assert_eq!(sweep(&mut s), expected, "{mode}");
            let m = s.metrics();
            assert_eq!(m.dynamic.compiles, 4, "{mode}: one fresh compile per cell");
            assert_eq!(m.persist.corrupt_rejected, 0, "{mode}: the CRCs were fine");
            assert_eq!(m.cache.hits, 4, "{mode}");
            s.flush_persist().expect("writer");
        }

        // Healed: the fresh compiles replaced the hostile frames.
        let mut s = session(&path);
        assert_eq!(sweep(&mut s), expected, "{mode}");
        let m = s.metrics();
        assert_eq!(m.dynamic.compiles, 0, "{mode}");
        assert_eq!(
            (m.persist.disk_hits, m.persist.disk_misses),
            (4, 0),
            "{mode}"
        );
        drop(s);
        let _ = std::fs::remove_file(&path);
    }
}
