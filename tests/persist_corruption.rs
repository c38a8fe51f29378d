//! A store file that rots between two processes: the frames are
//! verified when they are first asked for, not when the file is
//! opened, so the damage must surface there — as one recompile with
//! the right answer, never as wrong bytes — and heal at the next flush.

use std::path::{Path, PathBuf};

use tickc::tickc_core::{Config, Session};

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
