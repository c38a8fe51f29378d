//! A session holds one data memory, and pays the host only for the
//! pages its program touches: `Config::mem_size` is address space.
//! Alone in its binary so no sibling test moves the reading.
#![cfg(target_os = "linux")]

use tcc::Session;

const SRC: &str = r#"
int make(int n) {
    int cspec c = `($n * 3 + 4);
    int (*f)(void) = compile(c, int);
    return (*f)();
}
"#;

/// Resident set size in bytes, from `/proc/self/statm`'s second field
/// (pages; 4 KiB on every Linux this runs on).
fn resident_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("procfs");
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm resident field");
    pages * 4096
}

#[test]
fn eight_default_sessions_stay_under_one_default_memory() {
    let before = resident_bytes();
    let mut sessions: Vec<Session> = (0..8)
        .map(|_| Session::with_defaults(SRC).expect("compiles"))
        .collect();
    for (n, s) in sessions.iter_mut().enumerate() {
        assert_eq!(s.call("make", &[n as u64]).unwrap(), n as u64 * 3 + 4);
    }
    let grown = resident_bytes().saturating_sub(before);
    // 8 x 64 MiB of address space. A session that copied its image's
    // memory would have written all of it: 512 MiB resident.
    assert!(
        grown < 64 << 20,
        "8 live default sessions grew the process by {} KiB",
        grown >> 10
    );
}
