//! A code space costs the host the words it holds: the word array and
//! the owner index grow in place, so resident memory grows by 8 bytes a
//! word (plus a page at each array's tail), not by a doubled capacity,
//! and dropping the space gives the pages back. Alone in its binary so
//! no sibling test moves the reading.
#![cfg(target_os = "linux")]

use tcc_vm::isa::Insn;
use tcc_vm::CodeSpace;

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
fn a_code_space_costs_eight_bytes_a_word_and_gives_them_back() {
    // Just past a power of two: two doubling vectors would hold 2²²
    // entries each, with the 2²¹ past the tail up for grabs.
    const WORDS: usize = (1 << 21) + (1 << 10);
    let before = resident_bytes();
    let mut cs = CodeSpace::new();
    let f = cs.begin_function("long");
    for _ in 1..WORDS {
        cs.push(Insn::nop());
    }
    cs.push(Insn::ret());
    let addr = cs.finish_function(f).expect("below the budget");
    let grown = resident_bytes().saturating_sub(before);
    let words = 8 * WORDS as u64;
    // A page per array for the tail's, and 64 KiB for the process's
    // own movement while it pushed.
    assert!(
        grown <= words + 2 * 4096 + (64 << 10),
        "{WORDS} words grew the process by {} KiB; 8 B a word is {} KiB",
        grown >> 10,
        words >> 10
    );
    assert!(grown >= words / 2, "the words are resident");
    assert_eq!(cs.fetch_exec(addr).unwrap(), Insn::nop().encode());
    let held = resident_bytes();
    drop(cs);
    let returned = held.saturating_sub(resident_bytes());
    assert!(
        returned + (64 << 10) >= grown,
        "dropping the space gave back {} KiB of the {} KiB it grew",
        returned >> 10,
        grown >> 10
    );
}
