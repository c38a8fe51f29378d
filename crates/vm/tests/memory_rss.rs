//! A memory's size is address space: the host backs only the pages a
//! program writes, and gets them back when the memory drops. Alone in its
//! binary so no sibling test moves the reading.
#![cfg(target_os = "linux")]

use tcc_vm::Memory;

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
fn a_gibibyte_memory_costs_the_pages_written_and_gives_them_back() {
    let before = resident_bytes();
    let mut m = Memory::new(1 << 30);
    let mut addr = 16 << 20;
    while addr < m.stack_top() {
        m.store_u8(addr, 1).unwrap();
        addr += 16 << 20;
    }
    m.store_u8(m.stack_top() - 1, 1).unwrap();
    let grown = resident_bytes().saturating_sub(before);
    // 64 bytes written on 64 pages. A zeroed heap block would be 1 GiB
    // resident.
    assert!(
        grown < 4 << 20,
        "a 1 GiB memory with 64 bytes written grew the process by {} KiB",
        grown >> 10
    );
    assert_eq!(m.load_u8(32 << 20).unwrap(), 1);
    let held = resident_bytes();
    drop(m);
    let returned = held.saturating_sub(resident_bytes());
    assert!(
        returned + (64 << 10) >= grown,
        "dropping the memory gave back {} KiB of the {} KiB it grew",
        returned >> 10,
        grown >> 10
    );
}
