//! Maps keyed by VM address.
//!
//! The CGF walk finds vspec and label objects by their address in this
//! session's own heap. Nothing an outsider chose is hashed, so the hash
//! is one multiply instead of SipHash, and the maps are kept (emptied,
//! not dropped) between compiles.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci hashing of one `u64` address.
#[derive(Default)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the only key type is u64");
    }

    fn write_u64(&mut self, addr: u64) {
        // Objects are 8-aligned: drop the dead bits, then spread.
        self.0 = (addr >> 3).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// VM address → `T`.
pub(crate) type AddrMap<T> = HashMap<u64, T, BuildHasherDefault<AddrHasher>>;
