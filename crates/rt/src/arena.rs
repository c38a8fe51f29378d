//! Spec-time memory: one growable arena inside VM data memory.
//!
//! Closures, vspecs, label objects and argument lists are created at
//! *specification time*, on the critical path of dynamic code
//! generation; the paper (§4.2) notes that their "allocation cost is
//! greatly reduced (down to a pointer increment, in the normal case) by
//! using arenas". [`VmArena`] is that allocator: a list of chunks taken
//! from [`Memory::alloc`] on demand and kept for reuse, a bump cursor
//! over them, and [`VmArena::mark`] / [`VmArena::release`] to free
//! everything allocated since a mark in bulk. The session releases to a
//! mark taken before each top-level call (DESIGN, "Spec-time memory").
//!
//! Debug builds fill released bytes with `0xa5`, so a stale read of
//! a released closure finds a CGF id no program has and an address no
//! memory maps, and fails with a typed error instead of reading
//! whatever the next call put there.

use tcc_vm::{Memory, VmError};

/// Bytes in a chunk, unless one request needs more.
const CHUNK: u64 = 1 << 16;

/// What debug builds fill released bytes with. As a word it is neither
/// a CGF id, a label or argument-list marker, a vspec tag nor a mapped
/// address.
const POISON: u8 = 0xa5;

/// A position in a [`VmArena`] to release back to.
#[derive(Clone, Copy, Debug)]
pub struct ArenaMark {
    chunk: usize,
    offset: u64,
    filled: u64,
}

/// A bump allocator over a list of chunks of VM memory.
///
/// A new arena holds no memory: the first allocation reserves the first
/// chunk.
#[derive(Debug, Default)]
pub struct VmArena {
    /// `(base, size)` of every chunk reserved, in reservation order.
    chunks: Vec<(u64, u64)>,
    /// The chunk the cursor is in.
    cur: usize,
    /// The cursor's offset into `chunks[cur]`.
    offset: u64,
    /// Bytes of the chunks before `cur`, their unused tails included.
    filled: u64,
    /// The largest `filled + offset` ever reached.
    high_water: u64,
}

impl VmArena {
    /// Allocates `size` bytes, 8-byte aligned, by bumping the cursor;
    /// moves on to the next kept chunk, or reserves a new one, when the
    /// current chunk is full. The bytes are not zeroed: released memory
    /// is handed out again as it was left (or poisoned).
    ///
    /// # Errors
    ///
    /// [`VmError::BadAddress`] when `size` overflows or a new chunk does
    /// not fit in `mem`.
    pub fn alloc(&mut self, mem: &mut Memory, size: u64) -> Result<u64, VmError> {
        let size = size
            .checked_next_multiple_of(8)
            .ok_or(VmError::BadAddress(u64::MAX))?;
        loop {
            match self.chunks.get(self.cur) {
                Some(&(base, len)) if len - self.offset >= size => {
                    let addr = base + self.offset;
                    self.offset += size;
                    self.high_water = self.high_water.max(self.filled + self.offset);
                    return Ok(addr);
                }
                Some(&(_, len)) if self.cur + 1 < self.chunks.len() => {
                    self.filled += len;
                    self.cur += 1;
                    self.offset = 0;
                }
                _ => {
                    let len = size.max(CHUNK);
                    let base = mem.alloc(len, 16)?;
                    if let Some(&(_, last)) = self.chunks.last() {
                        self.filled += last;
                        self.cur += 1;
                    }
                    self.chunks.push((base, len));
                    self.offset = 0;
                }
            }
        }
    }

    /// The current position, for a later [`VmArena::release`].
    pub fn mark(&self) -> ArenaMark {
        ArenaMark {
            chunk: self.cur,
            offset: self.offset,
            filled: self.filled,
        }
    }

    /// Frees everything allocated since `mark` (taken from this arena),
    /// keeping the chunks. Debug builds poison the freed bytes.
    pub fn release(&mut self, mem: &mut Memory, mark: ArenaMark) {
        if cfg!(debug_assertions) {
            for i in mark.chunk..self.chunks.len().min(self.cur + 1) {
                let (base, len) = self.chunks[i];
                let from = if i == mark.chunk { mark.offset } else { 0 };
                let to = if i == self.cur { self.offset } else { len };
                mem.fill(base + from, to - from, POISON)
                    .expect("arena chunks lie inside the memory they came from");
            }
        }
        self.cur = mark.chunk;
        self.offset = mark.offset;
        self.filled = mark.filled;
    }

    /// The arena's largest footprint: the most bytes from its start to
    /// its cursor ever, the unused tails of chunks it moved past included.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl VmArena {
        fn footprint(&self) -> u64 {
            self.filled + self.offset
        }

        fn reserved(&self) -> u64 {
            self.chunks.iter().map(|&(_, len)| len).sum()
        }
    }

    #[test]
    fn bump_allocations_are_aligned_and_disjoint() {
        let mut mem = Memory::new(1 << 20);
        let mut a = VmArena::default();
        assert_eq!(a.reserved(), 0, "a new arena holds no memory");
        let x = a.alloc(&mut mem, 12).unwrap();
        let y = a.alloc(&mut mem, 24).unwrap();
        assert_eq!(x % 8, 0);
        assert_eq!(y, x + 16);
        assert_eq!(a.footprint(), 40);
        assert_eq!(a.reserved(), CHUNK);
    }

    #[test]
    fn release_recycles_space() {
        let mut mem = Memory::new(1 << 20);
        let mut a = VmArena::default();
        let m = a.mark();
        let x = a.alloc(&mut mem, 32).unwrap();
        a.release(&mut mem, m);
        let brk = mem.brk();
        let y = a.alloc(&mut mem, 32).unwrap();
        assert_eq!(x, y);
        assert_eq!(mem.brk(), brk, "the kept chunk serves it");
        assert_eq!(a.footprint(), 32);
    }

    #[test]
    fn grows_past_one_chunk_within_one_mark_and_reuses_every_chunk() {
        let mut mem = Memory::new(1 << 22);
        let mut a = VmArena::default();
        let m = a.mark();
        let first: Vec<u64> = (0..3000).map(|_| a.alloc(&mut mem, 56).unwrap()).collect();
        assert_eq!(a.reserved(), 3 * CHUNK, "168,000 bytes take three chunks");
        assert_eq!(a.high_water(), a.footprint());
        let mut sorted = first.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), first.len(), "allocations are disjoint");
        // A request larger than a chunk gets a chunk of its own.
        let big = a.alloc(&mut mem, CHUNK + 8).unwrap();
        assert_eq!(a.reserved(), 4 * CHUNK + 8);
        let brk = mem.brk();
        a.release(&mut mem, m);
        let again: Vec<u64> = (0..3000).map(|_| a.alloc(&mut mem, 56).unwrap()).collect();
        assert_eq!(again, first, "the same chunks, in the same order");
        assert_eq!(a.alloc(&mut mem, CHUNK + 8).unwrap(), big);
        assert_eq!(mem.brk(), brk, "nothing reserved twice");
    }

    #[test]
    fn release_to_a_mark_in_the_middle_of_a_chunk_keeps_what_came_before() {
        let mut mem = Memory::new(1 << 20);
        let mut a = VmArena::default();
        let kept = a.alloc(&mut mem, 24).unwrap();
        mem.store_u64(kept, 7).unwrap();
        let m = a.mark();
        let gone = a.alloc(&mut mem, 24).unwrap();
        mem.store_u64(gone, 9).unwrap();
        let high = a.high_water();
        a.release(&mut mem, m);
        assert_eq!(mem.load_u64(kept).unwrap(), 7);
        assert_eq!(a.footprint(), 24);
        assert_eq!(a.high_water(), high, "the high-water mark stays");
        assert_eq!(a.alloc(&mut mem, 8).unwrap(), gone);
    }

    #[test]
    fn released_bytes_are_poisoned_in_debug_builds() {
        let mut mem = Memory::new(1 << 20);
        let mut a = VmArena::default();
        let m = a.mark();
        let x = a.alloc(&mut mem, 16).unwrap();
        // Move into a second chunk, so both a chunk's tail and a whole
        // used chunk are released.
        let y = a.alloc(&mut mem, CHUNK).unwrap();
        mem.store_u64(x, 1).unwrap();
        mem.store_u64(y + CHUNK - 8, 2).unwrap();
        a.release(&mut mem, m);
        let poisoned = u64::from_le_bytes([POISON; 8]);
        let (want_x, want_y) = if cfg!(debug_assertions) {
            (poisoned, poisoned)
        } else {
            (1, 2)
        };
        assert_eq!(mem.load_u64(x).unwrap(), want_x);
        assert_eq!(mem.load_u64(y + CHUNK - 8).unwrap(), want_y);
        assert!(
            mem.load_u64(poisoned).is_err(),
            "a poisoned pointer is no address"
        );
    }

    #[test]
    fn an_overflowing_request_is_a_typed_error() {
        let mut mem = Memory::new(1 << 20);
        let mut a = VmArena::default();
        assert_eq!(
            a.alloc(&mut mem, u64::MAX),
            Err(VmError::BadAddress(u64::MAX))
        );
        assert!(a.alloc(&mut mem, u64::MAX - 7).is_err());
        assert!(a.alloc(&mut mem, 1 << 21).is_err(), "larger than memory");
        assert_eq!(a.reserved(), 0);
        assert!(a.alloc(&mut mem, 8).is_ok(), "and the arena still works");
    }
}
