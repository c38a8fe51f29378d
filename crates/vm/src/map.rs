//! Host memory that costs only the pages written: the crate's only
//! `unsafe` code.
//!
//! Two users, each with its own type:
//!
//! * [`Pages`], the data memory's bytes ([`crate::mem`]): one private
//!   anonymous mapping per memory, read-write from the start, so the
//!   kernel backs a page on its first write and the host pays only for
//!   the pages a program touches, however many memories a process has
//!   made and dropped before.
//! * [`Lanes`], the code space's instruction words and its parallel
//!   owner index ([`crate::code`]): two `u32` arrays in one reservation
//!   of address space, mapped `PROT_NONE` on the first push and made
//!   read-write in [`COMMIT_BYTES`] steps as the tail grows. The arrays
//!   grow in place — no copy, no capacity slack that an allocator
//!   recycled already resident — and the reservation's end is the code
//!   space's budget. A private `PROT_NONE` mapping is not charged
//!   against the host's commit limit; the `mprotect` that makes a step
//!   writable is, so under strict overcommit (`vm.overcommit_memory =
//!   2`) a code space is charged for what it committed, not for its
//!   budget. A refused step is a full code space, not an abort.
//!
//! On Linux x86-64, AArch64 and RISC-V 64, whose `mmap` constants are
//! the generic ones, both are mappings. Other targets keep plain heap
//! blocks: a zeroed `Vec<u8>`, and two `Vec<u32>` that stop at the
//! budget.

pub(crate) use imp::{zeroed, Lanes, Pages};

/// How far the code space's word lanes commit at a time: 64 KiB, a whole number of pages
/// at every page size the targets use (4, 16 or 64 KiB), so no page
/// size is asked of the host. Committed but unwritten pages are not
/// resident.
pub const COMMIT_BYTES: usize = 64 << 10;

/// [`COMMIT_BYTES`] in `u32` words.
const COMMIT_WORDS: usize = COMMIT_BYTES / 4;

#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
))]
#[allow(unsafe_code)]
mod imp {
    use super::COMMIT_WORDS;
    use std::ffi::{c_int, c_long, c_void};
    use std::ops::{Deref, DerefMut};
    use std::ptr::NonNull;

    // The generic Linux ABI values, shared by the three architectures
    // this module is built for.
    const PROT_NONE: c_int = 0x0;
    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_NORESERVE: c_int = 0x4000;

    extern "C" {
        // `off_t` is `long` on 64-bit Linux.
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            off: c_long,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A fresh private anonymous mapping of `len` bytes, or `None` when
    /// the kernel refuses it.
    fn map(len: usize, prot: c_int, flags: c_int) -> Option<NonNull<c_void>> {
        // SAFETY: a fresh anonymous mapping at an address the kernel
        // picks aliases nothing; the arguments are plain values.
        let addr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                prot,
                MAP_PRIVATE | MAP_ANONYMOUS | flags,
                -1,
                0,
            )
        };
        // `MAP_FAILED` is `(void *)-1`.
        if addr as usize == usize::MAX {
            None
        } else {
            NonNull::new(addr)
        }
    }

    /// `len` zeroed bytes that the kernel backs page by page on first
    /// write.
    pub(crate) struct Pages {
        ptr: NonNull<u8>,
        len: usize,
    }

    // SAFETY: `Pages` owns its mapping exclusively, like a `Vec<u8>` owns
    // its buffer: shared access is only through `&[u8]`, mutation only
    // through `&mut self`.
    unsafe impl Send for Pages {}
    // SAFETY: as for `Send`; `&Pages` hands out nothing but `&[u8]`.
    unsafe impl Sync for Pages {}

    /// Maps `len` zeroed bytes.
    ///
    /// # Panics
    ///
    /// Panics if the kernel refuses the mapping (`len` of 0, or address
    /// space exhausted), as an allocation failure aborts.
    pub(crate) fn zeroed(len: usize) -> Pages {
        let Some(addr) = map(len, PROT_READ | PROT_WRITE, MAP_NORESERVE) else {
            panic!(
                "mmap of {len} bytes failed: {}",
                std::io::Error::last_os_error()
            );
        };
        Pages {
            ptr: addr.cast(),
            len,
        }
    }

    impl Deref for Pages {
        type Target = [u8];

        #[inline]
        fn deref(&self) -> &[u8] {
            // SAFETY: `ptr..ptr + len` is one mapping, readable and
            // writable until `drop`, zero-initialised by the kernel, no
            // larger than the address space (so under `isize::MAX`), and
            // only mutated through `&mut self`.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl DerefMut for Pages {
        #[inline]
        fn deref_mut(&mut self) -> &mut [u8] {
            // SAFETY: as in `deref`, and `&mut self` is the only access.
            unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Clone for Pages {
        fn clone(&self) -> Pages {
            let mut copy = zeroed(self.len);
            copy.copy_from_slice(self);
            copy
        }
    }

    impl Drop for Pages {
        fn drop(&mut self) {
            // SAFETY: the mapping was made in `zeroed` with this length,
            // and no borrow of it outlives `self`.
            unsafe { munmap(self.ptr.as_ptr().cast(), self.len) };
        }
    }

    impl std::fmt::Debug for Pages {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Pages({} bytes)", self.len)
        }
    }

    /// Two parallel `u32` arrays — a code space's words and its owner
    /// index — of equal length, growing in place up to `limit` entries
    /// each. One reservation of `2 * half` words holds them: the words
    /// at its start, the owners `half` words in, where `half` is `limit`
    /// rounded up to a commit step. `[0, committed)` of each half is
    /// read-write, the rest `PROT_NONE`.
    pub(crate) struct Lanes {
        /// The reservation; dangling while `half` is 0 (nothing mapped
        /// before the first push).
        base: NonNull<u32>,
        len: usize,
        committed: usize,
        half: usize,
        limit: usize,
    }

    // SAFETY: `Lanes` owns its reservation exclusively, like a `Vec`:
    // shared access is only through `&[u32]`, mutation only through
    // `&mut self`.
    unsafe impl Send for Lanes {}
    // SAFETY: as for `Send`; `&Lanes` hands out nothing but `&[u32]`.
    unsafe impl Sync for Lanes {}

    impl Lanes {
        /// Empty lanes that take at most `limit` entries. Maps nothing
        /// until the first push.
        pub(crate) const fn new(limit: usize) -> Lanes {
            Lanes {
                base: NonNull::dangling(),
                len: 0,
                committed: 0,
                half: 0,
                limit,
            }
        }

        /// Entries in each lane.
        #[inline]
        pub(crate) fn len(&self) -> usize {
            self.len
        }

        /// The most entries each lane takes.
        pub(crate) fn limit(&self) -> usize {
            self.limit
        }

        /// Entries of each lane that are writable without another
        /// commit step (the words charged to the host).
        pub(crate) fn committed(&self) -> usize {
            self.committed
        }

        /// Appends `word` and `owner`; `false`, appending nothing, when
        /// the lanes hold `limit` entries or the host refuses the next
        /// commit step.
        #[inline]
        pub(crate) fn push(&mut self, word: u32, owner: u32) -> bool {
            if self.len == self.committed && !(self.len < self.limit && self.commit(self.len + 1)) {
                return false;
            }
            // SAFETY: `len < committed <= half`, so both slots lie in
            // the read-write prefix of their half of the reservation,
            // and `&mut self` is the only access to it.
            unsafe {
                self.base.as_ptr().add(self.len).write(word);
                self.base.as_ptr().add(self.half + self.len).write(owner);
            }
            self.len += 1;
            true
        }

        /// Makes at least `entries` entries of each lane writable,
        /// reserving on first use; `false` when the host refuses.
        #[cold]
        fn commit(&mut self, entries: usize) -> bool {
            debug_assert!(entries <= self.limit);
            if self.half == 0 {
                // A limit past the address space reserves nothing.
                let Some(half) = self.limit.checked_next_multiple_of(COMMIT_WORDS) else {
                    return false;
                };
                let Some(base) = half.checked_mul(8).and_then(|len| map(len, PROT_NONE, 0)) else {
                    return false;
                };
                (self.base, self.half) = (base.cast(), half);
            }
            let to = entries.next_multiple_of(COMMIT_WORDS).min(self.half);
            for lane in [0, self.half] {
                // SAFETY: `[committed, to)` of each half lies inside the
                // reservation (`to <= half`); `committed` and `to` are
                // whole commit steps, so the range is page-aligned, and
                // no reference into the `PROT_NONE` part exists.
                let refused = unsafe {
                    let at = self.base.as_ptr().add(lane + self.committed);
                    mprotect(at.cast(), (to - self.committed) * 4, PROT_READ | PROT_WRITE) != 0
                };
                if refused {
                    // A half made writable stays so; `committed` moves
                    // only once both are.
                    return false;
                }
            }
            // The last step may pass a limit that is not a whole step.
            self.committed = to.min(self.limit);
            true
        }

        /// Shortens both lanes to `len` entries (no-op if longer).
        /// Committed pages stay committed.
        #[inline]
        pub(crate) fn truncate(&mut self, len: usize) {
            self.len = self.len.min(len);
        }

        /// The word lane.
        #[inline]
        pub(crate) fn words(&self) -> &[u32] {
            // SAFETY: `[0, len)` of the first half is committed (or `len`
            // is 0 and `base` dangling but aligned), initialised (zeroed
            // by the kernel, then written), and mutated only through
            // `&mut self`.
            unsafe { std::slice::from_raw_parts(self.base.as_ptr(), self.len) }
        }

        /// The word lane, writable.
        #[inline]
        pub(crate) fn words_mut(&mut self) -> &mut [u32] {
            // SAFETY: as in `words`, and `&mut self` is the only access.
            unsafe { std::slice::from_raw_parts_mut(self.base.as_ptr(), self.len) }
        }

        /// The owner lane.
        #[inline]
        pub(crate) fn owners(&self) -> &[u32] {
            // SAFETY: as in `words`, for the half starting `half` words
            // in (`wrapping_add` of 0 leaves a dangling `base` as it is).
            unsafe {
                std::slice::from_raw_parts(self.base.as_ptr().wrapping_add(self.half), self.len)
            }
        }

        /// The owner lane, writable.
        #[inline]
        pub(crate) fn owners_mut(&mut self) -> &mut [u32] {
            // SAFETY: as in `owners`, and `&mut self` is the only access.
            unsafe {
                std::slice::from_raw_parts_mut(self.base.as_ptr().wrapping_add(self.half), self.len)
            }
        }
    }

    impl Clone for Lanes {
        /// A copy in a reservation of its own, committed to the source's
        /// length.
        ///
        /// # Panics
        ///
        /// Panics if the host refuses the pages, as an allocation
        /// failure aborts.
        fn clone(&self) -> Lanes {
            let mut copy = Lanes::new(self.limit);
            if self.len > 0 {
                assert!(
                    copy.commit(self.len),
                    "mapping {} code words failed: {}",
                    self.len,
                    std::io::Error::last_os_error()
                );
                copy.len = self.len;
                copy.words_mut().copy_from_slice(self.words());
                copy.owners_mut().copy_from_slice(self.owners());
            }
            copy
        }
    }

    impl Drop for Lanes {
        fn drop(&mut self) {
            if self.half > 0 {
                // SAFETY: the reservation was made in `commit` with this
                // length, and no borrow of it outlives `self`.
                unsafe { munmap(self.base.as_ptr().cast(), 2 * self.half * 4) };
            }
        }
    }

    impl std::fmt::Debug for Lanes {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(
                f,
                "Lanes({} of {} words, {} committed)",
                self.len, self.limit, self.committed
            )
        }
    }
}

/// Elsewhere, heap blocks.
#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
)))]
mod imp {
    pub(crate) type Pages = Vec<u8>;

    pub(crate) fn zeroed(len: usize) -> Pages {
        vec![0; len]
    }

    /// The mapped `Lanes`' contract on two vectors that stop at `limit`.
    #[derive(Clone, Debug)]
    pub(crate) struct Lanes {
        words: Vec<u32>,
        owners: Vec<u32>,
        limit: usize,
    }

    impl Lanes {
        pub(crate) const fn new(limit: usize) -> Lanes {
            Lanes {
                words: Vec::new(),
                owners: Vec::new(),
                limit,
            }
        }

        pub(crate) fn len(&self) -> usize {
            self.words.len()
        }

        pub(crate) fn limit(&self) -> usize {
            self.limit
        }

        pub(crate) fn committed(&self) -> usize {
            self.words.capacity()
        }

        pub(crate) fn push(&mut self, word: u32, owner: u32) -> bool {
            if self.words.len() == self.limit {
                return false;
            }
            self.words.push(word);
            self.owners.push(owner);
            true
        }

        pub(crate) fn truncate(&mut self, len: usize) {
            self.words.truncate(len);
            self.owners.truncate(len);
        }

        pub(crate) fn words(&self) -> &[u32] {
            &self.words
        }

        pub(crate) fn words_mut(&mut self) -> &mut [u32] {
            &mut self.words
        }

        pub(crate) fn owners(&self) -> &[u32] {
            &self.owners
        }

        pub(crate) fn owners_mut(&mut self) -> &mut [u32] {
            &mut self.owners
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_grow_in_place_to_their_limit_and_no_further() {
        let limit = 3 * COMMIT_WORDS + 5;
        let mut l = Lanes::new(limit);
        assert_eq!((l.len(), l.committed()), (0, 0), "nothing mapped yet");
        assert!(l.words().is_empty() && l.owners().is_empty());
        for i in 0..limit as u32 {
            assert!(l.push(i, !i), "entry {i}");
        }
        assert!(!l.push(0, 0), "past the limit");
        assert_eq!(l.len(), limit);
        assert!(l.committed() >= limit);
        let base = l.words().as_ptr();
        assert!(l.words().iter().enumerate().all(|(i, &w)| w == i as u32));
        assert!(l
            .owners()
            .iter()
            .enumerate()
            .all(|(i, &o)| o == !(i as u32)));
        l.truncate(7);
        assert!(l.push(70, 71));
        assert_eq!(l.words().as_ptr(), base, "no move");
        assert_eq!((l.words()[7], l.owners()[7], l.len()), (70, 71, 8));
    }

    #[test]
    fn lanes_commit_in_steps_and_a_clone_is_independent() {
        let mut l = Lanes::new(1 << 20);
        assert!(l.push(1, 2));
        assert!(l.committed() >= 1);
        for _ in 0..COMMIT_WORDS {
            assert!(l.push(3, 4));
        }
        let mut c = l.clone();
        assert_eq!((c.words(), c.owners()), (l.words(), l.owners()));
        assert_eq!(c.limit(), l.limit());
        c.words_mut()[0] = 9;
        c.owners_mut()[0] = 9;
        assert!(c.push(5, 6));
        assert_eq!(
            (l.words()[0], l.owners()[0], l.len()),
            (1, 2, COMMIT_WORDS + 1)
        );
        let empty = Lanes::new(4).clone();
        assert_eq!((empty.len(), empty.committed()), (0, 0));
    }

    #[test]
    fn a_zero_limit_takes_nothing() {
        let mut l = Lanes::new(0);
        assert!(!l.push(1, 1));
        assert_eq!(l.len(), 0);
    }
}
