//! Flat byte-addressed data memory.
//!
//! Layout: addresses below [`Memory::FIRST_VALID`] are a null guard page;
//! static data and the heap grow upward from there; the stack starts at the
//! top and grows downward. Code lives in a separate space (addresses with
//! bit 31 set, see [`crate::code`]), so a data access to a code address
//! faults — and vice versa.
//!
//! The size is address space, not resident memory. On Linux (x86-64,
//! AArch64, RISC-V 64) the bytes are one private anonymous mapping per
//! memory: the kernel backs a page on its first write, so the host pays
//! only for the pages a program touches, however many memories a process
//! has made and dropped before. A zeroed heap block would not promise
//! that: once a block of a memory's size has been freed, glibc raises its
//! mmap threshold past that size (up to 32 MiB) and serves the next
//! `vec![0; size]` from freed heap chunks, which `calloc` zeroes byte by
//! byte. Other targets keep the heap block.

use crate::error::VmError;

use pages::Pages;

/// The machine's data memory plus a bump allocator for static data,
/// closures and `malloc`-style host calls.
#[derive(Clone, Debug)]
pub struct Memory {
    bytes: Pages,
    brk: u64,
}

impl Memory {
    /// Lowest valid data address (everything below is a null guard).
    pub const FIRST_VALID: u64 = 0x1000;

    /// Creates a memory of `size` bytes. The initial stack pointer is
    /// [`Memory::stack_top`]; the heap break starts at
    /// [`Memory::FIRST_VALID`].
    ///
    /// # Panics
    ///
    /// Panics if `size` is smaller than 64 KiB or not 16-byte aligned, or
    /// would collide with the code space (bit 31).
    pub fn new(size: usize) -> Memory {
        assert!(size >= 1 << 16, "memory too small");
        assert_eq!(size % 16, 0, "memory size must be 16-byte aligned");
        assert!((size as u64) < (1 << 31), "memory would overlap code space");
        Memory {
            bytes: pages::zeroed(size),
            brk: Memory::FIRST_VALID,
        }
    }

    /// Size of the memory in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// The initial stack pointer (one past the highest valid address,
    /// 16-byte aligned).
    pub fn stack_top(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Current heap break (next address the allocator would hand out).
    pub fn brk(&self) -> u64 {
        self.brk
    }

    /// Bump-allocates `size` bytes with the given power-of-two `align`,
    /// zero-filled. Used for globals, string literals, closures and the
    /// `C run-time `malloc` host call.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::BadAddress`] when the heap would run into the
    /// stack red zone: the top 1 MiB, or a quarter of a smaller memory.
    /// The reserve is fixed by the memory's size; nothing tracks how deep
    /// the stack has actually gone.
    pub fn alloc(&mut self, size: u64, align: u64) -> Result<u64, VmError> {
        debug_assert!(align.is_power_of_two());
        let base = (self.brk + align - 1) & !(align - 1);
        let end = base
            .checked_add(size)
            .ok_or(VmError::BadAddress(u64::MAX))?;
        let top = self.stack_top();
        let red_zone = top - (top / 4).min(1 << 20);
        if end > red_zone {
            return Err(VmError::BadAddress(end));
        }
        self.brk = end;
        Ok(base)
    }

    #[inline]
    fn check(&self, addr: u64, len: u64) -> Result<usize, VmError> {
        if addr < Memory::FIRST_VALID
            || addr
                .checked_add(len)
                .is_none_or(|e| e > self.bytes.len() as u64)
        {
            return Err(VmError::BadAddress(addr));
        }
        if !addr.is_multiple_of(len) {
            return Err(VmError::Misaligned(addr));
        }
        Ok(addr as usize)
    }

    /// Loads an unsigned byte.
    ///
    /// # Errors
    ///
    /// Faults ([`VmError::BadAddress`]) outside the mapped range.
    #[inline]
    pub fn load_u8(&self, addr: u64) -> Result<u8, VmError> {
        let a = self.check(addr, 1)?;
        Ok(self.bytes[a])
    }

    /// Loads an unsigned 16-bit halfword.
    ///
    /// # Errors
    ///
    /// Faults on out-of-range or misaligned addresses.
    #[inline]
    pub fn load_u16(&self, addr: u64) -> Result<u16, VmError> {
        let a = self.check(addr, 2)?;
        Ok(u16::from_le_bytes(self.bytes[a..a + 2].try_into().unwrap()))
    }

    /// Loads an unsigned 32-bit word.
    ///
    /// # Errors
    ///
    /// Faults on out-of-range or misaligned addresses.
    #[inline]
    pub fn load_u32(&self, addr: u64) -> Result<u32, VmError> {
        let a = self.check(addr, 4)?;
        Ok(u32::from_le_bytes(self.bytes[a..a + 4].try_into().unwrap()))
    }

    /// Loads a 64-bit doubleword.
    ///
    /// # Errors
    ///
    /// Faults on out-of-range or misaligned addresses.
    #[inline]
    pub fn load_u64(&self, addr: u64) -> Result<u64, VmError> {
        let a = self.check(addr, 8)?;
        Ok(u64::from_le_bytes(self.bytes[a..a + 8].try_into().unwrap()))
    }

    /// Loads an `f64`.
    ///
    /// # Errors
    ///
    /// Faults on out-of-range or misaligned addresses.
    #[inline]
    pub fn load_f64(&self, addr: u64) -> Result<f64, VmError> {
        Ok(f64::from_bits(self.load_u64(addr)?))
    }

    /// Stores a byte.
    ///
    /// # Errors
    ///
    /// Faults outside the mapped range.
    #[inline]
    pub fn store_u8(&mut self, addr: u64, v: u8) -> Result<(), VmError> {
        let a = self.check(addr, 1)?;
        self.bytes[a] = v;
        Ok(())
    }

    /// Stores a 16-bit halfword.
    ///
    /// # Errors
    ///
    /// Faults on out-of-range or misaligned addresses.
    #[inline]
    pub fn store_u16(&mut self, addr: u64, v: u16) -> Result<(), VmError> {
        let a = self.check(addr, 2)?;
        self.bytes[a..a + 2].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Stores a 32-bit word.
    ///
    /// # Errors
    ///
    /// Faults on out-of-range or misaligned addresses.
    #[inline]
    pub fn store_u32(&mut self, addr: u64, v: u32) -> Result<(), VmError> {
        let a = self.check(addr, 4)?;
        self.bytes[a..a + 4].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Stores a 64-bit doubleword.
    ///
    /// # Errors
    ///
    /// Faults on out-of-range or misaligned addresses.
    #[inline]
    pub fn store_u64(&mut self, addr: u64, v: u64) -> Result<(), VmError> {
        let a = self.check(addr, 8)?;
        self.bytes[a..a + 8].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Stores an `f64`.
    ///
    /// # Errors
    ///
    /// Faults on out-of-range or misaligned addresses.
    #[inline]
    pub fn store_f64(&mut self, addr: u64, v: f64) -> Result<(), VmError> {
        self.store_u64(addr, v.to_bits())
    }

    /// Copies `bytes` into memory starting at `addr` (host-side helper for
    /// loaders and workload setup).
    ///
    /// # Errors
    ///
    /// Faults if the destination range is not mapped.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), VmError> {
        if addr < Memory::FIRST_VALID || addr as usize + bytes.len() > self.bytes.len() {
            return Err(VmError::BadAddress(addr));
        }
        let a = addr as usize;
        self.bytes[a..a + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Sets `len` bytes starting at `addr` to `byte` (host-side helper;
    /// allocates nothing on the host).
    ///
    /// # Errors
    ///
    /// Faults if the destination range is not mapped.
    pub fn fill(&mut self, addr: u64, len: u64, byte: u8) -> Result<(), VmError> {
        if addr < Memory::FIRST_VALID
            || addr
                .checked_add(len)
                .is_none_or(|e| e > self.bytes.len() as u64)
        {
            return Err(VmError::BadAddress(addr));
        }
        self.bytes[addr as usize..(addr + len) as usize].fill(byte);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr` (host-side helper).
    ///
    /// # Errors
    ///
    /// Faults if the source range is not mapped.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<&[u8], VmError> {
        if addr < Memory::FIRST_VALID || addr as usize + len > self.bytes.len() {
            return Err(VmError::BadAddress(addr));
        }
        Ok(&self.bytes[addr as usize..addr as usize + len])
    }

    /// Reads a NUL-terminated string starting at `addr` (host-side helper
    /// for `printf`-style host calls).
    ///
    /// # Errors
    ///
    /// Faults if the string runs off the end of memory.
    pub fn read_cstr(&self, addr: u64) -> Result<String, VmError> {
        let mut out = Vec::new();
        let mut a = addr;
        loop {
            let b = self.load_u8(a)?;
            if b == 0 {
                break;
            }
            out.push(b);
            a += 1;
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }
}

/// `Memory`'s bytes on Linux: one private anonymous mapping, unmapped on
/// drop. This module is the crate's only `unsafe` code.
#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
))]
#[allow(unsafe_code)]
mod pages {
    use std::ffi::{c_int, c_long, c_void};
    use std::ops::{Deref, DerefMut};
    use std::ptr::NonNull;

    // The generic Linux ABI values, shared by the three architectures
    // this module is built for.
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
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// `len` zeroed bytes that the kernel backs page by page on first
    /// write.
    pub(super) struct Pages {
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
    pub(super) fn zeroed(len: usize) -> Pages {
        // SAFETY: a fresh anonymous mapping at an address the kernel
        // picks aliases nothing; the arguments are plain values.
        let addr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        // `MAP_FAILED` is `(void *)-1`.
        assert!(
            addr as usize != usize::MAX,
            "mmap of {len} bytes failed: {}",
            std::io::Error::last_os_error()
        );
        Pages {
            ptr: NonNull::new(addr.cast()).expect("mmap returned null"),
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
}

/// Elsewhere the bytes are a zeroed heap block.
#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
)))]
mod pages {
    pub(super) type Pages = Vec<u8>;

    pub(super) fn zeroed(len: usize) -> Pages {
        vec![0; len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Sessions move into serve workers and share images across threads.
    const _: () = {
        const fn send_sync<T: Send + Sync>() {}
        send_sync::<Memory>();
    };

    #[test]
    fn a_memory_is_a_base_a_length_and_a_break() {
        // `MachineState` keeps all three and its counters in one cache
        // line (`interp.rs::the_hot_state_layout_is_pinned`).
        assert_eq!(std::mem::align_of::<Memory>(), 8);
        #[cfg(all(
            target_os = "linux",
            any(
                target_arch = "x86_64",
                target_arch = "aarch64",
                target_arch = "riscv64"
            )
        ))]
        assert_eq!(std::mem::size_of::<Memory>(), 24);
        assert!(std::mem::size_of::<Memory>() <= 32);
    }

    #[test]
    fn first_valid_byte_and_the_one_below_stack_top_round_trip() {
        let mut m = Memory::new(1 << 21);
        let (low, high) = (Memory::FIRST_VALID, m.stack_top() - 1);
        assert_eq!((m.load_u8(low).unwrap(), m.load_u8(high).unwrap()), (0, 0));
        m.store_u8(low, 0x5a).unwrap();
        m.store_u8(high, 0xc3).unwrap();
        assert_eq!(m.load_u8(low).unwrap(), 0x5a);
        assert_eq!(m.load_u8(high).unwrap(), 0xc3);
        m.store_u64(m.stack_top() - 8, u64::MAX).unwrap();
        assert_eq!(m.load_u64(m.stack_top() - 8).unwrap(), u64::MAX);
    }

    #[test]
    fn a_clone_equals_its_source_and_is_independent() {
        let mut m = Memory::new(1 << 20);
        let a = m.alloc(4 << 12, 8).unwrap();
        // Non-zero bytes on some pages, none on others, one at a page's
        // last byte and one on the stack page.
        m.store_u64(a, 0x0123_4567_89ab_cdef).unwrap();
        m.store_u8(a + 3 * 4096 - 1, 7).unwrap();
        m.store_u8(m.stack_top() - 1, 9).unwrap();
        let mut c = m.clone();
        assert_eq!(c.brk(), m.brk());
        let size = m.size() - Memory::FIRST_VALID as usize;
        let whole = |x: &Memory| x.read_bytes(Memory::FIRST_VALID, size).unwrap().to_vec();
        assert!(whole(&c) == whole(&m), "clone differs from its source");
        c.store_u8(a, 1).unwrap();
        c.alloc(8, 8).unwrap();
        assert_eq!(m.load_u64(a).unwrap(), 0x0123_4567_89ab_cdef);
        assert_ne!(c.brk(), m.brk());
    }

    #[test]
    fn round_trip_all_widths() {
        let mut m = Memory::new(1 << 16);
        let a = m.alloc(64, 8).unwrap();
        m.store_u8(a, 0xab).unwrap();
        assert_eq!(m.load_u8(a).unwrap(), 0xab);
        m.store_u16(a + 2, 0xbeef).unwrap();
        assert_eq!(m.load_u16(a + 2).unwrap(), 0xbeef);
        m.store_u32(a + 4, 0xdead_beef).unwrap();
        assert_eq!(m.load_u32(a + 4).unwrap(), 0xdead_beef);
        m.store_u64(a + 8, u64::MAX - 3).unwrap();
        assert_eq!(m.load_u64(a + 8).unwrap(), u64::MAX - 3);
        m.store_f64(a + 16, -1.5).unwrap();
        assert_eq!(m.load_f64(a + 16).unwrap(), -1.5);
    }

    #[test]
    fn null_page_faults() {
        let m = Memory::new(1 << 16);
        assert_eq!(m.load_u32(0), Err(VmError::BadAddress(0)));
        assert_eq!(m.load_u32(0xffc), Err(VmError::BadAddress(0xffc)));
        assert!(m.load_u32(0x1000).is_ok());
    }

    #[test]
    fn misaligned_access_faults() {
        let m = Memory::new(1 << 16);
        assert_eq!(m.load_u32(0x1002), Err(VmError::Misaligned(0x1002)));
        assert_eq!(m.load_u64(0x1004), Err(VmError::Misaligned(0x1004)));
        assert!(m.load_u8(0x1003).is_ok());
    }

    #[test]
    fn out_of_bounds_faults() {
        let m = Memory::new(1 << 16);
        let top = m.stack_top();
        assert_eq!(m.load_u8(top), Err(VmError::BadAddress(top)));
        assert_eq!(m.load_u64(top - 4), Err(VmError::BadAddress(top - 4)));
    }

    #[test]
    fn alloc_respects_alignment_and_zero_fills() {
        let mut m = Memory::new(1 << 16);
        m.alloc(3, 1).unwrap();
        let a = m.alloc(16, 16).unwrap();
        assert_eq!(a % 16, 0);
        assert_eq!(m.load_u64(a).unwrap(), 0);
    }

    #[test]
    fn alloc_refuses_to_hit_stack_red_zone() {
        let mut m = Memory::new(1 << 21); // 2 MiB: top 512 KiB reserved
        assert!(m.alloc((1 << 21) - (1 << 19), 8).is_err());
        assert!(m.alloc(1 << 20, 8).is_ok());
    }

    #[test]
    fn cstr_round_trip() {
        let mut m = Memory::new(1 << 16);
        let a = m.alloc(16, 1).unwrap();
        m.write_bytes(a, b"hello\0").unwrap();
        assert_eq!(m.read_cstr(a).unwrap(), "hello");
    }
}
