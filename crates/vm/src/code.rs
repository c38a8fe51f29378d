//! The code space: where generated binary code lives.
//!
//! Code addresses are distinguished from data addresses by bit 31
//! ([`CODE_BASE`]), mirroring a separate text segment. All emitters
//! (static back ends, VCODE, ICODE) append encoded instruction words here
//! and hand out callable function addresses.
//!
//! Beyond the grow-only arena of the original system, the space manages
//! the full *lifecycle* of dynamic code (the substrate of the `tcc-cache`
//! subsystem):
//!
//! * every function is `Building` → `Sealed` → (optionally) freed;
//!   sealing twice, taking the address of an unsealed or freed function,
//!   and freeing an unsealed function are [`VmError::CodeLifecycle`]
//!   faults instead of silent stale-pointer sources;
//! * a [`FuncHandle`] names a registry slot and the slot's generation.
//!   Freeing a function (or abandoning an install) releases its slot
//!   under the next generation, and a later
//!   [`CodeSpace::begin_function`] reuses it, so the registry holds no
//!   more slots than functions were ever alive at once. Every method
//!   that takes a handle refuses one whose generation is not its
//!   slot's with [`VmError::CodeLifecycle`], and never acts on the
//!   slot's new occupant;
//! * [`CodeSpace::free_function`] returns a sealed function's words to a
//!   sorted, coalescing free list; a later [`CodeSpace::finish_function`]
//!   relocates the just-emitted function into the first fitting hole
//!   (branches are PC-relative, so only `j`/`jal` words that target
//!   other functions need their displacement adjusted);
//! * executing a word that is not part of a live sealed function — a
//!   freed range or a function still being emitted — faults with
//!   [`VmError::StaleCode`] rather than running whatever bytes occupy
//!   the range;
//! * [`CodeSpace::stats`] reports live/free/reclaimed words and a
//!   fragmentation ratio, which the cache layer mirrors into
//!   `SessionMetrics`.
//!
//! # Versions
//!
//! [`CodeSpace::live_epoch`] says *that* previously-live code stopped
//! meaning what it did; each slot's version says *which*. A slot's
//! version is its generation plus a count of live patches to its
//! function, so freeing a function or patching one of its sealed words
//! changes exactly that slot's version. A consumer caching decoded
//! forms of live code (the translation cache, which keeps one record
//! per slot) stamps each record with the version it was built from and,
//! when the epoch moves, drops the records whose slot version changed.
//! A patch leaves the handle valid: the function is still the one
//! `tcc-cache` holds, only its words moved on.
//!
//! # The owner index
//!
//! One array parallel to the words answers "which live function covers
//! word `w`": the handle index of the live sealed function there, or
//! none — written at seal, cleared at free, none while a function is
//! still being emitted. Every address → live function query
//! ([`CodeSpace::fetch_exec`]'s liveness check, [`CodeSpace::patch`],
//! [`CodeSpace::live_range_containing`], [`CodeSpace::function_at`],
//! [`CodeSpace::disassemble_at`], and the VM's translation cache, which
//! goes word → handle → tier record) is one load of it.

use crate::error::VmError;
use crate::isa::{Insn, Op};

/// Base address of the code space; all code addresses have this bit set.
pub const CODE_BASE: u64 = 0x8000_0000;

/// Signed 24-bit jump displacement range (word offsets), the reach of a
/// relocated `j`/`jal`.
const IMM24_MIN: i64 = -(1 << 23);
const IMM24_MAX: i64 = (1 << 23) - 1;

/// Handle to a function, returned by [`CodeSpace::begin_function`]: its
/// registry slot and the slot's generation when the function was begun.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuncHandle {
    slot: u32,
    gen: u32,
}

impl FuncHandle {
    /// The function's registry slot: dense from 0, reused once the
    /// function is freed (what per-function side tables are indexed by).
    #[inline]
    pub(crate) fn slot(self) -> usize {
        self.slot as usize
    }
}

/// [`CodeSpace::owner`]'s entry for a word no live function covers.
const NO_OWNER: u32 = u32::MAX;

/// One registry slot: the function that holds it now. A released slot
/// keeps its last occupant's fields until reused, but its generation has
/// moved past every handle to it.
#[derive(Clone, Debug)]
struct FuncInfo {
    name: String,
    start_word: usize,
    end_word: usize,
    /// Between `begin_function` and `finish_function` this is `false`.
    sealed: bool,
    /// The generation a current handle to this slot carries. Starts at
    /// 1, so a version is never 0.
    gen: u32,
    /// Live patches to the occupant's sealed words (wrapping).
    patches: u32,
}

/// Occupancy accounting for a [`CodeSpace`] (the raw material of the
/// cache layer's fragmentation and reclamation metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CodeStats {
    /// Total words ever emitted (the arena's high-water mark).
    pub total_words: usize,
    /// Words inside live (sealed, not freed) functions.
    pub live_words: usize,
    /// Words currently sitting in the free list.
    pub free_words: usize,
    /// Cumulative words ever freed (monotonic; reuse does not subtract).
    pub reclaimed_words: usize,
    /// Largest single free-list range, in words.
    pub largest_free: usize,
}

impl CodeStats {
    /// Free-space fragmentation: `1 - largest_free / free_words`
    /// (0.0 when the free list is empty or a single range).
    pub fn fragmentation(&self) -> f64 {
        if self.free_words == 0 {
            0.0
        } else {
            1.0 - self.largest_free as f64 / self.free_words as f64
        }
    }
}

/// A growable region of encoded instruction words plus a registry of the
/// functions inside it.
#[derive(Clone, Debug, Default)]
pub struct CodeSpace {
    words: Vec<u32>,
    /// Parallel to `words`: the slot in `funcs` of the live sealed
    /// function covering the word, or [`NO_OWNER`]. The one index behind
    /// every address → live function query, checked on every executed
    /// fetch ([`CodeSpace::fetch_exec`]).
    owner: Vec<u32>,
    funcs: Vec<FuncInfo>,
    /// Released slots of `funcs`, reused last-in first-out.
    free_slots: Vec<u32>,
    /// Sorted, coalesced `(start_word, len)` ranges available for reuse.
    free: Vec<(usize, usize)>,
    live_words: usize,
    reclaimed_words: usize,
    /// Bumped whenever previously-live code stops meaning what it did:
    /// a function is freed, or a live word is patched. Consumers that
    /// cache decoded forms of live code (the predecoded execution
    /// engine) revalidate against this before trusting their caches.
    live_epoch: u64,
}

impl CodeSpace {
    /// Creates an empty code space.
    pub fn new() -> CodeSpace {
        CodeSpace::default()
    }

    /// Starts a new function named `name` (for disassembly and
    /// diagnostics) and returns its handle, in a released slot when
    /// there is one. Instructions pushed until the matching
    /// [`CodeSpace::finish_function`] belong to it.
    pub fn begin_function(&mut self, name: &str) -> FuncHandle {
        let start_word = self.words.len();
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                let info = &mut self.funcs[slot as usize];
                info.name.clear();
                info.name.push_str(name);
                (info.start_word, info.end_word) = (start_word, usize::MAX);
                (info.sealed, info.patches) = (false, 0);
                slot
            }
            None => {
                self.funcs.push(FuncInfo {
                    name: name.to_string(),
                    start_word,
                    end_word: usize::MAX,
                    sealed: false,
                    gen: 1,
                    patches: 0,
                });
                u32::try_from(self.funcs.len() - 1).expect("fewer than 2^32 functions")
            }
        };
        FuncHandle {
            slot,
            gen: self.funcs[slot as usize].gen,
        }
    }

    /// The slot `handle` names, if its generation is still the slot's.
    fn info(&self, handle: FuncHandle) -> Result<&FuncInfo, VmError> {
        match self.funcs.get(handle.slot()) {
            Some(info) if info.gen == handle.gen => Ok(info),
            _ => Err(VmError::CodeLifecycle(format!(
                "stale handle to slot {} (generation {}): its function was freed",
                handle.slot, handle.gen
            ))),
        }
    }

    /// [`CodeSpace::info`] for a sealed function; `what` names the
    /// refused request.
    fn sealed(&self, handle: FuncHandle, what: &str) -> Result<&FuncInfo, VmError> {
        let info = self.info(handle)?;
        if !info.sealed {
            return Err(VmError::CodeLifecycle(format!(
                "{what} of unfinished function {}",
                info.name
            )));
        }
        Ok(info)
    }

    /// Returns `handle`'s slot to the free list under the next
    /// generation, which kills every handle to it. No handle is given
    /// out under the last generation: a slot that reaches it is never
    /// reused, so a generation never wraps.
    fn release(&mut self, handle: FuncHandle) {
        let info = &mut self.funcs[handle.slot()];
        info.gen += 1;
        if info.gen < u32::MAX {
            self.free_slots.push(handle.slot);
        }
    }

    /// Seals the function begun with `handle` and returns its callable
    /// address. If a free-list range fits, the function is relocated into
    /// it (first fit) and the emission tail rolls back, so freed code
    /// space is actually recycled.
    ///
    /// # Errors
    ///
    /// [`VmError::CodeLifecycle`] if the function was already sealed (or
    /// freed): a double-finish would silently re-seal a stale range.
    pub fn finish_function(&mut self, handle: FuncHandle) -> Result<u64, VmError> {
        let info = self.info(handle)?;
        if info.sealed {
            return Err(VmError::CodeLifecycle(format!(
                "function {} sealed twice",
                info.name
            )));
        }
        let start = info.start_word;
        let len = self.words.len() - start;
        // Into the first fitting hole, if every word can move there. The
        // hole's words are dead, so a refusal part-way leaves nothing
        // that can run: the function then stays at the tail.
        let hole = self.fit(start, len).filter(|&fit| {
            let to = self.free[fit].0;
            (0..len).all(|i| {
                let moved = relocate_word(self.words[start + i], i, start, len, to);
                moved.map(|word| self.words[to + i] = word).is_ok()
            })
        });
        Ok(self.seal(handle, hole))
    }

    /// Seals the building function `handle`, whose words sit at the
    /// emission tail — or, with `hole` naming a free range, already sit
    /// relocated at that range's start: the range's prefix is taken and
    /// the tail rolls back past the function.
    fn seal(&mut self, handle: FuncHandle, hole: Option<usize>) -> u64 {
        let tail = self.funcs[handle.slot()].start_word;
        let len = self.words.len() - tail;
        let start = match hole {
            Some(fit) => {
                let (s, l) = self.free[fit];
                if l == len {
                    self.free.remove(fit);
                } else {
                    self.free[fit] = (s + len, l - len);
                }
                self.truncate(tail);
                s
            }
            None => tail,
        };
        // An empty function owns no word: nothing to find.
        self.owner[start..start + len].fill(handle.slot);
        let info = &mut self.funcs[handle.slot()];
        info.start_word = start;
        info.end_word = start + len;
        info.sealed = true;
        self.live_words += len;
        CODE_BASE + (start as u64) * 4
    }

    /// Rolls the emission tail back to `len` words.
    fn truncate(&mut self, len: usize) {
        self.words.truncate(len);
        self.owner.truncate(len);
    }

    /// Returns a sealed function's words to the free list (coalescing
    /// with adjacent free ranges) and its slot to the slot free list, and
    /// kills its address and handle: subsequent execution in the range
    /// faults with [`VmError::StaleCode`] until a later function reuses
    /// it.
    ///
    /// # Errors
    ///
    /// [`VmError::CodeLifecycle`] if the function is still being built,
    /// or was already freed.
    pub fn free_function(&mut self, handle: FuncHandle) -> Result<u64, VmError> {
        let info = self.sealed(handle, "free")?;
        let (start, end) = (info.start_word, info.end_word);
        let len = end - start;
        self.release(handle);
        self.live_epoch += 1;
        self.owner[start..end].fill(NO_OWNER);
        self.live_words -= len;
        self.reclaimed_words += len;
        self.insert_free(start, len);
        Ok((len as u64) * 4)
    }

    /// Inserts `(start, len)` into the sorted free list, merging with
    /// adjacent ranges.
    fn insert_free(&mut self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let i = self.free.partition_point(|&(s, _)| s < start);
        let merges_prev = i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == start;
        let merges_next = i < self.free.len() && start + len == self.free[i].0;
        match (merges_prev, merges_next) {
            (true, true) => {
                self.free[i - 1].1 += len + self.free[i].1;
                self.free.remove(i);
            }
            (true, false) => self.free[i - 1].1 += len,
            (false, true) => {
                self.free[i].0 = start;
                self.free[i].1 += len;
            }
            (false, false) => self.free.insert(i, (start, len)),
        }
    }

    /// The first free range that takes `len` words and lies below
    /// `tail`, the emission tail's start: what relocation recycles.
    fn fit(&self, tail: usize, len: usize) -> Option<usize> {
        self.free
            .iter()
            .position(|&(s, l)| l >= len && s + len <= tail)
    }

    /// The callable address of a sealed function.
    ///
    /// # Errors
    ///
    /// [`VmError::CodeLifecycle`] if the function is unfinished (its
    /// final placement is not yet known) or freed (the address would be
    /// stale).
    pub fn addr_of(&self, handle: FuncHandle) -> Result<u64, VmError> {
        let info = self.sealed(handle, "address")?;
        Ok(CODE_BASE + (info.start_word as u64) * 4)
    }

    /// Size in bytes of a sealed function's words.
    ///
    /// # Errors
    ///
    /// [`VmError::CodeLifecycle`] unless the function is sealed.
    pub fn size_of(&self, handle: FuncHandle) -> Result<u64, VmError> {
        let info = self.sealed(handle, "size")?;
        Ok(((info.end_word - info.start_word) as u64) * 4)
    }

    /// Occupancy accounting: live/free/reclaimed words and the largest
    /// free range.
    pub fn stats(&self) -> CodeStats {
        CodeStats {
            total_words: self.words.len(),
            live_words: self.live_words,
            free_words: self.free.iter().map(|&(_, l)| l).sum(),
            reclaimed_words: self.reclaimed_words,
            largest_free: self.free.iter().map(|&(_, l)| l).max().unwrap_or(0),
        }
    }

    /// Appends one instruction; returns its word index (for patching).
    #[inline]
    pub fn push(&mut self, insn: Insn) -> usize {
        self.push_word(insn.encode())
    }

    /// Appends a raw already-encoded word; returns its word index.
    #[inline]
    pub fn push_word(&mut self, word: u32) -> usize {
        let idx = self.words.len();
        self.words.push(word);
        self.owner.push(NO_OWNER);
        idx
    }

    /// Overwrites the word at `index` (used to resolve forward branch
    /// references).
    ///
    /// # Panics
    ///
    /// Panics if `index` has not been emitted yet.
    #[inline]
    pub fn patch(&mut self, index: usize, insn: Insn) {
        // Patching a *live* word rewrites sealed code under any decoded
        // cache; building-phase patches (forward branch resolution) hit
        // not-yet-live words and stay epoch-neutral.
        if let Some(handle) = self.owner(index) {
            let info = &mut self.funcs[handle.slot()];
            info.patches = info.patches.wrapping_add(1);
            self.live_epoch += 1;
        }
        self.words[index] = insn.encode();
    }

    /// Number of instruction words emitted so far (also the index the next
    /// push will get).
    #[inline]
    pub fn next_index(&self) -> usize {
        self.words.len()
    }

    /// Fetches the instruction word at a code address, without a
    /// liveness check — for patching and inspection. Execution goes
    /// through [`CodeSpace::fetch_exec`].
    ///
    /// # Errors
    ///
    /// Returns [`VmError::BadPc`] for addresses outside the emitted range
    /// or not word-aligned.
    #[inline]
    pub fn fetch(&self, pc: u64) -> Result<u32, VmError> {
        if pc < CODE_BASE || !pc.is_multiple_of(4) {
            return Err(VmError::BadPc(pc));
        }
        let idx = ((pc - CODE_BASE) / 4) as usize;
        self.words.get(idx).copied().ok_or(VmError::BadPc(pc))
    }

    /// Fetches the instruction word at `pc` for *execution*: the word
    /// must belong to a live sealed function.
    ///
    /// # Errors
    ///
    /// [`VmError::BadPc`] outside the emitted range or misaligned;
    /// [`VmError::StaleCode`] inside a freed range or a function that
    /// was never sealed.
    #[inline]
    pub fn fetch_exec(&self, pc: u64) -> Result<u32, VmError> {
        if pc < CODE_BASE || !pc.is_multiple_of(4) {
            return Err(VmError::BadPc(pc));
        }
        let idx = ((pc - CODE_BASE) / 4) as usize;
        match self.owner.get(idx) {
            None => Err(VmError::BadPc(pc)),
            Some(&NO_OWNER) => Err(VmError::StaleCode(pc)),
            Some(_) => Ok(self.words[idx]),
        }
    }

    /// Monotonic invalidation counter: bumped when a function is freed
    /// or a live (sealed) word is patched. Sealing a new function never
    /// bumps it — fresh code only turns dead words live, so decoded
    /// caches of other functions stay valid across `compile` calls.
    #[inline]
    pub fn live_epoch(&self) -> u64 {
        self.live_epoch
    }

    /// The version of the code in `slot`: its generation and the live
    /// patches to its occupant. Changes exactly when the occupant is
    /// freed or patched; never 0 (generations start at 1), and 0 for a
    /// slot this space does not have.
    #[inline]
    pub(crate) fn version(&self, slot: usize) -> u64 {
        self.funcs
            .get(slot)
            .map_or(0, |f| u64::from(f.gen) << 32 | u64::from(f.patches))
    }

    /// The live sealed function covering word index `idx`, if any: one
    /// load of the owner index and one of the slot's generation.
    #[inline]
    pub(crate) fn owner(&self, idx: usize) -> Option<FuncHandle> {
        match self.owner.get(idx) {
            Some(&slot) if slot != NO_OWNER => Some(FuncHandle {
                slot,
                gen: self.funcs[slot as usize].gen,
            }),
            _ => None,
        }
    }

    /// [`CodeSpace::owner`] for a code address.
    fn owner_at(&self, addr: u64) -> Option<FuncHandle> {
        let byte = addr.checked_sub(CODE_BASE)?;
        self.owner(usize::try_from(byte / 4).ok()?)
    }

    /// The `[start_word, end_word)` range of a function (its final one
    /// once sealed).
    ///
    /// # Errors
    ///
    /// [`VmError::CodeLifecycle`] for a stale handle.
    #[inline]
    pub(crate) fn span(&self, handle: FuncHandle) -> Result<(usize, usize), VmError> {
        let f = self.info(handle)?;
        Ok((f.start_word, f.end_word))
    }

    /// The `[start_word, end_word)` range of the live sealed function
    /// containing word index `idx`, if any. Freed or still-building
    /// ranges have no containing function.
    pub fn live_range_containing(&self, idx: usize) -> Option<(usize, usize)> {
        self.span(self.owner(idx)?).ok()
    }

    /// Raw encoded words of `[start, end)` (translation input).
    #[inline]
    pub(crate) fn word_slice(&self, start: usize, end: usize) -> &[u32] {
        &self.words[start..end]
    }

    /// Name of the live function containing `addr`, if any (diagnostics).
    pub fn function_at(&self, addr: u64) -> Option<&str> {
        Some(self.funcs[self.owner_at(addr)?.slot()].name.as_str())
    }

    /// Disassembles the function at `handle` into one line per
    /// instruction, annotated with word offsets.
    ///
    /// # Errors
    ///
    /// [`VmError::CodeLifecycle`] for a stale handle.
    pub fn disassemble(&self, handle: FuncHandle) -> Result<String, VmError> {
        let info = self.info(handle)?;
        let end = info.end_word.min(self.words.len());
        let mut out = match info.name.as_str() {
            "" => format!("<{:#x}>:\n", CODE_BASE + 4 * info.start_word as u64),
            name => format!("{name}:\n"),
        };
        for (i, w) in self.words[info.start_word..end].iter().enumerate() {
            match Insn::decode(*w) {
                Ok(insn) => out.push_str(&format!("  {i:4}: {insn}\n")),
                Err(_) => out.push_str(&format!("  {i:4}: .word {w:#010x}\n")),
            }
        }
        Ok(out)
    }

    /// Disassembles the live function containing `addr`, if any.
    pub fn disassemble_at(&self, addr: u64) -> Option<String> {
        self.disassemble(self.owner_at(addr)?).ok()
    }

    /// Decoded instructions of a finished function (testing/analysis).
    ///
    /// # Errors
    ///
    /// [`VmError::CodeLifecycle`] for a stale handle;
    /// [`VmError::BadOpcode`] if a word does not decode.
    pub fn instructions(&self, handle: FuncHandle) -> Result<Vec<Insn>, VmError> {
        let info = self.info(handle)?;
        let end = info.end_word.min(self.words.len());
        self.words[info.start_word..end]
            .iter()
            .map(|w| Insn::decode(*w))
            .collect()
    }

    /// Snapshot of a sealed function as a shareable artifact: its start
    /// word index (the coordinate system of any cross-function `j`/`jal`
    /// displacements inside it) plus its encoded words. The pair is what
    /// [`CodeSpace::install_function`] needs to replant the function in
    /// *another* code space.
    ///
    /// # Errors
    ///
    /// [`VmError::CodeLifecycle`] unless the function is sealed.
    pub fn function_words(&self, handle: FuncHandle) -> Result<(usize, Vec<u32>), VmError> {
        let info = self.sealed(handle, "words")?;
        Ok((
            info.start_word,
            self.words[info.start_word..info.end_word].to_vec(),
        ))
    }

    /// Installs a function exported from another code space (via
    /// [`CodeSpace::function_words`]) and seals it, returning its address
    /// and handle here. `orig_start` is the start word index the words
    /// were sealed at in the *source* space: external `j`/`jal`
    /// displacements are rebased by the one rule relocation uses, from
    /// `orig_start` straight to where the function lands — the first
    /// fitting free-list hole, else the tail. Both spaces must lay out
    /// their statically compiled functions identically, or the rebased
    /// calls target the wrong code — the caller (the shared artifact
    /// cache) guarantees this by keying artifacts on a fingerprint that
    /// covers the source program and its configuration.
    ///
    /// # Errors
    ///
    /// [`VmError::CodeLifecycle`] if there are no words, or a word
    /// cannot be proven installable (undecodable data word,
    /// cross-function branch, or a rebased displacement out of `j`/`jal`
    /// range); the space is left exactly as it was, so the caller can
    /// fall back to a fresh compile.
    pub fn install_function(
        &mut self,
        name: &str,
        words: &[u32],
        orig_start: usize,
    ) -> Result<(u64, FuncHandle), VmError> {
        if words.is_empty() {
            // An empty function owns no word: its address would be
            // whatever is sealed next.
            return Err(VmError::CodeLifecycle(format!(
                "artifact {name} not installable: no words"
            )));
        }
        let handle = self.begin_function(name);
        let tail = self.funcs[handle.slot()].start_word;
        let len = words.len();
        // Placement first, so each word is relocated once, straight
        // from the source placement to its final one.
        let hole = self.fit(tail, len);
        let to = hole.map_or(tail, |fit| self.free[fit].0);
        for (i, &word) in words.iter().enumerate() {
            match relocate_word(word, i, orig_start, len, to) {
                Ok(word) => {
                    self.push_word(word);
                }
                Err(why) => {
                    self.abort_install(handle);
                    return Err(VmError::CodeLifecycle(format!(
                        "artifact {name} not installable: {why} at word {i}"
                    )));
                }
            }
        }
        if hole.is_some() {
            self.words.copy_within(tail..tail + len, to);
        }
        Ok((self.seal(handle, hole), handle))
    }

    /// Rolls back a function begun by [`CodeSpace::install_function`]:
    /// the emission tail is truncated and the slot released. Only valid
    /// while the function is the one still being built.
    fn abort_install(&mut self, handle: FuncHandle) {
        debug_assert!(!self.funcs[handle.slot()].sealed);
        self.truncate(self.funcs[handle.slot()].start_word);
        self.release(handle);
    }
}

/// The one relocation rule: word `i` of a function sealed at word
/// `from`, `len` words long, rewritten for placement at word `to`.
/// Branches and in-function jumps are PC-relative word offsets and move
/// verbatim; a `j`/`jal` whose target lies outside the function (a
/// direct call to another function) is rebased by the distance moved
/// and must stay within its 24-bit reach. A word that cannot be proven
/// safe to move — an undecodable data word, a cross-function branch
/// (never emitted), a rebased jump out of reach — is refused, with why.
fn relocate_word(
    word: u32,
    i: usize,
    from: usize,
    len: usize,
    to: usize,
) -> Result<u32, &'static str> {
    let Ok(mut insn) = Insn::decode(word) else {
        return Err("undecodable word");
    };
    let target = (from + i) as i64 + 1 + insn.imm as i64;
    if (from as i64..(from + len) as i64).contains(&target) {
        return Ok(word);
    }
    match insn.op {
        Op::J | Op::Jal => {
            let imm = insn.imm as i64 + from as i64 - to as i64;
            if !(IMM24_MIN..=IMM24_MAX).contains(&imm) {
                return Err("rebased jump out of range");
            }
            insn.imm = imm as i32;
            Ok(insn.encode())
        }
        op if op.is_branch() => Err("cross-function branch"),
        _ => Ok(word),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Op;
    use crate::regs::{A0, A1};

    fn seal(cs: &mut CodeSpace, f: FuncHandle) -> u64 {
        cs.finish_function(f).expect("seals")
    }

    #[test]
    fn function_addresses_and_fetch() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::i(Op::Addiw, A0, A0, 1));
        cs.push(Insn::ret());
        let addr = seal(&mut cs, f);
        assert_eq!(addr, CODE_BASE);
        let w = cs.fetch(addr).unwrap();
        assert_eq!(Insn::decode(w).unwrap().op, Op::Addiw);
        assert_eq!(
            Insn::decode(cs.fetch(addr + 4).unwrap()).unwrap(),
            Insn::ret()
        );
        assert_eq!(cs.fetch_exec(addr).unwrap(), w);
    }

    #[test]
    fn fetch_rejects_bad_pcs() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::ret());
        seal(&mut cs, f);
        assert!(matches!(cs.fetch(CODE_BASE + 2), Err(VmError::BadPc(_))));
        assert!(matches!(cs.fetch(CODE_BASE + 8), Err(VmError::BadPc(_))));
        assert!(matches!(cs.fetch(0x1000), Err(VmError::BadPc(_))));
    }

    #[test]
    fn patch_rewrites_word() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        let idx = cs.push(Insn::nop());
        cs.push(Insn::ret());
        cs.patch(idx, Insn::i(Op::Addiw, A0, A1, 7));
        seal(&mut cs, f);
        let insns = cs.instructions(f).unwrap();
        assert_eq!(insns[0], Insn::i(Op::Addiw, A0, A1, 7));
    }

    #[test]
    fn double_finish_is_a_lifecycle_error() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::ret());
        seal(&mut cs, f);
        assert!(matches!(
            cs.finish_function(f),
            Err(VmError::CodeLifecycle(_))
        ));
    }

    #[test]
    fn addr_of_unfinished_and_freed_functions_is_refused() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::ret());
        assert!(matches!(cs.addr_of(f), Err(VmError::CodeLifecycle(_))));
        let addr = seal(&mut cs, f);
        assert_eq!(cs.addr_of(f).unwrap(), addr);
        cs.free_function(f).unwrap();
        assert!(matches!(cs.addr_of(f), Err(VmError::CodeLifecycle(_))));
    }

    #[test]
    fn freed_code_faults_on_execution_fetch() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::ret());
        let addr = seal(&mut cs, f);
        assert!(cs.fetch_exec(addr).is_ok());
        cs.free_function(f).unwrap();
        assert!(matches!(cs.fetch_exec(addr), Err(VmError::StaleCode(_))));
        // Raw fetch (inspection) still sees the word.
        assert!(cs.fetch(addr).is_ok());
    }

    #[test]
    fn unsealed_code_faults_on_execution_fetch() {
        let mut cs = CodeSpace::new();
        let _f = cs.begin_function("f");
        cs.push(Insn::ret());
        assert!(matches!(
            cs.fetch_exec(CODE_BASE),
            Err(VmError::StaleCode(_))
        ));
    }

    #[test]
    fn free_function_requires_sealed() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::ret());
        assert!(matches!(
            cs.free_function(f),
            Err(VmError::CodeLifecycle(_))
        ));
        seal(&mut cs, f);
        assert!(cs.free_function(f).is_ok());
        assert!(matches!(
            cs.free_function(f),
            Err(VmError::CodeLifecycle(_))
        ));
    }

    #[test]
    fn freed_ranges_are_reused_first_fit() {
        let mut cs = CodeSpace::new();
        let mk = |cs: &mut CodeSpace, name: &str, n: usize| {
            let f = cs.begin_function(name);
            for _ in 0..n - 1 {
                cs.push(Insn::nop());
            }
            cs.push(Insn::ret());
            (f, cs.finish_function(f).unwrap())
        };
        let (a, addr_a) = mk(&mut cs, "a", 8);
        let (_b, _) = mk(&mut cs, "b", 4);
        let freed = cs.free_function(a).unwrap();
        assert_eq!(freed, 8 * 4);
        // Same-size replacement lands exactly in a's old range.
        let (_c, addr_c) = mk(&mut cs, "c", 8);
        assert_eq!(addr_c, addr_a);
        assert_eq!(cs.function_at(addr_c), Some("c"));
        // Tail did not grow: c reused the hole.
        assert_eq!(cs.stats().total_words, 12);
        assert_eq!(cs.stats().reclaimed_words, 8);
    }

    #[test]
    fn smaller_function_splits_the_hole_and_coalescing_merges() {
        let mut cs = CodeSpace::new();
        let mk = |cs: &mut CodeSpace, name: &str, n: usize| {
            let f = cs.begin_function(name);
            for _ in 0..n - 1 {
                cs.push(Insn::nop());
            }
            cs.push(Insn::ret());
            (f, cs.finish_function(f).unwrap())
        };
        let (a, addr_a) = mk(&mut cs, "a", 10);
        let (b, _) = mk(&mut cs, "b", 6);
        let (_guard, _) = mk(&mut cs, "guard", 2);
        cs.free_function(a).unwrap();
        // A 4-word function reuses the front of a's 10-word hole.
        let (_c, addr_c) = mk(&mut cs, "c", 4);
        assert_eq!(addr_c, addr_a);
        assert_eq!(cs.stats().free_words, 6);
        // Freeing b coalesces with the remaining 6-word hole.
        cs.free_function(b).unwrap();
        let st = cs.stats();
        assert_eq!(st.free_words, 12);
        assert_eq!(st.largest_free, 12, "adjacent holes must coalesce");
        assert_eq!(st.fragmentation(), 0.0);
    }

    #[test]
    fn relocation_fixes_cross_function_calls() {
        // callee at 0, filler, caller emitted after a hole opens: the
        // caller's jal must still reach callee after relocating.
        let mut cs = CodeSpace::new();
        let callee = cs.begin_function("callee");
        cs.push(Insn::i(Op::Addiw, A0, A0, 5));
        cs.push(Insn::ret());
        let callee_addr = cs.finish_function(callee).unwrap();
        let filler = cs.begin_function("filler");
        for _ in 0..6 {
            cs.push(Insn::nop());
        }
        cs.push(Insn::ret());
        cs.finish_function(filler).unwrap();
        cs.free_function(filler).unwrap();
        // Emit a caller at the tail; it will relocate into filler's hole.
        let caller = cs.begin_function("caller");
        let at = cs.next_index() as i64;
        let callee_word = ((callee_addr - CODE_BASE) / 4) as i64;
        cs.push(Insn::j(Op::Jal, (callee_word - (at + 1)) as i32));
        cs.push(Insn::ret());
        let caller_addr = cs.finish_function(caller).unwrap();
        assert_eq!(
            caller_addr,
            callee_addr + 2 * 4,
            "caller reuses filler's hole"
        );
        // The relocated jal still targets callee's first word.
        let jal = Insn::decode(cs.fetch_exec(caller_addr).unwrap()).unwrap();
        let target = ((caller_addr - CODE_BASE) / 4) as i64 + 1 + jal.imm as i64;
        assert_eq!(target, callee_word);
    }

    #[test]
    fn stats_track_live_and_free_words() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        for _ in 0..7 {
            cs.push(Insn::nop());
        }
        cs.push(Insn::ret());
        seal(&mut cs, f);
        assert_eq!(cs.stats().live_words, 8);
        assert_eq!(cs.stats().free_words, 0);
        cs.free_function(f).unwrap();
        let st = cs.stats();
        assert_eq!(st.live_words, 0);
        assert_eq!(st.free_words, 8);
        assert_eq!(st.reclaimed_words, 8);
    }

    #[test]
    fn function_at_finds_names() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("alpha");
        cs.push(Insn::ret());
        let fa = seal(&mut cs, f);
        let g = cs.begin_function("beta");
        cs.push(Insn::ret());
        let gb = seal(&mut cs, g);
        assert_eq!(cs.function_at(fa), Some("alpha"));
        assert_eq!(cs.function_at(gb), Some("beta"));
        assert_eq!(cs.function_at(0x10), None);
        cs.free_function(f).unwrap();
        assert_eq!(cs.function_at(fa), None, "freed functions are unnamed");
    }

    #[test]
    fn live_epoch_bumps_only_on_invalidation() {
        let mut cs = CodeSpace::new();
        assert_eq!(cs.live_epoch(), 0);
        let f = cs.begin_function("f");
        let idx = cs.push(Insn::nop());
        cs.push(Insn::ret());
        // Building-phase patches touch dead words: no bump.
        cs.patch(idx, Insn::i(Op::Addiw, A0, A0, 1));
        seal(&mut cs, f);
        assert_eq!(cs.live_epoch(), 0, "sealing must not invalidate");
        cs.patch(idx, Insn::nop());
        assert_eq!(cs.live_epoch(), 1, "patching sealed code invalidates");
        cs.free_function(f).unwrap();
        assert_eq!(cs.live_epoch(), 2, "freeing invalidates");
    }

    #[test]
    fn live_range_containing_tracks_lifecycle() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::nop());
        cs.push(Insn::ret());
        assert_eq!(cs.live_range_containing(0), None, "still building");
        seal(&mut cs, f);
        assert_eq!(cs.live_range_containing(0), Some((0, 2)));
        assert_eq!(cs.live_range_containing(1), Some((0, 2)));
        assert_eq!(cs.live_range_containing(2), None, "past the end");
        cs.free_function(f).unwrap();
        assert_eq!(cs.live_range_containing(0), None, "freed");
    }

    #[test]
    fn live_lookups_follow_seal_free_and_reuse() {
        // Many functions, some freed, one hole reused: every word maps
        // to the function that is live there *now*.
        let mut cs = CodeSpace::new();
        let mk = |cs: &mut CodeSpace, name: &str, n: usize| {
            let f = cs.begin_function(name);
            for _ in 0..n - 1 {
                cs.push(Insn::nop());
            }
            cs.push(Insn::ret());
            cs.finish_function(f).unwrap();
            f
        };
        let fs: Vec<_> = (0..8).map(|i| mk(&mut cs, &format!("f{i}"), 4)).collect();
        for i in 0..8 {
            for w in 4 * i..4 * i + 4 {
                assert_eq!(cs.live_range_containing(w), Some((4 * i, 4 * i + 4)));
            }
        }
        cs.free_function(fs[2]).unwrap();
        cs.free_function(fs[5]).unwrap();
        assert_eq!(cs.live_range_containing(8), None);
        assert_eq!(cs.live_range_containing(11), None, "not f1's, not f3's");
        assert_eq!(cs.live_range_containing(7), Some((4, 8)));
        assert_eq!(cs.live_range_containing(12), Some((12, 16)));
        // A shorter function takes the front of f2's hole.
        mk(&mut cs, "g", 2);
        assert_eq!(cs.function_at(CODE_BASE + 8 * 4), Some("g"));
        assert_eq!(cs.live_range_containing(9), Some((8, 10)));
        assert_eq!(cs.live_range_containing(10), None, "rest of the hole");
        assert!(cs
            .disassemble_at(CODE_BASE + 9 * 4)
            .unwrap()
            .starts_with("g:"));
        assert_eq!(cs.disassemble_at(CODE_BASE + 20 * 4), None, "f5 is gone");
        assert_eq!(cs.live_range_containing(1 << 40), None);
    }

    #[test]
    fn versions_change_exactly_where_code_died() {
        let mut cs = CodeSpace::new();
        let fs: Vec<_> = (0..3)
            .map(|i| {
                let f = cs.begin_function(&format!("f{i}"));
                cs.push(Insn::nop());
                cs.push(Insn::ret());
                cs.finish_function(f).unwrap();
                f
            })
            .collect();
        let versions = |cs: &CodeSpace| fs.iter().map(|f| cs.version(f.slot())).collect::<Vec<_>>();
        let before = versions(&cs);
        assert!(before.iter().all(|&v| v != 0), "no version is 0");
        // A live patch moves the patched function's version only, and
        // its handle stays good.
        cs.patch(3, Insn::ret());
        let patched = versions(&cs);
        assert_eq!((patched[0], patched[2]), (before[0], before[2]));
        assert_ne!(patched[1], before[1]);
        assert!(cs.addr_of(fs[1]).is_ok(), "a patch does not free");
        // A free moves the freed function's version only.
        cs.free_function(fs[0]).unwrap();
        let freed = versions(&cs);
        assert_ne!(freed[0], patched[0]);
        assert_eq!(&freed[1..], &patched[1..]);
        assert_eq!(cs.live_epoch(), 2);
        assert_eq!(cs.version(99), 0, "a slot the space does not have");
    }

    #[test]
    fn a_stale_handle_is_refused_and_never_reaches_the_new_occupant() {
        fn refused<T>(r: Result<T, VmError>) -> bool {
            matches!(r, Err(VmError::CodeLifecycle(_)))
        }
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::nop());
        cs.push(Insn::ret());
        let addr = seal(&mut cs, f);
        cs.free_function(f).unwrap();
        let g = cs.begin_function("g");
        cs.push(Insn::i(Op::Addiw, A0, A0, 1));
        cs.push(Insn::ret());
        assert_eq!(g.slot(), f.slot(), "g takes f's slot");
        assert_ne!(g, f, "under the next generation");
        assert!(refused(cs.finish_function(f)), "cannot seal g for it");
        assert_eq!(seal(&mut cs, g), addr, "g also takes f's words");
        assert!(refused(cs.finish_function(f)));
        assert!(refused(cs.free_function(f)));
        assert!(refused(cs.addr_of(f)));
        assert!(refused(cs.size_of(f)));
        assert!(refused(cs.disassemble(f)));
        assert!(refused(cs.instructions(f)));
        assert!(refused(cs.function_words(f)));
        assert!(refused(cs.span(f)));
        // g is untouched by all of that.
        assert_eq!(cs.live_epoch(), 1, "one free, nothing else");
        assert_eq!(cs.addr_of(g).unwrap(), addr);
        assert_eq!(cs.size_of(g).unwrap(), 8);
        assert_eq!(cs.span(g).unwrap(), (0, 2));
        assert!(cs.disassemble(g).unwrap().starts_with("g:"));
        assert_eq!(
            cs.instructions(g).unwrap()[0],
            Insn::i(Op::Addiw, A0, A0, 1)
        );
        assert_eq!(cs.function_at(addr), Some("g"));
        assert!(cs.fetch_exec(addr).is_ok());
        assert!(cs.free_function(g).is_ok());
    }

    #[test]
    fn a_slot_is_retired_before_its_generation_wraps() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::ret());
        seal(&mut cs, f);
        cs.funcs[f.slot()].gen = u32::MAX - 1;
        let f = FuncHandle {
            gen: u32::MAX - 1,
            ..f
        };
        cs.free_function(f).unwrap();
        assert!(cs.addr_of(f).is_err(), "the handle died");
        assert_ne!(cs.begin_function("g").slot(), f.slot(), "not reused");
    }

    #[test]
    fn owner_index_matches_a_scan_of_the_sealed_functions() {
        // A seeded walk of emits, frees, installs (into a hole or at the
        // tail), aborted installs and live patches. After every step
        // each word's function, as the queries report it, is the one a
        // scan of the sealed functions finds there; each live function's
        // version moved exactly when it was patched; every live handle
        // is current, and the registry holds no more slots than
        // functions were ever alive at once.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        let body = |n: usize| {
            let mut words = vec![Insn::nop().encode(); n - 1];
            words.push(Insn::ret().encode());
            words
        };
        let mut cs = CodeSpace::new();
        // (handle, name, version)
        let mut live: Vec<(FuncHandle, String, u64)> = Vec::new();
        let mut freed = Vec::new();
        let (mut died, mut aborted, mut peak) = (0, 0, 0);
        for step in 0..3000 {
            let name = format!("f{step}");
            // The function begun this step is alive beside the others.
            peak = peak.max(live.len() + 1);
            // Frees once 32 functions are live: holes of every size
            // open between live functions and the tail.
            match rand(6) {
                op if op == 0 || live.len() < 32 => {
                    let f = cs.begin_function(&name);
                    for word in body(1 + rand(12)) {
                        cs.push_word(word);
                    }
                    let building = cs.span(f).unwrap().0..cs.next_index();
                    assert!(building.clone().all(|w| cs.owner(w).is_none()));
                    cs.finish_function(f).unwrap();
                    live.push((f, name, cs.version(f.slot())));
                }
                1 => {
                    let (_, f) = cs
                        .install_function(&name, &body(1 + rand(12)), rand(64))
                        .unwrap();
                    live.push((f, name, cs.version(f.slot())));
                }
                2 => {
                    let mut words = body(1 + rand(12));
                    let at = rand(words.len());
                    words[at] = 0xFFFF_FFFF;
                    let before = (cs.stats(), cs.live_epoch());
                    assert!(cs.install_function(&name, &words, rand(64)).is_err());
                    assert_eq!((cs.stats(), cs.live_epoch()), before, "rolled back");
                    aborted += 1;
                }
                3 => {
                    let n = live.len();
                    let (f, _, version) = &mut live[rand(n)];
                    let (start, end) = cs.span(*f).unwrap();
                    cs.patch(start + rand(end - start), Insn::nop());
                    assert_ne!(cs.version(f.slot()), *version, "step {step}");
                    *version = cs.version(f.slot());
                    died += 1;
                }
                _ => {
                    let (f, _, version) = live.swap_remove(rand(live.len()));
                    cs.free_function(f).unwrap();
                    assert_ne!(cs.version(f.slot()), version, "step {step}");
                    freed.push(f);
                    died += 1;
                }
            }
            assert!(cs.funcs.len() <= peak, "step {step}: slots past the peak");
            let mut scan = vec![None; cs.next_index() + 1];
            for (f, name, version) in &live {
                assert_eq!(
                    cs.funcs[f.slot()].gen,
                    f.gen,
                    "step {step}: stale live handle"
                );
                assert_eq!(cs.version(f.slot()), *version, "step {step}");
                let start = ((cs.addr_of(*f).unwrap() - CODE_BASE) / 4) as usize;
                let end = start + (cs.size_of(*f).unwrap() / 4) as usize;
                for slot in &mut scan[start..end] {
                    assert!(slot.is_none(), "step {step}: live functions overlap");
                    *slot = Some(((start, end), name.as_str()));
                }
            }
            if let Some(&f) = freed.last() {
                assert!(cs.addr_of(f).is_err(), "step {step}: a freed handle");
            }
            for (w, found) in scan.iter().enumerate() {
                let addr = CODE_BASE + 4 * w as u64;
                assert_eq!(
                    cs.live_range_containing(w),
                    found.map(|(range, _)| range),
                    "step {step}, word {w}"
                );
                assert_eq!(cs.function_at(addr), found.map(|(_, name)| name));
                if w < cs.next_index() {
                    assert_eq!(cs.fetch_exec(addr).is_ok(), found.is_some());
                }
            }
            assert_eq!(cs.live_epoch(), died, "step {step}");
        }
        let stats = cs.stats();
        assert!(stats.reclaimed_words > stats.total_words && stats.free_words > 0);
        assert!(aborted > 100 && freed.len() > 100);
        assert!(cs.funcs.len() < freed.len(), "slots were reused");
    }

    #[test]
    fn install_function_rebases_external_calls() {
        // Source space: callee then caller; export caller and install it
        // into a target space whose identical callee sits at the same
        // word index but whose tail is longer, so the placement delta is
        // nonzero and the external jal must be rebased.
        let build_callee = |cs: &mut CodeSpace| {
            let f = cs.begin_function("callee");
            cs.push(Insn::i(Op::Addiw, A0, A0, 5));
            cs.push(Insn::ret());
            cs.finish_function(f).unwrap()
        };
        let mut src = CodeSpace::new();
        let callee_addr = build_callee(&mut src);
        let caller = src.begin_function("caller");
        let at = src.next_index() as i64;
        let callee_word = ((callee_addr - CODE_BASE) / 4) as i64;
        src.push(Insn::j(Op::Jal, (callee_word - (at + 1)) as i32));
        src.push(Insn::ret());
        src.finish_function(caller).unwrap();
        let (orig_start, words) = src.function_words(caller).unwrap();

        let mut dst = CodeSpace::new();
        build_callee(&mut dst);
        // Extra padding so the install lands at a different word index.
        let pad = dst.begin_function("pad");
        for _ in 0..5 {
            dst.push(Insn::nop());
        }
        dst.push(Insn::ret());
        dst.finish_function(pad).unwrap();
        let (addr, h) = dst.install_function("caller", &words, orig_start).unwrap();
        assert_ne!(addr, CODE_BASE + (orig_start as u64) * 4);
        let jal = Insn::decode(dst.fetch_exec(addr).unwrap()).unwrap();
        let target = ((addr - CODE_BASE) / 4) as i64 + 1 + jal.imm as i64;
        assert_eq!(target, callee_word, "external jal rebased to callee");
        assert_eq!(dst.function_at(addr), Some("caller"));
        assert!(dst.size_of(h).is_ok());
    }

    #[test]
    fn install_into_a_hole_composes_both_rebases() {
        // The source seals the caller past a spacer, the target has a
        // hole below a longer tail: the external jal is rebased from the
        // source placement to the hole, and still reaches the callee.
        let build_callee = |cs: &mut CodeSpace| {
            let f = cs.begin_function("callee");
            cs.push(Insn::i(Op::Addiw, A0, A0, 5));
            cs.push(Insn::ret());
            cs.finish_function(f).unwrap()
        };
        let filler = |cs: &mut CodeSpace, name: &str, words: usize| {
            let f = cs.begin_function(name);
            for _ in 1..words {
                cs.push(Insn::nop());
            }
            cs.push(Insn::ret());
            cs.finish_function(f).unwrap();
            f
        };
        let mut src = CodeSpace::new();
        let callee_addr = build_callee(&mut src);
        filler(&mut src, "spacer", 8);
        let caller = src.begin_function("caller");
        let at = src.next_index() as i64;
        let callee_word = ((callee_addr - CODE_BASE) / 4) as i64;
        src.push(Insn::j(Op::Jal, (callee_word - (at + 1)) as i32));
        src.push(Insn::ret());
        src.finish_function(caller).unwrap();
        let (orig_start, words) = src.function_words(caller).unwrap();

        let mut dst = CodeSpace::new();
        build_callee(&mut dst);
        filler(&mut dst, "live", 2);
        let hole = filler(&mut dst, "hole", 3);
        let hole_addr = dst.addr_of(hole).unwrap();
        filler(&mut dst, "pad", 6);
        dst.free_function(hole).unwrap();
        let tail = dst.next_index();
        let (addr, _) = dst.install_function("caller", &words, orig_start).unwrap();
        assert_eq!(addr, hole_addr, "installed into the hole");
        let at = ((addr - CODE_BASE) / 4) as usize;
        assert!(at != orig_start && at != tail, "neither rebase is zero");
        let jal = Insn::decode(dst.fetch_exec(addr).unwrap()).unwrap();
        assert_eq!(jal.op, Op::Jal);
        let target = at as i64 + 1 + jal.imm as i64;
        assert_eq!(target, callee_word, "external jal still reaches the callee");
        assert_eq!(
            dst.function_at(CODE_BASE + target as u64 * 4),
            Some("callee")
        );
        assert_eq!(dst.next_index(), tail, "the tail rolled back");
    }

    #[test]
    fn install_function_reuses_free_holes() {
        // Install composes with relocation: the installed function lands
        // in a fitting hole, and internal branches survive both moves.
        let mut src = CodeSpace::new();
        let f = src.begin_function("f");
        src.push(Insn::i(Op::Addiw, A0, A0, 1));
        src.push(Insn::i(Op::Addiw, A0, A0, 2));
        src.push(Insn::ret());
        src.finish_function(f).unwrap();
        let (orig_start, words) = src.function_words(f).unwrap();

        let mut dst = CodeSpace::new();
        let a = dst.begin_function("a");
        for _ in 0..2 {
            dst.push(Insn::nop());
        }
        dst.push(Insn::ret());
        let addr_a = dst.finish_function(a).unwrap();
        let b = dst.begin_function("b");
        dst.push(Insn::ret());
        dst.finish_function(b).unwrap();
        dst.free_function(a).unwrap();
        let (addr, _) = dst.install_function("f", &words, orig_start).unwrap();
        assert_eq!(addr, addr_a, "installed function reuses the hole");
    }

    #[test]
    fn install_function_rejects_uninstallable_words_and_rolls_back() {
        let mut dst = CodeSpace::new();
        let before = dst.stats();
        // An undecodable raw word cannot be proven installable.
        let err = dst.install_function("junk", &[0xFFFF_FFFF], 0);
        assert!(matches!(err, Err(VmError::CodeLifecycle(_))));
        assert_eq!(dst.stats(), before, "failed install must roll back");
        // No words is no function: its address would be the next one's.
        let err = dst.install_function("empty", &[], 0);
        assert!(matches!(err, Err(VmError::CodeLifecycle(_))));
        assert_eq!(dst.stats(), before);
        // The space still works afterwards.
        let g = dst.begin_function("g");
        dst.push(Insn::ret());
        assert!(dst.finish_function(g).is_ok());
    }

    #[test]
    fn function_words_requires_sealed() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::ret());
        assert!(matches!(
            cs.function_words(f),
            Err(VmError::CodeLifecycle(_))
        ));
        cs.finish_function(f).unwrap();
        let (start, words) = cs.function_words(f).unwrap();
        assert_eq!(start, 0);
        assert_eq!(words.len(), 1);
        cs.free_function(f).unwrap();
        assert!(matches!(
            cs.function_words(f),
            Err(VmError::CodeLifecycle(_))
        ));
    }

    #[test]
    fn disassembly_contains_mnemonics() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::i(Op::Addiw, A0, A0, 1));
        cs.push(Insn::ret());
        seal(&mut cs, f);
        let d = cs.disassemble(f).unwrap();
        assert!(d.contains("addiw"));
        assert!(d.contains("jalr"));
    }
}
