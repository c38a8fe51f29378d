//! # tcc-cache — the dynamic-code lifecycle manager
//!
//! The paper's economics are amortization: dynamic code pays for itself
//! after its codegen cost is spread over enough runs (Figures 6-7). A
//! long-lived session serving many requests, however, keeps *re-paying*
//! that cost for identical closures and leaks code space for abandoned
//! ones. This crate closes the loop:
//!
//! * **Compile memoization** — the `compile` host call consults a
//!   [`CodeCache`] keyed on a structural [`Fingerprint`] of the closure
//!   (CGF identity, `$`-bound runtime-constant values, backend and
//!   options, and recursively the fingerprints of composed cspec/vspec
//!   closures). A hit returns the previously generated function address
//!   without walking the CGF at all. The memo is the record of what
//!   *this session* has in its code space, in every mode.
//! * **Every memo is a pool member** — a memo miss asks the session's
//!   pool of [`SharedArtifacts`] before compiling, and a compile is
//!   published there. A private session's pool is a pool of one: one
//!   shard, no budget. A [`PersistentStore`] is reached only through a
//!   pool ([`SharedArtifacts::attach_persist`]). Pool and store hand out
//!   the same `Arc<`[`Artifact`]`>`. A memo hit takes no lock: the
//!   entry holds its resident's CLOCK referenced bit.
//! * **Reclamation** — when the pool retires an artifact (its CLOCK
//!   budget evicts it, or it is invalidated), [`CodeCache::sync`] drops
//!   every session's local copy and returns its words to the
//!   `CodeSpace` free list (`free_function`), so the arena is recycled,
//!   not just abandoned; stale addresses fault with
//!   `VmError::StaleCode` instead of silently running reused bytes.
//!   The pool's budget is the only one: an unbounded pool never
//!   retires what it holds, and a session that needs a bound is a
//!   one-session pool with a budget.
//!
//! Fingerprints are *injective encodings*, not hashes: two closures
//! receive equal fingerprints only if their encodings are equal
//! byte-for-byte, so differing `$`-constants can never collide (a
//! property test in `tests/faults.rs` leans on this).
//!
//! Everything observable is reported through
//! [`tcc_obs::CacheMetrics`] — hits, misses, uncacheable compiles,
//! entries dropped by sync, live/reclaimed bytes, fragmentation, and
//! nanoseconds saved versus spent answering hits.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use tcc_obs::CacheMetrics;
use tcc_vm::{CodeSpace, FuncHandle, VmError};

pub mod persist;
pub mod shared;

pub use persist::{PersistentStore, FORMAT_VERSION};
pub use shared::{Acquire, Artifact, CompileClaim, SharedArtifacts, SlotState};

/// A structural, injective key for a dynamic closure.
///
/// Built with [`FingerprintBuilder`]; equality of fingerprints implies
/// byte-equality of the underlying length-delimited encodings, so
/// distinct closure structures or `$`-constant values cannot collide.
///
/// The encoding sits behind an `Arc`: the memo, the pool's shard map,
/// its eviction ring and retirement log, and an in-flight claim each
/// hold the one allocation, so copying a key is a reference-count bump.
///
/// A fingerprint also carries a 64-bit digest of its encoding,
/// computed once when it is built (or read back from a store file).
/// `Hash` feeds only the digest, so the maps keyed by fingerprints hash
/// eight bytes, not the ~1 KB encoding; `Eq` still compares the
/// encodings, so a digest collision costs a byte comparison and never
/// a wrong answer. The digest is unkeyed: encodings crafted to share a
/// digest can slow a map down to a scan of the colliding keys, nothing
/// more.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    bytes: Arc<[u8]>,
    digest: u64,
}

impl Fingerprint {
    /// Wraps an encoding (from the builder, or a stored key read back
    /// from a store file) and digests it.
    pub(crate) fn from_encoding(bytes: &[u8]) -> Fingerprint {
        Fingerprint {
            bytes: bytes.into(),
            digest: digest64(bytes),
        }
    }

    /// The encoding itself: what `Eq` compares and the store writes.
    pub(crate) fn encoding(&self) -> &[u8] {
        &self.bytes
    }

    /// The digest `Hash` feeds: a pure function of the encoding.
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }

    /// Length of the encoding in bytes (diagnostics).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the encoding is empty (never for built fingerprints).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl PartialEq for Fingerprint {
    fn eq(&self, other: &Fingerprint) -> bool {
        self.digest == other.digest && self.bytes == other.bytes
    }
}

impl Eq for Fingerprint {}

impl std::hash::Hash for Fingerprint {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

/// 64-bit digest of a fingerprint encoding: a folded 64×64→128-bit
/// multiply over 16 bytes per step (the wyhash construction), the tail
/// zero-padded and the length folded in last so padding is unambiguous.
fn digest64(bytes: &[u8]) -> u64 {
    const K0: u64 = 0x9E37_79B9_7F4A_7C15;
    const K1: u64 = 0xD6E8_FEB8_6659_FD93;
    fn fold(a: u64, b: u64) -> u64 {
        let wide = u128::from(a) * u128::from(b);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
    fn step(h: u64, pair: &[u8]) -> u64 {
        let lo = u64::from_le_bytes(pair[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(pair[8..].try_into().expect("8 bytes"));
        fold(lo ^ K1, hi ^ h)
    }
    let mut chunks = bytes.chunks_exact(16);
    let mut h = K0;
    for pair in &mut chunks {
        h = step(h, pair);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut pad = [0u8; 16];
        pad[..tail.len()].copy_from_slice(tail);
        h = step(h, &pad);
    }
    fold(h ^ K0, bytes.len() as u64 ^ K1)
}

/// Incrementally encodes a closure's identity into a [`Fingerprint`].
///
/// Every atom is tagged and length-delimited, so the final byte string
/// is an unambiguous (prefix-free) serialization of the sequence of
/// `push_*` calls: the encoding of `["ab", "c"]` differs from
/// `["a", "bc"]` and from `["abc"]`.
#[derive(Clone, Debug, Default)]
pub struct FingerprintBuilder {
    bytes: Vec<u8>,
}

impl FingerprintBuilder {
    /// Starts an empty fingerprint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a small structural tag (node kind, backend id, ...).
    pub fn push_tag(&mut self, tag: u8) {
        self.bytes.push(0x01);
        self.bytes.push(tag);
    }

    /// Appends a 64-bit value (a `$`-constant, CGF id, arity, ...).
    pub fn push_u64(&mut self, v: u64) {
        self.bytes.push(0x02);
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a byte string, length-delimited.
    pub fn push_bytes(&mut self, b: &[u8]) {
        self.bytes.push(0x03);
        self.bytes
            .extend_from_slice(&(b.len() as u64).to_le_bytes());
        self.bytes.extend_from_slice(b);
    }

    /// Opens a child scope (e.g. a nested cspec argument). Must be
    /// balanced by [`FingerprintBuilder::close`].
    pub fn open(&mut self, tag: u8) {
        self.bytes.push(0x04);
        self.bytes.push(tag);
    }

    /// Closes the innermost open scope.
    pub fn close(&mut self) {
        self.bytes.push(0x05);
    }

    /// Finishes the encoding.
    pub fn build(self) -> Fingerprint {
        Fingerprint::from_encoding(&self.bytes)
    }
}

/// One cached compilation.
#[derive(Clone, Debug)]
struct Entry {
    addr: u64,
    handle: FuncHandle,
    bytes: u64,
    /// Per-hit `ns_saved` credit. For a freshly compiled entry this is
    /// what the original compilation cost; for an entry installed from
    /// the pool it is `compile_ns − load_ns` (saturating) — a disk
    /// or pool hit only saved the *difference*, so crediting the full
    /// compile time would overstate the savings.
    credit_ns: u64,
    /// The CLOCK referenced bit of the pool's resident for this key (a
    /// bit of its own when none was resident at insert). A hit sets it;
    /// [`CodeCache::sync`] swaps in a republished resident's bit.
    referenced: Arc<AtomicBool>,
}

/// Memoization table for compiled closures: one entry per function
/// this session has installed, whether it compiled the function itself
/// or installed it from its pool. An entry leaves only when the pool
/// retires its artifact ([`CodeCache::sync`]).
///
/// The cache does not own the `CodeSpace`; a sync borrows it to call
/// `free_function`. All counters live in a [`CacheMetrics`] that the
/// session merges into its `SessionMetrics`.
#[derive(Debug)]
pub struct CodeCache {
    /// The pool this memo is a member of: shared between sessions, or
    /// this session's own pool of one.
    pool: Arc<SharedArtifacts>,
    entries: HashMap<Fingerprint, Entry>,
    bytes_live: u64,
    /// The pool generation [`CodeCache::sync`] last reconciled against.
    generation_seen: u64,
    /// How far into the pool's retirement log [`CodeCache::sync`] has
    /// processed.
    retire_cursor: u64,
    /// Scratch for the keys a sync reads from the log.
    retired: Vec<Fingerprint>,
    metrics: CacheMetrics,
}

impl Default for CodeCache {
    fn default() -> Self {
        Self::new()
    }
}

impl CodeCache {
    /// An empty memo in a pool of its own: one shard, no budget.
    pub fn new() -> Self {
        Self::in_pool(SharedArtifacts::new(1, None))
    }

    /// An empty memo that is a member of `pool`.
    pub fn in_pool(pool: Arc<SharedArtifacts>) -> Self {
        CodeCache {
            pool,
            entries: HashMap::new(),
            bytes_live: 0,
            generation_seen: 0,
            retire_cursor: 0,
            retired: Vec::new(),
            metrics: CacheMetrics::default(),
        }
    }

    /// The pool a miss asks and a compile is published to.
    pub fn pool(&self) -> &Arc<SharedArtifacts> {
        &self.pool
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a fingerprint; on a hit, credits `ns_saved` with the
    /// entry's credit and returns the cached function address. A hit
    /// counts in the pool and sets the resident's referenced bit, with
    /// no lock taken and no map probed but this one.
    pub fn lookup(&mut self, fp: &Fingerprint) -> Option<u64> {
        let e = self.entries.get(fp)?;
        shared::reference(&e.referenced);
        self.pool.count_hit();
        self.metrics.hits += 1;
        self.metrics.ns_saved += e.credit_ns;
        Some(e.addr)
    }

    /// Records nanoseconds spent answering a `compile` call without
    /// compiling (the whole intercept: fingerprint, lookup and, for a
    /// function installed from the pool, load and install) so reports
    /// can compare saved vs. spent time.
    pub fn note_hit_ns(&mut self, ns: u64) {
        self.metrics.hit_ns += ns;
    }

    /// Records a compile that bypassed the cache entirely (memory-reading
    /// `$`-expression, external relocation table, ...).
    pub fn note_uncacheable(&mut self) {
        self.metrics.uncacheable += 1;
    }

    /// Records a function this session just put in `code`. `fetched_in`
    /// says how the function came to be:
    ///
    /// * `None` — compiled here. Counts a miss; every later hit is
    ///   credited `compile_ns`.
    /// * `Some(load_ns)` — installed from the pool (or its store) at
    ///   that cost and installed. The compile was *answered*, so it
    ///   counts a hit, and every credit — this one and each later
    ///   hit's — is `compile_ns − load_ns` (saturating): the fetch
    ///   saved the compile minus what the fetch itself cost.
    ///
    /// # Errors
    ///
    /// `handle` is not a sealed function of `code`.
    pub fn insert(
        &mut self,
        code: &mut CodeSpace,
        fp: Fingerprint,
        addr: u64,
        handle: FuncHandle,
        compile_ns: u64,
        fetched_in: Option<u64>,
    ) -> Result<(), VmError> {
        let bytes = code.size_of(handle)?;
        let credit_ns = compile_ns.saturating_sub(fetched_in.unwrap_or(0));
        if fetched_in.is_some() {
            self.metrics.hits += 1;
            self.metrics.ns_saved += credit_ns;
        } else {
            self.metrics.misses += 1;
        }
        self.bytes_live += bytes;
        let referenced = self.pool.resident_bit(&fp).unwrap_or_default();
        self.entries.insert(
            fp,
            Entry {
                addr,
                handle,
                bytes,
                credit_ns,
                referenced,
            },
        );
        Ok(())
    }

    /// Forgets the entry for `fp` and frees its code: the address it
    /// handed out faults `VmError::StaleCode` from here on.
    fn drop_entry(&mut self, code: &mut CodeSpace, fp: &Fingerprint) -> Result<(), VmError> {
        let e = self.entries.remove(fp).expect("caller found the entry");
        let freed = code.free_function(e.handle)?;
        debug_assert_eq!(freed, e.bytes);
        self.bytes_live -= e.bytes;
        self.metrics.evictions += 1;
        self.metrics.bytes_reclaimed += freed;
        Ok(())
    }

    /// Reconciles the memo with the pool after an eviction or
    /// invalidation (a no-op while the pool's generation stamp has not
    /// moved): drops every entry whose key is no longer resident and
    /// frees its code, so its address faults `VmError::StaleCode`. The
    /// only way an entry leaves the memo. A kept entry whose key the
    /// pool republished takes the new resident's referenced bit.
    ///
    /// Only the keys the pool's retirement log names since the last
    /// sync are candidates, one shard probe per candidate this memo
    /// holds; a memo the log has lapped probes every entry instead. The
    /// cursor moves past a key only once it is dealt with, so an error
    /// leaves the rest for the next sync.
    pub fn sync(&mut self, code: &mut CodeSpace) -> Result<(), VmError> {
        let generation = self.pool.generation();
        if generation == self.generation_seen {
            return Ok(());
        }
        let mut keys = std::mem::take(&mut self.retired);
        let done = match self.pool.retired_since(self.retire_cursor, &mut keys) {
            Ok(()) => keys.iter().try_for_each(|fp| {
                self.reconcile(code, fp)?;
                self.retire_cursor += 1;
                Ok(())
            }),
            Err(head) => {
                keys.extend(self.entries.keys().cloned());
                let done = keys.iter().try_for_each(|fp| self.reconcile(code, fp));
                if done.is_ok() {
                    self.retire_cursor = head;
                }
                done
            }
        };
        keys.clear();
        self.retired = keys;
        done?;
        self.generation_seen = generation;
        Ok(())
    }

    /// Keeps the entry for `fp`, if any, with its resident's current
    /// bit while the pool holds the key; drops it otherwise.
    fn reconcile(&mut self, code: &mut CodeSpace, fp: &Fingerprint) -> Result<(), VmError> {
        let Some(e) = self.entries.get_mut(fp) else {
            return Ok(());
        };
        match self.pool.probe_for_sync(fp) {
            Some(bit) => e.referenced = bit,
            None => self.drop_entry(code, fp)?,
        }
        Ok(())
    }

    /// Current counters, with live bytes and code-space occupancy
    /// (fragmentation, reclaimed bytes) folded in from `code`.
    pub fn metrics(&self, code: &CodeSpace) -> CacheMetrics {
        let stats = code.stats();
        CacheMetrics {
            bytes_live: self.bytes_live,
            fragmentation: stats.fragmentation(),
            ..self.metrics
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_vm::isa::Insn;

    fn fp(n: u64) -> Fingerprint {
        let mut b = FingerprintBuilder::new();
        b.push_tag(1);
        b.push_u64(n);
        b.build()
    }

    /// Emits a sealed `words`-word function and returns (addr, handle).
    fn emit(code: &mut CodeSpace, words: usize) -> (u64, FuncHandle) {
        let f = code.begin_function("f");
        for _ in 0..words.saturating_sub(1) {
            code.push(Insn::nop());
        }
        code.push(Insn::ret());
        let addr = code.finish_function(f).expect("seals");
        (addr, f)
    }

    #[test]
    fn sync_drops_what_the_pool_retired() {
        let mut code = CodeSpace::new();
        let shared = SharedArtifacts::unbounded();
        let mut cache = CodeCache::in_pool(Arc::clone(&shared));
        for n in [1, 2] {
            let Acquire::Miss(claim) = shared.get_or_begin(&fp(n)) else {
                panic!("first request claims");
            };
            claim.publish(Artifact {
                name: format!("f{n}"),
                orig_start: 0,
                words: vec![0; 4],
                bytes: 16,
                compile_ns: 100,
                translation: None,
            });
        }
        let (a, ha) = emit(&mut code, 4);
        cache.insert(&mut code, fp(1), a, ha, 100, None).unwrap();
        let (b, hb) = emit(&mut code, 4);
        cache.insert(&mut code, fp(2), b, hb, 100, None).unwrap();

        assert!(shared.invalidate(&fp(1)));
        assert_eq!(cache.len(), 2, "nothing leaves before a sync");
        cache.sync(&mut code).unwrap();
        assert_eq!(
            cache.lookup(&fp(1)),
            None,
            "the entry left with the artifact"
        );
        assert!(matches!(code.fetch_exec(a), Err(VmError::StaleCode(_))));
        assert_eq!(cache.lookup(&fp(2)), Some(b));
        assert!(code.fetch_exec(b).is_ok());
        let m = cache.metrics(&code);
        assert_eq!((m.evictions, m.bytes_reclaimed, m.bytes_live), (1, 16, 16));
        // The memo's books agree with the code space's own.
        assert_eq!(code.stats().reclaimed_words as u64 * 4, m.bytes_reclaimed);
        // The stamp has not moved since: nothing is rescanned or dropped.
        cache.sync(&mut code).unwrap();
        assert_eq!(cache.len(), 1);
    }

    fn shared_art(words: usize) -> Artifact {
        Artifact {
            name: String::new(),
            orig_start: 0,
            words: vec![0; words],
            bytes: (words * 4) as u64,
            compile_ns: 100,
            translation: None,
        }
    }

    /// One session of a scripted pool: its code space, its memo, and
    /// the key set the memo must hold under the full-scan rule (on a
    /// generation move, keep exactly the keys the pool holds).
    struct Member {
        code: CodeSpace,
        memo: CodeCache,
        model: std::collections::BTreeSet<u64>,
        model_generation: u64,
    }

    impl Member {
        fn new(pool: &Arc<SharedArtifacts>) -> Member {
            Member {
                code: CodeSpace::new(),
                memo: CodeCache::in_pool(Arc::clone(pool)),
                model: Default::default(),
                model_generation: 0,
            }
        }

        /// Asks for key `n`: a memo hit is counted by the memo itself;
        /// otherwise the pool's artifact is installed, or compiled
        /// (`words` long) and published.
        fn request(&mut self, n: u64, words: usize) {
            let key = fp(n);
            if self.memo.lookup(&key).is_some() {
                return;
            }
            let fetched = match self.memo.pool().get_or_begin(&key) {
                Acquire::Hit { artifact, .. } => Some(artifact.words.len()),
                Acquire::Miss(claim) => {
                    claim.publish(shared_art(words));
                    None
                }
            };
            let (addr, h) = emit(&mut self.code, fetched.unwrap_or(words));
            self.memo
                .insert(&mut self.code, key, addr, h, 100, fetched.map(|_| 1))
                .unwrap();
            self.model.insert(n);
        }

        /// Syncs, and checks the memo kept what a full scan keeps.
        /// Returns whether the log had lapped this member.
        fn sync(&mut self, keys: u64) -> bool {
            let shared = Arc::clone(self.memo.pool());
            let lapped = shared
                .retired_since(self.memo.retire_cursor, &mut Vec::new())
                .is_err();
            if shared.generation() != self.model_generation {
                self.model_generation = shared.generation();
                self.model.retain(|&n| shared.contains(&fp(n)));
            }
            self.memo.sync(&mut self.code).unwrap();
            let held: std::collections::BTreeSet<u64> = (0..keys)
                .filter(|&n| self.memo.entries.contains_key(&fp(n)))
                .collect();
            assert_eq!(held, self.model);
            assert_eq!(self.memo.len(), held.len(), "no key outside the script");
            lapped
        }
    }

    /// A seeded script of publishes, hits, budget evictions,
    /// invalidations, re-publishes, oversized publishes and syncs over
    /// one pool and two memos; returns how many syncs found the log
    /// lapped.
    fn log_sync_script(seed: u64, log_capacity: usize) -> usize {
        const KEYS: u64 = 24;
        let shared = SharedArtifacts::with_log_capacity(4, Some(160), log_capacity);
        let mut members = [Member::new(&shared), Member::new(&shared)];
        let mut state = seed | 1;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut lapped = 0;
        for _ in 0..4000 {
            let who = next(2) as usize;
            let member = &mut members[who];
            match next(16) {
                // Sync: rarely enough that retirements pile up.
                0 | 1 => lapped += usize::from(member.sync(KEYS)),
                2 => {
                    shared.invalidate(&fp(next(KEYS)));
                }
                // An artifact over the whole 160-byte budget.
                3 => member.request(next(KEYS), 50),
                _ => {
                    let n = next(KEYS);
                    member.request(n, 2 + (n % 5) as usize);
                }
            }
        }
        for member in &mut members {
            member.sync(KEYS);
        }
        let m = shared.metrics();
        assert!(m.evictions > 500 && m.invalidations > 50 && m.uncacheable > 50);
        lapped
    }

    #[test]
    fn log_driven_sync_keeps_what_the_full_scan_keeps() {
        for seed in [1, 7, 42] {
            assert_eq!(log_sync_script(seed, shared::RETIRE_LOG), 0, "never lapped");
            assert!(log_sync_script(seed, 3) > 50, "the fallback ran");
        }
    }

    #[test]
    fn one_retirement_costs_a_full_memo_one_probe() {
        let shared = SharedArtifacts::unbounded();
        let (mut code, mut memo) = (CodeSpace::new(), CodeCache::in_pool(Arc::clone(&shared)));
        for n in 0..40 {
            let Acquire::Miss(claim) = shared.get_or_begin(&fp(n)) else {
                panic!("first request claims");
            };
            claim.publish(shared_art(4));
            let (a, h) = emit(&mut code, 4);
            memo.insert(&mut code, fp(n), a, h, 100, None).unwrap();
        }
        memo.sync(&mut code).unwrap();
        assert_eq!(shared.metrics().sync_probes, 0, "nothing retired yet");
        assert!(shared.invalidate(&fp(17)));
        memo.sync(&mut code).unwrap();
        assert_eq!(shared.metrics().sync_probes, 1);
        assert_eq!(memo.len(), 39);
        assert_eq!(memo.lookup(&fp(17)), None);
        // A key this memo never held costs no probe.
        let Acquire::Miss(claim) = shared.get_or_begin(&fp(99)) else {
            panic!("first request claims");
        };
        claim.publish(shared_art(4));
        assert!(shared.invalidate(&fp(99)));
        memo.sync(&mut code).unwrap();
        assert_eq!(shared.metrics().sync_probes, 1);
        assert_eq!(memo.len(), 39);
    }

    #[test]
    fn fingerprints_are_injective_over_structure() {
        // ["ab","c"] vs ["a","bc"] vs ["abc"]: length delimiting keeps
        // them distinct even though the concatenated payloads agree.
        let enc = |parts: &[&str]| {
            let mut b = FingerprintBuilder::new();
            for p in parts {
                b.push_bytes(p.as_bytes());
            }
            b.build()
        };
        assert_ne!(enc(&["ab", "c"]), enc(&["a", "bc"]));
        assert_ne!(enc(&["ab", "c"]), enc(&["abc"]));
        // Scoping distinguishes nesting shapes.
        let nested = |split| {
            let mut b = FingerprintBuilder::new();
            b.open(7);
            b.push_u64(1);
            if split {
                b.close();
                b.open(7);
            }
            b.push_u64(2);
            b.close();
            b.build()
        };
        assert_ne!(nested(true), nested(false));
        // And u64 atoms cannot masquerade as tags or bytes.
        let mut a = FingerprintBuilder::new();
        a.push_u64(0x01_02);
        let mut b = FingerprintBuilder::new();
        b.push_tag(0x02);
        assert_ne!(a.build(), b.build());
    }

    #[test]
    fn digest_is_a_pure_function_of_the_encoding() {
        let mut b = FingerprintBuilder::new();
        b.push_u64(7);
        b.push_bytes(&[0xAB; 100]);
        let built = b.build();
        let reread = Fingerprint::from_encoding(built.encoding());
        assert_eq!(built, reread);
        assert_eq!(built.digest(), reread.digest());
        // Equal-length encodings differing in one byte are unequal
        // whatever their digests do; on this fixed input the digests
        // differ too (a quality check, not a guarantee).
        for i in 0..built.len() {
            let mut bytes = built.encoding().to_vec();
            bytes[i] ^= 1;
            let other = Fingerprint::from_encoding(&bytes);
            assert_ne!(other, built, "byte {i}");
            assert_ne!(other.digest(), built.digest(), "byte {i}");
        }
        // Zero padding of the tail is not confused with real zeros.
        let short = Fingerprint::from_encoding(&[1]);
        let long = Fingerprint::from_encoding(&[1, 0]);
        assert_ne!(short, long);
        assert_ne!(short.digest(), long.digest());
    }

    #[test]
    fn hit_returns_cached_addr_and_counts() {
        let mut code = CodeSpace::new();
        let mut cache = CodeCache::new();
        assert_eq!(cache.lookup(&fp(1)), None);
        let (addr, h) = emit(&mut code, 4);
        cache
            .insert(&mut code, fp(1), addr, h, 1000, None)
            .expect("inserts");
        assert_eq!(cache.lookup(&fp(1)), Some(addr));
        assert_eq!(cache.lookup(&fp(2)), None);
        let m = cache.metrics(&code);
        assert_eq!(m.hits, 1);
        assert_eq!(m.misses, 1);
        assert_eq!(m.ns_saved, 1000);
        assert_eq!(m.bytes_live, 16);
    }

    #[test]
    fn disk_loaded_entries_credit_compile_minus_load() {
        let mut code = CodeSpace::new();
        let mut cache = CodeCache::new();
        let (addr, h) = emit(&mut code, 4);
        // A disk hit that cost 300 ns against a 1000 ns compile saved
        // 700 ns — now, and on every future hit.
        cache
            .insert(&mut code, fp(1), addr, h, 1000, Some(300))
            .expect("inserts");
        let m = cache.metrics(&code);
        assert_eq!(m.misses, 0, "a disk hit is not a compile miss");
        assert_eq!(m.hits, 1, "the disk hit counts as a hit");
        assert_eq!(m.ns_saved, 700);
        assert_eq!(cache.lookup(&fp(1)), Some(addr));
        assert_eq!(cache.metrics(&code).ns_saved, 1400);
        // A load slower than the compile saturates to zero credit —
        // never an underflow panic.
        let (b, hb) = emit(&mut code, 4);
        cache
            .insert(&mut code, fp(2), b, hb, 100, Some(500))
            .expect("inserts");
        assert_eq!(cache.metrics(&code).ns_saved, 1400);
    }
}
