//! Multi-tenant shared artifact cache: the compile-once layer behind
//! `tcc-serve`.
//!
//! A single process running N worker sessions should pay for one
//! compile per unique closure, not N. [`SharedArtifacts`] is a
//! process-wide, thread-safe map from [`Fingerprint`] to an immutable
//! `Arc`'d [`Artifact`] — the sealed function's words. Sessions install
//! an artifact's words into their own `CodeSpace` (`install_function`
//! rebases external calls) and each decodes its own copy at its first
//! entry, so the artifact never aliases mutable VM state and is safe to
//! hand to any thread.
//!
//! Three design points, in the order they matter:
//!
//! * **Sharding** — the map is split over `N` mutex shards selected by
//!   hashing the fingerprint, so concurrent sessions touching different
//!   closures never contend on one lock. Shard locks are held only for
//!   map operations, never across a compile or a wait.
//! * **In-flight slots** — the first requester of an absent fingerprint
//!   *claims* it ([`Acquire::Miss`]) and compiles; concurrent
//!   requesters find the in-flight slot and block on its condvar
//!   instead of duplicating the compile. A claim dropped without
//!   publishing (compile failed) aborts the slot and wakes waiters to
//!   retry, so a crash cannot wedge a fingerprint forever.
//! * **CLOCK under a global byte budget** — publishing past the budget
//!   evicts by CLOCK, the second-chance approximation of LRU: one ring
//!   of residents in publish order, a referenced bit that a hit sets,
//!   and a hand that clears set bits and evicts the first resident it
//!   finds clear. A hit writes one bit; an eviction costs the slots the
//!   hand passes, not a scan of the map.
//! * **A retirement log** — every eviction or explicit invalidation
//!   moves the retired key into a bounded log and bumps a
//!   [`SharedArtifacts::generation`] stamp. Sessions that installed
//!   copies of dropped artifacts observe the bump, read the keys
//!   retired since they last looked, free those local copies
//!   (`free_function` → epoch bump), and stale addresses fault
//!   `VmError::StaleCode` exactly as in the single-threaded lifecycle.
//!   A sync costs what was retired, not what the session holds.
//!
//! Counters surface through [`tcc_obs::SharedCacheMetrics`];
//! `crates/serve/tests/concurrency.rs` gates the resulting hit rate and
//! compiles-per-unique-fingerprint.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};

use tcc_obs::{PersistMetrics, SharedCacheMetrics};

use crate::persist::PersistentStore;
use crate::Fingerprint;

/// Default shard count: enough to make cross-thread contention on
/// distinct fingerprints unlikely at the pool sizes
/// `crates/serve/tests/concurrency.rs` drives (N ≤ 4 threads). Nothing
/// walks every shard on the publish or hit path, so more shards cost
/// only memory.
pub const DEFAULT_SHARDS: usize = 16;

/// Keys the retirement log keeps: how many retirements a session may
/// fall behind and still sync by probing only what was retired. A
/// constant, not a knob: a session syncs before every call, and one
/// further behind only pays the old probe of every memo entry.
pub(crate) const RETIRE_LOG: usize = 128;

/// Passes [`SharedArtifacts::enforce_budget`] will attempt before
/// giving up (each pass evicts at most one artifact; a pass can also
/// lose a race and evict nothing). Purely a runaway backstop.
const MAX_EVICT_PASSES: usize = 4096;

/// One compiled closure, immutable and shareable across threads: the
/// one record a shard publishes, a [`PersistentStore`] records and
/// reads back, and a session installs from — always behind the same
/// `Arc`, never converted or copied between the three.
///
/// Everything a session needs to *install* the function into its own
/// `CodeSpace` — no addresses, no handles, no references into any VM.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Function name (diagnostics; install reuses it).
    pub name: String,
    /// Start word index the words were sealed at in the compiling
    /// session's code space; `install_function` rebases external
    /// control transfers relative to this.
    pub orig_start: usize,
    /// The sealed function's encoded words.
    pub words: Vec<u32>,
    /// Code size in bytes (`words.len() * 4`), the budget unit.
    pub bytes: u64,
    /// What the original compilation cost (hit-side savings signal).
    pub compile_ns: u64,
    /// Always `None`: an artifact carries no decoded form, since every
    /// session decodes its own install at the function's first entry.
    /// Kept only so the repo benchmark's `Artifact { .., translation:
    /// None }` literal still compiles, as [`SharedArtifacts::touch`] is
    /// kept for its caller there; the field goes once that literal
    /// drops it.
    pub translation: Option<std::convert::Infallible>,
}

/// What a fingerprint request resolved to.
pub enum Acquire {
    /// An artifact was already published (or became published while we
    /// waited on the in-flight compile).
    Hit {
        /// The shared artifact.
        artifact: Arc<Artifact>,
        /// Whether this request blocked on another requester's
        /// in-flight compile rather than finding the artifact ready.
        waited: bool,
    },
    /// This requester claimed the fingerprint: it must compile and
    /// [`CompileClaim::publish`] (or drop the claim to abort).
    Miss(CompileClaim),
}

/// Nonblocking view of a fingerprint's slot, for deterministic
/// interleaving tests and diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotState {
    /// No slot: the next requester will claim it.
    Absent,
    /// A compile is in flight; requesters block on it.
    InFlight,
    /// A published artifact is resident.
    Ready,
}

/// The exclusive right (and obligation) to compile one fingerprint.
/// Returned by [`SharedArtifacts::get_or_begin`] on a miss. Publishing
/// stores the artifact and wakes waiters; dropping without publishing
/// aborts the slot and wakes waiters to retry.
pub struct CompileClaim {
    owner: Arc<SharedArtifacts>,
    fp: Fingerprint,
    slot: Arc<InFlight>,
    done: bool,
}

struct InFlight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

enum FlightState {
    Pending,
    Done(Arc<Artifact>),
    Aborted,
}

/// A published artifact as the pool holds it. The shard map owns it;
/// the CLOCK ring only points at it, so a resident that leaves the map
/// frees its artifact at once, and its ring slot is dropped when the
/// hand (or a sweep) next reaches it.
struct Resident {
    fp: Fingerprint,
    artifact: Arc<Artifact>,
    /// Set by a hit, cleared by the hand passing: a resident the hand
    /// finds set gets a second chance. Every memo entry for the key
    /// holds the same bit, so a memo hit sets it without a probe.
    referenced: Arc<AtomicBool>,
}

/// Sets a referenced bit, writing the shared line only when the bit
/// was clear.
pub(crate) fn reference(bit: &AtomicBool) {
    if !bit.load(Ordering::Relaxed) {
        bit.store(true, Ordering::Relaxed);
    }
}

enum Slot {
    Ready(Arc<Resident>),
    InFlight(Arc<InFlight>),
}

/// Keys retired (evicted, invalidated, or declined at publish), oldest
/// first: what [`SharedArtifacts::retired_since`] replays to sessions.
#[derive(Default)]
struct RetireLog {
    /// Sequence number of `keys[0]`; `base + keys.len()` is the head.
    base: u64,
    keys: VecDeque<Fingerprint>,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<Fingerprint, Slot>,
}

/// Recovers the guard from a poisoned mutex: every critical section in
/// this module is a handful of map operations that leave the shard
/// consistent, so a panic elsewhere must not wedge the whole cache.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The sharded, fingerprint-keyed shared artifact cache. Construct
/// with [`SharedArtifacts::new`] (always behind an `Arc`; claims keep
/// the cache alive through it).
pub struct SharedArtifacts {
    shards: Vec<Mutex<Shard>>,
    /// Global byte budget over all published artifacts; `None` =
    /// unbounded.
    budget: Option<u64>,
    /// Bytes held by published artifacts.
    bytes_live: AtomicU64,
    /// Published artifacts resident.
    entries: AtomicU64,
    /// The CLOCK ring: one slot per resident in publish order, the
    /// hand at the front (kept only under a budget). A leaf lock: never
    /// held while a shard lock is taken.
    ring: Mutex<VecDeque<Weak<Resident>>>,
    /// Bumped on every eviction or invalidation, after the retired key
    /// is logged. Sessions compare against the value they last synced
    /// at and then read the log.
    generation: AtomicU64,
    /// The retirement log (a leaf lock, like `ring`).
    retired: Mutex<RetireLog>,
    /// Keys `retired` keeps.
    log_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    published: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    uncacheable: AtomicU64,
    clock_steps: AtomicU64,
    sync_probes: AtomicU64,
    /// Optional on-disk persistence: attached once per process
    /// ([`SharedArtifacts::attach_persist`]); disk fills answer misses
    /// before an in-flight compile slot is claimed, publishes are
    /// recorded, and invalidations tombstone. Lock order: shard lock →
    /// persist lock (the persist mutex is a leaf — it never takes a
    /// shard lock while held; the same goes for `ring` and `retired`).
    persist: Mutex<Option<PersistentStore>>,
}

impl std::fmt::Debug for SharedArtifacts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedArtifacts")
            .field("shards", &self.shards.len())
            .field("budget", &self.budget)
            .field("entries", &self.entries.load(Ordering::Relaxed))
            .field("bytes_live", &self.bytes_live.load(Ordering::Relaxed))
            .finish()
    }
}

impl SharedArtifacts {
    /// A cache with `shards` mutex shards (min 1) and an optional
    /// global byte budget.
    pub fn new(shards: usize, budget: Option<u64>) -> Arc<SharedArtifacts> {
        Self::with_log_capacity(shards, budget, RETIRE_LOG)
    }

    /// [`SharedArtifacts::new`] with a retirement log of `log_capacity`
    /// keys (min 1), so tests can lap a session cheaply.
    pub(crate) fn with_log_capacity(
        shards: usize,
        budget: Option<u64>,
        log_capacity: usize,
    ) -> Arc<SharedArtifacts> {
        let n = shards.max(1);
        Arc::new(SharedArtifacts {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            budget,
            bytes_live: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
            generation: AtomicU64::new(0),
            retired: Mutex::new(RetireLog::default()),
            log_capacity: log_capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            published: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            uncacheable: AtomicU64::new(0),
            clock_steps: AtomicU64::new(0),
            sync_probes: AtomicU64::new(0),
            persist: Mutex::new(None),
        })
    }

    /// Opens the store at `path` under `abi_salt` and attaches it.
    /// First attach wins: a later call returns false without touching
    /// the file, so every member of a pool can ask. From here on,
    /// misses consult the store before claiming a compile slot,
    /// publishes are recorded, and invalidations tombstone on the next
    /// flush.
    pub fn attach_persist(&self, path: impl Into<PathBuf>, abi_salt: u64) -> bool {
        let mut p = lock(&self.persist);
        if p.is_some() {
            return false;
        }
        *p = Some(PersistentStore::open(path, abi_salt));
        true
    }

    /// Flushes the attached store (atomic temp-file + rename). A
    /// no-op `Ok` when no store is attached; an error when the store
    /// is read-only (another process holds the writer lock) or the
    /// write fails.
    pub fn flush_persist(&self) -> std::io::Result<()> {
        match lock(&self.persist).as_mut() {
            Some(store) => store.flush(),
            None => Ok(()),
        }
    }

    /// Counters of the attached store, if any.
    pub fn persist_metrics(&self) -> Option<PersistMetrics> {
        lock(&self.persist).as_ref().map(|s| s.metrics())
    }

    /// An unbounded cache with [`DEFAULT_SHARDS`] shards.
    pub fn unbounded() -> Arc<SharedArtifacts> {
        Self::new(DEFAULT_SHARDS, None)
    }

    /// A budget-bounded cache with [`DEFAULT_SHARDS`] shards.
    pub fn with_budget(budget: u64) -> Arc<SharedArtifacts> {
        Self::new(DEFAULT_SHARDS, Some(budget))
    }

    /// Published artifacts currently resident.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// True when nothing is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_for(&self, fp: &Fingerprint) -> &Mutex<Shard> {
        &self.shards[(fp.digest() % self.shards.len() as u64) as usize]
    }

    /// Resolves `fp`: a published artifact is a [`Acquire::Hit`]; an
    /// in-flight compile blocks until it publishes or aborts (abort
    /// retries from the top, so exactly one requester ends up
    /// compiling); an absent fingerprint is claimed and returned as
    /// [`Acquire::Miss`] — the caller must compile and publish (or
    /// drop the claim).
    ///
    /// Shard locks are never held while waiting; the wait is on the
    /// in-flight slot's own condvar.
    pub fn get_or_begin(self: &Arc<Self>, fp: &Fingerprint) -> Acquire {
        loop {
            let inflight = {
                let mut shard = lock(self.shard_for(fp));
                match shard.entries.get(fp) {
                    Some(Slot::Ready(resident)) => {
                        reference(&resident.referenced);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Acquire::Hit {
                            artifact: Arc::clone(&resident.artifact),
                            waited: false,
                        };
                    }
                    Some(Slot::InFlight(slot)) => Arc::clone(slot),
                    None => {
                        // Disk fill: a persisted artifact answers the
                        // miss before an in-flight slot is claimed, so
                        // a warm-started process never recompiles what
                        // a previous process published. The shard
                        // guard must drop before `enforce_budget`
                        // (which takes shard locks itself).
                        if let Some(artifact) = self.persist_fill(fp, &mut shard) {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            drop(shard);
                            self.enforce_budget();
                            return Acquire::Hit {
                                artifact,
                                waited: false,
                            };
                        }
                        let slot = Arc::new(InFlight {
                            state: Mutex::new(FlightState::Pending),
                            cv: Condvar::new(),
                        });
                        shard
                            .entries
                            .insert(fp.clone(), Slot::InFlight(Arc::clone(&slot)));
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        return Acquire::Miss(CompileClaim {
                            owner: Arc::clone(self),
                            fp: fp.clone(),
                            slot,
                            done: false,
                        });
                    }
                }
            };
            // Found someone else's in-flight compile: wait it out.
            self.waits.fetch_add(1, Ordering::Relaxed);
            let mut st = lock(&inflight.state);
            loop {
                match &*st {
                    FlightState::Pending => {
                        st = inflight.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                    FlightState::Done(artifact) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Acquire::Hit {
                            artifact: Arc::clone(artifact),
                            waited: true,
                        };
                    }
                    // The compiler aborted: race for the claim again.
                    FlightState::Aborted => break,
                }
            }
        }
    }

    /// Consults the attached persistent store for `fp` and, on a disk
    /// hit — `load` has by then CRC-checked and decoded the frame and
    /// matched its key; a frame that fails is a miss here — publishes
    /// the loaded artifact into the (already locked) shard as `Ready`.
    /// The caller still holds the shard lock — it must drop it before
    /// calling `enforce_budget`.
    fn persist_fill(&self, fp: &Fingerprint, shard: &mut Shard) -> Option<Arc<Artifact>> {
        let loaded = lock(&self.persist).as_mut()?.load(fp);
        let (artifact, _load_ns) = loaded?;
        self.make_ready(shard, fp, &artifact);
        Some(artifact)
    }

    /// Makes `artifact` the resident answer for `fp` in its (locked)
    /// shard, on the books and, under a budget, unreferenced at the
    /// back of the CLOCK ring.
    fn make_ready(&self, shard: &mut Shard, fp: &Fingerprint, artifact: &Arc<Artifact>) {
        let resident = Arc::new(Resident {
            fp: fp.clone(),
            artifact: Arc::clone(artifact),
            referenced: Arc::default(),
        });
        if self.budget.is_some() {
            let mut ring = lock(&self.ring);
            // Slots of invalidated residents wait for the hand, which
            // moves only over budget: sweep them out once they
            // outnumber the live ones, so the ring stays O(resident).
            if ring.len() > 2 * self.len() + 32 {
                ring.retain(|slot| slot.strong_count() > 0);
            }
            ring.push_back(Arc::downgrade(&resident));
        }
        shard.entries.insert(fp.clone(), Slot::Ready(resident));
        self.bytes_live.fetch_add(artifact.bytes, Ordering::Relaxed);
        self.entries.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes the resident answer for `fp` out of its (locked) shard and
    /// off the books, returning the map's own key for the log.
    fn take_ready(&self, shard: &mut Shard, fp: &Fingerprint) -> Option<Fingerprint> {
        if !matches!(shard.entries.get(fp), Some(Slot::Ready(_))) {
            return None;
        }
        let (key, Slot::Ready(resident)) = shard.entries.remove_entry(fp)? else {
            unreachable!("checked Ready above");
        };
        self.bytes_live
            .fetch_sub(resident.artifact.bytes, Ordering::Relaxed);
        self.entries.fetch_sub(1, Ordering::Relaxed);
        Some(key)
    }

    /// Logs a retired key, dropping the oldest past the log's capacity,
    /// then bumps the generation if a resident left — in that order, so
    /// a session that sees the bump finds the key in the log.
    fn retire(&self, key: Fingerprint, resident_left: bool) {
        {
            let mut log = lock(&self.retired);
            log.keys.push_back(key);
            if log.keys.len() > self.log_capacity {
                log.keys.pop_front();
                log.base += 1;
            }
        }
        if resident_left {
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Appends the keys retired since `cursor` (a log sequence number:
    /// 0, or where a previous call left the caller) to `out`, each
    /// once. `Err(head)` when the log has dropped some of them: the
    /// caller must check everything it holds, and may then resume from
    /// `head`.
    pub(crate) fn retired_since(&self, cursor: u64, out: &mut Vec<Fingerprint>) -> Result<(), u64> {
        let log = lock(&self.retired);
        match cursor.checked_sub(log.base) {
            Some(skip) => {
                out.extend(log.keys.range(skip as usize..).cloned());
                Ok(())
            }
            None => Err(log.base + log.keys.len() as u64),
        }
    }

    /// [`SharedArtifacts::resident_bit`], counted as a sync probe.
    pub(crate) fn probe_for_sync(&self, fp: &Fingerprint) -> Option<Arc<AtomicBool>> {
        self.sync_probes.fetch_add(1, Ordering::Relaxed);
        self.resident_bit(fp)
    }

    /// The referenced bit of `fp`'s resident, if one is published: what
    /// a memo entry keeps so that its hits reach the CLOCK.
    pub(crate) fn resident_bit(&self, fp: &Fingerprint) -> Option<Arc<AtomicBool>> {
        match lock(self.shard_for(fp)).entries.get(fp) {
            Some(Slot::Ready(resident)) => Some(Arc::clone(&resident.referenced)),
            _ => None,
        }
    }

    /// Counts a hit that a memo answered from its own entry (which set
    /// the resident's referenced bit itself).
    pub(crate) fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Nonblocking slot inspection (deterministic interleaving tests).
    pub fn poll(&self, fp: &Fingerprint) -> SlotState {
        match lock(self.shard_for(fp)).entries.get(fp) {
            None => SlotState::Absent,
            Some(Slot::InFlight(_)) => SlotState::InFlight,
            Some(Slot::Ready(_)) => SlotState::Ready,
        }
    }

    /// Whether a published artifact is resident for `fp`.
    pub fn contains(&self, fp: &Fingerprint) -> bool {
        matches!(
            lock(self.shard_for(fp)).entries.get(fp),
            Some(Slot::Ready(_))
        )
    }

    /// Counts a hit on `fp` answered outside the pool and sets its
    /// resident's referenced bit, found by key under the shard lock.
    /// Returns whether the artifact is still resident. A session's memo
    /// does not come this way: its entry holds the bit
    /// ([`crate::CodeCache::lookup`]).
    pub fn touch(&self, fp: &Fingerprint) -> bool {
        self.count_hit();
        if let Some(Slot::Ready(resident)) = lock(self.shard_for(fp)).entries.get(fp) {
            reference(&resident.referenced);
            true
        } else {
            false
        }
    }

    /// Drops the published artifact for `fp` (rule-set churn). Bumps
    /// the generation so sessions free their installed copies, and
    /// tombstones the fingerprint in the persistent store so the next
    /// flush omits it — churned-out rules must not resurrect at the
    /// next warm start. An in-flight compile is left alone — it will
    /// publish normally.
    pub fn invalidate(&self, fp: &Fingerprint) -> bool {
        let Some(key) = self.take_ready(&mut lock(self.shard_for(fp)), fp) else {
            return false;
        };
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        self.retire(key, true);
        if let Some(store) = lock(&self.persist).as_mut() {
            store.tombstone(fp);
        }
        true
    }

    /// The eviction/invalidation stamp. Sessions cache the value they
    /// last synced at; a change means some artifact they may have
    /// installed is gone and local copies must be revalidated.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A deterministic pick among the resident fingerprints (`k`-th in
    /// encoding order, mod count), for the serve harness's churn
    /// injector. `None` when nothing is published.
    pub fn sample_fingerprint(&self, k: u64) -> Option<Fingerprint> {
        let mut all: Vec<Fingerprint> = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            for (fp, slot) in &shard.entries {
                if matches!(slot, Slot::Ready(_)) {
                    all.push(fp.clone());
                }
            }
        }
        if all.is_empty() {
            return None;
        }
        let k = (k as usize) % all.len();
        // Keys are distinct, so the k-th in order is one element.
        let (_, pick, _) = all.select_nth_unstable_by(k, |a, b| a.encoding().cmp(b.encoding()));
        Some(pick.clone())
    }

    /// Snapshot of the counters.
    pub fn metrics(&self) -> SharedCacheMetrics {
        SharedCacheMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            published: self.published.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
            bytes_live: self.bytes_live.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            clock_steps: self.clock_steps.load(Ordering::Relaxed),
            sync_probes: self.sync_probes.load(Ordering::Relaxed),
        }
    }

    /// Evicts by CLOCK until live bytes fit the budget. The hand moves
    /// under the ring lock alone; the victim's shard lock is taken
    /// after it is released, and a victim hit since the hand passed it
    /// gets its slot back instead of being evicted. The evicted key
    /// moves into the retirement log.
    /// Eviction does *not* tombstone the persistent store: it is a
    /// memory-budget decision, and the disk copy stays valuable for
    /// the next warm start (only explicit invalidation tombstones).
    fn enforce_budget(&self) {
        let Some(budget) = self.budget else {
            return;
        };
        for _ in 0..MAX_EVICT_PASSES {
            if self.bytes_live.load(Ordering::Relaxed) <= budget {
                return;
            }
            let Some(victim) = self.advance_hand() else {
                // Everything evictable is gone (all in-flight): live
                // with being over budget rather than spinning.
                return;
            };
            let mut shard = lock(self.shard_for(&victim.fp));
            match shard.entries.get(&victim.fp) {
                Some(Slot::Ready(r)) if Arc::ptr_eq(r, &victim) => {}
                // Invalidated (and maybe republished) since: its slot
                // is gone, and so is the victim.
                _ => continue,
            }
            if victim.referenced.load(Ordering::Relaxed) {
                lock(&self.ring).push_back(Arc::downgrade(&victim));
                continue;
            }
            let key = self.take_ready(&mut shard, &victim.fp);
            drop(shard);
            if let Some(key) = key {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.retire(key, true);
            }
        }
    }

    /// Moves the hand to the first unreferenced resident and takes its
    /// slot off the ring: slots whose resident is gone are dropped, a
    /// set bit is cleared and its slot goes to the back. `None` when
    /// two laps find nothing (the ring is empty, or hits kept setting
    /// bits behind the hand). Takes only the ring lock.
    fn advance_hand(&self) -> Option<Arc<Resident>> {
        let mut ring = lock(&self.ring);
        let mut steps = 0;
        let mut victim = None;
        for _ in 0..2 * ring.len() {
            let Some(slot) = ring.pop_front() else {
                break;
            };
            steps += 1;
            let Some(resident) = slot.upgrade() else {
                continue;
            };
            if resident.referenced.load(Ordering::Relaxed) {
                resident.referenced.store(false, Ordering::Relaxed);
                ring.push_back(slot);
                continue;
            }
            victim = Some(resident);
            break;
        }
        drop(ring);
        self.clock_steps.fetch_add(steps, Ordering::Relaxed);
        victim
    }
}

impl CompileClaim {
    /// Publishes the compiled artifact: stores it (evicting under the
    /// budget), wakes every waiter with the `Arc`, and returns it. An
    /// artifact larger than the whole budget is *not* retained
    /// (counted `uncacheable`) — but waiters still receive it, so
    /// nobody recompiles what this claim already built.
    pub fn publish(mut self, artifact: Artifact) -> Arc<Artifact> {
        let owner = Arc::clone(&self.owner);
        let artifact = Arc::new(artifact);
        let retain = owner.budget.is_none_or(|b| artifact.bytes <= b);
        let retained = {
            let mut shard = lock(owner.shard_for(&self.fp));
            // Only replace the slot if it is still ours (an invalidate
            // cannot remove an in-flight slot today, but stay robust).
            let ours = matches!(
                shard.entries.get(&self.fp),
                Some(Slot::InFlight(s)) if Arc::ptr_eq(s, &self.slot)
            );
            if ours {
                if retain {
                    owner.make_ready(&mut shard, &self.fp, &artifact);
                } else {
                    shard.entries.remove(&self.fp);
                    owner.uncacheable.fetch_add(1, Ordering::Relaxed);
                }
            }
            ours && retain
        };
        if !retained {
            // Nothing resident left, so no generation bump: the
            // publisher's memo drops its install at the next sync that
            // a bump triggers, as with any key the pool does not hold.
            owner.retire(self.fp.clone(), false);
        }
        // Record to the persistent store (memory-budget decisions do
        // not apply to disk: even an uncacheable-in-memory artifact is
        // worth a warm start).
        if let Some(store) = lock(&owner.persist).as_mut() {
            store.record(self.fp.clone(), Arc::clone(&artifact));
        }
        owner.published.fetch_add(1, Ordering::Relaxed);
        {
            let mut st = lock(&self.slot.state);
            *st = FlightState::Done(Arc::clone(&artifact));
            self.slot.cv.notify_all();
        }
        self.done = true;
        if retain {
            owner.enforce_budget();
        }
        artifact
    }
}

impl Drop for CompileClaim {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // Compile failed or was abandoned: free the fingerprint and
        // wake waiters so one of them claims it next.
        {
            let mut shard = lock(self.owner.shard_for(&self.fp));
            let ours = matches!(
                shard.entries.get(&self.fp),
                Some(Slot::InFlight(s)) if Arc::ptr_eq(s, &self.slot)
            );
            if ours {
                shard.entries.remove(&self.fp);
            }
        }
        let mut st = lock(&self.slot.state);
        *st = FlightState::Aborted;
        self.slot.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FingerprintBuilder;
    use std::sync::Barrier;
    use std::thread;

    fn fp(n: u64) -> Fingerprint {
        let mut b = FingerprintBuilder::new();
        b.push_tag(9);
        b.push_u64(n);
        b.build()
    }

    fn art(n: u64, words: usize) -> Artifact {
        Artifact {
            name: format!("f{n}"),
            orig_start: 0,
            words: vec![0; words],
            bytes: (words * 4) as u64,
            compile_ns: 100,
            translation: None,
        }
    }

    #[test]
    fn first_compiler_wins_and_waiters_share_the_artifact() {
        let cache = SharedArtifacts::unbounded();
        let threads = 4;
        let barrier = Arc::new(Barrier::new(threads));
        let mut handles = Vec::new();
        for _ in 0..threads {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            handles.push(thread::spawn(move || {
                barrier.wait();
                match cache.get_or_begin(&fp(1)) {
                    Acquire::Miss(claim) => {
                        // Give the other threads time to pile onto the
                        // in-flight slot before publishing.
                        thread::sleep(std::time::Duration::from_millis(20));
                        (true, claim.publish(art(1, 8)))
                    }
                    Acquire::Hit { artifact, .. } => (false, artifact),
                }
            }));
        }
        let results: Vec<(bool, Arc<Artifact>)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let compilers = results.iter().filter(|(compiled, _)| *compiled).count();
        assert_eq!(compilers, 1, "exactly one thread compiled");
        for (_, a) in &results {
            assert!(Arc::ptr_eq(a, &results[0].1), "all threads share one Arc");
        }
        let m = cache.metrics();
        assert_eq!(m.published, 1);
        assert_eq!(m.misses, 1);
        assert_eq!(m.hits, (threads - 1) as u64);
        assert!(m.waits >= 1, "someone blocked on the in-flight slot");
        assert_eq!(m.entries, 1);
        assert_eq!(m.bytes_live, 32);
    }

    #[test]
    fn inflight_slot_interleavings_are_deterministic() {
        // A single-threaded script through every slot state — the
        // deterministic (loom-style) check that each observable
        // interleaving point behaves as specified, with no timing.
        let cache = SharedArtifacts::unbounded();
        assert_eq!(cache.poll(&fp(1)), SlotState::Absent);

        // Claim → in flight.
        let Acquire::Miss(claim) = cache.get_or_begin(&fp(1)) else {
            panic!("first requester must claim");
        };
        assert_eq!(cache.poll(&fp(1)), SlotState::InFlight);
        assert!(!cache.contains(&fp(1)));

        // Abort (drop without publish) → absent again, claimable.
        drop(claim);
        assert_eq!(cache.poll(&fp(1)), SlotState::Absent);

        // Re-claim → publish → ready; later requesters hit.
        let Acquire::Miss(claim) = cache.get_or_begin(&fp(1)) else {
            panic!("aborted fingerprint must be claimable again");
        };
        let published = claim.publish(art(1, 4));
        assert_eq!(cache.poll(&fp(1)), SlotState::Ready);
        match cache.get_or_begin(&fp(1)) {
            Acquire::Hit { artifact, waited } => {
                assert!(Arc::ptr_eq(&artifact, &published));
                assert!(!waited, "ready artifacts do not block");
            }
            Acquire::Miss(_) => panic!("published artifact must hit"),
        }
        let m = cache.metrics();
        assert_eq!((m.misses, m.hits, m.published), (2, 1, 1));
        assert_eq!(m.waits, 0, "nothing blocked in this script");
    }

    #[test]
    fn aborted_compile_wakes_waiters_to_retry() {
        let cache = SharedArtifacts::unbounded();
        let Acquire::Miss(claim) = cache.get_or_begin(&fp(7)) else {
            panic!("claims");
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || match cache.get_or_begin(&fp(7)) {
                // After the abort the waiter retries and wins the claim.
                Acquire::Miss(c) => {
                    c.publish(art(7, 4));
                    true
                }
                Acquire::Hit { .. } => false,
            })
        };
        // Let the waiter reach the in-flight slot, then abort.
        while cache.metrics().waits == 0 {
            thread::yield_now();
        }
        drop(claim);
        assert!(waiter.join().unwrap(), "waiter retried and compiled");
        assert!(cache.contains(&fp(7)));
        assert_eq!(cache.metrics().published, 1);
    }

    #[test]
    fn lru_eviction_under_budget_bumps_generation() {
        // Budget fits two 40-byte artifacts.
        let cache = SharedArtifacts::new(4, Some(80));
        for n in [1, 2] {
            let Acquire::Miss(c) = cache.get_or_begin(&fp(n)) else {
                panic!("miss");
            };
            c.publish(art(n, 10));
        }
        assert_eq!(cache.generation(), 0);
        // Touch 1 so 2 is the global LRU, then publish 3.
        assert!(matches!(cache.get_or_begin(&fp(1)), Acquire::Hit { .. }));
        let Acquire::Miss(c) = cache.get_or_begin(&fp(3)) else {
            panic!("miss");
        };
        c.publish(art(3, 10));
        assert!(cache.contains(&fp(1)), "recently used survives");
        assert!(!cache.contains(&fp(2)), "LRU evicted");
        assert!(cache.contains(&fp(3)));
        let m = cache.metrics();
        assert_eq!(m.evictions, 1);
        assert_eq!(m.bytes_live, 80);
        assert_eq!(m.entries, 2);
        assert_eq!(cache.generation(), 1, "eviction bumped the stamp");
        // Explicit invalidation also bumps it.
        assert!(cache.invalidate(&fp(3)));
        assert!(!cache.invalidate(&fp(3)), "already gone");
        assert_eq!(cache.generation(), 2);
        assert_eq!(cache.metrics().invalidations, 1);
        assert_eq!(cache.metrics().bytes_live, 40);
    }

    #[test]
    fn clock_hand_steps_are_bounded_by_publishes_and_hits() {
        // Budget holds K 40-byte artifacts. Publish N, touching the
        // previous one after each publish: every eviction is one step,
        // and every other step clears a bit a touch set — never a scan.
        const K: u64 = 8;
        const N: u64 = 200;
        let cache = SharedArtifacts::new(4, Some(K * 40));
        for n in 0..N {
            let Acquire::Miss(c) = cache.get_or_begin(&fp(n)) else {
                panic!("miss");
            };
            c.publish(art(n, 10));
            cache.touch(&fp(n.saturating_sub(1)));
        }
        let m = cache.metrics();
        assert_eq!(m.evictions, N - K);
        assert_eq!(m.entries, K);
        assert!(
            m.clock_steps <= 2 * N + K,
            "{} hand steps for {N} publishes under a {K}-artifact budget",
            m.clock_steps
        );
        assert!(m.clock_steps >= m.evictions, "each eviction is a step");
        // Invalidated residents leave dead slots; a publish that has to
        // evict steps over them, one step each.
        for n in N - K..N - K / 2 {
            assert!(cache.invalidate(&fp(n)));
        }
        let before = cache.metrics().clock_steps;
        for n in N..N + K {
            let Acquire::Miss(c) = cache.get_or_begin(&fp(n)) else {
                panic!("miss");
            };
            c.publish(art(n, 10));
        }
        let m = cache.metrics();
        assert_eq!(m.entries, K);
        assert!(m.clock_steps - before <= 2 * K + K / 2);
        // Churn that never reaches the budget never moves the hand:
        // publishes sweep the dead slots instead.
        assert!(cache.invalidate(&cache.sample_fingerprint(0).unwrap()));
        let steps = cache.metrics().clock_steps;
        for n in 1000..2000 {
            let Acquire::Miss(c) = cache.get_or_begin(&fp(n)) else {
                panic!("miss");
            };
            c.publish(art(n, 1));
            assert!(cache.invalidate(&fp(n)));
            assert!(lock(&cache.ring).len() <= 2 * K as usize + 33);
        }
        assert_eq!(cache.metrics().clock_steps, steps);
    }

    #[test]
    fn oversized_artifact_serves_waiters_but_is_not_retained() {
        let cache = SharedArtifacts::new(2, Some(16));
        let Acquire::Miss(c) = cache.get_or_begin(&fp(1)) else {
            panic!("miss");
        };
        let a = c.publish(art(1, 100)); // 400 bytes > 16-byte budget
        assert_eq!(a.bytes, 400, "the caller still got the artifact");
        assert!(!cache.contains(&fp(1)), "not retained");
        let m = cache.metrics();
        assert_eq!(m.uncacheable, 1);
        assert_eq!(m.published, 1);
        assert_eq!(m.bytes_live, 0);
        assert_eq!(m.entries, 0);
        assert_eq!(cache.generation(), 0, "nothing resident was dropped");
    }

    #[test]
    fn sample_fingerprint_is_deterministic_over_residents() {
        let cache = SharedArtifacts::unbounded();
        assert_eq!(cache.sample_fingerprint(0), None);
        for n in [5, 1, 9] {
            let Acquire::Miss(c) = cache.get_or_begin(&fp(n)) else {
                panic!("miss");
            };
            c.publish(art(n, 4));
        }
        let picks: Vec<_> = (0..6)
            .map(|k| cache.sample_fingerprint(k).unwrap())
            .collect();
        // Encoding order, cycling: the same k always picks the same fp.
        assert_eq!(picks[0], picks[3]);
        assert_eq!(picks[1], picks[4]);
        assert_eq!(picks[2], picks[5]);
        let mut distinct = picks[..3].to_vec();
        distinct.dedup();
        assert_eq!(distinct.len(), 3, "three residents, three picks");
    }

    #[test]
    fn persist_fill_answers_misses_and_invalidate_tombstones() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tcc_shared_persist_{}.store", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(format!("{}.lock", path.display()));
        // Process 1: compile, publish, invalidate one, flush on drop.
        {
            let cache = SharedArtifacts::unbounded();
            assert!(cache.attach_persist(&path, 77));
            assert!(!cache.attach_persist(&path, 77), "second attach loses");
            for n in [1, 2] {
                let Acquire::Miss(c) = cache.get_or_begin(&fp(n)) else {
                    panic!("cold process must miss");
                };
                c.publish(art(n, 8));
            }
            assert!(cache.invalidate(&fp(2)), "churned out before shutdown");
            cache.flush_persist().expect("writer flushes");
            let pm = cache.persist_metrics().expect("attached");
            assert_eq!(pm.tombstones, 1);
            assert!(pm.flushes >= 1);
        }
        // Process 2: the published artifact disk-fills (no compile
        // slot claimed); the invalidated one is cold.
        {
            let cache = SharedArtifacts::unbounded();
            assert!(cache.attach_persist(&path, 77));
            match cache.get_or_begin(&fp(1)) {
                Acquire::Hit { artifact, waited } => {
                    assert!(!waited);
                    assert_eq!(artifact.words, art(1, 8).words);
                    assert_eq!(artifact.orig_start, art(1, 8).orig_start);
                    assert!(artifact.translation.is_none(), "rebuilt lazily");
                }
                Acquire::Miss(_) => panic!("persisted artifact must disk-fill"),
            }
            assert!(cache.contains(&fp(1)), "disk fill published into memory");
            assert!(matches!(cache.get_or_begin(&fp(2)), Acquire::Miss(_)));
            let pm = cache.persist_metrics().expect("attached");
            assert_eq!((pm.disk_hits, pm.disk_misses), (1, 1));
            assert_eq!(pm.entries_loaded, 1);
            let m = cache.metrics();
            assert_eq!((m.hits, m.misses), (1, 1));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rotten_frame_is_a_miss_that_recompiles_not_a_disk_fill() {
        let path = std::env::temp_dir().join(format!(
            "tcc_shared_persist_rot_{}.store",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(format!("{}.lock", path.display()));
        {
            let cache = SharedArtifacts::unbounded();
            assert!(cache.attach_persist(&path, 77));
            for n in [1, 2] {
                let Acquire::Miss(c) = cache.get_or_begin(&fp(n)) else {
                    panic!("cold process must miss");
                };
                c.publish(art(n, 8));
            }
        }
        // Flip a bit in the file's last byte: inside the last frame's
        // words, so open still indexes both frames.
        let mut bytes = std::fs::read(&path).expect("flushed on drop");
        *bytes.last_mut().expect("non-empty") ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        {
            let cache = SharedArtifacts::unbounded();
            assert!(cache.attach_persist(&path, 77));
            assert_eq!(cache.persist_metrics().unwrap().entries_loaded, 2);
            let mut claims = Vec::new();
            for n in [1, 2] {
                match cache.get_or_begin(&fp(n)) {
                    Acquire::Hit { artifact, .. } => assert_eq!(artifact.words, art(n, 8).words),
                    Acquire::Miss(claim) => claims.push((n, claim)),
                }
            }
            assert_eq!(claims.len(), 1, "exactly the rotten frame recompiles");
            let pm = cache.persist_metrics().unwrap();
            assert_eq!((pm.disk_hits, pm.disk_misses), (1, 1));
            assert_eq!(pm.corrupt_rejected, 1);
            for (n, claim) in claims {
                claim.publish(art(n, 8));
            }
        }
        // The recompile was recorded: the next process fills both.
        let cache = SharedArtifacts::unbounded();
        assert!(cache.attach_persist(&path, 77));
        for n in [1, 2] {
            assert!(matches!(cache.get_or_begin(&fp(n)), Acquire::Hit { .. }));
        }
        assert_eq!(cache.persist_metrics().unwrap().corrupt_rejected, 0);
        drop(cache);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hit_rate_counts_touches_and_waiting() {
        let cache = SharedArtifacts::unbounded();
        let Acquire::Miss(c) = cache.get_or_begin(&fp(1)) else {
            panic!("miss");
        };
        c.publish(art(1, 4));
        assert!(cache.touch(&fp(1)), "resident");
        assert!(!cache.touch(&fp(2)), "absent");
        let m = cache.metrics();
        // 1 miss, 2 touches-as-hits.
        assert_eq!((m.hits, m.misses), (2, 1));
        assert!((m.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
