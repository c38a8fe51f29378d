//! The adaptive execution engine: count-triggered per-function tiering.
//!
//! The fixed engines trade translation cost against dispatch speed: the
//! reference interpreter ([`ExecEngine::DecodePerStep`]) pays nothing
//! up front and the most per instruction, the predecoded+fused engine
//! pays one decoding pass per function, and the direct-threaded engine
//! pays the most translation (handler selection, block summaries) for
//! the fastest dispatch. Which trade wins depends on how often a
//! function runs — the paper's Figure 5 crossover, recreated at the
//! execution layer. [`ExecEngine::Adaptive`] makes the choice per
//! function at run time:
//!
//! ```text
//!           clock >= fuse_after       clock >= thread_after
//!   tier 0 ─────────────────▶ tier 1 ─────────────────▶ tier 2
//!   decode-per-step          predecoded+fused          threaded
//!   clock: entries +         clock: entries +          (top tier:
//!   backedges, per step      backedges, at the         nothing left
//!      ▲                     dispatcher's safepoint    to count for)
//!      │                        │                         │
//!      └────────────────────────┴─────────────────────────┘
//!          the function itself freed or patched (its range is in
//!          the code space's invalidation log): its record is retired,
//!          translation + clock dropped; if the words are still (or
//!          again) live code, the next entry starts over at tier 0
//! ```
//!
//! There is one promotion clock per function, in one unit, read at
//! every tier below the top. A "run" is one entry of control into the
//! function's live range from outside it (the invocation counter of a
//! classic tiered JIT): calls, returns into a caller, and
//! cross-function jumps all count; internal loops do not. The clock
//! additionally earns one run per `2^BACKEDGES_PER_RUN_BITS` backward
//! transfers taken inside the range (the backedge counter of a classic
//! tiered JIT) — observed step by step at tier 0, and at tier 1 by the
//! decoded dispatcher's backedge safepoint
//! ([`Vm::dispatch`](crate::interp::Vm)), which is handed the
//! backedges still missing to the next threshold and leaves the buffer
//! at the transfer that spends the last one. Heat is therefore counted
//! where the time goes: a function that loops for a million
//! instructions reaches the threaded tier inside its first run instead
//! of idling one tier short until its *entry* count catches up.
//! Promotion is evaluated at entry against the clock *before* that
//! entry, and at every clock tick; it is monotone per function — a
//! function only moves up tiers until it is itself freed or patched.
//!
//! # Equivalence contract
//!
//! The adaptive engine composes the existing dispatchers and falls back
//! to the same reference single-step path, so it inherits the
//! observational-equivalence contract: identical result values,
//! `cycles`, `insns`, exit status, and error at the same instruction
//! (including [`VmError::OutOfFuel`] under any fuel budget), before,
//! during, and after a promotion. A mid-run promotion is an ordinary
//! buffer exit followed by an ordinary mid-function entry — the same
//! two moves a call and its return make — so it needs no argument of
//! its own. `tests/exec_differential.rs` sweeps fuel budgets across
//! promotion boundaries and across the safepoint to enforce this.
//!
//! # Invalidation
//!
//! Tier state lives in the `TransCache`, each record owning the
//! translation it justified, and is revalidated (`TransCache::sync_epoch`, shared with
//! the fixed engines) against [`CodeSpace::live_epoch`] on every
//! outer-loop iteration, hence after every host call. An invalidation
//! costs what it invalidated: for each range the code space logged
//! since the last look — a function freed directly or by `tcc-cache`
//! eviction, or the function around a patched live word — that
//! function's tier record is retired and its translation dropped with
//! it (its tier counted into `demotions`); every other function keeps its
//! translation, tier and run count. Only a cache more than
//! [`INVALIDATION_RING`](crate::code::INVALIDATION_RING) bumps behind
//! demotes everything. The run loop forgets its memoized functions on
//! any epoch change and re-resolves the current pc — one `tier_idx`
//! load for a survivor — so stale pcs fault [`VmError::StaleCode`] /
//! [`VmError::BadPc`] from the exact same reference path as every
//! other engine.
//!
//! # Off-thread translation
//!
//! With `ExecEngine::Adaptive { background: true, .. }` a promotion no
//! longer builds its translation inline — the promoting run would stall
//! for exactly the latency the tiering exists to hide. Instead the
//! engine submits a translation request (what to build from, target
//! tier, the serial of the tier record asking) to the one background
//! service there is, a [`TransHub`]: the hub the VM was subscribed to
//! ([`Vm::set_translation_hub`](crate::interp::Vm), one thread for a
//! whole pool), or failing that a private one, spawned lazily and owned
//! by the translation cache. A request builds from the decoded array
//! the record already holds when it holds one — a 1→2 promotion ships
//! an `Arc`, not a copy of the words — and from a snapshot of the
//! function's sealed words otherwise. The run loop keeps executing at
//! the function's current tier; finished translations are drained at
//! function-entry points and at the running function's clock ticks
//! (tier 0 and tier 1 alike, so a loop granted a tier mid-run finishes
//! the run on it) and swapped in — or **discarded** unless the
//! record that requested the build is still the live record at its
//! start word. That per-function check is sufficient: a record is
//! retired by exactly the events that make its snapshot wrong (the
//! function freed or patched, or the whole cache cleared), serials are
//! never reused, and a *new* function sealed into the same words gets
//! a new record with a new serial — so a translation of freed, patched
//! or re-used words is never installed, while a free elsewhere in the
//! session no longer discards every build in flight. Discarding rather
//! than installing keeps free/patch/eviction semantics and `StaleCode`
//! faulting bit-identical to the synchronous engines; the differential
//! harness sweeps the background variants too.
//!
//! [`ExecEngine::DecodePerStep`]: crate::predecode::ExecEngine::DecodePerStep
//! [`ExecEngine::Adaptive`]: crate::predecode::ExecEngine::Adaptive
//! [`CodeSpace::live_epoch`]: crate::code::CodeSpace::live_epoch

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::code::CODE_BASE;
use crate::cost::CostModel;
use crate::error::VmError;
use crate::host::HostCall;
use crate::interp::{ExitStatus, Step, Vm, RETURN_SENTINEL};
use crate::predecode::{decode, form_over, Decoded, Translation};

/// Counters for the adaptive engine: where entries landed and where
/// instructions ran, how functions moved between tiers, and what
/// translation cost was spent vs avoided. One type with the
/// observability layer's.
pub use tcc_obs::AdaptiveMetrics as AdaptiveStats;

/// Default promotion threshold to tier 1 (predecoded+fused): completed
/// runs after which one decoding pass has paid for itself. Calibrated
/// by the `suite adaptive` reuse sweep (DESIGN.md §12 has the table of
/// alternatives 2/8 was kept against).
pub const DEFAULT_FUSE_AFTER: u32 = 2;

/// Default promotion threshold to tier 2 (direct-threaded): completed
/// runs after which the heavier handler-table translation has paid for
/// itself. Calibrated by the `suite adaptive` reuse sweep.
pub const DEFAULT_THREAD_AFTER: u32 = 8;

/// Execution tier of one function under the adaptive engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Decode-per-step: no translation cost.
    Decode = 0,
    /// Predecoded buffer with superinstruction fusion.
    Fused = 1,
    /// Direct-threaded dispatch with basic-block fuel batching.
    Threaded = 2,
}

/// Sentinel in [`TransCache::tier_idx`]: no tier record covers this
/// word yet.
///
/// [`TransCache::tier_idx`]: crate::predecode::TransCache::tier_idx
pub(crate) const NO_TIER: u32 = u32::MAX;

/// Backward transfers taken inside a function below the top tier that
/// count as one extra completed run (`64`): a loop-heavy function
/// proves its heat in loop iterations long before its entry count does,
/// and every iteration spent below the top tier is paid at that tier's
/// price. The weight is a power of two so a clock tick is a shift
/// compare, and large enough that a short loop stays near its entry
/// schedule (its backedges still accrue, across runs, so the entry
/// thresholds are "no later than", not "exactly at").
pub(crate) const BACKEDGES_PER_RUN_BITS: u32 = 6;

/// Per-function state, indexed from `tier_idx` by any word of the
/// function's live range: the translation the function currently
/// dispatches through and, under the adaptive engine, the clock and
/// tier that justified it. The fixed engines create records too (through
/// the same `TransCache::track`) and use only `tr`.
pub(crate) struct FnTier<H> {
    /// Identity of this record among every record the cache ever
    /// created; `0` marks a retired slot awaiting reuse.
    pub(crate) serial: u64,
    /// Start word of the function's live range.
    pub(crate) start: usize,
    /// Entries of control into this function's range. Monotone until
    /// the record is retired.
    pub(crate) runs: u64,
    /// Backward transfers taken inside the range below the top tier —
    /// the hotspot half of the clock, weighted down by
    /// [`BACKEDGES_PER_RUN_BITS`].
    pub(crate) backedges: u64,
    /// Current tier; only ever moves up while the record lives.
    pub(crate) tier: Tier,
    /// Words in the function.
    pub(crate) words: u32,
    /// Per target tier: a translation request for it is in flight on
    /// the background service; suppresses duplicate enqueues.
    pub(crate) pending: [bool; 3],
    /// The function's one translation. In background mode it can trail
    /// `tier` while the granted tier's build is in flight.
    pub(crate) tr: Translation<H>,
}

impl<H> FnTier<H> {
    /// The promotion clock: completed entries plus backward transfers,
    /// weighted so `2^BACKEDGES_PER_RUN_BITS` backedges count as one
    /// run.
    #[inline]
    fn effective_runs(&self) -> u64 {
        self.runs + (self.backedges >> BACKEDGES_PER_RUN_BITS)
    }

    /// Backward transfers a tier-1 dispatch may take before the clock
    /// needs reading again: those still missing to the tick that
    /// reaches `thread_after`, or — with that tier already granted and
    /// its build in flight — to the next tick, where the run loop polls
    /// for it. Always at least 1.
    #[inline]
    fn backedge_budget(&self, thread_after: u32) -> u64 {
        let ticks = u64::from(thread_after)
            .saturating_sub(self.effective_runs())
            .max(1);
        (ticks << BACKEDGES_PER_RUN_BITS) - (self.backedges & ((1 << BACKEDGES_PER_RUN_BITS) - 1))
    }

    /// The function's live range in words, `[start, end)`.
    pub(crate) fn range(&self) -> (usize, usize) {
        (self.start, self.start + self.words as usize)
    }

    /// Absolute address of the function's first word: the `base` its
    /// (position-independent) translation is dispatched at.
    #[inline]
    pub(crate) fn base(&self) -> u64 {
        CODE_BASE + (self.start as u64) * 4
    }

    /// A fresh tier-0 record for the live function `[start, end)`.
    pub(crate) fn new(serial: u64, start: usize, end: usize) -> FnTier<H> {
        FnTier {
            serial,
            start,
            runs: 0,
            backedges: 0,
            tier: Tier::Decode,
            words: (end - start) as u32,
            pending: [false; 3],
            tr: Translation::None,
        }
    }

    /// Marks the slot retired: it holds no levels and no translation,
    /// its clock reads zero, and it matches no in-flight translation's
    /// serial.
    pub(crate) fn retire(&mut self) {
        self.serial = 0;
        self.tier = Tier::Decode;
        self.runs = 0;
        self.backedges = 0;
        self.tr = Translation::None;
    }
}

/// The tier a clock reading of `clock` completed runs has earned.
#[inline]
fn tier_for(clock: u64, fuse_after: u32, thread_after: u32) -> Tier {
    if clock >= u64::from(thread_after) {
        Tier::Threaded
    } else if clock >= u64::from(fuse_after) {
        Tier::Fused
    } else {
        Tier::Decode
    }
}

/// A translation request handed to the background service: everything
/// a build needs, captured at enqueue time so the hub thread never
/// touches VM state. Host-independent — only the response is typed
/// over `H`.
pub(crate) struct TransRequest {
    /// Start word index of the function's live range: where the
    /// completion looks for the record that asked.
    start: usize,
    /// What the build starts from.
    source: Source,
    /// Target tier ([`Tier::Fused`] or [`Tier::Threaded`]).
    tier: Tier,
    /// [`FnTier::serial`] of the requesting record; the response is
    /// discarded unless that record is still live at `start`.
    serial: u64,
    /// Enqueue timestamp, for [`AdaptiveStats::swap_latency_ns`].
    enqueued: Instant,
}

/// What a background build starts from.
enum Source {
    /// An owned snapshot of the range's sealed words, and the cost
    /// model in force at enqueue: the record held no decoded array.
    Words(Vec<u32>, CostModel),
    /// The decoded array the record holds (a 1→2 promotion): the hub
    /// adds the handler column over the shared allocation.
    Decoded(Arc<Decoded>),
}

/// A finished background translation, stamped with the validity context
/// it was built under.
pub(crate) struct TransDone<H> {
    start: usize,
    tier: Tier,
    serial: u64,
    /// Wall-clock build time on the hub thread (goes into
    /// [`AdaptiveStats::translation_ns`] when installed).
    build_ns: u64,
    enqueued: Instant,
    /// The built form itself — a refusal when `decode` gave none.
    payload: Translation<H>,
    /// Superinstruction groups a tier-2 build compiled, for the install
    /// to count.
    groups: Vec<u32>,
}

/// Builds the translation a request asks for, timing the build.
fn build_translation<H: HostCall>(req: TransRequest) -> TransDone<H> {
    let t0 = Instant::now();
    let decoded = match req.source {
        Source::Words(words, cost) => decode(&words, &cost).map(Arc::new),
        Source::Decoded(decoded) => Some(decoded),
    };
    let (payload, groups) = form_over(decoded, req.tier);
    TransDone {
        start: req.start,
        tier: req.tier,
        serial: req.serial,
        build_ns: t0.elapsed().as_nanos() as u64,
        enqueued: req.enqueued,
        payload,
        groups,
    }
}

/// The background translation service: **one** `tcc-translate` thread
/// serving any number of VMs. Each request carries its own reply
/// channel, so completions route back to the requesting VM and go
/// through that VM's usual per-function install check — sharing
/// the thread changes where builds run, not what gets installed.
///
/// Cloning shares the service (`Arc` inside); the thread shuts down
/// when the last clone drops (request channel closes, thread joined).
/// A pool of worker sessions clones one hub so a single spare hardware
/// thread absorbs every session's translation load, instead of N
/// threads time-sharing it; a background VM that was handed no hub
/// spawns one of its own on its first asynchronous promotion, so
/// synchronous sessions never start a thread.
pub struct TransHub<H> {
    inner: Arc<HubInner<H>>,
}

impl<H> Clone for TransHub<H> {
    fn clone(&self) -> Self {
        TransHub {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<H> std::fmt::Debug for TransHub<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransHub").finish_non_exhaustive()
    }
}

struct HubInner<H> {
    tx: Mutex<Option<mpsc::Sender<HubJob<H>>>>,
    handle: Mutex<Option<thread::JoinHandle<()>>>,
}

/// One queued hub build: the request plus the requester's completion
/// channel.
struct HubJob<H> {
    req: TransRequest,
    reply: mpsc::Sender<TransDone<H>>,
}

impl<H: HostCall> TransHub<H> {
    /// Spawns the translation thread.
    pub fn spawn() -> TransHub<H> {
        let (tx, rx) = mpsc::channel::<HubJob<H>>();
        let handle = thread::Builder::new()
            .name("tcc-translate".into())
            .spawn(move || hub_loop::<H>(&rx))
            .expect("spawn background translation hub");
        TransHub {
            inner: Arc::new(HubInner {
                tx: Mutex::new(Some(tx)),
                handle: Mutex::new(Some(handle)),
            }),
        }
    }

    /// Blocks until the hub has replied to every build queued before
    /// this call (one FIFO thread: a marker job's reply is sent after
    /// all of theirs). Test and benchmark hook, like
    /// [`Vm::drain_background_translations`]: it makes "the build has
    /// finished" a fact at a chosen point — a host call inside a loop,
    /// say — without receiving anything on any VM's behalf.
    pub fn barrier(&self) {
        let (tx, rx) = mpsc::channel();
        let marker = TransRequest {
            start: 0,
            source: Source::Words(Vec::new(), CostModel::default()),
            tier: Tier::Fused,
            serial: 0,
            enqueued: Instant::now(),
        };
        if self.submit(marker, tx) {
            let _ = rx.recv();
        }
    }

    /// Queues a build; the completion lands on `reply`. `false` when
    /// the hub thread is gone (the caller retries at a later promotion;
    /// execution is correct at the current tier either way).
    fn submit(&self, req: TransRequest, reply: mpsc::Sender<TransDone<H>>) -> bool {
        let guard = self.inner.tx.lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_ref() {
            Some(tx) => tx.send(HubJob { req, reply }).is_ok(),
            None => false,
        }
    }

    /// Whether the hub thread is still serving (it ends only by
    /// panicking while a handle is held).
    fn is_alive(&self) -> bool {
        let guard = self.inner.handle.lock().unwrap_or_else(|e| e.into_inner());
        guard.as_ref().is_some_and(|h| !h.is_finished())
    }
}

impl<H> Drop for HubInner<H> {
    fn drop(&mut self) {
        // Closing the request channel ends `hub_loop`'s recv loop.
        drop(self.tx.get_mut().unwrap_or_else(|e| e.into_inner()).take());
        if let Some(h) = self
            .handle
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = h.join();
        }
    }
}

/// The hub thread body: build each job and reply to its requester. A
/// requester that died just drops its receiver — the send fails and the
/// hub keeps serving everyone else.
fn hub_loop<H: HostCall>(rx: &mpsc::Receiver<HubJob<H>>) {
    while let Ok(job) = rx.recv() {
        let _ = job.reply.send(build_translation::<H>(job.req));
    }
}

/// A VM's subscription to a [`TransHub`]: the hub handle plus this VM's
/// private completion channel (the `done_tx` clone travels with each
/// request).
pub(crate) struct HubClient<H> {
    hub: TransHub<H>,
    done_tx: mpsc::Sender<TransDone<H>>,
    done_rx: mpsc::Receiver<TransDone<H>>,
}

impl<H> HubClient<H> {
    fn new(hub: TransHub<H>) -> HubClient<H> {
        let (done_tx, done_rx) = mpsc::channel();
        HubClient {
            hub,
            done_tx,
            done_rx,
        }
    }
}

/// Prices `cold_words` of never-translated code at the session's
/// observed translation rate, entirely in integer arithmetic:
/// `cold_words * translation_ns / translated_words`, computed in
/// `u128` so the product cannot overflow and no f64 round-trip can
/// corrupt large counters. With no price signal yet — nothing
/// translated, or a cold sample whose measured duration was zero
/// (`per_word == 0` on a coarse clock) — the estimate is `0`.
pub(crate) fn saved_estimate(cold_words: u64, translation_ns: u64, translated_words: u64) -> u64 {
    if translated_words == 0 || translation_ns == 0 {
        return 0;
    }
    let scaled = u128::from(cold_words) * u128::from(translation_ns) / u128::from(translated_words);
    u64::try_from(scaled).unwrap_or(u64::MAX)
}

/// A function the adaptive run loop is attributed to (or just left):
/// absolute bounds, its tier record, and a handle on the record's
/// translation, all memoized in the loop so steady-state dispatch
/// touches no cache at all. The fixed threaded engine pays one record
/// probe and an `Arc` clone per call/return transition; keeping the two
/// sides of the transition warm here is what lets adaptive match it
/// (`suite adaptive` reports the gap).
struct Active<H> {
    /// Absolute address bounds of the function's live range.
    lo: u64,
    hi: u64,
    /// Index into `TransCache::tier_fns`.
    fi: u32,
    /// Tier [`Active::tr`] was fetched for; refreshed on promotion.
    tier: Tier,
    /// What this function dispatches through. `None` covers tier 0 and
    /// a granted tier whose build is still in flight — both single-step
    /// on the reference path.
    tr: Translation<H>,
}

impl<H> Active<H> {
    /// Whether `pc` is a word inside this function's live range.
    #[inline]
    fn contains(&self, pc: u64) -> bool {
        pc >= self.lo && pc < self.hi && pc.is_multiple_of(4)
    }
}

impl<H: HostCall> Vm<H> {
    /// The adaptive engine's run loop. Structure matches `run_fixed` —
    /// translated dispatch where the function's tier has a form,
    /// reference-engine single steps otherwise — with tier selection at
    /// each function entry and at each tick of the running function's
    /// clock.
    pub(crate) fn run_adaptive(
        &mut self,
        mut pc: u64,
        fuse_after: u32,
        thread_after: u32,
        background: bool,
    ) -> Result<ExitStatus, VmError> {
        // The attributed function and the one control most recently
        // left. Entries are counted only on range transitions, and the
        // common transition shape — a call/return ping-pong between a
        // caller and one callee — swaps the memoized pair without any
        // range resolution or translation lookup.
        let mut cur: Option<Active<H>> = None;
        let mut prev: Option<Active<H>> = None;
        loop {
            if pc == RETURN_SENTINEL {
                return Ok(ExitStatus::Returned);
            }
            if self.trans.sync_epoch(&self.state.code) {
                // Either memoized function may be among the dead;
                // re-resolving a survivor is one `tier_idx` load.
                cur = None;
                prev = None;
            }
            let in_cur = match cur {
                Some(ref c) => c.contains(pc),
                None => false,
            };
            if !in_cur {
                // Function entry: a swap point of the async pipeline.
                // Finished background translations are installed here,
                // before tier selection, so this entry can already
                // dispatch through them.
                if background && self.trans.pending > 0 {
                    self.poll_background();
                }
                let back = match prev {
                    Some(ref p) => p.contains(pc),
                    None => false,
                };
                if back {
                    std::mem::swap(&mut cur, &mut prev);
                    let c = cur.as_mut().expect("swapped from a hit");
                    let tier = self.count_entry(c.fi, fuse_after, thread_after);
                    if tier != c.tier || (background && !c.tr.serves(tier)) {
                        c.tier = tier;
                        c.tr = self.fetch_translation(c.fi, tier, background);
                    }
                } else {
                    prev = std::mem::replace(
                        &mut cur,
                        self.enter_function(pc, fuse_after, thread_after, background),
                    );
                }
            }
            // `cur` is a loop local, so dispatching through its memoized
            // translation borrows nothing from `self`. Below the top
            // tier the step also reports the backward transfers it took
            // inside the function — the hotspot clock's input: a loop
            // iteration paid at less than full speed.
            let mut backedges = 0;
            let step = match cur {
                Some(Active {
                    tr: Translation::Threaded(ref tr),
                    lo,
                    ..
                }) => self.dispatch_threaded(tr, lo, pc)?,
                Some(Active {
                    tr: Translation::Decoded(ref tr),
                    lo,
                    fi,
                    ..
                }) => {
                    // Tier 1 counts at the dispatcher's safepoint: it
                    // runs until control leaves the buffer or the clock
                    // is due.
                    let budget = self.trans.tier_fns[fi as usize].backedge_budget(thread_after);
                    let mut left = budget;
                    let step = self.dispatch::<true>(tr, lo, pc, &mut left)?;
                    backedges = budget - left;
                    step
                }
                _ => {
                    let step = self.step_reference(pc)?;
                    if let (Some(a), &Step::At(next)) = (cur.as_ref(), &step) {
                        backedges = u64::from(next <= pc && a.contains(next));
                    }
                    step
                }
            };
            if backedges > 0 {
                let a = cur.as_mut().expect("backedges stay inside a function");
                self.note_backedges(a, backedges, fuse_after, thread_after, background);
            }
            match step {
                Step::At(next) => pc = next,
                Step::Done(status) => return Ok(status),
            }
        }
    }

    /// Records one entry of control into the live function containing
    /// `pc`, promoting it first if its clock has crossed a threshold.
    /// Returns the memoized function state, or `None` when `pc` is not
    /// inside live code (the slow path then raises the exact reference
    /// fault).
    fn enter_function(
        &mut self,
        pc: u64,
        fuse_after: u32,
        thread_after: u32,
        background: bool,
    ) -> Option<Active<H>> {
        let fi = self.record_at(pc)?;
        let tier = self.count_entry(fi, fuse_after, thread_after);
        let record = &self.trans.tier_fns[fi as usize];
        let lo = record.base();
        let hi = lo + u64::from(record.words) * 4;
        let tr = self.fetch_translation(fi, tier, background);
        Some(Active {
            lo,
            hi,
            fi,
            tier,
            tr,
        })
    }

    /// Counts one entry of control into tier record `fi`, promoting the
    /// function first if its clock has crossed a threshold. Returns the
    /// tier this entry starts at. This is the whole per-transition cost
    /// once a function is memoized.
    #[inline]
    fn count_entry(&mut self, fi: u32, fuse_after: u32, thread_after: u32) -> Tier {
        let entry = &mut self.trans.tier_fns[fi as usize];
        let target = tier_for(entry.effective_runs(), fuse_after, thread_after);
        let promoted = if target > entry.tier {
            let levels = target as u64 - entry.tier as u64;
            entry.tier = target;
            levels
        } else {
            0
        };
        entry.runs += 1;
        let tier = entry.tier;
        let astats = &mut self.trans.astats;
        astats.promotions += promoted;
        astats.total_runs += 1;
        match tier {
            Tier::Decode => astats.runs_tier0 += 1,
            Tier::Fused => astats.runs_tier1 += 1,
            Tier::Threaded => astats.runs_tier2 += 1,
        }
        tier
    }

    /// Credits `seen` backward transfers to the clock of the running
    /// function `a`; the common case (no tick) is one add and one
    /// shift compare.
    #[inline]
    fn note_backedges(
        &mut self,
        a: &mut Active<H>,
        seen: u64,
        fuse_after: u32,
        thread_after: u32,
        background: bool,
    ) {
        let entry = &mut self.trans.tier_fns[a.fi as usize];
        let ticks = entry.backedges >> BACKEDGES_PER_RUN_BITS;
        entry.backedges += seen;
        if entry.backedges >> BACKEDGES_PER_RUN_BITS != ticks {
            self.clock_tick(a, fuse_after, thread_after, background);
        }
    }

    /// The clock of the running function `a` ticked: promote it in
    /// place if that reached a threshold — the next loop iteration then
    /// resumes mid-function through the new tier's dispatcher, the way
    /// a return lands there. In background mode a granted tier whose
    /// build is still in flight is polled for here, the mid-run swap
    /// point: without it the pipeline would forfeit the whole remaining
    /// run to the lower tier, *growing* the cold-run tail it exists to
    /// cut.
    fn clock_tick(
        &mut self,
        a: &mut Active<H>,
        fuse_after: u32,
        thread_after: u32,
        background: bool,
    ) {
        let entry = &mut self.trans.tier_fns[a.fi as usize];
        let target = tier_for(entry.effective_runs(), fuse_after, thread_after);
        if target > entry.tier {
            self.trans.astats.promotions += target as u64 - entry.tier as u64;
            entry.tier = target;
            a.tier = target;
        } else if a.tr.serves(a.tier) || self.trans.pending == 0 {
            return;
        } else {
            self.poll_background();
        }
        a.tr = self.fetch_translation(a.fi, a.tier, background);
    }

    /// The translation record `fi` dispatches through at `tier`: the
    /// record's own when it already holds that tier's form. Otherwise
    /// synchronous mode builds (and times) it inline through the fixed
    /// engines' `form_at`, installing it on the record in place of a
    /// lower tier's. Background mode never builds on this thread: it
    /// enqueues a request to the hub and the function keeps dispatching
    /// through what it holds, so the promoting run keeps moving at its
    /// current speed.
    fn fetch_translation(&mut self, fi: u32, tier: Tier, background: bool) -> Translation<H> {
        // A preseeded record holds a decoded array before it has earned
        // tier 1; tier 0 single-steps regardless.
        if tier == Tier::Decode {
            return Translation::None;
        }
        let held = &self.trans.tier_fns[fi as usize].tr;
        if held.serves(tier) {
            return held.clone();
        }
        if background {
            let held = held.clone();
            self.enqueue_translation(fi, tier);
            return held;
        }
        let t0 = Instant::now();
        let tr = self.form_at(fi, tier);
        let astats = &mut self.trans.astats;
        astats.translation_ns += t0.elapsed().as_nanos() as u64;
        astats.translated_words += u64::from(self.trans.tier_fns[fi as usize].words);
        tr
    }

    /// Submits a translation request for tier record `fi` to the
    /// background service (spawning a private hub on first use when the
    /// VM was handed none), carrying the decoded array the record holds
    /// or else a snapshot of the function's sealed words, plus the
    /// record's serial, which must still be live at the start word for
    /// the result to be installed. A request already in flight for the
    /// same function and tier is not duplicated.
    fn enqueue_translation(&mut self, fi: u32, tier: Tier) {
        let entry = &mut self.trans.tier_fns[fi as usize];
        if tier == Tier::Decode || std::mem::replace(&mut entry.pending[tier as usize], true) {
            return;
        }
        let (start, end) = entry.range();
        let req = TransRequest {
            start,
            source: match &entry.tr {
                Translation::Decoded(decoded) => Source::Decoded(Arc::clone(decoded)),
                _ => Source::Words(
                    self.state.code.word_slice(start, end).to_vec(),
                    self.cost.clone(),
                ),
            },
            tier,
            serial: entry.serial,
            enqueued: Instant::now(),
        };
        let client = self
            .trans
            .hub
            .get_or_insert_with(|| HubClient::new(TransHub::spawn()));
        if client.hub.submit(req, client.done_tx.clone()) {
            self.trans.pending += 1;
        } else {
            // Hub unavailable (died mid-session): clear the flag so a
            // later promotion can retry; execution stays correct at
            // the current tier either way.
            self.trans.tier_fns[fi as usize].pending[tier as usize] = false;
        }
    }

    /// Subscribes this VM to a shared [`TransHub`]: every later
    /// background promotion is built on that hub's thread instead of a
    /// private one, and completions come back on a channel created
    /// here. Install semantics (the per-function serial check,
    /// discard-on-stale) are unchanged.
    pub fn set_translation_hub(&mut self, hub: TransHub<H>) {
        self.trans.hub = Some(HubClient::new(hub));
    }

    /// Drains every already-finished background translation without
    /// blocking, installing or discarding each.
    fn poll_background(&mut self) {
        while self.trans.pending > 0 {
            let Some(Ok(done)) = self.trans.hub.as_ref().map(|c| c.done_rx.try_recv()) else {
                break;
            };
            self.trans.pending -= 1;
            self.install_translation(done);
        }
    }

    /// Blocks until every in-flight background translation has been
    /// received (each is then installed or discarded by the usual
    /// per-function check). Test and benchmark hook: makes the
    /// asynchronous pipeline deterministic at a chosen point without
    /// changing its semantics.
    pub fn drain_background_translations(&mut self) {
        // Called between runs, possibly after the caller freed or
        // patched code: retire what died before judging completions.
        self.trans.sync_epoch(&self.state.code);
        while self.trans.pending > 0 {
            let Some(client) = self.trans.hub.as_ref() else {
                break;
            };
            // This VM holds its own `done_tx`, so the channel never
            // reports disconnected — the timeout is there to notice a
            // hub thread that died mid-build.
            match client.done_rx.recv_timeout(Duration::from_secs(1)) {
                Ok(done) => {
                    self.trans.pending -= 1;
                    self.install_translation(done);
                }
                Err(_) if client.hub.is_alive() => {}
                Err(_) => break,
            }
        }
    }

    /// Swap-or-discard: the receive side of the async pipeline. A
    /// result is installed — exactly as an inline build would have been
    /// — iff the tier record that requested it is still the live record
    /// at its start word. Otherwise the function was freed or patched
    /// since (or its words now hold a different function, or the cache
    /// was cleared) and the snapshot no longer describes the code the
    /// record stood for: discarded, the demotion-safe path.
    fn install_translation(&mut self, done: TransDone<H>) {
        debug_assert_eq!(self.trans.epoch, self.state.code.live_epoch());
        let requester = match self.trans.tier_idx.get(done.start) {
            Some(&fi) if fi != NO_TIER => Some(fi),
            _ => None,
        };
        let Some(fi) =
            requester.filter(|&fi| self.trans.tier_fns[fi as usize].serial == done.serial)
        else {
            self.trans.astats.discarded_stale += 1;
            return;
        };
        let entry = &mut self.trans.tier_fns[fi as usize];
        entry.pending[done.tier as usize] = false;
        let words = u64::from(entry.words);
        if !self.install(fi, done.payload, &done.groups) {
            return;
        }
        let astats = &mut self.trans.astats;
        astats.translation_ns += done.build_ns;
        astats.translated_words += words;
        astats.async_translations += 1;
        astats.swap_latency_ns += done.enqueued.elapsed().as_nanos() as u64;
    }

    /// Adaptive-engine counters, with the translation-cost-saved
    /// estimate priced at this session's observed ns/word.
    pub fn adaptive_stats(&self) -> AdaptiveStats {
        let mut s = self.trans.astats;
        // `insns_tier1` is counted where it retires; the other two are
        // what the engine-wide counters already hold.
        s.insns_tier0 = self.trans.stats.slow_insns;
        s.insns_tier2 = self.trans.stats.fast_insns - s.insns_tier1;
        let cold_words: u64 = self
            .trans
            .tier_fns
            .iter()
            // Retired slots have `runs == 0` and drop out here too.
            .filter(|t| t.tier == Tier::Decode && t.runs > 0)
            .map(|t| u64::from(t.words))
            .sum();
        s.translation_ns_saved = saved_estimate(cold_words, s.translation_ns, s.translated_words);
        s
    }

    /// The adaptive tier and run count of the live function containing
    /// `addr`: `None` when `addr` is not inside live code or the
    /// function has not been entered since it was sealed (or since it
    /// was last patched). Diagnostic surface for tests and tooling.
    pub fn adaptive_tier(&self, addr: u64) -> Option<(Tier, u64)> {
        if addr < CODE_BASE || !addr.is_multiple_of(4) {
            return None;
        }
        let idx = ((addr - CODE_BASE) / 4) as usize;
        // Bumps the cache has not observed yet: a record inside a range
        // they invalidated is due for retirement — report untracked
        // rather than stale state.
        if self
            .state
            .code
            .invalidated_since(self.trans.epoch)
            .is_none_or(|mut dead| dead.any(|(start, end)| (start..end).contains(&idx)))
        {
            return None;
        }
        let fi = self.trans.tier_idx.get(idx).copied()?;
        if fi == NO_TIER {
            return None;
        }
        // A record the fixed engines or a preseed created has never
        // been entered.
        let t = &self.trans.tier_fns[fi as usize];
        (t.runs > 0).then_some((t.tier, t.runs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::CodeSpace;
    use crate::isa::{Insn, Op};
    use crate::predecode::ExecEngine;
    use crate::regs::{A0, AT0, ZERO};

    /// sum(1..=n) by counted loop (same shape as predecode's tests).
    fn loop_code() -> (CodeSpace, u64, crate::code::FuncHandle) {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("sum");
        cs.push(Insn::i(Op::Addiw, AT0, ZERO, 0));
        cs.push(Insn::i(Op::Beq, A0, ZERO, 3));
        cs.push(Insn::r(Op::Addw, AT0, AT0, A0));
        cs.push(Insn::i(Op::Addiw, A0, A0, -1));
        cs.push(Insn::j(Op::J, -4));
        cs.push(Insn::r(Op::Addw, A0, AT0, ZERO));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        (cs, addr, f)
    }

    fn adaptive_vm(
        fuse_after: u32,
        thread_after: u32,
    ) -> (Vm<crate::host::NoHost>, u64, crate::code::FuncHandle) {
        let (cs, addr, f) = loop_code();
        let mut vm = Vm::new(cs, 1 << 20);
        vm.set_engine(ExecEngine::Adaptive {
            fuse_after,
            thread_after,
            background: false,
        });
        (vm, addr, f)
    }

    fn adaptive_vm_bg(
        fuse_after: u32,
        thread_after: u32,
    ) -> (Vm<crate::host::NoHost>, u64, crate::code::FuncHandle) {
        let (cs, addr, f) = loop_code();
        let mut vm = Vm::new(cs, 1 << 20);
        vm.set_engine(ExecEngine::Adaptive {
            fuse_after,
            thread_after,
            background: true,
        });
        (vm, addr, f)
    }

    /// The tier the entry schedule alone grants the `k`-th entry
    /// (1-indexed): decided against the `k - 1` completed prior runs.
    /// Backedges only ever add to the clock, so this is a floor.
    fn entry_schedule(k: u64, fuse_after: u32, thread_after: u32) -> Tier {
        tier_for(k - 1, fuse_after, thread_after)
    }

    #[test]
    fn functions_climb_tiers_at_the_configured_thresholds() {
        // Entry thresholds are "no later than": run k executes at the
        // tier k - 1 completed runs earn, or higher if loop iterations
        // got the clock there first.
        let (mut vm, addr, _) = adaptive_vm(2, 4);
        let mut last = Tier::Decode;
        for k in 1..=6u64 {
            assert_eq!(vm.call(addr, &[5]).unwrap(), 15, "run {k}");
            let (tier, runs) = vm.adaptive_tier(addr).expect("tracked");
            assert!(tier >= entry_schedule(k, 2, 4), "run {k}: {tier:?}");
            assert!(tier >= last, "run {k}: monotone");
            assert_eq!(runs, k);
            last = tier;
        }
        assert_eq!(last, Tier::Threaded);
        let s = vm.adaptive_stats();
        assert_eq!(s.promotions, 2);
        assert_eq!(s.demotions, 0);
        assert_eq!(s.total_runs, 6);
        assert_eq!(s.runs_tier0 + s.runs_tier1 + s.runs_tier2, 6);
        assert!(s.runs_tier0 <= 2 && s.runs_tier2 >= 2, "{s:?}");
        assert!(s.translation_ns > 0, "promoted tiers were translated");
        // 40 iterations a run: the backedges of runs 1 and 2 add up to
        // a tick inside run 2, one entry ahead of the entry schedule —
        // and keep accruing at tier 1, so run 4 ends threaded, too.
        let (mut vm, addr, _) = adaptive_vm(2, 4);
        let mut tiers = Vec::new();
        for _ in 0..4 {
            vm.call(addr, &[40]).unwrap();
            tiers.push(vm.adaptive_tier(addr).unwrap().0);
        }
        assert_eq!(
            tiers,
            [Tier::Decode, Tier::Fused, Tier::Fused, Tier::Threaded]
        );
    }

    #[test]
    fn safepoint_yields_only_when_the_clock_is_due() {
        // thread_after out of reach: a tier-1 function loops inside one
        // dispatch however long it runs (the budget is the distance to
        // the threshold, not to the next tick).
        let (mut vm, addr, _) = adaptive_vm(1, u32::MAX);
        vm.call(addr, &[1]).unwrap();
        vm.call(addr, &[100_000]).unwrap();
        let fi = vm.trans.tier_idx[((addr - CODE_BASE) / 4) as usize];
        let record = &vm.trans.tier_fns[fi as usize];
        assert_eq!(record.backedges, 100_001, "every backedge was credited");
        assert_eq!(record.tier, Tier::Fused);
        // A retired record's clock restarts at zero: 60 + 60 backedges
        // across a patch never add up to a tick.
        let (mut vm, addr, _) = adaptive_vm(2, 100);
        vm.call(addr, &[60]).unwrap();
        vm.state_mut().code.patch(
            ((addr - CODE_BASE) / 4) as usize,
            Insn::i(Op::Addiw, AT0, ZERO, 0),
        );
        vm.call(addr, &[60]).unwrap();
        assert_eq!(vm.adaptive_tier(addr), Some((Tier::Decode, 1)));
        let fi = vm.trans.tier_idx[((addr - CODE_BASE) / 4) as usize];
        assert_eq!(vm.trans.tier_fns[fi as usize].backedges, 60);
    }

    #[test]
    fn a_function_holds_one_translation() {
        // Tier 2 holds the decoded array it was built from plus one
        // handler column, nothing else: promotion 1 -> 2 re-decodes and
        // copies nothing, and the record's threaded form is the only
        // thing keeping the array alive.
        let (mut vm, addr, _) = adaptive_vm(1, 2);
        vm.call(addr, &[3]).unwrap();
        vm.call(addr, &[3]).unwrap();
        let fi = vm.trans.tier_idx[((addr - CODE_BASE) / 4) as usize] as usize;
        let Translation::Decoded(decoded) = vm.trans.tier_fns[fi].tr.clone() else {
            panic!("tier 1 holds the decoded array");
        };
        vm.call(addr, &[3]).unwrap();
        let Translation::Threaded(threaded) = &vm.trans.tier_fns[fi].tr else {
            panic!("tier 2 holds the threaded form");
        };
        assert!(Arc::ptr_eq(&threaded.decoded, &decoded), "same allocation");
        assert_eq!(Arc::strong_count(&decoded), 2, "the form's and this one");
        assert_eq!(Arc::strong_count(threaded), 1);
        assert_eq!(vm.exec_stats().translations, 2, "one per installed form");
        assert_eq!(vm.exec_stats().translated_words, 14);
        // The background service builds the same thing from the same
        // allocation: its request carries the array, not the words.
        let (mut vm, addr, _) = adaptive_vm_bg(1, 2);
        for _ in 0..2 {
            vm.call(addr, &[3]).unwrap();
            vm.drain_background_translations();
        }
        let Translation::Decoded(decoded) = vm.trans.tier_fns[fi].tr.clone() else {
            panic!("tier 1 holds the decoded array");
        };
        vm.call(addr, &[3]).unwrap();
        vm.drain_background_translations();
        let Translation::Threaded(threaded) = &vm.trans.tier_fns[fi].tr else {
            panic!("tier 2 holds the threaded form");
        };
        assert!(Arc::ptr_eq(&threaded.decoded, &decoded), "same allocation");
    }

    #[test]
    fn all_tiers_agree_with_reference_results() {
        for n in [0u64, 1, 10, 100] {
            let (mut vm, addr, _) = adaptive_vm(1, 2);
            let want: u64 = (1..=n).sum();
            for run in 0..5 {
                assert_eq!(vm.call(addr, &[n]).unwrap(), want, "n={n} run={run}");
            }
        }
    }

    #[test]
    fn hot_loop_promotes_mid_run_off_the_backedge_clock() {
        // One entry, but hundreds of loop iterations: the backedge
        // clock (64 iterations ≈ one run) must lift the function out of
        // tier 0 during its first run, while the entry count is still 1.
        let (mut vm, addr, _) = adaptive_vm(2, 100);
        assert_eq!(vm.call(addr, &[300]).unwrap(), (1..=300).sum::<u64>());
        let (tier, runs) = vm.adaptive_tier(addr).expect("tracked");
        assert_eq!(runs, 1, "backedges are not entries");
        assert_eq!(tier, Tier::Fused, "promoted inside the first run");
        let s = vm.adaptive_stats();
        assert_eq!(s.total_runs, 1);
        assert_eq!(s.promotions, 1, "one level gained, mid-run");
        assert_eq!(s.runs_tier0, 1, "the entry itself was counted at tier 0");
        // A short-loop function stays on its entry schedule.
        let (mut vm, addr, _) = adaptive_vm(2, 100);
        assert_eq!(vm.call(addr, &[10]).unwrap(), 55);
        assert_eq!(vm.adaptive_tier(addr).unwrap().0, Tier::Decode);
    }

    #[test]
    fn epoch_bump_demotes_and_resets_run_counts() {
        let (mut vm, addr, _) = adaptive_vm(1, 2);
        for _ in 0..4 {
            vm.call(addr, &[3]).unwrap();
        }
        assert_eq!(vm.adaptive_tier(addr).unwrap().0, Tier::Threaded);
        // A live patch bumps the epoch without freeing anything.
        vm.state_mut().code.patch(
            ((addr - crate::code::CODE_BASE) / 4) as usize,
            Insn::i(Op::Addiw, AT0, ZERO, 0),
        );
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        let (tier, runs) = vm.adaptive_tier(addr).unwrap();
        assert_eq!(tier, Tier::Decode, "demoted to tier 0");
        assert_eq!(runs, 1, "run count restarted");
        let s = vm.adaptive_stats();
        assert_eq!(s.demotions, 2, "threaded function lost two levels");
        assert!(s.promotions >= s.demotions);
    }

    #[test]
    fn freed_hot_function_faults_stale_at_every_tier() {
        for warm_runs in [0u64, 1, 3, 8] {
            let (mut vm, addr, f) = adaptive_vm(1, 2);
            for _ in 0..warm_runs {
                vm.call(addr, &[2]).unwrap();
            }
            vm.state_mut().code.free_function(f).unwrap();
            assert_eq!(
                vm.call(addr, &[2]),
                Err(crate::error::VmError::StaleCode(addr)),
                "after {warm_runs} warm runs"
            );
            assert!(vm.adaptive_tier(addr).is_none(), "no live range remains");
        }
    }

    #[test]
    fn cold_functions_report_translation_saved_once_priced() {
        let (mut cs, hot, _) = loop_code();
        let g = cs.begin_function("once");
        cs.push(Insn::i(Op::Addiw, A0, A0, 7));
        cs.push(Insn::ret());
        let cold = cs.finish_function(g).unwrap();
        let mut vm = Vm::new(cs, 1 << 20);
        vm.set_engine(ExecEngine::Adaptive {
            fuse_after: 2,
            thread_after: 100,
            background: false,
        });
        vm.call(cold, &[1]).unwrap();
        assert_eq!(vm.adaptive_stats().translation_ns_saved, 0, "no price yet");
        for _ in 0..4 {
            vm.call(hot, &[4]).unwrap();
        }
        let s = vm.adaptive_stats();
        assert!(s.translation_ns > 0);
        assert!(
            s.translation_ns_saved > 0,
            "run-once function's avoided translation is priced: {s:?}"
        );
    }

    #[test]
    fn saved_estimate_is_exact_integer_arithmetic() {
        // 1000 ns over 4 words prices 10 cold words at 2500 ns.
        assert_eq!(saved_estimate(10, 1000, 4), 2500);
        // Sub-ns-per-word rates keep precision the f64 round-trip lost:
        // 3 ns over 4 words prices 10 cold words at 30/4 = 7 ns.
        assert_eq!(saved_estimate(10, 3, 4), 7);
        // No price signal: nothing translated, or a zero-duration cold
        // sample on a coarse clock.
        assert_eq!(saved_estimate(10, 0, 4), 0);
        assert_eq!(saved_estimate(10, 1000, 0), 0);
        assert_eq!(saved_estimate(0, 1000, 4), 0);
        // Counters too large for f64's 53-bit mantissa stay exact.
        let big = (1u64 << 60) + 1;
        assert_eq!(saved_estimate(big, 7, 7), big);
        // The u128 product cannot overflow; a result past u64 saturates.
        assert_eq!(saved_estimate(u64::MAX, u64::MAX, 1), u64::MAX);
    }

    #[test]
    fn background_promotion_matches_reference_results() {
        let (mut vm, addr, _) = adaptive_vm_bg(1, 2);
        for run in 0..8 {
            assert_eq!(vm.call(addr, &[10]).unwrap(), 55, "run {run}");
        }
        vm.drain_background_translations();
        assert_eq!(vm.call(addr, &[10]).unwrap(), 55, "post-drain run");
        let s = vm.adaptive_stats();
        assert!(
            s.async_translations >= 1,
            "worker-built translations were swapped in: {s:?}"
        );
        assert_eq!(s.discarded_stale, 0);
        assert!(s.swap_latency_ns > 0, "swap latency was accounted");
        assert!(
            s.translation_ns > 0,
            "worker build time lands in translation_ns"
        );
        let (tier, _) = vm.adaptive_tier(addr).expect("tracked");
        assert_eq!(tier, Tier::Threaded, "climbed to the top tier");
    }

    #[test]
    fn epoch_bump_between_enqueue_and_completion_discards_translation() {
        use crate::isa::{Insn, Op};
        let (mut vm, addr, _) = adaptive_vm_bg(1, 100);
        // Two entries: the second crosses `fuse_after` and enqueues a
        // tier-1 build on the worker.
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        let (tier, _) = vm.adaptive_tier(addr).expect("tracked");
        assert_eq!(tier, Tier::Fused, "promotion granted at entry 2");
        // The epoch bump lands between enqueue and receipt: patch a
        // live word (same instruction, so results are unchanged) before
        // draining the worker.
        vm.state_mut().code.patch(
            ((addr - crate::code::CODE_BASE) / 4) as usize,
            Insn::i(Op::Addiw, AT0, ZERO, 0),
        );
        vm.drain_background_translations();
        let s = vm.adaptive_stats();
        assert_eq!(
            s.discarded_stale, 1,
            "the stale translation was discarded, not installed: {s:?}"
        );
        assert_eq!(s.async_translations, 0, "nothing was swapped in");
        assert_eq!(vm.exec_stats().translations, 0, "no buffer was installed");
        // The function re-promotes cleanly from tier 0: the next run
        // observes the bump and demotes, then the climb restarts.
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        let (tier, runs) = vm.adaptive_tier(addr).expect("re-tracked");
        assert_eq!((tier, runs), (Tier::Decode, 1), "restarted at tier 0");
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        vm.drain_background_translations();
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        let (tier, _) = vm.adaptive_tier(addr).expect("tracked");
        assert_eq!(tier, Tier::Fused, "re-promoted after the bump");
        let s = vm.adaptive_stats();
        assert_eq!(s.async_translations, 1, "the re-built translation landed");
        assert_eq!(s.discarded_stale, 1);
    }

    /// A sealed function's address and handle.
    type Sealed = (u64, crate::code::FuncHandle);

    /// `loop_code`'s sum function ("a") plus a second function "b" of
    /// the same shape that returns `sum + 1`, so the two are told apart
    /// by result. Returns the space and `(addr, handle)` of each.
    fn two_functions() -> (CodeSpace, Sealed, Sealed) {
        let (mut cs, a, fa) = loop_code();
        let fb = cs.begin_function("b");
        push_sum_plus(&mut cs, 1);
        let b = cs.finish_function(fb).unwrap();
        (cs, (a, fa), (b, fb))
    }

    /// Emits `loop_code`'s body with `extra` added to the result (same
    /// length whatever `extra` is, so variants fit each other's holes).
    fn push_sum_plus(cs: &mut CodeSpace, extra: i32) {
        cs.push(Insn::i(Op::Addiw, AT0, ZERO, extra));
        cs.push(Insn::i(Op::Beq, A0, ZERO, 3));
        cs.push(Insn::r(Op::Addw, AT0, AT0, A0));
        cs.push(Insn::i(Op::Addiw, A0, A0, -1));
        cs.push(Insn::j(Op::J, -4));
        cs.push(Insn::r(Op::Addw, A0, AT0, ZERO));
        cs.push(Insn::ret());
    }

    fn engine_vm(cs: CodeSpace, engine: ExecEngine) -> Vm<crate::host::NoHost> {
        let mut vm = Vm::new(cs, 1 << 20);
        vm.set_engine(engine);
        vm
    }

    const SYNC: ExecEngine = ExecEngine::Adaptive {
        fuse_after: 1,
        thread_after: 2,
        background: false,
    };
    const ASYNC: ExecEngine = ExecEngine::Adaptive {
        fuse_after: 1,
        thread_after: 100,
        background: true,
    };

    #[test]
    fn epoch_bump_elsewhere_keeps_tier_and_translations() {
        // The freed function must fault whatever tier it had reached;
        // the survivor must not notice.
        for warm_runs in [0u64, 1, 3, 8] {
            let (cs, (a, _), (b, fb)) = two_functions();
            let mut vm = engine_vm(cs, SYNC);
            for _ in 0..4 {
                assert_eq!(vm.call(a, &[3]).unwrap(), 6);
            }
            for _ in 0..warm_runs {
                assert_eq!(vm.call(b, &[3]).unwrap(), 7);
            }
            assert_eq!(vm.adaptive_tier(a), Some((Tier::Threaded, 4)));
            let translations = vm.exec_stats().translations;
            let demotions = vm.adaptive_stats().demotions;
            let b_levels = vm.adaptive_tier(b).map_or(0, |(tier, _)| tier as u64);
            vm.state_mut().code.free_function(fb).unwrap();
            // Not yet observed by the cache, already reported right.
            assert_eq!(vm.adaptive_tier(a), Some((Tier::Threaded, 4)));
            assert_eq!(vm.adaptive_tier(b), None);
            assert_eq!(vm.call(a, &[3]).unwrap(), 6);
            assert_eq!(
                vm.adaptive_tier(a),
                Some((Tier::Threaded, 5)),
                "tier kept, run count continued"
            );
            assert_eq!(
                vm.exec_stats().translations,
                translations,
                "nothing was re-translated"
            );
            assert_eq!(vm.exec_stats().invalidations, 1, "one observed change");
            assert_eq!(
                vm.adaptive_stats().demotions - demotions,
                b_levels,
                "only the levels actually lost are counted"
            );
            assert_eq!(
                vm.call(b, &[3]),
                Err(VmError::StaleCode(b)),
                "after {warm_runs} warm runs"
            );
            assert_eq!(vm.adaptive_tier(b), None);
        }
    }

    #[test]
    fn epoch_bump_by_live_patch_demotes_only_the_patched_function() {
        let (cs, (a, _), (b, _)) = two_functions();
        let mut vm = engine_vm(cs, SYNC);
        for _ in 0..4 {
            vm.call(a, &[3]).unwrap();
            vm.call(b, &[3]).unwrap();
        }
        // Patch a's accumulator seed: sum + 10 from now on.
        vm.state_mut().code.patch(
            ((a - CODE_BASE) / 4) as usize,
            Insn::i(Op::Addiw, AT0, ZERO, 10),
        );
        assert_eq!(vm.call(a, &[3]).unwrap(), 16, "the patched word executes");
        assert_eq!(vm.call(b, &[3]).unwrap(), 7);
        assert_eq!(
            vm.adaptive_tier(a),
            Some((Tier::Decode, 1)),
            "patched: restarted"
        );
        assert_eq!(
            vm.adaptive_tier(b),
            Some((Tier::Threaded, 5)),
            "untouched: kept"
        );
        assert_eq!(vm.adaptive_stats().demotions, 2);
    }

    #[test]
    fn epoch_bump_cold_word_estimate_skips_retired_records() {
        // b runs once and is freed; its retired record must not keep
        // pricing "translation avoided" for code that no longer exists.
        let (cs, (a, _), (b, fb)) = two_functions();
        let mut vm = engine_vm(cs, SYNC);
        vm.call(b, &[3]).unwrap();
        for _ in 0..4 {
            vm.call(a, &[3]).unwrap();
        }
        assert!(vm.adaptive_stats().translation_ns_saved > 0, "b is cold");
        vm.state_mut().code.free_function(fb).unwrap();
        vm.call(a, &[3]).unwrap();
        assert_eq!(vm.adaptive_stats().translation_ns_saved, 0);
    }

    #[test]
    fn epoch_bump_churn_reuses_retired_tier_records() {
        // Free-and-replace b a thousand times: one record slot serves
        // every incarnation, each under a fresh serial.
        let (cs, (a, _), (b, mut fb)) = two_functions();
        let mut vm = engine_vm(cs, SYNC);
        vm.call(a, &[3]).unwrap();
        for round in 0..1000 {
            assert_eq!(vm.call(b, &[3]).unwrap(), 7 + (round & 1));
            let code = &mut vm.state_mut().code;
            code.free_function(fb).unwrap();
            fb = code.begin_function("b");
            push_sum_plus(code, 2 - (round & 1) as i32);
            assert_eq!(code.finish_function(fb).unwrap(), b, "same words");
        }
        assert_eq!(vm.trans.tier_fns.len(), 2, "a's record and b's slot");
        assert_eq!(vm.trans.next_serial, 1 + 1 + 1000);
    }

    #[test]
    fn epoch_bump_storm_past_the_ring_falls_back_to_a_full_clear() {
        use crate::code::INVALIDATION_RING;
        let (mut cs, a, _) = loop_code();
        let mut small = Vec::new();
        for i in 0..=INVALIDATION_RING {
            let f = cs.begin_function(&format!("s{i}"));
            cs.push(Insn::ret());
            small.push((cs.finish_function(f).unwrap(), f));
        }
        let mut vm = engine_vm(cs, SYNC);
        for _ in 0..4 {
            vm.call(a, &[3]).unwrap();
        }
        vm.call(small[0].0, &[]).unwrap();
        // One more free than the ring holds, all between two syncs.
        for &(_, f) in &small {
            vm.state_mut().code.free_function(f).unwrap();
        }
        assert_eq!(vm.adaptive_tier(a), None, "too far behind to tell");
        assert_eq!(vm.call(a, &[3]).unwrap(), 6, "still correct");
        assert_eq!(
            vm.adaptive_tier(a),
            Some((Tier::Decode, 1)),
            "the fallback demotes everything"
        );
        assert_eq!(vm.adaptive_stats().demotions, 2, "a's two levels");
        assert_eq!(vm.exec_stats().invalidations, 1);
        for &(addr, _) in &small {
            assert_eq!(vm.call(addr, &[]), Err(VmError::StaleCode(addr)));
        }
        // Exactly a ring's worth is still scoped.
        let (mut cs, a, _) = loop_code();
        let fs: Vec<_> = (0..INVALIDATION_RING)
            .map(|i| {
                let f = cs.begin_function(&format!("s{i}"));
                cs.push(Insn::ret());
                cs.finish_function(f).unwrap();
                f
            })
            .collect();
        let mut vm = engine_vm(cs, SYNC);
        for _ in 0..4 {
            vm.call(a, &[3]).unwrap();
        }
        for f in fs {
            vm.state_mut().code.free_function(f).unwrap();
        }
        assert_eq!(vm.call(a, &[3]).unwrap(), 6);
        assert_eq!(vm.adaptive_tier(a), Some((Tier::Threaded, 5)));
    }

    #[test]
    fn epoch_bump_is_scoped_under_the_fixed_engines_too() {
        for engine in [
            ExecEngine::Predecoded { fuse: false },
            ExecEngine::Predecoded { fuse: true },
            ExecEngine::Threaded,
        ] {
            let (cs, (a, _), (b, fb)) = two_functions();
            let mut vm = engine_vm(cs, engine);
            assert_eq!(vm.call(a, &[3]).unwrap(), 6);
            assert_eq!(vm.call(b, &[3]).unwrap(), 7);
            assert_eq!(vm.exec_stats().translations, 2, "{engine:?}");
            vm.state_mut().code.free_function(fb).unwrap();
            assert_eq!(vm.call(a, &[3]).unwrap(), 6);
            let s = vm.exec_stats();
            assert_eq!(s.translations, 2, "{engine:?}: a's buffer survived");
            assert_eq!(s.invalidations, 1, "{engine:?}");
            assert_eq!(vm.call(b, &[3]), Err(VmError::StaleCode(b)), "{engine:?}");
            // New code in b's words is translated afresh, never served
            // from b's old buffer.
            let code = &mut vm.state_mut().code;
            let fc = code.begin_function("c");
            push_sum_plus(code, 2);
            assert_eq!(code.finish_function(fc).unwrap(), b, "reuses b's words");
            assert_eq!(vm.call(b, &[3]).unwrap(), 8, "{engine:?}");
            assert_eq!(vm.exec_stats().translations, 3, "{engine:?}");
        }
    }

    #[test]
    fn background_build_survives_an_epoch_bump_elsewhere() {
        let (cs, (a, _), (b, fb)) = two_functions();
        let mut vm = engine_vm(cs, ASYNC);
        assert_eq!(vm.call(b, &[3]).unwrap(), 7);
        // Two entries: the second crosses `fuse_after` and enqueues a
        // tier-1 build of a on the worker.
        assert_eq!(vm.call(a, &[3]).unwrap(), 6);
        assert_eq!(vm.call(a, &[3]).unwrap(), 6);
        assert_eq!(vm.trans.pending, 1);
        // The bump lands between enqueue and receipt — in b.
        vm.state_mut().code.free_function(fb).unwrap();
        vm.drain_background_translations();
        let s = vm.adaptive_stats();
        assert_eq!(s.async_translations, 1, "a's build was installed: {s:?}");
        assert_eq!(s.discarded_stale, 0);
        let slow = vm.exec_stats().slow_insns;
        assert_eq!(vm.call(a, &[3]).unwrap(), 6);
        assert_eq!(
            vm.exec_stats().slow_insns,
            slow,
            "ran from the installed buffer"
        );
        assert_eq!(vm.adaptive_tier(a), Some((Tier::Fused, 3)));
        assert_eq!(vm.call(b, &[3]), Err(VmError::StaleCode(b)));
    }

    #[test]
    fn background_build_of_reused_words_is_discarded() {
        let (cs, (a, _), (b, fb)) = two_functions();
        let mut vm = engine_vm(cs, ASYNC);
        assert_eq!(vm.call(a, &[3]).unwrap(), 6);
        assert_eq!(vm.call(b, &[3]).unwrap(), 7);
        assert_eq!(vm.call(b, &[3]).unwrap(), 7);
        assert_eq!(vm.trans.pending, 1, "b's tier-1 build is in flight");
        let start = ((b - CODE_BASE) / 4) as usize;
        let stale = TransRequest {
            start,
            source: Source::Words(
                vm.state.code.word_slice(start, start + 7).to_vec(),
                vm.cost.clone(),
            ),
            tier: Tier::Fused,
            serial: vm.trans.tier_fns[vm.trans.tier_idx[start] as usize].serial,
            enqueued: Instant::now(),
        };
        // Free b and seal a different function into the same words
        // before the completion is received.
        let code = &mut vm.state_mut().code;
        code.free_function(fb).unwrap();
        let fc = code.begin_function("c");
        push_sum_plus(code, 2);
        assert_eq!(code.finish_function(fc).unwrap(), b, "same words");
        // c earns its own record (and its own build) at b's start word.
        assert_eq!(vm.call(b, &[3]).unwrap(), 8);
        assert_eq!(vm.call(b, &[3]).unwrap(), 8);
        vm.drain_background_translations();
        let s = vm.adaptive_stats();
        assert_eq!(s.discarded_stale, 1, "b's build was discarded: {s:?}");
        assert_eq!(s.async_translations, 1, "c's build was installed");
        assert_eq!(vm.call(b, &[3]).unwrap(), 8, "c's code, not b's buffer");
        // Whenever b's completion turns up, c's record does not vouch
        // for it: same start word, same epoch even, different serial.
        let late = build_translation::<crate::host::NoHost>(stale);
        vm.install_translation(late);
        assert_eq!(vm.adaptive_stats().discarded_stale, 2);
        assert_eq!(vm.call(b, &[3]).unwrap(), 8);
        assert_eq!(vm.call(a, &[3]).unwrap(), 6);
    }

    #[test]
    fn shared_hub_serves_multiple_vms_without_local_workers() {
        let hub = TransHub::spawn();
        let mut vms = Vec::new();
        for _ in 0..2 {
            let (mut vm, addr, _) = adaptive_vm_bg(1, 2);
            vm.set_translation_hub(hub.clone());
            vms.push((vm, addr));
        }
        for (vm, addr) in &mut vms {
            for run in 0..6 {
                assert_eq!(vm.call(*addr, &[10]).unwrap(), 55, "run {run}");
            }
            vm.drain_background_translations();
            assert_eq!(vm.call(*addr, &[10]).unwrap(), 55, "post-drain run");
            let s = vm.adaptive_stats();
            assert!(
                s.async_translations >= 1,
                "hub-built translations landed: {s:?}"
            );
            let client = vm.trans.hub.as_ref().expect("subscribed");
            assert!(
                Arc::ptr_eq(&client.hub.inner, &hub.inner),
                "no private hub was spawned"
            );
            let (tier, _) = vm.adaptive_tier(*addr).expect("tracked");
            assert_eq!(tier, Tier::Threaded, "climbed to the top tier");
        }
        // Dropping VMs before the hub, then the hub itself, must not
        // hang or panic (requests possibly still queued).
        drop(vms);
        drop(hub);
    }

    #[test]
    fn hub_is_shareable_across_threads() {
        let hub = TransHub::<crate::host::NoHost>::spawn();
        let mut handles = Vec::new();
        for t in 0..2 {
            let hub = hub.clone();
            handles.push(thread::spawn(move || {
                let (mut vm, addr, _) = adaptive_vm_bg(1, 2);
                vm.set_translation_hub(hub);
                for run in 0..6 {
                    assert_eq!(vm.call(addr, &[10]).unwrap(), 55, "t{t} run {run}");
                }
                vm.drain_background_translations();
                assert_eq!(vm.call(addr, &[10]).unwrap(), 55, "t{t} post-drain");
                vm.adaptive_stats().async_translations
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total >= 2, "each thread's builds came back: {total}");
    }

    #[test]
    fn background_worker_shuts_down_on_drop() {
        // No hub handed over: the first asynchronous promotion spawns a
        // private one, and only then.
        let (mut vm, addr, _) = adaptive_vm_bg(1, 2);
        vm.call(addr, &[5]).unwrap();
        assert!(vm.trans.hub.is_none(), "nothing promoted, no thread yet");
        for _ in 0..4 {
            vm.call(addr, &[5]).unwrap();
        }
        let hub = Arc::downgrade(&vm.trans.hub.as_ref().expect("spawned lazily").hub.inner);
        // Dropping the VM drops the cache and with it the hub's last
        // handle, which closes the request channel and joins the thread
        // — this must not hang or panic even with requests possibly
        // still in flight.
        drop(vm);
        assert!(hub.upgrade().is_none(), "the private hub went with the VM");
    }
}
