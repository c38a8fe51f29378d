//! The adaptive execution engine: count-triggered per-function tiering.
//!
//! The translated engines trade translation cost against dispatch
//! speed: the predecoded+fused engine pays one decoding pass per
//! function, and the direct-threaded engine adds a handler column (and
//! block summaries) over that array for the fastest dispatch. Which
//! trade wins depends on how often a function runs — the paper's
//! Figure 5 crossover, recreated at the execution layer.
//! [`ExecEngine::Adaptive`] makes the choice per function at run time.
//! Like tcc's generated code, a function runs translated from its
//! first call: its first entry decodes it inline — whether this VM
//! compiled the words or installed them from a pool — and one
//! threshold promotes it to the threaded form:
//!
//! ```text
//!   first entry          clock >= thread_after
//!   ──────────▶ tier 1 ───────────────────────▶ tier 2
//!               predecoded+fused                threaded
//!               clock: entries + backedges,     (top tier: nothing
//!               at the dispatcher's safepoint   left to count for)
//!                  ▲                               │
//!                  └───────────────────────────────┘
//!      the function itself freed or patched (its slot's version moved):
//!      its record is retired, translation + clock dropped; if the words
//!      are still (or again) live code, the next entry decodes them
//!      afresh and starts over at tier 1
//! ```
//!
//! There is no interpreter tier. The run loop single-steps the
//! reference path ([`ExecEngine::DecodePerStep`]'s) only where there is
//! nothing to dispatch through: a pc outside live code, which then
//! faults exactly as the reference engine does, and a function whose
//! decode was refused (a cost of the VM's model does not fit a slot).
//!
//! There is one promotion clock per function, in one unit. A "run" is
//! one entry of control into the function's live range from outside it
//! (the invocation counter of a classic tiered JIT): calls, returns
//! into a caller, and cross-function jumps all count; internal loops do
//! not. The clock additionally earns one run per
//! `2^BACKEDGES_PER_RUN_BITS` backward transfers taken inside the range
//! (the backedge counter of a classic tiered JIT), observed by the
//! decoded dispatcher's backedge safepoint
//! ([`Vm::dispatch`](crate::interp::Vm)), which is handed the backedges
//! still missing to the threshold and leaves the buffer at the transfer
//! that spends the last one. Heat is therefore counted where the time
//! goes: a function that loops for a million instructions reaches the
//! threaded tier inside its first run instead of idling one tier short
//! until its *entry* count catches up. Promotion is evaluated at entry
//! against the clock *before* that entry, and at every clock tick; it
//! is monotone per function — a function only moves up until it is
//! itself freed or patched.
//!
//! # Equivalence contract
//!
//! The adaptive engine composes the fixed engines' dispatchers and the
//! reference single-step path, so it inherits the
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
//! Tier state lives in the `TransCache`, one record per code-space slot,
//! each owning the translation it justified, and is revalidated
//! (`TransCache::sync_epoch`, shared with the fixed engines) against
//! [`CodeSpace::live_epoch`] on every outer-loop iteration, hence after
//! every host call. When the epoch has moved, the cache sweeps its
//! records: each whose slot version changed since it was made — the
//! function freed directly or by `tcc-cache` eviction, or a live word of
//! it patched — is retired and its translation dropped with it (a lost
//! tier 2 counted into `demotions`); every other function keeps its
//! translation, tier and run count. The run loop forgets its memoized
//! functions on any epoch change and re-resolves the current pc — the
//! owner index, then the record in that slot, for a survivor — so
//! stale pcs fault [`VmError::StaleCode`] /
//! [`VmError::BadPc`] from the exact same reference path as every
//! other engine.
//!
//! # Off-thread translation
//!
//! With `ExecEngine::Adaptive { background: true, .. }` the threaded
//! build leaves the run loop — the promoting run would otherwise stall
//! for the latency the tiering exists to hide. The decoded array a
//! first entry needs is still built inline: it is what the function
//! runs from, and it is the cheaper build. A 1→2 promotion submits a
//! translation request (the record's decoded array — an `Arc`, not a
//! copy — and the slot and version of the tier record asking) to the
//! one background service there is, a [`TransHub`]: the hub the VM was
//! subscribed to ([`Vm::set_translation_hub`](crate::interp::Vm), one
//! thread for a whole pool), or failing that a private one, spawned
//! lazily and owned by the translation cache. The hub adds the handler
//! column over the shared array. The run loop keeps executing fused;
//! finished translations are drained at function-entry points and at
//! the running function's clock ticks (so a loop granted tier 2 mid-run
//! finishes the run on it) and swapped in — or **discarded** unless the
//! slot's record still stands for the version the request was made at
//! and still holds the array the build extends. That per-function check
//! is sufficient: a version changes on exactly the events that make the
//! array wrong (the function freed or patched), a *new* function sealed
//! into the same slot comes under the next generation and so another
//! version, and a cache cleared under a new cost model rebuilds the
//! record's array — so a translation of freed, patched or re-used code
//! is never installed, while a free elsewhere in the session discards
//! no build in flight. Discarding rather than installing keeps
//! free/patch/eviction semantics and `StaleCode` faulting bit-identical
//! to the synchronous engines; the differential harness sweeps the
//! background variants too.
//!
//! [`ExecEngine::DecodePerStep`]: crate::predecode::ExecEngine::DecodePerStep
//! [`ExecEngine::Adaptive`]: crate::predecode::ExecEngine::Adaptive
//! [`CodeSpace::live_epoch`]: crate::code::CodeSpace::live_epoch

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::code::CODE_BASE;
use crate::error::VmError;
use crate::host::HostCall;
use crate::interp::{ExitStatus, Step, Vm, RETURN_SENTINEL};
use crate::predecode::{Decoded, Translation};
use crate::threaded::{thread, ThreadedFn};

/// Counters for the adaptive engine: where entries landed and where
/// instructions ran, how functions moved between tiers, and what
/// translation cost was spent. One type with the observability layer's.
pub use tcc_obs::AdaptiveMetrics as AdaptiveStats;

/// Default promotion threshold to tier 2 (direct-threaded): completed
/// runs after which the handler-column translation has paid for itself.
/// Calibrated by the `suite adaptive` reuse sweep (DESIGN.md §12).
pub const DEFAULT_THREAD_AFTER: u32 = 8;

/// Execution tier of one function under the adaptive engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Predecoded buffer with superinstruction fusion: where every
    /// function starts.
    Fused = 1,
    /// Direct-threaded dispatch with basic-block fuel batching.
    Threaded = 2,
}

/// Backward transfers taken inside a function below the top tier that
/// count as one extra completed run (`64`): a loop-heavy function
/// proves its heat in loop iterations long before its entry count does,
/// and every iteration spent below the top tier is paid at that tier's
/// price. The weight is a power of two so a clock tick is a shift
/// compare, and large enough that a short loop stays near its entry
/// schedule (its backedges still accrue, across runs, so the entry
/// threshold is "no later than", not "exactly at").
pub(crate) const BACKEDGES_PER_RUN_BITS: u32 = 6;

/// Per-function state, found from any word of the function's live
/// range through its code-space slot: the translation the function
/// currently dispatches through and, under the adaptive engine, the
/// clock and tier that justified it. The fixed engines create records
/// too (through the same `TransCache::track`) and use only `tr`.
pub(crate) struct FnTier<H> {
    /// The slot's version ([`CodeSpace::version`]) when the record was
    /// made: the code it stands for. `0` marks a retired record.
    ///
    /// [`CodeSpace::version`]: crate::code::CodeSpace::version
    pub(crate) version: u64,
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
    /// A threaded build for this record is in flight on the background
    /// service; suppresses duplicate enqueues.
    pub(crate) pending: bool,
    /// The function's one translation: `None` until its first entry
    /// decodes it. In background mode it can trail
    /// `tier` while the threaded build is in flight.
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

    /// Grants tier 2 if the clock has reached `thread_after`. Returns
    /// whether this call promoted the record.
    #[inline]
    fn promote(&mut self, thread_after: u32) -> bool {
        let due = self.tier == Tier::Fused && self.effective_runs() >= u64::from(thread_after);
        if due {
            self.tier = Tier::Threaded;
        }
        due
    }

    /// Promotion levels the record holds — what retiring it loses.
    #[inline]
    pub(crate) fn levels(&self) -> u64 {
        u64::from(self.tier == Tier::Threaded)
    }

    /// Backward transfers a tier-1 dispatch may take before the clock
    /// needs reading again: those still missing to the tick that
    /// reaches `thread_after`, or — with tier 2 already granted and its
    /// build in flight — to the next tick, where the run loop polls for
    /// it. Always at least 1.
    #[inline]
    fn backedge_budget(&self, thread_after: u32) -> u64 {
        let ticks = u64::from(thread_after)
            .saturating_sub(self.effective_runs())
            .max(1);
        (ticks << BACKEDGES_PER_RUN_BITS) - (self.backedges & ((1 << BACKEDGES_PER_RUN_BITS) - 1))
    }

    /// Absolute address of the function's first word: the `base` its
    /// (position-independent) translation is dispatched at.
    #[inline]
    pub(crate) fn base(&self) -> u64 {
        CODE_BASE + (self.start as u64) * 4
    }

    /// One past the function's last word.
    #[inline]
    pub(crate) fn end(&self) -> usize {
        self.start + self.words as usize
    }

    /// A fresh record for code of `version` at `[start, start + words)`:
    /// tier 1, nothing translated yet. Version 0 is a retired record.
    pub(crate) fn new(version: u64, start: usize, words: usize) -> FnTier<H> {
        FnTier {
            version,
            start,
            runs: 0,
            backedges: 0,
            tier: Tier::Fused,
            words: words as u32,
            pending: false,
            tr: Translation::None,
        }
    }
}

/// A threaded build handed to the background service: everything it
/// needs, captured at enqueue time so the hub thread never touches VM
/// state. Host-independent — only the response is typed over `H`.
pub(crate) struct TransRequest {
    /// The requesting record's slot and [`FnTier::version`]: the
    /// response is discarded unless the slot's record still stands for
    /// that version.
    slot: u32,
    version: u64,
    /// The decoded array the record holds: the hub adds the handler
    /// column over the shared allocation.
    decoded: Arc<Decoded>,
    /// Enqueue timestamp, for [`AdaptiveStats::swap_latency_ns`].
    enqueued: Instant,
}

/// A finished background translation, stamped with the validity context
/// it was built under.
pub(crate) struct TransDone<H> {
    slot: u32,
    version: u64,
    /// Wall-clock build time on the hub thread (goes into
    /// [`AdaptiveStats::translation_ns`] when installed).
    build_ns: u64,
    enqueued: Instant,
    /// The threaded form itself.
    payload: Arc<ThreadedFn<H>>,
}

/// Builds the threaded form a request asks for, timing the build.
fn build_translation<H: HostCall>(req: TransRequest) -> TransDone<H> {
    let t0 = Instant::now();
    let payload = Arc::new(thread(&req.decoded));
    TransDone {
        slot: req.slot,
        version: req.version,
        build_ns: t0.elapsed().as_nanos() as u64,
        enqueued: req.enqueued,
        payload,
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

/// One queued hub job.
enum HubJob<H> {
    /// A build, and the requester's completion channel.
    Build(TransRequest, mpsc::Sender<TransDone<H>>),
    /// A marker: answered once every job queued before it has been.
    Barrier(mpsc::Sender<()>),
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
    /// this call (one FIFO thread: a marker job is answered after all
    /// of them). Test and benchmark hook, like
    /// [`Vm::drain_background_translations`]: it makes "the build has
    /// finished" a fact at a chosen point — a host call inside a loop,
    /// say — without receiving anything on any VM's behalf.
    pub fn barrier(&self) {
        let (tx, rx) = mpsc::channel();
        if self.submit(HubJob::Barrier(tx)) {
            let _ = rx.recv();
        }
    }

    /// Queues a job. `false` when the hub thread is gone (the caller
    /// retries at a later promotion; execution is correct at the
    /// current tier either way).
    fn submit(&self, job: HubJob<H>) -> bool {
        let guard = self.inner.tx.lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_ref() {
            Some(tx) => tx.send(job).is_ok(),
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
        match job {
            HubJob::Build(req, reply) => {
                let _ = reply.send(build_translation::<H>(req));
            }
            HubJob::Barrier(reply) => {
                let _ = reply.send(());
            }
        }
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
    /// What this function dispatches through: the decoded array while
    /// a granted tier 2 is still being built on the background service,
    /// and a refusal single-steps on the reference path.
    tr: Translation<H>,
}

impl<H> Active<H> {
    /// Whether `pc` is a word inside this function's live range.
    #[inline]
    fn contains(&self, pc: u64) -> bool {
        pc >= self.lo && pc < self.hi && pc.is_multiple_of(4)
    }

    /// The `runs_tier*` counter an entry into this function lands in:
    /// the reference path's when its decode was refused, its tier's
    /// otherwise.
    fn runs_counter<'a>(&self, astats: &'a mut AdaptiveStats) -> &'a mut u64 {
        match (&self.tr, self.tier) {
            (Translation::None | Translation::Refused, _) => &mut astats.runs_tier0,
            (_, Tier::Fused) => &mut astats.runs_tier1,
            (_, Tier::Threaded) => &mut astats.runs_tier2,
        }
    }
}

impl<H: HostCall> Vm<H> {
    /// The adaptive engine's run loop. Structure matches `run_fixed` —
    /// translated dispatch where the function has a form, reference
    /// single steps otherwise — with tier selection at each function
    /// entry and at each tick of the running function's clock.
    pub(crate) fn run_adaptive(
        &mut self,
        mut pc: u64,
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
                // re-resolving a survivor is two loads (`record_at`).
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
                    let tier = self.count_entry(c.fi, thread_after);
                    if tier != c.tier || (background && !c.tr.serves(tier)) {
                        c.tier = tier;
                        c.tr = self.fetch_translation(c.fi, tier, background);
                    }
                } else {
                    prev = std::mem::replace(
                        &mut cur,
                        self.enter_function(pc, thread_after, background),
                    );
                }
                if let Some(c) = &cur {
                    *c.runs_counter(&mut self.trans.astats) += 1;
                }
            }
            // `cur` is a loop local, so dispatching through its memoized
            // translation borrows nothing from `self`. Tier 1 also
            // reports the backward transfers it took inside the
            // function — the hotspot clock's input: a loop iteration
            // paid at less than full speed.
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
                // Outside live code, or a refused function.
                _ => self.step_reference(pc)?,
            };
            if backedges > 0 {
                let a = cur.as_mut().expect("backedges stay inside a function");
                self.note_backedges(a, backedges, thread_after, background);
            }
            match step {
                Step::At(next) => pc = next,
                Step::Done(status) => return Ok(status),
            }
        }
    }

    /// Records one entry of control into the live function containing
    /// `pc`, promoting it first if its clock has crossed the threshold.
    /// Returns the memoized function state, or `None` when `pc` is not
    /// inside live code (the slow path then raises the exact reference
    /// fault).
    fn enter_function(
        &mut self,
        pc: u64,
        thread_after: u32,
        background: bool,
    ) -> Option<Active<H>> {
        let fi = self.record_at(pc)?;
        let tier = self.count_entry(fi, thread_after);
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
    /// function first if its clock has crossed the threshold. Returns
    /// the tier this entry starts at. With the tier-run count that
    /// follows, this is the whole per-transition cost once a function is
    /// memoized.
    #[inline]
    fn count_entry(&mut self, fi: u32, thread_after: u32) -> Tier {
        let entry = &mut self.trans.tier_fns[fi as usize];
        let promoted = entry.promote(thread_after);
        entry.runs += 1;
        let tier = entry.tier;
        let astats = &mut self.trans.astats;
        astats.promotions += u64::from(promoted);
        astats.total_runs += 1;
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
        thread_after: u32,
        background: bool,
    ) {
        let entry = &mut self.trans.tier_fns[a.fi as usize];
        let ticks = entry.backedges >> BACKEDGES_PER_RUN_BITS;
        entry.backedges += seen;
        if entry.backedges >> BACKEDGES_PER_RUN_BITS != ticks {
            self.clock_tick(a, thread_after, background);
        }
    }

    /// The clock of the running function `a` ticked: promote it in
    /// place if that reached the threshold — the next loop iteration
    /// then resumes mid-function through the threaded dispatcher, the
    /// way a return lands there. In background mode a granted tier 2
    /// whose build is still in flight is polled for here, the mid-run
    /// swap point: without it the pipeline would forfeit the whole
    /// remaining run to tier 1.
    fn clock_tick(&mut self, a: &mut Active<H>, thread_after: u32, background: bool) {
        if self.trans.tier_fns[a.fi as usize].promote(thread_after) {
            self.trans.astats.promotions += 1;
            a.tier = Tier::Threaded;
        } else if a.tr.serves(a.tier) || self.trans.pending == 0 {
            return;
        } else {
            self.poll_background();
        }
        a.tr = self.fetch_translation(a.fi, a.tier, background);
    }

    /// The translation record `fi` dispatches through at `tier`: the
    /// record's own when it already holds that tier's form. Otherwise
    /// it is built here and timed, through the fixed engines'
    /// `form_at` — the whole form when synchronous; in background mode
    /// only the decoded array a first entry needs, the threaded handler
    /// column going to the hub while the function keeps running fused.
    fn fetch_translation(&mut self, fi: u32, tier: Tier, background: bool) -> Translation<H> {
        let held = &self.trans.tier_fns[fi as usize].tr;
        if held.serves(tier) {
            return held.clone();
        }
        let inline = if background { Tier::Fused } else { tier };
        let tr = if held.serves(inline) {
            held.clone()
        } else {
            let t0 = Instant::now();
            let tr = self.form_at(fi, inline);
            let astats = &mut self.trans.astats;
            astats.translation_ns += t0.elapsed().as_nanos() as u64;
            astats.translated_words += u64::from(self.trans.tier_fns[fi as usize].words);
            tr
        };
        if !tr.serves(tier) {
            self.enqueue_translation(fi);
        }
        tr
    }

    /// Submits the threaded build of tier record `fi` to the background
    /// service (spawning a private hub on first use when the VM was
    /// handed none), carrying the decoded array the record holds and
    /// the record's slot and version, which the slot's record must
    /// still stand for when the result comes back. A build already in
    /// flight for the record is not duplicated.
    fn enqueue_translation(&mut self, fi: u32) {
        let entry = &mut self.trans.tier_fns[fi as usize];
        let Translation::Decoded(decoded) = &entry.tr else {
            return;
        };
        if entry.pending {
            return;
        }
        let req = TransRequest {
            slot: fi,
            version: entry.version,
            decoded: Arc::clone(decoded),
            enqueued: Instant::now(),
        };
        entry.pending = true;
        let client = self
            .trans
            .hub
            .get_or_insert_with(|| HubClient::new(TransHub::spawn()));
        if client
            .hub
            .submit(HubJob::Build(req, client.done_tx.clone()))
        {
            self.trans.pending += 1;
        } else {
            // Hub unavailable (died mid-session): clear the flag so a
            // later promotion can retry; execution stays correct at
            // tier 1 either way.
            self.trans.tier_fns[fi as usize].pending = false;
        }
    }

    /// Subscribes this VM to a shared [`TransHub`]: every later
    /// background promotion is built on that hub's thread instead of a
    /// private one, and completions come back on a channel created
    /// here. Install semantics (the per-function version check,
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
    /// — iff its slot's record still stands for the version the request
    /// was made at and still holds the array the build extends.
    /// Otherwise the function was freed or patched since, or its slot
    /// reused, or the cache was cleared (under a new cost model, say):
    /// discarded, the demotion-safe path.
    fn install_translation(&mut self, done: TransDone<H>) {
        debug_assert_eq!(self.trans.epoch, self.state.code.live_epoch());
        let current = |record: &FnTier<H>| {
            record.version == done.version
                && matches!(&record.tr, Translation::Decoded(d) if Arc::ptr_eq(d, &done.payload.decoded))
        };
        let Some(fi) = self
            .trans
            .record_of(&self.state.code, done.slot as usize)
            .filter(|&fi| current(&self.trans.tier_fns[fi as usize]))
        else {
            self.trans.astats.discarded_stale += 1;
            return;
        };
        let entry = &mut self.trans.tier_fns[fi as usize];
        entry.pending = false;
        let words = u64::from(entry.words);
        if !self.install(fi, Translation::Threaded(done.payload)) {
            return;
        }
        let astats = &mut self.trans.astats;
        astats.translation_ns += done.build_ns;
        astats.translated_words += words;
        astats.async_translations += 1;
        astats.swap_latency_ns += done.enqueued.elapsed().as_nanos() as u64;
    }

    /// Adaptive-engine counters.
    pub fn adaptive_stats(&self) -> AdaptiveStats {
        let mut s = self.trans.astats;
        // `insns_tier1` is counted where it retires; the other two are
        // what the engine-wide counters already hold.
        s.insns_tier0 = self.trans.stats.slow_insns;
        s.insns_tier2 = self.trans.stats.fast_insns - s.insns_tier1;
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
        let code = &self.state.code;
        let handle = code.owner(((addr - CODE_BASE) / 4) as usize)?;
        // A record whose code was freed or patched since is due for
        // retirement: `record_of` reports it untracked, not stale.
        let fi = self.trans.record_of(code, handle.slot())?;
        // A record the fixed engines created has never been entered.
        let t = &self.trans.tier_fns[fi as usize];
        (t.runs > 0).then_some((t.tier, t.runs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::CodeSpace;
    use crate::isa::{Insn, Op};
    use crate::predecode::{decode, ExecEngine};
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
        thread_after: u32,
        background: bool,
    ) -> (Vm<crate::host::NoHost>, u64, crate::code::FuncHandle) {
        let (cs, addr, f) = loop_code();
        let mut vm = Vm::new(cs, 1 << 20);
        vm.set_engine(ExecEngine::Adaptive {
            thread_after,
            background,
        });
        (vm, addr, f)
    }

    /// The tier the entry schedule alone grants the `k`-th entry
    /// (1-indexed): decided against the `k - 1` completed prior runs.
    /// Backedges only ever add to the clock, so this is a floor.
    fn entry_schedule(k: u64, thread_after: u32) -> Tier {
        if k > u64::from(thread_after) {
            Tier::Threaded
        } else {
            Tier::Fused
        }
    }

    #[test]
    fn functions_climb_tiers_at_the_configured_thresholds() {
        // The entry threshold is "no later than": run k executes at the
        // tier k - 1 completed runs earn, or higher if loop iterations
        // got the clock there first.
        let (mut vm, addr, _) = adaptive_vm(4, false);
        let mut last = Tier::Fused;
        for k in 1..=6u64 {
            assert_eq!(vm.call(addr, &[5]).unwrap(), 15, "run {k}");
            let (tier, runs) = vm.adaptive_tier(addr).expect("tracked");
            assert!(tier >= entry_schedule(k, 4), "run {k}: {tier:?}");
            assert!(tier >= last, "run {k}: monotone");
            assert_eq!(runs, k);
            last = tier;
        }
        assert_eq!(last, Tier::Threaded);
        let s = vm.adaptive_stats();
        assert_eq!(s.promotions, 1);
        assert_eq!(s.demotions, 0);
        assert_eq!(s.total_runs, 6);
        assert_eq!((s.runs_tier0, s.runs_tier1 + s.runs_tier2), (0, 6));
        assert!(s.runs_tier2 >= 2, "{s:?}");
        assert_eq!(s.insns_tier0, 0, "nothing single-stepped");
        assert!(s.translation_ns > 0, "both forms were translated");
        // 40 iterations a run: the backedges of runs 1 and 2 tick once,
        // so run 4 enters threaded, one entry ahead of the schedule.
        let (mut vm, addr, _) = adaptive_vm(4, false);
        let mut tiers = Vec::new();
        for _ in 0..4 {
            vm.call(addr, &[40]).unwrap();
            tiers.push(vm.adaptive_tier(addr).unwrap().0);
        }
        assert_eq!(
            tiers,
            [Tier::Fused, Tier::Fused, Tier::Fused, Tier::Threaded]
        );
    }

    #[test]
    fn safepoint_yields_only_when_the_clock_is_due() {
        // thread_after out of reach: a tier-1 function loops inside one
        // dispatch however long it runs (the budget is the distance to
        // the threshold, not to the next tick).
        let (mut vm, addr, _) = adaptive_vm(u32::MAX, false);
        vm.call(addr, &[1]).unwrap();
        vm.call(addr, &[100_000]).unwrap();
        let record = &vm.trans.tier_fns[record_at(&vm, addr)];
        assert_eq!(record.backedges, 100_001, "every backedge was credited");
        assert_eq!(record.tier, Tier::Fused);
        // A retired record's clock restarts at zero: 60 + 60 backedges
        // across a patch never add up to a tick.
        let (mut vm, addr, _) = adaptive_vm(100, false);
        vm.call(addr, &[60]).unwrap();
        vm.state_mut().code.patch(
            ((addr - CODE_BASE) / 4) as usize,
            Insn::i(Op::Addiw, AT0, ZERO, 0),
        );
        vm.call(addr, &[60]).unwrap();
        assert_eq!(vm.adaptive_tier(addr), Some((Tier::Fused, 1)));
        assert_eq!(vm.trans.tier_fns[record_at(&vm, addr)].backedges, 60);
    }

    #[test]
    fn a_function_holds_one_translation() {
        // Tier 2 holds the decoded array it was built from plus one
        // handler column, nothing else: promotion 1 -> 2 re-decodes and
        // copies nothing, and the record's threaded form is the only
        // thing keeping the array alive.
        let (mut vm, addr, _) = adaptive_vm(1, false);
        vm.call(addr, &[3]).unwrap();
        let fi = record_at(&vm, addr);
        let Translation::Decoded(decoded) = vm.trans.tier_fns[fi].tr.clone() else {
            panic!("the first entry decoded the function");
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
        let (mut vm, addr, _) = adaptive_vm(1, true);
        vm.call(addr, &[3]).unwrap();
        assert!(vm.trans.hub.is_none(), "the decode was built inline");
        let Translation::Decoded(decoded) = vm.trans.tier_fns[fi].tr.clone() else {
            panic!("the first entry decoded the function");
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
            let (mut vm, addr, _) = adaptive_vm(2, false);
            let want: u64 = (1..=n).sum();
            for run in 0..5 {
                assert_eq!(vm.call(addr, &[n]).unwrap(), want, "n={n} run={run}");
            }
        }
    }

    #[test]
    fn hot_loop_promotes_mid_run_off_the_backedge_clock() {
        // One entry, but hundreds of loop iterations: the backedge
        // clock (64 iterations ≈ one run) must lift the function to
        // tier 2 during its first run, while the entry count is still 1.
        let (mut vm, addr, _) = adaptive_vm(3, false);
        assert_eq!(vm.call(addr, &[300]).unwrap(), (1..=300).sum::<u64>());
        let (tier, runs) = vm.adaptive_tier(addr).expect("tracked");
        assert_eq!(runs, 1, "backedges are not entries");
        assert_eq!(tier, Tier::Threaded, "promoted inside the first run");
        let s = vm.adaptive_stats();
        assert_eq!(s.total_runs, 1);
        assert_eq!(s.promotions, 1, "one level gained, mid-run");
        assert_eq!(s.runs_tier1, 1, "the entry itself was counted at tier 1");
        assert!(s.insns_tier1 > 0 && s.insns_tier2 > 0, "{s:?}");
        // A short-loop function stays on its entry schedule.
        let (mut vm, addr, _) = adaptive_vm(3, false);
        assert_eq!(vm.call(addr, &[10]).unwrap(), 55);
        assert_eq!(vm.adaptive_tier(addr).unwrap().0, Tier::Fused);
    }

    #[test]
    fn epoch_bump_demotes_and_resets_run_counts() {
        let (mut vm, addr, _) = adaptive_vm(2, false);
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
        assert_eq!(tier, Tier::Fused, "demoted to tier 1");
        assert_eq!(runs, 1, "run count restarted");
        let s = vm.adaptive_stats();
        assert_eq!(s.demotions, 1, "the threaded function lost its level");
        assert!(s.promotions >= s.demotions);
    }

    #[test]
    fn freed_hot_function_faults_stale_at_every_tier() {
        for warm_runs in [0u64, 1, 3, 8] {
            let (mut vm, addr, f) = adaptive_vm(2, false);
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
    fn background_promotion_matches_reference_results() {
        let (mut vm, addr, _) = adaptive_vm(2, true);
        for run in 0..8 {
            assert_eq!(vm.call(addr, &[10]).unwrap(), 55, "run {run}");
        }
        vm.drain_background_translations();
        assert_eq!(vm.call(addr, &[10]).unwrap(), 55, "post-drain run");
        let s = vm.adaptive_stats();
        assert_eq!(
            s.async_translations, 1,
            "the threaded build was swapped in: {s:?}"
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
        let (mut vm, addr, _) = adaptive_vm(1, true);
        // Two entries: the first decodes inline, the second crosses
        // `thread_after` and enqueues the tier-2 build on the worker.
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        let (tier, _) = vm.adaptive_tier(addr).expect("tracked");
        assert_eq!(tier, Tier::Threaded, "promotion granted at entry 2");
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
        assert_eq!(vm.exec_stats().translations, 1, "only the inline decode");
        // The function re-promotes cleanly: the next run observes the
        // bump and demotes, then the climb restarts.
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        let (tier, runs) = vm.adaptive_tier(addr).expect("re-tracked");
        assert_eq!((tier, runs), (Tier::Fused, 1), "restarted at tier 1");
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        vm.drain_background_translations();
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6);
        let (tier, _) = vm.adaptive_tier(addr).expect("tracked");
        assert_eq!(tier, Tier::Threaded, "re-promoted after the bump");
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

    /// Index of the tier record of the live function at `addr`.
    fn record_at(vm: &Vm<crate::host::NoHost>, addr: u64) -> usize {
        let handle = vm.state.code.owner(((addr - CODE_BASE) / 4) as usize);
        let slot = handle.expect("live").slot();
        vm.trans.record_of(&vm.state.code, slot).expect("tracked") as usize
    }

    fn engine_vm(cs: CodeSpace, engine: ExecEngine) -> Vm<crate::host::NoHost> {
        let mut vm = Vm::new(cs, 1 << 20);
        vm.set_engine(engine);
        vm
    }

    const SYNC: ExecEngine = ExecEngine::Adaptive {
        thread_after: 2,
        background: false,
    };
    const ASYNC: ExecEngine = ExecEngine::Adaptive {
        thread_after: 1,
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
            let b_levels = vm
                .adaptive_tier(b)
                .map_or(0, |(tier, _)| u64::from(tier == Tier::Threaded));
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
            Some((Tier::Fused, 1)),
            "patched: restarted"
        );
        assert_eq!(
            vm.adaptive_tier(b),
            Some((Tier::Threaded, 5)),
            "untouched: kept"
        );
        assert_eq!(vm.adaptive_stats().demotions, 1);
    }

    #[test]
    fn epoch_bump_churn_reuses_retired_tier_records() {
        // Free-and-replace b a thousand times: b's slot, and so one
        // record, serves every incarnation, each under a new version.
        let (cs, (a, _), (b, mut fb)) = two_functions();
        let mut vm = engine_vm(cs, SYNC);
        vm.call(a, &[3]).unwrap();
        let mut versions = Vec::new();
        for round in 0..1000 {
            assert_eq!(vm.call(b, &[3]).unwrap(), 7 + (round & 1));
            versions.push(vm.trans.tier_fns[record_at(&vm, b)].version);
            let code = &mut vm.state_mut().code;
            code.free_function(fb).unwrap();
            let slot = fb.slot();
            fb = code.begin_function("b");
            assert_eq!(fb.slot(), slot, "the freed slot is reused");
            push_sum_plus(code, 2 - (round & 1) as i32);
            assert_eq!(code.finish_function(fb).unwrap(), b, "same words");
        }
        assert_eq!(vm.trans.tier_fns.len(), 2, "a's record and b's slot");
        assert!(
            versions.windows(2).all(|w| w[0] < w[1]),
            "a new version each"
        );
    }

    #[test]
    fn epoch_bump_storm_keeps_the_survivors_tier() {
        // 65 frees between two syncs: the sweep retires exactly the
        // records of the freed functions, however many there are.
        let (mut cs, a, _) = loop_code();
        let mut small = Vec::new();
        for i in 0..65 {
            let f = cs.begin_function(&format!("s{i}"));
            cs.push(Insn::ret());
            small.push((cs.finish_function(f).unwrap(), f));
        }
        let mut vm = engine_vm(cs, SYNC);
        for _ in 0..4 {
            vm.call(a, &[3]).unwrap();
        }
        vm.call(small[0].0, &[]).unwrap();
        for &(_, f) in &small {
            vm.state_mut().code.free_function(f).unwrap();
        }
        assert_eq!(vm.adaptive_tier(a), Some((Tier::Threaded, 4)));
        assert_eq!(vm.call(a, &[3]).unwrap(), 6);
        assert_eq!(vm.adaptive_tier(a), Some((Tier::Threaded, 5)), "kept");
        assert_eq!(vm.adaptive_stats().demotions, 0, "s0 was at tier 1");
        assert_eq!(vm.exec_stats().invalidations, 1);
        for &(addr, _) in &small {
            assert_eq!(vm.call(addr, &[]), Err(VmError::StaleCode(addr)));
        }
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
        // Two entries: the second crosses `thread_after` and enqueues
        // a's tier-2 build on the worker.
        assert_eq!(vm.call(a, &[3]).unwrap(), 6);
        assert_eq!(vm.call(a, &[3]).unwrap(), 6);
        assert_eq!(vm.trans.pending, 1);
        // The bump lands between enqueue and receipt — in b.
        vm.state_mut().code.free_function(fb).unwrap();
        vm.drain_background_translations();
        let s = vm.adaptive_stats();
        assert_eq!(s.async_translations, 1, "a's build was installed: {s:?}");
        assert_eq!(s.discarded_stale, 0);
        let threaded = s.insns_tier2;
        assert_eq!(vm.call(a, &[3]).unwrap(), 6);
        assert!(
            vm.adaptive_stats().insns_tier2 > threaded,
            "ran from the installed form"
        );
        assert_eq!(vm.adaptive_tier(a), Some((Tier::Threaded, 3)));
        assert_eq!(vm.call(b, &[3]), Err(VmError::StaleCode(b)));
    }

    #[test]
    fn background_build_of_a_reused_slot_is_discarded() {
        let (cs, (a, _), (b, fb)) = two_functions();
        let mut vm = engine_vm(cs, ASYNC);
        assert_eq!(vm.call(a, &[3]).unwrap(), 6);
        assert_eq!(vm.call(b, &[3]).unwrap(), 7);
        assert_eq!(vm.call(b, &[3]).unwrap(), 7);
        assert_eq!(vm.trans.pending, 1, "b's tier-2 build is in flight");
        let start = ((b - CODE_BASE) / 4) as usize;
        let stale = TransRequest {
            slot: fb.slot() as u32,
            version: vm.trans.tier_fns[record_at(&vm, b)].version,
            decoded: Arc::new(
                decode(vm.state.code.word_slice(start, start + 7), &vm.cost).unwrap(),
            ),
            enqueued: Instant::now(),
        };
        // Free b and seal a different function into the same slot and
        // words before the completion is received.
        let code = &mut vm.state_mut().code;
        code.free_function(fb).unwrap();
        let fc = code.begin_function("c");
        push_sum_plus(code, 2);
        assert_eq!(code.finish_function(fc).unwrap(), b, "same words");
        assert_eq!(fc.slot(), fb.slot(), "same slot");
        // c earns its own record (and its own build) in b's slot.
        assert_eq!(vm.call(b, &[3]).unwrap(), 8);
        assert_eq!(vm.call(b, &[3]).unwrap(), 8);
        vm.drain_background_translations();
        let s = vm.adaptive_stats();
        assert_eq!(s.discarded_stale, 1, "b's build was discarded: {s:?}");
        assert_eq!(s.async_translations, 1, "c's build was installed");
        assert_eq!(vm.call(b, &[3]).unwrap(), 8, "c's code, not b's buffer");
        // Whenever b's completion turns up, c's record does not vouch
        // for it: same slot, same start word, same epoch even, another
        // version.
        let late = build_translation::<crate::host::NoHost>(stale);
        vm.install_translation(late);
        assert_eq!(vm.adaptive_stats().discarded_stale, 2);
        assert_eq!(vm.call(b, &[3]).unwrap(), 8);
        assert_eq!(vm.call(a, &[3]).unwrap(), 6);
    }

    #[test]
    fn background_build_from_before_a_cost_model_change_is_discarded() {
        // Same slot, same version, but the record was rebuilt under a
        // new cost model: the build over the old array must not land.
        let (mut vm, addr, _) = adaptive_vm(1, true);
        vm.call(addr, &[3]).unwrap();
        vm.call(addr, &[3]).unwrap();
        assert_eq!(vm.trans.pending, 1, "the tier-2 build is in flight");
        let mut cost = crate::cost::CostModel::default();
        cost.branch_taken_extra += 1;
        vm.set_cost_model(cost);
        vm.call(addr, &[3]).unwrap();
        vm.call(addr, &[3]).unwrap();
        vm.drain_background_translations();
        let s = vm.adaptive_stats();
        assert_eq!((s.discarded_stale, s.async_translations), (1, 1), "{s:?}");
        let fi = record_at(&vm, addr);
        let Translation::Threaded(threaded) = &vm.trans.tier_fns[fi].tr else {
            panic!("the second build landed");
        };
        let taken = u64::from(threaded.decoded.slots[1].taken_cost());
        assert_eq!(taken, vm.cost_model().cost(Op::Beq) + 2, "the new model's");
    }

    #[test]
    fn shared_hub_serves_multiple_vms_without_local_workers() {
        let hub = TransHub::spawn();
        let mut vms = Vec::new();
        for _ in 0..2 {
            let (mut vm, addr, _) = adaptive_vm(2, true);
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
            assert_eq!(s.async_translations, 1, "the hub-built form landed: {s:?}");
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
                let (mut vm, addr, _) = adaptive_vm(2, true);
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
        assert_eq!(total, 2, "each thread's build came back");
    }

    #[test]
    fn background_worker_shuts_down_on_drop() {
        // No hub handed over: the first asynchronous promotion spawns a
        // private one, and only then.
        let (mut vm, addr, _) = adaptive_vm(2, true);
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
