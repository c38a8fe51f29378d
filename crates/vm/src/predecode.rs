//! The predecoded execution engine: a per-function translation cache
//! with superinstruction fusion.
//!
//! The reference engine ([`ExecEngine::DecodePerStep`]) pays a bounds +
//! liveness check, `Insn::decode` bit-twiddling, and two cost-model
//! matches on **every executed instruction**. Following the paper's
//! premise — pay translation cost once per code body, not per execution
//! — this module translates a sealed function's word range once into a
//! dense `DecodedFn` buffer: operands unpacked, [`Op`] resolved,
//! branch targets pre-resolved to buffer indices, and per-instruction
//! cycle costs pre-looked-up. [`Vm::run`] then dispatches over that
//! buffer in a tight loop with the liveness check hoisted to
//! cache-entry time.
//!
//! # Equivalence contract
//!
//! The predecoded engine (with or without fusion) is *observationally
//! identical* to decode-per-step: same result values, same `cycles`,
//! same `insns`, same exit status, and same error at the same
//! instruction (including [`VmError::OutOfFuel`]). Fused
//! superinstructions charge the exact sum of their constituents and run
//! each constituent as a separate micro-step (execute, charge, fuel
//! check — in slow-path order), so even mid-pair faults are identical.
//! `tests/exec_differential.rs` enforces this on randomized programs.
//!
//! # Invalidation
//!
//! The translation cache is validated against
//! [`CodeSpace::live_epoch`](crate::code::CodeSpace::live_epoch), which bumps
//! whenever previously-live code stops meaning what it did: a function
//! is freed (directly or by `tcc-cache` eviction) or a live word is
//! patched. Every engine revalidates through the one
//! `TransCache::sync_epoch`, which asks the code space *which* ranges
//! died since the cache last looked
//! ([`CodeSpace::invalidated_since`](crate::code::CodeSpace::invalidated_since))
//! and drops exactly those functions' buffers and tier records — an
//! invalidation costs the words it invalidated, and every other
//! function keeps its translation, tier and run count. Only a cache
//! more than
//! [`INVALIDATION_RING`](crate::code::INVALIDATION_RING) bumps behind
//! falls back to dropping everything. Stale pcs fall back to the
//! reference engine's single-step path, which raises
//! [`VmError::StaleCode`] / [`VmError::BadPc`] exactly as today. Host
//! calls can free or patch code mid-run (the compile runtime does), so
//! a dispatcher leaves its buffer after any host call that moved the
//! epoch and the run loop revalidates before re-entering one.

use std::sync::Arc;

use crate::adaptive::{AdaptiveStats, FnTier, DEFAULT_FUSE_AFTER, DEFAULT_THREAD_AFTER, NO_TIER};
use crate::code::{CodeSpace, CODE_BASE};
use crate::cost::CostModel;
use crate::error::VmError;
use crate::host::HostCall;
use crate::interp::{branch_taken, exec_scalar, ExitStatus, Step, Vm, RETURN_SENTINEL};
use crate::isa::{Insn, Op};
use crate::threaded::{ThreadedFn, HANDLER_TABLE_SIZE};

/// Which execution engine [`Vm::run`] dispatches through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecEngine {
    /// Fetch + bounds/liveness check + decode + cost lookup on every
    /// instruction. The reference semantics.
    DecodePerStep,
    /// Translate each sealed function once, execute from the decoded
    /// buffer. `fuse` additionally merges adjacent instruction pairs
    /// into superinstructions.
    Predecoded {
        /// Enable superinstruction fusion over the decoded buffer.
        fuse: bool,
    },
    /// Direct-threaded dispatch (a handler function pointer per slot)
    /// with basic-block fuel batching. See [`crate::threaded`].
    Threaded,
    /// Count-triggered per-function tiering: decode-per-step until a
    /// function has been entered `fuse_after` times, predecoded+fused
    /// until `thread_after`, direct-threaded after that. Run-once code
    /// never pays translation; hot code ends up on the fastest engine.
    /// See [`crate::adaptive`].
    Adaptive {
        /// Completed runs after which a function is promoted to the
        /// predecoded+fused engine (tier 1).
        fuse_after: u32,
        /// Completed runs after which a function is promoted to the
        /// direct-threaded engine (tier 2).
        thread_after: u32,
        /// Translate promoted functions on a background worker thread
        /// instead of inline: the promoting run keeps executing at its
        /// current tier and the finished translation is swapped in at a
        /// later function entry (discarded if the live epoch moved
        /// first). `false` keeps PR 5's synchronous promotion.
        background: bool,
    },
}

impl Default for ExecEngine {
    /// Adaptive tiering with the calibrated thresholds
    /// ([`DEFAULT_FUSE_AFTER`] / [`DEFAULT_THREAD_AFTER`], from the
    /// `suite adaptive` reuse sweep).
    fn default() -> Self {
        ExecEngine::Adaptive {
            fuse_after: DEFAULT_FUSE_AFTER,
            thread_after: DEFAULT_THREAD_AFTER,
            background: false,
        }
    }
}

/// Counters for the execution engine: how much was translated and how
/// instructions were dispatched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Functions translated into decoded buffers.
    pub translations: u64,
    /// Total code words covered by those translations.
    pub translated_words: u64,
    /// Instruction pairs fused into superinstructions (cumulative over
    /// translations).
    pub fused_pairs: u64,
    /// Instructions retired from decoded buffers.
    pub fast_insns: u64,
    /// Instructions retired by the decode-per-step path (the whole run
    /// for that engine; fallback steps for the predecoded engine).
    pub slow_insns: u64,
    /// Live-epoch changes this VM observed (one per revalidation that
    /// found the epoch moved, however many bumps it had moved by). Each
    /// drops the translations of the ranges that died in between — the
    /// whole cache only when the invalidation ring had wrapped.
    pub invalidations: u64,
    /// Scalar runs whose whole cost was charged in one batch by the
    /// threaded engine ([`crate::threaded`]).
    pub batched_blocks: u64,
    /// Batched runs that exited early (mid-run fault) and had their
    /// unexecuted tail un-charged.
    pub fuel_reconciliations: u64,
    /// Size of the direct-threaded handler table; `0` until the
    /// threaded engine has translated something.
    pub handlers: u64,
    /// Superinstruction groups compiled by the threaded engine's
    /// translation (fused run+jump, run+branch, pair, and triple slots;
    /// cumulative over translations).
    pub superinstructions: u64,
    /// Handler dispatches executed by the threaded engine (one per
    /// dispatch-loop iteration inside translated buffers).
    pub dispatches: u64,
    /// Threaded-engine dispatches that went through a superinstruction
    /// handler (a whole fused group per dispatch).
    pub fused_dispatches: u64,
}

impl ExecStats {
    /// Fraction of retired instructions dispatched from translated
    /// buffers. `0.0` when nothing has executed yet (matching
    /// `CacheMetrics::hit_rate`: no traffic is not a perfect score).
    pub fn hit_rate(&self) -> f64 {
        let total = self.fast_insns + self.slow_insns;
        if total == 0 {
            0.0
        } else {
            self.fast_insns as f64 / total as f64
        }
    }

    /// Fraction of threaded-engine dispatches that executed a whole
    /// superinstruction group. `0.0` before anything has dispatched
    /// (the PR 6 obs convention: zero denominators never produce NaN).
    pub fn fused_dispatch_rate(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.fused_dispatches as f64 / self.dispatches as f64
        }
    }

    /// Threaded-engine dispatches per fast-path retired instruction —
    /// the superinstruction win in one number (lower is better; `1.0`
    /// would mean one indirect dispatch per instruction). `0.0` when
    /// nothing has retired from translated buffers yet.
    pub fn dispatches_per_insn(&self) -> f64 {
        if self.fast_insns == 0 {
            0.0
        } else {
            self.dispatches as f64 / self.fast_insns as f64
        }
    }
}

/// The one translation a tier record owns. A function holds at most
/// one buffer at a time: installing the threaded form releases the
/// decoded one it replaces.
pub(crate) enum Translation<H> {
    /// Nothing built (tier 0, or a build still in flight).
    None,
    /// The predecoded buffer ([`ExecEngine::Predecoded`], tier 1).
    Decoded(Arc<DecodedFn>),
    /// The direct-threaded buffer ([`ExecEngine::Threaded`], tier 2).
    Threaded(Arc<ThreadedFn<H>>),
}

// Manual impl: `derive` would demand `H: Clone` for two `Arc`s.
impl<H> Clone for Translation<H> {
    fn clone(&self) -> Self {
        match self {
            Translation::None => Translation::None,
            Translation::Decoded(tr) => Translation::Decoded(Arc::clone(tr)),
            Translation::Threaded(tr) => Translation::Threaded(Arc::clone(tr)),
        }
    }
}

/// Per-VM translation cache: one record per translated or entered
/// function, each owning that function's translation, synchronized to
/// one `CodeSpace::live_epoch` at a time by [`TransCache::sync_epoch`].
///
/// Generic over the host because the threaded buffers store handler
/// function pointers typed over `Vm<H>`.
pub(crate) struct TransCache<H> {
    /// The `live_epoch` the cached translations were made under.
    pub(crate) epoch: u64,
    /// Word index → index into [`TransCache::tier_fns`] for the live
    /// function covering that word, or [`NO_TIER`] when untracked. A
    /// dense mirror of the live ranges — the only per-word index — so
    /// every engine resolves a pc to its function's record (and so to
    /// its translation) with one array load instead of a range search
    /// per call/return transition.
    pub(crate) tier_idx: Vec<u32>,
    /// Per-function state: the translation, and under the adaptive
    /// engine the clock and tier that justified it. Created on first
    /// entry (or first translation) and retired when the function is
    /// freed or patched. Retired slots (`serial == 0`) are listed in
    /// [`TransCache::tier_free`] and reused, so the table is bounded
    /// by the functions live at once, not by churn.
    pub(crate) tier_fns: Vec<FnTier<H>>,
    /// Indices of retired [`TransCache::tier_fns`] slots.
    pub(crate) tier_free: Vec<u32>,
    /// Serial the next tier record is stamped with (never `0`, never
    /// reused): what tells a background completion whether the record
    /// that requested it is still the one at its start word.
    pub(crate) next_serial: u64,
    pub(crate) stats: ExecStats,
    /// Counters specific to the adaptive engine.
    pub(crate) astats: AdaptiveStats,
    /// The background translation worker, spawned lazily on the first
    /// asynchronous promotion and kept for the VM's lifetime.
    pub(crate) worker: Option<crate::adaptive::TransWorker<H>>,
    /// Subscription to a shared multi-tenant translation hub; when set,
    /// background builds go there instead of a per-VM worker.
    pub(crate) hub: Option<crate::adaptive::HubClient<H>>,
    /// Requests enqueued to the worker whose responses have not been
    /// received yet (received responses count down even when the result
    /// is discarded).
    pub(crate) pending: u32,
    /// Superinstruction shape frequencies from threaded translations
    /// ("addw+beq" → count), cumulative over translations like
    /// [`ExecStats::superinstructions`]. Feeds the suite's
    /// `pair_histogram` so future handler selection is data-driven.
    pub(crate) shapes: std::collections::HashMap<String, u64>,
}

impl<H> std::fmt::Debug for TransCache<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransCache")
            .field("epoch", &self.epoch)
            .field("tier_fns", &self.tier_fns.len())
            .field("stats", &self.stats)
            .field("pending", &self.pending)
            .finish()
    }
}

impl<H> Default for TransCache<H> {
    fn default() -> Self {
        TransCache {
            epoch: 0,
            tier_idx: Vec::new(),
            tier_fns: Vec::new(),
            tier_free: Vec::new(),
            next_serial: 1,
            stats: ExecStats::default(),
            astats: AdaptiveStats::default(),
            worker: None,
            hub: None,
            pending: 0,
            shapes: std::collections::HashMap::new(),
        }
    }
}

impl<H> TransCache<H> {
    pub(crate) fn with_epoch(epoch: u64) -> TransCache<H> {
        TransCache {
            epoch,
            ..TransCache::default()
        }
    }

    /// Drops every cached translation and the adaptive tier state that
    /// justified it (counters are kept). In-flight background
    /// translations find no record at their start word any more and are
    /// discarded on receipt instead of installed.
    pub(crate) fn clear(&mut self) {
        self.tier_idx.fill(NO_TIER);
        self.tier_fns.clear();
        self.tier_free.clear();
    }

    /// Revalidates the cache against `code`'s live epoch — the one
    /// check every engine makes before trusting a cached translation.
    /// Returns whether the epoch had moved (the adaptive run loop then
    /// drops its memoized functions).
    #[inline]
    pub(crate) fn sync_epoch(&mut self, code: &CodeSpace) -> bool {
        let epoch = code.live_epoch();
        if epoch == self.epoch {
            return false;
        }
        self.invalidate_since(code, epoch);
        true
    }

    /// The epoch moved: drop what died. For each range logged since
    /// this cache last looked, the function's tier record goes and its
    /// translation with it — O(words invalidated); everything else
    /// keeps translation, tier and run count. A cache too far behind
    /// for the ring drops everything. Either way the tier levels
    /// actually lost are counted into `demotions`.
    #[cold]
    fn invalidate_since(&mut self, code: &CodeSpace, epoch: u64) {
        match code.invalidated_since(self.epoch) {
            Some(ranges) => {
                for (start, end) in ranges {
                    self.drop_range(start, end);
                }
            }
            None => {
                let lost: u64 = self.tier_fns.iter().map(|t| t.tier as u64).sum();
                self.astats.demotions += lost;
                self.clear();
            }
        }
        self.epoch = epoch;
        self.stats.invalidations += 1;
    }

    /// Retires the tier record — and with it the translation — of the
    /// function that occupied words `[start, end)` when it was freed or
    /// patched.
    fn drop_range(&mut self, start: usize, end: usize) {
        let tracked = end.min(self.tier_idx.len());
        // A tier record covers exactly the live range it was created
        // for, and a logged range is exactly one function's, so every
        // tracked word in the window names the same record.
        let mut retired = NO_TIER;
        for slot in &mut self.tier_idx[start.min(tracked)..tracked] {
            let fi = std::mem::replace(slot, NO_TIER);
            if fi != NO_TIER && fi != retired {
                let record = &mut self.tier_fns[fi as usize];
                debug_assert_eq!((record.start, record.words as usize), (start, end - start));
                self.astats.demotions += record.tier as u64;
                record.retire();
                self.tier_free.push(fi);
                retired = fi;
            }
        }
    }

    /// Starts tracking the live function `[start, end)`: a fresh record
    /// under a new serial, in a retired slot when there is one, mirrored
    /// into `tier_idx` for every word of the range. Returns its index.
    pub(crate) fn track(&mut self, start: usize, end: usize) -> u32 {
        let record = FnTier::new(self.next_serial, start, end);
        self.next_serial += 1;
        let fi = match self.tier_free.pop() {
            Some(fi) => {
                self.tier_fns[fi as usize] = record;
                fi
            }
            None => {
                self.tier_fns.push(record);
                u32::try_from(self.tier_fns.len() - 1).expect("fewer than 2^32 tracked functions")
            }
        };
        if self.tier_idx.len() < end {
            self.tier_idx.resize(end, NO_TIER);
        }
        for slot in &mut self.tier_idx[start..end] {
            *slot = fi;
        }
        fi
    }

    /// Hands record `fi` its translation — releasing whatever buffer
    /// it held — and counts it. The one install site shared by inline
    /// builds, background completions and preseeding.
    pub(crate) fn install(&mut self, fi: u32, tr: Translation<H>) {
        let record = &mut self.tier_fns[fi as usize];
        self.stats.translations += 1;
        self.stats.translated_words += u64::from(record.words);
        if let Translation::Threaded(t) = &tr {
            self.stats.handlers = HANDLER_TABLE_SIZE;
            self.stats.superinstructions += t.superinstructions;
            for (shape, count) in &t.shapes {
                *self.shapes.entry(shape.clone()).or_insert(0) += count;
            }
        }
        record.tr = tr;
    }
}

/// One function's decoded form: a dense buffer with one entry per code
/// word, addressed by `(pc - base) / 4`.
#[derive(Debug)]
pub(crate) struct DecodedFn {
    /// Absolute address of buffer index 0.
    base: u64,
    insns: Vec<DInsn>,
}

/// An unpacked scalar (straight-line, non-control) instruction with its
/// cycle cost baked in; also one constituent of a fused pair.
#[derive(Clone, Copy, Debug)]
struct ScalarHalf {
    op: Op,
    rd: u8,
    rs1: u8,
    rs2: u8,
    imm: i32,
    cost: u32,
}

/// A decoded-buffer entry. Branch/jump targets are pre-resolved to
/// *buffer indices* (`i64`, may fall outside `0..len` for cross-function
/// control transfers — those exit the buffer).
///
/// Fused entries occupy the slot of their first constituent and advance
/// the buffer index by 2; the second constituent's slot keeps its own
/// unfused entry, so control transfers *into* the middle of a pair
/// (branch targets, return addresses) execute correctly.
#[derive(Clone, Copy, Debug)]
enum DInsn {
    Scalar(ScalarHalf),
    Branch {
        op: Op,
        rd: u8,
        rs1: u8,
        cost: u32,
        taken_cost: u32,
        target: i64,
    },
    Jump {
        cost: u32,
        target: i64,
    },
    Jal {
        cost: u32,
        target: i64,
    },
    Jalr {
        rd: u8,
        rs1: u8,
        cost: u32,
    },
    Halt {
        cost: u32,
    },
    Hcall {
        num: u32,
        cost: u32,
    },
    /// A word that does not decode. Raises [`VmError::BadOpcode`] only
    /// if actually executed, like the reference engine.
    Trap {
        opcode: u8,
    },
    /// Two scalars executed as consecutive micro-steps.
    Fused2 {
        a: ScalarHalf,
        b: ScalarHalf,
    },
    /// A scalar micro-step followed by a conditional branch
    /// (compare+branch, `li`+branch, load+branch...).
    FusedBr {
        a: ScalarHalf,
        op: Op,
        rd: u8,
        rs1: u8,
        cost: u32,
        taken_cost: u32,
        target: i64,
    },
}

fn icost(c: u64) -> u32 {
    u32::try_from(c).expect("per-insn cost fits u32")
}

/// Buffer index a control transfer at buffer index `i` with word
/// offset `imm` lands on: `(pc + 4) + imm * 4` in index space.
fn rel_target(i: usize, imm: i32) -> i64 {
    i as i64 + 1 + imm as i64
}

/// Translates the sealed words of the range starting at word index
/// `start` into a decoded buffer, baking in the cost model and
/// (optionally) fusing pairs.
///
/// Takes the raw words (not the `CodeSpace`) so the adaptive engine's
/// background worker can run it over a snapshot without holding any
/// borrow of the VM; `start` only positions [`DecodedFn::base`].
pub(crate) fn translate(
    words: &[u32],
    start: usize,
    cost: &CostModel,
    fuse: bool,
    stats: &mut ExecStats,
) -> DecodedFn {
    let mut raw: Vec<DInsn> = Vec::with_capacity(words.len());
    for (i, &word) in words.iter().enumerate() {
        let insn = match Insn::decode(word) {
            Ok(insn) => insn,
            Err(_) => {
                raw.push(DInsn::Trap {
                    opcode: (word >> 24) as u8,
                });
                continue;
            }
        };
        let c = icost(cost.cost(insn.op));
        raw.push(match insn.op {
            Op::Halt => DInsn::Halt { cost: c },
            Op::Hcall => DInsn::Hcall {
                num: insn.imm as u32,
                cost: c,
            },
            Op::J => DInsn::Jump {
                cost: c,
                target: rel_target(i, insn.imm),
            },
            Op::Jal => DInsn::Jal {
                cost: c,
                target: rel_target(i, insn.imm),
            },
            Op::Jalr => DInsn::Jalr {
                rd: insn.rd,
                rs1: insn.rs1,
                cost: c,
            },
            op if op.is_branch() => DInsn::Branch {
                op,
                rd: insn.rd,
                rs1: insn.rs1,
                cost: c,
                taken_cost: icost(cost.cost(op) + cost.branch_taken_extra),
                target: rel_target(i, insn.imm),
            },
            op => DInsn::Scalar(ScalarHalf {
                op,
                rd: insn.rd,
                rs1: insn.rs1,
                rs2: insn.rs2,
                imm: insn.imm,
                cost: c,
            }),
        });
    }
    let insns = if fuse { fuse_pairs(&raw, stats) } else { raw };
    DecodedFn {
        base: CODE_BASE + (start as u64) * 4,
        insns,
    }
}

/// Overlays superinstructions on the raw buffer: each slot whose entry
/// and successor are fusable gets the fused form. Slots are never
/// consumed — entry `i+1` stays valid for control transfers into it —
/// so fused pairs may overlap; execution simply skips the middle slot.
///
/// Scalar+scalar always fuses. Scalar+branch fuses only when the
/// scalar **feeds** the branch (its destination is one of the branch's
/// compared registers) — the compare-and-branch idiom `FusedBr` is
/// named for. The feed requirement is what makes the ICODE back end's
/// fusion-aware scheduler measurable: sinking a condition's definition
/// onto its branch turns a non-fusable adjacency into a fusable one.
fn fuse_pairs(raw: &[DInsn], stats: &mut ExecStats) -> Vec<DInsn> {
    let mut out = Vec::with_capacity(raw.len());
    for i in 0..raw.len() {
        let fused = match (&raw[i], raw.get(i + 1)) {
            (DInsn::Scalar(a), Some(DInsn::Scalar(b))) => Some(DInsn::Fused2 { a: *a, b: *b }),
            (
                DInsn::Scalar(a),
                Some(&DInsn::Branch {
                    op,
                    rd,
                    rs1,
                    cost,
                    taken_cost,
                    target,
                }),
            ) if a.rd == rd || a.rd == rs1 => Some(DInsn::FusedBr {
                a: *a,
                op,
                rd,
                rs1,
                cost,
                taken_cost,
                target,
            }),
            _ => None,
        };
        match fused {
            Some(f) => {
                stats.fused_pairs += 1;
                out.push(f);
            }
            None => out.push(raw[i]),
        }
    }
    out
}

/// A decoded translation detached from any particular placement, safe
/// to share across VMs and threads (the payload behind the shared
/// artifact cache's `Arc`'d artifacts).
///
/// Decoded buffers are position-relative: control-transfer targets are
/// buffer indices, and only `DecodedFn::base` is positional. A buffer
/// whose every *static* target lands inside the buffer is therefore
/// position-independent — [`SharedTranslation::build`] refuses anything
/// else (a cross-function jump would exit to a pc computed from the
/// original placement). Consumers stamp a placement on at preseed time
/// via [`Vm::preseed_translation`], which also revalidates the cost
/// model and engine mode: a shared translation never overrides either.
#[derive(Clone, Debug)]
pub struct SharedTranslation {
    inner: Arc<SharedTransInner>,
}

#[derive(Debug)]
struct SharedTransInner {
    /// Fused decoded entries, targets all internal.
    insns: Vec<DInsn>,
    /// The cost model baked into the per-entry cycle costs.
    cost: CostModel,
    /// Pairs fused while building (stat preseeding).
    fused_pairs: u64,
}

impl SharedTranslation {
    /// Translates `words` (a sealed function's encoded words, fusion on)
    /// into a shareable buffer. Returns `None` if the function is not
    /// position-independent: any decodable jump, call, or branch whose
    /// pre-resolved target falls outside the buffer.
    pub fn build(words: &[u32], cost: &CostModel) -> Option<SharedTranslation> {
        let mut stats = ExecStats::default();
        let tr = translate(words, 0, cost, true, &mut stats);
        let len = tr.insns.len() as i64;
        for d in &tr.insns {
            let target = match *d {
                DInsn::Jump { target, .. }
                | DInsn::Jal { target, .. }
                | DInsn::Branch { target, .. }
                | DInsn::FusedBr { target, .. } => target,
                _ => continue,
            };
            if !(0..len).contains(&target) {
                return None;
            }
        }
        Some(SharedTranslation {
            inner: Arc::new(SharedTransInner {
                insns: tr.insns,
                cost: cost.clone(),
                fused_pairs: stats.fused_pairs,
            }),
        })
    }

    /// The cost model the buffer's cycle charges were computed under.
    pub fn cost_model(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Buffer length in code words.
    pub fn len(&self) -> usize {
        self.inner.insns.len()
    }

    /// True for a zero-length buffer.
    pub fn is_empty(&self) -> bool {
        self.inner.insns.is_empty()
    }

    /// Superinstruction pairs fused into the buffer.
    pub fn fused_pairs(&self) -> u64 {
        self.inner.fused_pairs
    }

    /// Stamps a placement onto the shared buffer.
    fn instantiate(&self, addr: u64) -> DecodedFn {
        DecodedFn {
            base: addr,
            insns: self.inner.insns.clone(),
        }
    }
}

impl<H: HostCall> Vm<H> {
    /// Installs a [`SharedTranslation`] for the live sealed function at
    /// `addr`, so the first promoted run starts from the shared decoded
    /// buffer instead of re-translating. Returns whether the translation
    /// was (or already is) installed; `false` means the VM's engine
    /// does not dispatch fused decoded buffers, the cost model differs,
    /// or `addr` is not the start of a live range of matching length —
    /// all cases where the VM silently keeps its own lazy translation
    /// path, never a correctness hazard.
    pub fn preseed_translation(&mut self, addr: u64, tr: &SharedTranslation) -> bool {
        let fuse_compatible = matches!(
            self.engine,
            ExecEngine::Adaptive { .. } | ExecEngine::Predecoded { fuse: true }
        );
        if !fuse_compatible || *tr.cost_model() != self.cost {
            return false;
        }
        self.trans.sync_epoch(&self.state.code);
        let Some(fi) = self.record_at(addr) else {
            return false;
        };
        let record = &self.trans.tier_fns[fi as usize];
        let (start, end) = record.range();
        if CODE_BASE + (start as u64) * 4 != addr || end - start != tr.len() {
            return false;
        }
        if matches!(record.tr, Translation::None) {
            let decoded = Arc::new(tr.instantiate(addr));
            self.trans.install(fi, Translation::Decoded(decoded));
            self.trans.stats.fused_pairs += tr.fused_pairs();
        }
        true
    }

    /// The predecoded engine's run loop: execute from decoded buffers
    /// where a translation exists, fall back to single reference-engine
    /// steps where one doesn't (stale, unaligned, or out-of-range pcs),
    /// so every fault is raised by the exact same code on both paths.
    pub(crate) fn run_predecoded(
        &mut self,
        mut pc: u64,
        fuse: bool,
    ) -> Result<ExitStatus, VmError> {
        // A fixed engine has no promotion clock: the safepoint never
        // comes due.
        let mut backedges = u64::MAX;
        loop {
            if pc == RETURN_SENTINEL {
                return Ok(ExitStatus::Returned);
            }
            let step = match self.translation_at(pc, fuse) {
                Some(tr) => self.dispatch(&tr, pc, &mut backedges)?,
                None => {
                    let step = self.step_slow(pc)?;
                    self.trans.stats.slow_insns += 1;
                    step
                }
            };
            match step {
                Step::At(next) => pc = next,
                Step::Done(status) => return Ok(status),
            }
        }
    }

    /// The tier record of the live function containing `pc`, tracking
    /// the function on first sight: one `tier_idx` load ever after.
    /// `None` when `pc` is not inside live code (the slow path then
    /// raises the exact reference fault).
    pub(crate) fn record_at(&mut self, pc: u64) -> Option<u32> {
        if pc < CODE_BASE || !pc.is_multiple_of(4) {
            return None;
        }
        let idx = ((pc - CODE_BASE) / 4) as usize;
        match self.trans.tier_idx.get(idx) {
            Some(&fi) if fi != NO_TIER => Some(fi),
            _ => {
                let (start, end) = self.state.code.live_range_containing(idx)?;
                Some(self.trans.track(start, end))
            }
        }
    }

    /// Looks up (or lazily builds) the decoded buffer covering `pc`.
    /// Validates the cache against the code space's live epoch first —
    /// this is where the per-instruction liveness check is hoisted to.
    pub(crate) fn translation_at(&mut self, pc: u64, fuse: bool) -> Option<Arc<DecodedFn>> {
        self.trans.sync_epoch(&self.state.code);
        let fi = self.record_at(pc)?;
        if let Translation::Decoded(tr) = &self.trans.tier_fns[fi as usize].tr {
            return Some(Arc::clone(tr));
        }
        Some(self.build_decoded(fi, fuse))
    }

    /// Translates record `fi`'s function into a decoded buffer and
    /// installs it on the record.
    pub(crate) fn build_decoded(&mut self, fi: u32, fuse: bool) -> Arc<DecodedFn> {
        let (start, end) = self.trans.tier_fns[fi as usize].range();
        let tr = Arc::new(translate(
            self.state.code.word_slice(start, end),
            start,
            &self.cost,
            fuse,
            &mut self.trans.stats,
        ));
        self.trans
            .install(fi, Translation::Decoded(Arc::clone(&tr)));
        tr
    }

    /// Executes from the decoded buffer until control leaves it, a run
    /// terminates, or an error is raised. Cycle/instruction counters
    /// live in locals and are flushed to machine state on every exit
    /// and around host calls, so observable state always matches the
    /// reference engine exactly.
    ///
    /// `backedges` is the promotion clock's safepoint: it is counted
    /// down on every taken backward in-buffer transfer (and nowhere
    /// else — straight-line and forward code never look at it), and
    /// when it reaches zero the dispatcher leaves the buffer at the
    /// transfer's target, exactly as if control had left the function.
    /// The adaptive run loop grants the backedges still missing to the
    /// next tier threshold and reads back what was left.
    pub(crate) fn dispatch(
        &mut self,
        tr: &DecodedFn,
        pc: u64,
        backedges: &mut u64,
    ) -> Result<Step, VmError> {
        let base = tr.base;
        let buf = &tr.insns[..];
        let len = buf.len();
        let fuel = self.fuel;
        let mut i = ((pc - base) / 4) as usize;
        let mut cycles = self.state.cycles;
        let mut insns = self.state.insns;
        let mut entry_insns = insns;

        // Write the local counters back and account the retired
        // instructions as fast-path. Idempotent: safe to invoke on
        // every exit edge.
        macro_rules! flush {
            () => {{
                self.state.cycles = cycles;
                self.state.insns = insns;
                self.trans.stats.fast_insns += insns - entry_insns;
                self.trans.astats.insns_tier1 += insns - entry_insns;
                #[allow(unused_assignments)]
                {
                    entry_insns = insns;
                }
            }};
        }
        // One scalar micro-step: execute, charge, fuel-check — in
        // exactly the reference engine's order.
        macro_rules! scalar_step {
            ($s:expr) => {{
                let s = $s;
                if let Err(e) = exec_scalar(&mut self.state, s.op, s.rd, s.rs1, s.rs2, s.imm) {
                    flush!();
                    return Err(e);
                }
                cycles += s.cost as u64;
                insns += 1;
                if cycles > fuel {
                    flush!();
                    return Err(VmError::OutOfFuel);
                }
            }};
        }
        // Advance the buffer index by $n slots, exiting at the pc past
        // the end if the buffer is exhausted.
        macro_rules! advance {
            ($n:expr) => {{
                i += $n;
                if i >= len {
                    flush!();
                    return Ok(Step::At(base.wrapping_add((i as u64) * 4)));
                }
            }};
        }
        // Land on in-buffer index $t, transferred to by the instruction
        // at index $from (the second slot of a fused pair): a backward
        // transfer — target pc <= own pc, what the tier-0 clock counts
        // — spends one backedge and yields at $t once none are left.
        macro_rules! land {
            ($t:expr, $from:expr) => {{
                let t: usize = $t;
                if t <= $from {
                    *backedges -= 1;
                    if *backedges == 0 {
                        flush!();
                        return Ok(Step::At(base + (t as u64) * 4));
                    }
                }
                i = t;
            }};
        }
        // Transfer control to buffer index $t (an i64): stay in the
        // buffer when it lands inside, exit to the equivalent pc
        // otherwise (negative indices wrap exactly like the reference
        // engine's pc arithmetic).
        macro_rules! goto {
            ($t:expr, $from:expr) => {{
                let t = $t;
                if (t as u64) < len as u64 {
                    land!(t as usize, $from);
                } else {
                    flush!();
                    return Ok(Step::At(base.wrapping_add((t as u64).wrapping_mul(4))));
                }
            }};
        }

        loop {
            match buf[i] {
                DInsn::Scalar(s) => {
                    scalar_step!(s);
                    advance!(1);
                }
                DInsn::Fused2 { a, b } => {
                    scalar_step!(a);
                    scalar_step!(b);
                    advance!(2);
                }
                DInsn::Branch {
                    op,
                    rd,
                    rs1,
                    cost,
                    taken_cost,
                    target,
                } => {
                    let x = self.state.reg(rd);
                    let y = self.state.reg(rs1);
                    let taken = branch_taken(op, x, y);
                    cycles += u64::from(if taken { taken_cost } else { cost });
                    insns += 1;
                    if cycles > fuel {
                        flush!();
                        return Err(VmError::OutOfFuel);
                    }
                    if taken {
                        goto!(target, i);
                    } else {
                        advance!(1);
                    }
                }
                DInsn::FusedBr {
                    a,
                    op,
                    rd,
                    rs1,
                    cost,
                    taken_cost,
                    target,
                } => {
                    scalar_step!(a);
                    let x = self.state.reg(rd);
                    let y = self.state.reg(rs1);
                    let taken = branch_taken(op, x, y);
                    cycles += u64::from(if taken { taken_cost } else { cost });
                    insns += 1;
                    if cycles > fuel {
                        flush!();
                        return Err(VmError::OutOfFuel);
                    }
                    if taken {
                        goto!(target, i + 1);
                    } else {
                        advance!(2);
                    }
                }
                DInsn::Jump { cost, target } => {
                    cycles += cost as u64;
                    insns += 1;
                    if cycles > fuel {
                        flush!();
                        return Err(VmError::OutOfFuel);
                    }
                    goto!(target, i);
                }
                DInsn::Jal { cost, target } => {
                    self.state
                        .set_reg(crate::regs::RA.0, base + (i as u64 + 1) * 4);
                    cycles += cost as u64;
                    insns += 1;
                    if cycles > fuel {
                        flush!();
                        return Err(VmError::OutOfFuel);
                    }
                    goto!(target, i);
                }
                DInsn::Jalr { rd, rs1, cost } => {
                    let target = self.state.reg(rs1);
                    self.state.set_reg(rd, base + (i as u64 + 1) * 4);
                    cycles += cost as u64;
                    insns += 1;
                    if cycles > fuel {
                        flush!();
                        return Err(VmError::OutOfFuel);
                    }
                    // Continue internally for in-buffer targets
                    // (indirect loops); liveness can only change via a
                    // host call, which revalidates below.
                    if target >= base
                        && target < base + (len as u64) * 4
                        && (target - base).is_multiple_of(4)
                    {
                        land!(((target - base) / 4) as usize, i);
                    } else {
                        flush!();
                        return Ok(Step::At(target));
                    }
                }
                DInsn::Halt { cost } => {
                    // The reference engine charges halt but never
                    // fuel-checks it (the run is over).
                    cycles += cost as u64;
                    insns += 1;
                    flush!();
                    return Ok(Step::Done(ExitStatus::Halted));
                }
                DInsn::Hcall { num, cost } => {
                    // The host observes counters as of *before* this
                    // instruction retires, and may mutate them (or the
                    // code space) arbitrarily.
                    flush!();
                    self.state.hcalls += 1;
                    self.host.call(num, &mut self.state)?;
                    cycles = self.state.cycles;
                    insns = self.state.insns;
                    entry_insns = insns;
                    cycles += cost as u64;
                    insns += 1;
                    if cycles > fuel {
                        flush!();
                        return Err(VmError::OutOfFuel);
                    }
                    // The host may have compiled, freed, or patched
                    // code (tcc-cache eviction frees live functions).
                    // Leave the buffer so the outer loop revalidates.
                    if self.state.code.live_epoch() != self.trans.epoch {
                        i += 1;
                        flush!();
                        return Ok(Step::At(base.wrapping_add((i as u64) * 4)));
                    }
                    advance!(1);
                }
                DInsn::Trap { opcode } => {
                    flush!();
                    return Err(VmError::BadOpcode(opcode));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::CodeSpace;
    use crate::interp::MachineState;
    use crate::regs::{A0, AT0, ZERO};

    const ENGINES: [ExecEngine; 6] = [
        ExecEngine::DecodePerStep,
        ExecEngine::Predecoded { fuse: false },
        ExecEngine::Predecoded { fuse: true },
        ExecEngine::Threaded,
        // Adaptive at both extremes: promoted straight to threaded on
        // the first entry, and never leaving tier 0 within these tests.
        ExecEngine::Adaptive {
            fuse_after: 0,
            thread_after: 0,
            background: false,
        },
        ExecEngine::Adaptive {
            fuse_after: u32::MAX,
            thread_after: u32::MAX,
            background: false,
        },
    ];

    /// sum(1..=n) by counted loop; exercises branch, ALU, and jump.
    fn loop_code() -> (CodeSpace, u64) {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("sum");
        cs.push(Insn::i(Op::Addiw, AT0, ZERO, 0)); // acc = 0
        cs.push(Insn::i(Op::Beq, A0, ZERO, 3)); // while n != 0
        cs.push(Insn::r(Op::Addw, AT0, AT0, A0)); //   acc += n
        cs.push(Insn::i(Op::Addiw, A0, A0, -1)); //   n -= 1
        cs.push(Insn::j(Op::J, -4));
        cs.push(Insn::r(Op::Addw, A0, AT0, ZERO)); // return acc
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        (cs, addr)
    }

    fn observe(
        engine: ExecEngine,
        cs: &CodeSpace,
        addr: u64,
        args: &[u64],
        fuel: u64,
    ) -> (Result<u64, VmError>, u64, u64) {
        let mut vm = Vm::new(cs.clone(), 1 << 20);
        vm.set_engine(engine);
        vm.set_fuel(fuel);
        let r = vm.call(addr, args);
        (r, vm.cycles(), vm.insns())
    }

    #[test]
    fn engines_agree_on_loops() {
        let (cs, addr) = loop_code();
        for n in [0u64, 1, 10, 1000] {
            let reference = observe(ENGINES[0], &cs, addr, &[n], u64::MAX);
            assert_eq!(reference.0, Ok((1..=n).sum::<u64>() as u32 as u64));
            for e in &ENGINES[1..] {
                assert_eq!(observe(*e, &cs, addr, &[n], u64::MAX), reference, "{e:?}");
            }
        }
    }

    #[test]
    fn fuel_exhaustion_is_identical_at_every_budget() {
        let (cs, addr) = loop_code();
        let (_, full_cycles, _) = observe(ENGINES[0], &cs, addr, &[25], u64::MAX);
        for fuel in 0..full_cycles {
            let reference = observe(ENGINES[0], &cs, addr, &[25], fuel);
            assert_eq!(reference.0, Err(VmError::OutOfFuel));
            for e in &ENGINES[1..] {
                assert_eq!(
                    observe(*e, &cs, addr, &[25], fuel),
                    reference,
                    "fuel {fuel}"
                );
            }
        }
    }

    #[test]
    fn fusion_actually_fuses_and_caches_are_reused() {
        let (cs, addr) = loop_code();
        let mut vm = Vm::new(cs, 1 << 20);
        vm.set_engine(ExecEngine::Predecoded { fuse: true });
        vm.call(addr, &[10]).unwrap();
        let s1 = vm.exec_stats();
        assert_eq!(s1.translations, 1);
        assert_eq!(s1.translated_words, 7);
        assert!(s1.fused_pairs > 0, "{s1:?}");
        assert_eq!(s1.slow_insns, 0);
        assert!(s1.fast_insns > 0);
        vm.call(addr, &[10]).unwrap();
        let s2 = vm.exec_stats();
        assert_eq!(s2.translations, 1, "second call reuses the translation");
        assert!((s2.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn freed_code_faults_stale_with_warm_cache() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::i(Op::Addiw, A0, A0, 1));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        let mut vm = Vm::new(cs, 1 << 20);
        assert_eq!(vm.call(addr, &[1]).unwrap(), 2);
        vm.state_mut().code.free_function(f).unwrap();
        assert_eq!(vm.call(addr, &[1]), Err(VmError::StaleCode(addr)));
        assert!(vm.exec_stats().invalidations >= 1);
    }

    #[test]
    fn patching_live_code_invalidates_translation() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::i(Op::Addiw, A0, ZERO, 1));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        let idx = ((addr - CODE_BASE) / 4) as usize;
        let mut vm = Vm::new(cs, 1 << 20);
        assert_eq!(vm.call(addr, &[]).unwrap(), 1);
        vm.state_mut()
            .code
            .patch(idx, Insn::i(Op::Addiw, A0, ZERO, 2));
        assert_eq!(vm.call(addr, &[]).unwrap(), 2, "stale decoded result");
    }

    #[test]
    fn host_call_freeing_running_function_faults_stale() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::i(Op::Hcall, ZERO, ZERO, 1));
        cs.push(Insn::i(Op::Addiw, A0, ZERO, 7));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        let host = move |_num: u32, st: &mut MachineState| {
            st.code.free_function(f).unwrap();
            Ok(())
        };
        let mut vm = Vm::with_host(cs, 1 << 20, host);
        assert_eq!(vm.call(addr, &[]), Err(VmError::StaleCode(addr + 4)));
    }

    #[test]
    fn unfused_buffer_has_no_pairs() {
        let (cs, addr) = loop_code();
        let mut vm = Vm::new(cs, 1 << 20);
        vm.set_engine(ExecEngine::Predecoded { fuse: false });
        vm.call(addr, &[3]).unwrap();
        assert_eq!(vm.exec_stats().fused_pairs, 0);
    }

    #[test]
    fn shared_translation_preseeds_identically_to_lazy_translation() {
        let (cs, addr) = loop_code();
        let start = ((addr - CODE_BASE) / 4) as usize;
        let words = cs.word_slice(start, start + 7).to_vec();
        let mut reference = Vm::new(cs.clone(), 1 << 20);
        reference.set_engine(ExecEngine::Predecoded { fuse: true });
        let want = reference.call(addr, &[10]).unwrap();
        let (want_cycles, want_insns) = (reference.cycles(), reference.insns());

        let tr = SharedTranslation::build(&words, &CostModel::default()).expect("self-contained");
        assert_eq!(tr.len(), 7);
        assert!(tr.fused_pairs() > 0, "the loop body fuses");
        let mut vm = Vm::new(cs, 1 << 20);
        vm.set_engine(ExecEngine::Predecoded { fuse: true });
        assert!(vm.preseed_translation(addr, &tr));
        assert_eq!(vm.exec_stats().translations, 1, "preseed counted");
        assert_eq!(vm.call(addr, &[10]).unwrap(), want);
        assert_eq!((vm.cycles(), vm.insns()), (want_cycles, want_insns));
        let s = vm.exec_stats();
        assert_eq!(s.translations, 1, "no re-translation happened");
        assert_eq!(s.slow_insns, 0, "whole run came from the shared buffer");
        // Preseeding again is an idempotent hit.
        assert!(vm.preseed_translation(addr, &tr));
        assert_eq!(vm.exec_stats().translations, 1);
    }

    #[test]
    fn shared_translation_refuses_external_targets_and_mismatches() {
        // A backward jump out of the function's own range is not
        // position-independent: build refuses it.
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("escape");
        cs.push(Insn::j(Op::J, -100));
        cs.push(Insn::ret());
        cs.finish_function(f).unwrap();
        let (_, words) = cs.function_words(f).unwrap();
        assert!(SharedTranslation::build(&words, &CostModel::default()).is_none());

        // Preseed revalidates everything about the receiving VM.
        let (cs, addr) = loop_code();
        let start = ((addr - CODE_BASE) / 4) as usize;
        let words = cs.word_slice(start, start + 7).to_vec();
        let tr = SharedTranslation::build(&words, &CostModel::default()).unwrap();
        let mut vm = Vm::new(cs.clone(), 1 << 20);
        vm.set_engine(ExecEngine::DecodePerStep);
        assert!(
            !vm.preseed_translation(addr, &tr),
            "engine without fused decoded dispatch"
        );
        let mut vm = Vm::new(cs, 1 << 20);
        vm.set_engine(ExecEngine::Predecoded { fuse: true });
        assert!(!vm.preseed_translation(addr + 4, &tr), "not a range start");
        assert!(!vm.preseed_translation(addr + 1, &tr), "unaligned");
        let mut costly = CostModel::default();
        costly.branch_taken_extra += 1;
        let tr2 = SharedTranslation::build(&words, &costly).unwrap();
        assert!(
            !vm.preseed_translation(addr, &tr2),
            "cost model must match the VM's"
        );
        assert_eq!(vm.exec_stats().translations, 0, "nothing was installed");
        assert_eq!(vm.call(addr, &[3]).unwrap(), 6, "VM unaffected");
    }

    #[test]
    fn decode_per_step_counts_slow_insns() {
        let (cs, addr) = loop_code();
        let mut vm = Vm::new(cs, 1 << 20);
        vm.set_engine(ExecEngine::DecodePerStep);
        vm.call(addr, &[3]).unwrap();
        let s = vm.exec_stats();
        assert_eq!(s.fast_insns, 0);
        assert_eq!(s.slow_insns, vm.insns());
        assert_eq!(s.hit_rate(), 0.0);
    }
}
