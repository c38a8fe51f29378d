//! The decoded form, the per-function translation cache that holds it,
//! and the tier-1 engine that walks it.
//!
//! The reference engine ([`ExecEngine::DecodePerStep`]) pays a bounds +
//! liveness check, `Insn::decode` bit-twiddling, and two cost-model
//! matches on **every executed instruction**. Following the paper's
//! premise — pay translation cost once per code body, not per execution
//! — `decode` translates a sealed function's word range once into one
//! flat array of `Slot`s, one per code word: operands unpacked, [`Op`]
//! resolved, branch targets pre-resolved to array indices, per-instruction
//! cycle costs pre-looked-up, and the run/feed facts both translated
//! tiers select superinstructions from. It is the only decoder the
//! translated engines have: tier 1 (`Vm::dispatch`) walks the array
//! directly, and tier 2 ([`crate::threaded`]) adds a handler column
//! beside it. Each VM decodes the functions it runs: a pool shares
//! words between sessions, never a decoded array.
//!
//! The array holds no address. Targets are indices, and return
//! addresses and exit pcs are computed from the `base` the dispatcher
//! is handed (the tier record's start word).
//!
//! # Equivalence contract
//!
//! The predecoded engine (with or without fusion) is *observationally
//! identical* to decode-per-step: same result values, same `cycles`,
//! same `insns`, same exit status, and same error at the same
//! instruction (including [`VmError::OutOfFuel`]). A fused pair is slots
//! `i` and `i + 1` run back to back: each constituent charges its own
//! cost and runs as a separate micro-step (execute, charge, fuel check —
//! in slow-path order), so even mid-pair faults are identical.
//! `tests/exec_differential.rs` enforces this on randomized programs.
//!
//! # Invalidation
//!
//! The translation cache keeps one record per code-space slot, stamped
//! with the slot's version when it was made, and is validated against
//! [`CodeSpace::live_epoch`](crate::code::CodeSpace::live_epoch), which
//! bumps whenever previously-live code stops meaning what it did: a
//! function is freed (directly or by `tcc-cache` eviction) or a live
//! word is patched. Every engine revalidates through the one
//! `TransCache::sync_epoch`, which on a moved epoch sweeps the records
//! and retires each whose slot version changed — the freed or patched
//! functions, found with no log of them; every other function keeps its
//! translation, tier and run count. Stale pcs fall back to the
//! reference engine's single-step path, which raises
//! [`VmError::StaleCode`] / [`VmError::BadPc`] exactly as today. Host
//! calls can free or patch code mid-run (the compile runtime does), so
//! a dispatcher leaves its buffer after any host call that moved the
//! epoch and the run loop revalidates before re-entering one.

use std::collections::HashMap;
use std::sync::Arc;

use crate::adaptive::{AdaptiveStats, FnTier, HubClient, Tier, DEFAULT_THREAD_AFTER};
use crate::code::{CodeSpace, FuncHandle, CODE_BASE};
use crate::cost::CostModel;
use crate::error::VmError;
use crate::host::HostCall;
use crate::interp::{branch_taken, exec_scalar, ExitStatus, Step, Vm, RETURN_SENTINEL};
use crate::isa::{Insn, Op};
use crate::threaded::{thread, ThreadedFn, HANDLER_TABLE_SIZE};

/// Counters for the execution engine: how much was translated and how
/// instructions were dispatched. One type with the observability layer's.
pub use tcc_obs::ExecMetrics as ExecStats;

/// Which execution engine [`Vm::run`] dispatches through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecEngine {
    /// Fetch + bounds/liveness check + decode + cost lookup on every
    /// instruction. The reference semantics.
    DecodePerStep,
    /// Translate each sealed function once, execute from the decoded
    /// array. `fuse` additionally runs adjacent instruction pairs as
    /// superinstructions.
    Predecoded {
        /// Enable superinstruction fusion over the decoded array.
        fuse: bool,
    },
    /// Direct-threaded dispatch (a handler function pointer per slot)
    /// with basic-block fuel batching. See [`crate::threaded`].
    Threaded,
    /// Count-triggered per-function tiering: predecoded+fused from a
    /// function's first entry, direct-threaded once it has been entered
    /// `thread_after` times (loop iterations count too). Run-once code
    /// pays one decode; hot code ends up on the fastest engine. See
    /// [`crate::adaptive`].
    Adaptive {
        /// Completed runs after which a function is promoted to the
        /// direct-threaded engine (tier 2).
        thread_after: u32,
        /// Build the threaded form on a background thread instead of
        /// inline: the promoting run keeps executing fused and the
        /// finished translation is swapped in at a later function entry
        /// or clock tick (discarded if the function died first). A first
        /// entry's decode is built inline either way.
        background: bool,
    },
}

impl Default for ExecEngine {
    /// Adaptive tiering with the calibrated threshold
    /// ([`DEFAULT_THREAD_AFTER`], from the `suite adaptive` reuse
    /// sweep).
    fn default() -> Self {
        ExecEngine::Adaptive {
            thread_after: DEFAULT_THREAD_AFTER,
            background: false,
        }
    }
}

/// The one translation a tier record owns. Both built forms stand on
/// the same decoded array: the threaded one keeps the `Arc` it was
/// built over, so a 1→2 promotion adds a handler column and copies
/// nothing.
pub(crate) enum Translation<H> {
    /// Nothing built yet: the record was tracked before anything
    /// dispatched through it.
    None,
    /// [`decode`] refused the function — a cost of the VM's model does
    /// not fit a slot. Final for the record's life: the function stays
    /// on the reference path at every tier and is never decoded again.
    Refused,
    /// The decoded array itself ([`ExecEngine::Predecoded`], tier 1).
    Decoded(Arc<Decoded>),
    /// The array plus a handler column ([`ExecEngine::Threaded`],
    /// tier 2).
    Threaded(Arc<ThreadedFn<H>>),
}

// Manual impl: `derive` would demand `H: Clone` for two `Arc`s.
impl<H> Clone for Translation<H> {
    fn clone(&self) -> Self {
        match self {
            Translation::None => Translation::None,
            Translation::Refused => Translation::Refused,
            Translation::Decoded(tr) => Translation::Decoded(Arc::clone(tr)),
            Translation::Threaded(tr) => Translation::Threaded(Arc::clone(tr)),
        }
    }
}

impl<H: HostCall> Translation<H> {
    /// Adds the superinstruction shapes of a threaded form to `shapes`:
    /// what the cache does with a translation it drops, and with each
    /// live one when the histogram is read.
    pub(crate) fn fold_shapes(&self, shapes: &mut HashMap<u32, u64>) {
        if let Translation::Threaded(threaded) = self {
            for shape in threaded.shapes() {
                *shapes.entry(shape).or_insert(0) += 1;
            }
        }
    }
}

impl<H> Translation<H> {
    /// Whether this is what a function at `tier` dispatches through. A
    /// refusal serves every tier (by single-stepping), so it is never
    /// rebuilt. In background mode a function runs fused while its
    /// granted tier 2 is being built; a mismatch at function entry or
    /// at a clock tick re-reads the record so a finished swap is picked
    /// up.
    #[inline]
    pub(crate) fn serves(&self, tier: Tier) -> bool {
        matches!(
            (self, tier),
            (Translation::Refused, _)
                | (Translation::Decoded(_), Tier::Fused)
                | (Translation::Threaded(_), Tier::Threaded)
        )
    }
}

/// Per-VM translation cache: one record per code-space slot, each
/// owning its function's translation, synchronized to one
/// `CodeSpace::live_epoch` at a time by [`TransCache::sync_epoch`].
///
/// Generic over the host because the threaded handler columns store
/// function pointers typed over `Vm<H>`.
pub(crate) struct TransCache<H> {
    /// The `live_epoch` the cached translations were made under.
    pub(crate) epoch: u64,
    /// Per-function state, indexed by the function's code-space slot:
    /// the translation, and under the adaptive engine the clock and tier
    /// that justified it. A record is stamped with the version of the
    /// code it was built from on first entry (or first translation) and
    /// retired when that version moves on — the function freed or
    /// patched. One record a slot, so the table is bounded by the
    /// functions live at once, not by churn.
    pub(crate) tier_fns: Vec<FnTier<H>>,
    pub(crate) stats: ExecStats,
    /// Counters specific to the adaptive engine.
    pub(crate) astats: AdaptiveStats,
    /// Subscription to the background translation service: the shared
    /// hub handed to [`Vm::set_translation_hub`], or a private one
    /// spawned lazily on the first asynchronous promotion and kept (and
    /// joined) with the VM.
    pub(crate) hub: Option<HubClient<H>>,
    /// Requests submitted to the hub whose responses have not been
    /// received yet (received responses count down even when the result
    /// is discarded).
    pub(crate) pending: u32,
    /// Superinstruction shape frequencies of the threaded translations
    /// this cache has dropped, keyed by packed opcodes
    /// ([`crate::threaded::pack_shape`]). A threaded form is dropped only
    /// by retiring its record or clearing the cache (no install replaces
    /// one: it serves the top tier), and both fold it in here; the live
    /// records' shapes are added when the histogram is read. So it counts
    /// every translation ever installed, like
    /// [`ExecStats::superinstructions`], without touching the
    /// translation or run path.
    pub(crate) shapes: HashMap<u32, u64>,
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
            tier_fns: Vec::new(),
            stats: ExecStats::default(),
            astats: AdaptiveStats::default(),
            hub: None,
            pending: 0,
            shapes: HashMap::new(),
        }
    }
}

impl<H: HostCall> TransCache<H> {
    /// Drops every cached translation and the adaptive tier state that
    /// justified it (counters are kept). In-flight background
    /// translations find no record holding the array they extend and
    /// are discarded on receipt instead of installed.
    pub(crate) fn clear(&mut self) {
        for record in &self.tier_fns {
            record.tr.fold_shapes(&mut self.shapes);
        }
        self.tier_fns.clear();
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
        self.sweep(code, epoch);
        true
    }

    /// The epoch moved: retire every record whose slot's version is not
    /// the one it was built from, and its translation with it. Every
    /// other function keeps translation, tier and run count. The tier
    /// levels actually lost are counted into `demotions`.
    #[cold]
    fn sweep(&mut self, code: &CodeSpace, epoch: u64) {
        for slot in 0..self.tier_fns.len() {
            let version = self.tier_fns[slot].version;
            if version != 0 && version != code.version(slot) {
                self.retire(slot);
            }
        }
        self.epoch = epoch;
        self.stats.invalidations += 1;
    }

    /// Retires the record in `slot`: its levels are counted lost and its
    /// translation's shapes folded into the histogram.
    fn retire(&mut self, slot: usize) {
        let record = &mut self.tier_fns[slot];
        self.astats.demotions += record.levels();
        record.tr.fold_shapes(&mut self.shapes);
        *record = FnTier::new(0, 0, 0);
    }

    /// The tier record of the function in `slot`, if it has one built
    /// from the code there now.
    #[inline]
    pub(crate) fn record_of(&self, code: &CodeSpace, slot: usize) -> Option<u32> {
        let record = self.tier_fns.get(slot)?;
        (record.version == code.version(slot)).then_some(slot as u32)
    }

    /// Starts tracking the live function `handle`: a fresh record in its
    /// slot, which a synced cache holds retired, stamped with the slot's
    /// version. Returns the record's index (the slot), or `None` for a
    /// stale handle.
    pub(crate) fn track(&mut self, code: &CodeSpace, handle: FuncHandle) -> Option<u32> {
        let (start, end) = code.span(handle).ok()?;
        let slot = handle.slot();
        if self.tier_fns.len() <= slot {
            self.tier_fns.resize_with(slot + 1, || FnTier::new(0, 0, 0));
        }
        self.tier_fns[slot] = FnTier::new(code.version(slot), start, end - start);
        Some(slot as u32)
    }
}

/// What a decoded word is, as far as dispatch cares. Every opcode that
/// is not control flow, a host call or `halt` is a [`Kind::Scalar`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    Scalar,
    Branch,
    Jump,
    Jal,
    Jalr,
    Halt,
    Hcall,
    /// A word that does not decode. Raises [`VmError::BadOpcode`] only
    /// if actually executed, like the reference engine.
    Trap,
}

/// What the word after a scalar is to it — the fact both tiers fuse
/// from, decided once in [`decode`].
///
/// Scalar+scalar always pairs. Scalar+branch pairs only when the scalar
/// **feeds** the branch (its destination is one of the branch's compared
/// registers) — the compare-and-branch idiom. The feed requirement is
/// what makes the ICODE back end's fusion-aware scheduler measurable:
/// sinking a condition's definition onto its branch turns a non-fusable
/// adjacency into a fusable one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Pair {
    /// Nothing to fuse with (or this is not a scalar).
    None,
    /// Another scalar: the run continues.
    Scalar,
    /// A conditional branch this scalar feeds.
    Branch,
}

/// One decoded code word, 24 bytes. Which columns mean what depends on
/// [`Slot::kind`]; DESIGN.md §11 has the table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    pub(crate) kind: Kind,
    pub(crate) pair: Pair,
    pub(crate) op: Op,
    pub(crate) rd: u8,
    pub(crate) rs1: u8,
    pub(crate) rs2: u8,
    /// The immediate — except for `j`/`jal`/branches, where it is the
    /// pre-resolved target as an *array index* (may fall outside
    /// `0..len` for cross-function transfers — those exit the array);
    /// for a trap it is the undecodable opcode byte.
    pub(crate) imm: i32,
    /// Cycle cost of this instruction alone (a branch's when not taken).
    pub(crate) cost: u32,
    /// A branch's cost when taken; a scalar's run-suffix length — how
    /// many consecutive scalars start here, itself included.
    aux: u32,
    /// Summed cost of that run suffix: what a batched entry at this
    /// slot charges up front. Entering mid-run (branch targets, return
    /// addresses) therefore still sees a correct summary.
    pub(crate) run_cost: u32,
}

impl Slot {
    /// A `j`/`jal`/branch's target array index.
    #[inline]
    pub(crate) fn target(&self) -> i64 {
        i64::from(self.imm)
    }

    /// A branch's cycle cost when taken.
    #[inline]
    pub(crate) fn taken_cost(&self) -> u32 {
        self.aux
    }

    /// A scalar's run-suffix length.
    #[inline]
    pub(crate) fn run_len(&self) -> usize {
        self.aux as usize
    }
}

/// One function's decoded form: one [`Slot`] per code word, addressed by
/// `(pc - base) / 4` for whatever `base` the words are installed at.
#[derive(Debug)]
pub(crate) struct Decoded {
    pub(crate) slots: Box<[Slot]>,
    /// Slots whose [`Slot::pair`] is set: the superinstruction pairs a
    /// fusing tier-1 walk runs.
    pub(crate) fused_pairs: u64,
}

/// Decodes a sealed function's words under `cost` — the one place the
/// translated engines decode an instruction or look a cost up, and so
/// the one place the cost model meets the slot's field widths: `None`
/// when a per-instruction cost, a taken-branch cost, a run-suffix cost
/// or a target index does not fit its column (the function then stays
/// on the reference path, which carries costs as `u64`).
///
/// Takes the raw words (not the `CodeSpace`) so the background service
/// can run it over a snapshot without holding any borrow of the VM.
pub(crate) fn decode(words: &[u32], cost: &CostModel) -> Option<Decoded> {
    let mut slots = Vec::with_capacity(words.len());
    for (i, &word) in words.iter().enumerate() {
        let mut slot = Slot {
            kind: Kind::Trap,
            pair: Pair::None,
            op: Op::Nop,
            rd: 0,
            rs1: 0,
            rs2: 0,
            imm: (word >> 24) as i32,
            cost: 0,
            aux: 0,
            run_cost: 0,
        };
        if let Ok(insn) = Insn::decode(word) {
            let base_cost = cost.cost(insn.op);
            slot.kind = match insn.op {
                Op::Halt => Kind::Halt,
                Op::Hcall => Kind::Hcall,
                Op::J => Kind::Jump,
                Op::Jal => Kind::Jal,
                Op::Jalr => Kind::Jalr,
                op if op.is_branch() => Kind::Branch,
                _ => Kind::Scalar,
            };
            (slot.op, slot.rd, slot.rs1, slot.rs2) = (insn.op, insn.rd, insn.rs1, insn.rs2);
            slot.imm = insn.imm;
            slot.cost = u32::try_from(base_cost).ok()?;
            match slot.kind {
                Kind::Jump | Kind::Jal | Kind::Branch => {
                    // `(pc + 4) + imm * 4` in index space.
                    let target = i as i64 + 1 + i64::from(insn.imm);
                    slot.imm = i32::try_from(target).ok()?;
                }
                Kind::Scalar => (slot.aux, slot.run_cost) = (1, slot.cost),
                _ => {}
            }
            if slot.kind == Kind::Branch {
                let taken = base_cost.checked_add(cost.branch_taken_extra)?;
                slot.aux = u32::try_from(taken).ok()?;
            }
        }
        slots.push(slot);
    }
    // Backward pass: each scalar learns what follows it, and extends its
    // run summary with its successor's.
    let mut fused_pairs = 0;
    for i in (0..slots.len().saturating_sub(1)).rev() {
        let next = slots[i + 1];
        let slot = &mut slots[i];
        if slot.kind != Kind::Scalar {
            continue;
        }
        slot.pair = match next.kind {
            Kind::Scalar => {
                slot.aux += next.aux;
                slot.run_cost = slot.run_cost.checked_add(next.run_cost)?;
                Pair::Scalar
            }
            Kind::Branch if slot.rd == next.rd || slot.rd == next.rs1 => Pair::Branch,
            _ => continue,
        };
        fused_pairs += 1;
    }
    Some(Decoded {
        slots: slots.into_boxed_slice(),
        fused_pairs,
    })
}

impl<H: HostCall> Vm<H> {
    /// Hands record `fi` its translation — releasing whatever it held —
    /// and counts it. The one install site shared by inline builds and
    /// background completions. A refusal is recorded and counts as
    /// nothing: returns whether a form was installed.
    pub(crate) fn install(&mut self, fi: u32, tr: Translation<H>) -> bool {
        let cache = &mut self.trans;
        let record = &mut cache.tier_fns[fi as usize];
        match &tr {
            Translation::None | Translation::Refused => {
                record.tr = tr;
                return false;
            }
            // Only a fusing walk runs the pairs.
            Translation::Decoded(_) if self.engine == (ExecEngine::Predecoded { fuse: false }) => {}
            Translation::Decoded(decoded) => cache.stats.fused_pairs += decoded.fused_pairs,
            Translation::Threaded(threaded) => {
                cache.stats.handlers = HANDLER_TABLE_SIZE;
                cache.stats.superinstructions += threaded.groups;
            }
        }
        cache.stats.translations += 1;
        cache.stats.translated_words += u64::from(record.words);
        record.tr = tr;
        true
    }

    /// The fixed translated engines' run loop: dispatch through the
    /// form `tier` names where the function has (or can be given) one,
    /// fall back to single reference-engine steps where it can't (stale,
    /// unaligned, or out-of-range pcs; refused functions), so every
    /// fault is raised by the exact same code on both paths.
    pub(crate) fn run_fixed(
        &mut self,
        mut pc: u64,
        tier: Tier,
        fuse: bool,
    ) -> Result<ExitStatus, VmError> {
        // A fixed engine has no promotion clock: the safepoint never
        // comes due.
        let mut backedges = u64::MAX;
        loop {
            if pc == RETURN_SENTINEL {
                return Ok(ExitStatus::Returned);
            }
            // Where the per-instruction liveness check is hoisted to.
            self.trans.sync_epoch(&self.state.code);
            let (base, form) = match self.record_at(pc) {
                Some(fi) => (
                    self.trans.tier_fns[fi as usize].base(),
                    self.form_at(fi, tier),
                ),
                None => (0, Translation::None),
            };
            let step = match form {
                Translation::Threaded(tr) => self.dispatch_threaded(&tr, base, pc)?,
                Translation::Decoded(tr) if fuse => {
                    self.dispatch::<true>(&tr, base, pc, &mut backedges)?
                }
                Translation::Decoded(tr) => {
                    self.dispatch::<false>(&tr, base, pc, &mut backedges)?
                }
                Translation::None | Translation::Refused => self.step_reference(pc)?,
            };
            match step {
                Step::At(next) => pc = next,
                Step::Done(status) => return Ok(status),
            }
        }
    }

    /// The tier record of the live function containing `pc`, tracking
    /// the function on first sight: ever after, the code space's owner
    /// index and slot version, and the record in that slot. `None` when
    /// `pc` is not inside live code (the slow path then raises the exact
    /// reference fault).
    pub(crate) fn record_at(&mut self, pc: u64) -> Option<u32> {
        if pc < CODE_BASE || !pc.is_multiple_of(4) {
            return None;
        }
        let code = &self.state.code;
        let handle = code.owner(((pc - CODE_BASE) / 4) as usize)?;
        match self.trans.record_of(code, handle.slot()) {
            Some(fi) => Some(fi),
            None => self.trans.track(code, handle),
        }
    }

    /// The form record `fi` dispatches through at `tier`: the record's
    /// own when it already holds it, otherwise built here and installed
    /// on the record. A build starts from the decoded array the record
    /// holds — a 1→2 promotion decodes nothing — and decodes the words
    /// only when it holds none.
    pub(crate) fn form_at(&mut self, fi: u32, tier: Tier) -> Translation<H> {
        let record = &self.trans.tier_fns[fi as usize];
        if record.tr.serves(tier) {
            return record.tr.clone();
        }
        let decoded = match &record.tr {
            Translation::Decoded(decoded) => Some(Arc::clone(decoded)),
            _ => {
                let words = self.state.code.word_slice(record.start, record.end());
                decode(words, &self.cost).map(Arc::new)
            }
        };
        let tr = match (decoded, tier) {
            (None, _) => Translation::Refused,
            (Some(decoded), Tier::Threaded) => Translation::Threaded(Arc::new(thread(&decoded))),
            (Some(decoded), Tier::Fused) => Translation::Decoded(decoded),
        };
        self.install(fi, tr.clone());
        tr
    }

    /// Walks the decoded array of the function installed at `base`,
    /// starting at `pc`, until control leaves it, a run terminates, or
    /// an error is raised. With `FUSE`, a scalar and the slot it pairs
    /// with ([`Slot::pair`]) run back to back before the dispatch loop
    /// comes round again; without, every slot is its own iteration.
    /// Cycle/instruction counters live in locals and are flushed to
    /// machine state on every exit and around host calls, so observable
    /// state always matches the reference engine exactly.
    ///
    /// `backedges` is the promotion clock's safepoint: it is counted
    /// down on every taken backward in-buffer transfer (and nowhere
    /// else — straight-line and forward code never look at it), and
    /// when it reaches zero the dispatcher leaves the buffer at the
    /// transfer's target, exactly as if control had left the function.
    /// The adaptive run loop grants the backedges still missing to the
    /// next tier threshold and reads back what was left.
    pub(crate) fn dispatch<const FUSE: bool>(
        &mut self,
        tr: &Decoded,
        base: u64,
        pc: u64,
        backedges: &mut u64,
    ) -> Result<Step, VmError> {
        let buf = &tr.slots[..];
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
        // Charge `$cost` cycles, retire one instruction, fuel-check.
        macro_rules! charge {
            ($cost:expr) => {{
                cycles += u64::from($cost);
                insns += 1;
                if cycles > fuel {
                    flush!();
                    return Err(VmError::OutOfFuel);
                }
            }};
        }
        // One scalar micro-step: execute, charge, fuel-check — in
        // exactly the reference engine's order.
        macro_rules! scalar_step {
            ($s:expr) => {{
                let s: &Slot = $s;
                if let Err(e) = exec_scalar(&mut self.state, s.op, s.rd, s.rs1, s.rs2, s.imm) {
                    flush!();
                    return Err(e);
                }
                charge!(s.cost);
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
        // transfer — target pc <= own pc — spends one backedge and
        // yields at $t once none are left.
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
                let t: i64 = $t;
                if (t as u64) < len as u64 {
                    land!(t as usize, $from);
                } else {
                    flush!();
                    return Ok(Step::At(base.wrapping_add((t as u64).wrapping_mul(4))));
                }
            }};
        }
        // The conditional branch in slot $at, which ends a step that
        // began $n slots back at `i`.
        macro_rules! branch_step {
            ($at:expr, $n:expr) => {{
                let b = &buf[$at];
                let taken = branch_taken(b.op, self.state.reg(b.rd), self.state.reg(b.rs1));
                charge!(if taken { b.taken_cost() } else { b.cost });
                if taken {
                    goto!(b.target(), $at);
                } else {
                    advance!($n);
                }
            }};
        }

        loop {
            let s = &buf[i];
            match s.kind {
                Kind::Scalar => {
                    scalar_step!(s);
                    // A pair is this slot and the next, as two
                    // micro-steps. The next slot is untouched, so
                    // control transfers *into* the middle of a pair
                    // (branch targets, return addresses) execute
                    // correctly, and pairs may overlap.
                    match s.pair {
                        Pair::Scalar if FUSE => {
                            scalar_step!(&buf[i + 1]);
                            advance!(2);
                        }
                        Pair::Branch if FUSE => branch_step!(i + 1, 2),
                        _ => advance!(1),
                    }
                }
                Kind::Branch => branch_step!(i, 1),
                Kind::Jump => {
                    charge!(s.cost);
                    goto!(s.target(), i);
                }
                Kind::Jal => {
                    self.state
                        .set_reg(crate::regs::RA.0, base + (i as u64 + 1) * 4);
                    charge!(s.cost);
                    goto!(s.target(), i);
                }
                Kind::Jalr => {
                    let target = self.state.reg(s.rs1);
                    self.state.set_reg(s.rd, base + (i as u64 + 1) * 4);
                    charge!(s.cost);
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
                Kind::Halt => {
                    // The reference engine charges halt but never
                    // fuel-checks it (the run is over).
                    cycles += u64::from(s.cost);
                    insns += 1;
                    flush!();
                    return Ok(Step::Done(ExitStatus::Halted));
                }
                Kind::Hcall => {
                    // The host observes counters as of *before* this
                    // instruction retires, and may mutate them (or the
                    // code space) arbitrarily.
                    flush!();
                    self.state.hcalls += 1;
                    self.host.call(s.imm as u32, &mut self.state)?;
                    cycles = self.state.cycles;
                    insns = self.state.insns;
                    entry_insns = insns;
                    charge!(s.cost);
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
                Kind::Trap => {
                    flush!();
                    return Err(VmError::BadOpcode(s.imm as u8));
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
        // Adaptive at both extremes: threaded from the first entry, and
        // never leaving tier 1 within these tests.
        ExecEngine::Adaptive {
            thread_after: 0,
            background: false,
        },
        ExecEngine::Adaptive {
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
    fn a_cost_too_wide_for_a_slot_stays_on_the_reference_path() {
        // `CostModel`'s fields are `u64`, a slot's cost columns `u32`:
        // first a per-instruction cost that does not fit, then one that
        // does while a two-scalar run's sum does not. No engine may
        // panic (inline or on the hub thread), and all must agree.
        let (cs, addr) = loop_code();
        let background = ExecEngine::Adaptive {
            thread_after: 2,
            background: true,
        };
        for alu in [1 << 40, u64::from(u32::MAX)] {
            let cost = CostModel {
                alu,
                ..CostModel::default()
            };
            let mut want = None;
            for engine in ENGINES
                .into_iter()
                .chain([ExecEngine::default(), background])
            {
                let mut vm = Vm::new(cs.clone(), 1 << 20);
                vm.set_engine(engine);
                vm.set_cost_model(cost.clone());
                let mut got = Vec::new();
                for _ in 0..10 {
                    got.push((vm.call(addr, &[10]), vm.cycles(), vm.insns()));
                    vm.drain_background_translations();
                }
                assert_eq!(got[0].0, Ok(55));
                assert_eq!(want.get_or_insert_with(|| got.clone()), &got, "{engine:?}");
                let s = vm.exec_stats();
                assert_eq!((s.translations, s.fast_insns), (0, 0), "{engine:?}");
                // Decoded at most once: the refusal sticks to the record.
                let asked = engine != ExecEngine::DecodePerStep;
                let refused = matches!(
                    vm.trans.tier_fns.first().map(|r| &r.tr),
                    Some(Translation::Refused)
                );
                assert_eq!(refused, asked, "{engine:?}");
                assert_eq!(vm.adaptive_stats().discarded_stale, 0);
            }
        }
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
