//! Unified observability for the tcc reproduction.
//!
//! Every layer of the pipeline reports into the types defined here:
//!
//! * the front end ([`FrontendMetrics`]: parse + semantic analysis),
//! * static MIR lowering and linking ([`StaticMetrics`]),
//! * dynamic compilation ([`DynMetrics`]: CGF walking, per-backend
//!   codegen phases in [`CodegenPhases`], instruction/spill counters),
//! * and the VM itself ([`VmMetrics`]: instructions retired, modeled
//!   cycles, host-call traps).
//!
//! `Session::metrics()` in the facade crate assembles them into a
//! [`SessionMetrics`], which renders to JSON via [`json::Json`] — the
//! machine-readable substrate behind the suite's `BENCH_*.json` files
//! (Table 1 and Figures 4-7 of the paper).
//!
//! This crate is a leaf: no dependencies, so every other crate in the
//! workspace can report into it.

#![forbid(unsafe_code)]

pub mod json;

use json::Json;

/// Per-phase codegen time, in nanoseconds.
///
/// For the ICODE back end every field is meaningful (the paper's
/// Figure 7 breakdown). The one-pass VCODE back end populates none: its
/// walk *is* its emission, so all of it — frame patch-up and seal
/// included — is [`DynMetrics::walk_ns`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodegenPhases {
    /// IR cleanup: dead code, jump threading, and the fusion-aware
    /// scheduler.
    pub peephole_ns: u64,
    /// Flow graph construction.
    pub flow_ns: u64,
    /// Live-variable relaxation.
    pub liveness_ns: u64,
    /// Live interval construction.
    pub intervals_ns: u64,
    /// Register allocation proper.
    pub alloc_ns: u64,
    /// Translation to binary.
    pub emit_ns: u64,
}

impl CodegenPhases {
    /// Total nanoseconds across phases.
    pub fn total_ns(&self) -> u64 {
        self.peephole_ns
            + self.flow_ns
            + self.liveness_ns
            + self.intervals_ns
            + self.alloc_ns
            + self.emit_ns
    }

    /// Fraction of time in liveness + intervals + allocation ("register
    /// allocation and related operations", the paper's 70-80% claim).
    pub fn alloc_fraction(&self) -> f64 {
        let a = self.liveness_ns + self.intervals_ns + self.alloc_ns;
        a as f64 / self.total_ns().max(1) as f64
    }

    /// Adds another breakdown into this one, phase by phase.
    pub fn accumulate(&mut self, other: &CodegenPhases) {
        self.peephole_ns += other.peephole_ns;
        self.flow_ns += other.flow_ns;
        self.liveness_ns += other.liveness_ns;
        self.intervals_ns += other.intervals_ns;
        self.alloc_ns += other.alloc_ns;
        self.emit_ns += other.emit_ns;
    }

    /// `(phase name, nanoseconds)` pairs, in pipeline order.
    pub fn entries(&self) -> [(&'static str, u64); 6] {
        [
            ("peephole_ns", self.peephole_ns),
            ("flow_ns", self.flow_ns),
            ("liveness_ns", self.liveness_ns),
            ("intervals_ns", self.intervals_ns),
            ("alloc_ns", self.alloc_ns),
            ("emit_ns", self.emit_ns),
        ]
    }

    /// JSON object with one field per phase plus the total.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = self
            .entries()
            .iter()
            .map(|&(k, v)| (k.to_string(), Json::from(v)))
            .collect();
        fields.push(("total_ns".to_string(), Json::from(self.total_ns())));
        Json::Obj(fields)
    }
}

/// Accumulated dynamic-compilation statistics (the raw material for the
/// paper's Table 1 and Figures 5-7).
#[derive(Clone, Debug, Default)]
pub struct DynMetrics {
    /// Number of `compile` invocations.
    pub compiles: u64,
    /// Total wall-clock nanoseconds in `compile`.
    pub total_ns: u64,
    /// Nanoseconds spent walking CGFs: closure reads, partial
    /// evaluation, and what the walk drives — for ICODE recording the
    /// IR, for VCODE emitting the function, through its `finish()`.
    pub walk_ns: u64,
    /// Per-phase breakdown, accumulated (ICODE back end).
    pub phases: CodegenPhases,
    /// Machine instructions generated.
    pub generated_insns: u64,
    /// ICODE IR instructions recorded.
    pub ir_insns: u64,
    /// Spilled live intervals (ICODE).
    pub spills: u64,
    /// Closures traversed.
    pub closures: u64,
    /// Loop iterations unrolled at dynamic compile time.
    pub unrolled_iters: u64,
    /// Nodes visited by static (run-time constant) evaluation during
    /// the CGF walks: what asking "is this subtree a run-time constant,
    /// and what is it" cost, in visits.
    pub rtc_evals: u64,
    /// Plan steps the CGF walks dispatched: one per lowered operation
    /// a walk ran, so steps per generated instruction is what the walk
    /// pays above the code it emits.
    pub steps: u64,
    /// The spec-time arena's largest footprint, in bytes: the most its
    /// closures, vspecs, labels and argument lists (and the unused tails
    /// of chunks they moved past) ever spanned at once. With no single
    /// object over 64 KiB, the VM heap the arena holds is this rounded up
    /// to whole 64 KiB chunks, each reserved once and then reused.
    pub spec_high_water: u64,
    /// Top-level calls that released their spec-time objects on return.
    pub spec_releases: u64,
    /// Top-level calls whose spec-time objects the escape rule kept.
    /// With `spec_releases`, one per call that entered the VM.
    pub spec_pinned_calls: u64,
}

impl DynMetrics {
    /// Codegen nanoseconds per generated machine instruction — the
    /// paper's central cost metric (Table 1 reports it in cycles; see
    /// [`DynMetrics::cycles_per_generated_insn`]).
    pub fn ns_per_generated_insn(&self) -> f64 {
        self.total_ns as f64 / self.generated_insns.max(1) as f64
    }

    /// Codegen cost in cycles per generated instruction, given a
    /// calibrated cycle time. The paper reports roughly 100 cycles per
    /// instruction for VCODE and 300-800 for ICODE.
    pub fn cycles_per_generated_insn(&self, ns_per_cycle: f64) -> f64 {
        self.ns_per_generated_insn() / ns_per_cycle.max(f64::MIN_POSITIVE)
    }

    /// JSON object with raw counters plus the derived per-instruction
    /// cost (in ns; callers with a calibrated clock add cycles).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("compiles", Json::from(self.compiles)),
            ("total_ns", Json::from(self.total_ns)),
            ("walk_ns", Json::from(self.walk_ns)),
            ("phases", self.phases.to_json()),
            ("generated_insns", Json::from(self.generated_insns)),
            ("ir_insns", Json::from(self.ir_insns)),
            ("spills", Json::from(self.spills)),
            ("closures", Json::from(self.closures)),
            ("unrolled_iters", Json::from(self.unrolled_iters)),
            ("rtc_evals", Json::from(self.rtc_evals)),
            ("steps", Json::from(self.steps)),
            ("spec_high_water", Json::from(self.spec_high_water)),
            ("spec_releases", Json::from(self.spec_releases)),
            ("spec_pinned_calls", Json::from(self.spec_pinned_calls)),
            (
                "ns_per_generated_insn",
                Json::from(self.ns_per_generated_insn()),
            ),
        ])
    }
}

/// Front-end cost: parsing plus semantic analysis ("compile time" in
/// the paper's static-compiler sense, minus code generation).
#[derive(Clone, Copy, Debug, Default)]
pub struct FrontendMetrics {
    /// Nanoseconds in parse + semantic analysis of the `C unit.
    pub parse_sema_ns: u64,
    /// Of `parse_sema_ns`: lexing and parsing.
    pub parse_ns: u64,
    /// Of `parse_sema_ns`: semantic analysis.
    pub sema_ns: u64,
    /// Source length, for normalization.
    pub source_bytes: u64,
}

impl FrontendMetrics {
    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("parse_sema_ns", Json::from(self.parse_sema_ns)),
            ("parse_ns", Json::from(self.parse_ns)),
            ("sema_ns", Json::from(self.sema_ns)),
            ("source_bytes", Json::from(self.source_bytes)),
        ])
    }
}

/// Static compilation cost: MIR lowering, optimization, and linking
/// into the executable image.
#[derive(Clone, Copy, Debug, Default)]
pub struct StaticMetrics {
    /// Nanoseconds lowering MIR and linking the image: the whole static
    /// build.
    pub lower_ns: u64,
    /// Of `lower_ns`: lowering every function's AST to ICODE IR.
    pub ir_lower_ns: u64,
    /// Of `lower_ns`: the mid-level optimizer (zero under the naive
    /// static back end).
    pub optimize_ns: u64,
    /// Of `lower_ns`: ICODE's compile of every function to machine code.
    pub icode_ns: u64,
    /// Machine instructions in the static image.
    pub static_insns: u64,
}

impl StaticMetrics {
    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("lower_ns", Json::from(self.lower_ns)),
            ("ir_lower_ns", Json::from(self.ir_lower_ns)),
            ("optimize_ns", Json::from(self.optimize_ns)),
            ("icode_ns", Json::from(self.icode_ns)),
            ("static_insns", Json::from(self.static_insns)),
        ])
    }
}

/// Execution counters from the VM.
#[derive(Clone, Copy, Debug, Default)]
pub struct VmMetrics {
    /// Instructions retired.
    pub insns: u64,
    /// Modeled cycles (per-opcode cost model).
    pub cycles: u64,
    /// Host-call traps taken (`compile`, output, allocation, ...).
    pub hcalls: u64,
}

impl VmMetrics {
    /// Modeled CPI — sanity signal for the cost model.
    pub fn cycles_per_insn(&self) -> f64 {
        self.cycles as f64 / self.insns.max(1) as f64
    }

    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("insns", Json::from(self.insns)),
            ("cycles", Json::from(self.cycles)),
            ("hcalls", Json::from(self.hcalls)),
        ])
    }
}

/// Compile-memoization and code-lifecycle counters reported by the
/// `tcc-cache` subsystem: how often a `compile` host call was answered
/// from cache, what the pool's retirements freed in this session's
/// code space, and how healthy that code space is.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheMetrics {
    /// `compile` calls answered without compiling: from the session
    /// memo, or by installing an artifact fetched from disk or the pool.
    pub hits: u64,
    /// `compile` calls that ran the CGF and inserted the result.
    pub misses: u64,
    /// Closures that cannot be memoized: `$`-expressions that read
    /// memory at compile time. (An artifact larger than a pool's whole
    /// budget is counted by the pool, `SharedCacheMetrics::uncacheable`.)
    pub uncacheable: u64,
    /// Entries whose code was freed because the pool retired the
    /// artifact (its CLOCK budget evicted it, or it was invalidated):
    /// the only way an entry leaves the memo.
    pub evictions: u64,
    /// Bytes of code currently live in cached functions.
    pub bytes_live: u64,
    /// Cumulative bytes of code freed by those drops.
    pub bytes_reclaimed: u64,
    /// Free-space fragmentation of the code space, `0.0..=1.0`
    /// (`1 - largest_free_range / total_free`).
    pub fragmentation: f64,
    /// Compile nanoseconds avoided by hits (the sum of each hit
    /// entry's original compile time).
    pub ns_saved: u64,
    /// Nanoseconds actually spent answering hits — the whole `compile`
    /// intercept of every call answered without compiling: the closure
    /// scan (depth and fingerprint), lookup and, for a function fetched
    /// from disk or the pool, its load and install. The same clock
    /// `ns_saved`'s compile times run on, so the two compare.
    pub hit_ns: u64,
}

impl CacheMetrics {
    /// Hit rate over all memoizable `compile` calls (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("hits", Json::from(self.hits)),
            ("misses", Json::from(self.misses)),
            ("uncacheable", Json::from(self.uncacheable)),
            ("evictions", Json::from(self.evictions)),
            ("bytes_live", Json::from(self.bytes_live)),
            ("bytes_reclaimed", Json::from(self.bytes_reclaimed)),
            ("fragmentation", Json::from(self.fragmentation)),
            ("ns_saved", Json::from(self.ns_saved)),
            ("hit_ns", Json::from(self.hit_ns)),
            ("hit_rate", Json::from(self.hit_rate())),
        ])
    }
}

/// Counters for the multi-tenant shared artifact cache (`tcc-cache`'s
/// `SharedArtifacts`): how often sessions on any thread found a
/// compiled artifact already published, how much duplicated compile
/// work the in-flight slots absorbed, and what eviction under the byte
/// budget cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedCacheMetrics {
    /// Requests answered with an already-published artifact (including
    /// requests that waited on an in-flight compile).
    pub hits: u64,
    /// Requests that claimed the fingerprint and compiled it.
    pub misses: u64,
    /// Hits that blocked on another thread's in-flight compile instead
    /// of duplicating it.
    pub waits: u64,
    /// Artifacts published (completed first compiles). With no churn
    /// this equals the number of unique fingerprints requested.
    pub published: u64,
    /// Artifacts evicted (CLOCK, the second-chance approximation of
    /// LRU) to stay under the byte budget.
    pub evictions: u64,
    /// Artifacts dropped by explicit invalidation (rule-set churn).
    pub invalidations: u64,
    /// Compiles whose artifact could not be retained (larger than the
    /// whole budget); waiters still received the one-shot result.
    pub uncacheable: u64,
    /// Bytes of compiled code currently held by published artifacts.
    pub bytes_live: u64,
    /// Published artifacts currently resident.
    pub entries: u64,
    /// Ring slots the CLOCK hand examined while evicting: each one
    /// either evicted, cleared a referenced bit, or dropped the slot of
    /// an artifact already gone.
    pub clock_steps: u64,
    /// Shard probes made by session memo syncs: one per retired key a
    /// memo held, or one per memo entry when a session fell further
    /// behind than the retirement log reaches.
    pub sync_probes: u64,
}

impl SharedCacheMetrics {
    /// Hit rate over all artifact requests (0.0 when none — matches
    /// [`CacheMetrics::hit_rate`]).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("hits", Json::from(self.hits)),
            ("misses", Json::from(self.misses)),
            ("waits", Json::from(self.waits)),
            ("published", Json::from(self.published)),
            ("evictions", Json::from(self.evictions)),
            ("invalidations", Json::from(self.invalidations)),
            ("uncacheable", Json::from(self.uncacheable)),
            ("bytes_live", Json::from(self.bytes_live)),
            ("entries", Json::from(self.entries)),
            ("clock_steps", Json::from(self.clock_steps)),
            ("sync_probes", Json::from(self.sync_probes)),
            ("hit_rate", Json::from(self.hit_rate())),
        ])
    }
}

/// Counters for the on-disk persistent artifact store (`tcc-cache`'s
/// `PersistentStore`): how many compiles were answered from disk
/// across a process restart, how much the zero-trust loader rejected,
/// and what flushing cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistMetrics {
    /// Compile requests answered by deserializing a stored artifact.
    pub disk_hits: u64,
    /// Compile requests that consulted the store and found nothing
    /// usable (absent, tombstoned, or rejected below).
    pub disk_misses: u64,
    /// Store entries rejected by the zero-trust loader: short reads
    /// and implausible lengths (found when the file is indexed at
    /// open), CRC mismatches, undecodable payloads and key mismatches
    /// (found when the entry is loaded, or at flush). Each
    /// rejection degrades to a cold miss; valid entries elsewhere in
    /// the file still load.
    pub corrupt_rejected: u64,
    /// Whole stores rejected because the header's format version or
    /// ABI salt did not match this build (different opcode table, cost
    /// model, fingerprint scheme, or static image layout).
    pub version_rejected: u64,
    /// Frames indexed at open: their bounds and claimed key checked,
    /// their payload not yet (that happens at load).
    pub entries_loaded: u64,
    /// Entries invalidated in memory and omitted from the next flush.
    pub tombstones: u64,
    /// Atomic flushes (temp file + rename) completed.
    pub flushes: u64,
    /// Bytes written across all flushes.
    pub bytes_flushed: u64,
    /// Nanoseconds spent answering disk hits: payload CRC, full
    /// bounds-checked decode and key comparison (charged against
    /// `ns_saved` so warm-start savings are not overstated).
    pub load_ns: u64,
    /// Nanoseconds `PersistentStore::open` took (lock, file read,
    /// header check, frame index): the store's share of `Session::new`.
    pub open_ns: u64,
}

impl PersistMetrics {
    /// Disk hit rate over all store consultations (0.0 when none —
    /// matches [`CacheMetrics::hit_rate`]).
    pub fn disk_hit_rate(&self) -> f64 {
        let total = self.disk_hits + self.disk_misses;
        if total == 0 {
            0.0
        } else {
            self.disk_hits as f64 / total as f64
        }
    }

    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("disk_hits", Json::from(self.disk_hits)),
            ("disk_misses", Json::from(self.disk_misses)),
            ("corrupt_rejected", Json::from(self.corrupt_rejected)),
            ("version_rejected", Json::from(self.version_rejected)),
            ("entries_loaded", Json::from(self.entries_loaded)),
            ("tombstones", Json::from(self.tombstones)),
            ("flushes", Json::from(self.flushes)),
            ("bytes_flushed", Json::from(self.bytes_flushed)),
            ("load_ns", Json::from(self.load_ns)),
            ("open_ns", Json::from(self.open_ns)),
            ("disk_hit_rate", Json::from(self.disk_hit_rate())),
        ])
    }
}

/// Execution-engine counters reported by the VM's translated engines
/// (predecoded and direct-threaded): how much code was translated, how
/// much fusion found, how many scalar runs were fuel-batched, and
/// which dispatch path retired instructions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Functions translated into decoded buffers.
    pub translations: u64,
    /// Code words covered by those translations.
    pub translated_words: u64,
    /// Instruction pairs a fusing tier-1 walk runs as
    /// superinstructions (cumulative over translations).
    pub fused_pairs: u64,
    /// Instructions retired from decoded buffers.
    pub fast_insns: u64,
    /// Instructions retired by the decode-per-step path (the whole run
    /// for that engine; fallback steps for the translated ones).
    pub slow_insns: u64,
    /// Code-space epoch changes observed (free / live patch /
    /// eviction): one per revalidation that found the epoch moved,
    /// however many bumps it had moved by. Each drops the translations
    /// of the functions freed or patched in between.
    pub invalidations: u64,
    /// Scalar runs fuel-charged in one batch by the threaded engine.
    pub batched_blocks: u64,
    /// Batched runs that exited early and un-charged their tail.
    pub fuel_reconciliations: u64,
    /// Direct-threaded handler-table size (0 until the threaded engine
    /// has translated something).
    pub handlers: u64,
    /// Superinstruction groups compiled by the threaded translator
    /// (run+jump, run+branch, pair, triple).
    pub superinstructions: u64,
    /// Dispatch-loop iterations executed by the threaded engine. Each
    /// superinstruction group retires with one dispatch, so this falls
    /// below `fast_insns` as fusion takes hold.
    pub dispatches: u64,
    /// Dispatches that entered a fused (superinstruction) handler.
    pub fused_dispatches: u64,
}

impl ExecMetrics {
    /// Fraction of retired instructions dispatched from translated
    /// buffers. Reports `0.0` when nothing has executed — a session
    /// that never ran code did not earn a perfect dispatch score
    /// (matches [`CacheMetrics::hit_rate`]).
    pub fn hit_rate(&self) -> f64 {
        let total = self.fast_insns + self.slow_insns;
        if total == 0 {
            0.0
        } else {
            self.fast_insns as f64 / total as f64
        }
    }

    /// Fraction of threaded dispatches that entered a fused
    /// (superinstruction) handler. `0.0` when nothing has dispatched —
    /// same zero-denominator rule as [`ExecMetrics::hit_rate`].
    pub fn fused_dispatch_rate(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.fused_dispatches as f64 / self.dispatches as f64
        }
    }

    /// Threaded dispatch-loop iterations per fast-path retired
    /// instruction: `1.0` means one dispatch per instruction (no
    /// batching or fusion), lower is better. `0.0` when nothing retired
    /// from translated buffers — a session that never ran earns no
    /// score.
    pub fn dispatches_per_insn(&self) -> f64 {
        if self.fast_insns == 0 {
            0.0
        } else {
            self.dispatches as f64 / self.fast_insns as f64
        }
    }

    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("translations", Json::from(self.translations)),
            ("translated_words", Json::from(self.translated_words)),
            ("fused_pairs", Json::from(self.fused_pairs)),
            ("fast_insns", Json::from(self.fast_insns)),
            ("slow_insns", Json::from(self.slow_insns)),
            ("invalidations", Json::from(self.invalidations)),
            ("batched_blocks", Json::from(self.batched_blocks)),
            (
                "fuel_reconciliations",
                Json::from(self.fuel_reconciliations),
            ),
            ("handlers", Json::from(self.handlers)),
            ("superinstructions", Json::from(self.superinstructions)),
            ("dispatches", Json::from(self.dispatches)),
            ("fused_dispatches", Json::from(self.fused_dispatches)),
            ("dispatch_hit_rate", Json::from(self.hit_rate())),
            (
                "fused_dispatch_rate",
                Json::from(self.fused_dispatch_rate()),
            ),
            (
                "dispatches_per_insn",
                Json::from(self.dispatches_per_insn()),
            ),
        ])
    }
}

/// Adaptive-engine tiering counters reported by the VM: where function
/// runs executed (per tier), how functions moved between tiers, and
/// what translation cost the tiering spent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdaptiveMetrics {
    /// Function entries counted, across all tiers. Equals
    /// `runs_tier0 + runs_tier1 + runs_tier2` (a tested invariant).
    pub total_runs: u64,
    /// Entries that ran on the reference single-step path: into a
    /// function whose decode was refused (a cost of the VM's model does
    /// not fit a slot). There is no interpreter tier, so this reads 0
    /// on every suite and benchmark workload. The `runs_tier*`
    /// counters classify entries by the tier granted at entry — a run
    /// that promotes mid-way counts wholly at its entry tier;
    /// `insns_tier*` say where the work ran.
    pub runs_tier0: u64,
    /// Entries that started at tier 1 (predecoded+fused), where every
    /// function's first entry starts.
    pub runs_tier1: u64,
    /// Entries that started at tier 2 (direct-threaded).
    pub runs_tier2: u64,
    /// Instructions retired by the reference single-step path: refused
    /// functions, and every instruction under
    /// `ExecEngine::DecodePerStep`. Exact; the three `insns_tier*`
    /// counters sum to the instructions the VM has retired.
    pub insns_tier0: u64,
    /// Instructions retired from predecoded buffers (tier 1).
    pub insns_tier1: u64,
    /// Instructions retired from direct-threaded buffers (tier 2).
    pub insns_tier2: u64,
    /// Promotions from tier 1 to tier 2, cumulative. Always
    /// `>= demotions` — a level can only be lost after it was gained.
    pub promotions: u64,
    /// Tier levels actually lost, cumulative: one per tier-2 function
    /// that was itself freed or patched.
    pub demotions: u64,
    /// Wall-clock nanoseconds spent building translations, under the
    /// adaptive engine only: first-entry decodes and threaded forms.
    pub translation_ns: u64,
    /// Code words translated under the adaptive engine: a function
    /// counts once per form built for it, whether this session compiled
    /// it or installed it from a pool.
    pub translated_words: u64,
    /// Threaded forms built on the background service and swapped in
    /// at a function entry or clock tick (background mode only; inline
    /// builds are not counted here).
    pub async_translations: u64,
    /// Background translations discarded on receipt because their
    /// function was freed, patched or replaced between enqueue and
    /// completion.
    pub discarded_stale: u64,
    /// Total enqueue→swap-in nanoseconds across `async_translations`
    /// (queue wait + build + drain delay: latency the background thread
    /// absorbed off the run loop's critical path).
    pub swap_latency_ns: u64,
}

impl AdaptiveMetrics {
    /// Fraction of retired instructions that ran at tier 2 — the
    /// "stuck one tier short" detector, which an entry count cannot be.
    /// `0.0` when nothing has retired.
    pub fn top_tier_insn_share(&self) -> f64 {
        let total = self.insns_tier0 + self.insns_tier1 + self.insns_tier2;
        if total == 0 {
            0.0
        } else {
            self.insns_tier2 as f64 / total as f64
        }
    }

    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("total_runs", Json::from(self.total_runs)),
            ("runs_tier0", Json::from(self.runs_tier0)),
            ("runs_tier1", Json::from(self.runs_tier1)),
            ("runs_tier2", Json::from(self.runs_tier2)),
            ("insns_tier0", Json::from(self.insns_tier0)),
            ("insns_tier1", Json::from(self.insns_tier1)),
            ("insns_tier2", Json::from(self.insns_tier2)),
            ("promotions", Json::from(self.promotions)),
            ("demotions", Json::from(self.demotions)),
            ("translation_ns", Json::from(self.translation_ns)),
            ("translated_words", Json::from(self.translated_words)),
            ("async_translations", Json::from(self.async_translations)),
            ("discarded_stale", Json::from(self.discarded_stale)),
            ("swap_latency_ns", Json::from(self.swap_latency_ns)),
            (
                "top_tier_insn_share",
                Json::from(self.top_tier_insn_share()),
            ),
        ])
    }
}

/// Host memory a session holds, in bytes, read off lengths and
/// capacities when the metrics are taken — nothing on any run path
/// counts it. So far the code space: its instruction words and, parallel
/// to them, its owner index (one `u32` per word each), and its function
/// registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryMetrics {
    /// Code words emitted: the code space's tail, 4 bytes a word.
    pub code_words_bytes: u64,
    /// Of the word array, the bytes committed: made writable, and so
    /// charged to the host, a 64 KiB step at a time. Only the pages
    /// written are resident.
    pub code_words_committed_bytes: u64,
    /// The owner index's entries, one per word.
    pub code_owner_bytes: u64,
    /// Of the owner index, the bytes committed.
    pub code_owner_committed_bytes: u64,
    /// The function registry's capacity: one slot per function alive at
    /// once, and the list of released slots.
    pub code_registry_bytes: u64,
}

impl MemoryMetrics {
    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("code_words_bytes", Json::from(self.code_words_bytes)),
            (
                "code_words_committed_bytes",
                Json::from(self.code_words_committed_bytes),
            ),
            ("code_owner_bytes", Json::from(self.code_owner_bytes)),
            (
                "code_owner_committed_bytes",
                Json::from(self.code_owner_committed_bytes),
            ),
            ("code_registry_bytes", Json::from(self.code_registry_bytes)),
        ])
    }
}

/// The unified per-phase breakdown for one session: everything from
/// source text to retired instructions.
#[derive(Clone, Debug, Default)]
pub struct SessionMetrics {
    /// Parse + semantic analysis.
    pub frontend: FrontendMetrics,
    /// Static MIR lowering and image linking.
    pub static_compile: StaticMetrics,
    /// Dynamic (run-time) compilation, accumulated over all `compile`
    /// host calls.
    pub dynamic: DynMetrics,
    /// Execution counters.
    pub vm: VmMetrics,
    /// Execution-engine translation/dispatch counters.
    pub exec: ExecMetrics,
    /// Adaptive-engine tiering counters.
    pub adaptive: AdaptiveMetrics,
    /// Compile memoization and code lifecycle (`tcc-cache`).
    pub cache: CacheMetrics,
    /// On-disk persistent artifact store (`tcc-cache` persist layer).
    pub persist: PersistMetrics,
    /// Host memory the session holds.
    pub memory: MemoryMetrics,
}

impl SessionMetrics {
    /// Full JSON form — the per-session unit of the `BENCH_*.json`
    /// reports.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("frontend", self.frontend.to_json()),
            ("static", self.static_compile.to_json()),
            ("dynamic", self.dynamic.to_json()),
            ("vm", self.vm.to_json()),
            ("exec", self.exec.to_json()),
            ("adaptive", self.adaptive.to_json()),
            ("cache", self.cache.to_json()),
            ("persist", self.persist.to_json()),
            ("memory", self.memory.to_json()),
        ])
    }
}

/// Break-even run count: after how many uses does paying `overhead`
/// once beat losing `per_run_gain` every run? (The paper's Figure 5
/// crossover.) `None` when the dynamic code is not actually faster.
pub fn crossover_runs(overhead: f64, per_run_gain: f64) -> Option<f64> {
    if per_run_gain > 0.0 {
        Some(overhead / per_run_gain)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_total_and_accumulate() {
        let mut a = CodegenPhases {
            peephole_ns: 1,
            flow_ns: 2,
            liveness_ns: 3,
            intervals_ns: 4,
            alloc_ns: 5,
            emit_ns: 6,
        };
        assert_eq!(a.total_ns(), 21);
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.total_ns(), 42);
        assert_eq!(a.alloc_ns, 10);
        // alloc_fraction = (liveness + intervals + alloc) / total.
        let frac = a.alloc_fraction();
        assert!((frac - 24.0 / 42.0).abs() < 1e-12);
    }

    #[test]
    fn empty_session_ratios_are_zero_not_nan() {
        // Every ratio-shaped metric must report 0.0 — not NaN, not a
        // vacuous perfect score — for a session that never did the
        // thing being rated.
        assert_eq!(CodegenPhases::default().alloc_fraction(), 0.0);
        assert_eq!(DynMetrics::default().ns_per_generated_insn(), 0.0);
        assert_eq!(DynMetrics::default().cycles_per_generated_insn(2.0), 0.0);
        assert_eq!(VmMetrics::default().cycles_per_insn(), 0.0);
        assert_eq!(CacheMetrics::default().hit_rate(), 0.0);
        assert_eq!(CacheMetrics::default().fragmentation, 0.0);
        assert_eq!(ExecMetrics::default().hit_rate(), 0.0);
        assert_eq!(SharedCacheMetrics::default().hit_rate(), 0.0);
        assert_eq!(PersistMetrics::default().disk_hit_rate(), 0.0);
        assert_eq!(AdaptiveMetrics::default().top_tier_insn_share(), 0.0);
        // The whole default-session JSON tree must be NaN-free (NaN
        // would serialize as a bare `NaN`, which is not valid JSON).
        let text = SessionMetrics::default().to_json().to_string();
        assert!(!text.contains("NaN"), "NaN leaked into JSON: {text}");
    }

    #[test]
    fn dyn_metrics_per_insn_guards_zero() {
        let m = DynMetrics {
            total_ns: 1000,
            generated_insns: 0,
            ..Default::default()
        };
        // max(1) guard: no division by zero.
        assert_eq!(m.ns_per_generated_insn(), 1000.0);
        let m = DynMetrics {
            total_ns: 1000,
            generated_insns: 10,
            ..Default::default()
        };
        assert_eq!(m.ns_per_generated_insn(), 100.0);
        assert_eq!(m.cycles_per_generated_insn(2.0), 50.0);
    }

    #[test]
    fn cache_hit_rate_guards_zero() {
        let m = CacheMetrics::default();
        assert_eq!(m.hit_rate(), 0.0);
        let m = CacheMetrics {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(m.hit_rate(), 0.75);
        let text = m.to_json().to_string();
        for key in ["hits", "evictions", "bytes_live", "ns_saved", "hit_ns"] {
            assert!(text.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }

    #[test]
    fn memory_metrics_name_every_field() {
        let m = MemoryMetrics {
            code_words_bytes: 1,
            code_words_committed_bytes: 2,
            code_owner_bytes: 3,
            code_owner_committed_bytes: 4,
            code_registry_bytes: 5,
        };
        assert_eq!(
            m.to_json().to_string(),
            "{\"code_words_bytes\":1,\"code_words_committed_bytes\":2,\"code_owner_bytes\":3,\
             \"code_owner_committed_bytes\":4,\"code_registry_bytes\":5}"
        );
        let session = SessionMetrics::default().to_json().to_string();
        assert!(session.contains("\"memory\":{\"code_words_bytes\":0,"));
    }

    #[test]
    fn shared_cache_hit_rate_guards_zero() {
        let m = SharedCacheMetrics::default();
        assert_eq!(m.hit_rate(), 0.0);
        let m = SharedCacheMetrics {
            hits: 9,
            misses: 1,
            waits: 2,
            ..Default::default()
        };
        assert_eq!(m.hit_rate(), 0.9);
        let text = m.to_json().to_string();
        for key in [
            "hits",
            "misses",
            "waits",
            "published",
            "evictions",
            "invalidations",
            "uncacheable",
            "bytes_live",
            "entries",
            "hit_rate",
        ] {
            assert!(text.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }

    #[test]
    fn exec_hit_rate_guards_zero() {
        // A session that never executed anything has no dispatch score
        // to report — 0.0, not a vacuous 1.0 (same rule as
        // CacheMetrics::hit_rate above).
        let m = ExecMetrics::default();
        assert_eq!(m.hit_rate(), 0.0);
        let m = ExecMetrics {
            fast_insns: 3,
            slow_insns: 1,
            ..Default::default()
        };
        assert_eq!(m.hit_rate(), 0.75);
        let text = m.to_json().to_string();
        for key in [
            "batched_blocks",
            "fuel_reconciliations",
            "handlers",
            "superinstructions",
            "dispatches",
            "fused_dispatches",
            "fused_dispatch_rate",
            "dispatches_per_insn",
        ] {
            assert!(text.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }

    #[test]
    fn superinstruction_ratios_guard_zero() {
        // Zero denominators report 0.0, never NaN (PR 6 obs
        // convention): a session that never dispatched has no fused
        // share, and one that never retired fast-path instructions has
        // no dispatch density.
        let m = ExecMetrics::default();
        assert_eq!(m.fused_dispatch_rate(), 0.0);
        assert_eq!(m.dispatches_per_insn(), 0.0);
        // fused_dispatches set but dispatches == 0 (can only happen on
        // a hand-built value, but the guard must still hold).
        let m = ExecMetrics {
            fused_dispatches: 5,
            ..Default::default()
        };
        assert_eq!(m.fused_dispatch_rate(), 0.0);
        let m = ExecMetrics {
            dispatches: 8,
            fused_dispatches: 2,
            fast_insns: 16,
            ..Default::default()
        };
        assert_eq!(m.fused_dispatch_rate(), 0.25);
        assert_eq!(m.dispatches_per_insn(), 0.5);
        let text = m.to_json().to_string();
        assert!(!text.contains("NaN"), "NaN leaked into JSON: {text}");
    }

    #[test]
    fn adaptive_top_tier_insn_share_guards_zero() {
        let m = AdaptiveMetrics::default();
        assert_eq!(m.top_tier_insn_share(), 0.0);
        let m = AdaptiveMetrics {
            total_runs: 4,
            runs_tier0: 1,
            runs_tier1: 1,
            runs_tier2: 2,
            insns_tier0: 10,
            insns_tier1: 30,
            insns_tier2: 120,
            ..Default::default()
        };
        assert_eq!(m.top_tier_insn_share(), 0.75);
        let text = m.to_json().to_string();
        for key in [
            "total_runs",
            "runs_tier0",
            "runs_tier2",
            "insns_tier0",
            "insns_tier1",
            "insns_tier2",
            "top_tier_insn_share",
            "promotions",
            "demotions",
            "translation_ns",
            "async_translations",
            "discarded_stale",
            "swap_latency_ns",
        ] {
            assert!(text.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }

    #[test]
    fn crossover_math() {
        assert_eq!(crossover_runs(1000.0, 10.0), Some(100.0));
        assert_eq!(crossover_runs(1000.0, 0.0), None);
        assert_eq!(crossover_runs(1000.0, -5.0), None);
    }

    #[test]
    fn session_metrics_json_shape() {
        let s = SessionMetrics::default();
        let j = s.to_json();
        let text = j.to_string();
        for key in [
            "frontend",
            "static",
            "dynamic",
            "vm",
            "hcalls",
            "phases",
            "exec",
            "dispatch_hit_rate",
            "adaptive",
            "promotions",
            "top_tier_insn_share",
            "cache",
            "hit_rate",
            "persist",
            "disk_hit_rate",
        ] {
            assert!(
                text.contains(&format!("\"{key}\"")),
                "missing {key} in {text}"
            );
        }
    }

    #[test]
    fn persist_metrics_guard_zero() {
        let m = PersistMetrics::default();
        assert_eq!(m.disk_hit_rate(), 0.0);
        let m = PersistMetrics {
            disk_hits: 3,
            disk_misses: 1,
            ..Default::default()
        };
        assert_eq!(m.disk_hit_rate(), 0.75);
        let text = m.to_json().to_string();
        for key in [
            "disk_hits",
            "disk_misses",
            "corrupt_rejected",
            "version_rejected",
            "entries_loaded",
            "tombstones",
            "flushes",
            "bytes_flushed",
            "load_ns",
            "open_ns",
            "disk_hit_rate",
        ] {
            assert!(text.contains(&format!("\"{key}\"")), "missing {key}");
        }
        assert!(!text.contains("NaN"), "NaN leaked into JSON: {text}");
    }
}
