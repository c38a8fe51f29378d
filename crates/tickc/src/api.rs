//! The public face of the system: compile a `C source string, pick your
//! back ends, run functions, measure.

use crate::runtime::{Backend, DynStats, TccRuntime};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use tcc_cache::{CodeCache, SharedArtifacts};
use tcc_front::{FrontError, Program};
use tcc_mir::{build_image_scheduled, Image, OptLevel};
use tcc_obs::{FrontendMetrics, SessionMetrics, StaticMetrics, VmMetrics};
use tcc_vm::{CodeSpace, CostModel, ExecEngine, TransHub, Vm, VmError};

/// Any error from source to execution.
#[derive(Debug)]
pub enum Error {
    /// Lex/parse/sema error.
    Front(FrontError),
    /// Machine fault (also carries run-time diagnostics).
    Vm(VmError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Front(e) => write!(f, "{e}"),
            Error::Vm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<FrontError> for Error {
    fn from(e: FrontError) -> Self {
        Error::Front(e)
    }
}

impl From<VmError> for Error {
    fn from(e: VmError) -> Self {
        Error::Vm(e)
    }
}

/// Configuration for a [`Session`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Static back end (lcc-like vs gcc-like).
    pub static_opt: OptLevel,
    /// Dynamic back end (VCODE vs ICODE×allocator).
    pub backend: Backend,
    /// Data memory size in bytes. This is the VM's address space, not
    /// resident memory: the session owns one zeroed memory, on Linux an
    /// anonymous mapping the kernel backs on first write, so the host
    /// pays only for the pages the program touches.
    pub mem_size: usize,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Memoize `compile` calls on closure fingerprints: the session
    /// memo (`tcc_cache::CodeCache`) records every function this
    /// session has installed and answers a repeat `compile` with its
    /// address. Every memo is a member of a pool: `shared`, or else a
    /// pool of one that the session builds (one shard, no budget), to
    /// which its compiles are published. `false` = no memo, no pool and
    /// no store, every `compile` compiles — in a private session; a
    /// pool session (`shared` set) always has its memo. An unbounded
    /// pool never retires what it holds; to bound live dynamic code,
    /// make the session a one-session pool with a budget
    /// (`shared: Some(SharedArtifacts::with_budget(b))`), whose budget
    /// is the only eviction policy.
    pub cache: bool,
    /// The execution engine. `None` = adaptive per-function tiering
    /// ([`ExecEngine::Adaptive`] with the calibrated
    /// [`DEFAULT_THREAD_AFTER`](tcc_vm::DEFAULT_THREAD_AFTER)
    /// threshold and `adaptive_background`). An explicit engine wins:
    /// use it to pin the reference interpreter
    /// ([`ExecEngine::DecodePerStep`]) or a fixed translated engine
    /// (predecoded fused/unfused, threaded) for comparisons, or
    /// adaptive tiering under another threshold. Every engine is
    /// observationally identical to decode-per-step.
    pub engine: Option<ExecEngine>,
    /// Default (`engine: None`) adaptive tiering only: build the
    /// threaded form of a promoted function on a background thread
    /// instead of inline, swapping it in at a later function entry or
    /// clock tick (and discarding one whose function was freed or
    /// patched first). Only that build moves off-thread: a function's
    /// first entry still decodes it inline, and it runs fused until the
    /// swap. Off by default.
    pub adaptive_background: bool,
    /// Run the ICODE fusion-aware scheduler (sinks pure defs next to
    /// branches/consumers so superinstruction pairing finds more
    /// adjacencies). Ablation knob; on by default.
    pub icode_schedule: bool,
    /// Process-wide shared artifact cache (`tcc-serve` multi-tenant
    /// mode): the pool this session's memo joins, in place of a pool
    /// of its own. Sessions built around clones of one
    /// [`SharedArtifacts`] compile each unique closure once between
    /// them: a memo miss asks the shared table, the first compiler
    /// publishes, concurrent requesters block on the in-flight slot,
    /// and later requesters install the published words into their own
    /// code space and memo. A memo hit still counts as a shared hit and
    /// sets the resident's CLOCK referenced bit, through the bit the
    /// memo entry holds. When the pool evicts or invalidates an
    /// artifact, each session drops its local copy at its next call.
    pub shared: Option<Arc<SharedArtifacts>>,
    /// Shared background translation service: one `tcc-translate`
    /// thread serving every session's adaptive tier promotions instead
    /// of a private hub thread per VM. Only meaningful with a
    /// background adaptive engine.
    pub translation_hub: Option<TransHub<TccRuntime>>,
    /// On-disk persistent artifact store: compiled closures are
    /// serialized fingerprint-keyed to this path, so a *new process*
    /// compiling the same source warm-starts at hit cost
    /// (`PersistMetrics` reports the disk hits). The store is opened
    /// under an ABI salt derived from the fingerprint scheme version,
    /// opcode table, cost model, and static image layout
    /// ([`persist_abi_salt`]) — a store written by an incompatible
    /// build or a different source program is rejected whole as
    /// `version_rejected`, never served. The store attaches to the
    /// session's pool, shared or its own (the first session in the
    /// pool to ask opens it; disk fills answer misses before
    /// compile-slot claims). A session with no memo has no pool, so
    /// with `cache` off and `shared` unset no store is opened. A stored
    /// artifact that loads clean but cannot be installed is dropped and
    /// recompiled. `None` = in-memory caching only.
    pub persist_path: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            static_opt: OptLevel::Optimizing,
            backend: Backend::default(),
            mem_size: 64 << 20,
            cost: CostModel::default(),
            cache: true,
            engine: None,
            adaptive_background: false,
            icode_schedule: true,
            shared: None,
            translation_hub: None,
            persist_path: None,
        }
    }
}

/// The ABI salt persistent stores are opened under: an
/// order-sensitive fold of the fingerprint scheme version, the opcode
/// table signature, the cost model digest, and the static image's
/// function/global/tick-literal layout. Fingerprints deliberately do not
/// cover the static program (it is fixed for a session), but generated
/// code bakes static call addresses in — so a store written for one source
/// program, or by a build with a different ISA, cost model, or
/// fingerprint encoding, must not be served to another. Exposed so
/// tests can open stores the way [`Session::new`] does.
pub fn persist_abi_salt(image: &SessionImage, cost: &CostModel) -> u64 {
    // splitmix64-style mixer: cheap, and every input bit diffuses.
    fn mix(a: u64, b: u64) -> u64 {
        let mut x = a ^ b.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    let mut h = mix(
        crate::fingerprint::SCHEME_VERSION as u64,
        tcc_vm::isa::op_table_signature(),
    );
    h = mix(h, cost.digest());
    h = mix(h, image.func_addrs.len() as u64);
    for &a in &image.func_addrs {
        h = mix(h, a);
    }
    h = mix(h, image.global_addrs.len() as u64);
    for &a in &image.global_addrs {
        h = mix(h, a);
    }
    // Dynamic code bakes in where a tick body's string literals live.
    for &a in image.tick_strs.iter().flatten() {
        h = mix(h, a);
    }
    h
}

/// What a [`Session`] keeps of the linked [`tcc_mir::Image`]: the symbol
/// tables. The image's data memory and code are moved into the VM at
/// construction and live only there (`vm.state().mem`,
/// `vm.state().code`), so there is no second copy to keep in step.
#[derive(Debug)]
pub struct SessionImage {
    /// The static code as linked, before any dynamic function was
    /// installed. A snapshot for callers that replay installs into a
    /// fresh code space; the VM runs its own.
    pub code: CodeSpace,
    /// Function addresses by function index.
    pub func_addrs: Vec<u64>,
    /// Function names (same order).
    pub func_names: Vec<String>,
    /// Global addresses by global index.
    pub global_addrs: Vec<u64>,
    /// Address of every string literal a tick body mentions, by tick
    /// and then by [`tcc_front::ast::TickDef::str_lits`] index — what
    /// dynamic code bakes in for one.
    pub tick_strs: Vec<Vec<u64>>,
}

impl SessionImage {
    /// Address of the function named `name`.
    pub fn addr_of(&self, name: &str) -> Option<u64> {
        let i = self.func_names.iter().position(|n| n == name)?;
        Some(self.func_addrs[i])
    }
}

/// A compiled, loaded, runnable `C program.
///
/// ```rust
/// use tcc::Session;
///
/// let mut s = Session::with_defaults(r#"
///     int make(int n) {
///         int cspec c = `($n + 4);
///         int (*f)(void) = compile(c, int);
///         return (*f)();
///     }
/// "#).expect("compiles");
/// assert_eq!(s.call("make", &[38]).unwrap(), 42);
/// ```
pub struct Session {
    /// The virtual machine (host = the `C runtime).
    pub vm: Vm<TccRuntime>,
    /// Symbols and addresses of the loaded image (its memory and code
    /// are in `vm`).
    pub image: SessionImage,
    /// The analyzed program.
    pub prog: Arc<Program>,
    /// Front-end timing, captured at construction.
    frontend: FrontendMetrics,
    /// Static lowering/linking timing, captured at construction.
    static_compile: StaticMetrics,
    /// Entry addresses of the functions whose return type holds a cspec
    /// or vspec, ascending: a call entering at one keeps its spec-time
    /// objects. Empty, and unallocated, for a program with no such
    /// function or whose spec values escape anyway.
    spec_entries: Vec<u64>,
}

impl Session {
    /// Compiles and loads `src` with explicit configuration.
    ///
    /// # Errors
    ///
    /// Front-end or layout errors.
    pub fn new(src: &str, config: Config) -> Result<Session, Error> {
        let t0 = Instant::now();
        let prog = Arc::new(tcc_front::compile_unit(src)?);
        let frontend = FrontendMetrics {
            parse_sema_ns: t0.elapsed().as_nanos() as u64,
            source_bytes: src.len() as u64,
        };
        let t1 = Instant::now();
        let Image {
            code,
            mem,
            func_addrs,
            func_names,
            global_addrs,
            tick_strs,
            ..
        } = build_image_scheduled(
            &prog,
            config.static_opt,
            config.mem_size,
            config.icode_schedule,
        )?;
        let static_compile = StaticMetrics {
            lower_ns: t1.elapsed().as_nanos() as u64,
            static_insns: code.next_index() as u64,
        };
        let image = SessionImage {
            code: code.clone(),
            func_addrs,
            func_names,
            global_addrs,
            tick_strs,
        };
        let mut rt = TccRuntime::new(prog.clone(), &image, config.backend);
        rt.set_icode_schedule(config.icode_schedule);
        // Every memo is a pool member; a private one is a pool of one.
        // Without a memo there is no pool, and so no store.
        rt.cache = match config.shared {
            Some(shared) => Some(CodeCache::in_pool(shared)),
            None => config.cache.then(CodeCache::new),
        };
        if let (Some(memo), Some(path)) = (&rt.cache, &config.persist_path) {
            // The first member to ask opens the store; the rest find it
            // attached.
            memo.pool()
                .attach_persist(path, persist_abi_salt(&image, &config.cost));
        }
        let mut vm = Vm::from_parts(code, mem, rt);
        vm.set_cost_model(config.cost);
        vm.set_engine(config.engine.unwrap_or(ExecEngine::Adaptive {
            thread_after: tcc_vm::DEFAULT_THREAD_AFTER,
            background: config.adaptive_background,
        }));
        if let Some(hub) = config.translation_hub {
            vm.set_translation_hub(hub);
        }
        // A program whose spec values escape keeps every call's objects,
        // so only one that does not needs the per-entry list.
        let mut spec_entries = Vec::new();
        if !prog.spec_escapes {
            spec_entries.extend(prog.spec_returns.iter().map(|&f| image.func_addrs[f]));
            spec_entries.sort_unstable();
        }
        Ok(Session {
            vm,
            image,
            prog,
            frontend,
            static_compile,
            spec_entries,
        })
    }

    /// Compiles and loads with default configuration (optimizing static
    /// back end, VCODE dynamic back end).
    ///
    /// # Errors
    ///
    /// Front-end or layout errors.
    pub fn with_defaults(src: &str) -> Result<Session, Error> {
        Session::new(src, Config::default())
    }

    /// Reconciles the memo with its pool: frees local installs of
    /// artifacts the pool evicted or invalidated, so their stale
    /// addresses fault `VmError::StaleCode` instead of running dropped
    /// code.
    fn sync_shared(&mut self) {
        let (state, rt) = self.vm.parts_mut();
        if let Some(memo) = &mut rt.cache {
            // Freeing a function the memo owns cannot fail: nothing
            // else holds its handle.
            let _ = memo.sync(&mut state.code);
        }
    }

    /// One top-level call into the VM at `addr`. Spec-time objects the
    /// call allocates live until it returns, `Ok` or `Err`, and are then
    /// released — unless the escape rule keeps them: the program lets a
    /// spec value outlive its call, or this entry returns one (DESIGN,
    /// "Spec-time memory").
    fn enter<R>(
        &mut self,
        addr: u64,
        run: impl FnOnce(&mut Vm<TccRuntime>) -> Result<R, VmError>,
    ) -> Result<R, Error> {
        self.sync_shared();
        let mark = self.vm.host().arena.mark();
        let r = run(&mut self.vm);
        let pinned = self.prog.spec_escapes || self.spec_entries.binary_search(&addr).is_ok();
        let (state, rt) = self.vm.parts_mut();
        if pinned {
            rt.stats.spec_pinned_calls += 1;
        } else {
            rt.arena.release(&mut state.mem, mark);
            rt.stats.spec_releases += 1;
        }
        rt.stats.spec_high_water = rt.arena.high_water();
        Ok(r?)
    }

    /// Address of the static function `name`.
    fn entry(&self, name: &str) -> Result<u64, Error> {
        self.image
            .addr_of(name)
            .ok_or_else(|| Error::Vm(VmError::Host(format!("no function {name}"))))
    }

    /// Calls function `name` with integer arguments.
    ///
    /// # Errors
    ///
    /// Unknown function or machine fault.
    pub fn call(&mut self, name: &str, args: &[u64]) -> Result<u64, Error> {
        let addr = self.entry(name)?;
        self.call_addr(addr, args)
    }

    /// Calls function `name`, returning the floating point result.
    ///
    /// # Errors
    ///
    /// Unknown function or machine fault.
    pub fn call_f(&mut self, name: &str, args: &[u64], fargs: &[f64]) -> Result<f64, Error> {
        let addr = self.entry(name)?;
        self.enter(addr, |vm| vm.call_f(addr, args, fargs))
    }

    /// Calls a function by address (e.g. a pointer returned from `C
    /// code).
    ///
    /// # Errors
    ///
    /// Machine fault.
    pub fn call_addr(&mut self, addr: u64, args: &[u64]) -> Result<u64, Error> {
        self.enter(addr, |vm| vm.call(addr, args))
    }

    /// Cycles consumed since the last [`Session::reset_counters`].
    pub fn cycles(&self) -> u64 {
        self.vm.cycles()
    }

    /// Instructions executed since the last reset.
    pub fn insns(&self) -> u64 {
        self.vm.insns()
    }

    /// Zeroes the cycle/instruction counters.
    pub fn reset_counters(&mut self) {
        self.vm.reset_counters();
    }

    /// Dynamic compilation statistics.
    pub fn dyn_stats(&self) -> &DynStats {
        &self.vm.host().stats
    }

    /// Host-call traps taken since the last reset.
    pub fn hcalls(&self) -> u64 {
        self.vm.hcalls()
    }

    /// Fused superinstruction shapes compiled by the threaded
    /// translator this session (mnemonic groups like `"addiw+bne"` or
    /// `"addw+j"`), sorted by count descending then name. Empty until
    /// the threaded tier has translated something. Cumulative across
    /// translations, like the exec counters.
    pub fn fused_shape_histogram(&self) -> Vec<(String, u64)> {
        self.vm.fused_shape_histogram()
    }

    /// The unified per-phase metrics breakdown for this session:
    /// front-end parse/sema time, static lowering, accumulated dynamic
    /// compilation (walk time, per-phase codegen, instruction counts),
    /// and VM execution counters since the last reset.
    pub fn metrics(&self) -> SessionMetrics {
        SessionMetrics {
            frontend: self.frontend,
            static_compile: self.static_compile,
            dynamic: self.vm.host().stats.clone(),
            vm: VmMetrics {
                insns: self.vm.insns(),
                cycles: self.vm.cycles(),
                hcalls: self.vm.hcalls(),
            },
            exec: self.vm.exec_stats(),
            adaptive: self.vm.adaptive_stats(),
            cache: self
                .vm
                .host()
                .cache
                .as_ref()
                .map(|c| c.metrics(&self.vm.state().code))
                .unwrap_or_default(),
            persist: self
                .pool()
                .and_then(|p| p.persist_metrics())
                .unwrap_or_default(),
        }
    }

    /// The pool behind this session's memo, if it has one.
    fn pool(&self) -> Option<&Arc<SharedArtifacts>> {
        self.vm.host().cache.as_ref().map(CodeCache::pool)
    }

    /// Flushes the persistent artifact store attached to this session's
    /// pool (atomic temp-file + rename). A no-op `Ok` without a store,
    /// as when `Config::cache` is off in a private session; an error
    /// when this process is not the store's writer or the write
    /// fails. Unflushed writer state also flushes on session drop.
    ///
    /// # Errors
    ///
    /// Read-only store (another process holds the writer lock) or I/O
    /// failure writing the file.
    pub fn flush_persist(&mut self) -> std::io::Result<()> {
        self.pool().map_or(Ok(()), |p| p.flush_persist())
    }

    /// Program output captured so far.
    pub fn output(&self) -> String {
        self.vm.host().output()
    }

    /// Clears captured program output.
    pub fn clear_output(&mut self) {
        self.vm.host_mut().out.clear();
    }

    /// VM address of global `name`.
    pub fn global_addr(&self, name: &str) -> Option<u64> {
        let i = self.prog.globals.iter().position(|g| g.name == name)?;
        Some(self.image.global_addrs[i])
    }

    /// Disassembles the function at `addr` — static or dynamically
    /// generated (handy for inspecting what `compile` produced).
    pub fn disassemble_addr(&self, addr: u64) -> Option<String> {
        self.vm.state().code.disassemble_at(addr)
    }

    /// Disassembles the static function `name`.
    pub fn disassemble(&self, name: &str) -> Option<String> {
        self.disassemble_addr(self.image.addr_of(name)?)
    }
}
