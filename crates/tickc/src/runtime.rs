//! The `C run-time system: the host-call handler behind generated code.
//!
//! Everything the paper's run-time library does surfaces here: arena
//! allocation (§4.2) of closures, vspecs (`local`/`param` special
//! forms), labels and argument lists, and — centrally — `compile`
//! (§4.4), which runs the CGF machinery against the selected dynamic
//! back end, links the resulting code into the code space, resets
//! per-compilation vspec state, and returns the function pointer. Output
//! and `malloc` host calls round out the tiny libc.

use crate::api::SessionImage;
use crate::dyncomp::{DynCompiler, DynInput, WalkScratch, WalkStats};
use crate::fingerprint::{scan_closure, Frame, MAX_PATH};
use crate::plan::TickPlan;
use std::cell::OnceCell;
use std::sync::Arc;
use std::time::Instant;
use tcc_cache::{Acquire, Artifact, CodeCache, FingerprintBuilder};
use tcc_front::Program;
use tcc_icode::prune::FULL_ENTRIES;
use tcc_icode::{IcodeBuf, IcodeCompiler, LblId, Strategy, TranslatorTable, VReg};
use tcc_rt::{
    hcalls, ValKind, VmArena, VspecObj, VspecTag, ARGLIST_MARKER, ARGLIST_MAX, LABEL_MARKER,
};
use tcc_vcode::{CodeSink, Label, Loc, Vcode, VcodeBufs};
use tcc_vm::interp::MachineState;
use tcc_vm::{CodeSpace, HostCall, Memory, VmError};

/// Dynamic back-end selection — the paper's central knob: "tcc allows
/// the user to select the dynamic back end".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// One-pass VCODE emission (fast codegen, locally good code).
    Vcode {
        /// Disable per-operand spill checks (§5.1's faster, riskier mode).
        unchecked: bool,
    },
    /// ICODE: IR + flow graph + liveness + register allocation.
    Icode {
        /// Linear scan (Figure 3) or the Chaitin-style baseline.
        strategy: Strategy,
    },
}

impl Default for Backend {
    fn default() -> Self {
        Backend::Vcode { unchecked: false }
    }
}

/// Accumulated dynamic-compilation statistics (the raw material for the
/// paper's Table 1 and Figures 5-7).
///
/// The definition lives in the observability crate (`tcc_obs`) so the
/// suite can consume it without a runtime dependency; this alias keeps
/// the historical name.
pub use tcc_obs::DynMetrics as DynStats;

/// What a compile reuses from the last one: the closure scan's path and
/// the `param` vspecs it found, and per back end the CGF walker's frames
/// and maps, VCODE's register and label tables, the ICODE compiler with
/// its IR buffer. Owned by the runtime so a steady-state compile
/// allocates only what it installs.
pub(crate) struct Backends {
    /// Filling this 12 KiB path afresh per scan cost a memo hit more
    /// than the rest of its scan.
    scan_path: Box<[Frame; MAX_PATH]>,
    params: Vec<(u64, VspecObj)>,
    /// VCODE's per-function storage (empty again after a compile that
    /// failed mid-function).
    vcode: VcodeBufs,
    vcode_walk: WalkScratch<Loc, Label>,
    /// The ICODE back end, built with the runtime and kept: its
    /// translator table, register pools and every phase's working
    /// storage outlive the compile. Configured through
    /// [`TccRuntime::set_icode_schedule`] and [`TccRuntime::set_table`].
    icode: IcodeCompiler,
    /// The IR buffer the CGF walk records into, emptied per compile.
    icode_buf: IcodeBuf,
    icode_walk: WalkScratch<VReg, LblId>,
}

/// Walks `closure`'s plan into `sink`, its `params` bound first.
fn walk<S: CodeSink>(
    input: DynInput<'_>,
    mem: &Memory,
    sink: &mut S,
    scratch: &mut WalkScratch<S::Val, S::Lbl>,
    params: &[(u64, VspecObj)],
    ret_kind: Option<ValKind>,
    closure: u64,
) -> Result<WalkStats, VmError> {
    #[cfg(test)]
    crate::oracle::check(input, mem, ret_kind, closure);
    let mut dc = DynCompiler::new(input, mem, sink, scratch, ret_kind);
    dc.compile_entry(closure, params)?;
    Ok(dc.stats)
}

/// The runtime: implements [`HostCall`] for a loaded `C program.
pub struct TccRuntime {
    /// The analyzed program (tick table for CGFs).
    pub prog: Arc<Program>,
    /// Static function addresses (by function index).
    pub func_addrs: Vec<u64>,
    /// Global addresses (by global index).
    pub global_addrs: Vec<u64>,
    /// Selected dynamic back end.
    pub backend: Backend,
    /// Allocate spec-time objects from the arena (`false` = the §4.2
    /// ablation: the general heap, which nothing ever frees).
    pub use_arena: bool,
    /// Statistics.
    pub stats: DynStats,
    /// Captured program output.
    pub out: Vec<u8>,
    /// Evaluate cspec operands first (§5.1 heuristic; ablation knob).
    pub cspec_first: bool,
    /// Dynamic loop unrolling (§4.4; ablation knob).
    pub enable_unroll: bool,
    /// Translator entries used across ICODE compiles — itself the
    /// pruned table to hand [`TccRuntime::set_table`] (the §5.2
    /// "link-time" analysis, observed at run time here).
    pub observed_keys: TranslatorTable,
    /// The session memo: every function this session has installed,
    /// keyed by closure fingerprint, and through it the pool (shared,
    /// or this session's own pool of one) a miss asks. `None`
    /// (`Config::cache` off in a private session) = no fingerprint is
    /// taken, every `compile` compiles; that is also what
    /// [`TccRuntime::new`] starts with.
    pub cache: Option<CodeCache>,
    /// Per-tick CGF plans (tick id → the body, lowered), each built the
    /// first time this session scans a closure of the tick.
    plans: Box<[OnceCell<TickPlan>]>,
    /// Where the linker put each tick's string literals (what a plan
    /// bakes in for one).
    tick_strs: Vec<Vec<u64>>,
    backends: Backends,
    /// Spec-time memory: closures, vspecs, labels and argument lists.
    /// The session releases it to a mark after each top-level call the
    /// escape rule does not pin.
    pub(crate) arena: VmArena,
    vspec_seq: u64,
    dyn_seq: u64,
}

impl TccRuntime {
    /// Creates a runtime for a program and its linked image.
    pub fn new(prog: Arc<Program>, image: &SessionImage, backend: Backend) -> TccRuntime {
        let strategy = match backend {
            Backend::Icode { strategy } => strategy,
            Backend::Vcode { .. } => Strategy::default(),
        };
        TccRuntime {
            plans: prog.ticks.iter().map(|_| OnceCell::new()).collect(),
            tick_strs: image.tick_strs.clone(),
            prog,
            func_addrs: image.func_addrs.clone(),
            global_addrs: image.global_addrs.clone(),
            backend,
            use_arena: true,
            stats: DynStats::default(),
            out: Vec::new(),
            cspec_first: true,
            enable_unroll: true,
            observed_keys: TranslatorTable::empty(),
            cache: None,
            backends: Backends {
                scan_path: Box::new([Frame::default(); MAX_PATH]),
                params: Vec::new(),
                vcode: VcodeBufs::default(),
                vcode_walk: WalkScratch::default(),
                icode: IcodeCompiler::new(strategy),
                icode_buf: IcodeBuf::new(),
                icode_walk: WalkScratch::default(),
            },
            arena: VmArena::default(),
            vspec_seq: 0,
            dyn_seq: 0,
        }
    }

    /// Turns the ICODE fusion-aware scheduler on or off (ablation knob
    /// for measuring the superinstruction fused-pair gain; on by
    /// default).
    pub fn set_icode_schedule(&mut self, on: bool) {
        self.backends.icode.schedule_fusion = on;
    }

    /// Installs a pruned translator table for the ICODE back end
    /// (ablation; compiles are then never memoized), or restores the
    /// full one. A compile that needs an entry the table lacks fails
    /// with `VmError::Host` before a word is emitted.
    pub fn set_table(&mut self, table: Option<TranslatorTable>) {
        self.backends.icode.table = table.unwrap_or_else(TranslatorTable::full);
    }

    /// The IR of the most recent ICODE compile, as the cleanup passes
    /// left it (empty before the first). Tests replay it through other
    /// compilers.
    pub fn last_icode(&self) -> &IcodeBuf {
        &self.backends.icode_buf
    }

    /// The walker's view of this runtime, beside the parts a compile
    /// mutates.
    pub(crate) fn walk_parts(&mut self) -> (DynInput<'_>, &Backend, &mut Backends) {
        let input = DynInput {
            prog: &self.prog,
            func_addrs: &self.func_addrs,
            global_addrs: &self.global_addrs,
            tick_strs: &self.tick_strs,
            plans: &self.plans,
            cspec_first: self.cspec_first,
            enable_unroll: self.enable_unroll,
        };
        (input, &self.backend, &mut self.backends)
    }

    /// The captured output as UTF-8 (lossy).
    pub fn output(&self) -> String {
        String::from_utf8_lossy(&self.out).into_owned()
    }

    /// The start of a memo key: back end and options, to which the
    /// closure scan appends the tree. `None` when there is no memo to
    /// key, or a pruned translator table (ablation only) changes codegen
    /// behind the fingerprint's back.
    fn key_prefix(&self, ret_kind: Option<ValKind>) -> Option<FingerprintBuilder> {
        if self.cache.is_none() || self.backends.icode.table.entries() < FULL_ENTRIES {
            return None;
        }
        let mut b = FingerprintBuilder::new();
        match &self.backend {
            Backend::Vcode { unchecked } => {
                b.push_tag(0);
                b.push_tag(*unchecked as u8);
            }
            Backend::Icode { strategy } => {
                b.push_tag(1);
                b.push_tag(matches!(strategy, Strategy::GraphColor) as u8);
            }
        }
        b.push_tag(self.cspec_first as u8);
        b.push_tag(self.enable_unroll as u8);
        b.push_tag(ret_kind.map_or(255, ValKind::code));
        Some(b)
    }

    /// Runs the CGF walk and the selected back end on `closure`, with
    /// the `param` vspecs the closure scan found, and folds what it did
    /// into the session's [`DynStats`]. Returns the new function's
    /// address and handle.
    fn run_compile(
        &mut self,
        mem: &Memory,
        code: &mut CodeSpace,
        name: &str,
        closure: u64,
        ret_kind: Option<ValKind>,
    ) -> Result<(u64, tcc_vm::FuncHandle), VmError> {
        let t0 = Instant::now();
        let (input, backend, b) = self.walk_parts();
        let (walk, walk_ns, func, icode) = match backend {
            Backend::Vcode { unchecked } => {
                let mut vc = Vcode::with_bufs(code, name, std::mem::take(&mut b.vcode));
                vc.set_unchecked(*unchecked);
                let (sc, params) = (&mut b.vcode_walk, &b.params);
                let walked =
                    walk(input, mem, &mut vc, sc, params, ret_kind, closure).and_then(|walk| {
                        if vc.exhausted() {
                            let err = "register pool exhausted in unchecked mode";
                            return Err(VmError::Host(err.into()));
                        }
                        Ok(walk)
                    });
                let walk = match walked {
                    Ok(walk) => walk,
                    Err(err) => {
                        // The walk emitted as it went: roll its function
                        // back, so a failed compile leaves neither words
                        // nor a registry slot behind.
                        let (rolled_back, bufs) = vc.abort_with_bufs();
                        b.vcode = bufs;
                        rolled_back?;
                        return Err(err);
                    }
                };
                let (f, bufs) = vc.finish_with_bufs();
                b.vcode = bufs;
                let f = f?;
                // One pass: the walk is the emission, so this is the
                // whole back end, frame patch-up and seal included.
                (walk, t0.elapsed().as_nanos() as u64, f, None)
            }
            Backend::Icode { strategy } => {
                // The session's compiler and IR buffer, emptied and
                // refilled: nothing is built per compile (the strategy is
                // a copy, so it simply follows the public `backend`
                // field).
                b.icode.strategy = *strategy;
                b.icode_buf.clear();
                let buf = &mut b.icode_buf;
                let (sc, params) = (&mut b.icode_walk, &b.params);
                let walk = walk(input, mem, buf, sc, params, ret_kind, closure)?;
                let walk_ns = t0.elapsed().as_nanos() as u64;
                let ir_insns = buf.emitted();
                let r = b.icode.compile(code, name, buf)?;
                (walk, walk_ns, r.func, Some((ir_insns, r)))
            }
        };
        if let Some((ir_insns, r)) = icode {
            self.stats.ir_insns += ir_insns;
            self.stats.phases.accumulate(&r.phases);
            self.stats.spills += r.spills as u64;
            self.observed_keys.union_with(&r.keys);
        }
        self.stats.closures += walk.closures;
        self.stats.unrolled_iters += walk.unrolled_iters;
        self.stats.rtc_evals += walk.rtc_evals;
        self.stats.steps += walk.steps;
        self.stats.walk_ns += walk_ns;
        self.stats.compiles += 1;
        self.stats.generated_insns += func.insns;
        Ok((func.addr, func.handle))
    }

    /// The `compile` intercept (§4.4): the one place a closure becomes
    /// code, and one chain from the closure to the code space —
    ///
    /// ```text
    /// scan → memo ─miss→ pool ─hit→ install ──────────────────→ memo insert
    ///          │          └─miss (or not installable)→ compile → publish ─┘
    ///          └─hit→ return the address
    /// ```
    ///
    /// with one pass over the closure tree (its depth, its parameters and
    /// its fingerprint), one `install_function` call, one memo insert and
    /// one publish. A private session's pool is a pool of one.
    fn compile(&mut self, st: &mut MachineState) -> Result<(), VmError> {
        let closure = st.arg(0);
        let ret_kind = match st.arg(1) as u8 {
            255 => None,
            c => Some(
                ValKind::from_code(c)
                    .ok_or_else(|| VmError::Host(format!("bad return kind code {c}")))?,
            ),
        };
        let t0 = Instant::now();
        let since_t0 = || t0.elapsed().as_nanos() as u64;
        // Every intercept takes a sequence number, but only a compile
        // that publishes spends a `format!` on it: hits answer with the
        // name the artifact was compiled (or stored) under.
        self.dyn_seq += 1;
        let MachineState { code, mem, .. } = st;
        // One scan of the closure tree: its composition depth (checked
        // before any code is emitted), its `param` vspecs and its
        // fingerprint. Then the memo: if this exact closure is already
        // in this session's code space, hand back its address (the memo
        // counts the hit in the pool and sets the resident's CLOCK bit).
        let key = self.key_prefix(ret_kind);
        let (input, _, b) = self.walk_parts();
        let fp = scan_closure(mem, input, &mut b.scan_path, closure, key, &mut b.params)?;
        match (&mut self.cache, &fp) {
            (Some(cache), Some(fp)) => {
                if let Some(addr) = cache.lookup(fp) {
                    cache.note_hit_ns(since_t0());
                    st.set_ret(addr);
                    return Ok(());
                }
            }
            (Some(cache), None) => cache.note_uncacheable(),
            (None, _) => {}
        }

        // The pool, and the one install site: words from disk or from
        // another session become executable here and nowhere else. An
        // artifact this code space cannot take (undecodable word,
        // cross-function branch, rebased jump out of range) is
        // invalidated, so the next request misses — with the claim that
        // makes other sessions wait for the compile below. One that
        // would cross this space's code budget is sound: the refusal is
        // this session's, and a compile would meet it too.
        let mut fetched = None;
        let mut claim = None;
        if let (Some(cache), Some(fp)) = (&self.cache, &fp) {
            claim = loop {
                let t = Instant::now();
                let artifact = match cache.pool().get_or_begin(fp) {
                    Acquire::Hit { artifact, .. } => artifact,
                    Acquire::Miss(claim) => break Some(claim),
                };
                let load_ns = t.elapsed().as_nanos() as u64;
                match code.install_function(&artifact.name, &artifact.words, artifact.orig_start) {
                    Ok((addr, handle)) => {
                        fetched = Some((addr, handle, artifact.compile_ns, Some(load_ns)));
                        break None;
                    }
                    Err(full @ VmError::CodeBudget(_)) => return Err(full),
                    Err(_) => {
                        cache.pool().invalidate(fp);
                    }
                }
            };
        }

        // Nothing to install: compile, and publish for the next
        // process and for every session waiting on the claim.
        let (addr, handle, compile_ns, fetched_in) = match fetched {
            Some(installed) => installed,
            None => {
                // The name is what an artifact is published under; an
                // uncacheable compile goes unnamed (a listing shows its
                // address).
                let name = match &fp {
                    Some(_) => format!("dyn{}", self.dyn_seq),
                    None => String::new(),
                };
                let (addr, handle) = self.run_compile(mem, code, &name, closure, ret_kind)?;
                let compile_ns = since_t0();
                self.stats.total_ns += compile_ns;
                if let Some(claim) = claim {
                    let (orig_start, words) = code.function_words(handle)?;
                    claim.publish(Artifact {
                        name,
                        orig_start,
                        bytes: (words.len() * 4) as u64,
                        translation: None,
                        words,
                        compile_ns,
                    });
                }
                (addr, handle, compile_ns, None)
            }
        };

        // The memo records what is now installed, however it got
        // there. A fetched function answered without a compile: the
        // whole intercept (fingerprint, load, install) is the hit's cost.
        if let (Some(cache), Some(fp)) = (&mut self.cache, fp) {
            cache.insert(code, fp, addr, handle, compile_ns, fetched_in)?;
            if fetched_in.is_some() {
                cache.note_hit_ns(since_t0());
            }
        }
        st.set_ret(addr);
        Ok(())
    }

    fn emit_out(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Allocates a spec-time object: from the arena, or from the general
    /// heap under the `use_arena = false` ablation.
    fn spec_alloc(&mut self, mem: &mut Memory, size: u64) -> Result<u64, VmError> {
        if self.use_arena {
            self.arena.alloc(mem, size)
        } else {
            mem.alloc(size, 8)
        }
    }

    fn printf(&mut self, st: &mut MachineState) -> Result<(), VmError> {
        let fmt = st.mem.read_cstr(st.arg(0))?;
        let mut int_arg = 1usize;
        let mut f_arg = 0usize;
        let mut out = String::new();
        let mut chars = fmt.chars().peekable();
        while let Some(c) = chars.next() {
            if c != '%' {
                out.push(c);
                continue;
            }
            // parse (and ignore) simple width specs like %4d
            let mut spec = String::new();
            while let Some(&d) = chars.peek() {
                if d.is_ascii_digit() {
                    spec.push(d);
                    chars.next();
                } else {
                    break;
                }
            }
            match chars.next() {
                Some('d') => {
                    out.push_str(&format!("{}", st.arg(int_arg) as i64 as i32));
                    int_arg += 1;
                }
                Some('l') => {
                    if chars.peek() == Some(&'d') {
                        chars.next();
                    }
                    out.push_str(&format!("{}", st.arg(int_arg) as i64));
                    int_arg += 1;
                }
                Some('u') => {
                    out.push_str(&format!("{}", st.arg(int_arg) as u32));
                    int_arg += 1;
                }
                Some('x') => {
                    out.push_str(&format!("{:x}", st.arg(int_arg) as u32));
                    int_arg += 1;
                }
                Some('c') => {
                    out.push(st.arg(int_arg) as u8 as char);
                    int_arg += 1;
                }
                Some('s') => {
                    let s = st.mem.read_cstr(st.arg(int_arg))?;
                    out.push_str(&s);
                    int_arg += 1;
                }
                Some('f') | Some('g') => {
                    out.push_str(&format!("{}", st.farg(f_arg)));
                    f_arg += 1;
                }
                Some('%') => out.push('%'),
                other => return Err(VmError::Host(format!("bad printf conversion {other:?}"))),
            }
        }
        self.emit_out(out.as_bytes());
        Ok(())
    }
}

impl HostCall for TccRuntime {
    fn call(&mut self, num: u32, st: &mut MachineState) -> Result<(), VmError> {
        match num {
            hcalls::HC_EXIT => Err(VmError::Host(format!("exit({})", st.arg(0) as i64))),
            hcalls::HC_PUTINT => {
                let s = format!("{}\n", st.arg(0) as i64 as i32);
                self.emit_out(s.as_bytes());
                Ok(())
            }
            hcalls::HC_PUTS => {
                let s = st.mem.read_cstr(st.arg(0))?;
                self.emit_out(s.as_bytes());
                self.emit_out(b"\n");
                Ok(())
            }
            hcalls::HC_PUTF => {
                let s = format!("{}\n", st.farg(0));
                self.emit_out(s.as_bytes());
                Ok(())
            }
            hcalls::HC_PUTCHAR => {
                self.emit_out(&[st.arg(0) as u8]);
                Ok(())
            }
            hcalls::HC_PRINTF => self.printf(st),
            hcalls::HC_MALLOC => {
                let size = st.arg(0).max(1);
                let a = st.mem.alloc(size, 8)?;
                st.set_ret(a);
                Ok(())
            }
            hcalls::HC_ALLOC_CLOSURE => {
                let size = st.arg(0);
                let a = self.spec_alloc(&mut st.mem, size)?;
                st.set_ret(a);
                Ok(())
            }
            hcalls::HC_COMPILE => self.compile(st),
            hcalls::HC_LOCAL => {
                let kind = ValKind::from_code(st.arg(0) as u8)
                    .ok_or_else(|| VmError::Host("bad vspec kind".into()))?;
                let addr = self.spec_alloc(&mut st.mem, VspecObj::SIZE)?;
                self.vspec_seq += 1;
                VspecObj {
                    tag: VspecTag::Local,
                    kind,
                    index: self.vspec_seq,
                }
                .write(&mut st.mem, addr)?;
                st.set_ret(addr);
                Ok(())
            }
            hcalls::HC_PARAM => {
                let kind = ValKind::from_code(st.arg(0) as u8)
                    .ok_or_else(|| VmError::Host("bad vspec kind".into()))?;
                let index = st.arg(1);
                let addr = self.spec_alloc(&mut st.mem, VspecObj::SIZE)?;
                VspecObj {
                    tag: VspecTag::Param,
                    kind,
                    index,
                }
                .write(&mut st.mem, addr)?;
                st.set_ret(addr);
                Ok(())
            }
            hcalls::HC_LABEL_OBJ => {
                let addr = self.spec_alloc(&mut st.mem, 16)?;
                st.mem.store_u64(addr, LABEL_MARKER)?;
                self.vspec_seq += 1;
                st.mem.store_u64(addr + 8, self.vspec_seq)?;
                st.set_ret(addr);
                Ok(())
            }
            hcalls::HC_ARGLIST_NEW => {
                let addr = self.spec_alloc(&mut st.mem, 16 + 8 * ARGLIST_MAX)?;
                st.mem.store_u64(addr, ARGLIST_MARKER)?;
                st.mem.store_u64(addr + 8, 0)?;
                st.set_ret(addr);
                Ok(())
            }
            hcalls::HC_ARGLIST_PUSH => {
                let list = st.arg(0);
                let cspec = st.arg(1);
                if st.mem.load_u64(list)? != ARGLIST_MARKER {
                    return Err(VmError::Host("push() on a non-argument-list".into()));
                }
                let n = st.mem.load_u64(list + 8)?;
                if n >= ARGLIST_MAX {
                    return Err(VmError::Host(format!(
                        "argument list full ({ARGLIST_MAX} max)"
                    )));
                }
                st.mem.store_u64(list + 16 + 8 * n, cspec)?;
                st.mem.store_u64(list + 8, n + 1)?;
                Ok(())
            }
            hcalls::HC_ABORT => Err(VmError::Host("abort() called".into())),
            n => Err(VmError::BadHostCall(n)),
        }
    }
}
