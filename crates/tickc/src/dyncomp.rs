//! The dynamic compiler: code-generating-function execution.
//!
//! At dynamic compile time, tcc "invokes the code-generating function for
//! the cspec on the cspec's closure, and the CGF performs most of the
//! actual code generation" (§4.4). Here a tick expression's CGF is its
//! *plan* (module `plan`): the typed AST lowered once per session, the
//! first time a compile meets the tick, into a node arena that holds every
//! fact the tick alone determines. The machinery below is one generic
//! walker over plans, parameterized by a [`CodeSink`] — VCODE (immediate
//! one-pass emission) or ICODE (IR recording). Per node it decides the
//! one thing only an instantiation knows — is this value a run-time
//! constant *now* — and makes the emit call; it sees no `Type`, no
//! `Expr` and no name.
//!
//! The walker implements the paper's **automatic dynamic partial
//! evaluation**:
//!
//! * *Run-time constant folding* — any subexpression composed of `$`-bound
//!   values and derived run-time constants is evaluated at instantiation
//!   time and emitted as an immediate.
//! * *Strength reduction* — a run-time-constant operand of `*`, `/`, `%`
//!   selects a cheaper instruction sequence at instantiation time (the
//!   `bin_imm` emission macros).
//! * *Dynamic loop unrolling* — a `for` loop bounded by run-time constants
//!   whose induction variable is not otherwise assigned executes at
//!   instantiation time; its induction variable becomes a *derived*
//!   run-time constant inside the body (propagating down loop nests).
//! * *Dead code elimination* — `if`/`switch` over run-time constants emit
//!   only the reachable arm.
//!
//! Composition (paper §4.4) is CGF invocation: a reference to a nested
//! cspec recursively walks that cspec's closure, splicing its code
//! inline; its result value is a temporary whose register the nested walk
//! allocated (the §5.1 convention).

use crate::addr_map::AddrMap;
use crate::plan::{
    self, Access, AssignHow, BinEmit, Callee, Cap, Co, Fold, ForPlan, NodeId, Op, PStmt, Span,
    Step, StmtId, SwItem, TickPlan, UnrollPlan, ZeroSide, HAS_CSPEC, NS_IN, NS_OUT,
};
use std::sync::OnceLock;
use tcc_front::ast::{BinaryOp, UnaryOp};
use tcc_front::Program;
use tcc_rt::{ClosureRef, ValKind, VspecObj, VspecTag, ARGLIST_MARKER, LABEL_MARKER};
use tcc_vcode::ops::{BinOp, LoadKind, UnOp};
use tcc_vcode::CodeSink;
use tcc_vm::{Memory, VmError};

/// Trip count above which a statically-bounded loop is kept as a loop
/// instead of unrolled (code-bloat guard).
pub(crate) const UNROLL_TRIP_LIMIT: u64 = 1024;
/// Hard limit on unrolled iterations (backstop; pre-simulation should
/// keep unrolling far below this).
pub(crate) const UNROLL_LIMIT: u64 = 1 << 20;

/// Limit on closure-composition nesting depth. Composition is compiled
/// by recursive walk (one CGF invoking another, as in tcc), so the limit
/// also bounds host stack use; 300 is far beyond any published use of
/// composition while staying comfortably within a 2 MiB test stack.
/// The runtime checks it iteratively before any recursive walk starts
/// (`fingerprint::scan_closure`).
pub(crate) const COMPOSE_DEPTH_LIMIT: u32 = 300;

/// Static-program facts the dynamic compiler needs.
#[derive(Clone, Copy)]
pub(crate) struct DynInput<'p> {
    /// The analyzed program (tick table).
    pub prog: &'p Program,
    /// Compiled static function addresses (direct calls from dynamic
    /// code).
    pub func_addrs: &'p [u64],
    /// Global addresses (by index).
    pub global_addrs: &'p [u64],
    /// Where the linker put each tick's string literals.
    pub tick_strs: &'p [Vec<u64>],
    /// The session's plans, by tick id; a slot is filled the first time
    /// a closure of the tick is scanned or walked.
    pub plans: &'p [OnceLock<TickPlan>],
    /// Evaluate cspec operands before non-cspec operands (§5.1 register
    /// pressure heuristic; the runtime's ablation knob).
    pub cspec_first: bool,
    /// Dynamic loop unrolling (§4.4; the runtime's ablation knob).
    pub enable_unroll: bool,
}

impl<'p> DynInput<'p> {
    /// The plan of tick `id`, lowered on first use.
    ///
    /// # Errors
    ///
    /// `"bad cgf id ..."` for an id outside the tick table.
    pub(crate) fn plan(&self, id: u64) -> Result<&'p TickPlan, VmError> {
        let slot =
            (self.plans.get(id as usize)).ok_or_else(|| host_err(format!("bad cgf id {id}")))?;
        let (prog, strs) = (self.prog, &self.tick_strs[id as usize]);
        Ok(slot.get_or_init(|| plan::lower(prog, id as usize, strs)))
    }
}

/// A codegen-time constant (run-time constant in paper terms).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cv {
    /// Integer (canonical i64; W values sign-extended).
    I(i64),
    /// Double.
    F(f64),
}

impl Cv {
    pub(crate) fn as_i(self) -> i64 {
        match self {
            Cv::I(v) => v,
            Cv::F(v) => v as i64,
        }
    }

    pub(crate) fn as_f(self) -> f64 {
        match self {
            Cv::I(v) => v as f64,
            Cv::F(v) => v,
        }
    }

    pub(crate) fn truthy(self) -> bool {
        match self {
            Cv::I(v) => v != 0,
            Cv::F(v) => v != 0.0,
        }
    }
}

/// A value produced by expression emission, with temp ownership (owned
/// values are released back to the register pool after consumption —
/// the `putreg` half of the VCODE discipline).
pub(crate) struct V<S: CodeSink> {
    pub(crate) val: S::Val,
    pub(crate) owned: bool,
}

impl<S: CodeSink> V<S> {
    pub(crate) fn owned(val: S::Val) -> Self {
        V { val, owned: true }
    }

    pub(crate) fn borrowed(val: S::Val) -> Self {
        V { val, owned: false }
    }
}

impl<S: CodeSink> Clone for V<S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: CodeSink> Copy for V<S> {}

/// Statistics from one dynamic compilation walk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Closures read (composition events).
    pub closures: u64,
    /// Nodes visited by static (run-time constant) evaluation.
    pub rtc_evals: u64,
    /// Loop iterations unrolled at compile time.
    pub unrolled_iters: u64,
}

/// The walker's working storage, owned by the runtime and emptied per
/// compile (one per back end: the value and label types are the
/// sink's). Closure frames are slices of four stacks — a frame is
/// pushed when a closure's plan starts and popped when it ends, so
/// composition depth costs capacity once, not an allocation per
/// closure.
#[derive(Debug)]
pub struct WalkScratch<V, L> {
    /// Closure fields of the open frames.
    fields: Vec<u64>,
    /// Derived run-time constants (static dyn locals), per local slot.
    rtc: Vec<Option<Cv>>,
    /// Materialized (dynamic) locals, per local slot.
    vals: Vec<Option<V>>,
    /// `goto` labels, per label slot.
    labels: Vec<Option<L>>,
    /// vspec object address → bound location.
    vspecs: AddrMap<V>,
    /// Dynamic label object address → sink label (+ whether bound).
    dyn_labels: AddrMap<(L, bool)>,
    break_stack: Vec<L>,
    continue_stack: Vec<L>,
    /// Arguments of the calls being assembled (innermost last), and
    /// whether each is an owned temporary.
    args: Vec<(ValKind, V)>,
    arg_owned: Vec<bool>,
    /// Case labels of the dynamic switches being emitted.
    case_labels: Vec<L>,
}

impl<V, L> Default for WalkScratch<V, L> {
    fn default() -> Self {
        WalkScratch {
            fields: Vec::new(),
            rtc: Vec::new(),
            vals: Vec::new(),
            labels: Vec::new(),
            vspecs: AddrMap::default(),
            dyn_labels: AddrMap::default(),
            break_stack: Vec::new(),
            continue_stack: Vec::new(),
            args: Vec::new(),
            arg_owned: Vec::new(),
            case_labels: Vec::new(),
        }
    }
}

impl<V, L> WalkScratch<V, L> {
    fn clear(&mut self) {
        self.fields.clear();
        self.rtc.clear();
        self.vals.clear();
        self.labels.clear();
        self.vspecs.clear();
        self.dyn_labels.clear();
        self.break_stack.clear();
        self.continue_stack.clear();
        self.args.clear();
        self.arg_owned.clear();
        self.case_labels.clear();
    }
}

/// One closure being walked: its plan and where its slots start in the
/// scratch stacks.
#[derive(Clone, Copy)]
struct Frame<'p> {
    plan: &'p TickPlan,
    fields: usize,
    locals: usize,
    labels: usize,
}

/// A place in dynamic code: a register-like value or memory.
enum DynPlace<S: CodeSink> {
    Val(S::Val, Access),
    Mem { addr: V<S>, off: i64, acc: Access },
}

/// The CGF walker: interprets tick plans against a [`CodeSink`]. Create
/// one per `compile` invocation.
pub(crate) struct DynCompiler<'a, 'p, S: CodeSink> {
    input: DynInput<'p>,
    mem: &'a Memory,
    sink: &'a mut S,
    sc: &'a mut WalkScratch<S::Val, S::Lbl>,
    /// Return kind expected by `compile(c, T)` (None = void).
    ret_kind: Option<ValKind>,
    depth: u32,
    /// Walk statistics.
    pub(crate) stats: WalkStats,
}

fn host_err(msg: impl Into<String>) -> VmError {
    VmError::Host(msg.into())
}

impl<'a, 'p, S: CodeSink> DynCompiler<'a, 'p, S> {
    /// Creates a walker over emptied scratch. `ret_kind` is the declared
    /// return kind of the function being compiled (`None` for void).
    pub(crate) fn new(
        input: DynInput<'p>,
        mem: &'a Memory,
        sink: &'a mut S,
        sc: &'a mut WalkScratch<S::Val, S::Lbl>,
        ret_kind: Option<ValKind>,
    ) -> Self {
        sc.clear();
        DynCompiler {
            input,
            mem,
            sink,
            sc,
            ret_kind,
            depth: 0,
            stats: WalkStats::default(),
        }
    }

    /// Compiles the closure at `closure_addr` as a complete function
    /// body (prologue/epilogue are the sink's business).
    ///
    /// # Errors
    ///
    /// Fails on malformed closures or unrepresentable dynamic code.
    pub(crate) fn compile_entry(&mut self, closure_addr: u64) -> Result<(), VmError> {
        self.prebind_params(closure_addr, 0)?;
        let ret = self.compile_closure(closure_addr)?;
        let unbound = (self.sc.dyn_labels.iter()).filter(|(_, (_, bound))| !bound);
        if let Some(addr) = unbound.map(|(addr, _)| *addr).min() {
            return Err(host_err(format!(
                "dynamic label object at {addr:#x} is jumped to but never spliced"
            )));
        }
        match (ret, self.ret_kind) {
            (Some(v), Some(k)) => self.sink.ret_val(k, v.val),
            // A statement cspec whose returns (if any) were emitted
            // inline falls through returning void-ish garbage, matching
            // C's behaviour for missing returns.
            _ => self.sink.ret_void(),
        }
        Ok(())
    }

    /// Binds every `param` vspec reachable through the closure tree
    /// before any code is emitted (argument registers must be captured
    /// at entry, before calls clobber them).
    fn prebind_params(&mut self, closure_addr: u64, depth: u32) -> Result<(), VmError> {
        if depth > COMPOSE_DEPTH_LIMIT {
            return Err(host_err("closure composition too deep"));
        }
        let c = ClosureRef { addr: closure_addr };
        let plan = self.input.plan(c.cgf_id(self.mem)?)?;
        for (i, cap) in plan.caps.iter().enumerate() {
            let field = c.field(self.mem, i)?;
            match cap {
                Cap::Vspec => {
                    let obj = VspecObj::read(self.mem, field)?;
                    if obj.tag == VspecTag::Param && !self.sc.vspecs.contains_key(&field) {
                        let v = self.sink.param(obj.index as usize, obj.kind);
                        self.sc.vspecs.insert(field, v);
                    }
                }
                Cap::Cspec => {
                    // Label objects are not closures; argument lists hold
                    // closures to recurse into.
                    match self.mem.load_u64(field)? {
                        LABEL_MARKER => {}
                        ARGLIST_MARKER => {
                            let n = self.mem.load_u64(field + 8)?;
                            for j in 0..n {
                                let c = self.mem.load_u64(field + 16 + 8 * j)?;
                                self.prebind_params(c, depth + 1)?;
                            }
                        }
                        _ => self.prebind_params(field, depth + 1)?,
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Compiles the body of the closure at `closure_addr`; returns its
    /// value (None for void cspecs).
    fn compile_closure(&mut self, closure_addr: u64) -> Result<Option<V<S>>, VmError> {
        self.depth += 1;
        if self.depth > COMPOSE_DEPTH_LIMIT {
            return Err(host_err("closure composition too deep"));
        }
        self.stats.closures += 1;
        let c = ClosureRef { addr: closure_addr };
        let id = c.cgf_id(self.mem)?;
        if id == ARGLIST_MARKER {
            return Err(host_err("argument lists can only be used with apply()"));
        }
        // A dynamic label object spliced as a statement binds a position.
        if id == LABEL_MARKER {
            let (l, bound) = self.dyn_label(closure_addr);
            if bound {
                return Err(host_err("dynamic label spliced twice"));
            }
            self.sink.bind(l);
            self.sc.dyn_labels.insert(closure_addr, (l, true));
            self.depth -= 1;
            return Ok(None);
        }
        let plan = self.input.plan(id)?;
        let f = Frame {
            plan,
            fields: self.sc.fields.len(),
            locals: self.sc.rtc.len(),
            labels: self.sc.labels.len(),
        };
        for i in 0..plan.caps.len() {
            self.sc.fields.push(c.field(self.mem, i)?);
        }
        self.sc.rtc.resize(f.locals + plan.locals.len(), None);
        self.sc.vals.resize(f.locals + plan.locals.len(), None);
        self.sc.labels.resize(f.labels + plan.labels as usize, None);
        let out = match plan.value {
            Some(e) => Some(self.expr(e, f)?),
            None => {
                self.block(plan.body, f)?;
                None
            }
        };
        self.sc.fields.truncate(f.fields);
        self.sc.rtc.truncate(f.locals);
        self.sc.vals.truncate(f.locals);
        self.sc.labels.truncate(f.labels);
        self.depth -= 1;
        Ok(out)
    }

    fn field(&self, f: Frame<'p>, cap: u32) -> u64 {
        self.sc.fields[f.fields + cap as usize]
    }

    // ---- run-time constant evaluation -------------------------------------

    /// Evaluates node `id` at dynamic compile time if it is a run-time
    /// constant: one flag test, then — only where the answer depends on
    /// this instantiation — one walk. `in_dollar` permits memory loads
    /// (the `$row[k]` case).
    fn eval_static(
        &mut self,
        id: NodeId,
        f: Frame<'p>,
        in_dollar: bool,
    ) -> Result<Option<Cv>, VmError> {
        let n = &f.plan.nodes[id as usize];
        if n.flags & (if in_dollar { NS_IN } else { NS_OUT }) != 0 {
            return Ok(None);
        }
        self.stats.rtc_evals += 1;
        Ok(match n.op {
            Op::Int(v) => Some(Cv::I(v)),
            Op::Float(v) => Some(Cv::F(v)),
            Op::Dollar(inner) => self.eval_static(inner, f, true)?,
            Op::Rtc(cap, float) => {
                let raw = self.field(f, cap);
                Some(if float {
                    Cv::F(f64::from_bits(raw))
                } else {
                    Cv::I(raw as i64)
                })
            }
            Op::Local(i, _) => self.sc.rtc[f.locals + i as usize],
            // (`$` only: the flags keep a global out of here otherwise.)
            Op::Global(g, acc) => {
                let addr = self.input.global_addrs[g as usize];
                Some(if acc.agg {
                    Cv::I(addr as i64)
                } else {
                    self.load_const(addr, acc.ld)?
                })
            }
            Op::Func(fi) => Some(Cv::I(self.input.func_addrs[fi as usize] as i64)),
            Op::Bin { a, b, fold, .. } => {
                let ca = self.eval_static(a, f, in_dollar)?;
                let cb = self.eval_static(b, f, in_dollar)?;
                let (Some(ca), Some(cb)) = (ca, cb) else {
                    return Ok(None);
                };
                eval_bin(fold, ca, cb)
            }
            Op::Un { op, a, .. } => {
                let Some(cv) = self.eval_static(a, f, in_dollar)? else {
                    return Ok(None);
                };
                Some(match (op, cv) {
                    (UnaryOp::Neg, Cv::I(v)) if n.k == ValKind::W => {
                        Cv::I((v as i32).wrapping_neg() as i64)
                    }
                    (UnaryOp::Neg, Cv::I(v)) => Cv::I(v.wrapping_neg()),
                    (UnaryOp::Neg, Cv::F(v)) => Cv::F(-v),
                    (UnaryOp::BitNot, cv) => Cv::I(!cv.as_i()),
                    (_, cv) => Cv::I(i64::from(!cv.truthy())),
                })
            }
            Op::Cast { a, to, .. } => {
                let Some(cv) = self.eval_static(a, f, in_dollar)? else {
                    return Ok(None);
                };
                Some(cast_const(cv, to))
            }
            Op::Cond { c, t, f: e, .. } => {
                let Some(cc) = self.eval_static(c, f, in_dollar)? else {
                    return Ok(None);
                };
                self.eval_static(if cc.truthy() { t } else { e }, f, in_dollar)?
            }
            // (`$` only, as for globals.)
            Op::Index {
                base, idx, elem, ..
            } => {
                let ba = self.eval_static(base, f, true)?;
                let iv = self.eval_static(idx, f, true)?;
                let (Some(ba), Some(iv), Some((size, ld))) = (ba, iv, elem) else {
                    return Ok(None);
                };
                let addr = (ba.as_i() + iv.as_i() * size) as u64;
                Some(self.load_const(addr, ld)?)
            }
            _ => None,
        })
    }

    fn load_const(&self, addr: u64, ld: LoadKind) -> Result<Cv, VmError> {
        Ok(match ld {
            LoadKind::I8 => Cv::I(self.mem.load_u8(addr)? as i8 as i64),
            LoadKind::U8 => Cv::I(self.mem.load_u8(addr)? as i64),
            LoadKind::I16 => Cv::I(self.mem.load_u16(addr)? as i16 as i64),
            LoadKind::U16 => Cv::I(self.mem.load_u16(addr)? as i64),
            LoadKind::I32 => Cv::I(self.mem.load_u32(addr)? as i32 as i64),
            LoadKind::U32 => Cv::I(self.mem.load_u32(addr)? as i64),
            LoadKind::I64 => Cv::I(self.mem.load_u64(addr)? as i64),
            LoadKind::F64 => Cv::F(self.mem.load_f64(addr)?),
        })
    }

    /// Materializes a constant into a fresh temp of kind `k`.
    fn materialize(&mut self, cv: Cv, k: ValKind) -> V<S> {
        let t = self.sink.temp(k);
        match (k, cv) {
            (ValKind::F, cv) => self.sink.lif(t, cv.as_f()),
            (_, cv) => self.sink.li(t, cv.as_i()),
        }
        V::owned(t)
    }

    fn release(&mut self, v: V<S>) {
        if v.owned {
            self.sink.release(v.val);
        }
    }

    // ---- places ------------------------------------------------------------

    fn vspec_val(&mut self, addr: u64) -> Result<S::Val, VmError> {
        if let Some(v) = self.sc.vspecs.get(&addr) {
            return Ok(*v);
        }
        let obj = VspecObj::read(self.mem, addr)?;
        let v = match obj.tag {
            VspecTag::Local => self.sink.temp_saved(obj.kind),
            VspecTag::Param => self.sink.param(obj.index as usize, obj.kind),
        };
        self.sc.vspecs.insert(addr, v);
        Ok(v)
    }

    /// Gets (or creates) the sink label for a dynamic label object.
    fn dyn_label(&mut self, addr: u64) -> (S::Lbl, bool) {
        if let Some(&(l, bound)) = self.sc.dyn_labels.get(&addr) {
            return (l, bound);
        }
        let l = self.sink.label();
        self.sc.dyn_labels.insert(addr, (l, false));
        (l, false)
    }

    fn local_val(&mut self, f: Frame<'p>, i: u32) -> S::Val {
        let slot = f.locals + i as usize;
        if let Some(v) = self.sc.vals[slot] {
            return v;
        }
        let v = self.sink.temp_saved(f.plan.locals[i as usize]);
        self.sc.vals[slot] = Some(v);
        v
    }

    /// `addr` as an owned pointer temporary.
    fn address(&mut self, addr: u64) -> V<S> {
        let t = self.sink.temp(ValKind::P);
        self.sink.li(t, addr as i64);
        V::owned(t)
    }

    /// `base + idx * elem` as an owned pointer, releasing both operands.
    fn scaled_add(&mut self, mop: BinOp, base: V<S>, idx: V<S>, elem: i64) -> V<S> {
        let scaled = self.sink.temp(ValKind::D);
        self.sink
            .bin_imm(BinOp::Mul, ValKind::D, scaled, idx.val, elem);
        self.release(idx);
        let d = self.sink.temp(ValKind::P);
        self.sink.bin(mop, ValKind::P, d, base.val, scaled);
        self.sink.release(scaled);
        self.release(base);
        V::owned(d)
    }

    fn place(&mut self, id: NodeId, f: Frame<'p>) -> Result<DynPlace<S>, VmError> {
        let mem = |addr, off, acc| Ok(DynPlace::Mem { addr, off, acc });
        match f.plan.nodes[id as usize].op {
            Op::Local(i, acc) => {
                // Writing to a derived run-time constant demotes it to a
                // dynamic local (materialize its current value first).
                if let Some(cv) = self.sc.rtc[f.locals + i as usize].take() {
                    let k = f.plan.locals[i as usize];
                    let m = self.materialize(cv, k);
                    // Transfer into a persistent local home.
                    let home = self.sink.temp_saved(k);
                    self.sink.un(UnOp::Mov, k, home, m.val);
                    self.release(m);
                    self.sc.vals[f.locals + i as usize] = Some(home);
                }
                Ok(DynPlace::Val(self.local_val(f, i), acc))
            }
            Op::Vspec(cap, acc) => Ok(DynPlace::Val(self.vspec_val(self.field(f, cap))?, acc)),
            Op::FreeVar(cap, acc) => mem(self.address(self.field(f, cap)), 0, acc),
            Op::Global(g, acc) => mem(self.address(self.input.global_addrs[g as usize]), 0, acc),
            Op::Deref(a, acc) => mem(self.expr(a, f)?, 0, acc),
            Op::Index {
                base,
                idx,
                size,
                acc,
                co_idx,
                ..
            } => {
                let bv = self.expr(base, f)?;
                if let Some(civ) = self.eval_static(idx, f, false)? {
                    return mem(bv, civ.as_i() * size, acc);
                }
                let iv = self.expr(idx, f)?;
                let iv = self.coerce(iv, co_idx);
                mem(self.scaled_add(BinOp::Add, bv, iv, size), 0, acc)
            }
            Op::Member {
                base,
                arrow: true,
                off,
                acc,
            } => mem(self.expr(base, f)?, off, acc),
            Op::Member {
                base, off: o, acc, ..
            } => match self.place(base, f)? {
                DynPlace::Mem { addr, off, .. } => mem(addr, off + o, acc),
                DynPlace::Val(..) => Err(host_err("struct member of register value")),
            },
            Op::Fail(m) => Err(host_err(f.plan.msgs[m as usize].as_str())),
            _ => unreachable!("lowering puts only lvalues in place position"),
        }
    }

    fn load_dyn_place(&mut self, p: &DynPlace<S>) -> V<S> {
        match *p {
            DynPlace::Val(v, _) => V::borrowed(v),
            DynPlace::Mem { addr, off, acc } => {
                if acc.agg {
                    if off == 0 {
                        return V::borrowed(addr.val);
                    }
                    let t = self.sink.temp(ValKind::P);
                    self.sink.bin_imm(BinOp::Add, ValKind::P, t, addr.val, off);
                    return V::owned(t);
                }
                let t = self.sink.temp(acc.k);
                self.sink.load(acc.ld, t, addr.val, off);
                V::owned(t)
            }
        }
    }

    fn store_dyn_place(&mut self, p: &DynPlace<S>, v: S::Val) {
        match *p {
            DynPlace::Val(dst, acc) => {
                self.sink.un(UnOp::Mov, acc.k, dst, v);
                self.narrow(dst, acc.ld);
            }
            DynPlace::Mem { addr, off, acc } => self.sink.store(acc.st, v, addr.val, off),
        }
    }

    fn release_place(&mut self, p: DynPlace<S>) {
        if let DynPlace::Mem { addr, .. } = p {
            self.release(addr);
        }
    }

    /// The value of a place expression: its place, loaded, with the
    /// address temporary released (unless it *is* the value).
    fn load_place(&mut self, id: NodeId, f: Frame<'p>) -> Result<V<S>, VmError> {
        let p = self.place(id, f)?;
        let out = self.load_dyn_place(&p);
        if let DynPlace::Mem { addr, .. } = p {
            if addr.val != out.val {
                self.release(addr);
            }
        }
        Ok(out)
    }

    /// Re-canonicalizes the W in `v` as the sub-`int` type that loads as
    /// `ld`.
    fn narrow(&mut self, v: S::Val, ld: LoadKind) {
        let bits = match ld {
            LoadKind::U8 => return self.sink.bin_imm(BinOp::And, ValKind::W, v, v, 0xff),
            LoadKind::U16 => return self.sink.bin_imm(BinOp::And, ValKind::W, v, v, 0xffff),
            LoadKind::I8 => 24,
            LoadKind::I16 => 16,
            _ => return,
        };
        self.sink.bin_imm(BinOp::Shl, ValKind::W, v, v, bits);
        self.sink.bin_imm(BinOp::Shr, ValKind::W, v, v, bits);
    }

    fn coerce(&mut self, v: V<S>, co: Co) -> V<S> {
        let (dk, uop) = match co {
            Co::None => return v,
            Co::NotReg => panic!("conversion of a value that is not a register value"),
            Co::FtoW => (ValKind::W, UnOp::CvtFtoW),
            Co::FtoL(tk) => (tk, UnOp::CvtFtoL),
            Co::WtoF(false) => (ValKind::F, UnOp::CvtWtoF),
            Co::LtoF => (ValKind::F, UnOp::CvtLtoF),
            Co::WtoF(true) => {
                let d = self.sink.temp(ValKind::F);
                let z = self.sink.temp(ValKind::D);
                self.sink
                    .bin_imm(BinOp::And, ValKind::D, z, v.val, 0xffff_ffff);
                self.sink.un(UnOp::CvtLtoF, ValKind::F, d, z);
                self.sink.release(z);
                self.release(v);
                return V::owned(d);
            }
            Co::Zext(tk) => {
                let d = self.sink.temp(tk);
                self.sink
                    .bin_imm(BinOp::And, ValKind::D, d, v.val, 0xffff_ffff);
                self.release(v);
                return V::owned(d);
            }
            Co::MovNarrow(n) => {
                let d = self.sink.temp(ValKind::W);
                self.sink.un(UnOp::Mov, ValKind::W, d, v.val);
                self.narrow(d, n);
                self.release(v);
                return V::owned(d);
            }
        };
        let d = self.sink.temp(dk);
        self.sink.un(uop, dk, d, v.val);
        self.release(v);
        V::owned(d)
    }

    // ---- expressions -------------------------------------------------------

    fn expr(&mut self, id: NodeId, f: Frame<'p>) -> Result<V<S>, VmError> {
        // Run-time constant folding: a fully static expression becomes an
        // immediate.
        let n = &f.plan.nodes[id as usize];
        if let Some(cv) = self.eval_static(id, f, false)? {
            return Ok(self.materialize(cv, n.k));
        }
        match n.op {
            Op::Str(addr) => Ok(self.address(addr)),
            Op::Cspec(cap) => match self.compile_closure(self.field(f, cap))? {
                Some(v) => Ok(v),
                None => Err(host_err("void cspec used as a value")),
            },
            Op::Local(..)
            | Op::Vspec(..)
            | Op::FreeVar(..)
            | Op::Global(..)
            | Op::Index { .. }
            | Op::Member { .. }
            | Op::Deref(..) => self.load_place(id, f),
            Op::DerefFn(inner) => self.expr(inner, f),
            Op::AddrOf(inner) => match self.place(inner, f)? {
                DynPlace::Mem { addr, off: 0, .. } => Ok(addr),
                DynPlace::Mem { addr, off, .. } => {
                    let t = self.sink.temp(ValKind::P);
                    self.sink.bin_imm(BinOp::Add, ValKind::P, t, addr.val, off);
                    self.release(addr);
                    Ok(V::owned(t))
                }
                DynPlace::Val(..) => Err(host_err("cannot take the address of a register")),
            },
            Op::Un { op, a, co, ak } => {
                let v = self.expr(a, f)?;
                let v = self.coerce(v, co);
                let d = self.sink.temp(n.k);
                match op {
                    // !x == (x == 0)
                    UnaryOp::LogNot => self.sink.bin_imm(BinOp::Eq, ak, d, v.val, 0),
                    UnaryOp::Neg => self.sink.un(UnOp::Neg, n.k, d, v.val),
                    _ => self.sink.un(UnOp::Not, n.k, d, v.val),
                }
                self.release(v);
                Ok(V::owned(d))
            }
            Op::IncDec {
                a,
                post,
                k,
                delta,
                double,
            } => {
                let p = self.place(a, f)?;
                let old = self.load_dyn_place(&p);
                let keep = post.then(|| {
                    let c = self.sink.temp(k);
                    self.sink.un(UnOp::Mov, k, c, old.val);
                    c
                });
                let newv = self.sink.temp(k);
                if double {
                    let dv = self.sink.temp(ValKind::F);
                    self.sink.lif(dv, delta as f64);
                    self.sink.bin(BinOp::Add, ValKind::F, newv, old.val, dv);
                    self.sink.release(dv);
                } else {
                    self.sink.bin_imm(BinOp::Add, k, newv, old.val, delta);
                }
                self.release(old);
                self.store_dyn_place(&p, newv);
                let result = match keep {
                    Some(kept) => {
                        self.sink.release(newv);
                        kept
                    }
                    None => newv,
                };
                self.release_place(p);
                Ok(V::owned(result))
            }
            Op::Bin { a, b, emit, .. } => self.binary(id, a, b, emit, f),
            Op::Assign { lhs, rhs, how } => self.assign(lhs, rhs, how, f),
            Op::Call { callee, args, ret } => self.call(callee, args, ret, f),
            Op::Cast { a, co, .. } => {
                let v = self.expr(a, f)?;
                Ok(self.coerce(v, co))
            }
            Op::Cond {
                c,
                t,
                f: e,
                co_t,
                co_f,
            } => {
                // (static conditions were folded by eval_static above)
                let d = self.sink.temp_saved(n.k);
                let lf = self.sink.label();
                let lend = self.sink.label();
                self.cond_branch(c, None, Some(lf), f)?;
                let tv = self.expr(t, f)?;
                let tv = self.coerce(tv, co_t);
                self.sink.un(UnOp::Mov, n.k, d, tv.val);
                self.release(tv);
                self.sink.jmp(lend);
                self.sink.bind(lf);
                let fv = self.expr(e, f)?;
                let fv = self.coerce(fv, co_f);
                self.sink.un(UnOp::Mov, n.k, d, fv.val);
                self.release(fv);
                self.sink.bind(lend);
                Ok(V::owned(d))
            }
            Op::Comma(a, b) => {
                let v = self.expr(a, f)?;
                self.release(v);
                self.expr(b, f)
            }
            Op::Apply { list, callee } => self.apply(list, callee, f),
            Op::Dollar(_) => Err(host_err("$ operand was not a run-time constant")),
            Op::Fail(m) => Err(host_err(f.plan.msgs[m as usize].as_str())),
            Op::Int(_) | Op::Float(_) | Op::Rtc(..) | Op::Func(_) => {
                unreachable!("always a run-time constant")
            }
        }
    }

    fn binary(
        &mut self,
        id: NodeId,
        a: NodeId,
        b: NodeId,
        emit: BinEmit,
        f: Frame<'p>,
    ) -> Result<V<S>, VmError> {
        let (mop, sw, k, cmp, co_a, co_b) = match emit {
            BinEmit::Logic(_) => {
                let d = self.sink.temp_saved(ValKind::W);
                let ltrue = self.sink.label();
                let lfalse = self.sink.label();
                let lend = self.sink.label();
                self.cond_branch(id, Some(ltrue), Some(lfalse), f)?;
                self.sink.bind(ltrue);
                self.sink.li(d, 1);
                self.sink.jmp(lend);
                self.sink.bind(lfalse);
                self.sink.li(d, 0);
                self.sink.bind(lend);
                return Ok(V::owned(d));
            }
            BinEmit::PtrArith {
                swapped,
                elem,
                sub,
                co_i,
            } => {
                let (p, i) = if swapped { (b, a) } else { (a, b) };
                let pv = self.expr(p, f)?;
                if let Some(ci) = self.eval_static(i, f, false)? {
                    let d = self.sink.temp(ValKind::P);
                    let off = ci.as_i() * elem * if sub { -1 } else { 1 };
                    self.sink.bin_imm(BinOp::Add, ValKind::P, d, pv.val, off);
                    self.release(pv);
                    return Ok(V::owned(d));
                }
                let iv = self.expr(i, f)?;
                let iv = self.coerce(iv, co_i);
                let mop = if sub { BinOp::Sub } else { BinOp::Add };
                return Ok(self.scaled_add(mop, pv, iv, elem));
            }
            BinEmit::PtrDiff(elem) => {
                let av = self.expr(a, f)?;
                let bv = self.expr(b, f)?;
                let diff = self.sink.temp(ValKind::D);
                self.sink.bin(BinOp::Sub, ValKind::D, diff, av.val, bv.val);
                self.release(av);
                self.release(bv);
                let d = self.sink.temp(ValKind::D);
                self.sink.bin_imm(BinOp::Div, ValKind::D, d, diff, elem);
                self.sink.release(diff);
                return Ok(V::owned(d));
            }
            BinEmit::Arith {
                mop,
                sw,
                k,
                cmp,
                co_a,
                co_b,
                ..
            } => (mop, sw, k, cmp, co_a, co_b),
        };
        // Run-time-constant operands select strength-reduced immediates.
        let foldable = k != ValKind::F;
        let static_b = if foldable {
            self.eval_static(b, f, false)?
        } else {
            None
        };
        if let (Some(cb), false) = (static_b, cmp) {
            let va = self.expr(a, f)?;
            let va = self.coerce(va, co_a);
            let d = self.sink.temp(k);
            self.sink.bin_imm(mop, k, d, va.val, cb.as_i());
            self.release(va);
            return Ok(V::owned(d));
        }
        let static_a = if foldable {
            self.eval_static(a, f, false)?
        } else {
            None
        };
        if let (Some(ca), Some(sw), false) = (static_a, sw, cmp) {
            let vb = self.expr(b, f)?;
            let vb = self.coerce(vb, co_b);
            let d = self.sink.temp(k);
            self.sink.bin_imm(sw, k, d, vb.val, ca.as_i());
            self.release(vb);
            return Ok(V::owned(d));
        }
        // §5.1 heuristic: evaluate cspec operands before non-cspec
        // operands to shorten temp live ranges across composition.
        let has = |n: NodeId| f.plan.nodes[n as usize].flags & HAS_CSPEC != 0;
        let (va, vb) = if self.input.cspec_first && has(b) && !has(a) {
            let vb = self.expr(b, f)?;
            (self.expr(a, f)?, vb)
        } else {
            let va = self.expr(a, f)?;
            (va, self.expr(b, f)?)
        };
        let va = self.coerce(va, co_a);
        let vb = self.coerce(vb, co_b);
        let d = self.sink.temp(if cmp { ValKind::W } else { k });
        self.sink.bin(mop, k, d, va.val, vb.val);
        self.release(va);
        self.release(vb);
        Ok(V::owned(d))
    }

    fn assign(
        &mut self,
        lhs: NodeId,
        rhs: NodeId,
        how: AssignHow,
        f: Frame<'p>,
    ) -> Result<V<S>, VmError> {
        let p = self.place(lhs, f)?;
        let stored = match how {
            AssignHow::Plain(co) => {
                let v = self.expr(rhs, f)?;
                self.coerce(v, co)
            }
            AssignHow::Ptr { elem, sub, co_i } => {
                let cur = self.load_dyn_place(&p);
                let iv = self.expr(rhs, f)?;
                let iv = self.coerce(iv, co_i);
                let mop = if sub { BinOp::Sub } else { BinOp::Add };
                self.scaled_add(mop, cur, iv, elem)
            }
            AssignHow::Op {
                mop,
                k,
                co_cur,
                co_rhs,
                co_back,
            } => {
                let cur = self.load_dyn_place(&p);
                let cv = self.coerce(cur, co_cur);
                let d = self.sink.temp(k);
                let static_rhs = match k {
                    ValKind::F => None,
                    _ => self.eval_static(rhs, f, false)?,
                };
                if let Some(cb) = static_rhs {
                    self.sink.bin_imm(mop, k, d, cv.val, cb.as_i());
                } else {
                    let rv = self.expr(rhs, f)?;
                    let rv = self.coerce(rv, co_rhs);
                    self.sink.bin(mop, k, d, cv.val, rv.val);
                    self.release(rv);
                }
                self.release(cv);
                self.coerce(V::owned(d), co_back)
            }
        };
        self.store_dyn_place(&p, stored.val);
        // Result of the assignment: re-read from the place (narrowed).
        let result = self.load_dyn_place(&p);
        self.release(stored);
        self.release_place(p);
        Ok(result)
    }

    /// Emits a call on the arguments pushed since `base`, then releases
    /// them; returns the result temporary (a dummy for `void`).
    fn finish_call(
        &mut self,
        callee: Callee,
        base: usize,
        ret: Option<ValKind>,
        f: Frame<'p>,
    ) -> Result<V<S>, VmError> {
        let ret = ret.map(|k| (k, self.sink.temp_saved(k)));
        match callee {
            Callee::Builtin(num) => self.sink.hcall(num, &self.sc.args[base..], ret),
            // Dynamic code calls static functions *directly* — the
            // address is a run-time constant at instantiation time.
            Callee::Func(fi) => {
                let addr = self.input.func_addrs[fi as usize];
                self.sink.call_addr(addr, &self.sc.args[base..], ret);
            }
            Callee::Ind(c) => {
                let target = self.expr(c, f)?;
                // An argument-register-resident target would be clobbered by
                // the moves; targets are temps here, which is safe.
                self.sink.call_ind(target.val, &self.sc.args[base..], ret);
                self.release(target);
            }
        }
        for i in base..self.sc.args.len() {
            if self.sc.arg_owned[i] {
                self.sink.release(self.sc.args[i].1);
            }
        }
        self.sc.args.truncate(base);
        self.sc.arg_owned.truncate(base);
        Ok(V::owned(match ret {
            Some((_, d)) => d,
            // A void value; give callers a dummy.
            None => self.sink.temp(ValKind::W),
        }))
    }

    fn push_arg(&mut self, k: ValKind, v: V<S>) {
        self.sc.args.push((k, v.val));
        self.sc.arg_owned.push(v.owned);
    }

    fn call(
        &mut self,
        callee: Callee,
        args: Span,
        ret: Option<ValKind>,
        f: Frame<'p>,
    ) -> Result<V<S>, VmError> {
        let base = self.sc.args.len();
        for arg in &f.plan.args[args.range()] {
            let v = self.expr(arg.node, f)?;
            let v = self.coerce(v, arg.co);
            self.push_arg(arg.k, v);
        }
        self.finish_call(callee, base, ret, f)
    }

    /// `apply(f, args)` — dynamic call construction (§6.2 mshl/umshl):
    /// the argument count and the code computing each argument are
    /// determined at specification time.
    fn apply(&mut self, list: u32, callee: Callee, f: Frame<'p>) -> Result<V<S>, VmError> {
        let list = self.field(f, list);
        if self.mem.load_u64(list)? != ARGLIST_MARKER {
            return Err(host_err("apply() target is not an argument list"));
        }
        let n = self.mem.load_u64(list + 8)?;
        let base = self.sc.args.len();
        for j in 0..n {
            let closure = self.mem.load_u64(list + 16 + 8 * j)?;
            // The argument's kind comes from its cspec's evaluation type.
            let id = self.mem.load_u64(closure)?;
            let plan = (self.input.plan(id))
                .map_err(|_| host_err(format!("bad cgf id {id} in argument list")))?;
            let k = (plan.eval_kind).ok_or_else(|| host_err("void cspec in an argument list"))?;
            let v = (self.compile_closure(closure)?)
                .ok_or_else(|| host_err("argument cspec produced no value"))?;
            self.push_arg(k, v);
        }
        self.finish_call(callee, base, Some(ValKind::W), f)
    }

    /// Branches on a value: to `lt` when non-zero, `lf` when zero.
    fn branch_on(&mut self, v: S::Val, lt: Option<S::Lbl>, lf: Option<S::Lbl>) {
        match (lt, lf) {
            (Some(lt), None) => self.sink.br_true(v, lt),
            (None, Some(lf)) => self.sink.br_false(v, lf),
            (Some(lt), Some(lf)) => {
                self.sink.br_true(v, lt);
                self.sink.jmp(lf);
            }
            (None, None) => {}
        }
    }

    fn cond_branch(
        &mut self,
        id: NodeId,
        ltrue: Option<S::Lbl>,
        lfalse: Option<S::Lbl>,
        f: Frame<'p>,
    ) -> Result<(), VmError> {
        // Run-time constant condition: emit an unconditional edge (or
        // nothing) — dynamic dead code elimination.
        if let Some(cv) = self.eval_static(id, f, false)? {
            match (cv.truthy(), ltrue, lfalse) {
                (true, Some(lt), _) => self.sink.jmp(lt),
                (false, _, Some(lf)) => self.sink.jmp(lf),
                _ => {}
            }
            return Ok(());
        }
        match f.plan.nodes[id as usize].op {
            Op::Bin {
                a,
                b,
                emit:
                    BinEmit::Arith {
                        mop,
                        k,
                        cmp: true,
                        co_a,
                        co_b,
                        zero,
                        ..
                    },
                ..
            } => {
                // `x == 0` / `x != 0` folds to a truthiness branch on
                // `x` alone (BrTrue/BrFalse compare against the
                // hardwired zero register): the static back end never
                // materializes a zero operand and the dynamic path
                // shouldn't either. Floats keep the generic compare
                // (0.0 is not a bit-pattern test: -0.0 == 0.0).
                if zero != ZeroSide::None {
                    let (nz, co) = if zero == ZeroSide::B {
                        (a, co_a)
                    } else {
                        (b, co_b)
                    };
                    let v = self.expr(nz, f)?;
                    let v = self.coerce(v, co);
                    let on_eq = mop == BinOp::Eq;
                    match (ltrue, lfalse) {
                        (Some(lt), lf) => {
                            if on_eq {
                                self.sink.br_false(v.val, lt);
                            } else {
                                self.sink.br_true(v.val, lt);
                            }
                            if let Some(lf) = lf {
                                self.sink.jmp(lf);
                            }
                        }
                        (None, Some(lf)) if on_eq => self.sink.br_true(v.val, lf),
                        (None, Some(lf)) => self.sink.br_false(v.val, lf),
                        (None, None) => {}
                    }
                    self.release(v);
                    return Ok(());
                }
                let va = self.expr(a, f)?;
                let va = self.coerce(va, co_a);
                let vb = self.expr(b, f)?;
                let vb = self.coerce(vb, co_b);
                match (ltrue, lfalse) {
                    (Some(lt), None) => self.sink.br_cmp(mop, k, va.val, vb.val, lt),
                    (None, Some(lf)) => {
                        let neg = mop.negated().expect("cmp");
                        self.sink.br_cmp(neg, k, va.val, vb.val, lf);
                    }
                    (Some(lt), Some(lf)) => {
                        self.sink.br_cmp(mop, k, va.val, vb.val, lt);
                        self.sink.jmp(lf);
                    }
                    (None, None) => {}
                }
                self.release(va);
                self.release(vb);
                Ok(())
            }
            Op::Un {
                op: UnaryOp::LogNot,
                a,
                ..
            } => self.cond_branch(a, lfalse, ltrue, f),
            Op::Bin {
                a,
                b,
                emit: BinEmit::Logic(and),
                ..
            } => {
                let lskip = self.sink.label();
                if and {
                    self.cond_branch(a, None, Some(lfalse.unwrap_or(lskip)), f)?;
                } else {
                    self.cond_branch(a, Some(ltrue.unwrap_or(lskip)), None, f)?;
                }
                self.cond_branch(b, ltrue, lfalse, f)?;
                self.sink.bind(lskip);
                Ok(())
            }
            _ => {
                let v = self.expr(id, f)?;
                self.branch_on(v.val, ltrue, lfalse);
                self.release(v);
                Ok(())
            }
        }
    }

    // ---- statements --------------------------------------------------------

    fn block(&mut self, stmts: Span, f: Frame<'p>) -> Result<(), VmError> {
        for &s in &f.plan.stmt_lists[stmts.range()] {
            self.stmt(s, f)?;
        }
        Ok(())
    }

    /// A loop body, with `break`/`continue` bound to `lend`/`lnext`.
    fn loop_body(
        &mut self,
        body: StmtId,
        lend: S::Lbl,
        lnext: S::Lbl,
        f: Frame<'p>,
    ) -> Result<(), VmError> {
        self.sc.break_stack.push(lend);
        self.sc.continue_stack.push(lnext);
        self.stmt(body, f)?;
        self.sc.break_stack.pop();
        self.sc.continue_stack.pop();
        Ok(())
    }

    fn goto_label(&mut self, l: u32, f: Frame<'p>) -> S::Lbl {
        let slot = f.labels + l as usize;
        if let Some(lbl) = self.sc.labels[slot] {
            return lbl;
        }
        let lbl = self.sink.label();
        self.sc.labels[slot] = Some(lbl);
        lbl
    }

    fn stmt(&mut self, s: StmtId, f: Frame<'p>) -> Result<(), VmError> {
        match f.plan.stmts[s as usize] {
            PStmt::Expr(e) => {
                let v = self.expr(e, f)?;
                self.release(v);
            }
            // jump(l): emit a jump to a dynamic label.
            PStmt::Jump(cap) => {
                let addr = self.field(f, cap);
                if self.mem.load_u64(addr)? != LABEL_MARKER {
                    return Err(host_err("jump() target is not a dynamic label object"));
                }
                let (lbl, _) = self.dyn_label(addr);
                self.sink.jmp(lbl);
            }
            // A void cspec mentioned as a statement splices its code.
            PStmt::Splice(cap) => {
                self.compile_closure(self.field(f, cap))?;
            }
            PStmt::Decl(items) => {
                for d in &f.plan.decls[items.range()] {
                    // A static initializer keeps the local a derived
                    // run-time constant until a dynamic write demotes
                    // it.
                    if let Some(cv) = self.eval_static(d.init, f, false)? {
                        self.sc.rtc[f.locals + d.local as usize] = Some(cv);
                        continue;
                    }
                    let v = self.expr(d.init, f)?;
                    let v = self.coerce(v, d.co);
                    let home = self.local_val(f, d.local);
                    self.sink.un(UnOp::Mov, d.k, home, v.val);
                    self.narrow(home, d.ld);
                    self.release(v);
                }
            }
            PStmt::If { c, t, e } => {
                // Dynamic dead code elimination on run-time constants.
                if let Some(cv) = self.eval_static(c, f, false)? {
                    return match (cv.truthy(), e) {
                        (true, _) => self.stmt(t, f),
                        (false, Some(e)) => self.stmt(e, f),
                        (false, None) => Ok(()),
                    };
                }
                let lelse = self.sink.label();
                let lend = self.sink.label();
                self.cond_branch(c, None, Some(lelse), f)?;
                self.stmt(t, f)?;
                if e.is_some() {
                    self.sink.jmp(lend);
                }
                self.sink.bind(lelse);
                if let Some(e) = e {
                    self.stmt(e, f)?;
                }
                self.sink.bind(lend);
            }
            PStmt::For(fp) => return self.lower_for(fp, f),
            PStmt::Loop { c, body, pre } => {
                let ltop = self.sink.label();
                let lcond = self.sink.label();
                let lend = self.sink.label();
                if pre {
                    self.sink.jmp(lcond);
                }
                self.sink.loop_begin();
                self.sink.bind(ltop);
                self.loop_body(body, lend, lcond, f)?;
                self.sink.bind(lcond);
                self.cond_branch(c, Some(ltop), None, f)?;
                self.sink.loop_end();
                self.sink.bind(lend);
            }
            PStmt::Return { e, co } => match (e, self.ret_kind) {
                (Some(e), Some(k)) => {
                    let v = self.expr(e, f)?;
                    // Coerce to the kind compile() declared.
                    let v = self.coerce(v, co[k.code() as usize]);
                    self.sink.ret_val(k, v.val);
                    self.release(v);
                }
                (Some(e), None) => {
                    let v = self.expr(e, f)?;
                    self.release(v);
                    self.sink.ret_void();
                }
                (None, _) => self.sink.ret_void(),
            },
            PStmt::Break => {
                let l = (self.sc.break_stack.last())
                    .ok_or_else(|| host_err("break outside loop in dynamic code"))?;
                self.sink.jmp(*l);
            }
            PStmt::Continue => {
                let l = (self.sc.continue_stack.last())
                    .ok_or_else(|| host_err("continue outside loop in dynamic code"))?;
                self.sink.jmp(*l);
            }
            PStmt::Block(stmts) => return self.block(stmts, f),
            PStmt::Switch { scrut, k, items } => {
                let items = &f.plan.switch_items[items.range()];
                // Run-time constant scrutinee: emit only the chosen arm.
                if let Some(cv) = self.eval_static(scrut, f, false)? {
                    return self.static_switch(cv.as_i(), items, f);
                }
                self.dynamic_switch(scrut, k, items, f)?;
            }
            PStmt::Goto(l) => {
                let l = self.goto_label(l, f);
                self.sink.jmp(l);
            }
            PStmt::Labeled(l, inner) => {
                let l = self.goto_label(l, f);
                self.sink.bind(l);
                return self.stmt(inner, f);
            }
            PStmt::Empty => {}
            PStmt::Fail(m) => return Err(host_err(f.plan.msgs[m as usize].as_str())),
        }
        Ok(())
    }

    fn dynamic_switch(
        &mut self,
        scrut: NodeId,
        k: ValKind,
        items: &'p [SwItem],
        f: Frame<'p>,
    ) -> Result<(), VmError> {
        let sv = self.expr(scrut, f)?;
        let lend = self.sink.label();
        // This switch's case labels, in item order, above any enclosing
        // switch's.
        let base = self.sc.case_labels.len();
        let mut default_label = None;
        for item in items {
            match item {
                SwItem::Case(_) => {
                    let l = self.sink.label();
                    self.sc.case_labels.push(l);
                }
                SwItem::Default => default_label = Some(self.sink.label()),
                SwItem::Stmt(_) => {}
            }
        }
        let cases = items.iter().filter_map(|i| match i {
            SwItem::Case(v) => Some(*v),
            _ => None,
        });
        for (ci, v) in cases.enumerate() {
            let c = self.sink.temp(k);
            self.sink.li(c, v);
            let l = self.sc.case_labels[base + ci];
            self.sink.br_cmp(BinOp::Eq, k, sv.val, c, l);
            self.sink.release(c);
        }
        self.release(sv);
        self.sink.jmp(default_label.unwrap_or(lend));
        self.sc.break_stack.push(lend);
        let mut ci = base;
        for item in items {
            match *item {
                SwItem::Case(_) => {
                    self.sink.bind(self.sc.case_labels[ci]);
                    ci += 1;
                }
                SwItem::Default => self.sink.bind(default_label.expect("seen")),
                SwItem::Stmt(s) => self.stmt(s, f)?,
            }
        }
        self.sc.case_labels.truncate(base);
        self.sc.break_stack.pop();
        self.sink.bind(lend);
        Ok(())
    }

    /// Emits only the statically selected arm of a switch over a run-time
    /// constant, honoring fallthrough and `break`.
    fn static_switch(&mut self, v: i64, items: &'p [SwItem], f: Frame<'p>) -> Result<(), VmError> {
        let lend = self.sink.label();
        // Find the entry point: matching case, else default.
        let start = (items.iter())
            .position(|i| matches!(i, SwItem::Case(c) if *c == v))
            .or_else(|| items.iter().position(|i| matches!(i, SwItem::Default)));
        if let Some(start) = start {
            self.sc.break_stack.push(lend);
            for item in &items[start..] {
                if let SwItem::Stmt(s) = *item {
                    self.stmt(s, f)?;
                }
            }
            self.sc.break_stack.pop();
        }
        self.sink.bind(lend);
        Ok(())
    }

    /// `for` lowering with the paper's dynamic loop unrolling.
    fn lower_for(&mut self, fp: ForPlan, f: Frame<'p>) -> Result<(), VmError> {
        // Try the static (unrollable) pattern first.
        if self.try_unroll(fp, f)? {
            return Ok(());
        }
        if let Some(i) = fp.init {
            self.stmt(i, f)?;
        }
        let ltop = self.sink.label();
        let lcond = self.sink.label();
        let lstep = self.sink.label();
        let lend = self.sink.label();
        self.sink.jmp(lcond);
        self.sink.loop_begin();
        self.sink.bind(ltop);
        self.loop_body(fp.body, lend, lstep, f)?;
        self.sink.bind(lstep);
        if let Some(st) = fp.step {
            let v = self.expr(st, f)?;
            self.release(v);
        }
        self.sink.bind(lcond);
        match fp.cond {
            Some(c) => self.cond_branch(c, Some(ltop), None, f)?,
            None => self.sink.jmp(ltop),
        }
        self.sink.loop_end();
        self.sink.bind(lend);
        Ok(())
    }

    /// Attempts dynamic loop unrolling; returns `true` if the loop was
    /// fully executed at compile time. The loop's shape was checked at
    /// lowering; what is left is whether, in this instantiation, its
    /// bounds are run-time constants.
    fn try_unroll(&mut self, fp: ForPlan, f: Frame<'p>) -> Result<bool, VmError> {
        let (Some(u), Some(cond), true) = (fp.unroll, fp.cond, self.input.enable_unroll) else {
            return Ok(false);
        };
        let slot = f.locals + u.k as usize;
        // The induction variable must not already be dynamic.
        if self.sc.vals[slot].is_some() {
            return Ok(false);
        }
        let Some(init_cv) = self.eval_static(u.init, f, false)? else {
            return Ok(false);
        };
        // Pre-simulate the trip count (header only — the body cannot
        // touch the header per the lowering-time checks). Over-large
        // loops stay loops: "unless it is made too large, and hence
        // acquires poor memory locality and incurs a high code generation
        // cost" (§4.4). The first evaluation doubles as the check that
        // the condition is statically evaluable at all.
        self.sc.rtc[slot] = Some(init_cv);
        let mut trips: u64 = 0;
        let fits = loop {
            let Some(c) = self.eval_static(cond, f, false)? else {
                break false;
            };
            if !c.truthy() {
                break true;
            }
            trips += 1;
            if trips > UNROLL_TRIP_LIMIT {
                break false;
            }
            let cur = self.sc.rtc[slot].expect("induction var is static");
            match self.apply_step(u, cur, f)? {
                Some(next) => self.sc.rtc[slot] = Some(next),
                None => break false,
            }
        };
        if !fits {
            self.sc.rtc[slot] = None;
            return Ok(false);
        }
        self.sc.rtc[slot] = Some(init_cv);

        // Unroll.
        let mut iters: u64 = 0;
        loop {
            let Some(c) = self.eval_static(cond, f, false)? else {
                // The body demoted something the condition needs; this is
                // not recoverable mid-unroll.
                return Err(host_err(
                    "loop condition became dynamic during unrolling; \
                     restructure the dynamic code",
                ));
            };
            if !c.truthy() {
                break;
            }
            self.stmt(fp.body, f)?;
            let cur = self.sc.rtc[slot].expect("induction var is static");
            let next = (self.apply_step(u, cur, f)?)
                .ok_or_else(|| host_err("loop step became dynamic during unrolling"))?;
            self.sc.rtc[slot] = Some(next);
            iters += 1;
            self.stats.unrolled_iters += 1;
            if iters > UNROLL_LIMIT {
                return Err(host_err(
                    "dynamic loop unrolling exceeded the iteration limit",
                ));
            }
        }
        Ok(true)
    }

    /// Applies a static loop step to the induction variable's current
    /// value; `None` when the step is not statically evaluable.
    fn apply_step(&mut self, u: UnrollPlan, cur: Cv, f: Frame<'p>) -> Result<Option<Cv>, VmError> {
        Ok(match u.step {
            Step::IncDec(inc) => {
                let d: i64 = if inc { 1 } else { -1 };
                Some(match cur {
                    Cv::I(v) if u.w => Cv::I((v as i32).wrapping_add(d as i32) as i64),
                    Cv::I(v) => Cv::I(v.wrapping_add(d)),
                    Cv::F(v) => Cv::F(v + d as f64),
                })
            }
            Step::AssignOp(fold, rhs) => match self.eval_static(rhs, f, false)? {
                Some(rv) => eval_bin(fold, cur, rv),
                None => None,
            },
            Step::Reassign(rhs) => self.eval_static(rhs, f, false)?,
        })
    }
}

/// Combines two run-time constants; `None` where the operation has no
/// compile-time value (division by zero, `%` on doubles).
fn eval_bin(fold: Fold, a: Cv, b: Cv) -> Option<Cv> {
    use BinaryOp::*;
    Some(match fold {
        Fold::LogAnd => Cv::I(i64::from(a.truthy() && b.truthy())),
        Fold::LogOr => Cv::I(i64::from(a.truthy() || b.truthy())),
        Fold::Float(op) => {
            let (x, y) = (a.as_f(), b.as_f());
            match op {
                Add => Cv::F(x + y),
                Sub => Cv::F(x - y),
                Mul => Cv::F(x * y),
                Div => Cv::F(x / y),
                Lt => Cv::I(i64::from(x < y)),
                Gt => Cv::I(i64::from(x > y)),
                Le => Cv::I(i64::from(x <= y)),
                Ge => Cv::I(i64::from(x >= y)),
                Eq => Cv::I(i64::from(x == y)),
                Ne => Cv::I(i64::from(x != y)),
                _ => return None,
            }
        }
        // Pointer arithmetic at compile time (e.g. `$p + k` inside $).
        Fold::Ptr(elem, sub) => {
            let off = b.as_i() * elem;
            Cv::I(if sub { a.as_i() - off } else { a.as_i() + off })
        }
        Fold::Int(mop, k) => Cv::I(mop.eval_int(k, a.as_i(), b.as_i())?),
    })
}

/// Compile-time constant cast to the scalar type that loads as `to`.
fn cast_const(cv: Cv, to: LoadKind) -> Cv {
    match to {
        LoadKind::F64 => Cv::F(cv.as_f()),
        LoadKind::I8 => Cv::I(cv.as_i() as i8 as i64),
        LoadKind::U8 => Cv::I(cv.as_i() as u8 as i64),
        LoadKind::I16 => Cv::I(cv.as_i() as i16 as i64),
        LoadKind::U16 => Cv::I(cv.as_i() as u16 as i64),
        // `int` and `unsigned` alike: the canonical W is sign-extended.
        LoadKind::I32 | LoadKind::U32 => Cv::I(cv.as_i() as i32 as i64),
        LoadKind::I64 => Cv::I(cv.as_i()),
    }
}
