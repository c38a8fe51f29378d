//! The dynamic compiler: code-generating-function execution.
//!
//! At dynamic compile time, tcc "invokes the code-generating function for
//! the cspec on the cspec's closure, and the CGF performs most of the
//! actual code generation" (§4.4). Here a tick expression's CGF is its
//! *plan* (module `plan`): the typed AST lowered once per session, the
//! first time a compile meets the tick, into a sequence of steps over
//! numbered temporaries that holds every fact the tick alone determines.
//! The walker below runs plans against a [`CodeSink`] — VCODE (immediate
//! one-pass emission) or ICODE (IR recording). Per step it decides the
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
//! Composition (paper §4.4) is CGF invocation: the step that splices a
//! nested cspec opens that closure's frame, the walk goes on in its code,
//! and the step finishes when the frame closes; its value is a temporary
//! whose register the nested code allocated (the §5.1 convention). The
//! walk is one loop over an explicit frame stack: composition depth
//! costs scratch capacity, not host stack.

use crate::addr_map::AddrMap;
use crate::plan::{
    self, Access, Advance, AssignHow, At, BinEmit, Callee, Co, Fold, NodeId, Op, Step, TickPlan,
    UnrollPlan, ZeroSide, HAS_CSPEC, NS_IN, NS_OUT,
};
use std::cell::OnceCell;
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

/// Limit on closure-composition nesting depth, far beyond any published
/// use of composition. It bounds the walker's frame stack and the path
/// of the closure scan (`fingerprint::scan_closure`), which enforces it
/// before any code is emitted; neither takes host stack per level.
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
    pub plans: &'p [OnceCell<TickPlan>],
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

/// A place in dynamic code: a register-like value, or memory at an
/// address (with whether it is an owned temporary) plus an offset.
#[derive(Clone, Copy, Debug)]
enum DynPlace<T> {
    Val(T, Access),
    Mem((T, bool), i64, Access),
}

/// What one walk of a closure's code keeps for a node, a dynamic local,
/// a `goto` label or a statement.
#[derive(Clone, Copy, Debug)]
struct Slot<T, L> {
    /// A node's value and whether it is an owned temporary; a dynamic
    /// local's home.
    val: Option<(T, bool)>,
    /// An `op=`'s result temporary.
    aux: Option<T>,
    place: Option<DynPlace<T>>,
    /// A derived run-time constant; an immediate operand.
    c: Option<Cv>,
    /// A node's branch targets (when true, when false); a construct's
    /// labels (a `goto` label is the first).
    l: [Option<L>; 4],
    /// A mode, a trip count or a stack height.
    n: i64,
    /// The kind of the `apply` argument being spliced.
    k: Option<ValKind>,
}

impl<T: Copy, L: Copy> Slot<T, L> {
    const EMPTY: Self = Slot {
        val: None,
        aux: None,
        place: None,
        c: None,
        l: [None; 4],
        n: 0,
        k: None,
    };
}

/// Where an open closure's fields start in the scratch, and where its
/// slots start and end.
#[derive(Clone, Copy, Debug)]
struct Base {
    caps: usize,
    slots: usize,
    end: usize,
}

/// An open closure on the frame stack: its tick, its base, and — while a
/// closure it spliced is open — the step to resume at.
#[derive(Clone, Copy, Debug)]
struct Open {
    tick: u64,
    pc: usize,
    base: Base,
}

/// The walker's working storage, owned by the runtime and emptied per
/// compile (one per back end: the value and label types are the
/// sink's). Each open closure is an entry of the frame stack and a run
/// of the field and slot stacks, so composition depth costs capacity
/// once, not an allocation per closure.
#[derive(Debug)]
pub struct WalkScratch<T, L> {
    frames: Vec<Open>,
    /// Closure fields of the open closures.
    fields: Vec<u64>,
    /// Per open closure, its plan's `nodes.len() + extra` slots. Kept
    /// from closure to closure and compile to compile: `open` empties
    /// only the slots a walk reads before writing.
    slots: Vec<Slot<T, L>>,
    /// vspec object address → bound location.
    vspecs: AddrMap<T>,
    /// Dynamic label object address → sink label (+ whether bound).
    dyn_labels: AddrMap<(L, bool)>,
    break_stack: Vec<L>,
    continue_stack: Vec<L>,
    /// Arguments of the calls being assembled (innermost last), and
    /// whether each is an owned temporary.
    args: Vec<(ValKind, T)>,
    arg_owned: Vec<bool>,
    /// Case labels of the dynamic switches being emitted.
    case_labels: Vec<L>,
}

impl<T, L> Default for WalkScratch<T, L> {
    fn default() -> Self {
        WalkScratch {
            frames: Vec::new(),
            fields: Vec::new(),
            slots: Vec::new(),
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

impl<T, L> WalkScratch<T, L> {
    fn clear(&mut self) {
        self.frames.clear();
        self.fields.clear();
        self.vspecs.clear();
        self.dyn_labels.clear();
        self.break_stack.clear();
        self.continue_stack.clear();
        self.args.clear();
        self.arg_owned.clear();
        self.case_labels.clear();
    }
}

/// The closure being walked: its plan and base.
#[derive(Clone, Copy)]
struct Frame<'p> {
    plan: &'p TickPlan,
    base: Base,
}

impl Frame<'_> {
    /// Index of node `n`'s slot.
    fn node(self, n: NodeId) -> usize {
        self.base.slots + n as usize
    }

    /// Index of a local's, a label's or a statement's slot.
    fn extra(self, x: u32) -> usize {
        self.base.slots + self.plan.nodes.len() + x as usize
    }
}

/// What the walk does after a step.
enum Flow<'p> {
    Next,
    Jump(At),
    /// On into a spliced closure's code; its frame is open.
    Enter(Frame<'p>),
}

/// `Arith` modes: which operand is an immediate, or in which order the
/// two are emitted.
const BOTH: i64 = 0;
const IMM_B: i64 = 1;
const IMM_A: i64 = 2;
const B_FIRST: i64 = 3;
/// Statement modes: a static `if` or `switch`, a dynamic `if` or `for`
/// (an unrolling `for` keeps its trip count, a dynamic `switch` its
/// case-label stack height), a static `switch` with no arm chosen.
const STATIC: i64 = -1;
const DYNAMIC: i64 = -2;
const NO_ARM: i64 = -3;

/// The CGF walker: runs tick plans against a [`CodeSink`]. Create one
/// per `compile` invocation.
pub(crate) struct DynCompiler<'a, 'p, S: CodeSink> {
    input: DynInput<'p>,
    mem: &'a Memory,
    sink: &'a mut S,
    sc: &'a mut WalkScratch<S::Val, S::Lbl>,
    /// Return kind expected by `compile(c, T)` (None = void).
    ret_kind: Option<ValKind>,
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
            stats: WalkStats::default(),
        }
    }

    /// Compiles the closure at `closure_addr` as a complete function
    /// body (prologue/epilogue are the sink's business). `params`, the
    /// tree's `param` vspecs in the closure scan's order, are bound
    /// first: argument registers must be captured at entry, before calls
    /// clobber them.
    ///
    /// # Errors
    ///
    /// Fails on malformed closures or unrepresentable dynamic code.
    pub(crate) fn compile_entry(
        &mut self,
        closure_addr: u64,
        params: &[(u64, VspecObj)],
    ) -> Result<(), VmError> {
        for &(addr, obj) in params {
            if !self.sc.vspecs.contains_key(&addr) {
                let v = self.sink.param(obj.index as usize, obj.kind);
                self.sc.vspecs.insert(addr, v);
            }
        }
        let ret = self.walk(closure_addr)?;
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

    /// Runs the code of the closure at `entry`, and of every closure it
    /// splices, step by step; returns the entry's value (None for a void
    /// cspec). When a spliced closure's code ends, its frame closes and
    /// the step that spliced it finishes.
    fn walk(&mut self, entry: u64) -> Result<Option<V<S>>, VmError> {
        let Some(mut f) = self.open(entry)? else {
            return Ok(None);
        };
        let mut pc = 0;
        loop {
            if let Some(&step) = f.plan.code.get(pc) {
                pc += 1;
                match self.step(f, pc - 1, step)? {
                    Flow::Next => {}
                    Flow::Jump(to) => pc = to as usize,
                    Flow::Enter(child) => {
                        let parent = self.sc.frames.len() - 2;
                        self.sc.frames[parent].pc = pc;
                        (f, pc) = (child, 0);
                    }
                }
                continue;
            }
            let out = f.plan.value.map(|n| self.get(f, n));
            self.sc.frames.pop();
            self.sc.fields.truncate(f.base.caps);
            let Some(&Open { tick, pc: at, base }) = self.sc.frames.last() else {
                return Ok(out);
            };
            (f, pc) = (
                Frame {
                    plan: self.input.plan(tick)?,
                    base,
                },
                at,
            );
            if let Flow::Jump(to) = self.spliced(f, at - 1, out)? {
                pc = to as usize;
            }
        }
    }

    /// Opens the closure at `addr`: pushes its frame, fields and slots. A
    /// dynamic label object opens nothing: splicing one as a statement
    /// binds a position.
    fn open(&mut self, addr: u64) -> Result<Option<Frame<'p>>, VmError> {
        if self.sc.frames.len() >= COMPOSE_DEPTH_LIMIT as usize {
            return Err(host_err("closure composition too deep"));
        }
        self.stats.closures += 1;
        let c = ClosureRef { addr };
        let tick = c.cgf_id(self.mem)?;
        if tick == ARGLIST_MARKER {
            return Err(host_err("argument lists can only be used with apply()"));
        }
        if tick == LABEL_MARKER {
            let (l, bound) = self.dyn_label(addr);
            if bound {
                return Err(host_err("dynamic label spliced twice"));
            }
            self.sink.bind(l);
            self.sc.dyn_labels.insert(addr, (l, true));
            return Ok(None);
        }
        let plan = self.input.plan(tick)?;
        let caps = self.sc.fields.len();
        let slots = self.sc.frames.last().map_or(0, |o| o.base.end);
        let end = slots + plan.nodes.len() + plan.extra as usize;
        let base = Base { caps, slots, end };
        for i in 0..plan.caps.len() {
            self.sc.fields.push(c.field(self.mem, i)?);
        }
        // A node's slot is written before it is read; the locals',
        // labels' and statements' start empty.
        if self.sc.slots.len() < end {
            self.sc.slots.resize(end, Slot::EMPTY);
        }
        self.sc.slots[slots + plan.nodes.len()..end].fill(Slot::EMPTY);
        self.sc.frames.push(Open { tick, pc: 0, base });
        Ok(Some(Frame { plan, base }))
    }

    /// Splices the closure at `addr` for the step at `at`.
    fn splice(&mut self, f: Frame<'p>, at: usize, addr: u64) -> Result<Flow<'p>, VmError> {
        match self.open(addr)? {
            Some(child) => Ok(Flow::Enter(child)),
            None => self.spliced(f, at, None),
        }
    }

    /// Finishes the splicing step at `at` with the spliced value.
    fn spliced(&mut self, f: Frame<'p>, at: usize, out: Option<V<S>>) -> Result<Flow<'p>, VmError> {
        match f.plan.code[at] {
            Step::Value(n) => {
                let v = out.ok_or_else(|| host_err("void cspec used as a value"))?;
                self.put(f, n, v);
            }
            Step::Apply(n, true) => {
                let v = out.ok_or_else(|| host_err("argument cspec produced no value"))?;
                self.push_arg(self.sc.slots[f.node(n)].k.expect("set by the splice"), v);
                return Ok(Flow::Jump(at as At));
            }
            // A statement splice drops what it spliced.
            _ => {}
        }
        Ok(Flow::Next)
    }

    fn field(&self, f: Frame<'p>, cap: u32) -> u64 {
        self.sc.fields[f.base.caps + cap as usize]
    }

    fn slot(&mut self, i: usize) -> &mut Slot<S::Val, S::Lbl> {
        &mut self.sc.slots[i]
    }

    /// Node `n`'s value, which its steps left in its slot.
    fn get(&self, f: Frame<'p>, n: NodeId) -> V<S> {
        let (val, owned) = self.sc.slots[f.node(n)].val.expect("operand emitted");
        V { val, owned }
    }

    fn put(&mut self, f: Frame<'p>, n: NodeId, v: V<S>) {
        self.slot(f.node(n)).val = Some((v.val, v.owned));
    }

    /// Sets node `n`'s branch targets.
    fn set_to(&mut self, f: Frame<'p>, n: NodeId, to: [Option<S::Lbl>; 2]) {
        self.slot(f.node(n)).l[..2].copy_from_slice(&to);
    }

    fn place_of(&self, f: Frame<'p>, n: NodeId) -> DynPlace<S::Val> {
        self.sc.slots[f.node(n)].place.expect("place emitted")
    }

    // ---- run-time constant evaluation -------------------------------------

    /// Run-time constant folding: if node `n` is static now, a fully
    /// static expression, its value is an immediate.
    fn folds(&mut self, f: Frame<'p>, n: NodeId) -> Result<bool, VmError> {
        let Some(cv) = self.eval_static(n, f, false)? else {
            return Ok(false);
        };
        let v = self.materialize(cv, f.plan.nodes[n as usize].k);
        self.put(f, n, v);
        Ok(true)
    }

    /// Evaluates node `id` at dynamic compile time if it is a run-time
    /// constant: one flag test, then — only where the answer depends on
    /// this instantiation — one walk of its operands. `in_dollar` permits
    /// memory loads (the `$row[k]` case).
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
            Op::Local(i, _) => self.sc.slots[f.extra(i)].c,
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
        let x = f.extra(i);
        if let Some((v, _)) = self.sc.slots[x].val {
            return v;
        }
        let v = self.sink.temp_saved(f.plan.locals[i as usize]);
        self.slot(x).val = Some((v, false));
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

    /// Node `n`'s place, from its operands'.
    fn place(&mut self, f: Frame<'p>, n: NodeId) -> Result<DynPlace<S::Val>, VmError> {
        let mem = |v: V<S>, off, acc| Ok(DynPlace::Mem((v.val, v.owned), off, acc));
        match f.plan.nodes[n as usize].op {
            Op::Local(i, acc) => {
                // Writing to a derived run-time constant demotes it to a
                // dynamic local (materialize its current value first).
                if let Some(cv) = self.slot(f.extra(i)).c.take() {
                    let k = f.plan.locals[i as usize];
                    let m = self.materialize(cv, k);
                    // Transfer into a persistent local home.
                    let home = self.sink.temp_saved(k);
                    self.sink.un(UnOp::Mov, k, home, m.val);
                    self.release(m);
                    self.slot(f.extra(i)).val = Some((home, false));
                }
                Ok(DynPlace::Val(self.local_val(f, i), acc))
            }
            Op::Vspec(cap, acc) => Ok(DynPlace::Val(self.vspec_val(self.field(f, cap))?, acc)),
            Op::FreeVar(cap, acc) => mem(self.address(self.field(f, cap)), 0, acc),
            Op::Global(g, acc) => mem(self.address(self.input.global_addrs[g as usize]), 0, acc),
            Op::Deref(a, acc) => mem(self.get(f, a), 0, acc),
            Op::Index {
                base,
                idx,
                size,
                acc,
                co_idx,
                ..
            } => {
                let iv = self.coerce(self.get(f, idx), co_idx);
                mem(
                    self.scaled_add(BinOp::Add, self.get(f, base), iv, size),
                    0,
                    acc,
                )
            }
            Op::Member {
                base,
                arrow: true,
                off,
                acc,
            } => mem(self.get(f, base), off, acc),
            Op::Member { base, off, acc, .. } => match self.place_of(f, base) {
                DynPlace::Mem(addr, o, _) => Ok(DynPlace::Mem(addr, o + off, acc)),
                DynPlace::Val(..) => Err(host_err("struct member of register value")),
            },
            Op::Fail(m) => Err(host_err(f.plan.msgs[m as usize].as_str())),
            _ => unreachable!("lowering puts only lvalues in place position"),
        }
    }

    fn load_dyn_place(&mut self, p: DynPlace<S::Val>) -> V<S> {
        match p {
            DynPlace::Val(v, _) => V::borrowed(v),
            DynPlace::Mem((addr, _), off, acc) => {
                if acc.agg {
                    if off == 0 {
                        return V::borrowed(addr);
                    }
                    let t = self.sink.temp(ValKind::P);
                    self.sink.bin_imm(BinOp::Add, ValKind::P, t, addr, off);
                    return V::owned(t);
                }
                let t = self.sink.temp(acc.k);
                self.sink.load(acc.ld, t, addr, off);
                V::owned(t)
            }
        }
    }

    fn store_dyn_place(&mut self, p: DynPlace<S::Val>, v: S::Val) {
        match p {
            DynPlace::Val(dst, acc) => {
                self.sink.un(UnOp::Mov, acc.k, dst, v);
                self.narrow(dst, acc.ld);
            }
            DynPlace::Mem((addr, _), off, acc) => self.sink.store(acc.st, v, addr, off),
        }
    }

    /// Releases a place's address temporary, unless it is `kept`.
    fn release_place(&mut self, p: DynPlace<S::Val>, kept: Option<S::Val>) {
        if let DynPlace::Mem((val, owned), ..) = p {
            if kept != Some(val) {
                self.release(V { val, owned });
            }
        }
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

    // ---- the steps ---------------------------------------------------------

    /// Runs `step`, the step at `at` of `f`'s code. Its bigger cases are
    /// functions kept out of line (`#[inline(never)]`), so that this one,
    /// entered once per step, stays small.
    fn step(&mut self, f: Frame<'p>, at: usize, step: Step) -> Result<Flow<'p>, VmError> {
        let node = |n: NodeId| f.plan.nodes[n as usize];
        match step {
            // Run-time constant folding: a fully static expression
            // becomes an immediate; a static condition, an unconditional
            // edge (or nothing) — dynamic dead code elimination.
            Step::Fold(n, end) => {
                if self.folds(f, n)? {
                    return Ok(Flow::Jump(end));
                }
            }
            Step::FoldBranch(n, end) => {
                let Some(cv) = self.eval_static(n, f, false)? else {
                    return Ok(Flow::Next);
                };
                match (cv.truthy(), self.sc.slots[f.node(n)].l) {
                    (true, [Some(lt), ..]) => self.sink.jmp(lt),
                    (false, [_, Some(lf), ..]) => self.sink.jmp(lf),
                    _ => {}
                }
                return Ok(Flow::Jump(end));
            }
            Step::Value(n) => {
                if let Op::Cspec(cap) = node(n).op {
                    return self.splice(f, at, self.field(f, cap));
                }
                let v = self.value(f, n)?;
                self.put(f, n, v);
            }
            Step::Place(n) => {
                let p = self.place(f, n)?;
                self.slot(f.node(n)).place = Some(p);
            }
            Step::Load(n) => {
                // The value of a place expression: its place, loaded, with
                // the address temporary released (unless it *is* the
                // value).
                let p = match node(n).op {
                    Op::Local(..) | Op::Vspec(..) | Op::FreeVar(..) | Op::Global(..) => {
                        if self.folds(f, n)? {
                            return Ok(Flow::Next);
                        }
                        self.place(f, n)?
                    }
                    _ => self.place_of(f, n),
                };
                let out = self.load_dyn_place(p);
                self.release_place(p, Some(out.val));
                self.put(f, n, out);
            }
            Step::Branch(n) => {
                let (v, [lt, lf, ..]) = (self.get(f, n), self.sc.slots[f.node(n)].l);
                match (lt, lf) {
                    (Some(lt), None) => self.sink.br_true(v.val, lt),
                    (None, Some(lf)) => self.sink.br_false(v.val, lf),
                    (Some(lt), Some(lf)) => {
                        self.sink.br_true(v.val, lt);
                        self.sink.jmp(lf);
                    }
                    (None, None) => {}
                }
                self.release(v);
            }
            Step::Compare(n) => self.compare(f, n),
            Step::Coerce(n, co) => {
                let v = self.coerce(self.get(f, n), co);
                self.put(f, n, v);
            }
            Step::Drop(n) => self.release(self.get(f, n)),
            Step::Arith(n, second, end) => {
                if let Some(end) = end {
                    if self.folds(f, n)? {
                        return Ok(Flow::Jump(end));
                    }
                }
                let Op::Bin { a, b, emit, .. } = node(n).op else {
                    unreachable!("an arithmetic node's step")
                };
                let BinEmit::Arith { sw, k, cmp, .. } = emit else {
                    unreachable!("an arithmetic node's step")
                };
                // Run-time-constant operands select strength-reduced
                // immediates.
                let foldable = k != ValKind::F;
                let static_b = match foldable {
                    true => self.eval_static(b, f, false)?,
                    false => None,
                };
                let static_a = match (static_b, cmp) {
                    (Some(_), false) => None,
                    _ if foldable => self.eval_static(a, f, false)?,
                    _ => None,
                };
                // §5.1 heuristic: evaluate cspec operands before non-cspec
                // operands to shorten temp live ranges across composition.
                let has = |n: NodeId| node(n).flags & HAS_CSPEC != 0;
                let (mode, c) = match (static_b, static_a, sw) {
                    (Some(cb), ..) if !cmp => (IMM_B, Some(cb)),
                    (_, Some(ca), Some(_)) if !cmp => (IMM_A, Some(ca)),
                    _ if self.input.cspec_first && has(b) && !has(a) => (B_FIRST, None),
                    _ => (BOTH, None),
                };
                let s = self.slot(f.node(n));
                (s.n, s.c) = (mode, c);
                if mode == IMM_A || mode == B_FIRST {
                    return Ok(Flow::Jump(second));
                }
            }
            Step::Then(n, first, to) => {
                let mode = self.sc.slots[f.node(n)].n;
                if mode == B_FIRST || (first && mode == IMM_B) {
                    return Ok(Flow::Jump(to));
                }
            }
            Step::Imm(n, end) => return self.imm(f, n, end),
            Step::Temp(n) => {
                let d = self.sink.temp_saved(node(n).k);
                self.put(f, n, V::owned(d));
            }
            Step::Mov(n, from, co) => {
                let v = self.coerce(self.get(f, from), co);
                self.sink
                    .un(UnOp::Mov, node(n).k, self.get(f, n).val, v.val);
                self.release(v);
            }
            Step::Li(n, v) => self.sink.li(self.get(f, n).val, v as i64),
            Step::AndOr(n, x) => {
                let Op::Bin { a, emit, .. } = node(n).op else {
                    unreachable!("a logic node's step")
                };
                let ([lt, lf, ..], lskip) = (self.sc.slots[f.node(n)].l, self.label(f, x, 0));
                let to = match emit {
                    BinEmit::Logic(true) => [None, lf.or(Some(lskip))],
                    _ => [lt.or(Some(lskip)), None],
                };
                self.set_to(f, a, to);
            }
            Step::Pass(n, to, swap) => {
                let [lt, lf, ..] = self.sc.slots[f.node(n)].l;
                self.set_to(f, to, if swap { [lf, lt] } else { [lt, lf] });
            }
            Step::Arg(arg) => {
                let v = self.coerce(self.get(f, arg.node), arg.co);
                self.push_arg(arg.k, v);
            }
            Step::CallRet(n) => {
                let ret = match node(n).op {
                    Op::Call { ret, .. } => ret,
                    _ => Some(ValKind::W),
                };
                self.slot(f.node(n)).val = ret.map(|k| (self.sink.temp_saved(k), true));
            }
            Step::Apply(n, next) => return self.apply(f, at, n, next),
            Step::Splice(cap) => return self.splice(f, at, self.field(f, cap)),
            _ => return self.stmt(f, step),
        }
        Ok(Flow::Next)
    }

    /// The `Value` step of a node that is neither a cspec nor a place.
    /// `apply(f, args)` — dynamic call construction (§6.2 mshl/umshl):
    /// the argument count and the code computing each argument are
    /// determined at specification time. The first step checks the
    /// list (`next` false); the second splices its next element, and
    /// each element returns to it.
    #[inline(never)]
    fn apply(
        &mut self,
        f: Frame<'p>,
        at: usize,
        n: NodeId,
        next: bool,
    ) -> Result<Flow<'p>, VmError> {
        let Op::Apply { list, .. } = f.plan.nodes[n as usize].op else {
            unreachable!("an apply node's step")
        };
        let list = self.field(f, list);
        if !next {
            if self.mem.load_u64(list)? != ARGLIST_MARKER {
                return Err(host_err("apply() target is not an argument list"));
            }
            self.slot(f.node(n)).n = self.sc.args.len() as i64;
            return Ok(Flow::Next);
        }
        let j = (self.sc.args.len() as i64 - self.sc.slots[f.node(n)].n) as u64;
        if j >= self.mem.load_u64(list + 8)? {
            return Ok(Flow::Next);
        }
        let closure = self.mem.load_u64(list + 16 + 8 * j)?;
        // The argument's kind comes from its cspec's evaluation type.
        let id = self.mem.load_u64(closure)?;
        let plan = (self.input.plan(id))
            .map_err(|_| host_err(format!("bad cgf id {id} in argument list")))?;
        let k = (plan.eval_kind).ok_or_else(|| host_err("void cspec in an argument list"))?;
        self.slot(f.node(n)).k = Some(k);
        self.splice(f, at, closure)
    }

    #[inline(never)]
    fn value(&mut self, f: Frame<'p>, n: NodeId) -> Result<V<S>, VmError> {
        let k = f.plan.nodes[n as usize].k;
        Ok(match f.plan.nodes[n as usize].op {
            Op::Str(addr) => self.address(addr),
            Op::DerefFn(a) | Op::Comma(_, a) => self.get(f, a),
            Op::AddrOf(a) => match self.place_of(f, a) {
                DynPlace::Mem((val, owned), 0, _) => V { val, owned },
                DynPlace::Mem((val, owned), off, _) => {
                    let t = self.sink.temp(ValKind::P);
                    self.sink.bin_imm(BinOp::Add, ValKind::P, t, val, off);
                    self.release(V { val, owned });
                    V::owned(t)
                }
                DynPlace::Val(..) => return Err(host_err("cannot take the address of a register")),
            },
            Op::Un { op, a, co, ak } => {
                let v = self.coerce(self.get(f, a), co);
                let d = self.sink.temp(k);
                match op {
                    // !x == (x == 0)
                    UnaryOp::LogNot => self.sink.bin_imm(BinOp::Eq, ak, d, v.val, 0),
                    UnaryOp::Neg => self.sink.un(UnOp::Neg, k, d, v.val),
                    _ => self.sink.un(UnOp::Not, k, d, v.val),
                }
                self.release(v);
                V::owned(d)
            }
            Op::IncDec {
                a,
                post,
                k,
                delta,
                double,
            } => {
                let p = self.place_of(f, a);
                let old = self.load_dyn_place(p);
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
                self.store_dyn_place(p, newv);
                if keep.is_some() {
                    self.sink.release(newv);
                }
                self.release_place(p, None);
                V::owned(keep.unwrap_or(newv))
            }
            Op::Bin { a, b, emit, .. } => self.binary(f, n, a, b, emit),
            Op::Assign { lhs, rhs, how } => self.assign(f, n, lhs, rhs, how),
            Op::Call { callee, args, ret } => {
                let base = self.sc.args.len() - args.range().len();
                self.finish_call(f, n, callee, base, ret)
            }
            Op::Apply { callee, .. } => {
                let base = self.sc.slots[f.node(n)].n as usize;
                self.finish_call(f, n, callee, base, Some(ValKind::W))
            }
            Op::Cast { a, co, .. } => self.coerce(self.get(f, a), co),
            Op::Dollar(_) => return Err(host_err("$ operand was not a run-time constant")),
            Op::Fail(m) => return Err(host_err(f.plan.msgs[m as usize].as_str())),
            _ => unreachable!("a run-time constant, a place or a cspec"),
        })
    }

    #[inline(never)]
    fn binary(&mut self, f: Frame<'p>, n: NodeId, a: NodeId, b: NodeId, emit: BinEmit) -> V<S> {
        let (mode, imm) = (self.sc.slots[f.node(n)].n, self.sc.slots[f.node(n)].c);
        match emit {
            BinEmit::PtrArith {
                swapped,
                elem,
                sub,
                co_i,
            } => {
                let (p, i) = if swapped { (b, a) } else { (a, b) };
                let iv = self.coerce(self.get(f, i), co_i);
                let mop = if sub { BinOp::Sub } else { BinOp::Add };
                self.scaled_add(mop, self.get(f, p), iv, elem)
            }
            BinEmit::PtrDiff(elem) => {
                let (av, bv) = (self.get(f, a), self.get(f, b));
                let diff = self.sink.temp(ValKind::D);
                self.sink.bin(BinOp::Sub, ValKind::D, diff, av.val, bv.val);
                self.release(av);
                self.release(bv);
                let d = self.sink.temp(ValKind::D);
                self.sink.bin_imm(BinOp::Div, ValKind::D, d, diff, elem);
                self.sink.release(diff);
                V::owned(d)
            }
            BinEmit::Logic(_) => unreachable!("`&&`/`||` values are branches"),
            BinEmit::Arith {
                mop,
                sw,
                k,
                cmp,
                co_a,
                co_b,
                ..
            } => {
                let (x, co, op) = match mode {
                    IMM_B => (a, co_a, mop),
                    IMM_A => (b, co_b, sw.expect("swappable")),
                    _ => {
                        let va = self.coerce(self.get(f, a), co_a);
                        let vb = self.coerce(self.get(f, b), co_b);
                        let d = self.sink.temp(if cmp { ValKind::W } else { k });
                        self.sink.bin(mop, k, d, va.val, vb.val);
                        self.release(va);
                        self.release(vb);
                        return V::owned(d);
                    }
                };
                let v = self.coerce(self.get(f, x), co);
                let d = self.sink.temp(k);
                self.sink
                    .bin_imm(op, k, d, v.val, imm.expect("static").as_i());
                self.release(v);
                V::owned(d)
            }
        }
    }

    /// The step between a place or pointer and the other operand: where
    /// the other is a run-time constant, it finishes the node.
    #[inline(never)]
    fn imm(&mut self, f: Frame<'p>, n: NodeId, end: At) -> Result<Flow<'p>, VmError> {
        let done = Ok(Flow::Jump(end));
        match f.plan.nodes[n as usize].op {
            Op::Bin { a, b, emit, .. } => {
                let BinEmit::PtrArith {
                    swapped, elem, sub, ..
                } = emit
                else {
                    unreachable!("a pointer arithmetic node's step")
                };
                let (p, i) = if swapped { (b, a) } else { (a, b) };
                if let Some(ci) = self.eval_static(i, f, false)? {
                    let pv = self.get(f, p);
                    let d = self.sink.temp(ValKind::P);
                    let off = ci.as_i() * elem * if sub { -1 } else { 1 };
                    self.sink.bin_imm(BinOp::Add, ValKind::P, d, pv.val, off);
                    self.release(pv);
                    self.put(f, n, V::owned(d));
                    return done;
                }
            }
            Op::Index {
                base,
                idx,
                size,
                acc,
                ..
            } => {
                if let Some(civ) = self.eval_static(idx, f, false)? {
                    let bv = self.get(f, base);
                    let p = DynPlace::Mem((bv.val, bv.owned), civ.as_i() * size, acc);
                    self.slot(f.node(n)).place = Some(p);
                    return done;
                }
            }
            Op::Assign { lhs, rhs, how } => {
                let cur = self.load_dyn_place(self.place_of(f, lhs));
                let AssignHow::Op {
                    mop,
                    k,
                    co_cur,
                    co_back,
                    ..
                } = how
                else {
                    self.put(f, n, cur);
                    return Ok(Flow::Next);
                };
                let cv = self.coerce(cur, co_cur);
                let d = self.sink.temp(k);
                let static_rhs = match k {
                    ValKind::F => None,
                    _ => self.eval_static(rhs, f, false)?,
                };
                let Some(cb) = static_rhs else {
                    self.put(f, n, cv);
                    self.slot(f.node(n)).aux = Some(d);
                    return Ok(Flow::Next);
                };
                self.sink.bin_imm(mop, k, d, cv.val, cb.as_i());
                self.release(cv);
                let stored = self.coerce(V::owned(d), co_back);
                self.put(f, n, stored);
                self.slot(f.node(n)).aux = None;
                return done;
            }
            _ => unreachable!("lowering puts Imm steps after a pointer or a place"),
        }
        Ok(Flow::Next)
    }

    #[inline(never)]
    fn assign(
        &mut self,
        f: Frame<'p>,
        n: NodeId,
        lhs: NodeId,
        rhs: NodeId,
        how: AssignHow,
    ) -> V<S> {
        let p = self.place_of(f, lhs);
        let stored = match (how, self.sc.slots[f.node(n)].aux) {
            (AssignHow::Plain(co), _) => self.coerce(self.get(f, rhs), co),
            (AssignHow::Ptr { elem, sub, co_i }, _) => {
                let iv = self.coerce(self.get(f, rhs), co_i);
                let mop = if sub { BinOp::Sub } else { BinOp::Add };
                self.scaled_add(mop, self.get(f, n), iv, elem)
            }
            (
                AssignHow::Op {
                    mop,
                    k,
                    co_rhs,
                    co_back,
                    ..
                },
                Some(d),
            ) => {
                let cv = self.get(f, n);
                let rv = self.coerce(self.get(f, rhs), co_rhs);
                self.sink.bin(mop, k, d, cv.val, rv.val);
                self.release(rv);
                self.release(cv);
                self.coerce(V::owned(d), co_back)
            }
            // A static right-hand side: the `Imm` step stored the result.
            (AssignHow::Op { .. }, None) => self.get(f, n),
        };
        self.store_dyn_place(p, stored.val);
        // Result of the assignment: re-read from the place (narrowed).
        let result = self.load_dyn_place(p);
        self.release(stored);
        self.release_place(p, None);
        result
    }

    /// Emits a call on the arguments pushed since `base`, then releases
    /// them; returns the result temporary (a dummy for `void`).
    fn finish_call(
        &mut self,
        f: Frame<'p>,
        n: NodeId,
        callee: Callee,
        base: usize,
        ret: Option<ValKind>,
    ) -> V<S> {
        let ret = ret.map(|k| (k, self.get(f, n).val));
        let args = &self.sc.args[base..];
        match callee {
            Callee::Builtin(num) => self.sink.hcall(num, args, ret),
            // Dynamic code calls static functions *directly* — the
            // address is a run-time constant at instantiation time.
            Callee::Func(fi) => self
                .sink
                .call_addr(self.input.func_addrs[fi as usize], args, ret),
            // An argument-register-resident target would be clobbered by
            // the moves; targets are temps here, which is safe.
            Callee::Ind(c) => {
                let target = self.get(f, c);
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
        // A void value; give callers a dummy.
        V::owned(ret.map_or_else(|| self.sink.temp(ValKind::W), |(_, d)| d))
    }

    fn push_arg(&mut self, k: ValKind, v: V<S>) {
        self.sc.args.push((k, v.val));
        self.sc.arg_owned.push(v.owned);
    }

    /// The `Compare` step: a branch on a compare's operands.
    #[inline(never)]
    fn compare(&mut self, f: Frame<'p>, n: NodeId) {
        let [lt, lf, ..] = self.sc.slots[f.node(n)].l;
        let Op::Bin { a, b, emit, .. } = f.plan.nodes[n as usize].op else {
            unreachable!("a compare node's step")
        };
        let BinEmit::Arith {
            mop,
            k,
            co_a,
            co_b,
            zero,
            ..
        } = emit
        else {
            unreachable!("a compare node's step")
        };
        // `x == 0` / `x != 0` folds to a truthiness branch on `x` alone
        // (BrTrue/BrFalse compare against the hardwired zero register):
        // the static back end never materializes a zero operand and the
        // dynamic path shouldn't either. Floats keep the generic compare
        // (0.0 is not a bit-pattern test: -0.0 == 0.0).
        if zero != ZeroSide::None {
            let (nz, co) = if zero == ZeroSide::B {
                (a, co_a)
            } else {
                (b, co_b)
            };
            let v = self.coerce(self.get(f, nz), co);
            let on_eq = mop == BinOp::Eq;
            match (lt, lf) {
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
            return self.release(v);
        }
        // (`a` was converted by a `Coerce` step before `b` was emitted.)
        let va = self.get(f, a);
        let vb = self.coerce(self.get(f, b), co_b);
        match (lt, lf) {
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
    }

    // ---- control and statements ------------------------------------------

    /// Label `i` of slot `x`, made by a `Labels` step (a `goto` label is
    /// made where the walk first meets it).
    fn label(&mut self, f: Frame<'p>, x: u32, i: u8) -> S::Lbl {
        let slot = f.extra(x);
        if let Some(l) = self.sc.slots[slot].l[i as usize] {
            return l;
        }
        let l = self.sink.label();
        self.slot(slot).l[i as usize] = Some(l);
        l
    }

    #[inline(never)]
    fn stmt(&mut self, f: Frame<'p>, step: Step) -> Result<Flow<'p>, VmError> {
        let mode = |this: &Self, x: u32| this.sc.slots[f.extra(x)].n;
        match step {
            Step::Labels(x, n) => {
                for i in 0..n as usize {
                    self.slot(f.extra(x)).l[i] = Some(self.sink.label());
                }
            }
            Step::Bind(x, i) => {
                let l = self.label(f, x, i);
                self.sink.bind(l);
            }
            Step::Jmp(x, i) => {
                let l = self.label(f, x, i);
                self.sink.jmp(l);
            }
            Step::Target(n, x, to) => {
                let to = to.map(|i| i.map(|i| self.label(f, x, i)));
                self.set_to(f, n, to);
            }
            Step::Skip(x, end) if mode(self, x) == STATIC => return Ok(Flow::Jump(end)),
            Step::Skip(..) => {}
            // jump(l): emit a jump to a dynamic label.
            Step::Jump(cap) => {
                let addr = self.field(f, cap);
                if self.mem.load_u64(addr)? != LABEL_MARKER {
                    return Err(host_err("jump() target is not a dynamic label object"));
                }
                let (lbl, _) = self.dyn_label(addr);
                self.sink.jmp(lbl);
            }
            Step::Decl(d, end) => {
                // A static initializer keeps the local a derived run-time
                // constant until a dynamic write demotes it.
                if let Some(cv) = self.eval_static(d.init, f, false)? {
                    self.slot(f.extra(d.local)).c = Some(cv);
                    return Ok(Flow::Jump(end));
                }
            }
            Step::Store(d) => {
                let v = self.coerce(self.get(f, d.init), d.co);
                let home = self.local_val(f, d.local);
                self.sink.un(UnOp::Mov, d.k, home, v.val);
                self.narrow(home, d.ld);
                self.release(v);
            }
            Step::If(x, c, then, els) => {
                // Dynamic dead code elimination on run-time constants.
                let cv = self.eval_static(c, f, false)?;
                self.slot(f.extra(x)).n = if cv.is_some() { STATIC } else { DYNAMIC };
                if let Some(cv) = cv {
                    return Ok(Flow::Jump(if cv.truthy() { then } else { els }));
                }
            }
            Step::For(x, u, test) => {
                // Try the static (unrollable) pattern first.
                let u = u.map(|i| f.plan.unrolls[i as usize]);
                let unrolls = self.try_unroll(u, f)?;
                self.slot(f.extra(x)).n = if unrolls { 0 } else { DYNAMIC };
                if unrolls {
                    return Ok(Flow::Jump(test));
                }
            }
            Step::Loop(x, brk, cont) => {
                let (top, brk, cont) = (
                    self.label(f, x, 0),
                    self.label(f, x, brk),
                    self.label(f, x, cont),
                );
                self.sink.loop_begin();
                self.sink.bind(top);
                self.sc.break_stack.push(brk);
                self.sc.continue_stack.push(cont);
            }
            Step::Next(x, Some(u), test) if mode(self, x) >= 0 => {
                let u = f.plan.unrolls[u as usize];
                let slot = f.extra(u.k);
                let cur = self.sc.slots[slot].c.expect("induction var is static");
                let next = (self.advance(u, cur, f)?)
                    .ok_or_else(|| host_err("loop step became dynamic during unrolling"))?;
                self.slot(slot).c = Some(next);
                self.slot(f.extra(x)).n += 1;
                self.stats.unrolled_iters += 1;
                if mode(self, x) as u64 > UNROLL_LIMIT {
                    return Err(host_err(
                        "dynamic loop unrolling exceeded the iteration limit",
                    ));
                }
                return Ok(Flow::Jump(test));
            }
            Step::Next(..) => {
                self.sc.break_stack.pop();
                self.sc.continue_stack.pop();
            }
            Step::LoopEnd => self.sink.loop_end(),
            Step::Test(x, Some(u), body) if mode(self, x) >= 0 => {
                let u = f.plan.unrolls[u as usize];
                let Some(c) = self.eval_static(u.cond, f, false)? else {
                    // The body demoted something the condition needs;
                    // this is not recoverable mid-unroll.
                    return Err(host_err(
                        "loop condition became dynamic during unrolling; \
                         restructure the dynamic code",
                    ));
                };
                if c.truthy() {
                    return Ok(Flow::Jump(body));
                }
            }
            Step::Test(..) => {}
            Step::Return(e, co) => match (e, self.ret_kind) {
                (Some(e), Some(k)) => {
                    // Coerce to the kind compile() declared.
                    let v = self.coerce(self.get(f, e), co[k.code() as usize]);
                    self.sink.ret_val(k, v.val);
                    self.release(v);
                }
                (Some(e), None) => {
                    self.release(self.get(f, e));
                    self.sink.ret_void();
                }
                (None, _) => self.sink.ret_void(),
            },
            Step::Break | Step::Continue => {
                let (stack, what) = match step {
                    Step::Break => (&self.sc.break_stack, "break"),
                    _ => (&self.sc.continue_stack, "continue"),
                };
                let l = *(stack.last())
                    .ok_or_else(|| host_err(format!("{what} outside loop in dynamic code")))?;
                self.sink.jmp(l);
            }
            Step::Switch(x, scrut, cases, end) => {
                // Run-time constant scrutinee: emit only the chosen arm,
                // honoring fallthrough and `break`.
                let Some(cv) = self.eval_static(scrut, f, false)? else {
                    return Ok(Flow::Next);
                };
                let lend = self.sink.label();
                self.slot(f.extra(x)).l[0] = Some(lend);
                let cases = &f.plan.cases[cases.range()];
                // The entry point: the matching case, else default.
                let start = (cases.iter())
                    .position(|&(c, _)| c == Some(cv.as_i()))
                    .or_else(|| cases.iter().position(|&(c, _)| c.is_none()));
                let Some(start) = start else {
                    self.slot(f.extra(x)).n = NO_ARM;
                    return Ok(Flow::Jump(end));
                };
                self.sc.break_stack.push(lend);
                self.slot(f.extra(x)).n = STATIC;
                return Ok(Flow::Jump(cases[start].1));
            }
            Step::Dispatch(x, scrut, cases) => {
                let k = f.plan.nodes[scrut as usize].k;
                let sv = self.get(f, scrut);
                let lend = self.sink.label();
                self.slot(f.extra(x)).l[0] = Some(lend);
                // This switch's case labels, in item order, above any
                // enclosing switch's.
                let base = self.sc.case_labels.len();
                let cases = &f.plan.cases[cases.range()];
                for _ in cases {
                    let l = self.sink.label();
                    self.sc.case_labels.push(l);
                }
                let mut default = lend;
                for (&(v, _), &l) in cases.iter().zip(&self.sc.case_labels[base..]) {
                    let Some(v) = v else {
                        default = l;
                        continue;
                    };
                    let c = self.sink.temp(k);
                    self.sink.li(c, v);
                    self.sink.br_cmp(BinOp::Eq, k, sv.val, c, l);
                    self.sink.release(c);
                }
                self.release(sv);
                self.sink.jmp(default);
                self.sc.break_stack.push(lend);
                self.slot(f.extra(x)).n = base as i64;
            }
            Step::Case(x, i) if mode(self, x) >= 0 => {
                let l = self.sc.case_labels[(mode(self, x) + i as i64) as usize];
                self.sink.bind(l);
            }
            Step::Case(..) => {}
            Step::SwitchEnd(x) => {
                let base = mode(self, x);
                if base >= 0 {
                    self.sc.case_labels.truncate(base as usize);
                }
                if base != NO_ARM {
                    self.sc.break_stack.pop();
                }
                let lend = self.label(f, x, 0);
                self.sink.bind(lend);
            }
            Step::Fail(m) => return Err(host_err(f.plan.msgs[m as usize].as_str())),
            _ => unreachable!("an expression step runs in `step`"),
        }
        Ok(Flow::Next)
    }

    /// Whether a `for` unrolls in this instantiation: its shape was
    /// checked at lowering; what is left is whether its bounds are
    /// run-time constants now. If so, its variable holds its initial
    /// value.
    fn try_unroll(&mut self, u: Option<UnrollPlan>, f: Frame<'p>) -> Result<bool, VmError> {
        let (Some(u), true) = (u, self.input.enable_unroll) else {
            return Ok(false);
        };
        let slot = f.extra(u.k);
        // The induction variable must not already be dynamic.
        if self.sc.slots[slot].val.is_some() {
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
        self.slot(slot).c = Some(init_cv);
        let mut trips: u64 = 0;
        let fits = loop {
            let Some(c) = self.eval_static(u.cond, f, false)? else {
                break false;
            };
            if !c.truthy() {
                break true;
            }
            trips += 1;
            if trips > UNROLL_TRIP_LIMIT {
                break false;
            }
            let cur = self.sc.slots[slot].c.expect("induction var is static");
            match self.advance(u, cur, f)? {
                Some(next) => self.slot(slot).c = Some(next),
                None => break false,
            }
        };
        self.slot(slot).c = fits.then_some(init_cv);
        Ok(fits)
    }

    /// Applies a static loop step to the induction variable's current
    /// value; `None` when the step is not statically evaluable.
    fn advance(&mut self, u: UnrollPlan, cur: Cv, f: Frame<'p>) -> Result<Option<Cv>, VmError> {
        Ok(match u.step {
            Advance::IncDec(inc) => {
                let d: i64 = if inc { 1 } else { -1 };
                Some(match cur {
                    Cv::I(v) if u.w => Cv::I((v as i32).wrapping_add(d as i32) as i64),
                    Cv::I(v) => Cv::I(v.wrapping_add(d)),
                    Cv::F(v) => Cv::F(v + d as f64),
                })
            }
            Advance::AssignOp(fold, rhs) => match self.eval_static(rhs, f, false)? {
                Some(rv) => eval_bin(fold, cur, rv),
                None => None,
            },
            Advance::Reassign(rhs) => self.eval_static(rhs, f, false)?,
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
