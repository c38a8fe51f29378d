//! CGF plans: a tick expression lowered once, for every instantiation.
//!
//! tcc turns each tick expression into a code-generating function at
//! static compile time, so that at instantiation "almost all the time is
//! spent actually emitting binary code". The plan is this reproduction's
//! CGF: [`lower`] walks a [`TickDef`]'s typed AST once per session and
//! leaves a linear [`Step`] sequence over numbered temporaries. Each
//! temporary is a [`Node`] in which everything that depends only on the
//! tick is a field — value kinds, load/store kinds, element sizes, the
//! coercion between a child and its parent, the machine operation and
//! its swapped form, whether a subtree can ever be a run-time constant,
//! capture slots, a `for`'s unroll candidacy. The steps fix the order of
//! evaluation once: operands come before the step that consumes them, a
//! fold check sits at each subtree that may be a run-time constant, a
//! static `if`/`for`/`switch` is jumps within the sequence, and a splice
//! is one step. The walker in [`crate::dyncomp`] runs the sequence
//! against a [`CodeSink`](tcc_vcode::CodeSink) in one loop and never
//! sees a `Type`, an `Expr` or a name.
//!
//! The plan also carries what the closure scan before a compile needs
//! (`fingerprint`): each capture's kind, and whether a `$` operand reads
//! memory. This module is the only one in the crate's product code that
//! reads a tick's AST.

use std::sync::Arc;
use tcc_front::ast::*;
use tcc_front::types::{StructDef, Type};
use tcc_front::Program;
use tcc_mir::lower::machine_binop;
use tcc_rt::{hcalls, ValKind};
use tcc_vcode::ops::{BinOp, LoadKind, StoreKind};

/// Index of a node in [`TickPlan::nodes`]: the number of the temporary
/// its step fills.
pub(crate) type NodeId = u32;
/// Index of a step in [`TickPlan::code`].
pub(crate) type At = u32;

/// A run of consecutive entries in one of the plan's side tables.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// Appends `items` to `table` as one run.
    fn of<T>(table: &mut Vec<T>, items: Vec<T>) -> Span {
        let (start, len) = (table.len() as u32, items.len() as u32);
        table.extend(items);
        Span { start, len }
    }

    pub(crate) fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Node flag: static evaluation outside a `$` operand always fails.
pub(crate) const NS_OUT: u8 = 1;
/// Node flag: static evaluation inside a `$` operand always fails.
pub(crate) const NS_IN: u8 = 2;
/// Node flag: the subtree mentions a composed cspec (§5.1 ordering).
pub(crate) const HAS_CSPEC: u8 = 4;
const NS: u8 = NS_OUT | NS_IN;

/// The conversion step between a value's type and the type its
/// consumer wants, decided from the two types at lowering.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Co {
    /// Same representation.
    None,
    FtoW,
    /// Float to a 64-bit kind.
    FtoL(ValKind),
    /// W to float; the W is unsigned.
    WtoF(bool),
    LtoF,
    /// Zero-extend an unsigned W into a 64-bit kind.
    Zext(ValKind),
    /// Move into a fresh W and re-canonicalize it as the sub-`int` type
    /// that loads this way (a no-op for the 32-bit loads).
    MovNarrow(LoadKind),
    /// One side is not a register value (`void`, a struct): ill-typed
    /// code sema should have rejected.
    NotReg,
}

/// How a place of some type is read and written.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Access {
    pub k: ValKind,
    /// Also how a register holding the type is narrowed after a write.
    pub ld: LoadKind,
    pub st: StoreKind,
    /// Array or struct: the "value" is the address.
    pub agg: bool,
}

/// How two run-time constants combine under a binary operator.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fold {
    LogAnd,
    LogOr,
    /// Operands convert to `double`.
    Float(BinaryOp),
    /// Pointer plus (or, `true`, minus) an integer scaled by the
    /// pointee size.
    Ptr(i64, bool),
    Int(BinOp, ValKind),
}

/// Which operand of an `==`/`!=` is the literal zero, when the compare
/// can branch on the other operand's truthiness alone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum ZeroSide {
    None,
    A,
    B,
}

/// How a binary operator is emitted when it does not fold.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BinEmit {
    /// `&&` (`true`) or `||` as a value.
    Logic(bool),
    /// Pointer ± integer; `swapped` when the source wrote `i + p`.
    PtrArith {
        swapped: bool,
        elem: i64,
        sub: bool,
        co_i: Co,
    },
    /// Pointer minus pointer, in pointees of this size.
    PtrDiff(i64),
    Arith {
        mop: BinOp,
        /// `mop` with its operands exchanged, where one exists.
        sw: Option<BinOp>,
        k: ValKind,
        cmp: bool,
        co_a: Co,
        co_b: Co,
        zero: ZeroSide,
    },
}

/// What a compound or plain assignment does between load and store.
#[derive(Clone, Copy, Debug)]
pub(crate) enum AssignHow {
    Plain(Co),
    /// `p += i` / `p -= i`.
    Ptr {
        elem: i64,
        sub: bool,
        co_i: Co,
    },
    Op {
        mop: BinOp,
        k: ValKind,
        co_cur: Co,
        co_rhs: Co,
        co_back: Co,
    },
}

/// A call's target.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Callee {
    /// Host call number of a builtin.
    Builtin(u32),
    /// Static function, by index.
    Func(u32),
    Ind(NodeId),
}

/// One argument of a call: its expression, the conversion to the
/// parameter's type and the kind it is passed as.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ArgPlan {
    pub node: NodeId,
    pub co: Co,
    pub k: ValKind,
}

/// A lowered expression. Operands are in source order.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    Int(i64),
    Float(f64),
    Dollar(NodeId),
    /// `$`-bound capture (closure field, is a double): the field is the
    /// value.
    Rtc(u32, bool),
    /// Dynamic local of the tick, by index: a derived run-time constant
    /// until a dynamic write demotes it.
    Local(u32, Access),
    /// Composed vspec, by closure field.
    Vspec(u32, Access),
    /// Free variable of the enclosing function, by closure field (its
    /// address).
    FreeVar(u32, Access),
    /// Global, by index.
    Global(u32, Access),
    Func(u32),
    /// String literal, at its address in the static image's data.
    Str(u64),
    Cspec(u32),
    Deref(NodeId, Access),
    /// `*fp` of a function pointer: the value is `fp`.
    DerefFn(NodeId),
    AddrOf(NodeId),
    Index {
        base: NodeId,
        idx: NodeId,
        size: i64,
        acc: Access,
        co_idx: Co,
        /// Inside `$`: the pointee's size and load, when `base` is a
        /// pointer.
        elem: Option<(i64, LoadKind)>,
    },
    Member {
        base: NodeId,
        arrow: bool,
        off: i64,
        acc: Access,
    },
    /// `-`, `~` or `!`.
    Un {
        op: UnaryOp,
        a: NodeId,
        co: Co,
        /// Kind of the (decayed) operand — what `!x` compares at.
        ak: ValKind,
    },
    IncDec {
        a: NodeId,
        post: bool,
        k: ValKind,
        delta: i64,
        double: bool,
    },
    Bin {
        a: NodeId,
        b: NodeId,
        fold: Fold,
        emit: BinEmit,
    },
    Assign {
        lhs: NodeId,
        rhs: NodeId,
        how: AssignHow,
    },
    Call {
        callee: Callee,
        args: Span,
        ret: Option<ValKind>,
    },
    Cast {
        a: NodeId,
        co: Co,
        /// How the target type loads: what a constant is truncated to.
        to: LoadKind,
    },
    Cond {
        c: NodeId,
        t: NodeId,
        f: NodeId,
        co_t: Co,
        co_f: Co,
    },
    Comma(NodeId, NodeId),
    Apply {
        list: u32,
        callee: Callee,
    },
    /// Always an error; the message is `msgs[_]`.
    Fail(u32),
}

/// A node: the operation, the kind of its (decayed) type — what a
/// folded constant materializes as and what a result temporary holds —
/// and the `NS_*`/`HAS_CSPEC` flags.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    pub op: Op,
    pub k: ValKind,
    pub flags: u8,
}

/// A declaration with a scalar initializer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DeclPlan {
    pub local: u32,
    pub init: NodeId,
    pub co: Co,
    pub k: ValKind,
    /// How the declared type loads: what narrowing its register needs.
    pub ld: LoadKind,
}

/// How an unrollable loop's step updates the induction variable.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Advance {
    IncDec(bool),
    AssignOp(Fold, NodeId),
    Reassign(NodeId),
}

/// A `for` that may execute at instantiation: `init` binds tick local
/// `k`, the step updates it by a static amount, and the body neither
/// writes it, nor uses labels, nor escapes the loop. Whether the bounds
/// *are* run-time constants is the walker's question.
#[derive(Clone, Copy, Debug)]
pub(crate) struct UnrollPlan {
    pub k: u32,
    pub init: NodeId,
    pub cond: NodeId,
    pub step: Advance,
    /// The induction variable is a W (wrapping 32-bit step).
    pub w: bool,
}

/// One step of a tick's code. An expression step names a node `n`: it
/// reads the slots its operands' steps filled and fills `n`'s. Control
/// and statement steps name an extra slot `x` (see [`TickPlan::extra`])
/// that holds their labels and mode. An `At` is a jump target.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Step {
    /// Run-time constant folding: if `n` is static now, its value is an
    /// immediate and the walk jumps past `n`'s code.
    Fold(NodeId, At),
    /// The same for a branch on `n`: a static condition is a jump to one
    /// of its targets, or nothing.
    FoldBranch(NodeId, At),
    /// `n`'s value, from its operands' (a cspec's is a splice).
    Value(NodeId),
    Place(NodeId),
    /// `n`'s place, loaded. A variable's place is made here too, after
    /// its fold check: a derived run-time constant is an immediate.
    Load(NodeId),
    /// A branch on `n`'s value to the targets in its slot.
    Branch(NodeId),
    /// The same for compare `n`, on its operands.
    Compare(NodeId),
    /// Converts a compare's first operand before the second is emitted.
    Coerce(NodeId, Co),
    /// Releases `n`'s value.
    Drop(NodeId),
    /// Arithmetic `n`: its fold check, unless lowering proved it dynamic
    /// (the jump past `n`'s code is the last field), then strength
    /// reduction's choice of which operand is an immediate, or which is
    /// emitted first; the second's code is at the middle field.
    Arith(NodeId, At, Option<At>),
    /// After `n`'s first (`true`) or second operand: go on, or jump (to
    /// `n`'s `Value`, or back to the first operand's code).
    Then(NodeId, bool, At),
    /// After a place or pointer: a static other operand finishes `n`,
    /// and the walk jumps past that operand's code. `op=` loads here.
    Imm(NodeId, At),
    /// A result temporary for `n` (a `?:`, `&&` or `||` value).
    Temp(NodeId),
    /// Operand `_`'s value, converted, moved into `n`'s temporary.
    Mov(NodeId, NodeId, Co),
    /// 1 (`true`) or 0 into `n`'s temporary.
    Li(NodeId, bool),
    /// `&&`/`||` `n` as a branch: its first operand's targets, with the
    /// label of slot `x` where `n` has none.
    AndOr(NodeId, u32),
    /// Passes `n`'s targets to operand `_` (swapped, for `!`).
    Pass(NodeId, NodeId, bool),
    Arg(ArgPlan),
    /// A call's result temporary, taken before an indirect callee.
    CallRet(NodeId),
    /// `apply`: checks the list (`false`), or splices its next element,
    /// which returns to this step.
    Apply(NodeId, bool),
    /// Makes `_` fresh labels in slot `x`.
    Labels(u32, u8),
    /// Binds, or jumps to, label `_` of slot `x`: one a `Labels` step
    /// made, or a `goto` label's (label 0 of its slot, made where the
    /// walk first meets it).
    Bind(u32, u8),
    Jmp(u32, u8),
    /// Node `_`'s branch targets: labels of slot `x`, when true and when
    /// false.
    Target(NodeId, u32, [Option<u8>; 2]),
    /// A static `if` jumps over its dynamic code.
    Skip(u32, At),
    /// A `void cspec` capture mentioned as a statement.
    Splice(u32),
    /// `jump(l)` to the label object in capture `_`.
    Jump(u32),
    /// A static initializer keeps the local a derived run-time constant
    /// and jumps past the dynamic one's code and `Store`.
    Decl(DeclPlan, At),
    Store(DeclPlan),
    /// `if` on node `c`: a static condition jumps to the `then` or the
    /// `else` arm (`If(x, c, then, els)`).
    If(u32, NodeId, At, At),
    /// A `for` that unrolls now (its candidacy is an entry of
    /// [`TickPlan::unrolls`]) jumps to its `Test`.
    For(u32, Option<u32>, At),
    /// A dynamic loop's top: label 0, with labels `_` and `_` as the
    /// `break` and `continue` targets.
    Loop(u32, u8, u8),
    /// After the body: an unrolling `for` steps its variable and jumps
    /// to its `Test`; a dynamic loop pops its targets.
    Next(u32, Option<u32>, At),
    LoopEnd,
    /// An unrolling `for`'s test: on to its body, or out.
    Test(u32, Option<u32>, At),
    /// `co[k.code()]` converts the value to a `compile(c, T)` of kind `k`.
    Return(Option<NodeId>, [Co; 4]),
    Break,
    Continue,
    /// `switch` on a node: a static scrutinee jumps to its case (the
    /// cases are entries of [`TickPlan::cases`]) or to the end (`At`).
    Switch(u32, NodeId, Span, At),
    /// A dynamic scrutinee's compare chain.
    Dispatch(u32, NodeId, Span),
    /// The `_`-th `case` or `default`.
    Case(u32, u32),
    SwitchEnd(u32),
    /// Always an error; the message is `msgs[_]`.
    Fail(u32),
}

/// What a closure field holds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Cap {
    /// A `$`-bound value (int or double bits).
    Dollar,
    /// The address of a free variable of the enclosing function.
    FreeVar,
    /// A vspec object.
    Vspec,
    /// A composed closure, a label object or an argument list.
    Cspec,
}

/// One tick expression, lowered.
#[derive(Debug, Default)]
pub(crate) struct TickPlan {
    pub nodes: Vec<Node>,
    pub code: Vec<Step>,
    /// Each switch's `case` values (`None` for `default`), with where
    /// the case's code starts.
    pub cases: Vec<(Option<i64>, At)>,
    /// The unroll candidacy of each `for` that has one.
    pub unrolls: Vec<UnrollPlan>,
    pub msgs: Vec<String>,
    /// The node an expression tick's value is in.
    pub value: Option<NodeId>,
    /// The closure's fields, in order.
    pub caps: Vec<Cap>,
    /// Some `$` operand loads VM memory at instantiation (`$row[k]`) or
    /// can never be a run-time constant: the generated code depends on
    /// more than the closure, so a compile of this tick is never keyed.
    pub reads_memory: bool,
    /// Register kind of each dynamic local.
    pub locals: Vec<ValKind>,
    /// Slots past the nodes': the dynamic locals', then one per `goto`
    /// label and per `if`, loop and `switch`, in the order lowering met
    /// them.
    pub extra: u32,
    /// Kind of the evaluation type; `None` for a `void` cspec.
    pub eval_kind: Option<ValKind>,
}

/// Lowers tick `id` of `prog`. `strs[j]` is the address the linker gave
/// the tick's `j`-th string literal.
pub(crate) fn lower(prog: &Program, id: usize, strs: &[u64]) -> TickPlan {
    let tick = &prog.ticks[id];
    let mut l = Lower {
        structs: &prog.structs,
        tick,
        strs,
        labels: Vec::new(),
        args: Vec::new(),
        plan: TickPlan {
            caps: (tick.captures.iter())
                .map(|c| match c.kind {
                    CaptureKind::Dollar(_) => Cap::Dollar,
                    CaptureKind::FreeVar(_) => Cap::FreeVar,
                    CaptureKind::Vspec(_) => Cap::Vspec,
                    CaptureKind::Cspec(_) => Cap::Cspec,
                })
                .collect(),
            locals: tick.dyn_locals.iter().map(|d| reg_kind(&d.ty)).collect(),
            extra: tick.dyn_locals.len() as u32,
            eval_kind: (tick.eval_ty != Type::Void).then(|| reg_kind(&tick.eval_ty)),
            ..TickPlan::default()
        },
    };
    match &tick.body {
        TickBody::Expr(e) => {
            let n = l.expr(e);
            l.value(n);
            l.plan.value = Some(n);
        }
        TickBody::Block(stmts) => {
            for s in stmts {
                l.stmt(s);
            }
        }
    }
    l.plan
}

/// The register kind of `ty` after decay, `None` where there is none.
fn try_kind(ty: &Type) -> Option<ValKind> {
    match ty {
        Type::Void | Type::Struct(_) => None,
        Type::Array(..) => Some(ValKind::P),
        t => Some(t.kind()),
    }
}

/// [`try_kind`], total: a type that never reaches a register gets a
/// placeholder no emission reads.
fn reg_kind(ty: &Type) -> ValKind {
    try_kind(ty).unwrap_or(ValKind::W)
}

/// `ty.size()`, total (`void` and function types have none).
fn size_of(ty: &Type, structs: &[StructDef]) -> i64 {
    match ty {
        Type::Void | Type::Func(_) => 0,
        t => t.size(structs) as i64,
    }
}

/// Size of what a (decayed) pointer type points at.
fn pointee_size(ty: &Type, structs: &[StructDef]) -> i64 {
    match ty {
        Type::Ptr(t) => size_of(t, structs),
        _ => 0,
    }
}

fn load_kind(ty: &Type) -> LoadKind {
    match ty {
        Type::Char => LoadKind::I8,
        Type::UChar => LoadKind::U8,
        Type::Short => LoadKind::I16,
        Type::UShort => LoadKind::U16,
        Type::Int | Type::UInt => LoadKind::I32,
        Type::Long | Type::ULong => LoadKind::I64,
        Type::Double => LoadKind::F64,
        _ => LoadKind::I64,
    }
}

fn store_kind(ty: &Type) -> StoreKind {
    match ty {
        Type::Char | Type::UChar => StoreKind::I8,
        Type::Short | Type::UShort => StoreKind::I16,
        Type::Int | Type::UInt => StoreKind::I32,
        Type::Double => StoreKind::F64,
        _ => StoreKind::I64,
    }
}

fn access(ty: &Type) -> Access {
    Access {
        k: reg_kind(ty),
        ld: load_kind(ty),
        st: store_kind(ty),
        agg: matches!(ty, Type::Array(..) | Type::Struct(_)),
    }
}

/// The type a `compile(c, T)` of kind `k` returns values at.
fn kind_type(k: ValKind) -> Type {
    match k {
        ValKind::W => Type::Int,
        ValKind::D => Type::Long,
        ValKind::P => Type::Ptr(Arc::new(Type::Void)),
        ValKind::F => Type::Double,
    }
}

/// The conversion from `from` to `to` (C's implicit conversions, on the
/// machine's four kinds).
fn coercion(from: &Type, to: &Type, structs: &[StructDef]) -> Co {
    let (from, to) = (from.decay(), to.decay());
    if from == to {
        return Co::None;
    }
    let (Some(fk), Some(tk)) = (try_kind(&from), try_kind(&to)) else {
        return Co::NotReg;
    };
    use ValKind::*;
    match (fk, tk) {
        (F, F) => Co::None,
        (F, W) => Co::FtoW,
        (F, _) => Co::FtoL(tk),
        (W, F) => Co::WtoF(from.is_unsigned()),
        (_, F) => Co::LtoF,
        (W, D | P) if from.is_unsigned() => Co::Zext(tk),
        (W, D | P) => Co::None,
        (D | P, W) => Co::MovNarrow(load_kind(&to)),
        (W, W) => {
            let (ts, fs) = (to.size(structs), from.size(structs));
            let shrink = ts < fs || (ts == fs && to.is_unsigned() != from.is_unsigned() && ts < 4);
            if shrink {
                Co::MovNarrow(load_kind(&to))
            } else {
                Co::None
            }
        }
        (D | P, D | P) => Co::None,
    }
}

/// The operand type a binary operator computes at: the usual arithmetic
/// conversions, or the (decayed) left type for pointers.
fn common_type(ta: &Type, tb: &Type) -> Type {
    let (ta, tb) = (ta.decay(), tb.decay());
    if ta.is_arith() && tb.is_arith() {
        ta.usual_arith(&tb)
    } else {
        ta
    }
}

fn fold_of(op: BinaryOp, ta: &Type, tb: &Type, structs: &[StructDef]) -> Fold {
    match op {
        BinaryOp::LogAnd => return Fold::LogAnd,
        BinaryOp::LogOr => return Fold::LogOr,
        _ => {}
    }
    let common = common_type(ta, tb);
    if common == Type::Double {
        Fold::Float(op)
    } else if common.is_ptr() && matches!(op, BinaryOp::Add | BinaryOp::Sub) {
        Fold::Ptr(pointee_size(&common, structs), op == BinaryOp::Sub)
    } else {
        Fold::Int(machine_binop(op, &common), reg_kind(&common))
    }
}

fn builtin_hcall(b: Builtin) -> u32 {
    match b {
        Builtin::Puts => hcalls::HC_PUTS,
        Builtin::Puti => hcalls::HC_PUTINT,
        Builtin::Putd => hcalls::HC_PUTF,
        Builtin::Putchar => hcalls::HC_PUTCHAR,
        Builtin::Printf => hcalls::HC_PRINTF,
        Builtin::Malloc => hcalls::HC_MALLOC,
        Builtin::Abort => hcalls::HC_ABORT,
    }
}

fn is_local(e: &Expr, k: usize) -> bool {
    matches!(e.kind, ExprKind::Var(VarRef::TickLocal(i)) if i == k)
}

struct Lower<'a> {
    structs: &'a [StructDef],
    tick: &'a TickDef,
    strs: &'a [u64],
    /// `goto` labels met so far, with their slots.
    labels: Vec<(&'a str, u32)>,
    /// Call arguments, by `Op::Call::args`.
    args: Vec<ArgPlan>,
    plan: TickPlan,
}

impl<'a> Lower<'a> {
    fn node(&mut self, op: Op, k: ValKind, flags: u8) -> NodeId {
        self.plan.nodes.push(Node { op, k, flags });
        self.plan.nodes.len() as NodeId - 1
    }

    fn flags(&self, n: NodeId) -> u8 {
        self.plan.nodes[n as usize].flags
    }

    /// True if static evaluation of `n` inside a `$` operand may load
    /// from VM memory: what the walker's `eval_static` does there for a
    /// scalar global or an index.
    fn loads(&self, n: NodeId) -> bool {
        match self.plan.nodes[n as usize].op {
            Op::Global(_, acc) => !acc.agg,
            Op::Index { .. } => true,
            Op::Dollar(a) | Op::Un { a, .. } | Op::Cast { a, .. } => self.loads(a),
            Op::Bin { a, b, .. } => self.loads(a) || self.loads(b),
            Op::Cond { c, t, f, .. } => self.loads(c) || self.loads(t) || self.loads(f),
            _ => false,
        }
    }

    fn msg(&mut self, m: String) -> u32 {
        self.plan.msgs.push(m);
        self.plan.msgs.len() as u32 - 1
    }

    fn co(&self, from: &Type, to: &Type) -> Co {
        coercion(from, to, self.structs)
    }

    fn expr(&mut self, e: &'a Expr) -> NodeId {
        self.lower(e, false)
    }

    fn lvalue(&mut self, e: &'a Expr) -> NodeId {
        self.lower(e, true)
    }

    /// Lowers `e` as a value, or — `as_place` — as the operand of an
    /// assignment, `&`, `++`/`--` or `.`: there only lvalue forms are
    /// legal, and `*fp` is a memory place like any other dereference.
    fn lower(&mut self, e: &'a Expr, as_place: bool) -> NodeId {
        let (k, acc) = (reg_kind(&e.ty), access(&e.ty));
        let (op, flags, lvalue) = match &e.kind {
            ExprKind::IntLit(v) => (Op::Int(*v), 0, false),
            ExprKind::FloatLit(v) => (Op::Float(*v), 0, false),
            ExprKind::StrLit(bytes) => {
                let j = self.tick.str_lits.iter().position(|s| s == bytes);
                let addr = self.strs[j.expect("sema lists every literal of the body")];
                (Op::Str(addr), NS, false)
            }
            ExprKind::Dollar(inner) => {
                let a = self.expr(inner);
                let f = self.flags(a);
                if f & NS_IN != 0 || self.loads(a) {
                    self.plan.reads_memory = true;
                }
                let ns = if f & NS_IN != 0 { NS } else { 0 };
                (Op::Dollar(a), ns | f & HAS_CSPEC, false)
            }
            ExprKind::Var(VarRef::TickRtc(i)) => {
                let float = reg_kind(&self.tick.captures[*i].ty) == ValKind::F;
                (Op::Rtc(*i as u32, float), 0, false)
            }
            ExprKind::Var(VarRef::TickLocal(i)) => (Op::Local(*i as u32, acc), 0, true),
            ExprKind::Var(VarRef::TickVspec(i)) => (Op::Vspec(*i as u32, acc), NS, true),
            ExprKind::Var(VarRef::TickFv(i)) => (Op::FreeVar(*i as u32, acc), NS, true),
            ExprKind::Var(VarRef::Global(g)) => (Op::Global(*g as u32, acc), NS_OUT, true),
            ExprKind::Var(VarRef::Func(f)) => (Op::Func(*f as u32), 0, false),
            ExprKind::Var(VarRef::TickCspec(i)) => (Op::Cspec(*i as u32), NS | HAS_CSPEC, false),
            ExprKind::Un(UnaryOp::Deref, inner) => {
                let a = self.expr(inner);
                let flags = NS | self.flags(a) & HAS_CSPEC;
                if !as_place && matches!(e.ty, Type::Func(_)) {
                    (Op::DerefFn(a), flags, false)
                } else {
                    (Op::Deref(a, acc), flags, true)
                }
            }
            ExprKind::Un(UnaryOp::Addr, inner) => {
                let a = self.lvalue(inner);
                (Op::AddrOf(a), NS | self.flags(a) & HAS_CSPEC, false)
            }
            ExprKind::Un(op, inner) => {
                let a = self.expr(inner);
                let (op, co, ak) = (*op, self.co(&inner.ty, &e.ty), reg_kind(&inner.ty));
                (Op::Un { op, a, co, ak }, self.flags(a), false)
            }
            ExprKind::PreIncDec(inner, inc) | ExprKind::PostIncDec(inner, inc) => {
                let ty = inner.ty.decay();
                let delta = if ty.is_ptr() {
                    pointee_size(&ty, self.structs)
                } else {
                    1
                };
                let op = Op::IncDec {
                    a: self.lvalue(inner),
                    post: matches!(e.kind, ExprKind::PostIncDec(..)),
                    k: reg_kind(&ty),
                    delta: if *inc { delta } else { -delta },
                    double: ty == Type::Double,
                };
                (op, NS, false)
            }
            ExprKind::Bin(op, a, b) => self.binary(*op, a, b, e),
            ExprKind::Assign(op, lhs, rhs) => {
                let (l, r) = (self.lvalue(lhs), self.expr(rhs));
                let how = self.assign_how(*op, &lhs.ty, &rhs.ty);
                let flags = NS | (self.flags(l) | self.flags(r)) & HAS_CSPEC;
                (
                    Op::Assign {
                        lhs: l,
                        rhs: r,
                        how,
                    },
                    flags,
                    false,
                )
            }
            ExprKind::Call(callee, args) => self.call(callee, args, e),
            ExprKind::Index(base, idx) => {
                let (b, i) = (self.expr(base), self.expr(idx));
                let (fb, fi) = (self.flags(b), self.flags(i));
                let elem = match base.ty.decay() {
                    Type::Ptr(t) => Some((size_of(&t, self.structs), load_kind(&t))),
                    _ => None,
                };
                let op = Op::Index {
                    base: b,
                    idx: i,
                    size: size_of(&e.ty, self.structs),
                    acc,
                    co_idx: self.co(&idx.ty, &Type::Long),
                    elem,
                };
                (op, NS_OUT | (fb | fi) & (NS_IN | HAS_CSPEC), true)
            }
            ExprKind::Member(base, _, arrow, offset) => {
                let b = if *arrow {
                    self.expr(base)
                } else {
                    self.lvalue(base)
                };
                let op = Op::Member {
                    base: b,
                    arrow: *arrow,
                    off: *offset as i64,
                    acc,
                };
                (op, NS | self.flags(b) & HAS_CSPEC, true)
            }
            ExprKind::Cast(ty, inner) => {
                let a = self.expr(inner);
                let (co, to) = (self.co(&inner.ty, ty), load_kind(ty));
                (Op::Cast { a, co, to }, self.flags(a), false)
            }
            ExprKind::Cond(c, t, f) => {
                let (cn, tn, fn_) = (self.expr(c), self.expr(t), self.expr(f));
                let (fc, ft, ff) = (self.flags(cn), self.flags(tn), self.flags(fn_));
                let op = Op::Cond {
                    c: cn,
                    t: tn,
                    f: fn_,
                    co_t: self.co(&t.ty, &e.ty),
                    co_f: self.co(&f.ty, &e.ty),
                };
                // Static when the condition is and the chosen arm is.
                let ns = (fc | ft & ff) & NS;
                (op, ns | (fc | ft | ff) & HAS_CSPEC, false)
            }
            ExprKind::Comma(a, b) => {
                let (a, b) = (self.expr(a), self.expr(b));
                let has = (self.flags(a) | self.flags(b)) & HAS_CSPEC;
                (Op::Comma(a, b), NS | has, false)
            }
            ExprKind::Apply(f, l) => match &l.kind {
                ExprKind::Var(VarRef::TickCspec(i)) => {
                    let callee = match &f.kind {
                        ExprKind::Var(VarRef::Func(fi)) => Callee::Func(*fi as u32),
                        _ => Callee::Ind(self.expr(f)),
                    };
                    let list = *i as u32;
                    (Op::Apply { list, callee }, NS, false)
                }
                _ => {
                    let m = self.msg("apply() argument list must be captured".into());
                    (Op::Fail(m), NS, false)
                }
            },
            ExprKind::JumpForm(_) => {
                let m = self.msg("jump() cannot be used as a value".into());
                (Op::Fail(m), NS, false)
            }
            other => {
                let m = self.msg(format!("unsupported in dynamic code: {other:?}"));
                (Op::Fail(m), NS, false)
            }
        };
        if as_place && !lvalue {
            let m = self.msg(format!("not an lvalue in dynamic code: {:?}", e.kind));
            return self.node(Op::Fail(m), k, flags);
        }
        self.node(op, k, flags)
    }

    fn binary(&mut self, op: BinaryOp, a: &'a Expr, b: &'a Expr, e: &Expr) -> (Op, u8, bool) {
        use BinaryOp::*;
        let (an, bn) = (self.expr(a), self.expr(b));
        let flags = self.flags(an) | self.flags(bn);
        let (ta, tb) = (a.ty.decay(), b.ty.decay());
        let fold = fold_of(op, &a.ty, &b.ty, self.structs);
        let emit = if matches!(op, LogAnd | LogOr) {
            BinEmit::Logic(op == LogAnd)
        } else if matches!(op, Add | Sub) && ta.is_ptr() && tb.is_integer() {
            BinEmit::PtrArith {
                swapped: false,
                elem: pointee_size(&ta, self.structs),
                sub: op == Sub,
                co_i: self.co(&tb, &Type::Long),
            }
        } else if op == Add && ta.is_integer() && tb.is_ptr() {
            BinEmit::PtrArith {
                swapped: true,
                elem: pointee_size(&tb, self.structs),
                sub: false,
                co_i: self.co(&ta, &Type::Long),
            }
        } else if op == Sub && ta.is_ptr() && tb.is_ptr() {
            BinEmit::PtrDiff(pointee_size(&ta, self.structs))
        } else {
            let cmp = matches!(op, Lt | Gt | Le | Ge | Eq | Ne);
            let common = if cmp {
                common_type(&ta, &tb)
            } else {
                e.ty.clone()
            };
            let k = reg_kind(&common);
            let mop = machine_binop(op, &common);
            let zero_lit = |e: &Expr| matches!(e.kind, ExprKind::IntLit(0));
            let zero = if !matches!(op, Eq | Ne) || k == ValKind::F {
                ZeroSide::None
            } else if zero_lit(b) {
                ZeroSide::B
            } else if zero_lit(a) {
                ZeroSide::A
            } else {
                ZeroSide::None
            };
            BinEmit::Arith {
                mop,
                sw: mop.swapped(),
                k,
                cmp,
                co_a: self.co(&ta, &common),
                co_b: self.co(&tb, &common),
                zero,
            }
        };
        let op = Op::Bin {
            a: an,
            b: bn,
            fold,
            emit,
        };
        (op, flags, false)
    }

    fn assign_how(&self, op: Option<BinaryOp>, lhs: &Type, rhs: &Type) -> AssignHow {
        let Some(op) = op else {
            return AssignHow::Plain(self.co(rhs, lhs));
        };
        let (ta, tb) = (lhs.decay(), rhs.decay());
        if ta.is_ptr() {
            return AssignHow::Ptr {
                elem: pointee_size(&ta, self.structs),
                sub: op != BinaryOp::Add,
                co_i: self.co(&tb, &Type::Long),
            };
        }
        let common = common_type(&ta, &tb);
        AssignHow::Op {
            mop: machine_binop(op, &common),
            k: reg_kind(&common),
            co_cur: self.co(&ta, &common),
            co_rhs: self.co(&tb, &common),
            co_back: self.co(&common, lhs),
        }
    }

    fn call(&mut self, callee: &'a Expr, args: &'a [Expr], e: &Expr) -> (Op, u8, bool) {
        let sig = match callee.ty.decay() {
            Type::Ptr(inner) => match &*inner {
                Type::Func(sig) if sig.params.len() == args.len() => Some(sig.clone()),
                _ => None,
            },
            _ => None,
        };
        let mut has = 0;
        let mut plans = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let node = self.expr(a);
            has |= self.flags(node);
            let ty = sig
                .as_ref()
                .map_or_else(|| a.ty.decay(), |sig| sig.params[i].clone());
            plans.push(ArgPlan {
                node,
                co: self.co(&a.ty, &ty),
                k: reg_kind(&ty),
            });
        }
        // Appended only now: a nested call's entries are complete, so
        // these stay contiguous.
        let span = Span::of(&mut self.args, plans);
        let callee = match &callee.kind {
            ExprKind::Var(VarRef::Builtin(b)) => Callee::Builtin(builtin_hcall(*b)),
            ExprKind::Var(VarRef::Func(fi)) => Callee::Func(*fi as u32),
            _ => {
                let c = self.expr(callee);
                has |= self.flags(c);
                Callee::Ind(c)
            }
        };
        let op = Op::Call {
            callee,
            args: span,
            ret: (e.ty != Type::Void).then(|| reg_kind(&e.ty)),
        };
        (op, NS | has & HAS_CSPEC, false)
    }

    // ---- steps -------------------------------------------------------------

    fn step(&mut self, s: Step) -> At {
        self.plan.code.push(s);
        self.plan.code.len() as At - 1
    }

    fn steps(&mut self, steps: &[Step]) {
        self.plan.code.extend_from_slice(steps);
    }

    fn here(&self) -> At {
        self.plan.code.len() as At
    }

    /// Points the jump of the step at `at` at the next step to come.
    fn patch(&mut self, at: At) {
        let here = self.here();
        match &mut self.plan.code[at as usize] {
            Step::Fold(_, to)
            | Step::FoldBranch(_, to)
            | Step::Arith(_, _, Some(to))
            | Step::Then(_, _, to)
            | Step::Imm(_, to)
            | Step::Decl(_, to)
            | Step::Skip(_, to) => *to = here,
            _ => unreachable!("step {at} has no jump to patch"),
        }
    }

    /// Emits the steps that leave `n`'s value in its slot (`branch`: a
    /// branch on it to the targets its parent's step puts there): a fold
    /// check unless `n` can never be static outside `$`, the operands'
    /// steps, then `n`'s.
    fn emit(&mut self, n: NodeId, branch: bool) {
        let op = self.plan.nodes[n as usize].op;
        // (A variable's `Load` is its fold check too.)
        let var = matches!(
            op,
            Op::Local(..) | Op::Vspec(..) | Op::FreeVar(..) | Op::Global(..)
        );
        let check = if branch {
            Step::FoldBranch(n, 0)
        } else {
            Step::Fold(n, 0)
        };
        // (An arithmetic value's fold check is its `Arith` step's.)
        let arith = matches!(
            op,
            Op::Bin {
                emit: BinEmit::Arith { .. },
                ..
            }
        );
        let own = self.flags(n) & NS_OUT == 0 && (branch || !(var || arith));
        let mut fold = own.then(|| self.step(check));
        let last = match (op, branch) {
            (Op::Bin { a, b, emit, .. }, true) => match emit {
                BinEmit::Arith {
                    cmp: true,
                    zero,
                    co_a,
                    ..
                } => {
                    match zero {
                        ZeroSide::B => self.value(a),
                        ZeroSide::A => self.value(b),
                        ZeroSide::None => {
                            self.value(a);
                            if co_a != Co::None {
                                self.step(Step::Coerce(a, co_a));
                            }
                            self.value(b);
                        }
                    }
                    Some(Step::Compare(n))
                }
                BinEmit::Logic(_) => {
                    let x = self.labels(1);
                    self.step(Step::AndOr(n, x));
                    self.branch(a);
                    self.step(Step::Pass(n, b, false));
                    self.branch(b);
                    Some(Step::Bind(x, 0))
                }
                _ => self.generic_branch(n),
            },
            (
                Op::Un {
                    op: UnaryOp::LogNot,
                    a,
                    ..
                },
                true,
            ) => {
                self.step(Step::Pass(n, a, true));
                self.branch(a);
                None
            }
            (_, true) => self.generic_branch(n),
            // Always run-time constants: the fold check is all.
            (Op::Int(_) | Op::Float(_) | Op::Rtc(..) | Op::Func(_), _) => None,
            (Op::Local(..) | Op::Vspec(..) | Op::FreeVar(..) | Op::Global(..), _) => {
                Some(Step::Load(n))
            }
            (Op::Index { .. } | Op::Member { .. } | Op::Deref(..), _) => {
                self.place(n);
                Some(Step::Load(n))
            }
            (Op::DerefFn(a) | Op::Un { a, .. } | Op::Cast { a, .. }, _) => {
                self.value(a);
                Some(Step::Value(n))
            }
            (Op::AddrOf(a) | Op::IncDec { a, .. }, _) => {
                self.place(a);
                Some(Step::Value(n))
            }
            (Op::Bin { a, b, emit, .. }, _) => match emit {
                BinEmit::Logic(_) => {
                    // The value is a branch on it, to 1 or 0.
                    self.step(Step::Temp(n));
                    let x = self.labels(3);
                    self.step(Step::Target(n, x, [Some(0), Some(1)]));
                    self.branch(n);
                    self.steps(&[Step::Bind(x, 0), Step::Li(n, true), Step::Jmp(x, 2)]);
                    self.steps(&[Step::Bind(x, 1), Step::Li(n, false)]);
                    Some(Step::Bind(x, 2))
                }
                BinEmit::PtrArith { swapped, .. } => {
                    let (p, i) = if swapped { (b, a) } else { (a, b) };
                    self.value(p);
                    let imm = self.step(Step::Imm(n, 0));
                    self.value(i);
                    self.step(Step::Value(n));
                    self.patch(imm);
                    None
                }
                BinEmit::PtrDiff(_) => {
                    self.value(a);
                    self.value(b);
                    Some(Step::Value(n))
                }
                BinEmit::Arith { k, cmp, .. } => {
                    // A `Then` only where `b` may be an immediate, or go
                    // first (cspec first).
                    let (fa, fb) = (self.flags(a), self.flags(b));
                    let first = fb & HAS_CSPEC != 0 && fa & HAS_CSPEC == 0;
                    let imm_b = k != ValKind::F && !cmp && fb & NS_OUT == 0;
                    let end = (self.flags(n) & NS_OUT == 0).then_some(0);
                    let pre = self.step(Step::Arith(n, 0, end));
                    fold = end.map(|_| pre);
                    self.value(a);
                    let then = (imm_b || first).then(|| self.step(Step::Then(n, true, 0)));
                    self.plan.code[pre as usize] = Step::Arith(n, self.here(), end);
                    self.value(b);
                    if first {
                        self.step(Step::Then(n, false, pre + 1));
                    }
                    if let Some(at) = then {
                        self.patch(at);
                    }
                    Some(Step::Value(n))
                }
            },
            (Op::Assign { lhs, rhs, how }, _) => {
                self.place(lhs);
                let imm = !matches!(how, AssignHow::Plain(_));
                let imm = imm.then(|| self.step(Step::Imm(n, 0)));
                self.value(rhs);
                if let Some(at) = imm {
                    self.patch(at);
                }
                Some(Step::Value(n))
            }
            (Op::Call { callee, args, .. }, _) => {
                for i in args.range() {
                    let arg = self.args[i];
                    self.value(arg.node);
                    self.step(Step::Arg(arg));
                }
                self.call_tail(n, callee)
            }
            (Op::Apply { callee, .. }, _) => {
                self.step(Step::Apply(n, false));
                self.step(Step::Apply(n, true));
                self.call_tail(n, callee)
            }
            (
                Op::Cond {
                    c,
                    t,
                    f,
                    co_t,
                    co_f,
                },
                _,
            ) => {
                self.step(Step::Temp(n));
                let x = self.labels(2);
                self.step(Step::Target(c, x, [None, Some(0)]));
                self.branch(c);
                self.value(t);
                self.steps(&[Step::Mov(n, t, co_t), Step::Jmp(x, 1), Step::Bind(x, 0)]);
                self.value(f);
                self.step(Step::Mov(n, f, co_f));
                Some(Step::Bind(x, 1))
            }
            (Op::Comma(a, b), _) => {
                self.value(a);
                self.step(Step::Drop(a));
                self.value(b);
                Some(Step::Value(n))
            }
            (Op::Str(_) | Op::Cspec(_) | Op::Dollar(_) | Op::Fail(_), _) => Some(Step::Value(n)),
        };
        if let Some(s) = last {
            self.step(s);
        }
        if let Some(at) = fold {
            self.patch(at);
        }
    }

    fn value(&mut self, n: NodeId) {
        self.emit(n, false);
    }

    fn branch(&mut self, n: NodeId) {
        self.emit(n, true);
    }

    /// A branch on `n`'s value.
    fn generic_branch(&mut self, n: NodeId) -> Option<Step> {
        self.value(n);
        Some(Step::Branch(n))
    }

    /// A call's result temporary, then an indirect callee's value.
    fn call_tail(&mut self, n: NodeId, callee: Callee) -> Option<Step> {
        self.step(Step::CallRet(n));
        if let Callee::Ind(c) = callee {
            self.value(c);
        }
        Some(Step::Value(n))
    }

    /// Emits the steps that leave `n`'s place in its slot.
    fn place(&mut self, n: NodeId) {
        match self.plan.nodes[n as usize].op {
            Op::Deref(a, _)
            | Op::Member {
                base: a,
                arrow: true,
                ..
            } => self.value(a),
            Op::Member { base, .. } => self.place(base),
            Op::Index { base, idx, .. } => {
                self.value(base);
                let imm = self.step(Step::Imm(n, 0));
                self.value(idx);
                self.step(Step::Place(n));
                return self.patch(imm);
            }
            _ => {}
        }
        self.step(Step::Place(n));
    }

    // ---- statements --------------------------------------------------------

    /// A statement's or a `goto` label's slot (see [`TickPlan::extra`]).
    fn slot(&mut self) -> u32 {
        self.plan.extra += 1;
        self.plan.extra - 1
    }

    /// A slot with `n` fresh labels.
    fn labels(&mut self, n: u8) -> u32 {
        let x = self.slot();
        self.step(Step::Labels(x, n));
        x
    }

    fn label(&mut self, name: &'a str) -> u32 {
        if let Some(&(_, slot)) = self.labels.iter().find(|(l, _)| *l == name) {
            return slot;
        }
        let slot = self.slot();
        self.labels.push((name, slot));
        slot
    }

    /// Emits `st`'s steps. Returns the node of an expression statement,
    /// or of a declaration's last initializer: what a `for` header's
    /// unroll candidacy reads.
    fn stmt(&mut self, st: &'a Stmt) -> Option<NodeId> {
        let step = match st {
            Stmt::Expr(e) => match &e.kind {
                ExprKind::JumpForm(l) => match &l.kind {
                    ExprKind::Var(VarRef::TickCspec(i)) => Step::Jump(*i as u32),
                    _ => Step::Fail(self.msg("jump() target must be a captured label".into())),
                },
                ExprKind::Var(VarRef::TickCspec(i)) if self.tick.captures[*i].ty == Type::Void => {
                    Step::Splice(*i as u32)
                }
                _ => {
                    let n = self.expr(e);
                    self.value(n);
                    self.step(Step::Drop(n));
                    return Some(n);
                }
            },
            Stmt::Decl(items) => {
                let mut last = None;
                for item in items {
                    if let Some(Init::Expr(init)) = &item.init {
                        let d = DeclPlan {
                            local: item.local_id as u32,
                            init: self.expr(init),
                            co: self.co(&init.ty, &item.ty),
                            k: reg_kind(&item.ty),
                            ld: load_kind(&item.ty),
                        };
                        let check = self.step(Step::Decl(d, 0));
                        self.value(d.init);
                        self.step(Step::Store(d));
                        self.patch(check);
                        last = Some(d.init);
                    }
                }
                return last;
            }
            Stmt::If(c, t, e) => {
                let (x, c) = (self.slot(), self.expr(c));
                let head = self.step(Step::If(x, c, 0, 0));
                self.steps(&[Step::Labels(x, 2), Step::Target(c, x, [None, Some(0)])]);
                self.branch(c);
                let then = self.here();
                self.stmt(t);
                let skip = self.step(Step::Skip(x, 0));
                if e.is_some() {
                    self.step(Step::Jmp(x, 1));
                }
                self.step(Step::Bind(x, 0));
                let els = self.here();
                if let Some(e) = e {
                    self.stmt(e);
                }
                let end = self.step(Step::Skip(x, 0));
                self.step(Step::Bind(x, 1));
                self.patch(skip);
                self.patch(end);
                self.plan.code[head as usize] = Step::If(x, c, then, els);
                return None;
            }
            // Labels: top, condition, (a `for`'s step,) end.
            Stmt::For(init, cond, step, body) => {
                let x = self.slot();
                let head = self.step(Step::For(x, None, 0));
                let init_node = init.as_deref().and_then(|i| self.stmt(i));
                self.steps(&[Step::Labels(x, 4), Step::Jmp(x, 1), Step::Loop(x, 3, 2)]);
                let body_at = self.here();
                self.stmt(body);
                let cond = cond.as_ref().map(|c| self.expr(c));
                let step_node = step.as_ref().map(|e| self.expr(e));
                let u = self.unroll(st, init_node, cond, step_node).map(|u| {
                    self.plan.unrolls.push(u);
                    self.plan.unrolls.len() as u32 - 1
                });
                let next = self.step(Step::Next(x, u, 0));
                self.step(Step::Bind(x, 2));
                if let Some(n) = step_node {
                    self.value(n);
                    self.step(Step::Drop(n));
                }
                self.step(Step::Bind(x, 1));
                match cond {
                    Some(c) => self.loop_cond(x, c),
                    None => self.steps(&[Step::Jmp(x, 0)]),
                }
                self.steps(&[Step::LoopEnd, Step::Bind(x, 3)]);
                let test = self.here();
                self.plan.code[head as usize] = Step::For(x, u, test);
                self.plan.code[next as usize] = Step::Next(x, u, test);
                Step::Test(x, u, body_at)
            }
            Stmt::While(c, body) | Stmt::DoWhile(body, c) => {
                let x = self.slot();
                self.step(Step::Labels(x, 3));
                if matches!(st, Stmt::While(..)) {
                    self.step(Step::Jmp(x, 1));
                }
                self.step(Step::Loop(x, 2, 1));
                self.stmt(body);
                self.steps(&[Step::Next(x, None, 0), Step::Bind(x, 1)]);
                let c = self.expr(c);
                self.loop_cond(x, c);
                self.step(Step::LoopEnd);
                Step::Bind(x, 2)
            }
            Stmt::Return(e) => {
                let n = e.as_ref().map(|e| self.expr(e));
                if let Some(n) = n {
                    self.value(n);
                }
                // In `ValKind::code()` order.
                let co = [ValKind::W, ValKind::D, ValKind::P, ValKind::F].map(|k| {
                    e.as_ref()
                        .map_or(Co::None, |e| self.co(&e.ty, &kind_type(k)))
                });
                Step::Return(n, co)
            }
            Stmt::Break => Step::Break,
            Stmt::Continue => Step::Continue,
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.stmt(s);
                }
                return None;
            }
            Stmt::Switch(scrut, items) => {
                let (s, n) = (self.slot(), self.expr(scrut));
                let head = self.step(Step::Switch(s, n, Span::default(), 0));
                self.value(n);
                let dispatch = self.step(Step::Dispatch(s, n, Span::default()));
                let mut cases = Vec::new();
                for item in items {
                    match item {
                        SwitchItem::Case(v) => cases.push((Some(*v), self.here())),
                        SwitchItem::Default => cases.push((None, self.here())),
                        SwitchItem::Stmt(st) => {
                            self.stmt(st);
                            continue;
                        }
                    }
                    self.step(Step::Case(s, cases.len() as u32 - 1));
                }
                let cases = Span::of(&mut self.plan.cases, cases);
                self.plan.code[head as usize] = Step::Switch(s, n, cases, self.here());
                self.plan.code[dispatch as usize] = Step::Dispatch(s, n, cases);
                Step::SwitchEnd(s)
            }
            Stmt::Goto(name) => Step::Jmp(self.label(name), 0),
            Stmt::Labeled(name, inner) => {
                let l = self.label(name);
                self.step(Step::Bind(l, 0));
                self.stmt(inner);
                return None;
            }
            Stmt::Empty => return None,
        };
        self.step(step);
        None
    }

    /// A loop's condition `c`, branching back to its top.
    fn loop_cond(&mut self, x: u32, c: NodeId) {
        self.step(Step::Target(c, x, [Some(0), None]));
        self.branch(c);
    }

    /// Whether the `for` statement `st` fits §4.4's unrollable shape, and
    /// with which induction variable, initial value and step. The other
    /// arguments are the nodes of its already-lowered header.
    fn unroll(
        &self,
        st: &Stmt,
        init_node: Option<NodeId>,
        cond: Option<NodeId>,
        step_node: Option<NodeId>,
    ) -> Option<UnrollPlan> {
        let Stmt::For(Some(init), _, Some(step), body) = st else {
            return None;
        };
        let (init_node, cond, step_node) = (init_node?, cond?, step_node?);
        let rhs_of = |assign: NodeId| match self.plan.nodes[assign as usize].op {
            Op::Assign { rhs, .. } => rhs,
            _ => unreachable!("an assignment lowers to Op::Assign"),
        };
        // init must bind a tick local to a value.
        let (k, init) = match &**init {
            Stmt::Expr(e) => match &e.kind {
                ExprKind::Assign(None, lhs, _) => match lhs.kind {
                    ExprKind::Var(VarRef::TickLocal(i)) => (i, rhs_of(init_node)),
                    _ => return None,
                },
                _ => return None,
            },
            Stmt::Decl(items) if items.len() == 1 => (items[0].local_id, init_node),
            _ => return None,
        };
        // step must update it.
        let local_ty = &self.tick.dyn_locals[k].ty;
        let step = match &step.kind {
            ExprKind::PreIncDec(t, inc) | ExprKind::PostIncDec(t, inc) if is_local(t, k) => {
                Advance::IncDec(*inc)
            }
            ExprKind::Assign(Some(op), lhs, rhs) if is_local(lhs, k) => Advance::AssignOp(
                fold_of(*op, local_ty, &rhs.ty, self.structs),
                rhs_of(step_node),
            ),
            ExprKind::Assign(None, lhs, _) if is_local(lhs, k) => {
                Advance::Reassign(rhs_of(step_node))
            }
            _ => return None,
        };
        // The body must not assign the induction variable, use labels, or
        // break/continue this loop.
        if blocks_unroll(body, k, 0) {
            return None;
        }
        Some(UnrollPlan {
            k: k as u32,
            init,
            cond,
            step,
            w: reg_kind(local_ty) == ValKind::W,
        })
    }
}
/// True if unrolling a loop over local `k` with body `s` would be
/// wrong: the body assigns `k` (or takes its address), uses labels, or
/// holds a `break`/`continue` that leaves the loop `depth` levels up.
fn blocks_unroll(s: &Stmt, k: usize, depth: u32) -> bool {
    fn assigns(e: &Expr, k: usize) -> bool {
        let on = |e: &Expr| assigns(e, k);
        match &e.kind {
            ExprKind::Assign(_, t, rhs) => is_local(t, k) || on(t) || on(rhs),
            ExprKind::PreIncDec(t, _)
            | ExprKind::PostIncDec(t, _)
            | ExprKind::Un(UnaryOp::Addr, t) => is_local(t, k) || on(t),
            ExprKind::Un(_, a)
            | ExprKind::Cast(_, a)
            | ExprKind::Dollar(a)
            | ExprKind::Member(a, ..) => on(a),
            ExprKind::Bin(_, a, b) | ExprKind::Index(a, b) | ExprKind::Comma(a, b) => {
                on(a) || on(b)
            }
            ExprKind::Cond(a, b, c) => on(a) || on(b) || on(c),
            ExprKind::Call(f, args) => on(f) || args.iter().any(on),
            _ => false,
        }
    }
    let sub = |s: &Stmt, depth| blocks_unroll(s, k, depth);
    let on = |e: &Expr| assigns(e, k);
    match s {
        Stmt::Labeled(..) | Stmt::Goto(_) => true,
        Stmt::Break | Stmt::Continue => depth == 0,
        Stmt::Expr(e) | Stmt::Return(Some(e)) => on(e),
        Stmt::Decl(items) => {
            (items.iter()).any(|i| matches!(&i.init, Some(Init::Expr(e)) if on(e)))
        }
        Stmt::If(c, t, e) => on(c) || sub(t, depth) || e.as_ref().is_some_and(|e| sub(e, depth)),
        Stmt::While(c, b) | Stmt::DoWhile(b, c) => on(c) || sub(b, depth + 1),
        Stmt::For(i, c, st, b) => {
            i.as_ref().is_some_and(|i| sub(i, depth))
                || c.as_ref().is_some_and(on)
                || st.as_ref().is_some_and(on)
                || sub(b, depth + 1)
        }
        Stmt::Block(ss) => ss.iter().any(|s| sub(s, depth)),
        // (A `break` in a switch is the switch's.)
        Stmt::Switch(c, items) => {
            on(c) || (items.iter()).any(|i| matches!(i, SwitchItem::Stmt(s) if sub(s, depth + 1)))
        }
        _ => false,
    }
}
