//! The AST walker, kept as the plan walker's oracle (test builds only).
//!
//! This is the CGF walk as it was before tick expressions were lowered
//! to plans: it re-derives types, coercions and operator choices from
//! the typed AST at every node of every instantiation. Under
//! `cfg(test)` every compile in this crate first runs both walkers
//! against a recording sink ([`check`]) and requires the same operation
//! stream — operations, kinds, immediates, value and label numbering —
//! the same [`WalkStats`], or the same error text. The plan's lowering
//! decisions are thereby checked one by one against code that makes
//! them the slow way.
//!
//! Two things here follow the plan walker rather than history, because
//! they define counters, not code: static evaluation does not visit a
//! node it can never succeed on ([`never_static`]), and a `for` is
//! tested for the unrollable shape before its bounds are evaluated.

use crate::addr_map::AddrMap;
use crate::dyncomp::{
    Cv, DynCompiler, DynInput, WalkScratch, WalkStats, COMPOSE_DEPTH_LIMIT, UNROLL_LIMIT,
    UNROLL_TRIP_LIMIT, V,
};
use crate::fingerprint;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use tcc_front::ast::*;
use tcc_front::types::Type;
use tcc_mir::lower::machine_binop;
use tcc_rt::{ClosureRef, ValKind, VspecObj, VspecTag, ARGLIST_MARKER, LABEL_MARKER};
use tcc_vcode::ops::{BinOp, LoadKind, StoreKind, UnOp};
use tcc_vcode::CodeSink;
use tcc_vm::{Memory, VmError};

/// How a static `for` loop's step updates the induction variable.
enum StepKind {
    IncDec(bool),
    AssignOp(BinaryOp, Expr),
    Reassign(Expr),
}

/// True when static evaluation of `e` fails whatever the instantiation:
/// the node's kind never folds, or a child it needs never does.
fn never_static(e: &Expr, in_dollar: bool) -> bool {
    let ns = |x: &Expr| never_static(x, in_dollar);
    match &e.kind {
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) => false,
        ExprKind::Dollar(inner) => never_static(inner, true),
        ExprKind::Var(VarRef::TickRtc(_) | VarRef::TickLocal(_) | VarRef::Func(_)) => false,
        ExprKind::Var(VarRef::Global(_)) => !in_dollar,
        ExprKind::Bin(_, a, b) => ns(a) || ns(b),
        ExprKind::Un(UnaryOp::Neg | UnaryOp::BitNot | UnaryOp::LogNot, a) => ns(a),
        ExprKind::Cast(_, a) => ns(a),
        ExprKind::Cond(c, t, f) => ns(c) || (ns(t) && ns(f)),
        ExprKind::Index(b, i) => !in_dollar || ns(b) || ns(i),
        _ => true,
    }
}

struct Frame<'p, S: CodeSink> {
    tick: &'p TickDef,
    fields: Vec<u64>,
    /// Derived run-time constants (static dyn locals).
    rtc: HashMap<usize, Cv>,
    /// Materialized (dynamic) locals.
    vals: HashMap<usize, S::Val>,
    labels: HashMap<String, S::Lbl>,
}

/// The AST walker: one per shadow compile.
pub(crate) struct AstCompiler<'a, 'p, S: CodeSink> {
    input: DynInput<'p>,
    mem: &'a Memory,
    sink: &'a mut S,
    /// vspec object address → bound location.
    vspecs: AddrMap<S::Val>,
    /// Dynamic label object address → sink label (+ whether bound).
    dyn_labels: AddrMap<(S::Lbl, bool)>,
    break_stack: Vec<S::Lbl>,
    continue_stack: Vec<S::Lbl>,
    /// Return kind expected by `compile(c, T)` (None = void).
    ret_kind: Option<ValKind>,
    depth: u32,
    /// Walk statistics.
    pub(crate) stats: WalkStats,
}

impl<'a, 'p, S: CodeSink> AstCompiler<'a, 'p, S> {
    /// Creates a walker. `ret_kind` is the declared return kind of the
    /// function being compiled (`None` for void).
    pub(crate) fn new(
        input: DynInput<'p>,
        mem: &'a Memory,
        sink: &'a mut S,
        ret_kind: Option<ValKind>,
    ) -> Self {
        AstCompiler {
            input,
            mem,
            sink,
            vspecs: AddrMap::default(),
            dyn_labels: AddrMap::default(),
            break_stack: Vec::new(),
            continue_stack: Vec::new(),
            ret_kind,
            depth: 0,
            stats: WalkStats::default(),
        }
    }

    fn err(&self, msg: impl Into<String>) -> VmError {
        VmError::Host(msg.into())
    }

    /// Compiles the closure at `closure_addr` as a complete function
    /// body (prologue/epilogue are the sink's business).
    ///
    /// # Errors
    ///
    /// Fails on malformed closures or unrepresentable dynamic code.
    pub(crate) fn compile_entry(&mut self, closure_addr: u64) -> Result<(), VmError> {
        self.bind_params(closure_addr, 0)?;
        let ret = self.compile_closure(closure_addr)?;
        let unbound = (self.dyn_labels.iter()).filter(|(_, (_, bound))| !bound);
        if let Some(addr) = unbound.map(|(addr, _)| *addr).min() {
            return Err(self.err(format!(
                "dynamic label object at {addr:#x} is jumped to but never spliced"
            )));
        }
        match (ret, self.ret_kind) {
            (Some(v), Some(k)) => {
                self.sink.ret_val(k, v.val);
            }
            (Some(_), None) | (None, None) => self.sink.ret_void(),
            (None, Some(_)) => {
                // A statement cspec whose returns (if any) were emitted
                // inline; fall-through returns void-ish garbage, matching
                // C's behaviour for missing returns.
                self.sink.ret_void();
            }
        }
        Ok(())
    }

    /// Binds every `param` vspec reachable through the closure tree
    /// before any code is emitted (argument registers must be captured
    /// at entry, before calls clobber them).
    fn bind_params(&mut self, closure_addr: u64, depth: u32) -> Result<(), VmError> {
        if depth > COMPOSE_DEPTH_LIMIT {
            return Err(self.err("closure composition too deep"));
        }
        let c = ClosureRef { addr: closure_addr };
        let id = c.cgf_id(self.mem)? as usize;
        let tick = self
            .input
            .prog
            .ticks
            .get(id)
            .ok_or_else(|| self.err(format!("bad cgf id {id}")))?;
        for (i, cap) in tick.captures.iter().enumerate() {
            let field = c.field(self.mem, i)?;
            match &cap.kind {
                CaptureKind::Vspec(_) => {
                    let obj = VspecObj::read(self.mem, field)?;
                    if obj.tag == VspecTag::Param && !self.vspecs.contains_key(&field) {
                        let v = self.sink.param(obj.index as usize, obj.kind);
                        self.vspecs.insert(field, v);
                    }
                }
                CaptureKind::Cspec(_) => {
                    // Label objects are not closures; argument lists hold
                    // closures to recurse into.
                    match self.mem.load_u64(field)? {
                        LABEL_MARKER => {}
                        ARGLIST_MARKER => {
                            let n = self.mem.load_u64(field + 8)?;
                            for j in 0..n {
                                let c = self.mem.load_u64(field + 16 + 8 * j)?;
                                self.bind_params(c, depth + 1)?;
                            }
                        }
                        _ => self.bind_params(field, depth + 1)?,
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
            return Err(self.err("closure composition too deep"));
        }
        self.stats.closures += 1;
        let c = ClosureRef { addr: closure_addr };
        if c.cgf_id(self.mem)? == ARGLIST_MARKER {
            self.depth -= 1;
            return Err(self.err("argument lists can only be used with apply()"));
        }
        // A dynamic label object spliced as a statement binds a position.
        if c.cgf_id(self.mem)? == LABEL_MARKER {
            let (l, bound) = self.dyn_label(closure_addr);
            if bound {
                self.depth -= 1;
                return Err(self.err("dynamic label spliced twice"));
            }
            self.sink.bind(l);
            self.dyn_labels.insert(closure_addr, (l, true));
            self.depth -= 1;
            return Ok(None);
        }
        let id = c.cgf_id(self.mem)? as usize;
        let tick = self
            .input
            .prog
            .ticks
            .get(id)
            .ok_or_else(|| self.err(format!("bad cgf id {id}")))?;
        let mut fields = Vec::with_capacity(tick.captures.len());
        for i in 0..tick.captures.len() {
            fields.push(c.field(self.mem, i)?);
        }
        let mut frame = Frame {
            tick,
            fields,
            rtc: HashMap::new(),
            vals: HashMap::new(),
            labels: HashMap::new(),
        };
        let out = match &tick.body {
            TickBody::Expr(e) => Some(self.expr(e, &mut frame)?),
            TickBody::Block(stmts) => {
                for s in stmts {
                    self.stmt(s, &mut frame)?;
                }
                None
            }
        };
        self.depth -= 1;
        Ok(out)
    }

    // ---- run-time constant evaluation -------------------------------------

    /// Evaluates `e` at dynamic compile time if it is a run-time
    /// constant. `in_dollar` permits memory loads (the `$row[k]` case).
    fn eval_static(
        &mut self,
        e: &Expr,
        frame: &Frame<'p, S>,
        in_dollar: bool,
    ) -> Result<Option<Cv>, VmError> {
        // A node static evaluation can never succeed on is not visited
        // (the plan holds this as two flags; here it is a scan).
        if never_static(e, in_dollar) {
            return Ok(None);
        }
        self.stats.rtc_evals += 1;
        let r = match &e.kind {
            ExprKind::IntLit(v) => Some(Cv::I(*v)),
            ExprKind::FloatLit(v) => Some(Cv::F(*v)),
            ExprKind::Dollar(inner) => self.eval_static(inner, frame, true)?,
            ExprKind::Var(VarRef::TickRtc(i)) => {
                let raw = frame.fields[*i];
                let ty = &frame.tick.captures[*i].ty;
                Some(if ty.kind() == ValKind::F {
                    Cv::F(f64::from_bits(raw))
                } else {
                    Cv::I(raw as i64)
                })
            }
            ExprKind::Var(VarRef::TickLocal(i)) => frame.rtc.get(i).copied(),
            ExprKind::Var(VarRef::Global(g)) if in_dollar => {
                let ty = &e.ty;
                match ty {
                    Type::Array(..) | Type::Struct(_) => {
                        Some(Cv::I(self.input.global_addrs[*g] as i64))
                    }
                    _ => {
                        let addr = self.input.global_addrs[*g];
                        Some(self.load_const(addr, ty)?)
                    }
                }
            }
            ExprKind::Var(VarRef::Func(f)) => Some(Cv::I(self.input.func_addrs[*f] as i64)),
            ExprKind::Bin(op, a, b) => {
                let (Some(ca), Some(cb)) = (
                    self.eval_static(a, frame, in_dollar)?,
                    self.eval_static(b, frame, in_dollar)?,
                ) else {
                    return Ok(None);
                };
                self.eval_bin(*op, ca, cb, &a.ty, &b.ty)
            }
            ExprKind::Un(op, a) => {
                let Some(cv) = self.eval_static(a, frame, in_dollar)? else {
                    return Ok(None);
                };
                match op {
                    UnaryOp::Neg => Some(match cv {
                        Cv::I(v) => {
                            if e.ty.kind() == ValKind::W {
                                Cv::I((v as i32).wrapping_neg() as i64)
                            } else {
                                Cv::I(v.wrapping_neg())
                            }
                        }
                        Cv::F(v) => Cv::F(-v),
                    }),
                    UnaryOp::BitNot => Some(Cv::I(!cv.as_i())),
                    UnaryOp::LogNot => Some(Cv::I(i64::from(!cv.truthy()))),
                    _ => None,
                }
            }
            ExprKind::Cast(ty, a) => {
                let Some(cv) = self.eval_static(a, frame, in_dollar)? else {
                    return Ok(None);
                };
                Some(cast_const(cv, &a.ty, ty))
            }
            ExprKind::Cond(c, t, f) => {
                let Some(cc) = self.eval_static(c, frame, in_dollar)? else {
                    return Ok(None);
                };
                let arm = if cc.truthy() { t } else { f };
                self.eval_static(arm, frame, in_dollar)?
            }
            ExprKind::Index(base, idx) if in_dollar => {
                let (Some(ba), Some(iv)) = (
                    self.eval_static(base, frame, true)?,
                    self.eval_static(idx, frame, true)?,
                ) else {
                    return Ok(None);
                };
                let elem = match base.ty.decay() {
                    Type::Ptr(t) => (*t).clone(),
                    _ => return Ok(None),
                };
                let size = elem.size(&self.input.prog.structs) as i64;
                let addr = (ba.as_i() + iv.as_i() * size) as u64;
                Some(self.load_const(addr, &elem)?)
            }
            _ => None,
        };
        Ok(r)
    }

    fn load_const(&self, addr: u64, ty: &Type) -> Result<Cv, VmError> {
        Ok(match load_kind(ty) {
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

    fn eval_bin(&self, op: BinaryOp, a: Cv, b: Cv, ta: &Type, tb: &Type) -> Option<Cv> {
        use BinaryOp::*;
        if matches!(op, LogAnd) {
            return Some(Cv::I(i64::from(a.truthy() && b.truthy())));
        }
        if matches!(op, LogOr) {
            return Some(Cv::I(i64::from(a.truthy() || b.truthy())));
        }
        let common = if ta.decay().is_arith() && tb.decay().is_arith() {
            ta.usual_arith(tb)
        } else {
            ta.decay()
        };
        if common == Type::Double {
            let (x, y) = (a.as_f(), b.as_f());
            return Some(match op {
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
            });
        }
        // Pointer arithmetic at compile time (e.g. `$p + k` inside $).
        if common.is_ptr() && matches!(op, Add | Sub) {
            let elem = match &common {
                Type::Ptr(t) => t.size(&self.input.prog.structs) as i64,
                _ => unreachable!(),
            };
            let base = a.as_i();
            let off = b.as_i() * elem;
            return Some(Cv::I(if op == Add { base + off } else { base - off }));
        }
        let mop = machine_binop(op, &common);
        let k = common.kind();
        mop.eval_int(k, a.as_i(), b.as_i()).map(Cv::I)
    }

    /// Materializes a constant into a fresh temp.
    fn materialize(&mut self, cv: Cv, ty: &Type) -> V<S> {
        let k = ty.decay().kind();
        let t = self.sink.temp(k);
        match (k, cv) {
            (ValKind::F, cv) => self.sink.lif(t, cv.as_f()),
            (_, Cv::I(v)) => self.sink.li(t, v),
            (_, Cv::F(v)) => self.sink.li(t, v as i64),
        }
        V {
            val: t,
            owned: true,
        }
    }

    fn release(&mut self, v: V<S>) {
        if v.owned {
            self.sink.release(v.val);
        }
    }

    // ---- places ------------------------------------------------------------

    fn vspec_val(&mut self, addr: u64) -> Result<S::Val, VmError> {
        if let Some(v) = self.vspecs.get(&addr) {
            return Ok(*v);
        }
        let obj = VspecObj::read(self.mem, addr)?;
        let v = match obj.tag {
            VspecTag::Local => self.sink.temp_saved(obj.kind),
            VspecTag::Param => self.sink.param(obj.index as usize, obj.kind),
        };
        self.vspecs.insert(addr, v);
        Ok(v)
    }

    /// Gets (or creates) the sink label for a dynamic label object.
    fn dyn_label(&mut self, addr: u64) -> (S::Lbl, bool) {
        if let Some(&(l, bound)) = self.dyn_labels.get(&addr) {
            return (l, bound);
        }
        let l = self.sink.label();
        self.dyn_labels.insert(addr, (l, false));
        (l, false)
    }

    fn local_val(&mut self, frame: &mut Frame<'p, S>, i: usize) -> S::Val {
        if let Some(v) = frame.vals.get(&i) {
            return *v;
        }
        let k = frame.tick.dyn_locals[i].ty.kind();
        let v = self.sink.temp_saved(k);
        frame.vals.insert(i, v);
        v
    }

    /// A place in dynamic code: a register-like value or memory.
    fn place(&mut self, e: &Expr, frame: &mut Frame<'p, S>) -> Result<DynPlace<S>, VmError> {
        match &e.kind {
            ExprKind::Var(VarRef::TickLocal(i)) => {
                // Writing to a derived run-time constant demotes it to a
                // dynamic local (materialize its current value first).
                if let Some(cv) = frame.rtc.remove(i) {
                    let ty = frame.tick.dyn_locals[*i].ty.clone();
                    let m = self.materialize(cv, &ty);
                    // Transfer into a persistent local home.
                    let k = ty.kind();
                    let home = self.sink.temp_saved(k);
                    self.sink.un(UnOp::Mov, k, home, m.val);
                    self.release(m);
                    frame.vals.insert(*i, home);
                }
                Ok(DynPlace::Val(self.local_val(frame, *i), e.ty.clone()))
            }
            ExprKind::Var(VarRef::TickVspec(i)) => {
                let addr = frame.fields[*i];
                Ok(DynPlace::Val(self.vspec_val(addr)?, e.ty.clone()))
            }
            ExprKind::Var(VarRef::TickFv(i)) => {
                let addr = frame.fields[*i];
                let t = self.sink.temp(ValKind::P);
                self.sink.li(t, addr as i64);
                Ok(DynPlace::Mem {
                    addr: V {
                        val: t,
                        owned: true,
                    },
                    off: 0,
                    ty: e.ty.clone(),
                })
            }
            ExprKind::Var(VarRef::Global(g)) => {
                let t = self.sink.temp(ValKind::P);
                self.sink.li(t, self.input.global_addrs[*g] as i64);
                Ok(DynPlace::Mem {
                    addr: V {
                        val: t,
                        owned: true,
                    },
                    off: 0,
                    ty: e.ty.clone(),
                })
            }
            ExprKind::Un(UnaryOp::Deref, inner) => {
                let a = self.expr(inner, frame)?;
                Ok(DynPlace::Mem {
                    addr: a,
                    off: 0,
                    ty: e.ty.clone(),
                })
            }
            ExprKind::Index(base, idx) => {
                let elem_size = e.ty.size(&self.input.prog.structs) as i64;
                let bv = self.expr(base, frame)?;
                if let Some(civ) = self.eval_static(idx, frame, false)? {
                    return Ok(DynPlace::Mem {
                        addr: bv,
                        off: civ.as_i() * elem_size,
                        ty: e.ty.clone(),
                    });
                }
                let iv = self.expr(idx, frame)?;
                let ivc = self.coerce(iv, &idx.ty, &Type::Long);
                let scaled = self.sink.temp(ValKind::D);
                self.sink
                    .bin_imm(BinOp::Mul, ValKind::D, scaled, ivc.val, elem_size);
                self.release(ivc);
                let addr = self.sink.temp(ValKind::P);
                self.sink.bin(BinOp::Add, ValKind::P, addr, bv.val, scaled);
                self.sink.release(scaled);
                self.release(bv);
                Ok(DynPlace::Mem {
                    addr: V {
                        val: addr,
                        owned: true,
                    },
                    off: 0,
                    ty: e.ty.clone(),
                })
            }
            ExprKind::Member(base, _, arrow, offset) => {
                if *arrow {
                    let bv = self.expr(base, frame)?;
                    Ok(DynPlace::Mem {
                        addr: bv,
                        off: *offset as i64,
                        ty: e.ty.clone(),
                    })
                } else {
                    match self.place(base, frame)? {
                        DynPlace::Mem { addr, off, .. } => Ok(DynPlace::Mem {
                            addr,
                            off: off + *offset as i64,
                            ty: e.ty.clone(),
                        }),
                        DynPlace::Val(..) => Err(self.err("struct member of register value")),
                    }
                }
            }
            other => Err(self.err(format!("not an lvalue in dynamic code: {other:?}"))),
        }
    }

    fn load_dyn_place(&mut self, p: &DynPlace<S>) -> V<S> {
        match p {
            DynPlace::Val(v, _) => V {
                val: *v,
                owned: false,
            },
            DynPlace::Mem { addr, off, ty } => {
                if matches!(ty, Type::Array(..) | Type::Struct(_)) {
                    if *off == 0 {
                        return V {
                            val: addr.val,
                            owned: false,
                        };
                    }
                    let t = self.sink.temp(ValKind::P);
                    self.sink.bin_imm(BinOp::Add, ValKind::P, t, addr.val, *off);
                    return V {
                        val: t,
                        owned: true,
                    };
                }
                let t = self.sink.temp(ty.kind());
                self.sink.load(load_kind(ty), t, addr.val, *off);
                V {
                    val: t,
                    owned: true,
                }
            }
        }
    }

    fn store_dyn_place(&mut self, p: &DynPlace<S>, v: S::Val) {
        match p {
            DynPlace::Val(dst, ty) => {
                self.sink.un(UnOp::Mov, ty.kind(), *dst, v);
                self.narrow(*dst, ty);
            }
            DynPlace::Mem { addr, off, ty } => {
                self.sink.store(store_kind(ty), v, addr.val, *off);
            }
        }
    }

    fn release_place(&mut self, p: DynPlace<S>) {
        if let DynPlace::Mem { addr, .. } = p {
            self.release(addr);
        }
    }

    fn narrow(&mut self, v: S::Val, ty: &Type) {
        match ty {
            Type::Char => {
                self.sink.bin_imm(BinOp::Shl, ValKind::W, v, v, 24);
                self.sink.bin_imm(BinOp::Shr, ValKind::W, v, v, 24);
            }
            Type::UChar => self.sink.bin_imm(BinOp::And, ValKind::W, v, v, 0xff),
            Type::Short => {
                self.sink.bin_imm(BinOp::Shl, ValKind::W, v, v, 16);
                self.sink.bin_imm(BinOp::Shr, ValKind::W, v, v, 16);
            }
            Type::UShort => self.sink.bin_imm(BinOp::And, ValKind::W, v, v, 0xffff),
            _ => {}
        }
    }

    fn coerce(&mut self, v: V<S>, from: &Type, to: &Type) -> V<S> {
        let from = from.decay();
        let to = to.decay();
        if from == to {
            return v;
        }
        let (fk, tk) = (from.kind(), to.kind());
        let structs = &self.input.prog.structs;
        match (fk, tk) {
            (ValKind::F, ValKind::F) => v,
            (ValKind::F, ValKind::W) => {
                let d = self.sink.temp(ValKind::W);
                self.sink.un(UnOp::CvtFtoW, ValKind::W, d, v.val);
                self.release(v);
                V {
                    val: d,
                    owned: true,
                }
            }
            (ValKind::F, _) => {
                let d = self.sink.temp(tk);
                self.sink.un(UnOp::CvtFtoL, tk, d, v.val);
                self.release(v);
                V {
                    val: d,
                    owned: true,
                }
            }
            (ValKind::W, ValKind::F) => {
                let d = self.sink.temp(ValKind::F);
                if from.is_unsigned() {
                    let z = self.sink.temp(ValKind::D);
                    self.sink
                        .bin_imm(BinOp::And, ValKind::D, z, v.val, 0xffff_ffff);
                    self.sink.un(UnOp::CvtLtoF, ValKind::F, d, z);
                    self.sink.release(z);
                } else {
                    self.sink.un(UnOp::CvtWtoF, ValKind::F, d, v.val);
                }
                self.release(v);
                V {
                    val: d,
                    owned: true,
                }
            }
            (_, ValKind::F) => {
                let d = self.sink.temp(ValKind::F);
                self.sink.un(UnOp::CvtLtoF, ValKind::F, d, v.val);
                self.release(v);
                V {
                    val: d,
                    owned: true,
                }
            }
            (ValKind::W, ValKind::D | ValKind::P) => {
                if from.is_unsigned() {
                    let d = self.sink.temp(tk);
                    self.sink
                        .bin_imm(BinOp::And, ValKind::D, d, v.val, 0xffff_ffff);
                    self.release(v);
                    V {
                        val: d,
                        owned: true,
                    }
                } else {
                    v
                }
            }
            (ValKind::D | ValKind::P, ValKind::W) => {
                let d = self.sink.temp(ValKind::W);
                self.sink.un(UnOp::Mov, ValKind::W, d, v.val);
                self.narrow(d, &to);
                self.release(v);
                V {
                    val: d,
                    owned: true,
                }
            }
            (ValKind::W, ValKind::W) => {
                let shrink = to.size(structs) < from.size(structs)
                    || (to.size(structs) == from.size(structs)
                        && to.is_unsigned() != from.is_unsigned()
                        && to.size(structs) < 4);
                if shrink {
                    let d = self.sink.temp(ValKind::W);
                    self.sink.un(UnOp::Mov, ValKind::W, d, v.val);
                    self.narrow(d, &to);
                    self.release(v);
                    V {
                        val: d,
                        owned: true,
                    }
                } else {
                    v
                }
            }
            (ValKind::D | ValKind::P, ValKind::D | ValKind::P) => v,
        }
    }

    // ---- expressions -------------------------------------------------------

    fn expr(&mut self, e: &Expr, frame: &mut Frame<'p, S>) -> Result<V<S>, VmError> {
        // Run-time constant folding: a fully static expression becomes an
        // immediate.
        if let Some(cv) = self.eval_static(e, frame, false)? {
            return Ok(self.materialize(cv, &e.ty));
        }
        match &e.kind {
            ExprKind::StrLit(bytes) => {
                let addr = self.str_addr(frame.tick, bytes);
                let t = self.sink.temp(ValKind::P);
                self.sink.li(t, addr as i64);
                Ok(V {
                    val: t,
                    owned: true,
                })
            }
            ExprKind::Var(VarRef::TickCspec(i)) => {
                let closure = frame.fields[*i];
                match self.compile_closure(closure)? {
                    Some(v) => Ok(v),
                    None => Err(self.err("void cspec used as a value")),
                }
            }
            ExprKind::Var(VarRef::TickVspec(_))
            | ExprKind::Var(VarRef::TickLocal(_))
            | ExprKind::Var(VarRef::TickFv(_))
            | ExprKind::Var(VarRef::Global(_))
            | ExprKind::Index(..)
            | ExprKind::Member(..) => {
                let p = self.place(e, frame)?;
                let v = self.load_dyn_place(&p);
                // keep ownership of the loaded temp, release the address
                let out = V {
                    val: v.val,
                    owned: v.owned,
                };
                if let DynPlace::Mem { addr, .. } = p {
                    if addr.val != out.val {
                        self.release(addr);
                    }
                }
                Ok(out)
            }
            ExprKind::Un(UnaryOp::Deref, _) => {
                if matches!(e.ty, Type::Func(_)) {
                    let ExprKind::Un(_, inner) = &e.kind else {
                        unreachable!()
                    };
                    return self.expr(inner, frame);
                }
                let p = self.place(e, frame)?;
                let v = self.load_dyn_place(&p);
                let out = V {
                    val: v.val,
                    owned: v.owned,
                };
                if let DynPlace::Mem { addr, .. } = p {
                    if addr.val != out.val {
                        self.release(addr);
                    }
                }
                Ok(out)
            }
            ExprKind::Un(UnaryOp::Addr, inner) => {
                let p = self.place(inner, frame)?;
                match p {
                    DynPlace::Mem { addr, off: 0, .. } => Ok(addr),
                    DynPlace::Mem { addr, off, .. } => {
                        let t = self.sink.temp(ValKind::P);
                        self.sink.bin_imm(BinOp::Add, ValKind::P, t, addr.val, off);
                        self.release(addr);
                        Ok(V {
                            val: t,
                            owned: true,
                        })
                    }
                    DynPlace::Val(..) => Err(self.err("cannot take the address of a register")),
                }
            }
            ExprKind::Un(op, inner) => {
                let v = self.expr(inner, frame)?;
                let v = self.coerce(v, &inner.ty, &e.ty);
                let d = self.sink.temp(e.ty.kind());
                let uop = match op {
                    UnaryOp::Neg => UnOp::Neg,
                    UnaryOp::BitNot => UnOp::Not,
                    UnaryOp::LogNot => {
                        // !x == (x == 0)
                        let k = inner.ty.decay().kind();
                        self.sink.bin_imm(BinOp::Eq, k, d, v.val, 0);
                        self.release(v);
                        return Ok(V {
                            val: d,
                            owned: true,
                        });
                    }
                    _ => unreachable!("deref/addr handled above"),
                };
                self.sink.un(uop, e.ty.kind(), d, v.val);
                self.release(v);
                Ok(V {
                    val: d,
                    owned: true,
                })
            }
            ExprKind::PreIncDec(inner, inc) => self.incdec(inner, *inc, false, frame),
            ExprKind::PostIncDec(inner, inc) => self.incdec(inner, *inc, true, frame),
            ExprKind::Bin(op, a, b) => self.binary(*op, a, b, e, frame),
            ExprKind::Assign(op, lhs, rhs) => self.assign(op, lhs, rhs, frame),
            ExprKind::Call(callee, args) => self.call(callee, args, e, frame),
            ExprKind::Cast(ty, inner) => {
                let v = self.expr(inner, frame)?;
                Ok(self.coerce(v, &inner.ty, ty))
            }
            ExprKind::Cond(c, t, f) => {
                // (static conditions were folded by eval_static above)
                let k = e.ty.kind();
                let d = self.sink.temp_saved(k);
                let lf = self.sink.label();
                let lend = self.sink.label();
                self.cond_branch(c, None, Some(lf), frame)?;
                let tv = self.expr(t, frame)?;
                let tv = self.coerce(tv, &t.ty, &e.ty);
                self.sink.un(UnOp::Mov, k, d, tv.val);
                self.release(tv);
                self.sink.jmp(lend);
                self.sink.bind(lf);
                let fv = self.expr(f, frame)?;
                let fv = self.coerce(fv, &f.ty, &e.ty);
                self.sink.un(UnOp::Mov, k, d, fv.val);
                self.release(fv);
                self.sink.bind(lend);
                Ok(V {
                    val: d,
                    owned: true,
                })
            }
            ExprKind::Comma(a, b) => {
                let v = self.expr(a, frame)?;
                self.release(v);
                self.expr(b, frame)
            }
            ExprKind::Apply(f, l) => self.apply(f, l, frame),
            ExprKind::JumpForm(_) => Err(self.err("jump() cannot be used as a value")),
            ExprKind::Dollar(_) => Err(self.err("$ operand was not a run-time constant")),
            ExprKind::Var(VarRef::TickRtc(_)) => {
                unreachable!("run-time constants fold in eval_static")
            }
            other => Err(self.err(format!("unsupported in dynamic code: {other:?}"))),
        }
    }

    /// Where the linker put this literal of `tick`'s body.
    fn str_addr(&self, tick: &TickDef, bytes: &[u8]) -> u64 {
        let ticks = &self.input.prog.ticks;
        let t = ticks.iter().position(|t| std::ptr::eq(t, tick));
        let j = tick.str_lits.iter().position(|s| s == bytes);
        self.input.tick_strs[t.expect("a tick of this program")][j.expect("listed by sema")]
    }

    fn incdec(
        &mut self,
        inner: &Expr,
        inc: bool,
        post: bool,
        frame: &mut Frame<'p, S>,
    ) -> Result<V<S>, VmError> {
        let ty = inner.ty.decay();
        let k = ty.kind();
        let delta: i64 = match &ty {
            Type::Ptr(t) => t.size(&self.input.prog.structs) as i64,
            _ => 1,
        };
        let delta = if inc { delta } else { -delta };
        let p = self.place(inner, frame)?;
        let old = self.load_dyn_place(&p);
        let keep = if post {
            let c = self.sink.temp(k);
            self.sink.un(UnOp::Mov, k, c, old.val);
            Some(c)
        } else {
            None
        };
        let newv = self.sink.temp(k);
        if ty == Type::Double {
            let dv = self.sink.temp(ValKind::F);
            self.sink.lif(dv, delta as f64);
            self.sink.bin(BinOp::Add, ValKind::F, newv, old.val, dv);
            self.sink.release(dv);
        } else {
            self.sink.bin_imm(BinOp::Add, k, newv, old.val, delta);
        }
        self.release(old);
        self.store_dyn_place(&p, newv);
        let result = if post {
            self.sink.release(newv);
            V {
                val: keep.expect("post"),
                owned: true,
            }
        } else {
            V {
                val: newv,
                owned: true,
            }
        };
        self.release_place(p);
        Ok(result)
    }

    fn binary(
        &mut self,
        op: BinaryOp,
        a: &Expr,
        b: &Expr,
        e: &Expr,
        frame: &mut Frame<'p, S>,
    ) -> Result<V<S>, VmError> {
        use BinaryOp::*;
        if matches!(op, LogAnd | LogOr) {
            let d = self.sink.temp_saved(ValKind::W);
            let ltrue = self.sink.label();
            let lfalse = self.sink.label();
            let lend = self.sink.label();
            self.cond_branch(e, Some(ltrue), Some(lfalse), frame)?;
            self.sink.bind(ltrue);
            self.sink.li(d, 1);
            self.sink.jmp(lend);
            self.sink.bind(lfalse);
            self.sink.li(d, 0);
            self.sink.bind(lend);
            return Ok(V {
                val: d,
                owned: true,
            });
        }
        let ta = a.ty.decay();
        let tb = b.ty.decay();
        // Pointer arithmetic.
        if (op == Add || op == Sub) && ta.is_ptr() && tb.is_integer() {
            let elem = match &ta {
                Type::Ptr(t) => t.size(&self.input.prog.structs) as i64,
                _ => unreachable!(),
            };
            let pv = self.expr(a, frame)?;
            if let Some(ci) = self.eval_static(b, frame, false)? {
                let d = self.sink.temp(ValKind::P);
                let off = ci.as_i() * elem * if op == Add { 1 } else { -1 };
                self.sink.bin_imm(BinOp::Add, ValKind::P, d, pv.val, off);
                self.release(pv);
                return Ok(V {
                    val: d,
                    owned: true,
                });
            }
            let iv = self.expr(b, frame)?;
            let iv = self.coerce(iv, &tb, &Type::Long);
            let scaled = self.sink.temp(ValKind::D);
            self.sink
                .bin_imm(BinOp::Mul, ValKind::D, scaled, iv.val, elem);
            self.release(iv);
            let d = self.sink.temp(ValKind::P);
            let mop = if op == Add { BinOp::Add } else { BinOp::Sub };
            self.sink.bin(mop, ValKind::P, d, pv.val, scaled);
            self.sink.release(scaled);
            self.release(pv);
            return Ok(V {
                val: d,
                owned: true,
            });
        }
        if op == Add && ta.is_integer() && tb.is_ptr() {
            return self.binary(Add, b, a, e, frame);
        }
        if op == Sub && ta.is_ptr() && tb.is_ptr() {
            let elem = match &ta {
                Type::Ptr(t) => t.size(&self.input.prog.structs) as i64,
                _ => unreachable!(),
            };
            let av = self.expr(a, frame)?;
            let bv = self.expr(b, frame)?;
            let diff = self.sink.temp(ValKind::D);
            self.sink.bin(BinOp::Sub, ValKind::D, diff, av.val, bv.val);
            self.release(av);
            self.release(bv);
            let d = self.sink.temp(ValKind::D);
            self.sink.bin_imm(BinOp::Div, ValKind::D, d, diff, elem);
            self.sink.release(diff);
            return Ok(V {
                val: d,
                owned: true,
            });
        }
        let cmp = matches!(op, Lt | Gt | Le | Ge | Eq | Ne);
        let common = if cmp {
            if ta.is_arith() && tb.is_arith() {
                ta.usual_arith(&tb)
            } else {
                ta.clone()
            }
        } else {
            e.ty.clone()
        };
        let k = common.kind();
        let mop = machine_binop(op, &common);

        // §5.1 heuristic: evaluate cspec operands before non-cspec
        // operands to shorten temp live ranges across composition.
        let a_has = contains_cspec(a);
        let b_has = contains_cspec(b);
        // Run-time-constant operands select strength-reduced immediates.
        let static_b = if k == ValKind::F {
            None
        } else {
            self.eval_static(b, frame, false)?
        };
        if let Some(cb) = static_b {
            if !cmp {
                let va = self.expr(a, frame)?;
                let va = self.coerce(va, &ta, &common);
                let d = self.sink.temp(k);
                self.sink.bin_imm(mop, k, d, va.val, cb.as_i());
                self.release(va);
                return Ok(V {
                    val: d,
                    owned: true,
                });
            }
        }
        let static_a = if k == ValKind::F {
            None
        } else {
            self.eval_static(a, frame, false)?
        };
        if let (Some(ca), Some(sw)) = (static_a, mop.swapped()) {
            if !cmp {
                let vb = self.expr(b, frame)?;
                let vb = self.coerce(vb, &tb, &common);
                let d = self.sink.temp(k);
                self.sink.bin_imm(sw, k, d, vb.val, ca.as_i());
                self.release(vb);
                return Ok(V {
                    val: d,
                    owned: true,
                });
            }
        }
        let (va, vb) = if self.input.cspec_first && b_has && !a_has {
            let vb = self.expr(b, frame)?;
            let va = self.expr(a, frame)?;
            (va, vb)
        } else {
            let va = self.expr(a, frame)?;
            let vb = self.expr(b, frame)?;
            (va, vb)
        };
        let va = self.coerce(va, &ta, &common);
        let vb = self.coerce(vb, &tb, &common);
        let d = self.sink.temp(if cmp { ValKind::W } else { k });
        self.sink.bin(
            mop,
            if cmp && k == ValKind::F {
                ValKind::F
            } else {
                k
            },
            d,
            va.val,
            vb.val,
        );
        self.release(va);
        self.release(vb);
        Ok(V {
            val: d,
            owned: true,
        })
    }

    fn assign(
        &mut self,
        op: &Option<BinaryOp>,
        lhs: &Expr,
        rhs: &Expr,
        frame: &mut Frame<'p, S>,
    ) -> Result<V<S>, VmError> {
        let p = self.place(lhs, frame)?;
        let stored = match op {
            None => {
                let v = self.expr(rhs, frame)?;
                self.coerce(v, &rhs.ty, &lhs.ty)
            }
            Some(op) => {
                let cur = self.load_dyn_place(&p);
                let ta = lhs.ty.decay();
                let tb = rhs.ty.decay();
                if ta.is_ptr() {
                    let elem = match &ta {
                        Type::Ptr(t) => t.size(&self.input.prog.structs) as i64,
                        _ => unreachable!(),
                    };
                    let iv = self.expr(rhs, frame)?;
                    let iv = self.coerce(iv, &tb, &Type::Long);
                    let scaled = self.sink.temp(ValKind::D);
                    self.sink
                        .bin_imm(BinOp::Mul, ValKind::D, scaled, iv.val, elem);
                    self.release(iv);
                    let d = self.sink.temp(ValKind::P);
                    let mop = if *op == BinaryOp::Add {
                        BinOp::Add
                    } else {
                        BinOp::Sub
                    };
                    self.sink.bin(mop, ValKind::P, d, cur.val, scaled);
                    self.sink.release(scaled);
                    self.release(cur);
                    V {
                        val: d,
                        owned: true,
                    }
                } else {
                    let common = if ta.is_arith() && tb.is_arith() {
                        ta.usual_arith(&tb)
                    } else {
                        ta.clone()
                    };
                    let k = common.kind();
                    let mop = machine_binop(*op, &common);
                    let cv = self.coerce(cur, &ta, &common);
                    let d = self.sink.temp(k);
                    let static_rhs = if k == ValKind::F {
                        None
                    } else {
                        self.eval_static(rhs, frame, false)?
                    };
                    if let Some(cb) = static_rhs {
                        self.sink.bin_imm(mop, k, d, cv.val, cb.as_i());
                    } else {
                        let rv = self.expr(rhs, frame)?;
                        let rv = self.coerce(rv, &tb, &common);
                        self.sink.bin(mop, k, d, cv.val, rv.val);
                        self.release(rv);
                    }
                    self.release(cv);

                    self.coerce(
                        V {
                            val: d,
                            owned: true,
                        },
                        &common,
                        &lhs.ty,
                    )
                }
            }
        };
        self.store_dyn_place(&p, stored.val);
        // Result of the assignment: re-read from the place (narrowed).
        let result = self.load_dyn_place(&p);
        let result = if result.owned {
            result
        } else {
            // register-resident place: hand back a borrowed value
            result
        };
        self.release(stored);
        self.release_place(p);
        Ok(result)
    }

    fn call(
        &mut self,
        callee: &Expr,
        args: &[Expr],
        e: &Expr,
        frame: &mut Frame<'p, S>,
    ) -> Result<V<S>, VmError> {
        // Evaluate arguments.
        let param_tys: Vec<Option<Type>> = match callee.ty.decay() {
            Type::Ptr(inner) => match &*inner {
                Type::Func(sig) if sig.params.len() == args.len() => {
                    sig.params.iter().cloned().map(Some).collect()
                }
                _ => vec![None; args.len()],
            },
            _ => vec![None; args.len()],
        };
        let mut vs = Vec::new();
        for (a, pt) in args.iter().zip(&param_tys) {
            let v = self.expr(a, frame)?;
            let ty = pt.clone().unwrap_or_else(|| a.ty.decay());
            let v = self.coerce(v, &a.ty, &ty);
            vs.push((ty.kind(), v));
        }
        let arg_list: Vec<(ValKind, S::Val)> = vs.iter().map(|(k, v)| (*k, v.val)).collect();
        let ret = if e.ty == Type::Void {
            None
        } else {
            let d = self.sink.temp_saved(e.ty.kind());
            Some((e.ty.kind(), d))
        };
        if let ExprKind::Var(VarRef::Builtin(b)) = &callee.kind {
            let num = match b {
                Builtin::Puts => tcc_rt::hcalls::HC_PUTS,
                Builtin::Puti => tcc_rt::hcalls::HC_PUTINT,
                Builtin::Putd => tcc_rt::hcalls::HC_PUTF,
                Builtin::Putchar => tcc_rt::hcalls::HC_PUTCHAR,
                Builtin::Printf => tcc_rt::hcalls::HC_PRINTF,
                Builtin::Malloc => tcc_rt::hcalls::HC_MALLOC,
                Builtin::Abort => tcc_rt::hcalls::HC_ABORT,
            };
            self.sink.hcall(num, &arg_list, ret);
        } else if let ExprKind::Var(VarRef::Func(fi)) = &callee.kind {
            // Dynamic code calls static functions *directly* — the
            // address is a run-time constant at instantiation time.
            self.sink
                .call_addr(self.input.func_addrs[*fi], &arg_list, ret);
        } else {
            let target = self.expr(callee, frame)?;
            // An argument-register-resident target would be clobbered by
            // the moves; targets are temps here, which is safe.
            self.sink.call_ind(target.val, &arg_list, ret);
            self.release(target);
        }
        for (_, v) in vs {
            self.release(v);
        }
        Ok(match ret {
            Some((_, d)) => V {
                val: d,
                owned: true,
            },
            None => {
                // A void value; give callers a dummy.
                let d = self.sink.temp(ValKind::W);
                V {
                    val: d,
                    owned: true,
                }
            }
        })
    }

    /// `apply(f, args)` — dynamic call construction (§6.2 mshl/umshl):
    /// the argument count and the code computing each argument are
    /// determined at specification time.
    fn apply(&mut self, f: &Expr, l: &Expr, frame: &mut Frame<'p, S>) -> Result<V<S>, VmError> {
        let ExprKind::Var(VarRef::TickCspec(i)) = &l.kind else {
            return Err(self.err("apply() argument list must be captured"));
        };
        let list = frame.fields[*i];
        if self.mem.load_u64(list)? != ARGLIST_MARKER {
            return Err(self.err("apply() target is not an argument list"));
        }
        let n = self.mem.load_u64(list + 8)?;
        let mut vals = Vec::new();
        let mut kinds = Vec::new();
        for j in 0..n {
            let closure = self.mem.load_u64(list + 16 + 8 * j)?;
            // The argument's kind comes from its cspec's evaluation type.
            let id = self.mem.load_u64(closure)? as usize;
            let tick = self
                .input
                .prog
                .ticks
                .get(id)
                .ok_or_else(|| self.err(format!("bad cgf id {id} in argument list")))?;
            if tick.eval_ty == Type::Void {
                return Err(self.err("void cspec in an argument list"));
            }
            kinds.push(tick.eval_ty.kind());
            let v = self
                .compile_closure(closure)?
                .ok_or_else(|| self.err("argument cspec produced no value"))?;
            vals.push(v);
        }
        let arg_list: Vec<(ValKind, S::Val)> =
            kinds.iter().zip(&vals).map(|(k, v)| (*k, v.val)).collect();
        let ret = self.sink.temp_saved(ValKind::W);
        if let ExprKind::Var(VarRef::Func(fi)) = &f.kind {
            self.sink.call_addr(
                self.input.func_addrs[*fi],
                &arg_list,
                Some((ValKind::W, ret)),
            );
        } else {
            let target = self.expr(f, frame)?;
            self.sink
                .call_ind(target.val, &arg_list, Some((ValKind::W, ret)));
            self.release(target);
        }
        for v in vals {
            self.release(v);
        }
        Ok(V {
            val: ret,
            owned: true,
        })
    }

    fn cond_branch(
        &mut self,
        e: &Expr,
        ltrue: Option<S::Lbl>,
        lfalse: Option<S::Lbl>,
        frame: &mut Frame<'p, S>,
    ) -> Result<(), VmError> {
        // Run-time constant condition: emit an unconditional edge (or
        // nothing) — dynamic dead code elimination.
        if let Some(cv) = self.eval_static(e, frame, false)? {
            match (cv.truthy(), ltrue, lfalse) {
                (true, Some(lt), _) => self.sink.jmp(lt),
                (false, _, Some(lf)) => self.sink.jmp(lf),
                _ => {}
            }
            return Ok(());
        }
        match &e.kind {
            ExprKind::Bin(op, a, b)
                if matches!(
                    op,
                    BinaryOp::Lt
                        | BinaryOp::Gt
                        | BinaryOp::Le
                        | BinaryOp::Ge
                        | BinaryOp::Eq
                        | BinaryOp::Ne
                ) =>
            {
                let ta = a.ty.decay();
                let tb = b.ty.decay();
                let common = if ta.is_arith() && tb.is_arith() {
                    ta.usual_arith(&tb)
                } else {
                    ta.clone()
                };
                // `x == 0` / `x != 0` folds to a truthiness branch on
                // `x` alone (BrTrue/BrFalse compare against the
                // hardwired zero register): the static back end never
                // materializes a zero operand and the dynamic path
                // shouldn't either. Floats keep the generic compare
                // (0.0 is not a bit-pattern test: -0.0 == 0.0).
                let zero_lit = |e: &Expr| matches!(e.kind, ExprKind::IntLit(0));
                if matches!(op, BinaryOp::Eq | BinaryOp::Ne)
                    && common.kind() != ValKind::F
                    && (zero_lit(a) || zero_lit(b))
                {
                    let (nz, tnz) = if zero_lit(b) { (a, &ta) } else { (b, &tb) };
                    let v = self.expr(nz, frame)?;
                    let v = self.coerce(v, tnz, &common);
                    let on_eq = matches!(op, BinaryOp::Eq);
                    match (ltrue, lfalse) {
                        (Some(lt), None) => {
                            if on_eq {
                                self.sink.br_false(v.val, lt);
                            } else {
                                self.sink.br_true(v.val, lt);
                            }
                        }
                        (None, Some(lf)) => {
                            if on_eq {
                                self.sink.br_true(v.val, lf);
                            } else {
                                self.sink.br_false(v.val, lf);
                            }
                        }
                        (Some(lt), Some(lf)) => {
                            if on_eq {
                                self.sink.br_false(v.val, lt);
                            } else {
                                self.sink.br_true(v.val, lt);
                            }
                            self.sink.jmp(lf);
                        }
                        (None, None) => {}
                    }
                    self.release(v);
                    return Ok(());
                }
                let va = self.expr(a, frame)?;
                let va = self.coerce(va, &ta, &common);
                let vb = self.expr(b, frame)?;
                let vb = self.coerce(vb, &tb, &common);
                let mop = machine_binop(*op, &common);
                let k = common.kind();
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
            ExprKind::Un(UnaryOp::LogNot, inner) => self.cond_branch(inner, lfalse, ltrue, frame),
            ExprKind::Bin(BinaryOp::LogAnd, a, b) => {
                let lskip = self.sink.label();
                self.cond_branch(a, None, Some(lfalse.unwrap_or(lskip)), frame)?;
                self.cond_branch(b, ltrue, lfalse, frame)?;
                self.sink.bind(lskip);
                Ok(())
            }
            ExprKind::Bin(BinaryOp::LogOr, a, b) => {
                let lskip = self.sink.label();
                self.cond_branch(a, Some(ltrue.unwrap_or(lskip)), None, frame)?;
                self.cond_branch(b, ltrue, lfalse, frame)?;
                self.sink.bind(lskip);
                Ok(())
            }
            _ => {
                let v = self.expr(e, frame)?;
                match (ltrue, lfalse) {
                    (Some(lt), None) => self.sink.br_true(v.val, lt),
                    (None, Some(lf)) => self.sink.br_false(v.val, lf),
                    (Some(lt), Some(lf)) => {
                        self.sink.br_true(v.val, lt);
                        self.sink.jmp(lf);
                    }
                    (None, None) => {}
                }
                self.release(v);
                Ok(())
            }
        }
    }

    // ---- statements --------------------------------------------------------

    fn stmt(&mut self, s: &Stmt, frame: &mut Frame<'p, S>) -> Result<(), VmError> {
        match s {
            Stmt::Expr(e) => {
                // jump(l): emit a jump to a dynamic label.
                if let ExprKind::JumpForm(l) = &e.kind {
                    let ExprKind::Var(VarRef::TickCspec(i)) = &l.kind else {
                        return Err(self.err("jump() target must be a captured label"));
                    };
                    let addr = frame.fields[*i];
                    if self.mem.load_u64(addr)? != LABEL_MARKER {
                        return Err(self.err("jump() target is not a dynamic label object"));
                    }
                    let (lbl, _) = self.dyn_label(addr);
                    self.sink.jmp(lbl);
                    return Ok(());
                }
                // A void cspec mentioned as a statement splices its code.
                if let ExprKind::Var(VarRef::TickCspec(i)) = &e.kind {
                    if frame.tick.captures[*i].ty == Type::Void {
                        let closure = frame.fields[*i];
                        self.compile_closure(closure)?;
                        return Ok(());
                    }
                }
                let v = self.expr(e, frame)?;
                self.release(v);
                Ok(())
            }
            Stmt::Decl(items) => {
                for item in items {
                    if let Some(Init::Expr(init)) = &item.init {
                        // A static initializer keeps the local a derived
                        // run-time constant until a dynamic write demotes
                        // it.
                        if let Some(cv) = self.eval_static(init, frame, false)? {
                            frame.rtc.insert(item.local_id, cv);
                            continue;
                        }
                        let v = self.expr(init, frame)?;
                        let v = self.coerce(v, &init.ty, &item.ty);
                        let home = self.local_val(frame, item.local_id);
                        self.sink.un(UnOp::Mov, item.ty.kind(), home, v.val);
                        self.narrow(home, &item.ty);
                        self.release(v);
                    }
                }
                Ok(())
            }
            Stmt::If(c, t, els) => {
                // Dynamic dead code elimination on run-time constants.
                if let Some(cv) = self.eval_static(c, frame, false)? {
                    return if cv.truthy() {
                        self.stmt(t, frame)
                    } else if let Some(els) = els {
                        self.stmt(els, frame)
                    } else {
                        Ok(())
                    };
                }
                let lelse = self.sink.label();
                let lend = self.sink.label();
                self.cond_branch(c, None, Some(lelse), frame)?;
                self.stmt(t, frame)?;
                if els.is_some() {
                    self.sink.jmp(lend);
                }
                self.sink.bind(lelse);
                if let Some(els) = els {
                    self.stmt(els, frame)?;
                }
                self.sink.bind(lend);
                Ok(())
            }
            Stmt::For(init, cond, step, body) => self.lower_for(init, cond, step, body, frame),
            Stmt::While(c, body) => {
                let ltop = self.sink.label();
                let lcond = self.sink.label();
                let lend = self.sink.label();
                self.sink.jmp(lcond);
                self.sink.loop_begin();
                self.sink.bind(ltop);
                self.break_stack.push(lend);
                self.continue_stack.push(lcond);
                self.stmt(body, frame)?;
                self.break_stack.pop();
                self.continue_stack.pop();
                self.sink.bind(lcond);
                self.cond_branch(c, Some(ltop), None, frame)?;
                self.sink.loop_end();
                self.sink.bind(lend);
                Ok(())
            }
            Stmt::DoWhile(body, c) => {
                let ltop = self.sink.label();
                let lcond = self.sink.label();
                let lend = self.sink.label();
                self.sink.loop_begin();
                self.sink.bind(ltop);
                self.break_stack.push(lend);
                self.continue_stack.push(lcond);
                self.stmt(body, frame)?;
                self.break_stack.pop();
                self.continue_stack.pop();
                self.sink.bind(lcond);
                self.cond_branch(c, Some(ltop), None, frame)?;
                self.sink.loop_end();
                self.sink.bind(lend);
                Ok(())
            }
            Stmt::Return(e) => {
                match (e, self.ret_kind) {
                    (Some(e), Some(k)) => {
                        let v = self.expr(e, frame)?;
                        // Coerce to the kind compile() declared.
                        let target = kind_type(k);
                        let v = self.coerce(v, &e.ty, &target);
                        self.sink.ret_val(k, v.val);
                        self.release(v);
                    }
                    (Some(e), None) => {
                        let v = self.expr(e, frame)?;
                        self.release(v);
                        self.sink.ret_void();
                    }
                    (None, _) => self.sink.ret_void(),
                }
                Ok(())
            }
            Stmt::Break => {
                let l = *self
                    .break_stack
                    .last()
                    .ok_or_else(|| self.err("break outside loop in dynamic code"))?;
                self.sink.jmp(l);
                Ok(())
            }
            Stmt::Continue => {
                let l = *self
                    .continue_stack
                    .last()
                    .ok_or_else(|| self.err("continue outside loop in dynamic code"))?;
                self.sink.jmp(l);
                Ok(())
            }
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.stmt(s, frame)?;
                }
                Ok(())
            }
            Stmt::Switch(scrut, items) => {
                // Run-time constant scrutinee: emit only the chosen arm.
                if let Some(cv) = self.eval_static(scrut, frame, false)? {
                    return self.static_switch(cv.as_i(), items, frame);
                }
                let sv = self.expr(scrut, frame)?;
                let lend = self.sink.label();
                let mut case_labels = Vec::new();
                let mut default_label = None;
                for item in items {
                    match item {
                        SwitchItem::Case(v) => {
                            let l = self.sink.label();
                            case_labels.push((*v, l));
                        }
                        SwitchItem::Default => default_label = Some(self.sink.label()),
                        SwitchItem::Stmt(_) => {}
                    }
                }
                let k = scrut.ty.kind();
                for (v, l) in &case_labels {
                    let c = self.sink.temp(k);
                    self.sink.li(c, *v);
                    self.sink.br_cmp(BinOp::Eq, k, sv.val, c, *l);
                    self.sink.release(c);
                }
                self.release(sv);
                self.sink.jmp(default_label.unwrap_or(lend));
                self.break_stack.push(lend);
                let mut ci = 0;
                for item in items {
                    match item {
                        SwitchItem::Case(_) => {
                            self.sink.bind(case_labels[ci].1);
                            ci += 1;
                        }
                        SwitchItem::Default => self.sink.bind(default_label.expect("seen")),
                        SwitchItem::Stmt(s) => self.stmt(s, frame)?,
                    }
                }
                self.break_stack.pop();
                self.sink.bind(lend);
                Ok(())
            }
            Stmt::Goto(name) => {
                let l = *frame
                    .labels
                    .entry(name.clone())
                    .or_insert_with(|| self.sink.label());
                self.sink.jmp(l);
                Ok(())
            }
            Stmt::Labeled(name, inner) => {
                let l = *frame
                    .labels
                    .entry(name.clone())
                    .or_insert_with(|| self.sink.label());
                self.sink.bind(l);
                self.stmt(inner, frame)
            }
            Stmt::Empty => Ok(()),
        }
    }

    /// Emits only the statically selected arm of a switch over a run-time
    /// constant, honoring fallthrough and `break`.
    fn static_switch(
        &mut self,
        v: i64,
        items: &[SwitchItem],
        frame: &mut Frame<'p, S>,
    ) -> Result<(), VmError> {
        let lend = self.sink.label();
        // Find the entry point: matching case, else default.
        let mut start = items
            .iter()
            .position(|i| matches!(i, SwitchItem::Case(c) if *c == v));
        if start.is_none() {
            start = items.iter().position(|i| matches!(i, SwitchItem::Default));
        }
        if let Some(mut idx) = start {
            self.break_stack.push(lend);
            while idx < items.len() {
                if let SwitchItem::Stmt(s) = &items[idx] {
                    self.stmt(s, frame)?;
                }
                idx += 1;
            }
            self.break_stack.pop();
        }
        self.sink.bind(lend);
        Ok(())
    }

    /// `for` lowering with the paper's dynamic loop unrolling.
    fn lower_for(
        &mut self,
        init: &Option<Box<Stmt>>,
        cond: &Option<Expr>,
        step: &Option<Expr>,
        body: &Stmt,
        frame: &mut Frame<'p, S>,
    ) -> Result<(), VmError> {
        // Try the static (unrollable) pattern first.
        if let Some(()) = self.try_unroll(init, cond, step, body, frame)? {
            return Ok(());
        }
        if let Some(i) = init {
            self.stmt(i, frame)?;
        }
        let ltop = self.sink.label();
        let lcond = self.sink.label();
        let lstep = self.sink.label();
        let lend = self.sink.label();
        self.sink.jmp(lcond);
        self.sink.loop_begin();
        self.sink.bind(ltop);
        self.break_stack.push(lend);
        self.continue_stack.push(lstep);
        self.stmt(body, frame)?;
        self.break_stack.pop();
        self.continue_stack.pop();
        self.sink.bind(lstep);
        if let Some(st) = step {
            let v = self.expr(st, frame)?;
            self.release(v);
        }
        self.sink.bind(lcond);
        match cond {
            Some(c) => self.cond_branch(c, Some(ltop), None, frame)?,
            None => self.sink.jmp(ltop),
        }
        self.sink.loop_end();
        self.sink.bind(lend);
        Ok(())
    }

    /// Attempts dynamic loop unrolling; returns `Some(())` if the loop
    /// was fully executed at compile time.
    fn try_unroll(
        &mut self,
        init: &Option<Box<Stmt>>,
        cond: &Option<Expr>,
        step: &Option<Expr>,
        body: &Stmt,
        frame: &mut Frame<'p, S>,
    ) -> Result<Option<()>, VmError> {
        if !self.input.enable_unroll {
            return Ok(None);
        }
        let (Some(init), Some(cond), Some(step)) = (init, cond, step) else {
            return Ok(None);
        };
        // init must bind a tick local to a static value.
        let (k, init_expr) = match &**init {
            Stmt::Expr(Expr {
                kind: ExprKind::Assign(None, lhs, rhs),
                ..
            }) => match &lhs.kind {
                ExprKind::Var(VarRef::TickLocal(i)) => (*i, (**rhs).clone()),
                _ => return Ok(None),
            },
            Stmt::Decl(items) if items.len() == 1 => match &items[0].init {
                Some(Init::Expr(e)) => (items[0].local_id, e.clone()),
                _ => return Ok(None),
            },
            _ => return Ok(None),
        };
        // step must be an update of k by a static amount.
        let step_kind = match &step.kind {
            ExprKind::PreIncDec(t, inc) | ExprKind::PostIncDec(t, inc) if matches!(t.kind, ExprKind::Var(VarRef::TickLocal(i)) if i == k) => {
                StepKind::IncDec(*inc)
            }
            ExprKind::Assign(Some(op), lhs, rhs) if matches!(lhs.kind, ExprKind::Var(VarRef::TickLocal(i)) if i == k) => {
                StepKind::AssignOp(*op, (**rhs).clone())
            }
            ExprKind::Assign(None, lhs, rhs) if matches!(lhs.kind, ExprKind::Var(VarRef::TickLocal(i)) if i == k) => {
                StepKind::Reassign((**rhs).clone())
            }
            _ => return Ok(None),
        };
        // The body must not assign the induction variable, use labels, or
        // break/continue this loop.
        if assigns_local(body, k) || has_labels(body) || has_loop_escape(body, 0) {
            return Ok(None);
        }
        // (Shape first, values second: the plan decides the shape at
        // lowering, so a loop of the wrong shape costs no evaluation.)
        // The induction variable must not already be dynamic.
        if frame.vals.contains_key(&k) {
            return Ok(None);
        }
        let Some(init_cv) = self.eval_static(&init_expr, frame, false)? else {
            return Ok(None);
        };
        // The pre-simulation's first evaluation is also the check that
        // the condition is statically evaluable at the start.
        frame.rtc.insert(k, init_cv);

        let ty = frame.tick.dyn_locals[k].ty.clone();

        // Pre-simulate the trip count (header only — the body cannot
        // touch the header per the checks above). Over-large loops stay
        // loops: "unless it is made too large, and hence acquires poor
        // memory locality and incurs a high code generation cost" (§4.4).
        let mut trips: u64 = 0;
        loop {
            let Some(c) = self.eval_static(cond, frame, false)? else {
                frame.rtc.remove(&k);
                return Ok(None);
            };
            if !c.truthy() {
                break;
            }
            trips += 1;
            if trips > UNROLL_TRIP_LIMIT {
                frame.rtc.remove(&k);
                return Ok(None);
            }
            let cur = *frame.rtc.get(&k).expect("induction var is static");
            match self.apply_step(&step_kind, cur, &ty, frame)? {
                Some(next) => frame.rtc.insert(k, next),
                None => {
                    frame.rtc.remove(&k);
                    return Ok(None);
                }
            };
        }
        frame.rtc.insert(k, init_cv);

        // Unroll.
        let mut iters: u64 = 0;
        loop {
            let Some(c) = self.eval_static(cond, frame, false)? else {
                // The body demoted something the condition needs; this is
                // not recoverable mid-unroll.
                return Err(self.err(
                    "loop condition became dynamic during unrolling; \
                     restructure the dynamic code",
                ));
            };
            if !c.truthy() {
                break;
            }
            self.stmt(body, frame)?;
            let cur = *frame.rtc.get(&k).expect("induction var is static");
            let next = self
                .apply_step(&step_kind, cur, &ty, frame)?
                .ok_or_else(|| self.err("loop step became dynamic during unrolling"))?;
            frame.rtc.insert(k, next);
            iters += 1;
            self.stats.unrolled_iters += 1;
            if iters > UNROLL_LIMIT {
                return Err(self.err("dynamic loop unrolling exceeded the iteration limit"));
            }
        }
        Ok(Some(()))
    }

    /// Applies a static loop step to the induction variable's current
    /// value; `None` when the step is not statically evaluable.
    fn apply_step(
        &mut self,
        step: &StepKind,
        cur: Cv,
        ty: &Type,
        frame: &Frame<'p, S>,
    ) -> Result<Option<Cv>, VmError> {
        Ok(match step {
            StepKind::IncDec(inc) => {
                let d: i64 = if *inc { 1 } else { -1 };
                Some(match cur {
                    Cv::I(v) => {
                        if ty.kind() == ValKind::W {
                            Cv::I((v as i32).wrapping_add(d as i32) as i64)
                        } else {
                            Cv::I(v.wrapping_add(d))
                        }
                    }
                    Cv::F(v) => Cv::F(v + d as f64),
                })
            }
            StepKind::AssignOp(op, rhs) => {
                let Some(rv) = self.eval_static(rhs, frame, false)? else {
                    return Ok(None);
                };
                self.eval_bin(*op, cur, rv, ty, &rhs.ty)
            }
            StepKind::Reassign(rhs) => self.eval_static(rhs, frame, false)?,
        })
    }
}

enum DynPlace<S: CodeSink> {
    Val(S::Val, Type),
    Mem { addr: V<S>, off: i64, ty: Type },
}

/// Compile-time constant cast between scalar types.
fn cast_const(cv: Cv, _from: &Type, to: &Type) -> Cv {
    match to {
        Type::Double => Cv::F(cv.as_f()),
        Type::Char => Cv::I(cv.as_i() as i8 as i64),
        Type::UChar => Cv::I(cv.as_i() as u8 as i64),
        Type::Short => Cv::I(cv.as_i() as i16 as i64),
        Type::UShort => Cv::I(cv.as_i() as u16 as i64),
        Type::Int => Cv::I(cv.as_i() as i32 as i64),
        Type::UInt => Cv::I(cv.as_i() as u32 as i32 as i64), // canonical W
        _ => Cv::I(cv.as_i()),
    }
}

fn kind_type(k: ValKind) -> Type {
    match k {
        ValKind::W => Type::Int,
        ValKind::D => Type::Long,
        ValKind::P => Type::Ptr(Arc::new(Type::Void)),
        ValKind::F => Type::Double,
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

fn contains_cspec(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Var(VarRef::TickCspec(_)) => true,
        ExprKind::Un(_, a) | ExprKind::Cast(_, a) | ExprKind::Dollar(a) => contains_cspec(a),
        ExprKind::Bin(_, a, b)
        | ExprKind::Assign(_, a, b)
        | ExprKind::Index(a, b)
        | ExprKind::Comma(a, b) => contains_cspec(a) || contains_cspec(b),
        ExprKind::Cond(a, b, c) => contains_cspec(a) || contains_cspec(b) || contains_cspec(c),
        ExprKind::Member(a, ..) => contains_cspec(a),
        ExprKind::Call(f, args) => contains_cspec(f) || args.iter().any(contains_cspec),
        _ => false,
    }
}

fn assigns_local(s: &Stmt, k: usize) -> bool {
    fn expr_assigns(e: &Expr, k: usize) -> bool {
        let target = |t: &Expr| matches!(t.kind, ExprKind::Var(VarRef::TickLocal(i)) if i == k);
        match &e.kind {
            ExprKind::Assign(_, lhs, rhs) => {
                target(lhs) || expr_assigns(lhs, k) || expr_assigns(rhs, k)
            }
            ExprKind::PreIncDec(t, _) | ExprKind::PostIncDec(t, _) => {
                target(t) || expr_assigns(t, k)
            }
            ExprKind::Un(UnaryOp::Addr, t) => target(t) || expr_assigns(t, k),
            ExprKind::Un(_, a) | ExprKind::Cast(_, a) | ExprKind::Dollar(a) => expr_assigns(a, k),
            ExprKind::Bin(_, a, b) | ExprKind::Index(a, b) | ExprKind::Comma(a, b) => {
                expr_assigns(a, k) || expr_assigns(b, k)
            }
            ExprKind::Cond(a, b, c) => {
                expr_assigns(a, k) || expr_assigns(b, k) || expr_assigns(c, k)
            }
            ExprKind::Member(a, ..) => expr_assigns(a, k),
            ExprKind::Call(f, args) => {
                expr_assigns(f, k) || args.iter().any(|a| expr_assigns(a, k))
            }
            _ => false,
        }
    }
    match s {
        Stmt::Expr(e) => expr_assigns(e, k),
        Stmt::Decl(items) => items
            .iter()
            .any(|i| matches!(&i.init, Some(Init::Expr(e)) if expr_assigns(e, k))),
        Stmt::If(c, t, e) => {
            expr_assigns(c, k)
                || assigns_local(t, k)
                || e.as_ref().is_some_and(|e| assigns_local(e, k))
        }
        Stmt::While(c, b) | Stmt::DoWhile(b, c) => expr_assigns(c, k) || assigns_local(b, k),
        Stmt::For(i, c, st, b) => {
            i.as_ref().is_some_and(|i| assigns_local(i, k))
                || c.as_ref().is_some_and(|c| expr_assigns(c, k))
                || st.as_ref().is_some_and(|s| expr_assigns(s, k))
                || assigns_local(b, k)
        }
        Stmt::Return(Some(e)) => expr_assigns(e, k),
        Stmt::Block(ss) => ss.iter().any(|s| assigns_local(s, k)),
        Stmt::Switch(c, items) => {
            expr_assigns(c, k)
                || items
                    .iter()
                    .any(|i| matches!(i, SwitchItem::Stmt(s) if assigns_local(s, k)))
        }
        Stmt::Labeled(_, s) => assigns_local(s, k),
        _ => false,
    }
}

fn has_labels(s: &Stmt) -> bool {
    match s {
        Stmt::Labeled(..) | Stmt::Goto(_) => true,
        Stmt::If(_, t, e) => has_labels(t) || e.as_ref().is_some_and(|e| has_labels(e)),
        Stmt::While(_, b) | Stmt::DoWhile(b, _) => has_labels(b),
        Stmt::For(i, _, _, b) => i.as_ref().is_some_and(|i| has_labels(i)) || has_labels(b),
        Stmt::Block(ss) => ss.iter().any(has_labels),
        Stmt::Switch(_, items) => items
            .iter()
            .any(|i| matches!(i, SwitchItem::Stmt(s) if has_labels(s))),
        _ => false,
    }
}

/// True if the statement contains `break`/`continue` that would escape
/// the loop at nesting `depth`.
fn has_loop_escape(s: &Stmt, depth: u32) -> bool {
    match s {
        Stmt::Break | Stmt::Continue => depth == 0,
        Stmt::If(_, t, e) => {
            has_loop_escape(t, depth) || e.as_ref().is_some_and(|e| has_loop_escape(e, depth))
        }
        Stmt::While(_, b) | Stmt::DoWhile(b, _) => has_loop_escape(b, depth + 1),
        Stmt::For(i, _, _, b) => {
            i.as_ref().is_some_and(|i| has_loop_escape(i, depth)) || has_loop_escape(b, depth + 1)
        }
        Stmt::Block(ss) => ss.iter().any(|s| has_loop_escape(s, depth)),
        Stmt::Switch(_, items) => items
            .iter()
            .any(|i| matches!(i, SwitchItem::Stmt(s) if has_loop_escape(s, depth + 1))),
        Stmt::Labeled(_, s2) => has_loop_escape(s2, depth),
        _ => false,
    }
}

// ---- the recording sink and the comparison -------------------------------

/// One [`CodeSink`] call, as made.
#[derive(Clone, Debug, PartialEq)]
enum RecOp {
    Temp(ValKind, u32),
    TempSaved(ValKind, u32),
    Release(u32),
    Param(usize, ValKind, u32),
    Li(u32, i64),
    /// (bits, so NaNs compare)
    Lif(u32, u64),
    Bin(BinOp, ValKind, u32, u32, u32),
    BinImm(BinOp, ValKind, u32, u32, i64),
    Un(UnOp, ValKind, u32, u32),
    Load(LoadKind, u32, u32, i64),
    Store(StoreKind, u32, u32, i64),
    Label(u32),
    Bind(u32),
    Jmp(u32),
    BrCmp(BinOp, ValKind, u32, u32, u32),
    BrTrue(u32, u32),
    BrFalse(u32, u32),
    CallAddr(u64, Args, Ret),
    CallInd(u32, Args, Ret),
    Hcall(u32, Args, Ret),
    RetVal(ValKind, u32),
    RetVoid,
    LoopBegin,
    LoopEnd,
}

type Args = Vec<(ValKind, u32)>;
type Ret = Option<(ValKind, u32)>;

/// A sink that emits nothing and remembers everything: values and
/// labels are numbered in allocation order.
#[derive(Default)]
struct RecSink {
    ops: Vec<RecOp>,
    vals: u32,
    labels: u32,
}

impl RecSink {
    fn val(&mut self) -> u32 {
        self.vals += 1;
        self.vals - 1
    }
}

impl CodeSink for RecSink {
    type Val = u32;
    type Lbl = u32;

    fn temp(&mut self, k: ValKind) -> u32 {
        let v = self.val();
        self.ops.push(RecOp::Temp(k, v));
        v
    }
    fn temp_saved(&mut self, k: ValKind) -> u32 {
        let v = self.val();
        self.ops.push(RecOp::TempSaved(k, v));
        v
    }
    fn release(&mut self, v: u32) {
        self.ops.push(RecOp::Release(v));
    }
    fn param(&mut self, i: usize, k: ValKind) -> u32 {
        let v = self.val();
        self.ops.push(RecOp::Param(i, k, v));
        v
    }
    fn li(&mut self, dst: u32, v: i64) {
        self.ops.push(RecOp::Li(dst, v));
    }
    fn lif(&mut self, dst: u32, v: f64) {
        self.ops.push(RecOp::Lif(dst, v.to_bits()));
    }
    fn bin(&mut self, op: BinOp, k: ValKind, dst: u32, a: u32, b: u32) {
        self.ops.push(RecOp::Bin(op, k, dst, a, b));
    }
    fn bin_imm(&mut self, op: BinOp, k: ValKind, dst: u32, a: u32, imm: i64) {
        self.ops.push(RecOp::BinImm(op, k, dst, a, imm));
    }
    fn un(&mut self, op: UnOp, k: ValKind, dst: u32, a: u32) {
        self.ops.push(RecOp::Un(op, k, dst, a));
    }
    fn load(&mut self, lk: LoadKind, dst: u32, base: u32, off: i64) {
        self.ops.push(RecOp::Load(lk, dst, base, off));
    }
    fn store(&mut self, sk: StoreKind, val: u32, base: u32, off: i64) {
        self.ops.push(RecOp::Store(sk, val, base, off));
    }
    fn label(&mut self) -> u32 {
        self.labels += 1;
        self.ops.push(RecOp::Label(self.labels - 1));
        self.labels - 1
    }
    fn bind(&mut self, l: u32) {
        self.ops.push(RecOp::Bind(l));
    }
    fn jmp(&mut self, l: u32) {
        self.ops.push(RecOp::Jmp(l));
    }
    fn br_cmp(&mut self, op: BinOp, k: ValKind, a: u32, b: u32, l: u32) {
        self.ops.push(RecOp::BrCmp(op, k, a, b, l));
    }
    fn br_true(&mut self, a: u32, l: u32) {
        self.ops.push(RecOp::BrTrue(a, l));
    }
    fn br_false(&mut self, a: u32, l: u32) {
        self.ops.push(RecOp::BrFalse(a, l));
    }
    fn call_addr(&mut self, addr: u64, args: &[(ValKind, u32)], ret: Ret) {
        self.ops.push(RecOp::CallAddr(addr, args.to_vec(), ret));
    }
    fn call_ind(&mut self, target: u32, args: &[(ValKind, u32)], ret: Ret) {
        self.ops.push(RecOp::CallInd(target, args.to_vec(), ret));
    }
    fn hcall(&mut self, num: u32, args: &[(ValKind, u32)], ret: Ret) {
        self.ops.push(RecOp::Hcall(num, args.to_vec(), ret));
    }
    fn ret_val(&mut self, k: ValKind, v: u32) {
        self.ops.push(RecOp::RetVal(k, v));
    }
    fn ret_void(&mut self) {
        self.ops.push(RecOp::RetVoid);
    }
    fn loop_begin(&mut self) {
        self.ops.push(RecOp::LoopBegin);
    }
    fn loop_end(&mut self) {
        self.ops.push(RecOp::LoopEnd);
    }
    fn emitted(&self) -> u64 {
        self.ops.len() as u64
    }
}

thread_local! {
    /// Walks compared on this thread (tests assert the oracle ran).
    static CHECKS: Cell<u64> = const { Cell::new(0) };
    /// Error texts both walkers agreed on, on this thread.
    static ERRORS: Cell<u64> = const { Cell::new(0) };
}

/// (walks compared, of which ended in the same error) on this thread.
pub(crate) fn checks() -> (u64, u64) {
    (CHECKS.get(), ERRORS.get())
}

/// Walks `closure` with the plan walker, after the closure scan that
/// lists its `param` vspecs, and with the AST walker, which binds them by
/// its own recursion, each into a recording sink, and panics unless they
/// agree: same operation stream and [`WalkStats`], or the same error.
pub(crate) fn check(input: DynInput<'_>, mem: &Memory, ret_kind: Option<ValKind>, closure: u64) {
    let mut plan_sink = RecSink::default();
    let mut scratch = WalkScratch::default();
    let (mut params, path) = (
        Vec::new(),
        &mut [fingerprint::Frame::default(); fingerprint::MAX_PATH],
    );
    let plan_result = fingerprint::scan_closure(mem, input, path, closure, None, &mut params)
        .and_then(|_| {
            let mut plan = DynCompiler::new(input, mem, &mut plan_sink, &mut scratch, ret_kind);
            plan.compile_entry(closure, &params).map(|()| plan.stats)
        });

    let mut ast_sink = RecSink::default();
    let mut ast = AstCompiler::new(input, mem, &mut ast_sink, ret_kind);
    let ast_result = ast.compile_entry(closure).map(|()| ast.stats);

    CHECKS.set(CHECKS.get() + 1);
    match (plan_result, ast_result) {
        (Ok(plan_stats), Ok(ast_stats)) => {
            if let Some(at) = (0..plan_sink.ops.len().max(ast_sink.ops.len()))
                .find(|&i| plan_sink.ops.get(i) != ast_sink.ops.get(i))
            {
                let from = at.saturating_sub(6);
                panic!(
                    "walkers diverge at op {at}:\n  plan {:?}\n  ast  {:?}",
                    &plan_sink.ops[from..plan_sink.ops.len().min(at + 2)],
                    &ast_sink.ops[from..ast_sink.ops.len().min(at + 2)],
                );
            }
            // The AST walker has no plan steps to count.
            let plan_stats = WalkStats {
                steps: 0,
                ..plan_stats
            };
            assert_eq!(plan_stats, ast_stats, "walk statistics differ");
        }
        (Err(p), Err(a)) => {
            assert_eq!(p.to_string(), a.to_string(), "walkers fail differently");
            ERRORS.set(ERRORS.get() + 1);
        }
        (p, a) => panic!("one walker failed: plan {p:?}, ast {a:?}"),
    }
}
