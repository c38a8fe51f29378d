//! Semantic analysis: name resolution, type checking, and tick-expression
//! capture analysis.
//!
//! "All parsing and semantic checking of dynamic expressions occurs at
//! static compile time. … For each cspec, tcc performs type checking
//! similarly to a traditional C compiler. It also tracks goto statements
//! and labels to ensure that a goto does not transfer control outside the
//! body of the containing cspec" (§4.1). This module does exactly that,
//! and additionally computes each tick expression's closure layout: the
//! `$`-bound run-time constants, free-variable addresses, and nested
//! cspec/vspec references that the generated code captures at
//! specification time (§4.3).

use crate::ast::*;
use crate::error::FrontError;
use crate::parser::{ParsedUnit, RawFunc};
use crate::types::{FuncSig, Type};
use std::collections::HashSet;
use std::sync::Arc;

/// Runs semantic analysis over a parsed unit.
///
/// # Errors
///
/// Returns the first semantic error.
pub fn analyze(unit: ParsedUnit) -> Result<Program, FrontError> {
    let mut sema = Sema {
        prog: Program {
            structs: unit.structs,
            globals: Vec::new(),
            funcs: Vec::new(),
            ticks: Vec::new(),
            spec_escapes: false,
            spec_returns: Vec::new(),
        },
        sigs: Vec::new(),
        ctx: None,
    };
    let ParsedUnit { globals, funcs, .. } = unit;
    // The escape rule (DESIGN, "Spec-time memory") is decided by the
    // types the program uses: here its struct fields, then its globals
    // and signatures, then every declaration, cast and expression below.
    let structs = &sema.prog.structs;
    sema.prog.spec_escapes = structs
        .iter()
        .flat_map(|s| &s.fields)
        .any(|f| f.ty.points_to_spec(structs));
    // Collect global names and function signatures first (forward refs).
    for g in globals {
        if g.ty == Type::Void {
            return Err(serr(0, format!("global {} has type void", g.name)));
        }
        sema.prog.spec_escapes |= g.ty.holds_spec(&sema.prog.structs);
        sema.note_type(&g.ty);
        sema.prog.globals.push(GlobalDef {
            name: g.name,
            ty: g.ty,
            init: g.init,
        });
    }
    for f in &funcs {
        let sig = FuncSig {
            ret: f.ret.clone(),
            params: f.params.iter().map(|(_, t)| t.clone()).collect(),
        };
        for t in sig.params.iter().chain([&sig.ret]) {
            sema.note_type(t);
        }
        if sig.ret.holds_spec(&sema.prog.structs) {
            sema.prog.spec_returns.push(sema.sigs.len());
        }
        sema.sigs.push((f.name.clone(), Arc::new(sig)));
    }
    for f in funcs {
        let fd = sema.check_func(f)?;
        sema.prog.funcs.push(fd);
    }
    // Validate global initializers are constant.
    for g in 0..sema.prog.globals.len() {
        if let Some(init) = sema.prog.globals[g].init.take() {
            let folded = sema.check_global_init(&sema.prog.globals[g].ty.clone(), init)?;
            sema.prog.globals[g].init = Some(folded);
        }
    }
    Ok(sema.prog)
}

fn serr(line: u32, msg: impl Into<String>) -> FrontError {
    FrontError::Sema {
        line,
        msg: msg.into(),
    }
}

#[derive(Clone, Debug)]
enum Binding {
    Local(usize),
    TickLocal(usize),
}

/// What a tick captures, for deduplicating its captures: one field per
/// `$`-bound local or global, composed cspec/vspec variable, and free
/// variable.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CaptureKey {
    DollarLocal(usize),
    DollarGlobal(usize),
    Spec(usize),
    SpecGlobal(usize),
    FreeVar(usize),
}

/// Nested block scopes as one stack: the ids of the variables declared,
/// innermost last, and where each open block's declarations start. A
/// name resolves to the latest declaration of it still on the stack.
#[derive(Default)]
struct Scopes {
    ids: Vec<usize>,
    marks: Vec<usize>,
}

impl Scopes {
    fn push(&mut self) {
        self.marks.push(self.ids.len());
    }

    fn pop(&mut self) {
        let mark = self.marks.pop().expect("an open scope");
        self.ids.truncate(mark);
    }

    fn declare(&mut self, id: usize) {
        self.ids.push(id);
    }

    /// The innermost variable of `defs` named `name`.
    fn find(&self, defs: &[LocalDef], name: &str) -> Option<usize> {
        self.ids
            .iter()
            .rev()
            .copied()
            .find(|&i| defs[i].name == name)
    }
}

struct TickCtx {
    captures: Vec<Capture>,
    dyn_locals: Vec<LocalDef>,
    str_lits: Vec<Vec<u8>>,
    /// Each capture made so far, and its index.
    captured: Vec<(CaptureKey, usize)>,
    scopes: Scopes,
    labels: HashSet<String>,
    gotos: Vec<(String, u32)>,
}

impl TickCtx {
    /// The index of the capture `key` names, made by `make` the first
    /// time.
    fn capture(&mut self, key: CaptureKey, make: impl FnOnce() -> Capture) -> usize {
        if let Some(&(_, idx)) = self.captured.iter().find(|(k, _)| *k == key) {
            return idx;
        }
        self.captures.push(make());
        let idx = self.captures.len() - 1;
        self.captured.push((key, idx));
        idx
    }
}

struct FuncCtx {
    locals: Vec<LocalDef>,
    scopes: Scopes,
    ret: Type,
    loop_depth: u32,
    switch_depth: u32,
    labels: HashSet<String>,
    gotos: Vec<(String, u32)>,
    tick: Option<TickCtx>,
    in_dollar: bool,
}

struct Sema {
    prog: Program,
    sigs: Vec<(String, Arc<FuncSig>)>,
    ctx: Option<FuncCtx>,
}

impl Sema {
    fn ctx(&mut self) -> &mut FuncCtx {
        self.ctx.as_mut().expect("inside a function")
    }

    /// The escape rule's type half: a pointer to something holding a
    /// cspec or vspec can carry it past the call that built it.
    fn note_type(&mut self, ty: &Type) {
        self.prog.spec_escapes |= ty.points_to_spec(&self.prog.structs);
    }

    fn check_func(&mut self, f: RawFunc) -> Result<FuncDef, FrontError> {
        let mut ctx = FuncCtx {
            locals: Vec::new(),
            scopes: Scopes::default(),
            ret: f.ret.clone(),
            loop_depth: 0,
            switch_depth: 0,
            labels: HashSet::new(),
            gotos: Vec::new(),
            tick: None,
            in_dollar: false,
        };
        let nparams = f.params.len();
        for (name, ty) in &f.params {
            let id = ctx.locals.len();
            ctx.locals.push(LocalDef {
                name: name.clone(),
                ty: ty.clone(),
                addr_taken: false,
            });
            ctx.scopes.declare(id);
        }
        self.ctx = Some(ctx);
        let mut body = f.body;
        for s in &mut body {
            self.check_stmt(s)?;
        }
        let ctx = self.ctx.take().expect("just set");
        for (label, line) in &ctx.gotos {
            if !ctx.labels.contains(label) {
                return Err(serr(*line, format!("goto to undefined label {label}")));
            }
        }
        let sig = FuncSig {
            ret: f.ret,
            params: f.params.into_iter().map(|(_, t)| t).collect(),
        };
        Ok(FuncDef {
            name: f.name,
            sig,
            nparams,
            locals: ctx.locals,
            body,
        })
    }

    // ---- scoping ---------------------------------------------------------

    fn push_scope(&mut self) {
        let c = self.ctx();
        match &mut c.tick {
            Some(t) => t.scopes.push(),
            None => c.scopes.push(),
        }
    }

    fn pop_scope(&mut self) {
        let c = self.ctx();
        match &mut c.tick {
            Some(t) => t.scopes.pop(),
            None => c.scopes.pop(),
        }
    }

    fn declare(&mut self, name: &str, ty: Type, line: u32) -> Result<Binding, FrontError> {
        self.note_type(&ty);
        let addressy = matches!(ty, Type::Array(..) | Type::Struct(_));
        let c = self.ctx();
        match &mut c.tick {
            Some(t) => {
                if ty.is_spec() {
                    return Err(serr(
                        line,
                        "cspec/vspec variables cannot be declared in dynamic code",
                    ));
                }
                let id = t.dyn_locals.len();
                t.dyn_locals.push(LocalDef {
                    name: name.into(),
                    ty,
                    addr_taken: addressy,
                });
                t.scopes.declare(id);
                Ok(Binding::TickLocal(id))
            }
            None => {
                let id = c.locals.len();
                c.locals.push(LocalDef {
                    name: name.into(),
                    ty,
                    addr_taken: addressy,
                });
                c.scopes.declare(id);
                Ok(Binding::Local(id))
            }
        }
    }

    /// Resolves `name`, performing tick capture conversion when inside a
    /// tick body.
    fn resolve(&mut self, name: &str, line: u32) -> Result<(VarRef, Type), FrontError> {
        let c = self.ctx();
        if let Some(t) = &mut c.tick {
            if let Some(i) = t.scopes.find(&t.dyn_locals, name) {
                return Ok((VarRef::TickLocal(i), t.dyn_locals[i].ty.clone()));
            }
            // Fall through to the enclosing function's locals: capture.
            if let Some(i) = c.scopes.find(&c.locals, name) {
                let ty = c.locals[i].ty.clone();
                let var = || Expr {
                    kind: ExprKind::Var(VarRef::Local(i)),
                    ty: ty.clone(),
                    line,
                };
                if c.in_dollar {
                    // Inside a `$` operand: capture the *value* at
                    // specification time (not the address).
                    if ty.is_spec() {
                        return Err(serr(line, "$ cannot be applied to cspec/vspec values"));
                    }
                    let idx = t.capture(CaptureKey::DollarLocal(i), || Capture {
                        kind: CaptureKind::Dollar(var()),
                        ty: ty.clone(),
                    });
                    return Ok((VarRef::TickRtc(idx), ty));
                }
                return match &ty {
                    Type::Cspec(ev) => {
                        let idx = t.capture(CaptureKey::Spec(i), || Capture {
                            kind: CaptureKind::Cspec(var()),
                            ty: (**ev).clone(),
                        });
                        Ok((VarRef::TickCspec(idx), (**ev).clone()))
                    }
                    Type::Vspec(ev) => {
                        let idx = t.capture(CaptureKey::Spec(i), || Capture {
                            kind: CaptureKind::Vspec(var()),
                            ty: (**ev).clone(),
                        });
                        Ok((VarRef::TickVspec(idx), (**ev).clone()))
                    }
                    _ => {
                        c.locals[i].addr_taken = true;
                        let idx = t.capture(CaptureKey::FreeVar(i), || Capture {
                            kind: CaptureKind::FreeVar(i),
                            ty: ty.clone(),
                        });
                        Ok((VarRef::TickFv(idx), ty))
                    }
                };
            }
        } else if let Some(i) = c.scopes.find(&c.locals, name) {
            return Ok((VarRef::Local(i), c.locals[i].ty.clone()));
        }
        if let Some(gi) = self.prog.globals.iter().position(|g| g.name == name) {
            let ty = self.prog.globals[gi].ty.clone();
            let c = self.ctx();
            // Global cspec/vspec variables referenced in a tick body are
            // compositions, exactly like local ones.
            if let (Some(t), true) = (c.tick.as_mut(), ty.is_spec() && !c.in_dollar) {
                let ev = ty.eval_ty().clone();
                let is_cspec = matches!(ty, Type::Cspec(_));
                let idx = t.capture(CaptureKey::SpecGlobal(gi), || {
                    let var = Expr {
                        kind: ExprKind::Var(VarRef::Global(gi)),
                        ty: ty.clone(),
                        line,
                    };
                    Capture {
                        kind: if is_cspec {
                            CaptureKind::Cspec(var)
                        } else {
                            CaptureKind::Vspec(var)
                        },
                        ty: ev.clone(),
                    }
                });
                return Ok((
                    if is_cspec {
                        VarRef::TickCspec(idx)
                    } else {
                        VarRef::TickVspec(idx)
                    },
                    ev,
                ));
            }
            // Scalar globals inside a `$` operand are value captures, so
            // the specification-time value is what gets hardwired.
            if c.in_dollar && !matches!(ty, Type::Array(..) | Type::Struct(_)) {
                if let Some(t) = c.tick.as_mut() {
                    let idx = t.capture(CaptureKey::DollarGlobal(gi), || Capture {
                        kind: CaptureKind::Dollar(Expr {
                            kind: ExprKind::Var(VarRef::Global(gi)),
                            ty: ty.clone(),
                            line,
                        }),
                        ty: ty.clone(),
                    });
                    return Ok((VarRef::TickRtc(idx), ty));
                }
            }
            return Ok((VarRef::Global(gi), ty));
        }
        if let Some(fi) = self.sigs.iter().position(|(n, _)| n == name) {
            let ty = Type::Func(self.sigs[fi].1.clone());
            return Ok((VarRef::Func(fi), ty));
        }
        if let Some(b) = Builtin::by_name(name) {
            return Ok((VarRef::Builtin(b), builtin_ty(b)));
        }
        Err(serr(line, format!("undefined identifier {name}")))
    }

    // ---- statements ------------------------------------------------------

    fn check_stmt(&mut self, s: &mut Stmt) -> Result<(), FrontError> {
        match s {
            Stmt::Expr(e) => {
                self.check_expr(e)?;
                Ok(())
            }
            Stmt::Decl(items) => {
                for item in items {
                    if item.ty == Type::Void {
                        return Err(serr(0, format!("variable {} has type void", item.name)));
                    }
                    let b = self.declare(&item.name, item.ty.clone(), 0)?;
                    item.local_id = match b {
                        Binding::Local(i) | Binding::TickLocal(i) => i,
                    };
                    if let Some(Init::Expr(e)) = &mut item.init {
                        self.check_expr(e)?;
                        self.require_assignable(&item.ty, &e.ty, e.line)?;
                    } else if let Some(Init::List(_)) = &item.init {
                        return Err(serr(0, "brace initializers are only supported on globals"));
                    }
                }
                Ok(())
            }
            Stmt::If(c, t, e) => {
                self.check_cond(c)?;
                self.check_stmt(t)?;
                if let Some(e) = e {
                    self.check_stmt(e)?;
                }
                Ok(())
            }
            Stmt::While(c, b) => {
                self.check_cond(c)?;
                self.ctx().loop_depth += 1;
                self.check_stmt(b)?;
                self.ctx().loop_depth -= 1;
                Ok(())
            }
            Stmt::DoWhile(b, c) => {
                self.ctx().loop_depth += 1;
                self.check_stmt(b)?;
                self.ctx().loop_depth -= 1;
                self.check_cond(c)?;
                Ok(())
            }
            Stmt::For(init, cond, step, body) => {
                self.push_scope();
                if let Some(i) = init {
                    self.check_stmt(i)?;
                }
                if let Some(c) = cond {
                    self.check_cond(c)?;
                }
                if let Some(st) = step {
                    self.check_expr(st)?;
                }
                self.ctx().loop_depth += 1;
                self.check_stmt(body)?;
                self.ctx().loop_depth -= 1;
                self.pop_scope();
                Ok(())
            }
            Stmt::Return(e) => {
                let in_tick = self.ctx().tick.is_some();
                if let Some(e) = e {
                    self.check_expr(e)?;
                    if !in_tick {
                        let ret = self.ctx().ret.clone();
                        self.require_assignable(&ret, &e.ty, e.line)?;
                    }
                } else if !in_tick && self.ctx().ret != Type::Void {
                    return Err(serr(0, "return without a value in a non-void function"));
                }
                Ok(())
            }
            Stmt::Break => {
                let c = self.ctx();
                if c.loop_depth == 0 && c.switch_depth == 0 {
                    return Err(serr(0, "break outside loop or switch"));
                }
                Ok(())
            }
            Stmt::Continue => {
                if self.ctx().loop_depth == 0 {
                    return Err(serr(0, "continue outside loop"));
                }
                Ok(())
            }
            Stmt::Block(stmts) => {
                self.push_scope();
                for s in stmts {
                    self.check_stmt(s)?;
                }
                self.pop_scope();
                Ok(())
            }
            Stmt::Switch(scrut, items) => {
                self.check_expr(scrut)?;
                if !scrut.ty.is_integer() {
                    return Err(serr(scrut.line, "switch requires an integer"));
                }
                let mut seen = HashSet::new();
                let mut defaults = 0;
                self.ctx().switch_depth += 1;
                self.push_scope();
                for item in items.iter_mut() {
                    match item {
                        SwitchItem::Case(v) => {
                            if !seen.insert(*v) {
                                return Err(serr(scrut.line, format!("duplicate case {v}")));
                            }
                        }
                        SwitchItem::Default => defaults += 1,
                        SwitchItem::Stmt(s) => self.check_stmt(s)?,
                    }
                }
                self.pop_scope();
                self.ctx().switch_depth -= 1;
                if defaults > 1 {
                    return Err(serr(scrut.line, "multiple default labels"));
                }
                Ok(())
            }
            Stmt::Goto(label) => {
                let c = self.ctx();
                match &mut c.tick {
                    Some(t) => t.gotos.push((label.clone(), 0)),
                    None => c.gotos.push((label.clone(), 0)),
                }
                Ok(())
            }
            Stmt::Labeled(label, inner) => {
                {
                    let c = self.ctx();
                    let labels = match &mut c.tick {
                        Some(t) => &mut t.labels,
                        None => &mut c.labels,
                    };
                    if !labels.insert(label.clone()) {
                        return Err(serr(0, format!("duplicate label {label}")));
                    }
                }
                self.check_stmt(inner)
            }
            Stmt::Empty => Ok(()),
        }
    }

    fn check_cond(&mut self, e: &mut Expr) -> Result<(), FrontError> {
        self.check_expr(e)?;
        if !is_scalar(&e.ty) {
            return Err(serr(
                e.line,
                format!("condition has non-scalar type {}", e.ty),
            ));
        }
        Ok(())
    }

    // ---- expressions -----------------------------------------------------

    fn check_expr(&mut self, e: &mut Expr) -> Result<(), FrontError> {
        let line = e.line;
        if let Some(c) = self.ctx.as_ref() {
            if c.in_dollar
                && matches!(
                    e.kind,
                    ExprKind::Call(..)
                        | ExprKind::Assign(..)
                        | ExprKind::PreIncDec(..)
                        | ExprKind::PostIncDec(..)
                        | ExprKind::TickRaw(_)
                        | ExprKind::CompileExpr(..)
                        | ExprKind::LocalForm(_)
                        | ExprKind::ParamForm(..)
                        | ExprKind::LabelForm
                        | ExprKind::JumpForm(_)
                        | ExprKind::ArglistNew
                        | ExprKind::ArglistPush(..)
                        | ExprKind::Apply(..)
                )
            {
                return Err(serr(line, "impure expression inside a $ operand"));
            }
        }
        match &mut e.kind {
            ExprKind::IntLit(v) => {
                e.ty = if *v > i32::MAX as i64 || *v < i32::MIN as i64 {
                    Type::Long
                } else {
                    Type::Int
                };
            }
            ExprKind::FloatLit(_) => e.ty = Type::Double,
            ExprKind::StrLit(bytes) => {
                if let Some(t) = self.ctx.as_mut().and_then(|c| c.tick.as_mut()) {
                    if !t.str_lits.contains(bytes) {
                        t.str_lits.push(bytes.clone());
                    }
                }
                e.ty = Type::Ptr(Arc::new(Type::Char));
            }
            ExprKind::Ident(name) => {
                let name = std::mem::take(name);
                let (vr, ty) = self.resolve(&name, line)?;
                e.kind = ExprKind::Var(vr);
                e.ty = ty;
            }
            ExprKind::Var(_) => {}
            ExprKind::Un(op, inner) => {
                let op = *op;
                self.check_expr(inner)?;
                e.ty = self.check_unary(op, inner, line)?;
            }
            ExprKind::PreIncDec(inner, _) | ExprKind::PostIncDec(inner, _) => {
                self.check_expr(inner)?;
                self.require_lvalue(inner)?;
                let t = inner.ty.decay();
                if !t.is_arith() && !t.is_ptr() {
                    return Err(serr(line, "++/-- requires arithmetic or pointer type"));
                }
                e.ty = t;
            }
            ExprKind::Bin(op, a, b) => {
                let op = *op;
                self.check_expr(a)?;
                self.check_expr(b)?;
                e.ty = Self::check_binary(op, a, b, line)?;
            }
            ExprKind::Assign(op, lhs, rhs) => {
                self.check_expr(lhs)?;
                self.require_lvalue(lhs)?;
                self.check_expr(rhs)?;
                if let Some(op) = op {
                    // Validate the implied binary operation.
                    Self::check_binary(*op, lhs, rhs, line)?;
                }
                self.require_assignable(&lhs.ty, &rhs.ty, line)?;
                e.ty = lhs.ty.clone();
            }
            ExprKind::Call(callee, args) => {
                // Contextual special forms: `label`, `jump`, `push_init`,
                // `push`, `apply` act as special forms unless the name is
                // bound by the program (user declarations take priority,
                // as with builtins).
                if let ExprKind::Ident(name) = &callee.kind {
                    let special = matches!(
                        name.as_str(),
                        "label" | "jump" | "push_init" | "push" | "apply"
                    );
                    if special && self.resolve(&name.clone(), line).is_err() {
                        let n_expected = match name.as_str() {
                            "label" | "push_init" => 0,
                            "jump" => 1,
                            _ => 2,
                        };
                        if args.len() != n_expected {
                            return Err(serr(
                                line,
                                format!("{name}() expects {n_expected} argument(s)"),
                            ));
                        }
                        let mut args = std::mem::take(args);
                        e.kind = match name.as_str() {
                            "label" => ExprKind::LabelForm,
                            "push_init" => ExprKind::ArglistNew,
                            "jump" => ExprKind::JumpForm(Box::new(args.remove(0))),
                            "push" => {
                                let l = args.remove(0);
                                ExprKind::ArglistPush(Box::new(l), Box::new(args.remove(0)))
                            }
                            _ => {
                                let f = args.remove(0);
                                ExprKind::Apply(Box::new(f), Box::new(args.remove(0)))
                            }
                        };
                        return self.check_expr(e);
                    }
                }
                self.check_expr(callee)?;
                for a in args.iter_mut() {
                    self.check_expr(a)?;
                }
                e.ty = self.check_call(callee, args, line)?;
            }
            ExprKind::Index(base, idx) => {
                self.check_expr(base)?;
                self.check_expr(idx)?;
                let bt = base.ty.decay();
                let elem = match &bt {
                    Type::Ptr(t) => (**t).clone(),
                    _ => return Err(serr(line, format!("cannot index type {}", base.ty))),
                };
                if !idx.ty.is_integer() {
                    return Err(serr(line, "array index must be an integer"));
                }
                e.ty = elem;
            }
            ExprKind::Member(base, fname, arrow, offset) => {
                self.check_expr(base)?;
                let si = match (&base.ty, *arrow) {
                    (Type::Struct(i), false) => *i,
                    (Type::Ptr(inner), true) => match &**inner {
                        Type::Struct(i) => *i,
                        _ => return Err(serr(line, "-> on non-struct pointer")),
                    },
                    _ => {
                        return Err(serr(
                            line,
                            format!("member access on {} (arrow={})", base.ty, arrow),
                        ))
                    }
                };
                let f = self.prog.structs[si]
                    .field(fname)
                    .ok_or_else(|| serr(line, format!("no field {fname}")))?;
                *offset = f.offset;
                e.ty = f.ty.clone();
            }
            ExprKind::Cast(ty, inner) => {
                self.check_expr(inner)?;
                let ok = (is_scalar(&ty.clone()) && is_scalar(&inner.ty))
                    || *ty == Type::Void
                    || (ty.is_ptr() && inner.ty.decay().is_ptr());
                if !ok {
                    return Err(serr(
                        line,
                        format!("invalid cast from {} to {ty}", inner.ty),
                    ));
                }
                // A spec value cast to or from another type leaves the
                // type system's sight (the escape rule's cast half).
                self.prog.spec_escapes |= ty.is_spec() || inner.ty.is_spec();
                e.ty = ty.clone();
            }
            ExprKind::Cond(c, t, f) => {
                self.check_expr(c)?;
                if !is_scalar(&c.ty) {
                    return Err(serr(line, "?: condition must be scalar"));
                }
                self.check_expr(t)?;
                self.check_expr(f)?;
                e.ty = if t.ty.is_arith() && f.ty.is_arith() {
                    t.ty.usual_arith(&f.ty)
                } else if t.ty.decay() == f.ty.decay()
                    || (t.ty.decay().is_ptr() && f.ty.decay().is_ptr())
                {
                    t.ty.decay()
                } else {
                    return Err(serr(line, "incompatible ?: arms"));
                };
            }
            ExprKind::Comma(a, b) => {
                self.check_expr(a)?;
                self.check_expr(b)?;
                e.ty = b.ty.clone();
            }
            ExprKind::SizeofT(ty) => {
                self.note_type(ty);
                let size = ty.size(&self.prog.structs) as i64;
                e.kind = ExprKind::IntLit(size);
                e.ty = Type::Int;
            }
            ExprKind::SizeofE(inner) => {
                self.check_expr(inner)?;
                let size = inner.ty.size(&self.prog.structs) as i64;
                e.kind = ExprKind::IntLit(size);
                e.ty = Type::Int;
            }
            ExprKind::TickRaw(body) => {
                if self.ctx().tick.is_some() {
                    return Err(serr(line, "nested tick expressions are not supported"));
                }
                let body = std::mem::replace(&mut **body, TickBody::Block(Vec::new()));
                let (tick_id, eval_ty) = self.check_tick(body, line)?;
                e.kind = ExprKind::Tick(tick_id);
                e.ty = Type::Cspec(Arc::new(eval_ty));
            }
            ExprKind::Tick(_) => {}
            ExprKind::Dollar(inner) => {
                if self.ctx().tick.is_none() {
                    return Err(serr(line, "$ outside of a tick expression"));
                }
                if self.ctx().in_dollar {
                    return Err(serr(line, "nested $ operators"));
                }
                // Names in the operand resolve against tick locals
                // (derived run-time constants, e.g. `$row[k]` under
                // dynamic loop unrolling) and otherwise become
                // specification-time *value* captures. The operand is
                // then evaluated at dynamic compile time; it must be pure.
                self.ctx().in_dollar = true;
                let res = self.check_expr(inner);
                self.ctx().in_dollar = false;
                res?;
                if inner.ty.is_spec() {
                    return Err(serr(line, "$ cannot be applied to cspec/vspec values"));
                }
                if !is_scalar(&inner.ty) {
                    return Err(serr(line, "$ requires a scalar value"));
                }
                e.ty = inner.ty.clone();
            }
            ExprKind::CompileExpr(c, ty) => {
                self.check_expr(c)?;
                match &c.ty {
                    Type::Cspec(_) => {}
                    other => {
                        return Err(serr(
                            line,
                            format!("compile() requires a cspec, got {other}"),
                        ))
                    }
                }
                let sig = FuncSig {
                    ret: ty.clone(),
                    params: vec![],
                };
                e.ty = Type::Ptr(Arc::new(Type::Func(Arc::new(sig))));
            }
            ExprKind::LocalForm(ty) => {
                if self.ctx().tick.is_some() {
                    return Err(serr(line, "local() must be used at specification time"));
                }
                if !is_scalar(ty) {
                    return Err(serr(line, "local() requires a scalar type"));
                }
                e.ty = Type::Vspec(Arc::new(ty.clone()));
            }
            ExprKind::LabelForm => {
                if self.ctx().tick.is_some() {
                    return Err(serr(line, "label() must be used at specification time"));
                }
                e.ty = Type::Cspec(Arc::new(Type::Void));
            }
            ExprKind::JumpForm(l) => {
                if self.ctx().tick.is_none() {
                    return Err(serr(line, "jump() is only meaningful inside dynamic code"));
                }
                self.check_expr(l)?;
                if !matches!(l.kind, ExprKind::Var(VarRef::TickCspec(_))) || l.ty != Type::Void {
                    return Err(serr(line, "jump() requires a void cspec label"));
                }
                e.ty = Type::Void;
            }
            ExprKind::ArglistNew => {
                if self.ctx().tick.is_some() {
                    return Err(serr(line, "push_init() must be used at specification time"));
                }
                e.ty = Type::Cspec(Arc::new(Type::Void));
            }
            ExprKind::ArglistPush(l, c) => {
                if self.ctx().tick.is_some() {
                    return Err(serr(line, "push() must be used at specification time"));
                }
                self.check_expr(l)?;
                self.check_expr(c)?;
                if !matches!(l.ty, Type::Cspec(_)) {
                    return Err(serr(line, "push() requires an argument list"));
                }
                match &c.ty {
                    Type::Cspec(ev) if **ev != Type::Void => {}
                    _ => return Err(serr(line, "push() requires a non-void cspec argument")),
                }
                e.ty = Type::Void;
            }
            ExprKind::Apply(f, l) => {
                if self.ctx().tick.is_none() {
                    return Err(serr(line, "apply() is only meaningful inside dynamic code"));
                }
                self.check_expr(f)?;
                let callable = matches!(f.ty.decay(), Type::Ptr(ref inner) if matches!(**inner, Type::Func(_)));
                if !callable {
                    return Err(serr(line, "apply() requires a function"));
                }
                self.check_expr(l)?;
                if !matches!(l.kind, ExprKind::Var(VarRef::TickCspec(_))) {
                    return Err(serr(line, "apply() requires a captured argument list"));
                }
                e.ty = Type::Int;
            }
            ExprKind::ParamForm(ty, idx) => {
                if self.ctx().tick.is_some() {
                    return Err(serr(line, "param() must be used at specification time"));
                }
                if !is_scalar(ty) {
                    return Err(serr(line, "param() requires a scalar type"));
                }
                self.check_expr(idx)?;
                if !idx.ty.is_integer() {
                    return Err(serr(line, "param() index must be an integer"));
                }
                e.ty = Type::Vspec(Arc::new(ty.clone()));
            }
        }
        self.note_type(&e.ty);
        Ok(())
    }

    fn check_tick(&mut self, body: TickBody, line: u32) -> Result<(usize, Type), FrontError> {
        self.ctx().tick = Some(TickCtx {
            captures: Vec::new(),
            dyn_locals: Vec::new(),
            str_lits: Vec::new(),
            captured: Vec::new(),
            scopes: Scopes::default(),
            labels: HashSet::new(),
            gotos: Vec::new(),
        });
        let mut body = body;
        let eval_ty = match &mut body {
            TickBody::Expr(e) => {
                self.check_expr(e)?;
                if e.ty.is_spec() {
                    // `c where c is a cspec: the evaluation type surfaced.
                    e.ty.eval_ty().clone()
                } else {
                    e.ty.decay()
                }
            }
            TickBody::Block(stmts) => {
                for s in stmts {
                    self.check_stmt(s)?;
                }
                Type::Void
            }
        };
        let t = self.ctx().tick.take().expect("tick context");
        for (label, _) in &t.gotos {
            if !t.labels.contains(label) {
                return Err(serr(
                    line,
                    format!("goto {label} would transfer control outside the cspec body"),
                ));
            }
        }
        let owner = self.prog.funcs.len(); // index this function will get
        self.prog.ticks.push(TickDef {
            eval_ty: eval_ty.clone(),
            body,
            captures: t.captures,
            dyn_locals: t.dyn_locals,
            str_lits: t.str_lits,
            owner,
        });
        Ok((self.prog.ticks.len() - 1, eval_ty))
    }

    fn check_unary(
        &mut self,
        op: UnaryOp,
        inner: &mut Expr,
        line: u32,
    ) -> Result<Type, FrontError> {
        match op {
            UnaryOp::Neg => {
                if !inner.ty.is_arith() {
                    return Err(serr(line, "negation requires arithmetic type"));
                }
                Ok(inner.ty.promote())
            }
            UnaryOp::BitNot => {
                if !inner.ty.is_integer() {
                    return Err(serr(line, "~ requires integer type"));
                }
                Ok(inner.ty.promote())
            }
            UnaryOp::LogNot => {
                if !is_scalar(&inner.ty) {
                    return Err(serr(line, "! requires scalar type"));
                }
                Ok(Type::Int)
            }
            UnaryOp::Deref => match inner.ty.decay() {
                Type::Ptr(t) => Ok((*t).clone()),
                other => Err(serr(line, format!("cannot dereference {other}"))),
            },
            UnaryOp::Addr => {
                self.require_lvalue(inner)?;
                if let ExprKind::Var(VarRef::Local(i)) = &inner.kind {
                    self.ctx().locals[*i].addr_taken = true;
                }
                if let ExprKind::Var(VarRef::TickLocal(i)) = &inner.kind {
                    let i = *i;
                    if let Some(t) = self.ctx().tick.as_mut() {
                        t.dyn_locals[i].addr_taken = true;
                    }
                }
                Ok(Type::Ptr(Arc::new(inner.ty.clone())))
            }
        }
    }

    fn check_binary(op: BinaryOp, a: &Expr, b: &Expr, line: u32) -> Result<Type, FrontError> {
        use BinaryOp::*;
        let ta = a.ty.decay();
        let tb = b.ty.decay();
        match op {
            Add | Sub => {
                if ta.is_ptr() && tb.is_integer() {
                    return Ok(ta);
                }
                if ta.is_integer() && tb.is_ptr() && op == Add {
                    return Ok(tb);
                }
                if ta.is_ptr() && tb.is_ptr() && op == Sub {
                    return Ok(Type::Long);
                }
                if ta.is_arith() && tb.is_arith() {
                    return Ok(ta.usual_arith(&tb));
                }
                Err(serr(line, format!("invalid operands {ta} {op:?} {tb}")))
            }
            Mul | Div => {
                if ta.is_arith() && tb.is_arith() {
                    Ok(ta.usual_arith(&tb))
                } else {
                    Err(serr(line, format!("invalid operands {ta} {op:?} {tb}")))
                }
            }
            Rem | BitAnd | BitOr | BitXor => {
                if ta.is_integer() && tb.is_integer() {
                    Ok(ta.usual_arith(&tb))
                } else {
                    Err(serr(line, format!("{op:?} requires integers")))
                }
            }
            Shl | Shr => {
                if ta.is_integer() && tb.is_integer() {
                    Ok(ta.promote())
                } else {
                    Err(serr(line, "shift requires integers"))
                }
            }
            Lt | Gt | Le | Ge | Eq | Ne => {
                let ok = (ta.is_arith() && tb.is_arith())
                    || (ta.is_ptr() && tb.is_ptr())
                    || (ta.is_ptr() && matches!(b.kind, ExprKind::IntLit(0)))
                    || (tb.is_ptr() && matches!(a.kind, ExprKind::IntLit(0)));
                if ok {
                    Ok(Type::Int)
                } else {
                    Err(serr(line, format!("cannot compare {ta} and {tb}")))
                }
            }
            LogAnd | LogOr => {
                if is_scalar(&ta) && is_scalar(&tb) {
                    Ok(Type::Int)
                } else {
                    Err(serr(line, "&&/|| require scalar operands"))
                }
            }
        }
    }

    fn check_call(
        &mut self,
        callee: &Expr,
        args: &mut [Expr],
        line: u32,
    ) -> Result<Type, FrontError> {
        if let ExprKind::Var(VarRef::Builtin(b)) = &callee.kind {
            return self.check_builtin_call(*b, args, line);
        }
        let sig = match callee.ty.decay() {
            Type::Ptr(inner) => match &*inner {
                Type::Func(sig) => sig.clone(),
                other => return Err(serr(line, format!("calling non-function {other}"))),
            },
            Type::Func(sig) => sig,
            other => return Err(serr(line, format!("calling non-function {other}"))),
        };
        // Pointers produced by compile() have unknown parameter lists
        // (dynamically constructed parameters); accept any arguments.
        let dynamic_sig = sig.params.is_empty() && !args.is_empty();
        if !dynamic_sig {
            if sig.params.len() != args.len() {
                return Err(serr(
                    line,
                    format!(
                        "expected {} arguments, got {}",
                        sig.params.len(),
                        args.len()
                    ),
                ));
            }
            for (p, a) in sig.params.iter().zip(args.iter()) {
                self.require_assignable(p, &a.ty, a.line)?;
            }
        }
        if args.len() > 6 {
            return Err(serr(
                line,
                "more than 6 arguments are not supported by this ABI",
            ));
        }
        Ok(sig.ret.clone())
    }

    fn check_builtin_call(
        &mut self,
        b: Builtin,
        args: &mut [Expr],
        line: u32,
    ) -> Result<Type, FrontError> {
        let require = |n: usize| -> Result<(), FrontError> {
            if args.len() != n {
                Err(serr(line, format!("{b:?} expects {n} argument(s)")))
            } else {
                Ok(())
            }
        };
        match b {
            Builtin::Puts => {
                require(1)?;
                if !args[0].ty.decay().is_ptr() {
                    return Err(serr(line, "puts expects a string"));
                }
                Ok(Type::Void)
            }
            Builtin::Puti | Builtin::Putchar => {
                require(1)?;
                if !args[0].ty.is_integer() {
                    return Err(serr(line, "expected an integer"));
                }
                Ok(Type::Void)
            }
            Builtin::Putd => {
                require(1)?;
                if !args[0].ty.is_arith() {
                    return Err(serr(line, "putd expects a number"));
                }
                Ok(Type::Void)
            }
            Builtin::Printf => {
                if args.is_empty() || args.len() > 6 {
                    return Err(serr(line, "printf takes 1..=6 arguments"));
                }
                if !args[0].ty.decay().is_ptr() {
                    return Err(serr(line, "printf format must be a string"));
                }
                for a in &args[1..] {
                    if !is_scalar(&a.ty.decay()) {
                        return Err(serr(line, "printf arguments must be scalar"));
                    }
                }
                Ok(Type::Void)
            }
            Builtin::Malloc => {
                require(1)?;
                if !args[0].ty.is_integer() {
                    return Err(serr(line, "malloc expects a size"));
                }
                Ok(Type::Ptr(Arc::new(Type::Void)))
            }
            Builtin::Abort => {
                require(0)?;
                Ok(Type::Void)
            }
        }
    }

    fn require_lvalue(&self, e: &Expr) -> Result<(), FrontError> {
        let ok = match &e.kind {
            ExprKind::Var(vr) => matches!(
                vr,
                VarRef::Local(_)
                    | VarRef::Global(_)
                    | VarRef::TickLocal(_)
                    | VarRef::TickFv(_)
                    | VarRef::TickVspec(_)
            ),
            ExprKind::Un(UnaryOp::Deref, _) => true,
            ExprKind::Index(..) => true,
            ExprKind::Member(..) => true,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(serr(e.line, "expression is not an lvalue"))
        }
    }

    fn require_assignable(&self, dst: &Type, src: &Type, line: u32) -> Result<(), FrontError> {
        let s = src.decay();
        let ok = match dst {
            _ if dst.is_arith() => s.is_arith(),
            Type::Ptr(inner) => match &s {
                Type::Ptr(si) => {
                    **inner == **si
                        || **inner == Type::Void
                        || **si == Type::Void
                        || matches!(**inner, Type::Func(_))
                }
                _ if s.is_integer() => true, // e.g. NULL as 0; kept lax
                _ => false,
            },
            Type::Cspec(a) => matches!(&s, Type::Cspec(b) if a == b),
            Type::Vspec(a) => matches!(&s, Type::Vspec(b) if a == b),
            Type::Struct(i) => matches!(&s, Type::Struct(j) if i == j),
            Type::Void => true,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(serr(line, format!("cannot assign {src} to {dst}")))
        }
    }

    fn check_global_init(&mut self, ty: &Type, init: Init) -> Result<Init, FrontError> {
        match (ty, init) {
            (Type::Array(elem, n), Init::List(items)) => {
                if items.len() as u64 > *n {
                    return Err(serr(0, "too many initializers"));
                }
                let out = items
                    .into_iter()
                    .map(|i| self.check_global_init(elem, i))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Init::List(out))
            }
            (_, Init::Expr(mut e)) => {
                self.check_expr(&mut e)?;
                match const_fold(&e) {
                    Some(folded) => Ok(Init::Expr(folded)),
                    None if matches!(e.kind, ExprKind::StrLit(_)) => Ok(Init::Expr(e)),
                    None => Err(serr(e.line, "global initializer must be constant")),
                }
            }
            (_, Init::List(_)) => Err(serr(0, "brace initializer on a scalar global")),
        }
    }
}

/// Constant-folds trivially constant expressions (for global
/// initializers).
fn const_fold(e: &Expr) -> Option<Expr> {
    match &e.kind {
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) => Some(e.clone()),
        ExprKind::Un(UnaryOp::Neg, inner) => match const_fold(inner)?.kind {
            ExprKind::IntLit(v) => Some(Expr {
                kind: ExprKind::IntLit(-v),
                ty: e.ty.clone(),
                line: e.line,
            }),
            ExprKind::FloatLit(v) => Some(Expr {
                kind: ExprKind::FloatLit(-v),
                ty: e.ty.clone(),
                line: e.line,
            }),
            _ => None,
        },
        ExprKind::Cast(_, inner) => const_fold(inner),
        _ => None,
    }
}

fn is_scalar(t: &Type) -> bool {
    t.is_arith() || t.decay().is_ptr() || t.is_spec()
}

fn builtin_ty(b: Builtin) -> Type {
    let sig = match b {
        Builtin::Puts => FuncSig {
            ret: Type::Void,
            params: vec![Type::Ptr(Arc::new(Type::Char))],
        },
        Builtin::Puti => FuncSig {
            ret: Type::Void,
            params: vec![Type::Int],
        },
        Builtin::Putd => FuncSig {
            ret: Type::Void,
            params: vec![Type::Double],
        },
        Builtin::Putchar => FuncSig {
            ret: Type::Void,
            params: vec![Type::Int],
        },
        Builtin::Printf => FuncSig {
            ret: Type::Void,
            params: vec![],
        },
        Builtin::Malloc => FuncSig {
            ret: Type::Ptr(Arc::new(Type::Void)),
            params: vec![Type::Long],
        },
        Builtin::Abort => FuncSig {
            ret: Type::Void,
            params: vec![],
        },
    };
    Type::Func(Arc::new(sig))
}
