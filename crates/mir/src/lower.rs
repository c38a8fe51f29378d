//! Lowering from the typed `C AST to the ICODE-level IR.
//!
//! One lowering serves both static back ends; the [`OptLevel`] only
//! changes where named locals live (memory for the lcc-like back end,
//! virtual registers for the gcc-like one — address-taken locals and
//! aggregates are always memory) and which optimization passes run
//! afterwards.
//!
//! Tick expressions lower to *closure construction* exactly as in the
//! paper's §4.2 example: allocate from the closure arena (a host call),
//! store the CGF index, then store each captured field — `$` run-time
//! constant values, free-variable addresses, nested cspec/vspec
//! pointers — in capture order.

use tcc_front::ast::*;
use tcc_front::types::Type;
use tcc_icode::{IcodeBuf, LblId, VReg};
use tcc_rt::{hcalls, ValKind};
use tcc_vcode::ops::{BinOp, LoadKind, StoreKind, UnOp};
use tcc_vcode::CodeSink;

/// Static back-end flavor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptLevel {
    /// lcc-like: named locals live in memory; no mid-level optimization.
    Naive,
    /// gcc-like: register-resident locals plus the optimization pipeline.
    Optimizing,
}

/// Services the lowering needs from the linker: global placement, string
/// interning, and the function table.
pub trait LinkEnv {
    /// VM address of global `i`.
    fn global_addr(&self, i: usize) -> u64;
    /// Interns a NUL-terminated string; returns its VM address.
    fn intern_str(&mut self, bytes: &[u8]) -> u64;
    /// VM address of the function-table entry for function `i`.
    fn fn_table_entry(&self, i: usize) -> u64;
}

/// The most arguments a call passes (sema refuses more).
const MAX_ARGS: usize = 6;

#[derive(Clone, Copy, Debug)]
enum Slot {
    Reg(VReg),
    Mem(usize), // frame block index
}

enum Place {
    Var(VReg, Type),
    Mem { addr: VReg, off: i64, ty: Type },
}

/// The lowering's working storage. A linker lowering many functions
/// keeps one, and so allocates these tables once, not per function.
#[derive(Clone, Debug, Default)]
pub struct LowerScratch {
    slots: Vec<Slot>,
    break_stack: Vec<LblId>,
    continue_stack: Vec<LblId>,
}

/// Lowers `func` (by index) of `prog` into `buf`, which it clears
/// first, working in `scratch`.
pub fn lower_function(
    prog: &Program,
    fi: usize,
    opt: OptLevel,
    env: &mut dyn LinkEnv,
    scratch: &mut LowerScratch,
    buf: &mut IcodeBuf,
) {
    buf.clear();
    let LowerScratch {
        slots,
        break_stack,
        continue_stack,
    } = scratch;
    slots.clear();
    break_stack.clear();
    continue_stack.clear();
    Lower {
        prog,
        func: &prog.funcs[fi],
        opt,
        env,
        buf,
        slots,
        break_stack,
        continue_stack,
        labels: Vec::new(),
    }
    .run();
}

struct Lower<'a> {
    prog: &'a Program,
    func: &'a FuncDef,
    opt: OptLevel,
    env: &'a mut dyn LinkEnv,
    buf: &'a mut IcodeBuf,
    slots: &'a mut Vec<Slot>,
    break_stack: &'a mut Vec<LblId>,
    continue_stack: &'a mut Vec<LblId>,
    /// `goto` labels met so far, by name.
    labels: Vec<(&'a str, LblId)>,
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
        Type::Ptr(_) | Type::Func(_) | Type::Cspec(_) | Type::Vspec(_) => LoadKind::I64,
        other => panic!("no load kind for {other}"),
    }
}

fn store_kind(ty: &Type) -> StoreKind {
    match ty {
        Type::Char | Type::UChar => StoreKind::I8,
        Type::Short | Type::UShort => StoreKind::I16,
        Type::Int | Type::UInt => StoreKind::I32,
        Type::Long | Type::ULong => StoreKind::I64,
        Type::Double => StoreKind::F64,
        Type::Ptr(_) | Type::Func(_) | Type::Cspec(_) | Type::Vspec(_) => StoreKind::I64,
        other => panic!("no store kind for {other}"),
    }
}

/// Picks the (possibly unsigned) machine op for a C binary operator at
/// the given operand type.
pub fn machine_binop(op: BinaryOp, ty: &Type) -> BinOp {
    let unsigned = ty.is_unsigned() || ty.is_ptr();
    match op {
        BinaryOp::Add => BinOp::Add,
        BinaryOp::Sub => BinOp::Sub,
        BinaryOp::Mul => BinOp::Mul,
        BinaryOp::Div => {
            if unsigned {
                BinOp::DivU
            } else {
                BinOp::Div
            }
        }
        BinaryOp::Rem => {
            if unsigned {
                BinOp::RemU
            } else {
                BinOp::Rem
            }
        }
        BinaryOp::Shl => BinOp::Shl,
        BinaryOp::Shr => {
            if unsigned {
                BinOp::ShrU
            } else {
                BinOp::Shr
            }
        }
        BinaryOp::BitAnd => BinOp::And,
        BinaryOp::BitOr => BinOp::Or,
        BinaryOp::BitXor => BinOp::Xor,
        BinaryOp::Lt => {
            if unsigned {
                BinOp::LtU
            } else {
                BinOp::Lt
            }
        }
        BinaryOp::Gt => {
            if unsigned {
                BinOp::GtU
            } else {
                BinOp::Gt
            }
        }
        BinaryOp::Le => {
            if unsigned {
                BinOp::LeU
            } else {
                BinOp::Le
            }
        }
        BinaryOp::Ge => {
            if unsigned {
                BinOp::GeU
            } else {
                BinOp::Ge
            }
        }
        BinaryOp::Eq => BinOp::Eq,
        BinaryOp::Ne => BinOp::Ne,
        BinaryOp::LogAnd | BinaryOp::LogOr => panic!("short-circuit ops lowered separately"),
    }
}

impl<'a> Lower<'a> {
    fn structs(&self) -> &[tcc_front::types::StructDef] {
        &self.prog.structs
    }

    fn run(&mut self) {
        // Decide where each local lives and bind parameters.
        let (mut iw, mut fw) = (0usize, 0usize);
        for (i, l) in self.func.locals.iter().enumerate() {
            let in_mem = matches!(l.ty, Type::Array(..) | Type::Struct(_))
                || l.addr_taken
                || self.opt == OptLevel::Naive;
            if in_mem {
                let size = l.ty.size(self.structs());
                let b = self.buf.frame_block(size);
                self.slots.push(Slot::Mem(b));
            } else {
                let v = self.buf.vreg(l.ty.kind());
                self.slots.push(Slot::Reg(v));
            }
            if i < self.func.nparams {
                let k = l.ty.kind();
                let pos = if k == ValKind::F {
                    fw += 1;
                    fw - 1
                } else {
                    iw += 1;
                    iw - 1
                };
                let pv = self.buf.param(pos, k);
                match &self.slots[i] {
                    Slot::Reg(v) => {
                        let v = *v;
                        self.buf.un(UnOp::Mov, k, v, pv);
                    }
                    Slot::Mem(b) => {
                        let b = *b;
                        let addr = self.buf.vreg(ValKind::P);
                        self.buf.frame_addr(addr, b);
                        self.buf.store(store_kind(&l.ty), pv, addr, 0);
                    }
                }
            }
        }
        let func = self.func;
        for s in &func.body {
            self.stmt(s);
        }
        // Implicit return for void functions falling off the end.
        self.buf.ret_void();
    }

    fn label_for(&mut self, name: &'a str) -> LblId {
        if let Some(&(_, l)) = self.labels.iter().find(|(n, _)| *n == name) {
            return l;
        }
        let l = self.buf.label();
        self.labels.push((name, l));
        l
    }

    // ---- statements ------------------------------------------------------

    fn stmt(&mut self, s: &'a Stmt) {
        match s {
            Stmt::Expr(e) => {
                self.rvalue(e);
            }
            Stmt::Decl(items) => {
                for item in items {
                    if let Some(Init::Expr(e)) = &item.init {
                        let v = self.rvalue(e);
                        let v = self.coerce(v, &e.ty, &item.ty);
                        self.store_local(item.local_id, &item.ty, v);
                    }
                }
            }
            Stmt::If(c, t, e) => {
                let lelse = self.buf.label();
                let lend = self.buf.label();
                self.cond_branch(c, None, Some(lelse));
                self.stmt(t);
                if e.is_some() {
                    self.buf.jmp(lend);
                }
                self.buf.bind(lelse);
                if let Some(e) = e {
                    self.stmt(e);
                }
                self.buf.bind(lend);
            }
            Stmt::While(c, body) => {
                let ltop = self.buf.label();
                let lcond = self.buf.label();
                let lend = self.buf.label();
                self.buf.jmp(lcond);
                self.buf.loop_begin();
                self.buf.bind(ltop);
                self.break_stack.push(lend);
                self.continue_stack.push(lcond);
                self.stmt(body);
                self.break_stack.pop();
                self.continue_stack.pop();
                self.buf.bind(lcond);
                self.cond_branch(c, Some(ltop), None);
                self.buf.loop_end();
                self.buf.bind(lend);
            }
            Stmt::DoWhile(body, c) => {
                let ltop = self.buf.label();
                let lcond = self.buf.label();
                let lend = self.buf.label();
                self.buf.loop_begin();
                self.buf.bind(ltop);
                self.break_stack.push(lend);
                self.continue_stack.push(lcond);
                self.stmt(body);
                self.break_stack.pop();
                self.continue_stack.pop();
                self.buf.bind(lcond);
                self.cond_branch(c, Some(ltop), None);
                self.buf.loop_end();
                self.buf.bind(lend);
            }
            Stmt::For(init, cond, step, body) => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                let ltop = self.buf.label();
                let lcond = self.buf.label();
                let lstep = self.buf.label();
                let lend = self.buf.label();
                self.buf.jmp(lcond);
                self.buf.loop_begin();
                self.buf.bind(ltop);
                self.break_stack.push(lend);
                self.continue_stack.push(lstep);
                self.stmt(body);
                self.break_stack.pop();
                self.continue_stack.pop();
                self.buf.bind(lstep);
                if let Some(st) = step {
                    self.rvalue(st);
                }
                self.buf.bind(lcond);
                match cond {
                    Some(c) => self.cond_branch(c, Some(ltop), None),
                    None => self.buf.jmp(ltop),
                }
                self.buf.loop_end();
                self.buf.bind(lend);
            }
            Stmt::Return(e) => {
                match e {
                    Some(e) => {
                        let v = self.rvalue(e);
                        let ret_ty = self.func.sig.ret.clone();
                        let v = self.coerce(v, &e.ty, &ret_ty);
                        self.buf.ret_val(ret_ty.kind(), v);
                    }
                    None => self.buf.ret_void(),
                };
            }
            Stmt::Break => {
                let l = *self.break_stack.last().expect("sema checked break");
                self.buf.jmp(l);
            }
            Stmt::Continue => {
                let l = *self.continue_stack.last().expect("sema checked continue");
                self.buf.jmp(l);
            }
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.stmt(s);
                }
            }
            Stmt::Switch(scrut, items) => {
                let sv = self.rvalue(scrut);
                let lend = self.buf.label();
                // One label per case item, plus default.
                let mut case_labels = Vec::new();
                let mut default_label = None;
                for item in items {
                    match item {
                        SwitchItem::Case(v) => {
                            let l = self.buf.label();
                            case_labels.push((*v, l));
                        }
                        SwitchItem::Default => {
                            default_label = Some(self.buf.label());
                        }
                        SwitchItem::Stmt(_) => {}
                    }
                }
                let k = scrut.ty.kind();
                for (v, l) in &case_labels {
                    let c = self.buf.vreg(k);
                    self.buf.li(c, *v);
                    self.buf.br_cmp(BinOp::Eq, k, sv, c, *l);
                }
                self.buf.jmp(default_label.unwrap_or(lend));
                self.break_stack.push(lend);
                let mut case_i = 0;
                for item in items {
                    match item {
                        SwitchItem::Case(_) => {
                            let (_, l) = case_labels[case_i];
                            case_i += 1;
                            self.buf.bind(l);
                        }
                        SwitchItem::Default => {
                            self.buf.bind(default_label.expect("collected above"));
                        }
                        SwitchItem::Stmt(s) => self.stmt(s),
                    }
                }
                self.break_stack.pop();
                self.buf.bind(lend);
            }
            Stmt::Goto(name) => {
                let l = self.label_for(name);
                self.buf.jmp(l);
            }
            Stmt::Labeled(name, inner) => {
                let l = self.label_for(name);
                self.buf.bind(l);
                self.stmt(inner);
            }
            Stmt::Empty => {}
        }
    }

    /// Branches on a condition. `ltrue`/`lfalse`: branch target when the
    /// condition holds / fails; `None` means fall through.
    fn cond_branch(&mut self, e: &Expr, ltrue: Option<LblId>, lfalse: Option<LblId>) {
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
                let common = a.ty.decay().is_arith() && b.ty.decay().is_arith();
                let ty = if common {
                    a.ty.usual_arith(&b.ty)
                } else {
                    a.ty.decay()
                };
                let va = self.rvalue(a);
                let va = self.coerce(va, &a.ty, &ty);
                let vb = self.rvalue(b);
                let vb = self.coerce(vb, &b.ty, &ty);
                let mop = machine_binop(*op, &ty);
                let k = ty.kind();
                match (ltrue, lfalse) {
                    (Some(lt), None) => self.buf.br_cmp(mop, k, va, vb, lt),
                    (None, Some(lf)) => {
                        let neg = mop.negated().expect("comparison");
                        self.buf.br_cmp(neg, k, va, vb, lf);
                    }
                    (Some(lt), Some(lf)) => {
                        self.buf.br_cmp(mop, k, va, vb, lt);
                        self.buf.jmp(lf);
                    }
                    (None, None) => {}
                }
            }
            ExprKind::Un(UnaryOp::LogNot, inner) => self.cond_branch(inner, lfalse, ltrue),
            ExprKind::Bin(BinaryOp::LogAnd, a, b) => {
                let lskip = self.buf.label();
                self.cond_branch(a, None, Some(lfalse.unwrap_or(lskip)));
                self.cond_branch(b, ltrue, lfalse);
                self.buf.bind(lskip);
            }
            ExprKind::Bin(BinaryOp::LogOr, a, b) => {
                let lskip = self.buf.label();
                self.cond_branch(a, Some(ltrue.unwrap_or(lskip)), None);
                self.cond_branch(b, ltrue, lfalse);
                self.buf.bind(lskip);
            }
            _ => {
                let v = self.rvalue(e);
                match (ltrue, lfalse) {
                    (Some(lt), None) => self.buf.br_true(v, lt),
                    (None, Some(lf)) => self.buf.br_false(v, lf),
                    (Some(lt), Some(lf)) => {
                        self.buf.br_true(v, lt);
                        self.buf.jmp(lf);
                    }
                    (None, None) => {}
                }
            }
        }
    }

    // ---- places ----------------------------------------------------------

    fn local_place(&mut self, id: usize, ty: &Type) -> Place {
        match &self.slots[id] {
            Slot::Reg(v) => Place::Var(*v, ty.clone()),
            Slot::Mem(b) => {
                let b = *b;
                let addr = self.buf.vreg(ValKind::P);
                self.buf.frame_addr(addr, b);
                Place::Mem {
                    addr,
                    off: 0,
                    ty: ty.clone(),
                }
            }
        }
    }

    fn place(&mut self, e: &Expr) -> Place {
        match &e.kind {
            ExprKind::Var(VarRef::Local(i)) => self.local_place(*i, &e.ty),
            ExprKind::Var(VarRef::Global(g)) => {
                let addr = self.buf.vreg(ValKind::P);
                let a = self.env.global_addr(*g);
                self.buf.li(addr, a as i64);
                Place::Mem {
                    addr,
                    off: 0,
                    ty: e.ty.clone(),
                }
            }
            ExprKind::Un(UnaryOp::Deref, inner) => {
                let addr = self.rvalue(inner);
                Place::Mem {
                    addr,
                    off: 0,
                    ty: e.ty.clone(),
                }
            }
            ExprKind::Index(base, idx) => {
                let bt = base.ty.decay();
                let elem = match &bt {
                    Type::Ptr(t) => (**t).clone(),
                    _ => panic!("sema guarantees pointer"),
                };
                let size = elem.size(self.structs()) as i64;
                let bv = self.rvalue(base);
                if let ExprKind::IntLit(c) = idx.kind {
                    return Place::Mem {
                        addr: bv,
                        off: c * size,
                        ty: e.ty.clone(),
                    };
                }
                let iv = self.rvalue(idx);
                let iv = self.coerce(iv, &idx.ty, &Type::Long);
                let scaled = self.buf.vreg(ValKind::D);
                self.buf.bin_imm(BinOp::Mul, ValKind::D, scaled, iv, size);
                let addr = self.buf.vreg(ValKind::P);
                self.buf.bin(BinOp::Add, ValKind::P, addr, bv, scaled);
                Place::Mem {
                    addr,
                    off: 0,
                    ty: e.ty.clone(),
                }
            }
            ExprKind::Member(base, _, arrow, offset) => {
                if *arrow {
                    let bv = self.rvalue(base);
                    Place::Mem {
                        addr: bv,
                        off: *offset as i64,
                        ty: e.ty.clone(),
                    }
                } else {
                    match self.place(base) {
                        Place::Mem { addr, off, .. } => Place::Mem {
                            addr,
                            off: off + *offset as i64,
                            ty: e.ty.clone(),
                        },
                        Place::Var(..) => panic!("struct locals always live in memory"),
                    }
                }
            }
            other => panic!("not a place: {other:?}"),
        }
    }

    fn load_place(&mut self, p: &Place) -> VReg {
        match p {
            Place::Var(v, _) => *v,
            Place::Mem { addr, off, ty } => {
                // Aggregates "load" as their address.
                if matches!(ty, Type::Array(..) | Type::Struct(_)) {
                    if *off == 0 {
                        return *addr;
                    }
                    let v = self.buf.vreg(ValKind::P);
                    self.buf.bin_imm(BinOp::Add, ValKind::P, v, *addr, *off);
                    return v;
                }
                let v = self.buf.vreg(ty.kind());
                self.buf.load(load_kind(ty), v, *addr, *off);
                v
            }
        }
    }

    fn store_place(&mut self, p: &Place, v: VReg) {
        match p {
            Place::Var(dst, ty) => {
                let (dst, k) = (*dst, ty.kind());
                self.buf.un(UnOp::Mov, k, dst, v);
                // Narrow sub-int register locals to keep canonical form.
                self.narrow_in_place(dst, ty);
            }
            Place::Mem { addr, off, ty } => {
                self.buf.store(store_kind(ty), v, *addr, *off);
            }
        }
    }

    fn narrow_in_place(&mut self, v: VReg, ty: &Type) {
        match ty {
            Type::Char => {
                self.buf.bin_imm(BinOp::Shl, ValKind::W, v, v, 24);
                self.buf.bin_imm(BinOp::Shr, ValKind::W, v, v, 24);
            }
            Type::UChar => self.buf.bin_imm(BinOp::And, ValKind::W, v, v, 0xff),
            Type::Short => {
                self.buf.bin_imm(BinOp::Shl, ValKind::W, v, v, 16);
                self.buf.bin_imm(BinOp::Shr, ValKind::W, v, v, 16);
            }
            Type::UShort => self.buf.bin_imm(BinOp::And, ValKind::W, v, v, 0xffff),
            _ => {}
        }
    }

    fn store_local(&mut self, id: usize, ty: &Type, v: VReg) {
        let p = self.local_place(id, ty);
        self.store_place(&p, v);
    }

    // ---- conversions -----------------------------------------------------

    /// Converts `v` from type `from` to type `to`, emitting code as
    /// needed; returns the converted value.
    fn coerce(&mut self, v: VReg, from: &Type, to: &Type) -> VReg {
        let from = from.decay();
        let to = to.clone();
        if from == to {
            return v;
        }
        let (fk, tk) = (from.kind(), to.kind());
        match (fk, tk) {
            (ValKind::F, ValKind::F) => v,
            (ValKind::F, ValKind::W) => {
                let d = self.buf.vreg(ValKind::W);
                self.buf.un(UnOp::CvtFtoW, ValKind::W, d, v);
                d
            }
            (ValKind::F, _) => {
                let d = self.buf.vreg(tk);
                self.buf.un(UnOp::CvtFtoL, tk, d, v);
                d
            }
            (ValKind::W, ValKind::F) => {
                let d = self.buf.vreg(ValKind::F);
                if from.is_unsigned() {
                    // zero-extend to 64 bits first so the value is exact
                    let z = self.buf.vreg(ValKind::D);
                    self.buf.bin_imm(BinOp::And, ValKind::D, z, v, 0xffff_ffff);
                    self.buf.un(UnOp::CvtLtoF, ValKind::F, d, z);
                } else {
                    self.buf.un(UnOp::CvtWtoF, ValKind::F, d, v);
                }
                d
            }
            (_, ValKind::F) => {
                let d = self.buf.vreg(ValKind::F);
                self.buf.un(UnOp::CvtLtoF, ValKind::F, d, v);
                d
            }
            (ValKind::W, ValKind::D | ValKind::P) => {
                if from.is_unsigned() {
                    let d = self.buf.vreg(tk);
                    self.buf.bin_imm(BinOp::And, ValKind::D, d, v, 0xffff_ffff);
                    d
                } else {
                    v // already sign-extended canonical
                }
            }
            (ValKind::D | ValKind::P, ValKind::W) => {
                let d = self.buf.vreg(ValKind::W);
                self.buf.un(UnOp::Mov, ValKind::W, d, v); // truncating move
                self.narrow_in_place(d, &to);
                d
            }
            (ValKind::W, ValKind::W) => {
                // Width/sign change within the 32-bit world.
                if to.size(self.structs()) < from.size(self.structs())
                    || (to.size(self.structs()) == from.size(self.structs())
                        && to.is_unsigned() != from.is_unsigned()
                        && to.size(self.structs()) < 4)
                {
                    let d = self.buf.vreg(ValKind::W);
                    self.buf.un(UnOp::Mov, ValKind::W, d, v);
                    self.narrow_in_place(d, &to);
                    d
                } else {
                    v
                }
            }
            (ValKind::D | ValKind::P, ValKind::D | ValKind::P) => v,
        }
    }

    // ---- expressions -----------------------------------------------------

    fn rvalue(&mut self, e: &Expr) -> VReg {
        match &e.kind {
            ExprKind::IntLit(v) => {
                let d = self.buf.vreg(e.ty.kind());
                self.buf.li(d, *v);
                d
            }
            ExprKind::FloatLit(v) => {
                let d = self.buf.vreg(ValKind::F);
                self.buf.lif(d, *v);
                d
            }
            ExprKind::StrLit(bytes) => {
                let addr = self.env.intern_str(bytes);
                let d = self.buf.vreg(ValKind::P);
                self.buf.li(d, addr as i64);
                d
            }
            ExprKind::Var(VarRef::Func(fi)) => {
                let d = self.buf.vreg(ValKind::P);
                let entry = self.env.fn_table_entry(*fi);
                self.buf.li(d, entry as i64);
                let v = self.buf.vreg(ValKind::P);
                self.buf.load(LoadKind::I64, v, d, 0);
                v
            }
            ExprKind::Var(VarRef::Builtin(_)) => panic!("builtins can only be called"),
            ExprKind::Var(_) | ExprKind::Index(..) | ExprKind::Member(..) => {
                let p = self.place(e);
                self.load_place(&p)
            }
            ExprKind::Un(UnaryOp::Deref, _) => {
                if matches!(e.ty, Type::Func(_)) {
                    // *fp where fp is a function pointer: the value is fp.
                    let ExprKind::Un(_, inner) = &e.kind else {
                        unreachable!()
                    };
                    return self.rvalue(inner);
                }
                let p = self.place(e);
                self.load_place(&p)
            }
            ExprKind::Un(op, inner) => self.unary(*op, inner, e),
            ExprKind::PreIncDec(inner, inc) => self.incdec(inner, *inc, false),
            ExprKind::PostIncDec(inner, inc) => self.incdec(inner, *inc, true),
            ExprKind::Bin(op, a, b) => self.binary(*op, a, b, e),
            ExprKind::Assign(op, lhs, rhs) => self.assign(op, lhs, rhs),
            ExprKind::Call(callee, args) => self.call(callee, args, e),
            ExprKind::Cast(ty, inner) => {
                if *ty == Type::Void {
                    let v = self.rvalue(inner);
                    return v;
                }
                let v = self.rvalue(inner);
                self.coerce(v, &inner.ty, ty)
            }
            ExprKind::Cond(c, t, f) => {
                let k = if e.ty == Type::Void {
                    ValKind::W
                } else {
                    e.ty.kind()
                };
                let d = self.buf.vreg(k);
                let lf = self.buf.label();
                let lend = self.buf.label();
                self.cond_branch(c, None, Some(lf));
                let tv = self.rvalue(t);
                let tv = self.coerce(tv, &t.ty, &e.ty);
                self.buf.un(UnOp::Mov, k, d, tv);
                self.buf.jmp(lend);
                self.buf.bind(lf);
                let fv = self.rvalue(f);
                let fv = self.coerce(fv, &f.ty, &e.ty);
                self.buf.un(UnOp::Mov, k, d, fv);
                self.buf.bind(lend);
                d
            }
            ExprKind::Comma(a, b) => {
                self.rvalue(a);
                self.rvalue(b)
            }
            ExprKind::Tick(tid) => self.build_closure(*tid),
            ExprKind::CompileExpr(c, ty) => {
                let cv = self.rvalue(c);
                // Second argument: the declared return kind (255 = void),
                // so the dynamic compiler knows what `return` must produce.
                let kc = self.buf.vreg(ValKind::W);
                let code = if *ty == Type::Void {
                    255
                } else {
                    ty.kind().code() as i64
                };
                self.buf.li(kc, code);
                let d = self.buf.vreg(ValKind::P);
                self.buf.hcall(
                    hcalls::HC_COMPILE,
                    &[(ValKind::P, cv), (ValKind::W, kc)],
                    Some((ValKind::P, d)),
                );
                d
            }
            ExprKind::LocalForm(ty) => {
                let kc = self.buf.vreg(ValKind::W);
                self.buf.li(kc, ty.kind().code() as i64);
                let d = self.buf.vreg(ValKind::P);
                self.buf
                    .hcall(hcalls::HC_LOCAL, &[(ValKind::W, kc)], Some((ValKind::P, d)));
                d
            }
            ExprKind::ParamForm(ty, idx) => {
                let kc = self.buf.vreg(ValKind::W);
                self.buf.li(kc, ty.kind().code() as i64);
                let iv = self.rvalue(idx);
                let d = self.buf.vreg(ValKind::P);
                self.buf.hcall(
                    hcalls::HC_PARAM,
                    &[(ValKind::W, kc), (ValKind::W, iv)],
                    Some((ValKind::P, d)),
                );
                d
            }
            ExprKind::LabelForm => {
                let d = self.buf.vreg(ValKind::P);
                self.buf
                    .hcall(hcalls::HC_LABEL_OBJ, &[], Some((ValKind::P, d)));
                d
            }
            ExprKind::JumpForm(_) => panic!("sema restricts jump() to tick bodies"),
            ExprKind::ArglistNew => {
                let d = self.buf.vreg(ValKind::P);
                self.buf
                    .hcall(hcalls::HC_ARGLIST_NEW, &[], Some((ValKind::P, d)));
                d
            }
            ExprKind::ArglistPush(l, c) => {
                let lv = self.rvalue(l);
                let cv = self.rvalue(c);
                self.buf.hcall(
                    hcalls::HC_ARGLIST_PUSH,
                    &[(ValKind::P, lv), (ValKind::P, cv)],
                    None,
                );
                VReg::NONE
            }
            ExprKind::Apply(..) => panic!("sema restricts apply() to tick bodies"),
            ExprKind::Ident(_) | ExprKind::TickRaw(_) | ExprKind::Dollar(_) => {
                panic!("sema leaves no {:?}", e.kind)
            }
            ExprKind::SizeofT(_) | ExprKind::SizeofE(_) => panic!("sema folds sizeof"),
        }
    }

    fn unary(&mut self, op: UnaryOp, inner: &Expr, e: &Expr) -> VReg {
        match op {
            UnaryOp::Neg => {
                let v = self.rvalue(inner);
                let v = self.coerce(v, &inner.ty, &e.ty);
                let d = self.buf.vreg(e.ty.kind());
                self.buf.un(UnOp::Neg, e.ty.kind(), d, v);
                d
            }
            UnaryOp::BitNot => {
                let v = self.rvalue(inner);
                let v = self.coerce(v, &inner.ty, &e.ty);
                let d = self.buf.vreg(e.ty.kind());
                self.buf.un(UnOp::Not, e.ty.kind(), d, v);
                d
            }
            UnaryOp::LogNot => {
                let v = self.rvalue(inner);
                let k = inner.ty.decay().kind();
                let z = self.buf.vreg(k);
                self.buf.li(z, 0);
                let d = self.buf.vreg(ValKind::W);
                self.buf.bin(
                    BinOp::Eq,
                    if k == ValKind::F { ValKind::F } else { k },
                    d,
                    v,
                    z,
                );
                d
            }
            UnaryOp::Addr => {
                let p = self.place(inner);
                match p {
                    Place::Mem { addr, off, .. } => {
                        if off == 0 {
                            addr
                        } else {
                            let d = self.buf.vreg(ValKind::P);
                            self.buf.bin_imm(BinOp::Add, ValKind::P, d, addr, off);
                            d
                        }
                    }
                    Place::Var(..) => panic!("address-taken locals live in memory"),
                }
            }
            UnaryOp::Deref => unreachable!("handled in rvalue"),
        }
    }

    fn incdec(&mut self, inner: &Expr, inc: bool, post: bool) -> VReg {
        let ty = inner.ty.decay();
        let k = ty.kind();
        let delta: i64 = match &ty {
            Type::Ptr(t) => t.size(self.structs()) as i64,
            _ => 1,
        };
        let delta = if inc { delta } else { -delta };
        let p = self.place(inner);
        let old = self.load_place(&p);
        let oldc = if post {
            // Preserve the old value against the in-place update.
            let c = self.buf.vreg(k);
            self.buf.un(UnOp::Mov, k, c, old);
            c
        } else {
            old
        };
        let newv = self.buf.vreg(k);
        if ty == Type::Double {
            let dv = self.buf.vreg(ValKind::F);
            self.buf.lif(dv, delta as f64);
            self.buf.bin(BinOp::Add, ValKind::F, newv, old, dv);
        } else {
            self.buf.bin_imm(BinOp::Add, k, newv, old, delta);
        }
        self.store_place(&p, newv);
        if post {
            oldc
        } else {
            // The stored value may have been narrowed; reload from place.
            self.load_place(&p)
        }
    }

    fn binary(&mut self, op: BinaryOp, a: &Expr, b: &Expr, e: &Expr) -> VReg {
        use BinaryOp::*;
        match op {
            LogAnd | LogOr => {
                let d = self.buf.vreg(ValKind::W);
                let lfalse = self.buf.label();
                let ltrue = self.buf.label();
                let lend = self.buf.label();
                self.cond_branch(e, Some(ltrue), Some(lfalse));
                self.buf.bind(ltrue);
                self.buf.li(d, 1);
                self.buf.jmp(lend);
                self.buf.bind(lfalse);
                self.buf.li(d, 0);
                self.buf.bind(lend);
                return d;
            }
            _ => {}
        }
        let ta = a.ty.decay();
        let tb = b.ty.decay();
        // Pointer arithmetic.
        if (op == Add || op == Sub) && ta.is_ptr() && tb.is_integer() {
            let elem = match &ta {
                Type::Ptr(t) => t.size(self.structs()) as i64,
                _ => unreachable!(),
            };
            let pv = self.rvalue(a);
            if let ExprKind::IntLit(c) = b.kind {
                let d = self.buf.vreg(ValKind::P);
                let off = if op == Add { c * elem } else { -c * elem };
                self.buf.bin_imm(BinOp::Add, ValKind::P, d, pv, off);
                return d;
            }
            let iv = self.rvalue(b);
            let iv = self.coerce(iv, &tb, &Type::Long);
            let scaled = self.buf.vreg(ValKind::D);
            self.buf.bin_imm(BinOp::Mul, ValKind::D, scaled, iv, elem);
            let d = self.buf.vreg(ValKind::P);
            let mop = if op == Add { BinOp::Add } else { BinOp::Sub };
            self.buf.bin(mop, ValKind::P, d, pv, scaled);
            return d;
        }
        if op == Add && ta.is_integer() && tb.is_ptr() {
            return self.binary(Add, b, a, e);
        }
        if op == Sub && ta.is_ptr() && tb.is_ptr() {
            let elem = match &ta {
                Type::Ptr(t) => t.size(self.structs()) as i64,
                _ => unreachable!(),
            };
            let av = self.rvalue(a);
            let bv = self.rvalue(b);
            let diff = self.buf.vreg(ValKind::D);
            self.buf.bin(BinOp::Sub, ValKind::D, diff, av, bv);
            let d = self.buf.vreg(ValKind::D);
            self.buf.bin_imm(BinOp::Div, ValKind::D, d, diff, elem);
            return d;
        }
        // Comparisons: operate at the common operand type, result W.
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
        let va = self.rvalue(a);
        let va = self.coerce(va, &ta, &common);
        // Constant right operands use the strength-reduced immediate
        // forms (integer non-comparison ops only).
        if !cmp && common.kind() != ValKind::F {
            if let ExprKind::IntLit(c) = b.kind {
                let d = self.buf.vreg(common.kind());
                self.buf
                    .bin_imm(machine_binop(op, &common), common.kind(), d, va, c);
                return d;
            }
        }
        let vb = self.rvalue(b);
        let vb = self.coerce(vb, &tb, &common);
        let k = common.kind();
        let d = self.buf.vreg(if cmp { ValKind::W } else { k });
        self.buf.bin(machine_binop(op, &common), k, d, va, vb);
        d
    }

    fn assign(&mut self, op: &Option<BinaryOp>, lhs: &Expr, rhs: &Expr) -> VReg {
        // Struct assignment: block copy.
        if let Type::Struct(si) = &lhs.ty {
            assert!(op.is_none(), "compound assignment on struct");
            let size = self.prog.structs[*si].size;
            let dst = self.place(lhs);
            let src = self.place(rhs);
            let (da, doff) = match &dst {
                Place::Mem { addr, off, .. } => (*addr, *off),
                _ => panic!("struct place"),
            };
            let (sa, soff) = match &src {
                Place::Mem { addr, off, .. } => (*addr, *off),
                _ => panic!("struct place"),
            };
            let mut copied = 0u64;
            while copied + 8 <= size {
                let t = self.buf.vreg(ValKind::D);
                self.buf.load(LoadKind::I64, t, sa, soff + copied as i64);
                self.buf.store(StoreKind::I64, t, da, doff + copied as i64);
                copied += 8;
            }
            while copied + 4 <= size {
                let t = self.buf.vreg(ValKind::W);
                self.buf.load(LoadKind::I32, t, sa, soff + copied as i64);
                self.buf.store(StoreKind::I32, t, da, doff + copied as i64);
                copied += 4;
            }
            while copied < size {
                let t = self.buf.vreg(ValKind::W);
                self.buf.load(LoadKind::U8, t, sa, soff + copied as i64);
                self.buf.store(StoreKind::I8, t, da, doff + copied as i64);
                copied += 1;
            }
            return da;
        }
        let p = self.place(lhs);
        let v = match op {
            None => {
                let v = self.rvalue(rhs);
                self.coerce(v, &rhs.ty, &lhs.ty)
            }
            Some(op) => {
                // lhs = lhs op rhs, with the usual conversions.
                let cur = self.load_place(&p);
                let ta = lhs.ty.decay();
                let tb = rhs.ty.decay();
                if ta.is_ptr() {
                    let elem = match &ta {
                        Type::Ptr(t) => t.size(self.structs()) as i64,
                        _ => unreachable!(),
                    };
                    let iv = self.rvalue(rhs);
                    let iv = self.coerce(iv, &tb, &Type::Long);
                    let scaled = self.buf.vreg(ValKind::D);
                    self.buf.bin_imm(BinOp::Mul, ValKind::D, scaled, iv, elem);
                    let d = self.buf.vreg(ValKind::P);
                    let mop = if *op == BinaryOp::Add {
                        BinOp::Add
                    } else {
                        BinOp::Sub
                    };
                    self.buf.bin(mop, ValKind::P, d, cur, scaled);
                    d
                } else {
                    let common = if ta.is_arith() && tb.is_arith() {
                        ta.usual_arith(&tb)
                    } else {
                        ta.clone()
                    };
                    let cv = self.coerce(cur, &ta, &common);
                    let d = self.buf.vreg(common.kind());
                    if common.kind() != ValKind::F {
                        if let ExprKind::IntLit(c) = rhs.kind {
                            self.buf
                                .bin_imm(machine_binop(*op, &common), common.kind(), d, cv, c);
                            let out = self.coerce(d, &common, &lhs.ty);
                            self.store_place(&p, out);
                            return self.load_place(&p);
                        }
                    }
                    let rv = self.rvalue(rhs);
                    let rv = self.coerce(rv, &tb, &common);
                    self.buf
                        .bin(machine_binop(*op, &common), common.kind(), d, cv, rv);
                    self.coerce(d, &common, &lhs.ty)
                }
            }
        };
        self.store_place(&p, v);
        self.load_place(&p)
    }

    fn call(&mut self, callee: &Expr, args: &[Expr], e: &Expr) -> VReg {
        // Builtins become host calls.
        if let ExprKind::Var(VarRef::Builtin(b)) = &callee.kind {
            return self.builtin_call(*b, args, e);
        }
        // Evaluate arguments, coercing to parameter types when known.
        let sig = match callee.ty.decay() {
            Type::Ptr(inner) => match &*inner {
                Type::Func(sig) if sig.params.len() == args.len() => Some(sig.clone()),
                _ => None,
            },
            _ => None,
        };
        let mut lowered = [(ValKind::W, VReg::NONE); MAX_ARGS];
        for (j, a) in args.iter().enumerate() {
            let v = self.rvalue(a);
            let ty = match &sig {
                Some(sig) => sig.params[j].clone(),
                None => a.ty.decay(),
            };
            let v = self.coerce(v, &a.ty, &ty);
            lowered[j] = (ty.kind(), v);
        }
        let lowered = &lowered[..args.len()];
        let ret = if e.ty == Type::Void {
            None
        } else {
            let d = self.buf.vreg(e.ty.kind());
            Some((e.ty.kind(), d))
        };
        // Direct calls go through the function table (addresses are
        // assigned after all functions are compiled).
        let target = match &callee.kind {
            ExprKind::Var(VarRef::Func(fi)) => {
                let t = self.buf.vreg(ValKind::P);
                self.buf.li(t, self.env.fn_table_entry(*fi) as i64);
                let f = self.buf.vreg(ValKind::P);
                self.buf.load(LoadKind::I64, f, t, 0);
                f
            }
            _ => self.rvalue(callee),
        };
        self.buf.call_ind(target, lowered, ret);
        ret.map(|(_, d)| d).unwrap_or(VReg::NONE)
    }

    fn builtin_call(&mut self, b: Builtin, args: &[Expr], _e: &Expr) -> VReg {
        let mut lowered = [(ValKind::W, VReg::NONE); MAX_ARGS];
        for (j, a) in args.iter().enumerate() {
            let v = self.rvalue(a);
            lowered[j] = (a.ty.decay().kind(), v);
        }
        let lowered = &lowered[..args.len()];
        match b {
            Builtin::Puts => self.buf.hcall(hcalls::HC_PUTS, lowered, None),
            Builtin::Puti => self.buf.hcall(hcalls::HC_PUTINT, lowered, None),
            Builtin::Putd => self.buf.hcall(hcalls::HC_PUTF, lowered, None),
            Builtin::Putchar => self.buf.hcall(hcalls::HC_PUTCHAR, lowered, None),
            Builtin::Printf => self.buf.hcall(hcalls::HC_PRINTF, lowered, None),
            Builtin::Abort => self.buf.hcall(hcalls::HC_ABORT, lowered, None),
            Builtin::Malloc => {
                let d = self.buf.vreg(ValKind::P);
                let (_, v) = lowered[0];
                let v2 = self.coerce(v, &args[0].ty, &Type::Long);
                self.buf.hcall(
                    hcalls::HC_MALLOC,
                    &[(ValKind::D, v2)],
                    Some((ValKind::P, d)),
                );
                return d;
            }
        }
        VReg::NONE
    }

    /// Lowers a tick expression to closure construction (paper §4.2).
    fn build_closure(&mut self, tid: usize) -> VReg {
        let tick = &self.prog.ticks[tid];
        let func = self.func;
        let nfields = tick.captures.len();
        let size = 8 * (1 + nfields as i64);
        let sz = self.buf.vreg(ValKind::D);
        self.buf.li(sz, size);
        let clo = self.buf.vreg(ValKind::P);
        self.buf.hcall(
            hcalls::HC_ALLOC_CLOSURE,
            &[(ValKind::D, sz)],
            Some((ValKind::P, clo)),
        );
        // Header word: the CGF index.
        let id = self.buf.vreg(ValKind::D);
        self.buf.li(id, tid as i64);
        self.buf.store(StoreKind::I64, id, clo, 0);
        for (i, cap) in tick.captures.iter().enumerate() {
            let off = 8 * (1 + i as i64);
            match &cap.kind {
                CaptureKind::Dollar(expr) => {
                    let v = self.rvalue(expr);
                    let v = self.coerce(v, &expr.ty, &cap.ty);
                    if cap.ty.kind() == ValKind::F {
                        self.buf.store(StoreKind::F64, v, clo, off);
                    } else {
                        self.buf.store(StoreKind::I64, v, clo, off);
                    }
                }
                CaptureKind::FreeVar(local) => {
                    let p = self.local_place(*local, &func.locals[*local].ty);
                    let addr = match p {
                        Place::Mem { addr, off: 0, .. } => addr,
                        Place::Mem { addr, off: o, .. } => {
                            let d = self.buf.vreg(ValKind::P);
                            self.buf.bin_imm(BinOp::Add, ValKind::P, d, addr, o);
                            d
                        }
                        Place::Var(..) => panic!("captured locals are address-taken"),
                    };
                    self.buf.store(StoreKind::I64, addr, clo, off);
                }
                CaptureKind::Cspec(expr) | CaptureKind::Vspec(expr) => {
                    let v = self.rvalue(expr);
                    self.buf.store(StoreKind::I64, v, clo, off);
                }
            }
        }
        clo
    }
}
