//! Mid-level optimization passes for the gcc-like static back end.
//!
//! The paper measures tcc against "an optimizing compiler of reasonable
//! quality" (GNU CC). These passes — constant propagation and folding,
//! copy propagation, local value-numbering CSE, and dead code removal —
//! together with register-resident locals and the global linear-scan
//! allocator, play that role on this machine.
//!
//! Soundness leans on a structural property of the lowering: most
//! temporaries are defined exactly once. Constants and copies are only
//! propagated out of *single-definition* virtual registers, which makes
//! the propagation flow-insensitive yet sound (a single definition
//! dominates every use the lowering can produce).

use std::collections::HashMap;
use tcc_icode::{IInsn, IOp, IcodeBuf, VReg};
use tcc_vcode::ops::BinOp;

/// Runs the full pipeline in place.
pub fn optimize(buf: &mut IcodeBuf) {
    let mut peephole = tcc_icode::peephole::Peephole::default();
    for _ in 0..3 {
        let mut changed = false;
        changed |= const_and_copy_prop(buf);
        changed |= fold(buf);
        changed |= cse_local(buf);
        changed |= peephole.dead_code(buf) > 0;
        if !changed {
            break;
        }
    }
    peephole.thread_jumps(buf);
}

fn def_counts(buf: &IcodeBuf) -> Vec<u32> {
    let mut counts = vec![0u32; buf.num_vregs()];
    for i in &buf.insns {
        if let Some(d) = i.def() {
            counts[d.0 as usize] += 1;
        }
    }
    counts
}

/// Propagates constants (`Li` into single-def vregs) and copies
/// (`Un(Mov)` of single-def sources into single-def dests).
fn const_and_copy_prop(buf: &mut IcodeBuf) -> bool {
    let counts = def_counts(buf);
    let mut const_of: HashMap<VReg, i64> = HashMap::new();
    let mut copy_of: HashMap<VReg, VReg> = HashMap::new();
    for i in &buf.insns {
        if let Some(d) = i.def() {
            if counts[d.0 as usize] != 1 {
                continue;
            }
            match i.op {
                IOp::Li => {
                    const_of.insert(d, i.imm);
                }
                IOp::Un(tcc_vcode::ops::UnOp::Mov)
                    if i.a.is_some()
                        && counts[i.a.0 as usize] == 1
                        && buf.kind_of(i.a) == buf.kind_of(d) =>
                {
                    copy_of.insert(d, i.a);
                }
                _ => {}
            }
        }
    }
    // Resolve copy chains.
    let resolve = |mut v: VReg, copies: &HashMap<VReg, VReg>| -> VReg {
        let mut hops = 0;
        while let Some(&s) = copies.get(&v) {
            v = s;
            hops += 1;
            if hops > 64 {
                break;
            }
        }
        v
    };
    let mut changed = false;
    let copies = copy_of.clone();
    for i in &mut buf.insns {
        for field in [&mut i.a, &mut i.b] {
            if field.is_some() {
                let r = resolve(*field, &copies);
                if r != *field {
                    *field = r;
                    changed = true;
                }
            }
        }
        // Turn register operands that are known constants into immediate
        // forms where profitable.
        if let IOp::Bin(op) = i.op {
            if i.b.is_some() {
                if let Some(&c) = const_of.get(&i.b) {
                    if imm_form_ok(op) {
                        i.op = IOp::BinImm(op);
                        i.imm = c;
                        i.b = VReg::NONE;
                        changed = true;
                    }
                } else if let Some(&c) = const_of.get(&i.a) {
                    if let Some(sw) = op.swapped() {
                        if imm_form_ok(sw) {
                            i.op = IOp::BinImm(sw);
                            i.a = i.b;
                            i.imm = c;
                            i.b = VReg::NONE;
                            changed = true;
                        }
                    }
                }
            }
        }
        if let IOp::BrCmp(op) = i.op {
            // Keep BrCmp in register form, but materialized constants are
            // common on one side; nothing to do here (the VM branches are
            // reg-reg).
            let _ = op;
        }
    }
    changed
}

fn imm_form_ok(op: BinOp) -> bool {
    use BinOp::*;
    matches!(
        op,
        Add | Sub | Mul | Div | DivU | Rem | RemU | And | Or | Xor | Shl | Shr | ShrU
    )
}

/// Folds operations whose operands are all constants, and algebraic
/// identities (`x+0`, `x*1`, `x*0`).
fn fold(buf: &mut IcodeBuf) -> bool {
    let counts = def_counts(buf);
    let mut const_of: HashMap<VReg, i64> = HashMap::new();
    for i in &buf.insns {
        if let (IOp::Li, Some(d)) = (i.op, i.def()) {
            if counts[d.0 as usize] == 1 {
                const_of.insert(d, i.imm);
            }
        }
    }
    let mut changed = false;
    for i in &mut buf.insns {
        match i.op {
            IOp::BinImm(op) => {
                if let Some(&a) = const_of.get(&i.a) {
                    if let Some(v) = op.eval_int(i.k, a, i.imm) {
                        *i = IInsn {
                            op: IOp::Li,
                            k: i.k,
                            dst: i.dst,
                            a: VReg::NONE,
                            b: VReg::NONE,
                            imm: v,
                        };
                        changed = true;
                        continue;
                    }
                }
                // Identities.
                match (op, i.imm) {
                    (BinOp::Add | BinOp::Sub | BinOp::Shl | BinOp::Shr | BinOp::ShrU, 0)
                    | (BinOp::Mul | BinOp::Div | BinOp::DivU, 1) => {
                        i.op = IOp::Un(tcc_vcode::ops::UnOp::Mov);
                        i.imm = 0;
                        changed = true;
                    }
                    (BinOp::Mul | BinOp::And, 0) => {
                        *i = IInsn {
                            op: IOp::Li,
                            k: i.k,
                            dst: i.dst,
                            a: VReg::NONE,
                            b: VReg::NONE,
                            imm: 0,
                        };
                        changed = true;
                    }
                    _ => {}
                }
            }
            IOp::Bin(op) => {
                if let (Some(&a), Some(&b)) = (const_of.get(&i.a), const_of.get(&i.b)) {
                    if let Some(v) = op.eval_int(i.k, a, b) {
                        *i = IInsn {
                            op: IOp::Li,
                            k: i.k,
                            dst: i.dst,
                            a: VReg::NONE,
                            b: VReg::NONE,
                            imm: v,
                        };
                        changed = true;
                    }
                }
            }
            _ => {}
        }
    }
    changed
}

/// Local (per-block) value-numbering CSE over pure operations.
fn cse_local(buf: &mut IcodeBuf) -> bool {
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Key {
        op: IOp,
        k: tcc_rt::ValKind,
        a: VReg,
        b: VReg,
        imm: i64,
    }
    let mut changed = false;
    let mut avail: HashMap<Key, VReg> = HashMap::new();
    let n = buf.insns.len();
    for idx in 0..n {
        let i = buf.insns[idx];
        // Block boundaries invalidate everything (labels are join points).
        if matches!(
            i.op,
            IOp::Label | IOp::Jmp | IOp::BrCmp(_) | IOp::BrTrue | IOp::BrFalse | IOp::Ret
        ) || matches!(i.op, IOp::CallAddr | IOp::CallInd | IOp::Hcall)
        {
            avail.clear();
            continue;
        }
        let pure = matches!(
            i.op,
            IOp::Bin(_) | IOp::BinImm(_) | IOp::Un(_) | IOp::FrameAddr
        );
        let key = Key {
            op: i.op,
            k: i.k,
            a: i.a,
            b: i.b,
            imm: i.imm,
        };
        let hit = pure.then(|| avail.get(&key).copied()).flatten();
        if let Some(prev) = hit {
            // Replace with a move from the earlier value.
            buf.insns[idx] = IInsn {
                op: IOp::Un(tcc_vcode::ops::UnOp::Mov),
                k: i.k,
                dst: i.dst,
                a: prev,
                b: VReg::NONE,
                imm: 0,
            };
            changed = true;
        }
        // A (re)definition invalidates entries computed from the old
        // value — before recording the new availability.
        if let Some(d) = buf.insns[idx].def() {
            avail.retain(|k, v| k.a != d && k.b != d && *v != d);
        }
        if hit.is_none() && pure {
            if let Some(d) = i.def() {
                avail.insert(key, d);
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_rt::ValKind;
    use tcc_vcode::CodeSink;

    #[test]
    fn constants_fold_through_chains() {
        let mut b = IcodeBuf::new();
        let x = b.temp(ValKind::W);
        let y = b.temp(ValKind::W);
        let z = b.temp(ValKind::W);
        b.li(x, 6);
        b.li(y, 7);
        b.bin(BinOp::Mul, ValKind::W, z, x, y);
        b.ret_val(ValKind::W, z);
        optimize(&mut b);
        // z = 42 directly; x and y dead.
        assert!(b.insns.iter().any(|i| i.op == IOp::Li && i.imm == 42));
        assert_eq!(b.insns.len(), 2, "{:?}", b.insns);
    }

    #[test]
    fn copies_are_propagated() {
        let mut b = IcodeBuf::new();
        let p = b.param(0, ValKind::W);
        let c1 = b.temp(ValKind::W);
        let c2 = b.temp(ValKind::W);
        b.un(tcc_vcode::ops::UnOp::Mov, ValKind::W, c1, p);
        b.un(tcc_vcode::ops::UnOp::Mov, ValKind::W, c2, c1);
        let d = b.temp(ValKind::W);
        b.bin(BinOp::Add, ValKind::W, d, c2, c2);
        b.ret_val(ValKind::W, d);
        optimize(&mut b);
        let add = b
            .insns
            .iter()
            .find(|i| matches!(i.op, IOp::Bin(BinOp::Add)))
            .unwrap();
        assert_eq!(add.a, p);
        assert_eq!(add.b, p);
        assert_eq!(b.insns.len(), 3); // getparam, add, ret
    }

    #[test]
    fn cse_removes_repeated_expressions() {
        let mut b = IcodeBuf::new();
        let p = b.param(0, ValKind::W);
        let t1 = b.temp(ValKind::W);
        let t2 = b.temp(ValKind::W);
        let s = b.temp(ValKind::W);
        b.bin(BinOp::Mul, ValKind::W, t1, p, p);
        b.bin(BinOp::Mul, ValKind::W, t2, p, p); // same value
        b.bin(BinOp::Add, ValKind::W, s, t1, t2);
        b.ret_val(ValKind::W, s);
        optimize(&mut b);
        let muls = b
            .insns
            .iter()
            .filter(|i| matches!(i.op, IOp::Bin(BinOp::Mul)))
            .count();
        assert_eq!(muls, 1, "{:?}", b.insns);
    }

    #[test]
    fn cse_respects_redefinitions() {
        let mut b = IcodeBuf::new();
        let p = b.param(0, ValKind::W);
        let acc = b.temp(ValKind::W); // multi-def: excluded from prop
        let t1 = b.temp(ValKind::W);
        let t2 = b.temp(ValKind::W);
        b.un(tcc_vcode::ops::UnOp::Mov, ValKind::W, acc, p);
        b.bin(BinOp::Add, ValKind::W, t1, acc, p);
        b.bin_imm(BinOp::Add, ValKind::W, acc, acc, 1); // redefines acc
        b.bin(BinOp::Add, ValKind::W, t2, acc, p); // NOT the same as t1
        let s = b.temp(ValKind::W);
        b.bin(BinOp::Sub, ValKind::W, s, t2, t1);
        b.ret_val(ValKind::W, s);
        let before = b.clone();
        optimize(&mut b);
        // Both adds must survive.
        let adds = b
            .insns
            .iter()
            .filter(|i| matches!(i.op, IOp::Bin(BinOp::Add)))
            .count();
        assert_eq!(adds, 2, "before: {:?}\nafter: {:?}", before.insns, b.insns);
    }

    #[test]
    fn constant_operand_becomes_immediate_form() {
        let mut b = IcodeBuf::new();
        let p = b.param(0, ValKind::W);
        let c = b.temp(ValKind::W);
        b.li(c, 8);
        let d = b.temp(ValKind::W);
        b.bin(BinOp::Mul, ValKind::W, d, p, c);
        b.ret_val(ValKind::W, d);
        optimize(&mut b);
        assert!(
            b.insns
                .iter()
                .any(|i| matches!(i.op, IOp::BinImm(BinOp::Mul)) && i.imm == 8),
            "{:?}",
            b.insns
        );
    }

    #[test]
    fn identity_operations_removed() {
        let mut b = IcodeBuf::new();
        let p = b.param(0, ValKind::W);
        let d = b.temp(ValKind::W);
        b.bin_imm(BinOp::Add, ValKind::W, d, p, 0);
        b.ret_val(ValKind::W, d);
        optimize(&mut b);
        // add 0 becomes a move; copy-prop then makes ret use p directly.
        assert!(b.insns.iter().all(|i| !matches!(i.op, IOp::BinImm(_))));
    }
}
