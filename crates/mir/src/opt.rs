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
use std::hash::{BuildHasherDefault, Hasher};
use tcc_icode::peephole::Peephole;
use tcc_icode::{IInsn, IOp, IcodeBuf, VReg};
use tcc_rt::ValKind;
use tcc_vcode::ops::{BinOp, UnOp};

/// What a single-definition virtual register is known to hold.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Known {
    Nothing,
    Const(i64),
    CopyOf(VReg),
}

/// A pure computation, as CSE numbers values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct CseKey {
    op: IOp,
    k: ValKind,
    a: VReg,
    b: VReg,
    imm: i64,
}

/// Where a computation's value lives, recorded in block `block` when
/// its operands and value register had been defined `defs` times. It is
/// available while the block and all three counts are unchanged: a
/// redefinition kills it without a search.
#[derive(Clone, Copy, Debug)]
struct Avail {
    val: VReg,
    block: u32,
    defs: [u32; 3],
}

/// FxHash's multiply-rotate mix: the CSE table's keys are a handful of
/// small integers, and SipHash's flood resistance buys nothing here.
#[derive(Default)]
struct CseHasher(u64);

impl Hasher for CseHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The optimization pipeline and every table its passes index by
/// virtual register. Keep one across functions: each pass re-zeroes the
/// tables it finds here instead of allocating its own.
#[derive(Clone, Debug, Default)]
pub struct Optimizer {
    /// Definitions of each vreg.
    counts: Vec<u32>,
    /// What each single-definition vreg holds.
    known: Vec<Known>,
    /// Per vreg: definitions CSE has passed.
    defs_seen: Vec<u32>,
    /// Each computation's latest recording.
    avail: HashMap<CseKey, Avail, BuildHasherDefault<CseHasher>>,
    peephole: Peephole,
}

impl Optimizer {
    /// Runs the full pipeline on `buf` in place: up to three rounds of
    /// the rewrites and dead code removal, then jump threading.
    pub fn run(&mut self, buf: &mut IcodeBuf) {
        for _ in 0..3 {
            let mut changed = self.rewrite(buf);
            changed |= self.peephole.dead_code(buf) > 0;
            if !changed {
                break;
            }
        }
        self.peephole.thread_jumps(buf);
    }

    /// Tables what each single-definition vreg holds: a constant (`Li`)
    /// or a copy (`Un(Mov)` of a single-definition vreg of its kind).
    fn table(&mut self, buf: &IcodeBuf) {
        let (counts, known) = (&mut self.counts, &mut self.known);
        counts.clear();
        counts.resize(buf.num_vregs(), 0);
        for i in &buf.insns {
            if let Some(d) = i.def() {
                counts[d.0 as usize] += 1;
            }
        }
        known.clear();
        known.resize(buf.num_vregs(), Known::Nothing);
        for i in &buf.insns {
            if let Some(d) = i.def() {
                if counts[d.0 as usize] != 1 {
                    continue;
                }
                match i.op {
                    IOp::Li => known[d.0 as usize] = Known::Const(i.imm),
                    IOp::Un(UnOp::Mov)
                        if i.a.is_some()
                            && counts[i.a.0 as usize] == 1
                            && buf.kind_of(i.a) == buf.kind_of(d) =>
                    {
                        known[d.0 as usize] = Known::CopyOf(i.a);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Constant and copy propagation, folding and local CSE, as one
    /// pass over the buffer that applies all three to each instruction
    /// in turn. That is the three passes run one after another:
    /// propagation and folding read only the table, taken before the
    /// pass (neither changes a definition, so it holds throughout), and
    /// CSE reads only the instructions before the one it visits, which
    /// are final by then.
    fn rewrite(&mut self, buf: &mut IcodeBuf) -> bool {
        self.table(buf);
        let Optimizer {
            known,
            defs_seen,
            avail,
            ..
        } = self;
        defs_seen.clear();
        defs_seen.resize(buf.num_vregs(), 0);
        avail.clear();
        let mut cse = Cse {
            defs_seen,
            avail,
            block: 0,
        };
        let mut changed = false;
        for i in &mut buf.insns {
            changed |= propagate(known, i);
            changed |= fold(known, i);
            changed |= cse.visit(i);
        }
        changed
    }
}

/// Propagates constants and copies into `i`'s operands: a copy chain
/// resolves to its source, and a known-constant operand of a binary
/// operation becomes its immediate form where the machine has one.
/// (`BrCmp` keeps register form: the VM's branches are reg-reg.)
fn propagate(known: &[Known], i: &mut IInsn) -> bool {
    let resolve = |mut v: VReg| -> VReg {
        let mut hops = 0;
        while let Known::CopyOf(s) = known[v.0 as usize] {
            v = s;
            hops += 1;
            if hops > 64 {
                break;
            }
        }
        v
    };
    let mut changed = false;
    for field in [&mut i.a, &mut i.b] {
        if field.is_some() {
            let r = resolve(*field);
            if r != *field {
                *field = r;
                changed = true;
            }
        }
    }
    if let IOp::Bin(op) = i.op {
        if i.b.is_some() {
            if let Some(c) = const_of(known, i.b) {
                if imm_form_ok(op) {
                    i.op = IOp::BinImm(op);
                    i.imm = c;
                    i.b = VReg::NONE;
                    changed = true;
                }
            } else if let Some(c) = const_of(known, i.a) {
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
    changed
}

/// Folds an operation whose operands are all constants, and the
/// algebraic identities (`x+0`, `x*1`, `x*0`).
fn fold(known: &[Known], i: &mut IInsn) -> bool {
    let li = |i: &IInsn, imm: i64| IInsn {
        op: IOp::Li,
        k: i.k,
        dst: i.dst,
        a: VReg::NONE,
        b: VReg::NONE,
        imm,
    };
    match i.op {
        IOp::BinImm(op) => {
            if let Some(a) = const_of(known, i.a) {
                if let Some(v) = op.eval_int(i.k, a, i.imm) {
                    *i = li(i, v);
                    return true;
                }
            }
            match (op, i.imm) {
                (BinOp::Add | BinOp::Sub | BinOp::Shl | BinOp::Shr | BinOp::ShrU, 0)
                | (BinOp::Mul | BinOp::Div | BinOp::DivU, 1) => {
                    i.op = IOp::Un(UnOp::Mov);
                    i.imm = 0;
                    true
                }
                (BinOp::Mul | BinOp::And, 0) => {
                    *i = li(i, 0);
                    true
                }
                _ => false,
            }
        }
        IOp::Bin(op) => {
            if let (Some(a), Some(b)) = (const_of(known, i.a), const_of(known, i.b)) {
                if let Some(v) = op.eval_int(i.k, a, b) {
                    *i = li(i, v);
                    return true;
                }
            }
            false
        }
        _ => false,
    }
}

/// Local (per-block) value-numbering CSE over pure operations, one
/// instruction at a time.
struct Cse<'a> {
    defs_seen: &'a mut Vec<u32>,
    avail: &'a mut HashMap<CseKey, Avail, BuildHasherDefault<CseHasher>>,
    block: u32,
}

impl Cse<'_> {
    /// Definitions of `v` visited so far (none for no register).
    fn defs(&self, v: VReg) -> u32 {
        if v.is_some() {
            self.defs_seen[v.0 as usize]
        } else {
            0
        }
    }

    /// Replaces `i` by a move when an earlier instruction of its block
    /// computed the same value and it is still available.
    fn visit(&mut self, i: &mut IInsn) -> bool {
        // Block boundaries invalidate everything (labels are join
        // points), and so do calls.
        if matches!(
            i.op,
            IOp::Label
                | IOp::Jmp
                | IOp::BrCmp(_)
                | IOp::BrTrue
                | IOp::BrFalse
                | IOp::Ret
                | IOp::CallAddr
                | IOp::CallInd
                | IOp::Hcall
        ) {
            self.block += 1;
            return false;
        }
        let pure = matches!(
            i.op,
            IOp::Bin(_) | IOp::BinImm(_) | IOp::Un(_) | IOp::FrameAddr
        );
        let key = CseKey {
            op: i.op,
            k: i.k,
            a: i.a,
            b: i.b,
            imm: i.imm,
        };
        let hit = if pure {
            self.avail
                .get(&key)
                .filter(|e| {
                    e.block == self.block
                        && e.defs == [self.defs(i.a), self.defs(i.b), self.defs(e.val)]
                })
                .map(|e| e.val)
        } else {
            None
        };
        let (a, b) = (i.a, i.b);
        if let Some(prev) = hit {
            // Replace with a move from the earlier value.
            *i = IInsn {
                op: IOp::Un(UnOp::Mov),
                k: i.k,
                dst: i.dst,
                a: prev,
                b: VReg::NONE,
                imm: 0,
            };
        }
        // A (re)definition kills what was computed from the old value —
        // before the new availability is recorded. One that overwrites
        // its own operand (`x = x >> 24`) records nothing: the key names
        // the old `x`, the value is the new.
        if let Some(d) = i.def() {
            self.defs_seen[d.0 as usize] += 1;
            if hit.is_none() && pure && a != d && b != d {
                let defs = [self.defs(a), self.defs(b), self.defs(d)];
                let block = self.block;
                self.avail.insert(
                    key,
                    Avail {
                        val: d,
                        block,
                        defs,
                    },
                );
            }
        }
        hit.is_some()
    }
}

/// The constant a single-definition `v` is known to hold.
fn const_of(known: &[Known], v: VReg) -> Option<i64> {
    match known.get(v.0 as usize) {
        Some(&Known::Const(c)) => Some(c),
        _ => None,
    }
}

fn imm_form_ok(op: BinOp) -> bool {
    use BinOp::*;
    matches!(
        op,
        Add | Sub | Mul | Div | DivU | Rem | RemU | And | Or | Xor | Shl | Shr | ShrU
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_rt::ValKind;
    use tcc_vcode::CodeSink;

    fn optimize(buf: &mut IcodeBuf) {
        Optimizer::default().run(buf);
    }

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
    fn cse_forgets_a_value_that_overwrote_its_operand() {
        let mut b = IcodeBuf::new();
        let p = b.param(0, ValKind::W);
        let x = b.temp(ValKind::W); // multi-def: excluded from prop
        let t = b.temp(ValKind::W);
        b.un(tcc_vcode::ops::UnOp::Mov, ValKind::W, x, p);
        b.bin_imm(BinOp::Shr, ValKind::W, x, x, 24); // x = x >> 24
        b.bin_imm(BinOp::Shr, ValKind::W, t, x, 24); // (x >> 24) >> 24
        b.ret_val(ValKind::W, t);
        optimize(&mut b);
        let shifts = b
            .insns
            .iter()
            .filter(|i| matches!(i.op, IOp::BinImm(BinOp::Shr)))
            .count();
        assert_eq!(
            shifts, 2,
            "the second shift is not the first: {:?}",
            b.insns
        );
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
