//! The ICODE code emitter (paper §5.2, "Emitting code").
//!
//! "The code emitter simply makes one pass through the buffer of ICODE
//! instructions. For each ICODE instruction, it invokes the VCODE macro
//! corresponding to the given instruction, prepending and appending spill
//! code as necessary, and performing some peephole optimizations and
//! strength reduction."
//!
//! Exactly that: the register-allocated virtual registers are mapped to
//! [`Loc`]s and the VCODE layer's typed macros do the binary emission —
//! including the transparent reload/store bracketing for spilled
//! locations and the immediate-value strength reduction.

use crate::alloc::{AllocLoc, Assignment};
use crate::ir::{IInsn, IOp, IcodeBuf, VReg};
use crate::prune::{key_of, TranslatorTable};
use tcc_rt::ValKind;
use tcc_vcode::ops::UnOp;
use tcc_vcode::{CallTarget, CodeSink, FinishedFunc, Label, Loc, Vcode, VcodeBufs};
use tcc_vm::regs::{ARG_REGS, FARG_REGS};
use tcc_vm::CodeSpace;

/// The emitter's lookup tables, kept for the next compile.
#[derive(Clone, Debug, Default)]
pub struct EmitScratch {
    /// Frame offset of each frame block / integer slot / float slot.
    block_off: Vec<i32>,
    slot_off: Vec<i32>,
    fslot_off: Vec<i32>,
    /// The VCODE label of each ICODE label; arguments since the last call.
    labels: Vec<Label>,
    pending_args: Vec<(ValKind, Loc)>,
    /// The VCODE layer's own per-function storage.
    vcode: VcodeBufs,
}

/// A compile refused because the translator table lacks the entry one
/// of its instructions needs (a pruned table meeting a program it was
/// not pruned for). Found before a word is emitted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MissingTranslator(pub IInsn);

impl std::fmt::Display for MissingTranslator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pruned translator table lacks an entry for {:?}", self.0)
    }
}

impl std::error::Error for MissingTranslator {}

/// Translates a register-allocated ICODE buffer to binary. Returns the
/// function and the translator keys it used (the pruning analysis's
/// observation of this compile).
///
/// # Errors
///
/// `table` does not support an instruction in `buf` (the
/// pruned-translator contract); the code space is left untouched.
///
/// # Panics
///
/// Panics if the buffer references unassigned virtual registers.
pub fn emit(
    code: &mut CodeSpace,
    name: &str,
    buf: &IcodeBuf,
    asn: &Assignment,
    table: &TranslatorTable,
    scratch: &mut EmitScratch,
) -> Result<(FinishedFunc, TranslatorTable), MissingTranslator> {
    let mut seen = TranslatorTable::empty();
    for insn in &buf.insns {
        let key = key_of(insn);
        if !table.contains(key) {
            return Err(MissingTranslator(*insn));
        }
        seen.insert(key);
    }
    let EmitScratch {
        block_off,
        slot_off,
        fslot_off,
        labels,
        pending_args,
        vcode,
    } = scratch;
    let mut vc = Vcode::with_bufs(code, name, std::mem::take(vcode));

    // Save callee-saved registers the allocator handed out.
    for &r in &asn.used_callee_saved {
        vc.fb.use_callee_saved(r);
    }
    for &f in &asn.used_callee_saved_f {
        vc.fb.use_callee_saved_f(f);
    }
    // Materialize frame blocks (addressable locals) and spill slots.
    block_off.clear();
    block_off.extend(buf.frame_blocks.iter().map(|&size| vc.fb.alloc_block(size)));
    slot_off.clear();
    slot_off.extend((0..asn.num_slots).map(|_| vc.fb.alloc_slot()));
    fslot_off.clear();
    fslot_off.extend((0..asn.num_fslots).map(|_| vc.fb.alloc_slot()));
    let loc_of = |v: VReg| -> Loc {
        match asn.loc(v) {
            AllocLoc::R(r) => Loc::R(r),
            AllocLoc::F(f) => Loc::F(f),
            AllocLoc::Slot(i) => Loc::Spill(slot_off[i as usize]),
            AllocLoc::FSlot(i) => Loc::FSpill(fslot_off[i as usize]),
        }
    };

    labels.clear();
    labels.extend((0..buf.nlabels).map(|_| vc.new_label()));
    pending_args.clear();

    for insn in &buf.insns {
        translate_one(&mut vc, insn, &loc_of, labels, block_off, pending_args);
    }
    let (func, bufs) = vc.finish_with_bufs();
    *vcode = bufs;
    Ok((func, seen))
}

fn translate_one(
    vc: &mut Vcode<'_>,
    insn: &IInsn,
    loc_of: &dyn Fn(VReg) -> Loc,
    labels: &[Label],
    block_off: &[i32],
    pending_args: &mut Vec<(ValKind, Loc)>,
) {
    let lbl = |imm: i64| labels[imm as usize];
    match insn.op {
        IOp::Li => vc.li(loc_of(insn.dst), insn.imm),
        IOp::Lif => vc.lif(loc_of(insn.dst), f64::from_bits(insn.imm as u64)),
        IOp::Bin(op) => vc.bin(op, insn.k, loc_of(insn.dst), loc_of(insn.a), loc_of(insn.b)),
        IOp::BinImm(op) => {
            CodeSink::bin_imm(vc, op, insn.k, loc_of(insn.dst), loc_of(insn.a), insn.imm)
        }
        IOp::Un(op) => {
            let (d, a) = (loc_of(insn.dst), loc_of(insn.a));
            // Peephole: a move between identical locations is a no-op.
            if op == UnOp::Mov && d == a {
                return;
            }
            vc.un(op, insn.k, d, a);
        }
        IOp::Load(lk) => vc.load(lk, loc_of(insn.dst), loc_of(insn.a), insn.imm),
        IOp::Store(sk) => vc.store(sk, loc_of(insn.b), loc_of(insn.a), insn.imm),
        IOp::Label => vc.bind(lbl(insn.imm)),
        IOp::Jmp => vc.jmp(lbl(insn.imm)),
        IOp::BrCmp(op) => vc.br_cmp(op, insn.k, loc_of(insn.a), loc_of(insn.b), lbl(insn.imm)),
        IOp::BrTrue => vc.br_true(loc_of(insn.a), lbl(insn.imm)),
        IOp::BrFalse => vc.br_false(loc_of(insn.a), lbl(insn.imm)),
        IOp::Arg(_) => pending_args.push((insn.k, loc_of(insn.a))),
        IOp::CallAddr | IOp::CallInd | IOp::Hcall => {
            let ret = insn.def().map(|d| (insn.k, loc_of(d)));
            match insn.op {
                IOp::CallAddr => {
                    vc.call(CallTarget::Addr(insn.imm as u64), pending_args, ret);
                }
                IOp::CallInd => vc.call(CallTarget::Ind(loc_of(insn.a)), pending_args, ret),
                _ => vc.hcall_with(insn.imm as u32, pending_args, ret),
            }
            pending_args.clear();
        }
        IOp::Ret => {
            if insn.a.is_some() {
                vc.ret_val(insn.k, loc_of(insn.a));
            } else {
                vc.ret();
            }
        }
        IOp::GetParam(i) => {
            let src = if insn.k == ValKind::F {
                Loc::F(FARG_REGS[i as usize])
            } else {
                Loc::R(ARG_REGS[i as usize])
            };
            let d = loc_of(insn.dst);
            if d != src {
                vc.un(UnOp::Mov, insn.k, d, src);
            }
        }
        IOp::FrameAddr => {
            let off = block_off[insn.imm as usize];
            vc.addi(
                ValKind::P,
                loc_of(insn.dst),
                Loc::R(tcc_vm::regs::FP),
                off as i64,
            );
        }
        IOp::LoopBegin | IOp::LoopEnd => {}
    }
}
