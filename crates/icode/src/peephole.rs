//! IR-level cleanup passes run before register allocation.
//!
//! The paper's ICODE run-time "performs some peephole optimizations"
//! besides register allocation (§5.2). Three cheap, linear passes live
//! here: dead-code elimination of unused side-effect-free definitions
//! (composition of cspecs regularly produces values nobody consumes),
//! jump threading with fall-through removal, and a fusion-aware
//! scheduler that sinks pure definitions next to their consumers so the
//! VM's superinstruction pairer sees more fusable adjacencies.

use crate::ir::{IInsn, IOp, IcodeBuf};
use tcc_vcode::ops::BinOp;

/// "No instruction" / "no use slot" / "not resolved" in the index tables.
const NONE: u32 = u32::MAX;
/// [`Peephole::resolved`] marker: the label is on the chain being walked.
const ON_PATH: u32 = u32::MAX - 1;

/// The cleanup passes and the tables they index: a compiler that keeps
/// one re-zeroes buffers instead of allocating them.
#[derive(Clone, Debug, Default)]
pub struct Peephole {
    /// `dead_code`, per vreg: operand slots naming it, over the surviving
    /// instructions; and its latest removable definition, chained through
    /// `next_def` (per instruction) to the earlier ones.
    use_count: Vec<u32>,
    first_def: Vec<u32>,
    next_def: Vec<u32>,
    /// Vregs whose use count fell to zero, definitions not yet removed.
    unused: Vec<u32>,
    /// Per instruction: delete it (dead code; fall-through jumps).
    drop: Vec<bool>,
    /// `thread_jumps`, per label: first binding position (`usize::MAX`
    /// if unbound), and the label its empty-jump chain finally reaches.
    pos: Vec<usize>,
    resolved: Vec<u32>,
    path: Vec<u32>,
    sched: Scheduler,
}

/// Instructions `dead_code` may delete when their result is unused.
fn removable(op: IOp) -> bool {
    matches!(
        op,
        IOp::Li | IOp::Lif | IOp::Bin(_) | IOp::BinImm(_) | IOp::Un(_) | IOp::Load(_)
    )
}

/// Deletes the instructions flagged in `drop`.
fn retain_undropped(insns: &mut Vec<IInsn>, drop: &[bool]) {
    let mut flags = drop.iter();
    insns.retain(|_| !flags.next().expect("one flag per instruction"));
}

impl Peephole {
    /// Removes side-effect-free instructions whose results are never
    /// used, transitively; returns how many. One counting pass, then a
    /// worklist: a vreg whose last use disappears takes its removable
    /// definitions with it, and their operands' counts fall in turn. A
    /// use is a use wherever it sits (`x = x + 1` keeps `x` alive by
    /// itself): the rule is flow-insensitive.
    pub fn dead_code(&mut self, buf: &mut IcodeBuf) -> usize {
        let Peephole {
            use_count,
            first_def,
            next_def,
            unused,
            drop,
            ..
        } = self;
        let nv = buf.num_vregs();
        use_count.clear();
        use_count.resize(nv, 0);
        first_def.clear();
        first_def.resize(nv, NONE);
        next_def.clear();
        for (i, insn) in buf.insns.iter().enumerate() {
            for u in insn.uses().into_iter().flatten() {
                use_count[u.0 as usize] += 1;
            }
            let chained = insn
                .def()
                .filter(|_| removable(insn.op))
                .map(|d| std::mem::replace(&mut first_def[d.0 as usize], i as u32));
            next_def.push(chained.unwrap_or(NONE));
        }
        unused.clear();
        unused.extend(
            (0..nv as u32).filter(|&v| use_count[v as usize] == 0 && first_def[v as usize] != NONE),
        );
        if unused.is_empty() {
            return 0;
        }
        drop.clear();
        drop.resize(buf.insns.len(), false);
        let mut removed = 0;
        while let Some(v) = unused.pop() {
            let mut i = first_def[v as usize];
            while i != NONE {
                drop[i as usize] = true;
                removed += 1;
                for u in buf.insns[i as usize].uses().into_iter().flatten() {
                    let count = &mut use_count[u.0 as usize];
                    *count -= 1;
                    if *count == 0 && first_def[u.0 as usize] != NONE {
                        unused.push(u.0);
                    }
                }
                i = next_def[i as usize];
            }
        }
        retain_undropped(&mut buf.insns, drop);
        removed
    }

    /// Jump threading. Two linear phases, returning the total number of
    /// instructions modified (retargeted + removed):
    ///
    /// 1. **Chain threading.** Every control transfer (`jmp`, `br_cmp`,
    ///    `br_true`, `br_false`) whose target label is bound immediately
    ///    before an unconditional `jmp` is retargeted to where the chain
    ///    ultimately lands — `jmp L1; ...; L1: jmp L2; ...; L2: jmp L3`
    ///    threads straight to `L3`, so the intermediate hops never
    ///    execute. Chain resolution memoizes per label and marks the
    ///    labels on the chain being walked, so a chain that loops back on
    ///    itself (an empty infinite loop) resolves to a member of its own
    ///    cycle instead of spinning the compiler.
    /// 2. **Fall-through removal.** `jmp L` where `L` is bound immediately
    ///    after (modulo labels and the no-op loop markers) is deleted.
    pub fn thread_jumps(&mut self, buf: &mut IcodeBuf) -> usize {
        let Peephole {
            pos,
            resolved,
            path,
            drop,
            ..
        } = self;
        let nlabels = buf.nlabels as usize;
        if nlabels == 0 {
            return 0; // every jump names a label
        }
        pos.clear();
        pos.resize(nlabels, usize::MAX);
        for (i, insn) in buf.insns.iter().enumerate() {
            if insn.op == IOp::Label {
                let l = insn.imm as usize;
                if pos[l] == usize::MAX {
                    pos[l] = i;
                }
            }
        }
        resolved.clear();
        resolved.resize(nlabels, NONE);
        for l0 in 0..nlabels as u32 {
            path.clear();
            let mut cur = l0;
            let fin = loop {
                match resolved[cur as usize] {
                    NONE => {}
                    // The chain re-entered itself: every hop is an empty
                    // jump, so any cycle member is an equivalent target.
                    ON_PATH => break cur,
                    f => break f,
                }
                resolved[cur as usize] = ON_PATH;
                path.push(cur);
                match pos[cur as usize] {
                    usize::MAX => break cur,
                    p => match jump_after_label(&buf.insns, p) {
                        Some(next) => cur = next as u32,
                        None => break cur,
                    },
                }
            };
            for &p in path.iter() {
                resolved[p as usize] = fin;
            }
        }
        let mut changed = 0;
        for insn in &mut buf.insns {
            if !matches!(
                insn.op,
                IOp::Jmp | IOp::BrCmp(_) | IOp::BrTrue | IOp::BrFalse
            ) {
                continue;
            }
            let f = i64::from(resolved[insn.imm as usize]);
            if f != insn.imm {
                insn.imm = f;
                changed += 1;
            }
        }
        // Fall-through removal over the retargeted buffer.
        let insns = &buf.insns;
        drop.clear();
        drop.resize(insns.len(), false);
        let mut removed = 0;
        for (i, insn) in insns.iter().enumerate() {
            if insn.op != IOp::Jmp {
                continue;
            }
            let mut skipped = insns[i + 1..].iter().take_while(|n| emits_nothing(n.op));
            if skipped.any(|n| n.op == IOp::Label && n.imm == insn.imm) {
                drop[i] = true;
                removed += 1;
            }
        }
        if removed > 0 {
            retain_undropped(&mut buf.insns, drop);
        }
        changed + removed
    }

    /// Fusion-aware scheduling (ROADMAP item: dependence-DAG list
    /// scheduler).
    ///
    /// The VM's superinstruction pairer fuses *adjacent* instructions where
    /// the first feeds the second (compare→branch, load→op, …), and the
    /// threaded engine compiles run+branch groups under the same feed gate.
    /// ICODE emission order frequently separates a condition's definition
    /// from its branch, or a load from its consumer, with unrelated code —
    /// the pairer then sees nothing to fuse. This pass rebuilds each basic
    /// block's order from its dependence DAG (`Scheduler::block`): pure
    /// definitions sink next to their consumers (even across independent
    /// loads, stores, and faulting divides, which the old single-def
    /// sinking window could never cross), while every pair of
    /// memory-touching or faulting instructions keeps its relative order
    /// and call/host-call clusters are never entered.
    ///
    /// Observable contract: on completed runs the results, modeled
    /// `cycles`, and `insns` are exactly those of the unscheduled program
    /// (the block retires the same multiset of instructions); traps and
    /// side effects happen in the same order with the same values. Blocks
    /// are delimited by labels, loop markers, and terminators, so no
    /// instruction ever crosses a control-flow join.
    ///
    /// Returns the number of instructions whose position changed.
    pub fn schedule_for_fusion(&mut self, buf: &mut IcodeBuf) -> usize {
        let sched = &mut self.sched;
        let nv = buf.num_vregs();
        sched.last_def.clear();
        sched.last_def.resize(nv, NONE);
        sched.use_head.clear();
        sched.use_head.resize(nv, NONE);
        let mut moves = 0;
        let n = buf.insns.len();
        let mut i = 0;
        while i < n {
            if emits_nothing(buf.insns[i].op) {
                i += 1;
                continue;
            }
            let start = i;
            while i < n && !emits_nothing(buf.insns[i].op) {
                let terminates = buf.insns[i].is_terminator();
                i += 1;
                if terminates {
                    break;
                }
            }
            moves += sched.block(&mut buf.insns[start..i]);
        }
        moves
    }
}

/// True for IR entries that emit no machine code: scanning "what runs
/// next after this label" may skip them, and they delimit the
/// scheduler's blocks.
fn emits_nothing(op: IOp) -> bool {
    matches!(op, IOp::Label | IOp::LoopBegin | IOp::LoopEnd)
}

/// If the first machine instruction after label position `p` is an
/// unconditional `jmp`, returns its target label.
fn jump_after_label(insns: &[IInsn], p: usize) -> Option<usize> {
    match insns[p + 1..].iter().find(|i| !emits_nothing(i.op)) {
        Some(i) if i.op == IOp::Jmp => Some(i.imm as usize),
        _ => None,
    }
}

/// True for pure, non-faulting, register-only instructions the
/// fusion scheduler may place anywhere the virtual-register dependences
/// allow — including across loads, stores, and the faulting
/// divide/remainder forms. Everything else is order-pinned (see
/// [`NodeClass`]).
fn movable(insn: &IInsn) -> bool {
    match insn.op {
        IOp::Li | IOp::Lif | IOp::Un(_) | IOp::GetParam(_) | IOp::FrameAddr => true,
        IOp::Bin(op) | IOp::BinImm(op) => {
            !matches!(op, BinOp::Div | BinOp::DivU | BinOp::Rem | BinOp::RemU)
        }
        _ => false,
    }
}

/// How the dependence-DAG scheduler may treat a block node.
#[derive(Clone, Copy, PartialEq, Eq)]
enum NodeClass {
    /// Pure, non-faulting, register-only: ordered by vreg dependences
    /// alone.
    Pure,
    /// Memory-touching or faulting (loads, stores, the trapping
    /// divide/remainder forms) plus terminators: serialized among
    /// themselves by conservative chain edges, so the relative order of
    /// every observable side effect and trap is preserved — but pure
    /// code may cross them.
    Pinned,
    /// Calls, host calls, and their argument setup: a full barrier.
    /// Nothing crosses in either direction (the argument/call cluster
    /// stays intact and a host call may observe or mutate anything).
    Barrier,
}

fn class_of(insn: &IInsn) -> NodeClass {
    if movable(insn) {
        NodeClass::Pure
    } else if matches!(
        insn.op,
        IOp::Arg(_) | IOp::CallAddr | IOp::CallInd | IOp::Hcall
    ) {
        NodeClass::Barrier
    } else {
        NodeClass::Pinned
    }
}

/// The block scheduler's tables. The per-vreg ones are sized once per
/// buffer and hold `NONE` between blocks (a block resets the entries it
/// touched); the rest are per block.
#[derive(Clone, Debug, Default)]
struct Scheduler {
    /// Per vreg: the latest instruction of this block defining it, and
    /// the list of use slots (`2 * insn + operand`) that read it since,
    /// linked through `use_next`.
    last_def: Vec<u32>,
    use_head: Vec<u32>,
    use_next: Vec<u32>,
    /// Per instruction: the definition reaching each operand.
    producer: Vec<[u32; 2]>,
    /// Edges by target: `j`'s predecessors are
    /// `preds[pred_start[j]..pred_start[j + 1]]`.
    pred_start: Vec<u32>,
    preds: Vec<u32>,
    /// Per instruction: successors not yet placed.
    unplaced_succs: Vec<u32>,
    placed: Vec<bool>,
    order_rev: Vec<u32>,
    orig: Vec<IInsn>,
}

impl Scheduler {
    /// List-schedules one basic block (`insns` holds no labels; the last
    /// entry may be the block terminator) over its dependence DAG. Returns
    /// the number of instructions whose position changed.
    ///
    /// The dependences are: true/anti/output on vregs; every pair of
    /// non-pure nodes (memory and trap order are never permuted); a
    /// barrier with everything on both sides; everything with the
    /// terminator. Whether a node is *ready* — all its successors placed
    /// — depends only on the transitive closure of that relation (a
    /// successor is placed only after its own successors), so the edges
    /// recorded are a linear-size subset with the same closure:
    ///
    /// * true: from the latest definition of each operand (earlier ones
    ///   reach it through the output chain);
    /// * output: from the previous definition of the same vreg;
    /// * anti: from each read of the vreg since that definition (earlier
    ///   reads have their own anti edge to it);
    /// * from the previous non-pure node to a non-pure node;
    /// * from the latest barrier to each later node;
    /// * into a barrier or the terminator: from every node since, and
    ///   including, the latest barrier (earlier nodes reach that one).
    ///
    /// An operand slot is linked once and unlinked once, and a node lies
    /// in the incoming range of one barrier or terminator: at most 7n
    /// edges for n instructions.
    ///
    /// Selection runs *backward* (pick a node only when everything that
    /// depends on it is already placed), preferring the producer of the
    /// just-placed node's operands — loads first, then the textually
    /// closest definition. That greedy rule is what sinks a condition's
    /// definition onto its branch and a load onto its first consumer.
    /// With no producer available the highest-index ready node is taken,
    /// which reproduces the original order (a block with no fusion
    /// opportunity is left untouched). Edges run forward, so the
    /// highest-index *unplaced* node is always ready, and that pick is a
    /// cursor, not a search.
    fn block(&mut self, insns: &mut [IInsn]) -> usize {
        let n = insns.len();
        if n < 3 {
            return 0;
        }
        let Scheduler {
            last_def,
            use_head,
            use_next,
            producer,
            pred_start,
            preds,
            unplaced_succs,
            placed,
            order_rev,
            orig,
        } = self;
        use_next.clear();
        producer.clear();
        pred_start.clear();
        preds.clear();
        unplaced_succs.clear();
        unplaced_succs.resize(n, 0);
        let is_term = insns[n - 1].is_terminator();
        // First node of the incoming range of the next barrier: the
        // latest barrier, or the block's first node.
        let mut since_barrier = 0;
        let mut last_barrier = NONE;
        let mut last_nonpure = NONE;
        for (j, insn) in insns.iter().enumerate() {
            pred_start.push(preds.len() as u32);
            let mut edge = |i: u32| {
                if i != NONE {
                    preds.push(i);
                    unplaced_succs[i as usize] += 1;
                }
            };
            let uses = insn.uses();
            let reaching = uses.map(|u| u.map_or(NONE, |u| last_def[u.0 as usize]));
            reaching.into_iter().for_each(&mut edge);
            producer.push(reaching);
            if let Some(d) = insn.def() {
                let d = d.0 as usize;
                edge(last_def[d]);
                let mut slot = std::mem::replace(&mut use_head[d], NONE);
                while slot != NONE {
                    edge(slot / 2);
                    slot = use_next[slot as usize];
                }
                last_def[d] = j as u32;
            }
            for (k, u) in uses.into_iter().enumerate() {
                use_next.push(u.map_or(NONE, |u| {
                    std::mem::replace(&mut use_head[u.0 as usize], (2 * j + k) as u32)
                }));
            }
            let class = class_of(insn);
            if class == NodeClass::Barrier || (is_term && j == n - 1) {
                (since_barrier..j as u32).for_each(&mut edge);
            } else {
                edge(last_barrier);
                if class != NodeClass::Pure {
                    edge(last_nonpure);
                }
            }
            if class == NodeClass::Barrier {
                (since_barrier, last_barrier) = (j as u32, j as u32);
            }
            if class != NodeClass::Pure {
                last_nonpure = j as u32;
            }
        }
        pred_start.push(preds.len() as u32);
        for v in insns.iter().flat_map(|i| [i.dst, i.a, i.b]) {
            if v.is_some() {
                last_def[v.0 as usize] = NONE;
                use_head[v.0 as usize] = NONE;
            }
        }

        placed.clear();
        placed.resize(n, false);
        order_rev.clear();
        let mut unplaced_below = n; // every node at or above is placed
        let mut last: Option<usize> = None;
        for _ in 0..n {
            // Prefer a ready producer of the just-placed node: the
            // definition reaching `last`'s operands. It has a true edge
            // to `last`, so it is still unplaced, and output/anti edges
            // make it the only definition that can legally sit adjacent.
            let load = |k: u32| matches!(insns[k as usize].op, IOp::Load(_));
            let pick = last
                .into_iter()
                .flat_map(|l| producer[l])
                .filter(|&d| d != NONE && unplaced_succs[d as usize] == 0)
                .max_by_key(|&d| (load(d), d));
            let c = pick.map_or_else(
                || {
                    while placed[unplaced_below - 1] {
                        unplaced_below -= 1;
                    }
                    unplaced_below - 1
                },
                |d| d as usize,
            );
            debug_assert_eq!(unplaced_succs[c], 0, "picked a node that is not ready");
            placed[c] = true;
            order_rev.push(c as u32);
            for &p in &preds[pred_start[c] as usize..pred_start[c + 1] as usize] {
                unplaced_succs[p as usize] -= 1;
            }
            last = Some(c);
        }
        if order_rev.iter().rev().map(|&i| i as usize).eq(0..n) {
            return 0;
        }
        orig.clear();
        orig.extend_from_slice(insns);
        for (slot, &idx) in insns.iter_mut().zip(order_rev.iter().rev()) {
            *slot = orig[idx as usize];
        }
        // Moves compare by value, so identical instructions swapping places
        // do not count as observable motion.
        insns
            .iter()
            .zip(orig.iter())
            .filter(|(a, b)| a != b)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tcc_rt::ValKind;
    use tcc_vcode::CodeSink;

    fn dead_code(buf: &mut IcodeBuf) -> usize {
        Peephole::default().dead_code(buf)
    }

    fn thread_jumps(buf: &mut IcodeBuf) -> usize {
        Peephole::default().thread_jumps(buf)
    }

    fn schedule_for_fusion(buf: &mut IcodeBuf) -> usize {
        Peephole::default().schedule_for_fusion(buf)
    }

    #[test]
    fn dce_removes_unused_chains() {
        let mut b = IcodeBuf::new();
        let x = b.temp(ValKind::W);
        let dead1 = b.temp(ValKind::W);
        let dead2 = b.temp(ValKind::W);
        b.li(x, 1);
        b.li(dead1, 2);
        b.bin(BinOp::Add, ValKind::W, dead2, dead1, dead1); // uses dead1
        b.ret_val(ValKind::W, x);
        let removed = dead_code(&mut b);
        assert_eq!(removed, 2, "dead2 then dead1");
        assert_eq!(b.insns.len(), 2);
    }

    #[test]
    fn dce_keeps_stores_and_calls() {
        let mut b = IcodeBuf::new();
        let x = b.temp(ValKind::W);
        let p = b.temp(ValKind::P);
        b.li(x, 1);
        b.li(p, 0x2000);
        b.store(tcc_vcode::ops::StoreKind::I32, x, p, 0);
        b.call_addr(0x8000_0000, &[], None);
        b.ret_void();
        assert_eq!(dead_code(&mut b), 0);
    }

    #[test]
    fn jump_to_next_label_removed() {
        let mut b = IcodeBuf::new();
        let l = b.label();
        let x = b.temp(ValKind::W);
        b.li(x, 1);
        b.jmp(l);
        b.bind(l);
        b.ret_val(ValKind::W, x);
        assert_eq!(thread_jumps(&mut b), 1);
        assert!(!b.insns.iter().any(|i| i.op == IOp::Jmp));
    }

    #[test]
    fn jump_over_code_kept() {
        let mut b = IcodeBuf::new();
        let l = b.label();
        let x = b.temp(ValKind::W);
        b.li(x, 1);
        b.jmp(l);
        b.li(x, 2);
        b.bind(l);
        b.ret_val(ValKind::W, x);
        assert_eq!(thread_jumps(&mut b), 0);
    }

    #[test]
    fn jump_chain_threads_to_final_target() {
        // jmp l1 (over code); l1: jmp l2 (over code); l2: ret — the
        // first jump must retarget straight to l2.
        let mut b = IcodeBuf::new();
        let l1 = b.label();
        let l2 = b.label();
        let x = b.temp(ValKind::W);
        b.jmp(l1);
        b.li(x, 1);
        b.bind(l1);
        b.jmp(l2);
        b.li(x, 2);
        b.bind(l2);
        b.ret_val(ValKind::W, x);
        assert_eq!(thread_jumps(&mut b), 1, "one retarget");
        let first_jmp = b.insns.iter().find(|i| i.op == IOp::Jmp).expect("jmp");
        assert_eq!(first_jmp.imm, l2.0 as i64, "threaded past l1");
    }

    #[test]
    fn threaded_jump_collapsing_to_fall_through_is_removed() {
        // jmp l1 skips code; l1: jmp l2; l2: ret. After threading, the
        // hop at l1 targets the immediately following l2 and dies.
        let mut b = IcodeBuf::new();
        let l1 = b.label();
        let l2 = b.label();
        let x = b.temp(ValKind::W);
        b.li(x, 1);
        b.jmp(l1);
        b.li(x, 2);
        b.bind(l1);
        b.jmp(l2);
        b.bind(l2);
        b.ret_val(ValKind::W, x);
        assert_eq!(thread_jumps(&mut b), 2, "one retarget + one removal");
        let jmps: Vec<_> = b.insns.iter().filter(|i| i.op == IOp::Jmp).collect();
        assert_eq!(jmps.len(), 1);
        assert_eq!(jmps[0].imm, l2.0 as i64);
    }

    #[test]
    fn conditional_branches_thread_through_chains() {
        let mut b = IcodeBuf::new();
        let l1 = b.label();
        let l2 = b.label();
        let x = b.temp(ValKind::W);
        b.li(x, 1);
        b.br_true(x, l1);
        b.ret_val(ValKind::W, x);
        b.bind(l1);
        b.jmp(l2);
        b.li(x, 3);
        b.bind(l2);
        b.ret_val(ValKind::W, x);
        assert!(thread_jumps(&mut b) >= 1);
        let br = b.insns.iter().find(|i| i.op == IOp::BrTrue).expect("br");
        assert_eq!(br.imm, l2.0 as i64, "branch threaded past the hop");
    }

    #[test]
    fn cyclic_jump_chain_terminates() {
        // l1: jmp l2; l2: jmp l1 — an empty infinite loop. The pass
        // must terminate and keep the loop a loop (targets stay inside
        // the cycle).
        let mut b = IcodeBuf::new();
        let l1 = b.label();
        let l2 = b.label();
        b.bind(l1);
        b.jmp(l2);
        b.bind(l2);
        b.jmp(l1);
        b.ret_void();
        thread_jumps(&mut b);
        let cycle = [l1.0 as i64, l2.0 as i64];
        let jmps: Vec<_> = b.insns.iter().filter(|i| i.op == IOp::Jmp).collect();
        assert!(!jmps.is_empty(), "the loop must survive");
        for j in &jmps {
            assert!(cycle.contains(&j.imm), "target left the cycle: {j:?}");
        }
    }

    #[test]
    fn schedule_sinks_compare_onto_branch() {
        // cmp; unrelated; unrelated; br_true  →  the compare must end
        // up immediately before the branch.
        let mut b = IcodeBuf::new();
        let l = b.label();
        let x = b.temp(ValKind::W);
        let y = b.temp(ValKind::W);
        let c = b.temp(ValKind::W);
        b.li(x, 1);
        b.bin(BinOp::Lt, ValKind::W, c, x, x);
        b.li(y, 2);
        b.bin(BinOp::Add, ValKind::W, y, y, x);
        b.br_true(c, l);
        b.bind(l);
        b.ret_val(ValKind::W, y);
        assert!(schedule_for_fusion(&mut b) >= 1);
        let br = b
            .insns
            .iter()
            .position(|i| i.op == IOp::BrTrue)
            .expect("br");
        assert_eq!(b.insns[br - 1].op, IOp::Bin(BinOp::Lt), "cmp adjacent");
    }

    #[test]
    fn schedule_sinks_load_onto_first_use() {
        let mut b = IcodeBuf::new();
        let p = b.temp(ValKind::P);
        let v = b.temp(ValKind::W);
        let y = b.temp(ValKind::W);
        let z = b.temp(ValKind::W);
        b.li(p, 0x2000);
        b.load(tcc_vcode::ops::LoadKind::I32, v, p, 0);
        b.li(y, 7);
        b.bin(BinOp::Add, ValKind::W, z, v, y); // first use of v
        b.ret_val(ValKind::W, z);
        assert!(schedule_for_fusion(&mut b) >= 1);
        let use_at = b
            .insns
            .iter()
            .position(|i| i.op == IOp::Bin(BinOp::Add))
            .expect("add");
        assert!(
            matches!(b.insns[use_at - 1].op, IOp::Load(_)),
            "load adjacent to its consumer"
        );
    }

    #[test]
    fn schedule_crosses_independent_pinned_ops_but_keeps_their_order() {
        // The compare is separated from its branch by an independent
        // store. The DAG scheduler may move the pure compare across the
        // store (the old single-def sinking window could not), but the
        // store keeps its position relative to every other pinned
        // instruction and to its operand definitions.
        let mut b = IcodeBuf::new();
        let l = b.label();
        let x = b.temp(ValKind::W);
        let p = b.temp(ValKind::P);
        let c = b.temp(ValKind::W);
        b.li(x, 1);
        b.li(p, 0x2000);
        b.bin(BinOp::Lt, ValKind::W, c, x, x);
        b.store(tcc_vcode::ops::StoreKind::I32, x, p, 0);
        b.br_true(c, l);
        assert!(schedule_for_fusion(&mut b) >= 1);
        let br = b
            .insns
            .iter()
            .position(|i| i.op == IOp::BrTrue)
            .expect("br");
        assert_eq!(b.insns[br - 1].op, IOp::Bin(BinOp::Lt), "cmp adjacent");
        let st = b
            .insns
            .iter()
            .position(|i| matches!(i.op, IOp::Store(_)))
            .expect("store");
        assert!(st < br, "store stays before the branch");
        let defs_before = b.insns[..st].iter().filter(|i| i.op == IOp::Li).count();
        assert_eq!(defs_before, 2, "store's operand defs stay above it");

        let mut b2 = IcodeBuf::new();
        let l2 = b2.label();
        let x2 = b2.temp(ValKind::W);
        let c2 = b2.temp(ValKind::W);
        let d2 = b2.temp(ValKind::W);
        b2.li(x2, 1);
        b2.bin(BinOp::Lt, ValKind::W, c2, x2, x2);
        b2.bin(BinOp::Div, ValKind::W, d2, x2, x2); // may trap
        b2.br_true(c2, l2);
        b2.bind(l2);
        b2.ret_val(ValKind::W, d2);
        assert!(schedule_for_fusion(&mut b2) >= 1);
        let br2 = b2
            .insns
            .iter()
            .position(|i| i.op == IOp::BrTrue)
            .expect("br");
        assert_eq!(
            b2.insns[br2 - 1].op,
            IOp::Bin(BinOp::Lt),
            "cmp crossed the faulting div onto its branch"
        );
        let dv = b2
            .insns
            .iter()
            .position(|i| i.op == IOp::Bin(BinOp::Div))
            .expect("div");
        assert!(dv < br2, "div stays before the branch");
    }

    #[test]
    fn schedule_preserves_relative_order_of_pinned_ops() {
        // load / store / div form a pinned chain: an unrelated compare
        // may sink past all of them, but their mutual order is fixed.
        let mut b = IcodeBuf::new();
        let l = b.label();
        let p = b.temp(ValKind::P);
        let v = b.temp(ValKind::W);
        let x = b.temp(ValKind::W);
        let c = b.temp(ValKind::W);
        let d = b.temp(ValKind::W);
        b.li(p, 0x2000);
        b.li(x, 3);
        b.bin(BinOp::Lt, ValKind::W, c, x, x);
        b.load(tcc_vcode::ops::LoadKind::I32, v, p, 0);
        b.store(tcc_vcode::ops::StoreKind::I32, x, p, 8);
        b.bin(BinOp::Div, ValKind::W, d, v, x);
        b.br_true(c, l);
        b.bind(l);
        b.ret_val(ValKind::W, d);
        schedule_for_fusion(&mut b);
        let pos = |pred: &dyn Fn(&IInsn) -> bool| b.insns.iter().position(pred).expect("pinned op");
        let ld = pos(&|i| matches!(i.op, IOp::Load(_)));
        let st = pos(&|i| matches!(i.op, IOp::Store(_)));
        let dv = pos(&|i| i.op == IOp::Bin(BinOp::Div));
        assert!(ld < st && st < dv, "pinned chain order preserved");
    }

    #[test]
    fn schedule_never_enters_call_clusters() {
        // A call between the compare and its branch is a full barrier:
        // nothing moves across it in either direction.
        let mut b = IcodeBuf::new();
        let l = b.label();
        let x = b.temp(ValKind::W);
        let c = b.temp(ValKind::W);
        b.li(x, 1);
        b.bin(BinOp::Lt, ValKind::W, c, x, x);
        b.call_addr(0x8000_0000, &[], None);
        b.br_true(c, l);
        b.bind(l);
        b.ret_val(ValKind::W, x);
        let before = b.insns.clone();
        assert_eq!(schedule_for_fusion(&mut b), 0, "call is a full barrier");
        assert_eq!(b.insns, before);
    }

    #[test]
    fn schedule_respects_data_dependences() {
        // c's definition cannot sink past an instruction that reads c.
        let mut b = IcodeBuf::new();
        let l = b.label();
        let x = b.temp(ValKind::W);
        let c = b.temp(ValKind::W);
        let y = b.temp(ValKind::W);
        b.li(x, 1);
        b.bin(BinOp::Lt, ValKind::W, c, x, x);
        b.bin(BinOp::Add, ValKind::W, y, c, x); // reads c
        b.br_true(c, l);
        b.bind(l);
        b.ret_val(ValKind::W, y);
        assert_eq!(schedule_for_fusion(&mut b), 0);
    }

    #[test]
    fn schedule_stops_at_block_boundaries() {
        // A label between the compare and its branch blocks the sink:
        // another block may jump in between.
        let mut b = IcodeBuf::new();
        let l = b.label();
        let mid = b.label();
        let x = b.temp(ValKind::W);
        let c = b.temp(ValKind::W);
        b.li(x, 1);
        b.bin(BinOp::Lt, ValKind::W, c, x, x);
        b.bind(mid);
        b.li(x, 2);
        b.br_true(c, l);
        b.bind(l);
        b.ret_val(ValKind::W, x);
        assert_eq!(schedule_for_fusion(&mut b), 0);
    }

    #[test]
    fn self_loop_jump_terminates_and_survives() {
        let mut b = IcodeBuf::new();
        let l = b.label();
        b.bind(l);
        b.jmp(l);
        b.ret_void();
        assert_eq!(thread_jumps(&mut b), 0);
        let jmp = b.insns.iter().find(|i| i.op == IOp::Jmp).expect("jmp");
        assert_eq!(jmp.imm, l.0 as i64);
    }

    /// The dead-code oracle: the fixed-point formulation `dead_code` had
    /// before it became a worklist — rescan, delete every removable
    /// instruction whose result no instruction names, repeat until a scan
    /// deletes nothing.
    fn dead_code_reference(buf: &mut IcodeBuf) -> usize {
        let mut removed_total = 0;
        loop {
            let nv = buf.num_vregs();
            let mut used = vec![false; nv];
            for insn in &buf.insns {
                for u in insn.uses().into_iter().flatten() {
                    used[u.0 as usize] = true;
                }
            }
            let before = buf.insns.len();
            buf.insns.retain(|insn| {
                if !removable(insn.op) {
                    return true;
                }
                match insn.def() {
                    Some(d) => used[d.0 as usize],
                    None => true,
                }
            });
            let removed = before - buf.insns.len();
            removed_total += removed;
            if removed == 0 {
                return removed_total;
            }
        }
    }

    /// The scheduling oracle: the all-pairs formulation `Scheduler::block`
    /// had before its dependence build became linear. It tests every pair
    /// of instructions for an edge, keeps successor and predecessor lists per
    /// node, and searches the whole block for each pick.
    ///
    /// Edges: true/anti/output dependences on vregs; conservative chain
    /// edges between every pair of pinned nodes (memory order and trap
    /// order are never permuted); barrier nodes connect to everything on
    /// both sides; the terminator succeeds every other node.
    ///
    /// Selection runs *backward* (pick a node only when everything that
    /// depends on it is already placed), preferring the producer of the
    /// just-placed node's operands — loads first, then the textually
    /// closest definition. That greedy rule is what sinks a condition's
    /// definition onto its branch and a load onto its first consumer, so
    /// the VM's superinstruction pairer sees fusable adjacencies. With no
    /// producer available the highest-index ready node is taken, which
    /// reproduces the original order exactly (stability: a block with no
    /// fusion opportunity is left untouched).
    fn schedule_block_reference(insns: &mut [IInsn]) -> usize {
        let n = insns.len();
        if n < 3 {
            return 0;
        }
        let is_term = insns[n - 1].is_terminator();
        let classes: Vec<NodeClass> = insns.iter().map(class_of).collect();
        // y (later) depends on x (earlier) through a virtual register:
        // true (y reads x's def), output (same def), or anti (y rewrites
        // one of x's operands).
        let vreg_dep = |x: &IInsn, y: &IInsn| -> bool {
            if let Some(d) = x.def() {
                if y.uses().into_iter().flatten().any(|u| u == d) || y.def() == Some(d) {
                    return true;
                }
            }
            if let Some(yd) = y.def() {
                if x.uses().into_iter().flatten().any(|u| u == yd) {
                    return true;
                }
            }
            false
        };
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in i + 1..n {
                let edge = vreg_dep(&insns[i], &insns[j])
                    || (classes[i] != NodeClass::Pure && classes[j] != NodeClass::Pure)
                    || classes[i] == NodeClass::Barrier
                    || classes[j] == NodeClass::Barrier
                    || (is_term && j == n - 1);
                if edge {
                    succs[i].push(j);
                    preds[j].push(i);
                }
            }
        }
        let mut unplaced_succs: Vec<usize> = succs.iter().map(Vec::len).collect();
        let mut placed = vec![false; n];
        let mut order_rev: Vec<usize> = Vec::with_capacity(n);
        let mut last: Option<usize> = None;
        for _ in 0..n {
            // Prefer a ready producer of the just-placed node: the
            // definition reaching `last`'s operands (the latest earlier
            // def; output/anti edges make that the only def that can
            // legally sit adjacent).
            let mut pick = None;
            if let Some(l) = last {
                let mut best: Option<usize> = None;
                for u in insns[l].uses().into_iter().flatten() {
                    let d = (0..l)
                        .rev()
                        .find(|&d| !placed[d] && insns[d].def() == Some(u));
                    let Some(d) = d else { continue };
                    if unplaced_succs[d] != 0 {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some(b) => {
                            let load = |k: usize| matches!(insns[k].op, IOp::Load(_));
                            (load(d), d) > (load(b), b)
                        }
                    };
                    if better {
                        best = Some(d);
                    }
                }
                pick = best;
            }
            let c = pick.unwrap_or_else(|| {
                (0..n)
                    .rev()
                    .find(|&i| !placed[i] && unplaced_succs[i] == 0)
                    .expect("DAG is acyclic")
            });
            placed[c] = true;
            order_rev.push(c);
            for &p in &preds[c] {
                unplaced_succs[p] -= 1;
            }
            last = Some(c);
        }
        let orig: Vec<IInsn> = insns.to_vec();
        for (k, &idx) in order_rev.iter().rev().enumerate() {
            insns[k] = orig[idx];
        }
        // Moves compare by value, so identical instructions swapping places
        // do not count as observable motion.
        insns.iter().zip(&orig).filter(|(a, b)| a != b).count()
    }

    /// One generated instruction over a small vreg universe, so that
    /// dependences, redefinitions and identical instructions are dense.
    #[derive(Clone, Debug)]
    enum Gen {
        Li(u32, i64),
        Bin(u8, u32, u32, u32),
        Mov(u32, u32),
        Load(u32, u32, i64),
        Store(u32, u32, i64),
        /// Argument cluster + call (direct, indirect through a vreg, or
        /// host), with or without a result.
        Call(u8, Vec<u32>, Option<u32>),
    }

    /// How a generated block ends.
    #[derive(Clone, Debug)]
    enum End {
        FallThrough,
        Branch(u32),
        Ret(u32),
    }

    const VREGS: u32 = 6;

    fn gen_insn() -> impl Strategy<Value = Gen> {
        let v = || 0..VREGS;
        prop_oneof![
            3 => (v(), 0i64..2).prop_map(|(d, i)| Gen::Li(d, i)),
            // Ops 0-2 are pure (add, mul, lt); 3 is a faulting divide.
            5 => (0u8..4, v(), v(), v()).prop_map(|(op, d, a, b)| Gen::Bin(op, d, a, b)),
            1 => (v(), v()).prop_map(|(d, a)| Gen::Mov(d, a)),
            2 => (v(), v(), 0i64..2).prop_map(|(d, a, o)| Gen::Load(d, a, 8 * o)),
            2 => (v(), v(), 0i64..2).prop_map(|(x, a, o)| Gen::Store(x, a, 8 * o)),
            1 => (0u8..3, prop::collection::vec(v(), 0..3), prop_oneof![Just(None), v().prop_map(Some)])
                .prop_map(|(how, args, ret)| Gen::Call(how, args, ret)),
        ]
    }

    fn gen_block() -> impl Strategy<Value = (Vec<Gen>, End)> {
        let end = prop_oneof![
            Just(End::FallThrough),
            (0..VREGS).prop_map(End::Branch),
            (0..VREGS).prop_map(End::Ret),
        ];
        (prop::collection::vec(gen_insn(), 0..24), end)
    }

    /// Records one generated block into `b` (whose first `VREGS` vregs
    /// and label 0 exist).
    fn record(b: &mut IcodeBuf, (body, end): &(Vec<Gen>, End)) {
        use tcc_vcode::ops::{LoadKind, StoreKind, UnOp};
        let v = crate::ir::VReg;
        for g in body {
            match g.clone() {
                Gen::Li(d, i) => b.li(v(d), i),
                Gen::Bin(op, d, x, y) => {
                    let op = [BinOp::Add, BinOp::Mul, BinOp::Lt, BinOp::Div][op as usize];
                    b.bin(op, ValKind::W, v(d), v(x), v(y));
                }
                Gen::Mov(d, a) => b.un(UnOp::Mov, ValKind::W, v(d), v(a)),
                Gen::Load(d, a, off) => b.load(LoadKind::I32, v(d), v(a), off),
                Gen::Store(x, a, off) => b.store(StoreKind::I32, v(x), v(a), off),
                Gen::Call(how, args, ret) => {
                    let args: Vec<_> = args.iter().map(|&a| (ValKind::W, v(a))).collect();
                    let ret = ret.map(|r| (ValKind::W, v(r)));
                    match how {
                        0 => b.call_addr(0x8000_0000, &args, ret),
                        1 => b.call_ind(v(0), &args, ret),
                        _ => b.hcall(1, &args, ret),
                    }
                }
            }
        }
        match end {
            End::FallThrough => {}
            End::Branch(c) => b.br_true(crate::ir::VReg(*c), crate::ir::LblId(0)),
            End::Ret(x) => b.ret_val(ValKind::W, crate::ir::VReg(*x)),
        }
    }

    fn universe() -> IcodeBuf {
        let mut b = IcodeBuf::new();
        for _ in 0..VREGS {
            b.temp(ValKind::W);
        }
        b.label();
        b
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The linear scheduler orders every block exactly as the
        /// all-pairs one does — loads, stores, faulting divides, call
        /// clusters, a terminator, redefinitions and duplicate
        /// instructions included — and so reports the same move count.
        /// Two blocks go through one `Peephole`, so the second meets the
        /// per-vreg tables as the first left them.
        #[test]
        fn linear_scheduler_matches_the_all_pairs_order(
            first in gen_block(),
            second in gen_block(),
        ) {
            let mut buf = universe();
            record(&mut buf, &first);
            let split = buf.insns.len();
            buf.bind(crate::ir::LblId(0));
            record(&mut buf, &second);

            let mut expect = buf.insns.clone();
            let moves = schedule_block_reference(&mut expect[..split])
                + schedule_block_reference(&mut expect[split + 1..]);

            let mut peephole = Peephole::default();
            prop_assert_eq!(peephole.schedule_for_fusion(&mut buf), moves);
            prop_assert_eq!(&buf.insns, &expect);
            // A second pass over the scheduled buffer through the same
            // tables agrees with the oracle too.
            schedule_block_reference(&mut expect[..split]);
            schedule_block_reference(&mut expect[split + 1..]);
            peephole.schedule_for_fusion(&mut buf);
            prop_assert_eq!(&buf.insns, &expect);
        }

        /// The worklist dead-code pass leaves exactly the instructions
        /// the rescan-to-a-fixed-point one leaves, in the same order:
        /// uses before definitions (loops), self-uses, several
        /// definitions of one vreg, and chains that die link by link.
        #[test]
        fn worklist_dead_code_matches_the_fixed_point(
            first in gen_block(),
            second in gen_block(),
        ) {
            let mut buf = universe();
            record(&mut buf, &first);
            buf.bind(crate::ir::LblId(0));
            record(&mut buf, &second);
            let mut expect = buf.clone();
            let removed = dead_code_reference(&mut expect);
            let mut peephole = Peephole::default();
            prop_assert_eq!(peephole.dead_code(&mut buf), removed);
            prop_assert_eq!(&buf.insns, &expect.insns);
            prop_assert_eq!(peephole.dead_code(&mut buf), 0, "one call reaches the fixed point");
        }
    }

    /// Blocks of any size are scheduled: the dependence build is linear,
    /// so there is no size above which a block is skipped (the all-pairs
    /// build gave up above 768). A compare at the top of a
    /// 4,000-instruction straight-line block still sinks onto the branch
    /// at its bottom, and the DAG that decides it has at most 7 edges per
    /// instruction — counted, not timed.
    #[test]
    fn a_four_thousand_instruction_block_is_scheduled_with_linear_edges() {
        const N: usize = 4000;
        let mut b = IcodeBuf::new();
        let l = b.label();
        let x = b.param(0, ValKind::W);
        let p = b.temp(ValKind::P);
        let c = b.temp(ValKind::W);
        b.li(p, 0x2000);
        let mut acc = x;
        // Host calls (barriers) in the first stretch only: nothing may
        // cross one, and the compare that follows them has to reach the
        // branch.
        let mut compared = false;
        while b.insns.len() < N - 1 {
            if !compared && b.insns.len() >= N / 8 {
                b.bin(BinOp::Lt, ValKind::W, c, x, x);
                compared = true;
            }
            let t = b.temp(ValKind::W);
            match b.insns.len() % 7 {
                0 => b.load(tcc_vcode::ops::LoadKind::I32, t, p, 8),
                1 => b.store(tcc_vcode::ops::StoreKind::I32, acc, p, 16),
                2 => b.bin(BinOp::Div, ValKind::W, t, acc, x),
                3 if !compared => {
                    b.hcall(1, &[(ValKind::W, acc)], Some((ValKind::W, t)));
                }
                _ => b.bin(BinOp::Add, ValKind::W, t, acc, x),
            }
            if b.insns.last().and_then(IInsn::def) == Some(t) {
                acc = t;
            }
        }
        b.br_true(c, l);
        let n = b.insns.len();
        assert!(n >= N);

        let mut expect = b.insns.clone();
        let moves = schedule_block_reference(&mut expect);
        let mut peephole = Peephole::default();
        assert_eq!(peephole.schedule_for_fusion(&mut b), moves);
        assert!(moves > 0, "the block is left unscheduled");
        assert_eq!(b.insns, expect, "the all-pairs order, at size");
        assert_eq!(b.insns[n - 1].op, IOp::BrTrue);
        assert_eq!(
            b.insns[n - 2].op,
            IOp::Bin(BinOp::Lt),
            "compare sinks onto the branch"
        );
        let edges = peephole.sched.preds.len();
        assert!(edges <= 7 * n, "{edges} edges for {n} instructions");
    }
}
