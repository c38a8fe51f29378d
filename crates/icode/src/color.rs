//! Chaitin-style graph-coloring register allocation — the paper's
//! baseline comparator for linear scan (§5.2: "In addition to this
//! register allocator, we also provide a Chaitin-style graph-coloring
//! register allocator … it is a good means of evaluating our simpler and
//! faster register allocation algorithm").
//!
//! The implementation builds a precise interference graph from
//! per-instruction liveness (more exact than live intervals — that
//! precision is exactly what costs time, which is the Figure 7 story),
//! then simplifies with Briggs-style optimistic coloring and spills by
//! lowest weight/degree.

use crate::alloc::{AllocLoc, Assignment, Pools};
use crate::flow::FlowGraph;
use crate::intervals::Interval;
use crate::ir::{IcodeBuf, VReg};
use crate::liveness::{bits, BitMatrix, Liveness};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tcc_rt::ValKind;

/// One interference-graph node.
#[derive(Clone, Copy, Debug, Default)]
struct Node {
    /// Neighbours not yet simplified away.
    deg: u32,
    /// Spill weight (the interval's, at least 1).
    weight: u64,
    /// Appears in the buffer at all.
    present: bool,
    /// Live across a call: callee-saved colours only.
    crosses: bool,
    /// Already pushed on the select stack.
    removed: bool,
}

/// The colouring's working storage, kept for the next compile: the
/// interference graph as one `nv × nv` bit matrix, and the worklists.
#[derive(Clone, Debug, Default)]
pub struct ColorScratch {
    adj: BitMatrix,
    /// One row: what is live at the instruction being visited.
    live: BitMatrix,
    nodes: Vec<Node>,
    /// Unsimplified nodes of insignificant degree, lowest number first.
    low: BinaryHeap<Reverse<u32>>,
    stack: Vec<u32>,
}

/// Runs the graph-coloring allocator, writing the assignment into `asn`.
pub fn graph_color(
    buf: &IcodeBuf,
    fg: &FlowGraph,
    lv: &Liveness,
    intervals: &[Interval],
    pools: &Pools,
    scratch: &mut ColorScratch,
    asn: &mut Assignment,
) {
    let ColorScratch {
        adj,
        live,
        nodes,
        low,
        stack,
    } = scratch;
    let nv = buf.num_vregs();
    let is_float = |v: usize| buf.vreg_kinds[v] == ValKind::F;
    adj.reset(nv, nv);
    live.reset(1, nv);
    nodes.clear();
    nodes.resize(nv, Node::default());

    // Build interference: walk blocks backward from live-out. A definition
    // interferes with what is live across it in its own register bank.
    for (bi, blk) in fg.blocks.iter().enumerate() {
        live.row_mut(0).copy_from_slice(lv.live_out.row(bi));
        for insn in buf.insns[blk.start..blk.end].iter().rev() {
            if let Some(d) = insn.def() {
                let di = d.0 as usize;
                nodes[di].present = true;
                for l in bits(live.row(0)) {
                    if l != di && is_float(l) == is_float(di) && !adj.contains(di, l) {
                        adj.insert(di, l);
                        adj.insert(l, di);
                        nodes[di].deg += 1;
                        nodes[l].deg += 1;
                    }
                }
                live.remove(0, di);
            }
            for u in insn.uses().into_iter().flatten() {
                nodes[u.0 as usize].present = true;
                live.insert(0, u.0 as usize);
            }
        }
    }
    for iv in intervals {
        let n = &mut nodes[iv.vreg.0 as usize];
        n.crosses = iv.crosses_call;
        n.weight = iv.weight.max(1);
    }

    // Colours available to a node.
    let k_of = |v: usize, n: &Node| -> u32 {
        (match (is_float(v), n.crosses) {
            (false, false) => pools.int_total(),
            (false, true) => pools.int_callee.len(),
            (true, false) => pools.float_total(),
            (true, true) => pools.f_callee.len(),
        }) as u32
    };

    // Simplify: remove the lowest-numbered node of insignificant degree;
    // when none is left, pick a spill candidate optimistically. A node's
    // degree only falls, so it enters `low` once — when it is first seen
    // below its k — and the heap's minimum is the node a scan of the
    // remaining nodes in number order would find first.
    low.clear();
    stack.clear();
    let mut remaining = 0;
    for (v, n) in nodes.iter().enumerate() {
        if n.present {
            remaining += 1;
            if n.deg < k_of(v, n) {
                low.push(Reverse(v as u32));
            }
        }
    }
    while remaining > 0 {
        let v = match low.pop() {
            Some(Reverse(v)) => v as usize,
            // Spill heuristic: lowest weight / (degree + 1), first of
            // equals.
            None => (0..nv)
                .filter(|&v| nodes[v].present && !nodes[v].removed)
                .min_by(|&a, &b| {
                    let f = |n: &Node| n.weight as f64 / (n.deg as f64 + 1.0);
                    f(&nodes[a])
                        .partial_cmp(&f(&nodes[b]))
                        .expect("weights are finite")
                })
                .expect("remaining nonempty"),
        };
        nodes[v].removed = true;
        remaining -= 1;
        for n in bits(adj.row(v)) {
            let node = &mut nodes[n];
            if !node.removed {
                let was = node.deg;
                node.deg = was.saturating_sub(1);
                if was == k_of(n, node) {
                    low.push(Reverse(n as u32));
                }
            }
        }
        stack.push(v as u32);
    }

    // Select: pop and color. Candidate order: callee-saved only when the
    // node crosses calls (mandatory), otherwise caller-saved first.
    asn.reset(nv);
    while let Some(v) = stack.pop() {
        let v = v as usize;
        // Register numbers already taken by coloured neighbours (all in
        // this node's bank; spilled neighbours take none).
        let mut taken = 0u64;
        for n in bits(adj.row(v)) {
            match asn.locs[n] {
                Some(AllocLoc::R(r)) => taken |= 1 << r.0,
                Some(AllocLoc::F(f)) => taken |= 1 << f.0,
                _ => {}
            }
        }
        let caller_ok = !nodes[v].crosses;
        let loc = if is_float(v) {
            let callers = pools.f_caller.iter().filter(|_| caller_ok);
            let free = callers
                .chain(&pools.f_callee)
                .find(|f| taken & (1 << f.0) == 0);
            free.map_or_else(|| asn.new_fslot(), |&f| AllocLoc::F(f))
        } else {
            let callers = pools.int_caller.iter().filter(|_| caller_ok);
            let free = callers
                .chain(&pools.int_callee)
                .find(|r| taken & (1 << r.0) == 0);
            free.map_or_else(|| asn.new_slot(), |&r| AllocLoc::R(r))
        };
        asn.set(VReg(v as u32), loc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervals::Intervals;
    use crate::linear_scan::check_no_overlap_conflicts;
    use tcc_vcode::ops::BinOp;
    use tcc_vcode::CodeSink;

    fn allocate(buf: &IcodeBuf, pools: &Pools) -> (Assignment, Vec<Interval>) {
        let (mut fg, mut lv, mut ivs, mut scratch, mut asn) = Default::default();
        FlowGraph::build(&mut fg, buf);
        Liveness::solve(&mut lv, buf, &fg);
        Intervals::build(&mut ivs, buf, &fg, &lv);
        graph_color(buf, &fg, &lv, &ivs.list, pools, &mut scratch, &mut asn);
        (asn, ivs.list)
    }

    #[test]
    fn simple_program_colors_without_spills() {
        let mut b = IcodeBuf::new();
        let x = b.param(0, ValKind::W);
        let y = b.temp(ValKind::W);
        b.li(y, 3);
        b.bin(BinOp::Mul, ValKind::W, y, y, x);
        b.ret_val(ValKind::W, y);
        let (asn, ivs) = allocate(&b, &Pools::full());
        assert_eq!(asn.spilled, 0);
        assert!(check_no_overlap_conflicts(&ivs, &asn).is_none());
    }

    #[test]
    fn high_pressure_spills_low_weight_nodes() {
        let mut b = IcodeBuf::new();
        // 25 simultaneously live values with only 8 registers.
        let vals: Vec<_> = (0..25).map(|_| b.temp(ValKind::W)).collect();
        for (i, &v) in vals.iter().enumerate() {
            b.li(v, i as i64);
        }
        let acc = b.temp(ValKind::W);
        b.li(acc, 0);
        for &v in &vals {
            b.bin(BinOp::Add, ValKind::W, acc, acc, v);
        }
        b.ret_val(ValKind::W, acc);
        let (asn, _ivs) = allocate(&b, &Pools::with_int_limit(8));
        assert!(asn.spilled > 0, "must spill under pressure");
        assert!(asn.spilled <= 20, "should keep several in registers");
    }

    #[test]
    fn interference_edges_respected() {
        let mut b = IcodeBuf::new();
        let x = b.temp(ValKind::W);
        let y = b.temp(ValKind::W);
        let z = b.temp(ValKind::W);
        b.li(x, 1);
        b.li(y, 2);
        b.li(z, 3);
        b.bin(BinOp::Add, ValKind::W, x, x, y);
        b.bin(BinOp::Add, ValKind::W, x, x, z);
        b.ret_val(ValKind::W, x);
        let (asn, ivs) = allocate(&b, &Pools::full());
        assert!(check_no_overlap_conflicts(&ivs, &asn).is_none());
        // x, y, z all overlap pairwise: three distinct registers.
        let locs = [asn.loc(x), asn.loc(y), asn.loc(z)];
        assert_ne!(locs[0], locs[1]);
        assert_ne!(locs[0], locs[2]);
        assert_ne!(locs[1], locs[2]);
    }

    #[test]
    fn call_crossing_nodes_take_callee_saved() {
        let mut b = IcodeBuf::new();
        let x = b.temp(ValKind::W);
        b.li(x, 7);
        b.call_addr(0x8000_0000, &[], None);
        b.ret_val(ValKind::W, x);
        let (asn, _) = allocate(&b, &Pools::full());
        match asn.loc(x) {
            AllocLoc::R(r) => assert!(tcc_vm::regs::SAVED_REGS.contains(&r)),
            AllocLoc::Slot(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
