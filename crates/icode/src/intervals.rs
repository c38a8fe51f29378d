//! Live intervals (paper §5.2, "Finding live intervals").
//!
//! "An interval `[i, j]` … is simply all the instructions between the
//! i-th and j-th instructions in the instruction stream, inclusive. Then
//! a live interval of a variable is the interval `[m, n]` where m is the
//! first instruction at which v is ever live and n is the last … This
//! interval information is only an approximation of the real live range
//! information (in which ranges may be split): there may be large
//! portions of `[m, n]` in which v is not live, but we simply ignore
//! them."
//!
//! Intervals also record two pieces of information the allocators need on
//! this machine: whether the interval crosses a call (such intervals must
//! live in callee-saved registers) and a spill weight accumulated from
//! the ICODE usage-frequency hints (`LoopBegin`/`LoopEnd`).

use crate::flow::FlowGraph;
use crate::ir::{IOp, IcodeBuf, VReg};
use crate::liveness::{bits, Liveness};
use tcc_rt::ValKind;

/// A live interval for one virtual register.
#[derive(Clone, Debug, PartialEq)]
pub struct Interval {
    /// The virtual register.
    pub vreg: VReg,
    /// Kind (selects the register class).
    pub kind: ValKind,
    /// First instruction index at which the register is live.
    pub start: usize,
    /// Last instruction index at which the register is live (inclusive).
    pub end: usize,
    /// True if a call instruction lies strictly inside the interval; the
    /// register must then survive the call.
    pub crosses_call: bool,
    /// Estimated dynamic use count (scaled by loop-nesting hints).
    pub weight: u64,
}

/// The sorted-by-endpoint interval list and the arrays it is built from,
/// kept for the next compile.
#[derive(Clone, Debug, Default)]
pub struct Intervals {
    /// The intervals, by increasing end point.
    pub list: Vec<Interval>,
    /// Per vreg: (start, end, weight); `start` is `usize::MAX` until the
    /// register is first touched.
    extent: Vec<(usize, usize, u64)>,
    /// `calls_before[p]` = call instructions at positions below `p`.
    calls_before: Vec<u32>,
}

impl Intervals {
    /// Builds the sorted-by-endpoint interval list, reusing this value's
    /// storage.
    pub fn build(&mut self, buf: &IcodeBuf, fg: &FlowGraph, lv: &Liveness) {
        let Intervals {
            list,
            extent,
            calls_before,
        } = self;
        extent.clear();
        extent.resize(buf.num_vregs(), (usize::MAX, 0, 0));
        calls_before.clear();
        let mut touch = |v: VReg, pos: usize, w: u64| {
            let (start, end, weight) = &mut extent[v.0 as usize];
            *start = (*start).min(pos);
            *end = (*end).max(pos);
            *weight = weight.saturating_add(w);
        };

        let (mut depth, mut calls) = (0u32, 0u32);
        for (pos, insn) in buf.insns.iter().enumerate() {
            calls_before.push(calls);
            match insn.op {
                IOp::LoopBegin => depth += 1,
                IOp::LoopEnd => depth = depth.saturating_sub(1),
                IOp::CallAddr | IOp::CallInd | IOp::Hcall => calls += 1,
                _ => {}
            }
            let w = 8u64.saturating_pow(depth.min(6));
            if let Some(d) = insn.def() {
                touch(d, pos, w);
            }
            for u in insn.uses().into_iter().flatten() {
                touch(u, pos, w);
            }
        }
        // Extend through block boundaries where the register is live (this is
        // what makes the approximation safe around loops: a register live-out
        // of a block covers that whole block span).
        for (bi, blk) in fg.blocks.iter().enumerate() {
            if blk.start == blk.end {
                continue;
            }
            for v in bits(lv.live_in.row(bi)) {
                let (start, end, _) = &mut extent[v];
                if *start != usize::MAX {
                    *start = (*start).min(blk.start);
                    *end = (*end).max(blk.start);
                }
            }
            for v in bits(lv.live_out.row(bi)) {
                let (start, end, _) = &mut extent[v];
                if *start != usize::MAX {
                    *end = (*end).max(blk.end - 1);
                }
            }
        }

        list.clear();
        for (v, &(start, end, weight)) in extent.iter().enumerate() {
            if start == usize::MAX {
                continue;
            }
            list.push(Interval {
                vreg: VReg(v as u32),
                kind: buf.vreg_kinds[v],
                start,
                end,
                // A call strictly inside: positions start+1 ..= end-1.
                crosses_call: end > start && calls_before[end] > calls_before[start + 1],
                weight,
            });
        }
        // "given live variable information, creating a list of live intervals
        // sorted by start or end point is accomplished in one pass over the
        // code" — here sorted by increasing end point for the reverse scan.
        // The vreg breaks ties the way a stable sort of this (vreg-ordered)
        // list would, without the stable sort's merge buffer.
        list.sort_unstable_by_key(|iv| (iv.end, iv.start, iv.vreg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_vcode::ops::BinOp;
    use tcc_vcode::CodeSink;

    fn intervals_of(buf: &IcodeBuf) -> Vec<Interval> {
        let (mut fg, mut lv, mut ivs) = Default::default();
        FlowGraph::build(&mut fg, buf);
        Liveness::solve(&mut lv, buf, &fg);
        Intervals::build(&mut ivs, buf, &fg, &lv);
        ivs.list
    }

    #[test]
    fn straight_line_intervals() {
        let mut b = IcodeBuf::new();
        let x = b.temp(ValKind::W); // insn 0: li x
        let y = b.temp(ValKind::W); // insn 1: li y
        b.li(x, 1);
        b.li(y, 2);
        b.bin(BinOp::Add, ValKind::W, y, y, x); // insn 2
        b.ret_val(ValKind::W, y); // insn 3
        let ivs = intervals_of(&b);
        let ix = ivs.iter().find(|i| i.vreg == x).unwrap();
        let iy = ivs.iter().find(|i| i.vreg == y).unwrap();
        assert_eq!((ix.start, ix.end), (0, 2));
        assert_eq!((iy.start, iy.end), (1, 3));
        assert!(!ix.crosses_call);
    }

    #[test]
    fn loop_extends_interval_over_back_edge() {
        let mut b = IcodeBuf::new();
        let s = b.temp(ValKind::W);
        let x = b.temp(ValKind::W);
        b.li(s, 0); // 0
        b.li(x, 5); // 1
        let top = b.label();
        b.bind(top); // 2
        b.bin(BinOp::Add, ValKind::W, s, s, x); // 3
        b.bin_imm(BinOp::Sub, ValKind::W, x, x, 1); // 4
        b.br_true(x, top); // 5
        b.ret_val(ValKind::W, s); // 6
        let ivs = intervals_of(&b);
        let is_ = ivs.iter().find(|i| i.vreg == s).unwrap();
        // s must be live across the whole loop body.
        assert_eq!(is_.start, 0); // defined at 0
        assert!(is_.end >= 6);
    }

    #[test]
    fn call_inside_interval_marks_crossing() {
        let mut b = IcodeBuf::new();
        let x = b.temp(ValKind::W);
        let r = b.temp(ValKind::W);
        b.li(x, 7); // 0
        b.call_addr(0x8000_0000, &[], Some((ValKind::W, r))); // 1
        b.bin(BinOp::Add, ValKind::W, r, r, x); // 2
        b.ret_val(ValKind::W, r); // 3
        let ivs = intervals_of(&b);
        let ix = ivs.iter().find(|i| i.vreg == x).unwrap();
        let ir = ivs.iter().find(|i| i.vreg == r).unwrap();
        assert!(ix.crosses_call, "x lives across the call");
        assert!(!ir.crosses_call, "r is defined by the call");
    }

    #[test]
    fn loop_hints_scale_weights() {
        let mut b = IcodeBuf::new();
        let cold = b.temp(ValKind::W);
        let hot = b.temp(ValKind::W);
        b.li(cold, 1);
        b.loop_begin();
        b.li(hot, 2);
        b.bin(BinOp::Add, ValKind::W, hot, hot, hot);
        b.loop_end();
        b.bin(BinOp::Add, ValKind::W, cold, cold, hot);
        b.ret_val(ValKind::W, cold);
        let ivs = intervals_of(&b);
        let wc = ivs.iter().find(|i| i.vreg == cold).unwrap().weight;
        let wh = ivs.iter().find(|i| i.vreg == hot).unwrap().weight;
        assert!(
            wh > wc,
            "loop-resident register should weigh more: {wh} vs {wc}"
        );
    }

    #[test]
    fn sorted_by_end_point() {
        let mut b = IcodeBuf::new();
        let xs: Vec<_> = (0..5).map(|_| b.temp(ValKind::W)).collect();
        for &x in &xs {
            b.li(x, 1);
        }
        let acc = b.temp(ValKind::W);
        b.li(acc, 0);
        for &x in &xs {
            b.bin(BinOp::Add, ValKind::W, acc, acc, x);
        }
        b.ret_val(ValKind::W, acc);
        let ivs = intervals_of(&b);
        for w in ivs.windows(2) {
            assert!(w[0].end <= w[1].end);
        }
    }
}
