//! Live-variable analysis.
//!
//! "In addition to constructing control flow information, ICODE collects
//! a minimal amount of local data flow information (def and use sets for
//! each basic block)" and then runs "a traditional relaxation algorithm
//! for computing exact live variable information" (§5.2). This is that
//! algorithm: per-block def/use sets and an iterative backward dataflow
//! solve to a fixed point.

use crate::flow::FlowGraph;
use crate::ir::IcodeBuf;

/// The members of a row of words, lowest first: one `trailing_zeros`
/// per member, one load per word.
pub fn bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(wi, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let bit = (rest != 0).then(|| wi * 64 + rest.trailing_zeros() as usize)?;
            rest &= rest - 1;
            Some(bit)
        })
    })
}

/// A rows × columns bit matrix in one allocation: row `r` is the
/// `stride` words at `r * stride`. Every per-block and per-vreg set in
/// the back end is a row of one, re-zeroed per compile, not allocated.
#[derive(Clone, Debug, Default)]
pub struct BitMatrix {
    stride: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// Re-shapes to `rows` × `cols`, all clear, keeping the allocation.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.stride = cols.div_ceil(64);
        self.words.clear();
        self.words.resize(rows * self.stride, 0);
    }

    /// Row `r`.
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// Row `r`, mutably.
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// Membership test.
    pub fn contains(&self, r: usize, c: usize) -> bool {
        self.words[r * self.stride + c / 64] & (1 << (c % 64)) != 0
    }

    /// Sets bit (`r`, `c`).
    pub fn insert(&mut self, r: usize, c: usize) {
        self.words[r * self.stride + c / 64] |= 1 << (c % 64);
    }

    /// Clears bit (`r`, `c`).
    pub fn remove(&mut self, r: usize, c: usize) {
        self.words[r * self.stride + c / 64] &= !(1 << (c % 64));
    }
}

/// Result of live-variable analysis: live-in/live-out per block, one
/// row per block in each matrix.
#[derive(Clone, Debug, Default)]
pub struct Liveness {
    /// Live-in set per block.
    pub live_in: BitMatrix,
    /// Live-out set per block.
    pub live_out: BitMatrix,
    /// Upward-exposed uses per block.
    pub use_set: BitMatrix,
    /// Defined-before-used per block.
    pub def_set: BitMatrix,
}

impl Liveness {
    /// Runs the analysis, reusing this value's storage.
    pub fn solve(&mut self, buf: &IcodeBuf, fg: &FlowGraph) {
        let nv = buf.num_vregs();
        let nb = fg.len();
        let Liveness {
            live_in,
            live_out,
            use_set,
            def_set,
        } = self;
        for m in [&mut *live_in, &mut *live_out, &mut *use_set, &mut *def_set] {
            m.reset(nb, nv);
        }
        for (bi, blk) in fg.blocks.iter().enumerate() {
            for insn in &buf.insns[blk.start..blk.end] {
                for u in insn.uses().into_iter().flatten() {
                    if !def_set.contains(bi, u.0 as usize) {
                        use_set.insert(bi, u.0 as usize);
                    }
                }
                if let Some(d) = insn.def() {
                    def_set.insert(bi, d.0 as usize);
                }
            }
        }
        // Backward iteration; reverse program order converges fast on
        // reducible graphs. Each step rewrites the block's two rows in
        // place — the solve allocates nothing.
        let mut changed = true;
        while changed {
            changed = false;
            for (bi, blk) in fg.blocks.iter().enumerate().rev() {
                let out = live_out.row_mut(bi);
                out.fill(0);
                for &s in blk.succs() {
                    for (o, i) in out.iter_mut().zip(live_in.row(s as usize)) {
                        *o |= i;
                    }
                }
                let gen_kill = use_set.row(bi).iter().zip(def_set.row(bi));
                for ((i, o), (g, k)) in live_in.row_mut(bi).iter_mut().zip(&*out).zip(gen_kill) {
                    let new = (o & !k) | g;
                    changed |= new != *i;
                    *i = new;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_rt::ValKind;
    use tcc_vcode::ops::BinOp;
    use tcc_vcode::CodeSink;

    fn solve(b: &IcodeBuf) -> (FlowGraph, Liveness) {
        let mut fg = FlowGraph::default();
        fg.build(b);
        let mut lv = Liveness::default();
        lv.solve(b, &fg);
        (fg, lv)
    }

    #[test]
    fn bits_walk_every_member_in_order() {
        let mut m = BitMatrix::default();
        m.reset(3, 200);
        let members = [0, 1, 63, 64, 65, 127, 128, 199];
        for &c in &members {
            m.insert(1, c);
        }
        m.insert(2, 70);
        assert_eq!(bits(m.row(1)).collect::<Vec<_>>(), members);
        assert!(bits(m.row(0)).next().is_none());
        m.remove(1, 64);
        assert!(!m.contains(1, 64) && m.contains(1, 65));
        // Re-shaping clears: no bit survives a reset.
        m.reset(2, 64);
        assert!(!m.contains(1, 1));
        assert!(bits(m.row(1)).next().is_none());
    }

    #[test]
    fn loop_keeps_accumulator_live() {
        // x = p; s = 0; do { s += x; x -= 1 } while (x); ret s
        let mut b = IcodeBuf::new();
        let x = b.param(0, ValKind::W);
        let s = b.temp(ValKind::W);
        b.li(s, 0);
        let top = b.label();
        b.bind(top);
        b.bin(BinOp::Add, ValKind::W, s, s, x);
        b.bin_imm(BinOp::Sub, ValKind::W, x, x, 1);
        b.br_true(x, top);
        b.ret_val(ValKind::W, s);
        let (fg, lv) = solve(&b);
        // Find the loop block (the one with a self edge).
        let loop_bi = (0..fg.len())
            .find(|&bi| fg.blocks[bi].succs().contains(&(bi as u32)))
            .unwrap();
        assert!(
            lv.live_in.contains(loop_bi, s.0 as usize),
            "s live into loop"
        );
        assert!(
            lv.live_in.contains(loop_bi, x.0 as usize),
            "x live into loop"
        );
        assert!(
            lv.live_out.contains(loop_bi, s.0 as usize),
            "s live out of loop"
        );
    }

    #[test]
    fn dead_def_is_not_live() {
        let mut b = IcodeBuf::new();
        let x = b.temp(ValKind::W);
        let d = b.temp(ValKind::W);
        b.li(x, 1);
        b.li(d, 9); // dead
        b.ret_val(ValKind::W, x);
        let (_, lv) = solve(&b);
        assert!(!lv.live_in.contains(0, d.0 as usize));
        assert!(!lv.live_out.contains(0, x.0 as usize)); // no successor
    }
}
