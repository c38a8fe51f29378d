//! Flow graph construction (paper §5.2, "Building a flow graph").
//!
//! "ICODE builds a flow graph in one pass after all CGFs have been
//! invoked … The flow graph is a single array … it traverses the buffer
//! of ICODE instructions and adds basic blocks to the array in the same
//! order in which they exist in the list of instructions." Same here:
//! one linear pass finds block boundaries, a second resolves label
//! targets to successor edges.

use crate::ir::{IOp, IcodeBuf};

/// A basic block: a half-open range of instruction indices plus
/// successor block indices (at most two, stored inline — "the flow
/// graph is a single array", §5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    /// First instruction index.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
    succ: [u32; 2],
    nsucc: u8,
}

impl Block {
    /// Successor block indices.
    pub fn succs(&self) -> &[u32] {
        &self.succ[..self.nsucc as usize]
    }

    fn push_succ(&mut self, s: usize) {
        self.succ[self.nsucc as usize] = s as u32;
        self.nsucc += 1;
    }
}

/// The flow graph: blocks in instruction order.
#[derive(Clone, Debug, Default)]
pub struct FlowGraph {
    /// Basic blocks in program order.
    pub blocks: Vec<Block>,
    /// Maps instruction index to its block.
    pub block_of: Vec<u32>,
    // Build scratch, kept for the next build.
    leader: Vec<bool>,
    label_pos: Vec<usize>,
}

impl FlowGraph {
    /// Builds the flow graph for `buf`, reusing this graph's storage.
    ///
    /// # Panics
    ///
    /// Panics if a branch references an unbound label.
    pub fn build(&mut self, buf: &IcodeBuf) {
        let FlowGraph {
            blocks,
            block_of,
            leader,
            label_pos,
        } = self;
        let insns = &buf.insns;
        let n = insns.len();
        // Pass 1: find leaders.
        leader.clear();
        leader.resize(n + 1, false);
        leader[0] = true;
        label_pos.clear();
        label_pos.resize(buf.nlabels as usize, usize::MAX);
        for (i, insn) in insns.iter().enumerate() {
            match insn.op {
                IOp::Label => {
                    leader[i] = true;
                    label_pos[insn.imm as usize] = i;
                }
                _ if insn.is_terminator() => leader[i + 1] = true,
                _ => {}
            }
        }
        // Pass 2: materialize blocks.
        blocks.clear();
        block_of.clear();
        block_of.resize(n, 0);
        let mut start = 0usize;
        // The sentinel iteration (i == n) closes the final block (and
        // makes the one empty block of an empty buffer).
        for i in 1..=n.max(1) {
            if i >= n || leader[i] {
                block_of[start..i.min(n)].fill(blocks.len() as u32);
                blocks.push(Block {
                    start,
                    end: i.min(n),
                    succ: [0; 2],
                    nsucc: 0,
                });
                start = i;
            }
        }
        // Pass 3: successor edges.
        let block_of_label = |l: i64| -> usize {
            let pos = label_pos[l as usize];
            assert!(pos != usize::MAX, "branch to unbound label {l}");
            block_of[pos] as usize
        };
        let nblocks = blocks.len();
        for (bi, block) in blocks.iter_mut().enumerate() {
            let last = insns[block.start..block.end].last();
            let falls_through = match last.map(|i| (i.op, i.imm)) {
                Some((IOp::Jmp, l)) => {
                    block.push_succ(block_of_label(l));
                    false
                }
                Some((IOp::BrCmp(_) | IOp::BrTrue | IOp::BrFalse, l)) => {
                    block.push_succ(block_of_label(l));
                    true
                }
                Some((IOp::Ret, _)) => false,
                _ => true,
            };
            if falls_through && bi + 1 < nblocks {
                block.push_succ(bi + 1);
            }
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the graph has no blocks (empty function).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_rt::ValKind;
    use tcc_vcode::ops::BinOp;
    use tcc_vcode::CodeSink;

    fn build(b: &IcodeBuf) -> FlowGraph {
        let mut fg = FlowGraph::default();
        fg.build(b);
        fg
    }

    #[test]
    fn straight_line_is_one_block() {
        let mut b = IcodeBuf::new();
        let x = b.temp(ValKind::W);
        b.li(x, 1);
        b.bin(BinOp::Add, ValKind::W, x, x, x);
        b.ret_val(ValKind::W, x);
        let fg = build(&b);
        assert_eq!(fg.len(), 1);
        assert!(fg.blocks[0].succs().is_empty());
    }

    #[test]
    fn diamond_has_four_blocks() {
        let mut b = IcodeBuf::new();
        let x = b.temp(ValKind::W);
        let els = b.label();
        let join = b.label();
        b.li(x, 1);
        b.br_false(x, els); // B0 -> B1, B2(els)
        b.li(x, 2); // B1
        b.jmp(join);
        b.bind(els); // B2
        b.li(x, 3);
        b.bind(join); // B3
        b.ret_val(ValKind::W, x);
        let fg = build(&b);
        assert_eq!(fg.len(), 4);
        assert_eq!(fg.blocks[0].succs(), [2, 1]);
        assert_eq!(fg.blocks[1].succs(), [3]);
        assert_eq!(fg.blocks[2].succs(), [3]);
        assert!(fg.blocks[3].succs().is_empty());
    }

    #[test]
    fn loop_back_edge() {
        let mut b = IcodeBuf::new();
        let x = b.temp(ValKind::W);
        b.li(x, 10);
        let top = b.label();
        b.bind(top); // starts B1
        b.bin_imm(BinOp::Sub, ValKind::W, x, x, 1);
        b.br_true(x, top); // B1 -> B1, B2
        b.ret_val(ValKind::W, x);
        let fg = build(&b);
        assert_eq!(fg.len(), 3);
        assert_eq!(fg.blocks[1].succs(), [1, 2]);
    }

    #[test]
    fn block_of_maps_instructions() {
        let mut b = IcodeBuf::new();
        let x = b.temp(ValKind::W);
        b.li(x, 1);
        let l = b.label();
        b.bind(l);
        b.br_true(x, l);
        b.ret_val(ValKind::W, x);
        let fg = build(&b);
        assert_eq!(fg.block_of[0], 0);
        assert_eq!(fg.block_of[1], 1);
        assert_eq!(fg.block_of[2], 1);
        assert_eq!(fg.block_of[3], 2);
    }
}
