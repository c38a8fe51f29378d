//! The cycle cost model.
//!
//! The paper measured on a 70 MHz SparcStation 5 (microSPARC-II): integer
//! multiply and especially divide were slow (sometimes software), loads
//! cost more than ALU operations, and taken branches paid a pipeline
//! bubble. The defaults here mirror that flavor; every experiment prints
//! the model it ran under so results are interpretable.

use crate::isa::{CostClass, Op};

/// Maps opcode cost classes to cycle counts. All counts are per executed
/// instruction; taken branches add [`CostModel::branch_taken_extra`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Integer ALU ops (add, logic, shifts, compares, `sethi`).
    pub alu: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide / remainder.
    pub div: u64,
    /// FP add/sub/neg/mov/compare/convert.
    pub fadd: u64,
    /// FP multiply.
    pub fmul: u64,
    /// FP divide.
    pub fdiv: u64,
    /// Memory load.
    pub load: u64,
    /// Memory store.
    pub store: u64,
    /// Conditional branch, not taken.
    pub branch: u64,
    /// Extra cycles when a conditional branch is taken.
    pub branch_taken_extra: u64,
    /// Unconditional jump.
    pub jump: u64,
    /// Call (`jal`, `jalr`).
    pub call: u64,
    /// Host call trap overhead.
    pub hcall: u64,
    /// `nop` / `halt`.
    pub nop: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::sparcstation5()
    }
}

impl CostModel {
    /// The default model: SparcStation-5 flavored latencies.
    pub fn sparcstation5() -> CostModel {
        CostModel {
            alu: 1,
            mul: 5,
            div: 20,
            fadd: 4,
            fmul: 5,
            fdiv: 25,
            load: 2,
            store: 2,
            branch: 1,
            branch_taken_extra: 1,
            jump: 1,
            call: 2,
            hcall: 10,
            nop: 1,
        }
    }

    /// A uniform model (every instruction costs one cycle); useful for
    /// isolating instruction-count effects in ablations.
    pub fn uniform() -> CostModel {
        CostModel {
            alu: 1,
            mul: 1,
            div: 1,
            fadd: 1,
            fmul: 1,
            fdiv: 1,
            load: 1,
            store: 1,
            branch: 1,
            branch_taken_extra: 0,
            jump: 1,
            call: 1,
            hcall: 1,
            nop: 1,
        }
    }

    /// Order-sensitive fold of every field — part of the persistent
    /// store's ABI salt. Two models that would cost any instruction
    /// differently digest differently, so artifacts compiled under one
    /// model are never served to a session running another.
    pub fn digest(&self) -> u64 {
        let fields = [
            self.alu,
            self.mul,
            self.div,
            self.fadd,
            self.fmul,
            self.fdiv,
            self.load,
            self.store,
            self.branch,
            self.branch_taken_extra,
            self.jump,
            self.call,
            self.hcall,
            self.nop,
        ];
        let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
        for f in fields {
            h ^= f.wrapping_add(0x9e37_79b9_7f4a_7c15);
            h = h.rotate_left(27).wrapping_mul(0x94d0_49bb_1331_11eb);
        }
        h
    }

    /// Base cycle cost of an opcode (before the taken-branch penalty).
    pub fn cost(&self, op: Op) -> u64 {
        match op.cost_class() {
            CostClass::Alu => self.alu,
            CostClass::Mul => self.mul,
            CostClass::Div => self.div,
            CostClass::FAdd => self.fadd,
            CostClass::FMul => self.fmul,
            CostClass::FDiv => self.fdiv,
            CostClass::Load => self.load,
            CostClass::Store => self.store,
            CostClass::Branch => self.branch,
            CostClass::Jump => self.jump,
            CostClass::Call => self.call,
            CostClass::HCall => self.hcall,
            CostClass::Nop => self.nop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sparcstation5() {
        assert_eq!(CostModel::default(), CostModel::sparcstation5());
    }

    #[test]
    fn division_is_much_slower_than_alu() {
        let m = CostModel::default();
        assert!(m.cost(Op::Divw) >= 10 * m.cost(Op::Addw));
        assert!(m.cost(Op::Mulw) > m.cost(Op::Addw));
        assert!(m.cost(Op::Lw) > m.cost(Op::Addw));
    }

    #[test]
    fn uniform_model_is_flat() {
        let m = CostModel::uniform();
        for &op in Op::ALL {
            assert_eq!(m.cost(op), 1);
        }
    }
}
