//! Property tests for the machine substrate: encode/decode round trips
//! for every instruction format, arithmetic semantics against Rust
//! references, and memory round trips.

use proptest::prelude::*;
use tcc_vm::isa::{Format, Insn, Op};
use tcc_vm::regs::{A0, A1};
use tcc_vm::{CodeSpace, Vm};

fn any_op() -> impl Strategy<Value = Op> {
    prop::sample::select(Op::ALL.to_vec())
}

proptest! {
    #[test]
    fn encode_decode_round_trips(
        op in any_op(),
        rd in 0u8..32,
        rs1 in 0u8..32,
        rs2 in 0u8..32,
        imm14 in -(1i32 << 13)..(1 << 13),
        imm19 in -(1i32 << 18)..(1 << 18),
        imm24 in -(1i32 << 23)..(1 << 23),
    ) {
        let insn = match op.format() {
            Format::R => Insn { op, rd, rs1, rs2, imm: 0 },
            Format::I => Insn { op, rd, rs1, rs2: 0, imm: imm14 },
            Format::J => Insn { op, rd: 0, rs1: 0, rs2: 0, imm: imm24 },
            Format::S => Insn { op, rd, rs1: 0, rs2: 0, imm: imm19 },
        };
        let decoded = Insn::decode(insn.encode()).expect("assigned opcode");
        prop_assert_eq!(insn, decoded);
    }

    #[test]
    fn raw_words_never_panic_on_decode(word in any::<u32>()) {
        // Decoding is total: Ok or a BadOpcode error, never a panic.
        let _ = Insn::decode(word);
    }

    #[test]
    fn w_arithmetic_matches_rust(a in any::<i32>(), b in any::<i32>()) {
        let cases: Vec<(Op, Option<i64>)> = vec![
            (Op::Addw, Some(a.wrapping_add(b) as i64)),
            (Op::Subw, Some(a.wrapping_sub(b) as i64)),
            (Op::Mulw, Some(a.wrapping_mul(b) as i64)),
            (Op::Sllw, Some(a.wrapping_shl(b as u32 & 31) as i64)),
            (Op::Sraw, Some((a >> (b as u32 & 31)) as i64)),
            (Op::Srlw, Some(((a as u32) >> (b as u32 & 31)) as i32 as i64)),
            (Op::Sltw, Some(i64::from(a < b))),
            (Op::Sltuw, Some(i64::from((a as u32) < (b as u32)))),
            (
                Op::Divw,
                if b == 0 { None } else { Some(a.wrapping_div(b) as i64) },
            ),
            (
                Op::Remw,
                if b == 0 { None } else { Some(a.wrapping_rem(b) as i64) },
            ),
        ];
        for (op, expect) in cases {
            let Some(expect) = expect else { continue };
            // i32::MIN / -1 traps in Rust too; wrapping_div covers it,
            // and the VM wraps as well, so no special-casing needed.
            let mut cs = CodeSpace::new();
            let f = cs.begin_function("t");
            cs.push(Insn::r(op, A0, A0, A1));
            cs.push(Insn::ret());
            let addr = cs.finish_function(f).expect("seals");
            let mut vm = Vm::new(cs, 1 << 20);
            let got = vm
                .call(addr, &[a as i64 as u64, b as i64 as u64])
                .expect("executes");
            prop_assert_eq!(got as i64, expect, "{:?} {} {}", op, a, b);
        }
    }

    #[test]
    fn li_round_trips_any_i64(v in any::<i64>()) {
        let mut cs = CodeSpace::new();
        let mut asm = tcc_vcode::Asm::new(&mut cs, "t");
        asm.li(A0, v);
        asm.emit(Insn::ret());
        let addr = asm.finish().unwrap();
        let mut vm = Vm::new(cs, 1 << 20);
        prop_assert_eq!(vm.call(addr, &[]).expect("runs") as i64, v);
    }

    #[test]
    fn memory_round_trips(
        vals in prop::collection::vec(any::<u64>(), 1..32),
    ) {
        let mut mem = tcc_vm::Memory::new(1 << 20);
        let base = mem.alloc(8 * vals.len() as u64, 8).expect("fits");
        for (i, v) in vals.iter().enumerate() {
            mem.store_u64(base + 8 * i as u64, *v).expect("in range");
        }
        for (i, v) in vals.iter().enumerate() {
            prop_assert_eq!(mem.load_u64(base + 8 * i as u64).expect("in range"), *v);
        }
    }

    #[test]
    fn mul_imm_strength_reduction_random(x in any::<i32>(), imm in any::<i32>()) {
        let mut cs = CodeSpace::new();
        let mut asm = tcc_vcode::Asm::new(&mut cs, "t");
        asm.mul_imm(tcc_rt::ValKind::W, A0, A0, imm as i64);
        asm.emit(Insn::ret());
        let addr = asm.finish().unwrap();
        let mut vm = Vm::new(cs, 1 << 20);
        let got = vm.call(addr, &[x as i64 as u64]).expect("runs");
        prop_assert_eq!(got as i64, x.wrapping_mul(imm) as i64);
    }
}
