//! The interpreter: decodes and executes binary code, counting cycles.
//!
//! Execution is fully deterministic. Every executed instruction is charged
//! cycles from the [`CostModel`]; taken branches pay an extra cycle. A
//! fuel limit bounds runaway loops.

use crate::adaptive::Tier;
use crate::code::{CodeSpace, CODE_BASE};
use crate::cost::CostModel;
use crate::error::VmError;
use crate::host::{HostCall, NoHost};
use crate::isa::{Insn, Op};
use crate::mem::Memory;
use crate::predecode::{ExecEngine, ExecStats, TransCache};
use crate::regs::{ARG_REGS, FARG_REGS, RA, SP};

/// Program-counter value that terminates execution when returned to; the
/// interpreter seeds `ra` with it before calling a function.
pub const RETURN_SENTINEL: u64 = CODE_BASE - 16;

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitStatus {
    /// Control returned through the sentinel link address.
    Returned,
    /// A `halt` instruction executed.
    Halted,
}

/// Registers, memory, code and counters — everything a [`HostCall`]
/// handler may touch.
///
/// The layout is pinned: every engine touches the register files and the
/// memory's base and length on nearly every instruction, so they open the
/// struct on a cache-line boundary — the integer registers in lines 0–3,
/// the floating point ones in 4–5, the memory and the counters in 6 — and
/// no change to the size of a colder member moves them
/// (`interp.rs::the_hot_state_layout_is_pinned`).
#[derive(Clone, Debug)]
#[repr(C, align(64))]
pub struct MachineState {
    /// Integer register file. Index 0 reads as zero (enforced on write).
    pub regs: [u64; 32],
    /// Floating point register file.
    pub fregs: [f64; 16],
    /// Data memory.
    pub mem: Memory,
    /// Cycles consumed since the last counter reset.
    pub cycles: u64,
    /// Instructions executed since the last counter reset.
    pub insns: u64,
    /// Host-call traps taken since the last counter reset.
    pub hcalls: u64,
    /// Code space (host calls may append functions — `compile` does).
    pub code: CodeSpace,
}

impl MachineState {
    /// Reads integer register `i` (0 reads zero). Register fields are 5
    /// bits wide ([`Insn::decode`]), so the index is masked rather than
    /// bounds-checked.
    #[inline]
    pub fn reg(&self, i: u8) -> u64 {
        debug_assert!(i < 32, "register {i}");
        self.regs[(i & 31) as usize]
    }

    /// Writes integer register `i`; writes to register 0 are discarded.
    #[inline]
    pub fn set_reg(&mut self, i: u8, v: u64) {
        debug_assert!(i < 32, "register {i}");
        if i != 0 {
            self.regs[(i & 31) as usize] = v;
        }
    }

    /// Reads the `n`-th integer argument register.
    pub fn arg(&self, n: usize) -> u64 {
        self.regs[ARG_REGS[n].0 as usize]
    }

    /// Reads the `n`-th floating point argument register.
    pub fn farg(&self, n: usize) -> f64 {
        self.fregs[FARG_REGS[n].0 as usize]
    }

    /// Sets the integer return value (`a0`).
    pub fn set_ret(&mut self, v: u64) {
        self.regs[ARG_REGS[0].0 as usize] = v;
    }

    /// Sets the floating point return value (`fa0`).
    pub fn set_fret(&mut self, v: f64) {
        self.fregs[FARG_REGS[0].0 as usize] = v;
    }
}

/// A virtual machine instance: code + data memory + a host.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Vm<H = NoHost> {
    pub(crate) state: MachineState,
    pub(crate) host: H,
    pub(crate) cost: CostModel,
    pub(crate) fuel: u64,
    pub(crate) engine: ExecEngine,
    pub(crate) trans: TransCache<H>,
}

impl Vm<NoHost> {
    /// Creates a machine over `code` with `mem_size` bytes of data memory
    /// and no host calls.
    pub fn new(code: CodeSpace, mem_size: usize) -> Vm<NoHost> {
        Vm::with_host(code, mem_size, NoHost)
    }
}

impl<H: HostCall> Vm<H> {
    /// Creates a machine with a [`HostCall`] handler.
    pub fn with_host(code: CodeSpace, mem_size: usize, host: H) -> Vm<H> {
        Vm::from_parts(code, Memory::new(mem_size), host)
    }

    /// Creates a machine over an existing memory image (used by loaders
    /// that have already placed globals).
    pub fn from_parts(code: CodeSpace, mem: Memory, host: H) -> Vm<H> {
        let trans = TransCache {
            epoch: code.live_epoch(),
            ..TransCache::default()
        };
        Vm {
            state: MachineState {
                regs: [0; 32],
                fregs: [0.0; 16],
                mem,
                code,
                cycles: 0,
                insns: 0,
                hcalls: 0,
            },
            host,
            cost: CostModel::default(),
            fuel: u64::MAX,
            engine: ExecEngine::default(),
            trans,
        }
    }

    /// Replaces the cycle cost model. Drops the translation cache:
    /// decoded buffers bake per-instruction costs in.
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost = cost;
        self.trans.clear();
    }

    /// Selects the execution engine (decode-per-step, predecoded,
    /// threaded, or adaptive). Drops the translation cache and any
    /// adaptive tier state: decoded buffers depend on the engine's
    /// fusion setting, and tier clocks restart with the engine.
    pub fn set_engine(&mut self, engine: ExecEngine) {
        self.engine = engine;
        self.trans.clear();
    }

    /// The active execution engine.
    pub fn engine(&self) -> ExecEngine {
        self.engine
    }

    /// Execution-engine counters: translations performed, fused pairs,
    /// and how instructions were dispatched.
    pub fn exec_stats(&self) -> ExecStats {
        self.trans.stats
    }

    /// The active cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Sets the cycle budget; [`VmError::OutOfFuel`] is raised once
    /// cumulative cycles exceed it.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Machine state (registers, memory, code, counters).
    pub fn state(&self) -> &MachineState {
        &self.state
    }

    /// Mutable machine state, for workload setup and result inspection.
    pub fn state_mut(&mut self) -> &mut MachineState {
        &mut self.state
    }

    /// The host handler.
    pub fn host(&self) -> &H {
        &self.host
    }

    /// Mutable access to the host handler.
    pub fn host_mut(&mut self) -> &mut H {
        &mut self.host
    }

    /// Machine state and host together, for work between calls that
    /// needs both (a host that owns handles into the code space).
    pub fn parts_mut(&mut self) -> (&mut MachineState, &mut H) {
        (&mut self.state, &mut self.host)
    }

    /// Zeroes the cycle, instruction, and host-call counters.
    pub fn reset_counters(&mut self) {
        self.state.cycles = 0;
        self.state.insns = 0;
        self.state.hcalls = 0;
    }

    /// Cycles consumed since the last reset.
    pub fn cycles(&self) -> u64 {
        self.state.cycles
    }

    /// Instructions executed since the last reset.
    pub fn insns(&self) -> u64 {
        self.state.insns
    }

    /// Host-call traps taken since the last reset.
    pub fn hcalls(&self) -> u64 {
        self.state.hcalls
    }

    /// Calls the function at `addr` with integer arguments, returning
    /// `a0` on return.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised during execution.
    pub fn call(&mut self, addr: u64, args: &[u64]) -> Result<u64, VmError> {
        self.call_with(addr, args, &[]).map(|(v, _)| v)
    }

    /// Calls the function at `addr`, returning the floating point result.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised during execution.
    pub fn call_f(&mut self, addr: u64, args: &[u64], fargs: &[f64]) -> Result<f64, VmError> {
        self.call_with(addr, args, fargs).map(|(_, f)| f)
    }

    /// Calls the function at `addr` with integer and floating point
    /// arguments; returns `(a0, fa0)`.
    ///
    /// # Errors
    ///
    /// [`VmError::StaleCode`] if `addr` is inside a live function but
    /// not its first word: a host call enters a function only at its
    /// entry, whichever engine runs it. Otherwise any [`VmError`] raised
    /// during execution.
    ///
    /// # Panics
    ///
    /// Panics if more than 6 integer or 4 floating point arguments are
    /// passed (stack arguments are not part of this ABI).
    pub fn call_with(
        &mut self,
        addr: u64,
        args: &[u64],
        fargs: &[f64],
    ) -> Result<(u64, f64), VmError> {
        assert!(args.len() <= ARG_REGS.len(), "too many integer args");
        assert!(fargs.len() <= FARG_REGS.len(), "too many fp args");
        let word = addr.checked_sub(CODE_BASE).filter(|b| b.is_multiple_of(4));
        if let Some(idx) = word.map(|b| (b / 4) as usize) {
            let live = self.state.code.live_range_containing(idx);
            if live.is_some_and(|(start, _)| start != idx) {
                return Err(VmError::StaleCode(addr));
            }
        }
        let st = &mut self.state;
        st.set_reg(SP.0, st.mem.stack_top());
        st.set_reg(RA.0, RETURN_SENTINEL);
        for (i, &a) in args.iter().enumerate() {
            st.set_reg(ARG_REGS[i].0, a);
        }
        for (i, &a) in fargs.iter().enumerate() {
            st.fregs[FARG_REGS[i].0 as usize] = a;
        }
        self.run(addr)?;
        Ok((self.state.arg(0), self.state.farg(0)))
    }

    /// Runs from `pc` until the sentinel return address or `halt`,
    /// dispatching through the configured [`ExecEngine`].
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised during execution.
    pub fn run(&mut self, pc: u64) -> Result<ExitStatus, VmError> {
        match self.engine {
            ExecEngine::DecodePerStep => self.run_decode_per_step(pc),
            ExecEngine::Predecoded { fuse } => self.run_fixed(pc, Tier::Fused, fuse),
            ExecEngine::Threaded => self.run_fixed(pc, Tier::Threaded, true),
            ExecEngine::Adaptive {
                thread_after,
                background,
            } => self.run_adaptive(pc, thread_after, background),
        }
    }

    /// The reference engine: fetch, bounds+liveness check, decode, cost
    /// lookup, execute — on every single instruction.
    fn run_decode_per_step(&mut self, mut pc: u64) -> Result<ExitStatus, VmError> {
        loop {
            if pc == RETURN_SENTINEL {
                return Ok(ExitStatus::Returned);
            }
            match self.step_reference(pc)? {
                Step::At(next) => pc = next,
                Step::Done(status) => return Ok(status),
            }
        }
    }

    /// One reference-engine step with slow-path accounting: the whole
    /// loop body of decode-per-step, and what every translated engine
    /// falls back to where it has no form to dispatch through.
    #[inline]
    pub(crate) fn step_reference(&mut self, pc: u64) -> Result<Step, VmError> {
        let step = self.step_slow(pc)?;
        self.trans.stats.slow_insns += 1;
        Ok(step)
    }

    /// One instruction of the reference engine. The translated engines
    /// fall back to this at region boundaries so every fault
    /// (`BadPc`, `StaleCode`, `BadOpcode`, ...) is raised by the exact
    /// same code on both paths.
    #[inline]
    fn step_slow(&mut self, pc: u64) -> Result<Step, VmError> {
        let word = self.state.code.fetch_exec(pc)?;
        let insn = Insn::decode(word)?;
        let mut cost = self.cost.cost(insn.op);
        let mut next = pc + 4;
        match self.exec(&insn, pc)? {
            Flow::Next => {}
            Flow::Jump(target) => next = target,
            Flow::Taken(target) => {
                next = target;
                cost += self.cost.branch_taken_extra;
            }
            Flow::Halt => {
                self.state.cycles += cost;
                self.state.insns += 1;
                return Ok(Step::Done(ExitStatus::Halted));
            }
        }
        self.state.cycles += cost;
        self.state.insns += 1;
        if self.state.cycles > self.fuel {
            return Err(VmError::OutOfFuel);
        }
        Ok(Step::At(next))
    }

    #[inline]
    fn exec(&mut self, insn: &Insn, pc: u64) -> Result<Flow, VmError> {
        use Op::*;
        match insn.op {
            Halt => Ok(Flow::Halt),
            Hcall => {
                self.state.hcalls += 1;
                self.host.call(insn.imm as u32, &mut self.state)?;
                Ok(Flow::Next)
            }
            Beq | Bne | Bltw | Bgew | Bltuw | Bgeuw | Bltd | Bged | Bltud | Bgeud => {
                let x = self.state.reg(insn.rd);
                let y = self.state.reg(insn.rs1);
                if branch_taken(insn.op, x, y) {
                    Ok(Flow::Taken(branch_target(pc, insn.imm)))
                } else {
                    Ok(Flow::Next)
                }
            }
            J => Ok(Flow::Jump(branch_target(pc, insn.imm))),
            Jal => {
                self.state.set_reg(RA.0, pc + 4);
                Ok(Flow::Jump(branch_target(pc, insn.imm)))
            }
            Jalr => {
                let target = self.state.reg(insn.rs1);
                self.state.set_reg(insn.rd, pc + 4);
                Ok(Flow::Jump(target))
            }
            _ => {
                exec_scalar(
                    &mut self.state,
                    insn.op,
                    insn.rd,
                    insn.rs1,
                    insn.rs2,
                    insn.imm,
                )?;
                Ok(Flow::Next)
            }
        }
    }
}

/// Executes one straight-line (non-control, non-trapping-to-host)
/// instruction against the machine state. Both engines funnel through
/// this function, so operational semantics exist in exactly one place.
#[inline]
pub(crate) fn exec_scalar(
    st: &mut MachineState,
    op: Op,
    rd: u8,
    rs1: u8,
    rs2: u8,
    imm: i32,
) -> Result<(), VmError> {
    use Op::*;
    let a = st.reg(rs1);
    let b = st.reg(rs2);
    let aw = a as i32;
    let bw = b as i32;
    macro_rules! setw {
        ($v:expr) => {{
            let v: i32 = $v;
            st.set_reg(rd, v as i64 as u64);
        }};
    }
    macro_rules! setd {
        ($v:expr) => {
            st.set_reg(rd, $v as u64)
        };
    }
    match op {
        Nop => {}

        Addw => setw!(aw.wrapping_add(bw)),
        Subw => setw!(aw.wrapping_sub(bw)),
        Mulw => setw!(aw.wrapping_mul(bw)),
        Divw => {
            if bw == 0 {
                return Err(VmError::DivideByZero);
            }
            setw!(aw.wrapping_div(bw));
        }
        Divuw => {
            if bw == 0 {
                return Err(VmError::DivideByZero);
            }
            setw!(((aw as u32) / (bw as u32)) as i32);
        }
        Remw => {
            if bw == 0 {
                return Err(VmError::DivideByZero);
            }
            setw!(aw.wrapping_rem(bw));
        }
        Remuw => {
            if bw == 0 {
                return Err(VmError::DivideByZero);
            }
            setw!(((aw as u32) % (bw as u32)) as i32);
        }

        Addd => setd!(a.wrapping_add(b)),
        Subd => setd!(a.wrapping_sub(b)),
        Muld => setd!(a.wrapping_mul(b)),
        Divd => {
            if b == 0 {
                return Err(VmError::DivideByZero);
            }
            setd!((a as i64).wrapping_div(b as i64));
        }
        Divud => {
            if b == 0 {
                return Err(VmError::DivideByZero);
            }
            setd!(a / b);
        }
        Remd => {
            if b == 0 {
                return Err(VmError::DivideByZero);
            }
            setd!((a as i64).wrapping_rem(b as i64));
        }
        Remud => {
            if b == 0 {
                return Err(VmError::DivideByZero);
            }
            setd!(a % b);
        }

        And => setd!(a & b),
        Or => setd!(a | b),
        Xor => setd!(a ^ b),

        Sllw => setw!(aw.wrapping_shl(b as u32 & 31)),
        Srlw => setw!(((aw as u32) >> (b as u32 & 31)) as i32),
        Sraw => setw!(aw >> (b as u32 & 31)),
        Slld => setd!(a.wrapping_shl(b as u32 & 63)),
        Srld => setd!(a >> (b & 63)),
        Srad => setd!(((a as i64) >> (b & 63)) as u64),

        Seq => setd!(u64::from(a == b)),
        Sne => setd!(u64::from(a != b)),
        Sltw => setd!(u64::from(aw < bw)),
        Sltuw => setd!(u64::from((aw as u32) < (bw as u32))),
        Sltd => setd!(u64::from((a as i64) < (b as i64))),
        Sltud => setd!(u64::from(a < b)),

        Addiw => setw!(aw.wrapping_add(imm)),
        Addid => setd!(a.wrapping_add(imm as i64 as u64)),
        Andi => setd!(a & (imm as u32 as u64 & 0x3fff)),
        Ori => setd!(a | (imm as u32 as u64 & 0x3fff)),
        Xori => setd!(a ^ (imm as u32 as u64 & 0x3fff)),
        Slliw => setw!(aw.wrapping_shl(imm as u32 & 31)),
        Srliw => setw!(((aw as u32) >> (imm as u32 & 31)) as i32),
        Sraiw => setw!(aw >> (imm as u32 & 31)),
        Sllid => setd!(a.wrapping_shl(imm as u32 & 63)),
        Srlid => setd!(a >> (imm as u64 & 63)),
        Sraid => setd!(((a as i64) >> (imm as u64 & 63)) as u64),
        Sethi => setd!(((imm as i64) << 14) as u64),

        Lb => {
            let v = st.mem.load_u8(ea(a, imm))? as i8;
            setd!(v as i64 as u64);
        }
        Lbu => {
            let v = st.mem.load_u8(ea(a, imm))?;
            setd!(v as u64);
        }
        Lh => {
            let v = st.mem.load_u16(ea(a, imm))? as i16;
            setd!(v as i64 as u64);
        }
        Lhu => {
            let v = st.mem.load_u16(ea(a, imm))?;
            setd!(v as u64);
        }
        Lw => {
            let v = st.mem.load_u32(ea(a, imm))? as i32;
            setd!(v as i64 as u64);
        }
        Lwu => {
            let v = st.mem.load_u32(ea(a, imm))?;
            setd!(v as u64);
        }
        Ld => {
            let v = st.mem.load_u64(ea(a, imm))?;
            setd!(v);
        }
        Fld => {
            let v = st.mem.load_f64(ea(a, imm))?;
            st.fregs[rd as usize & 15] = v;
        }

        Sb => st.mem.store_u8(ea(a, imm), st.reg(rd) as u8)?,
        Sh => st.mem.store_u16(ea(a, imm), st.reg(rd) as u16)?,
        Sw => st.mem.store_u32(ea(a, imm), st.reg(rd) as u32)?,
        Sd => st.mem.store_u64(ea(a, imm), st.reg(rd))?,
        Fsd => st.mem.store_f64(ea(a, imm), st.fregs[rd as usize & 15])?,

        Fadd => {
            st.fregs[rd as usize & 15] = st.fregs[rs1 as usize & 15] + st.fregs[rs2 as usize & 15];
        }
        Fsub => {
            st.fregs[rd as usize & 15] = st.fregs[rs1 as usize & 15] - st.fregs[rs2 as usize & 15];
        }
        Fmul => {
            st.fregs[rd as usize & 15] = st.fregs[rs1 as usize & 15] * st.fregs[rs2 as usize & 15];
        }
        Fdiv => {
            st.fregs[rd as usize & 15] = st.fregs[rs1 as usize & 15] / st.fregs[rs2 as usize & 15];
        }
        Fneg => st.fregs[rd as usize & 15] = -st.fregs[rs1 as usize & 15],
        Fmov => st.fregs[rd as usize & 15] = st.fregs[rs1 as usize & 15],
        Feq => setd!(u64::from(
            st.fregs[rs1 as usize & 15] == st.fregs[rs2 as usize & 15]
        )),
        Flt => setd!(u64::from(
            st.fregs[rs1 as usize & 15] < st.fregs[rs2 as usize & 15]
        )),
        Fle => setd!(u64::from(
            st.fregs[rs1 as usize & 15] <= st.fregs[rs2 as usize & 15]
        )),
        Cvtwd => st.fregs[rd as usize & 15] = aw as f64,
        Cvtdw => setw!(st.fregs[rs1 as usize & 15] as i32),
        Cvtld => st.fregs[rd as usize & 15] = (a as i64) as f64,
        Cvtdl => setd!((st.fregs[rs1 as usize & 15] as i64) as u64),
        Fmvdx => st.fregs[rd as usize & 15] = f64::from_bits(a),
        Fmvxd => setd!(st.fregs[rs1 as usize & 15].to_bits()),

        Halt | Hcall | Beq | Bne | Bltw | Bgew | Bltuw | Bgeuw | Bltd | Bged | Bltud | Bgeud
        | J | Jal | Jalr => unreachable!("control instruction {op:?} in exec_scalar"),
    }
    Ok(())
}

/// Evaluates a conditional branch's comparison: `x` is the `rd` field's
/// register value, `y` the `rs1` field's.
#[inline]
pub(crate) fn branch_taken(op: Op, x: u64, y: u64) -> bool {
    match op {
        Op::Beq => x == y,
        Op::Bne => x != y,
        Op::Bltw => (x as i32) < (y as i32),
        Op::Bgew => (x as i32) >= (y as i32),
        Op::Bltuw => (x as u32) < (y as u32),
        Op::Bgeuw => (x as u32) >= (y as u32),
        Op::Bltd => (x as i64) < (y as i64),
        Op::Bged => (x as i64) >= (y as i64),
        Op::Bltud => x < y,
        Op::Bgeud => x >= y,
        _ => unreachable!("not a branch: {op:?}"),
    }
}

#[inline]
fn ea(base: u64, offset: i32) -> u64 {
    base.wrapping_add(offset as i64 as u64)
}

#[inline]
pub(crate) fn branch_target(pc: u64, word_offset: i32) -> u64 {
    (pc + 4).wrapping_add((word_offset as i64 * 4) as u64)
}

enum Flow {
    Next,
    Jump(u64),
    Taken(u64),
    Halt,
}

/// Where a (partial) run left off: continue at a pc, or finished.
pub(crate) enum Step {
    At(u64),
    Done(ExitStatus),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::{A0, A1, AT0, ZERO};
    use std::mem::{align_of, offset_of, size_of};

    #[test]
    fn the_hot_state_layout_is_pinned() {
        assert_eq!(align_of::<MachineState>(), 64);
        assert_eq!(size_of::<MachineState>() % 64, 0);
        assert_eq!(offset_of!(MachineState, regs), 0);
        assert_eq!(offset_of!(MachineState, fregs), 256);
        assert_eq!(offset_of!(MachineState, mem), 384);
        // The memory's base, length and break and the three counters
        // share cache line 6; the code space starts in it.
        assert_eq!(offset_of!(MachineState, cycles), 384 + size_of::<Memory>());
        assert!(offset_of!(MachineState, hcalls) + 8 <= 448);
        assert_eq!(align_of::<Vm>() % 64, 0);
    }

    fn run1(insns: &[Insn], args: &[u64]) -> Result<u64, VmError> {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("t");
        for &i in insns {
            cs.push(i);
        }
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        let mut vm = Vm::new(cs, 1 << 20);
        vm.call(addr, args)
    }

    #[test]
    fn addw_wraps_and_sign_extends() {
        let got = run1(&[Insn::r(Op::Addw, A0, A0, A1)], &[i32::MAX as u64, 1]).unwrap();
        assert_eq!(got as i64, i32::MIN as i64);
    }

    #[test]
    fn addd_is_64_bit() {
        let got = run1(&[Insn::r(Op::Addd, A0, A0, A1)], &[1 << 40, 1]).unwrap();
        assert_eq!(got, (1 << 40) + 1);
    }

    #[test]
    fn division_semantics() {
        assert_eq!(
            run1(&[Insn::r(Op::Divw, A0, A0, A1)], &[(-7i64) as u64, 2]).unwrap() as i64,
            -3
        );
        assert_eq!(
            run1(&[Insn::r(Op::Remw, A0, A0, A1)], &[(-7i64) as u64, 2]).unwrap() as i64,
            -1
        );
        assert_eq!(
            run1(
                &[Insn::r(Op::Divuw, A0, A0, A1)],
                &[(-2i32) as u32 as u64, 2]
            )
            .unwrap(),
            (((-2i32) as u32) / 2) as i32 as i64 as u64
        );
        assert_eq!(
            run1(&[Insn::r(Op::Divw, A0, A0, A1)], &[1, 0]),
            Err(VmError::DivideByZero)
        );
    }

    #[test]
    fn zero_register_is_immutable() {
        let got = run1(
            &[
                Insn::i(Op::Addiw, ZERO, ZERO, 55),
                Insn::r(Op::Addw, A0, ZERO, ZERO),
            ],
            &[99],
        )
        .unwrap();
        assert_eq!(got, 0);
    }

    #[test]
    fn sethi_ori_synthesizes_32_bit_constants() {
        for v in [0x1234_5678i32, -1, i32::MIN, i32::MAX, 0x4000] {
            let hi = v >> 14;
            let lo = v & 0x3fff;
            let got = run1(&[Insn::sethi(A0, hi), Insn::i(Op::Ori, A0, A0, lo)], &[0]).unwrap();
            assert_eq!(got as i64, v as i64, "value {v:#x}");
        }
    }

    #[test]
    fn unsigned_compare_uses_low_32_bits() {
        // -1 (sign-extended) as u32 is u32::MAX, so 1 <u -1 in 32-bit.
        let got = run1(&[Insn::r(Op::Sltuw, A0, A0, A1)], &[1, (-1i64) as u64]).unwrap();
        assert_eq!(got, 1);
        // but NOT as a 64-bit unsigned compare of the sign-extended forms.
        let got = run1(&[Insn::r(Op::Sltud, A0, A0, A1)], &[1, (-1i64) as u64]).unwrap();
        assert_eq!(got, 1); // 1 < 0xffff...ffff
    }

    #[test]
    fn branch_skips_and_counts_taken_penalty() {
        // if (a0 == a1) a0 = 7; else a0 = 9;
        let insns = [
            Insn::i(Op::Beq, A0, A1, 2),
            Insn::i(Op::Addiw, A0, ZERO, 9),
            Insn::j(Op::J, 1),
            Insn::i(Op::Addiw, A0, ZERO, 7),
        ];
        assert_eq!(run1(&insns, &[5, 5]).unwrap(), 7);
        assert_eq!(run1(&insns, &[5, 6]).unwrap(), 9);
    }

    #[test]
    fn call_and_return_through_jal() {
        let mut cs = CodeSpace::new();
        // callee: a0 += 1; ret
        let callee = cs.begin_function("callee");
        cs.push(Insn::i(Op::Addiw, A0, A0, 1));
        cs.push(Insn::ret());
        let callee_addr = cs.finish_function(callee).unwrap();
        // caller: save ra on stack, jal callee, restore, a0 += 10, ret
        let caller = cs.begin_function("caller");
        cs.push(Insn::i(Op::Addid, SP, SP, -16));
        cs.push(Insn::i(Op::Sd, RA, SP, 0));
        let jal_at = cs.next_index();
        let callee_word = ((callee_addr - CODE_BASE) / 4) as i32;
        cs.push(Insn::j(Op::Jal, callee_word - (jal_at as i32 + 1)));
        cs.push(Insn::i(Op::Ld, RA, SP, 0));
        cs.push(Insn::i(Op::Addid, SP, SP, 16));
        cs.push(Insn::i(Op::Addiw, A0, A0, 10));
        cs.push(Insn::ret());
        let caller_addr = cs.finish_function(caller).unwrap();

        let mut vm = Vm::new(cs, 1 << 20);
        assert_eq!(vm.call(caller_addr, &[100]).unwrap(), 111);
    }

    #[test]
    fn loads_and_stores_round_trip_through_memory() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        // mem[a1] = a0 (word); a0 = sign-extended reload
        cs.push(Insn::i(Op::Sw, A0, A1, 0));
        cs.push(Insn::i(Op::Lw, A0, A1, 0));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        let mut vm = Vm::new(cs, 1 << 20);
        let buf = vm.state_mut().mem.alloc(8, 8).unwrap();
        let got = vm.call(addr, &[(-5i64) as u64, buf]).unwrap();
        assert_eq!(got as i64, -5);
    }

    #[test]
    fn float_ops() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        use crate::regs::{FA0, FA1};
        cs.push(Insn::fr(Op::Fmul, FA0, FA0, FA1));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        let mut vm = Vm::new(cs, 1 << 20);
        let got = vm.call_f(addr, &[], &[1.5, 4.0]).unwrap();
        assert_eq!(got, 6.0);
    }

    #[test]
    fn cvt_between_int_and_double() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        use crate::regs::FA0;
        cs.push(Insn {
            op: Op::Cvtwd,
            rd: FA0.0,
            rs1: A0.0,
            rs2: 0,
            imm: 0,
        });
        cs.push(Insn::fr(Op::Fadd, FA0, FA0, FA0));
        cs.push(Insn {
            op: Op::Cvtdw,
            rd: A0.0,
            rs1: FA0.0,
            rs2: 0,
            imm: 0,
        });
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        let mut vm = Vm::new(cs, 1 << 20);
        assert_eq!(vm.call(addr, &[21]).unwrap(), 42);
    }

    #[test]
    fn fuel_limit_stops_runaway_loops() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("spin");
        cs.push(Insn::j(Op::J, -1));
        cs.finish_function(f).unwrap();
        let mut vm = Vm::new(cs, 1 << 20);
        vm.set_fuel(1000);
        assert_eq!(vm.call(CODE_BASE, &[]), Err(VmError::OutOfFuel));
    }

    #[test]
    fn calling_freed_code_faults_stale() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::i(Op::Addiw, A0, A0, 1));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        cs.free_function(f).unwrap();
        let mut vm = Vm::new(cs, 1 << 20);
        assert_eq!(vm.call(addr, &[1]), Err(VmError::StaleCode(addr)));
    }

    #[test]
    fn calling_into_the_middle_of_a_live_function_faults_stale() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::i(Op::Addiw, A0, A0, 1));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        for engine in [
            ExecEngine::DecodePerStep,
            ExecEngine::Predecoded { fuse: false },
            ExecEngine::Predecoded { fuse: true },
            ExecEngine::Threaded,
            ExecEngine::default(),
        ] {
            let mut vm = Vm::new(cs.clone(), 1 << 20);
            vm.set_engine(engine);
            assert_eq!(
                vm.call(addr + 4, &[1]),
                Err(VmError::StaleCode(addr + 4)),
                "{engine:?}"
            );
            assert_eq!((vm.cycles(), vm.insns()), (0, 0), "{engine:?}");
            // A misaligned address is the engines' to refuse.
            assert_eq!(vm.call(addr + 6, &[1]), Err(VmError::BadPc(addr + 6)));
            assert_eq!(vm.call(addr, &[1]), Ok(2), "{engine:?}");
        }
    }

    #[test]
    fn cycle_costs_accumulate_per_model() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::r(Op::Mulw, A0, A0, A1));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        let mut vm = Vm::new(cs, 1 << 20);
        vm.call(addr, &[6, 7]).unwrap();
        let m = CostModel::default();
        assert_eq!(vm.cycles(), m.mul + m.call); // mulw + jalr(ret)
        assert_eq!(vm.insns(), 2);
    }

    #[test]
    fn halt_exits() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn {
            op: Op::Halt,
            rd: 0,
            rs1: 0,
            rs2: 0,
            imm: 0,
        });
        cs.finish_function(f).unwrap();
        let mut vm = Vm::new(cs, 1 << 20);
        assert_eq!(vm.run(CODE_BASE).unwrap(), ExitStatus::Halted);
    }

    #[test]
    fn hcall_reaches_host_closure() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::i(Op::Hcall, ZERO, ZERO, 7));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        let host = |num: u32, st: &mut MachineState| {
            st.set_ret(num as u64 * 6);
            Ok(())
        };
        let mut vm = Vm::with_host(cs, 1 << 20, host);
        assert_eq!(vm.call(addr, &[0]).unwrap(), 42);
    }

    #[test]
    fn nohost_faults_on_hcall() {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::i(Op::Hcall, ZERO, ZERO, 3));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        let mut vm = Vm::new(cs, 1 << 20);
        assert_eq!(vm.call(addr, &[]), Err(VmError::BadHostCall(3)));
    }

    #[test]
    fn at_registers_usable_as_scratch() {
        let got = run1(
            &[
                Insn::i(Op::Addid, AT0, ZERO, 40),
                Insn::i(Op::Addiw, A0, AT0, 2),
            ],
            &[0],
        )
        .unwrap();
        assert_eq!(got, 42);
    }

    use crate::regs::{RA, SP};
}
