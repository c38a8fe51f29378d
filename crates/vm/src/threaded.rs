//! The direct-threaded execution engine with basic-block fuel batching.
//!
//! The predecoded engine ([`crate::predecode`]) already hoists decode
//! and cost lookup to translation time, but still pays a `match` over
//! the decoded enum plus a fuel compare on every retired instruction.
//! This engine removes both:
//!
//! * **Direct threading.** Translation stores a handler *function
//!   pointer* in every slot (`TSlot::handler`), picked once per
//!   instruction from a fixed handler table: one specialized executor
//!   per scalar opcode (so `exec_scalar`'s 70-arm `match` constant-folds
//!   away inside each), one handler per branch predicate, and one each
//!   for jumps, calls, halt, host calls, and undecodable words. The run
//!   loop is a tight `(slot.handler)(vm, tr, frame)` dispatch.
//!
//! * **Basic-block fuel batching.** Translation splits each function
//!   into maximal straight-line scalar runs and stores, per slot, the
//!   summed cycle cost of the run *suffix* starting there (a scalar
//!   slot's `TSlot::cost`) — so entering mid-run (branch targets,
//!   return addresses) still sees a correct block summary. At run
//!   entry, if the whole suffix fits in the remaining fuel it is
//!   charged once and the constituent instructions execute with no
//!   per-instruction fuel compare or counter update. Early exits
//!   reconcile: a faulting instruction (bad address, division trap)
//!   un-charges the unexecuted tail so observable `cycles`/`insns`
//!   match the reference engine exactly, and a run whose cost does
//!   *not* fit falls back to per-instruction charging so
//!   [`VmError::OutOfFuel`] lands on the exact same instruction as
//!   decode-per-step.
//!
//! # Equivalence contract
//!
//! Identical to the predecoded engine's: same results, same `cycles`,
//! same `insns`, same exit status, same error at the same instruction,
//! for every fuel budget. `tests/exec_differential.rs` sweeps fuel
//! budgets across all engines to enforce this, including budgets that
//! land exactly on block boundaries and mid-block.
//!
//! # Reconciliation rules
//!
//! With `run_cost` the summed cost of the scalar run suffix `[k0, n)`
//! entered at slot `k0`:
//!
//! 1. `cycles + run_cost <= fuel`: charge `run_cost` up front
//!    (`batched_blocks += 1`); no prefix of the run can exhaust fuel,
//!    so constituents execute unchecked. If constituent `k` faults,
//!    un-charge the suffix from `k` (the faulting instruction is
//!    neither charged nor retired, as in the reference engine) and
//!    count `fuel_reconciliations += 1`.
//! 2. Otherwise: execute the run per-instruction in reference order
//!    (execute, charge, retire, fuel-check) — exhaustion is exact.
//! 3. Branches, jumps, calls, halt, and host calls always charge
//!    individually; a host call flushes counters first (the host
//!    observes and may mutate them) and re-checks the live epoch
//!    after returning, exactly like the predecoded engine.
//!
//! # Superinstructions
//!
//! A fusion pass over the translated slots compiles the hottest fused
//! shapes the predecoded engine's table identifies into combined
//! handlers that execute the whole group with **one** dispatch:
//!
//! * **run+jump** — a scalar run whose suffix falls into an
//!   unconditional `j` (the back edge of every counted loop);
//! * **run+branch** — a scalar run whose *last* constituent feeds the
//!   following branch (`last.rd` is one of the compared registers),
//!   the same feed gate as the predecoded engine's `FusedBr`, so the
//!   ICODE fusion-aware scheduler is measurable on this engine too;
//! * **pair**/**triple** — straight-line runs of exactly two or three
//!   scalars, executed by monomorphized handlers with a compile-time
//!   trip count.
//!
//! Fusion is slot-preserving: a fused handler lives in the *first*
//! constituent's slot and every other slot keeps its unfused entry, so
//! control transfers landing mid-group dispatch normally and the
//! trap/OutOfFuel reconciliation rules above apply bit-identically.
//! The scalar part of a fused group charges by the run rules (1)/(2);
//! the trailing jump/branch charges individually per rule (3) by
//! delegating to the *control slot's own* fields — observables cannot
//! diverge from unfused execution. Translation counts the groups in
//! [`crate::predecode::ExecStats::superinstructions`]; each fused
//! dispatch counts in `fused_dispatches`, and every dispatch-loop
//! iteration in `dispatches`.

use std::fmt;
use std::sync::Arc;

use crate::code::CODE_BASE;
use crate::cost::CostModel;
use crate::error::VmError;
use crate::host::HostCall;
use crate::interp::{exec_scalar, ExitStatus, MachineState, Step, Vm, RETURN_SENTINEL};
use crate::isa::{Insn, Op};
use crate::predecode::Translation;

/// Specialized scalar handlers (one per straight-line opcode).
pub const SCALAR_HANDLERS: u64 = 70;
/// Control handlers: the run-entry handler, ten branch predicates,
/// jump/jal/jalr, halt, hcall, and the undecodable-word trap.
pub const CONTROL_HANDLERS: u64 = 17;
/// Superinstruction handlers: the fused run+jump handler, ten fused
/// run+branch handlers (one per predicate, feed-gated like the
/// predecoded engine's `FusedBr`), and the monomorphized straight-line
/// pair and triple handlers.
pub const SUPER_HANDLERS: u64 = 13;
/// Total size of the direct-threaded handler table, reported in
/// [`crate::predecode::ExecStats::handlers`] once the threaded engine
/// has translated.
pub const HANDLER_TABLE_SIZE: u64 = SCALAR_HANDLERS + CONTROL_HANDLERS + SUPER_HANDLERS;

/// A scalar executor specialized to one opcode: `exec_scalar` with the
/// `op` argument constant-folded away.
type ScalarFn = fn(&mut MachineState, &SHalf) -> Result<(), VmError>;

/// One instruction of a straight-line run: unpacked operands, the
/// specialized executor, and the baked-in cycle cost. `op` rides along
/// (in what was padding) so the batched run loop can inline the
/// hottest non-faulting opcodes and skip the indirect call entirely
/// (see [`exec_half`]).
#[derive(Clone, Copy)]
pub(crate) struct SHalf {
    f: ScalarFn,
    rd: u8,
    rs1: u8,
    rs2: u8,
    op: Op,
    imm: i32,
    cost: u32,
}

/// Handler signature: executes the slot at `fr.i` (updating the frame
/// in place) and says whether dispatch continues inside the buffer.
type Handler<H> = fn(&mut Vm<H>, &ThreadedFn<H>, &mut Frame) -> Ctl;

/// Handler outcome: keep threading, or leave the buffer with a result.
enum Ctl {
    Cont,
    Exit(Result<Step, VmError>),
}

/// In-flight dispatch state, kept in locals (well, one struct of them)
/// and flushed to [`MachineState`] on every exit edge.
struct Frame {
    /// Current buffer index.
    i: usize,
    /// Shadow of `state.cycles`.
    cycles: u64,
    /// Shadow of `state.insns`.
    insns: u64,
    /// `state.insns` as of the last flush (for fast_insns accounting).
    entry_insns: u64,
    /// The fuel budget (immutable during a run).
    fuel: u64,
    /// Dispatch-loop iterations since the last flush.
    dispatches: u64,
}

/// One translated slot: the handler pointer plus the operands it needs,
/// 32 bytes (two to a cache line; every translated word carries one).
/// Field meaning depends on the handler:
///
/// * scalar runs (`h_run`): `a`/`b` index the suffix `halves[a..a+b]`,
///   `cost` is that suffix's summed cost (what the batched entry
///   charges up front);
/// * branches: `rd`/`rs1` compared, `cost`/`taken_cost` charged,
///   `target` is a pre-resolved buffer index;
/// * `hcall`: `a` is the host-call number; traps: `a` is the opcode.
pub(crate) struct TSlot<H> {
    handler: Handler<H>,
    a: u32,
    b: u32,
    cost: u32,
    taken_cost: u32,
    target: i32,
    rd: u8,
    rs1: u8,
}

// Manual impls: `derive` would put an `H: Clone`/`H: Copy` bound on
// them, but the slot only stores a *pointer* to a handler over `H`.
impl<H> Clone for TSlot<H> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<H> Copy for TSlot<H> {}

/// One function's direct-threaded form: one [`TSlot`] per code word
/// (addressed by `(pc - base) / 4`) plus the dense scalar-run pool.
pub(crate) struct ThreadedFn<H> {
    /// Absolute address of slot index 0.
    base: u64,
    slots: Vec<TSlot<H>>,
    /// All scalar instructions, in order; each run is a contiguous
    /// range so batched execution iterates a plain slice.
    halves: Vec<SHalf>,
    /// Superinstruction groups compiled into the buffer (stat
    /// preseeding, merged on install like `SharedTranslation`'s
    /// `fused_pairs`).
    pub(crate) superinstructions: u64,
    /// Shape → count for those groups ("addw+beq", "addiw+j", ...),
    /// merged into the cache-wide histogram on install.
    pub(crate) shapes: Vec<(String, u64)>,
}

impl<H> fmt::Debug for ThreadedFn<H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadedFn")
            .field("base", &self.base)
            .field("slots", &self.slots.len())
            .field("halves", &self.halves.len())
            .field("superinstructions", &self.superinstructions)
            .finish()
    }
}

/// Returns the specialized executor for a scalar opcode. Each arm
/// instantiates [`exec_scalar`] with a constant `Op`, so the inner
/// dispatch `match` folds away and the handler body is just that
/// opcode's semantics.
fn scalar_fn(op: Op) -> ScalarFn {
    macro_rules! h {
        ($op:ident) => {{
            fn go(st: &mut MachineState, s: &SHalf) -> Result<(), VmError> {
                exec_scalar(st, Op::$op, s.rd, s.rs1, s.rs2, s.imm)
            }
            go
        }};
    }
    match op {
        Op::Nop => h!(Nop),
        Op::Addw => h!(Addw),
        Op::Subw => h!(Subw),
        Op::Mulw => h!(Mulw),
        Op::Divw => h!(Divw),
        Op::Divuw => h!(Divuw),
        Op::Remw => h!(Remw),
        Op::Remuw => h!(Remuw),
        Op::Addd => h!(Addd),
        Op::Subd => h!(Subd),
        Op::Muld => h!(Muld),
        Op::Divd => h!(Divd),
        Op::Divud => h!(Divud),
        Op::Remd => h!(Remd),
        Op::Remud => h!(Remud),
        Op::And => h!(And),
        Op::Or => h!(Or),
        Op::Xor => h!(Xor),
        Op::Sllw => h!(Sllw),
        Op::Srlw => h!(Srlw),
        Op::Sraw => h!(Sraw),
        Op::Slld => h!(Slld),
        Op::Srld => h!(Srld),
        Op::Srad => h!(Srad),
        Op::Seq => h!(Seq),
        Op::Sne => h!(Sne),
        Op::Sltw => h!(Sltw),
        Op::Sltuw => h!(Sltuw),
        Op::Sltd => h!(Sltd),
        Op::Sltud => h!(Sltud),
        Op::Addiw => h!(Addiw),
        Op::Addid => h!(Addid),
        Op::Andi => h!(Andi),
        Op::Ori => h!(Ori),
        Op::Xori => h!(Xori),
        Op::Slliw => h!(Slliw),
        Op::Srliw => h!(Srliw),
        Op::Sraiw => h!(Sraiw),
        Op::Sllid => h!(Sllid),
        Op::Srlid => h!(Srlid),
        Op::Sraid => h!(Sraid),
        Op::Sethi => h!(Sethi),
        Op::Lb => h!(Lb),
        Op::Lbu => h!(Lbu),
        Op::Lh => h!(Lh),
        Op::Lhu => h!(Lhu),
        Op::Lw => h!(Lw),
        Op::Lwu => h!(Lwu),
        Op::Ld => h!(Ld),
        Op::Fld => h!(Fld),
        Op::Sb => h!(Sb),
        Op::Sh => h!(Sh),
        Op::Sw => h!(Sw),
        Op::Sd => h!(Sd),
        Op::Fsd => h!(Fsd),
        Op::Fadd => h!(Fadd),
        Op::Fsub => h!(Fsub),
        Op::Fmul => h!(Fmul),
        Op::Fdiv => h!(Fdiv),
        Op::Fneg => h!(Fneg),
        Op::Fmov => h!(Fmov),
        Op::Feq => h!(Feq),
        Op::Flt => h!(Flt),
        Op::Fle => h!(Fle),
        Op::Cvtwd => h!(Cvtwd),
        Op::Cvtdw => h!(Cvtdw),
        Op::Cvtld => h!(Cvtld),
        Op::Cvtdl => h!(Cvtdl),
        Op::Fmvdx => h!(Fmvdx),
        Op::Fmvxd => h!(Fmvxd),
        // Control opcodes never reach here: translation routes them to
        // their own handlers.
        Op::Halt | Op::Hcall | Op::J | Op::Jal | Op::Jalr => unreachable!("control op {op:?}"),
        op if op.is_branch() => unreachable!("branch op {op:?}"),
        #[allow(unreachable_patterns)]
        op => unreachable!("unrouted op {op:?}"),
    }
}

/// Returns the handler for one branch predicate, with `branch_taken`'s
/// dispatch constant-folded away.
fn branch_fn<H: HostCall>(op: Op) -> Handler<H> {
    macro_rules! b {
        ($op:ident) => {{
            fn go<H: HostCall>(vm: &mut Vm<H>, tr: &ThreadedFn<H>, fr: &mut Frame) -> Ctl {
                let slot = &tr.slots[fr.i];
                let x = vm.state.reg(slot.rd);
                let y = vm.state.reg(slot.rs1);
                let taken = crate::interp::branch_taken(Op::$op, x, y);
                branch_common(vm, tr, fr, taken)
            }
            go::<H>
        }};
    }
    match op {
        Op::Beq => b!(Beq),
        Op::Bne => b!(Bne),
        Op::Bltw => b!(Bltw),
        Op::Bgew => b!(Bgew),
        Op::Bltuw => b!(Bltuw),
        Op::Bgeuw => b!(Bgeuw),
        Op::Bltd => b!(Bltd),
        Op::Bged => b!(Bged),
        Op::Bltud => b!(Bltud),
        Op::Bgeud => b!(Bgeud),
        op => unreachable!("not a branch: {op:?}"),
    }
}

/// Writes the shadow counters back to machine state and accounts the
/// retired instructions as fast-path. Idempotent.
#[inline(always)]
fn flush<H: HostCall>(vm: &mut Vm<H>, fr: &mut Frame) {
    vm.state.cycles = fr.cycles;
    vm.state.insns = fr.insns;
    vm.trans.stats.fast_insns += fr.insns - fr.entry_insns;
    fr.entry_insns = fr.insns;
    vm.trans.stats.dispatches += fr.dispatches;
    fr.dispatches = 0;
}

/// Advances `n` slots, exiting at the pc past the end if the buffer is
/// exhausted (mirrors the predecoded engine's `advance!`).
#[inline(always)]
fn advance<H: HostCall>(vm: &mut Vm<H>, tr: &ThreadedFn<H>, fr: &mut Frame, n: usize) -> Ctl {
    fr.i += n;
    if fr.i >= tr.slots.len() {
        flush(vm, fr);
        return Ctl::Exit(Ok(Step::At(tr.base.wrapping_add((fr.i as u64) * 4))));
    }
    Ctl::Cont
}

/// Transfers control to buffer index `t`: stays inside when it lands
/// in-buffer, exits to the equivalent pc otherwise (negative indices
/// wrap exactly like the reference engine's pc arithmetic).
#[inline(always)]
fn goto<H: HostCall>(vm: &mut Vm<H>, tr: &ThreadedFn<H>, fr: &mut Frame, t: i64) -> Ctl {
    if (t as u64) < tr.slots.len() as u64 {
        fr.i = t as usize;
        Ctl::Cont
    } else {
        flush(vm, fr);
        Ctl::Exit(Ok(Step::At(
            tr.base.wrapping_add((t as u64).wrapping_mul(4)),
        )))
    }
}

/// Shared charge/retire/fuel-check/transfer tail of every branch
/// handler.
#[inline(always)]
fn branch_common<H: HostCall>(
    vm: &mut Vm<H>,
    tr: &ThreadedFn<H>,
    fr: &mut Frame,
    taken: bool,
) -> Ctl {
    let slot = &tr.slots[fr.i];
    fr.cycles += u64::from(if taken { slot.taken_cost } else { slot.cost });
    fr.insns += 1;
    if fr.cycles > fr.fuel {
        flush(vm, fr);
        return Ctl::Exit(Err(VmError::OutOfFuel));
    }
    if taken {
        goto(vm, tr, fr, i64::from(slot.target))
    } else {
        advance(vm, tr, fr, 1)
    }
}

/// Executes one constituent of a scalar run. The hottest opcodes are
/// dispatched inline — each arm calls [`exec_scalar`] with a
/// *constant* `Op`, so the semantics are literally the shared
/// interpreter's with its 70-arm `match` folded away, and the run
/// loop pays a predictable jump instead of an indirect call (the
/// call's register spills were the last per-instruction tax). Cold
/// opcodes fall back to the slot's specialized function pointer,
/// which executes identically.
#[inline(always)]
fn exec_half(st: &mut MachineState, s: &SHalf) -> Result<(), VmError> {
    macro_rules! i {
        ($op:ident) => {
            exec_scalar(st, Op::$op, s.rd, s.rs1, s.rs2, s.imm)
        };
    }
    match s.op {
        Op::Addw => i!(Addw),
        Op::Subw => i!(Subw),
        Op::Mulw => i!(Mulw),
        Op::Addd => i!(Addd),
        Op::And => i!(And),
        Op::Or => i!(Or),
        Op::Xor => i!(Xor),
        Op::Sllw => i!(Sllw),
        Op::Srlw => i!(Srlw),
        Op::Sraw => i!(Sraw),
        Op::Seq => i!(Seq),
        Op::Sne => i!(Sne),
        Op::Sltw => i!(Sltw),
        Op::Sltd => i!(Sltd),
        Op::Addiw => i!(Addiw),
        Op::Addid => i!(Addid),
        Op::Andi => i!(Andi),
        Op::Ori => i!(Ori),
        Op::Xori => i!(Xori),
        Op::Slliw => i!(Slliw),
        Op::Srliw => i!(Srliw),
        Op::Sraiw => i!(Sraiw),
        Op::Sllid => i!(Sllid),
        Op::Srlid => i!(Srlid),
        Op::Sraid => i!(Sraid),
        Op::Sethi => i!(Sethi),
        Op::Lw => i!(Lw),
        Op::Ld => i!(Ld),
        Op::Sw => i!(Sw),
        Op::Sd => i!(Sd),
        _ => (s.f)(st, s),
    }
}

/// Executes one scalar run (`halves`, summed suffix cost `run_cost`)
/// under the fuel-batching reconciliation rules, leaving `fr.i`
/// untouched. Returns `Some(exit)` when the run faulted or exhausted
/// fuel (counters already flushed), `None` when every constituent
/// retired. `#[inline(always)]` so each caller — the generic run
/// handler and every superinstruction handler — monomorphizes its own
/// copy (with a compile-time trip count when the slice length is
/// statically known).
#[inline(always)]
fn exec_run<H: HostCall>(
    vm: &mut Vm<H>,
    fr: &mut Frame,
    halves: &[SHalf],
    run_cost: u64,
) -> Option<Ctl> {
    let n = halves.len();
    if let Some(total) = fr.cycles.checked_add(run_cost) {
        if total <= fr.fuel {
            vm.trans.stats.batched_blocks += 1;
            fr.cycles = total;
            for (k, s) in halves.iter().enumerate() {
                if let Err(e) = exec_half(&mut vm.state, s) {
                    // Un-charge the unexecuted tail (the faulting
                    // instruction included): observable counters must
                    // match a reference engine that stopped here.
                    let tail: u64 = halves[k..].iter().map(|h| u64::from(h.cost)).sum();
                    fr.cycles -= tail;
                    fr.insns += k as u64;
                    vm.trans.stats.fuel_reconciliations += 1;
                    flush(vm, fr);
                    return Some(Ctl::Exit(Err(e)));
                }
            }
            fr.insns += n as u64;
            return None;
        }
    }
    // The run does not fit (or the cycle counter would saturate):
    // per-instruction reference order, so exhaustion is exact.
    for s in halves {
        if let Err(e) = exec_half(&mut vm.state, s) {
            flush(vm, fr);
            return Some(Ctl::Exit(Err(e)));
        }
        fr.cycles += u64::from(s.cost);
        fr.insns += 1;
        if fr.cycles > fr.fuel {
            flush(vm, fr);
            return Some(Ctl::Exit(Err(VmError::OutOfFuel)));
        }
    }
    None
}

/// Scalar-run entry: the fuel-batching handler (reconciliation rules
/// in the module docs).
fn h_run<H: HostCall>(vm: &mut Vm<H>, tr: &ThreadedFn<H>, fr: &mut Frame) -> Ctl {
    let slot = &tr.slots[fr.i];
    let n = slot.b as usize;
    let halves = &tr.halves[slot.a as usize..slot.a as usize + n];
    if let Some(exit) = exec_run(vm, fr, halves, u64::from(slot.cost)) {
        return exit;
    }
    advance(vm, tr, fr, n)
}

/// Superinstruction: scalar run + unconditional jump, one dispatch.
/// The run part follows the batching rules; the jump then charges
/// individually off its *own* slot (rule 3), exactly as if dispatched.
fn h_run_j<H: HostCall>(vm: &mut Vm<H>, tr: &ThreadedFn<H>, fr: &mut Frame) -> Ctl {
    vm.trans.stats.fused_dispatches += 1;
    let slot = &tr.slots[fr.i];
    let n = slot.b as usize;
    let halves = &tr.halves[slot.a as usize..slot.a as usize + n];
    if let Some(exit) = exec_run(vm, fr, halves, u64::from(slot.cost)) {
        return exit;
    }
    fr.i += n;
    h_jump(vm, tr, fr)
}

/// Superinstruction: straight-line pair, one dispatch with a
/// compile-time trip count of 2.
fn h_pair<H: HostCall>(vm: &mut Vm<H>, tr: &ThreadedFn<H>, fr: &mut Frame) -> Ctl {
    vm.trans.stats.fused_dispatches += 1;
    let slot = &tr.slots[fr.i];
    let a = slot.a as usize;
    let halves: &[SHalf; 2] = tr.halves[a..a + 2].try_into().expect("pair slot covers 2");
    if let Some(exit) = exec_run(vm, fr, halves, u64::from(slot.cost)) {
        return exit;
    }
    advance(vm, tr, fr, 2)
}

/// Superinstruction: straight-line triple, one dispatch with a
/// compile-time trip count of 3.
fn h_triple<H: HostCall>(vm: &mut Vm<H>, tr: &ThreadedFn<H>, fr: &mut Frame) -> Ctl {
    vm.trans.stats.fused_dispatches += 1;
    let slot = &tr.slots[fr.i];
    let a = slot.a as usize;
    let halves: &[SHalf; 3] = tr.halves[a..a + 3]
        .try_into()
        .expect("triple slot covers 3");
    if let Some(exit) = exec_run(vm, fr, halves, u64::from(slot.cost)) {
        return exit;
    }
    advance(vm, tr, fr, 3)
}

/// Returns the superinstruction handler fusing a scalar run with the
/// branch predicate `op`, with `branch_taken`'s dispatch
/// constant-folded away. After the run retires, `fr.i` steps onto the
/// branch's own slot, so the predicate reads and charges exactly the
/// fields an unfused dispatch would.
fn run_branch_fn<H: HostCall>(op: Op) -> Handler<H> {
    macro_rules! rb {
        ($op:ident) => {{
            fn go<H: HostCall>(vm: &mut Vm<H>, tr: &ThreadedFn<H>, fr: &mut Frame) -> Ctl {
                vm.trans.stats.fused_dispatches += 1;
                let slot = &tr.slots[fr.i];
                let n = slot.b as usize;
                let halves = &tr.halves[slot.a as usize..slot.a as usize + n];
                if let Some(exit) = exec_run(vm, fr, halves, u64::from(slot.cost)) {
                    return exit;
                }
                fr.i += n;
                let bslot = &tr.slots[fr.i];
                let x = vm.state.reg(bslot.rd);
                let y = vm.state.reg(bslot.rs1);
                let taken = crate::interp::branch_taken(Op::$op, x, y);
                branch_common(vm, tr, fr, taken)
            }
            go::<H>
        }};
    }
    match op {
        Op::Beq => rb!(Beq),
        Op::Bne => rb!(Bne),
        Op::Bltw => rb!(Bltw),
        Op::Bgew => rb!(Bgew),
        Op::Bltuw => rb!(Bltuw),
        Op::Bgeuw => rb!(Bgeuw),
        Op::Bltd => rb!(Bltd),
        Op::Bged => rb!(Bged),
        Op::Bltud => rb!(Bltud),
        Op::Bgeud => rb!(Bgeud),
        op => unreachable!("not a branch: {op:?}"),
    }
}

fn h_jump<H: HostCall>(vm: &mut Vm<H>, tr: &ThreadedFn<H>, fr: &mut Frame) -> Ctl {
    let slot = &tr.slots[fr.i];
    fr.cycles += u64::from(slot.cost);
    fr.insns += 1;
    if fr.cycles > fr.fuel {
        flush(vm, fr);
        return Ctl::Exit(Err(VmError::OutOfFuel));
    }
    goto(vm, tr, fr, i64::from(slot.target))
}

fn h_jal<H: HostCall>(vm: &mut Vm<H>, tr: &ThreadedFn<H>, fr: &mut Frame) -> Ctl {
    let slot = &tr.slots[fr.i];
    vm.state
        .set_reg(crate::regs::RA.0, tr.base + (fr.i as u64 + 1) * 4);
    fr.cycles += u64::from(slot.cost);
    fr.insns += 1;
    if fr.cycles > fr.fuel {
        flush(vm, fr);
        return Ctl::Exit(Err(VmError::OutOfFuel));
    }
    goto(vm, tr, fr, i64::from(slot.target))
}

fn h_jalr<H: HostCall>(vm: &mut Vm<H>, tr: &ThreadedFn<H>, fr: &mut Frame) -> Ctl {
    let slot = &tr.slots[fr.i];
    let target = vm.state.reg(slot.rs1);
    vm.state.set_reg(slot.rd, tr.base + (fr.i as u64 + 1) * 4);
    fr.cycles += u64::from(slot.cost);
    fr.insns += 1;
    if fr.cycles > fr.fuel {
        flush(vm, fr);
        return Ctl::Exit(Err(VmError::OutOfFuel));
    }
    // Stay in-buffer for indirect loops; liveness can only change via
    // a host call, which revalidates.
    let len = tr.slots.len() as u64;
    if target >= tr.base && target < tr.base + len * 4 && (target - tr.base).is_multiple_of(4) {
        fr.i = ((target - tr.base) / 4) as usize;
        Ctl::Cont
    } else {
        flush(vm, fr);
        Ctl::Exit(Ok(Step::At(target)))
    }
}

fn h_halt<H: HostCall>(vm: &mut Vm<H>, tr: &ThreadedFn<H>, fr: &mut Frame) -> Ctl {
    // Charged but never fuel-checked (the run is over) — reference
    // engine behavior.
    let slot = &tr.slots[fr.i];
    fr.cycles += u64::from(slot.cost);
    fr.insns += 1;
    flush(vm, fr);
    Ctl::Exit(Ok(Step::Done(ExitStatus::Halted)))
}

fn h_hcall<H: HostCall>(vm: &mut Vm<H>, tr: &ThreadedFn<H>, fr: &mut Frame) -> Ctl {
    let slot = &tr.slots[fr.i];
    let num = slot.a;
    let cost = u64::from(slot.cost);
    // The host observes counters as of before this instruction retires,
    // and may mutate them (or the code space) arbitrarily.
    flush(vm, fr);
    vm.state.hcalls += 1;
    if let Err(e) = vm.host.call(num, &mut vm.state) {
        return Ctl::Exit(Err(e));
    }
    fr.cycles = vm.state.cycles;
    fr.insns = vm.state.insns;
    fr.entry_insns = fr.insns;
    fr.cycles += cost;
    fr.insns += 1;
    if fr.cycles > fr.fuel {
        flush(vm, fr);
        return Ctl::Exit(Err(VmError::OutOfFuel));
    }
    if vm.state.code.live_epoch() != vm.trans.epoch {
        // The host freed or patched code; leave the buffer so the
        // outer loop revalidates.
        fr.i += 1;
        flush(vm, fr);
        return Ctl::Exit(Ok(Step::At(tr.base.wrapping_add((fr.i as u64) * 4))));
    }
    advance(vm, tr, fr, 1)
}

fn h_trap<H: HostCall>(vm: &mut Vm<H>, tr: &ThreadedFn<H>, fr: &mut Frame) -> Ctl {
    let slot = &tr.slots[fr.i];
    flush(vm, fr);
    Ctl::Exit(Err(VmError::BadOpcode(slot.a as u8)))
}

/// Buffer index a control transfer at index `i` with word offset `imm`
/// lands on.
fn rel_target(i: usize, imm: i32) -> i32 {
    i32::try_from(i as i64 + 1 + i64::from(imm)).expect("branch target fits i32")
}

fn icost(c: u64) -> u32 {
    u32::try_from(c).expect("per-insn cost fits u32")
}

/// Translates the sealed words of the range starting at word index
/// `start` into a direct-threaded buffer with per-slot run-suffix cost
/// summaries.
///
/// Takes the raw words (not the `CodeSpace`) so the adaptive engine's
/// background worker can run it over a snapshot without holding any
/// borrow of the VM; `start` only positions the buffer's base address.
pub(crate) fn translate<H: HostCall>(
    words: &[u32],
    start: usize,
    cost: &CostModel,
) -> ThreadedFn<H> {
    /// What kind of slot translation produced — consumed by the
    /// superinstruction fusion pass below.
    enum CtlKind {
        Scalar,
        Jump,
        Branch(Op),
        Other,
    }
    let mut slots: Vec<TSlot<H>> = Vec::with_capacity(words.len());
    let mut halves: Vec<SHalf> = Vec::with_capacity(words.len());
    let mut half_ops: Vec<Op> = Vec::with_capacity(words.len());
    let mut kinds: Vec<CtlKind> = Vec::with_capacity(words.len());
    let blank = |handler: Handler<H>| TSlot {
        handler,
        a: 0,
        b: 0,
        cost: 0,
        taken_cost: 0,
        target: 0,
        rd: 0,
        rs1: 0,
    };
    for (i, &word) in words.iter().enumerate() {
        let insn = match Insn::decode(word) {
            Ok(insn) => insn,
            Err(_) => {
                let mut t = blank(h_trap::<H>);
                t.a = u32::from((word >> 24) as u8);
                slots.push(t);
                kinds.push(CtlKind::Other);
                continue;
            }
        };
        let c = icost(cost.cost(insn.op));
        let slot = match insn.op {
            Op::Halt => {
                let mut t = blank(h_halt::<H>);
                t.cost = c;
                t
            }
            Op::Hcall => {
                let mut t = blank(h_hcall::<H>);
                t.a = insn.imm as u32;
                t.cost = c;
                t
            }
            Op::J => {
                let mut t = blank(h_jump::<H>);
                t.cost = c;
                t.target = rel_target(i, insn.imm);
                t
            }
            Op::Jal => {
                let mut t = blank(h_jal::<H>);
                t.cost = c;
                t.target = rel_target(i, insn.imm);
                t
            }
            Op::Jalr => {
                let mut t = blank(h_jalr::<H>);
                t.rd = insn.rd;
                t.rs1 = insn.rs1;
                t.cost = c;
                t
            }
            op if op.is_branch() => {
                let mut t = blank(branch_fn::<H>(op));
                t.rd = insn.rd;
                t.rs1 = insn.rs1;
                t.cost = c;
                t.taken_cost = icost(cost.cost(op) + cost.branch_taken_extra);
                t.target = rel_target(i, insn.imm);
                t
            }
            op => {
                let mut t = blank(h_run::<H>);
                t.a = u32::try_from(halves.len()).expect("function fits u32 slots");
                t.b = 1;
                t.cost = c;
                halves.push(SHalf {
                    f: scalar_fn(op),
                    rd: insn.rd,
                    rs1: insn.rs1,
                    rs2: insn.rs2,
                    op,
                    imm: insn.imm,
                    cost: c,
                });
                half_ops.push(op);
                t
            }
        };
        slots.push(slot);
        kinds.push(match insn.op {
            Op::J => CtlKind::Jump,
            Op::Halt | Op::Hcall | Op::Jal | Op::Jalr => CtlKind::Other,
            op if op.is_branch() => CtlKind::Branch(op),
            _ => CtlKind::Scalar,
        });
    }
    // Backward pass: extend each scalar slot's run summary with its
    // successor's, turning `b`/`cost` into suffix length and cost.
    for i in (0..slots.len().saturating_sub(1)).rev() {
        if slots[i].b > 0 && slots[i + 1].b > 0 {
            slots[i].b += slots[i + 1].b;
            slots[i].cost = slots[i]
                .cost
                .checked_add(slots[i + 1].cost)
                .expect("run cost fits u32");
        }
    }
    // Superinstruction fusion pass (slot-preserving: only the group's
    // first slot changes handler, so mid-group control transfers still
    // dispatch the unfused entries). Control fusion wins over the
    // straight-line pair/triple forms — it saves a dispatch per loop
    // iteration rather than per straight-line entry.
    let mut superinstructions = 0u64;
    let mut shape_counts: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    for i in 0..slots.len() {
        let n = slots[i].b as usize;
        if n == 0 {
            continue; // not a scalar slot
        }
        let last = slots[i].a as usize + n - 1;
        let j = i + n;
        let shape = match kinds.get(j) {
            Some(CtlKind::Jump) => {
                slots[i].handler = h_run_j::<H>;
                format!("{}+j", half_ops[last].mnemonic())
            }
            Some(&CtlKind::Branch(bop))
                if halves[last].rd == slots[j].rd || halves[last].rd == slots[j].rs1 =>
            {
                slots[i].handler = run_branch_fn::<H>(bop);
                format!("{}+{}", half_ops[last].mnemonic(), bop.mnemonic())
            }
            _ if n == 2 => {
                slots[i].handler = h_pair::<H>;
                let a = slots[i].a as usize;
                format!("{}+{}", half_ops[a].mnemonic(), half_ops[a + 1].mnemonic())
            }
            _ if n == 3 => {
                slots[i].handler = h_triple::<H>;
                let a = slots[i].a as usize;
                format!(
                    "{}+{}+{}",
                    half_ops[a].mnemonic(),
                    half_ops[a + 1].mnemonic(),
                    half_ops[a + 2].mnemonic()
                )
            }
            _ => continue,
        };
        superinstructions += 1;
        *shape_counts.entry(shape).or_insert(0) += 1;
    }
    ThreadedFn {
        base: CODE_BASE + (start as u64) * 4,
        slots,
        halves,
        superinstructions,
        shapes: shape_counts.into_iter().collect(),
    }
}

impl<H: HostCall> Vm<H> {
    /// The direct-threaded engine's run loop. Structure matches
    /// `run_predecoded`: threaded dispatch where a translation exists,
    /// reference-engine single steps where one doesn't, so every fault
    /// is raised by the exact same code on both paths.
    pub(crate) fn run_threaded(&mut self, mut pc: u64) -> Result<ExitStatus, VmError> {
        loop {
            if pc == RETURN_SENTINEL {
                return Ok(ExitStatus::Returned);
            }
            let step = match self.threaded_at(pc) {
                Some(tr) => self.dispatch_threaded(&tr, pc)?,
                None => {
                    let step = self.step_slow(pc)?;
                    self.trans.stats.slow_insns += 1;
                    step
                }
            };
            match step {
                Step::At(next) => pc = next,
                Step::Done(status) => return Ok(status),
            }
        }
    }

    /// Looks up (or lazily builds) the threaded buffer covering `pc`,
    /// validating the cache against the code space's live epoch first.
    pub(crate) fn threaded_at(&mut self, pc: u64) -> Option<Arc<ThreadedFn<H>>> {
        self.trans.sync_epoch(&self.state.code);
        let fi = self.record_at(pc)?;
        if let Translation::Threaded(tr) = &self.trans.tier_fns[fi as usize].tr {
            return Some(Arc::clone(tr));
        }
        Some(self.build_threaded(fi))
    }

    /// Translates record `fi`'s function into a threaded buffer and
    /// installs it on the record (releasing a decoded buffer held
    /// there).
    pub(crate) fn build_threaded(&mut self, fi: u32) -> Arc<ThreadedFn<H>> {
        let (start, end) = self.trans.tier_fns[fi as usize].range();
        let tr = Arc::new(translate::<H>(
            self.state.code.word_slice(start, end),
            start,
            &self.cost,
        ));
        self.trans
            .install(fi, Translation::Threaded(Arc::clone(&tr)));
        tr
    }

    /// The tight loop: call the current slot's handler until control
    /// leaves the buffer, a run terminates, or an error is raised.
    pub(crate) fn dispatch_threaded(
        &mut self,
        tr: &ThreadedFn<H>,
        pc: u64,
    ) -> Result<Step, VmError> {
        let mut fr = Frame {
            i: ((pc - tr.base) / 4) as usize,
            cycles: self.state.cycles,
            insns: self.state.insns,
            entry_insns: self.state.insns,
            fuel: self.fuel,
            dispatches: 0,
        };
        loop {
            fr.dispatches += 1;
            let handler = tr.slots[fr.i].handler;
            match handler(self, tr, &mut fr) {
                Ctl::Cont => {}
                Ctl::Exit(r) => return r,
            }
        }
    }

    /// Superinstruction shape frequencies accumulated over this VM's
    /// threaded translations, sorted by descending count (ties by
    /// name). Each entry is `("addw+beq", groups_compiled)`.
    pub fn fused_shape_histogram(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .trans
            .shapes
            .iter()
            .map(|(s, &c)| (s.clone(), c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

/// Exposed for [`crate::predecode::ExecStats::handlers`] consumers
/// that want the split.
pub fn handler_table_sizes() -> (u64, u64, u64) {
    (SCALAR_HANDLERS, CONTROL_HANDLERS, SUPER_HANDLERS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::CodeSpace;
    use crate::predecode::ExecEngine;
    use crate::regs::{A0, AT0, ZERO};

    /// sum(1..=n) by counted loop (same shape as predecode's tests).
    fn loop_code() -> (CodeSpace, u64) {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("sum");
        cs.push(Insn::i(Op::Addiw, AT0, ZERO, 0));
        cs.push(Insn::i(Op::Beq, A0, ZERO, 3));
        cs.push(Insn::r(Op::Addw, AT0, AT0, A0));
        cs.push(Insn::i(Op::Addiw, A0, A0, -1));
        cs.push(Insn::j(Op::J, -4));
        cs.push(Insn::r(Op::Addw, A0, AT0, ZERO));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        (cs, addr)
    }

    fn threaded_vm(cs: &CodeSpace) -> Vm {
        let mut vm = Vm::new(cs.clone(), 1 << 20);
        vm.set_engine(ExecEngine::Threaded);
        vm
    }

    #[test]
    fn slot_is_half_a_cache_line() {
        // Every translated word carries one, and every fresh loop now
        // earns a threaded buffer inside its first run: 48 -> 32 bytes
        // is part of what holds peak RSS where it was.
        assert!(std::mem::size_of::<TSlot<crate::host::NoHost>>() <= 32);
    }

    #[test]
    fn threaded_matches_reference_results_and_counters() {
        let (cs, addr) = loop_code();
        for n in [0u64, 1, 10, 500] {
            let mut reference = Vm::new(cs.clone(), 1 << 20);
            reference.set_engine(ExecEngine::DecodePerStep);
            let want = reference.call(addr, &[n]);
            let mut vm = threaded_vm(&cs);
            assert_eq!(vm.call(addr, &[n]), want);
            assert_eq!(vm.cycles(), reference.cycles());
            assert_eq!(vm.insns(), reference.insns());
        }
    }

    #[test]
    fn fuel_exhaustion_identical_at_every_budget() {
        let (cs, addr) = loop_code();
        let mut full = threaded_vm(&cs);
        full.call(addr, &[20]).unwrap();
        let total = full.cycles();
        for fuel in 0..total {
            let mut reference = Vm::new(cs.clone(), 1 << 20);
            reference.set_engine(ExecEngine::DecodePerStep);
            reference.set_fuel(fuel);
            let want = (
                reference.call(addr, &[20]),
                reference.cycles(),
                reference.insns(),
            );
            assert_eq!(want.0, Err(VmError::OutOfFuel));
            let mut vm = threaded_vm(&cs);
            vm.set_fuel(fuel);
            let got = (vm.call(addr, &[20]), vm.cycles(), vm.insns());
            assert_eq!(got, want, "fuel {fuel}");
        }
    }

    #[test]
    fn blocks_are_batched_and_reported() {
        let (cs, addr) = loop_code();
        let mut vm = threaded_vm(&cs);
        vm.call(addr, &[10]).unwrap();
        let s = vm.exec_stats();
        assert!(s.batched_blocks > 0, "{s:?}");
        assert_eq!(s.fuel_reconciliations, 0);
        assert_eq!(s.handlers, HANDLER_TABLE_SIZE);
        assert_eq!(s.slow_insns, 0);
        assert_eq!(s.fast_insns, vm.insns());
        assert_eq!(s.translations, 1);
        vm.call(addr, &[10]).unwrap();
        assert_eq!(vm.exec_stats().translations, 1, "translation reused");
    }

    /// Countdown loop whose decrement feeds the backward branch: the
    /// `addiw a0, a0, -1; bne a0, zero` tail compiles to a run+branch
    /// superinstruction, and the loop back edge dispatches once per
    /// iteration instead of twice.
    fn feeding_loop_code() -> (CodeSpace, u64) {
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("sum_feed");
        cs.push(Insn::i(Op::Addiw, AT0, ZERO, 0));
        cs.push(Insn::r(Op::Addw, AT0, AT0, A0)); // loop head (index 1)
        cs.push(Insn::i(Op::Addiw, A0, A0, -1));
        cs.push(Insn::i(Op::Bne, A0, ZERO, -3)); // back to index 1
        cs.push(Insn::r(Op::Addw, A0, AT0, ZERO));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        (cs, addr)
    }

    #[test]
    fn superinstructions_compiled_and_dispatched() {
        let (cs, addr) = loop_code();
        let mut vm = threaded_vm(&cs);
        vm.call(addr, &[10]).unwrap();
        let s = vm.exec_stats();
        // The loop body (addw; addiw) + back-edge `j` fuses.
        assert!(s.superinstructions > 0, "{s:?}");
        assert!(s.fused_dispatches > 0, "{s:?}");
        assert!(s.dispatches >= s.fused_dispatches, "{s:?}");
        assert!(s.fused_dispatch_rate() > 0.0 && s.fused_dispatch_rate() <= 1.0);
        // Batching + fusion: far fewer dispatches than instructions.
        assert!(
            s.dispatches_per_insn() < 1.0,
            "dispatches_per_insn {} (stats {s:?})",
            s.dispatches_per_insn()
        );
        let shapes = vm.fused_shape_histogram();
        assert!(
            shapes.iter().any(|(name, c)| name == "addiw+j" && *c > 0),
            "{shapes:?}"
        );
    }

    #[test]
    fn run_branch_superinstruction_matches_reference_at_every_budget() {
        let (cs, addr) = feeding_loop_code();
        let mut vm = threaded_vm(&cs);
        vm.call(addr, &[12]).unwrap();
        let shapes = vm.fused_shape_histogram();
        assert!(
            shapes.iter().any(|(name, _)| name == "addiw+bne"),
            "feed-gated run+branch must fuse: {shapes:?}"
        );
        let total = vm.cycles();
        // Sweep every budget, straddling each superinstruction group
        // boundary mid-group: results, counters, and the exhaustion
        // point must be bit-identical to the reference engine.
        for fuel in 0..=total {
            let mut reference = Vm::new(cs.clone(), 1 << 20);
            reference.set_engine(ExecEngine::DecodePerStep);
            reference.set_fuel(fuel);
            let want = (
                reference.call(addr, &[12]),
                reference.cycles(),
                reference.insns(),
            );
            let mut vm = threaded_vm(&cs);
            vm.set_fuel(fuel);
            let got = (vm.call(addr, &[12]), vm.cycles(), vm.insns());
            assert_eq!(got, want, "fuel {fuel}");
        }
    }

    #[test]
    fn mid_group_entry_dispatches_unfused_slots_identically() {
        // Jump into the *middle* of a fused scalar group: the landing
        // slot keeps its own (fused-suffix or plain) entry, so the
        // observables match the reference engine exactly.
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("mid");
        cs.push(Insn::j(Op::J, 1)); // skip the first scalar
        cs.push(Insn::i(Op::Addiw, AT0, ZERO, 100)); // group head
        cs.push(Insn::i(Op::Addiw, A0, A0, 1)); // mid-group landing pad
        cs.push(Insn::r(Op::Addw, A0, A0, A0));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();
        let mut reference = Vm::new(cs.clone(), 1 << 20);
        reference.set_engine(ExecEngine::DecodePerStep);
        let want = (
            reference.call(addr, &[5]),
            reference.cycles(),
            reference.insns(),
        );
        let mut vm = threaded_vm(&cs);
        let got = (vm.call(addr, &[5]), vm.cycles(), vm.insns());
        assert_eq!(got, want);
    }

    #[test]
    fn mid_run_fault_reconciles_exactly() {
        // addiw; divw (by zero: faults); addiw — the fault lands inside
        // a batched 3-scalar run and must leave counters exactly as the
        // reference engine does (prefix retired, fault uncharged).
        let mut cs = CodeSpace::new();
        let f = cs.begin_function("f");
        cs.push(Insn::i(Op::Addiw, AT0, ZERO, 5));
        cs.push(Insn::r(Op::Divw, A0, AT0, ZERO));
        cs.push(Insn::i(Op::Addiw, A0, A0, 1));
        cs.push(Insn::ret());
        let addr = cs.finish_function(f).unwrap();

        let mut reference = Vm::new(cs.clone(), 1 << 20);
        reference.set_engine(ExecEngine::DecodePerStep);
        let want = (
            reference.call(addr, &[]),
            reference.cycles(),
            reference.insns(),
        );
        assert!(want.0.is_err(), "division by zero must fault");

        let mut vm = threaded_vm(&cs);
        let got = (vm.call(addr, &[]), vm.cycles(), vm.insns());
        assert_eq!(got, want);
        assert_eq!(vm.exec_stats().fuel_reconciliations, 1);
    }

    #[test]
    fn tight_budget_falls_back_to_per_insn_charging() {
        let (cs, addr) = loop_code();
        // Pick a budget that exhausts mid-loop: batched entry must not
        // overshoot, so the engine switches to per-instruction mode.
        let mut vm = threaded_vm(&cs);
        vm.set_fuel(3);
        assert_eq!(vm.call(addr, &[100]), Err(VmError::OutOfFuel));
        assert!(vm.cycles() <= 4, "never overshoots by more than one insn");
    }
}
