//! The direct-threaded execution engine with basic-block fuel batching:
//! a handler column beside the decoded array.
//!
//! The predecoded engine ([`crate::predecode`]) already hoists decode
//! and cost lookup to translation time, but still pays a `match` over
//! the slot kind plus a fuel compare on every retired instruction.
//! This engine removes both, without a second copy of anything:
//! `thread` takes the function's decoded array — the very `Arc` tier 1
//! walks — and adds one function pointer per word.
//!
//! * **Direct threading.** The handler for slot `i` is picked once from
//!   a fixed table: the scalar-run handler, one handler per branch
//!   predicate, and one each for jumps, calls, halt, host calls, and
//!   undecodable words. The run loop is a tight
//!   `(handlers[i])(vm, slots, frame)` dispatch. Inside a scalar run the
//!   hottest opcodes are specialized inline (`exec_half`) and the rest
//!   go through the shared `exec_scalar`.
//!
//! * **Basic-block fuel batching.** Every scalar slot carries the
//!   summed cycle cost of the run *suffix* starting there
//!   (`Slot::run_cost`, computed by `decode`) — so entering mid-run
//!   (branch targets, return addresses) still sees a correct block
//!   summary. At run entry, if the whole suffix fits in the remaining
//!   fuel it is charged once and the constituent instructions execute
//!   with no per-instruction fuel compare or counter update. Early exits
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
//! `thread` compiles the hottest fused shapes into combined handlers
//! that execute the whole group with **one** dispatch, choosing them
//! from the run and feed facts `decode` recorded:
//!
//! * **run+jump** — a scalar run whose suffix falls into an
//!   unconditional `j` (the back edge of every counted loop);
//! * **run+branch** — a scalar run whose *last* constituent feeds the
//!   following branch (`Pair::Branch`: `last.rd` is one of the compared
//!   registers), the same fact tier 1 pairs on, so the ICODE
//!   fusion-aware scheduler is measurable on this engine too;
//! * **pair**/**triple** — straight-line runs of exactly two or three
//!   scalars, executed by monomorphized handlers with a compile-time
//!   trip count.
//!
//! Fusion is slot-preserving: a fused handler sits at the *first*
//! constituent's index and every other index keeps its unfused handler,
//! so control transfers landing mid-group dispatch normally and the
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

use crate::error::VmError;
use crate::host::HostCall;
use crate::interp::{branch_taken, exec_scalar, ExitStatus, MachineState, Step, Vm};
use crate::isa::Op;
use crate::predecode::{Decoded, Kind, Pair, Slot};

/// Scalar executors: the opcodes `exec_half` specializes inline, plus
/// the shared `exec_scalar` every other straight-line opcode goes
/// through.
pub const SCALAR_HANDLERS: u64 = 31;
/// Control handlers: the run-entry handler, ten branch predicates,
/// jump/jal/jalr, halt, hcall, and the undecodable-word trap.
pub const CONTROL_HANDLERS: u64 = 17;
/// Superinstruction handlers: the fused run+jump handler, ten fused
/// run+branch handlers (one per predicate, feed-gated like tier 1's
/// scalar+branch pair), and the monomorphized straight-line pair and
/// triple handlers.
pub const SUPER_HANDLERS: u64 = 13;
/// Total size of the direct-threaded handler table, reported in
/// [`crate::predecode::ExecStats::handlers`] once the threaded engine
/// has translated.
pub const HANDLER_TABLE_SIZE: u64 = SCALAR_HANDLERS + CONTROL_HANDLERS + SUPER_HANDLERS;

/// Handler signature: executes the slot at `fr.i` (updating the frame
/// in place) and says whether dispatch continues inside the buffer.
type Handler<H> = fn(&mut Vm<H>, &[Slot], &mut Frame) -> Ctl;

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
    /// Absolute address of buffer index 0, for this installation of the
    /// function.
    base: u64,
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

/// One function's direct-threaded form: the decoded array it was built
/// over and one handler per code word beside it — 8 bytes a word, and
/// no copy of any operand.
pub(crate) struct ThreadedFn<H> {
    pub(crate) decoded: Arc<Decoded>,
    handlers: Box<[Handler<H>]>,
    /// Superinstruction groups compiled ([`ThreadedFn::shapes`] names
    /// them).
    pub(crate) groups: u64,
}

impl<H> fmt::Debug for ThreadedFn<H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadedFn")
            .field("slots", &self.handlers.len())
            .finish()
    }
}

/// Returns the handler for one branch predicate, with `branch_taken`'s
/// dispatch constant-folded away.
fn branch_fn<H: HostCall>(op: Op) -> Handler<H> {
    macro_rules! b {
        ($op:ident) => {{
            fn go<H: HostCall>(vm: &mut Vm<H>, slots: &[Slot], fr: &mut Frame) -> Ctl {
                let slot = &slots[fr.i];
                let taken = branch_taken(Op::$op, vm.state.reg(slot.rd), vm.state.reg(slot.rs1));
                branch_common(vm, slots, fr, taken)
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
fn advance<H: HostCall>(vm: &mut Vm<H>, slots: &[Slot], fr: &mut Frame, n: usize) -> Ctl {
    fr.i += n;
    if fr.i >= slots.len() {
        flush(vm, fr);
        return Ctl::Exit(Ok(Step::At(fr.base.wrapping_add((fr.i as u64) * 4))));
    }
    Ctl::Cont
}

/// Transfers control to buffer index `t`: stays inside when it lands
/// in-buffer, exits to the equivalent pc otherwise (negative indices
/// wrap exactly like the reference engine's pc arithmetic).
#[inline(always)]
fn goto<H: HostCall>(vm: &mut Vm<H>, slots: &[Slot], fr: &mut Frame, t: i64) -> Ctl {
    if (t as u64) < slots.len() as u64 {
        fr.i = t as usize;
        Ctl::Cont
    } else {
        flush(vm, fr);
        Ctl::Exit(Ok(Step::At(
            fr.base.wrapping_add((t as u64).wrapping_mul(4)),
        )))
    }
}

/// Charges the slot at `fr.i` its own cost (`cost` cycles, one
/// instruction) and fuel-checks: rule 3's individual charge. Returns
/// the exit when fuel ran out (counters already flushed).
#[inline(always)]
fn charge<H: HostCall>(vm: &mut Vm<H>, fr: &mut Frame, cost: u32) -> Option<Ctl> {
    fr.cycles += u64::from(cost);
    fr.insns += 1;
    if fr.cycles > fr.fuel {
        flush(vm, fr);
        return Some(Ctl::Exit(Err(VmError::OutOfFuel)));
    }
    None
}

/// Shared charge/retire/fuel-check/transfer tail of every branch
/// handler.
#[inline(always)]
fn branch_common<H: HostCall>(vm: &mut Vm<H>, slots: &[Slot], fr: &mut Frame, taken: bool) -> Ctl {
    let slot = &slots[fr.i];
    let cost = if taken { slot.taken_cost() } else { slot.cost };
    if let Some(exit) = charge(vm, fr, cost) {
        return exit;
    }
    if taken {
        goto(vm, slots, fr, slot.target())
    } else {
        advance(vm, slots, fr, 1)
    }
}

/// Executes one constituent of a scalar run. The hottest opcodes are
/// dispatched inline — each arm calls [`exec_scalar`] with a
/// *constant* `Op`, so the semantics are literally the shared
/// interpreter's with its 70-arm `match` folded away, and the run
/// loop pays a predictable jump instead of an indirect call (the
/// call's register spills were the last per-instruction tax). Cold
/// opcodes go through `exec_scalar` itself, out of line, which
/// executes identically.
#[inline(always)]
fn exec_half(st: &mut MachineState, s: &Slot) -> Result<(), VmError> {
    #[inline(never)]
    fn cold(st: &mut MachineState, s: &Slot) -> Result<(), VmError> {
        exec_scalar(st, s.op, s.rd, s.rs1, s.rs2, s.imm)
    }
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
        _ => cold(st, s),
    }
}

/// Executes one scalar run (`run`, summed suffix cost `run_cost`)
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
    run: &[Slot],
    run_cost: u32,
) -> Option<Ctl> {
    let n = run.len();
    if let Some(total) = fr.cycles.checked_add(u64::from(run_cost)) {
        if total <= fr.fuel {
            vm.trans.stats.batched_blocks += 1;
            fr.cycles = total;
            for (k, s) in run.iter().enumerate() {
                if let Err(e) = exec_half(&mut vm.state, s) {
                    // Un-charge the unexecuted tail (the faulting
                    // instruction included): observable counters must
                    // match a reference engine that stopped here.
                    let tail: u64 = run[k..].iter().map(|s| u64::from(s.cost)).sum();
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
    for s in run {
        if let Err(e) = exec_half(&mut vm.state, s) {
            flush(vm, fr);
            return Some(Ctl::Exit(Err(e)));
        }
        if let Some(exit) = charge(vm, fr, s.cost) {
            return Some(exit);
        }
    }
    None
}

/// The scalar run starting at `fr.i` — `slots[i..i + n]`, no copy —
/// executed by [`exec_run`]. Returns its length, or the exit.
#[inline(always)]
fn run_at<H: HostCall>(vm: &mut Vm<H>, slots: &[Slot], fr: &mut Frame) -> Result<usize, Ctl> {
    let slot = &slots[fr.i];
    let n = slot.run_len();
    match exec_run(vm, fr, &slots[fr.i..fr.i + n], slot.run_cost) {
        Some(exit) => Err(exit),
        None => Ok(n),
    }
}

/// Scalar-run entry: the fuel-batching handler (reconciliation rules
/// in the module docs).
fn h_run<H: HostCall>(vm: &mut Vm<H>, slots: &[Slot], fr: &mut Frame) -> Ctl {
    match run_at(vm, slots, fr) {
        Ok(n) => advance(vm, slots, fr, n),
        Err(exit) => exit,
    }
}

/// Superinstruction: scalar run + unconditional jump, one dispatch.
/// The run part follows the batching rules; the jump then charges
/// individually off its *own* slot (rule 3), exactly as if dispatched.
fn h_run_j<H: HostCall>(vm: &mut Vm<H>, slots: &[Slot], fr: &mut Frame) -> Ctl {
    vm.trans.stats.fused_dispatches += 1;
    match run_at(vm, slots, fr) {
        Ok(n) => {
            fr.i += n;
            h_jump(vm, slots, fr)
        }
        Err(exit) => exit,
    }
}

/// Superinstruction: a straight-line run of exactly `N` scalars (the
/// pair and the triple), one dispatch with a compile-time trip count.
fn h_fixed<H: HostCall, const N: usize>(vm: &mut Vm<H>, slots: &[Slot], fr: &mut Frame) -> Ctl {
    vm.trans.stats.fused_dispatches += 1;
    let run: &[Slot; N] = slots[fr.i..fr.i + N]
        .try_into()
        .expect("a fixed group covers N slots");
    if let Some(exit) = exec_run(vm, fr, run, run[0].run_cost) {
        return exit;
    }
    advance(vm, slots, fr, N)
}

/// Returns the superinstruction handler fusing a scalar run with the
/// branch predicate `op`, with `branch_taken`'s dispatch
/// constant-folded away. After the run retires, `fr.i` steps onto the
/// branch's own slot, so the predicate reads and charges exactly the
/// fields an unfused dispatch would.
fn run_branch_fn<H: HostCall>(op: Op) -> Handler<H> {
    macro_rules! rb {
        ($op:ident) => {{
            fn go<H: HostCall>(vm: &mut Vm<H>, slots: &[Slot], fr: &mut Frame) -> Ctl {
                vm.trans.stats.fused_dispatches += 1;
                match run_at(vm, slots, fr) {
                    Ok(n) => fr.i += n,
                    Err(exit) => return exit,
                }
                let b = &slots[fr.i];
                let taken = branch_taken(Op::$op, vm.state.reg(b.rd), vm.state.reg(b.rs1));
                branch_common(vm, slots, fr, taken)
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

fn h_jump<H: HostCall>(vm: &mut Vm<H>, slots: &[Slot], fr: &mut Frame) -> Ctl {
    let slot = &slots[fr.i];
    if let Some(exit) = charge(vm, fr, slot.cost) {
        return exit;
    }
    goto(vm, slots, fr, slot.target())
}

fn h_jal<H: HostCall>(vm: &mut Vm<H>, slots: &[Slot], fr: &mut Frame) -> Ctl {
    vm.state
        .set_reg(crate::regs::RA.0, fr.base + (fr.i as u64 + 1) * 4);
    h_jump(vm, slots, fr)
}

fn h_jalr<H: HostCall>(vm: &mut Vm<H>, slots: &[Slot], fr: &mut Frame) -> Ctl {
    let slot = &slots[fr.i];
    let target = vm.state.reg(slot.rs1);
    vm.state.set_reg(slot.rd, fr.base + (fr.i as u64 + 1) * 4);
    if let Some(exit) = charge(vm, fr, slot.cost) {
        return exit;
    }
    // Stay in-buffer for indirect loops; liveness can only change via
    // a host call, which revalidates.
    let len = slots.len() as u64;
    if target >= fr.base && target < fr.base + len * 4 && (target - fr.base).is_multiple_of(4) {
        fr.i = ((target - fr.base) / 4) as usize;
        Ctl::Cont
    } else {
        flush(vm, fr);
        Ctl::Exit(Ok(Step::At(target)))
    }
}

fn h_halt<H: HostCall>(vm: &mut Vm<H>, slots: &[Slot], fr: &mut Frame) -> Ctl {
    // Charged but never fuel-checked (the run is over) — reference
    // engine behavior.
    fr.cycles += u64::from(slots[fr.i].cost);
    fr.insns += 1;
    flush(vm, fr);
    Ctl::Exit(Ok(Step::Done(ExitStatus::Halted)))
}

fn h_hcall<H: HostCall>(vm: &mut Vm<H>, slots: &[Slot], fr: &mut Frame) -> Ctl {
    let slot = &slots[fr.i];
    // The host observes counters as of before this instruction retires,
    // and may mutate them (or the code space) arbitrarily.
    flush(vm, fr);
    vm.state.hcalls += 1;
    if let Err(e) = vm.host.call(slot.imm as u32, &mut vm.state) {
        return Ctl::Exit(Err(e));
    }
    fr.cycles = vm.state.cycles;
    fr.insns = vm.state.insns;
    fr.entry_insns = fr.insns;
    if let Some(exit) = charge(vm, fr, slot.cost) {
        return exit;
    }
    if vm.state.code.live_epoch() != vm.trans.epoch {
        // The host freed or patched code; leave the buffer so the
        // outer loop revalidates.
        fr.i += 1;
        flush(vm, fr);
        return Ctl::Exit(Ok(Step::At(fr.base.wrapping_add((fr.i as u64) * 4))));
    }
    advance(vm, slots, fr, 1)
}

fn h_trap<H: HostCall>(vm: &mut Vm<H>, slots: &[Slot], fr: &mut Frame) -> Ctl {
    flush(vm, fr);
    Ctl::Exit(Err(VmError::BadOpcode(slots[fr.i].imm as u8)))
}

/// Packs a superinstruction group's opcodes (two or three) into its
/// histogram key: the count in the top byte, then one byte an opcode.
/// [`Vm::fused_shape_histogram`] turns keys back into mnemonics, so no
/// string is built while translating.
pub(crate) fn pack_shape(ops: &[Op]) -> u32 {
    ops.iter()
        .fold(ops.len() as u32, |key, &op| key << 8 | op as u32)
        << (8 * (3 - ops.len()))
}

/// The superinstruction group that starts at scalar slot `i`, if one
/// does: its combined handler and packed shape. Control fusion wins over
/// the straight-line pair/triple forms — it saves a dispatch per loop
/// iteration rather than per straight-line entry.
fn group_at<H: HostCall>(slots: &[Slot], i: usize) -> Option<(Handler<H>, u32)> {
    let n = slots[i].run_len();
    let (first, last) = (&slots[i], &slots[i + n - 1]);
    Some(match slots.get(i + n) {
        Some(next) if next.kind == Kind::Jump => (h_run_j::<H>, pack_shape(&[last.op, next.op])),
        Some(next) if last.pair == Pair::Branch => {
            (run_branch_fn::<H>(next.op), pack_shape(&[last.op, next.op]))
        }
        _ if n == 2 => (h_fixed::<H, 2>, pack_shape(&[first.op, last.op])),
        _ if n == 3 => (
            h_fixed::<H, 3>,
            pack_shape(&[first.op, slots[i + 1].op, last.op]),
        ),
        _ => return None,
    })
}

/// Builds a function's direct-threaded form over its decoded array:
/// one pass that picks a handler per slot. Superinstruction selection
/// is slot-preserving — only a group's first index gets the combined
/// handler, so mid-group control transfers still dispatch the unfused
/// ones.
///
/// Takes slots, not words: promoting a function that holds its decoded
/// array decodes nothing, by type.
pub(crate) fn thread<H: HostCall>(decoded: &Arc<Decoded>) -> ThreadedFn<H> {
    let slots = &decoded.slots[..];
    let mut groups = 0;
    let handlers = slots
        .iter()
        .enumerate()
        .map(|(i, slot)| -> Handler<H> {
            match slot.kind {
                Kind::Trap => h_trap::<H>,
                Kind::Halt => h_halt::<H>,
                Kind::Hcall => h_hcall::<H>,
                Kind::Jump => h_jump::<H>,
                Kind::Jal => h_jal::<H>,
                Kind::Jalr => h_jalr::<H>,
                Kind::Branch => branch_fn::<H>(slot.op),
                Kind::Scalar => match group_at::<H>(slots, i) {
                    Some((handler, _)) => {
                        groups += 1;
                        handler
                    }
                    None => h_run::<H>,
                },
            }
        })
        .collect();
    ThreadedFn {
        decoded: Arc::clone(decoded),
        handlers,
        groups,
    }
}

impl<H: HostCall> ThreadedFn<H> {
    /// The packed shape of each superinstruction group [`thread`]
    /// compiled, found again the way it chose them.
    pub(crate) fn shapes(&self) -> impl Iterator<Item = u32> + '_ {
        let slots = &self.decoded.slots[..];
        (0..slots.len())
            .filter(|&i| slots[i].kind == Kind::Scalar)
            .filter_map(|i| Some(group_at::<H>(slots, i)?.1))
    }
}

impl<H: HostCall> Vm<H> {
    /// The tight loop over the function installed at `base`: call the
    /// current slot's handler until control leaves the buffer, a run
    /// terminates, or an error is raised.
    pub(crate) fn dispatch_threaded(
        &mut self,
        tr: &ThreadedFn<H>,
        base: u64,
        pc: u64,
    ) -> Result<Step, VmError> {
        let slots = &tr.decoded.slots[..];
        let mut fr = Frame {
            i: ((pc - base) / 4) as usize,
            base,
            cycles: self.state.cycles,
            insns: self.state.insns,
            entry_insns: self.state.insns,
            fuel: self.fuel,
            dispatches: 0,
        };
        loop {
            fr.dispatches += 1;
            match (tr.handlers[fr.i])(self, slots, &mut fr) {
                Ctl::Cont => {}
                Ctl::Exit(r) => return r,
            }
        }
    }

    /// Superinstruction shape frequencies accumulated over this VM's
    /// threaded translations, sorted by descending count (ties by
    /// name). Each entry is `("addw+beq", groups_compiled)`.
    pub fn fused_shape_histogram(&self) -> Vec<(String, u64)> {
        let mut shapes = self.trans.shapes.clone();
        for record in &self.trans.tier_fns {
            record.tr.fold_shapes(&mut shapes);
        }
        let mut v: Vec<(String, u64)> = shapes
            .iter()
            .map(|(&key, &count)| {
                let ops = key.to_be_bytes();
                let names: Vec<&str> = ops[1..=ops[0] as usize]
                    .iter()
                    .map(|&b| Op::from_u8(b).map_or("?", Op::mnemonic))
                    .collect();
                (names.join("+"), count)
            })
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
    use crate::isa::Insn;
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
        // Every translated word carries one decoded slot — shared by
        // both tiers and by every session of a pool — and at tier 2 one
        // handler beside it, and every fresh loop earns a threaded form
        // inside its first run: 24 + 8 bytes a word (was 32 + 24 per
        // scalar on top of tier 1's 32) is part of what holds peak RSS
        // where it was.
        assert!(std::mem::size_of::<Slot>() <= 24);
        assert_eq!(std::mem::size_of::<Handler<crate::host::NoHost>>(), 8);
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
