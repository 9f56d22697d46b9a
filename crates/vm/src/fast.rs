//! The fast execution tier: dense pre-decode, superinstruction fusion and
//! loop-trace replay.
//!
//! The interpreter in this crate fetches and decodes one [`Inst`] per step
//! and re-checks every resource limit on every instruction. That is the
//! always-correct baseline, but paper-scale Tier-A traces need hundreds of
//! millions of instructions per kernel. This module adds a tier that
//! executes the *same* architectural semantics from a denser
//! representation:
//!
//! 1. **Pre-decode** — the program is lowered once into a flat array of
//!    [`FastOp`]s: branch targets resolved, `r0`-destination writes
//!    lowered to no-ops, one slot per original instruction.
//! 2. **Superinstruction fusion** — hot adjacent pairs (compare+branch,
//!    load+add, add+store; see [`classify_pair`]) are fused into single
//!    ops, selected by a bounded interpreter profiling pass that counts
//!    dynamic adjacent-pair executions (the same histogram
//!    [`crate::profile::run_profiled`] reports, kept dense here so the
//!    pass costs plain-interpreter time). A fused
//!    op lives in the *first* slot of its pair while the second slot
//!    keeps its standalone op, so a jump into the middle of a pair — or a
//!    limit boundary landing between the two components — executes
//!    exactly like the interpreter.
//! 3. **Loop-trace replay** — taken backward branches are counted per
//!    target; a hot loop head triggers recording of one full cycle as a
//!    straight-line body with a guard at every control decision. Replay
//!    then runs the body without per-step dispatch, pre-checking each
//!    iteration against the instruction budget, the record cap and the
//!    deadline poll schedule so every limit trips on exactly the same
//!    instruction as the interpreter would; a failed guard exits to the
//!    dispatch loop with the branch's actual target.
//!
//! The tier is differentially verified (`tests/tier_equiv.rs`): over the
//! whole kernel suite and under proptest-generated programs it must emit
//! bit-identical value traces and stop for identical reasons.

use std::fmt;

use dfcm_trace::{Deadline, Trace, TraceRecord};

use crate::asm::Program;
use crate::isa::{Inst, Reg};
use crate::vm::{StopReason, Vm, VmError, VmLimits, DEADLINE_POLL_MASK, TEXT_BASE};

/// Which execution engine a [`Vm`] uses. Both tiers are architecturally
/// identical: same registers, memory, emitted trace records, faults and
/// [`VmLimits`] accounting — the fast tier is only allowed to be faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// The per-step decoding interpreter — the always-correct baseline.
    Interp,
    /// Pre-decoded ops with superinstruction fusion and loop-trace
    /// replay. The recommended default for trace generation.
    #[default]
    Fast,
}

impl Tier {
    /// The name of this tier (`"interp"` / `"fast"`), as `vm_*` metric
    /// labels carry it.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Interp => "interp",
            Tier::Fast => "fast",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tuning knobs for the fast tier. The defaults are calibrated for the
/// bundled kernels; every setting only trades speed — architectural
/// behaviour is identical at any configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Interpreter steps of the construction-time profiling pass that
    /// selects fusion sites. `0` selects *statically*: every adjacent
    /// pair matching a fusion pattern is fused without profiling.
    pub profile_steps: u64,
    /// Minimum dynamic executions of an adjacent pair (within the
    /// profiling window) before it is fused.
    pub fusion_min_count: u64,
    /// Taken backward branches to one loop head before a trace recording
    /// starts.
    pub hot_threshold: u32,
    /// Maximum recorded body length (in ops); longer cycles abort the
    /// recording and blacklist the head.
    pub max_trace_len: usize,
    /// Enables superinstruction fusion.
    pub fusion: bool,
    /// Enables loop-trace recording and replay.
    pub replay: bool,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            // 20k steps reach deep into every bundled kernel's hot loop
            // while keeping construction ~ a quarter-millisecond; hot
            // pairs that matter re-execute thousands of times well before
            // this window closes.
            profile_steps: 20_000,
            fusion_min_count: 128,
            hot_threshold: 64,
            max_trace_len: 1024,
            fusion: true,
            replay: true,
        }
    }
}

/// Execution counters of the fast tier, for benchmarks and observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Instructions executed under the fast tier (all modes, replay
    /// included).
    pub instructions: u64,
    /// Static fused superinstruction slots in the pre-decoded program.
    pub fusion_sites: u64,
    /// Fused superinstructions executed whole (each covers two original
    /// instructions).
    pub fused_executed: u64,
    /// Loop-trace recordings started.
    pub recordings_started: u64,
    /// Recordings that completed into a replayable loop trace.
    pub traces_recorded: u64,
    /// Recordings abandoned (unstable or oversized cycle, discontinuous
    /// execution, or a limit boundary splitting a fused pair).
    pub record_aborts: u64,
    /// Complete loop-body iterations executed by replay.
    pub replay_iterations: u64,
    /// Instructions executed inside replay.
    pub replay_instructions: u64,
    /// Replays exited because a guard observed a different control
    /// decision than the recording.
    pub guard_failures: u64,
    /// Replays exited on a limit or deadline-poll boundary (not a guard
    /// failure).
    pub replay_aborts: u64,
}

/// A fusion pattern recognized by [`classify_pair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedKind {
    /// `slt`/`slti` followed by a `beq`/`bne` testing its result against
    /// `r0` — the dominant loop-control idiom of the kernel suite.
    CompareBranch,
    /// `lw` followed by `add`/`addi` — the load-combine idiom of
    /// reduction loops.
    LoadAdd,
    /// `add`/`addi` followed by `sw` — the compute-store idiom of update
    /// loops.
    AddStore,
}

impl FusedKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FusedKind::CompareBranch => "compare+branch",
            FusedKind::LoadAdd => "load+add",
            FusedKind::AddStore => "add+store",
        }
    }
}

/// Classifies an adjacent instruction pair as a fusible superinstruction,
/// if it matches one of the supported patterns. Pairs whose fused form
/// could not reproduce the interpreter's exact trace (e.g. `r0`
/// destinations, a branch comparing anything but the compare result
/// against `r0`) are rejected.
pub fn classify_pair(a: Inst, b: Inst) -> Option<FusedKind> {
    fn tests_result(rd: Reg, x: Reg, y: Reg) -> bool {
        rd != 0 && ((x == rd && y == 0) || (x == 0 && y == rd))
    }
    match (a, b) {
        (Inst::Slt(rd, _, _) | Inst::Slti(rd, _, _), Inst::Beq(x, y, _) | Inst::Bne(x, y, _))
            if tests_result(rd, x, y) =>
        {
            Some(FusedKind::CompareBranch)
        }
        (Inst::Lw(rd1, _, _), Inst::Add(rd2, _, _) | Inst::Addi(rd2, _, _))
            if rd1 != 0 && rd2 != 0 =>
        {
            Some(FusedKind::LoadAdd)
        }
        (Inst::Add(rd, _, _) | Inst::Addi(rd, _, _), Inst::Sw(_, _, _)) if rd != 0 => {
            Some(FusedKind::AddStore)
        }
        _ => None,
    }
}

/// One pre-decoded operation. Register-writing ops with destination `r0`
/// never appear (lowered to `Nop`/`LwZero` at pre-decode), so execution
/// writes and emits unconditionally. Fused variants execute two original
/// instructions; their second slot retains the standalone op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FastOp {
    Add {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Sub {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Mul {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Div {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Rem {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    And {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Or {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Xor {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Slt {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Addi {
        rd: Reg,
        rs: Reg,
        imm: i64,
    },
    Andi {
        rd: Reg,
        rs: Reg,
        imm: i64,
    },
    Ori {
        rd: Reg,
        rs: Reg,
        imm: i64,
    },
    Xori {
        rd: Reg,
        rs: Reg,
        imm: i64,
    },
    Slti {
        rd: Reg,
        rs: Reg,
        imm: i64,
    },
    Sll {
        rd: Reg,
        rs: Reg,
        sh: u8,
    },
    Srl {
        rd: Reg,
        rs: Reg,
        sh: u8,
    },
    Sra {
        rd: Reg,
        rs: Reg,
        sh: u8,
    },
    Li {
        rd: Reg,
        imm: i64,
    },
    Lw {
        rd: Reg,
        rs: Reg,
        off: i64,
    },
    /// `lw` with destination `r0`: performs the access (faults included),
    /// discards the value, emits nothing.
    LwZero {
        rs: Reg,
        off: i64,
    },
    Sw {
        rt: Reg,
        rs: Reg,
        off: i64,
    },
    Beq {
        rs: Reg,
        rt: Reg,
        t: usize,
    },
    Bne {
        rs: Reg,
        rt: Reg,
        t: usize,
    },
    Blt {
        rs: Reg,
        rt: Reg,
        t: usize,
    },
    Bge {
        rs: Reg,
        rt: Reg,
        t: usize,
    },
    J {
        t: usize,
    },
    Jal {
        t: usize,
    },
    Jr {
        rs: Reg,
    },
    Nop,
    Halt,
    // Fused superinstructions. Naming: first component + second component.
    SltBeq {
        rd: Reg,
        rs: Reg,
        rt: Reg,
        t: usize,
    },
    SltBne {
        rd: Reg,
        rs: Reg,
        rt: Reg,
        t: usize,
    },
    SltiBeq {
        rd: Reg,
        rs: Reg,
        imm: i64,
        t: usize,
    },
    SltiBne {
        rd: Reg,
        rs: Reg,
        imm: i64,
        t: usize,
    },
    LwAdd {
        rd1: Reg,
        rs1: Reg,
        off: i64,
        rd2: Reg,
        ra: Reg,
        rb: Reg,
    },
    LwAddi {
        rd1: Reg,
        rs1: Reg,
        off: i64,
        rd2: Reg,
        ra: Reg,
        imm: i64,
    },
    AddSw {
        rd: Reg,
        ra: Reg,
        rb: Reg,
        rt: Reg,
        rs: Reg,
        off: i64,
    },
    AddiSw {
        rd: Reg,
        ra: Reg,
        imm: i64,
        rt: Reg,
        rs: Reg,
        off: i64,
    },
}

/// Original instructions covered by one executed op.
fn steps_of(op: FastOp) -> u64 {
    match op {
        FastOp::SltBeq { .. }
        | FastOp::SltBne { .. }
        | FastOp::SltiBeq { .. }
        | FastOp::SltiBne { .. }
        | FastOp::LwAdd { .. }
        | FastOp::LwAddi { .. }
        | FastOp::AddSw { .. }
        | FastOp::AddiSw { .. } => 2,
        _ => 1,
    }
}

/// Trace records one executed op emits (assuming it completes whole).
fn emits_of(op: FastOp) -> usize {
    match op {
        FastOp::LwZero { .. }
        | FastOp::Sw { .. }
        | FastOp::Beq { .. }
        | FastOp::Bne { .. }
        | FastOp::Blt { .. }
        | FastOp::Bge { .. }
        | FastOp::J { .. }
        | FastOp::Jal { .. }
        | FastOp::Jr { .. }
        | FastOp::Nop
        | FastOp::Halt => 0,
        FastOp::LwAdd { .. } | FastOp::LwAddi { .. } => 2,
        _ => 1,
    }
}

/// True for ops whose taken transfer can close a loop (conditional
/// branches, fused compare+branch, and `j`). `jal`/`jr` are call/return
/// control and never treated as loop back-edges.
fn is_loop_edge(op: FastOp) -> bool {
    matches!(
        op,
        FastOp::Beq { .. }
            | FastOp::Bne { .. }
            | FastOp::Blt { .. }
            | FastOp::Bge { .. }
            | FastOp::J { .. }
            | FastOp::SltBeq { .. }
            | FastOp::SltBne { .. }
            | FastOp::SltiBeq { .. }
            | FastOp::SltiBne { .. }
    )
}

/// Lowers one instruction to its standalone dense form.
fn lower(inst: Inst) -> FastOp {
    match inst {
        Inst::Add(0, ..)
        | Inst::Sub(0, ..)
        | Inst::Mul(0, ..)
        | Inst::Div(0, ..)
        | Inst::Rem(0, ..)
        | Inst::Addi(0, ..)
        | Inst::And(0, ..)
        | Inst::Or(0, ..)
        | Inst::Xor(0, ..)
        | Inst::Andi(0, ..)
        | Inst::Ori(0, ..)
        | Inst::Xori(0, ..)
        | Inst::Sll(0, ..)
        | Inst::Srl(0, ..)
        | Inst::Sra(0, ..)
        | Inst::Slt(0, ..)
        | Inst::Slti(0, ..)
        | Inst::Li(0, ..) => FastOp::Nop,
        Inst::Lw(0, off, rs) => FastOp::LwZero { rs, off },
        Inst::Add(rd, rs, rt) => FastOp::Add { rd, rs, rt },
        Inst::Sub(rd, rs, rt) => FastOp::Sub { rd, rs, rt },
        Inst::Mul(rd, rs, rt) => FastOp::Mul { rd, rs, rt },
        Inst::Div(rd, rs, rt) => FastOp::Div { rd, rs, rt },
        Inst::Rem(rd, rs, rt) => FastOp::Rem { rd, rs, rt },
        Inst::Addi(rd, rs, imm) => FastOp::Addi { rd, rs, imm },
        Inst::And(rd, rs, rt) => FastOp::And { rd, rs, rt },
        Inst::Or(rd, rs, rt) => FastOp::Or { rd, rs, rt },
        Inst::Xor(rd, rs, rt) => FastOp::Xor { rd, rs, rt },
        Inst::Andi(rd, rs, imm) => FastOp::Andi { rd, rs, imm },
        Inst::Ori(rd, rs, imm) => FastOp::Ori { rd, rs, imm },
        Inst::Xori(rd, rs, imm) => FastOp::Xori { rd, rs, imm },
        Inst::Sll(rd, rs, sh) => FastOp::Sll { rd, rs, sh },
        Inst::Srl(rd, rs, sh) => FastOp::Srl { rd, rs, sh },
        Inst::Sra(rd, rs, sh) => FastOp::Sra { rd, rs, sh },
        Inst::Slt(rd, rs, rt) => FastOp::Slt { rd, rs, rt },
        Inst::Slti(rd, rs, imm) => FastOp::Slti { rd, rs, imm },
        Inst::Li(rd, imm) => FastOp::Li { rd, imm },
        Inst::Lw(rd, off, rs) => FastOp::Lw { rd, rs, off },
        Inst::Sw(rt, off, rs) => FastOp::Sw { rt, rs, off },
        Inst::Beq(rs, rt, t) => FastOp::Beq { rs, rt, t },
        Inst::Bne(rs, rt, t) => FastOp::Bne { rs, rt, t },
        Inst::Blt(rs, rt, t) => FastOp::Blt { rs, rt, t },
        Inst::Bge(rs, rt, t) => FastOp::Bge { rs, rt, t },
        Inst::J(t) => FastOp::J { t },
        Inst::Jal(t) => FastOp::Jal { t },
        Inst::Jr(rs) => FastOp::Jr { rs },
        Inst::Nop => FastOp::Nop,
        Inst::Halt => FastOp::Halt,
    }
}

/// Builds the fused form of a classified pair, or `None` if the pair does
/// not match a fusion pattern after all.
fn fuse_pair(a: Inst, b: Inst) -> Option<FastOp> {
    classify_pair(a, b)?;
    Some(match (a, b) {
        (Inst::Slt(rd, rs, rt), Inst::Beq(..)) => FastOp::SltBeq {
            rd,
            rs,
            rt,
            t: branch_target(b),
        },
        (Inst::Slt(rd, rs, rt), Inst::Bne(..)) => FastOp::SltBne {
            rd,
            rs,
            rt,
            t: branch_target(b),
        },
        (Inst::Slti(rd, rs, imm), Inst::Beq(..)) => FastOp::SltiBeq {
            rd,
            rs,
            imm,
            t: branch_target(b),
        },
        (Inst::Slti(rd, rs, imm), Inst::Bne(..)) => FastOp::SltiBne {
            rd,
            rs,
            imm,
            t: branch_target(b),
        },
        (Inst::Lw(rd1, off, rs1), Inst::Add(rd2, ra, rb)) => FastOp::LwAdd {
            rd1,
            rs1,
            off,
            rd2,
            ra,
            rb,
        },
        (Inst::Lw(rd1, off, rs1), Inst::Addi(rd2, ra, imm)) => FastOp::LwAddi {
            rd1,
            rs1,
            off,
            rd2,
            ra,
            imm,
        },
        (Inst::Add(rd, ra, rb), Inst::Sw(rt, off, rs)) => FastOp::AddSw {
            rd,
            ra,
            rb,
            rt,
            rs,
            off,
        },
        (Inst::Addi(rd, ra, imm), Inst::Sw(rt, off, rs)) => FastOp::AddiSw {
            rd,
            ra,
            imm,
            rt,
            rs,
            off,
        },
        _ => return None,
    })
}

fn branch_target(inst: Inst) -> usize {
    match inst {
        Inst::Beq(_, _, t) | Inst::Bne(_, _, t) | Inst::Blt(_, _, t) | Inst::Bge(_, _, t) => t,
        _ => unreachable!("branch_target on non-branch"),
    }
}

/// Lowers a program to its dense form, fusing the pairs whose first slot
/// is flagged in `fuse`.
fn predecode(insts: &[Inst], fuse: &[bool]) -> Vec<FastOp> {
    (0..insts.len())
        .map(|i| {
            if fuse.get(i).copied().unwrap_or(false) && i + 1 < insts.len() {
                if let Some(op) = fuse_pair(insts[i], insts[i + 1]) {
                    return op;
                }
            }
            lower(insts[i])
        })
        .collect()
}

/// Selects fusion sites for `program`: with `profile_steps > 0`, runs a
/// bounded interpreter profiling pass and fuses the adjacent pairs that
/// both match a pattern and executed at least `fusion_min_count` times;
/// with `profile_steps == 0`, fuses every matching pair statically.
pub(crate) fn select_fusions(
    program: &Program,
    limits: &VmLimits,
    config: &TierConfig,
) -> Vec<bool> {
    let n = program.insts.len();
    let mut fuse = vec![false; n];
    if !config.fusion || n < 2 {
        return fuse;
    }
    if config.profile_steps == 0 {
        for (i, f) in fuse.iter_mut().enumerate().take(n - 1) {
            *f = classify_pair(program.insts[i], program.insts[i + 1]).is_some();
        }
        return fuse;
    }
    // The profiling run is bounded by profile_steps, so the interpreter
    // limits are dropped; a program that faults mid-profile simply gets
    // no fusion (the real run will surface the fault identically).
    let profile_limits = VmLimits {
        memory_words: limits.memory_words,
        max_instructions: None,
        deadline: None,
    };
    let Ok(mut vm) = Vm::with_limits(program.clone(), profile_limits) else {
        return fuse;
    };
    // Dense adjacent-pair counts, not [`run_profiled`]: the full profile
    // pays several hash-map updates per step, which at construction time
    // would dwarf the fusion win it exists to enable. `pair_counts[i]`
    // is the dynamic count of instruction `i + 1` executing immediately
    // after instruction `i`.
    let mut pair_counts = vec![0u64; n];
    let mut steps = 0u64;
    let mut prev = usize::MAX - 1;
    while !vm.halted() && steps < config.profile_steps {
        let pc = vm.pc_index();
        if vm.step().is_err() {
            // A program that faults mid-profile gets no fusion; the real
            // run will surface the fault identically.
            return fuse;
        }
        if pc == prev.wrapping_add(1) {
            pair_counts[prev] += 1;
        }
        prev = pc;
        steps += 1;
    }
    for (i, f) in fuse.iter_mut().enumerate().take(n - 1) {
        if pair_counts[i] >= config.fusion_min_count
            && classify_pair(program.insts[i], program.insts[i + 1]).is_some()
        {
            *f = true;
        }
    }
    fuse
}

/// What a recorded step expects from its re-execution; anything else is a
/// guard failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Fall through to the next slot.
    Next,
    /// Fused pair fall-through (advance two slots).
    Skip2,
    /// Transfer to exactly this target (taken branch, jump, or `jr` with
    /// the recorded destination).
    Taken(usize),
}

/// One step of a recorded loop body.
#[derive(Debug, Clone, Copy)]
struct GStep {
    op: FastOp,
    slot: usize,
    expect: Expect,
}

/// A completed loop recording, ready for replay.
#[derive(Debug, Clone)]
struct LoopTrace {
    body: Vec<GStep>,
    /// Original instructions one full iteration executes.
    steps_per_iter: u64,
    /// Trace records one full iteration emits.
    emits_per_iter: usize,
}

/// An in-progress loop recording.
#[derive(Debug, Clone)]
struct Recording {
    head: usize,
    body: Vec<GStep>,
    /// The slot execution must resume at for this recording to stay
    /// contiguous across `run_fast` calls.
    resume_at: usize,
}

/// Back-edge counter value marking a head as not worth recording.
const BLACKLISTED: u32 = u32::MAX;

/// Per-[`Vm`] state of the fast tier.
#[derive(Debug, Clone)]
pub(crate) struct FastState {
    ops: Vec<FastOp>,
    config: TierConfig,
    pub(crate) stats: TierStats,
    /// Taken-backward-branch counts per loop head.
    counters: Vec<u32>,
    /// Completed loop traces per loop head.
    traces: Vec<Option<Box<LoopTrace>>>,
    recording: Option<Recording>,
}

impl FastState {
    pub(crate) fn new(insts: &[Inst], fuse: &[bool], config: TierConfig) -> Self {
        let ops = predecode(insts, fuse);
        let stats = TierStats {
            fusion_sites: ops.iter().filter(|&&op| steps_of(op) == 2).count() as u64,
            ..TierStats::default()
        };
        FastState {
            counters: vec![0; ops.len()],
            traces: vec![None; ops.len()],
            recording: None,
            ops,
            config,
            stats,
        }
    }

    fn abort_recording(&mut self) {
        if self.recording.take().is_some() {
            self.stats.record_aborts += 1;
        }
    }

    /// Called from `Vm::step`: manual interpreter stepping breaks the
    /// contiguity a recording depends on.
    pub(crate) fn note_interpreter_step(&mut self) {
        self.abort_recording();
    }
}

/// Limit context shared by the dispatch loop, fused-pair boundaries and
/// replay.
#[derive(Debug, Clone, Copy)]
struct Lim {
    /// `min(window end, instruction budget)` — no op may execute once
    /// `steps` reaches this.
    stop_at: u64,
    /// Record cap of the current call.
    max_records: usize,
    /// True when a wall-clock deadline is configured (polled whenever
    /// `steps & DEADLINE_POLL_MASK == 0`, like the interpreter).
    poll: bool,
}

/// Control-flow outcome of executing one [`FastOp`].
enum Flow {
    /// Fall through to the next slot.
    Next,
    /// Fused pair completed; skip its second slot.
    Skip2,
    /// Transfer to this slot.
    Br(usize),
    /// `halt` executed; the machine latched `halted`.
    Halt,
    /// A limit boundary landed between the two components of a fused
    /// pair: only the first component executed. The dispatch prologue
    /// re-checks at the second component's standalone slot.
    Pause1,
    /// The op faulted; the `usize` is the faulting instruction's slot —
    /// `slot + 1` when the second component of a fused pair faults, so
    /// `pc` lands exactly where the interpreter's would. `steps` counts
    /// the faulting instruction.
    Fault(usize, VmError),
}

/// Outcome of replaying one recorded step.
enum ReplayStep {
    Matched,
    /// Replay must exit (guard failure or limit boundary); `self.pc` is
    /// set to the correct resume slot.
    Exit,
    Err(VmError),
}

impl Vm {
    /// Fast-tier counterpart of the interpreter's run loops: executes
    /// until halt, fault, a tripped [`VmLimits`] guard, `max_steps`
    /// executed instructions, or `max_records` collected records.
    pub(crate) fn run_fast(
        &mut self,
        st: &mut FastState,
        trace: &mut Trace,
        max_steps: u64,
        max_records: usize,
    ) -> Result<(), VmError> {
        // A recording is only valid if execution resumes at the exact
        // slot where the previous call left off.
        if let Some(rec) = &st.recording {
            if rec.resume_at != self.pc {
                st.abort_recording();
            }
        }
        let entry_steps = self.steps;
        let result = self.fast_dispatch(st, trace, max_steps, max_records);
        st.stats.instructions += self.steps - entry_steps;
        if let Some(rec) = &mut st.recording {
            rec.resume_at = self.pc;
        }
        result
    }

    fn fast_dispatch(
        &mut self,
        st: &mut FastState,
        trace: &mut Trace,
        max_steps: u64,
        max_records: usize,
    ) -> Result<(), VmError> {
        if self.halted {
            return Ok(());
        }
        let window_end = self.steps.saturating_add(max_steps);
        let budget = self.limits.max_instructions.unwrap_or(u64::MAX);
        let lim = Lim {
            stop_at: window_end.min(budget),
            max_records,
            poll: self.limits.deadline.is_some(),
        };
        loop {
            // Prologue, in the interpreter's order: caller window and
            // record cap (clean stops), then instruction budget, then
            // the masked deadline poll.
            if self.steps >= lim.stop_at
                || trace.len() >= lim.max_records
                || (lim.poll && self.steps & DEADLINE_POLL_MASK == 0)
            {
                if self.steps >= window_end || trace.len() >= lim.max_records {
                    return Ok(());
                }
                if self.steps >= budget {
                    return Err(self.trip_limit(
                        StopReason::InstructionBudgetExhausted { budget },
                        VmError::InstructionBudgetExhausted { budget },
                    ));
                }
                if let Some(e) = self.poll_deadline() {
                    return Err(e);
                }
            }
            let pc = self.pc;
            let Some(&op) = st.ops.get(pc) else {
                let e = VmError::PcOutOfRange { target: pc as i64 };
                self.error = Some(e.clone());
                self.halted = true;
                return Err(e);
            };
            match self.exec_fast::<false>(op, pc, trace, lim, &mut st.stats) {
                Flow::Next => {
                    self.pc = pc + 1;
                    if st.recording.is_some() {
                        record_step(st, op, pc, Expect::Next);
                    }
                }
                Flow::Skip2 => {
                    self.pc = pc + 2;
                    if st.recording.is_some() {
                        record_step(st, op, pc, Expect::Skip2);
                    }
                }
                Flow::Br(t) => {
                    self.pc = t;
                    if st.recording.is_some() {
                        record_step(st, op, pc, Expect::Taken(t));
                        if st.recording.as_ref().is_some_and(|rec| rec.head == t) {
                            finalize_recording(st);
                        }
                    } else if st.config.replay && t <= pc && is_loop_edge(op) {
                        if st.traces[t].is_some() {
                            let FastState { traces, stats, .. } = st;
                            let tr = traces[t].as_deref().expect("presence checked");
                            self.run_replay(tr, stats, trace, lim)?;
                        } else {
                            let c = &mut st.counters[t];
                            if *c != BLACKLISTED {
                                *c += 1;
                                if *c >= st.config.hot_threshold {
                                    st.recording = Some(Recording {
                                        head: t,
                                        body: Vec::new(),
                                        resume_at: t,
                                    });
                                    st.stats.recordings_started += 1;
                                }
                            }
                        }
                    }
                }
                Flow::Pause1 => {
                    // The fused pair split: resume at the second
                    // component's standalone slot and let the prologue
                    // decide whether to stop, trip or continue.
                    self.pc = pc + 1;
                    st.abort_recording();
                }
                Flow::Halt => return Ok(()),
                Flow::Fault(at, e) => {
                    self.pc = at;
                    self.error = Some(e.clone());
                    self.halted = true;
                    return Err(e);
                }
            }
        }
    }

    /// Arms (if needed) and polls the wall-clock deadline; returns the
    /// tripped error if it expired. Call only when `limits.deadline` is
    /// set and `steps` is on a poll boundary.
    fn poll_deadline(&mut self) -> Option<VmError> {
        let deadline = self.limits.deadline.expect("poll implies deadline");
        let guard = *self
            .deadline
            .get_or_insert_with(|| Deadline::after(deadline));
        if guard.expired() {
            Some(self.trip_limit(
                StopReason::DeadlineExceeded { deadline },
                VmError::DeadlineExceeded { deadline },
            ))
        } else {
            None
        }
    }

    /// Replays a recorded loop body until a guard fails, the program
    /// faults, or a limit boundary requires handing control back to the
    /// dispatch prologue. Limit accounting is exact: iterations that
    /// provably fit (steps, records, and no deadline poll point inside)
    /// run without per-step checks; boundary iterations run in a careful
    /// mode with the full interpreter-order prologue before every step.
    fn run_replay(
        &mut self,
        tr: &LoopTrace,
        stats: &mut TierStats,
        trace: &mut Trace,
        lim: Lim,
    ) -> Result<(), VmError> {
        let entry_steps = self.steps;
        let result = self.replay_loop(tr, stats, trace, lim);
        stats.replay_instructions += self.steps - entry_steps;
        result
    }

    fn replay_loop(
        &mut self,
        tr: &LoopTrace,
        stats: &mut TierStats,
        trace: &mut Trace,
        lim: Lim,
    ) -> Result<(), VmError> {
        // Re-deriving the limit budgets per iteration costs more than a
        // short loop body itself, so whole *batches* of provably-clean
        // iterations are sized up front and run with no limit checks at
        // all; a batch never ends mid-iteration except through a guard
        // failure, fault, or halt, which exit regardless of batching.
        'iters: loop {
            let offset = self.steps & DEADLINE_POLL_MASK;
            let to_next_poll = if offset == 0 {
                0
            } else {
                DEADLINE_POLL_MASK + 1 - offset
            };
            // Iterations that fit the caller window / instruction budget
            // whole.
            let by_steps = lim.stop_at.saturating_sub(self.steps) / tr.steps_per_iter;
            // Records must stay *strictly* under the cap after a bulk
            // iteration: the cap-filling emit can land mid-body, and the
            // interpreter stops there without executing the body's
            // trailing non-emitting instructions. Careful mode does too.
            let by_records = if tr.emits_per_iter == 0 {
                u64::MAX
            } else {
                lim.max_records
                    .saturating_sub(trace.len())
                    .saturating_sub(1) as u64
                    / tr.emits_per_iter as u64
            };
            // Iterations with no deadline-poll point strictly inside
            // (landing exactly on a boundary is fine: the next careful
            // pass or the dispatch prologue polls before the next step).
            let by_poll = if lim.poll {
                to_next_poll / tr.steps_per_iter
            } else {
                u64::MAX
            };
            // Cap a batch so unbounded runs (no limits, nothing emitted)
            // still cycle through the outer loop.
            let batch = by_steps.min(by_records).min(by_poll).min(1 << 20);
            if batch > 0 {
                for _ in 0..batch {
                    for step in &tr.body {
                        match self.replay_step::<true>(step, trace, lim, stats) {
                            ReplayStep::Matched => {}
                            ReplayStep::Exit => break 'iters,
                            ReplayStep::Err(e) => return Err(e),
                        }
                    }
                    stats.replay_iterations += 1;
                }
            } else {
                for step in &tr.body {
                    if self.steps >= lim.stop_at || trace.len() >= lim.max_records {
                        self.pc = step.slot;
                        stats.replay_aborts += 1;
                        break 'iters;
                    }
                    if lim.poll && self.steps & DEADLINE_POLL_MASK == 0 {
                        // Arm like the interpreter would; if expired, let
                        // the dispatch prologue trip it at this slot.
                        let deadline = self.limits.deadline.expect("poll implies deadline");
                        let armed = *self
                            .deadline
                            .get_or_insert_with(|| Deadline::after(deadline));
                        if armed.expired() {
                            self.pc = step.slot;
                            stats.replay_aborts += 1;
                            break 'iters;
                        }
                    }
                    match self.replay_step::<false>(step, trace, lim, stats) {
                        ReplayStep::Matched => {}
                        ReplayStep::Exit => break 'iters,
                        ReplayStep::Err(e) => return Err(e),
                    }
                }
                stats.replay_iterations += 1;
            }
        }
        Ok(())
    }

    #[inline]
    fn replay_step<const BULK: bool>(
        &mut self,
        step: &GStep,
        trace: &mut Trace,
        lim: Lim,
        stats: &mut TierStats,
    ) -> ReplayStep {
        match (
            self.exec_fast::<BULK>(step.op, step.slot, trace, lim, stats),
            step.expect,
        ) {
            (Flow::Next, Expect::Next) | (Flow::Skip2, Expect::Skip2) => ReplayStep::Matched,
            (Flow::Br(t), Expect::Taken(e)) if t == e => ReplayStep::Matched,
            (Flow::Fault(at, e), _) => {
                self.pc = at;
                self.error = Some(e.clone());
                self.halted = true;
                ReplayStep::Err(e)
            }
            (Flow::Pause1, _) => {
                // A limit boundary split a fused pair mid-replay; resume
                // in the dispatch loop at the second component.
                self.pc = step.slot + 1;
                stats.replay_aborts += 1;
                ReplayStep::Exit
            }
            (Flow::Halt, _) => {
                // Recorded bodies never contain halt (recording closes on
                // the back-edge), but keep the exit safe regardless.
                ReplayStep::Exit
            }
            (flow, _) => {
                // Guard failure: this iteration's control decision differs
                // from the recording. The instruction itself executed and
                // was charged exactly like the interpreter; continue at
                // its actual successor.
                stats.guard_failures += 1;
                self.pc = match flow {
                    Flow::Next => step.slot + 1,
                    Flow::Skip2 => step.slot + 2,
                    Flow::Br(t) => t,
                    _ => unreachable!("terminal flows handled above"),
                };
                ReplayStep::Exit
            }
        }
    }

    /// Executes one pre-decoded op at `slot`. Charges `steps` for every
    /// executed component and emits trace records exactly like the
    /// interpreter. `self.pc` is NOT updated — the caller routes the
    /// returned [`Flow`].
    ///
    /// `BULK` compiles out the fused-pair boundary limit checks: a bulk
    /// replay iteration is pre-checked to fit every limit whole (steps,
    /// records, deadline-poll schedule), so mid-pair checks are provably
    /// false there and only cost dispatch time.
    #[inline]
    fn exec_fast<const BULK: bool>(
        &mut self,
        op: FastOp,
        slot: usize,
        trace: &mut Trace,
        lim: Lim,
        stats: &mut TierStats,
    ) -> Flow {
        self.steps += 1;
        macro_rules! r {
            ($n:expr) => {
                self.regs[$n as usize]
            };
        }
        macro_rules! alu {
            ($rd:expr, $v:expr) => {{
                let v = $v;
                self.regs[$rd as usize] = v;
                trace.push(TraceRecord::new(TEXT_BASE + 4 * slot as u64, v as u64));
                Flow::Next
            }};
        }
        // The boundary between the two components of a fused pair: the
        // same checks the dispatch prologue runs between two standalone
        // instructions. Conservative on the deadline mask — Pause1 hands
        // control back so the prologue can poll (and continue through the
        // second component's standalone slot if the deadline holds).
        macro_rules! pair_boundary {
            () => {
                if !BULK
                    && (self.steps >= lim.stop_at
                        || trace.len() >= lim.max_records
                        || (lim.poll && self.steps & DEADLINE_POLL_MASK == 0))
                {
                    return Flow::Pause1;
                }
                self.steps += 1;
                stats.fused_executed += 1;
            };
        }
        match op {
            FastOp::Add { rd, rs, rt } => alu!(rd, r!(rs).wrapping_add(r!(rt))),
            FastOp::Sub { rd, rs, rt } => alu!(rd, r!(rs).wrapping_sub(r!(rt))),
            FastOp::Mul { rd, rs, rt } => alu!(rd, r!(rs).wrapping_mul(r!(rt))),
            FastOp::Div { rd, rs, rt } => {
                let d = r!(rt);
                alu!(rd, if d == 0 { 0 } else { r!(rs).wrapping_div(d) })
            }
            FastOp::Rem { rd, rs, rt } => {
                let d = r!(rt);
                alu!(rd, if d == 0 { 0 } else { r!(rs).wrapping_rem(d) })
            }
            FastOp::And { rd, rs, rt } => alu!(rd, r!(rs) & r!(rt)),
            FastOp::Or { rd, rs, rt } => alu!(rd, r!(rs) | r!(rt)),
            FastOp::Xor { rd, rs, rt } => alu!(rd, r!(rs) ^ r!(rt)),
            FastOp::Slt { rd, rs, rt } => alu!(rd, i64::from(r!(rs) < r!(rt))),
            FastOp::Addi { rd, rs, imm } => alu!(rd, r!(rs).wrapping_add(imm)),
            FastOp::Andi { rd, rs, imm } => alu!(rd, r!(rs) & imm),
            FastOp::Ori { rd, rs, imm } => alu!(rd, r!(rs) | imm),
            FastOp::Xori { rd, rs, imm } => alu!(rd, r!(rs) ^ imm),
            FastOp::Slti { rd, rs, imm } => alu!(rd, i64::from(r!(rs) < imm)),
            FastOp::Sll { rd, rs, sh } => alu!(rd, r!(rs) << sh),
            FastOp::Srl { rd, rs, sh } => alu!(rd, (r!(rs) as u64 >> sh) as i64),
            FastOp::Sra { rd, rs, sh } => alu!(rd, r!(rs) >> sh),
            FastOp::Li { rd, imm } => alu!(rd, imm),
            FastOp::Lw { rd, rs, off } => {
                let addr = r!(rs).wrapping_add(off);
                match usize::try_from(addr).ok().and_then(|a| self.mem.get(a)) {
                    Some(&v) => alu!(rd, v),
                    None => Flow::Fault(slot, VmError::MemoryOutOfBounds { pc: slot, addr }),
                }
            }
            FastOp::LwZero { rs, off } => {
                let addr = r!(rs).wrapping_add(off);
                match usize::try_from(addr).ok().and_then(|a| self.mem.get(a)) {
                    Some(_) => Flow::Next,
                    None => Flow::Fault(slot, VmError::MemoryOutOfBounds { pc: slot, addr }),
                }
            }
            FastOp::Sw { rt, rs, off } => {
                let addr = r!(rs).wrapping_add(off);
                let value = r!(rt);
                match usize::try_from(addr).ok().and_then(|a| self.mem.get_mut(a)) {
                    Some(s) => {
                        *s = value;
                        Flow::Next
                    }
                    None => Flow::Fault(slot, VmError::MemoryOutOfBounds { pc: slot, addr }),
                }
            }
            FastOp::Beq { rs, rt, t } => {
                if r!(rs) == r!(rt) {
                    Flow::Br(t)
                } else {
                    Flow::Next
                }
            }
            FastOp::Bne { rs, rt, t } => {
                if r!(rs) != r!(rt) {
                    Flow::Br(t)
                } else {
                    Flow::Next
                }
            }
            FastOp::Blt { rs, rt, t } => {
                if r!(rs) < r!(rt) {
                    Flow::Br(t)
                } else {
                    Flow::Next
                }
            }
            FastOp::Bge { rs, rt, t } => {
                if r!(rs) >= r!(rt) {
                    Flow::Br(t)
                } else {
                    Flow::Next
                }
            }
            FastOp::J { t } => Flow::Br(t),
            FastOp::Jal { t } => {
                self.regs[31] = (slot + 1) as i64;
                Flow::Br(t)
            }
            FastOp::Jr { rs } => {
                let target = r!(rs);
                if target < 0 || target as usize > self.insts.len() {
                    Flow::Fault(slot, VmError::PcOutOfRange { target })
                } else {
                    Flow::Br(target as usize)
                }
            }
            FastOp::Nop => Flow::Next,
            FastOp::Halt => {
                self.halted = true;
                Flow::Halt
            }
            FastOp::SltBeq { rd, rs, rt, t } => {
                let v = i64::from(r!(rs) < r!(rt));
                self.regs[rd as usize] = v;
                trace.push(TraceRecord::new(TEXT_BASE + 4 * slot as u64, v as u64));
                pair_boundary!();
                if v == 0 {
                    Flow::Br(t)
                } else {
                    Flow::Skip2
                }
            }
            FastOp::SltBne { rd, rs, rt, t } => {
                let v = i64::from(r!(rs) < r!(rt));
                self.regs[rd as usize] = v;
                trace.push(TraceRecord::new(TEXT_BASE + 4 * slot as u64, v as u64));
                pair_boundary!();
                if v != 0 {
                    Flow::Br(t)
                } else {
                    Flow::Skip2
                }
            }
            FastOp::SltiBeq { rd, rs, imm, t } => {
                let v = i64::from(r!(rs) < imm);
                self.regs[rd as usize] = v;
                trace.push(TraceRecord::new(TEXT_BASE + 4 * slot as u64, v as u64));
                pair_boundary!();
                if v == 0 {
                    Flow::Br(t)
                } else {
                    Flow::Skip2
                }
            }
            FastOp::SltiBne { rd, rs, imm, t } => {
                let v = i64::from(r!(rs) < imm);
                self.regs[rd as usize] = v;
                trace.push(TraceRecord::new(TEXT_BASE + 4 * slot as u64, v as u64));
                pair_boundary!();
                if v != 0 {
                    Flow::Br(t)
                } else {
                    Flow::Skip2
                }
            }
            FastOp::LwAdd {
                rd1,
                rs1,
                off,
                rd2,
                ra,
                rb,
            } => {
                let addr = r!(rs1).wrapping_add(off);
                let v = match usize::try_from(addr).ok().and_then(|a| self.mem.get(a)) {
                    Some(&v) => v,
                    None => {
                        return Flow::Fault(slot, VmError::MemoryOutOfBounds { pc: slot, addr })
                    }
                };
                self.regs[rd1 as usize] = v;
                trace.push(TraceRecord::new(TEXT_BASE + 4 * slot as u64, v as u64));
                pair_boundary!();
                let v2 = r!(ra).wrapping_add(r!(rb));
                self.regs[rd2 as usize] = v2;
                trace.push(TraceRecord::new(
                    TEXT_BASE + 4 * (slot as u64 + 1),
                    v2 as u64,
                ));
                Flow::Skip2
            }
            FastOp::LwAddi {
                rd1,
                rs1,
                off,
                rd2,
                ra,
                imm,
            } => {
                let addr = r!(rs1).wrapping_add(off);
                let v = match usize::try_from(addr).ok().and_then(|a| self.mem.get(a)) {
                    Some(&v) => v,
                    None => {
                        return Flow::Fault(slot, VmError::MemoryOutOfBounds { pc: slot, addr })
                    }
                };
                self.regs[rd1 as usize] = v;
                trace.push(TraceRecord::new(TEXT_BASE + 4 * slot as u64, v as u64));
                pair_boundary!();
                let v2 = r!(ra).wrapping_add(imm);
                self.regs[rd2 as usize] = v2;
                trace.push(TraceRecord::new(
                    TEXT_BASE + 4 * (slot as u64 + 1),
                    v2 as u64,
                ));
                Flow::Skip2
            }
            FastOp::AddSw {
                rd,
                ra,
                rb,
                rt,
                rs,
                off,
            } => {
                let v = r!(ra).wrapping_add(r!(rb));
                self.regs[rd as usize] = v;
                trace.push(TraceRecord::new(TEXT_BASE + 4 * slot as u64, v as u64));
                pair_boundary!();
                let addr = r!(rs).wrapping_add(off);
                let value = r!(rt);
                match usize::try_from(addr).ok().and_then(|a| self.mem.get_mut(a)) {
                    Some(s) => {
                        *s = value;
                        Flow::Skip2
                    }
                    None => {
                        Flow::Fault(slot + 1, VmError::MemoryOutOfBounds { pc: slot + 1, addr })
                    }
                }
            }
            FastOp::AddiSw {
                rd,
                ra,
                imm,
                rt,
                rs,
                off,
            } => {
                let v = r!(ra).wrapping_add(imm);
                self.regs[rd as usize] = v;
                trace.push(TraceRecord::new(TEXT_BASE + 4 * slot as u64, v as u64));
                pair_boundary!();
                let addr = r!(rs).wrapping_add(off);
                let value = r!(rt);
                match usize::try_from(addr).ok().and_then(|a| self.mem.get_mut(a)) {
                    Some(s) => {
                        *s = value;
                        Flow::Skip2
                    }
                    None => {
                        Flow::Fault(slot + 1, VmError::MemoryOutOfBounds { pc: slot + 1, addr })
                    }
                }
            }
        }
    }
}

/// Appends one executed step to the active recording, aborting (and
/// blacklisting the head) if the body exceeds the configured cap.
fn record_step(st: &mut FastState, op: FastOp, slot: usize, expect: Expect) {
    let rec = st.recording.as_mut().expect("recording active");
    rec.body.push(GStep { op, slot, expect });
    if rec.body.len() > st.config.max_trace_len {
        let head = rec.head;
        st.counters[head] = BLACKLISTED;
        st.abort_recording();
    }
}

/// Closes the active recording into a replayable loop trace.
fn finalize_recording(st: &mut FastState) {
    let rec = st.recording.take().expect("recording active");
    let steps_per_iter = rec.body.iter().map(|s| steps_of(s.op)).sum();
    let emits_per_iter = rec.body.iter().map(|s| emits_of(s.op)).sum();
    st.stats.traces_recorded += 1;
    st.traces[rec.head] = Some(Box::new(LoopTrace {
        body: rec.body,
        steps_per_iter,
        emits_per_iter,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn classify_recognizes_kernel_idioms() {
        // slti r3, r1, 10 ; bne r3, r0, loop
        assert_eq!(
            classify_pair(Inst::Slti(3, 1, 10), Inst::Bne(3, 0, 2)),
            Some(FusedKind::CompareBranch)
        );
        // Operand order swapped on the branch.
        assert_eq!(
            classify_pair(Inst::Slt(4, 1, 2), Inst::Beq(0, 4, 9)),
            Some(FusedKind::CompareBranch)
        );
        assert_eq!(
            classify_pair(Inst::Lw(2, 0, 1), Inst::Addi(3, 2, 1)),
            Some(FusedKind::LoadAdd)
        );
        assert_eq!(
            classify_pair(Inst::Addi(2, 2, 1), Inst::Sw(2, 0, 5)),
            Some(FusedKind::AddStore)
        );
    }

    #[test]
    fn classify_rejects_unsafe_pairs() {
        // Branch compares something other than the slt result vs r0.
        assert_eq!(classify_pair(Inst::Slt(3, 1, 2), Inst::Bne(3, 4, 0)), None);
        assert_eq!(classify_pair(Inst::Slt(3, 1, 2), Inst::Bne(1, 0, 0)), None);
        // r0 destinations change emit behaviour; never fused.
        assert_eq!(classify_pair(Inst::Slt(0, 1, 2), Inst::Bne(0, 0, 0)), None);
        assert_eq!(classify_pair(Inst::Lw(0, 0, 1), Inst::Add(3, 1, 2)), None);
        assert_eq!(classify_pair(Inst::Lw(2, 0, 1), Inst::Add(0, 1, 2)), None);
        assert_eq!(classify_pair(Inst::Add(0, 1, 2), Inst::Sw(2, 0, 5)), None);
        // Unrelated neighbours.
        assert_eq!(classify_pair(Inst::Nop, Inst::Halt), None);
    }

    #[test]
    fn predecode_keeps_one_slot_per_instruction() {
        let program = assemble(
            ".text
             main: li r1, 0
             loop: slti r2, r1, 3
                   addi r1, r1, 1
                   bne r2, r0, loop
                   halt",
        )
        .unwrap();
        let fuse = vec![false; program.insts.len()];
        let ops = predecode(&program.insts, &fuse);
        assert_eq!(ops.len(), program.insts.len());
        assert!(matches!(
            ops[1],
            FastOp::Slti {
                rd: 2,
                rs: 1,
                imm: 3
            }
        ));
        assert!(matches!(ops[4], FastOp::Halt));
    }

    #[test]
    fn predecode_lowers_r0_writes_to_nops() {
        let program =
            assemble(".text\nmain: li r0, 9\nadd r0, r1, r2\nlw r0, 0(r30)\nhalt").unwrap();
        let fuse = vec![false; program.insts.len()];
        let ops = predecode(&program.insts, &fuse);
        assert!(matches!(ops[0], FastOp::Nop));
        assert!(matches!(ops[1], FastOp::Nop));
        assert!(matches!(ops[2], FastOp::LwZero { rs: 30, off: 0 }));
    }

    #[test]
    fn fused_slot_keeps_standalone_second_op() {
        let program = assemble(
            ".text
             main: li r1, 0
             loop: addi r1, r1, 1
                   slti r2, r1, 5
                   bne r2, r0, loop
                   halt",
        )
        .unwrap();
        let mut fuse = vec![false; program.insts.len()];
        fuse[2] = true; // slti+bne
        let ops = predecode(&program.insts, &fuse);
        assert!(matches!(
            ops[2],
            FastOp::SltiBne {
                rd: 2,
                rs: 1,
                imm: 5,
                t: 1
            }
        ));
        // The second slot of the pair still holds the standalone branch.
        assert!(matches!(ops[3], FastOp::Bne { rs: 2, rt: 0, t: 1 }));
    }

    #[test]
    fn static_fusion_selects_matching_pairs() {
        let program = assemble(
            ".text
             main: li r1, 0
             loop: addi r1, r1, 1
                   slti r2, r1, 5
                   bne r2, r0, loop
                   halt",
        )
        .unwrap();
        let config = TierConfig {
            profile_steps: 0,
            ..TierConfig::default()
        };
        let fuse = select_fusions(&program, &VmLimits::default(), &config);
        assert_eq!(fuse, vec![false, false, true, false, false]);
    }

    #[test]
    fn profiled_fusion_requires_hot_pairs() {
        let program = assemble(
            ".text
             main: li r1, 0
             loop: addi r1, r1, 1
                   slti r2, r1, 500
                   bne r2, r0, loop
                   halt",
        )
        .unwrap();
        let hot = TierConfig {
            profile_steps: 10_000,
            fusion_min_count: 100,
            ..TierConfig::default()
        };
        let fuse = select_fusions(&program, &VmLimits::default(), &hot);
        assert!(fuse[2], "a 500-iteration pair is hot");
        let cold = TierConfig {
            profile_steps: 10,
            fusion_min_count: 100,
            ..TierConfig::default()
        };
        let fuse = select_fusions(&program, &VmLimits::default(), &cold);
        assert!(!fuse[2], "pair never reaches the threshold in 10 steps");
    }

    #[test]
    fn tier_displays_its_name() {
        assert_eq!(Tier::Fast.to_string(), "fast");
        assert_eq!(Tier::Interp.to_string(), "interp");
        assert_eq!(Tier::default(), Tier::Fast);
    }
}
