//! The interpreter: executes an assembled [`Program`] and emits a value
//! trace.
//!
//! Following the paper's methodology (§4), a trace record is emitted for
//! every executed instruction that writes an integer register — loads
//! included — while branches, jumps and stores produce nothing. This is
//! exactly the prediction-eligible instruction set of the paper's
//! SimpleScalar `sim-safe` traces.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use dfcm_trace::{Deadline, Trace, TraceRecord, TraceSource};

use crate::asm::{Program, DATA_BASE};
use crate::isa::{Inst, NUM_REGS};

/// Address of instruction index 0 in emitted trace records; instructions
/// are 4 bytes apart, like MIPS.
pub const TEXT_BASE: u64 = 0x0040_0000;

/// Default data-memory size in words.
pub const DEFAULT_MEMORY_WORDS: usize = 1 << 20;

/// How often (in steps) the wall-clock deadline is polled; checking the
/// clock every instruction would dominate the interpreter loop.
const DEADLINE_POLL_MASK: u64 = 0xFFF;

/// The most records [`Vm::try_take_trace`] reserves before the program
/// has produced them (16 MiB of records); a larger pull grows from there.
pub const MAX_RESERVED_RECORDS: usize = 1 << 20;

/// Resource budgets for a [`Vm`], for running untrusted or
/// fuzzer-generated kernels: a pathological program degrades to a typed
/// error instead of hanging a worker or exhausting its host.
///
/// The default is the historical behavior: default-sized memory, no
/// instruction budget, no deadline.
///
/// ```
/// use std::time::Duration;
/// use dfcm_vm::{assemble, Vm, VmError, VmLimits};
///
/// let program = assemble(".text\nmain: j main").unwrap();
/// let limits = VmLimits {
///     max_instructions: Some(10_000),
///     ..VmLimits::default()
/// };
/// let mut vm = Vm::with_limits(program, limits).unwrap();
/// // An endless kernel now stops with a typed error instead of hanging.
/// assert!(matches!(
///     vm.try_take_trace(1),
///     Err(VmError::InstructionBudgetExhausted { budget: 10_000 })
/// ));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmLimits {
    /// Data-memory size in words.
    pub memory_words: usize,
    /// Maximum instructions the machine may ever execute (across all
    /// `run`/`step` calls); `None` = unlimited.
    pub max_instructions: Option<u64>,
    /// Wall-clock budget, measured from the first executed instruction
    /// and polled every few thousand steps; `None` = unlimited.
    pub deadline: Option<Duration>,
}

impl Default for VmLimits {
    fn default() -> Self {
        VmLimits {
            memory_words: DEFAULT_MEMORY_WORDS,
            max_instructions: None,
            deadline: None,
        }
    }
}

/// A runtime error: the program accessed memory or jumped out of range,
/// or tripped one of its [`VmLimits`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// A load or store touched an address outside data memory.
    MemoryOutOfBounds {
        /// Instruction index that faulted.
        pc: usize,
        /// The offending word address.
        addr: i64,
    },
    /// Control transferred outside the instruction array.
    PcOutOfRange {
        /// The invalid target instruction index.
        target: i64,
    },
    /// The program's data image does not fit in the configured memory.
    DataImageTooLarge {
        /// Words the image needs (including the [`DATA_BASE`] offset).
        needed: usize,
        /// Words the configured memory provides.
        available: usize,
    },
    /// The machine executed its entire instruction budget without
    /// halting.
    InstructionBudgetExhausted {
        /// The configured budget.
        budget: u64,
    },
    /// The wall-clock deadline passed before the program halted.
    DeadlineExceeded {
        /// The configured deadline.
        deadline: Duration,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::MemoryOutOfBounds { pc, addr } => {
                write!(
                    f,
                    "memory access out of bounds at instruction {pc}: address {addr}"
                )
            }
            VmError::PcOutOfRange { target } => {
                write!(f, "jump target {target} outside program")
            }
            VmError::DataImageTooLarge { needed, available } => {
                write!(f, "data image needs {needed} words, memory has {available}")
            }
            VmError::InstructionBudgetExhausted { budget } => {
                write!(f, "instruction budget of {budget} exhausted")
            }
            VmError::DeadlineExceeded { deadline } => {
                write!(f, "wall-clock deadline of {deadline:?} exceeded")
            }
        }
    }
}

impl Error for VmError {}

/// Why a [`Vm`] stopped executing. Memory and control faults are not
/// represented here: a faulting run returns `Err(VmError)` instead of a
/// [`RunResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The program executed `halt` — a clean, complete run.
    Halted,
    /// The per-call step budget of [`Vm::run`] ran out before `halt`;
    /// the trace is a prefix of the program's full output, not a
    /// completed run. Unlike the [`VmLimits`] guards this is not an
    /// error: the caller chose the bound and the machine can keep going.
    StepBudgetExhausted,
    /// The machine-level [`VmLimits::max_instructions`] budget ran out;
    /// the corresponding call returned
    /// [`VmError::InstructionBudgetExhausted`] and the machine is
    /// permanently stopped.
    InstructionBudgetExhausted {
        /// The configured budget.
        budget: u64,
    },
    /// The [`VmLimits::deadline`] passed; the corresponding call
    /// returned [`VmError::DeadlineExceeded`] and the machine is
    /// permanently stopped.
    DeadlineExceeded {
        /// The configured deadline.
        deadline: Duration,
    },
}

/// Outcome of a bounded [`Vm::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// The emitted value trace.
    pub trace: Trace,
    /// True if the program executed `halt` (false: the step limit hit).
    pub halted: bool,
    /// Instructions executed during this run call.
    pub steps: u64,
}

impl RunResult {
    /// Distinguishes a clean `halt` from step-budget exhaustion, so
    /// callers never mistake a truncated run for a completed one.
    pub fn stop_reason(&self) -> StopReason {
        if self.halted {
            StopReason::Halted
        } else {
            StopReason::StepBudgetExhausted
        }
    }
}

/// The virtual machine: registers, data memory and a program.
///
/// ```
/// use dfcm_vm::{assemble, Vm};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = assemble(
///     ".text
///      main: li   r1, 0
///            li   r2, 10
///      loop: addi r1, r1, 1
///            bne  r1, r2, loop
///            halt",
/// )?;
/// let mut vm = Vm::new(program);
/// let result = vm.run(10_000)?;
/// assert!(result.halted);
/// assert_eq!(vm.reg(1), 10);
/// // Two `li` records plus ten loop-counter records.
/// assert_eq!(result.trace.len(), 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Vm {
    insts: Vec<Inst>,
    regs: [i64; NUM_REGS],
    mem: Vec<i64>,
    pc: usize,
    halted: bool,
    steps: u64,
    error: Option<VmError>,
    limits: VmLimits,
    /// The wall-clock guard, armed (once) when the first instruction
    /// executes. Shared [`Deadline`] helper: the anchor instant is
    /// captured exactly once and every poll measures against it — the
    /// clock is never re-derived mid-run.
    deadline: Option<Deadline>,
    limit_stop: Option<StopReason>,
}

impl Vm {
    /// Creates a machine with the default data-memory size and the
    /// program's data image loaded at [`DATA_BASE`]. The stack pointer
    /// (`sp` = r30) starts at the top of memory.
    ///
    /// # Panics
    ///
    /// Panics if the program's data image does not fit in memory.
    pub fn new(program: Program) -> Self {
        Self::with_memory(program, DEFAULT_MEMORY_WORDS)
    }

    /// As [`new`](Vm::new) with an explicit memory size in words.
    ///
    /// # Panics
    ///
    /// Panics if the data image does not fit below `words`. For a
    /// non-panicking constructor (untrusted programs) use
    /// [`Vm::with_limits`].
    pub fn with_memory(program: Program, words: usize) -> Self {
        Self::with_limits(
            program,
            VmLimits {
                memory_words: words,
                ..VmLimits::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`new`](Vm::new) with explicit [`VmLimits`], returning an
    /// error instead of panicking when the program cannot be loaded.
    /// This is the constructor for untrusted or generated programs.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DataImageTooLarge`] if the program's data
    /// image does not fit in `limits.memory_words`.
    pub fn with_limits(program: Program, limits: VmLimits) -> Result<Self, VmError> {
        let words = limits.memory_words;
        let needed = DATA_BASE as usize + program.data.len();
        if needed > words {
            return Err(VmError::DataImageTooLarge {
                needed,
                available: words,
            });
        }
        let mut mem = vec![0i64; words];
        mem[DATA_BASE as usize..needed].copy_from_slice(&program.data);
        let mut regs = [0i64; NUM_REGS];
        regs[30] = words as i64 - 1; // sp
        Ok(Vm {
            insts: program.insts,
            regs,
            mem,
            pc: program.entry,
            halted: false,
            steps: 0,
            error: None,
            limits,
            deadline: None,
            limit_stop: None,
        })
    }

    /// Current value of register `r` (0..=31).
    pub fn reg(&self, r: usize) -> i64 {
        self.regs[r]
    }

    /// The word at data address `addr`, if in range.
    pub fn mem(&self, addr: i64) -> Option<i64> {
        usize::try_from(addr)
            .ok()
            .and_then(|a| self.mem.get(a))
            .copied()
    }

    /// True once `halt` has executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Total instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The first runtime error encountered, if any.
    pub fn error(&self) -> Option<&VmError> {
        self.error.as_ref()
    }

    /// The configured resource limits.
    pub fn limits(&self) -> &VmLimits {
        &self.limits
    }

    /// The [`VmLimits`] guard that stopped the machine, if one tripped.
    pub fn limit_stop(&self) -> Option<StopReason> {
        self.limit_stop
    }

    /// The instruction index the machine will execute next.
    pub fn pc_index(&self) -> usize {
        self.pc
    }

    /// The decoded instruction at `index`, if within the program.
    pub fn inst_at(&self, index: usize) -> Option<Inst> {
        self.insts.get(index).copied()
    }

    fn write_reg(&mut self, r: u8, value: i64) {
        if r != 0 {
            self.regs[r as usize] = value;
        }
    }

    fn load(&self, pc: usize, addr: i64) -> Result<i64, VmError> {
        usize::try_from(addr)
            .ok()
            .and_then(|a| self.mem.get(a))
            .copied()
            .ok_or(VmError::MemoryOutOfBounds { pc, addr })
    }

    fn store(&mut self, pc: usize, addr: i64, value: i64) -> Result<(), VmError> {
        let slot = usize::try_from(addr)
            .ok()
            .and_then(|a| self.mem.get_mut(a))
            .ok_or(VmError::MemoryOutOfBounds { pc, addr })?;
        *slot = value;
        Ok(())
    }

    /// Stops the machine on a tripped [`VmLimits`] guard: latches the
    /// error and the matching [`StopReason`], and halts further
    /// execution.
    fn trip_limit(&mut self, stop: StopReason, error: VmError) -> VmError {
        self.limit_stop = Some(stop);
        self.error = Some(error.clone());
        self.halted = true;
        error
    }

    /// Executes one instruction. Returns the emitted trace record, if the
    /// instruction produced a register value.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] on out-of-bounds memory access or control
    /// transfer, or when a [`VmLimits`] guard trips; the machine also
    /// latches the error (see [`Vm::error`]).
    pub fn step(&mut self) -> Result<Option<TraceRecord>, VmError> {
        if self.halted {
            return Ok(None);
        }
        if let Some(budget) = self.limits.max_instructions {
            if self.steps >= budget {
                return Err(self.trip_limit(
                    StopReason::InstructionBudgetExhausted { budget },
                    VmError::InstructionBudgetExhausted { budget },
                ));
            }
        }
        if let Some(deadline) = self.limits.deadline {
            let guard = *self
                .deadline
                .get_or_insert_with(|| Deadline::after(deadline));
            if self.steps & DEADLINE_POLL_MASK == 0 && guard.expired() {
                return Err(self.trip_limit(
                    StopReason::DeadlineExceeded { deadline },
                    VmError::DeadlineExceeded { deadline },
                ));
            }
        }
        let pc = self.pc;
        let Some(&inst) = self.insts.get(pc) else {
            let e = VmError::PcOutOfRange { target: pc as i64 };
            self.error = Some(e.clone());
            self.halted = true;
            return Err(e);
        };
        self.steps += 1;
        let mut next = pc + 1;
        let mut result: Option<i64> = None;
        // A macro rather than a closure: a closure would hold a borrow of
        // the register file across the mutable memory operations below.
        macro_rules! r {
            ($n:expr) => {
                self.regs[$n as usize]
            };
        }
        match inst {
            Inst::Add(rd, rs, rt) => result = Some(r!(rs).wrapping_add(r!(rt))).filter(|_| rd != 0),
            Inst::Sub(rd, rs, rt) => result = Some(r!(rs).wrapping_sub(r!(rt))).filter(|_| rd != 0),
            Inst::Mul(rd, rs, rt) => result = Some(r!(rs).wrapping_mul(r!(rt))).filter(|_| rd != 0),
            Inst::Div(rd, rs, rt) => {
                let d = r!(rt);
                let v = if d == 0 { 0 } else { r!(rs).wrapping_div(d) };
                result = Some(v).filter(|_| rd != 0);
            }
            Inst::Rem(rd, rs, rt) => {
                let d = r!(rt);
                let v = if d == 0 { 0 } else { r!(rs).wrapping_rem(d) };
                result = Some(v).filter(|_| rd != 0);
            }
            Inst::Addi(rd, rs, imm) => result = Some(r!(rs).wrapping_add(imm)).filter(|_| rd != 0),
            Inst::And(rd, rs, rt) => result = Some(r!(rs) & r!(rt)).filter(|_| rd != 0),
            Inst::Or(rd, rs, rt) => result = Some(r!(rs) | r!(rt)).filter(|_| rd != 0),
            Inst::Xor(rd, rs, rt) => result = Some(r!(rs) ^ r!(rt)).filter(|_| rd != 0),
            Inst::Andi(rd, rs, imm) => result = Some(r!(rs) & imm).filter(|_| rd != 0),
            Inst::Ori(rd, rs, imm) => result = Some(r!(rs) | imm).filter(|_| rd != 0),
            Inst::Xori(rd, rs, imm) => result = Some(r!(rs) ^ imm).filter(|_| rd != 0),
            Inst::Sll(rd, rs, sh) => result = Some(r!(rs) << sh).filter(|_| rd != 0),
            Inst::Srl(rd, rs, sh) => {
                result = Some((r!(rs) as u64 >> sh) as i64).filter(|_| rd != 0)
            }
            Inst::Sra(rd, rs, sh) => result = Some(r!(rs) >> sh).filter(|_| rd != 0),
            Inst::Slt(rd, rs, rt) => result = Some(i64::from(r!(rs) < r!(rt))).filter(|_| rd != 0),
            Inst::Slti(rd, rs, imm) => result = Some(i64::from(r!(rs) < imm)).filter(|_| rd != 0),
            Inst::Li(rd, imm) => result = Some(imm).filter(|_| rd != 0),
            Inst::Lw(rd, offset, rs) => {
                let addr = r!(rs).wrapping_add(offset);
                match self.load(pc, addr) {
                    Ok(v) => result = Some(v).filter(|_| rd != 0),
                    Err(e) => {
                        self.error = Some(e.clone());
                        self.halted = true;
                        return Err(e);
                    }
                }
            }
            Inst::Sw(rt, offset, rs) => {
                let addr = r!(rs).wrapping_add(offset);
                let value = r!(rt);
                if let Err(e) = self.store(pc, addr, value) {
                    self.error = Some(e.clone());
                    self.halted = true;
                    return Err(e);
                }
            }
            Inst::Beq(rs, rt, target) => {
                if r!(rs) == r!(rt) {
                    next = target;
                }
            }
            Inst::Bne(rs, rt, target) => {
                if r!(rs) != r!(rt) {
                    next = target;
                }
            }
            Inst::Blt(rs, rt, target) => {
                if r!(rs) < r!(rt) {
                    next = target;
                }
            }
            Inst::Bge(rs, rt, target) => {
                if r!(rs) >= r!(rt) {
                    next = target;
                }
            }
            Inst::J(target) => next = target,
            Inst::Jal(target) => {
                // The link register is written but jumps are not value-
                // prediction eligible (paper §4), so nothing is emitted.
                self.regs[31] = (pc + 1) as i64;
                next = target;
            }
            Inst::Jr(rs) => {
                let target = r!(rs);
                if target < 0 || target as usize > self.insts.len() {
                    let e = VmError::PcOutOfRange { target };
                    self.error = Some(e.clone());
                    self.halted = true;
                    return Err(e);
                }
                next = target as usize;
            }
            Inst::Nop => {}
            Inst::Halt => {
                self.halted = true;
                return Ok(None);
            }
        }
        self.pc = next;
        match result {
            Some(value) => {
                let (rd, record_value) = (inst.dest().expect("result implies dest"), value);
                self.write_reg(rd, value);
                Ok(Some(TraceRecord::new(
                    TEXT_BASE + 4 * pc as u64,
                    record_value as u64,
                )))
            }
            None => {
                // Writes to r0 are ignored and emit nothing.
                Ok(None)
            }
        }
    }

    /// Runs until `halt` or until `max_steps` instructions have executed,
    /// collecting the emitted trace.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] if the program faults.
    pub fn run(&mut self, max_steps: u64) -> Result<RunResult, VmError> {
        let start = self.steps;
        let mut trace = Trace::new();
        while !self.halted && self.steps - start < max_steps {
            if let Some(record) = self.step()? {
                trace.push(record);
            }
        }
        Ok(RunResult {
            trace,
            halted: self.halted,
            steps: self.steps - start,
        })
    }

    /// Pulls at most `n` records, propagating VM faults instead of
    /// silently truncating the trace.
    ///
    /// This is the checked counterpart of the [`TraceSource`]
    /// `take_trace` path: `next_record` must map faults to `None` (the
    /// trait has no error channel), which makes a faulting program
    /// indistinguishable from a clean halt unless the caller remembers
    /// to inspect [`Vm::error`]. Engine callers that need to tell the
    /// two apart should use this method.
    ///
    /// # Errors
    ///
    /// Returns the [`VmError`] if the program faults before producing
    /// `n` records (the same error is also latched in [`Vm::error`]).
    pub fn try_take_trace(&mut self, n: usize) -> Result<Trace, VmError> {
        // A cap bounds the pull, not the program: reserve for at most
        // `MAX_RESERVED_RECORDS` and grow only for records that exist.
        let mut trace = Trace::with_capacity(n.min(MAX_RESERVED_RECORDS));
        while trace.len() < n && !self.halted {
            if let Some(record) = self.step()? {
                trace.push(record);
            }
        }
        Ok(trace)
    }
}

impl TraceSource for Vm {
    /// Steps the machine until the next value-producing instruction.
    ///
    /// Returns `None` at `halt` *or on a fault* — the trait has no error
    /// channel. Callers that must distinguish a faulting program from a
    /// clean halt should use [`Vm::try_take_trace`] or check
    /// [`Vm::error`] after the source is exhausted.
    fn next_record(&mut self) -> Option<TraceRecord> {
        while !self.halted {
            match self.step() {
                Ok(Some(record)) => return Some(record),
                Ok(None) => {}
                Err(_) => return None,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_source(src: &str) -> (Vm, RunResult) {
        let mut vm = Vm::new(assemble(src).expect("assembles"));
        let result = vm.run(1_000_000).expect("runs");
        (vm, result)
    }

    #[test]
    fn arithmetic_and_logic() {
        let (vm, _) = run_source(
            ".text
             main: li r1, 6
                   li r2, 7
                   mul r3, r1, r2
                   sub r4, r3, r1
                   div r5, r3, r2
                   rem r6, r3, r4
                   and r7, r1, r2
                   or  r8, r1, r2
                   xor r9, r1, r2
                   sll r10, r1, 2
                   sra r11, r1, 1
                   halt",
        );
        assert_eq!(vm.reg(3), 42);
        assert_eq!(vm.reg(4), 36);
        assert_eq!(vm.reg(5), 6);
        assert_eq!(vm.reg(6), 42 % 36);
        assert_eq!(vm.reg(7), 6 & 7);
        assert_eq!(vm.reg(8), 6 | 7);
        assert_eq!(vm.reg(9), 6 ^ 7);
        assert_eq!(vm.reg(10), 24);
        assert_eq!(vm.reg(11), 3);
    }

    #[test]
    fn division_by_zero_is_zero() {
        let (vm, _) = run_source(".text\nmain: li r1, 9\ndiv r2, r1, r0\nrem r3, r1, r0\nhalt");
        assert_eq!(vm.reg(2), 0);
        assert_eq!(vm.reg(3), 0);
    }

    #[test]
    fn loads_stores_and_data_image() {
        let (vm, _) = run_source(
            ".data
             v: .word 11, 22, 33
             .text
             main: la r1, v
                   lw r2, 1(r1)
                   addi r2, r2, 100
                   sw r2, 2(r1)
                   lw r3, 2(r1)
                   halt",
        );
        assert_eq!(vm.reg(2), 122);
        assert_eq!(vm.reg(3), 122);
        assert_eq!(vm.mem(DATA_BASE + 2), Some(122));
    }

    #[test]
    fn loop_and_branches() {
        let (vm, _) = run_source(
            ".text
             main: li r1, 0
                   li r2, 0
             loop: addi r2, r2, 5
                   addi r1, r1, 1
                   slti r3, r1, 10
                   bne r3, r0, loop
                   halt",
        );
        assert_eq!(vm.reg(2), 50);
    }

    #[test]
    fn call_and_return() {
        let (vm, _) = run_source(
            ".text
             main: li r1, 4
                   jal double
                   jal double
                   halt
             double: add r1, r1, r1
                   jr ra",
        );
        assert_eq!(vm.reg(1), 16);
    }

    #[test]
    fn trace_excludes_control_and_stores() {
        let (_, result) = run_source(
            ".data
             x: .word 0
             .text
             main: li r1, 1       ; emits
                   la r2, x       ; emits (li)
                   sw r1, 0(r2)   ; no
                   lw r3, 0(r2)   ; emits
                   beq r0, r0, next ; no
             next: halt",
        );
        assert_eq!(result.trace.len(), 3);
    }

    #[test]
    fn writes_to_r0_are_ignored_and_unemitted() {
        let (vm, result) = run_source(".text\nmain: li r0, 9\nadd r0, r0, r0\nhalt");
        assert_eq!(vm.reg(0), 0);
        assert_eq!(result.trace.len(), 0);
    }

    #[test]
    fn trace_pcs_follow_text_layout() {
        let (_, result) = run_source(".text\nmain: li r1, 1\nli r2, 2\nhalt");
        let pcs: Vec<u64> = result.trace.iter().map(|r| r.pc).collect();
        assert_eq!(pcs, vec![TEXT_BASE, TEXT_BASE + 4]);
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut vm = Vm::new(assemble(".text\nmain: j main").unwrap());
        let result = vm.run(1000).unwrap();
        assert!(!result.halted);
        assert_eq!(result.steps, 1000);
    }

    #[test]
    fn memory_fault_reported_with_pc() {
        let mut vm = Vm::new(assemble(".text\nmain: li r1, -5\nlw r2, 0(r1)\nhalt").unwrap());
        let e = vm.run(100).unwrap_err();
        assert_eq!(e, VmError::MemoryOutOfBounds { pc: 1, addr: -5 });
        assert!(vm.halted());
        assert_eq!(vm.error(), Some(&e));
    }

    #[test]
    fn bad_jump_reported() {
        let mut vm = Vm::new(assemble(".text\nmain: li r1, -1\njr r1").unwrap());
        assert!(matches!(vm.run(100), Err(VmError::PcOutOfRange { .. })));
    }

    #[test]
    fn trace_source_streams_records() {
        let mut vm = Vm::new(assemble(".text\nmain: li r1, 7\nnop\nli r2, 8\nhalt").unwrap());
        assert_eq!(vm.next_record().map(|r| r.value), Some(7));
        assert_eq!(vm.next_record().map(|r| r.value), Some(8));
        assert_eq!(vm.next_record(), None);
        assert!(vm.halted());
    }

    #[test]
    fn stack_pointer_initialized_to_top() {
        let vm = Vm::with_memory(assemble(".text\nmain: halt").unwrap(), 1 << 14);
        assert_eq!(vm.reg(30), (1 << 14) - 1);
    }

    #[test]
    fn stop_reason_distinguishes_halt_from_budget() {
        let mut vm = Vm::new(assemble(".text\nmain: li r1, 1\nhalt").unwrap());
        assert_eq!(vm.run(100).unwrap().stop_reason(), StopReason::Halted);
        let mut vm = Vm::new(assemble(".text\nmain: j main").unwrap());
        assert_eq!(
            vm.run(50).unwrap().stop_reason(),
            StopReason::StepBudgetExhausted
        );
    }

    #[test]
    fn instruction_budget_stops_endless_kernels_with_typed_error() {
        // Without a budget, `try_take_trace` on a non-emitting infinite
        // loop would spin forever; the guard turns it into a typed error.
        let limits = VmLimits {
            max_instructions: Some(5_000),
            ..VmLimits::default()
        };
        let mut vm = Vm::with_limits(assemble(".text\nmain: j main").unwrap(), limits).unwrap();
        let e = vm.try_take_trace(1).unwrap_err();
        assert_eq!(e, VmError::InstructionBudgetExhausted { budget: 5_000 });
        assert_eq!(vm.steps(), 5_000);
        assert_eq!(
            vm.limit_stop(),
            Some(StopReason::InstructionBudgetExhausted { budget: 5_000 })
        );
        assert!(vm.halted());
        assert_eq!(vm.error(), Some(&e));
        // The machine stays stopped: further pulls drain, never spin.
        assert_eq!(vm.next_record(), None);
        assert_eq!(vm.try_take_trace(1).unwrap(), Trace::new());
    }

    #[test]
    fn budget_is_invisible_to_programs_that_halt_in_time() {
        let src = ".text\nmain: li r1, 0\nli r2, 12\nloop: addi r1, r1, 1\nbne r1, r2, loop\nhalt";
        let limits = VmLimits {
            max_instructions: Some(1_000),
            deadline: Some(Duration::from_secs(60)),
            ..VmLimits::default()
        };
        let mut guarded = Vm::with_limits(assemble(src).unwrap(), limits).unwrap();
        let mut plain = Vm::new(assemble(src).unwrap());
        assert_eq!(guarded.run(100_000).unwrap(), plain.run(100_000).unwrap());
        assert!(guarded.halted());
        assert_eq!(guarded.limit_stop(), None);
    }

    #[test]
    fn deadline_stops_endless_kernels() {
        let limits = VmLimits {
            deadline: Some(Duration::ZERO),
            ..VmLimits::default()
        };
        let mut vm = Vm::with_limits(assemble(".text\nmain: j main").unwrap(), limits).unwrap();
        let e = vm.run(u64::MAX).unwrap_err();
        assert_eq!(
            e,
            VmError::DeadlineExceeded {
                deadline: Duration::ZERO
            }
        );
        assert!(matches!(
            vm.limit_stop(),
            Some(StopReason::DeadlineExceeded { .. })
        ));
        assert!(vm.halted());
        assert_eq!(vm.steps(), 0);
    }

    #[test]
    fn with_limits_rejects_oversized_data_images() {
        let program = assemble(".data\nv: .space 100\n.text\nmain: halt").unwrap();
        let limits = VmLimits {
            memory_words: 64,
            ..VmLimits::default()
        };
        assert!(matches!(
            Vm::with_limits(program, limits),
            Err(VmError::DataImageTooLarge { available: 64, .. })
        ));
    }

    #[test]
    fn try_take_trace_surfaces_faults() {
        // take_trace (via TraceSource) silently truncates on a fault;
        // try_take_trace must propagate it.
        let src = ".text\nmain: li r1, 3\nli r2, -5\nlw r3, 0(r2)\nhalt";
        let mut vm = Vm::new(assemble(src).unwrap());
        let silently = vm.take_trace(100);
        assert_eq!(silently.len(), 2, "fault looked like a clean halt");
        let mut vm = Vm::new(assemble(src).unwrap());
        let e = vm.try_take_trace(100).unwrap_err();
        assert_eq!(e, VmError::MemoryOutOfBounds { pc: 2, addr: -5 });
    }

    #[test]
    fn try_take_trace_matches_take_trace_on_clean_runs() {
        let src = ".text\nmain: li r1, 0\nli r2, 12\nloop: addi r1, r1, 1\nbne r1, r2, loop\nhalt";
        let mut a = Vm::new(assemble(src).unwrap());
        let mut b = Vm::new(assemble(src).unwrap());
        assert_eq!(a.try_take_trace(5).unwrap(), b.take_trace(5));
        assert_eq!(a.try_take_trace(1000).unwrap(), b.take_trace(1000));
        assert!(a.halted() && b.halted());
    }
}
