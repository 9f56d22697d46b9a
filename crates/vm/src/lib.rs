//! A small MIPS-like integer RISC virtual machine, assembler and benchmark
//! kernels that emit value traces.
//!
//! The paper generates its value traces with SimpleScalar 2.0 (`sim-safe`)
//! executing SPECint95 binaries (§4). This crate is the repository's
//! substitute substrate: real programs, written in a small assembly
//! language, run on an interpreter that emits one [`TraceRecord`] per
//! executed integer register-writing instruction (loads included; stores,
//! branches and jumps excluded — the paper's prediction-eligible set).
//!
//! Because the kernels are real code, their traces exhibit the mechanisms
//! the paper discusses: loop induction variables and address streams form
//! stride patterns, `slt` results form near-constant patterns, and
//! data-structure traversals form repeating contexts. The bundled
//! [`programs`] include `norm` — a faithful translation of the paper's
//! Figure 5 kernel — used to regenerate Figures 6 and 9.
//!
//! ```
//! use dfcm_vm::{assemble, Vm};
//! use dfcm_trace::TraceSource;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(dfcm_vm::programs::NORM)?;
//! let mut vm = Vm::new(program);
//! let trace = vm.take_trace(10_000);
//! assert_eq!(trace.len(), 10_000);
//! # Ok(())
//! # }
//! ```
//!
//! [`TraceRecord`]: dfcm_trace::TraceRecord

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
pub mod disasm;
mod isa;
pub mod profile;
pub mod programs;
pub mod suite;
mod vm;

pub use crate::asm::{assemble, AsmError, Program, DATA_BASE, MAX_DATA_WORDS};
pub use crate::disasm::{disassemble, render_inst};
pub use crate::isa::{Inst, Reg, NUM_REGS};
pub use crate::suite::Tier;
pub use crate::vm::{
    RunResult, StopReason, Vm, VmError, VmLimits, DEFAULT_MEMORY_WORDS, MAX_RESERVED_RECORDS,
    TEXT_BASE,
};
