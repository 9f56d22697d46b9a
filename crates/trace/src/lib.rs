//! Value-trace model and synthetic workload generation for value-predictor
//! evaluation.
//!
//! The paper evaluates predictors on value traces produced by SimpleScalar
//! `sim-safe` running SPECint95: one record per dynamic integer
//! register-writing instruction, carrying the instruction address and the
//! produced value (§4). This crate provides the same abstraction —
//! [`TraceRecord`] streams via [`TraceSource`] — together with two trace
//! producers:
//!
//! * [`SyntheticProgram`]: a loop-structured generator that composes
//!   per-static-instruction value [`Pattern`]s (constant, stride,
//!   stride-with-reset, periodic context, random) into a full program
//!   trace, and
//! * [`suite::standard_suite`]: eight benchmark profiles named after the
//!   SPECint95 programs, with pattern mixes calibrated so the
//!   cross-benchmark predictability ordering matches the paper's
//!   Figure 10(b) (see DESIGN.md for the substitution argument).
//!
//! Genuine program traces (from real kernels running on a small RISC VM)
//! are produced by the companion `dfcm-vm` crate, which also emits
//! [`TraceRecord`]s.
//!
//! ```
//! use dfcm_trace::{Pattern, SyntheticProgram, TraceSource};
//!
//! let mut program = SyntheticProgram::builder(42)
//!     .inst(Pattern::Stride { start: 0x1000, stride: 8 }, 4)
//!     .inst(Pattern::Constant(7), 1)
//!     .build();
//! let record = program.next_record().expect("endless source");
//! assert!(record.pc >= dfcm_trace::BASE_PC);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod crc;
mod deadline;
pub mod io;
mod pattern;
mod phases;
mod program;
mod record;
#[cfg(test)]
mod reference;
mod rng;
pub mod stats;
pub mod suite;
mod v3;

pub use crate::deadline::Deadline;
pub use crate::io::{
    atomic_write, atomic_write_with, inspect_trace, read_varint, salvage_trace, v2_chunks,
    write_varint, ChunkInfo, ChunkReader, DroppedChunk, RawChunk, SalvageReport, TraceChunk,
    TraceFile, TraceFormat, TraceFormatError, TraceInfo, V1Reader, V2ChunkReader, V2_CHUNK_RECORDS,
};
pub use crate::pattern::{Pattern, PatternState};
pub use crate::phases::PhasedProgram;
pub use crate::program::{ProgramBuilder, SyntheticProgram, BASE_PC};
pub use crate::record::{Trace, TraceRecord, TraceSource};
pub use crate::rng::SplitMix64;
pub use crate::suite::{BenchmarkSpec, BenchmarkTrace};
pub use crate::v3::{
    max_packed_len as v3_max_packed_len, v3_chunks, V3ChunkReader, V3RawChunk, V3StreamWriter,
    MAX_EXPANSION_RATIO, V3_CHUNK_RECORDS,
};
