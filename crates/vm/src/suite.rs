//! The VM kernels packaged as a benchmark suite for the evaluation
//! harness.
//!
//! Where `dfcm_trace::suite` provides statistically-calibrated synthetic
//! stand-ins, this module provides the real-program workloads of
//! DESIGN.md §2: programs executing on the interpreter. Both produce
//! [`BenchmarkTrace`]s, so every harness function (suite runs, sweeps,
//! aliasing analysis) works unchanged on either workload set.

use dfcm_trace::BenchmarkTrace;

use crate::asm::assemble;
use crate::programs;
use crate::vm::Vm;

/// The engine names [`kernel_traces_with`] accepts. The VM has one
/// engine, the interpreter, and both variants run it; the type remains
/// because `perfbench` names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Runs the interpreter.
    Interp,
    /// Runs the interpreter, exactly like [`Tier::Interp`].
    Fast,
}

/// Runs one kernel on the interpreter until it halts or has emitted
/// `max_records` records.
///
/// # Panics
///
/// Panics if the kernel fails to assemble or faults — for a bundled
/// kernel both indicate a broken build, not a caller error.
pub fn run_kernel(name: &'static str, src: &str, max_records: usize) -> BenchmarkTrace {
    let program = assemble(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let trace = Vm::new(program)
        .try_take_trace(max_records)
        .unwrap_or_else(|e| panic!("{name} faulted: {e}"));
    BenchmarkTrace { name, trace }
}

/// Generates traces for every bundled kernel, each capped at
/// `max_records` records (kernels that halt earlier contribute their full
/// run).
///
/// # Panics
///
/// Panics if a bundled kernel fails to assemble or faults — both indicate
/// a broken build, not a caller error.
pub fn kernel_traces(max_records: usize) -> Vec<BenchmarkTrace> {
    programs::all()
        .into_iter()
        .map(|(name, src)| run_kernel(name, src, max_records))
        .collect()
}

/// As [`kernel_traces`]: both [`Tier`] variants run the interpreter.
///
/// # Panics
///
/// Panics if a bundled kernel fails to assemble or faults.
pub fn kernel_traces_with(max_records: usize, _tier: Tier) -> Vec<BenchmarkTrace> {
    kernel_traces(max_records)
}

/// Generates a trace for one bundled kernel by name.
///
/// # Panics
///
/// Panics if the kernel fails to assemble or faults.
pub fn kernel_trace(name: &str, max_records: usize) -> Option<BenchmarkTrace> {
    let (name, src) = programs::all().into_iter().find(|&(n, _)| n == name)?;
    Some(run_kernel(name, src, max_records))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_produce_traces() {
        let traces = kernel_traces(20_000);
        assert_eq!(traces.len(), programs::all().len());
        for t in &traces {
            assert!(!t.trace.is_empty(), "{}", t.name);
            assert!(t.trace.len() <= 20_000);
        }
    }

    #[test]
    fn single_kernel_lookup() {
        let t = kernel_trace("sieve", 5_000).expect("sieve exists");
        assert_eq!(t.name, "sieve");
        assert_eq!(t.trace.len(), 5_000);
        assert!(kernel_trace("missing", 10).is_none());
    }

    #[test]
    fn traces_are_deterministic() {
        assert_eq!(kernel_traces(3_000), kernel_traces(3_000));
    }

    #[test]
    fn both_tier_names_run_the_interpreter() {
        let plain = kernel_traces(2_000);
        assert_eq!(kernel_traces_with(2_000, Tier::Fast), plain);
        assert_eq!(kernel_traces_with(2_000, Tier::Interp), plain);
    }

    #[test]
    fn names_match_kernel_registry() {
        let traces = kernel_traces(1_000);
        let names: Vec<&str> = traces.iter().map(|t| t.name).collect();
        let expected: Vec<&str> = programs::all().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, expected);
    }
}
