//! The VM kernels packaged as a benchmark suite for the evaluation
//! harness.
//!
//! Where `dfcm_trace::suite` provides statistically-calibrated synthetic
//! stand-ins, this module provides the *Tier A* workloads of DESIGN.md:
//! real programs executing on the interpreter. Both produce
//! [`BenchmarkTrace`]s, so every harness function (suite runs, sweeps,
//! aliasing analysis) works unchanged on either tier.

use dfcm_trace::BenchmarkTrace;

use crate::asm::assemble;
use crate::fast::Tier;
use crate::programs;
use crate::vm::{Vm, VmLimits};

/// Generates traces for every bundled kernel, each capped at
/// `max_records` records (kernels that halt earlier contribute their full
/// run). Runs on [`Tier::Fast`]; the tiers are differentially verified to
/// be bit-identical, so callers see the exact interpreter trace, faster.
///
/// # Panics
///
/// Panics if a bundled kernel fails to assemble or faults — both indicate
/// a broken build, not a caller error.
pub fn kernel_traces(max_records: usize) -> Vec<BenchmarkTrace> {
    kernel_traces_with(max_records, Tier::Fast)
}

/// As [`kernel_traces`] with an explicit execution tier.
///
/// # Panics
///
/// Panics if a bundled kernel fails to assemble or faults.
pub fn kernel_traces_with(max_records: usize, tier: Tier) -> Vec<BenchmarkTrace> {
    programs::all()
        .into_iter()
        .map(|(name, src)| {
            let program = assemble(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut vm = Vm::with_tier(program, VmLimits::default(), tier)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let trace = vm
                .try_take_trace(max_records)
                .unwrap_or_else(|e| panic!("{name} faulted: {e}"));
            BenchmarkTrace { name, trace }
        })
        .collect()
}

/// Generates a trace for one bundled kernel by name (on [`Tier::Fast`]).
pub fn kernel_trace(name: &str, max_records: usize) -> Option<BenchmarkTrace> {
    let src = programs::by_name(name)?;
    let program = assemble(src).expect("bundled kernel assembles");
    let mut vm = Vm::with_tier(program, VmLimits::default(), Tier::Fast)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let registered = programs::all().iter().find(|&&(n, _)| n == name)?.0;
    Some(BenchmarkTrace {
        name: registered,
        trace: vm
            .try_take_trace(max_records)
            .unwrap_or_else(|e| panic!("{name} faulted: {e}")),
    })
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
    fn fast_tier_matches_interpreter_on_suite() {
        assert_eq!(
            kernel_traces_with(2_000, Tier::Fast),
            kernel_traces_with(2_000, Tier::Interp)
        );
    }

    #[test]
    fn names_match_kernel_registry() {
        let traces = kernel_traces(1_000);
        let names: Vec<&str> = traces.iter().map(|t| t.name).collect();
        let expected: Vec<&str> = programs::all().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, expected);
    }
}
