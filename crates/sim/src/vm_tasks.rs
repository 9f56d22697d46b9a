//! Instrumented VM trace generation: runs the bundled kernels on the
//! fast execution tier and records the tier's behaviour into
//! [`dfcm_obs`] so `dfcm-tools obs summarize` can surface it.
//!
//! The fast tier is differentially verified to be bit-identical to the
//! interpreter, so evaluation results never depend on the tier — only
//! wall-clock does. This module exists to make the tier's *mechanics*
//! observable: how much of a kernel ran as fused superinstructions or
//! replayed loop traces, how often recordings started and aborted, and
//! how often replay guards failed.

use dfcm_obs::Obs;
use dfcm_trace::BenchmarkTrace;
use dfcm_vm::{assemble, programs, Tier, TierStats, Vm, VmLimits};

/// Records one VM run's [`TierStats`] into `obs` as `vm_*` counters,
/// labeled with the kernel name and tier. No-op on a disabled handle or
/// for runs without fast-tier state (the interpreter has no stats).
pub fn record_tier_stats(obs: &Obs, kernel: &str, tier: Tier, stats: &TierStats) {
    if !obs.is_enabled() {
        return;
    }
    let labels = &[("kernel", kernel), ("tier", tier.as_str())];
    obs.add("vm_instructions_total", labels, stats.instructions);
    obs.add("vm_fused_executed_total", labels, stats.fused_executed);
    obs.add(
        "vm_trace_recordings_started_total",
        labels,
        stats.recordings_started,
    );
    obs.add("vm_traces_recorded_total", labels, stats.traces_recorded);
    obs.add("vm_record_aborts_total", labels, stats.record_aborts);
    obs.add(
        "vm_replay_iterations_total",
        labels,
        stats.replay_iterations,
    );
    obs.add(
        "vm_replay_instructions_total",
        labels,
        stats.replay_instructions,
    );
    obs.add("vm_guard_failures_total", labels, stats.guard_failures);
    obs.add("vm_replay_aborts_total", labels, stats.replay_aborts);
    obs.gauge("vm_fusion_sites", labels, stats.fusion_sites as f64);
}

/// As [`dfcm_vm::suite::kernel_traces`], with per-kernel `vm.kernel`
/// spans and `vm_*` fast-tier metrics recorded into `obs`; both are
/// no-ops when `obs` is disabled.
///
/// # Panics
///
/// Panics if a bundled kernel fails to assemble or faults — both
/// indicate a broken build, not a caller error.
pub fn kernel_traces_observed(max_records: usize, obs: &Obs) -> Vec<BenchmarkTrace> {
    let tier = Tier::Fast;
    programs::all()
        .into_iter()
        .map(|(name, src)| {
            let mut span = obs.span("vm.kernel");
            span.arg("kernel", name);
            span.arg("tier", tier.as_str());
            let program = assemble(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut vm = Vm::with_tier(program, VmLimits::default(), tier)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let trace = vm
                .try_take_trace(max_records)
                .unwrap_or_else(|e| panic!("{name} faulted: {e}"));
            if let Some(stats) = vm.tier_stats() {
                record_tier_stats(obs, name, tier, stats);
            }
            BenchmarkTrace { name, trace }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_traces_match_plain_suite() {
        let plain = dfcm_vm::suite::kernel_traces(2_000);
        assert_eq!(kernel_traces_observed(2_000, &Obs::enabled()), plain);
        assert_eq!(kernel_traces_observed(2_000, &Obs::disabled()), plain);
    }

    #[test]
    fn fast_tier_records_vm_metrics_and_spans() {
        use dfcm_obs::metrics::MetricValue;

        let obs = Obs::enabled();
        kernel_traces_observed(2_000, &obs);
        let (events, metrics) = obs.snapshot();
        let counter = |name: &str, kernel: &str| -> u64 {
            match metrics.get(name, &[("kernel", kernel), ("tier", "fast")]) {
                Some(MetricValue::Counter(n)) => *n,
                other => panic!("missing counter {name} for {kernel}: {other:?}"),
            }
        };
        assert!(counter("vm_instructions_total", "matmul") > 0);
        // Loop-dominated kernels must show fusion and replay activity.
        assert!(counter("vm_fused_executed_total", "sieve") > 0);
        assert!(counter("vm_replay_iterations_total", "sieve") > 0);
        let spans = events
            .iter()
            .filter(
                |e| matches!(e, dfcm_obs::span::Event::Span { name, .. } if name == "vm.kernel"),
            )
            .count();
        assert_eq!(spans, programs::all().len());
    }

    #[test]
    fn disabled_handle_is_a_passthrough() {
        let obs = Obs::disabled();
        let traces = kernel_traces_observed(500, &obs);
        assert_eq!(traces.len(), programs::all().len());
        let (events, metrics) = obs.snapshot();
        assert!(events.is_empty() && metrics.is_empty());
    }
}
