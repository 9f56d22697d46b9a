//! Observed VM trace generation: runs the bundled kernels on the
//! interpreter with one `vm.kernel` span per kernel, so an `--obs`
//! export shows where VM time went.

use dfcm_obs::Obs;
use dfcm_trace::BenchmarkTrace;
use dfcm_vm::{programs, suite};

/// As [`dfcm_vm::suite::kernel_traces`], with one `vm.kernel` span per
/// kernel recorded into `obs`; a no-op when `obs` is disabled.
///
/// # Panics
///
/// Panics if a bundled kernel fails to assemble or faults — both
/// indicate a broken build, not a caller error.
pub fn kernel_traces_observed(max_records: usize, obs: &Obs) -> Vec<BenchmarkTrace> {
    programs::all()
        .into_iter()
        .map(|(name, src)| {
            let mut span = obs.span("vm.kernel");
            span.arg("kernel", name);
            suite::run_kernel(name, src, max_records)
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
    fn records_one_vm_kernel_span_per_kernel() {
        let obs = Obs::enabled();
        kernel_traces_observed(2_000, &obs);
        let (events, metrics) = obs.snapshot();
        let mut kernels: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                dfcm_obs::span::Event::Span { name, args, .. } if name == "vm.kernel" => args
                    .iter()
                    .find(|(k, _)| k == "kernel")
                    .map(|(_, v)| v.as_str()),
                _ => None,
            })
            .collect();
        let mut expected: Vec<&str> = programs::all().iter().map(|&(n, _)| n).collect();
        kernels.sort_unstable();
        expected.sort_unstable();
        assert_eq!(kernels, expected);
        assert!(metrics.is_empty(), "the interpreter records no metrics");
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
