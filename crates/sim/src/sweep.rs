use dfcm::ValuePredictor;
use dfcm_trace::BenchmarkTrace;

use crate::suite::{run_suite, SuiteResult};

/// One evaluated configuration of a parameter sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint<C> {
    /// The configuration that was evaluated.
    pub config: C,
    /// The suite result at that configuration.
    pub result: SuiteResult,
}

impl<C> SweepPoint<C> {
    /// Shorthand for the weighted suite accuracy at this point.
    pub fn accuracy(&self) -> f64 {
        self.result.weighted_accuracy()
    }

    /// Shorthand for the configuration's storage in Kbit.
    pub fn kbits(&self) -> f64 {
        self.result.kbits
    }
}

/// Evaluates a family of predictor configurations over a benchmark suite.
///
/// `factory` builds a fresh predictor for a configuration; it is invoked
/// once per (configuration, benchmark) pair so that every benchmark sees
/// cold tables, as in the paper.
///
/// ```
/// use dfcm::LastValuePredictor;
/// use dfcm_sim::sweep;
/// use dfcm_trace::suite::standard_traces;
///
/// let traces = standard_traces(1, 0.001);
/// let points = sweep(&[6u32, 8], |&bits| LastValuePredictor::new(bits), &traces);
/// assert_eq!(points.len(), 2);
/// assert!(points[0].accuracy() > 0.0);
/// ```
pub fn sweep<C, P, F>(
    configs: &[C],
    mut factory: F,
    traces: &[BenchmarkTrace],
) -> Vec<SweepPoint<C>>
where
    C: Clone,
    P: ValuePredictor,
    F: FnMut(&C) -> P,
{
    configs
        .iter()
        .map(|config| SweepPoint {
            config: config.clone(),
            result: run_suite(|| factory(config), traces),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfcm::FcmPredictor;
    use dfcm_trace::{BenchmarkTrace, Trace, TraceRecord};

    fn tiny_suite() -> Vec<BenchmarkTrace> {
        // PCs must be 4-byte aligned (see `TraceRecord::pc`): predictors
        // drop the two always-zero low bits, so `16 + (i % 4)` would
        // collapse all four "instructions" into one level-1 entry.
        let trace: Trace = (0..500u64)
            .map(|i| TraceRecord::new(16 + 4 * (i % 4), (i % 7) * 100))
            .collect();
        vec![BenchmarkTrace { name: "t", trace }]
    }

    #[test]
    fn sweep_evaluates_each_config() {
        let traces = tiny_suite();
        let points = sweep(
            &[(4u32, 8u32), (8, 12)],
            |&(l1, l2)| {
                FcmPredictor::builder()
                    .l1_bits(l1)
                    .l2_bits(l2)
                    .build()
                    .unwrap()
            },
            &traces,
        );
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].config, (4, 8));
        assert!(points[1].kbits() > points[0].kbits());
    }

    #[test]
    fn bigger_tables_do_not_hurt_on_context_patterns() {
        let traces = tiny_suite();
        let points = sweep(
            &[8u32, 14],
            |&l2| {
                FcmPredictor::builder()
                    .l1_bits(8)
                    .l2_bits(l2)
                    .build()
                    .unwrap()
            },
            &traces,
        );
        assert!(points[1].accuracy() >= points[0].accuracy() - 0.02);
    }
}
