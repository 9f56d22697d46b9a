use crate::run::RunStats;

/// Per-benchmark result of a suite run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkResult {
    /// The benchmark's name.
    pub name: &'static str,
    /// The run statistics on this benchmark.
    pub stats: RunStats,
}

/// Result of running one predictor configuration over a benchmark suite.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    /// The predictor's label (from [`ValuePredictor::name`]).
    ///
    /// [`ValuePredictor::name`]: dfcm::ValuePredictor::name
    pub predictor: String,
    /// The predictor's storage in Kbit.
    pub kbits: f64,
    /// Per-benchmark results, in suite order.
    pub benchmarks: Vec<BenchmarkResult>,
}

impl SuiteResult {
    /// The paper's summary metric: arithmetic mean over all benchmarks,
    /// weighted by the number of predicted instructions.
    pub fn weighted_accuracy(&self) -> f64 {
        let mut total = RunStats::default();
        for b in &self.benchmarks {
            total.merge(b.stats);
        }
        total.accuracy()
    }

    /// The accuracy on one benchmark, if present.
    pub fn benchmark_accuracy(&self, name: &str) -> Option<f64> {
        self.benchmarks
            .iter()
            .find(|b| b.name == name)
            .map(|b| b.stats.accuracy())
    }
}

/// One evaluated configuration of a parameter sweep
/// ([`sweep_engine_ft`](crate::sweep_engine_ft)).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sweep_engine_ft, EngineConfig};
    use dfcm::{FcmPredictor, LastValuePredictor, ValuePredictor};
    use dfcm_trace::{BenchmarkTrace, Trace, TraceRecord};

    fn bench(name: &'static str, values: &[u64]) -> BenchmarkTrace {
        BenchmarkTrace {
            name,
            trace: values
                .iter()
                .map(|&v| TraceRecord::new(8, v))
                .collect::<Trace>(),
        }
    }

    /// One configuration over `traces` on a single engine worker.
    fn one<P: ValuePredictor>(
        factory: impl Fn() -> P + Sync,
        traces: &[BenchmarkTrace],
    ) -> SuiteResult {
        let (mut points, _) = sweep_engine_ft(
            &[()],
            |()| factory(),
            traces,
            &EngineConfig::threads(1),
            None,
        )
        .unwrap();
        points.pop().unwrap().result
    }

    fn sweep<C, P>(
        configs: &[C],
        factory: impl Fn(&C) -> P + Sync,
        traces: &[BenchmarkTrace],
    ) -> Vec<SweepPoint<C>>
    where
        C: Clone + std::fmt::Debug + Sync,
        P: ValuePredictor,
    {
        sweep_engine_ft(configs, factory, traces, &EngineConfig::threads(2), None)
            .unwrap()
            .0
    }

    #[test]
    fn fresh_predictor_per_benchmark() {
        // If state leaked between benchmarks, the second identical
        // benchmark would have no cold miss.
        let traces = vec![bench("a", &[5, 5, 5]), bench("b", &[5, 5, 5])];
        let result = one(|| LastValuePredictor::new(4), &traces);
        assert_eq!(result.benchmarks[0].stats.correct, 2);
        assert_eq!(result.benchmarks[1].stats.correct, 2, "state must not leak");
    }

    #[test]
    fn weighted_mean_weights_by_predictions() {
        // 100 predictions at 99% and 10 predictions at 0%.
        let traces = vec![
            bench("big", &[7; 100]),
            bench("small", &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
        ];
        let result = one(|| LastValuePredictor::new(4), &traces);
        let expected = 99.0 / 110.0;
        assert!((result.weighted_accuracy() - expected).abs() < 1e-12);
    }

    #[test]
    fn benchmark_accuracy_lookup() {
        let traces = vec![bench("x", &[3, 3])];
        let result = one(|| LastValuePredictor::new(4), &traces);
        assert_eq!(result.benchmark_accuracy("x"), Some(0.5));
        assert_eq!(result.benchmark_accuracy("y"), None);
    }

    #[test]
    fn labels_and_size_reported() {
        let traces = vec![bench("x", &[1])];
        let result = one(|| LastValuePredictor::new(6), &traces);
        assert_eq!(result.predictor, "lvp(2^6)");
        assert!((result.kbits - 2.0).abs() < 1e-12); // 64 entries * 32 bits
    }

    fn context_suite() -> Vec<BenchmarkTrace> {
        // PCs must be 4-byte aligned (see `TraceRecord::pc`): predictors
        // drop the two always-zero low bits, so `16 + (i % 4)` would
        // collapse all four "instructions" into one level-1 entry.
        let trace: Trace = (0..500u64)
            .map(|i| TraceRecord::new(16 + 4 * (i % 4), (i % 7) * 100))
            .collect();
        vec![BenchmarkTrace { name: "t", trace }]
    }

    fn fcm(l1: u32, l2: u32) -> FcmPredictor {
        FcmPredictor::builder()
            .l1_bits(l1)
            .l2_bits(l2)
            .build()
            .unwrap()
    }

    #[test]
    fn sweep_evaluates_each_config() {
        let traces = context_suite();
        let points = sweep(&[(4u32, 8u32), (8, 12)], |&(l1, l2)| fcm(l1, l2), &traces);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].config, (4, 8));
        assert!(points[1].kbits() > points[0].kbits());
    }

    #[test]
    fn bigger_tables_do_not_hurt_on_context_patterns() {
        let traces = context_suite();
        let points = sweep(&[8u32, 14], |&l2| fcm(8, l2), &traces);
        assert!(points[1].accuracy() >= points[0].accuracy() - 0.02);
    }
}
