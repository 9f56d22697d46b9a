use dfcm::ValuePredictor;
use dfcm_obs::Obs;
use dfcm_trace::{Trace, TraceSource};

use crate::stream::{LaneObserver, Pass};

/// Aggregate outcome of running a predictor over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of predictions made.
    pub predictions: u64,
    /// Number of correct predictions.
    pub correct: u64,
}

impl RunStats {
    /// The prediction accuracy, `correct / predictions` (0 for an empty
    /// run).
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }

    /// Merges another run into this one. Saturates rather than
    /// overflowing: merged counters from many chunked sub-runs cap at
    /// `u64::MAX` instead of wrapping into nonsense (or panicking in
    /// debug builds).
    pub fn merge(&mut self, other: RunStats) {
        self.predictions = self.predictions.saturating_add(other.predictions);
        self.correct = self.correct.saturating_add(other.correct);
    }
}

/// Runs `predictor` over at most `n` records of `source`.
pub fn simulate_n<P, S>(predictor: &mut P, source: &mut S, n: usize) -> RunStats
where
    P: ValuePredictor + ?Sized,
    S: TraceSource + ?Sized,
{
    let mut stats = RunStats::default();
    for _ in 0..n {
        let Some(record) = source.next_record() else {
            break;
        };
        stats.predictions += 1;
        stats.correct += u64::from(predictor.access(record.pc, record.value).correct);
    }
    stats
}

/// Runs `predictor` over a buffered trace.
pub fn simulate_trace<P>(predictor: &mut P, trace: &Trace) -> RunStats
where
    P: ValuePredictor + ?Sized,
{
    // Count incrementally (like `simulate_n`) rather than pre-populating
    // `predictions` with `trace.len()`: a chunked or early-exiting caller
    // must never see more predictions reported than were actually made.
    let mut stats = RunStats::default();
    for record in trace {
        stats.predictions += 1;
        stats.correct += u64::from(predictor.access(record.pc, record.value).correct);
    }
    stats
}

/// [`simulate_trace`] with table-usage observability. With `obs` enabled
/// it runs the streaming core's `--obs` observer — the one
/// [`stream_trace_file`](crate::stream_trace_file) uses — over the trace
/// in 64 chunks, inside an `eval.predictor` span: the predictor's table
/// stats are turned on, occupancy is sampled at each chunk end (the
/// `table_occupancy_percent` series, 64 points), the windowed phase
/// series and top-K PC tracker are folded (attached via
/// [`Obs::record_series`], exported as `series.jsonl`), and the table,
/// alias and `eval_accuracy` metrics are recorded, all labeled with
/// `spec`. With `obs` disabled this is exactly [`simulate_trace`].
pub fn simulate_trace_observed<P>(
    predictor: &mut P,
    trace: &Trace,
    obs: &Obs,
    spec: &str,
) -> RunStats
where
    P: ValuePredictor,
{
    if !obs.is_enabled() {
        return simulate_trace(predictor, trace);
    }
    let mut span = obs.span("eval.predictor");
    span.arg("spec", spec);
    let lanes = std::slice::from_mut(predictor);
    let observer = LaneObserver::new(obs, lanes, |_| spec.to_owned());
    let mut pass = Pass::new(lanes, observer);
    // A trailing partial chunk gets its own closing sample, so the
    // occupancy series always ends at the tables' final state.
    trace
        .chunks((trace.len() / 64).max(1))
        .for_each(|chunk| pass.feed(chunk));
    pass.finish().stats[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfcm::LastValuePredictor;
    use dfcm_trace::TraceRecord;

    fn constant_trace(n: u64) -> Trace {
        (0..n).map(|_| TraceRecord::new(4, 9)).collect()
    }

    #[test]
    fn trace_and_source_paths_agree() {
        let trace = constant_trace(100);
        let mut a = LastValuePredictor::new(4);
        let mut b = LastValuePredictor::new(4);
        let sa = simulate_trace(&mut a, &trace);
        let sb = simulate_n(&mut b, &mut trace.source(), usize::MAX);
        assert_eq!(sa, sb);
        assert_eq!(sa.predictions, 100);
        assert_eq!(sa.correct, 99); // one cold miss
    }

    #[test]
    fn simulate_n_bounds_the_run() {
        let trace = constant_trace(100);
        let mut p = LastValuePredictor::new(4);
        let stats = simulate_n(&mut p, &mut trace.source(), 10);
        assert_eq!(stats.predictions, 10);
        let stats = simulate_n(&mut p, &mut trace.source(), 1000);
        assert_eq!(stats.predictions, 100, "stops at trace end");
    }

    #[test]
    fn accuracy_of_empty_run_is_zero() {
        assert_eq!(RunStats::default().accuracy(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RunStats {
            predictions: 10,
            correct: 5,
        };
        a.merge(RunStats {
            predictions: 30,
            correct: 30,
        });
        assert_eq!(a.predictions, 40);
        assert_eq!(a.correct, 35);
        assert!((a.accuracy() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let mut a = RunStats {
            predictions: u64::MAX - 1,
            correct: u64::MAX - 1,
        };
        a.merge(RunStats {
            predictions: 10,
            correct: 3,
        });
        assert_eq!(a.predictions, u64::MAX);
        assert_eq!(a.correct, u64::MAX);
    }

    /// Counts the `table_occupancy_percent` samples an observed run emits.
    fn occupancy_samples(len: u64) -> usize {
        let trace = constant_trace(len);
        let mut p = LastValuePredictor::new(4);
        let obs = Obs::enabled();
        let stats = simulate_trace_observed(&mut p, &trace, &obs, "lvp:4");
        assert_eq!(stats.predictions, len, "incremental count matches trace");
        let (events, _) = obs.snapshot();
        events
            .iter()
            .filter(|e| {
                matches!(e, dfcm_obs::span::Event::Sample { name, .. }
                if name == "table_occupancy_percent")
            })
            .count()
    }

    #[test]
    fn observed_run_samples_final_partial_window() {
        // 131 = 2 * 65 + 1: stride is 131/64 = 2, so boundaries fall on
        // even record counts and the last record (131) is off-stride. The
        // fix guarantees a closing sample there; without it the series
        // ended at record 130 (65 samples, tables one write stale).
        assert_eq!(occupancy_samples(131), 65 + 1);
        // Exact multiples are unchanged: the final record IS a boundary,
        // and no duplicate sample is emitted for it.
        assert_eq!(occupancy_samples(128), 64);
        // Traces shorter than one window (stride clamps to 1) sample at
        // every record, including the last.
        assert_eq!(occupancy_samples(3), 3);
    }
}
