use crate::run::RunStats;

/// Coverage/accuracy outcome of an issue policy: statistics over every
/// prediction and over the issued ones, as a confidence estimator
/// ([`dfcm::ConfidenceBreakdown`]) or an always-issuing predictor gives
/// them.
///
/// A confidence estimator trades *coverage* (the fraction of predictions
/// it is willing to issue) for *issued accuracy* (the accuracy of the
/// predictions it does issue) — the trade-off that matters when
/// mispredictions cost pipeline squashes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfidenceStats {
    /// Statistics over every prediction, issued or not.
    pub all: RunStats,
    /// Statistics over the issued (confident) predictions only.
    pub issued: RunStats,
}

impl ConfidenceStats {
    /// Fraction of predictions the estimator issued.
    pub fn coverage(&self) -> f64 {
        if self.all.predictions == 0 {
            0.0
        } else {
            self.issued.predictions as f64 / self.all.predictions as f64
        }
    }

    /// Accuracy over issued predictions.
    pub fn issued_accuracy(&self) -> f64 {
        self.issued.accuracy()
    }

    /// Accuracy over all predictions (as if every one were issued).
    pub fn overall_accuracy(&self) -> f64 {
        self.all.accuracy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate_trace;
    use dfcm::{DfcmPredictor, ValuePredictor};
    use dfcm_trace::{Trace, TraceRecord};

    /// The stats of a DFCM of `2^l1`/`2^l2` entries over `trace`, issuing
    /// what the estimator passes at 4 tag bits and a threshold of 2.
    fn gated(l1: u32, l2: u32, trace: &Trace) -> ConfidenceStats {
        let mut p = DfcmPredictor::builder()
            .l1_bits(l1)
            .l2_bits(l2)
            .build()
            .unwrap();
        p.enable_table_stats();
        let all = simulate_trace(&mut p, trace);
        let confidence = p.table_stats().and_then(|s| s.confidence).unwrap();
        assert_eq!(confidence.all(), (all.predictions, all.correct));
        let (predictions, correct) = confidence.issued(4, 2);
        ConfidenceStats {
            all,
            issued: RunStats {
                predictions,
                correct,
            },
        }
    }

    #[test]
    fn coverage_and_accuracy_on_mixed_trace() {
        // Half stride (predictable), half random (not).
        let mut trace = Trace::new();
        let mut x = 3u64;
        for i in 0..4000u64 {
            trace.push(TraceRecord::new(0x10, 5 * i));
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            trace.push(TraceRecord::new(0x20, x >> 30));
        }
        let stats = gated(8, 10, &trace);
        assert_eq!(stats.all.predictions, 8000);
        assert!(
            stats.coverage() > 0.3 && stats.coverage() < 0.8,
            "{}",
            stats.coverage()
        );
        assert!(
            stats.issued_accuracy() > stats.overall_accuracy() + 0.2,
            "issued {:.3} vs overall {:.3}",
            stats.issued_accuracy(),
            stats.overall_accuracy()
        );
    }

    #[test]
    fn empty_trace_is_safe() {
        let stats = gated(4, 6, &Trace::new());
        assert_eq!(stats.coverage(), 0.0);
        assert_eq!(stats.issued_accuracy(), 0.0);
    }

    #[test]
    fn issued_subset_of_all() {
        let trace: Trace = (0..500).map(|i| TraceRecord::new(0x8, i % 9)).collect();
        let stats = gated(4, 8, &trace);
        assert!(stats.issued.predictions <= stats.all.predictions);
        assert!(stats.issued.correct <= stats.all.correct);
    }
}
