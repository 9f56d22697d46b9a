//! A first-order speculation benefit model.
//!
//! The paper evaluates predictors by accuracy only (§4: embedding effects
//! are "only partially understood"), but its motivation is ILP: a correct
//! value prediction lets dependent instructions execute early, a wrong one
//! costs a squash. This module provides the standard first-order account:
//! each issued correct prediction saves `benefit` cycles, each issued
//! misprediction costs `penalty` cycles, unissued predictions are neutral.
//! The break-even accuracy is `penalty / (benefit + penalty)` — with a
//! benefit of 1 and a penalty of 10, a predictor must exceed ~91%
//! accuracy on the predictions it issues, which is why the confidence
//! estimation of §4.2 matters.
//!
//! The penalty only enters [`SpeculationModel::net_cycles`], so one
//! simulation serves every penalty: an always-issuing predictor scores
//! its [`simulate_trace`](crate::simulate_trace) stats, a
//! confidence-gated one the predictions its
//! [`ConfidenceBreakdown`](dfcm::ConfidenceBreakdown) counts as issued.

use crate::run::RunStats;

/// Cycle cost model for issued predictions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationModel {
    /// Cycles saved by a correct issued prediction.
    pub benefit: f64,
    /// Cycles lost by an incorrect issued prediction (squash cost).
    pub penalty: f64,
}

impl SpeculationModel {
    /// The issued-accuracy above which speculation is profitable.
    pub fn break_even_accuracy(&self) -> f64 {
        self.penalty / (self.benefit + self.penalty)
    }

    /// Net cycles saved by a set of issued predictions.
    pub fn net_cycles(&self, issued: RunStats) -> f64 {
        let wrong = issued.predictions - issued.correct;
        issued.correct as f64 * self.benefit - wrong as f64 * self.penalty
    }
}

impl Default for SpeculationModel {
    /// A conservative default: 1 cycle saved per hit, 10 cycles of squash
    /// per miss.
    fn default() -> Self {
        SpeculationModel {
            benefit: 1.0,
            penalty: 10.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate_trace;
    use dfcm::{DfcmPredictor, ValuePredictor};
    use dfcm_trace::{Trace, TraceRecord};

    fn mixed_trace() -> Trace {
        let mut trace = Trace::new();
        let mut x = 11u64;
        for i in 0..5000u64 {
            trace.push(TraceRecord::new(0x10, 5 * i)); // predictable
            x = x.wrapping_mul(6364136223846793005).wrapping_add(3);
            trace.push(TraceRecord::new(0x20, x >> 25)); // unpredictable
        }
        trace
    }

    /// Net cycles of issuing every prediction of a DFCM, and of issuing
    /// only those its confidence estimator passes at 4 tag bits and a
    /// threshold of 2.
    fn always_and_gated(model: SpeculationModel, trace: &Trace) -> (f64, f64) {
        let mut p = DfcmPredictor::builder()
            .l1_bits(8)
            .l2_bits(10)
            .build()
            .unwrap();
        p.enable_table_stats();
        let always = model.net_cycles(simulate_trace(&mut p, trace));
        let confidence = p.table_stats().and_then(|s| s.confidence).unwrap();
        let (predictions, correct) = confidence.issued(4, 2);
        let gated = model.net_cycles(RunStats {
            predictions,
            correct,
        });
        (always, gated)
    }

    #[test]
    fn break_even_matches_formula() {
        let m = SpeculationModel {
            benefit: 1.0,
            penalty: 10.0,
        };
        assert!((m.break_even_accuracy() - 10.0 / 11.0).abs() < 1e-12);
        let m = SpeculationModel {
            benefit: 2.0,
            penalty: 2.0,
        };
        assert_eq!(m.break_even_accuracy(), 0.5);
    }

    #[test]
    fn net_cycles_accounting() {
        let m = SpeculationModel {
            benefit: 1.0,
            penalty: 10.0,
        };
        let issued = RunStats {
            predictions: 100,
            correct: 95,
        };
        assert_eq!(m.net_cycles(issued), 95.0 - 50.0);
    }

    #[test]
    fn confidence_gating_rescues_harsh_penalties() {
        // At a 10-cycle squash cost, a ~50%-accurate unconditional DFCM
        // loses cycles; the tagged estimator turns it profitable.
        let (always, gated) = always_and_gated(SpeculationModel::default(), &mixed_trace());
        assert!(always < 0.0, "unconditional issue must lose: {always}");
        assert!(gated > 0.0, "gated issue must win: {gated}");
    }

    #[test]
    fn mild_penalties_favor_wide_issue() {
        // With no squash cost, issuing everything dominates gating.
        let model = SpeculationModel {
            benefit: 1.0,
            penalty: 0.0,
        };
        let (always, gated) = always_and_gated(model, &mixed_trace());
        assert!(always >= gated);
    }

    #[test]
    fn empty_trace_is_neutral() {
        let (always, gated) = always_and_gated(SpeculationModel::default(), &Trace::new());
        assert_eq!(always, 0.0);
        assert_eq!(gated, 0.0);
    }
}
