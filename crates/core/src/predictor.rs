use crate::storage::StorageCost;
use crate::table_stats::TableStats;

/// Result of one predict-then-update step on a value predictor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct AccessOutcome {
    /// The value the predictor produced before seeing the actual result.
    pub predicted: u64,
    /// Whether `predicted` equalled the actual result.
    pub correct: bool,
}

/// A dynamic value predictor, indexed by instruction address.
///
/// The protocol mirrors hardware operation: for every predicted dynamic
/// instruction, [`predict`](ValuePredictor::predict) is called with the
/// program counter, and once the actual result is known
/// [`update`](ValuePredictor::update) trains the tables. The convenience
/// method [`access`](ValuePredictor::access) performs both and reports
/// whether the prediction was correct — trace-driven evaluation (the paper's
/// methodology, §4) is a fold of `access` over the trace.
///
/// Implementations are deterministic: the same sequence of calls always
/// produces the same predictions.
///
/// ```
/// use dfcm::{LastValuePredictor, ValuePredictor};
///
/// let mut lvp = LastValuePredictor::new(6);
/// lvp.update(0x40, 7);
/// assert_eq!(lvp.predict(0x40), 7);
/// assert!(lvp.access(0x40, 7).correct);
/// ```
pub trait ValuePredictor {
    /// Returns the predicted result for the instruction at `pc`.
    ///
    /// Prediction does not train any state; tables are only modified by
    /// [`update`](ValuePredictor::update). (Implementations take `&mut self`
    /// so they may keep internal statistics or scratch state.)
    fn predict(&mut self, pc: u64) -> u64;

    /// Trains the predictor with the `actual` result produced at `pc`.
    fn update(&mut self, pc: u64, actual: u64);

    /// Predicts, compares against `actual`, then updates.
    ///
    /// Implementations with oracle components (notably
    /// [`HybridPredictor`](crate::HybridPredictor) with
    /// [`PerfectMeta`](crate::PerfectMeta)) override this to give the oracle
    /// access to the actual value at selection time.
    fn access(&mut self, pc: u64, actual: u64) -> AccessOutcome {
        let predicted = self.predict(pc);
        self.update(pc, actual);
        AccessOutcome {
            predicted,
            correct: predicted == actual,
        }
    }

    /// The itemized table storage this configuration requires.
    fn storage(&self) -> StorageCost;

    /// A short human-readable name including the configuration, e.g.
    /// `"dfcm(l1=2^16,l2=2^12)"`. Used as a label in reports.
    fn name(&self) -> String;

    /// Turns on table-usage instrumentation (occupancy, writes,
    /// overwrites, and — where supported — the §4.2 aliasing
    /// classification). Counting starts from the current state; the
    /// default implementation ignores the request.
    fn enable_table_stats(&mut self) {}

    /// The usage counters collected since
    /// [`enable_table_stats`](ValuePredictor::enable_table_stats), or
    /// `None` if instrumentation is off or unsupported.
    fn table_stats(&self) -> Option<TableStats> {
        None
    }

    /// The aliasing class (§4.2 taxonomy) the most recent
    /// [`update`](ValuePredictor::update) /
    /// [`access`](ValuePredictor::access) fell into, or `None` when the
    /// predictor does not classify accesses or instrumentation is off.
    ///
    /// Phase-resolved observability reads this after each access to
    /// attribute per-window and per-PC mispredictions to the paper's
    /// aliasing classes without a second analyzer pass.
    fn last_alias_class(&self) -> Option<crate::AliasClass> {
        None
    }
}

impl<P: ValuePredictor + ?Sized> ValuePredictor for Box<P> {
    fn predict(&mut self, pc: u64) -> u64 {
        (**self).predict(pc)
    }

    fn update(&mut self, pc: u64, actual: u64) {
        (**self).update(pc, actual)
    }

    fn access(&mut self, pc: u64, actual: u64) -> AccessOutcome {
        (**self).access(pc, actual)
    }

    fn storage(&self) -> StorageCost {
        (**self).storage()
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn enable_table_stats(&mut self) {
        (**self).enable_table_stats()
    }

    fn table_stats(&self) -> Option<TableStats> {
        (**self).table_stats()
    }

    fn last_alias_class(&self) -> Option<crate::AliasClass> {
        (**self).last_alias_class()
    }
}

/// A two-level predictor whose level-2 index can be observed.
///
/// Used by [`StrideOccupancyProfiler`](crate::StrideOccupancyProfiler) to
/// attribute accesses to level-2 entries (the paper's Figures 6 and 9).
pub trait L2Indexed {
    /// The level-2 entry the *next* prediction for `pc` would read.
    fn l2_index(&self, pc: u64) -> usize;

    /// Number of entries in the level-2 table.
    fn l2_entries(&self) -> usize;
}

/// Computes a table index from an instruction address.
///
/// Instruction addresses are 4-byte aligned on the MIPS-like substrates
/// this crate is evaluated with (and on the paper's SimpleScalar), so the
/// two always-zero low bits are dropped before masking — otherwise a
/// `2^n`-entry table would only ever use a quarter of its entries.
#[inline]
pub(crate) fn pc_index(pc: u64, mask: usize) -> usize {
    (pc >> 2) as usize & mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lvp::LastValuePredictor;

    #[test]
    fn default_access_matches_predict_then_update() {
        let mut a = LastValuePredictor::new(4);
        let mut b = LastValuePredictor::new(4);
        for (pc, v) in [(1u64, 10u64), (2, 20), (1, 10), (1, 11), (2, 20)] {
            let predicted = a.predict(pc);
            a.update(pc, v);
            let out = b.access(pc, v);
            assert_eq!(out.predicted, predicted);
            assert_eq!(out.correct, predicted == v);
        }
    }

    #[test]
    fn fused_access_matches_predict_then_update_for_all_predictors() {
        // Every predictor overrides `access` with a fused single-index
        // implementation; it must stay bit-identical to the two-call
        // protocol, including under table-stats instrumentation.
        let make: Vec<fn() -> Box<dyn ValuePredictor>> = vec![
            || Box::new(crate::LastValuePredictor::new(4)),
            || Box::new(crate::StridePredictor::new(4)),
            || Box::new(crate::TwoDeltaStridePredictor::new(4)),
            || {
                Box::new(
                    crate::FcmPredictor::builder()
                        .l1_bits(4)
                        .l2_bits(8)
                        .build()
                        .unwrap(),
                )
            },
            || {
                Box::new(
                    crate::DfcmPredictor::builder()
                        .l1_bits(4)
                        .l2_bits(8)
                        .build()
                        .unwrap(),
                )
            },
        ];
        // A stream mixing constants, strides, resets and pc aliasing.
        let stream: Vec<(u64, u64)> = (0..500u64)
            .map(|i| (4 * (i % 21), (i / 7).wrapping_mul(3).wrapping_sub(i % 5)))
            .collect();
        for factory in make {
            let mut fused = factory();
            let mut split = factory();
            fused.enable_table_stats();
            split.enable_table_stats();
            for &(pc, v) in &stream {
                let predicted = split.predict(pc);
                split.update(pc, v);
                let out = fused.access(pc, v);
                assert_eq!(out.predicted, predicted, "{}", fused.name());
                assert_eq!(out.correct, predicted == v);
            }
            assert_eq!(fused.table_stats(), split.table_stats(), "{}", fused.name());
        }
    }

    #[test]
    fn last_alias_class_reconciles_with_breakdown() {
        // Per-access classes summed over the run must equal the
        // analyzer's aggregate breakdown — the invariant phase-resolved
        // attribution depends on. Also checks Box forwarding.
        let make: Vec<fn() -> Box<dyn ValuePredictor>> = vec![
            || {
                Box::new(
                    crate::FcmPredictor::builder()
                        .l1_bits(4)
                        .l2_bits(8)
                        .build()
                        .unwrap(),
                )
            },
            || {
                Box::new(
                    crate::DfcmPredictor::builder()
                        .l1_bits(4)
                        .l2_bits(8)
                        .build()
                        .unwrap(),
                )
            },
        ];
        for factory in make {
            let mut p = factory();
            assert_eq!(p.last_alias_class(), None);
            p.access(0x40, 1);
            assert_eq!(p.last_alias_class(), None, "no stats yet: {}", p.name());
            p.enable_table_stats();
            let mut counts = std::collections::BTreeMap::new();
            for i in 0..400u64 {
                p.access(4 * (i % 17), (i / 3).wrapping_mul(7).wrapping_sub(i % 4));
                let class = p.last_alias_class().expect("stats enabled");
                *counts.entry(class.label()).or_insert(0u64) += 1;
            }
            let alias = p.table_stats().unwrap().alias.unwrap();
            assert_eq!(alias.total(), 400, "{}", p.name());
            for class in crate::AliasClass::ALL {
                assert_eq!(
                    counts.get(class.label()).copied().unwrap_or(0),
                    alias.class_total(class),
                    "{} class {}",
                    p.name(),
                    class.label()
                );
            }
        }
        // Predictors without an analyzer always report None.
        let mut lvp = LastValuePredictor::new(4);
        lvp.enable_table_stats();
        lvp.access(0x40, 1);
        assert_eq!(lvp.last_alias_class(), None);
    }

    #[test]
    fn boxed_predictor_delegates() {
        let mut boxed: Box<dyn ValuePredictor> = Box::new(LastValuePredictor::new(4));
        boxed.update(5, 42);
        assert_eq!(boxed.predict(5), 42);
        assert!(boxed.access(5, 42).correct);
        assert!(boxed.storage().total_bits() > 0);
        assert!(boxed.name().contains("lvp"));
    }
}
