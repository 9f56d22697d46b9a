/// The confidence estimator the paper *suggests* at the end of §4.2 but
/// does not evaluate, as counts over the predictions of an FCM or DFCM
/// with [table stats](crate::ValuePredictor::enable_table_stats) on
/// ([`TableStats::confidence`](crate::TableStats::confidence)):
///
/// > "the design of a confidence estimator for a (D)FCM predictor should
/// > include tagging the level-2 table with some information to track
/// > hash-aliasing … Some bits of a second hashing function, orthogonal to
/// > the main one, seems to be a good choice for the tag."
///
/// Each level-1 entry keeps a *second* hashed history of its elements
/// (values for an FCM, differences for a DFCM) with a fold shift of 3
/// instead of the index hash's 5, so it evolves orthogonally to the
/// index; each level-2 entry keeps the tag its last write saw and a
/// 2-bit counter, which a correct prediction raises toward 3 and a wrong
/// one resets to 0. A prediction is issued when the entry's tag matches
/// the current one in its low `tag_bits` bits (a mismatch means the
/// entry was last written under another context: hash aliasing, the
/// dominant misprediction source in Figure 14) and its counter reaches
/// `threshold`. Tags are kept at 16 bits, so one pass answers every tag
/// width from 0 (the counter alone) to 16 and every threshold from 0 to
/// 3: each prediction is counted by how many low tag bits matched, the
/// counter and whether it was right.
///
/// ```
/// use dfcm::{DfcmPredictor, ValuePredictor};
///
/// # fn main() -> Result<(), dfcm::ConfigError> {
/// let mut p = DfcmPredictor::builder().l1_bits(8).l2_bits(8).build()?;
/// p.enable_table_stats();
/// // Warm a stride, then count one more prediction: it is confident at
/// // four tag bits and a threshold of 2, and correct.
/// for i in 0..50u64 {
///     p.access(0x40, 7 * i);
/// }
/// let before = p.table_stats().and_then(|s| s.confidence).expect("a DFCM estimates");
/// assert!(p.access(0x40, 7 * 50).correct);
/// let after = p.table_stats().and_then(|s| s.confidence).expect("a DFCM estimates");
/// assert_eq!(after.issued(4, 2).0, before.issued(4, 2).0 + 1);
/// assert_eq!(after.all().0, 51);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfidenceBreakdown {
    /// `counts[m][c][1]` = correct predictions whose stored tag matched
    /// the current one in exactly `m` low bits (16 for all of them) with
    /// counter `c`; `counts[m][c][0]` = wrong ones.
    counts: [[[u64; 2]; 4]; 17],
}

impl ConfidenceBreakdown {
    /// Every prediction counted: (predictions, correct).
    pub fn all(&self) -> (u64, u64) {
        self.issued(0, 0)
    }

    /// The predictions an estimator with `tag_bits` tag bits (0–16) and a
    /// counter `threshold` (0–3) would issue: those whose tag matched in
    /// at least `tag_bits` low bits with a counter of at least
    /// `threshold`, as (predictions, correct). Wider tags and higher
    /// thresholds issue nothing.
    pub fn issued(&self, tag_bits: u32, threshold: u8) -> (u64, u64) {
        let cells = self.counts.iter().skip(tag_bits as usize);
        let cells = cells.flat_map(|counters| counters.iter().skip(usize::from(threshold)));
        cells.fold((0, 0), |(n, correct), [wrong, right]| {
            (n + wrong + right, correct + right)
        })
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &ConfidenceBreakdown) {
        let cells = self.counts.iter_mut().flatten().flatten();
        for (a, b) in cells.zip(other.counts.iter().flatten().flatten()) {
            *a += b;
        }
    }

    /// One step of the estimator on its shadow words: `history`, the
    /// level-1 entry's orthogonal tag history, and `entry`, the level-2
    /// entry's stored tag with its counter above bit 16. Counts the
    /// step's prediction (`correct` or not) by what the estimator would
    /// have decided, then records that the step wrote `element` there.
    #[inline(always)]
    pub(crate) fn observe(
        &mut self,
        history: &mut u64,
        entry: &mut u64,
        element: u64,
        correct: bool,
    ) {
        let matched = ((*entry ^ *history) as u16).trailing_zeros() as usize;
        let counter = (*entry >> 16) as usize & 3;
        self.counts[matched][counter][usize::from(correct)] += 1;
        let counter = if correct { (counter + 1).min(3) } else { 0 };
        *entry = *history | (counter as u64) << 16;
        let folded = element ^ element >> 16 ^ element >> 32 ^ element >> 48;
        *history = ((*history << 3) ^ folded) & 0xFFFF;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfcm::DfcmPredictor;
    use crate::predictor::ValuePredictor;

    /// A cold DFCM of `2^l1`/`2^l2` entries that counts its predictions
    /// by the estimator's verdicts.
    fn estimating(l1: u32, l2: u32) -> DfcmPredictor {
        let mut p = DfcmPredictor::builder()
            .l1_bits(l1)
            .l2_bits(l2)
            .build()
            .unwrap();
        p.enable_table_stats();
        p
    }

    fn breakdown(p: &DfcmPredictor) -> ConfidenceBreakdown {
        p.table_stats()
            .and_then(|s| s.confidence)
            .expect("an estimating predictor")
    }

    /// Whether `p`'s prediction of `value` at `pc` is issued at
    /// `tag_bits` and `threshold`.
    fn confident(p: &mut DfcmPredictor, pc: u64, value: u64, tag_bits: u32, threshold: u8) -> bool {
        let before = breakdown(p).issued(tag_bits, threshold).0;
        p.access(pc, value);
        breakdown(p).issued(tag_bits, threshold).0 > before
    }

    #[test]
    fn steady_pattern_becomes_confident() {
        let mut p = estimating(8, 10);
        for i in 0..50u64 {
            p.access(0x10, 3 * i);
        }
        assert!(confident(&mut p, 0x10, 150, 4, 2));
    }

    #[test]
    fn cold_entry_is_not_confident() {
        let mut p = estimating(8, 10);
        assert!(
            !confident(&mut p, 0x10, 0, 4, 2),
            "cold counter must gate issue"
        );
    }

    #[test]
    fn hash_alias_suppresses_confidence() {
        // Two instructions with different contexts that collide in a tiny
        // level-2 table: the tags keep flipping, so at least one side is
        // flagged unconfident most of the time even though the shared
        // entry keeps serving both.
        let mut p = estimating(6, 2);
        for i in 0..4000u64 {
            for (pc, v) in [(0x10u64, 17 * i), (0x20, (i * i) % 97)] {
                p.access(pc, v);
            }
        }
        let b = breakdown(&p);
        let (all, all_correct) = b.all();
        let (issued, issued_correct) = b.issued(4, 1);
        let confident_mispredictions = issued - issued_correct;
        let unconfident_mispredictions = all - all_correct - confident_mispredictions;
        assert!(
            unconfident_mispredictions > confident_mispredictions,
            "tags should catch most collision-driven mispredictions: \
             confident {confident_mispredictions}, unconfident {unconfident_mispredictions}"
        );
    }

    #[test]
    fn issued_predictions_are_more_accurate_than_all() {
        // The estimator's whole point: accuracy over issued predictions
        // beats accuracy over all predictions on a mixed workload.
        let mut p = estimating(8, 8);
        let mut x = 7u64;
        for i in 0..20_000u64 {
            let (pc, v) = match i % 4 {
                0 => (0x10, 5 * (i / 4)),                          // stride
                1 => (0x20, 42),                                   // constant
                2 => (0x30, [9u64, 2, 6][((i / 4) % 3) as usize]), // context
                _ => {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (0x40, x >> 40) // random
                }
            };
            p.access(pc, v);
        }
        let b = breakdown(&p);
        let (all, all_correct) = b.all();
        let (issued, issued_correct) = b.issued(4, 2);
        let acc_all = all_correct as f64 / all as f64;
        let acc_issued = issued_correct as f64 / issued.max(1) as f64;
        assert!(issued > all / 4, "estimator must not refuse everything");
        assert!(
            acc_issued > acc_all + 0.1,
            "issued {acc_issued:.3} must clearly beat all {acc_all:.3}"
        );
    }

    #[test]
    fn zero_tag_bits_leaves_counter_only() {
        let mut p = estimating(6, 8);
        for i in 0..20u64 {
            p.access(0x10, i);
        }
        assert!(confident(&mut p, 0x10, 20, 0, 2));
        let b = breakdown(&p);
        assert_eq!(b.issued(0, 0), b.all(), "no tag and no threshold issue all");
    }
}
