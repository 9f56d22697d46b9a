use std::collections::HashMap;

use crate::word_hash::WordHashBuilder;

/// The paper's five aliasing categories (§4.2), in precedence order: every
/// prediction is put in the *first* category whose detection rule applies.
///
/// An FCM or DFCM with [table stats](crate::ValuePredictor::enable_table_stats)
/// on classifies each of its own predictions: it reports the class of the
/// last one and counts them all per class.
///
/// ```
/// use dfcm::{AliasClass, FcmPredictor, ValuePredictor};
///
/// # fn main() -> Result<(), dfcm::ConfigError> {
/// let mut fcm = FcmPredictor::builder().l1_bits(10).l2_bits(10).build()?;
/// fcm.enable_table_stats();
/// for i in 0..1000u64 {
///     fcm.access(0x400, i % 7);
/// }
/// assert_eq!(fcm.last_alias_class(), Some(AliasClass::NoAlias));
/// let b = fcm.table_stats().and_then(|s| s.alias).expect("an FCM classifies");
/// // A single in-pattern instruction suffers no L1 aliasing.
/// assert_eq!(b.class_total(AliasClass::L1), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AliasClass {
    /// Level-1 aliasing: some value in the history used to index the
    /// level-2 table was produced by a *different* static instruction that
    /// maps to the same level-1 entry.
    L1,
    /// Hash aliasing: the complete (unhashed) history recorded with the
    /// level-2 entry at its last update differs from the current history —
    /// two different contexts collided in the hash.
    Hash,
    /// A per-level-1-entry private level-2 table would have predicted a
    /// different value than the shared global table.
    L2Priv,
    /// The level-2 entry was last updated by a different static
    /// instruction (PC tag mismatch) — aliasing between *identical*
    /// patterns from different instructions, which the paper shows is
    /// benign.
    L2Pc,
    /// No aliasing detected by any rule.
    NoAlias,
}

impl AliasClass {
    /// All classes in precedence order.
    pub const ALL: [AliasClass; 5] = [
        AliasClass::L1,
        AliasClass::Hash,
        AliasClass::L2Priv,
        AliasClass::L2Pc,
        AliasClass::NoAlias,
    ];

    /// The paper's label for this class.
    pub fn label(self) -> &'static str {
        match self {
            AliasClass::L1 => "l1",
            AliasClass::Hash => "hash",
            AliasClass::L2Priv => "l2_priv",
            AliasClass::L2Pc => "l2_pc",
            AliasClass::NoAlias => "none",
        }
    }

    /// This class's position in [`AliasClass::ALL`].
    pub fn index(self) -> usize {
        match self {
            AliasClass::L1 => 0,
            AliasClass::Hash => 1,
            AliasClass::L2Priv => 2,
            AliasClass::L2Pc => 3,
            AliasClass::NoAlias => 4,
        }
    }
}

/// The two kinds of context predictor the §4.2 analyses are made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalyzedKind {
    /// An [`FcmPredictor`](crate::FcmPredictor): history elements are
    /// values.
    Fcm,
    /// A [`DfcmPredictor`](crate::DfcmPredictor): history elements are
    /// differences between successive values.
    Dfcm,
}

/// Per-class prediction counts of a classifying FCM or DFCM
/// ([`TableStats::alias`](crate::TableStats::alias)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AliasBreakdown {
    /// `counts[class][0]` = wrong predictions, `counts[class][1]` = correct.
    counts: [[u64; 2]; 5],
}

impl AliasBreakdown {
    /// Total number of classified predictions.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c[0] + c[1]).sum()
    }

    /// Number of predictions in `class`.
    pub fn class_total(&self, class: AliasClass) -> u64 {
        let c = self.counts[class.index()];
        c[0] + c[1]
    }

    /// Number of correct predictions in `class`.
    pub fn class_correct(&self, class: AliasClass) -> u64 {
        self.counts[class.index()][1]
    }

    /// Fraction of all predictions that fell into `class` (Figure 13).
    pub fn fraction(&self, class: AliasClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.class_total(class) as f64 / total as f64
        }
    }

    /// Prediction accuracy within `class` (Figure 12).
    pub fn accuracy(&self, class: AliasClass) -> f64 {
        let t = self.class_total(class);
        if t == 0 {
            0.0
        } else {
            self.class_correct(class) as f64 / t as f64
        }
    }

    /// Mispredictions in `class` as a fraction of *all* predictions
    /// (Figure 14; the bars stack to the global misprediction rate).
    pub fn misprediction_fraction(&self, class: AliasClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.counts[class.index()][0] as f64 / total as f64
        }
    }

    /// Overall prediction accuracy across all classes.
    pub fn overall_accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.counts.iter().map(|c| c[1]).sum::<u64>() as f64 / total as f64
        }
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &AliasBreakdown) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            a[0] += b[0];
            a[1] += b[1];
        }
    }

    fn record(&mut self, class: AliasClass, correct: bool) {
        self.counts[class.index()][usize::from(correct)] += 1;
    }
}

/// The §4.2 shadow of one FCM or DFCM: what the taxonomy records beside
/// the predictor's own tables, and nothing the predictor already holds.
/// The predictor's instrumented step feeds it the values that step used
/// (the level-1 entry, the pre-update hashed history that indexed the
/// level-2 table, the element read there and the element written) and
/// the step's own outcome, so the shadow classifies the predictions the
/// predictor made, from whatever state it was in when the shadow began.
///
/// It keeps the paper's shadow structures: per-level-1-entry source-PC
/// histories (for `l1`), the complete unhashed history and the writer's
/// PC on every level-2 entry (for `hash` and `l2_pc`), and a private
/// level-2 table per level-1 entry (for `l2_priv`). Only the first rule
/// that applies is counted.
///
/// The state is flat: one row per level-1 and per level-2 entry, and one
/// map for every private table, keyed by level-1 entry and hashed
/// history. So a step reads two rows and one map slot, hashes one word,
/// and allocates nothing but for the map's growth.
///
/// Predictions through a level-2 entry that the shadow has not seen
/// written cannot be checked by the `hash`/`l2_priv`/`l2_pc` rules (there
/// is nothing recorded to compare against) and fall through to `none`.
#[derive(Debug, Clone)]
pub(crate) struct AliasShadow {
    order: usize,
    /// One row of `1 + 2·order` words per level-1 entry: the length of
    /// the entry's element history, then `order` slots of source PCs and
    /// `order` slots of elements, oldest first. The history is the newest
    /// `length` slots.
    l1_rows: Vec<u64>,
    /// One row of `2 + order` words per level-2 entry: the PC of its last
    /// writer, 0 if it was never written and else 1 + the length of the
    /// history its last write recorded, then that history in the first
    /// of `order` slots.
    l2_rows: Vec<u64>,
    /// Every level-1 entry's private level-2 table, keyed by
    /// `i1 << 32 | hashed history` (both are under 2^30).
    private_l2: HashMap<u64, u64, WordHashBuilder>,
    breakdown: AliasBreakdown,
}

impl AliasShadow {
    /// An empty shadow of `l1_entries` level-1 and `l2_entries` level-2
    /// entries, whose hash folds histories of `order` elements.
    pub(crate) fn new(order: usize, l1_entries: usize, l2_entries: usize) -> Self {
        AliasShadow {
            order,
            l1_rows: vec![0; l1_entries * (1 + 2 * order)],
            l2_rows: vec![0; l2_entries * (2 + order)],
            private_l2: HashMap::with_hasher(WordHashBuilder::new()),
            breakdown: AliasBreakdown::default(),
        }
    }

    /// The classification counts accumulated so far.
    pub(crate) fn breakdown(&self) -> AliasBreakdown {
        self.breakdown
    }

    /// Classifies one step of the predictor and counts it: `pc`'s
    /// prediction through level-1 entry `i1` read `stored` from level-2
    /// entry `h` (the pre-update hashed history) and was `correct`. Then
    /// records that the step wrote `element` (a value or a difference)
    /// there.
    pub(crate) fn observe(
        &mut self,
        pc: u64,
        i1: usize,
        h: u64,
        stored: u64,
        element: u64,
        correct: bool,
    ) -> AliasClass {
        let order = self.order;
        let l1_row = &mut self.l1_rows[i1 * (1 + 2 * order)..][..1 + 2 * order];
        let ([length], history) = l1_row
            .split_first_chunk_mut()
            .expect("rows open with a length");
        let (sources, elements) = history.split_at_mut(order);
        let l2_row = &mut self.l2_rows[h as usize * (2 + order)..][..2 + order];
        let ([writer, written], recorded) = l2_row
            .split_first_chunk_mut()
            .expect("rows open with 2 words");

        // Classification (first rule that applies). The private table's
        // entry is read and written in one lookup.
        let len = *length as usize;
        let current = &elements[order - len..];
        let private = self.private_l2.insert(((i1 as u64) << 32) | h, element);
        let class = if sources[order - len..].iter().any(|&src| src != pc) {
            // Rule 1 — l1: a history element came from another instruction.
            AliasClass::L1
        } else if *written != 0 && (*written - 1 != len as u64 || recorded[..len] != *current) {
            // Rule 2 — hash: the recorded complete history differs from
            // the current one.
            AliasClass::Hash
        } else if private.is_some_and(|private| private != stored) {
            // Rule 3 — l2_priv: a private level-2 table would predict
            // differently.
            AliasClass::L2Priv
        } else if *written != 0 && *writer != pc {
            // Rule 4 — l2_pc: the entry was last written by another
            // instruction.
            AliasClass::L2Pc
        } else {
            AliasClass::NoAlias
        };
        self.breakdown.record(class, correct);

        // Shadow maintenance.
        recorded[..len].copy_from_slice(current);
        *written = len as u64 + 1;
        *writer = pc;
        sources.copy_within(1.., 0);
        sources[order - 1] = pc;
        elements.copy_within(1.., 0);
        elements[order - 1] = element;
        *length = (len + 1).min(order) as u64;
        class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfcm::DfcmPredictor;
    use crate::fcm::FcmPredictor;
    use crate::predictor::ValuePredictor;

    /// A cold FCM or DFCM of `2^l1`/`2^l2` entries that classifies its
    /// predictions.
    fn classifying(kind: AnalyzedKind, l1: u32, l2: u32) -> Box<dyn ValuePredictor> {
        let mut p: Box<dyn ValuePredictor> = match kind {
            AnalyzedKind::Fcm => Box::new(
                FcmPredictor::builder()
                    .l1_bits(l1)
                    .l2_bits(l2)
                    .build()
                    .unwrap(),
            ),
            AnalyzedKind::Dfcm => Box::new(
                DfcmPredictor::builder()
                    .l1_bits(l1)
                    .l2_bits(l2)
                    .build()
                    .unwrap(),
            ),
        };
        p.enable_table_stats();
        p
    }

    /// The class of `p`'s prediction of `value` at `pc`.
    fn class_of(p: &mut dyn ValuePredictor, pc: u64, value: u64) -> AliasClass {
        p.access(pc, value);
        p.last_alias_class().expect("a classifying predictor")
    }

    fn breakdown(p: &dyn ValuePredictor) -> AliasBreakdown {
        p.table_stats()
            .and_then(|s| s.alias)
            .expect("a classifying predictor")
    }

    #[test]
    fn l1_aliasing_detected_when_pcs_collide() {
        // Two PCs sharing one L1 entry (l1_bits = 0 → single entry).
        let mut p = classifying(AnalyzedKind::Fcm, 0, 10);
        p.access(0x10, 1);
        p.access(0x20, 2);
        assert_eq!(class_of(&mut *p, 0x10, 3), AliasClass::L1);
    }

    #[test]
    fn no_l1_aliasing_for_isolated_pcs() {
        let mut p = classifying(AnalyzedKind::Fcm, 8, 12);
        for i in 0..100u64 {
            assert_ne!(class_of(&mut *p, 5, i % 4), AliasClass::L1, "i={i}");
        }
    }

    #[test]
    fn l2_pc_detected_for_identical_patterns_from_two_instructions() {
        // Two instructions in disjoint L1 entries producing the *same*
        // repeating pattern share level-2 entries; the PC tag flips between
        // them. The paper calls this benign aliasing — accuracy stays high.
        let mut p = classifying(AnalyzedKind::Fcm, 8, 12);
        let pattern = [3u64, 9, 27, 81];
        for _ in 0..30 {
            for &v in &pattern {
                p.access(0x11, v);
                p.access(0x22, v);
            }
        }
        let b = breakdown(&*p);
        assert!(
            b.class_total(AliasClass::L2Pc) > 100,
            "expected heavy l2_pc traffic, got {}",
            b.class_total(AliasClass::L2Pc)
        );
        assert!(b.accuracy(AliasClass::L2Pc) > 0.9);
    }

    #[test]
    fn none_class_for_single_steady_pattern() {
        let mut p = classifying(AnalyzedKind::Fcm, 8, 12);
        let pattern = [5u64, 1, 4, 1];
        for _ in 0..50 {
            for &v in &pattern {
                p.access(0x7, v);
            }
        }
        let b = breakdown(&*p);
        // Steady state: no aliasing, high accuracy.
        assert!(b.fraction(AliasClass::NoAlias) > 0.8);
        assert!(b.accuracy(AliasClass::NoAlias) > 0.9);
    }

    #[test]
    fn hash_aliasing_detected_in_tiny_l2() {
        // A tiny level-2 table with many distinct contexts forces hash
        // collisions: different complete histories map to the same entry.
        let mut p = classifying(AnalyzedKind::Fcm, 8, 4);
        let mut hits = 0u64;
        for i in 0..2000u64 {
            let pc = (i % 8) * 4; // 8 distinct word-aligned instructions
            let v = i.wrapping_mul(2654435761) % 97;
            hits += u64::from(class_of(&mut *p, pc, v) == AliasClass::Hash);
        }
        assert!(hits > 200, "expected many hash aliases, got {hits}");
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let mut p = classifying(AnalyzedKind::Dfcm, 6, 8);
        for i in 0..3000u64 {
            p.access(i % 40, (i * i) % 1000);
        }
        let b = breakdown(&*p);
        let sum: f64 = AliasClass::ALL.iter().map(|&c| b.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(b.total(), 3000);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = AliasBreakdown::default();
        a.record(AliasClass::Hash, true);
        let mut b = AliasBreakdown::default();
        b.record(AliasClass::Hash, false);
        b.record(AliasClass::NoAlias, true);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.class_total(AliasClass::Hash), 2);
        assert_eq!(a.class_correct(AliasClass::Hash), 1);
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = AliasClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["l1", "hash", "l2_priv", "l2_pc", "none"]);
    }
}
