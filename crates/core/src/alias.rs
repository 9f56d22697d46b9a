use std::collections::HashMap;

use crate::error::{check_table_bits, ConfigError};
use crate::hash::HashFunction;
use crate::word_hash::WordHashBuilder;
use crate::DEFAULT_VALUE_BITS;

/// The paper's five aliasing categories (§4.2), in precedence order: every
/// prediction is put in the *first* category whose detection rule applies.
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

    fn index(self) -> usize {
        match self {
            AliasClass::L1 => 0,
            AliasClass::Hash => 1,
            AliasClass::L2Priv => 2,
            AliasClass::L2Pc => 3,
            AliasClass::NoAlias => 4,
        }
    }
}

/// Which predictor an [`AliasAnalyzer`] replicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalyzedKind {
    /// Analyze a [`FcmPredictor`](crate::FcmPredictor): history elements
    /// are values.
    Fcm,
    /// Analyze a [`DfcmPredictor`](crate::DfcmPredictor): history elements
    /// are differences between successive values.
    Dfcm,
}

/// Per-class prediction counts collected by an [`AliasAnalyzer`].
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

/// An instrumented FCM/DFCM simulator that classifies every prediction into
/// the paper's aliasing taxonomy (§4.2).
///
/// The analyzer replicates the predictor's two-level state and additionally
/// maintains the paper's shadow structures: per-level-1-entry source-PC
/// histories (for `l1`), complete unhashed histories and PC tags on every
/// level-2 entry (for `hash` and `l2_pc`), and a private level-2 table per
/// level-1 entry (for `l2_priv`). Only the first rule that applies is
/// counted.
///
/// The state is flat: one row per level-1 and per level-2 entry, each
/// holding the replicated fields beside `order` history slots, and one
/// map for every private table, keyed by level-1 entry and hashed
/// history. So an access reads two rows and one map slot, hashes one
/// word, and allocates nothing but for the map's growth.
///
/// Predictions through a level-2 entry that has never been written cannot
/// be checked by the `hash`/`l2_priv`/`l2_pc` rules (there is nothing
/// recorded to compare against) and fall through to `none`; cold-start
/// predictions are almost always wrong but are a vanishing fraction of any
/// realistic trace.
///
/// ```
/// use dfcm::{AliasAnalyzer, AliasClass, AnalyzedKind};
///
/// # fn main() -> Result<(), dfcm::ConfigError> {
/// let mut az = AliasAnalyzer::new(AnalyzedKind::Fcm, 10, 10)?;
/// for i in 0..1000u64 {
///     az.access(0x400, i % 7);
/// }
/// let b = az.breakdown();
/// // A single in-pattern instruction suffers no L1 aliasing.
/// assert_eq!(b.class_total(AliasClass::L1), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AliasAnalyzer {
    kind: AnalyzedKind,
    hash: HashFunction,
    order: usize,
    l1_bits: u32,
    l2_bits: u32,
    l1_mask: usize,
    /// One row of `3 + 2·order` words per level-1 entry: the replicated
    /// hashed history and last value, the length of the entry's element
    /// history, then `order` slots of source PCs and `order` slots of
    /// elements, oldest first. The history is the newest `length` slots.
    l1_rows: Vec<u64>,
    /// One row of `3 + order` words per level-2 entry: the replicated
    /// stored element, the PC of its last writer, 0 if it was never
    /// written and else 1 + the length of the history its last write
    /// recorded, then that history in the first of `order` slots.
    l2_rows: Vec<u64>,
    /// Every level-1 entry's private level-2 table, keyed by
    /// `i1 << 32 | hashed history` (both are under 2^30).
    private_l2: HashMap<u64, u64, WordHashBuilder>,
    breakdown: AliasBreakdown,
    last_predicted: u64,
}

impl AliasAnalyzer {
    /// Creates an analyzer for a predictor with `2^l1_bits` level-1 and
    /// `2^l2_bits` level-2 entries, using the paper's FS R-5 hash.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for table exponents above 30 or below 1 for
    /// the level-2 table.
    pub fn new(kind: AnalyzedKind, l1_bits: u32, l2_bits: u32) -> Result<Self, ConfigError> {
        Self::with_hash(kind, l1_bits, l2_bits, HashFunction::FsR5)
    }

    /// As [`new`](AliasAnalyzer::new) with an explicit hash function.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] as for [`new`](AliasAnalyzer::new), or if
    /// the hash cannot produce `l2_bits`-bit indices.
    pub fn with_hash(
        kind: AnalyzedKind,
        l1_bits: u32,
        l2_bits: u32,
        hash: HashFunction,
    ) -> Result<Self, ConfigError> {
        check_table_bits("l1_bits", l1_bits)?;
        check_table_bits("l2_bits", l2_bits)?;
        hash.validate(l2_bits)?;
        let order = hash.order(l2_bits) as usize;
        let (l1_entries, l2_entries) = (1usize << l1_bits, 1usize << l2_bits);
        Ok(AliasAnalyzer {
            kind,
            hash,
            order,
            l1_bits,
            l2_bits,
            l1_mask: l1_entries - 1,
            l1_rows: vec![0; l1_entries * (3 + 2 * order)],
            l2_rows: vec![0; l2_entries * (3 + order)],
            private_l2: HashMap::with_hasher(WordHashBuilder::new()),
            breakdown: AliasBreakdown::default(),
            last_predicted: 0,
        })
    }

    /// The analyzed predictor kind.
    pub fn kind(&self) -> AnalyzedKind {
        self.kind
    }

    /// The classification counts accumulated so far.
    pub fn breakdown(&self) -> AliasBreakdown {
        self.breakdown
    }

    /// The value predicted by the most recent
    /// [`access`](AliasAnalyzer::access) (0 before the first access).
    /// Lets callers feed the replicated prediction into magnitude-aware
    /// consumers (e.g. the phase-series miss histogram) without
    /// re-simulating the predictor.
    pub fn last_predicted(&self) -> u64 {
        self.last_predicted
    }

    /// Performs one predict/classify/update step and returns the class and
    /// correctness of the prediction.
    pub fn access(&mut self, pc: u64, actual: u64) -> (AliasClass, bool) {
        let order = self.order;
        let i1 = crate::predictor::pc_index(pc, self.l1_mask);
        let l1_row = &mut self.l1_rows[i1 * (3 + 2 * order)..][..3 + 2 * order];
        let ([hist, last, length], history) = l1_row
            .split_first_chunk_mut()
            .expect("rows open with 3 words");
        let (sources, elements) = history.split_at_mut(order);
        let h = *hist;
        let l2_row = &mut self.l2_rows[h as usize * (3 + order)..][..3 + order];
        let ([stored, writer, written], recorded) = l2_row
            .split_first_chunk_mut()
            .expect("rows open with 3 words");

        // Replicated prediction.
        let (predicted, elem) = match self.kind {
            AnalyzedKind::Fcm => (*stored, actual),
            AnalyzedKind::Dfcm => (last.wrapping_add(*stored), actual.wrapping_sub(*last)),
        };
        let correct = predicted == actual;
        self.last_predicted = predicted;

        // Classification (first rule that applies). The private table's
        // entry is read and written in one lookup.
        let len = *length as usize;
        let current = &elements[order - len..];
        let private = self.private_l2.insert(((i1 as u64) << 32) | h, elem);
        let class = if sources[order - len..].iter().any(|&src| src != pc) {
            // Rule 1 — l1: a history element came from another instruction.
            AliasClass::L1
        } else if *written != 0 && (*written - 1 != len as u64 || recorded[..len] != *current) {
            // Rule 2 — hash: the recorded complete history differs from
            // the current one.
            AliasClass::Hash
        } else if private.is_some_and(|private| private != *stored) {
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

        // Replicated update plus shadow maintenance.
        *stored = elem;
        recorded[..len].copy_from_slice(current);
        *written = len as u64 + 1;
        *writer = pc;
        sources.copy_within(1.., 0);
        sources[order - 1] = pc;
        elements.copy_within(1.., 0);
        elements[order - 1] = elem;
        *length = (len + 1).min(order) as u64;
        *hist = self.hash.fold_update(h, elem, self.l2_bits);
        *last = actual;

        (class, correct)
    }

    /// Level-1 table size exponent.
    pub fn l1_bits(&self) -> u32 {
        self.l1_bits
    }

    /// Level-2 table size exponent.
    pub fn l2_bits(&self) -> u32 {
        self.l2_bits
    }

    /// Cost-model note: the analyzer replicates a predictor with the given
    /// geometry; its shadow structures are measurement-only and have no
    /// hardware cost. Provided for report symmetry.
    pub fn value_bits(&self) -> u32 {
        DEFAULT_VALUE_BITS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfcm::DfcmPredictor;
    use crate::fcm::FcmPredictor;
    use crate::predictor::ValuePredictor;

    /// The analyzer must agree exactly with the real predictor on every
    /// prediction — this guards the replicated predictor logic against
    /// drift.
    #[test]
    fn analyzer_accuracy_matches_fcm() {
        let mut az = AliasAnalyzer::new(AnalyzedKind::Fcm, 6, 10).unwrap();
        let mut p = FcmPredictor::builder()
            .l1_bits(6)
            .l2_bits(10)
            .build()
            .unwrap();
        for i in 0..5000u64 {
            let pc = (i * 7) % 100;
            let v = (i % 13).wrapping_mul(pc);
            let (_, az_correct) = az.access(pc, v);
            assert_eq!(az_correct, p.access(pc, v).correct, "i={i}");
        }
    }

    #[test]
    fn analyzer_accuracy_matches_dfcm() {
        let mut az = AliasAnalyzer::new(AnalyzedKind::Dfcm, 6, 10).unwrap();
        let mut p = DfcmPredictor::builder()
            .l1_bits(6)
            .l2_bits(10)
            .build()
            .unwrap();
        for i in 0..5000u64 {
            let pc = (i * 3) % 50;
            let v = 17 * i + pc;
            let (_, az_correct) = az.access(pc, v);
            assert_eq!(az_correct, p.access(pc, v).correct, "i={i}");
        }
    }

    #[test]
    fn l1_aliasing_detected_when_pcs_collide() {
        // Two PCs sharing one L1 entry (l1_bits = 0 → single entry).
        let mut az = AliasAnalyzer::new(AnalyzedKind::Fcm, 0, 10).unwrap();
        az.access(0x10, 1);
        az.access(0x20, 2);
        let (class, _) = az.access(0x10, 3);
        assert_eq!(class, AliasClass::L1);
    }

    #[test]
    fn no_l1_aliasing_for_isolated_pcs() {
        let mut az = AliasAnalyzer::new(AnalyzedKind::Fcm, 8, 12).unwrap();
        for i in 0..100u64 {
            let (class, _) = az.access(5, i % 4);
            assert_ne!(class, AliasClass::L1, "i={i}");
        }
    }

    #[test]
    fn l2_pc_detected_for_identical_patterns_from_two_instructions() {
        // Two instructions in disjoint L1 entries producing the *same*
        // repeating pattern share level-2 entries; the PC tag flips between
        // them. The paper calls this benign aliasing — accuracy stays high.
        let mut az = AliasAnalyzer::new(AnalyzedKind::Fcm, 8, 12).unwrap();
        let pattern = [3u64, 9, 27, 81];
        for _ in 0..30 {
            for &v in &pattern {
                az.access(0x11, v);
                az.access(0x22, v);
            }
        }
        let b = az.breakdown();
        assert!(
            b.class_total(AliasClass::L2Pc) > 100,
            "expected heavy l2_pc traffic, got {}",
            b.class_total(AliasClass::L2Pc)
        );
        assert!(b.accuracy(AliasClass::L2Pc) > 0.9);
    }

    #[test]
    fn none_class_for_single_steady_pattern() {
        let mut az = AliasAnalyzer::new(AnalyzedKind::Fcm, 8, 12).unwrap();
        let pattern = [5u64, 1, 4, 1];
        for _ in 0..50 {
            for &v in &pattern {
                az.access(0x7, v);
            }
        }
        let b = az.breakdown();
        // Steady state: no aliasing, high accuracy.
        assert!(b.fraction(AliasClass::NoAlias) > 0.8);
        assert!(b.accuracy(AliasClass::NoAlias) > 0.9);
    }

    #[test]
    fn hash_aliasing_detected_in_tiny_l2() {
        // A tiny level-2 table with many distinct contexts forces hash
        // collisions: different complete histories map to the same entry.
        let mut az = AliasAnalyzer::new(AnalyzedKind::Fcm, 8, 4).unwrap();
        let mut hits = 0u64;
        for i in 0..2000u64 {
            let pc = (i % 8) * 4; // 8 distinct word-aligned instructions
            let v = i.wrapping_mul(2654435761) % 97;
            let (class, _) = az.access(pc, v);
            hits += u64::from(class == AliasClass::Hash);
        }
        assert!(hits > 200, "expected many hash aliases, got {hits}");
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let mut az = AliasAnalyzer::new(AnalyzedKind::Dfcm, 6, 8).unwrap();
        for i in 0..3000u64 {
            az.access(i % 40, (i * i) % 1000);
        }
        let b = az.breakdown();
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
