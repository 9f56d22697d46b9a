use crate::alias::{AliasClass, AliasShadow};
use crate::error::{check_table_bits, ConfigError};
use crate::hash::HashFunction;
use crate::predictor::{AccessOutcome, L2Indexed, ValuePredictor};
use crate::storage::StorageCost;
use crate::table_stats::{TableStats, TableTracker};
use crate::DEFAULT_VALUE_BITS;

/// Opt-in instrumentation for a two-level predictor: usage trackers for
/// both tables plus, where the predictor is classified, the §4.2
/// [`AliasShadow`] (taxonomy and tagged confidence estimator) its
/// instrumented step feeds. The class of the most
/// recent step is kept so per-access observers can read it back.
#[derive(Debug, Clone)]
pub(crate) struct TwoLevelInstrumentation {
    l1: TableTracker,
    l2: TableTracker,
    shadow: Option<AliasShadow>,
    last_class: Option<AliasClass>,
}

impl TwoLevelInstrumentation {
    /// Trackers for `l1_entries` and `l2_entries` entries, and a shadow
    /// of histories of `order` elements unless `order` is `None`.
    pub(crate) fn new(l1_entries: usize, l2_entries: usize, order: Option<u32>) -> Self {
        TwoLevelInstrumentation {
            l1: TableTracker::new("l1", l1_entries),
            l2: TableTracker::new("l2", l2_entries),
            shadow: order.map(|order| AliasShadow::new(order as usize, l1_entries, l2_entries)),
            last_class: None,
        }
    }

    /// Records one step: `pc`'s prediction through level-1 entry `i1`
    /// read `stored` from level-2 entry `history` and was `correct`, and
    /// the step wrote `element` there (see [`AliasShadow::observe`]).
    #[inline]
    pub(crate) fn record(
        &mut self,
        pc: u64,
        i1: usize,
        history: u64,
        stored: u64,
        element: u64,
        correct: bool,
    ) {
        self.l1.record(i1);
        self.l2.record(history as usize);
        if let Some(shadow) = &mut self.shadow {
            self.last_class = Some(shadow.observe(pc, i1, history, stored, element, correct));
        }
    }

    pub(crate) fn stats(&self) -> TableStats {
        TableStats {
            tables: vec![self.l1.usage(), self.l2.usage()],
            alias: self.shadow.as_ref().map(AliasShadow::breakdown),
            confidence: self.shadow.as_ref().map(AliasShadow::confidence),
        }
    }

    pub(crate) fn last_class(&self) -> Option<AliasClass> {
        self.last_class
    }
}

/// The two-level finite context method predictor (Sazeides & Smith; §2.3).
///
/// The level-1 table, indexed by program counter, stores a *hashed history*
/// of the values recently produced by that instruction. The hashed history
/// indexes the level-2 table, which stores the value most likely to follow
/// that context. On update, the actual value is written to the level-2
/// entry the prediction was read from, and the level-1 history is advanced
/// incrementally through the hash function (Figure 2 of the paper).
///
/// The default hash is Sazeides' FS R-5 ([`HashFunction::FsR5`]), giving a
/// history order of ⌈`l2_bits`/5⌉ exactly as in the paper's evaluation.
///
/// ```
/// use dfcm::{FcmPredictor, ValuePredictor};
///
/// # fn main() -> Result<(), dfcm::ConfigError> {
/// let mut fcm = FcmPredictor::builder().l1_bits(8).l2_bits(12).build()?;
/// // A repeating non-stride pattern is exactly what FCM is good at.
/// let pattern = [3u64, 1, 4, 1, 5, 9, 2, 6];
/// for _ in 0..3 {
///     for &v in &pattern {
///         fcm.access(0x400, v);
///     }
/// }
/// let correct = pattern.iter().filter(|&&v| fcm.access(0x400, v).correct).count();
/// assert_eq!(correct, pattern.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FcmPredictor {
    /// Hashed history per static instruction.
    l1: Vec<u64>,
    /// Predicted value per history.
    l2: Vec<u64>,
    l1_mask: usize,
    l1_bits: u32,
    l2_bits: u32,
    hash: HashFunction,
    stats: Option<TwoLevelInstrumentation>,
}

/// Builder for [`FcmPredictor`]; obtained from [`FcmPredictor::builder`].
#[derive(Debug, Clone)]
pub struct FcmBuilder {
    l1_bits: u32,
    l2_bits: u32,
    hash: HashFunction,
}

impl Default for FcmBuilder {
    fn default() -> Self {
        FcmBuilder {
            l1_bits: 12,
            l2_bits: 12,
            hash: HashFunction::FsR5,
        }
    }
}

impl FcmBuilder {
    /// Sets the level-1 table to `2^bits` entries (default 12).
    pub fn l1_bits(&mut self, bits: u32) -> &mut Self {
        self.l1_bits = bits;
        self
    }

    /// Sets the level-2 table to `2^bits` entries (default 12).
    pub fn l2_bits(&mut self, bits: u32) -> &mut Self {
        self.l2_bits = bits;
        self
    }

    /// Selects the history hash function (default [`HashFunction::FsR5`]).
    pub fn hash(&mut self, hash: HashFunction) -> &mut Self {
        self.hash = hash;
        self
    }

    /// Builds the predictor.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if a table exponent exceeds 30 or the hash
    /// cannot produce `l2_bits`-bit indices.
    pub fn build(&self) -> Result<FcmPredictor, ConfigError> {
        check_table_bits("l1_bits", self.l1_bits)?;
        check_table_bits("l2_bits", self.l2_bits)?;
        self.hash.validate(self.l2_bits)?;
        Ok(FcmPredictor {
            l1: vec![0; 1 << self.l1_bits],
            l2: vec![0; 1 << self.l2_bits],
            l1_mask: (1usize << self.l1_bits) - 1,
            l1_bits: self.l1_bits,
            l2_bits: self.l2_bits,
            hash: self.hash,
            stats: None,
        })
    }
}

impl FcmPredictor {
    /// Starts building an FCM predictor.
    pub fn builder() -> FcmBuilder {
        FcmBuilder::default()
    }

    /// Level-1 table size exponent.
    pub fn l1_bits(&self) -> u32 {
        self.l1_bits
    }

    /// Level-2 table size exponent.
    pub fn l2_bits(&self) -> u32 {
        self.l2_bits
    }

    /// The hash function used to maintain histories.
    pub fn hash(&self) -> HashFunction {
        self.hash
    }

    /// The history order implied by the hash and level-2 size.
    pub fn order(&self) -> u32 {
        self.hash.order(self.l2_bits)
    }

    /// The hashed history currently stored for `pc`.
    pub fn history(&self, pc: u64) -> u64 {
        self.l1[crate::predictor::pc_index(pc, self.l1_mask)]
    }

    /// Serializes the mutable table state (not the configuration) as a
    /// flat word vector: the level-1 hashed histories, then the level-2
    /// values, each in index order.
    pub fn state_words(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(self.l1.len() + self.l2.len());
        words.extend_from_slice(&self.l1);
        words.extend_from_slice(&self.l2);
        words
    }

    /// Restores state captured by
    /// [`state_words`](FcmPredictor::state_words) into an identically
    /// configured predictor.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::State`](crate::ConfigError) when the word
    /// count does not match, or a level-1 history is not a valid level-2
    /// index — histories index the level-2 table directly, so an
    /// out-of-range word (possible only in a corrupt or hostile blob)
    /// would otherwise panic the next prediction. A failed load leaves
    /// the predictor unchanged.
    pub fn load_state_words(&mut self, words: &[u64]) -> Result<(), crate::ConfigError> {
        let (n1, n2) = (self.l1.len(), self.l2.len());
        if words.len() != n1 + n2 {
            return Err(crate::ConfigError::State {
                reason: format!(
                    "fcm state holds {} words, tables need {}",
                    words.len(),
                    n1 + n2
                ),
            });
        }
        let (l1, l2) = words.split_at(n1);
        if let Some((i, &history)) = l1.iter().enumerate().find(|(_, &h)| h >= n2 as u64) {
            return Err(crate::ConfigError::State {
                reason: format!("fcm history[{i}] = {history} is not a level-2 index (< {n2})"),
            });
        }
        self.l1.copy_from_slice(l1);
        self.l2.copy_from_slice(l2);
        Ok(())
    }

    /// Whether this predictor runs the plain kernel: FS R-5 value
    /// histories and table stats off, as every `fcm:L1:L2` spec builds
    /// it. [`access`](ValuePredictor::access) tests this per call.
    pub fn is_plain(&self) -> bool {
        self.hash == HashFunction::FsR5 && self.stats.is_none()
    }

    #[inline]
    fn l1_index(&self, pc: u64) -> usize {
        crate::predictor::pc_index(pc, self.l1_mask)
    }

    /// The one predict-then-update step on level-1 entry `i1` (`pc`'s).
    /// `PLAIN` compiles the plain configuration in (the FS R-5 update, no
    /// stats) and is set only when [`is_plain`](FcmPredictor::is_plain)
    /// holds.
    #[inline(always)]
    fn step_at<const PLAIN: bool>(&mut self, pc: u64, i1: usize, actual: u64) -> AccessOutcome {
        let history = self.l1[i1];
        let predicted = self.l2[history as usize];
        self.l2[history as usize] = actual;
        if PLAIN {
            self.l1[i1] = HashFunction::fs_r5_update(history, actual, self.l2_bits);
        } else {
            self.l1[i1] = self.hash.fold_update(history, actual, self.l2_bits);
            if let Some(stats) = &mut self.stats {
                stats.record(pc, i1, history, predicted, actual, predicted == actual);
            }
        }
        AccessOutcome {
            predicted,
            correct: predicted == actual,
        }
    }
}

impl ValuePredictor for FcmPredictor {
    fn predict(&mut self, pc: u64) -> u64 {
        self.l2[self.l1[self.l1_index(pc)] as usize]
    }

    fn update(&mut self, pc: u64, actual: u64) {
        self.access(pc, actual);
    }

    // Fused predict+update: the shared L1 index (and the history read off
    // it) is computed once per record instead of once in `predict` and
    // again in `update`. Bit-identical to the default predict-then-update.
    // A plain predictor takes the kernel with its configuration compiled
    // in.
    #[inline]
    fn access(&mut self, pc: u64, actual: u64) -> AccessOutcome {
        let i1 = self.l1_index(pc);
        if self.is_plain() {
            self.step_at::<true>(pc, i1, actual)
        } else {
            self.step_at::<false>(pc, i1, actual)
        }
    }

    fn storage(&self) -> StorageCost {
        StorageCost::new()
            .with(
                "L1 hashed histories",
                self.l1.len() as u64 * self.l2_bits as u64,
            )
            .with(
                "L2 values",
                self.l2.len() as u64 * DEFAULT_VALUE_BITS as u64,
            )
    }

    fn name(&self) -> String {
        format!(
            "fcm(l1=2^{},l2=2^{},{})",
            self.l1_bits,
            self.l2_bits,
            self.hash.label()
        )
    }

    fn enable_table_stats(&mut self) {
        if self.stats.is_none() {
            self.stats = Some(TwoLevelInstrumentation::new(
                self.l1.len(),
                self.l2.len(),
                Some(self.order()),
            ));
        }
    }

    fn table_stats(&self) -> Option<TableStats> {
        self.stats.as_ref().map(TwoLevelInstrumentation::stats)
    }

    fn last_alias_class(&self) -> Option<AliasClass> {
        self.stats.as_ref()?.last_class()
    }
}

impl L2Indexed for FcmPredictor {
    fn l2_index(&self, pc: u64) -> usize {
        self.l1[crate::predictor::pc_index(pc, self.l1_mask)] as usize
    }

    fn l2_entries(&self) -> usize {
        self.l2.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fcm(l1: u32, l2: u32) -> FcmPredictor {
        FcmPredictor::builder()
            .l1_bits(l1)
            .l2_bits(l2)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(FcmPredictor::builder().l1_bits(31).build().is_err());
        assert!(FcmPredictor::builder().l2_bits(31).build().is_err());
        assert!(FcmPredictor::builder()
            .hash(HashFunction::FsShift { shift: 0 })
            .l2_bits(12)
            .build()
            .is_err());
        assert!(FcmPredictor::builder().build().is_ok());
    }

    #[test]
    fn learns_repeating_context_pattern() {
        let mut p = fcm(6, 12);
        let pattern = [10u64, 20, 30, 10, 50, 60];
        for _ in 0..4 {
            for &v in &pattern {
                p.access(0, v);
            }
        }
        let correct = pattern.iter().filter(|&&v| p.access(0, v).correct).count();
        assert_eq!(correct, pattern.len());
    }

    #[test]
    fn stride_pattern_needs_one_full_repetition() {
        // Figure 4: an FCM treats a stride pattern as context-based, so the
        // first pass over a fresh stride mispredicts while the table fills.
        let mut p = fcm(6, 16);
        let first: usize = (0..32u64).filter(|&v| p.access(0, v).correct).count();
        assert!(
            first <= 2,
            "first pass should be nearly all wrong, got {first} correct"
        );
        // After wrapping around, the learned contexts repeat.
        let second: usize = (0..32u64).filter(|&v| p.access(0, v).correct).count();
        assert!(
            second >= 29,
            "second pass should be nearly perfect, got {second}"
        );
    }

    #[test]
    fn update_writes_level2_at_pre_update_history() {
        let mut p = fcm(4, 8);
        let h0 = p.history(3);
        p.update(3, 77);
        // The value must be retrievable through the *old* history index.
        assert_eq!(p.l2[h0 as usize], 77);
        // And the history must have advanced.
        assert_eq!(p.history(3), HashFunction::FsR5.fold_update(h0, 77, 8));
    }

    #[test]
    fn l2_index_tracks_history() {
        let mut p = fcm(4, 8);
        p.update(2, 5);
        assert_eq!(p.l2_index(2), p.history(2) as usize);
        assert_eq!(p.l2_entries(), 256);
    }

    #[test]
    fn storage_matches_paper_model() {
        // Paper §2.4: L1 stores only the hashed history (l2_bits wide);
        // L2 stores full 32-bit values.
        let p = fcm(16, 12);
        let bits = p.storage().total_bits();
        assert_eq!(bits, (1u64 << 16) * 12 + (1u64 << 12) * 32);
    }

    #[test]
    fn distinct_pcs_share_l2_but_not_l1() {
        let mut p = fcm(8, 12);
        // Train pattern on pc A; pc B with identical history should then
        // predict the same continuation (constructive l2_pc aliasing).
        for _ in 0..3 {
            for &v in &[7u64, 8, 9] {
                p.access(10, v);
            }
        }
        for &v in &[7u64, 8, 9] {
            p.access(20, v);
        }
        assert_eq!(p.predict(20), p.l2[p.history(20) as usize]);
    }

    #[test]
    fn order_reported_from_hash() {
        assert_eq!(fcm(4, 12).order(), 3);
        assert_eq!(fcm(4, 20).order(), 4);
    }

    #[test]
    fn name_mentions_config() {
        assert_eq!(fcm(16, 12).name(), "fcm(l1=2^16,l2=2^12,fs-r5)");
    }

    #[test]
    fn only_fs_r5_without_stats_is_plain() {
        assert!(fcm(16, 12).is_plain());
        let xor = FcmPredictor::builder()
            .hash(HashFunction::FoldXor)
            .build()
            .unwrap();
        assert!(!xor.is_plain());
        let mut observed = fcm(16, 12);
        observed.enable_table_stats();
        assert!(!observed.is_plain());
    }
}
