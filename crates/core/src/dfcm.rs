use crate::alias::AliasClass;
use crate::error::{check_table_bits, ConfigError};
use crate::fcm::TwoLevelInstrumentation;
use crate::hash::HashFunction;
use crate::predictor::{AccessOutcome, L2Indexed, ValuePredictor};
use crate::storage::StorageCost;
use crate::table_stats::TableStats;
use crate::DEFAULT_VALUE_BITS;

/// Width of the differences stored in the DFCM level-2 table (§4.4).
///
/// Strides seldom need the full architectural width, so the level-2 table
/// can store a truncated difference. Stored differences are sign-extended
/// when read back, so small positive *and* negative strides survive
/// truncation; a difference too large for the width predicts incorrectly,
/// costing accuracy (the paper measures a .01–.03 drop at 16 bits and
/// .05–.08 at 8 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StrideWidth {
    /// Store the full difference (the paper's default configuration; cost
    /// accounted at [`DEFAULT_VALUE_BITS`]).
    #[default]
    Full,
    /// Store only the low `n` bits, sign-extended on read.
    Bits(u32),
}

impl StrideWidth {
    /// Storage bits per level-2 entry.
    pub fn bits(self) -> u32 {
        match self {
            StrideWidth::Full => DEFAULT_VALUE_BITS,
            StrideWidth::Bits(n) => n,
        }
    }

    #[inline]
    fn store(self, diff: u64) -> u64 {
        match self {
            StrideWidth::Full => diff,
            StrideWidth::Bits(64) => diff,
            StrideWidth::Bits(n) => diff & ((1u64 << n) - 1),
        }
    }

    #[inline]
    fn load(self, stored: u64) -> u64 {
        match self {
            StrideWidth::Full | StrideWidth::Bits(64) => stored,
            StrideWidth::Bits(n) => {
                // Sign-extend from bit n-1.
                let shift = 64 - n;
                (((stored << shift) as i64) >> shift) as u64
            }
        }
    }
}

/// The differential finite context method predictor — the paper's
/// contribution (§3).
///
/// Like the [`FcmPredictor`](crate::FcmPredictor), a two-level predictor;
/// unlike it, the context is the history of *differences* between
/// successive values, and the level-2 table stores the next difference.
/// Each level-1 entry therefore holds the last value in addition to the
/// hashed difference history, and the prediction is
/// `last + L2[hash(diff history)]` (Figure 7).
///
/// Storing differences makes every stride pattern look like a *constant*
/// pattern: the entire pattern collapses onto a single level-2 entry, and
/// all patterns with the same stride share that entry (Figure 8). This
/// frees the level-2 table for the genuinely context-based patterns and is
/// the source of the paper's 8–33% accuracy improvement over FCM.
///
/// ```
/// use dfcm::{DfcmPredictor, ValuePredictor};
///
/// # fn main() -> Result<(), dfcm::ConfigError> {
/// let mut p = DfcmPredictor::builder().l1_bits(8).l2_bits(12).build()?;
/// // Two interleaved stride patterns with the same stride: after warmup
/// // they share one level-2 entry and both predict perfectly.
/// let mut correct = 0;
/// for i in 0..100u64 {
///     correct += usize::from(p.access(0x10, 1000 + 4 * i).correct);
///     correct += usize::from(p.access(0x20, 9000 + 4 * i).correct);
/// }
/// assert!(correct >= 188); // only warmup misses while the histories fill
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DfcmPredictor {
    last: Vec<u64>,
    hist: Vec<u64>,
    /// Next difference per difference-history (possibly truncated).
    l2: Vec<u64>,
    l1_mask: usize,
    l1_bits: u32,
    l2_bits: u32,
    hash: HashFunction,
    stride_width: StrideWidth,
    stats: Option<TwoLevelInstrumentation>,
}

/// Builder for [`DfcmPredictor`]; obtained from [`DfcmPredictor::builder`].
#[derive(Debug, Clone)]
pub struct DfcmBuilder {
    l1_bits: u32,
    l2_bits: u32,
    hash: HashFunction,
    stride_width: StrideWidth,
}

impl Default for DfcmBuilder {
    fn default() -> Self {
        DfcmBuilder {
            l1_bits: 12,
            l2_bits: 12,
            hash: HashFunction::FsR5,
            stride_width: StrideWidth::Full,
        }
    }
}

impl DfcmBuilder {
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

    /// Selects the history hash function (default [`HashFunction::FsR5`],
    /// applied to the difference stream exactly as the paper does).
    pub fn hash(&mut self, hash: HashFunction) -> &mut Self {
        self.hash = hash;
        self
    }

    /// Restricts the width of differences stored in the level-2 table
    /// (default [`StrideWidth::Full`]; §4.4 of the paper).
    pub fn stride_width(&mut self, width: StrideWidth) -> &mut Self {
        self.stride_width = width;
        self
    }

    /// Builds the predictor.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if a table exponent exceeds 30, the stride
    /// width is outside `1..=64`, or the hash cannot produce `l2_bits`-bit
    /// indices.
    pub fn build(&self) -> Result<DfcmPredictor, ConfigError> {
        check_table_bits("l1_bits", self.l1_bits)?;
        check_table_bits("l2_bits", self.l2_bits)?;
        if let StrideWidth::Bits(n) = self.stride_width {
            if !(1..=64).contains(&n) {
                return Err(ConfigError::Width {
                    parameter: "stride_width",
                    value: n,
                    min: 1,
                    max: 64,
                });
            }
        }
        self.hash.validate(self.l2_bits)?;
        Ok(DfcmPredictor {
            last: vec![0; 1 << self.l1_bits],
            hist: vec![0; 1 << self.l1_bits],
            l2: vec![0; 1 << self.l2_bits],
            l1_mask: (1usize << self.l1_bits) - 1,
            l1_bits: self.l1_bits,
            l2_bits: self.l2_bits,
            hash: self.hash,
            stride_width: self.stride_width,
            stats: None,
        })
    }
}

impl DfcmPredictor {
    /// Starts building a DFCM predictor.
    pub fn builder() -> DfcmBuilder {
        DfcmBuilder::default()
    }

    /// Level-1 table size exponent.
    pub fn l1_bits(&self) -> u32 {
        self.l1_bits
    }

    /// Level-2 table size exponent.
    pub fn l2_bits(&self) -> u32 {
        self.l2_bits
    }

    /// The hash function used to maintain difference histories.
    pub fn hash(&self) -> HashFunction {
        self.hash
    }

    /// The history order implied by the hash and level-2 size.
    pub fn order(&self) -> u32 {
        self.hash.order(self.l2_bits)
    }

    /// The configured level-2 difference storage width.
    pub fn stride_width(&self) -> StrideWidth {
        self.stride_width
    }

    /// The hashed difference history currently stored for `pc`.
    pub fn history(&self, pc: u64) -> u64 {
        self.hist[crate::predictor::pc_index(pc, self.l1_mask)]
    }

    /// The last value recorded for `pc` in the level-1 table.
    pub fn last_value(&self, pc: u64) -> u64 {
        self.last[crate::predictor::pc_index(pc, self.l1_mask)]
    }

    /// Serializes the mutable table state (not the configuration) as a
    /// flat word vector: the level-1 last values, the level-1 hashed
    /// difference histories, then the level-2 stored differences, each
    /// in index order.
    pub fn state_words(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(2 * self.last.len() + self.l2.len());
        words.extend_from_slice(&self.last);
        words.extend_from_slice(&self.hist);
        words.extend_from_slice(&self.l2);
        words
    }

    /// Restores state captured by
    /// [`state_words`](DfcmPredictor::state_words) into an identically
    /// configured predictor.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::State`](crate::ConfigError) when the word
    /// count does not match, or a difference history is not a valid
    /// level-2 index — histories index the level-2 table directly, so an
    /// out-of-range word (possible only in a corrupt or hostile blob)
    /// would otherwise panic the next prediction. A failed load leaves
    /// the predictor unchanged.
    pub fn load_state_words(&mut self, words: &[u64]) -> Result<(), crate::ConfigError> {
        let (n1, n2) = (self.last.len(), self.l2.len());
        if words.len() != 2 * n1 + n2 {
            return Err(crate::ConfigError::State {
                reason: format!(
                    "dfcm state holds {} words, tables need {}",
                    words.len(),
                    2 * n1 + n2
                ),
            });
        }
        let (last, rest) = words.split_at(n1);
        let (hist, l2) = rest.split_at(n1);
        if let Some((i, &history)) = hist.iter().enumerate().find(|(_, &h)| h >= n2 as u64) {
            return Err(crate::ConfigError::State {
                reason: format!("dfcm history[{i}] = {history} is not a level-2 index (< {n2})"),
            });
        }
        self.last.copy_from_slice(last);
        self.hist.copy_from_slice(hist);
        self.l2.copy_from_slice(l2);
        Ok(())
    }

    /// Whether this predictor runs the plain kernel: FS R-5 difference
    /// histories, full-width differences and table stats off, as every
    /// `dfcm:L1:L2` spec builds it. [`access`](ValuePredictor::access)
    /// tests this per call; a [`DfcmBlock`] tests it once, when built.
    pub fn is_plain(&self) -> bool {
        self.hash == HashFunction::FsR5
            && self.stride_width == StrideWidth::Full
            && self.stats.is_none()
    }

    #[inline]
    fn l1_index(&self, pc: u64) -> usize {
        crate::predictor::pc_index(pc, self.l1_mask)
    }

    /// The one predict-then-update step on level-1 entry `i1` (`pc`'s).
    /// `PLAIN` compiles the plain configuration in (no width conversion,
    /// the FS R-5 update, no stats) and is set only when
    /// [`is_plain`](DfcmPredictor::is_plain) holds.
    #[inline(always)]
    fn step_at<const PLAIN: bool>(&mut self, pc: u64, i1: usize, actual: u64) -> AccessOutcome {
        let history = self.hist[i1];
        let last = self.last[i1];
        let stored = self.l2[history as usize];
        let diff = actual.wrapping_sub(last);
        let predicted;
        if PLAIN {
            predicted = last.wrapping_add(stored);
            self.l2[history as usize] = diff;
            self.hist[i1] = HashFunction::fs_r5_update(history, diff, self.l2_bits);
        } else {
            predicted = last.wrapping_add(self.stride_width.load(stored));
            self.l2[history as usize] = self.stride_width.store(diff);
            self.hist[i1] = self.hash.fold_update(history, diff, self.l2_bits);
            if let Some(stats) = &mut self.stats {
                stats.record(pc, i1, history, stored, diff, predicted == actual);
            }
        }
        self.last[i1] = actual;
        AccessOutcome {
            predicted,
            correct: predicted == actual,
        }
    }
}

/// The number of lanes a [`DfcmBlock`] steps together.
pub const BLOCK_LANES: usize = 4;

/// [`BLOCK_LANES`] plain DFCM lanes with one level-1 size, stepped as one
/// block.
///
/// A sweep over level-2 sizes (Figs 3, 10a and 11a) runs lanes whose
/// level-1 index depends only on the PC and the level-1 size. The block
/// computes it once per record, then steps each lane on its own tables,
/// `last` included, exactly as the lane's own
/// [`access`](ValuePredictor::access) would. Its loop over the lanes has
/// a length known at compile time, so it unrolls.
///
/// ```
/// use dfcm::{DfcmBlock, DfcmPredictor, ValuePredictor};
///
/// # fn main() -> Result<(), dfcm::ConfigError> {
/// let build = |l2| DfcmPredictor::builder().l1_bits(8).l2_bits(l2).build();
/// let mut lanes = [build(6)?, build(8)?, build(10)?, build(12)?];
/// let mut alone = lanes.clone();
/// let mut block = DfcmBlock::new(lanes.each_mut());
/// for i in 0..200u64 {
///     let (pc, value) = (0x40 + 4 * (i % 3), 7 * i);
///     let outcomes = block.access(pc, value);
///     for (outcome, lane) in outcomes.iter().zip(&mut alone) {
///         assert_eq!(*outcome, lane.access(pc, value));
///     }
/// }
/// drop(block);
/// assert_eq!(lanes[3].state_words(), alone[3].state_words());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DfcmBlock<'a> {
    lanes: [&'a mut DfcmPredictor; BLOCK_LANES],
    l1_mask: usize,
}

impl<'a> DfcmBlock<'a> {
    /// Blocks `lanes`.
    ///
    /// # Panics
    ///
    /// Panics if a lane is not [plain](DfcmPredictor::is_plain) or the
    /// lanes' level-1 sizes differ.
    pub fn new(lanes: [&'a mut DfcmPredictor; BLOCK_LANES]) -> Self {
        let l1_mask = lanes[0].l1_mask;
        assert!(
            lanes.iter().all(|l| l.is_plain() && l.l1_mask == l1_mask),
            "a DFCM block takes plain lanes of one level-1 size"
        );
        DfcmBlock { lanes, l1_mask }
    }

    /// Lane `k`, as the block has left it.
    pub fn lane(&self, k: usize) -> &DfcmPredictor {
        self.lanes[k]
    }

    /// Predicts `pc`'s value in every lane, then updates each with
    /// `actual`: lane `k`'s outcome is what its own
    /// [`access`](ValuePredictor::access) would return.
    #[inline(always)]
    pub fn access(&mut self, pc: u64, actual: u64) -> [AccessOutcome; BLOCK_LANES] {
        let i1 = crate::predictor::pc_index(pc, self.l1_mask);
        let mut outcomes = [AccessOutcome::default(); BLOCK_LANES];
        for (lane, outcome) in self.lanes.iter_mut().zip(&mut outcomes) {
            *outcome = lane.step_at::<true>(pc, i1, actual);
        }
        outcomes
    }
}

impl ValuePredictor for DfcmPredictor {
    fn predict(&mut self, pc: u64) -> u64 {
        let i1 = self.l1_index(pc);
        let diff = self.stride_width.load(self.l2[self.hist[i1] as usize]);
        self.last[i1].wrapping_add(diff)
    }

    fn update(&mut self, pc: u64, actual: u64) {
        self.access(pc, actual);
    }

    // Fused predict+update: the shared L1 index, the history and the last
    // value are each read once per record instead of once in `predict` and
    // again in `update`. Bit-identical to the default predict-then-update.
    // A plain predictor takes the kernel with its configuration compiled
    // in; a `DfcmBlock` makes that choice once, when it is built.
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
        let l1 = self.last.len() as u64;
        StorageCost::new()
            .with("L1 last values", l1 * DEFAULT_VALUE_BITS as u64)
            .with("L1 hashed histories", l1 * self.l2_bits as u64)
            .with(
                "L2 differences",
                self.l2.len() as u64 * self.stride_width.bits() as u64,
            )
    }

    fn name(&self) -> String {
        let width = match self.stride_width {
            StrideWidth::Full => String::new(),
            StrideWidth::Bits(n) => format!(",d{n}"),
        };
        format!(
            "dfcm(l1=2^{},l2=2^{},{}{})",
            self.l1_bits,
            self.l2_bits,
            self.hash.label(),
            width
        )
    }

    fn enable_table_stats(&mut self) {
        if self.stats.is_none() {
            // §4.2 classifies full differences; a truncated stored
            // difference is not the element its history recorded, so
            // only table usage is tracked in that configuration.
            let order = (self.stride_width == StrideWidth::Full).then(|| self.order());
            self.stats = Some(TwoLevelInstrumentation::new(
                self.last.len(),
                self.l2.len(),
                order,
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

impl L2Indexed for DfcmPredictor {
    fn l2_index(&self, pc: u64) -> usize {
        self.hist[crate::predictor::pc_index(pc, self.l1_mask)] as usize
    }

    fn l2_entries(&self) -> usize {
        self.l2.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dfcm(l1: u32, l2: u32) -> DfcmPredictor {
        DfcmPredictor::builder()
            .l1_bits(l1)
            .l2_bits(l2)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(DfcmPredictor::builder().l1_bits(31).build().is_err());
        assert!(DfcmPredictor::builder()
            .stride_width(StrideWidth::Bits(0))
            .build()
            .is_err());
        assert!(DfcmPredictor::builder()
            .stride_width(StrideWidth::Bits(65))
            .build()
            .is_err());
        assert!(DfcmPredictor::builder().build().is_ok());
    }

    #[test]
    fn predicts_fresh_stride_without_repetition() {
        // §3: "the DFCM can correctly predict stride patterns, even if they
        // have not been repeated yet" — after the constant-difference
        // history is established.
        let mut p = dfcm(6, 12);
        let misses: Vec<u64> = (0..64u64)
            .map(|i| 5 + 11 * i)
            .filter(|&v| !p.access(0, v).correct)
            .collect();
        // Warmup only: the difference history must fill (order + 2 misses
        // for a fresh stride at order 3), then every prediction hits.
        assert!(
            misses.len() <= p.order() as usize + 2,
            "unexpected misses: {misses:?}"
        );
        assert!(
            misses.iter().all(|&v| v <= 5 + 11 * 4),
            "late miss in {misses:?}"
        );
    }

    #[test]
    fn stride_patterns_collapse_to_one_l2_entry() {
        // Figure 8: once warmed up, a stride pattern indexes a single
        // level-2 entry over and over.
        let mut p = dfcm(6, 12);
        for i in 0..10u64 {
            p.access(0, 3 * i);
        }
        let idx = p.l2_index(0);
        for i in 10..50u64 {
            p.access(0, 3 * i);
            assert_eq!(p.l2_index(0), idx);
        }
    }

    #[test]
    fn same_stride_different_pcs_share_entries() {
        // "all stride patterns with the same stride map to the same
        // entries" — the level-2 index depends only on the difference
        // history, not on the PC or the absolute values.
        let mut p = dfcm(8, 12);
        for i in 0..20u64 {
            p.access(0x10, 100 + 7 * i);
            p.access(0x20, 90_000 + 7 * i);
        }
        assert_eq!(p.l2_index(0x10), p.l2_index(0x20));
    }

    #[test]
    fn different_strides_use_different_entries() {
        let mut p = dfcm(8, 12);
        for i in 0..20u64 {
            p.access(0x10, 7 * i);
            p.access(0x20, 11 * i);
        }
        assert_ne!(p.l2_index(0x10), p.l2_index(0x20));
    }

    #[test]
    fn learns_non_stride_context_patterns_like_fcm() {
        // §3: "For the pattern 0 4 2 1, the DFCM stores the last value 1 and
        // a history of differences: 4 -2 -1" — both representations are
        // equivalent, so repeating irregular patterns stay predictable.
        let mut p = dfcm(6, 14);
        let pattern = [0u64, 4, 2, 1];
        for _ in 0..5 {
            for &v in &pattern {
                p.access(0, v);
            }
        }
        let correct = pattern.iter().filter(|&&v| p.access(0, v).correct).count();
        assert_eq!(correct, pattern.len());
    }

    #[test]
    fn update_is_difference_of_last_value() {
        let mut p = dfcm(4, 8);
        p.update(1, 10);
        let h = p.history(1);
        p.update(1, 25);
        // Level-2 entry indexed by the pre-update history holds diff 15.
        assert_eq!(p.l2[h as usize], 15);
        assert_eq!(p.last_value(1), 25);
    }

    #[test]
    fn negative_strides_wrap_correctly() {
        let mut p = dfcm(6, 12);
        let misses = (0..50u64)
            .map(|i| 1_000_000u64.wrapping_sub(13 * i))
            .filter(|&v| !p.access(0, v).correct)
            .count();
        assert!(misses <= 5);
    }

    #[test]
    fn truncated_strides_sign_extend() {
        let w = StrideWidth::Bits(8);
        assert_eq!(w.load(w.store(5)), 5);
        assert_eq!(w.load(w.store((-5i64) as u64)), (-5i64) as u64);
        // A difference that does not fit is mangled (that is the accuracy
        // cost the paper measures).
        assert_ne!(w.load(w.store(300)), 300);
    }

    #[test]
    fn full_width_is_lossless() {
        for w in [StrideWidth::Full, StrideWidth::Bits(64)] {
            assert_eq!(w.load(w.store(u64::MAX)), u64::MAX);
            assert_eq!(w.load(w.store(12345)), 12345);
        }
    }

    #[test]
    fn narrow_width_still_predicts_small_strides() {
        let mut p = DfcmPredictor::builder()
            .l1_bits(6)
            .l2_bits(12)
            .stride_width(StrideWidth::Bits(8))
            .build()
            .unwrap();
        let misses = (0..50u64).filter(|&i| !p.access(0, 3 * i).correct).count();
        assert!(misses <= 5);
        // And negative small strides too.
        let mut p2 = DfcmPredictor::builder()
            .l1_bits(6)
            .l2_bits(12)
            .stride_width(StrideWidth::Bits(8))
            .build()
            .unwrap();
        let misses = (0..50u64)
            .map(|i| 1000u64.wrapping_sub(3 * i))
            .filter(|&v| !p2.access(0, v).correct)
            .count();
        assert!(misses <= 5);
    }

    #[test]
    fn storage_matches_paper_model() {
        // §4.1/Fig 11: DFCM pays for the last value in L1 but can narrow L2.
        let p = dfcm(16, 12);
        assert_eq!(
            p.storage().total_bits(),
            (1u64 << 16) * 32 + (1u64 << 16) * 12 + (1u64 << 12) * 32
        );
        let narrow = DfcmPredictor::builder()
            .l1_bits(16)
            .l2_bits(12)
            .stride_width(StrideWidth::Bits(8))
            .build()
            .unwrap();
        assert_eq!(
            narrow.storage().total_bits(),
            (1u64 << 16) * 32 + (1u64 << 16) * 12 + (1u64 << 12) * 8
        );
    }

    #[test]
    fn name_mentions_config() {
        assert_eq!(dfcm(16, 12).name(), "dfcm(l1=2^16,l2=2^12,fs-r5)");
        let narrow = DfcmPredictor::builder()
            .stride_width(StrideWidth::Bits(16))
            .build()
            .unwrap();
        assert!(narrow.name().contains("d16"));
    }

    #[test]
    fn wraparound_pattern_uses_few_entries() {
        // Figure 8's example: 0 1 2 3 4 5 6 repeated. All steady-state
        // accesses share one entry; the counter reset transiently visits a
        // handful more (order-many histories contain the reset difference).
        let mut p = dfcm(6, 12);
        let mut indices = std::collections::HashSet::new();
        for _ in 0..20 {
            for v in 0..7u64 {
                indices.insert(p.l2_index(0));
                p.access(0, v);
            }
        }
        // order = 3 at l2_bits = 12: reset affects 3 consecutive histories,
        // plus the steady-state entry and initial warmup.
        assert!(
            indices.len() <= 6,
            "expected few entries, got {}",
            indices.len()
        );
    }

    #[test]
    fn only_the_paper_configuration_without_stats_is_plain() {
        assert!(dfcm(16, 12).is_plain());
        let with = |f: fn(&mut DfcmBuilder) -> &mut DfcmBuilder| {
            f(&mut DfcmPredictor::builder()).build().unwrap().is_plain()
        };
        assert!(!with(|b| b.stride_width(StrideWidth::Bits(8))));
        assert!(!with(|b| b.hash(HashFunction::FoldXor)));
        assert!(!with(|b| b.hash(HashFunction::FsShift { shift: 5 })));
        let mut observed = dfcm(16, 12);
        observed.enable_table_stats();
        assert!(!observed.is_plain());
    }

    #[test]
    fn block_matches_each_lane_alone_after_lanes_warmed_apart() {
        // The second and fourth lanes have seen other records first, so
        // their `last` values differ from the others'; each lane must
        // still predict and end up exactly as it would alone.
        let warm = |mut p: DfcmPredictor| {
            for i in 0..40u64 {
                p.access(4 * (i % 5), 1000 + 3 * i);
            }
            p
        };
        let mut lanes = [dfcm(4, 6), warm(dfcm(4, 9)), dfcm(4, 3), warm(dfcm(4, 12))];
        let mut alone = lanes.clone();
        let mut block = DfcmBlock::new(lanes.each_mut());
        for i in 0..200u64 {
            let (pc, value) = (4 * (i % 7), (i / 3).wrapping_mul(11) ^ (i % 4));
            let outcomes = block.access(pc, value);
            for (k, lane) in alone.iter_mut().enumerate() {
                assert_eq!(outcomes[k], lane.access(pc, value), "lane {k}, record {i}");
            }
        }
        for (lane, alone) in lanes.iter().zip(&alone) {
            assert_eq!(lane.state_words(), alone.state_words());
        }
    }

    #[test]
    #[should_panic(expected = "plain lanes of one level-1 size")]
    fn block_refuses_lanes_of_two_level1_sizes() {
        let mut lanes = [dfcm(4, 8), dfcm(4, 8), dfcm(5, 8), dfcm(4, 8)];
        DfcmBlock::new(lanes.each_mut());
    }

    #[test]
    #[should_panic(expected = "plain lanes of one level-1 size")]
    fn block_refuses_an_instrumented_lane() {
        let mut lanes = [dfcm(4, 8), dfcm(4, 8), dfcm(4, 8), dfcm(4, 8)];
        lanes[1].enable_table_stats();
        DfcmBlock::new(lanes.each_mut());
    }
}
