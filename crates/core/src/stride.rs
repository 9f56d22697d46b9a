use crate::counter::SaturatingCounter;
use crate::predictor::{AccessOutcome, ValuePredictor};
use crate::storage::StorageCost;
use crate::table_stats::{TableStats, TableTracker};
use crate::DEFAULT_VALUE_BITS;

/// The confidence-guarded stride predictor used throughout the paper (§2.2).
///
/// Each entry holds a last value, a stride and a 3-bit saturating confidence
/// counter (+1 on correct, −2 on wrong). The prediction is
/// `last + stride`; the stored stride is replaced by the newly observed
/// difference only while the counter is *not* saturated, so a single
/// out-of-pattern value (e.g. a loop-variable reset) costs one
/// misprediction without destroying an established stride — the same
/// behaviour the two-delta method achieves with two stride fields.
///
/// The counter is excluded from [`storage`](ValuePredictor::storage)
/// accounting, following the paper ("the saturating counter is usually
/// already present to track the confidence, so no additional storage is
/// needed").
///
/// ```
/// use dfcm::{StridePredictor, ValuePredictor};
///
/// let mut sp = StridePredictor::new(8);
/// let mut correct = 0;
/// for i in 0..100u64 {
///     if sp.access(0x400, 7 + 3 * i).correct {
///         correct += 1;
///     }
/// }
/// assert!(correct >= 98); // two cold misses, then perfect
/// ```
#[derive(Debug, Clone)]
pub struct StridePredictor {
    // Struct-of-arrays storage: the hot path touches `last` and `stride`
    // on every access, so keeping each field contiguous maximizes cache
    // utility in a streaming pass over a trace.
    last: Vec<u64>,
    stride: Vec<u64>,
    confidence: Vec<SaturatingCounter>,
    mask: usize,
    bits: u32,
    value_bits: u32,
    stats: Option<TableTracker>,
}

impl StridePredictor {
    /// Creates a predictor with a `2^bits`-entry table.
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds 30.
    pub fn new(bits: u32) -> Self {
        Self::with_value_bits(bits, DEFAULT_VALUE_BITS)
    }

    /// As [`new`](StridePredictor::new) with an explicit cost-model value
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds 30 or `value_bits` is not in `1..=64`.
    pub fn with_value_bits(bits: u32, value_bits: u32) -> Self {
        assert!(bits <= 30, "table exponent must be <= 30, got {bits}");
        assert!(
            (1..=64).contains(&value_bits),
            "value width must be in 1..=64"
        );
        StridePredictor {
            last: vec![0; 1 << bits],
            stride: vec![0; 1 << bits],
            confidence: vec![SaturatingCounter::default(); 1 << bits],
            mask: (1usize << bits) - 1,
            bits,
            value_bits,
            stats: None,
        }
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.last.len()
    }

    /// Serializes the mutable table state (not the configuration) as a
    /// flat word vector: the last-value column, the stride column, then
    /// the confidence-counter values, each in index order.
    pub fn state_words(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(3 * self.last.len());
        words.extend_from_slice(&self.last);
        words.extend_from_slice(&self.stride);
        words.extend(self.confidence.iter().map(|c| u64::from(c.value())));
        words
    }

    /// Restores state captured by
    /// [`state_words`](StridePredictor::state_words) into an identically
    /// configured predictor.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::State`](crate::ConfigError) when the word
    /// count does not match, or a serialized confidence value exceeds the
    /// counter's saturation maximum (a state no real counter can reach,
    /// so the blob is corrupt). Confidence values are validated before
    /// any column is written, so a failed load leaves the predictor
    /// unchanged.
    pub fn load_state_words(&mut self, words: &[u64]) -> Result<(), crate::ConfigError> {
        let n = self.last.len();
        if words.len() != 3 * n {
            return Err(crate::ConfigError::State {
                reason: format!(
                    "stride state holds {} words, table needs {}",
                    words.len(),
                    3 * n
                ),
            });
        }
        let (last, rest) = words.split_at(n);
        let (stride, confidence) = rest.split_at(n);
        for (i, &word) in confidence.iter().enumerate() {
            if u16::try_from(word).map_or(true, |v| v > self.confidence[i].max()) {
                return Err(crate::ConfigError::State {
                    reason: format!(
                        "stride confidence[{i}] = {word} exceeds the counter maximum {}",
                        self.confidence[i].max()
                    ),
                });
            }
        }
        self.last.copy_from_slice(last);
        self.stride.copy_from_slice(stride);
        for (counter, &word) in self.confidence.iter_mut().zip(confidence) {
            counter
                .set_value(word as u16)
                .expect("validated against max above");
        }
        Ok(())
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        crate::predictor::pc_index(pc, self.mask)
    }
}

impl ValuePredictor for StridePredictor {
    fn predict(&mut self, pc: u64) -> u64 {
        let idx = self.index(pc);
        self.last[idx].wrapping_add(self.stride[idx])
    }

    fn update(&mut self, pc: u64, actual: u64) {
        self.access(pc, actual);
    }

    // Fused predict+update with a single index computation; bit-identical
    // to the default predict-then-update.
    #[inline]
    fn access(&mut self, pc: u64, actual: u64) -> AccessOutcome {
        let idx = self.index(pc);
        let predicted = self.last[idx].wrapping_add(self.stride[idx]);
        let correct = predicted == actual;
        // The stride is replaced only while confidence is below saturation;
        // the pre-update counter value gates the replacement so that a
        // high-confidence stride survives a single reset (cf. two-delta).
        if !self.confidence[idx].is_max() {
            self.stride[idx] = actual.wrapping_sub(self.last[idx]);
        }
        if correct {
            self.confidence[idx].increment();
        } else {
            self.confidence[idx].decrement();
        }
        self.last[idx] = actual;
        if let Some(stats) = &mut self.stats {
            stats.record(idx);
        }
        AccessOutcome { predicted, correct }
    }

    fn storage(&self) -> StorageCost {
        let n = self.last.len() as u64;
        StorageCost::new()
            .with("last values", n * self.value_bits as u64)
            .with("strides", n * self.value_bits as u64)
    }

    fn name(&self) -> String {
        format!("stride(2^{})", self.bits)
    }

    fn enable_table_stats(&mut self) {
        if self.stats.is_none() {
            self.stats = Some(TableTracker::new("table", self.last.len()));
        }
    }

    fn table_stats(&self) -> Option<TableStats> {
        self.stats.as_ref().map(|s| TableStats {
            tables: vec![s.usage()],
            alias: None,
        })
    }
}

/// The two-delta stride predictor of Eickemeyer and Vassiliadis (§2.2).
///
/// Keeps a last value and two strides `s1` (used for prediction) and `s2`
/// (most recent difference). The new difference is always stored in `s2`;
/// `s1` is overwritten only when the same difference is observed twice in a
/// row, so a loop-variable reset costs exactly one misprediction.
///
/// ```
/// use dfcm::{TwoDeltaStridePredictor, ValuePredictor};
///
/// let mut sp = TwoDeltaStridePredictor::new(8);
/// // 0 1 2 3 0 1 2 3 — the reset from 3 to 0 mispredicts once per lap.
/// let mut misses = 0;
/// for lap in 0..10 {
///     for v in 0..4u64 {
///         if !sp.access(0x40, v).correct && lap > 0 {
///             misses += 1;
///         }
///     }
/// }
/// assert_eq!(misses, 9); // exactly one per post-warmup lap
/// ```
#[derive(Debug, Clone)]
pub struct TwoDeltaStridePredictor {
    // Struct-of-arrays storage, as in [`StridePredictor`].
    last: Vec<u64>,
    s1: Vec<u64>,
    s2: Vec<u64>,
    mask: usize,
    bits: u32,
    value_bits: u32,
    stats: Option<TableTracker>,
}

impl TwoDeltaStridePredictor {
    /// Creates a predictor with a `2^bits`-entry table.
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds 30.
    pub fn new(bits: u32) -> Self {
        Self::with_value_bits(bits, DEFAULT_VALUE_BITS)
    }

    /// As [`new`](TwoDeltaStridePredictor::new) with an explicit cost-model
    /// value width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds 30 or `value_bits` is not in `1..=64`.
    pub fn with_value_bits(bits: u32, value_bits: u32) -> Self {
        assert!(bits <= 30, "table exponent must be <= 30, got {bits}");
        assert!(
            (1..=64).contains(&value_bits),
            "value width must be in 1..=64"
        );
        TwoDeltaStridePredictor {
            last: vec![0; 1 << bits],
            s1: vec![0; 1 << bits],
            s2: vec![0; 1 << bits],
            mask: (1usize << bits) - 1,
            bits,
            value_bits,
            stats: None,
        }
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.last.len()
    }

    /// Serializes the mutable table state (not the configuration) as a
    /// flat word vector: the last-value column, then the s1 (predicting)
    /// stride column, then the s2 (candidate) stride column.
    pub fn state_words(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(3 * self.last.len());
        words.extend_from_slice(&self.last);
        words.extend_from_slice(&self.s1);
        words.extend_from_slice(&self.s2);
        words
    }

    /// Restores state captured by
    /// [`state_words`](TwoDeltaStridePredictor::state_words) into an
    /// identically configured predictor.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::State`](crate::ConfigError) when the word
    /// count does not match this configuration; the predictor is left
    /// unchanged.
    pub fn load_state_words(&mut self, words: &[u64]) -> Result<(), crate::ConfigError> {
        let n = self.last.len();
        if words.len() != 3 * n {
            return Err(crate::ConfigError::State {
                reason: format!(
                    "2delta state holds {} words, table needs {}",
                    words.len(),
                    3 * n
                ),
            });
        }
        let (last, rest) = words.split_at(n);
        let (s1, s2) = rest.split_at(n);
        self.last.copy_from_slice(last);
        self.s1.copy_from_slice(s1);
        self.s2.copy_from_slice(s2);
        Ok(())
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        crate::predictor::pc_index(pc, self.mask)
    }
}

impl ValuePredictor for TwoDeltaStridePredictor {
    fn predict(&mut self, pc: u64) -> u64 {
        let idx = self.index(pc);
        self.last[idx].wrapping_add(self.s1[idx])
    }

    fn update(&mut self, pc: u64, actual: u64) {
        self.access(pc, actual);
    }

    // Fused predict+update with a single index computation; bit-identical
    // to the default predict-then-update.
    #[inline]
    fn access(&mut self, pc: u64, actual: u64) -> AccessOutcome {
        let idx = self.index(pc);
        let predicted = self.last[idx].wrapping_add(self.s1[idx]);
        let stride = actual.wrapping_sub(self.last[idx]);
        if stride == self.s2[idx] {
            self.s1[idx] = stride;
        }
        self.s2[idx] = stride;
        self.last[idx] = actual;
        if let Some(stats) = &mut self.stats {
            stats.record(idx);
        }
        AccessOutcome {
            predicted,
            correct: predicted == actual,
        }
    }

    fn storage(&self) -> StorageCost {
        let n = self.last.len() as u64;
        StorageCost::new()
            .with("last values", n * self.value_bits as u64)
            .with("strides s1", n * self.value_bits as u64)
            .with("strides s2", n * self.value_bits as u64)
    }

    fn name(&self) -> String {
        format!("2delta(2^{})", self.bits)
    }

    fn enable_table_stats(&mut self) {
        if self.stats.is_none() {
            self.stats = Some(TableTracker::new("table", self.last.len()));
        }
    }

    fn table_stats(&self) -> Option<TableStats> {
        self.stats.as_ref().map(|s| TableStats {
            tables: vec![s.usage()],
            alias: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(p: &mut dyn ValuePredictor, pc: u64, values: &[u64]) -> usize {
        values.iter().filter(|&&v| p.access(pc, v).correct).count()
    }

    #[test]
    fn learns_stride_after_two_values() {
        let mut sp = StridePredictor::new(4);
        sp.access(0, 10);
        sp.access(0, 13);
        assert_eq!(sp.predict(0), 16);
    }

    #[test]
    fn perfect_on_constant_after_warmup() {
        let mut sp = StridePredictor::new(4);
        // Cold warmup: the first access trains stride 5-0=5, so the second
        // predicts 10; from the third access on the pattern is locked in.
        let correct = run(&mut sp, 1, &[5; 50]);
        assert_eq!(correct, 48);
    }

    #[test]
    fn reset_costs_one_misprediction_once_confident() {
        let mut sp = StridePredictor::new(4);
        // Warm up on 0..8 three laps so confidence saturates.
        for _ in 0..3 {
            for v in 0..8u64 {
                sp.access(2, v);
            }
        }
        // Now a full lap: only the reset (value 0 after 7) should miss.
        let mut misses = vec![];
        for v in 0..8u64 {
            if !sp.access(2, v).correct {
                misses.push(v);
            }
        }
        assert_eq!(misses, vec![0], "only the wrap-around value should miss");
    }

    #[test]
    fn stride_changes_when_confidence_low() {
        let mut sp = StridePredictor::new(4);
        sp.access(0, 0);
        sp.access(0, 10); // stride 10 learned (confidence low)
        sp.access(0, 12); // miss; stride updated to 2
        assert_eq!(sp.predict(0), 14);
    }

    #[test]
    fn two_delta_requires_stride_twice() {
        let mut sp = TwoDeltaStridePredictor::new(4);
        sp.update(0, 0);
        sp.update(0, 5); // s2 = 5, s1 still 0
        assert_eq!(sp.predict(0), 5);
        sp.update(0, 10); // stride 5 seen twice -> s1 = 5
        assert_eq!(sp.predict(0), 15);
    }

    #[test]
    fn two_delta_survives_reset() {
        let mut sp = TwoDeltaStridePredictor::new(4);
        for v in [0u64, 1, 2, 3, 4] {
            sp.update(0, v);
        }
        sp.update(0, 0); // reset: stride -4 goes to s2 only
        assert_eq!(sp.predict(0), 1, "s1 stride of 1 must survive the reset");
    }

    #[test]
    fn both_handle_wrapping_strides() {
        let mut sp = StridePredictor::new(4);
        let mut td = TwoDeltaStridePredictor::new(4);
        // Descending pattern: stride is negative, represented as wrapping u64.
        let values: Vec<u64> = (0..20).map(|i| 1_000u64.wrapping_sub(7 * i)).collect();
        assert!(run(&mut sp, 0, &values) >= 17);
        assert!(run(&mut td, 0, &values) >= 16);
    }

    #[test]
    fn storage_models() {
        let sp = StridePredictor::new(10);
        assert_eq!(sp.storage().total_bits(), 1024 * 64);
        let td = TwoDeltaStridePredictor::new(10);
        assert_eq!(td.storage().total_bits(), 1024 * 96);
    }

    #[test]
    fn names_include_size() {
        assert_eq!(StridePredictor::new(6).name(), "stride(2^6)");
        assert_eq!(TwoDeltaStridePredictor::new(6).name(), "2delta(2^6)");
    }

    #[test]
    fn pcs_alias_modulo_table_size() {
        // A 4-entry table wraps at a 16-byte code distance (PC bits 2-3
        // index it).
        let mut sp = StridePredictor::new(2);
        sp.access(0, 100);
        sp.access(16, 200); // aliases with pc 0
                            // Entry now has last=200; stride got clobbered to 100.
        assert_eq!(sp.predict(0), 300);
    }
}
