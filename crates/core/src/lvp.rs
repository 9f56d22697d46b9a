use crate::predictor::{AccessOutcome, ValuePredictor};
use crate::storage::StorageCost;
use crate::table_stats::{TableStats, TableTracker};
use crate::DEFAULT_VALUE_BITS;

/// The last value predictor (Lipasti; paper §2.1).
///
/// Predicts that an instruction will produce the same value it produced the
/// previous time. The table is directly indexed by the low bits of the
/// program counter and stores one value per entry; it works best for
/// constant patterns.
///
/// ```
/// use dfcm::{LastValuePredictor, ValuePredictor};
///
/// let mut lvp = LastValuePredictor::new(8);
/// assert!(!lvp.access(0x400, 42).correct); // cold: tables start at 0
/// assert!(lvp.access(0x400, 42).correct); // constant value repeats
/// assert!(!lvp.access(0x400, 43).correct); // strides are not captured
/// ```
#[derive(Debug, Clone)]
pub struct LastValuePredictor {
    table: Vec<u64>,
    mask: usize,
    bits: u32,
    value_bits: u32,
    stats: Option<TableTracker>,
}

impl LastValuePredictor {
    /// Creates a predictor with a `2^bits`-entry table and the default
    /// 32-bit storage cost model.
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds 30.
    pub fn new(bits: u32) -> Self {
        Self::with_value_bits(bits, DEFAULT_VALUE_BITS)
    }

    /// Creates a predictor whose storage cost is accounted at `value_bits`
    /// bits per stored value (prediction behaviour is unaffected; full
    /// values are always kept).
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
        LastValuePredictor {
            table: vec![0; 1 << bits],
            mask: (1usize << bits) - 1,
            bits,
            value_bits,
            stats: None,
        }
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// Serializes the mutable table state (not the configuration) as a
    /// flat word vector: the last-value table, in index order. Paired
    /// with [`load_state_words`](LastValuePredictor::load_state_words)
    /// for crash-consistent snapshot/restore of serving sessions.
    pub fn state_words(&self) -> Vec<u64> {
        self.table.clone()
    }

    /// Restores state captured by
    /// [`state_words`](LastValuePredictor::state_words) into an
    /// identically configured predictor. Table-stats instrumentation, if
    /// enabled, keeps counting from the restored state.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::State`](crate::ConfigError) when the word
    /// count does not match this configuration; the predictor is left
    /// unchanged.
    pub fn load_state_words(&mut self, words: &[u64]) -> Result<(), crate::ConfigError> {
        if words.len() != self.table.len() {
            return Err(crate::ConfigError::State {
                reason: format!(
                    "lvp state holds {} words, table needs {}",
                    words.len(),
                    self.table.len()
                ),
            });
        }
        self.table.copy_from_slice(words);
        Ok(())
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        crate::predictor::pc_index(pc, self.mask)
    }
}

impl ValuePredictor for LastValuePredictor {
    fn predict(&mut self, pc: u64) -> u64 {
        self.table[self.index(pc)]
    }

    fn update(&mut self, pc: u64, actual: u64) {
        self.access(pc, actual);
    }

    // Fused predict+update: the table index is computed once per record.
    // Behaviour is bit-identical to the default predict-then-update.
    #[inline]
    fn access(&mut self, pc: u64, actual: u64) -> AccessOutcome {
        let idx = self.index(pc);
        let predicted = self.table[idx];
        self.table[idx] = actual;
        if let Some(stats) = &mut self.stats {
            stats.record(idx);
        }
        AccessOutcome {
            predicted,
            correct: predicted == actual,
        }
    }

    fn storage(&self) -> StorageCost {
        StorageCost::new().with(
            "last values",
            self.table.len() as u64 * self.value_bits as u64,
        )
    }

    fn name(&self) -> String {
        format!("lvp(2^{})", self.bits)
    }

    fn enable_table_stats(&mut self) {
        if self.stats.is_none() {
            self.stats = Some(TableTracker::new("table", self.table.len()));
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

    #[test]
    fn predicts_repeated_value() {
        let mut lvp = LastValuePredictor::new(4);
        lvp.update(3, 99);
        assert_eq!(lvp.predict(3), 99);
    }

    #[test]
    fn distinct_pcs_use_distinct_entries() {
        let mut lvp = LastValuePredictor::new(4);
        lvp.update(0, 1);
        lvp.update(4, 2); // adjacent 4-byte-aligned instructions
        assert_eq!(lvp.predict(0), 1);
        assert_eq!(lvp.predict(4), 2);
    }

    #[test]
    fn pcs_alias_modulo_table_size() {
        // Indexing drops the two always-zero PC bits, so a 16-entry table
        // wraps at a 64-byte code distance.
        let mut lvp = LastValuePredictor::new(4);
        lvp.update(0, 1);
        lvp.update(64, 2); // same entry as pc 0
        assert_eq!(lvp.predict(0), 2);
    }

    #[test]
    fn perfect_on_constant_stream() {
        let mut lvp = LastValuePredictor::new(6);
        lvp.update(7, 5);
        let correct = (0..100).filter(|_| lvp.access(7, 5).correct).count();
        assert_eq!(correct, 100);
    }

    #[test]
    fn poor_on_stride_stream() {
        let mut lvp = LastValuePredictor::new(6);
        let correct = (0..100u64)
            .filter(|i| lvp.access(7, 10 + i).correct)
            .count();
        assert_eq!(correct, 0);
    }

    #[test]
    fn storage_matches_paper_model() {
        let lvp = LastValuePredictor::new(10);
        assert_eq!(lvp.storage().total_bits(), 1024 * 32);
        let narrow = LastValuePredictor::with_value_bits(10, 64);
        assert_eq!(narrow.storage().total_bits(), 1024 * 64);
    }

    #[test]
    fn name_includes_size() {
        assert_eq!(LastValuePredictor::new(12).name(), "lvp(2^12)");
    }
}
