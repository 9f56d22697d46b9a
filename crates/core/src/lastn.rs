use crate::predictor::ValuePredictor;
use crate::storage::StorageCost;
use crate::DEFAULT_VALUE_BITS;

/// The last-*n* value predictor of Burtscher and Zorn (reference \[2\] of
/// the paper, "Exploring last n value prediction").
///
/// Each entry keeps the `n` most recent distinct values produced by the
/// instruction, each with a small saturating vote counter; the prediction
/// is the stored value with the highest vote (most recently used wins
/// ties). This generalizes the last value predictor (`n = 1`) and captures
/// alternating or few-valued patterns (flags, NULL/non-NULL results) that
/// a single last value misses, without the table pressure of a context
/// predictor.
///
/// ```
/// use dfcm::{LastNValuePredictor, ValuePredictor};
///
/// let mut p = LastNValuePredictor::new(8, 4);
/// // An alternating pattern settles on the majority value.
/// for _ in 0..10 {
///     p.access(0x40, 1);
///     p.access(0x40, 1);
///     p.access(0x40, 0);
/// }
/// assert_eq!(p.predict(0x40), 1);
/// ```
#[derive(Debug, Clone)]
pub struct LastNValuePredictor {
    entries: Vec<Entry>,
    mask: usize,
    bits: u32,
    n: usize,
}

#[derive(Debug, Clone)]
struct Entry {
    values: Vec<u64>,
    votes: Vec<u8>,
    /// Insertion clock for LRU replacement and MRU tie-breaks.
    stamps: Vec<u32>,
    clock: u32,
}

const VOTE_MAX: u8 = 15;

impl Entry {
    fn new(n: usize) -> Self {
        Entry {
            values: Vec::with_capacity(n),
            votes: Vec::new(),
            stamps: Vec::new(),
            clock: 0,
        }
    }

    fn best(&self) -> u64 {
        let mut best: Option<(u8, u32, u64)> = None;
        for i in 0..self.values.len() {
            let key = (self.votes[i], self.stamps[i], self.values[i]);
            if best.is_none_or(|b| (key.0, key.1) > (b.0, b.1)) {
                best = Some(key);
            }
        }
        best.map_or(0, |(_, _, v)| v)
    }

    fn train(&mut self, n: usize, actual: u64) {
        self.clock = self.clock.wrapping_add(1);
        if let Some(i) = self.values.iter().position(|&v| v == actual) {
            self.votes[i] = (self.votes[i] + 2).min(VOTE_MAX);
            self.stamps[i] = self.clock;
            for (j, vote) in self.votes.iter_mut().enumerate() {
                if j != i {
                    *vote = vote.saturating_sub(1);
                }
            }
            return;
        }
        if self.values.len() < n {
            self.values.push(actual);
            self.votes.push(1);
            self.stamps.push(self.clock);
            return;
        }
        // Replace the lowest-vote (oldest on ties) slot.
        let mut victim = 0;
        for i in 1..self.values.len() {
            if (self.votes[i], self.stamps[i]) < (self.votes[victim], self.stamps[victim]) {
                victim = i;
            }
        }
        self.values[victim] = actual;
        self.votes[victim] = 1;
        self.stamps[victim] = self.clock;
    }
}

impl LastNValuePredictor {
    /// Creates a predictor with a `2^bits`-entry table keeping `n` values
    /// per entry.
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds 30 or `n` is not in `1..=16`.
    pub fn new(bits: u32, n: usize) -> Self {
        assert!(bits <= 30, "table exponent must be <= 30, got {bits}");
        assert!((1..=16).contains(&n), "n must be in 1..=16, got {n}");
        LastNValuePredictor {
            entries: vec![Entry::new(n); 1 << bits],
            mask: (1usize << bits) - 1,
            bits,
            n,
        }
    }

    /// Number of values kept per entry.
    pub fn n(&self) -> usize {
        self.n
    }

    fn index(&self, pc: u64) -> usize {
        crate::predictor::pc_index(pc, self.mask)
    }
}

impl ValuePredictor for LastNValuePredictor {
    fn predict(&mut self, pc: u64) -> u64 {
        self.entries[self.index(pc)].best()
    }

    fn update(&mut self, pc: u64, actual: u64) {
        let idx = self.index(pc);
        let n = self.n;
        self.entries[idx].train(n, actual);
    }

    fn storage(&self) -> StorageCost {
        let e = self.entries.len() as u64;
        StorageCost::new()
            .with("values", e * self.n as u64 * DEFAULT_VALUE_BITS as u64)
            .with("vote counters", e * self.n as u64 * 4)
    }

    fn name(&self) -> String {
        format!("last{}(2^{})", self.n, self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n1_behaves_like_last_value_on_constants() {
        let mut p = LastNValuePredictor::new(4, 1);
        p.update(0, 9);
        assert_eq!(p.predict(0), 9);
        p.update(0, 9);
        assert_eq!(p.predict(0), 9);
    }

    #[test]
    fn captures_alternating_pattern_majority() {
        let mut p = LastNValuePredictor::new(4, 4);
        let mut correct = 0;
        for _ in 0..50 {
            correct += usize::from(p.access(0, 7).correct);
            correct += usize::from(p.access(0, 7).correct);
            correct += usize::from(p.access(0, 3).correct);
        }
        // Plain last-value would score 50 (only on the second 7);
        // keeping both candidates scores the two 7s of each triple.
        assert!(correct >= 95, "got {correct}");
    }

    #[test]
    fn small_value_sets_are_fully_retained() {
        let mut p = LastNValuePredictor::new(4, 4);
        for &v in [10u64, 20, 30].iter().cycle().take(60) {
            p.update(0, v);
        }
        let e = &p.entries[0];
        let mut stored = e.values.clone();
        stored.sort_unstable();
        assert_eq!(stored, vec![10, 20, 30]);
    }

    #[test]
    fn eviction_replaces_lowest_vote() {
        let mut p = LastNValuePredictor::new(4, 2);
        for _ in 0..8 {
            p.update(0, 1); // strong votes
        }
        p.update(0, 2); // second slot
        p.update(0, 3); // must evict the weak 2, not the strong 1
        assert!(p.entries[0].values.contains(&1));
        assert!(p.entries[0].values.contains(&3));
    }

    #[test]
    fn storage_scales_with_n() {
        let a = LastNValuePredictor::new(8, 1).storage().total_bits();
        let b = LastNValuePredictor::new(8, 4).storage().total_bits();
        assert_eq!(b, 4 * a);
    }

    #[test]
    fn beats_lvp_on_few_valued_streams() {
        use crate::lvp::LastValuePredictor;
        let pattern = [5u64, 5, 9, 5, 5, 9, 9, 5];
        let mut lastn = LastNValuePredictor::new(6, 4);
        let mut lvp = LastValuePredictor::new(6);
        let mut n_score = 0;
        let mut lvp_score = 0;
        for &v in pattern.iter().cycle().take(400) {
            n_score += usize::from(lastn.access(0, v).correct);
            lvp_score += usize::from(lvp.access(0, v).correct);
        }
        assert!(n_score > lvp_score, "last-n {n_score} vs lvp {lvp_score}");
    }

    #[test]
    fn name_and_accessors() {
        let p = LastNValuePredictor::new(10, 3);
        assert_eq!(p.name(), "last3(2^10)");
        assert_eq!(p.n(), 3);
    }

    #[test]
    #[should_panic(expected = "n must be")]
    fn zero_n_rejected() {
        let _ = LastNValuePredictor::new(4, 0);
    }
}
