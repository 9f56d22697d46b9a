use std::collections::VecDeque;

use crate::error::{check_table_bits, ConfigError};
use crate::hash::HashFunction;
use crate::predictor::ValuePredictor;
use crate::storage::StorageCost;
use crate::DEFAULT_VALUE_BITS;

/// A DFCM with *speculative history update* under delayed resolution —
/// the standard remedy for the degradation the paper measures in §4.5.
///
/// With plain delayed update ([`DelayedUpdate`](crate::DelayedUpdate)), a
/// static instruction recurring within the update latency predicts from
/// stale history and an established stride pattern mispredicts every
/// occurrence in flight. The speculative variant instead advances the
/// level-1 state (hashed history and last value) *at prediction time*
/// using its own prediction, and repairs on resolution:
///
/// * prediction: predict as usual, then speculatively fold the predicted
///   difference into the history and adopt the predicted value as `last`;
///   remember the pre-speculation state in a small in-flight queue.
/// * resolution (after `delay` further predictions): write the actual
///   difference to the level-2 entry the prediction used. If the
///   prediction was wrong, squash: rebuild the instruction's level-1
///   state from the resolution (the hardware analogue of recovering
///   predictor state on a value misprediction).
///
/// On a steady stride, the speculative history is always correct, so the
/// predictor keeps hitting at any delay — recovering almost all of the
/// accuracy that plain delayed update loses (`dfcm-repro specupdate`).
///
/// ```
/// use dfcm::{SpeculativeDfcm, ValuePredictor};
///
/// # fn main() -> Result<(), dfcm::ConfigError> {
/// let mut p = SpeculativeDfcm::builder().l1_bits(8).l2_bits(10).delay(64).build()?;
/// // A tight stride loop far shorter than the update latency. Nothing can
/// // resolve before the first value returns, so warmup costs ~delay
/// // misses — but after that, speculative histories hide the delay
/// // completely (plain delayed update would keep missing every lap).
/// let misses = (0..500u64).filter(|&i| !p.access(0x40, 3 * i).correct).count();
/// assert!(misses < 64 + 10, "only warmup misses expected: {misses}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SpeculativeDfcm {
    /// Speculative (fetch-side) level-1 state, advanced per prediction.
    last: Vec<u64>,
    hist: Vec<u64>,
    /// Architectural (retirement-side) level-1 state, advanced per
    /// resolution — an immediate-update DFCM delayed in time.
    arch_last: Vec<u64>,
    arch_hist: Vec<u64>,
    l2: Vec<u64>,
    /// Predictions not yet resolved, oldest first. The front one is the
    /// `resolved`-th prediction made, counting from 0.
    in_flight: VecDeque<InFlight>,
    resolved: u64,
    /// Per level-1 entry, 1 + the number of the youngest prediction that
    /// read it, or 0 if none did. It is in flight while that number is at
    /// least `resolved`.
    youngest: Vec<u64>,
    l1_mask: usize,
    l1_bits: u32,
    l2_bits: u32,
    hash: HashFunction,
    delay: usize,
    value_bits: u32,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    i1: usize,
    predicted: u64,
    actual: u64,
    /// 1 + the number of the next younger prediction of the same level-1
    /// entry, or 0 until one is made.
    next: u64,
}

/// Builder for [`SpeculativeDfcm`].
#[derive(Debug, Clone)]
pub struct SpeculativeDfcmBuilder {
    l1_bits: u32,
    l2_bits: u32,
    hash: HashFunction,
    delay: usize,
}

impl Default for SpeculativeDfcmBuilder {
    fn default() -> Self {
        SpeculativeDfcmBuilder {
            l1_bits: 12,
            l2_bits: 12,
            hash: HashFunction::FsR5,
            delay: 0,
        }
    }
}

impl SpeculativeDfcmBuilder {
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

    /// Selects the history hash (default FS R-5).
    pub fn hash(&mut self, hash: HashFunction) -> &mut Self {
        self.hash = hash;
        self
    }

    /// Sets the resolution delay in predictions (default 0 = immediate).
    pub fn delay(&mut self, delay: usize) -> &mut Self {
        self.delay = delay;
        self
    }

    /// Builds the predictor.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for invalid table exponents or a hash that
    /// cannot produce `l2_bits`-bit indices.
    pub fn build(&self) -> Result<SpeculativeDfcm, ConfigError> {
        check_table_bits("l1_bits", self.l1_bits)?;
        check_table_bits("l2_bits", self.l2_bits)?;
        self.hash.validate(self.l2_bits)?;
        let l1 = 1usize << self.l1_bits;
        Ok(SpeculativeDfcm {
            last: vec![0; l1],
            hist: vec![0; l1],
            arch_last: vec![0; l1],
            arch_hist: vec![0; l1],
            l2: vec![0; 1 << self.l2_bits],
            in_flight: VecDeque::with_capacity(self.delay + 1),
            resolved: 0,
            youngest: vec![0; l1],
            l1_mask: l1 - 1,
            l1_bits: self.l1_bits,
            l2_bits: self.l2_bits,
            hash: self.hash,
            delay: self.delay,
            value_bits: DEFAULT_VALUE_BITS,
        })
    }
}

impl SpeculativeDfcm {
    /// Starts building a speculative-update DFCM.
    pub fn builder() -> SpeculativeDfcmBuilder {
        SpeculativeDfcmBuilder::default()
    }

    /// The configured resolution delay.
    pub fn delay(&self) -> usize {
        self.delay
    }

    fn l1_index(&self, pc: u64) -> usize {
        crate::predictor::pc_index(pc, self.l1_mask)
    }

    fn resolve_oldest(&mut self) {
        let Some(f) = self.in_flight.pop_front() else {
            return;
        };
        self.resolved += 1;
        // Train along the architectural (resolved) stream — the entry the
        // prediction read equals arch_hist whenever speculation was right.
        let i1 = f.i1;
        let actual_diff = f.actual.wrapping_sub(self.arch_last[i1]);
        self.l2[self.arch_hist[i1] as usize] = actual_diff;
        self.arch_hist[i1] = self
            .hash
            .fold_update(self.arch_hist[i1], actual_diff, self.l2_bits);
        self.arch_last[i1] = f.actual;
        if f.predicted != f.actual {
            // Squash and re-lock: restore this instruction's speculative
            // level-1 state from the architectural copy, then re-predict
            // through the still-in-flight younger occurrences of the same
            // entry — the analogue of re-fetching and re-predicting the
            // squashed instructions with repaired tables. Those are the
            // chain of `next` links from `f`, oldest first, so the repair
            // takes one step per same-entry prediction in flight.
            let mut hist = self.arch_hist[i1];
            let mut last = self.arch_last[i1];
            let mut next = f.next;
            while next != 0 {
                let diff = self.l2[hist as usize];
                hist = self.hash.fold_update(hist, diff, self.l2_bits);
                last = last.wrapping_add(diff);
                next = self.in_flight[(next - 1 - self.resolved) as usize].next;
            }
            self.hist[i1] = hist;
            self.last[i1] = last;
        }
    }

    /// Resolves all in-flight predictions immediately (end of trace).
    pub fn drain(&mut self) {
        while !self.in_flight.is_empty() {
            self.resolve_oldest();
        }
    }
}

impl ValuePredictor for SpeculativeDfcm {
    fn predict(&mut self, pc: u64) -> u64 {
        let i1 = self.l1_index(pc);
        self.last[i1].wrapping_add(self.l2[self.hist[i1] as usize])
    }

    fn update(&mut self, pc: u64, actual: u64) {
        let i1 = self.l1_index(pc);
        let hist_before = self.hist[i1];
        let predicted_diff = self.l2[hist_before as usize];
        let predicted = self.last[i1].wrapping_add(predicted_diff);
        // Speculatively advance the level-1 state with the prediction.
        self.hist[i1] = self
            .hash
            .fold_update(hist_before, predicted_diff, self.l2_bits);
        self.last[i1] = predicted;
        // Link the entry's youngest prediction in flight, if any, to this
        // one.
        let number = self.resolved + self.in_flight.len() as u64;
        let youngest = self.youngest[i1];
        if youngest > self.resolved {
            self.in_flight[(youngest - 1 - self.resolved) as usize].next = number + 1;
        }
        self.youngest[i1] = number + 1;
        self.in_flight.push_back(InFlight {
            i1,
            predicted,
            actual,
            next: 0,
        });
        if self.in_flight.len() > self.delay {
            self.resolve_oldest();
        }
    }

    fn storage(&self) -> StorageCost {
        // Both the speculative (fetch-side) and architectural
        // (retirement-side) level-1 copies are real hardware state.
        let l1 = self.last.len() as u64;
        StorageCost::new()
            .with("L1 last values (2 copies)", 2 * l1 * self.value_bits as u64)
            .with(
                "L1 hashed histories (2 copies)",
                2 * l1 * self.l2_bits as u64,
            )
            .with(
                "L2 differences",
                self.l2.len() as u64 * self.value_bits as u64,
            )
    }

    fn name(&self) -> String {
        format!(
            "dfcm-spec(l1=2^{},l2=2^{},{})@d{}",
            self.l1_bits,
            self.l2_bits,
            self.hash.label(),
            self.delay
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delayed::DelayedUpdate;
    use crate::dfcm::DfcmPredictor;
    use proptest::prelude::*;

    /// The repair [`SpeculativeDfcm`] must match: on a misprediction it
    /// scans the whole in-flight queue for younger predictions of the
    /// same level-1 entry.
    #[derive(Debug, Clone)]
    struct NaiveSpeculativeDfcm {
        last: Vec<u64>,
        hist: Vec<u64>,
        arch_last: Vec<u64>,
        arch_hist: Vec<u64>,
        l2: Vec<u64>,
        /// `(level-1 index, predicted, actual)`, oldest first.
        in_flight: VecDeque<(usize, u64, u64)>,
        l1_mask: usize,
        l2_bits: u32,
        delay: usize,
    }

    impl NaiveSpeculativeDfcm {
        fn new(l1_bits: u32, l2_bits: u32, delay: usize) -> Self {
            let l1 = 1usize << l1_bits;
            NaiveSpeculativeDfcm {
                last: vec![0; l1],
                hist: vec![0; l1],
                arch_last: vec![0; l1],
                arch_hist: vec![0; l1],
                l2: vec![0; 1 << l2_bits],
                in_flight: VecDeque::new(),
                l1_mask: l1 - 1,
                l2_bits,
                delay,
            }
        }

        fn fold(&self, hist: u64, diff: u64) -> u64 {
            HashFunction::FsR5.fold_update(hist, diff, self.l2_bits)
        }

        fn resolve_oldest(&mut self) {
            let Some((i1, predicted, actual)) = self.in_flight.pop_front() else {
                return;
            };
            let actual_diff = actual.wrapping_sub(self.arch_last[i1]);
            self.l2[self.arch_hist[i1] as usize] = actual_diff;
            self.arch_hist[i1] = self.fold(self.arch_hist[i1], actual_diff);
            self.arch_last[i1] = actual;
            if predicted != actual {
                let mut hist = self.arch_hist[i1];
                let mut last = self.arch_last[i1];
                for &(younger, _, _) in &self.in_flight {
                    if younger == i1 {
                        let diff = self.l2[hist as usize];
                        hist = self.fold(hist, diff);
                        last = last.wrapping_add(diff);
                    }
                }
                self.hist[i1] = hist;
                self.last[i1] = last;
            }
        }

        fn access(&mut self, pc: u64, actual: u64) -> u64 {
            let i1 = crate::predictor::pc_index(pc, self.l1_mask);
            let diff = self.l2[self.hist[i1] as usize];
            let predicted = self.last[i1].wrapping_add(diff);
            self.hist[i1] = self.fold(self.hist[i1], diff);
            self.last[i1] = predicted;
            self.in_flight.push_back((i1, predicted, actual));
            if self.in_flight.len() > self.delay {
                self.resolve_oldest();
            }
            predicted
        }

        fn drain(&mut self) {
            while !self.in_flight.is_empty() {
                self.resolve_oldest();
            }
        }
    }

    proptest! {
        /// The chained repair against the naive scan, record by record:
        /// every `access` outcome, then every table after `drain`. Tiny
        /// level-1 tables make entries collide, and a small alphabet
        /// mixes steady strides with mispredictions.
        #[test]
        fn chained_repair_matches_the_naive_scan(
            delay in 0usize..5,
            l1_bits in 0u32..3,
            l2_bits in 1u32..8,
            records in prop::collection::vec((0u64..8, any::<u64>(), any::<bool>()), 0..1500),
        ) {
            let delay = [0, 1, 2, 16, 512][delay];
            let l1_bits = 2 * l1_bits;
            let mut chained = SpeculativeDfcm::builder()
                .l1_bits(l1_bits)
                .l2_bits(l2_bits)
                .delay(delay)
                .build()
                .unwrap();
            let mut naive = NaiveSpeculativeDfcm::new(l1_bits, l2_bits, delay);
            for (i, &(pc, draw, stride)) in records.iter().enumerate() {
                let value = if stride { 3 * i as u64 + pc } else { draw % 5 };
                let outcome = chained.access(4 * pc, value);
                prop_assert_eq!(outcome.predicted, naive.access(4 * pc, value), "record {}", i);
            }
            chained.drain();
            naive.drain();
            prop_assert_eq!(&chained.last, &naive.last);
            prop_assert_eq!(&chained.hist, &naive.hist);
            prop_assert_eq!(&chained.arch_last, &naive.arch_last);
            prop_assert_eq!(&chained.arch_hist, &naive.arch_hist);
            prop_assert_eq!(&chained.l2, &naive.l2);
        }
    }

    fn spec(delay: usize) -> SpeculativeDfcm {
        SpeculativeDfcm::builder()
            .l1_bits(8)
            .l2_bits(10)
            .delay(delay)
            .build()
            .unwrap()
    }

    #[test]
    fn zero_delay_matches_plain_dfcm() {
        // With immediate resolution, speculation is corrected before the
        // next prediction, so behaviour must equal the plain DFCM.
        let mut plain = DfcmPredictor::builder()
            .l1_bits(8)
            .l2_bits(10)
            .build()
            .unwrap();
        let mut speculative = spec(0);
        for i in 0..4000u64 {
            let pc = 4 * (i % 30);
            let v = (i * i) % 500;
            assert_eq!(
                plain.access(pc, v).predicted,
                speculative.access(pc, v).predicted,
                "i={i}"
            );
        }
    }

    #[test]
    fn hides_delay_on_steady_strides() {
        // Warmup costs ~delay misses (nothing resolves earlier); after
        // the first squash + re-lock the stride hits at any delay.
        let mut p = spec(64);
        let total = (0..2000u64)
            .filter(|&i| !p.access(0x40, 7 * i).correct)
            .count();
        assert!(total < 64 + 10, "{total}");
        let late = (2000..4000u64)
            .filter(|&i| !p.access(0x40, 7 * i).correct)
            .count();
        assert_eq!(late, 0, "steady state must be perfect");
    }

    #[test]
    fn beats_plain_delayed_update() {
        // Tight interleaved strides within the delay window: speculative
        // histories must clearly outperform stale ones.
        let run_spec = |delay: usize| {
            let mut p = spec(delay);
            let mut correct = 0u64;
            for i in 0..4000u64 {
                for pc in 0..4u64 {
                    correct += u64::from(p.access(pc * 4, 1000 * pc + 3 * i).correct);
                }
            }
            correct
        };
        let run_stale = |delay: usize| {
            let inner = DfcmPredictor::builder()
                .l1_bits(8)
                .l2_bits(10)
                .build()
                .unwrap();
            let mut p = DelayedUpdate::new(inner, delay);
            let mut correct = 0u64;
            for i in 0..4000u64 {
                for pc in 0..4u64 {
                    correct += u64::from(p.access(pc * 4, 1000 * pc + 3 * i).correct);
                }
            }
            correct
        };
        for delay in [16usize, 64, 256] {
            let speculative = run_spec(delay);
            let stale = run_stale(delay);
            assert!(
                speculative > stale + 1000,
                "delay {delay}: speculative {speculative} vs stale {stale}"
            );
        }
    }

    #[test]
    fn squash_recovers_after_pattern_change() {
        let mut p = spec(8);
        for i in 0..200u64 {
            p.access(0x40, 5 * i);
        }
        // Abrupt change to a new stride: some in-flight damage, then the
        // squash repairs state and the new stride is learned.
        let late_misses = (0..200u64)
            .map(|i| 1_000_000 + 11 * i)
            .enumerate()
            .filter(|&(j, v)| !p.access(0x40, v).correct && j > 30)
            .count();
        assert_eq!(late_misses, 0, "must relearn after squash");
    }

    #[test]
    fn drain_flushes_in_flight_state() {
        let mut p = spec(32);
        for i in 0..10u64 {
            p.access(0x40, i);
        }
        p.drain();
        // After draining, the level-2 entry for the current history holds
        // the resolved stride, so the next prediction is correct.
        assert_eq!(p.predict(0x40), 10);
    }

    #[test]
    fn name_and_accessors() {
        let p = spec(32);
        assert!(p.name().contains("@d32"));
        assert_eq!(p.delay(), 32);
        assert!(p.storage().total_bits() > 0);
    }
}
