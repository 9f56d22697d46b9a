//! Descriptive statistics over value traces — the Table 1 analogue.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use crate::record::Trace;

/// Summary statistics of one trace, as reported in the repository's
/// Table 1 analogue: size, static footprint, and the fractions of the
/// trace trivially predictable by last-value and stride oracles.
///
/// The oracles here are *per-PC unbounded tables* (no aliasing, no capacity
/// limits): `last_value_fraction` counts records equal to the previous
/// value of the same PC, and `stride_fraction` counts records equal to the
/// previous value plus the previous difference. They characterize the
/// workload itself, independent of any predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Number of records.
    pub records: usize,
    /// Number of distinct static instructions.
    pub static_instructions: usize,
    /// Fraction of records equal to the same PC's previous value.
    pub last_value_fraction: f64,
    /// Fraction of records continuing the same PC's previous difference.
    pub stride_fraction: f64,
    /// Fraction of records whose value was produced before by the same PC
    /// (within the last 64 values) — an upper-bound locality indicator.
    pub reuse_fraction: f64,
}

impl TraceStats {
    /// Computes statistics over `trace`.
    pub fn measure(trace: &Trace) -> TraceStats {
        struct PcState {
            last: u64,
            stride: u64,
            /// Values this PC has produced so far.
            count: usize,
            /// This PC's last `REUSE_WINDOW` values as a ring: each value
            /// overwrites the oldest one. The reuse test asks only whether
            /// a value is among them, so their order does not matter.
            recent: [u64; REUSE_WINDOW],
        }
        let mut per_pc: HashMap<u64, PcState, PcHashBuilder> =
            HashMap::with_hasher(PcHashBuilder::new());
        let mut lv_hits = 0usize;
        let mut stride_hits = 0usize;
        let mut reuse_hits = 0usize;
        for r in trace {
            let state = per_pc.entry(r.pc).or_insert_with(|| PcState {
                last: 0,
                stride: 0,
                count: 0,
                recent: [0; REUSE_WINDOW],
            });
            if state.count >= 1 && r.value == state.last {
                lv_hits += 1;
            }
            if state.count >= 2 && r.value == state.last.wrapping_add(state.stride) {
                stride_hits += 1;
            }
            if state.recent[..state.count.min(REUSE_WINDOW)].contains(&r.value) {
                reuse_hits += 1;
            }
            state.stride = r.value.wrapping_sub(state.last);
            state.last = r.value;
            state.recent[state.count % REUSE_WINDOW] = r.value;
            state.count += 1;
        }
        let n = trace.len().max(1);
        TraceStats {
            records: trace.len(),
            static_instructions: per_pc.len(),
            last_value_fraction: lv_hits as f64 / n as f64,
            stride_fraction: stride_hits as f64 / n as f64,
            reuse_fraction: reuse_hits as f64 / n as f64,
        }
    }
}

/// How many of a PC's most recent values the reuse test looks back over.
const REUSE_WINDOW: usize = 64;

/// Builds [`PcHasher`]s that share one key, drawn from the standard
/// library's per-process random hash keys so that a crafted trace file
/// cannot aim its PCs at one bucket.
struct PcHashBuilder(u64);

impl PcHashBuilder {
    fn new() -> PcHashBuilder {
        PcHashBuilder(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for PcHashBuilder {
    type Hasher = PcHasher;

    fn build_hasher(&self) -> PcHasher {
        PcHasher {
            key: self.0,
            hash: 0,
        }
    }
}

/// Hashes one `u64` PC with a single folded multiply (the high and low
/// halves of a 64×64→128-bit product, XORed), in place of SipHash's
/// rounds.
struct PcHasher {
    key: u64,
    hash: u64,
}

impl Hasher for PcHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PcHasher hashes u64 PCs only")
    }

    fn write_u64(&mut self, pc: u64) {
        let product = u128::from(pc ^ self.key) * 0x9E37_79B9_7F4A_7C15;
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;
    use proptest::prelude::*;

    /// The straightforward form [`TraceStats::measure`] must match: a
    /// SipHash map and, per PC, a `Vec` window that drops its oldest
    /// value from the front.
    fn measure_naive(trace: &Trace) -> TraceStats {
        struct PcState {
            last: u64,
            stride: u64,
            seen: Vec<u64>,
            warm: u8,
        }
        let mut per_pc: HashMap<u64, PcState> = HashMap::new();
        let mut lv_hits = 0usize;
        let mut stride_hits = 0usize;
        let mut reuse_hits = 0usize;
        for r in trace {
            let state = per_pc.entry(r.pc).or_insert(PcState {
                last: 0,
                stride: 0,
                seen: Vec::new(),
                warm: 0,
            });
            if state.warm >= 1 && r.value == state.last {
                lv_hits += 1;
            }
            if state.warm >= 2 && r.value == state.last.wrapping_add(state.stride) {
                stride_hits += 1;
            }
            if state.seen.contains(&r.value) {
                reuse_hits += 1;
            }
            state.stride = r.value.wrapping_sub(state.last);
            state.last = r.value;
            state.warm = state.warm.saturating_add(1);
            if state.seen.len() == 64 {
                state.seen.remove(0);
            }
            state.seen.push(r.value);
        }
        let n = trace.len().max(1);
        TraceStats {
            records: trace.len(),
            static_instructions: per_pc.len(),
            last_value_fraction: lv_hits as f64 / n as f64,
            stride_fraction: stride_hits as f64 / n as f64,
            reuse_fraction: reuse_hits as f64 / n as f64,
        }
    }

    proptest! {
        /// The ring window and PC hasher against the naive form, on
        /// traces where many PCs each produce well over 64 values drawn
        /// from a small alphabet, so values leave the window and return.
        #[test]
        fn measure_agrees_with_naive_reference(
            pcs in 1u64..300,
            records in 0usize..40_000,
            alphabet in 1u64..160,
            seed in any::<u64>(),
        ) {
            let mut rng = crate::rng::SplitMix64::new(seed);
            let trace: Trace = (0..records)
                .map(|i| {
                    let pc = 0x40_0000 + 4 * rng.next_below(pcs);
                    let value = match i % 3 {
                        0 => rng.next_below(alphabet),
                        1 => i as u64 / 7,
                        _ => rng.next_below(alphabet) * 8,
                    };
                    TraceRecord::new(pc, value)
                })
                .collect();
            prop_assert_eq!(TraceStats::measure(&trace), measure_naive(&trace));
        }
    }

    #[test]
    fn constant_trace_is_fully_last_value_predictable() {
        let trace: Trace = (0..100).map(|_| TraceRecord::new(1, 7)).collect();
        let s = TraceStats::measure(&trace);
        assert!(s.last_value_fraction > 0.98);
        assert!(s.stride_fraction > 0.97);
        assert_eq!(s.static_instructions, 1);
        assert_eq!(s.records, 100);
    }

    #[test]
    fn stride_trace_is_stride_but_not_lv_predictable() {
        let trace: Trace = (0..100).map(|i| TraceRecord::new(1, 5 * i)).collect();
        let s = TraceStats::measure(&trace);
        assert!(s.last_value_fraction < 0.01);
        assert!(s.stride_fraction > 0.97);
    }

    #[test]
    fn random_trace_is_unpredictable() {
        let mut rng = crate::rng::SplitMix64::new(1);
        let trace: Trace = (0..500)
            .map(|_| TraceRecord::new(1, rng.next_u64()))
            .collect();
        let s = TraceStats::measure(&trace);
        assert!(s.last_value_fraction < 0.01);
        assert!(s.stride_fraction < 0.01);
        assert!(s.reuse_fraction < 0.01);
    }

    #[test]
    fn reuse_detects_periodic_values() {
        let pattern = [3u64, 9, 27];
        let trace: Trace = (0..90)
            .map(|i| TraceRecord::new(2, pattern[i % 3]))
            .collect();
        let s = TraceStats::measure(&trace);
        assert!(s.reuse_fraction > 0.95);
        assert!(s.last_value_fraction < 0.01);
    }

    #[test]
    fn multiple_pcs_tracked_independently() {
        let mut trace = Trace::new();
        for i in 0..50u64 {
            trace.push(TraceRecord::new(1, 7)); // constant
            trace.push(TraceRecord::new(2, 3 * i)); // stride
        }
        let s = TraceStats::measure(&trace);
        assert_eq!(s.static_instructions, 2);
        assert!(s.last_value_fraction > 0.45 && s.last_value_fraction < 0.55);
        assert!(s.stride_fraction > 0.95);
    }

    #[test]
    fn empty_trace_is_safe() {
        let s = TraceStats::measure(&Trace::new());
        assert_eq!(s.records, 0);
        assert_eq!(s.static_instructions, 0);
        assert_eq!(s.last_value_fraction, 0.0);
    }
}
