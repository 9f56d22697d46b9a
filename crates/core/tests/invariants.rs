//! Property-based tests of the predictors' structural invariants.

use dfcm::{
    DfcmPredictor, FcmPredictor, HashFunction, HybridPredictor, PerfectMeta,
    StrideOccupancyProfiler, StridePredictor, TaggedDfcmPredictor, ValuePredictor,
};
use proptest::prelude::*;

/// Streams of (4-byte-aligned pc, value) with small pc sets so tables see
/// real reuse.
fn arb_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..64, 0u64..10_000), 1..600).prop_map(|v| {
        v.into_iter()
            .map(|(pc, value)| (0x40_0000 + pc * 4, value))
            .collect()
    })
}

proptest! {
    /// The defining relation of the DFCM (§3): it equals an FCM run over
    /// the per-PC *difference* stream, with the prediction re-based on the
    /// last value. The two-level machinery is shared, so this pins the
    /// differential transformation itself.
    #[test]
    fn dfcm_is_fcm_over_differences(stream in arb_stream()) {
        let mut dfcm = DfcmPredictor::builder().l1_bits(8).l2_bits(10).build().unwrap();
        let mut diff_fcm = FcmPredictor::builder().l1_bits(8).l2_bits(10).build().unwrap();
        let mut last: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for &(pc, value) in &stream {
            let prev = last.get(&pc).copied().unwrap_or(0);
            // The FCM over differences predicts the next diff; re-based it
            // must equal the DFCM's value prediction.
            let expected = prev.wrapping_add(diff_fcm.predict(pc));
            prop_assert_eq!(dfcm.predict(pc), expected);
            dfcm.update(pc, value);
            diff_fcm.update(pc, value.wrapping_sub(prev));
            last.insert(pc, value);
        }
    }

    /// The tagged DFCM's value stream is identical to the plain DFCM's;
    /// tagging only gates issue.
    #[test]
    fn tagged_dfcm_values_match_plain(stream in arb_stream()) {
        let mut plain = DfcmPredictor::builder().l1_bits(7).l2_bits(9).build().unwrap();
        let mut tagged = TaggedDfcmPredictor::builder().l1_bits(7).l2_bits(9).build().unwrap();
        for &(pc, value) in &stream {
            prop_assert_eq!(plain.access(pc, value).predicted, tagged.access(pc, value).predicted);
        }
    }

    /// A perfect-meta hybrid is correct exactly when either component
    /// would have been.
    #[test]
    fn perfect_hybrid_is_component_union(stream in arb_stream()) {
        let mut a = StridePredictor::new(7);
        let mut b = FcmPredictor::builder().l1_bits(7).l2_bits(9).build().unwrap();
        let mut hybrid = HybridPredictor::new(
            StridePredictor::new(7),
            FcmPredictor::builder().l1_bits(7).l2_bits(9).build().unwrap(),
            PerfectMeta,
        );
        for &(pc, value) in &stream {
            let ca = a.access(pc, value).correct;
            let cb = b.access(pc, value).correct;
            prop_assert_eq!(hybrid.access(pc, value).correct, ca || cb);
        }
    }

    /// The occupancy profiler attributes exactly the accesses its internal
    /// stride detector predicted correctly — no more, no less.
    #[test]
    fn profiler_counts_equal_detector_hits(stream in arb_stream()) {
        let mut detector = StridePredictor::new(10);
        let expected: u64 = stream
            .iter()
            .map(|&(pc, v)| u64::from(detector.access(pc, v).correct))
            .sum();
        let fcm = FcmPredictor::builder().l1_bits(7).l2_bits(9).build().unwrap();
        let mut profiler = StrideOccupancyProfiler::new(fcm, 10);
        for &(pc, v) in &stream {
            profiler.access(pc, v);
        }
        prop_assert_eq!(profiler.stats().total_stride_accesses(), expected);
    }

    /// Cloned predictors evolve identically (no hidden shared or global
    /// state).
    #[test]
    fn clones_are_independent_but_identical(stream in arb_stream()) {
        let mut original = DfcmPredictor::builder().l1_bits(6).l2_bits(8).build().unwrap();
        // Pre-train, clone, then diverge one and check the other.
        for &(pc, value) in stream.iter().take(stream.len() / 2) {
            original.access(pc, value);
        }
        let mut clone = original.clone();
        let probe_pc = 0x40_0000;
        let before = original.predict(probe_pc);
        clone.update(0x40_0004, 999_999);
        clone.update(probe_pc, 123_456);
        prop_assert_eq!(original.predict(probe_pc), before, "clone write leaked");
        for &(pc, value) in &stream {
            let from_clone = original.clone().access(pc, value);
            let from_original = original.access(pc, value);
            prop_assert_eq!(from_original, from_clone, "clone must behave like the original");
        }
    }

    /// Every hash function keeps indices in range and is deterministic.
    #[test]
    fn hashes_in_range_and_deterministic(
        values in prop::collection::vec(any::<u64>(), 1..100),
        bits in 2u32..24,
    ) {
        for hash in [
            HashFunction::FsR5,
            HashFunction::FsShift { shift: 3 },
            HashFunction::FoldXor,
            HashFunction::Concat { order: 2 },
        ] {
            if hash.validate(bits).is_err() {
                continue;
            }
            let run = || {
                let mut h = 0u64;
                for &v in &values {
                    h = hash.fold_update(h, v, bits);
                    assert!(h < (1u64 << bits));
                }
                h
            };
            prop_assert_eq!(run(), run());
        }
    }

    /// Storage accounting is strictly monotone in both table exponents.
    #[test]
    fn storage_monotone_in_table_sizes(l1 in 1u32..14, l2 in 2u32..14) {
        let cost = |a: u32, b: u32| {
            DfcmPredictor::builder()
                .l1_bits(a)
                .l2_bits(b)
                .build()
                .unwrap()
                .storage()
                .total_bits()
        };
        prop_assert!(cost(l1 + 1, l2) > cost(l1, l2));
        prop_assert!(cost(l1, l2 + 1) > cost(l1, l2));
    }
}
