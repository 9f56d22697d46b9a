use crate::counter::SaturatingCounter;
use crate::predictor::{AccessOutcome, ValuePredictor};
use crate::storage::StorageCost;

/// Which component of a [`HybridPredictor`] supplied the prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// The first component predictor.
    A,
    /// The second component predictor.
    B,
}

/// Selection mechanism of a [`HybridPredictor`] (§4.3, Figure 15).
///
/// A meta-predictor chooses, per prediction, which component to believe and
/// is trained afterwards with each component's correctness.
pub trait MetaPredictor {
    /// Chooses a component for the instruction at `pc`, given both
    /// component predictions.
    ///
    /// `actual` is `Some` when the harness already knows the outcome (the
    /// [`ValuePredictor::access`] path) — only oracle selectors such as
    /// [`PerfectMeta`] may use it; implementable selectors must ignore it
    /// and behave identically whether or not it is supplied.
    fn choose(&mut self, pc: u64, pred_a: u64, pred_b: u64, actual: Option<u64>) -> Component;

    /// Trains the selector with each component's correctness for `pc`.
    fn update(&mut self, pc: u64, a_correct: bool, b_correct: bool);

    /// Storage cost of the selector itself.
    fn storage(&self) -> StorageCost;

    /// Short label used in the hybrid's name.
    fn label(&self) -> String;
}

/// The paper's *perfect meta-predictor*: an unimplementable oracle that
/// always picks a correct component when one exists (§4.3).
///
/// The paper uses it as an upper bound: a real hybrid can never beat its
/// components arbitrated perfectly, so showing DFCM ≥ perfect
/// stride+FCM shows DFCM beats *any* stride+FCM hybrid of this type.
///
/// Only meaningful through [`ValuePredictor::access`], where the actual
/// value is available at selection time; a bare
/// [`predict`](ValuePredictor::predict) falls back to component A.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfectMeta;

impl MetaPredictor for PerfectMeta {
    fn choose(&mut self, _pc: u64, pred_a: u64, pred_b: u64, actual: Option<u64>) -> Component {
        match actual {
            Some(v) if pred_a != v && pred_b == v => Component::B,
            _ => Component::A,
        }
    }

    fn update(&mut self, _pc: u64, _a_correct: bool, _b_correct: bool) {}

    fn storage(&self) -> StorageCost {
        // An oracle has no implementable storage; report zero and let the
        // report label it as an upper bound.
        StorageCost::new()
    }

    fn label(&self) -> String {
        "perfect".to_owned()
    }
}

/// A realizable meta-predictor: a table of saturating counters indexed by
/// program counter, stepped towards whichever component was correct.
///
/// This is the "typically a set of saturating counters, indexed by the
/// program counter" selector the paper describes for hybrid predictors.
#[derive(Debug, Clone)]
pub struct CounterMeta {
    counters: Vec<SaturatingCounter>,
    mask: usize,
    bits: u32,
}

/// Width of each selector counter.
const COUNTER_BITS: u32 = 2;

impl CounterMeta {
    /// Creates a selector with `2^bits` two-bit counters (counter value
    /// high ⇒ use component B).
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds 30.
    pub fn new(bits: u32) -> Self {
        assert!(bits <= 30, "table exponent must be <= 30, got {bits}");
        CounterMeta {
            counters: vec![SaturatingCounter::new(COUNTER_BITS, 1, 1); 1 << bits],
            mask: (1usize << bits) - 1,
            bits,
        }
    }
}

impl MetaPredictor for CounterMeta {
    fn choose(&mut self, pc: u64, _pred_a: u64, _pred_b: u64, _actual: Option<u64>) -> Component {
        if self.counters[crate::predictor::pc_index(pc, self.mask)].is_high() {
            Component::B
        } else {
            Component::A
        }
    }

    fn update(&mut self, pc: u64, a_correct: bool, b_correct: bool) {
        let counter = &mut self.counters[crate::predictor::pc_index(pc, self.mask)];
        match (a_correct, b_correct) {
            (true, false) => counter.decrement(),
            (false, true) => counter.increment(),
            // Both right or both wrong: no preference signal.
            _ => {}
        }
    }

    fn storage(&self) -> StorageCost {
        StorageCost::new().with(
            "meta counters",
            self.counters.len() as u64 * u64::from(COUNTER_BITS),
        )
    }

    fn label(&self) -> String {
        format!("meta(2^{})", self.bits)
    }
}

/// A hybrid of two component predictors arbitrated by a [`MetaPredictor`]
/// (§4.3, Figure 15).
///
/// Both components are always trained with the actual value; the selector
/// is trained with which of them was correct.
///
/// ```
/// use dfcm::{FcmPredictor, HybridPredictor, PerfectMeta, StridePredictor, ValuePredictor};
///
/// # fn main() -> Result<(), dfcm::ConfigError> {
/// let fcm = FcmPredictor::builder().l1_bits(10).l2_bits(10).build()?;
/// let stride = StridePredictor::new(10);
/// let mut hybrid = HybridPredictor::new(stride, fcm, PerfectMeta);
/// // The oracle is right whenever either component is right.
/// let mut correct = 0;
/// for i in 0..100u64 {
///     if hybrid.access(0x40, 3 * i).correct {
///         correct += 1;
///     }
/// }
/// assert!(correct >= 98); // the stride component carries this pattern
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HybridPredictor<A, B, M> {
    a: A,
    b: B,
    meta: M,
}

impl<A: ValuePredictor, B: ValuePredictor, M: MetaPredictor> HybridPredictor<A, B, M> {
    /// Combines two predictors under a selector.
    pub fn new(a: A, b: B, meta: M) -> Self {
        HybridPredictor { a, b, meta }
    }

    /// The first component.
    pub fn component_a(&self) -> &A {
        &self.a
    }

    /// The second component.
    pub fn component_b(&self) -> &B {
        &self.b
    }
}

impl<A: ValuePredictor, B: ValuePredictor, M: MetaPredictor> ValuePredictor
    for HybridPredictor<A, B, M>
{
    fn predict(&mut self, pc: u64) -> u64 {
        let pa = self.a.predict(pc);
        let pb = self.b.predict(pc);
        match self.meta.choose(pc, pa, pb, None) {
            Component::A => pa,
            Component::B => pb,
        }
    }

    fn update(&mut self, pc: u64, actual: u64) {
        let a_correct = self.a.predict(pc) == actual;
        let b_correct = self.b.predict(pc) == actual;
        self.meta.update(pc, a_correct, b_correct);
        self.a.update(pc, actual);
        self.b.update(pc, actual);
    }

    fn access(&mut self, pc: u64, actual: u64) -> AccessOutcome {
        let pa = self.a.predict(pc);
        let pb = self.b.predict(pc);
        let predicted = match self.meta.choose(pc, pa, pb, Some(actual)) {
            Component::A => pa,
            Component::B => pb,
        };
        self.meta.update(pc, pa == actual, pb == actual);
        self.a.update(pc, actual);
        self.b.update(pc, actual);
        AccessOutcome {
            predicted,
            correct: predicted == actual,
        }
    }

    fn storage(&self) -> StorageCost {
        self.a
            .storage()
            .with_cost(self.b.storage())
            .with_cost(self.meta.storage())
    }

    fn name(&self) -> String {
        format!(
            "hybrid[{}+{},{}]",
            self.a.name(),
            self.b.name(),
            self.meta.label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcm::FcmPredictor;
    use crate::lvp::LastValuePredictor;
    use crate::stride::StridePredictor;

    #[test]
    fn perfect_meta_correct_iff_either_component_correct() {
        let mut hybrid = HybridPredictor::new(
            StridePredictor::new(8),
            FcmPredictor::builder()
                .l1_bits(8)
                .l2_bits(10)
                .build()
                .unwrap(),
            PerfectMeta,
        );
        let mut stride = StridePredictor::new(8);
        let mut fcm = FcmPredictor::builder()
            .l1_bits(8)
            .l2_bits(10)
            .build()
            .unwrap();
        // Mixed workload: stride pattern on one pc, context pattern on another.
        let pattern = [9u64, 2, 7, 7, 1];
        for i in 0..200u64 {
            let v1 = 3 * i;
            let v2 = pattern[(i % 5) as usize];
            for (pc, v) in [(0x10u64, v1), (0x20, v2)] {
                let sa = stride.access(pc, v).correct;
                let fa = fcm.access(pc, v).correct;
                let h = hybrid.access(pc, v).correct;
                assert_eq!(
                    h,
                    sa || fa,
                    "oracle must match union of components at i={i}"
                );
            }
        }
    }

    #[test]
    fn perfect_meta_without_actual_falls_back_to_a() {
        let mut meta = PerfectMeta;
        assert_eq!(meta.choose(0, 1, 2, None), Component::A);
        assert_eq!(meta.choose(0, 1, 2, Some(2)), Component::B);
        assert_eq!(meta.choose(0, 1, 2, Some(1)), Component::A);
        assert_eq!(meta.choose(0, 1, 2, Some(3)), Component::A);
    }

    #[test]
    fn counter_meta_learns_better_component() {
        let mut meta = CounterMeta::new(4);
        // Component B keeps being right, A wrong.
        for _ in 0..4 {
            meta.update(5, false, true);
        }
        assert_eq!(meta.choose(5, 0, 0, None), Component::B);
        // Reverse the trend.
        for _ in 0..8 {
            meta.update(5, true, false);
        }
        assert_eq!(meta.choose(5, 0, 0, None), Component::A);
    }

    #[test]
    fn counter_meta_hybrid_tracks_stride_pattern() {
        let fcm = FcmPredictor::builder()
            .l1_bits(6)
            .l2_bits(8)
            .build()
            .unwrap();
        let mut hybrid = HybridPredictor::new(fcm, StridePredictor::new(6), CounterMeta::new(6));
        // A long fresh stride: FCM flounders (keeps seeing new histories),
        // the stride component nails it, the meta must learn to pick B.
        let correct = (0..300u64)
            .filter(|&i| hybrid.access(0, 17 * i).correct)
            .count();
        assert!(correct > 280, "got {correct}");
    }

    #[test]
    fn components_always_trained() {
        let mut hybrid = HybridPredictor::new(
            LastValuePredictor::new(4),
            StridePredictor::new(4),
            PerfectMeta,
        );
        hybrid.access(1, 42);
        assert_eq!(hybrid.component_a().clone().predict(1), 42);
        // The cold stride component learned stride 42, so it predicts 84.
        assert_eq!(hybrid.component_b().clone().predict(1), 84);
    }

    #[test]
    fn storage_sums_components() {
        let a = LastValuePredictor::new(4);
        let b = StridePredictor::new(4);
        let expected = a.storage().total_bits() + b.storage().total_bits();
        let hybrid = HybridPredictor::new(a, b, PerfectMeta);
        assert_eq!(hybrid.storage().total_bits(), expected);
        let hybrid = HybridPredictor::new(
            LastValuePredictor::new(4),
            StridePredictor::new(4),
            CounterMeta::new(4),
        );
        assert_eq!(hybrid.storage().total_bits(), expected + 16 * 2);
    }

    #[test]
    fn name_mentions_components_and_meta() {
        let hybrid = HybridPredictor::new(
            LastValuePredictor::new(4),
            StridePredictor::new(4),
            PerfectMeta,
        );
        let name = hybrid.name();
        assert!(name.contains("lvp"), "{name}");
        assert!(name.contains("stride"), "{name}");
        assert!(name.contains("perfect"), "{name}");
    }

    #[test]
    fn predict_update_path_matches_access_for_counter_meta() {
        // For realizable selectors, access() must behave exactly like
        // predict-then-update.
        let mk = || {
            HybridPredictor::new(
                StridePredictor::new(6),
                FcmPredictor::builder()
                    .l1_bits(6)
                    .l2_bits(8)
                    .build()
                    .unwrap(),
                CounterMeta::new(6),
            )
        };
        let mut via_access = mk();
        let mut via_split = mk();
        let pattern = [5u64, 5, 9, 13, 2, 2, 2, 40];
        for i in 0..200u64 {
            let v = pattern[(i % 8) as usize].wrapping_mul(i / 8 + 1);
            let out1 = via_access.access(7, v);
            let predicted = via_split.predict(7);
            via_split.update(7, v);
            assert_eq!(out1.predicted, predicted, "i={i}");
        }
    }
}
