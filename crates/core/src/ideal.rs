use std::collections::HashMap;

use crate::alias::AnalyzedKind;
use crate::predictor::{AccessOutcome, ValuePredictor};
use crate::storage::StorageCost;
use crate::word_hash::WordHashBuilder;

/// An idealized context predictor: per-instruction, unbounded, exact
/// (collision-free) context tables.
///
/// This is the information-theoretic ceiling for an order-*k* FCM or DFCM:
/// no level-1 aliasing (contexts are keyed by the full PC), no hash
/// aliasing (contexts are compared exactly), and no capacity pressure
/// (the table grows without bound). The gap between a real (D)FCM and its
/// ideal counterpart is therefore exactly the paper's "room for
/// improvement" left by finite tables and lossy hashing (§4.2: "the
/// hashing function remains responsible for the majority of the
/// mispredictions (59%), there is still plenty of room for improvement").
///
/// Not implementable in hardware; [`storage`](ValuePredictor::storage)
/// reports zero and [`IdealContextPredictor::entries_used`] reports the
/// memory the oracle actually accumulated.
///
/// One subtlety: because contexts are keyed per instruction, this oracle
/// forgoes the *constructive* sharing a real shared level-2 table gets
/// when several instructions produce identical patterns (the benign
/// `l2_pc` aliasing of the paper's Figure 12, which trains an entry for
/// all of them at once). On workloads dominated by such duplicated
/// patterns a real FCM can therefore exceed this "ideal" — it bounds
/// per-instruction context predictability, not cross-instruction pattern
/// sharing.
///
/// ```
/// use dfcm::{AnalyzedKind, IdealContextPredictor, ValuePredictor};
///
/// let mut p = IdealContextPredictor::new(AnalyzedKind::Fcm, 2);
/// let pattern = [3u64, 1, 4, 1, 5];
/// for _ in 0..3 {
///     for &v in &pattern {
///         p.access(0x40, v);
///     }
/// }
/// let correct = pattern.iter().filter(|&&v| p.access(0x40, v).correct).count();
/// assert_eq!(correct, pattern.len());
/// ```
#[derive(Debug, Clone)]
pub struct IdealContextPredictor {
    kind: AnalyzedKind,
    order: usize,
    /// Per-PC recent history and last value.
    streams: HashMap<u64, Stream, WordHashBuilder>,
    /// Exact context table: `[pc, context…]` (context oldest first) → next
    /// element.
    table: HashMap<Box<[u64]>, u64, WordHashBuilder>,
}

/// One instruction's stream: its table key as it stands, `[pc, context…]`
/// with the last `order` (or, while warming up, fewer) values or
/// differences, and its last value.
#[derive(Debug, Clone)]
struct Stream {
    key: [u64; MAX_ORDER + 1],
    len: usize,
    last: u64,
}

/// The longest history an oracle keeps.
const MAX_ORDER: usize = 16;

impl Stream {
    fn new(pc: u64) -> Stream {
        let mut key = [0; MAX_ORDER + 1];
        key[0] = pc;
        Stream {
            key,
            len: 0,
            last: 0,
        }
    }

    /// The table key of the current context.
    fn key(&self) -> &[u64] {
        &self.key[..=self.len]
    }

    /// Appends `element` to the context, dropping the oldest one past
    /// `order`.
    fn push(&mut self, element: u64, order: usize) {
        if self.len == order {
            self.key.copy_within(2..=order, 1);
        } else {
            self.len += 1;
        }
        self.key[self.len] = element;
    }
}

impl IdealContextPredictor {
    /// Creates an oracle of the given kind and history order.
    ///
    /// # Panics
    ///
    /// Panics if `order` is 0 or greater than 16.
    pub fn new(kind: AnalyzedKind, order: usize) -> Self {
        assert!(
            (1..=MAX_ORDER).contains(&order),
            "order must be in 1..={MAX_ORDER}, got {order}"
        );
        IdealContextPredictor {
            kind,
            order,
            streams: HashMap::with_hasher(WordHashBuilder::new()),
            table: HashMap::with_hasher(WordHashBuilder::new()),
        }
    }

    /// The analyzed predictor kind (value or difference contexts).
    pub fn kind(&self) -> AnalyzedKind {
        self.kind
    }

    /// The history order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of distinct (pc, context) entries the oracle has
    /// accumulated — the size a collision-free table would need.
    pub fn entries_used(&self) -> usize {
        self.table.len()
    }

    fn prediction(&self, last: u64, element: u64) -> u64 {
        match self.kind {
            AnalyzedKind::Fcm => element,
            AnalyzedKind::Dfcm => last.wrapping_add(element),
        }
    }
}

impl ValuePredictor for IdealContextPredictor {
    fn predict(&mut self, pc: u64) -> u64 {
        // An instruction not seen yet has no entry: 0, as a cold table.
        self.streams.get(&pc).map_or(0, |stream| {
            let element = self.table.get(stream.key()).copied().unwrap_or(0);
            self.prediction(stream.last, element)
        })
    }

    fn update(&mut self, pc: u64, actual: u64) {
        self.access(pc, actual);
    }

    // One stream lookup and one table lookup per record; a context seen
    // for the first time costs a second probe to insert its key.
    fn access(&mut self, pc: u64, actual: u64) -> AccessOutcome {
        let stream = self.streams.entry(pc).or_insert_with(|| Stream::new(pc));
        let element = match self.kind {
            AnalyzedKind::Fcm => actual,
            AnalyzedKind::Dfcm => actual.wrapping_sub(stream.last),
        };
        let stored = match self.table.get_mut(stream.key()) {
            Some(slot) => std::mem::replace(slot, element),
            None => {
                self.table.insert(stream.key().into(), element);
                0
            }
        };
        let last = stream.last;
        stream.push(element, self.order);
        stream.last = actual;
        let predicted = self.prediction(last, stored);
        AccessOutcome {
            predicted,
            correct: predicted == actual,
        }
    }

    fn storage(&self) -> StorageCost {
        // An oracle has no hardware realization; see entries_used().
        StorageCost::new()
    }

    fn name(&self) -> String {
        let kind = match self.kind {
            AnalyzedKind::Fcm => "fcm",
            AnalyzedKind::Dfcm => "dfcm",
        };
        format!("ideal-{kind}(order={})", self.order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfcm::DfcmPredictor;
    use crate::fcm::FcmPredictor;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The straightforward form [`IdealContextPredictor`] must match: a
    /// SipHash table keyed by `(pc, context)` with the context collected
    /// into a fresh `Vec` on every predict and every update, and per PC a
    /// `VecDeque` history that drops its oldest element from the front.
    #[derive(Debug, Clone)]
    struct NaiveIdeal {
        kind: AnalyzedKind,
        order: usize,
        streams: HashMap<u64, NaiveStream>,
        table: HashMap<(u64, Vec<u64>), u64>,
    }

    #[derive(Debug, Clone, Default)]
    struct NaiveStream {
        history: VecDeque<u64>,
        last: u64,
    }

    impl NaiveIdeal {
        fn new(kind: AnalyzedKind, order: usize) -> Self {
            NaiveIdeal {
                kind,
                order,
                streams: HashMap::new(),
                table: HashMap::new(),
            }
        }

        fn entries_used(&self) -> usize {
            self.table.len()
        }

        fn context_of(&self, pc: u64) -> (Vec<u64>, u64) {
            match self.streams.get(&pc) {
                Some(s) => (s.history.iter().copied().collect(), s.last),
                None => (Vec::new(), 0),
            }
        }
    }

    impl ValuePredictor for NaiveIdeal {
        fn predict(&mut self, pc: u64) -> u64 {
            let (context, last) = self.context_of(pc);
            let element = self.table.get(&(pc, context)).copied().unwrap_or(0);
            match self.kind {
                AnalyzedKind::Fcm => element,
                AnalyzedKind::Dfcm => last.wrapping_add(element),
            }
        }

        fn update(&mut self, pc: u64, actual: u64) {
            let (context, last) = self.context_of(pc);
            let element = match self.kind {
                AnalyzedKind::Fcm => actual,
                AnalyzedKind::Dfcm => actual.wrapping_sub(last),
            };
            self.table.insert((pc, context), element);
            let state = self.streams.entry(pc).or_default();
            state.history.push_back(element);
            while state.history.len() > self.order {
                state.history.pop_front();
            }
            state.last = actual;
        }

        fn storage(&self) -> StorageCost {
            StorageCost::new()
        }

        fn name(&self) -> String {
            "naive-ideal".into()
        }
    }

    proptest! {
        /// The one-lookup oracle against the naive form, record by record:
        /// every `access` outcome, a bare `predict` (of a PC that may not
        /// have run yet) and `entries_used`. Few PCs over small alphabets
        /// make contexts repeat, with a rare 64-bit value among them, and
        /// every PC warms up through keys shorter than `order`.
        #[test]
        fn access_predict_and_entries_agree_with_naive_reference(
            fcm in any::<bool>(),
            order in 1usize..=16,
            pcs in 1u64..6,
            alphabet in 1u64..6,
            records in prop::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 0..600),
        ) {
            let kind = if fcm { AnalyzedKind::Fcm } else { AnalyzedKind::Dfcm };
            let mut oracle = IdealContextPredictor::new(kind, order);
            let mut naive = NaiveIdeal::new(kind, order);
            for (i, &(pc_draw, value_draw, peek)) in records.iter().enumerate() {
                let pc = 0x40 + 4 * (pc_draw % pcs);
                let value = if value_draw % 32 == 0 { value_draw } else { value_draw % alphabet };
                if peek {
                    prop_assert_eq!(oracle.predict(pc), naive.predict(pc), "predict, record {}", i);
                }
                prop_assert_eq!(oracle.access(pc, value), naive.access(pc, value), "record {}", i);
                prop_assert_eq!(oracle.entries_used(), naive.entries_used(), "record {}", i);
            }
        }
    }

    #[test]
    fn learns_any_periodic_pattern_with_sufficient_order() {
        let mut p = IdealContextPredictor::new(AnalyzedKind::Fcm, 3);
        let pattern = [5u64, 5, 2, 5, 5, 9]; // needs order >= 3 to split the 5,5 contexts
        for _ in 0..4 {
            for &v in &pattern {
                p.access(0x10, v);
            }
        }
        let correct = pattern
            .iter()
            .filter(|&&v| p.access(0x10, v).correct)
            .count();
        assert_eq!(correct, pattern.len());
    }

    #[test]
    fn insufficient_order_stays_ambiguous() {
        // With order 1, context `5` is followed by 5, 2 and 9 — ambiguous.
        let mut p = IdealContextPredictor::new(AnalyzedKind::Fcm, 1);
        let pattern = [5u64, 5, 2, 5, 5, 9];
        let mut correct = 0;
        for _ in 0..20 {
            for &v in &pattern {
                correct += usize::from(p.access(0x10, v).correct);
            }
        }
        assert!(
            correct < 100,
            "order-1 oracle cannot be perfect here: {correct}"
        );
    }

    #[test]
    fn dfcm_kind_predicts_fresh_strides() {
        let mut p = IdealContextPredictor::new(AnalyzedKind::Dfcm, 2);
        let misses = (0..50u64)
            .filter(|&i| !p.access(0x10, 7 * i).correct)
            .count();
        assert!(misses <= 3, "warmup only, got {misses}");
    }

    #[test]
    fn upper_bounds_real_predictors_on_context_patterns() {
        // On interference-heavy workloads with *per-instruction-distinct*
        // patterns, the oracle must beat the real predictor of the same
        // order. (When many instructions produce the same pattern, a real
        // shared table can beat the per-PC oracle via constructive l2_pc
        // aliasing — the benign sharing of the paper's Figure 12; see the
        // type-level docs.)
        let mut ideal = IdealContextPredictor::new(AnalyzedKind::Fcm, 3);
        let mut real = FcmPredictor::builder()
            .l1_bits(6)
            .l2_bits(12)
            .build()
            .unwrap();
        let mut ideal_ok = 0u64;
        let mut real_ok = 0u64;
        for i in 0..30_000u64 {
            let pc = (i % 40) * 4;
            // Distinct per-PC periodic sequences: period and phase depend
            // on the pc, so no cross-instruction sharing is possible.
            let v = ((i / 40) * (pc + 13)) % (211 + pc);
            ideal_ok += u64::from(ideal.access(pc, v).correct);
            real_ok += u64::from(real.access(pc, v).correct);
        }
        assert!(ideal_ok >= real_ok, "ideal {ideal_ok} vs real {real_ok}");
    }

    #[test]
    fn per_pc_isolation_prevents_cross_instruction_aliasing() {
        let mut p = IdealContextPredictor::new(AnalyzedKind::Fcm, 2);
        // Two instructions with identical histories but different
        // successors: a shared-table predictor would fight; the oracle
        // keeps them apart.
        for _ in 0..10 {
            for &(pc, tail) in &[(0x10u64, 111u64), (0x20, 222)] {
                p.access(pc, 1);
                p.access(pc, 2);
                p.access(pc, tail);
            }
        }
        let mut correct = 0;
        for &(pc, tail) in &[(0x10u64, 111u64), (0x20, 222)] {
            p.access(pc, 1);
            p.access(pc, 2);
            correct += usize::from(p.access(pc, tail).correct);
        }
        assert_eq!(correct, 2);
    }

    #[test]
    fn entries_used_grows_with_contexts() {
        let mut p = IdealContextPredictor::new(AnalyzedKind::Dfcm, 2);
        for i in 0..100u64 {
            p.access(0x10, 3 * i);
        }
        // A pure stride collapses to very few difference contexts.
        let stride_entries = p.entries_used();
        assert!(stride_entries <= 4, "{stride_entries}");
        let mut q = IdealContextPredictor::new(AnalyzedKind::Fcm, 2);
        for i in 0..100u64 {
            q.access(0x10, 3 * i);
        }
        assert!(
            q.entries_used() > 90,
            "value contexts of a stride never repeat"
        );
    }

    #[test]
    fn matches_dfcm_on_collision_free_workload() {
        // On a single short pattern with a huge real table (no collisions,
        // matching order), real and ideal DFCM agree after warmup.
        let mut ideal = IdealContextPredictor::new(AnalyzedKind::Dfcm, 4);
        let mut real = DfcmPredictor::builder()
            .l1_bits(8)
            .l2_bits(20)
            .build()
            .unwrap();
        let pattern = [10u64, 30, 20, 50, 90];
        for _ in 0..6 {
            for &v in &pattern {
                ideal.access(0x40, v);
                real.access(0x40, v);
            }
        }
        for &v in pattern.iter().cycle().take(15) {
            assert_eq!(ideal.access(0x40, v).correct, real.access(0x40, v).correct);
        }
    }

    #[test]
    #[should_panic(expected = "order must be")]
    fn zero_order_rejected() {
        let _ = IdealContextPredictor::new(AnalyzedKind::Fcm, 0);
    }
}
