use crate::fcm::FcmPredictor;
use crate::lvp::LastValuePredictor;
use crate::predictor::{AccessOutcome, ValuePredictor};
use crate::storage::StorageCost;
use crate::stride::StridePredictor;

/// The classifier table has `2^CLASS_BITS` entries.
const CLASS_BITS: u32 = 12;
/// Occurrences an instruction is observed before it is assigned.
const TRIAL_LENGTH: u8 = 16;
/// Correct trial predictions a sub-predictor needs to win the instruction.
const ASSIGN_THRESHOLD: u8 = 8;

/// The instruction class assigned by the dynamic classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstructionClass {
    /// Still in the trial phase: all sub-predictors run and train.
    Trial,
    /// Assigned to the last value predictor.
    LastValue,
    /// Assigned to the stride predictor.
    Stride,
    /// Assigned to the FCM.
    Fcm,
    /// Deemed unpredictable: no prediction is issued.
    Unpredictable,
}

/// A dynamic-classification predictor in the style of Rychlik et al.
/// (reference \[12\]; discussed in the paper's §5).
///
/// Instructions are observed for a trial period during which a last-value,
/// a stride and an FCM sub-predictor all run; each instruction is then
/// permanently assigned to the sub-predictor that performed best (or
/// marked unpredictable if none reached the assignment threshold). After
/// assignment, only the assigned sub-predictor is consulted and trained,
/// so each instruction consumes resources in exactly one table — the
/// efficiency scheme the paper contrasts with the DFCM's *dynamic* sharing
/// ("a fixed partitioning of the available resources is introduced…
/// while ours can dynamically adjust the partitioning").
///
/// Unpredictable instructions issue no prediction; following Rychlik's
/// accounting, their accesses count as incorrect in [`access`], whatever
/// the value (they are lost coverage).
///
/// The geometry is the one §5 compares against: a 2^12-entry classifier,
/// 2^11-entry last-value and stride tables, a 2^11/2^12 FCM, and a
/// 16-occurrence trial that assigns an instruction to the sub-predictor
/// with the most correct trial predictions if it has at least 8.
///
/// [`access`]: ValuePredictor::access
///
/// ```
/// use dfcm::{ClassifiedPredictor, InstructionClass, ValuePredictor};
///
/// let mut p = ClassifiedPredictor::new();
/// for i in 0..100u64 {
///     p.access(0x40, 3 * i); // a stride pattern
/// }
/// assert_eq!(p.class_of(0x40), InstructionClass::Stride);
/// ```
#[derive(Debug, Clone)]
pub struct ClassifiedPredictor {
    lvp: LastValuePredictor,
    stride: StridePredictor,
    fcm: FcmPredictor,
    states: Vec<ClassState>,
    mask: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct ClassState {
    class: Option<InstructionClass>,
    trials: u8,
    correct: [u8; 3],
}

impl ClassifiedPredictor {
    /// Creates the predictor, with every table cold.
    pub fn new() -> Self {
        ClassifiedPredictor {
            lvp: LastValuePredictor::new(11),
            stride: StridePredictor::new(11),
            fcm: FcmPredictor::builder()
                .l1_bits(11)
                .l2_bits(12)
                .build()
                .expect("a 2^11/2^12 FCM is valid"),
            states: vec![ClassState::default(); 1 << CLASS_BITS],
            mask: (1usize << CLASS_BITS) - 1,
        }
    }

    /// The current class of the instruction at `pc`.
    pub fn class_of(&self, pc: u64) -> InstructionClass {
        self.states[self.index(pc)]
            .class
            .unwrap_or(InstructionClass::Trial)
    }

    /// Census of assigned classes over the classifier table (only entries
    /// that finished their trial are counted).
    pub fn census(&self) -> ClassCensus {
        let mut census = ClassCensus::default();
        for s in &self.states {
            match s.class {
                Some(InstructionClass::LastValue) => census.last_value += 1,
                Some(InstructionClass::Stride) => census.stride += 1,
                Some(InstructionClass::Fcm) => census.fcm += 1,
                Some(InstructionClass::Unpredictable) => census.unpredictable += 1,
                _ => census.in_trial += 1,
            }
        }
        census
    }

    fn index(&self, pc: u64) -> usize {
        crate::predictor::pc_index(pc, self.mask)
    }
}

impl Default for ClassifiedPredictor {
    fn default() -> Self {
        Self::new()
    }
}

/// Counts of classifier-table entries per assigned class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCensus {
    /// Entries assigned to the last value predictor.
    pub last_value: usize,
    /// Entries assigned to the stride predictor.
    pub stride: usize,
    /// Entries assigned to the FCM.
    pub fcm: usize,
    /// Entries marked unpredictable.
    pub unpredictable: usize,
    /// Entries still in (or before) their trial phase.
    pub in_trial: usize,
}

impl ValuePredictor for ClassifiedPredictor {
    fn predict(&mut self, pc: u64) -> u64 {
        match self.class_of(pc) {
            InstructionClass::LastValue => self.lvp.predict(pc),
            InstructionClass::Stride => self.stride.predict(pc),
            InstructionClass::Fcm | InstructionClass::Trial => self.fcm.predict(pc),
            InstructionClass::Unpredictable => 0,
        }
    }

    fn update(&mut self, pc: u64, actual: u64) {
        let idx = self.index(pc);
        match self.states[idx].class {
            None => {
                // Trial phase: run and train everything, score each.
                let l = self.lvp.access(pc, actual).correct;
                let s = self.stride.access(pc, actual).correct;
                let f = self.fcm.access(pc, actual).correct;
                let state = &mut self.states[idx];
                state.correct[0] += u8::from(l);
                state.correct[1] += u8::from(s);
                state.correct[2] += u8::from(f);
                state.trials += 1;
                if state.trials >= TRIAL_LENGTH {
                    let best = (0..3)
                        .max_by_key(|&i| state.correct[i])
                        .expect("three classes");
                    state.class = Some(if state.correct[best] < ASSIGN_THRESHOLD {
                        InstructionClass::Unpredictable
                    } else {
                        match best {
                            0 => InstructionClass::LastValue,
                            1 => InstructionClass::Stride,
                            _ => InstructionClass::Fcm,
                        }
                    });
                }
            }
            Some(InstructionClass::LastValue) => self.lvp.update(pc, actual),
            Some(InstructionClass::Stride) => self.stride.update(pc, actual),
            Some(InstructionClass::Fcm) => self.fcm.update(pc, actual),
            Some(InstructionClass::Unpredictable | InstructionClass::Trial) => {}
        }
    }

    fn access(&mut self, pc: u64, actual: u64) -> AccessOutcome {
        let class = self.class_of(pc);
        let predicted = self.predict(pc);
        self.update(pc, actual);
        let correct = match class {
            // No prediction is issued for unpredictable instructions;
            // per Rychlik's accounting these count against accuracy.
            InstructionClass::Unpredictable => false,
            _ => predicted == actual,
        };
        AccessOutcome { predicted, correct }
    }

    fn storage(&self) -> StorageCost {
        self.lvp
            .storage()
            .with_cost(self.stride.storage())
            .with_cost(self.fcm.storage())
            // 3 bits class + trial bookkeeping approximated at 2x5 bits.
            .with("classifier", (1u64 << CLASS_BITS) * 3)
    }

    fn name(&self) -> String {
        format!("classified(2^{CLASS_BITS},{})", self.fcm.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classified() -> ClassifiedPredictor {
        ClassifiedPredictor::new()
    }

    #[test]
    fn stride_instruction_assigned_to_stride() {
        let mut p = classified();
        for i in 0..40u64 {
            p.access(0x40, 11 * i);
        }
        assert_eq!(p.class_of(0x40), InstructionClass::Stride);
    }

    #[test]
    fn constant_instruction_assigned_to_last_value() {
        let mut p = classified();
        for _ in 0..40 {
            p.access(0x80, 77);
        }
        // LVP and stride both predict constants; LVP wins ties by order.
        assert_eq!(p.class_of(0x80), InstructionClass::LastValue);
    }

    #[test]
    fn context_instruction_assigned_to_fcm() {
        let mut p = classified();
        let pattern = [9u64, 4, 1, 7, 2];
        for _ in 0..20 {
            for &v in &pattern {
                p.access(0xC0, v);
            }
        }
        assert_eq!(p.class_of(0xC0), InstructionClass::Fcm);
    }

    #[test]
    fn random_instruction_marked_unpredictable() {
        let mut p = classified();
        let mut x = 1u64;
        for _ in 0..40 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            p.access(0x100, x);
        }
        assert_eq!(p.class_of(0x100), InstructionClass::Unpredictable);
    }

    #[test]
    fn unpredictable_counts_as_incorrect_even_on_zero() {
        let mut p = classified();
        let mut x = 1u64;
        for _ in 0..40 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
            p.access(0x100, x);
        }
        assert_eq!(p.class_of(0x100), InstructionClass::Unpredictable);
        // Even a value of 0 (matching the dummy prediction) is not a hit.
        assert!(!p.access(0x100, 0).correct);
    }

    #[test]
    fn census_reflects_assignments() {
        let mut p = classified();
        for i in 0..40u64 {
            p.access(0x40, 11 * i); // stride
            p.access(0x80, 5); // constant
        }
        let census = p.census();
        assert_eq!(census.stride, 1);
        assert_eq!(census.last_value, 1);
        assert_eq!(census.fcm, 0);
        assert_eq!(census.unpredictable, 0);
    }

    #[test]
    fn assigned_instructions_only_touch_their_table() {
        // After assignment to stride, the FCM must not be trained by this
        // instruction any more: its prediction for the pc stays frozen.
        let mut p = classified();
        for i in 0..40u64 {
            p.access(0x40, 11 * i);
        }
        assert_eq!(p.class_of(0x40), InstructionClass::Stride);
        let frozen = p.fcm.predict(0x40);
        for i in 40..80u64 {
            p.access(0x40, 11 * i);
        }
        assert_eq!(
            p.fcm.predict(0x40),
            frozen,
            "FCM must be left alone after assignment"
        );
    }

    #[test]
    fn storage_sums_subpredictors_and_classifier() {
        let p = classified();
        let expected = p.lvp.storage().total_bits()
            + p.stride.storage().total_bits()
            + p.fcm.storage().total_bits()
            + (1 << 12) * 3;
        assert_eq!(p.storage().total_bits(), expected);
    }

    #[test]
    fn name_mentions_classification() {
        assert!(classified().name().starts_with("classified(2^12"));
    }
}
