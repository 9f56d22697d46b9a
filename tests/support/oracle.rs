//! A deliberately naive model of the paper's five predictors, written
//! from their definitions (§2–§3) as the reference the production tables
//! and the engine are checked against, and of §4.2's aliasing taxonomy
//! ([`Taxonomy`]), the reference for the classes the instrumented FCM and
//! DFCM give their own predictions.
//!
//! It shares no code with the production predictors. Every level-1 entry
//! keeps its history as an explicit queue of the last `order` values
//! (FCM) or differences (DFCM), and every access recomputes the FS R-k
//! level-2 index from that whole queue: no incremental hash, no fused
//! access, no packed tables and no statistics.
//!
//! A test crate includes this file with `#[path]` and names the
//! production crate `predictors` at its root, for [`Model::production`].

use std::collections::{HashMap, VecDeque};

use crate::predictors::{
    AliasClass, AnalyzedKind, DfcmPredictor, FcmPredictor, HashFunction, LastValuePredictor,
    StridePredictor, StrideWidth, TwoDeltaStridePredictor, ValuePredictor,
};

/// A predictor and its geometry; table sizes are log2 entry counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Last value: an entry predicts the value its instruction produced
    /// last.
    Lvp { bits: u32 },
    /// Stride: predicts `last + stride`. A 3-bit confidence counter (+1
    /// on a hit, −2 on a miss) guards the stride, which is replaced by
    /// the newest difference only while the counter is below 7.
    Stride { bits: u32 },
    /// Two-delta stride: predicts `last + s1`; a new difference becomes
    /// `s1` only when it repeats the previous difference `s2`.
    TwoDelta { bits: u32 },
    /// FCM (§2.2): the level-1 entry holds the instruction's value
    /// history, whose FS R-5 hash selects the level-2 entry holding the
    /// value that followed that history last time.
    Fcm { l1: u32, l2: u32 },
    /// DFCM (§3): the level-1 entry holds the last value and the history
    /// of differences between consecutive values; the hash of that
    /// history selects a level-2 difference, which is added to the last
    /// value. With `width: Some(n)` level 2 stores each difference's low
    /// `n` bits and sign-extends them on a read (§4.4).
    Dfcm {
        l1: u32,
        l2: u32,
        width: Option<u32>,
    },
}

impl Model {
    /// The production predictor this model describes.
    pub fn production(self) -> Box<dyn ValuePredictor> {
        match self {
            Model::Lvp { bits } => Box::new(LastValuePredictor::new(bits)),
            Model::Stride { bits } => Box::new(StridePredictor::new(bits)),
            Model::TwoDelta { bits } => Box::new(TwoDeltaStridePredictor::new(bits)),
            Model::Fcm { l1, l2 } => Box::new(
                FcmPredictor::builder()
                    .l1_bits(l1)
                    .l2_bits(l2)
                    .build()
                    .expect("valid model"),
            ),
            Model::Dfcm { l1, l2, width } => Box::new(
                DfcmPredictor::builder()
                    .l1_bits(l1)
                    .l2_bits(l2)
                    .stride_width(width.map_or(StrideWidth::Full, StrideWidth::Bits))
                    .build()
                    .expect("valid model"),
            ),
        }
    }
}

/// One level-1 entry; each model uses the fields its definition names.
#[derive(Debug, Clone, Default)]
struct Entry {
    last: u64,
    /// The stride predictor's stride, or the two-delta `s1`.
    stride: u64,
    /// The two-delta `s2`.
    s2: u64,
    confidence: u32,
    /// Newest first: values (FCM) or differences (DFCM).
    history: VecDeque<u64>,
}

/// A cold predictor of one [`Model`].
#[derive(Debug, Clone)]
pub struct Oracle {
    model: Model,
    level1: Vec<Entry>,
    level2: Vec<u64>,
}

impl Oracle {
    /// Empty tables: every value, difference and history starts at zero.
    pub fn new(model: Model) -> Oracle {
        let (l1, l2) = match model {
            Model::Lvp { bits } | Model::Stride { bits } | Model::TwoDelta { bits } => (bits, None),
            Model::Fcm { l1, l2 } | Model::Dfcm { l1, l2, .. } => (l1, Some(l2)),
        };
        Oracle {
            model,
            level1: vec![Entry::default(); 1 << l1],
            level2: l2.map_or(Vec::new(), |bits| vec![0; 1 << bits]),
        }
    }

    /// Predicts the value of the instruction at `pc`, then learns that it
    /// was `actual`. Returns the prediction.
    pub fn access(&mut self, pc: u64, actual: u64) -> u64 {
        // Instructions are 4-byte aligned, so the PC's two low bits carry
        // no information and the level-1 index starts above them.
        let slots = self.level1.len() as u64;
        let entry = &mut self.level1[((pc / 4) % slots) as usize];
        match self.model {
            Model::Lvp { .. } => std::mem::replace(&mut entry.last, actual),
            Model::Stride { .. } => {
                let predicted = entry.last.wrapping_add(entry.stride);
                if entry.confidence < 7 {
                    entry.stride = actual.wrapping_sub(entry.last);
                }
                entry.confidence = if predicted == actual {
                    (entry.confidence + 1).min(7)
                } else {
                    entry.confidence.saturating_sub(2)
                };
                entry.last = actual;
                predicted
            }
            Model::TwoDelta { .. } => {
                let predicted = entry.last.wrapping_add(entry.stride);
                let difference = actual.wrapping_sub(entry.last);
                if difference == entry.s2 {
                    entry.stride = difference;
                }
                entry.s2 = difference;
                entry.last = actual;
                predicted
            }
            Model::Fcm { l2, .. } => {
                let slot = fs_rk(entry.history.iter().copied(), l2, 5);
                let predicted = self.level2[slot];
                self.level2[slot] = actual;
                remember(&mut entry.history, actual, l2);
                predicted
            }
            Model::Dfcm { l2, width, .. } => {
                let slot = fs_rk(entry.history.iter().copied(), l2, 5);
                let predicted = entry.last.wrapping_add(widen(self.level2[slot], width));
                let difference = actual.wrapping_sub(entry.last);
                self.level2[slot] = narrow(difference, width);
                remember(&mut entry.history, difference, l2);
                entry.last = actual;
                predicted
            }
        }
    }
}

/// Sazeides' FS R-k hash of a history, newest value first, into a
/// `bits`-bit level-2 index: every value is XOR-folded to `bits` bits and
/// shifted left by `k` positions per step of age (the newest by none),
/// and the shifted values are XORed together. The paper's FS R-5 is
/// `k = 5`.
fn fs_rk(newest_first: impl IntoIterator<Item = u64>, bits: u32, k: u32) -> usize {
    let mut index = 0;
    for (age, value) in (0..).zip(newest_first) {
        index ^= fold(value, bits) << (k * age);
    }
    (index % (1 << bits)) as usize
}

/// XOR of the consecutive `bits`-bit pieces of `value`.
fn fold(value: u64, bits: u32) -> u64 {
    (0..64)
        .step_by(bits as usize)
        .map(|shift| (value >> shift) % (1 << bits))
        .fold(0, |folded, piece| folded ^ piece)
}

/// Pushes the newest value of a history, keeping the ones FS R-5 still
/// sees in a `bits`-bit index: a value older than ⌈bits/5⌉ steps has
/// shifted out of it entirely.
fn remember(history: &mut VecDeque<u64>, value: u64, bits: u32) {
    history.push_front(value);
    history.truncate(bits.div_ceil(5) as usize);
}

/// A difference as level 2 stores it: its low `n` bits under
/// `Some(n)`.
fn narrow(difference: u64, width: Option<u32>) -> u64 {
    match width {
        Some(n) if n < 64 => difference % (1 << n),
        _ => difference,
    }
}

/// A stored difference read back: an `n`-bit two's complement number
/// under `Some(n)`, so a set top bit makes it negative.
fn widen(stored: u64, width: Option<u32>) -> u64 {
    match width {
        Some(n) if n < 64 && stored >= 1 << (n - 1) => stored.wrapping_sub(1 << n),
        _ => stored,
    }
}

/// §4.2's aliasing taxonomy of an FCM or DFCM whose level-2 index is the
/// FS R-k hash of the last ⌈`l2`/k⌉ history elements, kept as the section
/// describes it. Each level-1 entry keeps the (pc, element) pairs of its
/// history, each level-2 entry the complete history and the PC of its
/// last write, and each level-1 entry a private level-2 table of its own.
/// A prediction falls in the first class whose rule holds:
///
/// 1. `l1`: an element of the history came from another instruction;
/// 2. `hash`: the level-2 entry was written under a different complete
///    history;
/// 3. `l2_priv`: the level-1 entry's private table holds a different
///    element for this index than the shared table;
/// 4. `l2_pc`: another instruction wrote the level-2 entry last;
/// 5. `none` otherwise.
///
/// Rules 2–4 need something recorded: a level-2 entry never written, or
/// a private table that has not seen the index, fails none of them.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    kind: AnalyzedKind,
    l1: u32,
    l2: u32,
    k: u32,
    order: usize,
    level1: Vec<Source>,
    level2: Vec<Shared>,
    private: Vec<HashMap<usize, u64>>,
}

/// A level-1 entry: the last value and, newest first, the last `order`
/// history elements with the instruction that produced each.
#[derive(Debug, Clone, Default)]
struct Source {
    last: u64,
    history: VecDeque<(u64, u64)>,
}

/// A level-2 entry: its element, and the complete history (newest first)
/// and PC of its last write.
#[derive(Debug, Clone, Default)]
struct Shared {
    element: u64,
    writer: Option<(Vec<u64>, u64)>,
}

impl Taxonomy {
    /// Cold tables of `2^l1` and `2^l2` entries, hashed by FS R-`k`.
    pub fn new(kind: AnalyzedKind, l1: u32, l2: u32, k: u32) -> Taxonomy {
        Taxonomy {
            kind,
            l1,
            l2,
            k,
            order: l2.div_ceil(k) as usize,
            level1: vec![Source::default(); 1 << l1],
            level2: vec![Shared::default(); 1 << l2],
            private: vec![HashMap::new(); 1 << l1],
        }
    }

    /// The production predictor of this geometry, with table stats on,
    /// so that it classifies its own predictions.
    pub fn production(&self) -> Box<dyn ValuePredictor> {
        let hash = match self.k {
            5 => HashFunction::FsR5,
            k => HashFunction::FsShift { shift: k as u8 },
        };
        let mut production: Box<dyn ValuePredictor> = match self.kind {
            AnalyzedKind::Fcm => Box::new(
                FcmPredictor::builder()
                    .l1_bits(self.l1)
                    .l2_bits(self.l2)
                    .hash(hash)
                    .build()
                    .expect("valid geometry"),
            ),
            AnalyzedKind::Dfcm => Box::new(
                DfcmPredictor::builder()
                    .l1_bits(self.l1)
                    .l2_bits(self.l2)
                    .hash(hash)
                    .build()
                    .expect("valid geometry"),
            ),
        };
        production.enable_table_stats();
        production
    }

    /// Predicts the value of the instruction at `pc`, classifies the
    /// prediction, then learns that it was `actual`. Returns the class
    /// and whether the prediction was right.
    pub fn access(&mut self, pc: u64, actual: u64) -> (AliasClass, bool) {
        let entry = (pc / 4) % self.level1.len() as u64;
        let source = &mut self.level1[entry as usize];
        let private = &mut self.private[entry as usize];
        let history: Vec<u64> = source.history.iter().map(|&(_, element)| element).collect();
        let index = fs_rk(history.iter().copied(), self.l2, self.k);
        let shared = &mut self.level2[index];
        let differences = self.kind == AnalyzedKind::Dfcm;
        let predicted = if differences {
            source.last.wrapping_add(shared.element)
        } else {
            shared.element
        };

        let class = if source.history.iter().any(|&(producer, _)| producer != pc) {
            AliasClass::L1
        } else if shared
            .writer
            .as_ref()
            .is_some_and(|(written_under, _)| *written_under != history)
        {
            AliasClass::Hash
        } else if private
            .get(&index)
            .is_some_and(|&own| own != shared.element)
        {
            AliasClass::L2Priv
        } else if shared
            .writer
            .as_ref()
            .is_some_and(|&(_, writer)| writer != pc)
        {
            AliasClass::L2Pc
        } else {
            AliasClass::NoAlias
        };

        let element = if differences {
            actual.wrapping_sub(source.last)
        } else {
            actual
        };
        *shared = Shared {
            element,
            writer: Some((history, pc)),
        };
        private.insert(index, element);
        source.history.push_front((pc, element));
        source.history.truncate(self.order);
        source.last = actual;
        (class, predicted == actual)
    }
}
