//! Value predictors from *Differential FCM: Increasing Value Prediction
//! Accuracy by Improving Table Usage Efficiency* (Goeman, Vandierendonck and
//! De Bosschere, HPCA 2001).
//!
//! A *value predictor* is a microarchitectural structure that guesses the
//! result of an instruction before it executes, so that dependent
//! instructions can start speculatively. This crate implements every
//! predictor the paper discusses, plus the instrumentation used in its
//! evaluation:
//!
//! * [`LastValuePredictor`] — predicts the previous value (Lipasti, §2.1).
//! * [`StridePredictor`] — last value + confidence-guarded stride (§2.2).
//! * [`TwoDeltaStridePredictor`] — the two-delta stride variant
//!   (Eickemeyer & Vassiliadis, §2.2).
//! * [`FcmPredictor`] — the two-level finite context method (Sazeides &
//!   Smith, §2.3) with the FS R-5 hashing function.
//! * [`DfcmPredictor`] — the paper's contribution: an FCM over *differences*
//!   between successive values (§3).
//! * [`HybridPredictor`] — two component predictors arbitrated by a
//!   [`MetaPredictor`], including the paper's perfect oracle (§4.3).
//! * [`DelayedUpdate`] — models a prediction-to-update delay of *d*
//!   intervening predictions (§4.5).
//! * [`AliasClass`] — the paper's five aliasing categories (§4.2, Figures
//!   12–14), into which an FCM or DFCM with table stats on classifies
//!   each of its own predictions ([`AliasBreakdown`] counts them).
//! * [`StrideOccupancyProfiler`] — counts, per level-2 entry, accesses that
//!   are part of a stride pattern (Figures 6 and 9).
//! * [`TaggedDfcmPredictor`] — the confidence estimator the paper suggests
//!   at the end of §4.2 (level-2 tags from an orthogonal second hash),
//!   implemented as an extension.
//!
//! Related-work predictors from the paper's §5, for comparison studies:
//! [`LastNValuePredictor`] (Burtscher & Zorn \[2\]) and
//! [`ClassifiedPredictor`] (dynamic classification, Rychlik et al. \[12\]).
//!
//! # Quick example
//!
//! ```
//! use dfcm::{DfcmPredictor, FcmPredictor, ValuePredictor};
//!
//! # fn main() -> Result<(), dfcm::ConfigError> {
//! // A stride pattern 100, 103, 106, ... produced by one static instruction.
//! let mut dfcm = DfcmPredictor::builder().l1_bits(10).l2_bits(10).build()?;
//! let mut fcm = FcmPredictor::builder().l1_bits(10).l2_bits(10).build()?;
//! let mut dfcm_hits = 0;
//! let mut fcm_hits = 0;
//! for i in 0..1000u64 {
//!     let value = 100 + 3 * i;
//!     if dfcm.access(0x400100, value).correct {
//!         dfcm_hits += 1;
//!     }
//!     if fcm.access(0x400100, value).correct {
//!         fcm_hits += 1;
//!     }
//! }
//! // The DFCM learns a stride after a few values and never misses again;
//! // the FCM must see every history before it can predict a successor.
//! assert!(dfcm_hits > 990);
//! assert!(fcm_hits < dfcm_hits);
//! # Ok(())
//! # }
//! ```
//!
//! # Implementing your own predictor
//!
//! Everything in the harness (suite runs, sweeps, aliasing-free
//! evaluation, the repro binaries' machinery) works over the
//! [`ValuePredictor`] trait, so a new design drops straight in:
//!
//! ```
//! use dfcm::{AccessOutcome, StorageCost, ValuePredictor};
//!
//! /// Predicts that each instruction repeats its previous *difference
//! /// from zero* sign — a deliberately silly design to show the shape.
//! struct SignPredictor {
//!     table: Vec<u64>,
//! }
//!
//! impl ValuePredictor for SignPredictor {
//!     fn predict(&mut self, pc: u64) -> u64 {
//!         self.table[(pc >> 2) as usize & (self.table.len() - 1)]
//!     }
//!     fn update(&mut self, pc: u64, actual: u64) {
//!         let idx = (pc >> 2) as usize & (self.table.len() - 1);
//!         self.table[idx] = actual;
//!     }
//!     fn storage(&self) -> StorageCost {
//!         StorageCost::new().with("table", self.table.len() as u64 * 32)
//!     }
//!     fn name(&self) -> String {
//!         "sign".into()
//!     }
//! }
//!
//! let mut p = SignPredictor { table: vec![0; 64] };
//! let out: AccessOutcome = p.access(0x400000, 7);
//! assert!(!out.correct); // cold table
//! assert!(p.access(0x400000, 7).correct);
//! ```
//!
//! # Conventions
//!
//! * Values and program counters are `u64`; all difference arithmetic wraps,
//!   as it does in hardware.
//! * Table sizes are given as power-of-two exponents (`l1_bits`, `l2_bits`),
//!   matching the paper's 2^n-entry tables.
//! * Storage accounting ([`StorageCost`]) follows the paper's Kbit model: a
//!   32-bit architectural value width by default (the paper simulates 32-bit
//!   MIPS), hashed histories of `l2_bits` bits, and stride-predictor
//!   confidence counters excluded (the paper treats them as already present
//!   for confidence estimation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alias;
mod classified;
mod counter;
mod delayed;
mod dfcm;
mod error;
mod fcm;
mod hash;
mod hybrid;
mod ideal;
mod lastn;
mod lvp;
mod predictor;
mod profile;
mod speculative;
mod storage;
mod stride;
mod table_stats;
mod tagged;
mod word_hash;

pub use crate::alias::{AliasBreakdown, AliasClass, AnalyzedKind};
pub use crate::classified::{
    ClassCensus, ClassifiedBuilder, ClassifiedPredictor, InstructionClass,
};
pub use crate::counter::SaturatingCounter;
pub use crate::delayed::DelayedUpdate;
pub use crate::dfcm::{DfcmBlock, DfcmBuilder, DfcmPredictor, StrideWidth, BLOCK_LANES};
pub use crate::error::ConfigError;
pub use crate::fcm::{FcmBuilder, FcmPredictor};
pub use crate::hash::HashFunction;
pub use crate::hybrid::{Component, CounterMeta, HybridPredictor, MetaPredictor, PerfectMeta};
pub use crate::ideal::IdealContextPredictor;
pub use crate::lastn::LastNValuePredictor;
pub use crate::lvp::LastValuePredictor;
pub use crate::predictor::{AccessOutcome, L2Indexed, ValuePredictor};
pub use crate::profile::{OccupancyStats, StrideOccupancyProfiler};
pub use crate::speculative::{SpeculativeDfcm, SpeculativeDfcmBuilder};
pub use crate::storage::StorageCost;
pub use crate::stride::{StridePredictor, TwoDeltaStridePredictor};
pub use crate::table_stats::{TableStats, TableUsage};
pub use crate::tagged::{
    ConfidencePredictor, ConfidentPrediction, TaggedDfcmBuilder, TaggedDfcmPredictor,
};

/// Architectural value width, in bits, assumed by the default storage cost
/// model (the paper simulates the 32-bit MIPS-like SimpleScalar ISA).
pub const DEFAULT_VALUE_BITS: u32 = 32;
