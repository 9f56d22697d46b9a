//! Optional table-usage instrumentation for predictors.
//!
//! The paper's argument is about *table usage efficiency*: DFCM wins
//! because stride patterns collapse onto few level-2 entries, leaving
//! room for context patterns. [`TableStats`] makes that observable on
//! the real predictor objects — per-table occupancy and write/overwrite
//! counts, plus (for the two-level predictors) the paper's §4.2
//! classification of each of their own predictions ([`AliasBreakdown`]).
//!
//! Instrumentation is strictly opt-in through
//! [`ValuePredictor::enable_table_stats`](crate::ValuePredictor::enable_table_stats):
//! a predictor that never enables it carries one `Option` per table and
//! pays a single branch per update.

use crate::alias::AliasBreakdown;

/// Usage counters for one hardware table of a predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableUsage {
    /// Table name within the predictor (e.g. `l1`, `l2`, `table`).
    pub name: &'static str,
    /// Total number of entries.
    pub entries: u64,
    /// Entries written at least once since instrumentation was enabled.
    pub occupied: u64,
    /// Total writes.
    pub writes: u64,
    /// Writes that landed on an already-occupied entry.
    pub overwrites: u64,
}

impl TableUsage {
    /// Occupied entries as a percentage of the table size.
    pub fn occupancy_percent(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            100.0 * self.occupied as f64 / self.entries as f64
        }
    }
}

/// A point-in-time view of a predictor's table usage.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// One entry per hardware table, in the predictor's own order.
    pub tables: Vec<TableUsage>,
    /// The §4.2 aliasing classification, for predictors that support it
    /// (FCM and DFCM).
    pub alias: Option<AliasBreakdown>,
}

/// Per-table write tracking used by instrumented predictors.
///
/// Occupancy is defined as "written at least once": predictor tables
/// start zero-filled and a zero entry is indistinguishable from an
/// untouched one, so the tracker keeps its own seen-bit per entry.
#[derive(Debug, Clone)]
pub(crate) struct TableTracker {
    name: &'static str,
    written: Vec<bool>,
    occupied: u64,
    writes: u64,
    overwrites: u64,
}

impl TableTracker {
    pub(crate) fn new(name: &'static str, entries: usize) -> Self {
        TableTracker {
            name,
            written: vec![false; entries],
            occupied: 0,
            writes: 0,
            overwrites: 0,
        }
    }

    /// Records one write to `index`.
    pub(crate) fn record(&mut self, index: usize) {
        self.writes += 1;
        if self.written[index] {
            self.overwrites += 1;
        } else {
            self.written[index] = true;
            self.occupied += 1;
        }
    }

    pub(crate) fn usage(&self) -> TableUsage {
        TableUsage {
            name: self.name,
            entries: self.written.len() as u64,
            occupied: self.occupied,
            writes: self.writes,
            overwrites: self.overwrites,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_counts_occupancy_and_overwrites() {
        let mut t = TableTracker::new("l2", 4);
        t.record(0);
        t.record(0);
        t.record(3);
        let u = t.usage();
        assert_eq!(u.name, "l2");
        assert_eq!(u.entries, 4);
        assert_eq!(u.occupied, 2);
        assert_eq!(u.writes, 3);
        assert_eq!(u.overwrites, 1);
        assert!((u.occupancy_percent() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn empty_table_has_zero_occupancy() {
        let u = TableUsage {
            name: "t",
            entries: 0,
            occupied: 0,
            writes: 0,
            overwrites: 0,
        };
        assert_eq!(u.occupancy_percent(), 0.0);
    }
}
