//! Engine ⇔ oracle equivalence: `sweep_engine_ft` must return, for every
//! predictor kind, at any thread count, and on the edge suites (empty,
//! singleton, an empty benchmark), exactly the per-benchmark counts of a
//! serial run of the naive model of the paper's predictors
//! (`tests/support/oracle.rs` at the workspace root), which shares no
//! code with the production tables or the engine.
//!
//! CI runs this file explicitly (`cargo test -p dfcm-sim --test
//! engine_equiv`); it is the contract that lets every figure use the
//! engine while EXPERIMENTS.md stays comparable across machines.

#[path = "../../../tests/support/oracle.rs"]
mod oracle;

use dfcm as predictors;
use dfcm_sim::{sweep_engine_ft, BenchmarkResult, EngineConfig, RunStats};
use dfcm_trace::{BenchmarkTrace, Trace, TraceRecord};
use oracle::{Model, Oracle};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 4, 64];

static NAMES: [&str; 4] = ["b0", "b1", "b2", "b3"];

/// One model per predictor kind, all sized small so tables alias and any
/// ordering bug would change the results.
const KINDS: [Model; 5] = [
    Model::Lvp { bits: 5 },
    Model::Stride { bits: 5 },
    Model::TwoDelta { bits: 5 },
    Model::Fcm { l1: 5, l2: 7 },
    Model::Dfcm {
        l1: 5,
        l2: 7,
        width: None,
    },
];

fn suite_from(benches: &[Vec<(u64, u64)>]) -> Vec<BenchmarkTrace> {
    benches
        .iter()
        .enumerate()
        .map(|(i, records)| BenchmarkTrace {
            name: NAMES[i % NAMES.len()],
            trace: records
                .iter()
                .map(|&(pc, value)| TraceRecord::new(pc, value))
                .collect::<Trace>(),
        })
        .collect()
}

/// The serial reference: a cold model per (configuration, benchmark).
fn oracle_results(model: Model, traces: &[BenchmarkTrace]) -> Vec<BenchmarkResult> {
    traces
        .iter()
        .map(|bench| {
            let mut naive = Oracle::new(model);
            let mut stats = RunStats::default();
            for r in &bench.trace {
                stats.predictions += 1;
                stats.correct += u64::from(naive.access(r.pc, r.value) == r.value);
            }
            BenchmarkResult {
                name: bench.name,
                stats,
            }
        })
        .collect()
}

/// Sweeps `models` over `traces` at every tested thread count and checks
/// each point against the oracle.
fn assert_equivalent(models: &[Model], traces: &[BenchmarkTrace]) {
    let expect: Vec<_> = models.iter().map(|&m| oracle_results(m, traces)).collect();
    for threads in THREADS {
        let (points, report) = sweep_engine_ft(
            models,
            |&m| m.production(),
            traces,
            &EngineConfig::threads(threads),
            None,
        )
        .unwrap();
        for (point, expect) in points.iter().zip(&expect) {
            assert_eq!(
                &point.result.benchmarks, expect,
                "{:?} diverged at {threads} threads",
                point.config
            );
        }
        assert_eq!(report.tasks.len(), models.len() * traces.len());
        assert!(report.all_ok());
    }
}

// Aligned PCs (see `TraceRecord::pc`) over a small window so the tiny
// tables see heavy aliasing; values from the full u64 range.
fn arb_suite() -> impl Strategy<Value = Vec<Vec<(u64, u64)>>> {
    prop::collection::vec(
        prop::collection::vec((0u64..64u64, any::<u64>()), 0..120)
            .prop_map(|v| v.into_iter().map(|(pc, value)| (pc * 4, value)).collect()),
        0..4,
    )
}

proptest! {
    #[test]
    fn engine_matches_serial_on_arbitrary_suites(benches in arb_suite()) {
        for model in KINDS {
            assert_equivalent(&[model], &suite_from(&benches));
        }
    }

    #[test]
    fn sweep_engine_matches_serial_sweep(benches in arb_suite()) {
        let configs = [(4u32, 6u32), (5, 7), (6, 6)]
            .map(|(l1, l2)| Model::Dfcm { l1, l2, width: None });
        assert_equivalent(&configs, &suite_from(&benches));
    }
}

#[test]
fn empty_suite_is_equivalent() {
    assert_equivalent(&KINDS, &[]);
}

#[test]
fn singleton_suite_is_equivalent() {
    let traces = suite_from(&[(0..200u64).map(|i| (4 * (i % 16), i * 3)).collect()]);
    assert_eq!(traces.len(), 1);
    assert_equivalent(&KINDS, &traces);
}

#[test]
fn empty_benchmark_inside_suite_is_equivalent() {
    // A benchmark with zero records still produces a (zeroed) result row.
    let traces = suite_from(&[vec![], (0..100u64).map(|i| (4 * (i % 8), i)).collect()]);
    assert_equivalent(&KINDS, &traces);
}
