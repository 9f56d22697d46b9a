//! Fault-tolerance contract of the engine: panics stay isolated,
//! transient failures retry with bounded backoff, interrupted sweeps
//! resume from their checkpoint byte-identically, and injected faults
//! are deterministic.
//!
//! CI runs this file explicitly (`cargo test -p dfcm-sim --test
//! fault_tolerance`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use dfcm::{DfcmPredictor, LastValuePredictor};
use dfcm_sim::checkpoint::CheckpointLog;
use dfcm_sim::engine::{run_tasks_ft, TaskError, TaskOutput};
use dfcm_sim::{sweep_engine_ft, EngineConfig, FaultPlan, RetryPolicy, TaskOutcome};
use dfcm_trace::{BenchmarkTrace, Trace, TraceRecord};
use proptest::prelude::*;

fn suite(benches: usize, records: u64) -> Vec<BenchmarkTrace> {
    static NAMES: [&str; 4] = ["a", "b", "c", "d"];
    (0..benches)
        .map(|b| BenchmarkTrace {
            name: NAMES[b % NAMES.len()],
            trace: (0..records)
                .map(|i| TraceRecord::new(0x1000 + 4 * (i % 32), i * (b as u64 + 2) % 977))
                .collect::<Trace>(),
        })
        .collect()
}

fn dfcm_factory(&(l1, l2): &(u32, u32)) -> DfcmPredictor {
    DfcmPredictor::builder()
        .l1_bits(l1)
        .l2_bits(l2)
        .build()
        .unwrap()
}

const CONFIGS: [(u32, u32); 3] = [(4, 6), (5, 7), (6, 8)];

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dfcm_fault_tolerance_tests");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn panicking_task_is_isolated_and_reported() {
    let traces = suite(4, 200);
    // Force one specific task to panic via an always-panic plan gated to
    // one (task, attempt): easiest deterministic route is a plan whose
    // seed is chosen so at least one, but not every, task faults.
    let plan = FaultPlan::new(21).with_panics(300);
    let faulted: Vec<usize> = (0..CONFIGS.len() * traces.len())
        .filter(|&i| plan.fault_for(i, 0).is_some())
        .collect();
    assert!(
        !faulted.is_empty() && faulted.len() < CONFIGS.len() * traces.len(),
        "seed must fault some but not all tasks; got {faulted:?}"
    );
    let config = EngineConfig {
        threads: 4,
        retry: RetryPolicy::none(),
        faults: Some(plan),
        ..EngineConfig::default()
    };
    let (points, report) = sweep_engine_ft(&CONFIGS, dfcm_factory, &traces, &config, None).unwrap();
    // Every non-faulted task completed and matches a fault-free run.
    let clean = sweep_engine_ft(
        &CONFIGS,
        dfcm_factory,
        &traces,
        &EngineConfig::threads(1),
        None,
    )
    .unwrap()
    .0;
    for (c, point) in points.iter().enumerate() {
        let expect: Vec<_> = clean[c]
            .result
            .benchmarks
            .iter()
            .enumerate()
            .filter(|(b, _)| !faulted.contains(&(c * traces.len() + b)))
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(point.result.benchmarks, expect, "config {c}");
        assert_eq!(point.result.predictor, clean[c].result.predictor);
    }
    // Failures are first-class in the report, in task order.
    let reported: Vec<usize> = report
        .tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.outcome.is_ok())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(reported, faulted);
    for t in report.failures() {
        assert!(
            matches!(&t.outcome, TaskOutcome::Panicked { message } if message.contains("injected")),
            "{:?}",
            t.outcome
        );
    }
    // And the JSONL names them.
    let jsonl = report.to_jsonl();
    assert!(jsonl.contains("\"outcome\":\"panicked\""));
    assert!(jsonl.contains(&format!("\"failed\":{}", faulted.len())));
}

#[test]
fn injected_faults_are_deterministic_across_runs_and_threads() {
    let traces = suite(3, 150);
    let outcomes = |threads: usize| -> Vec<String> {
        let config = EngineConfig {
            threads,
            retry: RetryPolicy::none(),
            faults: Some(FaultPlan::new(77).with_panics(400)),
            ..EngineConfig::default()
        };
        let (_, report) = sweep_engine_ft(&CONFIGS, dfcm_factory, &traces, &config, None).unwrap();
        report
            .tasks
            .iter()
            .map(|t| format!("{}:{}", t.label, t.outcome.kind()))
            .collect()
    };
    let reference = outcomes(1);
    assert_eq!(outcomes(1), reference);
    assert_eq!(outcomes(4), reference, "outcome set is thread-invariant");
    assert_eq!(outcomes(64), reference);
}

#[test]
fn transient_failures_retry_and_succeed() {
    let attempts: Vec<AtomicU32> = (0..6).map(|_| AtomicU32::new(0)).collect();
    let labels = (0..6).map(|i| format!("t{i}")).collect();
    let config = EngineConfig {
        threads: 3,
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(200),
        },
        ..EngineConfig::default()
    };
    let (values, report) = run_tasks_ft(
        labels,
        |i| {
            let n = attempts[i].fetch_add(1, Ordering::SeqCst);
            // Odd tasks fail their first two attempts, then succeed.
            if i % 2 == 1 && n < 2 {
                return Err(TaskError::Transient(format!("flaky {i} attempt {n}")));
            }
            Ok(TaskOutput {
                value: i * 10,
                records: 1,
            })
        },
        &config,
    );
    assert_eq!(
        values,
        (0..6).map(|i| Some(i * 10)).collect::<Vec<_>>(),
        "every task eventually succeeds"
    );
    assert!(report.all_ok());
    for (i, t) in report.tasks.iter().enumerate() {
        let expected = if i % 2 == 1 { 3 } else { 1 };
        assert_eq!(t.attempts, expected, "task {i}");
        assert_eq!(attempts[i].load(Ordering::SeqCst), expected);
    }
    assert_eq!(report.total_attempts(), 3 + 1 + 3 + 1 + 3 + 1);
}

#[test]
fn exhausted_retries_fail_with_budget_in_message() {
    let config = EngineConfig {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(10),
        },
        ..EngineConfig::default()
    };
    let (values, report) = run_tasks_ft::<u32, _>(
        vec!["doomed".to_owned()],
        |_| Err(TaskError::Transient("always failing".into())),
        &config,
    );
    assert_eq!(values, vec![None]);
    let t = &report.tasks[0];
    assert_eq!(t.attempts, 2);
    assert!(
        matches!(&t.outcome, TaskOutcome::Failed { error }
            if error.contains("always failing") && error.contains("gave up after 2 attempts")),
        "{:?}",
        t.outcome
    );
}

#[test]
fn permanent_failures_fail_fast_without_retry() {
    let calls = AtomicU32::new(0);
    let config = EngineConfig {
        retry: RetryPolicy::default(), // would allow 3 attempts
        ..EngineConfig::default()
    };
    let (values, report) = run_tasks_ft::<u32, _>(
        vec!["bad-config".to_owned()],
        |_| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(TaskError::Permanent("invalid configuration".into()))
        },
        &config,
    );
    assert_eq!(values, vec![None]);
    assert_eq!(calls.load(Ordering::SeqCst), 1, "no retry on permanent");
    assert_eq!(report.tasks[0].attempts, 1);
    assert!(
        matches!(&report.tasks[0].outcome, TaskOutcome::Failed { error }
            if error == "invalid configuration")
    );
}

#[test]
fn overrunning_deadline_is_classified_timed_out() {
    let config = EngineConfig {
        deadline: Some(Duration::from_millis(1)),
        ..EngineConfig::default()
    };
    let (values, report) = run_tasks_ft(
        vec!["slow".to_owned(), "fast".to_owned()],
        |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(TaskOutput {
                value: i,
                records: 1,
            })
        },
        &config,
    );
    assert_eq!(values[0], None, "timed-out value is discarded");
    assert_eq!(values[1], Some(1));
    assert!(matches!(
        report.tasks[0].outcome,
        TaskOutcome::TimedOut { .. }
    ));
    assert!(report.tasks[1].outcome.is_ok());
}

#[test]
fn resumed_sweep_is_byte_identical_to_uninterrupted_run() {
    let traces = suite(3, 300);
    let config = EngineConfig::threads(2);
    let clean = sweep_engine_ft(&CONFIGS, dfcm_factory, &traces, &config, None)
        .unwrap()
        .0;

    // Full checkpointed run, then truncate the log to simulate a kill
    // partway through, then resume.
    let path = temp_path("resume_identical.jsonl");
    let full = sweep_engine_ft(&CONFIGS, dfcm_factory, &traces, &config, Some(&path))
        .unwrap()
        .0;
    assert_eq!(full, clean, "checkpointing must not perturb results");
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), CONFIGS.len() * traces.len());
    std::fs::write(&path, format!("{}\n", lines[..4].join("\n"))).unwrap();

    let (resumed, report) =
        sweep_engine_ft(&CONFIGS, dfcm_factory, &traces, &config, Some(&path)).unwrap();
    assert_eq!(resumed, clean, "resumed merge diverged");
    let seeded = report.tasks.iter().filter(|t| t.attempts == 0).count();
    assert_eq!(seeded, 4, "checkpointed tasks must not re-run");
    assert!(report.all_ok());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_checkpoint_from_different_sweep_is_ignored() {
    let traces = suite(2, 150);
    let path = temp_path("stale_shape.jsonl");
    // Checkpoint a different task shape: distinct benchmark names, so no
    // (index, label) pair of the stale log matches the new sweep.
    let other: Vec<BenchmarkTrace> = suite(2, 50)
        .into_iter()
        .zip(["x", "y"])
        .map(|(t, name)| BenchmarkTrace { name, ..t })
        .collect();
    sweep_engine_ft(
        &CONFIGS,
        dfcm_factory,
        &other,
        &EngineConfig::threads(1),
        Some(&path),
    )
    .unwrap();
    let clean = sweep_engine_ft(
        &CONFIGS,
        dfcm_factory,
        &traces,
        &EngineConfig::threads(1),
        None,
    )
    .unwrap()
    .0;
    let (points, report) = sweep_engine_ft(
        &CONFIGS,
        dfcm_factory,
        &traces,
        &EngineConfig::threads(1),
        Some(&path),
    )
    .unwrap();
    assert_eq!(points, clean);
    // No stale entry matched, so every task re-ran from scratch.
    assert!(report.tasks.iter().all(|t| t.attempts == 1));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_resumed_with_reordered_configs_returns_clean_points() {
    // Entries are keyed by configuration, not by position: resuming a
    // checkpoint with the configuration list reordered must not hand
    // one configuration's results to another.
    let traces = suite(3, 200);
    let config = EngineConfig::threads(2);
    let path = temp_path("reordered_configs.jsonl");
    sweep_engine_ft(&CONFIGS, dfcm_factory, &traces, &config, Some(&path)).unwrap();
    let reordered = [CONFIGS[2], CONFIGS[0], CONFIGS[1]];
    let clean = sweep_engine_ft(&reordered, dfcm_factory, &traces, &config, None)
        .unwrap()
        .0;
    let (resumed, report) =
        sweep_engine_ft(&reordered, dfcm_factory, &traces, &config, Some(&path)).unwrap();
    assert_eq!(resumed, clean);
    assert!(report.all_ok());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_appends_are_concurrency_safe() {
    let path = temp_path("concurrent_appends.jsonl");
    let (log, _) = CheckpointLog::open(&path).unwrap();
    let log = &log;
    std::thread::scope(|scope| {
        for w in 0..4 {
            scope.spawn(move || {
                for i in 0..25 {
                    let index = w * 25 + i;
                    log.append(index, &format!("t{index}"), 1, "{}").unwrap();
                }
            });
        }
    });
    let (_, entries) = CheckpointLog::open(&path).unwrap();
    assert_eq!(entries.len(), 100, "no torn or interleaved lines");
    let mut seen: Vec<usize> = entries.iter().map(|e| e.index).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..100).collect::<Vec<_>>());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn poisoned_state_does_not_cascade() {
    // A panicking task runs *inside* the worker loop; if the engine used
    // poisoning lock().unwrap() on its shared queue this would abort the
    // whole batch instead of completing the remaining tasks.
    let labels: Vec<String> = (0..40).map(|i| format!("t{i}")).collect();
    let (values, report) = run_tasks_ft(
        labels,
        |i| {
            assert!(i % 7 != 3, "task {i} exploded");
            Ok(TaskOutput {
                value: i,
                records: 1,
            })
        },
        &EngineConfig {
            threads: 4,
            retry: RetryPolicy::none(),
            ..EngineConfig::default()
        },
    );
    for (i, value) in values.iter().enumerate() {
        if i % 7 == 3 {
            assert_eq!(*value, None);
            assert!(matches!(
                report.tasks[i].outcome,
                TaskOutcome::Panicked { .. }
            ));
        } else {
            assert_eq!(*value, Some(i));
        }
    }
}

proptest! {
    /// Interrupting a checkpointed sweep after ANY number of completed
    /// tasks and resuming yields exactly the uninterrupted result.
    #[test]
    fn resume_from_any_interrupt_point_matches(keep in 0usize..9, threads in 1usize..5) {
        let traces = suite(3, 120);
        let config = EngineConfig::threads(threads);
        let clean = sweep_engine_ft(&CONFIGS, dfcm_factory, &traces, &config, None)
            .unwrap()
            .0;
        let path = temp_path(&format!("prop_resume_{keep}_{threads}.jsonl"));
        sweep_engine_ft(&CONFIGS, dfcm_factory, &traces, &config, Some(&path)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        prop_assert!(lines.len() == CONFIGS.len() * traces.len());
        let keep = keep.min(lines.len());
        let truncated = if keep == 0 {
            String::new()
        } else {
            format!("{}\n", lines[..keep].join("\n"))
        };
        std::fs::write(&path, truncated).unwrap();
        let (resumed, report) =
            sweep_engine_ft(&CONFIGS, dfcm_factory, &traces, &config, Some(&path)).unwrap();
        prop_assert!(resumed == clean, "diverged after resuming from {} tasks", keep);
        let seeded = report.tasks.iter().filter(|t| t.attempts == 0).count();
        prop_assert!(seeded == keep, "expected {} seeded tasks, got {}", keep, seeded);
        let _ = std::fs::remove_file(&path);
    }

    /// Retry accounting: a task that fails `fails` times before
    /// succeeding consumes exactly `fails + 1` attempts when the budget
    /// allows, and exactly the budget when it does not.
    #[test]
    fn retry_accounting_matches_failure_count(fails in 0u32..6, max_attempts in 1u32..6) {
        let counter = AtomicU32::new(0);
        let counter = &counter;
        let config = EngineConfig {
            retry: RetryPolicy {
                max_attempts,
                base_backoff: Duration::from_micros(10),
                max_backoff: Duration::from_micros(40),
            },
            ..EngineConfig::default()
        };
        let (values, report) = run_tasks_ft(
            vec!["flaky".to_owned()],
            move |_| {
                let n = counter.fetch_add(1, Ordering::SeqCst);
                if n < fails {
                    Err(TaskError::Transient(format!("fail {n}")))
                } else {
                    Ok(TaskOutput { value: n, records: 1 })
                }
            },
            &config,
        );
        let t = &report.tasks[0];
        if fails < max_attempts {
            prop_assert!(values[0] == Some(fails), "succeeds on attempt {}", fails + 1);
            prop_assert!(t.outcome.is_ok());
            prop_assert!(t.attempts == fails + 1, "attempts {}", t.attempts);
        } else {
            prop_assert!(values[0].is_none());
            prop_assert!(matches!(t.outcome, TaskOutcome::Failed { .. }));
            prop_assert!(t.attempts == max_attempts, "attempts {}", t.attempts);
        }
    }
}

#[test]
fn lock_recovery_under_injected_panics_is_exhaustive() {
    // Sweep a plan that panics EVERY task: the engine must still return,
    // with every task reported and zero results merged.
    let traces = suite(2, 60);
    let config = EngineConfig {
        threads: 2,
        retry: RetryPolicy::none(),
        faults: Some(FaultPlan::new(1).with_panics(1000)),
        ..EngineConfig::default()
    };
    let (points, report) = sweep_engine_ft(&CONFIGS, dfcm_factory, &traces, &config, None).unwrap();
    assert_eq!(report.failures().count(), CONFIGS.len() * traces.len());
    for point in &points {
        assert!(point.result.benchmarks.is_empty());
        // Header metadata still present (probed from the factory).
        assert!(!point.result.predictor.is_empty());
    }
}

#[test]
fn one_config_sweep_reports_partial_suites() {
    let traces = suite(4, 100);
    // Pick (deterministically) a seed whose plan faults a proper,
    // non-empty subset of the four tasks.
    let plan = (0u64..)
        .map(|seed| FaultPlan::new(seed).with_panics(400))
        .find(|p| {
            let n = (0..4).filter(|&i| p.fault_for(i, 0).is_some()).count();
            n > 0 && n < 4
        })
        .unwrap();
    let faulted: Vec<usize> = (0..4).filter(|&i| plan.fault_for(i, 0).is_some()).collect();
    let config = EngineConfig {
        retry: RetryPolicy::none(),
        faults: Some(plan),
        ..EngineConfig::default()
    };
    let (points, report) = sweep_engine_ft(
        &[6u32],
        |&bits| LastValuePredictor::new(bits),
        &traces,
        &config,
        None,
    )
    .unwrap();
    assert_eq!(points[0].result.benchmarks.len(), 4 - faulted.len());
    assert_eq!(report.failures().count(), faulted.len());
}

#[test]
fn fault_injected_delays_do_not_change_results() {
    let traces = suite(3, 150);
    let clean = sweep_engine_ft(
        &CONFIGS,
        dfcm_factory,
        &traces,
        &EngineConfig::threads(2),
        None,
    )
    .unwrap()
    .0;
    let config = EngineConfig {
        threads: 2,
        faults: Some(FaultPlan::new(5).with_delays(1000, Duration::from_micros(200))),
        ..EngineConfig::default()
    };
    let (points, report) = sweep_engine_ft(&CONFIGS, dfcm_factory, &traces, &config, None).unwrap();
    assert_eq!(points, clean, "delays must only slow tasks down");
    assert!(report.all_ok());
}

#[test]
fn progress_lines_drain_even_when_tasks_fail() {
    // Smoke: progress printing takes the completed-list lock after a
    // panic may have poisoned it; this must not deadlock or panic.
    let stderr_guard = Mutex::new(());
    let _g = stderr_guard.lock().unwrap();
    let (values, _) = run_tasks_ft::<usize, _>(
        (0..8).map(|i| format!("t{i}")).collect(),
        |i| {
            assert!(i != 2);
            Ok(TaskOutput {
                value: i,
                records: 1,
            })
        },
        &EngineConfig {
            threads: 2,
            progress: true,
            retry: RetryPolicy::none(),
            ..EngineConfig::default()
        },
    );
    assert_eq!(values.iter().filter(|v| v.is_none()).count(), 1);
}
