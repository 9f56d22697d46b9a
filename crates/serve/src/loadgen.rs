//! The chaos-driven load generator.
//!
//! Replays a trace against a running daemon as N concurrent client
//! sessions and verifies every acknowledged reply against a local
//! *shadow predictor*: each client simulates the exact predictor the
//! server holds for its session, so a corrupted ack — wrong value, lost
//! update, double-applied update — is detected as a shadow mismatch, not
//! just a transport error.
//!
//! Faults are injected deterministically from the simulation engine's
//! [`FaultPlan`], mapped onto serving-shaped chaos:
//!
//! * `Panic` → drop the connection before the request (forces reconnect
//!   + seq-replay),
//! * `TransientIo` → send a corrupt frame first (forces the server's
//!   CRC reject + connection close),
//! * `Delay` → a slow-loris stats exchange (forces partial-frame
//!   buffering on the server).
//!
//! The real request always follows the injected fault, so a run with
//! faults must still end with `failed == 0 && corrupted == 0` — the
//! zero-loss property the CI chaos smoke gates on.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dfcm::ValuePredictor;
use dfcm_obs::json::JsonObj;
use dfcm_obs::metrics::Histogram;
use dfcm_sim::engine::RetryPolicy;
use dfcm_sim::{FaultPlan, InjectedFault, StreamPredictor};
use dfcm_trace::Trace;

use crate::client::ServeClient;
use crate::server::REQUEST_US_BOUNDS;

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Daemon address.
    pub addr: SocketAddr,
    /// Concurrent client sessions.
    pub clients: usize,
    /// First session id; client `i` uses `session_base + i`. Use fresh
    /// ids per run so shadow verification starts from a cold session.
    pub session_base: u64,
    /// Predictor spec the server creates sessions with — the shadow
    /// predictors must match it for verification to be meaningful.
    pub spec: String,
    /// Deterministic fault plan; `None` for a clean run.
    pub faults: Option<FaultPlan>,
    /// Retry policy for each request.
    pub retry: RetryPolicy,
}

impl LoadGenConfig {
    /// A clean (fault-free) plan for `clients` sessions against `addr`.
    pub fn new(addr: SocketAddr, clients: usize, spec: &str) -> Self {
        LoadGenConfig {
            addr,
            clients,
            session_base: 1,
            spec: spec.to_owned(),
            faults: None,
            retry: RetryPolicy {
                max_attempts: 8,
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(500),
            },
        }
    }
}

/// Aggregated results of one load-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadGenReport {
    /// Client sessions driven.
    pub clients: usize,
    /// Requests attempted (clients × trace records).
    pub requests: u64,
    /// Requests acknowledged by the server.
    pub acked: u64,
    /// Requests never acknowledged after all retries.
    pub failed: u64,
    /// Acknowledged replies that contradicted the shadow predictor.
    pub corrupted: u64,
    /// Acknowledged replies that were shadow-verified (verification
    /// stops for a client after its first failed request, because the
    /// server may or may not have applied it).
    pub verified: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Acknowledged-request throughput.
    pub throughput_rps: f64,
    /// Latency percentiles over acknowledged requests, microseconds.
    pub p50_us: u64,
    /// 99th percentile latency.
    pub p99_us: u64,
    /// Maximum latency.
    pub max_us: u64,
    /// Full latency histogram (bounds = `REQUEST_US_BOUNDS`).
    pub histogram: Histogram,
}

/// Replays `trace` through `config.clients` concurrent sessions.
///
/// Each client drives its own session (`session_base + i`) over the full
/// trace with a shadow predictor checking every ack. Fault injection is
/// deterministic in (client, request index), so two runs with the same
/// config and trace inject exactly the same chaos.
///
/// Every request ends acked or failed, so `acked + failed == requests`
/// holds in any report this returns.
///
/// # Errors
///
/// Returns the shadow spec parse error, an error before any client
/// starts when the run would send no requests (zero clients or an empty
/// trace), and an error naming the client when a client thread
/// panicked; per-request failures are counted in the report, not
/// returned.
pub fn run_loadgen(config: &LoadGenConfig, trace: &Trace) -> Result<LoadGenReport, String> {
    // Fail fast on a bad spec or an empty run before spawning anything.
    StreamPredictor::parse_spec(&config.spec).map_err(|e| e.to_string())?;
    if config.clients == 0 {
        return Err("loadgen needs at least one client".into());
    }
    if trace.is_empty() {
        return Err("loadgen needs a trace with at least one record".into());
    }
    let started = Instant::now();
    let results: Vec<std::thread::Result<ClientStats>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|i| scope.spawn(move || drive_client(config, trace, i)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    merge(config.clients, trace.len(), started.elapsed(), results)
}

/// Folds the per-client results, in client order, into one report. A
/// panicked client took its requests' outcomes with it, so it fails the
/// run instead of dropping out of both `acked` and `failed`.
fn merge(
    clients: usize,
    records: usize,
    elapsed: Duration,
    results: Vec<std::thread::Result<ClientStats>>,
) -> Result<LoadGenReport, String> {
    let mut report = LoadGenReport {
        clients,
        requests: (clients * records) as u64,
        acked: 0,
        failed: 0,
        corrupted: 0,
        verified: 0,
        elapsed,
        throughput_rps: 0.0,
        p50_us: 0,
        p99_us: 0,
        max_us: 0,
        histogram: Histogram::new(REQUEST_US_BOUNDS),
    };
    let mut latencies: Vec<u64> = Vec::new();
    for (client, result) in results.into_iter().enumerate() {
        let stats = result.map_err(|_| {
            format!("loadgen client {client} panicked; its requests are unaccounted for")
        })?;
        report.acked += stats.acked;
        report.failed += stats.failed;
        report.corrupted += stats.corrupted;
        report.verified += stats.verified;
        latencies.extend(stats.latencies_us);
    }
    latencies.sort_unstable();
    for &us in &latencies {
        report.histogram.observe(us as f64);
    }
    if let Some(&max) = latencies.last() {
        report.max_us = max;
        report.p50_us = percentile(&latencies, 0.50);
        report.p99_us = percentile(&latencies, 0.99);
    }
    if !elapsed.is_zero() {
        report.throughput_rps = report.acked as f64 / elapsed.as_secs_f64();
    }
    Ok(report)
}

#[derive(Debug, Default)]
struct ClientStats {
    acked: u64,
    failed: u64,
    corrupted: u64,
    verified: u64,
    latencies_us: Vec<u64>,
}

fn drive_client(config: &LoadGenConfig, trace: &Trace, index: usize) -> ClientStats {
    let mut client = ServeClient::new(
        config.addr,
        config.session_base + index as u64,
        config.retry.clone(),
    );
    let mut shadow = StreamPredictor::parse_spec(&config.spec).expect("spec pre-validated");
    let mut stats = ClientStats::default();
    let mut verifying = true;
    for (i, record) in trace.records().iter().enumerate() {
        if let Some(plan) = &config.faults {
            // Spread fault rolls across clients deterministically: the
            // plan is indexed by a (client, request) pairing.
            let roll = index * 1_000_003 + i;
            match plan.fault_for(roll, 0) {
                Some(InjectedFault::Panic) => client.drop_connection(),
                Some(InjectedFault::TransientIo) => client.send_corrupt_frame(),
                Some(InjectedFault::Delay(stall)) => {
                    let _ = client.slow_stats(stall);
                }
                None => {}
            }
        }
        let sent = Instant::now();
        match client.update(record.pc, record.value) {
            Ok((predicted, correct)) => {
                stats.acked += 1;
                stats
                    .latencies_us
                    .push(sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                if verifying {
                    let expected = shadow.access(record.pc, record.value);
                    stats.verified += 1;
                    if expected.predicted != predicted || expected.correct != correct {
                        stats.corrupted += 1;
                    }
                }
            }
            Err(_) => {
                // The server may or may not have applied this update
                // (the ack could have been lost), so the shadow can no
                // longer be trusted for later requests.
                stats.failed += 1;
                verifying = false;
            }
        }
    }
    stats
}

pub(crate) fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Renders the latency histogram as JSONL lines (one bucket per line),
/// for the CI artifact upload.
pub fn histogram_jsonl(report: &LoadGenReport) -> Vec<String> {
    let mut lines = Vec::with_capacity(report.histogram.bounds.len() + 1);
    for (i, bound) in report.histogram.bounds.iter().enumerate() {
        lines.push(
            JsonObj::new()
                .f64("le_us", *bound, 1)
                .u64("count", report.histogram.cumulative(i))
                .finish(),
        );
    }
    lines.push(
        JsonObj::new()
            .str("le_us", "+Inf")
            .u64("count", report.histogram.count)
            .finish(),
    );
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_small_sets() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 51);
        assert_eq!(percentile(&v, 0.99), 99);
    }

    fn client(acked: u64, failed: u64, latencies_us: &[u64]) -> ClientStats {
        ClientStats {
            acked,
            failed,
            corrupted: 0,
            verified: acked,
            latencies_us: latencies_us.to_vec(),
        }
    }

    #[test]
    fn histogram_jsonl_is_parseable() {
        let results = vec![
            Ok(client(5, 0, &[40, 90, 95, 12, 7])),
            Ok(client(4, 1, &[33, 61, 8, 20])),
        ];
        let report = merge(2, 5, Duration::from_millis(5), results).unwrap();
        assert_eq!(report.acked + report.failed, report.requests);
        assert!(report.p50_us <= report.p99_us && report.p99_us <= report.max_us);
        let lines = histogram_jsonl(&report);
        for line in &lines {
            dfcm_obs::json::parse(line).unwrap();
        }
        assert!(lines.last().unwrap().contains(r#""count":9"#), "{lines:?}");
    }

    #[test]
    fn a_panicked_client_fails_the_merge() {
        let results = vec![
            Ok(client(5, 0, &[10; 5])),
            Err(Box::new("client thread panicked") as Box<dyn std::any::Any + Send>),
        ];
        let err = merge(2, 5, Duration::from_millis(5), results).unwrap_err();
        assert!(err.contains("client 1 panicked"), "{err}");
    }
}
