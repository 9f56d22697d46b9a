//! End-to-end chaos tests: faults, overload, deadlines, panic
//! isolation, and the kill-and-restart drill.
//!
//! Every test runs a real daemon on a loopback socket. Fault injection
//! is deterministic ([`FaultPlan`] seeded), so failures reproduce.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use dfcm::ValuePredictor;
use dfcm_serve::protocol::{encode_frame, read_frame, Reply, Request};
use dfcm_serve::{
    run_loadgen, LoadGenConfig, LoadGenReport, ServeClient, ServeConfig, ServeLimits, Server,
    ServerHandle,
};
use dfcm_sim::engine::{RetryPolicy, TaskError};
use dfcm_sim::{FaultPlan, StreamPredictor};
use dfcm_trace::{Trace, TraceRecord};

/// Starts a daemon and returns its address, handle, and join handle.
fn start_server(
    config: ServeConfig,
) -> (
    std::net::SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<dfcm_serve::ShutdownReport>,
) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

fn mixed_trace(n: u64) -> Trace {
    (0..n)
        .map(|i| {
            TraceRecord::new(
                0x40_0000 + 4 * (i % 23),
                (i / 3).wrapping_mul(13).wrapping_sub(i % 5),
            )
        })
        .collect()
}

fn quick_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
    }
}

/// The accounting every loadgen report must satisfy.
fn assert_accounted(report: &LoadGenReport) {
    assert_eq!(
        report.acked + report.failed,
        report.requests,
        "every request is acked or failed: {report:?}"
    );
    assert!(report.verified <= report.acked, "{report:?}");
    assert!(
        report.p50_us <= report.p99_us && report.p99_us <= report.max_us,
        "latency percentiles out of order: {report:?}"
    );
}

#[test]
fn clean_load_is_fully_acked_and_verified() {
    let (addr, handle, join) = start_server(ServeConfig::new("dfcm:6:8"));
    let trace = mixed_trace(300);
    let mut config = LoadGenConfig::new(addr, 3, "dfcm:6:8");
    config.retry = quick_retry();
    let report = run_loadgen(&config, &trace).expect("loadgen");
    assert_accounted(&report);
    assert_eq!(report.failed, 0, "clean run must ack everything");
    assert_eq!(report.corrupted, 0);
    assert_eq!(report.acked, report.requests);
    assert_eq!(report.verified, report.requests);
    assert!(report.throughput_rps > 0.0);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn chaos_load_with_all_fault_kinds_loses_nothing() {
    let (addr, handle, join) = start_server(ServeConfig::new("stride:6"));
    let trace = mixed_trace(200);
    let mut config = LoadGenConfig::new(addr, 2, "stride:6");
    config.session_base = 100;
    config.retry = quick_retry();
    // ~5% connection drops, ~3% corrupt frames, ~2% slow-loris stalls.
    config.faults = Some(
        FaultPlan::new(42)
            .with_panics(50)
            .with_transient_io(30)
            .with_delays(20, Duration::from_millis(10)),
    );
    let report = run_loadgen(&config, &trace).expect("loadgen");
    assert_accounted(&report);
    assert_eq!(
        report.failed, 0,
        "transient chaos must be absorbed by retries"
    );
    assert_eq!(report.corrupted, 0, "acked replies must match the shadow");
    assert_eq!(report.acked, report.requests);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn a_load_with_no_requests_is_rejected() {
    // Both runs are refused before any client starts, so no daemon is
    // listening: a client that did start would find nothing to talk to.
    let addr = "127.0.0.1:9".parse().unwrap();
    let no_clients = LoadGenConfig::new(addr, 0, "lvp:4");
    let err = run_loadgen(&no_clients, &mixed_trace(10)).unwrap_err();
    assert!(err.contains("at least one client"), "{err}");
    let two_clients = LoadGenConfig::new(addr, 2, "lvp:4");
    let err = run_loadgen(&two_clients, &Trace::new()).unwrap_err();
    assert!(err.contains("at least one record"), "{err}");
}

#[test]
fn overload_sheds_with_an_explicit_reply() {
    let mut config = ServeConfig::new("lvp:4");
    config.limits = ServeLimits {
        queue_depth: 1,
        workers: 1,
        ..ServeLimits::default()
    };
    let (addr, handle, join) = start_server(config);

    // First connection occupies the single live slot.
    let _held = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(120));
    // The next connection must be shed with Overloaded, not left to
    // stall.
    let mut refused = TcpStream::connect(addr).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let payload = read_frame(&mut refused).expect("shed reply");
    assert_eq!(Reply::decode(&payload).unwrap(), Reply::Overloaded);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn slow_processing_trips_the_request_deadline() {
    let mut config = ServeConfig::new("lvp:4");
    config.process_delay = Duration::from_millis(30);
    config.limits.request_deadline = Duration::from_millis(5);
    let (addr, handle, join) = start_server(config);

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let request = Request::Update {
        session: 1,
        seq: 1,
        pc: 0x40_0000,
        value: 9,
    };
    stream.write_all(&encode_frame(&request.encode())).unwrap();
    let payload = read_frame(&mut stream).expect("deadline reply");
    assert_eq!(
        Reply::decode(&payload).unwrap(),
        Reply::DeadlineExceeded { seq: 1 }
    );
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn a_panicking_session_poisons_only_itself() {
    let (addr, handle, join) = start_server(ServeConfig::new("lvp:4"));
    let mut victim = ServeClient::new(addr, 7, quick_retry());
    let mut bystander = ServeClient::new(addr, 8, quick_retry());

    bystander.update(0x40_0000, 1).expect("healthy before");
    victim.debug_panic().expect("panic injection");
    // The victim's session is quarantined...
    match victim.update(0x40_0000, 2) {
        Err(TaskError::Permanent(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
        other => panic!("expected poisoned session, got {other:?}"),
    }
    // ...while the bystander (and the daemon) keep serving.
    bystander.update(0x40_0000, 3).expect("healthy after");
    handle.shutdown();
    let report = join.join().unwrap();
    // The poisoned session is not snapshotted.
    assert_eq!(report.sessions, 1);
}

#[test]
fn duplicate_seq_replays_the_cached_reply_without_reapplying() {
    let (addr, handle, join) = start_server(ServeConfig::new("lvp:4"));
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let update = Request::Update {
        session: 5,
        seq: 1,
        pc: 0x40_0000,
        value: 77,
    };
    let frame = encode_frame(&update.encode());
    stream.write_all(&frame).unwrap();
    let first = read_frame(&mut stream).unwrap();
    // Retransmit the identical request (a retry after a lost ack).
    stream.write_all(&frame).unwrap();
    let second = read_frame(&mut stream).unwrap();
    assert_eq!(first, second, "replayed reply must be byte-identical");
    // The update applied once: a predict still sees 77, and the first
    // reply reported the pre-update prediction of 0.
    assert_eq!(
        Reply::decode(&first).unwrap(),
        Reply::Updated {
            seq: 1,
            predicted: 0,
            correct: false
        }
    );
    let predict = Request::Predict {
        session: 5,
        seq: 2,
        pc: 0x40_0000,
    };
    stream.write_all(&encode_frame(&predict.encode())).unwrap();
    let payload = read_frame(&mut stream).unwrap();
    assert_eq!(
        Reply::decode(&payload).unwrap(),
        Reply::Predicted { seq: 2, value: 77 }
    );
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn malformed_frames_are_rejected_and_the_connection_closed() {
    let (addr, handle, join) = start_server(ServeConfig::new("lvp:4"));
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut frame = encode_frame(&Request::Stats.encode());
    let last = frame.len() - 1;
    frame[last] ^= 0x80;
    stream.write_all(&frame).unwrap();
    let payload = read_frame(&mut stream).expect("malformed reply");
    assert_eq!(Reply::decode(&payload).unwrap(), Reply::Malformed);
    // The server closes after a malformed frame.
    assert!(read_frame(&mut stream).is_err());
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn stats_frame_returns_prometheus_text() {
    let mut config = ServeConfig::new("lvp:4");
    config.obs = dfcm_obs::Obs::enabled();
    let (addr, handle, join) = start_server(config);
    let mut client = ServeClient::new(addr, 1, quick_retry());
    client.update(0x40_0000, 5).unwrap();
    let text = client.stats().expect("stats");
    assert!(
        text.contains("serve_requests"),
        "prometheus text should carry request counters:\n{text}"
    );
    // The scrape adds rolling-window latency percentiles and per-spec
    // session telemetry, all rendered by the one dfcm-obs formatter, so
    // the whole exposition must parse.
    let samples = dfcm_obs::summary::parse_prometheus(&text).expect("valid exposition");
    let quantiles: Vec<f64> = samples
        .iter()
        .filter(|(n, _, _)| n == "serve_recent_request_us")
        .map(|(_, _, v)| *v)
        .collect();
    assert_eq!(quantiles.len(), 4, "p50/p90/p99/max:\n{text}");
    let live = samples
        .iter()
        .find(|(n, l, _)| {
            n == "serve_live_sessions" && l.contains(&("spec".into(), "lvp:4".into()))
        })
        .expect("live session telemetry");
    assert_eq!(live.2, 1.0);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn stats_frame_works_without_obs() {
    // The rolling window and session telemetry are independent of the
    // obs handle: an uninstrumented daemon still serves a useful scrape.
    let (addr, handle, join) = start_server(ServeConfig::new("stride:4"));
    let mut client = ServeClient::new(addr, 9, quick_retry());
    client.update(0x40_0000, 5).unwrap();
    let text = client.stats().expect("stats");
    let samples = dfcm_obs::summary::parse_prometheus(&text).expect("valid exposition");
    assert!(samples
        .iter()
        .any(|(n, _, _)| n == "serve_recent_request_us"));
    assert!(samples
        .iter()
        .any(|(n, _, v)| n == "serve_recent_window" && *v >= 1.0));
    handle.shutdown();
    join.join().unwrap();
}

/// The kill-and-restart drill: load, SIGTERM-style graceful shutdown
/// with a snapshot, restart from the snapshot, continue the load — the
/// served predictions must equal an uninterrupted local run, and a
/// re-snapshot of the restored state must be byte-identical.
#[test]
fn kill_and_restart_preserves_state_byte_identically() {
    let dir = std::env::temp_dir().join(format!("dfcm_serve_drill_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("sessions.snap");
    let spec = "dfcm:6:8";
    let session = 42u64;
    let trace = mixed_trace(400);
    let (first_half, second_half) = trace.records().split_at(200);

    // Phase 1: serve the first half, then shut down gracefully.
    let mut config = ServeConfig::new(spec);
    config.snapshot_path = Some(snap_path.clone());
    let (addr, handle, join) = start_server(config.clone());
    let mut client = ServeClient::new(addr, session, quick_retry());
    let mut reference = StreamPredictor::parse_spec(spec).unwrap();
    for record in first_half {
        let (predicted, correct) = client.update(record.pc, record.value).expect("phase 1");
        let expected = reference.access(record.pc, record.value);
        assert_eq!((predicted, correct), (expected.predicted, expected.correct));
    }
    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.sessions, 1);
    assert!(report.snapshot_bytes > 0);
    let snapshot_at_kill = std::fs::read(&snap_path).unwrap();

    // Phase 2: restart from the snapshot and continue the trace. The
    // server must behave as if it never died.
    let (addr2, handle2, join2) = start_server(config);
    let mut client2 = ServeClient::new(addr2, session, quick_retry());
    // A fresh client's seqs restart at 1; the restored session replays
    // only on an exact last-seq match, so request 1 processes normally.
    for record in second_half {
        let (predicted, correct) = client2.update(record.pc, record.value).expect("phase 2");
        let expected = reference.access(record.pc, record.value);
        assert_eq!(
            (predicted, correct),
            (expected.predicted, expected.correct),
            "restored server diverged from the uninterrupted reference"
        );
    }
    handle2.shutdown();
    let report2 = join2.join().unwrap();
    assert_eq!(report2.restored, 1, "snapshot restore must have happened");

    // Byte-identity: restoring the kill-time snapshot and immediately
    // re-snapshotting reproduces it exactly.
    let (records, salvage) = dfcm_serve::decode_snapshot(&snapshot_at_kill).unwrap();
    assert!(salvage.clean_end);
    assert_eq!(dfcm_serve::encode_snapshot(&records), snapshot_at_kill);

    let _ = std::fs::remove_dir_all(&dir);
}
