//! Prediction-as-a-service for the DFCM reproduction.
//!
//! This crate turns the single-pass streaming predictor core
//! ([`dfcm_sim::StreamPredictor`]) into a long-lived, crash-tolerant
//! network daemon, plus the client and chaos-driven load generator used
//! to validate it:
//!
//! * [`protocol`] — length-prefixed, CRC-checked binary frames
//!   (`predict` / `update` / `snapshot` / `stats`), sharing the trace
//!   crate's CRC-32 and varint codecs.
//! * [`session`] — per-client predictor state, sharded, LRU-capped, with
//!   exactly-once request replay.
//! * [`snapshot`] — the `DFCMSNAP1` crash-consistent snapshot format:
//!   per-section CRCs, salvage-style partial restore, byte-identical
//!   re-encoding.
//! * [`server`] — the daemon: threaded acceptor, bounded-queue worker
//!   pool, per-request deadlines, backpressure shedding, panic
//!   quarantine, graceful drain + snapshot on shutdown.
//! * [`signal`] — std-only `SIGTERM`/`SIGINT` hookup.
//! * [`client`] — reconnecting client with typed transient/permanent
//!   errors and capped backoff.
//! * [`loadgen`] — concurrent replay with shadow-predictor verification
//!   and deterministic fault injection.
//!
//! The robustness contract, end to end: a request is either
//! acknowledged with the same bytes a local predictor would produce, or
//! it fails with a typed, retryable error — never silently lost or
//! corrupted — and a `SIGTERM`'d daemon restarts into byte-identical
//! predictor state.

pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod session;
pub mod signal;
pub mod snapshot;

pub use crate::client::ServeClient;
pub use crate::loadgen::{histogram_jsonl, run_loadgen, LoadGenConfig, LoadGenReport};
pub use crate::protocol::{Reply, Request, MAX_FRAME_BYTES};
pub use crate::server::{
    ServeConfig, ServeError, ServeLimits, Server, ServerHandle, ShutdownReport,
};
pub use crate::session::SessionStore;
pub use crate::signal::{install_shutdown_signals, request_shutdown, shutdown_requested};
pub use crate::snapshot::{
    decode_snapshot, encode_snapshot, SessionRecord, SnapshotReport, SNAPSHOT_MAGIC,
};
