//! The v3 density gate. Encoded as v2 and as v3, every trace of the
//! synthetic suite must land at or under 16 bits/record in v3, the suite
//! as a whole at or under 12, and the suite's v3 bytes must be at least
//! 2× smaller than its v2 bytes, so a packing or compression regression
//! fails here.
//!
//! Scale 0.05 gives 61–79 K records per trace, the size these bounds
//! were set against. At 0.01 (12–16 K records) the per-chunk
//! dictionaries cannot amortize, and the worst trace reads about 17
//! bits/record.

use dfcm_trace::suite::standard_traces;
use dfcm_trace::TraceFormat;

/// Per-trace v3 ceiling, bits/record. The worst trace (`go`, wide
/// random value blocks) measures about 14–15.
const TRACE_MAX_BITS: f64 = 16.0;
/// Whole-suite v3 ceiling, bits/record; measured about 10.6.
const SUITE_MAX_BITS: f64 = 12.0;
/// Minimum whole-suite size ratio of v2 over v3; measured about 3.3.
const MIN_RATIO_VS_V2: f64 = 2.0;

const SEED: u64 = 0xBEEF;
const SCALE: f64 = 0.05;

fn encoded_len(trace: &dfcm_trace::Trace, format: TraceFormat) -> u64 {
    let mut bytes = Vec::new();
    trace.write_with(&mut bytes, format).expect("vec write");
    bytes.len() as u64
}

#[test]
fn v3_density_stays_within_its_bounds() {
    let (mut records, mut v2_bytes, mut v3_bytes) = (0u64, 0u64, 0u64);
    for bench in standard_traces(SEED, SCALE) {
        let n = bench.trace.len() as u64;
        let v3 = encoded_len(&bench.trace, TraceFormat::V3 { seed: SEED });
        let bits = v3 as f64 * 8.0 / n as f64;
        assert!(
            bits <= TRACE_MAX_BITS,
            "{}: {bits:.2} bits/record in v3 over {n} records (bound {TRACE_MAX_BITS})",
            bench.name
        );
        records += n;
        v3_bytes += v3;
        v2_bytes += encoded_len(&bench.trace, TraceFormat::V2 { seed: SEED });
    }
    let suite_bits = v3_bytes as f64 * 8.0 / records as f64;
    assert!(
        suite_bits <= SUITE_MAX_BITS,
        "suite: {suite_bits:.2} bits/record in v3 (bound {SUITE_MAX_BITS})"
    );
    let ratio = v2_bytes as f64 / v3_bytes as f64;
    assert!(
        ratio >= MIN_RATIO_VS_V2,
        "suite: v3 only {ratio:.2}x smaller than v2 (bound {MIN_RATIO_VS_V2}x)"
    );
}
