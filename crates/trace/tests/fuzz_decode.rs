//! Structure-aware fuzzing of the trace decoders on the workspace
//! proptest shim: random byte mutations of valid v1/v2/v3 traces, raw
//! garbage, truncations at every boundary, and hand-crafted
//! decompression-bomb framings must never panic or mis-decode. Strict
//! reads either return the original records or a typed error; salvage
//! and inspect are total.
//!
//! A flipped v3 payload byte almost always fails the chunk CRC first,
//! so the `past_crc` tests re-stamp the CRC after mutating a chunk's
//! compressed payload, or its packed records before recompression, to
//! drive the Huffman, LZ and unpack checks through the file API.
//!
//! CI runs this harness with `PROPTEST_CASES=1000` (the fuzz-smoke
//! step); locally it runs at the shim's default case count.

use std::ops::Range;

use dfcm_trace::compress::{compress, decompress};
use dfcm_trace::crc::crc32;
use dfcm_trace::{
    inspect_trace, salvage_trace, Trace, TraceFormatError, TraceRecord, V2_CHUNK_RECORDS,
    V3_CHUNK_RECORDS,
};
use proptest::prelude::*;

/// A deterministic, structurally interesting trace: looping PCs, mixed
/// small/large values, length decoupled from the chunk size.
fn base_trace(records: usize, salt: u64) -> Trace {
    (0..records as u64)
        .map(|i| {
            TraceRecord::new(
                0x40_0000 + 4 * ((i ^ salt) % 1021),
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 17),
            )
        })
        .collect()
}

fn v1_bytes(trace: &Trace) -> Vec<u8> {
    let mut buffer = Vec::new();
    trace
        .write_with(&mut buffer, dfcm_trace::TraceFormat::V1)
        .unwrap();
    buffer
}

fn v2_bytes(trace: &Trace, seed: u64) -> Vec<u8> {
    let mut buffer = Vec::new();
    trace.write_v2_to(&mut buffer, seed).unwrap();
    buffer
}

fn v3_bytes(trace: &Trace, seed: u64) -> Vec<u8> {
    let mut buffer = Vec::new();
    trace
        .write_with(&mut buffer, dfcm_trace::TraceFormat::V3 { seed })
        .unwrap();
    buffer
}

/// Minimal varint reader for crafting test inputs: returns the value
/// and the bytes consumed.
fn read_varint_at(bytes: &[u8], at: usize) -> (u64, usize) {
    let mut value = 0u64;
    let mut shift = 0;
    let mut used = 0;
    for &b in &bytes[at..] {
        used += 1;
        value |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    (value, used)
}

fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
    out
}

/// Byte offset of the first chunk frame in a v3 file (right after the
/// magic and the length-prefixed header).
fn v3_first_chunk_offset(bytes: &[u8]) -> usize {
    let (hlen, used) = read_varint_at(bytes, 8);
    8 + used + hlen as usize
}

/// One chunk frame of a v3 file.
struct V3Frame {
    /// Offset of the frame's first byte (its record-count varint).
    start: usize,
    records: u64,
    packed: u64,
    /// Where the compressed payload sits in the file.
    payload: Range<usize>,
}

/// The chunk frames of a well-formed v3 file, in order.
fn v3_frames(bytes: &[u8]) -> Vec<V3Frame> {
    let mut frames = Vec::new();
    let mut at = v3_first_chunk_offset(bytes);
    while at < bytes.len() {
        let start = at;
        let (records, used) = read_varint_at(bytes, at);
        at += used;
        let (packed, used) = read_varint_at(bytes, at);
        at += used;
        let (len, used) = read_varint_at(bytes, at);
        at += used + 4; // past the CRC
        frames.push(V3Frame {
            start,
            records,
            packed,
            payload: at..at + len as usize,
        });
        at += len as usize;
    }
    frames
}

/// `bytes` with `frame`'s payload replaced by `payload`, which unpacks
/// to `packed` bytes, and the frame's sizes and CRC re-stamped to match.
fn restamp(bytes: &[u8], frame: &V3Frame, packed: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = bytes[..frame.start].to_vec();
    out.extend(varint(frame.records));
    out.extend(varint(packed));
    out.extend(varint(payload.len() as u64));
    out.extend(crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&bytes[frame.payload.end..]);
    out
}

/// The file API on a v3 file whose framing and CRCs are intact but
/// whose payloads may not decode: strict read, salvage and inspect are
/// total, fail typed, agree on whether every chunk decodes, and an `Ok`
/// read holds exactly the `declared` records.
fn check_past_crc(file: &[u8], declared: usize) {
    let read = Trace::read_from(file);
    match &read {
        Ok(trace) => assert_eq!(trace.len(), declared, "Ok read with the wrong record count"),
        Err(e) => assert!(
            TraceFormatError::classify(e).is_some(),
            "untyped decode error: {e}"
        ),
    }
    let report = salvage_trace(file).expect("framing intact, salvage succeeds");
    let info = inspect_trace(file).expect("framing intact, inspect succeeds");
    assert_eq!(report.declared_records, declared as u64);
    assert_eq!(read.is_ok(), report.dropped.is_empty());
    assert_eq!(read.is_ok(), info.decoded_records == declared as u64);
    assert_eq!(report.recovered.len() as u64, info.decoded_records);
}

/// Applies `flips` single-byte XOR mutations at pseudo-positions derived
/// from the fuzzer-chosen seeds.
fn mutate(bytes: &mut [u8], flips: &[(u32, u8)], min_offset: usize) {
    if bytes.len() <= min_offset {
        return;
    }
    let span = bytes.len() - min_offset;
    for &(pos, mask) in flips {
        let at = min_offset + (pos as usize % span);
        // A zero mask would be a no-op "mutation"; force at least a bit.
        bytes[at] ^= if mask == 0 { 1 } else { mask };
    }
}

proptest! {
    /// Strict v2 reads of byte-mutated files either reproduce the
    /// original records exactly or fail with a typed format error —
    /// never a panic, never silently wrong data. Mutations are kept off
    /// the 8-byte magic: rewriting the magic legitimately changes which
    /// format (or whether any format) is being parsed.
    #[test]
    fn mutated_v2_never_misdecodes(
        records in 0usize..9000,
        salt in any::<u64>(),
        flips in prop::collection::vec((any::<u32>(), any::<u8>()), 1..8),
    ) {
        let trace = base_trace(records, salt);
        let mut bytes = v2_bytes(&trace, salt);
        mutate(&mut bytes, &flips, 8);
        match Trace::read_from(bytes.as_slice()) {
            Ok(decoded) => prop_assert_eq!(decoded, trace),
            Err(e) => prop_assert!(
                TraceFormatError::classify(&e).is_some(),
                "untyped decode error: {}", e
            ),
        }
    }

    /// Mutated v1 files never panic the reader. (v1 has no checksums, so
    /// a flipped payload byte may legitimately decode to different
    /// records — only totality is asserted.)
    #[test]
    fn mutated_v1_never_panics(
        records in 0usize..9000,
        salt in any::<u64>(),
        flips in prop::collection::vec((any::<u32>(), any::<u8>()), 1..8),
    ) {
        let mut bytes = v1_bytes(&base_trace(records, salt));
        mutate(&mut bytes, &flips, 0);
        let _ = Trace::read_from(bytes.as_slice());
    }

    /// Raw garbage (including mutated magics) never panics any decoder
    /// entry point.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        let _ = Trace::read_from(bytes.as_slice());
        let _ = salvage_trace(bytes.as_slice());
        let _ = inspect_trace(bytes.as_slice());
    }

    /// Truncation at every prefix length is handled cleanly: a strict
    /// read fails typed, and salvage recovers only whole intact chunks.
    #[test]
    fn truncated_v2_fails_typed_and_salvages(
        records in 1usize..9000,
        salt in any::<u64>(),
        keep_permille in 0u32..1000,
    ) {
        let trace = base_trace(records, salt);
        let bytes = v2_bytes(&trace, salt);
        let keep = 8 + (bytes.len() - 8) * keep_permille as usize / 1000;
        let err = Trace::read_from(&bytes[..keep]).unwrap_err();
        prop_assert!(TraceFormatError::classify(&err).is_some(), "untyped: {}", err);
        if let Ok(report) = salvage_trace(&bytes[..keep]) {
            prop_assert!(report.recovered.len() <= trace.len());
            prop_assert_eq!(
                report.recovered.records(),
                &trace.records()[..report.recovered.len()]
            );
        }
    }

    /// Salvage and inspect are total on mutated v2 files, and their
    /// reports agree with each other and with the file's bounds.
    #[test]
    fn salvage_and_inspect_are_total_and_consistent(
        records in 0usize..9000,
        salt in any::<u64>(),
        flips in prop::collection::vec((any::<u32>(), any::<u8>()), 1..8),
    ) {
        let trace = base_trace(records, salt);
        let mut bytes = v2_bytes(&trace, salt);
        mutate(&mut bytes, &flips, 8);
        let salvage = salvage_trace(bytes.as_slice());
        let inspect = inspect_trace(bytes.as_slice());
        if let Ok(report) = &salvage {
            prop_assert!(report.recovered_chunks <= report.total_chunks);
            prop_assert!(report.recovered.len() as u64 <= report.declared_records
                || report.declared_records != trace.len() as u64,
                "more records than declared from an honest header");
            // Intact chunks are bit-identical to the original stream:
            // every recovered record appears in the original at the
            // position its chunk implies.
            if report.dropped.is_empty() {
                prop_assert_eq!(&report.recovered, &trace);
            }
        }
        if let Ok(info) = &inspect {
            prop_assert!(info.decoded_records <= info.declared_records
                || info.declared_records != trace.len() as u64);
        }
        // A header mutilated into unreadability fails both the same way.
        prop_assert_eq!(salvage.is_err(), inspect.is_err());
    }

    /// Round-trip sanity at the chunk boundary sizes the fuzzer rarely
    /// hits by chance.
    #[test]
    fn chunk_boundary_sizes_roundtrip(delta in 0usize..3, salt in any::<u64>()) {
        for base in [V2_CHUNK_RECORDS - 1, V2_CHUNK_RECORDS, 2 * V2_CHUNK_RECORDS] {
            let trace = base_trace(base + delta, salt);
            let bytes = v2_bytes(&trace, 1);
            prop_assert_eq!(Trace::read_from(bytes.as_slice()).unwrap(), trace);
        }
    }

    /// Strict v3 reads of byte-mutated files either reproduce the
    /// original records exactly or fail with a typed format error —
    /// never a panic, never silently wrong data, no matter whether the
    /// flip lands in the header, the chunk framing, the compressed
    /// payload, or the CRC itself.
    #[test]
    fn mutated_v3_never_misdecodes(
        records in 0usize..9000,
        salt in any::<u64>(),
        flips in prop::collection::vec((any::<u32>(), any::<u8>()), 1..8),
    ) {
        let trace = base_trace(records, salt);
        let mut bytes = v3_bytes(&trace, salt);
        mutate(&mut bytes, &flips, 8);
        match Trace::read_from(bytes.as_slice()) {
            Ok(decoded) => prop_assert_eq!(decoded, trace),
            Err(e) => prop_assert!(
                TraceFormatError::classify(&e).is_some(),
                "untyped decode error: {}", e
            ),
        }
    }

    /// Truncating a v3 file at every possible byte boundary is handled
    /// cleanly: a strict read fails typed, and salvage recovers only
    /// whole intact chunks that are a prefix of the original.
    #[test]
    fn truncated_v3_fails_typed_and_salvages(
        records in 1usize..9000,
        salt in any::<u64>(),
        keep_permille in 0u32..1000,
    ) {
        let trace = base_trace(records, salt);
        let bytes = v3_bytes(&trace, salt);
        let keep = 8 + (bytes.len() - 8) * keep_permille as usize / 1000;
        let err = Trace::read_from(&bytes[..keep]).unwrap_err();
        prop_assert!(TraceFormatError::classify(&err).is_some(), "untyped: {}", err);
        if let Ok(report) = salvage_trace(&bytes[..keep]) {
            prop_assert!(report.recovered.len() <= trace.len());
            prop_assert_eq!(
                report.recovered.records(),
                &trace.records()[..report.recovered.len()]
            );
        }
    }

    /// Salvage and inspect are total on mutated v3 files and agree with
    /// each other, exactly like the v2 invariants.
    #[test]
    fn v3_salvage_and_inspect_are_total_and_consistent(
        records in 0usize..9000,
        salt in any::<u64>(),
        flips in prop::collection::vec((any::<u32>(), any::<u8>()), 1..8),
    ) {
        let trace = base_trace(records, salt);
        let mut bytes = v3_bytes(&trace, salt);
        mutate(&mut bytes, &flips, 8);
        let salvage = salvage_trace(bytes.as_slice());
        let inspect = inspect_trace(bytes.as_slice());
        if let Ok(report) = &salvage {
            prop_assert!(report.recovered_chunks <= report.total_chunks);
            if report.dropped.is_empty() {
                prop_assert_eq!(&report.recovered, &trace);
            }
        }
        if let Ok(info) = &inspect {
            prop_assert!(info.decoded_records <= info.declared_records
                || info.declared_records != trace.len() as u64);
        }
        prop_assert_eq!(salvage.is_err(), inspect.is_err());
    }

    /// Mutations of one chunk's compressed payload, with the CRC
    /// re-stamped so they reach the Huffman and LZ decoders.
    #[test]
    fn v3_payload_mutations_past_crc_fail_typed(
        records in 1usize..9000,
        salt in any::<u64>(),
        chunk in any::<u32>(),
        flips in prop::collection::vec((any::<u32>(), any::<u8>()), 1..8),
    ) {
        let trace = base_trace(records, salt);
        let bytes = v3_bytes(&trace, salt);
        let frames = v3_frames(&bytes);
        let frame = &frames[chunk as usize % frames.len()];
        let mut payload = bytes[frame.payload.clone()].to_vec();
        mutate(&mut payload, &flips, 0);
        check_past_crc(&restamp(&bytes, frame, frame.packed, &payload), records);
    }

    /// Mutations of one chunk's packed records, recompressed and
    /// re-stamped so they reach the record unpacker.
    #[test]
    fn v3_packed_mutations_past_crc_fail_typed(
        records in 1usize..9000,
        salt in any::<u64>(),
        chunk in any::<u32>(),
        flips in prop::collection::vec((any::<u32>(), any::<u8>()), 1..8),
    ) {
        let trace = base_trace(records, salt);
        let bytes = v3_bytes(&trace, salt);
        let frames = v3_frames(&bytes);
        let frame = &frames[chunk as usize % frames.len()];
        let mut packed = decompress(&bytes[frame.payload.clone()], frame.packed as usize)
            .expect("own encoding decompresses");
        mutate(&mut packed, &flips, 0);
        let payload = compress(&packed);
        check_past_crc(&restamp(&bytes, frame, packed.len() as u64, &payload), records);
    }

    /// Garbage wearing the v3 magic never panics any decoder entry
    /// point. (Unprefixed garbage almost never hits the v3 path, so the
    /// magic is forced here.)
    #[test]
    fn v3_magic_plus_garbage_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        let mut file = b"DFCMTRC3".to_vec();
        file.extend_from_slice(&bytes);
        let _ = Trace::read_from(file.as_slice());
        let _ = salvage_trace(file.as_slice());
        let _ = inspect_trace(file.as_slice());
    }

    /// Arbitrary records — full-range pcs and values, any length —
    /// round-trip through v3 bit-exactly.
    #[test]
    fn v3_roundtrip_arbitrary_records(
        pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..2000),
        seed in any::<u64>(),
    ) {
        let trace: Trace = pairs
            .into_iter()
            .map(|(pc, value)| TraceRecord::new(pc, value))
            .collect();
        let bytes = v3_bytes(&trace, seed);
        prop_assert_eq!(Trace::read_from(bytes.as_slice()).unwrap(), trace);
    }

    /// A chunk framing rewritten to declare an absurd packed size — a
    /// decompression bomb — fails typed without the decoder attempting
    /// the allocation, for any claimed size over the per-chunk cap.
    #[test]
    fn v3_bomb_framing_fails_typed(extra in 0u64..u64::MAX / 2, salt in any::<u64>()) {
        let trace = base_trace(500, salt);
        let bytes = v3_bytes(&trace, salt);
        let chunk_at = v3_first_chunk_offset(&bytes);
        let (chunk_records, used) = read_varint_at(&bytes, chunk_at);
        prop_assert_eq!(chunk_records, 500);
        let packed_at = chunk_at + used;
        let (_, packed_used) = read_varint_at(&bytes, packed_at);
        // Splice in a packed size beyond the bomb guard's cap.
        let bomb = dfcm_trace::v3_max_packed_len(chunk_records) + 1 + extra;
        let mut crafted = bytes[..packed_at].to_vec();
        crafted.extend_from_slice(&varint(bomb));
        crafted.extend_from_slice(&bytes[packed_at + packed_used..]);
        let err = Trace::read_from(crafted.as_slice()).unwrap_err();
        prop_assert!(
            matches!(
                TraceFormatError::classify(&err),
                Some(TraceFormatError::DecompressionBomb { .. })
            ),
            "expected a typed bomb rejection: {}", err
        );
        // Salvage drops the bomb chunk instead of honouring it.
        if let Ok(report) = salvage_trace(crafted.as_slice()) {
            prop_assert_eq!(report.recovered.len(), 0);
        }
    }
}

/// Round-trip sanity at the v3 chunk boundaries (one run, not a
/// proptest: at 65536 records per chunk the traces are big enough that
/// a 1000-case CI run would dominate the fuzz budget).
#[test]
fn v3_chunk_boundary_sizes_roundtrip() {
    for base in [
        V3_CHUNK_RECORDS - 1,
        V3_CHUNK_RECORDS,
        V3_CHUNK_RECORDS + 1,
        2 * V3_CHUNK_RECORDS,
    ] {
        let trace = base_trace(base, 0xA5A5);
        let bytes = v3_bytes(&trace, 1);
        assert_eq!(
            Trace::read_from(bytes.as_slice()).unwrap(),
            trace,
            "{base} records"
        );
    }
}
