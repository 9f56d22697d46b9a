//! `V3RawChunk::decode_footprint` bounds what a decode allocates: a
//! counting global allocator measures the peak heap bytes of
//! `V3RawChunk::decode` on suite chunks, on a worst case for a real
//! writer (every pc distinct, raw values), and on a hand-packed chunk
//! that maximises the unpacker's bucket count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dfcm_trace::compress::{compress, decompress};
use dfcm_trace::crc::crc32;
use dfcm_trace::suite::standard_suite;
use dfcm_trace::{
    v3_chunks, write_varint, SplitMix64, Trace, TraceFormat, TraceRecord, TraceSource, V3RawChunk,
    V3_CHUNK_RECORDS,
};

/// Counts the calling thread's live heap bytes and their high-water
/// mark. Per-thread, so tests running alongside do not disturb it.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let live = LIVE.get() + bytes;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

fn shrank(bytes: usize) {
    LIVE.set(LIVE.get().saturating_sub(bytes));
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches
// const-initialized thread-locals without destructors, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract passes straight through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // Count the old and new blocks as briefly live together.
            grew(new_size);
            shrank(layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak heap bytes `chunk.decode()` holds above what was live before it,
/// including the returned records.
fn decode_peak(chunk: &V3RawChunk) -> (usize, Vec<TraceRecord>) {
    let base = LIVE.get();
    PEAK.set(base);
    let records = chunk.decode().expect("chunk decodes");
    (PEAK.get() - base, records)
}

fn assert_bounded(chunk: &V3RawChunk, what: &str) -> Vec<TraceRecord> {
    let (peak, records) = decode_peak(chunk);
    let footprint = chunk.decode_footprint();
    assert!(
        peak as u64 <= footprint,
        "{what}: decode peaked at {peak} B over a {footprint} B footprint"
    );
    assert_eq!(records.len() as u64, chunk.records);
    records
}

fn v3_file(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    trace
        .write_with(&mut bytes, TraceFormat::V3 { seed: 3 })
        .expect("vec write");
    bytes
}

#[test]
fn decode_stays_within_footprint() {
    // One full chunk plus a partial one from every suite benchmark.
    for spec in standard_suite() {
        let trace = spec.program(7).take_trace(V3_CHUNK_RECORDS + 1000);
        let bytes = v3_file(&trace);
        let mut decoded = Vec::new();
        for chunk in v3_chunks(bytes.as_slice()).expect("v3 header") {
            let chunk = chunk.expect("chunk reads");
            decoded.extend(assert_bounded(&chunk, spec.name()));
        }
        assert_eq!(decoded, trace.records(), "{}", spec.name());
    }

    // A real writer's worst case: every pc distinct (a dictionary entry
    // per record, every symbol a jump) and raw-mode values.
    let mut rng = SplitMix64::new(11);
    let worst: Trace = (0..V3_CHUNK_RECORDS as u64)
        .map(|i| {
            let pc = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 2) << 2;
            TraceRecord::new(pc, rng.next_u64() >> 1)
        })
        .collect();
    let bytes = v3_file(&worst);
    let chunk = v3_chunks(bytes.as_slice())
        .expect("v3 header")
        .next()
        .expect("one chunk")
        .expect("chunk reads");
    let packed = decompress(&chunk.payload, chunk.packed_bytes as usize).expect("decompresses");
    assert_eq!(packed[0], 1, "raw value mode");
    assert_eq!(assert_bounded(&chunk, "all-distinct"), worst.records());

    // A hand-packed chunk with the most buckets an unpack can meet: a
    // full dictionary of pcs no record uses, and every record a
    // symbol-0 successor missing from the dictionary, so two bucket
    // slots per record.
    let records = V3_CHUNK_RECORDS as u64;
    let mut packed = vec![1u8];
    write_varint(&mut packed, records).expect("vec write");
    write_varint(&mut packed, 1 << 40).expect("vec write");
    for _ in 1..records {
        write_varint(&mut packed, 4).expect("vec write");
    }
    for rank in 0..records {
        write_varint(&mut packed, rank).expect("vec write");
    }
    write_varint(&mut packed, records).expect("vec write");
    packed.resize(packed.len() + records as usize, 0);
    packed.resize(packed.len() + records as usize, 7);
    let payload = compress(&packed);
    let chunk = V3RawChunk {
        index: 0,
        records,
        packed_bytes: packed.len() as u64,
        crc_stored: crc32(&payload),
        payload,
    };
    let decoded = assert_bounded(&chunk, "all pcs outside the dictionary");
    let expected: Vec<TraceRecord> = (1..=records).map(|i| TraceRecord::new(4 * i, 7)).collect();
    assert_eq!(decoded, expected);
}
