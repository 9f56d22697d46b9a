//! The compressed `DFCMTRC3` trace format: per-chunk pc dictionaries
//! and transposed per-pc value streams behind the [`crate::compress`]
//! LZ+Huffman stage.
//!
//! v3 exists for paper-scale traces (the paper replays 123–157M records
//! per benchmark): it reaches ~10 bits per record on the synthetic
//! suite (~13× smaller than raw 16-byte records, ~3.5× smaller than
//! v2) while keeping every robustness property of v2 — chunked
//! framing, per-chunk CRC-32, typed errors, salvageability — and adds
//! the guard compression makes necessary: a decoder that never
//! allocates more than one chunk's worst-case packed size, no matter
//! what the file claims ([`TraceFormatError::DecompressionBomb`]).
//!
//! # File layout
//!
//! ```text
//! magic    8 bytes  "DFCMTRC3"
//! hlen     varint   byte length of the header payload
//! header            varint record count, varint generator seed,
//!                   varint format flags (must be 0) — same layout and
//!                   growth rules as v2
//! chunks            until `count` records are accounted for:
//!   records varint  records in this chunk (1 ..= 65536)
//!   packed  varint  uncompressed (packed) payload size in bytes;
//!                   bounded by `max_packed_len(records)`
//!   bytes   varint  compressed payload size in bytes
//!   crc32   4 bytes CRC-32 (IEEE, LE) of the *compressed* payload
//!   payload         a `compress` container holding the packed records
//! ```
//!
//! All model state (the pc dictionary and the per-pc value chains)
//! restarts at zero in every chunk and the compressor holds no
//! cross-chunk state, so every chunk decodes independently — the
//! property salvage and parallel streaming rely on.
//!
//! # Packed record encoding
//!
//! A packed chunk is a value-stream mode byte, then three sections, all
//! canonical LEB128 varints:
//!
//! 1. **Pc dictionary** — the chunk's distinct pcs, sorted and
//!    gap-coded, followed by a permutation assigning each entry its
//!    symbol rank, hottest jump targets first.
//! 2. **Pc stream** (behind a byte-length prefix) — one symbol per
//!    record: 0 means "previous pc + 4" (the in-block successor of a
//!    code-like trace), any other symbol is 1 + the rank of the jump
//!    target. Encoding jumps as dictionary ranks instead of pc deltas
//!    matters twice over: a delta of two independent jumps squares the
//!    symbol space, and frequency-ranking gives the hot targets
//!    one-byte symbols.
//! 3. **Value stream** — the values *transposed into per-pc buckets*
//!    (in order of each pc's first appearance), each value a zigzag
//!    delta against the previous value produced by the same static
//!    instruction — the paper's own value-locality insight turned into
//!    a compressor. Transposing restores each instruction's structure
//!    as byte-level repetition: constants become zero runs, strides
//!    become runs of their constant stride, periodic values short
//!    repeating cycles — exactly the shape the LZ stage eats. The
//!    encoder falls back to raw varints per chunk when deltas come out
//!    longer. The bucket boundaries are fully determined by the decoded
//!    pc stream, so the transpose costs no side metadata.
//!
//! # Bomb guards
//!
//! A legitimate chunk can expand at most ~600× through the pipeline
//! (LZ matches ≈ 75×, Huffman ≤ 8×). The chunk reader
//! ([`crate::ChunkReader`], shared with v2) bounds the compressed size
//! at the packed bound plus container slack before it reads a payload,
//! and [`V3RawChunk::decode`] checks, before it decompresses anything:
//!
//! * declared packed size ≤ [`max_packed_len`] (≈ 27 bytes/record),
//! * packed/compressed ratio ≤ [`MAX_EXPANSION_RATIO`] once the chunk
//!   is past the small-chunk exemption.
//!
//! Violations surface from `decode` as
//! [`TraceFormatError::DecompressionBomb`]. The reader has already read
//! the bomb's bounded payload, so salvage drops only the offending chunk
//! and reads on.

use std::collections::HashMap;
use std::io::{self, Read, Write};

use crate::compress::{compress, decompress, max_token_len};
use crate::crc::crc32;
use crate::io::{
    sealed, take_varint, undecodable, unzigzag, write_varint, zigzag, ChunkReader, TraceChunk,
    TraceFormatError,
};
use crate::record::{Trace, TraceRecord};

pub(crate) const MAGIC_V3: &[u8; 8] = b"DFCMTRC3";

/// Records per v3 chunk (the last chunk of a file holds the remainder).
pub const V3_CHUNK_RECORDS: usize = 1 << 16;

/// A chunk whose declared uncompressed size exceeds this many times its
/// compressed size is rejected as a decompression bomb. A legitimate
/// writer cannot exceed ~600× (see the module docs), so 1024 never
/// rejects real data while still capping a hostile chunk's
/// allocation-to-input ratio.
pub const MAX_EXPANSION_RATIO: u64 = 1024;

/// Chunks this small are exempt from the ratio guard: tiny inputs have
/// noisy ratios and a bounded absolute cost anyway.
const RATIO_EXEMPT_BYTES: u64 = 4096;

/// Worst-case packed size for `records` records: every record with a
/// distinct pc costs at most one 10-byte dictionary varint, a 3-byte
/// pc-stream symbol, and a 10-byte value varint; the constant covers
/// the mode byte and the length prefixes. This is the hard ceiling on
/// what a v3 chunk may declare as its uncompressed size — and therefore
/// on what the decoder will ever allocate for one chunk.
pub fn max_packed_len(records: u64) -> u64 {
    records * 27 + 16
}

// ---------------------------------------------------------------------
// Record packing (stage 1)
// ---------------------------------------------------------------------

/// Value-stream mode: zigzag deltas against the previous value of the
/// same bucket — i.e. the previous value produced by the same static
/// instruction, the paper's value-locality insight as a compressor.
/// Constants pack to zero runs, strides to runs of their constant
/// stride, periodic values to short repeating cycles.
const MODE_BUCKET_DELTA: u8 = 0;
/// Value-stream mode: raw value varints per bucket, for value streams
/// no delta model improves (e.g. pure random data).
const MODE_RAW: u8 = 1;

/// Step between consecutive static instructions; a pc-stream symbol of
/// 0 means "previous pc plus this step", which covers every in-block
/// instruction of a code-like trace with a single hot symbol.
const PC_STEP: u64 = 4;

/// Packs one chunk of records into the dictionary + transposed-bucket
/// layout (see the module docs): a sorted pc dictionary (gap-coded),
/// then one pc-stream symbol per record (0 = previous pc + 4, else
/// 1 + dictionary index), then the values *grouped by pc* in order of
/// each pc's first appearance. Encoding jumps as dictionary indices
/// instead of pc deltas keeps their entropy at the size of the pc set
/// (a delta of two independent jumps squares it), and transposing the
/// values restores each instruction's own structure as byte-level
/// repetition the LZ stage can see. The encoder builds both candidate
/// value streams and keeps the shortest. All state restarts per chunk,
/// keeping chunks independently decodable.
fn pack_records(records: &[TraceRecord]) -> Vec<u8> {
    // Sorted pc dictionary and how often each entry is jumped to (i.e.
    // reached other than as the previous pc's successor).
    let mut dict: Vec<u64> = records.iter().map(|r| r.pc).collect();
    dict.sort_unstable();
    dict.dedup();
    let index: HashMap<u64, usize> = dict.iter().enumerate().map(|(i, &pc)| (pc, i)).collect();
    let mut jumps = vec![0u64; dict.len()];
    let mut prev_pc = 0u64;
    for r in records {
        if r.pc != prev_pc.wrapping_add(PC_STEP) {
            jumps[index[&r.pc]] += 1;
        }
        prev_pc = r.pc;
    }
    // Rank dictionary entries by jump frequency so the hottest jump
    // targets get the shortest pc-stream symbols.
    let mut by_freq: Vec<usize> = (0..dict.len()).collect();
    by_freq.sort_by_key(|&i| (u64::MAX - jumps[i], i));
    let mut rank = vec![0u64; dict.len()];
    for (r, &i) in by_freq.iter().enumerate() {
        rank[i] = r as u64;
    }

    // The pc stream, plus per-pc value buckets in first-appearance order.
    let mut pcs: Vec<u8> = Vec::with_capacity(records.len());
    let mut bucket_of: HashMap<u64, usize> = HashMap::new();
    let mut buckets: Vec<Vec<u64>> = Vec::new();
    let mut prev_pc = 0u64;
    for r in records {
        let symbol = if r.pc == prev_pc.wrapping_add(PC_STEP) {
            0
        } else {
            rank[index[&r.pc]] + 1
        };
        write_varint(&mut pcs, symbol).expect("vec write");
        prev_pc = r.pc;
        let b = *bucket_of.entry(r.pc).or_insert_with(|| {
            buckets.push(Vec::new());
            buckets.len() - 1
        });
        buckets[b].push(r.value);
    }

    // Candidate value streams over the transposed buckets.
    let mut delta: Vec<u8> = Vec::with_capacity(records.len() * 2);
    let mut raw: Vec<u8> = Vec::with_capacity(records.len() * 2);
    for bucket in &buckets {
        let mut prev = 0i64;
        for &v in bucket {
            write_varint(&mut delta, zigzag((v as i64).wrapping_sub(prev))).expect("vec write");
            write_varint(&mut raw, v).expect("vec write");
            prev = v as i64;
        }
    }
    let (mode, values) = if delta.len() <= raw.len() {
        (MODE_BUCKET_DELTA, &delta)
    } else {
        (MODE_RAW, &raw)
    };

    let mut out = Vec::with_capacity(pcs.len() + values.len() + dict.len() * 3 + 16);
    out.push(mode);
    write_varint(&mut out, dict.len() as u64).expect("vec write");
    let mut prev = 0u64;
    for (i, &pc) in dict.iter().enumerate() {
        // Gap-coded sorted dictionary: first entry verbatim, then the
        // strictly positive gaps.
        let gap = if i == 0 { pc } else { pc - prev };
        write_varint(&mut out, gap).expect("vec write");
        prev = pc;
    }
    for &r in &rank {
        // The frequency permutation: each sorted entry's symbol rank.
        write_varint(&mut out, r).expect("vec write");
    }
    write_varint(&mut out, pcs.len() as u64).expect("vec write");
    out.extend_from_slice(&pcs);
    out.extend_from_slice(values);
    out
}

/// The bucket id [`unpack_records`] gives a record whose pc is missing
/// from the dictionary, until strays get ids of their own.
const STRAY: u32 = u32::MAX;

/// Marks a value-bucket slot in [`unpack_records`] as opened: the slot
/// has become the bucket's read cursor into the flat value array.
const BUCKET_OPEN: u32 = 1 << 31;

/// Decodes a packed chunk back into exactly `records` records.
///
/// Each record carries a bucket id until its value is known: the index
/// of its pc in the deduplicated sorted dictionary, reached through the
/// inverse rank permutation for a jump symbol and, for a symbol 0, by
/// checking the entry after the previous pc's before a binary search.
/// Duplicate dictionary entries therefore share one bucket. Pcs missing
/// from the dictionary (only a corrupt chunk has them) get ids past the
/// dictionary's, one per distinct pc. Values decode into one flat array,
/// a bucket at a time when the bucket's first record comes up.
fn unpack_records(packed: &[u8], records: u64) -> Result<Vec<TraceRecord>, String> {
    // Bucket ids (up to two per record) must stay below STRAY, and
    // cursors below the BUCKET_OPEN flag; a file chunk is far smaller.
    if records >= u64::from(BUCKET_OPEN) / 2 {
        return Err(format!("{records} records exceed what one chunk can hold"));
    }
    let (&mode, mut rest) = packed
        .split_first()
        .ok_or_else(|| String::from("missing value-stream mode byte"))?;
    if mode > MODE_RAW {
        return Err(format!("unknown value-stream mode {mode}"));
    }

    // Pc dictionary: gap-coded, at most one entry per record.
    let dict_len = take_varint(&mut rest).map_err(|e| format!("dictionary length: {e}"))?;
    if dict_len > records {
        return Err(format!(
            "dictionary declares {dict_len} pcs for {records} records"
        ));
    }
    let mut dict: Vec<u64> = Vec::with_capacity(dict_len as usize);
    let mut prev = 0u64;
    for i in 0..dict_len {
        let gap = take_varint(&mut rest).map_err(|e| format!("dictionary entry {i}: {e}"))?;
        let pc = if i == 0 {
            gap
        } else {
            prev.checked_add(gap)
                .ok_or_else(|| format!("dictionary entry {i} overflows"))?
        };
        dict.push(pc);
        prev = pc;
    }
    // The frequency permutation, inverted: id_by_rank[rank of sorted
    // entry i] = bucket id of entry i. Every rank must be in range and
    // hit exactly once.
    let mut id_by_rank: Vec<u32> = vec![u32::MAX; dict.len()];
    let mut id = 0u32;
    for (i, &pc) in dict.iter().enumerate() {
        let r = take_varint(&mut rest).map_err(|e| format!("dictionary rank {i}: {e}"))?;
        let slot = id_by_rank
            .get_mut(r as usize)
            .ok_or_else(|| format!("dictionary rank {r} outside {dict_len} entries"))?;
        if *slot != u32::MAX {
            return Err(format!("dictionary rank {r} assigned twice"));
        }
        if i > 0 && pc != dict[i - 1] {
            id += 1;
        }
        *slot = id;
    }
    dict.dedup();

    // Pc stream: one symbol per record. Records hold their bucket id in
    // `value` until the values are dealt out below.
    let pc_len = take_varint(&mut rest).map_err(|e| format!("pc stream length: {e}"))?;
    if pc_len > rest.len() as u64 {
        return Err(format!(
            "pc stream length {pc_len} exceeds the {} payload bytes",
            rest.len()
        ));
    }
    let (mut pcs, mut values) = rest.split_at(pc_len as usize);
    let mut out: Vec<TraceRecord> = Vec::with_capacity(records as usize);
    let mut strays = 0usize;
    let mut prev_pc = 0u64;
    let mut prev_id = STRAY;
    for _ in 0..records {
        let symbol = take_varint(&mut pcs).map_err(|e| format!("pc stream: {e}"))?;
        let (pc, id) = if symbol == 0 {
            let pc = prev_pc.wrapping_add(PC_STEP);
            let next = prev_id.wrapping_add(1);
            let id = if dict.get(next as usize) == Some(&pc) {
                next
            } else if let Ok(i) = dict.binary_search(&pc) {
                i as u32
            } else {
                strays += 1;
                STRAY
            };
            (pc, id)
        } else {
            let id = *id_by_rank
                .get(symbol as usize - 1)
                .ok_or_else(|| format!("pc symbol {symbol} outside {dict_len}-entry dictionary"))?;
            (dict[id as usize], id)
        };
        out.push(TraceRecord::new(pc, u64::from(id)));
        prev_pc = pc;
        prev_id = id;
    }
    if !pcs.is_empty() {
        return Err(format!(
            "{} unused pc-stream bytes after the last record",
            pcs.len()
        ));
    }
    let mut ids = dict.len();
    drop(id_by_rank);
    drop(dict);
    if strays > 0 {
        let mut stray_pcs: Vec<u64> = Vec::with_capacity(strays);
        stray_pcs.extend(
            out.iter()
                .filter(|r| r.value == u64::from(STRAY))
                .map(|r| r.pc),
        );
        stray_pcs.sort_unstable();
        stray_pcs.dedup();
        for r in out.iter_mut().filter(|r| r.value == u64::from(STRAY)) {
            let i = stray_pcs.binary_search(&r.pc).expect("collected above");
            r.value = (ids + i) as u64;
        }
        ids += stray_pcs.len();
    }

    // Bucket sizes. The value stream holds the buckets in order of each
    // pc's first appearance, so the first record of a bucket decodes the
    // whole bucket onto the end of `flat`, and its slot turns from the
    // bucket's size into its cursor there.
    let mut slots = vec![0u32; ids];
    for r in &out {
        slots[r.value as usize] += 1;
    }
    let mut flat: Vec<u64> = Vec::with_capacity(records as usize);
    let mut bucket = 0usize;
    for r in &mut out {
        let slot = &mut slots[r.value as usize];
        if *slot & BUCKET_OPEN == 0 {
            let size = *slot;
            *slot = flat.len() as u32 | BUCKET_OPEN;
            let mut prev = 0i64;
            for _ in 0..size {
                let field =
                    take_varint(&mut values).map_err(|e| format!("value bucket {bucket}: {e}"))?;
                let value = match mode {
                    MODE_BUCKET_DELTA => prev.wrapping_add(unzigzag(field)),
                    _ => field as i64,
                };
                flat.push(value as u64);
                prev = value;
            }
            bucket += 1;
        }
        r.value = flat[(*slot & !BUCKET_OPEN) as usize];
        *slot += 1;
    }
    if !values.is_empty() {
        return Err(format!(
            "{} unused value-stream bytes after the last record",
            values.len()
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Chunk wire format
// ---------------------------------------------------------------------

/// One undecoded v3 chunk: framing fields plus the raw compressed
/// payload, as [`V3ChunkReader`] yields it. Every chunk decodes with no
/// state from its neighbours.
#[derive(Debug, Clone)]
pub struct V3RawChunk {
    /// Zero-based position of this chunk in the file.
    pub index: usize,
    /// Records the chunk holds.
    pub records: u64,
    /// Declared uncompressed (bit-packed) payload size in bytes.
    pub packed_bytes: u64,
    /// CRC-32 (IEEE) stored in the file for the compressed payload.
    pub crc_stored: u32,
    /// The compressed chunk payload.
    pub payload: Vec<u8>,
}

impl V3RawChunk {
    /// Decompresses and unpacks the payload. The bomb guard runs first,
    /// then the CRC check: this is the one place a v3 payload is checked.
    ///
    /// Allocation is bounded by the declared packed size, which the bomb
    /// guard checks against [`max_packed_len`] and the expansion ratio
    /// before anything is decompressed, so a hand-crafted chunk cannot
    /// demand more than one chunk's worst case.
    ///
    /// # Errors
    ///
    /// `InvalidData` carrying [`TraceFormatError::ChunkCrcMismatch`],
    /// [`TraceFormatError::DecompressionBomb`], or
    /// [`TraceFormatError::TruncatedTail`] for payloads that fail to
    /// decompress or unpack.
    pub fn decode(&self) -> io::Result<Vec<TraceRecord>> {
        if let Some(e) = bomb_guard(
            self.index,
            self.records,
            self.packed_bytes,
            self.payload.len() as u64,
        ) {
            return Err(e.into());
        }
        let computed = crc32(&self.payload);
        if computed != self.crc_stored {
            return Err(TraceFormatError::ChunkCrcMismatch {
                chunk: self.index,
                stored: self.crc_stored,
                computed,
            }
            .into());
        }
        let packed = decompress(&self.payload, self.packed_bytes as usize)
            .map_err(|e| undecodable(self.index, e))?;
        unpack_records(&packed, self.records).map_err(|detail| undecodable(self.index, detail))
    }

    /// An upper bound on the peak bytes [`decode`](Self::decode)
    /// allocates, for any payload these framing fields admit: the packed
    /// buffer, plus the larger of the decompressor's token scratch and
    /// the unpacker's working set. The token scratch is freed before
    /// unpacking starts. Unpacking holds the decoded records, a flat
    /// array of their values, and a `u32` bucket slot per dictionary
    /// entry and per pc missing from the dictionary: up to two slots per
    /// record in a corrupt chunk.
    pub fn decode_footprint(&self) -> u64 {
        use std::mem::size_of;
        let per_record = size_of::<TraceRecord>() + size_of::<u64>() + 2 * size_of::<u32>();
        let unpack = self.records * per_record as u64;
        let tokens = max_token_len(self.packed_bytes as usize) as u64;
        self.packed_bytes + unpack.max(tokens)
    }
}

/// The bomb guard [`V3RawChunk::decode`] applies before any
/// payload-sized work: `None` when the declared sizes are consistent
/// with a legitimate writer.
fn bomb_guard(
    chunk: usize,
    records: u64,
    packed_bytes: u64,
    payload_bytes: u64,
) -> Option<TraceFormatError> {
    let over_cap = packed_bytes > max_packed_len(records);
    let over_ratio = packed_bytes > RATIO_EXEMPT_BYTES
        && packed_bytes / payload_bytes.max(1) > MAX_EXPANSION_RATIO;
    (over_cap || over_ratio).then_some(TraceFormatError::DecompressionBomb {
        chunk,
        declared: packed_bytes,
        compressed: payload_bytes,
    })
}

impl sealed::Framing for V3RawChunk {
    const MAGIC: &'static [u8; 8] = MAGIC_V3;
    const VERSION: u8 = 3;
    const CHUNK_RECORDS: usize = V3_CHUNK_RECORDS;
    const PACKED: bool = true;

    /// The compressed-size bound: the stored fallback plus container
    /// slack. It holds even when the declared packed size is a bomb, so
    /// salvage can step over a bomb chunk and drop only that one.
    fn max_payload(records: u64) -> u64 {
        max_packed_len(records) + 64
    }

    fn from_frame(frame: sealed::Frame) -> Self {
        V3RawChunk {
            index: frame.index,
            records: frame.records,
            packed_bytes: frame.unpacked,
            crc_stored: frame.crc_stored,
            payload: frame.payload,
        }
    }
}

impl TraceChunk for V3RawChunk {
    fn decode(&self) -> io::Result<Vec<TraceRecord>> {
        V3RawChunk::decode(self)
    }
}

/// A v3 chunk stream, created by [`v3_chunks`] or
/// [`ChunkReader::open`]. It holds at most one compressed chunk, and a
/// [`V3RawChunk::decode`] adds at most one decoded chunk, so a full-file
/// scan runs in a single-chunk working set regardless of file size.
pub type V3ChunkReader<R> = ChunkReader<V3RawChunk, R>;

/// Opens a v3 chunk stream over `reader`, which must be positioned at
/// the start of a `DFCMTRC3` file (magic included).
///
/// # Errors
///
/// Returns `InvalidData` carrying [`TraceFormatError::BadMagic`] for
/// other formats and unrecognized magic and
/// [`TraceFormatError::BadHeader`] for a stream shorter than the magic
/// or an unreadable header; propagates I/O errors from the reader.
pub fn v3_chunks<R: Read>(reader: R) -> io::Result<V3ChunkReader<R>> {
    ChunkReader::new(reader)
}

// ---------------------------------------------------------------------
// Streaming writer
// ---------------------------------------------------------------------

/// Writes a v3 trace incrementally, one chunk at a time, so a trace of
/// any length can be emitted without ever materializing it: the writer
/// holds at most one chunk of records plus its encoding scratch.
///
/// The record count goes in the header up front, so it must be declared
/// at construction; [`finish`](V3StreamWriter::finish) enforces that
/// exactly that many records were pushed.
///
/// ```
/// use dfcm_trace::{Trace, TraceRecord, V3StreamWriter};
///
/// let mut out = Vec::new();
/// let mut w = V3StreamWriter::new(&mut out, 3, 42).unwrap();
/// for i in 0..3 {
///     w.push(TraceRecord::new(0x400 + 4 * i, i)).unwrap();
/// }
/// w.finish().unwrap();
/// assert_eq!(Trace::read_from(&out[..]).unwrap().len(), 3);
/// ```
#[derive(Debug)]
pub struct V3StreamWriter<W: Write> {
    w: W,
    declared: u64,
    written: u64,
    buf: Vec<TraceRecord>,
}

impl<W: Write> V3StreamWriter<W> {
    /// Starts a v3 stream declaring `records` records and stamping
    /// `seed` into the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the magic and header.
    pub fn new(mut w: W, records: u64, seed: u64) -> io::Result<Self> {
        w.write_all(MAGIC_V3)?;
        let mut header = Vec::with_capacity(24);
        write_varint(&mut header, records)?;
        write_varint(&mut header, seed)?;
        write_varint(&mut header, 0)?; // flags
        write_varint(&mut w, header.len() as u64)?;
        w.write_all(&header)?;
        Ok(V3StreamWriter {
            w,
            declared: records,
            written: 0,
            buf: Vec::with_capacity(V3_CHUNK_RECORDS.min(records as usize)),
        })
    }

    /// Appends one record, flushing a full chunk to the writer.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when more records than declared are pushed;
    /// otherwise propagates I/O errors.
    pub fn push(&mut self, record: TraceRecord) -> io::Result<()> {
        if self.written == self.declared {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("trace declared {} records, got more", self.declared),
            ));
        }
        self.buf.push(record);
        self.written += 1;
        if self.buf.len() == V3_CHUNK_RECORDS {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        let packed = pack_records(&self.buf);
        let payload = compress(&packed);
        write_varint(&mut self.w, self.buf.len() as u64)?;
        write_varint(&mut self.w, packed.len() as u64)?;
        write_varint(&mut self.w, payload.len() as u64)?;
        self.w.write_all(&crc32(&payload).to_le_bytes())?;
        self.w.write_all(&payload)?;
        self.buf.clear();
        Ok(())
    }

    /// Flushes the final partial chunk and validates the record count,
    /// returning the underlying writer.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when fewer records than declared were pushed
    /// (the header would lie); otherwise propagates I/O errors.
    pub fn finish(mut self) -> io::Result<W> {
        if self.written != self.declared {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "trace declared {} records, got {}",
                    self.declared, self.written
                ),
            ));
        }
        if !self.buf.is_empty() {
            self.flush_chunk()?;
        }
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Writes a buffered trace in the v3 format (the [`Trace::write_with`]
/// body for [`crate::TraceFormat::V3`]).
pub(crate) fn write_v3<W: Write>(trace: &Trace, w: W, seed: u64) -> io::Result<()> {
    let mut writer = V3StreamWriter::new(w, trace.len() as u64, seed)?;
    for r in trace {
        writer.push(*r)?;
    }
    writer.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::TraceFormat;
    use crate::reference;
    use crate::rng::SplitMix64;
    use crate::TraceSource;
    use proptest::prelude::*;

    fn mixed_trace(records: usize, salt: u64) -> Trace {
        let mut rng = SplitMix64::new(salt);
        (0..records as u64)
            .map(|i| {
                // Loop-like pcs, a mix of stride, constant, and random
                // values — exercises both block value modes.
                let pc = 0x40_0000 + 4 * (i % 331);
                let value = match i % 4 {
                    0 => i * 8,
                    1 => 7,
                    2 => rng.next_u64() & 0xFFFF_FFFF,
                    _ => i.wrapping_mul(0x9E37_79B9),
                };
                TraceRecord::new(pc, value)
            })
            .collect()
    }

    #[test]
    fn pack_roundtrip() {
        for records in [1usize, 2, 127, 128, 129, 1000, 4096] {
            let trace = mixed_trace(records, records as u64);
            let packed = pack_records(trace.records());
            assert!(packed.len() as u64 <= max_packed_len(records as u64));
            let restored = unpack_records(&packed, records as u64).unwrap();
            assert_eq!(restored, trace.records());
        }
    }

    #[test]
    fn pack_handles_extreme_values() {
        let trace: Trace = vec![
            TraceRecord::new(0, 0),
            TraceRecord::new(u64::MAX, u64::MAX),
            TraceRecord::new(0, 1),
            TraceRecord::new(u64::MAX / 2, u64::MAX / 2 + 3),
        ]
        .into_iter()
        .collect();
        let packed = pack_records(trace.records());
        let restored = unpack_records(&packed, 4).unwrap();
        assert_eq!(restored, trace.records());
    }

    #[test]
    fn file_roundtrip_multi_chunk() {
        let trace = mixed_trace(2 * V3_CHUNK_RECORDS + 777, 5);
        let mut bytes = Vec::new();
        write_v3(&trace, &mut bytes, 99).unwrap();
        let restored = Trace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(trace, restored);
        // And the chunk reader agrees, chunk by chunk.
        let reader = v3_chunks(bytes.as_slice()).unwrap();
        assert_eq!(reader.seed(), 99);
        assert_eq!(reader.declared_records(), trace.len() as u64);
        let mut all = Vec::new();
        for chunk in reader {
            all.extend(chunk.unwrap().decode().unwrap());
        }
        assert_eq!(all, trace.records());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = Trace::new();
        let mut bytes = Vec::new();
        write_v3(&trace, &mut bytes, 0).unwrap();
        assert_eq!(Trace::read_from(bytes.as_slice()).unwrap().len(), 0);
        let report = crate::salvage_trace(bytes.as_slice()).unwrap();
        assert!(report.intact());
    }

    #[test]
    fn streaming_writer_matches_buffered() {
        let trace = mixed_trace(V3_CHUNK_RECORDS + 100, 11);
        let mut buffered = Vec::new();
        trace
            .write_with(&mut buffered, TraceFormat::V3 { seed: 4 })
            .unwrap();
        let mut streamed = Vec::new();
        let mut w = V3StreamWriter::new(&mut streamed, trace.len() as u64, 4).unwrap();
        for r in &trace {
            w.push(*r).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(buffered, streamed);
    }

    #[test]
    fn writer_enforces_declared_count() {
        let mut out = Vec::new();
        let mut w = V3StreamWriter::new(&mut out, 2, 0).unwrap();
        w.push(TraceRecord::new(0, 0)).unwrap();
        assert!(w.finish().is_err(), "undershoot refused");

        let mut out = Vec::new();
        let mut w = V3StreamWriter::new(&mut out, 1, 0).unwrap();
        w.push(TraceRecord::new(0, 0)).unwrap();
        assert!(w.push(TraceRecord::new(0, 1)).is_err(), "overshoot refused");
    }

    #[test]
    fn bomb_guard_trips_on_oversized_declaration() {
        // A chunk declaring far more packed bytes than 65536 records
        // can legitimately produce.
        let e = bomb_guard(0, 100, max_packed_len(100) + 1, 50).unwrap();
        assert!(matches!(e, TraceFormatError::DecompressionBomb { .. }));
        // Ratio violation: 1MB declared from a 16-byte payload.
        let e = bomb_guard(0, 65536, 1 << 20, 16).unwrap();
        assert!(matches!(e, TraceFormatError::DecompressionBomb { .. }));
        // Legit chunks pass.
        assert!(bomb_guard(0, 65536, 1 << 20, 2048).is_none());
        assert!(bomb_guard(0, 100, 1600, 200).is_none());
    }

    /// `records` records from suite benchmark `bench`, or from
    /// [`mixed_trace`] for indexes past the suite.
    fn chunk_records(bench: usize, records: usize, seed: u64) -> Vec<TraceRecord> {
        match crate::suite::standard_suite().get(bench) {
            Some(spec) => spec.program(seed).take_trace(records).records().to_vec(),
            None => mixed_trace(records, seed).records().to_vec(),
        }
    }

    /// Applies `(position, op, byte)` edits: op picks an xor with a
    /// nonzero mask, a zeroed byte, or an overwrite, and bit 2 of op
    /// aims the edit at the first eighth of the buffer, where the
    /// headers, the dictionary and the pc stream sit.
    fn edit(bytes: &mut [u8], edits: &[(u32, u8, u8)]) {
        for &(pos, op, byte) in edits {
            let span = if op & 4 != 0 {
                bytes.len() / 8
            } else {
                bytes.len()
            };
            let Some(at) = (pos as usize).checked_rem(span) else {
                continue;
            };
            match op % 3 {
                0 => bytes[at] ^= byte.max(1),
                1 => bytes[at] = 0,
                _ => bytes[at] = byte,
            }
        }
    }

    /// Both decoders accept with equal output, or both reject with the
    /// same diagnosis.
    fn agree<T: PartialEq + std::fmt::Debug, E: std::fmt::Display>(
        fast: Result<T, E>,
        naive: Result<T, E>,
    ) -> Result<(), String> {
        match (fast, naive) {
            (Ok(a), Ok(b)) if a == b => Ok(()),
            (Err(a), Err(b)) if a.to_string() == b.to_string() => Ok(()),
            (a, b) => Err(format!(
                "decoder {:?} vs reference {:?}",
                a.map_err(|e| e.to_string()),
                b.map_err(|e| e.to_string())
            )),
        }
    }

    proptest! {
        /// The unpacker against the naive reference on packed chunks
        /// with edited bytes and misdeclared record counts.
        #[test]
        fn unpack_agrees_with_reference(
            bench in 0usize..10,
            records in 1usize..2500,
            seed in any::<u64>(),
            mutants in prop::collection::vec(
                (prop::collection::vec((any::<u32>(), any::<u8>(), any::<u8>()), 1..5), 0u64..8),
                8..9,
            ),
        ) {
            let chunk = chunk_records(bench, records, seed);
            let packed = pack_records(&chunk);
            prop_assert_eq!(unpack_records(&packed, records as u64), Ok(chunk));
            for (edits, skew) in &mutants {
                let mut bad = packed.clone();
                edit(&mut bad, edits);
                // Mostly the true count; sometimes a few off either way.
                let declared = match skew {
                    0 => records as u64 - 1,
                    1 => records as u64 + 1 + (seed % 3),
                    _ => records as u64,
                };
                let verdict = agree(
                    unpack_records(&bad, declared),
                    reference::unpack_records(&bad, declared),
                );
                prop_assert!(verdict.is_ok(), "{} on {} records", verdict.unwrap_err(), declared);
            }
        }

        /// The decompressor against the naive reference on compressed
        /// chunks with edited bytes, cut short, or held to a wrong
        /// declared length.
        #[test]
        fn decompress_agrees_with_reference(
            bench in 0usize..10,
            records in 1usize..2500,
            seed in any::<u64>(),
            mutants in prop::collection::vec(
                (prop::collection::vec((any::<u32>(), any::<u8>(), any::<u8>()), 0..5), 0u32..1000, 0u64..8),
                8..9,
            ),
        ) {
            let packed = pack_records(&chunk_records(bench, records, seed));
            let payload = compress(&packed);
            prop_assert_eq!(decompress(&payload, packed.len()).ok(), Some(packed.clone()));
            for (edits, cut, skew) in &mutants {
                let mut bad = payload.clone();
                edit(&mut bad, edits);
                // Three mutants in ten are also cut short.
                if *cut < 300 {
                    bad.truncate(bad.len() * *cut as usize / 300);
                }
                let declared = match skew {
                    0 => packed.len().saturating_sub(1 + (seed % 5) as usize),
                    1 => packed.len() + 1,
                    _ => packed.len(),
                };
                let verdict = agree(
                    decompress(&bad, declared),
                    reference::decompress(&bad, declared),
                );
                prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
            }
        }
    }

    #[test]
    fn unpack_buckets_duplicate_entries_and_pcs_missing_from_the_dictionary() {
        // Hand-packed raw-mode chunk: the dictionary lists 4, 8 and 8
        // again (a zero gap), so symbols 2 and 3 both mean pc 8; the
        // symbol-0 successors 12 and 16 are in no dictionary entry.
        let mut packed = vec![MODE_RAW];
        for v in [3, 4, 4, 0, 0, 1, 2] {
            write_varint(&mut packed, v).unwrap(); // length, gaps, ranks
        }
        let symbols = [0u8, 0, 0, 3, 0, 0, 1];
        write_varint(&mut packed, symbols.len() as u64).unwrap();
        packed.extend_from_slice(&symbols);
        // Buckets in first-appearance order: pc 4, 8, 12, 16.
        for v in [1, 2, 10, 11, 20, 21, 30] {
            write_varint(&mut packed, v).unwrap();
        }
        let expected: Vec<TraceRecord> = [
            (4, 1),
            (8, 10),
            (12, 20),
            (8, 11),
            (12, 21),
            (16, 30),
            (4, 2),
        ]
        .iter()
        .map(|&(pc, v)| TraceRecord::new(pc, v))
        .collect();
        assert_eq!(reference::unpack_records(&packed, 7), Ok(expected.clone()));
        assert_eq!(unpack_records(&packed, 7), Ok(expected));
    }

    #[test]
    fn density_beats_v2_on_suite_like_data() {
        let trace = mixed_trace(100_000, 3);
        let mut v2 = Vec::new();
        trace.write_v2_to(&mut v2, 0).unwrap();
        let mut v3 = Vec::new();
        write_v3(&trace, &mut v3, 0).unwrap();
        assert!(
            v3.len() < v2.len(),
            "v3 {} bytes should beat v2 {} bytes",
            v3.len(),
            v2.len()
        );
    }
}
