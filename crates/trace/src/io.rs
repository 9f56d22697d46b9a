//! Compact binary serialization for value traces: the legacy `DFCMTRC1`
//! format, the checksummed, salvageable `DFCMTRC2` format, and the one
//! reader of both chunked formats, `DFCMTRC2` and the compressed
//! `DFCMTRC3` (whose encoding lives in the `v3` module).
//!
//! Traces regenerate deterministically from seeds, but saving them is
//! useful for sharing workloads across tools and for freezing a trace
//! against generator changes. Trace files cross a trust boundary — they
//! may arrive truncated, bit-flipped or maliciously crafted — so readers
//! never assume well-formedness: every failure decodes to a typed
//! [`TraceFormatError`], never a panic or a silently wrong trace.
//!
//! # v1 (`DFCMTRC1`, legacy)
//!
//! ```text
//! magic   8 bytes  "DFCMTRC1"
//! count   varint   number of records
//! records          per record: zigzag-varint delta of pc (vs previous
//!                  record's pc), then varint value
//! ```
//!
//! v1 has no integrity protection: truncation is detected (the record
//! count is known up front) but bit flips decode silently. It remains
//! fully readable; [`Trace::read_from`] auto-detects the version. v1 has
//! no chunks on disk, but [`V1Reader`] reads it in chunks of
//! [`V2_CHUNK_RECORDS`] records, so every reader of it holds one chunk at
//! a time.
//!
//! # v2 (`DFCMTRC2`, default for [`Trace::save`])
//!
//! ```text
//! magic    8 bytes  "DFCMTRC2"
//! hlen     varint   byte length of the header payload
//! header            varint record count, varint generator seed,
//!                   varint format flags (must be 0); readers ignore
//!                   bytes past the fields they know, so the header can
//!                   grow compatibly
//! chunks            until `count` records are accounted for:
//!   records varint  records in this chunk (1 ..= 65536)
//!   bytes   varint  byte length of the chunk payload
//!   crc32   4 bytes CRC-32 (IEEE, LE) of the chunk payload
//!   payload         delta-encoded records as in v1; the pc delta chain
//!                   restarts at 0 each chunk, so every chunk decodes
//!                   independently
//! ```
//!
//! Writers emit 64Ki records per chunk (the last chunk holds the
//! remainder). Because each chunk carries its own length and checksum,
//! a corrupted file is *salvageable*: [`salvage_trace`] recovers every
//! intact chunk, skips corrupt ones, and reports exactly what was
//! dropped. [`inspect_trace`] reports the header and per-chunk CRC
//! status without failing. Both hold one chunk at a time.
//!
//! PC deltas are small (loops revisit nearby code), so a typical suite
//! trace compresses to a handful of bytes per record in either version.
//!
//! # v3 (`DFCMTRC3`, compressed)
//!
//! The paper-scale tier: v2's chunked, salvageable framing with each
//! chunk bit-packed and then LZ+Huffman compressed, reaching a few bits
//! per record. Layout, packing, the streaming writer and the
//! decompression-bomb guards are documented in the `v3` module.
//!
//! # Reading
//!
//! [`TraceFile`] reads the magic, the one place the formats are told
//! apart, and opens any of the three. Both chunked formats are framed by
//! one [`ChunkReader`], generic over the format's chunk type
//! ([`RawChunk`] or [`V3RawChunk`](crate::V3RawChunk)), and a chunk's own
//! `decode` is the only place its payload is checked. v1 records are read
//! by one [`V1Reader`]. [`Trace::read_from`], [`salvage_trace`],
//! [`inspect_trace`] and the streaming pipeline are all loops over these
//! two readers.

use std::ffi::OsString;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::crc::crc32;
use crate::record::{Trace, TraceRecord};
use crate::v3::{write_v3, V3ChunkReader, MAGIC_V3};

const MAGIC_V1: &[u8; 8] = b"DFCMTRC1";
const MAGIC_V2: &[u8; 8] = b"DFCMTRC2";

/// Records per v2 chunk (the last chunk of a file holds the remainder).
pub const V2_CHUNK_RECORDS: usize = 1 << 16;

/// Upper bound on a v2 header payload; anything larger is corruption.
const MAX_HEADER_BYTES: u64 = 4096;

/// A varint-encoded record is at most two 10-byte varints.
const MAX_RECORD_BYTES: u64 = 20;

/// Trust the header's count only up to a bounded pre-allocation: a
/// crafted small file could otherwise demand terabytes before a single
/// record is read. Larger traces grow as records actually arrive.
pub(crate) const MAX_PREALLOC: u64 = 1 << 20;

/// Headers claiming more records than this are rejected outright.
const MAX_PLAUSIBLE_RECORDS: u64 = 1 << 40;

/// Fallback staleness age for orphan staging files on platforms where
/// process liveness cannot be checked.
const STALE_STAGING_AGE: Duration = Duration::from_secs(3600);

/// On-disk format selector for [`Trace::save_with`] /
/// [`Trace::write_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// The legacy unchecksummed format.
    V1,
    /// The chunked, CRC-checked format, stamping the generator seed into
    /// the header (use 0 when the seed is unknown or not applicable).
    V2 {
        /// Generator seed recorded in the file header.
        seed: u64,
    },
    /// The compressed format: v2's chunked framing with bit-packed,
    /// LZ+Huffman-compressed payloads (see the crate docs on v3). The
    /// format of choice for paper-scale traces.
    V3 {
        /// Generator seed recorded in the file header.
        seed: u64,
    },
}

impl Default for TraceFormat {
    /// The version knob's default: v2 with no recorded seed.
    fn default() -> Self {
        TraceFormat::V2 { seed: 0 }
    }
}

/// A typed classification of why a trace file failed to decode.
///
/// Reader functions return these wrapped in an [`io::Error`] of kind
/// [`io::ErrorKind::InvalidData`]; [`TraceFormatError::classify`]
/// recovers the typed value from such an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFormatError {
    /// The first eight bytes match neither known magic.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 8],
    },
    /// The file header is unreadable or self-inconsistent.
    BadHeader {
        /// What was wrong.
        detail: String,
    },
    /// A chunk's payload does not match its stored CRC-32.
    ChunkCrcMismatch {
        /// Zero-based chunk index.
        chunk: usize,
        /// The checksum stored in the file.
        stored: u32,
        /// The checksum of the payload as read.
        computed: u32,
    },
    /// The file ends (or its framing becomes unreadable) before all
    /// declared records are accounted for.
    TruncatedTail {
        /// Zero-based index of the first unreadable chunk.
        chunk: usize,
        /// What was wrong.
        detail: String,
    },
    /// A v3 chunk declares an uncompressed size no legitimate writer
    /// could produce — larger than the worst-case packed size for its
    /// record count, or implausibly expanded relative to its compressed
    /// payload. The declaration is rejected *before* any payload-sized
    /// allocation, so a crafted file cannot demand memory beyond one
    /// chunk's structural bound.
    DecompressionBomb {
        /// Zero-based chunk index.
        chunk: usize,
        /// The uncompressed size the chunk declares.
        declared: u64,
        /// The compressed payload size the chunk declares.
        compressed: u64,
    },
}

impl fmt::Display for TraceFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormatError::BadMagic { found } => {
                write!(f, "not a dfcm trace file (magic {:02x?})", found)
            }
            TraceFormatError::BadHeader { detail } => write!(f, "bad trace header: {detail}"),
            TraceFormatError::ChunkCrcMismatch {
                chunk,
                stored,
                computed,
            } => write!(
                f,
                "chunk {chunk} CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            TraceFormatError::TruncatedTail { chunk, detail } => {
                write!(f, "truncated at chunk {chunk}: {detail}")
            }
            TraceFormatError::DecompressionBomb {
                chunk,
                declared,
                compressed,
            } => write!(
                f,
                "chunk {chunk} is a decompression bomb \
                 ({declared} declared bytes from {compressed} compressed)"
            ),
        }
    }
}

impl std::error::Error for TraceFormatError {}

impl From<TraceFormatError> for io::Error {
    fn from(e: TraceFormatError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

impl TraceFormatError {
    /// Recovers the typed format error carried by an [`io::Error`], if
    /// that error came from a trace reader.
    pub fn classify(e: &io::Error) -> Option<&TraceFormatError> {
        e.get_ref().and_then(|inner| inner.downcast_ref())
    }
}

/// A unique sibling path for staging an atomic write of `path`.
fn staging_path(path: &Path) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map(OsString::from)
        .unwrap_or_else(|| OsString::from("out"));
    name.push(format!(".tmp.{}.{n}", std::process::id()));
    path.with_file_name(name)
}

/// Whether the process with id `pid` is alive; `None` when the platform
/// offers no way to tell.
fn process_alive(pid: u32) -> Option<bool> {
    if Path::new("/proc").is_dir() {
        Some(Path::new(&format!("/proc/{pid}")).exists())
    } else {
        None
    }
}

/// Best-effort removal of orphaned staging files left next to `path` by
/// crashed atomic writes: siblings named `<file>.tmp.<pid>.<n>` whose
/// writing process is gone (or, where liveness cannot be checked, whose
/// mtime is over an hour old). Our own process's staging files are never
/// touched — another thread may be mid-write.
fn sweep_stale_staging(path: &Path) {
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return;
    };
    let Some(name) = path.file_name() else {
        return;
    };
    let prefix = format!("{}.tmp.", name.to_string_lossy());
    let Ok(entries) = fs::read_dir(parent) else {
        return;
    };
    for entry in entries.flatten() {
        let file_name = entry.file_name();
        let Some(rest) = file_name
            .to_string_lossy()
            .strip_prefix(&prefix)
            .map(str::to_owned)
        else {
            continue;
        };
        let Some(pid) = rest.split('.').next().and_then(|p| p.parse::<u32>().ok()) else {
            continue;
        };
        if pid == std::process::id() {
            continue;
        }
        let stale = match process_alive(pid) {
            Some(alive) => !alive,
            None => entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age > STALE_STAGING_AGE),
        };
        if stale {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Writes a file atomically: the content is streamed to a temporary file
/// in the same directory (created if missing), flushed and synced, then
/// renamed over `path`. A crash or write error can therefore never leave
/// a truncated artifact under the final name — readers see either the
/// previous complete file or the new complete file. Orphaned staging
/// files from previously crashed writers are swept first (see the module
/// source), so crashes do not accumulate `*.tmp.<pid>.<n>` litter.
///
/// # Errors
///
/// Propagates I/O errors from directory creation, the `write` closure,
/// or the final rename; the temporary file is removed on failure.
pub fn atomic_write_with<F>(path: &Path, write: F) -> io::Result<()>
where
    F: FnOnce(&mut BufWriter<File>) -> io::Result<()>,
{
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    sweep_stale_staging(path);
    let staged = staging_path(path);
    let result = (|| {
        let mut w = BufWriter::new(File::create(&staged)?);
        write(&mut w)?;
        w.flush()?;
        // Durability ordering: the temp file's *data* must be on stable
        // storage before the rename publishes it, or a power loss right
        // after the rename could surface an empty/truncated "atomic"
        // artifact under the final name.
        w.get_ref().sync_all()?;
        fs::rename(&staged, path)?;
        // Best-effort: persist the rename itself (the directory entry).
        // Failure to sync the directory does not un-write the file, and
        // some filesystems/platforms reject directory fsync — so errors
        // here are ignored rather than failing an already-complete write.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&staged);
    }
    result
}

/// [`atomic_write_with`] over a ready byte buffer.
///
/// # Errors
///
/// As [`atomic_write_with`].
pub fn atomic_write(path: &Path, contents: &[u8]) -> io::Result<()> {
    atomic_write_with(path, |w| w.write_all(contents))
}

/// A [`Write`] adapter that injects a deterministic I/O fault after a
/// byte budget: writes succeed until `budget` bytes have been accepted,
/// then every write fails with an "injected write fault" error. Used by
/// the fault-tolerance tests to prove that atomic saves never leave
/// truncated artifacts and that transient-error retries recover.
#[derive(Debug)]
pub struct FaultyWriter<W> {
    inner: W,
    remaining: u64,
}

impl<W: Write> FaultyWriter<W> {
    /// Wraps `inner`, allowing `budget` bytes through before faulting.
    pub fn new(inner: W, budget: u64) -> Self {
        FaultyWriter {
            inner,
            remaining: budget,
        }
    }

    /// The wrapped writer (with whatever bytes made it through).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(io::Error::other("injected write fault"));
        }
        let allowed = (buf.len() as u64).min(self.remaining) as usize;
        let written = self.inner.write(&buf[..allowed])?;
        self.remaining -= written as u64;
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The [`Read`] counterpart of [`FaultyWriter`]: reads succeed until
/// `budget` bytes have been produced, then fail with an "injected read
/// fault" error.
#[derive(Debug)]
pub struct FaultyReader<R> {
    inner: R,
    remaining: u64,
}

impl<R: Read> FaultyReader<R> {
    /// Wraps `inner`, allowing `budget` bytes through before faulting.
    pub fn new(inner: R, budget: u64) -> Self {
        FaultyReader {
            inner,
            remaining: budget,
        }
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(io::Error::other("injected read fault"));
        }
        let allowed = (buf.len() as u64).min(self.remaining) as usize;
        let read = self.inner.read(&mut buf[..allowed])?;
        self.remaining -= read as u64;
        Ok(read)
    }
}

/// Writes `v` as an LEB128 varint (7 payload bits per byte, high bit =
/// continuation). This is the integer encoding used throughout the trace
/// formats and, via reuse, the serving daemon's frame protocol and
/// snapshot format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads a varint written by [`write_varint`]. Non-canonical encodings
/// (payload bits shifted past bit 63, or an 11th byte) are rejected as
/// `InvalidData` rather than silently truncated.
///
/// # Errors
///
/// Propagates I/O errors; returns `InvalidData` for over-long or
/// overflowing encodings.
pub fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint too long",
            ));
        }
        let bits = u64::from(byte[0] & 0x7F);
        // The 10th byte (shift 63) only has room for one payload bit; any
        // bits that would be shifted out make the encoding non-canonical
        // and must not silently decode to a different value.
        if shift > 57 && bits >> (64 - shift) != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflows 64 bits",
            ));
        }
        value |= bits << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Reads a varint from the front of `buf` and advances past it: the
/// slice form of [`read_varint`] that the chunk decoders use. A
/// single-byte encoding (most pc deltas and pc-stream symbols) returns
/// at once; longer ones go through [`read_varint`] itself, so they get
/// its canonical and overflow checks and its errors.
#[inline]
pub(crate) fn take_varint(buf: &mut &[u8]) -> io::Result<u64> {
    match buf.split_first() {
        Some((&byte, rest)) if byte < 0x80 => {
            *buf = rest;
            Ok(u64::from(byte))
        }
        _ => read_varint(buf),
    }
}

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// True for error kinds that indicate corrupt or truncated input rather
/// than an environment failure.
pub(crate) fn is_corruption(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
    )
}

pub(crate) fn bad_header(detail: impl Into<String>) -> io::Error {
    TraceFormatError::BadHeader {
        detail: detail.into(),
    }
    .into()
}

pub(crate) fn truncated(chunk: usize, detail: impl Into<String>) -> io::Error {
    TraceFormatError::TruncatedTail {
        chunk,
        detail: detail.into(),
    }
    .into()
}

/// Parsed v2 file header. The v3 header shares the exact layout and
/// growth rules, so the v3 module reuses this parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct V2Header {
    pub(crate) records: u64,
    pub(crate) seed: u64,
    pub(crate) flags: u64,
}

pub(crate) fn read_v2_header<R: Read>(r: &mut R) -> io::Result<V2Header> {
    let hlen = read_varint(r).map_err(|e| {
        if is_corruption(&e) {
            bad_header(format!("unreadable header length: {e}"))
        } else {
            e
        }
    })?;
    if hlen > MAX_HEADER_BYTES {
        return Err(bad_header(format!("implausible header length {hlen}")));
    }
    let mut header = vec![0u8; hlen as usize];
    r.read_exact(&mut header).map_err(|e| {
        if is_corruption(&e) {
            bad_header("header cut short")
        } else {
            e
        }
    })?;
    let mut slice: &[u8] = &header;
    let field = |slice: &mut &[u8], name: &str| -> io::Result<u64> {
        read_varint(slice).map_err(|e| {
            if is_corruption(&e) {
                bad_header(format!("unreadable {name} field"))
            } else {
                e
            }
        })
    };
    let records = field(&mut slice, "record count")?;
    let seed = field(&mut slice, "seed")?;
    let flags = field(&mut slice, "flags")?;
    // Bytes past the known fields are reserved for compatible header
    // growth and ignored; unknown *flags* are not, since they may change
    // the record encoding.
    if flags != 0 {
        return Err(bad_header(format!("unsupported format flags {flags:#x}")));
    }
    if records > MAX_PLAUSIBLE_RECORDS {
        return Err(bad_header(format!("implausible record count {records}")));
    }
    Ok(V2Header {
        records,
        seed,
        flags,
    })
}

/// Reads a trace's 8-byte magic. A stream too short to hold it is a
/// corrupt file, not a read hiccup, so it fails as
/// [`TraceFormatError::BadHeader`].
fn read_magic<R: Read>(r: &mut R) -> io::Result<[u8; 8]> {
    let mut magic = [0u8; 8];
    match r.read_exact(&mut magic) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            Err(bad_header("file is shorter than the 8-byte magic"))
        }
        result => result.map(|()| magic),
    }
}

/// A trace opened by its magic: the one place the three formats are told
/// apart. [`Trace::read_from`], [`salvage_trace`], [`inspect_trace`] and
/// the streaming pipeline all start here.
#[derive(Debug)]
pub enum TraceFile<R> {
    /// A legacy `DFCMTRC1` trace's records, its count parsed.
    V1(V1Reader<R>),
    /// A `DFCMTRC2` trace's chunks, its header parsed.
    V2(V2ChunkReader<R>),
    /// A `DFCMTRC3` trace's chunks, its header parsed.
    V3(V3ChunkReader<R>),
}

impl<R: Read> TraceFile<R> {
    /// Opens the trace `reader` holds, positioned at its magic. Fails as
    /// [`TraceFile::open`] does.
    pub(crate) fn from_reader(mut reader: R) -> io::Result<Self> {
        let magic = read_magic(&mut reader)?;
        match &magic {
            MAGIC_V1 => V1Reader::after_magic(reader).map(TraceFile::V1),
            MAGIC_V2 => ChunkReader::after_magic(reader).map(TraceFile::V2),
            MAGIC_V3 => ChunkReader::after_magic(reader).map(TraceFile::V3),
            _ => Err(TraceFormatError::BadMagic { found: magic }.into()),
        }
    }

    /// The generator seed a v2/v3 header stamps; `None` for v1.
    pub fn seed(&self) -> Option<u64> {
        match self {
            TraceFile::V1(_) => None,
            TraceFile::V2(chunks) => Some(chunks.seed()),
            TraceFile::V3(chunks) => Some(chunks.seed()),
        }
    }

    /// Reads every record, failing on the first damaged chunk (or, in
    /// v1, record).
    ///
    /// # Errors
    ///
    /// As [`Trace::read_from`].
    pub fn into_trace(self) -> io::Result<Trace> {
        match self {
            TraceFile::V1(mut v1) => {
                let capacity = v1.declared_records().min(MAX_PREALLOC) as usize;
                let mut records = Vec::with_capacity(capacity);
                while v1.read_chunk(&mut records)? > 0 {}
                Ok(records.into_iter().collect())
            }
            TraceFile::V2(chunks) => read_chunks(chunks),
            TraceFile::V3(chunks) => read_chunks(chunks),
        }
    }
}

impl TraceFile<BufReader<File>> {
    /// Opens a trace file by its magic.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` carrying [`TraceFormatError::BadMagic`] for
    /// unrecognized magic and [`TraceFormatError::BadHeader`] for a file
    /// shorter than the magic or an unreadable header (a v1 record count
    /// included); propagates file-open and read errors.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        TraceFile::from_reader(BufReader::new(File::open(path)?))
    }
}

/// Reads the records of a legacy v1 trace up to [`V2_CHUNK_RECORDS`] at
/// a time: the one v1 record reader. The record count is parsed on
/// opening. A record the file does not hold whole is a
/// [`TraceFormatError::TruncatedTail`] (chunk 0: v1 is one chunk), so a
/// damaged file fails as a damaged v2/v3 file does; other I/O errors pass
/// through. Stop reading at the first error.
#[derive(Debug)]
pub struct V1Reader<R> {
    reader: R,
    declared: u64,
    read: u64,
    prev_pc: i64,
}

impl<R: Read> V1Reader<R> {
    /// A record reader over `reader`, positioned right after the magic.
    fn after_magic(mut reader: R) -> io::Result<Self> {
        let declared = match read_varint(&mut reader) {
            Ok(count) if count <= MAX_PLAUSIBLE_RECORDS => count,
            Ok(count) => return Err(bad_header(format!("implausible record count {count}"))),
            Err(e) if is_corruption(&e) => {
                return Err(bad_header(format!("unreadable count: {e}")))
            }
            Err(e) => return Err(e),
        };
        Ok(V1Reader {
            reader,
            declared,
            read: 0,
            prev_pc: 0,
        })
    }

    /// Record count the file declares.
    pub fn declared_records(&self) -> u64 {
        self.declared
    }

    /// Appends the next records, up to [`V2_CHUNK_RECORDS`] of them, to
    /// `out` and returns how many; 0 once every declared record is read.
    /// On an error `out` keeps the records read before the bad one.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` carrying [`TraceFormatError::TruncatedTail`]
    /// when the file ends inside a record or a varint is malformed;
    /// propagates other I/O errors.
    pub fn read_chunk(&mut self, out: &mut Vec<TraceRecord>) -> io::Result<usize> {
        let n = (self.declared - self.read).min(V2_CHUNK_RECORDS as u64) as usize;
        out.reserve(n);
        for _ in 0..n {
            let r = &mut self.reader;
            let (delta, value) = read_varint(r)
                .and_then(|delta| Ok((delta, read_varint(r)?)))
                .map_err(|e| cut_short(0, e, |e| format!("record {}: {e}", self.read)))?;
            let pc = self.prev_pc.wrapping_add(unzigzag(delta));
            out.push(TraceRecord::new(pc as u64, value));
            self.prev_pc = pc;
            self.read += 1;
        }
        Ok(n)
    }

    /// Reads every remaining record, chunk by chunk, into `each`, and
    /// stops at the first damaged record: what salvage and inspect do.
    /// `each` also sees the part of a chunk read before the damage.
    /// Returns the damage, if reading stopped early.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors that are not corruption.
    fn read_intact(
        &mut self,
        mut each: impl FnMut(&[TraceRecord]),
    ) -> io::Result<Option<io::Error>> {
        let mut chunk = Vec::new();
        loop {
            chunk.clear();
            let result = self.read_chunk(&mut chunk);
            each(&chunk);
            match result {
                Ok(0) => return Ok(None),
                Ok(_) => {}
                Err(e) if is_corruption(&e) => return Ok(Some(e)),
                Err(e) => return Err(e),
            }
        }
    }
}

/// How the detail of a chunk whose payload fails to decode begins.
const UNDECODABLE: &str = "undecodable chunk: ";

/// A chunk payload that passed its CRC but does not decode.
pub(crate) fn undecodable(chunk: usize, detail: impl fmt::Display) -> io::Error {
    truncated(chunk, format!("{UNDECODABLE}{detail}"))
}

/// Decodes one chunk payload; the pc delta chain restarts at zero.
fn decode_chunk_payload(payload: &[u8], records: u64) -> Result<Vec<TraceRecord>, String> {
    let mut slice = payload;
    let mut out = Vec::with_capacity(records as usize);
    let mut prev_pc = 0i64;
    for i in 0..records {
        let delta = take_varint(&mut slice).map_err(|e| format!("record {i}: {e}"))?;
        let value = take_varint(&mut slice).map_err(|e| format!("record {i}: {e}"))?;
        let pc = prev_pc.wrapping_add(unzigzag(delta));
        out.push(TraceRecord::new(pc as u64, value));
        prev_pc = pc;
    }
    if !slice.is_empty() {
        return Err(format!("{} unused bytes after last record", slice.len()));
    }
    Ok(out)
}

/// One undecoded v2 chunk: framing fields plus the raw payload bytes.
///
/// Produced by [`V2ChunkReader`]. The pc delta chain restarts at zero in
/// every chunk, so each `RawChunk` decodes independently of the others —
/// the property that lets a consumer decode chunks on worker threads
/// while a stateful simulation consumes them strictly in `index` order.
#[derive(Debug, Clone)]
pub struct RawChunk {
    /// Zero-based position of this chunk in the file.
    pub index: usize,
    /// Records the chunk holds.
    pub records: u64,
    /// CRC-32 (IEEE) stored in the file for the payload.
    pub crc_stored: u32,
    /// The still-encoded chunk payload.
    pub payload: Vec<u8>,
}

impl RawChunk {
    /// Decodes the payload into records, verifying the CRC first.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` carrying a
    /// [`TraceFormatError::ChunkCrcMismatch`] when the payload does not
    /// match its stored checksum, or a
    /// [`TraceFormatError::TruncatedTail`] when it does not decode to
    /// exactly [`records`](RawChunk::records) records.
    pub fn decode(&self) -> io::Result<Vec<TraceRecord>> {
        let computed = crc32(&self.payload);
        if computed != self.crc_stored {
            return Err(TraceFormatError::ChunkCrcMismatch {
                chunk: self.index,
                stored: self.crc_stored,
                computed,
            }
            .into());
        }
        decode_chunk_payload(&self.payload, self.records)
            .map_err(|detail| undecodable(self.index, detail))
    }
}

impl sealed::Framing for RawChunk {
    const MAGIC: &'static [u8; 8] = MAGIC_V2;
    const VERSION: u8 = 2;
    const CHUNK_RECORDS: usize = V2_CHUNK_RECORDS;
    const PACKED: bool = false;

    fn max_payload(records: u64) -> u64 {
        records * MAX_RECORD_BYTES
    }

    fn from_frame(frame: sealed::Frame) -> Self {
        RawChunk {
            index: frame.index,
            records: frame.records,
            crc_stored: frame.crc_stored,
            payload: frame.payload,
        }
    }
}

impl TraceChunk for RawChunk {
    fn decode(&self) -> io::Result<Vec<TraceRecord>> {
        RawChunk::decode(self)
    }
}

/// What the chunk reader knows of a chunked format, sealed in a module
/// private to the crate so that its two chunk types are the only
/// [`TraceChunk`]s.
pub(crate) mod sealed {
    /// One chunk frame as read off the wire, before it becomes its
    /// format's chunk type.
    #[derive(Debug)]
    pub struct Frame {
        pub index: usize,
        pub records: u64,
        /// The payload's declared unpacked size: v3's packed size, or
        /// the stored size in v2, which stores payloads unpacked.
        pub unpacked: u64,
        pub crc_stored: u32,
        pub payload: Vec<u8>,
    }

    /// A chunked format's framing.
    pub trait Framing: Sized {
        /// The magic a file of the format opens with.
        const MAGIC: &'static [u8; 8];
        /// The format version salvage and inspect report.
        const VERSION: u8;
        /// Records per chunk; the last chunk of a file holds the rest.
        const CHUNK_RECORDS: usize;
        /// Whether a frame declares the payload's unpacked size ahead
        /// of its stored size (v3's frames do).
        const PACKED: bool;

        /// The longest stored payload a frame of `records` records may
        /// declare. The reader allocates that much, and salvage trusts
        /// it to step to the next frame.
        fn max_payload(records: u64) -> u64;

        /// The format's chunk for `frame`.
        fn from_frame(frame: Frame) -> Self;
    }
}

/// A chunk of a chunked trace format, as [`ChunkReader`] yields it:
/// [`RawChunk`] (v2) or [`V3RawChunk`](crate::V3RawChunk) (v3), the only
/// two. Every chunk decodes independently of its neighbours, so a
/// consumer may decode chunks on worker threads and consume them in
/// `index` order.
pub trait TraceChunk: sealed::Framing + Send {
    /// Checks the payload and decodes it: the chunk type's own `decode`,
    /// the one place payload checks run.
    ///
    /// # Errors
    ///
    /// As [`RawChunk::decode`] and
    /// [`V3RawChunk::decode`](crate::V3RawChunk::decode).
    fn decode(&self) -> io::Result<Vec<TraceRecord>>;
}

/// Streams the chunks of a v2 or v3 trace without decoding them: an
/// iterator of [`TraceChunk`]s, the one reader of chunk framing. The
/// header is parsed on opening, so [`seed`](ChunkReader::seed) and
/// [`declared_records`](ChunkReader::declared_records) are known before
/// the first chunk. A frame's record count and stored size are bounded
/// before its payload is read, and the payload is checked only by the
/// chunk's `decode`. The reader holds one chunk at a time and stops for
/// good at the first frame it cannot read.
///
/// [`Trace::read_from`], [`salvage_trace`] and [`inspect_trace`] loop
/// over it, and so does the streaming pipeline.
#[derive(Debug)]
pub struct ChunkReader<C, R> {
    reader: R,
    header: V2Header,
    remaining: u64,
    index: usize,
    /// Set once a frame fails to read, so iteration stops for good.
    poisoned: bool,
    chunk: PhantomData<fn() -> C>,
}

/// A v2 chunk stream, created by [`v2_chunks`] or
/// [`ChunkReader::open`].
pub type V2ChunkReader<R> = ChunkReader<RawChunk, R>;

/// Opens a v2 chunk stream over `reader`, which must be positioned at the
/// start of a `DFCMTRC2` file (magic included).
///
/// # Errors
///
/// Returns `InvalidData` carrying [`TraceFormatError::BadMagic`] for any
/// other magic (v1 has no chunking to iterate) and
/// [`TraceFormatError::BadHeader`] for a stream shorter than the magic or
/// an unreadable header; propagates I/O errors from the reader.
pub fn v2_chunks<R: Read>(reader: R) -> io::Result<V2ChunkReader<R>> {
    ChunkReader::new(reader)
}

impl<C: TraceChunk> ChunkReader<C, BufReader<File>> {
    /// Opens a trace file of `C`'s format as a chunk stream.
    ///
    /// # Errors
    ///
    /// As [`v2_chunks`], plus file-open errors.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        ChunkReader::new(BufReader::new(File::open(path)?))
    }
}

impl<C: TraceChunk, R: Read> ChunkReader<C, R> {
    /// A chunk stream over `reader`, positioned at the magic of a file of
    /// `C`'s format.
    pub(crate) fn new(mut reader: R) -> io::Result<Self> {
        let magic = read_magic(&mut reader)?;
        if &magic != C::MAGIC {
            return Err(TraceFormatError::BadMagic { found: magic }.into());
        }
        Self::after_magic(reader)
    }

    /// A chunk stream over `reader`, positioned right after the magic.
    fn after_magic(mut reader: R) -> io::Result<Self> {
        let header = read_v2_header(&mut reader)?;
        Ok(ChunkReader {
            reader,
            remaining: header.records,
            header,
            index: 0,
            poisoned: false,
            chunk: PhantomData,
        })
    }

    /// Generator seed stamped in the file header.
    pub fn seed(&self) -> u64 {
        self.header.seed
    }

    /// Record count the header declares for the whole file.
    pub fn declared_records(&self) -> u64 {
        self.header.records
    }

    /// The next frame; `None` once the declared records are accounted
    /// for or a frame failed to read.
    fn next_frame(&mut self) -> Option<io::Result<sealed::Frame>> {
        if self.poisoned || self.remaining == 0 {
            return None;
        }
        let frame = self.read_frame();
        self.poisoned = frame.is_err();
        Some(frame)
    }

    /// Reads one frame. A frame the file does not hold whole, or whose
    /// record count or stored size no writer produces, is a
    /// [`TraceFormatError::TruncatedTail`] naming this chunk; other I/O
    /// errors pass through.
    fn read_frame(&mut self) -> io::Result<sealed::Frame> {
        let (index, remaining, r) = (self.index, self.remaining, &mut self.reader);
        let framing = |e| cut_short(index, e, |e| format!("chunk framing cut short: {e}"));
        let records = read_varint(r).map_err(framing)?;
        if records == 0 || records > C::CHUNK_RECORDS as u64 || records > remaining {
            return Err(truncated(
                index,
                format!("implausible chunk record count {records} ({remaining} outstanding)"),
            ));
        }
        let unpacked = if C::PACKED {
            Some(read_varint(r).map_err(framing)?)
        } else {
            None
        };
        let stored = read_varint(r).map_err(framing)?;
        if stored > C::max_payload(records) {
            return Err(truncated(
                index,
                format!("implausible chunk byte length {stored}"),
            ));
        }
        let mut crc = [0u8; 4];
        r.read_exact(&mut crc)
            .map_err(|e| cut_short(index, e, |_| "chunk checksum cut short".into()))?;
        let mut payload = vec![0u8; stored as usize];
        r.read_exact(&mut payload)
            .map_err(|e| cut_short(index, e, |_| "chunk payload cut short".into()))?;
        self.remaining -= records;
        self.index += 1;
        Ok(sealed::Frame {
            index,
            records,
            unpacked: unpacked.unwrap_or(stored),
            crc_stored: u32::from_le_bytes(crc),
            payload,
        })
    }
}

/// A read error inside chunk `index`'s frame: corruption (an early end of
/// the stream, a malformed varint) becomes a
/// [`TraceFormatError::TruncatedTail`] with `detail`, and genuine I/O
/// failures pass through untouched.
fn cut_short(index: usize, e: io::Error, detail: impl FnOnce(&io::Error) -> String) -> io::Error {
    if is_corruption(&e) {
        truncated(index, detail(&e))
    } else {
        e
    }
}

impl<C: TraceChunk, R: Read> Iterator for ChunkReader<C, R> {
    type Item = io::Result<C>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_frame().map(|frame| frame.map(C::from_frame))
    }
}

/// Decodes every chunk into one trace, failing on the first bad one.
fn read_chunks<C: TraceChunk, R: Read>(chunks: ChunkReader<C, R>) -> io::Result<Trace> {
    let mut trace = Trace::with_capacity(chunks.declared_records().min(MAX_PREALLOC) as usize);
    for chunk in chunks {
        trace.extend(chunk?.decode()?);
    }
    Ok(trace)
}

/// A chunk (or tail) that [`salvage_trace`] could not recover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DroppedChunk {
    /// Zero-based index of the first affected chunk.
    pub chunk: usize,
    /// Records lost with it.
    pub records: u64,
    /// Why it was dropped.
    pub reason: String,
}

/// What [`salvage_trace`] recovered from a (possibly corrupted) file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Format version of the file (1, 2 or 3).
    pub version: u8,
    /// Record count the header declares.
    pub declared_records: u64,
    /// Generator seed from the header (v2/v3 only).
    pub seed: Option<u64>,
    /// Every record that could be recovered, in file order.
    pub recovered: Trace,
    /// Chunks an intact file of this size would hold (1 for v1).
    pub total_chunks: usize,
    /// Chunks recovered intact.
    pub recovered_chunks: usize,
    /// What was dropped, in chunk order; empty for an intact file.
    pub dropped: Vec<DroppedChunk>,
}

impl SalvageReport {
    /// True when nothing was dropped: the file was fully intact.
    pub fn intact(&self) -> bool {
        self.dropped.is_empty() && self.recovered.len() as u64 == self.declared_records
    }
}

/// Recovers everything recoverable from a trace file.
///
/// For v2 and v3 files every chunk whose framing is readable and whose
/// CRC and decode succeed is recovered bit-identically; corrupt chunks
/// (a v3 decompression bomb included) are skipped and reported. Once the
/// chunk *framing* itself is unreadable the rest of the file is
/// undecipherable and reported as one dropped tail. For v1 files (no
/// checksums, no chunking) the longest cleanly decodable prefix is
/// recovered.
///
/// # Errors
///
/// Returns an error only when there is nothing to salvage (unrecognized
/// magic, a stream shorter than the magic, an unreadable v2/v3 header)
/// or on a genuine I/O failure; corruption past the header is reported
/// in the [`SalvageReport`], not as an error.
pub fn salvage_trace<R: Read>(r: R) -> io::Result<SalvageReport> {
    let mut v1 = match TraceFile::from_reader(r)? {
        TraceFile::V1(v1) => v1,
        TraceFile::V2(chunks) => return salvage_chunks(chunks),
        TraceFile::V3(chunks) => return salvage_chunks(chunks),
    };
    // A v1 trace's longest intact prefix.
    let declared = v1.declared_records();
    let mut recovered = Trace::with_capacity(declared.min(MAX_PREALLOC) as usize);
    let damage = v1.read_intact(|chunk| recovered.extend(chunk.iter().copied()))?;
    let dropped: Vec<DroppedChunk> = damage
        .map(|e| DroppedChunk {
            chunk: 0,
            records: declared - recovered.len() as u64,
            reason: e.to_string(),
        })
        .into_iter()
        .collect();
    Ok(SalvageReport {
        version: 1,
        declared_records: declared,
        seed: None,
        recovered,
        total_chunks: 1,
        recovered_chunks: usize::from(dropped.is_empty()),
        dropped,
    })
}

fn salvage_chunks<C: TraceChunk, R: Read>(
    mut chunks: ChunkReader<C, R>,
) -> io::Result<SalvageReport> {
    let declared = chunks.declared_records();
    let mut report = SalvageReport {
        version: C::VERSION,
        declared_records: declared,
        seed: Some(chunks.seed()),
        recovered: Trace::with_capacity(declared.min(MAX_PREALLOC) as usize),
        total_chunks: declared.div_ceil(C::CHUNK_RECORDS as u64) as usize,
        recovered_chunks: 0,
        dropped: Vec::new(),
    };
    while let Some(frame) = chunks.next_frame() {
        let frame = match frame {
            Ok(frame) => frame,
            Err(e) if is_corruption(&e) => {
                // The unreadable chunk and everything behind it are lost.
                report.dropped.push(DroppedChunk {
                    chunk: chunks.index,
                    records: chunks.remaining,
                    reason: e.to_string(),
                });
                break;
            }
            Err(e) => return Err(e),
        };
        let (chunk, records) = (frame.index, frame.records);
        match C::from_frame(frame).decode() {
            Ok(decoded) => {
                report.recovered.extend(decoded);
                report.recovered_chunks += 1;
            }
            Err(e) => report.dropped.push(DroppedChunk {
                chunk,
                records,
                reason: drop_reason(&e),
            }),
        }
    }
    Ok(report)
}

/// Why salvage drops a chunk whose payload fails `decode`: a CRC
/// mismatch or an undecodable payload in salvage's own words, a
/// decompression bomb as its error says.
fn drop_reason(e: &io::Error) -> String {
    match TraceFormatError::classify(e) {
        Some(TraceFormatError::ChunkCrcMismatch {
            stored, computed, ..
        }) => format!("CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"),
        Some(TraceFormatError::TruncatedTail { detail, .. }) => {
            match detail.strip_prefix(UNDECODABLE) {
                Some(detail) => format!("undecodable payload: {detail}"),
                None => e.to_string(),
            }
        }
        _ => e.to_string(),
    }
}

/// Per-chunk integrity status, from [`inspect_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Zero-based chunk index.
    pub chunk: usize,
    /// Records the chunk claims to hold.
    pub records: u64,
    /// Byte length of the chunk payload as stored on disk (for v3, the
    /// compressed size).
    pub payload_bytes: u64,
    /// Byte length of the chunk payload after decompression: the
    /// declared packed size for v3 chunks, equal to `payload_bytes` for
    /// the uncompressed v2 format.
    pub uncompressed_bytes: u64,
    /// CRC-32 stored in the file.
    pub crc_stored: u32,
    /// CRC-32 of the payload as read.
    pub crc_computed: u32,
    /// Whether the payload decoded to exactly `records` records.
    pub decodes: bool,
}

impl ChunkInfo {
    /// CRC matches and the payload decodes.
    pub fn intact(&self) -> bool {
        self.crc_stored == self.crc_computed && self.decodes
    }
}

/// Header and integrity summary of a trace file, from [`inspect_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceInfo {
    /// Format version (1, 2 or 3).
    pub version: u8,
    /// Record count the header declares.
    pub declared_records: u64,
    /// Records that actually decode cleanly.
    pub decoded_records: u64,
    /// Generator seed from the header (v2/v3 only).
    pub seed: Option<u64>,
    /// Format flags from the header (v2/v3 only; 0 today).
    pub flags: u64,
    /// Per-chunk status (empty for v1 files, which are unchunked).
    pub chunks: Vec<ChunkInfo>,
    /// Bytes left in the stream after the last expected record.
    pub trailing_bytes: u64,
    /// The error that stopped decoding early, if any.
    pub error: Option<String>,
}

impl TraceInfo {
    /// True when the whole file verifies: every declared record decodes,
    /// every chunk CRC matches, and nothing trails the data.
    pub fn intact(&self) -> bool {
        self.error.is_none()
            && self.trailing_bytes == 0
            && self.decoded_records == self.declared_records
            && self.chunks.iter().all(ChunkInfo::intact)
    }
}

/// Reads a whole trace file's structure without failing on corruption:
/// the header, the chunk map with per-chunk CRC status, and whatever
/// error stopped decoding. This is the engine behind `dfcm-tools trace
/// inspect`/`verify`. It holds one chunk at a time, so it runs in the
/// same small working set at any file size.
///
/// # Errors
///
/// Returns an error only for unrecognized magic, a stream shorter than
/// the magic, an unreadable header, or a genuine I/O failure; corruption
/// past the header is *described* in the returned [`TraceInfo`] instead.
pub fn inspect_trace<R: Read>(mut r: R) -> io::Result<TraceInfo> {
    let mut info = match TraceFile::from_reader(&mut r)? {
        TraceFile::V1(mut v1) => {
            let mut decoded = 0;
            let damage = v1.read_intact(|chunk| decoded += chunk.len() as u64)?;
            TraceInfo {
                version: 1,
                declared_records: v1.declared_records(),
                decoded_records: decoded,
                seed: None,
                flags: 0,
                chunks: Vec::new(),
                trailing_bytes: 0,
                error: damage.map(|e| e.to_string()),
            }
        }
        TraceFile::V2(chunks) => inspect_chunks(chunks)?,
        TraceFile::V3(chunks) => inspect_chunks(chunks)?,
    };
    // Anything left in the stream is not part of the trace.
    info.trailing_bytes = io::copy(&mut r, &mut io::sink())?;
    Ok(info)
}

fn inspect_chunks<C: TraceChunk, R: Read>(mut chunks: ChunkReader<C, R>) -> io::Result<TraceInfo> {
    let mut info = TraceInfo {
        version: C::VERSION,
        declared_records: chunks.declared_records(),
        decoded_records: 0,
        seed: Some(chunks.seed()),
        flags: chunks.header.flags,
        chunks: Vec::new(),
        trailing_bytes: 0,
        error: None,
    };
    while let Some(frame) = chunks.next_frame() {
        let frame = match frame {
            Ok(frame) => frame,
            Err(e) if is_corruption(&e) => {
                info.error = Some(e.to_string());
                break;
            }
            Err(e) => return Err(e),
        };
        let crc_computed = crc32(&frame.payload);
        let mut chunk = ChunkInfo {
            chunk: frame.index,
            records: frame.records,
            payload_bytes: frame.payload.len() as u64,
            uncompressed_bytes: frame.unpacked,
            crc_stored: frame.crc_stored,
            crc_computed,
            decodes: false,
        };
        // A payload that fails its CRC is not decoded.
        chunk.decodes = crc_computed == chunk.crc_stored && C::from_frame(frame).decode().is_ok();
        if chunk.intact() {
            info.decoded_records += chunk.records;
        }
        info.chunks.push(chunk);
    }
    Ok(info)
}

impl Trace {
    /// Writes the trace in the legacy v1 format. Pass `&mut writer` to
    /// keep using the writer afterwards. Kept byte-for-byte stable so v1
    /// archives remain reproducible; new files should prefer
    /// [`Trace::write_with`] with [`TraceFormat::V2`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(MAGIC_V1)?;
        write_varint(&mut w, self.len() as u64)?;
        let mut prev_pc = 0i64;
        for r in self {
            let pc = r.pc as i64;
            write_varint(&mut w, zigzag(pc.wrapping_sub(prev_pc)))?;
            write_varint(&mut w, r.value)?;
            prev_pc = pc;
        }
        Ok(())
    }

    /// Writes the trace in the checksummed v2 format, stamping `seed`
    /// into the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_v2_to<W: Write>(&self, mut w: W, seed: u64) -> io::Result<()> {
        w.write_all(MAGIC_V2)?;
        let mut header = Vec::with_capacity(24);
        write_varint(&mut header, self.len() as u64)?;
        write_varint(&mut header, seed)?;
        write_varint(&mut header, 0)?; // flags
        write_varint(&mut w, header.len() as u64)?;
        w.write_all(&header)?;
        let mut payload = Vec::with_capacity(V2_CHUNK_RECORDS * 4);
        for chunk in self.records().chunks(V2_CHUNK_RECORDS) {
            payload.clear();
            let mut prev_pc = 0i64;
            for r in chunk {
                let pc = r.pc as i64;
                write_varint(&mut payload, zigzag(pc.wrapping_sub(prev_pc)))?;
                write_varint(&mut payload, r.value)?;
                prev_pc = pc;
            }
            write_varint(&mut w, chunk.len() as u64)?;
            write_varint(&mut w, payload.len() as u64)?;
            w.write_all(&crc32(&payload).to_le_bytes())?;
            w.write_all(&payload)?;
        }
        Ok(())
    }

    /// Writes the trace in the chosen [`TraceFormat`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_with<W: Write>(&self, w: W, format: TraceFormat) -> io::Result<()> {
        match format {
            TraceFormat::V1 => self.write_to(w),
            TraceFormat::V2 { seed } => self.write_v2_to(w, seed),
            TraceFormat::V3 { seed } => write_v3(self, w, seed),
        }
    }

    /// Reads a trace in any format, auto-detected from the magic; v2/v3
    /// chunk checksums are verified. Pass `&mut reader` to keep using the
    /// reader afterwards.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` carrying a [`TraceFormatError`] for
    /// malformed, truncated or checksum-failing data, and propagates
    /// I/O errors from the reader.
    pub fn read_from<R: Read>(r: R) -> io::Result<Trace> {
        TraceFile::from_reader(r)?.into_trace()
    }

    /// Saves the trace to a file atomically (staged in a sibling
    /// temporary file, then renamed): a crash mid-save can never leave a
    /// truncated trace under `path`. Writes the default format —
    /// checksummed v2; use [`Trace::save_with`] to choose.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        self.save_with(path, TraceFormat::default())
    }

    /// [`Trace::save`] with an explicit on-disk format.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn save_with<P: AsRef<Path>>(&self, path: P, format: TraceFormat) -> io::Result<()> {
        atomic_write_with(path.as_ref(), |w| self.write_with(w, format))
    }

    /// Loads a trace saved with [`Trace::save`] (either format).
    ///
    /// # Errors
    ///
    /// Propagates file-open and read errors; returns `InvalidData`
    /// carrying a [`TraceFormatError`] for malformed files.
    pub fn load<P: AsRef<Path>>(path: P) -> io::Result<Trace> {
        Trace::read_from(BufReader::new(File::open(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use crate::program::SyntheticProgram;
    use crate::record::TraceSource;

    fn sample_trace() -> Trace {
        SyntheticProgram::builder(9)
            .inst(
                Pattern::Stride {
                    start: 0,
                    stride: 4,
                },
                3,
            )
            .inst(Pattern::Random { bits: 32 }, 1)
            .build()
            .take_trace(5000)
    }

    /// A trace long enough for several v2 chunks without slowing tests:
    /// deterministic, non-trivial pc/value streams.
    fn multi_chunk_trace() -> Trace {
        (0..(3 * V2_CHUNK_RECORDS as u64 + 1234))
            .map(|i| TraceRecord::new(0x40_0000 + 4 * (i % 509), i.wrapping_mul(0x9E37_79B9)))
            .collect()
    }

    fn v2_bytes(trace: &Trace, seed: u64) -> Vec<u8> {
        let mut buffer = Vec::new();
        trace.write_v2_to(&mut buffer, seed).unwrap();
        buffer
    }

    #[test]
    fn roundtrip_through_memory() {
        let trace = sample_trace();
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).unwrap();
        let restored = Trace::read_from(buffer.as_slice()).unwrap();
        assert_eq!(trace, restored);
    }

    #[test]
    fn roundtrip_through_file() {
        let trace = sample_trace();
        let path = std::env::temp_dir().join("dfcm_io_test.trc");
        trace.save(&path).unwrap();
        let restored = Trace::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(trace, restored);
    }

    #[test]
    fn format_is_compact() {
        let trace = sample_trace();
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).unwrap();
        // PC deltas are tiny; values vary. Expect well under the 16
        // bytes/record of a raw dump.
        assert!(
            buffer.len() < trace.len() * 8,
            "{} bytes for {} records",
            buffer.len(),
            trace.len()
        );
        // The v2 framing overhead is a few bytes per 64Ki records.
        let v2 = v2_bytes(&trace, 0);
        assert!(
            v2.len() < buffer.len() + 64,
            "v2 {} vs v1 {}",
            v2.len(),
            buffer.len()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let err = Trace::read_from(&b"NOTATRACE"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(matches!(
            TraceFormatError::classify(&err),
            Some(TraceFormatError::BadMagic { .. })
        ));

        // A stream cut inside the 8-byte magic is a bad header at every
        // entry point, never an untyped early end of file.
        let path = std::env::temp_dir().join(format!("dfcm_io_short.{}.trc", std::process::id()));
        for len in 0..8 {
            let bytes = &MAGIC_V2[..len];
            atomic_write(&path, bytes).unwrap();
            let entries = [
                ("read_from", Trace::read_from(bytes).map(drop)),
                ("load", Trace::load(&path).map(drop)),
                ("salvage_trace", salvage_trace(bytes).map(drop)),
                ("inspect_trace", inspect_trace(bytes).map(drop)),
                ("v2_chunks", v2_chunks(bytes).map(drop)),
                ("v3_chunks", crate::v3_chunks(bytes).map(drop)),
            ];
            for (entry, result) in entries {
                let err = result.unwrap_err();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "{entry}, {len} bytes"
                );
                assert!(
                    matches!(
                        TraceFormatError::classify(&err),
                        Some(TraceFormatError::BadHeader { .. })
                    ),
                    "{entry}, {len} bytes: {err}"
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_data_rejected() {
        let trace = sample_trace();
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).unwrap();
        buffer.truncate(buffer.len() / 2);
        assert!(Trace::read_from(buffer.as_slice()).is_err());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buffer = Vec::new();
        Trace::new().write_to(&mut buffer).unwrap();
        assert_eq!(Trace::read_from(buffer.as_slice()).unwrap(), Trace::new());
        // v2 likewise: a header and zero chunks.
        let buffer = v2_bytes(&Trace::new(), 7);
        assert_eq!(Trace::read_from(buffer.as_slice()).unwrap(), Trace::new());
    }

    #[test]
    fn extreme_values_roundtrip() {
        let mut trace = Trace::new();
        trace.push(TraceRecord::new(u64::MAX, u64::MAX));
        trace.push(TraceRecord::new(0, 0));
        trace.push(TraceRecord::new(u64::MAX / 2, 1));
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).unwrap();
        assert_eq!(Trace::read_from(buffer.as_slice()).unwrap(), trace);
        let buffer = v2_bytes(&trace, u64::MAX);
        assert_eq!(Trace::read_from(buffer.as_slice()).unwrap(), trace);
    }

    #[test]
    fn malicious_header_count_rejected_without_large_allocation() {
        // A tiny file whose header claims a huge record count must fail
        // on the missing records, not abort allocating the claimed size.
        let mut buffer = Vec::from(*MAGIC_V1);
        write_varint(&mut buffer, (1u64 << 40) - 1).unwrap();
        let err = Trace::read_from(buffer.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            matches!(
                TraceFormatError::classify(&err),
                Some(TraceFormatError::TruncatedTail { chunk: 0, .. })
            ),
            "{err}"
        );

        // Beyond the plausibility bound the header itself is rejected.
        let mut buffer = Vec::from(*MAGIC_V1);
        write_varint(&mut buffer, (1u64 << 40) + 1).unwrap();
        let err = Trace::read_from(buffer.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn capped_preallocation_still_reads_past_the_cap() {
        let trace: Trace = (0..3000u64).map(|i| TraceRecord::new(4 * i, i)).collect();
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).unwrap();
        let restored = Trace::read_from(buffer.as_slice()).unwrap();
        assert_eq!(trace, restored);
    }

    #[test]
    fn non_canonical_varint_rejected() {
        // Ten continuation-flagged bytes then payload bits that do not
        // fit in the single bit the 10th byte has room for: previously
        // this silently decoded with the overflow bits dropped.
        let mut buffer = Vec::from(*MAGIC_V1);
        buffer.extend_from_slice(&[0x80; 9]);
        buffer.push(0x02); // bit 1 set -> shifted past bit 63
        let err = Trace::read_from(buffer.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // An 11th byte is rejected as over-long regardless of payload.
        let mut buffer = Vec::from(*MAGIC_V1);
        buffer.extend_from_slice(&[0x80; 10]);
        buffer.push(0x00);
        let err = Trace::read_from(buffer.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn canonical_ten_byte_varint_still_decodes() {
        // u64::MAX needs all ten bytes; its canonical encoding (final
        // byte 0x01) must keep round-tripping.
        let mut trace = Trace::new();
        trace.push(TraceRecord::new(0, u64::MAX));
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).unwrap();
        assert_eq!(*buffer.last().unwrap(), 0x01);
        assert_eq!(Trace::read_from(buffer.as_slice()).unwrap(), trace);
    }

    #[test]
    fn take_varint_agrees_with_read_varint() {
        // Every first byte, a few multi-byte encodings and an over-long
        // one, each followed by a byte the read must leave alone, and
        // each cut short at every length.
        let mut inputs: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b, 0x55]).collect();
        for v in [128, 16_384, u64::MAX] {
            let mut bytes = Vec::new();
            write_varint(&mut bytes, v).unwrap();
            bytes.push(0x55);
            inputs.push(bytes);
        }
        inputs.push(vec![0x80; 11]);
        for bytes in &inputs {
            for cut in 0..=bytes.len() {
                let input = &bytes[..cut];
                let (mut a, mut b) = (input, input);
                match (read_varint(&mut a), take_varint(&mut b)) {
                    (Ok(x), Ok(y)) => {
                        assert_eq!(x, y, "{input:02x?}");
                        assert_eq!(a, b, "consumed differently: {input:02x?}");
                    }
                    (Err(x), Err(y)) => {
                        assert_eq!(x.kind(), y.kind(), "{input:02x?}");
                        assert_eq!(x.to_string(), y.to_string(), "{input:02x?}");
                    }
                    (x, y) => panic!("{input:02x?}: read_varint {x:?}, take_varint {y:?}"),
                }
            }
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    // ---- v2 format ----

    #[test]
    fn v2_roundtrip_single_and_multi_chunk() {
        for trace in [sample_trace(), multi_chunk_trace()] {
            let buffer = v2_bytes(&trace, 42);
            assert_eq!(Trace::read_from(buffer.as_slice()).unwrap(), trace);
        }
    }

    #[test]
    fn v2_is_the_default_save_format_and_v1_knob_works() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join("dfcm_io_v2_default_test");
        let _ = std::fs::remove_dir_all(&dir);
        let v2_path = dir.join("v2.trc");
        let v1_path = dir.join("v1.trc");
        trace.save(&v2_path).unwrap();
        trace.save_with(&v1_path, TraceFormat::V1).unwrap();
        assert_eq!(&std::fs::read(&v2_path).unwrap()[..8], MAGIC_V2);
        assert_eq!(&std::fs::read(&v1_path).unwrap()[..8], MAGIC_V1);
        assert_eq!(Trace::load(&v2_path).unwrap(), trace);
        assert_eq!(Trace::load(&v1_path).unwrap(), trace);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_files_written_by_current_writer_load_identically() {
        // Byte-for-byte compatibility: the v1 writer's output, decoded
        // through the auto-detecting reader, reproduces the exact trace.
        let trace = multi_chunk_trace();
        let mut v1 = Vec::new();
        trace.write_with(&mut v1, TraceFormat::V1).unwrap();
        assert_eq!(&v1[..8], MAGIC_V1);
        assert_eq!(Trace::read_from(v1.as_slice()).unwrap(), trace);
    }

    #[test]
    fn v2_reader_is_streaming_friendly() {
        // Two traces written back to back decode independently.
        let a = sample_trace();
        let b: Trace = (0..10u64).map(|i| TraceRecord::new(4 * i, i)).collect();
        let mut buffer = Vec::new();
        a.write_v2_to(&mut buffer, 1).unwrap();
        b.write_v2_to(&mut buffer, 2).unwrap();
        let mut slice = buffer.as_slice();
        assert_eq!(Trace::read_from(&mut slice).unwrap(), a);
        assert_eq!(Trace::read_from(&mut slice).unwrap(), b);
        assert!(slice.is_empty());
    }

    #[test]
    fn v2_detects_payload_corruption() {
        let trace = multi_chunk_trace();
        let clean = v2_bytes(&trace, 0);
        // Flip one bit deep inside the file (a chunk payload byte).
        let mut corrupt = clean.clone();
        let position = corrupt.len() / 2;
        corrupt[position] ^= 0x10;
        let err = Trace::read_from(corrupt.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            matches!(
                TraceFormatError::classify(&err),
                Some(
                    TraceFormatError::ChunkCrcMismatch { .. }
                        | TraceFormatError::TruncatedTail { .. }
                )
            ),
            "{err}"
        );
    }

    #[test]
    fn v2_detects_truncation() {
        let trace = multi_chunk_trace();
        let clean = v2_bytes(&trace, 0);
        let err = Trace::read_from(&clean[..clean.len() - 100]).unwrap_err();
        assert!(
            matches!(
                TraceFormatError::classify(&err),
                Some(TraceFormatError::TruncatedTail { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn v2_rejects_unknown_flags() {
        let mut buffer = Vec::from(*MAGIC_V2);
        let mut header = Vec::new();
        write_varint(&mut header, 0).unwrap(); // records
        write_varint(&mut header, 0).unwrap(); // seed
        write_varint(&mut header, 1).unwrap(); // unknown flag
        write_varint(&mut buffer, header.len() as u64).unwrap();
        buffer.extend_from_slice(&header);
        let err = Trace::read_from(buffer.as_slice()).unwrap_err();
        assert!(
            matches!(
                TraceFormatError::classify(&err),
                Some(TraceFormatError::BadHeader { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn v2_header_tolerates_compatible_growth() {
        // Extra header bytes after the known fields are ignored.
        let trace: Trace = (0..5u64).map(|i| TraceRecord::new(4 * i, i)).collect();
        let clean = v2_bytes(&trace, 9);
        let mut grown = Vec::from(*MAGIC_V2);
        let mut header = Vec::new();
        write_varint(&mut header, trace.len() as u64).unwrap();
        write_varint(&mut header, 9).unwrap();
        write_varint(&mut header, 0).unwrap();
        header.extend_from_slice(b"future-field");
        write_varint(&mut grown, header.len() as u64).unwrap();
        grown.extend_from_slice(&header);
        // Reuse the chunk bytes from the clean encoding.
        let clean_header_len = 8 + 1 + {
            let mut h = Vec::new();
            write_varint(&mut h, trace.len() as u64).unwrap();
            write_varint(&mut h, 9u64).unwrap();
            write_varint(&mut h, 0u64).unwrap();
            h.len()
        };
        grown.extend_from_slice(&clean[clean_header_len..]);
        assert_eq!(Trace::read_from(grown.as_slice()).unwrap(), trace);
    }

    #[test]
    fn salvage_recovers_intact_chunks_bit_identically() {
        let trace = multi_chunk_trace();
        let clean = v2_bytes(&trace, 5);
        // Corrupt one byte in (what is certainly) chunk 1's payload: the
        // file has 4 chunks; chunk payloads dominate the byte count.
        let mut corrupt = clean.clone();
        let position = clean.len() / 3;
        corrupt[position] ^= 0xFF;
        let report = salvage_trace(corrupt.as_slice()).unwrap();
        assert_eq!(report.version, 2);
        assert_eq!(report.seed, Some(5));
        assert_eq!(report.total_chunks, 4);
        assert_eq!(report.recovered_chunks, 3);
        assert_eq!(report.dropped.len(), 1);
        let dropped = &report.dropped[0];
        assert_eq!(dropped.records, V2_CHUNK_RECORDS as u64);
        // Every surviving record is bit-identical to the original.
        let chunk = dropped.chunk;
        let full = trace.records();
        let mut expected: Vec<TraceRecord> = Vec::new();
        expected.extend_from_slice(&full[..chunk * V2_CHUNK_RECORDS]);
        expected.extend_from_slice(&full[(chunk + 1) * V2_CHUNK_RECORDS..]);
        assert_eq!(report.recovered.records(), expected.as_slice());
        assert!(!report.intact());
    }

    #[test]
    fn salvage_of_intact_file_recovers_everything() {
        let trace = multi_chunk_trace();
        let report = salvage_trace(v2_bytes(&trace, 5).as_slice()).unwrap();
        assert!(report.intact());
        assert_eq!(report.recovered, trace);
        assert_eq!(report.recovered_chunks, report.total_chunks);
        assert!(report.dropped.is_empty());
    }

    #[test]
    fn salvage_reports_unreachable_tail_after_framing_damage() {
        let trace = multi_chunk_trace();
        let clean = v2_bytes(&trace, 0);
        // Truncate mid-file: later chunks are unreachable.
        let report = salvage_trace(&clean[..clean.len() / 2]).unwrap();
        assert!(report.recovered_chunks < report.total_chunks);
        assert!(!report.dropped.is_empty());
        // Records in scanned-but-corrupt chunks are counted in dropped;
        // everything must be accounted for.
        let lost: u64 = report.dropped.iter().map(|d| d.records).sum();
        assert_eq!(
            report.recovered.len() as u64 + lost,
            report.declared_records
        );
    }

    #[test]
    fn salvage_v1_recovers_clean_prefix() {
        let trace = sample_trace();
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).unwrap();
        buffer.truncate(buffer.len() / 2);
        let report = salvage_trace(buffer.as_slice()).unwrap();
        assert_eq!(report.version, 1);
        assert!(!report.recovered.is_empty());
        assert!(report.recovered.len() < trace.len());
        assert_eq!(
            report.recovered.records(),
            &trace.records()[..report.recovered.len()],
            "prefix must be bit-identical"
        );
        assert_eq!(report.dropped.len(), 1);
    }

    #[test]
    fn inspect_reports_chunk_map_and_crc_status() {
        let trace = multi_chunk_trace();
        let clean = v2_bytes(&trace, 77);
        let info = inspect_trace(clean.as_slice()).unwrap();
        assert!(info.intact());
        assert_eq!(info.version, 2);
        assert_eq!(info.seed, Some(77));
        assert_eq!(info.declared_records, trace.len() as u64);
        assert_eq!(info.decoded_records, trace.len() as u64);
        assert_eq!(info.chunks.len(), 4);
        assert_eq!(info.trailing_bytes, 0);
        for c in &info.chunks {
            assert!(c.intact());
        }

        let mut corrupt = clean.clone();
        let position = clean.len() / 3;
        corrupt[position] ^= 0x01;
        corrupt.extend_from_slice(b"junk");
        let info = inspect_trace(corrupt.as_slice()).unwrap();
        assert!(!info.intact());
        assert_eq!(info.chunks.iter().filter(|c| !c.intact()).count(), 1);
        assert_eq!(info.trailing_bytes, 4);
    }

    #[test]
    fn v1_reads_in_chunks_and_a_cut_record_is_a_truncated_tail() {
        let trace = multi_chunk_trace();
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).unwrap();
        let TraceFile::V1(mut v1) = TraceFile::from_reader(buffer.as_slice()).unwrap() else {
            panic!("a v1 file opens as v1");
        };
        let mut sizes = Vec::new();
        let mut chunk = Vec::new();
        while v1.read_chunk(&mut chunk).unwrap() > 0 {
            sizes.push(chunk.len());
            chunk.clear();
        }
        assert_eq!(
            sizes,
            [V2_CHUNK_RECORDS, V2_CHUNK_RECORDS, V2_CHUNK_RECORDS, 1234]
        );

        // Cut inside a record of the second chunk: every entry point
        // reports the same typed damage, which is corruption, not a read
        // hiccup worth retrying.
        buffer.truncate(buffer.len() * 2 / 5);
        let err = Trace::read_from(buffer.as_slice()).unwrap_err();
        let Some(TraceFormatError::TruncatedTail { chunk: 0, detail }) =
            TraceFormatError::classify(&err)
        else {
            panic!("untyped: {err}");
        };
        let at: usize = detail["record ".len()..detail.find(':').unwrap()]
            .parse()
            .unwrap();
        assert!(at > V2_CHUNK_RECORDS && at < trace.len(), "{detail}");
        let report = salvage_trace(buffer.as_slice()).unwrap();
        assert_eq!(report.recovered.records(), &trace.records()[..at]);
        assert_eq!(report.dropped[0].reason, err.to_string());
        let info = inspect_trace(buffer.as_slice()).unwrap();
        assert_eq!(info.decoded_records, at as u64);
        assert_eq!(info.error, Some(err.to_string()));
    }

    #[test]
    fn inspect_handles_v1_files() {
        let trace = sample_trace();
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).unwrap();
        let info = inspect_trace(buffer.as_slice()).unwrap();
        assert!(info.intact());
        assert_eq!(info.version, 1);
        assert_eq!(info.decoded_records, trace.len() as u64);
        assert!(info.chunks.is_empty());
    }

    // ---- atomic writes & staging hygiene ----

    #[test]
    fn atomic_save_leaves_no_staging_files() {
        let dir = std::env::temp_dir().join("dfcm_io_atomic_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deep/nested/trace.trc");
        let trace = sample_trace();
        trace.save(&path).unwrap();
        assert_eq!(Trace::load(&path).unwrap(), trace);
        let siblings: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(siblings, vec![std::ffi::OsString::from("trace.trc")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_atomic_write_keeps_previous_contents() {
        let dir = std::env::temp_dir().join("dfcm_io_atomic_fail_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        atomic_write(&path, b"complete v1").unwrap();
        let err = atomic_write_with(&path, |w| {
            w.write_all(b"partial v2")?;
            Err(io::Error::other("crash mid-write"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "crash mid-write");
        assert_eq!(std::fs::read(&path).unwrap(), b"complete v1");
        let siblings: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(siblings, vec![std::ffi::OsString::from("out.bin")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_survives_unsyncable_parent() {
        // The post-rename parent-directory sync is best-effort: a path
        // whose parent cannot be opened for fsync (here: the process cwd
        // addressed with a bare file name, which has no parent component)
        // must still write successfully through the sync-then-rename
        // path, and relative single-component paths must not panic on the
        // empty parent.
        let dir = std::env::temp_dir().join("dfcm_io_dirsync_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("synced.bin");
        atomic_write(&path, b"durable contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"durable contents");
        // Overwrite through the same path: the rename replaces the old
        // complete file with the new complete file.
        atomic_write(&path, b"second version").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second version");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn stale_staging_files_swept_before_write() {
        let dir = std::env::temp_dir().join("dfcm_io_stale_staging_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.trc");
        // An orphan from a "crashed" writer: pid u32::MAX can never be a
        // live process (beyond pid_max), so the sweep must remove it.
        let orphan = dir.join("out.trc.tmp.4294967295.3");
        std::fs::write(&orphan, b"orphaned staging data").unwrap();
        // A staging file of the *running* process must survive: another
        // thread could be mid-write.
        let ours = dir.join(format!("out.trc.tmp.{}.999", std::process::id()));
        std::fs::write(&ours, b"active staging data").unwrap();
        // A staging file for a *different* target is not this write's
        // business.
        let other = dir.join("other.trc.tmp.4294967295.1");
        std::fs::write(&other, b"someone else's orphan").unwrap();

        atomic_write(&path, b"fresh contents").unwrap();

        assert_eq!(std::fs::read(&path).unwrap(), b"fresh contents");
        assert!(!orphan.exists(), "dead-process orphan must be swept");
        assert!(ours.exists(), "our own staging files must survive");
        assert!(other.exists(), "other targets' staging files untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunk_reader_yields_every_chunk() {
        let trace = multi_chunk_trace();
        let buffer = v2_bytes(&trace, 0xC0FFEE);
        let reader = v2_chunks(buffer.as_slice()).unwrap();
        assert_eq!(reader.seed(), 0xC0FFEE);
        assert_eq!(reader.declared_records(), trace.len() as u64);
        let mut restored = Trace::with_capacity(trace.len());
        let mut chunk_sizes = Vec::new();
        for (i, chunk) in reader.enumerate() {
            let chunk = chunk.unwrap();
            assert_eq!(chunk.index, i);
            let records = chunk.decode().unwrap();
            assert_eq!(records.len() as u64, chunk.records);
            chunk_sizes.push(records.len());
            restored.extend(records);
        }
        assert_eq!(restored, trace);
        // Chunk boundaries match the writer's fixed chunking, i.e. the
        // in-memory `Trace::chunks(V2_CHUNK_RECORDS)` partition.
        let expected: Vec<usize> = trace.chunks(V2_CHUNK_RECORDS).map(<[_]>::len).collect();
        assert_eq!(chunk_sizes, expected);
    }

    #[test]
    fn chunk_reader_decodes_chunks_out_of_order() {
        // The pc delta chain restarts per chunk, so decoding the chunks in
        // reverse order must reproduce the same records as in-order decode.
        let trace = multi_chunk_trace();
        let buffer = v2_bytes(&trace, 1);
        let chunks: Vec<RawChunk> = v2_chunks(buffer.as_slice())
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert!(chunks.len() > 1, "need several chunks to be meaningful");
        let mut decoded: Vec<(usize, Vec<TraceRecord>)> = chunks
            .iter()
            .rev()
            .map(|c| (c.index, c.decode().unwrap()))
            .collect();
        decoded.sort_by_key(|(index, _)| *index);
        let restored: Trace = decoded.into_iter().flat_map(|(_, r)| r).collect();
        assert_eq!(restored, trace);
    }

    #[test]
    fn chunk_reader_flags_corrupt_payload_on_decode() {
        let trace = multi_chunk_trace();
        let mut buffer = v2_bytes(&trace, 0);
        // Flip one payload bit deep in the file (well past header framing).
        let target = buffer.len() / 2;
        buffer[target] ^= 0x10;
        let mut saw_crc_error = false;
        for chunk in v2_chunks(buffer.as_slice()).unwrap() {
            // Framing (record/byte counts) stays plausible for a payload
            // bit flip; the error must surface at decode as a CRC mismatch.
            let chunk = chunk.unwrap();
            if let Err(e) = chunk.decode() {
                assert!(matches!(
                    TraceFormatError::classify(&e),
                    Some(TraceFormatError::ChunkCrcMismatch { .. })
                ));
                saw_crc_error = true;
            }
        }
        assert!(saw_crc_error, "the flipped bit must be detected");
    }

    #[test]
    fn chunk_reader_stops_on_truncated_tail() {
        let trace = multi_chunk_trace();
        let mut buffer = v2_bytes(&trace, 0);
        buffer.truncate(buffer.len() - 100);
        let mut reader = v2_chunks(buffer.as_slice()).unwrap();
        let mut good = 0u64;
        let mut failed = false;
        for chunk in &mut reader {
            match chunk {
                Ok(c) => good += c.records,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    failed = true;
                }
            }
        }
        assert!(failed, "truncation must surface as an error");
        assert!(good < trace.len() as u64);
        // The iterator is fused after an error.
        assert!(reader.next().is_none());
    }

    #[test]
    fn chunk_reader_rejects_v1_and_garbage() {
        let trace = sample_trace();
        let mut v1 = Vec::new();
        trace.write_to(&mut v1).unwrap();
        assert!(v2_chunks(v1.as_slice()).is_err(), "v1 has no chunking");
        assert!(v2_chunks(&b"NOTATRACE..."[..]).is_err());
    }

    #[test]
    fn chunk_reader_empty_trace_yields_no_chunks() {
        let buffer = v2_bytes(&Trace::new(), 3);
        let mut reader = v2_chunks(buffer.as_slice()).unwrap();
        assert_eq!(reader.declared_records(), 0);
        assert!(reader.next().is_none());
    }

    #[test]
    fn faulty_writer_faults_after_budget() {
        let trace = sample_trace();
        let mut full = Vec::new();
        trace.write_to(&mut full).unwrap();
        let mut w = FaultyWriter::new(Vec::new(), 16);
        let err = trace.write_to(&mut w).unwrap_err();
        assert!(err.to_string().contains("injected write fault"));
        assert_eq!(w.into_inner(), full[..16].to_vec());
    }

    #[test]
    fn faulty_reader_faults_after_budget() {
        let trace = sample_trace();
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).unwrap();
        let half = buffer.len() as u64 / 2;
        let err = Trace::read_from(FaultyReader::new(buffer.as_slice(), half)).unwrap_err();
        assert!(err.to_string().contains("injected read fault"));
        // A budget covering the whole stream reads cleanly.
        let restored =
            Trace::read_from(FaultyReader::new(buffer.as_slice(), buffer.len() as u64)).unwrap();
        assert_eq!(restored, trace);
    }
}
