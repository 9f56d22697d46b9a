//! Std-only general-purpose byte compression for the v3 trace format:
//! an LZSS match stage over a 64 KiB window followed by an order-0
//! canonical-Huffman entropy stage, with a stored-block fallback so
//! compression never expands input by more than one byte.
//!
//! The decoder side is written for untrusted input. [`decompress`] is
//! given the *declared* output length up front and treats it as a hard
//! contract: it never allocates more than `declared_len` bytes of output
//! (plus a bounded token scratch buffer), rejects streams that produce
//! any other length, and decodes every malformed table, offset, or
//! bitstream to a typed `InvalidData` error — never a panic, hang, or
//! unbounded allocation. Callers (the v3 chunk reader) bound
//! `declared_len` itself before calling in, so a hostile file cannot
//! demand memory beyond one chunk's worst-case packed size.
//!
//! # Compressed container layout
//!
//! ```text
//! method  1 byte   0 = stored, 1 = LZ + Huffman
//!
//! method 0 (stored): the raw bytes follow verbatim.
//!
//! method 1:
//!   lz_len  varint     byte length of the LZ token stream
//!   lengths 128 bytes  canonical-Huffman code lengths for all 256 byte
//!                      symbols, one nibble each (low nibble = even
//!                      symbol), 0 = symbol absent, else 1..=15 bits
//!   bits               MSB-first canonical codes for exactly `lz_len`
//!                      token-stream bytes
//! ```
//!
//! # LZ token grammar
//!
//! ```text
//! T < 31   literal run: the next T+1 bytes are raw output
//! T = 31   long literal run: varint L follows, then 32+L raw bytes
//! T >= 32  match: length T-28 (4..=227), then u16 LE offset
//!          (1..=65535) back into the output produced so far
//! ```
//!
//! Literal runs cost one token byte per 31 output bytes, so the token
//! stream is never longer than `out + out/31 + C` — the bound
//! [`max_token_len`] that caps the decoder's scratch allocation.

use std::io;

use crate::io::{read_varint, write_varint};

/// Longest Huffman code, in bits; lengths are stored as nibbles.
const MAX_CODE_BITS: u32 = 15;

/// Codes up to this many bits decode with one table probe; longer codes
/// (a symbol needs a frequency below about 2^-11 to earn one) take the
/// bit-serial slow path.
const LUT_BITS: u32 = 11;

/// Longest LZ match a single token can encode.
const MAX_MATCH: usize = 227;

/// Shortest LZ match worth a token (a match token costs 3 bytes).
const MIN_MATCH: usize = 4;

/// LZ window: matches reach at most this far back.
const MAX_OFFSET: usize = 65535;

/// Literal-run lengths 1..=31 fit the token byte itself.
const SHORT_LIT_MAX: usize = 31;

/// Upper bound on the LZ token stream for `out_len` output bytes.
///
/// Literal runs add one token byte per `SHORT_LIT_MAX` (31) output bytes;
/// matches always shrink. The constant slack covers the final partial
/// run and long-run varints.
pub fn max_token_len(out_len: usize) -> usize {
    out_len + out_len / SHORT_LIT_MAX + 64
}

fn invalid(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

// ---------------------------------------------------------------------
// LZ stage
// ---------------------------------------------------------------------

/// Hash of the 4 bytes at `data[i..]` for the match table.
#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> 18) as usize
}

const HASH_SLOTS: usize = 1 << 14;

/// Emits one literal run covering `data[start..end]`.
fn push_literals(out: &mut Vec<u8>, data: &[u8], mut start: usize, end: usize) {
    while start < end {
        let run = end - start;
        if run <= SHORT_LIT_MAX {
            out.push(run as u8 - 1);
            out.extend_from_slice(&data[start..end]);
            return;
        }
        // Long runs take the varint form; cap each at a round 4 KiB so
        // the encoder stays single-pass without lookahead buffering.
        let take = run.min(4096);
        if take <= SHORT_LIT_MAX {
            out.push(take as u8 - 1);
        } else {
            out.push(31);
            let _ = write_varint(&mut *out, (take - 32) as u64);
        }
        out.extend_from_slice(&data[start..start + take]);
        start += take;
    }
}

/// Candidates examined per position in the hash chain; bounds encoder
/// time while still finding long matches in repetitive data.
const MAX_CHAIN: usize = 64;

/// Longest match among the chained candidates for `data[i..]`.
fn best_match(data: &[u8], head: &[usize], chain: &[usize], i: usize) -> (usize, usize) {
    let limit = (data.len() - i).min(MAX_MATCH);
    let mut best_len = 0usize;
    let mut best_src = 0usize;
    let mut cand = head[hash4(data, i)];
    let mut steps = 0usize;
    while cand != usize::MAX && i - cand <= MAX_OFFSET && steps < MAX_CHAIN {
        let mut l = 0usize;
        while l < limit && data[cand + l] == data[i + l] {
            l += 1;
        }
        if l > best_len {
            best_len = l;
            best_src = cand;
            if l == limit {
                break;
            }
        }
        cand = chain[cand];
        steps += 1;
    }
    (best_len, best_src)
}

/// Single-pass LZSS over `data` with hash chains and one-step lazy
/// matching; returns the token stream.
fn lz_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    if data.len() < MIN_MATCH {
        push_literals(&mut out, data, 0, data.len());
        return out;
    }
    let mut head = vec![usize::MAX; HASH_SLOTS];
    let mut chain = vec![usize::MAX; data.len()];
    let insertable = data.len() - MIN_MATCH;
    let mut ins = 0usize; // next position to enter the hash chain
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i + MIN_MATCH <= data.len() {
        while ins < i.min(insertable + 1) {
            let h = hash4(data, ins);
            chain[ins] = head[h];
            head[h] = ins;
            ins += 1;
        }
        let (len, src) = best_match(data, &head, &chain, i);
        // A minimum-length match only pays once its offset bytes stop
        // costing more than the literals it replaces.
        if len < MIN_MATCH || (len == MIN_MATCH && i - src > 1024) {
            i += 1;
            continue;
        }
        // Lazy step: if the next position holds a longer match, emit
        // this byte as a literal and take the better match there.
        if i + 1 + MIN_MATCH <= data.len() {
            let h = hash4(data, i);
            chain[i] = head[h];
            head[h] = i;
            ins = i + 1;
            let (next_len, _) = best_match(data, &head, &chain, i + 1);
            if next_len > len {
                i += 1;
                continue;
            }
        }
        push_literals(&mut out, data, lit_start, i);
        out.push((len + 28) as u8);
        out.extend_from_slice(&((i - src) as u16).to_le_bytes());
        i += len;
        lit_start = i;
    }
    push_literals(&mut out, data, lit_start, data.len());
    out
}

/// Decodes an LZ token stream into exactly `declared_len` bytes.
fn lz_decode(mut tokens: &[u8], declared_len: usize) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(declared_len);
    while let Some((&t, rest)) = tokens.split_first() {
        tokens = rest;
        if t < 32 {
            let run = if t < 31 {
                t as usize + 1
            } else {
                let long = read_varint(&mut tokens)
                    .map_err(|e| invalid(format!("literal run length: {e}")))?;
                usize::try_from(long)
                    .ok()
                    .and_then(|l| l.checked_add(32))
                    .ok_or_else(|| invalid("literal run length overflows"))?
            };
            if run > tokens.len() {
                return Err(invalid("literal run past end of token stream"));
            }
            if out.len() + run > declared_len {
                return Err(invalid("output exceeds declared length"));
            }
            out.extend_from_slice(&tokens[..run]);
            tokens = &tokens[run..];
        } else {
            let len = t as usize - 28;
            if tokens.len() < 2 {
                return Err(invalid("match offset cut short"));
            }
            let offset = u16::from_le_bytes([tokens[0], tokens[1]]) as usize;
            tokens = &tokens[2..];
            if offset == 0 || offset > out.len() {
                return Err(invalid(format!(
                    "match offset {offset} outside {} decoded bytes",
                    out.len()
                )));
            }
            if out.len() + len > declared_len {
                return Err(invalid("output exceeds declared length"));
            }
            let start = out.len() - offset;
            if offset >= len {
                out.extend_from_within(start..start + len);
            } else {
                // The match overlaps its own output, so later bytes copy
                // bytes this same match produces: go byte by byte.
                for k in 0..len {
                    let byte = out[start + k];
                    out.push(byte);
                }
            }
        }
    }
    if out.len() != declared_len {
        return Err(invalid(format!(
            "token stream produced {} of {declared_len} declared bytes",
            out.len()
        )));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Huffman stage
// ---------------------------------------------------------------------

/// Computes length-limited (≤ [`MAX_CODE_BITS`]) code lengths for the
/// byte frequencies in `freq`. Absent symbols get length 0.
fn code_lengths(freq: &[u64; 256]) -> [u8; 256] {
    let mut lengths = [0u8; 256];
    let used: Vec<usize> = (0..256).filter(|&s| freq[s] > 0).collect();
    match used.len() {
        0 => return lengths,
        1 => {
            // A single-symbol alphabet still needs one bit per symbol so
            // the bitstream has a defined length.
            lengths[used[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    // Standard heap-free Huffman over a sorted leaf array.
    #[derive(Clone, Copy)]
    struct Node {
        weight: u64,
        // Leaf: symbol index. Internal: left/right into `nodes`.
        symbol: Option<usize>,
        children: Option<(usize, usize)>,
    }
    let mut nodes: Vec<Node> = used
        .iter()
        .map(|&s| Node {
            weight: freq[s],
            symbol: Some(s),
            children: None,
        })
        .collect();
    let mut live: Vec<usize> = (0..nodes.len()).collect();
    while live.len() > 1 {
        live.sort_by(|&a, &b| nodes[b].weight.cmp(&nodes[a].weight));
        let x = live.pop().unwrap();
        let y = live.pop().unwrap();
        nodes.push(Node {
            weight: nodes[x].weight.saturating_add(nodes[y].weight),
            symbol: None,
            children: Some((x, y)),
        });
        live.push(nodes.len() - 1);
    }
    // Depth-first walk assigns raw (unlimited) depths.
    let mut stack = vec![(live[0], 0u32)];
    while let Some((n, depth)) = stack.pop() {
        if let Some(s) = nodes[n].symbol {
            lengths[s] = depth.clamp(1, 255) as u8;
        } else if let Some((l, r)) = nodes[n].children {
            stack.push((l, depth + 1));
            stack.push((r, depth + 1));
        }
    }
    // Length-limit: clamp overlong codes, then restore the Kraft
    // inequality by deepening the shallowest-affordable codes.
    for s in &used {
        lengths[*s] = lengths[*s].min(MAX_CODE_BITS as u8);
    }
    let kraft = |lengths: &[u8; 256]| -> u64 {
        used.iter()
            .map(|&s| 1u64 << (MAX_CODE_BITS - u32::from(lengths[s])))
            .sum()
    };
    while kraft(&lengths) > 1 << MAX_CODE_BITS {
        // Deepen the deepest code that still has room; there is always
        // one while the sum is oversubscribed.
        let s = *used
            .iter()
            .filter(|&&s| u32::from(lengths[s]) < MAX_CODE_BITS)
            .max_by_key(|&&s| lengths[s])
            .expect("oversubscribed code must have a deepenable symbol");
        lengths[s] += 1;
    }
    lengths
}

/// Canonical code assignment: symbols sorted by (length, value) receive
/// consecutive codes. Returns (code, length) per symbol.
fn canonical_codes(lengths: &[u8; 256]) -> [(u16, u8); 256] {
    let mut codes = [(0u16, 0u8); 256];
    let mut order: Vec<usize> = (0..256).filter(|&s| lengths[s] > 0).collect();
    order.sort_by_key(|&s| (lengths[s], s));
    let mut code = 0u32;
    let mut prev_len = 0u8;
    for s in order {
        code <<= lengths[s] - prev_len;
        prev_len = lengths[s];
        codes[s] = (code as u16, lengths[s]);
        code += 1;
    }
    codes
}

struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    bits: u32,
}

impl BitWriter<'_> {
    fn push(&mut self, code: u16, len: u8) {
        self.acc = (self.acc << len) | u64::from(code);
        self.bits += u32::from(len);
        while self.bits >= 8 {
            self.bits -= 8;
            self.out.push((self.acc >> self.bits) as u8);
        }
    }

    fn finish(self) {
        if self.bits > 0 {
            self.out.push((self.acc << (8 - self.bits)) as u8);
        }
    }
}

/// Huffman-encodes `tokens`; `None` when the encoded form (table
/// included) would not beat storing the tokens raw.
fn huffman_compress(tokens: &[u8]) -> Option<Vec<u8>> {
    let mut freq = [0u64; 256];
    for &b in tokens {
        freq[usize::from(b)] += 1;
    }
    let lengths = code_lengths(&freq);
    let codes = canonical_codes(&lengths);
    let payload_bits: u64 = (0..256).map(|s| freq[s] * u64::from(lengths[s])).sum();
    let mut out = Vec::new();
    let _ = write_varint(&mut out, tokens.len() as u64);
    for pair in lengths.chunks(2) {
        out.push(pair[0] | (pair[1] << 4));
    }
    if out.len() as u64 + payload_bits.div_ceil(8) >= tokens.len() as u64 {
        return None;
    }
    out.reserve(payload_bits.div_ceil(8) as usize);
    let mut bw = BitWriter {
        out: &mut out,
        acc: 0,
        bits: 0,
    };
    for &b in tokens {
        let (code, len) = codes[usize::from(b)];
        bw.push(code, len);
    }
    bw.finish();
    Some(out)
}

/// Canonical-Huffman decoder state built from the stored length table.
struct HuffmanTable {
    /// Per length 1..=15: count of codes and the first canonical code.
    count: [u32; 16],
    first_code: [u32; 16],
    /// Index into `symbols` of the first code of each length.
    first_index: [u32; 16],
    /// Symbols sorted by (length, value); the first `count.sum()` are used.
    symbols: [u8; 256],
    /// Indexed by the next [`LUT_BITS`] bits of the stream: the code they
    /// start with, as `length << 8 | symbol`, or 0 when no code of at
    /// most [`LUT_BITS`] bits is a prefix of them.
    lut: [u16; 1 << LUT_BITS],
}

impl HuffmanTable {
    fn from_lengths(lengths: &[u8; 256]) -> io::Result<Self> {
        let mut count = [0u32; 16];
        for &l in lengths.iter() {
            if l > 0 {
                count[usize::from(l)] += 1;
            }
        }
        let mut symbols = [0u8; 256];
        let mut used = 0usize;
        for len in 1..=MAX_CODE_BITS as usize {
            for (s, &l) in lengths.iter().enumerate() {
                if usize::from(l) == len {
                    symbols[used] = s as u8;
                    used += 1;
                }
            }
        }
        if used == 0 {
            return Err(invalid("huffman table has no symbols"));
        }
        // Reject oversubscribed tables (more codes than the tree has
        // room for); undersubscribed tables are allowed, their unused
        // codes simply decode to an error if they appear.
        let mut first_code = [0u32; 16];
        let mut first_index = [0u32; 16];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=MAX_CODE_BITS as usize {
            first_code[len] = code;
            first_index[len] = index;
            code = code
                .checked_add(count[len])
                .ok_or_else(|| invalid("huffman table overflows"))?;
            index += count[len];
            if code > 1 << len {
                return Err(invalid("oversubscribed huffman table"));
            }
            code <<= 1;
        }
        // Canonical codes are prefix-free, so each short code owns the
        // disjoint run of table slots its bits prefix.
        let mut lut = [0u16; 1 << LUT_BITS];
        for len in 1..=LUT_BITS {
            let spread = LUT_BITS - len;
            for k in 0..count[len as usize] {
                let code = first_code[len as usize] + k;
                let symbol = symbols[(first_index[len as usize] + k) as usize];
                let slots = (code << spread) as usize..((code + 1) << spread) as usize;
                lut[slots].fill((len as u16) << 8 | u16::from(symbol));
            }
        }
        Ok(HuffmanTable {
            count,
            first_code,
            first_index,
            symbols,
            lut,
        })
    }

    /// Decodes one code bit by bit, trying lengths 1..=15 in turn: the
    /// path for codes longer than the table covers and for the stream's
    /// last bits. `br` must hold at least [`MAX_CODE_BITS`] bits or every
    /// bit the stream has left.
    #[cold]
    fn decode_slow(&self, br: &mut BitReader<'_>) -> io::Result<u8> {
        for len in 1..=MAX_CODE_BITS {
            if len > br.bits {
                return Err(invalid("huffman bitstream exhausted"));
            }
            let code = (br.acc >> (64 - len)) as u32;
            let offset = code.wrapping_sub(self.first_code[len as usize]);
            if offset < self.count[len as usize] {
                br.consume(len);
                return Ok(self.symbols[(self.first_index[len as usize] + offset) as usize]);
            }
        }
        Err(invalid("invalid huffman code"))
    }
}

/// MSB-first bit reader: the next unread bit is the top bit of `acc`,
/// `bits` bits are valid, and the bits below them are zero or already
/// the stream's next bits.
struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    bits: u32,
}

impl BitReader<'_> {
    /// Tops `acc` up to at least 56 valid bits, or to every bit the
    /// stream has left.
    #[inline]
    fn refill(&mut self) {
        if let Some(word) = self.data.get(self.pos..self.pos + 8) {
            // Whole bytes become valid bits; the part of the next byte
            // that also lands in `acc` is the same bits the next refill
            // ors in again.
            let word = u64::from_be_bytes(word.try_into().expect("8-byte slice"));
            self.acc |= word >> self.bits;
            let whole = (63 - self.bits) >> 3;
            self.pos += whole as usize;
            self.bits += whole << 3;
        } else {
            while self.bits <= 56 && self.pos < self.data.len() {
                self.acc |= u64::from(self.data[self.pos]) << (56 - self.bits);
                self.pos += 1;
                self.bits += 8;
            }
        }
    }

    #[inline]
    fn consume(&mut self, len: u32) {
        self.acc <<= len;
        self.bits -= len;
    }
}

/// Decodes exactly `lz_len` symbols from the Huffman bitstream.
///
/// Each symbol is one table probe on the next [`LUT_BITS`] bits. Past the
/// end of the data those bits read as zero, so a probe only counts when
/// its code fits the bits actually left; otherwise the slow path decides,
/// which fails at the first symbol that runs past the end.
fn huffman_decode(table: &HuffmanTable, data: &[u8], lz_len: usize) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(lz_len);
    let mut br = BitReader {
        data,
        pos: 0,
        acc: 0,
        bits: 0,
    };
    for _ in 0..lz_len {
        if br.bits < MAX_CODE_BITS {
            br.refill();
        }
        let entry = table.lut[(br.acc >> (64 - LUT_BITS)) as usize];
        let len = u32::from(entry >> 8);
        let symbol = if len != 0 && len <= br.bits {
            br.consume(len);
            entry as u8
        } else {
            table.decode_slow(&mut br)?
        };
        out.push(symbol);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Public container API
// ---------------------------------------------------------------------

const METHOD_STORED: u8 = 0;
const METHOD_LZ_HUFFMAN: u8 = 1;

/// Compresses `input`. The output is at most `input.len() + 1` bytes
/// (the stored fallback) and decompresses back exactly via
/// [`decompress`] given `input.len()` as the declared length.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let tokens = lz_compress(input);
    if let Some(encoded) = huffman_compress(&tokens) {
        // Only worth it if the whole pipeline beats storing raw input.
        if encoded.len() + 1 < input.len() {
            let mut out = Vec::with_capacity(encoded.len() + 1);
            out.push(METHOD_LZ_HUFFMAN);
            out.extend_from_slice(&encoded);
            return out;
        }
    }
    let mut out = Vec::with_capacity(input.len() + 1);
    out.push(METHOD_STORED);
    out.extend_from_slice(input);
    out
}

/// Decompresses a [`compress`] container into exactly `declared_len`
/// bytes.
///
/// Written for untrusted input: output allocation is capped at
/// `declared_len`, the token scratch buffer at
/// [`max_token_len`]`(declared_len)`, and any stream that is malformed
/// or produces a different length is rejected.
///
/// # Errors
///
/// Returns `InvalidData` for unknown methods, malformed Huffman tables
/// or bitstreams, invalid LZ tokens/offsets, or any output-length
/// mismatch.
pub fn decompress(input: &[u8], declared_len: usize) -> io::Result<Vec<u8>> {
    let Some((&method, body)) = input.split_first() else {
        return Err(invalid("empty compressed payload"));
    };
    match method {
        METHOD_STORED => {
            if body.len() != declared_len {
                return Err(invalid(format!(
                    "stored payload holds {} of {declared_len} declared bytes",
                    body.len()
                )));
            }
            Ok(body.to_vec())
        }
        METHOD_LZ_HUFFMAN => {
            let mut r = body;
            let lz_len = read_varint(&mut r)
                .map_err(|e| invalid(format!("unreadable token-stream length: {e}")))?;
            if lz_len > max_token_len(declared_len) as u64 {
                return Err(invalid(format!(
                    "token-stream length {lz_len} exceeds bound for {declared_len} output bytes"
                )));
            }
            if r.len() < 128 {
                return Err(invalid("huffman length table cut short"));
            }
            let (packed_lengths, bits) = r.split_at(128);
            let mut lengths = [0u8; 256];
            for (i, &b) in packed_lengths.iter().enumerate() {
                lengths[2 * i] = b & 0x0F;
                lengths[2 * i + 1] = b >> 4;
            }
            let table = HuffmanTable::from_lengths(&lengths)?;
            let tokens = huffman_decode(&table, bits, lz_len as usize)?;
            lz_decode(&tokens, declared_len)
        }
        other => Err(invalid(format!("unknown compression method {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn roundtrip(data: &[u8]) {
        let compressed = compress(data);
        assert!(
            compressed.len() <= data.len() + 1,
            "{} bytes compressed to {}",
            data.len(),
            compressed.len()
        );
        let restored = decompress(&compressed, data.len()).unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn roundtrips_basic_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcabcabcabcabcabcabcabc");
        roundtrip(&[0u8; 10_000]);
        roundtrip(
            "the quick brown fox jumps over the lazy dog "
                .repeat(100)
                .as_bytes(),
        );
    }

    #[test]
    fn roundtrips_random_and_structured() {
        let mut rng = SplitMix64::new(42);
        let random: Vec<u8> = (0..50_000).map(|_| rng.next_u64() as u8).collect();
        roundtrip(&random);
        let structured: Vec<u8> = (0..50_000u32).flat_map(|i| (i / 7).to_le_bytes()).collect();
        roundtrip(&structured);
        // Overlapping-match territory: short period repeats.
        let periodic: Vec<u8> = (0..10_000).map(|i| (i % 3) as u8).collect();
        roundtrip(&periodic);
    }

    #[test]
    fn compresses_redundant_input() {
        let data = b"abcdefgh".repeat(4096);
        let compressed = compress(&data);
        assert!(
            compressed.len() < data.len() / 8,
            "{} -> {}",
            data.len(),
            compressed.len()
        );
    }

    #[test]
    fn wrong_declared_length_rejected() {
        let data = b"hello world hello world hello world".to_vec();
        let compressed = compress(&data);
        assert!(decompress(&compressed, data.len() + 1).is_err());
        assert!(decompress(&compressed, data.len() - 1).is_err());
    }

    #[test]
    fn malformed_streams_are_typed_errors() {
        assert!(decompress(&[], 0).is_err());
        assert!(decompress(&[7, 1, 2, 3], 3).is_err(), "unknown method");
        assert!(decompress(&[1], 10).is_err(), "missing token length");
        assert!(decompress(&[1, 200], 10).is_err(), "truncated varint");
        // Declared token stream far beyond the output bound.
        let mut bomb = vec![1u8];
        crate::io::write_varint(&mut bomb, u64::MAX / 2).unwrap();
        bomb.extend_from_slice(&[0u8; 200]);
        assert!(decompress(&bomb, 10).is_err());
    }

    #[test]
    fn corrupted_bytes_never_panic() {
        let data = b"some moderately compressible payload ".repeat(64);
        let compressed = compress(&data);
        let mut rng = SplitMix64::new(7);
        for _ in 0..500 {
            let mut bad = compressed.clone();
            let at = (rng.next_u64() as usize) % bad.len();
            bad[at] ^= 1 << (rng.next_u64() % 8);
            // Either decodes to *something* of the right length or
            // errors; must never panic or over-allocate.
            if let Ok(out) = decompress(&bad, data.len()) {
                assert_eq!(out.len(), data.len());
            }
        }
    }

    #[test]
    fn truncation_never_panics() {
        let data = b"truncation probe ".repeat(256);
        let compressed = compress(&data);
        for cut in 0..compressed.len() {
            let _ = decompress(&compressed[..cut], data.len());
        }
    }
}
