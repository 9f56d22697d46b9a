//! Naive reference decoders for the v3 codec, compiled only for tests:
//! bit-at-a-time canonical Huffman, byte-at-a-time LZ match copies, and
//! a `HashMap`-bucketed record unpack, written for obviousness rather
//! than speed. The optimized [`crate::compress::decompress`] and v3
//! unpack must agree with them on every input, well-formed or not: the
//! same output when both accept, and a rejection from both otherwise.

use std::collections::HashMap;
use std::io::{self, Read};

use crate::compress::max_token_len;
use crate::io::{read_varint, unzigzag};
use crate::record::TraceRecord;

fn invalid(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

/// Canonical-Huffman decoder state: per length 1..=15, the count of
/// codes, the first code, and where its symbols start in `symbols`.
struct HuffmanTable {
    count: [u32; 16],
    first_code: [u32; 16],
    first_index: [u32; 16],
    /// Symbols sorted by (length, value).
    symbols: Vec<u8>,
}

impl HuffmanTable {
    fn from_lengths(lengths: &[u8; 256]) -> io::Result<Self> {
        let mut count = [0u32; 16];
        for &l in lengths.iter() {
            if l > 0 {
                count[usize::from(l)] += 1;
            }
        }
        let mut symbols = Vec::new();
        for len in 1..=15 {
            for (s, &l) in lengths.iter().enumerate() {
                if usize::from(l) == len {
                    symbols.push(s as u8);
                }
            }
        }
        if symbols.is_empty() {
            return Err(invalid("huffman table has no symbols"));
        }
        let mut first_code = [0u32; 16];
        let mut first_index = [0u32; 16];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=15 {
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
        Ok(HuffmanTable {
            count,
            first_code,
            first_index,
            symbols,
        })
    }
}

/// Decodes `lz_len` symbols, reading one bit at a time and trying each
/// code length in turn.
fn huffman_decode(table: &HuffmanTable, data: &[u8], lz_len: usize) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(lz_len);
    let mut bits = data
        .iter()
        .flat_map(|&byte| (0..8).rev().map(move |i| u32::from(byte >> i) & 1));
    for _ in 0..lz_len {
        let mut code = 0u32;
        let mut symbol = None;
        for len in 1..=15 {
            let bit = bits
                .next()
                .ok_or_else(|| invalid("huffman bitstream exhausted"))?;
            code = (code << 1) | bit;
            let offset = code.wrapping_sub(table.first_code[len]);
            if offset < table.count[len] {
                symbol = Some(table.symbols[(table.first_index[len] + offset) as usize]);
                break;
            }
        }
        out.push(symbol.ok_or_else(|| invalid("invalid huffman code"))?);
    }
    Ok(out)
}

/// Decodes an LZ token stream into exactly `declared_len` bytes, copying
/// every match byte by byte.
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
            for _ in 0..len {
                let byte = out[out.len() - offset];
                out.push(byte);
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

/// Reference [`crate::compress::decompress`].
pub(crate) fn decompress(input: &[u8], declared_len: usize) -> io::Result<Vec<u8>> {
    let Some((&method, body)) = input.split_first() else {
        return Err(invalid("empty compressed payload"));
    };
    match method {
        0 => {
            if body.len() != declared_len {
                return Err(invalid(format!(
                    "stored payload holds {} of {declared_len} declared bytes",
                    body.len()
                )));
            }
            Ok(body.to_vec())
        }
        1 => {
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

/// Reference v3 record unpack: the pc of every record first, then value
/// buckets keyed by pc in a `HashMap`, in order of first appearance.
pub(crate) fn unpack_records(packed: &[u8], records: u64) -> Result<Vec<TraceRecord>, String> {
    let mut rest = packed;
    let mut mode = [0u8; 1];
    rest.read_exact(&mut mode)
        .map_err(|_| String::from("missing value-stream mode byte"))?;
    let mode = mode[0];
    if mode > 1 {
        return Err(format!("unknown value-stream mode {mode}"));
    }

    let dict_len = read_varint(&mut rest).map_err(|e| format!("dictionary length: {e}"))?;
    if dict_len > records {
        return Err(format!(
            "dictionary declares {dict_len} pcs for {records} records"
        ));
    }
    let mut dict: Vec<u64> = Vec::with_capacity(dict_len as usize);
    let mut prev = 0u64;
    for i in 0..dict_len {
        let gap = read_varint(&mut rest).map_err(|e| format!("dictionary entry {i}: {e}"))?;
        let pc = if i == 0 {
            gap
        } else {
            prev.checked_add(gap)
                .ok_or_else(|| format!("dictionary entry {i} overflows"))?
        };
        dict.push(pc);
        prev = pc;
    }
    let mut pc_by_rank: Vec<Option<u64>> = vec![None; dict_len as usize];
    for (i, &pc) in dict.iter().enumerate() {
        let r = read_varint(&mut rest).map_err(|e| format!("dictionary rank {i}: {e}"))?;
        let slot = pc_by_rank
            .get_mut(r as usize)
            .ok_or_else(|| format!("dictionary rank {r} outside {dict_len} entries"))?;
        if slot.replace(pc).is_some() {
            return Err(format!("dictionary rank {r} assigned twice"));
        }
    }
    let dict: Vec<u64> = pc_by_rank.into_iter().flatten().collect();

    let pc_len = read_varint(&mut rest).map_err(|e| format!("pc stream length: {e}"))?;
    if pc_len > rest.len() as u64 {
        return Err(format!(
            "pc stream length {pc_len} exceeds the {} payload bytes",
            rest.len()
        ));
    }
    let (mut pcs, mut values) = rest.split_at(pc_len as usize);
    let mut pc_seq: Vec<u64> = Vec::with_capacity(records as usize);
    let mut prev_pc = 0u64;
    for _ in 0..records {
        let symbol = read_varint(&mut pcs).map_err(|e| format!("pc stream: {e}"))?;
        let pc = if symbol == 0 {
            prev_pc.wrapping_add(4)
        } else {
            *dict
                .get(symbol as usize - 1)
                .ok_or_else(|| format!("pc symbol {symbol} outside {dict_len}-entry dictionary"))?
        };
        pc_seq.push(pc);
        prev_pc = pc;
    }
    if !pcs.is_empty() {
        return Err(format!(
            "{} unused pc-stream bytes after the last record",
            pcs.len()
        ));
    }

    let mut bucket_of: HashMap<u64, usize> = HashMap::new();
    let mut counts: Vec<usize> = Vec::new();
    for &pc in &pc_seq {
        let b = *bucket_of.entry(pc).or_insert_with(|| {
            counts.push(0);
            counts.len() - 1
        });
        counts[b] += 1;
    }
    let mut buckets: Vec<Vec<u64>> = Vec::with_capacity(counts.len());
    for (b, &count) in counts.iter().enumerate() {
        let mut bucket = Vec::with_capacity(count);
        let mut prev = 0i64;
        for _ in 0..count {
            let field = read_varint(&mut values).map_err(|e| format!("value bucket {b}: {e}"))?;
            let value = match mode {
                0 => prev.wrapping_add(unzigzag(field)),
                _ => field as i64,
            };
            bucket.push(value as u64);
            prev = value;
        }
        buckets.push(bucket);
    }
    if !values.is_empty() {
        return Err(format!(
            "{} unused value-stream bytes after the last record",
            values.len()
        ));
    }
    let mut cursor = vec![0usize; buckets.len()];
    let mut out = Vec::with_capacity(records as usize);
    for &pc in &pc_seq {
        let b = bucket_of[&pc];
        out.push(TraceRecord::new(pc, buckets[b][cursor[b]]));
        cursor[b] += 1;
    }
    Ok(out)
}
