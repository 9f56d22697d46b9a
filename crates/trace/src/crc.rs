//! Std-only CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), used by the
//! v2 and v3 trace formats to checksum each record chunk.
//!
//! Hashing runs slicing-by-8: eight lookup tables, built at compile
//! time, fold eight input bytes per step with no runtime setup. The
//! parameters match zlib's `crc32` (reflected polynomial, initial value
//! and final xor of `0xFFFF_FFFF`), so checksums can be cross-checked
//! with any standard CRC-32 tool.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC contribution of byte `b` followed by `k` zero bytes, so the
/// eight bytes of one step can be looked up independently and xored.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Incremental CRC-32 state, for hashing data that arrives in pieces.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything updated so far.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The textbook byte-at-a-time loop over `TABLES[0]`.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check values for this parameterization (same as zlib).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_split() {
        let mut rng = SplitMix64::new(0xC3C);
        let data: Vec<u8> = (0..300).map(|_| rng.next_u64() as u8).collect();
        for len in 0..data.len() {
            let expected = bytewise(&data[..len]);
            assert_eq!(crc32(&data[..len]), expected, "length {len}");
            // Misaligned piecewise updates agree with one shot.
            let split = len * 7 / 11;
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..len]);
            assert_eq!(crc.finalize(), expected, "length {len} split {split}");
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"chunked trace payload bytes";
        let mut crc = Crc32::new();
        crc.update(&data[..7]);
        crc.update(&data[7..]);
        assert_eq!(crc.finalize(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0u8; 4096];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 31) as u8;
        }
        let clean = crc32(&data);
        for position in [0usize, 100, 2048, 4095] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[position] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {position}:{bit}");
            }
        }
    }
}
