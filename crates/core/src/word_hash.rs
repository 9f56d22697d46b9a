use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Builds [`WordHasher`]s that share one key, drawn from the standard
/// library's per-process random hash keys so that a crafted trace cannot
/// aim its keys at one bucket. Each map gets its own key.
#[derive(Debug, Clone)]
pub(crate) struct WordHashBuilder(u64);

impl WordHashBuilder {
    pub(crate) fn new() -> WordHashBuilder {
        WordHashBuilder(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for WordHashBuilder {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher {
            key: self.0,
            hash: 0,
        }
    }
}

/// Hashes `u64` words with one folded multiply each (the high and low
/// halves of a 64×64→128-bit product, XORed), in place of SipHash's
/// rounds. A `[u64]` slice arrives as its length and then its words as
/// bytes.
pub(crate) struct WordHasher {
    key: u64,
    hash: u64,
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_ne_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_ne_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.hash ^ word ^ self.key) * 0x9E37_79B9_7F4A_7C15;
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}
