use crate::error::ConfigError;

/// History hashing function for the level-1 tables of [`FcmPredictor`] and
/// [`DfcmPredictor`].
///
/// Two-level context predictors store a *hashed* history in the level-1
/// table and use it as the level-2 index, so the hash must be computable
/// incrementally: given the previous hashed history and the newest value,
/// produce the new hashed history (§2.3 of the paper).
///
/// [`FcmPredictor`]: crate::FcmPredictor
/// [`DfcmPredictor`]: crate::DfcmPredictor
///
/// ```
/// use dfcm::HashFunction;
///
/// let h = HashFunction::FsR5;
/// let mut hist = 0u64;
/// for v in [3u64, 1, 4, 1, 5] {
///     hist = h.fold_update(hist, v, 12);
/// }
/// assert!(hist < (1 << 12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum HashFunction {
    /// Sazeides' *FS R-5* fold-shift hash, the function used throughout the
    /// paper (§4): each value is XOR-folded into `n` index bits, values are
    /// shifted left by `5·age` positions (age 0 = newest), and all shifted
    /// values are XORed. Incrementally: `h' = ((h << 5) ^ fold(v)) & mask`.
    /// Values older than `ceil(n/5)` shift entirely out of the index, which
    /// is why the paper's order varies with the level-2 size
    /// (order = ⌈n/5⌉).
    FsR5,
    /// The general *FS R-k* family of Sazeides' fold-shift hashes:
    /// `h' = ((h << k) ^ fold(v)) & mask`, giving a history order of
    /// ⌈n/k⌉. Smaller shifts keep more (older) history at the cost of
    /// mixing positions together; `FsShift { shift: 5 }` is identical to
    /// [`HashFunction::FsR5`]. Used by the order-ablation benches.
    FsShift {
        /// Positions each value shifts per age step (1..=16).
        shift: u8,
    },
    /// Order-less XOR folding: `h' = h ^ fold(v)`. All positions carry equal
    /// weight, so permutations of a history collide; included as an ablation
    /// baseline.
    FoldXor,
}

impl HashFunction {
    /// XOR-folds a 64-bit value into `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 63.
    #[inline]
    pub fn fold(value: u64, bits: u32) -> u64 {
        assert!(
            bits > 0 && bits < 64,
            "fold width must be in 1..=63, got {bits}"
        );
        Self::fold_unchecked(value, bits)
    }

    /// [`fold`](Self::fold) without its width check, for widths a
    /// predictor builder has already validated.
    #[inline(always)]
    fn fold_unchecked(value: u64, bits: u32) -> u64 {
        debug_assert!(bits > 0 && bits < 64, "fold width {bits}");
        let mask = (1u64 << bits) - 1;
        let mut v = value;
        let mut folded = 0u64;
        while v != 0 {
            folded ^= v & mask;
            v >>= bits;
        }
        folded
    }

    /// [`fold_update`](Self::fold_update) of [`HashFunction::FsR5`] with
    /// the width check left out: the plain FCM and DFCM kernels call it
    /// with the level-2 width their builder validated.
    #[inline(always)]
    pub(crate) fn fs_r5_update(old: u64, value: u64, index_bits: u32) -> u64 {
        ((old << 5) ^ Self::fold_unchecked(value, index_bits)) & ((1u64 << index_bits) - 1)
    }

    /// Incrementally mixes `value` into the hashed history `old`, producing
    /// a new hash of `index_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 63 (via the fold).
    /// Configurations are rejected up front by [`HashFunction::validate`]
    /// (every predictor builder calls it).
    #[inline]
    pub fn fold_update(&self, old: u64, value: u64, index_bits: u32) -> u64 {
        let mask = (1u64 << index_bits) - 1;
        match *self {
            HashFunction::FsR5 => ((old << 5) ^ Self::fold(value, index_bits)) & mask,
            HashFunction::FsShift { shift } => {
                ((old << shift) ^ Self::fold(value, index_bits)) & mask
            }
            HashFunction::FoldXor => (old ^ Self::fold(value, index_bits)) & mask,
        }
    }

    /// The effective history order for an index of `index_bits` bits: how
    /// many most-recent values influence the level-2 index.
    ///
    /// For FS R-5 this is ⌈n/5⌉, reproducing the paper's table
    /// (n = 8 → 2, 12 → 3, 16 → 4, 20 → 4 — the paper caps at 4).
    pub fn order(&self, index_bits: u32) -> u32 {
        match *self {
            HashFunction::FsR5 => index_bits.div_ceil(5).max(1),
            HashFunction::FsShift { shift } => index_bits.div_ceil(u32::from(shift.max(1))).max(1),
            // XOR accumulates all history; by convention report the same
            // depth an FS R-5 hash of this width would have, which is what
            // the aliasing analysis compares against.
            HashFunction::FoldXor => index_bits.div_ceil(5).max(1),
        }
    }

    /// Checks that this hash can produce indices of `index_bits` bits.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Hash`] if `index_bits` is outside `1..=63` or
    /// a fold-shift amount is outside `1..=16`.
    pub fn validate(&self, index_bits: u32) -> Result<(), ConfigError> {
        if index_bits == 0 || index_bits > 63 {
            return Err(ConfigError::Hash {
                reason: format!("index width {index_bits} must be in 1..=63"),
            });
        }
        if let HashFunction::FsShift { shift } = *self {
            if !(1..=16).contains(&shift) {
                return Err(ConfigError::Hash {
                    reason: format!("fold-shift amount {shift} must be in 1..=16"),
                });
            }
        }
        Ok(())
    }

    /// Short name used in predictor labels.
    pub fn label(&self) -> &'static str {
        match self {
            HashFunction::FsR5 => "fs-r5",
            HashFunction::FsShift { .. } => "fs-rk",
            HashFunction::FoldXor => "fold-xor",
        }
    }
}

impl Default for HashFunction {
    /// The paper's FS R-5 hash.
    fn default() -> Self {
        HashFunction::FsR5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_is_within_range() {
        for bits in [1u32, 5, 8, 13, 32, 63] {
            let folded = HashFunction::fold(u64::MAX, bits);
            assert!(folded < (1u64 << bits), "bits={bits}");
        }
    }

    #[test]
    fn fold_of_small_value_is_identity() {
        assert_eq!(HashFunction::fold(0x3f, 8), 0x3f);
        assert_eq!(HashFunction::fold(0, 8), 0);
    }

    #[test]
    fn fold_xors_chunks() {
        // 0xAB in the high byte and 0xCD in the low byte fold to 0xAB ^ 0xCD.
        assert_eq!(HashFunction::fold(0xAB_CD, 8), 0xAB ^ 0xCD);
    }

    #[test]
    fn fs_r5_keeps_index_in_range() {
        let h = HashFunction::FsR5;
        let mut hist = 0u64;
        for v in 0..10_000u64 {
            hist = h.fold_update(hist, v.wrapping_mul(0x9E37_79B9_7F4A_7C15), 14);
            assert!(hist < (1 << 14));
        }
    }

    #[test]
    fn fs_r5_order_matches_paper_table() {
        // Paper: L2 size 2^8 2^10 2^12 2^14 2^16 2^18 2^20
        //        order     2    2    3    3    4    4    4
        let h = HashFunction::FsR5;
        assert_eq!(h.order(8), 2);
        assert_eq!(h.order(10), 2);
        assert_eq!(h.order(12), 3);
        assert_eq!(h.order(14), 3);
        assert_eq!(h.order(16), 4);
        assert_eq!(h.order(18), 4);
        assert_eq!(h.order(20), 4);
    }

    #[test]
    fn fs_r5_old_values_shift_out() {
        // With a 10-bit index, a value mixed in 2 updates ago still affects
        // the index, but after ceil(10/5)=2 further updates it is gone.
        let h = HashFunction::FsR5;
        let a = h.fold_update(0, 111, 10);
        let b = h.fold_update(0, 222, 10);
        assert_ne!(a, b);
        let mut ha = a;
        let mut hb = b;
        for v in [7u64, 9] {
            ha = h.fold_update(ha, v, 10);
            hb = h.fold_update(hb, v, 10);
        }
        assert_eq!(
            ha, hb,
            "values older than the order must not affect the index"
        );
    }

    #[test]
    fn fold_xor_is_order_insensitive() {
        let h = HashFunction::FoldXor;
        let ab = h.fold_update(h.fold_update(0, 5, 8), 9, 8);
        let ba = h.fold_update(h.fold_update(0, 9, 8), 5, 8);
        assert_eq!(ab, ba);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        assert!(HashFunction::FsR5.validate(0).is_err());
        assert!(HashFunction::FsR5.validate(64).is_err());
        assert!(HashFunction::FsR5.validate(12).is_ok());
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            HashFunction::FsR5.label(),
            HashFunction::FoldXor.label(),
            HashFunction::FsShift { shift: 3 }.label(),
        ];
        assert_eq!(labels.len(), 3);
        assert_ne!(labels[0], labels[1]);
        assert_ne!(labels[1], labels[2]);
    }
}

#[cfg(test)]
mod fs_family_tests {
    use super::*;

    #[test]
    fn fs_shift_5_matches_fs_r5() {
        let general = HashFunction::FsShift { shift: 5 };
        let mut ha = 0u64;
        let mut hb = 0u64;
        for v in 0..500u64 {
            let x = v.wrapping_mul(0xA24B_AED4_963E_E407);
            ha = HashFunction::FsR5.fold_update(ha, x, 13);
            hb = general.fold_update(hb, x, 13);
            assert_eq!(ha, hb);
        }
        assert_eq!(general.order(13), HashFunction::FsR5.order(13));
    }

    #[test]
    fn order_scales_with_shift() {
        assert_eq!(HashFunction::FsShift { shift: 1 }.order(12), 12);
        assert_eq!(HashFunction::FsShift { shift: 3 }.order(12), 4);
        assert_eq!(HashFunction::FsShift { shift: 6 }.order(12), 2);
        assert_eq!(HashFunction::FsShift { shift: 12 }.order(12), 1);
    }

    #[test]
    fn old_values_shift_out_after_order_steps() {
        let h = HashFunction::FsShift { shift: 4 };
        let order = h.order(12) as usize; // ceil(12/4) = 3
        assert_eq!(order, 3);
        let mut a = h.fold_update(0, 0xAAAA, 12);
        let mut b = h.fold_update(0, 0x5555, 12);
        for v in 0..order as u64 {
            a = h.fold_update(a, v, 12);
            b = h.fold_update(b, v, 12);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn validate_rejects_bad_shift() {
        assert!(HashFunction::FsShift { shift: 0 }.validate(12).is_err());
        assert!(HashFunction::FsShift { shift: 17 }.validate(12).is_err());
        assert!(HashFunction::FsShift { shift: 3 }.validate(12).is_ok());
    }

    #[test]
    fn indices_stay_in_range() {
        let h = HashFunction::FsShift { shift: 2 };
        let mut acc = 0u64;
        for v in 0..1000u64 {
            acc = h.fold_update(acc, v.wrapping_mul(0x9E37_79B9), 11);
            assert!(acc < (1 << 11));
        }
    }
}
