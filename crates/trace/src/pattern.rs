use crate::rng::SplitMix64;

/// The value sequence a synthetic static instruction produces.
///
/// These are the sequence classes whose interaction the paper studies:
/// constants (e.g. `slt` results), strides (induction variables, address
/// arithmetic), stride patterns that wrap around (loop restarts — the
/// paper's `0 1 2 3 4 5 6` example), repeating non-stride contexts (the
/// patterns the FCM level-2 table exists for), and unpredictable values.
///
/// ```
/// use dfcm_trace::Pattern;
///
/// let mut state = Pattern::StrideReset { start: 0, stride: 1, period: 3 }.start(9);
/// let values: Vec<u64> = (0..7).map(|_| state.next_value()).collect();
/// assert_eq!(values, vec![0, 1, 2, 0, 1, 2, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Pattern {
    /// Always the same value.
    Constant(u64),
    /// `start, start+stride, start+2·stride, …` without end (wrapping).
    Stride {
        /// First value produced.
        start: u64,
        /// Difference between consecutive values (wrapping; use
        /// `x.wrapping_neg()` for descending patterns).
        stride: u64,
    },
    /// A stride pattern of `period` values that restarts from `start` —
    /// the dominant pattern of loop induction variables and array address
    /// streams.
    StrideReset {
        /// First value of each lap.
        start: u64,
        /// Difference between consecutive values within a lap.
        stride: u64,
        /// Number of values per lap (≥ 1).
        period: u32,
    },
    /// An arbitrary repeating sequence — a pure context pattern.
    Periodic(Vec<u64>),
    /// A repeating walk over a pseudo-random cycle of `nodes` pointer-like
    /// values — a context pattern with address-shaped values, as produced
    /// by traversals of stable linked data structures.
    PointerChase {
        /// Number of nodes in the cycle (≥ 1).
        nodes: u32,
        /// Base "address" of the node pool.
        base: u64,
    },
    /// Uniformly random `bits`-bit values: unpredictable by any of the
    /// paper's predictors.
    Random {
        /// Width of the produced values (1..=64).
        bits: u32,
    },
    /// A constant that occasionally switches to a fresh value and stays
    /// there (e.g. a loop-invariant reloaded per outer iteration).
    SwitchingConstant {
        /// Average number of repetitions before the value switches.
        mean_run: u32,
        /// Width of the produced values (1..=64).
        bits: u32,
    },
}

impl Pattern {
    /// Instantiates the pattern into a value generator.
    ///
    /// `seed` fixes all randomness (node permutations, random values,
    /// switch points); equal seeds give identical sequences.
    pub fn start(&self, seed: u64) -> PatternState {
        let mut rng = SplitMix64::new(seed ^ 0xD1F7_5EED);
        let kind = match self {
            Pattern::Constant(v) => StateKind::Constant { value: *v },
            Pattern::Stride { start, stride } => StateKind::Stride {
                next: *start,
                stride: *stride,
            },
            Pattern::StrideReset {
                start,
                stride,
                period,
            } => StateKind::StrideReset {
                start: *start,
                stride: *stride,
                period: (*period).max(1),
                position: 0,
            },
            Pattern::Periodic(values) => {
                assert!(!values.is_empty(), "periodic pattern must not be empty");
                StateKind::Periodic {
                    values: values.clone(),
                    position: 0,
                }
            }
            Pattern::PointerChase { nodes, base } => {
                let n = (*nodes).max(1) as usize;
                // A random cycle over n node addresses. Nodes are scattered
                // (16-aligned) over a region ~8x their footprint, like heap
                // allocations interleaved with other objects — a perfect
                // arithmetic progression would make the walk's *differences*
                // artificially uniform. One bit per candidate offset marks
                // the ones taken.
                let mut taken = vec![0u64; n.div_ceil(8)];
                let mut order: Vec<u64> = Vec::with_capacity(n);
                while order.len() < n {
                    let offset = rng.next_below(8 * n as u64);
                    let (word, bit) = ((offset / 64) as usize, 1u64 << (offset % 64));
                    if taken[word] & bit == 0 {
                        taken[word] |= bit;
                        order.push(base + 16 * offset);
                    }
                }
                for i in (1..n).rev() {
                    order.swap(i, rng.next_below(i as u64 + 1) as usize);
                }
                StateKind::Periodic {
                    values: order,
                    position: 0,
                }
            }
            Pattern::Random { bits } => {
                assert!((1..=64).contains(bits), "random width must be 1..=64");
                StateKind::Random {
                    mask: mask_of(*bits),
                }
            }
            Pattern::SwitchingConstant { mean_run, bits } => {
                assert!((1..=64).contains(bits), "value width must be 1..=64");
                let mask = mask_of(*bits);
                let first = rng.next_u64() & mask;
                StateKind::SwitchingConstant {
                    value: first,
                    mean_run: (*mean_run).max(1),
                    mask,
                }
            }
        };
        PatternState { kind, rng }
    }
}

fn mask_of(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// A running instance of a [`Pattern`], produced by [`Pattern::start`].
#[derive(Debug, Clone)]
pub struct PatternState {
    kind: StateKind,
    rng: SplitMix64,
}

#[derive(Debug, Clone)]
enum StateKind {
    Constant {
        value: u64,
    },
    Stride {
        next: u64,
        stride: u64,
    },
    StrideReset {
        start: u64,
        stride: u64,
        period: u32,
        position: u32,
    },
    Periodic {
        values: Vec<u64>,
        position: usize,
    },
    Random {
        mask: u64,
    },
    SwitchingConstant {
        value: u64,
        mean_run: u32,
        mask: u64,
    },
}

impl PatternState {
    /// Produces the next value of the sequence.
    pub fn next_value(&mut self) -> u64 {
        match &mut self.kind {
            StateKind::Constant { value } => *value,
            StateKind::Stride { next, stride } => {
                let v = *next;
                *next = next.wrapping_add(*stride);
                v
            }
            StateKind::StrideReset {
                start,
                stride,
                period,
                position,
            } => {
                let v = start.wrapping_add(u64::from(*position).wrapping_mul(*stride));
                *position += 1;
                if *position == *period {
                    *position = 0;
                }
                v
            }
            StateKind::Periodic { values, position } => {
                let v = values[*position];
                *position = (*position + 1) % values.len();
                v
            }
            StateKind::Random { mask } => self.rng.next_u64() & *mask,
            StateKind::SwitchingConstant {
                value,
                mean_run,
                mask,
            } => {
                let v = *value;
                if self.rng.chance(1, u64::from(*mean_run)) {
                    *value = self.rng.next_u64() & *mask;
                }
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_n(p: &Pattern, seed: u64, n: usize) -> Vec<u64> {
        let mut s = p.start(seed);
        (0..n).map(|_| s.next_value()).collect()
    }

    #[test]
    fn constant_repeats() {
        assert_eq!(first_n(&Pattern::Constant(9), 0, 4), vec![9, 9, 9, 9]);
    }

    #[test]
    fn stride_advances() {
        assert_eq!(
            first_n(
                &Pattern::Stride {
                    start: 5,
                    stride: 3
                },
                0,
                4
            ),
            vec![5, 8, 11, 14]
        );
    }

    #[test]
    fn descending_stride_wraps() {
        let p = Pattern::Stride {
            start: 10,
            stride: 2u64.wrapping_neg(),
        };
        assert_eq!(first_n(&p, 0, 3), vec![10, 8, 6]);
    }

    #[test]
    fn stride_reset_wraps_at_period() {
        let p = Pattern::StrideReset {
            start: 100,
            stride: 10,
            period: 3,
        };
        assert_eq!(first_n(&p, 0, 7), vec![100, 110, 120, 100, 110, 120, 100]);
    }

    #[test]
    fn periodic_cycles() {
        let p = Pattern::Periodic(vec![4, 7, 1]);
        assert_eq!(first_n(&p, 0, 5), vec![4, 7, 1, 4, 7]);
    }

    #[test]
    fn pointer_chase_is_periodic_permutation() {
        let p = Pattern::PointerChase {
            nodes: 8,
            base: 0x1000,
        };
        let lap1 = first_n(&p, 42, 8);
        let lap2 = {
            let mut s = p.start(42);
            for _ in 0..8 {
                s.next_value();
            }
            (0..8).map(|_| s.next_value()).collect::<Vec<_>>()
        };
        assert_eq!(lap1, lap2, "walk must repeat with period = nodes");
        let distinct: std::collections::HashSet<u64> = lap1.iter().copied().collect();
        assert_eq!(distinct.len(), 8, "walk must visit every node exactly once");
        for &v in &lap1 {
            assert_eq!(v % 16, 0, "node addresses are 16-aligned");
            assert!(
                (0x1000..0x1000 + 16 * 8 * 8).contains(&v),
                "node {v:#x} outside region"
            );
        }
    }

    #[test]
    fn pointer_chase_depends_on_seed() {
        let p = Pattern::PointerChase { nodes: 16, base: 0 };
        assert_ne!(first_n(&p, 1, 16), first_n(&p, 2, 16));
    }

    #[test]
    fn random_respects_width_and_seed() {
        let p = Pattern::Random { bits: 8 };
        let values = first_n(&p, 3, 100);
        assert!(values.iter().all(|&v| v < 256));
        assert_eq!(values, first_n(&p, 3, 100));
        assert_ne!(values, first_n(&p, 4, 100));
    }

    #[test]
    fn switching_constant_has_runs() {
        let p = Pattern::SwitchingConstant {
            mean_run: 50,
            bits: 32,
        };
        let values = first_n(&p, 11, 1000);
        let repeats = values.windows(2).filter(|w| w[0] == w[1]).count();
        // With mean run 50, the overwhelming majority of adjacent pairs
        // are equal.
        assert!(repeats > 900, "repeats = {repeats}");
        let distinct: std::collections::HashSet<_> = values.iter().collect();
        assert!(distinct.len() > 5, "value must switch now and then");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_periodic_rejected() {
        Pattern::Periodic(vec![]).start(0);
    }

    #[test]
    fn deterministic_across_instances() {
        for p in [
            Pattern::Random { bits: 16 },
            Pattern::PointerChase { nodes: 5, base: 64 },
            Pattern::SwitchingConstant {
                mean_run: 3,
                bits: 8,
            },
        ] {
            assert_eq!(first_n(&p, 99, 50), first_n(&p, 99, 50));
        }
    }
}
