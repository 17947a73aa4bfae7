//! The generator behind every synthetic field: xoshiro256++ seeded
//! through SplitMix64, deterministic for a given seed. Every pinned input
//! (`tests/pinned_inputs.rs`) is a function of its exact draw sequence,
//! so neither the algorithm nor either draw may change.

/// xoshiro256++ state.
pub(crate) struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Expands `seed` into the four state words with SplitMix64, as the
    /// xoshiro authors recommend.
    pub(crate) fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256pp {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 random bits.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[lo, hi)`: 53 random mantissa bits as `unit` in
    /// `[0, 1)`, then `lo + unit * (hi - lo)`.
    #[inline]
    pub(crate) fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// Uniform index in `[0, n)` as `next % n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub(crate) fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an empty range");
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first outputs for seed 0, from the reference SplitMix64 and
    /// xoshiro256++ definitions.
    #[test]
    fn matches_the_reference_sequence() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        assert_eq!(
            rng.s,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F,
                0xF88B_B8A8_724C_81EC
            ]
        );
        assert_eq!(rng.next_u64(), 0x5317_5D61_490B_23DF);
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..10_000 {
            let f = rng.f64_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
            assert!(rng.below(17) < 17);
        }
    }
}
