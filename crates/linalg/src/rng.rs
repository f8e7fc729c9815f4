//! Small deterministic PRNG (PCG-XSH-RR 64/32) for seeded test-system
//! generation and randomized tests.
//!
//! The workspace builds with no external registry dependencies, so the
//! `rand` crate is not available; this is the in-tree replacement. It is
//! **not** cryptographic — it exists to make synthetic grids and
//! randomized tests reproducible from a single `u64` seed, across the
//! workspace (the solver's seeded tests draw from it too).
//!
//! # Examples
//!
//! ```
//! use sta_linalg::rng::Pcg32;
//!
//! let mut a = Pcg32::new(42);
//! let mut b = Pcg32::new(42);
//! assert_eq!(a.next_u32(), b.next_u32());
//! let x = a.uniform_f64(2.0, 25.0);
//! assert!((2.0..25.0).contains(&x));
//! ```

/// A PCG-XSH-RR 64/32 generator: 64-bit LCG state, 32-bit permuted output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;
const PCG_INIT_INC: u64 = 1442695040888963407;

impl Pcg32 {
    /// Seeds the generator; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: PCG_INIT_INC | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Next 32 raw bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 raw bits (two 32-bit draws).
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform draw from `0..n` (rejection-sampled, unbiased).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        let n = n as u64;
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let draw = self.next_u64();
            if draw < zone {
                return (draw % n) as usize;
            }
        }
    }

    /// Uniform draw from the half-open range `lo..hi`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform draw from the closed integer range `lo..=hi`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi - lo) as usize + 1;
        lo + self.below(span) as i64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        // 53 random mantissa bits → uniform in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// Fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.next_u32() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u32> = {
            let mut r = Pcg32::new(7);
            (0..8).map(|_| r.next_u32()).collect()
        };
        let b: Vec<u32> = {
            let mut r = Pcg32::new(7);
            (0..8).map(|_| r.next_u32()).collect()
        };
        let c: Vec<u32> = {
            let mut r = Pcg32::new(8);
            (0..8).map(|_| r.next_u32()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut r = Pcg32::new(1);
        for _ in 0..1000 {
            let x = r.range_usize(3, 9);
            assert!((3..9).contains(&x));
            let y = r.range_i64(-4, 4);
            assert!((-4..=4).contains(&y));
            let f = r.uniform_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let mut r = Pcg32::new(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.below(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
