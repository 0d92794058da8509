//! The workspace's deterministic random streams and its one hash.
//!
//! * [`SmallRng`] — xoshiro256++ seeded by SplitMix64 expansion. It drives
//!   the synthetic workload generators, the front end's wrong-path depth
//!   and the ELF walker, so every trace, golden report and result-cache
//!   key depends on its exact output stream.
//! * [`splitmix64`] — the SplitMix64 step, for small seeded streams
//!   (sample-window placement, failpoint decisions, retry jitter) and as
//!   a 64-bit finaliser.
//! * [`fnv1a_64`] — FNV-1a 64, the hash behind trace content hashes and
//!   cache keys.
//!
//! The arithmetic is fixed: the known-answer tests below pin each stream
//! to the values the workspace has always produced.
//!
//! # Example
//!
//! ```
//! use pif_types::rng::SmallRng;
//!
//! let mut a = SmallRng::seed_from_u64(42);
//! let mut b = SmallRng::seed_from_u64(42);
//! assert_eq!(a.gen_range(0..10u32), b.gen_range(0..10u32));
//! ```

use std::ops::{Range, RangeInclusive};

/// SplitMix64's state increment (the golden-ratio gamma).
const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Advances a SplitMix64 stream and returns its next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit offset basis: the digest of the empty string.
pub const FNV1A_64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV1A_64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a 64 accumulator.
#[inline]
pub fn fnv1a_64(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(FNV1A_64_PRIME);
    }
    acc
}

/// One-shot FNV-1a 64 of a byte string, from [`FNV1A_64_OFFSET`].
#[inline]
pub fn fnv1a_64_once(bytes: &[u8]) -> u64 {
    fnv1a_64(FNV1A_64_OFFSET, bytes)
}

/// A small, fast, deterministic generator: xoshiro256++ (the algorithm
/// `rand` 0.8 uses for its `SmallRng` on 64-bit targets), seeded by
/// SplitMix64 expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    state: [u64; 4],
}

impl SmallRng {
    /// Builds the generator from a `u64` seed: four SplitMix64 outputs
    /// form the xoshiro state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut splitmix = seed;
        Self {
            state: std::array::from_fn(|_| splitmix64(&mut splitmix)),
        }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
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

    /// Uniform in `[0, 1)` from the high 53 bits of one draw.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (one [`SmallRng::next_f64`]
    /// draw compared against `p`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Samples from `range`: integers by one draw modulo the span, `f64`
    /// by scaling one [`SmallRng::next_f64`] draw.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

/// Ranges [`SmallRng::gen_range`] samples from.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample(self, rng: &mut SmallRng) -> T;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // The full 64-bit domain: every bit pattern is valid.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )+};
}

impl_int_sample_range!(u32, usize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1_000 {
            let x = rng.gen_range(3u32..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(5usize..=9);
            assert!((5..=9).contains(&y));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "got {hits}");
        assert_eq!((0..100).filter(|_| rng.gen_bool(0.0)).count(), 0);
    }

    // Known answers: the exact streams every committed trace, golden
    // report and cache key was produced with. A change to the arithmetic
    // fails these before it moves any of them.

    #[test]
    fn seeded_streams_match_known_answers() {
        let mut rng = SmallRng::seed_from_u64(0);
        let first: [u64; 4] = std::array::from_fn(|_| rng.next_u64());
        assert_eq!(
            first,
            [
                0x53175d61490b23df,
                0x61da6f3dc380d507,
                0x5c0fdf91ec9a7bfc,
                0x02eebf8c3bbe5e1a
            ]
        );
        let mut rng = SmallRng::seed_from_u64(42);
        let first: [u64; 4] = std::array::from_fn(|_| rng.next_u64());
        assert_eq!(
            first,
            [
                0xd0764d4f4476689f,
                0x519e4174576f3791,
                0xfbe07cfb0c24ed8c,
                0xb37d9f600cd835b8
            ]
        );
    }

    #[test]
    fn sampling_draws_match_known_answers() {
        let mut rng = SmallRng::seed_from_u64(7);
        assert_eq!(rng.gen_range(3u32..17), 10);
        assert_eq!(rng.gen_range(0usize..=5), 2);
        assert_eq!(rng.gen_range(10usize..1_000_000), 184_098);
        assert_eq!(rng.gen_range(0.35f64..0.65), 0.47816294578745155);
        assert!(!rng.gen_bool(0.5));
        assert!(!rng.gen_bool(0.25));
        assert_eq!(rng.next_f64(), 0.7239070952365361);
        assert_eq!(rng.gen_range(2u32..=6), 4);
    }

    #[test]
    fn splitmix64_matches_known_answers() {
        let mut state = 0;
        let first: [u64; 3] = std::array::from_fn(|_| splitmix64(&mut state));
        assert_eq!(
            first,
            [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
        );
    }

    #[test]
    fn fnv1a_64_matches_known_answers() {
        assert_eq!(fnv1a_64_once(b""), FNV1A_64_OFFSET);
        assert_eq!(fnv1a_64_once(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64_once(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a_64_once(b"cache.store.write"), 0xeb595d602adaffdb);
        // Folding in pieces equals hashing the concatenation.
        assert_eq!(
            fnv1a_64(fnv1a_64_once(b"foo"), b"bar"),
            fnv1a_64_once(b"foobar")
        );
    }
}
