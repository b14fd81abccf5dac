//! Deterministic pseudo-randomness for the simulator.
//!
//! The workspace is hermetic (no external crates), so this module provides
//! the small slice of the `rand` API the study actually uses: a seedable
//! non-cryptographic generator ([`SmallRng`], xoshiro256++ seeded through
//! SplitMix64) and the [`Rng`]/[`RngExt`]/[`SeedableRng`] traits whose
//! names downstream code already imports via [`crate::prelude`].
//!
//! Determinism is the whole point: a `(config, seed)` pair must reproduce
//! a simulation bit-for-bit, on any host, forever. xoshiro256++ is a pure
//! integer recurrence with no platform-dependent behaviour, and every
//! derived sample (floats, ranges, Bernoulli draws) is defined exactly in
//! terms of `next_u64`, so outputs can never drift with a library upgrade.

/// SplitMix64 step — used to spread a 64-bit seed over the 256-bit state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a: the workspace's one hash for names that must come out
/// the same on every host and toolchain (property-test seed streams,
/// run-cache keys, chaos fixture stems). Not for keys from outside.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A generator constructible from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Build a generator whose entire stream is a function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Core uniform-bits source.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly distributed bits (upper half of `next_u64`,
    /// which are the strongest bits of xoshiro256++).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// The workspace's default generator: xoshiro256++.
///
/// 256 bits of state, period 2^256 − 1, passes BigCrush; the same
/// algorithm `rand`'s `SmallRng` used on 64-bit targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SmallRng { s }
    }
}

impl Rng for SmallRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        let s2 = s2 ^ t;
        let s3 = s3.rotate_left(45);
        self.s = [s0, s1, s2, s3];
        result
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A type that can be drawn uniformly from a generator.
pub trait Sample: Sized {
    /// Draw one uniform value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for u64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Sample for bool {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with full 53-bit mantissa resolution.
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for f32 {
    /// Uniform in `[0, 1)` with 24-bit resolution.
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// A range argument accepted by [`RngExt::random_range`].
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draw a uniform element of the range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Unbiased uniform draw in `[0, span)` via rejection sampling
/// (Lemire-style threshold on the plain modulo reduction).
#[inline]
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Values above `zone` would make some residues appear once more than
    // others; reject and redraw (at most one extra draw in expectation).
    let zone = u64::MAX - (u64::MAX % span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

macro_rules! impl_sample_range_int {
    ($($ty:ty),+) => {
        $(
            impl SampleRange for std::ops::Range<$ty> {
                type Output = $ty;
                #[inline]
                fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $ty {
                    assert!(self.start < self.end, "empty random_range");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    let off = uniform_below(rng, span);
                    (self.start as i128 + off as i128) as $ty
                }
            }
            impl SampleRange for std::ops::RangeInclusive<$ty> {
                type Output = $ty;
                #[inline]
                fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $ty {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty random_range");
                    let span = (end as i128 - start as i128) as u128 + 1;
                    if span > u64::MAX as u128 {
                        // Only reachable for the full u64/i64 domain.
                        return rng.next_u64() as $ty;
                    }
                    let off = uniform_below(rng, span as u64);
                    (start as i128 + off as i128) as $ty
                }
            }
        )+
    };
}

impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty random_range");
        let u: f64 = Sample::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

/// Convenience sampling methods, mirroring the `rand` names downstream
/// code uses (`random`, `random_range`, `random_bool`).
pub trait RngExt: Rng {
    /// A uniform value of `T` (`rng.random::<f64>()` gives `[0, 1)`).
    #[inline]
    fn random<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value in `range` (half-open or inclusive integer ranges,
    /// half-open float ranges).
    #[inline]
    fn random_range<Rge: SampleRange>(&mut self, range: Rge) -> Rge::Output {
        range.sample_from(self)
    }

    /// A Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_xoshiro256pp() {
        // State {1,2,3,4}: first outputs of the canonical C implementation.
        let mut rng = SmallRng { s: [1, 2, 3, 4] };
        let expect: [u64; 5] =
            [41943041, 58720359, 3588806011781223, 3591011842654386, 9228616714210784205];
        for e in expect {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn zero_seed_state_is_nonzero() {
        // xoshiro's all-zero state is a fixed point; SplitMix64 must avoid it.
        let rng = SmallRng::seed_from_u64(0);
        assert_ne!(rng.s, [0, 0, 0, 0]);
    }

    #[test]
    fn unit_floats_in_range_and_uniform_ish() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_sampling_covers_and_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.random_range(5u64..15);
            assert!((5..15).contains(&v));
            seen[(v - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
        for _ in 0..1000 {
            let v = rng.random_range(-3i64..=3);
            assert!((-3..=3).contains(&v));
        }
        let f = rng.random_range(2.0..3.0);
        assert!((2.0..3.0).contains(&f));
    }

    #[test]
    fn range_sampling_is_unbiased_across_modulus() {
        // A span that does not divide 2^64: frequencies must stay flat.
        let mut rng = SmallRng::seed_from_u64(3);
        let span = 3u64;
        let n = 90_000;
        let mut counts = [0u32; 3];
        for _ in 0..n {
            counts[rng.random_range(0..span) as usize] += 1;
        }
        for c in counts {
            let dev = (c as f64 - n as f64 / 3.0).abs() / (n as f64 / 3.0);
            assert!(dev < 0.03, "count {c} deviates {dev}");
        }
    }

    #[test]
    fn bool_probability_tracks_p() {
        let mut rng = SmallRng::seed_from_u64(4);
        let hits = (0..100_000).filter(|_| rng.random_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }
}
