#![forbid(unsafe_code)]

//! An API-compatible subset of the `rand` crate. The build container has
//! no access to crates.io, so the workspace vendors exactly the surface
//! `des::rng::SimRng` uses: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`],
//! and the [`Rng`] methods `gen`, `gen_range`, `gen_bool`, and `fill`.
//!
//! `StdRng` here is xoshiro256** seeded via splitmix64 — NOT the ChaCha
//! generator of the real crate. Streams are deterministic per seed, which
//! is the only property the simulator relies on; they are not reproducible
//! against upstream `rand` and are not cryptographically secure.

use std::ops::{Range, RangeInclusive};

/// Low-level entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let word = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&word[..rem.len()]);
        }
    }
}

/// Values producible directly from an RNG via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` using the top 53 bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Integer types usable with [`Rng::gen_range`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi]` inclusive; caller guarantees `lo <= hi`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                if span == 0 {
                    // Full-width range: every bit pattern is valid.
                    return rng.next_u64() as $ty;
                }
                // Widening multiply keeps bias below 2^-64 per draw, far
                // under what any workload or test here could detect.
                let hi128 = ((rng.next_u64() as u128) * span) >> 64;
                lo.wrapping_add(hi128 as $ty)
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform + One> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_inclusive(rng, self.start, self.end.minus_one())
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range: empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

/// Helper for converting an exclusive upper bound to inclusive.
pub trait One {
    /// `self - 1`; only called on values known to be > the range start.
    fn minus_one(self) -> Self;
}

macro_rules! impl_one {
    ($($ty:ty),*) => {$(
        impl One for $ty {
            fn minus_one(self) -> Self { self - 1 }
        }
    )*};
}

impl_one!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// High-level convenience methods, blanket-implemented for every
/// [`RngCore`], mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draw a value of type `T` (e.g. `gen::<f64>()` for `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform draw from an integer range (`lo..hi` or `lo..=hi`).
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// Bernoulli trial with probability `p` in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        self.gen::<f64>() < p
    }

    /// Fill a byte slice with random data.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction from seeds, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Derive a full generator state from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! Named generator types.

    use super::{RngCore, SeedableRng};

    /// Deterministic workhorse generator (xoshiro256**). Shares only the
    /// name with upstream's ChaCha12-based `StdRng`; see the crate docs.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_repeat() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn unit_interval() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn inclusive_range_covers_endpoints() {
        let mut r = StdRng::seed_from_u64(9);
        let (mut lo, mut hi) = (false, false);
        for _ in 0..500 {
            match r.gen_range(10u64..=12) {
                10 => lo = true,
                12 => hi = true,
                11 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo && hi);
    }

    #[test]
    fn gen_bool_is_sane() {
        let mut r = StdRng::seed_from_u64(1);
        let heads = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads={heads}");
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0) || true); // p=1.0 must not panic
    }

    #[test]
    fn fill_covers_tail_bytes() {
        let mut r = StdRng::seed_from_u64(2);
        let mut buf = [0u8; 13];
        r.fill(&mut buf);
        // A 13-byte buffer of all zeros after fill would be a 2^-104 event.
        assert!(buf.iter().any(|&b| b != 0));
    }
}
