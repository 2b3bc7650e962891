//! Offline stand-in for the `rand` crate (0.9 API subset).
//!
//! This workspace must build without network access, so the external
//! `rand` dependency is replaced by this shim implementing exactly the
//! surface the simulator uses: [`RngCore`], [`Rng::random`],
//! [`Rng::random_range`], [`SeedableRng`] and [`rngs::SmallRng`].
//!
//! `SmallRng` here is xoshiro256++ (the same family the real crate uses on
//! 64-bit targets), seeded through SplitMix64, so streams are of high
//! quality and fully deterministic. Exact output values differ from the
//! upstream crate — nothing in this repository depends on upstream value
//! sequences, only on determinism per seed.

#![forbid(unsafe_code)]

/// Low-level uniform bit source.
pub trait RngCore {
    /// Next 64 uniform random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniform random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with uniform random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// Types that can be sampled uniformly from an RNG's full output range
/// (the shim's analogue of `StandardUniform: Distribution<T>`).
pub trait SampleStandard: Sized {
    /// Draw one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl SampleStandard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl SampleStandard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl SampleStandard for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl SampleStandard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl SampleStandard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleStandard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let unit = <$t as SampleStandard>::sample_standard(rng);
                self.start + (self.end - self.start) * unit
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                let unit = <$t as SampleStandard>::sample_standard(rng);
                lo + (hi - lo) * unit
            }
        }
    )*};
}

float_range!(f32, f64);

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value uniformly over the type's whole range ([0, 1) for
    /// floats).
    fn random<T: SampleStandard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Sample uniformly from `range`.
    fn random_range<T, Ra: SampleRange<T>>(&mut self, range: Ra) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// RNGs constructible from seeds.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed;

    /// Construct from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64` via SplitMix64 expansion.
    fn seed_from_u64(state: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Concrete RNG implementations.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// A small fast RNG: xoshiro256++.
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for SmallRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *word = u64::from_le_bytes(b);
            }
            // All-zero state is a fixed point of xoshiro; reseed through
            // SplitMix64 in that (pathological) case.
            if s.iter().all(|&w| w == 0) {
                return Self::seed_from_u64(0);
            }
            SmallRng { s }
        }

        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            SmallRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: u64 = r.random_range(10..20);
            assert!((10..20).contains(&v));
            let f: f64 = r.random_range(-0.5..0.5);
            assert!((-0.5..0.5).contains(&f));
            let i: i64 = r.random_range(-5i64..5);
            assert!((-5..5).contains(&i));
            let b: u8 = r.random_range(0u8..=255);
            let _ = b;
            let unit: f64 = r.random();
            assert!((0.0..1.0).contains(&unit));
        }
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
