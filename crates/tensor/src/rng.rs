//! Seeded random-number helpers.
//!
//! Every stochastic component in `pte` (weight initialization, minibatch
//! sampling, search, oracle noise) takes an explicit `u64` seed and derives a
//! [`rand::rngs::StdRng`] from it, so that all experiments in the benchmark
//! harness are exactly reproducible run-to-run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a `u64` seed.
///
/// ```
/// use rand::Rng;
/// let mut a = pte_tensor::rng::seeded(7);
/// let mut b = pte_tensor::rng::seeded(7);
/// assert_eq!(a.random::<u64>(), b.random::<u64>());
/// ```
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream index.
///
/// Used to give independent, reproducible randomness to sub-components (e.g.
/// per-layer weight init) without threading RNG state through every API.
/// The mixing function is SplitMix64, which has full 64-bit avalanche.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples one standard-normal value using the Box–Muller transform.
///
/// Implemented locally so that the crate does not depend on `rand_distr`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Avoid ln(0) by sampling u1 from the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    let mag = (-2.0 * u1.ln()).sqrt();
    (mag * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Appends `n` standard-normal samples to `out`, consuming **both** branches
/// of each Box–Muller pair (cosine and sine) instead of discarding the sine
/// as [`normal`] does — half the `ln`/`sqrt` work per sample. Bulk draws
/// (weight init, probe readouts) sit on the search hot path, so the saving
/// is measurable. The stream differs from repeated [`normal`] calls but is
/// equally deterministic per seed.
///
/// ## Prefix stability
///
/// For one seeded RNG, sample `i` of a length-`n` stream does not depend on
/// `n`: pairs are emitted in sequence, and an odd request's final sample is
/// the *cosine branch of the next pair* computed from the same two uniform
/// draws [`normal`] would consume — so `fill_normal(rng, n)` is a bitwise
/// prefix of `fill_normal(rng', n')` for any `n ≤ n'` (fresh RNGs, same
/// seed). This is load-bearing: the Fisher probe scheduler hoists each
/// shape class's weight and readout draws into one pooled generation and
/// hands every member a prefix, reproducing the exact stream the member
/// would have drawn alone ([`crate::Tensor::randn`] of its own length), and
/// a probe-stream scope keeps each stream for a whole layer-class task,
/// growing it in place ([`NormalStream`]) when a later wave needs a longer
/// prefix. The `pooled_draws_are_bitwise_prefixes` test pins it.
pub fn fill_normal<R: Rng + ?Sized>(rng: &mut R, n: usize, out: &mut Vec<f32>) {
    out.reserve(n);
    for _ in 0..n / 2 {
        let u1: f64 = 1.0 - rng.random::<f64>();
        let u2: f64 = rng.random::<f64>();
        let mag = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        out.push((mag * c) as f32);
        out.push((mag * s) as f32);
    }
    if n % 2 == 1 {
        out.push(normal(rng));
    }
}

/// A [`fill_normal`] stream that grows on demand: after any sequence of
/// [`NormalStream::grow_to`] calls, [`NormalStream::samples`] is bitwise the
/// stream a fresh `fill_normal(&mut seeded(seed), len)` draws.
///
/// Growth always draws whole Box–Muller pairs, so the RNG rests on a pair
/// boundary — the one state from which continuing the same RNG reproduces a
/// fresh longer draw (an odd draw would spend the sine of its last pair).
/// The stream can therefore hold one sample more than was asked for; by
/// prefix stability, every requested prefix is still the exact draw.
#[derive(Debug, Clone)]
pub struct NormalStream {
    rng: StdRng,
    samples: Vec<f32>,
}

impl NormalStream {
    /// An empty stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        NormalStream { rng: seeded(seed), samples: Vec::new() }
    }

    /// Extends the stream to at least `n` samples by continuing its own RNG
    /// and returns how many samples that drew (0 if it was long enough).
    pub fn grow_to(&mut self, n: usize) -> usize {
        if n <= self.samples.len() {
            return 0;
        }
        let drawn = (n - self.samples.len()).next_multiple_of(2);
        fill_normal(&mut self.rng, drawn, &mut self.samples);
        drawn
    }

    /// Every sample drawn so far.
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        let xs: Vec<u32> = (0..8).map(|_| a.random()).collect();
        let ys: Vec<u32> = (0..8).map(|_| b.random()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        let s0 = derive_seed(1, 0);
        let s1 = derive_seed(1, 1);
        assert_ne!(s0, s1);
        // Different parents with same stream differ too.
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn pooled_draws_are_bitwise_prefixes() {
        // The stream-equivalence contract behind the probe scheduler's
        // hoisted RNG (see `fill_normal`'s docs): every shorter draw — odd
        // lengths included, whose tail goes through `normal` instead of the
        // pair loop — is a bitwise prefix of any longer draw from the same
        // seed.
        let seed = 0xD1CE;
        let mut pool = Vec::new();
        fill_normal(&mut seeded(seed), 64, &mut pool);
        for n in [1usize, 2, 7, 8, 31, 32, 63, 64] {
            let mut short = Vec::new();
            fill_normal(&mut seeded(seed), n, &mut short);
            assert_eq!(short.len(), n);
            for (i, (a, b)) in short.iter().zip(&pool).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}, sample {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn grown_streams_match_fresh_draws() {
        // Odd, growing and shrinking request sequences: each request's
        // prefix equals a fresh draw of that length, and the stream draws
        // only up to its longest request (rounded up to a whole pair).
        let sequences: [&[usize]; 4] =
            [&[1, 2, 3, 64, 65], &[65, 1, 64, 3], &[7, 7, 31, 8, 101, 100], &[0, 2, 1, 5, 4]];
        for seed in [0u64, 1, 0xD1CE, u64::MAX] {
            for requests in sequences {
                let mut stream = NormalStream::new(seed);
                let mut drawn = 0;
                for &n in requests {
                    drawn += stream.grow_to(n);
                    let mut fresh = Vec::new();
                    fill_normal(&mut seeded(seed), n, &mut fresh);
                    for (i, (a, b)) in fresh.iter().zip(stream.samples()).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}, n={n}, sample {i}");
                    }
                }
                let longest = requests.iter().copied().max().unwrap_or(0);
                assert_eq!(drawn, longest.next_multiple_of(2), "{requests:?}");
                assert_eq!(stream.samples().len(), drawn);
            }
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = seeded(7);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance was {var}");
    }
}
