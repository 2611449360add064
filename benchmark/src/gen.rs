//! The benchmark's own load generator: a seeded PRNG, a Zipf sampler
//! and exponential inter-arrival times. `--seed` is the only input;
//! every workload forks all of its randomness from it, so a run is a
//! pure function of `(seed, seconds)`.

/// xorshift64* seeded through splitmix64 (so seed 0 is as good as any).
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // xorshift has one forbidden state, zero.
        Rng(splitmix64(seed).max(1))
    }

    /// An independent stream for one purpose (`salt` names it), so
    /// adding a draw in one place never shifts another's sequence.
    pub fn fork(&self, salt: u64) -> Rng {
        Rng::new(self.0 ^ splitmix64(salt))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: bias below 2^-32 for the sizes used here.
        ((self.next_u64() >> 32) * n) >> 32
    }

    /// Exponentially distributed with the given mean (Poisson
    /// inter-arrival times).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.f64()).ln() * mean
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let w = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

/// Zipf over ranks `0..n` with skew `theta`: P(rank r) ∝ 1/(r+1)^theta.
/// Exact inverse-CDF sampling from a table (the key spaces here are at
/// most tens of thousands of entries).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for r in 0..n {
            sum += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Spreads Zipf ranks over `0..n` so hot keys are not neighbours
/// (a fixed bijection: multiplication by a unit modulo `n`).
pub fn scatter(rank: usize, n: usize) -> u64 {
    const PRIMES: [u64; 4] = [2_654_435_761, 40_503, 7_919, 1];
    let m = PRIMES
        .into_iter()
        .find(|p| gcd(*p, n as u64) == 1)
        .expect("1 is coprime to everything");
    ((rank as u128 * m as u128) % n as u128) as u64
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut f1 = a.fork(1);
        let mut f2 = a.fork(2);
        assert_ne!(f1.next_u64(), f2.next_u64());
        assert_ne!(Rng::new(0).next_u64(), 0, "seed 0 must not stick at zero");
    }

    #[test]
    fn uniform_helpers_stay_in_range() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            let f = r.f64();
            assert!((0.0..1.0).contains(&f));
            assert!(r.below(17) < 17);
            assert!(r.exp(2.0) >= 0.0);
        }
    }

    #[test]
    fn exponential_mean_is_the_mean() {
        let mut r = Rng::new(3);
        let n = 200_000;
        let mean = (0..n).map(|_| r.exp(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn zipf_matches_its_law() {
        let n = 1000;
        let theta = 0.99;
        let z = Zipf::new(n, theta);
        let mut r = Rng::new(11);
        let draws = 400_000;
        let mut hist = vec![0u64; n];
        for _ in 0..draws {
            hist[z.sample(&mut r)] += 1;
        }
        let norm: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(theta)).sum();
        for rank in [0usize, 1, 9, 99] {
            let want = 1.0 / ((rank + 1) as f64).powf(theta) / norm;
            let got = hist[rank] as f64 / draws as f64;
            assert!(
                (got - want).abs() / want < 0.08,
                "rank {rank}: got {got}, want {want}"
            );
        }
        assert!(hist[0] > hist[10] && hist[10] > hist[500]);
    }

    #[test]
    fn scatter_is_a_bijection() {
        for n in [64usize, 1024, 4096, 50_000] {
            let mut seen = vec![false; n];
            for r in 0..n {
                let k = scatter(r, n) as usize;
                assert!(!seen[k]);
                seen[k] = true;
            }
        }
    }
}
