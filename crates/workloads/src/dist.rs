//! Key distributions.

use rand::Rng;

/// A Zipf(θ) sampler over `0..n` using Gray–Wormald style inversion on the
/// harmonic CDF (exact for the small `n` used here, O(1) per sample after
//  an O(n) table build).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `0..n` with skew `theta` (0 = uniform-ish,
    /// ~0.99 = classic YCSB skew).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Samples a rank in `0..n` (0 is the most popular).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A seeded two-level tenant×key skew sampler: Zipf over tenants
/// composed with a per-tenant Zipf over keys, as seen by a multi-tenant
/// service (a few tenants dominate traffic, and within each tenant a
/// few keys dominate accesses).
///
/// Per-tenant key popularity is *rotated* by a deterministic per-tenant
/// offset, so hot tenants do not all hammer the same key index — tenant
/// `t`'s hottest key is `offset(t)`, not `0`. Both marginals stay in
/// domain (`0..tenants`, `0..keys`) and keep their configured skew.
///
/// # Example
///
/// ```
/// use msnap_workloads::dist::TenantKeyZipf;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let d = TenantKeyZipf::new(16, 0.99, 1024, 0.9);
/// let mut rng = StdRng::seed_from_u64(7);
/// let (tenant, key) = d.sample(&mut rng);
/// assert!(tenant < 16 && key < 1024);
/// ```
#[derive(Debug, Clone)]
pub struct TenantKeyZipf {
    tenants: Zipf,
    keys: Zipf,
    n_keys: usize,
}

impl TenantKeyZipf {
    /// Builds a sampler over `tenants × keys` with the given skews
    /// (`theta` as in [`Zipf::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `tenants == 0` or `keys == 0`.
    pub fn new(tenants: usize, tenant_theta: f64, keys: usize, key_theta: f64) -> Self {
        TenantKeyZipf {
            tenants: Zipf::new(tenants, tenant_theta),
            keys: Zipf::new(keys, key_theta),
            n_keys: keys,
        }
    }

    /// The deterministic hot-key offset of one tenant.
    pub fn hot_key(&self, tenant: usize) -> usize {
        // Splitmix-style scramble so adjacent tenants land far apart.
        let mut z = (tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (z ^ (z >> 31)) as usize % self.n_keys
    }

    /// Samples one `(tenant, key)` pair.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> (usize, usize) {
        let tenant = self.tenants.sample(rng);
        let rank = self.keys.sample(rng);
        let key = (rank + self.hot_key(tenant)) % self.n_keys;
        (tenant, key)
    }
}

/// A bounded generalized-Pareto sampler over `0..n`, as used by MixGraph
/// for write-key selection ("writes are chosen using a generalized Pareto
/// distribution", §7.2 / Cao et al. FAST '20).
#[derive(Debug, Clone, Copy)]
pub struct BoundedPareto {
    n: u64,
    /// Shape ξ of the generalized Pareto distribution.
    shape: f64,
    /// Scale σ.
    scale: f64,
}

impl BoundedPareto {
    /// Creates a sampler over `0..n` with MixGraph-like shape/scale.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "Pareto needs a non-empty domain");
        BoundedPareto {
            n,
            shape: 0.2,
            scale: n as f64 / 50.0,
        }
    }

    /// Samples a key in `0..n` (low keys are hot).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen_range(1e-12..1.0);
        // Inverse CDF of the generalized Pareto distribution.
        let x = self.scale * ((u.powf(-self.shape) - 1.0) / self.shape);
        (x as u64).min(self.n - 1)
    }
}

/// A contended-writer key distribution for multi-threaded mutator
/// benchmarks: every thread samples a *shared* Zipf-skewed hot range with
/// probability `hot_fraction` (the keys all writers fight over — CAS
/// retries, same-key supersession) and otherwise its own *disjoint* tail
/// of keys no other thread touches (insert-heavy private traffic).
///
/// The key space is `[0, hot_keys)` shared, followed by one
/// `tail_keys`-sized block per thread.
///
/// # Example
///
/// ```
/// use msnap_workloads::dist::ContendedWriters;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let d = ContendedWriters::new(8, 64, 4096, 0.2);
/// let mut rng = StdRng::seed_from_u64(7);
/// let key = d.sample(3, &mut rng);
/// assert!(key < d.domain());
/// ```
#[derive(Debug, Clone)]
pub struct ContendedWriters {
    threads: usize,
    hot_keys: u64,
    tail_keys: u64,
    hot_fraction: f64,
    hot: Zipf,
}

impl ContendedWriters {
    /// Builds the distribution: `threads` writers, a shared hot range of
    /// `hot_keys` (classic YCSB skew within it), `tail_keys` private keys
    /// per thread, and `hot_fraction` of samples landing in the hot
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `hot_fraction` is outside
    /// `[0, 1]`.
    pub fn new(threads: usize, hot_keys: u64, tail_keys: u64, hot_fraction: f64) -> Self {
        assert!(threads > 0, "need at least one writer");
        assert!(hot_keys > 0 && tail_keys > 0, "empty key ranges");
        assert!(
            (0.0..=1.0).contains(&hot_fraction),
            "hot_fraction is a probability"
        );
        ContendedWriters {
            threads,
            hot_keys,
            tail_keys,
            hot_fraction,
            hot: Zipf::new(hot_keys as usize, 0.99),
        }
    }

    /// Total key-space size: the shared range plus every tail.
    pub fn domain(&self) -> u64 {
        self.hot_keys + self.threads as u64 * self.tail_keys
    }

    /// The half-open private key range of one thread.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn tail_range(&self, thread: usize) -> std::ops::Range<u64> {
        assert!(thread < self.threads, "thread {thread} out of range");
        let start = self.hot_keys + thread as u64 * self.tail_keys;
        start..start + self.tail_keys
    }

    /// Which thread's private tail a key belongs to (`None` for hot or
    /// out-of-domain keys).
    pub fn owner(&self, key: u64) -> Option<usize> {
        if key < self.hot_keys || key >= self.domain() {
            return None;
        }
        Some(((key - self.hot_keys) / self.tail_keys) as usize)
    }

    /// Samples one key for `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn sample<R: Rng>(&self, thread: usize, rng: &mut R) -> u64 {
        assert!(thread < self.threads, "thread {thread} out of range");
        if rng.gen::<f64>() < self.hot_fraction {
            self.hot.sample(rng) as u64
        } else {
            let range = self.tail_range(thread);
            rng.gen_range(0..self.tail_keys) + range.start
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut head = 0;
        let samples = 20_000;
        for _ in 0..samples {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Top-1% of keys take far more than 1% of accesses.
        assert!(head > samples / 10, "head hits: {head}");
    }

    #[test]
    fn zipf_stays_in_domain() {
        let z = Zipf::new(10, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn pareto_is_hot_at_low_keys() {
        let p = BoundedPareto::new(1_000_000);
        let mut rng = StdRng::seed_from_u64(3);
        let mut low = 0;
        let samples = 20_000;
        for _ in 0..samples {
            if p.sample(&mut rng) < 100_000 {
                low += 1;
            }
        }
        assert!(low > samples / 2, "low-key hits: {low}");
    }

    #[test]
    fn pareto_stays_in_domain() {
        let p = BoundedPareto::new(100);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            assert!(p.sample(&mut rng) < 100);
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Both marginals of the two-level sampler stay in domain for
        /// arbitrary shapes and skews.
        #[test]
        fn tenant_key_marginals_stay_in_domain(
            tenants in 1usize..48,
            keys in 1usize..2048,
            t_theta in 0u32..130,
            k_theta in 0u32..130,
        ) {
            let d = TenantKeyZipf::new(
                tenants, f64::from(t_theta) / 100.0,
                keys, f64::from(k_theta) / 100.0,
            );
            let mut rng = StdRng::seed_from_u64(tenants as u64 ^ (keys as u64) << 16);
            for _ in 0..500 {
                let (t, k) = d.sample(&mut rng);
                prop_assert!(t < tenants, "tenant {} out of {}", t, tenants);
                prop_assert!(k < keys, "key {} out of {}", k, keys);
            }
        }

        /// With classic YCSB-style skew, the tenant marginal concentrates
        /// on the head tenants and each tenant's key marginal concentrates
        /// on that tenant's own (rotated) hot key.
        #[test]
        fn tenant_key_sampler_is_skewed_per_level(seed in 0u64..1000) {
            const TENANTS: usize = 32;
            const KEYS: usize = 512;
            let d = TenantKeyZipf::new(TENANTS, 0.99, KEYS, 0.99);
            let mut rng = StdRng::seed_from_u64(seed);
            let samples = 8_000;
            let mut head_tenant = 0u64;
            let mut per_tenant_hot: Vec<u64> = vec![0; TENANTS];
            let mut per_tenant_total: Vec<u64> = vec![0; TENANTS];
            for _ in 0..samples {
                let (t, k) = d.sample(&mut rng);
                if t < TENANTS / 10 {
                    head_tenant += 1;
                }
                per_tenant_total[t] += 1;
                // Hot neighborhood: within 8 ranks of the tenant's hot key.
                let dist = (k + KEYS - d.hot_key(t)) % KEYS;
                if dist < 8 {
                    per_tenant_hot[t] += 1;
                }
            }
            // Top ~10% of tenants take far more than 10% of traffic.
            prop_assert!(
                head_tenant > samples / 3,
                "head tenants took only {}/{}", head_tenant, samples
            );
            // For every tenant with meaningful traffic, its 8 hottest
            // ranks dominate well beyond the uniform share (8/512).
            for t in 0..TENANTS {
                if per_tenant_total[t] >= 200 {
                    prop_assert!(
                        per_tenant_hot[t] * 4 > per_tenant_total[t],
                        "tenant {} hot share {}/{}",
                        t, per_tenant_hot[t], per_tenant_total[t]
                    );
                }
            }
            // Rotation: not all tenants share one hot key.
            let hot0 = d.hot_key(0);
            prop_assert!((1..TENANTS).any(|t| d.hot_key(t) != hot0));
        }
    }

    #[test]
    fn contended_writers_is_deterministic_by_seed() {
        let d = ContendedWriters::new(4, 32, 256, 0.3);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64)
                .map(|i| d.sample(i % 4, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Samples stay in domain, and cold samples stay inside the
        /// sampling thread's own disjoint tail.
        #[test]
        fn contended_writers_partition_holds(
            threads in 1usize..16,
            hot_keys in 1u64..256,
            tail_keys in 1u64..1024,
            hot_pct in 0u32..100,
            seed in 0u64..1000,
        ) {
            let d = ContendedWriters::new(
                threads, hot_keys, tail_keys, f64::from(hot_pct) / 100.0,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..400 {
                let t = i % threads;
                let key = d.sample(t, &mut rng);
                prop_assert!(key < d.domain(), "key {} out of domain", key);
                if key >= d.hot_keys {
                    prop_assert_eq!(d.owner(key), Some(t), "tail not private");
                    prop_assert!(d.tail_range(t).contains(&key));
                }
            }
        }

        /// The configured hot fraction shows up (within sampling noise),
        /// and hot traffic is head-skewed inside the shared range.
        #[test]
        fn contended_writers_hot_share_and_skew(seed in 0u64..1000) {
            let d = ContendedWriters::new(8, 128, 4096, 0.5);
            let mut rng = StdRng::seed_from_u64(seed);
            let samples = 8_000;
            let mut hot = 0u64;
            let mut head = 0u64;
            for i in 0..samples {
                let key = d.sample(i as usize % 8, &mut rng);
                if key < d.hot_keys {
                    hot += 1;
                    if key < 13 {
                        head += 1; // top ~10% of the hot range
                    }
                }
            }
            prop_assert!(
                (hot as i64 - samples / 2).unsigned_abs() < samples as u64 / 10,
                "hot share {}/{}", hot, samples
            );
            prop_assert!(head * 2 > hot, "hot head {}/{} not skewed", head, hot);
        }
    }

    #[test]
    fn tenant_key_sampler_is_deterministic_by_seed() {
        let d = TenantKeyZipf::new(8, 0.9, 128, 0.8);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64).map(|_| d.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn samplers_are_deterministic_by_seed() {
        let z = Zipf::new(100, 0.9);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..32).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..32).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
