//! Deterministic random-number generation for the simulations.
//!
//! Every stochastic quantity in the reproduction — client round-trip times,
//! background-traffic arrivals, server provisioning draws for the §5
//! population studies, request jitter — is drawn through [`SimRng`].  The
//! generator is explicitly seeded so that every experiment in
//! `EXPERIMENTS.md` can be regenerated bit-for-bit, and it can be *forked*
//! into independent substreams so that adding draws in one subsystem does
//! not perturb another (a classic source of accidental non-reproducibility
//! in event simulations).

/// The raw generator behind [`SimRng`]: xoshiro256** seeded via SplitMix64.
///
/// Implemented in-tree (no `rand` dependency) so the simulation stack builds
/// offline and the stream is fixed by this repository alone — the same seed
/// yields the same draws on every platform, toolchain and build.
#[derive(Debug, Clone)]
struct Xoshiro256StarStar {
    state: [u64; 4],
}

impl Xoshiro256StarStar {
    fn from_seed(seed: u64) -> Self {
        // SplitMix64 expansion of the 64-bit seed, as recommended by the
        // xoshiro authors; it guarantees a non-zero state for every seed.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Xoshiro256StarStar {
            state: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A seedable random source with the distributions the MFC models need.
///
/// # Examples
///
/// ```
/// use mfc_simcore::SimRng;
///
/// let mut rng = SimRng::seed_from(7);
/// let x = rng.uniform(0.0, 1.0);
/// assert!((0.0..1.0).contains(&x));
///
/// // Forked substreams are independent but fully determined by the parent
/// // seed and the label.
/// let mut net = rng.fork("network");
/// let mut srv = rng.fork("server");
/// assert_ne!(net.uniform(0.0, 1.0), srv.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: Xoshiro256StarStar,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256StarStar::from_seed(seed),
            seed,
        }
    }

    /// Returns the seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent substream identified by `label`.
    ///
    /// The substream seed is a stable hash of the parent seed and the label,
    /// so the same `(seed, label)` pair always yields the same stream
    /// regardless of how many draws the parent has made.
    pub fn fork(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with the parent seed.  Stable across
        // platforms and Rust versions, unlike `DefaultHasher`.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed.rotate_left(17);
        for byte in label.as_bytes() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SimRng::seed_from(h)
    }

    /// Derives an independent substream identified by an integer index.
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        self.fork(&format!("{label}/{index}"))
    }

    /// Draws a uniform value in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        assert!(low <= high, "uniform bounds out of order: {low} > {high}");
        if low == high {
            return low;
        }
        let draw = low + (high - low) * self.inner.next_f64();
        // Floating-point rounding can land exactly on `high` for extreme
        // ranges; keep the half-open contract.
        if draw >= high {
            low
        } else {
            draw
        }
    }

    /// Draws a uniform integer in `[low, high]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn uniform_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(low <= high, "uniform bounds out of order: {low} > {high}");
        let span = high - low;
        if span == u64::MAX {
            return self.inner.next_u64();
        }
        // Multiply-shift mapping of a 64-bit draw onto the span (Lemire);
        // the bias is far below anything the MFC models can observe.
        let mapped = ((self.inner.next_u64() as u128 * (span as u128 + 1)) >> 64) as u64;
        low + mapped
    }

    /// Draws a `usize` index uniformly in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot draw an index from an empty range");
        self.uniform_u64(0, len as u64 - 1) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.inner.next_f64() < p
    }

    /// Draws from an exponential distribution with the given mean.
    ///
    /// Used for Poisson inter-arrival times of background traffic.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = self.inner.next_f64().max(f64::EPSILON);
        -mean * u.ln()
    }

    /// Draws from a normal distribution via the Box–Muller transform.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        if std_dev <= 0.0 {
            return mean;
        }
        let u1 = self.inner.next_f64().max(f64::EPSILON);
        let u2 = self.inner.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Draws from a normal distribution truncated to `[low, high]`.
    ///
    /// Truncation is by clamping rather than rejection so the cost is
    /// constant; the tails this shifts are irrelevant at the fidelity of the
    /// MFC models.
    pub fn normal_clamped(&mut self, mean: f64, std_dev: f64, low: f64, high: f64) -> f64 {
        self.normal(mean, std_dev).clamp(low, high)
    }

    /// Draws from a log-normal distribution parameterised by the mean and
    /// standard deviation of the underlying normal.
    ///
    /// Used for heavy-tailed quantities such as wide-area RTTs and static
    /// object sizes.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Draws from a Pareto distribution with scale `x_min` and shape `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `x_min <= 0` or `alpha <= 0`.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0, "pareto scale must be positive");
        assert!(alpha > 0.0, "pareto shape must be positive");
        let u = self.inner.next_f64().max(f64::EPSILON);
        x_min / u.powf(1.0 / alpha)
    }

    /// Chooses `count` distinct elements uniformly at random from `items`,
    /// preserving no particular order.
    ///
    /// This mirrors the coordinator's behaviour of picking the participating
    /// clients for each epoch at random from the registered pool (paper
    /// §2.3).  If `count >= items.len()` a shuffled copy of the whole slice
    /// is returned.
    pub fn sample<T: Clone>(&mut self, items: &[T], count: usize) -> Vec<T> {
        let mut indices: Vec<usize> = (0..items.len()).collect();
        // Partial Fisher-Yates: only the first `count` positions are needed.
        let take = count.min(items.len());
        for i in 0..take {
            let j = i + self.uniform_u64(0, (indices.len() - i) as u64 - 1) as usize;
            indices.swap(i, j);
        }
        indices[..take].iter().map(|&i| items[i].clone()).collect()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_u64(0, i as u64) as usize;
            items.swap(i, j);
        }
    }

    /// Picks one element of `items` with probability proportional to its
    /// paired weight.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or all weights are non-positive.
    pub fn weighted_choice<'a, T>(&mut self, items: &'a [(T, f64)]) -> &'a T {
        assert!(!items.is_empty(), "weighted_choice on empty slice");
        &items[self.weighted_index(items.iter().map(|(_, w)| *w))].0
    }

    /// Draws an index with probability proportional to its weight (negative
    /// weights count as zero), without collecting anything: the draw
    /// [`SimRng::weighted_choice`] makes, which is this over its weights.
    /// One `uniform` draw over the weights' running sum; the last index
    /// absorbs rounding.
    ///
    /// # Panics
    ///
    /// Panics if no weight is positive.
    pub fn weighted_index<I>(&mut self, weights: I) -> usize
    where
        I: IntoIterator<Item = f64>,
        I::IntoIter: Clone,
    {
        let weights = weights.into_iter();
        let total: f64 = weights.clone().map(|w| w.max(0.0)).sum();
        assert!(total > 0.0, "weighted_choice requires a positive weight");
        let mut target = self.uniform(0.0, total);
        let mut last = 0;
        for (i, w) in weights.enumerate() {
            let w = w.max(0.0);
            if target < w {
                return i;
            }
            target -= w;
            last = i;
        }
        last
    }

    /// Draws one raw 64-bit value from the underlying generator.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..64 {
            assert_eq!(a.uniform_u64(0, 1_000_000), b.uniform_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32)
            .filter(|_| a.uniform_u64(0, u64::MAX) == b.uniform_u64(0, u64::MAX))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_stable_and_independent_of_parent_draws() {
        let parent = SimRng::seed_from(99);
        let mut f1 = parent.fork("net");
        let mut parent2 = SimRng::seed_from(99);
        // Burn some draws on the second parent before forking.
        for _ in 0..10 {
            parent2.uniform(0.0, 1.0);
        }
        let mut f2 = parent2.fork("net");
        for _ in 0..16 {
            assert_eq!(f1.uniform_u64(0, u64::MAX), f2.uniform_u64(0, u64::MAX));
        }
    }

    #[test]
    fn fork_labels_distinguish_streams() {
        let parent = SimRng::seed_from(5);
        let mut a = parent.fork("a");
        let mut b = parent.fork("b");
        assert_ne!(a.uniform_u64(0, u64::MAX), b.uniform_u64(0, u64::MAX));
        let mut i0 = parent.fork_indexed("client", 0);
        let mut i1 = parent.fork_indexed("client", 1);
        assert_ne!(i0.uniform_u64(0, u64::MAX), i1.uniform_u64(0, u64::MAX));
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut rng = SimRng::seed_from(42);
        let n = 20_000;
        let mean = 5.0;
        let total: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = total / n as f64;
        assert!((observed - mean).abs() < 0.2, "observed mean {observed}");
    }

    #[test]
    fn normal_moments_are_roughly_right() {
        let mut rng = SimRng::seed_from(43);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = SimRng::seed_from(44);
        for _ in 0..1_000 {
            assert!(rng.pareto(100.0, 1.2) >= 100.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(45);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn sample_returns_distinct_elements() {
        let mut rng = SimRng::seed_from(46);
        let items: Vec<u32> = (0..100).collect();
        let picked = rng.sample(&items, 30);
        assert_eq!(picked.len(), 30);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30, "sampled elements must be distinct");
    }

    #[test]
    fn sample_more_than_available_returns_all() {
        let mut rng = SimRng::seed_from(47);
        let items = vec![1, 2, 3];
        let picked = rng.sample(&items, 10);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
    }

    #[test]
    fn weighted_choice_prefers_heavy_items() {
        let mut rng = SimRng::seed_from(48);
        let items = [("rare", 1.0), ("common", 99.0)];
        let common = (0..1_000)
            .filter(|_| *rng.weighted_choice(&items) == "common")
            .count();
        assert!(common > 900, "common picked only {common} times");
    }

    #[test]
    fn weighted_index_draws_what_the_collecting_walk_drew() {
        // The walk `weighted_choice` made over a collected slice before it
        // delegated to `weighted_index`, kept verbatim as the reference.
        fn reference<'a, T>(rng: &mut SimRng, items: &'a [(T, f64)]) -> &'a T {
            let total: f64 = items.iter().map(|(_, w)| w.max(0.0)).sum();
            let mut target = rng.uniform(0.0, total);
            for (item, w) in items {
                let w = w.max(0.0);
                if target < w {
                    return item;
                }
                target -= w;
            }
            &items[items.len() - 1].0
        }
        let mut shapes = SimRng::seed_from(51);
        for case in 0..500u64 {
            let n = shapes.index(6) + 1;
            let weights: Vec<f64> = (0..n)
                .map(|_| match shapes.index(4) {
                    0 => 0.0,
                    1 => -shapes.uniform(0.0, 1.0),
                    _ => shapes.uniform(0.0, 1.0),
                })
                .collect();
            if weights.iter().all(|w| *w <= 0.0) {
                continue;
            }
            let items: Vec<(usize, f64)> = weights.iter().copied().enumerate().collect();
            let mut ours = SimRng::seed_from(case);
            let mut theirs = ours.clone();
            for _ in 0..8 {
                assert_eq!(
                    ours.weighted_index(weights.iter().copied()),
                    *reference(&mut theirs, &items)
                );
            }
            assert_eq!(ours.next_u64(), theirs.next_u64());
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(49);
        let mut items: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
