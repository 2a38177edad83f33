//! Deterministic random-number streams.
//!
//! Every stochastic component of the simulation draws from a named stream
//! derived from a single master seed. Deriving streams by *name* (rather than
//! by creation order) means adding a new random component never perturbs the
//! draws seen by existing components — the classic "common random numbers"
//! discipline for comparable experiments. Names are hashed with
//! [`Fnv`], which is stable across platforms and Rust versions.

use crate::hash::Fnv;

/// xoshiro256++ — a small, fast, well-tested PRNG implemented locally so the
/// kernel has zero external dependencies (the build environment is offline).
/// Not cryptographic; plenty for Monte-Carlo simulation.
#[derive(Clone)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed the full 256-bit state from a 64-bit seed via SplitMix64, as
    /// recommended by the xoshiro authors.
    fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *slot = splitmix64(z);
        }
        // All-zero state would be a fixed point; splitmix64 of distinct
        // increments cannot produce it, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        Xoshiro256 { s }
    }

    fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
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
        out
    }
}

/// A named, seeded random stream.
///
/// Wraps a locally-implemented xoshiro256++ generator and adds the handful
/// of distributions the simulator needs. Cloning snapshots the stream:
/// the clone replays the identical tail independently of the original.
#[derive(Clone)]
pub struct RngStream {
    rng: Xoshiro256,
    name: String,
}

impl std::fmt::Debug for RngStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RngStream")
            .field("name", &self.name)
            .finish()
    }
}

/// SplitMix64 finalizer: turns a correlated 64-bit input into a well-mixed
/// seed value.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RngStream {
    /// Derive a stream from `master_seed` and a stable `name`.
    pub fn derive(master_seed: u64, name: &str) -> Self {
        let mixed = splitmix64(master_seed ^ Fnv::of(name.as_bytes()));
        RngStream {
            rng: Xoshiro256::seed_from_u64(mixed),
            name: name.to_string(),
        }
    }

    /// Derive a stream scoped to a site (or any other deterministic
    /// partition): draws under one scope are decorrelated from the same
    /// `name` under every other scope, and — critically for federated
    /// experiments — adding or removing a site never perturbs the streams
    /// of the sites that remain, because each scope mixes its own label
    /// into the seed rather than consuming from a shared sequence.
    pub fn derive_scoped(master_seed: u64, scope: &str, name: &str) -> Self {
        let scoped_seed = splitmix64(master_seed ^ Fnv::of(scope.as_bytes()));
        let mixed = splitmix64(scoped_seed ^ Fnv::of(name.as_bytes()));
        RngStream {
            rng: Xoshiro256::seed_from_u64(mixed),
            name: format!("{scope}/{name}"),
        }
    }

    /// The stream's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high-quality bits into the mantissa: uniform over [0, 1).
        (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`. Requires `lo <= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform_range requires lo <= hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[lo, hi]` inclusive (unbiased via rejection).
    pub fn uniform_int(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        let span = hi - lo;
        if span == u64::MAX {
            return self.rng.next_u64();
        }
        let range = span + 1;
        // Reject draws below the threshold so the modulo is unbiased.
        let threshold = range.wrapping_neg() % range;
        loop {
            let x = self.rng.next_u64();
            if x >= threshold {
                return lo + (x % range);
            }
        }
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Exponential draw with the given mean (inverse rate). A non-positive
    /// mean yields zero.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse CDF; 1 - U avoids ln(0).
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Standard normal draw (Box–Muller; one value per call, the pair's
    /// second value is discarded to keep the stream's consumption pattern
    /// simple and stable).
    pub fn standard_normal(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.uniform(); // (0, 1]
        let u2: f64 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.standard_normal()
    }

    /// Log-normal draw parameterized by the *underlying* normal's mean/sd.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Poisson draw (Knuth's method for small lambda, normal approximation
    /// above 30 to stay O(1)).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            let x = self.normal(lambda, lambda.sqrt()).round();
            return if x < 0.0 { 0 } else { x as u64 };
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Multiplicative jitter: a factor in `[1-spread, 1+spread]`.
    /// `spread = 0` returns exactly 1.0.
    pub fn jitter(&mut self, spread: f64) -> f64 {
        if spread <= 0.0 {
            1.0
        } else {
            self.uniform_range(1.0 - spread, 1.0 + spread)
        }
    }

    /// Choose one element of a non-empty slice uniformly.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.uniform_int(0, items.len() as u64 - 1) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        let n = items.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.uniform_int(0, i as u64) as usize;
            items.swap(i, j);
        }
    }

    /// Raw 64-bit draw, for components that roll their own distribution.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// A factory handing out named [`RngStream`]s from one master seed.
#[derive(Debug, Clone, Copy)]
pub struct SeedFactory {
    master_seed: u64,
}

impl SeedFactory {
    /// Create a factory with the given master seed.
    pub fn new(master_seed: u64) -> Self {
        SeedFactory { master_seed }
    }

    /// The master seed.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Derive the named stream.
    pub fn stream(&self, name: &str) -> RngStream {
        RngStream::derive(self.master_seed, name)
    }

    /// Derive a child factory (useful for per-replica seeding).
    pub fn child(&self, index: u64) -> SeedFactory {
        SeedFactory::new(splitmix64(self.master_seed ^ splitmix64(index)))
    }

    /// Derive a factory scoped to a named partition (a federation site,
    /// a tenant, …). `scoped(s).stream(n)` equals
    /// [`RngStream::derive_scoped`]`(seed, s, n)` up to the stream's
    /// display name, so site-local components can keep using the plain
    /// factory API.
    pub fn scoped(&self, scope: &str) -> SeedFactory {
        SeedFactory::new(splitmix64(self.master_seed ^ Fnv::of(scope.as_bytes())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_name_same_draws() {
        let mut a = RngStream::derive(7, "boot");
        let mut b = RngStream::derive(7, "boot");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_names_decorrelate() {
        let mut a = RngStream::derive(7, "boot");
        let mut b = RngStream::derive(7, "transfer");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut r = RngStream::derive(1, "u");
        for _ in 0..1000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = RngStream::derive(2, "exp");
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean={mean}");
        assert_eq!(r.exponential(0.0), 0.0);
        assert_eq!(r.exponential(-1.0), 0.0);
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = RngStream::derive(3, "norm");
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.25, "var={var}");
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        let mut r = RngStream::derive(4, "pois");
        for lambda in [0.5, 4.0, 50.0] {
            let n = 10_000;
            let mean: f64 = (0..n).map(|_| r.poisson(lambda) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.1,
                "lambda={lambda} mean={mean}"
            );
        }
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngStream::derive(5, "b");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn jitter_bounds() {
        let mut r = RngStream::derive(6, "j");
        for _ in 0..1000 {
            let f = r.jitter(0.1);
            assert!((0.9..=1.1).contains(&f));
        }
        assert_eq!(r.jitter(0.0), 1.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = RngStream::derive(8, "s");
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_streams_decorrelate_and_stay_stable() {
        // Same (seed, scope, name) replays identically.
        let mut a = RngStream::derive_scoped(7, "site-east", "arrivals");
        let mut b = RngStream::derive_scoped(7, "site-east", "arrivals");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(a.name(), "site-east/arrivals");
        // Different scopes decorrelate the same stream name.
        let mut c = RngStream::derive_scoped(7, "site-west", "arrivals");
        let same = (0..64).filter(|_| b.next_u64() == c.next_u64()).count();
        assert_eq!(same, 0);
        // The factory's scoped() matches derive_scoped draw-for-draw.
        let mut d = SeedFactory::new(7).scoped("site-east").stream("arrivals");
        let mut e = RngStream::derive_scoped(7, "site-east", "arrivals");
        for _ in 0..64 {
            assert_eq!(d.next_u64(), e.next_u64());
        }
    }

    #[test]
    fn factory_children_differ() {
        let f = SeedFactory::new(99);
        let mut a = f.child(0).stream("x");
        let mut b = f.child(1).stream("x");
        assert_ne!(a.next_u64(), b.next_u64());
        // Children are deterministic.
        let mut a2 = f.child(0).stream("x");
        assert_eq!(
            RngStream::derive(f.child(0).master_seed(), "x").next_u64(),
            a2.next_u64()
        );
    }
}
