//! Seeded randomness for reproducible simulations.
//!
//! Every stochastic decision in `composable-sim` (jitter on kernel times,
//! sample-size variation, arrival noise) draws from a [`SimRng`] created
//! from an explicit seed, so a run is a pure function of its inputs.
//! Sub-streams ([`SimRng::fork`]) give independent deterministic streams to
//! concurrent entities without them perturbing each other's draws when the
//! code around them changes.
//!
//! The generator is a self-contained **xoshiro256++** so that simulation
//! results are bit-stable regardless of `rand`-crate version churn (and the
//! state is trivially `Clone`, which matters for snapshotting worlds).

/// A deterministic random-number generator for simulation use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
    /// Stable identity of this stream, used to derive fork seeds without
    /// consuming state from the generator.
    tag: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            tag: seed ^ 0xa076_1d64_78bd_642f,
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
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

    /// Derive an independent sub-stream, keyed by `stream`. Two forks of the
    /// same parent with different keys produce unrelated sequences; forking
    /// does not advance the parent.
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut sm = self.tag ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        SimRng::seed_from_u64(splitmix64(&mut sm))
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi);
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)` (Lemire's unbiased method is overkill at
    /// simulation scales; modulo bias at n ≪ 2⁶⁴ is negligible and this keeps
    /// the generator simple and stable).
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// A multiplicative jitter factor in `[1 - frac, 1 + frac)`; `frac = 0`
    /// returns exactly 1.0.
    pub fn jitter(&mut self, frac: f64) -> f64 {
        debug_assert!((0.0..1.0).contains(&frac));
        if frac == 0.0 {
            1.0
        } else {
            self.uniform(1.0 - frac, 1.0 + frac)
        }
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn clone_preserves_state() {
        let mut a = SimRng::seed_from_u64(9);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn forks_are_independent_and_stable() {
        let parent = SimRng::seed_from_u64(7);
        let mut f1 = parent.fork(0);
        let mut f1b = parent.fork(0);
        let mut f2 = parent.fork(1);
        let a = f1.next_u64();
        assert_eq!(a, f1b.next_u64());
        assert_ne!(a, f2.next_u64());
    }

    #[test]
    fn fork_does_not_advance_parent() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        let _ = a.fork(3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unit_in_range_and_spread() {
        let mut rng = SimRng::seed_from_u64(3);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn jitter_bounds() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let j = rng.jitter(0.05);
            assert!((0.95..1.05).contains(&j));
        }
        assert_eq!(rng.jitter(0.0), 1.0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(5);
        assert!(!rng.chance(0.0));
        for _ in 0..100 {
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn index_in_range() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(rng.index(7) < 7);
        }
    }
}
