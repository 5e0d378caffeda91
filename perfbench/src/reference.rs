//! Host-speed reference. A shared host's speed drifts for minutes at a
//! time with no steal time the guest could see: clock speed, and a busy
//! sibling hyperthread sharing the core's caches. Drifts of 20% to 90%
//! were seen, far wider than any bound, and a run's median cannot filter
//! out a drift that outlasts the run.
//!
//! So every timed step of a set-up or round runs between two reference
//! passes, and its wall time is scaled by how much slower than
//! [`REFERENCE_S`] the passes ran. The pass is benchmark code only, so no
//! change to the product can move it: hash-map inserts and lookups and
//! small-box allocation churn, the simulator's own staple operations. Of
//! nine candidate passes (sorts of three sizes, `BTreeMap`, `HashMap`,
//! `BinaryHeap`, a dependent float chain, a pointer chase, allocation)
//! this pair tracked the four workloads' round and set-up times best, on
//! quiet and on bursty stretches of the host (README, "Host speed").

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// Best-of-three time of one reference pass on the quiet host the
/// recorded numbers come from (a 2-vCPU Intel Xeon VM). Scaled times are
/// seconds at that host's quiet speed.
const REFERENCE_S: f64 = 1.2e-3;

/// FNV-1a, so the pass does not depend on a randomly keyed hasher.
#[derive(Default)]
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

struct Reference {
    keys: Vec<u64>,
}

impl Reference {
    fn new() -> Reference {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let keys = (0..1 << 15)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Reference { keys }
    }

    /// Seconds of one pass, best of three, so that an interrupt or the
    /// cold cache a round leaves behind does not count.
    fn pass(&self) -> f64 {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                let mut map: HashMap<u64, usize, BuildHasherDefault<Fnv>> = HashMap::default();
                for (i, &k) in self.keys[..1 << 14].iter().enumerate() {
                    map.insert(k, i);
                }
                let found: usize = self.keys.iter().filter_map(|k| map.get(k)).sum();
                let mut boxes: Vec<Box<[u64; 8]>> = Vec::new();
                for &k in &self.keys[..1 << 14] {
                    boxes.push(Box::new([k; 8]));
                    if k & 3 == 0 {
                        boxes.swap_remove((k as usize >> 8) % boxes.len());
                    }
                }
                std::hint::black_box((found, boxes));
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Run `f` between two passes: its result, its wall seconds, and the
    /// factor that scales them to the reference host's quiet speed.
    fn time<R>(&self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = self.pass();
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        let after = self.pass();
        (r, secs, 2.0 * REFERENCE_S / (before + after))
    }
}

/// Times the steps of a set-up or round, each between its own pair of
/// reference passes, so that a long round made of several steps follows
/// the host's speed step by step. Code outside every step is not timed.
pub struct Clock {
    reference: Reference,
    wall: f64,
    scaled: f64,
}

impl Clock {
    pub fn new() -> Clock {
        Clock {
            reference: Reference::new(),
            wall: 0.0,
            scaled: 0.0,
        }
    }

    /// Run one timed step.
    pub fn step<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (r, secs, scale) = self.reference.time(f);
        self.wall += secs;
        self.scaled += secs * scale;
        r
    }

    /// The wall and scaled seconds of the steps since the last call.
    pub fn take(&mut self) -> (f64, f64) {
        let times = (self.wall, self.scaled);
        (self.wall, self.scaled) = (0.0, 0.0);
        times
    }
}
