//! The benchmark's declared workloads and metrics — the one table that
//! `perfbench --list` prints, every run emits, and `BENCHMARK.json` must
//! repeat (tests/benchmark_json.rs holds the two equal) — plus the order
//! statistics every report uses.

/// How long one run measures by default (`run_seconds` in BENCHMARK.json).
pub const DEFAULT_SECONDS: u64 = 25;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pai_mixed",
        why: "10k-job 60-service PAI-scale replay on 128 GPUs: the cluster loop with its serving epochs is ~90% of a round, policy ~9%, and the probe cache is only read",
    },
    Workload {
        name: "rack_faults",
        why: "4-chassis Poisson replay under a fixed 40-event rack fault plan with preemption and defrag: degraded-link probe misses are a third of a round; no serving",
    },
    Workload {
        name: "autotune_search",
        why: "policy search of 93 short replays per round on a fresh probe cache: the one workload where per-replay fixed costs (materialize, bed build, cache split) repeat",
    },
    Workload {
        name: "paper_sweep",
        why: "the 47 training runs behind the paper's figures, no random input: the training engine does all the work and the scheduler none, the control for scheduler changes",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the simulator sees, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

use Better::{Higher, Lower};

#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.10 },
    EndToEnd { name: "round_s", unit: "s", better: Lower, bound: 0.10 },
    EndToEnd { name: "throughput", unit: "1/s", better: Higher, bound: 0.10 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.10 },
];

/// A metric of one layer, and where it should show: the end-to-end
/// metrics it moves (`moves`) on the workloads that exercise it (`on`).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static [&'static str],
    pub on: &'static [&'static str],
}

const REPLAYS: &[&str] = &["pai_mixed", "rack_faults"];
const SETUP: &[&str] = &["setup_s"];
const ROUND: &[&str] = &["round_s"];
const ROUND_TPUT: &[&str] = &["round_s", "throughput"];

#[rustfmt::skip]
pub const LAYERS: [Layer; 40] = [
    Layer { name: "scenario.parse_s", unit: "s", better: Lower, moves: SETUP, on: REPLAYS },
    Layer { name: "scenario.validate_s", unit: "s", better: Lower, moves: SETUP, on: REPLAYS },
    Layer { name: "scenario.materialize_s", unit: "s", better: Lower, moves: SETUP, on: REPLAYS },
    Layer { name: "probe.warm_s", unit: "s", better: Lower, moves: SETUP, on: REPLAYS },
    Layer { name: "probe.warm_probes", unit: "count", better: Lower, moves: SETUP, on: REPLAYS },
    Layer { name: "probe.ns_per_probe", unit: "ns", better: Lower, moves: SETUP, on: REPLAYS },
    Layer { name: "probe.replay_misses", unit: "count", better: Lower, moves: ROUND, on: &["rack_faults"] },
    Layer { name: "probe.replay_miss_s", unit: "s", better: Lower, moves: ROUND, on: &["rack_faults"] },
    Layer { name: "policy.place_calls", unit: "count", better: Lower, moves: ROUND, on: REPLAYS },
    Layer { name: "policy.place_won_ratio", unit: "ratio", better: Higher, moves: ROUND, on: REPLAYS },
    Layer { name: "policy.place_s", unit: "s", better: Lower, moves: ROUND, on: REPLAYS },
    Layer { name: "policy.ns_per_place", unit: "ns", better: Lower, moves: ROUND, on: REPLAYS },
    Layer { name: "policy.replica_calls", unit: "count", better: Lower, moves: ROUND, on: &["pai_mixed"] },
    Layer { name: "policy.replica_s", unit: "s", better: Lower, moves: ROUND, on: &["pai_mixed"] },
    Layer { name: "policy.victim_calls", unit: "count", better: Lower, moves: ROUND, on: &["rack_faults"] },
    Layer { name: "policy.victim_hit_ratio", unit: "ratio", better: Higher, moves: ROUND, on: &["rack_faults"] },
    Layer { name: "policy.migrate_calls", unit: "count", better: Lower, moves: ROUND, on: &["rack_faults"] },
    Layer { name: "policy.preempt_s", unit: "s", better: Lower, moves: ROUND, on: &["rack_faults"] },
    Layer { name: "policy.self_s", unit: "s", better: Lower, moves: ROUND, on: REPLAYS },
    Layer { name: "cluster.replay_s", unit: "s", better: Lower, moves: ROUND_TPUT, on: REPLAYS },
    Layer { name: "cluster.self_s", unit: "s", better: Lower, moves: ROUND_TPUT, on: REPLAYS },
    Layer { name: "cluster.events", unit: "count", better: Higher, moves: ROUND_TPUT, on: REPLAYS },
    Layer { name: "cluster.ns_per_event", unit: "ns", better: Lower, moves: ROUND_TPUT, on: REPLAYS },
    Layer { name: "cluster.audit_entries", unit: "count", better: Lower, moves: ROUND, on: &["rack_faults"] },
    Layer { name: "cluster.preemptions", unit: "count", better: Lower, moves: ROUND, on: &["rack_faults"] },
    Layer { name: "cluster.evacuations", unit: "count", better: Lower, moves: ROUND, on: &["rack_faults"] },
    Layer { name: "serve.requests", unit: "count", better: Higher, moves: ROUND_TPUT, on: &["pai_mixed"] },
    Layer { name: "autotune.portfolio_load_s", unit: "s", better: Lower, moves: SETUP, on: &["autotune_search"] },
    Layer { name: "autotune.evals", unit: "count", better: Higher, moves: ROUND_TPUT, on: &["autotune_search"] },
    Layer { name: "autotune.ns_per_eval", unit: "ns", better: Lower, moves: ROUND_TPUT, on: &["autotune_search"] },
    Layer { name: "probe.search_probes", unit: "count", better: Lower, moves: ROUND_TPUT, on: &["autotune_search"] },
    Layer { name: "training.grid_s", unit: "s", better: Lower, moves: ROUND, on: &["paper_sweep"] },
    Layer { name: "training.fig9_s", unit: "s", better: Lower, moves: ROUND, on: &["paper_sweep"] },
    Layer { name: "training.fig15_s", unit: "s", better: Lower, moves: ROUND, on: &["paper_sweep"] },
    Layer { name: "training.fig16_s", unit: "s", better: Lower, moves: ROUND, on: &["paper_sweep"] },
    Layer { name: "training.runs", unit: "count", better: Higher, moves: ROUND_TPUT, on: &["paper_sweep"] },
    Layer { name: "training.iters", unit: "count", better: Higher, moves: ROUND, on: &["paper_sweep"] },
    Layer { name: "training.ns_per_iter", unit: "ns", better: Lower, moves: ROUND, on: &["paper_sweep", "rack_faults"] },
    Layer { name: "fabric.p2p_probe_s", unit: "s", better: Lower, moves: ROUND, on: &["paper_sweep"] },
    Layer { name: "trace.overhead", unit: "ratio", better: Lower, moves: ROUND, on: &["pai_mixed", "rack_faults", "autotune_search", "paper_sweep"] },
];

/// Sorted copy of `v` (the inputs are finite timings and counts).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    s
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(v, n=4)` does (the default "exclusive" method),
/// so spreads read the same as the acceptance check computes them. With
/// one sample all three are that sample.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let ld = s.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
