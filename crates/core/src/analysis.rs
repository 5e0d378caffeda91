//! Cross-experiment analyses built on top of the runner — the quantities a
//! co-design team would extract from the paper's characterization.
//!
//! * [`overhead_curve`] — Falcon-switching overhead as a function of model
//!   size (the paper's Fig 11 correlation, §V-C.2, as an explicit curve).
//! * [`disaggregation_crossover`] — the synthetic-model size at which the
//!   overhead crosses a tolerance threshold: "how large a model can I
//!   still pool behind the switch?" — the co-design question the test bed
//!   exists to answer.
//! * [`exposed_comm_breakdown`] — where each configuration's iteration
//!   time goes (compute vs exposed communication vs input stalls).

use crate::config::HostConfig;
use crate::runner::{run, ExperimentOpts};
use dlmodels::{paper_model, Benchmark};

/// One point of the overhead-vs-size curve.
#[derive(Debug, Clone)]
pub struct OverheadPoint {
    pub benchmark: Benchmark,
    pub params: u64,
    /// Per-iteration slowdown of `config` vs localGPUs, in percent.
    pub overhead_pct: f64,
}

/// The Fig 11 correlation as data: overhead of `config` vs localGPUs for
/// all five benchmarks, ordered by parameter count.
pub fn overhead_curve(config: HostConfig, opts: &ExperimentOpts) -> Vec<OverheadPoint> {
    let mut points: Vec<OverheadPoint> = Benchmark::all()
        .into_iter()
        .map(|b| {
            let base = run(b, HostConfig::LocalGpus, opts).expect("baseline fits");
            let other = run(b, config, opts).expect("config fits");
            OverheadPoint {
                benchmark: b,
                params: paper_model(b).param_count(),
                overhead_pct: (other.mean_iter.as_secs_f64() / base.mean_iter.as_secs_f64()
                    - 1.0)
                    * 100.0,
            }
        })
        .collect();
    points.sort_by_key(|p| p.params);
    points
}

/// Estimate (by linear interpolation over the measured curve) the
/// parameter count at which `config`'s overhead crosses
/// `tolerance_pct`. Returns `None` when the tolerance is never crossed
/// within the measured range.
pub fn disaggregation_crossover(
    curve: &[OverheadPoint],
    tolerance_pct: f64,
) -> Option<f64> {
    for pair in curve.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let (lo, hi) = (
            a.overhead_pct.min(b.overhead_pct),
            a.overhead_pct.max(b.overhead_pct),
        );
        if tolerance_pct >= lo && tolerance_pct <= hi && a.overhead_pct != b.overhead_pct {
            let t = (tolerance_pct - a.overhead_pct) / (b.overhead_pct - a.overhead_pct);
            return Some(a.params as f64 + t * (b.params as f64 - a.params as f64));
        }
    }
    None
}

/// Time breakdown of one run, as shares of total time.
#[derive(Debug, Clone, Copy)]
pub struct TimeBreakdown {
    pub exposed_comm: f64,
    pub input_stall: f64,
    /// Everything else: compute + overlapped communication + optimizer.
    pub busy: f64,
}

/// Where the time goes for `benchmark` on `config`.
pub fn exposed_comm_breakdown(
    benchmark: Benchmark,
    config: HostConfig,
    opts: &ExperimentOpts,
) -> TimeBreakdown {
    let r = run(benchmark, config, opts).expect("cell fits");
    TimeBreakdown {
        exposed_comm: r.exposed_comm_share,
        input_stall: r.input_stall_share,
        busy: (1.0 - r.exposed_comm_share - r.input_stall_share).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExperimentOpts {
        ExperimentOpts::scaled(8).without_checkpoints()
    }

    #[test]
    fn overhead_curve_is_sorted_and_increasing_at_extremes() {
        let curve = overhead_curve(HostConfig::FalconGpus, &opts());
        assert_eq!(curve.len(), 5);
        assert!(curve.windows(2).all(|w| w[0].params <= w[1].params));
        // Smallest model has the least overhead; largest the most.
        assert!(curve[0].overhead_pct < curve[4].overhead_pct);
        assert!(curve[4].overhead_pct > 60.0, "BERT-L ~2x");
    }

    #[test]
    fn crossover_sits_between_yolo_and_bert_large() {
        let curve = overhead_curve(HostConfig::FalconGpus, &opts());
        // Where does the overhead pass 20%? Between YOLO (47M, <8%) and
        // BERT-L (335M, ~100%).
        let x = disaggregation_crossover(&curve, 20.0).expect("crossed in range");
        assert!(
            (47e6..335e6).contains(&x),
            "20% crossover at {:.0}M params",
            x / 1e6
        );
    }

    #[test]
    fn crossover_none_when_out_of_range() {
        let curve = overhead_curve(HostConfig::LocalGpus, &opts());
        // localGPUs vs itself: flat ~0% curve; a 50% tolerance never crosses.
        assert!(disaggregation_crossover(&curve, 50.0).is_none());
    }

    #[test]
    fn breakdown_shares_sum_to_one() {
        let b = exposed_comm_breakdown(Benchmark::BertLarge, HostConfig::FalconGpus, &opts());
        let sum = b.exposed_comm + b.input_stall + b.busy;
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(b.exposed_comm > 0.2, "BERT-L on falcon is comm-bound");
        let local = exposed_comm_breakdown(Benchmark::BertLarge, HostConfig::LocalGpus, &opts());
        assert!(local.exposed_comm < b.exposed_comm);
    }
}
