//! Topology recommendation — the paper's stated future work (§VI):
//! *"build a system framework that can take the input of various
//! configured runs, and recommend the optimal system level topology for AI
//! and HPC workloads."*
//!
//! The recommender simulates a workload on every candidate composition
//! (optionally scaled down for speed), scores each run against an
//! [`Objective`], and returns a ranked list with the measured evidence
//! attached.

use crate::config::HostConfig;
use crate::runner::ExperimentOpts;
use desim::Dur;
use dlmodels::Benchmark;
use training::RunReport;

/// What "optimal" means for the requesting tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize wall-clock training time.
    TrainingTime,
    /// Maximize training throughput per GPU (resource efficiency —
    /// prefer compositions that don't waste pooled GPUs).
    ThroughputPerGpu,
    /// Minimize the share of time lost to exposed communication and
    /// input stalls (bottleneck-freeness).
    Balance,
}

impl Objective {
    /// Score a run; **higher is better**. Public so other rankers (the
    /// cluster scheduler's topology-aware placement policy) can score
    /// candidate compositions with the same objective definitions.
    pub fn score(self, r: &RunReport, n_gpus: usize) -> f64 {
        match self {
            Objective::TrainingTime => Objective::training_time_score(r.total_time),
            Objective::ThroughputPerGpu => r.throughput / n_gpus.max(1) as f64,
            Objective::Balance => -(r.exposed_comm_share + r.input_stall_share),
        }
    }

    /// The [`Objective::TrainingTime`] score of a run that took
    /// `total_time`, for callers that time a run without its report.
    pub fn training_time_score(total_time: Dur) -> f64 {
        -total_time.as_secs_f64()
    }
}

/// One ranked candidate.
#[derive(Debug, Clone)]
pub struct Recommendation {
    pub config: HostConfig,
    pub score: f64,
    pub report: RunReport,
}

/// Simulate `benchmark` on every candidate configuration and rank by
/// `objective`. Candidates that do not fit (OOM) are dropped — that *is*
/// the recommendation signal for them. Candidates are evaluated on
/// [`parsweep::default_jobs`] workers; the ranking is byte-identical to a
/// serial evaluation (candidate runs are independent, scores are computed
/// and stably sorted in candidate order).
pub fn recommend(
    benchmark: Benchmark,
    candidates: &[HostConfig],
    objective: Objective,
    opts: &ExperimentOpts,
) -> Vec<Recommendation> {
    recommend_jobs(benchmark, candidates, objective, opts, parsweep::default_jobs())
}

/// [`recommend`] with an explicit parsweep worker count.
pub fn recommend_jobs(
    benchmark: Benchmark,
    candidates: &[HostConfig],
    objective: Objective,
    opts: &ExperimentOpts,
    jobs: usize,
) -> Vec<Recommendation> {
    let cells: Vec<(Benchmark, HostConfig)> =
        candidates.iter().map(|&c| (benchmark, c)).collect();
    let mut ranked: Vec<Recommendation> = crate::runner::sweep_jobs(&cells, opts, jobs)
        .into_iter()
        .zip(candidates)
        .filter_map(|(result, &config)| {
            let report = result.ok()?;
            let n = 8; // all Table III configs compose 8 GPUs
            Some(Recommendation {
                config,
                score: objective.score(&report, n),
                report,
            })
        })
        .collect();
    ranked.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommends_local_gpus_for_bert_large_time() {
        let recs = recommend(
            Benchmark::BertLarge,
            &HostConfig::gpu_configs(),
            Objective::TrainingTime,
            &ExperimentOpts::scaled(4),
        );
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs[0].config,
            HostConfig::LocalGpus,
            "NVLink wins for communication-bound BERT-L"
        );
        // Scores are sorted descending.
        assert!(recs.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn small_models_rank_configs_close_together() {
        let recs = recommend(
            Benchmark::MobileNetV2,
            &HostConfig::gpu_configs(),
            Objective::TrainingTime,
            &ExperimentOpts::scaled(4),
        );
        let spread = (recs[0].report.total_time.as_secs_f64()
            - recs.last().unwrap().report.total_time.as_secs_f64())
        .abs()
            / recs[0].report.total_time.as_secs_f64();
        assert!(
            spread < 0.15,
            "for small models the composition barely matters: {spread}"
        );
    }

    #[test]
    fn balance_objective_penalizes_exposed_comm() {
        let recs = recommend(
            Benchmark::BertLarge,
            &[HostConfig::LocalGpus, HostConfig::FalconGpus],
            Objective::Balance,
            &ExperimentOpts::scaled(4),
        );
        assert_eq!(recs[0].config, HostConfig::LocalGpus);
    }
}
