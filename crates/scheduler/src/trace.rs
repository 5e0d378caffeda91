//! Job traces: training-job specs, synthetic trace generators, and JSON
//! import/export through [`desim::json`].
//!
//! The trace model follows the cluster-characterization literature
//! (Alibaba-PAI): a DL cluster's load is a stream of *heterogeneous* job
//! arrivals — mostly small jobs with a heavy tail of large ones — from
//! multiple tenants. Arrivals here are Poisson, GPU demands and job
//! lengths are drawn from a heavy-tailed mix over the paper's five
//! benchmarks, and every draw comes from a seeded [`SimRng`], so a trace
//! is a pure function of its generator parameters.

use desim::json::{Fields, FromJson, JsonError, ToJson, Value};
use desim::{Dur, SimRng, SimTime};
use dlmodels::Benchmark;
use std::fmt;

/// A tenant of the shared test bed. The chassis has four host ports, so
/// the scheduler's test bed supports two tenants, each cabled into both
/// drawers (see [`crate::cluster`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// The named priority tiers a job may carry, as `(label, tier)` pairs.
/// Tier 1 (`"low"`) is the default batch tier every legacy trace parses
/// to; higher tiers may preempt lower ones when the scheduler runs with
/// preemption enabled (see [`crate::cluster::SchedulerConfig::preempt`]).
pub const PRIORITY_TIERS: [(&str, u8); 3] = [("low", 1), ("high", 2), ("urgent", 3)];

/// Look a priority tier up by its label (`"low"` / `"high"` / `"urgent"`,
/// case-insensitive) — the form scenario JSON may spell tiers in.
pub fn priority_tier_from_label(label: &str) -> Option<u8> {
    PRIORITY_TIERS
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(label))
        .map(|&(_, tier)| tier)
}

pub use dlmodels::benchmark_from_label;

/// One training job in a cluster trace.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub id: u64,
    pub tenant: TenantId,
    pub benchmark: Benchmark,
    /// GPUs requested.
    pub gpus: u8,
    /// The smallest allocation the job tolerates; `min_gpus < gpus` marks
    /// the job elastic (eligible for mid-run shrink under pressure).
    pub min_gpus: u8,
    /// Larger runs first within the queue (ties broken by arrival, id).
    pub priority: u8,
    pub arrival: SimTime,
    /// Job length in training iterations *at the requested allocation*.
    /// When the allocation changes mid-run the remaining iterations scale
    /// inversely (constant total work in GPU-iterations).
    pub iters: u64,
}

impl JobSpec {
    pub fn shrinkable(&self) -> bool {
        self.min_gpus < self.gpus
    }
}

impl ToJson for TenantId {
    fn to_json(&self) -> Value {
        self.0.to_json()
    }
}

impl FromJson for TenantId {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        u32::from_json(v).map(TenantId)
    }
}

impl ToJson for JobSpec {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("id", Value::from_u64(self.id)),
            ("tenant", Value::from_u64(u64::from(self.tenant.0))),
            ("benchmark", Value::str(self.benchmark.label())),
            ("gpus", Value::from_u64(u64::from(self.gpus))),
            ("min_gpus", Value::from_u64(u64::from(self.min_gpus))),
            ("priority", Value::from_u64(u64::from(self.priority))),
            ("arrival_ns", self.arrival.to_json()),
            ("iters", Value::from_u64(self.iters)),
        ])
    }
}

/// A priority tier as JSON spells it: a number, or one of the labels in
/// [`PRIORITY_TIERS`].
struct Tier(u8);

impl FromJson for Tier {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        if let Ok(n) = v.as_u8() {
            return Ok(Tier(n));
        }
        let label = v.as_str()?;
        priority_tier_from_label(label).map(Tier).ok_or_else(|| {
            JsonError::decode(format!(
                "unknown priority tier \"{label}\" (tiers: low=1, high=2, urgent=3)"
            ))
        })
    }
}

impl FromJson for JobSpec {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let mut f = Fields::new(v)?;
        let job = JobSpec {
            id: f.req("id")?,
            tenant: f.req("tenant")?,
            benchmark: f.req("benchmark")?,
            gpus: f.req("gpus")?,
            min_gpus: f.req("min_gpus")?,
            // Optional: legacy traces predate tiers and parse to the
            // default low tier.
            priority: f.opt::<Tier>("priority")?.map_or(1, |t| t.0),
            arrival: f.req("arrival_ns")?,
            iters: f.req("iters")?,
        };
        f.end()?;
        Ok(job)
    }
}

/// A named stream of job arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub name: String,
    pub jobs: Vec<JobSpec>,
}

impl Trace {
    /// Jobs in arrival order (stable on ties by id) — the order the
    /// cluster event loop consumes them in.
    pub fn sorted(mut self) -> Trace {
        self.jobs.sort_by_key(|j| (j.arrival, j.id));
        self
    }

    pub fn n_tenants(&self) -> usize {
        let mut t: Vec<u32> = self.jobs.iter().map(|j| j.tenant.0).collect();
        t.sort_unstable();
        t.dedup();
        t.len()
    }

    pub fn to_json_string(&self) -> String {
        self.to_json().emit_pretty()
    }

    /// Parse a trace from JSON. Duplicate job ids are rejected (two jobs
    /// with one id would silently alias in the cluster's id-keyed maps)
    /// and jobs arrive sorted regardless of file order.
    pub fn from_json_str(s: &str) -> Result<Trace, JsonError> {
        let trace = Trace::from_json(&Value::parse(s)?)?;
        let mut ids: Vec<u64> = trace.jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        if let Some(dup) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(JsonError::decode(format!("duplicate job id {}", dup[0])));
        }
        Ok(trace.sorted())
    }
}

desim::json_record! {
    Trace;
    name: "name",
    jobs: "jobs",
}

/// Synthetic-trace generator: Poisson arrivals, heavy-tailed job mix.
#[derive(Debug, Clone)]
pub struct PoissonMix {
    pub seed: u64,
    pub n_jobs: usize,
    pub tenants: u32,
    pub mean_interarrival: Dur,
}

impl PoissonMix {
    /// The benchmark mix, weighted toward the small vision models with a
    /// heavy tail of BERT jobs (the PAI-style "many small, few huge"
    /// shape). Weights are in tenths.
    const BENCHMARK_MIX: [(Benchmark, u32); 5] = [
        (Benchmark::MobileNetV2, 3),
        (Benchmark::ResNet50, 2),
        (Benchmark::YoloV5L, 2),
        (Benchmark::BertBase, 2),
        (Benchmark::BertLarge, 1),
    ];

    /// GPU-demand mix: mostly 1–2 GPUs, a tail of 4- and 8-GPU jobs.
    const GPU_MIX: [(u8, u32); 4] = [(1, 3), (2, 3), (4, 3), (8, 1)];

    fn weighted<T: Copy>(rng: &mut SimRng, table: &[(T, u32)]) -> T {
        let total: u32 = table.iter().map(|&(_, w)| w).sum();
        let mut pick = rng.index(total as usize) as u32;
        for &(v, w) in table {
            if pick < w {
                return v;
            }
            pick -= w;
        }
        table[table.len() - 1].0
    }

    pub fn generate(&self, name: impl Into<String>) -> Trace {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut at = SimTime::ZERO;
        let tenants = self.tenants.max(1);
        let jobs = (0..self.n_jobs as u64)
            .map(|id| {
                // Poisson process: exponential interarrival times.
                let gap = -self.mean_interarrival.as_secs_f64() * (1.0 - rng.unit()).ln();
                at = at + Dur::from_secs_f64(gap);
                let benchmark = Self::weighted(&mut rng, &Self::BENCHMARK_MIX);
                let gpus = Self::weighted(&mut rng, &Self::GPU_MIX);
                // Heavy-tailed job length (bounded Pareto over iterations),
                // sized so the pool stays contended at the default
                // interarrival rate: most jobs run seconds, a few tens.
                let u = rng.unit().min(1.0 - 1e-9);
                let iters = ((24.0 * (1.0 / (1.0 - u)).powf(0.8)).round() as u64).clamp(16, 256);
                // The big jobs are elastic: they tolerate a half-pool claw-back.
                let min_gpus = if gpus >= 8 { gpus / 2 } else { gpus };
                let priority = if rng.chance(0.2) { 2 } else { 1 };
                JobSpec {
                    id,
                    tenant: TenantId(id as u32 % tenants),
                    benchmark,
                    gpus,
                    min_gpus,
                    priority,
                    arrival: at,
                    iters,
                }
            })
            .collect();
        Trace {
            name: name.into(),
            jobs,
        }
        .sorted()
    }
}

/// The seeded two-tenant trace the `repro cluster` replay and the golden
/// regression use: `n_jobs` arrivals from two tenants at a load that keeps
/// the 16-GPU pool contended.
pub fn seeded_two_tenant(n_jobs: usize, seed: u64) -> Trace {
    PoissonMix {
        seed,
        n_jobs,
        tenants: 2,
        mean_interarrival: Dur::from_millis(1500),
    }
    .generate(format!("two-tenant-{n_jobs}x{seed:#x}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_sorted() {
        let a = seeded_two_tenant(20, 7);
        let b = seeded_two_tenant(20, 7);
        assert_eq!(a, b);
        assert!(a.jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert_eq!(a.jobs.len(), 20);
        assert_eq!(a.n_tenants(), 2);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(seeded_two_tenant(20, 1), seeded_two_tenant(20, 2));
    }

    #[test]
    fn demands_and_lengths_are_in_envelope() {
        let t = seeded_two_tenant(64, 3);
        for j in &t.jobs {
            assert!(matches!(j.gpus, 1 | 2 | 4 | 8));
            assert!((16..=256).contains(&j.iters));
            assert!(j.min_gpus >= 1 && j.min_gpus <= j.gpus);
            assert_eq!(j.shrinkable(), j.gpus == 8);
        }
    }

    #[test]
    fn trace_json_round_trips() {
        let t = seeded_two_tenant(12, 9);
        let back = Trace::from_json_str(&t.to_json_string()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn label_lookup_accepts_common_aliases() {
        for (alias, want) in [
            ("MobileNetV2", Benchmark::MobileNetV2),
            ("mobilenet-v2", Benchmark::MobileNetV2),
            ("ResNet-50", Benchmark::ResNet50),
            ("resnet50", Benchmark::ResNet50),
            ("RESNET_50", Benchmark::ResNet50),
            ("YOLOv5-L", Benchmark::YoloV5L),
            ("yolov5l", Benchmark::YoloV5L),
            ("BERT", Benchmark::BertBase),
            ("bert-base", Benchmark::BertBase),
            ("BERT-L", Benchmark::BertLarge),
            ("bert_large", Benchmark::BertLarge),
        ] {
            assert_eq!(benchmark_from_label(alias), Some(want), "{alias}");
        }
        assert_eq!(benchmark_from_label("gpt-17"), None);
    }

    #[test]
    fn duplicate_job_ids_rejected() {
        let mut t = seeded_two_tenant(4, 5);
        t.jobs[2].id = t.jobs[1].id;
        let err = Trace::from_json_str(&t.to_json_string());
        assert!(err.is_err(), "duplicate ids must not parse");
    }

    #[test]
    fn out_of_order_json_is_sorted_on_parse() {
        let mut t = seeded_two_tenant(6, 5);
        t.jobs.reverse();
        let back = Trace::from_json_str(&t.to_json_string()).unwrap();
        assert!(back.jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert_eq!(back, t.sorted());
    }

    #[test]
    fn missing_priority_defaults_to_low_tier() {
        let t = seeded_two_tenant(4, 5);
        let mut stripped = t.clone();
        for j in &mut stripped.jobs {
            j.priority = 1;
        }
        // Drop every "priority" line from the emitted JSON: legacy traces
        // that predate tiers must still parse, to the default low tier.
        let legacy: String = t
            .to_json_string()
            .lines()
            .filter(|l| !l.contains("\"priority\""))
            .collect::<Vec<_>>()
            .join("\n");
        let back = Trace::from_json_str(&legacy).unwrap();
        assert_eq!(back, stripped);
    }

    #[test]
    fn priority_tier_names_parse_and_round_trip() {
        for (label, tier) in PRIORITY_TIERS {
            assert_eq!(priority_tier_from_label(label), Some(tier));
            assert_eq!(priority_tier_from_label(&label.to_uppercase()), Some(tier));
        }
        assert_eq!(priority_tier_from_label("platinum"), None);

        let t = seeded_two_tenant(3, 5);
        let named = t.to_json_string().replace("\"priority\": 1", "\"priority\": \"low\"");
        assert_eq!(Trace::from_json_str(&named).unwrap(), t);
    }

    #[test]
    fn unknown_priority_tier_rejected_by_name() {
        let t = seeded_two_tenant(3, 5);
        let bad = t.to_json_string().replace("\"priority\": 1", "\"priority\": \"platinum\"");
        let err = Trace::from_json_str(&bad).unwrap_err();
        assert!(err.to_string().contains("platinum"), "error names the bad tier: {err}");
    }

    #[test]
    fn unknown_benchmark_label_rejected() {
        let t = seeded_two_tenant(2, 1);
        let bad = t.to_json_string().replace("MobileNetV2", "GPT-17");
        if bad.contains("GPT-17") {
            assert!(Trace::from_json_str(&bad).is_err());
        }
    }
}
