//! Deterministic policy search over the scheduler's knob space.
//!
//! The five hand-written policies in `scheduler::policy` are single
//! points in the [`PolicyParams`] space. This crate searches that space
//! against a [`Portfolio`] of scenario files, using the probe cache as
//! the cost oracle and [`scheduler::replay`]'s workers for throughput:
//!
//! * **Objective** — a weighted sum over each scenario's replay report:
//!   mean JCT (normalized by the fifo-first-fit baseline on the same
//!   scenario), p99 SLO attainment shortfall, Jain-fairness shortfall,
//!   and work lost to faults/preemption as a share of pool capacity.
//!   Lower is better; weights are pinned constants.
//! * **Search** — seeded successive halving over a [`lattice`] of knob
//!   values (every preset is a lattice point), then coordinate-descent
//!   refinement around the incumbent. The budget counts candidate ×
//!   scenario evaluations; each batch of evaluations is one
//!   [`scheduler::replay`] call with one job per evaluation, so `--jobs N`
//!   scales throughput while the winning [`TunedPolicy`] — artifact bytes
//!   included — stays byte-identical at any worker count.
//! * **Artifact** — [`TunedPolicy::to_json_string`] emits the winning
//!   params plus per-scenario scores and full provenance (seed, budget,
//!   evaluations spent, portfolio hash). The artifact file is itself a
//!   policy: `scheduler::resolve_policy("path/to/tuned.json")` loads its
//!   `params` block, so scenarios can name a tuned artifact wherever
//!   they name a preset.

use desim::json::{ToJson, Value};
use desim::{Dur, SimRng};
use scheduler::{
    replay, ParamPolicy, ParamsError, PlacePolicy, PolicyParams, ProbeCache, Scenario,
    ScenarioError, ScheduleReport, Workload, POLICY_NAMES,
};
use std::collections::BTreeSet;
use std::path::Path;

/// Objective weight on baseline-normalized mean JCT.
pub const W_JCT: f64 = 1.0;
/// Objective weight on SLO attainment shortfall (serving scenarios).
pub const W_SLO: f64 = 2.0;
/// Objective weight on Jain-fairness shortfall.
pub const W_FAIR: f64 = 0.5;
/// Objective weight on work lost (GPU-seconds over pool capacity).
pub const W_LOST: f64 = 1.0;

/// The scenario-level cost of one replay, lower is better.
/// `baseline_mean_jct` is fifo-first-fit's mean JCT on the same
/// scenario, so the JCT term is a dimensionless slowdown ratio and
/// scenarios of very different scale contribute comparably.
pub fn objective(report: &ScheduleReport, baseline_mean_jct: Dur) -> f64 {
    let jct = if baseline_mean_jct.as_nanos() == 0 {
        1.0
    } else {
        report.mean_jct.as_nanos() as f64 / baseline_mean_jct.as_nanos() as f64
    };
    let slo = report.serve.as_ref().map_or(0.0, |s| 1.0 - s.attainment);
    let fair = 1.0 - report.fairness;
    let mut lost = 0.0;
    if let Some(r) = &report.recovery {
        lost += r.work_lost_gpu_secs;
    }
    if let Some(m) = &report.migration {
        lost += m.work_lost_gpu_secs;
    }
    let capacity = f64::from(report.pool_gpus) * report.makespan.as_secs_f64();
    let lost_share = if capacity > 0.0 { lost / capacity } else { 0.0 };
    W_JCT * jct + W_SLO * slo + W_FAIR * fair + W_LOST * lost_share
}

/// Everything that can go wrong loading a portfolio or running a search.
#[derive(Debug)]
pub enum AutotuneError {
    Io { path: String, msg: String },
    Parse { path: String, msg: String },
    Scenario(ScenarioError),
    Params(ParamsError),
    EmptyPortfolio(String),
    MixedProbeIters { scenario: String, iters: u64, expected: u64 },
    BudgetTooSmall { budget: usize, need: usize },
}

impl std::fmt::Display for AutotuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutotuneError::Io { path, msg } => write!(f, "cannot read {path}: {msg}"),
            AutotuneError::Parse { path, msg } => write!(f, "cannot parse {path}: {msg}"),
            AutotuneError::Scenario(e) => write!(f, "{e}"),
            AutotuneError::Params(e) => write!(f, "{e}"),
            AutotuneError::EmptyPortfolio(path) => {
                write!(f, "portfolio {path} holds no scenario files")
            }
            AutotuneError::MixedProbeIters { scenario, iters, expected } => write!(
                f,
                "scenario {scenario} uses probe_iters {iters} but the portfolio opened at \
                 {expected}; probe prices are only comparable at one iteration count"
            ),
            AutotuneError::BudgetTooSmall { budget, need } => write!(
                f,
                "budget {budget} cannot even score the five presets ({need} evaluations needed)"
            ),
        }
    }
}

impl std::error::Error for AutotuneError {}

impl From<ScenarioError> for AutotuneError {
    fn from(e: ScenarioError) -> AutotuneError {
        AutotuneError::Scenario(e)
    }
}

impl From<ParamsError> for AutotuneError {
    fn from(e: ParamsError) -> AutotuneError {
        AutotuneError::Params(e)
    }
}

/// The scenario set a search optimizes against, in file-name order.
/// All scenarios must agree on `probe_iters` (one shared cost oracle).
pub struct Portfolio {
    scenarios: Vec<Scenario>,
    /// Each scenario's admitted workload, index-aligned with `scenarios`:
    /// validated and materialized once, replayed by every evaluation.
    workloads: Vec<Workload>,
    hash: u64,
}

impl Portfolio {
    /// Load every `*.json` under `dir` (non-recursive, lexicographic
    /// file-name order, the `collect_scenario_files` convention), parse
    /// and validate each as a [`Scenario`].
    pub fn load_dir(dir: &Path) -> Result<Portfolio, AutotuneError> {
        let io = |msg: String| AutotuneError::Io { path: dir.display().to_string(), msg };
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| io(e.to_string()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        let mut scenarios = Vec::new();
        for f in &files {
            let text = std::fs::read_to_string(f).map_err(|e| AutotuneError::Io {
                path: f.display().to_string(),
                msg: e.to_string(),
            })?;
            let sc = Scenario::from_json_str(&text).map_err(|e| AutotuneError::Parse {
                path: f.display().to_string(),
                msg: e.to_string(),
            })?;
            scenarios.push(sc);
        }
        Portfolio::from_scenarios(scenarios, &dir.display().to_string())
    }

    /// Validate and fingerprint an in-memory scenario set.
    pub fn from_scenarios(
        scenarios: Vec<Scenario>,
        origin: &str,
    ) -> Result<Portfolio, AutotuneError> {
        if scenarios.is_empty() {
            return Err(AutotuneError::EmptyPortfolio(origin.to_string()));
        }
        let expected = scenarios[0].config.probe_iters;
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut workloads = Vec::with_capacity(scenarios.len());
        for sc in &scenarios {
            workloads.push(sc.validate()?);
            if sc.config.probe_iters != expected {
                return Err(AutotuneError::MixedProbeIters {
                    scenario: sc.name.clone(),
                    iters: sc.config.probe_iters,
                    expected,
                });
            }
            hash = fnv1a(sc.to_json_string().as_bytes(), hash);
        }
        Ok(Portfolio { scenarios, workloads, hash })
    }

    /// The portfolio's scenarios, in file-name order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// FNV-1a over the canonical JSON of every scenario, in order —
    /// stamped into artifacts so a tuned policy names exactly the
    /// portfolio that produced it.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.hash)
    }

    pub fn probe_iters(&self) -> u64 {
        self.scenarios[0].config.probe_iters
    }
}

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The value lattice the halving phase samples from and the descent
/// phase steps along. Every preset is a lattice point (asserted by the
/// property suite), so the search space strictly contains the
/// hand-written policies.
pub mod lattice {
    use super::PolicyParams;

    /// `(field, grid)` for every f64 knob, in [`PolicyParams`] field
    /// order. The boolean `evict_for_slo` is the eleventh axis.
    pub const GRIDS: [(&str, &[f64]); 10] = [
        ("whole_drawer", &[0.0, 1.0]),
        ("tie_tight", &[0.0, 1.0]),
        ("frag_patience", &[0.0, 0.25, 0.5, 0.75, 1.0]),
        ("spill_pack", &[0.0, 1.0]),
        ("probe_bias", &[0.0, 1.0]),
        ("replica_pack", &[0.0, 1.0]),
        ("shrink_aggr", &[0.0625, 0.125, 0.25, 0.5, 0.75, 1.0]),
        ("slo_claw_band", &[0.05, 0.25, 0.5, 0.75, 0.95]),
        ("preempt_margin", &[0.0, 0.25, 0.5, 0.75, 1.0]),
        ("defrag_margin", &[1.0, 1.1, 1.25, 1.5, 2.0]),
    ];

    pub(crate) fn get(p: &PolicyParams, i: usize) -> f64 {
        match i {
            0 => p.whole_drawer,
            1 => p.tie_tight,
            2 => p.frag_patience,
            3 => p.spill_pack,
            4 => p.probe_bias,
            5 => p.replica_pack,
            6 => p.shrink_aggr,
            7 => p.slo_claw_band,
            8 => p.preempt_margin,
            9 => p.defrag_margin,
            _ => unreachable!("10 f64 knobs"),
        }
    }

    pub(crate) fn set(p: &mut PolicyParams, i: usize, v: f64) {
        match i {
            0 => p.whole_drawer = v,
            1 => p.tie_tight = v,
            2 => p.frag_patience = v,
            3 => p.spill_pack = v,
            4 => p.probe_bias = v,
            5 => p.replica_pack = v,
            6 => p.shrink_aggr = v,
            7 => p.slo_claw_band = v,
            8 => p.preempt_margin = v,
            9 => p.defrag_margin = v,
            _ => unreachable!("10 f64 knobs"),
        }
    }

    /// One seeded uniform draw from the lattice.
    pub fn sample(rng: &mut desim::SimRng) -> PolicyParams {
        let mut p = PolicyParams::fifo_first_fit();
        for (i, (_, grid)) in GRIDS.iter().enumerate() {
            set(&mut p, i, grid[rng.index(grid.len())]);
        }
        p.evict_for_slo = rng.chance(0.5);
        p
    }

    /// Is every knob of `p` on its grid?
    pub fn contains(p: &PolicyParams) -> bool {
        GRIDS.iter().enumerate().all(|(i, (_, grid))| grid.contains(&get(p, i)))
    }
}

/// Search knobs: the RNG seed behind lattice sampling and the evaluation
/// budget (candidate × scenario replays, the unit all phases share).
#[derive(Debug, Clone, Copy)]
pub struct SearchSpec {
    pub seed: u64,
    pub budget: usize,
}

impl Default for SearchSpec {
    fn default() -> SearchSpec {
        SearchSpec { seed: 7, budget: 64 }
    }
}

/// The search result: winning params, how it scored, what the best
/// hand-written preset scored on the same portfolio, and the provenance
/// needed to reproduce the run bit-for-bit.
#[derive(Debug, Clone)]
pub struct TunedPolicy {
    pub params: PolicyParams,
    /// Portfolio-mean objective of the winner (lower is better).
    pub objective: f64,
    /// `(scenario name, objective)` per portfolio scenario, in order.
    pub per_scenario: Vec<(String, f64)>,
    /// Best preset on the same portfolio, for the artifact's margin row.
    pub baseline_name: String,
    pub baseline_objective: f64,
    pub seed: u64,
    pub budget: usize,
    /// Evaluations actually spent (≤ budget).
    pub evals: usize,
    pub portfolio_hash: String,
}

impl TunedPolicy {
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("params", self.params.to_json()),
            ("objective", Value::Num(self.objective)),
            (
                "baseline",
                Value::obj(vec![
                    ("policy", Value::str(self.baseline_name.clone())),
                    ("objective", Value::Num(self.baseline_objective)),
                ]),
            ),
            (
                "per_scenario",
                Value::Arr(
                    self.per_scenario
                        .iter()
                        .map(|(name, obj)| {
                            Value::obj(vec![
                                ("scenario", Value::str(name.clone())),
                                ("objective", Value::Num(*obj)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "provenance",
                Value::obj(vec![
                    ("seed", Value::from_u64(self.seed)),
                    ("budget", Value::from_u64(self.budget as u64)),
                    ("evals", Value::from_u64(self.evals as u64)),
                    ("portfolio_hash", Value::str(self.portfolio_hash.clone())),
                ]),
            ),
        ])
    }

    /// The canonical artifact bytes — what `repro autotune` prints and
    /// the golden guard freezes. Loadable as a policy via
    /// `scheduler::resolve_policy` (which reads the `params` block).
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().emit_pretty();
        s.push('\n');
        s
    }
}

/// Replay each `(candidate, scenario index)` evaluation through one
/// [`replay`] call on the shared cache, so throughput scales with `jobs`
/// and the whole search stays byte-identical at any worker count.
fn eval_batch(
    pf: &Portfolio,
    work: &[(PolicyParams, usize)],
    jobs: usize,
    cache: &mut ProbeCache,
) -> Result<Vec<ScheduleReport>, AutotuneError> {
    let mut runs: Vec<(&Workload, Box<dyn PlacePolicy>)> = Vec::with_capacity(work.len());
    for &(params, si) in work {
        runs.push((&pf.workloads[si], Box::new(ParamPolicy::new(params)?)));
    }
    Ok(replay(runs, jobs, cache)?)
}

struct Cand {
    params: PolicyParams,
    /// Per-scenario objectives accumulated so far (index-aligned with
    /// the portfolio prefix this candidate has been scored on).
    scores: Vec<f64>,
}

impl Cand {
    fn mean(&self) -> f64 {
        self.scores.iter().sum::<f64>() / self.scores.len() as f64
    }
}

/// Simulated cost of successive halving starting from `n0` candidates
/// over `s` rungs (one portfolio scenario per rung, keep half, floor 2).
fn halving_cost(n0: usize, s: usize) -> usize {
    let mut alive = n0;
    let mut total = 0;
    for _ in 0..s {
        total += alive;
        alive = alive.div_ceil(2).max(2.min(alive));
    }
    total
}

/// Run the search. `cache` is the shared cost oracle (probe prices are
/// pure, so a fresh cache and a warm one give identical results — warm
/// is only faster). Deterministic in `(portfolio, spec)`; `jobs` only
/// changes wall-clock.
pub fn tune(
    pf: &Portfolio,
    spec: &SearchSpec,
    jobs: usize,
    cache: &mut ProbeCache,
) -> Result<TunedPolicy, AutotuneError> {
    let s = pf.scenarios.len();
    let need = POLICY_NAMES.len() * s;
    if spec.budget < need {
        return Err(AutotuneError::BudgetTooSmall { budget: spec.budget, need });
    }
    let mut evals = 0usize;

    // Phase 0: fifo-first-fit on every scenario — the JCT normalizer.
    let fifo = PolicyParams::fifo_first_fit();
    let work: Vec<(PolicyParams, usize)> = (0..s).map(|si| (fifo, si)).collect();
    let fifo_reports = eval_batch(pf, &work, jobs, cache)?;
    evals += work.len();
    let baselines: Vec<Dur> = fifo_reports.iter().map(|r| r.mean_jct).collect();

    // Phase 1: the remaining presets, fully scored (they anchor the
    // artifact's baseline row, so they never face elimination).
    let mut presets: Vec<Cand> = vec![Cand {
        params: fifo,
        scores: fifo_reports
            .iter()
            .enumerate()
            .map(|(si, r)| objective(r, baselines[si]))
            .collect(),
    }];
    let rest: Vec<PolicyParams> =
        POLICY_NAMES[1..].iter().map(|n| PolicyParams::preset(n).expect("canonical")).collect();
    let work: Vec<(PolicyParams, usize)> =
        rest.iter().flat_map(|&p| (0..s).map(move |si| (p, si))).collect();
    let reports = eval_batch(pf, &work, jobs, cache)?;
    evals += work.len();
    for (pi, &params) in rest.iter().enumerate() {
        let scores = (0..s)
            .map(|si| objective(&reports[pi * s + si], baselines[si]))
            .collect();
        presets.push(Cand { params, scores });
    }

    let mut tried: BTreeSet<String> = presets.iter().map(|c| c.params.to_json_string()).collect();

    // Phase 2: successive halving over seeded lattice samples. The pool
    // size is the largest that fits in ~60% of the remaining budget; the
    // rest is reserved for descent.
    let remaining = spec.budget - evals;
    let halving_budget = remaining * 3 / 5;
    let mut n0 = 0;
    for k in 1..=32 {
        if halving_cost(k, s) <= halving_budget {
            n0 = k;
        }
    }
    let mut rng = SimRng::seed_from_u64(spec.seed);
    let mut alive: Vec<Cand> = Vec::new();
    let mut attempts = 0;
    while alive.len() < n0 && attempts < 10_000 {
        attempts += 1;
        let p = lattice::sample(&mut rng);
        if tried.insert(p.to_json_string()) {
            alive.push(Cand { params: p, scores: Vec::new() });
        }
    }
    for si in 0..s {
        if alive.is_empty() {
            break;
        }
        let work: Vec<(PolicyParams, usize)> = alive.iter().map(|c| (c.params, si)).collect();
        let reports = eval_batch(pf, &work, jobs, cache)?;
        evals += work.len();
        for (c, r) in alive.iter_mut().zip(&reports) {
            c.scores.push(objective(r, baselines[si]));
        }
        if si + 1 < s {
            // Keep the better half (floor 2), preserving pool order.
            let mut order: Vec<usize> = (0..alive.len()).collect();
            order.sort_by(|&a, &b| {
                alive[a].mean().partial_cmp(&alive[b].mean()).expect("finite").then(a.cmp(&b))
            });
            let keep: BTreeSet<usize> =
                order.into_iter().take(alive.len().div_ceil(2).max(2.min(alive.len()))).collect();
            let mut i = 0;
            alive.retain(|_| {
                i += 1;
                keep.contains(&(i - 1))
            });
        }
    }

    // Phase 3: incumbent = best fully-scored candidate, presets first so
    // exact ties replay a hand-written policy.
    let full: Vec<&Cand> = presets.iter().chain(alive.iter()).collect();
    let best_i = (0..full.len())
        .min_by(|&a, &b| full[a].mean().partial_cmp(&full[b].mean()).expect("finite"))
        .expect("presets are never empty");
    let mut best = Cand { params: full[best_i].params, scores: full[best_i].scores.clone() };

    // Phase 4: coordinate descent — step each knob one lattice notch at
    // a time (plus the evict toggle), full-portfolio trials, strict
    // improvement, until a whole sweep stalls or the budget runs out.
    'descent: loop {
        let mut improved = false;
        for axis in 0..=lattice::GRIDS.len() {
            let neighbors: Vec<PolicyParams> = if axis == lattice::GRIDS.len() {
                let mut p = best.params;
                p.evict_for_slo = !p.evict_for_slo;
                vec![p]
            } else {
                let grid = lattice::GRIDS[axis].1;
                let cur = lattice::get(&best.params, axis);
                let at = grid.iter().position(|&v| v == cur);
                let mut out = Vec::new();
                if let Some(at) = at {
                    if at > 0 {
                        let mut p = best.params;
                        lattice::set(&mut p, axis, grid[at - 1]);
                        out.push(p);
                    }
                    if at + 1 < grid.len() {
                        let mut p = best.params;
                        lattice::set(&mut p, axis, grid[at + 1]);
                        out.push(p);
                    }
                }
                out
            };
            for p in neighbors {
                if !tried.insert(p.to_json_string()) {
                    continue;
                }
                if evals + s > spec.budget {
                    break 'descent;
                }
                let work: Vec<(PolicyParams, usize)> = (0..s).map(|si| (p, si)).collect();
                let reports = eval_batch(pf, &work, jobs, cache)?;
                evals += work.len();
                let scores: Vec<f64> = reports
                    .iter()
                    .enumerate()
                    .map(|(si, r)| objective(r, baselines[si]))
                    .collect();
                let cand = Cand { params: p, scores };
                if cand.mean() < best.mean() {
                    best = cand;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    let best_preset_i = (0..presets.len())
        .min_by(|&a, &b| presets[a].mean().partial_cmp(&presets[b].mean()).expect("finite"))
        .expect("five presets");
    Ok(TunedPolicy {
        params: best.params,
        objective: best.mean(),
        per_scenario: pf
            .scenarios
            .iter()
            .zip(&best.scores)
            .map(|(sc, &o)| (sc.name.clone(), o))
            .collect(),
        baseline_name: POLICY_NAMES[best_preset_i].to_string(),
        baseline_objective: presets[best_preset_i].mean(),
        seed: spec.seed,
        budget: spec.budget,
        evals,
        portfolio_hash: pf.hash_hex(),
    })
}
