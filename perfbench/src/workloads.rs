//! The four workloads. Each reads its checked-in spec, takes the seed only
//! as generated input (a trace or search seed written into the spec), and
//! brackets the calls it makes into each module's public API with spans.

use crate::measure::{digest, Finished, Workload};
use crate::reference::Clock;
use crate::trace::{HookStats, Tag, TimedPolicy, Tracer};
use autotune::{Portfolio, SearchSpec, TunedPolicy};
use bench::experiments::{self, Scale};
use composable_core::HostConfig;
use desim::json::{ToJson, Value};
use dlmodels::Benchmark;
use fabric::microbench::P2pResult;
use scheduler::probe::LinkHealth;
use scheduler::trace::benchmark_from_label;
use scheduler::{
    resolve_policy, warm_set_for_trace, ClusterSim, FaultPlan, FaultSpec, MixedTrace, PlacePolicy,
    ProbeCache, Scenario, ScenarioReport, ScheduleReport, Shape, TraceSpec,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use training::RunReport;

/// Digest of the `rack_faults` full report at the spec's own seed.
const RACK_FAULTS_DIGEST: &str = "afea5e7358d41aaa";
/// Digest of the `paper_sweep` outputs (no random input, so every seed).
const PAPER_SWEEP_DIGEST: &str = "a23c56801ffa15fa";
/// The search the frozen `tuned_default.json` artifact records.
const AUTOTUNE_SEED: u64 = 7;
const AUTOTUNE_BUDGET: usize = 96;

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_spec(path: &Path) -> Result<Scenario, String> {
    Scenario::from_json_str(&read(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// The repository paths the workloads read, relative to its root.
const PAI_SPEC: &str = "scenarios/pai_magnitude.json";
const PAI_GOLDEN: &str = "crates/bench/golden/pai_magnitude.json";
const RACK_SPEC: &str = "perfbench/workloads/rack_faults.json";
const PORTFOLIO: &str = "scenarios/portfolio_default";
const TUNED_GOLDEN: &str = "crates/bench/golden/tuned_default.json";

/// The seed slot of `pai_magnitude.json`: its pai-mix trace seed.
fn pai_seed(sc: &mut Scenario) -> Result<&mut u64, String> {
    match &mut sc.trace {
        TraceSpec::PaiMix { seed, .. } => Ok(seed),
        _ => Err(format!("{PAI_SPEC} is not a pai-mix trace")),
    }
}

/// The seed slot of `rack_faults.json`: its Poisson job-stream seed.
fn rack_seed(sc: &mut Scenario) -> Result<&mut u64, String> {
    match &mut sc.trace {
        TraceSpec::Poisson { seed, .. } => Ok(seed),
        _ => Err(format!("{RACK_SPEC} is not a poisson trace")),
    }
}

/// The seed a workload runs at when none is given: the one its spec or
/// golden was produced with.
pub fn default_seed(root: &Path, workload: &str) -> Result<u64, String> {
    match workload {
        "pai_mixed" => Ok(*pai_seed(&mut load_spec(&root.join(PAI_SPEC))?)?),
        "rack_faults" => Ok(*rack_seed(&mut load_spec(&root.join(RACK_SPEC))?)?),
        "autotune_search" => Ok(AUTOTUNE_SEED),
        "paper_sweep" => Ok(0),
        other => Err(format!("unknown workload \"{other}\"")),
    }
}

/// A one-policy scenario replayed through `ClusterSim`, as
/// `run_scenario_with_policy` does, with the set-up steps split out.
pub struct Replay {
    /// The seeded spec, in canonical form; every set-up parses it.
    spec_text: String,
    pinned: Option<String>,
}

pub struct ReplayInput {
    sc: Scenario,
    mixed: MixedTrace,
    plan: FaultPlan,
    /// Warmed once per set-up; every round replays on a fresh split.
    cache: ProbeCache,
}

impl Replay {
    /// `pai_mixed`: `scenarios/pai_magnitude.json` with its pai-mix seed
    /// set to `seed`, checked against the frozen summary report at the
    /// spec's own seed.
    pub fn pai_mixed(root: &Path, seed: u64) -> Result<Replay, String> {
        let mut sc = load_spec(&root.join(PAI_SPEC))?;
        let own = pai_seed(&mut sc)?;
        let pinned = if *own == seed {
            Some(digest(&read(&root.join(PAI_GOLDEN))?))
        } else {
            None
        };
        *own = seed;
        Ok(Replay {
            spec_text: sc.to_json_string(),
            pinned,
        })
    }

    /// `rack_faults`: the checked-in spec with its Poisson job stream drawn
    /// from `seed`. The fault plan keeps the spec's own seed: it is part of
    /// the workload, like the rack. Redrawn per seed, its 40 events swing
    /// the probe misses of a round from 163 to 219 (seeds 1 to 10), which
    /// would put the seed into every timing.
    pub fn rack_faults(root: &Path, seed: u64) -> Result<Replay, String> {
        let mut sc = load_spec(&root.join(RACK_SPEC))?;
        if !matches!(sc.faults, FaultSpec::Seeded { .. }) {
            return Err(format!("{RACK_SPEC} has no seeded fault plan"));
        }
        let own = rack_seed(&mut sc)?;
        let pinned = (*own == seed).then(|| RACK_FAULTS_DIGEST.to_string());
        *own = seed;
        Ok(Replay {
            spec_text: sc.to_json_string(),
            pinned,
        })
    }
}

/// A probe-cache key as persisted: benchmark label, shape, link health.
type ProbeKey = (String, u8, u8, u8, u8);

/// The probe keys `cache` holds, from its persistence form.
fn probe_keys(cache: &ProbeCache) -> Result<BTreeSet<ProbeKey>, String> {
    let v = Value::parse(&cache.save_json()).map_err(|e| e.to_string())?;
    let entries = v
        .get("entries")
        .and_then(|e| e.as_arr())
        .map_err(|e| e.to_string())?;
    entries
        .iter()
        .map(|e| {
            Ok((
                e.get("benchmark")?.as_str()?.to_string(),
                e.get("d0")?.as_u8()?,
                e.get("d1")?.as_u8()?,
                e.get("h0")?.as_u8()?,
                e.get("h1")?.as_u8()?,
            ))
        })
        .collect::<Result<_, desim::json::JsonError>>()
        .map_err(|e| e.to_string())
}

impl Workload for Replay {
    type Input = ReplayInput;
    type Output = (ScheduleReport, ProbeCache);

    fn setup(&self, tr: &mut Tracer) -> Result<ReplayInput, String> {
        let sc = tr
            .time("scenario.parse", || {
                Scenario::from_json_str(&self.spec_text)
            })
            .map_err(|e| e.to_string())?;
        tr.time("scenario.validate", || sc.validate())
            .map_err(|e| e.to_string())?;
        if sc.policies.len() != 1 {
            return Err(format!(
                "{}: a replay workload runs exactly one policy",
                sc.name
            ));
        }
        let (mixed, plan) = tr.time("scenario.materialize", || sc.materialize());
        let mut cache = ProbeCache::new_for(sc.config.probe_iters, sc.topology.rack());
        tr.time("probe.warm", || {
            cache.warm(&warm_set_for_trace(&mixed.training()), 1)
        });
        Ok(ReplayInput {
            sc,
            mixed,
            plan,
            cache,
        })
    }

    fn round(
        &self,
        input: &ReplayInput,
        tr: &mut Tracer,
        clock: &mut Clock,
        hooks: Option<Arc<HookStats>>,
    ) -> Result<Self::Output, String> {
        clock.step(|| {
            let policy = resolve_policy(&input.sc.policies[0]).map_err(|e| e.to_string())?;
            let policy: Box<dyn PlacePolicy> = match hooks {
                Some(stats) => Box::new(TimedPolicy::new(policy, stats)),
                None => policy,
            };
            let (topo, cfg) = (input.sc.topology.rack(), input.sc.config.clone());
            let split = input.cache.split();
            tr.time("replay", || {
                let sim = if input.mixed.services.is_empty() {
                    ClusterSim::with_probe_cache_on(
                        topo,
                        input.mixed.training(),
                        policy,
                        cfg,
                        split,
                    )?
                } else {
                    ClusterSim::with_probe_cache_mixed_on(
                        topo,
                        input.mixed.clone(),
                        policy,
                        cfg,
                        split,
                    )?
                };
                let sim = if input.plan.is_empty() {
                    sim
                } else {
                    sim.with_faults(input.plan.clone())?
                };
                sim.with_workers(1).run_report()
            })
            .map_err(|e| e.to_string())
        })
    }

    fn finish(
        &self,
        input: &ReplayInput,
        (report, cache): Self::Output,
        tr: &mut Tracer,
        tag: Tag,
        hooks: Option<&HookStats>,
    ) -> Result<Finished, String> {
        let jobs = input.mixed.jobs.len() as u64;
        if u64::from(report.n_jobs) != jobs {
            return Err(format!("{} of {jobs} jobs completed", report.n_jobs));
        }
        let requests = report.serve.as_ref().map_or(0, |s| s.generated);
        let events = 2 * jobs + requests + 2 * input.plan.events.len() as u64;
        let preemptions = report.migration.as_ref().map_or(0, |m| m.preemptions);
        let evacuations = report.recovery.as_ref().map_or(0, |r| r.evacuations);
        let audit_entries = report.audit_entries;
        let bytes = ScenarioReport {
            scenario: input.sc.name.clone(),
            metrics: input.sc.metrics,
            reports: vec![report],
        }
        .canonical_json_string();
        let Some(h) = hooks else {
            return Ok(Finished {
                bytes,
                work: events,
                layers: Vec::new(),
            });
        };

        // Probes are pure, so re-pricing the keys this replay added on a
        // fresh cache repeats exactly the simulations its misses ran.
        let warm = probe_keys(&input.cache)?;
        let added: Vec<_> = probe_keys(&cache)?
            .into_iter()
            .filter(|k| !warm.contains(k))
            .collect();
        let mut fresh = ProbeCache::new_for(input.sc.config.probe_iters, input.sc.topology.rack());
        let mut keys = Vec::with_capacity(added.len());
        for (label, d0, d1, h0, h1) in &added {
            let b = benchmark_from_label(label).ok_or(format!("unknown benchmark {label}"))?;
            keys.push((b, Shape::new(*d0, *d1), LinkHealth { h0: *h0, h1: *h1 }));
        }
        if !keys.is_empty() {
            tr.time("probe.reprice", || {
                for &(b, shape, health) in &keys {
                    std::hint::black_box(fresh.price_degraded(b, shape, health));
                }
            });
        }
        let misses = cache.probes_run();
        let miss_s = tr.total("probe.reprice", tag);
        let replay_s = tr.total("replay", tag);

        let g = |c| HookStats::get(c) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let place_s = g(&h.place_ns) * 1e-9;
        let replica_s = g(&h.replica_ns) * 1e-9;
        let preempt_s = (g(&h.victim_ns) + g(&h.migrate_ns)) * 1e-9;
        // Misses priced inside a hook sit in both the hook time and the
        // re-priced miss time; count them once.
        let in_hooks_s = ratio(miss_s, misses as f64) * g(&h.hook_probes);
        let policy_self_s = place_s + replica_s + preempt_s - in_hooks_s;
        let self_s = replay_s - policy_self_s - miss_s;
        let layers = vec![
            ("probe.replay_misses", misses as f64),
            ("probe.replay_miss_s", miss_s),
            ("policy.place_calls", g(&h.place_calls)),
            (
                "policy.place_won_ratio",
                ratio(g(&h.place_won), g(&h.place_calls)),
            ),
            ("policy.place_s", place_s),
            (
                "policy.ns_per_place",
                ratio(g(&h.place_ns), g(&h.place_calls)),
            ),
            ("policy.replica_calls", g(&h.replica_calls)),
            ("policy.replica_s", replica_s),
            ("policy.victim_calls", g(&h.victim_calls)),
            (
                "policy.victim_hit_ratio",
                ratio(f64::from(preemptions), g(&h.victim_calls)),
            ),
            ("policy.migrate_calls", g(&h.migrate_calls)),
            ("policy.preempt_s", preempt_s),
            ("policy.self_s", policy_self_s),
            ("cluster.replay_s", replay_s),
            ("cluster.self_s", self_s),
            ("cluster.events", events as f64),
            ("cluster.ns_per_event", self_s * 1e9 / events as f64),
            ("cluster.audit_entries", audit_entries as f64),
            ("cluster.preemptions", f64::from(preemptions)),
            ("cluster.evacuations", f64::from(evacuations)),
            ("serve.requests", requests as f64),
        ];
        Ok(Finished {
            bytes,
            work: events,
            layers,
        })
    }

    fn setup_layers(&self, input: &ReplayInput, tr: &Tracer, tag: Tag) -> Vec<(&'static str, f64)> {
        let warm_s = tr.total("probe.warm", tag);
        // Set-up warms a fresh cache, so every probe it holds ran in the warm.
        let probes = input.cache.probes_run() as f64;
        vec![
            ("scenario.parse_s", tr.total("scenario.parse", tag)),
            ("scenario.validate_s", tr.total("scenario.validate", tag)),
            (
                "scenario.materialize_s",
                tr.total("scenario.materialize", tag),
            ),
            ("probe.warm_s", warm_s),
            ("probe.warm_probes", probes),
            (
                "probe.ns_per_probe",
                if probes > 0.0 {
                    warm_s * 1e9 / probes
                } else {
                    0.0
                },
            ),
        ]
    }

    fn pinned(&self) -> Option<String> {
        self.pinned.clone()
    }
}

/// `autotune_search`: the seeded policy search over the default portfolio
/// on a fresh probe cache, checked against the frozen artifact at its own
/// seed.
pub struct Autotune {
    dir: PathBuf,
    seed: u64,
    pinned: Option<String>,
}

impl Autotune {
    pub fn new(root: &Path, seed: u64) -> Result<Autotune, String> {
        let pinned = if seed == AUTOTUNE_SEED {
            Some(digest(&read(&root.join(TUNED_GOLDEN))?))
        } else {
            None
        };
        Ok(Autotune {
            dir: root.join(PORTFOLIO),
            seed,
            pinned,
        })
    }
}

impl Workload for Autotune {
    type Input = Portfolio;
    type Output = (TunedPolicy, u64);

    fn setup(&self, tr: &mut Tracer) -> Result<Portfolio, String> {
        tr.time("autotune.portfolio_load", || Portfolio::load_dir(&self.dir))
            .map_err(|e| e.to_string())
    }

    fn round(
        &self,
        pf: &Portfolio,
        tr: &mut Tracer,
        clock: &mut Clock,
        _hooks: Option<Arc<HookStats>>,
    ) -> Result<Self::Output, String> {
        let spec = SearchSpec {
            seed: self.seed,
            budget: AUTOTUNE_BUDGET,
        };
        clock.step(|| {
            let mut cache = ProbeCache::new(pf.probe_iters());
            let tuned = tr
                .time("autotune.tune", || autotune::tune(pf, &spec, 1, &mut cache))
                .map_err(|e| e.to_string())?;
            Ok((tuned, cache.probes_run()))
        })
    }

    fn finish(
        &self,
        _pf: &Portfolio,
        (tuned, probes): Self::Output,
        tr: &mut Tracer,
        tag: Tag,
        hooks: Option<&HookStats>,
    ) -> Result<Finished, String> {
        let evals = tuned.evals as u64;
        if evals == 0 || tuned.evals > AUTOTUNE_BUDGET {
            return Err(format!("{evals} evaluations outside 1..={AUTOTUNE_BUDGET}"));
        }
        let layers = match hooks {
            Some(_) => vec![
                ("autotune.evals", evals as f64),
                (
                    "autotune.ns_per_eval",
                    tr.total("autotune.tune", tag) * 1e9 / evals as f64,
                ),
                ("probe.search_probes", probes as f64),
            ],
            None => Vec::new(),
        };
        Ok(Finished {
            bytes: tuned.to_json_string(),
            work: evals,
            layers,
        })
    }

    fn setup_layers(&self, _pf: &Portfolio, tr: &Tracer, tag: Tag) -> Vec<(&'static str, f64)> {
        vec![(
            "autotune.portfolio_load_s",
            tr.total("autotune.portfolio_load", tag),
        )]
    }

    fn pinned(&self) -> Option<String> {
        self.pinned.clone()
    }
}

/// `paper_sweep`: the training-engine experiments behind `repro all` at
/// the standard scale. No random input, so one digest pins every seed.
pub struct PaperSweep;

pub struct SweepOut {
    grid: Vec<experiments::GridCell>,
    fig9: Vec<(Benchmark, RunReport)>,
    fig15: Vec<(Benchmark, HostConfig, f64)>,
    fig16: Vec<experiments::Fig16Row>,
    table4: [(&'static str, P2pResult); 3],
}

/// Training runs per round: the grid, Fig 9, Fig 15 (baseline included)
/// and Fig 16.
fn sweep_runs(out: &SweepOut) -> u64 {
    let fig15 = Benchmark::all().len() * HostConfig::storage_configs().len();
    (out.grid.len() + out.fig9.len() + fig15 + out.fig16.len()) as u64
}

/// Table II as `experiments::table2_measured` gives it: label, parameter
/// count, derived and reported depth of each paper model.
type Table2 = Vec<(String, u64, u32, u32)>;

impl Workload for PaperSweep {
    type Input = Table2;
    type Output = SweepOut;

    /// Building the five paper models for Table II, the one `repro all`
    /// table that runs no training; its rows are part of the checked output.
    fn setup(&self, tr: &mut Tracer) -> Result<Table2, String> {
        Ok(tr.time("models", experiments::table2_measured))
    }

    fn round(
        &self,
        _: &Table2,
        tr: &mut Tracer,
        clock: &mut Clock,
        _hooks: Option<Arc<HookStats>>,
    ) -> Result<SweepOut, String> {
        // One step per experiment: a round is two seconds, long enough for
        // the host's speed to change within it.
        let scale = Scale::standard();
        Ok(SweepOut {
            grid: clock.step(|| tr.time("training.grid", || experiments::grid(scale))),
            fig9: clock.step(|| tr.time("training.fig9", || experiments::fig9(scale))),
            fig15: clock.step(|| tr.time("training.fig15", || experiments::fig15(scale))),
            fig16: clock.step(|| tr.time("training.fig16", || experiments::fig16(scale))),
            table4: clock.step(|| tr.time("fabric.p2p_probe", experiments::table4_measured)),
        })
    }

    fn finish(
        &self,
        table2: &Table2,
        out: SweepOut,
        tr: &mut Tracer,
        tag: Tag,
        hooks: Option<&HookStats>,
    ) -> Result<Finished, String> {
        let runs = sweep_runs(&out);
        let iters: u64 = out.grid.iter().map(|c| c.report.iterations).sum::<u64>()
            + out.fig9.iter().map(|(_, r)| r.iterations).sum::<u64>();
        let cell = |b: Benchmark, c: HostConfig| {
            vec![
                ("benchmark", Value::str(b.label())),
                ("config", Value::str(c.label())),
            ]
        };
        let doc = Value::obj(vec![
            (
                "table2",
                Value::Arr(
                    table2
                        .iter()
                        .map(|(label, params, derived, reported)| {
                            Value::obj(vec![
                                ("benchmark", Value::str(label.as_str())),
                                ("params", Value::from_u64(*params)),
                                ("derived_depth", Value::from_u64(u64::from(*derived))),
                                ("reported_depth", Value::from_u64(u64::from(*reported))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "grid",
                Value::Arr(
                    out.grid
                        .iter()
                        .map(|g| {
                            let mut v = cell(g.benchmark, g.config);
                            v.push(("report", g.report.to_json()));
                            Value::obj(v)
                        })
                        .collect(),
                ),
            ),
            (
                "fig9",
                Value::Arr(out.fig9.iter().map(|(_, r)| r.to_json()).collect()),
            ),
            (
                "fig15",
                Value::Arr(
                    out.fig15
                        .iter()
                        .map(|&(b, c, pct)| {
                            let mut v = cell(b, c);
                            v.push(("pct", Value::Num(pct)));
                            Value::obj(v)
                        })
                        .collect(),
                ),
            ),
            (
                "fig16",
                Value::Arr(
                    out.fig16
                        .iter()
                        .map(|r| {
                            Value::obj(vec![
                                ("config", Value::str(r.config.label())),
                                ("variant", Value::str(r.variant)),
                                ("per_gpu_batch", Value::from_u64(r.per_gpu_batch)),
                                ("throughput", Value::Num(r.throughput)),
                                ("mean_iter_secs", Value::Num(r.mean_iter_secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "table4",
                Value::Arr(
                    out.table4
                        .iter()
                        .map(|(pair, p)| {
                            Value::obj(vec![
                                ("pair", Value::str(*pair)),
                                ("latency", p.latency.to_json()),
                                ("unidir_bandwidth", Value::Num(p.unidir_bandwidth)),
                                ("bidir_bandwidth", Value::Num(p.bidir_bandwidth)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let layers = match hooks {
            Some(_) => {
                let t = |name| tr.total(name, tag);
                vec![
                    ("training.grid_s", t("training.grid")),
                    ("training.fig9_s", t("training.fig9")),
                    ("training.fig15_s", t("training.fig15")),
                    ("training.fig16_s", t("training.fig16")),
                    ("training.runs", runs as f64),
                    ("training.iters", iters as f64),
                    (
                        "training.ns_per_iter",
                        (t("training.grid") + t("training.fig9")) * 1e9 / iters as f64,
                    ),
                    ("fabric.p2p_probe_s", t("fabric.p2p_probe")),
                ]
            }
            None => Vec::new(),
        };
        Ok(Finished {
            bytes: doc.emit(),
            work: runs,
            layers,
        })
    }

    fn setup_layers(&self, _: &Table2, _tr: &Tracer, _tag: Tag) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    fn pinned(&self) -> Option<String> {
        Some(PAPER_SWEEP_DIGEST.to_string())
    }
}
