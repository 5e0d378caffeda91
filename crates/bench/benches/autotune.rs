//! Policy-search bench (testkit harness): the frozen tuned artifact in
//! `golden/tuned_default.json` regenerated from scratch and held to its
//! claims. Three things are **asserted** before any timing is reported:
//!
//! 1. **Reproducibility** — re-running `tune()` at the artifact's own
//!    provenance (seed, budget) over `scenarios/portfolio_default/`
//!    reproduces the frozen artifact byte-for-byte, and a small-budget
//!    tune is byte-identical at `--jobs 1` and `--jobs 4`.
//! 2. **Generalization** — on the held-out `pai_magnitude` objective
//!    (10k jobs + 60 services, 128 GPUs; never seen by the search), the
//!    tuned policy strictly beats every hand-written preset.
//! 3. **Provenance** — the artifact's portfolio hash matches the
//!    checked-in portfolio directory, so the frozen params can always be
//!    traced to the exact scenario bytes that produced them.
//!
//! Results land in `BENCH_autotune.json` at the workspace root: the
//! presets-vs-tuned objective table on both the training portfolio and
//! the held-out scenario, plus search wall-clock and fan-out speedup.

use autotune::{objective, tune, Portfolio, SearchSpec};
use bench::scenario;
use desim::json::{FromJson, Value};
use scheduler::{
    run_scenario_with_policy, ParamPolicy, PolicyParams, ProbeCache, Scenario, POLICY_NAMES,
};
use testkit::bench::{black_box, BenchOpts, Suite};

/// Held-out objective for one policy on `pai_magnitude`, normalized by
/// the fifo baseline's mean JCT exactly as the search oracle does.
fn pai_objective(sc: &Scenario, p: PolicyParams, base_jct: desim::Dur, cache: &mut ProbeCache) -> f64 {
    let policy = Box::new(ParamPolicy::new(p).expect("params validate"));
    let r = run_scenario_with_policy(sc, policy, cache).expect("pai_magnitude drains");
    objective(&r, base_jct)
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = Suite::with_opts("autotune", BenchOpts { warmup_iters: 1, iters: 3 });

    // The frozen artifact and the portfolio it claims to come from.
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/tuned_default.json");
    let golden = std::fs::read_to_string(golden_path).expect("golden/tuned_default.json is frozen");
    let art = Value::parse(&golden).expect("frozen artifact parses");
    let tuned_params = PolicyParams::from_json(art.get("params").expect("artifact has params"))
        .expect("frozen params parse");
    let prov = art.get("provenance").expect("artifact has provenance");
    let seed = prov.get("seed").and_then(Value::as_u64).expect("seed pinned");
    let budget = prov.get("budget").and_then(Value::as_u64).expect("budget pinned") as usize;
    let frozen_hash = prov.get("portfolio_hash").and_then(Value::as_str).expect("hash pinned");

    let pf_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/portfolio_default");
    let pf = Portfolio::load_dir(std::path::Path::new(pf_dir)).expect("default portfolio loads");
    assert_eq!(
        pf.hash_hex(),
        frozen_hash,
        "portfolio_default changed under the frozen artifact; re-run \
         `repro autotune scenarios/portfolio_default --budget {budget} --seed {seed}` \
         and refreeze golden/tuned_default.json"
    );

    // Reproducibility, asserted before any timing: the frozen bytes fall
    // out of a fresh search at the pinned provenance, and a small-budget
    // search cannot be perturbed by the worker count.
    let spec = SearchSpec { seed, budget };
    let mut cache = ProbeCache::new(pf.probe_iters());
    let regrown = tune(&pf, &spec, 4, &mut cache).expect("full-budget tune runs");
    assert_eq!(
        regrown.to_json_string(),
        golden,
        "tune() at the frozen provenance must reproduce golden/tuned_default.json \
         byte-for-byte"
    );
    println!("  -> frozen artifact reproduced (seed {seed}, budget {budget})");

    let small = SearchSpec { seed: 3, budget: 24 };
    let small_tune = |jobs: usize| {
        let mut cache = ProbeCache::new(pf.probe_iters());
        tune(&pf, &small, jobs, &mut cache).expect("small tune runs").to_json_string()
    };
    assert_eq!(
        small_tune(1),
        small_tune(4),
        "tune() must be byte-identical at --jobs 1 and --jobs 4"
    );
    println!("  -> --jobs 1 vs --jobs 4: byte-identical");

    // Generalization, the tentpole claim: on the held-out pai_magnitude
    // objective the tuned policy strictly beats every hand-written
    // preset. The search never saw this scenario — pf_pai in the
    // portfolio is a 2k-job cut at the same scale, not this trace.
    let sc = scenario("pai_magnitude.json");
    let mut pai_cache = ProbeCache::new(sc.config.probe_iters);
    let fifo = Box::new(ParamPolicy::preset("fifo-first-fit").expect("preset exists"));
    let base_jct =
        run_scenario_with_policy(&sc, fifo, &mut pai_cache).expect("fifo baseline drains").mean_jct;

    let mut preset_rows: Vec<(&str, f64)> = Vec::new();
    let mut best_preset = ("", f64::INFINITY);
    for name in POLICY_NAMES {
        let p = PolicyParams::preset(name).expect("preset exists");
        let o = pai_objective(&sc, p, base_jct, &mut pai_cache);
        println!("  -> pai_magnitude {name:16} objective {o:.6}");
        if o < best_preset.1 {
            best_preset = (name, o);
        }
        preset_rows.push((name, o));
    }
    let tuned_pai = pai_objective(&sc, tuned_params.clone(), base_jct, &mut pai_cache);
    println!(
        "  -> pai_magnitude tuned            objective {tuned_pai:.6} \
         (best preset {} at {:.6})",
        best_preset.0, best_preset.1
    );
    assert!(
        tuned_pai < best_preset.1,
        "tuned policy must strictly beat the best preset on the held-out \
         pai_magnitude objective: tuned {tuned_pai:.6} vs {} {:.6}",
        best_preset.0,
        best_preset.1
    );

    // Timings: the full-budget search, plus the fan-out speedup through
    // the shared suppression convention on 1-core hosts.
    let tune_at = |jobs: usize| {
        let mut cache = ProbeCache::new(pf.probe_iters());
        tune(&pf, &spec, jobs, &mut cache).expect("tune runs").objective
    };
    let t1 = s.bench("tune_full_budget_jobs1", || black_box(tune_at(1))).clone();
    let (jobs4_speedup, fanout_note) = if cores >= 2 {
        let t4 = s.bench("tune_full_budget_jobs4", || black_box(tune_at(4))).clone();
        let ratio = t1.median_ns as f64 / t4.median_ns as f64;
        println!("  -> tune --jobs 4: {ratio:.2}x vs --jobs 1");
        (
            testkit::bench::speedup_or_null(cores, ratio),
            format!("candidate evaluations fanned to 4 workers on a {cores}-way host"),
        )
    } else {
        (
            testkit::bench::speedup_or_null(cores, 1.0),
            testkit::bench::suppressed_speedup_note("jobs4_speedup"),
        )
    };

    let round4 = |x: f64| (x * 10_000.0).round() / 10_000.0;
    let mut fields: Vec<(String, Value)> = vec![
        ("suite".into(), Value::str("autotune")),
        ("host_parallelism".into(), Value::from_u64(cores as u64)),
        ("portfolio_scenarios".into(), Value::from_u64(pf.scenarios.len() as u64)),
        ("portfolio_hash".into(), Value::str(pf.hash_hex())),
        ("search_seed".into(), Value::from_u64(seed)),
        ("search_budget".into(), Value::from_u64(budget as u64)),
        ("search_evals".into(), Value::from_u64(regrown.evals as u64)),
        ("portfolio_tuned_objective".into(), Value::Num(round4(regrown.objective))),
        ("portfolio_best_preset".into(), Value::str(regrown.baseline_name.clone())),
        ("portfolio_best_preset_objective".into(), Value::Num(round4(regrown.baseline_objective))),
    ];
    for (name, o) in &preset_rows {
        fields.push((format!("pai_{}_objective", name.replace('-', "_")), Value::Num(round4(*o))));
    }
    fields.push(("pai_tuned_objective".into(), Value::Num(round4(tuned_pai))));
    fields.push((
        "pai_tuned_margin_vs_best_preset".into(),
        Value::Num(round4(best_preset.1 - tuned_pai)),
    ));
    fields.push(("tune_median_ns".into(), Value::from_u64(t1.median_ns as u64)));
    fields.push(("jobs4_speedup".into(), jobs4_speedup));
    fields.push(("fanout_note".into(), Value::str(fanout_note)));
    fields.push((
        "note".into(),
        Value::str(
            "seeded successive-halving + coordinate-descent over the policy lattice, \
             scored on scenarios/portfolio_default (4 scenarios); reproducing the \
             frozen golden byte-for-byte, --jobs 1 == --jobs 4 bytes, and the tuned \
             policy strictly beating every preset on the held-out pai_magnitude \
             objective are asserted, not just recorded",
        ),
    ));
    let fields: Vec<(&str, Value)> = fields.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    let baseline = Value::obj(fields).emit_pretty();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_autotune.json");
    std::fs::write(path, baseline + "\n").expect("write BENCH_autotune.json");
    println!("baseline written to BENCH_autotune.json");
}
