//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p bench --bin repro             # everything
//! cargo run --release -p bench --bin repro -- fig11    # one experiment
//! cargo run --release -p bench --bin repro -- scaling  # strong-scaling table
//! cargo run --release -p bench --bin repro -- --quick  # fast smoke pass
//! cargo run --release -p bench --bin repro -- --jobs 4 # 4 sweep workers
//! cargo run --release -p bench --bin repro -- scenario scenarios/cluster_fifo.json
//! cargo run --release -p bench --bin repro -- scenario-matrix scenarios
//! ```
//!
//! Output pairs each measured quantity with the paper's published value
//! where one exists. Absolute times differ (the substrate is a simulator);
//! the shapes — who wins, by what factor, where the crossovers are — are
//! the reproduction targets.
//!
//! Cluster studies are scenario files replayed through
//! `scheduler::replay`: `scenario <file>` (`run_scenario`) prints one
//! canonical report, `scenario-matrix <dir|files>` (`run_matrix`) a
//! comparison table per scenario.
//! `cluster`, `faults` and `serve` are aliases for `scenario-matrix` over
//! `scenarios/{cluster,faults,serve}_policies.json`, embedded in the
//! binary so they run from any directory.
//!
//! `--jobs N` sets the parsweep worker count for every sweep (grids,
//! recommendation, policy replays); the default is available parallelism.
//! Thread count never changes a byte of output — only wall-clock (see
//! DESIGN §9). `scenario` and `scenario-matrix` share one persisted probe
//! cache, `$PROBE_CACHE` (default `target/probe_cache.json`): prices do
//! not depend on the rack shape, so a later run of either, on any
//! topology, reuses every placement priced before.

use bench::experiments::{self, Scale};
use bench::paper;
use composable_core::report::{gbps, pct, sparkline, table};
use composable_core::HostConfig;
use dlmodels::Benchmark;
use fabric::link::comms_requirements;
use scheduler::{
    comparison_table, recovery_comparison_table, run_matrix, run_scenario,
    serve_comparison_table, ProbeCache, Scenario, SchedulerConfig,
};
use std::path::{Path, PathBuf};

/// The per-feature studies: `repro <name>` is `scenario-matrix` over the
/// embedded scenario file.
const STUDIES: [(&str, &str); 3] = [
    ("cluster", include_str!("../../../../scenarios/cluster_policies.json")),
    ("faults", include_str!("../../../../scenarios/faults_policies.json")),
    ("serve", include_str!("../../../../scenarios/serve_policies.json")),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if let Some(n) = jobs_flag(&args) {
        parsweep::set_default_jobs(n);
    }
    let scale = if quick { Scale::quick() } else { Scale::standard() };
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| {
            ["--jobs", "--budget", "--seed"].iter().all(|f| !is_flag_value(&args, a, f))
        })
        .map(|s| s.as_str())
        .collect();

    // Declarative scenario runs: everything after the subcommand is a
    // scenario file (or, for the matrix, a directory / shell-expanded
    // glob of them). Handled before the experiment-name loop so file
    // paths are never mistaken for experiment names.
    match wanted.split_first() {
        Some((&"scenario", files)) => return scenario_cmd(files),
        Some((&"scenario-matrix", files)) => return scenario_matrix_cmd(files),
        Some((&"autotune", files)) => return autotune_cmd(files, &args),
        _ => {}
    }

    let want = |name: &str| wanted.is_empty() || wanted.contains(&name);

    if want("table1") {
        table1();
    }
    if want("table2") {
        table2();
    }
    if want("table3") {
        table3();
    }
    if want("table4") {
        table4();
    }
    if want("fig5") {
        fig5();
    }
    if want("fig9") {
        fig9(scale);
    }

    let grid_needed = ["fig10", "fig11", "fig12", "fig13", "fig14"]
        .iter()
        .any(|f| want(f));
    if grid_needed {
        eprintln!("[grid] running 5 benchmarks x 3 GPU configurations ...");
        let grid = experiments::grid(scale);
        if want("fig10") {
            fig10(&grid);
        }
        if want("fig11") {
            fig11(&grid);
        }
        if want("fig12") {
            fig12(&grid);
        }
        if want("fig13") {
            fig13(&grid);
        }
        if want("fig14") {
            fig14(&grid);
        }
    }

    if want("fig15") {
        fig15(scale);
    }
    if want("fig16") {
        fig16(scale);
    }
    if want("scaling") {
        scaling();
    }
    for (study, spec) in STUDIES {
        if want(study) {
            let sc = Scenario::from_json_str(spec)
                .unwrap_or_else(|e| die(format!("embedded {study} study: {e}")));
            scenario_matrix(vec![sc]);
        }
    }
}

/// The numeric value of `--flag N` / `--flag=N`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<u64> {
    let eq = format!("{flag}=");
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&eq) {
            return v.parse().ok();
        }
        if a == flag {
            return args.get(i + 1)?.parse().ok();
        }
    }
    None
}

/// Parse `--jobs N` / `--jobs=N`. Invalid or missing values are ignored
/// (the default — available parallelism — applies).
fn jobs_flag(args: &[String]) -> Option<usize> {
    flag_value(args, "--jobs").map(|n| n as usize).filter(|&n| n > 0)
}

/// Is `arg` the value of a space-separated `--flag N`? (It would otherwise
/// be mistaken for an experiment name.)
fn is_flag_value(args: &[String], arg: &str, flag: &str) -> bool {
    args.iter().zip(args.iter().skip(1)).any(|(a, b)| a == flag && b == arg)
}

fn heading(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn table1() {
    heading("TABLE I — Software stack details (environment record)");
    let rows: Vec<Vec<String>> = composable_core::config::software_stack()
        .into_iter()
        .map(|(k, v)| vec![k.to_string(), v.to_string()])
        .collect();
    println!("{}", table(&["component", "version"], &rows));
}

fn table2() {
    heading("TABLE II — Characteristics of the evaluated DL benchmarks");
    let rows: Vec<Vec<String>> = experiments::table2_measured()
        .into_iter()
        .zip(Benchmark::all())
        .map(|((label, params, derived, depth), b)| {
            let reference = paper::table2_params(b);
            vec![
                label,
                format!("{:.1}M", params as f64 / 1e6),
                format!("{:.1}M", reference.value),
                depth.to_string(),
                derived.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["benchmark", "params (measured)", "params (paper)", "depth (paper)", "weighted layers (derived)"],
            &rows
        )
    );
}

fn table3() {
    heading("TABLE III — Composable host configurations");
    let rows: Vec<Vec<String>> = HostConfig::all()
        .into_iter()
        .map(|c| vec![c.label().to_string(), c.description().to_string()])
        .collect();
    println!("{}", table(&["label", "host configuration"], &rows));
}

fn table4() {
    heading("TABLE IV — GPU-GPU bandwidth, latency, and protocol");
    let measured = experiments::table4_measured();
    let rows: Vec<Vec<String>> = measured
        .into_iter()
        .zip(paper::table4())
        .map(|((label, m), (_, bw, lat, proto))| {
            vec![
                label.to_string(),
                format!("{:.2}", m.bidir_bandwidth / 1e9),
                format!("{bw:.2}"),
                format!("{:.2}", m.latency.as_micros_f64()),
                format!("{lat:.2}"),
                proto.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["pair", "bidir GB/s (sim)", "bidir GB/s (paper)", "latency us (sim)", "latency us (paper)", "protocol"],
            &rows
        )
    );
}

fn fig5() {
    heading("FIG 5 — Communications requirements (survey table)");
    let rows: Vec<Vec<String>> = comms_requirements()
        .into_iter()
        .map(|r| {
            vec![
                r.path.to_string(),
                format!("{} - {}", r.latency_low, r.latency_high),
                format!("{} - {} Gbps", r.bandwidth_low_gbps, r.bandwidth_high_gbps),
                r.link_length.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["communication", "latency", "bandwidth", "link length"], &rows)
    );
}

fn fig9(scale: Scale) {
    heading("FIG 9 — GPU utilization patterns over training (localGPUs)");
    println!("(dips = epoch-boundary checkpointing / pipeline restart)\n");
    for (b, r) in experiments::fig9(scale) {
        println!(
            "{:12} {}  mean={:.0}%",
            b.label(),
            sparkline(&r.gpu_util_trace),
            r.gpu_util * 100.0
        );
    }
}

fn fig10(grid: &[experiments::GridCell]) {
    heading("FIG 10 — GPU performance across composable configurations");
    let rows: Vec<Vec<String>> = experiments::fig10(grid)
        .into_iter()
        .map(|(b, c, util, mem, access)| {
            vec![
                b.label().to_string(),
                c.label().to_string(),
                format!("{:.0}%", util * 100.0),
                format!("{:.0}%", mem * 100.0),
                format!("{:.0}%", access * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["benchmark", "config", "GPU util", "GPU mem occupancy", "mem-access time share"],
            &rows
        )
    );
    println!("paper: utilization slightly higher on Falcon configs; all > 80% in full runs;");
    println!("       memory-access share lower on Falcon configs (exposed NCCL kernel time).");
}

fn fig11(grid: &[experiments::GridCell]) {
    heading("FIG 11 — % change of training time vs localGPUs");
    let rows: Vec<Vec<String>> = experiments::fig11(grid)
        .into_iter()
        .map(|(b, c, p)| {
            let (claim, _, _) = paper::fig11_bound(b);
            vec![
                b.label().to_string(),
                c.label().to_string(),
                pct(p),
                claim.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["benchmark", "config", "Δ time (sim)", "paper claim"], &rows)
    );
}

fn fig12(grid: &[experiments::GridCell]) {
    heading("FIG 12 — PCIe transfer rate of falcon-attached GPUs");
    let rows: Vec<Vec<String>> = experiments::fig12(grid)
        .into_iter()
        .map(|(b, c, rate)| {
            let reference = paper::fig12_traffic(b)
                .map_or("-".to_string(), |v| format!("{v:.2} GB/s (falconGPUs)"));
            vec![
                b.label().to_string(),
                c.label().to_string(),
                gbps(rate),
                reference,
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["benchmark", "config", "traffic (sim)", "paper"], &rows)
    );
}

fn fig13(grid: &[experiments::GridCell]) {
    heading("FIG 13 — CPU utilization");
    let rows: Vec<Vec<String>> = experiments::fig13(grid)
        .into_iter()
        .map(|(b, c, u)| {
            vec![
                b.label().to_string(),
                c.label().to_string(),
                format!("{:.0}%", u * 100.0),
            ]
        })
        .collect();
    println!("{}", table(&["benchmark", "config", "CPU util"], &rows));
    println!("paper: vision > NLP (CPU-side preprocessing); no benchmark is CPU-bound.");
}

fn fig14(grid: &[experiments::GridCell]) {
    heading("FIG 14 — System memory utilization");
    let rows: Vec<Vec<String>> = experiments::fig14(grid)
        .into_iter()
        .map(|(b, c, u)| {
            vec![
                b.label().to_string(),
                c.label().to_string(),
                format!("{:.1}%", u * 100.0),
            ]
        })
        .collect();
    println!("{}", table(&["benchmark", "config", "host mem util"], &rows));
    println!("paper: system memory is not stressed by any benchmark.");
}

fn fig15(scale: Scale) {
    heading("FIG 15 — % change of training time vs localGPUs (storage study)");
    let rows: Vec<Vec<String>> = experiments::fig15(scale)
        .into_iter()
        .map(|(b, c, p)| {
            vec![b.label().to_string(), c.label().to_string(), pct(p)]
        })
        .collect();
    println!("{}", table(&["benchmark", "config", "Δ time (sim)"], &rows));
    println!("paper: NVMe accelerates the data-heavy benchmarks (Yolo, BERT);");
    println!("       falcon-attached NVMe ≈ local NVMe (small switching overhead).");
}

fn fig16(scale: Scale) {
    heading("FIG 16 — Software-level optimizations, BERT-large fine-tuning");
    let rows = experiments::fig16(scale);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.label().to_string(),
                r.variant.to_string(),
                r.per_gpu_batch.to_string(),
                format!("{:.1}", r.throughput),
                format!("{:.1} ms", r.mean_iter_secs * 1e3),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["config", "variant", "batch/GPU", "samples/s", "iter"],
            &printable
        )
    );
    // Paper claims, restated with measured numbers.
    let thr = |cfg: HostConfig, v: &str| {
        rows.iter()
            .find(|r| r.config == cfg && r.variant == v)
            .unwrap()
            .throughput
    };
    for cfg in HostConfig::gpu_configs() {
        let amp = 1.0 - thr(cfg, "DDP fp32") / thr(cfg, "DDP fp16");
        let ddp = (thr(cfg, "DDP fp32") / thr(cfg, "DP fp32") - 1.0) * 100.0;
        let shard = (thr(cfg, "DDP fp16 sharded") / thr(cfg, "DDP fp16") - 1.0) * 100.0;
        println!(
            "{:10}  fp16 time reduction {:.0}% (paper: >50%, >70% falcon) | DDP over DP {:+.0}% (paper: >80% local) | sharded {:+.0}%",
            cfg.label(),
            amp * 100.0,
            ddp,
            shard
        );
    }
}

fn scaling() {
    heading("SCALING — probe-derived strong scaling on the composable rack");
    println!("(speedup over 1 GPU; 32 GPUs span two chassis and pay the rack-tier stretch)\n");
    let rows: Vec<Vec<String>> = experiments::strong_scaling()
        .into_iter()
        .map(|r| {
            let mut row = vec![r.benchmark.label().to_string()];
            row.extend(r.speedups.iter().map(|s| format!("{s:.2}x")));
            row.push(format!("{:.0}%", r.efficiency_32() * 100.0));
            row
        })
        .collect();
    let gpus: Vec<String> = experiments::SCALING_GPUS
        .iter()
        .map(|&n| format!("{n} GPU{}", if n == 1 { "" } else { "s" }))
        .collect();
    let mut header: Vec<&str> = vec!["benchmark"];
    header.extend(gpus.iter().map(String::as_str));
    header.push("efficiency @32");
    println!("{}", table(&header, &rows));
}

/// Run `replay` on the persisted probe cache, `$PROBE_CACHE` (default
/// `target/probe_cache.json`), then save the grown cache back. `replay`
/// returns its result and a stderr headline, to which the cache's
/// loaded, probed and saved counts are appended.
fn on_persisted_cache<T>(
    probe_iters: u64,
    replay: impl FnOnce(&mut ProbeCache) -> (T, String),
) -> T {
    let path = std::env::var_os("PROBE_CACHE")
        .map_or_else(|| PathBuf::from("target/probe_cache.json"), PathBuf::from);
    let mut cache = ProbeCache::load_file(&path, probe_iters);
    let loaded = cache.len();
    let (out, headline) = replay(&mut cache);
    eprintln!(
        "{headline}; probe cache {}: {loaded} entries loaded, {} probes run, {} saved",
        path.display(),
        cache.probes_run(),
        cache.len()
    );
    if let Err(e) = cache.save_file(&path) {
        eprintln!("[repro] probe cache not saved ({e}); runs stay correct without it");
    }
    out
}

fn die(msg: String) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2)
}

fn load_scenario(path: &Path) -> Scenario {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(format!("cannot read {}: {e}", path.display())));
    Scenario::from_json_str(&text)
        .unwrap_or_else(|e| die(format!("cannot parse {}: {e}", path.display())))
}

/// Expand each argument: a directory yields its `*.json` files in
/// lexicographic order (so matrix output order never depends on readdir
/// order); anything else is taken as one scenario file. Shell glob
/// expansion arrives here as multiple file arguments.
fn collect_scenario_files(args: &[&str]) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for a in args {
        let p = PathBuf::from(a);
        if p.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(&p)
                .unwrap_or_else(|e| die(format!("cannot read {}: {e}", p.display())))
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|e| e.extension().is_some_and(|x| x == "json"))
                .collect();
            entries.sort();
            files.extend(entries);
        } else {
            files.push(p);
        }
    }
    files
}

/// `repro scenario <file>`: run one declarative scenario and emit its
/// canonical report JSON on stdout (a one-policy, full-metrics scenario
/// emits the bare `ScheduleReport`, the form the pinned goldens hold).
/// Progress and probe-cache stats go to
/// stderr so stdout stays exactly the canonical bytes.
fn scenario_cmd(files: &[&str]) {
    let [file] = files else {
        die(format!("scenario takes exactly one file, got {}", files.len()));
    };
    let path = PathBuf::from(file);
    let sc = load_scenario(&path);
    let report = on_persisted_cache(sc.config.probe_iters, |cache| {
        let report = run_scenario(&sc, parsweep::default_jobs(), cache)
            .unwrap_or_else(|e| die(format!("{}: {e}", path.display())));
        let headline = format!("[scenario {}] {} policies replayed", sc.name, report.reports.len());
        (report, headline)
    });
    print!("{}", report.canonical_json_string());
}

/// `repro autotune <portfolio-dir> [--budget N] [--seed N] [--jobs N]`:
/// search the policy-knob space against the portfolio and print the
/// winning `TunedPolicy` artifact to stdout. The search (artifact bytes
/// included) is byte-identical at any `--jobs`; progress goes to stderr.
fn autotune_cmd(files: &[&str], args: &[String]) {
    let [dir] = files else {
        die(format!("autotune takes exactly one portfolio directory, got {}", files.len()));
    };
    let pf = autotune::Portfolio::load_dir(Path::new(dir)).unwrap_or_else(|e| die(e.to_string()));
    let default = autotune::SearchSpec::default();
    let spec = autotune::SearchSpec {
        seed: flag_value(args, "--seed").unwrap_or(default.seed),
        budget: flag_value(args, "--budget").map_or(default.budget, |n| n as usize),
    };
    // A fresh cache per search: probe prices are pure, so warm state
    // never changes an answer.
    let mut cache = ProbeCache::new(pf.probe_iters());
    let tuned = autotune::tune(&pf, &spec, parsweep::default_jobs(), &mut cache)
        .unwrap_or_else(|e| die(e.to_string()));
    eprintln!(
        "[autotune {dir}] {} scenarios, budget {} (seed {}): {} evaluations, tuned objective \
         {:.4} vs best preset {} at {:.4}",
        pf.scenarios().len(),
        spec.budget,
        spec.seed,
        tuned.evals,
        tuned.objective,
        tuned.baseline_name,
        tuned.baseline_objective
    );
    print!("{}", tuned.to_json_string());
}

/// `repro scenario-matrix <dir|files...>`: run every scenario through one
/// parsweep fan-out and print a comparison table per scenario.
fn scenario_matrix_cmd(files: &[&str]) {
    let paths = collect_scenario_files(files);
    if paths.is_empty() {
        die("scenario-matrix needs at least one scenario file or directory".into());
    }
    scenario_matrix(paths.iter().map(|p| load_scenario(p)).collect());
}

/// Replay `scenarios` as one matrix and print each one's comparison
/// table: the serving table when its reports carry a `serve` block, the
/// recovery table when they carry a `recovery` block, the training table
/// otherwise. Stdout is a pure function of the reports, so it is
/// byte-identical at any `--jobs` count — the property
/// `tests/parallel_determinism.rs` pins.
fn scenario_matrix(scenarios: Vec<Scenario>) {
    let reports = on_persisted_cache(SchedulerConfig::default().probe_iters, |cache| {
        let reports = run_matrix(&scenarios, parsweep::default_jobs(), cache)
            .unwrap_or_else(|e| die(e.to_string()));
        let headline = format!("[scenario-matrix] {} scenarios replayed", reports.len());
        (reports, headline)
    });
    for rep in &reports {
        println!(
            "== scenario {} ({} {}) ==",
            rep.scenario,
            rep.reports.len(),
            if rep.reports.len() == 1 { "policy" } else { "policies" }
        );
        let table = if rep.reports.iter().any(|r| r.serve.is_some()) {
            serve_comparison_table(&rep.reports)
        } else if rep.reports.iter().any(|r| r.recovery.is_some()) {
            recovery_comparison_table(&rep.reports)
        } else {
            comparison_table(&rep.reports)
        };
        println!("{table}");
    }
}
