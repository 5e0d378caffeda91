//! `perfbench` — host-time benchmark of the composable-sim workspace.
//!
//! ```text
//! perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//!     Run one workload in this process. The last stdout line is the
//!     result: {"correct", "attempted", "failed", "metrics"} with every
//!     end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
//! perfbench [--runs N] [--seconds S] [--trace 0|1] [--out FILE]
//!     Run every workload N times (seeds default, default+1, ...), each
//!     in its own child process, one after another; print a table and
//!     optionally write the results file `compare` reads.
//! perfbench compare PARENT CHANGE
//!     Apply the regression rule to two results files; exit 1 on a
//!     regression.
//! perfbench --list
//!     Print the declared workloads and metrics as JSON.
//! ```
//!
//! Every number is host time (the simulator's wall clock), scaled to a
//! quiet reference host's speed (`reference.rs`). Simulated statistics
//! are not metrics: they are the correctness check, and every round must
//! reproduce them byte for byte.

mod compare;
mod measure;
mod metrics;
mod reference;
mod trace;
mod workloads;

use desim::json::Value;
use metrics::{DEFAULT_SECONDS, END_TO_END, LAYERS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{default_seed, Autotune, PaperSweep, Replay};

/// The repository this benchmark measures: the parent of its package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package sits inside the repo")
        .to_path_buf()
}

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    runs: u32,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: None,
        seconds: DEFAULT_SECONDS as f64,
        trace: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => a.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => a.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|d| d.name == w) {
            return Err(format!("unknown workload \"{w}\""));
        }
    }
    Ok(a)
}

fn list() -> Value {
    let strs = |v: &[&str]| Value::Arr(v.iter().map(|s| Value::str(*s)).collect());
    Value::obj(vec![
        ("run_seconds", Value::from_u64(DEFAULT_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj(vec![
                            ("name", Value::str(w.name)),
                            ("why", Value::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                LAYERS
                    .iter()
                    .map(|l| {
                        Value::obj(vec![
                            ("name", Value::str(l.name)),
                            ("unit", Value::str(l.unit)),
                            ("better", Value::str(l.better.as_str())),
                            ("moves", strs(l.moves)),
                            ("on", strs(l.on)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Run one workload here and print its result line.
fn run_one(
    root: &Path,
    workload: &str,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
) -> Result<(), String> {
    // One process, one thread: every sweep inside the product runs inline.
    parsweep::set_default_jobs(1);
    let seed = match seed {
        Some(s) => s,
        None => default_seed(root, workload)?,
    };
    let outcome = match workload {
        "pai_mixed" => measure::run(&Replay::pai_mixed(root, seed)?, seconds, trace),
        "rack_faults" => measure::run(&Replay::rack_faults(root, seed)?, seconds, trace),
        "autotune_search" => measure::run(&Autotune::new(root, seed)?, seconds, trace),
        "paper_sweep" => measure::run(&PaperSweep, seconds, trace),
        other => return Err(format!("unknown workload \"{other}\"")),
    }?;
    for (name, value, unit) in &outcome.metrics {
        eprintln!("{workload} {name} = {value} {unit}");
    }
    let metrics: Vec<(&str, Value)> = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name,
                Value::obj(vec![
                    ("value", Value::Num(value)),
                    ("unit", Value::str(unit)),
                ]),
            )
        })
        .collect();
    if trace {
        eprint!("{}", outcome.tracer.table());
        let dir = root.join("target").join("perfbench");
        let path = dir.join(format!("trace-{workload}.json"));
        let doc = Value::obj(vec![
            ("workload", Value::str(workload)),
            ("seed", Value::from_u64(seed)),
            ("spans", outcome.tracer.to_json()),
            (
                "hooks",
                Value::Arr(outcome.hooks.iter().map(|(n, h)| h.to_json(*n)).collect()),
            ),
            ("metrics", Value::obj(metrics.clone())),
        ]);
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, doc.emit_pretty()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: trace written to {}", path.display());
    }
    let result = Value::obj(vec![
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::from_u64(outcome.attempted)),
        ("failed", Value::from_u64(outcome.failed)),
        ("metrics", Value::obj(metrics)),
    ]);
    println!("{}", result.emit());
    Ok(())
}

/// Run every workload `args.runs` times, each in a child process, and
/// report. `Ok(false)` when a run failed or lost rounds.
fn run_all(root: &Path, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    let mut clean = true;
    let names: Vec<&str> = if args.trace {
        LAYERS.iter().map(|l| l.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    for r in 0..args.runs {
        for w in WORKLOADS.iter().map(|w| w.name) {
            let seed = default_seed(root, w)? + u64::from(r);
            let output = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("{w}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let result = match (output.status.success(), Value::parse(last)) {
                (true, Ok(v)) => v,
                _ => {
                    // Recorded without a result, so `compare` counts it.
                    eprintln!("perfbench: {w} (seed {seed}) failed: {}", output.status);
                    clean = false;
                    records.push(Value::obj(vec![
                        ("workload", Value::str(w)),
                        ("seed", Value::from_u64(seed)),
                        ("trace", Value::Bool(args.trace)),
                        ("error", Value::str(output.status.to_string())),
                    ]));
                    continue;
                }
            };
            let get = |k: &str| {
                result
                    .get(k)
                    .and_then(Value::as_u64)
                    .map_err(|e| e.to_string())
            };
            let (failed, attempted) = (get("failed")?, get("attempted")?);
            clean &= failed == 0;
            println!(
                "{w} seed {seed}: failed_ratio = {} ({failed}/{attempted} rounds)",
                failed as f64 / attempted as f64
            );
            for name in &names {
                let m = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .map_err(|e| format!("{w}: {e}"))?;
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .map_err(|e| e.to_string())?;
                let unit = m
                    .get("unit")
                    .and_then(Value::as_str)
                    .map_err(|e| e.to_string())?;
                println!("  {name:<26} {value:>16.6} {unit}");
            }
            records.push(Value::obj(vec![
                ("workload", Value::str(w)),
                ("seed", Value::from_u64(seed)),
                ("trace", Value::Bool(args.trace)),
                ("result", result),
            ]));
        }
    }
    if let Some(out) = &args.out {
        let doc = Value::obj(vec![("runs", Value::Arr(records))]);
        std::fs::write(out, doc.emit_pretty()).map_err(|e| format!("{out}: {e}"))?;
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = repo_root();
    let outcome = match args.first().map(String::as_str) {
        Some("--list") => {
            println!("{}", list().emit_pretty());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [parent, change] => compare::run(parent, change).map(|regressed| !regressed),
            _ => Err("usage: perfbench compare PARENT CHANGE".into()),
        },
        _ => parse_args(&args).and_then(|a| match &a.workload {
            Some(w) => run_one(&root, w, a.seed, a.seconds, a.trace).map(|()| true),
            None => run_all(&root, &a),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
