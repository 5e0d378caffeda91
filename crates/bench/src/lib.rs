//! `bench` — the reproduction harness.
//!
//! One module per table/figure of the paper's evaluation section. Each
//! returns structured rows carrying *paper value* and *measured value*
//! side by side, so the `repro` binary, the golden tests, the `perfbench`
//! workloads, and EXPERIMENTS.md all consume the same code.
//!
//! Scale note: experiments run with capped iterations per epoch
//! ([`Scale`]); the paper's relative quantities (ratios, percent changes,
//! traffic rates, utilizations) are steady-state properties that the cap
//! does not disturb.

pub mod experiments;
pub mod paper;

pub use experiments::{Scale, fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig9, grid};
pub use paper::PaperRef;

use scheduler::{run_scenario, ProbeCache, Scenario, ScheduleReport};

/// Load and validate the checked-in `scenarios/<file>` for a test.
/// Panics naming the file when it cannot be read, parsed, or validated.
pub fn scenario(file: &str) -> Scenario {
    let path = format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let sc = Scenario::from_json_str(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
    sc.validate().unwrap_or_else(|e| panic!("{path} does not validate: {e}"));
    sc
}

/// Replay `sc` at `jobs` workers on a fresh probe cache, returning one
/// report per policy. Panics naming the scenario when the replay fails.
pub fn replay_fresh(sc: &Scenario, jobs: usize) -> Vec<ScheduleReport> {
    let mut cache = ProbeCache::new(sc.config.probe_iters);
    run_scenario(sc, jobs, &mut cache).unwrap_or_else(|e| panic!("{}: {e}", sc.name)).reports
}
