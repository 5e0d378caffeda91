//! Serving benches (testkit harness): replay the pinned 16-job + 8-service
//! PAI-style mix under the full serving-policy portfolio and check the
//! headline claim of the serving subsystem:
//!
//! * `slo-aware-pack` meets ≥ 0.95 pooled SLO attainment on a mix where
//!   `fifo-first-fit` does not, at equal-or-better training mean JCT;
//! * reports are byte-identical at `--jobs 1` vs `--jobs 4`;
//! * mixed-replay wall-clock and simulated request throughput.
//!
//! Results are also written to `BENCH_serve.json` at the workspace root —
//! the checked-in perf + quality baseline the README serving table cites.

use bench::{replay_fresh, scenario};
use desim::json::Value;
use scheduler::{ScheduleReport, TraceSpec};
use testkit::bench::{black_box, BenchOpts, Suite};

fn by_policy<'a>(reports: &'a [ScheduleReport], name: &str) -> &'a ScheduleReport {
    reports
        .iter()
        .find(|r| r.policy == name)
        .unwrap_or_else(|| panic!("policy {name} missing from portfolio"))
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = Suite::with_opts(
        "serve",
        BenchOpts {
            warmup_iters: 1,
            iters: 5,
        },
    );

    // The pinned 16-job + 8-service mix under all five policies.
    let portfolio = scenario("serve_policies.json");
    let TraceSpec::PaiMix { n_jobs, n_services, seed } = portfolio.trace else {
        panic!("serve_policies is a pai-mix study");
    };
    let replay_portfolio = |jobs| replay_fresh(&portfolio, jobs);
    // Byte-identity across worker counts is asserted once up front so a
    // regression fails loudly before any timing is reported.
    let serial: Vec<String> = replay_portfolio(1).iter().map(|r| r.to_json_string()).collect();
    let reports = replay_portfolio(4);
    let parallel: Vec<String> = reports.iter().map(|r| r.to_json_string()).collect();
    assert_eq!(serial, parallel, "jobs=4 mixed replay must be byte-identical to jobs=1");

    // The subsystem's headline claim, frozen as a bench assertion: on a
    // contended mix the SLO-aware policy holds attainment that the FIFO
    // baseline gives up, without paying for it in training completion.
    let pack = by_policy(&reports, "slo-aware-pack");
    let fifo = by_policy(&reports, "fifo-first-fit");
    let (pack_s, fifo_s) = (
        pack.serve.as_ref().expect("serve block"),
        fifo.serve.as_ref().expect("serve block"),
    );
    assert!(
        pack_s.attainment >= 0.95,
        "slo-aware-pack attainment {:.4} < 0.95",
        pack_s.attainment
    );
    assert!(
        fifo_s.attainment < 0.95,
        "fifo-first-fit attainment {:.4} should violate SLOs on the contended mix",
        fifo_s.attainment
    );
    assert!(
        pack.mean_jct <= fifo.mean_jct,
        "slo-aware-pack mean JCT {:?} must not exceed fifo's {:?}",
        pack.mean_jct,
        fifo.mean_jct
    );
    let requests: u64 = reports
        .iter()
        .map(|r| r.serve.as_ref().map_or(0, |m| m.generated))
        .sum();
    println!(
        "  -> attainment: slo-aware-pack {:.4} vs fifo-first-fit {:.4}; \
         mean JCT {:.1}s vs {:.1}s",
        pack_s.attainment,
        fifo_s.attainment,
        pack.mean_jct.as_secs_f64(),
        fifo.mean_jct.as_secs_f64()
    );

    let replay1 = s
        .bench("mixed_replay_16j8s_portfolio_jobs1", || {
            black_box(replay_portfolio(1).len())
        })
        .clone();
    let replay4 = s
        .bench("mixed_replay_16j8s_portfolio_jobs4", || {
            black_box(replay_portfolio(4).len())
        })
        .clone();
    let speedup = replay1.median_ns as f64 / replay4.median_ns as f64;
    let req_per_sec = requests as f64 / (replay4.median_ns as f64 / 1e9);
    println!("  -> mixed replay speedup jobs4/jobs1: {speedup:.2}x on {cores} core(s)");
    println!("  -> {req_per_sec:.0} simulated requests/sec across the portfolio (jobs=4)");

    let baseline = Value::obj(vec![
        ("suite", Value::str("serve")),
        ("host_parallelism", Value::from_u64(cores as u64)),
        ("mix", Value::str(format!("pai-mix-{n_jobs}j{n_services}s-{seed:#x}"))),
        ("requests_per_portfolio", Value::from_u64(requests)),
        ("slo_aware_pack_attainment", Value::Num((pack_s.attainment * 1e4).round() / 1e4)),
        ("fifo_first_fit_attainment", Value::Num((fifo_s.attainment * 1e4).round() / 1e4)),
        (
            "slo_aware_pack_mean_jct_s",
            Value::Num((pack.mean_jct.as_secs_f64() * 100.0).round() / 100.0),
        ),
        (
            "fifo_first_fit_mean_jct_s",
            Value::Num((fifo.mean_jct.as_secs_f64() * 100.0).round() / 100.0),
        ),
        ("mixed_replay_jobs1_median_ns", Value::from_u64(replay1.median_ns as u64)),
        ("mixed_replay_jobs4_median_ns", Value::from_u64(replay4.median_ns as u64)),
        ("mixed_replay_speedup", Value::Num((speedup * 100.0).round() / 100.0)),
        ("simulated_requests_per_sec", Value::Num(req_per_sec.round())),
        (
            "note",
            Value::str(
                "attainment/JCT figures are bench-asserted: slo-aware-pack holds >= 0.95 \
                 where fifo-first-fit does not, at equal-or-better training mean JCT; \
                 reports are byte-identical at any worker count",
            ),
        ),
    ])
    .emit_pretty();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, baseline + "\n").expect("write BENCH_serve.json");
    println!("baseline written to BENCH_serve.json");
}
