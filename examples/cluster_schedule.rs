//! Cluster scheduling on the composable test bed: two tenants share the
//! 16 pooled V100s of one Falcon 4016 (2 drawers x 8 slots, advanced
//! mode), and a trace of training jobs is replayed under four placement
//! policies as one in-code scenario. Every placement is an MCS-audited
//! grant/attach; completions detach; big elastic jobs shrink 8→4 GPUs
//! under pressure.
//!
//! ```text
//! cargo run --release --example cluster_schedule
//! ```

use scheduler::{
    comparison_table, run_scenario, trace, ProbeCache, Scenario, Trace, TraceSpec, POLICY_NAMES,
};

fn main() {
    // A seeded trace is a pure function of (n_jobs, seed): Poisson
    // arrivals, heavy-tailed GPU demand and job length over the paper's
    // five benchmarks, two tenants interleaved.
    let t = trace::seeded_two_tenant(20, 0xC10D);
    println!("trace {}: {} jobs from {} tenants", t.name, t.jobs.len(), t.n_tenants());
    println!("first arrivals:");
    for j in t.jobs.iter().take(5) {
        println!(
            "  [{:>7}] job{:<2} {} {:12} {}x GPU, {} iters{}",
            j.arrival,
            j.id,
            j.tenant,
            j.benchmark.label(),
            j.gpus,
            j.iters,
            if j.shrinkable() { " (elastic)" } else { "" },
        );
    }

    // Traces round-trip through JSON, so real workload logs can be
    // imported the same way.
    let back = Trace::from_json_str(&t.to_json_string()).unwrap();
    assert_eq!(back, t);

    // The scenario: the trace inline, every training policy, the default
    // bed and scheduler knobs. One replay per policy, in policy order.
    let jobs = TraceSpec::Jobs { name: t.name.clone(), jobs: t.jobs.clone() };
    let policies = POLICY_NAMES[..4].iter().map(|p| p.to_string()).collect();
    let sc = Scenario::new("cluster_schedule", jobs, policies);
    let mut cache = ProbeCache::new(sc.config.probe_iters);
    let reports = run_scenario(&sc, parsweep::default_jobs(), &mut cache).unwrap().reports;

    // One policy in detail: per-job lifecycle under frag-aware placement
    // (keeps every job inside a single drawer — zero cross-drawer splits).
    let report = reports.iter().find(|r| r.policy == "frag-aware").unwrap();
    println!("\nfrag-aware replay, per-job outcomes:");
    for o in &report.jobs {
        println!(
            "  job{:<2} {} {:12} {}->{} GPUs  queued {:>8}  ran {:>8}{}{}",
            o.id,
            o.tenant,
            o.benchmark,
            o.gpus,
            o.final_gpus,
            o.queue_delay(),
            o.jct(),
            if o.spanned { "  [split]" } else { "" },
            if o.shrunk { "  [shrunk]" } else { "" },
        );
    }
    println!(
        "\nmakespan {}  GPU util {:.0}%  fairness {:.3}  audit entries {}",
        report.makespan,
        report.gpu_util * 100.0,
        report.fairness,
        report.audit_entries
    );

    // All four policies on the same trace: the comparison the paper's
    // composability story motivates — topology-respecting placement wins.
    println!("\n{}", comparison_table(&reports));
}
