//! Cluster-scheduler benches (testkit harness): timing for a full trace
//! replay, plus directional assertions that make `cargo bench` document
//! *why* the smarter policies exist — on the seeded two-tenant trace, a
//! placement policy that respects the chassis topology must beat naive
//! FIFO first-fit on mean job-completion time.

use bench::{replay_fresh, scenario};
use scheduler::ScheduleReport;
use testkit::bench::{black_box, BenchOpts, Suite};

fn by_policy<'a>(reports: &'a [ScheduleReport], name: &str) -> &'a ScheduleReport {
    reports.iter().find(|r| r.policy == name).expect("policy ran")
}

fn main() {
    let mut s = Suite::with_opts(
        "cluster",
        BenchOpts {
            warmup_iters: 1,
            iters: 5,
        },
    );
    // The seeded 20-job two-tenant trace under the four training
    // policies, fault-free and under the pinned 3-event fault plan.
    let policies = scenario("cluster_policies.json");
    let faults = scenario("faults_policies.json");
    let replay_all = || replay_fresh(&policies, parsweep::default_jobs());

    s.bench("cluster_replay_20_jobs_4_policies", || {
        let reports = replay_all();
        assert_eq!(reports.len(), 4);
        black_box(reports)
    });

    s.bench("cluster_policy_beats_fifo_on_mean_jct", || {
        let reports = replay_all();
        let jct = |name: &str| by_policy(&reports, name).mean_jct.as_secs_f64();
        let fifo = jct("fifo-first-fit");
        let smart = jct("frag-aware").min(jct("topology-aware"));
        assert!(
            smart < fifo,
            "topology-respecting placement must beat FIFO first-fit: smart {smart:.2}s vs fifo {fifo:.2}s"
        );
        black_box((fifo, smart))
    });

    s.bench("cluster_topology_packing_recovers_faster_from_faults", || {
        let reports = replay_fresh(&faults, 4);
        let recovery = |name: &str| {
            by_policy(&reports, name)
                .recovery
                .as_ref()
                .expect("faulty replay carries recovery metrics")
                .mean_recovery
                .as_secs_f64()
        };
        let fifo = recovery("fifo-first-fit");
        let smart = recovery("frag-aware").min(recovery("topology-aware"));
        // First-fit's drawer-spanning gangs straddle the struck drawer, so
        // it loses more jobs to the outage and queues longer to re-place
        // them; single-drawer packers contain the blast radius.
        assert!(
            smart < fifo,
            "topology-respecting packing must recover faster: smart {smart:.2}s vs fifo {fifo:.2}s"
        );
        black_box((fifo, smart))
    });

    s.bench("cluster_fragmentation_visible_under_first_fit", || {
        let reports = replay_all();
        let share = |name: &str| by_policy(&reports, name).frag_share;
        // FIFO first-fit splits jobs across drawers; frag-aware never does.
        assert_eq!(share("frag-aware"), 0.0, "frag-aware must never split");
        assert!(
            share("fifo-first-fit") > 0.0,
            "the seeded trace must fragment under first-fit or the comparison is vacuous"
        );
        black_box(())
    });
}
