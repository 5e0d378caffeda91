//! Differential property tests for the replay engine's performance
//! paths (DESIGN §14). Each trades per-event work for amortized
//! bookkeeping, and each is required to be *semantically free*: the
//! canonical report bytes must not depend on it.
//!
//! Invariants covered (testkit, 64 cases each):
//! * `audit_every` — amortized conservation auditing (O(1) ledger check
//!   between full audits) yields byte-identical reports at cadence 1
//!   (the exhaustive legacy behavior) and cadence 7, and the ledger
//!   itself survives every full audit's cross-check en route;
//! * serving — a replay with serving epochs is worker-count independent:
//!   a 2–5 preset portfolio replayed at `--jobs 1` and `--jobs 4` (whole
//!   replays fanned across workers) produces identical bytes.
//!
//! Scenarios are PAI-mix based (training jobs + autoscaling services)
//! with seeded fault plans on 1–8 chassis under any of the five preset
//! policies, so every `compose`/`release` of the ledger — start, finish,
//! evacuation, re-placement, elastic shrink — is exercised, as are
//! drawer-spanning spill placements and 16-drawer racks.

use desim::Dur;
use scheduler::{run_scenario, FaultSpec, ProbeCache, Scenario, Topology, TraceSpec, POLICY_NAMES};
use testkit::{
    bools, property, prop_assert_eq, tuple2, tuple3, tuple5, u64_in, u8_in, usize_in, Gen,
};

/// Raw scenario shape: (seed, n_jobs, n_services, (chassis, policy),
/// faulty), the policy an index into [`POLICY_NAMES`].
type Shape = (u64, u8, u8, (u8, usize), bool);

fn shape() -> Gen<Shape> {
    tuple5(
        u64_in(0..1_000_000),
        u8_in(2..14),
        u8_in(0..5),
        tuple2(u8_in(1..9), usize_in(0..POLICY_NAMES.len())),
        bools(),
    )
}

/// A runnable PAI-mix scenario with enough going on to hit every ledger
/// transition: elastic training, services that scale, seeded faults.
fn build(seed: u64, n_jobs: u8, n_services: u8, rack: (u8, usize), faulty: bool) -> Scenario {
    let (chassis, policy) = rack;
    let mut sc = Scenario::new(
        format!("perf-knobs-{seed:#x}"),
        TraceSpec::PaiMix {
            n_jobs: usize::from(n_jobs),
            n_services: usize::from(n_services),
            seed,
        },
        vec![POLICY_NAMES[policy].into()],
    );
    sc.topology = Topology::with_chassis(chassis);
    sc.config.elastic = true;
    if faulty {
        let (mixed, _) = sc.materialize();
        let horizon = Scenario::horizon(&mixed);
        sc.faults = FaultSpec::Seeded {
            n_events: 1 + (seed % 3) as usize,
            horizon: Dur::from_nanos(horizon.as_nanos()),
            seed: seed ^ 0xFA17,
        };
    }
    sc.validate().expect("constructed scenarios are valid");
    sc
}

/// Canonical report bytes for a scenario at a worker count. Each run gets
/// a fresh probe cache so cache warm-up cannot leak between the two sides
/// of a differential.
fn bytes(sc: &Scenario, jobs: usize) -> String {
    let mut cache = ProbeCache::new(sc.config.probe_iters);
    run_scenario(sc, jobs, &mut cache)
        .unwrap_or_else(|e| panic!("{}: {e}", sc.name))
        .canonical_json_string()
}

property! {
    /// Amortized auditing is invisible: cadence 7 (ledger check between
    /// full audits) reproduces cadence 1 (full audit every event)
    /// byte-for-byte, and every full audit's ledger cross-check passes.
    #[cases(64)]
    fn amortized_audit_is_byte_invisible(s in shape()) {
        let (seed, n_jobs, n_services, rack, faulty) = s;
        let every = build(seed, n_jobs, n_services, rack, faulty);
        let mut amortized = every.clone();
        amortized.config.audit_every = 7;
        prop_assert_eq!(bytes(&every, 1), bytes(&amortized, 1), "audit cadence changed the report");
    }

    /// Serving is worker-count independent: a portfolio of 2–5 presets
    /// (consecutive from the drawn one) replays whole policies across 4
    /// workers, byte-identical to a serial pass.
    #[cases(64)]
    fn serving_is_worker_count_independent(
        s in shape(),
        extra in tuple3(u8_in(4..9), bools(), usize_in(2..POLICY_NAMES.len() + 1))
    ) {
        let (seed, n_jobs, _, rack, faulty) = s;
        let (n_services, big_audit, n_policies) = extra;
        let mut sc = build(seed, n_jobs, n_services, rack, faulty);
        sc.policies = (0..n_policies)
            .map(|k| POLICY_NAMES[(rack.1 + k) % POLICY_NAMES.len()].to_string())
            .collect();
        if big_audit {
            sc.config.audit_every = 64;
        }
        prop_assert_eq!(
            bytes(&sc, 1),
            bytes(&sc, 4),
            "serving depends on the worker count"
        );
    }
}
