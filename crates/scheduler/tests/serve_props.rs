//! Property tests on the serving subsystem (testkit):
//!
//! * seeded request streams are pure functions of the spec — determinism,
//!   window containment, monotone ordering, rate sanity;
//! * batch latency is monotone in batch size and dilation, and a bigger
//!   slice is never slower;
//! * mixed traces survive JSON export/import bit-exactly;
//! * small mixed replays conserve requests (generated = completed +
//!   dropped), keep attainment in [0, 1], order percentiles (p99 ≥ p50),
//!   and replay byte-identically under every serving policy.

use desim::{Dur, SimTime};
use dlmodels::{Benchmark, InferenceProfile};
use scheduler::serve::{
    batch_latency, request_times, seeded_pai_mix, ArrivalKind, MixedTrace, ServiceSpec,
};
use scheduler::trace::TenantId;
use scheduler::{run_scenario, ProbeCache, Scenario, TraceSpec, POLICY_NAMES};
use testkit::{prop_assert, prop_assert_eq, property, tuple2, tuple4, u32_in, u64_in, u8_in};

/// Build one arbitrary (but always admissible) service from raw integers.
fn build_service(id: u64, tenant: u8, bench: u8, slice_ix: u8, rate_x10: u32) -> ServiceSpec {
    let slice = [1u8, 2, 4, 7][usize::from(slice_ix) % 4];
    ServiceSpec {
        id,
        tenant: TenantId(u32::from(tenant % 2)),
        benchmark: Benchmark::all()[usize::from(bench) % 5],
        slice,
        slo: Dur::from_millis(200 + 100 * u64::from(slice)),
        rate_rps: f64::from(rate_x10.max(1)) / 10.0,
        arrivals: if id % 2 == 0 { ArrivalKind::Poisson } else { ArrivalKind::Diurnal },
        start: SimTime::from_millis(u64::from(rate_x10 % 5_000)),
        duration: Dur::from_millis(3_000 + u64::from(rate_x10 % 7_000)),
        max_batch: 4,
        max_wait: Dur::from_millis(20),
        min_replicas: 1,
        max_replicas: 2,
    }
}

property! {
    /// The arrival stream is a pure function of the spec: equal specs give
    /// equal streams, every timestamp lies in [start, end), the stream is
    /// sorted, and the realized count is loosely Poisson-plausible.
    #[cases(64)]
    fn request_streams_are_pure_and_contained(
        input in tuple4(u64_in(0..1_000_000), u8_in(0..5), u8_in(0..4), u32_in(10..400))
    ) {
        let (id, bench, slice_ix, rate_x10) = input;
        let spec = build_service(id, (id % 2) as u8, bench, slice_ix, rate_x10);
        let a = request_times(&spec).unwrap();
        let b = request_times(&spec).unwrap();
        prop_assert_eq!(&a, &b);
        for w in a.windows(2) {
            prop_assert!(w[0] <= w[1], "stream must be sorted");
        }
        for &t in &a {
            prop_assert!(t >= spec.start && t < spec.end(), "arrival outside the window");
        }
        // Mean count is rate x duration; allow a generous 6-sigma band
        // (diurnal thinning preserves the mean rate by construction).
        let mean = spec.rate_rps * spec.duration.as_secs_f64();
        let slack = 6.0 * mean.sqrt() + 6.0;
        prop_assert!(
            (a.len() as f64 - mean).abs() <= slack,
            "count {} implausible for mean {mean:.1}",
            a.len()
        );
    }

    /// Batch latency is monotone: more samples, more dilation, or a
    /// smaller slice can never make a batch faster.
    #[cases(64)]
    fn batch_latency_is_monotone(
        input in tuple4(u8_in(0..5), u8_in(0..3), u32_in(1..16), u32_in(10..30))
    ) {
        let (bench, slice_ix, batch, dil_x10) = input;
        let gpu = devices::gpu::GpuSpec::v100_pcie_16gb();
        let profile = InferenceProfile::for_benchmark(Benchmark::all()[usize::from(bench)]);
        let slices = [1u8, 2, 4];
        let slice = slices[usize::from(slice_ix)];
        let dil = f64::from(dil_x10) / 10.0;
        let base = batch_latency(&profile, &gpu, slice, batch, dil);
        prop_assert!(batch_latency(&profile, &gpu, slice, batch + 1, dil) >= base);
        prop_assert!(batch_latency(&profile, &gpu, slice, batch, dil + 0.1) >= base);
        prop_assert!(batch_latency(&profile, &gpu, 7, batch, dil) <= base);
        prop_assert!(base > Dur::ZERO);
    }

    /// Mixed traces survive JSON export/import bit-exactly, including via
    /// the seeded PAI-style generator.
    #[cases(32)]
    fn mixed_trace_json_round_trips(input in tuple2(u64_in(0..1_000_000), u8_in(1..10))) {
        let (seed, n) = input;
        let mix = seeded_pai_mix(usize::from(n), usize::from(n), seed);
        let back = MixedTrace::from_json_str(&mix.to_json_string()).expect("parses");
        prop_assert_eq!(&back, &mix);
        prop_assert_eq!(back.to_json_string(), mix.to_json_string());
    }

    /// Small mixed replays drain, conserve every request, keep attainment
    /// and percentiles coherent, and are byte-deterministic — under every
    /// serving policy.
    #[cases(10)]
    fn mixed_replays_conserve_requests(
        input in tuple2(u64_in(0..100_000), u8_in(0..5))
    ) {
        let (seed, pol) = input;
        let sc = Scenario::new(
            "serve-prop",
            TraceSpec::PaiMix { n_jobs: 4, n_services: 3, seed },
            vec![POLICY_NAMES[usize::from(pol)].to_string()],
        );
        let run = || {
            let mut cache = ProbeCache::new(sc.config.probe_iters);
            run_scenario(&sc, 1, &mut cache).expect("mixed replay drains").reports.remove(0)
        };
        let report = run();
        let serve = report.serve.as_ref().expect("serve block present");
        prop_assert_eq!(serve.n_services, 3);
        prop_assert_eq!(serve.generated, serve.completed + serve.dropped);
        prop_assert!((0.0..=1.0).contains(&serve.attainment));
        prop_assert!(serve.p99_latency >= serve.p50_latency);
        for s in &serve.services {
            prop_assert_eq!(s.generated, s.completed + s.dropped);
            prop_assert!((0.0..=1.0).contains(&s.attainment));
            prop_assert!(s.p99_latency >= s.p50_latency);
            prop_assert!(s.peak_replicas >= 1 || s.generated == s.dropped);
        }
        prop_assert_eq!(report.to_json_string(), run().to_json_string());
    }
}
