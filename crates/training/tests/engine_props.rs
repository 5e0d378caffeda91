//! Property tests on memory accounting and the training engine.
//!
//! Invariants covered (testkit, 64 cases each):
//! * GPU memory need is strictly monotone in batch size;
//! * `max_feasible_batch` is exact (max fits, max+1 does not);
//! * sharding never needs more memory than DDP at equal batch;
//! * sharded memory is nonincreasing in replica count.

use dlmodels::{paper_model, Benchmark, Precision};
use testkit::{just, one_of, prop_assert, property, select, f64_in, u64_in, usize_in, Gen};
use training::{gpu_memory_needed, max_feasible_batch};

fn any_strategy() -> Gen<training::Strategy> {
    one_of(vec![
        just(training::Strategy::ddp()),
        just(training::Strategy::Dp),
        just(training::Strategy::sharded()),
    ])
}

fn any_benchmark() -> Gen<Benchmark> {
    select(Benchmark::all().to_vec())
}

fn any_precision() -> Gen<Precision> {
    one_of(vec![just(Precision::Fp16), just(Precision::Fp32)])
}

property! {
    /// Memory is strictly monotone in batch size.
    #[cases(64)]
    fn memory_monotone_in_batch(b in any_benchmark(), s in any_strategy(),
                                p in any_precision(), batch in u64_in(1..32)) {
        let m = paper_model(b);
        let small = gpu_memory_needed(m, batch, p, s, 8).total();
        let large = gpu_memory_needed(m, batch + 1, p, s, 8).total();
        prop_assert!(large > small);
    }

    /// `max_feasible_batch` is exact: the maximum fits, one more does not.
    #[cases(64)]
    fn max_feasible_is_tight(b in any_benchmark(), s in any_strategy(),
                             p in any_precision(), cap_gb in f64_in(8.0, 40.0)) {
        let m = paper_model(b);
        let cap = cap_gb * 1e9;
        let max = max_feasible_batch(m, cap, p, s, 8);
        if max > 0 {
            prop_assert!(gpu_memory_needed(m, max, p, s, 8).total() <= cap);
        }
        prop_assert!(gpu_memory_needed(m, max + 1, p, s, 8).total() > cap);
    }

    /// Sharding never needs more memory than plain DDP at equal batch.
    #[cases(64)]
    fn sharding_never_hurts_memory(b in any_benchmark(), p in any_precision(),
                                   batch in u64_in(1..16), n in usize_in(2..16)) {
        let m = paper_model(b);
        let ddp = gpu_memory_needed(m, batch, p, training::Strategy::ddp(), n).total();
        let sh = gpu_memory_needed(m, batch, p, training::Strategy::sharded(), n).total();
        prop_assert!(sh <= ddp);
    }

    /// More replicas shard harder: sharded memory is nonincreasing in n.
    #[cases(64)]
    fn sharded_memory_shrinks_with_replicas(b in any_benchmark(), batch in u64_in(1..8),
                                            n in usize_in(2..15)) {
        let m = paper_model(b);
        let small = gpu_memory_needed(m, batch, Precision::Fp16, training::Strategy::sharded(), n).total();
        let large = gpu_memory_needed(m, batch, Precision::Fp16, training::Strategy::sharded(), n + 1).total();
        prop_assert!(large <= small);
    }
}
