//! `testkit` — the workspace's own test toolkit, so the build stays
//! hermetic (no registry dependencies, dev or otherwise).
//!
//! Two pieces:
//!
//! * [`gen`] + [`runner`] + the [`property!`] macro — a property-testing
//!   mini-framework in the proptest style: generator combinators with
//!   *integrated shrinking* (every generated value carries a lazy tree of
//!   smaller candidates, so `map`/`flat_map` compose without separate
//!   shrinker plumbing), a runner with a configurable case count, and
//!   greedy shrinking that prints the minimal counterexample plus the
//!   seed needed to replay it.
//! * [`golden`] — golden-file regression: compare a string against a
//!   checked-in snapshot, re-bless with `TESTKIT_BLESS=1`, and show a
//!   unified diff on mismatch.
//!
//! Host-time measurement is not here: the standalone `perfbench` package
//! is the workspace's one timing harness.
//!
//! Randomness comes from [`desim::SimRng`], the same deterministic
//! xoshiro256++ stream the simulator uses, so a property failure replays
//! bit-for-bit from its printed seed.
//!
//! # Environment knobs
//!
//! | variable | effect |
//! |---|---|
//! | `TESTKIT_CASES` | override the per-property case count |
//! | `TESTKIT_SEED` | override the per-property base seed (for replay) |
//! | `TESTKIT_BLESS=1` | rewrite golden files instead of comparing |

pub mod gen;
pub mod golden;
pub mod runner;

pub use gen::{
    bools, f64_in, just, one_of, select, tuple2, tuple3, tuple4, tuple5, u32_in, u64_in, u8_in,
    usize_in, vec_of, Gen, Shrinkable,
};
pub use golden::{check_golden, check_scenario_golden, unified_diff};
pub use runner::run_property;
