//! `desim` — a small, deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate every other `composable-sim` crate builds on.
//! It provides:
//!
//! * [`SimTime`] / [`Dur`] — nanosecond-resolution instants and durations,
//! * [`Sim`] — an event scheduler generic over a user "world" state, with
//!   cancellable event handles and deterministic tie-breaking,
//! * [`stats`] — time-weighted gauges and the time-bucketed series used
//!   to reproduce the paper's telemetry (GPU/CPU utilization traces,
//!   PCIe traffic rates),
//! * [`rng`] — seeded random-number plumbing so identical inputs always
//!   produce identical simulations,
//! * [`json`] — a self-contained JSON value/parser/emitter so the types
//!   that cross a serialization boundary need no registry dependency.
//!
//! # Determinism
//!
//! Two events scheduled for the same instant fire in the order they were
//! scheduled (a monotonically increasing sequence number breaks ties).
//! All randomness must flow from [`rng::SimRng`]; the kernel itself never
//! consults a clock or RNG.
//!
//! # Example
//!
//! ```
//! use desim::{Sim, SimTime, Dur};
//!
//! struct World { fired: Vec<u32> }
//! let mut sim: Sim<World> = Sim::new();
//! let mut world = World { fired: Vec::new() };
//! sim.schedule_in(Dur::from_micros(5), |w: &mut World, _| w.fired.push(1));
//! sim.schedule_in(Dur::from_micros(2), |w: &mut World, sim| {
//!     w.fired.push(2);
//!     sim.schedule_in(Dur::from_micros(1), |w: &mut World, _| w.fired.push(3));
//! });
//! sim.run(&mut world);
//! assert_eq!(world.fired, vec![2, 3, 1]);
//! assert_eq!(sim.now(), SimTime::from_micros(5));
//! ```

pub mod json;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;

pub use json::{FromJson, JsonError, ToJson, Value};
pub use queue::{EventHandle, EventQueue};
pub use rng::SimRng;
pub use sim::Sim;
pub use time::{Dur, SimTime};
