//! Property tests of the simulation kernel: for arbitrary interleavings of
//! schedule/cancel operations, events fire exactly once, in nondecreasing
//! time order, never after cancellation, and identical inputs replay
//! identically.
//!
//! Invariants covered (testkit, 128 cases for the op-interleaving block,
//! 64 for the stats block, 128 for the rate trace):
//! * events fire at most once, in nondecreasing time order;
//! * cancelled events never fire; fired ≤ scheduled;
//! * identical op sequences replay bit-identically;
//! * `run_until` partitions events cleanly around the horizon;
//! * `BusyTracker` / `TimeWeightedGauge` agree with brute force;
//! * every `RateSeries::trace` bucket equals `mean_rate` over it, bit for bit;
//! * `json::Value::parse_bytes` never panics on arbitrary bytes (boundary
//!   tokens spliced in), and every value it accepts re-emits and parses
//!   back to itself.

use desim::json::Value;
use desim::{Sim, SimTime};
use testkit::{prop_assert, prop_assert_eq, property};
use testkit::{one_of, select, u64_in, usize_in, vec_of, Gen};

/// Tokens at the edges of what the JSON parser accepts: overflowing and
/// underflowing exponents, negative zero, a signed `\u` escape, lone and
/// paired surrogates, and nesting at and just past `MAX_DEPTH`.
fn boundary_tokens() -> Vec<String> {
    let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
    [
        "1e999", "-1e999", "-0", "1e-400", "0.1", "9007199254740993", "\"\\u+041\"",
        "\"\\ud800\"", "\"\\udc00\"", "\"\\ud83d\\ude00\"", "\"\u{e9}\"", "{\"k\":[true,null]}",
    ]
    .iter()
    .map(|t| t.to_string())
    .chain([nest(128), nest(129), nest(130)])
    .collect()
}

/// Noise bytes: mostly JSON punctuation, digits and letters, so spliced
/// tokens often land in a parseable context, plus arbitrary bytes
/// (invalid UTF-8 included).
fn noise() -> Gen<Vec<u8>> {
    let json_ish: Vec<u8> = b" \t\n[]{}:,\"\\-+.0123456789eEtrufalsn".to_vec();
    vec_of(one_of(vec![select(json_ish), u64_in(0..256).map(|b| *b as u8)]), 0..24)
}

#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event at a relative offset (ns).
    Schedule(u64),
    /// Cancel the k-th oldest still-tracked handle.
    Cancel(usize),
}

fn ops() -> Gen<Vec<Op>> {
    vec_of(
        one_of(vec![
            u64_in(0..1_000_000).map(|v| Op::Schedule(*v)),
            usize_in(0..8).map(|k| Op::Cancel(*k)),
        ]),
        1..200,
    )
}

#[derive(Debug, Clone)]
enum QOp {
    /// Push an event at an absolute time (ns).
    Push(u64),
    /// Cancel the k-th oldest still-tracked handle.
    Cancel(usize),
    /// Pop the head and compare against the reference model.
    Pop,
    /// Peek at the head's time and compare against the model's head.
    Peek,
}

#[derive(Default)]
struct World {
    fired: Vec<(u64, u32)>,
}

fn run(ops: &[Op]) -> Vec<(u64, u32)> {
    let mut sim: Sim<World> = Sim::new();
    let mut world = World::default();
    let mut handles = Vec::new();
    let mut cancelled = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Schedule(at) => {
                let id = i as u32;
                let h = sim.schedule_at(SimTime::from_nanos(*at), move |w: &mut World, sim| {
                    w.fired.push((sim.now().as_nanos(), id));
                });
                handles.push((h, id));
            }
            Op::Cancel(k) => {
                if !handles.is_empty() {
                    let (h, id) = handles.remove(k % handles.len());
                    if sim.cancel(h) {
                        cancelled.push(id);
                    }
                }
            }
        }
    }
    sim.run(&mut world);
    for id in &cancelled {
        assert!(
            world.fired.iter().all(|(_, fid)| fid != id),
            "cancelled event {id} fired"
        );
    }
    world.fired
}

property! {
    #[cases(128)]
    fn events_fire_once_in_time_order(ops in ops()) {
        let fired = run(&ops);
        // Time order.
        prop_assert!(fired.windows(2).all(|w| w[0].0 <= w[1].0));
        // Exactly-once.
        let mut ids: Vec<u32> = fired.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "an event fired twice");
    }

    #[cases(128)]
    fn replay_is_bit_identical(ops in ops()) {
        prop_assert_eq!(run(&ops), run(&ops));
    }

    #[cases(128)]
    fn scheduled_minus_cancelled_equals_fired(ops in ops()) {
        let scheduled = ops.iter().filter(|o| matches!(o, Op::Schedule(_))).count();
        // Count successful cancels by reproducing handle bookkeeping.
        let fired = run(&ops).len();
        prop_assert!(fired <= scheduled);
    }

    /// run_until never executes events beyond the horizon and leaves them
    /// intact for a later run.
    #[cases(64)]
    fn run_until_partitions_cleanly(times in vec_of(u64_in(0..1000), 1..50),
                                    horizon in u64_in(0..1000)) {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        for (i, &t) in times.iter().enumerate() {
            let id = i as u32;
            sim.schedule_at(SimTime::from_nanos(t), move |w: &mut World, sim| {
                w.fired.push((sim.now().as_nanos(), id));
            });
        }
        sim.run_until(&mut w, SimTime::from_nanos(horizon));
        prop_assert!(w.fired.iter().all(|&(t, _)| t <= horizon));
        let early = w.fired.len();
        prop_assert_eq!(early, times.iter().filter(|&&t| t <= horizon).count());
        sim.run(&mut w);
        prop_assert_eq!(w.fired.len(), times.len());
    }

    /// Arbitrary interleaved push/cancel/peek/pop sequences yield exactly
    /// the heads and pops a reference min-heap ordered by (time, insertion
    /// seq) yields — the pop-order contract DESIGN §14 leans on for replay
    /// byte-identity. Half the pushes land on eight instants, so ties (and
    /// ties on recycled slots) are common and must pop in insertion order.
    #[cases(128)]
    fn event_queue_matches_reference_heap(
        ops in vec_of(
            one_of(vec![
                u64_in(0..5_000_000).map(|v| QOp::Push(*v)),
                u64_in(0..8).map(|v| QOp::Push(*v)),
                usize_in(0..8).map(|k| QOp::Cancel(*k)),
                usize_in(0..1).map(|_| QOp::Pop),
                usize_in(0..1).map(|_| QOp::Peek),
            ]),
            1..400,
        )
    ) {
        use desim::EventQueue;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut handles = Vec::new(); // (handle, (time, seq)) still pending in the model
        let mut seq = 0u64;
        for op in &ops {
            match op {
                QOp::Push(t) => {
                    let h = q.push(SimTime::from_nanos(*t), seq);
                    model.push(Reverse((*t, seq)));
                    handles.push((h, (*t, seq)));
                    seq += 1;
                }
                QOp::Cancel(k) => {
                    if !handles.is_empty() {
                        let (h, key) = handles.remove(k % handles.len());
                        let cancelled = q.cancel(h).is_some();
                        // The model cancels iff the queue does (a popped
                        // event's handle is dead in both worlds).
                        let in_model = model.iter().any(|Reverse(e)| *e == key);
                        prop_assert_eq!(cancelled, in_model);
                        if cancelled {
                            let mut rest: Vec<_> = model.into_vec();
                            rest.retain(|Reverse(e)| *e != key);
                            model = rest.into_iter().collect();
                        }
                    }
                }
                QOp::Peek => {
                    let want = model.peek().map(|Reverse((t, _))| *t);
                    prop_assert_eq!(q.peek_time().map(|t| t.as_nanos()), want);
                }
                QOp::Pop => {
                    let got = q.pop().map(|(t, p)| (t.as_nanos(), p));
                    let want = model.pop().map(|Reverse(e)| e);
                    prop_assert_eq!(got, want, "pop order diverged from the reference heap");
                    if let Some(key) = want {
                        handles.retain(|(_, k)| *k != key);
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        // Drain both: the tails must agree element-for-element.
        loop {
            let got = q.pop().map(|(t, p)| (t.as_nanos(), p));
            let want = model.pop().map(|Reverse(e)| e);
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }

    /// The stats busy-tracker agrees with a brute-force boolean timeline.
    #[cases(64)]
    fn busy_tracker_matches_brute_force(
        intervals in vec_of(testkit::tuple2(u64_in(0..500), u64_in(0..100)), 0..40)
    ) {
        use desim::stats::BusyTracker;
        let mut tracker = BusyTracker::new();
        let mut timeline = vec![false; 700];
        for &(start, len) in &intervals {
            let end = start + len;
            tracker.record(SimTime::from_nanos(start), SimTime::from_nanos(end));
            for slot in timeline.iter_mut().take(end as usize).skip(start as usize) {
                *slot = true;
            }
        }
        let busy = tracker
            .busy_within(SimTime::ZERO, SimTime::from_nanos(700))
            .as_nanos();
        let expected = timeline.iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(busy, expected);
    }

    /// Time-weighted gauge mean equals a brute-force integral.
    #[cases(64)]
    fn gauge_mean_matches_integral(
        values in vec_of(testkit::tuple2(u64_in(1..100), testkit::f64_in(0.0, 50.0)), 1..30)
    ) {
        use desim::stats::TimeWeightedGauge;
        let mut g = TimeWeightedGauge::new(SimTime::ZERO, 0.0);
        let mut t = 0u64;
        let mut integral = 0.0;
        let mut current = 0.0;
        for &(dt, v) in &values {
            integral += current * dt as f64;
            t += dt;
            g.set(SimTime::from_nanos(t), v);
            current = v;
        }
        // Extend 10ns at the final value.
        integral += current * 10.0;
        t += 10;
        let mean = g.mean(SimTime::from_nanos(t));
        let expected = integral / t as f64;
        prop_assert!((mean - expected).abs() < 1e-9 * expected.max(1.0),
            "mean {} vs {}", mean, expected);
    }

    /// The one-pass `RateSeries::trace` equals a `mean_rate` query per
    /// bucket, bit for bit, for segments recorded in any time order,
    /// zero-length ones, and ones partly or wholly outside the window.
    #[cases(128)]
    fn rate_trace_matches_mean_rate_per_bucket(
        segments in vec_of(
            testkit::tuple3(
                u64_in(0..1200),
                one_of(vec![testkit::just(0u64), u64_in(1..400)]),
                testkit::f64_in(0.0, 1e6),
            ),
            0..40,
        ),
        window in testkit::tuple3(u64_in(0..400), u64_in(0..900), u64_in(1..200))
    ) {
        use desim::stats::RateSeries;
        use desim::Dur;
        let mut series = RateSeries::new();
        for &(start, len, bytes) in &segments {
            series.record(SimTime::from_nanos(start), SimTime::from_nanos(start + len), bytes);
        }
        let (from, span, bucket) = window;
        let (from, to) = (SimTime::from_nanos(from), SimTime::from_nanos(from + span));
        let trace = series.trace(from, to, Dur::from_nanos(bucket));
        let mut cursor = from;
        let mut k = 0;
        while cursor < to {
            let end = (cursor + Dur::from_nanos(bucket)).min(to);
            let want = series.mean_rate(cursor, end);
            prop_assert!(k < trace.len(), "trace has {} buckets, wanted more", trace.len());
            prop_assert!(
                trace[k].to_bits() == want.to_bits(),
                "bucket {}: trace {} vs mean_rate {}", k, trace[k], want
            );
            cursor = end;
            k += 1;
        }
        prop_assert_eq!(trace.len(), k);
    }

    /// Arbitrary bytes with boundary tokens spliced in parse to `Ok` or
    /// `Err`, never a panic; an accepted value re-emits (every parsed
    /// number is finite) and parses back to itself. The tokens are also
    /// parsed alone, in an array, where each is well-formed.
    #[cases(256)]
    fn json_parse_never_panics_and_accepted_values_round_trip(
        bytes in noise(),
        splices in vec_of(
            testkit::tuple2(usize_in(0..32), usize_in(0..boundary_tokens().len())),
            0..4,
        )
    ) {
        let tokens = boundary_tokens();
        let mut doc = bytes.clone();
        let mut picked = Vec::new();
        for &(at, t) in &splices {
            let at = at.min(doc.len());
            doc.splice(at..at, tokens[t].bytes());
            picked.push(tokens[t].as_str());
        }
        let alone = format!("[{}]", picked.join(","));
        for input in [doc, alone.into_bytes()] {
            if let Ok(v) = Value::parse_bytes(&input) {
                prop_assert_eq!(Value::parse(&v.emit()), Ok(v.clone()), "re-emit of {:?}", input);
                prop_assert_eq!(Value::parse(&v.emit_pretty()), Ok(v));
            }
        }
    }
}
