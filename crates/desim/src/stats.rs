//! Telemetry primitives: the simulated equivalents of the paper's
//! Weights & Biases / Nsight / Falcon-GUI instrumentation.
//!
//! * [`TimeWeightedGauge`] — a value sampled over time with exact
//!   time-weighted averaging (memory in use, queue depth).
//! * [`BusyTracker`] — records busy intervals of a device and reports a
//!   utilization trace in fixed buckets (the paper's Fig 9/10/13 series).
//! * [`RateSeries`] — attributes transferred bytes to time buckets and
//!   reports per-bucket rates (the paper's Fig 12 PCIe-traffic series).

use crate::time::{Dur, SimTime};

/// A gauge whose time-weighted average is computed exactly from its update
/// history (no sampling error).
#[derive(Debug, Clone)]
pub struct TimeWeightedGauge {
    value: f64,
    last_change: SimTime,
    weighted_sum: f64,
    start: SimTime,
    max: f64,
}

impl TimeWeightedGauge {
    pub fn new(at: SimTime, initial: f64) -> Self {
        TimeWeightedGauge {
            value: initial,
            last_change: at,
            weighted_sum: 0.0,
            start: at,
            max: initial,
        }
    }

    /// Set the gauge at instant `at` (must be nondecreasing in time).
    pub fn set(&mut self, at: SimTime, value: f64) {
        debug_assert!(at >= self.last_change, "gauge updates must move forward");
        self.weighted_sum += self.value * at.since(self.last_change).as_secs_f64();
        self.value = value;
        self.last_change = at;
        self.max = self.max.max(value);
    }

    pub fn add(&mut self, at: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(at, v);
    }

    pub fn value(&self) -> f64 {
        self.value
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// Exact time-weighted mean over `[start, now]`.
    pub fn mean(&self, now: SimTime) -> f64 {
        let elapsed = now.since(self.start).as_secs_f64();
        if elapsed == 0.0 {
            return self.value;
        }
        let tail = self.value * now.since(self.last_change).as_secs_f64();
        (self.weighted_sum + tail) / elapsed
    }
}

/// Records the busy intervals of a serially-used resource and renders them
/// as a fixed-bucket utilization trace in `[0, 1]`.
///
/// Overlapping busy intervals are merged, so a device driven by several
/// overlapping activities never reports more than 100 % utilization.
#[derive(Debug, Clone)]
pub struct BusyTracker {
    /// Disjoint, sorted busy intervals (half-open).
    intervals: Vec<(SimTime, SimTime)>,
}

impl Default for BusyTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl BusyTracker {
    pub fn new() -> Self {
        BusyTracker {
            intervals: Vec::new(),
        }
    }

    /// Record that the resource was busy on `[start, end)`.
    pub fn record(&mut self, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        // Fast path: appending at/after the tail (the common case since
        // simulations emit roughly in time order).
        if let Some(last) = self.intervals.last_mut() {
            if start >= last.1 {
                self.intervals.push((start, end));
                return;
            }
            if start >= last.0 {
                last.1 = last.1.max(end);
                return;
            }
        } else {
            self.intervals.push((start, end));
            return;
        }
        // Slow path: out-of-order insert with merging.
        let idx = self
            .intervals
            .partition_point(|&(s, _)| s < start);
        self.intervals.insert(idx, (start, end));
        self.normalize();
    }

    fn normalize(&mut self) {
        self.intervals.sort_by_key(|&(s, _)| s);
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(self.intervals.len());
        for &(s, e) in &self.intervals {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.intervals = merged;
    }

    /// Total busy time on `[from, to)`.
    pub fn busy_within(&self, from: SimTime, to: SimTime) -> Dur {
        let mut acc = Dur::ZERO;
        for &(s, e) in &self.intervals {
            let lo = s.max(from);
            let hi = e.min(to);
            if hi > lo {
                acc += hi - lo;
            }
            if s >= to {
                break;
            }
        }
        acc
    }

    /// Overall utilization on `[from, to)`.
    pub fn utilization(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.since(from).as_secs_f64();
        if span == 0.0 {
            return 0.0;
        }
        self.busy_within(from, to).as_secs_f64() / span
    }

    /// Utilization per fixed-width bucket over `[from, to)` — the shape of
    /// the paper's GPU-utilization traces (Fig 9).
    pub fn trace(&self, from: SimTime, to: SimTime, bucket: Dur) -> Vec<f64> {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        let mut out = Vec::new();
        let mut cursor = from;
        while cursor < to {
            let end = (cursor + bucket).min(to);
            out.push(self.utilization(cursor, end));
            cursor = end;
        }
        out
    }
}

/// Attributes byte deliveries to time buckets and reports per-bucket rates.
///
/// Deliveries are *spread* over the interval they occupied, so a 1 GB
/// transfer lasting 100 ms contributes uniformly to every bucket it spans —
/// matching how the Falcon GUI's per-second ingress/egress counters behave.
#[derive(Debug, Clone, Default)]
pub struct RateSeries {
    /// (start, end, bytes) of each recorded transfer segment.
    segments: Vec<(SimTime, SimTime, f64)>,
    total_bytes: f64,
}

impl RateSeries {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `bytes` moved uniformly across `[start, end)`. A zero-length
    /// interval attributes everything to the instant `start`.
    pub fn record(&mut self, start: SimTime, end: SimTime, bytes: f64) {
        debug_assert!(bytes >= 0.0);
        self.segments.push((start, end.max(start), bytes));
        self.total_bytes += bytes;
    }

    pub fn total_bytes(&self) -> f64 {
        self.total_bytes
    }

    /// Bytes attributed to `[from, to)`.
    pub fn bytes_within(&self, from: SimTime, to: SimTime) -> f64 {
        let mut acc = 0.0;
        for &seg in &self.segments {
            if let Some(share) = segment_share(seg, from, to) {
                acc += share;
            }
        }
        acc
    }

    /// Average rate (bytes/s) over `[from, to)`.
    pub fn mean_rate(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.since(from).as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            self.bytes_within(from, to) / span
        }
    }

    /// Per-bucket rates (bytes/s) over `[from, to)` — the Fig 12 series.
    ///
    /// One pass over the segments: each finds the first bucket it overlaps
    /// by binary search and adds its share to every bucket it covers. A
    /// bucket so sums the same shares, in the same (recording) order, as
    /// [`RateSeries::bytes_within`] over it, and entry `k` equals
    /// [`RateSeries::mean_rate`] over bucket `k` bit for bit.
    pub fn trace(&self, from: SimTime, to: SimTime, bucket: Dur) -> Vec<f64> {
        assert!(!bucket.is_zero());
        // Bucket k covers [edges[k], edges[k + 1]).
        let mut edges = vec![from];
        let mut cursor = from;
        while cursor < to {
            cursor = (cursor + bucket).min(to);
            edges.push(cursor);
        }
        let mut bytes = vec![0.0; edges.len() - 1];
        for &seg in &self.segments {
            let (s, e, _) = seg;
            let first = edges[1..].partition_point(|&end| end <= s);
            for k in first..bytes.len() {
                // Past the segment (a zero-length one sits in one bucket).
                if edges[k] >= e && edges[k] > s {
                    break;
                }
                if let Some(share) = segment_share(seg, edges[k], edges[k + 1]) {
                    bytes[k] += share;
                }
            }
        }
        // Buckets are never empty (`cursor < to`, `bucket > 0`), so this is
        // `mean_rate`'s division without its zero-span guard.
        bytes
            .iter()
            .zip(edges.windows(2))
            .map(|(&b, w)| b / w[1].since(w[0]).as_secs_f64())
            .collect()
    }
}

/// Bytes of segment `(start, end, bytes)` attributed to `[from, to)`:
/// its uniform share of the overlap, or all of it for a zero-length
/// segment at an instant inside the window. `None` when they are disjoint.
fn segment_share((s, e, b): (SimTime, SimTime, f64), from: SimTime, to: SimTime) -> Option<f64> {
    if s == e {
        return (s >= from && s < to).then_some(b);
    }
    let lo = s.max(from);
    let hi = e.min(to);
    (hi > lo).then(|| b * (hi.since(lo).as_secs_f64() / e.since(s).as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn gauge_time_weighted_mean_is_exact() {
        let mut g = TimeWeightedGauge::new(t(0), 0.0);
        g.set(t(10), 10.0); // 0 for 10us
        g.set(t(30), 0.0); // 10 for 20us
        // mean over 40us = (0*10 + 10*20 + 0*10)/40 = 5
        assert!((g.mean(t(40)) - 5.0).abs() < 1e-9);
        assert_eq!(g.max(), 10.0);
        assert_eq!(g.value(), 0.0);
    }

    #[test]
    fn gauge_mean_with_no_elapsed_time() {
        let g = TimeWeightedGauge::new(t(5), 7.0);
        assert_eq!(g.mean(t(5)), 7.0);
    }

    #[test]
    fn busy_tracker_merges_overlaps() {
        let mut b = BusyTracker::new();
        b.record(t(0), t(10));
        b.record(t(5), t(15)); // overlaps
        b.record(t(20), t(30));
        assert_eq!(b.busy_within(t(0), t(30)), Dur::from_micros(25));
        assert!((b.utilization(t(0), t(30)) - 25.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn busy_tracker_out_of_order_inserts() {
        let mut b = BusyTracker::new();
        b.record(t(20), t(30));
        b.record(t(0), t(10));
        b.record(t(8), t(22)); // bridges both
        assert_eq!(b.busy_within(t(0), t(30)), Dur::from_micros(30));
        assert_eq!(b.utilization(t(0), t(30)), 1.0);
    }

    #[test]
    fn busy_tracker_trace_buckets() {
        let mut b = BusyTracker::new();
        b.record(t(0), t(5));
        b.record(t(10), t(20));
        let trace = b.trace(t(0), t(20), Dur::from_micros(10));
        assert_eq!(trace.len(), 2);
        assert!((trace[0] - 0.5).abs() < 1e-9);
        assert!((trace[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn busy_tracker_ignores_empty_intervals() {
        let mut b = BusyTracker::new();
        b.record(t(5), t(5));
        assert_eq!(b.busy_within(t(0), t(10)), Dur::ZERO);
    }

    #[test]
    fn rate_series_spreads_bytes_over_interval() {
        let mut r = RateSeries::new();
        // 100 bytes over [0, 10us): 10 bytes/us.
        r.record(t(0), t(10), 100.0);
        assert!((r.bytes_within(t(0), t(5)) - 50.0).abs() < 1e-9);
        assert!((r.bytes_within(t(5), t(10)) - 50.0).abs() < 1e-9);
        assert!((r.mean_rate(t(0), t(10)) - 100.0 / 10e-6).abs() < 1.0);
    }

    #[test]
    fn rate_series_instantaneous_delivery() {
        let mut r = RateSeries::new();
        r.record(t(5), t(5), 42.0);
        assert_eq!(r.bytes_within(t(0), t(10)), 42.0);
        assert_eq!(r.bytes_within(t(6), t(10)), 0.0);
        assert_eq!(r.total_bytes(), 42.0);
    }

    #[test]
    fn rate_series_trace() {
        let mut r = RateSeries::new();
        r.record(t(0), t(20), 200.0);
        let trace = r.trace(t(0), t(20), Dur::from_micros(10));
        assert_eq!(trace.len(), 2);
        assert!((trace[0] - trace[1]).abs() < 1e-6, "uniform spread");
    }
}
