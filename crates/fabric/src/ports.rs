//! Per-port traffic telemetry.
//!
//! The Falcon 4016 management interface exposes ingress/egress byte
//! counters and per-second throughput for every PCIe port; the paper's
//! Figure 12 is produced from those counters. [`PortStats`] is the
//! simulated equivalent: every directed-link traversal is attributed to a
//! [`desim::stats::RateSeries`], so any subset of links can be queried for
//! traffic over any window.

use crate::topology::DirLink;
use desim::stats::RateSeries;
use desim::SimTime;

/// Traffic counters for every directed link of a topology.
#[derive(Debug, Default, Clone)]
pub struct PortStats {
    /// Indexed by [`DirLink::dense_index`]. Lazily grown.
    series: Vec<RateSeries>,
}

impl PortStats {
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, idx: usize) -> &mut RateSeries {
        if idx >= self.series.len() {
            self.series.resize_with(idx + 1, RateSeries::new);
        }
        &mut self.series[idx]
    }

    /// Attribute `bytes` moved across `dl` uniformly over `[start, end)`.
    pub fn record(&mut self, dl: DirLink, start: SimTime, end: SimTime, bytes: f64) {
        self.ensure(dl.dense_index()).record(start, end, bytes);
    }

    /// Total bytes ever moved across `dl`.
    pub fn total_bytes(&self, dl: DirLink) -> f64 {
        self.series
            .get(dl.dense_index())
            .map_or(0.0, RateSeries::total_bytes)
    }

    /// Bytes moved across `dl` within `[from, to)`.
    pub fn bytes_within(&self, dl: DirLink, from: SimTime, to: SimTime) -> f64 {
        self.series
            .get(dl.dense_index())
            .map_or(0.0, |s| s.bytes_within(from, to))
    }

    /// Mean rate over `[from, to)` summed across a set of directed links —
    /// e.g. "all ingress+egress ports of the Falcon-attached GPUs", which
    /// is exactly the paper's Fig 12 quantity.
    pub fn aggregate_rate(&self, links: &[DirLink], from: SimTime, to: SimTime) -> f64 {
        links
            .iter()
            .map(|dl| {
                self.series
                    .get(dl.dense_index())
                    .map_or(0.0, |s| s.mean_rate(from, to))
            })
            .sum()
    }

    /// Per-bucket aggregate rate trace across a set of directed links: one
    /// entry per bucket, summed in `links` order; empty when `links` is.
    /// A link that never carried traffic counts as idle (zero in every
    /// bucket), wherever its index lies.
    pub fn aggregate_trace(
        &self,
        links: &[DirLink],
        from: SimTime,
        to: SimTime,
        bucket: desim::Dur,
    ) -> Vec<f64> {
        let idle = RateSeries::new();
        let mut traces = links.iter().map(|dl| {
            self.series
                .get(dl.dense_index())
                .unwrap_or(&idle)
                .trace(from, to, bucket)
        });
        let mut out = traces.next().unwrap_or_default();
        for trace in traces {
            for (acc, v) in out.iter_mut().zip(trace) {
                *acc += v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkId;
    use desim::Dur;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn records_and_totals() {
        let mut p = PortStats::new();
        let dl = DirLink::forward(LinkId(2));
        p.record(dl, t(0), t(10), 100.0);
        assert_eq!(p.total_bytes(dl), 100.0);
        assert_eq!(p.total_bytes(DirLink::reverse(LinkId(2))), 0.0);
        assert!((p.bytes_within(dl, t(0), t(5)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_rate_sums_directions() {
        let mut p = PortStats::new();
        let f = DirLink::forward(LinkId(0));
        let r = DirLink::reverse(LinkId(0));
        p.record(f, t(0), t(10), 100.0);
        p.record(r, t(0), t(10), 50.0);
        let rate = p.aggregate_rate(&[f, r], t(0), t(10));
        assert!((rate - 150.0 / 10e-6).abs() < 1.0);
    }

    #[test]
    fn aggregate_trace_shapes() {
        let mut p = PortStats::new();
        let f = DirLink::forward(LinkId(0));
        p.record(f, t(0), t(10), 100.0);
        let tr = p.aggregate_trace(&[f], t(0), t(20), Dur::from_micros(10));
        assert_eq!(tr.len(), 2);
        assert!(tr[0] > 0.0);
        assert_eq!(tr[1], 0.0);
    }

    #[test]
    fn aggregate_trace_length_ignores_which_links_carried_traffic() {
        // The same two idle links, queried after traffic on a lower- and
        // then on a higher-indexed link: one zero per bucket both times.
        let idle = [DirLink::forward(LinkId(1)), DirLink::reverse(LinkId(1))];
        let mut p = PortStats::new();
        p.record(DirLink::forward(LinkId(0)), t(0), t(10), 100.0);
        let below = p.aggregate_trace(&idle, t(0), t(30), Dur::from_micros(10));
        p.record(DirLink::forward(LinkId(5)), t(0), t(10), 100.0);
        let above = p.aggregate_trace(&idle, t(0), t(30), Dur::from_micros(10));
        assert_eq!(below, vec![0.0; 3]);
        assert_eq!(above, vec![0.0; 3]);
    }

    #[test]
    fn aggregate_trace_of_no_links_is_empty() {
        let mut p = PortStats::new();
        p.record(DirLink::forward(LinkId(0)), t(0), t(10), 100.0);
        assert!(p
            .aggregate_trace(&[], t(0), t(30), Dur::from_micros(10))
            .is_empty());
    }

    #[test]
    fn unknown_link_is_zero() {
        let p = PortStats::new();
        assert_eq!(p.total_bytes(DirLink::forward(LinkId(99))), 0.0);
    }
}
