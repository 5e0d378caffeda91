//! Per-port traffic telemetry.
//!
//! The Falcon 4016 management interface exposes ingress/egress byte
//! counters and per-second throughput for every PCIe port; the paper's
//! Figure 12 is produced from those counters. [`PortStats`] is the
//! simulated equivalent: a caller [`watch`](PortStats::watch)es the
//! directed links it will read, and every traversal of a watched link is
//! attributed to a [`desim::stats::RateSeries`], so any subset of them can
//! be queried for traffic over any window. Traffic on other links is not
//! counted, and they read as idle. The training engine watches the
//! monitored Falcon slot links its report reads.

use crate::topology::DirLink;
use desim::stats::RateSeries;
use desim::SimTime;

/// Traffic counters for the watched directed links of a topology.
#[derive(Debug, Default, Clone)]
pub struct PortStats {
    /// Indexed by [`DirLink::dense_index`]: a series for each watched
    /// link, `None` for the rest. Grown by [`watch`](Self::watch).
    series: Vec<Option<RateSeries>>,
}

impl PortStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Count traffic across `dl` from now on. Watching a link twice keeps
    /// what it has counted.
    pub fn watch(&mut self, dl: DirLink) {
        let idx = dl.dense_index();
        if idx >= self.series.len() {
            self.series.resize_with(idx + 1, || None);
        }
        self.series[idx].get_or_insert_with(RateSeries::new);
    }

    fn series(&self, dl: DirLink) -> Option<&RateSeries> {
        self.series.get(dl.dense_index()).and_then(Option::as_ref)
    }

    /// Attribute `bytes` moved across `dl` uniformly over `[start, end)`;
    /// a no-op unless `dl` is watched.
    pub fn record(&mut self, dl: DirLink, start: SimTime, end: SimTime, bytes: f64) {
        if let Some(Some(s)) = self.series.get_mut(dl.dense_index()) {
            s.record(start, end, bytes);
        }
    }

    /// Total bytes moved across `dl` while watched.
    pub fn total_bytes(&self, dl: DirLink) -> f64 {
        self.series(dl).map_or(0.0, RateSeries::total_bytes)
    }

    /// Bytes moved across `dl` within `[from, to)` while watched.
    pub fn bytes_within(&self, dl: DirLink, from: SimTime, to: SimTime) -> f64 {
        self.series(dl).map_or(0.0, |s| s.bytes_within(from, to))
    }

    /// Mean rate over `[from, to)` summed across a set of directed links —
    /// e.g. "all ingress+egress ports of the Falcon-attached GPUs", which
    /// is exactly the paper's Fig 12 quantity.
    pub fn aggregate_rate(&self, links: &[DirLink], from: SimTime, to: SimTime) -> f64 {
        links
            .iter()
            .map(|&dl| self.series(dl).map_or(0.0, |s| s.mean_rate(from, to)))
            .sum()
    }

    /// Per-bucket aggregate rate trace across a set of directed links: one
    /// entry per bucket, summed in `links` order; empty when `links` is.
    /// A link that carried no watched traffic counts as idle (zero in
    /// every bucket), wherever its index lies.
    pub fn aggregate_trace(
        &self,
        links: &[DirLink],
        from: SimTime,
        to: SimTime,
        bucket: desim::Dur,
    ) -> Vec<f64> {
        let idle = RateSeries::new();
        let mut traces = links
            .iter()
            .map(|&dl| self.series(dl).unwrap_or(&idle).trace(from, to, bucket));
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
        p.watch(dl);
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
        p.watch(f);
        p.watch(r);
        p.record(f, t(0), t(10), 100.0);
        p.record(r, t(0), t(10), 50.0);
        let rate = p.aggregate_rate(&[f, r], t(0), t(10));
        assert!((rate - 150.0 / 10e-6).abs() < 1.0);
    }

    #[test]
    fn aggregate_trace_shapes() {
        let mut p = PortStats::new();
        let f = DirLink::forward(LinkId(0));
        p.watch(f);
        p.record(f, t(0), t(10), 100.0);
        let tr = p.aggregate_trace(&[f], t(0), t(20), Dur::from_micros(10));
        assert_eq!(tr.len(), 2);
        assert!(tr[0] > 0.0);
        assert_eq!(tr[1], 0.0);
    }

    #[test]
    fn aggregate_trace_length_ignores_which_links_carried_traffic() {
        // The same two idle links, queried after traffic on a lower- and
        // then on a higher-indexed watched link: one zero per bucket both
        // times.
        let idle = [DirLink::forward(LinkId(1)), DirLink::reverse(LinkId(1))];
        let mut p = PortStats::new();
        for l in [0, 5] {
            let busy = DirLink::forward(LinkId(l));
            p.watch(busy);
            p.record(busy, t(0), t(10), 100.0);
            let trace = p.aggregate_trace(&idle, t(0), t(30), Dur::from_micros(10));
            assert_eq!(trace, vec![0.0; 3], "after traffic on link {l}");
        }
        // A link that carried traffic but was never watched reads idle.
        let unwatched = DirLink::forward(LinkId(3));
        p.record(unwatched, t(0), t(10), 100.0);
        let trace = p.aggregate_trace(&[unwatched], t(0), t(30), Dur::from_micros(10));
        assert_eq!(trace, vec![0.0; 3]);
        assert_eq!(p.bytes_within(unwatched, t(0), t(30)), 0.0);
        assert_eq!(p.total_bytes(unwatched), 0.0);
    }

    #[test]
    fn watching_again_keeps_the_counts() {
        let mut p = PortStats::new();
        let dl = DirLink::reverse(LinkId(4));
        p.watch(dl);
        p.record(dl, t(0), t(10), 100.0);
        p.watch(dl);
        p.record(dl, t(10), t(20), 50.0);
        assert_eq!(p.total_bytes(dl), 150.0);
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
