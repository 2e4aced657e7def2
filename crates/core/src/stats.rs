//! Per-node statistics — the raw material of adaptation.
//!
//! Section 3.2 of the paper: each processor measures, per *monitoring
//! period*, the time it spends being idle and communicating (split into
//! intra-cluster and inter-cluster), plus its relative speed as measured by
//! an application-specific benchmark. At the end of each period the node
//! sends a [`MonitoringReport`] to the adaptation coordinator.
//!
//! The central invariant (property-tested in both engines) is
//! **conservation**: for every node and every monitoring period,
//! `busy + idle + intra_comm + inter_comm + benchmark == period length`.

use crate::ids::{ClusterId, NodeId};
use crate::time::{SimDuration, SimTime};

/// How a node spent one monitoring period, as wall-clock (virtual) durations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverheadBreakdown {
    /// Time spent doing useful application work.
    pub busy: SimDuration,
    /// Time spent idle (no work available, waiting on steals to complete).
    pub idle: SimDuration,
    /// Time spent communicating with nodes in the *same* cluster.
    pub intra_comm: SimDuration,
    /// Time spent communicating with nodes in *other* clusters.
    pub inter_comm: SimDuration,
    /// Time spent running the speed benchmark (pure overhead).
    pub benchmark: SimDuration,
}

impl OverheadBreakdown {
    /// Total accounted time. Should equal the monitoring period length.
    pub fn total(&self) -> SimDuration {
        self.busy + self.idle + self.intra_comm + self.inter_comm + self.benchmark
    }

    /// Overhead fraction as defined in the paper's efficiency formula:
    /// the fraction of time the processor spends being idle or communicating
    /// (benchmarking counts as overhead too — it is not useful work).
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.total();
        (self.idle + self.intra_comm + self.inter_comm + self.benchmark).fraction_of(total)
    }

    /// Inter-cluster communication overhead fraction (`ic_overhead` in the
    /// badness formulas). Idle time while waiting on a *wide-area* steal is
    /// accounted by the engines into `inter_comm`, matching the paper's
    /// observation that an overloaded uplink manifests as inter-cluster
    /// overhead.
    pub fn ic_overhead_fraction(&self) -> f64 {
        self.inter_comm.fraction_of(self.total())
    }

    /// Merges another breakdown into this one (component-wise sum).
    pub fn merge(&mut self, other: &OverheadBreakdown) {
        self.busy += other.busy;
        self.idle += other.idle;
        self.intra_comm += other.intra_comm;
        self.inter_comm += other.inter_comm;
        self.benchmark += other.benchmark;
    }
}

/// One node's end-of-period report to the adaptation coordinator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonitoringReport {
    /// Reporting node.
    pub node: NodeId,
    /// The cluster the node belongs to.
    pub cluster: ClusterId,
    /// Virtual time at which the period ended (coordinator-side bookkeeping;
    /// clocks are *not* assumed synchronized, see paper §3.2).
    pub period_end: SimTime,
    /// Time accounting for the period.
    pub breakdown: OverheadBreakdown,
    /// Relative speed in `(0, 1]`: fastest benchmark time divided by this
    /// node's benchmark time. `1.0` for the fastest node.
    pub speed: f64,
}

impl MonitoringReport {
    /// Overhead fraction for this period (see [`OverheadBreakdown`]).
    pub fn overhead_fraction(&self) -> f64 {
        self.breakdown.overhead_fraction()
    }

    /// Inter-cluster overhead fraction for this period.
    pub fn ic_overhead_fraction(&self) -> f64 {
        self.breakdown.ic_overhead_fraction()
    }
}

/// Rolling per-node statistics as maintained *on the node* between reports.
///
/// Engines call the `add_*` methods as activity happens, then
/// [`NodeStats::take_report`] at period end, which resets the accumulator —
/// mirroring how the Satin runtime system was instrumented (paper §4).
#[derive(Clone, Debug)]
pub struct NodeStats {
    node: NodeId,
    cluster: ClusterId,
    current: OverheadBreakdown,
    period_start: SimTime,
}

impl NodeStats {
    /// Creates an empty accumulator for `node` in `cluster`, with the first
    /// period starting at `now`.
    pub fn new(node: NodeId, cluster: ClusterId, now: SimTime) -> Self {
        Self {
            node,
            cluster,
            current: OverheadBreakdown::default(),
            period_start: now,
        }
    }

    /// The node this accumulator belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The cluster this accumulator's node belongs to.
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    /// Start of the current period.
    pub fn period_start(&self) -> SimTime {
        self.period_start
    }

    /// Records useful work time.
    pub fn add_busy(&mut self, d: SimDuration) {
        self.current.busy += d;
    }

    /// Records idle time.
    pub fn add_idle(&mut self, d: SimDuration) {
        self.current.idle += d;
    }

    /// Records communication time with a peer; `same_cluster` selects the
    /// intra- vs. inter-cluster bucket.
    pub fn add_comm(&mut self, d: SimDuration, same_cluster: bool) {
        if same_cluster {
            self.current.intra_comm += d;
        } else {
            self.current.inter_comm += d;
        }
    }

    /// Records benchmark (speed-probe) time.
    pub fn add_benchmark(&mut self, d: SimDuration) {
        self.current.benchmark += d;
    }

    /// Peeks at the breakdown accumulated so far in the current period.
    pub fn current(&self) -> &OverheadBreakdown {
        &self.current
    }

    /// Closes the period at `now`, producing a report with the given relative
    /// `speed`, and starts a fresh period.
    pub fn take_report(&mut self, now: SimTime, speed: f64) -> MonitoringReport {
        let breakdown = std::mem::take(&mut self.current);
        self.period_start = now;
        MonitoringReport {
            node: self.node,
            cluster: self.cluster,
            period_end: now,
            breakdown,
            speed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(busy: u64, idle: u64, intra: u64, inter: u64, bench: u64) -> OverheadBreakdown {
        OverheadBreakdown {
            busy: SimDuration(busy),
            idle: SimDuration(idle),
            intra_comm: SimDuration(intra),
            inter_comm: SimDuration(inter),
            benchmark: SimDuration(bench),
        }
    }

    #[test]
    fn overhead_fraction_counts_everything_but_busy() {
        let b = bd(50, 20, 10, 15, 5);
        assert_eq!(b.total(), SimDuration(100));
        assert!((b.overhead_fraction() - 0.5).abs() < 1e-12);
        assert!((b.ic_overhead_fraction() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_has_zero_overhead() {
        let b = OverheadBreakdown::default();
        assert_eq!(b.overhead_fraction(), 0.0);
        assert_eq!(b.ic_overhead_fraction(), 0.0);
    }

    #[test]
    fn merge_is_componentwise() {
        let mut a = bd(1, 2, 3, 4, 5);
        a.merge(&bd(10, 20, 30, 40, 50));
        assert_eq!(a, bd(11, 22, 33, 44, 55));
    }

    #[test]
    fn node_stats_accumulates_and_resets() {
        let mut s = NodeStats::new(NodeId(3), ClusterId(1), SimTime::from_secs(0));
        s.add_busy(SimDuration(70));
        s.add_idle(SimDuration(10));
        s.add_comm(SimDuration(5), true);
        s.add_comm(SimDuration(10), false);
        s.add_benchmark(SimDuration(5));
        let r = s.take_report(SimTime(100), 0.8);
        assert_eq!(r.node, NodeId(3));
        assert_eq!(r.cluster, ClusterId(1));
        assert_eq!(r.breakdown.total(), SimDuration(100));
        assert!((r.overhead_fraction() - 0.3).abs() < 1e-12);
        assert!((r.ic_overhead_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(r.speed, 0.8);
        // Accumulator reset for the next period.
        assert_eq!(s.current().total(), SimDuration::ZERO);
        assert_eq!(s.period_start(), SimTime(100));
    }
}
