//! Per-node state machine and statistics attribution.
//!
//! A simulated node is always in exactly one [`NodeActivity`]; the engine
//! transitions it and, on every transition, attributes the elapsed span to
//! the matching [`sagrid_core::stats::OverheadBreakdown`] bucket:
//!
//! | activity | bucket |
//! |---|---|
//! | `Computing` | `busy` |
//! | `Benchmarking` | `benchmark` |
//! | `SyncSteal` (awaiting a reply) | `intra_comm` / `inter_comm` by victim |
//! | `Waiting` that ends with a task-carrying wide reply | `inter_comm` (via [`SimNode::absorb_wait_as_comm`]) |
//! | `Waiting` otherwise | `idle` |
//!
//! This is precisely how an overloaded uplink becomes visible to the
//! coordinator as inter-cluster overhead (paper §3.3): nodes in the starved
//! cluster spend their periods waiting on wide-area task transfers crawling
//! through the shaped link, while ordinary barrier idling stays idle.

use crate::trace::{NodeTrace, SpanKind};
use sagrid_adapt::BenchmarkScheduler;
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::stats::NodeStats;
use sagrid_core::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// What a node is doing right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeActivity {
    /// Executing task `task` until `until`.
    Computing {
        /// Arena index of the task being executed.
        task: u32,
        /// Node that spawned the task (its result returns there).
        origin: NodeId,
        /// Completion time.
        until: SimTime,
    },
    /// Running the speed benchmark until `until`.
    Benchmarking {
        /// Completion time.
        until: SimTime,
    },
    /// Blocking on a result send (TCP backpressure on the uplink); the
    /// bytes drain at `until`.
    Sending {
        /// When the sender's link has drained.
        until: SimTime,
        /// Whether the result crosses cluster boundaries.
        wide: bool,
    },
    /// Blocked on a synchronous steal reply carrying token `token`.
    SyncSteal {
        /// Matches the reply to the request (stale replies are ignored).
        token: u64,
        /// Whether the victim is in another cluster.
        wide: bool,
    },
    /// Out of work: waiting for a wide-area reply, a retry timer, or new
    /// tasks pushed by a peer.
    Waiting,
    /// Left the computation or crashed. Terminal.
    Gone,
}

/// One simulated processor.
#[derive(Clone, Debug)]
pub struct SimNode {
    /// Node id (dense index into the engine's node table).
    pub id: NodeId,
    /// Site the node lives in.
    pub cluster: ClusterId,
    /// Intrinsic speed relative to the grid's fastest node class.
    pub base_speed: f64,
    /// Cached `1 / effective_speed()`; refreshed whenever `base_speed` or
    /// `load_factor` changes (see [`SimNode::set_load_factor`]). Keeps the
    /// task-start hot path free of float divisions.
    inv_speed: f64,
    /// Injected background-load slowdown factor (≥ 1.0).
    pub load_factor: f64,
    /// Current activity.
    pub activity: NodeActivity,
    /// When the current activity started (for attribution).
    pub activity_since: SimTime,
    /// Local LIFO work deque (owner pushes/pops the back; thieves take the
    /// front, which holds the largest untouched subtrees). Each entry is
    /// `(task index, origin node)` — the origin spawned the task and is
    /// where its result must be returned (Satin returns results to the
    /// spawner; the iteration barrier waits for them).
    pub deque: VecDeque<(u32, NodeId)>,
    /// Statistics accumulator for the current monitoring period.
    pub stats: NodeStats,
    /// Benchmark pacing; also keeps the most recent measured duration
    /// ([`BenchmarkScheduler::measured_duration`]).
    pub bench: BenchmarkScheduler,
    /// Start time and load factor of the last benchmark the engine started
    /// on this node (half-period pacing and the load-aware extension).
    /// Carried over to the node's next incarnation, like `retry_gen`.
    pub last_bench: Option<(SimTime, f64)>,
    /// Retry-chain staleness guard: bumped at every scheduling point, so a
    /// pending retry timer carrying an older generation is ignored. Carried
    /// over to the node's next incarnation, so that timers of an old one
    /// can never match.
    pub retry_gen: u64,
    /// Whether an asynchronous wide-area steal is outstanding (CRS allows
    /// at most one).
    pub wide_outstanding: bool,
    /// Token of the most recent synchronous steal (stale-reply filtering).
    pub steal_token: u64,
    /// Consecutive failed synchronous steal attempts since last useful work.
    pub failed_attempts: u32,
    /// Consecutive times the node parked with nothing to steal; drives
    /// exponential retry back-off so a starved grid does not melt down in
    /// probe storms.
    pub consecutive_parks: u32,
    /// The coordinator asked this node to leave; it will exit at the next
    /// scheduling point.
    pub leave_requested: bool,
    /// Activity trace (recorded only when the run enables tracing; boxed
    /// so that untraced runs pay one word per node for it, not three).
    pub trace: Option<Box<NodeTrace>>,
}

impl SimNode {
    /// Creates an idle node joining at `now`.
    pub fn new(
        id: NodeId,
        cluster: ClusterId,
        base_speed: f64,
        now: SimTime,
        benchmark_budget: f64,
        expected_bench: SimDuration,
    ) -> Self {
        Self {
            id,
            cluster,
            base_speed,
            inv_speed: 1.0 / base_speed.max(1e-6),
            load_factor: 1.0,
            activity: NodeActivity::Waiting,
            activity_since: now,
            deque: VecDeque::new(),
            stats: NodeStats::new(id, cluster, now),
            bench: BenchmarkScheduler::new(benchmark_budget, expected_bench),
            last_bench: None,
            retry_gen: 0,
            wide_outstanding: false,
            steal_token: 0,
            failed_attempts: 0,
            consecutive_parks: 0,
            leave_requested: false,
            trace: None,
        }
    }

    /// Effective execution speed right now.
    pub fn effective_speed(&self) -> f64 {
        (self.base_speed / self.load_factor).max(1e-6)
    }

    /// Updates the background-load multiplier, refreshing the cached
    /// reciprocal speed. All post-construction speed changes go through
    /// here so `execution_time` stays division-free.
    pub fn set_load_factor(&mut self, factor: f64) {
        self.load_factor = factor;
        self.inv_speed = 1.0 / self.effective_speed();
    }

    /// Wall time this node needs for `work` defined at speed 1.0.
    pub fn execution_time(&self, work: SimDuration) -> SimDuration {
        work.mul_f64(self.inv_speed)
    }

    /// Attributes the span since `activity_since` to the bucket matching the
    /// *current* activity, then restarts the attribution clock at `now`.
    ///
    /// Called on every activity transition and when the coordinator pulls a
    /// report mid-activity.
    pub fn flush_stats(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.activity_since);
        if elapsed > SimDuration::ZERO {
            let kind = match self.activity {
                NodeActivity::Computing { .. } => {
                    self.stats.add_busy(elapsed);
                    Some(SpanKind::Busy)
                }
                NodeActivity::Benchmarking { .. } => {
                    self.stats.add_benchmark(elapsed);
                    Some(SpanKind::Benchmark)
                }
                NodeActivity::Sending { wide, .. } | NodeActivity::SyncSteal { wide, .. } => {
                    self.stats.add_comm(elapsed, !wide);
                    Some(if wide {
                        SpanKind::InterComm
                    } else {
                        SpanKind::IntraComm
                    })
                }
                NodeActivity::Waiting => {
                    self.stats.add_idle(elapsed);
                    Some(SpanKind::Idle)
                }
                NodeActivity::Gone => None,
            };
            if let (Some(trace), Some(kind)) = (self.trace.as_mut(), kind) {
                trace.push(self.activity_since, now, kind);
            }
        }
        self.activity_since = now;
    }

    /// Transitions to a new activity at `now`, attributing the span spent in
    /// the previous one.
    pub fn transition(&mut self, now: SimTime, next: NodeActivity) {
        self.flush_stats(now);
        self.activity = next;
    }

    /// Issues a fresh synchronous-steal token.
    pub fn next_steal_token(&mut self) -> u64 {
        self.steal_token += 1;
        self.steal_token
    }

    /// Reclassifies the current `Waiting` span as communication time instead
    /// of idle time, restarting the attribution clock.
    ///
    /// Called when an asynchronous wide-area steal reply finally delivers a
    /// task to a node that was out of work: the time the node spent waiting
    /// for that transfer *is* inter-cluster communication overhead — this is
    /// precisely how an overloaded uplink becomes visible as `ic_overhead`
    /// (paper §3.3) while ordinary idle waiting (e.g. during the sequential
    /// root phase, when wide replies come back empty) does not.
    pub fn absorb_wait_as_comm(&mut self, now: SimTime, same_cluster: bool) {
        debug_assert!(matches!(self.activity, NodeActivity::Waiting));
        let elapsed = now.saturating_since(self.activity_since);
        if elapsed > SimDuration::ZERO {
            self.stats.add_comm(elapsed, same_cluster);
            if let Some(trace) = self.trace.as_mut() {
                trace.push(
                    self.activity_since,
                    now,
                    if same_cluster {
                        SpanKind::IntraComm
                    } else {
                        SpanKind::InterComm
                    },
                );
            }
        }
        self.activity_since = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(now: SimTime) -> SimNode {
        SimNode::new(
            NodeId(0),
            ClusterId(0),
            1.0,
            now,
            0.05,
            SimDuration::from_secs(8),
        )
    }

    #[test]
    fn execution_time_scales_with_speed_and_load() {
        let mut n = node(SimTime::ZERO);
        let w = SimDuration::from_secs(10);
        assert_eq!(n.execution_time(w), w);
        n.base_speed = 0.5;
        n.set_load_factor(1.0);
        assert_eq!(n.execution_time(w), SimDuration::from_secs(20));
        n.set_load_factor(10.0);
        assert_eq!(n.execution_time(w), SimDuration::from_secs(200));
    }

    #[test]
    fn busy_time_attributed_on_transition() {
        let mut n = node(SimTime::ZERO);
        n.transition(
            SimTime::ZERO,
            NodeActivity::Computing {
                task: 0,
                origin: NodeId(0),
                until: SimTime::from_secs(5),
            },
        );
        n.transition(SimTime::from_secs(5), NodeActivity::Waiting);
        assert_eq!(n.stats.current().busy, SimDuration::from_secs(5));
    }

    #[test]
    fn plain_waiting_is_idle_even_with_wide_outstanding() {
        let mut n = node(SimTime::ZERO);
        n.wide_outstanding = true;
        n.transition(SimTime::ZERO, NodeActivity::Waiting);
        n.flush_stats(SimTime::from_secs(3));
        assert_eq!(n.stats.current().idle, SimDuration::from_secs(3));
        assert_eq!(n.stats.current().inter_comm, SimDuration::ZERO);
    }

    #[test]
    fn absorbed_wait_becomes_inter_comm() {
        let mut n = node(SimTime::ZERO);
        n.transition(SimTime::ZERO, NodeActivity::Waiting);
        // A wide-area steal reply with a task arrives after 3 s: the wait
        // was communication, not idleness.
        n.absorb_wait_as_comm(SimTime::from_secs(3), false);
        assert_eq!(n.stats.current().inter_comm, SimDuration::from_secs(3));
        assert_eq!(n.stats.current().idle, SimDuration::ZERO);
        // Subsequent waiting is idle again.
        n.flush_stats(SimTime::from_secs(5));
        assert_eq!(n.stats.current().idle, SimDuration::from_secs(2));
    }

    #[test]
    fn sync_steal_attribution_follows_victim_locality() {
        let mut n = node(SimTime::ZERO);
        n.transition(
            SimTime::ZERO,
            NodeActivity::SyncSteal {
                token: 1,
                wide: false,
            },
        );
        n.transition(
            SimTime::from_millis(2),
            NodeActivity::SyncSteal {
                token: 2,
                wide: true,
            },
        );
        n.transition(SimTime::from_millis(12), NodeActivity::Waiting);
        assert_eq!(n.stats.current().intra_comm, SimDuration::from_millis(2));
        assert_eq!(n.stats.current().inter_comm, SimDuration::from_millis(10));
    }

    #[test]
    fn conservation_of_time_across_mixed_activity() {
        let mut n = node(SimTime::ZERO);
        let steps: [(NodeActivity, u64); 4] = [
            (
                NodeActivity::Computing {
                    task: 0,
                    origin: NodeId(0),
                    until: SimTime::from_secs(4),
                },
                4,
            ),
            (
                NodeActivity::Benchmarking {
                    until: SimTime::from_secs(5),
                },
                1,
            ),
            (
                NodeActivity::SyncSteal {
                    token: 1,
                    wide: true,
                },
                2,
            ),
            (NodeActivity::Waiting, 3),
        ];
        let mut t = SimTime::ZERO;
        for (act, dur) in steps {
            n.transition(t, act);
            t += SimDuration::from_secs(dur);
        }
        n.flush_stats(t);
        assert_eq!(n.stats.current().total(), SimDuration::from_secs(10));
    }

    /// The engine's node table holds one `Option<SimNode>` per grid node
    /// and `GridSim::try_new` writes every slot (2^20 of them on the
    /// million-node grid), so set-up time tracks this size: a new field
    /// must find room in the node, not grow it.
    #[test]
    fn node_slot_does_not_grow() {
        let size = std::mem::size_of::<Option<SimNode>>();
        assert!(size <= 248, "Option<SimNode> is {size} bytes");
    }

    #[test]
    fn steal_tokens_are_unique_and_increasing() {
        let mut n = node(SimTime::ZERO);
        let a = n.next_steal_token();
        let b = n.next_steal_token();
        assert!(b > a);
    }
}
