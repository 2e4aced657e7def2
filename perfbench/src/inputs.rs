//! Inputs generated from the workload seed. The programs under test see
//! only what these functions produce; the same seed gives the same inputs.

use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
use sagrid_core::stats::{MonitoringReport, OverheadBreakdown};
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_exp::scenarios::Scenario;
use sagrid_simgrid::{AdaptMode, SimConfig};

/// Fuzz seeds of a `scenario_fuzz` run: `[seed, seed + n)`.
pub fn fuzz_seeds(seed: u64) -> impl Iterator<Item = u64> {
    seed..
}

/// The `des_million` configuration: `Scenario::million()` at `seed`, cut
/// to `slice_ms` of virtual time.
pub fn des_config(seed: u64, slice_ms: u64) -> SimConfig {
    let mut scenario = Scenario::million();
    scenario.seed = seed;
    let mut cfg = scenario.config(AdaptMode::Adapt);
    cfg.timing.max_virtual_time = SimDuration::from_millis(slice_ms);
    cfg
}

/// The stream of requests the hub workload sends.
pub struct HubInputs {
    rng: Xoshiro256StarStar,
    clusters: usize,
}

impl HubInputs {
    /// Inputs for a hub of `clusters` clusters.
    pub fn new(seed: u64, clusters: usize) -> Self {
        Self {
            rng: Xoshiro256StarStar::seeded(seed ^ 0x4855_4253_5452_4d00),
            clusters,
        }
    }

    /// The cluster the next churn join asks for.
    pub fn join_cluster(&mut self) -> ClusterId {
        ClusterId(self.rng.gen_index(self.clusters) as u16)
    }

    /// The next statistics report of `node`; `seq` becomes its
    /// `period_end` (µs), which the receiver uses to check order.
    pub fn report(&mut self, node: NodeId, cluster: ClusterId, seq: u64) -> MonitoringReport {
        let mut us = |max: u64| SimDuration::from_micros(self.rng.gen_range(max));
        let breakdown = OverheadBreakdown {
            busy: us(30_000_000),
            idle: us(5_000_000),
            intra_comm: us(2_000_000),
            inter_comm: us(2_000_000),
            benchmark: us(500_000),
        };
        MonitoringReport {
            node,
            cluster,
            period_end: SimTime::from_micros(seq),
            breakdown,
            speed: 0.1 + 0.9 * self.rng.gen_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> (Vec<ClusterId>, Vec<MonitoringReport>) {
        let mut h = HubInputs::new(seed, 2);
        let clusters = (0..64).map(|_| h.join_cluster()).collect();
        let reports = (0..64)
            .map(|i| h.report(NodeId(3), ClusterId(0), i))
            .collect();
        (clusters, reports)
    }

    #[test]
    fn same_seed_same_hub_inputs() {
        assert_eq!(stream(11), stream(11));
        assert_ne!(stream(11), stream(12));
        let (clusters, reports) = stream(11);
        assert!(clusters.iter().all(|c| c.index() < 2));
        assert!(reports
            .iter()
            .enumerate()
            .all(|(i, r)| r.period_end.0 == i as u64));
    }

    #[test]
    fn same_seed_same_fuzz_scenarios() {
        let a: Vec<String> = fuzz_seeds(40)
            .take(3)
            .map(|s| sagrid_scenario::fuzz::generate(s).to_json())
            .collect();
        let b: Vec<String> = fuzz_seeds(40)
            .take(3)
            .map(|s| sagrid_scenario::fuzz::generate(s).to_json())
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn same_seed_same_des_config() {
        let a = des_config(5, 4_500);
        let b = des_config(5, 4_500);
        assert_eq!(a.seed, b.seed);
        assert_eq!(
            a.workload.iterations[0].len(),
            b.workload.iterations[0].len()
        );
        assert_eq!(a.timing.max_virtual_time, SimDuration::from_millis(4_500));
        assert_eq!(a.grid.total_nodes(), 1 << 20);
        assert_ne!(des_config(6, 4_500).seed, a.seed);
    }
}
