//! Standalone probes of single layers, run in every traced run. Each one
//! times many calls of one public function on generated inputs and
//! reports the mean cost per call.

use crate::Reading;
use sagrid_adapt::{AdaptPolicy, Coordinator};
use sagrid_core::config::GridConfig;
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
use sagrid_core::stats::{MonitoringReport, OverheadBreakdown};
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_net::reactor::{FrameDecoder, Reactor};
use sagrid_net::wire::Message;
use sagrid_registry::{Membership, RegistryConfig};
use sagrid_sched::{AllocPolicy, Requirements, ResourcePool};
use sagrid_simgrid::peers::PeerCache;
use sagrid_simnet::{EventQueue, QueueBackend};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nodes of the `scenario_fuzz` grid (3 × 12).
pub const FUZZ_NODES: usize = 36;
/// Pending events of the heap probe: a bound read from the engine's event
/// kinds, not a measured size (the engine's queue is not visible from
/// outside). A node has at most one pending event that ends its current
/// activity (`Activate`, `TaskComplete`, `BenchmarkDone`, `SendDone`,
/// `RetrySteal`, or the request or reply of its synchronous steal) and at
/// most one asynchronous wide steal in flight: two per node. Superseded
/// retries, results in flight and the few global timers are not counted.
pub const HEAP_PENDING: usize = 2 * FUZZ_NODES;
/// Pending events of the wheel probe: one per node of the million grid.
pub const WHEEL_PENDING: usize = 1 << 20;
/// Hold-model delays are uniform in `[1, horizon]` µs. The horizons are
/// chosen, not measured: the engine's delays run from message latencies
/// through the 20 ms idle-retry back-off (up to 64 times that) to the 3 s
/// detection and 5 s join delays, and their mix is not visible from
/// outside the engine. The heap's cost hardly depends on them; the
/// wheel's does.
pub const HEAP_HORIZON_US: u64 = 100_000;
/// See [`HEAP_HORIZON_US`].
pub const WHEEL_HORIZON_US: u64 = 1_000_000;

fn per_call(elapsed: Duration, calls: usize, scale: f64) -> f64 {
    elapsed.as_secs_f64() * scale / calls as f64
}

/// Hold model: pop the earliest event and push it back a random delay
/// later, keeping `pending` events queued. ns per pop + push pair.
pub fn push_pop_ns(
    backend: QueueBackend,
    pending: usize,
    horizon_us: u64,
    ops: usize,
    seed: u64,
) -> Reading {
    let mut rng = Xoshiro256StarStar::seeded(seed);
    let mut q: EventQueue<u32> = EventQueue::with_backend(backend);
    for i in 0..pending {
        q.push(SimTime::from_micros(rng.gen_range(horizon_us)), i as u32);
    }
    let t = Instant::now();
    for _ in 0..ops {
        let (now, e) = q.pop().expect("hold model keeps the queue full");
        q.push(SimTime(now.0 + 1 + rng.gen_range(horizon_us)), black_box(e));
    }
    Reading::new(
        per_call(t.elapsed(), ops, 1e9),
        "ns",
        ops as u64,
        "probe: hold model, pending size and delays chosen, not measured",
    )
}

/// Victim selection on a grid of `clusters` × `per_cluster` nodes with the
/// first `populated` clusters alive: alternating in-cluster and
/// other-cluster picks, as the cluster-aware steal policy makes them.
/// ns per pick.
pub fn pick_ns(
    clusters: usize,
    per_cluster: usize,
    populated: usize,
    picks: usize,
    seed: u64,
) -> Reading {
    let mut rng = Xoshiro256StarStar::seeded(seed);
    let mut cache = PeerCache::new(clusters, clusters * per_cluster);
    for c in 0..populated {
        for k in 0..per_cluster {
            cache.insert(NodeId((c * per_cluster + k) as u32), ClusterId(c as u16));
        }
    }
    let alive = populated * per_cluster;
    let askers: Vec<(NodeId, ClusterId)> = (0..4096)
        .map(|_| {
            let id = rng.gen_index(alive);
            (NodeId(id as u32), ClusterId((id / per_cluster) as u16))
        })
        .collect();
    let t = Instant::now();
    for i in 0..picks {
        let (of, cluster) = askers[i % askers.len()];
        let v = if i % 2 == 0 {
            cache.pick_in_cluster(of, cluster, &mut rng)
        } else {
            cache.pick_other_cluster(cluster, &mut rng)
        };
        black_box(v);
    }
    Reading::new(
        per_call(t.elapsed(), picks, 1e9),
        "ns",
        picks as u64,
        "probe",
    )
}

/// A period report of `node` whose efficiency sits between the default
/// thresholds, so evaluation decides nothing and the state stays put.
fn steady_report(node: u32, cluster: u16, at: SimTime) -> MonitoringReport {
    MonitoringReport {
        node: NodeId(node),
        cluster: ClusterId(cluster),
        period_end: at,
        breakdown: OverheadBreakdown {
            busy: SimDuration::from_secs(40),
            idle: SimDuration::from_secs(50),
            intra_comm: SimDuration::from_secs(5),
            inter_comm: SimDuration::from_secs(5),
            benchmark: SimDuration::ZERO,
        },
        speed: 1.0,
    }
}

/// `Coordinator::evaluate` with `clusters` × `per_cluster` members
/// reporting (flat coordinator). µs per evaluation.
pub fn evaluate_us(clusters: u16, per_cluster: u32, evals: usize) -> Reading {
    let mut c = Coordinator::new(AdaptPolicy::default());
    let mut busy = Duration::ZERO;
    for i in 0..evals {
        let at = SimTime::from_secs(180 * (i as u64 + 1));
        for cl in 0..clusters {
            for k in 0..per_cluster {
                c.record_report(steady_report(u32::from(cl) * per_cluster + k, cl, at));
            }
        }
        let t = Instant::now();
        black_box(c.evaluate(at, None));
        busy += t.elapsed();
    }
    Reading::new(per_call(busy, evals, 1e6), "us", evals as u64, "probe")
}

/// The control-plane frames of the hub workload, by tag name.
pub fn wire_messages() -> Vec<(&'static str, Message)> {
    let node = NodeId(17);
    vec![
        (
            "Join",
            Message::Join {
                cluster: ClusterId(1),
                claim: None,
            },
        ),
        (
            "JoinAck",
            Message::JoinAck {
                node,
                accepted: true,
                reason: String::new(),
            },
        ),
        (
            "HubEpoch",
            Message::HubEpoch {
                epoch: 1,
                leader: 0,
            },
        ),
        ("Heartbeat", Message::Heartbeat { node }),
        (
            "StatsReport",
            Message::StatsReport {
                report: steady_report(17, 1, SimTime::from_secs(180)),
                bench_micros: 0,
            },
        ),
        ("Leaving", Message::Leaving { node }),
    ]
}

/// `Message::encode` and `Message::decode` of `msg`. ns per call.
pub fn codec_ns(msg: &Message, calls: usize) -> (Reading, Reading) {
    let t = Instant::now();
    for _ in 0..calls {
        black_box(black_box(msg).encode());
    }
    let enc = per_call(t.elapsed(), calls, 1e9);
    let buf = msg.encode();
    let t = Instant::now();
    for _ in 0..calls {
        black_box(Message::decode(black_box(&buf)).ok());
    }
    let dec = per_call(t.elapsed(), calls, 1e9);
    (
        Reading::new(enc, "ns", calls as u64, "probe"),
        Reading::new(dec, "ns", calls as u64, "probe"),
    )
}

/// `FrameDecoder::feed` over a stream of `StatsReport` frames delivered in
/// 64 KiB reads (the reactor's read size). ns per frame.
pub fn feed_ns(frames: usize) -> Reading {
    let (_, msg) = wire_messages().swap_remove(4);
    let frame = Reactor::encode_frame(&msg);
    let batch = 1024;
    let stream: Vec<u8> = (0..batch).flat_map(|_| frame.iter().copied()).collect();
    let mut dec = FrameDecoder::new();
    let mut out = Vec::with_capacity(batch);
    let rounds = frames.div_ceil(batch);
    let t = Instant::now();
    for _ in 0..rounds {
        for chunk in stream.chunks(64 << 10) {
            dec.feed(chunk, &mut out).expect("well-formed frames");
        }
        black_box(&out);
        out.clear();
    }
    Reading::new(
        per_call(t.elapsed(), rounds * batch, 1e9),
        "ns",
        (rounds * batch) as u64,
        "probe",
    )
}

/// `ResourcePool::request` for one node with the hub's pool (its default
/// 2 × 32 grid) and the hub's per-join exclusion set. µs per request.
pub fn pool_request_us(requests: usize, seed: u64) -> Reading {
    let clusters = 2usize;
    let mut pool = ResourcePool::new(&GridConfig::uniform(clusters, 32));
    let mut rng = Xoshiro256StarStar::seeded(seed);
    let none: BTreeSet<NodeId> = BTreeSet::new();
    let mut busy = Duration::ZERO;
    for _ in 0..requests {
        let cluster = ClusterId(rng.gen_index(clusters) as u16);
        let excl: BTreeSet<ClusterId> = (0..clusters)
            .map(|i| ClusterId(i as u16))
            .filter(|c| *c != cluster)
            .collect();
        let t = Instant::now();
        let grants = pool.request(
            1,
            AllocPolicy::LocalityAware,
            &Requirements::default(),
            &none,
            &excl,
            &[cluster],
        );
        busy += t.elapsed();
        for g in grants {
            pool.release(g.node);
        }
    }
    Reading::new(
        per_call(busy, requests, 1e6),
        "us",
        requests as u64,
        "probe",
    )
}

/// `Membership::join` on the hub's registry configuration, node ids
/// recycled as the hub's pool recycles them. µs per join.
pub fn registry_join_us(joins: usize) -> Reading {
    let mut m = Membership::new(RegistryConfig::with_timeout(SimDuration::from_secs(2)));
    let mut busy = Duration::ZERO;
    for i in 0..joins {
        let node = NodeId((i % 64) as u32);
        let at = SimTime::from_micros(i as u64);
        let t = Instant::now();
        m.join(at, node, ClusterId((i % 64 / 32) as u16));
        busy += t.elapsed();
        m.leave(node);
    }
    Reading::new(per_call(busy, joins, 1e6), "us", joins as u64, "probe")
}

/// Every probe, by per-layer metric name.
pub fn all(seed: u64) -> Vec<(String, Reading)> {
    let mut out: Vec<(String, Reading)> = vec![
        (
            "simnet.kernel.push_pop_ns.heap".into(),
            push_pop_ns(
                QueueBackend::Heap,
                HEAP_PENDING,
                HEAP_HORIZON_US,
                2_000_000,
                seed,
            ),
        ),
        (
            "simnet.kernel.push_pop_ns.wheel".into(),
            push_pop_ns(
                QueueBackend::Wheel,
                WHEEL_PENDING,
                WHEEL_HORIZON_US,
                2_000_000,
                seed,
            ),
        ),
        (
            "simgrid.peers.pick_ns.3x12".into(),
            pick_ns(3, 12, 3, 2_000_000, seed),
        ),
        (
            "simgrid.peers.pick_ns.8192x128".into(),
            pick_ns(8_192, 128, 7_680, 2_000_000, seed),
        ),
        ("adapt.evaluate_us".into(), evaluate_us(3, 12, 5_000)),
    ];
    for (tag, msg) in wire_messages() {
        let (enc, dec) = codec_ns(&msg, 200_000);
        out.push((format!("net.wire.encode_ns.{tag}"), enc));
        out.push((format!("net.wire.decode_ns.{tag}"), dec));
    }
    out.push(("net.reactor.feed_ns".into(), feed_ns(500_000)));
    out.push((
        "sched.pool.request_us".into(),
        pool_request_us(100_000, seed),
    ));
    out.push(("registry.join_us".into(), registry_join_us(100_000)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_run_on_small_inputs() {
        for r in [
            push_pop_ns(QueueBackend::Heap, 16, 1_000, 1_000, 1),
            push_pop_ns(QueueBackend::Wheel, 16, 1_000, 1_000, 1),
            pick_ns(3, 12, 3, 1_000, 1),
            evaluate_us(3, 12, 10),
            feed_ns(2_048),
            pool_request_us(100, 1),
            registry_join_us(100),
        ] {
            assert!(r.value > 0.0 && r.value.is_finite(), "{r:?}");
        }
        for (_, msg) in wire_messages() {
            let (e, d) = codec_ns(&msg, 100);
            assert!(e.value > 0.0 && d.value > 0.0);
            assert_eq!(Message::decode(&msg.encode()).expect("round trip"), msg);
        }
    }
}
