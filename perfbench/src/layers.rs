//! The metric tables: end-to-end metrics of the untraced run and
//! per-layer metrics of the traced run, with where each value comes from.
//! `BENCHMARK.json` lists the same names, units and directions (a test
//! keeps them in step); `README.md` maps each per-layer metric to the
//! end-to-end metric and workload it should move.

/// Where a per-layer value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Mean wall time of the named span, or its mean self time when the
    /// flag is set.
    Span(&'static str, bool),
    /// A reading the workload takes itself; 0 when it does not use the
    /// layer (counts) or taken by a short probe run of the hub (times).
    Own,
    /// A standalone probe ([`crate::probes`]).
    Probe,
    /// Computed in the traced run from the other values.
    Derived,
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Where the value comes from.
    pub source: Source,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        source,
    }
}

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [MetricDef; 4] = [
    m("setup_s", "s", "lower", Source::Own),
    m("peak_rss_mb", "MB", "lower", Source::Own),
    m("work_per_s", "1/s", "higher", Source::Own),
    m("op_p50_us", "us", "lower", Source::Own),
];

use Source::{Derived, Own, Probe, Span};

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: [MetricDef; 57] = [
    // Scenario layer and the fuzz pipeline around the engine.
    m(
        "scenario.generate_us",
        "us",
        "lower",
        Span("scenario.generate", false),
    ),
    m(
        "scenario.to_json_us",
        "us",
        "lower",
        Span("scenario.to_json", false),
    ),
    m(
        "scenario.sim_config_us",
        "us",
        "lower",
        Span("scenario.sim_config", false),
    ),
    m(
        "scenario.check_jsonl_us",
        "us",
        "lower",
        Span("scenario.check_jsonl", false),
    ),
    m(
        "scenario.seed_self_us",
        "us",
        "lower",
        Span("scenario.seed", true),
    ),
    m(
        "core.metrics.to_jsonl_us",
        "us",
        "lower",
        Span("core.metrics.to_jsonl", false),
    ),
    m("core.metrics.jsonl_bytes", "bytes", "lower", Own),
    // Engine.
    m(
        "simgrid.setup_us",
        "us",
        "lower",
        Span("simgrid.setup", false),
    ),
    m(
        "simgrid.run_us",
        "us",
        "lower",
        Span("simgrid.try_run", false),
    ),
    m("simgrid.ns_per_event", "ns", "lower", Derived),
    m("simgrid.rss_after_setup_mb", "MB", "lower", Own),
    m("simgrid.events", "count", "lower", Own),
    m("simgrid.steal_attempts", "count", "lower", Own),
    m("simgrid.wide_steal_attempts", "count", "lower", Own),
    m("simgrid.peer_cache_hits", "count", "higher", Own),
    m("simgrid.final_nodes", "count", "higher", Own),
    m("adapt.evaluations", "count", "lower", Own),
    m("adapt.decisions", "count", "lower", Own),
    m("adapt.holdfire_decisions", "count", "lower", Own),
    m("sched.grants", "count", "lower", Own),
    // Kernel, peer cache and coordinator probes.
    m("simnet.kernel.push_pop_ns.heap", "ns", "lower", Probe),
    m("simnet.kernel.push_pop_ns.wheel", "ns", "lower", Probe),
    m("simgrid.peers.pick_ns.3x12", "ns", "lower", Probe),
    m("simgrid.peers.pick_ns.8192x128", "ns", "lower", Probe),
    m("adapt.evaluate_us", "us", "lower", Probe),
    // Hub, reactor and codec.
    m("net.hub.cpu_us_per_join", "us", "lower", Own),
    m("net.hub.cpu_us_per_relay", "us", "lower", Own),
    m("bench.client.cpu_us_per_relay", "us", "lower", Own),
    m("net.relay_p50_us", "us", "lower", Own),
    m("net.relay_tail_us", "us", "lower", Own),
    m("net.reactor.loop_latency_us.p50", "us", "lower", Own),
    m("net.reactor.loop_latency_us.p99", "us", "lower", Own),
    m("net.joins", "count", "higher", Own),
    m("net.stats_forwarded", "count", "higher", Own),
    m("net.heartbeats", "count", "lower", Own),
    m("net.reactor.accepts", "count", "lower", Own),
    m("net.reactor.backpressure_drops", "count", "lower", Own),
    m("net.wire.encode_ns.Join", "ns", "lower", Probe),
    m("net.wire.decode_ns.Join", "ns", "lower", Probe),
    m("net.wire.encode_ns.JoinAck", "ns", "lower", Probe),
    m("net.wire.decode_ns.JoinAck", "ns", "lower", Probe),
    m("net.wire.encode_ns.HubEpoch", "ns", "lower", Probe),
    m("net.wire.decode_ns.HubEpoch", "ns", "lower", Probe),
    m("net.wire.encode_ns.Heartbeat", "ns", "lower", Probe),
    m("net.wire.decode_ns.Heartbeat", "ns", "lower", Probe),
    m("net.wire.encode_ns.StatsReport", "ns", "lower", Probe),
    m("net.wire.decode_ns.StatsReport", "ns", "lower", Probe),
    m("net.wire.encode_ns.Leaving", "ns", "lower", Probe),
    m("net.wire.decode_ns.Leaving", "ns", "lower", Probe),
    m("net.reactor.feed_ns", "ns", "lower", Probe),
    m("sched.pool.request_us", "us", "lower", Probe),
    m("registry.join_us", "us", "lower", Probe),
    // Upper-bound estimates of a layer's share of the run, and tracing cost.
    m("est.kernel_share_pct", "%", "lower", Derived),
    m("est.peers_share_pct", "%", "lower", Derived),
    m("est.wire_share_pct", "%", "lower", Derived),
    m("op_p99_us", "us", "lower", Derived),
    m("trace_overhead_pct", "%", "lower", Derived),
];

#[cfg(test)]
mod tests {
    use super::*;
    use sagrid_core::json::{parse_json, JsonValue};

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("list")
            .iter()
            .map(|e| {
                let s = |k: &str| {
                    e.get(k)
                        .and_then(JsonValue::as_str)
                        .expect("field")
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = parse_json(&text).expect("valid JSON");
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER
            .iter()
            .chain(&END_TO_END)
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
