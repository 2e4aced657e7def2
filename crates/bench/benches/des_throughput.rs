//! Discrete-event engine throughput: events processed per second of wall
//! time on the scenario 1 (overhead, single cluster) and scenario 4
//! (overloaded WAN link, multi-cluster) workloads, plus the million-node
//! stress scenario (`des_million_node`) exercising the radix-heap queue at
//! 2^20-node scale.
//!
//! Each paper scenario is measured twice — metrics registry off (the
//! default path) and on — so the cost of full instrumentation is tracked
//! as a first-class number. The two variants run *interleaved* and the
//! overhead is the median of per-pair ratios, which cancels the
//! machine-load drift that dominates mean-based comparisons on shared
//! hardware. The budget is < 5% slowdown with metrics on. Throughput is
//! likewise reported from the *median* wall-clock sample: on shared
//! hardware the mean is dragged by scheduling spikes that say nothing
//! about the engine, while the median is stable run-to-run.
//!
//! Writes `BENCH_des_throughput.json` (hand-rolled emitter, no serde) so
//! regressions are diffable in review; `--quick` / `SAGRID_BENCH_QUICK=1`
//! shrinks the sample count for CI smoke runs.

use sagrid_bench::{bench_scenario, fmt_ns, quick_mode, Json};
use sagrid_core::metrics::Metrics;
use sagrid_exp::scenarios::{Scenario, ScenarioId};
use sagrid_simgrid::{AdaptMode, GridSim, RunResult};
use std::hint::black_box;
use std::time::Instant;

fn median(sorted: &[u128]) -> u128 {
    sorted[sorted.len() / 2]
}

fn bench_one(id: ScenarioId, label: &str, samples: u32) -> Json {
    let scenario = bench_scenario(id);
    // The event count is deterministic for a fixed config; one untimed run
    // pins it down so events/sec comes out of pure wall-clock samples.
    let probe: RunResult = GridSim::run(scenario.config(AdaptMode::Adapt));
    let events = probe.events_processed;
    let run_plain = || black_box(GridSim::run(scenario.config(AdaptMode::Adapt)));
    let run_metered = || {
        black_box(
            GridSim::try_run_with_metrics(scenario.config(AdaptMode::Adapt), Metrics::enabled())
                .expect("bench scenario is valid"),
        )
    };
    // Warm both variants, then sample them back-to-back so each pair sees
    // the same machine conditions.
    run_plain();
    run_metered();
    let mut plain_ns: Vec<u128> = Vec::with_capacity(samples as usize);
    let mut metered_ns: Vec<u128> = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let t = Instant::now();
        run_plain();
        plain_ns.push(t.elapsed().as_nanos());
        let t = Instant::now();
        run_metered();
        metered_ns.push(t.elapsed().as_nanos());
    }
    let mean = |xs: &[u128]| xs.iter().sum::<u128>() / xs.len() as u128;
    let (mean_ns, min_ns) = (
        mean(&plain_ns),
        *plain_ns.iter().min().expect("samples > 0"),
    );
    let mean_ns_metrics = mean(&metered_ns);
    let mut ratios: Vec<f64> = plain_ns
        .iter()
        .zip(&metered_ns)
        .map(|(&p, &m)| m as f64 / p as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let overhead_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    plain_ns.sort_unstable();
    let median_ns = median(&plain_ns);
    let events_per_sec = events as f64 / (median_ns as f64 / 1e9);
    println!(
        "{label:<40} median {:>12}   mean {:>12}   min {:>12}   ({samples} samples)",
        fmt_ns(median_ns),
        fmt_ns(mean_ns),
        fmt_ns(min_ns),
    );
    println!(
        "{label:<40} {events} events, {:.0} events/sec (steals {}, peer-cache hits {})",
        events_per_sec, probe.steal_attempts, probe.peer_cache_hits
    );
    println!("{label:<40} metrics-on overhead {overhead_pct:+.2}% (median of pairs, budget < 5%)");
    if overhead_pct >= 5.0 {
        println!("WARNING: {label} metrics overhead {overhead_pct:+.2}% exceeds the 5% budget");
    }
    Json::Obj(vec![
        ("name".into(), Json::Str(label.into())),
        ("events".into(), Json::Int(events as u128)),
        (
            "steal_attempts".into(),
            Json::Int(probe.steal_attempts as u128),
        ),
        (
            "peer_cache_hits".into(),
            Json::Int(probe.peer_cache_hits as u128),
        ),
        ("samples".into(), Json::Int(samples as u128)),
        ("median_ns".into(), Json::Int(median_ns)),
        ("mean_ns".into(), Json::Int(mean_ns)),
        ("min_ns".into(), Json::Int(min_ns)),
        ("mean_ns_metrics".into(), Json::Int(mean_ns_metrics)),
        (
            "metrics_overhead_pct".into(),
            Json::Num((overhead_pct * 100.0).round() / 100.0),
        ),
        ("events_per_sec".into(), Json::Num(events_per_sec.round())),
    ])
}

/// The million-node stress row: 2^20-node grid, crash + load + adaptive
/// growth, measured over a fixed 10 s slice of virtual time (the scenario
/// caps `max_virtual_time`; see `Scenario::million`). One run processes
/// ~50 M events, so there is no untimed probe and no metered variant —
/// each timed sample doubles as the determinism check on the event count.
fn bench_million(samples: u32) -> Json {
    let scenario = Scenario::million();
    let label = "des_million_node";
    let mut ns: Vec<u128> = Vec::with_capacity(samples as usize);
    let mut probe: Option<RunResult> = None;
    for _ in 0..samples {
        let cfg = scenario.config(AdaptMode::Adapt); // built outside the timer
        let t = Instant::now();
        let r = black_box(GridSim::run(cfg));
        ns.push(t.elapsed().as_nanos());
        assert!(
            r.timed_out,
            "million-node bench is a bounded virtual-time slice by design"
        );
        if let Some(p) = &probe {
            assert_eq!(
                p.events_processed, r.events_processed,
                "million-node run must be deterministic"
            );
        }
        probe = Some(r);
    }
    let probe = probe.expect("samples > 0");
    let events = probe.events_processed;
    let mean = ns.iter().sum::<u128>() / ns.len() as u128;
    let min = *ns.iter().min().expect("samples > 0");
    ns.sort_unstable();
    let median_ns = median(&ns);
    let events_per_sec = events as f64 / (median_ns as f64 / 1e9);
    println!(
        "{label:<40} median {:>12}   mean {:>12}   min {:>12}   ({samples} samples)",
        fmt_ns(median_ns),
        fmt_ns(mean),
        fmt_ns(min),
    );
    println!(
        "{label:<40} {events} events, {:.0} events/sec (steals {}, final nodes {})",
        events_per_sec,
        probe.steal_attempts,
        probe.final_node_count()
    );
    Json::Obj(vec![
        ("name".into(), Json::Str(label.into())),
        ("events".into(), Json::Int(events as u128)),
        (
            "steal_attempts".into(),
            Json::Int(probe.steal_attempts as u128),
        ),
        (
            "final_nodes".into(),
            Json::Int(probe.final_node_count() as u128),
        ),
        ("samples".into(), Json::Int(samples as u128)),
        ("median_ns".into(), Json::Int(median_ns)),
        ("mean_ns".into(), Json::Int(mean)),
        ("min_ns".into(), Json::Int(min)),
        ("events_per_sec".into(), Json::Num(events_per_sec.round())),
    ])
}

fn main() {
    let samples = if quick_mode() { 5 } else { 16 };
    let million_samples = if quick_mode() { 1 } else { 3 };
    let runs = vec![
        bench_one(ScenarioId::S1Overhead, "des_scenario1_overhead", samples),
        bench_one(
            ScenarioId::S4OverloadedLink,
            "des_scenario4_wan_link",
            samples,
        ),
        bench_million(million_samples),
    ];
    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("des_throughput".into())),
        ("quick".into(), Json::Str(quick_mode().to_string())),
        ("runs".into(), Json::Arr(runs)),
    ]);
    let path = std::env::var("SAGRID_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_des_throughput.json".to_string());
    std::fs::write(&path, report.pretty()).expect("write benchmark report");
    println!("wrote {path}");
}
