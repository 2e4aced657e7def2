//! `perfbench <workload> --seed N --seconds S --trace 0|1 --out FILE
//! [--spans FILE] [--config FILE]`
//!
//! Runs one workload and writes its result record (see
//! `perfbench::report`) to `--out`. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` is the separate traced run that measures the
//! per-layer metrics and writes every span to `--spans`.
//!
//! `perfbench pin --seed N...` prints the deterministic counts of the
//! `des_million` slice for each seed, in the form `config.json` pins them.

use perfbench::des::{self, Pin};
use perfbench::fuzz;
use perfbench::hub::{self, Plan};
use perfbench::layers::{Source, END_TO_END, PER_LAYER};
use perfbench::report::Report;
use perfbench::stats::{median, tail};
use perfbench::trace::{summarize, to_tsv, SpanTotals, Tracer};
use perfbench::{probes, sys, Reading, WorkloadRun};
use sagrid_core::json::{parse_json, JsonValue};
use sagrid_simgrid::GridSim;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

const WORKLOADS: [&str; 3] = ["scenario_fuzz", "des_million", "hub_control_plane"];
/// Seeds of the fuzz pipeline in the probe run other workloads' traces use.
const FUZZ_PROBE_SEEDS: usize = 24;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
    spans: Option<String>,
    config: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let workload = argv.first().ok_or("missing workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv[1..].iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        flags.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<f64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: num("--seconds")?,
        trace: get("--trace")? == "1",
        out: get("--out")?.to_string(),
        spans: flags.get("--spans").map(|s| s.to_string()),
        config: flags.get("--config").map(|s| s.to_string()),
    })
}

/// The pinned `des_million` counts for `seed`, if `config.json` has them.
fn load_pin(config: Option<&str>, seed: u64) -> Result<Option<Pin>, String> {
    let Some(path) = config else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse_json(&text)?;
    let Some(p) = doc
        .get("des_million_pins")
        .and_then(|p| p.get(&seed.to_string()))
    else {
        return Ok(None);
    };
    let n = |k: &str| {
        p.get(k)
            .and_then(JsonValue::as_u64)
            .ok_or(format!("pin {seed}: {k}"))
    };
    Ok(Some(Pin {
        events: n("events")?,
        steal_attempts: n("steal_attempts")?,
        final_nodes: n("final_nodes")?,
    }))
}

fn run_workload(
    a: &Args,
    secs: f64,
    pin: Option<Pin>,
    tracer: Option<&mut Tracer>,
) -> Result<WorkloadRun, String> {
    let budget = Duration::from_secs_f64(secs);
    match a.workload.as_str() {
        "scenario_fuzz" => Ok(fuzz::run(a.seed, fuzz::seeds_for(secs), tracer)),
        "des_million" => Ok(des::run(a.seed, budget, pin, tracer)),
        _ => hub::run(a.seed, Plan::for_budget(secs), tracer),
    }
}

fn absorb(report: &mut Report, w: &WorkloadRun, prefix: &str) {
    report.attempted += w.attempted;
    report.failed += w.failed;
    for c in &w.checks {
        report.check(&format!("{prefix}{}", c.name), c.ok, c.detail.clone());
    }
}

fn untraced(a: &Args, pin: Option<Pin>) -> Result<Report, String> {
    let w = run_workload(a, a.seconds, pin, None)?;
    let mut r = Report::new(&a.workload, a.seed, false);
    absorb(&mut r, &w, "");
    let n = w.op_us.len() as u64;
    for d in END_TO_END {
        let (value, samples, note) = match d.name {
            "setup_s" => (
                median(&w.setup_s),
                w.setup_s.len() as u64,
                format!("median of {} set-up samples", w.setup_s.len()),
            ),
            "peak_rss_mb" => (sys::peak_rss_mb(), 1, "VmHWM".into()),
            "work_per_s" => (w.work_per_s, w.work, w.work_note.into()),
            _ => (w.op_p50_us, n, format!("p50, {}", w.work_note)),
        };
        r.metric(d.name, value, d.unit, samples, &note);
    }
    Ok(r)
}

fn traced(a: &Args, pin: Option<Pin>) -> Result<Report, String> {
    let mut r = Report::new(&a.workload, a.seed, true);
    // Untraced and traced halves of the same workload: their throughput
    // ratio is the tracing overhead.
    let base = run_workload(a, a.seconds / 2.0, pin, None)?;
    absorb(&mut r, &base, "untraced half: ");
    let mut tracer = Tracer::new();
    let w = run_workload(a, a.seconds / 2.0, pin, Some(&mut tracer))?;
    absorb(&mut r, &w, "");
    let mut spans = summarize(tracer.spans());
    if let Some(path) = &a.spans {
        std::fs::write(path, to_tsv(tracer.spans())).map_err(|e| format!("{path}: {e}"))?;
    }

    // Layers this workload does not call are timed by short probe runs.
    let fuzz_probe = (a.workload != "scenario_fuzz").then(|| {
        let mut t = Tracer::new();
        let f = fuzz::run(a.seed, FUZZ_PROBE_SEEDS, Some(&mut t));
        (f, summarize(t.spans()))
    });
    if let Some((f, probe_spans)) = &fuzz_probe {
        absorb(&mut r, f, "fuzz probe: ");
        for (name, totals) in probe_spans {
            spans.entry(name).or_insert(*totals);
        }
    }
    let hub_probe = match a.workload.as_str() {
        "hub_control_plane" => None,
        _ => Some(hub::run(a.seed, Plan::probe(), None)?),
    };
    if let Some(h) = &hub_probe {
        absorb(&mut r, h, "hub probe: ");
    }
    let probes: BTreeMap<String, Reading> = probes::all(a.seed).into_iter().collect();

    let own = |name: &str| -> Option<Reading> {
        w.layer.get(name).cloned().or_else(|| {
            let h = hub_probe.as_ref()?.layer.get(name)?;
            // Only the hub's times come from the probe run; its counts
            // describe the probe, not this workload.
            (h.unit != "count").then(|| Reading {
                note: "hub probe",
                ..h.clone()
            })
        })
    };
    let span_mean = |name: &str, self_time: bool| -> Option<(f64, u64)> {
        let s: &SpanTotals = spans.get(name)?;
        let ns = if self_time { s.self_ns } else { s.total_ns };
        Some((ns as f64 / s.count as f64 / 1e3, s.count))
    };
    let value_of = |name: &str| -> f64 {
        own(name)
            .map(|x| x.value)
            .or_else(|| probes.get(name).map(|x| x.value))
            .unwrap_or(0.0)
    };
    // Engine figures of this workload's own DES runs (none on the hub).
    let run_us = tracer
        .spans()
        .iter()
        .any(|s| s.name == "simgrid.try_run")
        .then(|| span_mean("simgrid.try_run", false).map_or(f64::NAN, |x| x.0));
    let on_wheel = a.workload == "des_million";
    let share = |probe: &str, count: &str| -> f64 {
        run_us.map_or(0.0, |us| {
            value_of(probe) * value_of(count) / (us * 1e3) * 100.0
        })
    };

    for d in PER_LAYER {
        let reading = match d.source {
            Source::Span(span, self_time) => span_mean(span, self_time)
                .map(|(v, n)| {
                    Reading::new(
                        v,
                        d.unit,
                        n,
                        if self_time { "span self time" } else { "span" },
                    )
                })
                .unwrap_or(Reading::new(0.0, d.unit, 0, "not called")),
            Source::Own => own(d.name).unwrap_or(Reading::new(0.0, d.unit, 0, "not called")),
            Source::Probe => probes
                .get(d.name)
                .cloned()
                .ok_or_else(|| format!("probe {} missing", d.name))?,
            Source::Derived => {
                let v = match d.name {
                    "simgrid.ns_per_event" => {
                        let src = if run_us.is_some() {
                            &w
                        } else {
                            &fuzz_probe.as_ref().expect("probe ran").0
                        };
                        let events = src.layer.get("simgrid.events").map_or(0.0, |x| x.value);
                        span_mean("simgrid.try_run", false).map_or(0.0, |(us, _)| us * 1e3 / events)
                    }
                    "est.kernel_share_pct" => share(
                        if on_wheel {
                            "simnet.kernel.push_pop_ns.wheel"
                        } else {
                            "simnet.kernel.push_pop_ns.heap"
                        },
                        "simgrid.events",
                    ),
                    "est.peers_share_pct" => share(
                        if on_wheel {
                            "simgrid.peers.pick_ns.8192x128"
                        } else {
                            "simgrid.peers.pick_ns.3x12"
                        },
                        "simgrid.steal_attempts",
                    ),
                    "est.wire_share_pct" if a.workload == "hub_control_plane" => {
                        let per_relay_ns = value_of("net.wire.decode_ns.StatsReport")
                            + value_of("net.wire.encode_ns.StatsReport")
                            + value_of("net.reactor.feed_ns");
                        per_relay_ns * w.work_per_s / 1e9 * 100.0
                    }
                    "op_p99_us" => tail(&w.op_us, 0.99).value,
                    "trace_overhead_pct" => (base.work_per_s / w.work_per_s - 1.0) * 100.0,
                    _ => 0.0,
                };
                let note = if d.name.starts_with("est.") {
                    "estimate: probe x count / run wall"
                } else {
                    "derived"
                };
                Reading::new(v, d.unit, 1, note)
            }
        };
        r.metric(d.name, reading.value, d.unit, reading.samples, reading.note);
    }
    Ok(r)
}

/// `pin --seed A --seed B ...`: the counts `config.json` pins per seed.
fn pin(argv: &[String]) -> Result<(), String> {
    let seeds: Vec<u64> = argv
        .chunks(2)
        .map(|kv| match kv {
            [k, v] if k == "--seed" => v.parse().map_err(|e| format!("--seed: {e}")),
            _ => Err("usage: perfbench pin --seed N [--seed N ...]".to_string()),
        })
        .collect::<Result<_, _>>()?;
    for seed in seeds {
        let r = GridSim::try_run(perfbench::inputs::des_config(seed, des::SLICE_MS))?;
        println!(
            "\"{seed}\": {{\"events\": {}, \"steal_attempts\": {}, \"final_nodes\": {}}},",
            r.events_processed,
            r.steal_attempts,
            r.final_node_count()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("pin") {
        return match pin(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let result = parse_args(&argv).and_then(|a| {
        let pin = load_pin(a.config.as_deref(), a.seed)?;
        if a.workload == "des_million" && pin.is_none() {
            eprintln!(
                "perfbench: seed {} has no pinned des_million counts; checking repeatability only",
                a.seed
            );
        }
        let report = if a.trace {
            traced(&a, pin)?
        } else {
            untraced(&a, pin)?
        };
        std::fs::write(&a.out, report.to_json()).map_err(|e| format!("{}: {e}", a.out))?;
        Ok(())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
