//! `des_million`: `Scenario::million()` — a 2^20-node grid, CPU load at
//! 2 s, four cluster crashes at 3 s — cut to a bounded slice of virtual
//! time and run with metrics off, single-threaded.
//!
//! One run repeats the whole slice until the time budget is spent, each
//! time after building the engine once on its own (set-up time), and
//! reports the median repetition. The slice is short enough for several
//! repetitions to fit: the engine's speed on this 1.5 GB working set
//! drifts with the memory traffic of a shared host's other tenants over
//! minutes, so the fastest repetition is no steadier than the median (in
//! eight 30 s runs on a 2-vCPU VM, 0.16 against 0.09 of the median
//! between quartiles). Every repetition must reproduce the same counts,
//! and those counts must equal the values pinned for the seed when there
//! are any.

use crate::inputs::des_config;
use crate::stats::median;
use crate::trace::{maybe, Tracer};
use crate::{Reading, WorkloadRun};
use sagrid_simgrid::GridSim;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Virtual time one run of the slice covers, ms: past the 2 s load and
/// the 3 s crashes and through the first wave of the work-stealing storm
/// that follows (about 10 M events, 4.9 M steal attempts).
pub const SLICE_MS: u64 = 4_200;

/// Deterministic counts of one slice run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    /// `RunResult::events_processed`.
    pub events: u64,
    /// `RunResult::steal_attempts`.
    pub steal_attempts: u64,
    /// `RunResult::final_node_count()`.
    pub final_nodes: u64,
}

/// Runs the workload: as many slices as fit in `budget` (at least one).
pub fn run(
    seed: u64,
    budget: Duration,
    pin: Option<Pin>,
    mut tracer: Option<&mut Tracer>,
) -> WorkloadRun {
    let mut w = WorkloadRun {
        work_note: "median slice",
        ..WorkloadRun::default()
    };
    let mut rss_after_setup: f64;
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut seen: Option<Pin> = None;
    let mut detail: Vec<String> = Vec::new();
    let (mut evaluations, mut decided, mut holdfire) = (0usize, 0usize, 0usize);
    loop {
        let t = Instant::now();
        let sim = maybe(&mut tracer, "simgrid.setup", || {
            GridSim::try_new(des_config(seed, SLICE_MS))
        });
        w.setup_s.push(t.elapsed().as_secs_f64());
        rss_after_setup = crate::sys::rss_mb();
        black_box(sim.is_ok());
        // Freed before the slice runs, so the two never share memory.
        drop(sim);

        let cfg = des_config(seed, SLICE_MS);
        let t = Instant::now();
        let r = maybe(&mut tracer, "simgrid.try_run", || GridSim::try_run(cfg));
        let wall = t.elapsed().as_secs_f64();
        w.attempted += 1;
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                w.failed += 1;
                detail.push(e);
                break;
            }
        };
        let got = Pin {
            events: r.events_processed,
            steal_attempts: r.steal_attempts,
            final_nodes: r.final_node_count() as u64,
        };
        let expect = pin.or(seen);
        if !r.timed_out || expect.is_some_and(|p| p != got) {
            w.failed += 1;
            detail.push(format!(
                "got {got:?} timed_out={} want {expect:?}",
                r.timed_out
            ));
        }
        seen = Some(got);
        // One operation is one simulated event; its cost is read per slice.
        w.work += r.events_processed;
        rates.push(r.events_processed as f64 / wall);
        w.op_us.push(wall * 1e6 / r.events_processed.max(1) as f64);
        evaluations = r.decisions.len();
        decided = r
            .decisions
            .iter()
            .filter(|d| d.decision.kind() != "none")
            .count();
        holdfire = r.decisions.iter().filter(|d| d.hold_fire.is_some()).count();
        w.layer(
            "simgrid.events",
            Reading::new(got.events as f64, "count", 1, "per DES run"),
        );
        w.layer(
            "simgrid.steal_attempts",
            Reading::new(got.steal_attempts as f64, "count", 1, "per DES run"),
        );
        w.layer(
            "simgrid.peer_cache_hits",
            Reading::new(r.peer_cache_hits as f64, "count", 1, "per DES run"),
        );
        w.layer(
            "simgrid.final_nodes",
            Reading::new(got.final_nodes as f64, "count", 1, "per DES run"),
        );
        // Stop before a slice that would overrun the budget.
        if start.elapsed() + Duration::from_secs_f64(wall) > budget {
            break;
        }
    }
    w.work_per_s = median(&rates);
    w.op_p50_us = median(&w.op_us);
    w.check(
        match pin {
            Some(_) => "every slice: counts equal the pinned values, timed_out",
            None => "every slice: counts equal across repetitions (seed not pinned), timed_out",
        },
        detail.is_empty(),
        detail.join("; "),
    );
    for (name, v) in [
        ("adapt.evaluations", evaluations),
        ("adapt.decisions", decided),
        ("adapt.holdfire_decisions", holdfire),
    ] {
        w.layer(name, Reading::new(v as f64, "count", 1, "per DES run"));
    }
    // Metrics are off in this workload, so the counts only the registry
    // keeps are not observable; -1 marks them as such.
    for name in ["simgrid.wide_steal_attempts", "sched.grants"] {
        w.layer(
            name,
            Reading::new(-1.0, "count", 0, "not observable, metrics off"),
        );
    }
    w.layer(
        "core.metrics.jsonl_bytes",
        Reading::new(0.0, "bytes", 1, "metrics off"),
    );
    w.layer(
        "simgrid.rss_after_setup_mb",
        Reading::new(rss_after_setup, "MB", 1, "VmRSS"),
    );
    w
}
