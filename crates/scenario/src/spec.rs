//! The declarative scenario format.
//!
//! A scenario file is a single JSON object (parsed with the repo's
//! hand-rolled [`sagrid_core::json`] parser — no external dependencies)
//! describing a grid, an initial layout, a workload size and a list of
//! timed perturbation events. The same file drives both twins:
//!
//! * [`ScenarioSpec::sim_config`] compiles it onto a
//!   [`sagrid_simgrid::SimConfig`] whose [`InjectionSchedule`] the DES
//!   executes, and
//! * `grid-local --scenario-file` (crates/net) maps the same events onto
//!   real worker processes (speed perturbations, SIGKILL crashes, spawns).
//!
//! Primitive event kinds map 1:1 onto [`Injection`] variants; *shape*
//! kinds (`load_ramp`, `square_wave`, `brownout`, `diurnal`,
//! `flash_crowd`) are sugar that [`ScenarioSpec::compile`] lowers to
//! sequences of primitives, so neither engine needs to know about them.
//!
//! [`ScenarioSpec::to_json`] is a *canonical* writer: field order, number
//! formatting (shortest-roundtrip floats) and array layout are fixed, so
//! the same spec always serialises to the same bytes — the property the
//! fuzzer's reproducibility guarantee ("same seed ⇒ byte-identical
//! scenario file") rests on.

use sagrid_adapt::AdaptPolicy;
use sagrid_core::config::GridConfig;
use sagrid_core::ids::ClusterId;
use sagrid_core::json::{parse_json, write_f64, write_json_string, JsonValue};
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_core::workload::barnes_hut_profile;
use sagrid_simgrid::{AdaptMode, SimConfig, StealPolicy, TimingConfig};
use sagrid_simnet::{Injection, InjectionSchedule, ScheduledInjection};
use std::fmt::Write as _;

/// Which grid the scenario runs on.
#[derive(Clone, Debug, PartialEq)]
pub enum GridSpec {
    /// The paper's DAS-2 system (5 clusters: 72 + 4×32 nodes).
    Das2,
    /// `clusters` uniform clusters of `nodes_per_cluster` nodes each.
    Uniform {
        /// Number of clusters.
        clusters: usize,
        /// Nodes per cluster.
        nodes_per_cluster: usize,
    },
}

impl GridSpec {
    /// Builds the concrete grid.
    pub fn build(&self) -> GridConfig {
        match *self {
            GridSpec::Das2 => GridConfig::das2(),
            GridSpec::Uniform {
                clusters,
                nodes_per_cluster,
            } => GridConfig::uniform(clusters, nodes_per_cluster),
        }
    }
}

/// One timed entry of a scenario's event list.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    /// Firing time in virtual microseconds from the start of the run.
    pub at_us: u64,
    /// What happens.
    pub event: EventKind,
}

/// A scenario event: either a primitive perturbation (1:1 with
/// [`Injection`]) or a shape that lowers to a primitive sequence.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// Multiply the effective load of `count` nodes (all if `None`) in
    /// `cluster` by `factor` (1.0 restores).
    CpuLoad {
        /// Affected cluster index.
        cluster: u16,
        /// Nodes affected (`None` = every node of the cluster).
        count: Option<usize>,
        /// Slowdown factor.
        factor: f64,
    },
    /// Set the effective speed of nodes to `speed` (sugar for a CPU load
    /// of `1/speed`; `speed = 1.0` restores full speed).
    Speed {
        /// Affected cluster index.
        cluster: u16,
        /// Nodes affected (`None` = every node of the cluster).
        count: Option<usize>,
        /// New relative speed in `(0, 1]`.
        speed: f64,
    },
    /// Re-shape a cluster's uplink to `bps` bytes/second.
    UplinkBandwidth {
        /// Affected cluster index.
        cluster: u16,
        /// New uplink bandwidth (bytes/second).
        bps: f64,
    },
    /// Crash every node of a cluster (fail-stop site failure).
    CrashCluster {
        /// The crashing cluster.
        cluster: u16,
    },
    /// Crash `count` nodes of `cluster`.
    CrashNodes {
        /// Affected cluster index.
        cluster: u16,
        /// Number of victims.
        count: usize,
    },
    /// SIGKILL the primary hub: a control-plane (not compute) failure.
    /// The DES has no out-of-process hub, so this compiles to no
    /// primitive injection there; process mode (`grid-local`) kills the
    /// hub process and expects a standby to take over. The invariant
    /// checker pairs each injected hub crash with exactly one
    /// `hub_failover` takeover event.
    CrashHub,
    /// Grant `count` extra nodes from the pool (external capacity).
    Grow {
        /// Number of nodes to request.
        count: usize,
        /// Preferred cluster, if any.
        prefer: Option<u16>,
    },
    /// Withdraw `count` nodes of `cluster` gracefully.
    Shrink {
        /// Affected cluster index.
        cluster: u16,
        /// Number of nodes asked to leave.
        count: usize,
    },
    /// Staircase CPU-load ramp from 1.0 up to `to_factor` in `steps`
    /// equal increments spread over `duration_us`.
    LoadRamp {
        /// Affected cluster index.
        cluster: u16,
        /// Nodes affected (`None` = all).
        count: Option<usize>,
        /// Final slowdown factor.
        to_factor: f64,
        /// Number of staircase steps (≥ 1).
        steps: usize,
        /// Ramp length in microseconds.
        duration_us: u64,
    },
    /// Square-wave duty: `factor` for half a period, restored for the
    /// other half, `cycles` times.
    SquareWave {
        /// Affected cluster index.
        cluster: u16,
        /// Nodes affected (`None` = all).
        count: Option<usize>,
        /// Slowdown factor during the high half-period.
        factor: f64,
        /// Full period length in microseconds.
        period_us: u64,
        /// Number of full cycles.
        cycles: usize,
    },
    /// Slow-network brownout: shape the uplink to `bps`, restore the
    /// grid's configured uplink bandwidth after `duration_us`.
    Brownout {
        /// Affected cluster index.
        cluster: u16,
        /// Browned-out uplink bandwidth (bytes/second).
        bps: f64,
        /// Brownout length in microseconds.
        duration_us: u64,
    },
    /// Diurnal load: a sinusoidal staircase between 1.0 and
    /// `peak_factor`, `steps` stairs per cycle, `cycles` cycles.
    Diurnal {
        /// Affected cluster index.
        cluster: u16,
        /// Nodes affected (`None` = all).
        count: Option<usize>,
        /// Load factor at the peak of the wave.
        peak_factor: f64,
        /// Full day-cycle length in microseconds.
        period_us: u64,
        /// Number of cycles.
        cycles: usize,
        /// Staircase steps per cycle (≥ 2).
        steps: usize,
    },
    /// Flash crowd: load spikes to `peak_factor` instantly, then decays
    /// back to 1.0 in `decay_steps` stairs over `decay_us`.
    FlashCrowd {
        /// Affected cluster index.
        cluster: u16,
        /// Nodes affected (`None` = all).
        count: Option<usize>,
        /// Initial spike factor.
        peak_factor: f64,
        /// Decay staircase steps (≥ 1).
        decay_steps: usize,
        /// Decay length in microseconds.
        decay_us: u64,
    },
}

/// A parsed scenario file.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports and generated file names).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// The grid to run on.
    pub grid: GridSpec,
    /// Initial resource set: `(cluster, node count)` pairs.
    pub layout: Vec<(u16, usize)>,
    /// Barnes-Hut iterations.
    pub iterations: usize,
    /// Master RNG seed (workload + engine).
    pub seed: u64,
    /// Node count the workload is sized for (paper default: 36).
    pub target_nodes: usize,
    /// Target seconds per iteration at `target_nodes` (paper default: 10).
    pub target_iter_secs: f64,
    /// Coordinator monitoring period override, in seconds (`None` keeps
    /// the [`AdaptPolicy`] default of 180 s).
    pub monitoring_period_secs: Option<u64>,
    /// The timed perturbations.
    pub events: Vec<TimedEvent>,
}

/// Workload sizing defaults (the paper's "reasonable" configuration).
pub const DEFAULT_TARGET_NODES: usize = 36;
/// Default per-iteration duration target at [`DEFAULT_TARGET_NODES`].
pub const DEFAULT_TARGET_ITER_SECS: f64 = 10.0;

fn secs_to_us(secs: f64) -> Result<u64, String> {
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!("time {secs} must be a finite non-negative number"));
    }
    Ok((secs * 1_000_000.0).round() as u64)
}

fn us_to_secs(us: u64) -> f64 {
    us as f64 / 1_000_000.0
}

fn need_f64(obj: &JsonValue, key: &str, ctx: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("{ctx}: missing/invalid number field \"{key}\""))
}

fn need_u64(obj: &JsonValue, key: &str, ctx: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("{ctx}: missing/invalid integer field \"{key}\""))
}

fn opt_count(obj: &JsonValue) -> Option<usize> {
    obj.get("count")
        .and_then(|v| v.as_u64())
        .map(|n| n as usize)
}

fn need_cluster(obj: &JsonValue, ctx: &str) -> Result<u16, String> {
    Ok(need_u64(obj, "cluster", ctx)? as u16)
}

fn need_secs_us(obj: &JsonValue, key: &str, ctx: &str) -> Result<u64, String> {
    secs_to_us(need_f64(obj, key, ctx)?)
}

impl ScenarioSpec {
    /// Parses a scenario file.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = parse_json(text)?;
        let name = root
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or("scenario: missing string field \"name\"")?
            .to_string();
        let description = root
            .get("description")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string();
        let grid = match root.get("grid") {
            None => GridSpec::Das2,
            Some(g) => {
                if g.as_str() == Some("das2") {
                    GridSpec::Das2
                } else {
                    GridSpec::Uniform {
                        clusters: need_u64(g, "clusters", "grid")? as usize,
                        nodes_per_cluster: need_u64(g, "nodes_per_cluster", "grid")? as usize,
                    }
                }
            }
        };
        let layout_arr = root
            .get("layout")
            .and_then(|v| v.as_arr())
            .ok_or("scenario: missing array field \"layout\"")?;
        let mut layout = Vec::with_capacity(layout_arr.len());
        for (i, pair) in layout_arr.iter().enumerate() {
            let p = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("layout[{i}]: expected [cluster, nodes]"))?;
            let c = p[0]
                .as_u64()
                .ok_or_else(|| format!("layout[{i}]: invalid cluster"))?;
            let n = p[1]
                .as_u64()
                .ok_or_else(|| format!("layout[{i}]: invalid node count"))?;
            layout.push((c as u16, n as usize));
        }
        let iterations = need_u64(&root, "iterations", "scenario")? as usize;
        let seed = need_u64(&root, "seed", "scenario")?;
        let target_nodes = root
            .get("target_nodes")
            .and_then(|v| v.as_u64())
            .map_or(DEFAULT_TARGET_NODES, |n| n as usize);
        let target_iter_secs = root
            .get("target_iter_secs")
            .and_then(|v| v.as_f64())
            .unwrap_or(DEFAULT_TARGET_ITER_SECS);
        let monitoring_period_secs = root.get("monitoring_period_secs").and_then(|v| v.as_u64());
        let mut events = Vec::new();
        if let Some(list) = root.get("events").and_then(|v| v.as_arr()) {
            for (i, e) in list.iter().enumerate() {
                events.push(Self::parse_event(e, i)?);
            }
        }
        Ok(Self {
            name,
            description,
            grid,
            layout,
            iterations,
            seed,
            target_nodes,
            target_iter_secs,
            monitoring_period_secs,
            events,
        })
    }

    fn parse_event(e: &JsonValue, i: usize) -> Result<TimedEvent, String> {
        let ctx = format!("events[{i}]");
        let at_us = need_secs_us(e, "at_secs", &ctx)?;
        let kind = e
            .get("kind")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{ctx}: missing string field \"kind\""))?;
        let event = match kind {
            "cpu_load" => EventKind::CpuLoad {
                cluster: need_cluster(e, &ctx)?,
                count: opt_count(e),
                factor: need_f64(e, "factor", &ctx)?,
            },
            "speed" => {
                let speed = need_f64(e, "speed", &ctx)?;
                if speed <= 0.0 {
                    return Err(format!("{ctx}: speed must be > 0"));
                }
                EventKind::Speed {
                    cluster: need_cluster(e, &ctx)?,
                    count: opt_count(e),
                    speed,
                }
            }
            "uplink_bandwidth" => EventKind::UplinkBandwidth {
                cluster: need_cluster(e, &ctx)?,
                bps: need_f64(e, "bps", &ctx)?,
            },
            "crash_cluster" => EventKind::CrashCluster {
                cluster: need_cluster(e, &ctx)?,
            },
            "crash_nodes" => EventKind::CrashNodes {
                cluster: need_cluster(e, &ctx)?,
                count: need_u64(e, "count", &ctx)? as usize,
            },
            "crash_hub" => EventKind::CrashHub,
            "grow" => EventKind::Grow {
                count: need_u64(e, "count", &ctx)? as usize,
                prefer: e.get("prefer").and_then(|v| v.as_u64()).map(|c| c as u16),
            },
            "shrink" => EventKind::Shrink {
                cluster: need_cluster(e, &ctx)?,
                count: need_u64(e, "count", &ctx)? as usize,
            },
            "load_ramp" => EventKind::LoadRamp {
                cluster: need_cluster(e, &ctx)?,
                count: opt_count(e),
                to_factor: need_f64(e, "to_factor", &ctx)?,
                steps: need_u64(e, "steps", &ctx)?.max(1) as usize,
                duration_us: need_secs_us(e, "duration_secs", &ctx)?,
            },
            "square_wave" => EventKind::SquareWave {
                cluster: need_cluster(e, &ctx)?,
                count: opt_count(e),
                factor: need_f64(e, "factor", &ctx)?,
                period_us: need_secs_us(e, "period_secs", &ctx)?,
                cycles: need_u64(e, "cycles", &ctx)?.max(1) as usize,
            },
            "brownout" => EventKind::Brownout {
                cluster: need_cluster(e, &ctx)?,
                bps: need_f64(e, "bps", &ctx)?,
                duration_us: need_secs_us(e, "duration_secs", &ctx)?,
            },
            "diurnal" => EventKind::Diurnal {
                cluster: need_cluster(e, &ctx)?,
                count: opt_count(e),
                peak_factor: need_f64(e, "peak_factor", &ctx)?,
                period_us: need_secs_us(e, "period_secs", &ctx)?,
                cycles: need_u64(e, "cycles", &ctx)?.max(1) as usize,
                steps: need_u64(e, "steps", &ctx)?.max(2) as usize,
            },
            "flash_crowd" => EventKind::FlashCrowd {
                cluster: need_cluster(e, &ctx)?,
                count: opt_count(e),
                peak_factor: need_f64(e, "peak_factor", &ctx)?,
                decay_steps: need_u64(e, "decay_steps", &ctx)?.max(1) as usize,
                decay_us: need_secs_us(e, "decay_secs", &ctx)?,
            },
            other => return Err(format!("{ctx}: unknown event kind \"{other}\"")),
        };
        Ok(TimedEvent { at_us, event })
    }

    /// Serialises the spec back to its canonical JSON form: fixed field
    /// order, shortest-roundtrip floats, one line per event. Parsing the
    /// output yields an equal spec; writing an equal spec yields equal
    /// bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 96);
        out.push_str("{\n  \"name\": ");
        write_json_string(&mut out, &self.name);
        out.push_str(",\n  \"description\": ");
        write_json_string(&mut out, &self.description);
        out.push_str(",\n  \"grid\": ");
        match self.grid {
            GridSpec::Das2 => out.push_str("\"das2\""),
            GridSpec::Uniform {
                clusters,
                nodes_per_cluster,
            } => {
                let _ = write!(
                    out,
                    "{{\"clusters\": {clusters}, \"nodes_per_cluster\": {nodes_per_cluster}}}"
                );
            }
        }
        out.push_str(",\n  \"layout\": [");
        for (i, &(c, n)) in self.layout.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{c}, {n}]");
        }
        let _ = write!(out, "],\n  \"iterations\": {},", self.iterations);
        let _ = write!(out, "\n  \"seed\": {},", self.seed);
        let _ = write!(out, "\n  \"target_nodes\": {},", self.target_nodes);
        out.push_str("\n  \"target_iter_secs\": ");
        write_f64(&mut out, self.target_iter_secs);
        if let Some(p) = self.monitoring_period_secs {
            let _ = write!(out, ",\n  \"monitoring_period_secs\": {p}");
        }
        out.push_str(",\n  \"events\": [");
        for (i, ev) in self.events.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            Self::write_event(&mut out, ev);
        }
        if self.events.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }

    fn write_event(out: &mut String, ev: &TimedEvent) {
        out.push_str("{\"at_secs\": ");
        write_f64(out, us_to_secs(ev.at_us));
        out.push_str(", \"kind\": ");
        let field_f64 = |out: &mut String, key: &str, v: f64| {
            let _ = write!(out, ", \"{key}\": ");
            write_f64(out, v);
        };
        let write_count = |out: &mut String, count: Option<usize>| {
            if let Some(n) = count {
                let _ = write!(out, ", \"count\": {n}");
            }
        };
        match &ev.event {
            EventKind::CpuLoad {
                cluster,
                count,
                factor,
            } => {
                let _ = write!(out, "\"cpu_load\", \"cluster\": {cluster}");
                write_count(out, *count);
                field_f64(out, "factor", *factor);
            }
            EventKind::Speed {
                cluster,
                count,
                speed,
            } => {
                let _ = write!(out, "\"speed\", \"cluster\": {cluster}");
                write_count(out, *count);
                field_f64(out, "speed", *speed);
            }
            EventKind::UplinkBandwidth { cluster, bps } => {
                let _ = write!(out, "\"uplink_bandwidth\", \"cluster\": {cluster}");
                field_f64(out, "bps", *bps);
            }
            EventKind::CrashCluster { cluster } => {
                let _ = write!(out, "\"crash_cluster\", \"cluster\": {cluster}");
            }
            EventKind::CrashNodes { cluster, count } => {
                let _ = write!(
                    out,
                    "\"crash_nodes\", \"cluster\": {cluster}, \"count\": {count}"
                );
            }
            EventKind::CrashHub => {
                out.push_str("\"crash_hub\"");
            }
            EventKind::Grow { count, prefer } => {
                let _ = write!(out, "\"grow\", \"count\": {count}");
                if let Some(p) = prefer {
                    let _ = write!(out, ", \"prefer\": {p}");
                }
            }
            EventKind::Shrink { cluster, count } => {
                let _ = write!(
                    out,
                    "\"shrink\", \"cluster\": {cluster}, \"count\": {count}"
                );
            }
            EventKind::LoadRamp {
                cluster,
                count,
                to_factor,
                steps,
                duration_us,
            } => {
                let _ = write!(out, "\"load_ramp\", \"cluster\": {cluster}");
                write_count(out, *count);
                field_f64(out, "to_factor", *to_factor);
                let _ = write!(out, ", \"steps\": {steps}");
                field_f64(out, "duration_secs", us_to_secs(*duration_us));
            }
            EventKind::SquareWave {
                cluster,
                count,
                factor,
                period_us,
                cycles,
            } => {
                let _ = write!(out, "\"square_wave\", \"cluster\": {cluster}");
                write_count(out, *count);
                field_f64(out, "factor", *factor);
                field_f64(out, "period_secs", us_to_secs(*period_us));
                let _ = write!(out, ", \"cycles\": {cycles}");
            }
            EventKind::Brownout {
                cluster,
                bps,
                duration_us,
            } => {
                let _ = write!(out, "\"brownout\", \"cluster\": {cluster}");
                field_f64(out, "bps", *bps);
                field_f64(out, "duration_secs", us_to_secs(*duration_us));
            }
            EventKind::Diurnal {
                cluster,
                count,
                peak_factor,
                period_us,
                cycles,
                steps,
            } => {
                let _ = write!(out, "\"diurnal\", \"cluster\": {cluster}");
                write_count(out, *count);
                field_f64(out, "peak_factor", *peak_factor);
                field_f64(out, "period_secs", us_to_secs(*period_us));
                let _ = write!(out, ", \"cycles\": {cycles}, \"steps\": {steps}");
            }
            EventKind::FlashCrowd {
                cluster,
                count,
                peak_factor,
                decay_steps,
                decay_us,
            } => {
                let _ = write!(out, "\"flash_crowd\", \"cluster\": {cluster}");
                write_count(out, *count);
                field_f64(out, "peak_factor", *peak_factor);
                let _ = write!(out, ", \"decay_steps\": {decay_steps}");
                field_f64(out, "decay_secs", us_to_secs(*decay_us));
            }
        }
        out.push('}');
    }

    /// Lowers every event to primitive [`Injection`]s, in file order
    /// (shape events expand in place, so same-time primitives keep the
    /// file's ordering — the property scenario 5 depends on).
    pub fn compile(&self, grid: &GridConfig) -> Result<Vec<ScheduledInjection>, String> {
        let mut out = Vec::with_capacity(self.events.len());
        let mut push = |at_us: u64, injection: Injection| {
            out.push(ScheduledInjection {
                at: SimTime(at_us),
                injection,
            });
        };
        for (i, ev) in self.events.iter().enumerate() {
            let cluster_of = |c: u16| -> Result<ClusterId, String> {
                if (c as usize) < grid.clusters.len() {
                    Ok(ClusterId(c))
                } else {
                    Err(format!("events[{i}]: cluster {c} not in grid"))
                }
            };
            match ev.event.clone() {
                EventKind::CpuLoad {
                    cluster,
                    count,
                    factor,
                } => push(
                    ev.at_us,
                    Injection::CpuLoad {
                        cluster: cluster_of(cluster)?,
                        count,
                        factor,
                    },
                ),
                EventKind::Speed {
                    cluster,
                    count,
                    speed,
                } => push(
                    ev.at_us,
                    Injection::CpuLoad {
                        cluster: cluster_of(cluster)?,
                        count,
                        factor: 1.0 / speed,
                    },
                ),
                EventKind::UplinkBandwidth { cluster, bps } => push(
                    ev.at_us,
                    Injection::UplinkBandwidth {
                        cluster: cluster_of(cluster)?,
                        bandwidth_bps: bps,
                    },
                ),
                EventKind::CrashCluster { cluster } => push(
                    ev.at_us,
                    Injection::CrashCluster {
                        cluster: cluster_of(cluster)?,
                    },
                ),
                EventKind::CrashNodes { cluster, count } => push(
                    ev.at_us,
                    Injection::CrashNodes {
                        cluster: cluster_of(cluster)?,
                        count,
                    },
                ),
                // The in-process DES *is* its own control plane — there is
                // no hub process to kill — so a hub crash lowers to no
                // primitive injection and the DES twin trivially satisfies
                // the hub-failover invariant (no injection, no takeover).
                EventKind::CrashHub => {}
                EventKind::Grow { count, prefer } => {
                    let prefer = match prefer {
                        Some(c) => Some(cluster_of(c)?),
                        None => None,
                    };
                    push(ev.at_us, Injection::Grow { count, prefer });
                }
                EventKind::Shrink { cluster, count } => push(
                    ev.at_us,
                    Injection::Shrink {
                        cluster: cluster_of(cluster)?,
                        count,
                    },
                ),
                EventKind::LoadRamp {
                    cluster,
                    count,
                    to_factor,
                    steps,
                    duration_us,
                } => {
                    let cluster = cluster_of(cluster)?;
                    for s in 0..steps {
                        let frac = (s + 1) as f64 / steps as f64;
                        push(
                            ev.at_us + duration_us * s as u64 / steps as u64,
                            Injection::CpuLoad {
                                cluster,
                                count,
                                factor: 1.0 + (to_factor - 1.0) * frac,
                            },
                        );
                    }
                }
                EventKind::SquareWave {
                    cluster,
                    count,
                    factor,
                    period_us,
                    cycles,
                } => {
                    let cluster = cluster_of(cluster)?;
                    for c in 0..cycles as u64 {
                        push(
                            ev.at_us + c * period_us,
                            Injection::CpuLoad {
                                cluster,
                                count,
                                factor,
                            },
                        );
                        push(
                            ev.at_us + c * period_us + period_us / 2,
                            Injection::CpuLoad {
                                cluster,
                                count,
                                factor: 1.0,
                            },
                        );
                    }
                }
                EventKind::Brownout {
                    cluster,
                    bps,
                    duration_us,
                } => {
                    let cluster = cluster_of(cluster)?;
                    let restore = grid.clusters[cluster.index()].uplink.bandwidth_bps;
                    push(
                        ev.at_us,
                        Injection::UplinkBandwidth {
                            cluster,
                            bandwidth_bps: bps,
                        },
                    );
                    push(
                        ev.at_us + duration_us,
                        Injection::UplinkBandwidth {
                            cluster,
                            bandwidth_bps: restore,
                        },
                    );
                }
                EventKind::Diurnal {
                    cluster,
                    count,
                    peak_factor,
                    period_us,
                    cycles,
                    steps,
                } => {
                    let cluster = cluster_of(cluster)?;
                    for c in 0..cycles {
                        for s in 0..steps {
                            let phase = s as f64 / steps as f64;
                            // Raised cosine: starts and ends each cycle at
                            // factor 1.0, peaks mid-cycle.
                            let wave = 0.5 - 0.5 * (2.0 * std::f64::consts::PI * phase).cos();
                            push(
                                ev.at_us
                                    + period_us * c as u64
                                    + period_us * s as u64 / steps as u64,
                                Injection::CpuLoad {
                                    cluster,
                                    count,
                                    factor: 1.0 + (peak_factor - 1.0) * wave,
                                },
                            );
                        }
                    }
                    // Restore after the final cycle.
                    push(
                        ev.at_us + period_us * cycles as u64,
                        Injection::CpuLoad {
                            cluster,
                            count,
                            factor: 1.0,
                        },
                    );
                }
                EventKind::FlashCrowd {
                    cluster,
                    count,
                    peak_factor,
                    decay_steps,
                    decay_us,
                } => {
                    let cluster = cluster_of(cluster)?;
                    for s in 0..=decay_steps {
                        let frac = 1.0 - s as f64 / decay_steps as f64;
                        push(
                            ev.at_us + decay_us * s as u64 / decay_steps as u64,
                            Injection::CpuLoad {
                                cluster,
                                count,
                                factor: 1.0 + (peak_factor - 1.0) * frac,
                            },
                        );
                    }
                }
            }
        }
        Ok(out)
    }

    /// Compiles the full DES configuration for this scenario.
    pub fn sim_config(&self, mode: AdaptMode) -> Result<SimConfig, String> {
        let grid = self.grid.build();
        let injections = InjectionSchedule::new(self.compile(&grid)?);
        let mut policy = AdaptPolicy::default();
        if let Some(p) = self.monitoring_period_secs {
            policy.monitoring_period = SimDuration::from_secs(p);
        }
        let workload = barnes_hut_profile(
            self.iterations,
            self.target_nodes,
            self.target_iter_secs,
            self.seed,
        );
        let cfg = SimConfig {
            grid,
            policy,
            initial_layout: self
                .layout
                .iter()
                .map(|&(c, n)| (ClusterId(c), n))
                .collect(),
            workload,
            injections,
            mode,
            steal_policy: StealPolicy::ClusterAware,
            timing: TimingConfig::default(),
            record_trace: false,
            feedback_tuning: false,
            hierarchical_coordinator: false,
            queue_backend: Default::default(),
            seed: self.seed,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioSpec {
        ScenarioSpec {
            name: "sample".into(),
            description: "round-trip \"fixture\"".into(),
            grid: GridSpec::Uniform {
                clusters: 3,
                nodes_per_cluster: 12,
            },
            layout: vec![(0, 12), (1, 12), (2, 8)],
            iterations: 10,
            seed: 77,
            target_nodes: 36,
            target_iter_secs: 10.0,
            monitoring_period_secs: Some(60),
            events: vec![
                TimedEvent {
                    at_us: 0,
                    event: EventKind::UplinkBandwidth {
                        cluster: 2,
                        bps: 100_000.0,
                    },
                },
                TimedEvent {
                    at_us: 12_500_000,
                    event: EventKind::Speed {
                        cluster: 1,
                        count: Some(4),
                        speed: 0.25,
                    },
                },
                TimedEvent {
                    at_us: 30_000_000,
                    event: EventKind::SquareWave {
                        cluster: 1,
                        count: None,
                        factor: 5.0,
                        period_us: 20_000_000,
                        cycles: 2,
                    },
                },
                TimedEvent {
                    at_us: 40_000_000,
                    event: EventKind::Grow {
                        count: 4,
                        prefer: Some(0),
                    },
                },
            ],
        }
    }

    #[test]
    fn canonical_json_round_trips_to_equal_spec_and_equal_bytes() {
        let spec = sample();
        let json = spec.to_json();
        let parsed = ScenarioSpec::parse(&json).expect("canonical output parses");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_json(), json, "writer is canonical");
    }

    #[test]
    fn speed_event_compiles_to_reciprocal_cpu_load() {
        let spec = sample();
        let grid = spec.grid.build();
        let compiled = spec.compile(&grid).unwrap();
        assert_eq!(
            compiled[1].injection,
            Injection::CpuLoad {
                cluster: ClusterId(1),
                count: Some(4),
                factor: 4.0,
            }
        );
    }

    #[test]
    fn square_wave_alternates_factor_and_restore() {
        let spec = sample();
        let grid = spec.grid.build();
        let compiled = spec.compile(&grid).unwrap();
        let wave: Vec<_> = compiled
            .iter()
            .filter(|s| s.at.0 >= 30_000_000 && matches!(s.injection, Injection::CpuLoad { .. }))
            .collect();
        assert_eq!(wave.len(), 4);
        assert_eq!(
            (wave[0].at.0, wave[1].at.0, wave[2].at.0, wave[3].at.0),
            (30_000_000, 40_000_000, 50_000_000, 60_000_000)
        );
        for (i, s) in wave.iter().enumerate() {
            let Injection::CpuLoad { factor, .. } = s.injection else {
                unreachable!()
            };
            assert_eq!(factor, if i % 2 == 0 { 5.0 } else { 1.0 });
        }
    }

    #[test]
    fn brownout_restores_the_grid_uplink() {
        let mut spec = sample();
        spec.events = vec![TimedEvent {
            at_us: 5_000_000,
            event: EventKind::Brownout {
                cluster: 1,
                bps: 50_000.0,
                duration_us: 10_000_000,
            },
        }];
        let grid = spec.grid.build();
        let compiled = spec.compile(&grid).unwrap();
        assert_eq!(compiled.len(), 2);
        let Injection::UplinkBandwidth { bandwidth_bps, .. } = compiled[1].injection else {
            panic!("expected restore injection")
        };
        assert_eq!(bandwidth_bps, grid.clusters[1].uplink.bandwidth_bps);
        assert_eq!(compiled[1].at.0, 15_000_000);
    }

    #[test]
    fn unknown_kind_and_bad_cluster_are_rejected() {
        let bad_kind = r#"{"name":"x","layout":[[0,4]],"iterations":1,"seed":1,
            "events":[{"at_secs":1,"kind":"meteor_strike"}]}"#;
        assert!(ScenarioSpec::parse(bad_kind)
            .unwrap_err()
            .contains("unknown event kind"));
        let bad_cluster = ScenarioSpec {
            events: vec![TimedEvent {
                at_us: 0,
                event: EventKind::CrashCluster { cluster: 9 },
            }],
            ..sample()
        };
        let grid = bad_cluster.grid.build();
        assert!(bad_cluster.compile(&grid).is_err());
    }

    #[test]
    fn sim_config_validates_and_carries_injections() {
        let cfg = sample().sim_config(AdaptMode::Adapt).unwrap();
        assert_eq!(cfg.initial_nodes(), 32);
        assert!(cfg.injections.remaining() > 0);
        assert_eq!(cfg.policy.monitoring_period, SimDuration::from_secs(60));
    }
}
