//! `perfbench`: the end-to-end and per-layer benchmark of `sagrid`.
//!
//! Three workloads ([`fuzz`], [`des`], [`hub`]) drive the repository's
//! crates through their public functions only. An untraced run yields the
//! end-to-end metrics; a separate traced run records spans around every
//! layer call ([`trace`]), adds standalone probes of single layers
//! ([`probes`]) and yields the per-layer metrics ([`layers`]).

pub mod des;
pub mod fuzz;
pub mod hub;
pub mod inputs;
pub mod layers;
pub mod probes;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;

use report::Check;
use std::collections::BTreeMap;

/// A per-layer reading: value, unit, samples behind it, and how it was taken.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    /// The number.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it.
    pub samples: u64,
    /// How it was taken (`span`, `probe`, `count`, ...).
    pub note: &'static str,
}

impl Reading {
    /// A reading of `value` in `unit`.
    pub fn new(value: f64, unit: &'static str, samples: u64, note: &'static str) -> Self {
        Self {
            value,
            unit,
            samples,
            note,
        }
    }
}

/// What one workload run measured, before it is turned into a report.
#[derive(Clone, Debug, Default)]
pub struct WorkloadRun {
    /// Set-up time samples, s; their median is reported.
    pub setup_s: Vec<f64>,
    /// Throughput: units of work per second, read over the repetitions of
    /// the work the run repeats as `work_note` says.
    pub work_per_s: f64,
    /// Units of work behind `work_per_s`.
    pub work: u64,
    /// Median time of one operation, µs, read the same way.
    pub op_p50_us: f64,
    /// How `work_per_s` and `op_p50_us` were read.
    pub work_note: &'static str,
    /// Every operation time sample, µs; tails are taken from these.
    pub op_us: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Per-layer readings this workload took itself.
    pub layer: BTreeMap<&'static str, Reading>,
}

impl WorkloadRun {
    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Records a per-layer reading.
    pub fn layer(&mut self, name: &'static str, r: Reading) {
        self.layer.insert(name, r);
    }
}
