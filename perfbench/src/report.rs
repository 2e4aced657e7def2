//! The result record one workload run writes, in the repository's own
//! JSON dialect (`sagrid_core::json`), so it round-trips through the same
//! parser every other layer uses.

use sagrid_core::json::{parse_json, write_f64, write_json_string, JsonValue};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `us` or `count`.
    pub unit: String,
    /// Samples behind the value (1 for a single reading).
    pub samples: u64,
    /// How the value was taken, e.g. `p99` or `probe`.
    pub note: String,
}

/// One correctness check and its verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed versus expected, for a failing check.
    pub detail: String,
}

/// Everything one run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// The seed the inputs were generated from.
    pub seed: u64,
    /// Whether this was the traced (per-layer) run.
    pub trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The numbers.
    pub metrics: Vec<Metric>,
    /// The correctness checks.
    pub checks: Vec<Check>,
}

impl Report {
    /// An empty report for `workload` at `seed`.
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        Self {
            workload: workload.into(),
            seed,
            trace,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: u64, note: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            samples,
            note: note.into(),
        });
    }

    /// Appends a check; a failing check with no failed operation behind it
    /// still makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// True when every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Serialises the report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\"workload\":");
        write_json_string(&mut o, &self.workload);
        o.push_str(&format!(
            ",\"seed\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":[",
            self.seed,
            self.trace,
            self.correct(),
            self.attempted,
            self.failed
        ));
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"name\":");
            write_json_string(&mut o, &m.name);
            o.push_str(",\"value\":");
            write_f64(&mut o, m.value);
            o.push_str(",\"unit\":");
            write_json_string(&mut o, &m.unit);
            o.push_str(&format!(",\"samples\":{},\"note\":", m.samples));
            write_json_string(&mut o, &m.note);
            o.push('}');
        }
        o.push_str("],\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"name\":");
            write_json_string(&mut o, &c.name);
            o.push_str(&format!(",\"ok\":{},\"detail\":", c.ok));
            write_json_string(&mut o, &c.detail);
            o.push('}');
        }
        o.push_str("]}");
        o
    }

    /// Parses what [`Report::to_json`] wrote.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = parse_json(text)?;
        let str_of = |v: &JsonValue, k: &str| {
            v.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string {k}"))
        };
        let u64_of = |v: &JsonValue, k: &str| {
            v.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing integer {k}"))
        };
        let arr_of = |v: &JsonValue, k: &str| -> Result<Vec<JsonValue>, String> {
            v.get(k)
                .and_then(JsonValue::as_arr)
                .map(<[JsonValue]>::to_vec)
                .ok_or_else(|| format!("missing array {k}"))
        };
        let metrics = arr_of(&v, "metrics")?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: str_of(m, "name")?,
                    // `null` stands for a non-finite value.
                    value: m
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(f64::NAN),
                    unit: str_of(m, "unit")?,
                    samples: u64_of(m, "samples")?,
                    note: str_of(m, "note")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let checks = arr_of(&v, "checks")?
            .iter()
            .map(|c| {
                Ok(Check {
                    name: str_of(c, "name")?,
                    ok: c
                        .get("ok")
                        .and_then(JsonValue::as_bool)
                        .ok_or("missing ok")?,
                    detail: str_of(c, "detail")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Report {
            workload: str_of(&v, "workload")?,
            seed: u64_of(&v, "seed")?,
            trace: v
                .get("trace")
                .and_then(JsonValue::as_bool)
                .ok_or("missing trace")?,
            attempted: u64_of(&v, "attempted")?,
            failed: u64_of(&v, "failed")?,
            metrics,
            checks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_core_json() {
        let mut r = Report::new("hub_control_plane", 7, false);
        r.attempted = 12_345;
        r.failed = 0;
        r.metric("op_p50_us", 61.234_567_891, "us", 8000, "p50");
        r.metric("setup_s", 0.000_812_7, "s", 9, "median");
        r.metric("peak_rss_mb", 2_412.25, "MB", 1, "VmHWM");
        r.check("every join accepted", true, "");
        r.check("quoted \"detail\"\n", true, "tab\there");
        let text = r.to_json();
        let back = Report::from_json(&text).expect("parses");
        assert_eq!(back, r);
        assert!(text.contains("\"correct\":true"));
    }

    #[test]
    fn failing_check_makes_run_incorrect() {
        let mut r = Report::new("des_million", 1, true);
        assert!(r.correct());
        r.check("events pinned", false, "got 1 want 2");
        assert!(!r.correct());
        let back = Report::from_json(&r.to_json()).expect("parses");
        assert!(!back.correct());
    }
}
