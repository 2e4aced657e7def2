//! The checked-in files under `scenarios/` are the data form of the
//! paper's hand-coded perturbation schedules and of the process twin's
//! probed scenarios. Three contracts hold:
//!
//! * every file is in the canonical form `ScenarioSpec::to_json`
//!   produces (parse → re-serialise is the identity on the bytes),
//! * every file passes the adaptation invariants on the DES, and
//! * the paper files, which `Scenario::config` compiles, drive the DES to
//!   the JSONL traces pinned by digest below (taken from the hand-coded
//!   schedules the files replaced, so the switch changed no byte).

use sagrid_core::metrics::Metrics;
use sagrid_exp::scenarios::{Scenario, ScenarioId, SubScenario};
use sagrid_scenario::{check_jsonl, InvariantConfig, ScenarioSpec};
use sagrid_simgrid::{AdaptMode, GridSim, SimConfig};
use std::path::PathBuf;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Every checked-in `*.json` file name, sorted, so a new file cannot be
/// missed.
fn all_files() -> Vec<String> {
    let dir = scenarios_dir();
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("listing {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.ends_with(".json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no scenario files in {}", dir.display());
    files
}

fn read(file: &str) -> String {
    let path = scenarios_dir().join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn every_checked_in_file_is_canonical() {
    for file in &all_files() {
        let text = read(file);
        let spec = ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            spec.to_json(),
            text,
            "{file} is not in canonical `to_json` form"
        );
        spec.sim_config(AdaptMode::Adapt)
            .unwrap_or_else(|e| panic!("{file}: invalid config: {e}"));
    }
}

/// Each file, run on the DES with metrics on, satisfies the adaptation
/// invariants under the settings `experiments --scenario` gates with.
#[test]
fn every_checked_in_file_passes_the_invariants_on_the_des() {
    for file in &all_files() {
        let spec = ScenarioSpec::parse(&read(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let cfg = spec
            .sim_config(AdaptMode::Adapt)
            .unwrap_or_else(|e| panic!("{file}: invalid config: {e}"));
        let result = GridSim::try_run_with_metrics(cfg, Metrics::enabled()).expect("run fails");
        assert!(!result.timed_out, "{file} hit the virtual-time cap");
        let jsonl = result.metrics.expect("metrics enabled").to_jsonl();
        let inv = InvariantConfig {
            settle_us: spec.monitoring_period_secs.unwrap_or(180) * 2_000_000,
            expected_iterations: Some(spec.iterations as u64),
            ..InvariantConfig::default()
        };
        let violations = check_jsonl(&jsonl, &inv);
        assert!(violations.is_empty(), "{file}: {violations:?}");
    }
}

fn trace_of(cfg: SimConfig) -> String {
    let result = GridSim::try_run_with_metrics(cfg, Metrics::enabled()).expect("run fails");
    result.metrics.expect("metrics enabled").to_jsonl()
}

/// FNV-1a over a JSONL trace: a stable fingerprint to pin it by.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn paper_files_reproduce_hand_coded_runs_byte_for_byte() {
    let pinned: &[(&str, ScenarioId, u64)] = &[
        ("s1.json", ScenarioId::S1Overhead, 0xf90f_9abe_76de_303f),
        (
            "s2a.json",
            ScenarioId::S2Expand(SubScenario::A),
            0xa2e1_cd10_42d6_ae90,
        ),
        (
            "s2b.json",
            ScenarioId::S2Expand(SubScenario::B),
            0xf2e6_9841_e655_cd5b,
        ),
        (
            "s2c.json",
            ScenarioId::S2Expand(SubScenario::C),
            0xa98d_e38f_eb22_b63f,
        ),
        (
            "s3.json",
            ScenarioId::S3OverloadedCpus,
            0xcce8_3446_9313_8918,
        ),
        (
            "s4.json",
            ScenarioId::S4OverloadedLink,
            0x05a8_6dca_0247_06eb,
        ),
        ("s5.json", ScenarioId::S5CpusAndLink, 0xf57c_8cc7_03b0_7e53),
        ("s6.json", ScenarioId::S6Crash, 0xf2ae_5681_330e_a739),
    ];
    for &(file, id, digest) in pinned {
        // `quick` keeps the file's seed and shortens the run (48 full
        // iterations belong in the experiment harness, not the suite).
        let trace = trace_of(Scenario::quick(id).config(AdaptMode::Adapt));
        assert_eq!(
            fnv1a(trace.as_bytes()),
            digest,
            "{file} no longer reproduces the pinned hand-coded trace"
        );
    }
}
