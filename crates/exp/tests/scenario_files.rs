//! The checked-in files under `scenarios/` are the data form of the
//! paper's hand-coded perturbation schedules. Two contracts hold:
//!
//! * every file is in the canonical form `ScenarioSpec::to_json`
//!   produces (parse → re-serialise is the identity on the bytes), and
//! * the paper files, which `Scenario::config` compiles, drive the DES to
//!   the JSONL traces pinned by digest below (taken from the hand-coded
//!   schedules the files replaced, so the switch changed no byte).

use sagrid_core::metrics::Metrics;
use sagrid_exp::scenarios::{Scenario, ScenarioId, SubScenario};
use sagrid_scenario::ScenarioSpec;
use sagrid_simgrid::{AdaptMode, GridSim, SimConfig};
use std::path::PathBuf;

const ALL_FILES: &[&str] = &[
    "s1.json",
    "s2a.json",
    "s2b.json",
    "s2c.json",
    "s3.json",
    "s4.json",
    "s5.json",
    "s6.json",
    "diurnal.json",
    "flash_crowd.json",
    "correlated_failure.json",
    "brownout.json",
    "mass_crash.json",
];

fn read(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn every_checked_in_file_is_canonical() {
    for file in ALL_FILES {
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
