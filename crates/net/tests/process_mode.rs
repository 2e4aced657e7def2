//! End-to-end process-mode tests: `grid-local` spawns a real hub, a real
//! coordinator daemon and real worker processes over loopback TCP. The
//! paper's crash scenario (`scenarios/s6.json`) SIGKILLs two of three
//! sites and verifies detection, blacklisting, the refused rejoin and the
//! emitted decision-provenance stream; the steal scenario and the exit-code
//! classes are covered below. ci.sh additionally runs `steal`, `churn-soak`
//! and the s6, mass-crash, hub-crash and slow-node scenario files.

#[test]
fn grid_local_crash_scenario_passes() {
    let out = std::env::temp_dir().join(format!("grid_local_test_{}", std::process::id()));
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/s6.json");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_grid-local"))
        .args([
            "--scenario-file",
            scenario,
            "--out",
            out.to_str().expect("utf8 temp path"),
        ])
        .output()
        .expect("launch grid-local");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "grid-local exited with {}: {stdout}",
        output.status
    );
    // The hub and coordinator both wrote their JSONL metric streams.
    assert!(out.join("run_hub.jsonl").exists());
    assert!(out.join("run_coordinatord.jsonl").exists());
    // Each crash injection was probed: a rejoin under a victim's id was
    // refused by the hub.
    assert!(
        stdout.contains("JOIN_REFUSED") && stdout.contains("was refused"),
        "the crash probe's refused rejoin is missing from the log: {stdout}"
    );
    std::fs::remove_dir_all(&out).ok();
}

/// The checked-in paper scenario 3 (overloaded CPUs) drives real worker
/// processes from its declarative file, and the run's composed JSONL
/// stream satisfies the adaptation invariants: exit code 0.
#[test]
fn grid_local_scenario_file_s3_passes() {
    let out = std::env::temp_dir().join(format!("grid_local_s3_test_{}", std::process::id()));
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/s3.json");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_grid-local"))
        .args([
            "--scenario-file",
            scenario,
            "--out",
            out.to_str().expect("utf8 temp path"),
        ])
        .status()
        .expect("launch grid-local");
    assert_eq!(
        status.code(),
        Some(0),
        "scenario-file run should pass every invariant check"
    );
    // The launcher wrote the composed injection+decision stream it judged.
    assert!(out.join("scenario_stream.jsonl").exists());
    std::fs::remove_dir_all(&out).ok();
}

/// True once `pid` no longer names a live (non-zombie) process. A zombie
/// counts as dead: it has been killed and merely awaits init's reap.
fn process_gone(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Err(_) => true,
        Ok(stat) => match stat.rfind(')') {
            None => true,
            Some(idx) => matches!(
                stat[idx + 1..].trim_start().chars().next(),
                Some('Z') | None
            ),
        },
    }
}

/// The failure exit must not leak children: the launcher prints each
/// spawned pid, and its Drop-based reaper runs before `process::exit`, so
/// every such pid must be gone once grid-local itself has exited.
fn assert_no_leaked_children(stdout: &[u8]) {
    let stdout = String::from_utf8_lossy(stdout);
    let spawned: Vec<u32> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("grid-local: spawned "))
        .filter_map(|rest| rest.split("pid=").nth(1))
        .filter_map(|p| p.trim().parse().ok())
        .collect();
    assert!(
        !spawned.is_empty() && stdout.contains("spawned hub pid="),
        "exit-4 run should have spawned (and reported) a hub before timing out: {stdout}"
    );
    for pid in spawned {
        // SIGKILL is asynchronous; allow the victim a moment to die.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !process_gone(pid) && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        assert!(
            process_gone(pid),
            "child pid {pid} survived the exit-4 path (leaked process)"
        );
    }
}

/// Exit codes separate the three failure classes: 4 = infrastructure
/// timeout (the grid never came up), 2 = infrastructure/usage error,
/// 1 = a check failed on an otherwise healthy run. CI keys off this to
/// tell "the adaptation broke" from "the host was too slow".
#[test]
fn grid_local_scenario_file_exit_codes_distinguish_failure_classes() {
    let out = std::env::temp_dir().join(format!("grid_local_exit_test_{}", std::process::id()));
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/s3.json");

    // A 1 ms join timeout can never see the hub come up: timeout, exit 4.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_grid-local"))
        .args([
            "--scenario-file",
            scenario,
            "--join-timeout-ms",
            "1",
            "--out",
            out.to_str().expect("utf8 temp path"),
        ])
        .output()
        .expect("launch grid-local");
    assert_eq!(
        output.status.code(),
        Some(4),
        "infrastructure timeout must exit 4"
    );
    assert_no_leaked_children(&output.stdout);

    // Every mode shares the lifecycle's join timeout: a steal run that
    // cannot see its hub come up is a timeout too, not an infra error.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_grid-local"))
        .args([
            "--scenario",
            "steal",
            "--join-timeout-ms",
            "1",
            "--out",
            out.to_str().expect("utf8 temp path"),
        ])
        .output()
        .expect("launch grid-local");
    assert_eq!(
        output.status.code(),
        Some(4),
        "a steal run whose hub never comes up must exit 4"
    );
    assert_no_leaked_children(&output.stdout);

    // Naming no mode, `--scenario` without a value, or a mode or flag that
    // scenario files replaced is a usage error.
    let out_arg = out.to_str().expect("utf8 temp path");
    for args in [
        vec!["--out", out_arg],
        vec!["--scenario"],
        vec!["--scenario", "full", "--out", out_arg],
        vec!["--scenario", "hub-crash", "--out", out_arg],
        vec![
            "--scenario-file",
            scenario,
            "--kill-index",
            "1",
            "--out",
            out_arg,
        ],
    ] {
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_grid-local"))
            .args(&args)
            .status()
            .expect("launch grid-local");
        assert_eq!(status.code(), Some(2), "{args:?} must be a usage error");
    }

    // An unreadable scenario file is an infrastructure error, exit 2.
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_grid-local"))
        .args([
            "--scenario-file",
            "/nonexistent/scenario.json",
            "--out",
            out.to_str().expect("utf8 temp path"),
        ])
        .status()
        .expect("launch grid-local");
    assert_eq!(status.code(), Some(2), "infrastructure error must exit 2");

    // A healthy run that misses a check (an impossible decision quota on a
    // tiny undisturbed grid) is a verdict, exit 1.
    let tiny = out.join("tiny.json");
    std::fs::create_dir_all(&out).expect("create temp out dir");
    std::fs::write(
        &tiny,
        r#"{"name": "tiny", "grid": {"clusters": 2, "nodes_per_cluster": 6},
            "layout": [[0, 2], [1, 2]], "iterations": 4, "seed": 1,
            "target_nodes": 4, "target_iter_secs": 1, "events": []}"#,
    )
    .expect("write tiny scenario");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_grid-local"))
        .args([
            "--scenario-file",
            tiny.to_str().expect("utf8 temp path"),
            "--workers-per-cluster",
            "1",
            "--min-decisions",
            "100000",
            "--out",
            out.to_str().expect("utf8 temp path"),
        ])
        .status()
        .expect("launch grid-local");
    assert_eq!(status.code(), Some(1), "failed check must exit 1");
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn grid_local_steal_scenario_passes() {
    let out = std::env::temp_dir().join(format!("grid_local_steal_test_{}", std::process::id()));
    // The scenario itself asserts the interesting facts (root result
    // correct, remote steals observed, measured inter-cluster time > 0)
    // and exits non-zero if any check fails; the duration is a deadline,
    // not a sleep — the run ends as soon as the root result is in.
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_grid-local"))
        .args([
            "--workers",
            "3",
            "--scenario",
            "steal",
            "--duration-ms",
            "30000",
            "--out",
            out.to_str().expect("utf8 temp path"),
        ])
        .status()
        .expect("launch grid-local");
    assert!(status.success(), "grid-local exited with {status}");
    assert!(out.join("steal_root_metrics.jsonl").exists());
    std::fs::remove_dir_all(&out).ok();
}
