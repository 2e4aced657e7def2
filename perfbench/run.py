#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. The benchmark binary is built from source
with cargo into $CARGO_TARGET_DIR (default `.bench_build`). The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give every metric
with its unit, sample count and how it was taken, plus the host facts.
`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones. `--workload all` runs every workload untraced and
prints one summary.

Exit codes: 0 with a result; 2 when the benchmark cannot be built or run
(for instance outside a full checkout); 3 when the result does not match
BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "BENCHMARK.json")
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
CONFIG = os.path.join(ROOT, "perfbench", "config.json")
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Builds the release binary; returns its path."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", MANIFEST]
    try:
        # Run from the root so the repository's .cargo/config.toml applies.
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(2, f"build failed: {e}")
    if proc.returncode != 0:
        fail(2, "build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def host_facts():
    facts = {"nproc": os.cpu_count(), "machine": platform.machine()}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        try:
            with open(f"{base}/level") as f:
                level = f.read().strip()
            with open(f"{base}/size") as f:
                size = f.read().strip()
        except OSError:
            break
        if level == "3":
            facts["l3"] = size
    cargo_cfg = os.path.join(ROOT, ".cargo", "config.toml")
    try:
        with open(cargo_cfg) as f:
            facts["target_cpu_native"] = "target-cpu=native" in f.read()
    except OSError:
        facts["target_cpu_native"] = False
    facts["lto"] = "fat"
    facts["network"] = "loopback 127.0.0.1"
    return facts


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary once; returns its result record."""
    out_dir = os.path.join(target_dir(), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{workload}-{trace}.json")
    spans = os.path.join(out_dir, f"{workload}-spans.tsv")
    # The hub prints an EVENT line per join and leave; that write is part
    # of the join path, so stdout always goes to this same regular file.
    events_log = os.path.join(out_dir, f"{workload}-stdout.log")
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out, "--config", CONFIG]
    if trace:
        cmd += ["--spans", spans]
    with open(events_log, "w") as sink:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sink, stderr=sys.stderr)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(2, f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(2, f"{workload} exited with {code}")
    with open(out) as f:
        return json.load(f)


def expected_metrics(trace):
    with open(BENCH) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def describe(record):
    for m in record["metrics"]:
        print(f"{record['workload']:<18} {m['name']:<36} {m['value']!r:>24} "
              f"{m['unit']:<6} n={m['samples']:<9} {m['note']}")
    for c in record["checks"]:
        mark = "ok  " if c["ok"] else "FAIL"
        detail = f": {c['detail']}" if c["detail"] and not c["ok"] else ""
        print(f"{record['workload']:<18} check {mark} {c['name']}{detail}")


def summary_line(record, trace):
    want = expected_metrics(trace)
    got = {m["name"]: m for m in record["metrics"]}
    missing = [m["name"] for m in want if m["name"] not in got]
    if missing:
        fail(3, f"result lacks {missing}")
    metrics = {}
    for m in want:
        v = got[m["name"]]
        if v["unit"] != m["unit"] or v["value"] is None:
            fail(3, f"{m['name']}: bad value or unit in the result")
        metrics[m["name"]] = {"value": v["value"], "unit": m["unit"]}
    return {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail(2, "not a full checkout: the crates under test are missing")
    with open(BENCH) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    if a.workload != "all" and a.workload not in names:
        fail(2, f"unknown workload {a.workload}; expected one of {names} or all")
    binary = build()
    facts = host_facts()
    print("host " + json.dumps(facts, sort_keys=True))
    if a.workload == "all":
        results = {}
        for w in names:
            record = run_once(binary, w, a.seed, a.seconds, 0)
            describe(record)
            results[w] = summary_line(record, 0)
        print(json.dumps(results, sort_keys=True))
        return
    record = run_once(binary, a.workload, a.seed, a.seconds, a.trace)
    print(f"{a.workload:<18} seed {record['seed']}, trace {a.trace}, "
          f"attempted {record['attempted']}, failed {record['failed']}")
    describe(record)
    print(json.dumps(summary_line(record, a.trace)))


if __name__ == "__main__":
    main()
