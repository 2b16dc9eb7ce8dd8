#!/usr/bin/env python3
"""Builds and runs the OSCAR controller benchmark.

    python3 perfbench/run.py --workload serve-persistent|serve-churn|sim-paper|all
                             [--seed N] [--seconds S] [--trace 0|1]

Builds `perfbench/` (the benchmark binary and `qdn-served`) in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), runs the workload,
and prints, last on standard output, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Before it come the
runner metadata (CPU count, rustc, revision, profile, steal share and load
average over the run) and the decision digest. Digests are kept in
`.bench_out/digests.json`; a run whose digest differs from an earlier run
of the same workload and seed fails. Any failed check exits non-zero.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["serve-persistent", "serve-churn", "sim-paper"]
OUT_DIR = ROOT / ".bench_out"
# A run that outlives this is killed and fails; the limit per run is 180 s.
RUN_TIMEOUT_S = 170
# Steal share or load above these flags the run as contended.
STEAL_LIMIT = 0.05


def fail(message):
    print(f"run.py: FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def cpu_times():
    """(total, steal) jiffies of the aggregate `cpu` line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user.
    return sum(fields[:8]), fields[7] if len(fields) > 7 else 0


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def command_output(args):
    try:
        out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def git_rev():
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or Path(top).resolve() != ROOT:
        return None
    return command_output(["git", "rev-parse", "HEAD"])


def source_digest():
    """SHA-256 over the sources the benchmark builds (a revision stand-in
    where the checkout is not a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ["crates", "perfbench"]:
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def build(target_dir):
    manifest = HERE / "Cargo.toml"
    if not manifest.is_file():
        fail(f"missing {manifest}")
    args = ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    if subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = target_dir / "release" / "perfbench"
    if not binary.is_file():
        fail(f"build left no {binary}")
    return binary


def run_binary(binary, workload, seed, seconds, trace):
    args = [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--spans", str(OUT_DIR / f"spans-{workload}-{seed}.jsonl")]
    # A session of its own, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} exited with {proc.returncode}")
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"{workload} printed no result")
    return lines


def check_digest(line, source):
    """Fails if this decision digest differs from one recorded earlier
    for the same sources, workload, seed and slot count."""
    d = json.loads(line)["digest"]
    key = f"{source[:16]}:{d['workload']}:{d['seed']}:{d['slots']}"
    store = OUT_DIR / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    if known.get(key, d["value"]) != d["value"]:
        fail(f"{key}: decisions digest {d['value']} differs from earlier run's {known[key]}")
    known[key] = d["value"]
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    bench = json.loads(spec.read_text())
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def run_workload(binary, source, workload, seed, seconds, trace):
    total0, steal0 = cpu_times()
    load0 = loadavg()
    started = time.monotonic()
    lines = run_binary(binary, workload, seed, seconds, trace)
    wall = time.monotonic() - started
    total1, steal1 = cpu_times()
    load1 = loadavg()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: malformed result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{workload}: run reported incorrect output")
    want = expected_metrics(trace)
    if want is not None and sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        fail(f"{workload}: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for line in lines[:-1]:
        if line.startswith('{"digest"'):
            check_digest(line, source)
        print(line)
    nproc = len(os.sched_getaffinity(0))
    steal = (steal1 - steal0) / max(total1 - total0, 1)
    runner = {
        "workload": workload,
        "seed": seed,
        "nproc": nproc,
        "rustc": command_output(["rustc", "-V"]),
        "git_rev": git_rev(),
        "source_sha256": source,
        "profile": "release (perfbench/Cargo.toml [profile.release], as the root manifest)",
        "wall_s": round(wall, 3),
        "steal_share": round(steal, 4),
        "loadavg_before": load0,
        "loadavg_after": load1,
        "contended": steal > STEAL_LIMIT or max(load0[0], load1[0]) > nproc,
    }
    if runner["contended"]:
        print(f"run.py: WARNING: contended run (steal {steal:.3f}, load {load1[0]} on "
              f"{nproc} CPUs): treat its timings with suspicion", file=sys.stderr)
    print(json.dumps({"runner": runner}))
    return result


def main():
    defaults = json.loads((HERE / "workloads.json").read_text())["seeds"]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=defaults["default"])
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    OUT_DIR.mkdir(exist_ok=True)
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    binary = build(target_dir)
    source = source_digest()
    if a.workload != "all":
        result = run_workload(binary, source, a.workload, a.seed, a.seconds, a.trace)
        print(json.dumps(result))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(binary, source, workload, a.seed, a.seconds, a.trace)
        print(json.dumps(result))
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
