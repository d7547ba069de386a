#!/usr/bin/env python3
"""Build and run the terasem benchmark.

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

builds the benchmark package (``perfbench/Cargo.toml``) with cargo, offline
and in release mode, then runs each named workload. Every run prints one
line per metric, a ``MANIFEST`` line, and last one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--workload
all`` a summary table and one combined JSON object follow.

The build goes to ``$CARGO_TARGET_DIR`` (default ``.bench_build``) and the
benchmark's own files to ``.bench_out``, both under the current directory,
which must be the repository root.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["hairpin3d", "shear2d_k1024", "serve_small_jobs"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        log("run.py: cargo not found")
        return False
    if done.returncode != 0:
        log("run.py: build failed (exit %d)" % done.returncode)
        return False
    return True


def commit_of(root):
    """The git commit of ``root`` when it is itself a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(root):
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_one(binary, workload, args, commit):
    """Run one workload; return (exit code, its result object or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", ".bench_out", "--commit", commit]
    # A session of its own, so a timeout also stops the daemon, workers
    # and ranks the benchmark started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("run.py: %s exceeded %d s" % (workload, RUN_TIMEOUT_S))
        return 4, None
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if proc.returncode != 0 or not lines:
        log("run.py: %s exited with %d" % (workload, proc.returncode))
        return proc.returncode or 5, None
    try:
        return 0, (json.loads(lines[-1]), lines[-1])
    except ValueError:
        log("run.py: %s printed no result line" % workload)
        return 5, None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    t0 = time.monotonic()
    if not build(root, target_dir):
        return 3
    log("run.py: build ready in %.1f s" % (time.monotonic() - t0))
    binary = os.path.join(target_dir, "release", "perfbench")
    commit = commit_of(root)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        code, result = run_one(binary, name, args, commit)
        if code != 0:
            return code
        results[name] = result
    if len(names) == 1:
        print(results[names[0]][1], flush=True)
        return 0

    print("%-17s %-34s %16s %s" % ("workload", "metric", "value", "unit"))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        r = results[name][0]
        for metric, m in r["metrics"].items():
            print("%-17s %-34s %16.6g %s" % (name, metric, m["value"], m["unit"]))
            combined["metrics"]["%s.%s" % (name, metric)] = m
        print("%-17s %-34s %16.6g frac (%d of %d)" % (
            name, "failed_frac", r["failed"] / r["attempted"], r["failed"], r["attempted"]))
        combined["correct"] = combined["correct"] and r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
