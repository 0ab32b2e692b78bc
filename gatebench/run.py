#!/usr/bin/env python3
"""Build and run the live-gateway benchmark (gatebench).

    python3 gatebench/run.py --workload replay_kitnet --seed 1 --seconds 35 --trace 0
    python3 gatebench/run.py --smoke

Run from the repository root. The first call configures and builds the
repository's libraries plus the gatebench driver under .bench_build/ (or
$CARGO_TARGET_DIR); later calls only re-check the build. The driver's last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end_to_end metrics of BENCHMARK.json,
--trace 1 the per_layer ones; a result whose metric names or units differ
from BENCHMARK.json is not printed and the run fails.

--smoke runs every workload of BENCHMARK.json on a tiny capture in both
modes and checks the correctness gate plus every metric name and unit.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
SMOKE_SCALE = "0.1"
SMOKE_SECONDS = "0.5"


def log(msg):
    print("gatebench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "gatebench")


def build():
    """Configure once, then build the driver target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found under " + os.path.join(ROOT, "src"))
        sys.exit(2)
    bdir = build_dir()
    exe = os.path.join(bdir, "gatebench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", bdir, "--target", "gatebench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(2)
    return exe


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(result, spec, trace):
    """Problems with a result line against BENCHMARK.json ([] when fine)."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
        return problems
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name in sorted(set(want) - set(got)):
        problems.append("missing metric " + name)
    for name in sorted(set(got) - set(want)):
        problems.append("unexpected metric " + name)
    for name in sorted(set(want) & set(got)):
        m = got[name]
        if m.get("unit") != want[name]:
            problems.append("%s unit %r, expected %r" % (name, m.get("unit"), want[name]))
        if not isinstance(m.get("value"), (int, float)):
            problems.append("%s value is not a number" % name)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    return problems


def run_once(exe, args, spec):
    """Run the driver; returns (exit code, result dict or None, stdout lines)."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.scale is not None:
        cmd += ["--scale", args.scale]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out after %d s" % RUN_TIMEOUT_S)
        return 1, None, []
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None, lines
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last output line is not JSON")
        return 1, None, lines
    problems = check_result(result, spec, args.trace)
    for p in problems:
        log("result does not match BENCHMARK.json: " + p)
    return (1 if problems else 0), (None if problems else result), lines[:-1]


def smoke(exe, spec):
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w["name"], seed=1, seconds=SMOKE_SECONDS,
                                      trace=trace, scale=SMOKE_SCALE)
            code, result, lines = run_once(exe, args, spec)
            ok = code == 0 and result is not None and result["correct"] and result["failed"] == 0
            print("%-4s %-18s trace=%d %s" % ("ok" if ok else "FAIL", w["name"], trace,
                                               "" if ok else "exit %d" % code), flush=True)
            if not ok:
                failures += 1
                for line in lines[-20:]:
                    print("    " + line)
    print("smoke: %d failure(s)" % failures)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, every workload, both modes; checks names and units")
    args = ap.parse_args()
    args.scale = None
    exe = build()
    spec = load_spec()
    if args.smoke:
        return smoke(exe, spec)
    if not args.workload:
        ap.error("--workload is required")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    code, result, lines = run_once(exe, args, spec)
    for line in lines:
        print(line)
    if result is None:
        return code or 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
