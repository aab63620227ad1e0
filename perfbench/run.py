#!/usr/bin/env python3
"""Build and run one perfbench workload; print its report and result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload rpc_pingpong --seed 1 \
        --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles the simulator library
from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the workload runner. The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1. Exits nonzero, without a result line, if
the build or the run fails or the result does not name exactly the
metrics BENCHMARK.json lists.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then bring the build up to date (quietly)."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "2"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, \
        [w["name"] for w in spec["workloads"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    want, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        sys.stderr.write("perfbench: unknown workload %r\n" % args.workload)
        return 2
    bdir = build_dir()
    if not build(bdir):
        return 1

    cmd = [os.path.join(bdir, "shrimp_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(bdir, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            out_dir, "spans_%s_%d.jsonl" % (args.workload, args.seed))]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stdout)
        sys.stderr.write("perfbench: runner exited %d\n" % res.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(res.stdout)
        sys.stderr.write("perfbench: last line is not JSON\n")
        return 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stderr.write(res.stdout)
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json: "
                         "missing %s, extra %s, unit mismatch %s\n" % (
                             sorted(set(want) - set(got)),
                             sorted(set(got) - set(want)),
                             sorted(k for k in set(want) & set(got)
                                    if want[k] != got[k])))
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
