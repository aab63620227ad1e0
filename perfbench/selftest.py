#!/usr/bin/env python3
"""Self-test of the benchmark: a short run of every workload, twice.

Usage (from the repository root):  python3 perfbench/selftest.py

For each workload in BENCHMARK.json it runs run.py untraced once and
traced twice with the same seed and a short measuring time, and checks:
  1. every metric of BENCHMARK.json is printed, by name and with its
     unit (run.py refuses a result that differs from the list);
  2. no checked outcome failed (fail_frac == 0, i.e. `failed` == 0);
  3. the exact per-layer metrics (counts and simulated times) are equal
     across the two traced runs. (Within each run the runner already
     fails a check if any set-up, or the traced instance, disagrees with
     the first on events, ticks or stat counters.)
Exits 0 if all hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = "0.5"

# Per-layer metrics that are deterministic counts or simulated times.
EXACT = [
    "sim.events_per_msg", "sim.heap_callables_per_msg", "sim.setup_events",
    "sim.bus.occupancy_ns_per_msg", "node.cpu.events_per_msg",
    "node.cpu.busy_sim_ns_per_msg", "node.ether.frames",
    "nic.packets_per_msg", "nic.writes_combined_per_packet",
    "nic.timer_flush_frac", "nic.opt_hit_ratio", "nic.dma_bytes_per_msg",
    "net.packets_per_msg", "net.hops_mean",
    "vmmc.send_sim_us_p50", "vmmc.send_sim_us_p99",
    "nx.csend_sim_us_p50", "nx.csend_sim_us_p99",
    "nx.crecv_wait_sim_us_p50", "nx.scouts_per_csend",
    "sock.send_sim_us_p50", "sock.send_sim_us_p99",
    "rpc.call_sim_us_p50", "rpc.call_sim_us_p99",
    "srpc.call_sim_us_p50", "srpc.call_sim_us_p99",
]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", SECONDS, "--trace",
           str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if res.returncode != 0:
        return None
    return json.loads(res.stdout.strip().split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    layer = {m["name"] for m in spec["per_layer"]}
    missing = sorted(set(EXACT) - layer)
    if missing:
        print("selftest: exact metrics not in BENCHMARK.json: %s" % missing)
        return 1
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        plain, t1, t2 = run(w, 0), run(w, 1), run(w, 1)
        if not (plain and t1 and t2):
            problems.append("%s: a run failed or printed the wrong "
                            "metrics" % w)
            continue
        for name, r in (("untraced", plain), ("traced", t1),
                        ("traced again", t2)):
            if r["failed"] != 0 or not r["correct"]:
                problems.append("%s %s: %d of %d checks failed" % (
                    w, name, r["failed"], r["attempted"]))
        for m in EXACT:
            a, b = t1["metrics"][m]["value"], t2["metrics"][m]["value"]
            if a != b:
                problems.append("%s: %s differs between runs: %r vs %r" % (
                    w, m, a, b))
        print("selftest %-13s ok: %d checks, %d exact metrics repeat" % (
            w, plain["attempted"] + t1["attempted"] + t2["attempted"],
            len(EXACT)))
    for p in problems:
        print("selftest FAILED: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
