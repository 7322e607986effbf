#!/usr/bin/env python3
"""Self-test of the benchmark: counts are exact, names match BENCHMARK.json.

    python3 perfbench/test_determinism.py

Runs two traced runs of the compile workload with one seed and requires identical values for the
counts later changes may cite as exact: quil.ops,
analysis.rewrites_applied, codegen.source_bytes, jit.tu_preprocessed_lines,
jit.so_bytes, vec.planned_share and shard.split_share. When BENCHMARK.json
is present it also checks that the traced run reports exactly its
per_layer metrics and a plain run exactly its end_to_end metrics, each
with the declared unit. Exit status 0 on success, 1 on any difference.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = [
    "quil.ops", "analysis.rewrites_applied", "codegen.source_bytes",
    "jit.tu_preprocessed_lines", "jit.so_bytes", "vec.planned_share",
    "shard.split_share",
]
WORKLOAD = "compile"
SEED = 7


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "2", "--trace",
           str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().split("\n")
    if p.returncode != 0 or not lines:
        sys.exit("FAIL: %s exited %d" % (" ".join(cmd), p.returncode))
    return json.loads(lines[-1])


def check_names(result, declared, what):
    ok = True
    got = result["metrics"]
    for m in declared:
        if m["name"] not in got:
            print("FAIL: %s metric %s missing" % (what, m["name"]))
            ok = False
        elif got[m["name"]]["unit"] != m["unit"]:
            print("FAIL: %s metric %s has unit %s, declared %s" % (
                what, m["name"], got[m["name"]]["unit"], m["unit"]))
            ok = False
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        print("FAIL: %s metrics not declared: %s" % (what, sorted(extra)))
        ok = False
    return ok


def main():
    first = run(WORKLOAD, SEED, 1)
    second = run(WORKLOAD, SEED, 1)
    ok = True
    for name in EXACT:
        x = first["metrics"][name]["value"]
        y = second["metrics"][name]["value"]
        print("%-28s %s %s" % (name, x, y))
        if x != y:
            print("FAIL: %s differs between two runs of seed %d" % (
                name, SEED))
            ok = False

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        ok &= check_names(first, spec["per_layer"], "per_layer")
        ok &= check_names(run(WORKLOAD, SEED, 0), spec["end_to_end"],
                          "end_to_end")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
