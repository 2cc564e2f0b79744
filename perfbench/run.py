#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--size full|tiny]

Builds perfbench/ (and the library sources under src/) into
.bench_build/perfbench with CMake, runs one workload, echoes the program's
rows, and prints as the LAST line the summary object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end metrics with --trace 0 and its
per_layer metrics with --trace 1.  A per-layer metric the workload does not
exercise reads 0 (see perfbench/layers.json for which workload owns each).
Exits non-zero, printing no summary, when the build or the run fails.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        # Keep stdout for rows and the summary: build chatter goes to stderr.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not
    be a git repository, so this stands in for the commit id)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main(argv):
    trace = "0"
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            trace = value
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    print(json.dumps({"source": {"sha256_16": source_digest()}}), flush=True)

    proc = subprocess.run([os.path.join(BUILD, "perfbench")] + argv,
                          stdout=subprocess.PIPE, text=True)
    result = None
    for line in proc.stdout.splitlines():
        obj = json.loads(line)
        if "result" in obj:
            result = obj["result"]
        else:
            print(line)
    if result is None:
        sys.exit(f"perfbench: run failed (exit {proc.returncode}), no result")

    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    measured = result["layers"] if trace == "1" else result["e2e"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"], {"value": 0.0, "unit": m["unit"]})
        if got["unit"] != m["unit"]:
            sys.exit(f"perfbench: {m['name']} reported in {got['unit']}, "
                     f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    extra = sorted(set(measured) - set(metrics))
    if extra:
        sys.exit(f"perfbench: metrics missing from BENCHMARK.json: {extra}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
