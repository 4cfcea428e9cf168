#!/usr/bin/env python3
"""Build and run the outside-in benchmark of the iCFP simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fig5_cold --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the
simulator from ../src) under .bench_build/; later runs rebuild
incrementally. The driver's stderr goes to .bench_build/work/<workload>.log.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The process exits non-zero, without a
result line, when the simulator sources are missing or the build or the
driver fails. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
WORK = OUT / "work"
BINARY = BUILD / "perfbench"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = ("fig5_cold", "store_nonspec", "service_mix")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; output to a log file."""
    if not (ROOT / "src" / "sim" / "sweep.hh").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = OUT / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(f"build failed; see {log_path}")
    if not BINARY.is_file():
        fail("build produced no perfbench binary")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def validate(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    for name, metric in result["metrics"].items():
        if not NAME_RE.match(name):
            fail(f"bad metric name {name!r}")
        if set(metric) != {"value", "unit"}:
            fail(f"metric {name} keys {sorted(metric)}")
    want = expected_metrics(trace)
    got = [(n, m["unit"]) for n, m in result["metrics"].items()]
    if sorted(got) != sorted(want):
        fail("driver metrics differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ set(want))}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smoke-test knobs; the defaults are the benchmark's definition.
    parser.add_argument("--insts", type=int, default=None)
    parser.add_argument("--min-iters", type=int, default=None)
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args()

    build()
    WORK.mkdir(parents=True, exist_ok=True)
    for stale in WORK.iterdir():
        if stale.is_dir():
            shutil.rmtree(stale, ignore_errors=True)

    # The work directory is passed relative to the checkout (the driver's
    # cwd): daemon socket paths under it must fit in sockaddr_un's 108
    # bytes however deep the checkout is.
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", str(WORK.relative_to(ROOT)),
           "--pins", str(HERE / "pins.txt")]
    if args.insts is not None:
        cmd += ["--insts", str(args.insts)]
    if args.min_iters is not None:
        cmd += ["--min-iters", str(args.min_iters)]
    if args.tamper:
        cmd.append("--tamper")

    log_path = WORK / f"{args.workload}.log"
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log,
                                  cwd=ROOT, text=True,
                                  timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"driver exceeded {DRIVER_TIMEOUT_S}s; see {log_path}")
    if proc.returncode != 0:
        fail(f"driver exited {proc.returncode}; see {log_path}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed no result; see {log_path}")
    result = json.loads(lines[-1])
    validate(result, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
