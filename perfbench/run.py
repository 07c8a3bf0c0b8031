#!/usr/bin/env python3
"""End-to-end benchmark of the RainbowCake simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` binary from this checkout (perfbench/ plus the
simulator library in src/) into .bench_build/perfbench, then replays
the named workload, one fresh process per replay and one replay at a
time (a closed loop with one client), until S seconds have passed.

--trace 0 reports the end-to-end metrics as medians over the untraced
replays. --trace 1 alternates untraced and traced replays and reports
the per-layer metrics as medians over the traced ones, plus the
tracing overhead (traced over untraced run_s). The traced record of
the last replay, spans included, is written to
.bench_build/perfbench/trace-<workload>-<seed>.json.

Correctness gate: every replay must pass its conservation identities,
every replay of the run (traced or not) must produce the same digest
of the modelled outputs, and on the seeds pinned in digests.json that
digest must equal the pinned one. Every arrival of a replay that
fails the gate counts as failed.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"

# The metric names and units are the ones BENCHMARK.json declares.
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]

# Every run, build included, must end well inside the 180 s a
# benchmark invocation is allowed; a replay never starts past this.
RUN_BUDGET_S = 170.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the binary up to date; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: simulator sources (src/) not found next to perfbench/")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return BINARY.is_file()


def replay(workload, seed, traced, timeout):
    """One replay in its own process; None when it produced no record."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--traced")
    try:
        result = subprocess.run(command, cwd=ROOT, capture_output=True,
                                text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: replay timed out after {timeout:.0f} s")
        return None
    if result.stderr:
        log(result.stderr.rstrip())
    lines = result.stdout.strip().splitlines()
    if result.returncode not in (0, 3) or not lines:
        log(f"perfbench: replay exited with {result.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: replay printed no JSON record")
        return None


def pinned_digest(workload, seed):
    pins = json.loads((HERE / "digests.json").read_text())
    return pins["digests"].get(workload, {}).get(str(seed))


def gate(workload, seed, records):
    """Arrivals attempted and failed over all replays of the run."""
    attempted = sum(r["arrivals"] for r in records)
    failed = sum(r["arrivals"] for r in records if r["gate_errors"])
    for r in records:
        for error in r["gate_errors"]:
            log(f"perfbench: gate: {error}")
    digests = {r["digest"] for r in records}
    pinned = pinned_digest(workload, seed)
    if len(digests) > 1:
        log(f"perfbench: gate: replays disagree: {sorted(digests)}")
        failed = attempted
    elif pinned is not None and digests != {pinned}:
        log(f"perfbench: gate: digest {digests.pop()} != pinned {pinned}")
        failed = attempted
    return attempted, failed


def median(values):
    return statistics.median(values)


def with_units(kind, value):
    return {m["name"]: {"value": value[m["name"]], "unit": m["unit"]}
            for m in MANIFEST[kind]}


def end_to_end(records):
    value = {"invocations_per_s": median(
        [r["completed"] / r["run_s"] for r in records])}
    for name in ("run_s", "setup_s", "peak_rss_mb", "sim_mean_startup_s",
                 "sim_cold_ratio", "sim_waste_gbs", "sim_e2e_p99_s"):
        value[name] = median([r[name] for r in records])
    return with_units("end_to_end", value)


def per_layer(untraced, traced):
    value = {name: median([r["layers"][name] for r in traced])
             for name in traced[0]["layers"]}
    value["bench.tracing_overhead"] = (
        median([r["run_s"] for r in traced]) /
        median([r["run_s"] for r in untraced]) - 1.0)
    return with_units("per_layer", value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1

    start = time.monotonic()
    untraced, traced = [], []
    while True:
        for is_traced in ((False, True) if args.trace else (False,)):
            left = RUN_BUDGET_S - (time.monotonic() - start)
            record = replay(args.workload, args.seed, is_traced,
                            max(1.0, left))
            if record is None:
                return 1
            (traced if is_traced else untraced).append(record)
        if time.monotonic() - start >= args.seconds:
            break

    attempted, failed = gate(args.workload, args.seed, untraced + traced)
    if args.trace:
        metrics = per_layer(untraced, traced)
        dump = BUILD / f"trace-{args.workload}-{args.seed}.json"
        dump.write_text(json.dumps(traced[-1], indent=1) + "\n")
    else:
        metrics = end_to_end(untraced)
    log(f"perfbench: {args.workload} seed {args.seed}: "
        f"{len(untraced)} untraced + {len(traced)} traced replays in "
        f"{time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
