"""Benchmark driver: cold-process passes of one workload through the CLI.

    python3 benchmark/run.py --workload avoid --seed 0 --seconds 30 --trace 0

Each pass runs in a fresh interpreter (`child.py`), one at a time and
with no threads, so every `lru_cache` starts cold.  The child drives
`modasc.cli.main(argv)` in-process and checks each answer against the
literals in `workloads.py`.  Passes repeat until `--seconds` have gone
and the run holds whole cycles.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
  --trace 0  end-to-end metrics: wall_s, the median over the run's
             cycles (see `workloads.cycle`) of their mean pass time;
             peak_rss_mb, the median over passes; setup_s, the median
             over passes and set-up-only children.
  --trace 1  per-layer metrics: untraced and traced passes alternate on
             the seed's own inputs; layer metrics are means over the
             traced passes (means, so that self times plus
             unattributed_s still add up to trace.wall_s), and
             trace.overhead is traced over untraced mean wall time.
A failed task is counted in `failed`; fail_ratio = failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import CHECK_TAGS, WORKLOADS, cycle  # noqa: E402
from tracer import CACHES, LAYERS  # noqa: E402

#: Set-up-only children started before the passes, for the setup_s median.
SETUP_CHILDREN = 7
#: A child that runs longer than this is stopped and the run fails.
CHILD_TIMEOUT_S = 150


def per_layer_names() -> list[str]:
    names = ["trace.wall_s", "unattributed_s", "trace.overhead", "fail_ratio"]
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names += ["words.statistics.calls", "words.statistics.self_s",
              "counting.p_coefficients.self_s"]
    names += [f"check.{tag}.s" for tag in CHECK_TAGS]
    names += ["cache.entries", "cache.words_held", "cache.hit_ratio"]
    names += [f"cache.{mod}.{name}.entries" for mod, name in CACHES]
    return names


def child(*args: str) -> dict:
    """Run one child to completion and return its report."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def mean(values):
    """Mean of the passes' values; an exact count stays exact."""
    values = list(values)
    if any(v is None for v in values):
        return None
    if all(v == values[0] for v in values):
        return values[0]
    return sum(values) / len(values)


def wall_times(reports) -> str:
    return " ".join(f"{r['wall_s']:.2f}" for r in reports) or "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "modasc", "cli.py")):
        print(f"error: no modasc sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds
    plain, traced = [], []
    if args.trace:
        while not traced or time.monotonic() < deadline:
            plain.append(child(args.workload, str(args.seed), "0", "0"))
            traced.append(child(args.workload, str(args.seed), "0", "1"))
    else:
        setups = [child("setup")["setup_s"] for _ in range(SETUP_CHILDREN)]
        per_cycle = cycle(args.workload)
        while not plain or time.monotonic() < deadline or len(plain) % per_cycle:
            plain.append(child(args.workload, str(args.seed), str(len(plain)), "0"))

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for failure in p["failures"]:
            print(f"FAIL {failure}", file=sys.stderr)

    if args.trace:
        metrics = {
            name: mean(p["layers"][name] for p in traced)
            for name in per_layer_names()
            if name not in ("trace.overhead", "fail_ratio")
        }
        metrics["trace.overhead"] = metrics["trace.wall_s"] / mean(p["wall_s"] for p in plain)
        metrics["fail_ratio"] = failed / attempted
        units = {"calls": "count", "entries": "count", "words_held": "count",
                 "hit_ratio": "ratio", "overhead": "ratio", "fail_ratio": "ratio"}
        result = {
            name: {"value": metrics[name], "unit": units.get(name.rsplit(".", 1)[-1], "s")}
            for name in per_layer_names()
        }
    else:
        walls = [p["wall_s"] for p in plain]
        cycle_walls = [statistics.fmean(walls[i:i + per_cycle])
                       for i in range(0, len(walls), per_cycle)]
        result = {
            "wall_s": {"value": statistics.median(cycle_walls), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(p["peak_rss_mb"] for p in plain), "unit": "MB"},
            "setup_s": {
                "value": statistics.median(setups + [p["setup_s"] for p in plain]),
                "unit": "s"},
        }
    print(f"{args.workload} seed {args.seed}: pass wall times (s) {wall_times(plain)} "
          f"untraced, {wall_times(traced)} traced", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
