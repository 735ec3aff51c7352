"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q benchmark/test_benchmark.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402  (puts the sources on sys.path)
import modasc  # noqa: E402
import workloads  # noqa: E402
from run import per_layer_names  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Task  # noqa: E402


def prim_task():
    return workloads.tasks("avoid", 0, 0)[2]


def test_default_seed_picks_the_first_pattern_of_each_pool():
    avoided = [t.argv[-1] for t in workloads.tasks("avoid")]
    assert avoided == ["2321", "2132", "2321"]


def test_every_cycle_covers_each_pool_whatever_the_seed():
    def cycle_inputs(seed):
        return {tuple(t.argv[-1] for t in workloads.tasks("avoid", seed, k))
                for k in range(workloads.cycle("avoid"))}

    inputs = cycle_inputs(0)
    for slot, pool in enumerate((workloads.MODASC_LAST_ONCE,
                                 workloads.MODASC_LAST_REPEATS, workloads.PRIM_POOL)):
        assert {avoided[slot] for avoided in inputs} == set(pool)
    assert all(cycle_inputs(seed) == inputs for seed in range(1, 7))


def test_pinned_answer_passes():
    report = child.run_pass((prim_task(),))
    assert report["failed"] == 0, report["failures"]


def test_tampered_literal_gives_positive_fail_ratio(monkeypatch):
    monkeypatch.setattr(workloads, "BELL_9", workloads.BELL_9 + 1)
    report = child.run_pass((prim_task(),))
    assert report["failed"] / report["attempted"] > 0


def test_tampered_digest_fails():
    task = Task(("count", "--n", "5", "--avoid", "2321"), sha256="0" * 64)
    assert child.run_pass((task,))["failed"] == 1


def test_a_raising_task_fails_and_the_pass_goes_on(monkeypatch):
    real_main = modasc.cli.main

    def main(argv):
        if argv[-1] == "raise":
            raise RuntimeError("boom")
        return real_main(argv)

    monkeypatch.setattr(modasc.cli, "main", main)
    bell_5 = Task(("count", "--n", "5", "--avoid", "2321"), stdout="52\n")
    report = child.run_pass((Task(("raise",)), bell_5))
    assert (report["attempted"], report["failed"]) == (2, 1)
    assert "boom" in report["failures"][0]


def test_removed_cache_reads_as_null(monkeypatch):
    monkeypatch.setattr(modasc.paths, "generate_dyck", lambda n: ())
    counters = Tracer(modasc).cache_counters()
    assert counters["cache.paths.generate_dyck.entries"] is None
    assert counters["cache.words._level.entries"] is not None


def test_traced_layers_add_up_to_the_traced_wall_time():
    # Installing the tracer rewires the package, so it runs in its own process.
    code = """
import json, sys
sys.path[:0] = [sys.argv[1]]
import child, modasc
from tracer import Tracer
tracer = Tracer(modasc)
tracer.install()
report = child.run_pass(
    (child.Task(("verify", "--suite", "transport", "--n", "6"), sha256=None),
     child.Task(("count", "--n", "7", "--avoid", "2321"), stdout="877\\n")),
    tracer,
)
print(json.dumps(report))
"""
    proc = subprocess.run([sys.executable, "-c", code, HERE], capture_output=True,
                          text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failed"] == 0, report["failures"]
    layers = report["layers"]
    self_total = sum(layers[f"{layer}.self_s"] for layer in
                     ("words", "patterns", "maps", "paths", "series", "counting",
                      "checks", "cli"))
    assert self_total + layers["unattributed_s"] == pytest.approx(layers["trace.wall_s"])
    # patterns reaches words._children through its own binding of the name.
    assert layers["words.calls"] > 0 and layers["patterns.calls"] > 0
    assert layers["check.omega.size.s"] > 0
    assert layers["words.statistics.calls"] > 0
    names = set(per_layer_names()) - {"trace.overhead", "fail_ratio"}
    assert names <= set(layers)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "verify", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
