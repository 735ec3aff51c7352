"""One cold pass of a workload, run in a fresh interpreter by `run.py`.

    python3 benchmark/child.py setup
    python3 benchmark/child.py WORKLOAD SEED INDEX TRACE

Prints one JSON object on its last stdout line: the set-up time and,
unless only set-up was asked for, the pass's wall time, its peak RSS,
the tasks attempted and their failures, and with TRACE=1 the
per-layer counters.  Set-up is timed before this script imports
anything that `modasc` imports itself, so the import is paid in full.
"""

import os
import sys
import time

started = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
import modasc  # noqa: E402
import modasc.cli  # noqa: E402

modasc.cli.build_parser()
SETUP_S = time.perf_counter() - started

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from workloads import CHECK_TAGS, Task, tasks  # noqa: E402


def run_task(task: Task) -> str | None:
    """Run one task through the CLI in this process; None if it gave the
    pinned answer, else what went wrong."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = modasc.cli.main(list(task.argv))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
    except Exception as exc:  # a crash is a failed task; the pass goes on
        return f"raised {exc!r}"
    text = out.getvalue()
    if code != task.code:
        return f"exit code {code}, expected {task.code}"
    if task.stdout is not None and text != task.stdout:
        return f"stdout {text[:80]!r}, expected {task.stdout!r}"
    if task.sha256 is not None:
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != task.sha256:
            return f"stdout sha256 {digest}, expected {task.sha256}"
    return None


def run_pass(todo: tuple[Task, ...], tracer=None) -> dict:
    """Run the tasks one after the other and report the pass."""
    failures = []
    start = time.perf_counter()
    for task in todo:
        problem = run_task(task)
        if problem is not None:
            failures.append(f"{' '.join(task.argv)}: {problem}")
    wall = time.perf_counter() - start
    report = {
        "wall_s": wall,
        "attempted": len(todo),
        "failed": len(failures),
        "failures": failures,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, wall)
    return report


def layer_metrics(tracer, wall: float) -> dict:
    metrics = {"trace.wall_s": wall, "unattributed_s": wall - tracer.spanned_s}
    for layer in tracer.calls:
        metrics[f"{layer}.calls"] = tracer.calls[layer]
        metrics[f"{layer}.self_s"] = tracer.self_s[layer]
    metrics["words.statistics.calls"] = tracer.fn_calls["words.statistics"]
    metrics["words.statistics.self_s"] = tracer.fn_self_s["words.statistics"]
    metrics["counting.p_coefficients.self_s"] = tracer.fn_self_s["counting.p_coefficients"]
    for tag in CHECK_TAGS:
        metrics[f"check.{tag}.s"] = tracer.check_s.get(tag, 0.0)
    metrics.update(tracer.cache_counters())
    return metrics


def main(argv: list[str]) -> int:
    if not os.path.abspath(modasc.__file__).startswith(SRC + os.sep):
        print(f"error: modasc was imported from {modasc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    report = {"setup_s": SETUP_S}
    if argv != ["setup"]:
        workload, seed, index, trace = argv
        tracer = None
        if trace == "1":
            from tracer import Tracer

            tracer = Tracer(modasc)
            tracer.install()
        report.update(run_pass(tasks(workload, int(seed), int(index)), tracer))
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
