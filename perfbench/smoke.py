"""Smoke tests of the benchmark itself, at a tiny size.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

Exits non-zero on the first failed check.  Checks that every workload runs
with no failed query, that spans nest and the layers' self times add up to
the traced ``cli.main`` time, that no boundedcore function stays wrapped
after a run, that a report mismatch makes the run exit non-zero, that
``BENCHMARK.json`` names exactly the metrics the runs report, and that the
benchmark refuses to run without the sources.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys

import run
import tracing
import workloads

QUERIES_PER_PASS = {
    workload: run.ENTRIES_PER_STRATUM[workload] * sum(len(s.verbs) for s in strata)
    for workload, strata in workloads.WORKLOADS.items()
}
LAYER_MODULES = [f"boundedcore.{layer}" for layer in tracing.LAYERS]
run.ENTRIES_PER_STRATUM = dict.fromkeys(workloads.WORKLOADS, 2)
run.MIN_PASSES = 2
run.TRACE_QUERIES = 6
SECONDS = 0.3


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def quietly(func, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return func(*args)


def namespaces(cli) -> dict[str, dict]:
    """The namespaces of the boundedcore modules that ``cli`` reaches,
    found by following each function it holds to the module defining it.

    A run imports boundedcore several times; this finds the modules of the
    import the client called, which ``sys.modules`` may no longer hold.
    """
    found = {cli.__name__: vars(cli)}
    todo = [vars(cli)]
    while todo:
        for value in list(todo.pop().values()):
            space = getattr(value, "__globals__", None)
            if space is not None and space["__name__"].startswith("boundedcore.") \
                    and space["__name__"] not in found:
                found[space["__name__"]] = space
                todo.append(space)
    return found


def wrapped_functions(cli) -> list[str]:
    spaces = namespaces(cli)
    out = [
        f"{name}.{attr}"
        for name, space in spaces.items()
        for attr, value in space.items()
        if inspect.isfunction(value) and hasattr(value, "__wrapped__")
    ]
    game = spaces["boundedcore.core_weber"]["Game"]
    if hasattr(game.__dict__["from_document"].__func__, "__wrapped__"):
        out.append("Game.from_document")
    return out


def check_untraced(workload: str) -> None:
    result, client = quietly(run.run, workload, 0, SECONDS, False)
    check(result["correct"] and result["failed"] == 0, f"{workload}: {client.failures}")
    check(set(result["metrics"]) == {name for name, _ in run.END_TO_END},
          f"{workload}: end-to-end metric names")
    check(all(v > 0 for v in result["metrics"].values()), f"{workload}: a metric reads 0")
    check(set(LAYER_MODULES) <= set(namespaces(client.cli)), f"{workload}: layer modules not found")
    check(not wrapped_functions(client.cli), f"{workload}: wrapped after an untraced run")


def check_traced(workload: str) -> None:
    result, client = quietly(run.run, workload, 0, SECONDS, True)
    metrics = result["metrics"]
    check(result["correct"] and result["failed"] == 0, f"{workload} traced: {client.failures}")
    check(set(metrics) == {name for name, _, _ in tracing.PER_LAYER_METRICS},
          f"{workload}: per-layer metric names")
    check(not wrapped_functions(client.cli), f"{workload}: wrapped after a traced run")
    self_total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    check(abs(self_total - metrics["cli.main.s"]) <= 1e-9 * max(1.0, metrics["cli.main.s"]),
          f"{workload}: self times add to {self_total}, cli.main took {metrics['cli.main.s']}")
    spans = {}
    with open(os.path.join(run.SPANS, f"{workload}-0.jsonl"), encoding="utf-8") as handle:
        for line in handle:
            span_id, parent, name, query, start, end, _ = json.loads(line)
            spans[span_id] = (parent, name, query, start, end)
    for parent, name, query, start, end in spans.values():
        check(start <= end, f"{name} ends before it starts")
        if parent is None:
            check(name == "cli.main", f"root span {name} is not cli.main")
            continue
        p_parent, p_name, p_query, p_start, p_end = spans[parent]
        check(p_query == query, f"{name} and its parent {p_name} belong to different queries")
        check(p_start <= start and end <= p_end, f"{name} is not inside its parent {p_name}")
    if workload == "structure":
        check(metrics["polyhedra.calls"] == 0, "structure calls polyhedra")


def check_mismatch_fails() -> None:
    original = run.expected_digests
    run.expected_digests = lambda workload, reference: {
        q: "0" * 16 for q in original(workload, reference)
    }
    try:
        code = quietly(run.main, ["--workload", "inclusion", "--seed", "0",
                                  "--seconds", str(SECONDS), "--trace", "0"])
    finally:
        run.expected_digests = original
    check(code != 0, "a report mismatch did not make the run exit non-zero")


def check_benchmark_json() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == list(tracing.PER_LAYER_METRICS),
          "BENCHMARK.json per_layer differs from tracing.PER_LAYER_METRICS")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_refuses_without_sources() -> None:
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "_spans", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "structure", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0, "ran without the sources")
    check('"correct"' not in done.stdout, "printed a result without the sources")


def main() -> int:
    sys.path.insert(0, run.SRC)
    for workload, count in QUERIES_PER_PASS.items():
        check(count >= 100, f"{workload}: a full-size pass holds {count} queries, fewer than 100")
    for workload in workloads.WORKLOADS:
        check_untraced(workload)
        check_traced(workload)
        print(f"smoke: {workload} ok")
    check_mismatch_fails()
    check_benchmark_json()
    check_refuses_without_sources()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
