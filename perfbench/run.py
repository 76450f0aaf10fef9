"""End-to-end benchmark of the boundedcore CLI on seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload structure --seed 1 --seconds 40 --trace 0

One client in one process sends queries in a closed loop: each query is an
in-process call to ``boundedcore.cli.main(argv)`` on a JSON document the
benchmark wrote during set-up, with stdout captured.  Every report is
compared, by digest, with the report the reference commit gives for the same
input (``reference.json``), and ``reproduce`` must match all its goldens.

``--trace 0`` measures the end-to-end metrics for ``--seconds``.  Each
timing is scaled by how fast the machine ran at the time, which a fixed
piece of work (``pace``) timed next to every query shows (see
``timed_passes``).
``--trace 1`` repeats a pass over the first queries of the run for
``--seconds``, every other pass with every layer traced (see
``tracing.py``), and reports the per-layer metrics per traced pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(HERE, "_work")
SPANS = os.path.join(HERE, "_spans")

# Catalogue entries a seed draws per stratum.  Every query of them is timed,
# so both sides of a comparison time the same queries; only the number of
# passes follows the clock.  Each count gives a pass of at least 100 queries,
# so that at least 10 lie beyond the 90th percentile.
ENTRIES_PER_STRATUM = {"structure": 12, "unbounded": 20, "inclusion": 12}
MIN_PASSES = 2
SETUPS_PER_PASS = 2
# The fastest time ``pace`` took on a 2-vCPU Firecracker VM with Python
# 3.11.7.  Timings are reported as they would read with the machine that
# fast; a comparison of two commits on one machine divides the constant out.
REFERENCE_PACE_S = 0.55e-3
TRACE_QUERIES = 60

END_TO_END = (
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()[:16]


def load_reference() -> dict[str, dict[str, dict[str, list[str]]]]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def expected_digests(workload: str, reference) -> dict[str, str]:
    out = {}
    for stratum in workloads.WORKLOADS[workload]:
        for index, entry in reference[workload][stratum.name].items():
            for verb, value in zip(stratum.verbs, entry["digests"]):
                out[f"{stratum.name}/{index}/{verb}"] = value
    return out


def choose_entries(workload: str, seed: int, reference) -> dict[str, list[int]]:
    """Per stratum, the catalogue entries this seed draws, in run order.

    The stratum's entries, ranked by their cost at the reference commit, are
    cut into as many bins as entries are drawn, and the seed draws one entry
    from each bin.  Every seed's sample then spans the stratum's costs in the
    same way, so runs on different seeds differ little more than runs on one.
    """
    rng = random.Random(f"{workload}/{seed}")
    count = ENTRIES_PER_STRATUM[workload]
    chosen = {}
    for stratum in workloads.WORKLOADS[workload]:
        entries = reference[workload][stratum.name]
        ranked = sorted(map(int, entries), key=lambda index: (sum(entries[str(index)]["ms"]), index))
        bins = [ranked[len(ranked) * b // count:len(ranked) * (b + 1) // count] for b in range(count)]
        picks = [rng.choice(group) for group in bins]
        rng.shuffle(picks)
        chosen[stratum.name] = picks
    return chosen


def interleave(groups: dict[str, list[list[workloads.Query]]]) -> list[workloads.Query]:
    """Round-robin over strata, keeping each entry's verbs together, so that
    any prefix of the run holds every stratum in equal shares."""
    return [q for row in zip(*groups.values()) for group in row for q in group]


def purge_boundedcore() -> None:
    for name in [m for m in sys.modules if m == "boundedcore" or m.startswith("boundedcore.")]:
        del sys.modules[name]


def set_up(workload: str, entries, directory: str):
    """Import boundedcore afresh, generate the inputs and write the documents.

    Returns the CLI module, the queries in run order and the time taken.
    """
    purge_boundedcore()
    os.makedirs(directory, exist_ok=True)
    rep_dir = tempfile.mkdtemp(dir=directory)
    start = perf_counter()
    cli = importlib.import_module("boundedcore.cli")
    groups = workloads.write_queries(workload, entries, rep_dir)
    return cli, interleave(groups), perf_counter() - start


class Client:
    """Sends queries to ``cli.main`` and checks each report against the reference."""

    def __init__(self, cli, expected: dict[str, str]):
        self.cli = cli
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.exits_1 = 0
        self.out_bytes = 0
        self.failures: list[str] = []

    def ask(self, query: workloads.Query) -> float:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            code = self.cli.main(list(query.argv))
            latency = perf_counter() - start
        report = out.getvalue()
        self.attempted += 1
        self.out_bytes += len(report.encode("utf-8"))
        self.exits_1 += code == 1
        if code != 0 or digest(report) != self.expected.get(query.id):
            self.failed += 1
            self.failures.append(f"{query.id}: exit {code}" if code else f"{query.id}: report differs")
        return latency

    def reproduce_matches(self) -> bool:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["reproduce"])
        lines = out.getvalue().splitlines()
        total = len(self.cli.FIXTURES)
        return code == 0 and bool(lines) and lines[-1] == f"{total}/{total} fixtures match"


def warm_up(client: Client, queries) -> None:
    """One untimed query per (stratum, verb), so lazy work is not timed."""
    seen = set()
    for q in queries:
        kind = (q.id.split("/")[0], q.argv[0])
        if kind not in seen:
            seen.add(kind)
            client.ask(q)


def pace() -> float:
    """Time a fixed piece of pure-Python work like the library's own (exact
    fractions, a dict of small ints)."""
    start = perf_counter()
    table: dict[int, int] = {}
    total = Fraction(0)
    for i in range(300):
        table[i & 63] = table.get(i & 63, 0) + i
        total += Fraction(i % 7 + 1, i % 5 + 1)
    return perf_counter() - start


def slowdown(paces: list[float]) -> float:
    """How much slower than ``REFERENCE_PACE_S`` the machine ran, on average,
    while ``paces`` were timed."""
    return statistics.fmean(paces) / REFERENCE_PACE_S


def timed_passes(client: Client, queries, seconds: float, between) -> tuple[list[float], int, list[float]]:
    """Time the queries in run order, pass after pass, until ``seconds`` are up.

    The test machine shares its cores: from one 30 ms stretch to the next it
    runs between full speed and half of it, and how often it runs slow
    changes over minutes.  So ``pace`` is timed before and after every query,
    and the query's time is scaled by ``REFERENCE_PACE_S`` over the faster of
    the two: the time the query would have taken with the machine as fast as
    when the reference pace was taken.

    Every query is timed at least ``MIN_PASSES`` times.  ``between(paces)``
    runs after each full pass, inside the time, with the paces timed in it.
    Returns each query's fastest scaled time, the number of timings and
    every pace.
    """
    best = [math.inf] * len(queries)
    timings = 0
    deadline = perf_counter() + seconds
    gc.collect()
    first = 0
    paces = [pace()]
    while timings < MIN_PASSES * len(queries) or perf_counter() < deadline:
        index = timings % len(queries)
        latency = client.ask(queries[index])
        paces.append(pace())
        best[index] = min(best[index], latency * REFERENCE_PACE_S / min(paces[-2:]))
        timings += 1
        if index == len(queries) - 1:
            between(paces[first:])
            gc.collect()
            first = len(paces)
            paces.append(pace())
    return best, timings, paces


def one_pass(client: Client, queries, tracer=None) -> float:
    gc.collect()
    start = perf_counter()
    for q in queries:
        if tracer is not None:
            tracer.start_query(q.id)
        client.ask(q)
    return perf_counter() - start


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(client: Client, queries, seconds: float, setup_s: float, set_up_again) -> dict[str, float]:
    """End-to-end metrics from each query's fastest scaled timing.

    The set-up is repeated ``SETUPS_PER_PASS`` times after every pass.  Each
    set-up takes far longer than the machine's fast and slow stretches, so it
    is divided by the mean slowdown over the pass before it (the first, by
    that over the first pass), and the median of the scaled set-ups is
    reported.
    """
    warm_up(client, queries)
    setups: list[tuple[float, list[float]]] = []  # (seconds as timed, paces of the pass before)

    def between(paces: list[float]) -> None:
        setups.extend((set_up_again(), paces) for _ in range(SETUPS_PER_PASS))

    start = perf_counter()
    best, timings, paces = timed_passes(client, queries, seconds, between)
    wall = perf_counter() - start - sum(s for s, _ in setups)
    setups.insert(0, (setup_s, setups[0][1]))
    timed = [s for s, _ in setups]
    scaled = [s / slowdown(pass_paces) for s, pass_paces in setups]
    print(f"timed: {len(best)} queries, {timings / len(best):.3g} timings each; "
          f"completed queries / wall time {timings / wall:.4g} 1/s; mean slowdown "
          f"{slowdown(paces):.3g}, fastest pace {1000 * min(paces):.4f} ms")
    print(f"set-ups: {len(setups)}, {min(timed):.4f} to {max(timed):.4f} s as timed, "
          f"{min(scaled):.4f} to {max(scaled):.4f} s scaled")
    return {
        "queries_per_s": len(best) / sum(best),
        "latency_p50_ms": 1000 * statistics.median(best),
        "latency_p90_ms": 1000 * percentile(best, 90),
        "setup_s": statistics.median(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(client: Client, queries, seconds: float, spans_path: str) -> dict[str, float]:
    """Alternate untraced and traced passes over the first queries of the run."""
    sample = queries[:TRACE_QUERIES]
    one_pass(client, sample)
    tracer = tracing.Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced.append(one_pass(client, sample))
        out_bytes, exits_1 = client.out_bytes, client.exits_1
        tracer.install()
        try:
            traced.append(one_pass(client, sample, tracer))
        finally:
            tracer.remove()
        tracer.count("cli.out_bytes", client.out_bytes - out_bytes)
        tracer.count("cli.exits_1", client.exits_1 - exits_1)
    metrics = tracer.metrics(len(traced))
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    print(f"traced passes: {len(traced)} of {len(sample)} queries; pass median "
          f"{statistics.median(untraced):.3f} s untraced, {statistics.median(traced):.3f} s traced")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Client]:
    reference = load_reference()
    entries = choose_entries(workload, seed, reference)
    directory = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    try:
        cli, queries, setup_s = set_up(workload, entries, directory)
        client = Client(cli, expected_digests(workload, reference))
        reproduced = client.reproduce_matches()
        if trace:
            spans_path = os.path.join(SPANS, f"{workload}-{seed}.jsonl")
            metrics = per_layer(client, queries, seconds, spans_path)
        else:
            # later set-ups re-import boundedcore; the client keeps the first import
            metrics = end_to_end(client, queries, seconds, setup_s,
                                 lambda: set_up(workload, entries, directory)[2])
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    result = {
        "correct": reproduced and client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }
    if not reproduced:
        client.failures.insert(0, "reproduce: a fixture report differs from its golden")
    return result, client


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "boundedcore", "cli.py")):
        print(f"error: no boundedcore sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    result, client = run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = dict(END_TO_END) | {name: unit for name, unit, _ in tracing.PER_LAYER_METRICS}
    for name, value in result["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} failed_ratio = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} queries)")
    for line in client.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
