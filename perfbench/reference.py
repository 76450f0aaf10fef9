"""Rebuild ``reference.json``: the digest of every catalogue query's report.

Usage, from the root of a checkout::

    python3 perfbench/reference.py

Runs every verb of every catalogue entry through ``boundedcore.cli.main`` at
the current commit, ``REPEATS`` times.  An entry on which some verb exits
non-zero is left out, so runs draw only inputs every verb answers.  Each
entry also records the fastest time of each verb, in ms, scaled by the
paces beside it as in ``run.timed_passes``.  Runs use these only to split a
stratum into bins of similar cost (see ``run.choose_entries``).  Every workload is rebuilt, so the file holds
the reports and costs of one commit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from time import perf_counter

import run
import workloads


REPEATS = 4


def ask(cli, query) -> tuple[int, str, float]:
    out = io.StringIO()
    before = run.pace()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        code = cli.main(list(query.argv))
        elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed * run.REFERENCE_PACE_S / min(before, run.pace())


def build(workload: str, cli) -> dict[str, dict[str, dict]]:
    directory = os.path.join(run.WORK, f"reference-{workload}")
    table: dict[str, dict[str, dict]] = {}
    try:
        for stratum in workloads.WORKLOADS[workload]:
            table[stratum.name] = {}
            entries = {s.name: [] for s in workloads.WORKLOADS[workload]}
            entries[stratum.name] = list(range(workloads.CATALOGUE_SIZE))
            groups = workloads.write_queries(workload, entries, directory)[stratum.name]
            for index, group in zip(entries[stratum.name], groups):
                digests, costs = [], []
                for query in group:
                    runs = [ask(cli, query) for _ in range(REPEATS)]
                    code, report, _ = runs[0]
                    if code != 0:
                        print(f"left out {query.id}: exit {code}", file=sys.stderr)
                        break
                    if any(r[:2] != (code, report) for r in runs):
                        raise SystemExit(f"{query.id}: the report differs between repeats")
                    digests.append(run.digest(report))
                    costs.append(round(1000 * min(r[2] for r in runs), 3))
                else:
                    table[stratum.name][str(index)] = {"ms": costs, "digests": digests}
            print(f"{workload}/{stratum.name}: {len(table[stratum.name])} of "
                  f"{workloads.CATALOGUE_SIZE} entries kept", file=sys.stderr)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return table


def dump(reference) -> str:
    """One line per catalogue entry, so a changed digest shows as one changed line."""
    lines = ["{"]
    for w, workload in enumerate(reference):
        lines.append(f"  {json.dumps(workload)}: {{")
        strata = reference[workload]
        for s, stratum in enumerate(strata):
            lines.append(f"    {json.dumps(stratum)}: {{")
            items = sorted(strata[stratum].items(), key=lambda kv: int(kv[0]))
            for i, (index, entry) in enumerate(items):
                comma = "," if i < len(items) - 1 else ""
                lines.append(f"      {json.dumps(index)}: {json.dumps(entry)}{comma}")
            lines.append("    }" + ("," if s < len(strata) - 1 else ""))
        lines.append("  }" + ("," if w < len(reference) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.path.insert(0, run.SRC)
    from boundedcore import cli

    reference = {name: build(name, cli) for name in sorted(workloads.WORKLOADS)}
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        handle.write(dump(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
