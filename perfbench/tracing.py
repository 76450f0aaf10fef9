"""Per-layer tracing of boundedcore from outside the package.

:class:`Tracer` wraps every public function of the layer modules (and
``Game.from_document``) and rebinds each wrapped name in every
``boundedcore.*`` namespace that holds it, so calls made inside a module
are seen too.  Every call becomes a span with its name, start, end, parent
span and query id; spans stay in memory until :meth:`Tracer.write`.
:meth:`Tracer.remove` puts every original function back.

A layer's self time is the time of its spans minus the time of their
child spans, so the self times of all layers add up to the time of the
root ``cli.main`` spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("setsystem", "lattice", "rays", "normal", "polyhedra", "core_weber", "cli")

# (metric, unit, better); the traced run reports each one per traced pass
LAYER_METRICS = tuple(
    (f"{layer}.{kind}", unit, "lower")
    for layer in LAYERS
    for kind, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))
)

FUNCTION_METRICS = (
    ("setsystem.classify.s", "s", "lower"),
    ("setsystem.classify.calls", "count", "lower"),
    ("setsystem.classify.repeat_ratio", "ratio", "lower"),
    ("setsystem.covering_pairs.s", "s", "lower"),
    ("setsystem.closure.s", "s", "lower"),
    ("setsystem.closure.sets_out", "count", "lower"),
    ("setsystem.maximal_chains.s", "s", "lower"),
    ("setsystem.maximal_chains.chains_out", "count", "lower"),
    ("lattice.extract_poset.s", "s", "lower"),
    ("lattice.downsets.sets_out", "count", "lower"),
    ("rays.rays_general.s", "s", "lower"),
    ("rays.rays_regular.s", "s", "lower"),
    ("rays.wuc_ray_equality_condition.s", "s", "lower"),
    ("normal.validate_normal.s", "s", "lower"),
    ("normal.validate_normal.calls", "count", "lower"),
    ("normal.lift_collection_detailed.s", "s", "lower"),
    ("normal.lift.extra_sets", "count", "lower"),
    ("polyhedra.dd_generators.s", "s", "lower"),
    ("polyhedra.dd_generators.calls", "count", "lower"),
    ("polyhedra.dd_generators.rows_in", "count", "lower"),
    ("polyhedra.dd_generators.generators_out", "count", "lower"),
    ("polyhedra.dd_generators.repeat_ratio", "ratio", "lower"),
    ("polyhedra.hull_membership.s", "s", "lower"),
    ("polyhedra.hull_membership.calls", "count", "lower"),
    ("polyhedra.hull_membership.columns_in", "count", "lower"),
    ("polyhedra.hull_membership.member_ratio", "ratio", "higher"),
    ("core_weber.verify_inclusion.s", "s", "lower"),
    ("core_weber.restricted_weber.s", "s", "lower"),
    ("core_weber.restricted_weber.vertices_out", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

PER_LAYER_METRICS = LAYER_METRICS + FUNCTION_METRICS


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    query: str
    start: float
    end: float = 0.0
    raised: bool = False


class Tracer:
    """Spans and counters for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.query = ""
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public functions wherever boundedcore binds them."""
        from boundedcore.core_weber import Game
        from boundedcore.errors import ValidationError

        self._validation_error = ValidationError
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"boundedcore.{layer}"]
            for name, func in vars(module).items():
                if (
                    inspect.isfunction(func)
                    and not name.startswith("_")
                    and func.__module__ == module.__name__
                ):
                    originals[id(func)] = self._wrap(layer, f"{layer}.{name}", func)
        for module_name, module in list(sys.modules.items()):
            if module_name == "boundedcore" or module_name.startswith("boundedcore."):
                for name, value in list(vars(module).items()):
                    if id(value) in originals:
                        self._patch(module, name, originals[id(value)])
        raw = Game.__dict__["from_document"].__func__
        self._patch(Game, "from_document", classmethod(
            self._wrap("core_weber", "core_weber.Game.from_document", raw)))

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, layer: str, name: str, func):
        observe = OBSERVERS.get(name)
        validation_error = self._validation_error
        spans = self.spans
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name, layer, self.query, 0.0)
            spans.append(span)
            stack.append(span.id)
            span.start = perf_counter()
            try:
                result = func(*args, **kwargs)
            except validation_error:
                span.raised = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def count_repeat(self, name: str, key) -> None:
        """Count a repeat when the same input was already seen in this query."""
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self.count(f"{name}.repeats")
        seen.add(key)

    def start_query(self, query_id: str) -> None:
        self.query = query_id
        self._seen.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(
                    [s.id, s.parent, s.name, s.query, s.start, s.end, s.raised],
                    separators=(",", ":"),
                ) + "\n")

    # -- metrics ------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values of every per-layer metric except the overhead ratio."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        values: dict[str, float] = {name: 0 for name, _, _ in LAYER_METRICS}
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        for s in self.spans:
            duration = s.end - s.start
            values[f"{s.layer}.self_s"] += duration - child_time[s.id]
            values[f"{s.layer}.calls"] += 1
            inclusive[s.name] = inclusive.get(s.name, 0.0) + duration
            calls[s.name] = calls.get(s.name, 0) + 1
            if s.raised and (s.parent is None or self.spans[s.parent].layer != s.layer):
                values[f"{s.layer}.errors"] += 1
        # cli.main turns every ValidationError into exit code 1
        values["cli.errors"] += self.counts.get("cli.exits_1", 0)

        for name, _, _ in FUNCTION_METRICS:
            function, _, kind = name.rpartition(".")
            if name == "trace.overhead_ratio":
                continue
            if kind == "s":
                values[name] = inclusive.get(function, 0.0)
            elif kind == "calls":
                values[name] = calls.get(function, 0)
            elif kind.endswith("_ratio"):
                counted = self.counts.get(f"{function}.{kind.removesuffix('_ratio')}s", 0)
                values[name] = counted / calls[function] if calls.get(function) else 0.0
            else:
                values[name] = self.counts.get(name, 0)
        # ratios are per call already; every other value is a total over the passes
        return {
            name: value if name.endswith("_ratio") else value / passes
            for name, value in values.items()
        }


def _observe_classify(tracer, args, result):
    system = args[0]
    tracer.count_repeat("setsystem.classify", (system.n, tuple(system.masks())))


def _observe_dd(tracer, args, result):
    poly = args[0]
    tracer.count_repeat("polyhedra.dd_generators", poly)
    tracer.count("polyhedra.dd_generators.rows_in", len(poly.inequalities) + len(poly.equalities))
    tracer.count(
        "polyhedra.dd_generators.generators_out",
        len(result.vertices) + len(result.extremal_rays) + len(result.lineality),
    )


def _observe_hull(tracer, args, result):
    gens = args[1]
    columns = len(gens.vertices) + len(gens.extremal_rays) + 2 * len(gens.lineality)
    tracer.count("polyhedra.hull_membership.columns_in", columns)
    tracer.count("polyhedra.hull_membership.members", int(result))


OBSERVERS = {
    "setsystem.classify": _observe_classify,
    "setsystem.closure": lambda t, a, r: t.count("setsystem.closure.sets_out", len(r)),
    "setsystem.maximal_chains": lambda t, a, r: t.count("setsystem.maximal_chains.chains_out", len(r)),
    "lattice.downsets": lambda t, a, r: t.count("lattice.downsets.sets_out", len(r)),
    "normal.lift_collection_detailed": lambda t, a, r: t.count("normal.lift.extra_sets", len(r.extra_sets)),
    "polyhedra.dd_generators": _observe_dd,
    "polyhedra.hull_membership": _observe_hull,
    "core_weber.restricted_weber": lambda t, a, r: t.count(
        "core_weber.restricted_weber.vertices_out", len(r.vertices)),
}
