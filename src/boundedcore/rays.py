"""Extremal rays of the recession cone, structure-aware and oracle routes.

For a distributive system the unbounded directions are read directly off the
covering pairs of the generating poset; for a regular system they are the
covering pairs of the "comes after in every maximal chain" dominance order.
Both routes are cross-checked against the double-description oracle, and
:func:`rays_general` compares the cone of a system with the cone of its
union/intersection closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistency, NotRegular, NotWeaklyUnionClosed
from .lattice import PlayerPoset
from .polyhedra import HPolyhedron, VRepresentation, dd_generators
from .setsystem import Coalition, SetSystem, classify, closure, maximal_chains
from .vectors import Vector, format_rational, pair_form


@dataclass(frozen=True)
class OrderedPairRay:
    """The direction +1 for ``plus`` and -1 for ``minus``."""

    plus: int
    minus: int

    def __post_init__(self):
        if self.plus == self.minus:
            raise ValueError("a transfer direction needs two distinct players")

    def vector(self, n: int) -> Vector:
        return tuple(
            Fraction(1 if p == self.plus else -1 if p == self.minus else 0)
            for p in range(1, n + 1)
        )

    def __str__(self) -> str:
        return f"(+{self.plus},-{self.minus})"


@dataclass(frozen=True)
class RayReport:
    extremal_rays: tuple[Vector, ...]
    lineality: tuple[Vector, ...]
    all_pair_form: bool
    equals_closure_cone: bool


def build_recession_cone(system: SetSystem, zero_sets=()) -> HPolyhedron:
    """``{x : x(S) >= 0 for S in F, x(N) = 0, x(Z) = 0 for Z in zero_sets}``."""
    n = system.n
    full = system.universe.full_mask
    zero_masks = []
    for z in zero_sets:
        zero_masks.append(z.mask if isinstance(z, Coalition) else int(z))
    zero = Fraction(0)
    one = Fraction(1)

    def row(mask: int) -> Vector:
        return tuple(one if mask >> i & 1 else zero for i in range(n))

    inequalities = tuple(
        (row(c.mask), zero)
        for c in system
        if c.mask not in (0, full) and c.mask not in zero_masks
    )
    equalities = tuple((row(m), zero) for m in zero_masks) + ((row(full), zero),)
    return HPolyhedron(n, inequalities, equalities)


def rays_distributive(poset: PlayerPoset) -> list[OrderedPairRay]:
    """Extremal rays of the downset-lattice cone: one per covering pair.

    The ray for ``lower`` covered by ``upper`` moves payoff from upper to
    lower, which no feasible coalition can object to since every downset
    holding upper holds lower.
    """
    return [OrderedPairRay(plus=lower, minus=upper) for lower, upper in sorted(poset.covers())]


def rays_regular(system: SetSystem) -> list[OrderedPairRay]:
    """Transfer-form extremal rays of the cone of a regular system.

    Walk the order induced by the first maximal chain; every pair (i, j) with
    j ranked after i in *every* maximal chain is a candidate ray (1_i, -1_j),
    and candidates that are sums of two others are removed until none is
    left.  The reduction runs to a fixpoint, so the outcome does not depend
    on which chain seeded the walk.

    The result is exactly the set of extremal rays that are two-player
    transfers.  Beware: a regular system can have further extremal rays with
    wider support (smallest case: {∅,1,2,13,23,123,1234}, whose cone has the
    extremal ray (1,1,-1,-1)), and then this enumeration is a strict subset
    of :func:`rays_general`.  The two coincide exactly when every extremal
    ray is a transfer, which also characterizes the cone being unchanged by
    union/intersection closure.
    """
    if not classify(system).is_regular:
        raise NotRegular("ray enumeration by chain ranks needs a regular system")
    chains = maximal_chains(system)
    orders = [c.order() for c in chains]
    n = system.n
    rank = []
    for order in orders:
        r = [0] * (n + 1)
        for pos, player in enumerate(order):
            r[player] = pos
        rank.append(r)

    def after_everywhere(i: int, j: int) -> bool:
        return all(r[j] > r[i] for r in rank)

    reference = orders[0]
    candidates: set[tuple[int, int]] = set()
    for pos_i, i in enumerate(reference[:-1]):
        for j in reference[pos_i + 1:]:
            if after_everywhere(i, j):
                candidates.add((i, j))
    # a candidate (k, j) with a waypoint i is the sum (1_k,-1_i) + (1_i,-1_j);
    # dropping all of these against the full candidate set is the fixpoint
    chosen = [
        (i, j)
        for i, j in sorted(candidates)
        if not any((i, k) in candidates and (k, j) in candidates for k in range(1, n + 1))
    ]
    return [OrderedPairRay(plus=i, minus=j) for i, j in chosen]


def _same_cone(a: VRepresentation, b: VRepresentation) -> bool:
    'canonical forms are unique, so cone equality is plain equality'
    return (
        set(a.extremal_rays) == set(b.extremal_rays)
        and a.lineality == b.lineality
    )


def rays_general(system: SetSystem) -> RayReport:
    """Oracle ray report for an arbitrary system, with the closure comparison.

    When the closure reaches height n, "the two cones agree" must coincide
    with "no line and every ray is a two-player transfer"; both sides are
    computed and a disagreement is a hard internal error.
    """
    gens = dd_generators(build_recession_cone(system))
    closed = closure(system)
    # a closed system is its own closure, so the two cones are one cone
    equals = len(closed) == len(system) or _same_cone(
        gens, dd_generators(build_recession_cone(closed))
    )
    all_pair = not gens.lineality and all(pair_form(r) is not None for r in gens.extremal_rays)
    if classify(system).closure_height == system.n and equals != all_pair:
        raise InternalInconsistency(
            "closure-cone comparison disagrees with the pair-form criterion: "
            f"equals_closure_cone={equals}, all_pair_form={all_pair}"
        )
    return RayReport(
        extremal_rays=gens.extremal_rays,
        lineality=gens.lineality,
        all_pair_form=all_pair,
        equals_closure_cone=equals,
    )


def wuc_ray_equality_condition(system: SetSystem) -> bool:
    """Sufficient condition for a weakly union-closed system to keep its cone
    unchanged under closure.

    Every closure-only set must either split into pairwise disjoint feasible
    sets, or arise as an intersection S1 ∩ S2 whose outside N \\ (S1 ∪ S2)
    can be partitioned into feasible sets.  Returns the verdict of this
    sufficient test only; False does not prove the cones differ.
    """
    if not classify(system).is_weakly_union_closed:
        raise NotWeaklyUnionClosed("the condition is only stated for weakly union-closed systems")
    nonempty = [c.mask for c in system if c.mask]
    partition_cache: dict[int, bool] = {0: True}

    def has_partition(mask: int) -> bool:
        if mask in partition_cache:
            return partition_cache[mask]
        low = mask & -mask
        ok = any(
            t & ~mask == 0 and t & low and has_partition(mask & ~t) for t in nonempty
        )
        partition_cache[mask] = ok
        return ok

    full = system.universe.full_mask
    members = set(system.masks())
    for extra in closure(system):
        s = extra.mask
        if s in members:
            continue
        if has_partition(s):
            continue
        found = False
        for a in nonempty:
            for b in nonempty:
                if a & b == s and has_partition(full & ~(a | b)):
                    found = True
                    break
            if found:
                break
        if not found:
            return False
    return True


def report_to_document(report: RayReport) -> dict:
    render = lambda vs: [[format_rational(c) for c in v] for v in vs]
    return {
        "extremal_rays": render(report.extremal_rays),
        "lineality": render(report.lineality),
        "all_pair_form": report.all_pair_form,
        "equals_closure_cone": report.equals_closure_cone,
    }
