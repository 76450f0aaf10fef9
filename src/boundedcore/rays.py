"""Extremal rays of the recession cone, structure-aware and oracle routes.

Every direction is a primitive integer vector.  For a distributive system
the unbounded directions are the transfers read directly off the covering
pairs of the generating poset; for a regular system the transfer-form ones
come from the covering pairs of the order J_i ⊆ J_j on the smallest
feasible sets J_i = ∩{S ∈ F : i ∈ S}.  Both routes are cross-checked
against the double-description oracle, and :func:`rays_general` compares
the cone of a system with the cone of its union/intersection closure by
testing the system's own generators against the closure-only sets.  The
guards share one :func:`classify` report per system object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistency, NotRegular, NotWeaklyUnionClosed
from .lattice import PlayerPoset, extract_poset
from .polyhedra import HPolyhedron, dd_generators
from .setsystem import Coalition, SetSystem, classify, closure
from .vectors import IntVec, indicator, is_transfer, weight


@dataclass(frozen=True)
class RayReport:
    extremal_rays: tuple[IntVec, ...]
    lineality: tuple[IntVec, ...]
    all_pair_form: bool
    equals_closure_cone: bool


def build_recession_cone(system: SetSystem, zero_sets=()) -> HPolyhedron:
    """``{x : x(S) >= 0 for S in F, x(N) = 0, x(Z) = 0 for Z in zero_sets}``,
    with 0/1 int rows and int zero bounds."""
    n = system.n
    full = system.universe.full_mask
    zero_masks = []
    for z in zero_sets:
        zero_masks.append(z.mask if isinstance(z, Coalition) else int(z))
    inequalities = tuple(
        (indicator(c.mask, n), 0)
        for c in system
        if c.mask not in (0, full) and c.mask not in zero_masks
    )
    equalities = tuple((indicator(m, n), 0) for m in zero_masks) + ((indicator(full, n), 0),)
    return HPolyhedron(n, inequalities, equalities)


def rays_distributive(poset: PlayerPoset) -> list[IntVec]:
    """Extremal rays of the downset-lattice cone: one transfer per covering pair.

    The ray for ``lower`` covered by ``upper`` is +1 at lower and -1 at
    upper: it moves payoff from upper to lower, which no feasible coalition
    can object to since every downset holding upper holds lower.  The rays
    come in the order of the pairs (lower, upper).
    """
    players = poset.universe.players
    return [
        tuple(1 if p == lower else -1 if p == upper else 0 for p in players)
        for lower, upper in poset.covers()
    ]


def rays_regular(system: SetSystem) -> list[IntVec]:
    """Transfer-form extremal rays of the cone of a regular system.

    These are the transfers of the covering pairs of the order J_i ⊆ J_j on
    the smallest feasible sets J_i = ∩{S ∈ F : i ∈ S}: player j comes after
    player i in every maximal chain exactly when every feasible set holding
    j holds i.
    The J_i of a regular system are distinct, since two players with the
    same J_i would join every chain at the same step, so its closure has
    height n and is the downset lattice of that order.

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
    return rays_distributive(extract_poset(closure(system)))


def rays_general(system: SetSystem) -> RayReport:
    """Oracle ray report for an arbitrary system, with the closure comparison.

    The closure's cone lies inside the system's cone, so the two are equal
    exactly when the system's generators obey the rows of the closure-only
    sets: every ray r has r(S) >= 0 and every lineality vector l has l(S) = 0.
    When the closure reaches height n, "the two cones agree" must coincide
    with "no line and every ray is a two-player transfer"; both sides are
    computed and a disagreement is a hard internal error.
    """
    gens = dd_generators(build_recession_cone(system))
    closure_only = [m for m in closure(system).masks() if m not in system]
    equals = all(weight(r, m) >= 0 for r in gens.extremal_rays for m in closure_only) and all(
        weight(l, m) == 0 for l in gens.lineality for m in closure_only
    )
    all_pair = not gens.lineality and all(map(is_transfer, gens.extremal_rays))
    if classify(system).closure_height == system.n and equals != all_pair:
        raise InternalInconsistency(
            "closure-cone comparison disagrees with the pair-form criterion on the "
            f"sets {system.to_document()['sets']}: "
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
