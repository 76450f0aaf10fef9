"""Normal collections: the minimal equality sets that bound the core.

Turning ``x(S) >= v(S)`` into an equality removes every unbounded direction
that raises the total payoff of S.  Since x(S) >= 0 holds on the recession
cone C, freezing a collection cuts C down to a face, and a face of a pointed
cone is spanned by the extremal rays it holds.  Hence the face rule: a
collection bounds the core exactly when C has no lineality and every
extremal ray r of C has r(S) > 0 for some frozen S.  Every direction is an
integer vector, and ``weight(r, S) > 0`` is the one test that decides it.

Three constructions are provided for downset lattices (the irredundant one,
its nested hull, and the level-based one), a lift that moves collections
computed on the closure back into a sparser system by applying the face
rule to the closure's covering-pair transfers and to the system's cone
generators (one DD run or, on a closed system, the covering-pair transfers,
supplied by the caller), and a validator that asks the polyhedral oracle
whether a candidate really bounds the core.  The validator also answers
``core``'s question for an empty restricted core, whose V-representation
shows no recession cone: that cone is the one the validator converts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CollectionNotNested, NoFeasibleLift, SetNotFeasible
from .lattice import PlayerPoset, level_partition
from .polyhedra import VRepresentation, dd_generators
from .rays import RayReport, build_recession_cone
from .setsystem import Coalition, SetSystem
from .vectors import IntVec, format_rational, weight

KINDS = ("irredundant", "weber", "grabisch_xie", "custom")


@dataclass(frozen=True)
class NormalCollection:
    """An ordered list of coalitions whose inequalities become equalities.

    The grand coalition is never a member (its efficiency equality is always
    present anyway).  Collections of kind ``weber`` or ``grabisch_xie`` must
    be nested, i.e. totally ordered by inclusion.
    """

    sets: tuple[Coalition, ...]
    kind: str = "custom"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown collection kind {self.kind!r}")
        for c in self.sets:
            if c.mask == (1 << c.n) - 1:
                raise ValueError("the grand coalition cannot be a normal set")
        if self.kind in ("weber", "grabisch_xie") and not self.is_nested():
            raise CollectionNotNested(f"a {self.kind} collection must be a chain")

    def is_nested(self) -> bool:
        for a, b in zip(self.sets, self.sets[1:]):
            if not a < b:
                return False
        return True

    def __iter__(self):
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)


def algo1_irredundant(poset: PlayerPoset) -> NormalCollection:
    """Smallest equality sets, one per poset level except the top.

    Each round drops the elements that are both minimal and maximal in what
    remains (they head no unbounded direction), then freezes the payoff of
    the downset generated by the current minimal elements.  An antichain
    yields the empty collection: that core is already bounded.
    """
    n = poset.n
    remaining = poset.universe.full_mask
    sets: list[Coalition] = []
    while True:
        isolated = poset.minimal_of(remaining) & poset.maximal_of(remaining)
        remaining &= ~isolated
        if not remaining:
            break
        m0 = poset.minimal_of(remaining)
        sets.append(Coalition(poset.downset_of(m0), n))
        remaining &= ~m0
    return NormalCollection(tuple(sets), kind="irredundant")


def weber_collection(irredundant: NormalCollection) -> NormalCollection:
    """Cumulative unions of the irredundant sets: the smallest nested collection."""
    if irredundant.kind != "irredundant":
        raise ValueError("the nested hull is built from an irredundant collection")
    sets = []
    acc = None
    for c in irredundant:
        acc = c if acc is None else acc | c
        sets.append(acc)
    return NormalCollection(tuple(sets), kind="weber")


def grabisch_xie_collection(poset: PlayerPoset) -> NormalCollection:
    """Cumulative unions of the poset levels, all but the last: the largest nested collection."""
    levels = level_partition(poset)
    sets = []
    acc = None
    for level in levels[:-1]:
        acc = level if acc is None else acc | level
        sets.append(acc)
    return NormalCollection(tuple(sets), kind="grabisch_xie")


def validate_normal(system: SetSystem, candidate: NormalCollection) -> bool:
    """Ask the oracle whether the equalities really bound the core.

    This runs DD on the frozen cone.  It is the ground truth for the face
    rule, which decides the same question from the generators of the
    unfrozen cone (see :func:`lift_collection_detailed`), and it checks
    collections supplied by the user.
    """
    for c in candidate:
        if c.mask not in system:
            raise SetNotFeasible(f"candidate normal set {c} is not feasible")
    gens = dd_generators(build_recession_cone(system, zero_sets=candidate.sets))
    return not gens.extremal_rays and not gens.lineality


@dataclass(frozen=True)
class LiftOutcome:
    """Result of lifting a collection into a sparser system.

    ``replacements`` records, per replaced set, the chosen feasible superset
    (None when no superset removes every closure ray the original removed)
    and the equally small alternatives that canonical order skipped.
    ``extra_sets`` lists repair sets appended because the replacements alone
    left some generator of the system's recession cone unfrozen (the
    collection then exceeds the optimal size).  The returned collection
    bounds the core by the face rule.
    """

    collection: NormalCollection
    replacements: tuple[tuple[Coalition, Coalition | None, tuple[Coalition, ...]], ...]
    extra_sets: tuple[Coalition, ...]

    @property
    def changed(self) -> bool:
        return bool(self.replacements) or bool(self.extra_sets)


def lift_collection_detailed(
    system: SetSystem,
    candidate: NormalCollection,
    rays: list[IntVec],
    cone: VRepresentation | RayReport,
) -> LiftOutcome:
    """Replace infeasible normal sets by minimal feasible supersets.

    ``rays`` are the extremal rays of the closure's cone, the transfers of
    :func:`~boundedcore.rays.rays_distributive`.  A replacement S must keep
    removing every ray r its original removed, i.e. keep r(S) > 0; ties are
    broken by canonical coalition order and reported as alternatives.

    ``cone`` holds the generators of ``build_recession_cone(system)``: a
    :class:`VRepresentation` (from DD or, on a closed system, its
    covering-pair transfers in DD's order) or the :func:`rays_general`
    report; the lift calls no oracle.  By the face rule, the chosen sets
    bound the core exactly when every generator v (lineality vectors
    first, then extremal rays, each in canonical order) has v(S) > 0 for
    some chosen S.  For each generator the chosen sets miss, the
    canonical-first feasible set S with v(S) > 0 is appended.  A lineality
    vector is zero on every feasible set, so a cone with lineality raises
    :class:`NoFeasibleLift`; a pointed cone never does, since an extremal
    ray r zero on all of F would have -r in the cone as well.  Hence
    ``validate_normal(system, outcome.collection)`` is always True.
    """
    full = system.universe.full_mask
    feasible = [c for c in system.sets if c.mask not in (0, full)]
    chosen: list[Coalition] = []
    replacements = []
    for original in candidate:
        if original.mask in system:
            if original.mask not in {c.mask for c in chosen}:
                chosen.append(original)
            continue
        removed = [r for r in rays if weight(r, original.mask) > 0]
        options = [
            c
            for c in feasible
            if original <= c and all(weight(r, c.mask) > 0 for r in removed)
        ]
        if not options:
            # no faithful replacement; the repair walk below must cover for it
            replacements.append((original, None, ()))
            continue
        best = min(options, key=Coalition.key)
        ties = tuple(c for c in options if len(c) == len(best) and c.mask != best.mask)
        replacements.append((original, best, ties))
        if best.mask not in {c.mask for c in chosen}:
            chosen.append(best)

    extra: list[Coalition] = []
    for direction in cone.lineality + cone.extremal_rays:
        if any(weight(direction, c.mask) > 0 for c in chosen):
            continue
        hitters = [c for c in feasible if weight(direction, c.mask) > 0]
        if not hitters:
            raise NoFeasibleLift(
                "no feasible coalition can remove the unbounded direction "
                f"({','.join(format_rational(x) for x in direction)})"
            )
        pick = min(hitters, key=Coalition.key)
        chosen.append(pick)
        extra.append(pick)

    if not replacements and not extra:
        return LiftOutcome(candidate, (), ())
    return LiftOutcome(
        NormalCollection(tuple(chosen), kind="custom"),
        tuple(replacements),
        tuple(extra),
    )
