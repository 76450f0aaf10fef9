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
generators, both derived by the lift (the system's stored DD run or, on a
downset lattice, its covering-pair transfers), and a validator that asks
the polyhedral oracle whether a candidate really bounds the core.  The
validator also answers ``core``'s question for an empty restricted core,
whose V-representation shows no recession cone: that cone is the one the
validator converts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .errors import CollectionNotNested, NoFeasibleLift, SetNotFeasible
from .lattice import PlayerPoset, extract_poset, level_partition
from .polyhedra import dd_generators
from .rays import _cone, build_recession_cone, rays_distributive
from .setsystem import SetSystem, _memo, closure, coalition_text, is_closed, smallest_sets
from .vectors import IntVec, format_rational, indicator, weight

KINDS = ("irredundant", "weber", "grabisch_xie", "custom")


@dataclass(frozen=True)
class NormalCollection:
    """An ordered list of coalition masks over players 1..n whose
    inequalities become equalities.

    Neither the grand coalition (its efficiency equality is always present
    anyway) nor the empty one (whose equality 0 = 0 freezes nothing) is ever
    a member; a set listed twice is kept as listed.  Collections of kind
    ``weber`` or ``grabisch_xie`` must be nested, i.e. totally ordered by
    inclusion, in whatever order their sets are listed.
    """

    sets: tuple[int, ...]
    n: int
    kind: str = "custom"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown collection kind {self.kind!r}")
        for m in self.sets:
            if not isinstance(m, int) or isinstance(m, bool) or m < 0 or m >> self.n:
                raise ValueError(f"normal sets must be masks of players 1..{self.n}, got {m!r}")
        if (1 << self.n) - 1 in self.sets:
            raise ValueError("the grand coalition cannot be a normal set")
        if 0 in self.sets:
            raise ValueError("the empty coalition cannot be a normal set")
        if self.kind in ("weber", "grabisch_xie") and not self.is_nested():
            raise CollectionNotNested(f"a {self.kind} collection must be a chain")

    def unnested_pair(self) -> tuple[int, int] | None:
        """The first neighbours in canonical order that are not strictly
        nested, or None when the sets form a chain (in any listed order)."""
        ordered = sorted(self.sets, key=lambda m: (m.bit_count(), m))
        return next(((a, b) for a, b in zip(ordered, ordered[1:]) if a == b or a & ~b), None)

    def is_nested(self) -> bool:
        return self.unnested_pair() is None

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
    remaining = poset.universe.full_mask
    sets: list[int] = []
    while True:
        isolated = poset.minimal_of(remaining) & poset.maximal_of(remaining)
        remaining &= ~isolated
        if not remaining:
            break
        m0 = poset.minimal_of(remaining)
        sets.append(poset.downset_of(m0))
        remaining &= ~m0
    return NormalCollection(tuple(sets), poset.n, kind="irredundant")


def weber_collection(irredundant: NormalCollection) -> NormalCollection:
    """Cumulative unions of the irredundant sets: the smallest nested collection."""
    if irredundant.kind != "irredundant":
        raise ValueError("the nested hull is built from an irredundant collection")
    sets = []
    acc = 0
    for c in irredundant:
        acc |= c
        sets.append(acc)
    return NormalCollection(tuple(sets), irredundant.n, kind="weber")


def grabisch_xie_collection(poset: PlayerPoset) -> NormalCollection:
    """Cumulative unions of the poset levels, all but the last: the largest nested collection."""
    sets = []
    acc = 0
    for level in level_partition(poset)[:-1]:
        acc |= level
        sets.append(acc)
    return NormalCollection(tuple(sets), poset.n, kind="grabisch_xie")


def validate_normal(system: SetSystem, candidate: NormalCollection) -> bool:
    """Ask the oracle whether the equalities really bound the core.

    This runs DD on the frozen cone.  It is the ground truth for the face
    rule, which decides the same question from the generators of the
    unfrozen cone (see :func:`lift_collection_detailed`), and it checks
    collections supplied by the user.
    """
    for c in candidate:
        if c not in system:
            raise SetNotFeasible(f"candidate normal set {coalition_text(c, system.n)} is not feasible")
    gens = dd_generators(build_recession_cone(system, zero_sets=candidate.sets))
    return not gens.extremal_rays and not gens.lineality


@dataclass(frozen=True)
class LiftOutcome:
    """Result of lifting a collection into a sparser system.

    ``replacements`` records, per replaced set, the chosen feasible superset
    (None when no superset removes every closure ray the original removed)
    and the equally small alternatives that canonical order skipped, all as
    masks.
    ``extra_sets`` lists repair sets appended because the replacements alone
    left some generator of the system's recession cone unfrozen (the
    collection then exceeds the optimal size).  The returned collection
    bounds the core by the face rule.
    """

    collection: NormalCollection
    replacements: tuple[tuple[int, int | None, tuple[int, ...]], ...]
    extra_sets: tuple[int, ...]

    @property
    def changed(self) -> bool:
        return bool(self.replacements) or bool(self.extra_sets)


@_memo
def _cone_generators(system: SetSystem) -> tuple[IntVec, ...]:
    """The generators of the system's cone the lift walks, lineality first:
    on a downset lattice of height n (closed, with n distinct J_i) its
    covering-pair transfers, sorted as DD lists them; else its stored DD run."""
    if is_closed(system) and len(set(smallest_sets(system))) == system.n:
        return tuple(sorted(rays_distributive(extract_poset(system))))
    cone = _cone(system)
    return cone.lineality + cone.extremal_rays


def lift_collection_detailed(system: SetSystem, candidate: NormalCollection) -> LiftOutcome:
    """Replace infeasible normal sets by minimal feasible supersets.

    A replacement S must keep removing every closure ray r its original
    removed, i.e. keep r(S) > 0; ties are broken by canonical coalition
    order and reported as alternatives.  The closure's rays are the
    covering-pair transfers of its generating poset, read only when some
    candidate set is infeasible; a closure with none raises HeightDeficient.

    By the face rule, the chosen sets bound the core exactly when every
    generator v of ``build_recession_cone(system)`` (lineality vectors
    first, then extremal rays, each in canonical order) has v(S) > 0 for
    some chosen S; :func:`_cone_generators` derives them once per system.
    For each generator the chosen sets miss, the canonical-first feasible
    set S with v(S) > 0 is appended.  A lineality vector is zero on every
    feasible set, so a cone with lineality raises :class:`NoFeasibleLift`;
    a pointed cone never does, since an extremal ray r zero on all of F
    would have -r in the cone as well.  Hence
    ``validate_normal(system, outcome.collection)`` is always True.
    """
    n, full = system.n, system.universe.full_mask
    feasible = [m for m in system.masks() if m not in (0, full)]  # canonical order: smallest first
    chosen: dict[int, None] = {}  # the chosen masks, in the order chosen
    replacements = []
    rays = None
    for original in candidate:
        if original in system:
            chosen[original] = None
            continue
        if rays is None:
            rays = rays_distributive(extract_poset(closure(system)))
        removed = [r for r in rays if weight(r, original) > 0]
        options = [
            m
            for m in feasible
            if original & ~m == 0 and all(weight(r, m) > 0 for r in removed)
        ]
        if not options:
            # no faithful replacement; the repair walk below must cover for it
            replacements.append((original, None, ()))
            continue
        best = options[0]
        ties = tuple(m for m in options[1:] if m.bit_count() == best.bit_count())
        replacements.append((original, best, ties))
        chosen[best] = None

    extra: list[int] = []
    rows = [indicator(m, n) for m in chosen]  # the chosen sets' 0/1 rows
    for direction in _cone_generators(system):
        if any(sum(compress(direction, row)) > 0 for row in rows):
            continue
        pick = next((m for m in feasible if weight(direction, m) > 0), None)
        if pick is None:
            raise NoFeasibleLift(
                "no feasible coalition can remove the unbounded direction "
                f"({','.join(format_rational(x) for x in direction)})"
            )
        chosen[pick] = None
        rows.append(indicator(pick, n))
        extra.append(pick)

    if not replacements and not extra:
        return LiftOutcome(candidate, (), ())
    return LiftOutcome(NormalCollection(tuple(chosen), n, kind="custom"), tuple(replacements), tuple(extra))
