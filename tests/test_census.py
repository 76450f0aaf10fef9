"""Every 4-player set system, checked exhaustively.

A 4-player system holds ∅, N and any subset of the 14 other sets: 16,384
systems.  Each one is built fresh, so nothing stored on one system is read
for the next, and its structure facts are checked against the references of
``helpers``.  Half of the systems are asked for their closure before their
classification and half the other way round, so a fact stored by one route
and read by the other is checked too: a wrong preset or a stale stored fact
shows up as a mismatch.  Every closure is itself one of the systems, so the
facts it was built knowing are checked against a fresh twin.

Each system's cone comes from one :func:`rays_general` call, the DD run
stored on the system that the lifts then read: the ray routes and the
closure-cone condition are checked against it, and each named collection of
a closure of height 4 is lifted and checked by the face rule.  The counts
are pinned: a change to any of them must be explained.
"""

from collections import Counter

from boundedcore import (
    NoFeasibleLift,
    SetSystem,
    algo1_irredundant,
    classify,
    closure,
    downsets,
    extract_poset,
    grabisch_xie_collection,
    lift_collection_detailed,
    normal,
    rays,
    rays_general,
    rays_regular,
    weber_collection,
    wuc_ray_equality_condition,
)
from boundedcore.setsystem import is_closed, smallest_sets
from boundedcore.vectors import is_transfer, weight

from helpers import call_log, reference_classify, reference_closure

N = 4
FULL = (1 << N) - 1
# the 14 sets other than ∅ and N
INNER = tuple(range(1, FULL))

CENSUS = {
    "systems": 16_384,
    "closed": 355,
    # the downset lattices: one per partial order on 4 labelled players
    "closed of height 4": 219,
    "regular": 1_714,
    "weakly union-closed": 6_048,
    "bounded core": 9_321,
    "cone equal to the closure's": 14_811,
    "closure of height 4": 16_038,
    "lifts": 48_033,
    "lifts that change their collection": 10_260,
    "lifts refused": 81,
    "closure of height 4, cone with a line": 27,
}


def lifts_checked(f, cone, counts: Counter) -> None:
    """Lift the three named collections of the closure of f into f, and check
    each by the face rule against the cone's generators: every one has
    weight > 0 on some lifted set, or the lift is refused exactly when the
    cone has a line."""
    poset = extract_poset(closure(f))
    irredundant = algo1_irredundant(poset)
    generators = cone.lineality + cone.extremal_rays
    counts["closure of height 4, cone with a line"] += bool(cone.lineality)
    for candidate in (irredundant, weber_collection(irredundant), grabisch_xie_collection(poset)):
        try:
            outcome = lift_collection_detailed(f, candidate)
        except NoFeasibleLift:
            assert cone.lineality, f.masks()
            counts["lifts refused"] += 1
            continue
        assert not cone.lineality, f.masks()
        assert all(m in f for m in outcome.collection), f.masks()
        assert all(any(weight(v, m) > 0 for m in outcome.collection) for v in generators), f.masks()
        counts["lifts"] += 1
        counts["lifts that change their collection"] += outcome.changed


def test_every_four_player_system(monkeypatch):
    counts = Counter()
    runs = call_log(monkeypatch, "dd_generators", rays, normal)
    for pick in range(1 << len(INNER)):
        masks = [0, FULL] + [m for k, m in enumerate(INNER) if pick >> k & 1]
        f = SetSystem.from_masks(N, masks)
        if pick & 1:
            closed = closure(f)
            report = classify(f)
        else:
            report = classify(f)
            closed = closure(f)
        assert report == reference_classify(f), masks
        assert set(closed.masks()) == reference_closure(f), masks
        assert (closed is f) == is_closed(f) == report.is_union_intersection_closed, masks
        assert closure(closed) is closed and is_closed(closed), masks
        if closed is not f:
            # the facts the closure was built knowing are the ones a fresh twin computes
            twin = SetSystem.from_masks(N, closed.masks())
            assert smallest_sets(closed) == smallest_sets(twin) == smallest_sets(f), masks
            assert classify(closed) == classify(twin), masks
        counts["systems"] += 1
        counts["closed"] += report.is_union_intersection_closed
        counts["regular"] += report.is_regular
        counts["weakly union-closed"] += report.is_weakly_union_closed
        if report.is_union_intersection_closed and report.height == N:
            counts["closed of height 4"] += 1
            lattice = downsets(extract_poset(f))
            assert lattice.masks() == f.masks() and smallest_sets(lattice) == smallest_sets(f), masks
            assert classify(lattice) == report and extract_poset(lattice) is extract_poset(f), masks

        cone = rays_general(f)
        counts["bounded core"] += not cone.extremal_rays and not cone.lineality
        counts["cone equal to the closure's"] += cone.equals_closure_cone
        if report.is_regular:
            # the regular route gives exactly the oracle's transfer rays
            assert not cone.lineality, masks
            assert set(rays_regular(f)) == set(filter(is_transfer, cone.extremal_rays)), masks
        if report.is_weakly_union_closed and wuc_ray_equality_condition(f):
            assert cone.equals_closure_cone, masks
        if report.closure_height == N:
            counts["closure of height 4"] += 1
            lifts_checked(f, cone, counts)
    assert counts == CENSUS
    # one DD run per system: the lifts read the stored run, or the transfers of a lattice
    assert len(runs) == CENSUS["systems"]
