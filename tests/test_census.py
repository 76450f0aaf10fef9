"""Every 4-player set system, checked exhaustively.

A 4-player system holds ∅, N and any subset of the 14 other sets: 16,384
systems.  Each one is built fresh, so nothing stored on one system is read
for the next, and its structure facts are checked against the references of
``helpers``.  Half of the systems are asked for their closure before their
classification and half the other way round, so a fact stored by one route
and read by the other is checked too: a wrong preset or a stale stored fact
shows up as a mismatch.  Every closure is itself one of the systems, so the
facts it was built knowing are checked against a fresh twin.  The counts are
pinned: a change to any of them must be explained.
"""

from collections import Counter

from boundedcore import SetSystem, classify, closure, downsets, extract_poset
from boundedcore.setsystem import is_closed, smallest_sets

from helpers import reference_classify, reference_closure

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
}


def test_every_four_player_system():
    counts = Counter()
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
    assert counts == CENSUS
