"""Shared generators and oracle-verification helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction

from boundedcore import (
    Game,
    PlayerPoset,
    SetSystem,
    VRepresentation,
    classify,
    downsets,
    hull_membership,
    load_set_system,
)


def system(n, *sets):
    return load_set_system({"n": n, "sets": [list(s) for s in sets]})


# the worked examples used throughout the suite
BIRKHOFF_8 = {"n": 4, "sets": [[], [1], [3], [1, 3], [3, 4], [1, 2, 3], [1, 3, 4], [1, 2, 3, 4]]}
LINE_CONE_5SET = {"n": 4, "sets": [[], [1, 2], [2, 3], [3, 4], [1, 2, 3, 4]]}
REGULAR_LIFT_8SET = {
    "n": 4,
    "sets": [[], [1], [2], [1, 3], [2, 3], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4]],
}
WEBER_GAP_10SET = {
    "n": 5,
    "sets": [[], [1], [2], [1, 4], [2, 4], [1, 2, 4], [2, 3, 4], [1, 2, 3, 4], [2, 3, 4, 5], [1, 2, 3, 4, 5]],
}
WEBER_GAP_GAME = {
    "system": WEBER_GAP_10SET,
    "values": {
        "1": "0", "2": "0", "1,4": "1", "2,4": "1", "1,2,4": "2",
        "2,3,4": "1", "1,2,3,4": "2", "2,3,4,5": "2", "1,2,3,4,5": "3",
    },
}
WUC_GAP_6SET = {"n": 4, "sets": [[], [1, 2], [2, 3], [1, 2, 3], [1, 3, 4], [1, 2, 3, 4]]}
HIERARCHY_9_RELS = [[1, 4], [1, 5], [1, 9], [2, 7], [3, 6], [4, 7], [5, 7], [6, 7], [6, 8]]

# smallest regular system whose cone has a non-transfer extremal ray
TRANSFER_GAP_7SET = {"n": 4, "sets": [[], [1], [2], [1, 3], [2, 3], [1, 2, 3], [1, 2, 3, 4]]}


def reference_closure(f: SetSystem) -> set[int]:
    """Union/intersection closure by pairwise fixpoint: the definition, kept as the oracle."""
    present = set(f.masks())
    work = list(present)
    while work:
        m = work.pop()
        for other in list(present):
            for candidate in (m | other, m & other):
                if candidate not in present:
                    present.add(candidate)
                    work.append(candidate)
    return present


def reference_downsets(poset: PlayerPoset) -> list[int]:
    """Downsets by filtering all 2^n masks."""
    below = [poset.below_mask(i) for i in range(1, poset.n + 1)]
    return [
        m
        for m in range(1 << poset.n)
        if all(below[i] & ~m == 0 for i in range(poset.n) if m >> i & 1)
    ]


def random_poset(rng, n, edge_probability=0.35) -> PlayerPoset:
    players = list(range(1, n + 1))
    rng.shuffle(players)
    relations = [
        [players[i], players[j]]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_probability
    ]
    return PlayerPoset.from_relations(n, relations)


def random_regular_system(rng, n) -> SetSystem:
    """Fair mix of downset lattices and prefix-chain unions (rejection-sampled)."""
    full = (1 << n) - 1
    while True:
        if rng.random() < 0.5:
            return downsets(random_poset(rng, n))
        masks = {0, full}
        for _ in range(rng.randint(1, 4)):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            mask = 0
            for p in perm:
                mask |= 1 << (p - 1)
                masks.add(mask)
        candidate = SetSystem.from_masks(n, masks)
        if classify(candidate).is_regular:
            return candidate


def random_game(rng, system: SetSystem) -> Game:
    values = {
        c.mask: Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for c in system if c.mask
    }
    return Game(system, values)


def random_convex_game(rng, system: SetSystem) -> Game:
    """Quadratic worths: additive part plus nonnegative pairwise synergies."""
    n = system.n
    additive = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
    synergy = {
        (i, j): Fraction(rng.randint(0, 4))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    values = {}
    for c in system:
        if not c.mask:
            continue
        members = c.members
        worth = sum(additive[p - 1] for p in members)
        worth += sum(synergy[(i, j)] for k, i in enumerate(members) for j in members[k + 1:])
        values[c.mask] = worth
    return Game(system, values)


def assert_generators_satisfy(poly, gens: VRepresentation) -> None:
    """Minkowski-Weyl faithfulness: every generator obeys every row exactly."""
    for v in gens.vertices:
        assert poly.contains_point(v), f"vertex {v} violates a constraint"
    for r in gens.extremal_rays:
        assert poly.admits_direction(r), f"ray {r} violates a homogeneous constraint"
    for l in gens.lineality:
        assert poly.admits_direction(l) and poly.admits_direction(tuple(-c for c in l)), (
            f"lineality vector {l} is not two-sided feasible"
        )


def assert_generators_extremal(gens: VRepresentation) -> None:
    """Leave-one-out: no listed generator is implied by the others."""
    origin = tuple(Fraction(0) for _ in range(gens.dim))
    for i, ray in enumerate(gens.extremal_rays):
        rest = gens.extremal_rays[:i] + gens.extremal_rays[i + 1:]
        sub = VRepresentation(gens.dim, (origin,), rest, gens.lineality)
        assert not hull_membership(ray, sub), f"ray {ray} is a combination of the others"
    for i, vertex in enumerate(gens.vertices):
        rest = gens.vertices[:i] + gens.vertices[i + 1:]
        sub = VRepresentation(gens.dim, rest, gens.extremal_rays, gens.lineality)
        assert not hull_membership(vertex, sub), f"vertex {vertex} is implied by the others"
