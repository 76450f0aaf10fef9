import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundedcore import (
    HeightDeficient,
    NotAPartialOrder,
    NotClosed,
    PlayerPoset,
    PlayerUniverse,
    SetSystem,
    classify,
    closure,
    downsets,
    extract_poset,
    level_partition,
    load_poset,
    load_set_system,
    members,
)
from boundedcore import setsystem
from boundedcore.setsystem import smallest_sets

from helpers import (
    BIRKHOFF_8,
    HIERARCHY_9_RELS,
    REGULAR_LIFT_8SET,
    random_poset,
    reference_downsets,
    system,
)


class TestPosetConstruction:
    def test_transitive_closure_applied(self):
        p = PlayerPoset.from_relations(3, [[1, 2], [2, 3]])
        assert p.less(1, 3)

    def test_cycle_rejected(self):
        with pytest.raises(NotAPartialOrder):
            PlayerPoset.from_relations(3, [[1, 2], [2, 1]])

    def test_self_relation_rejected(self):
        with pytest.raises(NotAPartialOrder):
            PlayerPoset.from_relations(2, [[1, 1]])

    def test_document_roundtrip(self):
        p = load_poset({"n": 9, "relations": HIERARCHY_9_RELS})
        assert load_poset(p.to_document()).below == p.below

    def test_covers_drop_transitive_edges(self):
        p = PlayerPoset.from_relations(3, [[1, 2], [2, 3], [1, 3]])
        assert p.covers() == [(1, 2), (2, 3)]


class TestExtractPoset:
    def test_birkhoff_example(self):
        f = load_set_system(BIRKHOFF_8)
        p = extract_poset(f)
        assert p.covers() == [(1, 2), (3, 2), (3, 4)]

    def test_power_set_gives_antichain(self):
        import itertools

        f = system(3, *[list(s) for r in range(4) for s in itertools.combinations([1, 2, 3], r)])
        assert extract_poset(f).covers() == []

    def test_regular_lift_closure_poset(self):
        f = closure(load_set_system({
            "n": 4,
            "sets": [[], [1], [2], [1, 3], [2, 3], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4]],
        }))
        assert extract_poset(f).covers() == [(3, 4)]

    def test_not_closed_rejected(self):
        f = system(3, [], [1, 2], [2, 3], [1, 2, 3])
        with pytest.raises(NotClosed):
            extract_poset(f)

    def test_second_call_recomputes_nothing(self):
        f = load_set_system(BIRKHOFF_8)
        p = extract_poset(f)
        # the poset holds the system's one stored copy of the J_i
        assert smallest_sets(f) is smallest_sets(f) is p.below
        assert extract_poset(f) is p
        # a fresh object with the same sets computes its own, equal J_i
        twin = load_set_system(BIRKHOFF_8)
        assert smallest_sets(twin) is not p.below and extract_poset(twin) == p
        # a closure reuses the J_i of the system it closes
        g = load_set_system(REGULAR_LIFT_8SET)
        assert smallest_sets(closure(g)) is smallest_sets(g)

    def test_refusal_is_not_stored(self):
        f = system(3, [], [1, 2], [2, 3], [1, 2, 3])
        for _ in range(2):
            with pytest.raises(NotClosed):
                extract_poset(f)

    def test_height_deficient_rejected(self):
        # closed, but 1 and 2 never appear separately
        f = system(3, [], [1, 2], [1, 2, 3])
        with pytest.raises(HeightDeficient):
            extract_poset(f)


class TestDownsets:
    def test_birkhoff_roundtrip(self):
        p = PlayerPoset.from_relations(4, [[1, 2], [3, 2], [3, 4]])
        f = downsets(p)
        assert f.to_document() == load_set_system(BIRKHOFF_8).to_document()

    def test_antichain_gives_power_set(self):
        p = PlayerPoset.from_relations(2, [])
        assert len(downsets(p)) == 4

    def test_chain_gives_prefixes(self):
        p = PlayerPoset.from_relations(3, [[1, 2], [2, 3]])
        assert [list(members(m)) for m in downsets(p).masks()] == [[], [1], [1, 2], [1, 2, 3]]

    def test_stored_closure_and_smallest_sets_match_a_fresh_system(self, monkeypatch):
        rng = random.Random(8)
        cases = [random_poset(rng, rng.randint(1, 8), rng.random()) for _ in range(150)]
        built = [(p, downsets(p)) for p in cases]
        fresh = [SetSystem.from_masks(p.n, f.masks()) for p, f in built]
        expected = [(closure(g) is g, smallest_sets(g)) for g in fresh]

        def no_unions(masks):
            raise AssertionError("the downsets of a poset are known to be closed")

        monkeypatch.setattr(setsystem, "unions", no_unions)
        for (p, f), (closed, smallest) in zip(built, expected):
            assert closed and closure(f) is f
            assert smallest_sets(f) is p.below and p.below == smallest
            assert extract_poset(f) is p


class TestLevels:
    def test_hierarchy_9(self):
        p = load_poset({"n": 9, "relations": HIERARCHY_9_RELS})
        levels = [list(members(m)) for m in level_partition(p)]
        assert levels == [[1, 2, 3], [4, 5, 6, 9], [7, 8]]

    def test_antichain_single_level(self):
        p = PlayerPoset.from_relations(4, [])
        assert [list(members(m)) for m in level_partition(p)] == [[1, 2, 3, 4]]

    def test_chain_levels_are_singletons(self):
        p = PlayerPoset.from_relations(3, [[1, 2], [2, 3]])
        assert [list(members(m)) for m in level_partition(p)] == [[1], [2], [3]]

    def test_level_count_is_height_plus_one(self):
        p = load_poset({"n": 9, "relations": HIERARCHY_9_RELS})
        assert len(level_partition(p)) == p.height() + 1


@st.composite
def acyclic_relations(draw):
    """A player count and ``i < j`` pairs whose transitive closure is a partial order."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    if not pairs:
        return n, []
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=8))
    try:
        PlayerPoset.from_relations(n, [list(p) for p in chosen])
        return n, chosen
    except NotAPartialOrder:
        # orientations that cycle are simply discarded
        kept = []
        for i, j in chosen:
            try:
                PlayerPoset.from_relations(n, [list(p) for p in kept] + [[i, j]])
                kept.append((i, j))
            except NotAPartialOrder:
                pass
        return n, kept


def posets():
    return acyclic_relations().map(lambda drawn: PlayerPoset.from_relations(drawn[0], drawn[1]))


@settings(max_examples=120, deadline=None)
@given(posets())
def test_birkhoff_roundtrip_property(p):
    f = downsets(p)
    assert sorted(f.masks()) == reference_downsets(p)
    report = classify(f)
    assert report.is_union_intersection_closed
    assert report.height == p.n
    # the lattice returns the poset it was built from; a fresh system with
    # its sets reads an equal one off its own J_i
    assert extract_poset(f) is p
    assert extract_poset(SetSystem.from_masks(p.n, f.masks())) == p
    assert len(f) >= p.n + 1


@settings(max_examples=60, deadline=None)
@given(posets())
def test_downset_count_minimal_iff_chain(p):
    f = downsets(p)
    is_chain = p.height() == p.n - 1
    assert (len(f) == p.n + 1) == is_chain


def _strict_order(n, relations):
    """``lt[i][j]`` for players 1..n: the transitive closure of the pairs, by Warshall."""
    lt = [[False] * (n + 1) for _ in range(n + 1)]
    for i, j in relations:
        lt[i][j] = True
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lt[i][j] = lt[i][j] or (lt[i][k] and lt[k][j])
    return lt


def _mask(players) -> int:
    return sum(1 << (p - 1) for p in set(players))


@settings(max_examples=150, deadline=None)
@given(acyclic_relations(), st.data())
def test_poset_methods_match_their_definitions(drawn, data):
    n, relations = drawn
    p = PlayerPoset.from_relations(n, relations)
    lt = _strict_order(n, relations)
    players = range(1, n + 1)
    assert all(p.less(i, j) == lt[i][j] for i in players for j in players)
    assert p.covers() == [
        (i, j) for i in players for j in players
        if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in players)
    ]
    for _ in range(4):
        subset = data.draw(st.sets(st.sampled_from(list(players))))
        mask = _mask(subset)
        assert p.minimal_of(mask) == _mask(i for i in subset if not any(lt[j][i] for j in subset))
        assert p.maximal_of(mask) == _mask(i for i in subset if not any(lt[i][j] for j in subset))
        assert p.downset_of(mask) == _mask([*subset, *(j for i in subset for j in players if lt[j][i])])
    # the longest chain ending at i, in edges, found by relaxing every pair n times
    depth = [0] * (n + 1)
    for _ in players:
        for i in players:
            for j in players:
                if lt[j][i]:
                    depth[i] = max(depth[i], depth[j] + 1)
    assert p.height() == max(depth[1:])
    assert load_poset(p.to_document()) == p


@settings(max_examples=60, deadline=None)
@given(posets(), st.data())
def test_constructor_refuses_a_broken_order(p, data):
    i = data.draw(st.integers(min_value=0, max_value=p.n - 1))
    # player i+1 missing from its own downset
    missing = p.below[:i] + (p.below[i] & ~(1 << i),) + p.below[i + 1:]
    with pytest.raises(NotAPartialOrder, match="missing from its own downset"):
        PlayerPoset(p.universe, missing)
    pairs = p.covers()
    if pairs:
        # reversing a covering pair as well closes a cycle; the transitive
        # closure is taken first, so only antisymmetry fails
        a, b = data.draw(st.sampled_from(pairs))
        with pytest.raises(NotAPartialOrder, match="compares below itself"):
            PlayerPoset.from_relations(p.n, [list(r) for r in pairs] + [[b, a]])
    chains = [(a, b, c) for a, b in pairs for b2, c in pairs if b2 == b]
    if chains:
        # a < b < c with a dropped from the downset of c
        a, b, c = data.draw(st.sampled_from(chains))
        broken = list(p.below)
        broken[c - 1] &= ~(1 << (a - 1))
        with pytest.raises(NotAPartialOrder, match="not transitive"):
            PlayerPoset(p.universe, tuple(broken))


@pytest.mark.parametrize("below, message", [
    ((0b010, 0b010, 0b100), "missing from its own downset"),
    ((0b011, 0b011, 0b100), "compares below itself"),
    ((0b001, 0b011, 0b110), "not transitive"),
    ((0b001, 0b010), "relation size"),
])
def test_constructor_refusals(below, message):
    with pytest.raises(NotAPartialOrder, match=message):
        PlayerPoset(PlayerUniverse(3), below)
