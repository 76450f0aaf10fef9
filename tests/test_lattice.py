import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundedcore import (
    HeightDeficient,
    NotAPartialOrder,
    NotClosed,
    PlayerPoset,
    classify,
    downsets,
    extract_poset,
    level_partition,
    load_poset,
    lattice,
    load_set_system,
)

from helpers import BIRKHOFF_8, HIERARCHY_9_RELS, call_log, reference_downsets, system


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
        assert load_poset(p.to_document()).above == p.above

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
        from boundedcore import closure

        f = closure(load_set_system({
            "n": 4,
            "sets": [[], [1], [2], [1, 3], [2, 3], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4]],
        }))
        assert extract_poset(f).covers() == [(3, 4)]

    def test_not_closed_rejected(self):
        f = system(3, [], [1, 2], [2, 3], [1, 2, 3])
        with pytest.raises(NotClosed):
            extract_poset(f)

    def test_second_call_recomputes_nothing(self, monkeypatch):
        calls = call_log(monkeypatch, "smallest_sets", lattice)
        f = load_set_system(BIRKHOFF_8)
        p = extract_poset(f)
        assert extract_poset(f) is p and calls == [(f,)]
        # a fresh object with the same sets computes its own, equal poset
        assert extract_poset(load_set_system(BIRKHOFF_8)) == p and len(calls) == 2

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
        assert [list(c.members) for c in downsets(p)] == [[], [1], [1, 2], [1, 2, 3]]


class TestLevels:
    def test_hierarchy_9(self):
        p = load_poset({"n": 9, "relations": HIERARCHY_9_RELS})
        levels = [list(l.members) for l in level_partition(p)]
        assert levels == [[1, 2, 3], [4, 5, 6, 9], [7, 8]]

    def test_antichain_single_level(self):
        p = PlayerPoset.from_relations(4, [])
        assert [list(l.members) for l in level_partition(p)] == [[1, 2, 3, 4]]

    def test_chain_levels_are_singletons(self):
        p = PlayerPoset.from_relations(3, [[1, 2], [2, 3]])
        assert [list(l.members) for l in level_partition(p)] == [[1], [2], [3]]

    def test_level_count_is_height_plus_one(self):
        p = load_poset({"n": 9, "relations": HIERARCHY_9_RELS})
        assert len(level_partition(p)) == p.height() + 1


@st.composite
def posets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    if not pairs:
        return PlayerPoset.from_relations(n, [])
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=8))
    try:
        return PlayerPoset.from_relations(n, [list(p) for p in chosen])
    except NotAPartialOrder:
        # orientations that cycle are simply discarded
        kept = []
        for i, j in chosen:
            try:
                PlayerPoset.from_relations(n, [list(p) for p in kept] + [[i, j]])
                kept.append((i, j))
            except NotAPartialOrder:
                pass
        return PlayerPoset.from_relations(n, [list(p) for p in kept])


@settings(max_examples=120, deadline=None)
@given(posets())
def test_birkhoff_roundtrip_property(p):
    f = downsets(p)
    assert sorted(f.masks()) == reference_downsets(p)
    report = classify(f)
    assert report.is_union_intersection_closed
    assert report.height == p.n
    assert extract_poset(f).above == p.above
    assert len(f) >= p.n + 1


@settings(max_examples=60, deadline=None)
@given(posets())
def test_downset_count_minimal_iff_chain(p):
    f = downsets(p)
    is_chain = p.height() == p.n - 1
    assert (len(f) == p.n + 1) == is_chain
