import gc
import json
import math
import random
import weakref
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boundedcore import (
    ChainNotRegularSteps,
    CollectionNotNested,
    DuplicateSet,
    Game,
    MissingEmptySet,
    MissingGrandCoalition,
    NoRestrictedChain,
    NormalCollection,
    NotClosed,
    PlayerOutOfRange,
    PlayerPoset,
    SetSystem,
    StructureReport,
    UniverseTooLarge,
    WorkBudgetExceeded,
    classify,
    closure,
    downsets,
    extract_poset,
    level_partition,
    load_poset,
    load_set_system,
    coalition_text,
    marginal_vector,
    maximal_chains,
    members,
    rays_distributive,
)
from boundedcore import setsystem
from boundedcore.core_weber import _restricted_chain_payoffs
from boundedcore.errors import DocumentError
from boundedcore.setsystem import covering_pairs, is_closed, smallest_sets

from helpers import (
    BIRKHOFF_8,
    LINE_CONE_5SET,
    REGULAR_LIFT_8SET,
    WEBER_GAP_10SET,
    brute_covering_pairs,
    call_log,
    chain_order,
    poset_downsets,
    random_poset,
    reference_classify,
    reference_closure,
    reference_restricted_chains,
    system,
)


def masks(sys_):
    return sorted(sys_.masks())


def member_lists(f: SetSystem) -> list[list[int]]:
    return [list(members(m)) for m in f.masks()]


class _CountingSet(frozenset):
    'a frozenset that counts its membership tests'

    count = 0

    def __contains__(self, item):
        self.count += 1
        return frozenset.__contains__(self, item)


class TestLoading:
    def test_five_set_document(self):
        f = load_set_system(LINE_CONE_5SET)
        assert len(f) == 5
        assert member_lists(f) == [[], [1, 2], [2, 3], [3, 4], [1, 2, 3, 4]]

    def test_minimal_system(self):
        f = load_set_system({"n": 1, "sets": [[], [1]]})
        assert len(f) == 2

    def test_missing_grand_coalition(self):
        with pytest.raises(MissingGrandCoalition):
            load_set_system({"n": 3, "sets": [[], [1]]})

    def test_missing_empty_set(self):
        with pytest.raises(MissingEmptySet):
            load_set_system({"n": 2, "sets": [[1], [1, 2]]})

    def test_duplicate(self):
        with pytest.raises(DuplicateSet):
            load_set_system({"n": 2, "sets": [[], [1], [1], [1, 2]]})

    def test_duplicate_names_the_first_repeat_in_input_order(self):
        # [1] is listed twice and [2] twice, but [2] is the first set seen again
        message = r"^coalition \[2\] appears twice$"
        with pytest.raises(DuplicateSet, match=message):
            load_set_system({"n": 2, "sets": [[], [2], [1], [2], [1], [1, 2]]})
        with pytest.raises(DuplicateSet, match=message):
            SetSystem.from_masks(2, iter([0, 2, 1, 2, 1, 3]))
        # a duplicate is reported before a missing ∅ or N
        with pytest.raises(DuplicateSet, match=r"^coalition \[9, 16\] appears twice$"):
            SetSystem.from_masks(16, [0b1000000100000000, 1, 0b1000000100000000])

    def test_player_out_of_range(self):
        with pytest.raises(PlayerOutOfRange):
            load_set_system({"n": 2, "sets": [[], [3], [1, 2]]})

    @pytest.mark.parametrize("outside", [0b1000, 1 << 20, -1])
    def test_masks_outside_the_players_refused(self, outside):
        # the document loaders check player labels; masks are checked here
        message = rf"^coalition mask {outside} is not a set of players 1\.\.2$"
        with pytest.raises(PlayerOutOfRange, match=message):
            SetSystem.from_masks(2, [0, 1, 3, outside])
        # a repeated one is refused before the duplicate message would name it
        with pytest.raises(PlayerOutOfRange, match=message):
            SetSystem.from_masks(2, [0, outside, outside, 3])

    @pytest.mark.parametrize("mask", [1.0, "1", True, None], ids=["float", "str", "bool", "none"])
    def test_masks_that_are_not_ints_refused(self, mask):
        # a bool would pass for the mask 1, and the cover table reads int masks only
        message = rf"^coalition mask {mask!r} is not a set of players 1\.\.2$"
        with pytest.raises(PlayerOutOfRange, match=message):
            SetSystem.from_masks(2, [0, mask, 3])
        # refused before the range check, whose min and max cannot order them
        with pytest.raises(PlayerOutOfRange, match=message):
            SetSystem.from_masks(2, [0, 1 << 20, mask, 3])

    def test_universe_too_large(self):
        with pytest.raises(UniverseTooLarge):
            load_set_system({"n": 17, "sets": [[], list(range(1, 18))]})

    def test_json_text_refused(self):
        # the loaders take parsed documents; reading JSON text is the CLI's job
        for loader, text in [
            (load_set_system, '{"n": 2, "sets": [[], [1], [1, 2]]}'),
            (load_poset, '{"n": 2, "relations": [[1, 2]]}'),
            (Game.from_document, '{"system": {"n": 1, "sets": [[], [1]]}, "values": {"1": "0"}}'),
        ]:
            for document in (text, text.encode()):
                with pytest.raises(DocumentError):
                    loader(document)
            assert loader(json.loads(text)) is not None

    def test_garbage_rejected(self):
        with pytest.raises(DocumentError):
            load_set_system({"sets": [[]]})

    def test_canonical_order(self):
        f = load_set_system({"n": 3, "sets": [[1, 2, 3], [2], [], [1, 3], [1]]})
        assert member_lists(f) == [[], [1], [2], [1, 3], [1, 2, 3]]


class TestClassify:
    def test_line_cone_system_is_unstructured(self):
        rep = classify(load_set_system(LINE_CONE_5SET))
        assert not rep.is_regular
        assert not rep.is_weakly_union_closed
        assert not rep.is_union_intersection_closed
        assert rep.height == 2
        assert rep.closure_height == 4

    def test_regular_lift_system(self):
        rep = classify(load_set_system(REGULAR_LIFT_8SET))
        assert rep.is_regular
        assert not rep.is_union_intersection_closed

    def test_power_set(self):
        f = system(3, *[s for s in [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]]])
        rep = classify(f)
        assert rep.is_regular and rep.is_weakly_union_closed
        assert rep.is_union_intersection_closed
        assert rep.height == 3 == rep.closure_height


class TestClosure:
    def test_line_cone_closure(self):
        f = closure(load_set_system(LINE_CONE_5SET))
        assert member_lists(f) == [
            [], [2], [3], [1, 2], [2, 3], [3, 4], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4],
        ]

    def test_fixed_point(self):
        f = closure(load_set_system(LINE_CONE_5SET))
        assert masks(closure(f)) == masks(f)

    def test_regular_lift_closure_is_twelve_sets(self):
        f = closure(load_set_system(REGULAR_LIFT_8SET))
        assert member_lists(f) == [
            [], [1], [2], [3], [1, 2], [1, 3], [2, 3], [3, 4],
            [1, 2, 3], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4],
        ]


class TestMaximalChains:
    def test_two_element_system(self):
        f = system(3, [], [1, 2, 3])
        chains = maximal_chains(f)
        assert len(chains) == 1
        assert chains[0] == (0, 0b111)

    def test_power_set_has_factorial_many(self):
        # independent oracle: each chain of the power set is a permutation
        import itertools

        f = system(3, *[list(s) for r in range(4) for s in itertools.combinations([1, 2, 3], r)])
        chains = maximal_chains(f)
        assert len(chains) == 6
        assert {chain_order(c) for c in chains} == set(itertools.permutations([1, 2, 3]))

    def test_weber_gap_system_orders(self):
        chains = maximal_chains(load_set_system(WEBER_GAP_10SET))
        assert {chain_order(c) for c in chains} == {
            (1, 4, 2, 3, 5),
            (2, 4, 1, 3, 5),
            (2, 4, 3, 5, 1),
            (2, 4, 3, 1, 5),
        }
        # deterministic lexicographic listing
        assert [chain_order(c) for c in chains] == [
            (1, 4, 2, 3, 5), (2, 4, 1, 3, 5), (2, 4, 3, 1, 5), (2, 4, 3, 5, 1),
        ]

    def test_chains_are_maximal(self):
        f = load_set_system(WEBER_GAP_10SET)
        for chain in maximal_chains(f):
            for a, b in zip(chain, chain[1:]):
                between = [c for c in f.masks() if a != c != b and a & ~c == 0 and c & ~b == 0]
                assert a & ~b == 0 and not between, f"{a:b} -> {b:b} skips {between}"


@st.composite
def small_systems(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    full = (1 << n) - 1
    extra = draw(st.sets(st.integers(min_value=0, max_value=full), max_size=12))
    return SetSystem.from_masks(n, extra | {0, full})


@settings(max_examples=120, deadline=None)
@given(small_systems())
def test_closure_properties(f):
    g = closure(f)
    assert set(masks(g)) == reference_closure(f)
    pool = masks(g)
    for a in pool:
        for b in pool:
            assert (a | b) in g and (a & b) in g
    assert masks(closure(g)) == pool
    report = classify(f)
    assert report.closure_height == max(len(c) - 1 for c in maximal_chains(g))
    own = masks(f)
    pairwise = all((a | b) in f and (a & b) in f for a in own for b in own)
    assert report.is_union_intersection_closed == pairwise


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), max_size=7), st.data())
def test_unions_match_every_subset_of_the_generators(generators, data):
    # repeat some generators and add ∅, which must change nothing
    repeats = data.draw(st.lists(st.sampled_from(generators), max_size=3)) if generators else []
    listed = data.draw(st.permutations(generators + repeats + [0]))
    brute = set()
    for chosen in range(1 << len(listed)):
        union = 0
        for k, g in enumerate(listed):
            if chosen >> k & 1:
                union |= g
        brute.add(union)
    assert setsystem.unions(listed) == brute
    assert setsystem.unions(iter(listed)) == brute


def test_sixteen_players_closure_is_power_set():
    rng = random.Random(16)
    full = (1 << 16) - 1
    f = SetSystem.from_masks(16, {0, full} | {rng.getrandbits(16) for _ in range(48)})
    assert len(closure(f)) == 1 << 16
    assert classify(f).closure_height == 16


@settings(max_examples=80, deadline=None)
@given(small_systems())
def test_regularity_matches_chain_lengths(f):
    chains = maximal_chains(f)
    assert classify(f).is_regular == all(len(c) == f.n + 1 for c in chains)


@st.composite
def systems_up_to_six(draw):
    """Any system on at most 6 players, regular, closed or neither."""
    n = draw(st.integers(min_value=1, max_value=6))
    full = (1 << n) - 1
    extra = draw(st.sets(st.integers(min_value=0, max_value=full), max_size=3 * n))
    return SetSystem.from_masks(n, extra | {0, full})


class TestClassifyFromMasks:
    """The mask pass agrees with the covering-pair classification and runs once per object."""

    @settings(max_examples=300, deadline=None)
    @given(systems_up_to_six())
    def test_matches_the_covering_pair_reference(self, f):
        assert classify(f) == reference_classify(f)

    def test_matches_on_eleven_player_power_set(self):
        f = SetSystem.from_masks(11, range(1 << 11))
        assert classify(f) == reference_classify(f) == StructureReport(True, True, True, 11, 11)

    def test_samples_reach_every_verdict(self):
        rng = random.Random(8080)
        seen = set()
        for _ in range(400):
            n = rng.randint(2, 6)
            full = (1 << n) - 1
            f = SetSystem.from_masks(n, {0, full} | {rng.randrange(full) for _ in range(rng.randint(0, 3 * n))})
            report = classify(f)
            assert report == reference_classify(f)
            seen.add((report.is_regular, report.is_union_intersection_closed, report.height == n))
        assert {(False, False, False), (True, False, True), (True, True, True), (False, False, True)} <= seen

    def test_closed_systems_match_the_reference(self):
        # explicit masks, so classify reads nothing stored by downsets or closure
        rng = random.Random(8082)
        closed = []
        for _ in range(120):
            n = rng.randint(1, 8)
            closed.append(SetSystem.from_masks(n, downsets(random_poset(rng, n)).masks()))
        for _ in range(120):
            n = rng.randint(2, 7)
            full = (1 << n) - 1
            f = SetSystem.from_masks(n, {0, full} | {rng.randrange(full) for _ in range(rng.randint(0, 2 * n))})
            closed.append(SetSystem.from_masks(n, closure(f).masks()))
        deficient = 0
        for f in closed:
            report = classify(f)
            assert report == reference_classify(f), f.to_document()
            assert report.is_union_intersection_closed
            deficient += report.height < f.n
        assert 20 < deficient < 200

    def test_second_call_on_the_same_object_recomputes_nothing(self, monkeypatch):
        calls = call_log(monkeypatch, "is_weakly_union_closed", setsystem)
        f = load_set_system(REGULAR_LIFT_8SET)
        first = classify(f)
        assert classify(f) is first and len(calls) == 1
        twin = load_set_system(REGULAR_LIFT_8SET)
        assert twin == f and twin is not f
        assert classify(twin) == first and len(calls) == 2
        # the stored report is no part of the value: equality and hashing ignore it
        assert hash(twin) == hash(load_set_system(REGULAR_LIFT_8SET))

    @pytest.mark.parametrize("f", [
        SetSystem.from_masks(6, range(1 << 6)),
        load_set_system(BIRKHOFF_8),
        SetSystem.from_masks(5, [0, 1, 3, 7, 15, 31]),
    ], ids=["power-set", "birkhoff", "chain"])
    def test_closed_input_skips_the_weak_union_scan(self, monkeypatch, f):
        calls = call_log(monkeypatch, "is_weakly_union_closed", setsystem)
        report = classify(f)
        assert report.is_union_intersection_closed and report.is_weakly_union_closed
        assert calls == []

    @pytest.mark.parametrize("make", [
        lambda: downsets(PlayerPoset.from_relations(10, [])),
        lambda: downsets(PlayerPoset.from_relations(6, [[1, 2], [2, 3], [4, 5]])),
        lambda: closure(load_set_system(REGULAR_LIFT_8SET)),
        lambda: closure(SetSystem.from_masks(5, [0, 1, 3, 7, 15, 31])),
    ], ids=["antichain-10", "poset-6", "closure", "found-closed"])
    def test_known_closed_input_skips_the_closedness_scan(self, make, monkeypatch):
        f = make()
        lookups = _CountingSet(f._mask_set)
        object.__setattr__(f, "_mask_set", lookups)
        # classify computes its report now, and reads closedness as known
        calls = call_log(monkeypatch, "smallest_sets", setsystem)
        assert closure(f) is f
        report = classify(f)
        assert lookups.count == 0 and calls
        h = len(set(smallest_sets(f)))
        assert report == StructureReport(h == f.n, True, True, h, h)
        assert report == reference_classify(SetSystem.from_masks(f.n, f.masks()))

    def test_open_input_runs_the_weak_union_scan(self, monkeypatch):
        calls = call_log(monkeypatch, "is_weakly_union_closed", setsystem)
        f = load_set_system(LINE_CONE_5SET)
        assert not classify(f).is_union_intersection_closed and calls == [(f,)]


class TestStoredClosure:
    """The closure is computed once per object, and a closed system is its own closure."""

    def test_second_call_recomputes_nothing(self, monkeypatch):
        calls = call_log(monkeypatch, "unions", setsystem)
        f = load_set_system(REGULAR_LIFT_8SET)
        g = closure(f)
        assert closure(f) is g and len(calls) == 1
        assert closure(g) is g and len(calls) == 1
        # the stored closure is no part of the value
        assert f == load_set_system(REGULAR_LIFT_8SET)
        assert hash(g) == hash(SetSystem.from_masks(4, g.masks()))

    @settings(max_examples=80, deadline=None)
    @given(systems_up_to_six())
    def test_closed_exactly_when_its_own_closure(self, f):
        fresh = SetSystem.from_masks(f.n, f.masks())
        assert (closure(f) is f) == classify(f).is_union_intersection_closed == is_closed(fresh)
        assert closure(closure(f)) is closure(f)

    def test_closedness_scan_builds_no_closure(self, monkeypatch):
        # 16 singletons: the closure is the whole power set, 65,536 sets
        calls = call_log(monkeypatch, "unions", setsystem)
        f = SetSystem.from_masks(16, [0, (1 << 16) - 1] + [1 << i for i in range(16)])
        assert not is_closed(f) and calls == []
        with pytest.raises(NotClosed, match="not closed under union and intersection"):
            extract_poset(SetSystem.from_masks(16, f.masks()))
        assert calls == []
        g = SetSystem.from_masks(3, [0, 1, 3, 7])
        assert is_closed(g) and closure(g) is g and calls == []
        # the scan stored no closure: the first closure call builds it
        h = SetSystem.from_masks(3, [0, 1, 2, 7])
        assert not is_closed(h) and calls == []
        assert closure(h).masks() == (0, 1, 2, 3, 7) and len(calls) == 1

    def test_closedness_of_a_classified_system_is_not_scanned_again(self, monkeypatch):
        f = SetSystem.from_masks(3, [0, 1, 2, 7])
        assert not classify(f).is_union_intersection_closed
        calls = call_log(monkeypatch, "smallest_sets", setsystem)
        assert not is_closed(f) and calls == []

    @pytest.mark.parametrize("make", [
        lambda: downsets(PlayerPoset.from_relations(4, [[1, 2], [3, 4]])),
        lambda: closure(load_set_system(REGULAR_LIFT_8SET)),
        lambda: load_set_system(REGULAR_LIFT_8SET),
    ], ids=["downsets", "closure", "open"])
    def test_stored_facts_hold_no_reference_cycle(self, make):
        # with every fact read, reference counting alone frees the system, its
        # closure and their poset: a closed system does not store itself
        enabled = gc.isenabled()
        gc.disable()
        try:
            f = make()
            closed = closure(f)
            poset = extract_poset(closed)
            for fact in (smallest_sets, is_closed, classify, covering_pairs, maximal_chains):
                fact(f), fact(closed)
            poset.covers(), level_partition(poset), rays_distributive(poset)
            assert (closed is f) == is_closed(f)
            freed = [weakref.ref(f), weakref.ref(closed), weakref.ref(poset)]
            del f, closed, poset
            assert [ref() for ref in freed] == [None, None, None]
        finally:
            if enabled:
                gc.enable()


def _members_by_range(mask: int, n: int) -> tuple[int, ...]:
    return tuple(p for p in range(1, n + 1) if mask >> (p - 1) & 1)


def _text_by_range(mask: int, n: int) -> str:
    'a coalition as messages have always named it, from its players found one by one'
    players = [str(p) for p in _members_by_range(mask, n)]
    if not players:
        return "∅"
    return "".join(players) if n <= 9 else "{" + ",".join(players) + "}"


class TestMembersBitWalk:
    def test_every_mask_up_to_ten_players(self):
        for n in range(1, 11):
            for mask in range(1 << n):
                assert members(mask) == _members_by_range(mask, n)

    def test_random_sixteen_player_masks(self):
        rng = random.Random(1616)
        for _ in range(2000):
            mask = rng.getrandbits(16)
            assert members(mask) == _members_by_range(mask, 16)


class TestCoalitionText:
    def test_every_mask_up_to_ten_players(self):
        for n in range(1, 11):
            for mask in range(1 << n):
                assert coalition_text(mask, n) == _text_by_range(mask, n)

    def test_random_sixteen_player_masks(self):
        rng = random.Random(1617)
        for _ in range(2000):
            mask = rng.getrandbits(16)
            assert coalition_text(mask, 16) == _text_by_range(mask, 16)

    def test_pinned_texts(self):
        nine = [coalition_text(m, 9) for m in (0, 0b1, 0b100000101, 0b111111111)]
        assert nine == ["∅", "1", "139", "123456789"]
        assert [coalition_text(m, 10) for m in (0, 0b1, 0b1000000001, 0b1111111111)] == [
            "∅", "{1}", "{1,10}", "{1,2,3,4,5,6,7,8,9,10}",
        ]
        assert coalition_text(0b1000000100000000, 16) == "{9,16}"


@st.composite
def grouped_closures(draw):
    """A closed system on at most 6 players whose J-classes may hold several
    players: the closure of random unions of player classes (each player
    joins the class of an earlier one or starts its own), as built by
    :func:`closure` or as a fresh system with the same sets."""
    n = draw(st.integers(min_value=2, max_value=6))
    lead: list[int] = []
    for i in range(n):
        lead.append(draw(st.sampled_from(sorted(set(lead) | {i}))))
    classes = [sum(1 << j for j in range(n) if lead[j] == i) for i in range(n)]
    full = (1 << n) - 1
    drawn = draw(st.sets(st.integers(min_value=0, max_value=full), max_size=2 * n))
    grouped = {sum(classes[i] for i in range(n) if m >> i & 1) for m in drawn}
    closed = closure(SetSystem.from_masks(n, grouped | {0, full}))
    return SetSystem.from_masks(n, closed.masks()) if draw(st.booleans()) else closed


@st.composite
def wide_open_systems(draw):
    """A system that is not closed on 7-16 players, whose masks use both
    bytes once n > 8: random sets, and half the time the sets of a random
    maximal chain too, so that covers stack up to n deep."""
    n = draw(st.integers(min_value=7, max_value=16))
    full = (1 << n) - 1
    inner = draw(st.sets(st.integers(min_value=1, max_value=full - 1), min_size=2, max_size=12))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        inner |= {sum(1 << i for i in order[:k]) for k in range(1, n)}
    f = SetSystem.from_masks(n, inner | {0, full})
    assume(not is_closed(f))
    return f


# any system, downset lattices, closed systems of height < n, and open systems on 7-16 players
_COVER_SYSTEMS = st.one_of(systems_up_to_six(), poset_downsets(), grouped_closures(), wide_open_systems())


@settings(max_examples=300, deadline=None)
@given(_COVER_SYSTEMS)
def test_covering_pairs_match_brute_force(f):
    # every set's covers, each list in canonical order
    up = covering_pairs(f)
    assert list(up) == list(f.masks())
    assert {(s, t) for s, covers in up.items() for t in covers} == brute_covering_pairs(f)
    for covers in up.values():
        assert covers == sorted(set(covers), key=lambda m: (m.bit_count(), m))


class TestCoveringPairs:
    def test_classes_are_taken_smallest_first(self):
        # closed, with J-classes {1, 2} and {3}: ∅ is covered by 3 before 12
        f = SetSystem.from_masks(3, [0, 0b100, 0b011, 0b111])
        assert is_closed(f)
        assert covering_pairs(f) == {0: [0b100, 0b011], 0b100: [0b111], 0b011: [0b111], 0b111: []}

    def test_open_scan_lists_minimal_supersets_in_canonical_order(self):
        # F = {∅, 1, 23, 34, 123, N}: not closed (23 ∩ 34 = 3 is missing)
        f = system(4, [], [1], [2, 3], [3, 4], [1, 2, 3], [1, 2, 3, 4])
        assert not is_closed(f)
        assert covering_pairs(f) == {
            0: [0b0001, 0b0110, 0b1100],
            0b0001: [0b0111],
            0b0110: [0b0111],
            0b1100: [0b1111],
            0b0111: [0b1111],
            0b1111: [],
        }

    @pytest.mark.parametrize("make", [
        lambda: load_set_system(LINE_CONE_5SET),
        lambda: load_set_system(BIRKHOFF_8),
        lambda: downsets(PlayerPoset.from_relations(5, [[1, 2]])),
    ], ids=["open", "closed", "poset"])
    def test_table_is_stored_once_per_object(self, make):
        f = make()
        assert covering_pairs(f) is covering_pairs(f)
        twin = SetSystem.from_masks(f.n, f.masks())
        assert twin == f and covering_pairs(twin) is not covering_pairs(f)
        assert covering_pairs(twin) == covering_pairs(f)

    def test_nine_player_power_set_without_a_pair(self):
        # 511 sets, not closed ({1} ∪ {2} is missing): every cover adds one player
        f = SetSystem.from_masks(9, [m for m in range(1 << 9) if m != 0b11])
        assert not is_closed(f)
        up = covering_pairs(f)
        assert {(s, t) for s, covers in up.items() for t in covers} == brute_covering_pairs(f)
        assert all((s ^ t).bit_count() == 1 for s, covers in up.items() for t in covers)
        assert up[0b1] == [0b101, 0b1001, 0b10001, 0b100001, 0b1000001, 0b10000001, 0b100000001]
        assert up[0] == [1 << i for i in range(9)]

    def test_sixteen_player_lattice_is_read_off_the_j_i(self):
        # 65,536 sets: the pairwise scan would make about 2·10⁹ pair tests
        f = downsets(PlayerPoset.from_relations(16, []))
        up = covering_pairs(f)
        assert sum(map(len, up.values())) == 16 << 15
        assert up[0] == [1 << i for i in range(16)] and up[(1 << 16) - 1] == []


def _brute_chain_masks(f: SetSystem) -> list[tuple[int, ...]]:
    """Every maximal chain as masks, grown along the brute-force covers and
    sorted by the coalition keys of its sets."""
    pairs = brute_covering_pairs(f)
    full = f.universe.full_mask
    chains, todo = [], [(0,)]
    while todo:
        chain = todo.pop()
        if chain[-1] == full:
            chains.append(chain)
        else:
            todo.extend(chain + (t,) for s, t in pairs if s == chain[-1])
    return sorted(chains, key=lambda chain: [(m.bit_count(), m) for m in chain])


@settings(max_examples=200, deadline=None)
@given(_COVER_SYSTEMS)
def test_mask_walk_lists_the_chains_in_order(f):
    # closed and open systems: the walk is the brute-force chains
    assert maximal_chains(f) == _brute_chain_masks(f)


class TestChainBudget:
    @settings(max_examples=200, deadline=None)
    @given(_COVER_SYSTEMS)
    def test_count_is_the_number_of_chains_listed(self, f):
        # answered at the number of chains listed and refused one below it:
        # the count that the budget is held against is that number
        chains = maximal_chains(f)
        with mock.patch.object(setsystem, "MAX_CHAINS", len(chains)):
            assert maximal_chains(f) == chains
        with mock.patch.object(setsystem, "MAX_CHAINS", len(chains) - 1):
            with pytest.raises(WorkBudgetExceeded, match=f"has {len(chains)} maximal chains"):
                maximal_chains(f)

    def test_power_set_answers_at_the_budget_and_is_refused_above_it(self, monkeypatch):
        f = SetSystem.from_masks(3, range(8))
        monkeypatch.setattr(setsystem, "MAX_CHAINS", 6)
        assert len(maximal_chains(f)) == 6
        monkeypatch.setattr(setsystem, "MAX_CHAINS", 5)
        with pytest.raises(WorkBudgetExceeded, match="has 6 maximal chains, more than the work budget of 5$"):
            maximal_chains(f)

    def test_sixteen_player_antichain_is_refused_before_listing(self):
        f = downsets(PlayerPoset.from_relations(16, []))
        with pytest.raises(WorkBudgetExceeded, match=f"has {math.factorial(16)} maximal chains"):
            maximal_chains(f)


@st.composite
def systems_with_through(draw):
    """A system on at most 6 players and sets for the chains to pass through:
    none, a nested family of feasible sets, any feasible sets, or feasible
    sets plus one set outside F."""
    f = draw(systems_up_to_six())
    kind = draw(st.sampled_from(["empty", "nested", "any", "outside"]))
    if kind == "empty":
        return f, []
    # ∅ and N lie on every chain, so only the sets between them can cut
    picked = draw(st.lists(st.sampled_from(f.masks()[1:-1] or f.masks()), min_size=1, max_size=4))
    if kind == "nested":
        nested: list[int] = []
        for m in sorted(picked, key=lambda m: (m.bit_count(), m)):
            if not nested or nested[-1] & ~m == 0:
                nested.append(m)
        return f, nested
    outside = [m for m in range(1 << f.n) if m not in f]
    if kind == "outside" and outside:
        picked.insert(draw(st.integers(0, len(picked))), draw(st.sampled_from(outside)))
    return f, picked


@settings(max_examples=300, deadline=None)
@given(systems_with_through(), st.data())
def test_chain_walk_matches_the_filtered_listing(case, data):
    # the walk's payoff counts, or its refusal, against the marginal vectors
    # of every maximal chain filtered to those through the collection's sets
    f, through = case
    # few distinct worths, so that distinct chains often pay the same vector
    worths = st.lists(st.sampled_from([0, 1, Fraction(1, 2)]), min_size=len(f) - 1, max_size=len(f) - 1)
    game = Game(f, dict(zip(f.masks()[1:], data.draw(worths))))
    # ∅ and N lie on every chain and are never normal sets; a repeated set is one set
    sets = tuple(dict.fromkeys(m for m in through if m not in (0, f.universe.full_mask)))
    collection = NormalCollection(sets, f.n, kind="custom")
    chains = reference_restricted_chains(f, sets)
    if not all(a & ~b == 0 or b & ~a == 0 for a in sets for b in sets):
        refusal = CollectionNotNested
    elif any(len(c) != f.n + 1 for c in maximal_chains(f)):
        refusal = ChainNotRegularSteps
    elif not chains:
        refusal = NoRestrictedChain
    else:
        counts = Counter(marginal_vector(game, c) for c in chains)
        assert _restricted_chain_payoffs(game, collection) == dict(counts)
        return
    with pytest.raises(refusal):
        _restricted_chain_payoffs(game, collection)
