from fractions import Fraction

import pytest

from boundedcore import (
    ChainNotRegularSteps,
    Coalition,
    CollectionNotNested,
    DocumentError,
    Game,
    NormalCollection,
    NotClosed,
    SetNotFeasible,
    build_restricted_core,
    dd_generators,
    hull_membership,
    is_convex,
    marginal_vector,
    maximal_chains,
    restricted_weber,
    load_set_system,
    verify_inclusion,
)
from boundedcore import core_weber
from boundedcore.vectors import parse_rational

from helpers import (
    WEBER_GAP_10SET,
    WEBER_GAP_GAME,
    admits_direction,
    call_log,
    chain_order,
    contains_point,
    is_origin_only,
    system,
)


def F(x):
    return Fraction(x)


def power_set(n):
    import itertools

    sets = [
        list(s)
        for r in range(n + 1)
        for s in itertools.combinations(range(1, n + 1), r)
    ]
    return load_set_system({"n": n, "sets": sets})


@pytest.fixture
def gap_game():
    return Game.from_document(WEBER_GAP_GAME)


@pytest.fixture
def gap_collection(gap_game):
    s = gap_game.system
    return NormalCollection((s.coalition([2, 4]), s.coalition([2, 3, 4])), kind="weber")


class TestGame:
    def test_document_roundtrip(self, gap_game):
        assert Game.from_document(gap_game.to_document()).to_document() == gap_game.to_document()

    def test_rational_values(self, gap_game):
        assert gap_game.value(gap_game.system.coalition([2, 4])) == 1

    def test_missing_value_rejected(self):
        f = system(2, [], [1], [1, 2])
        with pytest.raises(DocumentError):
            Game(f, {f.coalition([1]).mask: F(1)})

    def test_value_outside_system_rejected(self):
        f = system(2, [], [1], [1, 2])
        with pytest.raises(SetNotFeasible):
            Game(f, {0b10: F(1), 0b01: F(0), 0b11: F(2)})

    @pytest.mark.parametrize("values", [
        {"1": "2", "2": "0", "1,2": "3", "2,1": "7"},
        {"1": "2", "1,1": "5", "2": "0", "1,2": "3"},
    ], ids=["reordered", "repeated-player"])
    def test_duplicate_keys_rejected(self, values):
        doc = {"system": {"n": 2, "sets": [[], [1], [2], [1, 2]]}, "values": values}
        with pytest.raises(DocumentError, match="duplicate value for"):
            Game.from_document(doc)

    def test_decimal_strings_rejected(self):
        doc = {"system": {"n": 1, "sets": [[], [1]]}, "values": {"1": "0.5"}}
        with pytest.raises(DocumentError):
            Game.from_document(doc)

    @pytest.mark.parametrize(
        "text", ["3", "-3", "+3", " 7/2 ", "-6/4", "+0/5", "00012/0008", "1" * 300 + "/7"]
    )
    def test_rational_strings_parse_as_fractions(self, text):
        value = parse_rational(text)
        assert type(value) is Fraction and value == Fraction(text)

    @pytest.mark.parametrize("text, message", [
        ("1/0", "zero denominator"),
        ("-0/00", "zero denominator"),
        ("1" * 5000, "rational too long"),
        ("1/" + "1" * 5000, "rational too long"),
    ])
    def test_rational_strings_refused(self, text, message):
        with pytest.raises(DocumentError, match=message):
            parse_rational(text)

    def test_float_values_rejected(self):
        f = system(1, [], [1])
        with pytest.raises(DocumentError):
            Game(f, {0b1: 0.5})

    def test_nonzero_empty_set_rejected(self):
        f = system(1, [], [1])
        with pytest.raises(DocumentError):
            Game(f, {0: F(1), 0b1: F(0)})


class TestRestrictedCore:
    def test_gap_system_rows(self, gap_game, gap_collection):
        core = build_restricted_core(gap_game, gap_collection)
        assert len(core.inequalities) == 6
        assert len(core.equalities) == 3
        # efficiency is the last equality
        coeffs, bound = core.equalities[-1]
        assert all(c == 1 for c in coeffs) and bound == 3

    def test_plain_core_of_zero_game_on_power_set(self):
        f = power_set(2)
        game = Game(f, {c.mask: F(0) for c in f})
        core = build_restricted_core(game, NormalCollection((), kind="custom"))
        gens = dd_generators(core)
        assert is_origin_only(gens)

    def test_infeasible_normal_set_rejected(self, gap_game):
        foreign = gap_game.system.coalition([3])
        with pytest.raises(SetNotFeasible):
            build_restricted_core(gap_game, NormalCollection((foreign,), kind="custom"))


class TestMarginalVectors:
    def test_gap_game_chain(self, gap_game):
        chain = next(
            c for c in maximal_chains(gap_game.system) if chain_order(c) == (2, 4, 3, 5, 1)
        )
        assert tuple(int(x) for x in marginal_vector(gap_game, chain)) == (1, 0, 0, 1, 1)

    def test_zero_game(self):
        f = power_set(3)
        game = Game(f, {c.mask: F(0) for c in f})
        for chain in maximal_chains(f):
            assert all(x == 0 for x in marginal_vector(game, chain))

    def test_additive_game_telescopes(self):
        f = power_set(3)
        game = Game(f, {c.mask: F(len(c)) for c in f})
        for chain in maximal_chains(f):
            assert all(x == 1 for x in marginal_vector(game, chain))

    def test_coincides_with_game_along_chain(self, gap_game):
        for chain in maximal_chains(gap_game.system):
            payoff = marginal_vector(gap_game, chain)
            for step in chain:
                assert sum(payoff[p - 1] for p in step.members) == gap_game.value(step)

    def test_irregular_chain_rejected(self):
        f = system(2, [], [1, 2])
        game = Game(f, {f.coalition([1, 2]).mask: F(1)})
        chain = maximal_chains(f)[0]
        with pytest.raises(ChainNotRegularSteps):
            marginal_vector(game, chain)

    def test_rejects_wrong_endpoints(self):
        game = Game(power_set(2), {m: F(m) for m in range(4)})
        with pytest.raises(ChainNotRegularSteps, match="empty coalition"):
            marginal_vector(game, (Coalition(1, 2), Coalition(3, 2), Coalition(3, 2)))
        with pytest.raises(ChainNotRegularSteps):
            marginal_vector(game, (Coalition(1, 2), Coalition(3, 2)))

    def test_rejects_non_monotone(self):
        game = Game(power_set(2), {m: F(m) for m in range(4)})
        with pytest.raises(ChainNotRegularSteps):
            marginal_vector(game, (Coalition(0, 2), Coalition(2, 2), Coalition(1, 2), Coalition(3, 2)))
        # one player added per step, but {2} does not contain {1}
        with pytest.raises(ChainNotRegularSteps, match="1 -> 2"):
            marginal_vector(game, (Coalition(0, 2), Coalition(1, 2), Coalition(2, 2)))

    def test_rejects_multi_player_step(self):
        game = Game(power_set(3), {m: F(m) for m in range(8)})
        chain = (Coalition(0, 3), Coalition(3, 3), Coalition(3, 3), Coalition(7, 3))
        with pytest.raises(ChainNotRegularSteps, match="∅ -> 12"):
            marginal_vector(game, chain)


class TestRestrictedWeber:
    def test_gap_game_is_singleton(self, gap_game, gap_collection):
        gens = restricted_weber(gap_game, gap_collection)
        assert [tuple(int(x) for x in v) for v in gens.vertices] == [(1, 0, 0, 1, 1)]
        assert len(maximal_chains(gap_game.system, gap_collection)) == 2

    def test_walks_only_the_restricted_chains(self, monkeypatch, gap_game, gap_collection):
        calls = call_log(monkeypatch, "maximal_chains", core_weber)
        restricted_weber(gap_game, gap_collection)
        assert calls == [(gap_game.system, gap_collection)]
        assert len(maximal_chains(*calls[0])) == 2 < len(maximal_chains(gap_game.system))

    def test_zero_game_gives_origin(self):
        f = power_set(3)
        game = Game(f, {c.mask: F(0) for c in f})
        gens = restricted_weber(game, NormalCollection((), kind="custom"))
        assert [tuple(int(x) for x in v) for v in gens.vertices] == [(0, 0, 0)]

    def test_unnested_collection_rejected(self, gap_game):
        s = gap_game.system
        bad = NormalCollection((s.coalition([1]), s.coalition([2])), kind="custom")
        with pytest.raises(CollectionNotNested):
            restricted_weber(gap_game, bad)

    def test_nested_collections_always_reach_a_chain(self, gap_game):
        # regularity makes every feasible interval chain-connected, so a
        # nested collection always lies on some maximal chain and the
        # no-restricted-chain signal stays defensive
        s = gap_game.system
        feasible = [c for c in s.sets if 0 < len(c) < s.n]
        for low in feasible:
            for high in feasible:
                if low < high:
                    nested = NormalCollection((low, high), kind="custom")
                    assert maximal_chains(s, nested)

    def test_irregular_system_refused(self):
        f = system(3, [], [1, 2], [1, 2, 3])
        game = Game(f, {c.mask: F(0) for c in f})
        with pytest.raises(ChainNotRegularSteps):
            restricted_weber(game, NormalCollection((), kind="custom"))


class TestConvexity:
    def test_cardinality_squared_is_convex(self):
        f = power_set(3)
        game = Game(f, {c.mask: F(len(c)) ** 2 for c in f})
        assert is_convex(game)

    def test_additive_is_convex(self):
        f = power_set(3)
        game = Game(f, {c.mask: F(len(c)) for c in f})
        assert is_convex(game)

    def test_tight_then_perturbed(self):
        f = power_set(3)
        values = {c.mask: F(0) for c in f}
        values[f.coalition([1, 2]).mask] = F(1)
        values[f.coalition([1, 3]).mask] = F(1)
        values[f.coalition([1]).mask] = F(1)
        values[f.coalition([1, 2, 3]).mask] = F(1)
        assert is_convex(Game(f, values))
        values[f.coalition([1]).mask] = F(0)
        assert not is_convex(Game(f, values))

    def test_requires_closed_system(self):
        f = load_set_system(WEBER_GAP_10SET)
        game = Game.from_document(WEBER_GAP_GAME)
        assert f.to_document() == game.system.to_document()
        with pytest.raises(NotClosed):
            is_convex(game)


class TestInclusion:
    def test_gap_game_fails_inclusion(self, gap_game, gap_collection):
        verdict = verify_inclusion(gap_game, gap_collection)
        assert not verdict.holds
        core = build_restricted_core(gap_game, gap_collection)
        assert contains_point(core, verdict.witness)
        assert contains_point(core, [1, 1, 0, 0, 1])
        weber = restricted_weber(gap_game, gap_collection)
        assert not hull_membership(verdict.witness, weber)

    def test_classical_inclusion_on_power_set(self):
        f = power_set(3)
        game = Game(f, {c.mask: F(len(c)) ** 2 for c in f})
        verdict = verify_inclusion(game, NormalCollection((), kind="custom"))
        assert verdict.holds and verdict.witness is None

    def test_convex_game_core_equals_weber(self):
        # classical equivalence as an oracle cross-check
        f = power_set(3)
        game = Game(f, {c.mask: F(len(c)) ** 2 for c in f})
        empty = NormalCollection((), kind="custom")
        weber = restricted_weber(game, empty)
        core = dd_generators(build_restricted_core(game, empty))
        assert set(core.vertices) == set(weber.vertices)

    def test_six_player_convex_core_is_its_marginal_vectors(self):
        # Shapley 1971: every core vertex of a convex game is a marginal vector
        f = power_set(6)
        game = Game(f, {c.mask: F(len(c)) ** 2 for c in f})
        empty = NormalCollection((), kind="custom")
        verdict = verify_inclusion(game, empty)
        core = dd_generators(build_restricted_core(game, empty))
        assert verdict.holds and verdict.witness is None
        assert len(core.vertices) == 720
        assert core.vertices == verdict.weber.vertices

    def test_unbounded_core_reports_direction(self):
        f = load_set_system(WEBER_GAP_10SET)
        game = Game.from_document(WEBER_GAP_GAME)
        verdict = verify_inclusion(game, NormalCollection((), kind="custom"))
        assert not verdict.holds
        core = build_restricted_core(game, NormalCollection((), kind="custom"))
        assert admits_direction(core, verdict.witness)
