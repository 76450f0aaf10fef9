import json
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from boundedcore import (
    ChainNotRegularSteps,
    CollectionNotNested,
    DocumentError,
    Game,
    NoRestrictedChain,
    NormalCollection,
    NotClosed,
    PlayerPoset,
    SetNotFeasible,
    WorkBudgetExceeded,
    algo1_irredundant,
    build_restricted_core,
    dd_generators,
    downsets,
    extract_poset,
    is_convex,
    marginal_vector,
    maximal_chains,
    members,
    restricted_weber,
    load_set_system,
    verify_inclusion,
    weber_collection,
)
from boundedcore import SetSystem, VRepresentation, cli, core_weber, setsystem
from boundedcore.cli import main
from boundedcore.core_weber import _restricted_core_generators
from boundedcore.vectors import exact_rational, parse_rational, weight

from helpers import (
    REGULAR_LIFT_8SET,
    WEBER_GAP_10SET,
    WEBER_GAP_GAME,
    admits_direction,
    bonus_power_game,
    call_log,
    chain_order,
    contains_point,
    hull_membership,
    is_origin_only,
    one_point_hull,
    reference_game_from_document,
    reference_is_convex,
    reference_restricted_chains,
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
    return NormalCollection((s.coalition([2, 4]), s.coalition([2, 3, 4])), s.n, kind="weber")


class TestGame:
    def test_document_roundtrip(self, gap_game):
        assert Game.from_document(gap_game.to_document()).to_document() == gap_game.to_document()

    def test_rational_values(self, gap_game):
        assert gap_game.value(gap_game.system.coalition([2, 4])) == 1

    def test_missing_value_rejected(self):
        f = system(2, [], [1], [1, 2])
        with pytest.raises(DocumentError):
            Game(f, {f.coalition([1]): F(1)})

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

    @pytest.mark.parametrize("n", [3, 8, 9, 11, 16])
    def test_canonical_keys_give_the_parsed_masks(self, n):
        # keys as to_document writes them, players above 8 included, each
        # worth its own mask, read as the two-pass parse reads them
        rng = random.Random(n)
        full = (1 << n) - 1
        f = SetSystem.from_masks(n, {0, full} | {rng.randrange(1, full) for _ in range(40)})
        document = {
            "system": f.to_document(),
            "values": {",".join(map(str, members(m))): str(m) for m in f.masks() if m},
        }
        game = Game.from_document(document)
        assert game._values == {m: m for m in f.masks()}
        assert game._values == reference_game_from_document(document)._values
        assert game.to_document() == document

    @pytest.mark.parametrize("key, mask", [
        (" 1 ", 0b01), ("+1", 0b01), ("2,1", 0b11), ("1,1", 0b01), ("\u0661", 0b01), ("\u0662, 1", 0b11),
    ])
    def test_other_spellings_give_the_parsed_masks(self, key, mask):
        canonical = {0b01: "1", 0b10: "2", 0b11: "1,2"}
        values = {key if m == mask else text: str(10 + m) for m, text in canonical.items()}
        document = {"system": {"n": 2, "sets": [[], [1], [2], [1, 2]]}, "values": values}
        game = Game.from_document(document)
        assert game._values == {0: 0, 0b01: 11, 0b10: 12, 0b11: 13}
        assert game._values == reference_game_from_document(document)._values

    @pytest.mark.parametrize("first, second", [
        ("1,2", "2,1"), ("2,1", "1,2"), ("1", " 1"), (" 1", "1"), ("1", "1,1"), ("1,1", "1"), ("1", "+1"),
    ])
    def test_a_set_spelled_twice_is_refused_whichever_comes_first(self, first, second):
        values = {first: "1", second: "2"}
        for key in ("1", "2", "1,2"):
            values.setdefault(key, "0")
        document = {"system": {"n": 2, "sets": [[], [1], [2], [1, 2]]}, "values": values}
        text = "12" if "2" in first else "1"
        with pytest.raises(DocumentError, match=f"^duplicate value for {text}$"):
            Game.from_document(document)
        with pytest.raises(DocumentError, match=f"^duplicate value for {text}$"):
            reference_game_from_document(document)

    def test_empty_key_keeps_its_message(self):
        document = {"system": {"n": 1, "sets": [[], [1]]}, "values": {"1": "1", "": "0"}}
        with pytest.raises(DocumentError, match=r"^bad coalition key '' \(the empty set is implicit\)$"):
            Game.from_document(document)

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

    @pytest.mark.parametrize("text, value", [
        ("12", 12), (" 007 ", 7), ("\u0661\u0662", 12), ("+12", 12), ("-12", -12), ("\u0661/\u0662", Fraction(1, 2)),
    ])
    def test_integral_strings_are_ints(self, text, value):
        got = exact_rational(text)
        assert got == value and type(got) is type(value)

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

    @pytest.mark.parametrize("key", ["1", 1.0, True, (1,), None, -1, 0b100, 1 << 20])
    def test_keys_that_are_not_masks_rejected(self, key):
        # only an int mask of players 1..n names a coalition, never its text,
        # a float or a bool, so each such key is refused by name, by the game
        # and by its lookups; a mask wider than 16 bits is past the byte
        # tables that write the SetNotFeasible message
        f = system(2, [], [1], [1, 2])
        message = rf"^coalition keys must be masks of players 1\.\.2, got {re.escape(repr(key))}$"
        with pytest.raises(DocumentError, match=message):
            Game(f, {key: 1, 0b11: 2})
        game = Game(f, {0b01: 1, 0b11: 2})
        with pytest.raises(DocumentError, match=message):
            game.value(key)
        with pytest.raises(SetNotFeasible, match="^2 is not a feasible coalition$"):
            game.value(0b10)

    @pytest.mark.parametrize(
        "worth", [True, "1.5", "1e3", " 3 ", Decimal("0.5")],
        ids=["bool", "decimal-string", "exponent-string", "padded-int-string", "Decimal"],
    )
    def test_inexact_worth_kinds_rejected(self, worth):
        f = system(1, [], [1])
        with pytest.raises(DocumentError, match="supply an exact rational"):
            Game(f, {0b1: worth})

    def test_integral_worths_are_stored_as_ints(self):
        f = system(2, [], [1], [2], [1, 2])
        game = Game(f, {0b01: Fraction(4, 2), 0b10: Fraction(3, 4), 0b11: 5})
        assert [type(game.value(m)) for m in (0, 0b01, 0b10, 0b11)] == [int, int, Fraction, int]
        assert (game.value(0b01), game.value(0b10)) == (2, Fraction(3, 4))

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
        game = Game(f, {m: F(0) for m in f.masks()})
        core = build_restricted_core(game, NormalCollection((), f.n, kind="custom"))
        gens = dd_generators(core)
        assert is_origin_only(gens)

    def test_infeasible_normal_set_rejected(self, gap_game):
        foreign = gap_game.system.coalition([3])
        with pytest.raises(SetNotFeasible):
            build_restricted_core(gap_game, NormalCollection((foreign,), 5, kind="custom"))


    def test_wide_normal_set_refused_by_the_collection(self):
        # refused before any message names it through the byte tables
        game = Game(SetSystem.from_masks(2, [0, 1, 3]), {1: 1, 3: 2})
        with pytest.raises(ValueError, match=r"^normal sets must be masks of players 1\.\.2, got 1048576$"):
            build_restricted_core(game, NormalCollection((1 << 20,), 2))


class TestMarginalVectors:
    def test_gap_game_chain(self, gap_game):
        chain = next(
            c for c in maximal_chains(gap_game.system) if chain_order(c) == (2, 4, 3, 5, 1)
        )
        assert tuple(int(x) for x in marginal_vector(gap_game, chain)) == (1, 0, 0, 1, 1)

    def test_zero_game(self):
        f = power_set(3)
        game = Game(f, {m: F(0) for m in f.masks()})
        for chain in maximal_chains(f):
            assert all(x == 0 for x in marginal_vector(game, chain))

    def test_additive_game_telescopes(self):
        f = power_set(3)
        game = Game(f, {m: F(m.bit_count()) for m in f.masks()})
        for chain in maximal_chains(f):
            assert all(x == 1 for x in marginal_vector(game, chain))

    def test_coincides_with_game_along_chain(self, gap_game):
        for chain in maximal_chains(gap_game.system):
            payoff = marginal_vector(gap_game, chain)
            for step in chain:
                assert sum(payoff[p - 1] for p in members(step)) == gap_game.value(step)

    def test_irregular_chain_rejected(self):
        f = system(2, [], [1, 2])
        game = Game(f, {f.coalition([1, 2]): F(1)})
        chain = maximal_chains(f)[0]
        with pytest.raises(ChainNotRegularSteps):
            marginal_vector(game, chain)

    def test_rejects_wrong_endpoints(self):
        game = Game(power_set(2), {m: F(m) for m in range(4)})
        with pytest.raises(ChainNotRegularSteps, match="empty coalition"):
            marginal_vector(game, (1, 3, 3))
        with pytest.raises(ChainNotRegularSteps):
            marginal_vector(game, (1, 3))

    def test_rejects_non_monotone(self):
        game = Game(power_set(2), {m: F(m) for m in range(4)})
        with pytest.raises(ChainNotRegularSteps):
            marginal_vector(game, (0, 2, 1, 3))
        # one player added per step, but {2} does not contain {1}
        with pytest.raises(ChainNotRegularSteps, match="1 -> 2"):
            marginal_vector(game, (0, 1, 2))

    def test_rejects_multi_player_step(self):
        game = Game(power_set(3), {m: F(m) for m in range(8)})
        chain = (0, 3, 3, 7)
        with pytest.raises(ChainNotRegularSteps, match="∅ -> 12"):
            marginal_vector(game, chain)


class TestRestrictedWeber:
    def test_gap_game_is_singleton(self, gap_game, gap_collection):
        gens = restricted_weber(gap_game, gap_collection)
        assert [tuple(int(x) for x in v) for v in gens.vertices] == [(1, 0, 0, 1, 1)]
        assert len(reference_restricted_chains(gap_game.system, gap_collection)) == 2
        assert core_weber._restricted_chain_payoffs(gap_game, gap_collection) == {(1, 0, 0, 1, 1): 2}

    def test_weber_questions_list_no_chain(self, monkeypatch, tmp_path, capsys):
        # v(S) = |S| on the 8-player power set: 40,320 restricted chains, one
        # marginal vector; the walk keeps one payoff per set and lists no chain
        f = power_set(8)
        game = Game(f, {m: m.bit_count() for m in f.masks()})
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game.to_document()))
        walks = call_log(monkeypatch, "maximal_chains", setsystem, cli)
        empty = NormalCollection((), f.n, kind="custom")
        assert restricted_weber(game, empty).vertices == ((1,) * 8,)
        assert verify_inclusion(game, empty).holds
        assert main(["weber", "--game", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["restricted_chain_count"] == 40320
        assert main(["verify-inclusion", "--game", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True
        assert walks == []

    def test_zero_game_gives_origin(self):
        f = power_set(3)
        game = Game(f, {m: F(0) for m in f.masks()})
        gens = restricted_weber(game, NormalCollection((), f.n, kind="custom"))
        assert [tuple(int(x) for x in v) for v in gens.vertices] == [(0, 0, 0)]

    def test_unnested_collection_rejected(self, gap_game):
        s = gap_game.system
        bad = NormalCollection((s.coalition([1]), s.coalition([2])), s.n, kind="custom")
        with pytest.raises(CollectionNotNested):
            restricted_weber(gap_game, bad)

    def test_nested_collections_always_reach_a_chain(self, gap_game):
        # regularity makes every feasible interval chain-connected, so a
        # nested collection of feasible sets always lies on some maximal
        # chain: only an infeasible normal set leaves none
        s = gap_game.system
        feasible = [m for m in s.masks() if 0 < m.bit_count() < s.n]
        for low in feasible:
            for high in feasible:
                if low != high and low & ~high == 0:
                    nested = NormalCollection((low, high), s.n, kind="custom")
                    assert reference_restricted_chains(s, nested)
                    assert restricted_weber(gap_game, nested).vertices

    def test_irregular_system_refused(self):
        f = system(3, [], [1, 2], [1, 2, 3])
        game = Game(f, {m: F(0) for m in f.masks()})
        with pytest.raises(ChainNotRegularSteps):
            restricted_weber(game, NormalCollection((), f.n, kind="custom"))


class TestOneCoverTable:
    """Each question that reads the covers of one system object shares one table."""

    def run(self, monkeypatch, tmp_path, game, verb):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game.to_document()))
        tables: list = []
        asks = call_log(monkeypatch, "covering_pairs", setsystem, core_weber, results=tables)
        assert main([verb, "--game", str(path)]) == 0
        return asks, tables

    def test_open_regular_inclusion_builds_the_table_once(self, monkeypatch, tmp_path, capsys):
        # classify asks for the covers, then the Weber walk does
        game = Game.from_document(
            {"system": REGULAR_LIFT_8SET, "values": {"1": "1", "2": "1", "1,3": "4", "2,3": "4",
                                                     "1,3,4": "9", "2,3,4": "9", "1,2,3,4": "16"}}
        )
        asks, tables = self.run(monkeypatch, tmp_path, game, "verify-inclusion")
        assert json.loads(capsys.readouterr().out)["holds"] is False
        (f,) = {a[0] for a in asks}
        # the run's stored report: reading it asks for no covers
        report = setsystem.classify(f)
        assert report.is_regular and not report.is_union_intersection_closed and len(asks) == 2
        assert tables[0] is tables[1] is setsystem.covering_pairs(f)

    def test_convex_lattice_core_builds_the_table_once(self, monkeypatch, tmp_path, capsys):
        # is_convex asks for the covers, then the Weber walk does: no DD runs
        dd = call_log(monkeypatch, "dd_generators", core_weber)
        f = power_set(4)
        asks, tables = self.run(monkeypatch, tmp_path, Game(f, {m: m.bit_count() ** 2 for m in f.masks()}), "core")
        assert len(json.loads(capsys.readouterr().out)["v_representation"]["vertices"]) == 24
        (g,) = {a[0] for a in asks}
        assert g == f and g is not f and len(asks) == 2 and dd == []
        assert tables[0] is tables[1] is setsystem.covering_pairs(g)


class TestConvexity:
    def test_cardinality_squared_is_convex(self):
        f = power_set(3)
        game = Game(f, {m: F(m.bit_count()) ** 2 for m in f.masks()})
        assert is_convex(game)

    def test_additive_is_convex(self):
        f = power_set(3)
        game = Game(f, {m: F(m.bit_count()) for m in f.masks()})
        assert is_convex(game)

    def test_tight_then_perturbed(self):
        f = power_set(3)
        values = {m: F(0) for m in f.masks()}
        values[f.coalition([1, 2])] = F(1)
        values[f.coalition([1, 3])] = F(1)
        values[f.coalition([1])] = F(1)
        values[f.coalition([1, 2, 3])] = F(1)
        assert is_convex(Game(f, values))
        values[f.coalition([1])] = F(0)
        assert not is_convex(Game(f, values))

    def test_squares_of_a_lattice_below_full_height(self):
        # players 1 and 2 share J = 12, so the lattice ∅, 12, 3, 123 has height 2
        # and its one square is ∅ under 12 and 3
        f = system(3, [], [1, 2], [3], [1, 2, 3])
        values = {f.coalition([1, 2]): 1, f.coalition([3]): 1}
        for grand, convex in ((1, False), (2, True)):
            game = Game(f, values | {f.universe.full_mask: grand})
            assert is_convex(game) is convex is reference_is_convex(game)

    def test_a_pair_is_checked_through_its_grid(self):
        # 1 and 23 break supermodularity (4 + 0 < 0 + 5) but form no square; the
        # square 2 under 12 and 23 of the grid between ∅ and 123 breaks it too
        f = power_set(3)
        values = {m: 0 for m in f.masks() if m}
        values[f.coalition([2, 3])] = 5
        values[f.universe.full_mask] = 4
        game = Game(f, values)
        assert is_convex(game) is False is reference_is_convex(game)

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
        game = Game(f, {m: F(m.bit_count()) ** 2 for m in f.masks()})
        verdict = verify_inclusion(game, NormalCollection((), f.n, kind="custom"))
        assert verdict.holds and verdict.witness is None

    def test_convex_game_core_equals_weber(self):
        # classical equivalence as an oracle cross-check
        f = power_set(3)
        game = Game(f, {m: F(m.bit_count()) ** 2 for m in f.masks()})
        empty = NormalCollection((), f.n, kind="custom")
        weber = restricted_weber(game, empty)
        core = dd_generators(build_restricted_core(game, empty))
        assert set(core.vertices) == set(weber.vertices)

    def test_six_player_convex_core_is_its_marginal_vectors(self):
        # Shapley 1971: every core vertex of a convex game is a marginal vector
        f = power_set(6)
        game = Game(f, {m: F(m.bit_count()) ** 2 for m in f.masks()})
        empty = NormalCollection((), f.n, kind="custom")
        verdict = verify_inclusion(game, empty)
        core = dd_generators(build_restricted_core(game, empty))
        assert verdict.holds and verdict.witness is None
        assert len(core.vertices) == 720
        assert core.vertices == restricted_weber(game, empty).vertices

    def test_unbounded_core_reports_direction(self):
        f = load_set_system(WEBER_GAP_10SET)
        game = Game.from_document(WEBER_GAP_GAME)
        verdict = verify_inclusion(game, NormalCollection((), f.n, kind="custom"))
        assert not verdict.holds
        core = build_restricted_core(game, NormalCollection((), f.n, kind="custom"))
        assert admits_direction(core, verdict.witness)

    def test_convex_game_pays_for_no_facet_run(self, monkeypatch):
        # Weber's theorem answers on the power set: no walk and no DD run
        calls = call_log(monkeypatch, "dd_generators", core_weber)
        walks = call_log(monkeypatch, "_restricted_chain_payoffs", core_weber)
        f = power_set(5)
        game = Game(f, {m: m.bit_count() ** 2 for m in f.masks()})
        empty = NormalCollection((), f.n, kind="custom")
        verdict = verify_inclusion(game, empty)
        assert verdict.holds and calls == walks == []
        assert len(restricted_weber(game, empty).vertices) == 120

    def test_seven_player_power_set(self, monkeypatch):
        calls = call_log(monkeypatch, "dd_generators", core_weber)
        f = power_set(7)
        game = Game(f, {m: m.bit_count() ** 2 for m in f.masks()})
        empty = NormalCollection((), f.n, kind="custom")
        verdict = verify_inclusion(game, empty)
        assert verdict.holds and verdict.witness is None
        core = _restricted_core_generators(game, empty, build_restricted_core(game, empty))
        assert len(core.vertices) == 5040 and core.vertices == restricted_weber(game, empty).vertices
        assert calls == []

    def test_single_vertex_hull_rejects_the_far_end_of_a_segment(self, monkeypatch):
        # (3, 0, 0) has x(12) = 3 above the hull's bound p(12) = 1, so the core's
        # DD is the only run
        game, collection = one_point_hull()
        calls = call_log(monkeypatch, "dd_generators", core_weber)
        verdict = verify_inclusion(game, collection)
        weber = restricted_weber(game, collection)
        assert weber.vertices == ((1, 0, 2),)
        assert (verdict.holds, verdict.witness) == (False, (3, 0, 0))
        assert len(calls) == 1
        assert not hull_membership(verdict.witness, weber)

    def test_vertex_within_the_set_bounds_goes_to_the_facets(self, monkeypatch):
        # the hull is the segment from (4, 6, -4) to (5, 1, 0); the core vertex
        # (0, 6, 0) meets x(S) <= max p(S) on every S but lies off the segment
        f = system(3, [], [2], [3], [1, 2], [1, 3], [1, 2, 3])
        worths = {(2,): 1, (3,): -4, (1, 2): 6, (1, 3): 0, (1, 2, 3): 6}
        game = Game(f, {f.coalition(players): w for players, w in worths.items()})
        empty = NormalCollection((), f.n, kind="custom")
        calls = call_log(monkeypatch, "dd_generators", core_weber)
        verdict = verify_inclusion(game, empty)
        weber = restricted_weber(game, empty)
        assert weber.vertices == ((4, 6, -4), (5, 1, 0))
        assert (verdict.holds, verdict.witness) == (False, (0, 6, 0))
        assert len(calls) == 2
        for m in f.masks():
            assert weight(verdict.witness, m) <= max(weight(p, m) for p in weber.vertices)
        assert not hull_membership(verdict.witness, weber)

    def test_non_convex_five_player_power_set(self, monkeypatch):
        # v(S) = |S|² + b(S)·|S| with b drawn in mask order: 52 of the 87 core
        # vertices are no marginal vector, yet Weber's theorem holds on the
        # power set for every game, so no DD runs
        game = bonus_power_game(5, 1)
        empty = NormalCollection((), 5, kind="custom")
        calls = call_log(monkeypatch, "dd_generators", core_weber)
        walks = call_log(monkeypatch, "_restricted_chain_payoffs", core_weber)
        verdict = verify_inclusion(game, empty)
        assert verdict.holds and verdict.witness is None
        assert calls == walks == []
        weber = restricted_weber(game, empty)
        assert len(weber.vertices) == 106
        vertices = dd_generators(build_restricted_core(game, empty)).vertices
        inner = [v for v in vertices if v not in weber.vertices]
        assert (len(vertices), len(inner)) == (87, 52)
        # the simplex reference agrees on a sample of the vertices the theorem
        # accepted (on all 52 it takes about 7 s)
        for vertex in inner[::13]:
            assert hull_membership(vertex, weber)

    def test_non_convex_five_player_power_set_without_a_pair(self, monkeypatch):
        # without {1, 2} the system is regular but not closed, so the theorem
        # does not apply: 19 of the 27 core vertices are no marginal vector,
        # and the facets of the hull of 86 marginal vectors accept them all
        game = bonus_power_game(5, 2, without=(0b11,))
        empty = NormalCollection((), 5, kind="custom")
        calls = call_log(monkeypatch, "dd_generators", core_weber)
        verdict = verify_inclusion(game, empty)
        assert verdict.holds and verdict.witness is None
        assert len(calls) == 2
        core = calls[0][0]
        assert core == build_restricted_core(game, empty)
        assert calls[1][0].dim == 6
        weber = restricted_weber(game, empty)
        vertices = dd_generators(core).vertices
        inner = [v for v in vertices if v not in weber.vertices]
        assert (len(vertices), len(inner), len(weber.vertices)) == (27, 19, 86)
        # the simplex reference agrees on a sample of the vertices the facets accepted
        for vertex in inner[::4]:
            assert hull_membership(vertex, weber)

    def test_non_convex_seven_player_power_set(self, monkeypatch):
        # Weber's theorem answers on the power set with no DD; the Weber set has 4,121 vertices
        calls = call_log(monkeypatch, "dd_generators", core_weber)
        game, empty = bonus_power_game(7, 1), NormalCollection((), 7, kind="custom")
        verdict = verify_inclusion(game, empty)
        assert verdict.holds and verdict.witness is None and calls == []
        assert len(restricted_weber(game, empty).vertices) == 4121


class TestInclusionReadsOnlyWhatItNeeds:
    """``verify_inclusion`` refuses first, then answers by the theorem, and
    walks to the Weber set only when a core vertex must be tested."""

    def spies(self, monkeypatch):
        dd = call_log(monkeypatch, "dd_generators", core_weber)
        walks = call_log(monkeypatch, "_restricted_chain_payoffs", core_weber)
        return dd, walks

    def test_premises_run_no_walk_and_no_dd(self, monkeypatch):
        # the downsets of 1 < 2, 3 < 4 under their Weber collection, with a
        # game that is not convex: the theorem answers, and only reading the
        # Weber set walks
        f = downsets(PlayerPoset.from_relations(4, [[1, 2], [3, 4]]))
        collection = weber_collection(algo1_irredundant(extract_poset(f)))
        assert len(collection) == 1
        game = Game(f, {m: m.bit_count() ** 2 - 3 * (m == 0b0101) for m in f.masks()})
        assert not is_convex(game)
        dd, walks = self.spies(monkeypatch)
        assert verify_inclusion(game, collection) == core_weber.InclusionVerdict(True, None)
        assert dd == walks == []
        assert restricted_weber(game, collection).vertices
        assert len(walks) == 1 and dd == []

    def test_an_empty_core_holds_without_a_walk(self, monkeypatch):
        # regular but not closed: x1 >= 5 and x2 + x3 >= 5 leave nothing of
        # x(N) = 0, and N = {1} ∪ {2,3} proves it with no DD run
        f = system(3, [], [1], [2], [1, 3], [2, 3], [1, 2, 3])
        game = Game(f, {m: 5 if m in (0b001, 0b110) else 0 for m in f.masks()})
        empty = NormalCollection((), 3, kind="custom")
        dd, walks = self.spies(monkeypatch)
        verdict = verify_inclusion(game, empty)
        assert (verdict.holds, verdict.witness) == (True, None)
        assert dd == walks == []
        assert core_weber._empty_core_split(game, empty) == (0, 0b111, 0b001)
        assert dd_generators(build_restricted_core(game, empty)).empty

    def test_an_unbounded_core_fails_without_a_walk(self, monkeypatch):
        # the chain 1 < 2 with nothing frozen: the transfer (1, -1) is the witness
        f = system(2, [], [1], [1, 2])
        game = Game(f, {m: 0 for m in f.masks()})
        dd, walks = self.spies(monkeypatch)
        verdict = verify_inclusion(game, NormalCollection((), 2, kind="custom"))
        assert (verdict.holds, verdict.witness) == (False, (1, -1))
        assert len(dd) == 1 and walks == []

    @pytest.mark.parametrize("refusal", [CollectionNotNested, ChainNotRegularSteps])
    def test_refusals_come_before_any_dd_also_on_an_empty_core(self, monkeypatch, refusal):
        if refusal is CollectionNotNested:
            f = system(3, [], [1], [2], [1, 3], [2, 3], [1, 2, 3])
            frozen = (0b001, 0b010)
        else:
            # ∅ -> 1 -> N adds players 2 and 3 at once
            f = system(3, [], [1], [2, 3], [1, 2, 3])
            frozen = ()
        game = Game(f, {m: 5 if m in (0b001, 0b110) else 0 for m in f.masks()})
        collection = NormalCollection(frozen, 3, kind="custom")
        assert dd_generators(build_restricted_core(game, collection)).empty
        dd, walks = self.spies(monkeypatch)
        with pytest.raises(refusal):
            verify_inclusion(game, collection)
        assert dd == walks == []

    def test_an_infeasible_normal_set_leaves_no_restricted_chain(self, monkeypatch):
        # {1, 2} is nested with {1} but not feasible: no chain passes through it
        f = system(3, [], [1], [2], [1, 3], [2, 3], [1, 2, 3])
        game = Game(f, {m: 0 for m in f.masks()})
        collection = NormalCollection((0b001, 0b011), 3, kind="custom")
        assert reference_restricted_chains(f, collection) == []
        dd, _ = self.spies(monkeypatch)
        for ask in (restricted_weber, verify_inclusion):
            with pytest.raises(NoRestrictedChain, match="^no maximal chain passes through every normal set$"):
                ask(game, collection)
        assert dd == []


class TestWalkBudget:
    """The Weber walk counts each set's payoffs times the covers it takes."""

    @pytest.mark.parametrize("n, frozen, total, vertices", [
        # |S|² pays |S|! distinct partial payoffs at S, which takes n - |S| covers:
        # 4 + 4·3 + 6·2·2 + 4·6·1 = 64
        (4, (), 64, 24),
        # through {1}: ∅ takes one cover, {1} two, {1,2} and {1,3} one each
        (3, ((1,),), 5, 2),
    ])
    def test_refuses_one_below_the_total_and_answers_at_it(self, monkeypatch, capsys, tmp_path,
                                                           n, frozen, total, vertices):
        f = power_set(n)
        game = Game(f, {m: m.bit_count() ** 2 for m in f.masks()})
        collection = NormalCollection(tuple(f.coalition(s) for s in frozen), n, kind="custom")
        monkeypatch.setattr(core_weber, "MAX_WALK_WORK", total - 1)
        message = (
            f"the Weber walk needs {total} payoff steps by its next set, "
            f"more than the work budget of {total - 1}"
        )
        with pytest.raises(WorkBudgetExceeded, match=f"^{message}$"):
            restricted_weber(game, collection)
        if not frozen:
            path = tmp_path / "game.json"
            path.write_text(json.dumps(game.to_document()))
            assert main(["weber", "--game", str(path)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        monkeypatch.setattr(core_weber, "MAX_WALK_WORK", total)
        assert len(restricted_weber(game, collection).vertices) == vertices


class TestRestrictedCoreGenerators:
    """The chain-walk route gives exactly DD's V-representation, or DD runs."""

    def route(self, monkeypatch, game, collection):
        calls = call_log(monkeypatch, "dd_generators", core_weber)
        poly = build_restricted_core(game, collection)
        got = _restricted_core_generators(game, collection, poly)
        assert got == dd_generators(poly)
        for vertex in got.vertices:
            kinds = {type(c) for c in vertex}
            assert kinds == {int} or kinds == {Fraction}, vertex
        return got, calls

    def test_fractional_convex_game(self, monkeypatch):
        # v(S) = |S|²/2 mixes int and p/q worths, and marginal vectors mix both types
        f = power_set(3)
        game = Game(f, {m: F(m.bit_count() ** 2) / 2 for m in f.masks()})
        got, calls = self.route(monkeypatch, game, NormalCollection((), f.n, kind="custom"))
        assert calls == [] and len(got.vertices) == 6
        assert (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)) in got.vertices

    def test_vertex_types_follow_dd(self, monkeypatch):
        # with v(1) = 1 and v(2) = 1/2, the chain 1, 2 pays (1, v(12) - 1), an int
        # and a Fraction: DD gives an int tuple only for an integral vertex
        f = power_set(2)
        for grand, first in ((2, (1, 1)), (Fraction(5, 2), (Fraction(1), Fraction(3, 2)))):
            game = Game(f, {1: 1, 2: Fraction(1, 2), 3: grand})
            got, calls = self.route(monkeypatch, game, NormalCollection((), f.n, kind="custom"))
            assert calls == [] and got.vertices[0] == first
            assert [type(c) for c in got.vertices[0]] == [type(c) for c in first]

    def test_collection_listed_out_of_order(self, monkeypatch):
        # the chain 1 < 12 given top first is still nested, and bounds the chain poset's core
        f = system(3, [], [1], [1, 2], [1, 2, 3])
        game = Game(f, {m: m.bit_count() ** 2 for m in f.masks() if m})
        top_first = NormalCollection((f.coalition([1, 2]), f.coalition([1])), f.n, kind="weber")
        got, calls = self.route(monkeypatch, game, top_first)
        assert calls == [] and got.vertices == ((1, 3, 5),)

    @pytest.mark.parametrize(
        "case",
        ["not_convex", "not_nested", "not_bounding", "not_closed", "height_below_n"],
    )
    def test_otherwise_dd_runs(self, monkeypatch, case):
        f = power_set(3)
        values = {m: m.bit_count() ** 2 for m in f.masks() if m}
        collection = NormalCollection((), f.n, kind="custom")
        if case == "not_convex":
            values[f.coalition([1, 2])] = 7
        elif case == "not_nested":
            collection = NormalCollection((f.coalition([1]), f.coalition([2])), f.n, kind="custom")
        elif case == "not_bounding":
            f = system(3, [], [1], [1, 2], [1, 2, 3])
            values = {m: m.bit_count() ** 2 for m in f.masks() if m}
        elif case == "not_closed":
            f = load_set_system(WEBER_GAP_10SET)
            values = {m: m.bit_count() ** 2 for m in f.masks() if m}
            collection = NormalCollection((f.coalition([1]),), f.n, kind="custom")
        else:
            f = system(3, [], [1, 2], [3], [1, 2, 3])
            values = {m: m.bit_count() ** 2 for m in f.masks() if m}
        game = Game(f, values)
        _, calls = self.route(monkeypatch, game, collection)
        assert calls == [(build_restricted_core(game, collection),)]

    def test_two_set_split_gives_dd_empty_result(self, monkeypatch):
        # the union of the chains ∅ ⊂ 1 ⊂ 12 ⊂ 123 and ∅ ⊂ 3 ⊂ 23 ⊂ 123 with
        # v(1) = 2, v(23) = 0 and v(N) = 1: x1 + x(23) >= 2 > 1 = x(N)
        f = system(3, [], [1], [3], [1, 2], [2, 3], [1, 2, 3])
        game = Game(f, {0b001: 2, 0b100: 2, 0b011: 0, 0b110: 0, 0b111: 1})
        empty = NormalCollection((), f.n, kind="custom")
        got, calls = self.route(monkeypatch, game, empty)
        assert calls == [] and got == VRepresentation(3, (), (), (), empty=True)
        assert core_weber._empty_core_split(game, empty) == (0, 0b111, 0b001)

    def test_split_below_a_frozen_set(self, monkeypatch):
        # (1, 1, 0) is in the plain core, but freezing 12 fixes x(12) = 0,
        # which {1} ∪ {2}, worth 1 + 1, breaks
        f = power_set(3)
        game = Game(f, {0b001: 1, 0b010: 1, 0b100: 0, 0b011: 0, 0b101: 0, 0b110: 0, 0b111: 2})
        plain = NormalCollection((), f.n, kind="custom")
        assert core_weber._empty_core_split(game, plain) is None
        assert dd_generators(build_restricted_core(game, plain)).vertices
        frozen = NormalCollection((0b011,), f.n, kind="custom")
        got, calls = self.route(monkeypatch, game, frozen)
        assert got.empty and calls == []
        assert core_weber._empty_core_split(game, frozen) == (0, 0b011, 0b001)

    def test_split_above_a_frozen_set(self, monkeypatch):
        # on {∅, 1, 2, 3, N} with v(i) = 1 and v(N) = 2 only the three
        # singletons empty the core, so DD runs; freezing 1 fixes
        # x(23) = 2 - 1, which {2} ∪ {3}, worth 1 + 1, breaks
        f = system(3, [], [1], [2], [3], [1, 2, 3])
        game = Game(f, {0b001: 1, 0b010: 1, 0b100: 1, 0b111: 2})
        plain = NormalCollection((), f.n, kind="custom")
        assert core_weber._empty_core_split(game, plain) is None
        assert dd_generators(build_restricted_core(game, plain)).empty
        frozen = NormalCollection((0b001,), f.n, kind="custom")
        got, calls = self.route(monkeypatch, game, frozen)
        assert got.empty and calls == []
        assert core_weber._empty_core_split(game, frozen) == (0b001, 0b111, 0b010)

    def test_halves_need_dd(self, monkeypatch):
        # every worth 1 on {∅, 12, 13, 23, N}: empty only by the weights ½,
        # which two sets cannot give, so DD runs and finds it empty
        f = system(3, [], [1, 2], [1, 3], [2, 3], [1, 2, 3])
        game = Game(f, {m: 1 for m in f.masks() if m})
        empty = NormalCollection((), f.n, kind="custom")
        assert core_weber._empty_core_split(game, empty) is None
        got, calls = self.route(monkeypatch, game, empty)
        assert got.empty and calls == [(build_restricted_core(game, empty),)]

    def test_degenerate_game_lists_no_chain(self, monkeypatch):
        # v(S) = |S| on the 8-player power set: 40,320 maximal chains, one core
        # vertex; the walk keeps one payoff per set and lists no chain
        f = power_set(8)
        game = Game(f, {m: m.bit_count() for m in f.masks()})
        walks = call_log(monkeypatch, "maximal_chains", setsystem, cli)
        got, calls = self.route(monkeypatch, game, NormalCollection((), f.n, kind="custom"))
        assert got.vertices == ((1,) * 8,) and calls == walks == []

    def test_open_system_builds_no_closure(self, monkeypatch):
        # the 16 singletons' closure is the power set; DD on their core is a simplex
        calls = call_log(monkeypatch, "unions", setsystem)
        f = SetSystem.from_masks(16, [0, (1 << 16) - 1] + [1 << i for i in range(16)])
        game = Game(f, {m: 0 for m in f.masks() if m} | {f.universe.full_mask: 1})
        empty = NormalCollection((), f.n, kind="custom")
        got = _restricted_core_generators(game, empty, build_restricted_core(game, empty))
        assert len(got.vertices) == 16 and calls == []

    def test_infeasible_frozen_set_takes_no_route(self):
        f = system(3, [], [1], [1, 2], [1, 2, 3])
        assert not core_weber._weber_premises(f, NormalCollection((f.coalition([2]),), f.n, kind="custom"))
