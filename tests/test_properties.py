"""Randomized oracle-equivalence and structural property suites (seed-fixed)."""

import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boundedcore import (
    Game,
    NormalCollection,
    SetSystem,
    ValidationError,
    algo1_irredundant,
    build_recession_cone,
    build_restricted_core,
    classify,
    closure,
    dd_generators,
    downsets,
    extract_poset,
    grabisch_xie_collection,
    is_convex,
    level_partition,
    lift_collection_detailed,
    marginal_vector,
    maximal_chains,
    rays_distributive,
    rays_general,
    rays_regular,
    restricted_weber,
    validate_normal,
    verify_inclusion,
    weber_collection,
    wuc_ray_equality_condition,
)
from boundedcore.cli import main
from boundedcore.core_weber import marginal_hull, weber_chains
from boundedcore.vectors import indicator, is_transfer, weight

from helpers import (
    FractionGame,
    bonus_power_game,
    hull_membership,
    inclusion_games,
    mixed_games,
    one_point_hull,
    random_convex_game,
    random_game,
    random_poset,
    random_regular_system,
    reference_equals_closure_cone,
    reference_fraction_generators,
    reference_fraction_inclusion,
    reference_rays_regular,
    reference_verify_inclusion,
)


def test_downset_cone_rays_match_oracle():
    rng = random.Random(1001)
    for _ in range(120):
        poset = random_poset(rng, rng.randint(2, 6))
        f = downsets(poset)
        gens = dd_generators(build_recession_cone(f))
        assert gens.lineality == ()
        assert set(rays_distributive(poset)) == set(gens.extremal_rays)


def test_collection_sizes_and_validity():
    rng = random.Random(1002)
    for _ in range(120):
        poset = random_poset(rng, rng.randint(2, 6))
        f = downsets(poset)
        irr = algo1_irredundant(poset)
        assert len(irr) == poset.height()
        weber = weber_collection(irr)
        gx = grabisch_xie_collection(poset)
        assert weber.is_nested() and gx.is_nested()
        assert len(weber) == len(gx) == poset.height()
        for w, g in zip(weber, gx):
            assert w <= g, "each nested set must sit inside its level counterpart"
        for collection in (irr, weber, gx):
            for c in collection:
                assert c.mask in f, "normal sets must be feasible downsets"
            assert validate_normal(f, collection)


def test_every_ray_killed_by_each_collection():
    rng = random.Random(1003)
    for _ in range(40):
        poset = random_poset(rng, rng.randint(2, 6))
        rays = rays_distributive(poset)
        for collection in (
            algo1_irredundant(poset),
            weber_collection(algo1_irredundant(poset)),
            grabisch_xie_collection(poset),
        ):
            for ray in rays:
                assert any(weight(ray, c.mask) > 0 for c in collection)


def _pointed_cone_system(rng) -> SetSystem:
    """A downset lattice, a regular system or a separating system, n = 2-5."""
    n = rng.randint(2, 5)
    kind = rng.randrange(3)
    if kind == 0:
        return downsets(random_poset(rng, n))
    if kind == 1:
        return random_regular_system(rng, n)
    full = (1 << n) - 1
    while True:
        masks = {0, full} | {rng.randint(1, full - 1) for _ in range(rng.randint(n, 2 * n))}
        if len({tuple(m >> i & 1 for m in masks) for i in range(n)}) == n:
            return SetSystem.from_masks(n, masks)


def test_kill_predicate_matches_oracle():
    # the face rule, set by set: freezing a feasible S leaves exactly the
    # extremal rays r with r(S) = 0, wider-support rays such as (1,1,-1,-1)
    # included
    rng = random.Random(1004)
    checked = wider = 0
    while checked < 60:
        f = _pointed_cone_system(rng)
        gens = dd_generators(build_recession_cone(f))
        if gens.lineality or not gens.extremal_rays:
            continue
        wider += not all(map(is_transfer, gens.extremal_rays))
        for s in f.sets:
            if s.mask in (0, f.universe.full_mask):
                continue
            frozen = dd_generators(build_recession_cone(f, zero_sets=[s]))
            assert frozen.lineality == ()
            assert set(frozen.extremal_rays) == {r for r in gens.extremal_rays if weight(r, s.mask) == 0}
        checked += 1
    assert wider > 0, "the sampler should exercise wider-support cones too"


def test_regular_transfer_rays_are_the_pair_form_extremals():
    # the J_i covering pairs are the chain-rank walk's output and exactly the
    # transfer-shaped extremal rays; cones of regular systems may own further
    # wider-support extremal rays
    rng = random.Random(1005)
    incomplete = 0
    for _ in range(300):
        f = random_regular_system(rng, rng.randint(2, 5))
        gens = dd_generators(build_recession_cone(f))
        assert gens.lineality == (), "regular systems pin every payoff along a chain"
        oracle = set(gens.extremal_rays)
        rays = rays_regular(f)
        assert rays == reference_rays_regular(f)
        transfers = set(rays)
        assert transfers == {v for v in oracle if is_transfer(v)}
        if transfers != oracle:
            incomplete += 1
    assert incomplete > 0, "the sampler should exercise wider-support cones too"


def test_cone_equals_closure_cone_iff_all_rays_are_transfers():
    rng = random.Random(1006)
    seen_true = seen_false = deficient_lines = 0
    for _ in range(250):
        n = rng.randint(2, 5)
        full = (1 << n) - 1
        masks = {0, full} | {rng.randrange(1, full) for _ in range(rng.randint(0, 6))}
        f = SetSystem.from_masks(n, masks)
        report = rays_general(f)
        assert report.equals_closure_cone == reference_equals_closure_cone(f), f.to_document()
        if classify(f).closure_height != n:
            deficient_lines += bool(report.lineality)
            continue
        assert report.equals_closure_cone == report.all_pair_form
        seen_true += report.all_pair_form
        seen_false += not report.all_pair_form
    assert seen_true and seen_false, "both outcomes must be exercised"
    assert deficient_lines, "closures of height < n must be sampled, and they carry lines"


def test_wuc_sufficient_condition_implies_equal_cones():
    rng = random.Random(1007)
    hits = 0
    for _ in range(400):
        n = rng.randint(2, 5)
        full = (1 << n) - 1
        masks = {0, full} | {rng.randrange(1, full) for _ in range(rng.randint(0, 5))}
        f = SetSystem.from_masks(n, masks)
        if not classify(f).is_weakly_union_closed:
            continue
        if wuc_ray_equality_condition(f):
            assert rays_general(f).equals_closure_cone
            hits += 1
    assert hits >= 10


def test_marginal_vectors_coincide_with_game_on_their_chain():
    rng = random.Random(1008)
    for _ in range(40):
        poset = random_poset(rng, rng.randint(2, 5))
        f = downsets(poset)
        game = random_game(rng, f)
        collection = weber_collection(algo1_irredundant(poset))
        for chain in maximal_chains(f, collection):
            payoff = marginal_vector(game, chain)
            for step in chain:
                assert sum(payoff[p - 1] for p in step.members) == game.value(step)


def test_restricted_core_inside_restricted_weber():
    rng = random.Random(1009)
    for _ in range(60):
        poset = random_poset(rng, rng.randint(2, 5))
        f = downsets(poset)
        game = random_game(rng, f)
        collection = weber_collection(algo1_irredundant(poset))
        weber = restricted_weber(game, collection)
        core = dd_generators(build_restricted_core(game, collection))
        assert not core.extremal_rays and not core.lineality
        for vertex in core.vertices:
            assert hull_membership(vertex, weber)
        assert verify_inclusion(game, collection).holds


def test_convex_games_have_core_equal_to_weber():
    rng = random.Random(1010)
    for _ in range(40):
        poset = random_poset(rng, rng.randint(2, 5))
        f = downsets(poset)
        game = random_convex_game(rng, f)
        assert is_convex(game)
        collection = weber_collection(algo1_irredundant(poset))
        weber = restricted_weber(game, collection)
        core = dd_generators(build_restricted_core(game, collection))
        assert set(core.vertices) == set(weber.vertices)
        assert not core.extremal_rays and not core.lineality


def test_verify_inclusion_matches_the_simplex_on_every_vertex():
    rng = random.Random(1013)
    compared = inside_but_not_marginal = vertex_witnesses = 0
    for k in range(165):
        kind = k % 3
        n = rng.randint(3, 5) if kind == 2 else rng.randint(2, 4)
        if kind == 2:
            f = random_regular_system(rng, n)
            while len(closure(f)) == len(f):
                f = random_regular_system(rng, n)
        else:
            f = downsets(random_poset(rng, n))
        game = random_convex_game(rng, f)
        if kind:
            # lowering some worths keeps the core nonempty but breaks convexity
            values = {c.mask: game.value(c) for c in f if c.mask}
            for c in rng.sample(sorted(values)[:-1], min(3, len(values) - 1)):
                values[c] -= rng.randint(0, 4)
            game = Game(f, values)
        poset = extract_poset(closure(f))
        weber = weber_collection(algo1_irredundant(poset))
        cone = dd_generators(build_recession_cone(f))
        lifted = lift_collection_detailed(f, weber, rays_distributive(poset), cone).collection
        for collection in (NormalCollection((), kind="custom"), lifted):
            try:
                want = reference_verify_inclusion(game, collection)
            except ValidationError:
                continue
            got = verify_inclusion(game, collection)
            assert (got.holds, got.witness) == (want.holds, want.witness), (f.to_document(), collection)
            compared += 1
            core = dd_generators(build_restricted_core(game, collection)).vertices
            if got.holds:
                inside_but_not_marginal += any(v not in got.weber.vertices for v in core)
            vertex_witnesses += got.witness in core
    # the sample reaches the simplex, accepts through it, and fails on a core vertex
    assert compared >= 300
    assert inside_but_not_marginal >= 10
    assert vertex_witnesses >= 10



@settings(max_examples=150, deadline=None)
@given(inclusion_games())
@example(one_point_hull())
@example((bonus_power_game(4, 6, denominator=2), NormalCollection((), kind="custom")))
def test_facet_route_matches_the_simplex_reference(drawn):
    game, collection = drawn
    try:
        want = reference_verify_inclusion(game, collection)
    except ValidationError as refusal:
        with pytest.raises(type(refusal)):
            verify_inclusion(game, collection)
        return
    got = verify_inclusion(game, collection)
    assert got == want, (game.to_document(), collection)


def test_lifted_collections_always_bound_and_log_overruns():
    rng = random.Random(1011)
    overruns = []
    for _ in range(120):
        f = random_regular_system(rng, rng.randint(2, 5))
        closed = closure(f)
        poset = extract_poset(closed)
        irr = algo1_irredundant(poset)
        cone = dd_generators(build_recession_cone(f))
        outcome = lift_collection_detailed(f, irr, rays_distributive(poset), cone)
        assert validate_normal(f, outcome.collection)
        if len(outcome.collection) > poset.height():
            overruns.append((f.to_document(), [str(c) for c in outcome.collection]))
    # open question tracker: lifted collections larger than the height bound
    if overruns:
        print(f"\nlift needed more than height-many sets on {len(overruns)} instances:")
        for doc, sets in overruns[:3]:
            print("  ", doc, "->", sets)


def test_level_partition_concatenates_to_universe():
    rng = random.Random(1012)
    for _ in range(60):
        poset = random_poset(rng, rng.randint(1, 7))
        levels = level_partition(poset)
        union = 0
        for level in levels:
            assert union & level.mask == 0
            union |= level.mask
        assert union == poset.universe.full_mask
        assert len(levels) == poset.height() + 1


# small values repeat often, so equal magnitudes of opposite sign are common
_ENTRIES = st.one_of(
    st.sampled_from([Fraction(q) for q in (0, 0, 1, -1, 2, -2, "1/2", "-1/2", 3)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_ENTRIES, max_size=6))
@example([Fraction(0)] * 3)
@example([Fraction(2), Fraction(-2), Fraction(0)])
@example([Fraction(1), Fraction(1), Fraction(-1), Fraction(-1)])
@example([Fraction(3), Fraction(-1)])
@example([Fraction(1, 2), Fraction(-1, 2), 0])
@example([0, -1, 1])
@example([2, 0, -2])
@example([1, 1, -2])
def test_is_transfer_is_two_opposite_equal_entries(v):
    nonzero = [c for c in v if c]
    expected = len(nonzero) == 2 and nonzero[0] == -nonzero[1]
    assert is_transfer(tuple(v)) is expected


def _exact(vectors) -> bool:
    return all(type(c) in (int, Fraction) for v in vectors for c in v)


def _floats(report) -> list:
    if isinstance(report, dict):
        return [x for value in report.values() for x in _floats(value)]
    if isinstance(report, list):
        return [x for value in report for x in _floats(value)]
    return [report] if isinstance(report, float) else []


@settings(max_examples=100, deadline=None)
@given(mixed_games())
def test_mixed_games_match_a_fraction_only_reference(drawn):
    f, worths, collection = drawn
    game = Game(f, worths)
    reference = FractionGame(f, worths)
    for c in f:
        worth = game.value(c)
        assert worth == reference.value(c)
        assert type(worth) is (int if reference.value(c).denominator == 1 else Fraction), (c, worth)
    chains = weber_chains(f, collection)
    hull = marginal_hull(game, chains)
    assert hull == marginal_hull(reference, chains)
    core = dd_generators(build_restricted_core(game, collection))
    assert core == reference_fraction_generators(build_restricted_core(reference, collection))
    verdict = verify_inclusion(game, collection)
    assert verdict == reference_fraction_inclusion(reference, collection)
    assert _exact(hull.vertices + core.vertices + core.extremal_rays + core.lineality)
    assert verdict.witness is None or _exact([verdict.witness])
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "game.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(game.to_document(), handle)
        for verb in ("core", "weber", "verify-inclusion"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([verb, "--game", path])
            assert code in (0, 1), (verb, err.getvalue())
            if code == 0:
                assert _floats(json.loads(out.getvalue())) == [], verb


def test_indicator_rows_match_the_bit_walk():
    def bit_walk(mask, n):
        return tuple(mask >> i & 1 for i in range(n))

    for n in range(1, 11):
        for mask in range(1 << n):
            assert indicator(mask, n) == bit_walk(mask, n)
    rng = random.Random(1017)
    for _ in range(2000):
        mask = rng.getrandbits(16)
        row = indicator(mask, 16)
        assert row == bit_walk(mask, 16) and all(type(c) is int for c in row)
