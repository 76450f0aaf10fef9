"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Criterion 7 checks what the chain-rank shortcut for regular
set systems promises: it returns exactly the transfer-form extremal rays, and
the cone equals its closure's cone exactly when those are all the rays.  It
also certifies the refutation of the stronger claim that the shortcut always
returns every ray: each sampled counterexample, and the smallest one,
``TRANSFER_GAP_7SET``, is pinned with the closure cone's exclusion of the
missed ray.
"""

import itertools
import operator
import random
import time
from fractions import Fraction

from boundedcore import (
    Game,
    NormalCollection,
    SetSystem,
    algo1_irredundant,
    build_recession_cone,
    build_restricted_core,
    classify,
    closure,
    coalition_text,
    dd_generators,
    downsets,
    extract_poset,
    grabisch_xie_collection,
    lift_collection_detailed,
    load_poset,
    load_set_system,
    maximal_chains,
    members,
    rays_distributive,
    rays_general,
    rays_regular,
    restricted_weber,
    validate_normal,
    verify_inclusion,
    weber_collection,
    wuc_ray_equality_condition,
)
from boundedcore.vectors import is_transfer

from helpers import (
    HIERARCHY_9_RELS,
    LINE_CONE_5SET,
    REGULAR_LIFT_8SET,
    TRANSFER_GAP_7SET,
    WEBER_GAP_10SET,
    WEBER_GAP_GAME,
    WUC_GAP_6SET,
    admits_direction,
    assert_generators_extremal,
    assert_generators_satisfy,
    contains_point,
    hull_membership,
    random_convex_game,
    random_game,
    random_poset,
    random_regular_system,
)


def report(number, ok, detail):
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'} — {detail}")


def ivecs(vectors):
    return {tuple(int(c) for c in v) for v in vectors}


def names(sets, n=None):
    'each set as messages name it; a collection gives its own n'
    return [coalition_text(m, sets.n if n is None else n) for m in sets]


def test_criterion_1_nine_player_hierarchy():
    started = time.perf_counter()
    poset = load_poset({"n": 9, "relations": HIERARCHY_9_RELS})
    rays = {(r.index(1) + 1, r.index(-1) + 1) for r in rays_distributive(poset)}
    assert rays == {(1, 9), (1, 4), (1, 5), (3, 6), (4, 7), (5, 7), (2, 7), (6, 7), (6, 8)}
    irr = algo1_irredundant(poset)
    assert names(irr) == ["123", "13456"]
    assert names(weber_collection(irr)) == ["123", "123456"]
    assert names(grabisch_xie_collection(poset)) == ["123", "1234569"]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, True, f"nine-player hierarchy reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_closure_and_line_cone():
    f = load_set_system(LINE_CONE_5SET)
    closed = closure(f)
    assert [list(members(m)) for m in closed.masks()] == [
        [], [2], [3], [1, 2], [2, 3], [3, 4], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4],
    ]
    rep = rays_general(f)
    assert ivecs(rep.lineality) == {(1, -1, 1, -1)}
    assert ivecs(rep.extremal_rays) == {(0, 0, 1, -1)}
    assert rep.equals_closure_cone is False
    closure_rep = rays_general(closed)
    assert ivecs(closure_rep.extremal_rays) == {(-1, 1, 0, 0), (0, 0, 1, -1)}
    assert closure_rep.lineality == ()
    report(2, True, "closure and line-carrying cone exact")


def test_criterion_3_regular_lift():
    f = load_set_system(REGULAR_LIFT_8SET)
    assert classify(f).is_regular
    gens = dd_generators(build_recession_cone(f))
    assert ivecs(gens.extremal_rays) == {(0, 0, 1, -1)} and gens.lineality == ()
    poset = extract_poset(closure(f))
    irr = algo1_irredundant(poset)
    assert names(irr) == ["3"]
    outcome = lift_collection_detailed(f, irr)
    assert names(outcome.collection) == ["13"]
    original, chosen, alternatives = outcome.replacements[0]
    assert names((original, chosen), f.n) == ["3", "13"]
    assert names(alternatives, f.n) == ["23"]
    gx = grabisch_xie_collection(poset)
    assert names(gx) == ["123"]
    assert gx.sets[0] not in f
    report(3, True, "regular system lift with canonical tie-break exact")


def test_criterion_4_chain_rank_enumeration():
    f = load_set_system(WEBER_GAP_10SET)
    rays = rays_regular(f)
    assert ivecs(rays) == {
        (0, 0, -1, 1, 0), (0, 1, -1, 0, 0), (0, 0, 1, 0, -1),
    }
    gens = dd_generators(build_recession_cone(f))
    assert set(rays) == set(gens.extremal_rays)
    assert gens.lineality == ()
    report(4, True, "chain-rank rays equal the oracle on the 10-set system")


def test_criterion_5_weber_gap_game():
    game = Game.from_document(WEBER_GAP_GAME)
    system = game.system
    collection = NormalCollection(
        (system.coalition([2, 4]), system.coalition([2, 3, 4])), system.n, kind="weber"
    )
    weber = restricted_weber(game, collection)
    assert [tuple(int(c) for c in v) for v in weber.vertices] == [(1, 0, 0, 1, 1)]
    verdict = verify_inclusion(game, collection)
    assert verdict.holds is False and verdict.witness is not None
    core = build_restricted_core(game, collection)
    assert len(core.inequalities) + len(core.equalities) == 9
    assert contains_point(core, verdict.witness)
    assert contains_point(core, [1, 1, 0, 0, 1])
    assert not hull_membership(verdict.witness, weber)
    report(5, True, "restricted Weber singleton and inclusion failure exact")


def test_criterion_6_wuc_counterexample():
    f = load_set_system(WUC_GAP_6SET)
    rep = rays_general(f)
    assert ivecs(rep.extremal_rays) == {(0, 0, 1, -1), (1, 0, 0, -1), (1, -1, 1, -1)}
    assert rep.lineality == ()
    closure_rep = rays_general(closure(f))
    assert ivecs(closure_rep.extremal_rays) == {(0, 0, 1, -1), (1, 0, 0, -1)}
    assert rep.equals_closure_cone is False
    assert wuc_ray_equality_condition(f) is False
    report(6, True, "weakly-union-closed counterexample exact")


def small_regular_systems():
    """Every regular system with n <= 3, or with at most 6 sets.

    A regular system on n players has a maximal chain of n + 1 sets, so at
    most 6 sets means n <= 5, and at n = 5 the system is one full chain.
    """
    for n in range(1, 5):
        full = (1 << n) - 1
        proper = range(1, full)
        most = len(proper) if n <= 3 else 4
        for k in range(most + 1):
            for extra in itertools.combinations(proper, k):
                f = SetSystem.from_masks(n, {0, full, *extra})
                if classify(f).is_regular:
                    yield f
    for order in itertools.permutations(range(5)):
        steps = (1 << p for p in order)
        yield SetSystem.from_masks(5, itertools.accumulate(steps, operator.or_, initial=0))


def test_criterion_7_randomized_structure_suite():
    started = time.perf_counter()
    rng = random.Random(7001)
    for _ in range(200):
        poset = random_poset(rng, rng.randint(2, 6))
        f = downsets(poset)
        gens = dd_generators(build_recession_cone(f))
        assert gens.lineality == ()
        assert set(rays_distributive(poset)) == set(gens.extremal_rays)
        irr = algo1_irredundant(poset)
        assert len(irr) == poset.height()
        for collection in (irr, weber_collection(irr), grabisch_xie_collection(poset)):
            assert validate_normal(f, collection)

    complete = refuted = 0
    for _ in range(200):
        f = random_regular_system(rng, rng.randint(2, 5))
        doc = f.to_document()
        gens = dd_generators(build_recession_cone(f))
        assert gens.lineality == (), doc
        oracle = set(gens.extremal_rays)
        transfers = set(rays_regular(f))
        assert transfers == {v for v in oracle if is_transfer(v)}, doc
        assert rays_general(f).equals_closure_cone == (transfers == oracle), doc
        # certificate: a missed ray is a wider-support extremal ray of the
        # cone that the closure cone excludes, so the cones really differ
        closure_cone = build_recession_cone(closure(f))
        for ray in oracle - transfers:
            assert sum(c != 0 for c in ray) >= 3, (doc, ray)
            assert not admits_direction(closure_cone, ray), (doc, ray)
        complete += transfers == oracle
        refuted += transfers != oracle
    assert complete and refuted, "the sampler must reach both outcomes"

    # the smallest counterexample: no regular system with fewer sets, and
    # none with fewer players, has a ray that the shortcut misses
    small = list(small_regular_systems())
    assert len(small) == 212  # 1 + 3 + 28 for n <= 3, 24 + 36 for n = 4, 5! for n = 5
    for f in small:
        gens = dd_generators(build_recession_cone(f))
        assert gens.lineality == (), f.to_document()
        assert set(rays_regular(f)) == set(gens.extremal_rays), f.to_document()
    gap = load_set_system(TRANSFER_GAP_7SET)
    assert classify(gap).is_regular
    gap_rays = ivecs(dd_generators(build_recession_cone(gap)).extremal_rays)
    assert gap_rays == {(1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1), (1, 1, -1, -1)}
    assert set(rays_regular(gap)) == gap_rays - {(1, 1, -1, -1)}
    assert not admits_direction(build_recession_cone(closure(gap)), (1, 1, -1, -1))
    assert rays_general(gap).equals_closure_cone is False

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        7,
        True,
        "poset half clean (200/200); chain-rank = transfer rays on 200/200; "
        f"completeness claim refuted on {refuted}/200, each certified; complete on all "
        f"{len(small)} regular systems with n <= 3 or at most 6 sets; "
        f"7-set counterexample pinned; {elapsed:.1f}s",
    )


def test_criterion_8_randomized_game_suite():
    rng = random.Random(8001)
    for _ in range(100):
        poset = random_poset(rng, rng.randint(2, 5))
        f = downsets(poset)
        game = random_game(rng, f)
        collection = weber_collection(algo1_irredundant(poset))
        weber = restricted_weber(game, collection)
        core = dd_generators(build_restricted_core(game, collection))
        assert not core.extremal_rays and not core.lineality
        for vertex in core.vertices:
            assert hull_membership(vertex, weber)
    for _ in range(50):
        poset = random_poset(rng, rng.randint(2, 5))
        f = downsets(poset)
        game = random_convex_game(rng, f)
        collection = weber_collection(algo1_irredundant(poset))
        weber = restricted_weber(game, collection)
        core = dd_generators(build_restricted_core(game, collection))
        assert set(core.vertices) == set(weber.vertices)
    report(8, True, "100 random games inside Weber hull; 50 convex games coincide")


def test_criterion_9_oracle_self_test():
    polyhedra = []
    for doc in (LINE_CONE_5SET, REGULAR_LIFT_8SET, WEBER_GAP_10SET, WUC_GAP_6SET):
        f = load_set_system(doc)
        polyhedra.append(build_recession_cone(f))
        polyhedra.append(build_recession_cone(closure(f)))
    nine = downsets(load_poset({"n": 9, "relations": HIERARCHY_9_RELS}))
    polyhedra.append(build_recession_cone(nine))
    game = Game.from_document(WEBER_GAP_GAME)
    collection = NormalCollection(
        (game.system.coalition([2, 4]), game.system.coalition([2, 3, 4])), 5, kind="weber"
    )
    polyhedra.append(build_restricted_core(game, collection))
    rng = random.Random(9001)
    for _ in range(30):
        poset = random_poset(rng, rng.randint(2, 5))
        f = downsets(poset)
        polyhedra.append(build_recession_cone(f))
        polyhedra.append(build_restricted_core(random_game(rng, f), NormalCollection((), f.n, kind="custom")))

    checked = loo = 0
    for poly in polyhedra:
        gens = dd_generators(poly)
        if gens.empty:
            continue
        assert_generators_satisfy(poly, gens)
        checked += 1
        if len(gens.vertices) + len(gens.extremal_rays) <= 10:
            assert_generators_extremal(gens)
            loo += 1
    assert checked >= 40 and loo >= 20
    report(9, True, f"round trip on {checked} polyhedra, leave-one-out on {loo}")
