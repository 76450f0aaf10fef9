import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundedcore import (
    DimensionMismatch,
    HPolyhedron,
    NormalCollection,
    VRepresentation,
    build_recession_cone,
    build_restricted_core,
    dd_generators,
    load_set_system,
    validate_normal,
)
from boundedcore.polyhedra import _row_echelon, _Sweep

from helpers import (
    LINE_CONE_5SET,
    REGULAR_LIFT_8SET,
    WEBER_GAP_GAME,
    assert_generators_extremal,
    assert_generators_satisfy,
    from_rows,
    hull_membership,
    is_origin_only,
    random_convex_game,
    random_game,
    random_regular_system,
    reference_dd_generators,
    reference_row_echelon,
)


def F(x):
    return Fraction(x)


def ivec(v):
    return tuple(int(c) for c in v)


class TestDDGenerators:
    def test_unit_square(self):
        # hand-checkable textbook case
        poly = from_rows(2, [([1, 0], 0), ([0, 1], 0), ([-1, 0], -1), ([0, -1], -1)])
        gens = dd_generators(poly)
        assert [ivec(v) for v in gens.vertices] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert gens.extremal_rays == () and gens.lineality == ()

    def test_pointed_at_origin(self):
        poly = from_rows(
            3, [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0)], [([1, 1, 1], 0)]
        )
        gens = dd_generators(poly)
        assert is_origin_only(gens)

    def test_cone_with_a_line(self):
        cone = build_recession_cone(load_set_system(LINE_CONE_5SET))
        gens = dd_generators(cone)
        assert [ivec(l) for l in gens.lineality] == [(1, -1, 1, -1)]
        assert [ivec(r) for r in gens.extremal_rays] == [(0, 0, 1, -1)]

    def test_simplex_polytope(self):
        poly = from_rows(
            3,
            [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0)],
            [([1, 1, 1], 1)],
        )
        gens = dd_generators(poly)
        assert [ivec(v) for v in gens.vertices] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_empty_polyhedron_signalled(self):
        poly = from_rows(2, [([1, 0], 1), ([-1, 0], 0)])
        gens = dd_generators(poly)
        assert gens.empty
        assert gens.vertices == () and gens.extremal_rays == () and gens.lineality == ()

    def test_halfplane(self):
        poly = from_rows(2, [([1, 0], 0)])
        gens = dd_generators(poly)
        assert [ivec(l) for l in gens.lineality] == [(0, 1)]
        assert [ivec(r) for r in gens.extremal_rays] == [(1, 0)]

    def test_unbounded_polyhedron_splits_vertex_and_ray(self):
        # x >= 1 on the line
        poly = from_rows(1, [([1], 1)])
        gens = dd_generators(poly)
        assert [ivec(v) for v in gens.vertices] == [(1,)]
        assert [ivec(r) for r in gens.extremal_rays] == [(1,)]

    def test_row_scaling_invariance(self):
        base = from_rows(
            3, [([1, 1, 0], 0), ([0, 1, 1], 0), ([2, 0, 1], 0)], [([1, 1, 1], 0)]
        )
        scaled = from_rows(
            3,
            [([F(1) / 2, F(1) / 2, 0], 0), ([0, 7, 7], 0), ([F(2) / 3, 0, F(1) / 3], 0)],
            [([5, 5, 5], 0)],
        )
        a, b = dd_generators(base), dd_generators(scaled)
        assert a == b

    def test_determinism(self):
        cone = build_recession_cone(load_set_system(REGULAR_LIFT_8SET))
        assert dd_generators(cone) == dd_generators(cone)


class TestRoundTrip:
    @pytest.mark.parametrize("doc", [LINE_CONE_5SET, REGULAR_LIFT_8SET])
    def test_cone_faithful_and_extremal(self, doc):
        cone = build_recession_cone(load_set_system(doc))
        gens = dd_generators(cone)
        assert_generators_satisfy(cone, gens)
        assert_generators_extremal(gens)

    def test_polytope_faithful_and_extremal(self):
        from boundedcore import Game, NormalCollection, build_restricted_core

        game = Game.from_document(WEBER_GAP_GAME)
        sys_ = game.system
        collection = NormalCollection(
            (sys_.coalition([2, 4]), sys_.coalition([2, 3, 4])), kind="weber"
        )
        core = build_restricted_core(game, collection)
        gens = dd_generators(core)
        assert_generators_satisfy(core, gens)
        assert_generators_extremal(gens)


class TestIsBounded:
    """Boundedness verdicts, asked of ``validate_normal`` on the frozen recession cone."""

    NOTHING = NormalCollection((), kind="custom")

    def test_classical_core_is_bounded(self):
        import itertools

        sets = [list(s) for r in range(4) for s in itertools.combinations([1, 2, 3], r)]
        assert validate_normal(load_set_system({"n": 3, "sets": sets}), self.NOTHING)

    def test_regular_lift_cone_unbounded(self):
        system = load_set_system(REGULAR_LIFT_8SET)
        assert not validate_normal(system, self.NOTHING)
        gens = dd_generators(build_recession_cone(system))
        assert [ivec(r) for r in gens.extremal_rays] == [(0, 0, 1, -1)]

    def test_restricted_weber_gap_core_bounded(self):
        from boundedcore import Game

        game = Game.from_document(WEBER_GAP_GAME)
        collection = NormalCollection(
            (game.system.coalition([2, 4]), game.system.coalition([2, 3, 4])), kind="weber"
        )
        assert validate_normal(game.system, collection)


class TestHullMembership:
    def setup_method(self):
        poly = from_rows(2, [([1, 0], 0), ([0, 1], 0), ([-1, 0], -1), ([0, -1], -1)])
        self.square = dd_generators(poly)

    def test_vertex_is_inside(self):
        for v in self.square.vertices:
            assert hull_membership(v, self.square)

    def test_midpoint_is_inside(self):
        assert hull_membership([F(1) / 2, F(1) / 2], self.square)

    def test_outside_point(self):
        assert not hull_membership([2, 0], self.square)

    def test_single_point_hull(self):
        gens = VRepresentation(5, (tuple(F(c) for c in (1, 0, 0, 1, 1)),), (), ())
        assert not hull_membership([1, 1, 0, 0, 1], gens)
        assert hull_membership([1, 0, 0, 1, 1], gens)

    def test_lineality_reachability(self):
        gens = VRepresentation(2, ((F(0), F(0)),), (), ((F(1), F(-1)),))
        assert hull_membership([5, -5], gens)
        assert hull_membership([-7, 7], gens)
        assert not hull_membership([1, 1], gens)

    def test_ray_scaling(self):
        gens = VRepresentation(2, ((F(0), F(0)),), ((F(1), F(0)),), ())
        assert hull_membership([1000, 0], gens)
        assert not hull_membership([-1, 0], gens)

    def test_int_generators_stay_exact(self):
        # DD's int rays enter the simplex as they are; float division on an int
        # pivot would round these entries and accept the point
        big = 10**17
        rays = ((-1, big + 3), (big + 3, big + 2))
        point = (2 * big + 6, 2 * big + 3)
        gens = VRepresentation(2, ((0, 0),), rays, ())
        assert not hull_membership(point, gens)
        assert hull_membership((2 * big + 5, 3 * big + 7), gens)  # rays[0] + 2 * rays[1]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hull_membership([1, 2, 3], self.square)

    def test_empty_hull_contains_nothing(self):
        gens = VRepresentation(2, (), (), (), empty=True)
        assert not hull_membership([0, 0], gens)


@st.composite
def random_cones(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    row = st.tuples(*[st.integers(min_value=-2, max_value=2) for _ in range(n)])
    ineqs = draw(st.lists(row, min_size=0, max_size=6))
    eqs = draw(st.lists(row, min_size=0, max_size=2))
    return from_rows(n, [(list(r), 0) for r in ineqs], [(list(r), 0) for r in eqs])


@settings(max_examples=120, deadline=None)
@given(random_cones())
def test_random_cone_roundtrip(poly):
    gens = dd_generators(poly)
    assert_generators_satisfy(poly, gens)
    if len(gens.extremal_rays) + len(gens.vertices) <= 10:
        assert_generators_extremal(gens)


def _int_tuples(vectors) -> bool:
    return all(type(v) is tuple and all(type(c) is int for c in v) for v in vectors)


@settings(max_examples=120, deadline=None)
@given(random_cones())
def test_cone_generators_are_primitive_int_tuples(poly):
    # the same cone with int rows, as a set system's recession cone has them
    as_ints = HPolyhedron(
        poly.dim,
        tuple((ivec(a), 0) for a, _ in poly.inequalities),
        tuple((ivec(a), 0) for a, _ in poly.equalities),
    )
    gens, int_gens = dd_generators(poly), dd_generators(as_ints)
    assert gens == int_gens == reference_dd_generators(poly)
    for g in (gens, int_gens):
        assert _int_tuples(g.vertices + g.extremal_rays + g.lineality)
        assert g.vertices == ((0,) * poly.dim,)
        assert all(gcd(*v) == 1 for v in g.extremal_rays + g.lineality)


@settings(max_examples=100, deadline=None)
@given(random_cones(), st.integers(min_value=0, max_value=10_000))
def test_scaling_any_row_keeps_generators(poly, seed):
    import random

    rng = random.Random(seed)
    scaled_ineq = []
    for a, _ in poly.inequalities:
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled_ineq.append((tuple(c * scale for c in a), F(0)))
    scaled = HPolyhedron(poly.dim, tuple(scaled_ineq), poly.equalities)
    assert dd_generators(scaled) == dd_generators(poly)


def _rref(rows, dim):
    """Reduced row-echelon form over the rationals: (rows, pivot columns)."""
    basis, pivots = [], []
    for row in rows:
        row = [Fraction(c) for c in row]
        for b, p in zip(basis, pivots):
            if row[p]:
                row = [c - row[p] * d for c, d in zip(row, b)]
        pivot = next((j for j in range(dim) if row[j]), None)
        if pivot is None:
            continue
        row = [c / row[pivot] for c in row]
        for i, b in enumerate(basis):
            if b[pivot]:
                basis[i] = [c - b[pivot] * d for c, d in zip(b, row)]
        basis.append(row)
        pivots.append(pivot)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [basis[i] for i in order], [pivots[i] for i in order]


def _null_space(rows, dim):
    basis, pivots = _rref(rows, dim)
    out = []
    for free in (j for j in range(dim) if j not in pivots):
        v = [Fraction(0)] * dim
        v[free] = Fraction(1)
        for b, p in zip(basis, pivots):
            v[p] = -b[free]
        out.append(v)
    return out


def _primitive_int(v):
    scale = 1
    for c in v:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [int(c * scale) for c in v]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return tuple(c // g for c in ints)


def brute_force_generators(dim, eqs, ineqs):
    """Lineality and extremal rays of ``{x : eqs·x = 0, ineqs·x >= 0}`` by
    solving the tight system of every subset of inequality rows, in the
    canonical form ``dd_generators`` promises."""
    lin_rows, pivots = _rref(_null_space(eqs + ineqs, dim), dim)
    lineality = [_primitive_int(r) for r in lin_rows]
    rays = set()
    for size in range(len(ineqs) + 1):
        for tight in combinations(ineqs, size):
            space = _null_space(eqs + list(tight), dim)
            if len(space) != len(lineality) + 1:
                continue
            # the one basis vector outside the lineality, taken modulo it
            for v in space:
                for b, p in zip(lin_rows, pivots):
                    v = [c - v[p] * d for c, d in zip(v, b)]
                if any(v):
                    break
            values = [sum(a * c for a, c in zip(row, v)) for row in ineqs]
            for sign in (1, -1):
                if all(sign * x >= 0 for x in values):
                    rays.add(_primitive_int([sign * c for c in v]))
    return lineality, sorted(rays)


def _random_cone_rows(rng):
    dim = rng.randint(1, 4)
    row = lambda: tuple(rng.randint(-2, 2) for _ in range(dim))
    eqs = [row() for _ in range(rng.randint(0, 1))]
    ineqs = [row() for _ in range(rng.randint(0, 6))]
    return dim, eqs, ineqs


def test_dd_finds_every_generator_of_random_cones():
    rng = random.Random(4001)
    with_lineality = 0
    for _ in range(1500):
        dim, eqs, ineqs = _random_cone_rows(rng)
        poly = from_rows(dim, [(r, 0) for r in ineqs], [(r, 0) for r in eqs])
        gens = dd_generators(poly)
        lineality, rays = brute_force_generators(dim, eqs, ineqs)
        assert [ivec(l) for l in gens.lineality] == lineality, (dim, eqs, ineqs)
        assert [ivec(r) for r in gens.extremal_rays] == rays, (dim, eqs, ineqs)
        with_lineality += bool(lineality)
    # the sample exercises both pointed cones and cones with lines
    assert 200 < with_lineality < 1300


def test_dd_matches_the_unfiltered_sweep_on_game_cores():
    # homogenized cores have up to 2^n rows, far more than the completeness test's cones;
    # each equality is two rows of the sweep, which leaves every tight set a spare row, so
    # only the copy without equalities tests the prefilter's bound at its edge
    rng = random.Random(4003)
    generators = 0
    kinds = set()
    for _ in range(150):
        f = random_regular_system(rng, rng.randint(2, 5))
        game = random_convex_game(rng, f) if rng.random() < 0.5 else random_game(rng, f)
        inner = [c for c in f if c.mask not in (0, f.universe.full_mask)]
        frozen = rng.sample(inner, rng.randint(0, min(2, len(inner))))
        core = build_restricted_core(game, NormalCollection(tuple(frozen), kind="custom"))
        for poly in (core, HPolyhedron(core.dim, core.inequalities)):
            gens = dd_generators(poly)
            assert gens == reference_dd_generators(poly), (f.to_document(), frozen, poly)
            # directions stay integer; a vertex is an int tuple exactly when it is
            # integral (a pure cone's origin included), a tuple of Fractions otherwise
            assert _int_tuples(gens.extremal_rays + gens.lineality)
            for v in gens.vertices:
                integral = all(c.denominator == 1 for c in v)
                kinds.add(integral)
                if integral:
                    assert _int_tuples([v]), v
                else:
                    assert all(type(c) is Fraction for c in v), v
            generators += len(gens.vertices) + len(gens.extremal_rays)
    assert generators > 500
    assert kinds == {True, False}


def test_sweep_tight_masks_match_dot_products():
    rng = random.Random(4002)
    for _ in range(400):
        dim, eqs, ineqs = _random_cone_rows(rng)
        rows = [a for e in eqs for a in (e, tuple(-c for c in e))] + ineqs
        sweep = _Sweep(dim)
        processed = []
        for a in rows:
            if not any(a):
                continue
            sweep.add_halfspace(a)
            processed.append(a)
            assert sweep.row_count == len(processed)
            for r, mask in zip(sweep.rays, sweep.tight):
                recomputed = sum(
                    1 << k for k, row in enumerate(processed) if sum(x * y for x, y in zip(row, r)) == 0
                )
                assert mask == recomputed, (dim, rows, r)
            for l in sweep.lin:
                assert all(sum(x * y for x, y in zip(row, l)) == 0 for row in processed)


@st.composite
def int_row_sets(draw):
    """Up to seven integer rows of one dimension, some of them combinations of the others."""
    dim = draw(st.integers(min_value=1, max_value=7))
    entry = st.integers(min_value=-4, max_value=4)
    rows = draw(st.lists(st.tuples(*[entry] * dim), max_size=5))
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if rows else 0):
        coefficients = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        combined = tuple(sum(k * r[j] for k, r in zip(coefficients, rows)) for j in range(dim))
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), combined)
    return rows


@settings(max_examples=400, deadline=None)
@given(int_row_sets())
def test_row_echelon_matches_the_fraction_elimination(rows):
    basis = _row_echelon(rows)
    assert basis == reference_row_echelon(rows)
    assert all(type(c) is int for b in basis for c in b)
