import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundedcore import (
    CollectionNotNested,
    HeightDeficient,
    NoFeasibleLift,
    NormalCollection,
    PlayerPoset,
    SetNotFeasible,
    algo1_irredundant,
    build_recession_cone,
    closure,
    coalition_text,
    dd_generators,
    downsets,
    extract_poset,
    grabisch_xie_collection,
    lift_collection_detailed,
    load_poset,
    load_set_system,
    rays_distributive,
    validate_normal,
    weber_collection,
)
from boundedcore import normal
from boundedcore.vectors import weight

from helpers import (
    HIERARCHY_9_RELS,
    LINE_CONE_5SET,
    REGULAR_LIFT_8SET,
    WEBER_GAP_10SET,
    nonseparating_systems,
    poset_downsets,
    reference_lift,
    separating_systems,
    system,
)


def names(sets, n=None):
    'each set as messages name it; a collection gives its own n'
    return [coalition_text(m, sets.n if n is None else n) for m in sets]


def cone_of(f):
    return dd_generators(build_recession_cone(f))


@pytest.fixture
def hierarchy():
    return load_poset({"n": 9, "relations": HIERARCHY_9_RELS})


class TestAlgo1:
    def test_hierarchy_9(self, hierarchy):
        assert names(algo1_irredundant(hierarchy)) == ["123", "13456"]

    def test_antichain_is_already_bounded(self):
        assert len(algo1_irredundant(PlayerPoset.from_relations(4, []))) == 0

    def test_single_relation(self):
        p = PlayerPoset.from_relations(4, [[3, 4]])
        assert names(algo1_irredundant(p)) == ["3"]

    def test_emits_height_many_sets(self, hierarchy):
        assert len(algo1_irredundant(hierarchy)) == hierarchy.height() == 2

    def test_sets_are_downsets(self, hierarchy):
        f = downsets(hierarchy)
        for c in algo1_irredundant(hierarchy):
            assert c in f


class TestWeberCollection:
    def test_hierarchy_9(self, hierarchy):
        assert names(weber_collection(algo1_irredundant(hierarchy))) == ["123", "123456"]

    def test_single_set_unchanged(self):
        p = PlayerPoset.from_relations(4, [[3, 4]])
        assert names(weber_collection(algo1_irredundant(p))) == ["3"]

    def test_nested(self, hierarchy):
        assert weber_collection(algo1_irredundant(hierarchy)).is_nested()

    def test_requires_irredundant_input(self):
        with pytest.raises(ValueError):
            weber_collection(NormalCollection((), 3, kind="custom"))


class TestGrabischXie:
    def test_hierarchy_9(self, hierarchy):
        assert names(grabisch_xie_collection(hierarchy)) == ["123", "1234569"]

    def test_antichain_empty(self):
        assert len(grabisch_xie_collection(PlayerPoset.from_relations(3, []))) == 0

    def test_single_relation(self):
        p = PlayerPoset.from_relations(4, [[3, 4]])
        assert names(grabisch_xie_collection(p)) == ["123"]

    def test_sandwich_against_weber(self, hierarchy):
        weber = weber_collection(algo1_irredundant(hierarchy))
        gx = grabisch_xie_collection(hierarchy)
        assert len(weber) == len(gx)
        for w, g in zip(weber, gx):
            assert w & ~g == 0


class TestKills:
    """Freezing S kills (removes) the ray r exactly when r(S) > 0."""

    def test_receiver_inside_payer_outside(self, hierarchy):
        f = downsets(hierarchy)
        set_123 = f.coalition([1, 2, 3])
        assert weight((1, 0, 0, -1, 0, 0, 0, 0, 0), set_123) > 0

    def test_receiver_outside(self, hierarchy):
        f = downsets(hierarchy)
        assert weight((0, 0, 0, 1, 0, 0, -1, 0, 0), f.coalition([1, 2, 3])) == 0

    def test_oracle_agreement(self, hierarchy):
        # freezing 13456 must delete exactly the rays it kills, no others
        f = downsets(hierarchy)
        frozen = f.coalition([1, 3, 4, 5, 6])
        before = dd_generators(build_recession_cone(f))
        after = dd_generators(build_recession_cone(f, zero_sets=[frozen]))
        survivors = set(after.extremal_rays)
        for ray in rays_distributive(hierarchy):
            if weight(ray, frozen) > 0:
                assert ray not in survivors
            else:
                assert ray in survivors
        assert set(before.extremal_rays) > survivors


class TestValidate:
    def test_hierarchy_collections_bound_the_core(self, hierarchy):
        f = downsets(hierarchy)
        irr = algo1_irredundant(hierarchy)
        assert validate_normal(f, irr)
        assert validate_normal(f, weber_collection(irr))
        assert validate_normal(f, grabisch_xie_collection(hierarchy))

    def test_partial_collection_insufficient(self, hierarchy):
        f = downsets(hierarchy)
        partial = NormalCollection((f.coalition([1, 2, 3]),), f.n, kind="custom")
        assert not validate_normal(f, partial)
        survivors = dd_generators(
            build_recession_cone(f, zero_sets=partial.sets)
        ).extremal_rays
        assert (0, 0, 0, 1, 0, 0, -1, 0, 0) in set(survivors)

    def test_empty_collection_on_power_set(self):
        import itertools

        sets = [list(s) for r in range(4) for s in itertools.combinations([1, 2, 3], r)]
        f = load_set_system({"n": 3, "sets": sets})
        assert validate_normal(f, NormalCollection((), f.n, kind="custom"))

    def test_infeasible_member_rejected(self, hierarchy):
        f = downsets(hierarchy)
        bad = NormalCollection((f.coalition([2, 4]),), f.n, kind="custom")
        with pytest.raises(SetNotFeasible):
            validate_normal(f, bad)


class TestLift:
    def test_regular_lift_picks_canonical_superset(self):
        f = load_set_system(REGULAR_LIFT_8SET)
        poset = extract_poset(closure(f))
        outcome = lift_collection_detailed(f, algo1_irredundant(poset))
        assert names(outcome.collection) == ["13"]
        original, chosen, alternatives = outcome.replacements[0]
        assert names((original, chosen), f.n) == ["3", "13"]
        assert names(alternatives, f.n) == ["23"]
        assert outcome.extra_sets == ()
        assert validate_normal(f, outcome.collection)

    def test_feasible_collection_unchanged(self):
        f = load_set_system(WEBER_GAP_10SET)
        poset = extract_poset(closure(f))
        weber = weber_collection(algo1_irredundant(poset))
        outcome = lift_collection_detailed(f, weber)
        assert not outcome.changed
        assert outcome.collection is weber

    def test_repair_appends_when_replacements_fall_short(self):
        f = system(4, [], [1], [2], [1, 3], [2, 3], [1, 2, 3], [1, 2, 3, 4])
        poset = extract_poset(closure(f))
        # {1,3} kills only part of the directions, so the greedy repair kicks in
        starved = NormalCollection((f.coalition([1, 3]),), f.n, kind="custom")
        assert not validate_normal(f, starved)
        outcome = lift_collection_detailed(f, starved)
        # 13 misses (0,1,0,-1) and (1,1,-1,-1); the first of them picks 2, which kills both
        assert names(outcome.extra_sets, f.n) == ["2"]
        assert names(outcome.collection) == ["13", "2"]
        assert validate_normal(f, outcome.collection)

    def test_full_pipeline_on_wider_support_cone(self):
        # the cone here has an extremal ray the closure knows nothing about;
        # the lifted collection must still bound it (the validator says so)
        f = system(4, [], [1], [2], [1, 3], [2, 3], [1, 2, 3], [1, 2, 3, 4])
        poset = extract_poset(closure(f))
        irr = algo1_irredundant(poset)
        outcome = lift_collection_detailed(f, irr)
        assert validate_normal(f, outcome.collection)

    def test_infeasible_set_needs_a_generating_poset(self):
        # players 1 and 2 are glued: the closure has height 2 < 3 and no
        # generating poset, so an infeasible set has no transfers to keep
        f = system(3, [], [1, 2], [1, 2, 3])
        with pytest.raises(HeightDeficient):
            lift_collection_detailed(f, NormalCollection((f.coalition([1]),), f.n))
        # a feasible one reads no transfers: its cone's line (1,-1,0) has no killer
        with pytest.raises(NoFeasibleLift, match=r"direction \(1,-1,0\)$"):
            lift_collection_detailed(f, NormalCollection((f.coalition([1, 2]),), f.n))

    def test_nestedness_rule(self):
        with pytest.raises(CollectionNotNested):
            NormalCollection(
                (system(3, [], [1], [2], [1, 2, 3]).coalition([1]),
                 system(3, [], [1], [2], [1, 2, 3]).coalition([2])),
                3,
                kind="weber",
            )

    def test_nestedness_ignores_the_listed_order(self):
        f = system(3, [], [1], [1, 2], [1, 2, 3])
        top_first = NormalCollection((f.coalition([1, 2]), f.coalition([1])), f.n, kind="weber")
        assert top_first.is_nested() and top_first.unnested_pair() is None
        g = system(3, [], [1], [2], [1, 2, 3])
        apart = NormalCollection((g.coalition([2]), g.coalition([1])), g.n, kind="custom")
        assert not apart.is_nested()
        assert apart.unnested_pair() == (g.coalition([1]), g.coalition([2]))
        twice = NormalCollection((g.coalition([1]), g.coalition([1])), g.n, kind="custom")
        assert not twice.is_nested()

    def test_grand_coalition_never_a_member(self):
        f = system(2, [], [1], [1, 2])
        with pytest.raises(ValueError):
            NormalCollection((f.coalition([1, 2]),), f.n, kind="custom")

    @pytest.mark.parametrize("mask", [0b100, 1 << 20, -1, True, "1"])
    def test_sets_outside_the_players_refused(self, mask):
        with pytest.raises(ValueError, match=r"^normal sets must be masks of players 1\.\.2, got "):
            NormalCollection((0b01, mask), 2, kind="custom")

    def test_line_cone_has_no_feasible_lift(self):
        # (1,-1,1,-1) is a line of this cone: zero on every feasible set
        f = load_set_system(LINE_CONE_5SET)
        with pytest.raises(NoFeasibleLift) as caught:
            lift_collection_detailed(f, NormalCollection((), f.n))
        assert str(caught.value) == (
            "no feasible coalition can remove the unbounded direction (1,-1,1,-1)"
        )


_SYSTEMS = st.one_of(poset_downsets(), separating_systems(), nonseparating_systems())


@st.composite
def lift_cases(draw):
    """A system and a candidate collection: a named collection of the closure
    when the closure has a generating poset, otherwise random sets (feasible
    or not)."""
    f = draw(_SYSTEMS)
    n, full = f.n, f.universe.full_mask
    try:
        poset = extract_poset(closure(f))
    except HeightDeficient:
        poset = None
    if poset is not None and draw(st.booleans()):
        irr = algo1_irredundant(poset)
        named = [irr, weber_collection(irr), grabisch_xie_collection(poset)]
        return f, draw(st.sampled_from(named))
    if n == 1:
        return f, NormalCollection((), n)
    masks = draw(st.lists(st.integers(min_value=1, max_value=full - 1), unique=True, max_size=4))
    return f, NormalCollection(tuple(masks), n)


@st.composite
def feasible_candidates(draw):
    f = draw(_SYSTEMS)
    inner = [m for m in f.masks() if m not in (0, f.universe.full_mask)]
    picked = draw(st.lists(st.sampled_from(inner), unique=True, max_size=4)) if inner else []
    return f, NormalCollection(tuple(picked), f.n)


class TestFaceRule:
    """The lift walks the cone's generators once; an oracle run per repair step must agree."""

    @settings(max_examples=150, deadline=None)
    @given(lift_cases())
    def test_lift_matches_reference_lift(self, case):
        f, candidate = case
        cone = cone_of(f)
        try:
            rays = rays_distributive(extract_poset(closure(f)))
        except HeightDeficient:
            # the replacements keep the closure's transfers, which only a
            # generating poset gives; a feasible candidate never reads them
            if any(m not in f for m in candidate):
                with pytest.raises(HeightDeficient):
                    lift_collection_detailed(f, candidate)
                return
            rays = []
        try:
            expected = reference_lift(f, candidate, rays)
        except NoFeasibleLift as exc:
            with pytest.raises(NoFeasibleLift) as caught:
                lift_collection_detailed(f, candidate)
            assert str(caught.value) == str(exc)
            assert cone.lineality
            return
        assert lift_collection_detailed(f, candidate) == expected
        # the generators the lift walked are the oracle's, stored on the system
        assert normal._cone_generators(f) == cone.lineality + cone.extremal_rays
        # a pointed cone always has a killer: r(S) = 0 on all of F would put -r in the cone
        assert not cone.lineality

    @settings(max_examples=150, deadline=None)
    @given(feasible_candidates())
    def test_face_rule_matches_oracle(self, case):
        f, candidate = case
        cone = cone_of(f)
        bounded = validate_normal(f, candidate)
        try:
            outcome = lift_collection_detailed(f, candidate)
        except NoFeasibleLift:
            assert cone.lineality and not bounded
            return
        assert not cone.lineality
        assert (outcome.extra_sets == ()) == bounded
        assert validate_normal(f, outcome.collection)
