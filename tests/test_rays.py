import pytest

from boundedcore import (
    NotRegular,
    NotWeaklyUnionClosed,
    PlayerPoset,
    build_recession_cone,
    closure,
    dd_generators,
    downsets,
    load_poset,
    load_set_system,
    rays_distributive,
    rays_general,
    rays_regular,
    wuc_ray_equality_condition,
)

from helpers import (
    HIERARCHY_9_RELS,
    LINE_CONE_5SET,
    REGULAR_LIFT_8SET,
    TRANSFER_GAP_7SET,
    WEBER_GAP_10SET,
    WUC_GAP_6SET,
    reference_rays_regular,
    system,
)


def pairs(rays):
    """(receiving player, paying player) of each transfer."""
    return {(r.index(1) + 1, r.index(-1) + 1) for r in rays}


def ivecs(vectors):
    return {tuple(int(c) for c in v) for v in vectors}


class TestRaysDistributive:
    def test_hierarchy_9(self):
        p = load_poset({"n": 9, "relations": HIERARCHY_9_RELS})
        assert pairs(rays_distributive(p)) == {
            (1, 9), (1, 4), (1, 5), (3, 6), (4, 7), (5, 7), (2, 7), (6, 7), (6, 8),
        }

    def test_transfer_vector(self):
        # 2 below 4: the ray is +1 at the lower player and -1 at the upper one
        assert rays_distributive(PlayerPoset.from_relations(4, [[2, 4]])) == [(0, 1, 0, -1)]

    def test_antichain_has_no_rays(self):
        assert rays_distributive(PlayerPoset.from_relations(3, [])) == []

    def test_chain_rays_match_oracle(self):
        # independent oracle: double description on the prefix system
        p = PlayerPoset.from_relations(3, [[1, 2], [2, 3]])
        assert pairs(rays_distributive(p)) == {(1, 2), (2, 3)}
        gens = dd_generators(build_recession_cone(downsets(p)))
        assert ivecs(gens.extremal_rays) == {(1, -1, 0), (0, 1, -1)}

    def test_matches_oracle_on_hierarchy_9(self):
        p = load_poset({"n": 9, "relations": HIERARCHY_9_RELS})
        gens = dd_generators(build_recession_cone(downsets(p)))
        vectors = rays_distributive(p)
        assert set(vectors) == set(gens.extremal_rays)
        # transfers and oracle rays alike are plain int tuples
        assert all(type(c) is int for v in vectors + list(gens.extremal_rays) for c in v)
        assert gens.lineality == ()


class TestRaysRegular:
    def test_weber_gap_system(self):
        f = load_set_system(WEBER_GAP_10SET)
        rays = rays_regular(f)
        assert ivecs(rays) == {
            (0, 0, -1, 1, 0), (0, 1, -1, 0, 0), (0, 0, 1, 0, -1),
        }
        gens = dd_generators(build_recession_cone(f))
        assert set(rays) == set(gens.extremal_rays)

    def test_power_set_has_none(self):
        import itertools

        sets = [list(s) for r in range(4) for s in itertools.combinations([1, 2, 3], r)]
        assert rays_regular(load_set_system({"n": 3, "sets": sets})) == []

    def test_regular_lift_system(self):
        f = load_set_system(REGULAR_LIFT_8SET)
        assert rays_regular(f) == [(0, 0, 1, -1)]

    def test_rejects_non_regular(self):
        with pytest.raises(NotRegular):
            rays_regular(load_set_system(LINE_CONE_5SET))

    def test_independent_of_seed_chain(self):
        # replay the chain-rank walk with every maximal chain as the reference
        # order: the candidate set is the full dominance relation either way,
        # so each replay gives the J_i covering pairs
        from boundedcore import maximal_chains

        f = load_set_system(WEBER_GAP_10SET)
        baseline = rays_regular(f)
        for seed in range(len(maximal_chains(f))):
            assert reference_rays_regular(f, seed) == baseline

    def test_transfer_gap_system_is_incomplete_but_exact_on_pairs(self):
        # smallest regular system whose cone has a wider-support extremal ray
        f = load_set_system(TRANSFER_GAP_7SET)
        rays = set(rays_regular(f))
        gens = dd_generators(build_recession_cone(f))
        oracle = set(gens.extremal_rays)
        assert rays < oracle
        assert (1, 1, -1, -1) in ivecs(oracle)
        from boundedcore.vectors import is_transfer

        assert rays == {v for v in oracle if is_transfer(v)}


class TestRaysGeneral:
    def test_line_cone_system(self):
        rep = rays_general(load_set_system(LINE_CONE_5SET))
        assert ivecs(rep.lineality) == {(1, -1, 1, -1)}
        assert ivecs(rep.extremal_rays) == {(0, 0, 1, -1)}
        assert not rep.all_pair_form
        assert not rep.equals_closure_cone

    def test_line_cone_closure(self):
        rep = rays_general(closure(load_set_system(LINE_CONE_5SET)))
        assert ivecs(rep.extremal_rays) == {(-1, 1, 0, 0), (0, 0, 1, -1)}
        assert rep.all_pair_form and rep.equals_closure_cone

    def test_wuc_gap_system(self):
        rep = rays_general(load_set_system(WUC_GAP_6SET))
        assert ivecs(rep.extremal_rays) == {(0, 0, 1, -1), (1, 0, 0, -1), (1, -1, 1, -1)}
        assert not rep.all_pair_form
        assert not rep.equals_closure_cone
        closure_rep = rays_general(closure(load_set_system(WUC_GAP_6SET)))
        assert ivecs(closure_rep.extremal_rays) == {(0, 0, 1, -1), (1, 0, 0, -1)}

    def test_closed_systems_equal_their_closure(self):
        f = closure(load_set_system(REGULAR_LIFT_8SET))
        rep = rays_general(f)
        assert rep.equals_closure_cone and rep.all_pair_form


class TestWucCondition:
    def test_gap_system_fails(self):
        assert wuc_ray_equality_condition(load_set_system(WUC_GAP_6SET)) is False

    def test_closed_system_vacuously_true(self):
        f = closure(load_set_system(WUC_GAP_6SET))
        assert wuc_ray_equality_condition(f) is True

    def test_rejects_non_wuc(self):
        with pytest.raises(NotWeaklyUnionClosed):
            wuc_ray_equality_condition(load_set_system(LINE_CONE_5SET))

    def test_disjoint_union_branch(self):
        # closure adds {1,2} = {1} ∪ {2} (disjoint) and nothing else
        f = system(2, [], [1], [2], [1, 2])
        assert wuc_ray_equality_condition(f)

    def test_condition_implies_equal_cones(self):
        for doc in (WUC_GAP_6SET, WEBER_GAP_10SET):
            f = load_set_system(doc)
            from boundedcore import classify

            if not classify(f).is_weakly_union_closed:
                continue
            if wuc_ray_equality_condition(f):
                assert rays_general(f).equals_closure_cone
