"""Why the exact oracle is load-bearing: a 7-set regular system whose cone
has an unbounded direction that no two-player transfer can express.

The regular-system shortcut enumerates the transfer-form extremal rays of a
regular system: they are the covering pairs of the order J_i ⊆ J_j on the
smallest feasible sets J_i = ∩{S ∈ F : i ∈ S}.  It is tempting to believe
those are all of them; the system below is the smallest refutation.  Its
cone has the extremal ray (1,1,-1,-1), reachable by no combination of
transfers, and the cone of its union/intersection closure is strictly
smaller.  The greedy repair in the lift still bounds the core, because it
walks the system's own cone generators instead of trusting the shortcut.
"""

from boundedcore import (
    NormalCollection,
    algo1_irredundant,
    build_recession_cone,
    classify,
    closure,
    coalition_text,
    dd_generators,
    extract_poset,
    lift_collection_detailed,
    load_set_system,
    rays_regular,
    validate_normal,
)

system = load_set_system({
    "n": 4,
    "sets": [[], [1], [2], [1, 3], [2, 3], [1, 2, 3], [1, 2, 3, 4]],
})
print("regular:", classify(system).is_regular)

transfers = rays_regular(system)
print("transfer-form rays:", [list(r) for r in transfers])

gens = dd_generators(build_recession_cone(system))
print("all extremal rays: ", [list(v) for v in gens.extremal_rays])
missing = set(gens.extremal_rays) - set(transfers)
print("missed by the shortcut:", [list(v) for v in missing])

closed = closure(system)
closed_gens = dd_generators(build_recession_cone(closed))
print("\nclosure cone rays:", [list(v) for v in closed_gens.extremal_rays])
print("cone equals closure cone?",
      set(gens.extremal_rays) == set(closed_gens.extremal_rays))

# bounding still works: the lift repairs against the true cone's generators
poset = extract_poset(closed)
outcome = lift_collection_detailed(system, algo1_irredundant(poset))
print("\nbounding collection:", [coalition_text(c, system.n) for c in outcome.collection])
print("oracle confirms boundedness:", validate_normal(system, outcome.collection))

# freezing a set that removes only the transfers is not enough
partial = NormalCollection((system.coalition([1, 3]),), system.n, kind="custom")
print("freezing just 13 bounds the core?", validate_normal(system, partial))
