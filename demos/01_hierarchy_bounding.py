"""Bounding the core of a game on a 9-player hierarchy.

The feasible coalitions are the downsets of a precedence order: a player can
join only after everyone below them.  The core of such a game is unbounded;
this walk-through finds its unbounded directions and the three collections of
payoff-freezing equalities that bound it.
"""

from boundedcore import (
    algo1_irredundant,
    build_recession_cone,
    coalition_text,
    dd_generators,
    downsets,
    grabisch_xie_collection,
    level_partition,
    load_poset,
    rays_distributive,
    validate_normal,
    weber_collection,
)

poset = load_poset({
    "n": 9,
    "relations": [[1, 4], [1, 5], [1, 9], [2, 7], [3, 6], [4, 7], [5, 7], [6, 7], [6, 8]],
})

print("covering relations:", poset.covers())
print("levels:", [coalition_text(level, poset.n) for level in level_partition(poset)])

# each covering pair i -> j yields the direction "pay i, charge j", the vector
# +1 at i and -1 at j: no feasible coalition objects, because every downset
# holding j holds i
rays = rays_distributive(poset)
print("\nunbounded directions:")
for r in rays:
    print("  ", r)

# the oracle agrees: exact double description on the 76-set system
system = downsets(poset)
gens = dd_generators(build_recession_cone(system))
assert set(rays) == set(gens.extremal_rays)
print(f"oracle confirms all {len(gens.extremal_rays)} rays on {len(system)} feasible sets")

# three ways to choose the payoff-freezing equalities
irredundant = algo1_irredundant(poset)
weber = weber_collection(irredundant)
levels = grabisch_xie_collection(poset)
print("\nirredundant collection:", [coalition_text(c, poset.n) for c in irredundant])
print("nested hull (weber):   ", [coalition_text(c, poset.n) for c in weber])
print("level collection (gx): ", [coalition_text(c, poset.n) for c in levels])

for name, collection in [("irredundant", irredundant), ("weber", weber), ("gx", levels)]:
    assert validate_normal(system, collection)
    print(f"freezing the {name} collection bounds the core: confirmed by the oracle")
