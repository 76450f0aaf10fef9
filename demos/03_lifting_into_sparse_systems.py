"""Normal sets computed on the closure need not be feasible: lift them back.

The regular 8-set system below has the single unbounded direction
(0,0,1,-1).  Its closure is a 12-set distributive system generated by the
single precedence 3 < 4, and the optimal equality set there is {3} - which
the original system does not contain.  The lift picks the smallest feasible
superset that still removes the same direction, reporting the tie it broke.
"""

from boundedcore import (
    algo1_irredundant,
    closure,
    coalition_text,
    extract_poset,
    grabisch_xie_collection,
    lift_collection_detailed,
    load_set_system,
    rays_general,
    validate_normal,
)

system = load_set_system({
    "n": 4,
    "sets": [[], [1], [2], [1, 3], [2, 3], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4]],
})
cone = rays_general(system)
print("unbounded directions:", [list(v) for v in cone.extremal_rays])

closed = closure(system)
poset = extract_poset(closed)
print("closure:", [coalition_text(c, closed.n) for c in closed.masks()])
print("generating order:", poset.covers())

irredundant = algo1_irredundant(poset)
print("\noptimal equality set on the closure:", [coalition_text(c, system.n) for c in irredundant])
print("feasible in the original system?", all(c in system for c in irredundant))

outcome = lift_collection_detailed(system, irredundant)
for original, chosen, alternatives in outcome.replacements:
    print(f"lift: {coalition_text(original, system.n)} -> {coalition_text(chosen, system.n)} "
          f"(equally small alternatives: {[coalition_text(a, system.n) for a in alternatives] or 'none'})")
print("lifted collection bounds the core:", validate_normal(system, outcome.collection))

# the level collection is also infeasible here, and larger
gx = grabisch_xie_collection(poset)
print("\nlevel collection:", [coalition_text(c, system.n) for c in gx],
      "| feasible:", all(c in system for c in gx))
