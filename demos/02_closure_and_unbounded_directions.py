"""A core that contains a whole line, and what closure does to it.

The 4-player system {∅, 12, 23, 34, 1234} is neither regular nor weakly
union-closed.  Its recession cone contains the line spanned by (1,-1,1,-1):
payoffs can be shifted back and forth between odd and even players without
any feasible coalition noticing.  Closing the system under union and
intersection changes the cone.
"""

from boundedcore import classify, closure, coalition_text, load_set_system, rays_general

system = load_set_system({"n": 4, "sets": [[], [1, 2], [2, 3], [3, 4], [1, 2, 3, 4]]})
report = classify(system)
print("regular:", report.is_regular, "| weakly union-closed:", report.is_weakly_union_closed)

rays = rays_general(system)
print("\nlineality basis:", [list(v) for v in rays.lineality])
print("extremal rays:  ", [list(v) for v in rays.extremal_rays])
print("every ray a two-player transfer?", rays.all_pair_form)

closed = closure(system)
print("\nclosure has", len(closed), "sets:", [coalition_text(c, closed.n) for c in closed.masks()])
closure_rays = rays_general(closed)
print("closure cone rays:", [list(v) for v in closure_rays.extremal_rays])
print("closure cone lineality:", closure_rays.lineality)

# the cones differ, exactly as the transfer-form criterion predicts
print("\ncone unchanged by closure?", rays.equals_closure_cone)
