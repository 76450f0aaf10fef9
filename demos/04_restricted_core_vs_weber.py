"""A restricted core that escapes its restricted Weber set.

On distributive systems the restricted core always sits inside the convex
hull of the restricted marginal vectors.  On merely regular systems it can
escape: here the Weber set collapses to the single point (1,0,0,1,1), while
the restricted core has a second vertex (1,1,0,0,1).
"""

from boundedcore import (
    Game,
    NormalCollection,
    build_restricted_core,
    coalition_text,
    dd_generators,
    marginal_vector,
    maximal_chains,
    restricted_weber,
    verify_inclusion,
)

game = Game.from_document({
    "system": {
        "n": 5,
        "sets": [[], [1], [2], [1, 4], [2, 4], [1, 2, 4], [2, 3, 4],
                 [1, 2, 3, 4], [2, 3, 4, 5], [1, 2, 3, 4, 5]],
    },
    "values": {
        "1": "0", "2": "0", "1,4": "1", "2,4": "1", "1,2,4": "2",
        "2,3,4": "1", "1,2,3,4": "2", "2,3,4,5": "2", "1,2,3,4,5": "3",
    },
})
system = game.system


def show(chain):
    'a chain of coalition masks, each written as messages name it'
    return " < ".join(coalition_text(c, system.n) for c in chain)


chains = maximal_chains(system)
print("maximal chains:")
for chain in chains:
    print(" ", show(chain))

collection = NormalCollection(
    (system.coalition([2, 4]), system.coalition([2, 3, 4])), system.n, kind="weber"
)
print("\nchains through the frozen sets, with their marginal vectors:")
for chain in chains:
    if all(c in chain for c in collection):
        print(" ", show(chain), "->", list(marginal_vector(game, chain)))

weber = restricted_weber(game, collection)
print("restricted Weber set:", [list(v) for v in weber.vertices])

core = dd_generators(build_restricted_core(game, collection))
print("restricted core vertices:", [list(v) for v in core.vertices])

verdict = verify_inclusion(game, collection)
print("\ncore inside Weber set?", verdict.holds)
print("witness outside the hull:", list(verdict.witness))
