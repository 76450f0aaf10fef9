"""Seeded, capped input generators for the three benchmark workloads.

Each workload is a list of strata.  Entry ``j`` of a stratum is generated
from its own random stream (seeded by the string ``"<stratum>/<j>"``), so
the catalogue is fixed and needs no stored inputs: a run with ``--seed s``
draws a sample of catalogue entries per stratum and generates only those.
Every entry runs under each of its stratum's verbs, and the report each
query gives at the reference commit is stored by digest in
``reference.json``, which also lists the entries a run may draw.

Candidates are rejection-sampled against caps on the number of maximal
chains (counted by dynamic programming over the covering graph, never
enumerated), on the number of distinct marginal vectors for games and on the
closure size for downset samples, so that no single query dominates a run.
The mask systems and convex games also hold the quantity that sets their
cost (closure size, restricted vertex count) fixed, so that the queries of
one stratum do comparable work and a run's figures depend little on which
entries its seed draws.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable


def _bits(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _key(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


def _system_doc(n: int, masks) -> dict:
    return {"n": n, "sets": [_bits(m) for m in sorted(masks, key=_key)]}


def covers(masks) -> dict[int, list[int]]:
    """Covering relation of (F, ⊆): each set mapped to the sets covering it."""
    ordered = sorted(masks, key=_key)
    up: dict[int, list[int]] = {}
    for i, s in enumerate(ordered):
        above: list[int] = []
        for t in ordered[i + 1:]:
            if t != s and s & ~t == 0 and not any(u & ~t == 0 for u in above):
                above.append(t)
        up[s] = above
    return up


def chain_count(masks, n: int) -> int:
    """Number of maximal ∅→N chains, by dynamic programming over the covers."""
    up = covers(masks)
    ways = {m: 0 for m in up}
    ways[0] = 1
    for s in sorted(up, key=_key):
        for t in up[s]:
            ways[t] += ways[s]
    return ways[(1 << n) - 1]


def is_regular(masks) -> bool:
    return all((t & ~s).bit_count() == 1 for s, above in covers(masks).items() for t in above)


def is_closed(masks) -> bool:
    present = set(masks)
    return all(a | b in present and a & b in present for a in present for b in present)


def separates_players(masks, n: int) -> bool:
    """No two players lie in exactly the same sets, so the closure has height n."""
    profiles = {tuple(m >> i & 1 for m in masks) for i in range(n)}
    return len(profiles) == n


def random_poset(rng: random.Random, n: int, density: float) -> list[int]:
    """``below[i]``: mask of players ≤ player i+1, for a random partial order."""
    order = list(range(n))
    rng.shuffle(order)
    below = [1 << i for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                below[order[b]] |= below[order[a]]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = below[i]
            for j in _bits(below[i]):
                grown |= below[j - 1]
            if grown != below[i]:
                below[i] = grown
                changed = True
    return below


def downset_masks(below: list[int]) -> list[int]:
    n = len(below)
    return [m for m in range(1 << n) if all(below[i] & ~m == 0 for i in range(n) if m >> i & 1)]


def closure_size(masks, n: int) -> int:
    """Size of the union/intersection closure of a system holding ∅ and N.

    The closure is the family of downsets of the quasi-order in which i sits
    below j when every set holding j also holds i (Birkhoff).
    """
    below = []
    for i in range(n):
        smallest = (1 << n) - 1
        for m in masks:
            if m >> i & 1:
                smallest &= m
        below.append(smallest)
    return len(downset_masks(below))


def _poset_doc(below: list[int]) -> dict:
    n = len(below)
    less = {(j, i + 1) for i in range(n) for j in _bits(below[i] & ~(1 << i))}
    covering = [
        [i, j]
        for i, j in sorted(less)
        if not any((i, k) in less and (k, j) in less for k in range(1, n + 1))
    ]
    return {"n": n, "relations": covering}


def weber_sets(below: list[int]) -> list[int]:
    """The nested normal collection that ``--collection weber`` freezes on a
    downset lattice: cumulative unions of the irredundant sets."""
    n = len(below)

    def minimal(subset: int) -> int:
        return sum(1 << i for i in range(n) if subset >> i & 1 and below[i] & subset == 1 << i)

    def maximal(subset: int) -> int:
        return sum(
            1 << i for i in range(n)
            if subset >> i & 1 and not any(j != i and below[j] >> i & 1 for j in range(n) if subset >> j & 1)
        )

    remaining = (1 << n) - 1
    sets, acc = [], 0
    while True:
        remaining &= ~(minimal(remaining) & maximal(remaining))
        if not remaining:
            return sets
        lowest = minimal(remaining)
        for i in range(n):
            if lowest >> i & 1:
                acc |= below[i]
        sets.append(acc)
        remaining &= ~lowest


def marginal_vector_count(masks, n: int, value: dict[int, int], through=()) -> int:
    """Distinct marginal vectors of the maximal chains passing through every
    set of ``through`` (call only under the chain cap)."""
    up = covers(masks)
    full = (1 << n) - 1
    out = set()
    stack = [(0, ())]
    while stack:
        s, pay = stack.pop()
        if s == full:
            vec = [0] * n
            for player, inc in pay:
                vec[player] = inc
            out.add(tuple(vec))
            continue
        for t in up[s]:
            if any(s & ~r == 0 and t & ~r for r in through if s != r):
                continue  # the chain would step past a required set without entering it
            player = (t & ~s).bit_length() - 1
            stack.append((t, pay + ((player, value[t] - value[s]),)))
    return len(out)


def _game_doc(n: int, masks, value: dict[int, int]) -> dict:
    return {
        "system": _system_doc(n, masks),
        "values": {",".join(map(str, _bits(m))): str(value[m]) for m in masks if m},
    }


# --- candidate generators: each returns (document kind, document) or None ---


def mask_system(rng: random.Random, n: int):
    """3n random sets whose closure is the whole power set."""
    full = (1 << n) - 1
    masks = {0, full}
    while len(masks) < 3 * n:
        masks.add(rng.randrange(1, full))
    if closure_size(masks, n) != 1 << n or chain_count(masks, n) > STRUCTURE_CHAIN_CAP:
        return None
    return "system", _system_doc(n, masks)


def downset_sample(rng: random.Random, n: int):
    """3n downsets of a random poset whose closure is a small sublattice."""
    lattice = downset_masks(random_poset(rng, n, density=rng.uniform(0.2, 0.4)))
    full = (1 << n) - 1
    inner = [m for m in lattice if m not in (0, full)]
    if len(inner) < 3 * n - 2:
        return None
    masks = {0, full, *rng.sample(inner, 3 * n - 2)}
    if closure_size(masks, n) > DOWNSET_CLOSURE_CAP or chain_count(masks, n) > STRUCTURE_CHAIN_CAP:
        return None
    return "system", _system_doc(n, masks)


def poset_lattice(rng: random.Random, n: int):
    """Downset lattice of a random poset, given as the poset."""
    below = random_poset(rng, n, density=rng.uniform(0.25, 0.5))
    if chain_count(downset_masks(below), n) > UNBOUNDED_CHAIN_CAP:
        return None
    return "poset", _poset_doc(below)


def sparse_system(rng: random.Random, n: int):
    """2n random sets that separate the players and are not closed."""
    full = (1 << n) - 1
    masks = {0, full}
    while len(masks) < 2 * n:
        masks.add(rng.randrange(1, full))
    if is_closed(masks) or not separates_players(masks, n):
        return None
    if chain_count(masks, n) > UNBOUNDED_CHAIN_CAP:
        return None
    return "system", _system_doc(n, masks)


def convex_game(rng: random.Random, n: int):
    """Supermodular game on the downset lattice of a random poset.

    Inclusion holds, so ``verify-inclusion`` runs one simplex per core
    vertex, and the vertices are the restricted marginal vectors.  Their
    count is held at the cap, so every convex query does comparable work.
    """
    below = random_poset(rng, n, density=rng.uniform(0.05, 0.5))
    masks = downset_masks(below)
    if chain_count(masks, n) > INCLUSION_CHAIN_CAP:
        return None
    base = [rng.randint(-10, 10) for _ in range(n)]
    synergy = {(i, j): rng.randint(0, 10) for i in range(n) for j in range(i + 1, n)}
    value = {
        m: sum(base[i] for i in range(n) if m >> i & 1)
        + sum(w for (i, j), w in synergy.items() if m >> i & 1 and m >> j & 1)
        for m in masks
    }
    if marginal_vector_count(masks, n, value, through=weber_sets(below)) != MARGINAL_VECTOR_CAP:
        return None
    return "game", _game_doc(n, masks, value)


def prefix_union_game(rng: random.Random, n: int):
    """Random game on a regular, non-closed union of three maximal chains."""
    full = (1 << n) - 1
    masks = {0, full}
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        mask = 0
        for p in perm:
            mask |= 1 << p
            masks.add(mask)
    if is_closed(masks) or not is_regular(masks):
        return None
    if chain_count(masks, n) > INCLUSION_CHAIN_CAP:
        return None
    value = {m: rng.randint(-2, 4) if m else 0 for m in masks}
    if marginal_vector_count(masks, n, value) > MARGINAL_VECTOR_CAP:
        return None
    return "game", _game_doc(n, masks, value)


STRUCTURE_CHAIN_CAP = 150
DOWNSET_CLOSURE_CAP = 128
UNBOUNDED_CHAIN_CAP = 3000
INCLUSION_CHAIN_CAP = 120
MARGINAL_VECTOR_CAP = 24


@dataclass(frozen=True)
class Stratum:
    """Inputs of one kind, each asked every verb in turn."""

    name: str
    generate: Callable[[random.Random, int], tuple[str, dict] | None]
    sizes: tuple[int, ...]
    verbs: tuple[str, ...]
    options: tuple[str, ...] = ()


STRUCTURE_VERBS = ("classify", "closure", "chains")
UNBOUNDED_VERBS = ("rays", "normal")
INCLUSION_VERBS = ("verify-inclusion", "core", "weber")
WEBER = ("--collection", "weber")

# A run takes one entry of each stratum per round.  Strata whose cost grows
# steeply with n get one stratum per player count, so that each size keeps
# its share of the run; the cheap downset samples share one stratum, which
# keeps the median latency inside the mask-8 cluster instead of in the gap
# between fast and slow queries.
WORKLOADS: dict[str, tuple[Stratum, ...]] = {
    "structure": (
        Stratum("mask-8", mask_system, (8,), STRUCTURE_VERBS),
        Stratum("mask-9", mask_system, (9,), STRUCTURE_VERBS),
        Stratum("downset", downset_sample, (10, 11, 12), STRUCTURE_VERBS),
    ),
    "unbounded": tuple(
        [Stratum(f"lattice-{n}", poset_lattice, (n,), UNBOUNDED_VERBS) for n in (8, 9, 10)]
        + [Stratum(f"sparse-{n}", sparse_system, (n,), UNBOUNDED_VERBS) for n in (6, 7)]
    ),
    "inclusion": tuple(
        [Stratum(f"convex-{n}", convex_game, (n,), INCLUSION_VERBS, WEBER) for n in (5, 6)]
        + [Stratum(f"prefix-{n}", prefix_union_game, (n,), INCLUSION_VERBS, WEBER) for n in (5, 6)]
    ),
}

CATALOGUE_SIZE = 120
MAX_ATTEMPTS = 10_000


def catalogue_entry(stratum: Stratum, index: int) -> tuple[str, dict]:
    """Entry ``index`` of a stratum: the first candidate its stream accepts."""
    rng = random.Random(f"{stratum.name}/{index}")
    for _ in range(MAX_ATTEMPTS):
        made = stratum.generate(rng, rng.choice(stratum.sizes))
        if made is not None:
            return made
    raise RuntimeError(f"{stratum.name}/{index}: no candidate within the caps")


@dataclass(frozen=True)
class Query:
    id: str
    argv: tuple[str, ...]


def write_queries(
    workload: str, entries: dict[str, list[int]], directory: str
) -> dict[str, list[list[Query]]]:
    """Generate the chosen catalogue entries and write their documents.

    Returns, per stratum, one group of queries per entry: one query per verb.
    """
    os.makedirs(directory, exist_ok=True)
    groups = {}
    for stratum in WORKLOADS[workload]:
        groups[stratum.name] = []
        for index in entries[stratum.name]:
            kind, document = catalogue_entry(stratum, index)
            path = os.path.join(directory, f"{stratum.name}-{index}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            groups[stratum.name].append([
                Query(f"{stratum.name}/{index}/{verb}", (verb, f"--{kind}", path) + stratum.options)
                for verb in stratum.verbs
            ])
    return groups
