"""Player posets and their downset lattices.

A union/intersection-closed set system whose longest ∅→N chain has exactly n
steps is the family of downsets of a partial order on the players, and the
conversion is lossless both ways (Birkhoff): the principal downset of player i
is ``J_i``, the smallest feasible set holding i, and every downset is a union
of principal downsets.  This module implements both directions plus the level
decomposition of a poset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DocumentError, HeightDeficient, NotAPartialOrder, NotClosed
from .setsystem import Coalition, PlayerUniverse, SetSystem, closure, smallest_sets, unions


@dataclass(frozen=True)
class PlayerPoset:
    """A strict partial order on players 1..n.

    ``above[i-1]`` is the mask of players strictly greater than i.  The
    constructor verifies irreflexivity, antisymmetry and transitivity rather
    than trusting the caller: a broken order corrupts everything downstream.
    """

    universe: PlayerUniverse
    above: tuple[int, ...]

    def __post_init__(self):
        n = self.universe.n
        if len(self.above) != n:
            raise NotAPartialOrder("relation size does not match the player count")
        for i in range(n):
            if self.above[i] >> i & 1:
                raise NotAPartialOrder(f"player {i + 1} compares below itself")
            for j in range(n):
                if self.above[i] >> j & 1:
                    if self.above[j] >> i & 1:
                        raise NotAPartialOrder(f"players {i + 1} and {j + 1} compare both ways")
                    if self.above[j] & ~self.above[i]:
                        raise NotAPartialOrder("relation is not transitive")

    @classmethod
    def from_relations(cls, n: int, relations) -> "PlayerPoset":
        """Build from ``i < j`` pairs; the transitive closure is applied first."""
        universe = PlayerUniverse(n)
        above = [0] * n
        if not isinstance(relations, (list, tuple)):
            raise DocumentError(f"relations must be a list of [i, j] pairs, got {relations!r}")
        for pair in relations:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise DocumentError(f"relations must be [i, j] pairs, got {pair!r}")
            i, j = pair
            for p in (i, j):
                if not isinstance(p, int) or isinstance(p, bool) or not 1 <= p <= n:
                    raise NotAPartialOrder(f"player {p!r} outside 1..{n}")
            if i == j:
                raise NotAPartialOrder(f"player {i} related to itself")
            above[i - 1] |= 1 << (j - 1)
        changed = True
        while changed:
            changed = False
            for i in range(n):
                extended = above[i]
                for j in range(n):
                    if above[i] >> j & 1:
                        extended |= above[j]
                if extended != above[i]:
                    above[i] = extended
                    changed = True
        return cls(universe, tuple(above))

    @property
    def n(self) -> int:
        return self.universe.n

    def less(self, i: int, j: int) -> bool:
        return bool(self.above[i - 1] >> (j - 1) & 1)

    def below_mask(self, i: int) -> int:
        'mask of {j : j <= i}, the principal downset of i'
        m = 1 << (i - 1)
        for j in range(self.n):
            if self.above[j] >> (i - 1) & 1:
                m |= 1 << j
        return m

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with j covering i, sorted by (i, j)."""
        out = []
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                if not self.less(i, j):
                    continue
                between = self.above[i - 1] & ~(1 << (j - 1))
                if any(between >> (k - 1) & 1 and self.less(k, j) for k in range(1, self.n + 1)):
                    continue
                out.append((i, j))
        return out

    def minimal_of(self, subset_mask: int) -> int:
        'mask of elements of the subset with nothing of the subset below them'
        m = 0
        for i in range(1, self.n + 1):
            if not subset_mask >> (i - 1) & 1:
                continue
            strictly_below = self.below_mask(i) & ~(1 << (i - 1))
            if strictly_below & subset_mask == 0:
                m |= 1 << (i - 1)
        return m

    def maximal_of(self, subset_mask: int) -> int:
        m = 0
        for i in range(1, self.n + 1):
            if subset_mask >> (i - 1) & 1 and self.above[i - 1] & subset_mask == 0:
                m |= 1 << (i - 1)
        return m

    def downset_of(self, subset_mask: int) -> int:
        'downset generated by the subset inside the full poset'
        m = subset_mask
        for i in range(1, self.n + 1):
            if subset_mask >> (i - 1) & 1:
                m |= self.below_mask(i)
        return m

    def height(self) -> int:
        """Length of the longest chain of the poset (an antichain has height 0)."""
        best = 0
        depth = [0] * self.n
        order = sorted(range(self.n), key=lambda i: self.above[i].bit_count(), reverse=True)
        # elements with many above come first, i.e. lower elements first
        for i in order:
            for j in range(self.n):
                if self.above[j] >> i & 1:
                    depth[i] = max(depth[i], depth[j] + 1)
            best = max(best, depth[i])
        return best

    def to_document(self) -> dict:
        return {"n": self.n, "relations": [list(p) for p in self.covers()]}


def load_poset(document) -> PlayerPoset:
    """Parse a ``{"n": int, "relations": [[i, j], ...]}`` document."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON: {exc}") from None
    if not isinstance(document, dict) or "n" not in document or "relations" not in document:
        raise DocumentError('poset documents need the keys "n" and "relations"')
    return PlayerPoset.from_relations(document["n"], document["relations"])


def extract_poset(system: SetSystem) -> PlayerPoset:
    """Generating poset of a union/intersection-closed system of height n,
    computed once per ``SetSystem`` object.

    Player i sits below player j exactly when every feasible coalition
    containing j also contains i; equivalently the smallest feasible set
    J_i containing i is included in J_j.  By Birkhoff's representation the
    system is closed exactly when it is its own closure (the unions of the
    J_i), and its height is the number of distinct J_i.
    """
    if system._poset is not None:
        return system._poset
    if closure(system) is not system:
        raise NotClosed("the system is not closed under union and intersection")
    smallest = smallest_sets(system)
    n = system.n
    height = len(set(smallest))
    if height != n:
        raise HeightDeficient(
            f"closed system has height {height} < n = {n}; "
            "some players never appear separately, regroup them before converting"
        )
    above = [0] * n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and smallest[i - 1] & ~smallest[j - 1] == 0:
                above[i - 1] |= 1 << (j - 1)
    poset = PlayerPoset(system.universe, tuple(above))
    object.__setattr__(system, "_poset", poset)
    return poset


def downsets(poset: PlayerPoset) -> SetSystem:
    """All downsets of the poset, as a set system: the unions of its principal downsets."""
    n = poset.n
    return SetSystem.from_masks(n, unions([poset.below_mask(i) for i in range(1, n + 1)]))


def level_partition(poset: PlayerPoset) -> tuple[Coalition, ...]:
    """Strip minimal elements repeatedly; level q holds the elements of height q-1."""
    remaining = poset.universe.full_mask
    levels = []
    while remaining:
        m = poset.minimal_of(remaining)
        levels.append(Coalition(m, poset.n))
        remaining &= ~m
    return tuple(levels)
