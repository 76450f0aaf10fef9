"""Player posets and their downset lattices.

A union/intersection-closed set system whose longest ∅→N chain has exactly n
steps is the family of downsets of a partial order on the players, and the
conversion is lossless both ways (Birkhoff): the principal downset of player i
is ``J_i``, the smallest feasible set holding i, and every downset is a union
of principal downsets.  A poset is therefore held as its principal downsets,
the one form both directions read.  This module implements both directions
plus the level decomposition of a poset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DocumentError, HeightDeficient, NotAPartialOrder, NotClosed
from .setsystem import Coalition, PlayerUniverse, SetSystem, closure, smallest_sets, unions


@dataclass(frozen=True)
class PlayerPoset:
    """A partial order on players 1..n, held as its principal downsets.

    ``below[i-1]`` is the mask of {j : j <= i}, player i included; for the
    generating poset of a closed system it is exactly J_i.  The constructor
    verifies reflexivity, antisymmetry and transitivity rather than trusting
    the caller: a broken order corrupts everything downstream.
    """

    universe: PlayerUniverse
    below: tuple[int, ...]

    def __post_init__(self):
        n = self.universe.n
        if len(self.below) != n:
            raise NotAPartialOrder("relation size does not match the player count")
        for i, down in enumerate(self.below):
            if not down >> i & 1:
                raise NotAPartialOrder(f"player {i + 1} is missing from its own downset")
            for j in range(n):
                if down >> j & 1:
                    # on a transitive relation, i and j below each other put i strictly below i
                    if j != i and self.below[j] >> i & 1:
                        raise NotAPartialOrder(f"player {i + 1} compares below itself")
                    if self.below[j] & ~down:
                        raise NotAPartialOrder("relation is not transitive")

    @classmethod
    def from_relations(cls, n: int, relations) -> "PlayerPoset":
        """Build from ``i < j`` pairs; the transitive closure is applied first."""
        universe = PlayerUniverse(n)
        below = [1 << i for i in range(n)]
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
            below[j - 1] |= 1 << (i - 1)
        for k in range(n):  # Warshall: whatever lies below k lies below everything above k
            for j in range(n):
                if below[j] >> k & 1:
                    below[j] |= below[k]
        return cls(universe, tuple(below))

    @property
    def n(self) -> int:
        return self.universe.n

    def _below_some(self, subset_mask: int) -> int:
        'mask of the players strictly below some player of the subset'
        m = 0
        for i, down in enumerate(self.below):
            if subset_mask >> i & 1:
                m |= down & ~(1 << i)
        return m

    def less(self, i: int, j: int) -> bool:
        return i != j and bool(self.below[j - 1] >> (i - 1) & 1)

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with j covering i, sorted by (i, j): the players below j
        that lie below no other player below j."""
        out = []
        for j in self.universe.players:
            strict = self._below_some(1 << (j - 1))
            lower = strict & ~self._below_some(strict)
            out.extend((i, j) for i in self.universe.players if lower >> (i - 1) & 1)
        return sorted(out)

    def minimal_of(self, subset_mask: int) -> int:
        'mask of elements of the subset with nothing of the subset below them'
        return sum(1 << i for i, down in enumerate(self.below) if down & subset_mask == 1 << i)

    def maximal_of(self, subset_mask: int) -> int:
        'mask of elements of the subset with nothing of the subset above them'
        return subset_mask & ~self._below_some(subset_mask)

    def downset_of(self, subset_mask: int) -> int:
        'downset generated by the subset inside the full poset'
        return subset_mask | self._below_some(subset_mask)

    def height(self) -> int:
        """Length of the longest chain of the poset (an antichain has height 0)."""
        return len(level_partition(self)) - 1

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
    """Generating poset of a union/intersection-closed system of height n.

    Player i sits below player j exactly when every feasible coalition
    containing j also contains i, that is when i lies in J_j, the smallest
    feasible set containing j.  By Birkhoff's representation the system is
    closed exactly when it is its own closure (the unions of the J_i), its
    height is the number of distinct J_i, and the J_i are the principal
    downsets: the poset holds the system's one stored copy of them.
    """
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
    return PlayerPoset(system.universe, smallest)


def downsets(poset: PlayerPoset) -> SetSystem:
    """All downsets of the poset, as a set system: the unions of its principal downsets.

    The system is recorded as its own closure, with the principal downsets
    as its J_i, so :func:`closure` and :func:`smallest_sets` compute nothing on it.
    """
    return SetSystem.closed(poset.n, unions(poset.below), poset.below)


def level_partition(poset: PlayerPoset) -> tuple[Coalition, ...]:
    """Strip minimal elements repeatedly; level q holds the elements of height q-1."""
    remaining = poset.universe.full_mask
    levels = []
    while remaining:
        m = poset.minimal_of(remaining)
        levels.append(Coalition(m, poset.n))
        remaining &= ~m
    return tuple(levels)
