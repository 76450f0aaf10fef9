"""Set systems of feasible coalitions: validation, classification, closure, chains.

Coalitions are bitmasks over players ``1..n`` (player ``i`` is bit ``i-1``).
The canonical order everywhere is ``(cardinality, mask value)``, which makes
every output of this package reproducible byte for byte.

The union/intersection closure follows Birkhoff's representation: it is the
family of unions of the sets ``J_i = ∩{S ∈ F : i ∈ S}``, and closedness and
closure height are read off the same sets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
    DocumentError,
    DuplicateSet,
    MissingEmptySet,
    MissingGrandCoalition,
    PlayerOutOfRange,
    UniverseTooLarge,
)

MAX_PLAYERS = 16


@dataclass(frozen=True)
class PlayerUniverse:
    """The player set {1, .., n}."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise DocumentError(f"player count must be an integer >= 1, got {self.n!r}")
        if self.n > MAX_PLAYERS:
            raise UniverseTooLarge(f"n = {self.n} exceeds the enumeration bound {MAX_PLAYERS}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def players(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class Coalition:
    """A subset of the players, stored as an n-bit mask."""

    mask: int
    n: int

    @classmethod
    def from_players(cls, players: Iterable[int], n: int) -> "Coalition":
        mask = 0
        for p in players:
            if not isinstance(p, int) or isinstance(p, bool):
                raise DocumentError(f"player labels must be integers, got {p!r}")
            if p < 1 or p > n:
                raise PlayerOutOfRange(f"player {p} outside 1..{n}")
            mask |= 1 << (p - 1)
        return cls(mask, n)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(p for p in range(1, self.n + 1) if self.mask >> (p - 1) & 1)

    def key(self) -> tuple[int, int]:
        'canonical sort key: (cardinality, mask value)'
        return (self.mask.bit_count(), self.mask)

    def __contains__(self, player: int) -> bool:
        return 1 <= player <= self.n and bool(self.mask >> (player - 1) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __or__(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask | other.mask, self.n)

    def __and__(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask & other.mask, self.n)

    def __le__(self, other: "Coalition") -> bool:
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "Coalition") -> bool:
        return self.mask != other.mask and self <= other

    def __str__(self) -> str:
        if self.mask == 0:
            return "∅"
        if self.n <= 9:
            return "".join(str(p) for p in self.members)
        return "{" + ",".join(str(p) for p in self.members) + "}"


@dataclass(frozen=True)
class SetSystem:
    """A duplicate-free collection of coalitions containing ∅ and N."""

    universe: PlayerUniverse
    sets: tuple[Coalition, ...]
    _mask_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_mask_set", frozenset(c.mask for c in self.sets))

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "SetSystem":
        universe = PlayerUniverse(n)
        seen = set()
        for m in masks:
            if m in seen:
                members = Coalition(m, n).members
                raise DuplicateSet(f"coalition {list(members)} appears twice")
            seen.add(m)
        if 0 not in seen:
            raise MissingEmptySet("the empty coalition must be listed explicitly")
        if universe.full_mask not in seen:
            raise MissingGrandCoalition("the grand coalition must be listed explicitly")
        ordered = sorted(seen, key=lambda m: (m.bit_count(), m))
        return cls(universe, tuple(Coalition(m, n) for m in ordered))

    @property
    def n(self) -> int:
        return self.universe.n

    def __iter__(self) -> Iterator[Coalition]:
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __contains__(self, item) -> bool:
        mask = item.mask if isinstance(item, Coalition) else item
        return mask in self._mask_set

    def masks(self) -> list[int]:
        return [c.mask for c in self.sets]

    def coalition(self, players: Iterable[int]) -> Coalition:
        return Coalition.from_players(players, self.n)

    def to_document(self) -> dict:
        return {"n": self.n, "sets": [list(c.members) for c in self.sets]}


@dataclass(frozen=True)
class ChainOfSets:
    """A strictly increasing chain of coalitions from ∅ to N."""

    sets: tuple[Coalition, ...]

    def __post_init__(self):
        if not self.sets:
            raise DocumentError("a chain needs at least ∅ and N")
        if self.sets[0].mask != 0:
            raise DocumentError("chains must start at the empty coalition")
        n = self.sets[0].n
        if self.sets[-1].mask != (1 << n) - 1:
            raise DocumentError("chains must end at the grand coalition")
        for a, b in zip(self.sets, self.sets[1:]):
            if not a < b:
                raise DocumentError(f"chain step {a} -> {b} is not a strict inclusion")

    def __iter__(self) -> Iterator[Coalition]:
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def order(self) -> tuple[int, ...]:
        """Players in order of arrival; only defined when every step adds one player."""
        out = []
        for a, b in zip(self.sets, self.sets[1:]):
            added = b.mask & ~a.mask
            if added.bit_count() != 1:
                raise DocumentError(f"chain step {a} -> {b} adds more than one player")
            out.append(added.bit_length())
        return tuple(out)


@dataclass(frozen=True)
class StructureReport:
    is_regular: bool
    is_weakly_union_closed: bool
    is_union_intersection_closed: bool
    height: int
    closure_height: int


def load_set_system(document) -> SetSystem:
    """Parse a ``{"n": int, "sets": [[players], ...]}`` document (dict or JSON text)."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON: {exc}") from None
    if not isinstance(document, dict) or "n" not in document or "sets" not in document:
        raise DocumentError('set-system documents need the keys "n" and "sets"')
    n = document["n"]
    universe = PlayerUniverse(n)
    raw = document["sets"]
    if not isinstance(raw, list) or not all(isinstance(s, list) for s in raw):
        raise DocumentError('"sets" must be a list of player lists')
    masks = []
    for players in raw:
        masks.append(Coalition.from_players(players, n).mask)
    return SetSystem.from_masks(universe.n, masks)


def covering_pairs(system: SetSystem) -> list[tuple[Coalition, Coalition]]:
    """All pairs (S, T) with T covering S in (F, ⊆)."""
    ordered = system.sets
    pairs = []
    for s in ordered:
        covers_of_s: list[int] = []
        for t in ordered:
            if t.mask == s.mask or not s < t:
                continue
            if any(u & t.mask == u for u in covers_of_s):
                continue
            covers_of_s.append(t.mask)
            pairs.append((s, t))
    return pairs


def _height_to_full(system: SetSystem, pairs: list[tuple[Coalition, Coalition]]) -> int:
    """Length of the longest chain from ∅ to N, following the covering ``pairs``."""
    succ: dict[int, list[int]] = {c.mask: [] for c in system.sets}
    for s, t in pairs:
        succ[s.mask].append(t.mask)
    depth = {c.mask: -1 for c in system.sets}
    depth[0] = 0
    for c in system.sets:
        d = depth[c.mask]
        if d < 0:
            continue
        for t in succ[c.mask]:
            if d + 1 > depth[t]:
                depth[t] = d + 1
    return depth[system.universe.full_mask]


def smallest_sets(system: SetSystem) -> list[int]:
    """``J_i = ∩{S ∈ F : i ∈ S}`` for players i = 1..n, as masks.

    The J_i are the principal downsets of the quasi-order "every feasible set
    holding i holds k"; the distinct J_i are the closure's join-irreducibles.
    """
    masks = system.masks()
    out = []
    for i in range(system.n):
        smallest = system.universe.full_mask
        for m in masks:
            if m >> i & 1:
                smallest &= m
        out.append(smallest)
    return out


def unions(masks: Sequence[int]) -> set[int]:
    """Every union of some of the masks, ∅ included; O(|result| · len(masks))."""
    found = {0}
    work = [0]
    while work:
        m = work.pop()
        for g in masks:
            u = m | g
            if u not in found:
                found.add(u)
                work.append(u)
    return found


def closure(system: SetSystem) -> SetSystem:
    """Smallest superset of F closed under pairwise union and intersection.

    By Birkhoff's representation that is exactly the unions of the J_i.
    """
    return SetSystem.from_masks(system.n, unions(smallest_sets(system)))


def is_weakly_union_closed(system: SetSystem) -> bool:
    masks = system.masks()
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if a & b and (a | b) not in system:
                return False
    return True


def classify(system: SetSystem) -> StructureReport:
    """Compute the structural predicates.

    Regularity and height come from the covering pairs of F.  By Birkhoff's
    representation F is closed exactly when it has as many sets as its
    closure, and the closure's height is the number of distinct J_i.
    """
    smallest = smallest_sets(system)
    closed = len(unions(smallest)) == len(system)
    pairs = covering_pairs(system)
    regular = all((t.mask & ~s.mask).bit_count() == 1 for s, t in pairs)
    return StructureReport(
        is_regular=regular,
        is_weakly_union_closed=is_weakly_union_closed(system),
        is_union_intersection_closed=closed,
        height=_height_to_full(system, pairs),
        closure_height=len(set(smallest)),
    )


def maximal_chains(system: SetSystem) -> list[ChainOfSets]:
    """All maximal chains from ∅ to N, in lexicographic order of their coalition keys."""
    succ: dict[int, list[Coalition]] = {c.mask: [] for c in system.sets}
    for s, t in covering_pairs(system):
        succ[s.mask].append(t)
    for lst in succ.values():
        lst.sort(key=Coalition.key)
    full = system.universe.full_mask
    chains: list[ChainOfSets] = []
    stack: list[Coalition] = [Coalition(0, system.n)]

    def walk():
        tip = stack[-1]
        if tip.mask == full:
            chains.append(ChainOfSets(tuple(stack)))
            return
        for nxt in succ[tip.mask]:
            stack.append(nxt)
            walk()
            stack.pop()

    walk()
    return chains
