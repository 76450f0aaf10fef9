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

# the players of each byte value of a mask: bits 0-7 are players 1-8, bits 8-15 players 9-16
_LOW_MEMBERS = tuple(tuple(i + 1 for i in range(8) if byte >> i & 1) for byte in range(256))
_HIGH_MEMBERS = tuple(tuple(p + 8 for p in low) for low in _LOW_MEMBERS)


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
        'the players in increasing order, read off the two bytes of the mask (n <= MAX_PLAYERS)'
        return _LOW_MEMBERS[self.mask & 0xFF] + _HIGH_MEMBERS[self.mask >> 8]

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
    """A duplicate-free collection of coalitions containing ∅ and N.

    The structural facts computed from it (:func:`classify`, :func:`closure`
    and the sets J_i of :func:`smallest_sets`, which ``lattice.extract_poset``
    reads as the generating poset) are stored on the object the first time
    they are asked for; they are no part of its value.
    """

    universe: PlayerUniverse
    sets: tuple[Coalition, ...]
    _mask_set: frozenset[int] = field(init=False, repr=False, compare=False)
    _report: StructureReport | None = field(default=None, init=False, repr=False, compare=False)
    # True for a closed system, which is its own closure: no reference cycle
    _closure: SetSystem | bool | None = field(default=None, init=False, repr=False, compare=False)
    _smallest: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)

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

    @classmethod
    def closed(cls, n: int, masks: Iterable[int], smallest: tuple[int, ...]) -> "SetSystem":
        """The system of ``masks``, recorded as its own closure whose J_i are ``smallest``.

        The caller vouches that ``masks`` are the unions of ``smallest`` and
        that ``smallest[i-1]`` holds player i and every J_j of its members, as
        the J_i of any system and the principal downsets of a poset do; by
        Birkhoff these are then the J_i of their unions.
        """
        system = cls.from_masks(n, masks)
        object.__setattr__(system, "_closure", True)
        object.__setattr__(system, "_smallest", smallest)
        return system

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
    """All pairs (S, T) with T covering S in (F, ⊆).

    A strict superset of S comes after S in the canonical order, and the sets
    T ⊋ S are met smallest first, so T covers S unless it holds a cover
    already found."""
    ordered = system.sets
    pairs = []
    for k, s in enumerate(ordered):
        low = s.mask
        covers_of_s: list[int] = []
        for t in ordered[k + 1:]:
            high = t.mask
            if low & ~high or any(u & high == u for u in covers_of_s):
                continue
            covers_of_s.append(high)
            pairs.append((s, t))
    return pairs


def smallest_sets(system: SetSystem) -> tuple[int, ...]:
    """``J_i = ∩{S ∈ F : i ∈ S}`` for players i = 1..n, as masks, computed
    once per ``SetSystem`` object.

    The J_i are the principal downsets of the quasi-order "every feasible set
    holding i holds k"; the distinct J_i are the closure's join-irreducibles.
    """
    if system._smallest is None:
        masks = system.masks()
        out = []
        for i in range(system.n):
            smallest = system.universe.full_mask
            for m in masks:
                if m >> i & 1:
                    smallest &= m
            out.append(smallest)
        object.__setattr__(system, "_smallest", tuple(out))
    return system._smallest


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
    """Smallest superset of F closed under pairwise union and intersection,
    computed once per ``SetSystem`` object.

    By Birkhoff's representation that is exactly the unions of the J_i, and
    the closure's J_i are the system's own.  A closed system is its own
    closure.
    """
    if system._closure is None:
        smallest = smallest_sets(system)
        masks = unions(smallest)
        if len(masks) == len(system):
            object.__setattr__(system, "_closure", True)
        else:
            object.__setattr__(system, "_closure", SetSystem.closed(system.n, masks, smallest))
    return system if system._closure is True else system._closure


def is_weakly_union_closed(system: SetSystem) -> bool:
    masks = system.masks()
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if a & b and a | b not in system._mask_set:
                return False
    return True


def classify(system: SetSystem) -> StructureReport:
    """Compute the structural predicates, once per ``SetSystem`` object.

    One pass over the strict inclusions s ⊊ t of F, in canonical order, gives
    regularity (each such t holds a player i with s ∪ {i} ∈ F, so every
    strict inclusion can start with a one-player step) and the height (the
    longest strict chain from ∅ to N).  By Birkhoff's representation F is
    closed exactly when it holds every union of the J_i, that is when adding
    any J_i to a set of F gives a set of F, and the closure's height is the
    number of distinct J_i.  A closed F is weakly union-closed, so the
    pairwise scan runs only on the others.
    """
    if system._report is None:
        masks = system.masks()
        bits = [1 << i for i in range(system.n)]
        steps = [sum(b for b in bits if not s & b and s | b in system._mask_set) for s in masks]
        regular = True
        depth: list[int] = []
        for t in masks:
            below = [(step, d) for s, step, d in zip(masks, steps, depth) if s | t == t]
            regular = regular and all(t & step for step, _ in below)
            depth.append(max((d for _, d in below), default=-1) + 1)
        generators = set(smallest_sets(system))
        closed = all(s | j in system._mask_set for j in generators for s in masks)
        report = StructureReport(
            is_regular=regular,
            is_weakly_union_closed=closed or is_weakly_union_closed(system),
            is_union_intersection_closed=closed,
            height=depth[-1],
            closure_height=len(generators),
        )
        object.__setattr__(system, "_report", report)
    return system._report


def maximal_chains(
    system: SetSystem, through: Iterable[Coalition] = ()
) -> list[tuple[Coalition, ...]]:
    """The maximal chains from ∅ to N that pass through every set of ``through``,
    in lexicographic order of their coalition keys.

    A chain misses r exactly when it makes a covering step s → t with s ⊊ r
    and t ⊄ r (take s the last of its sets inside r), so the walk skips those
    steps and lists no chain it would throw away; a set r outside F leaves
    no chain at all.  ``covering_pairs`` lists each set's covers in canonical
    order, which gives the chains in order.
    """
    targets = [r.mask for r in through]
    succ: dict[int, list[Coalition]] = {c.mask: [] for c in system.sets}
    for s, t in covering_pairs(system):
        if not any(s.mask & ~r == 0 and s.mask != r and t.mask & ~r for r in targets):
            succ[s.mask].append(t)
    full = system.universe.full_mask
    chains: list[tuple[Coalition, ...]] = []
    stack: list[Coalition] = [Coalition(0, system.n)]

    def walk():
        tip = stack[-1]
        if tip.mask == full:
            chains.append(tuple(stack))
            return
        for nxt in succ[tip.mask]:
            stack.append(nxt)
            walk()
            stack.pop()

    walk()
    return chains
