"""Set systems of feasible coalitions: validation, classification, closure, chains.

A coalition is an ``int`` bitmask over players ``1..n`` (player ``i`` is bit
``i-1``) everywhere in the package: :func:`members` lists its players and
:func:`coalition_text` writes it as messages name it.  The canonical order
everywhere is ``(cardinality, mask value)``, which makes every output of
this package reproducible byte for byte.

The union/intersection closure follows Birkhoff's representation: it is the
family of unions of the sets ``J_i = ∩{S ∈ F : i ∈ S}``, and closedness and
closure height are read off the same sets.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Iterable

from .errors import (
    DocumentError,
    DuplicateSet,
    MissingEmptySet,
    MissingGrandCoalition,
    PlayerOutOfRange,
    UniverseTooLarge,
    WorkBudgetExceeded,
)

MAX_PLAYERS = 16
# the most maximal chains :func:`maximal_chains` lists (README "Limits")
MAX_CHAINS = 100_000

# the players of each byte value of a mask: bits 0-7 are players 1-8, bits 8-15 players 9-16
_LOW_MEMBERS = tuple(tuple(i + 1 for i in range(8) if byte >> i & 1) for byte in range(256))
_HIGH_MEMBERS = tuple(tuple(p + 8 for p in low) for low in _LOW_MEMBERS)
_INTS_ONLY = frozenset({int})
# the bit of each player 1..16 (index 0 is no player)
_PLAYER_BIT = (0,) + tuple(1 << i for i in range(MAX_PLAYERS))


def _memo(compute):
    """``compute`` as a fact of one object, a set system or a poset.

    The first call on an object computes the fact and stores it in the
    object's ``__dict__`` under a key ending in ``()``, which cannot shadow
    an attribute; later calls return the stored value itself, not a copy.
    So each fact is computed once per object and shared, no part of the
    object's value; :func:`_know` stores one known by construction.  The
    result keeps ``compute``'s name, module, docstring and signature.
    """
    key = compute.__qualname__ + "()"

    def fact(obj):
        known = obj.__dict__
        if key not in known:
            known[key] = compute(obj)
        return known[key]

    fact.__module__, fact.__name__, fact.__qualname__ = compute.__module__, compute.__name__, compute.__qualname__
    fact.__doc__, fact.__signature__ = compute.__doc__, inspect.signature(compute)
    return fact


def _know(obj, **facts) -> None:
    'store on ``obj`` the value of each :func:`_memo` fact named, as known by construction'
    obj.__dict__.update({f"{name}()": value for name, value in facts.items()})


def members(mask: int) -> tuple[int, ...]:
    'the players of a mask in increasing order, read off its two bytes (n <= MAX_PLAYERS)'
    return _LOW_MEMBERS[mask & 0xFF] + _HIGH_MEMBERS[mask >> 8]


def coalition_text(mask: int, n: int) -> str:
    """A coalition as messages name it: ``∅``, its players run together
    when n <= 9 (``134``), or listed in braces otherwise (``{1,10}``)."""
    if mask == 0:
        return "∅"
    players = map(str, members(mask))
    return "".join(players) if n <= 9 else "{" + ",".join(players) + "}"


def _member_lists(masks: Iterable[int]) -> list[list[int]]:
    'the players of each mask in increasing order, read off its two bytes'
    return [[*_LOW_MEMBERS[m & 0xFF], *_HIGH_MEMBERS[m >> 8]] for m in masks]


def _mask_of(players: Iterable[int], n: int) -> int:
    'the mask of a list of player labels, each checked to be an int in 1..n'
    mask = 0
    for p in players:
        if type(p) is not int or not 1 <= p <= n:
            if not isinstance(p, int) or isinstance(p, bool):
                raise DocumentError(f"player labels must be integers, got {p!r}")
            if p < 1 or p > n:
                raise PlayerOutOfRange(f"player {p} outside 1..{n}")
        mask |= _PLAYER_BIT[p]
    return mask


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


@dataclass(frozen=True)
class SetSystem:
    """A duplicate-free collection of coalitions containing ∅ and N.

    Its value is the tuple of its masks in canonical order, and ``mask in
    system`` asks whether a coalition is feasible.  Its structural facts are
    :func:`_memo` facts: stored on it, no part of its value.
    """

    universe: PlayerUniverse
    _masks: tuple[int, ...]
    _mask_set: frozenset[int] = field(repr=False, compare=False)

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "SetSystem":
        universe = PlayerUniverse(n)
        masks = list(masks)
        # masks are ints: a bool would pass for the mask 0 or 1
        if not _INTS_ONLY.issuperset(map(type, masks)):
            bad = next(m for m in masks if type(m) is not int)
            raise PlayerOutOfRange(f"coalition mask {bad!r} is not a set of players 1..{n}")
        seen = frozenset(masks)
        if seen and (min(seen) < 0 or max(seen) > universe.full_mask):
            bad = min(seen) if min(seen) < 0 else max(seen)
            raise PlayerOutOfRange(f"coalition mask {bad} is not a set of players 1..{n}")
        if len(seen) != len(masks):
            earlier = set()
            for m in masks:
                if m in earlier:
                    raise DuplicateSet(f"coalition {list(members(m))} appears twice")
                earlier.add(m)
        if 0 not in seen:
            raise MissingEmptySet("the empty coalition must be listed explicitly")
        if universe.full_mask not in seen:
            raise MissingGrandCoalition("the grand coalition must be listed explicitly")
        # canonical order (cardinality, mask value): a stable sort by cardinality of the sorted masks
        return cls(universe, tuple(sorted(sorted(seen), key=int.bit_count)), seen)

    @classmethod
    def closed(cls, n: int, masks: Iterable[int], smallest: tuple[int, ...]) -> "SetSystem":
        """The system of ``masks``, recorded as its own closure whose J_i are ``smallest``.

        The caller vouches that ``masks`` are the unions of ``smallest`` and
        that ``smallest[i-1]`` holds player i and every J_j of its members, as
        the J_i of any system and the principal downsets of a poset do; by
        Birkhoff these are then the J_i of their unions.
        """
        system = cls.from_masks(n, masks)
        _know(system, is_closed=True, smallest_sets=smallest)
        return system

    @property
    def n(self) -> int:
        return self.universe.n

    def __len__(self) -> int:
        return len(self._masks)

    def __contains__(self, mask: int) -> bool:
        return mask in self._mask_set

    def masks(self) -> tuple[int, ...]:
        'the masks in canonical order: the stored value, not a copy'
        return self._masks

    def coalition(self, players: Iterable[int]) -> int:
        'the mask of a list of player labels, each checked to be an int in 1..n'
        return _mask_of(players, self.n)

    def to_document(self) -> dict:
        return {"n": self.n, "sets": _member_lists(self._masks)}


@dataclass(frozen=True)
class StructureReport:
    is_regular: bool
    is_weakly_union_closed: bool
    is_union_intersection_closed: bool
    height: int
    closure_height: int


def load_set_system(document) -> SetSystem:
    """Build a system from a parsed ``{"n": int, "sets": [[players], ...]}`` document;
    JSON text is refused with :class:`DocumentError`."""
    if not isinstance(document, dict) or "n" not in document or "sets" not in document:
        raise DocumentError('set-system documents need the keys "n" and "sets"')
    n = PlayerUniverse(document["n"]).n
    return SetSystem.from_masks(n, _sets_of(document, n))


def _sets_of(document: dict, n: int) -> list[int]:
    """The masks of the document's player lists under "sets", each player an int in 1..n."""
    raw = document["sets"]
    if not isinstance(raw, list) or not all(isinstance(s, list) for s in raw):
        raise DocumentError('"sets" must be a list of player lists')
    return [_mask_of(players, n) for players in raw]


@_memo
def covering_pairs(system: SetSystem) -> dict[int, list[int]]:
    """Each set S of F mapped to its covers in (F, ⊆), in canonical order:
    the one cover table every chain fact reads.

    On a closed F a cover of S is S ∪ J_i for a J_i not inside S whose
    players outside i's class (the players sharing J_i) all lie in S; it
    adds that class to S, so taking the classes by (size, mask) lists the
    covers in canonical order.  On any other F the sets are numbered in
    canonical order, and bit k of ``has[i]`` says that set k holds player
    i.  The sets above S are the AND of ``has`` over S's players, kept only
    over the sets after S and shifted down by S's number + 1.  They come
    smallest first, so the lowest is a cover, and clearing the sets above
    it leaves the next cover lowest.  Going down F, the sets above every
    later set are known when S reads its covers."""
    masks = system.masks()
    if is_closed(system):
        classes: dict[int, int] = {}
        for i, smallest in enumerate(smallest_sets(system)):
            classes[smallest] = classes.get(smallest, 0) | 1 << i
        steps = sorted((c.bit_count(), c, smallest & ~c) for smallest, c in classes.items())
        return {s: [s | c for _, c, below in steps if not c & s and not below & ~s] for s in masks}
    players = _member_lists(masks)
    has = [0] * (system.n + 1)
    for k, held in enumerate(players):
        for p in held:
            has[p] |= 1 << k
    count = len(masks)
    every = (1 << count) - 1
    # above[k]: bit x is set when set k + 1 + x contains set k
    above = [0] * count
    tables = []
    for k in range(count - 1, -1, -1):
        sup = every
        for p in players[k]:
            sup &= has[p]
        above[k] = sup = sup >> k + 1
        covers = []
        while sup:
            low = sup & -sup
            x = low.bit_length() - 1
            covers.append(masks[k + 1 + x])
            # drop the cover (bit x) and the sets above it
            sup ^= low | sup & (above[k + 1 + x] << x + 1)
        tables.append(covers)
    return dict(zip(masks, reversed(tables)))


@_memo
def smallest_sets(system: SetSystem) -> tuple[int, ...]:
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
    return tuple(out)


def unions(masks: Iterable[int]) -> set[int]:
    """Every union of some of the masks, ∅ included.

    The unions of the masks taken so far are doubled by each new one; a mask
    that is already such a union adds nothing, so the work is at most
    |result| per distinct mask and one set comprehension each.
    """
    found = {0}
    for g in set(masks):
        if g not in found:
            found |= {m | g for m in found}
    return found


def closure(system: SetSystem) -> SetSystem:
    """Smallest superset of F closed under pairwise union and intersection.

    By Birkhoff's representation that is exactly the unions of the J_i, and
    the closure's J_i are the system's own.  A closed system is its own
    closure, and only an open one stores it: no system refers to itself.
    """
    return system if is_closed(system) else _open_closure(system)


@_memo
def _open_closure(system: SetSystem) -> SetSystem:
    'the closure of a system that is not closed, recorded as closed with its J_i'
    return SetSystem.closed(system.n, unions(smallest_sets(system)), smallest_sets(system))


@_memo
def is_closed(system: SetSystem) -> bool:
    """Is F closed under union and intersection?

    By Birkhoff's representation it is exactly when adding any J_i to a set
    of F gives a set of F: at most h·|F| lookups for the h distinct J_i, and
    none on a system built by :meth:`SetSystem.closed`.
    """
    feasible = system._mask_set
    return all(s | j in feasible for j in set(smallest_sets(system)) for s in system.masks())


def is_weakly_union_closed(system: SetSystem) -> bool:
    masks, feasible = system.masks(), system._mask_set
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if a & b and a | b not in feasible:
                return False
    return True


@_memo
def classify(system: SetSystem) -> StructureReport:
    """Compute the structural predicates.

    Closedness comes from :func:`is_closed`, which adds each J_i to each
    set of F unless F was built by :meth:`SetSystem.closed`, as every
    downset lattice is.  A closed F is then the downset lattice of its h
    distinct J_i: every maximal chain adds one J_i class per step, so F has
    height h, is regular exactly when h = n, and is weakly union-closed.
    On any other F the covers of :func:`covering_pairs` give the rest:
    every cover lies on a maximal chain, so F is regular exactly when every
    cover adds one player, and the height is the longest path of covers
    from ∅ to N, found going up F in canonical order; a pairwise scan gives
    weak union-closure.  The closure's height is h either way.
    """
    h = len(set(smallest_sets(system)))
    if is_closed(system):
        return StructureReport(h == system.n, True, True, h, h)
    up = covering_pairs(system)
    depth = dict.fromkeys(up, 0)
    for s, covers in up.items():
        for t in covers:
            depth[t] = max(depth[t], depth[s] + 1)
    regular = all((s ^ t).bit_count() == 1 for s, covers in up.items() for t in covers)
    return StructureReport(regular, is_weakly_union_closed(system), False, max(depth.values()), h)


def maximal_chains(system: SetSystem) -> list[tuple[int, ...]]:
    """The maximal chains from ∅ to N as tuples of masks, in lexicographic
    order of their sets' canonical keys: ``covering_pairs`` lists each set's
    covers in canonical order, which gives the chains in order.

    The chains are counted first, each set adding its count to its covers';
    more than ``MAX_CHAINS`` of them raise :class:`WorkBudgetExceeded`
    before any is listed.
    """
    up = covering_pairs(system)
    masks = system.masks()
    count = dict.fromkeys(masks, 0)
    count[0] = 1
    for s in masks:
        for t in up[s]:
            count[t] += count[s]
    full = system.universe.full_mask
    if count[full] > MAX_CHAINS:
        raise WorkBudgetExceeded(
            f"the system has {count[full]} maximal chains, more than the work budget of {MAX_CHAINS}"
        )
    chains: list[tuple[int, ...]] = []
    # depth first: path is the chain so far, and pending[d] the covers of
    # path[d] that are still to be walked
    path = [0]
    pending = [iter(up[0])]
    while pending:
        for t in pending[-1]:
            if t == full:
                chains.append((*path, t))
                continue
            path.append(t)
            pending.append(iter(up[t]))
            break
        else:
            pending.pop()
            path.pop()
    return chains

