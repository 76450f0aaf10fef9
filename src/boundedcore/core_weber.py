"""Games, restricted cores, marginal vectors and restricted Weber sets."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ChainNotRegularSteps,
    CollectionNotNested,
    DocumentError,
    NoRestrictedChain,
    NotClosed,
    SetNotFeasible,
)
from .normal import NormalCollection
from .polyhedra import HPolyhedron, VRepresentation, dd_generators
from .setsystem import Coalition, SetSystem, classify, load_set_system, maximal_chains
from .vectors import IntVec, Vector, dot, format_rational, indicator, parse_rational


class Game:
    """An exact-rational worth function on the feasible coalitions.

    Every feasible coalition must carry a value, the empty coalition's value
    is zero, and nothing outside the system may carry one.  A worth is an
    ``int`` or a :class:`fractions.Fraction`; anything else (a bool, a float,
    a string, a Decimal) is refused with :class:`DocumentError`.  Each worth
    is stored once in its one exact form: an integral worth as an ``int``,
    only a worth whose denominator is greater than 1 as a Fraction.  The
    core bounds and marginal vectors of a game with integer worths are then
    ints throughout.  Instances are immutable after construction.
    """

    def __init__(self, system: SetSystem, values):
        table: dict[int, Fraction | int] = {}
        for key, worth in values.items():
            mask = key.mask if isinstance(key, Coalition) else int(key)
            if mask not in system:
                raise SetNotFeasible(
                    f"value given for {Coalition(mask, system.n)}, which is not feasible"
                )
            if mask in table:
                raise DocumentError(f"duplicate value for {Coalition(mask, system.n)}")
            if isinstance(worth, Fraction):
                table[mask] = worth.numerator if worth.denominator == 1 else worth
            elif isinstance(worth, int) and not isinstance(worth, bool):
                table[mask] = int(worth)
            else:
                raise DocumentError(
                    f"refusing worth {worth!r}; supply an exact rational (an int or a Fraction)"
                )
        if table.get(0, 0) != 0:
            raise DocumentError("the empty coalition must be worth 0")
        table[0] = 0
        for c in system:
            if c.mask not in table:
                raise DocumentError(f"no value for feasible coalition {c}")
        self.system = system
        self._values = table

    def value(self, coalition) -> Fraction | int:
        'the stored worth: an int when it is integral, a Fraction only otherwise'
        mask = coalition.mask if isinstance(coalition, Coalition) else int(coalition)
        try:
            return self._values[mask]
        except KeyError:
            raise SetNotFeasible(
                f"{Coalition(mask, self.system.n)} is not a feasible coalition"
            ) from None

    @classmethod
    def from_document(cls, document) -> "Game":
        """Build a game from a parsed ``{"system": ..., "values": {"1,2": "3/2", ...}}``
        document; JSON text is refused with :class:`DocumentError`."""
        if not isinstance(document, dict) or "system" not in document or "values" not in document:
            raise DocumentError('game documents need the keys "system" and "values"')
        system = load_set_system(document["system"])
        if not isinstance(document["values"], dict):
            raise DocumentError('"values" must be an object mapping coalition keys to rationals')
        values = {}
        for key, raw in document["values"].items():
            if not isinstance(key, str) or key.strip() == "":
                raise DocumentError(f"bad coalition key {key!r} (the empty set is implicit)")
            try:
                players = [int(part) for part in key.split(",")]
            except ValueError:
                raise DocumentError(f"bad coalition key {key!r}") from None
            coalition = Coalition.from_players(players, system.n)
            if coalition.mask in values:
                raise DocumentError(f"duplicate value for {coalition}")
            values[coalition.mask] = parse_rational(raw)
        return cls(system, values)

    def to_document(self) -> dict:
        values = {}
        for c in self.system:
            if c.mask:
                values[",".join(str(p) for p in c.members)] = format_rational(self._values[c.mask])
        return {"system": self.system.to_document(), "values": values}


@dataclass(frozen=True)
class InclusionVerdict:
    """The answer, its witness (a core vertex outside the hull, or an
    unbounded direction), and the restricted Weber set it was tested against."""

    holds: bool
    witness: Vector | IntVec | None
    weber: VRepresentation


def build_restricted_core(game: Game, collection: NormalCollection) -> HPolyhedron:
    """H-form of the core with the collection's inequalities tightened.

    Rows follow canonical coalition order; the collection's sets and the
    grand coalition appear as equalities, every other nonempty feasible set
    as an inequality.  An empty collection yields the plain core.
    """
    system = game.system
    n = system.n
    full = system.universe.full_mask
    frozen = {c.mask for c in collection}
    for c in collection:
        if c.mask not in system:
            raise SetNotFeasible(f"normal set {c} is not feasible")
    inequalities = tuple(
        (indicator(c.mask, n), game.value(c))
        for c in system
        if c.mask not in frozen and c.mask not in (0, full)
    )
    equalities = tuple(
        (indicator(m, n), game.value(m)) for m in sorted(frozen, key=lambda m: (m.bit_count(), m))
    ) + ((indicator(full, n), game.value(full)),)
    return HPolyhedron(n, inequalities, equalities)


def marginal_vector(game: Game, chain: tuple[Coalition, ...]) -> Vector:
    """Payoffs v(S_i) - v(S_{i-1}) for the player arriving at step i.

    The chain must run from ∅ through n sets, each adding one player to the
    one before it.  The entries are differences of stored worths, so a game
    with integer worths has int marginal vectors.
    """
    if len(chain) != game.system.n + 1:
        raise ChainNotRegularSteps(
            "marginal vectors need a chain adding exactly one player per step"
        )
    if chain[0].mask != 0:
        raise ChainNotRegularSteps("marginal vectors need a chain starting at the empty coalition")
    payoff = [0] * game.system.n
    for a, b in zip(chain, chain[1:]):
        added = a.mask ^ b.mask
        if a.mask & ~b.mask or added.bit_count() != 1:
            raise ChainNotRegularSteps(f"chain step {a} -> {b} does not add exactly one player")
        payoff[added.bit_length() - 1] = game.value(b) - game.value(a)
    return tuple(payoff)


def weber_chains(system: SetSystem, collection: NormalCollection) -> list[tuple[Coalition, ...]]:
    """The restricted maximal chains, once the restricted Weber set is known to exist.

    It exists when the collection is nested and the system is regular (which
    a closed system of height n always is); a chain jumping several players
    at once has no marginal vector, so such systems are refused outright.
    """
    ordered = sorted(collection.sets, key=Coalition.key)
    for a, b in zip(ordered, ordered[1:]):
        if not a < b:
            raise CollectionNotNested(
                f"normal sets {a} and {b} are not nested, the Weber set needs a chain"
            )
    if not classify(system).is_regular:
        raise ChainNotRegularSteps(
            "the system has a maximal chain adding several players at one step; "
            "marginal vectors are undefined there"
        )
    chains = maximal_chains(system, collection)
    if not chains:
        raise NoRestrictedChain("no maximal chain passes through every normal set")
    return chains


def marginal_hull(game: Game, chains: list[tuple[Coalition, ...]]) -> VRepresentation:
    """Convex hull of the marginal vectors of the given chains, one vertex per distinct vector."""
    vertices = sorted({marginal_vector(game, c) for c in chains})
    return VRepresentation(
        dim=game.system.n,
        vertices=tuple(vertices),
        extremal_rays=(),
        lineality=(),
    )


def restricted_weber(game: Game, collection: NormalCollection) -> VRepresentation:
    """Convex hull of the marginal vectors of the restricted maximal chains."""
    return marginal_hull(game, weber_chains(game.system, collection))


def is_convex(game: Game) -> bool:
    """Supermodularity check ``v(A∪B) + v(A∩B) >= v(A) + v(B)`` over all pairs."""
    system = game.system
    if not classify(system).is_union_intersection_closed:
        raise NotClosed("convexity is only defined on union/intersection-closed systems")
    masks = system.masks()
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if game.value(a | b) + game.value(a & b) < game.value(a) + game.value(b):
                return False
    return True


def verify_inclusion(game: Game, collection: NormalCollection) -> InclusionVerdict:
    """Is the restricted core included in the restricted Weber set?

    An unbounded restricted core can never fit in a polytope, so its first
    unbounded direction is returned as the witness.  Otherwise the core
    vertices are tested in canonical order and the first one outside the
    hull is the witness.  A vertex equal to a restricted marginal vector is
    a generator of the hull, so it is accepted by a set lookup.  For the
    others the hull's facets are computed once, by running DD from V to H
    on the marginal vectors: the cone ``{f : f·(p, 1) >= 0}`` over the
    marginal vectors p is generated by rays f and lineality vectors l, and
    x lies in the hull exactly when ``f·(x, 1) >= 0`` for every f and
    ``l·(x, 1) = 0`` for every l.  For a convex game on the power set every
    core vertex is a marginal vector (Shapley 1971), so that second DD never
    runs.
    """
    weber = restricted_weber(game, collection)
    core = dd_generators(build_restricted_core(game, collection))
    if core.empty:
        return InclusionVerdict(holds=True, witness=None, weber=weber)
    for direction in tuple(core.lineality) + tuple(core.extremal_rays):
        return InclusionVerdict(holds=False, witness=direction, weber=weber)
    generators = set(weber.vertices)
    facets = None
    for vertex in core.vertices:
        if vertex in generators:
            continue
        if facets is None:
            facets = dd_generators(
                HPolyhedron(game.system.n + 1, tuple((p + (1,), 0) for p in weber.vertices))
            )
        point = vertex + (1,)
        if any(dot(f, point) < 0 for f in facets.extremal_rays) or any(
            dot(l, point) for l in facets.lineality
        ):
            return InclusionVerdict(holds=False, witness=vertex, weber=weber)
    return InclusionVerdict(holds=True, witness=None, weber=weber)
