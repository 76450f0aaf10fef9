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
    WorkBudgetExceeded,
)
from .lattice import extract_poset
from .normal import NormalCollection
from .polyhedra import HPolyhedron, VRepresentation, dd_generators
from .rays import rays_distributive
from .setsystem import (
    SetSystem,
    classify,
    coalition_text,
    covering_pairs,
    is_closed,
    load_set_system,
    members,
    smallest_sets,
)
from .vectors import IntVec, Vector, dot, exact_rational, format_rational, indicator, weight

# the most payoff steps (a set's payoffs times the covers it takes, summed
# over the sets) one walk of _restricted_chain_payoffs makes (README "Limits")
MAX_WALK_WORK = 1_000_000


def _check_key(mask, n: int) -> None:
    'refuse anything but the int mask of a coalition of players 1..n'
    if not isinstance(mask, int) or isinstance(mask, bool) or mask < 0 or mask >> n:
        raise DocumentError(f"coalition keys must be masks of players 1..{n}, got {mask!r}")


class Game:
    """An exact-rational worth function on the feasible coalitions, keyed by mask.

    Every key must be the ``int`` mask of a feasible coalition (any other key
    is refused with :class:`DocumentError`), every feasible coalition must
    carry a value, and the empty coalition's value is zero.  A worth is an
    ``int`` or a :class:`fractions.Fraction`; anything else (a bool, a float,
    a string, a Decimal) is refused with :class:`DocumentError`.  Each worth
    is stored once in its one exact form: an integral worth as an ``int``,
    only a worth whose denominator is greater than 1 as a Fraction.  The
    core bounds and marginal vectors of a game with integer worths are then
    ints throughout.  Instances are immutable after construction.
    """

    def __init__(self, system: SetSystem, values):
        n = system.n
        table: dict[int, Fraction | int] = {}
        for mask, worth in values.items():
            _check_key(mask, n)
            if mask not in system:
                raise SetNotFeasible(f"value given for {coalition_text(mask, n)}, which is not feasible")
            if isinstance(worth, Fraction):
                table[mask] = worth.numerator if worth.denominator == 1 else worth
            elif isinstance(worth, int) and not isinstance(worth, bool):
                table[mask] = int(worth)
            else:
                raise DocumentError(
                    f"refusing worth {worth!r}; supply an exact rational (an int or a Fraction)"
                )
        self._admit(system, table)

    def _admit(self, system: SetSystem, table: dict) -> None:
        """The check both constructors end with, on a table of feasible masks
        and exact worths: the empty coalition is worth 0, and every feasible
        coalition has a worth, which the table's size shows."""
        if table.get(0, 0) != 0:
            raise DocumentError("the empty coalition must be worth 0")
        table[0] = 0
        if len(table) != len(system):
            missing = next(m for m in system.masks() if m not in table)
            raise DocumentError(f"no value for feasible coalition {coalition_text(missing, system.n)}")
        self.system = system
        self._values = table

    def value(self, mask: int) -> Fraction | int:
        'the stored worth of a mask: an int when it is integral, a Fraction only otherwise'
        _check_key(mask, self.system.n)
        try:
            return self._values[mask]
        except KeyError:
            raise SetNotFeasible(f"{coalition_text(mask, self.system.n)} is not a feasible coalition") from None

    @classmethod
    def from_document(cls, document) -> "Game":
        """Build a game from a parsed ``{"system": ..., "values": {"1,2": "3/2", ...}}``
        document; JSON text is refused with :class:`DocumentError`.

        One pass turns each key into its mask and each worth into its one
        exact form (:func:`~boundedcore.vectors.exact_rational`: no Fraction
        for an integral worth).  A key outside F is refused after that pass,
        so a malformed key or worth anywhere is refused before it; then
        :meth:`_admit` checks the table, as it does for the constructor."""
        if not isinstance(document, dict) or "system" not in document or "values" not in document:
            raise DocumentError('game documents need the keys "system" and "values"')
        system = load_set_system(document["system"])
        if not isinstance(document["values"], dict):
            raise DocumentError('"values" must be an object mapping coalition keys to rationals')
        table: dict[int, Fraction | int] = {}
        for key, raw in document["values"].items():
            if not isinstance(key, str) or key.strip() == "":
                raise DocumentError(f"bad coalition key {key!r} (the empty set is implicit)")
            try:
                players = list(map(int, key.split(",")))
            except ValueError:
                raise DocumentError(f"bad coalition key {key!r}") from None
            mask = system.coalition(players)
            if mask in table:
                raise DocumentError(f"duplicate value for {coalition_text(mask, system.n)}")
            table[mask] = exact_rational(raw)
        if not table.keys() <= system._mask_set:
            stray = next(m for m in table if m not in system)
            raise SetNotFeasible(f"value given for {coalition_text(stray, system.n)}, which is not feasible")
        game = cls.__new__(cls)
        game._admit(system, table)
        return game

    def to_document(self) -> dict:
        values = {}
        for m in self.system.masks():
            if m:
                values[",".join(map(str, members(m)))] = format_rational(self._values[m])
        return {"system": self.system.to_document(), "values": values}


@dataclass(frozen=True)
class InclusionVerdict:
    """The answer and its witness: a core vertex outside the restricted Weber
    set, or an unbounded direction.  The Weber set itself is
    :func:`restricted_weber`'s."""

    holds: bool
    witness: Vector | IntVec | None


def build_restricted_core(game: Game, collection: NormalCollection) -> HPolyhedron:
    """H-form of the core with the collection's inequalities tightened.

    Rows follow canonical coalition order; the collection's sets and the
    grand coalition appear as equalities, every other nonempty feasible set
    as an inequality.  An empty collection yields the plain core.
    """
    system = game.system
    n = system.n
    full = system.universe.full_mask
    frozen = set(collection.sets)
    for c in collection:
        if c not in system:
            raise SetNotFeasible(f"normal set {coalition_text(c, n)} is not feasible")
    inequalities = tuple(
        (indicator(m, n), game.value(m)) for m in system.masks() if m not in frozen and m not in (0, full)
    )
    equalities = tuple(
        (indicator(m, n), game.value(m)) for m in sorted(frozen, key=lambda m: (m.bit_count(), m))
    ) + ((indicator(full, n), game.value(full)),)
    return HPolyhedron(n, inequalities, equalities)


def marginal_vector(game: Game, chain: tuple[int, ...]) -> Vector:
    """Payoffs v(S_i) - v(S_{i-1}) for the player arriving at step i.

    The chain, a tuple of masks, must run from ∅ through n sets, each adding
    one player to the one before it.  The entries are differences of stored worths, so a game
    with integer worths has int marginal vectors.
    """
    if len(chain) != game.system.n + 1:
        raise ChainNotRegularSteps(
            "marginal vectors need a chain adding exactly one player per step"
        )
    if chain[0] != 0:
        raise ChainNotRegularSteps("marginal vectors need a chain starting at the empty coalition")
    n = game.system.n
    payoff = [0] * n
    for a, b in zip(chain, chain[1:]):
        added = a ^ b
        if a & ~b or added.bit_count() != 1:
            raise ChainNotRegularSteps(
                f"chain step {coalition_text(a, n)} -> {coalition_text(b, n)} does not add exactly one player"
            )
        payoff[added.bit_length() - 1] = game.value(b) - game.value(a)
    return tuple(payoff)


def restricted_weber(game: Game, collection: NormalCollection) -> VRepresentation:
    """Convex hull of the marginal vectors of the restricted maximal chains."""
    return VRepresentation(
        dim=game.system.n,
        vertices=tuple(sorted(_restricted_chain_payoffs(game, collection))),
        extremal_rays=(),
        lineality=(),
    )


def is_convex(game: Game) -> bool:
    """Supermodularity, ``v(A∪B) + v(A∩B) >= v(A) + v(B)`` for all A, B in F.

    F must be closed under union and intersection: a distributive lattice,
    of any height.  The inequality is tested on the lattice's squares only:
    for every S in F and every two distinct covers T1, T2 of S, read off
    :func:`~boundedcore.setsystem.covering_pairs`, which meet in S and join
    in T1 ∪ T2.  That suffices, because any pair A, B spans a grid of such
    squares between A ∩ B and A ∪ B, and the squares' inequalities add up
    to the pair's.
    """
    if not is_closed(game.system):
        raise NotClosed("convexity is only defined on union/intersection-closed systems")
    worth = game._values
    for s, covers in covering_pairs(game.system).items():
        for k, t1 in enumerate(covers):
            for t2 in covers[k + 1:]:
                if worth[t1 | t2] + worth[s] < worth[t1] + worth[t2]:
                    return False
    return True


def _weber_premises(system: SetSystem, collection: NormalCollection) -> bool:
    """Does the restricted core lie in the restricted Weber set for every game?

    It does when F is a downset lattice of height n (its own closure, with n
    distinct J_i) and the collection is a chain of feasible sets that bounds
    the core: by the face rule, every covering-pair transfer has weight > 0
    on some frozen set.  Each slab between consecutive frozen sets is then
    an antichain spanning a Boolean interval of F, so the restricted Weber
    set is the product of the slabs' Weber sets, which hold their cores
    (Weber 1988).  For a convex game the restricted core is that set: a
    face of the core, whose vertices are marginal vectors (Shapley 1971).
    """
    if not is_closed(system) or len(set(smallest_sets(system))) != system.n:
        return False
    if not collection.is_nested() or any(c not in system for c in collection):
        return False
    transfers = rays_distributive(extract_poset(system))
    return all(any(weight(t, mask) > 0 for mask in collection) for t in transfers)


def _refuse_unwalkable(system: SetSystem, collection: NormalCollection) -> None:
    """Refuse what has no restricted marginal vectors, before any work.

    The collection must be nested, and the system regular: a chain jumping
    several players at once has no marginal vector.  Then a restricted
    chain exists exactly when every frozen set is feasible, since each
    interval of F between two of its sets holds a maximal chain.
    """
    unnested = collection.unnested_pair()
    if unnested is not None:
        a, b = (coalition_text(m, system.n) for m in unnested)
        raise CollectionNotNested(f"normal sets {a} and {b} are not nested, the Weber set needs a chain")
    if not classify(system).is_regular:
        raise ChainNotRegularSteps(
            "the system has a maximal chain adding several players at one step; "
            "marginal vectors are undefined there"
        )
    if any(c not in system for c in collection):
        raise NoRestrictedChain("no maximal chain passes through every normal set")


def _restricted_chain_payoffs(game: Game, collection: NormalCollection) -> dict[Vector, int]:
    """The distinct marginal vectors of the restricted maximal chains (the
    maximal chains through every set of the collection), each with the
    number of those chains that pay it.

    What has none is refused first (:func:`_refuse_unwalkable`).  On a
    regular system the covers of ``covering_pairs`` are the one-player
    steps, so the walk goes up F in canonical order along them and keeps,
    for each set S, each distinct payoff its chains from ∅ have paid so far
    (zero for the players outside S) with the number of chains paying it.
    A game with few distinct marginal vectors then costs one step per
    cover, however many chains there are.  A chain through every frozen set
    stays inside the smallest frozen set strictly above each of its sets,
    so the walk takes no other step.  Each set's payoffs times the covers
    it takes count as work, and the set that would take the total past
    :data:`MAX_WALK_WORK` raises :class:`WorkBudgetExceeded` before its
    payoffs are carried.
    """
    system = game.system
    _refuse_unwalkable(system, collection)
    full = system.universe.full_mask
    frozen = sorted(collection.sets, key=int.bit_count)
    up = covering_pairs(system)
    worth = game._values
    paid: dict[int, dict[Vector, int]] = {0: {(0,) * system.n: 1}}
    work = 0
    for s in system.masks()[:-1]:
        payoffs = paid.pop(s, None)
        if payoffs is None:
            continue
        cap = next((r for r in frozen if s & ~r == 0 and s != r), full)
        covers = up[s] if cap == full else [t for t in up[s] if t & ~cap == 0]
        work += len(payoffs) * len(covers)
        if work > MAX_WALK_WORK:
            raise WorkBudgetExceeded(
                f"the Weber walk needs {work} payoff steps by its next set, "
                f"more than the work budget of {MAX_WALK_WORK}"
            )
        for t in covers:
            i = (t ^ s).bit_length() - 1
            gain = worth[t] - worth[s]
            above = paid.setdefault(t, {})
            for p, count in payoffs.items():
                q = p[:i] + (gain,) + p[i + 1:]
                above[q] = above.get(q, 0) + count
    return paid[full]


def _dd_vertex(p: Vector) -> Vector | IntVec:
    """A marginal vector as ``dd_generators`` gives a vertex: an int tuple
    when integral, else a tuple of Fractions.  It is integral exactly when
    the worths along its chain are, and those are stored as ints, so an
    integral one is an int tuple already."""
    return p if all(type(c) is int for c in p) else tuple(map(Fraction, p))


def _restricted_core_generators(
    game: Game, collection: NormalCollection, poly: HPolyhedron
) -> VRepresentation:
    """The V-representation of ``poly``, the :func:`build_restricted_core`
    of this game and collection, exactly as ``dd_generators`` gives it.

    When :func:`_weber_premises` hold and the game is convex, no DD runs:
    the vertices are the distinct restricted marginal vectors, in DD's
    sorted order and exact form, with no rays and no lineality.  Otherwise
    DD converts ``poly``.
    """
    if not (_weber_premises(game.system, collection) and is_convex(game)):
        return dd_generators(poly)
    vertices = sorted(map(_dd_vertex, _restricted_chain_payoffs(game, collection)))
    return VRepresentation(
        dim=game.system.n, vertices=tuple(vertices), extremal_rays=(), lineality=()
    )


def verify_inclusion(game: Game, collection: NormalCollection) -> InclusionVerdict:
    """Is the restricted core included in the restricted Weber set?

    A collection or system without restricted marginal vectors is refused
    first, as :func:`restricted_weber` refuses it, before any DD.  On a
    downset lattice of height n, under a nested collection that bounds the
    core, inclusion then holds for every game by Weber's theorem on each
    slab between frozen sets (see :func:`_weber_premises`): no walk and no
    DD run.  Otherwise DD gives the restricted core.  An empty one holds,
    and an unbounded one can never fit in a polytope, so its first
    unbounded direction is returned as the witness; neither builds the
    Weber set.  Otherwise the walk gives the restricted marginal vectors,
    and the core vertices are tested in canonical order; the first one
    outside their hull is the witness.  A vertex equal to a restricted
    marginal vector is a generator of the hull, so it is accepted by a set
    lookup.  Any other vertex x is first tested against the hull's valid
    inequalities ``x(S) <= max p(S)`` over the marginal vectors p, for S in
    F, and one that breaks some of them is the witness at once.  For the
    vertices that pass, the hull's facets are computed once, by running DD
    from V to H on the marginal vectors: the cone ``{f : f·(p, 1) >= 0}``
    is generated by rays f and lineality vectors l, and x lies in the hull
    exactly when ``f·(x, 1) >= 0`` for every f and ``l·(x, 1) = 0`` for
    every l.
    """
    _refuse_unwalkable(game.system, collection)
    if _weber_premises(game.system, collection):
        return InclusionVerdict(holds=True, witness=None)
    core = dd_generators(build_restricted_core(game, collection))
    if core.empty:
        return InclusionVerdict(holds=True, witness=None)
    for direction in tuple(core.lineality) + tuple(core.extremal_rays):
        return InclusionVerdict(holds=False, witness=direction)
    marginals = restricted_weber(game, collection).vertices
    generators = set(marginals)
    upper = facets = None
    for vertex in core.vertices:
        if vertex in generators:
            continue
        if upper is None:
            upper = [(m, max(weight(p, m) for p in marginals)) for m in game.system.masks()]
        if any(weight(vertex, m) > bound for m, bound in upper):
            return InclusionVerdict(holds=False, witness=vertex)
        if facets is None:
            facets = dd_generators(
                HPolyhedron(game.system.n + 1, tuple((p + (1,), 0) for p in marginals))
            )
        point = vertex + (1,)
        if any(dot(f, point) < 0 for f in facets.extremal_rays) or any(
            dot(l, point) for l in facets.lineality
        ):
            return InclusionVerdict(holds=False, witness=vertex)
    return InclusionVerdict(holds=True, witness=None)
