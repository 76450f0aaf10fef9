"""Shared generators and oracle-verification helpers for the test suite."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence
from unittest import mock

from hypothesis import assume
from hypothesis import strategies as st

from boundedcore import (
    DimensionMismatch,
    DocumentError,
    Game,
    HPolyhedron,
    InclusionVerdict,
    LiftOutcome,
    NoFeasibleLift,
    NormalCollection,
    PlayerPoset,
    SetSystem,
    StructureReport,
    VRepresentation,
    algo1_irredundant,
    build_recession_cone,
    build_restricted_core,
    classify,
    closure,
    coalition_text,
    dd_generators,
    downsets,
    extract_poset,
    lift_collection_detailed,
    load_set_system,
    maximal_chains,
    members,
    parse_rational,
    polyhedra,
    restricted_weber,
    weber_collection,
)
from boundedcore.polyhedra import _Sweep
from boundedcore.vectors import IntVec, Vector, dot, format_rational, integerized, primitive


# The independent reference for convex-hull membership: an exact phase-1
# simplex, a different algorithm from the double-description sweep that the
# package tests hull membership with (the facets of the hull, by DD).


def vec(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


def hull_membership(point: Sequence, gens: VRepresentation) -> bool:
    """Exact test of ``point ∈ conv(vertices) + cone(rays) + span(lineality)``.

    Solved as a rational linear feasibility problem (phase-1 simplex with
    Bland's rule), independent of the double-description route.
    """
    p = vec(point)
    if len(p) != gens.dim:
        raise DimensionMismatch(f"point has dimension {len(p)}, generators {gens.dim}")
    for group in (gens.vertices, gens.extremal_rays, gens.lineality):
        for g in group:
            if len(g) != gens.dim:
                raise DimensionMismatch(f"generator {g} is not {gens.dim}-dimensional")
    if gens.empty or not gens.vertices:
        return False
    columns: list[Vector | IntVec] = []
    columns.extend(gens.vertices)
    columns.extend(gens.extremal_rays)
    for l in gens.lineality:
        columns.append(l)
        columns.append(tuple(-c for c in l))
    rows = []
    rhs = []
    for i in range(gens.dim):
        rows.append([c[i] for c in columns])
        rhs.append(p[i])
    convex_row = [Fraction(1)] * len(gens.vertices)
    convex_row += [Fraction(0)] * (len(columns) - len(gens.vertices))
    rows.append(convex_row)
    rhs.append(Fraction(1))
    return _feasible_nonnegative(rows, rhs)


def _feasible_nonnegative(rows: list[list[Fraction | int]], rhs: list[Fraction]) -> bool:
    """Does ``A z = b`` admit ``z >= 0``?  Phase-1 simplex, exact arithmetic."""
    m = len(rows)
    cols = len(rows[0]) if rows else 0
    tab = []
    for row, b in zip(rows, rhs):
        if b < 0:
            tab.append([-c for c in row] + [Fraction(0)] * m + [-b])
        else:
            tab.append(list(row) + [Fraction(0)] * m + [b])
    for i in range(m):
        tab[i][cols + i] = Fraction(1)
    width = cols + m + 1
    obj = [Fraction(0)] * width
    for i in range(m):
        for j in range(cols):
            obj[j] -= tab[i][j]
        obj[width - 1] -= tab[i][width - 1]
    basis = [cols + i for i in range(m)]
    while True:
        enter = next((j for j in range(width - 1) if obj[j] < 0), None)
        if enter is None:
            break
        pivot_row = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width - 1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot_row]):
                    best = ratio
                    pivot_row = i
        assert pivot_row is not None, "phase-1 objective is bounded below"
        # a column of DD's int generators may hold an int pivot: int / int is a float
        piv = Fraction(tab[pivot_row][enter])
        tab[pivot_row] = [c / piv for c in tab[pivot_row]]
        for i in range(m):
            if i != pivot_row and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [c - f * d for c, d in zip(tab[i], tab[pivot_row])]
        if obj[enter]:
            f = obj[enter]
            obj = [c - f * d for c, d in zip(obj, tab[pivot_row])]
        basis[pivot_row] = enter
    return obj[width - 1] == 0


def system(n, *sets):
    return load_set_system({"n": n, "sets": [list(s) for s in sets]})


def reference_render(value) -> str:
    """The report format by the standard library's encoder: the definition the CLI's writer keeps."""
    return json.dumps(value, sort_keys=True, indent=2)


def call_log(monkeypatch, name, *modules, results: list | None = None) -> list[tuple]:
    """Record the positional arguments of every call of ``name`` made through ``modules``,
    and, when a ``results`` list is given, the value each call returns in it.

    Each module's binding is replaced by one wrapper around the function as
    the first module holds it, so calls still do their work.
    """
    log: list[tuple] = []
    original = getattr(modules[0], name)

    def logged(*args, **kwargs):
        log.append(args)
        value = original(*args, **kwargs)
        if results is not None:
            results.append(value)
        return value

    for module in modules:
        monkeypatch.setattr(module, name, logged)
    return log


# the worked examples used throughout the suite
BIRKHOFF_8 = {"n": 4, "sets": [[], [1], [3], [1, 3], [3, 4], [1, 2, 3], [1, 3, 4], [1, 2, 3, 4]]}
LINE_CONE_5SET = {"n": 4, "sets": [[], [1, 2], [2, 3], [3, 4], [1, 2, 3, 4]]}
REGULAR_LIFT_8SET = {
    "n": 4,
    "sets": [[], [1], [2], [1, 3], [2, 3], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4]],
}
WEBER_GAP_10SET = {
    "n": 5,
    "sets": [[], [1], [2], [1, 4], [2, 4], [1, 2, 4], [2, 3, 4], [1, 2, 3, 4], [2, 3, 4, 5], [1, 2, 3, 4, 5]],
}
WEBER_GAP_GAME = {
    "system": WEBER_GAP_10SET,
    "values": {
        "1": "0", "2": "0", "1,4": "1", "2,4": "1", "1,2,4": "2",
        "2,3,4": "1", "1,2,3,4": "2", "2,3,4,5": "2", "1,2,3,4,5": "3",
    },
}
WUC_GAP_6SET = {"n": 4, "sets": [[], [1, 2], [2, 3], [1, 2, 3], [1, 3, 4], [1, 2, 3, 4]]}
HIERARCHY_9_RELS = [[1, 4], [1, 5], [1, 9], [2, 7], [3, 6], [4, 7], [5, 7], [6, 7], [6, 8]]

# smallest regular system whose cone has a non-transfer extremal ray
TRANSFER_GAP_7SET = {"n": 4, "sets": [[], [1], [2], [1, 3], [2, 3], [1, 2, 3], [1, 2, 3, 4]]}

ONE_POINT_HULL_GAME = {
    "system": {"n": 3, "sets": [[], [1], [2], [3], [1, 2], [1, 3], [1, 2, 3]]},
    "values": {"1": "0", "2": "0", "3": "0", "1,2": "1", "1,3": "0", "1,2,3": "3"},
}


def one_point_hull() -> tuple[Game, NormalCollection]:
    """``ONE_POINT_HULL_GAME`` with {2} frozen.

    That leaves one restricted chain, ∅-2-12-123, so the restricted Weber set
    is the point (1, 0, 2); the core is the segment from it to (3, 0, 0).
    """
    game = Game.from_document(ONE_POINT_HULL_GAME)
    return game, NormalCollection((game.system.coalition([2]),), game.system.n, kind="custom")


def reference_closure(f: SetSystem) -> set[int]:
    """Union/intersection closure by pairwise fixpoint: the definition, kept as the oracle."""
    present = set(f.masks())
    work = list(present)
    while work:
        m = work.pop()
        for other in list(present):
            for candidate in (m | other, m & other):
                if candidate not in present:
                    present.add(candidate)
                    work.append(candidate)
    return present


def brute_covering_pairs(f: SetSystem) -> set[tuple[int, int]]:
    """(S, T) with S ⊊ T in F and no set of F strictly between, by testing
    each strict superset T of S against every other one: the definition,
    kept as the oracle for ``covering_pairs``."""
    pairs = set()
    for s in f.masks():
        above = [t for t in f.masks() if t != s and s & ~t == 0]
        pairs.update((s, t) for t in above if not any(u != t and u & ~t == 0 for u in above))
    return pairs


def _longest_covering_walk(f: SetSystem, pairs: set[tuple[int, int]]) -> int:
    """Length of the longest chain from ∅ to N, following the covering ``pairs`` of masks."""
    depth = {m: -1 for m in f.masks()}
    depth[0] = 0
    for s, t in sorted(pairs, key=lambda pair: (pair[0].bit_count(), pair[0])):
        depth[t] = max(depth[t], depth[s] + 1)
    return depth[f.universe.full_mask]


def reference_classify(f: SetSystem) -> StructureReport:
    """Classification from brute-force covering pairs: F is regular when each
    covering pair adds one player, and a height is the longest walk over the
    covering pairs from ∅ to N; F is weakly union-closed when a ∪ b ∈ F for
    every a, b ∈ F with a ∩ b ≠ ∅; closedness and the closure's height come
    from the pairwise closure."""
    pairs = brute_covering_pairs(f)
    closed = SetSystem.from_masks(f.n, reference_closure(f))
    is_closed = len(closed) == len(f)
    return StructureReport(
        is_regular=all((t & ~s).bit_count() == 1 for s, t in pairs),
        is_weakly_union_closed=all(a | b in f for a in f.masks() for b in f.masks() if a & b),
        is_union_intersection_closed=is_closed,
        height=_longest_covering_walk(f, pairs),
        closure_height=_longest_covering_walk(closed, pairs if is_closed else brute_covering_pairs(closed)),
    )


def reference_downsets(poset: PlayerPoset) -> list[int]:
    """Downsets by filtering all 2^n masks."""
    below = poset.below
    return [
        m
        for m in range(1 << poset.n)
        if all(below[i] & ~m == 0 for i in range(poset.n) if m >> i & 1)
    ]


def reference_rays_regular(f: SetSystem, seed: int = 0) -> list[IntVec]:
    """Transfer rays of a regular system by the chain-rank walk over every maximal chain.

    Walk the order of chain number ``seed``; every pair (i, j) with j ranked
    after i in *every* maximal chain is a candidate ray (1_i, -1_j), and
    candidates that are sums of two others are removed.
    """
    orders = [chain_order(c) for c in maximal_chains(f)]
    rank = [{p: pos for pos, p in enumerate(o)} for o in orders]
    reference = orders[seed]
    candidates = {
        (i, j)
        for a, i in enumerate(reference)
        for j in reference[a + 1:]
        if all(r[j] > r[i] for r in rank)
    }
    # a candidate (i, j) with a waypoint k is the sum (1_i,-1_k) + (1_k,-1_j)
    chosen = [
        (i, j)
        for i, j in sorted(candidates)
        if not any((i, k) in candidates and (k, j) in candidates for k in range(1, f.n + 1))
    ]
    return [tuple(1 if p == i else -1 if p == j else 0 for p in range(1, f.n + 1)) for i, j in chosen]


def chain_order(chain) -> tuple[int, ...]:
    """Players in order of arrival along a chain of masks adding one player per step."""
    out = []
    for a, b in zip(chain, chain[1:]):
        added = b & ~a
        assert a & ~b == 0 and added.bit_count() == 1, f"{a:b} -> {b:b} is no one-player step"
        out.append(added.bit_length())
    return tuple(out)


def reference_restricted_chains(system: SetSystem, collection) -> list[tuple[int, ...]]:
    """Every maximal chain, filtered to those holding each set of the collection."""
    wanted = set(collection)
    return [chain for chain in maximal_chains(system) if wanted <= set(chain)]


def reference_equals_closure_cone(f: SetSystem) -> bool:
    """Cone equality by a second DD run on the closure; canonical forms are unique."""
    own = dd_generators(build_recession_cone(f))
    closed = dd_generators(build_recession_cone(closure(f)))
    return (
        set(own.extremal_rays) == set(closed.extremal_rays)
        and own.lineality == closed.lineality
    )


def reference_lift(system: SetSystem, candidate: NormalCollection, rays) -> LiftOutcome:
    """The lift with an oracle run after every repair step.

    Replacements as in ``lift_collection_detailed``, with the face rule
    stated on the transfers themselves: freezing S removes a closure ray
    exactly when S holds its receiving player (+1) and not its paying
    player (-1).  Then, while DD of the cone frozen on the chosen sets finds
    a line or a ray, append the canonical-first feasible set on which the
    first such direction is not zero.
    """

    def removes(ray, coalition: int) -> bool:
        return bool(coalition >> ray.index(1) & 1) and not coalition >> ray.index(-1) & 1

    def key(mask: int) -> tuple[int, int]:
        return (mask.bit_count(), mask)

    full = system.universe.full_mask
    feasible = [m for m in system.masks() if m not in (0, full)]
    chosen: list[int] = []
    replacements = []
    for original in candidate:
        if original in system:
            if original not in chosen:
                chosen.append(original)
            continue
        removed = [r for r in rays if removes(r, original)]
        options = [
            c
            for c in feasible
            if original & ~c == 0 and all(removes(r, c) for r in removed)
        ]
        if not options:
            replacements.append((original, None, ()))
            continue
        best = min(options, key=key)
        ties = tuple(c for c in options if c.bit_count() == best.bit_count() and c != best)
        replacements.append((original, best, ties))
        if best not in chosen:
            chosen.append(best)

    extra: list[int] = []
    while True:
        gens = dd_generators(build_recession_cone(system, zero_sets=tuple(chosen)))
        surviving = list(gens.lineality) + list(gens.extremal_rays)
        if not surviving:
            break
        direction = surviving[0]
        killers = [
            c
            for c in feasible
            if c not in chosen
            and sum(direction[p - 1] for p in members(c)) != 0
        ]
        if not killers:
            raise NoFeasibleLift(
                "no feasible coalition can remove the unbounded direction "
                f"({','.join(format_rational(x) for x in direction)})"
            )
        pick = min(killers, key=key)
        chosen.append(pick)
        extra.append(pick)

    if not replacements and not extra:
        return LiftOutcome(candidate, (), ())
    return LiftOutcome(
        NormalCollection(tuple(chosen), system.n, kind="custom"),
        tuple(replacements),
        tuple(extra),
    )


def reference_verify_inclusion(game: Game, collection: NormalCollection) -> InclusionVerdict:
    """Core inside the restricted Weber set, with every core vertex sent through the simplex."""
    weber = restricted_weber(game, collection)
    core = dd_generators(build_restricted_core(game, collection))
    return _inclusion_by_simplex(weber, core)


def _inclusion_by_simplex(weber: VRepresentation, core: VRepresentation) -> InclusionVerdict:
    if core.empty:
        return InclusionVerdict(holds=True, witness=None)
    for direction in tuple(core.lineality) + tuple(core.extremal_rays):
        return InclusionVerdict(holds=False, witness=direction)
    for vertex in core.vertices:
        if not hull_membership(vertex, weber):
            return InclusionVerdict(holds=False, witness=vertex)
    return InclusionVerdict(holds=True, witness=None)


class FractionGame:
    """A game with every worth held as a Fraction, integral ones included.

    It answers ``system`` and ``value`` as :class:`Game` does, so its core
    and marginal vectors are built by the same functions, in Fractions only."""

    def __init__(self, system: SetSystem, worths: dict):
        self.system = system
        self._values = {0: Fraction(0)} | {mask: Fraction(w) for mask, w in worths.items()}

    def value(self, mask: int) -> Fraction:
        return self._values[mask]


def reference_fraction_generators(poly: HPolyhedron) -> VRepresentation:
    """``dd_generators`` on a polyhedron with nonzero bounds, every vertex a
    tuple of Fractions: rows are scaled by the lcm of their Fraction
    denominators, the homogenised cone is swept without the prefilter, and
    each ray with t > 0 is divided by t."""
    n = poly.dim

    def homogenised(rows):
        out = []
        for a, b in rows:
            row = [Fraction(c) for c in a] + [-Fraction(b)]
            scale = lcm(*[c.denominator for c in row])
            out.append(primitive([int(c * scale) for c in row]))
        return out

    with mock.patch.object(polyhedra, "_Sweep", _UnfilteredSweep):
        lin, rays = polyhedra._dd_cone(
            n + 1,
            homogenised(poly.equalities),
            [(0,) * n + (1,)] + homogenised(poly.inequalities),
        )
    vertices = sorted(tuple(Fraction(c, r[n]) for c in r[:n]) for r in rays if r[n])
    if not vertices:
        return VRepresentation(dim=n, vertices=(), extremal_rays=(), lineality=(), empty=True)
    return VRepresentation(
        dim=n,
        vertices=tuple(vertices),
        extremal_rays=tuple(sorted(r[:n] for r in rays if not r[n])),
        lineality=tuple(l[:n] for l in lin),
    )


def reference_fraction_inclusion(game: FractionGame, collection: NormalCollection) -> InclusionVerdict:
    """:func:`reference_verify_inclusion` with every worth, marginal vector and core vertex a Fraction."""
    weber = restricted_weber(game, collection)
    core = reference_fraction_generators(build_restricted_core(game, collection))
    return _inclusion_by_simplex(weber, core)


class _UnfilteredSweep(_Sweep):
    """The double-description step with the combinatorial adjacency test on every
    (+,-) pair, taking the rows in the order they are listed."""

    def insert(self, rows):
        for a in rows:
            self.add_halfspace(a)

    def add_halfspace(self, a):
        if any(dot(a, l) for l in self.lin):
            return super().add_halfspace(a)
        here = 1 << self.row_count
        self.row_count += 1
        signed = [(r, t, dot(a, r)) for r, t in zip(self.rays, self.tight)]
        rays = [r for r, _, s in signed if s >= 0]
        tight = [t | here if s == 0 else t for _, t, s in signed if s >= 0]
        plus = [x for x in signed if x[2] > 0]
        minus = [x for x in signed if x[2] < 0]
        for rp, tp, sp in plus:
            for rm, tm, sm in minus:
                common = tp & tm
                if any(
                    o is not rp and o is not rm and to & common == common
                    for o, to in zip(self.rays, self.tight)
                ):
                    continue
                rays.append(primitive([sp * cm - sm * cp for cp, cm in zip(rp, rm)]))
                tight.append(common | here)
        self.rays = rays
        self.tight = tight


def reference_row_echelon(rows) -> list[tuple[int, ...]]:
    """Reduced row-echelon basis by elimination over Fraction, each row then
    scaled to a primitive integer vector with a positive pivot."""
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    for row in ([Fraction(c) for c in r] for r in rows):
        for b, p in zip(basis, pivots):
            if row[p]:
                f = row[p] / b[p]
                row = [c - f * d for c, d in zip(row, b)]
        pivot = next((j for j, c in enumerate(row) if c), None)
        if pivot is None:
            continue
        for b, p in zip(basis, pivots):
            if b[pivot]:
                f = b[pivot] / row[pivot]
                b[:] = [c - f * d for c, d in zip(b, row)]
        basis.append(row)
        pivots.append(pivot)
    out = []
    for p, b in sorted(zip(pivots, basis)):
        v = integerized(b)
        out.append(v if v[p] > 0 else tuple(-c for c in v))
    return out


def reference_dd_generators(poly) -> VRepresentation:
    """``dd_generators`` with the sweep's rank prefilter taken out."""
    with mock.patch.object(polyhedra, "_Sweep", _UnfilteredSweep):
        return dd_generators(poly)


@st.composite
def poset_downsets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    players = draw(st.permutations(range(1, n + 1)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    relations = [[players[i], players[j]] for i, j in chosen]
    return downsets(PlayerPoset.from_relations(n, relations))


@st.composite
def separating_systems(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    full = (1 << n) - 1
    inner = draw(st.sets(st.integers(min_value=1, max_value=full - 1), min_size=n, max_size=2 * n))
    masks = inner | {0, full}
    assume(len({tuple(m >> i & 1 for m in masks) for i in range(n)}) == n)
    return SetSystem.from_masks(n, masks)


@st.composite
def nonseparating_systems(draw):
    """Random systems in which two players share every set, so their transfer is a line."""
    n = draw(st.integers(min_value=2, max_value=6))
    full = (1 << n) - 1
    i, j = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=2, unique=True))
    inner = draw(st.sets(st.integers(min_value=1, max_value=full - 1), max_size=2 * n))
    masks = {m & ~(1 << j) | (m >> i & 1) << j for m in inner} | {0, full}
    return SetSystem.from_masks(n, masks)


# an int, or p/q with q <= 4 given as a Fraction (which may be integral, like 4/2)
_MIXED_WORTHS = st.one_of(
    st.integers(min_value=-8, max_value=8),
    st.builds(Fraction, st.integers(min_value=-8, max_value=8), st.integers(min_value=1, max_value=4)),
)


def _draw_mixed_worths(draw, rng, f: SetSystem) -> dict:
    """Half the time every worth drawn at random; otherwise the worths of an
    int convex game with some of them (never v(N)) lowered by a drawn
    amount, which keeps its core nonempty."""
    if draw(st.booleans()):
        return {m: draw(_MIXED_WORTHS) for m in f.masks() if m}
    convex = random_convex_game(rng, f)
    worths = {m: convex.value(m) for m in f.masks() if m}
    for mask in sorted(worths)[:-1]:
        if draw(st.booleans()):
            worths[mask] -= abs(draw(_MIXED_WORTHS))
    return worths


def _draw_chain_part(draw, f: SetSystem) -> NormalCollection:
    'some of the inner sets of one maximal chain: a nested collection'
    chain = draw(st.sampled_from(maximal_chains(f)))
    frozen = draw(st.lists(st.sampled_from(chain[1:-1]), unique=True)) if len(chain) > 2 else []
    return NormalCollection(tuple(sorted(frozen, key=lambda m: (m.bit_count(), m))), f.n, kind="custom")


@st.composite
def mixed_games(draw):
    """A regular or a closed system, raw worths mixing ints and p/q with
    q <= 4, and a nested collection that some maximal chain passes through.

    Systems have at most 4 players: the reference sends every core vertex
    through the simplex, and on the 5-player power set with random worths
    that alone took over 20 s for one game.

    Worths are drawn by :func:`_draw_mixed_worths`.  On a closed system the
    collection is either the Weber collection, which bounds the core, or
    part of a maximal chain.
    """
    n = draw(st.integers(min_value=2, max_value=4))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    closed = draw(st.booleans())
    f = downsets(random_poset(rng, n)) if closed else random_regular_system(rng, n)
    worths = _draw_mixed_worths(draw, rng, f)
    if closed and draw(st.booleans()):
        return f, worths, weber_collection(algo1_irredundant(extract_poset(f)))
    return f, worths, _draw_chain_part(draw, f)


@st.composite
def inclusion_games(draw):
    """A game on a regular system with 2-5 players, worths as in
    :func:`mixed_games`, and a nested collection: part of a maximal chain,
    or the closure's Weber collection, lifted into the system when it is not
    closed (the lift bounds the core but need not stay nested).

    Five players are affordable for the simplex reference here because
    :func:`random_regular_system` is far sparser than the power set: on 200
    such games with n = 2-5 and the Weber collection it took 1.2 s in all
    (Python 3.11 on a 2-vCPU VM).
    """
    n = draw(st.integers(min_value=2, max_value=5))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    f = random_regular_system(rng, n)
    worths = _draw_mixed_worths(draw, rng, f)
    if draw(st.booleans()):
        return Game(f, worths), _draw_chain_part(draw, f)
    poset = extract_poset(closure(f))
    collection = weber_collection(algo1_irredundant(poset))
    if len(closure(f)) != len(f):
        collection = lift_collection_detailed(f, collection).collection
    return Game(f, worths), collection


def reference_game_from_document(document) -> Game:
    """:meth:`Game.from_document` in two passes: every worth read into a
    Fraction by ``parse_rational``, and the table then checked by ``Game``."""
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
        mask = system.coalition(players)
        if mask in values:
            raise DocumentError(f"duplicate value for {coalition_text(mask, system.n)}")
        values[mask] = parse_rational(raw)
    return Game(system, values)


# every way a document may write an integral worth k, and a fraction p/q
_WORTH_TEXTS = (
    lambda k: k,
    lambda k: str(k),
    lambda k: f"+{k}" if k >= 0 else str(k),
    lambda k: f"{'-' if k < 0 else ''}000{abs(k)}",
    lambda k: f"  {k} ",
    lambda k: f"{3 * k}/3",
    lambda k: "-0" if k == 0 else f"{2 * k}/0002",
)
# keys and worths a game document must refuse, each with the word it is refused for
_BAD_KEYS = ("", " ", "one", "1,,2", "1;2", "1.0", "9", "0", "-1")
_BAD_WORTHS = (0.5, True, None, "1/0", "-0/00", "1.5", "1_0", "1e3", "abc", "", "1/-2", [1], "1" * 5000)


@st.composite
def game_documents(draw):
    """A game document with 1-4 players whose keys list their players in any
    order, with spaces around them, and whose worths are ints or strings
    written in every form :data:`_WORTH_TEXTS` allows; half the time with
    one to three faults drawn from missing, infeasible, repeated, malformed
    and out-of-range keys and inexact worths."""
    n = draw(st.integers(min_value=1, max_value=4))
    full = (1 << n) - 1
    inner = draw(st.sets(st.integers(min_value=1, max_value=full), max_size=2 * n)) - {full}
    masks = sorted({0, full} | inner, key=lambda m: (m.bit_count(), m))
    document = {"n": n, "sets": [list(members(m)) for m in masks]}

    def key_of(mask):
        players = draw(st.permutations(members(mask)))
        pads = draw(st.lists(st.sampled_from(["", " ", "  "]), min_size=len(players), max_size=len(players)))
        return ",".join(f"{pad}{p}" for pad, p in zip(pads, players))

    def worth():
        if draw(st.booleans()):
            return draw(st.sampled_from(_WORTH_TEXTS))(draw(st.integers(min_value=-20, max_value=20)))
        p, q = draw(st.integers(min_value=-20, max_value=20)), draw(st.integers(min_value=1, max_value=6))
        return f"{p}/{q}"

    items = [(key_of(m), worth()) for m in masks[1:]]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            fault = draw(st.sampled_from(("missing", "infeasible", "repeated", "bad key", "bad worth")))
            at = draw(st.integers(min_value=0, max_value=len(items)))
            if fault == "missing" and items:
                items.pop(min(at, len(items) - 1))
            elif fault == "infeasible" and len(masks) < 1 << n:
                stray = draw(st.sampled_from([m for m in range(1, full) if m not in masks]))
                items.insert(at, (key_of(stray), worth()))
            elif fault == "repeated" and items:
                (key, _) = items[min(at, len(items) - 1)]
                items.insert(at, (",".join(reversed(key.split(","))), worth()))
            elif fault == "bad key":
                items.insert(at, (draw(st.sampled_from(_BAD_KEYS)), worth()))
            elif fault == "bad worth" and items:
                key, _ = items[min(at, len(items) - 1)]
                items[min(at, len(items) - 1)] = (key, draw(st.sampled_from(_BAD_WORTHS)))
    return {"system": document, "values": dict(items)}


def random_poset(rng, n, edge_probability=0.35) -> PlayerPoset:
    players = list(range(1, n + 1))
    rng.shuffle(players)
    relations = [
        [players[i], players[j]]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_probability
    ]
    return PlayerPoset.from_relations(n, relations)


def random_regular_system(rng, n) -> SetSystem:
    """Fair mix of downset lattices and prefix-chain unions (rejection-sampled)."""
    full = (1 << n) - 1
    while True:
        if rng.random() < 0.5:
            return downsets(random_poset(rng, n))
        masks = {0, full}
        for _ in range(rng.randint(1, 4)):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            mask = 0
            for p in perm:
                mask |= 1 << (p - 1)
                masks.add(mask)
        candidate = SetSystem.from_masks(n, masks)
        if classify(candidate).is_regular:
            return candidate


def random_game(rng, system: SetSystem) -> Game:
    values = {
        m: Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for m in system.masks() if m
    }
    return Game(system, values)


def random_convex_game(rng, system: SetSystem) -> Game:
    """Quadratic worths: additive part plus nonnegative pairwise synergies."""
    n = system.n
    additive = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
    synergy = {
        (i, j): Fraction(rng.randint(0, 4))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    values = {}
    for m in system.masks():
        if not m:
            continue
        players = members(m)
        worth = sum(additive[p - 1] for p in players)
        worth += sum(synergy[(i, j)] for k, i in enumerate(players) for j in players[k + 1:])
        values[m] = worth
    return Game(system, values)


def reference_is_convex(game: Game) -> bool:
    """Supermodularity ``v(A∪B) + v(A∩B) >= v(A) + v(B)`` over every pair of
    a closed system: the pairwise scan :func:`boundedcore.is_convex` replaced
    by its test on the lattice's squares."""
    masks = game.system.masks()
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if game.value(a | b) + game.value(a & b) < game.value(a) + game.value(b):
                return False
    return True


def bonus_power_game(n: int, seed: int, denominator: int = 1, without=()) -> Game:
    """v(S) = (|S|² + b(S)·|S|) / denominator on the n-player power set, or
    on the power set less the masks in ``without``, with b(S) ∈ {0, 1}
    drawn by ``random.Random(seed)`` in mask order over the system's sets.

    The bonus breaks convexity, so many core vertices are no marginal
    vector, yet on the power set the core stays inside the Weber set for
    every seed, by Weber's theorem.
    """
    rng = random.Random(seed)
    masks = [m for m in range(1 << n) if m not in without]
    worths = {
        m: Fraction(m.bit_count() ** 2 + rng.randint(0, 1) * m.bit_count(), denominator)
        for m in masks[1:]
    }
    return Game(SetSystem.from_masks(n, masks), worths)


def from_rows(dim, inequalities, equalities=()) -> HPolyhedron:
    """An H-polyhedron from ``(coefficients, bound)`` rows of ints or rationals."""
    ineq = tuple((vec(a), Fraction(b)) for a, b in inequalities)
    eq = tuple((vec(a), Fraction(b)) for a, b in equalities)
    return HPolyhedron(dim, ineq, eq)


def contains_point(poly: HPolyhedron, x) -> bool:
    p = vec(x)
    if len(p) != poly.dim:
        raise DimensionMismatch(f"point {x} is not {poly.dim}-dimensional")
    return all(dot(a, p) >= b for a, b in poly.inequalities) and all(
        dot(a, p) == b for a, b in poly.equalities
    )


def admits_direction(poly: HPolyhedron, d) -> bool:
    """Does the recession cone of ``poly`` contain this direction?"""
    r = vec(d)
    if len(r) != poly.dim:
        raise DimensionMismatch(f"direction {d} is not {poly.dim}-dimensional")
    return all(dot(a, r) >= 0 for a, _ in poly.inequalities) and all(
        dot(a, r) == 0 for a, _ in poly.equalities
    )


def is_origin_only(gens: VRepresentation) -> bool:
    return (
        not gens.empty
        and not gens.extremal_rays
        and not gens.lineality
        and gens.vertices == (tuple(Fraction(0) for _ in range(gens.dim)),)
    )


def assert_generators_satisfy(poly, gens: VRepresentation) -> None:
    """Minkowski-Weyl faithfulness: every generator obeys every row exactly."""
    for v in gens.vertices:
        assert contains_point(poly, v), f"vertex {v} violates a constraint"
    for r in gens.extremal_rays:
        assert admits_direction(poly, r), f"ray {r} violates a homogeneous constraint"
    for l in gens.lineality:
        assert admits_direction(poly, l) and admits_direction(poly, tuple(-c for c in l)), (
            f"lineality vector {l} is not two-sided feasible"
        )


def assert_generators_extremal(gens: VRepresentation) -> None:
    """Leave-one-out: no listed generator is implied by the others."""
    origin = tuple(Fraction(0) for _ in range(gens.dim))
    for i, ray in enumerate(gens.extremal_rays):
        rest = gens.extremal_rays[:i] + gens.extremal_rays[i + 1:]
        sub = VRepresentation(gens.dim, (origin,), rest, gens.lineality)
        assert not hull_membership(ray, sub), f"ray {ray} is a combination of the others"
    for i, vertex in enumerate(gens.vertices):
        rest = gens.vertices[:i] + gens.vertices[i + 1:]
        sub = VRepresentation(gens.dim, rest, gens.extremal_rays, gens.lineality)
        assert not hull_membership(vertex, sub), f"vertex {vertex} is implied by the others"
