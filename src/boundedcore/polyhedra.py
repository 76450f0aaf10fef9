"""Exact H-to-V conversion for small rational polyhedra.

This module is the ground truth the structure-aware algorithms are checked
against, so it trades speed for being unconditionally correct:

* all arithmetic is exact.  A row holding a Fraction is scaled once, on
  entry, into a primitive integer vector; an all-int row is taken as given,
  since a positive multiple of a row cuts the same halfspace and every
  generator the sweep forms is made primitive.  The sweep and the echelon
  form of the lineality run on Python ints throughout.  What comes out
  follows the package's one rule, an integral value is an int: extremal
  rays and lineality vectors are :data:`~boundedcore.vectors.IntVec`
  tuples, and so is every integral vertex, a pure cone's origin included.
  :class:`fractions.Fraction` is used only for a vertex that is not
  integral;
* the cone engine is a double-description sweep that carries the lineality
  space explicitly, so cones containing lines come out right;
* output is canonical: lineality bases are in integer reduced row-echelon
  form with positive pivots, rays and vertices are reduced modulo the
  lineality (their lineality-pivot coordinates are zero), rays are primitive
  integer vectors, and all lists are sorted.  Identical polyhedra therefore
  serialize identically;
* the same sweep also runs from V to H: on the rows ``(p, 1)`` of a finite
  point set it generates the cone ``{f : f·(p, 1) >= 0}``, whose rays and
  lineality are the facets and the affine hull of the points' convex hull.
  ``core_weber.verify_inclusion`` tests core vertices against the
  restricted Weber set that way.

The sweep state is a pair ``(lin, rays)`` of primitive integer vectors
generating the cone cut out by the rows processed so far:
``span(lin) + cone(rays)``.  During the sweep ``lin`` is any basis of the
lineality; it is put in canonical echelon form once, at the end.  Inserting a
halfspace ``a·x >= 0`` takes one of two forms.  If some lineality vector
leaves the hyperplane, the lineality shrinks by one dimension and the leaving
vector (signed into the halfspace) joins the rays; every other generator is
combined with it to land on the hyperplane.  Otherwise the classical step
applies (Fukuda & Prodon, "Double description method revisited", 1996): rays
on the wrong side are dropped and adjacent (+,-) pairs contribute their
combination on the hyperplane.  Adjacency is decided combinatorially from the
sets of already-processed rows tight at each ray.  A new ray's tight set is
the intersection of its parents' tight sets plus the new row: both
coefficients of the combination are positive and both parents satisfy every
processed row, so a row is tight at the combination exactly when it is tight
at both.  Equality rows are two opposite halfspaces.

Before that scan, a pair is dropped when its common tight set has fewer than
``dim - dim(lineality) - 2 + e`` rows, for e equalities processed (Fukuda &
Prodon's necessary condition).  Two rays are adjacent exactly when, with the
lineality, they span a 2-face, of dimension ``dim(lineality) + 2``; the rows
tight on that face cut it out, so their rank is ``dim - dim(lineality) - 2``.
Both halves of each processed equality are tight at every ray but add at
most one to the rank, so a tight set has at least e rows more than its
rank.  The filter therefore drops only non-adjacent pairs, and every pair it
keeps still goes through the full combinatorial test.

The equalities go first.  The inequality rows then go in as listed while the
lineality lasts.  Once it is gone, the next listed row stays next unless its
step would form more (+,-) pairs than the sweep holds rays; then every
remaining row is scored by its pairs, and the one with the fewest, the first
listed on ties, goes in instead, with the values it was scored by, which are
read off the columns of the rays, transposed once per scoring.  A fixed order
can blow up (Fukuda & Prodon 1996; Avis, Bremner & Seidel, "How good are
convex hull algorithms?", 1997): on a sparse 16-player system whose cone is
the origin, the listed order holds up to 8,300 rays at once, the rule 304.
The rule has no tuning constant, and since the output is canonical whatever
the order, it cannot change a result.

Each call pays for its sweep in work: the (+,-) pairs a classical step
tests and, for each row the rule scores, the rays it is read against.  The
step or scoring that would take the total past :data:`MAX_DD_WORK` raises
:class:`~boundedcore.errors.WorkBudgetExceeded` before it runs, so no input
runs away inside one step.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from operator import mul

from .errors import DimensionMismatch, WorkBudgetExceeded
from .vectors import IntVec, Vector, integerized, primitive

Row = tuple[IntVec | Vector, Fraction | int]

# the most (+,-) pair tests and row-by-ray scorings one dd_generators call makes (README "Limits")
MAX_DD_WORK = 30_000_000

_BINARY = frozenset((0, 1))
_INT = frozenset((int,))


@dataclass(frozen=True)
class HPolyhedron:
    """``{x : A x >= b, E x = d}`` with exact rows of ints or Fractions.

    A coalition's row is its 0/1 :data:`IntVec`; a bound is a game value (an
    int when it is integral, a Fraction otherwise) or, on a recession cone,
    the int 0.
    """

    dim: int
    inequalities: tuple[Row, ...]
    equalities: tuple[Row, ...] = ()

    def __post_init__(self):
        for coeffs, _ in self.inequalities + self.equalities:
            if len(coeffs) != self.dim:
                raise DimensionMismatch(f"row {coeffs} is not {self.dim}-dimensional")


@dataclass(frozen=True)
class VRepresentation:
    """``conv(vertices) + cone(extremal_rays) + span(lineality)``.

    ``empty`` is the emptiness signal: an empty polyhedron reports empty
    generator lists and the flag, never an exception.  From
    :func:`dd_generators`, rays and lineality vectors are primitive
    :data:`IntVec` tuples, and a vertex is an :data:`IntVec` exactly when it
    is integral and a tuple of Fractions otherwise.
    """

    dim: int
    vertices: tuple[Vector | IntVec, ...]
    extremal_rays: tuple[IntVec | Vector, ...]
    lineality: tuple[IntVec | Vector, ...]
    empty: bool = False


def _row_echelon(rows: list[IntVec]) -> list[IntVec]:
    """Integer reduced row-echelon basis of the span of ``rows``.

    Pivot entries are positive, pivot columns are zero in every other row,
    rows are primitive and ordered by pivot column.  This form is unique for
    a given subspace, which makes basis comparison a plain equality test.
    Each row is reduced against the basis, signed to a positive leading
    entry, and then clears its pivot column from the earlier rows; a row's
    leading entry stays its pivot throughout, as :func:`_reduce_int_mod` needs.
    """
    basis: list[IntVec] = []
    for row in rows:
        row = _reduce_int_mod(basis, row)
        lead = next((c for c in row if c), 0)
        if not lead:
            continue
        if lead < 0:
            row = tuple(-c for c in row)
        basis = [_reduce_int_mod([row], b) for b in basis]
        basis.append(row)
    return sorted(basis, key=lambda b: next(j for j, c in enumerate(b) if c))


def _reduce_int_mod(basis: list[IntVec], v: IntVec) -> IntVec:
    """Zero out the basis pivot coordinates of ``v`` (positive rescaling allowed)."""
    out = list(v)
    for b in basis:
        p = next(j for j, c in enumerate(b) if c)
        if out[p]:
            lead = b[p]
            out = [lead * c - out[p] * d for c, d in zip(out, b)]
    return primitive(out)


class _Sweep:
    """Double-description state: lineality basis, rays, tight-row bitmasks."""

    def __init__(self, dim: int):
        self.dim = dim
        self.lin: list[IntVec] = [(0,) * i + (1,) + (0,) * (dim - 1 - i) for i in range(dim)]
        self.rays: list[IntVec] = []
        self.tight: list[int] = []
        self.row_count = 0  # halfspaces processed; row k is bit k of a tight mask
        self.equalities = 0  # equality rows processed, each as two opposite halfspaces
        self.work = 0  # pair tests and row-by-ray scorings made so far

    def spend(self, work: int) -> None:
        """Count ``work`` more pair tests or scorings, refusing before the sweep
        would pass :data:`MAX_DD_WORK`."""
        total = self.work + work
        if total > MAX_DD_WORK:
            raise WorkBudgetExceeded(
                f"the double-description run needs {total} pair tests and row scorings "
                f"by its next step, more than the work budget of {MAX_DD_WORK}"
            )
        self.work = total

    def values(self, a: IntVec) -> list[int]:
        'a·r for each ray r, in ray order'
        if _BINARY.issuperset(a):  # a coalition's 0/1 row sums each ray over its members
            return [sum(compress(r, a)) for r in self.rays]
        return [sum(map(mul, a, r)) for r in self.rays]

    def insert(self, rows: list[IntVec]) -> None:
        """Insert the halfspaces ``a·x >= 0`` of the nonzero ``rows`` by the row-order rule.

        Rows go in as listed while the lineality lasts.  After that, the
        next listed row stays next unless its step would form more (+,-)
        pairs than the sweep holds rays; then the remaining row with the
        fewest pairs, the first listed on ties, goes in instead, with the
        values it was scored by.
        """
        rows = list(rows)
        k = 0  # rows[k:] remain, in their listed order
        while k < len(rows) and self.lin:
            self.add_halfspace(rows[k])
            k += 1
        while k < len(rows):
            values = self.values(rows[k])
            if self._step(values, most=len(self.rays)):
                k += 1
                continue
            pick, values = self._fewest_pairs(rows, k, values)
            if pick == k:
                k += 1
            else:
                del rows[pick]
            self._step(values)

    def _fewest_pairs(self, rows: list[IntVec], k: int, values: list[int]) -> tuple[int, list[int]]:
        """The index of the first of ``rows[k:]`` whose step forms the fewest
        pairs, and that row's values; ``values`` are those of rows[k]."""
        pick, fewest = k, _pairs(values)
        columns = list(zip(*self.rays))  # every row is read against the same rays
        for j in range(k + 1, len(rows)):
            self.spend(len(self.rays))
            scored = _products(rows[j], columns)
            pairs = _pairs(scored)
            if pairs < fewest:
                pick, values, fewest = j, scored, pairs
                if not pairs:
                    break
        return pick, values

    def add_halfspace(self, a: IntVec) -> None:
        """Insert ``a·x >= 0`` for a nonzero row a."""
        for k, l in enumerate(self.lin):
            alpha = sum(map(mul, a, l))
            if alpha:
                here = 1 << self.row_count
                self.row_count += 1
                l0 = self.lin.pop(k)
                if alpha < 0:
                    l0 = tuple(-c for c in l0)
                    alpha = -alpha
                # l0 is orthogonal to every processed row, so the projections keep
                # their tight rows; the lineality vectors listed before l0 lie on a's
                # hyperplane already
                self.lin[k:] = _onto(a, alpha, l0, self.lin[k:])
                self.rays = _onto(a, alpha, l0, self.rays) + [l0]
                self.tight = [m | here for m in self.tight] + [here - 1]
                return
        self._step(self.values(a))

    def _step(self, values: list[int], most: int | None = None) -> bool:
        """The classical step for a row whose values on the rays are ``values``
        (every lineality vector lies on its hyperplane), unless it would form
        more than ``most`` (+,-) pairs; says whether it was taken."""
        here = 1 << self.row_count
        if min(values, default=0) >= 0:  # no ray leaves, so no pair forms
            self.row_count += 1
            self.tight = [t if s else t | here for t, s in zip(self.tight, values)]
            return True
        keep: list[IntVec] = []
        keep_tight: list[int] = []
        plus: list[tuple[IntVec, int, int]] = []
        minus: list[tuple[IntVec, int, int]] = []
        for r, t, s in zip(self.rays, self.tight, values):
            if s == 0:
                keep.append(r)
                keep_tight.append(t | here)
            elif s > 0:
                keep.append(r)
                keep_tight.append(t)
                plus.append((r, t, s))
            else:
                minus.append((r, t, s))
        if most is not None and len(plus) * len(minus) > most:
            return False
        self.spend(len(plus) * len(minus))
        self.row_count += 1
        all_tight = self.tight
        # a 2-face has tight-row rank dim - dim(lineality) - 2; equalities count twice
        need = self.dim - len(self.lin) - 2 + self.equalities
        for rp, tp, sp in plus:
            for rm, tm, sm in minus:
                common = tp & tm
                if common.bit_count() < need:
                    continue
                # adjacent exactly when no ray but rp and rm is tight on all of common
                holders = 0
                for to in all_tight:
                    if to & common == common:
                        holders += 1
                        if holders > 2:
                            break
                if holders > 2:
                    continue
                # both coefficients are positive and both parents satisfy every
                # processed row, so the combination is tight exactly where both are
                keep.append(primitive([sp * cm - sm * cp for cp, cm in zip(rp, rm)]))
                keep_tight.append(common | here)
        self.rays = keep
        self.tight = keep_tight
        return True


def _pairs(values: list[int]) -> int:
    'the (+,-) pairs of a step whose values on the rays are ``values``'
    ordered = sorted(values)
    return bisect_left(ordered, 0) * (len(ordered) - bisect_right(ordered, 0))


def _products(a: IntVec, columns: list[tuple[int, ...]]) -> list[int]:
    """``a·v`` for each vector v of a nonempty list given by its ``columns``:
    the sum of the columns where a is nonzero, each scaled by its entry of a
    (a is not zero)."""
    if _BINARY.issuperset(a):
        return list(map(sum, zip(*compress(columns, a))))
    terms = [col if c == 1 else [c * x for x in col] for c, col in zip(a, columns) if c]
    return list(map(sum, zip(*terms)))


def _onto(a: IntVec, alpha: int, l0: IntVec, vectors: list[IntVec]) -> list[IntVec]:
    'each vector moved along l0 onto the hyperplane of a, where ``a·l0 = alpha > 0``'
    out = []
    for v in vectors:
        s = sum(map(mul, a, v))
        out.append(primitive([alpha * c - s * d for c, d in zip(v, l0)]) if s else v)
    return out


def _dd_cone(dim: int, eq_rows: list[IntVec], ineq_rows: list[IntVec]):
    """Lineality basis and extremal rays of ``{x : eq·x = 0, ineq·x >= 0}``.

    Rays come back reduced modulo the lineality and primitive, so each
    extremal ray class has exactly one possible representation.
    """
    sweep = _Sweep(dim)
    for a in eq_rows:
        if not any(a):
            continue
        sweep.add_halfspace(a)
        sweep.add_halfspace(tuple(-c for c in a))
        sweep.equalities += 1
    sweep.insert([a for a in ineq_rows if any(a)])
    lin = _row_echelon(sweep.lin)
    # every ray the sweep forms is primitive, so only a lineality changes one
    rays = sorted({_reduce_int_mod(lin, r) for r in sweep.rays} if lin else set(sweep.rays))
    return lin, rays


def _int_rows(rows) -> list[IntVec]:
    'each all-int row as given, and each other one scaled to a primitive int row'
    rows = list(rows)
    if _INT.issuperset(map(type, chain.from_iterable(rows))):
        return rows
    return [a if _INT.issuperset(map(type, a)) else integerized(a) for a in rows]


def dd_generators(poly: HPolyhedron) -> VRepresentation:
    """Exact V-representation of an H-polyhedron.

    Pure cones (all bounds zero) are converted directly and report the origin
    as their single vertex.  Anything else is homogenized with an extra
    nonnegative coordinate t and split back by its value.  Rays and
    lineality vectors come out as primitive int tuples.  A homogenized ray
    is primitive, so it has t = 1 exactly when its vertex is integral: that
    vertex is its first n entries, an int tuple, and a vertex with t > 1 is
    a tuple of Fractions.
    """
    n = poly.dim
    if all(b == 0 for _, b in poly.inequalities) and all(b == 0 for _, b in poly.equalities):
        eq_rows = _int_rows(a for a, _ in poly.equalities)
        ineq_rows = _int_rows(a for a, _ in poly.inequalities)
        lin, rays = _dd_cone(n, eq_rows, ineq_rows)
        return VRepresentation(
            dim=n,
            vertices=((0,) * n,),
            extremal_rays=tuple(rays),
            lineality=tuple(lin),
        )

    eq_rows = _int_rows(tuple(a) + (-b,) for a, b in poly.equalities)
    ineq_rows = [tuple([0] * n + [1])]
    ineq_rows += _int_rows(tuple(a) + (-b,) for a, b in poly.inequalities)
    lin, rays = _dd_cone(n + 1, eq_rows, ineq_rows)
    assert all(l[n] == 0 for l in lin), "lineality must stay in the t = 0 slice"
    vertices = []
    directions = []
    for r in rays:
        t = r[n]
        assert t >= 0
        if t == 1:
            vertices.append(r[:n])
        elif t:
            vertices.append(tuple(Fraction(c, t) for c in r[:n]))
        else:
            directions.append(r[:n])
    if not vertices:
        return VRepresentation(dim=n, vertices=(), extremal_rays=(), lineality=(), empty=True)
    return VRepresentation(
        dim=n,
        vertices=tuple(sorted(vertices)),
        extremal_rays=tuple(sorted(directions)),
        lineality=tuple(l[:n] for l in lin),
    )
