"""Exact H-to-V conversion for small rational polyhedra.

This module is the ground truth the structure-aware algorithms are checked
against, so it trades speed for being unconditionally correct:

* all arithmetic is exact.  Rows are converted once, on entry, into
  primitive integer vectors (an all-int row needs only its gcd taken), and
  the sweep and the echelon form of the lineality run on Python ints
  throughout.  What comes out follows the package's one rule, an integral
  value is an int: extremal rays and lineality vectors are
  :data:`~boundedcore.vectors.IntVec` tuples, and so is every integral
  vertex, a pure cone's origin included.  :class:`fractions.Fraction` is
  used only for a vertex that is not integral;
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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch
from .vectors import IntVec, Vector, dot, integerized, primitive

Row = tuple[IntVec | Vector, Fraction | int]


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

    def recession(self) -> "HPolyhedron":
        'same rows with every bound set to zero'
        return HPolyhedron(
            self.dim,
            tuple((a, 0) for a, _ in self.inequalities),
            tuple((a, 0) for a, _ in self.equalities),
        )


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
        self.lin: list[IntVec] = [
            tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
        ]
        self.rays: list[IntVec] = []
        self.tight: list[int] = []
        self.row_count = 0  # halfspaces processed; row k is bit k of a tight mask
        self.equalities = 0  # equality rows processed, each as two opposite halfspaces

    def add_halfspace(self, a: IntVec) -> None:
        here = 1 << self.row_count
        self.row_count += 1
        cut = next((k for k, l in enumerate(self.lin) if dot(a, l)), None)
        if cut is not None:
            l0 = self.lin.pop(cut)
            alpha = dot(a, l0)
            if alpha < 0:
                l0 = tuple(-c for c in l0)
                alpha = -alpha

            def project(v: IntVec) -> IntVec:
                s = dot(a, v)
                return v if s == 0 else primitive([alpha * c - s * d for c, d in zip(v, l0)])

            # projections keep their tight rows: l0 is orthogonal to every processed row
            self.lin = [project(l) for l in self.lin]
            self.rays = [project(r) for r in self.rays] + [l0]
            self.tight = [m | here for m in self.tight] + [here - 1]
            return

        keep: list[IntVec] = []
        keep_tight: list[int] = []
        plus: list[tuple[IntVec, int, int]] = []
        minus: list[tuple[IntVec, int, int]] = []
        for r, t in zip(self.rays, self.tight):
            s = dot(a, r)
            if s == 0:
                keep.append(r)
                keep_tight.append(t | here)
            elif s > 0:
                keep.append(r)
                keep_tight.append(t)
                plus.append((r, t, s))
            else:
                minus.append((r, t, s))
        all_tight = self.tight
        # a 2-face has tight-row rank dim - dim(lineality) - 2; equalities count twice
        need = self.dim - len(self.lin) - 2 + self.equalities
        for rp, tp, sp in plus:
            for rm, tm, sm in minus:
                common = tp & tm
                if common.bit_count() < need:
                    continue
                adjacent = True
                for other, to in zip(self.rays, all_tight):
                    if other is rp or other is rm:
                        continue
                    if to & common == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                # both coefficients are positive and both parents satisfy every
                # processed row, so the combination is tight exactly where both are
                keep.append(primitive([sp * cm - sm * cp for cp, cm in zip(rp, rm)]))
                keep_tight.append(common | here)
        self.rays = keep
        self.tight = keep_tight


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
    for a in ineq_rows:
        if not any(a):
            continue
        sweep.add_halfspace(a)
    lin = _row_echelon(sweep.lin)
    rays = sorted({_reduce_int_mod(lin, r) for r in sweep.rays})
    return lin, rays


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
        eq_rows = [integerized(a) for a, _ in poly.equalities]
        ineq_rows = [integerized(a) for a, _ in poly.inequalities]
        lin, rays = _dd_cone(n, eq_rows, ineq_rows)
        return VRepresentation(
            dim=n,
            vertices=((0,) * n,),
            extremal_rays=tuple(rays),
            lineality=tuple(lin),
        )

    eq_rows = [integerized(tuple(a) + (-b,)) for a, b in poly.equalities]
    ineq_rows = [tuple([0] * n + [1])]
    ineq_rows += [integerized(tuple(a) + (-b,)) for a, b in poly.inequalities]
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


def is_bounded(poly: HPolyhedron) -> bool:
    """True exactly when the recession cone collapses to the origin."""
    rec = dd_generators(poly.recession())
    return not rec.extremal_rays and not rec.lineality
