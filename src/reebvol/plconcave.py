"""Concave piecewise-linear functions given as minima of affine forms.

These model monomial filtrations on the weight cone: the function value at
a weight u is min over branches of <u, linear> + constant.  Exact
integration over a polytope goes through the linearity subdivision, whose
cells are cut from the body's own vertices (``polyhedra.cut``); a branch
that is the minimum at every vertex is the minimum on the whole body, and
then the body is its only cell.  Each cell's integer measure data gives
the integral of an affine branch as one dot product with the cell's first
moment plus the constant times its volume; higher powers use the closed
form over each simplex of its triangulation.  So do superlevel volumes,
with no superlevel body cut: on a simplex S on which the branch takes the
values y_0..y_n at the vertices, vol{f >= t} / vol(S) is a B-spline in t,
the sum of the residues of (y - t)^n / prod_i (y - y_i) at the values
z > t among the y_i (Curry and Schoenberg 1966; Baldoni, Berline, De
Loera, Koeppe and Vergne, "How to integrate a polynomial over a simplex",
2011), and a tied value's residue is read off short power series.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import le, mul

from .arith import dot, fmt, rat, vec
from .errors import (
    DegeneratePolytopeError,
    DimensionMismatchError,
    InvalidFiltrationError,
    UnsupportedDegreeError,
)
from .polyhedra import FacetChart, Polytope, cut, facet_chart, volume

MAX_MOMENT_DEGREE = 4


@dataclass(frozen=True)
class AffineForm:
    """One branch <u, linear> + constant."""

    linear: tuple
    constant: Fraction

    @staticmethod
    def make(linear, constant=0) -> "AffineForm":
        return AffineForm(vec(linear), rat(constant))

    def value(self, u):
        return dot(self.linear, u) + self.constant

    def to_json(self) -> dict:
        return {"linear": [fmt(x) for x in self.linear], "constant": fmt(self.constant)}


@dataclass(frozen=True)
class PLConcave:
    """A finite minimum of affine forms (structurally concave)."""

    branches: tuple

    @staticmethod
    def make(branches) -> "PLConcave":
        out = []
        for b in branches:
            linear, constant = (b.linear, b.constant) if isinstance(b, AffineForm) else b
            out.append(AffineForm.make(linear, constant))
        if not out:
            raise InvalidFiltrationError("a filtration needs at least one branch")
        rank = len(out[0].linear)
        if any(len(b.linear) != rank for b in out):
            raise DimensionMismatchError("branches have mixed ranks")
        return PLConcave(tuple(sorted(set(out), key=lambda b: (b.linear, b.constant))))

    @property
    def rank(self) -> int:
        return len(self.branches[0].linear)

    @cached_property
    def integer_branches(self) -> tuple:
        """The least common denominator d of all the branches' entries, and
        the branches times d as (integer linear part, integer constant)
        pairs, in branch order; derived once per function."""
        d = math.lcm(*(x.denominator for b in self.branches for x in b.linear + (b.constant,)))
        return d, tuple((tuple(x.numerator * (d // x.denominator) for x in b.linear),
                         b.constant.numerator * (d // b.constant.denominator))
                        for b in self.branches)

    def value(self, u):
        return min(b.value(u) for b in self.branches)

    def shifted(self, c) -> "PLConcave":
        c = rat(c)
        return PLConcave.make([(b.linear, b.constant + c) for b in self.branches])

    def scaled(self, c) -> "PLConcave":
        c = rat(c)
        if c <= 0:
            raise InvalidFiltrationError("filtrations scale by positive rationals only")
        return PLConcave.make([(tuple(c * x for x in b.linear), c * b.constant) for b in self.branches])

    def to_json(self) -> dict:
        return {"branches": [b.to_json() for b in self.branches]}

    @staticmethod
    def from_json(data: dict) -> "PLConcave":
        return PLConcave.make(
            [(b["linear"], b.get("constant", "0")) for b in data["branches"]]
        )


def linear_form(direction) -> PLConcave:
    """The single-branch filtration u -> <u, direction>."""
    return PLConcave.make([(direction, 0)])


def evaluate(f: PLConcave, u) -> Fraction:
    u = vec(u)
    if len(u) != f.rank:
        raise DimensionMismatchError("point rank does not match the filtration")
    return f.value(u)


def homogenize(f: PLConcave, dual=None) -> PLConcave:
    """Drop the additive constants; equals the pointwise limit of f(m*u)/m.

    When the weight cone is supplied, nonnegativity of the homogenized
    branches is validated on its rays (negative growth along a ray means
    the input is not a filtration).
    """
    if dual is not None:
        _check_rays(f.integer_branches[1], dual)
    return PLConcave.make([(b.linear, 0) for b in f.branches])


def _vertex_values(branches, p: Polytope):
    """For each integer branch, its values at the vertices of p, all scaled
    by one positive integer."""
    d, points = p.integer_vertices
    return [[sum(map(mul, linear, x)) + c * d for x in points] for linear, c in branches]


def _check_rays(branches, dual):
    """The homogenized integer branches are nonnegative on the weight cone's
    rays: their minimum does not decay along any of them."""
    for r in dual.rays:
        if min(sum(map(mul, linear, r)) for linear, _ in branches) < 0:
            raise InvalidFiltrationError(f"filtration decays along weight-cone ray {list(r)}")


def validate_nonnegative(f: PLConcave, dual, q: Polytope):
    """Filtration admissibility: nonnegative on the whole weight cone.

    Checked exactly at the vertices of the sub-level body and, for the
    homogenized branches, at the rays; by concavity this is sufficient.
    """
    _, branches = f.integer_branches
    _check_rays(branches, dual)
    for j, values in enumerate(zip(*_vertex_values(branches, q))):
        if min(values) < 0:
            v = [fmt(x) for x in q.vertices[j]]
            raise InvalidFiltrationError(f"filtration is negative at sub-level vertex {v}")


def linearity_subdivision(f: PLConcave, p: Polytope):
    """Cells of p on which a single branch attains the minimum.

    Returns (cell, branch) pairs for the full-dimensional cells only; their
    volumes add up to the volume of p.  A branch that is the minimum at
    every vertex of p is the minimum on all of p (its affine differences
    with the others are <= 0 at the vertices, so everywhere), and then p
    is the only cell.
    """
    if p.affine_dim < p.rank:
        raise DegeneratePolytopeError(p.affine_dim)
    values = _vertex_values(f.integer_branches[1], p)
    for b, mine in zip(f.branches, values):
        if all(all(map(le, mine, other)) for other in values):
            return ((p, b),)
    cells = []
    for i, b in enumerate(f.branches):
        cell = cut(p, [
            (tuple(x - y for x, y in zip(b.linear, other.linear)), other.constant - b.constant)
            for j, other in enumerate(f.branches) if j != i
        ])
        if cell.affine_dim == p.rank:
            cells.append((cell, b))
    return tuple(cells)


def _complete_homogeneous(values, k):
    """Complete homogeneous symmetric polynomial h_k of the given values."""
    h = [1] + [0] * k
    for v in values:
        for d in range(1, k + 1):
            h[d] += v * h[d - 1]
    return h[k]


def integrate_moment(f: PLConcave, p: Polytope, k: int) -> Fraction:
    """Exact integral of f^k over p, through the linearity subdivision: on
    each simplex of a cell the volume times k! n!/(n+k)! times h_k of the
    vertex values, in the cell's integer data (``measure``, the branch
    values times d*D), one Fraction a cell."""
    if k < 0 or k > MAX_MOMENT_DEGREE:
        raise UnsupportedDegreeError(f"moment degree {k} unsupported (max {MAX_MOMENT_DEGREE})")
    if k == 0:
        return volume(p)
    if p.affine_dim < p.rank:
        return Fraction(0)
    d, branches = f.integer_branches
    integer = dict(zip(f.branches, branches))
    total = Fraction(0)
    for cell, branch in linearity_subdivision(f, p):
        m = cell.measure
        values = _vertex_values([integer[branch]], cell)[0]
        acc = sum(w * _complete_homogeneous([values[i] for i in s], k)
                  for s, w in zip(m.simplices, m.dets))
        total += Fraction(acc * math.factorial(k),
                          math.factorial(p.rank + k) * m.denom ** p.rank * (d * m.denom) ** k)
    return total


# ---------------------------------------------------------------------------
# superlevel profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuperlevelProfile:
    """Exact t -> vol({u in the body : f(u) >= t}).

    ``polys[i]`` holds ascending-degree coefficients valid on the open
    interval (breakpoints[i], breakpoints[i+1]); ``values_at[i]`` is the
    exact volume at the breakpoint itself (profiles may jump where a level
    set has positive volume).  Beyond the last breakpoint the profile is 0.
    """

    breakpoints: tuple
    polys: tuple
    values_at: tuple

    @property
    def total(self) -> Fraction:
        return self.values_at[0] if self.values_at else Fraction(0)

    def value(self, t) -> Fraction:
        """vol{f >= t} exactly, any rational t."""
        t = rat(t)
        i = bisect_left(self.breakpoints, t)
        if i < len(self.breakpoints) and self.breakpoints[i] == t:
            return self.values_at[i]
        return self.right_limit(t)

    def right_limit(self, t) -> Fraction:
        """vol{f > t}: the piece on the interval that t starts, the total
        below the first breakpoint and 0 from the last one on."""
        t = rat(t)
        i = bisect_right(self.breakpoints, t)
        if 0 < i < len(self.breakpoints):
            return _horner(self.polys[i - 1], t)
        return self.total if i == 0 else Fraction(0)

    def cdf(self, t) -> Fraction:
        """Right-continuous distribution function of the pushforward measure:
        total mass minus the strict superlevel volume."""
        return self.total - self.right_limit(t)

    def integral(self) -> Fraction:
        """Exact integral of the profile over [0, infinity)."""
        acc = Fraction(0)
        for i in range(len(self.breakpoints) - 1):
            a, b = self.breakpoints[i], self.breakpoints[i + 1]
            for d, c in enumerate(self.polys[i]):
                acc += c * (b ** (d + 1) - a ** (d + 1)) / (d + 1)
        return acc

    def csv_rows(self, degree=None):
        deg = degree if degree is not None else max(
            (len(q) for q in self.polys), default=1
        )
        rows = []
        for i, t in enumerate(self.breakpoints[:-1]):
            coeffs = list(self.polys[i]) + [Fraction(0)] * (deg - len(self.polys[i]))
            rows.append([fmt(t)] + [fmt(c) for c in coeffs])
        if self.breakpoints:
            rows.append([fmt(self.breakpoints[-1])] + [fmt(Fraction(0))] * deg)
        return rows


def _horner(coeffs, t) -> Fraction:
    """Value at t of the polynomial with ascending coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def superlevel_body(f: PLConcave, delta: Polytope, t) -> Polytope:
    """{u in delta : f(u) >= t}, cut from delta's vertices."""
    return cut(delta, [(tuple(-x for x in b.linear), b.constant - t) for b in f.branches])


def _residues(values, n, weight):
    """Yield (z, e, poly) for each distinct z among the n + 1 integers y_i,
    poly(T) / e (ascending integer coefficients) being the weight times
    Res_{y=z} (y - T)^n / prod_i (y - y_i).  At a z of multiplicity k that
    is the s^(k-1) coefficient of (s + z - T)^n prod_{w != z} (s + z - w)^(-k_w),
    a product of short power series."""
    counts = Counter(values)
    for z, k in counts.items():
        others = [(z - w, kw) for w, kw in counts.items() if w != z]
        q = math.prod(a for a, _ in others)
        series = [weight] + [0] * (k - 1)  # s^m coefficients, over prod a^kw q^m
        for a, kw in others if k > 1 else ():  # times (1 + s/a)^(-kw), 1 + O(s)
            factor = [math.comb(kw + m - 1, m) * (-q // a) ** m for m in range(k)]
            series = [sum(map(mul, series[:m + 1], factor[m::-1])) for m in range(k)]
        poly = [series[k - 1]]
        for j in range(1, n + 1):  # sum_j binomial(n, j) series[k-1-j] q^j (z - T)^(n-j)
            poly = [z * x - y for x, y in zip(poly + [0], [0] + poly)]
            poly[0] += math.comb(n, j) * series[k - 1 - j] * q ** j if j < k else 0
        yield z, math.prod(a ** kw for a, kw in others) * q ** (k - 1), poly


def superlevel_profile(f: PLConcave, delta: Polytope) -> SuperlevelProfile:
    """Exact piecewise-polynomial superlevel-volume profile of f on delta.

    The breakpoints are 0 and the values of f at the linearity cells'
    vertices.  The residues of every simplex of the cells' triangulations
    are grouped by their value z; the piece after a breakpoint is the sum
    of those at larger z.  The profile is left-continuous and f >= 0 on
    delta, so the value at the first breakpoint, 0, is vol(delta), and at
    each later one the preceding piece's value there.
    """
    if delta.affine_dim < delta.rank:
        raise DegeneratePolytopeError(delta.affine_dim)
    n = delta.rank
    d, branches = f.integer_branches
    integer = dict(zip(f.branches, branches))
    cells = [(cell.measure, _vertex_values([integer[b]], cell)[0])
             for cell, b in linearity_subdivision(f, delta)]
    big = math.lcm(*(m.denom for m, _ in cells))
    # the values times d * big and the volumes times n! * big^n are integers
    critical, total, residues = {0}, 0, defaultdict(list)
    for m, values in cells:
        up = big // m.denom
        values = [y * up for y in values]
        critical.update(values)
        for s, det in zip(m.simplices, m.dets):
            total += det * up ** n
            for z, e, poly in _residues([values[i] for i in s], n, det * up ** n):
                residues[z].append((e, poly))
    levels = sorted(critical)
    if levels[0] < 0:
        raise InvalidFiltrationError("function is negative on the body")
    scale, unit = d * big, math.factorial(n) * big ** n
    polys, values_at, den, running = [], [Fraction(total, unit)], 1, [0] * (n + 1)
    for z in reversed(levels[1:]):
        for e, poly in residues[z]:  # running / den plus poly / e
            lcm = math.lcm(den, e)
            a, b = lcm // den, lcm // e
            den, running = lcm, [x * a + y * b for x, y in zip(running, poly)]
        values_at.insert(1, Fraction(_horner(running, z), den * unit))
        coeffs = [Fraction(x * scale ** i, den * unit) for i, x in enumerate(running)]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        polys.insert(0, tuple(coeffs))
    return SuperlevelProfile(tuple(Fraction(y, scale) for y in levels), tuple(polys), tuple(values_at))


# ---------------------------------------------------------------------------
# maxima and the Legendre transform
# ---------------------------------------------------------------------------


def restrict_to_chart(f: PLConcave, chart: FacetChart) -> PLConcave:
    """The function composed with the chart's lift, as a PL function of the
    chart coordinates: the lift solves <a, u> = o/e for u_j, so an integer
    branch (<l, u> + c)/d takes (l_i a_j - l_j a_i)/(d a_j) at i != j and the
    constant (c a_j e + l_j o)/(d a_j e)."""
    j, a = chart.drop, chart.normal
    o, e = chart.offset.numerator, chart.offset.denominator
    d, branches = f.integer_branches
    den = d * a[j]
    return PLConcave.make([
        (tuple(Fraction(l[i] * a[j] - l[j] * a[i], den) for i in range(len(a)) if i != j),
         Fraction(c * a[j] * e + l[j] * o, den * e))
        for l, c in branches])


def max_over(f: PLConcave, p: Polytope) -> Fraction:
    """Exact maximum of a concave PL function over a polytope (attained at a
    vertex of the linearity subdivision)."""
    if p.affine_dim == p.rank:
        return max(branch.value(v) for cell, branch in linearity_subdivision(f, p) for v in cell.vertices)
    if p.affine_dim == p.rank - 1 and p.rank >= 2:
        chart = facet_chart(p)
        return max_over(restrict_to_chart(f, chart), chart.body)
    if p.affine_dim == 0:
        return f.value(p.vertices[0])
    raise DegeneratePolytopeError(p.affine_dim, "maximum needs a chart for this body")


def legendre(f: PLConcave, p: Polytope, v) -> Fraction:
    """Legendre-type transform value max_u (f(u) - <u, v>) over p.

    Fixed convention: the pairing is subtracted from the function; the
    opposite sign (f(u) + <u, v>) is not used anywhere in this package.
    """
    v = vec(v)
    if len(v) != f.rank:
        raise DimensionMismatchError("direction rank does not match the filtration")
    shifted = PLConcave.make(
        [(tuple(x - y for x, y in zip(b.linear, v)), b.constant) for b in f.branches]
    )
    return max_over(shifted, p)
