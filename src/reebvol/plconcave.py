"""Concave piecewise-linear functions given as minima of affine forms.

These model monomial filtrations on the weight cone: the function value at
a weight u is min over branches of <u, linear> + constant.  Exact
integration over a polytope goes through the linearity subdivision, whose
cells are cut from the body's own vertices (``polyhedra.cut``); a branch
that is the minimum at every vertex is the minimum on the whole body, and
then the body is its only cell.  Each cell's integer measure data gives
the integral of an affine branch as one dot product with the cell's first
moment plus the constant times its volume; higher powers use the closed
form over each simplex of its triangulation.  Superlevel set volumes are
recovered as exact polynomial splines in the level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import le, mul

from .arith import dot, fmt, rat, vec
from .errors import (
    DegeneratePolytopeError,
    DimensionMismatchError,
    InvalidFiltrationError,
    UnsupportedDegreeError,
)
from .polyhedra import (
    FacetChart,
    Polytope,
    cut,
    facet_chart,
    simplex_volume,
    volume,
)

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
            if isinstance(b, AffineForm):
                out.append(AffineForm(vec(b.linear), rat(b.constant)))
            else:
                linear, constant = b
                out.append(AffineForm.make(linear, constant))
        if not out:
            raise InvalidFiltrationError("a filtration needs at least one branch")
        rank = len(out[0].linear)
        if any(len(b.linear) != rank for b in out):
            raise DimensionMismatchError("branches have mixed ranks")
        dedup = sorted(set((b.linear, b.constant) for b in out))
        return PLConcave(tuple(AffineForm(l, c) for l, c in dedup))

    @property
    def rank(self) -> int:
        return len(self.branches[0].linear)

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
        for r in dual.rays:
            if min(dot(b.linear, r) for b in f.branches) < 0:
                raise InvalidFiltrationError(
                    f"filtration decays along weight-cone ray {list(r)}"
                )
    return PLConcave.make([(b.linear, 0) for b in f.branches])


def integer_branches(f: PLConcave):
    """The least common denominator d of all the branches' entries, and the
    branches times d as (integer linear part, integer constant) pairs."""
    d = math.lcm(*(x.denominator for b in f.branches for x in b.linear + (b.constant,)))
    return d, [(tuple(x.numerator * (d // x.denominator) for x in b.linear),
                b.constant.numerator * (d // b.constant.denominator)) for b in f.branches]


def _vertex_values(branches, p: Polytope):
    """For each integer branch, its values at the vertices of p, all scaled
    by one positive integer."""
    d, points = p.integer_vertices
    return [[sum(map(mul, linear, x)) + c * d for x in points] for linear, c in branches]


def validate_nonnegative(f: PLConcave, dual, q: Polytope):
    """Filtration admissibility: nonnegative on the whole weight cone.

    Checked exactly at the vertices of the sub-level body and, for the
    homogenized branches, at the rays; by concavity this is sufficient.
    """
    _, branches = integer_branches(f)
    for r in dual.rays:
        if min(sum(map(mul, linear, r)) for linear, _ in branches) < 0:
            raise InvalidFiltrationError(
                f"filtration decays along weight-cone ray {list(r)}"
            )
    for v, *values in zip(q.vertices, *_vertex_values(branches, q)):
        if min(values) < 0:
            raise InvalidFiltrationError(
                f"filtration is negative at sub-level vertex {[fmt(x) for x in v]}"
            )


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
    values = _vertex_values(integer_branches(f)[1], p)
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
    h = [Fraction(1)] + [Fraction(0)] * k
    for v in values:
        for d in range(1, k + 1):
            h[d] += v * h[d - 1]
    return h[k]


def _simplex_moment(points, form: AffineForm, k):
    """Exact integral of (affine form)^k over a simplex: the volume times
    k! n!/(n+k)! times h_k of the vertex values."""
    n = len(points) - 1
    vol = simplex_volume(points)
    if vol == 0:
        return Fraction(0)
    values = [form.value(v) for v in points]
    coef = Fraction(math.factorial(k) * math.factorial(n), math.factorial(n + k))
    return vol * coef * _complete_homogeneous(values, k)


def integrate_moment(f: PLConcave, p: Polytope, k: int) -> Fraction:
    """Exact integral of f^k over p, through the linearity subdivision: for
    k = 1 each cell adds <branch, its first moment> plus the branch
    constant times its volume, for k >= 2 the closed form on each simplex."""
    if k < 0 or k > MAX_MOMENT_DEGREE:
        raise UnsupportedDegreeError(f"moment degree {k} unsupported (max {MAX_MOMENT_DEGREE})")
    if k == 0:
        return volume(p)
    if p.affine_dim < p.rank:
        return Fraction(0)
    total = Fraction(0)
    for cell, branch in linearity_subdivision(f, p):
        m = cell.measure
        if k == 1:
            total += dot(branch.linear, m.first_moment) + branch.constant * m.volume
            continue
        for s in m.simplices:
            total += _simplex_moment([cell.vertices[i] for i in s], branch, k)
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

    def _poly_value(self, i, t):
        return _horner(self.polys[i], t)

    def value(self, t) -> Fraction:
        """vol{f >= t} exactly, any rational t."""
        t = rat(t)
        if not self.breakpoints or t > self.breakpoints[-1]:
            return Fraction(0)
        if t <= self.breakpoints[0]:
            return self.total if t < self.breakpoints[0] else self.values_at[0]
        for i in range(len(self.breakpoints) - 1):
            if self.breakpoints[i] < t < self.breakpoints[i + 1]:
                return self._poly_value(i, t)
        return self.values_at[self.breakpoints.index(t)]

    def right_limit(self, t) -> Fraction:
        t = rat(t)
        if not self.breakpoints or t >= self.breakpoints[-1]:
            return Fraction(0)
        if t < self.breakpoints[0]:
            return self.total
        for i in range(len(self.breakpoints) - 1):
            if self.breakpoints[i] <= t < self.breakpoints[i + 1]:
                return self._poly_value(i, t)
        raise AssertionError("unreachable")

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
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def superlevel_body(f: PLConcave, delta: Polytope, t) -> Polytope:
    """{u in delta : f(u) >= t}, cut from delta's vertices."""
    return cut(delta, [(tuple(-x for x in b.linear), b.constant - t) for b in f.branches])


def _lagrange(points):
    """Exact interpolating polynomial (ascending coefficients) through
    rational (x, y) points."""
    k = len(points)
    coeffs = [Fraction(0)] * k
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            # multiply basis by (x - xj)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] += c * (-xj)
                nxt[d + 1] += c
            basis = nxt
            denom *= xi - xj
        scale = yi / denom
        for d, c in enumerate(basis):
            coeffs[d] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def superlevel_profile(f: PLConcave, delta: Polytope) -> SuperlevelProfile:
    """Exact piecewise-polynomial superlevel-volume profile of f on delta.

    Between consecutive critical levels the volume is a polynomial of
    degree at most the dimension; each piece is recovered by exact
    interpolation at interior rational nodes.  The profile is
    left-continuous and f >= 0 on delta, so the value at the first
    breakpoint, 0, is vol(delta), and at each later one the preceding
    piece's value there.
    """
    if delta.affine_dim < delta.rank:
        raise DegeneratePolytopeError(delta.affine_dim)
    low = min(f.value(v) for v in delta.vertices)
    if low < 0:
        raise InvalidFiltrationError("function is negative on the body")
    n = delta.rank
    critical = {Fraction(0)}
    for cell, _ in linearity_subdivision(f, delta):
        for v in cell.vertices:
            critical.add(f.value(v))
    breakpoints = tuple(sorted(critical))
    polys = []
    for i in range(len(breakpoints) - 1):
        a, b = breakpoints[i], breakpoints[i + 1]
        nodes = []
        for j in range(1, n + 2):
            t = a + (b - a) * Fraction(j, n + 2)
            nodes.append((t, volume(superlevel_body(f, delta, t))))
        polys.append(_lagrange(nodes))
    values_at = (volume(delta),) + tuple(map(_horner, polys, breakpoints[1:]))
    return SuperlevelProfile(breakpoints, tuple(polys), values_at)


# ---------------------------------------------------------------------------
# maxima and the Legendre transform
# ---------------------------------------------------------------------------


def restrict_to_chart(f: PLConcave, chart: FacetChart) -> PLConcave:
    """The function composed with the chart's lift, as a PL function of the
    chart coordinates."""
    branches = []
    aj = chart.normal[chart.drop]
    for b in f.branches:
        lj = b.linear[chart.drop]
        coeffs = []
        for i, c in enumerate(b.linear):
            if i == chart.drop:
                continue
            coeffs.append(c - lj * chart.normal[i] / aj)
        const = b.constant + lj * chart.offset / aj
        branches.append((tuple(coeffs), const))
    return PLConcave.make(branches)


def max_over(f: PLConcave, p: Polytope) -> Fraction:
    """Exact maximum of a concave PL function over a polytope (attained at a
    vertex of the linearity subdivision)."""
    if p.affine_dim == p.rank:
        best = None
        for cell, branch in linearity_subdivision(f, p):
            for v in cell.vertices:
                val = branch.value(v)
                if best is None or val > best:
                    best = val
        return best
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
