"""Shared fixtures: standard cones and independent brute-force oracles."""

import itertools
import math
import os
from collections import Counter, defaultdict
from fractions import Fraction as F
from itertools import repeat
from operator import add, mul
from pathlib import Path

import pytest

from reebvol import Cone, PLConcave, PolarizedToricSetup, lattice
from reebvol.arith import det, dot, orthogonal_complement_vector
from reebvol.plconcave import (SuperlevelProfile, _complete_homogeneous, linearity_subdivision,
                               superlevel_body)
from reebvol.polyhedra import volume


@pytest.fixture(autouse=True, scope="session")
def _children_import_src():
    """``python -m reebvol`` subprocesses import the package from this
    checkout's src/, as the test process does, also when PYTHONPATH is unset."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def orthant2():
    return Cone.from_rays([[1, 0], [0, 1]])


@pytest.fixture
def orthant3():
    return Cone.from_rays([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.fixture
def a1_cone():
    return Cone.from_rays([[1, 0], [1, 2]])


@pytest.fixture
def square_base_cone():
    # non-simplicial rank-3 cone over a square
    return Cone.from_rays([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]])


def min_form(*linears):
    return PLConcave.make([(l, 0) for l in linears])


def permutation_det(rows):
    """Sign-weighted permutation expansion; the independent determinant
    oracle for small sizes."""
    n = len(rows)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = F(1)
        for i in range(n):
            prod *= F(rows[i][perm[i]])
        total += sign * prod
    return total


def brute_vertices(rank, halfspaces):
    """Every basic feasible solution of <a, x> <= b, by Cramer's rule on each
    rank-subset of the halfspaces: the independent oracle for vertex
    enumeration.  Sorted."""
    verts = set()
    for idx in itertools.combinations(range(len(halfspaces)), rank):
        rows = [tuple(F(x) for x in halfspaces[i][0]) for i in idx]
        d = det(rows)
        if d == 0:
            continue
        x = []
        for j in range(rank):
            col = [row[:j] + (F(halfspaces[i][1]),) + row[j + 1 :] for row, i in zip(rows, idx)]
            x.append(det(col) / d)
        if all(dot(a, x) <= b for a, b in halfspaces):
            verts.add(tuple(x))
    return sorted(verts)


def _normalized(normal, offset):
    """(primitive integer normal, offset) for <normal, x> <= offset, scaled
    so that normal and offset are coprime integers."""
    d = math.lcm(*(F(x).denominator for x in normal), F(offset).denominator)
    ints = [int(F(x) * d) for x in normal] + [int(F(offset) * d)]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints[:-1]), F(ints[-1] // g)


def brute_hull(points):
    """Facets and vertices of a full-dimensional point set (rank >= 2), by
    testing the hyperplane through every rank-subset of the points: the
    independent oracle for hulls.  Returns (sorted vertices, sorted
    normalized facets)."""
    pts = sorted({tuple(F(x) for x in p) for p in points})
    n = len(pts[0])
    facets = set()
    for idx in itertools.combinations(range(len(pts)), n):
        rows = [tuple(x - y for x, y in zip(pts[i], pts[idx[0]])) for i in idx[1:]]
        normal = orthogonal_complement_vector(rows)
        if all(x == 0 for x in normal):
            continue
        b = dot(normal, pts[idx[0]])
        values = [dot(normal, p) - b for p in pts]
        if all(v <= 0 for v in values):
            facets.add(_normalized(normal, b))
        elif all(v >= 0 for v in values):
            facets.add(_normalized(tuple(-x for x in normal), -b))
    vertices = []
    for p in pts:
        tight = [a for a, b in facets if dot(a, p) == b]
        if any(det(rows) != 0 for rows in itertools.combinations(tight, n)):
            vertices.append(p)
    return vertices, sorted(facets)


def brute_pulling(points, original=None):
    """Pulling triangulation of a full-dimensional point set through a
    subset hull of every face: at each level the vertex that is
    lexicographically smallest in the original coordinates is joined to
    the facets missing it, and a facet is hulled in the chart that drops
    the first coordinate its normal uses.  ``original`` maps chart points
    back to the original ones.  The oracle for triangulations; simplices
    as tuples of points."""
    original = original or (lambda pt: pt)
    d = len(points[0])
    if d == 1:
        return [(min(points), max(points))]
    vs, facets = brute_hull(points)
    if len(vs) == d + 1:
        return [tuple(vs)]
    anchor = min(vs, key=original)
    simplices = []
    for a, b in facets:
        if dot(a, anchor) == b:
            continue
        tight = [v for v in vs if dot(a, v) == b]
        j = min(i for i, x in enumerate(a) if x != 0)
        back = {v[:j] + v[j + 1 :]: v for v in tight}
        for s in brute_pulling(list(back), lambda pt, back=back: original(back[pt])):
            simplices.append((anchor,) + tuple(back[pt] for pt in s))
    return simplices


def brute_lattice_points(p, m):
    """Bounding-box enumeration: the independent oracle for lattice counts."""
    if not p.vertices:
        return []
    n = p.rank
    if m == 0:
        return [tuple(0 for _ in range(n))]
    scaled = [[F(x) * m for x in v] for v in p.vertices]
    los = [math.ceil(min(v[i] for v in scaled)) for i in range(n)]
    his = [math.floor(max(v[i] for v in scaled)) for i in range(n)]
    out = []
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        if all(dot(a, point) <= b * m for a, b in p.halfspaces):
            out.append(point)
    return out


def _primitive_row(a, b):
    g = math.gcd(*a, b)
    return tuple(x // g for x in a), b // g


def fm_levels(rows, n):
    """Fourier-Motzkin levels of an integer system A x <= b in n unknowns:
    the independent oracle for the walker's levels.  x_n, ..., x_2 are
    eliminated in turn, keeping every combination of an upper and a lower
    row that is not a duplicate, and level k holds the rows of x_1..x_k
    whose x_k coefficient is nonzero.  A combination 0 <= negative shows
    the system infeasible over the rationals; level 1 is then the empty
    range 1 <= x_1 <= -1."""
    infeasible = False
    current = set()
    for a, b in rows:
        if any(a):
            current.add(_primitive_row(a, b))
        infeasible |= not any(a) and b < 0
    levels = [None] * n
    for k in range(n, 0, -1):
        pos = [(a, b) for a, b in sorted(current) if a[k - 1] > 0]
        neg = [(a, b) for a, b in sorted(current) if a[k - 1] < 0]
        levels[k - 1] = [(a[:k], b) for a, b in pos + neg]
        current = {(a, b) for a, b in current if a[k - 1] == 0}
        for (ap, bp), (an, bn) in itertools.product(pos, neg):
            cp, cn = ap[k - 1], -an[k - 1]
            comb = tuple(cn * x + cp * y for x, y in zip(ap, an))
            rhs = cn * bp + cp * bn
            if any(comb):
                current.add(_primitive_row(comb, rhs))
            infeasible |= not any(comb) and rhs < 0
    if infeasible:
        levels[0] = [((1,), -1), ((-1,), -1)]
    return levels


def _lagrange(points):
    """Exact interpolating polynomial (ascending coefficients) through
    rational (x, y) points, trailing zeros trimmed."""
    k = len(points)
    coeffs = [F(0)] * k
    for i, (xi, yi) in enumerate(points):
        basis = [F(1)]
        denom = F(1)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            # multiply basis by (x - xj)
            nxt = [F(0)] * (len(basis) + 1)
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


def cut_profile(f, delta):
    """The superlevel profile of f >= 0 on delta by cutting superlevel
    bodies: on each interval between breakpoints (0 and the values of f at
    the linearity cells' vertices) the volume is a polynomial of degree at
    most the rank, interpolated through the volumes of n + 1 bodies cut at
    interior rational levels.  The independent oracle for
    ``superlevel_profile``."""
    n = delta.rank
    critical = {F(0)}
    for cell, _ in linearity_subdivision(f, delta):
        critical.update(f.value(v) for v in cell.vertices)
    breakpoints = tuple(sorted(critical))
    polys = []
    for a, b in zip(breakpoints, breakpoints[1:]):
        nodes = [a + (b - a) * F(j, n + 2) for j in range(1, n + 2)]
        polys.append(_lagrange([(t, volume(superlevel_body(f, delta, t))) for t in nodes]))
    values_at = [volume(delta)]
    for poly, b in zip(polys, breakpoints[1:]):
        values_at.append(sum(c * b ** d for d, c in enumerate(poly)))
    return SuperlevelProfile(breakpoints, tuple(polys), tuple(values_at))


def setup_for(cone, xi, psi=None, eta=None, **kw):
    return PolarizedToricSetup(cone, xi, eta=eta, psi=psi, **kw)


# -- oracles moved out of the package ------------------------------------------


def first_moment(measure):
    """The integral of x over a body, from its ``Measure``: a simplex
    contributes its volume times its centroid, so this is the sum over
    simplices of |det| times the vertex sum, over (n+1)! denom^(n+1)."""
    n = measure.rank
    acc = [0] * n
    for s, d in zip(measure.simplices, measure.dets):
        for j, column in enumerate(zip(*(measure.points[i] for i in s))):
            acc[j] += d * sum(column)
    scale = math.factorial(n + 1) * measure.denom ** (n + 1)
    return tuple(F(x, scale) for x in acc)


def chart_project(chart, u):
    """A point of a ``FacetChart``'s hyperplane in the chart's coordinates."""
    return u[: chart.drop] + u[chart.drop + 1 :]


def chart_lift(chart, y):
    """The point of the chart's hyperplane with chart coordinates y."""
    partial = sum(c * y[i if i < chart.drop else i - 1]
                  for i, c in enumerate(chart.normal) if i != chart.drop)
    uj = (chart.offset - partial) / chart.normal[chart.drop]
    return y[: chart.drop] + (uj,) + y[chart.drop :]


def simplex_moment(points, form, k):
    """Exact integral of (affine form)^k over a simplex: the volume times
    k! n!/(n+k)! times h_k of the vertex values."""
    n = len(points) - 1
    vol = abs(det([tuple(x - y for x, y in zip(v, points[0])) for v in points[1:]]))
    vol /= math.factorial(n)
    if vol == 0:
        return F(0)
    values = [form.value(v) for v in points]
    coef = F(math.factorial(k) * math.factorial(n), math.factorial(n + k))
    return vol * coef * _complete_homogeneous(values, k)


def sweep_histogram(p, m, branches, floor_mode=False, clamp=False):
    """``lattice.value_histogram`` by a sorted sweep: the pieces' endpoint
    events per step |B| (+1 at a first value, -1 one step past a last one),
    each residue class of a step swept in ascending order and every covered
    value written once, with its count; constant pieces add their lengths,
    and under the clamp the rest of each leaf counts at 0."""
    D = branches.denom
    if p.affine_dim < 0 or not p.integer_vertices[1]:
        return {}
    if m == 0:
        v = lattice._origin(branches, clamp)
        return {v // D if floor_mode else v: 1}
    hist = Counter()
    firsts, lasts = defaultdict(list), defaultdict(list)
    for los, his, pieces in lattice._piece_batches(p, m, branches, clamp):
        if clamp:
            hist[0] += lattice._size(los, his) - sum(lattice._size(ss, es) for _, _, ss, es in pieces)
        for B, A, ss, es in pieces:
            if B == 0:
                for a, s, e in zip(A, ss, es):
                    if e >= s:
                        hist[a] += e - s + 1
                continue
            first, last = (ss, es) if B > 0 else (es, ss)
            firsts[abs(B)].extend(map(add, A, map(mul, first, repeat(B))))
            lasts[abs(B)].extend(map(add, A, map(mul, last, repeat(B))))
    for b, first in firsts.items():
        events = Counter(first)
        events.subtract(Counter(map(add, lasts[b], repeat(b))))
        count = prev = 0
        for k in sorted(events, key=lambda k: (k % b, k)):
            if count:
                hist.update(dict(zip(range(prev, k, b), repeat(count))))
            count += events[k]
            prev = k
    hist = +hist
    if not floor_mode:
        return dict(hist)
    folded = Counter()
    for k, c in hist.items():
        folded[k // D] += c
    return dict(folded)
