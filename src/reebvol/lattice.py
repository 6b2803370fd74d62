"""Exact lattice-point engines.

Enumeration works on integer inequality systems A x <= b obtained by
clearing denominators of a polytope's halfspace description.  Per-variable
bounds come from Fourier-Motzkin projection, computed once per system.
One walker, ``PrefixBounds.leaves``, fixes the coordinates one by one with
exact integer ceil/floor bounds and yields each innermost slice as a
prefix and the integer range of the last coordinate, so no bounding box is
ever materialized.

Every engine is a loop over those leaves: streaming enumeration expands
each range, and the reductions treat it in closed form: point counts, sums
and maxima of a minimum of integer affine forms, and value histograms.
These give exact jumping number statistics without touching every lattice
point individually.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor, gcd, lcm

from .errors import UnsupportedGeometryError

# ---------------------------------------------------------------------------
# integer inequality systems
# ---------------------------------------------------------------------------


def _normalize_row(coeffs, rhs):
    g = gcd(*(abs(c) for c in coeffs), abs(rhs)) if coeffs else abs(rhs)
    if g > 1:
        return tuple(c // g for c in coeffs), rhs // g
    return tuple(coeffs), rhs


def int_rows_from_polytope(p, scale=1):
    """Integer rows (a, b) meaning a.x <= b for the dilation scale*p."""
    rows = []
    for normal, offset in p.halfspaces:
        off = Fraction(offset) * scale
        d = off.denominator
        rows.append(_normalize_row(tuple(d * c for c in normal), off.numerator))
    return rows


class PrefixBounds:
    """Fourier-Motzkin projections of an integer system, queried for exact
    integer bounds of x_k given values of x_1..x_{k-1}."""

    def __init__(self, rows, nvars):
        self.nvars = nvars
        self.infeasible = False
        levels = [None] * (nvars + 1)
        current = []
        for a, b in rows:
            if all(c == 0 for c in a):
                if b < 0:
                    self.infeasible = True
            else:
                current.append(_normalize_row(a, b))
        levels[nvars] = sorted(set(current))
        for k in range(nvars, 1, -1):
            nxt, pos, neg = [], [], []
            for a, b in levels[k]:
                ak = a[k - 1]
                if ak == 0:
                    nxt.append((a, b))
                elif ak > 0:
                    pos.append((a, b))
                else:
                    neg.append((a, b))
            for (ap, bp), (an, bn) in itertools.product(pos, neg):
                cp, cn = ap[k - 1], -an[k - 1]
                comb = tuple(cn * x + cp * y for x, y in zip(ap, an))
                rhs = cn * bp + cp * bn
                if all(c == 0 for c in comb):
                    if rhs < 0:
                        self.infeasible = True
                    continue
                nxt.append(_normalize_row(comb, rhs))
            levels[k - 1] = sorted(set(nxt))
        self.levels = levels

    def bounds(self, prefix):
        """Integer (lo, hi) for the coordinate after ``prefix``; None if the
        slice holds no integer point."""
        if self.infeasible:
            return None
        k = len(prefix) + 1
        lo, hi = None, None
        for a, b in self.levels[k]:
            ak = a[k - 1]
            if ak == 0:
                if sum(c * x for c, x in zip(a, prefix)) > b:
                    return None
                continue
            rest = b - sum(c * x for c, x in zip(a, prefix))
            if ak > 0:
                bound = rest // ak
                hi = bound if hi is None else min(hi, bound)
            else:
                q, r = divmod(rest, ak)
                bound = q if r == 0 else q + 1
                lo = bound if lo is None else max(lo, bound)
        if lo is None or hi is None:
            raise UnsupportedGeometryError("unbounded direction in lattice enumeration")
        if lo > hi:
            return None
        return lo, hi

    def leaves(self):
        """Every innermost slice of the system: (prefix, lo, hi) with
        len(prefix) == nvars - 1 and lo..hi the integer range of the last
        coordinate, in ascending lexicographic order of prefix."""
        last = self.nvars - 1
        stack = [()]
        while stack:
            prefix = stack.pop()
            b = self.bounds(prefix)
            if b is None:
                continue
            if len(prefix) == last:
                yield prefix, b[0], b[1]
            else:
                stack.extend(prefix + (x,) for x in range(b[1], b[0] - 1, -1))


# ---------------------------------------------------------------------------
# streaming enumeration (lexicographic contract)
# ---------------------------------------------------------------------------


def _check_level(m):
    if m < 0:
        raise ValueError("dilation level must be nonnegative")


def iter_points(p, m):
    """Every point of m*p intersected with the integer lattice, exactly once,
    in ascending lexicographic order."""
    _check_level(m)
    if p.affine_dim < 0 or not p.vertices:
        return
    n = p.rank
    if m == 0:
        yield tuple(0 for _ in range(n))
        return
    for prefix, lo, hi in PrefixBounds(int_rows_from_polytope(p, m), n).leaves():
        for x in range(lo, hi + 1):
            yield prefix + (x,)


def count_points(p, m, jobs=1):
    """#(m*p intersect Z^n), with a closed-form innermost level.

    ``jobs`` is accepted for compatibility; it has no effect."""
    _check_level(m)
    if p.affine_dim < 0 or not p.vertices:
        return 0
    if m == 0:
        return 1
    pb = PrefixBounds(int_rows_from_polytope(p, m), p.rank)
    return sum(hi - lo + 1 for _, lo, hi in pb.leaves())


# ---------------------------------------------------------------------------
# reductions of min-of-affine values over lattice points
# ---------------------------------------------------------------------------


class BranchData:
    """Integer-scaled branches of a min-of-affine function: the exact value
    at a lattice point u is min_b(<u, linear_b> + const_b) / denom."""

    def __init__(self, linears, consts, denom):
        self.linears = [tuple(l) for l in linears]
        self.consts = list(consts)
        self.denom = denom

    @staticmethod
    def from_plconcave(f):
        denoms = [1]
        for br in f.branches:
            denoms.extend(x.denominator for x in br.linear)
            denoms.append(br.constant.denominator)
        d = lcm(*denoms)
        linears = [tuple(int(x * d) for x in br.linear) for br in f.branches]
        consts = [int(br.constant * d) for br in f.branches]
        return BranchData(linears, consts, d)

    def permuted(self, order):
        return BranchData(
            [tuple(l[i] for i in order) for l in self.linears], self.consts, self.denom
        )


def floor_sum(n, m, a, b):
    """sum_{i=0}^{n-1} floor((a + b*i)/m) for n >= 0, m > 0 (exact, any a, b)."""
    ans = 0
    if a < 0:
        a2 = a % m
        ans -= n * ((a2 - a) // m)
        a = a2
    if b < 0:
        b2 = b % m
        ans -= (n * (n - 1) // 2) * ((b2 - b) // m)
        b = b2
    while True:
        if a >= m:
            ans += n * (a // m)
            a %= m
        if b >= m:
            ans += (n * (n - 1) // 2) * (b // m)
            b %= m
        y_max = a + b * n
        if y_max < m:
            break
        n = y_max // m
        a = y_max % m
        b, m = m, b
    return ans


def _leaf_runs(avals, bvals, lo, hi):
    """Partition the integers of [lo, hi] into runs on which one branch of
    min_b(avals[b] + bvals[b]*t) stays minimal; yields (s, e, A, B)."""
    k = len(avals)
    cuts = set()
    for p in range(k):
        for q in range(p + 1, k):
            db = bvals[p] - bvals[q]
            if db == 0:
                continue
            t0 = floor(Fraction(avals[q] - avals[p], db)) + 1
            if lo < t0 <= hi:
                cuts.add(t0)
    boundaries = [lo] + sorted(cuts) + [hi + 1]
    for i in range(len(boundaries) - 1):
        s, e = boundaries[i], boundaries[i + 1] - 1
        if s > e:
            continue
        vals = [avals[b] + bvals[b] * s for b in range(k)]
        bstar = min(range(k), key=lambda b: vals[b])
        yield s, e, avals[bstar], bvals[bstar]


def _leaf_pieces(avals, bvals, lo, hi, clamp):
    """Runs with the clamp (max with 0) applied; the value on each yielded
    run (s, e, A, B) is exactly A + B*t for every integer t in it."""
    for s, e, A, B in _leaf_runs(avals, bvals, lo, hi):
        if not clamp:
            yield s, e, A, B
            continue
        if B == 0:
            yield s, e, max(A, 0), 0
            continue
        c = Fraction(-A, B)
        if B > 0:
            pos_lo = max(s, ceil(c))
            if s <= min(e, pos_lo - 1):
                yield s, min(e, pos_lo - 1), 0, 0
            if pos_lo <= e:
                yield pos_lo, e, A, B
        else:
            pos_hi = min(e, floor(c))
            if s <= pos_hi:
                yield s, pos_hi, A, B
            if max(s, pos_hi + 1) <= e:
                yield max(s, pos_hi + 1), e, 0, 0


def _choose_order(n, branches):
    """Variable order for reductions: innermost coordinate is the one with
    the most zero branch coefficients (closed-form friendly)."""
    zero_counts = [sum(1 for l in branches.linears if l[i] == 0) for i in range(n)]
    inner = max(range(n), key=lambda i: (zero_counts[i], i))
    return [i for i in range(n) if i != inner] + [inner]


def _reduced_setup(p, m, branches):
    n = p.rank
    order = _choose_order(n, branches)
    rows = [(tuple(a[i] for i in order), b) for a, b in int_rows_from_polytope(p, m)]
    return PrefixBounds(rows, n), branches.permuted(order)


def _leaf_affine(bd, prefix):
    """(avals, bvals) of every branch as a function of the last coordinate."""
    avals, bvals = [], []
    k = len(prefix)
    for l, c in zip(bd.linears, bd.consts):
        avals.append(c + sum(ci * xi for ci, xi in zip(l, prefix)))
        bvals.append(l[k])
    return avals, bvals


def _origin(branches, clamp):
    """The scaled branch minimum at the origin, the one point of 0*p."""
    v = min(branches.consts)
    return max(v, 0) if clamp else v


def _value_at_origin(branches, floor_mode, clamp):
    v = _origin(branches, clamp)
    return Fraction(v // branches.denom) if floor_mode else Fraction(v, branches.denom)


def sum_values(p, m, branches, floor_mode=False, clamp=False):
    """Exact sum of the branch minimum over the points of m*p."""
    _check_level(m)
    if p.affine_dim < 0 or not p.vertices:
        return Fraction(0)
    if m == 0:
        return _value_at_origin(branches, floor_mode, clamp)
    pb, bd = _reduced_setup(p, m, branches)
    D = bd.denom
    total = 0
    for prefix, lo, hi in pb.leaves():
        avals, bvals = _leaf_affine(bd, prefix)
        for s, e, A, B in _leaf_pieces(avals, bvals, lo, hi, clamp):
            cnt = e - s + 1
            if floor_mode:
                total += floor_sum(cnt, D, A + B * s, B)
            else:
                total += A * cnt + B * (s + e) * cnt // 2
    return Fraction(total) if floor_mode else Fraction(total, D)


def max_value(p, m, branches, floor_mode=False, clamp=False):
    """Exact maximum of the branch minimum over the points of m*p."""
    _check_level(m)
    if p.affine_dim < 0 or not p.vertices:
        return None
    if m == 0:
        return _value_at_origin(branches, floor_mode, clamp)
    pb, bd = _reduced_setup(p, m, branches)
    best = None
    for prefix, lo, hi in pb.leaves():
        avals, bvals = _leaf_affine(bd, prefix)
        for s, e, A, B in _leaf_pieces(avals, bvals, lo, hi, clamp):
            for t in (s, e):
                v = A + B * t
                if best is None or v > best:
                    best = v
    if best is None:
        return None
    return Fraction(best // bd.denom) if floor_mode else Fraction(best, bd.denom)


def value_histogram(p, m, branches, floor_mode=False, clamp=False, jobs=1):
    """Exact multiplicity histogram of the branch minimum over m*p.

    Keys are scaled integers (value = key/denom), or already-floored integers
    in floor_mode.  Runs whose value varies along the innermost coordinate
    fall back to walking the run point by point.  ``jobs`` is accepted for
    compatibility; it has no effect.
    """
    _check_level(m)
    if p.affine_dim < 0 or not p.vertices:
        return {}
    D = branches.denom
    if m == 0:
        v = _origin(branches, clamp)
        return {v // D if floor_mode else v: 1}
    pb, bd = _reduced_setup(p, m, branches)
    hist = {}
    for prefix, lo, hi in pb.leaves():
        avals, bvals = _leaf_affine(bd, prefix)
        for s, e, A, B in _leaf_pieces(avals, bvals, lo, hi, clamp):
            if B == 0:
                key = A // D if floor_mode else A
                hist[key] = hist.get(key, 0) + (e - s + 1)
            else:
                for t in range(s, e + 1):
                    v = A + B * t
                    key = v // D if floor_mode else v
                    hist[key] = hist.get(key, 0) + 1
    return hist


# ---------------------------------------------------------------------------
# degree slices (integral polarization)
# ---------------------------------------------------------------------------


def points_on_level(dual, xi_int, t):
    """Integer points u of the weight cone with <u, xi> exactly t, for an
    integer vector xi; ascending lexicographic order."""
    n = dual.rank
    xi = [int(x) for x in xi_int]
    j = min((i for i in range(n) if xi[i] != 0), key=lambda i: (abs(xi[i]), i))
    cj = xi[j]
    if n == 1:
        if t % cj == 0:
            u = t // cj
            if all(h[0] * u >= 0 for h in dual.halfspaces):
                yield (u,)
        return
    rest = [i for i in range(n) if i != j]
    sign = 1 if cj > 0 else -1
    rows = []
    for h in dual.halfspaces:
        coeffs = tuple(-(cj * h[i] - h[j] * xi[i]) * sign for i in rest)
        rhs = sign * h[j] * t
        rows.append(_normalize_row(coeffs, rhs))
    points = []
    for prefix, lo, hi in PrefixBounds(rows, n - 1).leaves():
        for x in range(lo, hi + 1):
            free = prefix + (x,)
            s = t - sum(xi[i] * y for i, y in zip(rest, free))
            if s % cj == 0:
                point = list(free)
                point.insert(j, s // cj)
                points.append(tuple(point))
    yield from sorted(points)
