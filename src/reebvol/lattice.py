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

A degree slice <u, xi> = t is walked the same way after solving for one
coordinate: each innermost range gives one arithmetic progression of its
points, along which the level sums' per-leaf reducer runs unchanged.
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


def _reduced_leaves(p, m, branches):
    """The leaves of m*p as (avals, bvals, lo, hi), coordinates in the order
    of ``_choose_order``: along the last one, x in lo..hi, the scaled branch
    b is avals[b] + bvals[b]*x."""
    n = p.rank
    order = _choose_order(n, branches)
    rows = [(tuple(a[i] for i in order), b) for a, b in int_rows_from_polytope(p, m)]
    bd = branches.permuted(order)
    bvals = [l[-1] for l in bd.linears]
    for prefix, lo, hi in PrefixBounds(rows, n).leaves():
        yield _offsets(bd, prefix), bvals, lo, hi


def _offsets(bd, point):
    """Every scaled branch at ``point``; missing trailing coordinates are 0."""
    return [c + sum(x * y for x, y in zip(l, point)) for l, c in zip(bd.linears, bd.consts)]


def _origin(branches, clamp):
    """The scaled branch minimum at the origin, the one point of 0*p."""
    v = min(branches.consts)
    return max(v, 0) if clamp else v


def _value_at_origin(branches, floor_mode, clamp):
    v = _origin(branches, clamp)
    return Fraction(v // branches.denom) if floor_mode else Fraction(v, branches.denom)


def _leaf_sum(leaves, denom, floor_mode, clamp):
    """Exact sum of the branch minimum over leaves (avals, bvals, lo, hi),
    each the integers lo..hi of one parameter along which every branch is
    avals[b] + bvals[b]*x over ``denom``."""
    total = 0
    for avals, bvals, lo, hi in leaves:
        for s, e, A, B in _leaf_pieces(avals, bvals, lo, hi, clamp):
            cnt = e - s + 1
            if floor_mode:
                total += floor_sum(cnt, denom, A + B * s, B)
            else:
                total += A * cnt + B * (s + e) * cnt // 2
    return Fraction(total) if floor_mode else Fraction(total, denom)


def sum_values(p, m, branches, floor_mode=False, clamp=False):
    """Exact sum of the branch minimum over the points of m*p."""
    _check_level(m)
    if p.affine_dim < 0 or not p.vertices:
        return Fraction(0)
    if m == 0:
        return _value_at_origin(branches, floor_mode, clamp)
    return _leaf_sum(_reduced_leaves(p, m, branches), branches.denom, floor_mode, clamp)


def max_value(p, m, branches, floor_mode=False, clamp=False):
    """Exact maximum of the branch minimum over the points of m*p."""
    _check_level(m)
    if p.affine_dim < 0 or not p.vertices:
        return None
    if m == 0:
        return _value_at_origin(branches, floor_mode, clamp)
    best = None
    for avals, bvals, lo, hi in _reduced_leaves(p, m, branches):
        for s, e, A, B in _leaf_pieces(avals, bvals, lo, hi, clamp):
            for t in (s, e):
                v = A + B * t
                if best is None or v > best:
                    best = v
    if best is None:
        return None
    return Fraction(best // branches.denom) if floor_mode else Fraction(best, branches.denom)


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
    hist = {}
    for avals, bvals, lo, hi in _reduced_leaves(p, m, branches):
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


def level_runs(dual, xi_int, t):
    """Integer points u of the weight cone with <u, xi> exactly t, for an
    integer vector xi, as arithmetic progressions (u0, du, k): the points
    u0 + i*du for 0 <= i <= k.  The coordinate j with the least nonzero
    |xi_j| is solved for and the others walked with ``PrefixBounds.leaves``;
    each innermost range holds one progression."""
    n = dual.rank
    xi = [int(x) for x in xi_int]
    j = min((i for i in range(n) if xi[i] != 0), key=lambda i: (abs(xi[i]), i))
    cj = xi[j]
    if n == 1:
        if t % cj == 0 and all(h[0] * (t // cj) >= 0 for h in dual.halfspaces):
            yield (t // cj,), (0,), 0
        return
    rest = [i for i in range(n) if i != j]
    sign = 1 if cj > 0 else -1
    rows = []
    for h in dual.halfspaces:
        coeffs = tuple(-(cj * h[i] - h[j] * xi[i]) * sign for i in rest)
        rhs = sign * h[j] * t
        rows.append(_normalize_row(coeffs, rhs))
    # xi_j divides s - a*x exactly for the x in one class modulo `period`
    a = xi[rest[-1]]
    g = gcd(a, cj)
    period = abs(cj) // g
    inverse = pow(a // g, -1, period)
    free_du = (0,) * (n - 2) + (period,)
    du = free_du[:j] + (-(a * period) // cj,) + free_du[j:]
    for prefix, lo, hi in PrefixBounds(rows, n - 1).leaves():
        s = t - sum(xi[i] * y for i, y in zip(rest, prefix))
        x = lo + (s // g * inverse - lo) % period
        if s % g == 0 and x <= hi:
            free = prefix + (x,)
            yield free[:j] + ((s - a * x) // cj,) + free[j:], du, (hi - x) // period


def level_sum(runs, branches, floor_mode=False, clamp=False):
    """Exact sum of the branch minimum over the points of progressions
    (u0, du, k), such as those of ``level_runs``."""
    slopes = BranchData(branches.linears, [0] * len(branches.linears), branches.denom)
    leaves = ((_offsets(branches, u0), _offsets(slopes, du), 0, k) for u0, du, k in runs)
    return _leaf_sum(leaves, branches.denom, floor_mode, clamp)


def points_on_level(dual, xi_int, t):
    """The points of ``level_runs``, in ascending lexicographic order."""
    yield from sorted(
        tuple(x + i * y for x, y in zip(u0, du))
        for u0, du, k in level_runs(dual, xi_int, t) for i in range(k + 1)
    )
