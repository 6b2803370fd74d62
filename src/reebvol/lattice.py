"""Exact lattice-point engines.

Enumeration works on integer inequality systems A x <= b obtained by
clearing denominators of a polytope's halfspace description.  Per-variable
bounds come from Fourier-Motzkin projection, computed once per system, and
the rows of each projection level are split once by the sign of their last
coefficient into upper and lower bounds.  One walker, ``PrefixBounds``,
fixes the coordinates one by one: a node fixes a prefix and knows the
integer range of the next coordinate.  It forms the residual
r = b - head.prefix of each row of its children's level once, and each
child x then gets its bounds as min((r - c*x) // a) over the upper rows and
the matching integer ceiling over the lower ones, a subtraction and a floor
division per row.  A node builds the list of its own children only, and the
innermost slices come out as leaves: a prefix and the integer range of the
last coordinate, in ascending lexicographic order.  No bounding box is ever
materialized.

Every engine is a loop over those leaves: streaming enumeration expands
each range, and the reductions treat it in closed form, in integers only:
point counts, sums and maxima of a minimum of integer affine forms, and
value histograms.  These give exact jumping number statistics without
touching every lattice point individually.  Streaming enumeration keeps
the natural coordinate order, as its output is lexicographic.  Counts and
reductions take as innermost the coordinate with the least
(1 + branch pairs of distinct slopes along it) per unit of the body's
width along it (``_walk_order``): a leaf costs about one step per run of
one branch, and a wider innermost range means fewer leaves.  Along a
leaf the branch minimum splits into maximal runs of one affine piece.  A
histogram never visits points: a constant run adds its length to its
value, a varying one adds two endpoint events keyed by its step, and one
sorted sweep per step writes each covered value once, with its count.

A degree slice <u, xi> = t is walked the same way after solving for one
coordinate: each innermost range gives one arithmetic progression of its
points, along which the level sums' per-leaf reducer runs unchanged.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product, repeat
from math import gcd, lcm
from operator import mul

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
    """Fourier-Motzkin projections of an integer system A x <= b in ``nvars``
    unknowns, walked for the exact integer range of each coordinate.

    Level k holds the projected rows whose last nonzero coefficient is that
    of x_k, split once by its sign into upper and lower bounds of x_k.  A
    row with a zero x_k coefficient is left out of level k: projection
    carries it down to the level of its last nonzero coefficient, where the
    walk has already enforced it."""

    def __init__(self, rows, nvars):
        self.nvars = nvars
        self.infeasible = False
        current = []
        for a, b in rows:
            if all(c == 0 for c in a):
                if b < 0:
                    self.infeasible = True
            else:
                current.append(_normalize_row(a, b))
        current = sorted(set(current))
        self._split = [None] * (nvars + 1)
        for k in range(nvars, 0, -1):
            nxt, pos, neg = [], [], []
            for a, b in current:
                ak = a[k - 1]
                if ak == 0:
                    nxt.append((a, b))
                elif ak > 0:
                    pos.append((a, b))
                else:
                    neg.append((a, b))
            self._split[k] = ([_bound_row(a, b, k, -1) for a, b in pos],
                              [_bound_row(a, b, k, 1) for a, b in neg])
            for (ap, bp), (an, bn) in product(pos, neg):
                cp, cn = ap[k - 1], -an[k - 1]
                comb = tuple(cn * x + cp * y for x, y in zip(ap, an))
                rhs = cn * bp + cp * bn
                if all(c == 0 for c in comb):
                    if rhs < 0:
                        self.infeasible = True
                    continue
                nxt.append(_normalize_row(comb, rhs))
            current = sorted(set(nxt))

    def _children(self, k, prefix, lo, hi):
        """(x, lo_k, hi_k) for each x in lo..hi at which x_k, over the prefix
        ``prefix + (x,)`` of length k - 1, has the integer range lo_k..hi_k;
        at k = 1 the prefix is empty and x a placeholder."""
        upper, lower = self._split[k]
        if not upper or not lower:
            raise UnsupportedGeometryError("unbounded direction in lattice enumeration")
        xs = range(lo, hi + 1)
        return [(x, l, h) for x, l, h in zip(xs, _envelope(lower, prefix, xs, max),
                                             _envelope(upper, prefix, xs, min)) if l <= h]

    def nodes(self):
        """Every node whose children are leaves, as (head, children) in
        ascending lexicographic order of head: ``head`` fixes x_1..x_{n-2}
        and ``children`` lists (x, lo, hi) for each x_{n-1} = x whose slice
        holds an integer point, lo..hi being the range of x_n.  Needs
        nvars >= 2."""
        if self.infeasible:
            return
        last = self.nvars
        stack = [((), lo, hi) for _, lo, hi in self._children(1, (), 0, 0)]
        while stack:
            prefix, lo, hi = stack.pop()
            k = len(prefix) + 2
            children = self._children(k, prefix, lo, hi)
            if k < last:
                stack.extend((prefix + (x,), l, h) for x, l, h in reversed(children))
            elif children:
                yield prefix, children

    def leaves(self):
        """Every innermost slice of the system: (prefix, lo, hi) with
        len(prefix) == nvars - 1 and lo..hi the integer range of the last
        coordinate, in ascending lexicographic order of prefix."""
        if self.nvars == 1:
            if not self.infeasible:
                yield from (((), lo, hi) for _, lo, hi in self._children(1, (), 0, 0))
            return
        for head, children in self.nodes():
            for x, lo, hi in children:
                yield head + (x,), lo, hi


def _bound_row(a, b, k, sign):
    """Row a.x <= b of level k as (h, c, d, r) with d > 0: at a prefix
    head + (x,) of length k - 1, it bounds x_k by (r + h.head + c*x) // d,
    from above for sign -1 (a_k > 0) and, as an integer ceiling, from below
    for sign 1 (a_k < 0)."""
    d = -sign * a[k - 1]
    h = tuple(sign * v for v in a[:k - 2]) if k > 1 else ()
    c = sign * a[k - 2] if k > 1 else 0
    return h, c, d, (b if sign < 0 else d - 1 - b)


def _envelope(rows, prefix, xs, pick):
    """``pick`` over bound rows (h, c, d, r) of (r + h.prefix + c*x) // d, for
    each x in the range ``xs``: the residual r + h.prefix is formed once."""
    fixed, cols = None, []
    for h, c, d, r in rows:
        r += sum(map(mul, h, prefix))
        if c:
            cols.append([(r + c * x) // d for x in xs])
        else:
            fixed = r // d if fixed is None else pick(fixed, r // d)
    if fixed is not None:
        cols.append(repeat(fixed, len(xs)))
    return cols[0] if len(cols) == 1 else map(pick, *cols)


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
    pb = _walker(p, m, _walk_order(p))
    return sum(hi - lo + 1 for _, lo, hi in pb.leaves())


def _walk_order(p, branches=None):
    """The coordinate order of a walk over m*p, innermost coordinate last.

    A leaf costs about one step per run of its innermost range, and a run
    ends only where two branches of distinct slopes along that coordinate
    cross, while the number of leaves falls as the innermost range widens.
    So the innermost coordinate is the one that minimizes (1 + the branch
    pairs of distinct slopes along it) / (the width of p along it), ties
    going to the highest index.  A coordinate along which p is flat is
    never innermost.  The order depends on p and the branches only."""
    n = p.rank
    pairs = list(combinations(branches.linears, 2)) if branches is not None else []
    widths = [max(v[i] for v in p.vertices) - min(v[i] for v in p.vertices) for i in range(n)]
    inner = min((i for i in range(n) if widths[i]), default=n - 1,
                key=lambda i: ((1 + sum(a[i] != b[i] for a, b in pairs)) / widths[i], -i))
    return [i for i in range(n) if i != inner] + [inner]


def _walker(p, m, order):
    """The walker of m*p with its coordinates taken in ``order``."""
    rows = [(tuple(a[i] for i in order), b) for a, b in int_rows_from_polytope(p, m)]
    return PrefixBounds(rows, p.rank)


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


def _crossings(bvals):
    """(p, q, bvals[p] - bvals[q]) for the branch pairs p < q of distinct
    slopes, the only pairs whose order can change along a leaf."""
    return [(p, q, bvals[p] - bvals[q])
            for p, q in combinations(range(len(bvals)), 2) if bvals[p] != bvals[q]]


def _leaf_runs(avals, bvals, crossings, lo, hi):
    """Partition the integers of [lo, hi] into maximal runs on which one
    branch of min_b(avals[b] + bvals[b]*t) stays minimal: a list of
    (s, e, A, B), consecutive runs differing in (A, B).  ``crossings`` is
    ``_crossings(bvals)``; a crossing off the lower envelope splits no run."""
    if not crossings:
        return [(lo, hi, min(avals), bvals[0])]
    cuts = set()
    for p, q, db in crossings:
        t0 = (avals[q] - avals[p]) // db + 1  # the first integer past their crossing
        if lo < t0 <= hi:
            cuts.add(t0)
    runs = []
    s = lo
    for nxt in sorted(cuts) + [hi + 1]:
        vals = [a + b * s for a, b in zip(avals, bvals)]
        i = vals.index(min(vals))
        _extend(runs, s, nxt - 1, avals[i], bvals[i])
        s = nxt
    return runs


def _extend(runs, s, e, A, B):
    """Append the run (s, e, A, B) that follows ``runs``, merged into the
    last one when that carries the same (A, B)."""
    if runs and runs[-1][2] == A and runs[-1][3] == B:
        runs[-1] = (runs[-1][0], e, A, B)
    else:
        runs.append((s, e, A, B))


def _leaf_pieces(avals, bvals, crossings, lo, hi, clamp):
    """Runs with the clamp (max with 0) applied; the value on each run
    (s, e, A, B) of the returned list is exactly A + B*t for every integer t
    in it."""
    runs = _leaf_runs(avals, bvals, crossings, lo, hi)
    if not clamp:
        return runs
    pieces = []
    for s, e, A, B in runs:
        if B == 0:
            _extend(pieces, s, e, max(A, 0), 0)
        elif B > 0:
            z = -(A // B)  # the first t with A + B*t >= 0
            if s < z:
                _extend(pieces, s, min(e, z - 1), 0, 0)
            if z <= e:
                pieces.append((max(s, z), e, A, B))
        else:
            z = (-A) // B  # the last t with A + B*t >= 0
            if s <= z:
                pieces.append((s, min(e, z), A, B))
            if z < e:
                _extend(pieces, max(s, z + 1), e, 0, 0)
    return pieces


def _reduced_pieces(p, m, branches, clamp):
    """The points of m*p as pieces (s, e, A, B), coordinates in the order of
    ``_walk_order``: along the last one, the clamped scaled branch minimum
    is A + B*x for x in s..e.  Each node's offsets are formed once, and each
    leaf below it adds its penultimate coordinate's term."""
    order = _walk_order(p, branches)
    bd = branches.permuted(order)
    leaves = _offset_leaves(_walker(p, m, order), bd)
    return _pieces([l[-1] for l in bd.linears], leaves, clamp)


def _offset_leaves(pb, bd):
    """The leaves of ``pb`` as (avals, lo, hi), avals being the scaled
    branches at the leaf's prefix."""
    if pb.nvars == 1:
        for _, lo, hi in pb.leaves():
            yield bd.consts, lo, hi
        return
    pens = [l[-2] for l in bd.linears]
    for head, children in pb.nodes():
        base = _offsets(bd, head)
        for x, lo, hi in children:
            yield [a + c * x for a, c in zip(base, pens)], lo, hi


def _pieces(bvals, leaves, clamp):
    """The pieces of leaves (avals, lo, hi), each the integers lo..hi of one
    parameter along which every branch is avals[b] + bvals[b]*x."""
    crossings = _crossings(bvals)
    for avals, lo, hi in leaves:
        yield from _leaf_pieces(avals, bvals, crossings, lo, hi, clamp)


def _offsets(bd, point):
    """Every scaled branch at ``point``; missing trailing coordinates are 0."""
    return [c + sum(map(mul, l, point)) for l, c in zip(bd.linears, bd.consts)]


def _origin(branches, clamp):
    """The scaled branch minimum at the origin, the one point of 0*p."""
    v = min(branches.consts)
    return max(v, 0) if clamp else v


def _scaled(v, denom, floor_mode):
    """The value of a scaled integer v, floored in floor_mode."""
    return Fraction(v // denom) if floor_mode else Fraction(v, denom)


def _leaf_sum(pieces, denom, floor_mode):
    """The number of points and the exact sum of the scaled values over
    ``pieces`` (s, e, A, B), over ``denom``."""
    count = total = 0
    for s, e, A, B in pieces:
        cnt = e - s + 1
        count += cnt
        if floor_mode:
            total += floor_sum(cnt, denom, A + B * s, B)
        else:
            total += A * cnt + B * (s + e) * cnt // 2
    return count, (Fraction(total) if floor_mode else Fraction(total, denom))


def count_and_sum(p, m, branches, floor_mode=False, clamp=False):
    """The number of points of m*p and the exact sum of the branch minimum
    over them, from one walk."""
    _check_level(m)
    if p.affine_dim < 0 or not p.vertices:
        return 0, Fraction(0)
    if m == 0:
        return 1, _scaled(_origin(branches, clamp), branches.denom, floor_mode)
    return _leaf_sum(_reduced_pieces(p, m, branches, clamp), branches.denom, floor_mode)


def sum_values(p, m, branches, floor_mode=False, clamp=False):
    """Exact sum of the branch minimum over the points of m*p."""
    return count_and_sum(p, m, branches, floor_mode, clamp)[1]


def max_value(p, m, branches, floor_mode=False, clamp=False):
    """Exact maximum of the branch minimum over the points of m*p."""
    _check_level(m)
    if p.affine_dim < 0 or not p.vertices:
        return None
    if m == 0:
        return _scaled(_origin(branches, clamp), branches.denom, floor_mode)
    best = max((max(A + B * s, A + B * e) for s, e, A, B in _reduced_pieces(p, m, branches, clamp)),
               default=None)
    return None if best is None else _scaled(best, branches.denom, floor_mode)


def value_histogram(p, m, branches, floor_mode=False, clamp=False, jobs=1):
    """Exact multiplicity histogram of the branch minimum over m*p.

    Keys are scaled integers (value = key/denom), or already-floored integers
    in floor_mode.  The work is in the pieces and the distinct keys, not in
    the points: a constant piece adds its length to its key, and a varying
    one of step |B| marks +1 at its first value and -1 one step past its
    last; one sorted sweep per step then writes each value it covers once,
    with its coverage count.  In floor_mode the scaled keys are floored at
    the end.  ``jobs`` is accepted for compatibility; it has no effect.
    """
    _check_level(m)
    if p.affine_dim < 0 or not p.vertices:
        return {}
    D = branches.denom
    if m == 0:
        v = _origin(branches, clamp)
        return {v // D if floor_mode else v: 1}
    hist = Counter()
    steps = {}
    for s, e, A, B in _reduced_pieces(p, m, branches, clamp):
        if B == 0:
            hist[A] += e - s + 1
            continue
        first, last = A + B * s, A + B * e
        if B < 0:
            first, last, B = last, first, -B
        events = steps.setdefault(B, {})
        events[first] = events.get(first, 0) + 1
        events[last + B] = events.get(last + B, 0) - 1
    for b, events in steps.items():
        hist.update(_coverage(events, b))
    if not floor_mode:
        return hist
    folded = Counter()
    for k, c in hist.items():
        folded[k // D] += c
    return folded


def _coverage(events, b):
    """The values that progressions of step b cover, each with the number of
    progressions covering it, from their endpoint events {value: +1 per
    first value and -1 per value one step past a last one}.  Each residue
    class modulo b is swept in ascending order."""
    covered = {}
    count = prev = 0
    for k in sorted(events, key=lambda k: (k % b, k)):
        if count:
            covered.update(zip(range(prev, k, b), repeat(count)))
        count += events[k]
        prev = k
    return covered


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
    (u0, du, k) that share one step du, such as those of ``level_runs``."""
    if not runs:
        return Fraction(0)
    bvals = [sum(map(mul, l, runs[0][1])) for l in branches.linears]
    leaves = ((_offsets(branches, u0), 0, k) for u0, _, k in runs)
    return _leaf_sum(_pieces(bvals, leaves, clamp), branches.denom, floor_mode)[1]


def points_on_level(dual, xi_int, t):
    """The points of ``level_runs``, in ascending lexicographic order."""
    yield from sorted(
        tuple(x + i * y for x, y in zip(u0, du))
        for u0, du, k in level_runs(dual, xi_int, t) for i in range(k + 1)
    )
