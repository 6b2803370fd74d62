"""Exact lattice-point engines.

One walker, ``PrefixBounds``, fixes the coordinates of a bounded body one
by one.  Level k of the walk bounds x_k by the facets of the body's
projection onto its first k coordinates, as integer rows split once by
the sign of their x_k coefficient.  Those projections are the hulls of the
projected vertices (``Polytope.walk_levels``), built by the one
double-description core, once per body and walk order, and a dilation m
only scales their offsets, so every level m of a body shares them.

The walk is level-synchronous: it fixes one coordinate for a whole chunk
of prefixes at once, as integer columns.  Every row of a deeper level, and
every affine form the caller asks for, carries its residual at each
prefix, so a child x of a prefix gets its bound on the next coordinate as
(r + c*x) // d, min over the upper rows and max over the lower ones: an
addition and a floor division per row class.  Rows (or forms) that agree
on every coefficient not yet fixed and on the divisor share one residual,
their min or max, as the floor division is monotone; a row with a zero
coefficient on the coordinate being fixed gives one scalar per parent.
Each level takes at most ``BATCH`` children per step, splitting a parent's
range where a step ends, so the frontier stays bounded whatever the level
m.  The leaves come out in batches, in ascending lexicographic order
across node boundaries: the forms' values at each leaf's prefix and the
range lo..hi of the last coordinate.  No bounding box is ever
materialized.

Streaming enumeration expands each leaf's range in the natural coordinate
order, as its output is lexicographic.  The reductions (point counts, sums
and maxima of a minimum of integer affine forms, value histograms) take the
innermost coordinate from ``_walk_order`` and reduce each leaf batch as
columns, in integers only, without visiting points.  The branches of one
slope along the last coordinate form a group, whose least offset at each
leaf is one of the walk's form values, and one floor division per pair of
groups and leaf bounds the piece of the leaf where a group is the minimum;
the clamp cuts each piece at its zero.  Sums are closed forms over
the pieces.  A histogram marks two endpoint events per varying piece, keyed
by its step, and one sorted sweep per step writes each covered value once,
with its count.

The weights of degree <u, xi> = t of an integral xi are t times the slice
P at degree 1 in a unimodular frame (``degree_frame``) that puts <u, xi>/g
on the last coordinate, g = gcd(xi): its body is a polytope in the
hyperplane v_n = 1/g, walked and reduced like any other, whose dilation t
holds no point when g does not divide t.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict, namedtuple
from fractions import Fraction
from itertools import accumulate, chain, combinations, compress, repeat
from math import gcd
from operator import add, ge, itemgetter, le, mul, sub

from .arith import unimodular_completion
from .errors import UnsupportedGeometryError
from .plconcave import integer_branches
from .polyhedra import reeb_slice, unimodular_image

# ---------------------------------------------------------------------------
# integer inequality systems
# ---------------------------------------------------------------------------


BATCH = 1024  # the most leaves, or children of one level, that one batch holds


class PrefixBounds:
    """A walker over the integer points of a bounded body, from its integer
    rows per level: level k (k = 1..nvars) holds rows a.x <= b in x_1..x_k
    that describe the body's projection onto its first k coordinates.

    Each level's rows are split once by the sign of their x_k coefficient
    into upper and lower bounds of x_k.  A row with a zero x_k coefficient
    is left out: it bounds the projection onto x_1..x_{k-1} too, where the
    walk has already enforced it.

    ``batches`` fixes one coordinate per level for a whole chunk of
    prefixes at once, as integer columns.  Every bound row of a deeper
    level, and every affine form that the caller asks for, carries its
    residual at each prefix; rows or forms that agree on every coefficient
    not yet fixed and on the divisor carry one residual, their min or max.
    So the rows of the next level that share the coefficient being fixed
    and the divisor are one column, those with a zero coefficient there one
    scalar per parent, and the forms of one group that share their last
    prefix coefficient one column before the last expansion.  Each level
    expands at most ``BATCH`` children per step, splitting a parent's range
    where a step ends, so the frontier stays bounded: about ``BATCH``
    entries per level and column, whatever the size of the body."""

    def __init__(self, levels):
        self.nvars = len(levels)
        self._split = [None] + [
            ([_bound_row(a, b, -1) for a, b in rows if a[-1] > 0],
             [_bound_row(a, b, 1) for a, b in rows if a[-1] < 0])
            for rows in levels]

    def batches(self, groups=()):
        """Batches (values, los, his) of the leaves in ascending
        lexicographic order of their prefix x_1..x_{n-1}: for leaf i,
        los[i]..his[i] is the nonempty integer range of x_n, and values[g][i]
        is the least of the affine forms (linear, const) of ``groups[g]`` at
        the prefix, ``linear`` having n - 1 integer entries.  A batch holds
        at most ``BATCH`` leaves."""
        families = [(min, [(tuple(l), 1, c) for l, c in group]) for group in groups]
        for upper, lower in self._split[2:]:
            families += [(max, lower), (min, upper)]
        upper, lower = self._split[1]
        if not upper or not lower:
            raise UnsupportedGeometryError("unbounded direction in lattice enumeration")
        lo, hi = max(r // d for _, d, r in lower), min(r // d for _, d, r in upper)
        if lo > hi:
            return
        layout, chunk = [], []  # the root's classes, one column of one entry each
        for f, (pick, members) in enumerate(families):
            least = {}
            for coefs, d, r in members:
                least[coefs, d] = pick(least[coefs, d], r) if (coefs, d) in least else r
            layout += [(f, coefs, d) for coefs, d in least]
            chunk += [[r] for r in least.values()]
        chunks = [(chunk, [lo], [hi])]
        for upper, lower in self._split[2:]:
            layout, specs = _step(families, layout)
            chunks = _expand_all(specs, chunks, not upper or not lower)
        yield from chunks

    def leaves(self):
        """Every innermost slice of the system: (prefix, lo, hi) with
        len(prefix) == nvars - 1 and lo..hi the integer range of the last
        coordinate, in ascending lexicographic order of prefix."""
        n = self.nvars - 1
        coords = [[(tuple(int(i == j) for j in range(n)), 0)] for i in range(n)]
        for values, los, his in self.batches(coords):
            yield from zip(zip(*values) if n else repeat(()), los, his)


def _bound_row(a, b, sign):
    """Row a.x <= b of level k as (coefs, d, r) with d > 0: at a prefix x of
    length k - 1, it bounds x_k by (r + coefs.x) // d, from above for sign -1
    (a_k > 0) and, as an integer ceiling, from below for sign 1 (a_k < 0)."""
    d = -sign * a[-1]
    return tuple(sign * v for v in a[:-1]), d, (b if sign < 0 else d - 1 - b)


def _step(families, layout):
    """The column specs that fix the next coordinate, and the layout of the
    carried columns after it.  ``layout`` names each carried column by
    (family, coefs, d), coefs starting at the coordinate to fix.  A spec
    (pick, fixed, moving) builds one column of the children: ``pick`` over
    the parent's r // d for the fixed terms (i, d), whose coefficient is 0,
    and over (the ``pick`` of r + a*x over the moving terms (i, a) of one
    divisor d) // d for each (d, terms) of ``moving``, r being column i.  A
    family whose coefficients end at this coordinate gives one column, the
    others one per class of equal remaining coefficients and divisor.  The
    specs of the carried columns come first, then those of the ending
    families in family order."""
    carried, ends = {}, {}
    for i, (f, coefs, d) in enumerate(layout):
        if len(coefs) > 1:
            fixed, moving = carried.setdefault((f, coefs[1:], d), ([], {}))
            d = 1
        else:
            fixed, moving = ends.setdefault((f,), ([], {}))
        if coefs[0]:
            moving.setdefault(d, []).append((i, coefs[0]))
        else:
            fixed.append((i, d))
    specs = [(families[key[0]][0], fixed, list(moving.items()))
             for key, (fixed, moving) in chain(carried.items(), sorted(ends.items()))]
    return list(carried), specs


def _expand_all(specs, chunks, unbounded):
    """The chunks of the children of ``chunks``, fixing their next
    coordinate; each holds at most ``BATCH`` children, none with an empty
    range."""
    for chunk in chunks:
        if unbounded:
            raise UnsupportedGeometryError("unbounded direction in lattice enumeration")
        for part in _parts(*chunk):
            children = _expand(specs, *part)
            if children[1]:
                yield children


def _parts(cols, los, his):
    """A chunk of nodes cut into runs of at most ``BATCH`` children, in
    order; a parent whose range the cut meets is split between two runs."""
    ends = list(accumulate(map(sub, his, los)))
    total = ends[-1] + len(ends)
    if total <= BATCH:
        yield cols, los, his
        return
    ends = list(map(add, ends, range(1, len(ends) + 1)))  # children up to each parent
    for start in range(0, total, BATCH):
        stop = min(start + BATCH, total)
        i, j = bisect_right(ends, start), bisect_left(ends, stop)
        part_los, part_his = los[i:j + 1], his[i:j + 1]
        part_los[0] = his[i] + 1 - (ends[i] - start)
        part_his[-1] = his[j] - (ends[j] - stop)
        yield [col[i:j + 1] for col in cols], part_los, part_his


def _expand(specs, cols, los, his):
    """The children (cols, los, his) of the nodes (cols, los, his): one per x
    in each node's range, with the columns of ``specs``, the last two being
    the new range.  Children with an empty range are dropped."""
    ends = list(map(add, his, repeat(1)))
    xs = list(chain.from_iterable(map(range, los, ends)))
    # a parent's column entry, once per child
    spread = (itemgetter(*chain.from_iterable(map(repeat, range(len(los)), map(sub, ends, los))))
              if len(los) > 1 else lambda col: col * len(xs))
    steps = {}

    def moved(i, a):
        """r + a*x at each child, r being column i at its parent."""
        if a == 1:
            return map(add, spread(cols[i]), xs)
        if a == -1:
            return map(sub, spread(cols[i]), xs)
        if a not in steps:
            steps[a] = list(map(mul, xs, repeat(a)))
        return map(add, spread(cols[i]), steps[a])

    out = []
    for pick, fixed, moving in specs:
        parts = []
        if fixed:
            parts.append(list(spread(_pick(pick, [cols[i] if d == 1 else [r // d for r in cols[i]]
                                                  for i, d in fixed]))))
        for d, terms in moving:
            col = _pick(pick, [moved(i, a) for i, a in terms])
            parts.append(list(col) if d == 1 else [r // d for r in col])
        out.append(_pick(pick, parts))
    if all(map(le, out[-2], out[-1])):
        return out[:-2], out[-2], out[-1]
    keep = list(map(le, out[-2], out[-1]))
    *cols, los, his = [list(compress(col, keep)) for col in out]
    return cols, los, his


def _pick(pick, cols):
    """The elementwise ``pick`` (min or max) of nonempty ``cols``, which may
    be iterators when there are several."""
    col = cols[0]
    for other in cols[1:]:
        if pick is min:
            col = [u if u < v else v for u, v in zip(col, other)]
        else:
            col = [u if u > v else v for u, v in zip(col, other)]
    return col


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
    if p.affine_dim < 0 or not p.integer_vertices[1]:
        return
    n = p.rank
    if m == 0:
        yield tuple(0 for _ in range(n))
        return
    for prefix, lo, hi in _walker(p, m, range(n)).leaves():
        for x in range(lo, hi + 1):
            yield prefix + (x,)


def count_points(p, m, jobs=1):
    """#(m*p intersect Z^n), with a closed-form innermost level.

    ``jobs`` is accepted for compatibility; it has no effect."""
    _check_level(m)
    if p.affine_dim < 0 or not p.integer_vertices[1]:
        return 0
    if m == 0:
        return 1
    return sum(_size(los, his) for _, los, his in _walker(p, m, _walk_order(p)).batches())


def _walk_order(p, branches=None):
    """The coordinate order of a walk over m*p, innermost coordinate last.

    A leaf costs about one column entry per group of branches of one slope
    along the innermost coordinate and per pair of such groups, while the
    number of leaves falls as the innermost range widens.  So the innermost
    coordinate is the one that minimizes (1 + the branch pairs of distinct
    slopes along it) / (the width of p along it), ties going to the highest
    index.  A coordinate along which p is flat is
    never innermost.  The order depends on p and the branches only."""
    n = p.rank
    pairs = list(combinations(branches.linears, 2)) if branches is not None else []
    points = p.integer_vertices[1]  # D times p: the same ranking
    widths = [max(x[i] for x in points) - min(x[i] for x in points) for i in range(n)]
    inner = min((i for i in range(n) if widths[i]), default=n - 1,
                key=lambda i: (Fraction(1 + sum(a[i] != b[i] for a, b in pairs), widths[i]), -i))
    return [i for i in range(n) if i != inner] + [inner]


def _walker(p, m, order):
    """The walker of m*p with its coordinates taken in ``order``: the
    levels that p keeps for the order, dilated by m."""
    d = p.integer_vertices[0]
    return PrefixBounds([[(a, m * c // d) for a, c in level] for level in p.walk_levels(order)])


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
        d, branches = integer_branches(f)
        return BranchData([l for l, _ in branches], [c for _, c in branches], d)

    def transported(self, columns):
        """The branches in the coordinates v of u = V v, for the integer
        matrix V with these columns: <u, l> = <v, V^T l>.  The columns of a
        permutation reorder the coordinates."""
        return BranchData([tuple(sum(map(mul, l, c)) for c in columns) for l in self.linears],
                          self.consts, self.denom)


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


def _piece_batches(p, m, branches, clamp):
    """One batch (los, his, pieces) per leaf batch of the walk of m*p,
    coordinates in the order of ``_walk_order``: the leaves' ranges of the
    last coordinate and their ``_pieces``.  The branches of one slope along
    the last coordinate form one group of the walk's forms."""
    order = _walk_order(p, branches)
    bd = branches.transported([[int(i == j) for i in range(p.rank)] for j in order])
    slopes = sorted({l[-1] for l in bd.linears}, reverse=True)
    groups = [[(l[:-1], c) for l, c in zip(bd.linears, bd.consts) if l[-1] == B] for B in slopes]
    for cols, los, his in _walker(p, m, order).batches(groups):
        yield los, his, _pieces(slopes, cols, los, his, clamp)


def _pieces(slopes, cols, los, his, clamp):
    """The pieces of a batch of leaves as integer columns: one (B, A, ss, es)
    per group of slope B = slopes[g], descending, whose minimum on leaf i is
    A[i] + B*t for t in los[i]..his[i].

    On leaf i the group's piece is ss[i]..es[i], the part of the leaf where
    the group is the minimum, a tie going to the lower group index; it is
    empty when es[i] == ss[i] - 1.  A leaf's pieces come in group order,
    tile it and differ in B.  Each bound is one floor division per pair of
    groups.  Under the clamp each piece keeps only its part where
    A + B*t > 0, and the rest of a leaf, where the minimum is <= 0, is its
    zero piece."""
    pairs = {}
    for g, h in combinations(range(len(slopes)), 2):
        # group g is at most group h exactly for t <= q
        d = slopes[g] - slopes[h]
        pairs[g, h] = [(y - x) // d for x, y in zip(cols[g], cols[h])]
    out = []
    for g, (B, A) in enumerate(zip(slopes, cols)):
        ss, es = los, his
        for h in range(g):
            ss = [s if s > q else q + 1 for s, q in zip(ss, pairs[h, g])]
        for h in range(g + 1, len(slopes)):
            es = [e if e < q else q for e, q in zip(es, pairs[g, h])]
        if clamp and B > 0:  # A + B*t > 0 from t = -A // B + 1 on
            ss = [s if a + B * s > 0 else -a // B + 1 for a, s in zip(A, ss)]
        elif clamp and B < 0:  # ... up to t = (A - 1) // -B
            es = [e if a + B * e > 0 else (a - 1) // -B for a, e in zip(A, es)]
        elif clamp:  # B == 0: the whole piece where A > 0
            es = [e if a > 0 else s - 1 for a, s, e in zip(A, ss, es)]
        if ss is not los or es is not his:
            es = [e if e >= s else s - 1 for s, e in zip(ss, es)]
        out.append((B, A, ss, es))
    return out


def _origin(branches, clamp):
    """The scaled branch minimum at the origin, the one point of 0*p."""
    v = min(branches.consts)
    return max(v, 0) if clamp else v


def _scaled(v, denom, floor_mode):
    """The value of a scaled integer v, floored in floor_mode."""
    return Fraction(v // denom) if floor_mode else Fraction(v, denom)


def _size(los, his):
    """The number of points of the leaves los[i]..his[i]."""
    return sum(his) - sum(los) + len(los)


def _total(pieces, denom, floor_mode):
    """The sum of the values over ``_pieces`` (B, A, ss, es), an integer: of
    the scaled values, or in floor_mode of the floored ones."""
    total = 0
    for B, A, ss, es in pieces:
        if floor_mode:
            total += sum(floor_sum(e - s + 1, denom, a + B * s, B)
                         for a, s, e in zip(A, ss, es) if e >= s)
        else:  # twice the sum of A + B*t over s..e, summed
            total += sum([(2 * a + B * (s + e)) * (e - s + 1) for a, s, e in zip(A, ss, es)]) // 2
    return total


def count_and_sum(p, m, branches, floor_mode=False, clamp=False):
    """The number of points of m*p and the exact sum of the branch minimum
    over them, from one walk."""
    _check_level(m)
    if p.affine_dim < 0 or not p.integer_vertices[1]:
        return 0, Fraction(0)
    if m == 0:
        return 1, _scaled(_origin(branches, clamp), branches.denom, floor_mode)
    count = total = 0
    for los, his, pieces in _piece_batches(p, m, branches, clamp):
        count += _size(los, his)
        total += _total(pieces, branches.denom, floor_mode)
    return count, (Fraction(total) if floor_mode else Fraction(total, branches.denom))


def sum_values(p, m, branches, floor_mode=False, clamp=False):
    """Exact sum of the branch minimum over the points of m*p."""
    return count_and_sum(p, m, branches, floor_mode, clamp)[1]


def max_value(p, m, branches, floor_mode=False, clamp=False):
    """Exact maximum of the branch minimum over the points of m*p, from the
    unclamped pieces' ends (starts for B < 0), then clamped."""
    _check_level(m)
    if p.affine_dim < 0 or not p.integer_vertices[1]:
        return None
    if m == 0:
        return _scaled(_origin(branches, clamp), branches.denom, floor_mode)
    best = max(chain.from_iterable(
        compress(map(add, A, map(mul, es if B >= 0 else ss, repeat(B))), map(ge, es, ss))
        for _, _, pieces in _piece_batches(p, m, branches, False) for B, A, ss, es in pieces),
        default=None)
    if best is None:
        return None
    return _scaled(max(best, 0) if clamp else best, branches.denom, floor_mode)


def value_histogram(p, m, branches, floor_mode=False, clamp=False, jobs=1):
    """Exact multiplicity histogram of the branch minimum over m*p.

    Keys are scaled integers (value = key/denom), or already-floored integers
    in floor_mode.  The work is in the ``_pieces`` columns and the distinct
    keys, not in the points: a constant piece adds its length to its key, a
    piece of slope B != 0 marks +1 at its first value and -1 one step |B|
    past its last (an empty one both at one key), and one sorted sweep per
    step writes each covered value once, with its count.  Under the clamp
    the points outside the positive pieces count at the key 0.  ``jobs`` is
    accepted for compatibility; it has no effect.
    """
    _check_level(m)
    if p.affine_dim < 0 or not p.integer_vertices[1]:
        return {}
    D = branches.denom
    if m == 0:
        v = _origin(branches, clamp)
        return {v // D if floor_mode else v: 1}
    hist = Counter()
    firsts, lasts = defaultdict(list), defaultdict(list)  # per step |B|
    for los, his, pieces in _piece_batches(p, m, branches, clamp):
        zeros = clamp and _size(los, his) - sum(_size(ss, es) for _, _, ss, es in pieces)
        if zeros:
            hist[0] += zeros
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


DegreeFrame = namedtuple("DegreeFrame", "g v body")


def degree_frame(p, xi):
    """(g, V, body) for an integral xi and its slice p at <u, xi> = 1: g =
    gcd(xi), V unimodular (as rows) with <xi, V v> = g*v_n, and body = V^-1 p
    in the hyperplane v_n = 1/g.  The weights of degree t are the V v for v
    in t*body."""
    xi = [int(x) for x in xi]
    g = gcd(*xi)
    v, w = unimodular_completion([x // g for x in xi])
    return DegreeFrame(g, v, unimodular_image(p, v, w))


def points_on_level(dual, xi_int, t):
    """The points u of the weight cone ``dual`` with <u, xi> = t in ascending
    lexicographic order: the V v for v in t times the ``degree_frame`` body."""
    if t >= 0:
        _, v, body = degree_frame(reeb_slice(dual, xi_int)[1], xi_int)
        yield from sorted(tuple(sum(map(mul, row, x)) for row in v) for x in iter_points(body, t))
