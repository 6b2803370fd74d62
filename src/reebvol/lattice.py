"""Exact lattice-point engines.

One walker, ``PrefixBounds``, fixes the coordinates of a bounded body one
by one.  Level k of the walk bounds x_k by the facets of the body's
projection onto its first k coordinates, as integer rows split once by
the sign of their x_k coefficient.  Those projections are the hulls of the
projected vertices (``Polytope.walk_levels``), built by the one
double-description core.  The walker and the plan of each walk it makes
(``_plan``: the root's classes of rows and forms, and per level the
column specs as envelope lines) are kept with the body per walk order and
per linear parts of the forms asked for (``Polytope.walk_plans``), so a
dilation m only scales offsets: every level m of a body, its degree slices
and repeated calls on one setup share them.

The walk is level-synchronous: it fixes one coordinate for a whole chunk
of prefixes at once, as integer columns.  Every row of a deeper level, and
every affine form the caller asks for, carries its residual at each
prefix, so a child x of a prefix gets its bound on the next coordinate as
(r + c*x) // d, min over the upper rows and max over the lower ones.  Rows
(or forms) that agree on every coefficient not yet fixed and on the
divisor share one residual, their min or max, as the floor division is
monotone.  A column of the children is so the min or max of lines
R + A*x over a common divisor D, terms of one slope being one line, and
floor division by D commutes with min and max.  A node with many children
takes it as envelope runs: the lines sorted by slope, one floor division
per pair of lines at the node gives where each line is the pick, and each
line's run is a ``range`` (a ``repeat`` at slope 0) chained in C, so a
child costs no Python-level step.  A chunk whose nodes have fewer than
``RUNS`` children on average evaluates every line at every child instead,
which costs less there.  Each level takes at most ``BATCH`` children per
step, splitting a parent's range where a step ends, so the frontier stays
bounded whatever the level m.  The leaves come out in batches, in
ascending lexicographic order across node boundaries: the forms' values at
each leaf's prefix and the range lo..hi of the last coordinate.  No
bounding box is ever materialized.

Streaming enumeration expands each leaf's range in the natural coordinate
order, as its output is lexicographic.  The reductions (point counts, sums
and maxima of a minimum of integer affine forms, value histograms) take the
innermost coordinate from ``_walk_order`` and work in integers only,
without visiting points.  The branches of one slope along the last
coordinate form a group, whose least offset at each leaf is one of the
walk's form values.

Counts, and sums of one group without floor or clamp, stop the walk one
level early (``PrefixBounds.nodes``): on a run of a node's envelope the
children's bounds L, U of the last coordinate and the group's minimum A
are each one line, floor((R + a*x)/D), so the children's U - L + 1 and
A*(U - L + 1) + B*(U*(U + 1) - L*(L - 1))/2 sum in closed form, per
residue class of x mod D for the sums (``_node_sums``) and by tables of
the residues for the counts (``_floor_total``).  Counts take every chunk
this way; sums take a chunk with at least D*(5 per node + 150) children,
where the closed form measured faster than the leaves.  The other
reductions reduce each leaf batch as columns: the groups are the lines of
the same envelope over the leaves, which gives the piece of each leaf where
a group is the minimum, and the clamp cuts each piece at its zero.  Sums
are closed forms over the pieces, floored ones through the residue tables.
A histogram counts, per step, two endpoint events per varying piece in C,
adds each constant piece's length to its key, and sums each residue class
of the step that holds progressions over a dense grid of the keys
(``_histogram``), or sweeps the sorted keys when they span more than
``DENSE`` times the distinct event keys.

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
from functools import lru_cache, partial
from itertools import accumulate, chain, combinations, compress, repeat, starmap
from math import gcd, lcm
from operator import add, floordiv, ge, itemgetter, le, lt, mod, mul, sub

from .arith import unimodular_completion
from .errors import UnsupportedGeometryError
from .polyhedra import reeb_slice, unimodular_image

# ---------------------------------------------------------------------------
# integer inequality systems
# ---------------------------------------------------------------------------


BATCH = 1024  # the most leaves, or children of one level, that one batch holds
# The fewest children per node, averaged over a chunk, that a level expands
# as envelope runs.  Runs cost a few column entries per line and node, the
# per-child pick one per term and child; on the perfbench walks the runs
# win from about 4 children per node on spectra and from about 10 on the
# rank-4 report walks, whose small chunks carry up to 11 columns.
RUNS = 10


class PrefixBounds:
    """A walker over the integer points of m times a bounded body, from its
    integer rows per level: level k (k = 1..nvars) holds rows a.x <= c/denom
    in x_1..x_k that describe the body's projection onto its first k
    coordinates, so that m times it has the rows a.x <= m*c // denom.

    Each level's rows are split once by the sign of their x_k coefficient
    into upper and lower bounds of x_k.  A row with a zero x_k coefficient
    is left out: it bounds the projection onto x_1..x_{k-1} too, where the
    walk has already enforced it.  ``dilated(m)`` walks m times the body
    and shares the split rows and the plans of its walks (``_plan``), one
    per key of the affine forms the caller asks for, so a walk at another
    level only scales offsets.

    ``batches`` fixes one coordinate per level for a whole chunk of
    prefixes at once, as integer columns.  Every bound row of a deeper
    level, and every affine form that the caller asks for, carries its
    residual at each prefix; rows or forms that agree on every coefficient
    not yet fixed and on the divisor carry one residual, their min or max.
    Each level expands at most ``BATCH`` children per step, splitting a
    parent's range where a step ends, so the frontier stays bounded: about
    ``BATCH`` entries per level and column, whatever the size of the body."""

    def __init__(self, levels, denom=1):
        self.nvars = len(levels)
        self._split = [None] + [
            ([_bound_row(a, c, -1) for a, c in rows if a[-1] > 0],
             [_bound_row(a, c, 1) for a, c in rows if a[-1] < 0])
            for rows in levels]
        self._denom, self._m, self._plans = denom, 1, {}

    def dilated(self, m):
        """The walker of m times the body, sharing this one's plans."""
        walker = object.__new__(self.__class__)
        walker.__dict__ = {**self.__dict__, "_m": m}
        return walker

    def batches(self, groups=()):
        """Batches (values, los, his) of the leaves in ascending
        lexicographic order of their prefix x_1..x_{n-1}: for leaf i,
        los[i]..his[i] is the nonempty integer range of x_n, and values[g][i]
        is the least of the affine forms (linear, const) of ``groups[g]`` at
        the prefix, ``linear`` a tuple of n - 1 integers.  A batch holds
        at most ``BATCH`` leaves."""
        last, chunks = self.nodes(groups)
        return chunks if last is None else _expand_all(last, chunks)

    def nodes(self, groups=()):
        """The walk of ``batches`` stopped one level above its leaves:
        (last, chunks), ``last`` the level that fixes x_{n-1} (its column
        specs, whether it is unbounded) and ``chunks`` the batches
        (cols, los, his) of the nodes it expands, x_1..x_{n-2} fixed and
        los[i]..his[i] the range of x_{n-1}.  The specs give the children's
        columns in order: one per group, then the lower and the upper bound
        of x_n.  A walk of one coordinate has no such level: (None, its one
        batch of leaves)."""
        key = tuple(tuple(l for l, _ in group) for group in groups)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _plan(self._split, key)
        roots, levels = plan
        return (levels[-1] if levels else None), self._chunks(groups, roots, levels[:-1])

    def _chunks(self, groups, roots, levels):
        m, denom = self._m, self._denom
        upper, lower = self._split[1]
        if not upper or not lower:
            raise UnsupportedGeometryError("unbounded direction in lattice enumeration")
        lo = max((d - 1 - m * c // denom) // d for _, d, c in lower)
        hi = min(m * c // denom // d for _, d, c in upper)
        if lo > hi:
            return
        consts = [c for group in groups for _, c in group]
        chunk = [[min(consts[i] for i in root) if shift is None  # a class of forms
                  else m * root // denom if shift < 0 else shift - m * root // denom]
                 for root, shift in roots]  # the root's classes, one entry each
        chunks = [(chunk, [lo], [hi])]
        for level in levels:
            chunks = _expand_all(level, chunks)
        yield from chunks

    def leaves(self):
        """Every innermost slice of the system: (prefix, lo, hi) with
        len(prefix) == nvars - 1 and lo..hi the integer range of the last
        coordinate, in ascending lexicographic order of prefix."""
        n = self.nvars - 1
        coords = [[(tuple(int(i == j) for j in range(n)), 0)] for i in range(n)]
        for values, los, his in self.batches(coords):
            yield from zip(zip(*values) if n else repeat(()), los, his)


def _bound_row(a, c, sign):
    """Row a.x <= c/denom of level k as (coefs, d, c) with d > 0: in a walk
    of m times the body, whose row has the offset b = m*c // denom, at a
    prefix x of length k - 1 it bounds x_k by (r + coefs.x) // d, from above
    for sign -1 (a_k > 0) with r = b and, as an integer ceiling, from below
    for sign 1 (a_k < 0) with r = d - 1 - b."""
    return tuple(sign * v for v in a[:-1]), -sign * a[-1], c


def _plan(split, groups):
    """The plan of a walk over the split rows with forms of the linear parts
    ``groups``: (roots, levels), both independent of the level m and of the
    forms' constants.

    The forms of one group, the lower rows of a level (pick max) and its
    upper rows (pick min) are the families of the walk.  A family's members
    that share (coefs, d) are one class of the root, whose entry is (the
    forms' indices, None) for a group, else (the least c, -1) for upper
    rows, whose residual is m*c // denom, or (the least c, d - 1) for lower
    rows, whose residual is d - 1 - m*c // denom: the pick of the members'
    residuals.  ``levels`` holds per deeper level its column specs
    (``_step``) and whether it lacks an upper or a lower bound."""
    picks, roots, layout, start = [], [], [], 0
    for group in groups:
        classes = {}
        for i, linear in enumerate(group, start):
            classes.setdefault(linear, []).append(i)
        start += len(group)
        layout += [(len(picks), coefs, 1) for coefs in classes]
        roots += [(indices, None) for indices in classes.values()]
        picks.append(min)
    for upper, lower in split[2:]:
        for pick, rows in ((max, lower), (min, upper)):
            least = {}
            for coefs, d, c in rows:
                least[coefs, d] = min(least.get((coefs, d), c), c)
            layout += [(len(picks), coefs, d) for coefs, d in least]
            roots += [(c, d - 1 if pick is max else -1) for (_, d), c in least.items()]
            picks.append(pick)
    levels = []
    for upper, lower in split[2:]:
        layout, specs = _step(picks, layout)
        levels.append((specs, not upper or not lower))
    return roots, levels


def _step(picks, layout):
    """The column specs (``_lines``) that fix the next coordinate, and the
    layout of the carried columns after it.  ``layout`` names each carried
    column by (family, coefs, d), coefs starting at the coordinate to fix.
    A spec builds one column of the children: the family's pick of
    (r + a*x) // d over its terms (i, a, d), r being column i and a the
    coefficient of the coordinate.  A family whose coefficients end at this
    coordinate gives one column, whose terms keep their divisors, the
    others one per class of equal remaining coefficients and divisor, whose
    residuals r + a*x are carried undivided.  The specs of the carried
    columns come first, then those of the ending families in family
    order."""
    carried, ends = {}, {}
    for i, (f, coefs, d) in enumerate(layout):
        if len(coefs) > 1:
            carried.setdefault((f, coefs[1:], d), []).append((i, coefs[0], 1))
        else:
            ends.setdefault((f,), []).append((i, coefs[0], d))
    specs = [_lines(picks[key[0]], terms)
             for key, terms in chain(carried.items(), sorted(ends.items()))]
    return list(carried), specs


def _lines(pick, terms):
    """The terms (i, a, d) of a column as envelope lines: (pick, D, slopes,
    offsets), D the least common multiple of the divisors.  A term
    (r + a*x) // d is the line r*k + a*k*x over D, k = D/d, and floor
    division by D commutes with min and max, so the column is the ``pick``
    of the lines, floor-divided by D.  Terms of one slope a*k merge into
    one line, whose offset at a node is the ``pick`` of the k*r over its
    terms (i, k): ``offsets`` holds i for a line of one term with k = 1,
    else its terms.  The lines are sorted by slope, descending for min and
    ascending for max, so that each one is the ``pick`` on one run of x per
    node, in order (``_cuts``)."""
    if len(terms) == 1:
        i, a, d = terms[0]
        return pick, d, [a], [i]
    denom = lcm(*(d for _, _, d in terms))
    lines = {}
    for i, a, d in terms:
        lines.setdefault(a * (denom // d), []).append((i, denom // d))
    slopes = sorted(lines, reverse=pick is min)
    offsets = []
    for a in slopes:
        (i, k), *more = lines[a]
        offsets.append(i if k == 1 and not more else lines[a])
    return pick, denom, slopes, offsets


def _expand_all(level, chunks):
    """The chunks of the children of ``chunks``, fixing their next
    coordinate; each holds at most ``BATCH`` children, none with an empty
    range.  A part whose nodes have ``RUNS`` children or more on average
    is expanded as envelope runs, the others child by child."""
    specs, unbounded = level
    for chunk in chunks:
        if unbounded:
            raise UnsupportedGeometryError("unbounded direction in lattice enumeration")
        for count, cols, los, his in _parts(*chunk):
            expand = _expand_runs if count >= RUNS * len(los) else _expand
            children = expand(specs, cols, los, his)
            if children[1]:
                yield children


def _parts(cols, los, his):
    """A chunk of nodes cut into runs of at most ``BATCH`` children, in
    order, each with its number of children; a parent whose range the cut
    meets is split between two runs."""
    ends = list(accumulate(map(sub, his, los)))
    total = ends[-1] + len(ends)
    if total <= BATCH:
        yield total, cols, los, his
        return
    ends = list(map(add, ends, range(1, len(ends) + 1)))  # children up to each parent
    for start in range(0, total, BATCH):
        stop = min(start + BATCH, total)
        i, j = bisect_right(ends, start), bisect_left(ends, stop)
        part_los, part_his = los[i:j + 1], his[i:j + 1]
        part_los[0] = his[i] + 1 - (ends[i] - start)
        part_his[-1] = his[j] - (ends[j] - stop)
        yield stop - start, [col[i:j + 1] for col in cols], part_los, part_his


def _children(out):
    """The children (cols, los, his) of the expanded columns ``out``, the
    last two being the new range, without those whose range is empty."""
    if all(map(le, out[-2], out[-1])):
        return out[:-2], out[-2], out[-1]
    keep = list(map(le, out[-2], out[-1]))
    *cols, los, his = [list(compress(col, keep)) for col in out]
    return cols, los, his


def _offsets(pick, offsets, cols):
    """The offset column of a line: column ``offsets``, or the ``pick`` of
    k*r over its terms (i, k), r being column i."""
    if isinstance(offsets, int):
        return cols[offsets]
    scaled = [cols[i] if k == 1 else list(map(mul, cols[i], repeat(k))) for i, k in offsets]
    return scaled[0] if len(scaled) == 1 else list(map(pick, *scaled))


def _expand(specs, cols, los, his):
    """The children of the nodes (cols, los, his), child by child: one per x
    in each node's range, each line R + A*x of each spec evaluated at every
    child, their ``pick`` floor-divided by D."""
    ends = list(map(add, his, repeat(1)))
    xs = list(chain.from_iterable(map(range, los, ends)))
    # a parent's column entry, once per child
    spread = (itemgetter(*chain.from_iterable(map(repeat, range(len(los)), map(sub, ends, los))))
              if len(los) > 1 else lambda col: col * len(xs))
    steps = {}
    out = []
    for pick, denom, slopes, offsets in specs:
        parts = []
        for a, i in zip(slopes, offsets):
            r = spread(_offsets(pick, i, cols))
            if a == 0:
                parts.append(r)
            elif a == 1:
                parts.append(map(add, r, xs))
            elif a == -1:
                parts.append(map(sub, r, xs))
            else:
                if a not in steps:
                    steps[a] = list(map(mul, xs, repeat(a)))
                parts.append(map(add, r, steps[a]))
        col = _pick(pick, parts)
        out.append(list(col) if denom == 1 else [v // denom for v in col])
    return _children(out)


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


def _expand_runs(specs, cols, los, his):
    """The children of the nodes (cols, los, his) from envelope runs: per
    spec, one run per line and node (``_runs``), R + A*x over its part of
    lo..hi, as a ``range`` (a ``repeat`` at slope 0) chained in C,
    floor-divided by D."""
    tops = list(map(add, his, repeat(1)))
    out = []
    for spec in specs:
        denom, lines = _runs(spec, cols, los, his, tops)
        runs = []
        for a, r, firsts, stops in lines:
            if a == 0:
                runs.append(map(repeat, r, map(sub, stops, firsts)))
            elif a == 1:
                runs.append(map(range, map(add, r, firsts), map(add, r, stops)))
            else:
                runs.append(map(range, map(add, r, map(mul, firsts, repeat(a))),
                                map(add, r, map(mul, stops, repeat(a))), repeat(a)))
        col = chain.from_iterable(chain.from_iterable(zip(*runs)) if len(runs) > 1 else runs[0])
        out.append(list(col) if denom == 1 else list(map(floordiv, col, repeat(denom))))
    return _children(out)


def _runs(spec, cols, los, his, tops):
    """The envelope runs of a column spec on the nodes (cols, los, his):
    (D, lines), one (A, R, firsts, stops) per line R + A*x, which is the
    spec's ``pick`` on firsts[i]..stops[i] - 1 of node i, an empty run when
    stops[i] == firsts[i]; ``tops`` is his + 1.  The lines' offsets R come
    from the nodes' columns, and their crossings from one floor division
    per pair of lines (``_cuts``)."""
    pick, denom, slopes, offsets = spec
    values = [_offsets(pick, i, cols) for i in offsets]
    cuts = [los, *(_cuts(pick, slopes, values, los, his) if len(slopes) > 1 else ()), tops]
    return denom, list(zip(slopes, values, cuts, cuts[1:]))


def _cuts(pick, slopes, values, los, his):
    """Where each line but the first starts its run on nodes lo..hi: line g
    of the lines R + A*x (slopes A, offset columns R), sorted as ``_lines``
    sorts them, is the ``pick`` on x in cuts[g - 1]..cuts[g] - 1, cuts[-1]
    being lo and cuts[G - 1] hi + 1, a tie going to the lower line.

    Line h is the ``pick`` over line k > h exactly for x <= q_hk, one floor
    division.  So some line h <= g is the ``pick`` over every line k > g
    exactly for x <= max_h min_k q_hk, and line g + 1 starts one past it,
    clamped to the previous cut and to hi + 1."""
    sign = 1 if pick is min else -1
    firsts = {}
    for h, k in combinations(range(len(slopes)), 2):
        d, xs, ys = sign * (slopes[h] - slopes[k]), values[h], values[k]
        firsts[h, k] = ([(y - x) // d + 1 for x, y in zip(xs, ys)] if sign > 0
                        else [(x - y) // d + 1 for x, y in zip(xs, ys)])
    cuts, prev = [], los
    for g in range(1, len(slopes)):
        best = None
        for h in range(g):
            col = firsts[h, g]
            for k in range(g + 1, len(slopes)):
                col = [u if u < v else v for u, v in zip(col, firsts[h, k])]
            best = col if best is None else [u if u > v else v for u, v in zip(best, col)]
        prev = [p if b < p else (hi + 1 if b > hi else b) for b, p, hi in zip(best, prev, his)]
        cuts.append(prev)
    return cuts


# ---------------------------------------------------------------------------
# closed forms over the children of a node
# ---------------------------------------------------------------------------


TABLE = 1 << 12  # the most entries, divisor d times period p, of one residue table


@lru_cache(maxsize=64)
def _residue_table(b, d):
    """(p, pre) for the residues rho_j = (v + b*j) mod d, whose period in j
    is p = d/gcd(b, d): pre[v*(p + 1) + i] is the sum of rho_j over j < i
    for the first residue v = 0..d-1."""
    p = d // gcd(b, d)
    pre = []
    for v in range(d):
        pre += accumulate([(v + b * j) % d for j in range(p)], initial=0)
    return p, pre


def _floor_total(b, d, v0s, ns):
    """sum_i sum_{j < ns[i]} floor((v0s[i] + b*j)/d), ns[i] >= 0: the sum of
    the progressions' terms less their residues mod d, divided by d.  The
    residues repeat with period p = d/gcd(b, d), so a progression's residue
    sum is q full periods and a prefix of length n - q*p, looked up in the
    table of its first residue (``_residue_table``); ``floor_sum`` takes a
    progression whose table would exceed ``TABLE`` entries."""
    total = sum(map(mul, ns, v0s)) + b * ((sum(map(mul, ns, ns)) - sum(ns)) // 2)
    if d == 1:
        return total
    if d * (d // gcd(b, d)) > TABLE:
        return sum(floor_sum(n, d, v, b) for v, n in zip(v0s, ns))
    p, pre = _residue_table(b % d, d)
    w = p + 1
    for v, (q, r) in zip(v0s, map(divmod, ns, repeat(p))):
        i = v % d * w
        total -= q * pre[i + p] + pre[i + r]
    return total // d


def _node_count(specs, cols, los, his):
    """The number of points under the nodes (cols, los, his): over the
    children x, the sum of U(x) - L(x) + 1, L and U the last two specs'
    columns, each floor((R + A*x)/D) on a run of its envelope.  U - L + 1
    is never negative, as each level is the exact projection of the next."""
    tops = list(map(add, his, repeat(1)))
    total = _size(los, his)
    for sign, spec in ((1, specs[-1]), (-1, specs[-2])):
        denom, lines = _runs(spec, cols, los, his, tops)
        for a, r, firsts, stops in lines:
            v0s = list(map(add, r, map(mul, firsts, repeat(a)))) if a else r
            total += sign * _floor_total(a, denom, v0s, list(map(sub, stops, firsts)))
    return total


def _node_sums(B, specs, cols, los, his):
    """(count, sum) of A + B*t over the points (x, t) under the nodes, A
    the one group's column (the first spec, D = 1): over the children x,
    U - L + 1 and A*(U - L + 1) + B*(U*(U + 1) - L*(L - 1))/2, L and U the
    last two specs' columns.  On a piece of a node where L (or U) and A are
    one line each, the x of one residue class mod D make L = (R + u*x)//D
    a progression of step u, so the piece's sums are power sums
    (``_power_sums``)."""
    tops = list(map(add, his, repeat(1)))
    _, group = _runs(specs[0], cols, los, his, tops)
    count, total = _size(los, his), 0
    for sign, spec in ((1, specs[-1]), (-1, specs[-2])):
        denom, lines = _runs(spec, cols, los, his, tops)
        for u, r, firsts, stops in lines:
            for a, ra, gfirsts, gstops in group:
                fs, ss, rs, ras = firsts, stops, r, ra
                if len(group) > 1:  # the part of the run where this line is A, if any
                    fs, ss = list(map(max, fs, gfirsts)), list(map(min, ss, gstops))
                    keep = list(map(lt, fs, ss))
                    if not all(keep):
                        fs, ss, rs, ras = (list(compress(col, keep)) for col in (fs, ss, rs, ras))
                for c in range(denom):  # x0 the first x = c mod D of the piece
                    if denom == 1:
                        x0s, ns = fs, list(map(sub, ss, fs))
                        vs = list(map(add, rs, map(mul, fs, repeat(u)))) if u else rs
                    else:
                        x0s = list(map(add, fs, map(mod, map(sub, repeat(c), fs), repeat(denom))))
                        ns = list(map(floordiv, map(add, map(sub, ss, x0s), repeat(denom - 1)),
                                      repeat(denom)))
                        vs = list(map(floordiv, map(add, rs, map(mul, x0s, repeat(u))), repeat(denom)))
                    ws = list(map(add, ras, map(mul, x0s, repeat(a)))) if a else ras
                    s1, q = _power_sums(ns, vs, u, ws, a * denom, B, sign)
                    count += sign * s1
                    total += sign * q
    for a, r, firsts, stops in group:
        ns = list(map(sub, stops, firsts))
        ws = list(map(add, r, map(mul, firsts, repeat(a)))) if a else r
        total += 2 * sum(map(mul, ns, ws)) + a * (sum(map(mul, ns, ns)) - sum(ns))
    return count, total // 2


def _power_sums(ns, vs, u, ws, a, B, sign):
    """(S, 2*P + B*(Q + sign*S)) for the progressions X_j = v + u*j and
    A_j = w + a*j, j < n, n >= 0, per entry of ns, vs, ws: S, Q and P the
    sums of X, X**2 and A*X, from the power sums of j: n, n(n - 1)/2 and
    n(n - 1)(2n - 1)/6, as columns in C."""
    es = list(map(mul, ns, map(sub, ns, repeat(1))))  # 2*T1 = n(n - 1), even
    nvs = list(map(mul, ns, vs))
    s = sum(nvs) + u * sum(es) // 2
    # 2*(n*w*v + (w*u + a*v)*T1 + a*u*T2) + B*(n*v**2 + 2*u*v*T1 + u**2*T2)
    q = 2 * sum(map(mul, nvs, ws)) + B * sum(map(mul, nvs, vs)) + sign * B * s
    if a + B * u:
        q += (a + B * u) * sum(map(mul, vs, es))
    if u:  # 6*T2 = n(n - 1)(2n - 1)
        t2 = sum(map(mul, es, map(sub, map(add, ns, ns), repeat(1)))) // 6
        q += u * (sum(map(mul, ws, es)) + (2 * a + B * u) * t2)
    return s, q


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
    last, chunks = _walker(p, m, _walk_order(p)).nodes()
    return sum(_fold(last, chunks, _node_count, lambda cols, los, his: _size(los, his)))


def _walk_order(p, branches=None):
    """The coordinate order of a walk over m*p, innermost coordinate last.

    A leaf carries one column per group of branches of one slope along the
    innermost coordinate, and a pair of groups that cross inside p (their
    difference changes sign on p's vertices) also splits it into two
    nonempty pieces, while the number of leaves falls as the innermost
    range widens.  So the innermost coordinate is the one that minimizes
    (2 * those groups + the crossing pairs of distinct slopes along it) /
    (the width of p along it), ties going to the highest index.  A
    coordinate along which p is flat is never innermost.  The order
    depends on p and the branches only."""
    n = p.rank
    points = p.integer_vertices[1]  # D times p: the same ranking
    linears = branches.linears if branches is not None else [(0,) * n]
    crossing = []
    for a, b in combinations(linears, 2):
        gaps = [sum(map(mul, map(sub, a, b), x)) for x in points]
        if min(gaps) < 0 < max(gaps):
            crossing.append((a, b))
    widths = [max(x[i] for x in points) - min(x[i] for x in points) for i in range(n)]
    scale = lcm(*filter(None, widths))  # cost / width, times scale, in integers
    inner = min((i for i in range(n) if widths[i]), default=n - 1, key=lambda i: (
        (2 * len({l[i] for l in linears}) + sum(a[i] != b[i] for a, b in crossing))
        * (scale // widths[i]), -i))
    return [i for i in range(n) if i != inner] + [inner]


def _walker(p, m, order):
    """The walker of m*p with its coordinates taken in ``order``: the
    levels that p keeps for the order, with the plans of their walks."""
    order = tuple(order)
    walker = p.walk_plans.get(order)
    if walker is None:
        walker = p.walk_plans[order] = PrefixBounds(p.walk_levels(order), p.integer_vertices[0])
    return walker.dilated(m)


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
        d, branches = f.integer_branches
        return BranchData([l for l, _ in branches], [c for _, c in branches], d)

    def transported(self, columns):
        """The branches in the coordinates v of u = V v, for the integer
        matrix V with these columns: <u, l> = <v, V^T l>."""
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
    order, slopes, groups = _groups(p, branches)
    for cols, los, his in _walker(p, m, order).batches(groups):
        yield los, his, _pieces(slopes, cols, los, his, clamp)


def _groups(p, branches):
    """(order, slopes, groups): the walk order of ``_walk_order``, the
    distinct slopes of the branches along its last coordinate, descending,
    and per slope the group of its branches as forms (linear, const) in the
    other coordinates."""
    order = _walk_order(p, branches)
    linears = [tuple(l[i] for i in order) for l in branches.linears]
    slopes = sorted({l[-1] for l in linears}, reverse=True)
    groups = [[(l[:-1], c) for l, c in zip(linears, branches.consts) if l[-1] == B] for B in slopes]
    return order, slopes, groups


def _fold(last, chunks, node, leaf, gate=(0, 0)):
    """The results of the walk ``last, chunks`` (``PrefixBounds.nodes``)
    per chunk of nodes one level above its leaves: node(specs, cols, los,
    his) when ``node`` is given and the chunk has at least a*nodes + b
    children, (a, b) = ``gate``, else leaf(cols, los, his) per batch of its
    leaves."""
    for chunk in chunks:
        if last is None:
            yield leaf(*chunk)
        elif node is not None and not last[1] and (
                _size(*chunk[1:]) >= gate[0] * len(chunk[1]) + gate[1]):
            yield node(last[0], *chunk)
        else:
            yield from starmap(leaf, _expand_all(last, [chunk]))


def _pieces(slopes, cols, los, his, clamp):
    """The pieces of a batch of leaves as integer columns: one (B, A, ss, es)
    per group of slope B = slopes[g], descending, whose minimum on leaf i is
    A[i] + B*t for t in los[i]..his[i].

    On leaf i the group's piece is ss[i]..es[i], the part of the leaf where
    the group is the minimum, a tie going to the lower group index; it is
    empty when es[i] == ss[i] - 1.  A leaf's pieces come in group order,
    tile it and differ in B.  The groups are the lines of an envelope over
    the leaves (``_cuts``).  Under the clamp each piece keeps only its part
    where A + B*t > 0, and the rest of a leaf, where the minimum is <= 0,
    is its zero piece."""
    if len(slopes) > 1:
        cuts = _cuts(min, slopes, cols, los, his)
        bounds = zip([los, *cuts], [*([c - 1 for c in cut] for cut in cuts), his])
    else:
        bounds = [(los, his)]
    out = []
    for B, A, (ss, es) in zip(slopes, cols, bounds):
        if clamp:
            if B > 0:  # A + B*t > 0 from t = -A // B + 1 on
                ss = [s if a + B * s > 0 else -a // B + 1 for a, s in zip(A, ss)]
            elif B < 0:  # ... up to t = (A - 1) // -B
                es = [e if a + B * e > 0 else (a - 1) // -B for a, e in zip(A, es)]
            else:  # B == 0: the whole piece where A > 0
                es = [e if a > 0 else s - 1 for a, s, e in zip(A, ss, es)]
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
        if floor_mode:  # empty pieces, e = s - 1, count no term
            total += _floor_total(B, denom, list(map(add, A, map(mul, ss, repeat(B)))),
                                  [e - s + 1 for s, e in zip(ss, es)])
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
    order, slopes, groups = _groups(p, branches)
    last, chunks = _walker(p, m, order).nodes(groups)
    node = gate = None
    if len(slopes) == 1 and not (floor_mode or clamp or last is None):
        # A node costs a few column entries per piece and residue class mod
        # D, a leaf about one per child: over the chunks of the perfbench and
        # rank-5 walks the node sums won from about D*(5 per node + 150)
        # children, and lost up to 3x on smaller single-node chunks.
        d = max(last[0][-1][1], last[0][-2][1])
        node, gate = partial(_node_sums, slopes[0]), (5 * d, 150 * d)
    count = total = 0
    for c, t in _fold(last, chunks, node, partial(_leaf_sums, slopes, branches.denom, floor_mode,
                                                   clamp), gate):
        count += c
        total += t
    return count, (Fraction(total) if floor_mode else Fraction(total, branches.denom))


def _leaf_sums(slopes, denom, floor_mode, clamp, cols, los, his):
    """(count, sum) over a batch of leaves, from their ``_pieces``."""
    return _size(los, his), _total(_pieces(slopes, cols, los, his, clamp), denom, floor_mode)


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
    keys, not in the points: a constant piece adds its length to its key
    (one entry per distinct key, however many leaves share it), a piece of
    slope B != 0 marks +1 at its first value and -1 one step |B| past its
    last (an empty one both at one key), counted per step in C, and
    ``_histogram`` sums the marks of each residue class of a step.
    Under the clamp the points outside the positive pieces count at the
    key 0.  ``jobs`` is accepted for compatibility; it has no effect.
    """
    _check_level(m)
    if p.affine_dim < 0 or not p.integer_vertices[1]:
        return {}
    D = branches.denom
    if m == 0:
        v = _origin(branches, clamp)
        return {v // D if floor_mode else v: 1}
    starts, ends = defaultdict(Counter), defaultdict(Counter)  # per step |B|
    flat = defaultdict(int)  # the constant pieces' lengths per key
    zeros = 0
    for los, his, pieces in _piece_batches(p, m, branches, clamp):
        if clamp:
            zeros += _size(los, his) - sum(_size(ss, es) for _, _, ss, es in pieces)
        for B, A, ss, es in pieces:
            if B == 0:
                lengths = list(map(sub, es, map(sub, ss, repeat(1))))
                for k, c in compress(zip(A, lengths), lengths):
                    flat[k] += c
                continue
            if len(pieces) > 1 or clamp:  # pieces may be empty
                # An empty piece's two events cancel at one key.  Dropping
                # them costs three column copies: the event counting
                # measured 13-33% slower at 1% empty pieces, even near
                # 1/8-1/4 and 14-36% faster from 3/8 (half the pieces of
                # the square ceiling slot are empty).
                keep = list(map(le, ss, es))
                if keep.count(False) * 4 > len(keep):
                    A, ss, es = (list(compress(col, keep)) for col in (A, ss, es))
            first, past = (ss, map(add, es, repeat(1))) if B > 0 else (es, map(sub, ss, repeat(1)))
            if B != 1:
                first, past = map(mul, first, repeat(B)), map(mul, past, repeat(B))
            starts[abs(B)].update(map(add, A, first))
            ends[abs(B)].update(map(add, A, past))
    if zeros:
        flat[0] += zeros
    return _histogram(starts, ends, flat, D if floor_mode else 1)


# The widest key span, per event, that a histogram sums on a dense grid.
# The grid costs a few entries per key of the span, the sweep a sort of the
# events and a Python step per covered key.  Every histogram of the
# perfbench ops spans at most 9 keys per event, where the grid measured
# 1.8-3.7x faster; on random progressions the sweep wins only when they are
# few and short (from about 3 keys per event), and by at most 4x at 16.
# Beyond it the sweep bounds the memory by the events and the output.
DENSE = 16


def _histogram(starts, ends, flat, fold):
    """{key // fold: count} over the keys that the progressions of each
    step b cover, from their endpoint events (``starts``, ``ends``: Counters
    per b), plus flat[k] at each key k of ``flat``, without zero counts.

    When the keys span at most ``DENSE`` times the number of events (the
    distinct keys of each Counter and of ``flat``), they go on a dense grid
    of the span: each residue class mod b where progressions of step b
    start takes the running sum (``accumulate``) of their events along it,
    and ``fold`` > 1 sums blocks of that many keys.  Otherwise each step's event keys are sorted
    by residue class and value, and the running count between consecutive
    keys covers their range of step b (``_sweep``)."""
    counters = [c for c in chain(starts.values(), ends.values(), [flat]) if c]
    if not counters:
        return {}
    lo, hi = min(map(min, counters)), max(map(max, counters))
    if hi - lo >= DENSE * sum(map(len, counters)):
        hist = Counter()
        for k, c in chain(*(_sweep(first, ends[b], b).items() for b, first in starts.items()),
                          flat.items()):
            hist[k // fold] += c
        return +hist
    grid = [0] * (hi - lo + 1)
    for k, c in flat.items():
        grid[k - lo] += c
    for b, first in starts.items():
        past = ends[b]
        for i in set(map(b.__rmod__, map(sub, first, repeat(lo)))):  # classes with progressions
            keys = range(lo + i, hi + 1, b)
            counts = accumulate(map(sub, map(first.get, keys, repeat(0)), map(past.get, keys, repeat(0))))
            grid[i::b] = map(add, grid[i::b], counts)
    if fold > 1:  # blocks [fold*k, fold*(k + 1)) of keys
        grid = [0] * (lo % fold) + grid + [0] * (-(hi + 1) % fold)
        lo //= fold
        grid = list(map(sum, zip(*[iter(grid)] * fold)))
    return dict(compress(zip(range(lo, lo + len(grid)), grid), grid))


def _sweep(first, past, b):
    """{value: count} of the values that progressions of step b cover, from
    their events: ``first`` counts the first values, ``past`` the values one
    step past the last ones.  The keys are swept per residue class mod b in
    ascending order, where the running count returns to 0 at each class's
    end."""
    keys = sorted(first.keys() | past.keys())
    if b > 1:
        keys.sort(key=b.__rmod__)  # stable: by residue, then by value
    counts = list(accumulate(map(sub, map(first.get, keys, repeat(0)), map(past.get, keys, repeat(0)))))
    runs = list(map(range, compress(keys, counts), compress(keys[1:], counts), repeat(b)))
    return dict(zip(chain.from_iterable(runs),
                    chain.from_iterable(map(repeat, compress(counts, counts), map(len, runs)))))


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
