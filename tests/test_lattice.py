"""The lattice walker, the per-leaf run splitter and the reductions
against brute force."""

import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, seed, settings
from hypothesis import strategies as st

from conftest import brute_lattice_points, fm_levels, min_form, sweep_histogram
from reebvol import lattice
from reebvol.arith import dot, rank_of
from reebvol.errors import UnsupportedGeometryError
from reebvol.grading import GradedSetup, s_m
from reebvol.plconcave import PLConcave
from reebvol.polyhedra import (Cone, dual_cone, polytope_from_halfspaces, polytope_from_vertices,
                               reeb_slice)


def _unit(n, i, c):
    return tuple(c if j == i else 0 for j in range(n))


@st.composite
def integer_systems(draw):
    """A random integer system A x <= b in 1..5 unknowns, bounded by a frame,
    with the box that holds every integer point of the frame: an axis box
    (its bounds scaled, and empty when a lower bound passes an upper one)
    or, up to rank 4, a weighted simplex.  Extra random rows may zero their
    last or second-to-last coefficient."""
    n = draw(st.integers(1, 5))
    rows, box = [], []
    if n > 4 or draw(st.booleans()):
        for i in range(n):
            lo, hi = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            scale = draw(st.integers(1, 3))
            rows.append((_unit(n, i, scale), scale * hi + draw(st.integers(0, scale - 1))))
            rows.append((_unit(n, i, -scale), -scale * lo + draw(st.integers(0, scale - 1))))
            box.append((lo, hi))
    else:
        weights = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
        total = draw(st.integers(-1, 2))
        rows.append((tuple(weights), total))
        rows.extend((_unit(n, i, -1), 1) for i in range(n))
        box = [(-1, (total + sum(weights) - w) // w) for w in weights]
    for _ in range(draw(st.integers(0, 4))):
        a = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        zero = draw(st.sampled_from([None, n - 1, n - 2]))
        if zero is not None and zero >= 0:
            a[zero] = 0
        rows.append((tuple(a), draw(st.integers(-6, 6))))
    return n, rows, box


def brute_leaves(n, rows, box):
    """The leaves of the system by filtering its bounding box, in ascending
    lexicographic order of the prefix."""
    fibres = {}
    for x in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        if all(dot(a, x) <= b for a, b in rows):
            fibres.setdefault(x[:-1], []).append(x[-1])
    out = []
    for prefix, values in sorted(fibres.items()):
        assert values == list(range(values[0], values[-1] + 1))  # a slice is convex
        out.append((prefix, values[0], values[-1]))
    return out


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(integer_systems())
# rationally nonempty, no integer point: x_2 = 1/2 on every slice
@example((2, [((1, 0), 2), ((-1, 0), 2), ((0, 2), 1), ((0, -2), -1)], [(-2, 2), (-2, 2)]))
# x_1/3 <= x_2 <= (x_1 + 1)/3 holds an integer only for some x_1
@example((2, [((1, 0), 4), ((-1, 0), 0), ((-1, 3), 1), ((1, -3), 0), ((0, 1), 2), ((0, -1), 0)],
          [(0, 4), (0, 2)]))
# infeasible over the rationals, in the first and in the last coordinate
@example((3, [((1, 0, 0), -1), ((-1, 0, 0), -1), ((0, 1, 0), 1), ((0, -1, 0), 1),
              ((0, 0, 1), 1), ((0, 0, -1), 1)], [(-1, 1), (-1, 1), (-1, 1)]))
@example((3, [((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1), ((0, -1, 0), 1),
              ((0, 0, 1), 1), ((0, 0, -1), 1), ((1, 1, 2), -5)], [(-1, 1), (-1, 1), (-1, 1)]))
# rows with a zero last and a zero second-to-last coefficient
@example((4, [((1, 1, 1, 1), 2), ((-1, 0, 0, 0), 1), ((0, -1, 0, 0), 1), ((0, 0, -1, 0), 1),
              ((0, 0, 0, -1), 1), ((2, -1, 3, 0), 1), ((1, 2, 0, -3), 2)],
          [(-1, 5), (-1, 5), (-1, 5), (-1, 5)]))
@example((1, [((3,), 5), ((-2,), 1)], [(-1, 1)]))
def test_prefix_bounds_leaves_match_brute_force(case):
    n, rows, box = case
    assert list(lattice.PrefixBounds(fm_levels(rows, n)).leaves()) == brute_leaves(n, rows, box)


@pytest.mark.parametrize("rows, nvars", [
    ([((1,), 3)], 1),
    ([((1, 0), 2), ((-1, 0), 0), ((0, -1), 0)], 2),
    ([((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1), ((0, -1, 0), 1), ((1, 1, 1), 4)], 3),
])
def test_unbounded_direction_raises(rows, nvars):
    with pytest.raises(UnsupportedGeometryError):
        list(lattice.PrefixBounds(fm_levels(rows, nvars)).leaves())


@st.composite
def walked_bodies(draw):
    """A random polytope of rank 1-5 and a level 1-4: the hull of n+1 or
    n+2 small rational points, mostly full-dimensional; the hull of 1 to
    n+1 points with one coordinate made flat; or the slice P of a random
    cone with n or n+1 rays at their sum.  At rank 5 the bodies are
    simplices: the Fourier-Motzkin levels grow fast with the facets."""
    n = draw(st.integers(1, 5))
    more = 0 if n == 5 else 1
    kind = draw(st.sampled_from(["hull", "flat", "slice"]))
    if kind == "slice":
        rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * (n - 1)).map(lambda r: r + (1,)),
                             min_size=n, max_size=n + more))
        assume(rank_of(rays) == n)
        sigma = Cone.from_rays(rays)
        xi = tuple(sum(r[i] for r in sigma.rays) for i in range(n))
        p = reeb_slice(dual_cone(sigma), xi)[1]
    else:
        d = draw(st.integers(1, 3))
        coord = st.integers(-d, d).map(lambda k: F(k, d))
        flat = kind == "flat"
        pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1 if flat else n + 1,
                            max_size=n + more + (not flat)))
        if flat:
            i, c = draw(st.integers(0, n - 1)), draw(coord)
            pts = [v[:i] + (c,) + v[i + 1:] for v in pts]
        p = polytope_from_vertices(pts)
    return p, draw(st.integers(1, 4))


def leaves_of(points):
    """The leaves of lattice points in ascending lexicographic order."""
    out = []
    for prefix, group in itertools.groupby(points, key=lambda u: u[:-1]):
        last = [u[-1] for u in group]
        assert last == list(range(last[0], last[-1] + 1))  # a slice is convex
        out.append((prefix, last[0], last[-1]))
    return out


@seed(20261019)
@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(walked_bodies(), st.data())
def test_projected_levels_walk_the_fourier_motzkin_leaves(case, data):
    """In every walk order, the walker on the body's projection hulls yields
    the leaves of the bounding-box oracle and those of the walker on the
    Fourier-Motzkin levels of its rows.  At rank 5 the Fourier-Motzkin
    levels take about 0.15 s per order, so they are compared in one drawn
    order there."""
    p, m = case
    n = p.rank
    points = brute_lattice_points(p, m)
    fm_order = data.draw(st.permutations(range(n))) if n == 5 else None
    for order in itertools.permutations(range(n)):
        leaves = list(lattice._walker(p, m, order).leaves())
        assert leaves == leaves_of(sorted(tuple(u[i] for i in order) for u in points))
        if n < 5 or list(order) == fm_order:
            rows = [(tuple(b.denominator * a[i] for i in order), b.numerator)
                    for a, b in ((a, F(b) * m) for a, b in p.halfspaces)]
            assert leaves == list(lattice.PrefixBounds(fm_levels(rows, n)).leaves())


@st.composite
def leaf_batches(draw):
    """1-4 branches and a batch of 1-4 leaves, each with its own offsets."""
    k = draw(st.integers(1, 4))
    bvals = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
    leaves = []
    for _ in range(draw(st.integers(1, 4))):
        avals = draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k))
        lo = draw(st.integers(-8, 8))
        leaves.append((avals, lo, lo + draw(st.integers(0, 16))))
    return bvals, leaves


def one_leaf(avals, bvals, lo, hi):
    return bvals, [(avals, lo, hi)]


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(leaf_batches(), st.booleans())
@example(one_leaf([-6], [3], 0, 5), True)  # the clamp's crossing -A/B = 2 is an integer
@example(one_leaf([-5], [3], 0, 5), True)  # ... and 5/3 is not
@example(one_leaf([6], [-3], 0, 5), True)
@example(one_leaf([7], [-3], -2, 5), True)
@example(one_leaf([0, 4], [2, 0], 0, 5), False)  # branches cross at the integer t = 2
@example(one_leaf([0, 5], [2, 0], 0, 5), False)  # ... and at t = 5/2
@example(one_leaf([1, 1, 3], [2, 2, 0], -3, 4), True)  # tied branches
@example(one_leaf([4, -4, 0], [-2, 2, 0], -4, 4), False)  # three lines through one point
@example(one_leaf([0, 10, 20], [0, 1, -1], 0, 10), False)  # a crossing above the minimum
@example(one_leaf([0, 0], [-1, 1], 0, 10), True)  # two negative runs clamp to one zero piece
# batches: three slope groups over leaves of other offsets, one a single point
@example(([2, 0, -2], [([0, 4, 8], 0, 5), ([-9, 0, 9], -3, 3), ([5, 5, 5], 0, 0)]), True)
# ... and a group of two branches whose order flips from leaf to leaf
@example(([1, 1, 0], [([3, 0, 1], 0, 6), ([0, 3, 2], -6, 0), ([-1, -1, -1], 2, 9)]), True)
def test_leaf_pieces_match_direct_evaluation(case, clamp):
    """On every leaf of a batch, the positive pieces come in group order and
    with the zero pieces around them tile lo..hi in order, and on each one
    A + B*t is the branch minimum, clamped at 0 when asked, at every t.
    Pieces are maximal: consecutive ones differ in (A, B); so are the
    unclamped ones."""
    bvals, leaves = case
    slopes = sorted(set(bvals), reverse=True)
    cols = [[min(a for a, b in zip(avals, bvals) if b == B) for avals, _, _ in leaves]
            for B in slopes]
    los, his = [lo for _, lo, _ in leaves], [hi for _, _, hi in leaves]
    for mode in {clamp, False}:
        batch = lattice._pieces(slopes, cols, los, his, mode)
        for i, (avals, lo, hi) in enumerate(leaves):
            pieces = [(ss[i], es[i], A[i], B) for B, A, ss, es in batch if es[i] >= ss[i]]
            assert all(es[i] == ss[i] - 1 for _, _, ss, es in batch if es[i] < ss[i])
            assert all(x[1] + 1 == y[0] for x, y in zip(pieces, pieces[1:]))
            first, last = (pieces[0][0], pieces[-1][1]) if pieces else (hi + 1, hi)
            if first > lo:
                pieces.insert(0, (lo, first - 1, 0, 0))
            if last < hi:
                pieces.append((last + 1, hi, 0, 0))
            assert [t for s, e, _, _ in pieces for t in range(s, e + 1)] == list(range(lo, hi + 1))
            for s, e, A, B in pieces:
                for t in range(s, e + 1):
                    v = min(a + b * t for a, b in zip(avals, bvals))
                    assert A + B * t == (max(v, 0) if mode else v)
            assert all(x[2:] != y[2:] for x, y in zip(pieces, pieces[1:]))


# -- the reductions over m*p, in every walk order ------------------------------


def oracle_value(bd, u, floor_mode, clamp):
    v = min(dot(l, u) + c for l, c in zip(bd.linears, bd.consts))
    if clamp:
        v = max(v, 0)
    return F(v // bd.denom) if floor_mode else F(v, bd.denom)


def assert_reductions_match(p, m, bd, points):
    """count_points, count_and_sum, max_value and value_histogram over m*p
    against its lattice ``points`` from the bounding-box oracle, in all four
    ceiling/clamp modes."""
    assert lattice.count_points(p, m) == len(points)
    for floor_mode, clamp in itertools.product((False, True), repeat=2):
        values = [oracle_value(bd, u, floor_mode, clamp) for u in points]
        assert lattice.count_and_sum(p, m, bd, floor_mode, clamp) == (len(values), sum(values))
        assert lattice.max_value(p, m, bd, floor_mode, clamp) == max(values, default=None)
        hist = lattice.value_histogram(p, m, bd, floor_mode, clamp)
        scale = 1 if floor_mode else bd.denom
        assert Counter({F(k, scale): c for k, c in hist.items()}) == Counter(values)


def innermost(n, i):
    return [j for j in range(n) if j != i] + [i]


@st.composite
def bodies_and_branches(draw, n):
    """A random full-dimensional polytope of rank n with small rational
    vertices, a level (up to 40 at rank <= 2, 12 above) and 1-3 integer
    branches of both slope signs, with constants that may be negative."""
    d = draw(st.integers(1, 3))
    low = -d if n <= 3 else 0
    coord = st.integers(low, d).map(lambda k: F(k, d))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=min(n + 3, 5)))
    p = polytope_from_vertices(pts)
    assume(p.affine_dim == n)
    m = draw(st.integers(0, 40 if n <= 2 else 12))
    k = draw(st.integers(1, 3))
    linears = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=k, max_size=k))
    consts = draw(st.lists(st.integers(-6 * m - 6, 6), min_size=k, max_size=k))
    return p, m, lattice.BranchData(linears, consts, draw(st.integers(1, 3)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reductions_match_brute_force_in_every_walk_order(n):
    """Every reduction equals the oracle whichever coordinate is innermost;
    at these levels runs are long and overlap within a residue class of
    their step, and the negative constants make the clamp act."""

    @seed(20261018 + n)
    @settings(max_examples=25, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(bodies_and_branches(n))
    def check(case):
        p, m, bd = case
        points = brute_lattice_points(p, m)
        for i in range(n):
            with mock.patch.object(lattice, "_walk_order", lambda *_: innermost(n, i)):
                assert_reductions_match(p, m, bd, points)

    check()


def _cone_q_p(rays, xi):
    return reeb_slice(dual_cone(Cone.from_rays(rays)), xi)


CROSS4 = [[s * int(i == j) for j in range(3)] + [1] for i in range(3) for s in (-1, 1)]
SQUARE = [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]


@pytest.mark.parametrize("body, bd", [
    # slices P at <u, xi> = 1 with a flat last coordinate
    (_cone_q_p(SQUARE, (0, 0, 1))[1],
     lattice.BranchData([(1, 1, 0), (0, -1, 0), (2, 0, 0)], [0, 1, -3], 2)),
    (_cone_q_p(CROSS4, (0, 0, 0, 1))[1],
     lattice.BranchData([(1, 0, 0, 1), (0, 1, 1, 0)], [-2, 1], 1)),
    # a slice without a flat coordinate
    (_cone_q_p([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (1, 2, 3))[1],
     lattice.BranchData([(1, 0, 0), (0, 1, 1)], [0, -1], 3)),
    # rank 1: the slice is a point; Q and a segment across 0
    (_cone_q_p([[1]], (2,))[1], lattice.BranchData([(1,), (-2,)], [0, 3], 2)),
    (_cone_q_p([[1]], (2,))[0], lattice.BranchData([(1,), (-2,)], [0, 3], 2)),
    (polytope_from_vertices([(F(-3, 2),), (F(5, 2),)]),
     lattice.BranchData([(3,), (-1,)], [-2, 1], 2)),
])
@pytest.mark.parametrize("m", [0, 1, 2, 5, 9])
def test_reductions_on_degenerate_and_rank_one_bodies(body, bd, m):
    """The walk order skips coordinates along which the body is flat."""
    order = lattice._walk_order(body, bd)
    widths = [max(v[i] for v in body.vertices) - min(v[i] for v in body.vertices)
              for i in range(body.rank)]
    assert widths[order[-1]] > 0 or not any(widths)
    assert_reductions_match(body, m, bd, brute_lattice_points(body, m))


@st.composite
def flat_bodies(draw):
    """A body of rank 2-5 flat along some coordinates, with 1-3 branches:
    the frame body of the slice of a random cone at the sum of its rays
    (``degree_frame``), flat along its last coordinate, or the hull of
    random points with one to n - 1 coordinates held at constants."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        rays = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * (n - 1)).map(lambda r: r + (1,)),
                             min_size=n, max_size=n + 1))
        assume(rank_of(rays) == n)
        xi = tuple(sum(r[i] for r in rays) for i in range(n))
        body = lattice.degree_frame(_cone_q_p(rays, xi)[1], xi).body
    else:
        coord = st.integers(-2, 2).map(lambda k: F(k, 2))
        pts = draw(st.lists(st.tuples(*[coord] * n), min_size=2, max_size=n + 2))
        flat = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
        const = draw(coord)
        body = polytope_from_vertices([tuple(const if i in flat else x for i, x in enumerate(v))
                                       for v in pts])
    linears = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=3))
    return body, lattice.BranchData(linears, [0] * len(linears), 1)


@seed(20261026)
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(flat_bodies())
def test_walks_keep_flat_coordinates_off_the_node_and_leaf_levels(case):
    """On frame bodies and bodies flat along some coordinates, no flat
    coordinate is innermost or at the node level (the next-to-last) while
    the body is wide along enough others, so a degree slice's nodes have
    several children."""
    body, bd = case
    widths = [max(v[i] for v in body.vertices) - min(v[i] for v in body.vertices)
              for i in range(body.rank)]
    order = lattice._walk_order(body, bd)
    assert sorted(order) == list(range(body.rank))
    wide = sum(w > 0 for w in widths)
    assert all(widths[i] > 0 for i in order[len(order) - min(wide, 2):])


LEVELS = {1: 30, 2: 16, 3: 6, 4: 3, 5: 2}  # the bounding-box oracle stays small


@st.composite
def batched_walks(draw):
    """A batch size 1-7, so that batches end inside nodes and inside the
    chunks of every level, with a random full-dimensional polytope of rank
    1-5 at a level, 1-3 integer branches, and a cone whose rays end in 1
    with its Reeb vector (the sum of the rays) and a degree."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 2))
    coord = st.integers(-d if n <= 3 else 0, d).map(lambda k: F(k, d))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 2))
    p = polytope_from_vertices(pts)
    assume(p.affine_dim == n)
    m = draw(st.integers(1, LEVELS[n]))
    k = draw(st.integers(1, 3))
    linears = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=k, max_size=k))
    consts = draw(st.lists(st.integers(-6 * m - 6, 6), min_size=k, max_size=k))
    bd = lattice.BranchData(linears, consts, draw(st.integers(1, 3)))
    rays = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * (n - 1)).map(lambda r: r + (1,)),
                         min_size=n, max_size=n + 1))
    assume(rank_of(rays) == n)
    xi = tuple(sum(r[i] for r in rays) for i in range(n))
    return draw(st.integers(1, 7)), p, m, bd, rays, xi, draw(st.integers(0, LEVELS[n]))


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(batched_walks())
def test_batches_may_end_anywhere(case):
    """With batches of 1-7 leaves, and chunks of 1-7 children at every
    level, the reductions in all four modes, the lexicographic point stream
    and the degree slices all match the bounding-box oracle."""
    size, p, m, bd, rays, xi, t = case
    with mock.patch.object(lattice, "BATCH", size):
        points = brute_lattice_points(p, m)
        assert list(lattice.iter_points(p, m)) == points
        assert_reductions_match(p, m, bd, points)
        dual = dual_cone(Cone.from_rays(rays))
        slice_p = reeb_slice(dual, xi)[1]
        assert list(lattice.points_on_level(dual, xi, t)) == brute_lattice_points(slice_p, t)


def leaves_walked(monkeypatch, walk):
    """The leaves under the walks that ``walk()`` makes, counted at
    ``PrefixBounds.nodes`` as the children of the nodes one level above
    them, whether a reduction expands them or sums them per node; a walk
    that visits none fails, so no bound holds vacuously."""
    walked = []
    real = lattice.PrefixBounds.nodes

    def counted(last, chunks):
        for cols, los, his in chunks:
            walked.append(len(los) if last is None else lattice._size(los, his))
            yield cols, los, his

    def nodes(self, groups=()):
        last, chunks = real(self, groups)
        return last, counted(last, chunks)

    with monkeypatch.context() as mp:
        mp.setattr(lattice.PrefixBounds, "nodes", nodes)
        walk()
    assert sum(walked) > 0
    return sum(walked)


def widest_walk(p, m, widest):
    return lambda: list(lattice._walker(p, m, innermost(p.rank, widest)).leaves())


def test_walks_take_the_widest_axis_innermost(orthant3, monkeypatch):
    """Two branches crossing along every axis, and no branches at all: either
    way the cheapest innermost axis is the widest one.  The leaf counts are
    pinned: batching the leaves, or summing them per node, does not change
    the walk."""
    g = GradedSetup(dual_cone(orthant3), (1, 2, 3), min_form((1, 0, 0), (0, 1, 1)))
    walked = leaves_walked(monkeypatch, lambda: s_m(g, 60))
    assert walked == leaves_walked(monkeypatch, widest_walk(g.q, 60, 0)) == 331
    q = _cone_q_p(CROSS4, (0, 0, 0, 1))[0]
    assert lattice._walk_order(q) == [0, 1, 3, 2]  # three widest axes tie: the highest wins
    walked = leaves_walked(monkeypatch, lambda: lattice.count_points(q, 16))
    assert walked == leaves_walked(monkeypatch, widest_walk(q, 16, 2)) == 6545


def test_walk_memory_stays_flat_in_the_level():
    """The frontier holds about ``BATCH`` entries per level and column, not
    a whole level: from m = 20 to m = 40 the leaves of the rank-4
    cross-polytope cone's Q grow about 7-fold, its traced peak barely."""
    q = _cone_q_p(CROSS4, (0, 0, 0, 1))[0]
    lattice.count_points(q, 1)  # the walk levels are kept with q, outside the trace
    peaks = []
    for m in (20, 40):
        tracemalloc.start()
        try:
            lattice.count_points(q, m)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0] and peaks[1] < 2 * 2**20


def test_constant_histogram_pieces_stay_per_key(monkeypatch):
    """A branch of slope 0 along the innermost axis makes every piece of a
    histogram constant: their lengths are kept per distinct key, not per
    leaf, so the peak memory stays flat in the level while the leaves grow
    as m**2 (the values are above the small-int cache at both levels),
    here pinned to the leaves, whose batches are full at both levels.
    At the default gate every chunk, of up to m + 1 nodes, takes
    the node runs, which hold a few columns per node of a chunk: their
    peak stays under 1 MiB and within 512 bytes per node of a chunk (at
    most ``BATCH``) of the peak with 16 nodes per chunk, which is the
    keys' share."""
    gate = lattice.HISTOGRAM_GATE
    monkeypatch.setattr(lattice, "HISTOGRAM_GATE", (10**9, 10**9))
    rows = [(_unit(3, i, s), b * (s > 0)) for i, b in enumerate((1, 1, 3)) for s in (1, -1)]
    p = polytope_from_halfspaces(3, rows)
    bd = lattice.BranchData([(1, 0, 0)], [0], 1)
    assert lattice._groups(p, bd)[:2] == ([0, 1, 2], [0])
    flats = []
    real = lattice._histogram

    def histogram(events, fold, clamp):
        flats.append(len(events.flat))
        return real(events, fold, clamp)

    monkeypatch.setattr(lattice, "_histogram", histogram)
    lattice.value_histogram(p, 1, bd)  # the walk plan is kept with p, outside the trace
    peaks = []
    for m in (150, 300):
        tracemalloc.start()
        try:
            hist = lattice.value_histogram(p, m, bd)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert hist == {k: (m + 1) * (3 * m + 1) for k in range(m + 1)}
    assert flats[1:] == [151, 301]
    assert peaks[1] <= 1.5 * peaks[0] and peaks[1] < 2**20

    monkeypatch.setattr(lattice, "HISTOGRAM_GATE", gate)
    nodes = []
    real_nodes = lattice._node_events

    def node_events(*args):
        nodes.append(len(args[-2]))
        return real_nodes(*args)

    monkeypatch.setattr(lattice, "_node_events", node_events)
    big = lattice.BATCH
    for m in (300, 600):
        peaks = {}
        for batch in (big, 16):
            del flats[:], nodes[:]
            with mock.patch.object(lattice, "BATCH", batch):
                tracemalloc.start()
                try:
                    hist = lattice.value_histogram(p, m, bd)
                    peaks[batch] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert hist == {k: (m + 1) * (3 * m + 1) for k in range(m + 1)}
            assert flats == [m + 1] and sum(nodes) == m + 1 and max(nodes) == min(batch, m + 1)
        assert peaks[big] < 2**20 and peaks[big] <= peaks[16] + 512 * min(big, m + 1)


def test_constant_histogram_node_runs_stay_per_key(monkeypatch):
    """Over node runs, the lengths of constant pieces are kept per distinct
    key, not per node: on the box [0, 1]^3 x [0, 3] with the branch x_1,
    whose walk has (m + 1)**2 nodes in full chunks at m = 40 and 80, the
    node runs add every length at its key and the peak memory stays flat
    in the level, while the nodes grow 4-fold and the points 8-fold."""
    rows = [(_unit(4, i, s), b * (s > 0)) for i, b in enumerate((1, 1, 1, 3)) for s in (1, -1)]
    p = polytope_from_halfspaces(4, rows)
    bd = lattice.BranchData([(1, 0, 0, 0)], [0], 1)
    assert lattice._groups(p, bd)[:2] == ([0, 1, 2, 3], [0])
    monkeypatch.setattr(lattice, "HISTOGRAM_GATE", (0, 0))
    lattice.value_histogram(p, 1, bd)  # the walk plan is kept with p, outside the trace
    peaks = []
    for m in (40, 80):
        tracemalloc.start()
        try:
            hist = lattice.value_histogram(p, m, bd)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert hist == {k: (m + 1) ** 2 * (3 * m + 1) for k in range(m + 1)}
    assert peaks[1] <= 1.5 * peaks[0] and peaks[1] < 2**20


CUBE7 = [list(s) + [1] for s in itertools.product((-1, 1), repeat=6)]
CROSS7 = [[s * int(i == j) for j in range(6)] + [1] for i in range(6) for s in (-1, 1)]


@pytest.mark.parametrize("rays, counts, rows", [
    (CUBE7, (14, 99), [2, 4, 8, 16, 32, 33, 64]),
    (CROSS7, (730, 16355), [2, 2, 2, 2, 2, 11, 2]),
])
def test_rank_seven_cones_walk_their_projections(rays, counts, rows):
    """The rank-7 cube and cross-polytope cones at xi = e_7: counts and
    points against the oracle, and the rows per level of the walker, which
    holds each projection's facets (the cap u_7 <= 1 has no coefficient
    along the innermost axis)."""
    q = _cone_q_p(rays, (0,) * 6 + (1,))[0]
    for m, count in zip((1, 2), counts):
        points = brute_lattice_points(q, m)
        assert lattice.count_points(q, m) == len(points) == count
        assert list(lattice.iter_points(q, m)) == points
    walker = lattice._walker(q, 1, lattice._walk_order(q))
    assert [len(upper) + len(lower) for upper, lower in walker._split[1:]] == rows


# -- envelope runs and walk plans ----------------------------------------------


def brute_children(specs, cols, los, his):
    """The children of the nodes (cols, los, his) by evaluating every term of
    every spec (pick, terms (i, a, d)) at every x: the ``pick`` of
    (r + a*x) // d, r being column i at the node; the last two specs give
    the child's range, and a child whose range is empty is dropped."""
    out = []
    for node, (lo, hi) in enumerate(zip(los, his)):
        for x in range(lo, hi + 1):
            values = [pick((cols[i][node] + a * x) // d for i, a, d in terms)
                      for pick, terms in specs]
            if values[-2] <= values[-1]:
                out.append(tuple(values))
    return out


@st.composite
def envelope_chunks(draw):
    """A chunk of 1-4 nodes with ranges of 1-12 children (1 for a
    single-child node) and 1-5 integer columns, and 1-4 column specs of 1-4
    terms (i, a, d) each, picked by min or max: slopes in -3..3 and
    divisors 1-4, so that terms of one slope a/d may have different
    divisors.  The last two specs give the children's range."""
    width = draw(st.integers(1, 5))
    nodes = draw(st.integers(1, 4))
    cols = [draw(st.lists(st.integers(-20, 20), min_size=nodes, max_size=nodes))
            for _ in range(width)]
    los = draw(st.lists(st.integers(-6, 6), min_size=nodes, max_size=nodes))
    his = [lo + draw(st.integers(0, 11)) for lo in los]
    term = st.tuples(st.integers(0, width - 1), st.integers(-3, 3), st.integers(1, 4))
    specs = draw(st.lists(st.tuples(st.sampled_from([min, max]),
                                    st.lists(term, min_size=1, max_size=4)),
                          min_size=3, max_size=6))
    return specs, cols, los, his


def one_node(specs, column, lo, hi):
    return specs, [[r] for r in column], [lo], [hi]


@seed(20261020)
@settings(max_examples=400, deadline=None, database=None)
@given(envelope_chunks())
# lines x and 6 - x of a min cross exactly at the integer x = 3, and of a max
@example(one_node([(min, [(0, 1, 1), (1, -1, 1)]), (max, [(0, 1, 1), (1, -1, 1)]),
                   (max, [(2, 0, 1)]), (min, [(3, 0, 1)])], [0, 6, -9, 9], 0, 8))
# one slope 1/2 over the divisors 2 and 4, and three lines through one point
@example(one_node([(min, [(0, 1, 2), (1, 2, 4), (2, -1, 3)]),
                   (max, [(0, 2, 4), (1, 1, 2), (2, 0, 1)]),
                   (max, [(3, 0, 1)]), (min, [(4, 0, 1)])], [1, 3, 5, -9, 9], -4, 7))
# single-child nodes beside a wide one, and an empty child range
@example(([(min, [(0, 1, 1), (1, -2, 3)]), (max, [(0, -1, 2)]), (min, [(1, 1, 1)])],
          [[0, 4, -3], [2, -2, 5]], [0, 3, -1], [0, 9, -1]))
def test_envelope_runs_match_the_child_by_child_pick(case):
    """Expanding a chunk as envelope runs gives the children of the
    child-by-child pick, and both give those of evaluating every term."""
    specs, cols, los, his = case
    lines = [lattice._lines(pick, terms) for pick, terms in specs]
    expected = brute_children(specs, cols, los, his)
    for expand in (lattice._expand_runs, lattice._expand):
        children, child_los, child_his = expand(lines, cols, los, his)
        assert list(zip(*children, child_los, child_his)) == expected


@st.composite
def envelope_bodies(draw):
    """A body of rank 1-5 cut from a box by up to three rows, each possibly
    with a twin of the same slope over another divisor (k*a . x <= k*b + j,
    k = 2 or 3), at a level 1-4, with 1-3 integer branches, a batch size
    1-7 and a run threshold that sends every chunk, none or some of them
    through the envelope runs."""
    n = draw(st.integers(1, 5))
    rows = []
    for i in range(n):
        lo, hi = draw(st.integers(-2, 1)), draw(st.integers(0, 2))
        rows += [(_unit(n, i, 1), hi), (_unit(n, i, -1), -lo)]
    for _ in range(draw(st.integers(0, 3))):
        a = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
        assume(any(a))
        b = draw(st.integers(-2, 6))
        rows.append((a, b))
        if draw(st.booleans()):
            k = draw(st.integers(2, 3))
            rows.append((tuple(k * x for x in a), k * b + draw(st.integers(0, k - 1))))
    p = polytope_from_halfspaces(n, rows)
    assume(p.affine_dim >= 0)
    m = draw(st.integers(1, LEVELS[n]))
    k = draw(st.integers(1, 3))
    linears = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=k, max_size=k))
    consts = draw(st.lists(st.integers(-4 * m - 4, 4), min_size=k, max_size=k))
    bd = lattice.BranchData(linears, consts, draw(st.integers(1, 3)))
    runs = draw(st.sampled_from([0, 2, 10**9]))
    return draw(st.integers(1, 7)), runs, p, m, bd, draw(st.permutations(range(n)))


@seed(20261020)
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(envelope_bodies())
def test_envelope_walks_match_brute_force(case):
    """With batches of 1-7 leaves and every chunk expanded as envelope runs,
    child by child or either way by its children per node, the leaves of a
    walk in a drawn order, of the walk on the Fourier-Motzkin levels of the
    body's rows, and the reductions in all four modes match the
    bounding-box oracle; a second level on the same body reuses its plans."""
    size, runs, p, m, bd, order = case
    n = p.rank
    with mock.patch.object(lattice, "BATCH", size), mock.patch.object(lattice, "RUNS", runs):
        for level in (m, m + 1):
            points = brute_lattice_points(p, level)
            leaves = list(lattice._walker(p, level, order).leaves())
            assert leaves == leaves_of(sorted(tuple(u[i] for i in order) for u in points))
            rows = [(a, b * level) for a, b in p.halfspaces]
            assert list(lattice.PrefixBounds(fm_levels(rows, n)).leaves()) == leaves_of(points)
            assert_reductions_match(p, level, bd, points)


@pytest.mark.parametrize("lo, order", [(0, [1, 0]), (-2, [0, 1])])
def test_walk_order_counts_only_branches_that_cross(lo, order):
    """Two branches of distinct slopes along x_1 on the box [lo, lo + 5] x
    [0, 2]: they cross inside it only when lo < 0, and only then does the
    pair tip the wider axis x_1 off the innermost place."""
    box = polytope_from_vertices([(x, y) for x in (lo, lo + 5) for y in (0, 2)])
    assert lattice._walk_order(box, lattice.BranchData([(1, 0), (0, 0)], [0, 0], 1)) == order


SQUARE_SIGMA = [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]


def test_benchmark_bodies_walk_their_fastest_axis_innermost():
    """The innermost axes that measured fastest on two benchmark bodies: the
    sub-level body of the square cone at xi = (1, 1, 2) under three
    branches, about 1.5x faster than x_1 or x_2 innermost, and that of the
    rank-4 orthant at xi = (1, 1, 2, 3) under two, about 10% faster than
    the two widest axes."""
    square = GradedSetup(dual_cone(Cone.from_rays(SQUARE_SIGMA)), (1, 1, 2),
                         PLConcave.make([((1, 2, 2), 0), ((2, 1, 2), 1), ((1, 1, 2), 2)]))
    assert lattice._walk_order(square.q, square._branches) == [0, 1, 2]
    orthant4 = GradedSetup(dual_cone(Cone.from_rays([_unit(4, i, 1) for i in range(4)])),
                           (1, 1, 2, 3), PLConcave.make([((1, 1, 1, 0), 1), ((0, 0, 1, 0), 0)]))
    assert lattice._walk_order(orthant4.q, orthant4._branches) == [0, 1, 3, 2]


def test_dilations_share_one_walk_plan(orthant3):
    """The walk plan of a body is built once: s_m at two levels and a second
    call at the first build one PrefixBounds and one plan between them."""
    g = GradedSetup(dual_cone(orthant3), (1, 2, 3), min_form((1, 0, 0), (0, 1, 1)))
    with mock.patch.object(lattice, "_plan", wraps=lattice._plan) as plans:
        values = [s_m(g, m) for m in (7, 11, 7)]
    assert values[0] == values[2] and plans.call_count == 1
    assert list(g.q.walk_plans) == [tuple(lattice._walk_order(g.q, g._branches))]


# -- closed forms over the children of a node ----------------------------------


NODE_LEVELS = {1: 40, 2: 40, 3: 12, 4: 5, 5: 3}  # the bounding-box oracle stays small


@st.composite
def node_bodies(draw):
    """A body of rank 1-5 cut from a box, possibly flat along some axes, by
    up to three rows a.x <= b with coefficients -4..4, so that the walk's
    divisors run 1-4 and its envelopes have several lines, each row
    possibly with a twin of its slope over another divisor
    (k*a.x <= k*b + j, k = 2 or 3); a level 0-40 at ranks 1-2 (fewer
    above), a walk order, and 1-3 branches of one slope along its last
    coordinate, so one group, of one or several lines."""
    n = draw(st.integers(1, 5))
    rows = []
    for i in range(n):
        lo, hi = draw(st.integers(-2, 1)), draw(st.integers(0, 3 if n <= 3 else 2))
        lo = min(lo, hi)
        rows += [(_unit(n, i, 1), hi), (_unit(n, i, -1), -lo)]
    for _ in range(draw(st.integers(0, 3))):
        a = tuple(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
        assume(any(a))
        b = draw(st.integers(-2, 8))
        rows.append((a, b))
        if draw(st.booleans()):
            k = draw(st.integers(2, 3))
            rows.append((tuple(k * x for x in a), k * b + draw(st.integers(0, k - 1))))
    p = polytope_from_halfspaces(n, rows)
    assume(p.affine_dim >= 0)
    order = draw(st.permutations(range(n)))
    slope = draw(st.integers(-3, 3))
    k = draw(st.integers(1, 3))
    linears = []
    for _ in range(k):
        linear = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        linear[order[-1]] = slope
        linears.append(tuple(linear))
    m = draw(st.integers(0, NODE_LEVELS[n]))
    consts = draw(st.lists(st.integers(-4 * m - 4, 4), min_size=k, max_size=k))
    return p, m, order, lattice.BranchData(linears, consts, draw(st.integers(1, 3)))


def leaf_reductions(last, chunk, slopes, denom):
    """(count, scaled sum) over the leaves of one chunk of nodes."""
    count = total = 0
    for cols, los, his in lattice._expand_all(last, [chunk]):
        count += lattice._size(los, his)
        total += lattice._total(lattice._pieces(slopes, cols, los, his, False), denom, False)
    return count, total


@seed(20261021)
@settings(max_examples=120, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(node_bodies(), st.integers(1, 7))
# rank 2: a single node whose range runs over a wide segment with divisor 3
@example((polytope_from_halfspaces(2, [((1, 0), 4), ((-1, 0), 1), ((1, 3), 7), ((-1, -3), 2)]),
          40, [0, 1], lattice.BranchData([(2, 1), (-1, 1)], [3, -5], 2)), 1024)
# single-child nodes: the box is flat along the second walk coordinate
@example((polytope_from_halfspaces(3, [((1, 0, 0), 2), ((-1, 0, 0), 1), ((0, 1, 0), 0),
                                        ((0, -1, 0), 0), ((0, 0, 1), 3), ((0, 0, -1), 2),
                                        ((1, 0, 2), 3), ((2, 0, 4), 7)]),
          12, [0, 1, 2], lattice.BranchData([(1, 2, -1), (0, 0, -1)], [0, 1], 1)), 3)
def test_node_runs_match_the_leaves_and_brute_force(case, size):
    """Counting and summing each node's children in closed form equals the
    leaves' reductions chunk by chunk, and with ``_fold``'s gate sending
    every chunk to the node sums or none, and the leaves expanded as
    envelope runs (``RUNS`` = 0) or child by child (``RUNS`` = 10**9), in
    batches of 1-7 or more nodes, count_points and count_and_sum equal the
    bounding-box oracle."""
    p, m, order, bd = case
    n = p.rank
    points = brute_lattice_points(p, m)
    values = [oracle_value(bd, u, False, False) for u in points]
    with mock.patch.object(lattice, "_walk_order", lambda *_: list(order)), \
            mock.patch.object(lattice, "BATCH", size):
        _, slopes, groups = lattice._groups(p, bd)
        assert len(slopes) == 1
        if m and n > 1 and points:
            last, chunks = lattice._walker(p, m, order).nodes(groups)
            for chunk in chunks:
                expected = leaf_reductions(last, chunk, slopes, bd.denom)
                assert lattice._node_count(last[0], *chunk) == expected[0]
                assert lattice._node_sums(slopes, bd.denom, False, False, last[0], *chunk) == expected
        fold = lattice._fold
        for gate, runs in itertools.product([(0, 0), (10**9, 10**9)], [0, 10**9]):
            def forced(last, chunks, node, leaf, _=None, gate=gate):
                return fold(last, chunks, node, leaf, gate)

            with mock.patch.object(lattice, "_fold", forced), mock.patch.object(lattice, "RUNS", runs):
                assert lattice.count_points(p, m) == len(points)
                assert lattice.count_and_sum(p, m, bd) == (len(points), sum(values))


BOX2 = polytope_from_halfspaces(2, [((1, 0), 3), ((-1, 0), 0), ((0, 1), 3), ((0, -1), 0)])


@st.composite
def summed_bodies(draw):
    """A body of rank 1-5 from ``envelope_bodies`` with its walk order and
    batch size, a level 0-40 at ranks 1-2 (fewer above) and 1-3 groups of
    branches along the last walk coordinate, of distinct slopes -3..3, each
    of one or two branches, with constants down to -4m - 4 and a
    denominator 1-12."""
    size, _, p, _, _, order = draw(envelope_bodies())
    n = p.rank
    m = draw(st.integers(0, NODE_LEVELS[n]))
    linears = []
    for slope in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True)):
        for _ in range(draw(st.integers(1, 2))):
            linear = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            linear[order[-1]] = slope
            linears.append(tuple(linear))
    consts = draw(st.lists(st.integers(-4 * m - 4, 4), min_size=len(linears),
                           max_size=len(linears)))
    return size, p, m, order, lattice.BranchData(linears, consts, draw(st.integers(1, 12)))


@seed(20261024)
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(summed_bodies())
# two groups whose cut floor((A_1 - A_0)/2) is a floor-line of divisor 2
@example((3, BOX2, 9, [0, 1], lattice.BranchData([(1, 1), (2, -1)], [0, 5], 1)))
# a clamped group of slope 0 and floor mode over p = 12
@example((7, BOX2, 11, [1, 0], lattice.BranchData([(2, 0), (-1, 5)], [-20, 9], 12)))
def test_node_sums_match_the_leaves_and_brute_force_in_every_mode(case):
    """In all four ceiling/clamp modes the node sums of each chunk of nodes
    equal its leaves' sums (``_leaf_sums``), also with the tables cut to
    ``TABLE`` = 16 entries, and count_and_sum equals the bounding-box oracle
    with ``_fold``'s gate sending every chunk to the node sums or none and
    the leaves expanded as envelope runs (``RUNS`` = 0) or child by child
    (``RUNS`` = 10**9)."""
    size, p, m, order, bd = case
    points = brute_lattice_points(p, m)
    fold = lattice._fold
    with mock.patch.object(lattice, "_walk_order", lambda *_: list(order)), \
            mock.patch.object(lattice, "BATCH", size):
        _, slopes, groups = lattice._groups(p, bd)
        for floor_mode, clamp in itertools.product((False, True), repeat=2):
            values = [oracle_value(bd, u, floor_mode, clamp) for u in points]
            if m and p.rank > 1 and points:
                last, chunks = lattice._walker(p, m, order).nodes(groups)
                for chunk, table in itertools.product(chunks, (16, lattice.TABLE)):
                    leaves = [lattice._leaf_sums(slopes, bd.denom, floor_mode, clamp, *leaf)
                              for leaf in lattice._expand_all(last, [chunk])]
                    with mock.patch.object(lattice, "TABLE", table):
                        assert (lattice._node_sums(slopes, bd.denom, floor_mode, clamp, last[0], *chunk)
                                == (sum(c for c, _ in leaves), sum(t for _, t in leaves)))
            for gate, runs in itertools.product([(0, 0), (10**9, 10**9)], [0, 10**9]):
                def forced(last, chunks, node, leaf, _=None, gate=gate):
                    return fold(last, chunks, node, leaf, gate)

                with mock.patch.object(lattice, "_fold", forced), mock.patch.object(lattice, "RUNS", runs):
                    assert (lattice.count_and_sum(p, m, bd, floor_mode, clamp)
                            == (len(values), sum(values)))


@seed(20261021)
@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(envelope_bodies(), st.sampled_from([0, 16, 10**9]))
# one leaf whose progression of step 40 spans 1600 keys for 2 events
@example((1, 0, polytope_from_halfspaces(1, [((1,), 40), ((-1,), 0)]), 1,
          lattice.BranchData([(40,)], [-7], 1), [0]), 16)
def test_histograms_match_the_sorted_sweep(case, dense):
    """The value histogram equals the sorted sweep (``sweep_histogram``)
    with steps b > 1, empty pieces, clamp zeros and floor folding, whether
    the keys go on a dense grid (``DENSE`` = 10**9), through the sparse
    sweep (``DENSE`` = 0) or as their span decides."""
    size, _, p, m, bd, _ = case
    with mock.patch.object(lattice, "BATCH", size), mock.patch.object(lattice, "DENSE", dense):
        for floor_mode, clamp in itertools.product((False, True), repeat=2):
            assert (lattice.value_histogram(p, m, bd, floor_mode, clamp)
                    == sweep_histogram(p, m, bd, floor_mode, clamp))


def test_sparse_histograms_sweep_within_their_events(monkeypatch):
    """A branch of slope 10**8 along the innermost axis spreads the keys of
    a small level over a span far above ``DENSE`` times the events, and its
    constant makes it negative on all but the top row of the body, where
    the clamp folds the keys to 0: in all four ceiling/clamp modes the
    histogram sweeps the sorted keys (``_sweep``) instead of filling a grid
    of the span, equals the sorted sweep (``sweep_histogram``, which cuts
    the clamp's zero pieces from the leaves) and keeps its peak memory
    under 1 MiB."""
    m = 6
    bd = lattice.BranchData([(1, 10**8)], [-3 * m * 10**8], 3)
    assert lattice._groups(BOX2, bd)[:2] == ([0, 1], [10**8])
    sweeps = []
    real = lattice._sweep

    def sweep(*args):
        sweeps.append(args[-1])
        return real(*args)

    monkeypatch.setattr(lattice, "_sweep", sweep)
    lattice.value_histogram(BOX2, 1, bd)  # the walk plan is kept with p, outside the trace
    for floor_mode, clamp in itertools.product((False, True), repeat=2):
        del sweeps[:]
        tracemalloc.start()
        try:
            hist = lattice.value_histogram(BOX2, m, bd, floor_mode, clamp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sweeps and hist == sweep_histogram(BOX2, m, bd, floor_mode, clamp)
        assert peak < 2**20
        if clamp:  # the points below the top row t = 3m at 0
            assert hist[0] == 3 * m * (3 * m + 1) + (3 if floor_mode else 1)


@seed(20261021)
@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 30)), min_size=0, max_size=6),
       st.one_of(st.integers(1, 12), st.integers(60, 200)), st.integers(-40, 40))
@example([(-7, 13), (0, 0), (31, 5)], 97, 5)  # d*p = 9409, above TABLE: floor_sum
@example([(-3, 9)], 6, -4)  # period 3 of the residues, negative start and step
def test_floor_tables_match_floor_sum(progressions, d, b):
    """Summing floors by residue tables equals ``floor_sum`` and the direct
    sum, for negative starts and steps, periods shorter than d and tables
    above ``TABLE`` entries."""
    v0s = [v for v, _ in progressions]
    ns = [n for _, n in progressions]
    expected = sum(lattice.floor_sum(n, d, v, b) for v, n in progressions)
    assert expected == sum((v + b * j) // d for v, n in progressions for j in range(n))
    assert lattice._floor_total(b, d, v0s, ns) == expected


# -- histograms per node run ---------------------------------------------------


@st.composite
def histogram_bodies(draw):
    """A body of rank 1-5 cut from a box by up to three rows with
    coefficients -4..4, so that the walk's divisors run 1-4, each row
    possibly with a twin of its slope over another divisor; a level 0-40
    at ranks 1-2 (fewer above), a walk order, and 1-3 groups of branches
    along its last coordinate, of distinct slopes -3..3, each of one or
    two branches, with constants that may be negative (so the minimum
    crosses 0 at the start, middle or end of leaves, where the clamp folds
    keys) and a denominator 1-12."""
    n = draw(st.integers(1, 5))
    rows = []
    for i in range(n):
        lo, hi = draw(st.integers(-2, 1)), draw(st.integers(0, 3 if n <= 3 else 2))
        rows += [(_unit(n, i, 1), hi), (_unit(n, i, -1), -min(lo, hi))]
    for _ in range(draw(st.integers(0, 3))):
        a = tuple(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
        assume(any(a))
        b = draw(st.integers(-2, 8))
        rows.append((a, b))
        if draw(st.booleans()):
            k = draw(st.integers(2, 3))
            rows.append((tuple(k * x for x in a), k * b + draw(st.integers(0, k - 1))))
    p = polytope_from_halfspaces(n, rows)
    assume(p.affine_dim >= 0)
    order = draw(st.permutations(range(n)))
    m = draw(st.integers(0, NODE_LEVELS[n]))
    linears = []
    for slope in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True)):
        for _ in range(draw(st.integers(1, 2))):
            linear = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            linear[order[-1]] = slope
            linears.append(tuple(linear))
    consts = draw(st.lists(st.integers(-4 * m - 4, 4), min_size=len(linears),
                           max_size=len(linears)))
    return p, m, order, lattice.BranchData(linears, consts, draw(st.integers(1, 12)))


@seed(20261022)
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(histogram_bodies())
# three groups whose middle one, x + 2, is the minimum only on the children
# x <= 1: the outer ones, t + 2x and 8 - t - 2x, cross at 4
@example((BOX2, 5, [0, 1], lattice.BranchData([(2, 1), (1, 0), (-2, -1)], [0, 2, 8], 1)))
# the clamp's zeros at the start, the middle and the end of the leaves
@example((BOX2, 7, [0, 1], lattice.BranchData([(1, 2), (1, -2)], [-9, 20], 3)))
# floor mode over D = 12 with twin branches of one slope
@example((BOX2, 9, [1, 0], lattice.BranchData([(5, 3), (-1, 3), (2, -7)], [-4, 2, 30], 12)))
# every key, past keys too, below 0 (on the grid of the leaves, hi < 0):
# the clamp folds the whole histogram to key 0
@example((BOX2, 3, [0, 1], lattice.BranchData([(1, -1), (-1, 2), (2, 0)], [-40, -60, -50], 4)))
# values -6..6 over D = 5: under floor and clamp, the values in (0, 5) and
# those below 0 meet at key 0
@example((BOX2, 2, [0, 1], lattice.BranchData([(1, 1), (2, -1)], [-6, 3], 5)))
def test_node_histograms_match_the_leaves_and_brute_force(case):
    """Histograms per node run equal the leaf events (``sweep_histogram``)
    and the bounding-box oracle in all four modes, with the gate sending
    every chunk of nodes to the node runs or none, and the keys on a dense
    grid (``DENSE`` = 10**9) or swept (``DENSE`` = 0); on the grid, the
    node runs' second-order events take either one slice per run or the
    running sums (``RUNS_PER_KEY`` = 0 and 10**9)."""
    p, m, order, bd = case
    points = brute_lattice_points(p, m)
    with mock.patch.object(lattice, "_walk_order", lambda *_: list(order)):
        for floor_mode, clamp in itertools.product((False, True), repeat=2):
            values = Counter(oracle_value(bd, u, floor_mode, clamp) for u in points)
            leaves = sweep_histogram(p, m, bd, floor_mode, clamp)
            scale = 1 if floor_mode else bd.denom
            assert Counter({F(k, scale): c for k, c in leaves.items()}) == values
            for gate, dense, runs in [((0, 0), 10**9, 0), ((0, 0), 10**9, 10**9), ((0, 0), 0, 4),
                                      ((10**9, 10**9), 10**9, 4), ((10**9, 10**9), 0, 4)]:
                with mock.patch.object(lattice, "HISTOGRAM_GATE", gate), \
                        mock.patch.object(lattice, "DENSE", dense), \
                        mock.patch.object(lattice, "RUNS_PER_KEY", runs):
                    assert lattice.value_histogram(p, m, bd, floor_mode, clamp) == leaves
