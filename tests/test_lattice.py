"""The lattice walker and the per-leaf run splitter against brute force."""

import itertools

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from reebvol import lattice
from reebvol.arith import dot
from reebvol.errors import UnsupportedGeometryError


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
    assert list(lattice.PrefixBounds(rows, n).leaves()) == brute_leaves(n, rows, box)


@pytest.mark.parametrize("rows, nvars", [
    ([((1,), 3)], 1),
    ([((1, 0), 2), ((-1, 0), 0), ((0, -1), 0)], 2),
    ([((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1), ((0, -1, 0), 1), ((1, 1, 1), 4)], 3),
])
def test_unbounded_direction_raises(rows, nvars):
    with pytest.raises(UnsupportedGeometryError):
        list(lattice.PrefixBounds(rows, nvars).leaves())


@st.composite
def leaf_lines(draw):
    k = draw(st.integers(1, 4))
    avals = draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k))
    bvals = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
    lo = draw(st.integers(-8, 8))
    return avals, bvals, lo, lo + draw(st.integers(0, 16))


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(leaf_lines(), st.booleans())
@example(([-6], [3], 0, 5), True)  # the clamp's crossing -A/B = 2 is an integer
@example(([-5], [3], 0, 5), True)  # ... and 5/3 is not
@example(([6], [-3], 0, 5), True)
@example(([7], [-3], -2, 5), True)
@example(([0, 4], [2, 0], 0, 5), False)  # branches cross at the integer t = 2
@example(([0, 5], [2, 0], 0, 5), False)  # ... and at t = 5/2
@example(([1, 1, 3], [2, 2, 0], -3, 4), True)  # tied branches
@example(([4, -4, 0], [-2, 2, 0], -4, 4), False)  # three lines through one point
def test_leaf_pieces_match_direct_evaluation(case, clamp):
    """The pieces tile lo..hi in order, and on each one A + B*t is the branch
    minimum, clamped at 0 when asked, at every t."""
    avals, bvals, lo, hi = case
    pieces = lattice._leaf_pieces(avals, bvals, lattice._crossings(bvals), lo, hi, clamp)
    assert [t for s, e, _, _ in pieces for t in range(s, e + 1)] == list(range(lo, hi + 1))
    for s, e, A, B in pieces:
        assert s <= e
        for t in range(s, e + 1):
            v = min(a + b * t for a, b in zip(avals, bvals))
            assert A + B * t == (max(v, 0) if clamp else v)
