import math
import random
import sys
from fractions import Fraction as F

import pytest

from conftest import cut_profile, min_form, simplex_moment
from reebvol import plconcave
from reebvol.arith import dot
from reebvol.errors import (
    DimensionMismatchError,
    InvalidFiltrationError,
    UnsupportedDegreeError,
)
from reebvol.plconcave import (
    MAX_MOMENT_DEGREE,
    AffineForm,
    PLConcave,
    evaluate,
    homogenize,
    integrate_moment,
    legendre,
    linear_form,
    linearity_subdivision,
    max_over,
    superlevel_body,
    superlevel_profile,
)
from reebvol.polyhedra import (
    dual_cone,
    polytope_from_halfspaces,
    polytope_from_vertices,
    reeb_slice,
    volume,
    Cone,
)

SIMPLEX2 = polytope_from_vertices([(0, 0), (1, 0), (0, 1)])
SQUARE = polytope_from_halfspaces(
    2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
)


# -- evaluation and homogenization -------------------------------------------


def test_evaluate_single_branch():
    f = linear_form((1, 0))
    assert evaluate(f, (3, 5)) == 3


def test_evaluate_min():
    f = min_form((1, 0), (0, 1))
    assert evaluate(f, (2, 1)) == 1


def test_evaluate_with_constants():
    f = PLConcave.make([((1, 0), 3), ((0, 1), 0)])
    assert evaluate(f, (0, 1)) == 1


def test_evaluate_rank_mismatch():
    with pytest.raises(DimensionMismatchError):
        evaluate(linear_form((1, 0)), (1, 2, 3))


def test_homogenize_drops_constants():
    f = PLConcave.make([((1, 0), 3), ((0, 1), 0)])
    h = homogenize(f)
    assert h == min_form((1, 0), (0, 1))
    assert homogenize(h) == h  # idempotent


def test_homogenize_matches_scaling_limit():
    f = PLConcave.make([((1, 0), 3), ((0, 1), 0)])
    h = homogenize(f)
    m = 10**6
    u = (1, 1)
    scaled = f.value((m, m)) / m
    assert abs(scaled - h.value(u)) <= F(3, m)


def test_homogenize_flags_decay_along_ray(orthant2):
    d = dual_cone(orthant2)
    bad = linear_form((-1, 0))
    with pytest.raises(InvalidFiltrationError):
        homogenize(bad, d)


# -- linearity subdivision ----------------------------------------------------


def test_subdivision_single_branch():
    cells = linearity_subdivision(linear_form((1, 0)), SQUARE)
    assert len(cells) == 1
    assert volume(cells[0][0]) == volume(SQUARE)


def test_subdivision_diagonal_split():
    cells = linearity_subdivision(min_form((1, 0), (0, 1)), SQUARE)
    assert len(cells) == 2
    assert sorted(volume(c) for c, _ in cells) == [F(1, 2), F(1, 2)]


def test_subdivision_drops_never_active_branch():
    # a constant branch above the pointwise minimum ties nowhere inside
    f = PLConcave.make([((1, 0), 0), ((0, 1), 0), ((0, 0), 1)])
    cells = linearity_subdivision(f, SIMPLEX2)
    active = {b.linear for _, b in cells}
    assert (F(0), F(0)) not in active
    assert len(cells) == 2
    assert sum(volume(c) for c, _ in cells) == volume(SIMPLEX2)


def test_subdivision_zero_branch_dominates_on_orthant_body():
    # on the simplex both coordinates are nonnegative, so the zero branch is
    # the pointwise minimum almost everywhere and the coordinate cells are
    # squeezed onto the boundary (sampling classification confirms)
    rng = random.Random(23)
    f = min_form((1, 0), (0, 1), (0, 0))
    cells = linearity_subdivision(f, SIMPLEX2)
    assert [b.linear for _, b in cells] == [(F(0), F(0))]
    assert volume(cells[0][0]) == volume(SIMPLEX2)
    for _ in range(50):
        a = F(rng.randint(1, 31), 64)
        b = F(rng.randint(1, 63 - 2 * a.numerator), 64)
        u = (a, b)
        assert f.value(u) == 0


def test_subdivision_classifies_points():
    rng = random.Random(5)
    f = min_form((1, 0), (0, 1), (F(1, 2), F(1, 2)))
    cells = linearity_subdivision(f, SQUARE)
    assert sum(volume(c) for c, _ in cells) == 1
    for _ in range(100):
        u = (F(rng.randint(0, 64), 64), F(rng.randint(0, 64), 64))
        value = f.value(u)
        hit = [b for c, b in cells if c.contains(u)]
        assert hit, "subdivision must cover the square"
        assert all(b.value(u) == value for b in hit)


# -- moment integration -------------------------------------------------------


def test_moment_linear_on_simplex():
    assert integrate_moment(linear_form((1, 0)), SIMPLEX2, 1) == F(1, 6)


def test_moment_min_on_simplex():
    assert integrate_moment(min_form((1, 0), (0, 1)), SIMPLEX2, 1) == F(1, 12)


def test_moment_degree_zero_is_volume():
    assert integrate_moment(min_form((1, 0), (0, 1)), SQUARE, 0) == 1


def test_moment_degree_cap():
    with pytest.raises(UnsupportedDegreeError):
        integrate_moment(linear_form((1, 0)), SIMPLEX2, 5)


def test_moment_scales_linearly():
    f = min_form((1, 0), (0, 1))
    g = f.scaled(F(7, 3))
    assert integrate_moment(g, SIMPLEX2, 1) == F(7, 3) * integrate_moment(f, SIMPLEX2, 1)


def test_moment_additive_over_split():
    f = min_form((1, 1), (2, 0))
    left = polytope_from_halfspaces(
        2, [((1, 0), F(1, 2)), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    )
    right = polytope_from_halfspaces(
        2, [((1, 0), 1), ((-1, 0), F(-1, 2)), ((0, 1), 1), ((0, -1), 0)]
    )
    for k in (1, 2, 3):
        assert integrate_moment(f, SQUARE, k) == integrate_moment(
            f, left, k
        ) + integrate_moment(f, right, k)


def _bisect_moment(points, form, k, depth):
    """Independent consistency oracle: recursively halve an edge and apply
    the closed form to the pieces."""
    if depth == 0:
        return simplex_moment(points, form, k)
    mid = tuple((a + b) / 2 for a, b in zip(points[0], points[1]))
    s1 = (mid,) + tuple(points[1:])
    s2 = (points[0], mid) + tuple(points[2:])
    return _bisect_moment(s1, form, k, depth - 1) + _bisect_moment(s2, form, k, depth - 1)


def test_moment_closed_form_stable_under_subdivision():
    simplex3 = [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    for k in (1, 2, 3, 4):
        form = AffineForm.make((1, 2, 3), F(1, 2))
        direct = simplex_moment(simplex3, form, k)
        assert direct == _bisect_moment(tuple(simplex3), form, k, 3)


def test_moment_matches_monte_carlo():
    # seeded sampling sanity bound, deliberately loose
    rng = random.Random(99)
    f = min_form((1, 0), (0, 1))
    exact = integrate_moment(f, SQUARE, 1)
    n = 20000
    samples = [min(rng.random(), rng.random()) for _ in range(n)]
    mean = sum(samples) / n
    var = sum((s - mean) ** 2 for s in samples) / (n - 1)
    se = math.sqrt(var / n)
    assert abs(float(exact) - mean) < 4 * se + 1e-9


# -- superlevel profiles ------------------------------------------------------


def test_profile_shrinking_triangle():
    prof = superlevel_profile(linear_form((1, 0)), SIMPLEX2)
    assert prof.breakpoints == (F(0), F(1))
    # (1 - t)^2/2 on [0, 1]
    assert prof.polys[0] == (F(1, 2), F(-1), F(1, 2))
    assert prof.value(F(1, 3)) == F(2, 9)
    assert prof.value(2) == 0


def test_profile_zero_function_steps():
    prof = superlevel_profile(PLConcave.make([((0, 0), 0)]), SIMPLEX2)
    assert prof.value(0) == volume(SIMPLEX2)
    assert prof.value(F(1, 10)) == 0


def test_profile_starts_at_volume():
    for f in (linear_form((1, 0)), min_form((1, 0), (0, 1)), min_form((1, 1), (2, 0))):
        prof = superlevel_profile(f, SQUARE)
        assert prof.value(0) == volume(SQUARE)


def test_profile_integral_equals_first_moment():
    cases = [
        (linear_form((1, 0)), SIMPLEX2),
        (min_form((1, 0), (0, 1)), SIMPLEX2),
        (min_form((1, 0), (0, 1)), SQUARE),
        (min_form((1, 2), (3, 1)), SQUARE),
        (PLConcave.make([((1, 0), F(1, 2)), ((0, 2), 0)]), SQUARE),
        (PLConcave.make([((2, 1), F(1, 3)), ((1, 3), F(1, 5)), ((4, 0), 1)]), SIMPLEX2),
    ]
    for f, p in cases:
        prof = superlevel_profile(f, p)
        assert prof.integral() == integrate_moment(f, p, 1)


def test_profile_monotone_and_mass():
    f = min_form((1, 0), (0, 1))
    prof = superlevel_profile(f, SQUARE)
    ts = [F(i, 7) for i in range(9)]
    values = [prof.value(t) for t in ts]
    assert all(a >= b for a, b in zip(values, values[1:]))
    top = prof.breakpoints[-1]
    assert prof.cdf(top) == prof.total == volume(SQUARE)


def test_profile_breakpoint_values_are_left_limits():
    """values_at, read off the preceding piece (vol(delta) at 0), equals the
    directly cut superlevel body's volume at every breakpoint: on seeded
    random bodies in the orthant and nonnegative filtrations of ranks 1-3,
    some with a plateau at the maximum (a constant branch)."""
    rng = random.Random(20261019)
    cases = [(PLConcave.make([((1, 0), 0), ((0, 0), F(1, 2))]), SQUARE)]
    for _ in range(24):
        n = rng.randint(1, 3)
        pts = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(n + 3)}
        delta = polytope_from_vertices(pts)
        if delta.affine_dim < n:
            continue
        branches = [(tuple(rng.randint(0, 3) for _ in range(n)), F(rng.randint(0, 4), 2))
                    for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            branches.append(((0,) * n, F(rng.randint(1, 6), 2)))  # a plateau at the top
        cases.append((PLConcave.make(branches), delta))
    plateaus = 0
    for f, delta in cases:
        prof = superlevel_profile(f, delta)
        direct = tuple(volume(superlevel_body(f, delta, t)) for t in prof.breakpoints)
        assert prof.values_at == direct
        plateaus += len(prof.breakpoints) > 1 and direct[-1] > 0
    assert plateaus >= 3


def _profile_cases():
    """Seeded random bodies in the orthant (integer and rational vertices)
    and nonnegative filtrations of ranks 1-4, with rational constants and
    slopes, some with a constant plateau branch, some the zero function;
    small integer data make equal vertex values along edges common."""
    rng = random.Random(20261020)
    cases = [
        (PLConcave.make([((1, 0), 0), ((0, 0), F(1, 2))]), SQUARE),
        (linear_form((1, 0)), SQUARE),  # equal values along the vertical edges
        (PLConcave.make([((0, 0), 0)]), SIMPLEX2),
    ]
    for rank, count in ((1, 6), (2, 16), (3, 16), (4, 8)):
        while count:
            den = rng.choice((1, 1, 2, 3))
            pts = {tuple(F(rng.randint(0, 3 * den), den) for _ in range(rank))
                   for _ in range(rank + rng.randint(1, 3))}
            delta = polytope_from_vertices(pts)
            if delta.affine_dim < rank:
                continue
            count -= 1
            kind = rng.random()
            if kind < 0.1:
                cases.append((PLConcave.make([((0,) * rank, 0)]), delta))
                continue
            branches = [(tuple(F(rng.randint(0, 4), rng.choice((1, 2))) for _ in range(rank)),
                         F(rng.randint(0, 3), rng.choice((1, 2, 3))))
                        for _ in range(rng.randint(1, 3))]
            if kind > 0.6:
                branches.append(((0,) * rank, F(rng.randint(2, 12), 2)))  # a plateau
            cases.append((PLConcave.make(branches), delta))
    return cases


def _ties(f, delta):
    """(simplices with some but not all vertex values equal, simplices on
    which f is constant) over the linearity cells' triangulations."""
    partial = full = 0
    for cell, branch in linearity_subdivision(f, delta):
        values = [branch.value(v) for v in cell.vertices]
        for s in cell.measure.simplices:
            distinct = len({values[i] for i in s})
            partial += 1 < distinct < len(s)
            full += distinct == 1
    return partial, full


def test_profile_matches_cut_oracle():
    """The per-simplex residue profile equals, Fraction for Fraction, the
    profile interpolated through the volumes of cut superlevel bodies."""
    partial = full = 0
    ranks = set()
    for f, delta in _profile_cases():
        prof, oracle = superlevel_profile(f, delta), cut_profile(f, delta)
        assert prof.breakpoints == oracle.breakpoints
        assert prof.polys == oracle.polys
        assert prof.values_at == oracle.values_at
        ties = _ties(f, delta)
        partial += ties[0] > 0
        full += ties[1] > 0
        ranks.add(delta.rank)
    assert ranks == {1, 2, 3, 4}
    assert partial >= 5 and full >= 5


def test_profile_moments_match_closed_form():
    """The layer-cake integral of k t^(k-1) against the profile is the
    integral of f^k, which integrate_moment takes from the h_k closed form
    on each simplex; k = 1..4 weigh every coefficient of every piece."""
    for f, delta in _profile_cases():
        prof = superlevel_profile(f, delta)
        for k in range(1, MAX_MOMENT_DEGREE + 1):
            layered = sum(
                c * k * (b ** (d + k) - a ** (d + k)) / (d + k)
                for a, b, poly in zip(prof.breakpoints, prof.breakpoints[1:], prof.polys)
                for d, c in enumerate(poly)
            )
            assert layered == integrate_moment(f, delta, k), (f, k)


def test_profile_cuts_only_linearity_cells(monkeypatch):
    """superlevel_profile cuts no superlevel body: the only cuts are the
    linearity cells, at most one per branch, and none when one branch is
    least at every vertex of the body."""
    callers = []

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return cut(*args)

    cut = plconcave.cut
    monkeypatch.setattr(plconcave, "cut", counted)
    superlevel_profile(linear_form((1, 2)), SQUARE)
    superlevel_profile(PLConcave.make([((1, 0), 0), ((0, 0), 0)]), SIMPLEX2)
    assert callers == []
    cases = [(min_form((1, 0), (0, 1)), SQUARE)] + _profile_cases()
    split = 0
    for f, delta in cases:
        callers.clear()
        superlevel_profile(f, delta)
        assert set(callers) <= {"linearity_subdivision"}
        assert len(callers) <= len(f.branches)
        values = [[b.value(v) for v in delta.vertices] for b in f.branches]
        if [min(column) for column in zip(*values)] in values:
            assert callers == []
        split += len(callers) > 0
    assert split >= 5


def _scan_value(prof, t):
    """vol{f >= t} by a linear scan over the intervals."""
    bps = prof.breakpoints
    if not bps or t > bps[-1]:
        return F(0)
    if t < bps[0]:
        return prof.total
    for i, b in enumerate(bps):
        if b == t:
            return prof.values_at[i]
    for i in range(len(bps) - 1):
        if bps[i] < t < bps[i + 1]:
            return sum(c * t ** d for d, c in enumerate(prof.polys[i]))


def _scan_right_limit(prof, t):
    """vol{f > t} by a linear scan over the intervals."""
    bps = prof.breakpoints
    if not bps or t >= bps[-1]:
        return F(0)
    if t < bps[0]:
        return prof.total
    for i in range(len(bps) - 1):
        if bps[i] <= t < bps[i + 1]:
            return sum(c * t ** d for d, c in enumerate(prof.polys[i]))


def test_profile_lookups_match_linear_scan():
    """value and right_limit, which bisect the breakpoints, agree with a
    linear scan at every breakpoint, every midpoint and outside the range."""
    for f, delta in _profile_cases()[:20]:
        prof = superlevel_profile(f, delta)
        bps = prof.breakpoints
        ts = list(bps) + [(a + b) / 2 for a, b in zip(bps, bps[1:])]
        ts += [bps[0] - 1, bps[0] - F(1, 7), bps[-1] + F(1, 7), bps[-1] + 3]
        for t in ts:
            assert prof.value(t) == _scan_value(prof, t), (t, prof)
            assert prof.right_limit(t) == _scan_right_limit(prof, t), (t, prof)


def test_profile_csv_rows():
    prof = superlevel_profile(linear_form((1, 0)), SIMPLEX2)
    rows = prof.csv_rows()
    # (breakpoint, ascending polynomial coefficients), zero row closes it
    assert rows[0] == ["0", "1/2", "-1", "1/2"]
    assert rows[-1] == ["1", "0", "0", "0"]


def test_profile_rejects_negative_function():
    with pytest.raises(InvalidFiltrationError):
        superlevel_profile(PLConcave.make([((1, 0), -1)]), SIMPLEX2)


# -- maxima and Legendre ------------------------------------------------------


def test_max_over_interior_point(orthant2):
    q, _ = reeb_slice(dual_cone(orthant2), (1, 1))
    assert max_over(min_form((1, 0), (0, 1)), q) == F(1, 2)


def test_max_over_matches_grid_search(orthant2):
    q, _ = reeb_slice(dual_cone(orthant2), (1, 1))
    f = min_form((1, 0), (0, 1))
    grid_best = max(
        f.value((F(i, 24), F(j, 24)))
        for i in range(25)
        for j in range(25 - i)
    )
    assert max_over(f, q) == grid_best == F(1, 2)


def test_legendre_examples(orthant2):
    d = dual_cone(orthant2)
    _, p = reeb_slice(d, (1, 1))
    assert legendre(linear_form((1, 0)), p, (0, 0)) == 1
    zero = PLConcave.make([((0, 0), 0)])
    # support-function negative: max over vertices of -<u, v>
    assert legendre(zero, p, (2, 5)) == -2
    assert legendre(zero, p, (-1, 3)) == 1


def test_legendre_matches_grid_search_on_slanted_slice():
    # slice with a negative-coordinate vertex; dense rational grid oracle
    a1 = Cone.from_rays([[1, 0], [1, 2]])
    _, p = reeb_slice(dual_cone(a1), (1, 1))
    f = min_form((1, 0), (1, 2))
    for v in [(F(0), F(0)), (F(1), F(-1)), (F(-2), F(1, 2))]:
        grid_best = max(
            f.value((2 * t, 1 - 2 * t)) - (2 * t * v[0] + (1 - 2 * t) * v[1])
            for t in (F(i, 48) for i in range(49))
        )
        assert legendre(f, p, v) == grid_best


def test_legendre_convex_in_direction(orthant2):
    rng = random.Random(17)
    d = dual_cone(orthant2)
    _, p = reeb_slice(d, (1, 1))
    f = min_form((2, 1), (1, 3))
    for _ in range(25):
        v1 = (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
        v2 = (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
        mid = tuple((a + b) / 2 for a, b in zip(v1, v2))
        assert legendre(f, p, mid) * 2 <= legendre(f, p, v1) + legendre(f, p, v2)


def test_plconcave_json_roundtrip():
    f = PLConcave.make([((1, 0), F(1, 2)), ((0, 1), 0)])
    again = PLConcave.from_json(f.to_json())
    assert again == f


def test_integer_branches_are_derived_once():
    """The integer form scales every branch by the least common denominator
    of all their entries, in branch order, and is kept on the function."""
    f = PLConcave.make([((F(1, 2), 0), F(1, 3)), ((2, F(3, 4)), 0)])
    assert f.integer_branches == (12, (((6, 0), 4), ((24, 9), 0)))
    assert f.integer_branches is f.integer_branches
