import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, example, given, seed, settings
from hypothesis import strategies as st

from conftest import brute_lattice_points, min_form
from reebvol import lattice
from reebvol.arith import dot, rank_of
from reebvol.errors import (
    EmptyDegreeError,
    InvalidFiltrationError,
    MathError,
    QuasiRegularRequiredError,
)
from reebvol.grading import (
    GradedSetup,
    big_t_estimate,
    degree_count,
    degree_slice,
    graded_s_tilde,
    jumping_spectrum,
    lattice_count,
    mu_m_cdf,
    s_m,
    spectrum_histogram,
    t_limit,
    t_m,
)
from reebvol.plconcave import PLConcave, linear_form
from reebvol.polyhedra import Cone, dual_cone


def graded(cone, xi, psi, **kw):
    return GradedSetup(dual_cone(cone), xi, psi, **kw)


ZERO2 = PLConcave.make([((0, 0), 0)])


# -- spectra ------------------------------------------------------------------


def test_spectrum_hand_example(orthant2):
    g = graded(orthant2, (1, 1), linear_form((1, 0)))
    spec = jumping_spectrum(g, 2)
    assert spec.values == (0, 0, 0, 1, 1, 2)
    assert spec.n_m == 6 == lattice_count(g, 2)


def test_spectrum_zero_filtration(orthant2):
    g = graded(orthant2, (1, 1), ZERO2)
    spec = jumping_spectrum(g, 3)
    assert set(spec.values) == {0}
    assert spec.n_m == lattice_count(g, 3)


def test_spectrum_level_zero(orthant2):
    g = graded(orthant2, (1, 1), PLConcave.make([((1, 0), F(1, 2)), ((0, 1), 2)]))
    spec = jumping_spectrum(g, 0)
    assert spec.values == (F(1, 2),)


def test_spectrum_matches_brute_enumeration(a1_cone):
    psi = min_form((1, 0), (1, 2))
    g = graded(a1_cone, (1, 1), psi)
    for m in (1, 2, 5):
        brute = sorted(psi.value(u) for u in brute_lattice_points(g.q, m))
        assert list(jumping_spectrum(g, m).values) == brute


def test_spectrum_length_equals_count(orthant3):
    g = graded(orthant3, (1, 2, 3), min_form((1, 0, 0), (0, 1, 1)))
    for m in (1, 3, 7):
        assert jumping_spectrum(g, m).n_m == lattice_count(g, m)


def test_histogram_agrees_with_spectrum(orthant2, a1_cone):
    cases = [
        graded(orthant2, (1, 2), min_form((1, 0), (0, 1))),
        graded(a1_cone, (1, 1), min_form((1, 0), (1, 2))),
        graded(orthant2, (1, 1), PLConcave.make([((1, 0), F(3, 2)), ((0, 1), 0)])),
    ]
    for g in cases:
        for m in (1, 4, 9):
            spec = jumping_spectrum(g, m)
            hist = spectrum_histogram(g, m)
            rebuilt = []
            for value, mult in hist:
                rebuilt.extend([value] * mult)
            assert rebuilt == list(spec.values)


# -- averages -----------------------------------------------------------------


def test_s_m_constant_for_linear(orthant2):
    g = graded(orthant2, (1, 1), linear_form((1, 0)))
    for m in range(1, 21):
        assert s_m(g, m) == F(1, 3)


def test_s_m_matches_materialized(orthant2, orthant3, a1_cone):
    cases = [
        graded(orthant2, (1, 2), min_form((1, 0), (0, 1))),
        graded(orthant3, (1, 1, 1), min_form((1, 0, 0), (0, 1, 0))),
        graded(a1_cone, (1, 1), min_form((1, 0), (1, 2))),
        graded(orthant2, (1, 1), PLConcave.make([((2, 0), F(1, 3)), ((0, 3), 1)])),
    ]
    for g in cases:
        for m in (1, 2, 5, 8):
            spec = jumping_spectrum(g, m)
            assert s_m(g, m) == sum(spec.values) / (m * spec.n_m)


def test_s_m_walks_the_level_once(orthant3, monkeypatch):
    built = []
    real = lattice.PrefixBounds

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(lattice, "PrefixBounds", counting)
    g = graded(orthant3, (1, 2, 3), min_form((1, 0, 0), (0, 1, 1)))
    s_m(g, 6)  # N_m and the sum from one walk
    assert len(built) == 1


def test_s_m_zero_filtration(orthant2):
    g = graded(orthant2, (1, 1), ZERO2)
    assert s_m(g, 7) == 0


def test_constant_shift_moves_spectrum(orthant2):
    base = min_form((1, 0), (0, 1))
    shifted = base.shifted(F(5, 2))
    g0 = graded(orthant2, (1, 1), base)
    g1 = graded(orthant2, (1, 1), shifted)
    for m in (1, 3, 6):
        v0 = jumping_spectrum(g0, m).values
        v1 = jumping_spectrum(g1, m).values
        assert [a + F(5, 2) for a in v0] == list(v1)
        assert s_m(g1, m) == s_m(g0, m) + F(5, 2) / m


# -- tops ---------------------------------------------------------------------


def test_t_m_linear(orthant2):
    g = graded(orthant2, (1, 1), linear_form((1, 0)))
    for m in (1, 2, 10):
        assert t_m(g, m) == 1
    assert t_limit(g) == 1


def test_t_limit_zero(orthant2):
    g = graded(orthant2, (1, 1), ZERO2)
    assert t_limit(g) == 0


def test_t_limit_interior_max(orthant2):
    # max over the sub-level body of min(u1, u2) sits at (1/2, 1/2);
    # dense rational grid search confirms the exact value
    g = graded(orthant2, (1, 1), min_form((1, 0), (0, 1)))
    grid_best = max(
        min(F(i, 40), F(j, 40)) for i in range(41) for j in range(41 - i)
    )
    assert t_limit(g) == F(1, 2) == grid_best


def test_big_t_estimate_below_limit(orthant2):
    g = graded(orthant2, (1, 1), min_form((1, 0), (0, 1)))
    est = big_t_estimate(g, 12)
    assert est <= t_limit(g)
    assert est == t_m(g, 12)  # the last level attains the sup on this instance


def test_m_t_m_superadditive_homogeneous(orthant2, a1_cone):
    for g in (
        graded(orthant2, (1, 2), min_form((1, 0), (0, 1))),
        graded(a1_cone, (1, 1), min_form((1, 0), (1, 2))),
    ):
        tops = {m: m * t_m(g, m) for m in range(1, 13)}
        for m in range(1, 7):
            for mp in range(1, 13 - m):
                assert tops[m] + tops[mp] <= tops[m + mp]


# -- empirical measures -------------------------------------------------------


def test_mu_mass(orthant2):
    g = graded(orthant2, (1, 1), linear_form((1, 0)))
    cdf = mu_m_cdf(g, 100)
    assert cdf[-1][1] == F(5151, 10000)  # 101*102/2 points over 100^2


def test_mu_zero_filtration_all_mass_at_zero(orthant2):
    g = graded(orthant2, (1, 1), ZERO2)
    cdf = mu_m_cdf(g, 10)
    assert len(cdf) == 1 and cdf[0][0] == 0


def test_mu_cdf_monotone(orthant2):
    g = graded(orthant2, (1, 2), min_form((1, 0), (0, 1)))
    cdf = mu_m_cdf(g, 15)
    masses = [c for _, c in cdf]
    assert all(a < b for a, b in zip(masses, masses[1:]))
    values = [v for v, _ in cdf]
    assert values == sorted(values)


# -- per-degree statistics ----------------------------------------------------


def test_s_tilde_constant_for_linear(orthant2):
    g = graded(orthant2, (1, 1), linear_form((1, 0)))
    for t in range(1, 21):
        assert graded_s_tilde(g, t) == F(1, 2)
        assert degree_count(g, t) == t + 1


def test_s_tilde_zero(orthant2):
    g = graded(orthant2, (1, 1), ZERO2)
    assert graded_s_tilde(g, 5) == 0


def test_s_tilde_level_points_match_filter(orthant3):
    g = graded(orthant3, (1, 2, 3), min_form((1, 0, 0), (0, 1, 0)))
    for t in (1, 4, 6):
        direct = sorted(lattice.points_on_level(g.dual, g.xi, t))
        brute = [
            u
            for u in brute_lattice_points(g.q, t)
            if u[0] + 2 * u[1] + 3 * u[2] == t
        ]
        assert direct == sorted(brute)


def test_s_tilde_level_with_zero_xi_entries(square_base_cone):
    # substituted coordinate has weight 1; the level-t slice is a square
    g = graded(square_base_cone, (0, 0, 1), min_form((1, 0, 1), (0, 1, 1)))
    pts = list(lattice.points_on_level(g.dual, g.xi, 3))
    assert len(pts) == 49 == degree_count(g, 3)
    assert all(u[2] == 3 and abs(u[0]) <= 3 and abs(u[1]) <= 3 for u in pts)


def test_histogram_jobs_agree(orthant3):
    g = graded(orthant3, (1, 1, 1), min_form((1, 0, 0), (0, 1, 0)))
    h1 = lattice.value_histogram(g.q, 20, g._branches, jobs=1)
    h4 = lattice.value_histogram(g.q, 20, g._branches, jobs=4)
    assert h1 == h4


def test_s_tilde_requires_integral_xi(orthant2):
    g = graded(orthant2, (1, F(3, 2)), linear_form((1, 0)))
    with pytest.raises(QuasiRegularRequiredError):
        graded_s_tilde(g, 3)


@pytest.mark.parametrize("t", [0, -2])
def test_s_tilde_rejects_degrees_below_one(orthant2, t):
    g = graded(orthant2, (1, 1), linear_form((1, 0)))
    with pytest.raises(ValueError, match="degree must be at least 1"):
        graded_s_tilde(g, t)
    assert degree_count(g, t) == (1 if t == 0 else 0)  # degree 0 holds the origin


@st.composite
def degree_slices(draw):
    """A rank 1-4 cone, an integral Reeb xi with gcd 1-4, a filtration, a
    ceiling/clamp mode and a degree t in -1..10."""
    n = draw(st.sampled_from([1, 2, 3, 4]))
    count = n if n == 1 else draw(st.integers(n, n + 1))
    coordinate = st.sampled_from(range(-2, 3))
    rays = draw(st.lists(st.tuples(*[coordinate] * n), min_size=count, max_size=count))
    assume(rank_of(rays) == n and all(any(r) for r in rays))
    try:
        sigma = Cone.from_rays(rays)
    except MathError:
        assume(False)
    k = len(sigma.rays)
    weights = draw(st.lists(st.sampled_from([1, 1, 2]), min_size=k, max_size=k))
    xi = [sum(w * r[i] for w, r in zip(weights, sigma.rays)) for i in range(n)]
    g = draw(st.sampled_from([1, 2, 3, 4]))
    xi = tuple(g * x // math.gcd(*xi) for x in xi)
    ceiling, clamp = draw(st.booleans()), draw(st.booleans())
    branches = []
    for _ in range(draw(st.integers(1, 3))):
        w = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
        linear = tuple(sum(c * r[i] for c, r in zip(w, sigma.rays)) for i in range(n))
        constant = F(draw(st.integers(0, 2)), draw(st.integers(1, 3)))
        if clamp:  # lowered, so the clamp can bite
            constant -= draw(st.integers(0, 4))
        branches.append((linear, constant))
    return sigma.rays, xi, branches, ceiling, clamp, draw(st.sampled_from(range(-1, 11)))


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(degree_slices())
@example((((1, -2), (1, 1)), (6, -3), [((2, -1), F(1, 2)), ((1, 1), F(0))], False, False, 9))
@example((((1, -2), (1, 1)), (6, -3), [((2, -1), F(-1)), ((3, -3), F(1))], True, True, 6))
@example((((1, 0, 0), (0, 1, 0), (1, 1, -2)), (4, 4, -4), [((1, 0, 0), F(0))], True, False, 8))
@example((((-1,),), (-3,), [((-1,), F(1, 2))], True, True, 9))
@example((((1, 0, 0), (-2, 1, 0), (0, 0, 1)), (-3, 3, 3), [((1, 0, 0), F(0)), ((-1, 1, 1), F(1, 3))],
          False, False, 9))
@example((((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)), (2, 2, 4),
          [((0, 0, 1), F(-1)), ((1, 0, 1), F(0)), ((1, 1, 1), F(-2))], True, True, 10))
@example((((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-2, -1, 0, 1)), (-2, 0, 2, 2),
          [((1, 0, 0, 0), F(1, 2)), ((-2, -1, 1, 1), F(0))], True, False, 10))
def test_degree_slices_match_brute_filter(case):
    """Counts, point lists and per-degree averages against the bounding-box
    oracle filtered to <u, xi> = t, for every ceiling/clamp mode."""
    rays, xi, branches, ceiling, clamp, t = case
    psi = PLConcave.make(branches)
    g = GradedSetup(dual_cone(Cone.from_rays(rays)), xi, psi, ceiling=ceiling, clamp=clamp)
    oracle = [u for u in brute_lattice_points(g.q, t) if dot(u, xi) == t]
    assert list(lattice.points_on_level(g.dual, g.xi, t)) == sorted(oracle)
    assert degree_count(g, t) == len(oracle)
    if t < 1:
        with pytest.raises(ValueError):
            graded_s_tilde(g, t)
    elif not oracle:
        with pytest.raises(EmptyDegreeError):
            graded_s_tilde(g, t)
    else:
        total = sum(_oracle_value(psi, u, ceiling, clamp) for u in oracle)
        assert graded_s_tilde(g, t) == total / (t * len(oracle))


def test_s_tilde_empty_degree(orthant2):
    g = graded(orthant2, (2, 2), linear_form((1, 0)))
    with pytest.raises(EmptyDegreeError):
        graded_s_tilde(g, 1)
    assert degree_count(g, 1) == 0
    assert graded_s_tilde(g, 2) == F(1, 4)  # weights (1,0),(0,1): values 1 and 0


CUBE5 = [list(s) + [1] for s in itertools.product((-1, 1), repeat=4)]
CROSS5 = [[s * int(i == j) for j in range(4)] + [1] for i in range(4) for s in (-1, 1)]


@pytest.mark.parametrize("rays, xi, t, expected", [
    (CUBE5, (1, 0, 0, 0, 2), 16, (2497, F(4613, 9988))),
    (CROSS5, (1, 1, 0, 0, 3), 16, (29049, F(69103, 232392))),
    (CUBE5, (2, 0, 0, 0, 4), 15, (0, None)),
    (CUBE5, (2, 0, 0, 0, 4), 16, (232, F(201, 928))),
])
def test_rank_five_slices_in_nontrivial_frames(rays, xi, t, expected):
    """Rank-5 cube and cross-polytope cones, whose frames for these xi are
    not permutations, past the reach of the bounding-box oracle: the values
    are pinned.  With gcd(xi) = 2 the odd degrees are empty."""
    sigma = Cone.from_rays(rays)
    r = sigma.rays
    psi = min_form((0, 0, 0, 0, 1), tuple(map(sum, zip(r[0], r[1]))),
                   tuple(map(sum, zip(r[-2], r[-1]))))
    g = graded(sigma, xi, psi)
    assert g._frame.g == math.gcd(*xi)
    assert degree_slice(g, t) == expected
    assert degree_count(g, t) == expected[0]


# -- integer-level and clamp modes --------------------------------------------


def test_ceiling_mode_floors_values(orthant2):
    psi = PLConcave.make([((1, 0), 0)]).scaled(F(1, 2))  # u1/2
    raw = graded(orthant2, (1, 1), psi)
    rounded = graded(orthant2, (1, 1), psi, ceiling=True)
    for m in (1, 3, 5):
        expected = sorted(math.floor(v) for v in jumping_spectrum(raw, m).values)
        assert list(jumping_spectrum(rounded, m).values) == expected
        spec = jumping_spectrum(rounded, m)
        assert s_m(rounded, m) == sum(spec.values) / (m * spec.n_m)
        assert t_m(rounded, m) == max(spec.values) / m


def test_ceiling_histogram(orthant2):
    psi = min_form((1, 0), (0, 1)).scaled(F(2, 3))
    g = graded(orthant2, (1, 1), psi, ceiling=True)
    for m in (2, 6):
        hist = dict(spectrum_histogram(g, m))
        spec = jumping_spectrum(g, m)
        for v in set(spec.values):
            assert hist[v] == sum(1 for x in spec.values if x == v)


def test_negative_constant_rejected_at_origin_vertex(orthant2):
    # the origin is always a vertex of the sub-level body, so any negative
    # branch constant is caught there
    psi = PLConcave.make([((1, 0), -1), ((0, 1), 5)])
    with pytest.raises(InvalidFiltrationError):
        graded(orthant2, (1, 1), psi)


def test_clamp_mode(orthant2):
    psi = PLConcave.make([((1, -1), 0)])  # negative on part of the body
    with pytest.raises(InvalidFiltrationError):
        graded(orthant2, (1, 1), psi)
    g = graded(orthant2, (1, 1), psi, clamp=True)
    for m in (1, 4):
        brute = sorted(
            max(psi.value(u), F(0)) for u in brute_lattice_points(g.q, m)
        )
        assert list(jumping_spectrum(g, m).values) == brute
        spec = jumping_spectrum(g, m)
        assert s_m(g, m) == sum(spec.values) / (m * spec.n_m)


def test_csv_row_exports(orthant2):
    from reebvol.grading import cdf_csv_rows, spectrum_csv_rows

    g = graded(orthant2, (1, 1), linear_form((1, 0)))
    rows = spectrum_csv_rows(g, 2, decimal_digits=3)
    assert rows == [["0", "3", "0.000"], ["1", "2", "1.000"], ["2", "1", "2.000"]]
    cdf_rows = cdf_csv_rows(mu_m_cdf(g, 2))
    assert cdf_rows[0] == ["0", "3/4"]
    assert cdf_rows[-1] == ["1", "3/2"]


def _oracle_value(psi, u, floor_mode, clamp):
    v = psi.value(u)
    if clamp:
        v = max(v, F(0))
    return F(math.floor(v)) if floor_mode else v


def test_random_cones_and_modes_fast_paths_agree():
    """Every lattice engine against the bounding-box oracle, at ranks 1-4,
    plain and with ceiling and clamp; then the graded statistics against
    the enumeration."""
    from reebvol.arith import det
    from reebvol.polyhedra import Cone

    rng = random.Random(101)
    cases = 0
    while cases < 25:
        n = rng.choice((1, 2, 3, 4))
        rows = [[rng.randint(-2, 3) for _ in range(n)] for _ in range(n)]
        if det(rows) == 0:
            continue
        try:
            sigma = Cone.from_rays(rows)
        except Exception:
            continue
        if len(sigma.rays) != n:
            continue
        branches = []
        for _ in range(rng.randint(1, 3)):
            w = [rng.randint(0, 2) for _ in sigma.rays]
            if not any(w):
                w[0] = 1
            lin = tuple(
                sum(c * F(r[i]) for c, r in zip(w, sigma.rays)) for i in range(n)
            )
            branches.append((lin, F(rng.randint(0, 2), rng.randint(1, 3))))
        psi = PLConcave.make(branches)
        wx = [F(rng.randint(1, 3), rng.randint(1, 2)) for _ in sigma.rays]
        xi = tuple(sum(c * F(r[i]) for c, r in zip(wx, sigma.rays)) for i in range(n))
        g = GradedSetup(
            dual_cone(sigma), xi, psi,
            ceiling=rng.random() < 0.4, clamp=rng.random() < 0.3,
        )
        m = rng.randint(1, 5 if n < 4 else 3)
        brute = brute_lattice_points(g.q, m)
        assert list(lattice.iter_points(g.q, m)) == brute
        assert lattice.count_points(g.q, m) == len(brute)
        # lowering every branch makes some values negative, so the clamp bites
        shift = F(rng.randint(0, 3 * m), rng.randint(1, 2))
        shifted = PLConcave.make([(b.linear, b.constant - shift) for b in psi.branches])
        bd = lattice.BranchData.from_plconcave(shifted)
        d = bd.denom
        for floor_mode, clamp in itertools.product((False, True), repeat=2):
            expect = [_oracle_value(shifted, u, floor_mode, clamp) for u in brute]
            assert lattice.sum_values(g.q, m, bd, floor_mode, clamp) == sum(expect)
            assert lattice.max_value(g.q, m, bd, floor_mode, clamp) == max(expect)
            hist = lattice.value_histogram(g.q, m, bd, floor_mode, clamp)
            scale = 1 if floor_mode else d
            assert Counter({F(k, scale): c for k, c in hist.items()}) == Counter(expect)
        vals = sorted(g.value(u) for u in lattice.iter_points(g.q, m))
        assert list(jumping_spectrum(g, m).values) == vals
        assert s_m(g, m) == sum(vals) / (m * len(vals))
        assert t_m(g, m) == max(vals) / m
        rebuilt = [v for v, c in spectrum_histogram(g, m) for _ in range(c)]
        assert rebuilt == vals
        cases += 1


def test_random_filtrations_fast_paths_agree(orthant2, a1_cone):
    rng = random.Random(31)
    cones = [orthant2, a1_cone]
    for trial in range(12):
        cone = cones[trial % 2]
        sigma_rays = cone.rays
        coeffs = []
        for _ in range(rng.randint(1, 3)):
            weights = [rng.randint(0, 2) for _ in sigma_rays]
            if not any(weights):
                weights[0] = 1
            w = tuple(
                sum(c * F(r[i]) for c, r in zip(weights, sigma_rays))
                for i in range(2)
            )
            coeffs.append((w, F(rng.randint(0, 3), rng.randint(1, 2))))
        psi = PLConcave.make(coeffs)
        ceiling = rng.random() < 0.5
        c0, c1 = rng.randint(1, 3), rng.randint(1, 3)
        xi = tuple(
            c0 * F(sigma_rays[0][i]) + c1 * F(sigma_rays[1][i]) for i in range(2)
        )
        g = graded(cone, xi, psi, ceiling=ceiling)
        m = rng.randint(1, 6)
        spec = jumping_spectrum(g, m)
        assert s_m(g, m) == sum(spec.values) / (m * spec.n_m)
        assert t_m(g, m) == max(spec.values) / m
        rebuilt = []
        for value, mult in spectrum_histogram(g, m):
            rebuilt.extend([value] * mult)
        assert rebuilt == list(spec.values)
