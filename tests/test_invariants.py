import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import min_form
from reebvol import lattice
from reebvol.arith import dot, det
from reebvol.errors import InvalidDirectionError, NotReebFieldError, QuasiRegularRequiredError
from reebvol.grading import mu_m_cdf, s_m
from reebvol.invariants import (
    PolarizedToricSetup,
    cdf_sup_distance,
    check_verdict,
    consistency_report,
    continuity_scan,
    d_vol,
    energy_pxi,
    energy_tc,
    homogeneity_check,
    mu_limit_cdf,
    quasi_regular_check,
    s_exact,
    s_monotonicity_probe,
    transform_setup,
    vol_xi,
)
from reebvol.plconcave import PLConcave, homogenize, integrate_moment, linear_form
from reebvol.polyhedra import Cone, volume

ZERO2 = PLConcave.make([((0, 0), 0)])


def random_simplicial_setups(seed, count, ranks=(2, 3)):
    """Random simplicial cones with interior rational xi and eta in the cone."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(ranks)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if det(rows) == 0:
            continue
        try:
            sigma = Cone.from_rays(rows)
        except Exception:
            continue
        if len(sigma.rays) != n:
            continue

        def combo():
            weights = [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in sigma.rays]
            return tuple(
                sum(c * F(r[i]) for c, r in zip(weights, sigma.rays))
                for i in range(n)
            )

        out.append(PolarizedToricSetup(sigma, combo(), eta=combo()))
    return out


# -- volume -------------------------------------------------------------------


def test_vol_orthant_ones(orthant2, orthant3):
    assert vol_xi(PolarizedToricSetup(orthant2, (1, 1))) == 1
    assert vol_xi(PolarizedToricSetup(orthant3, (1, 1, 1))) == 1


def test_vol_weighted(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 2))
    assert vol_xi(setup) == F(1, 2)
    # lattice route approaches the same value (error falls like 4/m here)
    approx = F(2 * lattice.count_points(setup.q, 200), 200**2)
    assert abs(approx - F(1, 2)) < F(1, 2) * F(3, 100)


def test_vol_a1(a1_cone):
    setup = PolarizedToricSetup(a1_cone, (1, 1))
    assert vol_xi(setup) == 2
    approx = F(2 * lattice.count_points(setup.q, 200), 200**2)
    assert abs(approx - 2) < 2 * F(2, 100)  # error is exactly (1 + 1/m)^2 - 1


def test_vol_matches_body_route(orthant2, orthant3, a1_cone, square_base_cone):
    cases = [
        (orthant2, (1, 2)),
        (orthant3, (1, 2, 3)),
        (a1_cone, (2, 1)),
        (square_base_cone, (1, 1, 4)),
    ]
    for cone, xi in cases:
        setup = PolarizedToricSetup(cone, xi)
        fact = 1
        for i in range(2, setup.n + 1):
            fact *= i
        assert vol_xi(setup) == fact * volume(setup.q)


def test_vol_homogeneity(square_base_cone):
    setup = PolarizedToricSetup(square_base_cone, (1, 2, 5))
    base = vol_xi(setup)
    for c in (F(1, 3), F(2), F(7, 2)):
        assert vol_xi(setup, at=tuple(c * x for x in setup.xi)) * c**3 == base


# -- volume derivative ---------------------------------------------------------


def test_d_vol_zero_direction(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), eta=(0, 0))
    assert d_vol(setup) == 0


def test_d_vol_euler_relation(orthant2, orthant3, square_base_cone):
    for cone, xi in [(orthant2, (1, 2)), (orthant3, (1, 1, 2)), (square_base_cone, (0, 1, 3))]:
        setup = PolarizedToricSetup(cone, xi, eta=xi)
        assert d_vol(setup) == setup.n * vol_xi(setup)


def test_rank_four_volume_and_euler():
    c4 = Cone.from_rays(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    setup = PolarizedToricSetup(c4, (1, 2, 1, 2), eta=(1, 2, 1, 2))
    assert vol_xi(setup) == F(1, 4)
    assert d_vol(setup) == 4 * vol_xi(setup)
    assert vol_xi(setup) == 24 * volume(setup.q)


@pytest.mark.parametrize("base", ["cube", "cross-polytope"])
def test_rank_six_non_simplicial_routes(base):
    # cones over the 5-cube (32 rays) and the 5-cross-polytope (10 rays):
    # the sub-level bodies are far from simple, and the volume routes and
    # the derivative identity must still agree exactly
    if base == "cube":
        rays = [list(s) + [1] for s in itertools.product((-1, 1), repeat=5)]
    else:
        rays = [[s * int(i == j) for j in range(5)] + [1] for i in range(5) for s in (-1, 1)]
    sigma = Cone.from_rays(rays)
    assert len(sigma.rays) == len(rays)
    eta = tuple(a + 2 * b + F(1, 2) * c for a, b, c in zip(rays[0], rays[3], rays[-1]))
    setup = PolarizedToricSetup(sigma, (1, 0, 0, 0, 0, 3), eta=eta)
    assert vol_xi(setup) == 720 * volume(setup.q)  # vol-routes
    assert s_exact(setup, linear_form(eta)) == energy_tc(setup)  # thm4.2


def test_d_vol_hand_value(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), eta=(1, 0))
    assert d_vol(setup) == 1


def test_d_vol_matches_finite_differences(a1_cone, square_base_cone):
    for cone, xi, eta in [
        (a1_cone, (1, 1), (1, 0)),
        (square_base_cone, (1, 1, 3), (0, 1, 1)),
    ]:
        setup = PolarizedToricSetup(cone, xi, eta=eta)
        exact = d_vol(setup)

        def sym_diff(eps):
            minus = tuple(x - eps * e for x, e in zip(setup.xi, setup.eta))
            plus = tuple(x + eps * e for x, e in zip(setup.xi, setup.eta))
            return (vol_xi(setup, at=minus) - vol_xi(setup, at=plus)) / (2 * eps)

        d3 = sym_diff(F(1, 1000))
        d4 = sym_diff(F(1, 10000))
        # second-order accuracy: Richardson-combining the two nearly cancels
        richardson = (100 * d4 - d3) / 99
        assert abs(richardson - exact) <= abs(exact) * F(1, 10**10)
        assert abs(d4 - exact) < abs(d3 - exact)


# -- S and the energies ---------------------------------------------------------


def test_s_exact_hand_value(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), psi=linear_form((1, 0)))
    assert s_exact(setup) == F(1, 3)


def test_s_exact_zero(orthant2):
    assert s_exact(PolarizedToricSetup(orthant2, (1, 1), psi=ZERO2)) == 0


def test_s_exact_scales(a1_cone):
    psi = min_form((1, 0), (1, 2))
    setup = PolarizedToricSetup(a1_cone, (1, 1), psi=psi)
    scaled = PolarizedToricSetup(a1_cone, (1, 1), psi=psi.scaled(F(5, 4)))
    assert s_exact(scaled) == F(5, 4) * s_exact(setup)


def test_energy_tc_examples(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), eta=(1, 0))
    assert energy_tc(setup) == F(1, 3)
    assert s_exact(setup) == F(1, 3)
    zero = PolarizedToricSetup(orthant2, (1, 1), eta=(0, 0))
    assert energy_tc(zero) == 0
    euler = PolarizedToricSetup(orthant2, (1, 1), eta=(1, 1))
    assert energy_tc(euler) == F(2, 3)


def test_energy_pxi_worked_example(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), psi=linear_form((1, 0)))
    paper, cone = energy_pxi(setup)
    assert (paper, cone) == (F(1, 6), F(1, 6))
    assert s_exact(setup) / paper == 2


def test_energy_pxi_zero(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), psi=ZERO2)
    assert energy_pxi(setup) == (0, 0)


def test_energy_pxi_slice_identity(orthant3, a1_cone, square_base_cone):
    # the slice integral with the cone measure equals (n+1) times the
    # sub-level integral: the two routes are computed independently
    # (the last case has a non-simplicial slice, so the chart triangulates)
    for cone, xi, psi in [
        (orthant3, (1, 2, 3), min_form((1, 0, 0), (0, 1, 1))),
        (a1_cone, (1, 1), min_form((1, 0), (1, 2))),
        (square_base_cone, (0, 0, 1), min_form((1, 0, 1), (0, 1, 1))),
    ]:
        setup = PolarizedToricSetup(cone, xi, psi=psi)
        _, cone_norm = energy_pxi(setup)
        v = vol_xi(setup)
        assert cone_norm == integrate_moment(homogenize(psi), setup.q, 1) / v


def test_thm_4_2_randomized_exact():
    setups = random_simplicial_setups(seed=42, count=12)
    assert len({s.n for s in setups}) == 2
    for setup in setups:
        lhs = s_exact(setup, linear_form(setup.eta))
        assert lhs == energy_tc(setup)


def test_derivative_identity_non_simplicial(square_base_cone):
    # the identity is not special to simplicial cones; the weight cone here
    # triangulates into two subcones
    for eta in [(0, 0, 1), (1, 0, 2), (F(1, 2), F(1, 3), 1)]:
        setup = PolarizedToricSetup(square_base_cone, (0, 0, 1), eta=eta)
        assert s_exact(setup, linear_form(eta)) == energy_tc(setup)


# -- homogeneity and continuity -------------------------------------------------


def test_homogeneity_trivial(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), psi=linear_form((1, 0)))
    v = homogeneity_check(setup, 1)
    assert v.passed


def test_homogeneity_halves(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), psi=linear_form((1, 0)))
    doubled = PolarizedToricSetup(orthant2, (2, 2), psi=linear_form((1, 0)))
    assert s_exact(doubled) == F(1, 6)
    assert homogeneity_check(setup, 2).passed


def test_homogeneity_random_scales(a1_cone):
    setup = PolarizedToricSetup(a1_cone, (1, 1), psi=min_form((1, 0), (1, 2)))
    for c in (F(1, 3), F(5), F(7, 2)):
        assert homogeneity_check(setup, c).passed


def test_continuity_scan_towards_irrational(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), psi=min_form((1, 0), (0, 1)))
    path = [(1, F(14, 10)), (1, F(141, 100)), (1, F(1414, 1000)), (1, F(14142, 10000))]
    scan = continuity_scan(setup, path)
    jumps = scan["jumps"]
    assert all(a > b for a, b in zip(jumps, jumps[1:]))


def test_continuity_scan_constant_path(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), psi=linear_form((1, 0)))
    scan = continuity_scan(setup, [(1, 1), (1, 1), (1, 1)])
    assert scan["max_jump"] == 0


def test_continuity_scan_rescaled_path(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), psi=min_form((1, 0), (0, 1)))
    base = continuity_scan(setup, [(1, 1), (1, F(3, 2))])
    scaled = continuity_scan(setup, [(3, 3), (3, F(9, 2))])
    for (_, s1), (_, s2) in zip(base["trace"], scaled["trace"]):
        assert s2 * 3 == s1


def test_continuity_scan_names_bad_index(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), psi=linear_form((1, 0)))
    with pytest.raises(NotReebFieldError) as err:
        continuity_scan(setup, [(1, 1), (1, -1)])
    assert "path[1]" in str(err.value)


def test_with_xi_rederives_and_checks(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), psi=min_form((1, 0), (0, 1)))
    other = setup.with_xi((1, 2))
    assert other.sigma is setup.sigma and other.psi is setup.psi
    assert other.q == PolarizedToricSetup(orthant2, (1, 2), psi=setup.psi).q
    with pytest.raises(NotReebFieldError):
        setup.with_xi((1, -1))
    with pytest.raises(NotReebFieldError) as err:
        continuity_scan(setup, [(1, 1), (2, 1), (0, 1)])
    assert "path[2]" in str(err.value)


@pytest.mark.parametrize("clamp", [False, True])
def test_eta_filtration_needs_no_separate_check(a1_cone, clamp):
    setup = PolarizedToricSetup(a1_cone, (1, 1), eta=(1, 1), clamp=clamp)
    assert setup.graded() is setup
    assert s_exact(setup) == s_exact(setup, linear_form((1, 1))) > 0


# -- quasi-regular route ---------------------------------------------------------


def test_quasi_regular_exact_anchor(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), psi=linear_form((1, 0)))
    result = quasi_regular_check(setup, 20)
    assert result["extrapolated"] == F(1, 2)
    assert all(v.passed for v in result["verdicts"])
    # the relation: rank/(rank+1) of the per-degree limit equals S
    assert F(2, 3) * result["extrapolated"] == s_exact(setup)


def test_quasi_regular_nonlinear(a1_cone):
    setup = PolarizedToricSetup(a1_cone, (1, 1), psi=min_form((1, 0), (1, 2)))
    result = quasi_regular_check(setup, 64)
    assert all(v.passed for v in result["verdicts"] if not v.skipped)


def test_quasi_regular_requires_integral(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, F(1, 2)), psi=linear_form((1, 0)))
    with pytest.raises(QuasiRegularRequiredError):
        quasi_regular_check(setup, 16)


# -- transport invariance ---------------------------------------------------------


def _report_signature(setup):
    rep = consistency_report(setup, m_grid=(4, 8, 16), t_max=16)
    return (
        rep.vol,
        rep.d_vol,
        rep.s_exact,
        tuple(rep.s_m_trace),
        rep.energy_tc,
        rep.energy_pxi,
        rep.c_n_ratio,
    )


def test_unimodular_transport_shear(orthant2):
    setup = PolarizedToricSetup(
        orthant2, (1, 1), eta=(1, 0), psi=min_form((1, 0), (0, 1))
    )
    moved = transform_setup(setup, ((1, 1), (0, 1)))
    assert _report_signature(moved) == _report_signature(setup)


def test_unimodular_transport_rank3(square_base_cone):
    setup = PolarizedToricSetup(
        square_base_cone, (1, 1, 4), eta=(0, 0, 1),
        psi=min_form((1, 0, 1), (0, 1, 1)),
    )
    mats = [
        ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ]
    for a in mats:
        assert _report_signature(transform_setup(setup, a)) == _report_signature(setup)


# -- weak convergence of empirical measures ---------------------------------------


def test_mu_m_approaches_limit(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), psi=min_form((1, 0), (0, 1)))
    prof = mu_limit_cdf(setup)
    g = setup.graded()
    dists = [cdf_sup_distance(prof, mu_m_cdf(g, m)) for m in (10, 50, 200)]
    assert dists[0] > dists[1] > dists[2]


def test_mu_m_approaches_limit_with_constants(orthant2):
    # additive constants shift each level by c/m and wash out of the limit
    psi = min_form((1, 0), (0, 1)).shifted(F(3, 2))
    setup = PolarizedToricSetup(orthant2, (1, 1), psi=psi)
    prof = mu_limit_cdf(setup)
    g = setup.graded()
    dists = [cdf_sup_distance(prof, mu_m_cdf(g, m)) for m in (10, 50, 200)]
    assert dists[0] > dists[1] > dists[2]


def test_rank_one_identities():
    line = Cone.from_rays([[1]])
    setup = PolarizedToricSetup(line, (2,), eta=(1,))
    assert vol_xi(setup) == F(1, 2)
    assert d_vol(setup) == F(1, 4)
    assert s_exact(setup, linear_form((1,))) == energy_tc(setup) == F(1, 4)
    with pytest.raises(Exception):
        energy_pxi(setup, linear_form((1,)))


def test_transport_random_unimodular_fuzz():
    # random products of elementary integer matrices, both ranks
    rng = random.Random(271)

    def random_unimodular(n, steps=6):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(steps):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            for k in range(n):
                rows[i][k] += c * rows[j][k]
        return tuple(tuple(r) for r in rows)

    base2 = PolarizedToricSetup(
        Cone.from_rays([[1, 0], [1, 2]]), (1, 1), eta=(2, 1),
        psi=min_form((1, 0), (1, 2)),
    )
    base3 = PolarizedToricSetup(
        Cone.from_rays([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), (1, 2, 3),
        eta=(1, 1, 1), psi=min_form((1, 0, 0), (0, 1, 1)),
    )
    for base in (base2, base3):
        vol0, s0, e0 = vol_xi(base), s_exact(base), energy_tc(base)
        pxi0 = energy_pxi(base)
        for _ in range(4):
            a = random_unimodular(base.n)
            moved = transform_setup(base, a)
            assert vol_xi(moved) == vol0
            assert s_exact(moved) == s0
            assert energy_tc(moved) == e0
            assert energy_pxi(moved) == pxi0


# -- report ------------------------------------------------------------------------


def test_report_anchor(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), eta=(1, 0))
    rep = consistency_report(setup)
    assert rep.vol == 1 and rep.d_vol == 1
    assert rep.s_exact == F(1, 3) == rep.energy_tc
    assert rep.c_n_ratio == 2
    assert not rep.failed()
    names = {v.name for v in rep.verdicts}
    assert {"vol-routes", "thm4.2", "cor3.12", "lem3.17b", "prop3.13-hom",
            "thm6.4-Cn"} <= names
    # every verdict is recomputable from its stored exact values
    for v in rep.verdicts:
        if not v.skipped:
            assert check_verdict(v.lhs, v.rhs, v.relation) == v.passed


def test_report_zero_filtration(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), psi=ZERO2)
    rep = consistency_report(setup, m_grid=(2, 4), t_max=8)
    assert rep.s_exact == 0
    assert rep.energy_pxi == (0, 0)
    assert not rep.failed()


def test_report_skips_unavailable_routes(a1_cone):
    setup = PolarizedToricSetup(a1_cone, (1, F(3, 2)), psi=min_form((1, 0), (1, 2)))
    rep = consistency_report(setup, m_grid=(8, 16, 32), t_max=8, tolerance=F(1, 10))
    skipped = {v.name for v in rep.verdicts if v.skipped}
    assert "lem3.17b" in skipped and "thm4.2" in skipped
    assert not rep.failed()


@pytest.mark.parametrize("clamp", [False, True])
def test_report_integrates_each_moment_once(orthant2, square_base_cone, monkeypatch, clamp):
    """A report integrates no function over one body twice: a probe that is
    the setup's own unclamped filtration reuses its S and energy."""
    from reebvol import invariants

    moments = []
    real = invariants._moment

    def moment(f, body, clamp):
        moments.append((f, tuple(body.vertices), clamp))
        return real(f, body, clamp)

    monkeypatch.setattr(invariants, "_moment", moment)
    for setup in (
        PolarizedToricSetup(orthant2, (1, 1), eta=(1, 0), clamp=clamp),
        PolarizedToricSetup(square_base_cone, (0, 0, 1), psi=min_form((1, 0, 1), (0, 1, 1)),
                            clamp=clamp),
    ):
        moments.clear()
        consistency_report(setup, m_grid=(2, 4), t_max=4)
        assert moments and len(set(moments)) == len(moments)


def test_monotonicity_probe(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), psi=min_form((1, 0), (0, 1)))
    probe = s_monotonicity_probe(setup, (2, 3))
    assert probe["premise"] is True
    assert probe["claim_holds"] is True


def test_effective_psi_requires_direction_in_cone(orthant2):
    setup = PolarizedToricSetup(orthant2, (1, 1), eta=(1, -1))
    assert setup.effective_psi() is None
    with pytest.raises(InvalidDirectionError):
        s_exact(setup)
