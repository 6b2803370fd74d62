"""Exact closed-form invariants and the consistency engine.

Volumes are computed two independent ways: as a rational function of the
polarization over a triangulation of the weight cone into simplicial ray
subcones, and as normalized Lebesgue volume of the sub-level body.  The
filtration average S has a lattice route (level averages), a body route
(mean of the homogenized filtration over the sub-level body), a derivative
route for linear filtrations (directional derivative of the volume), and a
slice route (weighted integral over the level-one slice).  The report runs
every route available and records exact pass/fail verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial
from math import factorial, lcm, prod

from .arith import bareiss_det, decimal_str, det, dot, fmt, mat, mat_vec, rat, vec
from .errors import (
    DimensionMismatchError,
    InvalidBasisError,
    InvalidDirectionError,
    NotReebFieldError,
    QuasiRegularRequiredError,
    UnsupportedGeometryError,
)
from .grading import GradedSetup, degree_slice, s_m
from .plconcave import (
    PLConcave,
    homogenize,
    integrate_moment,
    linear_form,
    restrict_to_chart,
    superlevel_body,
    superlevel_profile,
)
from .polyhedra import (
    Cone,
    FacetChart,
    _reeb_pairings,
    dual_cone,
    facet_chart,
    triangulate,  # noqa: F401 -- perfbench's tests check that tracing restores this binding
    triangulate_cone,
    volume,
)

DEFAULT_TOLERANCE = Fraction(1, 100)
HOMOGENEITY_SCALES = (Fraction(1, 3), Fraction(2), Fraction(7, 2))


class PolarizedToricSetup(GradedSetup):
    """A cone in the coweight lattice, a polarization vector in its interior,
    and optionally a degeneration direction and a filtration.

    ``psi`` is the explicit filtration, else the linear one of a direction
    in the cone, else None.  The chart of P, the ray subcones, vol(Q) and S
    are derived on first use and shared by every route, as are the
    triangulations that Q and the chart body keep.
    """

    def __init__(self, sigma: Cone, xi, eta=None, psi: PLConcave | None = None,
                 ceiling=False, clamp=False):
        self.sigma = sigma
        self.n = sigma.rank
        self.eta = None
        if eta is not None:
            self.eta = vec(eta)
            if len(self.eta) != self.n:
                raise DimensionMismatchError("eta length does not match rank")
            if psi is None and sigma.contains(self.eta):
                psi = linear_form(self.eta)
        super().__init__(dual_cone(sigma), xi, psi, ceiling, clamp)

    def effective_psi(self) -> PLConcave | None:
        """The filtration the routes study, ``psi``."""
        return self.psi

    def graded(self) -> GradedSetup:
        """The setup itself, as the graded data of its filtration."""
        if self.psi is None:
            raise InvalidDirectionError("no filtration available for spectra")
        return self

    def with_xi(self, xi) -> "PolarizedToricSetup":
        """The same data under another polarization, derived afresh."""
        return PolarizedToricSetup(self.sigma, xi, self.eta, self.psi, self.ceiling, self.clamp)

    def rescaled(self, c) -> "PolarizedToricSetup":
        c = rat(c)
        return self.with_xi(tuple(c * x for x in self.xi))

    # -- derived geometry ---------------------------------------------------

    @cached_property
    def vol_q(self) -> Fraction:
        """Lebesgue volume of the sub-level body Q."""
        return volume(self.q)

    @cached_property
    def chart(self) -> FacetChart:
        """Chart coordinates on the level-one slice P (rank >= 2)."""
        return facet_chart(self.p)

    @cached_property
    def slice_density(self) -> Fraction:
        """Cone measure on P over chart Lebesgue measure: |offset / a_j| for P
        in <a, u> = offset and the dropped coordinate j.  The cone from 0
        over a piece of P of chart volume V has height |offset| / |a| and
        base V |a| / |a_j|, so n times its volume is V |offset / a_j|."""
        return abs(self.chart.offset / self.chart.normal[self.chart.drop])

    @cached_property
    def slice_measure(self) -> Fraction:
        """The cone measure of P."""
        return self.slice_density * self.chart.body.measure.volume

    @cached_property
    def subcones(self) -> tuple:
        """The simplicial subcones of the weight cone, from its ray-facet
        incidences alone, as (ray indices, integer |det| of those rays):
        no chart, and the same for every xi."""
        rays = self.dual.rays
        return tuple((idx, abs(bareiss_det([list(rays[i]) for i in idx])))
                     for idx in triangulate_cone(self.dual).simplices)

    @cached_property
    def s_value(self) -> Fraction:
        """S of the setup's own filtration; see ``s_exact``."""
        if self.psi is None:
            raise InvalidDirectionError("no filtration available")
        return _moment(self.psi_tilde, self.q, self.clamp) / self.vol_q


# ---------------------------------------------------------------------------
# volume and its directional derivative
# ---------------------------------------------------------------------------


def vol_xi(setup: PolarizedToricSetup, at=None) -> Fraction:
    """Exact volume of the polarization: sum over simplicial ray subcones of
    |det of the primitive rays| over the product of their pairings with xi,
    in integers: the pairings times the least common denominator d of xi."""
    _, d, pairings = _reeb_pairings(setup.dual, setup.xi if at is None else at)
    total = Fraction(0)
    for idx, volume_det in setup.subcones:
        total += Fraction(volume_det, prod(pairings[i] for i in idx))
    return total * d ** setup.n


def d_vol(setup: PolarizedToricSetup, eta=None) -> Fraction:
    """Exact directional derivative of the volume along minus the direction:
    the term-by-term derivative of the subcone closed form, a subcone's term
    times the sum of <r, eta>/<r, xi> over its rays r, in integers."""
    direction = setup.eta if eta is None else vec(eta)
    if direction is None:
        raise InvalidDirectionError("no direction given")
    if len(direction) != setup.n:
        raise DimensionMismatchError("direction length does not match rank")
    _, d, pairings = _reeb_pairings(setup.dual, setup.xi)
    e = lcm(*(x.denominator for x in direction))
    eta_pairings = [sum(r * int(x * e) for r, x in zip(ray, direction)) for ray in setup.dual.rays]
    total = Fraction(0)
    for idx, volume_det in setup.subcones:
        den = prod(pairings[i] for i in idx)
        total += Fraction(volume_det * sum(eta_pairings[i] * den // pairings[i] for i in idx),
                          den * den)
    return total * d ** (setup.n + 1) / e


# ---------------------------------------------------------------------------
# the filtration average S and the energies
# ---------------------------------------------------------------------------


def _moment(f, body, clamp) -> Fraction:
    """Integral of f over the body; with the clamp, over the part where every
    branch is nonnegative (elsewhere the clamped function vanishes)."""
    if clamp:
        body = superlevel_body(f, body, 0)
    if body.affine_dim < body.rank:
        return Fraction(0)
    return integrate_moment(f, body, 1)


def s_exact(setup: PolarizedToricSetup, psi: PLConcave | None = None) -> Fraction:
    """Mean of the homogenized filtration over the sub-level body: of the
    probe ``psi``, else of the setup's own filtration (computed once)."""
    if psi is None:
        return setup.s_value
    return _moment(homogenize(psi), setup.q, False) / setup.vol_q


def energy_tc(setup: PolarizedToricSetup) -> Fraction:
    """Energy of the degeneration direction: the volume derivative normalized
    by (rank+1) times the volume."""
    return d_vol(setup) / ((setup.n + 1) * vol_xi(setup))


def energy_pxi(setup: PolarizedToricSetup, psi: PLConcave | None = None):
    """Energy as a slice integral over the level-one body, computed in chart
    coordinates (independently of the sub-level route).

    Returns (paper_normalized, cone_normalized): the cone normalization uses
    the slice measure whose radial extension is Lebesgue on the sub-level
    body; the other rescales it so the slice has measure vol_xi.
    """
    f = psi if psi is not None else setup.psi
    if f is None:
        raise InvalidDirectionError("no filtration available")
    n = setup.n
    if n < 2:
        raise UnsupportedGeometryError("slice energy requires rank >= 2")
    g = restrict_to_chart(homogenize(f), setup.chart)
    clamp = setup.clamp and psi is None
    slice_integral = setup.slice_density * _moment(g, setup.chart.body, clamp)
    v = vol_xi(setup)
    cone_normalized = slice_integral / ((n + 1) * v)
    paper_normalized = cone_normalized * (v / setup.slice_measure)
    return paper_normalized, cone_normalized


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    name: str
    passed: bool
    lhs: Fraction | None = None
    rhs: Fraction | None = None
    relation: str = "eq"
    skipped: bool = False
    reason: str = ""

    @property
    def status(self) -> str:
        """One of skip, pass and fail; a failed verdict gates."""
        return "skip" if self.skipped else ("pass" if self.passed else "fail")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "lhs": None if self.lhs is None else fmt(self.lhs),
            "rhs": None if self.rhs is None else fmt(self.rhs),
            "relation": self.relation,
            "reason": self.reason,
        }


def check_verdict(lhs: Fraction, rhs: Fraction, relation: str) -> bool:
    """Re-apply a verdict's comparison to its stored exact values."""
    if relation == "eq":
        return lhs == rhs
    if relation == "le":
        return lhs <= rhs
    raise ValueError(f"unknown relation {relation!r}")


def _verdict(name, lhs, rhs, relation="eq") -> Verdict:
    return Verdict(name, check_verdict(lhs, rhs, relation), lhs, rhs, relation)


def _skipped(name, reason) -> Verdict:
    return Verdict(name, True, None, None, "eq", skipped=True, reason=reason)


def homogeneity_check(setup: PolarizedToricSetup, c) -> Verdict:
    """S is homogeneous of degree -1 in the polarization, exactly."""
    c = rat(c)
    if c <= 0:
        raise ValueError("scale must be positive")
    s_base = s_exact(setup)
    s_scaled = s_exact(setup.rescaled(c))
    return _verdict("prop3.13-hom", s_scaled * c, s_base)


def continuity_scan(setup: PolarizedToricSetup, path):
    """Exact S along a path of polarizations; reports successive jumps."""
    trace = []
    for k, xi_k in enumerate(path):
        try:
            s_val = s_exact(setup.with_xi(xi_k))
        except NotReebFieldError as exc:
            raise NotReebFieldError(f"path[{k}]: {exc}") from exc
        trace.append((vec(xi_k), s_val))
    jumps = [abs(trace[i + 1][1] - trace[i][1]) for i in range(len(trace) - 1)]
    return {"trace": trace, "jumps": jumps, "max_jump": max(jumps, default=Fraction(0))}


def quasi_regular_check(setup: PolarizedToricSetup, t_max: int,
                        tolerance: Fraction = DEFAULT_TOLERANCE):
    """Degree-by-degree route for an integral polarization: extrapolated
    per-degree averages against S, and the growth of degree counts against
    the volume."""
    if any(x.denominator != 1 for x in setup.xi):
        raise QuasiRegularRequiredError("polarization must be integral")
    if t_max < 2:
        raise ValueError("t_max must be at least 2")
    g = setup.graded()
    n = setup.n
    ts = sorted({max(1, t_max // 4), t_max // 2, t_max})
    trace = []
    for t in ts:
        n_t, val = degree_slice(g, t)
        trace.append({"t": t, "n_t": n_t, "s_tilde": val})
    usable = [row for row in trace if row["n_t"] > 0]
    verdicts = []
    if len(usable) < 2:
        verdicts.append(_skipped("lem3.17b", "not enough nonempty degrees"))
        verdicts.append(_skipped("lem3.17a-growth", "not enough nonempty degrees"))
        return {"trace": trace, "verdicts": verdicts, "extrapolated": None}
    t1, t2 = usable[-2], usable[-1]
    r1, r2 = Fraction(t2["t"], t2["t"] - t1["t"]), Fraction(t1["t"], t2["t"] - t1["t"])
    extrapolated = r1 * t2["s_tilde"] - r2 * t1["s_tilde"]
    s_val = s_exact(setup)
    lhs = abs(s_val - Fraction(n, n + 1) * extrapolated)
    rhs = tolerance * (abs(s_val) if s_val != 0 else Fraction(1))
    verdicts.append(Verdict("lem3.17b", lhs <= rhs, lhs, rhs, "le"))
    lead1 = Fraction(t1["n_t"], t1["t"] ** (n - 1))
    lead2 = Fraction(t2["n_t"], t2["t"] ** (n - 1))
    lead = r1 * lead2 - r2 * lead1
    target = vol_xi(setup) / factorial(n - 1)
    lhs_n = abs(lead - target)
    verdicts.append(Verdict("lem3.17a-growth", lhs_n <= tolerance * target, lhs_n,
                            tolerance * target, "le"))
    return {"trace": trace, "verdicts": verdicts, "extrapolated": extrapolated,
            "s_exact": s_val}


def convergence_check(setup: PolarizedToricSetup, m_grid,
                      tolerance: Fraction = DEFAULT_TOLERANCE):
    """Level averages against S: S, the trace of (m, s_m, |s_m - S|) over
    the grid, and the cor3.12-monotone (errors never grow) and cor3.12 (last
    error within tolerance of |S|) verdicts, none for an empty grid."""
    g = setup.graded()
    s_val = s_exact(setup)
    trace = [(m, v, abs(v - s_val)) for m, v in ((m, s_m(g, m)) for m in m_grid)]
    if not trace:
        return s_val, trace, []
    errors = [e for _, _, e in trace]
    worst_increase = max((b - a for a, b in zip(errors, errors[1:])), default=Fraction(0))
    gate = tolerance * (abs(s_val) if s_val != 0 else Fraction(1))
    return s_val, trace, [_verdict("cor3.12-monotone", worst_increase, Fraction(0), "le"),
                          _verdict("cor3.12", errors[-1], gate, "le")]


def s_monotonicity_probe(setup: PolarizedToricSetup, xi_other):
    """Experimental, non-gating: whether enlarging the polarization in the
    Reeb order can only shrink S.  Reports the premise and both values."""
    xi2 = vec(xi_other)
    premise = all(dot(r, tuple(a - b for a, b in zip(xi2, setup.xi))) >= 0
                  for r in setup.dual.rays)
    s1 = s_exact(setup)
    s2 = s_exact(setup.with_xi(xi2))
    return {"premise": premise, "s_base": s1, "s_other": s2,
            "claim_holds": (not premise) or s2 <= s1}


def transform_setup(setup: PolarizedToricSetup, rows) -> PolarizedToricSetup:
    """Transport the whole setup by an integer unimodular change of
    coordinates of the coweight lattice."""
    a = mat(rows)
    if any(x.denominator != 1 for row in a for x in row) or abs(det(a)) != 1:
        raise InvalidBasisError("transport needs an integer matrix of determinant +-1")
    sigma2 = Cone.from_rays([mat_vec(a, vec(r)) for r in setup.sigma.rays],
                            rank=setup.n, lattice=setup.sigma.lattice)
    xi2 = mat_vec(a, setup.xi)
    eta2 = mat_vec(a, setup.eta) if setup.eta is not None else None
    psi2 = None
    if setup.psi is not None:
        psi2 = PLConcave.make(
            [(mat_vec(a, b.linear), b.constant) for b in setup.psi.branches]
        )
    return PolarizedToricSetup(sigma2, xi2, eta2, psi2, setup.ceiling, setup.clamp)


# ---------------------------------------------------------------------------
# the consistency report
# ---------------------------------------------------------------------------


DEFAULT_M_GRID = (8, 16, 32, 64)
DEFAULT_REPORT_T_MAX = 64


@dataclass
class InvariantReport:
    rank: int
    xi: tuple
    vol: Fraction
    d_vol: Fraction | None
    s_exact: Fraction | None
    s_m_trace: list
    energy_tc: Fraction | None
    energy_pxi: tuple | None
    s_tilde_trace: list
    c_n_ratio: Fraction | None
    c_n_probes: list
    verdicts: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def failed(self):
        return [v for v in self.verdicts if v.status == "fail"]

    def to_dict(self, decimal_digits=6) -> dict:
        def ex(x):
            return None if x is None else fmt(x)

        def dec(x):
            return None if x is None else decimal_str(x, decimal_digits)

        return {
            "rank": self.rank,
            "xi": [fmt(x) for x in self.xi],
            "vol_xi": ex(self.vol),
            "vol_xi_decimal": dec(self.vol),
            "d_vol": ex(self.d_vol),
            "d_vol_decimal": dec(self.d_vol),
            "s_exact": ex(self.s_exact),
            "s_exact_decimal": dec(self.s_exact),
            "s_m_trace": [
                {"m": m, "s_m": fmt(s), "abs_error": ex(e)}
                for m, s, e in self.s_m_trace
            ],
            "energy_tc": ex(self.energy_tc),
            "energy_tc_decimal": dec(self.energy_tc),
            "energy_pxi": None if self.energy_pxi is None else {
                "paper_normalized": fmt(self.energy_pxi[0]),
                "cone_normalized": fmt(self.energy_pxi[1]),
                "paper_normalized_decimal": decimal_str(self.energy_pxi[0], decimal_digits),
                "cone_normalized_decimal": decimal_str(self.energy_pxi[1], decimal_digits),
            },
            "s_tilde_trace": [
                {"t": row["t"], "n_t": row["n_t"], "s_tilde": ex(row["s_tilde"])}
                for row in self.s_tilde_trace
            ],
            "c_n_ratio": ex(self.c_n_ratio),
            "c_n_probes": [
                {"label": label, "ratio": ex(ratio)} for label, ratio in self.c_n_probes
            ],
            "verdicts": [v.to_dict() for v in self.verdicts],
            "notes": self.notes,
        }


def consistency_report(setup: PolarizedToricSetup, m_grid=DEFAULT_M_GRID,
                       t_max=DEFAULT_REPORT_T_MAX,
                       tolerance: Fraction = DEFAULT_TOLERANCE) -> InvariantReport:
    """Run every route available on the setup and cross-validate them."""
    n = setup.n
    verdicts = []
    vol_closed = vol_xi(setup)
    vol_body = setup.vol_q
    verdicts.append(_verdict("vol-routes", vol_closed, factorial(n) * vol_body))

    psi_eff = setup.psi

    # each probe's S and energy once per report; None stands for the setup's
    # own filtration, which an equal probe is when the clamp is off
    s_of, energy_of = cache(partial(s_exact, setup)), cache(partial(energy_pxi, setup))

    def own(probe):
        return None if probe == psi_eff and not setup.clamp else probe

    d_val = None
    e_tc = None
    if setup.eta is not None:
        d_val = d_vol(setup)
        e_tc = energy_tc(setup)
        if setup.sigma.contains(setup.eta):
            verdicts.append(_verdict("thm4.2", s_of(own(linear_form(setup.eta))), e_tc))
        else:
            verdicts.append(_skipped(
                "thm4.2", "direction lies outside the cone; its filtration is undefined"
            ))
    else:
        verdicts.append(_skipped("thm4.2", "no degeneration direction given"))

    s_val = None
    s_trace = []
    e_pxi = None
    c_ratio = None
    probes = []
    if psi_eff is not None:
        s_val, s_trace, cor = convergence_check(setup, m_grid, tolerance)
        verdicts.extend(cor)
        if n >= 2:
            e_pxi = energy_of(None)
            ratios = []
            probe_list = [("input", psi_eff)]
            for i, r in enumerate(setup.sigma.rays[:2]):
                probe_list.append((f"ray{i}", linear_form(r)))
            probe_list.append(("xi-direction", linear_form(setup.xi)))
            for label, probe in probe_list:
                paper, _cone = energy_of(own(probe))
                if paper == 0:
                    continue
                ratios.append((label, s_of(own(probe)) / paper))
            probes = ratios
            if ratios:
                c_ratio = ratios[0][1]
                verdicts.append(_verdict(
                    "thm6.4-Cn",
                    max(r for _, r in ratios),
                    min(r for _, r in ratios),
                ))
            else:
                verdicts.append(_skipped("thm6.4-Cn", "all probe energies vanish"))
        else:
            verdicts.append(_skipped("thm6.4-Cn", "slice energy needs rank >= 2"))
    else:
        verdicts.append(_skipped("cor3.12", "no filtration given"))
        verdicts.append(_skipped("thm6.4-Cn", "no filtration given"))

    hom_lhs = []
    vol_lhs = []
    for c in HOMOGENEITY_SCALES:
        scaled = setup.rescaled(c)
        vol_lhs.append(abs(vol_xi(scaled) * c ** n - vol_closed))
        if psi_eff is not None:
            hom_lhs.append(abs(s_exact(scaled) * c - s_val))
    verdicts.append(_verdict("prop3.13-vol", max(vol_lhs), Fraction(0), "le"))
    if hom_lhs:
        verdicts.append(_verdict("prop3.13-hom", max(hom_lhs), Fraction(0), "le"))
    else:
        verdicts.append(_skipped("prop3.13-hom", "no filtration given"))

    s_tilde_trace = []
    if all(x.denominator == 1 for x in setup.xi) and psi_eff is not None:
        qr = quasi_regular_check(setup, t_max, tolerance)
        s_tilde_trace = qr["trace"]
        verdicts.extend(qr["verdicts"])
    else:
        reason = ("polarization is not integral" if psi_eff is not None
                  else "no filtration given")
        verdicts.append(_skipped("lem3.17b", reason))

    notes = {
        "limit_measure_mass": fmt(vol_body),
        "limit_measure_note": (
            "the empirical measures converge to a measure of mass equal to the "
            "sub-level body volume (vol_xi divided by rank factorial); the "
            "rank!-scaled convention is not used"
        ),
    }
    return InvariantReport(
        rank=n,
        xi=setup.xi,
        vol=vol_closed,
        d_vol=d_val,
        s_exact=s_val,
        s_m_trace=s_trace,
        energy_tc=e_tc,
        energy_pxi=e_pxi,
        s_tilde_trace=s_tilde_trace,
        c_n_ratio=c_ratio,
        c_n_probes=probes,
        verdicts=verdicts,
        notes=notes,
    )


def mu_limit_cdf(setup: PolarizedToricSetup):
    """Exact CDF data of the limit measure: the superlevel profile of the
    homogenized filtration over the sub-level body."""
    if setup.psi is None:
        raise InvalidDirectionError("no filtration available")
    return superlevel_profile(setup.psi_tilde, setup.q)


def cdf_sup_distance(profile, empirical):
    """Exact sup distance between the limit CDF (from a superlevel profile)
    and an empirical step CDF given as sorted (value, cumulative) pairs.

    Both functions are monotone, so the supremum is attained at one of the
    jump points or breakpoints, approached from either side.
    """
    points = sorted(set(profile.breakpoints) | {v for v, _ in empirical})
    best = Fraction(0)
    idx = 0
    below = Fraction(0)
    for t in points:
        while idx < len(empirical) and empirical[idx][0] < t:
            below = empirical[idx][1]
            idx += 1
        e_left = below
        e_right = empirical[idx][1] if idx < len(empirical) and empirical[idx][0] == t else below
        f_right = profile.cdf(t)
        f_left = profile.total - profile.value(t)
        best = max(best, abs(f_right - e_right), abs(f_left - e_left))
    return best
