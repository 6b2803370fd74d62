"""Truncated weight spaces and jumping-number statistics.

A graded setup couples a weight cone in the character lattice, a
polarization vector pairing positively with it, and a piecewise-linear
filtration.  The spectrum at level m is the multiset of filtration values
over the lattice points of the m-fold dilated sub-level body; averages,
tops, empirical measures, and per-degree statistics all derive from it.

Two evaluation conventions are supported: the exact rational values
(default) and an integer-rounding mode for filtrations that only see
integer levels, which replaces each value by its floor.  An opt-in clamp
replaces values by max(value, 0) for inputs that fail the nonnegativity
requirement; this leaves the standard admissibility axioms and is never
the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat, starmap

from . import lattice
from .arith import vec
from .errors import DimensionMismatchError, EmptyDegreeError, QuasiRegularRequiredError
from .plconcave import PLConcave, homogenize, max_over, validate_nonnegative
from .polyhedra import Cone, reeb_slice


class GradedSetup:
    """Weight cone + Reeb polarization + filtration; the slice bodies and the
    admissibility check are derived once, here, the branch data and degree
    frame (with the branches in its coordinates) on first use."""

    def __init__(self, dual: Cone, xi, psi: PLConcave | None, ceiling=False, clamp=False):
        self.dual = dual
        self.q, self.p = reeb_slice(dual, xi)
        self.xi = vec(xi)
        if psi is not None and psi.rank != dual.rank:
            raise DimensionMismatchError("filtration rank does not match the weight cone")
        self.psi = psi
        self.ceiling = bool(ceiling)
        self.clamp = bool(clamp)
        if psi is not None and not self.clamp:
            validate_nonnegative(psi, dual, self.q)

    @property
    def rank(self) -> int:
        return self.dual.rank

    @cached_property
    def psi_tilde(self) -> PLConcave:
        return homogenize(self.psi)

    @cached_property
    def _branches(self) -> lattice.BranchData:
        return lattice.BranchData.from_plconcave(self.psi)

    @cached_property
    def _frame(self) -> lattice.DegreeFrame:
        return lattice.degree_frame(self.p, self.xi)

    @cached_property
    def _frame_branches(self) -> lattice.BranchData:
        return self._branches.transported(list(zip(*self._frame.v)))

    def value(self, u) -> Fraction:
        v = self.psi.value(vec(u))
        if self.clamp:
            v = max(v, Fraction(0))
        if self.ceiling:
            v = Fraction(v.__floor__())
        return v


@dataclass(frozen=True)
class JumpingSpectrum:
    """The nondecreasing multiset of filtration values at level m."""

    m: int
    values: tuple

    @property
    def n_m(self) -> int:
        return len(self.values)


def lattice_count(g: GradedSetup, m: int) -> int:
    return lattice.count_points(g.q, m)


def jumping_spectrum(g: GradedSetup, m: int) -> JumpingSpectrum:
    """Values of the filtration over the level-m lattice points, sorted: each
    value of the spectrum histogram, repeated by its multiplicity."""
    values = chain.from_iterable(starmap(repeat, spectrum_histogram(g, m)))
    return JumpingSpectrum(m, tuple(values))


def spectrum_histogram(g: GradedSetup, m: int):
    """Sorted (value, multiplicity) pairs of the level-m spectrum."""
    hist = lattice.value_histogram(g.q, m, g._branches, floor_mode=g.ceiling, clamp=g.clamp)
    d = 1 if g.ceiling else g._branches.denom
    keys = sorted(hist)
    values = map(Fraction, keys) if d == 1 else map(Fraction, keys, repeat(d))
    return tuple(zip(values, map(hist.__getitem__, keys)))


def s_m(g: GradedSetup, m: int) -> Fraction:
    """The normalized average of the level-m spectrum."""
    if m < 1:
        raise ValueError("level must be at least 1")
    n_m, total = lattice.count_and_sum(
        g.q, m, g._branches, floor_mode=g.ceiling, clamp=g.clamp
    )
    return total / (m * n_m)


def t_m(g: GradedSetup, m: int) -> Fraction:
    """Largest spectrum value at level m, divided by m."""
    if m < 1:
        raise ValueError("level must be at least 1")
    top = lattice.max_value(g.q, m, g._branches, floor_mode=g.ceiling, clamp=g.clamp)
    return top / m


def big_t_estimate(g: GradedSetup, m_max: int) -> Fraction:
    """sup of t_m over 1 <= m <= m_max."""
    return max(t_m(g, m) for m in range(1, m_max + 1))


def t_limit(g: GradedSetup) -> Fraction:
    """Exact limit of t_m: the maximum of the homogenized filtration over
    the sub-level body."""
    top = max_over(g.psi_tilde, g.q)
    if g.clamp:
        top = max(top, Fraction(0))
    return top


def mu_m_cdf(g: GradedSetup, m: int):
    """Right-continuous CDF of the level-m empirical measure: sorted
    (value, cumulative mass) pairs; total mass nm/m^rank."""
    if m < 1:
        raise ValueError("level must be at least 1")
    scale = Fraction(1, m ** g.rank)
    out = []
    acc = Fraction(0)
    for value, mult in spectrum_histogram(g, m):
        acc += mult * scale
        out.append((value / m, acc))
    return tuple(out)


def spectrum_csv_rows(g: GradedSetup, m: int, decimal_digits=None):
    """Spectrum histogram as CSV rows (value, multiplicity[, decimal])."""
    from .arith import decimal_str, fmt

    rows = []
    for value, mult in spectrum_histogram(g, m):
        row = [fmt(value), str(mult)]
        if decimal_digits is not None:
            row.append(decimal_str(value, decimal_digits))
        rows.append(row)
    return rows


def cdf_csv_rows(cdf, decimal_digits=None):
    """An empirical CDF as CSV rows (value, cumulative mass[, decimals])."""
    from .arith import decimal_str, fmt

    rows = []
    for value, cum in cdf:
        row = [fmt(value), fmt(cum)]
        if decimal_digits is not None:
            row.extend([decimal_str(value, decimal_digits), decimal_str(cum, decimal_digits)])
        rows.append(row)
    return rows


def degree_slice(g: GradedSetup, t: int):
    """(N_t, S~_t) on the weight level <u, xi> = t from one walk of t times
    the frame body: the number of weights of degree t and their per-degree
    average, None when there are none (integral polarization only)."""
    _require_integral(g)
    if t < 1:
        raise ValueError("degree must be at least 1")
    n_t, total = lattice.count_and_sum(g._frame.body, t, g._frame_branches, g.ceiling, g.clamp)
    if not n_t:
        return 0, None
    return n_t, total / (t * n_t)


def graded_s_tilde(g: GradedSetup, t: int) -> Fraction:
    """Per-degree average of filtration values on the weight level <u, xi> = t
    (integral polarization only)."""
    s_tilde = degree_slice(g, t)[1]
    if s_tilde is None:
        raise EmptyDegreeError(f"no weights of degree {t}")
    return s_tilde


def degree_count(g: GradedSetup, t: int) -> int:
    _require_integral(g)
    return lattice.count_points(g._frame.body, t) if t >= 0 else 0


def _require_integral(g: GradedSetup):
    if any(x.denominator != 1 for x in g.xi):
        raise QuasiRegularRequiredError(
            "per-degree statistics require an integral polarization vector"
        )
