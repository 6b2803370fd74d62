"""Problem specifications: JSON input validated into a toric setup.

Every validation failure carries the path of the offending field, e.g.
``filtration.branches[1].linear``, so diagnostics land on the exact input.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import rat
from .errors import MathError, NotReebFieldError, SpecError
from .invariants import DEFAULT_TOLERANCE, PolarizedToricSetup
from .plconcave import PLConcave
from .polyhedra import Cone, MAX_RANK


@dataclass
class Options:
    m_grid: tuple = (8, 16, 32, 64)
    t_max: int = 64
    decimal: int = 6
    tolerance: Fraction = DEFAULT_TOLERANCE
    ceiling: bool = False
    clamp: bool = False


@dataclass
class ProblemSpec:
    rank: int
    sigma_rays: list
    xi: tuple
    eta: tuple | None = None
    filtration: PLConcave | None = None
    options: Options = field(default_factory=Options)
    # the setup derived from the fields in its key, with that key
    _setup: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def setup(self) -> PolarizedToricSetup:
        """The spec's setup: derived once, and again only after a field it
        depends on has changed."""
        key = (self.rank, tuple(tuple(r) for r in self.sigma_rays), tuple(self.xi),
               None if self.eta is None else tuple(self.eta), self.filtration,
               self.options.ceiling, self.options.clamp)
        if self._setup is None or self._setup[0] != key:
            try:
                sigma = Cone.from_rays(self.sigma_rays, rank=self.rank, lattice="N")
            except MathError as exc:
                raise SpecError("sigma_rays", str(exc)) from exc
            try:
                setup = PolarizedToricSetup(sigma, self.xi, self.eta, self.filtration,
                                            self.options.ceiling, self.options.clamp)
            except NotReebFieldError as exc:
                raise SpecError("xi", str(exc)) from exc
            except MathError as exc:
                raise SpecError("filtration", str(exc)) from exc
            self._setup = (key, setup)
        return self._setup[1]


def _rational(value, path):
    try:
        return rat(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(path, f"not an exact rational: {value!r}") from exc


def _vector(value, rank, path):
    if not isinstance(value, list) or len(value) != rank:
        raise SpecError(path, f"expected a list of {rank} rationals")
    try:
        return tuple(map(rat, value))
    except (ValueError, ZeroDivisionError):  # again, naming the first bad entry
        return tuple(_rational(x, f"{path}[{i}]") for i, x in enumerate(value))


def positive_int(value, path, least=1) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise SpecError(path, "expected a positive integer" if least == 1
                        else f"expected an integer >= {least}")
    return value


def _parse_options(data) -> Options:
    opts = Options()
    if data is None:
        return opts
    if not isinstance(data, dict):
        raise SpecError("options", "expected an object")
    known = {"m_grid", "t_max", "decimal", "tolerance", "ceiling", "clamp", "jobs"}
    for key in data:
        if key not in known:
            raise SpecError(f"options.{key}", "unknown option")
    if "m_grid" in data:
        grid = data["m_grid"]
        if not isinstance(grid, list) or not grid:
            raise SpecError("options.m_grid", "expected a nonempty list of levels")
        values = tuple(positive_int(m, f"options.m_grid[{i}]") for i, m in enumerate(grid))
        if list(values) != sorted(set(values)):
            raise SpecError("options.m_grid", "levels must be strictly increasing")
        opts.m_grid = values
    if "t_max" in data:
        opts.t_max = positive_int(data["t_max"], "options.t_max", least=2)
    if "decimal" in data:
        d = data["decimal"]
        if isinstance(d, bool) or not isinstance(d, int) or d < 0:
            raise SpecError("options.decimal", "expected an integer >= 0")
        opts.decimal = d
    if "tolerance" in data:
        tol = _rational(data["tolerance"], "options.tolerance")
        if tol <= 0:
            raise SpecError("options.tolerance", "tolerance must be positive")
        opts.tolerance = tol
    for key in ("ceiling", "clamp"):
        if key in data:
            if not isinstance(data[key], bool):
                raise SpecError(f"options.{key}", "expected true or false")
            setattr(opts, key, data[key])
    if "jobs" in data:  # accepted for compatibility; has no effect
        positive_int(data["jobs"], "options.jobs")
    return opts


def _parse_filtration(data, rank) -> PLConcave:
    if not isinstance(data, dict) or "branches" not in data:
        raise SpecError("filtration", 'expected an object with a "branches" list')
    branches = data["branches"]
    if not isinstance(branches, list) or not branches:
        raise SpecError("filtration.branches", "expected a nonempty list")
    parsed = []
    for i, b in enumerate(branches):
        path = f"filtration.branches[{i}]"
        if not isinstance(b, dict) or "linear" not in b:
            raise SpecError(path, 'expected an object with a "linear" vector')
        linear = _vector(b["linear"], rank, f"{path}.linear")
        constant = _rational(b.get("constant", "0"), f"{path}.constant")
        parsed.append((linear, constant))
    return PLConcave.make(parsed)


def decode_spec(text) -> dict:
    """The JSON object of a specification's text, not yet validated."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("<json>", f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecError("<json>", "top level must be an object")
    return data


def parse_spec(source) -> ProblemSpec:
    """Parse a problem specification from a JSON string, file path, or dict.

    The returned spec is fully validated: rationals are exact, dimensions
    agree, the polarization is a genuine Reeb field, and the filtration is
    admissible (unless the clamp option is on).
    """
    if isinstance(source, dict):
        data = source
    else:
        text = source
        if isinstance(source, (str, os.PathLike)) and os.path.exists(source):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        data = decode_spec(text)

    known = {"rank", "sigma_rays", "xi", "eta", "filtration", "options"}
    for key in data:
        if key not in known:
            raise SpecError(key, "unknown field")
    if "rank" not in data:
        raise SpecError("rank", "missing")
    rank = data["rank"]
    if isinstance(rank, bool) or not isinstance(rank, int) or not 1 <= rank <= MAX_RANK:
        raise SpecError("rank", f"expected an integer between 1 and {MAX_RANK}")
    if "sigma_rays" not in data:
        raise SpecError("sigma_rays", "missing")
    rays = data["sigma_rays"]
    if not isinstance(rays, list) or not rays:
        raise SpecError("sigma_rays", "expected a nonempty list of rays")
    parsed_rays = []
    for i, r in enumerate(rays):
        ray = _vector(r, rank, f"sigma_rays[{i}]")
        if any(x.denominator != 1 for x in ray):
            raise SpecError(f"sigma_rays[{i}]", "rays must have integer entries")
        parsed_rays.append(ray)
    if "xi" not in data:
        raise SpecError("xi", "missing")
    xi = _vector(data["xi"], rank, "xi")
    eta = _vector(data["eta"], rank, "eta") if data.get("eta") is not None else None
    options = _parse_options(data.get("options"))
    filtration = None
    if data.get("filtration") is not None:
        filtration = _parse_filtration(data["filtration"], rank)
    spec = ProblemSpec(rank, parsed_rays, xi, eta, filtration, options)
    spec.setup()  # validate eagerly so failures carry field paths; kept for reuse
    return spec
