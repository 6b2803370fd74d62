"""The benchmark's input catalogue: every op that any run can execute.

The catalogue is built from a fixed seed, so it is identical on every
machine and on every commit; ``record.py`` stores one expected result per
op in ``data/expected.json``.  A workload is a list of slots, one per
input family and call.  One pass of a workload runs every slot once, and
the run's ``--seed`` only chooses which of the slot's variants it uses.
Every pass therefore has the same mix of op kinds and sizes, which keeps
the end-to-end figures steady across seeds, while the seed still changes
the exact inputs.

Variants of one slot are built to cost about the same.  They are
unimodular transports of one spec (geometry, rank-3 and rank-4 CLI specs),
or differ by branch constants and a level in a narrow window (spectra), or
by a ``--v`` or ``--m`` argument (the CLI corpus).  Ops of a second or more
keep one input, since a transport moves their cost by up to 30%.

This module is stdlib-only and does not import the package under test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

CATALOG_SEED = 2106_13395
VARIANTS = 6
WORKLOADS = ("geometry", "spectra", "cli-report")

# ---------------------------------------------------------------------------
# small exact helpers (kept here so the catalogue does not depend on the
# package it measures)
# ---------------------------------------------------------------------------


def _str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _det(rows) -> int:
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, a in enumerate(rows[0]):
        if a:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * a * _det(minor)
    return total


def _mat_vec(a, v):
    return [sum(Fraction(x) * Fraction(y) for x, y in zip(row, v)) for row in a]


def _combo(rays, coeffs):
    n = len(rays[0])
    return [sum(Fraction(c) * r[i] for c, r in zip(coeffs, rays)) for i in range(n)]


def _unimodular(rng, n):
    """A random integer matrix of determinant +-1: one elementary shear
    times a signed permutation.  Entries stay small, so a transported spec
    costs about what the original does."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    i, j = rng.sample(range(n), 2)
    a[i][j] = rng.choice((-1, 1))
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) * x for x in a[p]] for p in perm]


def _hull(points):
    """Vertices of the convex hull of 2-d integer points, counter-clockwise."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


# ---------------------------------------------------------------------------
# cone families
# ---------------------------------------------------------------------------


def cube_rays(n):
    """Rays of the cone over the (n-1)-cube [-1, 1]^(n-1) at height 1."""
    return [list(s) + [1] for s in itertools.product((-1, 1), repeat=n - 1)]


def cross_rays(n):
    """Rays of the cone over the (n-1)-cross-polytope at height 1."""
    out = []
    for i in range(n - 1):
        for s in (-1, 1):
            r = [0] * (n - 1)
            r[i] = s
            out.append(r + [1])
    return out


def random_simplicial_rays(rng, n):
    while True:
        rays = [[rng.randint(-1, 2) for _ in range(n)] for _ in range(n)]
        if 1 <= abs(_det(rays)) <= 3:
            return rays


def random_polygon_rays(rng, k):
    """A cone over a lattice polygon with exactly k vertices."""
    while True:
        pts = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(k + 2)]
        hull = _hull(pts)
        if len(hull) == k:
            return [[x, y, 1] for x, y in hull]


ORTHANT = {n: [[int(i == j) for j in range(n)] for i in range(n)] for n in (2, 3, 4)}
A1_RAYS = [[1, 0], [1, 2]]
SQUARE_RAYS = [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]


def make_spec(rays, xi, branches=None, eta=None, options=None):
    """A problem specification in the package's JSON format.  ``branches``
    are (linear, constant) pairs; every rational is written as a string."""
    spec = {
        "rank": len(xi),
        "sigma_rays": [[int(x) for x in r] for r in rays],
        "xi": [_str(x) for x in xi],
    }
    if eta is not None:
        spec["eta"] = [_str(x) for x in eta]
    if branches is not None:
        spec["filtration"] = {
            "branches": [
                {"linear": [_str(x) for x in lin], "constant": _str(c)} for lin, c in branches
            ]
        }
    if options:
        spec["options"] = options
    return spec


def transform_spec(spec, a):
    """Transport every vector of a spec by the unimodular matrix a."""
    out = dict(spec)
    out["sigma_rays"] = [[int(x) for x in _mat_vec(a, r)] for r in spec["sigma_rays"]]
    out["xi"] = [_str(x) for x in _mat_vec(a, [Fraction(x) for x in spec["xi"]])]
    if "eta" in spec:
        out["eta"] = [_str(x) for x in _mat_vec(a, [Fraction(x) for x in spec["eta"]])]
    if "filtration" in spec:
        out["filtration"] = {
            "branches": [
                {"linear": [_str(x) for x in _mat_vec(a, [Fraction(y) for y in b["linear"]])],
                 "constant": b["constant"]}
                for b in spec["filtration"]["branches"]
            ]
        }
    return out


def ray_sum_branches(rng, rays, k):
    """k distinct branches, each the sum of a nonempty subset of the rays of sigma;
    such forms pair nonnegatively with the weight cone, so the filtration
    is admissible."""
    out = []
    while len(out) < k:
        subset = rng.sample(rays, rng.randint(1, len(rays)))
        branch = ([sum(r[i] for r in subset) for i in range(len(rays[0]))], 0)
        if branch not in out:
            out.append(branch)
    return out


def transports(rng, spec):
    """The spec and VARIANTS-1 random unimodular transports of it."""
    return [spec] + [transform_spec(spec, _unimodular(rng, spec["rank"]))
                     for _ in range(VARIANTS - 1)]


def interior_xi(rng, rays, kind):
    """A polarization in the interior of sigma: a positive combination of all
    rays, integral or with fractional coefficients."""
    if kind == "int":
        coeffs = [1] * len(rays)
    else:
        coeffs = [rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), 1)) for _ in rays]
        if all(Fraction(c).denominator == 1 for c in coeffs):
            coeffs[0] = Fraction(1, 2)
    return _combo(rays, coeffs)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _Workload:
    def __init__(self, workload):
        self.workload = workload
        self.slots = []
        self.ops = {}

    def slot(self, name, variants):
        ids, seen = [], []
        for spec, call in variants:
            op = {"spec": spec, "call": call}
            if op in seen:
                continue
            seen.append(op)
            op_id = f"{self.workload}/{name}/{len(ids)}"
            self.ops[op_id] = op
            ids.append(op_id)
        self.slots.append({"name": name, "variants": ids})


def _geometry(rng):
    b = _Workload("geometry")

    def family(tag, make_rays, plan):
        """One slot per (op, branch count, xi kind[, "fixed"]) of
        the plan.  The slot's base spec is drawn from the family, and its
        variants are unimodular transports of it, which leave every
        invariant unchanged; a "fixed" slot keeps the base spec only."""
        for op, n_branches, xi_kind, *fixed in plan:
            rays = make_rays()
            spec = make_spec(rays, interior_xi(rng, rays, xi_kind),
                             ray_sum_branches(rng, rays, n_branches),
                             eta=ray_sum_branches(rng, rays, 1)[0][0])
            variants = transports(rng, spec)
            if fixed:
                variants = variants[:1]
            b.slot(f"{tag}-{op}-{xi_kind}", [(s, {"fn": op}) for s in variants])

    # Random simplicial cones: cheap ops that every layer above arith sees.
    family("simplicial3", lambda: random_simplicial_rays(rng, 3), [
        ("vol_xi", 1, "int"), ("d_vol", 2, "rat"), ("s_exact", 2, "int"),
        ("energy_pxi", 3, "rat"), ("mu_limit_cdf", 2, "int"),
    ])
    family("simplicial4", lambda: random_simplicial_rays(rng, 4), [
        ("vol_xi", 3, "rat"), ("d_vol", 1, "int"), ("s_exact", 2, "rat"),
        ("energy_pxi", 2, "int"), ("mu_limit_cdf", 1, "int"),
    ])
    # Rank-3 polygon cones with 4-6 rays: hulls and pulling triangulations.
    for k in (4, 5, 6):
        family(f"polygon{k}", lambda k=k: random_polygon_rays(rng, k), [
            ("vol_xi", 2, "rat"), ("d_vol", 3, "int"),
            ("s_exact", 2, "int" if k != 5 else "rat"),
            ("energy_pxi", 2, "rat" if k != 5 else "int"),
        ])
    family("polygon5", lambda: random_polygon_rays(rng, 5), [("mu_limit_cdf", 1, "int", "fixed")])
    # Cones over cubes and cross-polytopes; rank 5 only in its cheap ops.
    family("cube3", lambda: cube_rays(3), [
        ("s_exact", 3, "rat"), ("energy_pxi", 3, "int"), ("mu_limit_cdf", 2, "int"),
    ])
    family("cross3", lambda: cross_rays(3), [
        ("s_exact", 3, "int"), ("energy_pxi", 3, "rat"), ("mu_limit_cdf", 2, "rat"),
    ])
    family("cube4", lambda: cube_rays(4), [
        ("vol_xi", 2, "int"), ("d_vol", 2, "rat"), ("s_exact", 2, "int"), ("energy_pxi", 2, "rat"),
    ])
    family("cross4", lambda: cross_rays(4), [
        ("vol_xi", 2, "rat"), ("d_vol", 2, "int"), ("s_exact", 2, "rat"), ("energy_pxi", 1, "int"),
    ])
    family("cube5", lambda: cube_rays(5), [
        ("vol_xi", 1, "int"), ("d_vol", 1, "rat"), ("energy_pxi", 1, "int", "fixed"),
    ])
    family("cross5", lambda: cross_rays(5), [("vol_xi", 1, "int", "fixed")])
    return b


def _spectra(rng):
    b = _Workload("spectra")

    def slot(tag, rays, xi, fn, hi, width, kind="plain", k=2, jobs=None):
        """One filtration per slot.  Variants differ by the branch constants
        and by a level (m, or the degree t) in [hi - width, hi]; the window
        is narrow enough that their costs stay within a few percent."""
        linears = [lin for lin, _ in ray_sum_branches(rng, rays, k)]
        if kind == "ceiling":
            # rational coefficients, so the floor actually changes values
            c = rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)))
            linears = [[c * x for x in lin] for lin in linears]
        constants = {"plain": (0, 1, 2), "ceiling": (0, Fraction(1, 3), Fraction(1, 2)),
                     "clamp": (-1, -2, -3)}[kind]
        key = "t" if fn in ("degree_count", "graded_s_tilde") else "m"
        calls = []
        for _ in range(VARIANTS):
            branches = [(lin, rng.choice(constants)) for lin in linears]
            spec = make_spec(rays, xi, branches,
                             options={kind: True} if kind != "plain" else None)
            call = {"fn": fn, key: rng.randint(hi - width, hi)}
            if jobs is not None:
                call["jobs"] = jobs
            calls.append((spec, call))
        b.slot(tag if kind == "plain" else f"{tag}-{kind}", calls)

    o2, o3, o4 = ORTHANT[2], ORTHANT[3], ORTHANT[4]
    w2, w3, w4 = (1, 2), (1, 2, 3), (1, 1, 2, 3)
    hist, count = "spectrum_histogram", "count_points"
    # rank 2 at levels up to 1000
    slot("orthant2-s_m", o2, w2, "s_m", 1000, 10)
    slot("orthant2-hist", o2, w2, hist, 1000, 10)
    slot("orthant2-s_m", o2, w2, "s_m", 1000, 10, "ceiling")
    slot("orthant2-hist", o2, w2, hist, 1000, 10, "clamp")
    slot("orthant2-count-j1", o2, w2, count, 1000, 10, jobs=1)
    slot("orthant2-count-j2", o2, w2, count, 1000, 10, jobs=2)
    slot("orthant2-s_tilde", o2, w2, "graded_s_tilde", 200, 4)
    slot("a1-s_m", A1_RAYS, (1, 1), "s_m", 1000, 10)
    slot("a1-hist", A1_RAYS, (1, 1), hist, 1000, 10)
    slot("a1-s_m", A1_RAYS, (1, 1), "s_m", 1000, 10, "clamp")
    slot("a1-degree_count", A1_RAYS, (1, 1), "degree_count", 200, 4)
    slot("a1-s_tilde", A1_RAYS, (1, 1), "graded_s_tilde", 200, 4)
    # rank 3 at levels up to 200, and the non-simplicial square cone
    slot("orthant3-s_m", o3, w3, "s_m", 200, 2)
    slot("orthant3-hist", o3, w3, hist, 200, 2)
    slot("orthant3-s_m", o3, w3, "s_m", 200, 2, "ceiling")
    slot("orthant3-hist", o3, w3, hist, 200, 2, "clamp")
    slot("orthant3-count-j1", o3, w3, count, 200, 2, jobs=1)
    slot("orthant3-count-j2", o3, w3, count, 200, 2, jobs=2)
    slot("orthant3-degree_count", o3, w3, "degree_count", 200, 2)
    slot("orthant3-s_tilde", o3, w3, "graded_s_tilde", 200, 2)
    slot("square-s_m", SQUARE_RAYS, (1, 1, 2), "s_m", 100, 1, k=3)
    slot("square-hist", SQUARE_RAYS, (1, 1, 2), hist, 100, 1, "ceiling", k=3)
    slot("square-count-j2", SQUARE_RAYS, (1, 1, 2), count, 120, 1, k=3, jobs=2)
    slot("square-degree_count", SQUARE_RAYS, (1, 1, 2), "degree_count", 200, 2, k=3)
    slot("square-s_tilde", SQUARE_RAYS, (1, 1, 2), "graded_s_tilde", 100, 1, k=3)
    # rank 4 at level 40, per-degree at t = 64
    slot("orthant4-s_m", o4, w4, "s_m", 40, 0)
    slot("orthant4-hist", o4, w4, hist, 40, 0, "ceiling")
    slot("orthant4-s_m", o4, w4, "s_m", 40, 0, "clamp")
    slot("orthant4-count-j2", o4, w4, count, 40, 0, jobs=2)
    slot("orthant4-degree_count", o4, w4, "degree_count", 64, 0)
    slot("orthant4-s_tilde", o4, w4, "graded_s_tilde", 64, 0)
    return b


ACCEPTANCE = {
    # name: (rays, xi, linear branches, hand-checked S of the filtration)
    "orthant2-xi12": (ORTHANT[2], (1, 2), ((1, 0), (0, 1)), Fraction(1, 9)),
    "orthant3-xi111": (ORTHANT[3], (1, 1, 1), ((1, 0, 0), (0, 1, 0)), Fraction(1, 8)),
    "orthant3-xi123": (ORTHANT[3], (1, 2, 3), ((1, 0, 0), (0, 1, 0)), Fraction(1, 12)),
    "a1-xi11": (A1_RAYS, (1, 1), ((1, 0), (1, 2)), Fraction(1, 3)),
    "orthant2-xi11": (ORTHANT[2], (1, 1), ((1, 0), (0, 1)), Fraction(1, 6)),  # the anchor
}
RANK4_OPTIONS = {"m_grid": [4, 8, 16], "t_max": 32}


def _cli(rng):
    b = _Workload("cli-report")

    def commands(spec, integral):
        n = spec["rank"]
        v = ",".join(_str(Fraction(rng.randint(-2, 2), rng.randint(1, 3))) for _ in range(n))
        out = {
            "report": ["report", "{spec}"],
            "report-json": ["report", "{spec}", "--format", "json"],
            "converge": ["converge", "{spec}"],
            "energy": ["energy", "{spec}"],
            "legendre": ["legendre", "{spec}", f"--v={v}"],
            "jumping": ["jumping", "{spec}", "--m", str(rng.randint(4, 12))],
        }
        if integral:
            out["stilde"] = ["stilde", "{spec}", "--t-max", "64" if n < 4 else "32"]
        return out

    # The acceptance corpus, its anchor and the square cone: every command,
    # on the same specs every pass (only the --v and --m arguments vary).
    fixed = {name: make_spec(rays, xi, [(lin, 0) for lin in lins])
             for name, (rays, xi, lins, _s) in ACCEPTANCE.items()}
    fixed["square-xi112"] = make_spec(
        SQUARE_RAYS, (1, 1, 2), [((0, 0, 1), 0), ((1, 0, 1), 0), ((1, 1, 1), 0)])
    for name, spec in fixed.items():
        per_command = {}
        for _ in range(VARIANTS):
            for cmd, argv in commands(spec, True).items():
                per_command.setdefault(cmd, []).append((spec, {"fn": "cli", "argv": argv}))
        for cmd, variants in per_command.items():
            b.slot(f"{name}-{cmd}", variants)

    # Rank-4 cubes and cross-polytopes, integral and rational xi.  Each
    # variant is a unimodular transport of one base spec.
    rank4 = {
        "cube4-int": make_spec(cube_rays(4), (0, 0, 0, 2), [((0, 0, 0, 1), 0), ((1, 1, 0, 2), 0)],
                               eta=(0, 0, 0, 1), options=RANK4_OPTIONS),
        "cube4-rat": make_spec(cube_rays(4), (Fraction(1, 3), 0, 0, 2),
                               [((0, 0, 0, 1), 0), ((1, 1, 0, 2), 0)], options=RANK4_OPTIONS),
        "cross4-int": make_spec(cross_rays(4), (0, 0, 0, 3), [((0, 0, 0, 1), 0), ((1, 0, 0, 2), 0)],
                                eta=(1, 0, 0, 2), options=RANK4_OPTIONS),
        "cross4-rat": make_spec(cross_rays(4), (0, Fraction(1, 2), 0, 3),
                                [((0, 0, 0, 1), 0), ((1, 0, 0, 2), 0)], options=RANK4_OPTIONS),
    }
    # (command, fixed): an op of a second or more keeps one input, because
    # its cost moves with the transport by up to 30%.
    plan = {
        "cube4-int": (("report", True), ("stilde", True), ("jumping", False)),
        "cube4-rat": (("converge", False), ("legendre", False)),
        "cross4-int": (("report-json", True), ("energy", False)),
        "cross4-rat": (("converge", False), ("jumping", False)),
    }
    for name, spec in rank4.items():
        per_command = {}
        for _ in range(VARIANTS):
            moved = transform_spec(spec, _unimodular(rng, 4))
            cmds = commands(moved, name.endswith("int"))
            for cmd, _fixed in plan[name]:
                per_command.setdefault(cmd, []).append((moved, {"fn": "cli", "argv": cmds[cmd]}))
        for cmd, fixed in plan[name]:
            variants = per_command[cmd][:1] if fixed else per_command[cmd]
            b.slot(f"{name}-{cmd}", variants)

    # A seeded draw of rank-3 specs: one random simplicial or polygon cone
    # per command, its variants unimodular transports.
    for i, cmd in enumerate(("report", "report-json", "converge", "energy", "stilde",
                             "legendre", "jumping")):
        rays = random_simplicial_rays(rng, 3) if i % 2 == 0 else random_polygon_rays(rng, 4)
        base = make_spec(rays, interior_xi(rng, rays, "int"), ray_sum_branches(rng, rays, 2),
                         eta=ray_sum_branches(rng, rays, 1)[0][0])
        b.slot(f"rank3-{cmd}", [(spec, {"fn": "cli", "argv": commands(spec, True)[cmd]})
                                for spec in transports(rng, base)])
    return b


def build():
    """The whole catalogue: {"workloads": {name: [slot, ...]}, "ops": {id: op}}.

    Every op is {"spec": <spec JSON object>, "call": {"fn": ..., ...}}; for
    a CLI op the call holds an argv whose "{spec}" entry is replaced by the
    path of a file holding the spec.
    """
    rng = random.Random(CATALOG_SEED)
    workloads, ops = {}, {}
    for name, make in (("geometry", _geometry), ("spectra", _spectra), ("cli-report", _cli)):
        built = make(rng)
        workloads[name] = built.slots
        ops.update(built.ops)
    return {"workloads": workloads, "ops": ops}


def digest(catalog) -> str:
    """sha256 of the catalogue's canonical JSON; recorded with the expected
    values so that stale data is refused."""
    text = json.dumps(catalog, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Draw:
    """The seeded op sequence of one run.  Each slot walks through a seeded
    permutation of its variants, so a run uses every variant of a slot once
    before it repeats any; each pass is shuffled."""

    def __init__(self, catalog, workload, seed):
        self.slots = catalog["workloads"][workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.queues = {slot["name"]: [] for slot in self.slots}

    def next_pass(self):
        """Op ids of one pass: every slot once."""
        out = []
        for slot in self.slots:
            queue = self.queues[slot["name"]]
            if not queue:
                queue.extend(self.rng.sample(slot["variants"], len(slot["variants"])))
            out.append(queue.pop())
        self.rng.shuffle(out)
        return out
