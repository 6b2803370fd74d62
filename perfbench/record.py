"""Record the expected result of every catalogue op, each confirmed by a
second route before it is stored.

    python3 perfbench/record.py [workload ...]

writes ``perfbench/data/catalog.json`` (the catalogue) and
``perfbench/data/expected.json`` (one entry per op).  With workload names
only those workloads are recomputed; entries of the others are kept when
their op is unchanged.  Recording refuses to store a value that its second
route contradicts, and exits 1 listing every contradiction.

Second routes:

- ``vol_xi`` equals rank! times the Lebesgue volume of the sub-level body;
- ``d_vol`` equals (rank+1) vol_xi s_exact(linear eta), for eta in sigma;
- ``s_exact`` equals rank! times the cone-normalized slice energy, and
  ``energy_pxi`` equals (S/rank, S/rank!);
- ``mu_limit_cdf`` has total mass vol_xi/rank! and integrates to S vol(Q);
- lattice counts agree across ``jobs`` values, with the histogram engine,
  and with a bounding-box oracle at small levels; per-degree counts and
  sums are differences of lattice counts and sums at levels t and t-1;
- the variants of a geometry slot, unimodular transports of one spec, share
  one value;
- CLI outputs are parsed back and compared with library values, verdict
  statuses are re-derived from their exact sides, and the acceptance
  corpus reports its hand-checked S.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import ops  # noqa: E402
from reebvol.grading import spectrum_histogram  # noqa: E402
from reebvol.invariants import energy_pxi, s_exact, vol_xi  # noqa: E402
from reebvol.lattice import BranchData, count_points, sum_values  # noqa: E402
from reebvol.plconcave import homogenize, linear_form  # noqa: E402
from reebvol.polyhedra import volume  # noqa: E402
from reebvol.problem import parse_spec  # noqa: E402

DATA = os.path.join(HERE, "data")
CATALOG_FILE = os.path.join(DATA, "catalog.json")
EXPECTED_FILE = os.path.join(DATA, "expected.json")


def op_digest(op) -> str:
    return hashlib.sha256(json.dumps(op, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def spec_value(spec, u):
    """Filtration value at a weight, straight from the spec's JSON."""
    opts = spec.get("options", {})
    v = min(sum(Fraction(a) * x for a, x in zip(b["linear"], u)) + Fraction(b["constant"])
            for b in spec["filtration"]["branches"])
    if opts.get("clamp"):
        v = max(v, Fraction(0))
    if opts.get("ceiling"):
        v = Fraction(math.floor(v))
    return v


def box_points(q, m):
    """Lattice points of m*Q by bounding-box enumeration."""
    n = q.rank
    scaled = [[Fraction(x) * m for x in v] for v in q.vertices]
    los = [math.ceil(min(v[i] for v in scaled)) for i in range(n)]
    his = [math.floor(max(v[i] for v in scaled)) for i in range(n)]
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        if all(sum(a * x for a, x in zip(normal, point)) <= b * m for normal, b in q.halfspaces):
            yield point


def box_histogram(spec, q, m):
    hist = {}
    for u in box_points(q, m):
        v = spec_value(spec, u)
        hist[v] = hist.get(v, 0) + 1
    return tuple(sorted(hist.items()))


def branch_data(setup):
    return BranchData.from_plconcave(setup.psi)


# ---------------------------------------------------------------------------
# second routes, one per call kind; each returns a list of contradictions
# ---------------------------------------------------------------------------


def confirm_library(spec, call, value):
    setup = parse_spec(spec).setup()
    n = setup.n
    fact = math.factorial(n)
    fn = call["fn"]
    bad = []

    def need(ok, what):
        if not ok:
            bad.append(what)

    if fn == "vol_xi":
        need(value == fact * volume(setup.q), "vol_xi != rank! vol(Q)")
    elif fn == "d_vol":
        eta = setup.eta
        need(setup.sigma.contains(eta), "eta outside sigma")
        need(value == (n + 1) * vol_xi(setup) * s_exact(setup, linear_form(eta)),
             "d_vol != (n+1) vol s_exact(linear eta)")
    elif fn == "s_exact":
        need(value == fact * energy_pxi(setup)[1], "s_exact != rank! energy_pxi cone")
    elif fn == "energy_pxi":
        s = s_exact(setup)
        need(value == (s / n, s / fact), "energy_pxi != (S/n, S/n!)")
    elif fn == "mu_limit_cdf":
        need(value.total == vol_xi(setup) / fact, "profile mass != vol_xi/n!")
        need(value.integral() == s_exact(setup) * volume(setup.q), "profile integral != S vol(Q)")
    elif fn in ("s_m", "spectrum_histogram", "count_points"):
        m = call["m"]
        g = setup.graded()
        hist = spectrum_histogram(g, m)
        total = sum(c for _, c in hist)
        need(total == count_points(setup.q, m, jobs=1), "histogram mass != count")
        need(count_points(setup.q, m, jobs=2) == total, "count with jobs=2 differs")
        weighted = sum(v * c for v, c in hist)
        need(weighted == sum_values(setup.q, m, branch_data(setup),
                                    floor_mode=setup.ceiling, clamp=setup.clamp),
             "histogram sum != lattice sum")
        for small in (1, 2, 3):
            need(spectrum_histogram(g, small) == box_histogram(spec, setup.q, small),
                 f"histogram at m={small} != bounding-box oracle")
            need(count_points(setup.q, small) == sum(1 for _ in box_points(setup.q, small)),
                 f"count at m={small} != bounding-box oracle")
        if fn == "s_m":
            need(value == weighted / (m * total), "s_m != histogram mean / m")
        elif fn == "spectrum_histogram":
            need(value == hist, "histogram differs between calls")
        else:
            need(value == total, "count != histogram mass")
    elif fn in ("degree_count", "graded_s_tilde"):
        t = call["t"]
        n_t = count_points(setup.q, t) - count_points(setup.q, t - 1)
        if fn == "degree_count":
            need(value == n_t, "degree count != count(t) - count(t-1)")
        else:
            bd = branch_data(setup)
            level_sum = (sum_values(setup.q, t, bd, setup.ceiling, setup.clamp)
                         - sum_values(setup.q, t - 1, bd, setup.ceiling, setup.clamp))
            need(value * t * n_t == level_sum, "t N_t s_tilde != sum(t) - sum(t-1)")
    else:
        bad.append(f"no second route for {fn}")
    return bad


def _table(text):
    """Whitespace-split rows of a table output."""
    return [line.split() for line in text.splitlines() if line.strip()]


def _verdicts_consistent(verdicts, code):
    failed = False
    for v in verdicts:
        if v["status"] == "skip":
            continue
        lhs, rhs = Fraction(v["lhs"]), Fraction(v["rhs"])
        holds = lhs == rhs if v["relation"] == "eq" else lhs <= rhs
        if holds != (v["status"] == "pass"):
            return False
        failed = failed or not holds
    return code == (4 if failed else 0)


def confirm_cli(name, spec, argv, code, out):
    setup = parse_spec(spec).setup()
    n = setup.n
    cmd = argv[0]
    psi = setup.effective_psi()
    bad = []

    def need(ok, what):
        if not ok:
            bad.append(what)

    hand = [s for key, (_r, _x, _l, s) in catalog.ACCEPTANCE.items() if f"/{key}-" in name]
    s_val = s_exact(setup) if psi is not None else None
    if hand:
        need(s_val == hand[0], "S differs from the hand-checked corpus value")
    if cmd == "report" and "json" in argv:
        d = json.loads(out)
        need(d["vol_xi"] == str(vol_xi(setup)), "report vol_xi != library")
        need(d["s_exact"] == (None if s_val is None else str(s_val)), "report s_exact != library")
        need(_verdicts_consistent(d["verdicts"], code), "verdict status or exit code inconsistent")
    elif cmd == "report":
        rows = {r[0]: r for r in _table(out)}
        need(rows["vol_xi"][1] == str(vol_xi(setup)), "report vol_xi != library")
        if s_val is not None:
            need(rows["s_exact"][1] == str(s_val), "report s_exact != library")
        fails = [r for r in _table(out) if r[0] == "verdict" and r[2] == "FAIL"]
        need(code == (4 if fails else 0), "exit code inconsistent with FAIL lines")
    elif cmd == "converge":
        rows = _table(out)
        need(rows[-2][:2] == ["s_exact", str(s_val)], "converge s_exact != library")
        need(code == (0 if rows[-1] == ["verdict", "pass"] else 4), "converge exit code")
    elif cmd == "energy":
        rows = {r[0]: Fraction(r[1]) for r in _table(out)}
        fact = math.factorial(n)
        need(rows["energy_pxi_paper"] == s_val / n, "paper energy != S/n")
        need(rows["energy_pxi_cone"] == s_val / fact, "cone energy != S/n!")
        if setup.eta is not None and setup.sigma.contains(setup.eta):
            need(rows["energy_tc"] == s_exact(setup, linear_form(setup.eta)), "energy_tc != S(eta)")
    elif cmd == "stilde":
        for r in _table(out)[1:]:
            if r[0] == "verdict":
                continue
            t, n_t = int(r[0]), int(r[1])
            need(n_t == count_points(setup.q, t) - count_points(setup.q, t - 1),
                 f"n_t at t={t} != count difference")
    elif cmd == "legendre":
        v = [Fraction(x) for x in argv[-1].split("=", 1)[1].split(",")]
        value = Fraction(out.strip())
        tilde = homogenize(psi)
        verts = setup.p.vertices

        def shifted(linear, u):
            return sum((a - b) * x for a, b, x in zip(linear, v, u))

        lower = max(min(shifted(b.linear, u) for b in tilde.branches) for u in verts)
        upper = min(max(shifted(b.linear, u) for u in verts) for b in tilde.branches)
        need(lower <= value <= upper, "legendre value outside its vertex bracket")
    elif cmd == "jumping":
        m = int(argv[argv.index("--m") + 1])
        rows = [(Fraction(r[0]), int(r[1])) for r in _table(out)[1:]]
        need(tuple(rows) == box_histogram(spec, setup.q, m), "spectrum != bounding-box oracle")
    else:
        bad.append(f"no second route for {cmd}")
    return bad


# ---------------------------------------------------------------------------


def record(workloads):
    cat = catalog.build()
    old = {}
    if os.path.exists(EXPECTED_FILE):
        with open(EXPECTED_FILE, encoding="utf-8") as fh:
            old = json.load(fh)["expected"]
    expected, problems = {}, []
    tmp = tempfile.mkdtemp(prefix="record-", dir=DATA)
    try:
        for wl in catalog.WORKLOADS:
            pass_seconds = 0.0
            for slot in cat["workloads"][wl]:
                times = []
                for op_id in slot["variants"]:
                    op = cat["ops"][op_id]
                    digest = op_digest(op)
                    if wl not in workloads and old.get(op_id, {}).get("op") == digest:
                        expected[op_id] = old[op_id]
                        continue
                    prepared = ops.PreparedOp(op_id, op, tmp)
                    start = time.perf_counter()
                    raw = prepared.invoke()
                    times.append(time.perf_counter() - start)
                    result = prepared.canonical(raw)
                    if op["call"]["fn"] == "cli":
                        code, out, err = raw
                        bad = confirm_cli(op_id, op["spec"], op["call"]["argv"], code, out)
                        if err:
                            bad.append("stderr: " + err.strip())
                    else:
                        bad = confirm_library(op["spec"], op["call"], raw)
                    if prepared.canonical(prepared.invoke()) != result:
                        bad.append("repeated call gave another result")
                    problems.extend(f"{op_id}: {b}" for b in bad)
                    expected[op_id] = dict(ops.expected_entry(result), op=digest)
                if wl == "geometry":
                    # every variant is a unimodular transport of one spec,
                    # and every geometry invariant is transport-invariant
                    values = {json.dumps({k: v for k, v in expected[o].items() if k != "op"})
                              for o in slot["variants"]}
                    if len(values) > 1:
                        problems.append(f"{slot['name']}: transports disagree")
                if times:
                    mean = sum(times) / len(times)
                    pass_seconds += mean
                    print(f"{slot['name']:36s}  mean {mean:8.4f}s  "
                          f"min {min(times):8.4f}s  max {max(times):8.4f}s", flush=True)
            if wl in workloads:
                print(f"== {wl}: about {pass_seconds:.2f}s per pass", flush=True)
    finally:
        for name in os.listdir(tmp):
            os.remove(os.path.join(tmp, name))
        os.rmdir(tmp)
    if problems:
        print("second routes contradict recorded values:", file=sys.stderr)
        for p in problems:
            print("  " + p, file=sys.stderr)
        return 1
    os.makedirs(DATA, exist_ok=True)
    with open(CATALOG_FILE, "w", encoding="utf-8") as fh:
        json.dump(dict(cat, sha256=catalog.digest(cat)), fh, sort_keys=True)
        fh.write("\n")
    with open(EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump({"catalog_sha256": catalog.digest(cat), "expected": expected}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    started = time.perf_counter()
    chosen = sys.argv[1:] or list(catalog.WORKLOADS)
    unknown = [w for w in chosen if w not in catalog.WORKLOADS]
    if unknown:
        sys.exit(f"unknown workload(s): {', '.join(unknown)}")
    status = record(chosen)
    print(f"recorded in {time.perf_counter() - started:.1f}s", file=sys.stderr)
    sys.exit(status)
