"""Command-line front end.

Commands take a JSON problem specification and emit exact rationals, with
decimal renderings for reading convenience.  Output bytes are a pure
function of (spec, command, flags): no timestamps, no float formatting.
The worker count (``--jobs``, ``REEBVOL_JOBS`` or ``options.jobs``) is
accepted for compatibility; it has no effect, but each source given must
be a positive integer.

Exit codes: 0 success, 2 specification/parse failure, 3 mathematical
domain error, 4 failed gating verdict.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import cache

from .arith import decimal_str, fmt, rat
from .errors import MathError, ReebvolError, SpecError
from .grading import spectrum_histogram
from .invariants import (
    Verdict,
    consistency_report,
    convergence_check,
    d_vol,
    energy_pxi,
    energy_tc,
    quasi_regular_check,
    vol_xi,
)
from .plconcave import legendre
from .problem import decode_spec, parse_spec, positive_int

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_MATH = 3
EXIT_VERDICT = 4


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="reebvol",
        description=(
            "Exact volumes, jumping-number spectra, and energies of "
            "piecewise-linear filtrations on polarized toric cones."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="path to a JSON problem specification ('-' for stdin)")
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.add_argument("--decimal", type=int, default=None, metavar="K",
                       help="decimal digits in renderings (default 6)")
        p.add_argument("--tolerance", default=None, metavar="RAT",
                       help="relative gate for convergence verdicts, e.g. 1/100")
        p.add_argument("--ceiling", action="store_true",
                       help="round filtration values down to integers (integer-level mode)")
        p.add_argument("--clamp", action="store_true",
                       help="replace filtration values by max(value, 0); leaves the standard axioms")
        p.add_argument("--jobs", type=int, default=None, metavar="K",
                       help="accepted for compatibility; has no effect (env REEBVOL_JOBS)")
        return p

    add("volume", "exact volume of the polarization")
    add("derivative", "directional derivative of the volume (needs eta)")
    p = add("jumping", "jumping-number spectrum at one level")
    p.add_argument("--m", type=int, required=True, metavar="M")
    p = add("converge", "level averages against the exact limit")
    p.add_argument("--m-grid", default=None, metavar="A,B,C",
                   help="comma-separated levels (default from spec options)")
    add("energy", "energies of the degeneration direction and the filtration")
    p = add("stilde", "per-degree averages for an integral polarization")
    p.add_argument("--t-max", type=int, default=200, metavar="T")
    p = add("legendre", "transform value of the homogenized filtration on the slice")
    p.add_argument("--v", required=True, metavar="X,Y,...",
                   help="comma-separated rational direction")
    add("report", "all routes with cross-validation verdicts")
    return parser


def _load(args):
    """Read the problem specification and fold the flag overrides in before
    validation, so e.g. --clamp can admit a filtration that the default
    admissibility requirement would reject."""
    if args.spec == "-":
        text = sys.stdin.read()
    else:
        if not os.path.exists(args.spec):
            raise SpecError("spec", f"no such file: {args.spec}")
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = decode_spec(text)
    options = data.get("options")
    if options is not None and not isinstance(options, dict):
        raise SpecError("options", "expected an object")
    options = dict(options or {})
    if args.ceiling:
        options["ceiling"] = True
    if args.clamp:
        options["clamp"] = True
    if args.jobs is not None:
        positive_int(args.jobs, "jobs")
    env_jobs = os.environ.get("REEBVOL_JOBS")
    if env_jobs:
        try:
            env_jobs = int(env_jobs)
        except ValueError:
            pass  # the check below rejects the text
        positive_int(env_jobs, "REEBVOL_JOBS")
    if args.decimal is not None:
        if args.decimal < 0:
            raise SpecError("decimal", "must be >= 0")
        options["decimal"] = args.decimal
    if args.tolerance is not None:
        try:
            tol = rat(args.tolerance)
        except (ValueError, ZeroDivisionError):
            raise SpecError("tolerance", "not a rational")
        if tol <= 0:
            raise SpecError("tolerance", "must be positive")
        options["tolerance"] = args.tolerance
    spec = parse_spec(dict(data, options=options))
    return spec, spec.setup()


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _emit_json(out, payload):
    out.write(json.dumps(payload, indent=2))
    out.write("\n")


def _emit_csv(out, header, rows):
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit_kv_table(out, rows):
    for row in rows:
        out.write("  ".join(str(c) for c in row))
        out.write("\n")


def _scalar_payload(name, value, digits):
    return {name: fmt(value), "decimal": decimal_str(value, digits)}


def _run_scalar(out, args, name, value, digits):
    if args.format == "json":
        _emit_json(out, _scalar_payload(name, value, digits))
    elif args.format == "csv":
        _emit_csv(out, [name, "decimal"], [[fmt(value), decimal_str(value, digits)]])
    else:
        out.write(f"{fmt(value)}\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_volume(out, args, spec, setup):
    _run_scalar(out, args, "vol_xi", vol_xi(setup), spec.options.decimal)
    return EXIT_OK


def _cmd_derivative(out, args, spec, setup):
    if setup.eta is None:
        raise SpecError("eta", "the derivative command needs a direction")
    _run_scalar(out, args, "d_vol", d_vol(setup), spec.options.decimal)
    return EXIT_OK


def _require_filtration(setup, command):
    if setup.psi is None:
        raise SpecError("filtration", f"the {command} command needs a filtration or eta")


def _cmd_jumping(out, args, spec, setup):
    if args.m < 0:
        raise SpecError("m", "level must be >= 0")
    _require_filtration(setup, "jumping")
    hist = spectrum_histogram(setup.graded(), args.m)
    digits = spec.options.decimal
    rows = [[fmt(v), str(c), decimal_str(v, digits)] for v, c in hist]
    if args.format == "json":
        _emit_json(out, {
            "m": args.m,
            "spectrum": [
                {"value": fmt(v), "multiplicity": c, "decimal": decimal_str(v, digits)}
                for v, c in hist
            ],
        })
    elif args.format == "csv":
        _emit_csv(out, ["value", "multiplicity", "decimal"], rows)
    else:
        _emit_kv_table(out, [["value", "multiplicity", "decimal"]] + rows)
    return EXIT_OK


def _cmd_converge(out, args, spec, setup):
    grid = spec.options.m_grid
    if args.m_grid:
        try:
            grid = tuple(int(x) for x in args.m_grid.split(","))
        except ValueError:
            raise SpecError("m-grid", "expected comma-separated integers")
        if not grid or list(grid) != sorted(set(grid)) or grid[0] < 1:
            raise SpecError("m-grid", "levels must be strictly increasing positives")
    _require_filtration(setup, "converge")
    s_limit, trace, (mono, last) = convergence_check(setup, grid, spec.options.tolerance)
    digits = spec.options.decimal
    rows = [[str(m), fmt(val), decimal_str(val, digits), fmt(err)] for m, val, err in trace]
    verdict = "pass" if mono.passed and last.passed else "fail"
    if args.format == "json":
        _emit_json(out, {
            "s_exact": fmt(s_limit),
            "trace": [
                {"m": int(r[0]), "s_m": r[1], "decimal": r[2], "abs_error": r[3]}
                for r in rows
            ],
            "monotone": mono.passed,
            "final_within_tolerance": last.passed,
            "verdict": verdict,
        })
    elif args.format == "csv":
        _emit_csv(out, ["m", "s_m", "decimal", "abs_error"], rows)
        out.write(f"# s_exact,{fmt(s_limit)},verdict,{verdict}\r\n")
    else:
        _emit_kv_table(out, [["m", "s_m", "decimal", "abs_error"]] + rows)
        out.write(f"s_exact  {fmt(s_limit)}  {decimal_str(s_limit, digits)}\n")
        out.write(f"verdict  {verdict}\n")
    return EXIT_OK if verdict == "pass" else EXIT_VERDICT


def _cmd_energy(out, args, spec, setup):
    digits = spec.options.decimal
    rows = []
    if setup.eta is not None:
        e = energy_tc(setup)
        rows.append(("energy_tc", e))
    if setup.psi is not None and setup.n >= 2:
        paper, cone = energy_pxi(setup)
        rows.append(("energy_pxi_paper", paper))
        rows.append(("energy_pxi_cone", cone))
    if not rows:
        raise SpecError("eta", "the energy command needs eta or a filtration")
    if args.format == "json":
        _emit_json(out, {k: {"exact": fmt(v), "decimal": decimal_str(v, digits)}
                         for k, v in rows})
    elif args.format == "csv":
        _emit_csv(out, ["quantity", "exact", "decimal"],
                  [[k, fmt(v), decimal_str(v, digits)] for k, v in rows])
    else:
        _emit_kv_table(out, [[k, fmt(v), decimal_str(v, digits)] for k, v in rows])
    return EXIT_OK


def _cmd_stilde(out, args, spec, setup):
    if args.t_max < 2:
        raise SpecError("t-max", "must be >= 2")
    _require_filtration(setup, "stilde")
    result = quasi_regular_check(setup, args.t_max, spec.options.tolerance)
    digits = spec.options.decimal
    rows = []
    for row in result["trace"]:
        val = row["s_tilde"]
        rows.append([
            str(row["t"]), str(row["n_t"]),
            fmt(val) if val is not None else "empty",
            decimal_str(val, digits) if val is not None else "",
        ])
    verdicts = result["verdicts"]
    failed = [v for v in verdicts if v.status == "fail"]
    if args.format == "json":
        _emit_json(out, {
            "trace": [
                {"t": row["t"], "n_t": row["n_t"],
                 "s_tilde": fmt(row["s_tilde"]) if row["s_tilde"] is not None else None}
                for row in result["trace"]
            ],
            "extrapolated": fmt(result["extrapolated"]) if result.get("extrapolated") is not None else None,
            "verdicts": [v.to_dict() for v in verdicts],
        })
    elif args.format == "csv":
        _emit_csv(out, ["t", "n_t", "s_tilde", "decimal"], rows)
    else:
        _emit_kv_table(out, [["t", "n_t", "s_tilde", "decimal"]] + rows)
        for v in verdicts:
            _print_verdict_line(out, v)
    return EXIT_VERDICT if failed else EXIT_OK


def _cmd_legendre(out, args, spec, setup):
    _require_filtration(setup, "legendre")
    try:
        direction = tuple(rat(x) for x in args.v.split(","))
    except (ValueError, ZeroDivisionError):
        raise SpecError("v", "expected comma-separated rationals")
    if len(direction) != setup.n:
        raise SpecError("v", f"expected {setup.n} components")
    value = legendre(setup.psi_tilde, setup.p, direction)
    _run_scalar(out, args, "legendre", value, spec.options.decimal)
    return EXIT_OK


def _print_verdict_line(out, v: Verdict):
    detail = v.reason if v.skipped else (
        f"lhs={fmt(v.lhs)} rhs={fmt(v.rhs)} ({v.relation})"
        if v.lhs is not None else ""
    )
    out.write(f"verdict {v.name}  {v.status.upper()}  {detail}\n")


def _cmd_report(out, args, spec, setup):
    report = consistency_report(
        setup,
        m_grid=spec.options.m_grid,
        t_max=spec.options.t_max,
        tolerance=spec.options.tolerance,
    )
    digits = spec.options.decimal
    if args.format == "json":
        _emit_json(out, report.to_dict(digits))
    elif args.format == "csv":
        _emit_csv(
            out,
            ["verdict", "status", "lhs", "rhs", "relation"],
            [
                [v.name, v.status,
                 fmt(v.lhs) if v.lhs is not None else "",
                 fmt(v.rhs) if v.rhs is not None else "", v.relation]
                for v in report.verdicts
            ],
        )
    else:
        rows = [["vol_xi", fmt(report.vol), decimal_str(report.vol, digits)]]
        if report.d_vol is not None:
            rows.append(["d_vol", fmt(report.d_vol), decimal_str(report.d_vol, digits)])
        if report.s_exact is not None:
            rows.append(["s_exact", fmt(report.s_exact), decimal_str(report.s_exact, digits)])
        if report.energy_tc is not None:
            rows.append(["energy_tc", fmt(report.energy_tc),
                         decimal_str(report.energy_tc, digits)])
        if report.energy_pxi is not None:
            rows.append(["energy_pxi_paper", fmt(report.energy_pxi[0]),
                         decimal_str(report.energy_pxi[0], digits)])
            rows.append(["energy_pxi_cone", fmt(report.energy_pxi[1]),
                         decimal_str(report.energy_pxi[1], digits)])
        if report.c_n_ratio is not None:
            rows.append(["c_n_ratio", fmt(report.c_n_ratio),
                         decimal_str(report.c_n_ratio, digits)])
        _emit_kv_table(out, rows)
        for m, s, e in report.s_m_trace:
            out.write(f"s_m[{m}]  {fmt(s)}  abs_error={fmt(e)}\n")
        for row in report.s_tilde_trace:
            val = row["s_tilde"]
            out.write(
                f"s_tilde[{row['t']}]  {fmt(val) if val is not None else 'empty'}  "
                f"n_t={row['n_t']}\n"
            )
        for v in report.verdicts:
            _print_verdict_line(out, v)
    return EXIT_VERDICT if report.failed() else EXIT_OK


_COMMANDS = {
    "volume": _cmd_volume,
    "derivative": _cmd_derivative,
    "jumping": _cmd_jumping,
    "converge": _cmd_converge,
    "energy": _cmd_energy,
    "stilde": _cmd_stilde,
    "legendre": _cmd_legendre,
    "report": _cmd_report,
}


def run(argv, out=None, err=None) -> int:
    """Parse arguments, dispatch, and return the exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec, setup = _load(args)
        return _COMMANDS[args.command](out, args, spec, setup)
    except SpecError as exc:
        err.write(f"specification error: {exc}\n")
        return EXIT_SPEC
    except MathError as exc:
        err.write(f"math error: {exc}\n")
        return EXIT_MATH
    except ReebvolError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_VERDICT


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
