"""Executing one catalogue op against the package, with a canonical result.

Every call goes through a module attribute looked up at call time
(``invariants.s_exact``, ``lattice.count_points``, ...), so the spans that
``tracing.py`` installs on those attributes see the benchmark's calls.

The canonical result of an op is a string: an exact rational, a list of
them, or for a CLI op its exit code, stdout length and stdout sha256.
Long canonical strings are compared through their sha256.
"""

from __future__ import annotations

import hashlib
import io
import json
import os

from reebvol import cli, grading, invariants, lattice, problem

LONG = 160


def canonical(value) -> str:
    """Exact, order-preserving text form of a library result."""
    if isinstance(value, (tuple, list)):
        return "[" + ";".join(canonical(v) for v in value) + "]"
    if hasattr(value, "breakpoints"):  # a superlevel profile
        return (f"breakpoints={canonical(value.breakpoints)};polys={canonical(value.polys)};"
                f"values_at={canonical(value.values_at)}")
    return str(value)


def expected_entry(result: str) -> dict:
    """How a canonical result is stored in data/expected.json."""
    if len(result) <= LONG:
        return {"value": result}
    return {"sha256": hashlib.sha256(result.encode()).hexdigest()}


def matches(result: str, entry: dict) -> bool:
    if "value" in entry:
        return result == entry["value"]
    return hashlib.sha256(result.encode()).hexdigest() == entry["sha256"]


def _graded(text):
    return problem.parse_spec(text).setup().graded()


def _setup(text):
    return problem.parse_spec(text).setup()


LIBRARY = {
    # geometry: parse_spec, then exactly one invariant
    "vol_xi": lambda text, c: invariants.vol_xi(_setup(text)),
    "d_vol": lambda text, c: invariants.d_vol(_setup(text)),
    "s_exact": lambda text, c: invariants.s_exact(_setup(text)),
    "energy_pxi": lambda text, c: invariants.energy_pxi(_setup(text)),
    "mu_limit_cdf": lambda text, c: invariants.mu_limit_cdf(_setup(text)),
    # spectra: parse_spec, then one lattice or grading call at a large level
    "s_m": lambda text, c: grading.s_m(_graded(text), c["m"]),
    "spectrum_histogram": lambda text, c: grading.spectrum_histogram(_graded(text), c["m"]),
    "count_points": lambda text, c: lattice.count_points(_setup(text).q, c["m"], jobs=c["jobs"]),
    "degree_count": lambda text, c: grading.degree_count(_graded(text), c["t"]),
    "graded_s_tilde": lambda text, c: grading.graded_s_tilde(_graded(text), c["t"]),
}


class PreparedOp:
    """An op ready to run: its spec as JSON text and, for a CLI op, an argv
    naming a spec file written beforehand."""

    def __init__(self, op_id, op, spec_dir=None):
        self.id = op_id
        self.call = op["call"]
        self.text = json.dumps(op["spec"])
        self.argv = None
        if self.call["fn"] == "cli":
            path = os.path.join(spec_dir, op_id.replace("/", "__") + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.text)
            self.argv = [path if a == "{spec}" else a for a in self.call["argv"]]

    def invoke(self):
        """The timed part of the op: the library call, or cli.run with
        stdout captured.  Returns its raw output."""
        if self.argv is None:
            return LIBRARY[self.call["fn"]](self.text, self.call)
        out, err = io.StringIO(), io.StringIO()
        try:
            code = cli.run(self.argv, out=out, err=err)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        return code, out.getvalue(), err.getvalue()

    def canonical(self, raw) -> str:
        """The canonical result of an output of invoke()."""
        if self.argv is None:
            return canonical(raw)
        code, out, err = raw
        data = out.encode("utf-8")
        result = f"exit={code};bytes={len(data)};sha256={hashlib.sha256(data).hexdigest()}"
        return result + (";stderr=" + err.strip() if err else "")
