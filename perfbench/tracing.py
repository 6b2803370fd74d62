"""Spans around calls into each layer of the package, installed from outside.

``Tracer.install()`` replaces every ``reebvol.*`` module attribute that is
one of the listed public functions, because ``from .polyhedra import
triangulate`` and similar imports create extra bindings of one function
object; ``Cone.from_rays`` and ``PolarizedToricSetup.__init__`` are wrapped
on their classes.  ``uninstall()`` puts every original back.

A span records its name, start, end, parent span and op id.  Spans are kept
in memory in flat arrays and written out when the run ends.  Self time is
the span's duration minus the time its child spans cover.  Traced
functions of this package are only called on the caller's thread (the
lattice thread pools run inner closures), so spans nest; a call from
another thread runs untraced and is counted in ``foreign_calls``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from array import array
from collections import defaultdict

LAYERS = {
    "problem": ("parse_spec",),
    "cli": ("run",),
    "invariants": ("PolarizedToricSetup", "vol_xi", "d_vol", "s_exact", "energy_pxi",
                   "mu_limit_cdf", "consistency_report", "quasi_regular_check"),
    "polyhedra": ("Cone.from_rays", "reeb_slice", "polytope_from_halfspaces",
                  "polytope_from_vertices", "triangulate", "volume", "facet_chart"),
    "plconcave": ("linearity_subdivision", "integrate_moment", "superlevel_profile", "max_over"),
    "lattice": ("count_points", "sum_values", "value_histogram", "points_on_level"),
    "grading": ("s_m", "spectrum_histogram", "graded_s_tilde", "degree_count"),
    "arith": ("solve", "det", "rank_of", "orthogonal_complement_vector"),
}
# kernel layers report call counts and inclusive time only
NO_SELF = ("arith",)


# per-function work counts taken from a call's arguments and result
WORK = {
    "polyhedra.polytope_from_halfspaces": lambda a, kw, r: {"vertices": len(r.vertices)},
    "polyhedra.polytope_from_vertices": lambda a, kw, r: {"facets": len(r.halfspaces)},
    "polyhedra.triangulate": lambda a, kw, r: {"simplices": len(r.simplices)},
    "plconcave.linearity_subdivision": lambda a, kw, r: {"cells": len(r),
                                                         "branches": len(a[0].branches)},
    "lattice.count_points": lambda a, kw, r: {"points": r},
    "lattice.value_histogram": lambda a, kw, r: {"keys": len(r)},
    "cli.run": lambda a, kw, r: {"stdout_bytes": len(kw["out"].getvalue().encode("utf-8"))},
}
# Result sizes: written to a run's result file, not reported as per-layer
# metrics, because a lower value is no saving.  Correctness fixes the first
# two and the last; the third counts items yielded, which a change of the
# generator's interface would change.
INFORMATIONAL = ("lattice.count_points.points", "lattice.value_histogram.keys",
                 "lattice.points_on_level.points", "cli.run.stdout_bytes")


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")  # 1 when a span of the same name is open
        self.work = defaultdict(int)
        self.foreign_calls = 0
        self.op_id = -1
        self._stack = []
        self._open_by_name = []
        self._owner = None
        self._restore = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
            self._open_by_name.append(0)
        return self.names.index(name)

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.nested.append(1 if self._open_by_name[nid] else 0)
        self.end.append(0.0)
        self._open_by_name[nid] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._open_by_name[self.name[idx]] -= 1
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        else:
            self._stack.remove(idx)

    def _wrap(self, qualname, fn):
        nid = self._name_id(qualname)
        count = WORK.get(qualname)
        tracer = self
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if get_ident() != tracer._owner:
                tracer.foreign_calls += 1
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    tracer.work[f"{qualname}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = fn.__doc__
        return traced

    def _wrap_generator(self, qualname, fn):
        """The span covers the iteration, not the call that creates the
        generator, and counts the items yielded."""
        nid = self._name_id(qualname)
        tracer = self

        def iterate(it):
            idx = tracer._open(nid)
            n = 0
            try:
                for item in it:
                    n += 1
                    yield item
            finally:
                tracer._close(idx)
                tracer.work[f"{qualname}.points"] += n

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._owner:
                tracer.foreign_calls += 1
                return fn(*args, **kwargs)
            return iterate(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- installation -----------------------------------------------------------

    def install(self):
        import reebvol.invariants
        import reebvol.polyhedra

        self._owner = threading.get_ident()
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "reebvol" or k.startswith("reebvol.")) and m is not None]
        for layer, names in LAYERS.items():
            module = sys.modules[f"reebvol.{layer}"]
            for name in names:
                qualname = f"{layer}.{name}"
                if name == "Cone.from_rays":
                    cls = reebvol.polyhedra.Cone
                    orig = cls.__dict__["from_rays"]
                    setattr(cls, "from_rays", staticmethod(self._wrap(qualname, orig.__func__)))
                    self._restore.append((cls, "from_rays", orig))
                    continue
                if name == "PolarizedToricSetup":
                    cls = reebvol.invariants.PolarizedToricSetup
                    orig = cls.__dict__["__init__"]
                    cls.__init__ = self._wrap(qualname, orig)
                    self._restore.append((cls, "__init__", orig))
                    continue
                orig = getattr(module, name)
                wrapper = (self._wrap_generator if name == "points_on_level" else self._wrap)(
                    qualname, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    # -- analysis ---------------------------------------------------------------

    def metrics(self, passes=1):
        """Per-layer metrics, each divided by the number of traced passes."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        excl = defaultdict(float)
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            if not self.nested[i]:
                incl[nid] += dur[i]
            excl[nid] += max(0.0, dur[i] - child[i])
        out = {}
        for nid, qualname in enumerate(self.names):
            out[f"{qualname}.calls"] = calls[nid] / passes
            out[f"{qualname}.s"] = incl[nid] / passes
            if qualname.split(".")[0] not in NO_SELF:
                out[f"{qualname}.self_s"] = excl[nid] / passes
        for key, value in self.work.items():
            if not key.endswith(".branches"):
                out[key] = value / passes
        out.setdefault("cli.run.stdout_bytes", 0.0)
        for key in ("polyhedra.polytope_from_halfspaces.vertices",
                    "polyhedra.polytope_from_vertices.facets", "polyhedra.triangulate.simplices",
                    "plconcave.linearity_subdivision.cells", "lattice.count_points.points",
                    "lattice.value_histogram.keys", "lattice.points_on_level.points"):
            out.setdefault(key, 0.0)
        out["polyhedra.vertex_yield"] = self._vertex_yield()
        branches = self.work.get("plconcave.linearity_subdivision.branches", 0)
        cells = self.work.get("plconcave.linearity_subdivision.cells", 0)
        out["plconcave.cell_yield"] = cells / branches if branches else 0.0
        return out

    def _vertex_yield(self):
        """Vertices returned by polytope_from_halfspaces per arith.solve call
        made beneath it."""
        names = {q: i for i, q in enumerate(self.names)}
        pfh = names["polyhedra.polytope_from_halfspaces"]
        solve = names["arith.solve"]
        under = bytearray(len(self.start))
        solves = 0
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0 and (self.name[p] == pfh or under[p]):
                under[i] = 1
                if self.name[i] == solve:
                    solves += 1
        vertices = self.work.get("polyhedra.polytope_from_halfspaces.vertices", 0)
        return vertices / solves if solves else 0.0

    def op_shares(self):
        """Per op id: wall time of its top-level spans and self time by
        layer, for checking where an op's time goes."""
        shares = defaultdict(lambda: defaultdict(float))
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for i in range(n):
            dur = self.end[i] - self.start[i]
            layer = self.names[self.name[i]].split(".")[0]
            row = shares[self.op[i]]
            row[layer] += max(0.0, dur - child[i])
            if self.parent[i] < 0:
                row["total"] += dur
        return shares

    def dump(self, path, op_names):
        """Write every span as columns of one JSON object."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "ops": op_names,
                "columns": ["name", "start", "end", "parent", "op"],
                "name": self.name.tolist(),
                "start": [round(x, 9) for x in self.start],
                "end": [round(x, 9) for x in self.end],
                "parent": self.parent.tolist(),
                "op": self.op.tolist(),
            }, fh, separators=(",", ":"))
