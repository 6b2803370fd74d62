"""The reebvol benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads are ``geometry``, ``spectra`` and ``cli-report`` (see
``catalog.py`` and ``README.md``).  The client runs whole passes of the
workload, one op at a time in this process, and stops at the pass end
nearest to ``--seconds``; it checks every result against
``data/expected.json``.  Times are wall-clock seconds.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, which alternates an untraced and a traced run of one fixed
pass.  A result file with a run header is written under ``perfbench/out``.
Exit status is 0 when the run completed, 2 when it could not start; a run
whose results are wrong still exits 0 and reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DATA = os.path.join(HERE, "data")
SETUP_SAMPLES = 7
WORKLOADS = ("geometry", "spectra", "cli-report")


class SetupError(Exception):
    """The benchmark cannot start: no package source or no recorded data."""


# ---------------------------------------------------------------------------
# set-up: import the package, load the catalogue, draw and prepare inputs
# ---------------------------------------------------------------------------


class Inputs:
    """Everything a run needs before its first timed op."""

    def __init__(self, workload, seed):
        if not os.path.isfile(os.path.join(SRC, "reebvol", "__init__.py")):
            raise SetupError(f"no package source under {SRC}")
        for path in (SRC, HERE):
            if path not in sys.path:
                sys.path.insert(0, path)
        import reebvol

        if not os.path.abspath(reebvol.__file__).startswith(os.path.join(SRC, "reebvol")):
            raise SetupError(f"reebvol was imported from {reebvol.__file__}, not {SRC}")
        import catalog
        import ops

        self.ops = ops
        self.catalog, self.expected = _load_data(catalog)
        self.draw = catalog.Draw(self.catalog, workload, seed).next_pass
        self.first_pass = self.draw()
        self.spec_dir = os.path.join(OUT, f"specs-{os.getpid()}")
        os.makedirs(self.spec_dir, exist_ok=True)
        self.prepared = {}
        for slot in self.catalog["workloads"][workload]:
            for op_id in slot["variants"]:
                self.prepared[op_id] = ops.PreparedOp(op_id, self.catalog["ops"][op_id],
                                                      self.spec_dir)
        # the catalogue is the benchmark's own data: keep it out of the
        # collections that the measured code triggers
        gc.collect()
        gc.freeze()

    def close(self):
        shutil.rmtree(self.spec_dir, ignore_errors=True)


def _load_data(catalog):
    try:
        with open(os.path.join(DATA, "catalog.json"), encoding="utf-8") as fh:
            cat = json.load(fh)
        with open(os.path.join(DATA, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot load recorded data: {exc}") from exc
    digest = cat.pop("sha256")
    if catalog.digest(cat) != digest or expected["catalog_sha256"] != digest:
        raise SetupError("recorded data does not match the catalogue; run perfbench/record.py")
    return cat, expected["expected"]


# The set-up of a fresh process: import the package, load the recorded
# data and draw the inputs, then say so on stdout.
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
               "inputs = run.Inputs(sys.argv[2], int(sys.argv[3])); "
               "print('ready', flush=True); inputs.close()")


def measure_setup(workload, seed):
    """Median wall seconds, over fresh processes, from process start until
    the inputs are ready."""
    argv = [sys.executable, "-c", SETUP_CHILD, HERE, workload, str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                 stdin=subprocess.DEVNULL)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            child.stdout.close()
            code = child.wait()
        if code != 0 or line.strip() != b"ready":
            raise SetupError(f"set-up in a fresh process failed with exit code {code}")
        samples.append(elapsed)
    return statistics.median(samples), samples


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


class Tally:
    """Attempts, failures and per-op wall times of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.errors = []

    def run(self, inputs, op_id):
        """Run one op and check it; returns its canonical result, or None
        if it raised."""
        self.attempted += 1
        prepared = inputs.prepared[op_id]
        try:
            start = time.perf_counter()
            raw = prepared.invoke()
            self.latencies.append(time.perf_counter() - start)
            result = prepared.canonical(raw)
        except Exception:  # a failing op is counted and the client goes on
            self.failed += 1
            self.errors.append({"op": op_id, "error": traceback.format_exc(limit=3)})
            return None
        if not inputs.ops.matches(result, inputs.expected[op_id]):
            self.failed += 1
            self.errors.append({"op": op_id, "error": "wrong result", "got": result})
        return result


def run_untraced(inputs, seconds):
    passes = 0
    ops_list = inputs.first_pass
    tally = Tally()
    start = time.perf_counter()
    while True:
        for op_id in ops_list:
            tally.run(inputs, op_id)
        passes += 1
        wall = time.perf_counter() - start
        # whole passes only; stop when one more would end further past
        # the deadline than stopping now ends before it
        if wall + wall / passes / 2 >= seconds:
            break
        ops_list = inputs.draw()
    lat = tally.latencies
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    metrics = {
        "ops_per_s": (len(lat) / wall, "ops/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (p90, "s"),
        "success_rate": ((tally.attempted - tally.failed) / tally.attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    detail = {"passes": passes, "wall_s": wall, "op_s": sum(lat),
              "samples_beyond_p90": sum(1 for x in lat if x > p90)}
    return tally, metrics, detail


def run_traced(inputs, seconds):
    """Alternate an untraced and a traced run of the first pass until the
    time is up.  Counts repeat exactly per pass, so they are reported per
    pass; times are averaged over the traced passes."""
    from tracing import INFORMATIONAL, Tracer

    tracer = Tracer()
    ops_list = inputs.first_pass
    passes = 0
    mismatches = []
    tally = Tally()
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    while True:
        before = len(tally.latencies)
        plain = [tally.run(inputs, op_id) for op_id in ops_list]
        plain_s += sum(tally.latencies[before:])
        before = len(tally.latencies)
        tracer.install()
        try:
            for k, op_id in enumerate(ops_list):
                tracer.op_id = k
                if tally.run(inputs, op_id) != plain[k]:
                    mismatches.append(op_id)
        finally:
            tracer.uninstall()
        traced_s += sum(tally.latencies[before:])
        passes += 1
        wall = time.perf_counter() - start
        if wall + wall / passes / 2 >= seconds:
            break
    if mismatches:
        tally.failed += len(mismatches)
        tally.errors.extend({"op": o, "error": "traced result differs"} for o in mismatches)
    layer = tracer.metrics(passes)
    layer["trace.overhead"] = traced_s / plain_s if plain_s else 0.0
    detail = {"passes": passes, "untraced_s": plain_s, "traced_s": traced_s,
              "spans": len(tracer.start), "foreign_calls": tracer.foreign_calls,
              "results": {k: layer.pop(k) for k in INFORMATIONAL},
              "op_layer_shares": _shares(tracer, ops_list)}
    return tally, layer, detail, tracer


def _shares(tracer, ops_list):
    out = {}
    for k, row in sorted(tracer.op_shares().items()):
        if k < 0 or not row.get("total"):
            continue
        total = row["total"]
        out[f"{k}:{ops_list[k]}"] = {
            "total_s": round(total, 6),
            **{layer: round(v / total, 4) for layer, v in sorted(row.items()) if layer != "total"},
        }
    return out


def layer_unit(name):
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(("_yield", ".overhead")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# run header and result file
# ---------------------------------------------------------------------------


def git_revision():
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", *name.split("/"))
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_stats():
    """Line count and content digest of src/reebvol (ROADMAP aim 2's size
    measure; recorded, not gated)."""
    lines = 0
    digest = hashlib.sha256()
    base = os.path.join(SRC, "reebvol")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(os.path.relpath(os.path.join(dirpath, name), base).encode())
                digest.update(data)
    return lines, digest.hexdigest()


def header(args, attempted, passes):
    lines, digest = source_stats()
    return {
        "git_revision": git_revision(),
        "src_sha256": digest,
        "src_reebvol_lines": lines,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": attempted,
        "passes": passes,
        "loop": "closed, 1 client, 1 process",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        inputs = Inputs(args.workload, args.seed)
    except SetupError as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2

    try:
        if not args.trace:
            setup_s, setup_samples = measure_setup(args.workload, args.seed)
    except SetupError as exc:
        inputs.close()
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            tally, layer, detail, tracer = run_traced(inputs, args.seconds)
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in sorted(layer.items())}
        else:
            tally, e2e, detail = run_untraced(inputs, args.seconds)
            e2e["setup_s"] = (setup_s, "s")
            detail["setup_samples_s"] = setup_samples
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    finally:
        inputs.close()

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {"header": header(args, tally.attempted, detail["passes"]), **result,
              "detail": detail, "errors": tally.errors[:50]}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.trace:
        tracer.dump(stem + "-spans.json", inputs.first_pass)
    for err in tally.errors[:5]:
        print(f"failed op {err['op']}: {err['error']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
