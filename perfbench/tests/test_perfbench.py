"""Self-tests of the benchmark (run: python3 -m pytest -q perfbench/tests)."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import catalog  # noqa: E402
import run  # noqa: E402


def _run_cli(workload, seed, trace, seconds="0"):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def inputs():
    made = {}
    yield lambda workload, seed: made.setdefault(
        (workload, seed), run.Inputs(workload, seed))
    for value in made.values():
        value.close()


def test_same_seed_gives_identical_inputs(inputs):
    for workload in run.WORKLOADS:
        a = run.Inputs(workload, 7)
        b = run.Inputs(workload, 7)
        c = run.Inputs(workload, 8)
        try:
            passes_a = [a.first_pass] + [a.draw() for _ in range(3)]
            passes_b = [b.first_pass] + [b.draw() for _ in range(3)]
            passes_c = [c.first_pass] + [c.draw() for _ in range(3)]
            assert passes_a == passes_b
            assert passes_a != passes_c
            texts = {k: p.text for k, p in a.prepared.items()}
            assert texts == {k: p.text for k, p in b.prepared.items()}
        finally:
            for x in (a, b, c):
                x.close()


def test_stored_catalogue_is_the_built_one():
    with open(os.path.join(BENCH, "data", "catalog.json"), encoding="utf-8") as fh:
        stored = json.load(fh)
    stored.pop("sha256")
    built = catalog.build()
    assert built == stored
    with open(os.path.join(BENCH, "data", "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    assert set(expected["expected"]) == set(built["ops"])


def test_geometry_transports_share_their_expected_value():
    with open(os.path.join(BENCH, "data", "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)["expected"]
    for slot in catalog.build()["workloads"]["geometry"]:
        values = {expected[o].get("value", expected[o].get("sha256")) for o in slot["variants"]}
        assert len(values) == 1, slot["name"]


def test_every_pass_has_the_same_slot_mix(inputs):
    a = inputs("geometry", 1)
    slot_of = {v: s["name"] for s in a.catalog["workloads"]["geometry"] for v in s["variants"]}
    mixes = {tuple(sorted(slot_of[o] for o in a.draw())) for _ in range(4)}
    assert len(mixes) == 1


def test_tampered_expected_value_is_a_failure(inputs):
    inp = inputs("spectra", 3)
    op_id = inp.first_pass[0]
    saved = inp.expected[op_id]
    tally = run.Tally()
    tally.run(inp, op_id)
    assert tally.failed == 0
    inp.expected[op_id] = {"value": "12345/7"} if "value" in saved else {"sha256": "0" * 64}
    try:
        tally.run(inp, op_id)
    finally:
        inp.expected[op_id] = saved
    assert tally.failed == 1 and tally.attempted == 2
    assert (tally.attempted - tally.failed) / tally.attempted < 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_of_each_workload(workload):
    result = _run_cli(workload, 11, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_run_agrees_and_names_every_layer_metric():
    result = _run_cli("spectra", 5, 1)
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # the spectra workload bypasses vertex enumeration and triangulation
    for name in ("polytope_from_halfspaces", "polytope_from_vertices", "triangulate"):
        assert metrics[f"polyhedra.{name}.calls"] == 0
    assert metrics["lattice.points_on_level.s"] > 0
    with open(os.path.join(BENCH, "out", "spectra-seed5-trace1.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["detail"]["results"]["lattice.points_on_level.points"] > 0


def test_traced_and_untraced_results_agree(inputs):
    from tracing import Tracer

    inp = inputs("geometry", 2)
    ops_list = inp.first_pass[:12]
    tracer = Tracer()
    tally = run.Tally()
    plain = [tally.run(inp, o) for o in ops_list]
    tracer.install()
    try:
        traced = [tally.run(inp, o) for o in ops_list]
    finally:
        tracer.uninstall()
    assert plain == traced and tally.failed == 0
    metrics = tracer.metrics()
    assert metrics["problem.parse_spec.calls"] == len(ops_list)
    for name in ("count_points", "sum_values", "value_histogram", "points_on_level"):
        assert metrics[f"lattice.{name}.calls"] == 0
    # uninstall restored every binding
    import reebvol.invariants
    import reebvol.polyhedra

    assert not hasattr(reebvol.polyhedra.triangulate, "__wrapped__")
    assert not hasattr(reebvol.invariants.triangulate, "__wrapped__")
    assert not hasattr(reebvol.polyhedra.Cone.from_rays, "__wrapped__")
