import io
import json
import os
from fractions import Fraction as F

import pytest

from reebvol.cli import run
from reebvol.errors import SpecError
from reebvol.invariants import check_verdict
from reebvol.problem import parse_spec

MINIMAL = {
    "rank": 2,
    "sigma_rays": [["1", "0"], ["0", "1"]],
    "xi": ["1", "1"],
}

ANCHOR = dict(MINIMAL, eta=["1", "0"])

WEIGHTED = dict(MINIMAL, xi=["1", "2"])

NONLINEAR = dict(
    MINIMAL,
    filtration={"branches": [{"linear": ["1", "0"]}, {"linear": ["0", "1"]}]},
)


def spec_file(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# -- parsing -------------------------------------------------------------------


def test_parse_minimal():
    spec = parse_spec(json.dumps(MINIMAL))
    assert spec.rank == 2
    assert spec.xi == (F(1), F(1))


def test_spec_builds_its_cone_once(monkeypatch):
    from reebvol import problem
    from reebvol.polyhedra import Cone

    built = []
    real = Cone.from_rays

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(problem.Cone, "from_rays", counting)
    spec = parse_spec(MINIMAL)  # validates through setup()
    first, second = spec.setup(), spec.setup()
    assert first is second
    assert len(built) == 1
    spec.sigma_rays = [(1, 0), (1, 2)]
    assert spec.setup().sigma.rays == ((1, 0), (1, 2))
    assert len(built) == 2


def _count_calls(monkeypatch, name, counts):
    """Count calls to a package function through every module binding it."""
    import sys

    modules = [m for k, m in sys.modules.items() if k.startswith("reebvol.") and name in vars(m)]
    orig = vars(modules[0])[name]

    def counting(*args, **kwargs):
        counts[name] += 1
        return orig(*args, **kwargs)

    for mod in modules:
        if vars(mod)[name] is orig:
            monkeypatch.setattr(mod, name, counting)


ORTHANT3_REPORT = {
    "rank": 3,
    "sigma_rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "xi": [1, 1, 1],
    "filtration": {"branches": [{"linear": [1, 0, 0]},
                                {"linear": [0, 1, 1], "constant": "1/2"}]},
}

SQUARE_REPORT = {
    "rank": 3,
    "sigma_rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
    "xi": [1, 1, 2],
    "filtration": {"branches": [{"linear": [0, 0, 1]}, {"linear": [1, 0, 1]},
                                {"linear": [1, 1, 1]}]},
    "options": {"m_grid": [4, 8], "t_max": 8},
}


def test_report_derives_each_geometry_once_per_setup(tmp_path, monkeypatch):
    from collections import Counter

    from reebvol.grading import GradedSetup
    from reebvol.invariants import HOMOGENEITY_SCALES, PolarizedToricSetup

    counts = Counter()
    for name in ("reeb_slice", "validate_nonnegative", "facet_chart", "volume",
                 "integrate_moment"):
        _count_calls(monkeypatch, name, counts)
    setups, graded_only = [], []
    real_setup, real_graded = PolarizedToricSetup.__init__, GradedSetup.__init__

    def setup_init(self, *args, **kwargs):
        setups.append(self)
        real_setup(self, *args, **kwargs)

    def graded_init(self, *args, **kwargs):
        if not isinstance(self, PolarizedToricSetup):
            graded_only.append(self)
        real_graded(self, *args, **kwargs)

    monkeypatch.setattr(PolarizedToricSetup, "__init__", setup_init)
    monkeypatch.setattr(GradedSetup, "__init__", graded_init)
    for spec in (ORTHANT3_REPORT, SQUARE_REPORT):
        counts.clear()
        setups.clear()
        code, out, _ = invoke(["report", spec_file(tmp_path, spec)])
        assert code in (0, 4) and "verdict vol-routes  PASS" in out
        # the parsed spec's setup, then one per homogeneity scale
        assert len(setups) == 1 + len(HOMOGENEITY_SCALES)
        assert counts["reeb_slice"] == len(setups)
        assert counts["validate_nonnegative"] == len(setups)
        # the parsed setup's chart, for its slice energies; the ray subcones
        # come from the weight cone's incidences, with no chart
        assert counts["facet_chart"] == 1
        assert counts["volume"] == len(setups)  # vol(Q), once per setup
        # S once per setup, the parsed setup's slice energy, and the S and
        # slice energy of each of its three probes besides its own filtration
        assert counts["integrate_moment"] == len(setups) + 1 + 2 * 3
        assert graded_only == []


def _count_double_descriptions(monkeypatch, counts):
    """Count double descriptions from scratch and refinements of a cut."""
    from reebvol import polyhedra

    for name in ("_double_description", "_refine"):
        real = getattr(polyhedra, name)

        def counting(*args, real=real):
            counts["dd"] += 1
            return real(*args)

        monkeypatch.setattr(polyhedra, name, counting)


def test_one_branch_moment_on_a_cached_body_builds_nothing(monkeypatch):
    """Once Q's triangulation is kept, a moment of a linear function, or of
    a minimum whose one branch is the least at every vertex, is a dot
    product with Q's first moment: no double description, no
    triangulation."""
    from collections import Counter

    from reebvol.invariants import PolarizedToricSetup
    from reebvol.plconcave import PLConcave, integrate_moment, linear_form
    from reebvol.polyhedra import Cone

    setup = PolarizedToricSetup(Cone.from_rays(SQUARE_REPORT["sigma_rays"]), (1, 1, 2))
    assert setup.vol_q > 0
    counts = Counter()
    _count_double_descriptions(monkeypatch, counts)
    _count_calls(monkeypatch, "triangulate", counts)
    # u1 + u2 + u3 >= 0 is a facet of the weight cone, so <u, (0,0,1)> is the least branch
    for f in (linear_form((1, 2, 3)), PLConcave.make([((0, 0, 1), 0), ((1, 1, 2), 0)])):
        assert integrate_moment(f, setup.q, 1) > 0
    assert counts["dd"] == 0 and counts["triangulate"] == 0


@pytest.mark.parametrize("spec", [ORTHANT3_REPORT, SQUARE_REPORT])
def test_report_linear_probes_add_no_double_description(tmp_path, monkeypatch, spec):
    """The S and slice energy of each linear probe (the two rays and xi)
    read the first moments that Q and the chart body keep."""
    from collections import Counter

    from reebvol import invariants

    counts = Counter()
    _count_double_descriptions(monkeypatch, counts)

    def probing(real):
        def call(setup, psi=None):
            before = counts["dd"]
            result = real(setup, psi)
            if psi is not None and len(psi.branches) == 1:
                counts["linear probes"] += 1
                assert counts["dd"] == before
            return result
        return call

    for name in ("s_exact", "energy_pxi"):
        monkeypatch.setattr(invariants, name, probing(getattr(invariants, name)))
    code, out, _ = invoke(["report", spec_file(tmp_path, spec)])
    assert code in (0, 4) and "thm6.4-Cn" in out
    assert counts["linear probes"] == 2 * 3


@pytest.mark.parametrize("spec", [ORTHANT3_REPORT, SQUARE_REPORT])
def test_volume_builds_no_chart(tmp_path, monkeypatch, spec):
    from collections import Counter

    counts = Counter()
    _count_calls(monkeypatch, "facet_chart", counts)
    code, _, _ = invoke(["volume", spec_file(tmp_path, spec)])
    assert code == 0
    assert counts["facet_chart"] == 0


def test_stilde_walks_each_sampled_degree_once(tmp_path, monkeypatch):
    from collections import Counter

    counts = Counter()
    _count_calls(monkeypatch, "count_and_sum", counts)
    _count_calls(monkeypatch, "degree_frame", counts)
    code, out, _ = invoke(["stilde", spec_file(tmp_path, SQUARE_REPORT), "--t-max", "64"])
    assert code in (0, 4) and "lem3.17b" in out
    # the sampled degrees 16, 32 and 64, each counted and summed from one
    # walk of the one frame body
    assert counts["count_and_sum"] == 3
    assert counts["degree_frame"] == 1


def test_parse_rejects_non_reeb_xi():
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(dict(MINIMAL, xi=["1", "-1"])))
    assert err.value.path == "xi"


def test_parse_rejects_rank_mismatch_in_branch():
    bad = dict(
        MINIMAL,
        filtration={"branches": [{"linear": ["1", "0", "2"], "constant": "0"}]},
    )
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(bad))
    assert err.value.path == "filtration.branches[0].linear"


def test_parse_rejects_malformed_json():
    with pytest.raises(SpecError) as err:
        parse_spec("{not json")
    assert err.value.path == "<json>"


def test_parse_rejects_unknown_field():
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(dict(MINIMAL, extra=1)))
    assert err.value.path == "extra"


def test_parse_rejects_float_rational():
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(dict(MINIMAL, xi=[0.5, 1])))
    assert err.value.path == "xi[0]"


@pytest.mark.parametrize("text, value", [
    ("0.5", F(1, 2)), ("1e3", 1000), (" 7 ", 7), ("+3", 3), ("4/6", F(2, 3)),
    ("1_0", None), ("1_000/3", None), ("0.5_0", None), ("2 / 3", None), ("2/ 3", None),
])
def test_rationals_parse_the_same_on_every_python(tmp_path, text, value):
    # Fraction(str) reads underscores from Python 3.11 on and spaces around
    # the slash from 3.12 on; a spec reads as on 3.10
    payload = dict(MINIMAL, xi=[text, "1"])
    if value is not None:
        assert parse_spec(json.dumps(payload)).xi == (value, 1)
        return
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(payload))
    assert (err.value.path, err.value.message) == ("xi[0]", f"not an exact rational: {text!r}")
    code, out, err = invoke(["volume", spec_file(tmp_path, payload)])
    assert code == 2 and out == ""
    assert f"xi[0]: not an exact rational: {text!r}" in err


def test_parse_rejects_negative_filtration():
    bad = dict(MINIMAL, filtration={"branches": [{"linear": ["1", "-1"]}]})
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(bad))
    assert err.value.path == "filtration"


def test_parse_accepts_clamp_for_negative_filtration():
    wild = dict(
        MINIMAL,
        filtration={"branches": [{"linear": ["1", "-1"]}]},
        options={"clamp": True},
    )
    spec = parse_spec(json.dumps(wild))
    assert spec.options.clamp


def test_parse_options_validation():
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(dict(MINIMAL, options={"m_grid": [4, 2]})))
    assert err.value.path == "options.m_grid"
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(dict(MINIMAL, options={"tolerance": "-1/3"})))
    assert err.value.path == "options.tolerance"


@pytest.mark.parametrize("t_max", [1, 0, -4])
def test_parse_rejects_t_max_below_two(t_max):
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(dict(MINIMAL, options={"t_max": t_max})))
    assert err.value.path == "options.t_max"


# -- CLI commands ---------------------------------------------------------------


def test_cli_volume(tmp_path):
    code, out, _ = invoke(["volume", spec_file(tmp_path, WEIGHTED)])
    assert code == 0
    assert out == "1/2\n"


def test_cli_derivative(tmp_path):
    code, out, _ = invoke(["derivative", spec_file(tmp_path, ANCHOR)])
    assert code == 0
    assert out == "1\n"


def test_cli_jumping_csv(tmp_path):
    code, out, _ = invoke(
        ["jumping", spec_file(tmp_path, ANCHOR), "--m", "2", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,multiplicity,decimal"
    assert [l.split(",")[:2] for l in lines[1:]] == [
        ["0", "3"], ["1", "2"], ["2", "1"],
    ]


def test_cli_report_table(tmp_path):
    code, out, _ = invoke(["report", spec_file(tmp_path, ANCHOR)])
    assert code == 0
    assert "verdict thm4.2  PASS  lhs=1/3 rhs=1/3" in out


def test_cli_report_json_roundtrip(tmp_path):
    code, out, _ = invoke(["report", spec_file(tmp_path, ANCHOR), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["s_exact"] == "1/3"
    assert payload["c_n_ratio"] == "2"
    for v in payload["verdicts"]:
        if v["status"] == "skip":
            continue
        lhs, rhs = F(v["lhs"]), F(v["rhs"])
        assert check_verdict(lhs, rhs, v["relation"]) == (v["status"] == "pass")


def test_cli_converge(tmp_path):
    code, out, _ = invoke(
        ["converge", spec_file(tmp_path, NONLINEAR), "--m-grid", "8,16,32",
         "--tolerance", "1/10"]
    )
    assert code == 0
    assert "verdict  pass" in out


def test_cli_converge_gate_fires(tmp_path):
    code, out, _ = invoke(
        ["converge", spec_file(tmp_path, NONLINEAR), "--m-grid", "2,4",
         "--tolerance", "1/1000000"]
    )
    assert code == 4
    assert "verdict  fail" in out


def test_cli_energy(tmp_path):
    code, out, _ = invoke(["energy", spec_file(tmp_path, ANCHOR)])
    assert code == 0
    assert "energy_tc  1/3" in out
    assert "energy_pxi_paper  1/6" in out


def test_cli_stilde(tmp_path):
    code, out, _ = invoke(["stilde", spec_file(tmp_path, ANCHOR), "--t-max", "32"])
    assert code == 0
    assert "verdict lem3.17b  PASS" in out


def test_cli_report_rejects_spec_t_max_below_two(tmp_path):
    # the per-degree route runs for this integral xi, and used to crash on t_max = 1
    path = spec_file(tmp_path, dict(ANCHOR, options={"t_max": 1}))
    code, out, err = invoke(["report", path])
    assert code == 2 and out == ""
    assert "options.t_max" in err


@pytest.mark.parametrize("t_max", ["1", "0", "-3"])
def test_cli_stilde_rejects_t_max_below_two(tmp_path, t_max):
    code, out, err = invoke(["stilde", spec_file(tmp_path, ANCHOR), "--t-max", t_max])
    assert code == 2 and out == ""
    assert "t-max" in err


def test_cli_stilde_non_integral_is_math_error(tmp_path):
    path = spec_file(tmp_path, dict(ANCHOR, xi=["1", "1/2"]))
    code, _, err = invoke(["stilde", path, "--t-max", "8"])
    assert code == 3
    assert "math error" in err


@pytest.mark.parametrize("spec", [MINIMAL, dict(MINIMAL, eta=["-1", "0"])])
@pytest.mark.parametrize("argv", [["jumping", "--m", "2"], ["converge"],
                                  ["stilde", "--t-max", "8"], ["legendre", "--v", "0,0"]])
def test_cli_missing_filtration_is_spec_error(tmp_path, spec, argv):
    code, out, err = invoke(argv[:1] + [spec_file(tmp_path, spec)] + argv[1:])
    assert code == 2 and out == ""
    assert err == f"specification error: filtration: the {argv[0]} command needs a filtration or eta\n"


def test_cli_legendre(tmp_path):
    code, out, _ = invoke(["legendre", spec_file(tmp_path, ANCHOR), "--v", "0,0"])
    assert code == 0
    assert out == "1\n"


def test_cli_parse_error_exit_code(tmp_path):
    path = spec_file(tmp_path, dict(MINIMAL, xi=["1", "-1"]))
    code, _, err = invoke(["volume", path])
    assert code == 2
    assert "xi" in err


def test_cli_missing_file(tmp_path):
    code, _, err = invoke(["volume", str(tmp_path / "nope.json")])
    assert code == 2


def test_cli_decimal_flag(tmp_path):
    code, out, _ = invoke(
        ["volume", spec_file(tmp_path, WEIGHTED), "--format", "json", "--decimal", "3"]
    )
    assert code == 0
    assert json.loads(out)["decimal"] == "0.500"


def test_cli_deterministic_within_process(tmp_path):
    path = spec_file(tmp_path, ANCHOR)
    runs = [invoke(["report", path, "--format", "json"])[1] for _ in range(2)]
    assert runs[0] == runs[1]


DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("spec, argv, flag, code", [
    ("cube5-frac", ["converge", "--m-grid", "16,32"], "ceiling", 0),
    ("cube5-frac", ["jumping", "--m", "32"], "ceiling", 0),
    ("cube5-neg", ["converge", "--m-grid", "16,32"], "clamp", 4),
    ("cube5-neg", ["jumping", "--m", "32"], "clamp", 0),
    ("cube5-neg", ["jumping", "--m", "32"], "ceiling-clamp", 0),
])
def test_rank5_flagged_runs_print_the_recorded_bytes(spec, argv, flag, code):
    """On the rank-5 cube cone with fractional branches under --ceiling and
    with negative constants under --clamp, alone and with --ceiling, whose
    walks take the node sums and node events, stdout equals the recorded
    bytes, and the flags act: the plain run prints other bytes or rejects
    the spec."""
    cmd = [argv[0], os.path.join(DATA, f"{spec}.json"), *argv[1:]]
    got = invoke(cmd + [f"--{f}" for f in flag.split("-")])
    with open(os.path.join(DATA, f"{spec}-{argv[0]}-{flag}.out"), "rb") as fh:
        assert (got[0], got[1].encode()) == (code, fh.read())
    assert invoke(cmd)[:2] != got[:2]


def test_cli_jobs_flag_does_not_change_output(tmp_path):
    path = spec_file(tmp_path, NONLINEAR)
    base = invoke(["report", path, "--format", "json", "--jobs", "1"])[1]
    multi = invoke(["report", path, "--format", "json", "--jobs", "8"])[1]
    assert base == multi


def test_cli_env_jobs(tmp_path, monkeypatch):
    path = spec_file(tmp_path, NONLINEAR)
    monkeypatch.setenv("REEBVOL_JOBS", "4")
    base = invoke(["report", path, "--format", "json"])[1]
    monkeypatch.delenv("REEBVOL_JOBS")
    assert base == invoke(["report", path, "--format", "json"])[1]


def test_cli_spec_jobs_still_validated(tmp_path):
    path = spec_file(tmp_path, dict(NONLINEAR, options={"jobs": 0}))
    code, out, err = invoke(["volume", path])
    assert code == 2 and out == ""
    assert "options.jobs" in err


def test_cli_env_jobs_still_validated(tmp_path, monkeypatch):
    monkeypatch.setenv("REEBVOL_JOBS", "abc")
    code, out, err = invoke(["volume", spec_file(tmp_path, NONLINEAR)])
    assert code == 2 and out == ""
    assert "REEBVOL_JOBS" in err


@pytest.mark.parametrize("source, flags, env, options", [
    ("jobs", ["--jobs", "0"], None, None),
    ("REEBVOL_JOBS", [], "-3", None),
    ("options.jobs", ["--jobs", "2"], None, {"jobs": 0}),
])
def test_cli_jobs_sources_share_one_rule(tmp_path, monkeypatch, source, flags, env, options):
    if env is None:
        monkeypatch.delenv("REEBVOL_JOBS", raising=False)
    else:
        monkeypatch.setenv("REEBVOL_JOBS", env)
    payload = NONLINEAR if options is None else dict(NONLINEAR, options=options)
    code, out, err = invoke(["volume", spec_file(tmp_path, payload)] + flags)
    assert (code, out) == (2, "")
    assert err == f"specification error: {source}: expected a positive integer\n"


@pytest.mark.parametrize("options", [5, [1], False])
def test_cli_rejects_non_object_options(tmp_path, options):
    code, out, err = invoke(["volume", spec_file(tmp_path, dict(MINIMAL, options=options))])
    assert (code, out) == (2, "")
    assert err == "specification error: options: expected an object\n"


def test_cli_rejects_inadmissible_filtration(tmp_path):
    wild = dict(MINIMAL, filtration={"branches": [{"linear": ["1", "-1"]}]})
    code, out, err = invoke(["report", spec_file(tmp_path, wild)])
    assert (code, out) == (2, "")
    assert err.startswith("specification error: filtration: ")


def test_cli_clamp_flag_admits_negative_filtration(tmp_path):
    wild = dict(MINIMAL, filtration={"branches": [{"linear": ["1", "-1"]}]})
    path = spec_file(tmp_path, wild)
    assert invoke(["volume", path])[0] == 2  # rejected without the flag
    code, out, _ = invoke(["volume", path, "--clamp"])
    assert code == 0 and out == "1\n"


def test_cli_ceiling_flag(tmp_path):
    payload = dict(
        MINIMAL,
        filtration={"branches": [{"linear": ["1/2", "0"]}]},
    )
    path = spec_file(tmp_path, payload)
    plain = invoke(["jumping", path, "--m", "3", "--format", "csv"])[1]
    floored = invoke(["jumping", path, "--m", "3", "--format", "csv", "--ceiling"])[1]
    assert "1/2" in plain and "1/2" not in floored


def test_cli_csv_uses_crlf(tmp_path):
    out = invoke(["jumping", spec_file(tmp_path, ANCHOR), "--m", "1", "--format", "csv"])[1]
    assert "\r\n" in out


def test_cli_energy_json(tmp_path):
    code, out, _ = invoke(["energy", spec_file(tmp_path, ANCHOR), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["energy_tc"]["exact"] == "1/3"
    assert payload["energy_pxi_paper"]["exact"] == "1/6"
    assert payload["energy_pxi_cone"]["exact"] == "1/6"


def test_cli_converge_csv(tmp_path):
    code, out, _ = invoke(
        ["converge", spec_file(tmp_path, NONLINEAR), "--m-grid", "10,20,40",
         "--tolerance", "1/10", "--format", "csv"]
    )
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "m,s_m,decimal,abs_error"
    assert lines[-2].startswith("# s_exact,1/6,verdict,pass")


def test_cli_stilde_json(tmp_path):
    code, out, _ = invoke(
        ["stilde", spec_file(tmp_path, ANCHOR), "--t-max", "16", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["extrapolated"] == "1/2"
    assert any(v["name"] == "lem3.17b" and v["status"] == "pass"
               for v in payload["verdicts"])


def test_cli_report_csv_verdicts(tmp_path):
    code, out, _ = invoke(["report", spec_file(tmp_path, ANCHOR), "--format", "csv"])
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "verdict,status,lhs,rhs,relation"
    assert any(l.startswith("thm4.2,pass,1/3,1/3,eq") for l in lines)


def test_cli_stdin_spec():
    import io as _io
    from reebvol.cli import run as cli_run
    import sys

    payload = json.dumps(WEIGHTED)
    out, err = _io.StringIO(), _io.StringIO()
    old = sys.stdin
    sys.stdin = _io.StringIO(payload)
    try:
        code = cli_run(["volume", "-"], out=out, err=err)
    finally:
        sys.stdin = old
    assert code == 0 and out.getvalue() == "1/2\n"
