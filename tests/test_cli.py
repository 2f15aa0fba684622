import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlyoung.cli import main
from nlyoung.experiments import ExperimentSpec, RunReport, SpecValidationError, parse_quad_fragment
from nlyoung.fields import GridField, write_grid_json
from nlyoung.paths import make_weierstrass, sample_function, write_path_csv


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_integrate_smooth_pass(capsys):
    code, out = run_cli(
        [
            "integrate", "--method", "both",
            "--field", "product:g=(sin),h=(identity)",
            "--path", "monomial:p=2",
            "--a", "0", "--b", "1",
            "--tau", "1", "--lambda", "1", "--gamma", "1",
            "--no-timestamp",
            "--tolerances",
            json.dumps({"expected_value": 2 * math.cos(1) - math.sin(1),
                        "rtol": 1e-4, "cross_err_factor": 5.0, "cross_rel": 0.02}),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["reports"]["fractional"]["alpha"] == 0.5
    assert "runtime_ms" not in doc["reports"]["fractional"]
    assert all(c["passed"] for c in doc["checks"])


def test_integrate_tolerance_failure_exit_1(capsys):
    code, out = run_cli(
        [
            "integrate", "--method", "frac",
            "--field", "product:g=(identity),h=(identity)",
            "--path", "identity",
            "--a", "0", "--b", "1",
            "--tau", "1", "--lambda", "1", "--gamma", "1",
            "--no-timestamp",
            "--tolerances", json.dumps({"expected_value": 0.75, "rtol": 1e-6}),
        ],
        capsys,
    )
    assert code == 1


def test_inadmissible_exponents_exit_2(capsys):
    code, _ = run_cli(
        [
            "integrate", "--method", "frac",
            "--field", "product:g=(identity),h=(identity)",
            "--path", "identity",
            "--a", "0", "--b", "1",
            "--tau", "0.4", "--lambda", "1", "--gamma", "0.5",
        ],
        capsys,
    )
    err = capsys.readouterr().err if hasattr(capsys, "readouterr") else ""
    assert code == 2


@pytest.mark.parametrize("a, b", [("nan", "1"), ("0", "inf"), ("1", "0")])
def test_invalid_endpoints_exit_2(capsys, a, b):
    code = main(
        [
            "integrate", "--method", "sewing",
            "--field", "product:g=(sin),h=(identity)",
            "--path", "identity",
            "--a", a, "--b", b,
            "--tau", "1", "--lambda", "1", "--gamma", "1",
            "--no-timestamp",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "finite a < b" in captured.err


def test_inadmissible_message_cites_condition(capsys):
    code = main(
        [
            "integrate", "--method", "frac",
            "--field", "product:g=(identity),h=(identity)",
            "--path", "identity",
            "--a", "0", "--b", "1",
            "--tau", "0.4", "--lambda", "1", "--gamma", "0.5",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "tau + lam*gamma" in captured.err


def test_unknown_suite_exit_2(capsys):
    code, _ = run_cli(["suite", "reduction"], capsys)
    assert code == 0
    with pytest.raises(SystemExit):
        main(["suite", "mystery"])  # argparse rejects unknown choices


_TIMING_KEYS = {"runtime_ms", "wall_clock_s", "timestamp"}


def _keys_at_every_depth(obj) -> set:
    if isinstance(obj, dict):
        return set(obj).union(*(_keys_at_every_depth(v) for v in obj.values()))
    if isinstance(obj, list):
        return set().union(*(_keys_at_every_depth(v) for v in obj))
    return set()


def test_suite_no_timestamp_strips_nested_timing(capsys):
    _, out1 = run_cli(["suite", "reduction", "--no-timestamp"], capsys)
    _, out2 = run_cli(["suite", "reduction", "--no-timestamp"], capsys)
    assert out1 == out2
    doc = json.loads(out1)
    assert len(doc["children"]) == 3
    assert not _keys_at_every_depth(doc) & _TIMING_KEYS
    _, timed = run_cli(["suite", "reduction"], capsys)
    timed = json.loads(timed)
    assert _keys_at_every_depth(timed) >= _TIMING_KEYS
    assert timed["wall_clock_s"] > 0
    assert all(child["timestamp"] for child in timed["children"])
    assert all("runtime_ms" in child["reports"]["fractional"] for child in timed["children"])


def test_run_report_verdicts_follow_children():
    ok = {"name": "fine", "observed": 0.0, "limit": 1.0, "passed": True}
    bad = {"name": "broken", "observed": 2.0, "limit": 1.0, "passed": False}
    parent = RunReport("suite", checks=[ok], children=[RunReport("child", checks=[ok, bad])])
    assert parent.passed is False
    assert RunReport("suite", checks=[ok], children=[RunReport("child", checks=[ok])]).passed is True
    stalled = RunReport("child", reports={"sewing": {"converged": True}, "fractional": {"converged": False}})
    parent = RunReport("suite", children=[RunReport("mid", children=[stalled])])
    assert parent.nonconverged is True
    assert parent.passed is True
    converged = RunReport("child", reports={"sewing": {"converged": True}})
    assert RunReport("suite", children=[converged]).nonconverged is False


def test_suite_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "reduction", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_determinism_byte_identical(capsys):
    args = [
        "integrate", "--method", "both",
        "--field", "product:g=(identity),h=(identity)",
        "--path", "identity",
        "--a", "0", "--b", "1",
        "--tau", "1", "--lambda", "1", "--gamma", "1",
        "--no-timestamp",
    ]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_output_files_atomic(tmp_path, capsys):
    code, _ = run_cli(
        [
            "integrate", "--method", "frac",
            "--field", "product:g=(identity),h=(identity)",
            "--path", "identity",
            "--a", "0", "--b", "1",
            "--tau", "1", "--lambda", "1", "--gamma", "1",
            "--name", "atomic-test",
            "--out", str(tmp_path),
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "atomic-test.json").exists()
    assert not list(tmp_path.glob("*.tmp"))
    doc = json.loads((tmp_path / "atomic-test.json").read_text())
    assert doc["reports"]["fractional"]["value"] == pytest.approx(0.5, abs=1e-5)


def test_young_subcommand(capsys):
    code, out = run_cli(
        ["young", "--f", "monomial:p=3", "--g", "monomial:p=2",
         "--a", "0", "--b", "1", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.4, abs=1e-5)


def test_young_csv_inputs(tmp_path, capsys):
    from nlyoung.paths import sample_function, write_path_csv

    write_path_csv(tmp_path / "f.csv", sample_function(lambda t: t, 0.0, 1.0, 512))
    write_path_csv(tmp_path / "g.csv", sample_function(lambda t: t, 0.0, 1.0, 512))
    code, out = run_cli(
        ["young", "--f", str(tmp_path / "f.csv"), "--g", str(tmp_path / "g.csv"),
         "--a", "0", "--b", "1", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.5, abs=1e-4)


def test_frac_subcommand(capsys):
    code, out = run_cli(
        ["frac", "--op", "dleft", "--f", "identity", "--alpha", "0.5",
         "--a", "0", "--t", "1", "--mu", "1", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-6)


def test_holder_subcommand(capsys):
    code, out = run_cli(
        ["holder", "--path", "weierstrass:H=0.7,scales=10", "--exponent", "0.7",
         "--a", "0", "--b", "1", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seminorm"] > 0
    assert doc["n_pairs_checked"] > 1000


def test_iterate_subcommand(capsys):
    code, out = run_cli(
        ["iterate", "--fields", "(product:g=(identity),h=(const:c=1))", "--n", "3",
         "--rho", "const:c=1", "--a", "0", "--b", "1",
         "--tau", "1", "--lambda", "1", "--points", "2049", "--no-timestamp"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1.0 / 6.0, rel=1e-5)
    assert len(doc["stage_stats"]) == 3


def test_bounds_centered_subcommand(tmp_path, capsys):
    code, out = run_cli(
        ["bounds", "--check", "centered",
         "--field", "product:g=(weierstrass:H=0.6,scales=10),h=(identity)",
         "--path", "weierstrass:H=0.7,scales=10",
         "--a", "0", "--b", "1",
         "--tau", "0.6", "--lambda", "1", "--gamma", "0.7",
         "--jmax", "3", "--quad", "n_outer=384",
         "--out", str(tmp_path), "--no-timestamp"],
        capsys,
    )
    assert code == 0
    csv_text = (tmp_path / "bounds-centered.csv").read_text()
    header = csv_text.splitlines()[0].split(",")
    assert header[:3] == ["j", "interval", "lhs"]
    assert "ratio" in header


_README_MEDIUM = ["--field", "product:g=(weierstrass:H=0.6,scales=12),h=(identity)",
                  "--path", "weierstrass:H=0.7,scales=12", "--a", "0", "--b", "1",
                  "--tau", "0.6", "--lambda", "1", "--gamma", "0.7", "--no-timestamp"]
_STABILITY_CHECKS = {
    "stability-w": (["--field2", "product:g=(weierstrass:H=0.65,scales=12),h=(identity)"],
                    "STABILITY_MEDIUM_CAP", "medium_two_term"),
    "stability-phi": (["--path2", "weierstrass:H=0.75,scales=12", "--theta", "0.8"],
                      "STABILITY_PATH_CAP", "path_two_term"),
}


@pytest.mark.parametrize("check", sorted(_STABILITY_CHECKS))
def test_bounds_stability_checks_its_cap(check, capsys, monkeypatch):
    extra, cap, name = _STABILITY_CHECKS[check]
    argv = ["bounds", "--check", check] + _README_MEDIUM + extra
    code, out = run_cli(argv, capsys)
    doc = json.loads(out)
    assert code == 0 and doc["passed"]
    assert [c["name"] for c in doc["checks"]] == [name]
    assert doc["checks"][0]["observed"] == doc["comparisons"]["lhs"]
    # a cap below the observed constant fails the check: exit 1
    monkeypatch.setattr(f"nlyoung.experiments.{cap}", -1.0)
    code, out = run_cli(argv, capsys)
    doc = json.loads(out)
    assert code == 1 and not doc["passed"]
    assert not doc["checks"][0]["passed"]


def test_bounds_stability_w_ratio_is_the_study_constant(capsys):
    argv = ["bounds", "--check", "stability-w"] + _README_MEDIUM + _STABILITY_CHECKS["stability-w"][0]
    code, out = run_cli(argv, capsys)
    row = json.loads(out)["comparisons"]
    assert code == 0
    assert row["ratio"] == max(0.0, row["lhs"] - row["term1"]) / row["term2"]
    assert row["ratio"] >= 0.0


def test_bounds_holder_runs_the_fractional_route_only(capsys, monkeypatch):
    def no_sewing(*args, **kwargs):
        raise AssertionError("the holder check reads no sewing value")

    monkeypatch.setattr("nlyoung.experiments.integrate_sewing", no_sewing)
    code, out = run_cli(["bounds", "--check", "holder"] + _README_MEDIUM, capsys)
    doc = json.loads(out)
    # the README medium meets tol=1e-5 on no grid up to the cap: exit 3, as integrate
    assert code == 3 and doc["nonconverged"] and doc["passed"]
    assert list(doc["reports"]) == ["fractional"]
    assert doc["reports"]["fractional"]["bound_ratios"]["holder"] > 0.0
    code, out = run_cli(["bounds", "--check", "holder"] + _README_MEDIUM + ["--quad", "tol=5e-3"], capsys)
    frac = json.loads(out)["reports"]["fractional"]
    assert code == 0 and frac["converged"] and frac["params"]["grid_cells"] == 8192


def test_bounds_stability_phi_theta_defaults_to_the_study(capsys):
    # the README medium (tau 0.6, lam 1, gamma 0.7) needs theta > 4/7
    argv = ["bounds", "--check", "stability-phi"] + _README_MEDIUM + [
        "--path2", "weierstrass:H=0.75,scales=12"]
    code, out = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["passed"]
    assert run_cli(argv + ["--theta", "0.8"], capsys) == (0, out)
    # tau + theta*lam*gamma = 0.95 <= 1: rejected before any output
    code = main(argv + ["--theta", "0.5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "need tau + theta*lam*gamma > 1" in captured.err


def test_indefinite_subcommand_writes_csv(tmp_path, capsys):
    code, out = run_cli(
        ["indefinite", "--field", "product:g=(sin),h=(const:c=1)",
         "--path", "identity", "--a", "0", "--b", "1",
         "--tau", "1", "--lambda", "1", "--gamma", "1",
         "--points", "33", "--out", str(tmp_path / "sub"), "--no-timestamp"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["regression_slope"] == pytest.approx(1.0, abs=0.05)
    csv_lines = (tmp_path / "sub" / "indefinite.csv").read_text().splitlines()
    assert csv_lines[0] == "t,value"
    assert len(csv_lines) == 34


def test_suite_iterated_exit_0(capsys):
    code, out = run_cli(["suite", "iterated", "--no-timestamp"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_quad_fragment_parsing():
    out = parse_quad_fragment("n=2048,tol=1e-6,n_outer=256")
    assert out == {"n_nodes": 2048, "tol": 1e-6, "n_outer": 256}
    with pytest.raises(SpecValidationError):
        parse_quad_fragment("bogus=3")
    with pytest.raises(SpecValidationError):
        parse_quad_fragment("n=abc")


@pytest.mark.parametrize(
    "quad",
    ["tol=nan", "grading=nan", "n_outer=-5", "n=abc", "grading=x",
     "grading=auto", "split_radius=0.1", "n_triple=48", "tail_floor=1e-4", "n=4098"],
)
def test_bad_quad_option_exit_2(capsys, quad):
    code = main(
        [
            "integrate", "--method", "frac",
            "--field", "product:g=(sin),h=(identity)",
            "--path", "identity",
            "--a", "0", "--b", "1",
            "--tau", "1", "--lambda", "1", "--gamma", "1",
            "--quad", quad,
            "--no-timestamp",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""


_PRODUCT = "product:g=(identity),h=(const:c=1)"
_ITERATE = ["iterate", "--rho", "const:c=1", "--a", "0", "--tau", "1", "--lambda", "1"]
_STABILITY = ["bounds", "--field", _PRODUCT, "--a", "0", "--b", "1",
              "--tau", "1", "--lambda", "1", "--gamma", "1", "--check"]
# subcommands missing a flag that their mode needs, and that flag
_MISSING_COMPANION = {
    "stability-w-no-field2": (_STABILITY + ["stability-w", "--path", "identity"], "--field2"),
    "stability-w-no-path": (_STABILITY + ["stability-w", "--field2", _PRODUCT], "--path"),
    "stability-phi-no-path2": (_STABILITY + ["stability-phi", "--path", "identity"], "--path2"),
    "holder-no-input": (["holder", "--a", "0", "--b", "1"], "--path"),
}
_HOLDER_FIELD = ["holder", "--field", "product:g=(weierstrass:H=0.6,scales=8),h=(identity)",
                 "--tau", "0.6", "--lambda", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["young", "--f", "bogus", "--g", "identity", "--a", "0", "--b", "1"],
        ["frac", "--op", "ileft", "--f", "bogus", "--alpha", "0.5", "--t", "1"],
        _ITERATE + ["--fields", "(bogus)", "--b", "1"],
        ["indefinite", "--field", "bogus", "--path", "identity", "--a", "0", "--b", "1",
         "--tau", "1", "--lambda", "1", "--gamma", "1"],
        ["holder", "--path", "bogus", "--a", "0", "--b", "1"],
        ["young", "--f", "identity", "--g", "identity", "--a", "1", "--b", "0"],
        ["young", "--f", "identity", "--g", "identity", "--a", "0", "--b", "nan"],
        ["holder", "--path", "identity", "--a", "0", "--b", "nan"],
        _ITERATE + ["--fields", f"({_PRODUCT})", "--b", "nan"],
        ["bounds", "--check", "centered", "--field", _PRODUCT, "--path", "identity",
         "--a", "0", "--b", "nan", "--tau", "1", "--lambda", "1", "--gamma", "1"],
        _ITERATE + ["--fields", f"({_PRODUCT}", "--b", "1"],
        ["young", "--f", "no-such-file.csv", "--g", "identity", "--a", "0", "--b", "1"],
        ["frac", "--op", "dleft", "--f", "sin", "--alpha", "0.5", "--a", "nan", "--t", "1"],
        ["frac", "--op", "iright", "--f", "sin", "--alpha", "0.5", "--t", "0", "--b", "inf"],
        ["frac", "--op", "ileft", "--f", "monomial:p=-0.5", "--alpha", "0.5", "--a", "0", "--t", "1"],
        _HOLDER_FIELD + ["--a", "nan", "--b", "1"],
        _HOLDER_FIELD + ["--a", "0", "--b", "1", "--box", "nan,1"],
        _HOLDER_FIELD + ["--a", "0", "--b", "inf"],
        _HOLDER_FIELD + ["--a", "0", "--b", "1", "--box", "0,inf"],
        ["integrate", "--field", "inf-grid.json", "--path", "identity", "--a", "0.6", "--b", "0.7",
         "--tau", "1", "--lambda", "1", "--gamma", "1"],
    ] + [argv for argv, _ in _MISSING_COMPANION.values()],
    ids=[
        "young-f", "frac-f", "iterate-fields", "indefinite-field", "holder-path",
        "young-reversed", "young-b-nan", "holder-b-nan", "iterate-b-nan", "bounds-b-nan",
        "iterate-unbalanced", "young-missing-csv", "frac-dleft-a-nan", "frac-iright-b-inf",
        "frac-ileft-f-infinite-at-a",
        "holder-field-a-nan", "holder-field-box-nan", "holder-field-b-inf", "holder-field-box-inf",
        "integrate-grid-inf-node",
    ] + list(_MISSING_COMPANION),
)
def test_bad_input_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # where no-such-file.csv does not exist
    # a grid whose last time node is infinite: JSON's Infinity reads as inf
    (tmp_path / "inf-grid.json").write_text(
        '{"ts": [0, 0.5, Infinity], "xs": [0, 1], "values": [[0, 1], [1, 2], [2, 3]]}'
    )
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, flag", list(_MISSING_COMPANION.values()), ids=list(_MISSING_COMPANION))
def test_missing_companion_flag_is_named(capsys, argv, flag):
    assert main(argv) == 2
    assert f"needs {flag}" in capsys.readouterr().err


def test_spec_round_trip_and_unknown_keys():
    spec = ExperimentSpec(
        name="x", field="product:g=(sin),h=(identity)", path="identity",
        tau=0.8, lam=1.0, gamma=0.9, a=0.0, b=1.0,
        alphas=(0.3, 0.5), quad={"n_outer": 256}, tolerances={"cross_rel": 0.02},
    )
    back = ExperimentSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert back == spec
    with pytest.raises(SpecValidationError):
        ExperimentSpec.from_json_dict({**spec.to_json_dict(), "surprise": 1})
    with pytest.raises(SpecValidationError):
        ExperimentSpec.from_json_dict({"name": "y"})


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nlyoung.cli", "frac", "--op", "ileft",
         "--f", "const:c=1", "--alpha", "0.5", "--a", "0", "--t", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-7)


def _write_grid_inputs(folder: Path, margin: float) -> tuple[str, str]:
    """A two-mode grid JSON whose x axis covers the path's values with the
    given margin on each side (a share of their span), and the path CSV."""
    phi = sample_function(make_weierstrass(0.6, 10), 0.0, 1.0, 1024)
    lo, hi = phi.values.min(), phi.values.max()
    ts = np.linspace(0.0, 1.0, 65)
    xs = np.linspace(lo - margin * (hi - lo), hi + margin * (hi - lo), 33)
    a_t, b_t = make_weierstrass(0.7, 6)(ts), np.cos(3.0 * ts)
    values = a_t[:, None] * xs + b_t[:, None] * np.sin(1.3 * xs + 0.4)
    write_grid_json(folder / "grid.json", GridField(ts, xs, values))
    write_path_csv(folder / "path.csv", phi)
    return str(folder / "grid.json"), str(folder / "path.csv")


_GRID_RUN = ["integrate", "--tau", "0.7", "--lambda", "1", "--gamma", "0.6", "--quad", "tol=1e-3",
             "--no-timestamp"]


@pytest.mark.parametrize("method", ["fractional", "both"])
def test_grid_covering_the_path_by_a_thin_margin(method, tmp_path, capsys):
    grid, path = _write_grid_inputs(tmp_path, 0.02)
    argv = _GRID_RUN + ["--method", method, "--field", grid, "--path", path, "--a", "0", "--b", "1"]
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["reports"]["fractional"]["bound_ratios"]["holder"] > 0.0


@pytest.mark.parametrize("miss", ["x-axis", "time-axis"])
def test_two_term_grid_off_its_axes_exits_2(miss, tmp_path, capsys):
    if miss == "x-axis":  # the grid's x axis misses the path's extremes
        grid, path = _write_grid_inputs(tmp_path, -0.05)
        bounds = ["--a", "0", "--b", "1"]
    else:  # a constant path inside the x axis, over [0, 1.5] past the time axis
        grid, _ = _write_grid_inputs(tmp_path, 0.1)
        path = f"const:c={json.loads(Path(grid).read_text())['xs'][16]!r}"
        bounds = ["--a", "0", "--b", "1.5"]
    code, out = run_cli(_GRID_RUN + ["--method", "sewing", "--field", grid, "--path", path, *bounds], capsys)
    assert code == 2
    assert out == ""


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    slot=st.sampled_from(["a", "b", "field-descriptor", "path-descriptor", "path-sample", "grid-value"]),
    bad=st.sampled_from(["nan", "inf", "-inf"]),
    row=st.integers(0, 32),
)
def test_non_finite_input_exits_2(slot, bad, row):
    """One non-finite number anywhere in the input of integrate --method both
    exits 2 before any report is printed, so none can carry a NaN that says
    converged."""
    with tempfile.TemporaryDirectory() as folder:
        field, path = _write_grid_inputs(Path(folder), 0.1)
        a, b = "0", "1"
        if slot == "a":
            a = bad
        elif slot == "b":
            b = bad
        elif slot == "field-descriptor":
            field = f"product:g=(sin:freq={bad}),h=(identity)"
        elif slot == "path-descriptor":
            path = f"weierstrass:H=0.7,scales=6,phases=0|1|{bad}|0|0|0"
        elif slot == "path-sample":
            lines = Path(path).read_text().splitlines()
            lines[1 + row] = lines[1 + row].split(",")[0] + f",{bad}"
            Path(path).write_text("\n".join(lines) + "\n")
        else:  # one nodal value; JSON writes NaN and Infinity
            doc = json.loads(Path(field).read_text())
            doc["values"][row][row % 33] = float(bad)
            Path(field).write_text(json.dumps(doc))
        # "--a=-inf": argparse reads a lone "-inf" as a flag
        argv = _GRID_RUN + ["--method", "both", "--field", field, "--path", path, f"--a={a}", f"--b={b}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")
