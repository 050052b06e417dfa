import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from expr_corpus import CORPUS
from gtdkit import analysis, cli, fundeq, geometry, jets
from gtdkit.errors import DegenerateMetricError

PI = math.pi


def run(argv):
    return cli.main(argv)


# -- systems ---------------------------------------------------------------------


def test_systems_listing(capsys):
    assert run(["systems"]) == 0
    out = capsys.readouterr().out
    assert "vdw (S, V; a, b, k)" in out
    assert "kerr_newman (S, J, Q)" in out
    systems_part, closed_part = out.split("closed-form metrics:")
    for part in (systems_part, closed_part):
        names = [l.strip().split(" ")[0] for l in part.splitlines() if l.startswith("  ")]
        assert names == sorted(names)


# -- eval ------------------------------------------------------------------------


def test_eval_rn_curvature(capsys):
    code = run(
        ["eval", "--system", "reissner_nordstrom", "--point", "S=6.2831853,Q=1",
         "--quantity", "curvature"]
    )
    assert code == 0
    out = capsys.readouterr().out
    value = float(next(l.split("=")[1] for l in out.splitlines() if l.startswith("curvature")))
    assert value == pytest.approx(160 / 27, rel=1e-6)


def test_eval_ideal_gas_metric(capsys):
    code = run(["eval", "--system", "ideal_gas", "--point", "S=0,V=1", "--quantity", "metric"])
    assert code == 0
    out = capsys.readouterr().out
    assert float(out.split("g_S_S = ")[1].splitlines()[0]) == pytest.approx(4 / 9, rel=1e-12)
    assert float(out.split("g_V_V = ")[1].splitlines()[0]) == pytest.approx(10 / 9, rel=1e-12)


def test_eval_domain_violation_exit_2(capsys):
    assert run(["eval", "--system", "vdw", "--point", "S=0,V=0.05"]) == 2
    assert "domain" in capsys.readouterr().err


def test_eval_ruppeiner_at_zero_temperature_names_the_field_and_the_point(capsys):
    # the message named neither, unlike every other one-point geometry error
    argv = ["eval", "--system", "reissner_nordstrom", "--metric-kind", "ruppeiner",
            "--point", "S=3.141592653589793,Q=1", "--quantity", "metric"]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: Ruppeiner metric undefined where the temperature vanishes: "
        "reissner_nordstrom[ruppeiner] at point (3.141592653589793, 1.0)\n"
    )


def test_eval_degenerate_exit_3(capsys):
    code = run(
        ["eval", "--system", "reissner_nordstrom",
         "--point", f"S={PI},Q=1", "--quantity", "curvature"]
    )
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


def test_eval_unknown_system_exit_2(capsys):
    assert run(["eval", "--system", "unobtainium", "--point", "S=1"]) == 2


@pytest.mark.parametrize("where", [".", "", "{tmp}/folder", "{tmp}/not-utf8.ini"])
def test_system_path_that_cannot_be_read_exit_2(tmp_path, monkeypatch, capsys, where):
    # a directory or a file that is not UTF-8 text is a user error naming the path, not a traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    (tmp_path / "not-utf8.ini").write_bytes(b"[system]\nname = \xff\xfe\n")
    where = where.format(tmp=tmp_path)
    assert run(["eval", "--system", where, "--point", "S=1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {str(Path(where))!r}")


def test_eval_json_report(tmp_path, capsys):
    out = tmp_path / "eval.json"
    code = run(
        ["eval", "--system", "ideal_gas", "--point", "S=0,V=1",
         "--output", str(out), "--format", "json"]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 2
    for key in ("system", "parameters", "command", "grid", "values",
                "singular_points", "fits", "residuals"):
        assert key in report
    assert report["command"] == "eval"
    assert report["values"]["potential"] == pytest.approx(1.0)


# the box of each closed-form metric's system
_CLOSED_BOXES = {
    "kerr_closed": "kerr",
    "kn_closed": "kerr_newman",
    "rn_closed": "reissner_nordstrom",
    "vdw_closed": "vdw",
}


def _eval_point(system, seed):
    box = cli._CHECK_BOXES[_CLOSED_BOXES.get(system, system)]
    rng = np.random.default_rng(seed)
    return ",".join(f"{name}={rng.uniform(*box[name])!r}" for name in box)


@pytest.mark.parametrize(
    "quantity, orders",
    [("all", [1, 3]), ("potential", [0]), ("intensive", [1]), ("metric", [2]), ("detg", [2]),
     ("curvature", [3])],
)
@pytest.mark.parametrize("system", ["kerr_newman", "kn_closed"])
def test_eval_evaluates_each_source_once(monkeypatch, capsys, system, quantity, orders):
    # the potential and intensives from one jet; g, det g and R from one more
    potential, components = [], []
    evaluate, evaluate_exprs = fundeq.evaluate, fundeq.evaluate_exprs

    def recording_evaluate(spec, point, order=jets.DEFAULT_ORDER):
        potential.append(order)
        return evaluate(spec, point, order)

    def recording_evaluate_exprs(tape, parameters, point, order, *rest):
        components.append(order)
        return evaluate_exprs(tape, parameters, point, order, *rest)

    monkeypatch.setattr(fundeq, "evaluate", recording_evaluate)
    monkeypatch.setattr(fundeq, "evaluate_exprs", recording_evaluate_exprs)
    code = run(["eval", "--system", system, "--point", _eval_point(system, 0), "--quantity", quantity])
    if system == "kn_closed":
        # a direct metric has no potential, and its components are evaluated once
        assert code == (2 if quantity in ("potential", "intensive") else 0)
        assert potential == []
        assert components == {"all": [2], "curvature": [2], "metric": [0], "detg": [0]}.get(quantity, [])
    else:
        assert code == 0
        assert potential == components == orders
    capsys.readouterr()


@pytest.mark.parametrize("system", [*fundeq.BUILTIN_NAMES, *geometry.CLOSED_FORM_NAMES])
def test_eval_all_prints_the_single_quantity_lines(tmp_path, capsys, system):
    has_spec = system in fundeq.BUILTIN_NAMES
    singles = (["potential", "intensive"] if has_spec else []) + ["metric", "detg", "curvature"]
    kinds = ["natural", "weinhold", "ruppeiner"] if has_spec else ["natural"]
    report = tmp_path / "eval.csv"
    for kind in kinds:
        for seed in range(3):
            where = ["--system", system, "--metric-kind", kind, "--point", _eval_point(system, seed)]

            def lines(quantity, *output):
                assert run(["eval", *where, "--quantity", quantity, *output]) == 0
                return capsys.readouterr().out.splitlines()

            single = {quantity: lines(quantity) for quantity in singles}
            # det g is one value whichever call computes it
            assert single["metric"][-1:] == single["detg"] == single["curvature"][:1]
            expected = [line for q in singles if q not in ("detg", "curvature") for line in single[q]]
            assert lines("all", "--output", str(report), "--format", "csv") == [
                *expected, *single["curvature"][1:]
            ]
            # the CSV row holds the same names and values, with R for curvature
            header, row = (line.split(",") for line in report.read_text().splitlines())
            dim = len(header) - len(expected) - 2
            printed = [line.replace("curvature", "R").split(" = ") for line in lines("all")]
            assert [list(pair) for pair in zip(header, row)][dim:-1] == printed
            assert (header[-1], row[-1]) == ("status", "ok")


def test_eval_all_reports_nan_determinant_before_degeneracy(tmp_path, capsys):
    # natural g = Phi Hess Phi overflows to inf in every entry, so det g is NaN:
    # a domain error whichever quantity asks, before curvature could call the
    # metric degenerate
    system = tmp_path / "steep.ini"
    system.write_text("[system]\nname = steep\nvariables = S, V\npotential = exp(200*S+200*V)\n")
    where = ["eval", "--system", str(system), "--point", "S=1.25,V=1", "--quantity"]
    for quantity in ("all", "detg", "curvature"):
        assert run([*where, quantity]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "det g of steep[natural] is not a number at point (1.25, 1.0)" in captured.err


def test_scan_marks_nan_determinant_domain_error_for_every_quantity(tmp_path):
    # the eval test above at two scan points: a NaN det g is a domain error
    # under curvature as under detg
    system = tmp_path / "steep.ini"
    system.write_text("[system]\nname = steep\nvariables = S, V\npotential = exp(200*S+200*V)\n")
    for quantity in ("curvature", "detg"):
        report = tmp_path / f"{quantity}.json"
        code = run(
            ["scan", "--system", str(system), "--range", "S=1.2:1.3:2", "--pin", "V=1",
             "--quantity", quantity, "--output", str(report)]
        )
        assert code == 0
        assert json.loads(report.read_text())["values"]["status"] == ["domain-error"] * 2


def test_eval_point_rejects_unknown_coordinates(capsys):
    assert run(["eval", "--system", "vdw", "--point", "S=1,V=2,X=3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --point names unknown coordinates ['X']" in captured.err


def test_eval_all_of_failing_direct_metric_names_its_first_evaluation(tmp_path, capsys):
    # `all` evaluates the components once, to second order, and that evaluation
    # fails before det g is formed (`--quantity detg` still names det g)
    metric = tmp_path / "steep.ini"
    metric.write_text(
        "[metric]\nname = steep\ncoordinates = S, V\n"
        "components = exp(1000*S), exp(1000*S); exp(1000*S), 1\n"
    )
    assert run(["eval", "--system", str(metric), "--point", "S=1.25,V=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: point (1.25, 1.0) makes steep not a number" in captured.err


# -- scan ------------------------------------------------------------------------


def test_scan_rn_closed_finds_root(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code = run(
        ["scan", "--system", "rn_closed", "--range", "S=0.5:10:200", "--pin", "Q=1",
         "--quantity", "detg", "--output", str(out)]
    )
    assert code == 0
    assert "root" in capsys.readouterr().out
    report = json.loads(out.read_text())
    roots = report["singular_points"]
    assert len(roots) == 1
    assert roots[0]["coords"]["S"] == pytest.approx(PI, abs=1e-8)


def test_scan_kerr_curvature_small(capsys, tmp_path):
    out = tmp_path / "kerr.json"
    code = run(
        ["scan", "--system", "kerr", "--range", f"S={PI}:30:8,J=0.05:2:8",
         "--quantity", "curvature", "--output", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    values = [row[0] for row, s in zip(report["values"]["rows"], report["values"]["status"])
              if s == "ok"]
    assert values and max(abs(v) for v in values) <= 1e-8


def test_scan_csv_format(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = run(
        ["scan", "--system", "ideal_gas", "--range", "S=0:1:3", "--pin", "V=1",
         "--quantity", "detg", "--output", str(out), "--format", "csv"]
    )
    assert code == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "S,V,det_g,status"
    cells = lines[1].split(",")
    assert cells[-1] == "ok"
    assert float(cells[2]) == pytest.approx(24 / 81, rel=1e-12)
    # 17 significant digits round-trip exactly
    assert float(f"{float(cells[2]):.17g}") == float(cells[2])


_CSV_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072009e-308, 1e308, -1e308]
_csv_cell = st.one_of(st.floats(), st.sampled_from(_CSV_EDGES))


@settings(max_examples=300, deadline=None)
@given(
    table=st.integers(min_value=1, max_value=4).flatmap(
        lambda ncols: st.lists(st.lists(_csv_cell, min_size=ncols, max_size=ncols), min_size=1, max_size=12)
    ),
    with_status=st.booleans(),
    with_keys=st.booleans(),
)
def test_csv_text_matches_the_per_cell_format(table, with_status, with_keys):
    # the one-template body writes the bytes of formatting each cell on its own;
    # a text cell, as a scan's preformatted coordinate or a status, is written as it is
    header = [f"c{i}" for i in range(len(table[0]))] + (["status"] if with_status else [])
    status = [f"s{i}" for i in range(len(table))] if with_status else None
    rows = [[f"{float(x):.17g}" for x in row] for row in table]
    cells = [[f"{float(row[0]):.17g}", *row[1:]] if with_keys else list(row) for row in table]
    if with_status:
        rows = [row + [s] for row, s in zip(rows, status)]
        cells = [row + [s] for row, s in zip(cells, status)]
    expected = "".join(",".join(row) + "\n" for row in [header, *rows])
    assert cli._csv_text(header, cells) == expected


def test_scan_csv_matches_the_per_cell_format_of_the_grid(tmp_path):
    # each axis value is formatted once: the rows are still one format per cell of each point
    out = tmp_path / "scan.csv"
    code = run(
        ["scan", "--system", "kerr_newman", "--range", "S=-1:10:7", "--range", "J=0.1:1.5:5",
         "--pin", "Q=0.8", "--quantity", "detg", "--format", "csv", "--output", str(out)]
    )
    assert code == 0
    f = geometry.HessianMetricField(fundeq.builtin("kerr_newman"))
    axes = {"S": analysis.Axis(-1.0, 10.0, 7), "J": analysis.Axis(0.1, 1.5, 5), "Q": 0.8}
    grid = analysis.GridSpec.build(f.coordinates, axes)
    scan = analysis.grid_scan(f, grid, "detg")
    assert "domain-error" in scan.status and "ok" in scan.status
    rows = [
        ",".join([*(f"{float(x):.17g}" for x in (*point, *values)), status])
        for point, values, status in zip(grid.points(), scan.values, scan.status)
    ]
    assert out.read_text() == "".join(line + "\n" for line in ["S,J,Q,det_g,status", *rows])


def test_scan_empty_domain_all_markers(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code = run(
        ["scan", "--system", "reissner_nordstrom", "--range", "S=-5:-1:5", "--pin", "Q=1",
         "--output", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert all(s == "domain-error" for s in report["values"]["status"])


def test_scan_malformed_range_exit_2(capsys):
    assert run(["scan", "--system", "vdw", "--range", "S=0:1"]) == 2
    assert run(["scan", "--system", "vdw", "--range", "S=1:0:5", "--pin", "V=1"]) == 2


@pytest.mark.parametrize("axis", ["S=1:inf:3", "S=-inf:1:3", "S=-1.7e308:1.7e308:3"])
def test_scan_range_the_grid_cannot_hold_exit_2(capsys, axis):
    # linspace would write S = nan or inf rows: an infinite end, or stop - start overflowing
    code = run(
        ["scan", "--system", "reissner_nordstrom", "--range", axis, "--pin", "Q=1",
         "--quantity", "detg"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite ends a finite distance apart" in captured.err


def test_scan_zero_fit_direction_exit_2(capsys):
    code = run(
        ["scan", "--system", "reissner_nordstrom", "--range", "S=4:10:5", "--pin", "Q=1",
         "--fit-center", f"S={PI},Q=1", "--fit-direction", "S=0"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "divergence exponent" not in captured.out
    assert "the fit direction is zero" in captured.err


_RN_SCAN = ["scan", "--system", "reissner_nordstrom", "--range", "S=4:10:5"]
_RN_FIT = [*_RN_SCAN, "--pin", "Q=1", "--fit-direction", "S=-1"]
_KN_EULER = ["check", "euler", "--system", "kerr_newman", "--trials", "5"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--pin", [*_RN_SCAN, "--pin", "Q={}"]),
        ("--point", ["eval", "--system", "reissner_nordstrom", "--point", "S=6,Q={}"]),
        ("--params", ["eval", "--system", "vdw", "--params", "a={}", "--point", "S=1,V=2"]),
        ("--fit-center", [*_RN_FIT, "--fit-center", "S={},Q=1"]),
        ("--fit-direction", [*_RN_SCAN, "--pin", "Q=1", "--fit-center", "S=3,Q=1", "--fit-direction", "S={}"]),
        ("--fit-offsets", [*_RN_FIT, "--fit-center", "S=3,Q=1", "--fit-offsets={}:12"]),
        # a one-point axis is its start, so a start that is not finite scanned S = nan
        ("--range", ["scan", "--system", "reissner_nordstrom", "--range", "S={}:1:1", "--pin", "Q=1"]),
        # check numbers that are not finite printed FAIL and exited 1, "check failed"
        ("--tol", [*_KN_EULER, "--tol={}"]),
        ("--beta", [*_KN_EULER, "--beta={}"]),
        ("--weights", [*_KN_EULER, "--weights={},1,0.5"]),
    ],
    ids=lambda param: param if isinstance(param, str) else "",
)
def test_flag_number_that_is_not_finite_exit_2(capsys, flag, argv, value):
    # NaN or an infinity gives no verdict: a NaN pin marked every point, a NaN fit found "no divergence"
    assert run([arg.format(value) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag}" in captured.err and f"{value!r} is not a finite number" in captured.err


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--fit-direction", [*_RN_FIT, "--fit-center", "S=3.14159,Q=1", "--fit-direction", "S=1,q=0.5"]),
        ("--fit-center", [*_RN_FIT, "--fit-center", "S=3.14159,Q=1,Z=7"]),
        ("--box", ["check", "euler", "--system", "vdw", "--beta", "1", "--box", "S=1:2,V=1:2,Z=0:1"]),
    ],
    ids=lambda param: param if isinstance(param, str) else "",
)
def test_flag_that_names_an_unknown_coordinate_exit_2(capsys, flag, argv):
    # the typo'd name was dropped: the fit ran along another direction, and the
    # check sampled a box without it, and each exited as if nothing were wrong
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag} names unknown coordinates" in captured.err


@pytest.mark.parametrize(
    "fit, message",
    [
        (["--fit-direction", "S=1,q=0.5"], "names unknown coordinates"),
        (["--fit-direction", "S=0"], "the fit direction is zero"),
        (["--fit-direction", "S=1", "--fit-offsets", "0.1:2"], "--fit-offsets needs"),
    ],
    ids=["unknown-coordinate", "zero-direction", "offsets"],
)
def test_scan_fit_flags_are_read_before_the_scan(monkeypatch, capsys, fit, message):
    # a bad fit flag exited 2 only after the whole grid and its locus had run
    calls = []
    monkeypatch.setattr(analysis, "grid_scan", lambda *args, **kwargs: calls.append(args))
    argv = ["scan", "--system", "reissner_nordstrom", "--range", "S=2:5:4", "--pin", "Q=1",
            "--quantity", "detg", "--fit-center", "S=3.14159,Q=1", *fit]
    assert run(argv) == 2
    assert message in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize(
    "fit, missing",
    [
        (["--fit-direction", "S=1", "--fit-offsets", "0.1:8"], "--fit-center"),
        (["--fit-direction", "S=1"], "--fit-center"),
        (["--fit-center", "S=3.14159,Q=1"], "--fit-direction"),
        (["--fit-offsets", "0.1:8"], "--fit-center and --fit-direction"),
    ],
    ids=["direction-offsets", "direction", "center", "offsets"],
)
def test_scan_fit_flag_without_its_partner_exit_2(monkeypatch, capsys, fit, missing):
    # without --fit-center the other fit flags were dropped and the scan exited
    # 0 with no fit; without --fit-direction it said "--fit-direction is empty"
    calls = []
    monkeypatch.setattr(analysis, "grid_scan", lambda *args, **kwargs: calls.append(args))
    argv = ["scan", "--system", "reissner_nordstrom", "--range", "S=2:5:4", "--pin", "Q=1",
            "--quantity", "detg", *fit]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: a divergence fit needs {missing}\n" in captured.err
    assert calls == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--range", "S=2:5:1000000000000", "--pin", "Q=1"],
         "grid of 1000000000000 points exceeds cap of 1000000"),
        (["--range", "S=2:5:1000000,Q=0.5:1.5:2"], "grid of 2000000 points exceeds cap of 1000000"),
        (["--range", "S=2:5:4", "--pin", "Q=1", "--fit-center", "S=3.14159,Q=1",
          "--fit-direction", "S=1", "--fit-offsets", "0.1:1000000000000"], "4 <= COUNT <= 1000000"),
    ],
    ids=["grid", "grid-product", "fit-offsets"],
)
def test_scan_counts_above_the_cap_exit_2_before_allocating(monkeypatch, capsys, flags, message):
    # a 10^12-point axis ran linspace before the cap check, and 10^12 fit
    # offsets had no cap: both ended in numpy's out-of-memory traceback, exit 1
    def refuse(*args):
        raise AssertionError("allocated the points of a count above the cap")

    monkeypatch.setattr(analysis.Axis, "values", refuse)
    monkeypatch.setattr(analysis, "geometric_offsets", refuse)
    assert run(["scan", "--system", "reissner_nordstrom", *flags, "--quantity", "detg"]) == 2
    assert message in capsys.readouterr().err


def test_check_box_that_is_not_a_number_names_the_flag(capsys):
    # the message was float()'s own, "could not convert string to float: 'a'"
    assert run(["check", "euler", "--system", "vdw", "--beta", "1", "--box", "S=a:1,V=1:2"]) == 2
    assert "error: --box expects VAR=lo:hi items, got 'a:1'" in capsys.readouterr().err


def test_check_negative_tolerance_exit_2(capsys):
    # no residual is below a negative tolerance: it printed FAIL and exited 1, "check failed"
    assert run([*_KN_EULER, "--tol=-1e-9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --tol: '-1e-9' is negative" in captured.err


def test_scan_fit_samples_that_round_to_one_point_exit_2(capsys):
    # S = 3.14159 + 1e-300 * 0.5^m rounds to 3.14159 for every m
    code = run([*_RN_FIT, "--fit-center", "S=3.14159,Q=1", "--fit-offsets", "1e-300:12:0.5"])
    assert code == 2
    captured = capsys.readouterr()
    assert "divergence exponent" not in captured.out
    assert "fit samples are not distinct" in captured.err


def test_scan_fit_whose_every_sample_fails_exit_2(capsys):
    # every sample S = -5 + t lies outside S > 0: no sample was below the noise floor
    code = run(
        ["scan", "--system", "reissner_nordstrom", "--range", "S=1:6:3", "--pin", "Q=1",
         "--fit-center", "S=-5,Q=1", "--fit-direction", "S=1"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "no divergence detected" not in captured.out
    assert "error: every fit sample failed" in captured.err
    assert "at offsets 0.1, 0.05, 0.025," in captured.err


def test_scan_fit_of_constant_curvature_does_not_diverge(tmp_path, capsys):
    # along phi the unit sphere's metric does not change, so R = 2 at every sample, bit for bit
    path = tmp_path / "metric.ini"
    path.write_text(
        "[metric]\nname = sphere\ncoordinates = theta, phi\n"
        "components = 1, 0; 0, sin(theta)^2\n"
    )
    report = tmp_path / "scan.json"
    code = run(
        ["scan", "--system", str(path), "--range", "theta=0.5:2.5:5", "--pin", "phi=0",
         "--fit-center", "theta=1,phi=0", "--fit-direction", "phi=1", "--fit-offsets", "0.1:8",
         "--output", str(report)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "no divergence detected (the value is the same at every kept sample)" in out
    assert "noise floor" not in out and "divergence exponent" not in out
    fits = json.loads(report.read_text())["fits"]
    assert fits == [
        {"exponent": 0.0, "intercept": 0.0, "correlation": 0.0, "samples": 8, "diverges": False}
    ]


def test_scan_write_failure_exit_4(capsys):
    code = run(
        ["scan", "--system", "ideal_gas", "--range", "S=0:1:3", "--pin", "V=1",
         "--output", "/nonexistent-dir/report.json"]
    )
    assert code == 4


def test_scan_deterministic_output(tmp_path, monkeypatch):
    args = ["scan", "--system", "rn_closed", "--range", "S=1:8:40", "--pin", "Q=1",
            "--quantity", "curvature", "--format", "csv"]
    outputs, rows = [], []
    for budget in (1, 1000, analysis.CHUNK_BYTES):
        monkeypatch.setattr(analysis, "CHUNK_BYTES", budget)
        rows.append(analysis._batch_rows(geometry.closed_form_metric("rn_closed"), "curvature"))
        out = tmp_path / f"scan-{budget}.csv"
        assert run(args + ["--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    # one point a batch, then several points a batch that still split the 40 points
    assert rows[0] == 1 < rows[1] < 40
    assert outputs[0] == outputs[1] == outputs[2]


def test_scan_with_divergence_fit(capsys):
    code = run(
        ["scan", "--system", "reissner_nordstrom", "--range", "S=4:10:20", "--pin", "Q=1",
         "--quantity", "curvature",
         "--fit-center", f"S={PI},Q=1", "--fit-direction", "S=-1",
         "--fit-offsets", "0.2:10"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "divergence exponent: 2.0" in out


# -- check -----------------------------------------------------------------------


def test_check_legendre_total_passes(capsys):
    assert run(["check", "legendre", "--n", "2", "--transform", "total", "--trials", "100"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_legendre_partial_fails(capsys):
    assert run(["check", "legendre", "--n", "2", "--transform", "subset=1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_check_euler_kerr_newman(capsys):
    code = run(
        ["check", "euler", "--system", "kerr_newman", "--beta", "0.5",
         "--weights", "1,1,0.5", "--trials", "20"]
    )
    assert code == 0


def test_check_gibbs_duhem_kerr_newman(capsys):
    assert run(["check", "gibbs-duhem", "--system", "kerr_newman", "--trials", "20"]) == 0


def test_check_contact(capsys):
    for n in ("1", "2", "3"):
        assert run(["check", "contact", "--n", n, "--trials", "10"]) == 0


def test_check_first_law(capsys):
    assert run(["check", "first-law", "--system", "vdw", "--trials", "20"]) == 0


@pytest.mark.parametrize(
    "box", ["S=nan:1,V=1:2", "S=0.5:inf,V=1:2", "S=1:0.5,V=1:2", "S=-1e308:1e308,V=1:2"]
)
def test_check_box_needs_finite_ordered_bounds_exit_2(capsys, box):
    assert run(["check", "euler", "--system", "vdw", "--beta", "1", "--box", box]) == 2
    assert "needs finite lo < hi" in capsys.readouterr().err


def test_check_bad_transform_exit_2(capsys):
    assert run(["check", "legendre", "--transform", "diagonal"]) == 2


def test_check_needs_a_trial(capsys):
    assert run(["check", "legendre", "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --trials must be at least 1" in captured.err


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("identity", ["legendre", "contact"])
def test_check_needs_a_pair(capsys, identity, n):
    # --n 0 compared nothing and printed PASS; --n -1 failed inside factorial()
    assert run(["check", identity, "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --n must be at least 1" in captured.err


@pytest.mark.parametrize(
    "identity, flags, message",
    [
        ("legendre", ["--n", "1000000000", "--trials", "1"], "--n must be at most 8"),
        ("contact", ["--n", "9"], "--n must be at most 8"),
        ("legendre", ["--n", "2", "--trials", "1000000000000"], "--trials must be at most 1000000"),
        ("contact", ["--trials", "1000001"], "--trials must be at most 1000000"),
    ],
)
def test_check_counts_above_their_bound_exit_2_before_building(
    monkeypatch, capsys, identity, flags, message
):
    # --n 10^9 ended in a MemoryError traceback with exit 1, "check failed", and
    # --trials 10^12 ran on with no end
    from gtdkit import phase_space

    def refuse(*args):
        raise AssertionError("built a map or a phase point for a count above its bound")

    monkeypatch.setattr(phase_space.LegendreMap, "total", refuse)
    monkeypatch.setattr(phase_space.PhasePoint, "from_coords", refuse)
    assert run(["check", identity, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


def test_check_report_file(tmp_path, capsys):
    out = tmp_path / "check.json"
    code = run(["check", "contact", "--n", "2", "--trials", "5", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["residuals"]["pass"] is True
    assert report["residuals"]["trials"] == 5


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_check_fails_when_a_trial_is_not_a_number(tmp_path, capsys, seed):
    # 2*S overflows near 1.5e308, so some Euler residuals are inf - inf; the
    # max of the residuals skipped them unless the first trial was one
    system = tmp_path / "lin.ini"
    system.write_text("[system]\nname = lin\nvariables = S\npotential = 2*S\nweights = 1\nbeta = 1\n")
    out = tmp_path / "check.json"
    argv = ["check", "euler", "--system", str(system), "--box", "S=1e307:1.5e308",
            "--trials", "20", "--seed", str(seed), "--output", str(out)]
    assert run(argv) == 1
    assert "FAIL" in capsys.readouterr().out
    residuals = json.loads(out.read_text())["residuals"]
    assert None in residuals["values"]
    assert residuals["max"] is None and residuals["pass"] is False


# each identity's flags, and for the system-bound ones the spec and its box in the spec's order
_CHECK_RUNS = {
    "legendre": (["--n", "2", "--transform", "total"], None, None),
    "contact": (["--n", "3"], None, None),
    "euler": (
        ["--system", "kerr_newman", "--beta", "0.5", "--weights", "1,1,0.5"],
        "kerr_newman",
        [(1.0, 10.0), (0.1, 1.5), (0.3, 1.5)],
    ),
    "gibbs-duhem": (
        ["--system", "reissner_nordstrom", "--box", "Q=0.5:1,S=2:3"],
        "reissner_nordstrom",
        [(2.0, 3.0), (0.5, 1.0)],
    ),
    "first-law": (["--system", "vdw"], "vdw", [(0.5, 2.0), (0.7, 5.0)]),
}


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("identity", sorted(_CHECK_RUNS))
def test_check_residuals_follow_the_draw_order(tmp_path, capsys, identity, seed):
    # a trial draws 2n + 1 phase coordinates, or one uniform per variable of the
    # box in the spec's order and then, for first-law and gibbs-duhem, a unit
    # direction; so a seed gives every residual's bits
    from gtdkit import phase_space

    flags, system, bounds = _CHECK_RUNS[identity]
    out = tmp_path / "check.json"
    argv = ["check", identity, *flags, "--trials", "6", "--seed", str(seed), "--output", str(out)]
    assert run(argv) == 0
    rng = np.random.default_rng(seed)
    expected = []
    for _ in range(6):
        if system is None:
            n = 2 if identity == "legendre" else 3
            point = phase_space.PhasePoint.from_coords(rng.uniform(-2.0, 2.0, 2 * n + 1))
            if identity == "legendre":
                raw = phase_space.legendre_invariance_residual(phase_space.LegendreMap.total(n), point)
            else:
                raw = phase_space.contact_volume_coefficient(point) - phase_space.contact_volume_expected(n)
            expected.append(abs(raw))
            continue
        spec = fundeq.builtin(system)
        point = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
        if identity == "euler":
            raw = phase_space.euler_residual(spec, point, (1.0, 1.0, 0.5), 0.5)
        else:
            direction = rng.normal(size=spec.dim)
            direction /= np.linalg.norm(direction)
            if identity == "first-law":
                raw = phase_space.theta_residual(spec, point, direction)
            else:
                raw = phase_space.gibbs_duhem_residual(spec, point, direction)
        expected.append(abs(raw))
    assert json.loads(out.read_text())["residuals"]["values"] == expected


def test_check_reads_the_box_once(monkeypatch, capsys):
    # each trial parsed --box again: 50 trials over two coordinates made 100 calls
    calls = []

    def counted(text, flag):
        calls.append(text)
        return interval(text, flag)

    interval = cli._interval
    monkeypatch.setattr(cli, "_interval", counted)
    argv = ["check", "euler", "--system", "vdw", "--beta", "1", "--box", "S=1:2,V=1:2", "--trials", "50"]
    assert run(argv) == cli.EXIT_CHECK_FAILED  # the vdW potential is not of degree 1
    assert calls == ["1:2", "1:2"]


# the flags legendre and contact leave unread, each with a value it would take
_PHASE_SPACE_FLAGS = [
    ("--system", "vdw"), ("--params", "a=1"), ("--weights", "1,1"), ("--beta", "1"), ("--box", "S=1:2")
]


@pytest.mark.parametrize(
    "identity, flag, value",
    [(identity, *given) for identity in ("contact", "legendre") for given in _PHASE_SPACE_FLAGS]
    + [("first-law", "--weights", "1,1"), ("first-law", "--beta", "1")],
)
def test_check_refuses_a_flag_its_identity_does_not_read(capsys, identity, flag, value):
    # each flag went unread and the check passed with exit 0; --params landed in the report
    system = ["--system", "vdw"] if identity == "first-law" else []
    assert run(["check", identity, *system, flag, value, "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: check {identity} does not read {flag}\n"


def test_check_names_every_unread_flag_in_parser_order(capsys):
    argv = ["check", "legendre", "--box", "S=x", "--beta", "nan", "--weights", "x", "--system", "nosuch"]
    assert run(argv) == 2
    expected = "error: check legendre does not read --system, --weights, --beta, --box\n"
    assert capsys.readouterr().err == expected


# -- file-based systems ------------------------------------------------------------


def test_eval_system_file(tmp_path, capsys):
    path = tmp_path / "sys.ini"
    path.write_text(
        "[system]\nname = toy\nvariables = S, V\n"
        "potential = (exp(S/k)/(V-b))^(2/3) - a/V\n\n"
        "[parameters]\na = 0.0\nb = 0.0\nk = 1.0\n"
    )
    code = run(["eval", "--system", str(path), "--point", "S=0,V=1", "--quantity", "potential"])
    assert code == 0
    out = capsys.readouterr().out
    assert float(out.split("potential = ")[1].splitlines()[0]) == pytest.approx(1.0)


def test_scan_metric_file(tmp_path, capsys):
    path = tmp_path / "metric.ini"
    path.write_text(
        "[metric]\nname = sphere\ncoordinates = theta, phi\n"
        "components = 1, 0; 0, sin(theta)^2\n"
    )
    code = run(
        ["scan", "--system", str(path), "--range", "theta=0.5:2.5:5", "--pin", "phi=0",
         "--quantity", "curvature"]
    )
    assert code == 0


_SYSTEM_FILE = (
    "[system]\nname = toy\nvariables = S, V\n"
    "potential = (exp(S/k)/(V-b))^(2/3) - a/V\n\n"
    "[parameters]\na = 0.0\nb = 0.0\nk = 1.0\n"
)


def test_system_file_that_mentions_metric_in_a_comment(tmp_path, capsys):
    # the file kind follows its sections, not its text
    path = tmp_path / "sys.ini"
    path.write_text("# unlike a [metric] file, this one has a potential\n" + _SYSTEM_FILE)
    code = run(["eval", "--system", str(path), "--point", "S=0,V=1", "--quantity", "potential"])
    assert code == 0
    assert float(capsys.readouterr().out.split("potential = ")[1].splitlines()[0]) == 1.0


@pytest.mark.parametrize("command", ["scan", "eval"])
def test_file_with_system_and_metric_sections_exit_2(tmp_path, capsys, command):
    path = tmp_path / "both.ini"
    path.write_text(_SYSTEM_FILE + "\n[metric]\ncoordinates = S, V\ncomponents = 1, 0; 0, 1\n")
    at = ["--point", "S=0,V=1"] if command == "eval" else ["--range", "S=0:1:3", "--pin", "V=1"]
    assert run([command, "--system", str(path), *at]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "has both a [system] and a [metric] section" in captured.err


@pytest.mark.parametrize(
    "text, point",
    [
        (_SYSTEM_FILE, "S=0,V=1"),
        ("[metric]\nname = sphere\ncoordinates = theta, phi\ncomponents = 1, 0; 0, sin(theta)^2\n",
         "theta=1,phi=0"),
    ],
    ids=["system", "metric"],
)
def test_definition_file_is_read_once(tmp_path, monkeypatch, capsys, text, point):
    # telling a [metric] file from a [system] file read and parsed it, and then
    # its loader read and parsed it again
    path = tmp_path / "definition.ini"
    path.write_text(text)
    calls = []
    read_sections = fundeq._read_sections

    def counting_read_sections(p):
        calls.append(p)
        return read_sections(p)

    monkeypatch.setattr(fundeq, "_read_sections", counting_read_sections)
    assert run(["eval", "--system", str(path), "--point", point, "--quantity", "detg"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("text", ["x = 1\n", "[metric]\nname = a\nname = b\n"])
def test_malformed_file_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert run(["eval", "--system", str(path), "--point", "x=1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize(
    "text, key, value",
    [
        (_SYSTEM_FILE.replace("b = 0.0", "b = nan"), "[parameters] b", "nan"),
        (_SYSTEM_FILE.replace("\n\n[", "\nbeta = nan\n\n["), "[system] beta", "nan"),
        (_SYSTEM_FILE.replace("\n\n[", "\nweights = 1, x\n\n["), "[system] weights", "x"),
        (
            "[metric]\ncoordinates = S, V\ncomponents = r, 0; 0, r\n\n[parameters]\nr = inf\n",
            "[parameters] r",
            "inf",
        ),
    ],
    ids=["parameter", "beta", "weights", "metric-parameter"],
)
def test_definition_file_number_that_is_not_finite_exit_2(tmp_path, capsys, text, key, value):
    # a file's numbers follow the rule of the flags: a NaN beta printed FAIL
    # and exited 1, "check failed", and an infinite parameter loaded
    path = tmp_path / "defs.ini"
    path.write_text(text)
    assert run(["eval", "--system", str(path), "--point", "S=1,V=2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {path}: {key}: {value!r} is not a" in captured.err


@pytest.mark.parametrize(
    "system, point, domain",
    [
        ("vdw_closed", "S=1,V=0.05", "V > b"),
        ("rn_closed", "S=-1,Q=1", "S > 0"),
        ("kn_closed", "S=-1,J=0.5,Q=1", "S > 0"),
        ("kerr_closed", "S=-1,J=0.5", "S > 0"),
    ],
)
def test_closed_form_domain_error_names_the_domain(capsys, system, point, domain):
    # as the built-in systems do: "outside domain of vdw (requires V > b)"
    assert run(["eval", "--system", system, "--point", point]) == 2
    assert f"outside domain of {system} (requires {domain})" in capsys.readouterr().err


def test_constant_domain_error_in_metric_file(tmp_path, capsys):
    # sqrt(-1) is kept, not folded, when the components are compiled: the file
    # loads, one point fails, and a scan fails every point
    path = tmp_path / "imaginary.ini"
    path.write_text("[metric]\nname = imaginary\ncoordinates = x\ncomponents = sqrt(-1) + x\n")
    field = geometry.load_metric_file(path)
    assert field.dim == 1
    assert run(["eval", "--system", str(path), "--point", "x=1"]) == 2
    assert "fractional power of non-positive value" in capsys.readouterr().err
    report = tmp_path / "scan.json"
    for quantity in ("detg", "curvature"):
        code = run(
            ["scan", "--system", str(path), "--range", "x=0:2:5", "--quantity", quantity,
             "--output", str(report)]
        )
        assert code == 0
        assert json.loads(report.read_text())["values"]["status"] == ["domain-error"] * 5


def test_one_point_kernel_error_names_the_system_and_the_point(tmp_path, capsys):
    # the kernel's text follows the system, the point and the parameters, as
    # the "outside domain" and "not a number" messages name them
    path = tmp_path / "powers.ini"
    path.write_text(
        "[system]\nname = powers\nvariables = S, V\npotential = k*S^V\n[parameters]\nk = 2\n"
    )
    assert run(["eval", "--system", str(path), "--point", "S=-1,V=2"]) == 2
    assert capsys.readouterr().err == (
        "error: point (-1.0, 2.0) fails in powers with k = 2.0: ln of non-positive value -1.0\n"
    )


@pytest.mark.parametrize("command", ["scan", "eval"])
def test_metric_file_with_undeclared_identifier_exit_2(tmp_path, capsys, command):
    path = tmp_path / "metric.ini"
    path.write_text(
        "[metric]\nname = sphere\ncoordinates = theta, phi\n"
        "components = r^2, 0; 0, r^2*sin(theta)^2\n"
    )
    where = {
        "scan": ["--range", "theta=0.5:1:3", "--pin", "phi=0"],
        "eval": ["--point", "theta=0.5,phi=0"],
    }[command]
    code = run([command, "--system", str(path), *where, "--quantity", "detg"])
    assert code == 2
    assert "undeclared identifiers: ['r']" in capsys.readouterr().err


# metric files that break the name rule of a [system] file: a coordinate named
# twice, a parameter named like a coordinate, a coordinate named like a
# constant, a coordinate no expression can read (it evaluated, g_2y_2y = 1)
_NAME_CLASHES = {
    "twice": (
        "coordinates = x, x\ncomponents = 1, 0; 0, x^2\n",
        ["x"],
        "variable and parameter names must be distinct",
    ),
    "parameter": (
        "coordinates = x, y\ncomponents = x^2, 0; 0, y^2\n[parameters]\nx = 5\n",
        ["x", "y"],
        "variable and parameter names must be distinct",
    ),
    "reserved": (
        "coordinates = pi, y\ncomponents = pi^2, 0; 0, y^2\n",
        ["pi", "y"],
        "reserved identifiers cannot be declared: ['pi']",
    ),
    "unreadable": (
        "coordinates = x, 2y\ncomponents = 1, 0; 0, 1\n",
        ["x", "2y"],
        "declared names must be identifiers of the grammar: ['2y']",
    ),
}


@pytest.mark.parametrize("clash", sorted(_NAME_CLASHES))
@pytest.mark.parametrize("command", ["scan", "eval"])
def test_metric_file_follows_the_system_name_rule(tmp_path, capsys, command, clash):
    body, coords, message = _NAME_CLASHES[clash]
    path = tmp_path / "metric.ini"
    path.write_text(f"[metric]\nname = clash\n{body}")
    if command == "scan":
        where = ["--range", f"{coords[0]}=1:2:3", *(f"--pin={c}=1" for c in coords[1:])]
    else:
        where = ["--point", ",".join(f"{c}=1" for c in coords)]
    assert run([command, "--system", str(path), *where]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("command", ["scan", "eval"])
def test_system_file_with_a_name_the_grammar_cannot_read_exit_2(tmp_path, capsys, command):
    # no expression can read V-b: before the name rule the file loaded and a
    # scan that pinned V-b reported ok points
    path = tmp_path / "typo.ini"
    path.write_text("[system]\nname = typo\nvariables = S, V-b\npotential = S^2 + S\n")
    where = {
        "scan": ["--range", "S=1:2:3", "--pin", "V-b=1", "--quantity", "detg"],
        "eval": ["--point", "S=1.5,V-b=1.5"],
    }[command]
    assert run([command, "--system", str(path), *where]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: declared names must be identifiers of the grammar: ['V-b']" in captured.err


@pytest.mark.parametrize("command", ["scan", "eval"])
@pytest.mark.parametrize("system", ["kn_closed", "metric file"])
def test_metric_kind_applies_to_fundamental_equations_only(tmp_path, capsys, command, system):
    path = tmp_path / "metric.ini"
    path.write_text(
        "[metric]\nname = flat\ncoordinates = S, J, Q\ncomponents = 1, 0, 0; 0, S, 0; 0, 0, 1\n"
    )
    system = str(path) if system == "metric file" else system
    where = {
        "scan": ["--range", "S=1:2:3", "--pin", "J=0.5", "--pin", "Q=0.5"],
        "eval": ["--point", "S=1,J=0.5,Q=0.5"],
    }[command]
    assert run([command, "--system", system, "--metric-kind", "ruppeiner", *where]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {system} is a direct metric; --metric-kind does not apply" in captured.err


@pytest.mark.parametrize("source", ["builtin", "closed form", "metric file", "system file"])
def test_unknown_params_get_one_message_for_every_source(tmp_path, capsys, source):
    path = tmp_path / "source.ini"
    if source == "metric file":
        path.write_text(
            "[metric]\nname = gas\ncoordinates = S, V\ncomponents = a, 0; 0, b/V\n"
            "[parameters]\na = 1\nb = 0.1\n"
        )
    else:
        path.write_text(
            "[system]\nname = gas\nvariables = S, V\npotential = (exp(S/k)/(V-b))^(2/3) - a/V\n"
            "[parameters]\na = 1\nb = 0.1\nk = 1\n"
        )
    system, name = {
        "builtin": ("vdw", "vdw"),
        "closed form": ("vdw_closed", "vdw_closed"),
    }.get(source, (str(path), "gas"))
    at = ["--system", system, "--params", "a=2,zz=1", "--point", "S=1,V=2"]
    assert run(["eval", *at]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown parameters for '{name}': ['zz']\n"
    # a known name replaces the default
    assert run(["eval", *at[:3], "a=2", *at[4:], "--quantity", "detg"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("system", ["vdw", "vdw_closed"])
def test_params_run_compiles_once(monkeypatch, capsys, system):
    calls, compile_exprs = [], fundeq.compile_exprs

    def counting_compile(exprs, variables):
        calls.append(exprs)
        return compile_exprs(exprs, variables)

    monkeypatch.setattr(fundeq, "compile_exprs", counting_compile)
    at = ["eval", "--system", system, "--point", "S=0.9,V=1", "--quantity", "detg"]
    assert run([*at, "--params", "a=2"]) == 0
    assert len(calls) == 1
    overridden = capsys.readouterr().out
    assert run(at) == 0
    assert overridden != capsys.readouterr().out


def test_metric_file_row_after_a_space_says_it_is_a_comment(tmp_path, capsys):
    # the inline comment rule of both file formats cuts the second row off
    path = tmp_path / "sphere.ini"
    path.write_text("[metric]\nname = s\ncoordinates = theta, phi\ncomponents = 1, 0 ; 0, sin(theta)^2\n")
    assert run(["eval", "--system", str(path), "--point", "theta=1,phi=0"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: components must form a 2x2 matrix, rows read: 1 "
        "(a ';' after a space starts a comment: separate rows as in '1, 0; 0, 1')\n"
    )


def test_closed_form_params_move_the_domain(tmp_path, capsys):
    # b = 0.5 moves the vdW covolume: V <= 0.5 is outside the domain
    report = tmp_path / "scan.json"
    code = run(
        ["scan", "--system", "vdw_closed", "--params", "b=0.5", "--range", "V=0.3:0.9:7",
         "--pin", "S=1", "--quantity", "detg", "--output", str(report)]
    )
    assert code == 0
    status = json.loads(report.read_text())["values"]["status"]
    assert status == ["domain-error"] * 3 + ["ok"] * 4


@pytest.mark.parametrize("quantity", ["potential", "curvature"])
def test_scan_fractional_power_of_negative_base_marks_points(tmp_path, capsys, quantity):
    # (S - V)^(2/3) is undefined for S < V: a marked point, not a traceback
    path = tmp_path / "cusp.ini"
    path.write_text("[system]\nname = cusp\nvariables = S, V\npotential = (S - V)^(2/3) + S*V\n")
    out = tmp_path / "scan.json"
    code = run(
        ["scan", "--system", str(path), "--range", "S=0.1:2:5", "--pin", "V=1",
         "--quantity", quantity, "--output", str(out)]
    )
    assert code == 0
    status = json.loads(out.read_text())["values"]["status"]
    assert status[:2] == ["domain-error", "domain-error"]
    assert "domain-error" not in status[2:]


def test_scan_ruppeiner_pole_is_not_a_root(tmp_path, capsys):
    # det g = det Hess / T^n changes sign through the T = 0 pole at S = pi Q^2
    out = tmp_path / "scan.json"
    code = run(
        ["scan", "--system", "reissner_nordstrom", "--metric-kind", "ruppeiner",
         "--range", "S=0.5:10:50", "--pin", "Q=1", "--quantity", "detg", "--output", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "root:" not in printed
    assert "pole: S=3.14159265" in printed
    (point,) = json.loads(out.read_text())["singular_points"]
    assert point["category"] == "pole"
    assert point["coords"]["S"] == pytest.approx(PI, abs=1e-9)


@pytest.mark.parametrize("sign", ["", "-"])
def test_scan_prints_a_zero_on_a_grid_point_as_a_root(tmp_path, capsys, sign):
    # det g = +-t is exactly 0 at t = 0, between grid neighbours of opposite sign
    path = tmp_path / "line.ini"
    path.write_text(f"[metric]\ncoordinates = t, x\ncomponents = {sign}t, 0; 0, 1\n")
    code = run(
        ["scan", "--system", str(path), "--range", "t=-1:1:5", "--pin", "x=0", "--quantity", "detg"]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["root: t=0, x=0  det_g = 0"]


@pytest.mark.parametrize("kind, head", [("ruppeiner", "pole"), ("natural", "root")])
def test_scan_root_and_pole_lines_format_each_number_alone(capsys, kind, head):
    # one template writes every line: each number keeps the bytes of its own fmt call
    code = run(
        ["scan", "--system", "reissner_nordstrom", "--metric-kind", kind,
         "--range", "S=0.5:10:50", "--range", "Q=0.5:1.5:4", "--quantity", "detg"]
    )
    assert code == 0
    printed = capsys.readouterr().out.splitlines()[1:]
    f = geometry.HessianMetricField(fundeq.builtin("reissner_nordstrom"), geometry.MetricKind(kind))
    axes = {"S": analysis.Axis(0.5, 10.0, 50), "Q": analysis.Axis(0.5, 1.5, 4)}
    expected = []
    for root in analysis.find_singular_locus(f, analysis.GridSpec.build(f.coordinates, axes)):
        coords = ", ".join(f"{k}={cli.fmt(v)}" for k, v in root.coords.items())
        line = f"{coords}  det_g = {cli.fmt(root.det_g)}"
        expected.append(f"pole: {line}" if root.category == "pole" else f"root: {line} [{root.category}]")
    assert len(expected) > 4 and all(line.startswith(head) for line in expected)
    assert printed == expected


@pytest.mark.parametrize(
    "system, other, count", [("reissner_nordstrom", "Q", 36), ("ideal_gas", "V", 0)]
)
def test_scan_prints_its_root_lines_in_one_write(monkeypatch, system, other, count):
    # unbuffered or on a terminal every print is a write(2) of its own, so the
    # root lines go in one print, and a scan without roots prints no empty line
    writes = []

    class Recording(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Recording())
    code = run(
        ["scan", "--system", system, "--range", "S=0.5:10:50", "--range", f"{other}=0.5:1.5:4",
         "--quantity", "detg"]
    )
    assert code == 0
    printed = sys.stdout.getvalue()
    assert "\n\n" not in printed and printed.count("root: ") == count
    assert len([w for w in writes if "root: " in w]) == min(count, 1)


# -- CLI contract over the expression corpus ----------------------------------------

_fuzz_coordinate = st.floats(min_value=-3.0, max_value=3.0).map(lambda v: round(v, 3))
_fuzz_width = st.floats(min_value=0.0, max_value=3.0).map(lambda v: round(v, 3))
# start, width and count of one variable's range; count 0 pins the variable at start
_fuzz_axis = st.tuples(_fuzz_coordinate, _fuzz_width, st.integers(min_value=0, max_value=4))
_FUZZ_MAX_POINTS = 64
_OVERFLOW_AXES = [(0.5, 1.5, 4)] * 6
_fuzz_kind = st.sampled_from([k.value for k in cli.MetricKind])
_fuzz_axes = st.lists(_fuzz_axis, min_size=6, max_size=6)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    source=st.sampled_from(CORPUS),
    kind=_fuzz_kind,
    report_format=st.sampled_from(["json", "csv"]),
    axes=_fuzz_axes,
)
@example(source="S*exp(1000)", kind="natural", report_format="json", axes=_OVERFLOW_AXES)
@example(source="10^400 + S", kind="ruppeiner", report_format="csv", axes=_OVERFLOW_AXES)
# powers of T under- and overflow in the Ruppeiner kind, so R is NaN at every point
@example(
    source="1e-150*sqrt((S/(4*pi))*(1 + pi*Q^2/S)^2)",
    kind="ruppeiner",
    report_format="csv",
    axes=_OVERFLOW_AXES,
)
def test_cli_exit_codes_over_corpus(tmp_path, source, kind, report_format, axes):
    # every grammar-accepted potential, and every direct metric with it on the
    # diagonal, ends in a documented exit code, never a traceback
    for code, report in _corpus_runs(tmp_path, source, kind, report_format, axes):
        assert code in (0, 2, 3)
        if code == 0:
            _assert_no_nan_reported_ok(report, report_format)


def _reject_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(source=st.sampled_from(CORPUS), kind=_fuzz_kind, axes=_fuzz_axes)
@example(source="S*exp(1000)", kind="natural", axes=_OVERFLOW_AXES)
@example(source="-10^400 + S", kind="ruppeiner", axes=_OVERFLOW_AXES)
def test_cli_json_reports_are_strict_over_corpus(tmp_path, source, kind, axes):
    # every JSON report of the fuzz above parses without NaN or Infinity
    for code, report in _corpus_runs(tmp_path, source, kind, "json", axes):
        if code == 0:
            json.loads(report.read_text(), parse_constant=_reject_constant)


def _corpus_runs(tmp_path, source, kind, report_format, axes):
    """Every scan quantity and one eval of `source`, as a system and as a direct metric.

    Yields each run's exit code and the report path it writes to.
    """
    names = list(fundeq.compile_exprs([fundeq.parse(source)], ()).names) or ["x"]
    system = tmp_path / "corpus.ini"
    system.write_text(
        f"[system]\nname = corpus\nvariables = {', '.join(names)}\npotential = {source}\n"
    )
    metric = tmp_path / "metric.ini"
    n = len(names)
    diagonal = "; ".join(", ".join(source if i == j else "0" for j in range(n)) for i in range(n))
    metric.write_text(
        f"[metric]\nname = corpus\ncoordinates = {', '.join(names)}\ncomponents = {diagonal}\n"
    )
    where, size = [], 1
    for name, (start, width, count) in zip(names, axes):
        if count and size * count <= _FUZZ_MAX_POINTS:
            size *= count
            where += ["--range", f"{name}={start}:{start + width}:{count}"]
        else:
            where += ["--pin", f"{name}={start}"]
    report = tmp_path / "report"
    output = ["--output", str(report), "--format", report_format]
    point = ",".join(f"{name}={start}" for name, (start, _, _) in zip(names, axes))
    for path in (system, metric):
        common = ["--system", str(path), "--metric-kind", kind]
        if path == metric and kind != "natural":
            # --metric-kind applies to fundamental equations only
            assert run(["eval", *common, "--point", point]) == 2
            continue
        for quantity in analysis.QUANTITIES:
            yield run(["scan", *common, *where, "--quantity", quantity, *output]), report
        yield run(["eval", *common, "--point", point, *output]), report


# the numbers a flag can be given: finite, +-inf, nan, +-1e308 and subnormals
_flag_number = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324, 2.2e-308]),
).map(repr)
_RN = ["--system", "reissner_nordstrom"]
# each number flag of the grammar, {0}-{7} the drawn numbers and {n} a count
_FLAG_RUNS = [
    ["scan", *_RN, "--range", "S={0}:{1}:{n}", "--pin", "Q={2}", "--quantity", "detg"],
    ["scan", "--system", "vdw_closed", "--range", "S={0}:{1}:{n},V={2}:{3}:{n}"],
    ["scan", *_RN, "--range", "S=1:6:{n}", "--pin", "Q={0}", "--fit-center", "S={1},Q={2}",
     "--fit-direction", "S={3},Q={4}"],
    ["scan", *_RN, "--range", "S=1:6:{n}", "--pin", "Q=1", "--fit-center", "S=3.2,Q=1",
     "--fit-direction", "S={0}", "--fit-offsets={1}:{m}:{2}"],
    ["eval", *_RN, "--point", "S={0},Q={1}"],
    ["check", "euler", *_RN, "--trials", "3", "--box", "S={0}:{1},Q={2}:{3}"],
    ["check", "euler", *_RN, "--trials", "3", "--box", "S=1:{0},Q={1}:2", "--tol={2}"],
]


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    argv=st.sampled_from(_FLAG_RUNS),
    numbers=st.lists(_flag_number, min_size=7, max_size=7),
    count=st.integers(min_value=1, max_value=4),
    report_format=st.sampled_from(["json", "csv"]),
)
@example(argv=_FLAG_RUNS[0], numbers=["1.0", "inf", "1.0"] + ["1.0"] * 4, count=1, report_format="json")
def test_flag_grammar_fuzz(tmp_path, capsys, argv, numbers, count, report_format):
    # any number a flag accepts ends in a documented exit code, never a
    # traceback, and a report row never has a coordinate that is not finite
    report = tmp_path / f"report.{report_format}"
    report.unlink(missing_ok=True)
    argv = [arg.format(*numbers, n=count, m=count + 3) for arg in argv]
    try:
        code = run([*argv, "--format", report_format, "--output", str(report)])
    except SystemExit as exc:  # argparse rejects the command line itself
        code = exc.code
    out = capsys.readouterr().out
    if argv[0] == "check":
        # 1 is a check that fails against a tolerance it could pass, and only that
        assert code in (0, 1, 2, 3) and (code == 1) == ("FAIL" in out), (argv, code, out)
    else:
        assert code in (0, 2, 3), (argv, code)
    if code in (0, 1):
        for coords in _report_coordinates(report, report_format, argv[0]):
            assert all(map(math.isfinite, coords)), (argv, coords)


def _report_coordinates(report, report_format, command):
    """The coordinates of every row and singular point of a scan or eval report."""
    if command == "check":
        return []
    if report_format == "csv":
        header, *rows = [line.split(",") for line in report.read_text().splitlines()]
        n = sum(1 for name in header if name in ("S", "Q", "V"))
        return [[float(x) for x in row[:n]] for row in rows]
    data = json.loads(report.read_text())
    if command == "eval":
        return [list(data["values"]["point"].values())]
    # an axis's stop is a coordinate only where it has more than one point
    grid = [
        [ax["pin"]] if "pin" in ax else [ax["start"], ax["stop"]][: min(ax["count"], 2)]
        for ax in data["grid"].values()
    ]
    roots = [list(point["coords"].values()) for point in data["singular_points"]]
    return [[float(x) for x in axis] for axis in grid] + roots


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _assert_no_nan_reported_ok(report, report_format):
    # a NaN is written as nan in CSV and as null in JSON
    text = report.read_text()
    if report_format == "csv":
        for row in text.splitlines()[1:]:
            fields = row.split(",")
            assert fields[-1] != "ok" or "nan" not in fields, row
        return
    data = json.loads(text)
    if data["command"] == "eval":
        assert None not in _leaves(data["values"]), data["values"]
        return
    for row, status in zip(data["values"]["rows"], data["values"]["status"]):
        assert status != "ok" or None not in row, row


@pytest.mark.parametrize("source", ["S*exp(1000)", "10^400 + S"])
def test_overflowing_constant_gives_inf(tmp_path, capsys, source):
    system = tmp_path / "big.ini"
    system.write_text(f"[system]\nname = big\nvariables = S, V\npotential = {source}\n")
    at = ["--system", str(system), "--point", "S=1,V=2"]
    assert run(["eval", *at, "--quantity", "potential"]) == 0
    assert "potential = inf" in capsys.readouterr().out
    # inf times a zero derivative is NaN: the point fails in the intensives or the metric
    assert run(["eval", *at, "--quantity", "all"]) == 2
    assert "not a number" in capsys.readouterr().err
    report = tmp_path / "scan.json"
    code = run(
        ["scan", "--system", str(system), "--range", "S=0.5:2:4", "--pin", "V=1",
         "--quantity", "potential", "--output", str(report)]
    )
    assert code == 0
    rows = json.loads(report.read_text())["values"]["rows"]
    assert [row[0] for row in rows] == ["inf"] * 4


@pytest.mark.parametrize("source", ["S*exp(1000)", "10^400 + S"])
def test_overflow_prints_no_numpy_warning(tmp_path, source):
    # non-finite results are reported through statuses and exit codes
    system = tmp_path / "big.ini"
    system.write_text(f"[system]\nname = big\nvariables = S, V\npotential = {source}\n")
    common = ["--system", str(system), "--quantity", "potential"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["eval", *common, "--point", "S=1,V=2"]) == 0
        assert run(["scan", *common, "--range", "S=0.5:2:4", "--pin", "V=1"]) == 0


def test_non_finite_metric_is_degenerate(tmp_path, capsys):
    # at S = 0.5, Phi * Hess Phi of exp(1000*S) overflows to inf next to a zero
    # row, so the degeneracy threshold is inf * 0 = NaN; from S = 1.25 on, Phi
    # itself is inf and its jet holds inf * 0 = NaN
    system = tmp_path / "steep.ini"
    system.write_text("[system]\nname = steep\nvariables = S, V\npotential = exp(1000*S)\n")
    report = tmp_path / "scan.json"
    code = run(
        ["scan", "--system", str(system), "--range", "S=0.5:2:3", "--pin", "V=1",
         "--quantity", "curvature", "--output", str(report)]
    )
    assert code == 0
    status = json.loads(report.read_text())["values"]["status"]
    assert status == ["degenerate", "domain-error", "domain-error"]
    assert run(["eval", "--system", str(system), "--point", "S=0.5,V=1"]) == 3
    assert "degenerate" in capsys.readouterr().err


def test_nan_determinant_is_domain_error(tmp_path):
    # at S = 0.5 the entries are finite and det g overflows to -inf, a value;
    # from S = 1.25 on exp(1000*S) is inf and det g is inf - inf, not a number
    metric = tmp_path / "steep.ini"
    metric.write_text(
        "[metric]\nname = steep\ncoordinates = S, V\n"
        "components = exp(1000*S), exp(1000*S); exp(1000*S), 1\n"
    )
    report = tmp_path / "scan.json"
    code = run(
        ["scan", "--system", str(metric), "--range", "S=0.5:2:3", "--pin", "V=1",
         "--quantity", "detg", "--output", str(report)]
    )
    assert code == 0
    values = json.loads(report.read_text())["values"]
    assert values["status"] == ["ok", "domain-error", "domain-error"]
    assert [row[-1] for row in values["rows"]] == ["-inf", None, None]


def test_eval_nan_determinant_is_domain_error(tmp_path, capsys):
    # eval agrees with the detg scan above: at S = 1.25 det g is inf - inf
    metric = tmp_path / "steep.ini"
    metric.write_text(
        "[metric]\nname = steep\ncoordinates = S, V\n"
        "components = exp(1000*S), exp(1000*S); exp(1000*S), 1\n"
    )
    for quantity in ("detg", "metric"):
        at = ["--system", str(metric), "--point", "S=1.25,V=1", "--quantity", quantity]
        assert run(["eval", *at]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "det g of steep is not a number at point (1.25, 1.0)" in captured.err
    assert run(["eval", "--system", str(metric), "--point", "S=0.5,V=1", "--quantity", "detg"]) == 0
    assert "det_g = -inf" in capsys.readouterr().out


def test_degenerate_message_names_infinite_entry(tmp_path, capsys):
    # at S = 0.5 g = [[inf, 0], [0, 0]]: no threshold can be compared with |det g|
    system = tmp_path / "steep.ini"
    system.write_text("[system]\nname = steep\nvariables = S, V\npotential = exp(1000*S)\n")
    assert run(["eval", "--system", str(system), "--point", "S=0.5,V=1"]) == 3
    err = capsys.readouterr().err
    assert "metric degenerate at (0.5, 1.0): g has an infinite entry" in err
    assert "nan" not in err
    # exp(1000*S) overflows on purpose
    with pytest.raises(DegenerateMetricError) as raised, np.errstate(over="ignore", invalid="ignore"):
        geometry.scalar_curvature(geometry.HessianMetricField(fundeq.load_system_file(system)), (0.5, 1.0))
    assert raised.value.det == 0.0 and math.isnan(raised.value.threshold)
