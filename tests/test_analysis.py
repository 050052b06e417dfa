import math

import numpy as np
import pytest

from gtdkit import analysis, fundeq, jets
from gtdkit.analysis import (
    Axis,
    GridSpec,
    fit_divergence_exponent,
    fit_power_law,
    find_singular_locus,
    geometric_offsets,
    grid_scan,
    rn_critical_points,
)
from gtdkit.fundeq import builtin, potential_value
from gtdkit.geometry import HessianMetricField, MetricKind, closed_form_metric, scalar_curvature

PI = math.pi


def rn_field():
    return HessianMetricField(builtin("reissner_nordstrom"))


# -- grids -----------------------------------------------------------------------


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis(1.0, 0.5, 10)
    with pytest.raises(ValueError):
        Axis(0.0, 1.0, 0)


def test_grid_requires_all_coordinates():
    f = rn_field()
    with pytest.raises(ValueError, match="missing"):
        GridSpec.build(f.coordinates, {"S": Axis(1, 2, 5)})


def test_grid_cap():
    grid = GridSpec.build(("x", "y"), {"x": Axis(0, 1, 2000), "y": Axis(0, 1, 2000)})
    with pytest.raises(ValueError, match="cap"):
        grid.points()


def test_single_point_grid():
    f = rn_field()
    grid = GridSpec.build(f.coordinates, {"S": Axis(2.0, 2.0, 1), "Q": 1.0})
    report = grid_scan(f, grid, "detg")
    assert report.values.shape == (1, 1)
    assert report.status == [analysis.STATUS_OK]


def test_one_point_axis_is_its_start_whatever_its_stop():
    # linspace computes start + 0 * (stop - start), NaN for these stops
    for stop in (math.inf, math.nan, -1e308):
        assert Axis(1e308, stop, 1).values().tolist() == [1e308]


def test_grid_points_row_major():
    grid = GridSpec.build(("x", "y"), {"x": Axis(0, 1, 2), "y": Axis(0, 1, 3)})
    pts = grid.points()
    assert pts.shape == (6, 2)
    assert np.array_equal(pts[:3, 0], [0, 0, 0])  # first coordinate slowest
    assert np.array_equal(pts[:3, 1], [0, 0.5, 1])


# -- scanning --------------------------------------------------------------------


def test_scan_ideal_gas_flat():
    f = HessianMetricField(builtin("ideal_gas"))
    grid = GridSpec.build(f.coordinates, {"S": Axis(0.1, 2, 8), "V": Axis(0.5, 3, 8)})
    report = grid_scan(f, grid, "curvature")
    assert all(s == analysis.STATUS_OK for s in report.status)
    assert np.max(np.abs(report.values)) <= 1e-8


def test_scan_marks_degenerate_and_domain():
    f = rn_field()
    # S range crosses both S <= 0 (domain) and S = pi (degenerate)
    grid = GridSpec.build(f.coordinates, {"S": Axis(-1.0, 8.0, 19), "Q": 1.0})
    report = grid_scan(f, grid, "curvature")
    assert analysis.STATUS_DOMAIN_ERROR in report.status
    ok = [s == analysis.STATUS_OK for s in report.status]
    assert np.all(np.isfinite(report.values[ok]))
    assert np.all(np.isnan(report.values[[not o for o in ok]]))


def test_scan_detg_brackets_extremal():
    f = rn_field()
    grid = GridSpec.build(f.coordinates, {"S": Axis(0.5, 10.0, 100), "Q": 1.0})
    report = grid_scan(f, grid, "detg")
    dets = report.values[:, 0]
    assert np.nanmin(dets) < 0 < np.nanmax(dets)


def test_scan_intensive_columns():
    f = HessianMetricField(builtin("vdw"))
    grid = GridSpec.build(f.coordinates, {"S": Axis(0.5, 1.0, 3), "V": 1.0})
    report = grid_scan(f, grid, "intensive")
    assert report.columns == ("I_S", "I_V")
    assert report.values.shape == (3, 2)


def test_scan_potential_requires_system():
    f = closed_form_metric("rn_closed")
    grid = GridSpec.build(f.coordinates, {"S": Axis(1, 2, 3), "Q": 1.0})
    with pytest.raises(ValueError, match="fundamental-equation"):
        grid_scan(f, grid, "potential")


def test_scan_deterministic_across_chunk_sizes(monkeypatch):
    f = rn_field()
    # S <= 0 is outside the domain and S = pi Q^2 is degenerate
    grid = GridSpec.build(f.coordinates, {"S": Axis(-1.0, 10.0, 60), "Q": Axis(0.5, 1.5, 3)})
    budgets = (1, 1000, analysis.CHUNK_BYTES)
    for quantity in analysis.QUANTITIES:
        reports, rows = [], []
        for budget in budgets:
            monkeypatch.setattr(analysis, "CHUNK_BYTES", budget)
            rows.append(analysis._batch_rows(f, quantity))
            reports.append(grid_scan(f, grid, quantity))
        # one point a batch, then several points a batch that still split the grid
        assert rows[0] == 1 < rows[1] < grid.size
        first = reports[0]
        assert analysis.STATUS_DOMAIN_ERROR in first.status
        for other in reports[1:]:
            assert other.status == first.status
            assert np.array_equal(other.values, first.values, equal_nan=True)
            if first.det_g is not None:
                assert np.array_equal(other.det_g, first.det_g, equal_nan=True)
    loci = []
    for budget in budgets:
        monkeypatch.setattr(analysis, "CHUNK_BYTES", budget)
        loci.append(find_singular_locus(f, grid))
    assert loci[0]
    assert loci[0] == loci[1] == loci[2]


@pytest.mark.parametrize("source", ["reissner_nordstrom", "rn_closed"])
def test_benchmark_grid_is_bit_identical_in_any_batch_size(monkeypatch, source):
    # the 1,500-point RN grid, with its roots, in one batch, then batches of 1 and of 7 points
    if source == "rn_closed":
        f, quantities = closed_form_metric(source), ("detg", "curvature")
    else:
        f, quantities = rn_field(), analysis.QUANTITIES
    grid = GridSpec.build(f.coordinates, {"S": Axis(0.5, 10.0, 100), "Q": Axis(0.2, 1.6, 15)})
    runs = []
    for rows in (grid.size, 1, 7):
        monkeypatch.setattr(analysis, "_batch_rows", lambda f, quantity: rows)
        scans = [grid_scan(f, grid, quantity) for quantity in quantities]
        runs.append((scans, find_singular_locus(f, grid)))
    (scans, locus), others = runs[0], runs[1:]
    assert len(locus) > 80
    for other_scans, other_locus in others:
        assert other_locus == locus
        for scan, other in zip(scans, other_scans):
            assert other.status == scan.status
            assert np.array_equal(other.values, scan.values, equal_nan=True)
            if scan.det_g is not None:
                assert np.array_equal(other.det_g, scan.det_g, equal_nan=True)


def test_batch_rows_keep_the_widest_array_under_the_bound():
    # the widest per-point array: the jet product's gather (84 pairs for KN at
    # order 3, 15 for RN at order 2) or a direct field's (ncoef, n, n) stack
    kn = HessianMetricField(builtin("kerr_newman"))
    assert analysis._batch_rows(kn, "curvature") == analysis.CHUNK_BYTES // (8 * 84) == 146
    assert analysis._batch_rows(rn_field(), "detg") == analysis.CHUNK_BYTES // (8 * 15)
    vdw = closed_form_metric("vdw_closed")
    assert analysis._batch_rows(vdw, "curvature") == analysis.CHUNK_BYTES // (8 * 6 * 2 * 2)
    assert analysis._batch_rows(vdw, "detg") == analysis.CHUNK_BYTES // (8 * 2 * 2)


@pytest.mark.parametrize("source", ["reissner_nordstrom", "rn_closed"])
def test_each_quantity_evaluates_at_the_order_its_batches_are_sized_for(monkeypatch, source):
    # `_batch_rows` sizes the batches of a quantity by its `_JET_ORDERS` entry:
    # a quantity evaluated at another order gets batches sized for another gather
    direct = source == "rn_closed"
    f = closed_form_metric(source) if direct else rn_field()
    orders = []
    evaluate_exprs = fundeq.evaluate_exprs

    def recording(tape, parameters, point, order, *rest):
        orders.append(order)
        return evaluate_exprs(tape, parameters, point, order, *rest)

    def recorded(quantity):
        found = set(orders)
        orders.clear()
        return found == {analysis._JET_ORDERS[quantity][direct]}

    monkeypatch.setattr(fundeq, "evaluate_exprs", recording)
    # det g changes sign at S = pi Q^2, which lines of both axes cross
    grid = GridSpec.build(f.coordinates, {"S": Axis(1.0, 10.0, 12), "Q": Axis(0.8, 1.2, 3)})
    for quantity in ("curvature", "detg") if direct else analysis.QUANTITIES:
        grid_scan(f, grid, quantity)
        assert recorded(quantity)
    # the root refinement and the root classifier both evaluate det g
    assert find_singular_locus(f, grid)
    assert recorded("detg")
    fit_divergence_exponent(f, (PI, 1.0), (1.0, 0.0), geometric_offsets(0.2, 6))
    assert recorded("curvature")


def test_scan_accepts_spec_quantity_aliases():
    f = rn_field()
    grid = GridSpec.build(f.coordinates, {"S": Axis(1.0, 2.0, 3), "Q": 1.0})
    assert grid_scan(f, grid, "det_g").columns == ("det_g",)
    assert grid_scan(f, grid, "scalar_curvature").columns == ("R",)


# -- singular loci -----------------------------------------------------------------


def test_rn_root_at_extremal_entropy():
    f = rn_field()
    grid = GridSpec.build(f.coordinates, {"S": Axis(0.5, 10.0, 200), "Q": 1.0})
    roots = find_singular_locus(f, grid)
    assert len(roots) == 1
    assert roots[0].coords["S"] == pytest.approx(PI, abs=1e-9)
    assert roots[0].category == "hessian-zero"


def _count_determinants(monkeypatch) -> list[int]:
    calls = [0]
    inner = analysis.geometry.metric_determinant

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(analysis.geometry, "metric_determinant", counted)
    return calls


def test_rn_locus_refines_in_few_determinant_batches(monkeypatch):
    # the benchmark's RN grid: 92 brackets, refined together, then one residual batch
    f = rn_field()
    grid = GridSpec.build(f.coordinates, {"S": Axis(0.5, 10.0, 100), "Q": Axis(0.2, 1.6, 15)})
    det_g = grid_scan(f, grid, "detg").det_g
    calls = _count_determinants(monkeypatch)
    roots = find_singular_locus(f, grid, det_g=det_g)
    assert calls[0] <= 16
    assert len(roots) > 80
    for root in roots:
        s, q = root.coords["S"], root.coords["Q"]
        assert root.category == "hessian-zero"
        assert s == pytest.approx(PI * q * q, rel=1e-11)


def test_every_stage_evaluates_at_most_chunk_rows_points(monkeypatch):
    # 202 roots: the scan, each refinement step, the residuals and the
    # classification of the roots all evaluate the potential in batches
    f = rn_field()
    grid = GridSpec.build(f.coordinates, {"S": Axis(0.5, 10.0, 40), "Q": Axis(0.2, 1.6, 200)})
    sizes, evaluate = [], fundeq.evaluate

    def recording_evaluate(spec, point, order=jets.DEFAULT_ORDER):
        sizes.append(len(np.atleast_2d(point)))
        return evaluate(spec, point, order)

    monkeypatch.setattr(fundeq, "evaluate", recording_evaluate)
    roots = find_singular_locus(f, grid, det_g=grid_scan(f, grid, "detg").det_g)
    assert len(roots) == 202
    rows = analysis._batch_rows(f, "detg")
    assert rows == 819
    # the scan's 8,000 points go in ceil(8000 / 819) = 10 batches of one size
    assert sizes[:10] == [800] * 10 and max(sizes) <= rows
    for root in roots:
        s, q = root.coords["S"], root.coords["Q"]
        assert root.category == "hessian-zero"
        assert s == pytest.approx(PI * q * q, rel=1e-11)


def test_ruppeiner_pole_refinement_within_worst_case(monkeypatch):
    # det g = det Hess / T^n changes sign through the T = 0 pole at S = pi Q^2
    f = HessianMetricField(builtin("reissner_nordstrom"), MetricKind.RUPPEINER)
    axis = Axis(0.5, 10.0, 50)
    grid = GridSpec.build(f.coordinates, {"S": axis, "Q": 1.0})
    det_g = grid_scan(f, grid, "detg").det_g
    calls = _count_determinants(monkeypatch)
    (point,) = find_singular_locus(f, grid, det_g=det_g)
    values = axis.values()
    hi = values[np.searchsorted(values, PI)]
    tol = analysis.ROOT_TOL_FACTOR * hi
    steps = calls[0] - 1  # one batch per step, then the residual
    assert steps <= math.ceil(math.log2((values[1] - values[0]) / tol)) + analysis.ITP_N0
    assert point.category == "pole"
    assert point.coords["S"] == pytest.approx(PI, abs=1e-9)


_HARD_CROSSINGS = {
    "cubic": lambda x, c: (x - c) ** 3,
    "pole": lambda x, c: 1.0 / (c - x),
    "jump": lambda x, c: np.where(x < c, -1.0, 2.0),
    "eleventh_power": lambda x, c: x**11 - c**11,
}


@pytest.mark.parametrize("name", sorted(_HARD_CROSSINGS))
def test_refinement_worst_case_and_batch_independence(monkeypatch, name):
    # bracket k lies on coordinate 0 and carries its index k in coordinate 1
    g = _HARD_CROSSINGS[name]
    rng = np.random.default_rng(3)
    lo = rng.uniform(-5.0, 5.0, 40) * 10.0 ** rng.uniform(-3.0, 3.0, 40)
    hi = lo + 10.0 ** rng.uniform(-6.0, 1.0, 40) * np.maximum(1.0, np.abs(lo))
    c = lo + rng.uniform(0.01, 0.99, 40) * (hi - lo)
    steps = np.zeros(40, dtype=int)

    def determinants(f, points):
        k = points[:, 1].astype(int)
        np.add.at(steps, k, 1)
        return g(points[:, 0], c[k])

    monkeypatch.setattr(analysis, "_determinants", determinants)
    base = np.stack([lo, np.arange(40.0)], axis=1)
    axis = np.zeros(40, dtype=int)
    roots, kept = analysis._refine_roots(None, base, axis, lo, hi, g(lo, c), g(hi, c))
    tol = analysis.ROOT_TOL_FACTOR * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    assert kept.all()
    assert np.all(np.abs(roots - c) <= tol)
    assert np.all(steps <= np.ceil(np.log2((hi - lo) / tol)) + analysis.ITP_N0)
    for k in range(0, 40, 7):
        one = slice(k, k + 1)
        alone, _ = analysis._refine_roots(
            None, base[one], axis[one], lo[one], hi[one], g(lo[one], c[one]), g(hi[one], c[one])
        )
        assert alone[0] == roots[k]


def test_refinement_drops_brackets_that_leave_the_domain(monkeypatch):
    # brackets 3, 10, 17, ... get NaN at their second trial point: they come back
    # not kept, and every root, dropped or kept, is its lone refinement's, bit for bit
    g = _HARD_CROSSINGS["cubic"]
    rng = np.random.default_rng(5)
    lo = rng.uniform(-5.0, 5.0, 40)
    hi = lo + rng.uniform(0.01, 2.0, 40)
    c = lo + rng.uniform(0.01, 0.99, 40) * (hi - lo)
    dropped = np.arange(40) % 7 == 3
    steps = np.zeros(40, dtype=int)

    def determinants(f, points):
        k = points[:, 1].astype(int)
        np.add.at(steps, k, 1)
        return np.where(dropped[k] & (steps[k] == 2), np.nan, g(points[:, 0], c[k]))

    monkeypatch.setattr(analysis, "_determinants", determinants)
    base = np.stack([lo, np.arange(40.0)], axis=1)
    axis = np.zeros(40, dtype=int)
    roots, kept = analysis._refine_roots(None, base, axis, lo, hi, g(lo, c), g(hi, c))
    assert np.array_equal(kept, ~dropped)
    assert np.all(steps[dropped] == 2) and np.all(steps[~dropped] > 2)
    assert np.all((lo < roots) & (roots < hi))
    for k in range(40):
        steps[:] = 0
        one = slice(k, k + 1)
        alone, kept_alone = analysis._refine_roots(
            None, base[one], axis[one], lo[one], hi[one], g(lo[one], c[one]), g(hi[one], c[one])
        )
        assert alone[0] == roots[k] and kept_alone[0] == kept[k]


def test_ideal_gas_has_no_roots():
    f = HessianMetricField(builtin("ideal_gas"))
    grid = GridSpec.build(f.coordinates, {"S": Axis(0.1, 2, 30), "V": Axis(0.5, 3, 30)})
    assert find_singular_locus(f, grid) == []


def test_vdw_roots_satisfy_stability_condition():
    from gtdkit.fundeq import stability_residual_vdw

    spec = builtin("vdw", a=1.0, b=0.1)
    f = HessianMetricField(spec)
    grid = GridSpec.build(f.coordinates, {"S": 0.9, "V": Axis(0.3, 3.0, 80)})
    roots = find_singular_locus(f, grid)
    assert roots, "expected spinodal crossings on this line"
    for root in roots:
        point = (root.coords["S"], root.coords["V"])
        assert abs(stability_residual_vdw(spec, point)) <= 1e-6
        assert root.category == "hessian-zero"


def _vdw_potential_zero(spec):
    # on the S = 0 line the vdW potential itself crosses zero near V ~ 0.9
    lo, hi = 0.5, 1.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if potential_value(spec, (0.0, mid)) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_classify_potential_zero():
    spec = builtin("vdw", a=1.0, b=0.1)
    f = HessianMetricField(spec)
    v_zero = _vdw_potential_zero(spec)
    assert analysis._residuals(f, np.array([0.0, v_zero])[None])[1][0] == "potential-zero"


@pytest.mark.parametrize("kind", [MetricKind.WEINHOLD, MetricKind.RUPPEINER])
def test_classify_other_kinds_have_no_potential_factor(kind):
    # det g = Phi^n det Hess holds for the natural kind only
    spec = builtin("vdw", a=1.0, b=0.1)
    f = HessianMetricField(spec, kind)
    v_zero = _vdw_potential_zero(spec)
    assert analysis._residuals(f, np.array([0.0, v_zero])[None])[1][0] == "hessian-zero"


# -- exponent fitting ------------------------------------------------------------------


@pytest.mark.parametrize("power,expected", [(-1.0, 1.0), (-2.0, 2.0), (-3.0, 3.0)])
def test_fit_recovers_known_power_laws(power, expected):
    fit = fit_power_law(
        lambda p: p[0] ** power, center=(0.0,), direction=(1.0,), offsets=geometric_offsets(0.1, 10)
    )
    assert fit.diverges
    assert fit.exponent == pytest.approx(expected, abs=0.01)


def test_fit_rejects_flat_field():
    f = HessianMetricField(builtin("ideal_gas"))
    fit = fit_divergence_exponent(f, (1.0, 2.0), (1.0, 0.0), geometric_offsets(0.1, 8))
    assert not fit.diverges


def test_fit_of_equal_samples_does_not_diverge():
    # one value at every offset has no slope and no correlation to report
    fit = fit_power_law(lambda p: 5.0, center=(0.0,), direction=(1.0,), offsets=geometric_offsets(0.1, 8))
    assert fit == analysis.DivergenceFit(
        exponent=0.0, intercept=0.0, correlation=0.0, samples=8, diverges=False
    )


def test_fit_samples_must_be_distinct_points():
    # 1e-300 * 0.5^m is lost against S = pi: every sample is the center
    offsets = geometric_offsets(1e-300, 12)
    with pytest.raises(ValueError, match="fit samples are not distinct"):
        fit_divergence_exponent(rn_field(), (PI, 1.0), (-1.0, 0.0), offsets)


def test_fit_needs_four_samples():
    with pytest.raises(ValueError, match="at least 4"):
        fit_power_law(lambda p: 1.0 / p[0], (0.0,), (1.0,), [0.1, 0.2])


def test_rn_divergence_exponent():
    f = rn_field()
    offsets = geometric_offsets(PI * 2.0**-4, 13)
    fit = fit_divergence_exponent(f, (PI, 1.0), (-1.0, 0.0), offsets)
    assert fit.diverges
    assert fit.exponent == pytest.approx(2.0, abs=0.05)


# -- RN critical points -------------------------------------------------------------------


def test_rn_critical_points_unit_charge():
    crit = rn_critical_points(1.0)
    assert crit.s_extremal == pytest.approx(PI, rel=1e-15)
    assert crit.s_curvature_zero == pytest.approx(PI / 3, rel=1e-15)
    assert crit.mass_extremal == pytest.approx(1.0, rel=1e-13)
    assert crit.mass_curvature_zero == pytest.approx(2 / math.sqrt(3), rel=1e-13)


def test_rn_critical_points_scale_with_charge():
    crit = rn_critical_points(2.0)
    assert crit.s_extremal == pytest.approx(4 * PI, rel=1e-15)
    assert crit.s_curvature_zero == pytest.approx(4 * PI / 3, rel=1e-15)
    assert crit.mass_extremal == pytest.approx(2.0, rel=1e-13)
    assert crit.mass_curvature_zero == pytest.approx(4 / math.sqrt(3), rel=1e-13)


def test_rn_curvature_changes_sign_at_davies_point():
    f = rn_field()
    s0 = PI / 3
    below = scalar_curvature(f, (s0 - 0.05, 1.0)).scalar
    above = scalar_curvature(f, (s0 + 0.05, 1.0)).scalar
    assert below < 0 < above


def test_rn_critical_points_require_positive_charge():
    with pytest.raises(ValueError):
        rn_critical_points(0.0)
