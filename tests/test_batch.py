"""A batch of points gives each point exactly what its single-point call gives.

Batched `fundeq.evaluate`, `component_jets`, `metric_determinant`,
`christoffel` and `scalar_curvature` must match the single-point calls bit
for bit, and a point's status in the batch must match the exception its
single-point call raises (DomainError -> domain-error,
DegenerateMetricError -> degenerate).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expr_corpus import CORPUS
from gtdkit import fundeq, geometry, jets
from gtdkit.errors import DegenerateMetricError, DomainError
from gtdkit.geometry import HessianMetricField, MetricKind


def _same(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _single(call):
    """('ok', result), ('domain-error', None) or ('degenerate', None)."""
    try:
        return geometry.STATUS_OK, call()
    except DomainError:
        return geometry.STATUS_DOMAIN_ERROR, None
    except DegenerateMetricError:
        return geometry.STATUS_DEGENERATE, None


def _system(source: str) -> fundeq.SystemSpec:
    tree = fundeq.parse(source)
    names = fundeq.compile_exprs([tree], ()).names or ("x",)
    first = names[0]
    return fundeq.SystemSpec(
        name="corpus",
        variables=names,
        potential=tree,
        domain=lambda env: env[first] > -2.5,
    )


coordinate = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(lambda v: round(v, 3))


@st.composite
def systems_and_points(draw, max_dim=3):
    source = draw(st.sampled_from([s for s in CORPUS if len(_system(s).variables) <= max_dim]))
    spec = _system(source)
    count = draw(st.integers(min_value=1, max_value=6))
    point = st.lists(coordinate, min_size=spec.dim, max_size=spec.dim)
    rows = draw(st.lists(point, min_size=count, max_size=count))
    return spec, np.array(rows, dtype=float)


@settings(max_examples=60, deadline=None)
@given(systems_and_points(max_dim=6), st.integers(min_value=0, max_value=4))
@example((_system("ln(S)^0"), np.array([[-1.0], [2.0]])), 2)
def test_evaluate_batch_matches_points(case, order):
    spec, points = case
    with np.errstate(all="ignore"):
        batch = fundeq.evaluate(spec, points, order=order)
        for i, p in enumerate(points):
            status, jet = _single(lambda: fundeq.evaluate(spec, p, order=order))
            failed = batch.failed is not None and batch.failed[i]
            assert failed == (status != geometry.STATUS_OK)
            if jet is None:
                assert np.all(np.isnan(batch.coeffs[:, i]))
            else:
                assert _same(batch.coeffs[:, i], jet.coeffs)


@settings(max_examples=60, deadline=None)
@given(systems_and_points(max_dim=6), st.integers(min_value=1, max_value=4))
@example((_system("S^V"), np.array([[2.0, 0.5]])), 1)
def test_value_does_not_depend_on_order(case, order):
    # wherever an order-k evaluation succeeds, its value is the order-0 value
    spec, points = case
    with np.errstate(all="ignore"):
        for p in points:
            _, jet = _single(lambda: fundeq.evaluate(spec, p, order=order))
            if jet is not None:
                assert _same(jet.value, fundeq.evaluate(spec, p, order=0).value)


@settings(max_examples=40, deadline=None)
@given(systems_and_points(), st.sampled_from([MetricKind.NATURAL, MetricKind.RUPPEINER]))
# each point fails, alone and in the batch: S*exp(1000) at S = 0 is 0 * inf,
# and the natural metric of 10^400 + S is Phi * Hess Phi = inf * 0
@example((_system("S*exp(1000)"), np.zeros((3, 1))), MetricKind.NATURAL)
@example((_system("10^400 + S"), np.ones((2, 1))), MetricKind.NATURAL)
# Phi Hess Phi overflows to inf in every entry, so det g is NaN at both points
@example((_system("exp(200*S+200*V)"), np.array([[1.2, 1.0], [1.25, 1.0]])), MetricKind.NATURAL)
def test_hessian_field_batch_matches_points(case, kind):
    spec, points = case
    f = HessianMetricField(spec, kind)
    _check_field(f, points)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.5, max_value=1.5).map(lambda v: round(v, 3)),
            st.floats(min_value=-0.5, max_value=3.0).map(lambda v: round(v, 3)),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_direct_field_batch_matches_points(rows):
    # vdw_closed: V <= b = 0.1 is outside the domain
    _check_field(geometry.closed_form_metric("vdw_closed"), np.array(rows, dtype=float))


def test_direct_field_batch_marks_covolume():
    f = geometry.closed_form_metric("vdw_closed")
    points = np.array([[0.9, 0.05], [0.9, 0.1], [0.9, 1.0]])
    _check_field(f, points)
    _, status = geometry.metric_determinant(f, points)
    assert status == ["domain-error", "domain-error", "ok"]


def test_batch_marks_degenerate_points():
    f = HessianMetricField(fundeq.builtin("reissner_nordstrom"))
    points = np.array([[np.pi, 1.0], [2.0, 1.0], [-1.0, 1.0]])
    report = geometry.scalar_curvature(f, points)
    assert report.status == ["degenerate", "ok", "domain-error"]
    assert np.isfinite(report.det_g[0]) and np.isnan(report.det_g[2])
    _check_field(f, points)


def test_batch_degeneracy_threshold_is_per_point():
    # |det g| = x against 1e-12 times the product of the row norms, judged per point
    f = geometry.DirectMetricField(("x", "y"), [[1, 1], [1, "1 + x"]])
    points = np.array([[1e-13, 0.0], [1e-5, 0.0], [1e3, 0.0]])
    assert geometry.scalar_curvature(f, points).status == ["degenerate", "ok", "ok"]
    _check_field(f, points)


# wide enough that every product of the batch takes the layered kernel
_WIDE = 2 * jets.LAYERED_MIN_BATCH + 1


@settings(max_examples=25, deadline=None)
@given(
    systems_and_points(),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([MetricKind.NATURAL, MetricKind.RUPPEINER]),
)
# products of signed zeros, whose -0.0 pairs a rest started at +0.0 would turn to +0.0
@example((_system("S*V*k"), np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 1.0]])), 3, MetricKind.NATURAL)
@example((_system("ln(S)^0"), np.array([[-1.0], [2.0]])), 2, MetricKind.NATURAL)
# 0 * inf at S = 0, inf * 0 in the natural metric, and Phi Hess Phi overflowing
@example((_system("S*exp(1000)"), np.zeros((3, 1))), 3, MetricKind.NATURAL)
@example((_system("10^400 + S"), np.ones((2, 1))), 3, MetricKind.NATURAL)
@example((_system("exp(200*S+200*V)"), np.array([[1.2, 1.0], [1.25, 1.0]])), 3, MetricKind.NATURAL)
# Phi = inf times h_SS = 0 at V = 0 fails g_SS alone: the point fails in every entry
@example((_system("10^400 + exp(S+V) - exp(S)"), np.array([[1.0, 0.0], [1.0, 0.5]])), 2, MetricKind.NATURAL)
def test_wide_batch_matches_points(case, order, kind):
    # the points repeated to a batch above the layered-product threshold: every
    # column and status is its point's single-point call
    spec, points = case
    wide = np.resize(points, (_WIDE, points.shape[1]))
    f = HessianMetricField(spec, kind)
    with np.errstate(all="ignore"):
        batch = fundeq.evaluate(spec, wide, order=order)
        gjets = f.component_jets(wide, gorder=2)
        det, det_status = geometry.metric_determinant(f, wide)
        report = geometry.scalar_curvature(f, wide)
        for i, p in enumerate(points):
            columns = slice(i, None, len(points))
            status, jet = _single(lambda: fundeq.evaluate(spec, p, order=order))
            failed = batch.failed[columns]
            assert failed.tolist() == [status != geometry.STATUS_OK] * len(failed)
            if jet is not None:
                assert all(_same(column, jet.coeffs) for column in batch.coeffs[:, columns].T)

            status, single = _single(lambda: f.component_jets(p, gorder=2))
            # a failed point is a NaN column in every entry
            for g in (g for row in gjets for g in row):
                failed = g.failed[columns]
                assert failed.tolist() == [status != geometry.STATUS_OK] * len(failed)
            if single is not None:
                for a in range(f.dim):
                    for b in range(f.dim):
                        expected = single[a][b].coeffs
                        assert all(_same(c, expected) for c in gjets[a][b].coeffs[:, columns].T)

            status, single_det = _single(lambda: geometry.metric_determinant(f, p))
            assert set(det_status[columns]) == {status}
            if single_det is not None:
                assert all(_same(value, single_det) for value in det[columns])

            status, single_report = _single(lambda: geometry.scalar_curvature(f, p))
            assert set(report.status[columns]) == {status}
            if single_report is not None:
                assert all(_same(value, single_report.scalar) for value in report.scalar[columns])
                assert all(_same(value, single_report.det_g) for value in report.det_g[columns])


def _frw(power: str = "2") -> geometry.DirectMetricField:
    """The spatially flat Friedmann-Robertson-Walker metric -dt^2 + a(t)^2 (dx^2 + dy^2 + dz^2)
    with a(t)^2 = t^power."""
    scale = f"t^{power}"
    rows = [[-1, 0, 0, 0], [0, scale, 0, 0], [0, 0, scale, 0], [0, 0, 0, scale]]
    return geometry.DirectMetricField(("t", "x", "y", "z"), rows, name="frw")


# direct fields of dimension 1 to 4: each field, the box of its random points, and the
# points given first, which fail or sit where g is degenerate: t^2 ln(t) fails at
# t <= 0 and is 0 at t = 1, vdw_closed fails at V <= b = 0.1, kn_closed at S <= 0,
# and FRW is degenerate at t = 0
_DIRECT = {
    "line": (
        lambda: geometry.DirectMetricField(("t",), [["t^2 * ln(t)"]]),
        [(-1.0, 3.0)],
        [[0.0], [1.0], [-1.0]],
    ),
    "vdw_closed": (
        lambda: geometry.closed_form_metric("vdw_closed"),
        [(0.5, 1.5), (-0.5, 3.0)],
        [[0.9, 0.1], [0.9, 0.05]],
    ),
    "kn_closed": (
        lambda: geometry.closed_form_metric("kn_closed"),
        [(-1.0, 10.0), (0.1, 1.5), (0.3, 1.5)],
        [[0.0, 0.5, 0.8], [-1.0, 0.5, 0.8]],
    ),
    "frw": (_frw, [(-1.0, 3.0)] + [(-2.0, 2.0)] * 3, [[0.0, 1.0, 1.0, 1.0]]),
}


@pytest.mark.parametrize("name", sorted(_DIRECT))
def test_direct_field_wide_batch_matches_points(name):
    # a wide batch of distinct points: every Christoffel, Riemann and R of the
    # batched matrix products is its point's single-point call, bit for bit
    make, box, given = _DIRECT[name]
    f = make()
    rng = np.random.default_rng(5)
    drawn = np.column_stack([rng.uniform(lo, hi, _WIDE - len(given)).round(3) for lo, hi in box])
    points = np.vstack([given, drawn])
    _check_field(f, points)
    report = geometry.scalar_curvature(f, points)
    ok = np.array(report.status) == geometry.STATUS_OK
    assert ok.sum() > _WIDE // 2 and not ok[: len(given)].any()
    if f.dim == 1:
        # a curve has no curvature: R^a_bcd = -R^a_bdc leaves nothing at n = 1
        assert np.all(report.scalar[ok] == 0.0)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_frw_curvature(p):
    # a(t) = t^p: R = 6 (a''/a + (a'/a)^2) = 6 p (2p - 1) / t^2, 0 at p = 1/2
    f = _frw(f"{2 * p:g}")
    t = np.linspace(0.5, 3.0, _WIDE)
    points = np.column_stack([t, np.ones((_WIDE, 3))])
    report = geometry.scalar_curvature(f, points)
    assert report.status == [geometry.STATUS_OK] * _WIDE
    assert np.all(np.abs(report.scalar - 6.0 * p * (2.0 * p - 1.0) / t**2) <= 1e-13 / t**2)
    # at t = 2 every entry of g, its derivatives and Gamma is a small dyadic
    # number, so R is exact: 1.5 at p = 1
    assert geometry.scalar_curvature(f, (2.0, 0.0, 0.0, 0.0)).scalar == 1.5 * p * (2.0 * p - 1.0)


def _check_field(f, points):
    with np.errstate(all="ignore"):
        gjets = f.component_jets(points, gorder=2)
        det, det_status = geometry.metric_determinant(f, points)
        report = geometry.scalar_curvature(f, points)
        tensors = geometry.curvature_tensors(f, points)
        gamma = geometry.christoffel(f, points)
        assert gamma.shape == (len(points),) + (f.dim,) * 3
        n = f.dim
        for i, p in enumerate(points):
            status, single = _single(lambda: f.component_jets(p, gorder=2))
            failed = any(g.failed is not None and g.failed[i] for row in gjets for g in row)
            assert failed == (status != geometry.STATUS_OK)
            if single is not None:
                for a in range(n):
                    for b in range(n):
                        assert _same(gjets[a][b].coeffs[:, i], single[a][b].coeffs)

            status, single_det = _single(lambda: geometry.metric_determinant(f, p))
            assert det_status[i] == status
            if single_det is not None:
                assert _same(det[i], single_det)

            status, single_report = _single(lambda: geometry.scalar_curvature(f, p))
            assert report.status[i] == status
            # det g decides a domain error alone, whichever quantity asks
            if det_status[i] == geometry.STATUS_DOMAIN_ERROR:
                assert status == geometry.STATUS_DOMAIN_ERROR
            if single_report is not None:
                assert _same(report.scalar[i], single_report.scalar)
                assert _same(report.det_g[i], single_report.det_g)
            else:
                assert np.isnan(report.scalar[i])

            status, single_tensors = _single(lambda: geometry.curvature_tensors(f, p))
            assert report.status[i] == status
            if single_tensors is not None:
                assert _same(tensors.riemann[i], single_tensors.riemann)
                assert _same(tensors.christoffel[i], single_tensors.christoffel)
            else:
                assert np.all(np.isnan(tensors.riemann[i]))

            _, single_gamma = _single(lambda: geometry.christoffel(f, p))
            if single_gamma is not None:
                assert _same(gamma[i], single_gamma)
            else:
                assert np.all(np.isnan(gamma[i]))


def test_single_point_types_unchanged():
    spec = fundeq.builtin("kerr_newman")
    f = HessianMetricField(spec)
    point = (5.0, 0.5, 0.8)
    assert isinstance(fundeq.evaluate(spec, point).value, float)
    assert isinstance(geometry.metric_determinant(f, point), float)
    report = geometry.scalar_curvature(f, point)
    assert isinstance(report.scalar, float) and report.status is None
    assert geometry.curvature_tensors(f, point).riemann.shape == (3, 3, 3, 3)
    with pytest.raises(DomainError):
        geometry.scalar_curvature(f, (-1.0, 0.5, 0.8))


def test_batch_with_exponent_constant_at_some_points_only():
    # (V-1)^3 is flat to order 2 at V = 1, yet S^((V-1)^3) is exp((V-1)^3 ln S)
    # at every point and order, so S = -1 fails whatever V and the order are
    potential = fundeq.parse("S^((V-1)^3)")
    spec = fundeq.SystemSpec(name="flat", variables=("S", "V"), potential=potential)
    points = np.array([[-1.0, 1.0], [2.0, 2.0], [-1.0, 2.0], [3.0, 1.0]])
    for order in range(5):
        batch = fundeq.evaluate(spec, points, order=order)
        assert batch.failed.tolist() == [True, False, True, False]
        for i in (0, 2):
            with pytest.raises(DomainError):
                fundeq.evaluate(spec, points[i], order=order)
            assert np.all(np.isnan(batch.coeffs[:, i]))
        for i in (1, 3):
            single = fundeq.evaluate(spec, points[i], order=order)
            assert _same(batch.coeffs[:, i], single.coeffs)
