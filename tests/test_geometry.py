import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtdkit import cli, fundeq, geometry, jets
from gtdkit.errors import DegenerateMetricError, DomainError
from gtdkit.fundeq import builtin
from gtdkit.geometry import (
    DirectMetricField,
    HessianMetricField,
    MetricKind,
    christoffel,
    closed_form_metric,
    curvature_tensors,
    hessian_positive_semidefinite,
    load_metric_file,
    metric_at,
    metric_determinant,
    scalar_curvature,
    sphere_metric,
)
from test_fundeq import _tape_shape

PI = math.pi


def rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    scale = np.maximum(np.abs(a), np.abs(b))
    return np.max(np.abs(a - b) / np.where(scale > 0, scale, 1.0))


# -- metric evaluation ---------------------------------------------------------------


def test_ideal_gas_natural_metric():
    f = HessianMetricField(builtin("ideal_gas"))
    g = metric_at(f, (0.0, 1.0))
    assert g.kind is MetricKind.NATURAL
    expected = np.array([[4 / 9, -4 / 9], [-4 / 9, 10 / 9]])
    assert rel_err(g.components, expected) <= 1e-14


def test_rn_extremal_metric():
    f = HessianMetricField(builtin("reissner_nordstrom"))
    g = metric_at(f, (PI, 1.0)).components
    expected = np.array([[1 / (4 * PI**2), -1 / (2 * PI)], [-1 / (2 * PI), 1.0]])
    assert rel_err(g, expected) <= 1e-12


def test_direct_sphere_at_equator():
    g = metric_at(sphere_metric(), (PI / 2, 0.0)).components
    assert rel_err(g, np.eye(2)) <= 1e-15


def test_determinants():
    ig = HessianMetricField(builtin("ideal_gas"))
    assert metric_determinant(ig, (0.0, 1.0)) == pytest.approx(24 / 81, rel=1e-13)
    rn = HessianMetricField(builtin("reissner_nordstrom"))
    assert abs(metric_determinant(rn, (PI, 1.0))) <= 1e-14
    diag = DirectMetricField(("x", "y"), [[3.0, 0.0], [0.0, 5.0]])
    assert metric_determinant(diag, (0.1, 0.2)) == pytest.approx(15.0)


def test_weinhold_is_hessian():
    spec = builtin("vdw")
    point = (0.8, 1.4)
    w = metric_at(HessianMetricField(spec, MetricKind.WEINHOLD), point).components
    assert rel_err(w, fundeq.hessian(spec, point)) <= 1e-14


def test_ruppeiner_is_weinhold_over_temperature():
    spec = builtin("vdw")
    point = (0.8, 1.4)
    w = metric_at(HessianMetricField(spec, MetricKind.WEINHOLD), point).components
    r = metric_at(HessianMetricField(spec, MetricKind.RUPPEINER), point).components
    t = fundeq.intensive_variables(spec, point)[0]
    assert rel_err(r, w / t) <= 1e-14


def test_natural_is_phi_times_hessian():
    spec = builtin("kerr_newman")
    point = (4.0, 0.7, 0.9)
    nat = metric_at(HessianMetricField(spec), point).components
    phi = fundeq.potential_value(spec, point)
    assert rel_err(nat, phi * fundeq.hessian(spec, point)) <= 1e-13


def test_direct_metric_rejects_asymmetric():
    f = DirectMetricField(("x", "y"), [["1", "x"], ["2*x", "1"]])
    with pytest.raises(ValueError, match="not symmetric"):
        metric_at(f, (1.0, 1.0)).components


def test_direct_metric_rejects_asymmetric_batch():
    f = DirectMetricField(("x", "y"), [["1", "x"], ["2*x", "1"]])
    with pytest.raises(ValueError, match="not symmetric"):
        metric_determinant(f, np.array([[1.0, 1.0], [2.0, 0.5]]))


def test_direct_metric_symmetry_check_passes_failed_points():
    # x*y and x^2*y/2 are different expressions, equal where x = 2 and compared
    # at every point but the one where ln(x) fails
    f = DirectMetricField(("x", "y"), [["ln(x)", "x*y"], ["x^2*y/2", "2"]])
    with np.errstate(invalid="ignore"):
        _, status = metric_determinant(f, np.array([[2.0, 1.0], [-1.0, 1.0], [2.0, 3.0]]))
        assert status == ["ok", "domain-error", "ok"]
        with pytest.raises(ValueError, match=r"not symmetric in \(0, 1\)"):
            metric_determinant(f, np.array([[2.0, 1.0], [-1.0, 1.0], [3.0, 1.0]]))


def test_direct_metric_with_parameters_returns_a_new_field():
    f = closed_form_metric("vdw_closed")
    g = f.with_parameters(b=0.5)
    assert g is not f and g.parameters == {"a": 1.0, "b": 0.5, "k": 1.0}
    assert f.parameters == {"a": 1.0, "b": 0.1, "k": 1.0}
    assert (g.coordinates, g.name, g.domain) == (f.coordinates, f.name, f.domain)
    # b is read at evaluation: V = 0.4 is inside the default domain only
    assert metric_determinant(f, (1.0, 0.4)) > 0.0
    with pytest.raises(DomainError, match="outside domain"):
        metric_determinant(g, (1.0, 0.4))
    assert closed_form_metric("vdw_closed", b=0.5).parameters == g.parameters
    with pytest.raises(ValueError, match=r"unknown parameters for 'vdw_closed': \['zz'\]"):
        f.with_parameters(a=2.0, zz=1.0)


def test_closed_form_override_compiles_its_entries_once(monkeypatch):
    calls, compile_exprs = [], fundeq.compile_exprs

    def counting_compile(exprs, variables):
        calls.append(exprs)
        return compile_exprs(exprs, variables)

    monkeypatch.setattr(fundeq, "compile_exprs", counting_compile)
    g = closed_form_metric("vdw_closed", a=2.0)
    assert len(calls) == 1
    monkeypatch.undo()
    # the overridden a is the one evaluated: it moves det g
    f = closed_form_metric("vdw_closed")
    assert g.parameters["a"] == 2.0 and f.parameters["a"] == 1.0
    point = (0.9, 1.0)
    assert metric_determinant(g, point) != metric_determinant(f, point)
    assert metric_determinant(g, point) == metric_determinant(
        DirectMetricField(f.coordinates, f.components, g.parameters, f.name, f.domain), point
    )


@pytest.mark.parametrize(
    "coordinates, parameters, message",
    [
        (("x", "x"), {}, "must be distinct"),
        (("x", "y"), {"x": 5.0}, "must be distinct"),
        (("pi", "y"), {}, "reserved identifiers"),
        (("x", "2y"), {}, re.escape("identifiers of the grammar: ['2y']")),
        (("x", "y"), {"y-1": 1.0}, re.escape("identifiers of the grammar: ['y-1']")),
    ],
)
def test_direct_metric_follows_the_system_name_rule(coordinates, parameters, message):
    with pytest.raises(ValueError, match=message):
        DirectMetricField(coordinates, [["1", "0"], ["0", "2"]], parameters)


def test_one_point_messages_print_plain_floats():
    # a numpy point reads as the floats a list point gives
    big = HessianMetricField(fundeq.SystemSpec("big", ("S", "V"), fundeq.parse("10^400 + S")))
    steep = DirectMetricField(
        ("S", "V"), [["exp(1000*S)", "exp(1000*S)"], ["exp(1000*S)", "1"]], name="steep"
    )
    rn = HessianMetricField(builtin("reissner_nordstrom"))
    p, q, extremal = np.array([1.0, 2.0]), np.array([1.25, 1.0]), np.array([PI, 1.0])
    cases = [
        (lambda: metric_at(big, p), "metric big[natural] is not a number at point (1.0, 2.0)"),
        (lambda: big.component_jets(p), "metric big[natural] is not a number at point (1.0, 2.0)"),
        (lambda: metric_at(steep, q), "det g of steep is not a number at point (1.25, 1.0)"),
        (lambda: scalar_curvature(rn, extremal), f"metric degenerate at ({PI!r}, 1.0): "),
    ]
    for call, message in cases:
        with np.errstate(all="ignore"), pytest.raises((DomainError, DegenerateMetricError)) as err:
            call()
        assert message in str(err.value)
        assert "np.float64" not in str(err.value)


def test_direct_metric_rejects_callable_component():
    with pytest.raises(TypeError, match="metric component"):
        DirectMetricField(("x",), [[lambda env: env["x"]]])


@pytest.mark.parametrize("name, count", [("vdw_closed", 3), ("kn_closed", 6)])
@pytest.mark.parametrize("batched", [False, True])
def test_direct_metric_evaluates_each_distinct_entry_once(monkeypatch, name, count, batched):
    # the entries are one tape, run once per evaluation; each distinct entry is one output
    outputs = []
    run_tape = fundeq.run_tape

    def counting(tape, env, nvars, order):
        outputs.append(len(set(tape.outputs)))
        return run_tape(tape, env, nvars, order)

    monkeypatch.setattr(fundeq, "run_tape", counting)
    f = closed_form_metric(name)
    point = (0.9, 1.0) if name == "vdw_closed" else (5.0, 0.5, 0.8)
    f.component_jets(np.array([point, point]) if batched else point)
    assert outputs == [count]
    if name == "vdw_closed":
        # exp(S/k), inside the factors every entry repeats, is one step
        assert [step[0] for step in f.tape.steps].count("exp") == 1


def test_direct_metric_compiles_its_tape_once(monkeypatch):
    compiled = []
    compile_exprs = fundeq.compile_exprs

    def counting(exprs, variables):
        compiled.append(len(exprs))
        return compile_exprs(exprs, variables)

    monkeypatch.setattr(fundeq, "compile_exprs", counting)
    f = closed_form_metric("vdw_closed")
    assert compiled == [4]
    for points in ((0.9, 1.0), np.array([(0.9, 1.0), (1.1, 2.0)])):
        for gorder in (0, 1, 2):
            f.component_jets(points, gorder)
        metric_determinant(f, points)
        scalar_curvature(f, points)
    assert compiled == [4]


# -- christoffel symbols ----------------------------------------------------------------


def test_constant_metric_flat_connection():
    f = DirectMetricField(("x", "y"), [[2.0, 0.5], [0.5, 3.0]])
    assert np.all(christoffel(f, (0.3, -1.2)) == 0.0)


def test_sphere_christoffel():
    gamma = christoffel(sphere_metric(), (PI / 4, 0.0))
    assert gamma[0, 1, 1] == pytest.approx(-0.5, rel=1e-12)  # -sin cos at pi/4
    assert gamma[1, 0, 1] == pytest.approx(1.0, rel=1e-12)  # cot(pi/4)


def test_christoffel_degenerate_at_extremal_rn():
    f = HessianMetricField(builtin("reissner_nordstrom"))
    with pytest.raises(DegenerateMetricError):
        christoffel(f, (PI, 1.0))


def test_christoffel_exact_lower_symmetry():
    f = HessianMetricField(builtin("kerr_newman"))
    gamma = christoffel(f, (4.0, 0.7, 0.9))
    assert np.array_equal(gamma, np.swapaxes(gamma, 1, 2))


# -- curvature ----------------------------------------------------------------------------


def test_ideal_gas_flat():
    f = HessianMetricField(builtin("ideal_gas"))
    for s, v in [(0.1, 0.5), (1.0, 1.0), (2.0, 3.0)]:
        assert abs(scalar_curvature(f, (s, v)).scalar) <= 1e-8


def test_rn_spot_curvature():
    f = HessianMetricField(builtin("reissner_nordstrom"))
    assert scalar_curvature(f, (2 * PI, 1.0)).scalar == pytest.approx(160 / 27, rel=1e-8)


def test_unit_sphere_curvature():
    rep = scalar_curvature(sphere_metric(), (PI / 3, 0.0))
    assert rep.scalar == pytest.approx(2.0, abs=1e-9)


def test_sphere_scaling():
    for r in (0.5, 1.0, 3.0):
        rep = scalar_curvature(sphere_metric(r), (1.1, 0.4))
        assert rep.scalar == pytest.approx(2.0 / r**2, abs=1e-9)


@pytest.mark.parametrize("radius", [0.0, 1e-3, 0.5, 1.0, 1.0000001, 3.0, 7.3, 1e100])
def test_sphere_entry_is_the_tree_of_its_text(radius):
    # the tree a finite r^2 builds is the one its text parses to, so its bits are unchanged
    r2 = radius * radius
    assert repr(sphere_metric(radius).components[1][1]) == repr(fundeq.parse(f"{r2!r}*sin(theta)^2"))


@pytest.mark.parametrize("radius", [1e200, math.nan])
def test_sphere_of_no_finite_area_builds_and_its_curvature_is_a_domain_error(radius):
    # r^2 = inf or NaN was written into the text as a name, and construction
    # raised "reference undeclared identifiers: ['inf']"
    f = sphere_metric(radius)
    with np.errstate(all="ignore"):  # inf times a zero coefficient is NaN
        with pytest.raises(DomainError, match=re.escape(f"makes sphere(r={radius}) not a number")):
            scalar_curvature(f, (1.0, 0.5))
        assert scalar_curvature(f, np.array([[1.0, 0.5]])).status == ["domain-error"]


def test_kerr_flat_spot():
    f = HessianMetricField(builtin("kerr"))
    assert abs(scalar_curvature(f, (4 * PI, 1.0)).scalar) <= 1e-8


def _flat_grid_curvature(system, kind, axes):
    f = HessianMetricField(builtin(system), kind)
    mesh = np.meshgrid(*(np.linspace(*axis) for axis in axes), indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    report = scalar_curvature(f, points)
    assert set(report.status) == {"ok"}
    return points, report.scalar


def test_rn_ruppeiner_flat_away_from_extremal_locus():
    # flat (Aman, Bengtsson & Pidokrajt 2003); at the T = 0 locus S = pi Q^2
    # the Ruppeiner metric is singular, and there the general contraction's
    # rounding reaches |R| ~ 4e-8
    points, scalar = _flat_grid_curvature(
        "reissner_nordstrom", MetricKind.RUPPEINER, [(0.5, 10.0, 30), (0.2, 1.6, 30)]
    )
    s, q = points.T
    away = np.abs(s - PI * q * q) > 0.05 * s
    assert away.sum() > 800
    assert np.max(np.abs(scalar[away])) <= 1e-10
    # the Hessian-metric route stays flat up to the locus: |R| <= 2.2e-11 on the
    # whole grid, whose closest points are 0.1% of S from it
    assert np.min(np.abs(s - PI * q * q) / s) < 1e-3
    assert np.max(np.abs(scalar)) <= 1e-9


def test_kerr_weinhold_flat():
    _, scalar = _flat_grid_curvature("kerr", MetricKind.WEINHOLD, [(1.0, 30.0, 30), (0.05, 2.0, 30)])
    assert np.max(np.abs(scalar)) <= 1e-12


@pytest.mark.parametrize("kind", [MetricKind.NATURAL, MetricKind.WEINHOLD, MetricKind.RUPPEINER])
def test_ideal_gas_flat_for_every_hessian_kind(kind):
    _, scalar = _flat_grid_curvature("ideal_gas", kind, [(0.1, 2.0, 20), (0.5, 3.0, 20)])
    assert np.max(np.abs(scalar)) <= 1e-12


def test_constant_metric_zero_curvature():
    f = DirectMetricField(("x", "y"), [[2.0, 0.5], [0.5, 3.0]])
    assert abs(scalar_curvature(f, (0.0, 0.0)).scalar) <= 1e-10


def test_riemann_antisymmetry_exact():
    rep = curvature_tensors(HessianMetricField(builtin("kerr_newman")), (4.0, 0.7, 0.9))
    assert np.array_equal(rep.riemann, -np.swapaxes(rep.riemann, 2, 3))


def test_ricci_symmetry():
    rep = curvature_tensors(HessianMetricField(builtin("kerr_newman")), (4.0, 0.7, 0.9))
    assert rel_err(rep.ricci, rep.ricci.T) <= 1e-10


def _scaled(f, c):
    """The direct metric c * g."""
    components = [[fundeq.BinOp("*", fundeq.Num(c), e) for e in row] for row in f.components]
    return DirectMetricField(f.coordinates, components, f.parameters, f.name, f.domain)


_REGULAR_POINTS = {
    "sphere": (sphere_metric, [[1.0, 0.3], [0.4, 2.0], [2.5, -1.0]]),
    "rn_closed": (lambda: closed_form_metric("rn_closed"), [[6.0, 1.0], [1.0, 0.2], [20.0, 1.5]]),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_REGULAR_POINTS)), st.floats(min_value=-8.0, max_value=8.0))
@example("sphere", -8.0)
@example("rn_closed", -8.0)
@example("rn_closed", 8.0)
def test_curvature_survives_rescaling(name, log_factor):
    # R(c g) = R(g) / c: the degeneracy test must not depend on the scale of g
    make, rows = _REGULAR_POINTS[name]
    f, c = make(), 10.0**log_factor
    points = np.array(rows)
    expected = scalar_curvature(f, points).scalar
    batch = scalar_curvature(_scaled(f, c), points)
    assert batch.status == ["ok"] * len(points)
    np.testing.assert_allclose(c * batch.scalar, expected, rtol=1e-12, atol=0.0)
    assert c * scalar_curvature(_scaled(f, c), points[0]).scalar == pytest.approx(
        expected[0], rel=1e-12
    )


class _JetRoute:
    """A field's curvature contracted from its own metric jets (the potential to order 4)."""

    def __init__(self, field):
        self.field = field

    def metric_arrays(self, point, gorder=2):
        return geometry._geometry_arrays(self.field.component_jets(point, gorder))


_HESSIAN_KINDS = [MetricKind.NATURAL, MetricKind.WEINHOLD, MetricKind.RUPPEINER]
# pairs whose curvature vanishes; RN Ruppeiner away from T = 0 only, and these
# points keep clear of that locus
_FLAT = {("ideal_gas", k) for k in _HESSIAN_KINDS} | {
    ("kerr", MetricKind.NATURAL),
    ("kerr", MetricKind.WEINHOLD),
    ("reissner_nordstrom", MetricKind.RUPPEINER),
}
# measured at these points: flat pairs reach |R| = 9.2e-12 (RN Ruppeiner, 4.0e-11
# by the jet contraction; the rest stay below 1e-13), the smallest |R|
# elsewhere is 0.064, and there the routes differ by at most 8.3e-13 relative
# (RN natural; KN at most 4.7e-13)
_NOISE_FLOOR = 1e-9
_ROUTE_REL = 1e-12


def _box_points(system, count, seed=23):
    box = cli._CHECK_BOXES[system]
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(*box[v], count) for v in builtin(system).variables])


@pytest.mark.parametrize("kind", _HESSIAN_KINDS)
@pytest.mark.parametrize("system", sorted(cli._CHECK_BOXES))
def test_hessian_curvature_matches_jet_contraction(system, kind):
    # R from the Hessian-metric identity and the conformal factor against the
    # general contraction of the order-2 metric jets
    f = HessianMetricField(builtin(system), kind)
    points = _box_points(system, 64)
    new, old = scalar_curvature(f, points), scalar_curvature(_JetRoute(f), points)
    assert new.status == old.status == ["ok"] * len(points)
    if (system, kind) in _FLAT:
        assert np.max(np.abs(new.scalar)) <= _NOISE_FLOOR
        assert np.max(np.abs(old.scalar)) <= _NOISE_FLOOR
    else:
        assert np.min(np.abs(old.scalar)) > 1e4 * _NOISE_FLOOR
        assert rel_err(new.scalar, old.scalar) <= _ROUTE_REL
    # g is the same product as in the jets
    assert np.array_equal(new.det_g, old.det_g)
    single = scalar_curvature(f, points[0])
    assert single.scalar == new.scalar[0]
    assert abs(single.scalar - scalar_curvature(_JetRoute(f), points[0]).scalar) <= max(
        _NOISE_FLOOR, _ROUTE_REL * abs(single.scalar)
    )
    # HessianMetricField.metric_arrays against the arrays read back from its
    # own metric jets, both through the general contraction
    new, old = curvature_tensors(f, points), curvature_tensors(_JetRoute(f), points)
    if (system, kind) not in _FLAT:
        # each point's tensor against its largest entry: at most 5.1e-14 (RN natural)
        axes = tuple(range(1, old.riemann.ndim))
        scale = np.max(np.abs(old.riemann), axis=axes)
        assert np.all(np.max(np.abs(new.riemann - old.riemann), axis=axes) <= _ROUTE_REL * scale)
    # g and d_e g are the same products as in the jets, summed in the same order
    assert np.array_equal(new.christoffel, old.christoffel)


def test_hessian_route_asks_for_low_orders(monkeypatch):
    # the curvature scalar and the Christoffel symbols need the potential to
    # order 3, g and det g to order 2; the curvature tensors and the order-2
    # metric jets read d_e d_f g, with c Phi_abef, from order 4
    orders = []
    evaluate = fundeq.evaluate

    def recording(spec, point, order=jets.DEFAULT_ORDER):
        orders.append(order)
        return evaluate(spec, point, order)

    monkeypatch.setattr(fundeq, "evaluate", recording)
    for system in sorted(cli._CHECK_BOXES):
        points = _box_points(system, 8)
        for kind in _HESSIAN_KINDS:
            f = HessianMetricField(builtin(system), kind)
            scalar_curvature(f, points)
            scalar_curvature(f, points[0])
            christoffel(f, points[0])
            assert max(orders) == 3
            orders.clear()
            metric_determinant(f, points)
            metric_determinant(f, points[0])
            metric_at(f, points[0])
            assert max(orders) == 2
            orders.clear()
            curvature_tensors(f, points)
            curvature_tensors(f, points[0])
            f.component_jets(points, gorder=2)
            assert orders == [4] * 3
            orders.clear()


def _metric_derivatives(spec, kind, points):
    """g, d_e g and d_e d_f g by the product rule from true order-4 partials of Phi.

    g = c h with h = Hess Phi and c = Phi, 1 or 1/T; no geometry code is used.
    Axes as in `geometry._geometry_arrays`: dg[z, e, a, b], d2g[z, e, f, a, b].
    """
    phi, d1, h, d3, d4 = (jets.partials(fundeq.evaluate(spec, points, 4), k) for k in range(5))
    if kind is MetricKind.NATURAL:
        c, c1, c2 = phi, d1, h
    elif kind is MetricKind.WEINHOLD:
        c, c1, c2 = np.ones_like(phi), np.zeros_like(d1), np.zeros_like(h)
    else:
        t, t1, t2 = d1[:, 0], h[:, 0], d3[:, 0]
        c = 1.0 / t
        c1 = -t1 / t[:, None] ** 2
        c2 = 2.0 * np.einsum("ze,zf->zef", t1, t1) / t[:, None, None] ** 3 - t2 / t[:, None, None] ** 2
    g = c[:, None, None] * h
    dg = np.einsum("ze,zab->zeab", c1, h) + np.einsum("z,zabe->zeab", c, d3)
    d2g = (
        np.einsum("zef,zab->zefab", c2, h)
        + np.einsum("ze,zabf->zefab", c1, d3)
        + np.einsum("zf,zabe->zefab", c1, d3)
        + np.einsum("z,zabef->zefab", c, d4)
    )
    return g, dg, d2g


def _brioschi_scalar(g, dg, d2g):
    """R = 2K of a 2-D metric, K by Brioschi's formula in E, F, G over (u, v)."""

    def det3(rows):
        return np.linalg.det(np.stack([np.stack(row, axis=-1) for row in rows], axis=-2))

    E, F, G = g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]
    Eu, Fu, Gu = dg[:, 0, 0, 0], dg[:, 0, 0, 1], dg[:, 0, 1, 1]
    Ev, Fv, Gv = dg[:, 1, 0, 0], dg[:, 1, 0, 1], dg[:, 1, 1, 1]
    Evv, Fuv, Guu = d2g[:, 1, 1, 0, 0], d2g[:, 0, 1, 0, 1], d2g[:, 0, 0, 1, 1]
    first = det3(
        [[-Evv / 2 + Fuv - Guu / 2, Eu / 2, Fu - Ev / 2], [Fv - Gu / 2, E, F], [Gv / 2, F, G]]
    )
    second = det3([[np.zeros_like(E), Ev / 2, Gu / 2], [Ev / 2, E, F], [Gu / 2, F, G]])
    return 2.0 * (first - second) / (E * G - F * F) ** 2


@pytest.mark.parametrize("kind", _HESSIAN_KINDS)
@pytest.mark.parametrize("system", ["ideal_gas", "kerr", "reissner_nordstrom", "vdw"])
def test_hessian_curvature_matches_brioschi(system, kind):
    # an oracle for every Hessian kind that shares no code with the geometry:
    # at these points the worst relative difference is 4.6e-13 (RN natural;
    # vdW 7.8e-14), and on the flat pairs |R| stays below 2.6e-11 (RN
    # Ruppeiner, 1.3e-10 by Brioschi) and 2.7e-14 elsewhere
    spec = builtin(system)
    points = _box_points(system, 200)
    expected = _brioschi_scalar(*_metric_derivatives(spec, kind, points))
    report = scalar_curvature(HessianMetricField(spec, kind), points)
    assert report.status == ["ok"] * len(points)
    if (system, kind) in _FLAT:
        assert np.max(np.abs(expected)) <= _NOISE_FLOOR
        assert np.max(np.abs(report.scalar)) <= _NOISE_FLOOR
    else:
        assert np.min(np.abs(expected)) > 1e4 * _NOISE_FLOOR
        assert rel_err(report.scalar, expected) <= _ROUTE_REL


@pytest.mark.parametrize("gorder", [0, 1, 2])
@pytest.mark.parametrize("kind", _HESSIAN_KINDS)
@pytest.mark.parametrize("system", sorted(cli._CHECK_BOXES))
def test_component_jets_match_the_product_rule(system, kind, gorder):
    # the partials of g read back from the metric jets, and the arrays of
    # `metric_arrays`, against the product rule on true order-4 partials of
    # Phi, which shares no code with the geometry; each point's worst error of
    # a degree against its largest entry of that degree: at most 1.8e-14 (vdW
    # Ruppeiner d2g) and 2.1e-16 for a natural d2g; g of every kind matches
    # exactly. A d2g without c Phi_abef was off by up to 32 times that entry.
    spec = builtin(system)
    points = _box_points(system, 200)
    f = HessianMetricField(spec, kind)
    gjets, arrays = f.component_jets(points, gorder), f.metric_arrays(points, gorder)
    assert not arrays[-1].any()
    n = spec.dim
    for degree, expected in enumerate(_metric_derivatives(spec, kind, points)[: gorder + 1]):
        got = np.empty_like(expected)
        for idx in np.ndindex(expected.shape[1:]):
            alpha = tuple(idx[:degree].count(i) for i in range(n))
            got[(slice(None),) + idx] = jets.extract_partial(gjets[idx[-2]][idx[-1]], alpha)
        axes = tuple(range(1, expected.ndim))
        scale = np.max(np.abs(expected), axis=axes)
        for x in (got, arrays[degree]):
            assert np.all(np.max(np.abs(x - expected), axis=axes) <= 1e-13 * scale)


def _loop_scalar(g, dg, d2g):
    """R at one point from g, d_e g and d_e d_f g, contracted by explicit loops.

    R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + Gamma^a_ce Gamma^e_db -
    Gamma^a_de Gamma^e_cb, Ricci_bd = R^a_bad and R = g^bd Ricci_bd.
    """
    r = range(len(g))
    gi = np.linalg.inv(g).tolist()
    dg, d2g = dg.tolist(), d2g.tolist()
    # d_e g^ad = -g^ax (d_e g_xy) g^yd
    dgi = [
        [[-sum(gi[a][x] * dg[e][x][y] * gi[y][d] for x in r for y in r) for d in r] for a in r]
        for e in r
    ]

    def gamma(a, b, c):
        return 0.5 * sum(gi[a][d] * (dg[b][d][c] + dg[c][d][b] - dg[d][b][c]) for d in r)

    def d_gamma(e, a, b, c):  # d_e Gamma^a_bc
        return 0.5 * sum(
            dgi[e][a][d] * (dg[b][d][c] + dg[c][d][b] - dg[d][b][c])
            + gi[a][d] * (d2g[e][b][d][c] + d2g[e][c][d][b] - d2g[e][d][b][c])
            for d in r
        )

    gam = [[[gamma(a, b, c) for c in r] for b in r] for a in r]

    def riemann(a, b, c, d):
        return (
            d_gamma(c, a, d, b)
            - d_gamma(d, a, c, b)
            + sum(gam[a][c][e] * gam[e][d][b] - gam[a][d][e] * gam[e][c][b] for e in r)
        )

    return sum(gi[b][d] * riemann(a, b, a, d) for a in r for b in r for d in r)


@pytest.mark.parametrize("kind", [MetricKind.WEINHOLD, MetricKind.RUPPEINER])
def test_kerr_newman_curvature_matches_loop_contraction(kind):
    # the 3-D oracle: the true partials of `_metric_derivatives`, with c Phi_abef,
    # contracted by loops and no geometry code; at these points the worst
    # relative difference is 1.1e-13 (Weinhold) and 2.1e-13 (Ruppeiner), and
    # the smallest |R| is 0.27 and 0.0075
    spec = builtin("kerr_newman")
    points = _box_points("kerr_newman", 200)
    arrays = zip(*_metric_derivatives(spec, kind, points))
    expected = np.array([_loop_scalar(g, dg, d2g) for g, dg, d2g in arrays])
    report = scalar_curvature(HessianMetricField(spec, kind), points)
    assert report.status == ["ok"] * len(points)
    assert np.min(np.abs(expected)) > 1e4 * _NOISE_FLOOR
    assert rel_err(report.scalar, expected) <= _ROUTE_REL


@pytest.mark.parametrize("kind", _HESSIAN_KINDS)
@pytest.mark.parametrize(
    "system, axes",
    [
        ("reissner_nordstrom", [(0.5, 10.0, 40), (0.2, 1.6, 15)]),
        ("kerr_newman", [(1.0, 10.0, 12), (0.1, 1.5, 12), (0.3, 1.5, 4)]),
    ],
)
def test_determinant_matches_component_jets_bit_for_bit(system, axes, kind):
    f = HessianMetricField(builtin(system), kind)
    mesh = np.meshgrid(*(np.linspace(*axis) for axis in axes), indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    det, status = metric_determinant(f, points)
    assert status == ["ok"] * len(points)
    g = geometry._geometry_arrays(f.component_jets(points, gorder=0))[0]
    assert np.linalg.det(g).tobytes() == det.tobytes()
    assert f.metric_arrays(points, gorder=0)[0].tobytes() == g.tobytes()
    for p in points[::37]:
        expected = np.linalg.det(geometry._geometry_arrays(f.component_jets(p, gorder=0))[0][0])
        assert metric_determinant(f, p) == expected


def test_degenerate_curvature_error_carries_det():
    f = HessianMetricField(builtin("reissner_nordstrom"))
    with pytest.raises(DegenerateMetricError) as err:
        scalar_curvature(f, (PI, 1.0))
    assert err.value.threshold > 0


def test_curvature_that_is_not_a_number_is_a_domain_error():
    # RN scaled by 1e-150: powers of T underflow in the Ruppeiner kind, and R
    # was NaN with status ok
    potential = fundeq.parse("1e-150*sqrt((S/(4*pi))*(1 + pi*Q^2/S)^2)")
    f = HessianMetricField(fundeq.SystemSpec("tiny", ("S", "Q"), potential), MetricKind.RUPPEINER)
    with np.errstate(all="ignore"):
        with pytest.raises(DomainError, match=r"curvature of tiny\[ruppeiner\] is not a number"):
            scalar_curvature(f, (6.0, 1.0))
        report = scalar_curvature(f, np.array([[2.0, 1.0], [5.0, 1.0]]))
    assert report.status == ["domain-error"] * 2 and np.isnan(report.scalar).all()


# -- closed forms ------------------------------------------------------------------------


def test_rn_closed_matches_example_matrix():
    g = metric_at(closed_form_metric("rn_closed"), (PI, 1.0)).components
    expected = np.array([[1 / (4 * PI**2), -1 / (2 * PI)], [-1 / (2 * PI), 1.0]])
    assert rel_err(g, expected) <= 1e-14


@pytest.mark.parametrize(
    "system,closed,box",
    [
        ("vdw", "vdw_closed", {"S": (0.5, 2.0), "V": (0.8, 5.0)}),
        ("kerr_newman", "kn_closed", {"S": (1.0, 10.0), "J": (0.1, 1.5), "Q": (0.3, 1.5)}),
        ("reissner_nordstrom", "rn_closed", {"S": (1.0, 10.0), "Q": (0.3, 1.5)}),
        ("kerr", "kerr_closed", {"S": (1.0, 10.0), "J": (0.1, 1.5)}),
    ],
)
def test_closed_form_matches_pipeline(system, closed, box):
    spec = builtin(system)
    nat = HessianMetricField(spec)
    cf = closed_form_metric(closed)
    rng = np.random.default_rng(11)
    for _ in range(50):
        point = [rng.uniform(*box[v]) for v in spec.variables]
        assert rel_err(metric_at(nat, point).components, metric_at(cf, point).components) <= 1e-10


def test_closed_form_unknown_name():
    with pytest.raises(ValueError, match="unknown closed-form"):
        closed_form_metric("sphere_closed")


def test_kerr_closed_spot():
    nat = HessianMetricField(builtin("kerr"))
    cf = closed_form_metric("kerr_closed")
    p = (4 * PI, 1.0)
    assert rel_err(metric_at(nat, p).components, metric_at(cf, p).components) <= 1e-10


# the printed metrics, written out entry by entry as each closed form's source text
_VDW_PHI = "((exp(S/k)/(V-b))^(2/3) - a/V)"
_VDW_U = "(exp(S/k)/(V-b))^(2/3)"
_VDW_SV = f"-(4/(9*k)) * {_VDW_PHI} * {_VDW_U} / (V-b)"
_KN_M2 = "(pi*J^2/S + (S/(4*pi))*(1 + pi*Q^2/S)^2)"
_KN_SJ = f"-J*(2*pi*{_KN_M2} + pi*Q^2 + S) / (4*S^2*{_KN_M2})"
_KN_SQ = f"Q*(2*pi*J^2 - (pi*Q^2+S)*{_KN_M2}) / (4*S^2*{_KN_M2})"
_KN_JQ = f"-pi*J*Q*(pi*Q^2+S) / (2*S^2*{_KN_M2})"
_RN = "((pi*Q^2+S)/(2*S^2))"
_KERR = "(pi*S/(S^2+4*pi^2*J^2))"
_KERR_SJ = f"-{_KERR} * J*(3*S^2+4*pi^2*J^2)/(2*S^3)"
_PRINTED = {
    "kerr_closed": DirectMetricField(
        ("S", "J"),
        [[f"{_KERR} * (3*pi^2*J^4/S^4 + 3*J^2/(2*S^2) - 1/(16*pi^2))", _KERR_SJ], [_KERR_SJ, _KERR]],
        None, "kerr_closed", fundeq._positive_entropy, "S > 0",
    ),
    "kn_closed": DirectMetricField(
        ("S", "J", "Q"),
        [
            [
                "(-S^4 + pi^2*(4*J^2+Q^4)*(6*S^2 + 8*pi*S*Q^2 + 3*pi^2*(4*J^2+Q^4)))"
                f" / (64*pi^2*S^4*{_KN_M2})",
                _KN_SJ,
                _KN_SQ,
            ],
            [_KN_SJ, f"(pi*Q^2+S)^2 / (4*S^2*{_KN_M2})", _KN_JQ],
            [_KN_SQ, _KN_JQ, f"(4*pi^2*J^2*(3*pi*Q^2+S) + (pi*Q^2+S)^3) / (8*pi*S^2*{_KN_M2})"],
        ],
        None, "kn_closed", fundeq._positive_entropy, "S > 0",
    ),
    "rn_closed": DirectMetricField(
        ("S", "Q"),
        [[f"{_RN} * (3*pi*Q^2 - S)/(8*pi*S)", f"-{_RN} * Q/2"], [f"-{_RN} * Q/2", f"{_RN} * S"]],
        None, "rn_closed", fundeq._positive_entropy, "S > 0",
    ),
    "vdw_closed": DirectMetricField(
        ("S", "V"),
        [
            [f"(4/(9*k^2)) * {_VDW_PHI} * {_VDW_U}", _VDW_SV],
            [_VDW_SV, f"(10/9) * {_VDW_PHI} * {_VDW_U} / (V-b)^2 - 2*a*{_VDW_PHI}/V^3"],
        ],
        {"a": 1.0, "b": 0.1, "k": 1.0}, "vdw_closed", fundeq._above_covolume, "V > b",
    ),
}


@pytest.mark.parametrize("name", sorted(_PRINTED))
def test_closed_form_builds_the_printed_metric(name):
    field, expected = closed_form_metric(name), _PRINTED[name]
    assert geometry.CLOSED_FORM_NAMES == tuple(sorted(_PRINTED))
    fields = ("coordinates", "parameters", "name", "domain", "domain_text")
    assert [getattr(field, k) for k in fields] == [getattr(expected, k) for k in fields]
    assert repr(field.components) == repr(expected.components)
    assert _tape_shape(field.tape) == _tape_shape(expected.tape)


# -- convexity ---------------------------------------------------------------------------


def test_ideal_gas_convex_on_grid():
    spec = builtin("ideal_gas")
    for s in np.linspace(0.1, 2.0, 5):
        for v in np.linspace(0.5, 3.0, 5):
            assert hessian_positive_semidefinite(spec, (s, v))


def test_rn_not_convex_beyond_extremal():
    spec = builtin("reissner_nordstrom")
    assert not hessian_positive_semidefinite(spec, (2 * PI, 1.0))


def test_hessian_of_a_batch_is_one_matrix_per_point():
    # a batch gave the first point's Hessian alone, so (1, 1), not convex by
    # itself, read as convex behind (1, 5)
    spec = builtin("vdw")
    points = np.array([[1.0, 5.0], [1.0, 1.0], [0.9, 0.5]])
    stack = fundeq.hessian(spec, points)
    assert stack.shape == (3, 2, 2)
    for point, hess in zip(points, stack):
        assert np.array_equal(hess, fundeq.hessian(spec, point))
    verdicts = hessian_positive_semidefinite(spec, points)
    assert verdicts.tolist() == [hessian_positive_semidefinite(spec, p) for p in points]
    assert verdicts.tolist()[:2] == [True, False]


def test_convexity_of_a_batch_marks_a_failed_point_not_convex():
    spec = builtin("vdw")
    with pytest.raises(DomainError):
        hessian_positive_semidefinite(spec, (1.0, 0.05))  # V <= b
    assert hessian_positive_semidefinite(spec, [[1.0, 5.0], [1.0, 0.05]]).tolist() == [True, False]


# -- metric files ------------------------------------------------------------------------

METRIC_FILE = """
[metric]
name = scaled_sphere
coordinates = theta, phi
components = r^2, 0; 0, r^2*sin(theta)^2

[parameters]
r = 3.0
"""


def test_load_metric_file(tmp_path):
    path = tmp_path / "sphere.ini"
    path.write_text(METRIC_FILE)
    f = load_metric_file(path)
    assert f.coordinates == ("theta", "phi")
    rep = scalar_curvature(f, (1.0, 0.5))
    assert rep.scalar == pytest.approx(2.0 / 9.0, abs=1e-9)


def test_ruppeiner_needs_nonzero_temperature():
    spec = builtin("reissner_nordstrom")
    f = HessianMetricField(spec, MetricKind.RUPPEINER)
    with pytest.raises(DomainError):
        metric_at(f, (PI, 1.0)).components  # extremal: T = 0


@pytest.mark.parametrize("kind", list(MetricKind))
def test_a_kind_given_by_its_value_builds_that_kind(kind):
    # "natural" fell through to the Ruppeiner branch: R read the Ruppeiner
    # value, and metric_at ended in a TypeError
    spec = builtin("reissner_nordstrom")
    by_value, by_member = HessianMetricField(spec, kind.value), HessianMetricField(spec, kind)
    assert by_value.kind is kind
    point, batch = (6.28, 1.0), np.array([[6.28, 1.0], [5.0, 0.8]])
    assert scalar_curvature(by_value, point).scalar == scalar_curvature(by_member, point).scalar
    assert np.array_equal(christoffel(by_value, point), christoffel(by_member, point))
    assert np.array_equal(metric_at(by_value, point).components, metric_at(by_member, point).components)
    assert np.array_equal(
        scalar_curvature(by_value, batch).scalar, scalar_curvature(by_member, batch).scalar
    )


@pytest.mark.parametrize("kind", ["direct", "Natural", "bogus", None])
def test_an_unknown_kind_is_a_value_error(kind):
    with pytest.raises(ValueError, match="is not a valid MetricKind"):
        HessianMetricField(builtin("vdw"), kind)


_EMPTY_BATCH_FIELDS = {
    **{
        f"rn[{kind.value}]": lambda kind=kind: HessianMetricField(builtin("reissner_nordstrom"), kind)
        for kind in MetricKind
    },
    "rn_closed": lambda: closed_form_metric("rn_closed"),
    "sphere": sphere_metric,
}


@pytest.mark.parametrize("name", list(_EMPTY_BATCH_FIELDS))
def test_every_geometry_function_takes_an_empty_batch(name):
    # a Hessian field ended in numpy's "cannot reshape array of size 0" ValueError
    f, empty = _EMPTY_BATCH_FIELDS[name](), np.empty((0, 2))
    det, status = metric_determinant(f, empty)
    report = scalar_curvature(f, empty)
    assert det.shape == report.scalar.shape == report.det_g.shape == (0,)
    assert report.metric.shape == (0, 2, 2) and status == report.status == []
    assert christoffel(f, empty).shape == (0, 2, 2, 2)
    shapes = [t.shape for t in curvature_tensors(f, empty)]
    assert shapes == [(0, 2, 2, 2), (0, 2, 2, 2, 2), (0, 2, 2)]
    if isinstance(f, HessianMetricField):
        assert [x.shape for x in geometry.determinant_factors(f, empty)] == [(0,)] * 3


def test_metric_at_refuses_a_batch():
    # a batch ended in numpy's "only 0-dimensional arrays can be converted" TypeError
    f = HessianMetricField(builtin("reissner_nordstrom"))
    with pytest.raises(ValueError, match="metric_determinant"):
        metric_at(f, [[6.28, 1.0], [5.0, 0.8]])
