"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside the pytest output.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from expr_corpus import CORPUS, KN_SOURCE, VDW_SOURCE
from gtdkit import analysis, fundeq, geometry, jets, phase_space
from gtdkit.analysis import Axis, GridSpec
from gtdkit.fundeq import builtin, parse, to_source
from gtdkit.geometry import HessianMetricField, closed_form_metric, sphere_metric

PI = math.pi


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {title}")
        raise
    print(f"[criterion {num:02d}] PASS  {title}")


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.abs(a - b) / np.where(scale > 0, scale, 1.0)))


def r_rn_closed_form(s, q):
    return -8 * PI**2 * q**2 * s**2 * (PI * q**2 - 3 * s) / (
        (PI * q**2 + s) ** 3 * (PI * q**2 - s) ** 2
    )


def test_criterion_01_curvature_engine_oracle():
    with criterion(1, "sphere curvature oracle: R = 2/r^2 within 1e-9"):
        unit = sphere_metric(1.0)
        rng = np.random.default_rng(101)
        for _ in range(20):
            point = (rng.uniform(0.3, PI - 0.3), rng.uniform(0.0, 2 * PI))
            assert geometry.scalar_curvature(unit, point).scalar == pytest.approx(2.0, abs=1e-9)
        for radius in (0.5, 1.0, 3.0):
            rep = geometry.scalar_curvature(sphere_metric(radius), (1.0, 0.7))
            assert rep.scalar == pytest.approx(2.0 / radius**2, abs=1e-9)


def test_criterion_02_ideal_gas_flatness():
    with criterion(2, "ideal gas: |R| <= 1e-8 on 20x20 grid"):
        f = HessianMetricField(builtin("ideal_gas"))
        grid = GridSpec.build(f.coordinates, {"S": Axis(0.1, 2.0, 20), "V": Axis(0.5, 3.0, 20)})
        report = analysis.grid_scan(f, grid, "curvature")
        assert all(s == analysis.STATUS_OK for s in report.status)
        assert float(np.max(np.abs(report.values))) <= 1e-8


def test_criterion_03_vdw_a0_flatness():
    with criterion(3, "vdW a=0, b=0.1: |R| <= 1e-8 on 20x20 grid"):
        f = HessianMetricField(builtin("vdw", a=0.0, b=0.1))
        grid = GridSpec.build(f.coordinates, {"S": Axis(0.1, 2.0, 20), "V": Axis(0.6, 3.0, 20)})
        report = analysis.grid_scan(f, grid, "curvature")
        assert all(s == analysis.STATUS_OK for s in report.status)
        assert float(np.max(np.abs(report.values))) <= 1e-8


SAMPLING_BOXES = {
    "vdw": {"S": (0.5, 2.0), "V": (0.8, 5.0)},
    "kerr_newman": {"S": (1.0, 10.0), "J": (0.1, 1.5), "Q": (0.3, 1.5)},
    "reissner_nordstrom": {"S": (1.0, 10.0), "Q": (0.3, 1.5)},
    "kerr": {"S": (1.0, 10.0), "J": (0.1, 1.5)},
}

CLOSED_FORM_OF = {
    "vdw": "vdw_closed",
    "kerr_newman": "kn_closed",
    "reissner_nordstrom": "rn_closed",
    "kerr": "kerr_closed",
}


def test_criterion_04_closed_form_pipeline_agreement():
    with criterion(4, "printed metrics match the Hessian pipeline at 50 random points each"):
        rng = np.random.default_rng(104)
        for system, closed in CLOSED_FORM_OF.items():
            spec = builtin(system)
            nat = HessianMetricField(spec)
            cf = closed_form_metric(closed)
            box = SAMPLING_BOXES[system]
            for _ in range(50):
                point = [rng.uniform(*box[v]) for v in spec.variables]
                g_nat = geometry.metric_at(nat, point).components
                assert rel_err(g_nat, geometry.metric_at(cf, point).components) <= 1e-10


def test_criterion_05_rn_curvature_closed_form():
    with criterion(5, "R_RN matches its closed form at 100 points and the 160/27 spot value"):
        f = HessianMetricField(builtin("reissner_nordstrom"))
        rng = np.random.default_rng(105)
        checked = 0
        while checked < 100:
            q = rng.uniform(0.5, 2.0)
            s = rng.uniform(0.5 * PI * q**2, 10 * PI * q**2)
            if abs(s - PI * q**2) < 0.1 * PI * q**2:
                continue
            numeric = geometry.scalar_curvature(f, (s, q)).scalar
            assert numeric == pytest.approx(r_rn_closed_form(s, q), rel=1e-6)
            checked += 1
        spot = geometry.scalar_curvature(f, (2 * PI, 1.0)).scalar
        assert spot == pytest.approx(160 / 27, rel=1e-8)


def test_criterion_06_rn_critical_points():
    with criterion(6, "RN critical points: flat point, extremal root, divergence exponent 2"):
        f = HessianMetricField(builtin("reissner_nordstrom"))
        for q in (0.7, 1.0, 1.5):
            s_ext = PI * q**2
            s_zero = s_ext / 3.0
            assert abs(geometry.scalar_curvature(f, (s_zero, q)).scalar) <= 1e-8
            below = geometry.scalar_curvature(f, (0.95 * s_zero, q)).scalar
            above = geometry.scalar_curvature(f, (1.05 * s_zero, q)).scalar
            assert below < 0 < above
            grid = GridSpec.build(f.coordinates, {"S": Axis(0.5 * s_ext, 3 * s_ext, 50), "Q": q})
            roots = analysis.find_singular_locus(f, grid)
            assert len(roots) == 1
            assert abs(roots[0].coords["S"] - s_ext) <= 1e-9 * s_ext
        fit = analysis.fit_divergence_exponent(
            f, (PI, 1.0), (-1.0, 0.0), analysis.geometric_offsets(PI * 2.0**-4, 13)
        )
        assert fit.diverges
        assert fit.exponent == pytest.approx(2.0, abs=0.05)


def test_criterion_07_kerr_flatness():
    with criterion(7, "Kerr: |R| <= 1e-8 at all nondegenerate points of a 30x30 grid"):
        f = HessianMetricField(builtin("kerr"))
        grid = GridSpec.build(f.coordinates, {"S": Axis(PI, 30.0, 30), "J": Axis(0.05, 2.0, 30)})
        report = analysis.grid_scan(f, grid, "curvature")
        ok = np.array([s == analysis.STATUS_OK for s in report.status])
        assert ok.any()
        assert float(np.max(np.abs(report.values[ok]))) <= 1e-8


def test_criterion_08_vdw_stability_correspondence():
    with criterion(8, "every vdW det-g root satisfies |P V^3 - a V + 2 a b| <= 1e-6"):
        for a in (0.5, 1.0, 2.0):
            for b in (0.0, 0.05, 0.1):
                spec = builtin("vdw", a=a, b=b)
                f = HessianMetricField(spec)
                # S-lines bracketing the spinodal crossing at V = 1
                s0 = 1.5 * math.log(3 * a * (1 - b) ** (8 / 3))
                found = 0
                for s in (s0 - 0.3, s0, s0 + 0.3):
                    grid = GridSpec.build(
                        f.coordinates, {"S": s, "V": Axis(max(4 * b, 0.25), 3.0, 80)}
                    )
                    for root in analysis.find_singular_locus(f, grid):
                        point = (root.coords["S"], root.coords["V"])
                        assert abs(fundeq.stability_residual_vdw(spec, point)) <= 1e-6
                        found += 1
                assert found > 0, f"no spinodal roots found for a={a}, b={b}"


def test_criterion_09_total_legendre_invariance():
    with criterion(9, "total Legendre invariance of G: residual <= 1e-9, identity exact"):
        rng = np.random.default_rng(109)
        for n in (1, 2, 3):
            total = phase_space.LegendreMap.total(n)
            identity = phase_space.LegendreMap.identity(n)
            for _ in range(100):
                point = phase_space.PhasePoint.from_coords(rng.uniform(-2.0, 2.0, 2 * n + 1))
                assert phase_space.legendre_invariance_residual(total, point) <= 1e-9
                assert phase_space.legendre_invariance_residual(identity, point) == 0.0


def test_criterion_10_thermodynamic_identities():
    with criterion(10, "first law, Euler, Gibbs-Duhem, and contact volume"):
        rng = np.random.default_rng(110)
        # first law on lifted points, all built-in systems
        for name in fundeq.BUILTIN_NAMES:
            spec = builtin(name)
            box = SAMPLING_BOXES.get(name, SAMPLING_BOXES["vdw"])
            for _ in range(10):
                point = [rng.uniform(*box[v]) for v in spec.variables]
                direction = rng.normal(size=spec.dim)
                resid = phase_space.theta_residual(spec, point, direction)
                assert abs(resid) <= 1e-12 * max(1.0, float(np.linalg.norm(direction)))
        # Euler and Gibbs-Duhem: quadratic product potential and weighted Kerr-Newman
        product = fundeq.SystemSpec(
            name="product", variables=("E1", "E2"), potential=parse("E1*E2")
        )
        kn = builtin("kerr_newman")
        for _ in range(20):
            p2 = rng.uniform(-2.0, 2.0, 2)
            v2 = rng.normal(size=2)
            assert abs(phase_space.euler_residual(product, p2, (1, 1), 2.0)) <= 1e-10
            assert abs(phase_space.gibbs_duhem_residual(product, p2, v2, (1, 1), 2.0)) <= 1e-10
            p3 = [rng.uniform(*SAMPLING_BOXES["kerr_newman"][v]) for v in kn.variables]
            v3 = rng.normal(size=3)
            assert abs(phase_space.euler_residual(kn, p3, (1, 1, 0.5), 0.5)) <= 1e-10
            assert abs(phase_space.gibbs_duhem_residual(kn, p3, v3, (1, 1, 0.5), 0.5)) <= 1e-10
        # contact volume coefficient
        for n in (1, 2, 3):
            expected = phase_space.contact_volume_expected(n)
            assert abs(expected) == math.factorial(n)
            for _ in range(5):
                point = phase_space.PhasePoint.from_coords(rng.uniform(-2.0, 2.0, 2 * n + 1))
                coeff = phase_space.contact_volume_coefficient(point)
                assert coeff == pytest.approx(expected, abs=1e-12)


def test_criterion_11_jets_and_parser():
    with criterion(11, "jet identities to 1e-10 and parser round-trip on the corpus"):
        rng = np.random.default_rng(111)
        table, _ = jets._index_table(2, 4)
        for _ in range(50):
            a = jets.Jet(2, 4, rng.uniform(-2, 2, len(table)))
            b = jets.Jet(2, 4, rng.uniform(-2, 2, len(table)))
            prod = a * b
            for alpha in ((1, 0), (0, 1)):
                lhs = jets.extract_partial(prod, alpha)
                rhs = a.value * jets.extract_partial(b, alpha) + b.value * jets.extract_partial(
                    a, alpha
                )
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
            pos = a + (3.0 - a.value)  # shift constant term to 3
            back = jets.exp(jets.ln(pos))
            assert np.allclose(back.coeffs, pos.coeffs, rtol=1e-10, atol=1e-10)
        x0, y0 = 0.4, 1.2
        x, y = jets.seed_point((x0, y0), order=4)
        fjet = jets.exp(x) * y * y * y
        for i in range(5):
            for j in range(5 - i):
                want = math.exp(x0) * {0: y0**3, 1: 3 * y0**2, 2: 6 * y0, 3: 6.0}.get(j, 0.0)
                assert jets.extract_partial(fjet, (i, j)) == pytest.approx(
                    want, rel=1e-10, abs=1e-10
                )
        assert len(CORPUS) >= 30
        assert VDW_SOURCE in CORPUS and KN_SOURCE in CORPUS
        for source in CORPUS:
            tree = parse(source)
            assert parse(to_source(tree)) == tree


def test_criterion_12_vdw_divergence_near_stability_root():
    with criterion(12, "|R_vdW| exceeds 1e6 within 1e-4 of a detected stability root"):
        spec = builtin("vdw", a=1.0, b=0.1)
        f = HessianMetricField(spec)
        grid = GridSpec.build(f.coordinates, {"S": 0.9, "V": Axis(0.3, 3.0, 80)})
        roots = analysis.find_singular_locus(f, grid)
        assert roots
        for root in roots:
            s, v = root.coords["S"], root.coords["V"]
            nearby = max(
                abs(geometry.scalar_curvature(f, (s, v + dv)).scalar) for dv in (1e-4, -1e-4)
            )
            assert nearby > 1e6
