"""The three gtdkit CLI workloads: inputs from a seed, and output checks.

Each workload is one `gtdkit scan` invocation plus one `gtdkit eval`
invocation, both run with the user's default `--workers` (the flag is left
out on purpose, so retiring it later shows as a gain instead of breaking the
workload). The seed jitters every ranged grid endpoint by at most 0.02 of a
grid step and picks the oracle sample points; every expected count is derived
from the generated grid, never written down.

The checkers take the generated inputs and the program's outputs (report file
and captured stdout) and return a list of failure messages, empty when the
output is correct. They run outside the timed region.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

# Largest endpoint shift, as a share of one grid step. The vdW root count, and
# with it the work, varied between seeds from 25 to 64 at 0.4 step, from 41 to
# 50 at 0.1 step, and from 44 to 45 at 0.01 step.
JITTER = 0.02
REL_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    quantity: str
    report_format: str
    ranges: tuple[tuple[str, float, float, int], ...]
    pins: tuple[tuple[str, float], ...]
    eval_point: tuple[tuple[str, float], ...]
    fit: tuple[str, ...] = ()


@dataclass(frozen=True)
class Inputs:
    """One seed's concrete inputs for a workload."""

    workload: Workload
    axes: dict[str, np.ndarray]  # coordinate -> grid values, declaration order
    scan_args: list[str]
    eval_args: list[str]
    setup_args: list[str]  # eval of the workload quantity at the first in-domain grid point
    oracle_rows: list[int]  # grid rows checked against kn_closed

    def points(self) -> np.ndarray:
        return _grid_points(self.axes)


def _grid_points(axes: dict[str, np.ndarray]) -> np.ndarray:
    """Grid points row-major, first coordinate slowest, as gtdkit enumerates them."""
    mesh = np.meshgrid(*axes.values(), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rn_detg_roots",
            system="reissner_nordstrom",
            quantity="detg",
            report_format="csv",
            ranges=(("S", 0.5, 10.0, 100), ("Q", 0.2, 1.6, 15)),
            pins=(),
            eval_point=(("S", 6.28), ("Q", 1.0)),
        ),
        Workload(
            name="kn_curvature",
            system="kerr_newman",
            quantity="curvature",
            report_format="json",
            ranges=(("S", 1.0, 10.0, 30), ("J", 0.1, 1.5, 30)),
            pins=(("Q", 0.8),),
            eval_point=(("S", 5.0), ("J", 0.5), ("Q", 0.8)),
        ),
        Workload(
            name="vdw_closed_fit",
            system="vdw_closed",
            quantity="curvature",
            report_format="json",
            ranges=(("S", 0.7, 1.1, 3), ("V", 0.02, 3.0, 100)),
            pins=(),
            eval_point=(("S", 0.9), ("V", 1.0)),
            fit=(
                "--fit-center",
                "S=0.9,V=0.3759016543893325",
                "--fit-direction",
                "V=1",
                "--fit-offsets",
                "0.05:12",
            ),
        ),
    )
}

VDW_B = 0.1  # vdw_closed default covolume; points with V <= b are outside the domain


def _assign(pairs) -> str:
    return ",".join(f"{k}={v!r}" for k, v in pairs)


def generate(w: Workload, seed: int, report_path: str) -> Inputs:
    """Concrete inputs for one seed; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    axes: dict[str, np.ndarray] = {}
    scan = ["scan", "--system", w.system]
    for name, start, stop, count in w.ranges:
        step = (stop - start) / (count - 1)
        start += float(rng.uniform(-JITTER, JITTER)) * step
        stop += float(rng.uniform(-JITTER, JITTER)) * step
        axes[name] = np.linspace(start, stop, count)
        scan += ["--range", f"{name}={start!r}:{stop!r}:{count}"]
    for name, value in w.pins:
        axes[name] = np.array([value])
        scan += ["--pin", f"{name}={value!r}"]
    scan += ["--quantity", w.quantity, *w.fit, "--format", w.report_format, "--output", report_path]
    eval_args = ["eval", "--system", w.system, "--point", _assign(w.eval_point), "--quantity", "all"]
    points = _grid_points(axes)
    outside = _outside_domain(w, points)
    first = next(i for i in range(len(points)) if i not in outside)
    setup_args = ["eval", "--system", w.system, "--point", _assign(zip(axes, map(float, points[first])))]
    setup_args += ["--quantity", w.quantity]
    oracle_rows = []
    if w.name == "kn_curvature":
        oracle_rows = sorted(rng.choice(len(points), size=12, replace=False).tolist())
    return Inputs(w, axes, scan, eval_args, setup_args, oracle_rows)


def _outside_domain(w: Workload, points: np.ndarray) -> set[int]:
    """Rows gtdkit must mark `domain-error`."""
    if w.system != "vdw_closed":
        return set()
    return {i for i, p in enumerate(points) if p[1] <= VDW_B}


# -- oracles -------------------------------------------------------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def curvature(field_, point) -> tuple[float, float]:
    """det g and the curvature scalar R, contracted here and not by gtdkit.geometry.

    Only the metric jets come from gtdkit, so a fault in its curvature
    contraction cannot cancel out of a comparison. Conventions as in
    gtdkit.geometry: R^a_bcd = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db -
    G^a_de G^e_cb, Ricci_bd = R^a_bad, R = g^bd Ricci_bd.
    """
    from gtdkit import jets

    n = field_.dim
    gjets = field_.component_jets(point, gorder=2)
    r = range(n)

    def partial(a, b, *wrt):
        alpha = [0] * n
        for i in wrt:
            alpha[i] += 1
        return jets.extract_partial(gjets[a][b], tuple(alpha))

    g = np.array([[partial(a, b) for b in r] for a in r])
    dg = [[[partial(a, b, c) for b in r] for a in r] for c in r]  # dg[c][a][b] = d_c g_ab
    d2g = [[[[partial(a, b, c, e) for b in r] for a in r] for e in r] for c in r]
    gi = np.linalg.inv(g)
    dgi = [[[-sum(gi[a][x] * dg[e][x][y] * gi[y][d] for x in r for y in r) for d in r] for a in r] for e in r]

    def christoffel(a, b, c):
        return 0.5 * sum(gi[a][d] * (dg[b][d][c] + dg[c][d][b] - dg[d][b][c]) for d in r)

    def d_christoffel(e, a, b, c):
        return 0.5 * sum(
            dgi[e][a][d] * (dg[b][d][c] + dg[c][d][b] - dg[d][b][c])
            + gi[a][d] * (d2g[e][b][d][c] + d2g[e][c][d][b] - d2g[e][d][b][c])
            for d in r
        )

    gam = [[[christoffel(a, b, c) for c in r] for b in r] for a in r]

    def riemann(a, b, c, d):
        return (
            d_christoffel(c, a, d, b)
            - d_christoffel(d, a, c, b)
            + sum(gam[a][c][e] * gam[e][d][b] - gam[a][d][e] * gam[e][c][b] for e in r)
        )

    ricci = [[sum(riemann(a, b, a, d) for a in r) for d in r] for b in r]
    return float(np.linalg.det(g)), float(sum(gi[b][d] * ricci[b][d] for b in r for d in r))


def eval_oracle(w: Workload) -> dict[str, float]:
    """Expected `eval --quantity all` values, each from an independent code path.

    The Hessian systems are checked against their closed-form (direct) metrics
    and the closed-form mass; the closed-form vdW metric against the Hessian
    metric of the built-in vdw system. The curvature is contracted by
    `curvature` above.
    """
    from gtdkit import fundeq, geometry

    point = [v for _, v in w.eval_point]
    if w.system == "vdw_closed":
        field_ = geometry.HessianMetricField(fundeq.builtin("vdw"))
        expected = {}
    else:
        oracle = {"reissner_nordstrom": "rn_closed", "kerr_newman": "kn_closed"}[w.system]
        field_ = geometry.closed_form_metric(oracle)
        env = dict(w.eval_point)
        S, Q, J = env["S"], env["Q"], env.get("J", 0.0)
        m2 = math.pi * J * J / S + (S / (4 * math.pi)) * (1 + math.pi * Q * Q / S) ** 2
        expected = {"potential": math.sqrt(m2)}
    expected["det_g"], expected["curvature"] = curvature(field_, point)
    return expected


_LINE = re.compile(r"^(\S+) = (\S+)$")


def check_eval(stdout: str, expected: dict[str, float]) -> list[str]:
    got = {}
    for line in stdout.splitlines():
        m = _LINE.match(line.strip())
        if m:
            got[m.group(1)] = float(m.group(2))
    errors = []
    for key, want in expected.items():
        if key not in got:
            errors.append(f"eval printed no {key!r}")
        elif not _rel(got[key], want) <= REL_TOL:
            errors.append(f"eval {key} = {got[key]!r}, oracle {want!r}")
    return errors


# -- scan checks ---------------------------------------------------------------------

_ROOT = re.compile(r"^root: (.*?)  det_g = (\S+)(?: \[(\S+)\])?$")


def _stdout_roots(stdout: str) -> list[tuple[dict[str, float], str | None]]:
    roots = []
    for line in stdout.splitlines():
        m = _ROOT.match(line)
        if m:
            coords = dict((k, float(v)) for k, v in (c.split("=") for c in m.group(1).split(", ")))
            roots.append((coords, m.group(3)))
    return roots


def _crossings(values: np.ndarray) -> int:
    """Adjacent grid pairs whose values have strictly opposite signs."""
    s = np.sign(values)
    return int(np.sum(s[:-1] * s[1:] < 0))


def check_scan(inputs: Inputs, stdout: str, report_text: str) -> list[str]:
    w = inputs.workload
    npoints = len(inputs.points())
    if w.report_format == "csv":
        lines = report_text.splitlines()
        header = lines[0].split(",")
        status = [line.split(",")[header.index("status")] for line in lines[1:]]
        roots = _stdout_roots(stdout)
        report = None
    else:
        report = json.loads(report_text)
        status = report["values"]["status"]
        roots = [(r["coords"], r["category"]) for r in report["singular_points"]]
    errors = []
    if len(status) != npoints:
        return [f"report has {len(status)} rows, grid has {npoints} points"]
    marked = {i for i, s in enumerate(status) if s == "domain-error"}
    if marked != _outside_domain(w, inputs.points()):
        errors.append(f"domain-error rows {sorted(marked)[:5]}... differ from the V <= b points")
    check = {
        "rn_detg_roots": _check_rn,
        "kn_curvature": _check_kn,
        "vdw_closed_fit": _check_vdw,
    }[w.name]
    return errors + check(inputs, status, roots, report)


def _check_rn(inputs, status, roots, report) -> list[str]:
    errors = []
    if any(s != "ok" for s in status):
        errors.append("det g scan marked points on a regular RN grid")
    S, Q = inputs.axes["S"], inputs.axes["Q"]
    expected = sum(_crossings(S - math.pi * q * q) for q in Q)
    expected += sum(_crossings(s - math.pi * Q * Q) for s in S)
    if len(roots) != expected:
        errors.append(f"{len(roots)} roots, grid lines crossing S = pi Q^2: {expected}")
    for coords, category in roots:
        s, q = coords["S"], coords["Q"]
        if category != "hessian-zero" or abs(s - math.pi * q * q) > 1e-9 * s:
            errors.append(f"root {coords} [{category}] is not on S = pi Q^2")
    return errors


def _check_kn(inputs, status, roots, report) -> list[str]:
    from gtdkit import geometry

    errors = []
    oracle = geometry.closed_form_metric("kn_closed")
    points = inputs.points()
    rows = report["values"]["rows"]
    checked = 0
    for i in inputs.oracle_rows:
        if status[i] != "ok":
            continue
        want = curvature(oracle, points[i])[1]
        if not _rel(rows[i][0], want) <= REL_TOL:
            errors.append(f"R at {points[i].tolist()} = {rows[i][0]!r}, kn_closed {want!r}")
        checked += 1
    if checked < 10:
        errors.append(f"only {checked} oracle points were ok")
    if not roots:
        errors.append("no det-g roots found")
    errors += [f"root {c} is {cat}, not hessian-zero" for c, cat in roots if cat != "hessian-zero"]
    return errors


def _check_vdw(inputs, status, roots, report) -> list[str]:
    from gtdkit import fundeq

    errors = []
    spec = fundeq.builtin("vdw")
    if not roots:
        errors.append("no det-g roots found")
    for coords, _ in roots:
        residual = fundeq.stability_residual_vdw(spec, (coords["S"], coords["V"]))
        if not abs(residual) <= 1e-6:
            errors.append(f"root {coords} has stability residual {residual:.3e}")
    fits = report["fits"]
    if len(fits) != 1:
        return errors + [f"{len(fits)} fits reported, expected 1"]
    fit = fits[0]
    if not (fit["diverges"] and 1.9 <= fit["exponent"] <= 2.1 and abs(fit["correlation"]) >= 0.999):
        errors.append(f"fit {fit} is outside exponent [1.9, 2.1] or |correlation| >= 0.999")
    return errors
