"""Grid scans, singular-locus detection, and divergence-exponent fits.

Scans walk a cartesian grid over the metric field's coordinates, recording
one of: curvature scalar, metric determinant, potential value, or the
intensive variables. Points where the metric degenerates or the field leaves
its domain are marked, never fatal. Root finding watches det g for sign
changes along coordinate lines and refines each bracket by ITP root refinement,
with Chandrupatla's interpolation inside ITP's projection window: every active
bracket takes its step in one det-g batch, and a bracket that stops leaves the
batch. Divergence exponents come from a log-log fit of |R| against the distance
to an approach point; a fit none of whose samples could be evaluated is an
error, not a missing divergence.

A batch of the scan, root refinement, root classification or fit holds at most
as many points as fit CHUNK_BYTES in the widest array it allocates afresh
(`_batch_rows`); the gathers of its jet products reuse buffers each thread
keeps, and are not counted. Reports are deterministic: the grid is enumerated
row-major in coordinate order, and a point's result is bit-identical whatever
batch it is in, so it does not depend on the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import fundeq, geometry, jets
from .errors import DegenerateMetricError, DomainError
from .geometry import (  # the point statuses and quantities are re-exported for scan reports
    QUANTITIES,
    STATUS_DEGENERATE,
    STATUS_DOMAIN_ERROR,
    STATUS_OK,
    HessianMetricField,
    MetricField,
    MetricKind,
)

GRID_CAP = 10**6
ROOT_TOL_FACTOR = 1e-12
NOISE_FLOOR = 1e-8
# The one bound on a batch, in bytes of the widest array it allocates afresh: wide
# batches spread the jet engine's Python overhead, and under glibc's 128 KiB mmap
# threshold such an array is not mapped and faulted in afresh. A jet product's
# gathers are not counted: they go to buffers each thread keeps (`jets._gathers`),
# and a tape lets each value go after its last use. KN curvature reads 27
# third partials a point, so at most 455 points a batch; RN det g's order-2
# jets have 6 coefficients, so 2,048.
CHUNK_BYTES = 96 * 1024
# the jet order each quantity is evaluated at: (Hessian field, direct field)
_JET_ORDERS = {"curvature": (3, 2), "detg": (2, 0), "potential": (0, 0), "intensive": (1, 1)}
# ITP root refinement: the first trial point moves ITP_KAPPA1 * width off regula
# falsi towards the midpoint, and a bracket takes at most ITP_N0 steps more than
# bisection.
ITP_KAPPA1 = 0.2
ITP_N0 = 1

_QUANTITY_ALIASES = {"scalar_curvature": "curvature", "det_g": "detg"}


@dataclass(frozen=True)
class Axis:
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("axis count must be >= 1")
        if self.count > 1 and not self.start < self.stop:
            raise ValueError(f"axis needs start < stop, got [{self.start}, {self.stop}]")
        # stop - start is finite only if both ends are, and linspace needs it finite
        if self.count > 1 and not math.isfinite(self.stop - self.start):
            raise ValueError(
                f"axis needs finite ends a finite distance apart, got [{self.start}, {self.stop}]"
            )

    def values(self) -> np.ndarray:
        # not linspace for one point: start + 0 * (stop - start) is NaN for an infinite stop
        return np.linspace(self.start, self.stop, self.count) if self.count > 1 else np.array([self.start])


@dataclass(frozen=True)
class GridSpec:
    """Per-coordinate ranges or pinned values, in field coordinate order."""

    axes: tuple[tuple[str, Union[Axis, float]], ...]

    @classmethod
    def build(cls, field_coords: Sequence[str], spec: Mapping[str, Union[Axis, float]]) -> "GridSpec":
        missing = [c for c in field_coords if c not in spec]
        if missing:
            raise ValueError(f"grid must cover every coordinate; missing {missing}")
        extra = set(spec) - set(field_coords)
        if extra:
            raise ValueError(f"grid names unknown coordinates {sorted(extra)}")
        return cls(tuple((c, spec[c]) for c in field_coords))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def axis_values(self) -> list[np.ndarray]:
        return [ax.values() if isinstance(ax, Axis) else np.array([float(ax)]) for _, ax in self.axes]

    @property
    def shape(self) -> tuple[int, ...]:
        # from the counts, so a grid above the cap allocates nothing before `points` refuses it
        return tuple(ax.count if isinstance(ax, Axis) else 1 for _, ax in self.axes)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def points(self) -> np.ndarray:
        """All grid points, row-major (first coordinate slowest), at most GRID_CAP of them."""
        if self.size > GRID_CAP:
            raise ValueError(f"grid of {self.size} points exceeds cap of {GRID_CAP}")
        mesh = np.meshgrid(*self.axis_values(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def describe(self) -> dict:
        return {
            name: dict(vars(ax)) if isinstance(ax, Axis) else {"pin": float(ax)}
            for name, ax in self.axes
        }


@dataclass(frozen=True)
class SingularPoint:
    """A refined det-g sign change on a scan line.

    `category` is one of four. `pole`: |det g| does not shrink towards the
    refined point, so det g changes sign through a pole, not a root. For a
    Hessian-based field, `potential-zero` or `hessian-zero`: a zero of the
    potential prefactor (det g = Phi^n det Hess for the natural kind) or of
    the Hessian factor, which alone marks stability limits. None otherwise.
    """

    coords: dict[str, float]
    det_g: float
    category: str | None = None


@dataclass(frozen=True)
class DivergenceFit:
    """Result of a log-log fit of |value| against approach distance.

    `diverges` is False, with exponent, intercept and correlation 0, when no
    sample is above the noise floor (`samples` is 0) or when every kept
    sample has the same value, which has no slope to fit.
    """

    exponent: float
    intercept: float
    correlation: float
    samples: int
    diverges: bool


@dataclass
class ScanReport:
    grid: GridSpec
    quantity: str
    columns: tuple[str, ...]
    values: np.ndarray  # (npoints, ncols), NaN where status != ok
    status: list[str]
    # det g per point when the quantity computes it (NaN where domain-error),
    # reused by find_singular_locus
    det_g: np.ndarray | None = None


def _quantity_columns(f: MetricField, quantity: str) -> tuple[str, ...]:
    """Report columns of `quantity` (aliases resolved); raises if `f` cannot give it."""
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}; choose from {QUANTITIES}")
    if quantity in ("potential", "intensive") and not isinstance(f, HessianMetricField):
        raise ValueError(f"{quantity!r} needs a fundamental-equation system, not a direct metric")
    if quantity == "intensive":
        return tuple(f"I_{v}" for v in f.spec.variables)
    return ({"curvature": "R", "detg": "det_g"}.get(quantity, quantity),)


def _quantity_batch(f: MetricField, quantity: str, points: np.ndarray):
    """Values (B, ncols), statuses and det g (None unless computed) of a checked quantity."""
    if quantity == "curvature":
        report = geometry.scalar_curvature(f, points)
        return report.scalar[:, None], report.status, report.det_g
    if quantity == "detg":
        det, status = geometry.metric_determinant(f, points)
        return det[:, None], status, det
    jet = fundeq.evaluate(f.spec, points, order=0 if quantity == "potential" else 1)
    values = jet.value[:, None] if quantity == "potential" else jet.gradient.T
    return values, geometry.statuses(jet.failed), None


def _batch_rows(f: MetricField, quantity: str) -> int:
    """Most points a batch of `quantity` on `f`: CHUNK_BYTES over the widest array it allocates
    afresh per point, a jet's coefficients, the Hessian path's n^k partials or a direct
    field's (ncoef, n, n) stack or (n, n, n, n) tensors."""
    direct = isinstance(f, geometry.DirectMetricField)
    order, n = _JET_ORDERS[quantity][direct], f.dim
    width = jets._size(n, order)
    if direct:
        width = max(width * n * n, n**4 if quantity == "curvature" else 0)
    else:
        width = max(width, n**order)
    return max(1, CHUNK_BYTES // (8 * width))


def _chunks(f: MetricField, points: np.ndarray, quantity: str) -> list[np.ndarray]:
    # as few batches as the bound allows, all of one size to a point
    count = -(-len(points) // _batch_rows(f, quantity))
    return [points[i * len(points) // count : (i + 1) * len(points) // count] for i in range(count)]


def grid_scan(f: MetricField, grid: GridSpec, quantity: str = "curvature") -> ScanReport:
    """Evaluate `quantity` at every grid point, marking bad points."""
    name = _QUANTITY_ALIASES.get(quantity, quantity)
    columns = _quantity_columns(f, name)
    values, status, dets = zip(*(_quantity_batch(f, name, c) for c in _chunks(f, grid.points(), name)))
    return ScanReport(
        grid=grid,
        quantity=quantity,
        columns=columns,
        values=np.concatenate(values),
        status=[s for batch in status for s in batch],
        det_g=None if dets[0] is None else np.concatenate(dets),
    )


# -- singular locus ----------------------------------------------------------------


def _determinants(f: MetricField, points: np.ndarray) -> np.ndarray:
    """det g at every point, chunked; NaN outside the domain."""
    return np.concatenate([geometry.metric_determinant(f, c)[0] for c in _chunks(f, points, "detg")])


def _itp_project(
    lo: np.ndarray, hi: np.ndarray, trial: np.ndarray, target: np.ndarray, steps_left: np.ndarray
) -> np.ndarray:
    """ITP's projection: each trial moved into the window of radius target / 2 * 2^steps_left
    - width / 2 around its midpoint, which keeps the bracket narrower than target after the
    steps left to it whatever the trial; the midpoint unless that is finite and strictly inside."""
    mid = 0.5 * (lo + hi)
    radius = 0.5 * (np.ldexp(target, steps_left) - (hi - lo))
    trial = np.where(np.abs(trial - mid) <= radius, trial, mid - np.sign(mid - trial) * radius)
    inside = np.isfinite(trial) & (trial > lo) & (trial < hi)
    return np.where(inside, trial, mid)


def _refine_roots(
    f: MetricField,
    base: np.ndarray,
    axis: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    flo: np.ndarray,
    fhi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Refine det g = 0 on all brackets at once by ITP, one batch per step.

    Bracket k runs along coordinate axis[k] through base[k] from lo[k] to hi[k], with
    det g = flo[k] at lo[k] and fhi[k] at hi[k]. ITP (Oliveira & Takahashi, ACM TOMS
    47(1), 2020) keeps the bracket and takes at most ceil(log2(width / tol)) + ITP_N0
    steps. Its first trial is regula falsi moved ITP_KAPPA1 * width towards the
    midpoint, later ones Chandrupatla's inverse quadratic interpolation (Adv. Eng.
    Software 28(3), 1997) through both ends and the point the last step discarded;
    `_itp_project` projects each. A bracket stops when its width is <= tol, when the
    midpoint no longer splits it, or at a trial point with det g == 0 exactly, which
    becomes both ends; its root is then the midpoint. A bracket whose trial point
    leaves the domain is dropped. The arithmetic is elementwise and a step works on the
    active brackets alone, so a root does not depend on the others in the batch.
    Returns the roots and the mask of brackets that kept them.
    """
    roots = 0.5 * (lo + hi)
    scale = np.maximum(np.abs(lo), np.abs(hi))
    tol = ROOT_TOL_FACTOR * np.maximum(1.0, scale)
    # the projection aims a few ulps inside tol: the rounded midpoints of the
    # last steps could otherwise leave a bracket one ulp wider than tol
    target = tol - 4.0 * np.spacing(scale)
    kept = np.ones(len(lo), dtype=bool)
    # ceil(log2(width0 / tol)) from the exact binary exponent, plus ITP_N0
    mantissa, exponent = np.frexp((hi - lo) / tol)
    max_steps = exponent - (mantissa == 0.5) + ITP_N0
    # the active brackets: their places idx, and their fields compacted, one entry each;
    # a is the newest end, b the other, c the point the last step discarded
    idx = np.flatnonzero(hi - lo > tol)
    state = [v[idx] for v in (lo, hi, lo, flo, fhi, flo, tol, target, max_steps, base, axis)]
    step = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while len(idx):
            a, b, c, fa, fb, fc, t, aim, steps, points, ax = state
            left, right, mid = np.minimum(a, b), np.maximum(a, b), 0.5 * (a + b)
            # a bracket the midpoint no longer splits stops before the step
            stay = (mid > left) & (mid < right)
            if stay.all():
                if step == 0:
                    x = a + (b - a) * (fa / (fa - fb))
                    delta = ITP_KAPPA1 * (b - a)
                    x = np.where(delta <= np.abs(mid - x), x + np.sign(mid - x) * delta, mid)
                else:
                    # the inverse quadratic fraction where Chandrupatla's test allows it, else bisection
                    xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
                    s = fa / (fb - fa) * fc / (fb - fc)
                    s += (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
                    s = np.where((phi**2 < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & ~np.isnan(s), s, 0.5)
                    # a closing step lands tol / 2 inside an end
                    edge = 0.5 * t / np.abs(b - a)
                    x = a + np.clip(s, edge, 1.0 - edge) * (b - a)
                x = _itp_project(left, right, x, aim, steps - step)
                points[np.arange(len(x)), ax] = x
                fx = _determinants(f, points)
                failed, zero = np.isnan(fx), fx == 0.0
                kept[idx[failed]] = False
                moved = ~(failed | zero)
                # the root lies between a and x: c takes b, b takes a; else c takes a
                flip = moved & ((fa < 0.0) != (fx < 0.0))
                c, fc = np.where(flip, b, a), np.where(flip, fb, fa)
                b, fb = np.where(zero, x, np.where(flip, a, b)), np.where(flip, fa, fb)
                a, fa = np.where(failed, a, x), np.where(failed, fa, fx)
                state[:6] = a, b, c, fa, fb, fc
                stay = moved & (np.abs(b - a) > t)
                step += 1
            if not stay.all():
                roots[idx[~stay]] = 0.5 * (a[~stay] + b[~stay])
                idx, state = idx[stay], [v[stay] for v in state]
    return roots, kept


def _residuals(f: MetricField, points: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
    """det g at the refined roots, chunked, and each root's category.

    For the natural kind the smaller factor of det g = Phi^n det Hess names
    the zero (see `geometry.determinant_factors`).
    """
    if not isinstance(f, HessianMetricField):
        return _determinants(f, points), [None] * len(points)
    if f.kind is not MetricKind.NATURAL:
        # only the natural metric factors as det g = Phi^n det Hess
        return _determinants(f, points), ["hessian-zero"] * len(points)
    dets, categories = [], []
    for chunk in _chunks(f, points, "detg"):
        det, potential, det_hess = geometry.determinant_factors(f, chunk)
        potential_zero = np.abs(potential) ** f.dim <= np.abs(det_hess)
        dets.append(det)
        categories += ["potential-zero" if z else "hessian-zero" for z in potential_zero]
    return np.concatenate(dets), categories


def _sign_change(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Where x and y are nonzero numbers of opposite sign."""
    return ((x < 0.0) & (y > 0.0)) | ((x > 0.0) & (y < 0.0))


def find_singular_locus(
    f: MetricField, grid: GridSpec, det_g: np.ndarray | None = None
) -> list[SingularPoint]:
    """Refine det g = 0 along every coordinate line of the grid.

    `det_g` holds det g at every grid point in `grid.points()` order (NaN
    outside the domain), as `grid_scan` reports it; it is computed when not
    given. A step between nonzero det g of opposite sign is refined; a grid point whose
    det g is exactly +-0 between such neighbours is a root at that point. Roots come out
    ordered by axis, then line, then position.
    """
    points = grid.points()
    if det_g is None:
        det_g = _determinants(f, points)
    shape = grid.shape
    dim = len(shape)
    dets = det_g.reshape(shape)
    grid_points = points.reshape(shape + (dim,))
    base, axes, lo, hi, flo, fhi = [], [], [], [], [], []
    for axis in range(dim):
        if shape[axis] < 2:
            continue
        line_dets = np.moveaxis(dets, axis, -1).reshape(-1, shape[axis])
        line_points = np.moveaxis(grid_points, axis, -2).reshape(-1, shape[axis], dim)
        # slot 2k is grid point k, slot 2k + 1 the step from k to k + 1: a step whose ends
        # are nonzero and of opposite sign brackets a root, and an inner point whose det g
        # is exactly +-0 between such neighbours is a root itself, its own bracket
        slots = np.zeros((len(line_dets), 2 * shape[axis] - 1), dtype=bool)
        slots[:, 1::2] = _sign_change(line_dets[:, :-1], line_dets[:, 1:])
        zero = line_dets[:, 1:-1] == 0.0
        slots[:, 2:-1:2] = zero & _sign_change(line_dets[:, :-2], line_dets[:, 2:])
        line, slot = np.nonzero(slots)
        k, end = slot // 2, (slot + 1) // 2
        base.append(line_points[line, k])
        axes.append(np.full(len(k), axis))
        lo.append(line_points[line, k, axis])
        hi.append(line_points[line, end, axis])
        # a zero's neighbours, so that its residual 0 is never a pole
        flo.append(line_dets[line, (slot - 1) // 2])
        fhi.append(line_dets[line, slot // 2 + 1])
    if sum(map(len, base)) == 0:
        return []
    base, axes, lo, hi, flo, fhi = map(np.concatenate, (base, axes, lo, hi, flo, fhi))
    roots, kept = _refine_roots(f, base, axes, lo, hi, flo, fhi)
    points = base.copy()
    points[np.arange(len(roots)), axes] = roots
    residual, categories = _residuals(f, points)
    kept &= ~np.isnan(residual)
    points, residual = points[kept], residual[kept]
    categories = np.array(categories, dtype=object)[kept]
    # a pole: |det g| at the refined point is no smaller than at the bracket ends
    pole = ~(np.abs(residual) < np.minimum(np.abs(flo[kept]), np.abs(fhi[kept])))
    categories[pole] = "pole"
    names = grid.names
    return [
        SingularPoint(coords=dict(zip(names, map(float, p))), det_g=float(d), category=c)
        for p, d, c in zip(points, residual, categories)
    ]


# -- divergence exponents ------------------------------------------------------------


def geometric_offsets(base: float, count: int, factor: float = 0.5) -> np.ndarray:
    """Offsets base * factor^m for m = 0..count-1 (log-uniform spacing)."""
    return base * factor ** np.arange(count)


def fit_power_law(
    sample: Callable[[np.ndarray], float],
    center: Sequence[float],
    direction: Sequence[float],
    offsets: Sequence[float],
) -> DivergenceFit:
    """Least-squares slope of log|sample| against log(offset).

    Samples at the rows of `fit_points`, which checks them; values below the
    noise floor (and failed evaluations) are dropped, and ValueError is
    raised when every evaluation failed. The reported exponent is the
    negated slope, so 1/x**2 fits to 2.0.
    """
    values = []
    for point in fit_points(center, direction, offsets):
        try:
            values.append(float(sample(point)))
        except (DomainError, DegenerateMetricError):
            values.append(None)
    return _fit(offsets, values)


def _fit(offsets: Sequence[float], values: Sequence[float | None]) -> DivergenceFit:
    """The log-log fit of `fit_power_law` on sampled values (None for a failed sample).

    A fit whose every sample failed raises ValueError naming their offsets.
    """
    if all(v is None for v in values):
        raise ValueError(
            "every fit sample failed (outside the domain or a degenerate metric), at offsets "
            + ", ".join(f"{t:g}" for t in offsets)
        )
    logs_x, logs_y = [], []
    for t, v in zip(offsets, values):
        if v is None:
            continue
        value = abs(v)
        if not math.isfinite(value) or value <= NOISE_FLOOR:
            continue
        logs_x.append(math.log(t))
        logs_y.append(math.log(value))
    if len(logs_x) < 4 and not all(v is None or abs(v) <= NOISE_FLOOR for v in values):
        raise ValueError(f"only {len(logs_x)} valid samples; need at least 4")
    if len(logs_x) < 4 or len(set(logs_y)) == 1:
        return DivergenceFit(
            exponent=0.0, intercept=0.0, correlation=0.0, samples=len(logs_x), diverges=False
        )
    x = np.array(logs_x)
    y = np.array(logs_y)
    slope, intercept = np.polyfit(x, y, 1)
    corr = float(np.corrcoef(x, y)[0, 1])
    return DivergenceFit(
        exponent=-float(slope),
        intercept=float(intercept),
        correlation=corr,
        samples=len(x),
        diverges=True,
    )


def fit_points(
    center: Sequence[float], direction: Sequence[float], offsets: Sequence[float]
) -> np.ndarray:
    """The sample points center + t * direction of a divergence fit, one row per offset t.

    Fewer than 4 offsets, an offset that is not finite and positive (the fit
    takes its logarithm), a zero direction, or offsets so small against the
    center that two samples round to the same point, raise ValueError.
    """
    offsets = np.asarray(offsets, dtype=float)
    if len(offsets) < 4:
        raise ValueError(f"a fit needs at least 4 offsets, got {len(offsets)}")
    bad = offsets[~(np.isfinite(offsets) & (offsets > 0))]
    if len(bad):
        raise ValueError(
            "fit offsets must be finite and positive, since the fit takes their logarithm: "
            + ", ".join(f"{t:g}" for t in bad)
        )
    direction = np.asarray(direction, dtype=float)
    if not direction.any():
        raise ValueError("the fit direction is zero: every sample would be the fit center")
    points = np.asarray(center, dtype=float) + offsets[:, None] * direction
    if len(np.unique(points, axis=0)) < len(points):
        raise ValueError(
            "fit samples are not distinct: center + offset * direction rounds to the same "
            "point for two offsets"
        )
    return points


def fit_divergence_exponent(
    f: MetricField,
    center: Sequence[float],
    direction: Sequence[float],
    offsets: Sequence[float],
) -> DivergenceFit:
    """Divergence exponent of the curvature scalar approaching `center`.

    All offsets are sampled as one batch of points (see `fit_points`).
    """
    points = fit_points(center, direction, offsets)
    values: list[float | None] = []
    for chunk in _chunks(f, points, "curvature"):
        report = geometry.scalar_curvature(f, chunk)
        for r, status in zip(report.scalar, report.status):
            values.append(float(r) if status == STATUS_OK else None)
    return _fit(offsets, values)


# -- Reissner-Nordstrom critical points ------------------------------------------------


@dataclass(frozen=True)
class RNCriticalPoints:
    """The two critical entropies of the Reissner-Nordstrom geometry at charge Q."""

    s_extremal: float
    s_curvature_zero: float
    mass_extremal: float
    mass_curvature_zero: float
    curvature_at_zero: float
    det_g_at_extremal: float


def rn_critical_points(Q: float) -> RNCriticalPoints:
    """Critical entropies S = pi Q^2 (extremal) and S = pi Q^2 / 3 (flat point).

    Verifies numerically that the curvature vanishes at the flat point and the
    metric determinant at the extremal one. Since M(l^2 S, l Q) = l M, both R
    and det g scale as Q^-2, so each is checked times Q^2 and the check holds
    at every charge.
    """
    if not 0.0 < Q < math.inf:
        raise ValueError("charge Q must be positive and finite")
    spec = fundeq.builtin("reissner_nordstrom")
    f = HessianMetricField(spec)
    s_ext = math.pi * Q * Q
    s_zero = s_ext / 3.0
    m_ext = fundeq.potential_value(spec, (s_ext, Q))
    m_zero = fundeq.potential_value(spec, (s_zero, Q))
    r_zero = geometry.scalar_curvature(f, (s_zero, Q)).scalar
    det_ext = geometry.metric_determinant(f, (s_ext, Q))
    if abs(r_zero) * (Q * Q) > NOISE_FLOOR or abs(det_ext) * (Q * Q) > 1e-10:
        raise ArithmeticError(
            f"critical-point verification failed: R(S=piQ^2/3) = {r_zero:.3e}, "
            f"det g(S=piQ^2) = {det_ext:.3e}"
        )
    return RNCriticalPoints(
        s_extremal=s_ext,
        s_curvature_zero=s_zero,
        mass_extremal=m_ext,
        mass_curvature_zero=m_zero,
        curvature_at_zero=r_zero,
        det_g_at_extremal=det_ext,
    )
