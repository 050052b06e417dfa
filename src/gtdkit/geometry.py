"""Metric fields on the equilibrium manifold and their curvature.

The central object is a metric field: a symmetric matrix g_ab(E) over the
extensive coordinates. Fields come in two flavours:

* Hessian-based, built from a fundamental equation. The `natural` kind is
  g_ab = Phi * d2Phi/dE^a dE^b (the Legendre-invariant choice this package
  is about); `weinhold` is the bare Hessian and `ruppeiner` the Hessian
  divided by the temperature T = dPhi/dE^1.
* Direct, a matrix of expressions over named coordinates, used for
  closed-form metrics and curvature oracles such as the sphere.

Everything downstream of g is exact to rounding, with no finite differences,
so curvature stays usable arbitrarily close to the singular loci the analysis
module hunts for. Both kinds give g, d_e g, d_e d_f g and the failed points
through `metric_arrays(point, gorder)`, batch axis first also for one point, or
as jets through `component_jets`; the general contraction of those gives the
Christoffel, Riemann and Ricci tensors (`curvature_tensors`, from Phi to order
4 for a Hessian kind) and a direct metric's R. A Hessian kind, g = c Hess Phi
with c = Phi, 1 or 1/T, gets R from Phi to order 3 by the Hessian-metric
identity and one conformal change (see `_hessian_scalar`). Both run their
contractions over one or two indices as batched matrix products; `_contract`
says why.

Metric components, determinants, Christoffel symbols and curvature accept
one point or a (B, n) array of B >= 0 points. A batch runs the same arithmetic
with the batch axis first, so each point's result is bit-identical to its
single-point call; a point that fails gets a status (`domain-error` or
`degenerate`) and NaN values where one point would raise. A det g that is
not a number fails the point whatever the quantity; only a quantity that
needs g^-1 (Christoffel symbols, curvature) calls a point `degenerate`.

Index conventions: Gamma[a, b, c] = Gamma^a_bc, riemann[a, b, c, d] =
R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + Gamma^a_ce Gamma^e_db
- Gamma^a_de Gamma^e_cb, ricci[b, d] = R^a_bad, and the scalar is
R = g^bd R_bd. A closed-form cross term c dx dy (x != y) contributes c/2 to
each of the two off-diagonal slots.
"""

from __future__ import annotations

import enum
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from . import fundeq, jets
from .errors import DegenerateMetricError, DomainError, ParseError
from .fundeq import Expr, SystemSpec
from .jets import Jet

DEGENERACY_FACTOR = 1e-12
# the convexity check allows eigenvalues down to -CONVEXITY_TOL * max(1, largest |eigenvalue|)
CONVEXITY_TOL = 1e-10

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate"
STATUS_DOMAIN_ERROR = "domain-error"
# what a scan can tabulate (`analysis.grid_scan`), here so the CLI reads it without analysis
QUANTITIES = ("curvature", "detg", "potential", "intensive")

Point = Sequence[float]


class MetricKind(enum.Enum):
    NATURAL = "natural"
    WEINHOLD = "weinhold"
    RUPPEINER = "ruppeiner"


class MetricValue(NamedTuple):
    """Metric components and det g at one equilibrium point; `kind` is None for a direct metric."""

    point: tuple[float, ...]
    components: np.ndarray
    kind: MetricKind | None
    det_g: float


class CurvatureReport(NamedTuple):
    """The curvature scalar at a point, with the metric it came from.

    `metric` is g itself, (n, n), the same components and det g as
    `metric_at` gives; `scalar` is R. For a batch every field gets a leading
    axis of B points, `point` is the (B, n) array, and `status` gives each
    point's status; `metric` and `det_g` are kept for degenerate points. The
    connection and curvature tensors come from `curvature_tensors`.
    """

    point: tuple[float, ...]
    metric: np.ndarray
    scalar: float
    det_g: float
    status: list[str] | None = None


class CurvatureTensors(NamedTuple):
    """Gamma^a_bc (n, n, n), R^a_bcd (n, n, n, n) and R_bd (n, n), batch axis first for a batch."""

    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray


class HessianMetricField:
    """Metric field g = c Hess Phi derived from a fundamental equation, c = Phi, 1 or 1/T.

    `metric_arrays` returns g and its derivatives from Phi to order gorder + 2; the
    curvature scalar (order 3) and the det g split (order 2) build g alone.
    """

    def __init__(self, spec: SystemSpec, kind: MetricKind | str = MetricKind.NATURAL):
        self.spec = spec
        self.kind = MetricKind(kind)  # a member or its value; anything else is a ValueError

    @property
    def coordinates(self) -> tuple[str, ...]:
        return self.spec.variables

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def name(self) -> str:
        return f"{self.spec.name}[{self.kind.value}]"

    def component_jets(self, point: Point, gorder: int = 2) -> list[list[Jet]]:
        """g as jets of order `gorder`, packed from `metric_arrays`; a failed point is NaN in every jet."""
        *out, failed = self.metric_arrays(point, gorder)
        n = self.dim
        coeffs = np.empty((jets._size(n, gorder),) + out[0].shape)
        for k, x in enumerate(out[: gorder + 1]):  # [z, e, ..., a, b] over alpha!, at alpha's slot
            slots, scale = jets.partial_slots(n, gorder, k)
            coeffs[slots] = np.moveaxis(x, 0, k) / scale[..., None, None, None]
        coeffs[:, failed] = np.nan
        coeffs = coeffs[:, 0] if np.ndim(point) == 1 else coeffs
        return [[Jet(n, gorder, coeffs[..., a, b]) for b in range(n)] for a in range(n)]

    def metric_arrays(self, point: Point, gorder: int = 2):
        """(g, dg, d2g, failed) as `_geometry_arrays` returns them, from one potential jet.

        g = c h for h = Hess Phi and c = Phi (natural), 1 (Weinhold) or 1/T
        (Ruppeiner), so d_e g_ab = c_e h_ab + c Phi_abe and d_e d_f g_ab =
        c_ef h_ab + c_e Phi_abf + c_f Phi_abe + c Phi_abef: Phi to order gorder + 2.
        """
        *out, failed = self._metric(point, *self._partials(point, gorder + 2), gorder)
        return (*out, *[None] * (2 - gorder), failed)

    def _partials(self, point: Point, order: int):
        """d[k][z, a, b, ...] = D^(e_a + e_b + ...) Phi at point z for k <= order, and
        c[k], the k-th derivatives of c, for k < order; at order 2 g reads Phi_a
        only as T = Phi_1, and d[1] is None for the other kinds."""
        phi = fundeq.evaluate(self.spec, point, order=order)
        unread = 1 if order == 2 and self.kind is not MetricKind.RUPPEINER else None
        d = [None if k == unread else jets.partials(phi, k) for k in range(order + 1)]
        if self.kind is MetricKind.NATURAL:
            return d, d[:order]
        if self.kind is MetricKind.WEINHOLD:
            return d, [np.ones(len(d[2])), np.zeros(d[2].shape[:2]), np.zeros(d[2].shape)][:order]
        temp = d[1][:, 0]
        if not phi.batched and temp[0] == 0.0:
            why = "Ruppeiner metric undefined where the temperature vanishes"
            raise DomainError(f"{why}: {self.name} at point {_coords(point)}")
        t, dt = np.where(temp == 0.0, np.nan, temp), d[2][:, 0]  # a batch fails T = 0
        c = [1.0 / t, _times(-1.0 / t**2, dt)]
        if order > 2:
            c.append(_times(2.0 / t**3, _times(dt, dt)) - _times(1.0 / t**2, d[3][:, 0]))
        return d, c

    def _metric(self, point: Point, d: list, c: list, gorder: int) -> tuple:
        """(g, dg, d2g)[: gorder + 1] by the product rule from `_partials` to order gorder + 2
        or more, and the failed points, where one of them holds a NaN; one such point raises."""
        if self.kind is MetricKind.WEINHOLD:
            out = d[2 : gorder + 3]
        else:
            out = [_times(c[0], d[2])]
            if gorder:
                out.append(_times(c[1], d[2]) + _times(c[0], d[3]))
            if gorder == 2:
                cross = _times(c[1], d[3])  # [z, e, f, a, b] = c_e Phi_fab
                out.append(_times(c[2], d[2]) + cross + np.swapaxes(cross, 1, 2) + _times(c[0], d[4]))
        # a point's max over each array's non-batch axes is NaN where it meets a NaN; B may be 0
        failed = np.logical_or.reduce([np.isnan(x.max(axis=tuple(range(1, x.ndim)))) for x in out])
        if np.ndim(point) == 1 and failed[0]:
            raise DomainError(f"metric {self.name} is not a number at point {_coords(point)}")
        return (*out, failed)


class DirectMetricField:
    """Metric field given componentwise over named coordinates.

    Components may be expression strings, parsed Expr trees or numbers;
    each becomes an Expr over the coordinates and parameters. All n x n
    entries are compiled once, over the coordinates, into one tape (see
    `fundeq.Tape`) that runs at every gorder: identical entries share one
    output, and a subexpression shared by several entries runs once per
    evaluation. The evaluated matrix must be symmetric; the upper triangle
    is mirrored so downstream algebra sees exact symmetry.
    """

    def __init__(
        self,
        coordinates: Sequence[str],
        components: Sequence[Sequence[Union[str, float, Expr]]],
        parameters: Mapping[str, float] | None = None,
        name: str = "direct",
        domain: fundeq.DomainPredicate | None = None,
        domain_text: str = "",
    ):
        self.coordinates = tuple(coordinates)
        n = len(self.coordinates)
        if len(components) != n or any(len(row) != n for row in components):
            raise ValueError(f"component matrix must be {n}x{n}")
        self.components = [[_as_expr(c) for c in row] for row in components]
        self.parameters = dict(parameters or {})
        entries = [c for row in self.components for c in row]
        self.tape = fundeq.compile_exprs(entries, self.coordinates)
        fundeq.check_names(
            [*self.coordinates, *self.parameters], self.tape.names, "metric components reference"
        )
        self.name = name
        self.domain = domain
        self.domain_text = domain_text

    @property
    def dim(self) -> int:
        return len(self.coordinates)

    def with_parameters(self, **overrides: float) -> "DirectMetricField":
        """The same metric with some parameters replaced, by the rule of `SystemSpec`."""
        return fundeq.override_parameters(self, overrides)

    def component_jets(self, point: Point, gorder: int = 2) -> list[list[Jet]]:
        flat = fundeq.evaluate_exprs(
            self.tape, self.parameters, point, gorder, self.domain, fundeq.domain_label(self)
        )
        n = self.dim
        out = [flat[a * n : (a + 1) * n] for a in range(n)]
        _check_symmetry(out, self.name)
        for a in range(n):
            for b in range(a + 1, n):
                out[b][a] = out[a][b]
        return out

    def metric_arrays(self, point: Point, gorder: int = 2):
        """(g, dg, d2g, failed) as `_geometry_arrays` returns them, from the component jets."""
        return _geometry_arrays(self.component_jets(point, gorder))


MetricField = Union[HessianMetricField, DirectMetricField]


def _as_expr(c) -> Expr:
    if isinstance(c, str):
        return fundeq.parse(c)
    if isinstance(c, (int, float)):
        return fundeq.Num(float(c))
    if isinstance(c, Expr):
        return c
    raise TypeError(f"metric component must be an expression string, number or Expr, got {c!r}")


def _check_symmetry(out: list[list[Jet]], name: str) -> None:
    """Each point's matrix must be symmetric, to a tolerance scaled by that point's entries.

    Compares the jets of mirror entries that are different expressions: equal
    expressions are one tape output and share one jet.
    """
    n = len(out)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if out[a][b] is not out[b][a]]
    if not pairs:
        return
    scale = np.maximum(1.0, np.max(np.abs([jet.coeffs[0] for row in out for jet in row]), axis=0))
    for a, b in pairs:
        x, y = out[a][b].coeffs, out[b][a].coeffs
        # not np.isclose(x, y, rtol=1e-9, atol=1e-9 * scale), with one atol per point;
        # a NaN compares false, so a failed point, NaN in every jet, passes
        with np.errstate(invalid="ignore"):
            far = np.abs(x - y) > 1e-9 * scale + 1e-9 * np.abs(y)
        if far.any():
            raise ValueError(f"direct metric {name!r} is not symmetric in ({a}, {b})")


# -- evaluation at points ----------------------------------------------------------


def metric_at(field: MetricField, point: Point) -> MetricValue:
    """Metric components and det g at one point; DomainError where det g is not a number."""
    if np.ndim(point) > 1:
        raise ValueError("metric_at takes one point; metric_determinant takes a batch")
    g, _, _, failed = field.metric_arrays(point, gorder=0)
    det, _ = _checked_det(g, failed, field, point)
    return MetricValue(_coords(point), g[0], getattr(field, "kind", None), float(det[0]))


def metric_determinant(field: MetricField, point: Point):
    """det g at one point (a float), or for a (B, n) batch its B values and statuses.

    A point outside the domain, or whose det g is not a number (as for a
    metric with an infinite entry), raises DomainError alone and gets NaN and
    `domain-error` in a batch (see `_checked_det`).
    """
    g, _, _, failed = field.metric_arrays(point, gorder=0)
    det, failed = _checked_det(g, failed, field, point)
    return float(det[0]) if np.ndim(point) == 1 else (det, statuses(failed))


def determinant_factors(field: HessianMetricField, points: np.ndarray):
    """det g of a (B, n) batch, as `metric_determinant` gives it, with c and det Hess Phi.

    det g = c^n det Hess Phi for g = c Hess Phi, all three from one order-2 potential jet.
    """
    d, c = field._partials(points, 2)
    g, failed = field._metric(points, d, c, 0)
    det, failed = _checked_det(g, failed, field, points)
    return det, c[0], np.linalg.det(_replace(d[2], failed))


def degeneracy_threshold(g: np.ndarray):
    """Scale-free cutoff at or below which |det g| counts as degenerate.

    DEGENERACY_FACTOR times Hadamard's bound on |det g|, the product of the
    row norms, so rescaling g does not change the verdict: one cutoff per
    matrix of a (B, n, n) stack.
    """
    return DEGENERACY_FACTOR * np.prod(np.linalg.norm(g, axis=-1), axis=-1)


def statuses(failed: np.ndarray, degenerate: np.ndarray | None = None) -> list[str]:
    """Status of each point of a batch from its failed and degenerate masks."""
    marked = failed if degenerate is None else failed | degenerate
    if not marked.any():
        return [STATUS_OK] * len(failed)
    out = np.where(failed, STATUS_DOMAIN_ERROR, STATUS_OK).astype(object)
    if degenerate is not None:
        out[degenerate] = STATUS_DEGENERATE
    return out.tolist()


def _replace(g: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """The (B, n, n) stack with the matrices of bad points replaced by the identity.

    `g` itself where no point is bad: callers only read the result.
    """
    return np.where(bad[:, None, None], np.eye(g.shape[-1]), g) if bad.any() else g


def _geometry_arrays(gjets: list[list[Jet]]):
    """(g, dg, d2g, failed), batch axis first, from the component jets.

    g[z,a,b], dg[z,c,a,b] = d_c g_ab and d2g[z,c,d,a,b] = d_c d_d g_ab (None
    above the jet order), and the points whose coefficients hold a NaN.
    """
    n = len(gjets)
    order = gjets[0][0].order
    # one C-contiguous (B, N, n, n) stack of the coefficients (B = 1 for one point):
    # numpy stacks a flat list of arrays in one block copy, and the transpose is
    # one more; np.stack straight into this layout is slower
    flat = np.array([jets._columns(g.coeffs) for row in gjets for g in row])
    coeffs = flat.T.reshape(flat.shape[:0:-1] + (n, n))
    g = coeffs[:, 0]
    dg = coeffs[:, jets.unit_slots(n, order)] if order >= 1 else None
    d2g = None
    if order >= 2:
        slots, scale = jets.partial_slots(n, order, 2)
        d2g = coeffs[:, slots] * scale[:, :, None, None]
    # a max is NaN exactly where it meets a NaN, and allocates no mask of the stack
    return g, dg, d2g, np.isnan(coeffs.max(axis=(1, 2, 3)))


def _coords(point: Point) -> tuple[float, ...]:
    """One point as plain floats, for reports and messages."""
    return tuple(float(v) for v in point)


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Outer product at each point: [z, i..., j...] = x[z, i...] * y[z, j...]."""
    return x.reshape(x.shape + (1,) * (y.ndim - 1)) * y[(slice(None),) + (None,) * (x.ndim - 1)]


def _checked_det(g: np.ndarray, failed: np.ndarray, field: MetricField, point: Point):
    """det g of a (B, n, n) stack, and `failed` with every point whose det g is NaN added.

    A failed point's det is NaN; one point (a 1-D `point`) raises DomainError.
    """
    det = np.linalg.det(_replace(g, failed))
    failed = failed | np.isnan(det)
    if np.ndim(point) == 1 and failed[0]:
        raise DomainError(f"det g of {field.name} is not a number at point {_coords(point)}")
    det[failed] = np.nan
    return det, failed


def _checked_inverse(g: np.ndarray, failed: np.ndarray, field: MetricField, point: Point):
    """Inverse metrics, determinants, failed and degenerate points of a (B, n, n) stack.

    On top of `_checked_det`, a point is degenerate where |det g| is not above
    the threshold, which includes a metric with an infinite entry whose det g
    is a number: its threshold is inf or NaN. One point raises
    DegenerateMetricError. Failed and degenerate points get the identity as
    inverse.
    """
    det, failed = _checked_det(g, failed, field, point)
    threshold = degeneracy_threshold(g)
    degenerate = ~failed & ~(np.abs(det) > threshold)
    if np.ndim(point) == 1 and degenerate[0]:
        why = "g has an infinite entry" if np.isinf(g[0]).any() else (
            f"|det g| = {abs(det[0]):.3e} <= {threshold[0]:.3e}"
        )
        raise DegenerateMetricError(
            f"metric degenerate at {_coords(point)}: {why}",
            det=float(det[0]),
            threshold=float(threshold[0]),
        )
    return np.linalg.inv(_replace(g, failed | degenerate)), det, failed, degenerate


def _einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    # C-contiguous operands with the batch axis first keep einsum's summation
    # order, and so every point's bits, independent of the batch size
    return np.einsum(subscripts, *(np.ascontiguousarray(op) for op in operands))


def _christoffel_from(g_inv: np.ndarray, dg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gamma [z, a, b, c] and T [z, d, (b, c)], C-contiguous, from g^-1 and d g."""
    # T[d,b,c] = d_b g_dc + d_c g_db - d_d g_bc; symmetric in (b, c) exactly
    # because g_ab and g_ba are the same jet. The reshape copies a batch's T,
    # whose batch axis runs fastest, into C order.
    term = np.einsum("zbdc->zdbc", dg) + np.einsum("zcdb->zdbc", dg) - dg
    b, n = g_inv.shape[:2]
    term = term.reshape(b, n, n * n)
    # Gamma^a_bc = 1/2 g^ad T[d,b,c], one (n, n) @ (n, n^2) product per point
    return 0.5 * np.matmul(g_inv, term).reshape(dg.shape), term


def christoffel(field: MetricField, point: Point) -> np.ndarray:
    """Christoffel symbols Gamma^a_bc of the Levi-Civita connection.

    (n, n, n) at one point; for a (B, n) batch (B, n, n, n), NaN at failed
    and degenerate points.
    """
    g, dg, _, failed = field.metric_arrays(point, gorder=1)
    g_inv, _, failed, degenerate = _checked_inverse(g, failed, field, point)
    gamma, _ = _christoffel_from(g_inv, dg)
    gamma[failed | degenerate] = np.nan
    return gamma[0] if np.ndim(point) == 1 else gamma


def _contract(field: MetricField, point: Point):
    """g, det g, failed and degenerate points, g^-1 and [Gamma, Riemann, Ricci], batched.

    Each contraction over one index is a batched matrix product (np.matmul) of
    C-contiguous stacks, batch axis first: numpy runs one small BLAS product
    per point, whose sizes and so summation order do not depend on the batch,
    so every point's bits are its single-point call's. A batch's metric arrays
    run the batch axis fastest in memory, so they go in copied to C order: a
    numpy that multiplied them where they lie could take its own loop for a
    batch and BLAS for one point, and a point's bits would follow its batch.
    The bits do depend on the BLAS kernel numpy links, which differs by CPU.
    The Ricci trace and g^bd R_bd stay einsums, and so do `_hessian_scalar`'s
    quadratic forms.
    """
    g, dg, d2g, failed = field.metric_arrays(point, gorder=2)
    g_inv, det, failed, degenerate = _checked_inverse(g, failed, field, point)
    gamma, term = _christoffel_from(g_inv, dg)
    b, n = g.shape[:2]
    inv = g_inv[:, None]  # one g^-1 per derivative index e
    # d_e g^ad = -g^ax (d_e g_xy) g^yd
    dg_inv = -np.matmul(np.matmul(inv, np.ascontiguousarray(dg)), inv)
    dterm = np.einsum("zebdc->zedbc", d2g) + np.einsum("zecdb->zedbc", d2g) - d2g
    # d_e Gamma^a_bc = 1/2 (d_e g^ad T[d,b,c] + g^ad d_e T[d,b,c]), as [z, e, a, (b, c)]
    dgamma = 0.5 * (
        np.matmul(dg_inv, term[:, None]) + np.matmul(inv, dterm.reshape(b, n, n, n * n))
    ).reshape(d2g.shape)
    # Gamma^a_ce Gamma^e_db as [z, (a, c), (d, b)], read as [z, a, c, d, b]
    squared = np.matmul(gamma.reshape(b, n * n, n), gamma.reshape(b, n, n * n)).reshape(d2g.shape)
    # half[a,b,c,d] = d_c Gamma^a_db + Gamma^a_ce Gamma^e_db; antisymmetrizing
    # the pair (c, d) as a single subtraction keeps R^a_bcd = -R^a_bdc exact.
    half = np.einsum("zcadb->zabcd", dgamma) + np.einsum("zacdb->zabcd", squared)
    riemann = half - np.swapaxes(half, 3, 4)
    ricci = _einsum("zabad->zbd", riemann)
    return g, det, failed, degenerate, g_inv, [gamma, riemann, ricci]


def _hessian_scalar(field: HessianMetricField, point: Point):
    """g, det g, failed and degenerate points and R of g = c h, h = Hess Phi, all batched.

    R_h = 1/4 (Phi_abc Phi_def h^ad h^be h^cf - T_a T_b h^ab), T_a = h^bc Phi_abc
    (Ruppeiner, Rev. Mod. Phys. 67, 605 (1995); Shima, The Geometry of Hessian
    Structures, 2007), and R_g = (R_h - 2(n-1) Lap_h w - (n-1)(n-2) |dw|^2_h) / c
    for w = ln(c) / 2 (Besse, Einstein Manifolds, 1987, 1.J), with Lap_h w =
    h^ab w_ab - 1/2 h^ab T_a w_b. w is written through u = c_a / c and v =
    c_ab / c, so a negative c needs no log. The two cubic contractions, h^ad
    Phi_dbc and a_dbc a_bdf over (d, b), are batched matrix products of
    C-contiguous stacks, as in `_contract`. A three-operand einsum changes bits
    with the batch size, so every quadratic form is two two-operand ones.
    """
    d, c = field._partials(point, 3)
    g, failed = field._metric(point, d, c, 0)
    g_inv, det, failed, degenerate = _checked_inverse(g, failed, field, point)
    # failed and degenerate points get h^-1 = g^-1 = the identity
    factor = np.where(failed | degenerate, 1.0, c[0])
    h_inv = _times(factor, g_inv)
    b, n = h_inv.shape[:2]
    # a[z, a, (b, c)] = h^ad Phi_dbc, whose trace over (a, b) is T_c
    a = np.matmul(np.ascontiguousarray(h_inv), np.ascontiguousarray(d[3]).reshape(b, n, n * n))
    a = a.reshape(b, n, n, n)
    trace = np.einsum("zbbc->zc", a)
    # a[z, d, b, c] a[z, b, d, f] as [z, c, (d, b)] @ [z, (d, b), f]
    pairs = np.matmul(
        a.transpose(0, 3, 1, 2).reshape(b, n, n * n), a.transpose(0, 2, 1, 3).reshape(b, n * n, n)
    )
    cubic = _einsum("zcf,zcf->z", h_inv, pairs)
    h_trace = _einsum("zab,zb->za", h_inv, trace)
    r_h = 0.25 * (cubic - _einsum("za,za->z", h_trace, trace))
    u, v = c[1] / factor[:, None], c[2] / factor[:, None, None]
    h_u = _einsum("zab,zb->za", h_inv, u)
    uu = _einsum("za,za->z", h_u, u)
    # 2 Lap_h w = h^ab v_ab - |u|^2_h - 1/2 h^ab T_a u_b and 4 |dw|^2_h = |u|^2_h
    laplacian2 = _einsum("zab,zab->z", h_inv, v) - uu - 0.5 * _einsum("za,za->z", h_u, trace)
    scalar = (r_h - (n - 1) * laplacian2 - 0.25 * (n - 1) * (n - 2) * uu) / factor
    return g, det, failed, degenerate, scalar


def scalar_curvature(field: MetricField, point: Point) -> CurvatureReport:
    """The curvature scalar, with g and det g: `_hessian_scalar` or the general contraction.

    For a (B, n) batch of points the report holds stacked arrays and a
    status per point; failed and degenerate points get NaN curvature.
    """
    if isinstance(field, HessianMetricField):
        g, det, failed, degenerate, scalar = _hessian_scalar(field, point)
    else:
        g, det, failed, degenerate, g_inv, (_, _, ricci) = _contract(field, point)
        scalar = _einsum("zbd,zbd->z", g_inv, ricci)
    # a NaN curvature is no value: a power of T can under- or overflow in the Ruppeiner kind
    failed = failed | np.isnan(scalar)
    if np.ndim(point) == 1:
        if failed[0]:
            raise DomainError(f"curvature of {field.name} is not a number at point {_coords(point)}")
        return CurvatureReport(_coords(point), g[0], float(scalar[0]), float(det[0]))
    scalar[failed | degenerate] = np.nan
    return CurvatureReport(
        np.asarray(point, dtype=float), g, scalar, det, statuses(failed, degenerate)
    )


def curvature_tensors(field: MetricField, point: Point) -> CurvatureTensors:
    """Christoffel symbols, Riemann and Ricci tensors of any field by the general contraction.

    NaN at the failed and degenerate points of a batch; one such point raises.
    """
    _, _, failed, degenerate, _, tensors = _contract(field, point)
    for t in tensors:
        t[failed | degenerate] = np.nan
    return CurvatureTensors(*(t[0] if np.ndim(point) == 1 else t for t in tensors))


def hessian_positive_semidefinite(spec: SystemSpec, point: Point):
    """Local convexity of the potential (the second-law check): a bool, or one per batch point."""
    hess = fundeq.hessian(spec, point)
    eigenvalues = np.linalg.eigvalsh(hess)
    scale = np.maximum(1.0, np.max(np.abs(eigenvalues), axis=-1, keepdims=True))
    # a failed point of a batch has a NaN Hessian, whose eigenvalues eigvalsh does not make NaN
    convex = np.all(eigenvalues >= -CONVEXITY_TOL * scale, axis=-1) & ~np.isnan(hess).any(axis=(-2, -1))
    return bool(convex) if np.ndim(point) == 1 else convex


# -- closed-form metrics ---------------------------------------------------------
#
# The printed metrics for the four systems, each a row of `DirectMetricField`
# arguments, all but the name, as `fundeq._BUILTINS` holds the built-in systems.
# They are oracles for the Hessian pipeline: both must agree componentwise at
# every domain point. A factor or entry that repeats is one constant.

_VDW_PHI = "((exp(S/k)/(V-b))^(2/3) - a/V)"
_VDW_U = "(exp(S/k)/(V-b))^(2/3)"  # Phi + a/V
_VDW_SV = f"-(4/(9*k)) * {_VDW_PHI} * {_VDW_U} / (V-b)"
_KN_M2 = "(pi*J^2/S + (S/(4*pi))*(1 + pi*Q^2/S)^2)"
_KN_SJ = f"-J*(2*pi*{_KN_M2} + pi*Q^2 + S) / (4*S^2*{_KN_M2})"
_KN_SQ = f"Q*(2*pi*J^2 - (pi*Q^2+S)*{_KN_M2}) / (4*S^2*{_KN_M2})"
_KN_JQ = f"-pi*J*Q*(pi*Q^2+S) / (2*S^2*{_KN_M2})"
_RN_PREF = "((pi*Q^2+S)/(2*S^2))"
_KERR_PREF = "(pi*S/(S^2+4*pi^2*J^2))"
_KERR_SJ = f"-{_KERR_PREF} * J*(3*S^2+4*pi^2*J^2)/(2*S^3)"
_BLACK_HOLE = dict(domain=fundeq._positive_entropy, domain_text="S > 0")  # KN and its limits
_CLOSED_FORMS: dict[str, dict] = {
    "kerr_closed": dict(
        _BLACK_HOLE,
        coordinates=("S", "J"),
        components=[
            [f"{_KERR_PREF} * (3*pi^2*J^4/S^4 + 3*J^2/(2*S^2) - 1/(16*pi^2))", _KERR_SJ],
            [_KERR_SJ, _KERR_PREF],
        ],
    ),
    "kn_closed": dict(
        _BLACK_HOLE,
        coordinates=("S", "J", "Q"),
        components=[
            [
                "(-S^4 + pi^2*(4*J^2+Q^4)*(6*S^2 + 8*pi*S*Q^2 + 3*pi^2*(4*J^2+Q^4)))"
                f" / (64*pi^2*S^4*{_KN_M2})",
                _KN_SJ,
                _KN_SQ,
            ],
            [_KN_SJ, f"(pi*Q^2+S)^2 / (4*S^2*{_KN_M2})", _KN_JQ],
            [_KN_SQ, _KN_JQ, f"(4*pi^2*J^2*(3*pi*Q^2+S) + (pi*Q^2+S)^3) / (8*pi*S^2*{_KN_M2})"],
        ],
    ),
    "rn_closed": dict(
        _BLACK_HOLE,
        coordinates=("S", "Q"),
        components=[
            [f"{_RN_PREF} * (3*pi*Q^2 - S)/(8*pi*S)", f"-{_RN_PREF} * Q/2"],
            [f"-{_RN_PREF} * Q/2", f"{_RN_PREF} * S"],
        ],
    ),
    "vdw_closed": dict(
        coordinates=("S", "V"),
        components=[
            [f"(4/(9*k^2)) * {_VDW_PHI} * {_VDW_U}", _VDW_SV],
            [_VDW_SV, f"(10/9) * {_VDW_PHI} * {_VDW_U} / (V-b)^2 - 2*a*{_VDW_PHI}/V^3"],
        ],
        parameters={"a": 1.0, "b": 0.1, "k": 1.0},
        domain=fundeq._above_covolume,
        domain_text="V > b",
    ),
}

CLOSED_FORM_NAMES = tuple(sorted(_CLOSED_FORMS))


def closed_form_metric(name: str, **parameters: float) -> DirectMetricField:
    """The printed metric `name` (see CLOSED_FORM_NAMES), with `parameters` overridden."""
    try:
        row = _CLOSED_FORMS[name]
    except KeyError:
        raise ValueError(
            f"unknown closed-form metric {name!r}; choose from {CLOSED_FORM_NAMES}"
        ) from None
    field = DirectMetricField(name=name, **row)
    return field.with_parameters(**parameters) if parameters else field


def sphere_metric(radius: float = 1.0) -> DirectMetricField:
    """Round 2-sphere of given radius in (theta, phi); curvature oracle R = 2/r^2."""
    r2 = radius * radius
    # a tree, not text: the text of an infinite or NaN r^2 would read as a name
    return DirectMetricField(
        coordinates=("theta", "phi"),
        components=[[r2, 0.0], [0.0, fundeq.BinOp("*", fundeq.Num(r2), fundeq.parse("sin(theta)^2"))]],
        name=f"sphere(r={radius})",
    )


def load_metric_file(path: str | Path, sections=None) -> DirectMetricField:
    """Load a direct metric from a sectioned key-value file, or from its parsed `sections`.

    Expected layout (rows of the component matrix are separated by a ';'
    with no space before it)::

        [metric]
        name = sphere
        coordinates = theta, phi
        components = 1, 0; 0, sin(theta)^2

        [parameters]
        r = 1.0
    """
    sec, params = fundeq._read_section(path, "metric", ("coordinates", "components"), sections)
    coords = tuple(fundeq._split_list(sec["coordinates"]))
    rows = [r.strip() for r in sec["components"].split(";")]
    components = [fundeq._split_list(r) for r in rows if r]
    n = len(coords)
    if len(components) != n or any(len(row) != n for row in components):
        raise ParseError(
            f"{path}: components must form a {n}x{n} matrix, rows read: {len(components)} "
            "(a ';' after a space starts a comment: separate rows as in '1, 0; 0, 1')"
        )
    return DirectMetricField(
        coordinates=coords,
        components=components,
        parameters=params,
        name=sec.get("name", Path(path).stem).strip(),
    )
