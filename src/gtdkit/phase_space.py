"""Contact phase space: Gibbs 1-form, Legendre-invariant metric, identities.

The phase space of an n-degree system is (2n+1)-dimensional with coordinates
ordered (Phi, E^1..E^n, I^1..I^n). It carries the contact form
Theta = dPhi - sum_a I^a dE^a and the metric

    G = Theta (x) Theta + (sum_a E^a I^a) * sum_c dE^c . dI^c,

where "." is the symmetrized product (half in each off-diagonal slot).
Equilibrium states embed by lifting a point of the equilibrium manifold to
(Phi, E, grad Phi); the lift annihilates Theta by construction, which is the
first law.

Legendre transformations exchange chosen (E, I) pairs and shift Phi; the
metric G is checked for invariance under them numerically. Euler and
Gibbs-Duhem residuals use the quasi-homogeneous generalization with one
weight per variable (all-ones gives the classical identities): from
Phi(l^w_a E^a) = l^beta Phi follow

    sum_a w_a E^a I_a - beta Phi = 0,
    sum_a (w_a - beta) I_a v^a + sum_a w_a E^a (Hess(Phi) v)_a = 0,

the second being the directional derivative of the first along v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from . import fundeq, jets
from .fundeq import Point, SystemSpec


@dataclass(frozen=True)
class PhasePoint:
    """A point of phase space; no relation between phi, extensive, intensive."""

    phi: float
    extensive: tuple[float, ...]
    intensive: tuple[float, ...]

    def __post_init__(self):
        if len(self.extensive) != len(self.intensive):
            raise ValueError("extensive and intensive parts must have equal length")

    @property
    def n(self) -> int:
        return len(self.extensive)

    def coords(self) -> np.ndarray:
        return np.concatenate(([self.phi], self.extensive, self.intensive))

    @classmethod
    def from_coords(cls, coords: Sequence[float]) -> "PhasePoint":
        coords = [float(c) for c in coords]
        if len(coords) % 2 != 1:
            raise ValueError("phase point needs 2n+1 coordinates")
        n = (len(coords) - 1) // 2
        return cls(coords[0], tuple(coords[1 : 1 + n]), tuple(coords[1 + n :]))


@dataclass(frozen=True)
class PhaseMetricValue:
    point: PhasePoint
    components: np.ndarray


@dataclass(frozen=True)
class LegendreMap:
    """Exchange of the (E, I) pairs named in `exchanged` (empty = identity)."""

    n: int
    exchanged: frozenset[int]

    def __post_init__(self):
        if not all(0 <= i < self.n for i in self.exchanged):
            raise ValueError(f"exchanged indices must lie in [0, {self.n})")

    @classmethod
    def identity(cls, n: int) -> "LegendreMap":
        return cls(n, frozenset())

    @classmethod
    def total(cls, n: int) -> "LegendreMap":
        return cls(n, frozenset(range(n)))

    @classmethod
    def partial(cls, n: int, indices: Sequence[int]) -> "LegendreMap":
        return cls(n, frozenset(int(i) for i in indices))


def lift_point(spec: SystemSpec, point: Point) -> PhasePoint:
    """Embed an equilibrium point: (E) -> (Phi(E), E, grad Phi(E))."""
    jet = fundeq.evaluate(spec, point, order=1)
    return PhasePoint(
        phi=jet.value,
        extensive=tuple(float(v) for v in point),
        intensive=tuple(jet.gradient),
    )


def theta_residual(
    spec: SystemSpec,
    point: Point,
    direction: Sequence[float],
    intensive: Sequence[float] | None = None,
) -> float:
    """Contraction of Theta with the lift's pushforward of `direction`.

    Zero to rounding for the genuine lift (the first law); passing explicit
    `intensive` values measures how far a perturbed point is from equilibrium.
    """
    v = np.asarray(direction, dtype=float)
    if v.shape != (spec.dim,) or not np.any(v):
        raise ValueError("direction must be a nonzero vector of system dimension")
    grad = fundeq.evaluate(spec, point, order=1).gradient
    iv = grad if intensive is None else np.asarray(intensive, dtype=float)
    return float(np.dot(grad, v) - np.dot(iv, v))


def phase_metric_at(point: PhasePoint) -> PhaseMetricValue:
    """Assemble G at a phase point.

    First block is Theta (x) Theta with Theta = (1, -I^1..-I^n, 0..0); the
    second adds (E . I)/2 to each (E^c, I^c) slot pair.
    """
    n = point.n
    dim = 2 * n + 1
    theta = np.zeros(dim)
    theta[0] = 1.0
    theta[1 : 1 + n] = -np.asarray(point.intensive)
    g = np.outer(theta, theta)
    trace = float(np.dot(point.extensive, point.intensive))
    for c in range(n):
        g[1 + c, 1 + n + c] += 0.5 * trace
        g[1 + n + c, 1 + c] += 0.5 * trace
    return PhaseMetricValue(point, g)


def legendre_apply(lmap: LegendreMap, point: PhasePoint) -> PhasePoint:
    """Transform coordinates: Phi = Phi~ - sum_k E~^k I~^k, E^k = -I~^k, I^k = E~^k.

    Pairs outside the exchanged set pass through. Applying the total map twice
    returns the original point with both member of every pair negated.
    """
    if point.n != lmap.n:
        raise ValueError(f"map is for n={lmap.n}, point has n={point.n}")
    e = list(point.extensive)
    i = list(point.intensive)
    phi = point.phi
    for k in lmap.exchanged:
        phi -= point.extensive[k] * point.intensive[k]
        e[k] = -point.intensive[k]
        i[k] = point.extensive[k]
    return PhasePoint(phi, tuple(e), tuple(i))


def legendre_jacobian(lmap: LegendreMap, point: PhasePoint) -> np.ndarray:
    """Jacobian of `legendre_apply` at `point` (entries are 0, +-1, or coordinates)."""
    n = lmap.n
    dim = 2 * n + 1
    jac = np.zeros((dim, dim))
    jac[0, 0] = 1.0
    for k in range(n):
        if k in lmap.exchanged:
            jac[0, 1 + k] = -point.intensive[k]
            jac[0, 1 + n + k] = -point.extensive[k]
            jac[1 + k, 1 + n + k] = -1.0
            jac[1 + n + k, 1 + k] = 1.0
        else:
            jac[1 + k, 1 + k] = 1.0
            jac[1 + n + k, 1 + n + k] = 1.0
    return jac


def legendre_invariance_residual(lmap: LegendreMap, point: PhasePoint) -> float:
    """Max-abs component of J^T G(mapped point) J - G(point).

    Zero exactly for the identity; zero to rounding for the total map. For
    proper partial maps the second term of G is not preserved and the residual
    is genuinely nonzero, which is what this function is for measuring.
    """
    mapped = legendre_apply(lmap, point)
    jac = legendre_jacobian(lmap, point)
    g_here = phase_metric_at(point).components
    g_there = phase_metric_at(mapped).components
    return float(np.max(np.abs(jac.T @ g_there @ jac - g_here)))


def _weights_beta(spec: SystemSpec, weights, beta):
    if weights is None:
        weights = spec.weights if spec.weights is not None else (1.0,) * spec.dim
    if beta is None:
        if spec.beta is None:
            raise ValueError(f"{spec.name!r} declares no homogeneity degree; pass beta")
        beta = spec.beta
    w = np.asarray(weights, dtype=float)
    if w.shape != (spec.dim,):
        raise ValueError("one weight per variable required")
    return w, float(beta)


def euler_residual(
    spec: SystemSpec,
    point: Point,
    weights: Sequence[float] | None = None,
    beta: float | None = None,
) -> float:
    """sum_a w_a E^a I_a - beta Phi; zero iff the weighted scaling law holds."""
    w, b = _weights_beta(spec, weights, beta)
    jet = fundeq.evaluate(spec, point, order=1)
    e = np.asarray(point, dtype=float)
    return float(np.sum(w * e * jet.gradient) - b * jet.value)


def gibbs_duhem_residual(
    spec: SystemSpec,
    point: Point,
    direction: Sequence[float],
    weights: Sequence[float] | None = None,
    beta: float | None = None,
) -> float:
    """sum_a (w_a - beta) I_a v^a + sum_a w_a E^a (Hess(Phi) v)_a.

    This is the directional derivative of `euler_residual` along v, using
    dI_a = sum_b Phi_ab v^b on the equilibrium manifold; for all-ones weights
    it reduces to (1 - beta) I . v + E . (Hess v).
    """
    w, b = _weights_beta(spec, weights, beta)
    v = np.asarray(direction, dtype=float)
    if v.shape != (spec.dim,):
        raise ValueError("direction must match the system dimension")
    jet = fundeq.evaluate(spec, point, order=2)
    grad, hess_v = jet.gradient, jets.partials(jet, 2)[0] @ v
    e = np.asarray(point, dtype=float)
    return float(np.sum((w - b) * grad * v) + np.sum(w * e * hess_v))


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def contact_volume_coefficient(point: PhasePoint) -> float:
    """Single coefficient of Theta ^ (dTheta)^n in coordinate order, n = `point.n`.

    Computed by full antisymmetrization over the 2n+1 coordinate axes; equals
    +-n! independently of the point, which is the nondegeneracy of the contact
    structure. Limited to n <= 3 (the sum has (2n+1)! terms).
    """
    n = point.n
    if n > 3:
        raise ValueError("contact volume coefficient supported for n <= 3")
    dim = 2 * n + 1
    theta = np.zeros(dim)
    theta[0] = 1.0
    theta[1 : 1 + n] = -np.asarray(point.intensive)
    omega = np.zeros((dim, dim))  # dTheta(u, v) = u^T omega v
    for a in range(n):
        omega[1 + a, 1 + n + a] = 1.0
        omega[1 + n + a, 1 + a] = -1.0
    total = 0.0
    for perm in permutations(range(dim)):
        factor = theta[perm[0]]
        if factor == 0.0:
            continue
        for m in range(n):
            factor *= omega[perm[1 + 2 * m], perm[2 + 2 * m]]
            if factor == 0.0:
                break
        if factor != 0.0:
            total += _perm_sign(perm) * factor
    return float(total / 2.0**n)


def contact_volume_expected(n: int) -> float:
    """Reference value +-n! with the sign fixed by the coordinate ordering."""
    return float((-1) ** (n * (n - 1) // 2) * math.factorial(n))
