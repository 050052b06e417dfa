"""Truncated multivariate Taylor arithmetic (jets).

A jet stores the Taylor coefficients f_alpha = D^alpha f(x0) / alpha! of a
scalar field around a base point, for every multi-index alpha of degree at
most the truncation order. Propagating jets through arithmetic and the
elementary functions yields partial derivatives that are exact to rounding,
which the geometry downstream relies on: the Hessian metrics need second
derivatives of the potential, and their curvature needs third.

A jet holds one base point or a batch of them. Coefficients are stored
coefficient-major: shape (N,) for one point, (N, B) for B points with one
column per point. Both shapes run the same arithmetic, and every column is
computed independently of the others in a fixed order, so a point's
coefficients are bit-identical whatever batch it is evaluated in.

The arithmetic is a set of kernels on plain coefficient arrays (`mul_coeffs`,
`reciprocal_coeffs`, `power_coeffs`, `offset_coeffs` and one kernel per
function of `FUNCTION_KERNELS`), given the jets' nvars and order. `Jet`'s
operators and the functions `exp`, `ln`, `power`, `sqrt`, `sin` and `cos`
wrap them, and each step of a `fundeq` tape is one of them, run directly at
whatever nvars and order the tape is evaluated, so a tape builds no `Jet`
per step. At order 0 a jet is its value alone, and each kernel is the
constant term of its series: a product is `a * b`, a function the first
term of its Taylor series.

A truncated product sums, for each output slot and each column, its run of
pairs f_i g_j with alpha_i + alpha_j = alpha_k: the first pair plus the rest
in order, as `np.add.reduceat` sums a run of up to 8 pairs. One point, a
batch narrower than `LAYERED_MIN_BATCH` and order 4 (runs of up to 16 pairs,
which numpy sums pairwise) take `reduceat`. A wider batch up to order 3 adds
the same pairs layer by layer (`_layer_plan`), bit for bit alike but for the
sign and payload of a NaN, and gathers them into two buffers that each thread
keeps between products (`_gathers`, up to `SCRATCH_BYTES` each), so such a
product allocates afresh only its result.

Leaving the domain of an elementary function (ln or a fractional power of a
non-positive value, a reciprocal of zero) raises `DomainError` for one
point. In a batch the point's column becomes NaN instead and the other points
carry on. Arithmetic and the elementary functions keep a NaN in its column
(x^0 included), so a column that holds a NaN is the only record of a failed
point, and `Jet.failed` reads it back.

Jets are immutable; every operation returns a new jet, and no kernel writes
into its operands. Mixing jets with plain numbers promotes the number to a
constant jet.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError

MAX_VARS = 8
DEFAULT_ORDER = 4

MultiIndex = tuple[int, ...]


def _gen_indices(nvars: int, order: int) -> Iterator[MultiIndex]:
    if nvars == 0:
        yield ()
        return
    for d in range(order + 1):
        for rest in _gen_indices(nvars - 1, order - d):
            yield (d,) + rest


@lru_cache(maxsize=None)
def _index_table(nvars: int, order: int) -> tuple[tuple[MultiIndex, ...], dict[MultiIndex, int]]:
    """Multi-indices of degree <= order in graded lexicographic order.

    The grading puts the indices of degree <= m in the first `_size(nvars, m)` slots.
    """
    indices = sorted(_gen_indices(nvars, order), key=lambda a: (sum(a), a))
    return tuple(indices), {a: i for i, a in enumerate(indices)}


@lru_cache(maxsize=None)
def _size(nvars: int, order: int) -> int:
    """Number of coefficients of a jet; validates the shape once per (nvars, order)."""
    if not 1 <= nvars <= MAX_VARS:
        raise ValueError(f"nvars must be in [1, {MAX_VARS}], got {nvars}")
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    return len(_index_table(nvars, order)[0])


@lru_cache(maxsize=None)
def _mul_table(nvars: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather plan of the truncated product.

    Returns the slots (ii, jj) of every pair with alpha_i + alpha_j = alpha_k
    and degree <= order, stably sorted by the output slot k, and the offset of
    each output slot's run for `np.add.reduceat`. Every slot k has at least
    the pair (0, k), so no run is empty.
    """
    indices, pos = _index_table(nvars, order)
    ii, jj, kk = [], [], []
    for i, a in enumerate(indices):
        da = sum(a)
        for j, b in enumerate(indices):
            if da + sum(b) > order:
                continue
            ii.append(i)
            jj.append(j)
            kk.append(pos[tuple(x + y for x, y in zip(a, b))])
    kk = np.array(kk)
    perm = np.argsort(kk, kind="stable")
    starts = np.searchsorted(kk[perm], np.arange(len(indices)))
    return np.array(ii)[perm], np.array(jj)[perm], starts


def _columns(coeffs: np.ndarray) -> np.ndarray:
    """(N, B) view of one point's (N,) or a batch's (N, B) coefficients."""
    return coeffs.reshape(coeffs.shape[0], -1)


# the narrowest batch whose products take the layered kernel: at 2-3
# variables and orders 2-3 it overtakes reduceat between 32 and 56 points
LAYERED_MIN_BATCH = 64


@lru_cache(maxsize=None)
def _layer_plan(nvars: int, order: int):
    """Gather plan of the layered product; None where it would not give reduceat's bits.

    Layer m holds the m-th pair of every output slot whose run is longer than
    m; with the slots sorted by run length, longest first, each layer covers a
    prefix of them. The plan is the pairs' (ii, jj) in layer order, each
    layer's slot count and the permutation back to the graded slot order.
    Order 4, whose longer runs numpy sums pairwise, has no plan; nor has a
    numpy whose reduceat differs from the layered sum on a probe of -0.0
    products (as a rest started at +0.0 would) or of products whose rounding
    depends on the order of the sum.
    """
    if order > 3:
        return None
    ii, jj, starts = _mul_table(nvars, order)
    lengths = np.diff(starts, append=len(ii))
    slots = np.argsort(-lengths, kind="stable")
    counts = tuple(int((lengths > m).sum()) for m in range(lengths.max()))
    layers = np.concatenate([starts[slots[:count]] + m for m, count in enumerate(counts)])
    plan = ii[layers], jj[layers], counts, np.argsort(slots)
    shape = (len(starts), LAYERED_MIN_BATCH)
    wave = np.sin(np.arange(shape[0] * shape[1])).reshape(shape)
    for a, b in ((np.full(shape, -0.0), np.zeros(shape)), (wave, np.cos(wave * 1e3))):
        pairs = a[ii]
        pairs *= b[jj]
        expected = np.add.reduceat(pairs, starts, axis=0)
        if _layered_product(a, b, plan).tobytes() != expected.tobytes():
            return None
    return plan


# Each thread keeps two buffers for the gathers of its layered products, as
# long as each gather fits SCRATCH_BYTES: four times the 96 KiB that
# analysis.CHUNK_BYTES allows a scan's batch to allocate afresh per array,
# which holds every gather of such a batch (KN's order-3 product gathers 84
# pairs at 455 points, 3.1 times the bound). A wider gather is allocated for
# its product alone.
SCRATCH_BYTES = 4 * 96 * 1024


class _Scratch(threading.local):
    def __init__(self):
        self.buffers = [np.empty(0), np.empty(0)]


_SCRATCH = _Scratch()


def _gathers(shape: tuple[int, int]) -> list[np.ndarray]:
    """Two gathers of `shape`: contiguous prefixes of the calling thread's
    buffers, or fresh arrays where they would exceed SCRATCH_BYTES."""
    size = shape[0] * shape[1]
    if 8 * size > SCRATCH_BYTES:
        return [np.empty(shape), np.empty(shape)]
    buffers = _SCRATCH.buffers
    for k, buffer in enumerate(buffers):
        if len(buffer) < size:
            buffers[k] = np.empty(size)
    return [buffer[:size].reshape(shape) for buffer in buffers]


def _layered_product(a: np.ndarray, b: np.ndarray, plan) -> np.ndarray:
    li, lj, counts, inverse = plan
    pairs, other = _gathers((len(li), a.shape[1]))
    # mode="clip" takes straight into `out`, where the default mode would
    # buffer; every slot is in range, so the gathered values are the same
    np.take(a, li, axis=0, out=pairs, mode="clip")
    np.take(b, lj, axis=0, out=other, mode="clip")
    pairs *= other
    first = pairs[: counts[0]]
    # the rest of each run adds up in layer 1's rows, one contiguous prefix
    # add per layer, and then joins its first pair
    rest = pairs[counts[0] : counts[0] + counts[1]]
    offset = counts[0] + counts[1]
    for count in counts[2:]:
        rest[:count] += pairs[offset : offset + count]
        offset += count
    first[: counts[1]] += rest
    return first[inverse]


def mul_coeffs(a: np.ndarray, b: np.ndarray, nvars: int, order: int) -> np.ndarray:
    """Coefficients of the truncated product of two jets of (nvars, order)."""
    if not order:
        return a * b
    # each output slot of each column sums its run of pairs on its own, as the
    # first pair plus the rest in order, so a column's result does not depend
    # on B: a batch of LAYERED_MIN_BATCH points or more adds the pairs layer by
    # layer up to order 3, and one point, a narrower batch and order 4 take
    # np.add.reduceat; the layered kernel gathers into the two buffers its
    # thread keeps (`_gathers`), so a product allocates afresh only its result
    if a.ndim == 2 and a.shape[1] >= LAYERED_MIN_BATCH:
        plan = _layer_plan(nvars, order)
        if plan is not None:
            return _layered_product(a, b, plan)
    ii, jj, starts = _mul_table(nvars, order)
    pairs = a[ii]
    pairs *= b[jj]
    return np.add.reduceat(pairs, starts, axis=0)


def offset_coeffs(a: np.ndarray, value: float, negate: bool = False) -> np.ndarray:
    """Coefficients of a + value, or of value - a when `negate`: only the constant terms move."""
    out = -a if negate else a.copy()
    out[0] += value
    return out


class Jet:
    """A scalar field truncated to its Taylor polynomial at one or more points.

    `coeffs[i]` holds f_alpha for the multi-index at slot i of the graded
    table for (nvars, order): a float for one point, a row of B floats for a
    batch.
    """

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars: int, order: int, coeffs: Sequence[float] | np.ndarray):
        size = _size(nvars, order)
        arr = np.array(coeffs, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[0] != size:
            raise ValueError(
                f"expected {size} coefficients for nvars={nvars}, order={order}, "
                f"got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    @property
    def batched(self) -> bool:
        return self.coeffs.ndim == 2

    @property
    def failed(self) -> np.ndarray | None:
        """None for one point; for a batch, the points whose column holds a NaN."""
        return np.isnan(self.coeffs.max(axis=0)) if self.batched else None

    @property
    def value(self):
        """Value of the field at the base point (the constant coefficient).

        A float for one point, an array of B values for a batch.
        """
        return self.coeffs[0] if self.batched else float(self.coeffs[0])

    @property
    def gradient(self) -> np.ndarray:
        """First partials at the base point, one per variable (rows of B values for a batch)."""
        if self.order < 1:
            raise ValueError("gradient requires order >= 1")
        return self.coeffs[unit_slots(self.nvars, self.order)]

    def __repr__(self) -> str:
        if self.batched:
            return f"Jet(nvars={self.nvars}, order={self.order}, batch={self.coeffs.shape[1]})"
        return f"Jet(nvars={self.nvars}, order={self.order}, value={self.value!r})"

    # -- arithmetic ----------------------------------------------------------

    def _like(self, coeffs: np.ndarray) -> "Jet":
        return Jet(self.nvars, self.order, coeffs)

    def _check(self, other: "Jet") -> None:
        if (other.nvars, other.order) != (self.nvars, self.order):
            raise ValueError(
                f"jet shape mismatch: ({self.nvars}, {self.order}) vs "
                f"({other.nvars}, {other.order})"
            )
        if other.coeffs.shape != self.coeffs.shape:
            raise ValueError(
                f"jet batch mismatch: {self.coeffs.shape} vs {other.coeffs.shape}"
            )

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self._like(self.coeffs + other.coeffs)
        if isinstance(other, (int, float)):
            return self._like(offset_coeffs(self.coeffs, float(other)))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self._like(self.coeffs - other.coeffs)
        if isinstance(other, (int, float)):
            return self._like(offset_coeffs(self.coeffs, -float(other)))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return self._like(offset_coeffs(self.coeffs, float(other), negate=True))
        return NotImplemented

    def __neg__(self):
        return self._like(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._like(self.coeffs * float(other))
        if isinstance(other, Jet):
            self._check(other)
            return self._like(mul_coeffs(self.coeffs, other.coeffs, self.nvars, self.order))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            if other == 0:
                raise DomainError("division by zero")
            return self._like(self.coeffs / float(other))
        if isinstance(other, Jet):
            self._check(other)
            inverse = reciprocal_coeffs(other.coeffs, self.nvars, self.order)
            return self._like(mul_coeffs(self.coeffs, inverse, self.nvars, self.order))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return self._like(reciprocal_coeffs(self.coeffs, self.nvars, self.order) * float(other))
        return NotImplemented

    def __pow__(self, exponent):
        if isinstance(exponent, (int, float)):
            return power(self, exponent)
        return NotImplemented


def constant_coeffs(value, nvars: int, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Coefficients of a number (or of a row of B numbers, one per point) as a constant jet."""
    value = np.asarray(value, dtype=float)
    coeffs = np.zeros((_size(nvars, order),) + value.shape)
    coeffs[0] = value
    return coeffs


def constant(value, nvars: int, order: int = DEFAULT_ORDER) -> Jet:
    """Embed a number (or a row of B numbers, one per point) as a constant jet."""
    return Jet(nvars, order, constant_coeffs(value, nvars, order))


def seed_coeffs(index: int, value, nvars: int, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Coefficients of the coordinate function x_index around x_index = value.

    `value` is a number, or a row of B numbers for a batch of points.
    """
    coeffs = constant_coeffs(value, nvars, order)
    if not 0 <= index < nvars:
        raise ValueError(f"variable index {index} out of range for nvars={nvars}")
    if order >= 1:
        coeffs[unit_slots(nvars, order)[index]] = 1.0
    return coeffs


def seed_variable(index: int, value, nvars: int, order: int = DEFAULT_ORDER) -> Jet:
    """Jet of the coordinate function x_index around x_index = value (see `seed_coeffs`)."""
    return Jet(nvars, order, seed_coeffs(index, value, nvars, order))


def seed_point(values: Sequence[float], order: int = DEFAULT_ORDER) -> list[Jet]:
    """Seed every coordinate of a point at once."""
    n = len(values)
    return [seed_variable(i, float(v), n, order) for i, v in enumerate(values)]


def unit_slots(nvars: int, order: int) -> np.ndarray:
    """Slot of each unit multi-index e_c."""
    return partial_slots(nvars, order, 1)[0]


@lru_cache(maxsize=None)
def partial_slots(nvars: int, order: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot of alpha = e_a + e_b + ... and the factor alpha! for every index tuple (a, b, ...).

    Both arrays have shape (nvars,) * degree, so coefficients gathered at the
    slots times the factors are the partials D^alpha f, symmetric in (a, b, ...).
    """
    _, pos = _index_table(nvars, order)
    slots = np.empty((nvars,) * degree, dtype=int)
    scale = np.empty(slots.shape)
    for idx in np.ndindex(slots.shape):
        alpha = tuple(idx.count(i) for i in range(nvars))
        slots[idx] = pos[alpha]
        scale[idx] = math.prod(math.factorial(a) for a in alpha)
    return slots, scale


def partials(jet: Jet, degree: int) -> np.ndarray:
    """Every partial of `degree` at the base points, shape (B,) + (nvars,) * degree.

    Entry [z, a, b, ...] is D^(e_a + e_b + ...) f at point z; one point has
    B = 1. The degree must not exceed the truncation order.
    """
    if degree > jet.order:
        raise ValueError(f"degree-{degree} partials need order >= {degree}, got {jet.order}")
    slots, scale = partial_slots(jet.nvars, jet.order, degree)
    return _columns(jet.coeffs).T[:, slots] * scale


def extract_partial(jet: Jet, alpha: MultiIndex):
    """Exact partial derivative D^alpha f at the base point.

    Recovers alpha! * f_alpha (a float for one point, B values for a batch);
    degree(alpha) must not exceed the truncation order carried by the jet.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != jet.nvars or any(a < 0 for a in alpha):
        raise ValueError(f"bad multi-index {alpha} for nvars={jet.nvars}")
    if sum(alpha) > jet.order:
        raise ValueError(
            f"derivative order {sum(alpha)} exceeds truncation order {jet.order}"
        )
    _, pos = _index_table(jet.nvars, jet.order)
    fact = 1.0
    for a in alpha:
        fact *= math.factorial(a)
    out = jet.coeffs[pos[alpha]] * fact
    return out if jet.batched else float(out)


# -- elementary functions ------------------------------------------------------
#
# Each is a composition f(a) = sum_m c_m (a - a0)^m with c_m the univariate
# Taylor coefficients of f at the constant term a0. Since (a - a0) has zero
# constant term, the Horner evaluation truncates itself. The series are
# computed with numpy on the row of constant terms, one value per point, and
# at order 0 the first term is the whole result.


def _domain(a: np.ndarray, a0: np.ndarray, bad: np.ndarray, message: Callable[[float], str]):
    """Points where an operation is undefined: raise for one point, NaN in a batch.

    Returns the constant terms with the bad points replaced by NaN, so their
    series, and so their columns of the result, come out NaN.
    """
    if not bad.any():
        return a0
    if a.ndim == 1:
        raise DomainError(message(float(a0[0])))
    return np.where(bad, np.nan, a0)


def _compose(a: np.ndarray, series: Sequence[np.ndarray], nvars: int, order: int) -> np.ndarray:
    # series[m] holds one value per point
    if not order:
        return series[0].reshape(a.shape)
    # h has a zero constant term, so each Horner step's constant term is
    # series[m] alone: assigning it keeps 0 * inf = NaN out of the value and
    # the value the same at every order; `[:1]` addresses the constant terms
    # of one point and of a batch alike
    h = a.copy()
    h[:1] = 0.0
    # the first Horner step multiplies a constant: a per-point scaling of h
    out = h * series[order]
    out[:1] = series[order - 1]
    for m in range(order - 2, -1, -1):
        out = mul_coeffs(out, h, nvars, order)
        out[:1] = series[m]
    return out


def reciprocal_coeffs(a: np.ndarray, nvars: int, order: int) -> np.ndarray:
    a0 = _columns(a)[0]
    a0 = _domain(a, a0, a0 == 0.0, lambda v: "division by a jet with zero constant term")
    series = [1.0 / a0] + [(-1.0) ** m / a0 ** (m + 1) for m in range(1, order + 1)]
    return _compose(a, series, nvars, order)


def exp_coeffs(a: np.ndarray, nvars: int, order: int) -> np.ndarray:
    e0 = np.exp(_columns(a)[0])
    series = [e0 / math.factorial(m) for m in range(order + 1)]
    return _compose(a, series, nvars, order)


def ln_coeffs(a: np.ndarray, nvars: int, order: int) -> np.ndarray:
    a0 = _columns(a)[0]
    a0 = _domain(a, a0, a0 <= 0.0, lambda v: f"ln of non-positive value {v}")
    series = [np.log(a0)]
    series += [(-1.0) ** (m + 1) / (m * a0**m) for m in range(1, order + 1)]
    return _compose(a, series, nvars, order)


def power_coeffs(a: np.ndarray, r: float, nvars: int, order: int) -> np.ndarray:
    """Coefficients of a**r; consistent with exp(r * ln(a)) on the shared domain.

    Integer exponents work for any nonzero constant term (any value when
    r >= 0); fractional exponents require a positive constant term.
    """
    if isinstance(r, float) and r.is_integer():
        r = int(r)
    if isinstance(r, int):
        if r < 0:
            return _int_power(reciprocal_coeffs(a, nvars, order), -r, nvars, order)
        return _int_power(a, r, nvars, order)
    a0 = _columns(a)[0]
    a0 = _domain(a, a0, a0 <= 0.0, lambda v: f"fractional power of non-positive value {v}")
    series = []
    binom = 1.0
    for m in range(order + 1):
        series.append(binom * a0 ** (r - m))
        binom *= (r - m) / (m + 1)
    return _compose(a, series, nvars, order)


def _int_power(a: np.ndarray, r: int, nvars: int, order: int) -> np.ndarray:
    if r == 0:
        out = np.zeros_like(a)
        # x^0 = 1, except that a column holding a NaN stays NaN: its point has failed
        out[:1] = np.where(np.isnan(a.max(axis=0)), np.nan, 1.0)
        return out
    out = None
    base = a
    while r:
        if r & 1:
            out = base if out is None else mul_coeffs(out, base, nvars, order)
        r >>= 1
        if r:
            base = mul_coeffs(base, base, nvars, order)
    return out


def sqrt_coeffs(a: np.ndarray, nvars: int, order: int) -> np.ndarray:
    return power_coeffs(a, 0.5, nvars, order)


def sin_coeffs(a: np.ndarray, nvars: int, order: int) -> np.ndarray:
    a0 = _columns(a)[0]
    series = [np.sin(a0 + m * math.pi / 2.0) / math.factorial(m) for m in range(order + 1)]
    return _compose(a, series, nvars, order)


def cos_coeffs(a: np.ndarray, nvars: int, order: int) -> np.ndarray:
    a0 = _columns(a)[0]
    series = [np.cos(a0 + m * math.pi / 2.0) / math.factorial(m) for m in range(order + 1)]
    return _compose(a, series, nvars, order)


# the kernel of each function of the expression language
FUNCTION_KERNELS: dict[str, Callable[[np.ndarray, int, int], np.ndarray]] = {
    "exp": exp_coeffs,
    "ln": ln_coeffs,
    "sqrt": sqrt_coeffs,
    "sin": sin_coeffs,
    "cos": cos_coeffs,
}


def exp(jet: Jet) -> Jet:
    return jet._like(exp_coeffs(jet.coeffs, jet.nvars, jet.order))


def ln(jet: Jet) -> Jet:
    return jet._like(ln_coeffs(jet.coeffs, jet.nvars, jet.order))


def power(jet: Jet, r: float) -> Jet:
    """jet**r (see `power_coeffs`)."""
    return jet._like(power_coeffs(jet.coeffs, r, jet.nvars, jet.order))


def sqrt(jet: Jet) -> Jet:
    return jet._like(sqrt_coeffs(jet.coeffs, jet.nvars, jet.order))


def sin(jet: Jet) -> Jet:
    return jet._like(sin_coeffs(jet.coeffs, jet.nvars, jet.order))


def cos(jet: Jet) -> Jet:
    return jet._like(cos_coeffs(jet.coeffs, jet.nvars, jet.order))
