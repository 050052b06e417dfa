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
`add_coeffs`, `reciprocal_coeffs`, `power_coeffs`, `offset_coeffs` and one
kernel per function of `FUNCTION_KERNELS`), given the jets' nvars and order. `Jet`'s
operators and the functions `exp`, `ln`, `power`, `sqrt`, `sin` and `cos`
wrap them, and each step of a `fundeq` tape is one of them, run directly at
whatever nvars and order the tape is evaluated, so a tape builds no `Jet`
per step. At order 0 a jet is its value alone, and each kernel is the
constant term of its series: a product is `a * b`, a function the first
term of its Taylor series.

Kernels also run over supports, bitmasks of the variables a jet varies with
(-1 for all), as a tape step over the variables it reads does. A jet over
support A is zero at every multi-index of degree in another variable, so it
stores only its slots over A (`support_slots`), in graded order: a product
of jets over A and B forms only the pairs of stored slots, into those of
A | B, and a sum places each operand among them. `Jet` runs at full
support, where every slot is stored.

A truncated product sums, for each output slot and each column, its run of
pairs f_i g_j with alpha_i + alpha_j = alpha_k: the first pair plus the rest
in order, as `np.add.reduceat` sums a run of up to 8 pairs. One point, a
batch narrower than `LAYERED_MIN_BATCH` and order 4 (runs of up to 16 pairs,
which numpy sums pairwise) take `reduceat`. A wider batch up to order 3 adds
the same pairs layer by layer (`_layer_plan`, gathered by `_gathers`), bit for
bit alike but for the sign and payload of a NaN. Over supports the pairs
that are not stored drop out of each run, and a zero stands in for a run's
first pair where the pairs left would be grouped otherwise (`_product_table`),
so every nonzero finite coefficient has the bits of the full product. A zero
that is not stored may have had either sign. An infinite coefficient never
meets one that is not stored, so where the full product makes NaN of inf
times such a zero, and fails the point, the stored coefficients stay inf.

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
def _stored(support: int, nvars: int, order: int) -> np.ndarray:
    """Which slots a jet over the variables of `support` stores (see `support_slots`)."""
    indices = _index_table(nvars, order)[0]
    return np.array([all(support >> i & 1 for i, d in enumerate(a) if d) for a in indices])


@lru_cache(maxsize=None)
def support_slots(support: int, nvars: int, order: int) -> np.ndarray:
    """The slots that a jet over the variables of `support` stores, in graded order.

    `support` is a bitmask of variables, -1 for every variable. A jet over
    them has nonzero coefficients only at the multi-indices of no degree in
    any other variable, and those are its stored slots.
    """
    return np.flatnonzero(_stored(support, nvars, order))


def stored_coeffs(a: np.ndarray, support: int, nvars: int, order: int) -> np.ndarray:
    """The stored slots of coefficients `a` (see `support_slots`); `a` if it holds only those."""
    slots = support_slots(support, nvars, order)
    return a if len(slots) == len(a) else a[slots]


def dense_coeffs(a: np.ndarray, support: int, nvars: int, order: int) -> np.ndarray:
    """Every coefficient of a jet whose stored slots hold `a`: zero outside them."""
    if not order:
        return a
    size = _size(nvars, order)
    if len(a) == size:
        return a
    out = np.zeros((size,) + a.shape[1:])
    out[support_slots(support, nvars, order)] = a
    return out


@lru_cache(maxsize=None)
def _mul_table(nvars: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather plan of the truncated product.

    Returns the slots (ii, jj) of every pair with alpha_i + alpha_j = alpha_k
    and degree <= order, stably sorted by the output slot k, and the offset of
    each output slot's run for `np.add.reduceat`. Every slot k has at least
    the pair (0, k), its first, so no run is empty.
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


@lru_cache(maxsize=None)
def _product_table(nvars: int, order: int, supports: tuple[int, int]):
    """`_mul_table` of a jet over support A by one over B, and the rows that read as zero.

    At full supports, the full table and no zeros (None). Over supports (A,
    B), the full table masked to the pairs whose two slots are stored, read as
    rows of the stored slots of A, of B and of the product's A | B. The full
    product adds a run as p0 + (p1 + ...), and the pairs that are not stored
    add zeros, which change no nonzero sum. Where p0 is not stored and three
    or more pairs are, a pair set to zero (a row of `zeros`) stands in for
    p0, so that the stored pairs keep that grouping and every nonzero sum its
    bits.
    """
    ii, jj, starts = _mul_table(nvars, order)
    if supports == (-1, -1):
        return ii, jj, starts, None
    stored_a, stored_b, stored = (
        _stored(s, nvars, order) for s in (*supports, supports[0] | supports[1])
    )
    kept = stored_a[ii] & stored_b[jj]
    first = np.zeros(len(ii), dtype=bool)
    first[starts] = True
    kk = np.cumsum(first) - 1  # the output slot of each pair
    zero = first & ~kept & (np.add.reduceat(kept.astype(int), starts)[kk] >= 3)
    rows = kept | zero
    # a first pair is (0, k), and a stand-in reads row 0 of b: every row is in range
    ii = (np.cumsum(stored_a) - 1)[ii][rows]
    jj = np.where(zero, 0, (np.cumsum(stored_b) - 1)[jj])[rows]
    kk = (np.cumsum(stored) - 1)[kk[rows]]
    zeros = np.flatnonzero(zero[rows])
    return ii, jj, np.searchsorted(kk, np.arange(stored.sum())), zeros if len(zeros) else None


def _columns(coeffs: np.ndarray) -> np.ndarray:
    """(N, B) view of one point's (N,) or a batch's (N, B) coefficients."""
    return coeffs.reshape(coeffs.shape[0], -1)


# the narrowest batch whose products take the layered kernel: at 2-3
# variables and orders 2-3 it overtakes reduceat between 32 and 56 points
LAYERED_MIN_BATCH = 64


@lru_cache(maxsize=None)
def _layer_plan(nvars: int, order: int, supports: tuple[int, int] = (-1, -1)):
    """Gather plan of the layered product; None where it would not give reduceat's bits.

    Layer m holds the m-th pair of every output slot whose run is longer than
    m; with the slots sorted by run length, longest first, each layer covers a
    prefix of them. The plan is the pairs' (ii, jj) in layer order, each
    layer's slot count, the permutation back to the graded slot order and the
    stand-in zeros' places among the pairs. Order 4, whose longer runs numpy
    sums pairwise, has no plan; nor has a numpy whose reduceat differs from
    the layered sum on a probe of -0.0 products (as a rest started at +0.0
    would) or of products whose rounding depends on the order of the sum.
    """
    if order > 3:
        return None
    ii, jj, starts, zeros = _product_table(nvars, order, supports)
    lengths = np.diff(starts, append=len(ii))
    slots = np.argsort(-lengths, kind="stable")
    counts = tuple(int((lengths > m).sum()) for m in range(lengths.max()))
    layers = np.concatenate([starts[slots[:count]] + m for m, count in enumerate(counts)])
    layered_zeros = None if zeros is None else np.flatnonzero(np.isin(layers, zeros))
    plan = ii[layers], jj[layers], counts, np.argsort(slots), layered_zeros
    shapes = [(len(support_slots(s, nvars, order)), LAYERED_MIN_BATCH) for s in supports]
    waves = [np.sin(np.arange(n * m)).reshape(n, m) for n, m in shapes]
    signed_zeros = np.full(shapes[0], -0.0), np.zeros(shapes[1])
    for a, b in (signed_zeros, (waves[0], np.cos(waves[1] * 1e3))):
        pairs = a[ii]
        pairs *= b[jj]
        if zeros is not None:
            pairs[zeros] = 0.0
        expected = np.add.reduceat(pairs, starts, axis=0)
        if _layered_product(a, b, plan).tobytes() != expected.tobytes():
            return None
    return plan


# Each thread keeps two buffers for the gathers of its layered products, as
# long as each gather fits SCRATCH_BYTES: four times the 96 KiB that
# analysis.CHUNK_BYTES allows a scan's batch to allocate afresh per array,
# which holds every gather of such a batch (the full order-3 product over 3
# variables gathers 84 pairs at 455 points, 3.1 times the bound; in the KN
# tape only the final sqrt, which reads all three, does, and its products
# over one or two variables gather 10 to 35). A wider gather is allocated
# for its product alone.
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
    li, lj, counts, inverse, zeros = plan
    pairs, other = _gathers((len(li), a.shape[1]))
    # mode="clip" takes straight into `out`, where the default mode would
    # buffer; every slot is in range, so the gathered values are the same
    np.take(a, li, axis=0, out=pairs, mode="clip")
    np.take(b, lj, axis=0, out=other, mode="clip")
    pairs *= other
    if zeros is not None:
        pairs[zeros] = 0.0
    first = pairs[: counts[0]]
    if len(counts) == 1:
        return first[inverse]
    # the rest of each run adds up in layer 1's rows, one contiguous prefix
    # add per layer, and then joins its first pair
    rest = pairs[counts[0] : counts[0] + counts[1]]
    offset = counts[0] + counts[1]
    for count in counts[2:]:
        rest[:count] += pairs[offset : offset + count]
        offset += count
    first[: counts[1]] += rest
    return first[inverse]


def mul_coeffs(
    a: np.ndarray, b: np.ndarray, nvars: int, order: int, supports: tuple[int, int] = (-1, -1)
) -> np.ndarray:
    """Stored coefficients of the truncated product of jets of (nvars, order) over `supports`.

    `a` holds the stored slots of a jet over support A, `b` those of one over
    B (see `support_slots`), and the product those of A | B. At full supports
    this is the dense product of two jets.
    """
    if not order:
        return a * b
    # which batches take which kernel, and why their bits agree: the module docstring
    if a.ndim == 2 and a.shape[1] >= LAYERED_MIN_BATCH:
        plan = _layer_plan(nvars, order, supports)
        if plan is not None:
            return _layered_product(a, b, plan)
    ii, jj, starts, zeros = _product_table(nvars, order, supports)
    pairs = a[ii]
    pairs *= b[jj]
    if zeros is not None:
        pairs[zeros] = 0.0
    return np.add.reduceat(pairs, starts, axis=0)


@lru_cache(maxsize=None)
def _sum_table(nvars: int, order: int, supports: tuple[int, int]):
    """The rows of A's and B's stored slots among those of A | B, None for all; their count."""
    union = support_slots(supports[0] | supports[1], nvars, order)
    rows = [np.searchsorted(union, support_slots(s, nvars, order)) for s in supports]
    return *(None if len(r) == len(union) else r for r in rows), len(union)


def add_coeffs(
    a: np.ndarray,
    b: np.ndarray,
    nvars: int,
    order: int,
    supports: tuple[int, int] = (-1, -1),
    subtract: bool = False,
) -> np.ndarray:
    """Stored coefficients of a + b, or a - b when `subtract`, over `supports` (see `mul_coeffs`).

    An operand over fewer variables than the sum is zero at the slots it does
    not store, as in the dense sum, so only its stored slots add into the
    other's. Addition commutes and -b + a is a - b, so every sum has the
    dense one's bits.
    """
    if supports[0] == supports[1] or not order:
        return a - b if subtract else a + b
    rows_a, rows_b, size = _sum_table(nvars, order, supports)
    if rows_b is None:  # B holds A
        out = -b if subtract else b.copy()
        out[rows_a] += a
        return out
    if rows_a is None:  # A holds B
        out = a.copy()
    else:
        out = np.zeros((size,) + a.shape[1:])
        out[rows_a] = a
    if subtract:
        out[rows_b] -= b
    else:
        out[rows_b] += b
    return out


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


def _compose(
    a: np.ndarray, series: Sequence[np.ndarray], nvars: int, order: int, support: int
) -> np.ndarray:
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
        out = mul_coeffs(out, h, nvars, order, (support, support))
        out[:1] = series[m]
    return out


def reciprocal_coeffs(a: np.ndarray, nvars: int, order: int, support: int = -1) -> np.ndarray:
    a0 = _columns(a)[0]
    a0 = _domain(a, a0, a0 == 0.0, lambda v: "division by a jet with zero constant term")
    series = [1.0 / a0] + [(-1.0) ** m / a0 ** (m + 1) for m in range(1, order + 1)]
    return _compose(a, series, nvars, order, support)


def exp_coeffs(a: np.ndarray, nvars: int, order: int, support: int = -1) -> np.ndarray:
    e0 = np.exp(_columns(a)[0])
    series = [e0 / math.factorial(m) for m in range(order + 1)]
    return _compose(a, series, nvars, order, support)


def ln_coeffs(a: np.ndarray, nvars: int, order: int, support: int = -1) -> np.ndarray:
    a0 = _columns(a)[0]
    a0 = _domain(a, a0, a0 <= 0.0, lambda v: f"ln of non-positive value {v}")
    series = [np.log(a0)]
    series += [(-1.0) ** (m + 1) / (m * a0**m) for m in range(1, order + 1)]
    return _compose(a, series, nvars, order, support)


def power_coeffs(a: np.ndarray, r: float, nvars: int, order: int, support: int = -1) -> np.ndarray:
    """Coefficients of a**r; consistent with exp(r * ln(a)) on the shared domain.

    Integer exponents work for any nonzero constant term (any value when
    r >= 0); fractional exponents require a positive constant term.
    """
    if isinstance(r, float) and r.is_integer():
        r = int(r)
    if isinstance(r, int):
        if r < 0:
            inverse = reciprocal_coeffs(a, nvars, order, support)
            return _int_power(inverse, -r, nvars, order, support)
        return _int_power(a, r, nvars, order, support)
    a0 = _columns(a)[0]
    a0 = _domain(a, a0, a0 <= 0.0, lambda v: f"fractional power of non-positive value {v}")
    series = []
    binom = 1.0
    for m in range(order + 1):
        series.append(binom * a0 ** (r - m))
        binom *= (r - m) / (m + 1)
    return _compose(a, series, nvars, order, support)


def _int_power(a: np.ndarray, r: int, nvars: int, order: int, support: int) -> np.ndarray:
    if r == 0:
        out = np.zeros_like(a)
        # x^0 = 1, except that a column holding a NaN stays NaN: its point has failed
        out[:1] = np.where(np.isnan(a.max(axis=0)), np.nan, 1.0)
        return out
    out = None
    base = a
    while r:
        if r & 1:
            out = base if out is None else mul_coeffs(out, base, nvars, order, (support, support))
        r >>= 1
        if r:
            base = mul_coeffs(base, base, nvars, order, (support, support))
    return out


def sqrt_coeffs(a: np.ndarray, nvars: int, order: int, support: int = -1) -> np.ndarray:
    return power_coeffs(a, 0.5, nvars, order, support)


def sin_coeffs(a: np.ndarray, nvars: int, order: int, support: int = -1) -> np.ndarray:
    a0 = _columns(a)[0]
    series = [np.sin(a0 + m * math.pi / 2.0) / math.factorial(m) for m in range(order + 1)]
    return _compose(a, series, nvars, order, support)


def cos_coeffs(a: np.ndarray, nvars: int, order: int, support: int = -1) -> np.ndarray:
    a0 = _columns(a)[0]
    series = [np.cos(a0 + m * math.pi / 2.0) / math.factorial(m) for m in range(order + 1)]
    return _compose(a, series, nvars, order, support)


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
