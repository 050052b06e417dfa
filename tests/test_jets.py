import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtdkit import jets
from gtdkit.errors import DomainError
from gtdkit.jets import Jet, constant, extract_partial, seed_point, seed_variable


def jet_from_coeffs(coeffs, nvars=2, order=4):
    table, _ = jets._index_table(nvars, order)
    arr = np.zeros(len(table))
    arr[: len(coeffs)] = coeffs
    return Jet(nvars, order, arr)


# -- seeding ---------------------------------------------------------------------


def test_seed_single_variable():
    j = seed_variable(0, 2.0, nvars=1, order=2)
    assert list(j.coeffs) == [2.0, 1.0, 0.0]


def test_seed_second_of_two():
    j = seed_variable(1, 3.0, nvars=2, order=1)
    assert j.value == 3.0
    assert extract_partial(j, (0, 1)) == 1.0
    assert extract_partial(j, (1, 0)) == 0.0


def test_seed_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        seed_variable(5, 1.0, nvars=2, order=4)


# -- arithmetic ------------------------------------------------------------------


def test_square_of_one_plus_x():
    x = seed_variable(0, 0.0, nvars=1, order=2)
    sq = (1 + x) * (1 + x)
    assert list(sq.coeffs) == [1.0, 2.0, 1.0]


def test_self_division_is_unit():
    a = jet_from_coeffs([2.0, -1.0, 0.5, 0.3, -0.2], nvars=1, order=4)
    one = a / a
    expected = np.zeros_like(one.coeffs)
    expected[0] = 1.0
    assert np.allclose(one.coeffs, expected, atol=1e-14)


def test_div_mul_round_trip():
    a = jet_from_coeffs([0.7, 1.3, -0.4, 0.9, -1.1, 0.2], nvars=2, order=4)
    b = jet_from_coeffs([1.9, -0.8, 0.6, -0.5, 1.4, -0.3], nvars=2, order=4)
    back = (a / b) * b
    assert np.allclose(back.coeffs, a.coeffs, rtol=1e-13, atol=1e-13)


def test_division_by_zero_constant():
    a = seed_variable(0, 1.0, nvars=1, order=3)
    b = seed_variable(0, 0.0, nvars=1, order=3)
    with pytest.raises(DomainError):
        a / b


def test_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        seed_variable(0, 1.0, 1, 2) + seed_variable(0, 1.0, 2, 2)


@pytest.mark.parametrize("batch", [1, 7, 58, 59, 128, 300])
def test_blocked_product_matches_columns(batch):
    # KN-sized jets: 210 product triplets; a wide batch must give every column
    # the bits of its point multiplied alone
    size = len(jets._index_table(3, 4)[0])
    rng = np.random.default_rng(batch)
    a = Jet(3, 4, rng.normal(size=(size, batch)))
    b = Jet(3, 4, rng.normal(size=(size, batch)))
    prod = a * b
    for i in range(batch):
        single = Jet(3, 4, a.coeffs[:, i]) * Jet(3, 4, b.coeffs[:, i])
        assert np.array_equal(prod.coeffs[:, i], single.coeffs)


_ADD = np.add
_REDUCEAT = np.add.reduceat
_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200, 5e-324])


def _same_or_both_nan(x, y):
    # the sign and payload of a NaN are not part of the contract: numpy's own
    # add picks either operand's NaN, depending on where it falls in a vector
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and x[~nan].tobytes() == y[~nan].tobytes()


def _operands(rng, shape):
    """Operands of `shape` over many magnitudes, with signed zeros, infinities and NaNs."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, shape)
    edge = rng.random(shape) < 0.15
    x[edge] = rng.choice(_EDGES, edge.sum())
    return x


@pytest.mark.parametrize("nvars", range(1, 9))
@pytest.mark.parametrize("order", [1, 2, 3])
def test_layered_product_matches_reduceat(nvars, order):
    # bit for bit against np.add.reduceat on both sides of the threshold, with
    # signed zeros, infinities, NaNs and products that overflow, at full
    # supports and over supports of fewer variables, stand-in zeros included
    full = (1 << nvars) - 1
    rng = np.random.default_rng(10 * nvars + order)
    for supports in [(-1, -1), (1, 1), (1, full), (full & 3, 1), (full & 5, full & 6)]:
        plan = jets._layer_plan(nvars, order, supports)
        assert plan is not None
        ii, jj, starts, zeros = jets._product_table(nvars, order, supports)
        rows = [len(jets.support_slots(s, nvars, order)) for s in supports]
        for batch in (jets.LAYERED_MIN_BATCH - 1, jets.LAYERED_MIN_BATCH, 146, 750):
            a, b = (_operands(rng, (n, batch)) for n in rows)
            with np.errstate(all="ignore"):
                pairs = a[ii] * b[jj]
                if zeros is not None:
                    pairs[zeros] = 0.0
                expected = _REDUCEAT(pairs, starts, axis=0)
                assert _same_or_both_nan(jets._layered_product(a, b, plan), expected)
                assert _same_or_both_nan(jets.mul_coeffs(a, b, nvars, order, supports), expected)


@pytest.mark.parametrize("batch", [1, 5, 200])
def test_product_over_supports_keeps_the_dense_sums(batch):
    # a jet over {S, J} times one over {S}, 3 variables, order 3: each stored
    # slot of the product has the bits of the dense product wherever that is
    # finite and nonzero, and its value elsewhere
    supports = (0b011, 0b001)
    rng = np.random.default_rng(batch)
    a, b = (rng.normal(size=(len(jets.support_slots(s, 3, 3)), batch)) for s in supports)
    sparse = jets.mul_coeffs(a, b, 3, 3, supports)
    a_dense, b_dense = (jets.dense_coeffs(x, s, 3, 3) for x, s in zip((a, b), supports))
    dense = jets.mul_coeffs(a_dense, b_dense, 3, 3)[jets.support_slots(0b011, 3, 3)]
    kept = np.isfinite(dense) & (dense != 0.0)
    assert sparse[kept].tobytes() == dense[kept].tobytes()
    assert np.array_equal(sparse, dense)
    # slot S^2 J runs p0 + (p1 + ...), where p0 = a_1 b_(S^2 J) is not stored
    # and three pairs are: a zero stands in for p0, and with the first stored
    # pair promoted to p0 instead, the sum is q0 + (q1 + q2), whose bits differ
    ii, jj, starts, zeros = jets._product_table(3, 3, supports)
    slot = list(jets.support_slots(0b011, 3, 3)).index(jets._index_table(3, 3)[1][(2, 1, 0)])
    assert starts[slot] in zeros and starts[slot + 1] - starts[slot] == 4
    q = a[ii[starts[slot] + 1 : starts[slot] + 4]] * b[jj[starts[slot] + 1 : starts[slot] + 4]]
    assert sparse[slot].tobytes() == ((q[0] + q[1]) + q[2]).tobytes()
    if batch == 200:
        assert (q[0] + (q[1] + q[2]) != sparse[slot]).any()


class _Add:
    """np.add with a reduceat of its own, that counts its calls."""

    def __init__(self, reduceat=_REDUCEAT):
        self.reduceat_calls = 0
        self._reduceat = reduceat

    def __call__(self, *args, **kwargs):
        return _ADD(*args, **kwargs)

    def reduceat(self, *args, **kwargs):
        self.reduceat_calls += 1
        return self._reduceat(*args, **kwargs)


def test_layered_product_takes_wide_batches_up_to_order_3(monkeypatch):
    jets._layer_plan(3, 3)  # built before reduceat is counted: its probe calls reduceat
    add = _Add()
    monkeypatch.setattr(np, "add", add)
    size = jets._size(3, 3)
    wide = np.ones((size, jets.LAYERED_MIN_BATCH))
    jets.mul_coeffs(wide, wide, 3, 3)
    assert add.reduceat_calls == 0
    for a, order in [
        (np.ones(size), 3),  # one point
        (np.ones((size, jets.LAYERED_MIN_BATCH - 1)), 3),  # a batch below the threshold
        (np.ones((jets._size(3, 4), 146)), 4),  # order 4: runs of up to 16 pairs
    ]:
        jets.mul_coeffs(a, a, 3, order)
    assert add.reduceat_calls == 3
    assert jets._layer_plan(3, 4) is None


def _wide_products(seed):
    """Operands of order-2 and order-3 products over 3 variables at several layered widths."""
    rng = np.random.default_rng(seed)
    widths = (jets.LAYERED_MIN_BATCH, 200, 455, jets.LAYERED_MIN_BATCH + 1)
    return [
        (rng.normal(size=(2, jets._size(3, order), width)), order)
        for order in (2, 3)
        for width in widths
    ]


def test_threads_share_no_scratch():
    # four threads, more than the cores, switching often, multiply different
    # wide batches over and over, each into its own kept gathers, and every
    # product has the bits it has alone
    work = [_wide_products(seed) for seed in range(4)]
    expected = [[jets.mul_coeffs(a, b, 3, order).tobytes() for (a, b), order in w] for w in work]
    start = threading.Barrier(len(work))
    results = [[] for _ in work]

    def run(k):
        start.wait()
        for _ in range(20):
            results[k].append([jets.mul_coeffs(a, b, 3, order).tobytes() for (a, b), order in work[k]])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(work))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for products, expected_products in zip(results, expected):
        assert len(products) == 20
        assert all(run == expected_products for run in products)


def test_a_product_outlives_the_next_one_in_the_scratch():
    # a result is its own array: the next product, which gathers into the same
    # buffers, leaves it as it was
    (x, order), (y, _) = _wide_products(3)[:2]
    first = jets.mul_coeffs(*x, 3, order)
    kept = first.copy()
    jets.mul_coeffs(*y, 3, order)
    assert first.tobytes() == kept.tobytes()
    assert not any(np.shares_memory(first, buffer) for buffer in jets._SCRATCH.buffers)


def test_a_gather_above_the_cap_is_not_kept():
    # a batch whose gather exceeds SCRATCH_BYTES allocates it for its product
    # alone: the kept buffers stay as they were, and the bits are reduceat's
    ii, jj, starts = jets._mul_table(3, 3)
    width = jets.SCRATCH_BYTES // (8 * len(ii)) + 1
    a, b = np.random.default_rng(4).normal(size=(2, jets._size(3, 3), width))
    before = [len(buffer) for buffer in jets._SCRATCH.buffers]
    product = jets.mul_coeffs(a, b, 3, 3)
    assert [len(buffer) for buffer in jets._SCRATCH.buffers] == before
    assert max(before) * 8 <= jets.SCRATCH_BYTES
    assert product.tobytes() == _REDUCEAT(a[ii] * b[jj], starts, axis=0).tobytes()


def _reduceat_from(zero, sequence=False):
    """A reduceat along axis 0: each run's first pair plus the rest summed in order from
    `zero`, or with `sequence` the whole run summed in order, (p0 + p1) + p2."""

    def reduceat(pairs, starts, axis=0):
        out = pairs[starts]
        for k, (start, end) in enumerate(zip(starts, np.append(starts[1:], len(pairs)))):
            if sequence:
                for pair in pairs[start + 1 : end]:
                    out[k] += pair
            elif end - start > 1:
                rest = np.full_like(out[k], zero)
                for pair in pairs[start + 1 : end]:
                    rest += pair
                out[k] += rest
        return out

    return reduceat


@pytest.mark.parametrize("nvars, order", [(1, 2), (3, 3)])
def test_layer_plan_falls_back_to_reduceat_where_they_differ(monkeypatch, nvars, order):
    # numpy starts the rest of a run at -0.0: one that started it at +0.0 would
    # turn a sum of -0.0 products to +0.0, which the layered sum keeps at -0.0,
    # and one that summed a whole run in order would round otherwise
    monkeypatch.setattr(np, "add", _Add(_reduceat_from(-0.0)))
    assert jets._layer_plan.__wrapped__(nvars, order) is not None
    for reduceat in (_reduceat_from(0.0), _reduceat_from(-0.0, sequence=True)):
        monkeypatch.setattr(np, "add", _Add(reduceat))
        assert jets._layer_plan.__wrapped__(nvars, order) is None


def test_scalar_mixing():
    x = seed_variable(0, 3.0, nvars=1, order=2)
    assert (2 * x - x - x).value == 0.0
    assert (1 / (1 + 0 * x)).value == 1.0


# -- elementary functions ---------------------------------------------------------


def test_exp_series():
    x = seed_variable(0, 0.0, nvars=1, order=4)
    e = jets.exp(x)
    assert np.allclose(e.coeffs, [1, 1, 1 / 2, 1 / 6, 1 / 24], rtol=1e-15)


@pytest.mark.parametrize("order", range(5))
def test_exp_overflow_is_inf_at_every_order(order):
    # the zero constant term of the Horner polynomial must not turn inf into 0 * inf
    with np.errstate(over="ignore", invalid="ignore"):
        e = jets.exp(seed_variable(0, 1000.0, nvars=1, order=order))
    assert e.value == math.inf


def test_sqrt_constant_term():
    a = seed_variable(0, 4.0, nvars=1, order=3)
    assert jets.power(a, 0.5).value == 2.0


def test_ln_negative_constant():
    with pytest.raises(DomainError):
        jets.ln(constant(-1.0, 1, 3))


def test_fractional_power_negative_base():
    with pytest.raises(DomainError):
        jets.power(constant(-2.0, 1, 3), 2 / 3)


def test_integer_power_negative_base():
    a = seed_variable(0, -2.0, nvars=1, order=2)
    cube = jets.power(a, 3)
    assert cube.value == -8.0
    assert extract_partial(cube, (1,)) == 12.0  # 3 x^2


def test_negative_integer_power():
    a = seed_variable(0, 2.0, nvars=1, order=3)
    inv2 = jets.power(a, -2)
    assert inv2.value == 0.25
    assert math.isclose(extract_partial(inv2, (1,)), -2 / 8, rel_tol=1e-14)


def test_sin_cos_pythagoras():
    x = seed_variable(0, 0.7, nvars=1, order=4)
    s, c = jets.sin(x), jets.cos(x)
    unit = s * s + c * c
    expected = np.zeros_like(unit.coeffs)
    expected[0] = 1.0
    assert np.allclose(unit.coeffs, expected, atol=1e-15)


# -- extraction -------------------------------------------------------------------


def test_extract_mixed_partial():
    x, y = seed_point((1.0, 1.0), order=4)
    f = x * x * y
    assert extract_partial(f, (1, 1)) == 2.0


def test_extract_fourth_derivative():
    x = seed_variable(0, 1.7, nvars=1, order=4)
    f = jets.power(x, 4)
    assert math.isclose(extract_partial(f, (4,)), 24.0, rel_tol=1e-12)


def test_extract_beyond_order():
    x = seed_variable(0, 0.0, nvars=1, order=4)
    with pytest.raises(ValueError, match="exceeds"):
        extract_partial(x, (5,))


def test_immutability():
    x = seed_variable(0, 1.0, 1, 2)
    with pytest.raises(AttributeError):
        x.order = 3
    with pytest.raises(ValueError):
        x.coeffs[0] = 5.0


# -- spec invariants ---------------------------------------------------------------

coeff_arrays = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=15, max_size=15
)


@settings(max_examples=100, deadline=None)
@given(coeff_arrays, coeff_arrays)
def test_leibniz_property(ca, cb):
    a = jet_from_coeffs(ca, nvars=2, order=4)
    b = jet_from_coeffs(cb, nvars=2, order=4)
    prod = a * b
    for v in range(2):
        alpha = (1, 0) if v == 0 else (0, 1)
        lhs = extract_partial(prod, alpha)
        rhs = a.value * extract_partial(b, alpha) + b.value * extract_partial(a, alpha)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=14, max_size=14),
)
def test_chain_consistency_exp_ln(c0, rest):
    a = jet_from_coeffs([c0] + rest, nvars=2, order=4)
    back = jets.exp(jets.ln(a))
    assert np.allclose(back.coeffs, a.coeffs, rtol=1e-12, atol=1e-12)


def test_power_matches_exp_ln():
    a = jet_from_coeffs([3.0, 0.4, -0.7, 0.2, 0.1, -0.3], nvars=2, order=4)
    direct = jets.power(a, 0.37)
    via_log = jets.exp(0.37 * jets.ln(a))
    assert np.allclose(direct.coeffs, via_log.coeffs, rtol=1e-12, atol=1e-13)


def test_derivative_exactness_exp_x_y_cubed():
    x0, y0 = 0.3, 1.4
    x, y = seed_point((x0, y0), order=4)
    f = jets.exp(x) * y * y * y

    def analytic(i, j):
        dy = {0: y0**3, 1: 3 * y0**2, 2: 6 * y0, 3: 6.0}.get(j, 0.0)
        return math.exp(x0) * dy

    for i in range(5):
        for j in range(5 - i):
            got = extract_partial(f, (i, j))
            want = analytic(i, j)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
