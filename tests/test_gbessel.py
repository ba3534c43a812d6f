import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sbxs.gbessel as gb
from closed_forms import series_block
from sbxs.errors import ConvergenceError, DomainError
from sbxs.gbessel import bessel_j, gbessel, gbessel_quad, gbessel_row
from sbxs.scan import MARGIN_FACTOR

# Frozen from the quadrature oracle (cross-checked at 30 digits during
# development); the oracle itself is exercised against the series below.
J3_OF_5 = 0.364831230613667
J2_OF_15 = 0.23208767214421472


# ---------------------------------------------------------------------------
# ordinary Bessel
# ---------------------------------------------------------------------------

def test_bessel_j_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(4, 0.0) == 0.0


def test_bessel_j_parity_exact():
    assert bessel_j(3, -5.0) == -bessel_j(3, 5.0)
    assert bessel_j(-3, 5.0) == -bessel_j(3, 5.0)
    assert bessel_j(-4, -5.0) == bessel_j(4, 5.0)


def test_bessel_j_frozen_value():
    assert bessel_j(3, 5.0) == pytest.approx(J3_OF_5, rel=1e-12)


def test_bessel_j_vs_quadrature_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(0, 60))
        x = float(rng.uniform(0.0, 40.0))
        ref = gbessel_quad(n, x, 0.0, 0.0).real
        val = bessel_j(n, x)
        assert abs(val - ref) <= 1e-12 * abs(ref) + 1e-15


def test_bessel_j_deep_tail_underflow():
    # far below 1e-300 the result is flushed to zero (absolute accuracy)
    assert bessel_j(1000, 1.0) == 0.0


def test_bessel_j_rejects_nonfinite():
    with pytest.raises(DomainError):
        bessel_j(2, math.nan)
    with pytest.raises(DomainError):
        bessel_j(2, math.inf)
    with pytest.raises(DomainError):
        bessel_j(10**7, 1.0)
    # an order past int64 is refused by name, not by an int64 overflow
    for call in (lambda: bessel_j(-10**20, 1.0),
                 lambda: gbessel_row(0, 10**20, 1.0, 0.0, 0.0),
                 lambda: gb.gbessel_block([0, -10**20], [0, 0], [1.0, 1.0],
                                          [0.0, 0.0], [0.0, 0.0])):
        with pytest.raises(DomainError, match=r"\|n\| <= 1000000 required, got "
                           r"-?100000000000000000000$"):
            call()
    # past _MAX_ARG, as in every row (the row would cost O(|x|) steps)
    for x in (math.nextafter(gb._MAX_ARG, math.inf), -1.0e7):
        with pytest.raises(DomainError, match=r"\|x\| <= 100000.0 required"):
            bessel_j(0, x)


# ---------------------------------------------------------------------------
# generalized Bessel: examples
# ---------------------------------------------------------------------------

def test_gbessel_trivial_order_zero():
    for delta in (0.0, 0.3, 2.0):
        assert gbessel(0, 0.0, 0.0, delta) == 1.0 + 0.0j


def test_gbessel_zero_u_odd_n():
    assert gbessel(1, 0.0, 2.3, 0.4) == 0.0


def test_gbessel_zero_u_even_n():
    # reduces to exp(-i*delta*n) J_{n/2}(v)
    val = gbessel(4, 0.0, 1.5, 0.3)
    ref = cmath.exp(-1.2j) * J2_OF_15
    assert abs(val - ref) < 1e-12


def test_gbessel_zero_v_is_ordinary():
    val = gbessel(3, 5.0, 0.0, 0.7)
    assert val.imag == 0.0
    assert val.real == pytest.approx(J3_OF_5, rel=1e-12)


def test_gbessel_rejects_bad_args():
    with pytest.raises(DomainError):
        gbessel(1, math.nan, 0.0, 0.0)
    with pytest.raises(DomainError):
        gbessel(1, 2.0e5, 0.0, 0.0)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def test_quad_trivial():
    assert abs(gbessel_quad(0, 0.0, 0.0, 0.0) - 1.0) < 1e-14


def test_quad_odd_n_zero_u():
    assert abs(gbessel_quad(1, 0.0, 1.0, 0.0)) < 1e-14


def test_quad_matches_series():
    val_q = gbessel_quad(7, 12.5, 3.2, 0.9)
    val_s = gbessel(7, 12.5, 3.2, 0.9)
    assert abs(val_q - val_s) < 1e-10


def test_quad_scale_guard():
    with pytest.raises(DomainError):
        gbessel_quad(0, 9.0e3, 9.0e2, 0.0)


def test_quad_node_budget():
    with pytest.raises(ConvergenceError):
        gbessel_quad(40, 300.0, 10.0, 0.3, abs_tol=1e-13, max_nodes=64)


# ---------------------------------------------------------------------------
# rows
# ---------------------------------------------------------------------------

def test_row_trivial():
    row = gbessel_row(-2, 2, 0.0, 0.0, 0.0)
    assert np.allclose(row.values, [0.0, 0.0, 1.0, 0.0, 0.0], atol=0.0)


def test_row_parseval_wide():
    row = gbessel_row(-80, 80, 20.0, 5.0, 0.3)
    assert abs(np.sum(np.abs(row.values) ** 2) - 1.0) < 1e-10


def test_row_matches_single_point():
    rng = np.random.default_rng(5)
    row = gbessel_row(-40, 40, 17.0, 4.0, 1.1)
    for n in rng.integers(-40, 41, size=5):
        assert abs(row[int(n)] - gbessel(int(n), 17.0, 4.0, 1.1)) < 1e-12


def test_row_index_guard():
    row = gbessel_row(-2, 2, 1.0, 0.5, 0.0)
    with pytest.raises(IndexError):
        row[3]


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -math.inf])
def test_orders_must_be_integers(bad):
    with pytest.raises(DomainError, match="order must be an integer"):
        bessel_j(bad, 1.0)
    with pytest.raises(DomainError, match="order must be an integer"):
        gbessel_quad(bad, 1.0, 0.5, 0.0)
    with pytest.raises(DomainError, match="n_min must be an integer"):
        gbessel_row(bad, 3, 1.0, 0.5, 0.0)
    with pytest.raises(DomainError, match="n_max must be an integer"):
        gbessel_row(-3, bad, 1.0, 0.5, 0.0)


def test_integral_orders_match_int():
    for n in (2.0, np.int64(2)):
        assert bessel_j(n, 1.0) == bessel_j(2, 1.0)
        assert gbessel_quad(n, 1.0, 0.5, 0.3) == gbessel_quad(2, 1.0, 0.5, 0.3)
        row = gbessel_row(n, 3, 1.0, 0.5, 0.3)
        assert row.n_min == 2 and row[2] == gbessel(2, 1.0, 0.5, 0.3)


def test_row_rejects_reversed_bounds():
    with pytest.raises(DomainError):
        gbessel_row(3, -3, 1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# relation suite (appendix identities)
# ---------------------------------------------------------------------------

CASES = [
    (0, 0.5, 0.2, 0.0),
    (3, 5.0, 1.5, 0.7),
    (-4, 8.0, 3.0, 1.2),
    (12, 20.0, 5.0, 0.3),
    (-25, 35.0, 8.0, 2.1),
    (7, 12.5, 3.2, 0.9),
]


@pytest.mark.parametrize("n,u,v,delta", CASES)
def test_reduction_to_ordinary(n, u, v, delta):
    # v = 0: J_n(u, 0, D) = J_n(u), independent of D
    for d in (0.0, delta, -1.4):
        val = gbessel(n, u, 0.0, d)
        assert abs(val - bessel_j(n, u)) < 1e-12


@pytest.mark.parametrize("n,u,v,delta", CASES)
def test_reduction_zero_u(n, u, v, delta):
    val = gbessel(n, 0.0, v, delta)
    if n % 2:
        assert val == 0.0
    else:
        ref = cmath.exp(-1j * delta * n) * bessel_j(n // 2, v)
        assert abs(val - ref) < 1e-12


@pytest.mark.parametrize("n,u,v,delta", CASES)
def test_symmetries(n, u, v, delta):
    # third relation is the second rearranged (v -> -v, D -> -D); the form
    # with -v on both sides fails the defining integral by O(0.1)
    base = gbessel(n, u, v, delta)
    sign = (-1.0) ** n
    assert abs(gbessel(n, -u, v, delta) - sign * base) < 1e-12
    assert abs(gbessel(n, u, -v, delta) - sign * gbessel(-n, u, v, -delta)) < 1e-12
    assert abs(gbessel(n, u, v, -delta) - sign * gbessel(-n, u, -v, delta)) < 1e-12


@pytest.mark.parametrize("n,u,v,delta", CASES)
def test_derivative_in_u(n, u, v, delta):
    # J_{n-1} - J_{n+1} = 2 dJ_n/du, checked against central differences
    h = 1e-5
    fd = (gbessel(n, u + h, v, delta) - gbessel(n, u - h, v, delta)) / (2 * h)
    lhs = gbessel(n - 1, u, v, delta) - gbessel(n + 1, u, v, delta)
    assert abs(lhs - 2.0 * fd) < 1e-7


@pytest.mark.parametrize("n,u,v,delta", CASES)
def test_derivative_in_v(n, u, v, delta):
    # e^{-2iD} J_{n-2} - e^{+2iD} J_{n+2} = 2 dJ_n/dv
    h = 1e-5
    fd = (gbessel(n, u, v + h, delta) - gbessel(n, u, v - h, delta)) / (2 * h)
    lhs = cmath.exp(-2j * delta) * gbessel(n - 2, u, v, delta) - cmath.exp(
        2j * delta
    ) * gbessel(n + 2, u, v, delta)
    assert abs(lhs - 2.0 * fd) < 1e-7


@pytest.mark.parametrize("n,u,v,delta", CASES)
def test_three_term_recurrence(n, u, v, delta):
    # 2n J_n = u (J_{n-1} + J_{n+1}) + 2v (e^{-2iD} J_{n-2} + e^{+2iD} J_{n+2})
    row = gbessel_row(n - 2, n + 2, u, v, delta)
    lhs = 2.0 * n * row[n]
    rhs = u * (row[n - 1] + row[n + 1]) + 2.0 * v * (
        cmath.exp(-2j * delta) * row[n - 2] + cmath.exp(2j * delta) * row[n + 2]
    )
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(n))


@pytest.mark.parametrize("u,v,delta", [(5.0, 1.5, 0.7), (20.0, 5.0, 0.3),
                                       (0.5, 0.2, 2.0)])
def test_generating_function(u, v, delta):
    # sum_n e^{in(phi+D)} J_n(u,v,D) = exp{i[u sin(phi+D) + v sin 2 phi]}
    span = int(math.ceil(abs(u) + 2 * abs(v))) + 40
    row = gbessel_row(-span, span, u, v, delta)
    ns = np.arange(-span, span + 1)
    for phi in np.linspace(-math.pi, math.pi, 16, endpoint=False):
        lhs = np.sum(np.exp(1j * ns * (phi + delta)) * row.values)
        rhs = cmath.exp(1j * (u * math.sin(phi + delta) + v * math.sin(2 * phi)))
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize(
    "n,u,v,up,vp,delta",
    [(3, 4.0, 1.0, 2.5, 0.7, 0.6), (-2, 7.0, 2.0, 3.0, 1.0, 1.3),
     (0, 2.0, 0.5, 2.0, 0.5, 0.2)],
)
def test_addition_theorem(n, u, v, up, vp, delta):
    # sum_k J_{n -+ k}(u,v,D) J_k(u',v',+-D) = J_n(u +- u', v +- v', D)
    span = int(math.ceil(abs(u) + abs(up) + 2 * (abs(v) + abs(vp)))) + 40
    for sgn in (+1, -1):
        row_a = gbessel_row(n - span, n + span, u, v, delta)
        row_b = gbessel_row(-span, span, up, vp, sgn * delta)
        acc = 0.0 + 0.0j
        for k in range(-span, span + 1):
            acc += row_a[n - sgn * k] * row_b[k]
        ref = gbessel(n, u + sgn * up, v + sgn * vp, delta)
        assert abs(acc - ref) < 1e-9


@pytest.mark.parametrize("u,v,delta", [(5.0, 1.5, 0.7), (20.0, 5.0, 0.3),
                                       (50.0, 0.0, 1.0), (0.0, 8.0, 0.4)])
def test_parseval(u, v, delta):
    span = int(math.ceil(abs(u) + 2 * abs(v))) + 40
    row = gbessel_row(-span, span, u, v, delta)
    assert abs(np.sum(np.abs(row.values) ** 2) - 1.0) < 1e-10


def test_moment_sum_rules():
    # J_n(u, v, D) are the Fourier coefficients of exp(i phi(theta)) with
    # phi = u sin(theta + D) + v sin 2 theta, so sum |J_n|^2 = 1, sum n |J_n|^2
    # = mean phi' = 0 and sum n^2 |J_n|^2 = mean phi'^2 = u^2/2 + 2 v^2.
    # Each row spans |u| + 2|v| plus the Bessel-support margin; every fourth
    # draw has v = 0.
    rng = np.random.default_rng(53)
    for i in range(16):
        u = float(rng.uniform(-600.0, 600.0))
        v = 0.0 if i % 4 == 0 else float(rng.uniform(-150.0, 150.0))
        delta = float(rng.uniform(-math.pi, math.pi))
        a = abs(u) + 2.0 * abs(v)
        span = int(math.ceil(a + MARGIN_FACTOR * (a ** (1.0 / 3.0) + 1.0)))
        weight = np.abs(gbessel_row(-span, span, u, v, delta).values) ** 2
        n = np.arange(-span, span + 1, dtype=float)
        second = 0.5 * u * u + 2.0 * v * v
        assert abs(np.sum(weight) - 1.0) < 1e-13, (u, v, delta)
        assert abs(np.sum(n * weight)) < 1e-13 * math.sqrt(second), (u, v, delta)
        assert abs(np.sum(n * n * weight) - second) < 1e-13 * second, (u, v, delta)


def test_unimodular_bound():
    # |J_n(u,v,D)| <= 1: Fourier coefficient of a unimodular function; at
    # D = 0 the integrand is symmetric under theta -> -theta, so J is real.
    # Every other draw pins D = 0 (a continuous draw never lands on it).
    rng = np.random.default_rng(23)
    for i in range(40):
        n = int(rng.integers(-60, 61))
        u = float(rng.uniform(-40, 40))
        v = float(rng.uniform(-10, 10))
        delta = float(rng.uniform(-math.pi, math.pi)) if i % 2 else 0.0
        value = gbessel(n, u, v, delta)
        assert abs(value) <= 1.0 + 1e-12
        if delta == 0.0:
            assert value.imag == 0.0


def test_series_vs_quadrature_randomized():
    rng = np.random.default_rng(37)
    for _ in range(20):
        u = float(rng.uniform(0, 60))
        v = float(rng.uniform(-8, 8))
        delta = float(rng.uniform(-math.pi, math.pi))
        n = int(rng.integers(-int(u + 2 * abs(v)) - 4, int(u + 2 * abs(v)) + 5))
        s = gbessel(n, u, v, delta)
        q = gbessel_quad(n, u, v, delta)
        assert abs(s - q) <= 1e-10 * max(abs(q), 1.0e-13)


# ---------------------------------------------------------------------------
# lane-batched rows: bit for bit the scalar ones
# ---------------------------------------------------------------------------

def _bits(values):
    return np.asarray(values).tobytes()


def _split(flat, windows):
    """The lanes of a flat array of rows, one per window (lo, hi)."""
    widths = [hi - lo + 1 for lo, hi in windows]
    assert sum(widths) == flat.size
    return np.split(flat, np.cumsum(widths)[:-1])


def _rows(rows_of, xs, nmaxs, windows):
    """_jn_rows or _sweep over lists of lanes, split into lanes."""
    lo, hi = zip(*windows)
    flat = rows_of(np.array(xs, dtype=float), np.array(nmaxs), np.array(lo),
                   np.array(hi))
    return _split(flat, windows)


def _scalar_cut(a):
    """The truncation bound of |argument| a, in Python floats."""
    return int(math.ceil(a + 8.0 * (a ** (1.0 / 3.0) + 1.0) + 12.0))


def _scalar_plan(n_min, n_max, u, v):
    """(k_max, u_cut, u_top, lo, hi) of one row request, in Python ints and
    floats."""
    k_max, u_cut = _scalar_cut(abs(v)), _scalar_cut(abs(u))
    u_top = min(u_cut, max(abs(n_min), abs(n_max)) + 2 * k_max)
    reach = 0 if v == 0.0 else 2 * k_max
    m_lo, m_hi = n_min - reach, n_max + reach
    hi = min(max(abs(m_lo), abs(m_hi)), u_top)
    lo = 0 if m_lo <= 0 <= m_hi else min(abs(m_lo), abs(m_hi), hi)
    return k_max, u_cut, u_top, lo, hi


def test_array_plan_matches_the_scalar_formulas():
    # every cut, window and start order of the array plan is the one of the
    # scalar formulas (the start order's is _jn_row's own), lane by lane; a
    # cube root rounded the other way moves a start order and so a row's bits
    rng = np.random.default_rng(53)
    count = 4000
    u = np.concatenate((rng.uniform(0.0, 1.0e5, count // 4),
                        10.0 ** rng.uniform(-7.0, 5.0, count // 4),
                        np.floor(rng.uniform(0.0, 1.0e5, count // 4)),
                        rng.uniform(0.0, 200.0, count // 4)))
    u *= np.where(rng.random(count) < 0.5, -1.0, 1.0)
    v = np.where(rng.random(count) < 0.5, 0.0,
                 rng.uniform(-1.0, 1.0, count) * np.abs(u) / 3.0)
    v[::7] = -0.0
    n = rng.integers(-150_000, 150_000, count)
    width = rng.integers(0, 6, count)
    n_min, n_max = n, n + width
    plan = np.column_stack(gb._series_plan(n_min, n_max, u, v, np.zeros(count)))
    for i in range(count):
        want = _scalar_plan(int(n_min[i]), int(n_max[i]), float(u[i]), float(v[i]))
        assert tuple(plan[i].tolist()) == want, (n_min[i], n_max[i], u[i], v[i])
    k_max, _, u_top, _, _ = plan.T
    # top = 27 in the last three lanes: Python's 27 ** (1/3) is 3.0, while
    # np.power on an array can give 2.9999999999999996 (start 116, not 117)
    xs = np.concatenate((np.abs(u), np.abs(v), [5.0, 27.0, 27.9]))
    nmaxs = np.concatenate((u_top, k_max, [27, 0, 20]))
    starts = gb._miller_starts(xs, nmaxs)
    assert starts.tolist() == [gb._miller_start(float(x), int(m))
                               for x, m in zip(xs, nmaxs)]
    assert starts[-3:].tolist() == [117, 117, 117]


def test_jn_rows_equal_jn_row_lane_by_lane(sweeps):
    # x = 1e-5, 1e-3 and _TINY_ARG rescale on the way down (x = 1e-5 at
    # nmax 300 crosses _BIG 32 times); 0 and x < 1e-6 take the scalar
    # branches; 1000 and 5000 are long rows; nmax differs per lane
    rng = np.random.default_rng(41)
    xs = [1.0e-5, 1.0e-3, 0.0, 5.0e-7, 1000.0, 5000.0, 3.0, 17.5,
          gb._TINY_ARG, 1.0e-5]
    nmaxs = [30, 25, 5, 10, 1100, 20, 60, 3, 40, 300]
    xs += [float(x) for x in rng.uniform(0.0, 300.0, 2 * gb._BATCH_MIN)]
    nmaxs += [int(m) for m in rng.integers(0, 400, 2 * gb._BATCH_MIN)]
    windows = []
    for nmax in nmaxs:
        lo = int(rng.integers(0, nmax + 1))
        windows.append((lo, int(rng.integers(lo, nmax + 1))))
    rows = _rows(gb._jn_rows, xs, nmaxs, [(0, nmax) for nmax in nmaxs])
    cut = _rows(gb._jn_rows, xs, nmaxs, windows)
    assert sweeps["batched"] == 2
    for x, nmax, (lo, hi), row, part in zip(xs, nmaxs, windows, rows, cut):
        ref = gb._jn_row(x, nmax)
        assert _bits(row) == _bits(ref), (x, nmax)
        assert _bits(part) == _bits(ref[lo:hi + 1]), (x, nmax, lo, hi)


def test_sweep_rescales_like_jn_row():
    # every lane crosses _BIG several times: 37, 32, 13 (x = _MAX_ARG, on
    # the way down to its turning point) and 8; 1e100 squared stays finite
    # in the np.dot screen, and no step overflows
    xs = [gb._TINY_ARG, 1.0e-5, gb._MAX_ARG, 0.5]
    nmaxs = [300, 300, 110000, 200]
    windows = [(0, 300), (250, 300), (99000, 110000), (0, 200)]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        lanes = _rows(gb._sweep, xs, nmaxs, windows)
        for x, nmax, (lo, hi), lane in zip(xs, nmaxs, windows, lanes):
            ref = gb._jn_row(x, nmax)
            assert _bits(lane) == _bits(ref[lo:hi + 1]), (x, nmax)
            assert np.all(np.isfinite(ref))


def test_jn_row_against_mpmath():
    # 30-digit mpmath values at orders 0, next to x, the top order and the
    # smallest |J_m| below x (next to a zero); float64 rows measured up to
    # 1.9e-14 of the row's max |J| at x = 1064
    import mpmath
    xs = [5.8, 145.0, 1064.0, 8730.0]
    nmaxs = [_scalar_cut(x) for x in xs]
    lanes = _rows(gb._sweep, xs, nmaxs, [(0, nmax) for nmax in nmaxs])
    with mpmath.workdps(30):
        for x, nmax, lane in zip(xs, nmaxs, lanes):
            row = gb._jn_row(x, nmax)
            assert _bits(lane) == _bits(row)
            peak = np.max(np.abs(row))
            below = int(x)
            zero = int(np.argmin(np.abs(row[:below])))
            for m in sorted({0, below, below + 1, nmax, zero}):
                ref = mpmath.besselj(m, mpmath.mpf(x), maxprec=40000)
                assert abs(row[m] - float(ref)) <= 1e-13 * peak, (x, m)


def _specs(rng, count):
    specs = []
    for i in range(count):
        n = int(rng.integers(-150, 151))
        u = float(rng.uniform(0.0, 120.0)) * (-1.0 if i % 3 == 0 else 1.0)
        v = (0.0, -0.0, float(rng.uniform(-15.0, 15.0)))[i % 3]
        delta = 0.0 if i % 4 == 0 else float(rng.uniform(-math.pi, math.pi))
        specs.append((n - 2, n + 2, u, v, delta))
    # orders beyond the support cut of u, for v = 0 and v != 0
    specs += [(180, 184, 20.0, 0.0, 0.3), (-184, -180, -20.0, 2.5, 0.3)]
    return specs


def test_gbessel_block_equals_gbessel_row(sweeps):
    # one block of many specs runs one batched sweep, and each spec's slice
    # of it has the bits of that spec's own row
    specs = _specs(np.random.default_rng(43), 3 * gb._BATCH_MIN)
    values = gb.gbessel_block(*zip(*specs))
    assert sweeps == {"scalar": 0, "batched": 1}
    start = 0
    for spec in specs:
        ref = gbessel_row(*spec)
        assert (ref.n_min, ref.n_max) == spec[:2]
        stop = start + ref.values.size
        assert _bits(values[start:stop]) == _bits(ref.values), spec
        start = stop
    assert start == values.size


def test_v0_shortcut_equals_k_window_sum():
    # J_n(u, 0, D) = sum_k exp(-2ikD) J_{n-2k}(u) J_k(0) over the series'
    # k window, built here from _jn_row rows as the series sums it
    rng = np.random.default_rng(47)
    cases = [(0.0, 0.4), (-0.0, -1.3), (12.5, 0.4), (-12.5, 0.4),
             (3.0e-7, 2.0), (250.0, -2.9)]
    cases += [(float(rng.uniform(-80, 80)), float(rng.uniform(-4, 4)))
              for _ in range(10)]

    def lookup(row, orders, neg_arg):
        a = np.abs(orders)
        sign = np.where((orders < 0) & (a % 2 == 1), -1.0, 1.0)
        if neg_arg:
            sign = np.where(orders % 2 != 0, -sign, sign)
        return row[a] * sign

    for u, delta in cases:
        for v in (0.0, -0.0):
            k_max, u_cut = _scalar_cut(abs(v)), _scalar_cut(abs(u))
            n_lo, n_hi = -u_cut - 6, u_cut + 6
            row_u = gb._jn_row(abs(u), min(u_cut, max(-n_lo, n_hi) + 2 * k_max))
            row_v = gb._jn_row(abs(v), k_max)
            want = np.zeros(n_hi - n_lo + 1, dtype=complex)
            for i, n in enumerate(range(n_lo, n_hi + 1)):
                k_lo = max(-k_max, math.ceil((n - u_cut) / 2.0))
                k_hi = min(k_max, math.floor((n + u_cut) / 2.0))
                if k_lo <= k_hi:
                    ks = np.arange(k_lo, k_hi + 1)
                    want[i] = np.sum(np.exp(-2.0j * delta * ks)
                                     * lookup(row_u, n - 2 * ks, u < 0.0)
                                     * lookup(row_v, ks, False))
            got = gbessel_row(n_lo, n_hi, u, v, delta).values
            assert _bits(got) == _bits(want), (u, v, delta)


# u = -20 and 20 cut J_m(|u|) at u_cut = 62, |v| = 2.5 at k_max = 34.  Lane
# by lane: J_n(0, 0, D); v = -0.0 across n = u_cut; windows clipped on the
# low side only (n = 6..10 reads k = ceil((n - 62) / 2)..34) and on the high
# side only (n = -10..-6); v != 0 across the end of the support, n = u_cut +
# 2 k_max = 130; arguments below _TINY_ARG.
EDGE_BLOCK = [(-3, 3, 0.0, 0.0, 0.0), (58, 66, 20.0, -0.0, -0.4),
              (6, 10, -20.0, 2.5, -1.1), (-10, -6, 20.0, -2.5, 0.3),
              (128, 134, -20.0, 2.5, 0.3), (-2, 2, 3.0e-7, -1.0e-7, 0.5)]


@st.composite
def _mixed_block(draw):
    """A block of lanes (n_min, n_max, u, v, delta) with signed zeros,
    negative arguments and orders out past the support."""
    lanes = []
    for _ in range(draw(st.integers(1, 30))):
        u = draw(st.one_of(st.sampled_from([0.0, -0.0, 3.0e-7, -12.5]),
                           st.floats(-80.0, 80.0)))
        v = draw(st.one_of(st.sampled_from([0.0, -0.0, -1.0e-7]),
                           st.floats(-20.0, 20.0)))
        delta = draw(st.one_of(st.sampled_from([0.0, -0.0]),
                               st.floats(-math.pi, math.pi)))
        reach = _scalar_cut(abs(u)) + 2 * _scalar_cut(abs(v)) + 4
        n_min = draw(st.integers(-reach, reach))
        lanes.append((n_min, n_min + draw(st.integers(0, 6)), u, v, delta))
    return lanes


@settings(max_examples=50, derandomize=True, deadline=None)
@given(lanes=_mixed_block(), chunk=st.sampled_from([gb._SWEEP_CHUNK, 7, 1]))
@example(lanes=EDGE_BLOCK, chunk=gb._SWEEP_CHUNK)
@example(lanes=EDGE_BLOCK * 4, chunk=5)
def test_gbessel_block_is_the_per_order_series(lanes, chunk):
    # the windowed sums, grouped by length and chunked, give every order
    # the bits of its own np.sum over its k window; a v = 0 order sums its
    # 41-term window against the J_k(0) row in the reference
    with mock.patch.object(gb, "_SWEEP_CHUNK", chunk):
        got = gb.gbessel_block(*zip(*lanes))
    assert _bits(got) == _bits(series_block(*zip(*lanes))), lanes
