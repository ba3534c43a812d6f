"""Ordinary and three-argument generalized Bessel functions.

The central object is the Fourier coefficient

    J_n(u, v, D) = (2*pi)^-1 Integral[-pi, pi] d(theta)
                   exp{ i [ u*sin(theta + D) + v*sin(2*theta) - n*(theta + D) ] }

equivalently the series  sum_k exp(-2*i*k*D) * J_{n-2k}(u) * J_k(v)  over
ordinary Bessel functions.  The series is the production evaluator; the
quadrature is kept as an independent oracle.

Ordinary Bessel functions are evaluated by backward (Miller) recurrence with
the   J_0 + 2*J_2 + 2*J_4 + ... = 1   normalization, which yields whole rows
of orders at once — exactly what the series and the envelope sweeps consume.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

_MAX_ORDER = 10**6
_MAX_ARG = 1.0e5
_ORACLE_SCALE = 1.0e4

# Rescale threshold for the unnormalized backward recurrence.
_BIG = 1.0e250
_BIG_INV = 1.0e-250


def _jn_row(x, nmax):
    """J_0(x) .. J_nmax(x) for x >= 0 by normalized backward recurrence.

    Start order sits well past the turning point max(nmax, x); the seed error
    decays super-exponentially before it reaches the requested orders.  The
    recurrence runs in 80-bit extended precision so values stay accurate to
    ~1e-15 relative even next to the zeros of J_n.  Tiny arguments use the
    power series instead (the recurrence growth factor 2k/x would overflow
    between rescale checks).
    """
    out = np.zeros(nmax + 1)
    if x == 0.0:
        out[0] = 1.0
        return out
    if x < 1.0e-6:
        x2 = 0.25 * x * x
        t = 1.0
        for k in range(nmax + 1):
            out[k] = t * (1.0 - x2 / (k + 1.0) * (1.0 - 0.5 * x2 / (k + 2.0)))
            t *= 0.5 * x / (k + 1.0)
            if t == 0.0:
                break
        return out
    ld = np.longdouble
    top = max(nmax, int(x))
    start = top + int(16.0 * max(top, 1) ** (1.0 / 3.0)) + 42
    work = np.zeros(nmax + 1, dtype=ld)
    jp = ld(0.0)                  # J~_{k+1}
    j = ld(_BIG_INV)              # J~_k, arbitrary tiny seed
    ssum = ld(0.0)                # accumulates J~_0 + 2*sum J~_{2k}
    two_over_x = ld(2.0) / ld(x)
    big = ld(_BIG)
    big_inv = ld(_BIG_INV)
    for k in range(start, -1, -1):
        jm = (k + 1) * two_over_x * j - jp
        jp = j
        j = jm
        # jm is J~_k after this point
        if abs(j) > big:
            j *= big_inv
            jp *= big_inv
            ssum *= big_inv
            work *= big_inv
        if k <= nmax:
            work[k] = j
        if k == 0:
            ssum += j
        elif k % 2 == 0:
            ssum += 2.0 * j
    out[:] = (work / ssum).astype(np.float64)
    return out


def _tail_negligible(n, x):
    """True when |J_n(x)| is certainly below ~1e-305 (n >= 0, x >= 0)."""
    if n < 8 or x >= n:
        return False
    # |J_n(x)| <= (x/2)^n / n! * exp(x^2 / (4(n+1))) from the defining series
    logb = n * math.log(x / 2.0) - math.lgamma(n + 1.0) + x * x / (4.0 * (n + 1.0))
    return logb < -702.0


def bessel_j(n, x):
    """Ordinary Bessel function J_n(x), integer n, real x.

    Parity J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x) is applied
    exactly; cost is O(max(|n|, |x|)).
    """
    n = int(n)
    if abs(n) > _MAX_ORDER:
        raise DomainError(f"|n| <= {_MAX_ORDER} required, got {n}")
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x}")
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2:
            sign = -sign
    if x < 0.0:
        x = -x
        if n % 2:
            sign = -sign
    if x == 0.0:
        return sign if n == 0 else 0.0
    if _tail_negligible(n, x):
        return 0.0
    return sign * _jn_row(x, n)[n]


def _jn_lookup(row, orders, neg_arg):
    """Row lookup with parity in order and (optionally) in argument."""
    a = np.abs(orders)
    vals = row[a]
    sign = np.where(orders < 0, np.where(a % 2 == 1, -1.0, 1.0), 1.0)
    if neg_arg:
        sign = np.where(orders % 2 != 0, -sign, sign)
    return vals * sign


def _series_cuts(u, v):
    """Truncation bounds: k window for J_k(v), order cut for J_m(u)."""
    au, av = abs(u), abs(v)
    k_max = int(math.ceil(av + 8.0 * (av ** (1.0 / 3.0) + 1.0) + 12.0))
    u_cut = int(math.ceil(au + 8.0 * (au ** (1.0 / 3.0) + 1.0) + 12.0))
    return k_max, u_cut


def _gbessel_core(orders, u, v, delta):
    """Series evaluation of J_n(u, v, D) for an array of integer orders.

    The J_m(|u|) and J_k(|v|) tables are built once and shared across all
    requested orders.
    """
    for name, val in (("u", u), ("v", v), ("delta", delta)):
        if not math.isfinite(val):
            raise DomainError(f"{name} must be finite, got {val}")
    if abs(u) > _MAX_ARG or abs(v) > _MAX_ARG:
        raise DomainError(f"|u|, |v| <= {_MAX_ARG} required")
    orders = np.asarray(orders, dtype=np.int64)
    k_max, u_cut = _series_cuts(u, v)
    n_abs_max = int(np.max(np.abs(orders))) if orders.size else 0
    u_top = min(u_cut, n_abs_max + 2 * k_max)
    row_u = _jn_row(abs(u), u_top)
    row_v = _jn_row(abs(v), k_max)

    out = np.zeros(orders.shape, dtype=complex)
    for i, n in enumerate(orders):
        n = int(n)
        k_lo = max(-k_max, int(math.ceil((n - u_cut) / 2.0)))
        k_hi = min(k_max, int(math.floor((n + u_cut) / 2.0)))
        if k_lo > k_hi:
            continue                     # beyond the support, value < 1e-16
        ks = np.arange(k_lo, k_hi + 1)
        ju = _jn_lookup(row_u, n - 2 * ks, u < 0.0)
        jv = _jn_lookup(row_v, ks, v < 0.0)
        out[i] = np.sum(np.exp(-2.0j * delta * ks) * ju * jv)
    return out


def gbessel(n, u, v, delta):
    """Generalized Bessel function J_n(u, v, D) via the truncated series."""
    return complex(_gbessel_core(np.array([int(n)]), u, v, delta)[0])


@dataclass(frozen=True)
class GBesselRow:
    """Contiguous run of J_n(u, v, D) values over n_min..n_max."""

    n_min: int
    n_max: int
    values: np.ndarray

    def __getitem__(self, n):
        if not self.n_min <= n <= self.n_max:
            raise IndexError(f"order {n} outside row [{self.n_min}, {self.n_max}]")
        return self.values[n - self.n_min]


def gbessel_row(n_min, n_max, u, v, delta):
    """Row of J_n(u, v, D) sharing the ordinary-Bessel tables across n."""
    n_min, n_max = int(n_min), int(n_max)
    if n_min > n_max:
        raise DomainError(f"n_min <= n_max required, got [{n_min}, {n_max}]")
    orders = np.arange(n_min, n_max + 1)
    return GBesselRow(n_min, n_max, _gbessel_core(orders, u, v, delta))


def gbessel_quad(n, u, v, delta, abs_tol=1.0e-13, max_nodes=1 << 21):
    """Quadrature oracle for J_n(u, v, D).

    Uniform rule on the periodic integrand (geometric convergence for entire
    periodic functions), refined by interleaving midpoints until two
    consecutive refinements move the result by less than abs_tol.  Sums are
    carried in extended precision so the oracle noise floor sits near 1e-17.
    """
    n = int(n)
    if abs(u) + 2.0 * abs(v) + abs(n) > _ORACLE_SCALE:
        raise DomainError(
            f"oracle scale |u| + 2|v| + |n| <= {_ORACLE_SCALE} exceeded"
        )
    ld = np.longdouble
    pi_l = ld("3.14159265358979323846264338327950288")
    u_l, v_l, d_l, n_l = ld(u), ld(v), ld(delta), ld(n)

    def level_sum(thetas):
        phase = (
            u_l * np.sin(thetas + d_l)
            + v_l * np.sin(2.0 * thetas)
            - n_l * (thetas + d_l)
        )
        return np.sum(np.cos(phase)), np.sum(np.sin(phase))

    n_nodes = 8 * (1 + abs(n) + int(math.ceil(abs(u))) + 2 * int(math.ceil(abs(v))))
    n_nodes = max(n_nodes, 16)
    thetas = -pi_l + 2.0 * pi_l * np.arange(n_nodes, dtype=ld) / ld(n_nodes)
    re, im = level_sum(thetas)
    total = complex(re / n_nodes, im / n_nodes)

    good = 0
    while n_nodes <= max_nodes:
        mid = thetas + pi_l / ld(n_nodes)
        re_m, im_m = level_sum(mid)
        re, im = re + re_m, im + im_m
        n_nodes *= 2
        new_total = complex(re / n_nodes, im / n_nodes)
        if abs(new_total - total) <= abs_tol:
            good += 1
            if good >= 2:
                return new_total
        else:
            good = 0
        total = new_total
        thetas = np.concatenate([thetas, mid])
    raise ConvergenceError(
        f"gbessel_quad(n={n}, u={u}, v={v}, delta={delta}) did not reach "
        f"{abs_tol} within {max_nodes} nodes"
    )
