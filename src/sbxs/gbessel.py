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

from .errors import ConvergenceError, DomainError, _integer

_MAX_ORDER = 10**6
# Largest Bessel argument, in bessel_j and in every row: a row of J_m(x)
# costs O(|x|) recurrence steps.
_MAX_ARG = 1.0e5
_ORACLE_SCALE = 1.0e4

# Rescale threshold for the unnormalized backward recurrence.  Squares of
# values just past it, summed over the lanes, stay finite in _sweep's np.dot
# screen (1e250 squared would overflow float64).
_BIG = 1.0e100
_BIG_INV = 1.0e-100

# Below this argument J_n(x) comes from the power series, not the recurrence.
_TINY_ARG = 1.0e-6

# Fewest recurrence lanes that _jn_rows sweeps as one array; fewer run one
# _jn_row each.  Measured crossover on a 2-vCPU x86-64 host: 20-22 lanes,
# for x from 5 to 1000 (a batched step costs about as much as 21 scalar ones).
_BATCH_MIN = 22


def _miller_start(x, nmax):
    """Start order of the backward recurrence for J_0(x) .. J_nmax(x)."""
    top = max(nmax, int(x))
    return top + int(16.0 * max(top, 1) ** (1.0 / 3.0)) + 42


def _jn_row(x, nmax):
    """J_0(x) .. J_nmax(x) for x >= 0 by normalized backward recurrence.

    Start order sits well past the turning point max(nmax, x); the seed error
    decays super-exponentially before it reaches the requested orders.  The
    recurrence runs in float64 on Python floats.  Against 30-digit mpmath the
    error is at most 2.9e-16 of the row's max |J| at x = 5.8, 2.8e-15 at 145,
    1.9e-14 at 1064, 8.6e-15 at 8730 and 2.0e-13 at 2e4; relative to the
    value itself it grows next to the zeros of J_n (up to 8.7e-12 at 1064,
    over entries above 1e-3 of the max).  Tiny arguments use the power series
    instead (the recurrence growth factor 2k/x would overflow between
    rescale checks).
    """
    if x < _TINY_ARG:
        out = np.zeros(nmax + 1)
        if x == 0.0:
            out[0] = 1.0
            return out
        x2 = 0.25 * x * x
        t = 1.0
        for k in range(nmax + 1):
            out[k] = t * (1.0 - x2 / (k + 1.0) * (1.0 - 0.5 * x2 / (k + 2.0)))
            t *= 0.5 * x / (k + 1.0)
            if t == 0.0:
                break
        return out
    start = _miller_start(x, nmax)
    work = []                     # J~_nmax .. J~_0, stored on the way down
    jp = 0.0                      # J~_{k+1}
    j = _BIG_INV                  # J~_k, arbitrary tiny seed
    ssum = 0.0                    # accumulates J~_0 + 2*sum J~_{2k}
    two_over_x = 2.0 / float(x)
    for k in range(start, -1, -1):
        jm = (k + 1) * two_over_x * j - jp
        jp = j
        j = jm
        # jm is J~_k after this point
        if abs(j) > _BIG:
            j *= _BIG_INV
            jp *= _BIG_INV
            ssum *= _BIG_INV
            work = [w * _BIG_INV for w in work]
        if k <= nmax:
            work.append(j)
        if k == 0:
            ssum += j
        elif k % 2 == 0:
            ssum += 2.0 * j
    work.reverse()
    return np.array(work) / ssum


def _jn_rows(xs, nmaxs, windows):
    """Lane i is _jn_row(xs[i], nmaxs[i])[lo:hi + 1] with (lo, hi) =
    windows[i], bit for bit.

    The lanes with x >= _TINY_ARG share one _sweep when there are at least
    _BATCH_MIN of them; every other lane calls _jn_row.
    """
    batch = [i for i, x in enumerate(xs) if x >= _TINY_ARG]
    if len(batch) < _BATCH_MIN:
        batch = []
    out = [None] * len(xs)
    if batch:
        rows = _sweep([xs[i] for i in batch], [nmaxs[i] for i in batch],
                      [windows[i] for i in batch])
        for i, row in zip(batch, rows):
            out[i] = row
    for i, row in enumerate(out):
        if row is None:
            lo, hi = windows[i]
            out[i] = _jn_row(xs[i], nmaxs[i])[lo:hi + 1]
    return out


def _sweep(xs, nmaxs, windows):
    """_jn_row(xs[i], nmaxs[i])[lo:hi + 1] for every lane i (all x >= _TINY_ARG)
    from one backward recurrence over the lanes as an array.

    Step k advances every lane at once.  A lane rests at J~ = 0, which the
    step keeps at 0, until its own start order, where it takes the seed;
    from there it sees the scalar recurrence's operations in the scalar
    order, with its own rescaling, normalization sum and final division.
    Only each lane's window is stored.
    """
    starts = np.array([_miller_start(x, nmax) for x, nmax in zip(xs, nmaxs)])
    rank = np.argsort(-starts, kind="stable")
    lanes = [int(r) for r in rank]
    starts = starts[rank]
    top = int(starts[0])
    lo = np.array([windows[i][0] for i in lanes])
    width = np.array([windows[i][1] - windows[i][0] + 1 for i in lanes])
    offset = np.concatenate(([0], np.cumsum(width)[:-1]))
    # One slot of `work` per stored value, lane after lane; stores[k] holds
    # the (slots, lanes) of the values stored at step k.
    orders = np.arange(width.sum()) - np.repeat(offset - lo, width)
    by_k = np.argsort(-orders, kind="stable")
    lane_of = np.repeat(np.arange(len(lanes)), width)[by_k]
    at = np.searchsorted(-orders[by_k], -np.arange(top + 2), side="right")
    stores = [(by_k[at[k + 1]:at[k]], lane_of[at[k + 1]:at[k]])
              if at[k + 1] < at[k] else None for k in range(top + 1)]
    # lanes begun[k + 1]:begun[k] (in start order) take the seed at step k
    begun = np.searchsorted(-starts, -np.arange(top + 2), side="right")

    work = np.zeros(orders.size)
    two_over_x = 2.0 / np.array([xs[i] for i in lanes])
    k_plus_1 = np.arange(1, top + 2, dtype=np.float64)
    jp = np.zeros(len(lanes))      # J~_{k+1}
    j = np.zeros(len(lanes))       # J~_k
    jm = np.empty(len(lanes))
    ssum = np.zeros(len(lanes))    # J~_0 + 2*sum J~_{2k}
    big2 = _BIG * _BIG
    for k in range(top, -1, -1):
        if begun[k + 1] < begun[k]:
            j[begun[k + 1]:begun[k]] = _BIG_INV
        np.multiply(two_over_x, k_plus_1[k], out=jm)
        jm *= j
        jm -= jp
        jp, j, jm = j, jm, jp
        # sum of squares >= max square: one call screens for |J~| > _BIG
        if np.dot(j, j) >= big2:
            for i in np.flatnonzero(np.abs(j) > _BIG):
                j[i] *= _BIG_INV
                jp[i] *= _BIG_INV
                ssum[i] *= _BIG_INV
                work[offset[i]:offset[i] + width[i]] *= _BIG_INV
        if stores[k] is not None:
            slots, which = stores[k]
            work[slots] = j[which]
        if k == 0:
            ssum += j
        elif k % 2 == 0:
            ssum += 2.0 * j
    values = work / np.repeat(ssum, width)
    out = [None] * len(xs)
    for r, i in enumerate(lanes):
        out[i] = values[offset[r]:offset[r] + width[r]]
    return out


def _tail_negligible(n, x):
    """True when |J_n(x)| is certainly below ~1e-305 (n >= 0, x >= 0)."""
    if n < 8 or not 0.0 < x < n:
        return False
    # |J_n(x)| <= (x/2)^n / n! * exp(x^2 / (4(n+1))) from the defining series
    logb = n * math.log(x / 2.0) - math.lgamma(n + 1.0) + x * x / (4.0 * (n + 1.0))
    return logb < -702.0


def bessel_j(n, x):
    """Ordinary Bessel function J_n(x), integer n, real x.

    _jn_lookup applies the parity in n and in x; cost is O(max(|n|, |x|)),
    so |x| must be at most _MAX_ARG, as for gbessel_row.
    """
    n = _integer(n, "Bessel order")
    if abs(n) > _MAX_ORDER:
        raise DomainError(f"|n| <= {_MAX_ORDER} required, got {n}")
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x}")
    if abs(x) > _MAX_ARG:
        raise DomainError(f"|x| <= {_MAX_ARG} required, got {x}")
    if _tail_negligible(abs(n), abs(x)):
        return 0.0
    return _jn_lookup(_jn_row(abs(x), abs(n)), np.array([n]), x < 0.0)[0]


def _jn_lookup(row, orders, neg_arg, lo=0):
    """Lookup in a row starting at order lo, with parity in order and
    (optionally) in argument."""
    a = np.abs(orders)
    vals = row[a - lo]
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


def _series_plan(n_min, n_max, u, v, delta):
    """Checks one row request and returns (k_max, u_cut, u_top, window).

    J_m(|u|) is built up to order u_top, which sets its start order and so
    its bits; window = (lo, hi) holds every |m| that the series reads.
    """
    if n_min > n_max:
        raise DomainError(f"n_min <= n_max required, got [{n_min}, {n_max}]")
    for name, val in (("u", u), ("v", v), ("delta", delta)):
        if not math.isfinite(val):
            raise DomainError(f"{name} must be finite, got {val}")
    if abs(u) > _MAX_ARG or abs(v) > _MAX_ARG:
        raise DomainError(f"|u|, |v| <= {_MAX_ARG} required")
    k_max, u_cut = _series_cuts(u, v)
    u_top = min(u_cut, max(abs(n_min), abs(n_max)) + 2 * k_max)
    reach = 0 if v == 0.0 else 2 * k_max
    m_lo, m_hi = n_min - reach, n_max + reach
    hi = min(max(abs(m_lo), abs(m_hi)), u_top)
    lo = 0 if m_lo <= 0 <= m_hi else min(abs(m_lo), abs(m_hi), hi)
    return k_max, u_cut, u_top, (lo, hi)


def _series(orders, u, v, delta, k_max, u_cut, row_u, lo, row_v):
    """Series evaluation of J_n(u, v, D), v != 0, over integer orders, from
    the J_m(|u|) row (orders lo and up) and the J_k(|v|) row."""
    out = np.zeros(orders.shape, dtype=complex)
    for i, n in enumerate(orders):
        n = int(n)
        k_lo = max(-k_max, int(math.ceil((n - u_cut) / 2.0)))
        k_hi = min(k_max, int(math.floor((n + u_cut) / 2.0)))
        if k_lo > k_hi:
            continue                     # beyond the support, value < 1e-16
        ks = np.arange(k_lo, k_hi + 1)
        ju = _jn_lookup(row_u, n - 2 * ks, u < 0.0, lo)
        jv = _jn_lookup(row_v, ks, v < 0.0)
        out[i] = np.sum(np.exp(-2.0j * delta * ks) * ju * jv)
    return out


def _v0_gather(rows, n_mins, widths, us, u_cuts, los):
    """J_n(u, 0, D) of every order of several lanes, lane after lane, read
    from their J_m(|u|) rows (orders lo and up) in one gather.

    J_k(0) = [k == 0], so only the k = 0 term of the series is left: J_n(u)
    inside the support |n| <= u_cut and 0 beyond it.  "+ 0.0" turns -0.0
    into the +0.0 that the summed k window gives.
    """
    widths = np.array(widths)
    starts = np.concatenate(([0], np.cumsum(widths)[:-1]))
    bases = np.concatenate(([0], np.cumsum([row.size for row in rows])[:-1]))
    lane = np.repeat(np.arange(widths.size), widths)
    orders = np.arange(widths.sum()) - starts[lane] + np.array(n_mins)[lane]
    a = np.abs(orders)
    inside = a <= np.array(u_cuts)[lane]
    at = np.where(inside, bases[lane] + a - np.array(los)[lane], 0)
    sign = np.where((orders < 0) & (a % 2 == 1), -1.0, 1.0)
    neg = (np.array(us) < 0.0)[lane]
    sign = np.where(neg & (orders % 2 != 0), -sign, sign)
    values = np.concatenate(rows)[at] * sign + 0.0
    return np.where(inside, values, 0.0)


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


def gbessel_block(specs):
    """J_n(u, v, D) over n_min..n_max of every spec (n_min, n_max, u, v,
    delta), lane after lane, as one flat complex array.

    The ordinary-Bessel rows of all specs come from one _jn_rows call (the
    J_k(|v|) row is skipped when v = 0).  The v = 0 lanes are read from
    their rows in one gather; the v != 0 lanes are summed lane by lane.
    n_min and n_max are ints.
    """
    plans = [_series_plan(*spec) for spec in specs]
    xs, nmaxs, windows = [], [], []
    for (_, _, u, v, _), (k_max, _, u_top, window) in zip(specs, plans):
        xs.append(abs(u))
        nmaxs.append(u_top)
        windows.append(window)
        if v != 0.0:
            xs.append(abs(v))
            nmaxs.append(k_max)
            windows.append((0, k_max))
    rows = iter(_jn_rows(xs, nmaxs, windows))
    widths = [n_max - n_min + 1 for n_min, n_max, *_ in specs]
    out = np.zeros(sum(widths), dtype=complex)
    v0 = []   # (out slice, J_m(|u|) row, n_min, width, u, u_cut, lo) at v = 0
    start = 0
    for (n_min, n_max, u, v, delta), (k_max, u_cut, _, (lo, _)), width in zip(
            specs, plans, widths):
        at = slice(start, start + width)
        start += width
        row_u = next(rows)
        if v == 0.0:
            v0.append((at, row_u, n_min, width, u, u_cut, lo))
            continue
        orders = np.arange(n_min, n_max + 1)
        out[at] = _series(orders, u, v, delta, k_max, u_cut, row_u, lo,
                          next(rows))
    if v0:
        slots, *lanes = zip(*v0)
        values = _v0_gather(*lanes)
        if len(slots) == len(specs):
            out[:] = values
        else:
            out[np.concatenate([np.arange(s.start, s.stop) for s in slots])] = values
    return out


def gbessel_row(n_min, n_max, u, v, delta):
    """Row of J_n(u, v, D) over n_min..n_max: the one-spec call of
    gbessel_block.  n_min and n_max must be integers, else a DomainError."""
    n_min, n_max = _integer(n_min, "n_min"), _integer(n_max, "n_max")
    return GBesselRow(n_min, n_max, gbessel_block([(n_min, n_max, u, v, delta)]))


def gbessel(n, u, v, delta):
    """Generalized Bessel function J_n(u, v, D) via the truncated series."""
    return complex(gbessel_row(n, n, u, v, delta).values[0])


def gbessel_quad(n, u, v, delta, abs_tol=1.0e-13, max_nodes=1 << 21):
    """Quadrature oracle for J_n(u, v, D).

    Uniform rule on the periodic integrand (geometric convergence for entire
    periodic functions), refined by interleaving midpoints until two
    consecutive refinements move the result by less than abs_tol.  Sums are
    carried in extended precision so the oracle noise floor sits near 1e-17.
    """
    n = _integer(n, "Bessel order")
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
