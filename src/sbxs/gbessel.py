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

# Most values that one chunk of a _sweep stores (see _sweep).  Measured on
# a 2-vCPU x86-64 host on the block of the K = 0.8, zeta = 0 oblique 6 mrad
# envelope (2.4e6 stored values): 145 ms per sweep at 60 MB peak RSS, against
# 260 ms at 2^16 and 120 ms at 2^20, where the envelope peaked at 82 MB.
_SWEEP_CHUNK = 1 << 18


def _cbrt(x):
    """Cube roots of an array of floats, each as Python's x ** (1/3): on
    arrays np.power and np.cbrt round some of them the other way (27 **
    (1/3) is 3.0, np.power gives 2.9999999999999996), and a start order
    or a cut taken from them would move."""
    return np.fromiter((c ** (1.0 / 3.0) for c in x.tolist()), float, x.size)


def _miller_start(x, nmax):
    """Start order of the backward recurrence for J_0(x) .. J_nmax(x)."""
    top = max(nmax, int(x))
    return top + int(16.0 * max(top, 1) ** (1.0 / 3.0)) + 42


def _miller_starts(xs, nmaxs):
    """_miller_start of every lane, over arrays xs (floats) and nmaxs
    (ints)."""
    top = np.maximum(nmaxs, xs.astype(np.int64))
    return top + (16.0 * _cbrt(np.maximum(top, 1).astype(float))).astype(np.int64) + 42


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


def _offsets(widths):
    """Start of each lane in a flat array that holds the lanes one after
    another, widths[i] values each."""
    return np.cumsum(widths) - widths


def _slots(bases, widths):
    """Flat indexes of the lanes that start at bases, widths values each."""
    return np.repeat(bases - _offsets(widths), widths) + np.arange(widths.sum())


def _jn_rows(xs, nmaxs, lo, hi):
    """_jn_row(xs[i], nmaxs[i])[lo[i]:hi[i] + 1] of every lane i, bit for
    bit, lane after lane in one flat array (arrays of floats and ints in).

    The lanes with x >= _TINY_ARG share one _sweep when there are at least
    _BATCH_MIN of them; every other lane calls _jn_row.
    """
    batch = xs >= _TINY_ARG
    if np.count_nonzero(batch) < _BATCH_MIN:
        return np.concatenate([np.empty(0)] + [     # no lanes: no values
            _jn_row(x, nmax)[a:b + 1] for x, nmax, a, b in
            zip(xs.tolist(), nmaxs.tolist(), lo.tolist(), hi.tolist())])
    if batch.all():
        return _sweep(xs, nmaxs, lo, hi)
    widths = hi - lo + 1
    bases = _offsets(widths)
    out = np.empty(widths.sum())
    out[_slots(bases[batch], widths[batch])] = _sweep(
        xs[batch], nmaxs[batch], lo[batch], hi[batch])
    for i in np.flatnonzero(~batch).tolist():
        out[bases[i]:bases[i] + widths[i]] = _jn_row(
            float(xs[i]), int(nmaxs[i]))[lo[i]:hi[i] + 1]
    return out


def _sweep(xs, nmaxs, lo, hi):
    """_jn_row(xs[i], nmaxs[i])[lo[i]:hi[i] + 1] of every lane i (all x >=
    _TINY_ARG), lane after lane in one flat array, from backward
    recurrences over the lanes as arrays.

    The lanes run in chunks of consecutive start orders, each chunk
    storing at most _SWEEP_CHUNK values (a lane wider than that is a chunk
    of its own), so the bookkeeping of a long block stays bounded; the
    chunk with the highest start orders runs first.  Within a chunk, step
    k advances every lane at once.  A lane rests at J~ = 0, which the step
    keeps at 0, until its own start order, where it takes the seed; from
    there it sees the scalar recurrence's operations in the scalar order,
    with its own rescaling, normalization sum and final division.  Only
    each lane's window is stored.
    """
    starts = _miller_starts(xs, nmaxs)
    widths = hi - lo + 1
    out = np.zeros(widths.sum())
    norm = np.empty(xs.size)
    shift = _offsets(widths) - lo        # order m of lane i sits at shift[i] + m
    rank = np.argsort(-starts, kind="stable")
    stored = np.cumsum(widths[rank])
    first = 0
    while first < rank.size:
        done = int(stored[first - 1]) if first else 0
        last = max(first + 1, int(np.searchsorted(stored, done + _SWEEP_CHUNK,
                                                  side="right")))
        lanes = rank[first:last]
        norm[lanes] = _sweep_chunk(out, shift[lanes], xs[lanes], starts[lanes],
                                   lo[lanes], hi[lanes])
        first = last
    out /= np.repeat(norm, widths)
    return out


def _sweep_chunk(out, shift, xs, starts, lo, hi):
    """Runs one chunk of _sweep's lanes (starts descending) and returns
    their normalization sums; lane i stores J~_k at step k, for k in
    lo[i]..hi[i], into out[shift[i] + k]."""
    top = int(starts[0])
    width = hi - lo + 1
    # the chunk's stored values, by the step that stores them (orders
    # descending): step k stores those of lanes lane_of[at[k + 1]:at[k]]
    orders = np.repeat(hi + _offsets(width), width) - np.arange(width.sum())
    by_k = np.argsort(-orders, kind="stable")
    lane_of = np.repeat(np.arange(xs.size), width)[by_k]
    at = np.searchsorted(-orders[by_k], -np.arange(top + 2), side="right").tolist()
    # lanes begun[k + 1]:begun[k] take the seed at step k
    begun = np.searchsorted(-starts, -np.arange(top + 2), side="right").tolist()

    two_over_x = 2.0 / xs
    k_plus_1 = np.arange(1, top + 2, dtype=np.float64)
    jp = np.zeros(xs.size)         # J~_{k+1}
    j = np.zeros(xs.size)          # J~_k
    jm = np.empty(xs.size)
    ssum = np.zeros(xs.size)       # J~_0 + 2*sum J~_{2k}
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
                out[shift[i] + lo[i]:shift[i] + hi[i] + 1] *= _BIG_INV
        if at[k + 1] < at[k]:
            which = lane_of[at[k + 1]:at[k]]
            out[shift[which] + k] = j[which]
        if k == 0:
            ssum += j
        elif k % 2 == 0:
            ssum += 2.0 * j
    return ssum


def _tail_negligible(n, x):
    """True when |J_n(x)| is certainly below ~1e-305 (n >= 0, x >= 0)."""
    if n < 8 or not 0.0 < x < n:
        return False
    # |J_n(x)| <= (x/2)^n / n! * exp(x^2 / (4(n+1))) from the defining series
    logb = n * math.log(x / 2.0) - math.lgamma(n + 1.0) + x * x / (4.0 * (n + 1.0))
    return logb < -702.0


def _orders(orders):
    """The integer orders as an int64 array, or a DomainError naming the
    first with |n| > _MAX_ORDER (np.asarray keeps an int past int64)."""
    a = np.asarray(orders)
    big = np.abs(a) > _MAX_ORDER
    if big.any():
        raise DomainError(f"|n| <= {_MAX_ORDER} required, got {a[int(np.argmax(big))]}")
    return a.astype(np.int64)


def bessel_j_block(ns, xs):
    """bessel_j(ns[i], xs[i]) of every lane i, bit for bit: 0.0 where
    _tail_negligible, else from one _jn_rows call with the parity in n and
    in x.  A lane past _MAX_ORDER or _MAX_ARG is a DomainError naming the
    first."""
    ns, xs = _orders(ns), np.asarray(xs, dtype=float)
    ok = np.abs(xs) <= _MAX_ARG
    if not ok.all():
        x = float(xs[np.argmin(ok)])
        raise DomainError(f"|x| <= {_MAX_ARG} required, got {x}" if math.isfinite(x)
                          else f"argument must be finite, got {x}")
    orders, args = np.abs(ns), np.abs(xs)
    live = np.array([not _tail_negligible(n, x) for n, x in
                     zip(orders.tolist(), args.tolist())], dtype=bool)
    rows = _jn_rows(args[live], orders[live], orders[live], orders[live])
    flip = (orders % 2 == 1) & ((ns < 0) != (xs < 0.0))
    out = np.zeros(ns.size)
    out[live] = np.where(flip[live], -rows, rows)
    return out


def bessel_j(n, x):
    """Ordinary Bessel function J_n(x), integer n, real x, at O(max(|n|,
    |x|)) cost: the one-lane call of bessel_j_block."""
    return bessel_j_block([_integer(n, "Bessel order")], [x])[0]


def _jn_lookup(row, orders, neg_arg, lo=0):
    """Lookup in a row starting at order lo, with parity in order and
    (optionally) in argument."""
    a = np.abs(orders)
    vals = row[a - lo]
    sign = np.where(orders < 0, np.where(a % 2 == 1, -1.0, 1.0), 1.0)
    if neg_arg:
        sign = np.where(orders % 2 != 0, -sign, sign)
    return vals * sign


def _cut(a):
    """Truncation bound ceil(a + 8 (a^(1/3) + 1) + 12) of each |argument| a:
    the k window of J_k(|v|), the order cut of J_m(|u|)."""
    return np.ceil(a + 8.0 * (_cbrt(a) + 1.0) + 12.0).astype(np.int64)


def _refuse(n_min, n_max, u, v, delta):
    """The DomainError of one lane of a row request that has one."""
    if n_min > n_max:
        raise DomainError(f"n_min <= n_max required, got [{n_min}, {n_max}]")
    for name, val in (("u", u), ("v", v), ("delta", delta)):
        if not math.isfinite(val):
            raise DomainError(f"{name} must be finite, got {val}")
    raise DomainError(f"|u|, |v| <= {_MAX_ARG} required, got |u| = {abs(u)}, "
                      f"|v| = {abs(v)} in the row n = {n_min}..{n_max}")


def _series_plan(n_min, n_max, u, v, delta):
    """Checks the row requests of a block, lane by lane over arrays, and
    returns their (k_max, u_cut, u_top, lo, hi) as int arrays; a lane that
    fails is a DomainError naming the first one.

    J_m(|u|) is built up to order u_top = min(u_cut, max(|n_min|, |n_max|)
    + 2 k_max), which sets its start order and so its bits.  The series
    reads orders m in [m_lo, m_hi] = [n_min - reach, n_max + reach], reach
    = 2 k_max (0 when v = 0), so (lo, hi) holds every |m| it reads up to
    u_top: hi = min(max(|m_lo|, |m_hi|), u_top), and lo = 0 when the
    orders span 0, else min(|m_lo|, |m_hi|, hi).  For m_lo <= m_hi these
    are the max(-m_lo, m_hi) and max(m_lo, -m_hi, 0) computed here.
    """
    au, av = np.abs(u), np.abs(v)
    ok = (n_min <= n_max) & (np.maximum(au, av) <= _MAX_ARG) & np.isfinite(delta)
    if not ok.all():
        i = int(np.argmin(ok))
        _refuse(int(n_min[i]), int(n_max[i]), float(u[i]), float(v[i]),
                float(delta[i]))
    k_max, u_cut = _cut(np.concatenate((av, au))).reshape(2, -1)
    u_top = np.minimum(u_cut, np.maximum(-n_min, n_max) + 2 * k_max)
    reach = np.where(v == 0.0, 0, 2 * k_max)
    m_lo, m_hi = n_min - reach, n_max + reach
    hi = np.minimum(np.maximum(-m_lo, m_hi), u_top)
    lo = np.minimum(np.maximum(np.maximum(m_lo, -m_hi), 0), hi)
    return k_max, u_cut, u_top, lo, hi


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


def _v0_gather(flat, bases, n_min, widths, u, u_cut, lo):
    """J_n(u, 0, D) of every order of several lanes, lane after lane, read
    in one gather from their J_m(|u|) rows (orders lo and up), which start
    at bases in the flat array of rows.

    J_k(0) = [k == 0], so only the k = 0 term of the series is left: J_n(u)
    inside the support |n| <= u_cut and 0 beyond it.  "+ 0.0" turns -0.0
    into the +0.0 that the summed k window gives.
    """
    lane = np.repeat(np.arange(widths.size), widths)
    orders = np.arange(widths.sum()) - _offsets(widths)[lane] + n_min[lane]
    a = np.abs(orders)
    inside = a <= u_cut[lane]
    at = np.where(inside, bases[lane] + a - lo[lane], 0)
    sign = np.where((orders < 0) & (a % 2 == 1), -1.0, 1.0)
    sign = np.where((u < 0.0)[lane] & (orders % 2 != 0), -sign, sign)
    values = flat[at] * sign + 0.0
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


def gbessel_block(n_min, n_max, u, v, delta):
    """J_n(u, v, D) over n_min[i]..n_max[i] of every lane i, lane after
    lane, as one flat complex array; the five arguments are sequences of
    one length, n_min and n_max of ints of |n| <= _MAX_ORDER.

    _series_plan checks every lane and sizes its rows as arrays.  The
    ordinary-Bessel rows of all lanes come from one _jn_rows call (the
    J_k(|v|) row is skipped when v = 0).  The v = 0 lanes are read from
    the flat array of rows in one gather; the v != 0 lanes are summed lane
    by lane.
    """
    n_min, n_max = _orders(n_min), _orders(n_max)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    delta = np.asarray(delta, dtype=float)
    k_max, u_cut, u_top, lo, hi = _series_plan(n_min, n_max, u, v, delta)
    sums = np.flatnonzero(v != 0.0)
    # rows: J_m(|u|) of every lane, then J_k(|v|) of the v != 0 lanes
    rows_lo = np.concatenate((lo, np.zeros(sums.size, dtype=np.int64)))
    rows_hi = np.concatenate((hi, k_max[sums]))
    flat = _jn_rows(np.concatenate((np.abs(u), np.abs(v[sums]))),
                    np.concatenate((u_top, k_max[sums])), rows_lo, rows_hi)
    bases = _offsets(rows_hi - rows_lo + 1)
    base_u, base_v = bases[:u.size], bases[u.size:]
    widths = n_max - n_min + 1
    gather = v == 0.0
    if gather.all():
        return _v0_gather(flat, base_u, n_min, widths, u, u_cut, lo).astype(complex)
    starts = _offsets(widths)
    out = np.zeros(widths.sum(), dtype=complex)
    if gather.any():
        out[_slots(starts[gather], widths[gather])] = _v0_gather(
            flat, base_u[gather], n_min[gather], widths[gather], u[gather],
            u_cut[gather], lo[gather])
    for r, i in enumerate(sums.tolist()):
        out[starts[i]:starts[i] + widths[i]] = _series(
            np.arange(n_min[i], n_max[i] + 1), float(u[i]), float(v[i]),
            float(delta[i]), int(k_max[i]), int(u_cut[i]),
            flat[base_u[i]:base_u[i] + hi[i] - lo[i] + 1], int(lo[i]),
            flat[base_v[r]:base_v[r] + k_max[i] + 1])
    return out


def gbessel_row(n_min, n_max, u, v, delta):
    """Row of J_n(u, v, D) over n_min..n_max: the one-spec call of
    gbessel_block.  n_min and n_max must be integers, else a DomainError."""
    n_min, n_max = _integer(n_min, "n_min"), _integer(n_max, "n_max")
    return GBesselRow(n_min, n_max, gbessel_block([n_min], [n_max], [u], [v],
                                                  [delta]))


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
