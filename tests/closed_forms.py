"""Circular (zeta = 1) and linear (zeta = 0) closed forms of the partial
cross section: independent cross-checks of xsection.partial_xs_general.

They are special cases of the general formula, rearranged through the
ordinary J_n(a1) and J_n' (circular) or the real two-argument J_n(u, v)
(linear), and no production path calls them.  Criterion 4, test_scan,
test_xsection and bits_digest.py compare them with the general path.

series_block is the reference of gbessel.gbessel_block: the series of
J_n(u, v, D) summed order by order in a Python loop, v = 0 included.
"""

import math

import numpy as np

from sbxs.errors import DomainError
from sbxs.gbessel import _jn_row, _series_plan, gbessel_row
from sbxs.xsection import PartialXS, XSTerms, _prefactor_au

# Below this |v| the linear closed form refuses (its 1/v factors are
# removable singularities of the recurrence rearrangement); the general
# path is authoritative there.
V_FLOOR = 1.0e-6


def _jn_lookup(row, orders, neg_arg, lo=0):
    """Lookup in a row starting at order lo, with parity in order and
    (optionally) in argument."""
    a = np.abs(orders)
    vals = row[a - lo]
    sign = np.where(orders < 0, np.where(a % 2 == 1, -1.0, 1.0), 1.0)
    if neg_arg:
        sign = np.where(orders % 2 != 0, -sign, sign)
    return vals * sign


def _series(orders, u, v, delta, k_max, u_cut, row_u, lo, row_v):
    """Series evaluation of J_n(u, v, D) over integer orders, from the
    J_m(|u|) row (orders lo and up) and the J_k(|v|) row."""
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


def series_block(n_min, n_max, u, v, delta):
    """gbessel_block's J_n(u, v, D) of every lane, lane after lane, by
    _series on _jn_row rows: the whole J_m(|u|) row up to gbessel's top
    order (which sets its bits) and the whole J_k(|v|) row, J_k(0) = [k ==
    0] when v = 0, so a v = 0 order sums its full k window."""
    lanes = [np.asarray(a) for a in (n_min, n_max, u, v, delta)]
    k_max, u_cut, u_top, _, _ = _series_plan(*lanes)
    return np.concatenate([np.zeros(0, dtype=complex)] + [
        _series(np.arange(n0, n1 + 1), a, b, d, km, uc, _jn_row(abs(a), top), 0,
                _jn_row(abs(b), km))
        for n0, n1, a, b, d, km, uc, top in zip(
            *(x.tolist() for x in (*lanes, k_max, u_cut, u_top)))])


class LinearPathUnstableError(RuntimeError):
    """The linear-polarization closed form refuses: |v| below its stability
    floor. It is a cross-check only; partial_xs_general covers that
    channel."""


def _channel_prefactor_au(scenario, dressed, channel):
    """_prefactor_au of one Channel, as a float."""
    return float(_prefactor_au(scenario, dressed, np.array([channel.Pi_n]),
                               np.array([channel.q2]))[0])


def _partial_xs(n, alpha1, q2, main, recoil=0.0, wave=0.0, pref=1.0):
    """PartialXS with terms pref * (main, recoil, wave), summed in that
    order."""
    terms = XSTerms(pref * main, pref * recoil, pref * wave)
    value = terms.main_energy + terms.recoil + terms.wave_pressure
    return PartialXS(n=n, value=value, terms=terms, alpha1=alpha1, q2=q2)


def partial_xs_circular(scenario, n):
    """Closed form for zeta = 1, expressed through ordinary J_n and J_n'."""
    laser = scenario.laser
    if laser.zeta != 1.0:
        raise DomainError("circular closed form requires zeta = 1")
    dressed = scenario.dressed()
    channel = scenario.channel(n)

    omega = laser.omega
    a1, t1 = channel.alpha1, channel.theta1
    q2 = channel.q2
    pref = _channel_prefactor_au(scenario, dressed, channel)

    if a1 == 0.0:
        if n != 0:
            # J_n(0) = 0 for n != 0 (the n = +-1 wave-pressure limit is a
            # measure-zero configuration; the general path covers it).
            return _partial_xs(n, a1, q2, 0.0)
        jn, jpn, n_over_a1 = 1.0, 0.0, 0.0
    else:
        row = gbessel_row(n - 1, n + 1, a1, 0.0, 0.0)
        jm1, jn, jp1 = (row[m].real for m in range(n - 1, n + 2))
        jpn = 0.5 * (jm1 - jp1)
        n_over_a1 = n / a1

    alpha_pi = dressed.alpha_pi
    rel = t1 - dressed.theta_pi
    beta2 = channel.beta2

    main = (
        4.0 * (dressed.Pi.t - omega * alpha_pi * n_over_a1 * math.cos(rel)) ** 2 * jn**2
        + 4.0 * omega**2 * alpha_pi**2 * math.sin(rel) ** 2 * jpn**2
    )
    recoil = -q2 * jn**2
    wave = beta2 * ((n_over_a1**2 - 1.0) * jn**2 + jpn**2)

    return _partial_xs(n, a1, q2, main, recoil, wave, pref)


def partial_xs_linear(scenario, n):
    """Closed form for zeta = 0 via the real two-argument function J_n(u, v).

    u is the signed projection eAbar0 * E1.(Pivec'/kPi' - Pivec/kPi) and
    v = (Z - Z')/2; alpha' keeps the matching signed projection of the
    initial quasimomentum, which is what makes the form agree with the
    general path for oblique geometries.  Refuses when |v| falls below the
    stability floor (raises LinearPathUnstableError).
    """
    laser = scenario.laser
    if laser.zeta != 0.0:
        raise DomainError("linear closed form requires zeta = 0")
    dressed = scenario.dressed()
    channel = scenario.channel(n)

    omega = laser.omega
    q2 = channel.q2
    u = laser.a0bar * (channel.p_final.x / channel.kdotp_final
                       - dressed.p.x / dressed.kdotp)
    v = 0.5 * (dressed.Z - channel.Z_final)
    if abs(v) <= V_FLOOR * max(1.0, abs(u)):
        raise LinearPathUnstableError(
            f"|v| = {abs(v)} below floor at n={n}; use the general path"
        )

    row = gbessel_row(n - 1, n + 1, u, v, 0.0)
    jn = row[n].real
    i_n = 0.5 * (row[n - 1].real + row[n + 1].real)

    alpha_signed = laser.a0bar * dressed.Pi.x / dressed.kdotp
    eps36 = 2.0 * dressed.Pi.t + n * omega * dressed.Z / v
    alpha_pr = alpha_signed + u * dressed.Z / (2.0 * v)
    beta2 = channel.beta2

    main = (
        eps36**2 * jn**2
        + 4.0 * omega**2 * alpha_pr**2 * i_n**2
        - 4.0 * omega * eps36 * alpha_pr * jn * i_n
    )
    recoil = -q2 * jn**2
    wave = beta2 * (
        -(0.5 + n / (4.0 * v)) * jn**2 + i_n**2 + u / (4.0 * v) * jn * i_n
    )

    pref = _channel_prefactor_au(scenario, dressed, channel)
    return _partial_xs(n, channel.alpha1, q2, main, recoil, wave, pref)
