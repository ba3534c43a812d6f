"""Partial differential cross sections for laser-assisted potential scattering.

The production path assembles the channel amplitude from the generalized
Bessel combinations

    D_n      = J_n(a1, -a2, t1)
    D_{1,n}  = [J_{n-1} e^{-i(t1-tp)} + J_{n+1} e^{+i(t1-tp)}] / 2
    D_{2,n}  = (1+zeta^2) D_n + (1-zeta^2)/2 [J_{n-2} e^{-2i t1} + J_{n+2} e^{+2i t1}]
    Dvec     = eAbar0 { (E1+i zeta E2)/2 J_{n-1} e^{-i t1}
                      + (E1-i zeta E2)/2 J_{n+1} e^{+i t1} }

and evaluates, in natural units,

    dsigma^(n)/dOmega = |Pivec'| |U~(q_n)|^2 / ((4 pi)^2 |Pivec|) *
        { 4 |eps D_n + w Z D_{2,n} - w alpha(Pivec/kPi) D_{1,n}|^2
          - q_n^2 |D_n|^2
          + (w^2 q_n^2 - (kvec.q_n)^2) / (kPi kPi')
            * ( |Dvec|^2 - (eAbar0)^2/2 Re D_n D_{2,n}* ) }.

|Dvec|^2 is always computed componentwise from Dvec itself.  The circular
and linear closed forms are kept as independent cross-check paths; the
general form above is authoritative everywhere.
"""

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ChannelClosedError, DomainError, LinearPathUnstableError
from .gbessel import bessel_j, gbessel_row, gbessel_rows
from .kinematics import (
    E1,
    E2,
    DressedState,
    LaserField,
    _frame_rhat,
    _unit,
    alpha_theta,
    deflection_frame,
    dress,
    open_channel,
)
from .potential import u_tilde
from .units import ELECTRON_MASS_EV, xs_to_atomic_units

FOUR_PI_SQ = (4.0 * math.pi) ** 2

# Below this |v| the linear closed form refuses (its 1/v factors are
# removable singularities of the recurrence rearrangement); the general
# path is authoritative there.
V_FLOOR = 1.0e-6

VALID_FORMULAS = ("general", "nonrel")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable description of one scattering configuration.

    deflection/azimuth are in radians; deflection is measured between the
    initial and final quasimomenta, azimuth 0 puts the final momentum in
    the plane spanned by the initial quasimomentum and E1.  The dressed
    state and the observation direction are built (and checked) once here.
    """

    laser: LaserField
    kinetic_energy: float
    direction: tuple
    potential: object
    deflection: float
    azimuth: float = 0.0
    formula: str = "general"
    _dressed: DressedState = field(init=False, repr=False)
    _rhat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.formula not in VALID_FORMULAS:
            raise DomainError(f"unknown formula {self.formula!r}")
        object.__setattr__(self, "direction", tuple(float(c) for c in self.direction))
        dressed = dress(self.kinetic_energy, self.direction, self.laser)
        rhat = deflection_frame(dressed, self.deflection, self.azimuth)
        object.__setattr__(self, "_dressed", dressed)
        object.__setattr__(self, "_rhat", rhat)

    def dressed(self):
        return self._dressed

    def channel(self, n, dressed_state=None):
        """n-photon channel kinematics; dressed_state must be self.dressed()."""
        return open_channel(self._dressed, n, self._rhat, self.laser)

    def with_K(self, K):
        return replace(self, laser=self.laser.with_K(K))


@dataclass(frozen=True, eq=False)
class DFunctions:
    """Channel amplitude building blocks."""

    d_n: complex
    d1n_p: complex
    d2n: complex
    dvec: np.ndarray
    dvec_abs2: float


@dataclass(frozen=True)
class XSTerms:
    """Diagnostic decomposition of a partial cross section [bohr^2/sr]."""

    main_energy: float
    recoil: float
    wave_pressure: float


@dataclass(frozen=True)
class PartialXS:
    """One channel of the multiphoton cross section, in atomic units."""

    n: int
    value: float
    terms: XSTerms
    alpha1: float
    q2: float

    @classmethod
    def from_terms(cls, n, alpha1, q2, main, recoil=0.0, wave=0.0, pref=1.0):
        """Channel with terms pref * (main, recoil, wave), summed in that
        order; a bare value books the whole of it as the main term."""
        terms = XSTerms(pref * main, pref * recoil, pref * wave)
        value = terms.main_energy + terms.recoil + terms.wave_pressure
        return cls(n=n, value=value, terms=terms, alpha1=alpha1, q2=q2)


def _d_row_spec(channel):
    """gbessel_row arguments of the orders n-2..n+2 that D-functions read."""
    n = channel.n
    return (n - 2, n + 2, channel.alpha1, -channel.alpha2, channel.theta1)


def d_functions(channel, laser, dressed, row=None):
    """D_n, D_{1,n}(theta(p)), D_{2,n} and Dvec for one open channel.

    row is gbessel_row(*_d_row_spec(channel)) when the caller built it.
    """
    n = channel.n
    t1 = channel.theta1
    if row is None:
        row = gbessel_row(*_d_row_spec(channel))
    jm2, jm1, jn, jp1, jp2 = (row[m] for m in range(n - 2, n + 3))

    rel = t1 - dressed.theta_pi
    d1n = 0.5 * (jm1 * cmath.exp(-1j * rel) + jp1 * cmath.exp(1j * rel))

    zeta2 = laser.zeta**2
    d2n = (1.0 + zeta2) * jn + 0.5 * (1.0 - zeta2) * (
        jm2 * cmath.exp(-2j * t1) + jp2 * cmath.exp(2j * t1)
    )

    em = cmath.exp(-1j * t1)
    ep = cmath.exp(1j * t1)
    pol_m = 0.5 * (E1 + 1j * laser.zeta * E2)
    pol_p = 0.5 * (E1 - 1j * laser.zeta * E2)
    dvec = laser.a0bar * (pol_m * jm1 * em + pol_p * jp1 * ep)
    dvec_abs2 = float(np.sum(np.abs(dvec) ** 2))

    return DFunctions(d_n=jn, d1n_p=d1n, d2n=d2n, dvec=dvec, dvec_abs2=dvec_abs2)


def _prefactor_au(scenario, dressed, channel):
    """|Pivec'| |U~(q_n)|^2 / ((4 pi)^2 |Pivec|), converted to bohr^2/sr."""
    ut = u_tilde(scenario.potential, channel.q_n)
    pref_nat = channel.Pi_n * ut**2 / (FOUR_PI_SQ * dressed.pivec_mag)
    return xs_to_atomic_units(pref_nat)


def partial_xs_general_batch(scenario, channels):
    """partial_xs_general of each open channel of the scenario, in order;
    one gbessel_rows call builds the Bessel rows of all of them."""
    laser = scenario.laser
    dressed = scenario.dressed()
    omega = laser.omega
    eps = dressed.p.t
    rows = gbessel_rows([_d_row_spec(channel) for channel in channels])
    out = []
    for channel, row in zip(channels, rows):
        d = d_functions(channel, laser, dressed, row)
        amp = (eps * d.d_n + omega * dressed.Z * d.d2n
               - omega * dressed.alpha_pi * d.d1n_p)
        wave_factor = (omega**2 * channel.q_perp2
                       / (dressed.kdotp * channel.kdotp_final))

        main = 4.0 * abs(amp) ** 2
        recoil = -channel.q2 * abs(d.d_n) ** 2
        wave = wave_factor * (
            d.dvec_abs2 - 0.5 * laser.a0bar**2 * (d.d_n * d.d2n.conjugate()).real
        )

        pref = _prefactor_au(scenario, dressed, channel)
        out.append(PartialXS.from_terms(channel.n, channel.alpha1, channel.q2,
                                        main, recoil, wave, pref))
    return out


def partial_xs_general(scenario, n):
    """Authoritative evaluation path, any polarization zeta in [0, 1]: the
    one-channel call of partial_xs_general_batch."""
    return partial_xs_general_batch(scenario, [scenario.channel(n)])[0]


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
    pref = _prefactor_au(scenario, dressed, channel)

    if a1 == 0.0:
        if n != 0:
            # J_n(0) = 0 for n != 0 (the n = +-1 wave-pressure limit is a
            # measure-zero configuration; the general path covers it).
            return PartialXS.from_terms(n, a1, q2, 0.0)
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

    return PartialXS.from_terms(n, a1, q2, main, recoil, wave, pref)


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
    rho = (
        channel.p_final.vec3 / channel.kdotp_final
        - dressed.p.vec3 / dressed.kdotp
    )
    u = laser.a0bar * float(np.dot(rho, E1))
    v = 0.5 * (dressed.Z - channel.Z_final)
    if abs(v) <= V_FLOOR * max(1.0, abs(u)):
        raise LinearPathUnstableError(
            f"|v| = {abs(v)} below floor at n={n}; use the general path"
        )

    row = gbessel_row(n - 1, n + 1, u, v, 0.0)
    jn = row[n].real
    i_n = 0.5 * (row[n - 1].real + row[n + 1].real)

    alpha_signed = laser.a0bar * float(np.dot(dressed.Pi.vec3, E1)) / dressed.kdotp
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

    pref = _prefactor_au(scenario, dressed, channel)
    return PartialXS.from_terms(n, channel.alpha1, q2, main, recoil, wave, pref)


def elastic_born(scenario):
    """Screened Mott-Born elastic cross section [bohr^2/sr].

    |U~(q0)|^2/(4 pi)^2 * (4 eps^2 - q0^2) with q0 the elastic momentum
    transfer at the scenario deflection; equals the field-free n = 0 limit.
    The kinetic energy must be > 0 (else a DomainError): a field-free
    electron at rest has no direction to deflect from.
    """
    if not scenario.kinetic_energy > 0.0:
        raise DomainError("elastic limit needs kinetic energy > 0 (an electron "
                          f"at rest has no direction), got {scenario.kinetic_energy} eV")
    field_free = scenario.with_K(0.0)
    dressed = field_free.dressed()
    pvec = dressed.p.vec3
    q = float(np.linalg.norm(pvec)) * field_free._rhat - pvec
    q2 = float(np.dot(q, q))
    ut = u_tilde(scenario.potential, q)
    eps = dressed.p.t
    return xs_to_atomic_units(ut**2 / FOUR_PI_SQ * (4.0 * eps**2 - q2))


def _nonrel_eval(scenario, n):
    """Dipole-limit value with its Bessel argument and momentum transfer."""
    laser = scenario.laser
    m = ELECTRON_MASS_EV
    ek = scenario.kinetic_energy
    ekf = ek + n * laser.omega
    if ekf <= 0.0:
        raise ChannelClosedError(n, f"nonrelativistic channel n={n} closed")
    phat = _unit(scenario.direction, "electron direction")
    p_mag = math.sqrt(2.0 * m * ek)
    pf_mag = math.sqrt(2.0 * m * ekf)
    rhat = _frame_rhat(phat, scenario.deflection, scenario.azimuth)
    q = pf_mag * rhat - p_mag * phat
    a1 = alpha_theta(q, laser)[0] / (m * laser.omega)

    ut = u_tilde(scenario.potential, q)
    value_nat = (pf_mag / p_mag) * bessel_j(n, a1) ** 2 * (
        2.0 * m * ut / (4.0 * math.pi)
    ) ** 2
    return xs_to_atomic_units(value_nat), a1, float(np.dot(q, q))


def partial_xs_nonrel(scenario, n):
    """Dipole-limit reference (Bunkin-Fedorov form) [bohr^2/sr].

    Nonrelativistic momenta |p| = sqrt(2 m ek), final kinetic energy
    ek + n*omega, q = p' - p, and the single Bessel argument
    a1 = eAbar0 sqrt((q.E1)^2 + zeta^2 (q.E2)^2)/(m omega):

        dsigma^(n)/dOmega = (|p'|/|p|) J_n(a1)^2 (2 m U~(q)/(4 pi))^2.
    """
    return _nonrel_eval(scenario, n)[0]
