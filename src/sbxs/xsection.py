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

|Dvec|^2 is always computed componentwise from Dvec itself.  This form is
the one evaluator for every polarization zeta in [0, 1]; the circular and
linear closed forms, its zeta = 1 and zeta = 0 special cases, live in
tests/closed_forms.py as cross-checks.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ChannelClosedError, DomainError, _integer
from .gbessel import _orders, bessel_j_block, gbessel_block
# Nothing here calls gbessel_row: bench/run.py reads it from this module
# (TRACE_TARGETS and isolated_row) until roadmap item 7 drops that tracer.
from .gbessel import gbessel_row  # noqa: F401
from .kinematics import (
    E1,
    E2,
    DressedState,
    LaneBlock,
    LaserField,
    _frame_rhat,
    _unit,
    alpha_theta,
    deflection_frame,
    dress,
    open_channel,
    open_channels,
)
from .potential import u_tilde
from .units import ELECTRON_MASS_EV, xs_to_atomic_units

FOUR_PI_SQ = (4.0 * math.pi) ** 2

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
        """n-photon channel kinematics of the scenario's own dressed state.

        dressed_state is ignored; it stays only because bench/checks.py
        passes it.
        """
        return open_channel(self._dressed, n, self._rhat, self.laser)

    def channels(self, ns):
        """open_channels of the scenario's own dressed state: (the
        ChannelBlock of the open channels of ns, the first
        ChannelClosedError or None)."""
        return open_channels(self._dressed, ns, self._rhat, self.laser)

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


@dataclass(frozen=True, eq=False)
class DFunctionsBlock:
    """The DFunctions of every lane of a block: D_n, D_{1,n}(theta(p)) and
    D_{2,n} as complex arrays, Dvec of shape (N, 3) and |Dvec|^2."""

    d_n: np.ndarray
    d1n_p: np.ndarray
    d2n: np.ndarray
    dvec: np.ndarray
    dvec_abs2: np.ndarray

    def lane(self, i):
        return DFunctions(d_n=self.d_n[i], d1n_p=self.d1n_p[i],
                          d2n=self.d2n[i], dvec=self.dvec[i],
                          dvec_abs2=float(self.dvec_abs2[i]))


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


@dataclass(frozen=True, eq=False)
class XSBlock(LaneBlock):
    """The PartialXS of a block of channels as columns, in block order: n a
    list of ints, the others float64 arrays.  block[i] is lane i as a
    PartialXS (its value and terms np.float64, alpha1 and q2 floats)."""

    n: list
    value: np.ndarray
    main_energy: np.ndarray
    recoil: np.ndarray
    wave_pressure: np.ndarray
    alpha1: np.ndarray
    q2: np.ndarray

    def __getitem__(self, i):
        return PartialXS(n=self.n[i], value=self.value[i],
                         terms=XSTerms(self.main_energy[i], self.recoil[i],
                                       self.wave_pressure[i]),
                         alpha1=float(self.alpha1[i]), q2=float(self.q2[i]))


def _abs2(z):
    """|z|^2 of a complex array, lane by lane."""
    return z.real ** 2 + z.imag ** 2


def _d_block(ns, alpha1, alpha2, theta1, laser, dressed):
    """The DFunctionsBlock of the lanes (n, alpha1, alpha2, theta1) of a
    block; lane i reads J_{n-2..n+2}(alpha1, -alpha2, theta1)."""
    ns = np.asarray(ns)
    jm2, jm1, jn, jp1, jp2 = gbessel_block(
        ns - 2, ns + 2, alpha1, -alpha2, theta1).reshape(-1, 5).T

    ph1 = np.exp(1j * theta1)
    ph2 = np.exp(2j * theta1)
    ph_rel = np.exp(1j * (theta1 - dressed.theta_pi))
    d1 = 0.5 * (jm1 * ph_rel.conj() + jp1 * ph_rel)
    zeta2 = laser.zeta**2
    d2 = (1.0 + zeta2) * jn + 0.5 * (1.0 - zeta2) * (jm2 * ph2.conj() + jp2 * ph2)

    pol_m = 0.5 * (E1 + 1j * laser.zeta * E2)
    pol_p = 0.5 * (E1 - 1j * laser.zeta * E2)
    dvec = laser.a0bar * (pol_m * (jm1 * ph1.conj())[:, None]
                          + pol_p * (jp1 * ph1)[:, None])
    return DFunctionsBlock(d_n=jn, d1n_p=d1, d2n=d2, dvec=dvec,
                           dvec_abs2=_abs2(dvec).sum(axis=1))


def d_functions(channel, laser, dressed):
    """D_n, D_{1,n}(theta(p)), D_{2,n} and Dvec for one open channel: the
    one-lane call of the block kernel."""
    return _d_block([channel.n], np.array([channel.alpha1]),
                    np.array([channel.alpha2]), np.array([channel.theta1]),
                    laser, dressed).lane(0)


def _prefactor_au(scenario, dressed, Pi_n, q2):
    """|Pivec'| |U~(q_n)|^2 / ((4 pi)^2 |Pivec|), converted to bohr^2/sr,
    lane by lane over arrays Pi_n and q2 (or for one channel's floats)."""
    ut = u_tilde(scenario.potential, q2)
    with np.errstate(over="ignore"):
        pref_nat = Pi_n * (ut * ut) / (FOUR_PI_SQ * dressed.pivec_mag)
    return xs_to_atomic_units(pref_nat)


def partial_xs_general_block(scenario, block):
    """The XSBlock of the lanes of a ChannelBlock of the scenario, in order,
    and the lanes' D-functions (a DFunctionsBlock).

    One gbessel_block call reads the Bessel windows of all lanes; the
    D-functions, the three terms and the prefactor are array expressions
    evaluated elementwise, so no lane depends on the block around it.
    """
    laser = scenario.laser
    dressed = scenario.dressed()
    omega = laser.omega
    d = _d_block(block.n, block.alpha1, block.alpha2, block.theta1, laser,
                 dressed)

    amp = (dressed.p.t * d.d_n + omega * dressed.Z * d.d2n
           - omega * dressed.alpha_pi * d.d1n_p)
    with np.errstate(over="ignore", invalid="ignore"):
        wave_factor = (omega**2 * block.q_perp2
                       / (dressed.kdotp * block.kdotp_final))

    main = 4.0 * _abs2(amp)
    recoil = -block.q2 * _abs2(d.d_n)
    wave = wave_factor * (d.dvec_abs2
                          - 0.5 * laser.a0bar**2 * (d.d_n * d.d2n.conj()).real)

    pref = _prefactor_au(scenario, dressed, block.Pi_n, block.q2)
    terms = (pref * main, pref * recoil, pref * wave)
    values = terms[0] + terms[1] + terms[2]
    return XSBlock(block.n, values, *terms, block.alpha1, block.q2), d


def partial_xs_general(scenario, n):
    """Authoritative evaluation path, any polarization zeta in [0, 1]: the
    one-channel call of partial_xs_general_block."""
    block, closed = scenario.channels([n])
    if closed is not None:
        raise closed
    return partial_xs_general_block(scenario, block)[0][0]


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
    ut = u_tilde(scenario.potential, q2)
    eps = dressed.p.t
    return xs_to_atomic_units(ut**2 / FOUR_PI_SQ * (4.0 * eps**2 - q2))


def partial_xs_nonrel_block(scenario, ns):
    """Dipole-limit reference (Bunkin-Fedorov form) [bohr^2/sr] of the
    channels ns: (the XSBlock of the open ones, in order; the
    ChannelClosedError of the first closed one, or None).

    Nonrelativistic momenta |p| = sqrt(2 m ek), final kinetic energy
    ek + n*omega (closed unless > 0), q = p' - p, and the single Bessel
    argument a1 = eAbar0 sqrt((q.E1)^2 + zeta^2 (q.E2)^2)/(m omega):

        dsigma^(n)/dOmega = (|p'|/|p|) J_n(a1)^2 (2 m U~(q)/(4 pi))^2,

    booked whole as the main term.  Each lane has a one-channel
    evaluation's bits: q^2 is its own dot product (matmul), a square is
    pow (np.float_power, as a float's ** 2) and J_n(a1) is bessel_j's.
    """
    ns = [_integer(n, "photon number") for n in ns]
    _orders(ns)
    laser = scenario.laser
    m = ELECTRON_MASS_EV
    ek = scenario.kinetic_energy
    ekf = ek + np.array(ns, dtype=float) * laser.omega
    shut = ekf <= 0.0
    closed = None
    if shut.any():
        n = ns[int(np.argmax(shut))]
        closed = ChannelClosedError(n, f"nonrelativistic channel n={n} closed")
        ns = [n for n, s in zip(ns, shut.tolist()) if not s]
        ekf = ekf[~shut]
    phat = _unit(scenario.direction, "electron direction")
    p_mag = math.sqrt(2.0 * m * ek)
    pf_mag = np.sqrt(2.0 * m * ekf)
    rhat = _frame_rhat(phat, scenario.deflection, scenario.azimuth)
    q = pf_mag[:, None] * rhat - p_mag * phat
    q2 = np.matmul(q[:, None, :], q[:, :, None])[:, 0, 0]
    a1 = alpha_theta(q, laser)[0] / (m * laser.omega)

    ut = u_tilde(scenario.potential, q2)
    value = xs_to_atomic_units(
        (pf_mag / p_mag) * np.float_power(bessel_j_block(ns, a1), 2.0)
        * np.float_power(2.0 * m * ut / (4.0 * math.pi), 2.0))
    zero = np.zeros(len(ns))
    return XSBlock(ns, value, value, zero, zero, a1, q2), closed


def partial_xs_nonrel(scenario, n):
    """Dipole-limit reference of one channel: its one-lane block's."""
    block, closed = partial_xs_nonrel_block(scenario, [n])
    if closed is not None:
        raise closed
    return block[0]
