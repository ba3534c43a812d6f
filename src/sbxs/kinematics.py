"""Laser-field geometry, dressed electron states and channel kinematics.

Metric is (+,-,-,-); all scalar products are relativistic, a.b = a0*b0 - avec.bvec.
The lab frame is fixed: the wave travels along KHAT = +z and its
polarization axes are E1 = x and E2 = y.  Electron and observation
directions are given in this frame; rotating the wave's axes is only a
change of coordinates, so no other orientation is offered.  The wave
four-vector is k = omega*(1, KHAT) and the inner-field state is
characterized by the quasimomentum

    Pi = p + k * Z * (1 + zeta^2),      Z = (e*Abar0)^2 / (4 k.p),

which sits on the effective-mass shell Pi^2 = m^2 + (e*Abar0)^2 (1+zeta^2)/2.
A channel exchanging n photons has quasienergy Pi0' = Pi0 + n*omega and final
quasimomentum magnitude Pi_n = sqrt(Pivec^2 + n*omega*(2*Pi0 + n*omega)).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ChannelClosedError, DomainError
from .units import ELECTRON_MASS_EV

# Fixed lab frame: the wave travels along z, polarization axes along x, y.
E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
KHAT = np.array([0.0, 0.0, 1.0])

# e*Abar0 [eV] at most this, so that a0bar^2 stays finite.
A0BAR_MAX = 1.0e150
# Quasienergy Pi0 [eV] at most this, so that Pivec.Pivec stays finite.
PI0_MAX = 1.0e150


def _vec(x):
    return np.asarray(x, dtype=float)


def _unit(v, what):
    """v / |v| for a finite nonzero 3-vector v, scaled first (exactly) by the
    power of two of its largest |component|, so |v| cannot over/underflow."""
    v = _vec(v)
    big = float(np.max(np.abs(v))) if v.shape == (3,) else math.nan
    if not (math.isfinite(big) and big > 0.0):
        raise DomainError(f"{what} must be a finite nonzero 3-vector: {v.tolist()}")
    v = np.ldexp(v, -math.frexp(big)[1])
    return v / float(np.linalg.norm(v))


@dataclass(frozen=True)
class FourVector:
    """Contravariant four-vector, time component first, components in eV."""

    t: float
    x: float
    y: float
    z: float

    @property
    def vec3(self):
        return np.array([self.x, self.y, self.z])

    def dot(self, other):
        return self.t * other.t - (
            self.x * other.x + self.y * other.y + self.z * other.z
        )

    @property
    def mass2(self):
        return self.dot(self)

    @classmethod
    def from_parts(cls, t, vec3):
        v = _vec(vec3)
        return cls(float(t), float(v[0]), float(v[1]), float(v[2]))


@dataclass(frozen=True, eq=False)
class LaserField:
    """Plane monochromatic wave A(phi) = Abar0 (E1 cos(phi) + zeta E2 sin(phi))
    travelling along KHAT, in the fixed lab frame of this module.

    a0bar stores e*Abar0 in eV, i.e. K * m; zeta = 0 is linear polarization
    along E1, zeta = 1 circular.  omega lies in (0, m) eV, below the electron
    rest energy m, and a0bar in [0, A0BAR_MAX = 1e150] eV, so that omega^2
    and a0bar^2 stay finite.
    """

    omega: float
    zeta: float
    a0bar: float

    def __post_init__(self):
        if not 0.0 < self.omega < ELECTRON_MASS_EV:
            raise DomainError(f"omega must lie in (0, {ELECTRON_MASS_EV}) eV, "
                              f"below the electron rest energy, got {self.omega}")
        if not 0.0 <= self.zeta <= 1.0:
            raise DomainError(f"zeta must lie in [0, 1], got {self.zeta}")
        if not 0.0 <= self.a0bar <= A0BAR_MAX:
            raise DomainError(
                f"a0bar must lie in [0, {A0BAR_MAX:g}] eV, got {self.a0bar}")

    @property
    def K(self):
        return self.a0bar / ELECTRON_MASS_EV

    @property
    def k4(self):
        return FourVector.from_parts(self.omega, self.omega * KHAT)

    @classmethod
    def from_K(cls, omega, K, zeta):
        return cls(omega, zeta, K * ELECTRON_MASS_EV)

    def with_K(self, K):
        return replace(self, a0bar=K * ELECTRON_MASS_EV)


@dataclass(frozen=True, eq=False)
class DressedState:
    """Free four-momentum plus the wave-intensity parameter and quasimomentum.

    alpha_pi, theta_pi = alpha_theta(Pivec / k.p), pivec_mag = |Pivec| and
    the effective mass mstar = sqrt(Pi^2) are the dressing terms every
    channel reads.
    """

    p: FourVector
    Z: float
    Pi: FourVector
    kdotp: float
    alpha_pi: float
    theta_pi: float
    pivec_mag: float
    mstar: float


def dress(kinetic_energy, direction, laser):
    """Dressed state of an electron with the given kinetic energy [eV].

    direction is the free-momentum direction (any finite nonzero 3-vector).
    |p| must come out finite, else a DomainError raised before p is formed:
    the kinetic energy must stay below about 1.3e154 eV, where |p|^2
    overflows.  k.p must come out finite and > 0, else a DomainError: along
    KHAT, E - p rounds to 0 or below at some energies from about 1e15 eV.
    The quasienergy Pi0 must come out at most PI0_MAX = 1e150 eV, else a
    DomainError: Z = a0bar^2 / (4 k.p) grows with the intensity and as
    omega falls.  mstar is taken from the mass shell,
    sqrt(m^2 + a0bar^2 (1 + zeta^2) / 2), not from Pi.Pi, whose two terms
    cancel to every digit once a0bar >> m.
    """
    if not (math.isfinite(kinetic_energy) and kinetic_energy >= 0.0):
        raise DomainError(f"kinetic energy must be >= 0, got {kinetic_energy}")
    d = _unit(direction, "electron direction")
    m = ELECTRON_MASS_EV
    energy = m + kinetic_energy
    p_mag = math.sqrt(kinetic_energy * (2.0 * m + kinetic_energy))
    if not math.isfinite(p_mag):
        raise DomainError("|p| overflows: kinetic energy must be below about "
                          f"1.3e154 eV, got {kinetic_energy} eV")
    p = FourVector.from_parts(energy, p_mag * d)
    kdotp = laser.k4.dot(p)
    if not (math.isfinite(kdotp) and kdotp > 0.0):
        raise DomainError(f"k.p must be finite and > 0, got {kdotp} eV^2 "
                          f"at kinetic energy {kinetic_energy} eV")
    Z = laser.a0bar**2 / (4.0 * kdotp)
    shift = Z * (1.0 + laser.zeta**2)
    Pi = FourVector.from_parts(
        p.t + laser.omega * shift, p.vec3 + laser.omega * shift * KHAT
    )
    if not Pi.t <= PI0_MAX:
        raise DomainError(f"quasienergy Pi0 must be <= {PI0_MAX:g} eV, got "
                          f"{Pi.t} eV (Z = a0bar^2 / (4 k.p) = {Z})")
    alpha_pi, theta_pi = alpha_theta(Pi.vec3 / kdotp, laser)
    return DressedState(p=p, Z=Z, Pi=Pi, kdotp=kdotp, alpha_pi=alpha_pi,
                        theta_pi=theta_pi,
                        pivec_mag=float(np.linalg.norm(Pi.vec3)),
                        mstar=math.sqrt(m * m + laser.a0bar**2
                                        * (1.0 + laser.zeta**2) / 2.0))


def alpha_theta(rho, laser):
    """Dynamic amplitude alpha(rho) and phase theta(rho) of the dressing.

    alpha = e*Abar0 * sqrt((rho.E1)^2 + zeta^2 (rho.E2)^2); theta is the
    quadrant-resolved angle of (rho.E1, zeta*rho.E2), fixed to 0 when alpha
    vanishes (every theta-dependent term then carries a factor alpha).
    """
    r = _vec(rho)
    c1 = float(np.dot(r, E1))
    c2 = laser.zeta * float(np.dot(r, E2))
    alpha = laser.a0bar * math.hypot(c1, c2)
    if alpha == 0.0:
        return 0.0, 0.0
    return alpha, math.atan2(c2, c1)


def _frame_rhat(axis_hat, deflection, azimuth):
    """Unit vector at `deflection` from axis_hat; azimuth 0 lies in the
    plane spanned by axis_hat and E1 (falls back to E2 when axis || E1)."""
    t1 = E1 - float(np.dot(E1, axis_hat)) * axis_hat
    if float(np.linalg.norm(t1)) < 1.0e-12:
        t1 = E2 - float(np.dot(E2, axis_hat)) * axis_hat
    t1 = _unit(t1, "azimuth reference")
    t2 = np.cross(axis_hat, t1)
    r = (
        math.cos(deflection) * axis_hat
        + math.sin(deflection) * (math.cos(azimuth) * t1 + math.sin(azimuth) * t2)
    )
    return _unit(r, "observation direction")


def deflection_frame(dressed, deflection, azimuth):
    """Observation direction making `deflection` with the quasimomentum."""
    if not 0.0 <= deflection <= math.pi:
        raise DomainError(f"deflection must lie in [0, pi], got {deflection}")
    pihat = _unit(dressed.Pi.vec3, "quasimomentum")
    return _frame_rhat(pihat, deflection, azimuth)


@dataclass(frozen=True, eq=False)
class Channel:
    """All derived kinematics of the n-photon channel."""

    n: int
    Pi0_final: float
    Pi_n: float
    q_n: np.ndarray
    q2: float
    q_perp2: float
    p_final: FourVector
    Z_final: float
    kdotp_final: float
    alpha1: float
    alpha2: float
    theta1: float
    beta2: float


def open_channel(dressed, n, rhat, laser):
    """Channel kinematics for n exchanged photons in direction rhat.

    Raises ChannelClosedError when the final quasienergy falls below the
    effective mass.
    """
    n = int(n)
    r = _vec(rhat)
    r = r / float(np.linalg.norm(r))
    omega = laser.omega
    zeta = laser.zeta
    Pi0 = dressed.Pi.t
    pivec = dressed.Pi.vec3

    Pi0f = Pi0 + n * omega
    if Pi0f < dressed.mstar:
        raise ChannelClosedError(n)
    pin2 = float(np.dot(pivec, pivec)) + n * omega * (2.0 * Pi0 + n * omega)
    Pi_n = math.sqrt(max(pin2, 0.0))

    pivec_f = Pi_n * r
    q = pivec_f - pivec - n * omega * KHAT
    kdotpi_f = omega * (Pi0f - float(np.dot(KHAT, pivec_f)))
    Zf = laser.a0bar**2 / (4.0 * kdotpi_f)
    shift = Zf * (1.0 + zeta**2)
    p_final = FourVector.from_parts(
        Pi0f - omega * shift, pivec_f - omega * shift * KHAT
    )

    kdotpi = dressed.kdotp  # k.Pi = k.p exactly (k^2 = 0)
    rho = pivec_f / kdotpi_f - pivec / kdotpi
    alpha1, theta1 = alpha_theta(rho, laser)
    alpha2 = 0.5 * (Zf - dressed.Z) * (1.0 - zeta**2)

    q2 = float(np.dot(q, q))
    q_perp2 = max(q2 - float(np.dot(KHAT, q)) ** 2, 0.0)
    beta2 = laser.a0bar**2 * omega**2 * q_perp2 / (kdotpi * kdotpi_f)

    return Channel(
        n=n,
        Pi0_final=Pi0f,
        Pi_n=Pi_n,
        q_n=q,
        q2=q2,
        q_perp2=q_perp2,
        p_final=p_final,
        Z_final=Zf,
        kdotp_final=kdotpi_f,
        alpha1=alpha1,
        alpha2=alpha2,
        theta1=theta1,
        beta2=beta2,
    )
