"""Brute-force spinor-algebra oracle for the closed-form cross sections.

Everything here is evaluated from first principles: explicit 4x4 gamma
matrices in the Dirac representation (metric g = diag(+,-,-,-), so
{gamma^mu, gamma^nu} = 2 g^munu 1), free bispinors normalized to
ubar u = 2m, and the channel amplitude matrix taken directly from the
asymptotic scattering bispinor,

    A = -M / (2m),

    M = D_n (gvec.q) g0
        + (Z D_{2,n} / k.p') [ (kvec.q)(gamma.k) g0 - w (gamma.k)(gvec.q) ]
        + (gamma.k)(gvec.D)(gvec.q) g0 / (2 k.p')
        + (1/(2 k.p)) [ w (q^2 + 2 pvec.q - 2 (eps/w) kvec.q) / k.p'
                        - (gvec.q) g0 ] (gamma.k)(gvec.D)
        - 2 [ eps D_n - w alpha(pvec/k.p) D_{1,n}(theta(p)) + w Z D_{2,n} ],

with gvec.x the plain spatial contraction gamma^i x_i and k.p' = k.p - kvec.q.

Convention note: the compact split
A = E^ + kslash' Dslash was tried in every sign/ordering reading (left and
right products, both signs of the spatial slash, both k.p placements); all
of them reproduce the closed form only for electron momentum collinear with
the wave.  The unreduced bispinor matrix above is the unique form found to
agree with the closed-form general cross section for every geometry (to
machine precision, including first order in the field amplitude at K -> 0),
so the oracle is built on it.  Between on-shell spinors it collapses to
gamma0 at zero field, matching the compact form there.

The unpolarized partial cross section follows both as the explicit double
spin sum over |ubar' A u|^2 and as the equivalent trace 2 Tr{rho' A rho Abar}
with rho = (pslash + m)/2.  The two are computed side by side on every call;
disagreement is a convention bug and aborts.
"""

import math

import numpy as np

from .errors import OracleInconsistencyError
from .kinematics import KHAT, alpha_theta
from .potential import u_tilde
from .units import ELECTRON_MASS_EV, xs_to_atomic_units
from .xsection import FOUR_PI_SQ, d_functions

_ID = np.eye(4, dtype=complex)

GAMMA0 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)

_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _gamma_spatial(i):
    g = np.zeros((4, 4), dtype=complex)
    g[:2, 2:] = _SIGMA[i]
    g[2:, :2] = -_SIGMA[i]
    return g


GAMMA1, GAMMA2, GAMMA3 = (_gamma_spatial(i) for i in range(3))
GAMMAS = (GAMMA0, GAMMA1, GAMMA2, GAMMA3)


def slash(v):
    """gamma.v = gamma0 v0 - gammavec.vvec for a FourVector."""
    return GAMMA0 * v.t - GAMMA1 * v.x - GAMMA2 * v.y - GAMMA3 * v.z


def _g3(a):
    """Plain spatial contraction gammavec.a (a may be complex)."""
    return GAMMA1 * a[0] + GAMMA2 * a[1] + GAMMA3 * a[2]


def spinor(p, mu):
    """Free bispinor u_p^mu in the Dirac representation, ubar u = 2m."""
    if mu not in (1, 2):
        raise ValueError(f"polarization index must be 1 or 2, got {mu}")
    m = ELECTRON_MASS_EV
    chi = (
        np.array([1.0, 0.0], dtype=complex)
        if mu == 1
        else np.array([0.0, 1.0], dtype=complex)
    )
    sp = _SIGMA[0] * p.x + _SIGMA[1] * p.y + _SIGMA[2] * p.z
    return math.sqrt(p.t + m) * np.concatenate([chi, (sp @ chi) / (p.t + m)])


def _abar(A):
    return GAMMA0 @ A.conj().T @ GAMMA0


def amplitude_matrix(channel, laser, dressed):
    """Channel amplitude matrix A (see module docstring for the form)."""
    d = d_functions(channel, laser, dressed)
    omega = laser.omega
    kp, kpf = dressed.kdotp, channel.kdotp_final
    q = channel.q_n
    kvec = omega * KHAT
    kq = float(np.dot(kvec, q))
    q2 = channel.q2
    pq = float(np.dot(dressed.p.vec3, q))
    eps = dressed.p.t

    gk = slash(laser.k4)
    gq = _g3(q)
    gD = _g3(d.dvec)
    alpha_p, _ = alpha_theta(dressed.p.vec3 / kp, laser)

    M = (
        d.d_n * (gq @ GAMMA0)
        + (dressed.Z * d.d2n / kpf) * (kq * (gk @ GAMMA0) - omega * (gk @ gq))
        + (gk @ gD @ gq @ GAMMA0) / (2.0 * kpf)
        + (1.0 / (2.0 * kp))
        * (
            (omega * (q2 + 2.0 * pq - 2.0 * eps / omega * kq) / kpf) * _ID
            - gq @ GAMMA0
        )
        @ (gk @ gD)
        - 2.0
        * (eps * d.d_n - omega * alpha_p * d.d1n_p + omega * dressed.Z * d.d2n)
        * _ID
    )
    return -M / (2.0 * ELECTRON_MASS_EV)


def xs_oracle(scenario, n):
    """Partial cross section [bohr^2/sr] from the explicit spinor algebra.

    Evaluates both the double spin sum over f^munu and the trace form and
    insists they agree to 1e-10 relative before returning.
    """
    laser = scenario.laser
    dressed = scenario.dressed()
    channel = scenario.channel(n)
    A = amplitude_matrix(channel, laser, dressed)

    p, pf = dressed.p, channel.p_final
    m = ELECTRON_MASS_EV
    rho = 0.5 * (slash(p) + m * _ID)
    rho_f = 0.5 * (slash(pf) + m * _ID)
    trace = 2.0 * np.trace(rho_f @ A @ rho @ _abar(A))
    if abs(trace.imag) > 1.0e-10 * max(abs(trace.real), 1.0):
        raise OracleInconsistencyError(f"trace not real at n={n}: {trace}")

    spin_sum = 0.0
    for mu in (1, 2):
        ubar_f = spinor(pf, mu).conj() @ GAMMA0
        for nu in (1, 2):
            f = ubar_f @ A @ spinor(p, nu)
            spin_sum += abs(f) ** 2
    half_sum = 0.5 * spin_sum  # equals 2 Tr{rho' A rho Abar} by completeness

    if abs(half_sum - trace.real) > 1.0e-10 * max(abs(half_sum), abs(trace.real)):
        raise OracleInconsistencyError(
            f"spin sum {half_sum} vs trace {trace.real} at n={n}"
        )

    ut = u_tilde(scenario.potential, channel.q_n)
    value_nat = channel.Pi_n * ut**2 / (FOUR_PI_SQ * dressed.pivec_mag) * trace.real
    return xs_to_atomic_units(value_nat)
