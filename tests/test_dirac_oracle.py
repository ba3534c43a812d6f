import math

import numpy as np
import pytest

from conftest import make_scenario
from sbxs.dirac_oracle import (
    GAMMA0,
    GAMMAS,
    amplitude_matrix,
    slash,
    spinor,
    xs_oracle,
)
from sbxs.kinematics import FourVector
from sbxs.units import ELECTRON_MASS_EV
from sbxs.xsection import elastic_born, partial_xs_general

M = ELECTRON_MASS_EV
I4 = np.eye(4)
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


# ---------------------------------------------------------------------------
# gamma algebra
# ---------------------------------------------------------------------------

def test_clifford_relations():
    for mu in range(4):
        for nu in range(4):
            anti = GAMMAS[mu] @ GAMMAS[nu] + GAMMAS[nu] @ GAMMAS[mu]
            assert np.allclose(anti, 2.0 * METRIC[mu, nu] * I4, atol=1e-15)


def test_slash_squares_to_invariant():
    p = FourVector(5.0, 1.0, -2.0, 3.0)
    sp = slash(p)
    assert np.allclose(sp @ sp, p.mass2 * I4, atol=1e-12)


def test_lightlike_slash_nilpotent():
    k = FourVector(2.5, 0.0, 0.0, 2.5)
    sk = slash(k)
    assert np.allclose(sk @ sk, np.zeros((4, 4)), atol=1e-12)


def test_trace_identity():
    a = FourVector(1.2, 0.4, -0.9, 2.2)
    b = FourVector(-0.7, 1.5, 0.3, 0.8)
    tr = np.trace(slash(a) @ slash(b))
    assert tr == pytest.approx(4.0 * a.dot(b), rel=1e-14)


# ---------------------------------------------------------------------------
# spinors
# ---------------------------------------------------------------------------

def _momentum(ek, direction):
    d = np.asarray(direction, float)
    d = d / np.linalg.norm(d)
    pm = math.sqrt(ek * (2 * M + ek))
    return FourVector.from_parts(M + ek, pm * d)


@pytest.mark.parametrize("direction", [(0, 0, 1), (1, 0, 0), (0.3, -0.4, 0.9)])
def test_spinor_normalization(direction):
    p = _momentum(2700.0, direction)
    for mu in (1, 2):
        u = spinor(p, mu)
        ubar = u.conj() @ GAMMA0
        assert (ubar @ u).real == pytest.approx(2.0 * M, rel=1e-14)
        assert abs((ubar @ u).imag) < 1e-9


@pytest.mark.parametrize("direction", [(0, 0, 1), (0.3, -0.4, 0.9)])
def test_spinor_dirac_equation(direction):
    p = _momentum(5000.0, direction)
    for mu in (1, 2):
        u = spinor(p, mu)
        residual = (slash(p) - M * I4) @ u
        assert np.linalg.norm(residual) < 1e-12 * M


def test_spinor_completeness():
    p = _momentum(2700.0, (0.2, 0.5, 0.8))
    acc = np.zeros((4, 4), dtype=complex)
    for mu in (1, 2):
        u = spinor(p, mu)
        acc += np.outer(u, u.conj() @ GAMMA0)
    assert np.allclose(acc, slash(p) + M * I4, atol=1e-9 * M)


# ---------------------------------------------------------------------------
# amplitude matrix
# ---------------------------------------------------------------------------

def test_amplitude_free_field_is_gamma0(pot_fig):
    # between on-shell spinors A reduces to gamma0 at zero field, n = 0
    s = make_scenario(pot_fig, K=0.0, zeta=1.0)
    ds = s.dressed()
    ch = s.channel(0, ds)
    A = amplitude_matrix(ch, s.laser, ds)
    for mu in (1, 2):
        ubar_f = spinor(ch.p_final, mu).conj() @ GAMMA0
        for nu in (1, 2):
            u = spinor(ds.p, nu)
            assert abs(ubar_f @ A @ u - ubar_f @ GAMMA0 @ u) < 1e-9 * M


def test_amplitude_not_hermitian(pot_fig, k_fig):
    s = make_scenario(pot_fig, K=k_fig, zeta=0.5, deflection_mrad=6.0,
                      direction=(0.3, 0.2, 0.9), azimuth=0.8)
    ds = s.dressed()
    A = amplitude_matrix(s.channel(3, ds), s.laser, ds)
    assert not np.allclose(A, A.conj().T, atol=1e-12 * np.abs(A).max())


def test_trace_reality_fig1a(fig1a):
    ds = fig1a.dressed()
    ch = fig1a.channel(5, ds)
    A = amplitude_matrix(ch, fig1a.laser, ds)
    abar = GAMMA0 @ A.conj().T @ GAMMA0
    rho = 0.5 * (slash(ds.p) + M * I4)
    rho_f = 0.5 * (slash(ch.p_final) + M * I4)
    tr = np.trace(rho_f @ A @ rho @ abar)
    assert abs(tr.imag) <= 1e-12 * abs(tr.real)


# ---------------------------------------------------------------------------
# cross-section oracle
# ---------------------------------------------------------------------------

def test_oracle_free_field(pot_fig):
    s = make_scenario(pot_fig, K=0.0, zeta=1.0)
    assert xs_oracle(s, 0) == pytest.approx(elastic_born(s), rel=1e-10)
    assert xs_oracle(s, 1) == 0.0


def test_oracle_matches_general_randomized(pot_fig):
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 40:
        s = make_scenario(
            pot_fig,
            K=float(rng.choice([0.01, 0.17, 0.8])),
            zeta=float(rng.choice([0.0, 0.5, 1.0])),
            deflection_mrad=float(rng.choice([0.6, 6.0, 60.0])),
            direction=tuple(rng.normal(size=3)),
            azimuth=float(rng.uniform(0, 2 * math.pi)),
        )
        a1 = s.channel(0).alpha1
        n = int(rng.integers(-int(a1) - 2, int(a1) + 3))
        try:
            a = partial_xs_general(s, n).value
            b = xs_oracle(s, n)
        except Exception:
            continue
        scale = max(abs(a), abs(b))
        if scale == 0.0:
            continue
        assert abs(a - b) / scale < 1e-8
        checked += 1


def test_oracle_frame_rotation_invariance(pot_fig, k_fig):
    # rotating the electron direction by pi about KHAT, (x, y, z) ->
    # (-x, -y, z), and the azimuth by pi maps the wave A onto -A, a
    # half-period shift: the cross section must be unchanged
    for zeta in (0.0, 0.5, 1.0):
        base, turned = (
            make_scenario(pot_fig, K=k_fig, zeta=zeta, deflection_mrad=6.0,
                          direction=d, azimuth=az)
            for d, az in (((0.3, 0.2, 0.9), 1.1),
                          ((-0.3, -0.2, 0.9), 1.1 + math.pi)))
        for n in (-4, 0, 3):
            assert xs_oracle(turned, n) == pytest.approx(
                xs_oracle(base, n), rel=1e-10
            )
