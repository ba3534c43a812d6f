import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from sbxs.errors import ChannelClosedError, DomainError
from sbxs.kinematics import (
    A0BAR_MAX,
    E1,
    KHAT,
    PI0_MAX,
    FourVector,
    LaserField,
    _unit,
    alpha_theta,
    deflection_frame,
    dress,
    open_channel,
)
from sbxs.units import ELECTRON_MASS_EV

M = ELECTRON_MASS_EV
OMEGA = 1.17


def laser(K=0.17, zeta=1.0):
    return LaserField.from_K(OMEGA, K, zeta)


def test_four_vector_metric():
    a = FourVector(2.0, 1.0, 0.5, -0.3)
    b = FourVector(1.0, -1.0, 2.0, 0.7)
    assert a.dot(b) == 2.0 * 1.0 - (1.0 * -1.0 + 0.5 * 2.0 + -0.3 * 0.7)
    assert a.mass2 == a.dot(a)


def test_laser_triad_validation():
    with pytest.raises(DomainError):
        LaserField(OMEGA, 1.5, 1000.0)
    with pytest.raises(DomainError):
        LaserField(-1.0, 0.0, 0.0)


def test_dress_on_shell():
    ds = dress(2700.0, (0, 0, 1), laser())
    assert ds.p.mass2 == pytest.approx(M**2, rel=1e-10)
    assert ds.p.t == M + 2700.0


def test_dress_quasimomentum_construction():
    las = laser(K=0.17, zeta=0.6)
    ds = dress(2700.0, (0.3, -0.2, 0.9), las)
    shift = ds.Z * (1.0 + las.zeta**2)
    expected = ds.p.vec3 + OMEGA * shift * KHAT
    assert np.allclose(ds.Pi.vec3, expected, rtol=0, atol=1e-9)
    assert ds.Pi.t == pytest.approx(ds.p.t + OMEGA * shift, rel=1e-14)
    # Z = (e Abar0)^2 / (4 k.p)
    assert ds.Z == pytest.approx(las.a0bar**2 / (4.0 * ds.kdotp), rel=1e-14)
    # k.Pi = k.p (k^2 = 0)
    assert las.k4.dot(ds.Pi) == pytest.approx(ds.kdotp, rel=1e-12)


def test_effective_mass_shell():
    # Pi^2 = m^2 + (e Abar0)^2 (1 + zeta^2)/2; at zeta = 1: Pi^2 - m^2 = K^2 m^2
    las = laser(K=0.17, zeta=1.0)
    ds = dress(2700.0, (0, 0, 1), las)
    assert ds.Pi.mass2 - M**2 == pytest.approx(0.17**2 * M**2, rel=1e-10)
    las2 = laser(K=0.4, zeta=0.3)
    ds2 = dress(5000.0, (0.1, 0.9, -0.2), las2)
    assert ds2.Pi.mass2 == pytest.approx(
        M**2 + las2.a0bar**2 * (1 + 0.3**2) / 2.0, rel=1e-12
    )


@pytest.mark.parametrize("K", [0.17, 906.0, 9e4, 9e8])
def test_effective_mass_is_the_mass_shell_value(K):
    # Pi.Pi cancels to 1e-3 relative at K = 9e4 and to 0.0 at K = 9e8 on
    # fig1a; m* is the shell value, here in 50-digit decimal arithmetic
    las = laser(K=K)
    with localcontext() as ctx:
        ctx.prec = 50
        shell = (Decimal(M) ** 2 + Decimal(las.a0bar) ** 2
                 * (1 + Decimal(las.zeta) ** 2) / 2).sqrt()
    mstar = dress(2700.0, (0, 0, 1), las).mstar
    assert abs(Decimal(mstar) - shell) <= Decimal(1e-15) * shell


def test_dress_bounds_the_quasienergy():
    # Z = a0bar^2 / (4 k.p) takes Pi0 past PI0_MAX at a large a0bar or a
    # small omega; below it Pivec.Pivec stays finite
    for omega, K in ((1.17, 1e134), (1e-100, 1e100)):
        with pytest.raises(DomainError, match="Pi0 must be <= 1e\\+150"):
            dress(2700.0, (0, 0, 1), LaserField.from_K(omega, K, 1.0))
    ds = dress(2700.0, (0, 0, 1), laser(K=1e70))
    assert ds.Pi.t <= PI0_MAX and math.isfinite(ds.pivec_mag)


def test_rest_limit_Z():
    # electron at rest: k.p = omega*m so Z -> K^2 m / (4 omega)
    K = 0.17
    ds = dress(0.0, (0, 0, 1), laser(K=K))
    assert ds.Z == pytest.approx(K**2 * M / (4.0 * OMEGA), rel=1e-12)


def test_free_limit():
    ds = dress(2700.0, (0, 0, 1), laser(K=0.0))
    assert ds.Z == 0.0
    assert ds.Pi == ds.p


def test_free_limit_continuity():
    # K = 1e-8: dressing shifts scale as K^2
    ds0 = dress(2700.0, (0, 0, 1), laser(K=0.0))
    ds = dress(2700.0, (0, 0, 1), laser(K=1e-8))
    assert abs(ds.Pi.t - ds0.Pi.t) < 1e-9
    assert abs(ds.Z) < 1e-9
    ch = open_channel(ds, 1, deflection_frame(ds, 1e-3, 0.0), laser(K=1e-8))
    assert ch.alpha1 < 1e-6
    assert abs(ch.alpha2) < 1e-12


def test_laser_range_rules():
    for omega in (M, 1e300, math.nan):
        with pytest.raises(DomainError, match="rest energy"):
            LaserField(omega, 1.0, 0.0)
    LaserField(OMEGA, 1.0, A0BAR_MAX)
    with pytest.raises(DomainError, match="1e\\+150"):
        LaserField(OMEGA, 1.0, 2.0 * A0BAR_MAX)


@pytest.mark.parametrize("v", [(0.3, 0.2, 0.9), (-1.0, 1e-9, 7.0),
                               (0.0, 0.0, 1.0)])
def test_unit_is_the_plain_quotient_at_any_scale(v):
    plain = np.asarray(v) / np.linalg.norm(v)
    for power in (-900, -500, 0, 500, 1020):
        scaled = np.ldexp(np.asarray(v), power)
        assert _unit(scaled, "v").tolist() == plain.tolist()


def test_dress_along_k_needs_representable_kdotp():
    # along KHAT E - p rounds to 0 or below (1e15, 1e16, 1e20 eV); |p|
    # overflows at 1e300 eV and is refused before p is formed
    for ek in (1e15, 1e16, 1e20):
        with pytest.raises(DomainError, match="k.p"):
            dress(ek, (0, 0, 1), laser())
    with pytest.raises(DomainError, match="1.3e154 eV"):
        dress(1e300, (1, 0, 0), laser())
    assert dress(1e6, (0, 0, 1), laser()).kdotp > 0.0


def test_dress_rejects_bad_input():
    with pytest.raises(DomainError):
        dress(1000.0, (0, 0, 0), laser())
    with pytest.raises(DomainError):
        dress(-5.0, (0, 0, 1), laser())


# ---------------------------------------------------------------------------
# alpha / theta
# ---------------------------------------------------------------------------

def test_alpha_theta_along_k():
    a, t = alpha_theta((0, 0, 3.7), laser())
    assert a == 0.0 and t == 0.0


def test_alpha_theta_linear_e2():
    a, t = alpha_theta((0, 2.0, 0), laser(zeta=0.0))
    assert a == 0.0 and t == 0.0


def test_alpha_theta_circular_diagonal():
    las = laser(K=0.17, zeta=1.0)
    a, t = alpha_theta((1.0, 1.0, 0.0), las)
    assert a == pytest.approx(las.a0bar * math.sqrt(2.0), rel=1e-14)
    assert t == pytest.approx(math.pi / 4.0, rel=1e-14)


def test_alpha_theta_quadrants():
    las = laser(zeta=1.0)
    _, t = alpha_theta((-1.0, 1.0, 0.0), las)
    assert t == pytest.approx(3.0 * math.pi / 4.0, rel=1e-14)
    _, t = alpha_theta((-1.0, -1.0, 0.0), las)
    assert t == pytest.approx(-3.0 * math.pi / 4.0, rel=1e-14)


# ---------------------------------------------------------------------------
# deflection frame
# ---------------------------------------------------------------------------

def test_frame_zero_deflection():
    las = laser()
    ds = dress(2700.0, (0.2, 0.3, 0.9), las)
    r = deflection_frame(ds, 0.0, 1.234)
    pihat = ds.Pi.vec3 / np.linalg.norm(ds.Pi.vec3)
    assert np.allclose(r, pihat, atol=1e-15)


def test_frame_along_k():
    las = laser()
    ds = dress(2700.0, (0, 0, 1), las)
    theta = 0.6e-3
    r = deflection_frame(ds, theta, 0.0)
    expected = math.cos(theta) * KHAT + math.sin(theta) * E1
    assert np.allclose(r, expected, atol=1e-15)


def test_frame_unit_norm_random():
    rng = np.random.default_rng(2)
    las = laser()
    for _ in range(20):
        ds = dress(float(rng.uniform(10, 1e5)), rng.normal(size=3), las)
        r = deflection_frame(ds, float(rng.uniform(0, math.pi)),
                             float(rng.uniform(0, 2 * math.pi)))
        assert abs(np.linalg.norm(r) - 1.0) < 1e-14


def test_frame_fallback_axis_parallel_e1():
    las = laser()
    ds = dress(2700.0, (1, 0, 0), las)  # quasimomentum not exactly along e1
    # force the degenerate branch with an axis exactly along e1
    K0 = LaserField.from_K(OMEGA, 0.0, 1.0)
    ds0 = dress(2700.0, (1, 0, 0), K0)
    r = deflection_frame(ds0, 0.5, 0.0)
    # azimuth reference falls back to e2
    expected = math.cos(0.5) * np.array([1.0, 0, 0]) + math.sin(0.5) * np.array(
        [0, 1.0, 0]
    )
    assert np.allclose(r, expected, atol=1e-14)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def test_channel_elastic_direction():
    las = laser()
    ds = dress(2700.0, (0, 0, 1), las)
    r = deflection_frame(ds, 0.6e-3, 0.0)
    ch = open_channel(ds, 0, r, las)
    assert ch.Pi0_final == ds.Pi.t
    assert ch.Pi_n == pytest.approx(np.linalg.norm(ds.Pi.vec3), rel=1e-14)


def test_channel_energy_conservation_exact():
    las = laser()
    ds = dress(2700.0, (0, 0, 1), las)
    r = deflection_frame(ds, 0.6e-3, 0.0)
    for n in (-50, -3, 7, 50):
        ch = open_channel(ds, n, r, las)
        assert ch.Pi0_final == ds.Pi.t + n * OMEGA
        assert abs(np.linalg.norm(ch.q_n + ds.Pi.vec3 + n * OMEGA * KHAT)
                   - ch.Pi_n) < 1e-9


def test_channel_invariants_fig1a_n50():
    las = laser(K=0.17, zeta=1.0)
    ds = dress(2700.0, (0, 0, 1), las)
    r = deflection_frame(ds, 0.6e-3, 0.0)
    ch = open_channel(ds, 50, r, las)
    # final state sits on the same effective-mass shell
    shift = ch.Z_final * (1.0 + las.zeta**2)
    pi_f = FourVector.from_parts(
        ch.p_final.t + OMEGA * shift, ch.p_final.vec3 + OMEGA * shift * KHAT
    )
    assert pi_f.mass2 == pytest.approx(ds.Pi.mass2, rel=1e-12)
    assert ch.p_final.mass2 == pytest.approx(M**2, rel=1e-10)
    # k.p' = k.Pi'
    assert las.k4.dot(ch.p_final) == pytest.approx(ch.kdotp_final, rel=1e-12)
    # Pi_n^2 = Pivec^2 + n w (2 Pi0 + n w)
    pin2 = float(np.dot(ds.Pi.vec3, ds.Pi.vec3)) + 50 * OMEGA * (
        2 * ds.Pi.t + 50 * OMEGA
    )
    assert ch.Pi_n**2 == pytest.approx(pin2, rel=1e-14)
    assert ch.beta2 >= 0.0
    for field in (ch.alpha1, ch.alpha2, ch.theta1, ch.beta2):
        assert math.isfinite(field)


def test_alpha2_vanishes_circular():
    las = laser(K=0.3, zeta=1.0)
    ds = dress(2700.0, (0.2, 0.1, 1.0), las)
    r = deflection_frame(ds, 5e-3, 0.7)
    for n in (-20, -1, 0, 3, 40):
        assert open_channel(ds, n, r, las).alpha2 == 0.0


def test_alpha_argument_equivalence():
    # alpha/theta computed from p/(k.p) equal those from Pi/(k.Pi) exactly
    las = laser(K=0.4, zeta=0.7)
    ds = dress(8000.0, (0.3, -0.5, 0.4), las)
    a_p, t_p = alpha_theta(ds.p.vec3 / ds.kdotp, las)
    a_pi, t_pi = alpha_theta(ds.Pi.vec3 / las.k4.dot(ds.Pi), las)
    assert a_p == pytest.approx(a_pi, abs=1e-14 * max(a_p, 1.0))
    assert t_p == pytest.approx(t_pi, abs=1e-14)


def test_closed_channel_error_carries_n():
    las = laser()
    ds = dress(2700.0, (0, 0, 1), las)
    r = deflection_frame(ds, 0.6e-3, 0.0)
    n_closed = -int(ds.Pi.t / OMEGA)  # way below threshold
    with pytest.raises(ChannelClosedError) as err:
        open_channel(ds, n_closed, r, las)
    assert err.value.n == n_closed


def test_forward_momentum_transfer_scales_linearly():
    las = laser(K=0.0, zeta=1.0)
    ds = dress(2700.0, (0, 0, 1), las)
    qs = []
    for theta in (1e-4, 5e-5):
        r = deflection_frame(ds, theta, 0.0)
        ch = open_channel(ds, 0, r, las)
        qs.append(np.linalg.norm(ch.q_n))
    assert qs[0] / qs[1] == pytest.approx(2.0, rel=1e-6)
