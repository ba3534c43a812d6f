import cmath
import math

import numpy as np
import pytest

import sbxs.kinematics as kinematics
import sbxs.xsection as xsection
from conftest import make_scenario
from sbxs.errors import ChannelClosedError, DomainError, LinearPathUnstableError
from sbxs.scan import envelope
from sbxs.units import ELECTRON_MASS_EV, FINE_STRUCTURE
from sbxs.xsection import (
    d_functions,
    elastic_born,
    partial_xs_circular,
    partial_xs_general,
    partial_xs_linear,
    partial_xs_nonrel,
)

M = ELECTRON_MASS_EV

# Frozen during development; guards the whole unit/kinematics/potential chain
# against silent regressions (ek = 2.7 keV, 0.6 mrad, Za = 1, 1/chi = 4 bohr).
ELASTIC_GOLDEN = 1032.4817941464662


# ---------------------------------------------------------------------------
# D functions
# ---------------------------------------------------------------------------

def test_dfunctions_free_field_elastic(pot_fig):
    for zeta in (0.0, 0.5, 1.0):
        s = make_scenario(pot_fig, K=0.0, zeta=zeta)
        ds = s.dressed()
        d = d_functions(s.channel(0, ds), s.laser, ds)
        assert d.d_n == 1.0 + 0.0j
        assert d.d2n == pytest.approx(1.0 + zeta**2, rel=1e-15)
        assert np.all(d.dvec == 0.0)
        assert d.dvec_abs2 == 0.0


def test_dfunctions_free_field_inelastic(pot_fig):
    s = make_scenario(pot_fig, K=0.0, zeta=1.0)
    ds = s.dressed()
    d = d_functions(s.channel(3, ds), s.laser, ds)
    assert d.d_n == 0.0 and d.d2n == 0.0 and d.dvec_abs2 == 0.0


def test_dfunctions_circular_d2n(pot_fig, k_fig):
    s = make_scenario(pot_fig, K=k_fig, zeta=1.0, deflection_mrad=6.0)
    ds = s.dressed()
    for n in (-12, 0, 7):
        d = d_functions(s.channel(n, ds), s.laser, ds)
        assert d.d2n == pytest.approx(2.0 * d.d_n, rel=1e-14)


def test_dvec_abs2_against_closed_form(pot_fig, k_fig):
    # |Dvec|^2 from the components must match the analytic expansion
    # (a0bar^2/4)[(1+z^2)(|J-|^2+|J+|^2) + 2(1-z^2) Re(J- J+* e^{-2i t1})];
    # at zeta = 1 the printed closed form is manifestly real and identical.
    from sbxs.gbessel import gbessel_row

    for zeta, defl in ((1.0, 6.0), (0.5, 6.0), (0.0, 0.6)):
        s = make_scenario(pot_fig, K=k_fig, zeta=zeta, deflection_mrad=defl,
                          direction=(0.2, 0.4, 0.9), azimuth=0.9)
        ds = s.dressed()
        ch = s.channel(4, ds)
        d = d_functions(ch, s.laser, ds)
        row = gbessel_row(3, 5, ch.alpha1, -ch.alpha2, ch.theta1)
        jm, jp = row[3], row[5]
        a2 = s.laser.a0bar**2 / 4.0
        ref = a2 * (
            (1 + zeta**2) * (abs(jm) ** 2 + abs(jp) ** 2)
            + 2 * (1 - zeta**2)
            * (jm * jp.conjugate() * cmath.exp(-2j * ch.theta1)).real
        )
        assert d.dvec_abs2 == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# general path limits
# ---------------------------------------------------------------------------

def test_general_free_field_is_elastic(pot_fig):
    for zeta in (0.0, 1.0):
        s = make_scenario(pot_fig, K=0.0, zeta=zeta)
        assert partial_xs_general(s, 0).value == pytest.approx(
            elastic_born(s), rel=1e-14
        )
        assert partial_xs_general(s, 2).value == 0.0


def test_partial_value_is_term_sum(pot_fig, k_fig):
    s = make_scenario(pot_fig, K=k_fig, zeta=0.5, deflection_mrad=6.0,
                      direction=(0.1, -0.2, 1.0), azimuth=2.2)
    px = partial_xs_general(s, -5)
    assert px.value == px.terms.main_energy + px.terms.recoil + px.terms.wave_pressure


def test_positivity_randomized(pot_fig):
    rng = np.random.default_rng(17)
    for _ in range(60):
        s = make_scenario(
            pot_fig,
            K=float(rng.uniform(0.005, 0.9)),
            zeta=float(rng.choice([0.0, 0.33, 1.0])),
            deflection_mrad=float(rng.uniform(0.1, 80.0)),
            direction=tuple(rng.normal(size=3)),
            azimuth=float(rng.uniform(0, 2 * math.pi)),
        )
        a1 = s.channel(0).alpha1
        n = int(rng.integers(-int(a1) - 2, int(a1) + 3))
        try:
            px = partial_xs_general(s, n)
        except ChannelClosedError:
            continue
        assert px.value >= 0.0


def test_closed_channel_raises(pot_fig, k_fig):
    s = make_scenario(pot_fig, K=k_fig)
    with pytest.raises(ChannelClosedError):
        partial_xs_general(s, -10**6)


# ---------------------------------------------------------------------------
# scenario resolution
# ---------------------------------------------------------------------------

def test_scenario_dresses_and_frames_once(monkeypatch, pot_fig, k_fig):
    calls = {"dress": 0, "deflection_frame": 0}
    for name in calls:
        def counted(*args, _real=getattr(xsection, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(xsection, name, counted)
    s = make_scenario(pot_fig, K=k_fig, zeta=1.0, deflection_mrad=0.6)
    env = envelope(s)
    assert len(env.entries) > 20
    assert calls == {"dress": 1, "deflection_frame": 1}
    # with_K resolves the new intensity's own state
    s2 = s.with_K(0.5)
    assert calls == {"dress": 2, "deflection_frame": 2}
    assert s2.dressed().Z > s.dressed().Z


def test_dressing_terms_built_once_per_scenario(monkeypatch, pot_fig):
    s = make_scenario(pot_fig, K=0.17, zeta=0.5, deflection_mrad=6.0,
                      direction=(0.3, -0.2, 1.0))
    ds = s.dressed()
    assert (ds.alpha_pi, ds.theta_pi) == \
        kinematics.alpha_theta(ds.Pi.vec3 / ds.kdotp, s.laser)
    assert ds.pivec_mag == float(np.linalg.norm(ds.Pi.vec3))
    calls = []

    def counted(*args, _real=kinematics.alpha_theta):
        calls.append(args)
        return _real(*args)
    monkeypatch.setattr(kinematics, "alpha_theta", counted)
    monkeypatch.setattr(xsection, "alpha_theta", counted)
    partial_xs_general(s, 3)
    assert len(calls) == 1          # open_channel's alpha1, theta1 only


@pytest.mark.parametrize(
    "ek, K, direction",
    [
        (2700.0, 0.17, (0.0, 0.0, 0.0)),   # zero direction
        (0.0, 0.0, (0.0, 0.0, 1.0)),       # at rest, no field: Pi = 0
        (2700.0, 0.17, (0.0, 0.0, 1.0, 5.0)),  # not a 3-vector
        (2700.0, 0.17, (math.nan, 0.0, 1.0)),
        (2700.0, 0.17, (math.inf, 0.0, 0.0)),
    ],
)
def test_bad_geometry_raises_at_construction(pot_fig, ek, K, direction):
    with pytest.raises(DomainError):
        make_scenario(pot_fig, K=K, ek=ek, direction=direction)


# ---------------------------------------------------------------------------
# specialization consistency
# ---------------------------------------------------------------------------

def test_circular_requires_zeta_one(pot_fig, k_fig):
    s = make_scenario(pot_fig, K=k_fig, zeta=0.5)
    with pytest.raises(DomainError):
        partial_xs_circular(s, 0)


def test_linear_requires_zeta_zero(pot_fig, k_fig):
    s = make_scenario(pot_fig, K=k_fig, zeta=1.0)
    with pytest.raises(DomainError):
        partial_xs_linear(s, 0)


def test_circular_matches_general(pot_fig, k_fig):
    # the last two inputs have alpha1 = 0: no field, and q along khat
    for (K, defl, dirn, az) in [(k_fig, 0.6, (0, 0, 1), 0.0),
                                (k_fig, 6.0, (0, 0, -1), 0.4),
                                (k_fig, 20.0, (0.3, 0.1, 0.9), 1.7),
                                (0.0, 0.6, (0, 0, 1), 0.0),
                                (0.17, 0.0, (0, 0, 1), 0.0)]:
        s = make_scenario(pot_fig, K=K, zeta=1.0, deflection_mrad=defl,
                          direction=dirn, azimuth=az)
        for n in range(-8, 9):
            a = partial_xs_general(s, n).value
            b = partial_xs_circular(s, n).value
            assert b == pytest.approx(a, rel=1e-10, abs=1e-280)


def test_linear_matches_general(pot_fig, k_fig):
    checked = 0
    for (defl, dirn, az) in [(0.6, (0, 0, 1), 0.0), (6.0, (0, 0, -1), 0.4),
                             (20.0, (0.3, 0.1, 0.9), 1.7)]:
        s = make_scenario(pot_fig, K=k_fig, zeta=0.0, deflection_mrad=defl,
                          direction=dirn, azimuth=az)
        for n in range(-8, 9):
            try:
                b = partial_xs_linear(s, n).value
            except LinearPathUnstableError:
                continue
            a = partial_xs_general(s, n).value
            assert b == pytest.approx(a, rel=1e-8, abs=1e-280)
            checked += 1
    assert checked > 30


def test_linear_v_floor_routing(pot_fig):
    # at K -> 0 the Z difference (and so v) collapses below the floor
    s = make_scenario(pot_fig, K=1e-9, zeta=0.0)
    with pytest.raises(LinearPathUnstableError):
        partial_xs_linear(s, 1)


def test_circular_azimuthal_symmetry(pot_fig, k_fig):
    # collinear electron: value independent of azimuth
    vals = []
    for az in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
        s = make_scenario(pot_fig, K=k_fig, zeta=1.0, deflection_mrad=0.6,
                          azimuth=float(az))
        vals.append(partial_xs_circular(s, -4).value)
    assert (max(vals) - min(vals)) <= 1e-12 * max(vals)


def test_mirror_symmetry_linear(pot_fig, k_fig):
    # for an electron along KHAT, azimuth pi mirrors azimuth 0 through the
    # wave axis: theta1 goes from 0 to pi, u flips sign, and the cross
    # sections are invariant
    s0, s1 = (make_scenario(pot_fig, K=k_fig, zeta=0.0, deflection_mrad=6.0,
                            azimuth=az) for az in (0.0, math.pi))
    for n in (-3, 0, 2, 5):
        assert (s0.channel(n).theta1, abs(s1.channel(n).theta1)) == (0.0, math.pi)
        assert partial_xs_linear(s1, n).value == pytest.approx(
            partial_xs_linear(s0, n).value, rel=1e-10)


# ---------------------------------------------------------------------------
# elastic reference
# ---------------------------------------------------------------------------

def test_elastic_golden(pot_fig):
    s = make_scenario(pot_fig, K=0.0, zeta=1.0, deflection_mrad=0.6)
    assert elastic_born(s) == pytest.approx(ELASTIC_GOLDEN, rel=1e-12)


def test_elastic_mott_identity(pot_fig):
    # 4 eps^2 - q^2 = 4 eps^2 (1 - beta^2 sin^2(T/2)) with q = 2 p sin(T/2)
    ek, theta = 2700.0, 0.6e-3
    eps = M + ek
    p = math.sqrt(ek * (2 * M + ek))
    q = 2.0 * p * math.sin(theta / 2.0)
    beta_v = p / eps
    lhs = 4 * eps**2 - q**2
    rhs = 4 * eps**2 * (1 - beta_v**2 * math.sin(theta / 2.0) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-14)
    # and the implementation uses exactly that momentum transfer
    s = make_scenario(pot_fig, K=0.0, deflection_mrad=0.6)
    px = partial_xs_general(s, 0)
    assert px.q2 == pytest.approx(q**2, rel=1e-10)


def test_elastic_nonrel_limit(pot_fig):
    # eps -> m: value -> (2 m Za e^2 / (q^2 + chi^2))^2 in natural units
    from sbxs.units import xs_to_atomic_units

    s = make_scenario(pot_fig, K=0.0, deflection_mrad=0.6, ek=0.5)
    val = elastic_born(s)
    p = math.sqrt(0.5 * (2 * M + 0.5))
    q2 = (2 * p * math.sin(0.3e-3)) ** 2
    ref = xs_to_atomic_units(
        (2.0 * M * FINE_STRUCTURE / (q2 + pot_fig.chi**2)) ** 2
    )
    assert val == pytest.approx(ref, rel=5e-6)


# ---------------------------------------------------------------------------
# nonrelativistic reference
# ---------------------------------------------------------------------------

def test_nonrel_free_field(pot_fig):
    s = make_scenario(pot_fig, K=0.0, zeta=1.0, deflection_mrad=0.6, ek=27.0)
    born = partial_xs_nonrel(s, 0)
    assert born > 0.0
    assert partial_xs_nonrel(s, 1) == 0.0
    assert partial_xs_nonrel(s, -1) == 0.0


def test_nonrel_azimuth_independence(pot_fig):
    vals = [
        partial_xs_nonrel(
            make_scenario(pot_fig, K=0.01, zeta=1.0, deflection_mrad=0.6,
                          ek=27.0, azimuth=az), 1)
        for az in np.linspace(0, 2 * math.pi, 8, endpoint=False)
    ]
    assert (max(vals) - min(vals)) <= 1e-12 * max(vals)


def test_nonrel_closed_channel(pot_fig):
    s = make_scenario(pot_fig, K=0.01, zeta=1.0, ek=27.0)
    with pytest.raises(ChannelClosedError):
        partial_xs_nonrel(s, -24)  # 27 eV / 1.17 eV -> closes at n = -24


def test_nonrel_limit_consistency(pot_fig):
    # K = 0.01, ek = 27 eV, 0.6 mrad: dipole reference within 2% at the peak
    s = make_scenario(pot_fig, K=0.01, zeta=1.0, deflection_mrad=0.6, ek=27.0)
    a = partial_xs_general(s, 0).value
    b = partial_xs_nonrel(s, 0)
    assert a == pytest.approx(b, rel=0.02)


# ---------------------------------------------------------------------------
# spin/recoil diagnostics
# ---------------------------------------------------------------------------

def test_recoil_term_scales_as_q2(pot_fig):
    # halving the deflection quarters |recoil|/value at n = 0 and small K
    ratios = []
    for defl in (8.0, 4.0):
        s = make_scenario(pot_fig, K=1e-4, zeta=1.0, deflection_mrad=defl)
        px = partial_xs_general(s, 0)
        ratios.append(abs(px.terms.recoil) / px.value)
    assert ratios[0] / ratios[1] == pytest.approx(4.0, rel=0.10)
