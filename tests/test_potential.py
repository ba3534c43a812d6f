import math

import numpy as np
import pytest

from conftest import write_screened_table
from sbxs.errors import DomainError
from sbxs.potential import CHI_MAX, ZA_MAX, PotentialFT, u_tilde
from sbxs.units import BOHR_INV_EV, FINE_STRUCTURE, screening_chi_ev


def test_value_at_zero_transfer():
    chi = screening_chi_ev(4.0)
    pot = PotentialFT.screened_coulomb(2.0, chi)
    assert u_tilde(pot, 0.0) == pytest.approx(
        4.0 * math.pi * 2.0 * FINE_STRUCTURE / chi**2, rel=1e-15
    )


def test_pure_coulomb_limit():
    pot = PotentialFT.screened_coulomb(1.0, 0.0)
    q2 = 25.0  # q = (0, 3, 4)
    assert u_tilde(pot, q2) == pytest.approx(
        4.0 * math.pi * FINE_STRUCTURE / 25.0, rel=1e-15
    )
    with pytest.raises(DomainError):
        u_tilde(pot, 0.0)


def test_half_value_at_q_equal_chi():
    # Fig-scenario constants: Za = 1, 1/chi = 4 bohr
    pot = PotentialFT.screened_coulomb_au(1.0, 4.0)
    v0 = u_tilde(pot, 0.0)
    assert u_tilde(pot, pot.chi**2) == pytest.approx(0.5 * v0, rel=1e-14)


def test_rotation_invariance():
    pot = PotentialFT.screened_coulomb_au(1.0, 4.0)
    rng = np.random.default_rng(8)
    q = rng.normal(size=3) * 500.0
    qmag = np.linalg.norm(q)
    ref = u_tilde(pot, qmag**2)
    assert u_tilde(pot, float(np.dot(q, q))) == pytest.approx(ref, rel=1e-14)


def test_linear_in_za():
    chi = screening_chi_ev(2.0)
    q2 = 11649.0  # q = (100, -40, 7)
    v1 = u_tilde(PotentialFT.screened_coulomb(1.0, chi), q2)
    v7 = u_tilde(PotentialFT.screened_coulomb(7.0, chi), q2)
    assert v7 == pytest.approx(7.0 * v1, rel=1e-15)


def test_monotone_decreasing_in_q2():
    pot = PotentialFT.screened_coulomb_au(1.0, 4.0)
    vals = [u_tilde(pot, q**2) for q in (0.0, 10.0, 100.0, 1e3, 1e4)]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_construction_guards():
    with pytest.raises(DomainError):
        PotentialFT.screened_coulomb(0.0, 100.0)
    with pytest.raises(DomainError):
        PotentialFT.screened_coulomb(1.0, -5.0)
    with pytest.raises(DomainError):
        PotentialFT(kind="bogus")


def test_screened_coulomb_bounds():
    for za, chi in ((2.0 * ZA_MAX, 1.0), (1.0, 2.0 * CHI_MAX), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            PotentialFT.screened_coulomb(za, chi)
    # at the bounds chi^2, and U~^2 down to q^2 + chi^2 = 1e-55 eV^2, stay finite
    assert math.isfinite(u_tilde(PotentialFT.screened_coulomb(1.0, CHI_MAX),
                                 0.0))
    pot = PotentialFT.screened_coulomb(ZA_MAX, 0.0)
    assert math.isfinite(u_tilde(pot, 1e-55) ** 2)


@pytest.mark.parametrize("q2", [-1.0, -1e-300, math.nan, math.inf])
def test_rejects_negative_or_nonfinite_q2(q2):
    pot = PotentialFT.screened_coulomb_au(1.0, 4.0)
    with pytest.raises(DomainError, match="q\\^2"):
        u_tilde(pot, q2)


# ---------------------------------------------------------------------------
# custom tables (file format: "# q_au  u_tilde_au", atomic-unit columns)
# ---------------------------------------------------------------------------

def test_table_matches_closed_form(tmp_path):
    path = write_screened_table(tmp_path / "screened.tab")
    table = PotentialFT.from_table(path)
    analytic = PotentialFT.screened_coulomb_au(1.0, 4.0)
    for q_au in (0.05, 0.3, 1.7, 9.4):
        q_ev = q_au * BOHR_INV_EV
        a = u_tilde(table, q_ev**2)
        b = u_tilde(analytic, q_ev**2)
        # interpolation + hartree rounding dominate the residual
        assert a == pytest.approx(b, rel=1e-5)


def test_table_range_error(tmp_path):
    path = write_screened_table(tmp_path / "screened.tab")
    table = PotentialFT.from_table(path)
    with pytest.raises(DomainError):
        u_tilde(table, (13.0 * BOHR_INV_EV) ** 2)
    with pytest.raises(DomainError):
        u_tilde(table, 0.0)


def test_table_requires_monotone_grid(tmp_path):
    path = tmp_path / "bad.tab"
    path.write_text("# q_au  u_tilde_au\n1.0 2.0\n0.5 3.0\n")
    with pytest.raises(DomainError):
        PotentialFT.from_table(path)


def test_table_requires_two_columns(tmp_path):
    path = tmp_path / "three.tab"
    path.write_text("# q_au  u_tilde_au  extra\n0.5 3.0 1.0\n1.0 2.0 1.0\n")
    with pytest.raises(DomainError, match="expected two columns"):
        PotentialFT.from_table(path)


@pytest.mark.parametrize(
    "body",
    [
        "",                                              # empty file
        "# q_au  u_tilde_au\n",                          # comments only
        "# q_au  u_tilde_au\n1.0 2.0\n",                 # one row
        "# q_au  u_tilde_au\n0.5 3.0\n1.0 nan\n",        # NaN in u
        "# q_au  u_tilde_au\n0.5 3.0\ninf 2.0\n",        # infinite q
        "# q_au  u_tilde_au\n0.5 3.0\n1.0 abc\n",        # not a number
    ],
)
def test_table_rejects_unusable_data(tmp_path, recwarn, body):
    path = tmp_path / "bad.tab"
    path.write_text(body)
    with pytest.raises(DomainError, match="bad.tab"):
        PotentialFT.from_table(path)
    assert not recwarn.list  # numpy's empty-input warning stays silent
