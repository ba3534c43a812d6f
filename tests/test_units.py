import math

import pytest

from sbxs.errors import DomainError
from sbxs.units import (
    BOHR_INV_EV,
    ELECTRON_MASS_EV,
    FINE_STRUCTURE,
    K_to_intensity,
    intensity_to_K,
    screening_chi_ev,
    wavelength_nm_to_ev,
    xs_from_atomic_units,
    xs_to_atomic_units,
)


def test_constants_consistent():
    assert BOHR_INV_EV == ELECTRON_MASS_EV * FINE_STRUCTURE
    assert ELECTRON_MASS_EV == pytest.approx(510998.95)


def test_k_anchor_nd_laser():
    # 3.5e16 W/cm^2 at 1.17 eV must land on the Nd-laser working point
    K = intensity_to_K(3.5e16, 1.17)
    assert 0.16 <= K <= 0.18


def test_k_zero_field():
    assert intensity_to_K(0.0, 1.17) == 0.0


def test_k_sqrt_scaling():
    K1 = intensity_to_K(1.0e16, 1.17)
    K2 = intensity_to_K(4.0e16, 1.17)
    assert K2 == pytest.approx(2.0 * K1, rel=1e-14)


def test_k_round_trip():
    for intensity in (1e10, 3.5e16, 1e20):
        K = intensity_to_K(intensity, 1.17)
        assert K_to_intensity(K, 1.17) == pytest.approx(intensity, rel=1e-12)
    for K in (1e-6, 0.17, 1.3):
        intensity = K_to_intensity(K, 2.33)
        assert intensity_to_K(intensity, 2.33) == pytest.approx(K, rel=1e-12)


def test_k_monotonicity():
    assert intensity_to_K(2e16, 1.17) > intensity_to_K(1e16, 1.17)
    assert intensity_to_K(1e16, 2.0) < intensity_to_K(1e16, 1.0)


def test_k_domain_errors():
    with pytest.raises(DomainError):
        intensity_to_K(-1.0, 1.17)
    with pytest.raises(DomainError):
        intensity_to_K(1e16, 0.0)
    with pytest.raises(DomainError):
        intensity_to_K(1e16, -2.0)


@pytest.mark.parametrize("K, omega", [(-1.0, 1.17), (0.1, 0.0)])
def test_k_to_intensity_domain_errors(K, omega):
    with pytest.raises(DomainError):
        K_to_intensity(K, omega)


def test_xs_conversion_value():
    assert xs_to_atomic_units(0.0) == 0.0
    # 1 eV^-2 = (m*alpha)^2 bohr^2 ~ 1.3905e7
    assert xs_to_atomic_units(1.0) == pytest.approx(1.3905e7, rel=1e-4)
    assert xs_to_atomic_units(1.0) == BOHR_INV_EV**2


def test_xs_round_trip():
    for x in (1.0, 3.7e-9, 8.2e11):
        assert xs_to_atomic_units(xs_from_atomic_units(x)) == pytest.approx(
            x, rel=1e-14
        )


def test_xs_rejects_nonfinite():
    with pytest.raises(DomainError):
        xs_to_atomic_units(math.inf)


def test_xs_from_atomic_units_rejects_nan():
    with pytest.raises(DomainError):
        xs_from_atomic_units(math.nan)


def test_screening_radius():
    # 1/chi = 4 bohr -> chi = m*alpha/4
    assert screening_chi_ev(4.0) == pytest.approx(BOHR_INV_EV / 4.0, rel=1e-15)
    with pytest.raises(DomainError):
        screening_chi_ev(0.0)


def test_wavelength_conversion():
    # 1064 nm Nd line sits close to 1.165 eV
    assert wavelength_nm_to_ev(1064.0) == pytest.approx(1.1653, rel=1e-3)
