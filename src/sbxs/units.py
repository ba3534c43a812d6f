"""Physical constants and conversions between laboratory and internal units.

Internal convention: natural units hbar = c = 1, every energy/momentum in eV,
Gaussian charge normalization e^2 = alpha.  With that choice the screened
Coulomb Fourier transform is 4*pi*Za*alpha/(q^2 + chi^2) and no hbar/c
bookkeeping appears in any cross-section formula.  Cross sections (eV^-2)
are converted to atomic units (bohr^2 per steradian) only at the output
boundary.
"""

import math

import numpy as np

from .errors import DomainError

ELECTRON_MASS_EV = 510_998.95            # electron rest energy [eV]
FINE_STRUCTURE = 1.0 / 137.035_999       # alpha
HARTREE_EV = 27.211_386                  # atomic unit of energy [eV]
BOHR_INV_EV = ELECTRON_MASS_EV * FINE_STRUCTURE   # 1/bohr expressed in eV

HBAR_EV_S = 6.582_119_569e-16            # hbar [eV s]
HBARC_EV_CM = 1.973_269_804e-5           # hbar*c [eV cm]
EV_JOULE = 1.602_176_634e-19             # 1 eV [J]
HC_EV_NM = 1_239.841_984                 # h*c [eV nm], photon energy*wavelength

# Energy flux: 1 eV^4 (natural units) expressed in W/cm^2.
EV4_W_CM2 = EV_JOULE / (HBAR_EV_S * HBARC_EV_CM**2)


def intensity_to_K(intensity_w_cm2, photon_energy_ev):
    """Relativistic intensity parameter K = e*Abar0/m from a peak intensity.

    Peak-field convention: I = E0^2/(8*pi) with E0 = omega*Abar0, so
    I = K^2 m^2 omega^2 / (8*pi*alpha) in natural units.  Equivalent to the
    familiar K ~ 0.855 * lambda[um] * sqrt(I / 1e18 W/cm^2).
    """
    if not math.isfinite(intensity_w_cm2) or intensity_w_cm2 < 0.0:
        raise DomainError(f"intensity must be >= 0, got {intensity_w_cm2}")
    if not math.isfinite(photon_energy_ev) or photon_energy_ev <= 0.0:
        raise DomainError(f"photon energy must be > 0, got {photon_energy_ev}")
    i_nat = intensity_w_cm2 / EV4_W_CM2
    return math.sqrt(8.0 * math.pi * FINE_STRUCTURE * i_nat) / (
        ELECTRON_MASS_EV * photon_energy_ev
    )


def K_to_intensity(K, photon_energy_ev):
    """Inverse of :func:`intensity_to_K` (W/cm^2)."""
    if not math.isfinite(K) or K < 0.0:
        raise DomainError(f"K must be >= 0, got {K}")
    if not math.isfinite(photon_energy_ev) or photon_energy_ev <= 0.0:
        raise DomainError(f"photon energy must be > 0, got {photon_energy_ev}")
    i_nat = (K * ELECTRON_MASS_EV * photon_energy_ev) ** 2 / (
        8.0 * math.pi * FINE_STRUCTURE
    )
    return i_nat * EV4_W_CM2


def xs_to_atomic_units(xs_ev2):
    """Convert a cross section from natural units (eV^-2) to bohr^2.  An
    array converts value by value; a value that is not finite is a
    DomainError (for an array, its first such value)."""
    finite = np.isfinite(xs_ev2)
    if not finite.all():
        bad = xs_ev2 if finite.ndim == 0 else xs_ev2[np.argmin(finite)]
        raise DomainError(f"cross section must be finite, got {bad}")
    return xs_ev2 * BOHR_INV_EV**2


def xs_from_atomic_units(xs_au):
    """Convert a cross section from bohr^2 back to eV^-2."""
    if not math.isfinite(xs_au):
        raise DomainError(f"cross section must be finite, got {xs_au}")
    return xs_au / BOHR_INV_EV**2


def screening_chi_ev(radius_au):
    """Inverse screening length chi [eV] from a screening radius in bohr."""
    if not radius_au > 0.0:
        raise DomainError(f"screening radius must be > 0, got {radius_au}")
    return BOHR_INV_EV / radius_au


def momentum_ev_to_au(q_ev):
    """Momentum in eV to atomic units (1/bohr)."""
    return q_ev / BOHR_INV_EV


def wavelength_nm_to_ev(wavelength_nm):
    """Photon energy [eV] from vacuum wavelength [nm]."""
    if not wavelength_nm > 0.0:
        raise DomainError(f"wavelength must be > 0, got {wavelength_nm}")
    return HC_EV_NM / wavelength_nm
