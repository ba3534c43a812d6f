"""Fourier transforms U~(q) of the electrostatic scattering potential.

The cross-section layer consumes only pointwise values of U~ at the channel
momentum transfer, so custom potentials enter as radial tables of the
transform itself; no real-space quadrature is performed.

Units: with e^2 = alpha the screened Coulomb transform is
U~(q) = 4*pi*Za*alpha / (q^2 + chi^2) in eV^-2.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .units import FINE_STRUCTURE, HARTREE_EV, BOHR_INV_EV, screening_chi_ev

SCREENED_COULOMB = "screened_coulomb"
CUSTOM_TABLE = "custom_table"

# U~ in atomic units (hartree*bohr^3) -> natural units (eV^-2)
_UT_AU_TO_NAT = HARTREE_EV / BOHR_INV_EV**3

CHI_MAX = 1.0e150   # eV
ZA_MAX = 1.0e100


@dataclass(frozen=True, eq=False)
class PotentialFT:
    """Radial Fourier transform of the scattering potential.

    A screened Coulomb potential has Za in (0, ZA_MAX = 1e100] and chi in
    [0, CHI_MAX = 1e150] eV: chi^2 stays finite, and so does U~^2 wherever
    q^2 + chi^2 exceeds 1e-55 eV^2.
    """

    kind: str
    Za: float = 0.0
    chi: float = 0.0
    q_table: np.ndarray = None
    _interp: object = field(default=None, repr=False)  # callable q -> U~

    def __post_init__(self):
        if self.kind == SCREENED_COULOMB:
            if not 0.0 < self.Za <= ZA_MAX:
                raise DomainError(
                    f"Za must lie in (0, {ZA_MAX:g}], got {self.Za}")
            if not 0.0 <= self.chi <= CHI_MAX:
                raise DomainError(
                    f"chi must lie in [0, {CHI_MAX:g}] eV, got {self.chi}")
        elif self.kind != CUSTOM_TABLE:
            raise DomainError(f"unknown potential kind {self.kind!r}")

    @classmethod
    def screened_coulomb(cls, Za, chi_ev):
        """Screened Coulomb potential with inverse screening length chi [eV]."""
        return cls(kind=SCREENED_COULOMB, Za=float(Za), chi=float(chi_ev))

    @classmethod
    def screened_coulomb_au(cls, Za, screening_radius_au):
        """Screened Coulomb with the screening radius given in bohr."""
        return cls.screened_coulomb(Za, screening_chi_ev(screening_radius_au))

    @classmethod
    def from_table(cls, path):
        """Load a two-column table `q_au  u_tilde_au` (atomic units).

        Interpolation is monotone cubic; evaluation outside the tabulated
        range is an error.  The table is checked here; scipy is imported
        only after that, so runs without a table never load it.
        """
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                data = np.loadtxt(path, ndmin=2)
            except ValueError as exc:
                raise DomainError(f"not a numeric table: {path} ({exc})")
        if data.shape[0] < 2:
            raise DomainError(f"need at least two rows in {path}")
        if data.shape[1] != 2:
            raise DomainError(f"expected two columns in {path}")
        if not np.all(np.isfinite(data)):
            raise DomainError(f"non-finite value in {path}")
        q_au, u_au = data[:, 0], data[:, 1]
        if np.any(np.diff(q_au) <= 0.0):
            raise DomainError(f"q values must be strictly increasing in {path}")
        from scipy.interpolate import PchipInterpolator

        q_ev = q_au * BOHR_INV_EV
        u_nat = u_au * _UT_AU_TO_NAT
        interp = PchipInterpolator(q_ev, u_nat, extrapolate=False)
        return cls(
            kind=CUSTOM_TABLE,
            q_table=q_ev,
            _interp=interp,
        )


def u_tilde(pot, q2):
    """U~ at the squared momentum transfer q2 = q.q [eV^2], finite and >= 0
    (else a DomainError); result in eV^-2.  The potential is radial, so U~
    depends on q2 alone.  q2 may be an array: U~ is then an array too, and
    the DomainError is the one of its first value that has one."""
    q = np.asarray(q2, dtype=float)
    ok = np.isfinite(q) & (q >= 0.0)
    if not ok.all():
        i = int(np.argmin(ok))
        u_tilde(pot, q.flat[:i])   # an earlier value's own error comes first
        raise DomainError(f"q^2 must be finite and >= 0, got {float(q.flat[i])} eV^2")
    if pot.kind == SCREENED_COULOMB:
        denom = q + pot.chi**2
        if (denom == 0.0).any():
            raise DomainError("pure Coulomb transform is singular at q = 0")
        ut = 4.0 * math.pi * pot.Za * FINE_STRUCTURE / denom
    else:
        qmag = np.sqrt(q)
        outside = (qmag < pot.q_table[0]) | (qmag > pot.q_table[-1])
        if outside.any():
            raise DomainError(
                f"|q| = {float(qmag.flat[np.argmax(outside)])} eV outside table "
                f"range [{pot.q_table[0]}, {pot.q_table[-1]}] eV"
            )
        ut = pot._interp(qmag)
    return float(ut) if q.ndim == 0 else ut
