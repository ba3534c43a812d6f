import math

import numpy as np
import pytest

import sbxs.gbessel as gb
from sbxs.kinematics import LaserField
from sbxs.potential import PotentialFT
from sbxs.units import intensity_to_K
from sbxs.xsection import Scenario

OMEGA_ND = 1.17          # Nd-laser photon energy [eV]
EK_FIG = 2700.0          # initial kinetic energy of the figure scenarios [eV]


@pytest.fixture(scope="session")
def pot_fig():
    """Screened Coulomb of the figure scenarios: Za = 1, 1/chi = 4 bohr."""
    return PotentialFT.screened_coulomb_au(1.0, 4.0)


@pytest.fixture(scope="session")
def k_fig():
    """K for the Nd-laser intensity 3.5e16 W/cm^2 at 1.17 eV (~0.17)."""
    return intensity_to_K(3.5e16, OMEGA_ND)


def write_screened_table(path, za=1.0, radius_au=4.0, n=600,
                         q_range=(1e-3, 12.0)):
    """A `# q_au  u_tilde_au` table of the screened Coulomb transform at n
    log-spaced q_au over q_range."""
    chi_au = 1.0 / radius_au
    q_au = np.geomspace(*q_range, n)  # log grid resolves the knee at chi
    u_au = 4.0 * math.pi * za / (q_au**2 + chi_au**2)  # e^2 = 1 in a.u.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# q_au  u_tilde_au\n")
        for q, u in zip(q_au, u_au):
            fh.write(f"{float(q)!r} {float(u)!r}\n")
    return path


def make_scenario(pot, K=0.17, zeta=1.0, deflection_mrad=0.6,
                  direction=(0.0, 0.0, 1.0), azimuth=0.0, ek=EK_FIG,
                  omega=OMEGA_ND, formula="general"):
    return Scenario(
        laser=LaserField.from_K(omega, K, zeta),
        kinetic_energy=ek,
        direction=direction,
        potential=pot,
        deflection=deflection_mrad * 1.0e-3,
        azimuth=azimuth,
        formula=formula,
    )


@pytest.fixture(scope="session")
def fig1a(pot_fig, k_fig):
    """Fig. 1a: circular wave, electron along the propagation direction."""
    return make_scenario(pot_fig, K=k_fig, zeta=1.0, deflection_mrad=0.6)


@pytest.fixture
def sweeps(monkeypatch):
    """Counts of scalar (_jn_row) and batched (_sweep) Miller sweeps."""
    count = {"scalar": 0, "batched": 0}
    for name, key in (("_jn_row", "scalar"), ("_sweep", "batched")):
        def counted(*args, _real=getattr(gb, name), _key=key):
            count[_key] += 1
            return _real(*args)
        monkeypatch.setattr(gb, name, counted)
    return count
