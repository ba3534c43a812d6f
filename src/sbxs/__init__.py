"""Multiphoton stimulated-bremsstrahlung cross sections in a strong wave.

Library layout:

    units        -- constants, lab <-> natural-unit conversions
    gbessel      -- ordinary + generalized Bessel functions and the
                    quadrature oracle
    kinematics   -- laser geometry, dressed states, channel kinematics
    potential    -- Fourier transforms of the scattering potential
    xsection     -- D-functions, the general partial cross section, the
                    elastic and nonrelativistic references
    dirac_oracle -- independent gamma-matrix / spinor-sum validation path
    scan         -- envelopes over photon number, totals, intensity sweeps
    cli          -- command-line front end (`sbxs ...`)

The package exports the calls of README's quick start and demos, the
library calls behind the CLI's `partial`, `total` and `elastic`, and the
errors behind its exit codes 2-4.  Everything else is imported from its
module (`from sbxs.gbessel import gbessel`); no exported name shadows a
module.
"""

from .errors import ChannelClosedError, ConfigError, ConvergenceError, DomainError
from .kinematics import LaserField
from .potential import PotentialFT
from .scan import envelope, k_sweep, total_xs
from .units import K_to_intensity, intensity_to_K
from .xsection import Scenario, elastic_born, partial_xs_general

__version__ = "0.1.0"

__all__ = [
    "LaserField", "PotentialFT", "Scenario",
    "envelope", "total_xs", "k_sweep", "partial_xs_general", "elastic_born",
    "intensity_to_K", "K_to_intensity",
    "DomainError", "ChannelClosedError", "ConvergenceError", "ConfigError",
]
