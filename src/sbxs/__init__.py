"""Multiphoton stimulated-bremsstrahlung cross sections in a strong wave.

Library layout:

    units        -- constants, lab <-> natural-unit conversions
    gbessel      -- ordinary + generalized Bessel functions and the
                    quadrature oracle
    kinematics   -- laser geometry, dressed states, channel kinematics
    potential    -- Fourier transforms of the scattering potential
    xsection     -- D-functions and the closed-form partial cross sections
    dirac_oracle -- independent gamma-matrix / spinor-sum validation path
    scan         -- envelopes over photon number, totals, intensity sweeps
    cli          -- command-line front end (`sbxs ...`)
"""

from .errors import (
    ChannelClosedError,
    ConfigError,
    ConvergenceError,
    DomainError,
    LinearPathUnstableError,
    OracleInconsistencyError,
)
from .gbessel import (
    GBesselRow,
    bessel_j,
    gbessel,
    gbessel_quad,
    gbessel_row,
)
from .kinematics import (
    Channel,
    DressedState,
    FourVector,
    LaserField,
    alpha_theta,
    deflection_frame,
    dress,
    open_channel,
)
from .potential import PotentialFT, u_tilde
from .scan import Envelope, KPoint, envelope, k_sweep, oracle_deviation_sweep, total_xs
from .units import (
    K_to_intensity,
    intensity_to_K,
    xs_from_atomic_units,
    xs_to_atomic_units,
)
from .xsection import (
    DFunctions,
    PartialXS,
    Scenario,
    XSTerms,
    d_functions,
    elastic_born,
    partial_xs_circular,
    partial_xs_general,
    partial_xs_linear,
    partial_xs_nonrel,
)
from .dirac_oracle import amplitude_matrix, slash, spinor, xs_oracle

__version__ = "0.1.0"

__all__ = [
    "bessel_j", "gbessel", "gbessel_quad", "gbessel_row", "GBesselRow",
    "FourVector", "LaserField", "DressedState", "Channel",
    "dress", "alpha_theta", "deflection_frame", "open_channel",
    "PotentialFT", "u_tilde",
    "Scenario", "DFunctions", "PartialXS", "XSTerms", "d_functions",
    "partial_xs_general", "partial_xs_circular", "partial_xs_linear",
    "partial_xs_nonrel", "elastic_born",
    "amplitude_matrix", "slash", "spinor", "xs_oracle",
    "Envelope", "KPoint", "envelope", "total_xs", "k_sweep",
    "oracle_deviation_sweep",
    "intensity_to_K", "K_to_intensity",
    "xs_to_atomic_units", "xs_from_atomic_units",
    "DomainError", "ChannelClosedError", "ConvergenceError",
    "LinearPathUnstableError", "OracleInconsistencyError", "ConfigError",
]
