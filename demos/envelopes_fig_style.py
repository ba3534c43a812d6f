#!/usr/bin/env python3
"""Photon-number envelopes for a 2.7 keV electron in a Nd-laser field.

Reproduces the canonical working point: 3.5e16 W/cm^2 at 1.17 eV
(K ~ 0.17), screened Coulomb target (Za = 1, screening radius 4 bohr),
deflection 0.6 mrad.  Produces, for circular and linear polarization,
the envelopes for initial momentum parallel and antiparallel to the
propagation direction plus the nonrelativistic dipole reference, and
renders them to SVG.

Run from the repo root:  python demos/envelopes_fig_style.py
Outputs land in demos/out/.
"""

import os

from sbxs import LaserField, PotentialFT, Scenario, envelope, intensity_to_K
from sbxs.cli import render_svg

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

K = intensity_to_K(3.5e16, 1.17)
pot = PotentialFT.screened_coulomb_au(1.0, 4.0)
print(f"intensity 3.5e16 W/cm^2 at 1.17 eV  ->  K = {K:.5f}")

for zeta, pol in ((1.0, "circular"), (0.0, "linear")):
    print(f"\n=== {pol} polarization (zeta = {zeta}), deflection 0.6 mrad ===")
    curves = []
    for label, direction, formula in (
        ("parallel", (0, 0, 1), "general"),
        ("antiparallel", (0, 0, -1), "general"),
        ("nonrel", (0, 0, 1), "nonrel"),
    ):
        s = Scenario(
            laser=LaserField.from_K(1.17, K, zeta),
            kinetic_energy=2700.0,
            direction=direction,
            potential=pot,
            deflection=0.6e-3,
            formula=formula,
        )
        env = envelope(s)
        print(f"  {label:>12}: {len(env.entries)} channels "
              f"[{env.entries.n[0]}, {env.entries.n[-1]}], peak at "
              f"n = {env.n_peak:+d} (alpha1 = {env.alpha1_at_peak:.3f}), "
              f"total = {env.total:.4f} a.u.")
        curves.append((label, env))

    # one SVG per direction (the CLI `plot` subcommand does the same for CSVs)
    for label, env in curves:
        svg = render_svg(
            env.entries.n,
            env.entries.value.tolist(),
            xlabel="photon number n",
            ylabel="dsigma/dOmega [a.u.]",
            title=f"{pol}, {label}, 0.6 mrad",
            logy=True,
        )
        path = os.path.join(OUT, f"envelope_{pol}_{label}.svg")
        with open(path, "w") as fh:
            fh.write(svg)
        print(f"  wrote {path}")

print("\nThe parallel and antiparallel envelopes already differ at 0.6 mrad;"
      "\nrerun with deflection 6 mrad to see the splitting grow.")
