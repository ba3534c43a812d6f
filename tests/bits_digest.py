"""Same-bits digest: one sha256 over the repr of every number a fixed set
of evaluations returns.

    PYTHONPATH=src python tests/bits_digest.py

prints `<count> <sha256>`.  A change that means to keep every bit runs it
on the parent and on the change; both lines must match.  pytest does not
collect this file (its name does not start with test_).

The set, over random_scenarios(7, 40) without its K = 0.8, 60 mrad draws:
- the general auto envelope;
- at n = -5..5, elastic_born, xs_oracle, and the circular (zeta = 1) or
  linear (zeta = 0) closed form;
- for the K <= 0.17, sub-10 mrad draws, the nonrel auto envelope, the
  general and nonrel envelopes over n = -30..30, and the general and
  nonrel partials at n = -5..5.
The K <= 0.17, sub-10 mrad draws run once more at zeta = 0.3, all but
the nonrel auto envelope (whose Bessel factors at alpha1 in the thousands
take most of the run); one more scenario runs the whole set on the
direction (-0.6, -0.0, 0.8), whose -0.0 would turn theta(Pi) from pi into
-pi if it reached atan2.  An entry contributes n, value, its
three terms, alpha1 and q2; an envelope adds its total, n_peak and
alpha1_at_peak; a refused evaluation contributes its error's type and
message.
"""

import hashlib
import math
from dataclasses import replace

from sbxs.dirac_oracle import xs_oracle
from sbxs.errors import DomainError, LinearPathUnstableError
from sbxs.kinematics import LaserField
from sbxs.potential import PotentialFT
from sbxs.scan import envelope, partial, random_scenarios
from sbxs.xsection import (
    Scenario,
    elastic_born,
    partial_xs_circular,
    partial_xs_linear,
)

SEED, COUNT = 7, 40
NS = range(-5, 6)


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.count = 0

    def add(self, *values):
        for v in values:
            self.sha.update(repr(v).encode() + b"\n")
            self.count += 1

    def entry(self, px):
        t = px.terms
        self.add(px.n, px.value, t.main_energy, t.recoil, t.wave_pressure,
                 px.alpha1, px.q2)

    def envelope(self, env):
        for px in env.entries:
            self.entry(px)
        self.add(env.total, env.n_peak, env.alpha1_at_peak)

    def call(self, fn, *args):
        """fn(*args) digested as a PartialXS, an Envelope or a float."""
        try:
            out = fn(*args)
        except (DomainError, LinearPathUnstableError) as exc:
            self.add(type(exc).__name__, str(exc))
            return
        if hasattr(out, "entries"):
            self.envelope(out)
        elif hasattr(out, "terms"):
            self.entry(out)
        else:
            self.add(out)


def _general(d, s):
    d.call(envelope, s)
    d.call(elastic_born, s)
    closed_form = {1.0: partial_xs_circular, 0.0: partial_xs_linear}.get(
        s.laser.zeta)
    for n in NS:
        d.call(xs_oracle, s, n)
        if closed_form is not None:
            d.call(closed_form, s, n)


def _small(d, s, nonrel_auto=True):
    nonrel = replace(s, formula="nonrel")
    if nonrel_auto:
        d.call(envelope, nonrel)
    for run in (s, nonrel):
        d.call(envelope, run, (-30, 30))
        for n in NS:
            d.call(partial, run, n)


def main():
    d = Digest()
    small = []
    for s in random_scenarios(SEED, COUNT):
        if s.laser.K == 0.8 and s.deflection == 60.0e-3:
            continue
        _general(d, s)
        if s.laser.K <= 0.17 and s.deflection < 10.0e-3:
            _small(d, s)
            small.append(s)
    for s in small:
        oblique = replace(s, laser=replace(s.laser, zeta=0.3))
        _general(d, oblique)
        _small(d, oblique, nonrel_auto=False)
    signed_zero = Scenario(
        laser=LaserField.from_K(1.17, 0.17, 0.3),
        kinetic_energy=2700.0,
        direction=(-0.6, -0.0, 0.8),
        potential=PotentialFT.screened_coulomb_au(1.0, 4.0),
        deflection=6.0e-3,
        azimuth=math.radians(40.0),
    )
    _general(d, signed_zero)
    _small(d, signed_zero)
    print(d.count, d.sha.hexdigest())


if __name__ == "__main__":
    main()
