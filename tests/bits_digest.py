"""Same-bits digest: one sha256 over the repr of every number a fixed set
of evaluations returns.

    PYTHONPATH=src python tests/bits_digest.py [--dump PATH]
    PYTHONPATH=src python tests/bits_digest.py --compare A B

prints `<count> <sha256>`.  A change that means to keep every bit runs it
on the parent and on the change; both lines must match.  pytest does not
collect this file (its name does not start with test_).

--dump PATH also writes one tab-separated line per digested value: its
key (scenario index, call, n, field) and its repr.  --compare A B reads
two dumps and prints how many values differ, and the largest |delta|
divided by the peak of that scenario's general auto envelope (read from
A), with its key: the measure of a change that means to move bits.

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

import argparse
import hashlib
import itertools
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
ENTRY_FIELDS = ("n", "value", "main_energy", "recoil", "wave_pressure",
                "alpha1", "q2")
# the call whose largest value scales a scenario's |delta| in --compare
PEAK_CALL = "envelope general"


class Digest:
    def __init__(self, dump=None):
        self.sha = hashlib.sha256()
        self.count = 0
        self.dump = dump  # a text file the keyed values go to, or None
        self.scenario = -1

    def add(self, call, n, field, value):
        text = repr(value)
        self.sha.update(text.encode() + b"\n")
        self.count += 1
        if self.dump is not None:
            self.dump.write(f"{self.scenario}\t{call}\t{n}\t{field}\t{text}\n")

    def entry(self, call, px):
        t = px.terms
        values = (px.n, px.value, t.main_energy, t.recoil, t.wave_pressure,
                  px.alpha1, px.q2)
        for field, value in zip(ENTRY_FIELDS, values):
            self.add(call, px.n, field, value)

    def envelope(self, call, env):
        for px in env.entries:
            self.entry(call, px)
        for field in ("total", "n_peak", "alpha1_at_peak"):
            self.add(call, "-", field, getattr(env, field))

    def call(self, fn, s, *args):
        """fn(s, *args) digested as a PartialXS, an Envelope or a float,
        keyed by fn's name, s's formula and any n range."""
        call = " ".join([fn.__name__, s.formula]
                        + [str(a) for a in args if isinstance(a, tuple)])
        n = next((a for a in args if isinstance(a, int)), "-")
        try:
            out = fn(s, *args)
        except (DomainError, LinearPathUnstableError) as exc:
            self.add(call, n, "error_type", type(exc).__name__)
            self.add(call, n, "error", str(exc))
            return
        if hasattr(out, "entries"):
            self.envelope(call, out)
        elif hasattr(out, "terms"):
            self.entry(call, out)
        else:
            self.add(call, n, "value", out)


def _general(d, s):
    d.scenario += 1  # every call on s, _small's too, follows this one
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


def digest(dump=None):
    d = Digest(dump)
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
    return d


def _number(text):
    """The number a repr shows (np.float64(x) as x); NaN for the type or
    message of an error."""
    if text.startswith("np.") and text.endswith(")"):
        text = text[text.index("(") + 1:-1]
    try:
        return float(text)
    except ValueError:
        return math.nan


def compare(path_a, path_b):
    """(values compared, values that differ, largest |delta| / peak, its
    key); a key or value present in one dump alone differs, and a delta
    that is not finite counts as infinite."""
    peaks = {}
    worst = {}  # scenario -> (largest |delta|, its key)
    total = differ = 0
    with open(path_a, encoding="utf-8") as fa, \
            open(path_b, encoding="utf-8") as fb:
        for line_a, line_b in itertools.zip_longest(fa, fb, fillvalue=""):
            total += 1
            *key_a, text_a = line_a.rstrip("\n").split("\t")
            *key_b, text_b = line_b.rstrip("\n").split("\t")
            if key_a and key_a[1] == PEAK_CALL and key_a[3] == "value":
                peaks[key_a[0]] = max(peaks.get(key_a[0], 0.0),
                                      _number(text_a))
            if (key_a, text_a) == (key_b, text_b):
                continue
            differ += 1
            key = key_a or key_b
            delta = abs(_number(text_a) - _number(text_b))
            if key_a != key_b or not math.isfinite(delta):
                delta = math.inf
            if key[0] not in worst or delta > worst[key[0]][0]:
                worst[key[0]] = (delta, key)
    ratio, where = 0.0, None
    for scenario, (delta, key) in worst.items():
        peak = peaks.get(scenario, 0.0)
        scaled = delta / peak if peak > 0.0 else math.inf
        if where is None or scaled > ratio:
            ratio, where = scaled, key
    return total, differ, ratio, where


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dump", metavar="PATH",
                    help="also write each digested value with its key")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two dumps instead of digesting")
    args = ap.parse_args()
    if args.compare:
        total, differ, ratio, where = compare(*args.compare)
        print(f"{differ} of {total} values differ")
        key = "" if where is None else " at " + " ".join(where)
        print(f"largest |delta| / envelope peak: {ratio!r}{key}")
        return
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            d = digest(fh)
    else:
        d = digest()
    print(d.count, d.sha.hexdigest())


if __name__ == "__main__":
    main()
