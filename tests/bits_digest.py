"""Same-bits digest: one sha256 over the repr of every number a fixed set
of evaluations returns.

    PYTHONPATH=src python tests/bits_digest.py [--dump PATH]
    PYTHONPATH=src python tests/bits_digest.py --compare A B

prints `<count> <sha256>`.  A change that means to keep every bit runs the
parent's copy of this script on the parent's src and its own copy on its
own src (the closed forms it digests live beside it, in closed_forms.py);
both lines must match.  pytest does not collect this file (its name does
not start with test_).

--dump PATH also writes one tab-separated line per digested value: its
key (scenario index, call, n, field) and its repr.  --compare A B reads
two dumps and matches their values by key, so a channel added to or
removed from an envelope moves no other line.  It prints how many values
moved, how many keys were added and removed, and how many values changed
their repr alone (np.float64(x) against x, same bits); then the largest
|delta| of a moved cross section (a value, a term or a total) and the
largest removed entry value, each divided by the peak of that scenario's
general auto envelope (read from A), with its key: the measures of a
change that means to move bits or the channel set.  The other numbers
(alpha1, q2, n, n_peak, alpha1_at_peak) have other units; the largest
relative move |delta| / |x| among them is printed on a line of its own.

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
import math
from dataclasses import replace

from closed_forms import (
    LinearPathUnstableError,
    partial_xs_circular,
    partial_xs_linear,
)
from sbxs.dirac_oracle import xs_oracle
from sbxs.errors import DomainError
from sbxs.kinematics import LaserField
from sbxs.potential import PotentialFT
from sbxs.scan import envelope, partial, random_scenarios
from sbxs.xsection import Scenario, elastic_born

SEED, COUNT = 7, 40
NS = range(-5, 6)
ENTRY_FIELDS = ("n", "value", "main_energy", "recoil", "wave_pressure",
                "alpha1", "q2")
# the call whose largest value scales a scenario's |delta| in --compare
PEAK_CALL = "envelope general"
# fields that are not cross sections: --compare gives their relative move
RELATIVE_FIELDS = ("n", "alpha1", "q2", "n_peak", "alpha1_at_peak")


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
    """The number a repr shows (np.float64(x) as x), or None for the type
    or message of an error."""
    if text.startswith("np.") and text.endswith(")"):
        text = text[text.index("(") + 1:-1]
    try:
        return float(text)
    except ValueError:
        return None


def _read(path):
    """{(scenario, call, n, field): repr} of a dump; a key appears once."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            *key, text = line.rstrip("\n").split("\t")
            key = tuple(key)
            if key in values:
                raise ValueError(f"{path}: key {key} appears twice")
            values[key] = text
    return values


def compare(path_a, path_b):
    """Compare two dumps key by key, (scenario, call, n, field).

    Returns a dict: `compared`, the keys in both; `moved`, keys whose value
    differs (a number with other bits, or other error text); `repr_only`,
    keys whose repr differs but not the number's bits (np.float64(x)
    against x); `added` and `removed`, keys in B alone and in A alone; and
    `worst_moved` and `worst_removed`, each (ratio, key) or (0.0, None):
    the largest |delta| of a moved value outside RELATIVE_FIELDS, and the
    largest removed entry value, over the peak of that scenario's general
    auto envelope (read from A).  A delta that is not a finite number
    counts as infinite.
    """
    a, b = _read(path_a), _read(path_b)
    peaks = {}
    for key, text in a.items():
        if key[1] == PEAK_CALL and key[3] == "value":
            peaks[key[0]] = max(peaks.get(key[0], 0.0), _number(text))

    def worse(worst, key, size):
        """worst, or (size over its peak, key) when that is larger."""
        peak = peaks.get(key[0], 0.0)
        if size == 0.0:
            ratio = 0.0
        elif peak > 0.0 and math.isfinite(size):
            ratio = size / peak
        else:
            ratio = math.inf
        return (ratio, key) if worst[1] is None or ratio > worst[0] else worst

    out = {"compared": 0, "moved": 0, "repr_only": 0,
           "added": sum(key not in a for key in b), "removed": 0,
           "worst_moved": (0.0, None), "worst_removed": (0.0, None)}
    for key, text_a in a.items():
        if key not in b:
            out["removed"] += 1
            if key[3] == "value":
                value = _number(text_a)
                out["worst_removed"] = worse(
                    out["worst_removed"], key,
                    math.inf if value is None else abs(value))
            continue
        out["compared"] += 1
        text_b = b[key]
        if text_a == text_b:
            continue
        x, y = _number(text_a), _number(text_b)
        if x is not None and y is not None and x.hex() == y.hex():
            out["repr_only"] += 1
            continue
        out["moved"] += 1
        if key[3] in RELATIVE_FIELDS:
            continue
        delta = math.inf if x is None or y is None else abs(x - y)
        out["worst_moved"] = worse(out["worst_moved"], key,
                                   delta if math.isfinite(delta) else math.inf)
    return out


def worst_relative(path_a, path_b):
    """(ratio, key) of the largest |delta| / |x| of a value in
    RELATIVE_FIELDS that moved between dumps A (x) and B, or (0.0, None).
    A value that moved from 0, or to or from a non-number, counts as
    infinite."""
    a, b = _read(path_a), _read(path_b)
    worst = (0.0, None)
    for key, text_a in a.items():
        if key[3] not in RELATIVE_FIELDS or b.get(key, text_a) == text_a:
            continue
        x, y = _number(text_a), _number(b[key])
        if x is not None and y is not None and x.hex() == y.hex():
            continue
        ratio = math.inf
        if x is not None and y is not None and x != 0.0:
            ratio = abs(y - x) / abs(x)
            if math.isnan(ratio):
                ratio = math.inf
        if worst[1] is None or ratio > worst[0]:
            worst = (ratio, key)
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dump", metavar="PATH",
                    help="also write each digested value with its key")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two dumps instead of digesting")
    args = ap.parse_args()
    if args.compare:
        c = compare(*args.compare)
        print(f"{c['moved']} of {c['compared']} values moved; "
              f"{c['added']} keys added, {c['removed']} removed; "
              f"{c['repr_only']} repr-only changes")
        for name, what in (("worst_moved", "|delta|"),
                           ("worst_removed", "removed value")):
            ratio, key = c[name]
            where = "" if key is None else " at " + " ".join(key)
            print(f"largest {what} / envelope peak: {ratio!r}{where}")
        ratio, key = worst_relative(*args.compare)
        where = "" if key is None else " at " + " ".join(key)
        print(f"largest relative |delta| of {', '.join(RELATIVE_FIELDS)}: "
              f"{ratio!r}{where}")
        return
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            d = digest(fh)
    else:
        d = digest()
    print(d.count, d.sha.hexdigest())


if __name__ == "__main__":
    main()
