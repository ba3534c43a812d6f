"""Envelopes at large alpha1 against frozen references.

tests/reference/<name>.csv holds every entry of the auto-ranged envelope
of SCENARIOS[name]: n, the value, its three terms and alpha1, at repr
precision.  The test requires the same channel set and every entry within
1e-12 of the envelope peak, so a change that moves the last bits of the
Bessel rows passes while a change of the physics does not.  The goldens of
test_golden.py pin the CLI bytes; these pin the regime they do not reach
(alpha1 in the hundreds, zeta < 1 with v != 0).  The files are written by

    PYTHONPATH=src python tests/test_reference.py

and a change that rewrites them says why in its description.
"""

import pathlib

import pytest

from conftest import make_scenario
from sbxs.potential import PotentialFT
from sbxs.scan import envelope

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
COLUMNS = "n,value,term_main,term_recoil,term_wave,alpha1"
TOL = 1.0e-12  # of the envelope peak

OBLIQUE = (0.3, 0.2, 0.9)
SCENARIOS = {
    "strong-circular": dict(K=0.8, zeta=1.0, deflection_mrad=6.0),
    "oblique-K0.3-zeta0.5": dict(K=0.3, zeta=0.5, deflection_mrad=6.0,
                                 direction=OBLIQUE),
    "oblique-K0.3-zeta0": dict(K=0.3, zeta=0.0, deflection_mrad=6.0,
                               direction=OBLIQUE),
}


def _envelope(name):
    pot = PotentialFT.screened_coulomb_au(1.0, 4.0)
    return envelope(make_scenario(pot, **SCENARIOS[name]))


def _rows(env):
    return [(px.n, px.value, px.terms.main_energy, px.terms.recoil,
             px.terms.wave_pressure, px.alpha1) for px in env.entries]


def _read(name):
    lines = (REFERENCE / f"{name}.csv").read_text().splitlines()
    assert lines[0] == COLUMNS
    return [(int(n), *map(float, rest))
            for n, *rest in (line.split(",") for line in lines[1:])]


def test_reference_files_are_the_scenarios():
    assert sorted(p.stem for p in REFERENCE.iterdir()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_envelope_matches_reference(name):
    got = _rows(_envelope(name))
    ref = _read(name)
    assert [r[0] for r in got] == [r[0] for r in ref]
    peak = max(r[1] for r in ref)
    for g, r in zip(got, ref):
        for a, b in zip(g[1:5], r[1:5]):
            assert abs(a - b) <= TOL * peak, (g[0], a, b)
        assert g[5] == pytest.approx(r[5], rel=TOL, abs=TOL)


if __name__ == "__main__":
    REFERENCE.mkdir(exist_ok=True)
    for name in SCENARIOS:
        rows = _rows(_envelope(name))
        lines = [COLUMNS] + [",".join([str(n), *(repr(float(c)) for c in rest)])
                             for n, *rest in rows]
        (REFERENCE / f"{name}.csv").write_text("\n".join(lines) + "\n")
