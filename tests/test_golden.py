"""CLI output bytes against stored golden files.

Each case runs sbxs.cli.main in-process and compares its exit code and its
stdout with tests/golden/<case> byte for byte.  A change that means to move
the bytes rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from sbxs.cli import main

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
FIG1A = json.loads((HERE.parent / "demos" / "fig1a.json").read_text())


def _config(laser=None, electron=None, geometry=None, run=None):
    """demos/fig1a.json with the given sections updated (laser replaced)."""
    cfg = json.loads(json.dumps(FIG1A))
    if laser is not None:
        cfg["laser"] = laser
    for section, update in (("electron", electron), ("geometry", geometry),
                            ("run", run)):
        cfg[section].update(update or {})
    return cfg


CONFIGS = {
    "fig1a": _config(),
    "nonrel": _config(run={"formula": "nonrel"}),
    # the -n side of both ends at a closed channel
    "slow": _config(laser={"photon_energy_eV": 1.17, "K": 0.05, "zeta": 1.0},
                    electron={"kinetic_energy_eV": 27.0},
                    geometry={"deflection_mrad": 200.0}),
    "slow-nonrel": _config(laser={"photon_energy_eV": 1.17, "K": 0.05, "zeta": 1.0},
                           electron={"kinetic_energy_eV": 27.0},
                           geometry={"deflection_mrad": 200.0},
                           run={"formula": "nonrel"}),
    # no field: one channel, n = 0
    "K0": _config(laser={"photon_energy_eV": 1.17, "K": 0.0, "zeta": 1.0}),
    # zeta not a power of two and a direction off every axis, so the zeta
    # products and the frame projections round
    "oblique": _config(laser={"photon_energy_eV": 1.17, "K": 0.17, "zeta": 0.3},
                       electron={"direction": [0.3, -0.2, 0.9]},
                       geometry={"deflection_mrad": 6.0, "azimuth_deg": 40.0}),
}

# case (the golden file name) -> argv; {name} is the path of CONFIGS[name],
# {golden:case} the path of that case's golden file
CASES = {
    "envelope.csv": ["envelope", "--config", "{fig1a}"],
    "envelope.json": ["envelope", "--config", "{fig1a}", "--format", "json"],
    "ksweep.csv": ["ksweep", "--config", "{fig1a}"],
    "total.txt": ["total", "--config", "{fig1a}"],
    "elastic.txt": ["elastic", "--config", "{fig1a}"],
    "partial-n-4.csv": ["partial", "--config", "{fig1a}", "--n", "-4"],
    "partial-n-4.json": ["partial", "--config", "{fig1a}", "--n", "-4",
                         "--format", "json"],
    "envelope-K0.csv": ["envelope", "--config", "{K0}"],
    "envelope-range.csv": ["envelope", "--config", "{fig1a}",
                           "--n-min", "-6", "--n-max", "6"],
    "envelope-nonrel.csv": ["envelope", "--config", "{nonrel}"],
    "envelope-slow.csv": ["envelope", "--config", "{slow}"],
    "envelope-slow-nonrel.csv": ["envelope", "--config", "{slow-nonrel}"],
    "envelope-oblique.csv": ["envelope", "--config", "{oblique}"],
    "verify.txt": ["verify", "--seed", "42", "--samples", "60"],
    "gbessel.txt": ["gbessel", "--n", "7", "--u", "12.5", "--v", "3.2",
                    "--delta", "0.9"],
    "plot-envelope.svg": ["plot", "--input", "{golden:envelope.csv}"],
    "plot-ksweep.svg": ["plot", "--input", "{golden:ksweep.csv}"],
}


def _run(case, workdir):
    """(exit code, stdout bytes) of the case, its configs under workdir."""
    paths = {}
    for name, cfg in CONFIGS.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(cfg))
    for golden in CASES:
        paths[f"golden:{golden}"] = GOLDEN / golden
    argv = [str(paths[arg[1:-1]]) if arg.startswith("{") else arg
            for arg in CASES[case]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def test_golden_files_are_the_cases():
    # a deleted case must not leave its file behind
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes_match_golden(case, tmp_path):
    code, out = _run(case, tmp_path)
    assert code == 0
    assert out == (GOLDEN / case).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        # the plot cases read the envelope and ksweep files written first
        for case in sorted(CASES, key=lambda c: c.startswith("plot")):
            code, out = _run(case, pathlib.Path(tmp))
            if code != 0:
                sys.exit(f"{case}: exit {code}")
            (GOLDEN / case).write_bytes(out)
