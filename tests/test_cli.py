import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import write_screened_table
from sbxs.cli import SCHEMA, config_header, main, resolve_config
from sbxs.errors import ConfigError, ConvergenceError
from sbxs.kinematics import LaserField
from sbxs.potential import PotentialFT
from sbxs.scan import total_xs
from sbxs.units import intensity_to_K
from sbxs.xsection import VALID_FORMULAS, Scenario

HERE = pathlib.Path(__file__).resolve().parent

FIG1A = {
    "laser": {"photon_energy_eV": 1.17, "intensity_W_cm2": 3.5e16, "zeta": 1.0},
    "electron": {"kinetic_energy_eV": 2700.0, "direction": [0, 0, 1]},
    "potential": {"Za": 1.0, "screening_radius_au": 4.0},
    "geometry": {"deflection_mrad": 0.6, "azimuth_deg": 0.0},
    "run": {"formula": "general", "k_grid": [0.1, 0.3, 0.5]},
}


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "fig1a.json"
    path.write_text(json.dumps(FIG1A))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_resolve_config_round_trip(cfg_path):
    resolved, _, _ = resolve_config(json.loads(open(cfg_path).read()))
    # the resolved dict embedded in headers must resolve to itself
    again, _, _ = resolve_config(
        {
            "laser": {"photon_energy_eV": resolved["laser"]["photon_energy_eV"],
                      "K": resolved["laser"]["K"],
                      "zeta": resolved["laser"]["zeta"]},
            "electron": resolved["electron"],
            "potential": resolved["potential"],
            "geometry": resolved["geometry"],
            "run": resolved["run"],
        }
    )
    assert again == resolved


def test_resolve_config_rejects_unknown_keys():
    cfg = json.loads(json.dumps(FIG1A))
    cfg["run"]["n_min"] = -3  # a removed key: it no longer sets the range
    with pytest.raises(ConfigError, match="n_min"):
        resolve_config(cfg)


def _embedded_config(path):
    """The config a CSV or JSON output file echoes."""
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)["config"]
    header = next(l for l in text.splitlines() if l.startswith("# config: "))
    return json.loads(header[len("# config: "):])


def test_golden_configs_resolve_to_themselves():
    paths = [p for p in sorted((HERE / "golden").iterdir())
             if p.suffix in (".csv", ".json")]
    assert len(paths) == 10
    for path in paths:
        config = _embedded_config(path)
        resolved, _, _ = resolve_config(config)
        assert resolved == config, path.name


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_SCHEMA_KEYS = [(section, key) for section, keys in SCHEMA.items()
                for key in keys]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(_SCHEMA_KEYS), _JSON_VALUES)
def test_any_value_at_any_key_is_a_config_error_or_resolves(place, value):
    """No value at a config key gets past resolve_config as a traceback, a
    non-finite angle or direction, or an echo that does not resolve."""
    section, key = place
    cfg = json.loads(json.dumps(FIG1A))
    cfg[section][key] = value
    try:
        resolved, scenario, _ = resolve_config(cfg)
    except ConfigError:
        return
    assert math.isfinite(scenario.azimuth)
    assert all(math.isfinite(c) for c in scenario.direction)
    echoed = json.loads(config_header(resolved, "total").split("# config: ")[1])
    assert resolve_config(echoed)[0] == resolved


def _readme_cli_section():
    text = (HERE.parent / "README.md").read_text()
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_config_follows_the_schema():
    section = _readme_cli_section()
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    resolve_config(json.loads(block))
    for name, keys in SCHEMA.items():
        for key in (name, *keys):
            assert f"`{key}`" in section, key
    run_row = next(l for l in section.splitlines() if l.startswith("| `run`"))
    listed = re.search(r"`formula`: `([^`]*)`", run_row).group(1)
    assert listed.split(" \\| ") == list(VALID_FORMULAS)


def test_wavelength_and_k_input(tmp_path):
    cfg = json.loads(json.dumps(FIG1A))
    cfg["laser"] = {"wavelength_nm": 1059.69, "K": 0.17, "zeta": 1.0}
    resolved, scenario, _ = resolve_config(cfg)
    assert resolved["laser"]["photon_energy_eV"] == pytest.approx(1.17, rel=1e-3)
    assert scenario.laser.K == 0.17


def _on(command, mutate, *flags, names=None):
    """A bad input that only `command` reads (default: total), run with the
    extra flags; the error message must contain `names`."""
    mutate.command, mutate.flags, mutate.names = command, flags, names
    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c["laser"].pop("photon_energy_eV"),
        lambda c: c["laser"].update(wavelength_nm=1060.0),
        lambda c: c["laser"].update(K=0.2),
        lambda c: c["laser"].update(zeta=1.5),
        lambda c: c["geometry"].update(deflection_mrad=-1.0),
        lambda c: c["electron"].update(direction=[0, 0]),
        lambda c: c["potential"].pop("screening_radius_au"),
        # checked by Scenario / LaserField, reported as config errors; the
        # closed forms are cross-checks, not formulas, whatever zeta is
        _on("total", lambda c: c["run"].update(formula="circular"),
            names="circular"),
        _on("total", lambda c: c["run"].update(formula="linear") or
                               c["laser"].update(zeta=0.0), names="linear"),
        lambda c: c["run"].update(formula="bogus"),
        lambda c: c["laser"].update(K=-0.1) or
                  c["laser"].pop("intensity_W_cm2"),
        lambda c: c["laser"].update(intensity_W_cm2=-1.0),
        lambda c: c["laser"].update(wavelength_nm=-1.0) or
                  c["laser"].pop("photon_energy_eV"),
        lambda c: c["laser"].update(photon_energy_eV=0.0),
        lambda c: c["potential"].update(Za=0.0),
        lambda c: c["potential"].update(screening_radius_au=0.0),
        lambda c: c["electron"].update(direction=[0, 0, 0]),
        # unreadable potential tables: missing, and not a numeric table
        _on("total", lambda c: c.update(
            potential={"table_path": "/nonexistent.tab"}),
            names="nonexistent.tab"),
        _on("total", lambda c: c.update(potential={"table_path": __file__}),
            names="test_cli.py"),
        # values that are not numbers, one per field converted by the CLI
        lambda c: c["electron"].update(kinetic_energy_eV="abc"),
        lambda c: c["electron"].update(direction=["x", 0, 1]),
        lambda c: c["geometry"].update(deflection_mrad="abc"),
        lambda c: c["geometry"].update(azimuth_deg=None),
        lambda c: c["run"].update(tail_cut="abc"),
        lambda c: c["run"].update(k_grid=["x"]),
        lambda c: c["run"].update(k_grid=0.5),
        # photon numbers are flags: required, paired, ascending
        _on("partial", lambda c: None, names="--n"),
        _on("envelope", lambda c: None, "--n-min", "5", names="--n-max"),
        _on("envelope", lambda c: None, "--n-min", "5", "--n-max", "2",
            names="--n-min"),
        # K grids valid
        _on("ksweep", lambda c: c["run"].update(k_grid=[0.2, 2.0])),
        _on("ksweep", lambda c: c["run"].update(k_grid=[0.3, 0.1])),
        # unknown keys and sections, a removed run key among them
        _on("total", lambda c: c["run"].update(output_path="/nonexistent/o"),
            names="output_path"),
        _on("total", lambda c: c["laser"].update(zeeta=1.0), names="zeeta"),
        _on("total", lambda c: c["geometry"].update(azimuth_degs=0.0),
            names="azimuth_degs"),
        _on("total", lambda c: c.update(detector={}), names="detector"),
        # Za is read only with screening_radius_au
        _on("total", lambda c: c["potential"].update(table_path="/x.tab") or
                               c["potential"].pop("screening_radius_au"),
            names="Za"),
        _on("total", lambda c: c["potential"].pop("Za"), names="Za"),
        _on("total", lambda c: c["geometry"].update(deflection_mrad=4000.0),
            names="deflection_mrad"),
        # values of the wrong type or not finite, named by section and key
        _on("total", lambda c: c["laser"].update(zeta=None),
            names="laser: zeta"),
        _on("total", lambda c: c["potential"].update(Za=None),
            names="potential: Za"),
        _on("total", lambda c: c["laser"].update(K="abc") or
                               c["laser"].pop("intensity_W_cm2"),
            names="laser: K"),
        _on("total", lambda c: c["geometry"].update(azimuth_deg=float("nan")),
            names="geometry: azimuth_deg"),
        _on("total", lambda c: c["electron"].update(
            direction=[float("nan"), 0, 1]), names="electron: direction"),
        _on("total", lambda c: c["geometry"].update(azimuth_deg=float("inf")),
            names="geometry: azimuth_deg"),
        _on("total", lambda c: c.update(
            potential={"table_path": ["0.001 0.01", "1000 1e-9"]}),
            names="potential: table_path"),
        _on("total", lambda c: c["run"].update(formula=None),
            names="run: formula"),
        # finite, but past the range the solver represents
        lambda c: c["laser"].update(photon_energy_eV=1e300),
        lambda c: c["potential"].update(screening_radius_au=1e-300),
        _on("total", lambda c: c["electron"].update(kinetic_energy_eV=1e300),
            names="electron: kinetic_energy_eV"),
        # a0bar in range, but the quasienergy Pi0 = E + omega Z (1 + zeta^2)
        # past dress's PI0_MAX
        *(_on("total", lambda c, i=i: c["laser"].update(intensity_W_cm2=i),
              names="Pi0") for i in (1e200, 1e250, 1e300)),
        _on("total", lambda c: c["laser"].update(photon_energy_eV=1e-100),
            names="Pi0"),
    ],
)
def test_bad_configs_exit_2(tmp_path, capsys, mutate):
    cfg = json.loads(json.dumps(FIG1A))
    mutate(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    argv = [getattr(mutate, "command", "total"), "--config", str(path),
            *getattr(mutate, "flags", ())]
    try:
        code, out, err = _run(capsys, argv)
    except SystemExit as exc:  # argparse: a required flag is missing
        code, err = exc.code, capsys.readouterr().err
    else:
        assert "config error" in err and out == ""
    assert code == 2
    names = getattr(mutate, "names", None)
    assert names is None or names in err


@pytest.mark.parametrize("value", [1e-300, 1e-150, 1e150, 1e300])
@pytest.mark.parametrize("section, key", [
    ("laser", "photon_energy_eV"), ("electron", "kinetic_energy_eV"),
    ("potential", "screening_radius_au"), ("potential", "Za"),
    ("laser", "intensity_W_cm2")])
def test_extreme_value_ends_in_a_typed_exit(tmp_path, capsys, section, key,
                                            value):
    cfg = json.loads(json.dumps(FIG1A))
    cfg[section][key] = value
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(cfg))
    code, _, _ = _run(capsys, ["total", "--config", str(path)])
    assert code in (0, 2, 3)


@pytest.mark.parametrize("direction", [[0, 0, 1e308], [0, 0, 1e-320]])
def test_direction_at_any_scale(tmp_path, capsys, direction):
    cfg = json.loads((HERE.parent / "demos" / "fig1a.json").read_text())
    cfg["electron"]["direction"] = direction
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = _run(capsys, ["total", "--config", str(path)])
    assert code == 0
    assert out == (HERE / "golden" / "total.txt").read_text()


def _mrad_leaving(bound, toward):
    """The first deflection_mrad from `bound` toward `toward` whose radian
    value mrad * 1e-3 (what the Scenario gets) lies outside [0, pi]."""
    mrad = bound
    while 0.0 <= mrad * 1.0e-3 <= math.pi:
        mrad = math.nextafter(mrad, toward)
    return mrad


@pytest.mark.parametrize("section, key, edge, outside", [
    ("electron", "kinetic_energy_eV", 0.0, -5e-324),
    ("electron", "kinetic_energy_eV", 5e-324, -5e-324),
    ("geometry", "deflection_mrad", 0.0, _mrad_leaving(0.0, -1.0)),
    ("geometry", "deflection_mrad", 1000.0 * math.pi,
     _mrad_leaving(1000.0 * math.pi, 4000.0)),
])
def test_cli_accepts_what_the_library_accepts(tmp_path, capsys, section, key,
                                              edge, outside):
    cfg = json.loads((HERE.parent / "demos" / "fig1a.json").read_text())
    path = tmp_path / "edge.json"
    cfg[section][key] = edge
    path.write_text(json.dumps(cfg))
    laser_c, elec_c, pot_c, geo_c = (cfg[k] for k in
                                     ("laser", "electron", "potential", "geometry"))
    omega = laser_c["photon_energy_eV"]
    scenario = Scenario(
        laser=LaserField.from_K(
            omega, intensity_to_K(laser_c["intensity_W_cm2"], omega),
            laser_c["zeta"]),
        kinetic_energy=elec_c["kinetic_energy_eV"],
        direction=tuple(elec_c["direction"]),
        potential=PotentialFT.screened_coulomb_au(pot_c["Za"],
                                                  pot_c["screening_radius_au"]),
        deflection=geo_c["deflection_mrad"] * 1.0e-3,
        azimuth=math.radians(geo_c["azimuth_deg"]),
    )
    code, out, _ = _run(capsys, ["total", "--config", str(path)])
    assert (code, out) == (0, f"{float(total_xs(scenario))!r}\n")
    cfg[section][key] = outside
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, ["total", "--config", str(path)])
    assert (code, out) == (2, "")
    assert f"{section}: " in err and key in err


def test_tail_cut_flag_checked_and_echoed(capsys, cfg_path):
    for bad in ("2", "0", "-1"):  # 0 and -1 would never end the tail
        code, _, err = _run(capsys, ["envelope", "--config", cfg_path,
                                     f"--tail-cut={bad}"])
        assert code == 2
        assert "config error" in err
    code, out, _ = _run(capsys, ["envelope", "--config", cfg_path,
                                 "--tail-cut", "1e-3"])
    assert code == 0
    header = [l for l in out.splitlines() if l.startswith("# config: ")]
    assert json.loads(header[0][len("# config: "):])["run"]["tail_cut"] == 1e-3


def test_format_only_on_partial_and_envelope(capsys, cfg_path):
    for command in ("total", "elastic", "ksweep"):
        with pytest.raises(SystemExit) as exc:  # argparse: unknown flag
            main([command, "--config", cfg_path, "--format", "json"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_missing_config_file_exit_2(capsys):
    code, _, err = _run(capsys, ["total", "--config", "/nonexistent.json"])
    assert code == 2


def test_invalid_json_config_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = _run(capsys, ["total", "--config", str(path)])
    assert code == 2
    assert "is not valid JSON" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit):  # argparse exits on unknown subcommand
        main(["frobnicate"])
    code, _, _ = _run(capsys, [])
    assert code == 2


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_total_and_elastic(capsys, cfg_path):
    code, out, _ = _run(capsys, ["total", "--config", cfg_path])
    assert code == 0
    assert float(out) > 0.0
    code, out0, _ = _run(capsys, ["elastic", "--config", cfg_path, "--K", "0"])
    assert code == 0
    code, out1, _ = _run(capsys, ["elastic", "--config", cfg_path])
    # elastic reference is field-free: K override must not matter
    assert out0 == out1


def test_elastic_at_rest_names_the_rest_limit(tmp_path, capsys):
    cfg = json.loads(json.dumps(FIG1A))
    cfg["electron"]["kinetic_energy_eV"] = 0
    path = tmp_path / "rest.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, ["elastic", "--config", str(path)])
    assert (code, out) == (3, "")
    assert "kinetic energy" in err


def test_tabulated_potential_matches_closed_form(tmp_path, capsys):
    table = str(write_screened_table(tmp_path / "screened.tab"))
    demo = HERE.parent / "demos" / "fig1a.json"
    cfg = json.loads(demo.read_text())
    cfg["potential"] = {"table_path": table}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(cfg))
    code, analytic, _ = _run(capsys, ["total", "--config", str(demo)])
    assert code == 0
    code, tabulated, _ = _run(capsys, ["total", "--config", str(path)])
    assert code == 0
    # the tolerance of test_potential.test_table_matches_closed_form
    assert float(tabulated) == pytest.approx(float(analytic), rel=1e-5)
    code, out, _ = _run(capsys, ["envelope", "--config", str(path)])
    assert code == 0
    header = [l for l in out.splitlines() if l.startswith("# config: ")]
    echoed = json.loads(header[0][len("# config: "):])
    assert echoed["potential"] == {"table_path": table}


_SCIPY_GUARD = """
import contextlib, io, sys
from sbxs.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["total", "--config", "demos/fig1a.json"]) == 0
assert "scipy" not in sys.modules, "scipy loaded by a screened-Coulomb run"
from sbxs.potential import PotentialFT
PotentialFT.from_table(sys.argv[1])
"""


def test_screened_coulomb_run_leaves_scipy_unloaded(tmp_path):
    """scipy is imported only when a table is read (it costs ~0.75 s)."""
    table = write_screened_table(tmp_path / "screened.tab")
    root = HERE.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_GUARD, str(table)],
                          cwd=root, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_too_weak_potential_totals_zero(tmp_path):
    """Every channel underflows to 0: the envelope ends at the Bessel-support
    margin instead of running on."""
    cfg = json.loads(json.dumps(FIG1A))
    cfg["potential"]["Za"] = 1e-300
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "sbxs.cli", "total",
                           "--config", str(path)], env=env, timeout=30,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "0.0\n"), proc.stderr


def test_partial_csv(capsys, cfg_path):
    code, out, _ = _run(capsys, ["partial", "--config", cfg_path, "--n", "-4"])
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0].startswith("n,dsigma_au,alpha1,q2_au")
    fields = lines[1].split(",")
    assert int(fields[0]) == -4
    assert float(fields[1]) > 0.0


def test_partial_closed_channel_exit_3(capsys, cfg_path):
    code, _, err = _run(capsys, ["partial", "--config", cfg_path,
                                 "--n", "-1000000"])
    assert code == 3
    assert "domain error" in err


def test_envelope_range_without_open_channels_exit_3(capsys, cfg_path):
    code, _, err = _run(capsys, ["envelope", "--config", cfg_path,
                                 "--n-min", "-100000", "--n-max", "-99990"])
    assert code == 3
    assert "no open channels in range" in err


def test_envelope_csv_and_header_round_trip(capsys, cfg_path):
    code, out, _ = _run(capsys, ["envelope", "--config", cfg_path])
    assert code == 0
    header = [l for l in out.splitlines() if l.startswith("# config: ")]
    assert len(header) == 1
    embedded = json.loads(header[0][len("# config: "):])
    resolved, _, _ = resolve_config(
        {k: embedded[k] for k in ("laser", "electron", "potential",
                                  "geometry", "run")}
    )
    assert resolved == embedded
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "n,dsigma_au,alpha1,q2_au,term_main,term_recoil,term_wave"
    assert len(rows) > 20


def test_envelope_explicit_range_and_json(capsys, cfg_path):
    code, out, _ = _run(capsys, ["envelope", "--config", cfg_path,
                                 "--n-min", "-2", "--n-max", "2",
                                 "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert [e["n"] for e in doc["entries"]] == [-2, -1, 0, 1, 2]
    assert doc["total_au"] == pytest.approx(
        sum(e["dsigma_au"] for e in doc["entries"]))


def test_ksweep_csv(capsys, cfg_path):
    code, out, _ = _run(capsys, ["ksweep", "--config", cfg_path])
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "K,total_au"
    assert len(rows) == 4
    assert [float(r.split(",")[0]) for r in rows[1:]] == [0.1, 0.3, 0.5]


def test_ksweep_reports_per_point_errors(tmp_path, capsys):
    # the narrow table of test_scan.test_k_sweep_reports_per_point_errors:
    # at K = 1.2 the momentum transfer leaves it
    table = write_screened_table(tmp_path / "narrow.tab", n=200,
                                 q_range=(0.05, 0.35))
    cfg = json.loads(json.dumps(FIG1A))
    cfg["laser"] = {"photon_energy_eV": 1.17, "K": 0.17, "zeta": 1.0}
    cfg["potential"] = {"table_path": str(table)}
    cfg["geometry"]["deflection_mrad"] = 6.0
    cfg["run"]["k_grid"] = [0.05, 1.2]
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = _run(capsys, ["ksweep", "--config", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert "1.2,nan" in lines
    assert any(l.startswith("# error K=1.2: DomainError: |q| =") for l in lines)


def test_gbessel_debug(capsys):
    code, out, _ = _run(capsys, ["gbessel", "--n", "3", "--u", "5.0",
                                 "--v", "0.0", "--delta", "0.7"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("series")
    assert lines[1].startswith("quad")
    series = float(lines[0].split()[1])
    assert series == pytest.approx(0.364831230613667, rel=1e-12)
    assert float(lines[2].split()[1]) < 1e-12


def test_convergence_error_exit_4(capsys, monkeypatch):
    def fail(*args):
        raise ConvergenceError("quadrature did not converge")

    monkeypatch.setattr("sbxs.cli.gbessel_quad", fail)
    code, _, err = _run(capsys, ["gbessel", "--n", "3", "--u", "5.0",
                                   "--v", "0.0"])
    assert code == 4
    assert "convergence error: quadrature did not converge" in err


def test_verify_pass_and_exit_code(capsys):
    code, out, _ = _run(capsys, ["verify", "--seed", "42", "--samples", "15"])
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("samples", ["-3", "0"])
def test_verify_without_samples_exit_2(capsys, samples):
    code, out, err = _run(capsys, ["verify", "--samples", samples])
    assert code == 2
    assert "config error" in err and "PASS" not in out


def test_verify_fail_exit_5(capsys):
    code, out, _ = _run(capsys, ["verify", "--seed", "42", "--samples", "15",
                                 "--tol", "1e-30"])
    assert code == 5
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# determinism (bitwise)
# ---------------------------------------------------------------------------

def _artifact_bytes(tmp_path, cfg_path, argv, name):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    assert code == 0
    return out.read_bytes()


def test_outputs_bitwise_reproducible(tmp_path, cfg_path, capsys):
    env1 = _artifact_bytes(tmp_path, cfg_path,
                           ["envelope", "--config", cfg_path], "a.csv")
    env2 = _artifact_bytes(tmp_path, cfg_path,
                           ["envelope", "--config", cfg_path], "b.csv")
    assert env1 == env2
    ks1 = _artifact_bytes(tmp_path, cfg_path,
                          ["ksweep", "--config", cfg_path], "k1.csv")
    ks2 = _artifact_bytes(tmp_path, cfg_path,
                          ["ksweep", "--config", cfg_path], "k2.csv")
    assert ks1 == ks2
    code1, out1, _ = _run(capsys, ["verify", "--seed", "42", "--samples", "10"])
    code2, out2, _ = _run(capsys, ["verify", "--seed", "42", "--samples", "10"])
    assert (code1, out1) == (code2, out2)


# ---------------------------------------------------------------------------
# plotting
# ---------------------------------------------------------------------------

def test_plot_envelope_and_ksweep(tmp_path, cfg_path):
    env_csv = tmp_path / "env.csv"
    assert main(["envelope", "--config", cfg_path,
                 "--output", str(env_csv)]) == 0
    svg = tmp_path / "env.svg"
    assert main(["plot", "--input", str(env_csv), "--output", str(svg)]) == 0
    body = svg.read_text()
    assert body.startswith("<svg") and body.rstrip().endswith("</svg>")
    assert "photon number n" in body

    ks_csv = tmp_path / "ks.csv"
    assert main(["ksweep", "--config", cfg_path, "--output", str(ks_csv)]) == 0
    svg2 = tmp_path / "ks.svg"
    assert main(["plot", "--input", str(ks_csv), "--output", str(svg2)]) == 0
    assert "intensity parameter K" in svg2.read_text()

    # byte-stable rendering
    svg3 = tmp_path / "env2.svg"
    assert main(["plot", "--input", str(env_csv), "--output", str(svg3)]) == 0
    assert svg.read_bytes() == svg3.read_bytes()


@pytest.mark.parametrize("rows", ["0.1,nan\n0.3,2.0\n0.5,3.0\n",
                                  "0.1,1.0\n0.3,2.0\n0.5,nan\n"])
def test_plot_skips_failed_ksweep_points(tmp_path, capsys, rows):
    # cmd_ksweep writes a K,nan row for each K whose total failed
    path = tmp_path / "ks.csv"
    path.write_text("# sbxs ksweep\nK,total_au\n" + rows)
    code, out, _ = _run(capsys, ["plot", "--input", str(path)])
    assert code == 0
    assert out.count("<circle") == 2 and not re.search(r"\bnan\b", out)


def test_plot_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    code, _, err = _run(capsys, ["plot", "--input", str(bad)])
    assert code == 2


@pytest.mark.parametrize("body", [None, "# sbxs envelope\nn,dsigma_au\nx,y\n",
                                  "# sbxs envelope\nn,dsigma_au\n1,2\n3\n",
                                  "# sbxs envelope\nn,dsigma_au\n"])
def test_plot_unreadable_input_exit_2(tmp_path, capsys, body):
    path = tmp_path / "in.csv"  # missing when body is None
    if body is not None:
        path.write_text(body)
    code, _, err = _run(capsys, ["plot", "--input", str(path)])
    assert code == 2
    assert "config error" in err
