import json

import pytest

from sbxs.cli import main, resolve_config

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


def test_wavelength_and_k_input(tmp_path):
    cfg = json.loads(json.dumps(FIG1A))
    cfg["laser"] = {"wavelength_nm": 1059.69, "K": 0.17, "zeta": 1.0}
    resolved, scenario, _ = resolve_config(cfg)
    assert resolved["laser"]["photon_energy_eV"] == pytest.approx(1.17, rel=1e-3)
    assert scenario.laser.K == 0.17


def _on(command, mutate):
    """A bad-config input that only `command` reads (default: total)."""
    mutate.command = command
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
        lambda c: c["run"].update(formula="circular", __post=None) or
                  c["laser"].update(zeta=0.5),
        # checked by Scenario / LaserField, reported as config errors
        lambda c: c["run"].update(formula="linear"),          # zeta = 1
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
        lambda c: c["potential"].update(table_path="/nonexistent.tab") or
                  c["potential"].pop("screening_radius_au"),
        lambda c: c["potential"].update(table_path=__file__) or
                  c["potential"].pop("screening_radius_au"),
        # values that are not numbers, one per field converted by the CLI
        lambda c: c["electron"].update(kinetic_energy_eV="abc"),
        lambda c: c["electron"].update(direction=["x", 0, 1]),
        lambda c: c["geometry"].update(deflection_mrad="abc"),
        lambda c: c["geometry"].update(azimuth_deg=None),
        lambda c: c["run"].update(tail_cut="abc"),
        lambda c: c["run"].update(n="abc"),
        lambda c: c["run"].update(n_min=[1]),
        lambda c: c["run"].update(n_max="abc"),
        lambda c: c["run"].update(k_grid=["x"]),
        lambda c: c["run"].update(k_grid=0.5),
        # photon numbers must be integers, ranges ascending, K grids valid
        lambda c: c["run"].update(n=3.7),
        _on("envelope", lambda c: c["run"].update(n_min=5, n_max=2)),
        _on("ksweep", lambda c: c["run"].update(k_grid=[0.2, 2.0])),
        _on("ksweep", lambda c: c["run"].update(k_grid=[0.3, 0.1])),
    ],
)
def test_bad_configs_exit_2(tmp_path, capsys, mutate):
    cfg = json.loads(json.dumps(FIG1A))
    mutate(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    command = getattr(mutate, "command", "total")
    code, _, err = _run(capsys, [command, "--config", str(path)])
    assert code == 2
    assert "config error" in err


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


def test_verify_pass_and_exit_code(capsys):
    code, out, _ = _run(capsys, ["verify", "--seed", "42", "--samples", "15"])
    assert code == 0
    assert "PASS" in out


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


def test_plot_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    code, _, err = _run(capsys, ["plot", "--input", str(bad)])
    assert code == 2
