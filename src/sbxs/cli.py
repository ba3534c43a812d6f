"""Command-line front end.

Subcommands: partial, envelope, total, ksweep, elastic, gbessel, verify,
plot.  A JSON config describes the computation; every CSV artifact
embeds it, fully resolved, in a header comment so a run can be
reproduced from its output alone.  The flags pick the rows and where they
go, and set nothing the config holds.

The config holds the sections and keys of SCHEMA, each value of the type
SCHEMA gives it, and nothing else; README.md describes each key.

Exit codes: 0 success, 2 config error, 3 closed-channel/domain error,
4 convergence error, 5 verification failure.
"""

import argparse
import json
import math
import sys

from . import units
from .errors import ConfigError, ConvergenceError, DomainError
from .gbessel import gbessel, gbessel_quad
from .kinematics import LaserField
from .potential import PotentialFT
from .scan import (
    TAIL_CUT_DEFAULT,
    _check_tail_cut,
    envelope,
    k_sweep,
    oracle_deviation_sweep,
    partial,
    total_xs,
)
from .xsection import Scenario, elastic_born

ENVELOPE_COLUMNS = "n,dsigma_au,alpha1,q2_au,term_main,term_recoil,term_wave"
KSWEEP_COLUMNS = "K,total_au"
# verify passes below this closed-form vs oracle deviation: acceptance
# criterion 3's bound.
VERIFY_TOL = 1.0e-8
# The only sections and keys a config may hold, each with its value's type.
SCHEMA = {
    "laser": {"photon_energy_eV": float, "wavelength_nm": float,
              "intensity_W_cm2": float, "K": float, "zeta": float},
    "electron": {"kinetic_energy_eV": float, "direction": list},
    "potential": {"Za": float, "screening_radius_au": float, "table_path": str},
    "geometry": {"deflection_mrad": float, "azimuth_deg": float},
    "run": {"formula": str, "k_grid": list, "tail_cut": float},
}


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _convert(kind, value, what):
    """value as a `kind`, or a ConfigError naming `what`: a float is finite
    (float(value) converts), a list holds floats."""
    if kind is not float:
        _require(isinstance(value, kind),
                 f"{what} must be a {kind.__name__}, got {value!r}")
        return value if kind is str else [_convert(float, v, what) for v in value]
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    _require(math.isfinite(number),
             f"{what} must be a finite number, got {value!r}")
    return number


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}")


def _typed(cfg):
    """cfg with each value converted to its SCHEMA type; a ConfigError names
    the first section, key or value that SCHEMA does not allow."""
    _require(isinstance(cfg, dict), "config must be a JSON object")
    typed = {}
    for section, body in cfg.items():
        _require(section in SCHEMA, f"unknown config section {section!r}")
        _require(isinstance(body, dict), f"{section}: must be a JSON object")
        typed[section] = {}
        for key, value in body.items():
            _require(key in SCHEMA[section], f"{section}: unknown key {key!r}")
            typed[section][key] = _convert(SCHEMA[section][key], value,
                                           f"{section}: {key}")
    return typed


def resolve_config(cfg):
    """Validate and normalize a raw config dict.

    Returns (resolved_dict, Scenario, run_options).  The resolved dict is
    what gets embedded in output headers: photon energy in eV, field
    strength as K, angles as given.  units, PotentialFT, LaserField and
    Scenario check the ranges; their errors become a ConfigError that
    names the config keys the failing step reads.
    """
    cfg = _typed(cfg)
    for section in ("laser", "electron", "potential", "geometry"):
        _require(section in cfg, f"config section {section!r} missing")
    laser_c = cfg["laser"]
    elec_c = cfg["electron"]
    pot_c = cfg["potential"]
    geo_c = cfg["geometry"]
    run_c = cfg.get("run", {})

    has_w = "photon_energy_eV" in laser_c
    has_l = "wavelength_nm" in laser_c
    _require(has_w != has_l,
             "laser: exactly one of photon_energy_eV / wavelength_nm")
    has_i = "intensity_W_cm2" in laser_c
    has_k = "K" in laser_c
    _require(has_i != has_k, "laser: exactly one of intensity_W_cm2 / K")

    _require("kinetic_energy_eV" in elec_c, "electron: kinetic_energy_eV missing")
    ek = elec_c["kinetic_energy_eV"]
    direction = elec_c.get("direction", [0.0, 0.0, 1.0])

    has_r = "screening_radius_au" in pot_c
    has_t = "table_path" in pot_c
    _require(has_r != has_t,
             "potential: exactly one of screening_radius_au / table_path")
    _require(("Za" in pot_c) == has_r,
             "potential: Za goes with screening_radius_au, and only with it")

    _require("deflection_mrad" in geo_c, "geometry: deflection_mrad missing")
    deflection_mrad = geo_c["deflection_mrad"]
    azimuth_deg = geo_c.get("azimuth_deg", 0.0)

    formula = run_c.get("formula", "general")

    where = "run"  # the config keys read by the step that may fail
    try:
        tail_cut = _check_tail_cut(run_c.get("tail_cut", TAIL_CUT_DEFAULT))
        where = "laser"
        omega = (laser_c["photon_energy_eV"] if has_w
                 else units.wavelength_nm_to_ev(laser_c["wavelength_nm"]))
        K = (units.intensity_to_K(laser_c["intensity_W_cm2"], omega)
             if has_i else laser_c["K"])
        zeta = laser_c.get("zeta", 0.0)
        laser = LaserField.from_K(omega, K, zeta)
        where = "potential"
        if has_r:
            potential = PotentialFT.screened_coulomb_au(
                pot_c["Za"], pot_c["screening_radius_au"])
        else:
            potential = PotentialFT.from_table(pot_c["table_path"])
        where = ("electron: kinetic_energy_eV, direction / geometry: "
                 "deflection_mrad, azimuth_deg / run: formula / laser")
        scenario = Scenario(
            laser=laser,
            kinetic_energy=ek,
            direction=tuple(direction),
            potential=potential,
            deflection=deflection_mrad * 1.0e-3,
            azimuth=math.radians(azimuth_deg),
            formula=formula,
        )
    except (DomainError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}")

    resolved = {
        "laser": {"photon_energy_eV": omega, "K": K, "zeta": zeta},
        "electron": {"kinetic_energy_eV": ek, "direction": direction},
        "potential": pot_c,
        "geometry": dict(geo_c, azimuth_deg=azimuth_deg),
        "run": dict(run_c, formula=formula, tail_cut=tail_cut),
    }
    return resolved, scenario, resolved["run"]


def config_header(resolved, kind):
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return f"# sbxs {kind}\n# config: {blob}\n"


def _fmt(x):
    return repr(float(x))


def _rows_csv(header, columns, rows):
    lines = [header + columns]
    for row in rows:
        lines.append(",".join(_fmt(c) if not isinstance(c, int) else str(c)
                              for c in row))
    return "\n".join(lines) + "\n"


def _entry(n, value, alpha1, q2, *terms):
    """One channel keyed by the ENVELOPE_COLUMNS names, q2 in a.u."""
    values = (n, value, alpha1, units.momentum_ev_to_au(1.0) ** 2 * q2, *terms)
    return dict(zip(ENVELOPE_COLUMNS.split(","), values))


def _emit(text, output_path):
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _payload(resolved, kind, channels, fmt, **fields):
    """The _entry dicts as CSV rows under the config header, or for fmt
    "json" one document of the config, the kind and the given fields."""
    if fmt == "json":
        doc = dict(fields, config=resolved, kind=kind)
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"
    rows = [tuple(channel.values()) for channel in channels]
    return _rows_csv(config_header(resolved, kind), ENVELOPE_COLUMNS, rows)


def cmd_partial(args):
    resolved, scenario, _ = resolve_config(load_config(args.config))
    px = partial(scenario, args.n)
    entry = _entry(px.n, px.value, px.alpha1, px.q2, *vars(px.terms).values())
    _emit(_payload(resolved, "partial", [entry], args.format, entry=entry),
          args.output)
    return 0


def cmd_envelope(args):
    resolved, scenario, run = resolve_config(load_config(args.config))
    n_range = None
    if args.n_min is not None or args.n_max is not None:
        _require(args.n_min is not None and args.n_max is not None,
                 "envelope: give both --n-min and --n-max or neither")
        _require(args.n_min <= args.n_max,
                 "envelope: --n-min must not exceed --n-max")
        n_range = (args.n_min, args.n_max)
    env = envelope(scenario, n_range=n_range, tail_cut=run["tail_cut"])
    e = env.entries
    entries = [_entry(*lane) for lane in zip(e.n, *(c.tolist() for c in (
        e.value, e.alpha1, e.q2, e.main_energy, e.recoil, e.wave_pressure)))]
    _emit(_payload(resolved, "envelope", entries, args.format,
                   n_peak=env.n_peak, alpha1_at_peak=env.alpha1_at_peak,
                   total_au=env.total, entries=entries),
          args.output)
    return 0


def cmd_value(args):
    """total or elastic: one number on one line."""
    _, scenario, run = resolve_config(load_config(args.config))
    if args.command == "total":
        value = total_xs(scenario, tail_cut=run["tail_cut"])
    else:
        value = elastic_born(scenario)
    _emit(f"{_fmt(value)}\n", args.output)
    return 0


def cmd_ksweep(args):
    resolved, scenario, run = resolve_config(load_config(args.config))
    k_grid = run.get("k_grid")
    _require(k_grid, "ksweep: run.k_grid missing or empty")
    try:
        points = k_sweep(scenario, k_grid, tail_cut=run["tail_cut"])
    except DomainError as exc:  # the grid check; per-K errors are records
        raise ConfigError(str(exc))
    bad = [p for p in points if p.error]
    rows = [(p.K, p.total) for p in points]
    text = _rows_csv(config_header(resolved, "ksweep"), KSWEEP_COLUMNS, rows)
    for p in bad:
        text += f"# error K={_fmt(p.K)}: {p.error}\n"
    _emit(text, args.output)
    return 0


def cmd_gbessel(args):
    series = gbessel(args.n, args.u, args.v, args.delta)
    quad = gbessel_quad(args.n, args.u, args.v, args.delta)
    diff = abs(series - quad)
    sys.stdout.write(
        f"series  {series.real!r} {series.imag!r}\n"
        f"quad    {quad.real!r} {quad.imag!r}\n"
        f"absdiff {diff!r}\n"
    )
    return 0


def cmd_verify(args):
    try:
        max_dev, records = oracle_deviation_sweep(seed=args.seed,
                                                  samples=args.samples)
    except DomainError as exc:  # a sample count below 1
        raise ConfigError(str(exc))
    sys.stdout.write(
        f"verify: {len(records)} randomized open channels, seed {args.seed}\n"
        f"max relative deviation closed-form vs spinor oracle: {max_dev!r}\n"
    )
    if max_dev < VERIFY_TOL:
        sys.stdout.write(f"PASS (tolerance {VERIFY_TOL!r})\n")
        return 0
    sys.stdout.write(f"FAIL (tolerance {VERIFY_TOL!r})\n")
    return 5


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled: byte-for-byte reproducible output)
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 860, 560
_ML, _MR, _MT, _MB = 90, 24, 40, 70


def _nice_ticks(lo, hi, target=6):
    span = hi - lo
    if span <= 0.0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _tick_label(v):
    if v == 0.0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def _escape(text):
    """text as XML character data: xml.sax.saxutils.escape, whose import
    pulls in urllib.request and adds about 7 MB to every run's RSS."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(xs, ys, xlabel, ylabel, title, logy=False):
    """Minimal deterministic line plot (no external dependencies).  The
    title and the axis labels are escaped as XML text."""
    pts = [(x, y) for x, y in zip(xs, ys)
           if math.isfinite(x) and math.isfinite(y) and (not logy or y > 0.0)]
    if not pts:
        raise DomainError("nothing to plot (no finite point; log axis: none > 0)")
    pxs = [p[0] for p in pts]
    pys = [math.log10(p[1]) if logy else p[1] for p in pts]
    x_lo, x_hi = min(pxs), max(pxs)
    y_lo, y_hi = min(pys), max(pys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    iw = _SVG_W - _ML - _MR
    ih = _SVG_H - _MT - _MB

    def sx(x):
        return _ML + iw * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return _MT + ih * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">'
    )
    out.append(f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>')
    out.append(
        f'<text x="{_SVG_W // 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="15">{_escape(title)}</text>'
    )
    axis = (f'M {_ML} {_MT} L {_ML} {_MT + ih} L {_ML + iw} {_MT + ih}')
    out.append(f'<path d="{axis}" stroke="black" fill="none" stroke-width="1"/>')

    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        out.append(
            f'<line x1="{px:.2f}" y1="{_MT + ih}" x2="{px:.2f}" '
            f'y2="{_MT + ih + 6}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{_MT + ih + 22}" text-anchor="middle" '
            f'font-family="monospace" font-size="12">{_tick_label(t)}</text>'
        )
    if logy:
        y_ticks = [(d, f"1e{d}")
                   for d in range(math.floor(y_lo), math.ceil(y_hi) + 1)
                   if y_lo <= d <= y_hi]
    else:
        y_ticks = [(t, _tick_label(t)) for t in _nice_ticks(y_lo, y_hi)]
    for t, label in y_ticks:
        py = sy(t)
        out.append(
            f'<line x1="{_ML - 6}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML - 10}" y="{py:.2f}" text-anchor="end" '
            f'dominant-baseline="middle" font-family="monospace" '
            f'font-size="12">{label}</text>'
        )
    out.append(
        f'<text x="{_ML + iw // 2}" y="{_SVG_H - 18}" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{_escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="22" y="{_MT + ih // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="13" '
        f'transform="rotate(-90 22 {_MT + ih // 2})">{_escape(ylabel)}</text>'
    )
    path = " ".join(
        f"{'M' if i == 0 else 'L'} {sx(x):.2f} {sy(y):.2f}"
        for i, (x, y) in enumerate(zip(pxs, pys))
    )
    out.append(
        f'<path d="{path}" stroke="#1f5fa8" fill="none" stroke-width="1.6"/>'
    )
    for x, y in zip(pxs, pys):
        out.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.2" fill="#1f5fa8"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _read_csv_artifact(path):
    kind = None
    header = None
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if line.startswith("# sbxs "):
                        kind = line[len("# sbxs "):].strip()
                    continue
                if header is None:
                    header = line.split(",")
                    continue
                rows.append([float(c) for c in line.split(",")])
    except (OSError, ValueError) as exc:  # unreadable, or a non-numeric row
        raise ConfigError(f"cannot read {path}: {exc}")
    if header is None or not rows:
        raise ConfigError(f"{path}: no data rows found")
    _require(all(len(r) == len(header) for r in rows),
             f"{path}: a data row does not match the columns {header}")
    return kind, header, rows


def cmd_plot(args):
    kind, header, rows = _read_csv_artifact(args.input)
    cols = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    if "dsigma_au" in cols and "n" in cols:
        svg = render_svg(
            cols["n"], cols["dsigma_au"],
            xlabel="photon number n",
            ylabel="dsigma/dOmega [a.u.]",
            title=kind or "envelope",
            logy=True,
        )
    elif "total_au" in cols and "K" in cols:
        svg = render_svg(
            cols["K"], cols["total_au"],
            xlabel="intensity parameter K",
            ylabel="dsigma/dOmega [a.u.]",
            title=kind or "ksweep",
            logy=False,
        )
    else:
        raise ConfigError(f"{args.input}: unrecognized CSV columns {header}")
    _emit(svg, args.output)
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="sbxs",
        description="Multiphoton stimulated-bremsstrahlung cross sections "
                    "in a strong plane wave (Born limit).",
    )
    sub = ap.add_subparsers(dest="command")

    def add_scenario_cmd(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.set_defaults(fn=fn)
        return p

    p = add_scenario_cmd("partial", cmd_partial, "one photon channel")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--n", type=int, required=True, help="photon number")

    p = add_scenario_cmd("envelope", cmd_envelope,
                         "partial cross sections vs photon number")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)

    add_scenario_cmd("total", cmd_value, "summed cross section")
    add_scenario_cmd("elastic", cmd_value, "field-free Mott-Born value")
    add_scenario_cmd("ksweep", cmd_ksweep, "total vs intensity parameter K")

    p = sub.add_parser("gbessel", help="generalized Bessel debug evaluation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.set_defaults(fn=cmd_gbessel)

    p = sub.add_parser("verify", help="closed form vs spinor oracle sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=60)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("plot", help="render a CSV artifact to SVG")
    p.add_argument("--input", required=True, help="CSV produced by envelope/ksweep")
    p.add_argument("--output", default=None, help="SVG path (default stdout)")
    p.set_defaults(fn=cmd_plot)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if not getattr(args, "fn", None):
        ap.print_usage(sys.stderr)
        return 2
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
