"""Correctness checks on the output of one sbxs CLI op.

Every check gives a list of error strings; an empty list is a pass.  The
checks of a whole op also return the number of channel values behind the
output, counted from the output itself (or from its recomputation), so
that the count does not depend on how the program evaluates channels.
The closed form is checked against the Dirac spinor-sum oracle and, since
both share the Miller kernel, D_n is also checked against the quadrature
oracle for the generalized Bessel function.
"""

import json
import math
import re

from sbxs.cli import resolve_config
from sbxs.dirac_oracle import xs_oracle
from sbxs.gbessel import gbessel_quad
from sbxs.scan import envelope
from sbxs.xsection import d_functions

# Acceptance criterion 3: closed form vs spinor oracle, relative.
ORACLE_REL = 1.0e-8
# Channels below this share of the envelope peak are not compared, as in
# scan.oracle_deviation_sweep: double precision does not define them to
# ORACLE_REL, and they carry no weight in any observable.
TAIL_FLOOR = 1.0e-12
# Acceptance criterion 1: series vs quadrature, |s - q| <= REL |q| + ABS.
QUAD_REL = 1.0e-9
QUAD_ABS = 1.0e-15
# Numbers outside CSV data rows (config echo, verify deviation) may move by
# this much against the stored reference.
TEXT_ABS = 1.0e-10

ENVELOPE_COLUMNS = "n,dsigma_au,alpha1,q2_au,term_main,term_recoil,term_wave"
KSWEEP_COLUMNS = "K,total_au"
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _lines(text, errors):
    if not text.endswith("\n"):
        errors.append("output does not end with a newline")
    lines = text.split("\n")[:-1] if text else []
    for line in lines:
        if line.startswith("# error"):
            errors.append(f"error line in output: {line!r}")
    return lines


def parse_csv(text, kind, columns, errors):
    """(config echoed in the header, float rows) of an envelope/ksweep CSV."""
    lines = _lines(text, errors)
    if (len(lines) < 4 or lines[0] != f"# sbxs {kind}"
            or not lines[1].startswith("# config: ") or lines[2] != columns):
        errors.append(f"malformed {kind} header")
        return None, []
    try:
        config = json.loads(lines[1][len("# config: "):])
    except ValueError:
        errors.append("config header is not JSON")
        config = None
    width = columns.count(",") + 1
    rows = []
    for line in lines[3:]:
        if line.startswith("#"):
            continue
        try:
            row = [float(c) for c in line.split(",")]
        except ValueError:
            errors.append(f"unparsable row {line!r}")
            continue
        if len(row) != width or not all(math.isfinite(c) for c in row):
            errors.append(f"bad row {line!r}")
            continue
        rows.append(row)
    if not rows:
        errors.append("no data rows")
    return config, rows


def _check_echo(config, resolved, errors):
    if config != json.loads(json.dumps(resolved)):
        errors.append("config header does not echo the op's input")


def check_channel(scenario, n, value, alpha1, with_quad, errors):
    """One channel against the spinor oracle, and optionally its D_n
    against the quadrature oracle."""
    oracle = xs_oracle(scenario, n)
    if abs(value - oracle) > ORACLE_REL * max(abs(value), abs(oracle)):
        errors.append(f"n={n}: value {value!r} vs spinor oracle {oracle!r}")
    if not with_quad:
        return
    dressed = scenario.dressed()
    channel = scenario.channel(n, dressed)
    if abs(channel.alpha1 - alpha1) > 1.0e-12 * max(1.0, channel.alpha1):
        errors.append(f"n={n}: alpha1 {alpha1!r} vs {channel.alpha1!r}")
    d_n = d_functions(channel, scenario.laser, dressed).d_n
    quad = gbessel_quad(n, channel.alpha1, -channel.alpha2, channel.theta1)
    if abs(d_n - quad) > QUAD_REL * abs(quad) + QUAD_ABS:
        errors.append(f"n={n}: D_n {d_n!r} vs quadrature {quad!r}")


def _draw(rng, values, count):
    """Indices of up to `count` values at or above TAIL_FLOOR * peak."""
    peak = max(values)
    pool = [i for i, v in enumerate(values) if v >= TAIL_FLOOR * peak]
    picks = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    return [pool[int(p)] for p in picks]


def check_envelope(text, op_config, rng, draws=3):
    """(errors, channel values in the output) of an envelope op."""
    errors = []
    resolved, scenario, _ = resolve_config(op_config)
    config, rows = parse_csv(text, "envelope", ENVELOPE_COLUMNS, errors)
    if config is not None:
        _check_echo(config, resolved, errors)
    if not rows:
        return errors, 0
    ns = [r[0] for r in rows]
    if ns != [float(n) for n in range(int(ns[0]), int(ns[0]) + len(ns))]:
        errors.append("photon numbers are not consecutive integers")
        return errors, 0
    if 0.0 not in ns:
        errors.append("elastic channel n = 0 missing")
    values = [r[1] for r in rows]
    if min(values) < -TAIL_FLOOR * max(values):
        errors.append("negative cross section")
        return errors, 0
    for k, i in enumerate(_draw(rng, values, draws)):
        check_channel(scenario, int(ns[i]), rows[i][1], rows[i][2], k == 0,
                      errors)
    return errors, len(rows)


def check_ksweep(text, op_config, rng, draws=2, every_k=False):
    """(errors, channel values summed into the output's totals) of a ksweep
    op.  The total at one K drawn by the seed is recomputed as a fresh
    envelope sum; with every_k, every total is, and the channel count is
    the number of envelope entries behind them (else 0)."""
    errors = []
    resolved, scenario, run = resolve_config(op_config)
    config, rows = parse_csv(text, "ksweep", KSWEEP_COLUMNS, errors)
    if config is not None:
        _check_echo(config, resolved, errors)
    if not rows:
        return errors, 0
    if [r[0] for r in rows] != run["k_grid"]:
        errors.append("K column does not match the k_grid")
        return errors, 0
    if min(r[1] for r in rows) <= 0.0:
        errors.append("nonpositive total")
        return errors, 0
    drawn = int(rng.integers(len(rows)))
    channels = 0
    for i, (K, total) in enumerate(rows):
        if i != drawn and not every_k:
            continue
        at_k = scenario.with_K(K)
        env = envelope(at_k)
        channels += len(env.entries)
        if abs(env.total - total) > ORACLE_REL * max(abs(env.total), abs(total)):
            errors.append(f"K={K!r}: total {total!r} vs envelope sum {env.total!r}")
        if i != drawn:
            continue
        for k, j in enumerate(_draw(rng, [px.value for px in env.entries], draws)):
            px = env.entries[j]
            check_channel(at_k, px.n, px.value, px.alpha1, k == 0, errors)
    return errors, channels if every_k else 0


def check_verify(text, seed, samples):
    """(errors, channels compared in the output) of a verify op."""
    errors = []
    lines = _lines(text, errors)
    head = "max relative deviation closed-form vs spinor oracle: "
    if (len(lines) != 3
            or lines[0] != f"verify: {samples} randomized open channels, seed {seed}"
            or not lines[1].startswith(head)
            or lines[2] != f"PASS (tolerance {ORACLE_REL!r})"):
        errors.append(f"verify output malformed or not PASS: {lines!r}")
        return errors, 0
    try:
        dev = float(lines[1][len(head):])
    except ValueError:
        dev = math.nan
    if not dev < ORACLE_REL:
        errors.append(f"max deviation {lines[1][len(head):]!r} not below {ORACLE_REL}")
    return errors, int(lines[0].split()[1])


def _is_row(line):
    return bool(line) and all(_NUMBER.fullmatch(c) for c in line.split(","))


def compare_reference(text, reference):
    """Whole-output comparison with a stored reference.

    Text must match exactly.  Numbers in CSV data rows match to ORACLE_REL
    relative, or both sit below TAIL_FLOOR of their column's peak; other
    numbers match to ORACLE_REL relative plus TEXT_ABS.
    """
    errors = []
    got, ref = text.split("\n"), reference.split("\n")
    if len(got) != len(ref):
        return [f"{len(got)} lines, reference has {len(ref)}"]
    peaks = {}
    for line in filter(_is_row, ref):
        for j, c in enumerate(line.split(",")):
            peaks[j] = max(peaks.get(j, 0.0), abs(float(c)))
    for lineno, (a, b) in enumerate(zip(got, ref), 1):
        row = _is_row(b)
        a_parts, b_parts = _NUMBER.split(a), _NUMBER.split(b)
        a_nums, b_nums = _NUMBER.findall(a), _NUMBER.findall(b)
        if a_parts != b_parts or len(a_nums) != len(b_nums):
            errors.append(f"line {lineno} differs from the reference")
            continue
        for j, (x, y) in enumerate(zip(map(float, a_nums), map(float, b_nums))):
            big = max(abs(x), abs(y))
            if abs(x - y) <= ORACLE_REL * big:
                continue
            if row and big <= TAIL_FLOOR * peaks.get(j, 0.0):
                continue
            if not row and abs(x - y) <= ORACLE_REL * big + TEXT_ABS:
                continue
            errors.append(f"line {lineno}: {x!r} vs reference {y!r}")
            break
    return errors
