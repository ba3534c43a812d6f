#!/usr/bin/env python3
"""Benchmark of the sbxs command line: seeded workloads, end-to-end metrics
and a separately traced run with per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload fig1a-ksweep --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25

Each op is one `sbxs.cli.main([...])` call writing its output to a file;
ops run back to back (a closed loop with one client) for `--seconds`.  The
seed sets every op's input.  Outputs are checked after the timed loop.  The
lines before the last one print every metric by name with its unit; the
last line is one JSON object {correct, attempted, failed, metrics}, with the
end-to-end metrics for `--trace 0` and the per-layer metrics for
`--trace 1`.  Exit status: 0 when every op passed its check, 1 when any
failed, 2 when the sbxs sources are missing.
"""

import argparse
import contextlib
import copy
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# workload -> (sbxs subcommand, base config under bench/workloads or None)
WORKLOADS = {
    "fig1a-ksweep": ("ksweep", "fig1a.json"),
    "strong-circular": ("envelope", "strong-circular.json"),
    "verify-mixed": ("verify", None),
}
VERIFY_SAMPLES = 60
# Deflection jitter of the timed ops, within +-JITTER.  Op k takes the
# k-th point of a sequence symmetric about 0 (0, +1/2, -1/2, +1/4, -1/4,
# +3/4, -3/4, ...), so that every run, however short, has its median op
# near the nominal cost; the seed shifts it by up to +-SHIFT and may
# mirror it.
JITTER = 0.10
SHIFT = 1.0 / 16.0
CLI_RUNS = 5            # fresh `python -m sbxs.cli` runs timed for cli_cpu_s (median)
SETUP_RUNS = 5          # fresh interpreters timed for setup_s (median)
MIN_LOOP_OPS = 6        # timed ops per run at least, however long they take
KSWEEP_COUNTED = 6      # ksweep ops per run whose channels are counted (at most)
CHILD_TIMEOUT = 120.0
# |u| = alpha1 bins of the gbessel scaling probe: (name, low, high).
ALPHA_BINS = (("a_lt_10", 0.0, 10.0), ("a_10_100", 10.0, 100.0),
              ("a_100_1000", 100.0, 1000.0), ("a_ge_1000", 1000.0, math.inf))
# |u| of the isolated probe standing in for a bin that no traced call
# reaches (the bin's geometric middle; the open top bin takes 1000 * 10**0.5).
BIN_PROBE_U = {"a_lt_10": 10.0 ** 0.5, "a_10_100": 10.0 ** 1.5,
               "a_100_1000": 10.0 ** 2.5, "a_ge_1000": 10.0 ** 3.5}
PROBE_REPEATS = 7

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# Inputs


class Inputs:
    """Seeded op inputs of one workload.

    Fresh-process ops (index < CLI_RUNS) use the nominal deflection; timed
    ops use deflection * (1 + j) with j in [-JITTER, JITTER].  Every op
    gets its own azimuth (verify: its own verify seed), so no two ops of a
    run share an input.  Seed 0, op 0 is the nominal scenario.
    """

    def __init__(self, workload, seed):
        self.command, base = WORKLOADS[workload]
        self.base = (json.loads((BENCH / "workloads" / base).read_text())
                     if base else None)
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.shift = float(rng.uniform(-SHIFT, SHIFT)) if seed else 0.0
        self.mirror = -1.0 if seed and rng.random() < 0.5 else 1.0

    def jitter(self, k):
        """Relative deflection jitter of timed op k."""
        point = 0.0
        if k:
            m, scale = (k + 1) // 2, 0.5
            while m:                   # van der Corput radical inverse of m
                point += scale * (m & 1)
                m >>= 1
                scale *= 0.5
            point = point if k % 2 else -point
        return JITTER * ((1.0 - SHIFT) * self.mirror * point + self.shift)

    def config(self, index, jitter_index=None):
        cfg = copy.deepcopy(self.base)
        geo = cfg["geometry"]
        if jitter_index is not None:
            geo["deflection_mrad"] *= 1.0 + self.jitter(jitter_index)
        if self.seed or index:
            rng = np.random.default_rng([self.seed, index])
            geo["azimuth_deg"] = float(rng.uniform(0.0, 360.0))
        return cfg

    def verify_seed(self, index):
        return self.seed * 100003 + index

    def rng(self, index):
        return np.random.default_rng([self.seed, index, 1])


class Op:
    """One CLI call: its argv, input, output file and outcome."""

    def __init__(self, inputs, index, workdir, kind, jitter_index=None):
        self.index = index
        self.kind = kind                      # "cli", "warm" or "loop"
        self.out = workdir / f"op{index}.out"
        self.stdout = workdir / f"op{index}.stdout"
        self.config = None
        self.verify_seed = None
        self.rc = None
        self.wall = None
        self.cpu = None
        self.channels = 0
        self.counted = False               # channels_per_cpu_s uses it
        self.traced = False
        self.reference = False             # compare with the stored output
        warm = kind == "warm"
        if inputs.command == "verify":
            self.verify_seed = inputs.verify_seed(index)
            self.samples = 2 if warm else VERIFY_SAMPLES
            self.stdout = self.out
            self.argv = ["verify", "--samples", str(self.samples),
                         "--seed", str(self.verify_seed)]
            return
        self.config = inputs.config(index, jitter_index)
        cfg_path = workdir / f"op{index}.json"
        cfg_path.write_text(json.dumps(self.config))
        command = ["envelope", "--n-min", "-2", "--n-max", "2"] if warm else [inputs.command]
        self.argv = command + ["--config", str(cfg_path), "--output", str(self.out)]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Running ops


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_fresh(op, env):
    """Run the op as `python -m sbxs.cli ...` in a fresh interpreter;
    records its wall time and the CPU time of the child, all threads."""
    with open(op.stdout, "w", encoding="utf-8") as fh:
        c0 = children_cpu()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "sbxs.cli", *op.argv],
                                  stdout=fh, stderr=subprocess.PIPE, env=env,
                                  cwd=ROOT, timeout=CHILD_TIMEOUT, text=True)
            op.rc = (proc.returncode if proc.returncode == 0
                     else f"{proc.returncode}: {proc.stderr.strip()[-300:]}")
        except subprocess.TimeoutExpired:
            op.rc = "timeout"
        op.wall = time.perf_counter() - t0
        op.cpu = children_cpu() - c0


def run_inprocess(op, main):
    """Run the op in this process; records wall time and the CPU time of
    the whole process (pool threads included)."""
    with open(op.stdout, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            op.rc = main(op.argv)
        except (Exception, SystemExit) as exc:
            op.rc = f"{type(exc).__name__}: {exc}"
        op.cpu = time.process_time() - c0
        op.wall = time.perf_counter() - t0


def setup_argv(inputs, workdir):
    """A fresh interpreter importing sbxs.cli and resolving the workload
    config (verify has no config: import only)."""
    code = ("import sys, sbxs.cli as c\n"
            "if len(sys.argv) > 1: c.resolve_config(c.load_config(sys.argv[1]))\n")
    argv = [sys.executable, "-c", code]
    if inputs.base is not None:
        path = workdir / "setup.json"
        path.write_text(json.dumps(inputs.config(0)))
        argv.append(str(path))
    return argv


def time_fresh(argv, env):
    """Wall time of one fresh interpreter running argv."""
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Tracing


def _gbessel_note(args, result):
    n_min, n_max, u, v = args[:4]
    return (n_max - n_min + 1, abs(u), abs(v))


def _envelope_note(args, result):
    return len(result.entries)


def _sweep_note(args, result):
    return len(result[1])


TRACE_TARGETS = [
    # cli -> scan entry points
    ("sbxs.cli", "envelope", "scan", _envelope_note),
    ("sbxs.cli", "k_sweep", "scan", None),
    ("sbxs.cli", "oracle_deviation_sweep", "scan", _sweep_note),
    # inside scan
    ("sbxs.scan", "envelope", "scan", _envelope_note),
    ("sbxs.scan", "partial", "scan", None),
    ("sbxs.scan", "partial_xs_general", "xsection", None),
    ("sbxs.scan", "xs_oracle", "dirac_oracle", None),
    # inside xsection
    ("sbxs.xsection", "gbessel_row", "gbessel", _gbessel_note),
    ("sbxs.xsection", "open_channel", "kinematics", None),
    ("sbxs.xsection", "dress", "kinematics", None),
    ("sbxs.xsection", "deflection_frame", "kinematics", None),
    ("sbxs.xsection", "alpha_theta", "kinematics", None),
    ("sbxs.xsection", "u_tilde", "potential", None),
    ("sbxs.xsection", "d_functions", "xsection", None),
    # inside dirac_oracle
    ("sbxs.dirac_oracle", "d_functions", "xsection", None),
    ("sbxs.dirac_oracle", "u_tilde", "potential", None),
]
LAYERS = ("cli", "scan", "xsection", "kinematics", "potential", "gbessel",
          "dirac_oracle")


def isolated_row(x, clock):
    """Median `clock` time of PROBE_REPEATS isolated gbessel_row(-2, 2, x', 0, 0)
    calls, x' = x + i * 1e-9: distinct arguments, so a cache across calls
    cannot answer."""
    from sbxs.xsection import gbessel_row

    times = []
    for i in range(PROBE_REPEATS):
        t0 = clock()
        gbessel_row(-2, 2, x + i * 1.0e-9, 0.0, 0.0)
        times.append(clock() - t0)
    return statistics.median(times)


def layer_metrics(tracer, ops):
    """(per-layer metrics, alpha1 bins that no traced call reached)."""
    traced = [op for op in ops if op.kind == "loop" and op.traced]
    plain = [op for op in ops if op.kind == "loop" and not op.traced]
    n_ops = len(traced)
    ids = {op.index for op in traced}
    spans = [s for s in tracer.spans if s[0] in ids]
    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    by_name = {}
    bins = {name: [0.0, 0] for name, _, _ in ALPHA_BINS}
    orders = u_sum = span_sum = 0.0
    kept = closed = 0
    threads = {}
    for op, _, _, layer, name, thread, _, _, cpu, exc, note in spans:
        calls[layer] += 1
        self_s[layer] += cpu
        by_name[name] = by_name.get(name, 0) + 1
        if layer == "gbessel":
            count, u, v = note
            orders += count
            u_sum += u
            span_sum += u + v + 1.0
            for bname, lo, hi in ALPHA_BINS:
                if lo <= u < hi:
                    bins[bname][0] += cpu
                    bins[bname][1] += 1
        elif name == "partial_xs_general":
            threads.setdefault(op, set()).add(thread)
            closed += exc == "ChannelClosedError"
        elif name in ("envelope", "oracle_deviation_sweep") and note is not None:
            kept += note
    op_s = sum(op.cpu for op in traced) / n_ops
    m = {}
    probed = [bname for bname, _, _ in ALPHA_BINS if not bins[bname][1]]

    def put(name, value, unit):
        m[name] = (value, unit)

    evaluated = by_name.get("partial_xs_general", 0)
    opened = by_name.get("open_channel", 0)
    put("gbessel.calls", calls["gbessel"] / n_ops, "count")
    put("gbessel.self_s", self_s["gbessel"] / n_ops, "s")
    put("gbessel.orders_returned", orders / n_ops, "count")
    put("gbessel.u_sum", u_sum / n_ops, "count")
    put("gbessel.useful_ratio", orders / span_sum if span_sum else 0.0, "ratio")
    for bname, _, _ in ALPHA_BINS:
        # thread CPU s per call; a bin that no traced call reaches holds
        # the isolated probe at BIN_PROBE_U instead of reading 0
        total, count = bins[bname]
        put(f"gbessel.self_s_per_call.{bname}",
            total / count if count else
            isolated_row(BIN_PROBE_U[bname], time.thread_time), "s")
    put("gbessel.row1000_s", isolated_row(1000.0, time.perf_counter), "s")
    put("kinematics.calls", calls["kinematics"] / n_ops, "count")
    put("kinematics.self_s", self_s["kinematics"] / n_ops, "s")
    put("kinematics.dress_per_channel", by_name.get("dress", 0) / max(opened, 1), "ratio")
    put("kinematics.frame_per_channel",
        by_name.get("deflection_frame", 0) / max(opened, 1), "ratio")
    for layer in ("xsection", "potential", "dirac_oracle"):
        put(f"{layer}.calls", calls[layer] / n_ops, "count")
        put(f"{layer}.self_s", self_s[layer] / n_ops, "s")
    put("scan.channels_evaluated", evaluated / n_ops, "count")
    put("scan.channels_closed", closed / n_ops, "count")
    put("scan.channels_kept", kept / n_ops, "count")
    put("scan.kept_ratio", kept / max(evaluated, 1), "ratio")
    put("scan.self_s", self_s["scan"] / n_ops, "s")
    put("scan.workers", sum(len(t) for t in threads.values()) / n_ops, "count")
    put("cli.self_s", self_s["cli"] / n_ops, "s")
    put("cli.output_bytes", sum(op.out.stat().st_size for op in traced) / n_ops, "B")
    put("other.self_s", op_s - sum(self_s.values()) / n_ops, "s")
    put("trace.op_s", op_s, "s")
    put("trace.overhead_frac",
        statistics.median(op.cpu for op in traced)
        / statistics.median(op.cpu for op in plain) - 1.0, "ratio")
    return m, probed


# ---------------------------------------------------------------------------
# Checks


def check_op(op, workload, inputs):
    """Error strings of one op; empty when the op passed.  Sets op.channels,
    the channel values behind the output; an op whose count is used must
    have some."""
    import checks

    errors = []
    if op.rc != 0:
        errors.append(f"exit status {op.rc!r}")
    try:
        text = op.out.read_text(encoding="utf-8")
    except OSError as exc:
        return errors + [f"no output: {exc}"]
    if op.stdout != op.out and op.stdout.read_text(encoding="utf-8"):
        errors.append("unexpected text on stdout")
    rng = inputs.rng(op.index)
    try:
        if op.argv[0] == "verify":
            found, op.channels = checks.check_verify(text, op.verify_seed, op.samples)
        elif op.argv[0] == "envelope":
            found, op.channels = checks.check_envelope(text, op.config, rng)
        else:
            # the channel count of a sweep needs every total recomputed:
            # done only where the count is used
            found, op.channels = checks.check_ksweep(text, op.config, rng,
                                                     every_k=op.counted)
        errors += found
        if op.counted and not op.channels:
            errors.append("no channel values behind the output")
    except Exception as exc:      # a check that raises is a failed check
        errors.append(f"check raised {type(exc).__name__}: {exc}")
    if op.reference:
        ref = (BENCH / "reference" / f"{workload}.out").read_text(encoding="utf-8")
        errors += checks.compare_reference(text, ref)
    return errors


def check_ops(ops, workload, inputs):
    """Number of ops that failed their check; prints each failure."""
    failed = 0
    for op in ops:
        errors = check_op(op, workload, inputs)
        if errors:
            failed += 1
            print(f"FAIL op {op.index} ({' '.join(op.argv)}): {'; '.join(errors[:5])}")
    return failed


# ---------------------------------------------------------------------------
# One workload


def tail(times):
    """(value, percentile, samples) of the highest percentile with at least
    ten samples beyond it, or None when the run holds too few ops."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def counted_ops(loop, command):
    """Timed ops whose channel values are counted for channels_per_cpu_s:
    all of them, except that counting a ksweep op recomputes every total,
    which costs as much as the op; so at most KSWEEP_COUNTED ksweep ops,
    spread evenly over the run, are counted."""
    if command != "ksweep" or len(loop) <= KSWEEP_COUNTED:
        return loop
    step = (len(loop) - 1) / (KSWEEP_COUNTED - 1)
    return [loop[round(i * step)] for i in range(KSWEEP_COUNTED)]


def run_workload(workload, seed, seconds, trace):
    os.environ.pop("SBX_THREADS", None)   # users leave it unset
    inputs = Inputs(workload, seed)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-s{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run_workload(workload, seed, seconds, trace, inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(workload, seed, seconds, trace, inputs, workdir):
    env = child_env()
    cli = importlib.import_module("sbxs.cli")
    from tracer import Tracer

    setup = setup_argv(inputs, workdir)
    if not trace:
        time_fresh(setup, env)          # untimed: fills the bytecode cache
    warm = Op(inputs, CLI_RUNS, workdir, "warm")
    run_inprocess(warm, cli.main)
    ops = [warm]
    setups = []
    loop = []
    tracer = Tracer(TRACE_TARGETS)
    traced_main = tracer.wrap(cli.main, "cli", "main")
    # Untraced runs interleave the fresh-process samples with the timed ops:
    # round r runs once the timed ops have used r / CLI_RUNS of `seconds`
    # and of MIN_LOOP_OPS, so that a slow spell of the shared host touches
    # every metric alike.
    rounds = 0 if trace else CLI_RUNS
    r = 0
    busy = 0.0
    while busy < seconds or len(loop) < MIN_LOOP_OPS or r < rounds:
        if (r < rounds and busy >= r * seconds / rounds
                and len(loop) >= r * MIN_LOOP_OPS / rounds):
            setups += [time_fresh(setup, env) for _ in range(SETUP_RUNS // rounds)]
            op = Op(inputs, r, workdir, "cli")
            op.reference = seed == 0 and r == 0
            run_fresh(op, env)
            ops.append(op)
            r += 1
            continue
        k = len(loop)
        index = CLI_RUNS + 1 + k
        # traced runs pair ops on one jitter value, alternating which of
        # the pair is traced
        op = Op(inputs, index, workdir, "loop", k // 2 if trace else k)
        op.traced = trace and (k % 2) != ((k // 2) % 2)
        if op.traced:
            tracer.op = index
            tracer.install()
            try:
                run_inprocess(op, traced_main)
            finally:
                tracer.uninstall()
        else:
            run_inprocess(op, cli.main)
        loop.append(op)
        busy += op.wall
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops += loop
    if not trace:
        for op in counted_ops(loop, inputs.command):
            op.counted = True

    times = [op.wall for op in loop]
    cpu = [op.cpu for op in loop]
    failed = check_ops(ops, workload, inputs)
    extra = []
    metrics = {}
    if trace:
        metrics, probed = layer_metrics(tracer, ops)
        extra.append("gbessel bins from the isolated probe (no traced call): "
                     + (", ".join(probed) or "none"))
        tracer.write(WORK / f"trace-{workload}.csv")
    else:
        metrics["setup_s"] = (statistics.median(setups), "s")
        fresh = [op for op in ops if op.kind == "cli"]
        metrics["cli_cpu_s"] = (statistics.median(op.cpu for op in fresh), "s")
        metrics["solve_cpu_s.p50"] = (statistics.median(cpu), "s")
        metrics["channels_per_cpu_s"] = (
            statistics.median(op.channels / op.cpu for op in loop if op.counted), "1/s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        extra.append(f"cli_s = {statistics.median(op.wall for op in fresh):.6g} s (wall)")
        extra.append(f"solve_s.p50 = {statistics.median(times):.6g} s (wall)")
        extra.append("channels_per_s = "
                     f"{statistics.median(op.channels / op.wall for op in loop):.6g} 1/s (wall)")
        t = tail(times)
        extra.append(f"solve_s.tail = {t[0]:.6g} s (wall, p{t[1]:.0f} of {t[2]} ops)"
                     if t else f"solve_s.tail = n/a ({len(times)} ops, needs 11)")

    extra.append(f"fail_frac = {failed / len(ops):.6g} ({failed} of {len(ops)} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{workload}  {name} = {value:.6g} {unit}")
    for line in extra:
        print(f"{workload}  {line}")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------


def run_all(seed, seconds, trace):
    """Run every workload in its own process and print a summary."""
    bad = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False}
        if proc.returncode != 0 or not result["correct"]:
            bad += 1
            print(f"{workload}: FAILED (exit status {proc.returncode})")
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "sbxs" / "cli.py").is_file():
        print(f"sbxs sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
