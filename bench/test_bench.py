"""Tests of the benchmark's own correctness checks and tracer.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on sys.path)
from tracer import Tracer  # noqa: E402


def _nominal_op(workload, tmp_path, text):
    """Seed 0, op 0 of the workload, as if the CLI had written `text`."""
    op = run.Op(run.Inputs(workload, 0), 0, tmp_path, "cli")
    op.reference = True
    op.rc = 0
    op.out.write_text(text)
    op.stdout.write_text(text if op.stdout == op.out else "")
    return op


def _reference(workload):
    return (run.BENCH / "reference" / f"{workload}.out").read_text()


def _failed(workload, tmp_path, text):
    op = _nominal_op(workload, tmp_path, text)
    return run.check_ops([op], workload, run.Inputs(workload, 0))


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_reference_output_passes(workload, tmp_path):
    assert _failed(workload, tmp_path, _reference(workload)) == 0


def _replace_row_value(text, row, column, new):
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[column] = new
    lines[row] = ",".join(fields)
    return "\n".join(lines)


def _scale_column(text, column, factor):
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line and not line.startswith(("#", "n,", "K,")):
            fields = line.split(",")
            fields[column] = repr(float(fields[column]) * factor)
            lines[i] = ",".join(fields)
    return "\n".join(lines)


def _peak_row(text):
    rows = [(float(line.split(",")[1]), i) for i, line in enumerate(text.split("\n"))
            if line and not line.startswith(("#", "n,"))]
    return max(rows)[1]


@pytest.mark.parametrize("corrupt", [
    lambda t: _replace_row_value(t, _peak_row(t), 1, "nan"),
    lambda t: _replace_row_value(t, _peak_row(t), 1, "1e-3"),
    lambda t: t + "# error K=0.5: ConvergenceError: did not converge\n",
    lambda t: t[:-1],
])
def test_corrupted_envelope_counts_as_failure(corrupt, tmp_path):
    text = corrupt(_reference("strong-circular"))
    assert _failed("strong-circular", tmp_path, text) == 1


def test_scaled_envelope_fails_the_oracle_check_without_reference(tmp_path):
    text = _scale_column(_reference("strong-circular"), 1, 1.0 + 1.0e-6)
    op = _nominal_op("strong-circular", tmp_path, text)
    op.reference = False
    errors = run.check_op(op, "strong-circular", run.Inputs("strong-circular", 0))
    assert any("spinor oracle" in e for e in errors)


def test_corrupted_ksweep_counts_as_failure(tmp_path):
    text = _scale_column(_reference("fig1a-ksweep"), 1, 1.0 + 1.0e-6)
    op = _nominal_op("fig1a-ksweep", tmp_path, text)
    op.reference = False
    errors = run.check_op(op, "fig1a-ksweep", run.Inputs("fig1a-ksweep", 0))
    assert any("envelope sum" in e for e in errors)


def test_failing_verify_counts_as_failure(tmp_path):
    text = _reference("verify-mixed").replace("PASS", "FAIL")
    assert _failed("verify-mixed", tmp_path, text) == 1


def test_channel_count_comes_from_the_output(tmp_path):
    envelope = _nominal_op("strong-circular", tmp_path, _reference("strong-circular"))
    assert run.check_op(envelope, "strong-circular", run.Inputs("strong-circular", 0)) == []
    rows = [line for line in _reference("strong-circular").split("\n")
            if line and not line.startswith(("#", "n,"))]
    assert envelope.channels == len(rows)
    verify = _nominal_op("verify-mixed", tmp_path, _reference("verify-mixed"))
    assert run.check_op(verify, "verify-mixed", run.Inputs("verify-mixed", 0)) == []
    assert verify.channels == run.VERIFY_SAMPLES


def test_counted_ksweep_checks_every_total(tmp_path):
    inputs = run.Inputs("fig1a-ksweep", 0)
    op = _nominal_op("fig1a-ksweep", tmp_path, _reference("fig1a-ksweep"))
    op.counted = True
    assert run.check_op(op, "fig1a-ksweep", inputs) == []
    assert op.channels > len(op.config["run"]["k_grid"])
    # a changed total is caught at every K, not only at the one the seed
    # draws for the uncounted check
    for row in (3, 2 + len(op.config["run"]["k_grid"])):
        total = float(_reference("fig1a-ksweep").split("\n")[row].split(",")[1])
        text = _replace_row_value(_reference("fig1a-ksweep"), row, 1,
                                  repr(total * (1.0 + 1.0e-6)))
        op = _nominal_op("fig1a-ksweep", tmp_path, text)
        op.reference = False
        op.counted = True
        errors = run.check_op(op, "fig1a-ksweep", inputs)
        assert any("envelope sum" in e for e in errors)


def test_counted_ksweep_ops_spread_over_the_run():
    loop = list(range(17))
    picked = run.counted_ops(loop, "ksweep")
    assert len(picked) == run.KSWEEP_COUNTED
    assert picked[0] == 0 and picked[-1] == 16
    assert picked == sorted(set(picked))
    assert run.counted_ops(loop[:4], "ksweep") == loop[:4]
    assert run.counted_ops(loop, "verify") == loop


def test_counted_op_without_channels_counts_as_failure(tmp_path):
    op = _nominal_op("strong-circular", tmp_path, "")
    op.counted = True
    errors = run.check_op(op, "strong-circular", run.Inputs("strong-circular", 0))
    assert any("no channel values" in e for e in errors)


def test_nonzero_exit_counts_as_failure(tmp_path):
    op = _nominal_op("verify-mixed", tmp_path, _reference("verify-mixed"))
    op.rc = 5
    assert run.check_ops([op], "verify-mixed", run.Inputs("verify-mixed", 0)) == 1


def _spin(n):
    return sum(i * i for i in range(n))


class _Calls:
    """Functions calling each other through attribute lookups, as sbxs
    modules do through their globals."""

    @staticmethod
    def leaf(n):
        return _spin(n)

    @staticmethod
    def middle(n):
        return _spin(n) + _Calls.leaf(n)

    @staticmethod
    def root(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(_Calls.middle, [n, n])) + [_Calls.middle(n)]


def test_tracer_self_time_excludes_same_thread_children(monkeypatch):
    tracer = Tracer([])
    for name in ("leaf", "middle", "root"):
        wrapped = tracer.wrap(getattr(_Calls, name), name, name)
        monkeypatch.setattr(_Calls, name, staticmethod(wrapped))
    tracer.op = 1
    _Calls.root(200_000)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[4], []).append(span)
    assert len(by_name["root"]) == 1
    assert len(by_name["middle"]) == 3 and len(by_name["leaf"]) == 3
    assert threading.get_ident() in {s[5] for s in by_name["middle"]}
    ids = {s[1]: s for s in tracer.spans}
    for leaf in by_name["leaf"]:
        assert ids[leaf[2]][4] == "middle"          # parent on the same thread
    assert all(s[8] >= 0.0 for s in tracer.spans)
    # each middle does the same work as its leaf, so its self time is close
    # to the leaf's, not to the sum of both
    leaf_cpu = sorted(s[8] for s in by_name["leaf"])
    middle_cpu = sorted(s[8] for s in by_name["middle"])
    assert middle_cpu[1] < 1.6 * leaf_cpu[1]
