"""Tests of the benchmark itself: tracing changes no output byte, its
counts repeat exactly, and cli exit codes are judged correctly.

    python -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import LAYER_METRICS, NullTracer, Tracer, layer_metrics  # noqa: E402
from worker import Tally, run_op, tail  # noqa: E402
from workloads import (  # noqa: E402
    CLI_CATALOGUE, Cli, CliItem, DenseSweep, PaperRepro, PointQueries, check_cli, sha256,
)

EXACT_COUNTS = (
    "orders.orders_summed",
    "quadrature.si.calls",
    "quadrature.si.series_calls",
    "quadrature.si.cf_calls",
    "orders.curve.points",
    "orders.curve.threshold_points",
    "figures.emit.bytes",
    "coupling.samples",
)


def workloads(tmp_path, seed=7):
    """Set-up workloads, each with a short list of ops."""
    out = []
    for cls, n in ((PaperRepro, 1), (DenseSweep, 3), (PointQueries, 40)):
        wl = cls(ROOT, tmp_path / cls.name)
        wl.setup(seed)
        out.append((wl, wl.items[:n]))
    return out


def run_all(ops, tracer):
    tally = Tally()
    digests = []
    if isinstance(tracer, Tracer):
        tracer.install()
    try:
        for wl, items in ops:
            for item in items:
                digests.append(run_op(wl, item, tracer, tally)[2])
    finally:
        if isinstance(tracer, Tracer):
            tracer.uninstall()
    for wl, _ in ops:
        for error in wl.finish_checks():
            tally.fail(error)
    assert tally.failed == 0, tally.errors
    return digests


def test_traced_run_writes_the_same_bytes(tmp_path):
    ops = workloads(tmp_path)
    untraced = run_all(ops, NullTracer())
    tracer = Tracer()
    traced = run_all(ops, tracer)
    assert traced == untraced
    assert tracer.stats["diffraction.sinc_sq_at_order"][0] > 0
    assert tracer.stats["figures.write_dataset"][0] == 8


def test_counts_repeat_exactly(tmp_path):
    ops = workloads(tmp_path)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        run_all(ops, tracer)
        metrics, _ = layer_metrics(tracer, tracer)
        counts.append({name: metrics[name][0] for name in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert all(value > 0 for value in counts[0].values())


def test_si_counted_once_per_call(tmp_path):
    from grating_orders import quadrature

    tracer = Tracer()
    tracer.install()
    try:
        quadrature.si(-20.0)
        quadrature.si(3.0)
    finally:
        tracer.uninstall()
    assert tracer.stats["quadrature.si"][0] == 2
    assert tracer.counts["quadrature.si.cf_calls"] == 1
    assert tracer.counts["quadrature.si.series_calls"] == 1


def fake_proc(rc, stdout=b""):
    return subprocess.CompletedProcess(args=[], returncode=rc, stdout=stdout, stderr=b"")


def test_cli_exit_codes_are_judged():
    valid = CliItem("omega", ("omega", "--j-equiv", "2.5"))
    rejected = CliItem("rejected", ("omega", "--w", "500"))
    reference = {valid.key: {"stdout": sha256(b"ok\n"), "file": None},
                 rejected.key: {"stdout": sha256(b""), "file": None}}
    assert check_cli(valid, fake_proc(0, b"ok\n"), None, reference)[1] is None
    assert check_cli(rejected, fake_proc(2), None, reference)[1] is None
    assert check_cli(valid, fake_proc(2), None, reference)[1] is not None
    assert check_cli(rejected, fake_proc(0), None, reference)[1] is not None
    assert check_cli(valid, fake_proc(0, b"other\n"), None, reference)[1] is not None


def test_cli_exit_codes_are_judged_on_real_invocations(tmp_path):
    cli = Cli(ROOT, tmp_path)
    cli.setup(0)
    tally = Tally()
    invalid_taken_as_valid = CliItem("omega", tuple(CLI_CATALOGUE["rejected"][0]))
    valid_taken_as_invalid = CliItem("rejected", tuple(CLI_CATALOGUE["omega"][0]))
    for item in (invalid_taken_as_valid, valid_taken_as_invalid):
        run_op(cli, item, NullTracer(), tally)
    assert (tally.attempted, tally.failed) == (2, 2)
    for kind in CLI_CATALOGUE:
        run_op(cli, CliItem(kind, tuple(CLI_CATALOGUE[kind][0])), NullTracer(), tally)
    assert (tally.attempted, tally.failed) == (8, 2), tally.errors


def test_tail_keeps_ten_ops_beyond():
    times = [float(i) for i in range(1, 1001)]
    assert tail(times, 99.0) == (99.0, 990.0)
    assert tail(times, 99.9) == (99.0, 990.0)
    assert tail(times[:40], 95.0) == (75.0, 30.0)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "point-queries", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert set(result["metrics"]) == set(LAYER_METRICS) | {"trace.overhead_ratio"}
