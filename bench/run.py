#!/usr/bin/env python3
"""Benchmark of the grating-orders package: four seeded closed-loop workloads.

    python3 bench/run.py                                  # all workloads
    python3 bench/run.py --workload dense-sweep --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --workload cli --seed 3 --trace 1   # per-layer metrics
    python3 bench/run.py --capture-references             # re-record digests

Run from anywhere; the package is imported from ``src/`` next to this
directory. Each workload runs in worker processes of its own (worker.py):
set-up is measured SETUP_RUNS times in fresh processes and reported as the
median, then one worker runs ops for --seconds. With --trace 1 a single
worker runs a fixed op list untraced and traced and reports per-layer
metrics instead; its spans go to .bench_out/ at the root of the checkout.
Scratch files live in .bench_tmp/ at the root and are removed on exit.

Per workload, stdout gets a human-readable block, a ``meta:`` line with the
run metadata, and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without --workload
the last line merges every workload, with metric names prefixed by it.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "grating_orders"
WORKER = BENCH_DIR / "worker.py"
SCRATCH = ROOT / ".bench_tmp"
SPANS_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("paper-repro", "dense-sweep", "point-queries", "cli")
SETUP_RUNS = 7
WORKER_GRACE_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ref_ms": "ref_ms",
    "op_tail_ref_ms": "ref_ms",
    "points_per_ref_s": "1/ref_s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def run_worker(workload, seed, mode, workdir, seconds=0.0, spans=None):
    """Run worker.py to completion and return the JSON object it printed."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", repr(seconds), "--root", str(ROOT),
           "--workdir", str(workdir)]
    if spans:
        cmd += ["--spans", str(spans)]
    # A session of its own, so a timeout can stop the worker's children too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} worker ({mode}) timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}:\n"
                         + err.decode(errors="replace")[-2000:])
    return json.loads(out.decode().strip().splitlines()[-1])


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256():
    """Digest of the package sources, to name the program without git."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure_workload(workload, seed, seconds, scratch):
    """End-to-end metrics of one workload, untraced."""
    # Set-up samples before and after the timed run, so that they span
    # the run's time rather than one moment of a shared machine.
    def setup_only(i):
        return run_worker(workload, seed, "setup", scratch / f"setup{i}")["setup_s"]

    before = (SETUP_RUNS - 1) // 2
    setups = [setup_only(i) for i in range(before)]
    r = run_worker(workload, seed, "run", scratch / "run", seconds)
    setups.append(r["setup_s"])
    setups += [setup_only(i) for i in range(before, SETUP_RUNS - 1)]
    # CPU times in reference units: the machine's speed over the run, as
    # the calibration between ops measured it, is divided out.
    scale = r["calibration_scale"]
    metrics = {
        "setup_s": statistics.median(setups) * scale,
        "op_p50_ref_ms": r["op_cpu_p50_ms"] * scale,
        "op_tail_ref_ms": r["op_cpu_tail_ms"] * scale,
        "points_per_ref_s": r["points_per_cpu_s"] / scale,
        "peak_rss_mb": r["peak_rss_mb"],
    }
    meta = {k: r[k] for k in ("ops", "tail_percentile", "points", "wall_s", "cpu_s",
                              "calibration_ms", "calibrations", "op_cpu_p50_ms", "op_cpu_tail_ms",
                              "points_per_cpu_s", "op_p50_ms", "op_tail_ms", "points_per_s",
                              "python", "numpy")}
    meta["setup_cpu_samples_s"] = setups
    meta["setup_wall_s"] = r["setup_wall_s"]
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}, r, meta


def trace_workload(workload, seed, scratch):
    """Per-layer metrics of one workload, from a traced run."""
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{workload}-{seed}.jsonl"
    r = run_worker(workload, seed, "trace", scratch / "trace", spans=spans)
    metrics = {name: tuple(value_unit) for name, value_unit in r["layers"].items()}
    meta = {k: r[k] for k in ("trace_wall_s", "from_census", "python", "numpy")}
    meta["spans_file"] = str(spans.relative_to(ROOT))
    return metrics, r, meta


def report(workload, seed, seconds, trace, metrics, r, meta):
    """Print the human-readable block and meta line for one workload."""
    attempted, failed = r["attempted"], r["failed"]
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'})")
    if not trace:
        print(f"   {meta['ops']} timed ops in {meta['wall_s']:.2f} s wall, "
              f"{meta['cpu_s']:.2f} s cpu; op_tail_ref_ms is p{meta['tail_percentile']:g} "
              f"over {meta['ops']} ops")
        print(f"   calibration: median {meta['calibration_ms']:.4g} ms cpu over "
              f"{meta['calibrations']} samples")
        print(f"   unscaled cpu: op_p50 {meta['op_cpu_p50_ms']:.4g} ms, op_tail "
              f"{meta['op_cpu_tail_ms']:.4g} ms, {meta['points_per_cpu_s']:.6g} points per cpu s")
        print(f"   unscaled wall: op_p50 {meta['op_p50_ms']:.4g} ms, op_tail "
              f"{meta['op_tail_ms']:.4g} ms, {meta['points_per_s']:.6g} points per s")
    for name, (value, unit) in metrics.items():
        print(f"   {name:42s} {value:14.6g} {unit}")
    print(f"   {'fail_ratio':42s} {failed / attempted:14.6g} 1  ({failed} of {attempted} ops)")
    for error in r["errors"]:
        print(f"   FAILED: {error}")
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": git_sha(), "source_sha256": source_sha256(),
            "nproc": os.cpu_count(), "attempted": attempted, "failed": failed, **meta}
    print("meta: " + json.dumps(meta))


def result_line(results):
    """The closing JSON object; names are prefixed when there are several."""
    prefix = len(results) > 1
    metrics = {}
    attempted = failed = 0
    for workload, (m, r) in results.items():
        attempted += r["attempted"]
        failed += r["failed"]
        for name, (value, unit) in m.items():
            metrics[f"{workload}.{name}" if prefix else name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def capture_references(scratch):
    """Record the output digests that later runs are checked against."""
    sys.path.insert(0, str(BENCH_DIR))
    from tracing import NullTracer
    from workloads import CLI_CATALOGUE, REFERENCE_FILE, Cli, CliItem, PaperRepro, sha256

    paper = PaperRepro(ROOT, scratch / "paper")
    paper.setup(0)
    _, text = paper.run(None, NullTracer())
    cli = Cli(ROOT, scratch / "cli")
    cli.setup(0)
    cli_refs = {}
    for kind, variants in CLI_CATALOGUE.items():
        for argv in variants:
            item = CliItem(kind, tuple(argv))
            _, proc = cli.run(item, NullTracer())
            if proc.returncode != item.expected_rc:
                raise BenchError(f"`{item.key}` exited {proc.returncode}, "
                                 f"expected {item.expected_rc}")
            data = cli.take_output(item)
            rows = re.search(rb"\((\d+) rows\)", proc.stdout)
            points = int(rows.group(1)) if rows else (0 if kind == "rejected" else 1)
            cli_refs[item.key] = {"stdout": sha256(proc.stdout),
                                  "file": sha256(data) if data is not None else None,
                                  "points": points}
    reference = {"paper-repro": paper.digests(text), "cli": cli_refs}
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE.relative_to(ROOT)}: paper-repro outputs and "
          f"{len(cli_refs)} cli invocations")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    ap.add_argument("--seconds", type=float, default=10.0, help="timed run length per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run with per-layer metrics")
    ap.add_argument("--capture-references", action="store_true",
                    help="record the reference output digests from this checkout")
    args = ap.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    # numpy's OpenBLAS starts a thread per core at import that spins for a
    # while; the package makes no BLAS calls, so one thread leaves CPU time
    # to the program's own work (README.md, "Why scaled CPU time"). Workers
    # and their cli children inherit this.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # Compile the sources first, so every set-up sample finds bytecode.
    compileall.compile_dir(str(PACKAGE), quiet=1)
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        if args.capture_references:
            capture_references(scratch)
            return 0
        results = {}
        for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
            work = scratch / workload
            if args.trace:
                metrics, r, meta = trace_workload(workload, args.seed, work)
            else:
                metrics, r, meta = measure_workload(workload, args.seed, args.seconds, work)
            report(workload, args.seed, args.seconds, args.trace, metrics, r, meta)
            results[workload] = (metrics, r)
        print(json.dumps(result_line(results)))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
