"""One benchmark worker process: set up one workload, then measure it.

Modes:
  setup  set up (import, seeded inputs, one untimed warm-up op) and stop;
  run    set up, then run ops in a closed loop for --seconds, untraced;
  trace  set up, run a fixed op list untraced, run it again traced, then
         trace the census (see README.md) for the layers the workload
         does not reach.

Prints one JSON object on stdout. run.py starts this file; it is not meant
to be started by hand.
"""

from time import perf_counter, process_time

T_START = perf_counter()  # worker start, before any import below

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import calibrate, scale  # noqa: E402
from tracing import NullTracer, Tracer, layer_metrics  # noqa: E402
from workloads import CLI_CATALOGUE, WORKLOADS, Cli, CliItem, PaperRepro, import_program  # noqa: E402

# Percentiles op_tail_ref_ms may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_OPS_BEYOND_TAIL = 10
MAX_ERRORS_KEPT = 5
# Op CPU time between two calibrations of a timed run.
CAL_EVERY_S = 0.05


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)


def run_op(wl, item, tracer, tally):
    """Run, time and check one op; return (seconds, points, digest,
    cpu_seconds) or None."""
    tally.attempted += 1
    c0 = op_cpu_seconds(wl.rss_of_children)
    t0 = perf_counter()
    try:
        points, result = tracer.call(f"op.{wl.name}", wl.run, item, tracer)
    except Exception as exc:  # a failed op is counted, the run goes on
        tally.fail(f"{type(exc).__name__}: {exc}")
        return None
    seconds = perf_counter() - t0
    cpu = op_cpu_seconds(wl.rss_of_children) - c0
    with tracer.paused():
        try:
            digest, error = wl.check(item, result)
        except Exception as exc:
            digest, error = None, f"check raised {type(exc).__name__}: {exc}"
    if error:
        tally.fail(error)
    return seconds, points, digest, cpu


def tail(times, cap):
    """(percentile, value): the highest percentile up to ``cap`` with at
    least ten ops beyond it, by nearest rank."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, -(-p * n // 100))  # ceil(p/100 * n)
        if p <= cap and n - rank >= MIN_OPS_BEYOND_TAIL:
            return p, ordered[int(rank) - 1]
    return 50.0, statistics.median(ordered)


def cpu_seconds(children):
    t = os.times()
    own = t.user + t.system
    return own + t.children_user + t.children_system if children else own


def op_cpu_seconds(children):
    """CPU time of this process, plus that of its ended children if
    ``children``; finer-grained than os.times()."""
    cpu = process_time()
    if children:
        r = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu += r.ru_utime + r.ru_stime
    return cpu


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def versions():
    out = {"python": sys.version.split()[0]}
    numpy = sys.modules.get("numpy")
    if numpy is None:
        try:
            import numpy
        except ImportError:
            numpy = None
    out["numpy"] = numpy.__version__ if numpy else None
    return out


def measure(wl, seconds, tally):
    """Closed loop for ``seconds``: one op at a time, untraced.

    Op times are CPU times; calibrate.py runs between ops, and run.py
    scales the times by its median (README.md, "Why scaled CPU time").
    Wall times are kept for the metadata. The loop ends on a whole round
    of inputs, so every run sees the same mix of them.
    """
    null = NullTracer()
    walls, cpus, points = [], [], 0
    cals = [calibrate()]
    cpu0, wall0 = cpu_seconds(wl.rss_of_children), perf_counter()
    deadline = wall0 + seconds
    i = 0
    since_cal = 0.0
    while perf_counter() < deadline or i % wl.round_ops:
        item = wl.items[i % len(wl.items)]
        i += 1
        done = run_op(wl, item, null, tally)
        if done:
            walls.append(done[0])
            points += done[1]
            cpus.append(done[3])
            since_cal += done[3]
        if since_cal >= CAL_EVERY_S:
            cals.append(calibrate())
            since_cal = 0.0
    wall = perf_counter() - wall0
    cpu = cpu_seconds(wl.rss_of_children) - cpu0
    cals.append(calibrate())
    ops = len(cpus)
    if not cpus:
        walls = cpus = [0.0]
    p, tail_cpu = tail(cpus, wl.tail_cap)
    _, tail_wall = tail(walls, wl.tail_cap)
    return {
        "ops": ops,
        "tail_percentile": p,
        "points": points,
        "calibration_ms": statistics.median(cals) * 1e3,
        "calibration_scale": scale(statistics.median(cals)),
        "calibrations": len(cals),
        "op_cpu_p50_ms": statistics.median(cpus) * 1e3,
        "op_cpu_tail_ms": tail_cpu * 1e3,
        "points_per_cpu_s": points / sum(cpus) if sum(cpus) else 0.0,
        "op_p50_ms": statistics.median(walls) * 1e3,
        "op_tail_ms": tail_wall * 1e3,
        "points_per_s": points / sum(walls) if sum(walls) else 0.0,
        "wall_s": wall,
        "cpu_s": cpu,
    }


def cli_census(root, workdir, tracer, tally, reps=3):
    """Interpreter start, package import, and one invocation of each kind."""
    cli = Cli(root, workdir / "cli-census")
    cli.setup(0)
    for _ in range(reps):
        tracer.call("cli.interpreter", subprocess.run, [sys.executable, "-c", "pass"],
                    env=cli.env, capture_output=True, check=True)
    probe = ("import time; t = time.perf_counter(); import grating_orders.cli; "
             "print(time.perf_counter() - t)")
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", probe], env=cli.env,
                              capture_output=True, check=True, text=True)
        tracer.walls["cli.import"].append(float(proc.stdout))
    for kind, variants in CLI_CATALOGUE.items():
        run_op(cli, CliItem(kind, tuple(variants[0])), tracer, tally)


def census(root, workdir, tally):
    """Trace one paper-repro op and the cli census in a tracer of their own."""
    tracer = Tracer()
    paper = PaperRepro(root, workdir / "paper-census")
    paper.setup(0)
    tracer.install()
    try:
        tracer.op_id = "census"
        run_op(paper, None, tracer, tally)
    finally:
        tracer.uninstall()
    cli_census(root, workdir, tracer, tally)
    return tracer


def trace_run(wl, root, workdir, tally, spans_path):
    """Untraced and traced passes over the same fixed ops, then the census."""
    ops = [wl.items[k % len(wl.items)] for k in range(wl.trace_ops)]
    import_program(root)
    null = NullTracer()
    untraced, digests = 0.0, []
    for item in ops:
        seconds, _, digest, _ = run_op(wl, item, null, tally) or (0.0, 0, None, 0.0)
        untraced += seconds
        digests.append(digest)
    tracer = Tracer()
    tracer.install()
    traced = 0.0
    try:
        for k, item in enumerate(ops):
            tracer.op_id = k
            seconds, _, digest, _ = run_op(wl, item, tracer, tally) or (0.0, 0, None, 0.0)
            traced += seconds
            if digest != digests[k]:
                tally.fail(f"traced op {k} output differs from the untraced op")
    finally:
        tracer.uninstall()
    if spans_path:
        tracer.write_spans(spans_path)
    metrics, from_census = layer_metrics(tracer, census(root, workdir, tally))
    metrics["trace.overhead_ratio"] = (traced / untraced if untraced else 0.0, "ratio")
    return metrics, from_census


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.root, args.workdir)
    tally = Tally()
    wl.setup(args.seed)
    null = NullTracer()
    tally.attempted += 1
    t0 = perf_counter()
    try:
        warm = wl.run(wl.warmup, null)
    except Exception as exc:
        warm = None
        tally.fail(f"warm-up op: {type(exc).__name__}: {exc}")
    setup_wall_s = perf_counter() - T_START
    setup_s = op_cpu_seconds(wl.rss_of_children)  # CPU time since the process started
    warm_s = perf_counter() - t0
    result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "warmup_s": warm_s,
              **versions()}
    if args.mode != "setup":
        if warm is not None:
            _, error = wl.check(wl.warmup, warm[1])
            if error:
                tally.fail(f"warm-up op: {error}")
        if args.mode == "run":
            result.update(measure(wl, args.seconds, tally))
            result["peak_rss_mb"] = peak_rss_mb(wl.rss_of_children)
        else:
            t1 = perf_counter()
            metrics, from_census = trace_run(wl, args.root, args.workdir, tally, args.spans)
            result.update(layers=metrics, from_census=from_census,
                          trace_wall_s=perf_counter() - t1)
        for error in wl.finish_checks():
            tally.fail(error)
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
