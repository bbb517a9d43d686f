"""The four benchmark workloads: seeded inputs, one op each, output checks.

Each workload is a closed loop with one client: the next op starts only
after the previous one has finished. ``setup`` imports what the op needs
and builds the seeded inputs; ``run`` is the timed op and returns the
number of output points with the raw result; ``check`` runs untimed and
returns a digest of the op's output bytes and an error message, or None
when the output is correct. Why each workload exists is in README.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

# How many seeded inputs each workload cycles through; more than most runs use.
POOL_SIZE = 4096


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    """Output digests recorded by ``run.py --capture-references``."""
    if not REFERENCE_FILE.exists():
        return {}
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def stratified(rng: random.Random, n: int) -> list[float]:
    """n values in [0, 1), one in each of n equal strata, in random order.

    Inputs are drawn in blocks that cover every stratum once, so any run
    long enough for a few blocks sees nearly the same input distribution
    whatever the seed, and run-to-run spread is the program's and the
    machine's rather than the draw's.
    """
    values = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


class Workload:
    name = ""
    # Highest percentile that op_tail_ref_ms may report (README.md, "op_tail_ref_ms").
    tail_cap = 99.0
    # Ops in each of the untraced and traced passes of a traced run.
    trace_ops = 1
    # A timed run ends after a multiple of this many ops: one block of the
    # seeded inputs, over which their mix is balanced.
    round_ops = 1
    # Whose peak resident memory is reported: the worker or its children.
    rss_of_children = False

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.items: list = []
        # The untimed warm-up op of set-up; the same for every seed, so that
        # set-up time does not depend on which input the seed draws first.
        self.warmup = None

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run(self, item, tracer):
        raise NotImplementedError

    def check(self, item, result) -> tuple[str, str | None]:
        raise NotImplementedError

    def finish_checks(self) -> list[str]:
        """Errors of the checks deferred to the end of the run."""
        return []


def import_program(root: Path):
    """Import the package from the checkout's source tree."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from grating_orders import coupling, diffraction, figures, orders

    return coupling, diffraction, figures, orders


# ---------------------------------------------------------------------------
# paper-repro


WAVELENGTH_NM = 633.0
NOISE_SD = 0.024
PULSE_REPS = 60
REFERENCE_RULINGS = ((833.0, 100), (1000.0, 200), (1250.0, 300))


class PaperRepro(Workload):
    """Every default figure dataset plus the headline summary numbers.

    The inputs are the paper's fixed reference values, so the seed changes
    nothing here: this is the path a reader runs.
    """

    name = "paper-repro"
    tail_cap = 75.0
    trace_ops = 6

    def setup(self, seed):
        self.coupling, self.diffraction, self.figures, self.orders = import_program(self.root)
        import numpy

        self.np = numpy
        self.outdir = self.workdir / "paper-repro"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.items = [None]
        self.reference = load_reference().get("paper-repro", {})

    def _files(self):
        for fid in self.figures.FIGURE_IDS:
            yield fid, "csv"
            if fid == "fig8":
                yield fid, "json"

    def run(self, item, tr):
        figures = self.figures
        rows = 0
        built = {}
        for fid, fmt in self._files():
            if fid not in built:
                built[fid] = tr.call(f"figures.build_figure.{fid}", figures.build_figure, fid)
            dataset = built[fid]
            tr.call("figures.write_dataset", figures.write_dataset, dataset,
                    self.outdir / f"{fid}.{fmt}", fmt)
            rows += dataset.rows.shape[0]
        text, queries = self.summary(tr)
        return rows + queries, text

    def summary(self, tr) -> tuple[str, int]:
        """The text of scripts/reproduce_summary.py and its point count."""
        coupling, diffraction, orders = self.coupling, self.diffraction, self.orders
        base = coupling.CouplingScenario(p_ratio=100.0, f_g=0.4, f_r=0.01)
        points = 0
        lines = [f"wavelength {WAVELENGTH_NM:.0f} nm, sigma = 0.5 rulings", "",
                 "grating      j(w)     omega_th   omega_biased   synthetic recovery"]
        for w, seed0 in REFERENCE_RULINGS:
            spec = diffraction.GratingSpec.ronchi(w, WAVELENGTH_NM, 257)
            j_w = diffraction.equivalent_order(spec)
            at = float(diffraction.truncation_alpha(spec))
            omega_th = tr.call("orders.scalar", orders.occupation_value, at, 0.5)
            scenario = dataclasses.replace(base, omega_id=omega_th)
            omega_biased = coupling.composed_apparent_omega(scenario)
            values = [
                coupling.synthesize_pulse_train(
                    omega_th, scenario, cycles=100, noise_sd=NOISE_SD, seed=seed0 + i
                ).omega_recovered
                for i in range(PULSE_REPS)
            ]
            points += 1 + PULSE_REPS
            mean = float(self.np.mean(values))
            sd = float(self.np.std(values, ddof=1))
            lines.append(f"w = {w:6.0f} nm  {j_w:6.4f}  {omega_th:9.4f}  {omega_biased:12.4f}"
                         f"   {mean:.4f} +- {sd:.4f}")
        lines.append("")
        a3 = float(diffraction.order_alpha(3, 0.5))
        below = tr.call("orders.scalar", orders.occupation_value, a3 - 1e-6, 0.5)
        above = tr.call("orders.scalar", orders.occupation_value, a3 + 1e-6, 0.5)
        points += 2
        lines.append(f"third-order threshold pair: omega = {below:.4f} (just below)"
                     f" / {above:.4f} (just above)")
        lines.append(f"modulation: {100 * (below - 1):+.2f}% / {100 * (above - 1):+.2f}%")
        lines.append("")
        lines.append("0th-order energy staircase (unit output energy):")
        share = tr.call("orders.scalar", orders.zero_order_share, 0.5, 0.5)
        lines.append(f"  0th order alone:               E_r0 = {share:.4f}")
        for j in (1, 3, 5, 7):
            at = float(diffraction.order_alpha(j, 0.5)) + 0.5
            share = tr.call("orders.scalar", orders.zero_order_share, at, 0.5)
            lines.append(f"  after the +-{j} orders appear:   E_r0 = {share:.4f}")
        points += 5
        return "\n".join(lines) + "\n", points

    def digests(self, text: str) -> dict:
        found = {f"{fid}.{fmt}": sha256((self.outdir / f"{fid}.{fmt}").read_bytes())
                 for fid, fmt in self._files()}
        found["summary"] = sha256(text.encode())
        return found

    def check(self, item, text):
        found = self.digests(text)
        digest = sha256(json.dumps(found, sort_keys=True).encode())
        wrong = sorted(k for k in found.keys() | self.reference.keys()
                       if found.get(k) != self.reference.get(k))
        return digest, (f"output differs from reference: {', '.join(wrong)}" if wrong else None)


# ---------------------------------------------------------------------------
# dense-sweep and point-queries: checked against an independent evaluation

# Relative tolerance of the independent evaluation (oracle.py).
ORACLE_RTOL = 1e-9


class OracleChecked(Workload):
    """Checks each op at once for the exact identity, and against oracle.py
    at the end of the run: scipy is imported only after the run's peak
    memory is read, so it does not count as the program's."""

    def setup(self, seed):
        _, _, _, self.orders = import_program(self.root)
        self.pending = []  # per op: [(alpha_t, sigma, normalized, share or None)]

    def identity(self, at: float, sigma: float, omega: float):
        """normalized_resultant_probability at the point, and an error unless
        ``omega`` is exactly its reciprocal."""
        normalized = self.orders.normalized_resultant_probability(at, sigma)
        if omega != 1.0 / normalized:
            return normalized, (f"occupation {omega!r} != 1/normalized_resultant_probability "
                                f"{1.0 / normalized!r} at alpha_t={at!r}, sigma={sigma!r}")
        return normalized, None

    def finish_checks(self):
        if not self.pending:
            return []
        import oracle

        errors = []
        for points in self.pending:
            for at, sigma, normalized, share in points:
                error = oracle_mismatch(oracle, at, sigma, normalized, share)
                if error:
                    errors.append(error)
                    break
        self.pending = []
        return errors


def oracle_mismatch(oracle, at, sigma, normalized, share) -> str | None:
    want = oracle.normalized_resultant_probability(at, sigma)
    if want is not None and abs(normalized / want - 1.0) > ORACLE_RTOL:
        return f"normalized_resultant_probability({at!r}, {sigma!r}) = {normalized!r}, oracle {want!r}"
    want = oracle.zero_order_share(at, sigma)
    if share is not None and want is not None and abs(share / want - 1.0) > ORACLE_RTOL:
        return f"zero_order_share({at!r}, {sigma!r}) = {share!r}, oracle {want!r}"
    return None


@dataclass(frozen=True)
class SweepItem:
    kind: str
    sigma: float
    alpha_max: float
    samples: int
    check_seed: int


class DenseSweep(OracleChecked):
    """One dense ``curve`` per op, in the sigma -> 0 conservation regime."""

    name = "dense-sweep"
    tail_cap = 90.0
    trace_ops = 64
    round_ops = 64  # 2 kinds x 4 sigmas x 8 strata
    SIGMAS = (1 / 16, 1 / 24, 1 / 32, 1 / 48)
    KINDS = ("occupation", "resultant_probability")
    CHECKED_POINTS = 4

    def setup(self, seed):
        super().setup(seed)
        rng = _rng(self.name, seed)
        per_class = 8  # inputs of each (kind, sigma) per block
        items = []
        while len(items) < POOL_SIZE:
            block = []
            for kind in self.KINDS:
                for sigma in self.SIGMAS:
                    # The longest ranges get the fewest samples, so that the
                    # op costs of a block, and with them a run's median and
                    # tail, barely depend on the seed.
                    ranges = sorted(stratified(rng, per_class))
                    samples = sorted(stratified(rng, per_class), reverse=True)
                    block += [SweepItem(kind, sigma, (4.0 + 4.0 * u) * math.pi,
                                        300 + int(301 * v), rng.getrandbits(32))
                              for u, v in zip(ranges, samples)]
            rng.shuffle(block)
            items += block
        self.items = items
        self.warmup = SweepItem("occupation", 1 / 32, 6.0 * math.pi, 450, 0)

    def run(self, item, tr):
        c = self.orders.curve(item.kind, item.sigma, (math.pi, item.alpha_max), item.samples)
        return c.abscissa.size, c

    def check(self, item, c):
        a, o = c.abscissa, c.ordinate
        digest = sha256(a.tobytes() + o.tobytes())
        if a.size < item.samples or a[0] != math.pi or a[-1] != item.alpha_max:
            return digest, f"curve abscissa malformed: {a.size} points on [{a[0]!r}, {a[-1]!r}]"
        orders = self.orders
        rng = random.Random(item.check_seed)
        points = []
        for i in rng.sample(range(a.size), self.CHECKED_POINTS):
            at = float(a[i])
            if item.kind == "occupation":
                omega = float(o[i])
            else:
                omega = orders.occupation_value(at, item.sigma)
                scalar = orders.normalized_resultant_probability(at, item.sigma)
                if o[i] != scalar:
                    return digest, f"curve at alpha_t={at!r} is {o[i]!r}, scalar gives {scalar!r}"
            normalized, error = self.identity(at, item.sigma, omega)
            if error:
                return digest, error
            points.append((at, item.sigma, normalized, None))
        self.pending.append(points)
        return digest, None


@dataclass(frozen=True)
class PointItem:
    sigma: float
    alpha_t: float
    checked: bool


class PointQueries(OracleChecked):
    """One scalar occupation_value plus one zero_order_share per op."""

    name = "point-queries"
    tail_cap = 99.0
    trace_ops = 1536
    round_ops = 256  # 4 sigmas x 2 halves x 32 strata
    SIGMAS = (0.5, 1 / 3, 0.3, 1 / 8)
    ALPHA_MAX = 3e4
    J_MAX = 2e4
    THRESHOLD_NUDGE = 1e-9  # relative
    CHECKED_SHARE = 0.25

    def setup(self, seed):
        super().setup(seed)
        rng = _rng(self.name, seed)
        per_class = 32  # inputs of each (sigma, half) per block
        log_j = (math.log(2), math.log(self.J_MAX))  # j >= 2: a nudge below stays >= pi*sigma
        items = []
        while len(items) < POOL_SIZE:
            block = []
            for sigma in self.SIGMAS:
                h = math.pi * sigma
                log_a = (math.log(h), math.log(self.ALPHA_MAX))
                for u in stratified(rng, per_class):
                    block.append((sigma, math.exp(log_a[0] + u * (log_a[1] - log_a[0]))))
                for u in stratified(rng, per_class):
                    j = int(math.exp(log_j[0] + u * (log_j[1] - log_j[0])))
                    nudge = rng.choice((-1.0, 1.0)) * self.THRESHOLD_NUDGE
                    block.append((sigma, j * h * (1.0 + nudge)))
            rng.shuffle(block)
            items += [PointItem(sigma, at, rng.random() < self.CHECKED_SHARE)
                      for sigma, at in block]
        self.items = items
        self.warmup = PointItem(0.5, 100.0, True)

    def run(self, item, tr):
        orders = self.orders
        omega = tr.call("orders.scalar", orders.occupation_value, item.alpha_t, item.sigma)
        share = tr.call("orders.scalar", orders.zero_order_share, item.alpha_t, item.sigma)
        return 2, (omega, share)

    def check(self, item, result):
        omega, share = result
        digest = sha256(f"{omega!r} {share!r}".encode())
        if not item.checked:
            return digest, None
        normalized, error = self.identity(item.alpha_t, item.sigma, omega)
        if not error:
            self.pending.append([(item.alpha_t, item.sigma, normalized, share)])
        return digest, error


# ---------------------------------------------------------------------------
# cli

# Invocations of ``python -m grating_orders.cli``, by kind. Outputs go to
# relative paths under the worker's scratch directory, so stdout does not
# depend on where the benchmark runs. "rejected" invocations must exit 2.
CLI_CATALOGUE = {
    "omega": [
        ["omega", "--j-equiv", "3-"],
        ["omega", "--j-equiv", "3+"],
        ["omega", "--w", "833"],
        ["omega", "--j-equiv", "6.5", "--sigma", "1/3"],
    ],
    "table": [
        ["table", "--j-equiv", "3-", "--out", "table.csv"],
        ["table", "--j-equiv", "3+", "--out", "table.csv"],
        ["table", "--w", "1250", "--out", "table.csv"],
        ["table", "--w", "2000", "--format", "json", "--out", "table.json"],
    ],
    "experiment": [
        ["experiment"],
        ["experiment", "--omega-id", "1.05", "--noise-sd", "0.024", "--seed", "3"],
        ["experiment", "--eta", "0.8", "--cycles", "200"],
        ["experiment", "--dv-g", "1.0", "--dv-gc", "0.97"],
    ],
    "sweep": [
        ["sweep", "--j-min", "1.5", "--j-max", "12", "--out", "sweep.csv"],
        ["sweep", "--quantity", "resultant_probability", "--j-min", "2", "--j-max", "9",
         "--samples", "400", "--out", "sweep.csv"],
        ["sweep", "--quantity", "zero_order_energy", "--j-min", "0.5", "--j-max", "10",
         "--samples", "300", "--format", "json", "--out", "sweep.json"],
        ["sweep", "--j-min", "1", "--j-max", "20", "--sigma", "1/3", "--out", "sweep.csv"],
    ],
    "figure": [
        ["figure", "--id", "fig6", "--out", "fig6.csv"],
        ["figure", "--id", "fig8", "--out", "fig8.csv"],
        ["figure", "--id", "fig9", "--out", "fig9.csv"],
        ["figure", "--id", "fig8", "--format", "json", "--out", "fig8.json"],
    ],
    "rejected": [
        ["omega", "--w", "500"],  # sub-wavelength slit
        ["omega", "--j-equiv", "3", "--sigma", "1.0"],  # sigma >= 1
        ["sweep", "--j-min", "5", "--j-max", "2", "--out", "sweep.csv"],
        ["figure", "--id", "fig99", "--out", "fig99.csv"],  # refused by argparse
    ],
}
CLI_VARIANTS = 4  # per kind


@dataclass(frozen=True)
class CliItem:
    kind: str
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def expected_rc(self) -> int:
        return 2 if self.kind == "rejected" else 0

    @property
    def out(self) -> str | None:
        return self.argv[self.argv.index("--out") + 1] if "--out" in self.argv else None


def cli_env(root: Path, workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p
    )
    env["GRATING_ORDERS_OUTDIR"] = str(workdir)
    return env


def check_cli(item: CliItem, proc: subprocess.CompletedProcess, file_bytes: bytes | None,
              reference: dict) -> tuple[str, str | None]:
    """Digest of one invocation's outputs and the reason it failed, if it did.

    A rejected invocation must exit 2 and write nothing; a valid one must
    exit 0. stdout and the written file must match the reference digests.
    """
    found = {"rc": proc.returncode, "stdout": sha256(proc.stdout),
             "file": sha256(file_bytes) if file_bytes is not None else None}
    digest = sha256(json.dumps(found, sort_keys=True).encode())
    if proc.returncode != item.expected_rc:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:] if proc.stderr else []
        return digest, f"`{item.key}` exited {proc.returncode}, expected {item.expected_rc} {tail}"
    ref = reference.get(item.key)
    if ref is None:
        return digest, f"`{item.key}` has no reference digest"
    if found["stdout"] != ref["stdout"] or found["file"] != ref["file"]:
        return digest, f"`{item.key}` output differs from reference"
    return digest, None


class Cli(Workload):
    """One ``python -m grating_orders.cli`` subprocess per op, one at a time."""

    name = "cli"
    tail_cap = 80.0
    trace_ops = 24
    round_ops = 12  # two cycles: each kind once light, once heavy
    rss_of_children = True

    def setup(self, seed):
        self.reference = load_reference().get("cli", {})
        self.env = cli_env(self.root, self.workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = _rng(self.name, seed)
        kinds = list(CLI_CATALOGUE)
        # Each cycle runs every kind once, in a seeded order; a kind steps
        # through its variants from a seeded start. Heavy and light variants
        # alternate in the catalogue, so any run of consecutive cycles writes
        # about the same number of rows whatever the seed.
        start = {kind: rng.randrange(CLI_VARIANTS) for kind in kinds}
        items = []
        cycle = 0
        while len(items) < POOL_SIZE:
            rng.shuffle(kinds)
            items += [CliItem(kind, tuple(CLI_CATALOGUE[kind][(start[kind] + cycle) % CLI_VARIANTS]))
                      for kind in kinds]
            cycle += 1
        self.items = items
        self.warmup = CliItem("omega", tuple(CLI_CATALOGUE["omega"][0]))

    def run(self, item, tr):
        proc = tr.call(f"cli.{item.kind}", subprocess.run,
                       [sys.executable, "-m", "grating_orders.cli", *item.argv],
                       cwd=self.workdir, env=self.env, capture_output=True)
        return self.reference.get(item.key, {}).get("points", 0), proc

    def take_output(self, item) -> bytes | None:
        """Read and remove the file the invocation wrote, if any."""
        if item.out is None:
            return None
        path = self.workdir / item.out
        if not path.exists():
            return None
        data = path.read_bytes()
        path.unlink()
        return data

    def check(self, item, proc):
        return check_cli(item, proc, self.take_output(item), self.reference)


WORKLOADS = {w.name: w for w in (PaperRepro, DenseSweep, PointQueries, Cli)}
