"""Command-line interface: figure data, order tables, occupation queries, experiments.

Exit codes: 0 success, 2 invalid usage or parameters (with a one-line
diagnostic naming the violated precondition).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import __version__
from .coupling import CouplingScenario, PulsePair, bias_report, omega_ex, synthesize_pulse_train
from .diffraction import (
    DEFAULT_SLIT_COUNT, GratingSpec, equivalent_order, order_alpha, truncation_alpha,
)
from .figures import (
    FIGURE_IDS,
    FigureDataset,
    WAVELENGTH_NM,
    _curve_dataset,
    build_figure,
    dataset_from_order_table,
    write_dataset,
)
from .orders import EDGE_OFFSET, CurveKind, occupation_value, order_table

OUTDIR_ENV = "GRATING_ORDERS_OUTDIR"

# Control-grating band: |omega - 1| below this is reported as ordinary.
ORDINARY_BAND = 0.005

# experiment's model flags by the keyword each fills: a CouplingScenario
# field, else a synthesize_pulse_train keyword. None has a default here; only
# the flags given are passed on, so each default is declared in coupling alone.
_MODEL_FLAGS = {
    "omega_id": ("--omega-id", float), "p_ratio": ("--p-ratio", float),
    "f_g": ("--f-g", float), "f_r": ("--f-r", float), "eta": ("--eta", float),
    "cycles": ("--cycles", int), "noise_sd": ("--noise-sd", float),
    "baseline_bias": ("--baseline", float), "seed": ("--seed", int),
}


def parse_number(text: str) -> float:
    """Parse a number or a multiple of pi, either optionally divided by a number.

    Accepts forms like '2.25', '1/8', 'pi', '3pi', '-pi/4', '0.5pi', '3pi/2';
    a zero divisor is a ValueError.
    """
    num, slash, den = text.lower().partition("/")
    num = num.strip()
    coef = num.removesuffix("pi").strip()
    if coef == num:
        value = float(num)
    else:
        value = math.pi * float(coef + "1" if coef in ("", "+", "-") else coef)
    if slash:
        d = float(den.strip())
        if d == 0:
            raise ValueError(f"zero divisor {den!r}")
        value /= d
    return value


def parse_j_equiv(text: str) -> float:
    """Parse a j-equivalent truncation: a number, or 'j-'/'j+' threshold forms.

    'j-'/'j+' place the truncation one edge offset (1e-6 in alpha) inside or
    outside the j-th order threshold of a sigma = 0.5 ruling; at another duty
    cycle the same j shift is 2e-6 sigma in alpha.
    """
    s = text.strip()
    if s and s[-1] in "+-":
        j = int(s[:-1])
        sign = 1.0 if s[-1] == "+" else -1.0
        alpha = j * math.pi * 0.5 + sign * EDGE_OFFSET
        return alpha / (math.pi * 0.5)
    return float(s)


def parse_length_nm(text: str) -> float:
    """Parse a length as nanometres; values below 1e-2 are taken as metres.

    Slit widths and optical wavelengths are never below 1e-2 nm nor above
    1e-2 m, so the two unit conventions cannot collide.
    """
    v = float(text)
    if v <= 0:
        raise ValueError(f"length must be positive, got {text!r}")
    return v * 1e9 if v < 1e-2 else v


def _write(dataset: FigureDataset, args: argparse.Namespace, name: str) -> None:
    out = args.out or Path(os.environ.get(OUTDIR_ENV, ".")) / f"{name}.{args.fmt}"
    write_dataset(dataset, out, args.fmt)
    print(f"wrote {out} ({dataset.rows.shape[0]} rows)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    p.add_argument("--out", type=Path, default=None,
                   help=f"output path (default <name>.<fmt> under ${OUTDIR_ENV} or cwd)")


def _add_grating_flags(p: argparse.ArgumentParser) -> None:
    truncation = p.add_mutually_exclusive_group(required=True)
    truncation.add_argument("--w", type=parse_length_nm,
                            help="slit width (nm, or metres if < 1e-2)")
    truncation.add_argument("--j-equiv", type=parse_j_equiv,
                            help="j-equivalent truncation (supports 3- / 3+)")
    p.add_argument("--lambda", dest="wavelength", type=parse_length_nm, default=WAVELENGTH_NM,
                   help="wavelength (nm, or metres if < 1e-2; default 633 nm)")
    p.add_argument("--sigma", type=parse_number, default=0.5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grating-orders",
        description="Figure data and occupation arithmetic for grating orders near threshold.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("figure", help="write one of the standard figure datasets")
    p.set_defaults(run=_run_figure)
    p.add_argument("--id", required=True, choices=FIGURE_IDS, dest="figure_id")
    p.add_argument("--sigma", type=parse_number, default=None, help="duty cycle, e.g. 0.5 or 1/8")
    p.add_argument("--n-slits", type=int, default=None)
    p.add_argument("--alpha-min", type=parse_number, default=None, help="e.g. pi or 3pi/2")
    p.add_argument("--alpha-max", type=parse_number, default=None)
    p.add_argument("--samples", type=int, default=None)
    _add_output_flags(p)

    p = sub.add_parser("table", help="per-order probability/energy table for one grating")
    p.set_defaults(run=_run_table)
    _add_grating_flags(p)
    p.add_argument("--n-slits", type=int, default=DEFAULT_SLIT_COUNT)
    _add_output_flags(p)

    p = sub.add_parser("omega", help="occupation value at a truncation point")
    p.set_defaults(run=_run_omega)
    _add_grating_flags(p)

    p = sub.add_parser("experiment", help="bias report and synthetic pulse-train measurement")
    p.set_defaults(run=_run_experiment)
    for dest, (flag, kind) in _MODEL_FLAGS.items():
        p.add_argument(flag, dest=dest, type=kind)
    p.add_argument("--dv-g", type=float, default=None,
                   help="measured pulse height, reference blocked (with --dv-gc)")
    p.add_argument("--dv-gc", type=float, default=None,
                   help="measured pulse height, coupling active")

    p = sub.add_parser("sweep", help="sample a truncation-dependent quantity over a j range")
    p.set_defaults(run=_run_sweep)
    p.add_argument("--quantity", choices=[k.value for k in CurveKind],
                   default=CurveKind.OCCUPATION.value)
    p.add_argument("--j-min", type=float, required=True)
    p.add_argument("--j-max", type=float, required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--sigma", type=parse_number, default=0.5)
    _add_output_flags(p)

    return parser


def _run_figure(args: argparse.Namespace) -> int:
    dataset = build_figure(
        args.figure_id,
        sigma=args.sigma,
        n_slits=args.n_slits,
        alpha_min=args.alpha_min,
        alpha_max=args.alpha_max,
        samples=args.samples,
    )
    _write(dataset, args, args.figure_id)
    return 0


def _run_table(args: argparse.Namespace) -> int:
    if args.w is None:
        at = order_alpha(args.j_equiv, args.sigma)
        spec = GratingSpec.from_truncation(at, args.wavelength, args.sigma, args.n_slits)
    else:
        spec = GratingSpec(args.w, args.sigma, args.wavelength, args.n_slits)
    table = order_table(spec)
    j_equiv = equivalent_order(spec)
    _write(dataset_from_order_table(table, j_equiv), args, "table")
    print(f"grating j-equiv {j_equiv:.4f}: "
          f"P_r = {table.p_r:.6f}, E_r = {table.e_r:.6f}, omega = {table.omega:.6f}")
    return 0


def _classify(omega: float) -> str:
    if abs(omega - 1.0) <= ORDINARY_BAND:
        return "ordinary (control)"
    return "enriched" if omega > 1.0 else "depleted"


def _run_omega(args: argparse.Namespace) -> int:
    if args.w is None:
        at, j_equiv = order_alpha(args.j_equiv, args.sigma), args.j_equiv
    else:
        spec = GratingSpec(args.w, args.sigma, args.wavelength)
        at, j_equiv = truncation_alpha(spec), equivalent_order(spec)
    omega = occupation_value(at, args.sigma)
    print(f"j_equiv: {j_equiv:.6f}")
    print(f"alpha_t: {at!r}")
    print(f"P_r: {1.0 / omega:.6f}")
    print(f"omega: {omega:.6f}")
    print(f"classification: {_classify(omega)}")
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    if (args.dv_g is None) != (args.dv_gc is None):
        raise ValueError("--dv-g and --dv-gc must be given together")
    given = {k: getattr(args, k) for k in _MODEL_FLAGS if getattr(args, k) is not None}
    if args.dv_g is not None:
        if given:
            flag = _MODEL_FLAGS[next(iter(given))][0]
            raise ValueError(f"{flag} is not taken with --dv-g/--dv-gc")
        value = omega_ex(PulsePair(dv_g=args.dv_g, dv_gc=args.dv_gc))
        print(f"omega_ex: {value:.6f}")
        print(f"classification: {_classify(value)}")
        return 0
    fields = CouplingScenario.__dataclass_fields__
    scenario = CouplingScenario(**{k: v for k, v in given.items() if k in fields})
    report = bias_report(scenario)
    train = synthesize_pulse_train(scenario.omega_id, scenario,
                                   **{k: v for k, v in given.items() if k not in fields})
    for line in report.summary_lines():
        print(line)
    print(f"synthetic pulse pair:   dv_g={train.pulses.dv_g:.6f} dv_gc={train.pulses.dv_gc:.6f}")
    print(f"recovered omega:        {train.omega_recovered:.6f}"
          f" (predicted {train.omega_predicted:.6f})")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    if not args.j_min < args.j_max:
        raise ValueError("--j-min must be below --j-max")
    params = {
        "quantity": args.quantity,
        "sigma": args.sigma,
        "j_min": args.j_min,
        "j_max": args.j_max,
        "samples": args.samples,
    }
    lo = order_alpha(args.j_min, args.sigma)
    hi = order_alpha(args.j_max, args.sigma)
    dataset = _curve_dataset(
        "sweep", args.quantity, args.sigma, lo, hi, args.samples, args.quantity, params
    )
    _write(dataset, args, "sweep")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
