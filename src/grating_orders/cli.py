"""Command-line interface: figure data, order tables, occupation queries, experiments.

Exit codes: 0 success, 2 invalid usage or parameters (with a one-line
diagnostic naming the violated precondition).

The parser's choices and defaults come from modules that load neither numpy,
``dataclasses`` nor ``json``; ``experiment`` imports the coupling model when it
runs, and with ``--dv-g/--dv-gc`` only ``pulses``. ``figure`` writes the
(params, columns, rows) that ``build_figure`` wraps, from the one builder
``figures._figure``, and ``sweep`` takes its rows from the same curve
sampler. ``omega``, ``table``, fig8 and a small curve (``figure`` fig6, fig7
and fig9, and ``sweep``, within the bounds of ``orders._scalar_curve``) are
computed by the public scalar functions and written without importing numpy;
fig3/4/5, a larger curve and the simulating ``experiment`` import it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import __version__
from .diffraction import (
    DEFAULT_SLIT_COUNT, GratingSpec, equivalent_order, order_alpha, truncation_alpha,
)
from .figures import (FIGURE_IDS, WAVELENGTH_NM, _curve_rows, _figure, _write_rows,
                      write_order_table)
from .orders import CURVE_KINDS, EDGE_OFFSET, occupation_value, order_table, propagating_orders

OUTDIR_ENV = "GRATING_ORDERS_OUTDIR"

# Control-grating band: |omega - 1| below this is reported as ordinary.
ORDINARY_BAND = 0.005
# A bias whose underestimate is below this, in occupation units, is reported
# as insignificant.
SIGNIFICANCE_THRESHOLD = 0.001

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
    j = float(s)
    if not math.isfinite(j):
        raise ValueError(f"j-equivalent must be finite, got {text!r}")
    return j


def parse_length_nm(text: str) -> float:
    """Parse a length as nanometres; values below 1e-2 are taken as metres.

    Slit widths and optical wavelengths are never below 1e-2 nm nor above
    1e-2 m, so the two unit conventions cannot collide.
    """
    v = float(text)
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"length must be positive and finite, got {text!r}")
    return v * 1e9 if v < 1e-2 else v


def _flag_type(parse, forms: str):
    """``parse`` as an argparse type whose refusal names the text and the accepted forms."""
    def flag_type(text: str) -> float:
        try:
            return parse(text)
        except (ValueError, OverflowError):  # a whole number too large for a float
            raise argparse.ArgumentTypeError(f"invalid value {text!r}; expected {forms}") from None
    return flag_type


_NUMBER = _flag_type(parse_number, "a number or multiple of pi, or a ratio: 0.5, 1/8, 3pi/2")
# --j-equiv keeps its text beside its value, so a 'j-' form can be told apart.
_J_EQUIV = _flag_type(lambda text: (parse_j_equiv(text), text.strip()),
                      "an order, or a whole order with - or +: 3, 3.94, 3-, 3+")
_LENGTH = _flag_type(parse_length_nm, "a positive finite length in nm, or metres below 1e-2")
_FLOAT = _flag_type(float, "a decimal number: 2, 0.5, 1e-3")
_INT = _flag_type(int, "a whole number: 4, 2001")

# experiment's model flags by the keyword each fills: a CouplingScenario
# field, else a synthesize_pulse_train keyword. None has a default here; only
# the flags given are passed on, so each default is declared in coupling alone.
_MODEL_FLAGS = {
    "omega_id": ("--omega-id", _FLOAT), "p_ratio": ("--p-ratio", _FLOAT),
    "f_g": ("--f-g", _FLOAT), "f_r": ("--f-r", _FLOAT), "eta": ("--eta", _FLOAT),
    "cycles": ("--cycles", _INT), "noise_sd": ("--noise-sd", _FLOAT),
    "baseline_bias": ("--baseline", _FLOAT), "seed": ("--seed", _INT),
}


def _write(args: argparse.Namespace, name: str, rows: int, write, *data) -> None:
    """Write ``data`` with ``write`` to --out, else <name>.<fmt> under $OUTDIR_ENV or cwd."""
    out = args.out or Path(os.environ.get(OUTDIR_ENV, ".")) / f"{name}.{args.fmt}"
    write(*data, out, args.fmt)
    print(f"wrote {out} ({rows} rows)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    p.add_argument("--out", type=Path, default=None,
                   help=f"output path (default <name>.<fmt> under ${OUTDIR_ENV} or cwd)")


def _add_grating_flags(p: argparse.ArgumentParser) -> None:
    truncation = p.add_mutually_exclusive_group(required=True)
    truncation.add_argument("--w", type=_LENGTH,
                            help="slit width (nm, or metres if < 1e-2)")
    truncation.add_argument("--j-equiv", type=_J_EQUIV,
                            help="j-equivalent truncation (supports 3- / 3+)")
    p.add_argument("--lambda", dest="wavelength", type=_LENGTH, default=WAVELENGTH_NM,
                   help="wavelength (nm, or metres if < 1e-2; default 633 nm)")
    p.add_argument("--sigma", type=_NUMBER, default=0.5)


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
    p.add_argument("--sigma", type=_NUMBER, default=None, help="duty cycle, e.g. 0.5 or 1/8")
    p.add_argument("--n-slits", type=_INT, default=None)
    p.add_argument("--alpha-min", type=_NUMBER, default=None, help="e.g. pi or 3pi/2")
    p.add_argument("--alpha-max", type=_NUMBER, default=None)
    p.add_argument("--samples", type=_INT, default=None)
    _add_output_flags(p)

    p = sub.add_parser("table", help="per-order probability/energy table for one grating")
    p.set_defaults(run=_run_table)
    _add_grating_flags(p)
    p.add_argument("--n-slits", type=_INT, default=DEFAULT_SLIT_COUNT)
    _add_output_flags(p)

    p = sub.add_parser("omega", help="occupation value at a truncation point")
    p.set_defaults(run=_run_omega)
    _add_grating_flags(p)

    p = sub.add_parser("experiment", help="bias report and synthetic pulse-train measurement")
    p.set_defaults(run=_run_experiment)
    for dest, (flag, kind) in _MODEL_FLAGS.items():
        p.add_argument(flag, dest=dest, type=kind)
    p.add_argument("--dv-g", type=_FLOAT, default=None,
                   help="measured pulse height, reference blocked (with --dv-gc)")
    p.add_argument("--dv-gc", type=_FLOAT, default=None,
                   help="measured pulse height, coupling active")

    p = sub.add_parser("sweep", help="sample a truncation-dependent quantity over a j range")
    p.set_defaults(run=_run_sweep)
    p.add_argument("--quantity", choices=CURVE_KINDS, default="occupation")
    p.add_argument("--j-min", type=_FLOAT, required=True)
    p.add_argument("--j-max", type=_FLOAT, required=True)
    p.add_argument("--samples", type=_INT, default=500)
    p.add_argument("--sigma", type=_NUMBER, default=0.5)
    _add_output_flags(p)

    return parser


def _run_figure(args: argparse.Namespace) -> int:
    overrides = {k: getattr(args, k) for k in ("sigma", "n_slits", "alpha_min", "alpha_max",
                                               "samples")}
    params, columns, rows = _figure(args.figure_id, overrides)
    _write(args, args.figure_id, len(rows), _write_rows, args.figure_id, params, columns, rows)
    return 0


def _refuse_tied_below(args: argparse.Namespace, at: float) -> None:
    """Refuse a 'j-' --j-equiv whose offset below order j, 2e-6 sigma, the tie still admits.

    Called before any order is summed. An alpha_t that is not positive is
    left to the command's own refusal.
    """
    form = args.j_equiv[1] if args.w is None else ""
    if form.endswith("-") and at > 0 and propagating_orders(at, args.sigma)[-1] >= int(form[:-1]):
        raise ValueError(f"--j-equiv {form} at sigma={args.sigma!r} lies inside the threshold "
                         f"tie, which admits order {form[:-1]}")


def _run_table(args: argparse.Namespace) -> int:
    if args.w is None:
        at = order_alpha(args.j_equiv[0], args.sigma)
        spec = GratingSpec.from_truncation(at, args.wavelength, args.sigma, args.n_slits)
    else:
        spec = GratingSpec(args.w, args.sigma, args.wavelength, args.n_slits)
    _refuse_tied_below(args, truncation_alpha(spec))
    table = order_table(spec)
    j_equiv = equivalent_order(spec)
    _write(args, "table", 2 * len(table.p_rj) - 1, write_order_table, table)
    print(f"grating j-equiv {j_equiv:.4f}: "
          f"P_r = {table.p_r:.6f}, E_r = {table.e_r:.6f}, omega = {table.omega:.6f}")
    return 0


def _classify(omega: float) -> str:
    if abs(omega - 1.0) <= ORDINARY_BAND:
        return "ordinary (control)"
    return "enriched" if omega > 1.0 else "depleted"


def _run_omega(args: argparse.Namespace) -> int:
    if args.w is None:
        at, j_equiv = order_alpha(args.j_equiv[0], args.sigma), args.j_equiv[0]
    else:
        spec = GratingSpec(args.w, args.sigma, args.wavelength)
        at, j_equiv = truncation_alpha(spec), equivalent_order(spec)
    _refuse_tied_below(args, at)
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
        from .pulses import PulsePair, omega_ex
        value = omega_ex(PulsePair(dv_g=args.dv_g, dv_gc=args.dv_gc))
        print(f"omega_ex: {value:.6f}")
        print(f"classification: {_classify(value)}")
        return 0
    from .coupling import (CouplingScenario, bias_report, equilibrated_omega,
                           synthesize_pulse_train)
    fields = CouplingScenario.__dataclass_fields__
    scenario = CouplingScenario(**{k: v for k, v in given.items() if k in fields})
    rows = bias_report(scenario)
    train = synthesize_pulse_train(scenario.omega_id, scenario,
                                   **{k: v for k, v in given.items() if k not in fields})
    print(f"idealized omega:        {scenario.omega_id:.6f}")
    print(f"equilibrated omega:     {equilibrated_omega(scenario):.6f}")
    for name, omega, under in rows:
        flag = "insignificant" if abs(under) < SIGNIFICANCE_THRESHOLD else "SIGNIFICANT"
        label = f"apparent ({name}):"
        print(f"{label:<24}{omega:.6f}  underestimate {100.0 * under:+.4f} pp [{flag}]")
    print(f"synthetic pulse pair:   dv_g={train.pulses.dv_g:.6f} dv_gc={train.pulses.dv_gc:.6f}")
    # the composed row's omega is what the zero-noise recovery gives
    print(f"recovered omega:        {train.omega_recovered:.6f} (predicted {rows[-1][1]:.6f})")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    if not args.j_min < args.j_max:
        raise ValueError("--j-min must be below --j-max")
    params = {k: getattr(args, k) for k in ("quantity", "sigma", "j_min", "j_max", "samples")}
    lo = order_alpha(args.j_min, args.sigma)
    hi = order_alpha(args.j_max, args.sigma)
    rows = _curve_rows(args.quantity, args.sigma, lo, hi, args.samples)
    _write(args, "sweep", len(rows), _write_rows, "sweep", {**params, "rule": "inclusive"},
           ("alpha_t", "j_equiv", args.quantity), rows)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
