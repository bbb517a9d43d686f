"""Figure datasets: building and serialization.

Each dataset is a rectangular numeric table plus a metadata header. CSV output
carries the metadata in '#'-prefixed lines before a plain column-name row;
JSON mirrors the same fields. Floats are written with ``repr`` so values
round-trip losslessly. Writes are atomic (temp file + rename) and the bytes
are a pure function of the dataset, so repeated runs are byte-identical.
``build_figure`` and the CLI take each figure from one builder, ``_figure``.
"""

from __future__ import annotations

import math
import os
import sys
from collections import namedtuple
from itertools import count, islice
from pathlib import Path

from . import __version__
from .diffraction import (
    DEFAULT_SLIT_COUNT,
    GratingSpec,
    equivalent_order,
    grating_intensity,
    order_alpha,
    sinc_sq,
    sinc_sq_at_order,
)
from .orders import (
    MAX_POINTS,
    OrderTable,
    _edge,
    _scalar_curve,
    _tie_at,
    curve,
    order_table,
)

__all__ = [
    "FigureDataset",
    "FIGURE_IDS",
    "emit",
    "write_dataset",
    "build_figure",
    "write_order_table",
]

# Each figure's parameters with their defaults: build_figure's overrides and
# the header fields it writes for them.
_FIGURES = {
    "fig3": {"sigma": 0.125, "n_slits": 4, "alpha_min": -25.0 * math.pi / 16.0,
             "alpha_max": 25.0 * math.pi / 16.0, "samples": 2001},
    "fig4": {"sigma": 0.125, "n_slits": 4, "samples": 1001},
    "fig5": {"sigma": 0.5, "n_slits": 4, "alpha_min": -3.0 * math.pi,
             "alpha_max": 3.0 * math.pi, "samples": 2001},
    "fig6": {"sigma": 0.5, "alpha_min": math.pi, "alpha_max": 3.0 * math.pi, "samples": 2000},
    "fig7": {"sigma": 0.5, "alpha_min": math.pi, "alpha_max": 3.0 * math.pi, "samples": 2000},
    "fig8": {"sigma": 0.5, "n_slits": DEFAULT_SLIT_COUNT},
    "fig9": {"sigma": 0.5, "alpha_min": math.pi / 4.0, "alpha_max": 4.0 * math.pi,
             "samples": 2000},
}
# The curve figures: the quantity sampled and its value column.
_CURVES = {
    "fig6": ("resultant_probability", "p_r"),
    "fig7": ("occupation", "omega"),
    "fig9": ("zero_order_energy", "e_r0"),
}
FIGURE_IDS = tuple(_FIGURES)

WAVELENGTH_NM = 633.0  # HeNe line used for all j-equivalent conversions
_TEMP_NUMBERS = count()  # numbers each write's temp file, so no two writes share one


class FigureDataset(namedtuple("FigureDataset", "figure_id params columns rows")):
    """Rectangular numeric rows with named columns and a metadata header."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, figure_id, params, columns, rows):
        import numpy as np
        try:
            rows = np.asarray(rows, dtype=float)
        except ValueError:
            shapes = sorted({np.shape(row) for row in rows})
            if len(shapes) < 2:
                raise
            raise ValueError(f"rows must be 2-D with {len(columns)} columns, "
                             f"got ragged rows of shapes {shapes}") from None
        if rows.size == 0:
            rows = rows.reshape(0, len(columns))
        if rows.ndim != 2 or rows.shape[1] != len(columns):
            raise ValueError(
                f"rows must be 2-D with {len(columns)} columns, got shape {rows.shape}"
            )
        if len(set(columns)) != len(columns):
            raise ValueError(f"column names must be unique, got {columns!r}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("row values must be finite")
        return super().__new__(cls, figure_id, params, tuple(columns), rows)


# Rows encoded per piece, so no list of every row is held at once.
_BLOCK = 4096


def _encode(figure_id, params, columns, blocks, fmt):
    """The CSV or JSON text of a dataset: the header, then one piece per block of rows.

    ``blocks`` yields non-empty flat lists of floats, row after row, and each is
    formatted by one ``%`` of a repeated row template; ``%r`` writes a float as
    ``repr`` does. JSON matches ``json.dumps(indent=1)``.
    """
    fields = ["%r"] * len(columns)
    if fmt == "csv":
        head = [f"# figure: {figure_id}", f"# version: {__version__}"]
        head += [f"# {key}: {params[key]}" for key in sorted(params)]
        yield "\n".join([*head, ",".join(columns)]) + "\n"
        row = ",".join(fields) + "\n"
        for block in blocks:
            yield (row * (len(block) // len(fields))) % tuple(block)
    elif fmt == "json":
        import json
        payload = {"figure": figure_id, "version": __version__,
                   "params": {k: params[k] for k in sorted(params)},
                   "columns": list(columns), "rows": []}
        yield json.dumps(payload, indent=1).removesuffix("[]\n}")
        row = "\n  [\n   " + ",\n   ".join(fields) + "\n  ]"
        sep = "["
        for block in blocks:
            yield sep + ",".join([row] * (len(block) // len(fields))) % tuple(block)
            sep = ","
        yield "[]\n}\n" if sep == "[" else "\n ]\n}\n"
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def emit(dataset: FigureDataset, fmt: str = "csv") -> bytes:
    """Serialize a dataset to CSV or JSON bytes (deterministic)."""
    rows = dataset.rows
    blocks = (rows[i:i + _BLOCK].ravel().tolist() for i in range(0, len(rows), _BLOCK))
    return "".join(_encode(dataset.figure_id, dataset.params, dataset.columns, blocks,
                           fmt)).encode("ascii")


def _write_atomic(path: Path | str, pieces) -> Path:
    # A temp file beside path, of this process and call, then rename; a failed write
    # leaves path as it was, and "x" keeps a write off any file it did not create.
    # The rename would replace a FIFO or a device node, so a path that exists and is
    # not a regular file, or a link to one, is refused before the temp file is made.
    path = Path(path)
    if path.exists() and not path.is_file():
        raise ValueError(f"{path} exists and is not a regular file; it is not replaced")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_TEMP_NUMBERS)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def write_dataset(dataset: FigureDataset, path: Path | str, fmt: str = "csv") -> Path:
    """Write a dataset atomically (temp file in place, then rename)."""
    return _write_atomic(path, [emit(dataset, fmt)])


def _write_rows(figure_id, params, columns, rows, path: Path | str, fmt: str = "csv") -> Path:
    """Write a dataset's rows atomically: a float64 array as a ``FigureDataset``,
    with its checks, by ``write_dataset``; any other iterable of rows of floats
    streamed through ``_encode`` in blocks of _BLOCK rows, without numpy. Both
    write the same bytes."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(rows, np.ndarray):
        return write_dataset(FigureDataset(figure_id, params, columns, rows), path, fmt)
    rows = iter(rows)
    blocks = iter(lambda: [value for row in islice(rows, _BLOCK) for value in row], [])
    pieces = _encode(figure_id, params, columns, blocks, fmt)
    return _write_atomic(path, (piece.encode("ascii") for piece in pieces))


def write_order_table(table: OrderTable, path: Path | str, fmt: str = "csv") -> Path:
    """Write the ``table`` dataset atomically: one row per signed order j, as a float.

    The grating and totals go in the header; rows are encoded block by block.
    """
    n = len(table.p_rj) - 1
    params = {
        "w_nm": table.grating.slit_width_w,
        "lambda_nm": table.grating.wavelength_lambda,
        "sigma": table.grating.duty_sigma,
        "n_slits": table.grating.slit_count_N,
        "total_p_r": table.p_r,
        "total_e_r": table.e_r,
        "omega": table.omega,
        "j_equiv": equivalent_order(table.grating),
    }
    p_rj, e_rj, omega_j = table.p_rj, table.e_rj, table.omega_j
    rows = ((float(j), p_rj[abs(j)], e_rj[abs(j)], omega_j[abs(j)]) for j in range(-n, n + 1))
    return _write_rows("table", params, ("j", "p_rj", "e_rj", "omega_j"), rows, path, fmt)


# The most slits N whose peak N**2 converts to a float: 2**1024 - 2**970 and above overflow.
_MAX_SLITS = math.isqrt(2**1024 - 2**970 - 1)


def _intensity_rows(alpha_lo, alpha_hi, samples, sigma, n_slits, include_single=False):
    import numpy as np
    if not 2 <= samples <= MAX_POINTS:
        raise ValueError(f"samples must lie in [2, {MAX_POINTS:.3g}], got {samples!r}")
    if n_slits > _MAX_SLITS:
        raise ValueError(f"n_slits must be at most {_MAX_SLITS:.3g}, where the peak N**2 of "
                         f"the grating factor is still a finite float, got {n_slits!r}")
    # The width too must be finite, or linspace's step overflows.
    if not (math.isfinite(alpha_hi - alpha_lo) and alpha_lo < alpha_hi):
        raise ValueError(f"alpha range must be finite with alpha_min < alpha_max, "
                         f"got ({alpha_lo!r}, {alpha_hi!r})")
    pts = np.linspace(alpha_lo, alpha_hi, samples)
    # Both kernels are looked up here as module globals, where a tracer can wrap them.
    envelope = sinc_sq(pts)
    columns = [pts, envelope] if include_single else [pts]
    return np.column_stack([*columns, n_slits * envelope, grating_intensity(pts, sigma, n_slits)])


def _curve_rows(kind, sigma, lo, hi, samples):
    """A curve's (alpha_t, j_equiv, value) rows: tuples of floats by
    ``orders._scalar_curve`` where it takes the curve, else one float64 array
    from ``curve``, looked up as a module global. The same floats either way."""
    sampled = _scalar_curve(kind, sigma, (lo, hi), samples)
    spacing = math.pi * sigma
    if sampled is not None:
        return [(at, at / spacing, value) for at, value in zip(*sampled)]
    import numpy as np
    c = curve(kind, sigma, (lo, hi), samples)
    return np.column_stack([c.abscissa, c.abscissa / spacing, c.ordinate])


def _figure(figure_id: str, overrides: dict) -> tuple:
    """One standard figure's (params, columns, rows), for ``build_figure`` and the CLI.

    The parameters are the figure's defaults in ``_FIGURES``, with each
    override that is not None; an unknown figure id, or an override the
    figure does not take, is refused. The rows are a float64 array, or, for
    fig8 and a curve that ``orders._scalar_curve`` takes, a list of tuples of
    floats built without numpy: ``FigureDataset`` and ``_write_rows`` take either.
    """
    if figure_id not in _FIGURES:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    p = dict(_FIGURES[figure_id])
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in p:
            raise ValueError(f"{figure_id} takes no {key}; it takes {', '.join(p)}")
        p[key] = value
    sig = p["sigma"]

    if figure_id in _CURVES:
        # The header also carries the tie in effect at the top of the range, its
        # largest, and names the one inclusion rule.
        kind, column = _CURVES[figure_id]
        hi = p["alpha_max"]
        params = {**p, "eps_tie": _tie_at(hi, sig), "rule": "inclusive"}
        return (params, ("alpha_t", "j_equiv", column),
                _curve_rows(kind, sig, p["alpha_min"], hi, p["samples"]))

    if figure_id == "fig8":
        # The order tables of the pair of gratings a curve's edge offset either
        # side of the third-order threshold, one row per signed order, from the
        # tables' array('d') columns. The order count never falls as alpha_t
        # grows, so the plus table spans every order the minus table has; minus
        # reads zero beyond it.
        a3, edge = order_alpha(3, sig), _edge(sig)
        tables = {label: order_table(GratingSpec.from_truncation(at, WAVELENGTH_NM, sig,
                                                                 p["n_slits"]))
                  for label, at in (("minus", a3 - edge), ("plus", a3 + edge))}
        top = len(tables["plus"].p_rj) - 1
        cols = [col for t in tables.values() for col in (t.p_rj, t.e_rj)]
        rows = [(float(j), *(col[abs(j)] if abs(j) < len(col) else 0.0 for col in cols))
                for j in range(-top, top + 1)]
        params = {**p, "alpha_offset": edge, "lambda_nm": WAVELENGTH_NM}
        for label, t in tables.items():
            params.update(
                {
                    f"w_nm_{label}": t.grating.slit_width_w,
                    f"p_r_{label}": t.p_r,
                    f"e_r_{label}": t.e_r,
                    f"omega_{label}": t.omega,
                }
            )
        return params, ("j", "p_rj_minus", "e_rj_minus", "p_rj_plus", "e_rj_plus"), rows

    if figure_id == "fig4":
        # The rows first: their checks refuse an n_slits that overflows the header.
        n, j = p["n_slits"], 12
        aj = order_alpha(j, sig)
        half = math.pi * sig / 2.0
        rows = _intensity_rows(aj - half, aj + half, p["samples"], sig, n, include_single=True)
        params = {
            **p,
            "j": j,
            "subinterval_width": math.pi * sig,
            "peak_base_width": 2.0 * math.pi * sig / n,
            "riemann_strip": math.pi * sig * n * sinc_sq_at_order(j, sig),
        }
        return params, ("alpha", "single_slit", "collective_output", "resultant"), rows

    # fig3/fig5
    rows = _intensity_rows(p["alpha_min"], p["alpha_max"], p["samples"], sig, p["n_slits"])
    return p, ("alpha", "collective_output", "resultant"), rows


def build_figure(figure_id: str, **overrides) -> FigureDataset:
    """Build one of the standard figure datasets: ``_figure``'s (params, columns, rows).

    fig3/fig5: envelope-plus-orders intensity sections (sigma = 1/8 and 1/2);
    fig4: one-subinterval detail with its Riemann strip value (fig3/4/5 rows
    are one array pass through the kernels, the scalars' floats); fig6/fig7:
    normalized resultant probability and occupation versus truncation;
    fig8: per-order tables for the pair of gratings straddling the third-order
    threshold; fig9: 0th-order energy step function. An override left None
    keeps the default; one the figure does not take in ``_FIGURES`` is refused.
    The CLI writes the same (params, columns, rows), so the same bytes.
    """
    return FigureDataset(figure_id, *_figure(figure_id, overrides))
