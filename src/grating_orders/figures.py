"""Figure datasets: building, serialization and parsing.

Each dataset is a rectangular numeric table plus a metadata header. CSV output
carries the metadata in '#'-prefixed lines before a plain column-name row;
JSON mirrors the same fields. Floats are written with ``repr`` so values
round-trip losslessly. Writes are atomic (temp file + rename) and the bytes
are a pure function of the dataset, so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from itertools import count
from pathlib import Path

from . import __version__
from .diffraction import (
    DEFAULT_SLIT_COUNT,
    GratingSpec,
    grating_intensity,
    order_alpha,
    sinc_sq,
    sinc_sq_at_order,
)
from .orders import (
    EDGE_OFFSET,
    MAX_POINTS,
    CurveKind,
    OrderTable,
    _tie,
    curve,
    order_table,
)

__all__ = [
    "FigureDataset",
    "FIGURE_IDS",
    "emit",
    "load_dataset",
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
    "fig6": (CurveKind.RESULTANT_PROBABILITY, "p_r"),
    "fig7": (CurveKind.OCCUPATION, "omega"),
    "fig9": (CurveKind.ZERO_ORDER_ENERGY, "e_r0"),
}
FIGURE_IDS = tuple(_FIGURES)

WAVELENGTH_NM = 633.0  # HeNe line used for all j-equivalent conversions
_TEMP_NUMBERS = count()  # numbers each write's temp file, so no two writes share one


class FigureDataset(namedtuple("FigureDataset", "figure_id params columns rows version")):
    """Rectangular numeric rows with named columns and a metadata header."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, figure_id, params, columns, rows, version=__version__):
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
        return super().__new__(cls, figure_id, params, tuple(columns), rows, version)


# Rows encoded per piece, so no list of every row is held at once.
_BLOCK = 4096


def _encode(figure_id, version, params, columns, blocks, fmt):
    """The CSV or JSON text of a dataset: the header, then one piece per block of rows.

    ``blocks`` yields non-empty flat lists of floats, row after row, and each is
    formatted by one ``%`` of a repeated row template; ``%r`` writes a float as
    ``repr`` does. JSON matches ``json.dumps(indent=1)``.
    """
    fields = ["%r"] * len(columns)
    if fmt == "csv":
        head = [f"# figure: {figure_id}", f"# version: {version}"]
        head += [f"# {key}: {params[key]}" for key in sorted(params)]
        yield "\n".join([*head, ",".join(columns)]) + "\n"
        row = ",".join(fields) + "\n"
        for block in blocks:
            yield (row * (len(block) // len(fields))) % tuple(block)
    elif fmt == "json":
        import json
        payload = {"figure": figure_id, "version": version,
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
    return "".join(_encode(dataset.figure_id, dataset.version, dataset.params,
                           dataset.columns, blocks, fmt)).encode("ascii")


def load_dataset(data: bytes, fmt: str = "csv") -> FigureDataset:
    """Parse bytes produced by :func:`emit` back into a dataset."""
    if fmt == "csv":
        lines = data.decode("ascii").splitlines()
        figure_id = ""
        version = __version__
        params: dict = {}
        idx = 0
        for idx, line in enumerate(lines):
            if not line.startswith("#"):
                break
            key, _, value = line[1:].partition(":")
            key, value = key.strip(), value.strip()
            if key == "figure":
                figure_id = value
            elif key == "version":
                version = value
            else:
                try:
                    params[key] = float(value)
                except ValueError:
                    params[key] = value
        columns = tuple(lines[idx].split(","))
        return FigureDataset(
            figure_id=figure_id,
            params=params,
            columns=columns,
            rows=[[float(v) for v in line.split(",")] for line in lines[idx + 1 :] if line],
            version=version,
        )
    if fmt == "json":
        import json
        payload = json.loads(data.decode("ascii"))
        return FigureDataset(
            figure_id=payload["figure"],
            params=payload["params"],
            columns=tuple(payload["columns"]),
            rows=payload["rows"],
            version=payload["version"],
        )
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def _write_atomic(path: Path | str, pieces) -> Path:
    # A temp file beside path, of this process and call, then rename; a failed write
    # leaves path as it was, and "x" keeps a write off any file it did not create.
    path = Path(path)
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


def _signed(column, n: int) -> np.ndarray:
    """A column indexed by |j| at the orders -n..n, zero past its last order."""
    import numpy as np
    values = np.zeros(n + 1)
    values[: len(column)] = column
    return values[np.abs(np.arange(-n, n + 1))]


def write_order_table(table: OrderTable, j_equiv: float, path: Path | str,
                      fmt: str = "csv") -> Path:
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
        "j_equiv": j_equiv,
    }
    p_rj, e_rj, omega_j = table.p_rj, table.e_rj, table.omega_j
    blocks = ([value for j in range(lo, min(lo + _BLOCK, n + 1))
               for value in (float(j), p_rj[abs(j)], e_rj[abs(j)], omega_j[abs(j)])]
              for lo in range(-n, n + 1, _BLOCK))
    pieces = _encode("table", __version__, params, ("j", "p_rj", "e_rj", "omega_j"), blocks, fmt)
    return _write_atomic(path, (piece.encode("ascii") for piece in pieces))


def _intensity_rows(alpha_lo, alpha_hi, samples, sigma, n_slits, include_single=False):
    import numpy as np
    if not 2 <= samples <= MAX_POINTS:
        raise ValueError(f"samples must lie in [2, {MAX_POINTS:.3g}], got {samples!r}")
    # The width too must be finite, or linspace's step overflows.
    if not (math.isfinite(alpha_hi - alpha_lo) and alpha_lo < alpha_hi):
        raise ValueError(f"alpha range must be finite with alpha_min < alpha_max, "
                         f"got ({alpha_lo!r}, {alpha_hi!r})")
    pts = np.linspace(alpha_lo, alpha_hi, samples)
    # Both kernels are looked up here as module globals, where a tracer can wrap them.
    envelope = sinc_sq(pts)
    columns = [pts, envelope] if include_single else [pts]
    return np.column_stack([*columns, n_slits * envelope, grating_intensity(pts, sigma, n_slits)])


def _curve_dataset(figure_id, kind, sigma, lo, hi, samples, value_column, params):
    """Sample ``curve`` into (alpha_t, j_equiv, value) rows under a header of ``params``.

    Every header also names the one inclusion rule.
    """
    import numpy as np
    c = curve(kind, sigma, (lo, hi), samples)
    j_equiv = c.abscissa / (math.pi * sigma)
    return FigureDataset(
        figure_id=figure_id,
        params={**params, "rule": "inclusive"},
        columns=("alpha_t", "j_equiv", value_column),
        rows=np.column_stack([c.abscissa, j_equiv, c.ordinate]),
    )


def build_figure(figure_id: str, **overrides) -> FigureDataset:
    """Build one of the standard figure datasets.

    fig3/fig5: envelope-plus-orders intensity sections (sigma = 1/8 and 1/2);
    fig4: one-subinterval detail with its Riemann strip value (fig3/4/5 rows
    are one array pass through the kernels, the scalars' floats); fig6/fig7:
    normalized resultant probability and occupation versus truncation;
    fig8: per-order tables for the pair of gratings straddling the third-order
    threshold; fig9: 0th-order energy step function. An override left None
    keeps the default; one the figure does not take in ``_FIGURES`` is refused.
    """
    import numpy as np
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
        # The header also carries the tie tolerance in effect at this sigma.
        kind, column = _CURVES[figure_id]
        return _curve_dataset(figure_id, kind, sig, p["alpha_min"], p["alpha_max"],
                              p["samples"], column, {**p, "eps_tie": _tie(sig)})

    if figure_id == "fig4":
        n, j = p["n_slits"], 12
        aj = order_alpha(j, sig)
        half = math.pi * sig / 2.0
        rows = _intensity_rows(aj - half, aj + half, p["samples"], sig, n, include_single=True)
        return FigureDataset(
            figure_id=figure_id,
            params={
                **p,
                "j": j,
                "subinterval_width": math.pi * sig,
                "peak_base_width": 2.0 * math.pi * sig / n,
                "riemann_strip": math.pi * sig * n * sinc_sq_at_order(j, sig),
            },
            columns=("alpha", "single_slit", "collective_output", "resultant"),
            rows=rows,
        )

    if figure_id == "fig8":
        a3 = order_alpha(3, sig)
        tables = {}
        for label, at in (("minus", a3 - EDGE_OFFSET), ("plus", a3 + EDGE_OFFSET)):
            spec = GratingSpec.from_truncation(at, WAVELENGTH_NM, sig, p["n_slits"])
            tables[label] = order_table(spec)
        # The order count never falls as alpha_t grows, so the plus table
        # spans every order the minus table has; minus reads zero beyond it.
        top = len(tables["plus"].p_rj) - 1
        columns = [np.arange(-top, top + 1)]
        for t in (tables["minus"], tables["plus"]):
            columns += [_signed(t.p_rj, top), _signed(t.e_rj, top)]
        params = {**p, "alpha_offset": EDGE_OFFSET, "lambda_nm": WAVELENGTH_NM}
        for label, t in tables.items():
            params.update(
                {
                    f"w_nm_{label}": t.grating.slit_width_w,
                    f"p_r_{label}": t.p_r,
                    f"e_r_{label}": t.e_r,
                    f"omega_{label}": t.omega,
                }
            )
        return FigureDataset(
            figure_id="fig8",
            params=params,
            columns=("j", "p_rj_minus", "e_rj_minus", "p_rj_plus", "e_rj_plus"),
            rows=np.column_stack(columns),
        )

    # fig3/fig5
    rows = _intensity_rows(p["alpha_min"], p["alpha_max"], p["samples"], sig, p["n_slits"])
    return FigureDataset(
        figure_id=figure_id,
        params=p,
        columns=("alpha", "collective_output", "resultant"),
        rows=rows,
    )
