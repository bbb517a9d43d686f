"""Figure datasets: building, serialization and parsing.

Each dataset is a rectangular numeric table plus a metadata header. CSV output
carries the metadata in '#'-prefixed lines before a plain column-name row;
JSON mirrors the same fields. Floats are written with ``repr`` so values
round-trip losslessly. Writes are atomic (temp file + rename) and the bytes
are a pure function of the dataset, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .diffraction import (
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
    "dataset_from_order_table",
]

FIGURE_IDS = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9")

WAVELENGTH_NM = 633.0  # HeNe line used for all j-equivalent conversions


@dataclass(frozen=True)
class FigureDataset:
    """Rectangular numeric rows with named columns and a metadata header."""

    figure_id: str
    params: dict
    columns: tuple[str, ...]
    rows: np.ndarray
    version: str = __version__

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, len(self.columns))
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise ValueError(
                f"rows must be 2-D with {len(self.columns)} columns, got shape {rows.shape}"
            )
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"column names must be unique, got {self.columns!r}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("row values must be finite")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", tuple(self.columns))


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit(dataset: FigureDataset, fmt: str = "csv") -> bytes:
    """Serialize a dataset to CSV or JSON bytes (deterministic)."""
    if fmt == "csv":
        lines = [f"# figure: {dataset.figure_id}", f"# version: {dataset.version}"]
        for key in sorted(dataset.params):
            lines.append(f"# {key}: {_format_value(dataset.params[key])}")
        lines.append(",".join(dataset.columns))
        lines.extend(",".join(map(repr, row)) for row in dataset.rows.tolist())
        return ("\n".join(lines) + "\n").encode("ascii")
    if fmt == "json":
        payload = {
            "figure": dataset.figure_id,
            "version": dataset.version,
            "params": {k: dataset.params[k] for k in sorted(dataset.params)},
            "columns": list(dataset.columns),
            "rows": dataset.rows.tolist(),
        }
        return (json.dumps(payload, indent=1) + "\n").encode("ascii")
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


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
        payload = json.loads(data.decode("ascii"))
        return FigureDataset(
            figure_id=payload["figure"],
            params=payload["params"],
            columns=tuple(payload["columns"]),
            rows=payload["rows"],
            version=payload["version"],
        )
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def write_dataset(dataset: FigureDataset, path: Path | str, fmt: str = "csv") -> Path:
    """Write a dataset atomically (temp file in place, then rename)."""
    path = Path(path)
    payload = emit(dataset, fmt)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)
    return path


def _signed(column, n: int) -> np.ndarray:
    """A column indexed by |j| at the orders -n..n, zero past its last order."""
    values = np.zeros(n + 1)
    values[: len(column)] = column
    return values[np.abs(np.arange(-n, n + 1))]


def dataset_from_order_table(table: OrderTable, j_equiv: float) -> FigureDataset:
    """The ``table`` dataset: one row per signed order j, with the grating in the header."""
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
    columns = (table.p_rj, table.e_rj, table.omega_j)
    return FigureDataset(
        figure_id="table",
        params=params,
        columns=("j", "p_rj", "e_rj", "omega_j"),
        rows=np.column_stack([np.arange(-n, n + 1), *(_signed(c, n) for c in columns)]),
    )


def _intensity_rows(alpha_lo, alpha_hi, samples, sigma, n_slits, include_single=False):
    if not 2 <= samples <= MAX_POINTS:
        raise ValueError(f"samples must lie in [2, {MAX_POINTS:.3g}], got {samples!r}")
    pts = np.linspace(alpha_lo, alpha_hi, samples)
    rows = []
    for a in pts:
        row = [a]
        if include_single:
            row.append(sinc_sq(a))
        row.append(n_slits * sinc_sq(a))
        row.append(grating_intensity(a, sigma, n_slits))
        rows.append(row)
    return np.asarray(rows, dtype=float)


def _curve_dataset(figure_id, kind, sigma, lo, hi, samples, value_column, params=None):
    """Sample ``curve`` into (alpha_t, j_equiv, value) rows; figure params by default.

    Whichever params are written also name the one inclusion rule; the
    default params carry the tie tolerance in effect at this sigma.
    """
    c = curve(kind, sigma, (lo, hi), samples)
    j_equiv = c.abscissa / (math.pi * sigma)
    rows = np.column_stack([c.abscissa, j_equiv, c.ordinate])
    if params is None:
        params = {
            "sigma": sigma,
            "alpha_min": lo,
            "alpha_max": hi,
            "samples": samples,
            "eps_tie": _tie(sigma),
        }
    return FigureDataset(
        figure_id=figure_id,
        params={**params, "rule": "inclusive"},
        columns=("alpha_t", "j_equiv", value_column),
        rows=rows,
    )


def build_figure(
    figure_id: str,
    *,
    sigma: float | None = None,
    n_slits: int | None = None,
    alpha_min: float | None = None,
    alpha_max: float | None = None,
    samples: int | None = None,
) -> FigureDataset:
    """Build one of the standard figure datasets.

    fig3/fig5: envelope-plus-orders intensity sections (sigma = 1/8 and 1/2);
    fig4: one-subinterval detail with its Riemann strip value; fig6/fig7:
    normalized resultant probability and occupation versus truncation;
    fig8: per-order tables for the pair of gratings straddling the third-order
    threshold; fig9: 0th-order energy step function. Every default can be
    overridden where it makes sense for that figure.
    """
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")

    if figure_id in ("fig3", "fig5"):
        sig = sigma if sigma is not None else (0.125 if figure_id == "fig3" else 0.5)
        n = n_slits if n_slits is not None else 4
        span = 25.0 * math.pi / 16.0 if figure_id == "fig3" else 3.0 * math.pi
        lo = alpha_min if alpha_min is not None else -span
        hi = alpha_max if alpha_max is not None else span
        m = samples if samples is not None else 2001
        rows = _intensity_rows(lo, hi, m, sig, n)
        return FigureDataset(
            figure_id=figure_id,
            params={"sigma": sig, "n_slits": n, "alpha_min": lo, "alpha_max": hi, "samples": m},
            columns=("alpha", "collective_output", "resultant"),
            rows=rows,
        )

    if figure_id == "fig4":
        sig = sigma if sigma is not None else 0.125
        n = n_slits if n_slits is not None else 4
        j = 12
        m = samples if samples is not None else 1001
        aj = order_alpha(j, sig)
        half = math.pi * sig / 2.0
        rows = _intensity_rows(aj - half, aj + half, m, sig, n, include_single=True)
        return FigureDataset(
            figure_id=figure_id,
            params={
                "sigma": sig,
                "n_slits": n,
                "j": j,
                "subinterval_width": math.pi * sig,
                "peak_base_width": 2.0 * math.pi * sig / n,
                "riemann_strip": math.pi * sig * n * sinc_sq_at_order(j, sig),
                "samples": m,
            },
            columns=("alpha", "single_slit", "collective_output", "resultant"),
            rows=rows,
        )

    if figure_id in ("fig6", "fig7"):
        sig = sigma if sigma is not None else 0.5
        lo = alpha_min if alpha_min is not None else math.pi
        hi = alpha_max if alpha_max is not None else 3.0 * math.pi
        m = samples if samples is not None else 2000
        kind = CurveKind.RESULTANT_PROBABILITY if figure_id == "fig6" else CurveKind.OCCUPATION
        col = "p_r" if figure_id == "fig6" else "omega"
        return _curve_dataset(figure_id, kind, sig, lo, hi, m, col)

    if figure_id == "fig8":
        sig = sigma if sigma is not None else 0.5
        n = n_slits if n_slits is not None else 257
        a3 = order_alpha(3, sig)
        tables = {}
        for label, at in (("minus", a3 - EDGE_OFFSET), ("plus", a3 + EDGE_OFFSET)):
            spec = GratingSpec.from_truncation(at, WAVELENGTH_NM, sig, n)
            tables[label] = order_table(spec)
        # The order count never falls as alpha_t grows, so the plus table
        # spans every order the minus table has; minus reads zero beyond it.
        top = len(tables["plus"].p_rj) - 1
        columns = [np.arange(-top, top + 1)]
        for t in (tables["minus"], tables["plus"]):
            columns += [_signed(t.p_rj, top), _signed(t.e_rj, top)]
        params = {
            "sigma": sig, "n_slits": n, "alpha_offset": EDGE_OFFSET, "lambda_nm": WAVELENGTH_NM
        }
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

    # fig9: 0th-order energy step function (unit total output energy)
    sig = sigma if sigma is not None else 0.5
    lo = alpha_min if alpha_min is not None else math.pi / 4.0
    hi = alpha_max if alpha_max is not None else 4.0 * math.pi
    m = samples if samples is not None else 2000
    return _curve_dataset(figure_id, CurveKind.ZERO_ORDER_ENERGY, sig, lo, hi, m, "e_r0")
