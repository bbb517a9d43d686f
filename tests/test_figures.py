import json
import math

import numpy as np
import pytest

from grating_orders.diffraction import GratingSpec, order_alpha, sinc_sq
from grating_orders.figures import (
    _BLOCK,
    FIGURE_IDS,
    FigureDataset,
    _write_atomic,
    build_figure,
    emit,
    load_dataset,
    write_dataset,
    write_order_table,
)
from grating_orders.orders import order_table


@pytest.fixture()
def small_dataset():
    return FigureDataset(
        figure_id="fig6",
        params={"sigma": 0.5, "note": "unit-test"},
        columns=("alpha_t", "p_r"),
        rows=np.array([[math.pi, 0.9876543210123456], [2 * math.pi, 1.0000000000000002]]),
    )


class TestDatasetAndEmit:
    def test_validation(self):
        with pytest.raises(ValueError, match="unique"):
            FigureDataset("fig6", {}, ("a", "a"), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="finite"):
            FigureDataset("fig6", {}, ("a", "b"), np.array([[1.0, float("nan")]]))
        with pytest.raises(ValueError, match="columns"):
            FigureDataset("fig6", {}, ("a", "b"), np.zeros((2, 3)))

    def test_load_checks_width(self):
        # Rows of one width under a header of another fail the dataset's
        # own check, in either format; an empty table loads as (0, ncols).
        message = r"rows must be 2-D with 3 columns, got shape \(2, 2\)"
        with pytest.raises(ValueError, match=message):
            load_dataset(b"# figure: fig6\na,b,c\n1.0,2.0\n3.0,4.0\n", "csv")
        with pytest.raises(ValueError, match=message):
            load_dataset(b'{"figure": "fig6", "version": "0", "params": {}, '
                         b'"columns": ["a", "b", "c"], "rows": [[1.0, 2.0], [3.0, 4.0]]}', "json")
        # Ragged rows get the same check, not numpy's inhomogeneous-shape error.
        ragged = r"rows must be 2-D with 2 columns, got ragged rows"
        with pytest.raises(ValueError, match=ragged):
            load_dataset(b"a,b\n1.0,2.0\n3.0\n", "csv")
        with pytest.raises(ValueError, match=ragged):
            load_dataset(b'{"figure": "fig6", "version": "0", "params": {}, '
                         b'"columns": ["a", "b"], "rows": [[1.0, 2.0], [3.0]]}', "json")
        for fmt in ("csv", "json"):
            empty = FigureDataset("fig6", {}, ("a", "b", "c"), np.zeros((0, 3)))
            assert load_dataset(emit(empty, fmt), fmt).rows.shape == (0, 3)

    def test_csv_layout(self, small_dataset):
        text = emit(small_dataset, "csv").decode()
        lines = text.splitlines()
        assert lines[0] == "# figure: fig6"
        assert lines[1].startswith("# version:")
        assert any(line.startswith("# sigma:") for line in lines)
        header_idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_idx] == "alpha_t,p_r"
        assert len(lines) == header_idx + 1 + 2
        assert text.endswith("\n")

    def test_empty_rows_give_header_only(self):
        ds = FigureDataset("fig6", {}, ("a", "b"), np.zeros((0, 2)))
        lines = emit(ds, "csv").decode().splitlines()
        assert lines[-1] == "a,b"

    def test_single_row(self):
        ds = FigureDataset("fig6", {}, ("a",), np.array([[1.25]]))
        lines = emit(ds, "csv").decode().splitlines()
        assert lines[-1] == "1.25"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip_is_lossless(self, small_dataset, fmt):
        back = load_dataset(emit(small_dataset, fmt), fmt)
        assert back.figure_id == small_dataset.figure_id
        assert back.columns == small_dataset.columns
        assert np.array_equal(back.rows, small_dataset.rows)

    def test_unknown_format_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            emit(small_dataset, "xml")

    def test_write_is_deterministic_and_atomic(self, small_dataset, tmp_path):
        p1 = write_dataset(small_dataset, tmp_path / "a.csv")
        p2 = write_dataset(small_dataset, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_streamed_write_leaves_no_file(self, tmp_path):
        # The table is encoded while its file is open, so the format is
        # refused mid-write; neither the temp file nor the target remains.
        table = order_table(GratingSpec(1000.0, 0.5, 633.0))
        with pytest.raises(ValueError, match="format"):
            write_order_table(table, 3.16, tmp_path / "table.xml", "xml")
        assert list(tmp_path.iterdir()) == []

    def test_overlapping_writes_to_one_path_publish_one_payload(self, tmp_path):
        # A second full write to the same path runs while the first is
        # between its two pieces: each has a temp file of its own, both
        # return, and the path holds one whole payload, never a mix.
        path = tmp_path / "out.csv"
        first, second = [b"A" * 100_000, b"A" * 100_000], [b"B" * 50_000]

        def pieces():
            yield first[0]
            assert _write_atomic(path, second) == path
            yield first[1]

        assert _write_atomic(path, pieces()) == path
        assert path.read_bytes() == b"".join(first)
        assert list(tmp_path.iterdir()) == [path]


def per_row_csv(ds):
    """CSV as written one row at a time, with a join per row."""
    head = [f"# figure: {ds.figure_id}", f"# version: {ds.version}"]
    head += [f"# {key}: {ds.params[key]}" for key in sorted(ds.params)]
    lines = [*head, ",".join(ds.columns)] + [",".join(map(repr, row)) for row in ds.rows.tolist()]
    return "\n".join(lines) + "\n"


def dumped_json(ds):
    payload = {"figure": ds.figure_id, "version": ds.version,
               "params": {k: ds.params[k] for k in sorted(ds.params)},
               "columns": list(ds.columns), "rows": ds.rows.tolist()}
    return json.dumps(payload, indent=1) + "\n"


# Signed zero, the least subnormal, short and long exponents, repr's switch
# to exponent form at 1e16, and values near the largest double.
AWKWARD = [-0.0, 5e-324, 1e-05, 1e16, 1.5e300, 0.1, -2.5e-300, 123456789.125, 1e22, -1.7e308]


class TestEncoder:
    """One ``%`` per block of rows writes what a join per row and json.dumps write."""

    @pytest.mark.parametrize("count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    @pytest.mark.parametrize("width", [1, 3])
    def test_matches_per_row_forms(self, count, width):
        values = np.resize(np.array(AWKWARD), count * width).reshape(count, width)
        values[1::2] *= -1.0
        ds = FigureDataset("fig3", {"sigma": 0.125, "note": "x"},
                           tuple(f"c{i}" for i in range(width)), values)
        assert emit(ds, "csv").decode() == per_row_csv(ds)
        assert emit(ds, "json").decode() == dumped_json(ds)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("w", [1000.0, 2000.0 * _BLOCK / 3])
    def test_order_table_round_trip(self, fmt, w, tmp_path):
        table = order_table(GratingSpec(w, 0.5, 633.0, 257))
        path = write_order_table(table, 3.16, tmp_path / f"table.{fmt}", fmt)
        n = len(table.p_rj) - 1
        rows = [[float(j), table.p_rj[abs(j)], table.e_rj[abs(j)], table.omega_j[abs(j)]]
                for j in range(-n, n + 1)]
        spec = table.grating
        params = {"w_nm": spec.slit_width_w, "lambda_nm": spec.wavelength_lambda,
                  "sigma": spec.duty_sigma, "n_slits": spec.slit_count_N, "total_p_r": table.p_r,
                  "total_e_r": table.e_r, "omega": table.omega, "j_equiv": 3.16}
        ds = FigureDataset("table", params, ("j", "p_rj", "e_rj", "omega_j"), rows)
        expected = per_row_csv(ds) if fmt == "csv" else dumped_json(ds)
        assert path.read_text() == expected
        assert load_dataset(path.read_bytes(), fmt).rows.tobytes() == ds.rows.tobytes()


class TestBuilders:
    def test_all_ids_build(self):
        for fid in FIGURE_IDS:
            ds = build_figure(fid)
            assert ds.rows.shape[0] > 0

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown figure id"):
            build_figure("fig12")

    def test_fig3_envelope_and_orders(self):
        ds = build_figure("fig3", samples=801)
        alpha = ds.rows[:, 0]
        envelope = ds.rows[:, 1]
        resultant = ds.rows[:, 2]
        i0 = np.argmin(np.abs(alpha))
        assert envelope[i0] == pytest.approx(4.0, rel=1e-6)
        assert resultant[i0] == pytest.approx(16.0, rel=1e-6)
        # the resultant rides on top of the collective envelope at the orders
        # but integrates to the same probability (checked via the strip tests)
        assert resultant.max() > envelope.max()

    def test_fig4_params_carry_strip_value(self):
        ds = build_figure("fig4")
        strip = ds.params["riemann_strip"]
        assert strip == pytest.approx(
            math.pi * 0.125 * 4 * sinc_sq(float(order_alpha(12, 0.125))), rel=1e-12
        )
        assert ds.params["peak_base_width"] == pytest.approx(2 * math.pi * 0.125 / 4, rel=1e-12)

    def test_fig6_shows_threshold_jumps(self):
        ds = build_figure("fig6", samples=500)
        alpha, p_r = ds.rows[:, 0], ds.rows[:, 2]
        a3 = float(order_alpha(3, 0.5))
        left = p_r[np.searchsorted(alpha, a3 - 1e-6)]
        right = p_r[np.searchsorted(alpha, a3 + 1e-6)]
        assert right - left == pytest.approx(0.0483643488, rel=1e-4)
        # j-equivalent column is alpha over pi sigma
        assert ds.rows[:, 1] == pytest.approx(alpha / (math.pi * 0.5), rel=1e-14)

    def test_fig6_fig7_reciprocity_row_wise(self):
        p = build_figure("fig6", samples=400)
        w = build_figure("fig7", samples=400)
        assert np.array_equal(p.rows[:, 0], w.rows[:, 0])
        assert np.max(np.abs(p.rows[:, 2] * w.rows[:, 2] - 1.0)) <= 1e-9

    def test_fig8_structure(self):
        ds = build_figure("fig8")
        js = ds.rows[:, 0].astype(int).tolist()
        assert js == list(range(-3, 4))
        by_j = {int(r[0]): r for r in ds.rows}
        # G(3-) excludes the third orders, G(3+) includes them
        assert by_j[3][1] == 0.0 and by_j[3][2] == 0.0
        assert by_j[3][3] > 0.0 and by_j[3][4] > 0.0
        # even orders are envelope nulls for both gratings
        assert by_j[2][1] == by_j[2][3] == 0.0
        assert ds.params["omega_minus"] == pytest.approx(1.0285068327, rel=1e-7)
        assert ds.params["omega_plus"] == pytest.approx(0.9797701272, rel=1e-7)
        assert ds.params["e_r_minus"] == pytest.approx(1.0, abs=1e-9)
        assert ds.params["e_r_plus"] == pytest.approx(1.0, abs=1e-9)

    def test_fig9_step_function(self):
        ds = build_figure("fig9", samples=600)
        alpha, e_r0 = ds.rows[:, 0], ds.rows[:, 2]
        assert e_r0[0] == 1.0
        assert np.all(np.diff(e_r0) <= 1e-15)
        a3 = float(order_alpha(3, 0.5))
        left = e_r0[np.searchsorted(alpha, a3 - 1e-6)]
        right = e_r0[np.searchsorted(alpha, a3 + 1e-6)]
        assert left == pytest.approx(0.5523124172, rel=1e-6)
        assert right == pytest.approx(0.5261405726, rel=1e-6)

    def test_overrides_apply(self):
        ds = build_figure("fig6", sigma=0.5, alpha_min=2.0, alpha_max=9.0, samples=50)
        assert ds.params["alpha_min"] == 2.0
        assert ds.rows[0, 0] == 2.0
        assert ds.rows[-1, 0] == 9.0
