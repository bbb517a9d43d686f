import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from dataset_csv import read_csv

from grating_orders import __version__, cli
from grating_orders.figures import _MAX_SLITS, FIGURE_IDS, build_figure, emit
from grating_orders.orders import _SCALAR_CURVE_POINTS

# Curve figures, fig8 and sweeps that the CLI writes without numpy: those of
# the benchmark catalogue, fig7 and a refused fig8 override.
REFUSED_FIG8 = "figure --id fig8 --samples 10 --out fig8.csv"
CURVE_AND_FIG8 = [REFUSED_FIG8,
    "figure --id fig6 --out fig6.csv", "figure --id fig7 --out fig7.csv",
    "figure --id fig8 --out fig8.csv", "figure --id fig8 --format json --out fig8.json",
    "figure --id fig9 --out fig9.csv",
    "sweep --j-min 1.5 --j-max 12 --out sweep.csv",
    "sweep --quantity resultant_probability --j-min 2 --j-max 9 --samples 400 --out sweep.csv",
    "sweep --quantity zero_order_energy --j-min 0.5 --j-max 10 --samples 300 --format json "
    "--out sweep.json",
    "sweep --j-min 1 --j-max 20 --sigma 1/3 --out sweep.csv",
]
# The invocations that need no array: every omega, table, curve figure, fig8
# and sweep of the benchmark catalogue, the measured pulse pair and refused calls.
NUMPY_FREE = [*CURVE_AND_FIG8,
    "omega --j-equiv 3-", "omega --j-equiv 3+", "omega --w 833",
    "omega --j-equiv 6.5 --sigma 1/3",
    "table --j-equiv 3- --out table.csv", "table --j-equiv 3+ --out table.csv",
    "table --w 1250 --out table.csv", "table --w 2000 --format json --out table.json",
    "experiment --dv-g 1.0 --dv-gc 0.97",
    "omega --w 500", "omega --j-equiv 3 --sigma 1.0",
    "sweep --j-min 5 --j-max 2 --out sweep.csv", "figure --id fig99 --out fig99.csv",
    "omega --j-equiv 3- --sigma 1e-4", "table --j-equiv 10001- --sigma 1e-4 --out table.csv",
    "experiment --dv-g 1e308 --dv-gc 1e-308",
    "omega --j-equiv 100000.5",  # 1e5 orders, summed in blocks
]
LENGTH_FORMS = "expected a positive finite length in nm, or metres below 1e-2"
DECIMAL_FORMS = "expected a decimal number: 2, 0.5, 1e-3"
WHOLE_FORMS = "expected a whole number: 4, 2001"
J_EQUIV_FORMS = "expected an order, or a whole order with - or +: 3, 3.94, 3-, 3+"


def run(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestParsers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi", math.pi),
            ("3pi", 3 * math.pi),
            ("3pi/2", 1.5 * math.pi),
            ("-pi/4", -math.pi / 4),
            ("0.5pi", 0.5 * math.pi),
            ("2.25", 2.25),
        ],
    )
    def test_parse_alpha(self, text, expected):
        assert cli.parse_number(text) == pytest.approx(expected, rel=1e-15)

    def test_parse_j_equiv_threshold_forms(self):
        assert cli.parse_j_equiv("2.63") == 2.63
        assert cli.parse_j_equiv("3-") * math.pi * 0.5 == pytest.approx(
            1.5 * math.pi - 1e-6, rel=1e-12
        )
        assert cli.parse_j_equiv("3+") * math.pi * 0.5 == pytest.approx(
            1.5 * math.pi + 1e-6, rel=1e-12
        )

    def test_parse_length_accepts_metres_and_nanometres(self):
        assert cli.parse_length_nm("1000e-9") == pytest.approx(1000.0)
        assert cli.parse_length_nm("633e-9") == pytest.approx(633.0)
        assert cli.parse_length_nm("1000") == 1000.0

    def test_parse_sigma_fraction(self):
        assert cli.parse_number("1/8") == 0.125
        assert cli.parse_number("0.5") == 0.5

    def test_cross_forms(self):
        # a duty cycle as a multiple of pi, an alpha as a plain fraction
        assert cli.parse_number("pi/8") == math.pi / 8
        assert cli.parse_number("1/2") == 0.5

    @pytest.mark.parametrize("text", ["1/0", "0/0", "pi/0"])
    def test_zero_divisor_is_value_error(self, text):
        with pytest.raises(ValueError, match="zero divisor"):
            cli.parse_number(text)

    @pytest.mark.parametrize(
        "argv",
        [
            ["omega", "--j-equiv", "3", "--sigma", "1/0"],
            ["figure", "--id", "fig6", "--alpha-min", "pi/0"],
        ],
    )
    def test_zero_divisor_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv, tmp_path, monkeypatch, capsys)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,flag,text,forms", [
        (["omega", "--j-equiv", "3", "--sigma", "abc"], "--sigma", "abc", "0.5, 1/8, 3pi/2"),
        (["omega", "--j-equiv", "3.5-"], "--j-equiv", "3.5-", "3, 3.94, 3-, 3+"),
        (["omega", "--w", "abc"], "--w", "abc", LENGTH_FORMS),
        (["omega", "--w", "1000", "--lambda", "-1"], "--lambda", "-1", LENGTH_FORMS),
    ])
    def test_refusal_names_flag_text_and_forms(self, argv, flag, text, forms, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: ") and all(line[0] == " " for line in err[1:-1])
        assert err[-1].startswith(f"grating-orders omega: error: argument {flag}: "
                                  f"invalid value {text!r}; expected ")
        assert err[-1].endswith(forms) and "parse_" not in err[-1]

    @pytest.mark.parametrize("argv,flag,text,forms", [
        (["sweep", "--j-min", "abc", "--j-max", "2"], "--j-min", "abc", DECIMAL_FORMS),
        (["sweep", "--j-min", "1", "--j-max", "2x"], "--j-max", "2x", DECIMAL_FORMS),
        (["sweep", "--j-min", "1", "--j-max", "2", "--samples", "1.5"], "--samples", "1.5",
         WHOLE_FORMS),
        (["figure", "--id", "fig3", "--samples", "1e3"], "--samples", "1e3", WHOLE_FORMS),
        (["figure", "--id", "fig3", "--n-slits", "1.5"], "--n-slits", "1.5", WHOLE_FORMS),
        (["table", "--j-equiv", "3", "--n-slits", "four"], "--n-slits", "four", WHOLE_FORMS),
        *[(["experiment", flag, "abc"], flag, "abc", DECIMAL_FORMS)
          for flag in ("--omega-id", "--p-ratio", "--f-g", "--f-r", "--eta", "--noise-sd",
                       "--baseline")],
        *[(["experiment", flag, "1.5"], flag, "1.5", WHOLE_FORMS) for flag in ("--cycles", "--seed")],
        (["experiment", "--dv-g", "abc", "--dv-gc", "1"], "--dv-g", "abc", DECIMAL_FORMS),
        (["experiment", "--dv-g", "1", "--dv-gc", "1,0"], "--dv-gc", "1,0", DECIMAL_FORMS),
        (["omega", "--j-equiv", "nan"], "--j-equiv", "nan", J_EQUIV_FORMS),
        (["omega", "--j-equiv", "inf"], "--j-equiv", "inf", J_EQUIV_FORMS),
        (["table", "--j-equiv=-inf"], "--j-equiv", "-inf", J_EQUIV_FORMS),
        # whole orders too large for a float
        *[pytest.param([cmd, "--j-equiv", f"1{'0' * 400}{sign}"], "--j-equiv",
                       f"1{'0' * 400}{sign}", J_EQUIV_FORMS, id=f"{cmd}-1e400{sign}")
          for cmd, sign in (("omega", "-"), ("table", "+"))],
    ])
    def test_numeric_flag_refusal_names_its_forms(self, argv, flag, text, forms, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"grating-orders {argv[0]}: error: argument {flag}: invalid value {text!r}; {forms}")

    @pytest.mark.parametrize("subcommand", ["omega", "table"])
    @pytest.mark.parametrize("flag", ["--w", "--lambda"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_length_is_usage_error(self, subcommand, flag, text, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        width = ["--j-equiv", "3"] if flag == "--lambda" else []
        with pytest.raises(SystemExit) as exc:
            cli.main([subcommand, *width, f"{flag}={text}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"grating-orders {subcommand}: error: argument {flag}: "
            f"invalid value {text!r}; {LENGTH_FORMS}"
        )
        assert list(tmp_path.iterdir()) == []


def child_env() -> dict:
    # The environment of a child Python that imports this checkout's package.
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop(cli.OUTDIR_ENV, None)
    return env


class TestNumpyFreeStart:
    # A child process runs the CLI as it is, with numpy made unimportable, or
    # with numpy imported first, where long order sums take the array body.
    def run_cli(self, argv, cwd, block_numpy, load_numpy=False):
        cwd.mkdir()
        first = "sys.modules['numpy'] = None" if block_numpy else "import numpy"
        code = f"import sys, runpy; {first}; runpy.run_module('grating_orders.cli', run_name='__main__')"
        prefix = ["-c", code] if block_numpy or load_numpy else ["-m", "grating_orders.cli"]
        proc = subprocess.run([sys.executable, *prefix, *argv], cwd=cwd, env=child_env(),
                              capture_output=True)
        files = {p.name: p.read_bytes() for p in cwd.iterdir()}
        return proc.returncode, proc.stdout, proc.stderr, files

    @pytest.mark.parametrize("key", NUMPY_FREE)
    def test_same_bytes_without_numpy(self, key, tmp_path):
        normal = self.run_cli(key.split(), tmp_path / "normal", block_numpy=False)
        blocked = self.run_cli(key.split(), tmp_path / "blocked", block_numpy=True)
        assert blocked == normal
        assert normal[0] == (2 if normal[2] else 0)

    # 1e5 and 2e4 orders, above _ARRAY_SUM_ORDERS; with numpy loaded, the
    # curves go by arrays rather than by the scalars
    @pytest.mark.parametrize("key", ["omega --j-equiv 100000.5",
                                     "table --j-equiv 20000.5 --out table.csv", *CURVE_AND_FIG8])
    def test_same_bytes_with_numpy_loaded(self, key, tmp_path):
        blocked = self.run_cli(key.split(), tmp_path / "blocked", block_numpy=True)
        loaded = self.run_cli(key.split(), tmp_path / "loaded", block_numpy=False, load_numpy=True)
        assert loaded == blocked
        assert blocked[0] == (2 if key == REFUSED_FIG8 else 0)

    def test_import_leaves_numpy_unloaded(self):
        code = "import sys, grating_orders.cli; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True)
        assert proc.stdout == b"False\n", proc.stderr


class TestLeanStart:
    # A child runs the CLI and reports, at exit, the modules it loaded beyond
    # those of a bare interpreter start.
    REPORT = ("import atexit, sys; "
              "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr)); ")
    # curves that go by arrays: 8,200 samples plus 22 edge samples, over the
    # scalar route's 8,192 points, and a top at order 513, over its 512 orders
    CURVE_CALLS = ["sweep --j-min 1.5 --j-max 12 --samples 8200 --out sweep.csv",
                   "sweep --j-min 512.5 --j-max 513 --samples 50 --out sweep.csv"]

    def loaded(self, code, argv, cwd):
        proc = subprocess.run([sys.executable, "-c", self.REPORT + code, *argv], cwd=cwd,
                              env=child_env(), capture_output=True)
        return set(proc.stderr.decode().splitlines()[-1].split())

    @pytest.fixture(scope="class")
    def bare(self, tmp_path_factory):
        return self.loaded("pass", [], tmp_path_factory.mktemp("bare"))

    def cli_loads(self, key, cwd, bare):
        code = "import runpy; runpy.run_module('grating_orders.cli', run_name='__main__')"
        return self.loaded(code, key.split(), cwd) - bare

    @pytest.mark.parametrize("key", NUMPY_FREE)
    def test_numpy_free_calls_load_no_dataclasses_or_json(self, key, tmp_path, bare):
        loaded = self.cli_loads(key, tmp_path, bare)
        assert "grating_orders.orders" in loaded
        assert not loaded & {"dataclasses", "inspect", "numpy"}
        if "--format json" not in key:
            assert "json" not in loaded

    @pytest.mark.parametrize("key", CURVE_CALLS)
    def test_curve_calls_load_no_masked_arrays(self, key, tmp_path, bare):
        loaded = self.cli_loads(key, tmp_path, bare)
        assert "numpy" in loaded and "numpy.ma" not in loaded


class TestFigureCommand:
    def test_fig6_csv(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(
            ["figure", "--id", "fig6", "--sigma", "0.5", "--alpha-min", "pi",
             "--alpha-max", "3pi", "--samples", "2000"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        columns, rows = read_csv((tmp_path / "fig6.csv").read_bytes())
        assert columns == ("alpha_t", "j_equiv", "p_r")
        alpha, p_r = rows[:, 0], rows[:, 2]
        for j in (3, 5):
            aj = j * math.pi * 0.5
            left = p_r[np.searchsorted(alpha, aj - 1e-6)]
            right = p_r[np.searchsorted(alpha, aj + 1e-6)]
            assert right > left

    def test_byte_identical_reruns(self, tmp_path, monkeypatch, capsys):
        argv = ["figure", "--id", "fig9", "--samples", "500"]
        run(argv + ["--out", str(tmp_path / "a.csv")], tmp_path, monkeypatch, capsys)
        run(argv + ["--out", str(tmp_path / "b.csv")], tmp_path, monkeypatch, capsys)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_header_writes_the_tie_in_effect(self, tmp_path, monkeypatch, capsys):
        # Below sigma ~ 2.5e-9 the tie shrinks to an eighth of the order spacing.
        code, _, _ = run(
            ["figure", "--id", "fig9", "--sigma", "1e-10", "--alpha-min", "3.152e-8",
             "--alpha-max", "3.4e-8", "--samples", "3"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        lines = (tmp_path / "fig9.csv").read_text().splitlines()
        assert f"# eps_tie: {math.pi * 1e-10 / 8!r}" in lines
        run(["figure", "--id", "fig9", "--samples", "5", "--out", str(tmp_path / "d.csv")],
            tmp_path, monkeypatch, capsys)
        assert "# eps_tie: 1e-09" in (tmp_path / "d.csv").read_text().splitlines()
        # From alpha_t = 2**21 the tie in effect is TIE_ULPS ulp of the top of the range.
        run(["figure", "--id", "fig6", "--alpha-min", "3000000", "--alpha-max", "3000010",
             "--samples", "3", "--out", str(tmp_path / "e.csv")], tmp_path, monkeypatch, capsys)
        assert "# eps_tie: 1.862645149230957e-09" in (tmp_path / "e.csv").read_text().splitlines()

    def test_json_output(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(
            ["figure", "--id", "fig8", "--format", "json"], tmp_path, monkeypatch, capsys
        )
        assert code == 0
        assert json.loads((tmp_path / "fig8.json").read_bytes())["figure"] == "fig8"

    def test_unknown_figure_is_usage_error(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["figure", "--id", "fig99"], tmp_path, monkeypatch, capsys)
        assert exc.value.code == 2

    def test_bad_parameters_exit_2(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(
            ["figure", "--id", "fig6", "--sigma", "1.5"], tmp_path, monkeypatch, capsys
        )
        assert code == 2
        assert "sigma" in err


class TestOneBuilder:
    """``figure`` writes the bytes of ``emit(build_figure(...))``: both take
    their (params, columns, rows) from ``figures._figure``."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("fid", FIGURE_IDS)
    def test_figure_writes_build_figure_bytes(self, fid, fmt, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["figure", "--id", fid, "--format", fmt], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert (tmp_path / f"{fid}.{fmt}").read_bytes() == emit(build_figure(fid), fmt)

    def test_curve_over_the_scalar_bound_writes_build_figure_bytes(self, tmp_path):
        # 9,000 samples exceed the scalar route's point bound, so the child,
        # which starts without numpy, samples the curve by arrays.
        assert 9000 > _SCALAR_CURVE_POINTS
        argv = ["figure", "--id", "fig7", "--samples", "9000", "--out", "fig7.csv"]
        proc = subprocess.run([sys.executable, "-m", "grating_orders.cli", *argv], cwd=tmp_path,
                              env=child_env(), capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "fig7.csv").read_bytes() == emit(build_figure("fig7", samples=9000))


# Each command that writes --out, with a valid call.
OUT_CALLS = [["figure", "--id", "fig6"], ["sweep", "--j-min", "1.5", "--j-max", "12"],
             ["table", "--w", "1250"]]


@pytest.mark.parametrize("argv", OUT_CALLS, ids=lambda argv: argv[0])
def test_out_refuses_a_fifo(argv, tmp_path, monkeypatch, capsys):
    # The rename would leave a regular file where the FIFO was; the path is
    # refused before a temp file is made, and the FIFO is never opened.
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    code, out, err = run([*argv, "--out", str(pipe)], tmp_path, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {pipe} exists and is not a regular file; it is not replaced\n"
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert list(tmp_path.iterdir()) == [pipe]


# The flags each figure takes, written out here rather than read from the
# package; every other (figure, flag) pair is refused.
FIGURE_FLAGS = {
    "fig3": ("--sigma", "--n-slits", "--alpha-min", "--alpha-max", "--samples"),
    "fig4": ("--sigma", "--n-slits", "--samples"),
    "fig5": ("--sigma", "--n-slits", "--alpha-min", "--alpha-max", "--samples"),
    "fig6": ("--sigma", "--alpha-min", "--alpha-max", "--samples"),
    "fig7": ("--sigma", "--alpha-min", "--alpha-max", "--samples"),
    "fig8": ("--sigma", "--n-slits"),
    "fig9": ("--sigma", "--alpha-min", "--alpha-max", "--samples"),
}
# One value per flag that every figure taking the flag accepts.
FLAG_VALUES = {
    "--sigma": "0.375", "--n-slits": "3", "--alpha-min": "2", "--alpha-max": "5", "--samples": "5"
}
REFUSED_PAIRS = [
    ("fig4", "--alpha-min"), ("fig4", "--alpha-max"),
    ("fig6", "--n-slits"), ("fig7", "--n-slits"), ("fig9", "--n-slits"),
    ("fig8", "--alpha-min"), ("fig8", "--alpha-max"), ("fig8", "--samples"),
]


@pytest.mark.parametrize("flag", list(FLAG_VALUES))
@pytest.mark.parametrize("fid", list(FIGURE_FLAGS))
def test_figure_takes_only_its_flags(fid, flag, tmp_path, monkeypatch, capsys):
    code, out, err = run(
        ["figure", "--id", fid, flag, FLAG_VALUES[flag]], tmp_path, monkeypatch, capsys
    )
    refused = (fid, flag) in REFUSED_PAIRS
    assert refused != (flag in FIGURE_FLAGS[fid])
    if refused:
        name = {f: f[2:].replace("-", "_") for f in FLAG_VALUES}
        takes = ", ".join(name[f] for f in FIGURE_FLAGS[fid])
        assert code == 2
        assert out == ""
        assert err == f"error: {fid} takes no {name[flag]}; it takes {takes}\n"
        assert not (tmp_path / f"{fid}.csv").exists()
    else:
        assert code == 0
        assert (tmp_path / f"{fid}.csv").exists()


@pytest.mark.parametrize("fid", ["fig3", "fig5"])
@pytest.mark.parametrize(
    "bounds", [("1", "0"), ("1", "1"), ("nan", "1"), ("-1", "nan")],
    ids=["reversed", "equal", "nan-min", "nan-max"],
)
def test_intensity_range_must_increase(fid, bounds, tmp_path, monkeypatch, capsys):
    code, out, err = run(
        ["figure", "--id", fid, "--alpha-min", bounds[0], "--alpha-max", bounds[1]],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "finite with alpha_min < alpha_max" in err
    assert "np.float64" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["omega", "--j-equiv", "3"],
        ["table", "--j-equiv", "3"],
        ["sweep", "--j-min", "1", "--j-max", "2"],
    ],
)
def test_bad_sigma_is_named(argv, tmp_path, monkeypatch, capsys):
    code, _, err = run([*argv, "--sigma", "nan"], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert err == "error: sigma must lie in (0, 1), got nan\n"


class TestTableCommand:
    def test_si_unit_widths(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(
            ["table", "--w", "1000e-9", "--lambda", "633e-9"], tmp_path, monkeypatch, capsys
        )
        assert code == 0
        assert "j-equiv 3.1596" in out
        _, rows = read_csv((tmp_path / "table.csv").read_bytes())
        assert rows.shape == (7, 4)
        assert math.fsum(rows[:, 2]) == pytest.approx(1.0, abs=1e-9)

    def test_nanometre_widths_match(self, tmp_path, monkeypatch, capsys):
        run(["table", "--w", "1000e-9", "--lambda", "633e-9",
             "--out", str(tmp_path / "si.csv")], tmp_path, monkeypatch, capsys)
        run(["table", "--w", "1000", "--lambda", "633",
             "--out", str(tmp_path / "nm.csv")], tmp_path, monkeypatch, capsys)
        assert (tmp_path / "si.csv").read_bytes() == (tmp_path / "nm.csv").read_bytes()

    def test_threshold_form(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(["table", "--j-equiv", "3-"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert "omega = 1.028507" in out

    def test_missing_width_is_error(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["table"], tmp_path, monkeypatch, capsys)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--w" in err and "--j-equiv" in err


class TestOmegaCommand:
    def test_control_grating_annotation(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(["omega", "--j-equiv", "3.94"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert "ordinary (control)" in out
        omega = float(out.split("omega: ")[1].splitlines()[0])
        assert omega == pytest.approx(1.0, abs=0.005)

    def test_enriched_side(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(["omega", "--j-equiv", "3-"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert "enriched" in out
        assert "1.028507" in out

    def test_depleted_side(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(["omega", "--j-equiv", "3+"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert "depleted" in out

    def test_past_a_continued_fraction_stall(self, tmp_path, monkeypatch, capsys):
        # 2 alpha_t = 8388607.957, just below 2**23, where Si's continued
        # fraction never converged and this call exited 1; the tail serves it.
        argv = ["omega", "--j-equiv", "1483431.58", "--sigma", "0.9"]
        code, out, _ = run(argv, tmp_path, monkeypatch, capsys)
        assert code == 0
        assert "omega: 1.000000" in out.splitlines()

    def test_width_form(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(["omega", "--w", "833"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert "j_equiv: 2.6319" in out

    def test_missing_width_is_error(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["omega"], tmp_path, monkeypatch, capsys)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--w" in err and "--j-equiv" in err


@pytest.mark.parametrize("argv", [
    ["omega", "--j-equiv", "3-", "--sigma", "1e-4"],
    ["table", "--j-equiv", "10001-", "--sigma", "1e-4", "--out", "table.csv"],
])
def test_below_form_inside_the_tie_is_refused(argv, tmp_path, monkeypatch, capsys):
    # 'j-' sits 2e-6 sigma below order j: at sigma 1e-4 that is inside the
    # 1e-9 tie, which would admit order j, as 'j+' does
    code, out, err = run(argv, tmp_path, monkeypatch, capsys)
    assert (code, out) == (2, "")
    j = argv[2][:-1]
    assert err == (f"error: --j-equiv {j}- at sigma=0.0001 lies inside the threshold tie, "
                   f"which admits order {j}\n")
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("argv", [
    ["omega", "--j-equiv", "9999999-", "--sigma", "1e-4"],
    ["table", "--j-equiv", "400000-", "--sigma", "1e-4", "--out", "table.csv"],
])
def test_below_form_inside_the_tie_is_refused_before_any_sum(argv, tmp_path, monkeypatch, capsys):
    from grating_orders import orders

    def no_sum(*args):
        raise AssertionError("orders were summed before the refusal")

    monkeypatch.setattr(orders, "_envelope_sum", no_sum)
    monkeypatch.setattr(cli, "order_table", no_sum)
    code, out, err = run(argv, tmp_path, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --j-equiv {argv[2]} at sigma=0.0001 lies inside the threshold tie")


def test_below_form_outside_the_tie_answers(tmp_path, monkeypatch, capsys):
    # at sigma 6e-4 the offset, 1.2e-9, is outside the tie: order 3 is not counted
    code, out, _ = run(["omega", "--j-equiv", "3-", "--sigma", "6e-4"], tmp_path, monkeypatch, capsys)
    assert code == 0
    assert "classification: enriched" in out
    code, out, _ = run(["table", "--j-equiv", "2000-", "--sigma", "6e-4"], tmp_path, monkeypatch, capsys)
    assert code == 0
    assert "(3999 rows)" in out  # orders -1999..1999


@pytest.mark.parametrize("subcommand", ["omega", "table"])
def test_width_and_j_equiv_exclude_each_other(subcommand, tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run([subcommand, "--w", "2000", "--j-equiv", "3-"], tmp_path, monkeypatch, capsys)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not allowed with" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,named",
    [
        (["figure", "--id", "fig8", "--sigma", "0.25"], ("alpha_t=", "sigma=0.25")),
        (["table", "--j-equiv", "1.5"], ("alpha_t=", "j-equivalent 1.500000")),
        # a pair EDGE_OFFSET either side of order 3 would start below alpha_t = 0
        (["figure", "--id", "fig8", "--sigma", "1e-9"], ("alpha_t=", "sigma=1e-09")),
    ],
)
def test_truncation_below_pi_is_named(argv, named, tmp_path, monkeypatch, capsys):
    code, out, err = run(argv, tmp_path, monkeypatch, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "w=" not in err
    for text in named:
        assert text in err
    assert list(tmp_path.iterdir()) == []


def test_omega_below_pi_still_answers(tmp_path, monkeypatch, capsys):
    # omega builds no grating, so a truncation below pi has an answer
    code, out, _ = run(["omega", "--j-equiv", "1.5"], tmp_path, monkeypatch, capsys)
    assert code == 0
    assert "j_equiv: 1.500000" in out


@pytest.mark.parametrize("subcommand", ["omega", "table"])
def test_order_term_bound(subcommand, tmp_path, monkeypatch, capsys):
    # ~6e299 propagating orders: refused at once instead of summed
    code, out, err = run([subcommand, "--j-equiv", "1e300"], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert "order terms" in err
    assert out == ""
    assert not (tmp_path / "table.csv").exists()


def test_table_row_bound(tmp_path, monkeypatch, capsys):
    # n = 500000 orders on each side: 1000001 rows, one over the bound,
    # refused before a single order term is evaluated
    from grating_orders import orders

    def no_terms(js, sigma):
        raise AssertionError("an order term was evaluated")

    monkeypatch.setattr(orders, "_sinc_sq_orders", no_terms)
    assert 2 * 500000 + 1 == orders.MAX_POINTS + 1
    code, out, err = run(["table", "--j-equiv", "500000"], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert "rows" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["--id", "fig3", "--n-slits", "0"], "n_slits must be an integer >= 1, got 0"),
    (["--id", "fig3", "--sigma", "1"], "sigma must lie in (0, 1), got 1.0"),
    (["--id", "fig4", "--n-slits", "-3"], "n_slits must be an integer >= 1, got -3"),
    (["--id", "fig5", "--alpha-min=-1e308", "--alpha-max", "1e308", "--samples", "3"],
     "alpha range must be finite with alpha_min < alpha_max, got (-1e+308, 1e+308)"),
    (["--id", "fig3", "--alpha-min", "1e308", "--alpha-max", "1.1e308", "--samples", "3"],
     "alpha/sigma overflows a float at alpha=1e+308, sigma=0.125"),
    *[pytest.param(["--id", fid, "--n-slits", str(n)],
                   "n_slits must be at most 1.34e+154, where the peak N**2 of the grating factor "
                   f"is still a finite float, got {n}", id=f"{fid}-n-slits-{label}")
      for fid in ("fig3", "fig4", "fig5")
      for n, label in ((10**400, "1e400"), (_MAX_SLITS + 1, "one-over-bound"))],
])
def test_intensity_refusals(argv, message, tmp_path, monkeypatch, capsys):
    code, out, err = run(["figure", *argv], tmp_path, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("samples", ["0", "1000001"])
def test_intensity_row_bound(samples, tmp_path, monkeypatch, capsys):
    # an empty section and one row over MAX_POINTS, both refused before a
    # single row is computed
    from grating_orders import figures

    def no_rows(alpha, sigma, n_slits):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(figures, "grating_intensity", no_rows)
    code, out, err = run(
        ["figure", "--id", "fig3", "--samples", samples], tmp_path, monkeypatch, capsys
    )
    assert code == 2
    assert "samples" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


class TestExperimentCommand:
    def test_synthetic_loop(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(
            ["experiment", "--omega-id", "1.025", "--noise-sd", "0"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        assert "recovered omega:        1.024724" in out
        assert "insignificant" in out

    def test_measured_pair(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(
            ["experiment", "--dv-g", "1.015", "--dv-gc", "1.000"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        assert "omega_ex: 1.015000" in out
        assert "enriched" in out

    @pytest.mark.parametrize("flag,value", [
        ("--omega-id", "1.05"), ("--p-ratio", "50"), ("--f-g", "0.5"), ("--f-r", "0.02"),
        ("--eta", "0.5"), ("--cycles", "200"), ("--noise-sd", "0.01"), ("--baseline", "0.1"),
        ("--seed", "3"),
    ])
    def test_measured_pair_takes_no_model_flag(self, flag, value, tmp_path, monkeypatch, capsys):
        argv = ["experiment", "--dv-g", "1.0", "--dv-gc", "0.97"]
        code, out, _ = run(argv, tmp_path, monkeypatch, capsys)
        assert code == 0
        assert "omega_ex: 1.030928" in out
        code, out, err = run([*argv, flag, value], tmp_path, monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} is not taken with --dv-g/--dv-gc\n"

    def test_overflowing_ratio_is_refused(self, tmp_path, monkeypatch, capsys):
        code, out, err = run(["experiment", "--dv-g", "1e308", "--dv-gc", "1e-308"],
                             tmp_path, monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err == "error: pulse ratio dv_g/dv_gc = 1e+308/1e-308 overflows\n"

    def test_half_pair_is_error(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(["experiment", "--dv-g", "1.0"], tmp_path, monkeypatch, capsys)
        assert code == 2
        assert "together" in err

    @pytest.mark.parametrize("argv", [
        ["--noise-sd", "nan"],
        ["--noise-sd", "inf"],
        ["--dv-g", "inf", "--dv-gc", "1"],
        ["--dv-g", "1", "--dv-gc", "nan"],
    ])
    def test_non_finite_inputs_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        code, out, err = run(["experiment", *argv], tmp_path, monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err

    def test_cycle_bound(self, tmp_path, monkeypatch, capsys):
        # 3.2e13 samples per record: refused before the report is printed
        code, out, err = run(
            ["experiment", "--cycles", "1000000000000"], tmp_path, monkeypatch, capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cycles=") and err.count("\n") == 1

    @pytest.mark.parametrize("noise", [["--noise-sd", "0.1"], []])
    def test_negative_seed_is_refused_by_name(self, noise, tmp_path, monkeypatch, capsys):
        # refused before any draw, with or without noise to draw
        code, out, err = run(["experiment", "--seed", "-1", *noise], tmp_path, monkeypatch, capsys)
        assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("argv", [
        ["--baseline", "1e15"],  # differencing returns 0.375 of 0.4
        ["--baseline", "1e16"],  # and here 0.0
        ["--f-g", "1e-300", "--f-r", "0"],
    ])
    def test_baseline_that_swamps_the_pulses_is_refused_by_name(
            self, argv, tmp_path, monkeypatch, capsys):
        code, out, err = run(["experiment", *argv], tmp_path, monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: baseline_bias=") and err.count("\n") == 1

    def test_large_baseline_still_runs(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(["experiment", "--baseline", "7.5"], tmp_path, monkeypatch, capsys)
        assert code == 0
        assert "recovered omega:        1.024724 (predicted 1.024724)" in out

    def test_overflowing_noise_gives_one_line(self, tmp_path, monkeypatch, capsys):
        # in-process, where pytest turns any numpy RuntimeWarning into an error
        code, out, err = run(["experiment", "--noise-sd", "1e308", "--cycles", "1"],
                             tmp_path, monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err == "error: pulse heights must be finite and positive, got -inf, nan\n"


class TestSweepCommand:
    def test_occupation_sweep(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(
            ["sweep", "--quantity", "occupation", "--j-min", "2", "--j-max", "6",
             "--samples", "200"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        columns, rows = read_csv((tmp_path / "sweep.csv").read_bytes())
        assert columns == ("alpha_t", "j_equiv", "occupation")
        assert rows[:, 1].min() >= 2.0
        assert rows[:, 1].max() <= 6.0

    def test_header_params(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(
            ["sweep", "--j-min", "2", "--j-max", "6", "--samples", "50"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        header = [
            line for line in (tmp_path / "sweep.csv").read_text().splitlines()
            if line.startswith("#")
        ]
        assert header == [
            "# figure: sweep",
            f"# version: {__version__}",
            "# j_max: 6.0",
            "# j_min: 2.0",
            "# quantity: occupation",
            "# rule: inclusive",
            "# samples: 50",
            "# sigma: 0.5",
        ]

    def test_bad_range(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(
            ["sweep", "--j-min", "6", "--j-max", "2"], tmp_path, monkeypatch, capsys
        )
        assert code == 2
        assert "j-min" in err

    def test_order_term_budget(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(
            ["sweep", "--j-min", "1", "--j-max", "1e12"], tmp_path, monkeypatch, capsys
        )
        assert code == 2
        assert "order terms" in err
        assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "--id", "fig6", "--seed", "1"],
        ["figure", "--id", "fig6", "--eps-tie", "1e-9"],
        ["table", "--w", "1250", "--eps-tie", "1e-9"],
        ["omega", "--j-equiv", "3", "--eps-tie", "1e-9"],
        ["sweep", "--j-min", "1", "--j-max", "2", "--eps-tie", "1e-9"],
        ["sweep", "--j-min", "1", "--j-max", "2", "--rule", "inclusive"],
    ],
)
def test_removed_flags_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv, tmp_path, monkeypatch, capsys)
    assert exc.value.code == 2
