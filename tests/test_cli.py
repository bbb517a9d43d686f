import math

import numpy as np
import pytest

from grating_orders import __version__, cli
from grating_orders.figures import load_dataset


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


class TestFigureCommand:
    def test_fig6_csv(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(
            ["figure", "--id", "fig6", "--sigma", "0.5", "--alpha-min", "pi",
             "--alpha-max", "3pi", "--samples", "2000"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        ds = load_dataset((tmp_path / "fig6.csv").read_bytes())
        assert ds.columns == ("alpha_t", "j_equiv", "p_r")
        alpha, p_r = ds.rows[:, 0], ds.rows[:, 2]
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
        # Below sigma ~ 1.3e-9 the tie shrinks to a quarter of the order spacing.
        code, _, _ = run(
            ["figure", "--id", "fig9", "--sigma", "1e-10", "--alpha-min", "3.152e-8",
             "--alpha-max", "3.4e-8", "--samples", "3"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        lines = (tmp_path / "fig9.csv").read_text().splitlines()
        assert f"# eps_tie: {math.pi * 1e-10 / 4!r}" in lines
        assert "# eps_tie: 7.853981633974483e-11" in lines
        run(["figure", "--id", "fig9", "--samples", "5", "--out", str(tmp_path / "d.csv")],
            tmp_path, monkeypatch, capsys)
        assert "# eps_tie: 1e-09" in (tmp_path / "d.csv").read_text().splitlines()

    def test_json_output(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(
            ["figure", "--id", "fig8", "--format", "json"], tmp_path, monkeypatch, capsys
        )
        assert code == 0
        ds = load_dataset((tmp_path / "fig8.json").read_bytes(), "json")
        assert ds.figure_id == "fig8"

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
        ds = load_dataset((tmp_path / "table.csv").read_bytes())
        assert ds.rows.shape == (7, 4)
        assert math.fsum(ds.rows[:, 2]) == pytest.approx(1.0, abs=1e-9)

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

    def no_terms(j, sigma):
        raise AssertionError("an order term was evaluated")

    monkeypatch.setattr(orders, "sinc_sq_at_order", no_terms)
    assert 2 * 500000 + 1 == orders.MAX_POINTS + 1
    code, out, err = run(["table", "--j-equiv", "500000"], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert "rows" in err
    assert out == ""
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


class TestSweepCommand:
    def test_occupation_sweep(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(
            ["sweep", "--quantity", "occupation", "--j-min", "2", "--j-max", "6",
             "--samples", "200"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        ds = load_dataset((tmp_path / "sweep.csv").read_bytes())
        assert ds.columns == ("alpha_t", "j_equiv", "occupation")
        assert ds.rows[:, 1].min() >= 2.0
        assert ds.rows[:, 1].max() <= 6.0

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
