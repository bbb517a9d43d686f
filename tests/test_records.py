"""The records: immutable, keyword-constructible, validated, with the same repr and refusals.

The records on the numpy-free path are namedtuple subclasses that validate in
``__new__``, and their ``_make`` and ``_replace`` construct through it; the
coupling model's records stay dataclasses, so ``dataclasses.replace`` works on
them.
"""

import dataclasses

import numpy as np
import pytest

from grating_orders import __version__
from grating_orders.coupling import BiasReport, CouplingScenario, PulseTrain
from grating_orders.diffraction import DEFAULT_SLIT_COUNT, GratingSpec
from grating_orders.figures import FigureDataset
from grating_orders.orders import CurveKind, ProbabilityCurve, curve, order_table
from grating_orders.pulses import PulsePair
from grating_orders.quadrature import Interval, QuadratureResult

SPEC = GratingSpec(1250.0, 0.5, 633.0)


def records():
    return [
        SPEC,
        Interval(0.0, 1.0),
        QuadratureResult(1.0, 0.0, 3),
        order_table(SPEC),
        curve("occupation", 0.5, (2.0, 9.0), 5),
        FigureDataset("fig0", {}, ("a", "b"), [[1.0, 2.0]]),
        PulsePair(1.0, 0.97),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_attributes_are_frozen(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 1.0)
    with pytest.raises(AttributeError):
        record.extra = 1.0
    assert not dataclasses.is_dataclass(record)


def test_keywords_defaults_and_repr():
    spec = GratingSpec(slit_width_w=1250.0, duty_sigma=0.5, wavelength_lambda=633.0)
    assert spec == SPEC and spec.slit_count_N == DEFAULT_SLIT_COUNT
    assert repr(spec) == ("GratingSpec(slit_width_w=1250.0, duty_sigma=0.5, "
                          "wavelength_lambda=633.0, slit_count_N=257)")
    assert repr(Interval(hi=2.0, lo=-1.0)) == "Interval(lo=-1.0, hi=2.0)"
    assert repr(QuadratureResult(1.0, 0.5, 7)) == (
        "QuadratureResult(value=1.0, abs_error_estimate=0.5, evaluations=7)")
    assert repr(PulsePair(dv_gc=0.97, dv_g=1.0)) == "PulsePair(dv_g=1.0, dv_gc=0.97)"
    ds = FigureDataset(figure_id="fig0", params={"k": 1}, columns=["a"], rows=[[1.0]])
    assert ds.version == __version__ and ds.columns == ("a",)
    assert isinstance(ds.rows, np.ndarray) and ds.rows.shape == (1, 1)
    assert repr(ds) == ("FigureDataset(figure_id='fig0', params={'k': 1}, columns=('a',), "
                        f"rows=array([[1.]]), version='{__version__}')")
    c = ProbabilityCurve(abscissa=[1, 2], ordinate=[3, 4], kind=CurveKind.OCCUPATION)
    assert c.abscissa.dtype == c.ordinate.dtype == np.float64
    table = order_table(SPEC)
    assert table.grating is SPEC and table.omega == 1.0 / table.p_r


# (record type, constructor arguments, the refusal's message)
REFUSALS = [
    (GratingSpec, (1250.0, 1.0, 633.0), "duty_sigma must lie in (0, 1), got 1.0"),
    (GratingSpec, (float("inf"), 0.5, 633.0),
     "slit_width_w must be a positive finite length, got inf"),
    (GratingSpec, (1250.0, 0.5, -1.0),
     "wavelength_lambda must be a positive finite length, got -1.0"),
    (GratingSpec, (500.0, 0.5, 633.0),
     "sub-wavelength slit rejected: w=500.0 nm < lambda=633.0 nm"),
    (GratingSpec, (1250.0, 0.5, 633.0, 2.0),
     "slit_count_N must be an integer >= 1, got 2.0"),
    (Interval, (0.0, float("nan")), "interval endpoints must be finite: [0.0, nan]"),
    (Interval, (2.0, 1.0), "interval requires lo <= hi, got [2.0, 1.0]"),
    (QuadratureResult, (1.0, -1e-3, 3), "abs_error_estimate must be >= 0"),
    (PulsePair, (1.0, 0.0), "pulse heights must be finite and positive, got 1.0, 0.0"),
    (ProbabilityCurve, ([1.0, 2.0], [1.0], CurveKind.OCCUPATION),
     "abscissa and ordinate must be equal-length 1-D arrays"),
    (ProbabilityCurve, ([2.0, 1.0], [1.0, 1.0], CurveKind.OCCUPATION),
     "abscissa must be strictly increasing"),
    (ProbabilityCurve, ([1.0, 2.0], [1.0, np.inf], CurveKind.OCCUPATION),
     "ordinate values must be finite and positive"),
    (FigureDataset, ("f", {}, ("a", "b"), [[1.0, 2.0], [1.0]]),
     "rows must be 2-D with 2 columns, got ragged rows of shapes [(1,), (2,)]"),
    (FigureDataset, ("f", {}, ("a", "b"), [[1.0, 2.0, 3.0]]),
     "rows must be 2-D with 2 columns, got shape (1, 3)"),
    (FigureDataset, ("f", {}, ("a", "a"), [[1.0, 2.0]]),
     "column names must be unique, got ('a', 'a')"),
    (FigureDataset, ("f", {}, ("a",), [[np.nan]]), "row values must be finite"),
]


@pytest.mark.parametrize("make,message", [
    (lambda cls=cls, args=args: cls(*args), message) for cls, args, message in REFUSALS
])
def test_refusals_are_unchanged(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("cls,args,message", REFUSALS, ids=[m for _, _, m in REFUSALS])
def test_replace_and_make_refuse_as_construction(cls, args, message):
    # namedtuple's own _make, which _replace calls, skips __new__.
    valid = next(r for r in records() if type(r) is cls)
    for make in (lambda: cls._make(args),
                 lambda: valid._replace(**dict(zip(cls._fields, args)))):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


def test_replace_keeps_valid_records_whole():
    spec = SPEC._replace(duty_sigma=0.25)
    assert spec == GratingSpec(1250.0, 0.25, 633.0) and spec.period_p == 5000.0
    assert Interval._make([1.0, 2.0]) == Interval(1.0, 2.0)
    c = records()[4]
    doubled = c._replace(ordinate=(2.0 * c.ordinate).tolist())
    assert doubled.ordinate.tolist() == (2.0 * c.ordinate).tolist() and doubled.kind is c.kind
    ds = FigureDataset("fig0", {}, ["a"], [[1.0]])._replace(rows=[[2.0], [3.0]])
    assert ds.rows.shape == (2, 1) and ds.columns == ("a",) and ds.version == __version__


def test_coupling_model_records_stay_dataclasses():
    scenario = dataclasses.replace(CouplingScenario(), omega_id=1.1)
    assert scenario == CouplingScenario(omega_id=1.1)
    assert all(map(dataclasses.is_dataclass, (CouplingScenario, BiasReport, PulseTrain)))
    with pytest.raises(ValueError, match="omega_id must be positive"):
        dataclasses.replace(scenario, omega_id=-1.0)


def test_coupling_reexports_the_pulse_pair():
    from grating_orders import coupling, pulses
    from grating_orders.coupling import PulsePair, omega_ex

    assert (PulsePair, omega_ex) == (pulses.PulsePair, pulses.omega_ex)
    assert {"PulsePair", "omega_ex"} <= set(coupling.__all__)
    assert omega_ex(PulsePair(1.5, 1.0)) == 1.5
