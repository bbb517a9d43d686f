"""The benchmark's tracer still finds and sees every attribute it wraps.

bench/tracing.py times layers by replacing module attributes of the package
(``orders.propagating_orders``, ``orders.sinc_sq_at_order``,
``orders.sinc_sq_integral``, ``quadrature.si``, ...), which works only while
the package looks those names up at call time. A rename or a call that binds
the function early fails here rather than only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from grating_orders import figures, orders, quadrature

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_patch_point():
    originals = (orders.propagating_orders, orders.sinc_sq_at_order,
                 orders.sinc_sq_integral, orders.curve, quadrature.si, figures.curve)
    untraced = orders.curve("occupation", 1 / 16, (1.0, 3.0), 40)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        traced = orders.curve("occupation", 1 / 16, (1.0, 3.0), 40)
        # curve takes the envelope integral of all its points in one
        # sinc_sq_integral call; the scalar path is what reaches Si's patch point.
        curve_integrals = tracer.stats["quadrature.sinc_sq_integral"][0]
        share = orders.zero_order_share(2.0, 1 / 16)
        omega = orders.occupation_value(2.0, 1 / 16)
    finally:
        tracer.uninstall()
    assert (orders.propagating_orders, orders.sinc_sq_at_order, orders.sinc_sq_integral,
            orders.curve, quadrature.si, figures.curve) == originals
    assert traced.abscissa.tobytes() == untraced.abscissa.tobytes()
    assert traced.ordinate.tobytes() == untraced.ordinate.tobytes()
    assert share == orders.zero_order_share(2.0, 1 / 16)
    assert omega == orders.occupation_value(2.0, 1 / 16)
    for name in ("orders.curve", "orders.propagating_orders", "diffraction.sinc_sq_at_order",
                 "quadrature.sinc_sq_integral", "quadrature.si"):
        assert tracer.stats[name][0] > 0, name
    assert tracer.counts["orders.curve.points"] == traced.abscissa.size
    assert curve_integrals == 1


def test_traced_curve_reaches_the_scalar_rule():
    # curve takes its order counts from propagating_orders, so the tracer's
    # "orders" group is measured from a curve-only workload, not the census
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        orders.curve("zero_order_share", 1 / 16, (1.0, 3.0), 40)
    finally:
        tracer.uninstall()
    assert tracer.stats["orders.propagating_orders"][0] > 0


def test_traced_figures_reach_the_pointwise_and_writer_patch_points():
    # fig3/4 hand whole arrays to figures.sinc_sq and figures.grating_intensity,
    # fig8 builds its tables through figures.order_table, and every dataset is
    # serialized by figures.emit: all four must still be looked up at call time.
    ids = ("fig3", "fig4", "fig8")
    originals = (figures.sinc_sq, figures.grating_intensity, figures.emit, figures.order_table)
    untraced = [figures.emit(figures.build_figure(fid), fmt) for fid in ids for fmt in ("csv", "json")]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        traced = [figures.emit(figures.build_figure(fid), fmt) for fid in ids for fmt in ("csv", "json")]
    finally:
        tracer.uninstall()
    assert (figures.sinc_sq, figures.grating_intensity, figures.emit, figures.order_table) == originals
    assert traced == untraced
    for name in ("diffraction.sinc_sq", "diffraction.grating_intensity", "figures.emit",
                 "orders.order_table"):
        assert tracer.stats[name][0] > 0, name
    assert tracer.counts["figures.emit.bytes"] == sum(map(len, untraced))
