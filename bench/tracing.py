"""Layer tracing for the benchmark, installed from outside the package.

A :class:`Tracer` replaces selected module attributes of ``grating_orders``
with timing wrappers. Call sites inside the package look those names up at
call time, so the wrappers see every call made through them without any
change to program code. Coarse calls (a figure build, a curve, a dataset
write) are kept as spans: name, start, end, parent span and op id. Calls
that run hundreds of thousands of times per op (``si``,
``sinc_sq_at_order``, ``propagating_orders``) are only counted and their
self time aggregated in memory.

A layer's self time is its wall time minus the time spent in wrapped calls
it made. ``curve`` reaches the scalar functions through a table of function
references (``orders._CURVE_FUNCS``) that the wrappers cannot see, so the
self time of ``orders.curve`` is the order-sum loop plus per-point overhead.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

# quadrature.si takes the power series up to this |x|, the continued
# fraction beyond it.
SI_SERIES_MAX = 16.0


class NullTracer:
    """Used by untraced runs: every call goes straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def paused(self):
        return contextlib.nullcontext()


class Tracer:
    """Spans for coarse calls and counters for hot ones, kept in memory."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent span index, op id)
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.walls = defaultdict(list)  # coarse name -> wall seconds per call
        self.counts = defaultdict(int)
        self.op_id = None
        self._frames = []  # open calls: [seconds spent in wrapped children, span index]
        self._curves = []  # open curve calls: [orders summed, largest order count]
        self._in_si = False
        self._patches = []  # (module, attribute, original, wrapper)
        self._installed = False

    # -- recording -------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a span named ``name`` and return its result."""
        frames = self._frames
        parent = frames[-1][1] if frames else None
        index = len(self.spans)
        self.spans.append(None)
        frame = [0.0, index]
        frames.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            frames.pop()
            elapsed = t1 - t0
            if frames:
                frames[-1][0] += elapsed
            self.spans[index] = (name, t0, t1, parent, self.op_id)
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += elapsed - frame[0]
            self.walls[name].append(elapsed)

    def _leaf(self, name, fn):
        """Wrapper for a hot call that makes no wrapped calls itself."""
        frames = self._frames
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stat[0] += 1
                stat[1] += elapsed
                if frames:
                    frames[-1][0] += elapsed

        return wrapper

    def _nested(self, name, fn):
        """Wrapper for a hot call whose wrapped children are subtracted."""
        frames = self._frames
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            frame = [0.0, frames[-1][1] if frames else None]
            frames.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                frames.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed

        return wrapper

    def _si(self, fn):
        # si(-x) calls si(x) through the module global, which is this
        # wrapper: the inner call runs unrecorded so each Si counts once.
        frames = self._frames
        stat = self.stats["quadrature.si"]
        counts = self.counts

        def wrapper(x):
            if self._in_si:
                return fn(x)
            self._in_si = True
            t0 = perf_counter()
            try:
                return fn(x)
            finally:
                elapsed = perf_counter() - t0
                self._in_si = False
                stat[0] += 1
                stat[1] += elapsed
                if frames:
                    frames[-1][0] += elapsed
                if abs(x) <= SI_SERIES_MAX:
                    counts["quadrature.si.series_calls"] += 1
                else:
                    counts["quadrature.si.cf_calls"] += 1

        return wrapper

    def _propagating_orders(self, fn):
        leaf = self._leaf("orders.propagating_orders", fn)
        counts = self.counts
        curves = self._curves

        def wrapper(*args, **kwargs):
            orders = leaf(*args, **kwargs)
            n = orders[-1]
            counts["orders.orders_summed"] += n
            if curves:
                acc = curves[-1]
                acc[0] += n
                acc[1] = max(acc[1], n)
            return orders

        return wrapper

    def _curve(self, fn):
        def wrapper(kind, sigma, alpha_range, samples, *args, **kwargs):
            acc = [0, 0]
            self._curves.append(acc)
            try:
                c = self.call("orders.curve", fn, kind, sigma, alpha_range, samples, *args, **kwargs)
            finally:
                self._curves.pop()
            self.counts["orders.curve.points"] += c.abscissa.size
            self.counts["orders.curve.threshold_points"] += c.abscissa.size - samples
            self.counts["curve.orders_summed"] += acc[0]
            self.counts["curve.distinct_orders"] += acc[1]
            return c

        return wrapper

    def _emit(self, fn):
        def wrapper(*args, **kwargs):
            payload = self.call("figures.emit", fn, *args, **kwargs)
            self.counts["figures.emit.bytes"] += len(payload)
            return payload

        return wrapper

    def _coarse(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _pulse_train(self, fn):
        def wrapper(*args, **kwargs):
            train = self.call("coupling.synthesize_pulse_train", fn, *args, **kwargs)
            self.counts["coupling.samples"] += train.blocked.size + train.coupled.size
            return train

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap the traced attributes of the already imported package."""
        if not self._patches:
            from grating_orders import coupling, figures, orders, quadrature

            plan = [
                (orders, "propagating_orders", self._propagating_orders),
                (orders, "sinc_sq_at_order", lambda f: self._leaf("diffraction.sinc_sq_at_order", f)),
                (orders, "sinc_sq_integral", lambda f: self._nested("quadrature.sinc_sq_integral", f)),
                (orders, "curve", self._curve),
                (quadrature, "si", self._si),
                (figures, "curve", self._curve),
                (figures, "emit", self._emit),
                (figures, "grating_intensity", lambda f: self._leaf("diffraction.grating_intensity", f)),
                (figures, "sinc_sq", lambda f: self._leaf("diffraction.sinc_sq", f)),
                (figures, "order_table", lambda f: self._coarse("orders.order_table", f)),
                (coupling, "synthesize_pulse_train", self._pulse_train),
            ]
            for module, attr, make in plan:
                original = getattr(module, attr)
                self._patches.append((module, attr, original, make(original)))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        self._installed = True

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        self._installed = False

    @contextlib.contextmanager
    def paused(self):
        """Run output checks with the original functions, unrecorded."""
        if not self._installed:
            yield
            return
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def write_spans(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def _median_ms(values):
    return statistics.median(values) * 1e3 if values else 0.0


# Per-layer metrics by group. A traced run that never reaches a group (its
# probe statistic has no calls) takes that group's values from the census.
# name -> (unit, group, getter)
def _stat_calls(name):
    return lambda t: t.stats[name][0]


def _stat_self(name, scale):
    return lambda t: t.stats[name][1] * scale


def _count(name):
    return lambda t: t.counts[name]


def _wall_median(name):
    return lambda t: _median_ms(t.walls[name])


def _resum_ratio(t):
    distinct = t.counts["curve.distinct_orders"]
    return t.counts["curve.orders_summed"] / distinct if distinct else 0.0


CLI_KINDS = ("figure", "table", "omega", "experiment", "sweep", "rejected")

LAYER_METRICS = {
    "cli.interpreter_ms": ("ms", "cli.base", _wall_median("cli.interpreter")),
    "cli.import_ms": ("ms", "cli.base", _wall_median("cli.import")),
    **{f"cli.{k}.wall_ms": ("ms", "cli", _wall_median(f"cli.{k}")) for k in CLI_KINDS},
    **{
        f"figures.build_figure.fig{i}_ms": ("ms", "figures", _wall_median(f"figures.build_figure.fig{i}"))
        for i in range(3, 10)
    },
    "figures.emit.self_ms": ("ms", "figures", _stat_self("figures.emit", 1e3)),
    "figures.emit.bytes": ("bytes", "figures", _count("figures.emit.bytes")),
    "figures.write_dataset.self_ms": ("ms", "figures", _stat_self("figures.write_dataset", 1e3)),
    "orders.curve.calls": ("count", "orders.curve", _stat_calls("orders.curve")),
    "orders.curve.points": ("count", "orders.curve", _count("orders.curve.points")),
    "orders.curve.threshold_points": ("count", "orders.curve", _count("orders.curve.threshold_points")),
    "orders.curve.self_s": ("s", "orders.curve", _stat_self("orders.curve", 1.0)),
    "orders.resum_ratio": ("ratio", "orders.curve", _resum_ratio),
    "orders.propagating_orders.calls": ("count", "orders", _stat_calls("orders.propagating_orders")),
    "orders.propagating_orders.self_s": ("s", "orders", _stat_self("orders.propagating_orders", 1.0)),
    "orders.orders_summed": ("count", "orders", _count("orders.orders_summed")),
    "orders.scalar.calls": ("count", "orders.scalar", _stat_calls("orders.scalar")),
    "orders.scalar.self_ms": ("ms", "orders.scalar", _stat_self("orders.scalar", 1e3)),
    "orders.order_table.ms": ("ms", "orders.order_table", lambda t: sum(t.walls["orders.order_table"]) * 1e3),
    "quadrature.si.calls": ("count", "orders", _stat_calls("quadrature.si")),
    "quadrature.si.series_calls": ("count", "orders", _count("quadrature.si.series_calls")),
    "quadrature.si.cf_calls": ("count", "orders", _count("quadrature.si.cf_calls")),
    "quadrature.si.self_s": ("s", "orders", _stat_self("quadrature.si", 1.0)),
    "quadrature.sinc_sq_integral.calls": ("count", "orders", _stat_calls("quadrature.sinc_sq_integral")),
    "quadrature.sinc_sq_integral.self_s": ("s", "orders", _stat_self("quadrature.sinc_sq_integral", 1.0)),
    "diffraction.sinc_sq_at_order.calls": ("count", "orders", _stat_calls("diffraction.sinc_sq_at_order")),
    "diffraction.sinc_sq_at_order.self_s": ("s", "orders", _stat_self("diffraction.sinc_sq_at_order", 1.0)),
    "diffraction.grating_intensity.calls": ("count", "pointwise", _stat_calls("diffraction.grating_intensity")),
    "diffraction.grating_intensity.self_s": ("s", "pointwise", _stat_self("diffraction.grating_intensity", 1.0)),
    "diffraction.sinc_sq.calls": ("count", "pointwise", _stat_calls("diffraction.sinc_sq")),
    "diffraction.sinc_sq.self_s": ("s", "pointwise", _stat_self("diffraction.sinc_sq", 1.0)),
    "coupling.synthesize_pulse_train.calls": ("count", "coupling", _stat_calls("coupling.synthesize_pulse_train")),
    "coupling.synthesize_pulse_train.self_ms": ("ms", "coupling", _stat_self("coupling.synthesize_pulse_train", 1e3)),
    "coupling.samples": ("count", "coupling", _count("coupling.samples")),
}

# The statistic whose call count says a traced run reached the group.
GROUP_PROBES = {
    "cli.base": "cli.interpreter",
    "cli": "cli.omega",
    "figures": "figures.build_figure.fig3",
    "orders.curve": "orders.curve",
    "orders": "orders.propagating_orders",
    "orders.scalar": "orders.scalar",
    "orders.order_table": "orders.order_table",
    "pointwise": "diffraction.grating_intensity",
    "coupling": "coupling.synthesize_pulse_train",
}


def layer_metrics(workload: Tracer, census: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, with unreached groups from the census.

    Returns the metrics and the names of the groups taken from the census.
    """
    from_census = sorted(g for g, probe in GROUP_PROBES.items() if not workload.stats[probe][0])
    metrics = {}
    for name, (unit, group, get) in LAYER_METRICS.items():
        source = census if group in from_census else workload
        metrics[name] = (float(get(source)), unit)
    return metrics, from_census
