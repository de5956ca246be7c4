"""Spans and counters around the calls where one lkcurv layer calls the next.

Nothing under ``src/`` knows about tracing.  :func:`installed` replaces the
module attributes through which a layer reaches the next one with wrappers
that record a span (name, start, end, parent) and a few counters, and puts
the originals back on exit.  Spans stay in memory; the runner turns them into
per-layer self times with :func:`stats.self_times`.

The wrappers assume one thread: the span stack is shared.  The runner never
traces the ``workers=2`` probe.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount


def _wrap(tracer: Tracer, fn: Callable, name, observe: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        try:
            result = tracer.call(label, fn, *args, **kwargs)
        except Exception as exc:
            if observe is not None:
                observe(args, None, exc)
            raise
        if observe is not None:
            observe(args, result, None)
        return result

    return wrapper


def _boundaries(tracer: Tracer):
    """(layer, source module, attribute, consumer modules, observe) rows."""
    from lkcurv.catalog import links
    from lkcurv.errors import DegenerateSample

    add = tracer.add
    link_r0: Dict[int, float] = {}

    def on_mean(args, est, exc):
        if est is not None:
            add("grassmann.samples", est.n_samples)
            add("grassmann.rejected", est.n_rejected)

    def on_draw(args, result, exc):
        add("grassmann.draws")

    def on_link(args, section, exc):
        add("catalog.link_calls")
        if isinstance(exc, DegenerateSample):
            add("catalog.link_degenerate")
        if section is None:
            return
        add("catalog.link_sections")
        if not section.stable:
            add("catalog.link_unstable")
        x = args[0]
        r0 = link_r0.get(id(x))
        if r0 is None:
            r0 = link_r0[id(x)] = links.BASE_RADIUS_FACTOR * links.coefficient_scale(x)
        add("catalog.link_doublings", math.log2(section.radius_used / r0))

    def measure_name(args, kwargs):
        x = args[0]
        return "curvature.measure_codim%d" % min(x.ambient_dim - x.dim, 2)

    def on_measure(args, result, exc):
        add("curvature.measure_calls")

    def on_estimate(args, est, exc):
        if est is not None:
            add("limits.estimate_calls")
            add("limits.not_converged", int(not est.converged))

    def on_fit(args, fit, exc):
        if fit is not None:
            add("limits.estimate_calls")
            add("limits.not_converged", int(not fit[2]))

    return [
        ("verify.assemble", "lkcurv.verify", "run_theorem", ["lkcurv.cli"], None),
        ("grassmann.mean", "lkcurv.grassmann", "grassmann_mean", ["lkcurv.verify"], on_mean),
        ("grassmann.draw", "lkcurv.grassmann", "haar_sample", ["lkcurv.grassmann"], on_draw),
        ("catalog.link", "lkcurv.catalog.links", "link_chi", ["lkcurv.verify"], None),
        ("catalog.link", "lkcurv.catalog.links", "link_infinity_chi",
         ["lkcurv.catalog.links"], on_link),
        ("spherical.conic", "lkcurv.spherical", "conic_lk_measure_detailed",
         ["lkcurv.spherical", "lkcurv.limits", "lkcurv.cli"], None),
        (measure_name, "lkcurv.curvature", "lk_measure_detailed",
         ["lkcurv.limits", "lkcurv.verify", "lkcurv.cli"], on_measure),
        ("limits.estimate", "lkcurv.limits", "estimate_limit", ["lkcurv.verify"], on_estimate),
        ("limits.estimate", "lkcurv.limits", "fit_limit_sequence", ["lkcurv.verify"], on_fit),
        ("report.serialize", "lkcurv.report", "report_to_json", ["lkcurv.cli"], None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer boundary for the duration of the block."""
    from lkcurv.catalog.polynomial import Poly

    saved = []  # (owner, attribute, original)

    def patch(owner, attr, original, wrapper):
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    try:
        for name, source, attr, consumers, observe in _boundaries(tracer):
            original = getattr(importlib.import_module(source), attr)
            wrapper = _wrap(tracer, original, name, observe)
            for consumer in consumers:
                owner = importlib.import_module(consumer)
                if getattr(owner, attr, None) is original:
                    patch(owner, attr, original, wrapper)
                else:
                    print(f"warning: {consumer}.{attr} is not {source}.{attr}; "
                          f"calls through it are not traced", file=sys.stderr)
        compose = Poly.compose_affine
        patch(Poly, "compose_affine", compose,
              _wrap(tracer, compose, "catalog.compose_affine", None))

        charts = importlib.import_module("lkcurv.catalog.charts")
        curvature = importlib.import_module("lkcurv.curvature")
        nodes_fn = charts.gauss_legendre_nodes

        @functools.wraps(nodes_fn)
        def counted_nodes(*args, **kwargs):
            result = nodes_fn(*args, **kwargs)
            tracer.add("curvature.nodes", len(result[0]))
            return result

        if getattr(curvature, "gauss_legendre_nodes", None) is nodes_fn:
            patch(curvature, "gauss_legendre_nodes", nodes_fn, counted_nodes)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
