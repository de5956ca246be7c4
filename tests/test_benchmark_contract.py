"""The names the benchmark under ``perfbench/`` resolves in the library.

Its tracing looks module attributes up by name and wraps them, and its probe
calls ``lkcurv.grassmann_mean`` with ``lkcurv.link_chi`` at one and two
workers.  A renamed or deleted name breaks ``perfbench/run.py --trace 1``
with an ``AttributeError``; these tests catch that here.
"""

import importlib
from pathlib import Path

import numpy as np

import lkcurv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_tracing_installs_and_restores_every_attribute(monkeypatch, sets):
    tracing = _tracing(monkeypatch)
    from lkcurv.catalog.polynomial import Poly

    owners = []  # (owner, attribute) pairs the tracing may patch
    for _, source, attr, consumers, _ in tracing._boundaries(tracing.Tracer()):
        owners.append((importlib.import_module(source), attr))
        owners += [(importlib.import_module(consumer), attr) for consumer in consumers]
    owners += [(Poly, "compose_affine"), (importlib.import_module("lkcurv.curvature"),
                                          "gauss_legendre_nodes")]
    before = [getattr(owner, attr, None) for owner, attr in owners]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        during = [getattr(owner, attr, None) for owner, attr in owners]
        # one traced link reads LinkSection.stable and .radius_used, and
        # links.BASE_RADIUS_FACTOR and links.coefficient_scale
        plane = lkcurv.Subspace(3, 2, np.eye(3)[:2])
        assert lkcurv.link_chi(sets["hyperboloid_r3"], plane) == 0
    after = [getattr(owner, attr, None) for owner, attr in owners]
    assert any(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))
    assert tracer.counts["catalog.link_calls"] == 1
    assert tracer.counts["catalog.link_sections"] == 1


def test_probe_mean_is_bit_identical_at_two_workers(sets):
    x = sets["hyperboloid_r3"]
    runs = [lkcurv.grassmann_mean(3, 2, lambda h: lkcurv.link_chi(x, h), 200, 42,
                                  workers=w, collect=True) for w in (1, 2)]
    first, second = runs
    assert (first.mean, first.stderr, first.n_rejected) == (
        second.mean, second.stderr, second.n_rejected)
    assert np.array_equal(first.values, second.values)
