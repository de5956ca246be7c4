"""The Gauss-Legendre rule behind chart cubature, and the dependency it replaced."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lkcurv.catalog.charts import _gl_rule
from lkcurv.curvature import CubatureSpec

SRC = Path(__file__).resolve().parents[1] / "src"


def cubature_counts():
    """Every rule size the cubature asks for: the per-panel counts of
    ``gauss_legendre_nodes`` (6 to 64) and the whole-axis counts of the default
    ``CubatureSpec`` and its halving."""
    counts = set(range(6, 65))
    for spec in (CubatureSpec(), CubatureSpec().halved()):
        counts.update((spec.count(1), spec.count(2)))
    return sorted(counts | {256, 512})


@pytest.mark.parametrize("count", cubature_counts())
def test_rule_is_exact_to_degree_2n_minus_1(count):
    x, w = _gl_rule(count)
    assert x.shape == w.shape == (count,)
    assert not (x.flags.writeable or w.flags.writeable)  # cached and shared
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert np.all(w > 0)
    assert abs(w.sum() - 2.0) <= 1e-14
    j = np.arange(2 * count)
    moments = (w[:, None] * x[:, None] ** j).sum(axis=0)
    exact = np.where(j % 2 == 0, 2.0 / (j + 1), 0.0)
    assert np.max(np.abs(moments - exact)) <= 1e-14


def test_cli_import_loads_no_scipy():
    code = ("import sys, lkcurv, lkcurv.cli; lkcurv.builtin_sets(); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert out.stdout.strip() == "[]"
