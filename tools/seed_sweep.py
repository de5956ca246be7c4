"""Seed sweep of the Grassmannian right sides: RMSE and error-bar calibration.

Usage, from the root of a checkout:

    PYTHONPATH=src python tools/seed_sweep.py --seeds 200 --samples 4000 > sweep.json

Runs, in process, the Monte Carlo right side of the report rows that still
draw planes and have known exact values, once per seed 0, 1, ...,
seeds - 1.  Each run draws its normals from the one Philox stream of its
seed and term, so the seeds give independent estimates:

* ``star4_cone_r4 thm3.7`` row k=2: 0.5*E[chi|dim3] = 3/4, the cone over
  three quarter arcs of S^3 in ``tests/sets/star4_cone_r4.json`` (a
  hyperplane separates two points at angle theta with probability
  theta / pi); its hyperplanes are slot normals of R^4;
* ``quartic_hyperboloid_r3 thm3.7`` row k=2: 0.5*E[chi|dim2] = sqrt(2), the
  hyperboloid x^2 + y^2 - z^2 = 1 given by the quartic (x^2 + y^2 - z^2 - 1)
  (x^2 + y^2 + z^2 + 1) in ``tests/sets/quartic_hyperboloid_r3.json``; its
  sections have the quadric's ends, but a leading form of degree 4 is drawn
  over slot normals of R^3.

The hyperplane terms of cones and quadrics of R^3 are sliced quadratures,
with nothing drawn, so no row of theirs is here.

Each side is taken with its own Monte Carlo standard error sigma, not the
row's combined uncertainty, so the left side's extrapolation error does not
hide a miscalibrated sigma.  For each row it prints the RMSE against the
exact value, the mean sigma, and the distribution of |error| / sigma: its
quantiles and the share of seeds beyond 2 and 3 sigma, and the route label
each side reports.

``tests/test_calibration.py`` imports :func:`sweep` and runs it at 60 seeds
of 400 samples, with bounds fixed in advance: at most 5 seeds beyond 3 sigma
and an RMSE between 0.5 and 2 mean sigmas on every row.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

import lkcurv
from lkcurv import verify

SETS = Path(__file__).resolve().parents[1] / "tests" / "sets"

ROWS = [
    ("star4_cone_r4 thm3.7 k=2", 0.75, str(SETS / "star4_cone_r4.json")),
    ("quartic_hyperboloid_r3 thm3.7 k=2", math.sqrt(2.0), str(SETS / "quartic_hyperboloid_r3.json")),
]


def sweep(seeds: int, samples: int):
    out = []
    for label, exact, ref in ROWS:
        _, x = lkcurv.resolve_set(ref)
        errors, sigmas, route = [], [], None
        start = time.perf_counter()
        for seed in range(seeds):
            value, sigma, route = verify._growth_rhs(
                x, 2, verify.RunContext(n_samples=samples, seed=seed))
            errors.append(value - exact)
            sigmas.append(sigma)
        errors, sigmas = np.array(errors), np.array(sigmas)
        z = np.abs(errors) / np.where(sigmas > 0, sigmas, np.nan)
        z[(sigmas == 0) & (errors == 0)] = 0.0
        z[np.isnan(z)] = np.inf
        out.append({
            "row": label,
            "exact": exact,
            "route": route,
            "seeds": seeds,
            "samples": samples,
            "rmse": float(np.sqrt(np.mean(errors ** 2))),
            "mean_error": float(np.mean(errors)),
            "mean_sigma": float(np.mean(sigmas)),
            "z_quantiles": {q: float(np.quantile(z, float(q))) for q in ("0.5", "0.9", "0.99")},
            "share_beyond_2sigma": float(np.mean(z > 2.0)),
            "share_beyond_3sigma": float(np.mean(z > 3.0)),
            "seconds": round(time.perf_counter() - start, 2),
        })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200)
    parser.add_argument("--samples", type=int, default=4000)
    args = parser.parse_args(argv)
    json.dump({"numpy": np.__version__, "rows": sweep(args.seeds, args.samples)},
              sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
