"""lkcurv benchmark: one workload, one process, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload smooth_links --seed 42 --seconds 35 --trace 0

Each case of the workload goes through ``lkcurv.cli.main(argv, out=buffer)``
in this process, back to back, with ``--seed`` appended; the printed report
is parsed and checked.  Every case runs once; then, while time is left in
``--seconds``, the case with the fewest runs among those whose fastest run
still fits runs again.  ``wall_s`` sums the fastest run of each case.  With
``--trace 0`` the last line holds the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced pass, set against an untraced
pass made in the same process.

The program is imported from ``src/`` of the checkout and nowhere else; when
it is missing the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import List, Optional

import stats
import tracing
from workloads import PLANE_R2_IN_R4, WORKLOADS, Case

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPS = 7
PROBE_SAMPLES = 500

# one fresh interpreter: import lkcurv, build the builtin catalog, read a set file
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import lkcurv; "
    "lkcurv.builtin_sets(); lkcurv.resolve_set(sys.argv[2]); print(lkcurv.__file__)"
)
MEASURE_LINE = re.compile(r"measure=(\S+) normalized=(\S+) error_bound=(\S+)")
PIECE = re.compile(r"(?:^|[;+])([A-Za-z_]\w*)=([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?=$|[;+])")


class BenchError(Exception):
    pass


def import_program():
    if not (SRC / "lkcurv" / "__init__.py").is_file():
        raise BenchError(f"no lkcurv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lkcurv
    import lkcurv.cli
    import lkcurv.report

    if Path(lkcurv.__file__).resolve().parent != SRC / "lkcurv":
        raise BenchError(f"lkcurv was imported from {lkcurv.__file__}, not {SRC}")
    return lkcurv


def measure_setup(reps: int) -> List[float]:
    """Wall time of fresh interpreters doing the set-up every CLI call pays.

    One extra interpreter runs first and is not counted: it writes the
    bytecode caches, which users pay once, not on every call.
    """
    times = []
    for rep in range(reps + 1):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(PLANE_R2_IN_R4)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        elapsed = perf_counter() - start
        if proc.returncode != 0 or not proc.stdout.strip().startswith(str(SRC)):
            raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()[-400:]}")
        if rep:
            times.append(elapsed)
    return times


# ------------------------------------------------------------------- one case

@dataclass
class Outcome:
    seconds: float
    ok: bool
    errors: List[float] = field(default_factory=list)  # deterministic refs
    covers: List[bool] = field(default_factory=list)   # sampled refs with an uncertainty


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _report_values(lk, case: Case, seed: int, text: str, problems: List[str]):
    """Check a verify report; return {where: (value, uncertainty or None)}."""
    doc, _ = json.JSONDecoder().raw_decode(text)
    if doc.get("status") != "pass":
        problems.append(f"status {doc.get('status')!r}, expected 'pass'")
    if doc.get("seed") != seed or doc.get("set") != case.argv[2]:
        problems.append(f"report names set {doc.get('set')!r} seed {doc.get('seed')!r}")
    report = lk.report.report_from_dict(doc)
    if json.dumps(lk.report.report_to_dict(report), sort_keys=True) != json.dumps(doc, sort_keys=True):
        problems.append("report does not round-trip through report_from_dict")
    values = {}
    for row in doc["rows"]:
        if not _finite(row["lhs"], row["rhs"], row["uncertainty"]):
            problems.append(f"row k={row['k']} is not finite")
            continue
        values[("lhs", row["k"])] = (row["lhs"], row["uncertainty"])
        values[("rhs", row["k"])] = (row["rhs"], row["uncertainty"])
        for name, number in PIECE.findall(row["route_rhs"]):
            values[("piece", row["k"], name)] = (float(number), None)
    return values


def _measure_values(text: str, problems: List[str]):
    match = MEASURE_LINE.search(text)
    if match is None:
        problems.append("no measure line in the output")
        return {}
    value, _, bound = (float(part) for part in match.groups())
    if not _finite(value, bound):
        problems.append("measure is not finite")
    return {("measure",): (value, bound)}


def run_case(lk, case: Case, seed: int, tracer: Optional[tracing.Tracer] = None) -> Outcome:
    argv = list(case.argv) + ["--seed", str(seed)]
    buffer = io.StringIO()
    start = perf_counter()
    try:
        if tracer is None:
            code = lk.cli.main(argv, out=buffer)
        else:
            code = tracer.call("cli.main", lk.cli.main, argv, out=buffer)
    except Exception:
        print(f"case {case.name}: raised\n{traceback.format_exc()}", file=sys.stderr)
        return Outcome(perf_counter() - start, ok=False)
    seconds = perf_counter() - start

    problems: List[str] = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    text = buffer.getvalue()
    try:
        if case.is_report:
            values = _report_values(lk, case, seed, text, problems)
        else:
            values = _measure_values(text, problems)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
        values = {}

    outcome = Outcome(seconds, ok=True)
    for ref in case.refs:
        if ref.where not in values:
            problems.append(f"no value at {ref.where}")
            continue
        value, uncertainty = values[ref.where]
        if not ref.sampled:
            outcome.errors.append(abs(value - ref.exact))
        elif uncertainty is not None:
            outcome.covers.append(stats.covered(value, ref.exact, uncertainty))
    if problems:
        outcome.ok = False
        for problem in problems:
            print(f"case {case.name}: {problem}", file=sys.stderr)
    return outcome


def run_pass(lk, cases, seed, tracer=None) -> List[Outcome]:
    return [run_case(lk, case, seed, tracer) for case in cases]


def pass_seconds(outcomes: List[Outcome]) -> float:
    return sum(o.seconds for o in outcomes)


# --------------------------------------------------------------------- modes

def end_to_end(lk, cases, seed: int, seconds: float):
    setup = measure_setup(SETUP_REPS)
    runs: List[List[Outcome]] = [[] for _ in cases]  # every run of each case
    start = perf_counter()
    while True:
        left = seconds - (perf_counter() - start)
        fits = [i for i, r in enumerate(runs) if not r or min(o.seconds for o in r) <= left]
        if not fits:
            break
        i = min(fits, key=lambda i: len(runs[i]))  # the first case with the fewest runs
        runs[i].append(run_case(lk, cases[i], seed))
    outcomes = [o for case_runs in runs for o in case_runs]
    failed = sum(not o.ok for o in outcomes)
    errors = [e for o in outcomes for e in o.errors]
    print(f"# runs per case: {[len(r) for r in runs]}, "
          f"fastest run per case (s): {[round(min(o.seconds for o in r), 3) for r in runs]}")
    print(f"# set-up interpreters: {len(setup)}, walls (s): {[round(t, 3) for t in setup]}")
    metrics = {
        "setup_s": (stats.median(setup), "s"),
        "wall_s": (stats.fastest_pass([[o.seconds for o in r] for r in runs]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - stats.ratio(failed, len(outcomes)), "ratio"),
        "max_abs_err": (max(errors, default=0.0), "abs"),
        "covered_frac": (stats.covered_frac(c for o in outcomes for c in o.covers), "ratio"),
    }
    return metrics, len(outcomes), failed


def workers2_probe(lk, seed: int):
    """One Grassmannian mean at workers=1 and workers=2: time ratio, bit-identity."""
    x = lk.builtin_sets()["hyperboloid_r3"]
    runs = {}
    try:
        for workers in (1, 2):
            start = perf_counter()
            est = lk.grassmann_mean(3, 2, lambda h: lk.link_chi(x, h), PROBE_SAMPLES, seed,
                                    workers=workers, collect=True)
            runs[workers] = (perf_counter() - start, est)
    except Exception:
        print(f"workers=2 probe: raised\n{traceback.format_exc()}", file=sys.stderr)
        return 0.0, False
    (t1, e1), (t2, e2) = runs[1], runs[2]
    identical = (e1.mean == e2.mean and e1.stderr == e2.stderr
                 and e1.n_rejected == e2.n_rejected and bool((e1.values == e2.values).all()))
    if not identical:
        print(f"workers=2 probe: mean {e2.mean!r} differs from workers=1 {e1.mean!r}",
              file=sys.stderr)
    return t2 / t1, identical


def per_layer(lk, cases, seed: int, seconds: float):
    tracer = tracing.Tracer()
    plain: List[float] = []
    traced: List[float] = []
    outcomes: List[Outcome] = []
    start = perf_counter()
    while True:
        first = run_pass(lk, cases, seed)
        with tracing.installed(tracer):
            second = run_pass(lk, cases, seed, tracer)
        outcomes += first + second
        plain.append(pass_seconds(first))
        traced.append(pass_seconds(second))
        pair = stats.median(plain) + stats.median(traced)
        if perf_counter() - start + pair > seconds:
            break
    workers2_ratio, identical = workers2_probe(lk, seed)
    attempted = len(outcomes) + 1
    failed = sum(not o.ok for o in outcomes) + (not identical)

    n = len(traced)
    self_s = {name: total / n for name, total in stats.self_times(tracer.spans).items()}
    counts = {name: total / n for name, total in tracer.counts.items()}

    def s(layer):
        return (self_s.get(layer, 0.0), "s")

    def count(key):
        value = counts.get(key, 0.0)
        return (int(value) if value.is_integer() else value, "count")

    curvature_s = self_s.get("curvature.measure_codim1", 0.0) + self_s.get(
        "curvature.measure_codim2", 0.0)
    metrics = {
        "grassmann.draw_s": s("grassmann.draw"),
        "grassmann.draws": count("grassmann.draws"),
        "grassmann.mean_s": s("grassmann.mean"),
        "grassmann.rejected": count("grassmann.rejected"),
        "grassmann.accept_ratio": (stats.accept_ratio(
            counts.get("grassmann.samples", 0.0), counts.get("grassmann.rejected", 0.0)), "ratio"),
        "grassmann.workers2_ratio": (workers2_ratio, "ratio"),
        "catalog.link_s": s("catalog.link"),
        "catalog.link_calls": count("catalog.link_calls"),
        "catalog.link_unstable": count("catalog.link_unstable"),
        "catalog.link_degenerate": count("catalog.link_degenerate"),
        "catalog.link_doublings_mean": (stats.ratio(
            counts.get("catalog.link_doublings", 0.0),
            counts.get("catalog.link_sections", 0.0)),
            "doublings"),
        "catalog.compose_affine_s": s("catalog.compose_affine"),
        "spherical.conic_s": s("spherical.conic"),
        "curvature.measure_codim1_s": s("curvature.measure_codim1"),
        "curvature.measure_codim2_s": s("curvature.measure_codim2"),
        "curvature.measure_calls": count("curvature.measure_calls"),
        "curvature.nodes": count("curvature.nodes"),
        "curvature.nodes_per_s": (stats.ratio(counts.get("curvature.nodes", 0.0), curvature_s),
                                  "1/s"),
        "limits.estimate_s": s("limits.estimate"),
        "limits.estimate_calls": count("limits.estimate_calls"),
        "limits.not_converged": count("limits.not_converged"),
        "verify.assemble_s": s("verify.assemble"),
        "report.serialize_s": s("report.serialize"),
        "trace.wall_s": (stats.median(traced), "s"),
        "trace.overhead_ratio": (stats.median(traced) / stats.median(plain), "ratio"),
    }
    wall = stats.median(traced)
    print(f"# pairs of passes: {n}, untraced walls (s): {[round(w, 3) for w in plain]}, "
          f"traced walls (s): {[round(w, 3) for w in traced]}")
    print(f"# spans: {len(tracer.spans)}; self time per traced pass, share of its wall:")
    for name, value in sorted(self_s.items(), key=lambda item: -item[1]):
        print(f"#   {name:28s} {value:10.4f} s  {100.0 * value / wall:6.2f} %")
    return metrics, attempted, failed


def environment_line(lk) -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = ", ".join(
        f"{var}={os.environ.get(var, 'unset')}"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    )
    return (f"# env: python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"blas {blas_name} ({threads}; unset means the library default), "
            f"cpus {len(os.sched_getaffinity(0))}, lkcurv {lk.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lk = import_program()
        print(environment_line(lk))
        cases = WORKLOADS[args.workload]
        print(f"# workload {args.workload}: {len(cases)} cases, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}")
        mode = per_layer if args.trace else end_to_end
        metrics, attempted, failed = mode(lk, cases, args.seed, args.seconds)
    except (BenchError, ImportError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
