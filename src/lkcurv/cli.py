"""Command-line driver.

Commands: ``catalog list``, ``verify``, ``curvature``, ``grassmann sample``.
Exit codes: 0 all checks pass, 1 a check failed, 2 some rows were skipped
(incomplete coverage), 64 usage or input-file errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from typing import List, Optional

from .catalog.sets import ConicGraph, builtin_sets, describe, resolve_set
from .errors import ChiUnknownError, LkError, SetValidationError, UnsupportedSection
from .geomconst import ball_volume
from .grassmann import slot_frames
from .limits import DEFAULT_RADII, curvature_measures, validate_radii
from .report import report_to_csv_rows, report_to_json
from .verify import DEFAULT_SAMPLES, THEOREM_IDS, run_theorem

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCOMPLETE = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; the contract is 64
        raise UsageError(message)


def _seed(flag: Optional[int]) -> int:
    """``--seed`` if given, else ``LK_DEFAULT_SEED``, else 42; a seed is one
    64-bit word of the stream key, so it must lie in [0, 2^64)."""
    source, seed = "--seed", flag
    if flag is None:
        source, env = "LK_DEFAULT_SEED", os.environ.get("LK_DEFAULT_SEED", "42")
        try:
            seed = int(env)
        except ValueError as exc:
            raise UsageError(f"LK_DEFAULT_SEED must be an integer, got {env!r}") from exc
    if not 0 <= seed < 2**64:
        raise UsageError(f"{source} must lie in [0, 2^64), got {seed}")
    return seed


# one parser serves every call of ``main`` in a process; argparse keeps no
# state between ``parse_args`` calls
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="lkcurv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="catalog management")
    catalog_sub = p_catalog.add_subparsers(dest="subcommand", required=True)
    catalog_sub.add_parser("list", help="list built-in sets")

    p_verify = sub.add_parser("verify", help="run an identity check")
    p_verify.add_argument("--set", required=True, dest="set_ref",
                          help="builtin set name or set-definition file path")
    p_verify.add_argument("--theorem", required=True, choices=sorted(THEOREM_IDS))
    p_verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--radii", type=str, default=None,
                          help="comma-separated geometric schedule, e.g. 8,16,32,64")
    p_verify.add_argument("--out", type=str, default=None)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--workers", type=int, default=1,
                          help="accepted for compatibility; has no effect")
    p_verify.add_argument("--base-point", type=str, default=None,
                          help="comma-separated coordinates, e.g. 1,2")

    p_curv = sub.add_parser("curvature", help="curvature measure of a set in a ball")
    p_curv.add_argument("--set", required=True, dest="set_ref")
    p_curv.add_argument("--k", required=True, type=int)
    p_curv.add_argument("--radius", required=True, type=float)
    p_curv.add_argument("--seed", type=int, default=None,
                        help="accepted for compatibility; has no effect")

    p_grass = sub.add_parser("grassmann", help="random subspace utilities")
    grass_sub = p_grass.add_subparsers(dest="subcommand", required=True)
    p_sample = grass_sub.add_parser("sample", help="draw Haar-uniform subspaces")
    p_sample.add_argument("--n", required=True, type=int)
    p_sample.add_argument("--k", required=True, type=int)
    p_sample.add_argument("--samples", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=None)
    return parser


def _parse_floats(text: str, flag: str) -> List[float]:
    if any(part.strip() == "" for part in text.split(",")):
        raise UsageError(f"{flag} has an empty field in {text!r}")
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from exc


def _resolve(set_ref: str):
    try:
        return resolve_set(set_ref)
    except FileNotFoundError as exc:
        raise UsageError(f"no builtin set or readable file named {set_ref!r}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"set file {set_ref!r} is not valid JSON: {exc}") from exc
    except SetValidationError as exc:
        raise UsageError(f"set file {set_ref!r} is malformed at {exc}") from exc


def _require_scale(radius: float, k: int, flag: str) -> float:
    """b_k R^k, which normalizes an order-k measure; refused where it overflows."""
    try:
        scale = ball_volume(k) * radius**k
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise UsageError(f"{flag} {radius:g} is too large: b_k R^k overflows at k={k}")
    return scale


def _cmd_catalog_list(out) -> int:
    sets = builtin_sets()
    for name in sorted(sets):
        info = describe(sets[name])
        tag = "compact" if info["compact"] else info["kind"].replace("conic_graph", "conic")
        chi = info["chi"] if info["chi"] is not None else "?"
        print(f"{name}  n={info['ambient_dim']} d={info['dim']} chi={chi} {tag}", file=out)
    return EXIT_PASS


def _cmd_verify(args, out) -> int:
    seed = _seed(args.seed)
    radii = DEFAULT_RADII if args.radii is None else tuple(_parse_floats(args.radii, "--radii"))
    try:
        validate_radii(radii)
    except ValueError as exc:
        raise UsageError(f"--radii: {exc}") from exc
    if args.samples < 100:
        raise UsageError("--samples must be at least 100")
    base_point = (
        None if args.base_point is None else _parse_floats(args.base_point, "--base-point")
    )
    if base_point is not None and args.theorem != "base_point":
        raise UsageError("--base-point applies only to --theorem base_point")
    name, descriptor = _resolve(args.set_ref)
    _require_scale(max(radii), descriptor.ambient_dim, "--radii")
    try:
        report = run_theorem(
            args.theorem,
            descriptor,
            set_name=name,
            n_samples=args.samples,
            seed=seed,
            radii=radii,
            base_point=base_point,
        )
    except (ValueError, UnsupportedSection, ChiUnknownError, SetValidationError) as exc:
        raise UsageError(str(exc)) from exc
    except LkError as exc:
        # numerical failure (genericity budget, chart defects)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if args.format == "json":
        payload = report_to_json(report)
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerows(report_to_csv_rows(report))
        payload = buffer.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    print(payload, file=out)
    _print_summary(report, out)
    if report.status == "pass":
        return EXIT_PASS
    if report.status == "incomplete":
        return EXIT_INCOMPLETE
    return EXIT_FAIL


def _print_summary(report, out) -> None:
    for row in report.rows:
        if row.skipped:
            print(f"# k={row.k} skipped: {row.reason}", file=out)
        else:
            mark = "ok" if row.passed else "FAIL"
            print(
                f"# k={row.k} lhs={row.lhs:.6g} rhs={row.rhs:.6g} "
                f"+-{row.uncertainty:.2g} [{mark}]",
                file=out,
            )
    print(f"# overall: {report.status} ({report.elapsed_seconds:.2f}s)", file=out)


def _cmd_curvature(args, out) -> int:
    name, descriptor = _resolve(args.set_ref)
    k, radius = args.k, args.radius
    if not (math.isfinite(radius) and radius > 0):
        raise UsageError(f"--radius must be positive and finite, got {radius!r}")
    if not 0 <= k <= descriptor.ambient_dim:
        raise UsageError(f"--k must lie in [0, {descriptor.ambient_dim}]")
    scale = _require_scale(radius, k, "--radius")
    if k == 0 and isinstance(descriptor, ConicGraph):
        raise UsageError("order 0 needs the verify du_lambda0 route for cones")
    try:
        (value, err), = curvature_measures(descriptor, (k,), radius)
    except LkError as exc:
        raise UsageError(str(exc)) from exc
    except ValueError as exc:
        # the ball intervals or the cubature cannot represent a ball this large
        raise UsageError(f"--radius: {exc}") from exc
    normalized = value / scale if k >= 1 else value
    print(
        f"{name} k={k} R={radius:g} measure={value!r} normalized={normalized!r} "
        f"error_bound={err:.3g}",
        file=out,
    )
    return EXIT_PASS


def _cmd_grassmann_sample(args, out) -> int:
    seed = _seed(args.seed)
    if not 1 <= args.k <= args.n:
        raise UsageError("need 1 <= k <= n")
    if args.samples < 1:
        raise UsageError("--samples must be positive")
    for i, frame in enumerate(slot_frames(args.n, args.k, seed, args.samples)):
        doc = {"sample": i, "n": args.n, "k": args.k, "frame": frame.tolist()}
        print(json.dumps(doc), file=out)
    return EXIT_PASS


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "catalog":
            return _cmd_catalog_list(out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        if args.command == "curvature":
            return _cmd_curvature(args, out)
        if args.command == "grassmann":
            return _cmd_grassmann_sample(args, out)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
