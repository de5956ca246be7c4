"""Golden verify reports: every builtin set under every theorem id.

Each case runs ``lkcurv verify`` through ``lkcurv.cli.main`` at
``--samples 200 --seed 42`` with the default radii; ``base_point`` adds
``--base-point 0.5,...,0.5``. A case that prints a report stores it as
``<set>.<theorem>.json`` with ``elapsed_seconds`` zeroed, and
``manifest.json`` holds the exit code of every case.
``tests/test_golden.py`` compares the current code against these files.

A change that is meant to move a number first measures how far the goldens
drift with

    PYTHONPATH=src python tests/golden/regen.py --report

which writes nothing. For each golden that differs it prints the largest
absolute change of a number, the largest relative change over numbers with
|v| >= 1e-9, and every changed exit code, status or ``route_*`` string; it
exits 1 when an exit code or a status changes. The change then rewrites the
goldens with

    PYTHONPATH=src python tests/golden/regen.py

and lists every golden it changed in CHANGES.md.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from lkcurv import builtin_sets, cli
from lkcurv.report import report_from_dict, report_to_json
from lkcurv.verify import THEOREM_IDS

GOLDEN_DIR = Path(__file__).resolve().parent
MANIFEST = GOLDEN_DIR / "manifest.json"


def cases() -> Iterator[Tuple[str, str]]:
    sets = builtin_sets()
    for name in sorted(sets):
        for theorem in THEOREM_IDS:
            yield name, theorem


def case_id(name: str, theorem: str) -> str:
    return f"{name}.{theorem}"


def golden_path(name: str, theorem: str) -> Path:
    return GOLDEN_DIR / f"{case_id(name, theorem)}.json"


def run_case(name: str, theorem: str, samples: int = 200,
             seed: int = 42) -> Tuple[int, Optional[str]]:
    """Exit code and normalized report text (None when no report is printed)."""
    argv = ["verify", "--set", name, "--theorem", theorem, "--samples", str(samples),
            "--seed", str(seed)]
    if theorem == "base_point":
        dim = builtin_sets()[name].ambient_dim
        argv += ["--base-point", ",".join(["0.5"] * dim)]
    out = io.StringIO()
    code = cli.main(argv, out=out)
    # the JSON payload comes first; the summary lines after it start with '#'
    payload = out.getvalue().split("\n#", 1)[0].strip()
    if not payload:
        return code, None
    report = report_from_dict(json.loads(payload))
    report.elapsed_seconds = 0.0
    return code, report_to_json(report) + "\n"


# report fields whose change is a change of verdict, not of a number
STATUS_KEYS = ("status", "overall_pass", "pass", "skipped")
RELATIVE_FLOOR = 1e-9


def _drift(old, new, path: str, found: dict) -> None:
    """Walk two reports in step and record how they differ under ``found``."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            _drift(old[key], new[key], f"{path}.{key}" if path else key, found)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            _drift(a, b, f"{path}[{i}]", found)
    elif (isinstance(old, float) and isinstance(new, float)
          and not isinstance(old, bool) and not isinstance(new, bool)):
        delta = abs(new - old)
        found["abs"] = max(found["abs"], delta)
        if abs(old) >= RELATIVE_FLOOR:
            found["rel"] = max(found["rel"], delta / abs(old))
    elif old != new:
        key = path.rsplit(".", 1)[-1]
        kind = "status" if key in STATUS_KEYS else "text"
        found[kind].append(f"{path}: {old!r} -> {new!r}")


def report_drift() -> int:
    """Print how the current code's reports differ from the goldens."""
    stored = json.loads(MANIFEST.read_text(encoding="utf-8"))
    changed, verdicts = 0, 0
    worst_abs, worst_rel = 0.0, 0.0
    for name, theorem in cases():
        cid = case_id(name, theorem)
        code, text = run_case(name, theorem)
        path = golden_path(name, theorem)
        old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else None
        new = json.loads(text) if text is not None else None
        found = {"abs": 0.0, "rel": 0.0, "status": [], "text": []}
        if code != stored.get(cid):
            found["status"].append(f"exit code: {stored.get(cid)} -> {code}")
        if (old is None) != (new is None):
            found["status"].append(f"report: {'none' if old is None else 'printed'} -> "
                                   f"{'none' if new is None else 'printed'}")
        elif old is not None:
            _drift(old, new, "", found)
        lines: List[str] = found["status"] + found["text"]
        if found["abs"] == 0.0 and not lines:
            continue
        changed += 1
        verdicts += len(found["status"])
        worst_abs, worst_rel = max(worst_abs, found["abs"]), max(worst_rel, found["rel"])
        print(f"{cid}: max |d| {found['abs']:.3g}, max rel d {found['rel']:.3g}")
        for line in lines:
            print(f"    {line}")
    print(f"{changed} of {len(stored)} cases differ; max |d| {worst_abs:.3g}, max rel d "
          f"{worst_rel:.3g} (|v| >= {RELATIVE_FLOOR:g}); {verdicts} exit code or status changes")
    return 1 if verdicts else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--report"]:
        return report_drift()
    if argv:
        print("usage: regen.py [--report]", file=sys.stderr)
        return 64
    for stale in GOLDEN_DIR.glob("*.*.json"):
        stale.unlink()
    codes = {}
    for name, theorem in cases():
        code, text = run_case(name, theorem)
        codes[case_id(name, theorem)] = code
        if text is not None:
            golden_path(name, theorem).write_text(text, encoding="utf-8")
    MANIFEST.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
