"""Golden verify reports: every builtin set under every theorem id.

Each case runs ``lkcurv verify`` through ``lkcurv.cli.main`` at
``--samples 200 --seed 42`` with the default radii; ``base_point`` adds
``--base-point 0.5,...,0.5``. A case that prints a report stores it as
``<set>.<theorem>.json`` with ``elapsed_seconds`` zeroed, and
``manifest.json`` holds the exit code of every case.
``tests/test_golden.py`` compares the current code against these files.

A change that is meant to move a number rewrites them with

    PYTHONPATH=src python tests/golden/regen.py

and lists every golden it changed in CHANGES.md.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Iterator, Optional, Tuple

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


def run_case(name: str, theorem: str) -> Tuple[int, Optional[str]]:
    """Exit code and normalized report text (None when no report is printed)."""
    argv = ["verify", "--set", name, "--theorem", theorem, "--samples", "200", "--seed", "42"]
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


def main() -> None:
    for stale in GOLDEN_DIR.glob("*.*.json"):
        stale.unlink()
    codes = {}
    for name, theorem in cases():
        code, text = run_case(name, theorem)
        codes[case_id(name, theorem)] = code
        if text is not None:
            golden_path(name, theorem).write_text(text, encoding="utf-8")
    MANIFEST.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
