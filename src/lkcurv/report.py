"""Identity-check reports.

A report holds one row per checked equation: the two sides, their combined
uncertainty, and a verdict.  A row passes when |lhs - rhs| is within three
combined uncertainties or an absolute floor of 1e-6 (the identities are exact;
all slack is numerical).  Reports serialize to a stable JSON schema and back
without loss.  The JSON is strict (RFC 8259): a number it cannot hold, such
as the NaN sides of a skipped row, is written as ``null`` and read back as NaN.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

PASS_FLOOR = 1e-6
PASS_SIGMA = 3.0


@dataclass
class TheoremRow:
    k: int
    lhs: float
    rhs: float
    uncertainty: float
    passed: bool
    route_lhs: str
    route_rhs: str
    skipped: bool = False
    reason: Optional[str] = None


def make_row(k, lhs, rhs, uncertainty, route_lhs, route_rhs) -> TheoremRow:
    tol = max(PASS_SIGMA * uncertainty, PASS_FLOOR)
    return TheoremRow(
        k=int(k),
        lhs=float(lhs),
        rhs=float(rhs),
        uncertainty=float(uncertainty),
        passed=bool(abs(lhs - rhs) <= tol),
        route_lhs=route_lhs,
        route_rhs=route_rhs,
    )


def skipped_row(k, route_lhs, route_rhs, reason) -> TheoremRow:
    return TheoremRow(
        k=int(k), lhs=float("nan"), rhs=float("nan"), uncertainty=float("nan"),
        passed=False, route_lhs=route_lhs, route_rhs=route_rhs,
        skipped=True, reason=str(reason),
    )


@dataclass
class TheoremReport:
    theorem_id: str
    set_name: str
    rows: List[TheoremRow]
    seed: int
    n_samples: int
    radii: List[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def status(self) -> str:
        if any(row.skipped for row in self.rows):
            return "incomplete"
        return "pass" if all(row.passed for row in self.rows) else "fail"

    @property
    def overall_pass(self) -> bool:
        return self.status == "pass"


def _number(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def _float(value: Optional[float]) -> float:
    return float("nan") if value is None else value


def report_to_dict(report: TheoremReport) -> dict:
    return {
        "theorem": report.theorem_id,
        "set": report.set_name,
        "seed": report.seed,
        "n_samples": report.n_samples,
        "radii": list(report.radii),
        "rows": [
            {
                "k": row.k,
                "lhs": _number(row.lhs),
                "rhs": _number(row.rhs),
                "uncertainty": _number(row.uncertainty),
                "pass": row.passed,
                "route_lhs": row.route_lhs,
                "route_rhs": row.route_rhs,
                "skipped": row.skipped,
                "reason": row.reason,
            }
            for row in report.rows
        ],
        "overall_pass": report.overall_pass,
        "status": report.status,
        "elapsed_seconds": report.elapsed_seconds,
    }


def report_from_dict(doc: dict) -> TheoremReport:
    rows = [
        TheoremRow(
            k=entry["k"],
            lhs=_float(entry["lhs"]),
            rhs=_float(entry["rhs"]),
            uncertainty=_float(entry["uncertainty"]),
            passed=entry["pass"],
            route_lhs=entry["route_lhs"],
            route_rhs=entry["route_rhs"],
            skipped=entry["skipped"],
            reason=entry["reason"],
        )
        for entry in doc["rows"]
    ]
    return TheoremReport(
        theorem_id=doc["theorem"],
        set_name=doc["set"],
        rows=rows,
        seed=doc["seed"],
        n_samples=doc["n_samples"],
        radii=list(doc["radii"]),
        elapsed_seconds=doc["elapsed_seconds"],
    )


def report_to_json(report: TheoremReport, indent: int = 2) -> str:
    return json.dumps(report_to_dict(report), indent=indent, allow_nan=False)


CSV_HEADER = [
    "theorem", "set", "seed", "n_samples", "radii", "k", "lhs", "rhs",
    "uncertainty", "pass", "route_lhs", "route_rhs", "skipped", "reason",
]


def report_to_csv_rows(report: TheoremReport) -> List[Sequence]:
    radii = " ".join(repr(r) for r in report.radii)
    rows = [CSV_HEADER]
    for row in report.rows:
        rows.append(
            [
                report.theorem_id, report.set_name, report.seed, report.n_samples,
                radii, row.k, repr(row.lhs), repr(row.rhs), repr(row.uncertainty),
                row.passed, row.route_lhs, row.route_rhs, row.skipped,
                "" if row.reason is None else row.reason,
            ]
        )
    return rows
