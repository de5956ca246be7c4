"""Metric arithmetic of the benchmark: self times, quartiles, ratios, gates.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import io
import json
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import Case, Ref  # noqa: E402


# ------------------------------------------------------------------ self time

def test_self_time_subtracts_direct_children_only():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("grassmann.mean", 1.0, 4.0, 0),
        ("catalog.link", 2.0, 3.0, 1),
        ("catalog.link", 5.0, 6.5, 0),
    ]
    self_s = stats.self_times(spans)
    assert self_s["cli.main"] == pytest.approx(10.0 - 3.0 - 1.5)
    assert self_s["grassmann.mean"] == pytest.approx(3.0 - 1.0)
    assert self_s["catalog.link"] == pytest.approx(1.0 + 1.5)
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_self_time_of_nested_same_layer_spans_adds_up():
    # link_chi wraps link_infinity_chi; both belong to catalog.link
    spans = [("catalog.link", 0.0, 2.0, -1), ("catalog.link", 0.5, 1.5, 0)]
    assert stats.self_times(spans) == {"catalog.link": pytest.approx(2.0)}


def test_tracer_records_parents_and_partitions_the_root():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(1000))

    def middle():
        return tracer.call("leaf", leaf) + tracer.call("leaf", leaf)

    tracer.call("root", lambda: tracer.call("middle", middle))
    names = [span[0] for span in tracer.spans]
    parents = [span[3] for span in tracer.spans]
    assert names == ["root", "middle", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 1]
    root = tracer.spans[0]
    assert sum(stats.self_times(tracer.spans).values()) == pytest.approx(root[2] - root[1])


def test_tracer_closes_spans_on_exceptions():
    tracer = tracing.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.call("root", boom)
    assert tracer.spans[0][2] >= tracer.spans[0][1]
    tracer.call("next", lambda: None)
    assert tracer.spans[1][3] == -1  # the stack was unwound


# ------------------------------------------------------- medians and quartiles

def test_median_and_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, q2, q3 = stats.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert stats.median(values) == q2 == 3.5
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_spread_edge_cases():
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert stats.spread([1.0, 1.0, 1.0]) == 0.0
    assert stats.spread([0.0, 0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        stats.median([])


def test_fastest_pass_sums_each_cases_minimum():
    assert stats.fastest_pass([[2.0, 1.5, 3.0], [4.0]]) == 5.5
    with pytest.raises(ValueError):
        stats.fastest_pass([[1.0], []])  # every case runs at least once


# ------------------------------------------------------------------ ratios

def test_accept_ratio():
    assert stats.accept_ratio(4000, 0) == 1.0
    assert stats.accept_ratio(3, 1) == 0.75
    assert stats.accept_ratio(0, 0) == 0.0  # layer never reached


def test_covered_uses_the_verdict_tolerance():
    assert stats.covered(1.41005, 2 ** 0.5, 0.016)
    assert stats.covered(0.1195, 0.0, 0.052)       # within 3 uncertainties
    assert not stats.covered(0.1195, 0.0, 0.03)
    assert stats.covered(5e-7, 0.0, 0.0)            # absolute floor 1e-6
    assert not stats.covered(2e-6, 0.0, 0.0)


def test_covered_frac():
    assert stats.covered_frac([True, False, True, True]) == 0.75
    assert stats.covered_frac(iter([True])) == 1.0
    assert stats.covered_frac([]) == 0.0


# ------------------------------------------------------------ report parsing

def test_route_pieces_parse_numbers_only():
    route = "shifted([0.0, 0.0, 3.0]);lambda0=curvature_cubature;L0=-1.41517+k1=0+k2=1.4101+k3=0"
    assert run.PIECE.findall(route) == [
        ("L0", "-1.41517"), ("k1", "0"), ("k2", "1.4101"), ("k3", "0")]
    assert run.PIECE.findall("0.5*E[chi|dim2]:grassmann_mc(planes=2,n=4000)") == []
    assert run.PIECE.findall("curvature_assembly;k1=1e-07") == [("k1", "1e-07")]


def _fake_program(code, doc):
    def main(argv, out):
        print(json.dumps(doc, indent=2), file=out)
        print("# overall: pass (0.01s)", file=out)
        return code

    report = SimpleNamespace(report_from_dict=lambda d: d, report_to_dict=lambda r: r)
    return SimpleNamespace(cli=SimpleNamespace(main=main), report=report)


def _doc(status="pass", lhs=1.0, rhs=1.05, uncertainty=0.02, route="curvature_assembly;k1=1.05"):
    return {"theorem": "thm4.3", "set": "twisted_cubic_r3", "seed": 7, "status": status,
            "rows": [{"k": 0, "lhs": lhs, "rhs": rhs, "uncertainty": uncertainty,
                      "route_rhs": route}]}


CASE = Case("twisted_cubic_r3 thm4.3",
            ("verify", "--set", "twisted_cubic_r3", "--theorem", "thm4.3"),
            (Ref(("lhs", 0), 1.0, "chi"), Ref(("rhs", 0), 1.0, "chi", sampled=True),
             Ref(("piece", 0, "k1"), 1.0, "length")))


def test_case_gate_scores_deterministic_error_and_sampled_coverage():
    outcome = run.run_case(_fake_program(0, _doc()), CASE, 7)
    assert outcome.ok
    assert outcome.errors == pytest.approx([0.0, 0.05])  # lhs and the k1 piece
    assert outcome.covers == [True]                      # the sampled rhs only


def test_case_gate_fails_on_exit_code_status_seed_and_missing_values(capsys):
    assert not run.run_case(_fake_program(1, _doc()), CASE, 7).ok
    assert not run.run_case(_fake_program(0, _doc(status="fail")), CASE, 7).ok
    assert not run.run_case(_fake_program(0, _doc()), CASE, 8).ok
    assert not run.run_case(_fake_program(0, _doc(route="curvature_assembly")), CASE, 7).ok
    assert not run.run_case(_fake_program(0, _doc(rhs=float("nan"))), CASE, 7).ok
    assert "exit code 1" in capsys.readouterr().err


def test_sampled_refs_count_for_coverage_but_not_error():
    case = Case(CASE.name, CASE.argv, (Ref(("rhs", 0), 1.0, "chi", sampled=True),))
    outcome = run.run_case(_fake_program(0, _doc(rhs=1.5, uncertainty=0.1)), case, 7)
    assert outcome.ok and outcome.errors == [] and outcome.covers == [False]
