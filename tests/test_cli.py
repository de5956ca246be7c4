import contextlib
import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lkcurv import GenericityError, builtin_sets, cli
from lkcurv.catalog.sets import set_from_dict, set_to_dict
from lkcurv.grassmann import STREAM_GRASSMANN, haar_sample, substream
from lkcurv.report import report_from_dict


def run_cli(args, monkeypatch=None, env=None):
    out = io.StringIO()
    code = cli.main(args, out=out)
    return code, out.getvalue()


def test_catalog_list_lines():
    code, text = run_cli(["catalog", "list"])
    assert code == 0
    assert "cross_r2  n=2 d=1 chi=1 conic" in text
    assert "hyperboloid_r3  n=3 d=2 chi=0 smooth" in text
    assert "sphere_s2  n=3 d=2 chi=2 compact" in text


def test_verify_cross_thm39(tmp_path):
    out_path = tmp_path / "report.json"
    code, text = run_cli([
        "verify", "--set", "cross_r2", "--theorem", "thm3.9",
        "--samples", "500", "--seed", "7", "--out", str(out_path),
    ])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["theorem"] == "thm3.9" and doc["set"] == "cross_r2"
    assert doc["overall_pass"] is True
    assert doc["rows"][0]["lhs"] == 1.0
    # round trip: the emitted document reproduces the report exactly
    report = report_from_dict(doc)
    assert report.overall_pass and report.rows[0].rhs == doc["rows"][0]["rhs"]


def test_verify_csv_format(tmp_path):
    out_path = tmp_path / "report.csv"
    code, _ = run_cli([
        "verify", "--set", "line_r3", "--theorem", "prop3.1",
        "--samples", "500", "--seed", "3", "--format", "csv",
        "--out", str(out_path),
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows[0][:6] == ["theorem", "set", "seed", "n_samples", "radii", "k"]
    assert len(rows) == 4  # header + one row per k


def test_verify_workers_do_not_change_numbers(tmp_path):
    docs = []
    for workers in ("1", "3"):
        out_path = tmp_path / f"w{workers}.json"
        code, _ = run_cli([
            "verify", "--set", "star3_cone_r3", "--theorem", "prop3.1",
            "--samples", "600", "--seed", "11", "--workers", workers,
            "--out", str(out_path),
        ])
        assert code == 0
        doc = json.loads(out_path.read_text())
        doc.pop("elapsed_seconds")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_verify_hyperboloid_thm43(tmp_path):
    out_path = tmp_path / "hyp.json"
    code, _ = run_cli([
        "verify", "--set", "hyperboloid_r3", "--theorem", "thm4.3",
        "--samples", "500", "--seed", "7", "--out", str(out_path),
    ])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert abs(doc["rows"][0]["lhs"] - doc["rows"][0]["rhs"]) < 0.02


def test_verify_sphere_thm37_limit_rows_vanish(tmp_path):
    out_path = tmp_path / "sph.json"
    code, _ = run_cli([
        "verify", "--set", "sphere_s2", "--theorem", "thm3.7",
        "--samples", "500", "--seed", "7", "--out", str(out_path),
    ])
    assert code == 0
    doc = json.loads(out_path.read_text())
    for row in doc["rows"]:
        assert abs(row["lhs"]) < 1e-9 and abs(row["rhs"]) < 0.05


def test_verify_incomplete_exit_code():
    code, text = run_cli([
        "verify", "--set", "sphere_s2", "--theorem", "odd_d_corollary",
        "--samples", "500", "--seed", "1",
    ])
    assert code == 2
    assert '"status": "incomplete"' in text


def test_verify_failure_exit_code(tmp_path, sets):
    # a set file with a wrong declared Euler characteristic must fail loudly
    from lkcurv.catalog.sets import set_to_dict

    doc = set_to_dict("bad_sphere", sets["sphere_s2"])
    doc["declared_chi"] = 3
    path = tmp_path / "bad_sphere.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli([
        "verify", "--set", str(path), "--theorem", "thm4.3",
        "--samples", "500", "--seed", "1",
    ])
    assert code == 1


def test_usage_errors(capsys, tmp_path):
    code, _ = run_cli(["verify", "--set", "no_such_set", "--theorem", "thm3.9"])
    assert code == 64
    # a set that is a directory or not UTF-8 text, and an --out that cannot
    # be written, are named
    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(b"\xff\xfe{\x00}\x00")
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{'kind': 'linear'}")
    for argv, field in (([str(tmp_path)], str(tmp_path)), ([str(not_utf8)], str(not_utf8)),
                        ([str(not_json)], "not valid JSON"),
                        (["line_r2", "--out", str(tmp_path / "no_dir" / "x.json")], "--out")):
        capsys.readouterr()
        code, _ = run_cli(["verify", "--theorem", "thm3.9", "--set"] + argv)
        assert code == 64, argv
        assert field in capsys.readouterr().err
    code, _ = run_cli(["verify", "--set", "cross_r2", "--theorem", "thm3.9",
                       "--samples", "50"])
    assert code == 64
    code, _ = run_cli(["verify", "--set", "cross_r2", "--theorem", "thm3.9",
                       "--radii", "8,24,48"])
    assert code == 64
    code, _ = run_cli(["verify", "--set", "cross_r2", "--theorem", "thm3.9",
                       "--radii", "nan,nan,nan"])
    assert code == 64
    code, _ = run_cli(["verify", "--set", "cross_r2", "--theorem", "base_point"])
    assert code == 64
    code, _ = run_cli(["verify", "--set", "cross_r2", "--theorem", "nope"])
    assert code == 64
    # every theorem validates the schedule, including prop3.1, which uses none
    for radii in ("nan,nan,nan", "1,5"):
        capsys.readouterr()
        code, _ = run_cli(["verify", "--set", "cross_r2", "--theorem", "prop3.1",
                           "--radii", radii])
        assert code == 64
        assert "--radii" in capsys.readouterr().err
    # a base point is never ignored silently
    for theorem, point in (("thm3.9", "1,2"), ("prop3.1", "1,2")):
        code, _ = run_cli(["verify", "--set", "cross_r2", "--theorem", theorem,
                           "--base-point", point])
        assert code == 64
        assert "--base-point" in capsys.readouterr().err
    # an empty field of a list is never dropped silently
    for flag, theorem, value in (("--base-point", "base_point", "1,,2"),
                                 ("--radii", "thm3.9", "8,,16,32,64"),
                                 ("--radii", "thm3.9", "8,16,32,64,"),
                                 ("--radii", "thm3.9", ""), ("--base-point", "thm3.9", "")):
        capsys.readouterr()
        code, _ = run_cli(["verify", "--set", "cross_r2", "--theorem", theorem, flag, value])
        assert code == 64, (flag, value)
        assert flag in capsys.readouterr().err
    # a schedule with a radius whose b_k R^k or 1/R leaves the normal floats,
    # or with a radius of 0, names --radii
    for name, theorem, radii in (("hyperboloid_r3", "thm3.7", "1e-200,2e-200,4e-200"),
                                 ("sphere_s2", "thm3.9", "1e-320,2e-320,4e-320"),
                                 ("line_r2", "thm3.9", "0,8,16")):
        capsys.readouterr()
        code, _ = run_cli(["verify", "--set", name, "--theorem", theorem, "--radii", radii])
        assert code == 64, (name, radii)
        assert "--radii" in capsys.readouterr().err
    # a radius that is not finite, or whose b_k R^k overflows or underflows,
    # names --radius, and so does one whose ball intervals or measure are not
    # finite
    for name, k, radius in (("paraboloid_r3", "2", "nan"), ("paraboloid_r3", "2", "inf"),
                            ("cross_r2", "1", "nan"), ("cross_r2", "1", "inf"),
                            ("paraboloid_r3", "2", "1e308"), ("line_r2", "1", "1e308"),
                            ("paraboloid_r3", "0", "1e154"), ("hyperboloid_r3", "0", "1e200"),
                            ("paraboloid_r3", "0", "1e308"), ("hyperboloid_r3", "2", "1e-200")):
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            code, _ = run_cli(["curvature", "--set", name, "--k", k, "--radius", radius])
        assert code == 64, (name, radius)
        assert "--radius" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flags", [
    (["verify", "--set", "cross_r2", "--theorem", "thm3.9", "--radii", "8,a,32"], ["--radii"]),
    (["curvature", "--set", "sphere_s2", "--k", "4", "--radius", "2"], ["--k"]),
    (["curvature", "--set", "cross_r2", "--k", "0", "--radius", "2"], ["--k"]),
    (["grassmann", "sample", "--n", "2", "--k", "3"], ["--k", "--n"]),
    (["grassmann", "sample", "--n", "2", "--k", "1", "--samples", "0"], ["--samples"]),
])
def test_refused_flags_are_named(capsys, argv, flags):
    code, text = run_cli(argv)
    assert code == 64 and text == ""
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags), err


def test_a_schedule_failing_only_at_its_top_names_that_radius(capsys):
    # b_3 R^3 overflows at 4e102 alone: the refusal names the first failing
    # radius and order
    code, _ = run_cli(["verify", "--set", "hyperboloid_r3", "--theorem", "thm3.9",
                       "--radii", "1e102,2e102,4e102"])
    assert code == 64
    assert capsys.readouterr().err == (
        "error: --radii: radius 4e+102 is too large: b_k R^k overflows at k=3\n")
    code, _ = run_cli(["verify", "--set", "hyperboloid_r3", "--theorem", "thm3.9",
                       "--radii", "1e-310,2e-310,4e-310"])
    assert code == 64
    assert capsys.readouterr().err == ("error: --radii: radius 1e-310 is too small: b_k R^k "
                                       "or 1/R leaves the normal floats at k=0\n")


def test_numerical_failure_during_a_check_exits_1(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise GenericityError("every drawn plane was rejected")

    monkeypatch.setattr(cli, "run_theorem", failing)
    code, text = run_cli(["verify", "--set", "cross_r2", "--theorem", "thm3.9"])
    assert code == 1 and text == ""
    assert capsys.readouterr().err.startswith("error: every drawn plane was rejected")


def test_usage_errors_leave_the_shared_parser_intact(tmp_path):
    # main builds its parser once per process, so a call that fails to parse
    # must not change the next one
    assert cli.build_parser() is cli.build_parser()
    out_path = tmp_path / "report.json"
    argv = ["verify", "--set", "star3_cone_r3", "--theorem", "prop3.1",
            "--samples", "200", "--seed", "5", "--out", str(out_path)]
    docs = []
    for bad in ([], ["verify", "--set", "cross_r2", "--theorem", "nope"],
                ["verify", "--set", "cross_r2", "--theorem", "thm3.9", "--samples", "x"],
                ["grassmann", "sample", "--n", "3"]):
        if bad:
            assert run_cli(bad)[0] == 64, bad
        assert run_cli(argv)[0] == 0
        doc = json.loads(out_path.read_text())
        doc.pop("elapsed_seconds")
        docs.append(doc)
    assert all(doc == docs[0] for doc in docs)


def test_curvature_at_huge_radii():
    # the order-0 curvature of the paraboloid is 1, that of the hyperboloid -sqrt(2)
    for name, radius, exact in (("paraboloid_r3", "1e100", 1.0), ("paraboloid_r3", "1e150", 1.0),
                                ("hyperboloid_r3", "1e30", -math.sqrt(2.0)),
                                ("hyperboloid_r3", "1e60", -math.sqrt(2.0)),
                                ("hyperboloid_r3", "1e150", -math.sqrt(2.0))):
        code, text = run_cli(["curvature", "--set", name, "--k", "0", "--radius", radius])
        assert code == 0
        value = float(text.split("measure=")[1].split()[0])
        bound = float(text.split("error_bound=")[1].split()[0])
        assert abs(value - exact) <= max(bound, 1e-12), (name, radius)


def test_chi_less_set_is_a_usage_error(tmp_path, sets):
    from lkcurv.catalog.sets import set_to_dict

    doc = set_to_dict("anon_hyperboloid", sets["hyperboloid_r3"])
    doc["declared_chi"] = None
    path = tmp_path / "anon.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["verify", "--set", str(path), "--theorem", "thm3.9",
                       "--samples", "500"])
    assert code == 64


def test_malformed_set_file_diagnostic(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"name": "x", "ambient_dim": 2, "kind": "linear"}))
    code, _ = run_cli(["verify", "--set", str(path), "--theorem", "thm3.9"])
    captured = capsys.readouterr()
    assert code == 64
    assert "frame" in captured.err


def test_curvature_command():
    code, text = run_cli(["curvature", "--set", "sphere_s2", "--k", "0",
                          "--radius", "2"])
    assert code == 0
    value = float(text.split("measure=")[1].split()[0])
    assert value == pytest.approx(2.0, abs=1e-6)
    code, text = run_cli(["curvature", "--set", "plane_r2_in_r3", "--k", "2",
                          "--radius", "4"])
    value = float(text.split("measure=")[1].split()[0])
    assert value == pytest.approx(16.0 * math.pi, rel=1e-9)
    code, text = run_cli(["curvature", "--set", "cross_r2", "--k", "1",
                          "--radius", "3"])
    value = float(text.split("measure=")[1].split()[0])
    assert value == pytest.approx(12.0)


def test_grassmann_sample_command():
    code, text = run_cli(["grassmann", "sample", "--n", "3", "--k", "2",
                          "--samples", "50", "--seed", "5"])
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 50
    frame = np.array(json.loads(lines[0])["frame"])
    assert np.allclose(frame @ frame.T, np.eye(2), atol=1e-10)
    # the lines are the planes of sequential haar_sample calls on one stream
    rng = substream(5, STREAM_GRASSMANN)
    for i, line in enumerate(lines):
        sub = haar_sample(3, 2, rng)
        assert line == json.dumps({"sample": i, "n": 3, "k": 2, "frame": sub.frame.tolist()})


def test_base_point_flag(tmp_path):
    out_path = tmp_path / "bp.json"
    code, _ = run_cli([
        "verify", "--set", "cross_r2", "--theorem", "base_point",
        "--base-point", "1,2", "--samples", "500", "--seed", "5",
        "--out", str(out_path),
    ])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["overall_pass"] is True


def test_env_seed_override(monkeypatch, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    monkeypatch.setenv("LK_DEFAULT_SEED", "123")
    run_cli(["verify", "--set", "star3_cone_r3", "--theorem", "prop3.1",
             "--samples", "500", "--out", str(out_a)])
    monkeypatch.delenv("LK_DEFAULT_SEED")
    run_cli(["verify", "--set", "star3_cone_r3", "--theorem", "prop3.1",
             "--samples", "500", "--seed", "123", "--out", str(out_b)])
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["seed"] == 123
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


@pytest.mark.parametrize("seed", [-1, 2**64, "abc"])
def test_seeds_outside_64_bits_are_usage_errors(monkeypatch, capsys, seed):
    # a seed is one 64-bit key word: wrapping would give 2^64 the report of 0
    # and -1 that of 2^64 - 1, each recording its own seed; a word is no seed
    verify = ["verify", "--set", "cross_r2", "--theorem", "thm3.9", "--samples", "100"]
    sample = ["grassmann", "sample", "--n", "3", "--k", "2"]
    for argv in (verify, sample):
        code, _ = run_cli(argv + ["--seed", str(seed)])
        assert code == 64
        assert "--seed" in capsys.readouterr().err
        monkeypatch.setenv("LK_DEFAULT_SEED", str(seed))
        code, _ = run_cli(argv)
        monkeypatch.delenv("LK_DEFAULT_SEED")
        assert code == 64
        assert "LK_DEFAULT_SEED" in capsys.readouterr().err


def test_largest_seed_is_accepted(monkeypatch):
    seed = str(2**64 - 1)
    code, text = run_cli(["verify", "--set", "cross_r2", "--theorem", "thm3.9",
                          "--samples", "100", "--seed", seed])
    assert code == 0
    assert json.loads(text[:text.index("\n# ")])["seed"] == 2**64 - 1
    code, _ = run_cli(["grassmann", "sample", "--n", "3", "--k", "2", "--seed", seed])
    assert code == 0
    monkeypatch.setenv("LK_DEFAULT_SEED", seed)
    code, _ = run_cli(["verify", "--set", "cross_r2", "--theorem", "thm3.9", "--samples", "100"])
    assert code == 0
    # the curvature command draws nothing: its --seed is accepted and ignored
    code, _ = run_cli(["curvature", "--set", "cross_r2", "--k", "1", "--radius", "3",
                       "--seed", str(2**64)])
    assert code == 0


PLANE_R2_IN_R4 = Path(__file__).resolve().parent / "sets" / "plane_r2_in_r4.json"
STAR4_CONE_R4 = Path(__file__).resolve().parent / "sets" / "star4_cone_r4.json"


@pytest.mark.parametrize("seed", ["0", "1", "42"])
def test_star4_cone_draws_slot_normals_in_r4(tmp_path, seed):
    # the cone over arcs from e4 to e1, e2 and e3: its k=2 row is half the mean
    # link of a hyperplane of R^4, drawn as slot normals; a hyperplane separates
    # two points at angle theta with probability theta / pi, so the mean is
    # 3 (pi/2) / pi and the row is exactly 3/4
    docs = []
    for run in range(2):
        out_path = tmp_path / f"run{run}.json"
        code, _ = run_cli(["verify", "--set", str(STAR4_CONE_R4), "--theorem", "thm3.7",
                           "--seed", seed, "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        doc.pop("elapsed_seconds")
        docs.append(doc)
    assert docs[0] == docs[1]
    row = next(row for row in docs[0]["rows"] if row["k"] == 2)
    assert "grassmann_mc(planes=3,n=4000)" in row["route_rhs"]
    assert abs(row["rhs"] - 0.75) <= 3.0 * row["uncertainty"]


def test_plane_chart_default_origin_follows_frame(tmp_path):
    doc = json.loads(PLANE_R2_IN_R4.read_text())
    del doc["charts"][0]["params"]["origin"]
    path = tmp_path / "plane_no_origin.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli(["curvature", "--set", str(path), "--k", "2", "--radius", "4"])
    assert code == 0
    value = float(text.split("measure=")[1].split()[0])
    assert value == pytest.approx(16.0 * math.pi, rel=1e-9)


def test_plane_chart_origin_width_mismatch(tmp_path, capsys):
    doc = json.loads(PLANE_R2_IN_R4.read_text())
    doc["charts"][0]["params"]["origin"] = [0, 0, 0]
    path = tmp_path / "plane_short_origin.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["verify", "--set", str(path), "--theorem", "thm3.9"])
    assert code == 64
    assert "charts.params.origin" in capsys.readouterr().err


@pytest.mark.parametrize("field, doc", [
    ("polynomial", {"name": "nan_plane", "ambient_dim": 3, "kind": "smooth",
                    "charts": [{"map": "plane"}],
                    "polynomial": {"(0,0,1)": float("nan")}, "declared_chi": 1}),
    ("vertices", {"name": "nan_cross", "ambient_dim": 2, "kind": "conic_graph",
                  "vertices": [[float("nan"), 0.0], [0.0, 1.0]]}),
    ("frame", {"name": "nan_line", "ambient_dim": 2, "kind": "linear",
               "frame": [[float("nan"), 1.0]]}),
    ("charts.params.radius", {"name": "inf_sphere", "ambient_dim": 3, "kind": "smooth",
                              "charts": [{"map": "sphere", "params": {"radius": float("inf")}}],
                              "declared_chi": 2, "compact": True}),
    ("charts.params.radius", {"name": "word_sphere", "ambient_dim": 3, "kind": "smooth",
                              "charts": [{"map": "sphere", "params": {"radius": "big"}}],
                              "declared_chi": 2, "compact": True}),
    # a curve whose every coordinate is constant is a point, and one that moves
    # too slowly leaves no parameter box the fitter can bracket
    ("charts.params.coefficients", {"name": "point_curve", "ambient_dim": 3, "kind": "smooth",
                                    "dim": 1, "declared_chi": 1,
                                    "charts": [{"map": "poly_curve", "params": {
                                        "coefficients": [[1, 0], [2, 0], [0, 0]]}}]}),
    ("charts.params.coefficients", {"name": "slow_line", "ambient_dim": 3, "kind": "smooth",
                                    "dim": 1, "declared_chi": 1,
                                    "charts": [{"map": "poly_curve", "params": {
                                        "coefficients": [[0, 1e-9], [0, 0], [0, 0]]}}]}),
    # a misspelled parameter, parameters of the wrong shape, a domain box with
    # one row for a two-parameter map, and params that are not an object
    ("charts.params.radus", {"name": "typo_sphere", "ambient_dim": 3, "kind": "smooth",
                             "charts": [{"map": "sphere", "params": {"radus": 2}}],
                             "declared_chi": 2, "compact": True}),
    ("charts.params.center", {"name": "flat_center_sphere", "ambient_dim": 3, "kind": "smooth",
                              "charts": [{"map": "sphere", "params": {"center": [1, 2]}}],
                              "declared_chi": 2, "compact": True}),
    ("charts.params.coefficient", {"name": "list_paraboloid", "ambient_dim": 3,
                                   "kind": "smooth", "declared_chi": 1,
                                   "charts": [{"map": "paraboloid",
                                               "params": {"coefficient": [1, 2]}}]}),
    ("charts.domain", {"name": "one_row_cylinder", "ambient_dim": 3, "kind": "smooth",
                       "charts": [{"map": "cylinder", "domain": [[0, 6.28]]}],
                       "declared_chi": 0}),
    ("charts.params", {"name": "list_params_sphere", "ambient_dim": 3, "kind": "smooth",
                       "charts": [{"map": "sphere", "params": [2]}],
                       "declared_chi": 2, "compact": True}),
    # a sphere so large that the squared spot-check radius overflows
    ("charts.params", {"name": "huge_sphere", "ambient_dim": 3, "kind": "smooth",
                       "charts": [{"map": "sphere", "params": {"radius": 1e160}}],
                       "declared_chi": 2, "compact": True}),
    # a name that is not a string, and an exponent given twice in two spellings
    ("name", {"name": [1, 2], "ambient_dim": 3, "kind": "smooth",
              "charts": [{"map": "plane"}], "declared_chi": 1}),
    ("polynomial", {"name": "repeated_exp_plane", "ambient_dim": 3, "kind": "smooth",
                    "charts": [{"map": "plane"}], "declared_chi": 1,
                    "polynomial": {"(0,0,1)": 1.0, "(0, 0, 1)": 2.0}}),
    # a smooth set has exactly one chart: two segments of the x axis far outside
    # the spot-check ball, and two copies of the torus
    ("charts", {"name": "two_far_segments", "ambient_dim": 3, "kind": "smooth", "dim": 1,
                "declared_chi": 2,
                "charts": [{"map": "poly_curve", "domain": [[100, 101]],
                            "params": {"coefficients": [[0, 1], [0, 0], [0, 0]]}}] * 2}),
    ("charts", {"name": "two_tori", "ambient_dim": 3, "kind": "smooth",
                "charts": [{"map": "torus"}, {"map": "torus"}],
                "declared_chi": 0, "compact": True}),
])
def test_non_finite_set_data_is_a_usage_error(tmp_path, capsys, field, doc):
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))  # writes NaN and Infinity, which json.load reads back
    code, _ = run_cli(["verify", "--set", str(path), "--theorem", "thm3.9",
                       "--samples", "100"])
    assert code == 64
    assert f"malformed at {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("field, doc", [
    ("ambient_dim", {"name": "nan_dim_cross", "ambient_dim": float("nan"), "kind": "conic_graph",
                     "vertices": [[1.0, 0.0], [0.0, 1.0]]}),
    ("dim", {"name": "word_dim_plane", "ambient_dim": 3, "kind": "smooth", "dim": "two",
             "charts": [{"map": "plane"}], "declared_chi": 1}),
    ("edges", {"name": "word_edge_cone", "ambient_dim": 3, "kind": "conic_graph",
               "vertices": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "edges": [[0, "x"]]}),
    ("declared_chi", {"name": "nan_chi_plane", "ambient_dim": 3, "kind": "smooth",
                      "charts": [{"map": "plane"}], "declared_chi": float("nan")}),
    # integers too large for a double, and edges that are not a list
    ("vertices", {"name": "huge_dim_cross", "ambient_dim": 10**400, "kind": "conic_graph",
                  "vertices": [[1.0, 0.0], [0.0, 1.0]]}),
    ("edges", {"name": "huge_edge_cone", "ambient_dim": 3, "kind": "conic_graph",
               "vertices": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "edges": [[0, 10**400]]}),
    ("edges", {"name": "scalar_edges_cone", "ambient_dim": 3, "kind": "conic_graph",
               "vertices": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "edges": 5}),
    ("declared_chi", {"name": "huge_chi_plane", "ambient_dim": 3, "kind": "smooth",
                      "charts": [{"map": "plane"}], "declared_chi": 10**400}),
    # values of the wrong JSON type or shape
    ("(top level)", [{"name": "listed_plane", "ambient_dim": 3, "kind": "smooth",
                      "charts": [{"map": "plane"}], "declared_chi": 1}]),
    ("charts", {"name": "object_charts", "ambient_dim": 3, "kind": "smooth",
                "charts": {"map": "sphere"}, "declared_chi": 2, "compact": True}),
    ("charts", {"name": "string_charts", "ambient_dim": 3, "kind": "smooth",
                "charts": ["sphere"], "declared_chi": 2, "compact": True}),
    ("charts.domian", {"name": "typo_domain_cylinder", "ambient_dim": 3, "kind": "smooth",
                       "charts": [{"map": "cylinder", "domian": [[0, 1], [-1, 1]]}],
                       "declared_chi": 0}),
    ("compact", {"name": "word_compact_sphere", "ambient_dim": 3, "kind": "smooth",
                 "charts": [{"map": "sphere"}], "declared_chi": 2, "compact": "no"}),
    ("polynomial", {"name": "list_poly_plane", "ambient_dim": 3, "kind": "smooth",
                    "charts": [{"map": "plane"}], "polynomial": [1], "declared_chi": 1}),
    ("polynomial", {"name": "word_coeff_plane", "ambient_dim": 3, "kind": "smooth",
                    "charts": [{"map": "plane"}], "polynomial": {"(0,0,1)": "one"},
                    "declared_chi": 1}),
    ("polynomial", {"name": "short_exps_plane", "ambient_dim": 3, "kind": "smooth",
                    "charts": [{"map": "plane"}], "polynomial": {"(1,2)": 1.0},
                    "declared_chi": 1}),
    ("polynomial", {"name": "negative_exp_plane", "ambient_dim": 3, "kind": "smooth",
                    "charts": [{"map": "plane"}], "polynomial": {"(0,0,-1)": 1.0},
                    "declared_chi": 1}),
    ("polynomial", {"name": "fraction_exp_plane", "ambient_dim": 3, "kind": "smooth",
                    "charts": [{"map": "plane"}], "polynomial": {"(0,0,1.5)": 1.0},
                    "declared_chi": 1}),
    ("vertices", {"name": "ragged_cross", "ambient_dim": 2, "kind": "conic_graph",
                  "vertices": [[1.0, 0.0], [0.0]]}),
    ("vertices", {"name": "word_cross", "ambient_dim": 2, "kind": "conic_graph",
                  "vertices": [[1.0, "x"], [0.0, 1.0]]}),
    ("frame", {"name": "ragged_line", "ambient_dim": 2, "kind": "linear",
               "frame": [[1.0, 0.0], [0.0]]}),
    ("frame", {"name": "word_line", "ambient_dim": 2, "kind": "linear", "frame": [["a", 0.0]]}),
])
def test_non_integer_set_fields_are_usage_errors(tmp_path, capsys, field, doc):
    path = tmp_path / "non_integer.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["verify", "--set", str(path), "--theorem", "thm3.9",
                       "--samples", "100"])
    assert code == 64
    assert f"malformed at {field}:" in capsys.readouterr().err


_SPHERE_SQUARED = {"(4,0,0)": 1.0, "(0,4,0)": 1.0, "(0,0,4)": 1.0, "(2,2,0)": 2.0,
                   "(2,0,2)": 2.0, "(0,2,2)": 2.0, "(2,0,0)": -2.0, "(0,2,0)": -2.0,
                   "(0,0,2)": -2.0, "(0,0,0)": 1.0}


@pytest.mark.parametrize("field, doc", [
    # a sphere of radius 0 has no tangent plane
    ("charts.map", {"name": "point_sphere", "ambient_dim": 3, "kind": "smooth",
                    "charts": [{"map": "sphere", "params": {"radius": 0.0}}],
                    "declared_chi": 2, "compact": True}),
    # (x^2 + y^2 + z^2 - 1)^2 vanishes on the unit sphere, and so does its gradient
    ("polynomial", {"name": "squared_sphere", "ambient_dim": 3, "kind": "smooth",
                    "charts": [{"map": "sphere"}], "polynomial": _SPHERE_SQUARED,
                    "declared_chi": 2, "compact": True}),
    # an implicit form needs codimension one
    ("polynomial", {"name": "implicit_curve", "ambient_dim": 3, "kind": "smooth", "dim": 1,
                    "charts": [{"map": "poly_curve",
                                "params": {"coefficients": [[0, 1], [0, 0], [0, 0]]}}],
                    "polynomial": {"(0,1,0)": 1.0}, "declared_chi": 1}),
    # a surface's dim on a curve's chart, in a file with no domain
    ("dim", {"name": "surface_dim_curve", "ambient_dim": 3, "kind": "smooth", "dim": 2,
             "charts": [{"map": "poly_curve",
                         "params": {"coefficients": [[0, 1], [0, 0], [0, 0]]}}],
             "declared_chi": 1}),
    # an end of one arc inside the other
    ("edges", {"name": "t_junction_cone", "ambient_dim": 3, "kind": "conic_graph",
               "vertices": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.0, 1.0]],
               "edges": [[0, 1], [2, 3]]}),
    # an ambient_dim that the frame width or the chart's map contradicts
    ("frame", {"name": "wide_line", "ambient_dim": 3, "kind": "linear", "frame": [[1.0, 0.0]]}),
    ("charts.map", {"name": "sphere_r4", "ambient_dim": 4, "kind": "smooth",
                    "charts": [{"map": "sphere"}], "declared_chi": 2}),
    # compactness is the chart's: a hyperboloid is unbounded, a sphere and a
    # domain are bounded, and a flat is never compact
    ("compact", {"name": "compact_hyperboloid", "ambient_dim": 3, "kind": "smooth",
                 "charts": [{"map": "hyperboloid_one_sheet"}], "declared_chi": 0,
                 "compact": True}),
    ("compact", {"name": "unbounded_sphere", "ambient_dim": 3, "kind": "smooth",
                 "charts": [{"map": "sphere"}], "declared_chi": 2, "compact": False}),
    ("compact", {"name": "unbounded_disc", "ambient_dim": 3, "kind": "smooth",
                 "charts": [{"map": "plane", "domain": [[0, 1], [0, 6]]}],
                 "declared_chi": 1, "compact": False}),
    ("compact", {"name": "compact_line", "ambient_dim": 2, "kind": "linear",
                 "frame": [[1.0, 0.0]], "compact": True}),
    # a curve in R^1 and a plane in R^2 fill their space; the data that say so
    # are named, not the dim that the files never gave
    ("charts.params.coefficients", {"name": "curve_r1", "ambient_dim": 1, "kind": "smooth",
                                    "charts": [{"map": "poly_curve",
                                                "params": {"coefficients": [[0, 1]]}}],
                                    "declared_chi": 1}),
    ("charts.params.frame", {"name": "plane_r2", "ambient_dim": 2, "kind": "smooth",
                             "charts": [{"map": "plane",
                                         "params": {"frame": [[1, 0], [0, 1]]}}],
                             "declared_chi": 1}),
])
def test_set_refusals_name_their_field(tmp_path, capsys, field, doc):
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["verify", "--set", str(path), "--theorem", "thm3.9",
                       "--samples", "100"])
    assert code == 64
    assert f"malformed at {field}:" in capsys.readouterr().err


def smooth_doc(name, domain, chi):
    return {"name": name, "ambient_dim": 3, "kind": "smooth", "declared_chi": chi,
            "charts": [{"map": name, "domain": domain}]}


@pytest.mark.parametrize("doc", [
    # a sphere whose phi runs over two turns integrates to 4, which a
    # declared chi of 4 would match; theta over a whole turn, psi over two
    # turns of the tube, and r < 0, which covers the disc |r| < 1 twice
    smooth_doc("sphere", [[0.0, math.pi], [0.0, 4.0 * math.pi]], 4),
    smooth_doc("sphere", [[0.0, 2.0 * math.pi], [0.0, 2.0 * math.pi]], 4),
    smooth_doc("torus", [[0.0, 2.0 * math.pi], [0.0, 4.0 * math.pi]], 0),
    smooth_doc("cylinder", [[0.0, 7.0], [-1.0, 1.0]], 0),
    smooth_doc("plane", [[-1.0, 2.0], [0.0, 1.0]], 1),
    smooth_doc("paraboloid", [[-1.0, 2.0], [0.0, 1.0]], 1),
])
def test_a_domain_that_covers_the_set_twice_is_refused(tmp_path, capsys, doc):
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    for theorem in ("thm3.9", "thm4.3"):
        capsys.readouterr()
        code, text = run_cli(["verify", "--set", str(path), "--theorem", theorem])
        assert code == 64 and text == "", theorem
        assert "malformed at charts.domain:" in capsys.readouterr().err, theorem


def test_a_domain_of_one_cover_loads():
    # one whole turn of phi and of the torus's psi, which is periodic and so
    # may start anywhere, the sphere's whole theta, and r from 0
    for doc in (smooth_doc("sphere", [[0.0, math.pi], [0.0, 2.0 * math.pi]], 2),
                smooth_doc("torus", [[-math.pi, math.pi], [-1.0, 2.0]], 0),
                smooth_doc("torus", [[0.4, 5.5], [-1.0, -1.0 + 2.0 * math.pi]], 0),
                smooth_doc("plane", [[0.0, 2.0], [0.0, 1.0]], 1),
                smooth_doc("hyperboloid_one_sheet", [[0.0, 1.0], [-50.0, 50.0]], 1)):
        assert set_from_dict(doc).compact, doc


def test_a_hyperboloid_declared_compact_is_refused(tmp_path, capsys):
    # as compact, every row of these checks would read 0 = 0, where the true
    # k = 2 value of both sides is sqrt(2)
    doc = set_to_dict("compact_hyperboloid", builtin_sets()["hyperboloid_r3"])
    doc["compact"] = True
    path = tmp_path / "compact_hyperboloid.json"
    path.write_text(json.dumps(doc))
    for theorem in ("thm3.7", "cor3.8", "thm4.1", "thm4.2"):
        capsys.readouterr()
        code, text = run_cli(["verify", "--set", str(path), "--theorem", theorem,
                              "--samples", "100"])
        assert code == 64 and text == "", theorem
        assert "malformed at compact:" in capsys.readouterr().err, theorem


@pytest.mark.parametrize("theorem", ["thm3.9", "thm4.3"])
@pytest.mark.parametrize("radii", ["1e-6,2e-6,4e-6", "1e-50,2e-50,4e-50"])
def test_flat_plane_passes_at_tiny_radii(theorem, radii):
    code, _ = run_cli(["verify", "--set", "plane_r2_in_r3", "--theorem", theorem,
                       "--radii", radii])
    assert code == 0


@pytest.mark.parametrize("doc", [
    {"name": "tiny_sphere", "ambient_dim": 3, "kind": "smooth",
     "charts": [{"map": "sphere", "params": {"radius": 1e-7}}],
     "polynomial": {"(2,0,0)": 1.0, "(0,2,0)": 1.0, "(0,0,2)": 1.0, "(0,0,0)": -1e-14},
     "declared_chi": 2, "compact": True},
    {"name": "tiny_twisted_cubic", "ambient_dim": 3, "kind": "smooth", "dim": 1,
     "charts": [{"map": "poly_curve", "params": {
         "coefficients": [[0, 1e-7, 0, 0], [0, 0, 1e-7, 0], [0, 0, 0, 1e-7]]}}],
     "declared_chi": 1},
])
def test_dilated_sets_load_and_pass(tmp_path, doc):
    # the tangent-frame rule is scale-free, so a valid set scaled by 1e-7 stays valid
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["verify", "--set", str(path), "--theorem", "thm3.9"])
    assert code == 0


@pytest.mark.parametrize("radius", [1e-11, 1e-7, 1.0, 1e6])
@pytest.mark.parametrize("implicit", [True, False])
def test_spheres_of_any_size_load_and_pass(tmp_path, radius, implicit):
    # the implicit form's residual and gradient are judged against the form's
    # own size at each point, so a dilated sphere keeps its form: at 1e-11
    # its gradient 2e-11 once fell below an absolute floor of 1e-10
    doc = {"name": "sphere", "ambient_dim": 3, "kind": "smooth",
           "charts": [{"map": "sphere", "params": {"radius": radius}}],
           "declared_chi": 2, "compact": True}
    if implicit:
        doc["polynomial"] = {"(2,0,0)": 1.0, "(0,2,0)": 1.0, "(0,0,2)": 1.0,
                             "(0,0,0)": -radius * radius}
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(doc))
    radii = ",".join(f"{f * radius:g}" for f in (2, 4, 8))
    for theorem in ("thm3.9", "thm4.3"):
        code, _ = run_cli(["verify", "--set", str(path), "--theorem", theorem, "--radii", radii])
        assert code == 0, theorem




# ------------------------------------------------------------ set-file fuzzing

# one valid file of each kind: linear, conic, a smooth surface and a poly_curve
FUZZ_SEEDS = {name: set_to_dict(name, x) for name, x in builtin_sets().items()
              if name in ("line_r3", "star3_cone_r3", "sphere_s2", "twisted_cubic_r3")}
MISSING, EXTRA = "<missing>", "<extra entry>"
FUZZ_VALUES = (MISSING, None, "x", math.nan, math.inf, -math.inf, -1, 0, 10**30, 1e300,
               [], {}, [[1, [2]], [3]], True, False, EXTRA)
SET_FIELDS = ("name", "ambient_dim", "kind", "dim", "frame", "vertices", "edges", "charts",
              "polynomial", "declared_chi", "compact")


def entry_paths(node, prefix=()):
    """Key paths of every entry below a JSON node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from entry_paths(child, prefix + (key,))


def mutate(doc, path, value):
    """Delete, replace or extend the entry at path; a path an earlier
    mutation removed is left alone."""
    parent, key = doc, path[-1]
    try:
        for step in path[:-1]:
            parent = parent[step]
        old = parent[key]
    except (KeyError, IndexError, TypeError):
        return
    if not isinstance(parent, (dict, list)):  # a string indexes too
        return
    if value == MISSING:
        del parent[key]
    elif value == EXTRA:
        # another chart, row or vertex; another key; or the value given twice
        parent[key] = (old + old[-1:] if isinstance(old, list)
                       else dict(old, extra=1) if isinstance(old, dict) else [old, old])
    else:
        parent[key] = json.loads(json.dumps(value))


@st.composite
def mutations(draw):
    """A seed file's name and one or two (entry path, value) mutations of it."""
    name = draw(st.sampled_from(sorted(FUZZ_SEEDS)))
    doc, picks = FUZZ_SEEDS[name], []
    for _ in range(draw(st.integers(1, 2))):
        field = draw(st.sampled_from(sorted(doc)))
        path = draw(st.sampled_from([(field,), *entry_paths(doc[field], (field,))]))
        picks.append((path, draw(st.sampled_from(FUZZ_VALUES))))
    return name, picks


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=mutations())
# inputs that once escaped: a Gram matrix and a vertex norm overflowed, and a
# missing Euler characteristic named no field
@example(case=("line_r3", [(("frame", 0, 1), 1e300)]))
@example(case=("star3_cone_r3", [(("vertices", 0, 0), 1e300)]))
@example(case=("sphere_s2", [(("declared_chi",), MISSING)]))
def test_fuzzed_set_files_exit_cleanly(tmp_path_factory, case):
    # one or two fields of a valid file set missing, to null, a string, NaN,
    # +-inf, -1, 0, 10^30, 1e300, [], {}, nested lists or a boolean, or given an
    # extra entry: main returns an exit code, and a usage error names a field
    name, picks = case
    doc = json.loads(json.dumps(FUZZ_SEEDS[name]))
    for path, value in picks:
        mutate(doc, path, value)
    path = tmp_path_factory.getbasetemp() / "fuzzed_set.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--set", str(path), "--theorem", "thm3.9",
                         "--samples", "100"], out=io.StringIO())
    assert code in (0, 1, 2, 64)
    if code == 64:
        named = re.search(r"error: (?:set file .* is malformed at )?([\w.]+): ", err.getvalue())
        assert named and named.group(1).split(".")[0] in SET_FIELDS, err.getvalue()


# ------------------------------------------------- chart parameters and radii

FUZZ_RADII = (0.75, 8.0, 1e3, 1e20, 1e75, 1e150)
EXTREME_LEADS = (1e-30, -1e-30, 1e30, -1e30)


@st.composite
def root_solver_cases(draw):
    """A set file whose ball intervals come from polynomial roots, with one
    extreme coefficient, and a radius: a paraboloid of coefficient +-1e-12
    or +-1e12, or a regular poly_curve (its first coordinate is t plus a
    constant) of degree 1 to 6 whose leading coefficient is +-1e-30 or
    +-1e30 in another coordinate."""
    radius = draw(st.sampled_from(FUZZ_RADII))
    if draw(st.booleans()):
        coefficient = draw(st.sampled_from((1e-12, -1e-12, 1e12, -1e12)))
        chart, n, dim = {"map": "paraboloid", "params": {"coefficient": coefficient}}, 3, 2
    else:
        degree, n = draw(st.integers(1, 6)), draw(st.sampled_from((2, 3)))
        rows = [[float(draw(st.integers(-3, 3))) for _ in range(degree + 1)] for _ in range(n)]
        rows[0] = [rows[0][0], 1.0] + [0.0] * (degree - 1)
        rows[draw(st.integers(1, n - 1))][degree] = draw(st.sampled_from(EXTREME_LEADS))
        chart, dim = {"map": "poly_curve", "params": {"coefficients": rows}}, 1
    doc = {"name": "fuzzed_chart", "ambient_dim": n, "kind": "smooth", "dim": dim,
           "charts": [chart], "declared_chi": 1, "compact": False}
    return doc, radius


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=root_solver_cases())
@example(case=({"name": "line", "ambient_dim": 2, "kind": "smooth", "dim": 1, "declared_chi": 1,
                "compact": False, "charts": [{"map": "poly_curve", "params": {
                    "coefficients": [[0.0, 1.0], [0.0, 1e-30]]}}]}, 1e150))
@example(case=({"name": "flat", "ambient_dim": 3, "kind": "smooth", "dim": 2, "declared_chi": 1,
                "compact": False, "charts": [{"map": "paraboloid", "params": {
                    "coefficient": 1e12}}]}, 1e150))
def test_chart_parameters_through_the_root_solver_exit_cleanly(tmp_path_factory, case):
    # a measure at the radius and a thm3.9 sweep from it: an exit code, never
    # a traceback or a RuntimeWarning (the suite makes those errors), and a
    # usage error names the chart parameter or the radius flag
    doc, radius = case
    path = tmp_path_factory.getbasetemp() / "fuzzed_chart.json"
    path.write_text(json.dumps(doc))
    dim = str(doc["dim"])
    radii = ",".join(f"{radius * 2**i:g}" for i in range(4))
    for argv in (["curvature", "--set", str(path), "--k", dim, "--radius", f"{radius:g}"],
                 ["verify", "--set", str(path), "--theorem", "thm3.9", "--samples", "100",
                  "--radii", radii]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv, out=io.StringIO())
        assert code in (0, 1, 64), (argv, err.getvalue())
        if code == 64:
            named = re.search(r"error: (?:set file .* is malformed at )?"
                              r"(--radius|--radii|charts\.params(\.\w+)?)[ :]", err.getvalue())
            assert named, err.getvalue()
