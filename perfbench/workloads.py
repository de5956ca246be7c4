"""The benchmark's workloads: case lists, expected outcomes and exact values.

Each case is one ``lkcurv`` command line, run at the CLI defaults
(``--samples 4000``, ``--radii 8,16,32,64``, ``--workers 1``); the runner
appends ``--seed``.  Every case must exit 0 with status ``pass``.

Reference values.  A :class:`Ref` names one number in a case's output and
its exact value in closed form:

* ``("lhs", k)`` / ``("rhs", k)``: a side of report row ``k``;
* ``("piece", k, name)``: a ``name=value`` term that row ``k`` prints in its
  ``route_rhs`` (growth limits ``k1``.. and the order-0 term ``L0`` of an
  assembly, six significant digits);
* ``("measure",)``: the value printed by ``lkcurv curvature``.

``sampled`` marks numbers that a Monte Carlo route produces: their error is
seed noise, so they count toward ``covered_frac`` but not ``max_abs_err``.
Every other number is deterministic and counts toward ``max_abs_err`` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from pathlib import Path
from typing import Dict, List, Tuple

SETS_DIR = Path(__file__).resolve().parent / "sets"
PLANE_R2_IN_R4 = SETS_DIR / "plane_r2_in_r4.json"

SQRT2 = sqrt(2.0)


@dataclass(frozen=True)
class Ref:
    where: Tuple
    exact: float
    source: str
    sampled: bool = False


@dataclass(frozen=True)
class Case:
    name: str
    argv: Tuple[str, ...]
    refs: Tuple[Ref, ...]

    @property
    def is_report(self) -> bool:
        return self.argv[0] == "verify"


# ------------------------------------------------------------- exact values

CHI = "chi(X), the left side of the identity"
ASYM_CONE = "asymptotic double cone x^2+y^2=z^2 has area 2*pi*R^2/sqrt2 in B_R"
HYP_GAUSS = "Gauss image of x^2+y^2-z^2=1 is the band |z|<1/sqrt2, area 2*sqrt2*pi"
PARA_AREA = "area of z=x^2+y^2 in B_R grows like R^(3/2)"
PARA_GAUSS = "Gauss image of z=x^2+y^2 is an open hemisphere, area 2*pi"
CYL_AREA = "area of x^2+y^2=1 in B_R grows like R"
FLAT = "flat: every curvature density of order below the dimension vanishes"
COMPACT = "compact set: growth limits of order k >= 1 vanish"
ODD = "odd-order curvature of a smooth set vanishes"
ABOVE_DIM = "orders above the dimension vanish"


def _rows(values: Dict[int, Tuple[float, str]], sampled_rhs: bool = True,
          sampled_lhs=()) -> List[Ref]:
    """Both sides of each row equal the row's exact value."""
    refs = []
    for k, (exact, source) in values.items():
        refs.append(Ref(("lhs", k), exact, source, k in sampled_lhs))
        refs.append(Ref(("rhs", k), exact, source, sampled_rhs))
    return refs


def _pieces(k: int, values: Dict[str, Tuple[float, str]], sampled=()) -> List[Ref]:
    return [Ref(("piece", k, name), exact, source, name in sampled)
            for name, (exact, source) in values.items()]


# growth limits and order-0 curvature of the smooth builtin sets
SMOOTH_TERMS: Dict[str, Dict[str, Tuple[float, str]]] = {
    "hyperboloid_r3": {"L0": (-SQRT2, HYP_GAUSS), "k1": (0.0, ODD),
                       "k2": (SQRT2, ASYM_CONE), "k3": (0.0, ABOVE_DIM)},
    "paraboloid_r3": {"L0": (1.0, PARA_GAUSS), "k1": (0.0, ODD),
                      "k2": (0.0, PARA_AREA), "k3": (0.0, ABOVE_DIM)},
    "cylinder_r3": {"L0": (0.0, "Gauss curvature of the cylinder vanishes"),
                    "k1": (0.0, ODD), "k2": (0.0, CYL_AREA), "k3": (0.0, ABOVE_DIM)},
    "twisted_cubic_r3": {"L0": (0.0, ODD),
                         "k1": (1.0, "length of (t,t^2,t^3) in B_R is 2R+o(R)"),
                         "k2": (0.0, ABOVE_DIM), "k3": (0.0, ABOVE_DIM)},
    "sphere_s2": {"L0": (2.0, "Gauss-Bonnet for S^2"), "k1": (0.0, COMPACT),
                  "k2": (0.0, COMPACT), "k3": (0.0, COMPACT)},
    "torus_r3": {"L0": (0.0, "Gauss-Bonnet for the torus"), "k1": (0.0, COMPACT),
                 "k2": (0.0, COMPACT), "k3": (0.0, COMPACT)},
    "plane_r2_in_r3": {"L0": (0.0, FLAT), "k1": (0.0, ODD),
                       "k2": (1.0, "linear limits equal [k = dim]"),
                       "k3": (0.0, ABOVE_DIM)},
}
SMOOTH_CHI = {"hyperboloid_r3": 0, "paraboloid_r3": 1, "cylinder_r3": 0,
              "twisted_cubic_r3": 1, "sphere_s2": 2, "torus_r3": 0, "plane_r2_in_r3": 1}
SMOOTH_DIM = {"twisted_cubic_r3": 1}


def _assembly_case(set_name: str, theorem: str) -> Case:
    """thm3.9 / thm4.3: chi(X) against its curvature assembly."""
    terms = SMOOTH_TERMS[set_name]
    if theorem == "thm3.9":
        names = ["L0", "k1", "k2", "k3"]
    elif SMOOTH_DIM.get(set_name, 2) % 2 == 0:  # thm4.3, even dimension
        names = ["total_top_order_curvature", "k2"]
        terms = dict(terms, total_top_order_curvature=terms["L0"])
    else:  # thm4.3, odd dimension
        names = ["k1"]
    refs = _rows({0: (float(SMOOTH_CHI[set_name]), CHI)}, sampled_rhs=False)
    refs += _pieces(0, {name: terms[name] for name in names})
    return Case(f"{set_name} {theorem}",
                ("verify", "--set", set_name, "--theorem", theorem), tuple(refs))


def _limit_case(set_name: str) -> Case:
    """thm3.7: growth limits (left) against Grassmannian half-means (right)."""
    terms = SMOOTH_TERMS[set_name]
    rows = {k: terms[f"k{k}"] for k in (1, 2, 3)}
    return Case(f"{set_name} thm3.7",
                ("verify", "--set", set_name, "--theorem", "thm3.7"), tuple(_rows(rows)))


SMOOTH_LINKS = [_limit_case("hyperboloid_r3"), _limit_case("paraboloid_r3")]

STAR_ARCS = "the star's three arcs have total length pi"
EXACT_LINKS = [
    Case("star3_cone_r3 prop3.1",
         ("verify", "--set", "star3_cone_r3", "--theorem", "prop3.1"),
         tuple(_rows({1: (0.5, "spherical Gauss-Bonnet: (V-E)/b_1 = 1/2"),
                      2: (0.5, STAR_ARCS),
                      3: (0.0, "a cone over a graph has no order-3 curvature")},
                     sampled_lhs=(1,)))),
    Case("plane_cone_r3 thm3.7",
         ("verify", "--set", "plane_cone_r3", "--theorem", "thm3.7"),
         tuple(_rows({1: (0.0, "flat plane"), 2: (1.0, "flat plane: [k = dim]"),
                      3: (0.0, ABOVE_DIM)}, sampled_lhs=(1,)))),
    Case("line_r3 prop3.1",
         ("verify", "--set", "line_r3", "--theorem", "prop3.1"),
         tuple(_rows({1: (1.0, "linear limits equal [k = dim]"),
                      2: (0.0, ABOVE_DIM), 3: (0.0, ABOVE_DIM)}))),
    Case("cross_r2 base_point",
         ("verify", "--set", "cross_r2", "--theorem", "base_point", "--base-point", "1,2"),
         tuple(_rows({0: (1.0, CHI)})
               + _rows({1: (1.0, "both assemblies equal chi")}, sampled_lhs=(1,))
               + _pieces(0, {"L0": (-1.0, "chi minus the two lines' limit 2"),
                             "k1": (2.0, "two lines: total length 4R over 2R"),
                             "k2": (0.0, ABOVE_DIM)}, sampled=("L0",)))),
]

CUBATURE = [
    _assembly_case(set_name, theorem)
    for set_name in ("hyperboloid_r3", "paraboloid_r3", "cylinder_r3", "twisted_cubic_r3",
                     "sphere_s2", "torus_r3", "plane_r2_in_r3")
    for theorem in ("thm3.9", "thm4.3")
] + [
    Case("hyperboloid_r3 base_point",
         ("verify", "--set", "hyperboloid_r3", "--theorem", "base_point",
          "--base-point", "0,0,3"),
         tuple(_rows({0: (0.0, CHI), 1: (0.0, "both assemblies equal chi")},
                     sampled_rhs=False)
               + _pieces(0, SMOOTH_TERMS["hyperboloid_r3"]))),
    Case("plane_r2_in_r4 curvature k0",
         ("curvature", "--set", str(PLANE_R2_IN_R4), "--k", "0", "--radius", "8"),
         (Ref(("measure",), 0.0, FLAT, sampled=True),)),
]

WORKLOADS: Dict[str, List[Case]] = {
    "smooth_links": SMOOTH_LINKS,
    "exact_links": EXACT_LINKS,
    "cubature": CUBATURE,
}
