"""Closed semi-algebraic set descriptors and the built-in catalog.

Three representations are supported:

* :class:`LinearSubspace` -- a linear subspace given by an orthonormal frame;
* :class:`ConicGraph`  -- the cone over a :class:`SphericalGraph`;
* :class:`SmoothSet`   -- a smooth curve or surface given by one chart, an
  optional implicit polynomial, and a declared Euler characteristic.

Set-definition files use a small JSON schema mirroring these variants; see
``load_set_file``.  The ``charts`` entry of a smooth set is a list holding
exactly one chart.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..errors import SetValidationError
from .charts import Chart, build_chart, tangent_gram
from .graphs import SphericalGraph, builtin_graphs, validate_graph
from .polynomial import Poly

IMPLICIT_RESIDUAL_TOL = 1e-8
_SPOT_CHECK_POINTS = 64


@dataclass(frozen=True, eq=False)
class LinearSubspace:
    ambient_dim: int
    frame: np.ndarray  # (k, n) orthonormal rows

    def __post_init__(self):
        object.__setattr__(self, "frame", np.atleast_2d(np.asarray(self.frame, dtype=float)))

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    @property
    def compact(self) -> bool:
        return False


@dataclass(frozen=True, eq=False)
class ConicGraph:
    ambient_dim: int
    graph: SphericalGraph

    @property
    def dim(self) -> int:
        return 2 if self.graph.n_edges else (1 if self.graph.n_vertices else 0)

    @property
    def compact(self) -> bool:
        return False


@dataclass(frozen=True, eq=False)
class SmoothSet:
    ambient_dim: int
    dim: int
    chart: Optional[Chart]  # None only for sets that are used through their implicit form
    implicit: Optional[Poly] = None
    declared_chi: Optional[int] = None
    compact: bool = False


SetDescriptor = Union[LinearSubspace, ConicGraph, SmoothSet]


def kind_of(x: SetDescriptor) -> str:
    if isinstance(x, LinearSubspace):
        return "linear"
    if isinstance(x, ConicGraph):
        return "conic_graph"
    if isinstance(x, SmoothSet):
        return "smooth"
    raise TypeError(f"not a set descriptor: {x!r}")


def coefficient_scale(x: SetDescriptor) -> float:
    """Size scale of the defining data: the largest of 1 and the absolute
    polynomial coefficients and chart parameters.  Set validation spot-checks
    a chart inside the ball of 8 times this radius, and
    ``LinkSection.radius_used``, which the benchmark's tracing reads, is
    ``links.BASE_RADIUS_FACTOR`` times it."""
    scale = 1.0
    if isinstance(x, SmoothSet):
        if x.implicit is not None and x.implicit.terms:
            scale = max(scale, max(abs(c) for c in x.implicit.terms.values()))
        if x.chart is not None:
            for value in x.chart.params.values():
                arr = np.asarray(value, dtype=float)
                if arr.size:
                    scale = max(scale, float(np.max(np.abs(arr))))
    return scale


# ------------------------------------------------------------------ validation

def validate_set(x: SetDescriptor) -> None:
    if isinstance(x, LinearSubspace):
        frame = x.frame
        if frame.shape[1] != x.ambient_dim:
            raise SetValidationError("frame", "vector length differs from ambient_dim")
        if not np.all(np.isfinite(frame)):
            raise SetValidationError("frame", "non-finite number")
        # orthonormal rows have entries in [-1, 1]; larger ones could overflow
        # the Gram matrix into inf - inf
        if not np.all(np.abs(frame) <= 1.0 + 1e-10) or np.max(
                np.abs(frame @ frame.T - np.eye(frame.shape[0]))) > 1e-10:
            raise SetValidationError("frame", "rows are not orthonormal")
        return
    if isinstance(x, ConicGraph):
        if x.graph.ambient_dim != x.ambient_dim:
            raise SetValidationError("vertices", "vertex length differs from ambient_dim")
        validate_graph(x.graph)
        return
    if isinstance(x, SmoothSet):
        _validate_smooth(x)
        return
    raise TypeError(f"not a set descriptor: {x!r}")


def _trace_box(chart: Chart, radius: float, center: np.ndarray) -> Optional[np.ndarray]:
    """A parameter box holding the chart's trace inside the ball: the hull of
    its pieces of t by the whole range of phi; None where the trace misses
    the ball."""
    pieces = chart.ball_intervals((radius,), center)[0]
    if not len(pieces):
        return None
    box = np.empty((chart.dim, 2))
    box[chart.profile_axis] = pieces[0, 0], pieces[-1, 1]
    if chart.rotation_axis is not None:
        box[chart.rotation_axis] = chart.phi_range() or (0.0, 2.0 * np.pi)
    return box


def _validate_smooth(x: SmoothSet) -> None:
    if not 1 <= x.dim <= x.ambient_dim - 1:
        raise SetValidationError("dim", f"need 1 <= d <= n-1, got d={x.dim}, n={x.ambient_dim}")
    chart = x.chart
    if chart is None:
        raise SetValidationError("charts", "smooth set needs one chart")
    if x.implicit is not None and x.implicit.nvars != x.ambient_dim:
        raise SetValidationError("polynomial", "variable count differs from ambient_dim")
    if x.implicit is not None and not all(np.isfinite(c) for c in x.implicit.terms.values()):
        raise SetValidationError("polynomial", "non-finite coefficient")
    if x.implicit is not None and x.dim != x.ambient_dim - 1:
        raise SetValidationError("polynomial", "implicit form requires codimension one")
    if chart.dim != x.dim:
        raise SetValidationError("dim", f"set dim {x.dim} differs from the "
                                 f"{chart.label!r} chart's dim {chart.dim}")
    if chart.ambient_dim != x.ambient_dim:
        raise SetValidationError("charts.map", "chart ambient dim mismatch")
    try:
        box = _trace_box(chart, 8.0 * coefficient_scale(x), np.zeros(x.ambient_dim))
    except ValueError as exc:
        raise SetValidationError(
            "charts.params", f"chart is too large to spot-check: {exc}") from exc
    if box is None:
        return
    rng = np.random.Generator(np.random.Philox(key=np.array([17, 23], dtype=np.uint64)))
    u = rng.uniform(box[:, 0], box[:, 1], size=(_SPOT_CHECK_POINTS, chart.dim))
    pts, jac, _ = chart.jet(u)
    if tangent_gram(jac)[1]:
        raise SetValidationError("charts.map", "chart tangent frame degenerates")
    if x.implicit is not None:
        vals = np.abs(x.implicit.eval(pts))
        bound = IMPLICIT_RESIDUAL_TOL * (1.0 + np.linalg.norm(pts, axis=1) ** x.implicit.degree())
        if np.any(vals > bound):
            raise SetValidationError("polynomial", "chart points violate the implicit form")
        grads = np.linalg.norm(x.implicit.grad_eval(pts), axis=1)
        if np.min(grads) < 1e-10:
            raise SetValidationError("polynomial", "implicit gradient vanishes on the set")


# -------------------------------------------------------------------- builtins

def _torus_implicit(R0: float, r0: float) -> Poly:
    q = Poly(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0,
                 (0, 0, 0): R0 * R0 - r0 * r0})
    planar = Poly(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0})
    return q * q - (4.0 * R0 * R0) * planar


def _cone(n: int, graph: str) -> Callable[[], ConicGraph]:
    return lambda: ConicGraph(n, builtin_graphs()[graph])


# name -> builder: a name resolves by building its own set, not the catalog
_BUILTINS: Dict[str, Callable[[], SetDescriptor]] = {
    "line_r2": lambda: LinearSubspace(2, np.array([[1.0, 0.0]])),
    "line_r3": lambda: LinearSubspace(3, np.array([[1.0, 0.0, 0.0]])),
    "cross_r2": _cone(2, "cross_s1"),
    "plane_cone_r3": _cone(3, "circle_s2"),
    "star3_cone_r3": _cone(3, "star3_s2"),
    "sphere_s2": lambda: SmoothSet(
        ambient_dim=3, dim=2,
        chart=build_chart("sphere", params={"radius": 1.0}),
        implicit=Poly(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): -1.0}),
        declared_chi=2, compact=True,
    ),
    "torus_r3": lambda: SmoothSet(
        ambient_dim=3, dim=2,
        chart=build_chart("torus", params={"major_radius": 2.0, "minor_radius": 0.5}),
        implicit=_torus_implicit(2.0, 0.5),
        declared_chi=0, compact=True,
    ),
    "cylinder_r3": lambda: SmoothSet(
        ambient_dim=3, dim=2,
        chart=build_chart("cylinder", params={"radius": 1.0}),
        implicit=Poly(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 0): -1.0}),
        declared_chi=0, compact=False,
    ),
    "plane_r2_in_r3": lambda: SmoothSet(
        ambient_dim=3, dim=2,
        chart=build_chart("plane"),
        implicit=Poly(3, {(0, 0, 1): 1.0}),
        declared_chi=1, compact=False,
    ),
    "paraboloid_r3": lambda: SmoothSet(
        ambient_dim=3, dim=2,
        chart=build_chart("paraboloid", params={"coefficient": 1.0}),
        implicit=Poly(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 1): -1.0}),
        declared_chi=1, compact=False,
    ),
    "hyperboloid_r3": lambda: SmoothSet(
        ambient_dim=3, dim=2,
        chart=build_chart("hyperboloid_one_sheet"),
        implicit=Poly(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): -1.0, (0, 0, 0): -1.0}),
        declared_chi=0, compact=False,
    ),
    "twisted_cubic_r3": lambda: SmoothSet(
        ambient_dim=3, dim=1,
        chart=build_chart("poly_curve", params={
            "coefficients": [[0.0, 1.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0, 0.0],
                             [0.0, 0.0, 0.0, 1.0]]}),
        implicit=None,
        declared_chi=1, compact=False,
    ),
}


def builtin_sets() -> Dict[str, SetDescriptor]:
    return {name: build() for name, build in _BUILTINS.items()}


def describe(x: SetDescriptor) -> Dict[str, object]:
    from .links import euler_char  # local import to avoid a cycle

    try:
        chi = euler_char(x)
    except Exception:
        chi = None
    return {
        "kind": kind_of(x),
        "ambient_dim": x.ambient_dim,
        "dim": x.dim,
        "chi": chi,
        "compact": x.compact,
    }


# ------------------------------------------------------------------------- io

def integer_field(value, field: str) -> int:
    """An integer entry of a set description; anything else names the field."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise SetValidationError(field, f"expected an integer, got {value!r}")


def _edge_list(edges) -> Tuple[Tuple[int, int], ...]:
    if not isinstance(edges, (list, tuple)):
        raise SetValidationError("edges", "expected a list of vertex index pairs")
    pairs = []
    for e, pair in enumerate(edges):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SetValidationError("edges", f"edge {e} is not a pair of vertex indices")
        pairs.append((integer_field(pair[0], "edges"), integer_field(pair[1], "edges")))
    return tuple(pairs)


# |chi| above this has no exact double, so a report could not carry it
_MAX_CHI = 2**53
_CHART_ENTRIES = ("map", "domain", "params")


def _number_rows(value, field: str) -> np.ndarray:
    """A list of rows of numbers (or one row) as a 2-D float array."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise SetValidationError(field, "rows have different lengths") from exc
    if arr.dtype.kind not in "iuf" or arr.ndim > 2:
        raise SetValidationError(field, "expected a list of rows of numbers")
    return np.atleast_2d(arr.astype(float))


def _chart_spec(charts) -> dict:
    """The one chart object of a ``charts`` list."""
    if not isinstance(charts, list) or len(charts) != 1 or not isinstance(charts[0], dict):
        raise SetValidationError("charts", "expected a list of exactly one chart object")
    spec = charts[0]
    for key in spec:
        if key not in _CHART_ENTRIES:
            raise SetValidationError(f"charts.{key}", "unknown chart entry; a chart "
                                     f"takes {', '.join(_CHART_ENTRIES)}")
    return spec


def _polynomial(n: int, terms) -> Poly:
    if not isinstance(terms, dict) or not all(
        isinstance(c, numbers.Real) and not isinstance(c, bool) for c in terms.values()
    ):
        raise SetValidationError("polynomial", "expected an object of exponent keys and numbers")
    try:
        return Poly.from_json_terms(n, terms)
    except (ValueError, OverflowError) as exc:  # unparsable, negative or wrong-arity exponents
        raise SetValidationError("polynomial", str(exc)) from exc


def set_from_dict(doc: Dict) -> SetDescriptor:
    if not isinstance(doc, dict):
        raise SetValidationError("(top level)", f"expected a JSON object, got {type(doc).__name__}")
    try:
        n = integer_field(doc["ambient_dim"], "ambient_dim")
        kind = doc["kind"]
    except KeyError as exc:
        raise SetValidationError(str(exc.args[0]), "missing required field") from exc
    if kind == "linear":
        if "frame" not in doc:
            raise SetValidationError("frame", "missing for kind=linear")
        x: SetDescriptor = LinearSubspace(n, _number_rows(doc["frame"], "frame"))
    elif kind == "conic_graph":
        for key in ("vertices",):
            if key not in doc:
                raise SetValidationError(key, "missing for kind=conic_graph")
        graph = SphericalGraph(
            vertices=_number_rows(doc["vertices"], "vertices"),
            edges=_edge_list(doc.get("edges", [])),
        )
        x = ConicGraph(n, graph)
    elif kind == "smooth":
        if "charts" not in doc:
            raise SetValidationError("charts", "missing for kind=smooth")
        spec = _chart_spec(doc["charts"])
        if spec.get("map") is None:
            raise SetValidationError("charts.map", "chart missing map name")
        chart = build_chart(spec["map"], spec.get("domain"), spec.get("params", {}))
        terms = doc.get("polynomial")
        implicit = None if terms in (None, {}) else _polynomial(n, terms)
        dim = integer_field(doc.get("dim", chart.dim), "dim")
        chi = doc.get("declared_chi")
        if chi is not None:
            chi = integer_field(chi, "declared_chi")
            if abs(chi) > _MAX_CHI:
                raise SetValidationError("declared_chi", "|chi| exceeds 2**53")
        compact = doc.get("compact", False)
        if not isinstance(compact, bool):
            raise SetValidationError("compact", f"expected true or false, got {compact!r}")
        x = SmoothSet(
            ambient_dim=n, dim=dim, chart=chart, implicit=implicit,
            declared_chi=chi, compact=compact,
        )
    else:
        raise SetValidationError("kind", f"unknown kind {kind!r}")
    validate_set(x)
    return x


def set_to_dict(name: str, x: SetDescriptor) -> Dict:
    doc: Dict = {"name": name, "ambient_dim": x.ambient_dim, "kind": kind_of(x)}
    if isinstance(x, LinearSubspace):
        doc["frame"] = x.frame.tolist()
    elif isinstance(x, ConicGraph):
        doc["vertices"] = x.graph.vertices.tolist()
        doc["edges"] = [list(e) for e in x.graph.edges]
    elif isinstance(x, SmoothSet):
        doc["dim"] = x.dim
        chart = x.chart
        doc["charts"] = [{
            "domain": None if chart.base_domain is None else np.asarray(chart.base_domain).tolist(),
            "map": chart.label,
            "params": _jsonable_params(chart.params),
        }]
        doc["polynomial"] = x.implicit.to_json_terms() if x.implicit is not None else None
        doc["declared_chi"] = x.declared_chi
        doc["compact"] = x.compact
    return doc


def _jsonable_params(params: Dict) -> Dict:
    out = {}
    for key, value in params.items():
        arr = np.asarray(value)
        out[key] = arr.tolist() if arr.ndim else value
    return out


def load_set_file(path: str) -> Tuple[str, SetDescriptor]:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    x = set_from_dict(doc)
    name = doc.get("name", path)
    if not isinstance(name, str):
        raise SetValidationError("name", f"expected a string, got {name!r}")
    return name, x


def resolve_set(ref: str) -> Tuple[str, SetDescriptor]:
    """Resolve a builtin name or a set-definition file path."""
    if ref in _BUILTINS:
        return ref, _BUILTINS[ref]()
    return load_set_file(ref)
