"""Sparse multivariate polynomials keyed by exponent tuples.

This is the implicit-form substrate for smooth sets: evaluation and gradients
are vectorized over point batches, and ``compose_affine`` restricts a
polynomial to an affine subspace (for sections and their links).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np

Exponents = Tuple[int, ...]

_COEFF_DROP = 0.0  # exact-zero coefficients are dropped, nothing else


class Poly:
    """Polynomial sum of coeff * x^alpha over exponent tuples alpha."""

    __slots__ = ("nvars", "terms", "_exp_matrix", "_coeffs")

    def __init__(self, nvars: int, terms: Dict[Exponents, float]):
        self.nvars = int(nvars)
        clean: Dict[Exponents, float] = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars:
                raise ValueError(f"exponent tuple {exps} has wrong arity")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = float(c)
            if c != _COEFF_DROP:
                clean[exps] = clean.get(exps, 0.0) + c
        self.terms = {e: c for e, c in clean.items() if c != 0.0}
        if self.terms:
            self._exp_matrix = np.array(sorted(self.terms), dtype=np.int64)
            self._coeffs = np.array([self.terms[tuple(e)] for e in self._exp_matrix])
        else:
            self._exp_matrix = np.zeros((0, self.nvars), dtype=np.int64)
            self._coeffs = np.zeros(0)

    # ------------------------------------------------------------------ algebra
    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: float) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1.0})

    def __add__(self, other: "Poly") -> "Poly":
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, 0.0) + c
        return Poly(self.nvars, merged)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            out: Dict[Exponents, float] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    out[key] = out.get(key, 0.0) + c1 * c2
            return Poly(self.nvars, out)
        return Poly(self.nvars, {e: c * float(other) for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (other * -1.0)

    def power(self, exponent: int) -> "Poly":
        result = Poly.constant(self.nvars, 1.0)
        for _ in range(int(exponent)):
            result = result * self
        return result

    # --------------------------------------------------------------- evaluation
    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate on points of shape (B, nvars); returns shape (B,)."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != self.nvars:
            raise ValueError(f"points have {pts.shape[1]} coords, expected {self.nvars}")
        if not self.terms:
            return np.zeros(pts.shape[0])
        # per-variable power tables keep the work at one multiply per factor
        max_exp = self._exp_matrix.max(axis=0)
        tables = []
        for j in range(self.nvars):
            col = [None, pts[:, j]]
            for _ in range(2, int(max_exp[j]) + 1):
                col.append(col[-1] * pts[:, j])
            tables.append(col)
        out = np.zeros(pts.shape[0])
        for exps, coeff in zip(self._exp_matrix, self._coeffs):
            term = None
            for j, e in enumerate(exps):
                if e:
                    term = tables[j][e] if term is None else term * tables[j][e]
            out += coeff if term is None else coeff * term
        return out

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.eval(pts)

    def partial(self, var: int) -> "Poly":
        out: Dict[Exponents, float] = {}
        for exps, c in self.terms.items():
            e = exps[var]
            if e == 0:
                continue
            key = tuple(x - 1 if j == var else x for j, x in enumerate(exps))
            out[key] = out.get(key, 0.0) + c * e
        return Poly(self.nvars, out)

    def grad_eval(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.stack([self.partial(j).eval(pts) for j in range(self.nvars)], axis=1)

    # ---------------------------------------------------------------- structure
    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading_form(self) -> "Poly":
        """Top-degree homogeneous part; governs the ends of the zero set."""
        d = self.degree()
        return Poly(self.nvars, {e: c for e, c in self.terms.items() if sum(e) == d})

    def quadratic_form_matrix(self) -> np.ndarray:
        """Symmetric matrix of the degree-2 part (nvars x nvars)."""
        a = np.zeros((self.nvars, self.nvars))
        for exps, c in self.terms.items():
            if sum(exps) != 2:
                continue
            idx = [j for j, e in enumerate(exps) for _ in range(e)]
            i, j = idx
            if i == j:
                a[i, i] += c
            else:
                a[i, j] += c / 2.0
                a[j, i] += c / 2.0
        return a

    def compose_affine(self, base: np.ndarray, frame: np.ndarray) -> "Poly":
        """Restrict to the affine flat x = base + s @ frame.

        ``frame`` has shape (k, n); the result is a polynomial in the k flat
        coordinates s.
        """
        base = np.asarray(base, dtype=float)
        frame = np.asarray(frame, dtype=float)
        k = frame.shape[0]
        if frame.shape[1] != self.nvars or base.shape != (self.nvars,):
            raise ValueError("frame/base shape mismatch")
        # linear substitution polynomials for each original variable
        subs = []
        for j in range(self.nvars):
            terms = {(0,) * k: float(base[j])}
            for i in range(k):
                exps = [0] * k
                exps[i] = 1
                terms[tuple(exps)] = float(frame[i, j])
            subs.append(Poly(k, terms))
        out = Poly.zero(k)
        for exps, c in self.terms.items():
            term = Poly.constant(k, c)
            for j, e in enumerate(exps):
                if e:
                    term = term * subs[j].power(e)
            out = out + term
        return out

    # ----------------------------------------------------------------------- io
    @classmethod
    def from_json_terms(cls, nvars: int, terms: Dict[str, float]) -> "Poly":
        parsed: Dict[Exponents, float] = {}
        for key, coeff in terms.items():
            body = key.strip().strip("()")
            exps = tuple(int(part) for part in body.split(",") if part.strip() != "")
            if exps in parsed:
                raise ValueError(f"exponent {exps} is given twice")
            parsed[exps] = float(coeff)
        return cls(nvars, parsed)

    def to_json_terms(self) -> Dict[str, float]:
        return {"(" + ",".join(str(e) for e in exps) + ")": c for exps, c in sorted(self.terms.items())}

    def __repr__(self):
        return f"Poly(nvars={self.nvars}, terms={len(self.terms)}, degree={self.degree()})"


def poly_from_coeff_dict(nvars: int, terms: Iterable) -> Poly:
    return Poly(nvars, dict(terms))
