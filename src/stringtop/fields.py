"""Coefficient fields, flat connections, and Grassmann-valued form fields.

A field configuration is an inhomogeneous differential form on the flat
torus with values in n x n matrices tensored with a Grassmann algebra:

    C = sum_terms  f(x) * dx^{mu_1} ... dx^{mu_k} * theta_S * E,

with f a scalar coefficient function (a finite Fourier sum), the mu's
strictly increasing, theta_S a Grassmann monomial, and E a constant
matrix. Internally the form and Grassmann factors are one monomial in a
single exterior algebra whose generators are ordered
[dx^1, dx^2, theta_1 .. theta_N]: all Koszul signs reduce to
``merge_sign`` on bitmasks, and the exterior derivative is left
multiplication by dx^mu paired with d/dx^mu on the coefficient.

The obstruction field of a configuration C against a flat connection A is

    B = dC + A C + C A + C C,

computed term by term in that algebra. When C has odd total parity
(form degree + Grassmann degree odd per term) and A is a 1-form, B is
even. Vanishing of B is exactly the condition for generalized transports
of C to be deformation invariant, which the holonomy layer tests.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from stringtop.geometry import Torus
from stringtop.grassmann import merge_sign


# ---------------------------------------------------------------------------
# scalar coefficient fields


def _clean_terms(terms: Mapping[tuple[int, ...], complex]) -> tuple:
    out = []
    for key, val in terms.items():
        val = complex(val)
        if val != 0:
            out.append((tuple(int(k) for k in key), val))
    out.sort(key=lambda kv: kv[0])
    return tuple(out)


@dataclass(frozen=True)
class FourierField:
    """Finite Fourier sum on the torus: sum_m c_m exp(2 pi i m.x)."""

    d: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    @classmethod
    def from_dict(cls, d: int, terms: Mapping[tuple[int, ...], complex]) -> "FourierField":
        for key in terms:
            if len(key) != d:
                raise ValueError(f"bad frequency tuple {key}")
        return cls(d, _clean_terms(terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, point: Sequence | np.ndarray) -> complex | np.ndarray:
        """Value at one point of length d, or the (m,) values at the rows of
        an (m, d) array of points: ``FourierStack`` of this one field.

        The library evaluates fields through ``FourierStack``; this wrapper
        stays because the benchmark tracer (``perfbench/tracing.py``) names
        it."""
        values = self._stack(point)[0]
        return values if values.ndim else complex(values)

    @functools.cached_property
    def _stack(self) -> "FourierStack":
        return FourierStack(self.d, [self])

    def derivative(self, mu: int) -> "FourierField":
        out = {
            freqs: 2j * cmath.pi * freqs[mu] * coeff
            for freqs, coeff in self.terms
            if freqs[mu] != 0
        }
        return FourierField.from_dict(self.d, out)

    def scale(self, s: complex) -> "FourierField":
        return FourierField.from_dict(self.d, {f: s * v for f, v in self.terms})

    def __mul__(self, other):
        if not isinstance(other, FourierField):
            return NotImplemented
        out: dict[tuple[int, ...], complex] = {}
        for f1, v1 in self.terms:
            for f2, v2 in other.terms:
                key = tuple(a + b for a, b in zip(f1, f2))
                out[key] = out.get(key, 0j) + v1 * v2
        return FourierField.from_dict(self.d, out)


class FourierStack:
    """Several Fourier fields on the torus, evaluated in one pass.

    Every distinct mode of the fields is phased and exponentiated once per
    call. A field's value is then its own modes gathered from those waves,
    weighted by its coefficients and summed in its term order. The fields
    are grouped by their number of modes, so each sum runs over exactly
    that field's terms and rounds as the field alone does (numpy's
    pairwise sum groups by length).
    """

    def __init__(self, d: int, fields: Sequence[FourierField]) -> None:
        modes = sorted({f for field in fields for f, _ in field.terms})
        where = {f: k for k, f in enumerate(modes)}
        self.count = len(fields)
        self.freqs = np.array(modes, dtype=float).reshape(-1, d)
        by_length: dict[int, list[int]] = {}
        for at, field in enumerate(fields):
            by_length.setdefault(len(field.terms), []).append(at)
        self.groups = [
            (
                np.array(ats),
                np.array([[where[f] for f, _ in fields[a].terms] for a in ats], dtype=int).reshape(len(ats), length),
                np.array([[c for _, c in fields[a].terms] for a in ats], dtype=complex).reshape(len(ats), length),
            )
            for length, ats in by_length.items()
        ]

    def __call__(self, point: Sequence | np.ndarray) -> np.ndarray:
        """The (fields,) values at one point of length d, or the
        (fields, m) values at the rows of an (m, d) array of points."""
        xs = np.asarray(point, dtype=float)
        waves = np.exp(2j * np.pi * (xs[..., None, :] * self.freqs).sum(axis=-1))
        out = np.empty((self.count, *xs.shape[:-1]), dtype=complex)
        for ats, index, coeffs in self.groups:
            # np.take lays each field's modes out contiguously, so the sum runs
            # along them as for the field alone (fancy indexing would not)
            out[ats] = (np.take(waves, index, axis=-1) * coeffs).sum(axis=-1).T
        return out


# ---------------------------------------------------------------------------
# flat connections


class ConstantCommutingConnection:
    """A = A_1 dx^1 + A_2 dx^2 with constant commuting matrices on T^2.

    dA = 0 for constant coefficients and A ^ A = [A_1, A_2] dx^1 dx^2, so
    commutation is exactly flatness; it is validated at construction,
    once, relative to the matrix scale: the matrices are never changed
    afterwards. The single-exponential ``holonomy.transport`` relies on
    it. There is one matrix per torus direction: ``field_obstruction``
    gives A_mu the form bit of dx^mu.
    """

    def __init__(self, mats: Sequence[np.ndarray]) -> None:
        self.mats = tuple(np.asarray(m, dtype=complex) for m in mats)
        if len(self.mats) != 2:
            raise ValueError(
                f"need two direction matrices, one per torus direction, not {len(self.mats)}"
            )
        self.n = self.mats[0].shape[0]
        for m in self.mats:
            if m.shape != (self.n, self.n):
                raise ValueError("connection matrices must share one square shape")
        residual = self.flatness_residual()
        scale = max(max(float(np.max(np.abs(m))) for m in self.mats), 1.0)
        if residual > 1e-12 * scale:
            raise ValueError(
                f"direction matrices do not commute (flatness residual {residual:.3e})"
            )

    def matrix_of(self, velocity: Sequence) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=complex)
        for v, m in zip(velocity, self.mats):
            out += float(v) * m
        return out

    def gauge(self, g: np.ndarray) -> "ConstantCommutingConnection":
        ginv = np.linalg.inv(g)
        return ConstantCommutingConnection([g @ m @ ginv for m in self.mats])

    def flatness_residual(self) -> float:
        """Largest entry of the commutator [A_1, A_2]."""
        a1, a2 = self.mats
        return float(np.max(np.abs(a1 @ a2 - a2 @ a1)))


# ---------------------------------------------------------------------------
# field configurations


class FieldTerm(NamedTuple):
    mask: int  # bits 0, 1: dx factors; bits 2..n_theta+1: theta factors
    field: FourierField
    mat: np.ndarray


class FieldConfig:
    """Sum of matrix-valued form terms with Grassmann coefficients."""

    __slots__ = ("space", "n", "n_theta", "terms")

    def __init__(
        self,
        space: Torus,
        n: int,
        n_theta: int,
        terms: Iterable[FieldTerm] = (),
        expect_parity: int | None = None,
    ) -> None:
        self.space = space
        self.n = n
        self.n_theta = n_theta
        clean = []
        for term in terms:
            mask, field, mat = term
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (n, n):
                raise ValueError("matrix part has wrong shape")
            if mask >> (space.d + n_theta):
                raise ValueError("term uses generators beyond dx and theta ranges")
            if field.d != space.d:
                raise ValueError("coefficient field dimension mismatch")
            if field.is_zero or not mat.any():
                continue
            if expect_parity is not None and mask.bit_count() % 2 != expect_parity:
                raise ValueError(
                    f"term parity {mask.bit_count() % 2} != required {expect_parity}"
                )
            clean.append(FieldTerm(int(mask), field, mat))
        self.terms = tuple(clean)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def build(
        cls,
        space: Torus,
        n: int,
        n_theta: int,
        term_specs: Iterable[dict],
        expect_parity: int | None = None,
    ) -> "FieldConfig":
        """Terms as dicts: indices (1-based dx), eps (1-based theta), field, lie.

        ``field`` is a ``FourierField`` (a constant c is
        ``FourierField.from_dict(d, {(0,) * d: c})``), and anything else
        raises ``TypeError``; ``lie`` is the n x n matrix part, any array-like
        of that shape.
        """
        d = space.d
        terms = []
        for spec in term_specs:
            indices = tuple(spec.get("indices", ()))
            eps = tuple(spec.get("eps", ()))
            if any(not 1 <= mu <= d for mu in indices):
                raise ValueError(f"dx index out of range in {indices}")
            if len(set(indices)) != len(indices) or tuple(sorted(indices)) != indices:
                raise ValueError("dx indices must be strictly increasing")
            if any(not 1 <= a <= n_theta for a in eps):
                raise ValueError(f"theta index out of range in {eps}")
            if len(set(eps)) != len(eps) or tuple(sorted(eps)) != eps:
                raise ValueError("theta indices must be strictly increasing")
            mask = 0
            for mu in indices:
                mask |= 1 << (mu - 1)
            for a in eps:
                mask |= 1 << (d + a - 1)
            field = spec["field"]
            if not isinstance(field, FourierField):
                raise TypeError(f"field must be a FourierField, not {type(field).__name__}")
            terms.append(FieldTerm(mask, field, spec["lie"]))
        return cls(space, n, n_theta, terms, expect_parity)

    def form_degree_bits(self, mask: int) -> tuple[int, ...]:
        d = self.space.d
        return tuple(b for b in range(d) if mask >> b & 1)

    def theta_mask(self, mask: int) -> int:
        return mask >> self.space.d

    # -- algebra ---------------------------------------------------------------

    def gauge(self, g: np.ndarray) -> "FieldConfig":
        """Conjugate the matrix part of every term by a constant g."""
        ginv = np.linalg.inv(g)
        return FieldConfig(
            self.space,
            self.n,
            self.n_theta,
            [FieldTerm(m, f, g @ mat @ ginv) for m, f, mat in self.terms],
        )

    def simplify(self) -> "FieldConfig":
        """Merge terms sharing (monomial, coefficient field); drop zeros."""
        grouped: dict[tuple, FieldTerm] = {}
        order: list[tuple] = []
        for mask, field, mat in self.terms:
            key = (mask, field)
            if key in grouped:
                old = grouped[key]
                grouped[key] = FieldTerm(mask, field, old.mat + mat)
            else:
                grouped[key] = FieldTerm(mask, field, mat)
                order.append(key)
        return FieldConfig(
            self.space, self.n, self.n_theta, [grouped[k] for k in order]
        )

    def __repr__(self) -> str:
        return (
            f"FieldConfig(torus d={self.space.d}, n={self.n}, "
            f"n_theta={self.n_theta}, terms={len(self.terms)})"
        )


def field_obstruction(config: FieldConfig, conn: ConstantCommutingConnection) -> FieldConfig:
    """B = dC + AC + CA + CC in the unified exterior algebra.

    The exterior derivative inserts dx^mu from the left (sign from sorting
    mu into the monomial, theta factors never crossed); the connection
    wedges act by left and right matrix multiplication with the same
    monomial signs; the quadratic term multiplies all term pairs.
    Vanishing of B makes generalized transports of C invariant under loop
    deformations.
    """
    d = config.space.d
    out: list[FieldTerm] = []
    for mask, field, mat in config.terms:
        for mu in range(d):
            bit = 1 << mu
            if mask & bit:
                continue
            df = field.derivative(mu)
            if df.is_zero:
                continue
            sign = merge_sign(bit, mask)
            out.append(FieldTerm(mask | bit, df.scale(sign), mat))
    for mu, a_mu in enumerate(conn.mats):
        bit = 1 << mu
        for mask, field, mat in config.terms:
            if mask & bit:
                continue
            out.append(FieldTerm(mask | bit, field.scale(merge_sign(bit, mask)), a_mu @ mat))
            out.append(FieldTerm(mask | bit, field.scale(merge_sign(mask, bit)), mat @ a_mu))
    for m1, f1, mat1 in config.terms:
        for m2, f2, mat2 in config.terms:
            if m1 & m2:
                continue
            sign = merge_sign(m1, m2)
            out.append(FieldTerm(m1 | m2, (f1 * f2).scale(sign), mat1 @ mat2))
    return FieldConfig(config.space, config.n, config.n_theta, out).simplify()
