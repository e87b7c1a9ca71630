"""Finite-dimensional graded Poisson / Gerstenhaber engine.

Polynomials in finitely many graded variables with exact scalar
coefficients, a constant-pairing bracket in Darboux form, and the
differential delta = {S; .} for a generator S solving the master
equation {S; S} = 0.

Coefficients are ``Fraction``s (ints are converted) or floats, and keep
their type through every operation. Koszul signs of +-1 negate a
coefficient rather than multiply it, and sums and rescalings of
polynomials already in normal form skip the normalization.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = [
    "GradedPhaseModel",
    "GradedPolynomial",
    "MasterEquationError",
    "delta_and_nilpotency",
    "graded_bracket",
]


class MasterEquationError(RuntimeError):
    """Raised when {S; S} != 0 for a proposed differential generator."""


def _coerce_scalar(value):
    """Accept exact or floating scalars; an int becomes a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (float, complex)):
        return value
    raise TypeError(f"unsupported coefficient type {type(value).__name__}")


def _swap_sign(p: int, q: int) -> int:
    return -1 if (p * q) % 2 else 1


def _accumulate(acc: dict, key: tuple[int, ...], coeff) -> None:
    """Add coeff at key, dropping the key when the sum cancels."""
    prev = acc.get(key)
    total = coeff if prev is None else prev + coeff
    if total == 0:
        acc.pop(key, None)
    else:
        acc[key] = total


class GradedPhaseModel:
    """Graded variables with a constant bracket pairing in Darboux form.

    ``table`` maps variable-name pairs to omega^{ij} = {z_i; z_j}; the
    reverse orientation is filled in by graded antisymmetry with the
    (parity + d) convention. A nonzero pairing must match the bracket
    parity, |z_i| + |z_j| = d mod 2.
    """

    def __init__(
        self,
        variables: Sequence[tuple[str, int]],
        table: Mapping[tuple[str, str], object],
        d: int,
    ) -> None:
        names: list[str] = []
        parities: list[int] = []
        for name, parity in variables:
            if name in names:
                raise ValueError(f"duplicate variable {name!r}")
            if parity not in (0, 1):
                raise ValueError(f"parity of {name!r} must be 0 or 1")
            names.append(name)
            parities.append(parity)
        self.names = tuple(names)
        self.parities = tuple(parities)
        self.d = int(d)

        omega: dict[tuple[int, int], object] = {}
        for (na, nb), value in table.items():
            i, j = self.index(na), self.index(nb)
            value = _coerce_scalar(value)
            if value == 0:
                continue
            if (parities[i] + parities[j]) % 2 != self.d % 2:
                raise ValueError(f"pairing {na!r},{nb!r} violates the bracket parity")
            mirrored = -_swap_sign(parities[i] + self.d, parities[j] + self.d) * value
            if i == j and mirrored != value:
                raise ValueError(f"pairing of {na!r} with itself must vanish")
            for key, val in (((i, j), value), ((j, i), mirrored)):
                if key in omega and omega[key] != val:
                    ka, kb = self.names[key[0]], self.names[key[1]]
                    raise ValueError(f"inconsistent pairing for {ka!r},{kb!r}")
                omega[key] = val
        self.omega = omega

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    # -- polynomial factories ------------------------------------------------

    def zero(self) -> "GradedPolynomial":
        return GradedPolynomial(self, [])

    def scalar(self, value) -> "GradedPolynomial":
        return GradedPolynomial(self, [(value, ())])

    def var(self, name: str) -> "GradedPolynomial":
        return GradedPolynomial(self, [(1, (self.index(name),))])

    def monomial(self, coeff, *names: str) -> "GradedPolynomial":
        return GradedPolynomial(self, [(coeff, tuple(self.index(n) for n in names))])

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, GradedPhaseModel)
            and self.names == other.names
            and self.parities == other.parities
            and self.d == other.d
            and self.omega == other.omega
        )

    def __repr__(self) -> str:
        vs = ", ".join(f"{n}|{p}" for n, p in zip(self.names, self.parities))
        return f"GradedPhaseModel({vs}; d={self.d})"


def _normal_key(parities: Sequence[int], factors: Sequence[int]):
    """Insertion-sort the factors, tracking the Koszul sign of each swap.

    Returns (sign, ascending tuple); sign 0 when an odd variable repeats.
    """
    out = list(factors)
    sign = 1
    for i in range(1, len(out)):
        j = i
        while j > 0 and out[j - 1] > out[j]:
            sign *= _swap_sign(parities[out[j - 1]], parities[out[j]])
            out[j - 1], out[j] = out[j], out[j - 1]
            j -= 1
    for a, b in zip(out, out[1:]):
        if a == b and parities[a] % 2:
            return 0, ()
    return sign, tuple(out)


class GradedPolynomial:
    """Polynomial in normal form: ascending variable indices per monomial."""

    __slots__ = ("model", "terms")

    def __init__(
        self,
        model: GradedPhaseModel,
        raw_terms: Iterable[tuple[object, Sequence[int]]],
    ) -> None:
        n = len(model.names)
        acc: dict[tuple[int, ...], object] = {}
        for coeff, factors in raw_terms:
            coeff = _coerce_scalar(coeff)
            for idx in factors:
                if not 0 <= idx < n:
                    raise ValueError(f"variable index {idx} not in model")
            sign, key = _normal_key(model.parities, factors)
            if sign == 0 or coeff == 0:
                continue
            _accumulate(acc, key, coeff if sign > 0 else -coeff)
        self.model = model
        self.terms = {key: acc[key] for key in sorted(acc)}

    @classmethod
    def _normal(cls, model: GradedPhaseModel, acc: dict) -> "GradedPolynomial":
        """From nonzero coerced coefficients on keys already in normal form."""
        poly = cls.__new__(cls)
        poly.model = model
        poly.terms = {key: acc[key] for key in sorted(acc)}
        return poly

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def parity(self) -> int:
        """Parity of a homogeneous polynomial (zero counts as even)."""
        seen = {
            sum(self.model.parities[i] for i in key) % 2 for key in self.terms
        }
        if len(seen) > 1:
            raise ValueError("polynomial is not homogeneous")
        return seen.pop() if seen else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedPolynomial)
            and self.model == other.model
            and self.terms == other.terms
        )

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        self._check_model(other)
        acc = dict(self.terms)
        for key, coeff in other.terms.items():
            _accumulate(acc, key, coeff)
        return GradedPolynomial._normal(self.model, acc)

    def __neg__(self) -> "GradedPolynomial":
        return self.scale(-1)

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self + (-other)

    def scale(self, scalar) -> "GradedPolynomial":
        scalar = _coerce_scalar(scalar)
        acc = {}
        for key, coeff in self.terms.items():
            value = scalar * coeff
            if value != 0:
                acc[key] = value
        return GradedPolynomial._normal(self.model, acc)

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        self._check_model(other)
        raw = [
            (c1 * c2, k1 + k2)
            for k1, c1 in self.terms.items()
            for k2, c2 in other.terms.items()
        ]
        return GradedPolynomial(self.model, raw)

    def _check_model(self, other: "GradedPolynomial") -> None:
        if self.model != other.model:
            raise ValueError("polynomials live on different models")

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key, coeff in self.terms.items():
            mono = "*".join(self.model.names[i] for i in key)
            bits.append(f"{coeff}*{mono}" if mono else str(coeff))
        return " + ".join(bits)


def _right_derivative(poly: GradedPolynomial, i: int):
    """Terms of P d/dz_i acting from the right: the factor exits rightward."""
    parities = poly.model.parities
    out = []
    for key, coeff in poly.terms.items():
        for u, idx in enumerate(key):
            if idx != i:
                continue
            odd = parities[i] and sum(parities[a] for a in key[u + 1 :]) % 2
            out.append((-coeff if odd else coeff, key[:u] + key[u + 1 :]))
    return out


def _left_derivative(poly: GradedPolynomial, j: int):
    """Terms of d/dz_j P acting from the left: the factor exits leftward."""
    parities = poly.model.parities
    out = []
    for key, coeff in poly.terms.items():
        for v, idx in enumerate(key):
            if idx != j:
                continue
            odd = parities[j] and sum(parities[a] for a in key[:v]) % 2
            out.append((-coeff if odd else coeff, key[:v] + key[v + 1 :]))
    return out


def graded_bracket(P: GradedPolynomial, Q: GradedPolynomial) -> GradedPolynomial:
    """Darboux-form bracket {P; Q} = sum_ij (P d_i) omega^{ij} (d_j Q)."""
    model = P.model
    if Q.model != model:
        raise ValueError("polynomials live on different models")
    raw = []
    for (i, j), w in model.omega.items():
        left = [(cP * w, kP) for cP, kP in _right_derivative(P, i)]
        if not left:
            continue
        for cQ, kQ in _left_derivative(Q, j):
            for cPw, kP in left:
                raw.append((cPw * cQ, kP + kQ))
    return GradedPolynomial(model, raw)


def delta_and_nilpotency(S: GradedPolynomial, P: GradedPolynomial):
    """Return ({S;P}, {S;{S;P}}) after checking the master equation {S;S}=0.

    The second entry vanishes identically only when {S; .} is an odd
    derivation, i.e. parity(S) + d is odd; callers assert nilpotency where
    that holds. For an even derivation {S;S} = 0 does not constrain it.
    """
    obstruction = graded_bracket(S, S)
    if not obstruction.is_zero:
        raise MasterEquationError(f"master equation violated: {{S;S}} = {obstruction}")
    dP = graded_bracket(S, P)
    return dP, graded_bracket(S, dP)
