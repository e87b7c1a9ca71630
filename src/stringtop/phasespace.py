"""Finite-dimensional graded Poisson / Gerstenhaber engine.

Polynomials in finitely many graded variables with exact scalar
coefficients, a constant-pairing bracket in Darboux form, and the
differential delta = {S; .} for a generator S solving the master
equation {S; S} = 0.

Coefficients are ``Fraction``s (ints are converted) or floats, and keep
their type through every operation. Koszul signs of +-1 negate a
coefficient rather than multiply it. A product merges two keys already in
normal form, so only ``GradedPhaseModel.monomial`` normalizes a word.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

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
        return GradedPolynomial(self, {})

    def monomial(self, coeff, *names: str) -> "GradedPolynomial":
        """coeff times the named variables in order: ``monomial(1, "q")`` is
        the variable q, and ``monomial(c)`` with no names the constant c."""
        factors = [self.index(n) for n in names]
        coeff = _coerce_scalar(coeff)
        sign, key = 1, ()
        for idx in factors:
            s, key = _merge(self.parities, key, (idx,))
            sign *= s
        return GradedPolynomial(self, {key: coeff if sign > 0 else -coeff} if sign and coeff else {})

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


def _merge(parities: Sequence[int], a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two normal keys into (sign, normal key of the product a b).

    Each odd factor of b that moves left past an odd factor of a greater
    than it costs a sign -1; the sign is 0 when an odd variable repeats.
    """
    out = []
    sign = 1
    i = 0
    odd_rest = sum(parities[x] for x in a)  # odd factors of a not yet placed
    for y in b:
        while i < len(a) and a[i] <= y:
            x = a[i]
            if x == y and parities[x]:
                return 0, ()
            out.append(x)
            odd_rest -= parities[x]
            i += 1
        if parities[y] and odd_rest % 2:
            sign = -sign
        out.append(y)
    out.extend(a[i:])
    return sign, tuple(out)


def _accumulate_product(acc: dict, parities, k1, k2, coeff) -> None:
    """Add coeff times the Koszul sign at the merged key of k1 k2."""
    sign, key = _merge(parities, k1, k2)
    if sign:
        _accumulate(acc, key, coeff if sign > 0 else -coeff)


class GradedPolynomial:
    """Polynomial in normal form: ascending variable indices per monomial.

    ``terms`` maps normal keys to nonzero coerced coefficients; build a
    polynomial from variable names with ``GradedPhaseModel.monomial``.
    """

    __slots__ = ("model", "terms")

    def __init__(self, model: GradedPhaseModel, terms: Mapping[tuple[int, ...], object]) -> None:
        self.model = model
        self.terms = {key: terms[key] for key in sorted(terms)}

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
        return GradedPolynomial(self.model, acc)

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
        return GradedPolynomial(self.model, acc)

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        self._check_model(other)
        acc: dict[tuple[int, ...], object] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _accumulate_product(acc, self.model.parities, k1, k2, c1 * c2)
        return GradedPolynomial(self.model, acc)

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


def _derivative(poly: GradedPolynomial, i: int, right: bool):
    """Terms of P d/dz_i (``right``: the factor exits rightward) or of
    d/dz_i P (the factor exits leftward)."""
    parities = poly.model.parities
    out = []
    for key, coeff in poly.terms.items():
        for u, idx in enumerate(key):
            if idx != i:
                continue
            passed = key[u + 1 :] if right else key[:u]
            odd = parities[i] and sum(parities[a] for a in passed) % 2
            out.append((-coeff if odd else coeff, key[:u] + key[u + 1 :]))
    return out


def graded_bracket(P: GradedPolynomial, Q: GradedPolynomial) -> GradedPolynomial:
    """Darboux-form bracket {P; Q} = sum_ij (P d_i) omega^{ij} (d_j Q)."""
    model = P.model
    if Q.model != model:
        raise ValueError("polynomials live on different models")
    acc: dict[tuple[int, ...], object] = {}
    for (i, j), w in model.omega.items():
        left = [(cP * w, kP) for cP, kP in _derivative(P, i, right=True)]
        if not left:
            continue
        for cQ, kQ in _derivative(Q, j, right=False):
            for cPw, kP in left:
                _accumulate_product(acc, model.parities, kP, kQ, cPw * cQ)
    return GradedPolynomial(model, acc)


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
