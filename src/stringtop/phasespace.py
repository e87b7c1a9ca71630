"""Finite-dimensional graded Poisson / Gerstenhaber engine.

Polynomials in finitely many graded variables with exact scalar
coefficients, a constant-pairing bracket in Darboux form, and the
differential delta = {S; .} for a generator S solving the master
equation {S; S} = 0.

A coefficient is an int or a ``Fraction``; any other type raises
``TypeError``. A polynomial stores one positive integer denominator
``den`` and an integer numerator per normal key. Sums, products and
brackets accumulate integers, and one normalization step (the
constructor) drops zeros, sorts the keys and divides out
gcd(den, numerators). The ``terms`` view gives each coefficient as a
``Fraction``. The model's pairing is converted once to numerators over
one common denominator.

A product merges two keys already in normal form, so only
``GradedPhaseModel.monomial`` normalizes a word. The merge of two keys is
a pure function of the model's parities and the keys, and it is memoized
in a bounded table shared by all models.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
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


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an int or ``Fraction`` coefficient."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"unsupported coefficient type {type(value).__name__}")


def _swap_sign(p: int, q: int) -> int:
    return -1 if (p * q) % 2 else 1


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

        omega: dict[tuple[int, int], Fraction] = {}
        for (na, nb), value in table.items():
            i, j = self.index(na), self.index(nb)
            value = Fraction(*_ratio(value))
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
        # the pairing as numerators over one denominator, for the bracket
        ratios = {key: _ratio(val) for key, val in omega.items()}
        self.omega_den = lcm(*(den for _, den in ratios.values()))
        self.omega_nums = {key: num * (self.omega_den // den) for key, (num, den) in ratios.items()}

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    # -- polynomial factories ------------------------------------------------

    def zero(self) -> "GradedPolynomial":
        return GradedPolynomial(self, 1, {})

    def monomial(self, coeff, *names: str) -> "GradedPolynomial":
        """coeff times the named variables in order: ``monomial(1, "q")`` is
        the variable q, and ``monomial(c)`` with no names the constant c."""
        factors = [self.index(n) for n in names]
        num, den = _ratio(coeff)
        sign, key = 1, ()
        for idx in factors:
            s, key = _merge(self.parities, key, (idx,))
            sign *= s
        return GradedPolynomial(self, den, {key: sign * num})

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


@functools.lru_cache(maxsize=4096)
def _merge(parities: tuple[int, ...], a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two normal keys into (sign, normal key of the product a b).

    Each odd factor of b that moves left past an odd factor of a greater
    than it costs a sign -1; the sign is 0 when an odd variable repeats.
    The table is keyed by the parities too, so models never share a sign.
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


class GradedPolynomial:
    """Polynomial in normal form: ascending variable indices per monomial.

    The coefficient at a normal key is ``nums[key] / den``; build a
    polynomial from variable names with ``GradedPhaseModel.monomial``.
    The constructor takes any positive integer ``den`` and a dict of
    numerators, and brings them to lowest terms.
    """

    __slots__ = ("model", "den", "nums")

    def __init__(self, model: GradedPhaseModel, den: int, nums: Mapping[tuple[int, ...], int]) -> None:
        self.model = model
        nums = {key: nums[key] for key in sorted(nums) if nums[key]}
        g = gcd(den, *nums.values())
        self.den = den // g
        self.nums = {key: value // g for key, value in nums.items()} if g > 1 else nums

    # -- structure -----------------------------------------------------------

    @property
    def terms(self) -> dict:
        """{normal key: ``Fraction`` coefficient}."""
        den = self.den
        return {key: Fraction(v, den) for key, v in self.nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def parity(self) -> int:
        """Parity of a homogeneous polynomial (zero counts as even)."""
        seen = {
            sum(self.model.parities[i] for i in key) % 2 for key in self.nums
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
        return self._combined(other, 1)

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self._combined(other, -1)

    def __neg__(self) -> "GradedPolynomial":
        return self.scale(-1)

    def _combined(self, other: "GradedPolynomial", sign: int) -> "GradedPolynomial":
        """self + sign * other over the least common denominator."""
        self._check_model(other)
        g = gcd(self.den, other.den)
        up, up_other = other.den // g, sign * (self.den // g)
        acc = {key: v * up for key, v in self.nums.items()}
        for key, v in other.nums.items():
            acc[key] = acc.get(key, 0) + v * up_other
        return GradedPolynomial(self.model, self.den * up, acc)

    def scale(self, scalar) -> "GradedPolynomial":
        num, den = _ratio(scalar)
        return GradedPolynomial(self.model, self.den * den, {key: v * num for key, v in self.nums.items()})

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        self._check_model(other)
        parities = self.model.parities
        acc: dict[tuple[int, ...], int] = {}
        for k1, c1 in self.nums.items():
            for k2, c2 in other.nums.items():
                sign, key = _merge(parities, k1, k2)
                if sign:
                    acc[key] = acc.get(key, 0) + sign * c1 * c2
        return GradedPolynomial(self.model, self.den * other.den, acc)

    def _check_model(self, other: "GradedPolynomial") -> None:
        if self.model != other.model:
            raise ValueError("polynomials live on different models")

    def __repr__(self) -> str:
        if not self.nums:
            return "0"
        bits = []
        for key, coeff in self.terms.items():
            mono = "*".join(self.model.names[i] for i in key)
            bits.append(f"{coeff}*{mono}" if mono else str(coeff))
        return " + ".join(bits)


def _derivative(poly: GradedPolynomial, i: int, right: bool):
    """Numerators (over ``poly.den``) of P d/dz_i (``right``: the factor
    exits rightward) or of d/dz_i P (the factor exits leftward)."""
    parities = poly.model.parities
    out = []
    for key, coeff in poly.nums.items():
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
    parities = model.parities
    acc: dict[tuple[int, ...], int] = {}
    for (i, j), w in model.omega_nums.items():
        left = [(cP * w, kP) for cP, kP in _derivative(P, i, right=True)]
        if not left:
            continue
        for cQ, kQ in _derivative(Q, j, right=False):
            for cPw, kP in left:
                sign, key = _merge(parities, kP, kQ)
                if sign:
                    acc[key] = acc.get(key, 0) + sign * cPw * cQ
    return GradedPolynomial(model, P.den * model.omega_den * Q.den, acc)


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
