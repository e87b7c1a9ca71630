"""Finite Grassmann coefficient algebra.

Elements live in the exterior algebra over C (or any commutative ring of
scalars, e.g. ``fractions.Fraction``) on ``N`` anticommuting generators
theta_1, ..., theta_N:

    theta_a theta_b = -theta_b theta_a,   theta_a^2 = 0.

An element is a finite sum  sum_S  c_S theta_S  over strictly increasing
index subsets S of {1..N}, with theta_S = theta_{s1} ... theta_{sk} in
ascending order. Internally a subset is a bitmask (bit a-1 set  <=>
generator a present), and an element is a dict {mask: scalar}.

The body of an element is its scalar part c_{}. An element with zero body
is nilpotent; the body of a product is the product of bodies.
"""

from __future__ import annotations

from typing import Mapping

DEFAULT_GENERATORS = 6


def merge_sign(i: int, j: int) -> int:
    """Koszul sign for merging two disjoint ascending monomials.

    Multiplying theta_I theta_J requires moving each generator b of J past
    the generators of I that exceed b; each move is one transposition. The
    count of those is popcount(I >> (b+1)) summed over b in J.
    """
    total = 0
    jj = j
    while jj:
        b = (jj & -jj).bit_length() - 1
        total += (i >> (b + 1)).bit_count()
        jj &= jj - 1
    return -1 if total & 1 else 1


class GradedCoefficient:
    """Element of the Grassmann algebra on ``n_gen`` generators.

    Construct from a mapping of bitmasks to scalars, bit a-1 set for
    generator a; zero scalars are dropped::

        GradedCoefficient({0: 2, 0b11: 1})   # 2 + theta1 theta2
        GradedCoefficient({1 << 3: 1})       # theta4
        GradedCoefficient({})                # zero

    Arithmetic (+, -, *, scalar *) keeps scalars duck-typed, so exact
    ``Fraction`` coefficients survive every operation.
    """

    __slots__ = ("n_gen", "_terms")

    def __init__(self, masks: Mapping[int, object], n_gen: int = DEFAULT_GENERATORS) -> None:
        if n_gen < 0:
            raise ValueError("number of generators must be nonnegative")
        self.n_gen = n_gen
        self._terms = {m: v for m, v in masks.items() if not v == 0}
        if self._terms and max(self._terms) >> n_gen:
            raise ValueError("mask exceeds generator count")

    @property
    def masks(self) -> dict[int, object]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "GradedCoefficient") -> None:
        if self.n_gen != other.n_gen:
            raise ValueError(
                f"mismatched generator counts: {self.n_gen} vs {other.n_gen}"
            )

    def __add__(self, other: "GradedCoefficient") -> "GradedCoefficient":
        if not isinstance(other, GradedCoefficient):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._terms)
        for m, v in other._terms.items():
            s = out.get(m, 0) + v
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return GradedCoefficient(out, self.n_gen)

    def __neg__(self) -> "GradedCoefficient":
        return GradedCoefficient({m: -v for m, v in self._terms.items()}, self.n_gen)

    def __sub__(self, other: "GradedCoefficient") -> "GradedCoefficient":
        if not isinstance(other, GradedCoefficient):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GradedCoefficient):
            return gc_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything here; Grassmann-Grassmann products
        # always dispatch through __mul__
        return self.scale(other)

    def scale(self, scalar: object) -> "GradedCoefficient":
        if scalar == 0:
            return GradedCoefficient({}, self.n_gen)
        return GradedCoefficient({m: scalar * v for m, v in self._terms.items()}, self.n_gen)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedCoefficient):
            return NotImplemented
        return self.n_gen == other.n_gen and self._terms == other._terms

    def __hash__(self):
        return hash((self.n_gen, frozenset(self._terms.items())))

    def distance(self, other: "GradedCoefficient") -> float:
        """Max absolute difference over all coefficients."""
        self._check_compatible(other)
        keys = set(self._terms) | set(other._terms)
        if not keys:
            return 0.0
        return max(
            abs(complex(self._terms.get(m, 0)) - complex(other._terms.get(m, 0)))
            for m in keys
        )

    def norm(self) -> float:
        return max((abs(complex(v)) for v in self._terms.values()), default=0.0)

    def __repr__(self) -> str:
        if not self._terms:
            return "GradedCoefficient(0)"
        bits = []
        for m in sorted(self._terms, key=lambda m: (m.bit_count(), m)):
            mono = "".join(f"t{b + 1}" for b in range(m.bit_length()) if m >> b & 1) or "1"
            bits.append(f"{self._terms[m]!r}*{mono}")
        return f"GradedCoefficient({' + '.join(bits)}, n_gen={self.n_gen})"


def gc_mul(a: GradedCoefficient, b: GradedCoefficient) -> GradedCoefficient:
    """Graded product in the Grassmann algebra.

    Term-by-term: theta_I theta_J = 0 if I and J share a generator, else
    merge_sign(I, J) * theta_{I union J}.

    Oracle route: transports multiply whole component stacks in
    ``lierep``, and ``harness.insertion_matrix_at``, the M(t) of the
    ``transport-accuracy`` oracle, multiplies symbolically through this.
    """
    a._check_compatible(b)
    out: dict[int, object] = {}
    for i, u in a._terms.items():
        for j, v in b._terms.items():
            if i & j:
                continue
            k = i | j
            w = merge_sign(i, j) * u * v
            s = out.get(k, 0) + w
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    return GradedCoefficient(out, a.n_gen)
