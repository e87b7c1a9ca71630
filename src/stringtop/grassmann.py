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

from typing import Iterable, Mapping

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


def _mask_to_indices(mask: int) -> tuple[int, ...]:
    out = []
    b = 0
    while mask:
        if mask & 1:
            out.append(b + 1)
        mask >>= 1
        b += 1
    return tuple(out)


def _indices_to_mask(indices: Iterable[int], n_gen: int) -> int:
    mask = 0
    for a in indices:
        if not 1 <= a <= n_gen:
            raise ValueError(f"generator index {a} outside 1..{n_gen}")
        bit = 1 << (a - 1)
        if mask & bit:
            raise ValueError(f"repeated generator index {a}")
        mask |= bit
    return mask


class GradedCoefficient:
    """Element of the Grassmann algebra on ``n_gen`` generators.

    Construct from a mapping of index tuples to scalars, or of bitmasks to
    scalars (bit a-1 for generator a), which is how production builds it::

        GradedCoefficient({(): 2, (1, 2): 1})          # 2 + theta1 theta2
        GradedCoefficient.from_masks({0b11: 1, 0: 2})  # the same element
        GradedCoefficient.from_masks({0: 3.5})         # the scalar 3.5
        GradedCoefficient.from_masks({1 << 3: 1})      # theta4
        GradedCoefficient.from_masks({})               # zero

    Arithmetic (+, -, *, scalar *) keeps scalars duck-typed, so exact
    ``Fraction`` coefficients survive every operation.
    """

    __slots__ = ("n_gen", "_terms")

    def __init__(
        self,
        terms: Mapping[tuple[int, ...], object] | None = None,
        n_gen: int = DEFAULT_GENERATORS,
    ) -> None:
        if n_gen < 0:
            raise ValueError("number of generators must be nonnegative")
        self.n_gen = n_gen
        data: dict[int, object] = {}
        if terms:
            for indices, value in terms.items():
                mask = _indices_to_mask(indices, n_gen)
                if tuple(sorted(indices)) != tuple(indices):
                    raise ValueError(f"indices must be strictly increasing: {indices}")
                if not value == 0:
                    data[mask] = data.get(mask, 0) + value
        self._terms = {m: v for m, v in data.items() if not v == 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_masks(
        cls, masks: Mapping[int, object], n_gen: int = DEFAULT_GENERATORS
    ) -> "GradedCoefficient":
        out = cls(n_gen=n_gen)
        out._terms = {m: v for m, v in masks.items() if not v == 0}
        if out._terms and max(out._terms) >> n_gen:
            raise ValueError("mask exceeds generator count")
        return out

    # -- views -------------------------------------------------------------

    @property
    def masks(self) -> dict[int, object]:
        return dict(self._terms)

    def terms(self) -> dict[tuple[int, ...], object]:
        return {_mask_to_indices(m): v for m, v in self._terms.items()}

    def coeff(self, indices: tuple[int, ...]) -> object:
        return self._terms.get(_indices_to_mask(indices, self.n_gen), 0)

    def body(self) -> object:
        return self._terms.get(0, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def parity(self) -> int | None:
        """0 for even, 1 for odd, None for mixed or zero-without-grade."""
        parities = {m.bit_count() & 1 for m in self._terms}
        if len(parities) == 1:
            return parities.pop()
        return None

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
        return GradedCoefficient.from_masks(out, self.n_gen)

    def __neg__(self) -> "GradedCoefficient":
        return GradedCoefficient.from_masks(
            {m: -v for m, v in self._terms.items()}, self.n_gen
        )

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
            return GradedCoefficient.from_masks({}, self.n_gen)
        return GradedCoefficient.from_masks(
            {m: scalar * v for m, v in self._terms.items()}, self.n_gen
        )

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
            mono = "".join(f"t{a}" for a in _mask_to_indices(m)) or "1"
            bits.append(f"{self._terms[m]!r}*{mono}")
        return f"GradedCoefficient({' + '.join(bits)}, n_gen={self.n_gen})"


def gc_mul(a: GradedCoefficient, b: GradedCoefficient) -> GradedCoefficient:
    """Graded product in the Grassmann algebra.

    Term-by-term: theta_I theta_J = 0 if I and J share a generator, else
    merge_sign(I, J) * theta_{I union J}.

    No check multiplies coefficients symbolically; only tests do. It stays
    here, and not with the test oracles, because the benchmark tracer
    (``perfbench/tracing.py``) names it as a layer.
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
    return GradedCoefficient.from_masks(out, a.n_gen)
