"""gl(n, C) in its standard representation, with Grassmann-valued matrices.

The basis used everywhere is the matrix-unit basis T_(i,j) = E_ij (entry 1
at row i, column j, zero elsewhere). The invariant pairing is

    kappa((i,j), (k,l)) = tr(E_ij E_kl) = delta_jk delta_il,

whose matrix is the involutive permutation (i,j) <-> (j,i); it is therefore
its own inverse, so ``kappa`` also serves as kappa^{ab} and ``dual`` names
the one nonzero partner of each index (no numerical inversion anywhere).

The identity carried by this pairing that the package uses is trace
fusion: for matrices A1, A2, B1, B2 with entries in a Grassmann algebra
(entry order preserved),

    sum_ab tr[A1 E_a A2] kappa^{ab} tr[B1 E_b B2] = tr[A1 B2 B1 A2].

It holds because the quadratic element sum_ab kappa^{ab} E_a (x) E_b acts
on C^n (x) C^n as the swap v (x) w -> w (x) v, so it is specific to the
standard representation; it is what lets a double-trace contraction
collapse to a single trace of the reordered product.

``SuperMatrix`` stores an n x n matrix over the Grassmann algebra
Lambda(N) as {monomial mask: complex ndarray}, so products are a handful of
dense matmuls instead of n^2 symbolic entry products. It is the one public
Grassmann-matrix type.

Long chains of products (the generalized transports) run instead in the
left-regular representation of Lambda(N): theta_S acts on the 2^N basis
monomials by left multiplication L_S, and M = sum_S theta_S M_S becomes the
complex (2^N n)-square matrix

    regular(M) = sum_S L_S (x) M_S,

rows and columns indexed (monomial T, matrix index i) as T * n + i. This is
an algebra homomorphism, so a Grassmann matrix product is one complex
matmul. The column block of the unit monomial (T = 0) holds M itself: the
rows of block S are M_S, which ``SuperMatrix.from_regular`` reads back; the
Grassmann trace is the trace of those blocks.
"""

from __future__ import annotations

import functools

import numpy as np

from stringtop.grassmann import DEFAULT_GENERATORS, GradedCoefficient, merge_sign


class LieBasis:
    """Matrix-unit basis of gl(n, C) with the trace-form pairing."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.dim = n * n

    def index(self, i: int, j: int) -> int:
        return i * self.n + j

    def unit(self, a: int) -> tuple[int, int]:
        return divmod(a, self.n)

    def matrix(self, a: int) -> np.ndarray:
        i, j = self.unit(a)
        out = np.zeros((self.n, self.n), dtype=complex)
        out[i, j] = 1.0
        return out

    def kappa(self, a: int, b: int) -> int:
        """tr(E_a E_b): 1 when b is a's transposed unit, else 0."""
        i, j = self.unit(a)
        k, l = self.unit(b)
        return 1 if (j == k and i == l) else 0

    def dual(self, a: int) -> int:
        """Index b with kappa(a, b) = 1 (transpose the matrix unit)."""
        i, j = self.unit(a)
        return self.index(j, i)


class SuperMatrix:
    """n x n matrix with entries in the Grassmann algebra.

    Stored by monomial: ``components[mask]`` is the complex n x n matrix of
    coefficients of theta_mask across all entries. The product is

        (AB)[i|j] += merge_sign(i, j) * A[i] @ B[j]      (i & j == 0),

    which multiplies entry coefficients in left-to-right order, so Grassmann
    signs come out the same as for scalar products.
    """

    __slots__ = ("n", "n_gen", "components")

    def __init__(
        self,
        n: int,
        n_gen: int = DEFAULT_GENERATORS,
        components: dict[int, np.ndarray] | None = None,
    ) -> None:
        self.n = n
        self.n_gen = n_gen
        self.components: dict[int, np.ndarray] = {}
        if components:
            for mask, arr in components.items():
                arr = np.asarray(arr, dtype=complex)
                if arr.shape != (n, n):
                    raise ValueError(f"component shape {arr.shape} != ({n}, {n})")
                if mask >> n_gen:
                    raise ValueError("mask exceeds generator count")
                if arr.any():
                    self.components[mask] = arr

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_body(
        cls, arr: np.ndarray, n_gen: int = DEFAULT_GENERATORS
    ) -> "SuperMatrix":
        arr = np.asarray(arr, dtype=complex)
        return cls(arr.shape[0], n_gen, {0: arr})

    @classmethod
    def identity(cls, n: int, n_gen: int = DEFAULT_GENERATORS) -> "SuperMatrix":
        return cls.from_body(np.eye(n), n_gen)

    @classmethod
    def zero(cls, n: int, n_gen: int = DEFAULT_GENERATORS) -> "SuperMatrix":
        return cls(n, n_gen, {})

    @classmethod
    def from_regular(cls, mat: np.ndarray, n: int, n_gen: int) -> "SuperMatrix":
        """The matrix whose regular representation is ``mat``, read from its
        unit column block: rows S * n .. S * n + n - 1 are the component M_S."""
        column = mat[:, :n].reshape(1 << n_gen, n, n)
        return cls(n, n_gen, dict(enumerate(column)))

    # -- views -------------------------------------------------------------

    def entry(self, i: int, j: int) -> GradedCoefficient:
        return GradedCoefficient.from_masks(
            {m: arr[i, j] for m, arr in self.components.items() if arr[i, j] != 0},
            self.n_gen,
        )

    def to_entries(self) -> list[list[GradedCoefficient]]:
        return [[self.entry(i, j) for j in range(self.n)] for i in range(self.n)]

    def body(self) -> np.ndarray:
        return self.components.get(0, np.zeros((self.n, self.n), dtype=complex))

    def trace(self) -> GradedCoefficient:
        return GradedCoefficient.from_masks(
            {m: complex(np.trace(arr)) for m, arr in self.components.items()},
            self.n_gen,
        )

    def transpose(self) -> "SuperMatrix":
        return SuperMatrix(
            self.n, self.n_gen, {m: arr.T.copy() for m, arr in self.components.items()}
        )

    def with_generators(self, n_gen: int) -> "SuperMatrix":
        used = 0
        for m in self.components:
            used |= m
        if used >> n_gen:
            raise ValueError("matrix uses generators beyond requested count")
        return SuperMatrix(self.n, n_gen, dict(self.components))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "SuperMatrix") -> None:
        if self.n != other.n or self.n_gen != other.n_gen:
            raise ValueError("mismatched matrix sizes or generator counts")

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check(other)
        out = {m: arr.copy() for m, arr in self.components.items()}
        for m, arr in other.components.items():
            if m in out:
                out[m] = out[m] + arr
            else:
                out[m] = arr.copy()
        return SuperMatrix(self.n, self.n_gen, out)

    def __neg__(self) -> "SuperMatrix":
        return SuperMatrix(
            self.n, self.n_gen, {m: -arr for m, arr in self.components.items()}
        )

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self + (-other)

    def __mul__(self, scalar: object) -> "SuperMatrix":
        return SuperMatrix(
            self.n,
            self.n_gen,
            {m: complex(scalar) * arr for m, arr in self.components.items()},
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check(other)
        out: dict[int, np.ndarray] = {}
        for i, a in self.components.items():
            for j, b in other.components.items():
                if i & j:
                    continue
                k = i | j
                term = merge_sign(i, j) * (a @ b)
                if k in out:
                    out[k] = out[k] + term
                else:
                    out[k] = term
        return SuperMatrix(self.n, self.n_gen, out)

    def distance(self, other: "SuperMatrix") -> float:
        self._check(other)
        keys = set(self.components) | set(other.components)
        zero = np.zeros((self.n, self.n))
        return max(
            (
                float(
                    np.max(
                        np.abs(
                            self.components.get(m, zero) - other.components.get(m, zero)
                        )
                    )
                )
                for m in keys
            ),
            default=0.0,
        )

    def norm(self) -> float:
        return max(
            (float(np.max(np.abs(arr))) for arr in self.components.values()),
            default=0.0,
        )

    def __repr__(self) -> str:
        return f"SuperMatrix(n={self.n}, n_gen={self.n_gen}, monomials={len(self.components)})"


@functools.lru_cache(maxsize=None)
def left_regular(n_gen: int) -> np.ndarray:
    """Stack L[S] of the left multiplications by theta_S on Lambda(n_gen).

    L[S][T | S, T] is the sign of theta_S theta_T = +-theta_{S | T} for
    disjoint S and T; every other entry is zero. L[S] is built as the product
    L[a_1] ... L[a_k] over the generators a_1 < ... < a_k of S, where the
    generator a passes the generators of T below it. The array is shared,
    so it is read-only.
    """
    size = 1 << n_gen
    monomials = np.arange(size)
    out = np.zeros((size, size, size))
    out[0] = np.eye(size)
    for s in range(1, size):
        low = s & -s
        free = monomials[(monomials & low) == 0]
        below = [int(t & (low - 1)).bit_count() for t in free]
        gen = np.zeros((size, size))
        gen[free | low, free] = np.where(np.array(below) % 2, -1.0, 1.0)
        out[s] = gen @ out[s ^ low]
    out.flags.writeable = False
    return out


def regular(components: np.ndarray) -> np.ndarray:
    """sum_S L_S (x) M_S for a stack components[..., S, i, j] of all 2^N
    components; returns the (..., 2^N n, 2^N n) regular matrices."""
    *lead, size, n, _ = components.shape
    stack = left_regular(size.bit_length() - 1)
    monomials = np.arange(size)
    # entry (T, U) of L_S is nonzero only for S = T ^ U (U inside T), so
    # each block is one signed component
    blocks = components[..., monomials[:, None] ^ monomials, :, :] * stack.sum(axis=0)[:, :, None, None]
    return np.swapaxes(blocks, -3, -2).reshape(*lead, size * n, size * n)


def fuse_traces(
    a1: SuperMatrix,
    a2: SuperMatrix,
    b1: SuperMatrix,
    b2: SuperMatrix,
    basis: LieBasis | None = None,
) -> GradedCoefficient:
    """sum_ab tr[a1 E_a a2] kappa^{ab} tr[b1 E_b b2].

    Computed without enumerating basis pairs: M1 = a1^T a2^T has entries
    M1[i, j] = sum_r a1[r, i] a2[j, r] = tr[a1 E_ij a2], likewise M2 for
    (b1, b2), and the kappa pairing (i,j) <-> (j,i) turns the double sum
    into tr(M1 M2). The product multiplies entry coefficients left factor
    first, so this is valid for Grassmann-valued matrices.
    """
    if basis is not None and basis.n != a1.n:
        raise ValueError("basis size does not match matrices")
    m1 = a1.transpose() @ a2.transpose()
    m2 = b1.transpose() @ b2.transpose()
    return (m1 @ m2).trace()
