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

``SuperMatrix`` is the one Grassmann-matrix type. It stores an n x n
matrix over the Grassmann algebra Lambda(N) as the dense complex stack of
its 2^N components, M = sum_S theta_S M_S with ``components[S] = M_S``.

Products run in the left-regular representation of Lambda(N): theta_S acts
on the 2^N basis monomials by left multiplication L_S, and M becomes the
complex (2^N n)-square matrix

    regular(M) = sum_S L_S (x) M_S,

rows and columns indexed (monomial T, matrix index i) as T * n + i. Block
(T, U) is nonzero only for U inside T, where it is signs[T, U] M_{T ^ U}
with the sign of theta_{T ^ U} theta_U = +-theta_T. This is an algebra
homomorphism whose unit column block (U = 0) is the component stack
itself, so a product A B is the one matmul regular(A) times the stacked
components of B (``product``), and the result is again a component stack.
``product`` multiplies whole stacks of matrices at once, which is how the
generalized transports multiply their step factors. The Grassmann trace is
the trace of each component.

``regular`` and ``product`` work on a support: a sorted tuple S of masks
that contains 0 and is closed under disjoint union. Matrices whose
components vanish off S form a subalgebra, so they are stored as the
|S| components on S, and regular(M) restricted to S is the
(|S| n)-square matrix of blocks (T, U) in S x S, with block (T, U) zero
when T ^ U is not in S. The generalized transports step on the support
their fields reach, often half the algebra; ``SuperMatrix`` products pass
the full algebra, S = range(2^N).
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

    ``components`` is the complex (2^n_gen, n, n) stack whose slice S is the
    matrix of coefficients of theta_S across all entries; the constructor
    takes those slices as a {mask: n x n array} dict, missing masks zero.
    The product multiplies entry coefficients in left-to-right order, so
    Grassmann signs come out the same as for scalar products.
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
        self.components = np.zeros((1 << n_gen, n, n), dtype=complex)
        for mask, arr in (components or {}).items():
            arr = np.asarray(arr, dtype=complex)
            if arr.shape != (n, n):
                raise ValueError(f"component shape {arr.shape} != ({n}, {n})")
            if mask >> n_gen:
                raise ValueError("mask exceeds generator count")
            self.components[mask] = arr

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, stack: np.ndarray) -> "SuperMatrix":
        """Wrap a complex (2^n_gen, n, n) component stack without copying."""
        out = cls.__new__(cls)
        out.n = stack.shape[-1]
        out.n_gen = len(stack).bit_length() - 1
        out.components = stack
        return out

    @classmethod
    def from_body(
        cls, arr: np.ndarray, n_gen: int = DEFAULT_GENERATORS
    ) -> "SuperMatrix":
        arr = np.asarray(arr, dtype=complex)
        return cls(arr.shape[0], n_gen, {0: arr})

    # -- views -------------------------------------------------------------

    def body(self) -> np.ndarray:
        return self.components[0]

    def trace(self) -> GradedCoefficient:
        traces = np.trace(self.components, axis1=1, axis2=2)
        return GradedCoefficient.from_masks(dict(enumerate(traces.tolist())), self.n_gen)

    def transpose(self) -> "SuperMatrix":
        return SuperMatrix._of(self.components.transpose(0, 2, 1).copy())

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "SuperMatrix") -> None:
        if self.n != other.n or self.n_gen != other.n_gen:
            raise ValueError("mismatched matrix sizes or generator counts")

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check(other)
        return SuperMatrix._of(self.components + other.components)

    def __neg__(self) -> "SuperMatrix":
        return SuperMatrix._of(-self.components)

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check(other)
        return SuperMatrix._of(self.components - other.components)

    def __mul__(self, scalar: object) -> "SuperMatrix":
        return SuperMatrix._of(complex(scalar) * self.components)

    __rmul__ = __mul__

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check(other)
        support = tuple(range(1 << self.n_gen))  # the full algebra
        return SuperMatrix._of(product(self.components, other.components, support))

    def distance(self, other: "SuperMatrix") -> float:
        self._check(other)
        return float(np.max(np.abs(self.components - other.components)))

    def norm(self) -> float:
        return float(np.max(np.abs(self.components)))

    def __repr__(self) -> str:
        return f"SuperMatrix(n={self.n}, n_gen={self.n_gen})"


@functools.lru_cache(maxsize=None)
def signs(n_gen: int) -> np.ndarray:
    """signs[T, U] = merge_sign(T ^ U, U) for U inside T, else 0.

    It is the sign of theta_{T ^ U} theta_U = +-theta_T, so row T, column U
    is the one nonzero entry of the left multiplication L_{T ^ U} there.
    The array is shared, so it is read-only.
    """
    size = 1 << n_gen
    out = np.zeros((size, size))
    for t in range(size):
        for u in range(size):
            if u & t == u:
                out[t, u] = merge_sign(t ^ u, u)
    out.flags.writeable = False
    return out


# build the tables up to the default generator count once, at import, so no
# later call (timed or traced) pays the merge_sign calls that fill them
for _n_gen in range(DEFAULT_GENERATORS + 1):
    signs(_n_gen)


@functools.lru_cache(maxsize=None)
def _regular_index(support: tuple[int, ...], n: int) -> np.ndarray:
    """Where ``regular`` reads each entry of the (|S| n)-square matrix on the
    sorted support S.

    With T = S[p] and U = S[q], entry (p * n + i, q * n + j) is
    signs[T, U] times entry (i, j) of component T ^ U, and zero when T ^ U
    is not in S. With the components flattened to c and padded as
    [0, c, -c], it is the padded entry at 1 + k for sign +1, at
    1 + |S| n^2 + k for sign -1 and at 0 otherwise, k the flat position of
    that component entry. Shared, so read-only.
    """
    size, n_gen = len(support), max(support).bit_length()
    masks = np.array(support)
    at = np.full(1 << n_gen, -1)
    at[masks] = np.arange(size)
    where = at[masks[:, None] ^ masks[None, :]]
    sign = np.where(where >= 0, signs(n_gen)[np.ix_(masks, masks)], 0)
    i, j = np.arange(n)[None, :, None, None], np.arange(n)[None, None, None, :]
    flat = 1 + (where[:, None, :, None] * n + i) * n + j
    sign = sign[:, None, :, None]
    out = np.where(sign > 0, flat, np.where(sign < 0, flat + size * n * n, 0))
    out = out.reshape(size * n, size * n)
    out.flags.writeable = False
    return out


def regular(components: np.ndarray, support: tuple[int, ...]) -> np.ndarray:
    """sum_S L_S (x) M_S restricted to the sorted support, for a stack
    components[..., p, i, j] holding M_{support[p]}; returns the
    (..., |S| n, |S| n) regular matrices, gathered in one indexing step
    (``_regular_index``). The support must contain 0 and be closed under
    disjoint union, so the stacks on it are a subalgebra; the full algebra
    is support = range(2^N)."""
    *lead, size, n, _ = components.shape
    flat = components.reshape(*lead, size * n * n)
    padded = np.concatenate([np.zeros((*lead, 1), flat.dtype), flat, -flat], axis=-1)
    return padded[..., _regular_index(support, n)]


def product(a: np.ndarray, b: np.ndarray, support: tuple[int, ...]) -> np.ndarray:
    """Grassmann matrix products of component stacks a[..., p, i, j] and
    b[..., p, j, k] on one support, leading axes broadcast: regular(a)
    times the unit column of b, reshaped back into a component stack. b may
    have any number of columns, so one gather of a serves several right
    factors placed side by side."""
    size, rows, cols = b.shape[-3:]
    column = regular(a, support) @ b.reshape(*b.shape[:-3], size * rows, cols)
    return column.reshape(*column.shape[:-2], size, rows, cols)


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
