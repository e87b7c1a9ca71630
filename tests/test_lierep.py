"""Tests for gl(n) pairing identities and Grassmann-valued matrices."""

from __future__ import annotations

import numpy as np
import pytest

from stringtop.grassmann import GradedCoefficient
from stringtop.lierep import LieBasis, SuperMatrix, fuse_traces, product, regular, signs

from oracles import casimir_tensor, kappa_form, supermatrix_entries, swap_tensor, swap_via_casimir


def random_supermatrix(rng, n, n_gen=6, masks=None, parity=None):
    """Random matrix with complex coefficients on the given monomial masks."""
    if masks is None:
        masks = range(1 << n_gen)
        masks = rng.choice(list(masks), size=4, replace=False)
    comps = {}
    for m in masks:
        m = int(m)
        if parity is not None and m.bit_count() & 1 != parity:
            continue
        comps[m] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return SuperMatrix(n, n_gen, comps)


def random_even_supermatrix(rng, n, n_gen=6):
    even_masks = [m for m in range(1 << n_gen) if m.bit_count() % 2 == 0]
    picked = rng.choice(even_masks, size=min(5, len(even_masks)), replace=False)
    return random_supermatrix(rng, n, n_gen, masks=[int(m) for m in picked])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kappa_matches_numeric_trace_form(n):
    basis = LieBasis(n)
    for a in range(basis.dim):
        for b in range(basis.dim):
            numeric = np.trace(basis.matrix(a) @ basis.matrix(b))
            assert basis.kappa(a, b) == numeric


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kappa_inverse_is_exact(n):
    """The pairing matrix is an involution, so kappa is its own inverse."""
    basis = LieBasis(n)
    for a in range(basis.dim):
        for c in range(basis.dim):
            s = sum(basis.kappa(a, b) * basis.kappa(b, c) for b in range(basis.dim))
            assert s == (1 if a == c else 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_casimir_tensor_is_the_swap_operator(n):
    basis = LieBasis(n)
    casimir = casimir_tensor(basis)
    # independent assembly through explicit Kronecker products
    by_kron = sum(
        np.kron(basis.matrix(a), basis.matrix(basis.dual(a)))
        for a in range(basis.dim)
    )
    assert np.array_equal(casimir, by_kron.real.astype(np.int64))
    assert np.array_equal(casimir, swap_tensor(basis))


def test_swap_on_basis_vectors():
    basis = LieBasis(3)
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    first, second = swap_via_casimir(e1, e2, basis)
    assert np.allclose(first, e2)
    assert np.allclose(second, e1)


def test_swap_on_random_vectors_componentwise():
    """Output tensor components are exactly w_r v_s."""
    rng = np.random.default_rng(7)
    basis = LieBasis(3)
    for _ in range(20):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        first, second = swap_via_casimir(v, w, basis)
        assert np.allclose(np.outer(first, second), np.outer(w, v), atol=1e-12)


def test_fuse_traces_identity_matrices():
    basis = LieBasis(2)
    eye = SuperMatrix.from_body(np.eye(2))
    out = fuse_traces(eye, eye, eye, eye, basis)
    assert out.body() == pytest.approx(2.0)
    assert out.terms() == {(): out.body()}


def naive_fusion(a1, a2, b1, b2, basis):
    """Brute-force double sum over basis pairs, symbolic entry products."""
    total = GradedCoefficient.from_masks({}, a1.n_gen)
    n = basis.n
    e1, e2, f1, f2 = map(supermatrix_entries, (a1, a2, b1, b2))
    for i in range(n):
        for j in range(n):
            tr_a = GradedCoefficient.from_masks({}, a1.n_gen)
            for r in range(n):
                tr_a = tr_a + e1[r][i] * e2[j][r]
            tr_b = GradedCoefficient.from_masks({}, a1.n_gen)
            for s in range(n):
                tr_b = tr_b + f1[s][j] * f2[i][s]
            total = total + tr_a * tr_b
    return total


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fusion_equals_brute_force_enumeration(n):
    """The fast contraction agrees with the basis-pair double sum, odd entries included."""
    rng = np.random.default_rng(11 + n)
    basis = LieBasis(n)
    for _ in range(5):
        mats = [random_supermatrix(rng, n) for _ in range(4)]
        fast = fuse_traces(*mats, basis)
        slow = naive_fusion(*mats, basis)
        assert fast.distance(slow) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fusion_collapses_to_single_trace(n):
    """sum_ab tr[A1 E_a A2] kappa tr[B1 E_b B2] = tr[A1 B2 B1 A2] for even entries."""
    rng = np.random.default_rng(23 + n)
    basis = LieBasis(n)
    for _ in range(10):
        a1 = random_even_supermatrix(rng, n)
        a2 = random_even_supermatrix(rng, n)
        b1 = random_even_supermatrix(rng, n)
        b2 = random_even_supermatrix(rng, n)
        fused = fuse_traces(a1, a2, b1, b2, basis)
        single = (a1 @ b2 @ b1 @ a2).trace()
        scale = max(fused.norm(), single.norm(), 1.0)
        assert fused.distance(single) / scale < 1e-12


def test_kappa_form_is_ad_invariant():
    """kappa(g X g^-1, g Y g^-1) = kappa(X, Y) for invertible g."""
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g = rng.standard_normal((3, 3)) + 0.5 * np.eye(3)
        if abs(np.linalg.det(g)) < 1e-3:
            continue
        ginv = np.linalg.inv(g)
        lhs = kappa_form(g @ x @ ginv, g @ y @ ginv)
        rhs = kappa_form(x, y)
        assert abs(lhs - rhs) / max(abs(rhs), 1.0) < 1e-9


def integer_supermatrix(rng, n, n_gen):
    """Every component filled with small integers, so products are exact."""
    comps = rng.integers(-3, 4, size=(1 << n_gen, n, n)) + 1j * rng.integers(-3, 4, size=(1 << n_gen, n, n))
    return SuperMatrix(n, n_gen, dict(enumerate(comps)))


def symbolic_product(a, b):
    """Component stack of a @ b from GradedCoefficient entry products."""
    out = np.zeros_like(a.components)
    ea, eb = supermatrix_entries(a), supermatrix_entries(b)
    for i in range(a.n):
        for j in range(a.n):
            entry = GradedCoefficient.from_masks({}, a.n_gen)
            for k in range(a.n):
                entry = entry + ea[i][k] * eb[k][j]
            for mask, value in entry.masks.items():
                out[mask, i, j] = value
    return out


def test_supermatrix_product_matches_symbolic_entries():
    rng = np.random.default_rng(3)
    for n_gen in range(5):
        for n in (1, 2, 3):
            a, b = integer_supermatrix(rng, n, n_gen), integer_supermatrix(rng, n, n_gen)
            assert np.array_equal((a @ b).components, symbolic_product(a, b)), (n_gen, n)


def test_supermatrix_entries_round_trip():
    rng = np.random.default_rng(4)
    a = random_supermatrix(rng, 3, n_gen=5, masks=[0, 3, 17])
    entries = supermatrix_entries(a)
    for mask, arr in enumerate(a.components):
        back = np.array([[entries[i][j].masks.get(mask, 0) for j in range(3)] for i in range(3)])
        assert np.array_equal(back, arr)
    assert all(set(e.masks) <= {0, 3, 17} for row in entries for e in row)


def test_scalar_matrix_product_keeps_koszul_signs():
    """theta1 (theta2 M) = (theta1 theta2) M = -(theta2 (theta1 M))."""
    eye = np.eye(2)
    body = np.array([[1.0, 2.0], [3.0, 4.0]])
    t1 = SuperMatrix(2, 6, {0b01: eye})
    t2 = SuperMatrix(2, 6, {0b10: eye})
    m = SuperMatrix.from_body(body)
    a = t1 @ (t2 @ m)
    b = t2 @ (t1 @ m)
    assert a.distance(-b) == 0.0
    assert a.distance(SuperMatrix(2, 6, {0b11: body})) == 0.0


def test_identity_is_neutral():
    rng = np.random.default_rng(6)
    a = random_supermatrix(rng, 3)
    eye = SuperMatrix.from_body(np.eye(3))
    assert (eye @ a).distance(a) == 0.0
    assert (a @ eye).distance(a) == 0.0


def test_trace_is_linear_and_cyclic_for_even_matrices():
    rng = np.random.default_rng(8)
    a = random_even_supermatrix(rng, 3)
    b = random_even_supermatrix(rng, 3)
    lhs = (a @ b).trace()
    rhs = (b @ a).trace()
    assert lhs.distance(rhs) < 1e-12
    s = (a + b).trace()
    assert s.distance(a.trace() + b.trace()) < 1e-13


# -- the left-regular representation -------------------------------------------


@pytest.mark.parametrize("n_gen", [0, 1, 2, 3, 4])
def test_sign_table_multiplies_basis_monomials(n_gen):
    table = signs(n_gen)
    size = 1 << n_gen
    for t in range(size):
        for u in range(size):
            if u & t != u:
                assert table[t, u] == 0
                continue
            want = GradedCoefficient.from_masks({t ^ u: 1}, n_gen) * GradedCoefficient.from_masks({u: 1}, n_gen)
            assert want.masks == {t: table[t, u]}
    assert signs(n_gen) is table and not table.flags.writeable


@pytest.mark.parametrize("n_gen", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_regular_representation_is_a_homomorphism(n_gen, n):
    rng = np.random.default_rng(31 * n_gen + n)
    a, b = integer_supermatrix(rng, n, n_gen), integer_supermatrix(rng, n, n_gen)
    full = tuple(range(1 << n_gen))
    ra, rb = regular(a.components, full), regular(b.components, full)
    assert ra.shape == ((1 << n_gen) * n,) * 2
    assert np.array_equal(regular(symbolic_product(a, b), full), ra @ rb)
    assert np.array_equal(regular(a.components[None], full)[0], ra)


@pytest.mark.parametrize("n_gen", [0, 1, 2, 3, 4])
def test_unit_column_round_trip_and_trace(n_gen):
    rng = np.random.default_rng(n_gen)
    n = 3
    m = random_supermatrix(rng, n, n_gen, masks=range(0, 1 << n_gen, 2) if n_gen else [0])
    mat = regular(m.components, tuple(range(1 << n_gen)))
    # the unit column block (rows S * n .. S * n + n - 1) is the component stack
    column = mat[:, :n].reshape(1 << n_gen, n, n)
    assert np.array_equal(column, m.components)
    # the Grassmann trace sums the diagonals of the unit column's blocks
    from_column = GradedCoefficient.from_masks(
        {s: complex(np.trace(block)) for s, block in enumerate(column)}, n_gen
    )
    assert from_column == m.trace()


# -- the regular representation on a support -----------------------------------


def regular_by_blocks(components):
    """Oracle: sum_S L_S (x) M_S on the full algebra, one block at a time."""
    size, n, _ = components.shape
    table = signs(size.bit_length() - 1)
    out = np.zeros((size * n, size * n), dtype=components.dtype)
    for t in range(size):
        for u in range(size):
            if table[t, u] > 0:
                out[t * n : t * n + n, u * n : u * n + n] = components[t ^ u]
            elif table[t, u] < 0:
                out[t * n : t * n + n, u * n : u * n + n] = -components[t ^ u]
    return out


@pytest.mark.parametrize("n_gen", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_regular_on_the_full_support_is_the_blockwise_sum(n_gen, n):
    rng = np.random.default_rng(7 * n_gen + n)
    comps = rng.standard_normal((1 << n_gen, n, n)) + 1j * rng.standard_normal((1 << n_gen, n, n))
    comps[0, 0, 0] = 0.0  # a zero entry keeps its sign under the gather too
    got = regular(comps, tuple(range(1 << n_gen)))
    assert got.tobytes() == regular_by_blocks(comps).tobytes()


# sorted, containing 0 and closed under disjoint union; the Wilson loops
# reach (0, 3) of Lambda(2), and insertion_derivative, the transport of
# C + epsilon eta with one leg, (0, 3, 28, 31) of Lambda(5)
PROPER_SUPPORTS = [(0, 3), (0, 1), (0, 3, 4, 7), (0, 1, 6, 7), (0, 3, 12, 15), (0, 5, 10, 15), (0, 3, 28, 31)]


@pytest.mark.parametrize("support", PROPER_SUPPORTS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_on_a_closed_support_is_the_full_product_restricted(support, n):
    rng = np.random.default_rng(sum(support) + n)
    n_gen = max(support).bit_length()
    a, b = (integer_supermatrix(rng, n, n_gen) for _ in range(2))
    a_s, b_s = a.components[list(support)], b.components[list(support)]
    # the full product of the matrices that vanish off the support
    off = [m for m in range(1 << n_gen) if m not in support]
    a.components[off] = b.components[off] = 0
    full = (a @ b).components
    assert not full[off].any()
    got = product(a_s, b_s, support)
    assert np.array_equal(got, full[list(support)])
    # an exact homomorphism on integer components
    assert np.array_equal(regular(got, support), regular(a_s, support) @ regular(b_s, support))
    # one gather of a serves right factors placed side by side
    wide = product(a_s, np.concatenate([b_s, a_s], axis=-1), support)
    assert np.array_equal(wide[..., n:], product(a_s, a_s, support))
