"""Reference implementations that tests compare the package against.

Nothing in ``stringtop`` calls these. Each one computes by explicit
enumeration what the package computes through an identity, so the tests
check that identity rather than one route against itself.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from stringtop.fields import FieldConfig
from stringtop.lierep import LieBasis, SuperMatrix


def kappa_form(x: np.ndarray, y: np.ndarray) -> complex:
    """kappa extended bilinearly: tr(x y)."""
    return complex(np.trace(np.asarray(x) @ np.asarray(y)))


def casimir_tensor(basis: LieBasis) -> np.ndarray:
    """sum_ab kappa^{ab} E_a (x) E_b as an integer n^2 x n^2 matrix."""
    n = basis.n
    out = np.zeros((n * n, n * n), dtype=np.int64)
    for a in range(basis.dim):
        b = basis.dual(a)
        i, j = basis.unit(a)
        k, l = basis.unit(b)
        # rows indexed (r,s), columns (u,v); E_a acts on the first
        # factor, E_b on the second
        out[i * n + k, j * n + l] += 1
    return out


def swap_tensor(basis: LieBasis) -> np.ndarray:
    """The flip operator v (x) w -> w (x) v on C^n (x) C^n."""
    n = basis.n
    out = np.zeros((n * n, n * n), dtype=np.int64)
    for r in range(n):
        for s in range(n):
            out[r * n + s, s * n + r] = 1
    return out


def swap_via_casimir(
    v: Sequence[complex], w: Sequence[complex], basis: LieBasis
) -> tuple[np.ndarray, np.ndarray]:
    """Apply sum_ab kappa^{ab} E_a (x) E_b to v (x) w by explicit summation.

    The output tensor is rank one and equals w (x) v; it is returned
    factored as a pair (first factor, second factor) via the pivot
    row/column of its largest entry.
    """
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    n = basis.n
    if v.shape != (n,) or w.shape != (n,):
        raise ValueError(f"vectors must have length {n}")
    tensor = np.zeros((n, n), dtype=complex)
    for a in range(basis.dim):
        b = basis.dual(a)
        tensor += np.outer(basis.matrix(a) @ v, basis.matrix(b) @ w)
    if not tensor.any():
        return np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    r0, s0 = np.unravel_index(np.argmax(np.abs(tensor)), tensor.shape)
    first = tensor[:, s0]
    second = tensor[r0, :] / tensor[r0, s0]
    return first, second


def eval_field(
    config: FieldConfig, point: Sequence, vectors: Sequence[Sequence]
) -> SuperMatrix:
    """Evaluate the degree-k part on k vectors at a point.

    Terms whose form degree differs from len(vectors) contribute nothing;
    selecting the degree is the caller's job. The form monomial pairs with
    the vectors through det[v_b^{mu_a}].
    """
    k = len(vectors)
    vecs = [np.array([float(c) for c in v]) for v in vectors]
    comps: dict[int, np.ndarray] = {}
    for mask, field, mat in config.terms:
        bits = config.form_degree_bits(mask)
        if len(bits) != k:
            continue
        if k == 0:
            pairing = 1.0
        else:
            rows = np.array([[vecs[b][mu] for b in range(k)] for mu in bits])
            pairing = float(np.linalg.det(rows)) if k > 1 else float(rows[0, 0])
        value = field.evaluate(point) * pairing
        if value == 0:
            continue
        tm = config.theta_mask(mask)
        if tm in comps:
            comps[tm] = comps[tm] + value * mat
        else:
            comps[tm] = value * mat
    return SuperMatrix(config.n, config.n_theta, comps)
