"""Tests for the graded polynomial bracket engine."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from stringtop.phasespace import (
    GradedPhaseModel,
    GradedPolynomial,
    MasterEquationError,
    delta_and_nilpotency,
    graded_bracket,
)

F = Fraction

EVEN = GradedPhaseModel([("q", 0), ("p", 0)], {("q", "p"): 1}, 2)
ODD = GradedPhaseModel(
    [("f", 0), ("fd", 1), ("x", 1), ("xd", 0)],
    {("f", "fd"): 1, ("x", "xd"): 1},
    1,
)
THETA = GradedPhaseModel(
    [("t1", 1), ("t2", 1), ("q", 0), ("p", 0)],
    {("t1", "t1"): 1, ("t2", "t2"): F(1, 2), ("q", "p"): 1},
    2,
)
KOSZUL = GradedPhaseModel(
    [("x", 0), ("c", 1), ("xd", 1), ("cd", 0)],
    {("x", "xd"): 1, ("c", "cd"): 1},
    1,
)


def rand_poly(model, rng, parity=None, n_terms=3):
    n = len(model.names)
    while True:
        raw = []
        for _ in range(n_terms):
            k = int(rng.integers(0, 4))
            factors = tuple(int(rng.integers(0, n)) for _ in range(k))
            if parity is not None:
                if sum(model.parities[i] for i in factors) % 2 != parity:
                    continue
            raw.append((F(int(rng.integers(-4, 5)), int(rng.integers(1, 4))), factors))
        poly = GradedPolynomial(model, raw)
        if not poly.is_zero:
            return poly


def sgn(e: int) -> int:
    return -1 if e % 2 else 1


# -- model and normal form ---------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError, match="duplicate"):
        GradedPhaseModel([("q", 0), ("q", 0)], {}, 2)
    with pytest.raises(ValueError, match="parity"):
        GradedPhaseModel([("q", 2)], {}, 2)
    with pytest.raises(ValueError, match="bracket parity"):
        GradedPhaseModel([("q", 0), ("t", 1)], {("q", "t"): 1}, 2)
    with pytest.raises(ValueError, match="must vanish"):
        GradedPhaseModel([("q", 0)], {("q", "q"): 1}, 2)
    with pytest.raises(ValueError, match="inconsistent"):
        GradedPhaseModel(
            [("q", 0), ("p", 0)], {("q", "p"): 1, ("p", "q"): 1}, 2
        )
    with pytest.raises(ValueError, match="unknown variable"):
        EVEN.var("z")


def test_pairing_completion_signs():
    # even-even pairing completes antisymmetrically
    assert EVEN.omega[(1, 0)] == -1
    # an odd self-pairing is allowed for d even
    i = THETA.index("t1")
    assert THETA.omega[(i, i)] == 1
    # mixed-parity pairing for d odd completes with the (parity+d) rule
    f, fd = ODD.index("f"), ODD.index("fd")
    assert ODD.omega[(fd, f)] == -1


def test_normal_form_reordering_and_odd_squares():
    t1, t2 = THETA.var("t1"), THETA.var("t2")
    assert (t2 * t1 + t1 * t2).is_zero
    assert (t1 * t1).is_zero
    q = THETA.var("q")
    assert q * t1 == t1 * q
    assert (t1 * t2).parity == 0
    with pytest.raises(ValueError, match="homogeneous"):
        (t1 + q).parity


# -- frozen bracket values -----------------------------------------------------


def test_even_model_classical_values():
    q, p = EVEN.var("q"), EVEN.var("p")
    assert graded_bracket(q, p) == EVEN.scalar(1)
    assert graded_bracket(q * q, p) == q.scale(2)
    assert graded_bracket(p, q * q) == q.scale(-2)
    assert graded_bracket(q * q + p, EVEN.scalar(7)).is_zero


def test_odd_model_derived_values():
    f, fd = ODD.var("f"), ODD.var("fd")
    assert graded_bracket(f * fd, f) == -f
    assert graded_bracket(f, f * fd) == f


def test_bracket_rejects_foreign_polynomials():
    with pytest.raises(ValueError, match="different models"):
        graded_bracket(EVEN.var("q"), ODD.var("f"))
    with pytest.raises(ValueError, match="not in model"):
        GradedPolynomial(EVEN, [(1, (5,))])


# -- axioms -------------------------------------------------------------------


@pytest.mark.parametrize("model", [EVEN, ODD, THETA, KOSZUL])
def test_bracket_axioms_exact(model):
    rng = np.random.default_rng(420)
    d = model.d
    hi = 2 if any(model.parities) else 1
    for _ in range(60):
        pa, pb = (int(rng.integers(0, hi)) for _ in range(2))
        P = rand_poly(model, rng, pa)
        Q = rand_poly(model, rng, pb)
        R = rand_poly(model, rng)
        anti = graded_bracket(P, Q) + graded_bracket(Q, P).scale(
            sgn((pa + d) * (pb + d))
        )
        assert anti.is_zero
        leib = graded_bracket(P, Q * R) - (
            graded_bracket(P, Q) * R
            + (Q * graded_bracket(P, R)).scale(sgn(pb * (pa + d)))
        )
        assert leib.is_zero
        jac = graded_bracket(P, graded_bracket(Q, R)) - (
            graded_bracket(graded_bracket(P, Q), R)
            + graded_bracket(Q, graded_bracket(P, R)).scale(sgn((pa + d) * (pb + d)))
        )
        assert jac.is_zero


# -- the differential ------------------------------------------------------------


def test_zero_generator_gives_zero_differential():
    rng = np.random.default_rng(9)
    P = rand_poly(EVEN, rng)
    dP, ddP = delta_and_nilpotency(EVEN.zero(), P)
    assert dP.is_zero and ddP.is_zero


def test_momentum_generator_acts_as_signed_q_derivative():
    q, p = EVEN.var("q"), EVEN.var("p")
    mono = EVEN.scalar(1)
    for k in range(1, 5):
        mono = mono * q
        dP, _ = delta_and_nilpotency(p, mono)
        # with {q;p} = +1 the flow of p is (-1) d/dq; nilpotency is not
        # expected here since {p; .} is an even derivation
        want = (q * q * q if k == 4 else [EVEN.scalar(1), q, q * q][k - 1]).scale(-k)
        assert dP == want


def test_master_equation_violation_is_reported():
    # {S;S} can only be nonzero when parity(S) + d is odd
    t1 = THETA.var("t1")
    assert graded_bracket(t1, t1) == THETA.scalar(1)
    with pytest.raises(MasterEquationError, match="master equation"):
        delta_and_nilpotency(t1, THETA.var("q"))


def test_koszul_generator_is_nilpotent():
    S = KOSZUL.monomial(1, "xd", "c")
    assert graded_bracket(S, S).is_zero
    x, c = KOSZUL.var("x"), KOSZUL.var("c")
    dx, ddx = delta_and_nilpotency(S, x)
    assert dx == c and ddx.is_zero
    dc, _ = delta_and_nilpotency(S, c)
    assert dc.is_zero
    rng = np.random.default_rng(31)
    for _ in range(100):
        P = rand_poly(KOSZUL, rng, n_terms=4)
        _, ddP = delta_and_nilpotency(S, P)
        assert ddP.is_zero
