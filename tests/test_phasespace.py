"""Tests for the graded polynomial bracket engine."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from stringtop import phasespace
from stringtop.phasespace import (
    GradedPhaseModel,
    MasterEquationError,
    delta_and_nilpotency,
    graded_bracket,
)

from oracles import (
    graded_terms_bracket,
    graded_terms_product,
    graded_terms_scale,
    graded_terms_sum,
    graded_word_normal_form,
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
        poly = model.zero()
        for _ in range(n_terms):
            k = int(rng.integers(0, 4))
            factors = tuple(int(rng.integers(0, n)) for _ in range(k))
            if parity is not None:
                if sum(model.parities[i] for i in factors) % 2 != parity:
                    continue
            coeff = F(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
            poly = poly + model.monomial(coeff, *(model.names[i] for i in factors))
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
        EVEN.monomial(1, "z")


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
    t1, t2 = THETA.monomial(1, "t1"), THETA.monomial(1, "t2")
    assert (t2 * t1 + t1 * t2).is_zero
    assert (t1 * t1).is_zero
    q = THETA.monomial(1, "q")
    assert q * t1 == t1 * q
    assert (t1 * t2).parity == 0
    with pytest.raises(ValueError, match="homogeneous"):
        (t1 + q).parity


def test_constructor_validates_and_normalizes():
    # monomial is the one way to write a term from variable names
    q = THETA.index("q")
    with pytest.raises(ValueError, match="unknown variable"):
        THETA.monomial(1, "q", "z")
    # a repeated odd variable kills the monomial, a repeated even one does not
    assert THETA.monomial(3, "t1", "q", "t1").is_zero
    assert THETA.monomial(3, "q", "q").terms == {(q, q): 3}
    # reordering odd factors costs a sign, and equal keys are summed
    summed = THETA.monomial(1, "t2", "t1") + THETA.monomial(F(1, 2), "t1", "t2")
    assert summed.terms == {(0, 1): F(-1, 2)}
    # coefficients are exact: an int or a Fraction, never a float or complex
    poly = THETA.monomial(1, "q")
    for refused in (
        lambda: THETA.monomial("1", "q"),
        lambda: THETA.monomial(0.5, "q"),
        lambda: THETA.monomial(1j),
        lambda: poly.scale(0.5),
        lambda: GradedPhaseModel([("q", 0), ("p", 0)], {("q", "p"): 0.5}, 2),
    ):
        with pytest.raises(TypeError, match="unsupported coefficient"):
            refused()


@pytest.mark.parametrize("model", [EVEN, ODD, THETA, KOSZUL])
def test_monomials_and_products_match_the_inversion_count(model):
    rng = np.random.default_rng(57)
    n = len(model.names)
    for _ in range(200):
        w1, w2 = ([int(i) for i in rng.integers(0, n, int(rng.integers(0, 5)))] for _ in range(2))
        a = model.monomial(F(1, 3), *(model.names[i] for i in w1))
        b = model.monomial(-2, *(model.names[i] for i in w2))
        for got, word, coeff in ((a, w1, F(1, 3)), (b, w2, F(-2)), (a * b, w1 + w2, F(-2, 3))):
            sign, key = graded_word_normal_form(model.parities, word)
            assert got.terms == ({key: sign * coeff} if sign else {})


@pytest.mark.parametrize("coeffs,kind", [((2, F(1, 3), -1), Fraction)])
def test_coefficient_types_survive_every_operation(coeffs, kind):
    # ints become Fractions and stay exact
    a, b, c = coeffs
    mono = THETA.monomial
    poly = mono(a, "p", "t1") + mono(b, "q") + mono(c, "t2", "q", "t1")
    other = mono(b, "t1", "q") + mono(a, "p", "p") + mono(c, "t2")
    results = [
        poly,
        poly + other,
        poly - other,
        -poly,
        poly.scale(-1),
        poly.scale(3),
        poly * other,
        graded_bracket(poly, other),
        graded_bracket(other, poly),
    ]
    for r in results:
        assert r.terms
        assert {type(v) for v in r.terms.values()} == {kind}
    assert poly.scale(0).is_zero and (poly - poly).is_zero
    assert -poly == poly.scale(-1) and poly - other == poly + other.scale(-1)


@pytest.mark.parametrize("kind", [Fraction])
@pytest.mark.parametrize("model", [EVEN, ODD, THETA, KOSZUL])
def test_numerators_match_the_coefficient_oracle(model, kind):
    # integer numerators over one denominator give the same terms, in
    # value, type and order, as arithmetic on the coefficients themselves
    rng = np.random.default_rng(77)
    par = model.parities
    for _ in range(30):
        P, Q, R = (rand_poly(model, rng) for _ in range(3))
        p, q, r = P.terms, Q.terms, R.terms
        s = F(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        bqr = graded_terms_bracket(model, q, r)
        cases = [
            (P + Q, graded_terms_sum(p, q)),
            (P - Q, graded_terms_sum(p, graded_terms_scale(q, -1))),
            (-P, graded_terms_scale(p, -1)),
            (P.scale(s), graded_terms_scale(p, s)),
            (P.scale(1), p),
            (P * Q, graded_terms_product(par, p, q)),
            (P * Q * R, graded_terms_product(par, graded_terms_product(par, p, q), r)),
            (graded_bracket(P, Q), graded_terms_bracket(model, p, q)),
            (graded_bracket(P, graded_bracket(Q, R)), graded_terms_bracket(model, p, bqr)),
            (
                graded_bracket(P * Q, R) - graded_bracket(Q, R).scale(s),
                graded_terms_sum(
                    graded_terms_bracket(model, graded_terms_product(par, p, q), r),
                    graded_terms_scale(bqr, -s),
                ),
            ),
        ]
        for got, want in cases:
            assert list(got.terms.items()) == list(want.items())
            assert [type(v) for v in got.terms.values()] == [kind] * len(want)


def test_merge_table_is_keyed_by_the_parities():
    # same names, other parities: the swap of x and y is odd only in the first
    odd = GradedPhaseModel([("x", 1), ("y", 1)], {}, 2)
    even = GradedPhaseModel([("x", 0), ("y", 0)], {}, 2)
    for model in (odd, even):
        model.monomial(1, "y") * model.monomial(1, "x")
    hits = phasespace._merge.cache_info().hits
    for model, sign in ((odd, -1), (even, 1)):
        assert (model.monomial(1, "y") * model.monomial(1, "x")).terms == {(0, 1): sign}
        assert model.monomial(1, "y", "x").terms == {(0, 1): sign}
    assert phasespace._merge.cache_info().hits > hits
    assert isinstance(phasespace._merge.cache_info().maxsize, int)


# -- frozen bracket values -----------------------------------------------------


def test_even_model_classical_values():
    q, p = EVEN.monomial(1, "q"), EVEN.monomial(1, "p")
    assert graded_bracket(q, p) == EVEN.monomial(1)
    assert graded_bracket(q * q, p) == q.scale(2)
    assert graded_bracket(p, q * q) == q.scale(-2)
    assert graded_bracket(q * q + p, EVEN.monomial(7)).is_zero


def test_odd_model_derived_values():
    f, fd = ODD.monomial(1, "f"), ODD.monomial(1, "fd")
    assert graded_bracket(f * fd, f) == -f
    assert graded_bracket(f, f * fd) == f


def test_bracket_rejects_foreign_polynomials():
    with pytest.raises(ValueError, match="different models"):
        graded_bracket(EVEN.monomial(1, "q"), ODD.monomial(1, "f"))
    with pytest.raises(ValueError, match="different models"):
        EVEN.monomial(1, "q") * ODD.monomial(1, "f")
    with pytest.raises(ValueError, match="unknown variable"):
        EVEN.monomial(1, "f")


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
    q, p = EVEN.monomial(1, "q"), EVEN.monomial(1, "p")
    mono = EVEN.monomial(1)
    for k in range(1, 5):
        mono = mono * q
        dP, _ = delta_and_nilpotency(p, mono)
        # with {q;p} = +1 the flow of p is (-1) d/dq; nilpotency is not
        # expected here since {p; .} is an even derivation
        want = (q * q * q if k == 4 else [EVEN.monomial(1), q, q * q][k - 1]).scale(-k)
        assert dP == want


def test_master_equation_violation_is_reported():
    # {S;S} can only be nonzero when parity(S) + d is odd
    t1 = THETA.monomial(1, "t1")
    assert graded_bracket(t1, t1) == THETA.monomial(1)
    with pytest.raises(MasterEquationError, match="master equation"):
        delta_and_nilpotency(t1, THETA.monomial(1, "q"))


def test_koszul_generator_is_nilpotent():
    S = KOSZUL.monomial(1, "xd", "c")
    assert graded_bracket(S, S).is_zero
    x, c = KOSZUL.monomial(1, "x"), KOSZUL.monomial(1, "c")
    dx, ddx = delta_and_nilpotency(S, x)
    assert dx == c and ddx.is_zero
    dc, _ = delta_and_nilpotency(S, c)
    assert dc.is_zero
    rng = np.random.default_rng(31)
    for _ in range(100):
        P = rand_poly(KOSZUL, rng, n_terms=4)
        _, ddP = delta_and_nilpotency(S, P)
        assert ddP.is_zero
