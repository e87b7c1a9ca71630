"""Tests for the finite Grassmann coefficient algebra."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringtop.grassmann import GradedCoefficient, gc_mul, merge_sign


def t(*indices, n_gen=6):
    return GradedCoefficient({tuple(indices): 1}, n_gen=n_gen)


def test_product_of_body_plus_top_pair():
    """(2 + t1 t2)(3 + t1 t2) = 6 + 5 t1 t2 since (t1 t2)^2 = 0."""
    a = GradedCoefficient({(): 2, (1, 2): 1})
    b = GradedCoefficient({(): 3, (1, 2): 1})
    assert gc_mul(a, b) == GradedCoefficient({(): 6, (1, 2): 5})


def test_generators_anticommute():
    assert t(1) * t(2) == -(t(2) * t(1))
    assert t(1) * t(2) == t(1, 2)
    assert t(2) * t(1) == GradedCoefficient({(1, 2): -1})


def test_generators_square_to_zero():
    for a in range(1, 7):
        assert (t(a) * t(a)).is_zero


def test_merge_sign_against_transposition_count():
    """Sign of theta_I theta_J from explicitly counting inversions."""
    import itertools

    for size_i in range(4):
        for bits_i in itertools.combinations(range(6), size_i):
            for size_j in range(4):
                for bits_j in itertools.combinations(range(6), size_j):
                    if set(bits_i) & set(bits_j):
                        continue
                    word = list(bits_i) + list(bits_j)
                    inversions = sum(
                        1
                        for x in range(len(word))
                        for y in range(x + 1, len(word))
                        if word[x] > word[y]
                    )
                    mask_i = sum(1 << b for b in bits_i)
                    mask_j = sum(1 << b for b in bits_j)
                    assert merge_sign(mask_i, mask_j) == (-1) ** inversions


def test_body_of_product_is_product_of_bodies():
    a = GradedCoefficient({(): 2 + 1j, (1,): 3, (2, 3): -1})
    b = GradedCoefficient({(): -0.5j, (3,): 1, (1, 2): 4})
    assert gc_mul(a, b).body() == a.body() * b.body()


def test_zero_body_elements_are_nilpotent():
    a = t(1) + t(2) + t(3) + t(1, 2, 3) * 2
    power = GradedCoefficient.from_masks({0: 1})
    for _ in range(7):
        power = power * a
    assert power.is_zero


def test_mismatched_generator_counts_raise():
    a = GradedCoefficient({(1,): 1}, n_gen=4)
    b = GradedCoefficient({(1,): 1}, n_gen=6)
    with pytest.raises(ValueError, match="mismatched generator counts"):
        gc_mul(a, b)
    with pytest.raises(ValueError, match="mismatched generator counts"):
        a + b


def test_index_validation():
    with pytest.raises(ValueError, match="outside"):
        GradedCoefficient({(7,): 1}, n_gen=6)
    with pytest.raises(ValueError, match="repeated"):
        GradedCoefficient({(2, 2): 1})
    with pytest.raises(ValueError, match="strictly increasing"):
        GradedCoefficient({(3, 1): 1})


def test_parity_and_homogeneity():
    assert GradedCoefficient.from_masks({0: 2}).parity() == 0
    assert t(1).parity() == 1
    assert t(1, 2).parity() == 0
    mixed = t(1) + t(1, 2)
    assert mixed.parity() is None
    assert (t(1) + t(2, 3, 4)).parity() == 1


small_elements = st.builds(
    lambda coeffs: GradedCoefficient.from_masks(
        {m: Fraction(c) for m, c in enumerate(coeffs) if c != 0}, n_gen=4
    ),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=16, max_size=16),
)


@settings(max_examples=60, deadline=None)
@given(small_elements, small_elements, small_elements)
def test_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(small_elements, small_elements, small_elements)
def test_product_distributes_over_addition(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(small_elements, small_elements)
def test_supercommutativity_of_homogeneous_parts(a, b):
    """a b = (-1)^{|a||b|} b a term-by-term in parity components."""
    def part(x, p):
        return GradedCoefficient.from_masks(
            {m: v for m, v in x.masks.items() if m.bit_count() & 1 == p}, x.n_gen
        )

    for pa in (0, 1):
        for pb in (0, 1):
            lhs = part(a, pa) * part(b, pb)
            rhs = part(b, pb) * part(a, pa)
            if pa and pb:
                rhs = -rhs
            assert lhs == rhs


def test_scalar_mode_stays_exact():
    a = GradedCoefficient({(): Fraction(1, 3), (1, 2): Fraction(2, 5)})
    b = a * a
    assert b.coeff(()) == Fraction(1, 9)
    assert b.coeff((1, 2)) == Fraction(4, 15)
    assert isinstance(b.body(), Fraction)
