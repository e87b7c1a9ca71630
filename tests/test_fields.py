"""Tests for coefficient fields, flat connections, and form-field algebra."""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np
import pytest

from stringtop.fields import (
    ConstantCommutingConnection,
    FieldConfig,
    FourierField,
    FourierStack,
    field_obstruction,
)
from stringtop.geometry import PLLoop, Torus
from stringtop.grassmann import GradedCoefficient
from stringtop.holonomy import transport, wrap_transport

from oracles import (
    config_is_zero,
    config_norm,
    config_scale,
    config_sum,
    constant_field,
    eval_field,
    fourier_values,
    matrix_unit,
    supermatrix_entries,
)


def diag_connection():
    a1 = np.diag([0.2 + 0j, -0.1])
    a2 = np.diag([-0.3 + 0j, 0.15])
    return ConstantCommutingConnection([a1, a2])


# -- scalar coefficient fields ------------------------------------------------


def test_fourier_evaluate_and_derivative():
    f = FourierField.from_dict(2, {(1, 0): 1.0})
    assert f.evaluate((0.25, 0.7)) == pytest.approx(1j)
    df = f.derivative(0)
    x = (0.3, 0.1)
    assert df.evaluate(x) == pytest.approx(2j * cmath.pi * f.evaluate(x))
    assert f.derivative(1).is_zero


def test_evaluate_takes_an_array_of_points():
    points = np.array([[0.25, 0.7], [-1.5, 0.3], [2.0, 0.5]])
    for field in (
        FourierField.from_dict(2, {(2, 0): 1.0, (1, 1): 3.0 - 1j, (0, 0): 0.5}),
        FourierField.from_dict(2, {(1, 0): 1.0, (-2, 1): 0.3j}),
        FourierField.from_dict(2, {}),
    ):
        values = field.evaluate(points)
        assert values.shape == (3,)
        assert all(values[k] == field.evaluate(points[k]) for k in range(3))
        assert isinstance(field.evaluate((0.1, 0.2)), complex)


def test_a_stack_evaluates_each_field_bit_for_bit_as_alone():
    # numpy's pairwise sum groups a sum of more than 8 terms differently, so
    # the stack must sum each field over exactly its own modes
    rng = np.random.default_rng(17)

    def field(modes):
        return FourierField.from_dict(2, {m: complex(*rng.standard_normal(2)) for m in modes})

    grid = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    fields = [
        field([(1, 0), (0, 1)]),
        field([(0, 1), (1, 1), (2, -1)]),  # shares (0, 1) with the first
        field([(3, 3)]),  # disjoint from every other
        FourierField.from_dict(2, {}),
        field(grid[:12]),  # more than 8 modes
        field(grid[5:14]),
        field([(1, 0), (0, 1)]),  # the first field's length again
    ]
    points = rng.uniform(-1.5, 1.5, (300, 2))
    stacked = FourierStack(2, fields)(points)
    assert stacked.shape == (len(fields), len(points))
    for values, f in zip(stacked, fields):
        assert np.array_equal(values, f.evaluate(points))
        assert np.array_equal(values, fourier_values(f, points))
    at_one = FourierStack(2, fields)(points[7])
    assert at_one.shape == (len(fields),)
    assert all(at_one[k] == f.evaluate(points[7]) == fourier_values(f, points[7]) for k, f in enumerate(fields))
    assert not stacked[3].any()


def test_products_convolve_within_one_kind():
    e10 = FourierField.from_dict(2, {(1, 0): 2.0})
    e01 = FourierField.from_dict(2, {(0, 1): 0.5})
    assert (e10 * e01).terms == (((1, 1), 1.0 + 0j),)
    assert (constant_field(3.0) * e10).terms == (((1, 0), 6.0 + 0j),)


# -- flat connections ----------------------------------------------------------


def test_connection_requires_commuting_directions():
    a1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    a2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="do not commute"):
        ConstantCommutingConnection([a1, a2])


def test_connection_takes_one_matrix_per_torus_direction():
    # a third matrix would wedge in at bit 1 << 2, theta_1's slot of the
    # FieldConfig mask; a single one would drop the y-velocity in matrix_of
    for count in (0, 1, 3):
        with pytest.raises(ValueError, match="two direction matrices"):
            ConstantCommutingConnection([np.eye(2)] * count)


def test_connection_contraction_and_gauge():
    conn = diag_connection()
    np.testing.assert_allclose(
        conn.matrix_of((2.0, -1.0)), 2 * conn.mats[0] - conn.mats[1]
    )
    g = np.array([[1.0, 0.4], [-0.2, 1.0]])
    gauged = conn.gauge(g)
    ginv = np.linalg.inv(g)
    for a, b in zip(gauged.mats, conn.mats):
        np.testing.assert_allclose(a, g @ b @ ginv, atol=1e-14)
    zero = ConstantCommutingConnection([np.zeros((2, 2))] * 2)
    assert not zero.matrix_of((1.0, 1.0)).any()
    # exp of the zero matrix is the identity exactly, with no shortcut for it
    loop = PLLoop(Torus(2), [(0, 0), (Fraction(1, 2), Fraction(1, 3))], closure=(1, 1))
    for u in (
        transport(zero, loop),
        transport(zero, loop, Fraction(1, 3), Fraction(1, 2)),
        wrap_transport(zero, loop, Fraction(1, 3), Fraction(1, 5)),
    ):
        assert np.array_equal(u, np.eye(2))


# -- field configurations -------------------------------------------------------


def test_build_rejects_bad_indices_and_parity():
    torus = Torus(2)
    with pytest.raises(ValueError, match="out of range"):
        FieldConfig.build(torus, 2, 2, [{"indices": (3,), "field": constant_field(1.0), "lie": matrix_unit(2, 1, 2)}])
    with pytest.raises(ValueError, match="strictly increasing"):
        FieldConfig.build(
            torus, 2, 2, [{"indices": (2, 1), "field": constant_field(1.0), "lie": matrix_unit(2, 1, 2)}]
        )
    with pytest.raises(ValueError, match="theta index out of range"):
        FieldConfig.build(
            torus, 2, 2, [{"indices": (1,), "eps": (3,), "field": constant_field(1.0), "lie": matrix_unit(2, 1, 2)}]
        )
    with pytest.raises(ValueError, match="parity"):
        FieldConfig.build(
            torus,
            2,
            2,
            [{"indices": (1, 2), "eps": (1,), "field": constant_field(1.0), "lie": matrix_unit(2, 1, 2)}],
            expect_parity=0,
        )
    # the field is a FourierField and the lie part a matrix: a bare constant
    # or a 1-based (i, j) pair is refused, also where no matrix has E_12 (n = 1)
    with pytest.raises(TypeError, match="FourierField"):
        FieldConfig.build(torus, 2, 0, [{"indices": (1,), "field": 1.0, "lie": matrix_unit(2, 1, 2)}])
    for n in (1, 2):
        with pytest.raises(ValueError, match="wrong shape"):
            FieldConfig.build(torus, n, 0, [{"indices": (1,), "field": constant_field(1.0), "lie": (1, 2)}])
    # an odd term list under the odd filter is fine
    cfg = FieldConfig.build(
        torus,
        2,
        2,
        [
            {"indices": (1,), "field": constant_field(1.0), "lie": matrix_unit(2, 1, 2)},
            {"indices": (2,), "eps": (1, 2), "field": constant_field(1.0), "lie": matrix_unit(2, 2, 1)},
        ],
        expect_parity=1,
    )
    assert len(cfg.terms) == 2


def test_eval_field_selects_degree_and_pairs_antisymmetrically():
    torus = Torus(2)
    cfg = FieldConfig.build(
        torus,
        2,
        2,
        [
            {"field": constant_field(5.0), "lie": matrix_unit(2, 1, 1)},
            {"indices": (1,), "field": FourierField.from_dict(2, {(0, 1): 3.0}), "lie": matrix_unit(2, 1, 2)},
            {"indices": (1, 2), "field": constant_field(2.0), "lie": matrix_unit(2, 2, 1)},
        ],
    )
    point = (0.5, 3.0)  # the 1-form's field is 3 exp(2 pi i x_2) = 3 there
    zero_part = eval_field(cfg, point, [])
    np.testing.assert_allclose(zero_part.body(), 5.0 * matrix_unit(2, 1, 1))
    one_part = eval_field(cfg, point, [(2.0, 7.0)])
    np.testing.assert_allclose(one_part.body(), 3.0 * 2.0 * matrix_unit(2, 1, 2))
    u, v = (1.0, 0.0), (0.5, 4.0)
    two_part = eval_field(cfg, point, [u, v])
    det = u[0] * v[1] - v[0] * u[1]
    np.testing.assert_allclose(two_part.body(), 2.0 * det * matrix_unit(2, 2, 1))
    swapped = eval_field(cfg, point, [v, u])
    np.testing.assert_allclose(swapped.body(), -two_part.body())


def test_obstruction_of_constant_nilpotent_one_form_vanishes():
    torus = Torus(2)
    cfg = FieldConfig.build(torus, 2, 0, [{"indices": (1,), "field": constant_field(1.0), "lie": matrix_unit(2, 1, 2)}])
    assert config_is_zero(field_obstruction(cfg, ConstantCommutingConnection([np.zeros((2, 2))] * 2)))


def test_exterior_derivative_sign_on_a_one_form():
    # d(f dx^1) = d_2 f dx^2 dx^1 = -d_2 f dx^1 dx^2, for f = exp(2 pi i x_2)
    torus = Torus(2)
    cfg = FieldConfig.build(
        torus,
        2,
        0,
        [{"indices": (1,), "field": FourierField.from_dict(2, {(0, 1): 1.0}), "lie": matrix_unit(2, 1, 1)}],
    )
    b = field_obstruction(cfg, ConstantCommutingConnection([np.zeros((2, 2))] * 2))
    minus_d2f = FourierField.from_dict(2, {(0, 1): -2j * cmath.pi})
    expected = FieldConfig.build(
        torus, 2, 0, [{"indices": (1, 2), "field": minus_d2f, "lie": matrix_unit(2, 1, 1)}]
    )
    assert config_is_zero(config_sum(b, config_scale(expected, -1.0)))


def test_obstruction_is_the_covariant_derivative_on_an_odd_scalar():
    # B(f theta_1 E) = sum_mu dx^mu theta_1 (d_mu f E + f [A_mu, E]),
    # checked by evaluation since term factorizations are not canonical.
    torus = Torus(2)
    conn = diag_connection()
    f = FourierField.from_dict(2, {(1, 1): 1.0})
    e = matrix_unit(2, 1, 2)
    cfg = FieldConfig.build(torus, 2, 1, [{"eps": (1,), "field": f, "lie": e}])
    b = field_obstruction(cfg, conn)
    point = (0.7, -1.3)
    fval = cmath.exp(2j * cmath.pi * (point[0] + point[1]))
    grads = (2j * cmath.pi * fval, 2j * cmath.pi * fval)
    for mu in range(2):
        basis = [(1.0, 0.0), (0.0, 1.0)][mu]
        got = supermatrix_entries(eval_field(b, point, [basis]))
        a_mu = conn.mats[mu]
        want = grads[mu] * e + fval * (a_mu @ e - e @ a_mu)
        for i in range(2):
            for j in range(2):
                diff = got[i][j] - GradedCoefficient.from_masks({1: want[i, j]}, 1)
                assert diff.norm() <= 1e-13


def test_obstruction_commutes_with_constant_gauge():
    torus = Torus(2)
    conn = diag_connection()
    cfg = FieldConfig.build(
        torus,
        2,
        2,
        [
            {
                "indices": (1,),
                "field": FourierField.from_dict(2, {(1, 0): 0.4, (0, 1): 0.2j}),
                "lie": matrix_unit(2, 1, 2),
            },
            {
                "indices": (2,),
                "eps": (1, 2),
                "field": FourierField.from_dict(2, {(0, 1): 0.3}),
                "lie": matrix_unit(2, 2, 1),
            },
            {"eps": (1,), "field": FourierField.from_dict(2, {(1, 1): 0.7}), "lie": matrix_unit(2, 2, 2)},
        ],
    )
    g = np.array([[1.0, 0.3], [-0.5, 1.0]])
    lhs = field_obstruction(cfg.gauge(g), conn.gauge(g))
    rhs = field_obstruction(cfg, conn).gauge(g)
    diff = config_sum(lhs, config_scale(rhs, -1.0))
    assert config_norm(diff) <= 1e-12 * max(1.0, config_norm(lhs))


def test_simplify_cancels_and_merges():
    torus = Torus(2)
    cfg = FieldConfig.build(
        torus,
        2,
        1,
        [{"indices": (1,), "eps": (1,), "field": FourierField.from_dict(2, {(1, 0): 1.0}), "lie": matrix_unit(2, 1, 2)}],
    )
    assert config_is_zero(config_sum(cfg, config_scale(cfg, -1.0)))
    doubled = config_sum(cfg, cfg)
    assert len(doubled.terms) == 1
    assert config_is_zero(config_sum(doubled, config_scale(cfg, -2.0)))
