"""Tests for coefficient fields, flat connections, and form-field algebra."""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from stringtop import fields
from stringtop.fields import (
    EXP_MEMO_CAP,
    ConstantCommutingConnection,
    FieldConfig,
    FourierField,
    FourierStack,
    field_obstruction,
)
from stringtop.geometry import PLLoop, Torus
from stringtop.grassmann import GradedCoefficient
from stringtop.holonomy import transport

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
    # a NaN or an infinite entry gives a NaN commutator, which is not flat
    for mats in ([[[np.nan]], [[0.0]]], [np.full((2, 2), np.inf), np.eye(2)]):
        with pytest.raises(ValueError, match="do not commute"), np.errstate(invalid="ignore"):
            ConstantCommutingConnection(mats)


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
    # no entry comes out -0.0, whose sign expm's result bits would see
    assert not np.signbit(zero.matrix_of((-1.0, -1.0)).view(float)).any()
    # exp of the zero matrix is the identity exactly, with no shortcut for it
    loop = PLLoop(Torus(2), [(0, 0), (Fraction(1, 2), Fraction(1, 3))], closure=(1, 1))
    for u in (
        transport(zero, loop),
        transport(zero, loop, Fraction(1, 3), Fraction(1, 2)),
        transport(zero, loop, Fraction(1, 3), Fraction(6, 5)),
    ):
        assert np.array_equal(u, np.eye(2))


def gauged_connection():
    """diag_connection conjugated by a fixed g, so no matrix is diagonal."""
    return diag_connection().gauge(np.array([[1.0, 0.4j], [-0.2, 1.0]]))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_connection_matrices_are_read_only_copies():
    a1, a2 = np.diag([0.2 + 0j, -0.1]), np.diag([-0.3 + 0j, 0.15])
    conn = ConstantCommutingConnection([a1, a2])
    for m in conn.mats:
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0
    # the caller's arrays stay writable, and writing them changes no connection
    a1[0, 0] = 7.0
    assert conn.mats[0][0, 0] == 0.2


def test_every_based_lap_is_one_kept_exponential_of_the_closure():
    # U(s, s + 1) has displacement closure + x(s) - x(s), formed from
    # integers as exactly float(closure): every lap is the same exponential
    conn = gauged_connection()
    loop = PLLoop(Torus(2), [(0, 0), (Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 4), Fraction(-1, 5))], closure=(1, 2))
    fresh = expm(conn.matrix_of([float(c) for c in loop.closure]))
    first = transport(conn, loop)
    assert same_bits(first, fresh)
    for s in (Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(1, 2), Fraction(5, 6), Fraction(1)):
        assert transport(conn, loop, s, s + 1) is first
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 1.0
    # a repeated span is the kept object too
    hop = transport(conn, loop, Fraction(1, 3), Fraction(6, 5))
    assert transport(conn, loop, Fraction(1, 3), Fraction(6, 5)) is hop
    assert not hop.flags.writeable


def test_connections_keep_their_own_exponentials():
    conn = gauged_connection()
    twin = ConstantCommutingConnection(conn.mats)
    gauged = conn.gauge(np.array([[1.0, 0.3], [0.1, 1.0]]))
    loop = PLLoop(Torus(2), [(0, 0), (Fraction(1, 2), Fraction(1, 3))], closure=(1, 1))
    u, u_twin, u_gauged = (transport(c, loop) for c in (conn, twin, gauged))
    assert same_bits(u, u_twin) and u is not u_twin
    kept = [c._exps for c in (conn, twin, gauged)]
    assert all(len(memo) == 1 for memo in kept)
    ids = [id(m) for memo in kept for m in memo.values()]
    assert len(set(ids)) == 3 and u_gauged is not u


def test_past_the_cap_exponentials_are_computed_and_not_kept():
    # the spans (0, k/m) of a class-(1, 1) line have the m distinct
    # displacements (k/m, k/m), each a correctly rounded quotient
    conn = gauged_connection()
    loop = PLLoop(Torus(2), [(0, 0)], closure=(1, 1))
    m = EXP_MEMO_CAP + 8
    for k in range(m):
        u = conn.transport(loop, 0, Fraction(k, m))
        assert same_bits(u, expm(conn.matrix_of((k / m, k / m))))
    assert len(conn._exps) == EXP_MEMO_CAP
    for k in range(EXP_MEMO_CAP, m):
        u = conn.transport(loop, 0, Fraction(k, m))
        assert same_bits(u, expm(conn.matrix_of((k / m, k / m)))) and not u.flags.writeable
        assert conn.transport(loop, 0, Fraction(k, m)) is not u
    # the kept ones are still served
    assert conn.transport(loop, 0, 0) is conn.transport(loop, 0, 0)
    assert len(conn._exps) == EXP_MEMO_CAP


def test_displacements_are_the_floats_of_the_fraction_lift_points():
    # read from the integers of s and t, a t past 1 one lap on; the oracle
    # subtracts the Fraction points (``point_at``) and rounds once
    verts = [(0, 0), (Fraction(2, 5), Fraction(1, 10)), (Fraction(1, 2), Fraction(3, 5))]
    loop = PLLoop(Torus(2), verts, closure=(1, -2))
    grid = sorted({Fraction(p, q) for q in range(1, 10) for p in range(2 * q + 1)})
    checked = 0
    for s in (s for s in grid if s <= 1):
        for t in (t for t in grid if s <= t <= s + 1):
            x_t = loop.point_at(t) if t <= 1 else [x + c for x, c in zip(loop.point_at(t - 1), loop.closure)]
            assert fields._displacement(loop, s, t) == [float(b - a) for a, b in zip(loop.point_at(s), x_t)]
            checked += t > 1
    assert checked > 100


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
    np.testing.assert_allclose(zero_part.components[0], 5.0 * matrix_unit(2, 1, 1))
    one_part = eval_field(cfg, point, [(2.0, 7.0)])
    np.testing.assert_allclose(one_part.components[0], 3.0 * 2.0 * matrix_unit(2, 1, 2))
    u, v = (1.0, 0.0), (0.5, 4.0)
    two_part = eval_field(cfg, point, [u, v])
    det = u[0] * v[1] - v[0] * u[1]
    np.testing.assert_allclose(two_part.components[0], 2.0 * det * matrix_unit(2, 2, 1))
    swapped = eval_field(cfg, point, [v, u])
    np.testing.assert_allclose(swapped.components[0], -two_part.components[0])


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
                diff = got[i][j] - GradedCoefficient({1: want[i, j]}, 1)
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
