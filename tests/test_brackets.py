"""Tests for intersection-localized Wilson brackets and loop-space identities."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from stringtop.brackets import (
    _kappa_path,
    fundamental_identity_check,
    fundamental_identity_paths,
    loop_form_pairing_sign,
    main_theorem_sides,
    wilson_field_bracket,
    wilson_intersection_weight,
)
from stringtop.chords import ChordDiagram, DiagramRealization, evaluate_diagram
from stringtop.fields import ConstantCommutingConnection, FieldConfig, FourierField
from stringtop.geometry import PLLoop, Torus, VariationField
from stringtop.harness import _ZIG_S, _chord_loops, _rand_conn
from stringtop.lierep import LieBasis
from stringtop.strings import StringCycle

from oracles import fundamental_identity_residuals, halving_orders, matrix_unit
from test_mutants import casimir_without_dual

F = Fraction
TORUS = Torus(2)

A1 = np.diag([0.4, -0.3]).astype(complex)
A2 = np.diag([-0.2, 0.5]).astype(complex)


def line(cls, base=(0, 0)):
    return PLLoop(TORUS, [base], closure=cls)


def diag_connection():
    return ConstantCommutingConnection([A1, A2])


def odd_config():
    """Three odd terms: body 1-form, theta-pair 1-forms on both axes."""
    return FieldConfig.build(
        TORUS,
        2,
        2,
        [
            {
                "indices": (1,),
                "eps": (1, 2),
                "field": FourierField.from_dict(2, {(0, 1): 0.3, (1, 0): -0.15}),
                "lie": matrix_unit(2, 1, 2),
            },
            {
                "indices": (2,),
                "field": FourierField.from_dict(2, {(1, 0): 0.4, (0, 1): 0.2j}),
                "lie": matrix_unit(2, 2, 1),
            },
            {
                "indices": (2,),
                "eps": (1, 2),
                "field": FourierField.from_dict(2, {(1, 1): 0.25}),
                "lie": matrix_unit(2, 1, 1),
            },
        ],
        expect_parity=1,
    )


def wiggly_loop():
    return PLLoop(
        TORUS,
        [(0, 0), (F(2, 5), F(1, 10)), (F(1, 2), F(3, 5)), (F(1, 10), F(4, 5))],
        closure=(1, 1),
    )


def generic_variation(loop):
    return VariationField.from_displacements(
        loop,
        [(F(1, 4), F(-1, 8)), (F(1, 16), F(3, 16)), (F(-1, 8), F(1, 8)), (F(0), F(1, 4))],
    )


# -- sign conventions ------------------------------------------------------------


def test_named_signs_are_pinned():
    assert wilson_intersection_weight(1) == 1
    assert wilson_intersection_weight(-1) == -1
    assert loop_form_pairing_sign() == -1


# -- observable bracket -----------------------------------------------------------


def test_bracket_of_generating_classes_is_the_fused_trace():
    conn = diag_connection()
    val = wilson_field_bracket(line((1, 0)), line((0, 1), base=(F(1, 3), F(1, 5))), conn)
    expected = complex(np.trace(expm(A1) @ expm(A2)))
    assert abs(val - expected) <= 1e-12


def test_abelian_bracket_counts_intersections():
    conn = ConstantCommutingConnection(
        [np.array([[0.3]], dtype=complex), np.array([[-0.2]], dtype=complex)]
    )
    val = wilson_field_bracket(line((1, 0)), line((0, 1), base=(F(1, 3), F(1, 5))), conn)
    assert abs(val - np.exp(0.3) * np.exp(-0.2)) <= 1e-12


def test_bracket_of_disjoint_loops_vanishes():
    conn = diag_connection()
    assert wilson_field_bracket(line((1, 0)), line((2, 0), base=(0, F(1, 2))), conn) == 0


def test_bracket_accepts_every_connection_the_constructor_accepts():
    # flatness is tested once, at construction, relative to the matrix scale
    with pytest.raises(ValueError, match="do not commute"):
        ConstantCommutingConnection([np.diag([1.0, 0.0]), np.array([[0.0, 1e-3], [0.0, 0.0]])])
    # [A1, A2] has one entry 5e-12: above 1e-12, below 1e-12 * max |A| = 1e-11
    a1 = np.diag([10.0, 0.0])
    a2 = np.array([[0.0, 5e-13], [0.0, 0.0]])
    conn = ConstantCommutingConnection([a1, a2])
    assert 1e-12 < conn.flatness_residual() <= 1e-11
    val = wilson_field_bracket(line((1, 0)), line((0, 1), base=(F(1, 3), F(1, 5))), conn)
    assert abs(val - np.trace(expm(a1) @ expm(a2))) <= 1e-12 * abs(val)


def large_transport_connection():
    """n = 3 commuting diagonals of scale 10, gauged by expm(0.8 (X + iY)): the
    holonomies of two unit lines based at their crossing reach norms near
    2e7 and 3e11."""
    rng = np.random.default_rng(1)
    for _ in range(6):
        ds = [np.diag(10 * rng.normal(size=3)) for _ in range(2)]
        x, y = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    return ConstantCommutingConnection(ds).gauge(expm(0.8 * (x + 1j * y)))


def bracket_of_unit_lines(conn):
    return wilson_field_bracket(line((1, 0), base=(0, F(1, 7))), line((0, 1), base=(F(1, 5), 0)), conn)


def test_contraction_paths_are_compared_at_the_scale_of_the_transports():
    # the routes differ by 5e-8 of the trace, 1.6e-17 of the norm product
    conn = large_transport_connection()
    val = bracket_of_unit_lines(conn)
    expected = complex(np.trace(expm(conn.mats[0]) @ expm(conn.mats[1])))
    assert abs(val - expected) <= 1e-6 * abs(expected)


def test_a_wrong_pairing_still_fails_the_path_comparison(monkeypatch):
    # kappa replaced by delta_ab reads 7e-2 of the norm product on this draw
    conn = large_transport_connection()
    monkeypatch.setattr(LieBasis, "kappa", lambda self, a, b: int(a == b))
    with pytest.raises(RuntimeError, match="contraction paths disagree"):
        bracket_of_unit_lines(conn)


def test_the_basis_oracle_enumerates_kappa_not_the_dual(monkeypatch):
    rng = np.random.default_rng(5)
    h, hb = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
    basis = LieBasis(3)
    value = _kappa_path(basis, h, hb)
    assert abs(value - np.trace(h @ hb)) <= 1e-12 * np.linalg.norm(h) * np.linalg.norm(hb)
    # the casimir-without-dual mutant does not reach the oracle ...
    casimir_without_dual(monkeypatch)
    assert _kappa_path(basis, h, hb) == value
    # ... and a wrong kappa does
    monkeypatch.setattr(LieBasis, "kappa", lambda self, a, b: int(a == b))
    assert abs(_kappa_path(basis, h, hb) - value) > 1e-3 * abs(value)


# -- main comparison -----------------------------------------------------------------


@pytest.mark.parametrize(
    "cls1,cls2",
    [((2, 1), (1, 2)), ((1, 0), (2, 0)), ((-1, 2), (3, 1)), ((2, 1), (1, 1))],
)
def test_sides_match_the_commuting_closed_form(cls1, cls2):
    conn = diag_connection()
    a = StringCycle.from_loop(line(cls1))
    b = StringCycle.from_loop(line(cls2, base=(F(1, 3), F(1, 5))))
    lhs, rhs = main_theorem_sides(a, b, conn)
    m, n = cls1
    p, q = cls2
    closed = (m * q - n * p) * complex(np.trace(expm((m + p) * A1 + (n + q) * A2)))
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) / scale <= 1e-12
    assert abs(lhs - closed) / scale <= 1e-12


def test_parallel_classes_cancel_on_both_sides():
    conn = diag_connection()
    a = StringCycle.from_loop(line((1, 0)))
    b = StringCycle.from_loop(line((2, 0), base=(0, F(1, 2))))
    lhs, rhs = main_theorem_sides(a, b, conn)
    assert lhs == 0 and rhs == 0


def test_three_dimensional_fibers_agree():
    conn = ConstantCommutingConnection(
        [np.diag([0.3, -0.1, 0.2]).astype(complex), np.diag([0.1, 0.4, -0.3]).astype(complex)]
    )
    a = StringCycle.from_loop(line((1, 1)))
    b = StringCycle.from_loop(line((1, -1), base=(F(1, 3), F(1, 5))))
    lhs, rhs = main_theorem_sides(a, b, conn)
    assert abs(lhs - rhs) <= 1e-9


def test_zero_cycle_gives_zero_residual():
    conn = diag_connection()
    zero = StringCycle()
    lhs, rhs = main_theorem_sides(zero, StringCycle.from_loop(line((1, 0))), conn)
    assert abs(lhs - rhs) == 0


class TransportOnly:
    """A connection seen only through its fiber size and its transport."""

    __slots__ = ("n", "_conn")

    def __init__(self, conn):
        self.n = conn.n
        self._conn = conn

    def transport(self, loop, s, t):
        return self._conn.transport(loop, s, t)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_brackets_and_diagrams_read_only_the_connections_transport(n):
    conn, twin = (_rand_conn(np.random.default_rng(n), n) for _ in range(2))
    seam = TransportOnly(twin)
    loops = _chord_loops()
    zig, vert = StringCycle.from_loop(loops["zig"]), StringCycle.from_loop(loops["vert"])
    one = ChordDiagram([(f"std:{n}", ("a", "b"))], [("a", "b")])
    chord = DiagramRealization(one, [loops["zig"]], dict(zip("ab", _ZIG_S)))
    for value in (
        lambda c: wilson_field_bracket(loops["zig"], loops["vert"], c),
        lambda c: main_theorem_sides(zig, vert, c),
        lambda c: evaluate_diagram(chord, c),
    ):
        want, got = value(conn), value(seam)
        assert np.array_equal(got, want) and np.all(np.asarray(want) != 0)


# -- fundamental identity ---------------------------------------------------------


def test_identity_residual_and_convergence_order():
    conn = diag_connection()
    cfg = odd_config()
    loop = wiggly_loop()
    v = generic_variation(loop)
    assert fundamental_identity_check(conn, cfg, loop, v) <= 5e-7
    sched = [F(1, 100), F(1, 200), F(1, 400)]
    residuals = fundamental_identity_residuals(conn, cfg, loop, v, eps_schedule=sched)
    orders = halving_orders(residuals)
    assert len(orders) == 2 and all(o >= 1.9 for o in orders)
    refined = fundamental_identity_residuals(
        conn, cfg, loop, v, eps_schedule=sched, refine=True
    )
    assert max(refined) <= 5e-8


def test_identity_is_trivial_without_insertion_fields():
    conn = diag_connection()
    empty = FieldConfig(TORUS, 2, 2, ())
    loop = wiggly_loop()
    p1, p2 = fundamental_identity_paths(conn, empty, loop, generic_variation(loop))
    # both Wilson loops are the plain holonomy up to the rounding of their
    # steps (1e-13), which the central difference divides by 2 eps = 2e-3
    assert p1.norm() <= 1e-10 and p2.norm() == 0


def test_variation_must_be_attached_to_the_loop():
    conn = diag_connection()
    loop = wiggly_loop()
    other = line((1, 1))
    v = VariationField.from_displacements(other, [(F(1, 8), F(0))] * other.num_segments)
    with pytest.raises(ValueError, match="not attached"):
        fundamental_identity_paths(conn, odd_config(), loop, v)


def test_halving_orders_guard_the_noise_floor():
    assert halving_orders([4e-4, 1e-4]) == [2.0]
    assert halving_orders([1e-10, 1e-11]) == []
