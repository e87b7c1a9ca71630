"""Wilson-loop brackets over intersections and the two verification targets.

The bracket of two Wilson observables localizes on transversal crossings;
each crossing contributes a pairing of split holonomies. Two independent
contraction routes (explicit basis sum against the inverse trace form, and
a single fused trace) are evaluated and compared on every call. On top of
this sit the loop-space identities: the deformation derivative of a
generalized Wilson loop against the obstruction-insertion integral, and
the comparison of the observable bracket with the geometric one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .fields import FieldConfig, field_obstruction
from .geometry import PLLoop, VariationField
from .grassmann import GradedCoefficient
from .holonomy import (
    DEFAULT_PLAN,
    TransportPlan,
    extract_leg_coefficient,
    insertion_derivative,
    transport,
    wilson,
)
from .lierep import LieBasis
from .strings import StringCycle, degree_zero_prefactor, intersections, string_bracket

__all__ = [
    "fundamental_identity_check",
    "fundamental_identity_paths",
    "fundamental_identity_residuals",
    "halving_orders",
    "loop_form_pairing_sign",
    "main_theorem_check",
    "main_theorem_sides",
    "wilson_field_bracket",
    "wilson_intersection_weight",
]


# -- named sign conventions ---------------------------------------------------
# Each hand sign in the bracket formulas is a function with a pinned value
# on the surface case, so a convention change is a one-line, one-test edit.


def wilson_intersection_weight(sign: int) -> int:
    """Weight of one crossing in the observable bracket on a surface: +sign.

    Fixed once against the commuting-holonomy closed form on the torus.
    """
    return sign


def loop_form_pairing_sign() -> int:
    """Relative sign between the deformation derivative of a Wilson loop
    and the insertion integral of the obstruction 2-form on a surface: -1.

    Fixed by the rank-one analytic case and frozen; the residual of
    fundamental_identity_check reads |Path1 - sign * Path2|.
    """
    return -1


# -- observable bracket -------------------------------------------------------

# relative agreement the two contraction routes must reach at every crossing
PATH_TOL = 1e-10


def _kappa_path(basis: LieBasis, x, y, xb, yb) -> complex:
    """Explicit basis sum tr[x T_a y] kappa^{ab} tr[xb T_b yb].

    This is an oracle for the fused trace: it enumerates every basis pair
    instead of using the swap identity, so the two routes share nothing
    beyond the matrix units. kappa is its own inverse, so it stands in for
    kappa^{ab}.
    """
    dim = basis.n * basis.n
    total = 0j
    for a in range(dim):
        tra = complex(np.trace(x @ basis.matrix(a) @ y))
        if tra == 0:
            continue
        for b in range(dim):
            k = basis.kappa(a, b)
            if k:
                total += tra * k * complex(np.trace(xb @ basis.matrix(b) @ yb))
    return total


def wilson_field_bracket(loop: PLLoop, loopbar: PLLoop, conn) -> complex:
    """Bracket of two holonomy traces, localized on transversal crossings.

    Each crossing splits both holonomies at the crossing parameter and
    pairs the halves; the basis-summed and fused-trace contractions are
    both computed and must agree to PATH_TOL (relative). Plain transports
    are single exponentials, so no discretization plan is involved; their
    closed form needs the connection flat, which its constructor checks.
    """
    pts = intersections(loop, loopbar)
    basis = LieBasis(conn.n)
    total = 0j
    for p in pts:
        x = transport(conn, loop, Fraction(0), p.s)
        y = transport(conn, loop, p.s, Fraction(1))
        xb = transport(conn, loopbar, Fraction(0), p.s_bar)
        yb = transport(conn, loopbar, p.s_bar, Fraction(1))
        fused = complex(np.trace(x @ yb @ xb @ y))
        contracted = _kappa_path(basis, x, y, xb, yb)
        scale = max(1.0, abs(fused), abs(contracted))
        if abs(fused - contracted) > PATH_TOL * scale:
            raise RuntimeError(
                f"contraction paths disagree at s={p.s}: {contracted} vs {fused}"
            )
        total += wilson_intersection_weight(p.sign) * fused
    return total


# -- main comparison ----------------------------------------------------------


def main_theorem_sides(a: StringCycle, abar: StringCycle, conn) -> tuple[complex, complex]:
    """(observable-bracket side, geometric-bracket side) for degree-0 cycles."""
    if a.space != abar.space:
        raise ValueError("cycles live on different spaces")
    sign = degree_zero_prefactor(0, 0, a.space.d)
    lhs = 0j
    for m, gamma in a.terms:
        for mbar, gammabar in abar.terms:
            lhs += m * mbar * sign * wilson_field_bracket(gamma, gammabar, conn)
    rhs = 0j
    for coeff, gamma in string_bracket(a, abar).terms:
        rhs += coeff * complex(np.trace(transport(conn, gamma)))
    return lhs, rhs


def main_theorem_check(a: StringCycle, abar: StringCycle, conn) -> float:
    """|LHS - RHS| of the bracket comparison; callers scale for tolerance."""
    lhs, rhs = main_theorem_sides(a, abar, conn)
    return abs(lhs - rhs)


# -- fundamental identity -----------------------------------------------------


def _check_attached(loop: PLLoop, v: VariationField) -> None:
    base = v.loop
    if (
        base.space != loop.space
        or base.vertices != loop.vertices
        or base.closure != loop.closure
    ):
        raise ValueError("variation field is not attached to the loop")


def _deformation_derivative(
    conn, config: FieldConfig, v: VariationField, plan: TransportPlan, eps: Fraction, refine: bool
) -> GradedCoefficient:
    """Central difference along v with step eps; with refine, one
    elimination step on eps and eps/2."""
    if v.is_tangent:
        # tangent fields reparametrize the loop, the derivative vanishes
        return GradedCoefficient.zero(config.n_theta)

    def central(step: Fraction) -> GradedCoefficient:
        up = wilson(conn, config, v.deform(step), plan)
        down = wilson(conn, config, v.deform(-step), plan)
        return (up - down).scale(1.0 / (2.0 * float(step)))

    d1 = central(eps)
    if refine:
        d1 = (central(eps / 2).scale(4.0) - d1).scale(1.0 / 3.0)
    return d1


def _obstruction_path(
    conn, config: FieldConfig, loop: PLLoop, v: VariationField, plan: TransportPlan
) -> GradedCoefficient:
    raw = insertion_derivative(
        conn, config, loop, field_obstruction(config, conn), plan, variations=[v]
    )
    sign = loop_form_pairing_sign()
    return extract_leg_coefficient(raw, config.n_theta, 1).scale(sign)


def fundamental_identity_paths(
    conn,
    config: FieldConfig,
    loop: PLLoop,
    v: VariationField,
    plan: TransportPlan = DEFAULT_PLAN,
    eps: Fraction = Fraction(1, 1000),
    refine: bool = False,
) -> tuple[GradedCoefficient, GradedCoefficient]:
    """(Path 1, Path 2): deformation derivative vs obstruction insertion.

    Path 1 is a central difference along v with exact rational step eps
    (one elimination step on eps, eps/2 when refine is set). Path 2 is the
    insertion integral of the obstruction 2-form contracted with v,
    already carrying the pairing sign, so the contract is Path1 == Path2.
    """
    _check_attached(loop, v)
    d1 = _deformation_derivative(conn, config, v, plan, eps, refine)
    return d1, _obstruction_path(conn, config, loop, v, plan)


def fundamental_identity_check(
    conn,
    config: FieldConfig,
    loop: PLLoop,
    v: VariationField,
    plan: TransportPlan = DEFAULT_PLAN,
    eps: Fraction = Fraction(1, 1000),
    refine: bool = False,
) -> float:
    """Residual |Path1 - Path2| of the deformation/insertion comparison."""
    p1, p2 = fundamental_identity_paths(conn, config, loop, v, plan, eps, refine)
    return p1.distance(p2)


def fundamental_identity_residuals(
    conn,
    config: FieldConfig,
    loop: PLLoop,
    v: VariationField,
    plan: TransportPlan = DEFAULT_PLAN,
    eps_schedule: Sequence[Fraction] = (
        Fraction(1, 100),
        Fraction(1, 200),
        Fraction(1, 400),
    ),
    refine: bool = False,
) -> list[float]:
    """Residuals across an eps schedule, with Path 2 computed once."""
    _check_attached(loop, v)
    p2 = _obstruction_path(conn, config, loop, v, plan)
    return [
        _deformation_derivative(conn, config, v, plan, Fraction(eps), refine).distance(p2)
        for eps in eps_schedule
    ]


def halving_orders(residuals: Sequence[float], floor: float = 5e-9) -> list[float]:
    """log2 ratios of successive residuals, skipping noise-floor entries.

    Entries below the floor are already quadrature-limited; a ratio against
    them would understate the finite-difference order.
    """
    out = []
    for a, b in zip(residuals, residuals[1:]):
        if a <= floor or b <= floor:
            continue
        out.append(math.log2(a / b))
    return out
