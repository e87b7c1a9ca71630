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

from fractions import Fraction

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
    "loop_form_pairing_sign",
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

# agreement the two contraction routes must reach at every crossing, relative
# to the product of the norms of the four split transports
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
    both computed and must agree to PATH_TOL relative to the product of
    the Frobenius norms of the four halves. Plain transports
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
        # both routes round in proportion to the product of the four norms
        # (|tr[x yb xb y]| is at most that product), not to the trace
        scale = np.prod([np.linalg.norm(m) for m in (x, y, xb, yb)])
        if abs(fused - contracted) > PATH_TOL * scale:
            raise RuntimeError(
                f"contraction paths disagree at s={p.s}: {contracted} vs {fused}"
            )
        total += wilson_intersection_weight(p.sign) * fused
    return total


# -- main comparison ----------------------------------------------------------


def main_theorem_sides(a: StringCycle, abar: StringCycle, conn) -> tuple[complex, complex]:
    """(observable-bracket side, geometric-bracket side) for degree-0 cycles."""
    sign = degree_zero_prefactor(0, 0)
    lhs = 0j
    for m, gamma in a.terms:
        for mbar, gammabar in abar.terms:
            lhs += m * mbar * sign * wilson_field_bracket(gamma, gammabar, conn)
    rhs = 0j
    for coeff, gamma in string_bracket(a, abar).terms:
        rhs += coeff * complex(np.trace(transport(conn, gamma)))
    return lhs, rhs


# -- fundamental identity -----------------------------------------------------


def _check_attached(loop: PLLoop, v: VariationField) -> None:
    if v.loop.integer_lift() != loop.integer_lift():
        raise ValueError("variation field is not attached to the loop")


def _deformation_derivative(
    conn, config: FieldConfig, v: VariationField, plan: TransportPlan, eps: Fraction
) -> GradedCoefficient:
    """Central difference along v with step eps."""
    up = wilson(conn, config, v.deform(eps), plan)
    down = wilson(conn, config, v.deform(-eps), plan)
    return (up - down).scale(1.0 / (2.0 * float(eps)))


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
) -> tuple[GradedCoefficient, GradedCoefficient]:
    """(Path 1, Path 2): deformation derivative vs obstruction insertion.

    Path 1 is a central difference along v with exact rational step eps.
    Path 2 is the insertion integral of the obstruction 2-form contracted
    with v, already carrying the pairing sign, so the contract is
    Path1 == Path2.
    """
    _check_attached(loop, v)
    d1 = _deformation_derivative(conn, config, v, plan, eps)
    return d1, _obstruction_path(conn, config, loop, v, plan)


def fundamental_identity_check(
    conn,
    config: FieldConfig,
    loop: PLLoop,
    v: VariationField,
    plan: TransportPlan = DEFAULT_PLAN,
) -> float:
    """Residual |Path1 - Path2| of the deformation/insertion comparison."""
    p1, p2 = fundamental_identity_paths(conn, config, loop, v, plan)
    return p1.distance(p2)

