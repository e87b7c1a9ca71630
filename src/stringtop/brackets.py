"""Wilson-loop brackets over intersections and the two verification targets.

The bracket of two Wilson observables localizes on transversal crossings;
each crossing pairs the holonomies of the two loops based there. Two
independent contraction routes (explicit basis sum against the inverse
trace form, and a single fused trace) are evaluated and compared on every
call. On top of this sit the loop-space identities: the deformation
derivative of a generalized Wilson loop against the obstruction-insertion
integral, and the comparison of the observable bracket with the geometric
one.
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
    wilson,  # noqa: F401  (unused here; perfbench's tracer test reads ``brackets.wilson``)
    wilsons,
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
# to the product of the norms of the two based holonomies
PATH_TOL = 1e-10


def _kappa_path(basis: LieBasis, h, hb) -> complex:
    """Explicit basis contraction tr[T_a h] kappa^{ab} tr[T_b hb].

    This is an oracle for the fused trace tr(h hb): it stacks every matrix
    unit and tabulates kappa on every basis pair instead of using the swap
    identity, so the two routes share nothing beyond the matrix units.
    The stack and the table are built on every call. kappa is its own
    inverse, so it stands in for kappa^{ab}.
    """
    dim = basis.dim
    units = np.array([basis.matrix(a) for a in range(dim)]).reshape(dim, dim)
    kappa = np.array([[basis.kappa(a, b) for b in range(dim)] for a in range(dim)], dtype=float)
    # tr(T_a h) = sum_ij (T_a)_ij h_ji
    return complex(units @ h.T.ravel() @ kappa @ (units @ hb.T.ravel()))


def wilson_field_bracket(loop: PLLoop, loopbar: PLLoop, conn) -> complex:
    """Bracket of two holonomy traces, localized on transversal crossings.

    Each crossing p pairs the holonomies of the two loops based at p,
    h = U(s, s + 1) on the loop and hb = U(s_bar, s_bar + 1) on loopbar,
    as tr(h hb) (Goldman, Invent. Math. 85, 1986). The basis-summed and
    fused-trace contractions are both computed and must agree to PATH_TOL
    relative to the product of the Frobenius norms of h and hb. The
    holonomies are the connection's own ``transport``, so no
    discretization plan is involved.
    """
    pts = intersections(loop, loopbar)
    basis = LieBasis(conn.n)
    total = 0j
    for p in pts:
        h = transport(conn, loop, p.s, p.s + 1)
        hb = transport(conn, loopbar, p.s_bar, p.s_bar + 1)
        fused = complex(np.trace(h @ hb))
        contracted = _kappa_path(basis, h, hb)
        # both routes round in proportion to the product of the two norms
        # (|tr[h hb]| is at most that product), not to the trace
        scale = np.linalg.norm(h) * np.linalg.norm(hb)
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
    """Central difference along v with step eps: the Wilson loops at +eps v
    and -eps v share the connection and the configuration, so they are
    stepped in one walk (``wilsons``)."""
    up, down = wilsons(conn, config, [v.deform(eps), v.deform(-eps)], plan)
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

    Path 1 is a central difference along v with exact rational step eps;
    its two Wilson loops, at +eps v and -eps v, are stepped in one walk.
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

