"""Parallel transport and generalized (insertion-decorated) transport.

Transports are path-ordered products along a PL loop, earliest factor
leftmost:  U(s, u) U(u, t) = U(s, t).

Plain transport of a constant commuting connection is one exponential.
On a straight segment the transport is exp(A(delta x)); the direction
matrices commute (``ConstantCommutingConnection`` validates it), so the
ordered product of those factors telescopes to exp(A(x(t) - x(s))), with
both points read off the loop's integer lift. It is exact up to machine
rounding, and no step subdivision is involved.

Generalized transport inserts a matrix-valued Grassmann field C along the
path, resummed into an effective connection: the one-step factor on a
sub-interval of width h is the symmetric (Strang) sandwich

    exp(A v h/2) . exp(M(t_mid) h) . exp(A v h/2),

where v is the segment velocity and M(t) is the pairing of C's degree-k
terms with one velocity factor and k-1 "leg" generators: substituting
dx^mu -> gammadot^mu dt + W^mu into the ascending form monomial and
keeping the part linear in dt,

    M(t) = sum_terms f(gamma(t)) sum_a (-1)^{a-1} gammadot^{mu_a}
           W^{mu_1} .. (hat a) .. W^{mu_k} theta_S E,

with W^mu = sum_i w_i v_i^mu(t) built from the supplied variation fields
on extra Grassmann generators w_i placed after the thetas. Form degree
zero terms carry no dt factor and never enter the transport.

The stepping runs on component stacks over the support of the fields. A
Grassmann n x n matrix over the N = n_theta + len(variations) generators
has 2^N components, but a term of form degree k only reaches the masks
theta_S | L, L any k - 1 leg generators, and every factor of the
transport lives on the closure S of those masks under disjoint union
(``_support``, fixed by the terms, often half the algebra). So each
matrix is its (|S|, n, n) stack on S, and a product is one matmul of the
left-regular representation of the left factor on S with the stacked
components of the right one (``lierep.product``). The midpoint grid is
walked in blocks of at most ``BLOCK`` midpoints, which may span pieces;
each piece's step width, velocity, leg end values and half step
E = exp(A v h/2) are computed once. A block's insertion matrices are one
stack of component stacks: each term's Grassmann coefficient is
W^{mu_1} .. W^{mu_k} theta_S, with each leg W^mu the regular matrix of a
1 x 1 Grassmann matrix, times f at the block's points. Their exponentials
are one Taylor series on the block's regular matrices, built once; the
half steps E act on every component, E G_S E; and the block's step
factors are multiplied pairwise into one component stack. The largest
arrays are a block's regular matrices, BLOCK (|S| n)^2 entries, so the
working memory does not grow with the steps the plan takes. The running
product of the blocks stays on S, and the transport becomes a
``SuperMatrix`` over all 2^N masks only when it is returned.

The symmetric step makes the error expansion even in h, so one Richardson
level in h^2 is applied by default; with a tolerance set, steps double
until two successive extrapolated values agree, up to a hard cap per
segment on the finest grid evaluated (then ``QuadratureError``). A
level's fine grid is the next level's coarse grid, and each grid is
evaluated once. Midpoint nodes lie strictly inside segments, so the corner
discontinuities of PL velocities are never sampled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from stringtop.fields import FieldConfig, FlatConnection
from stringtop.geometry import PLLoop, VariationField
from stringtop.grassmann import GradedCoefficient, merge_sign
from stringtop.lierep import SuperMatrix, product, regular


class QuadratureError(RuntimeError):
    """Step doubling hit the cap before reaching the requested tolerance."""


@dataclass(frozen=True)
class TransportPlan:
    """Discretization plan for generalized transports.

    steps: sub-intervals per covered segment piece (before extrapolation).
    richardson: extrapolation levels; 1 combines S and 2S values as
        (4 T_{2S} - T_S) / 3, valid because the scheme's error is even in h.
    tol: if set, a positive distance: double steps until successive
        extrapolated values agree to it.
    max_steps: per-segment cap on the finest grid evaluated, which is
        2 * steps with one Richardson level.
    """

    steps: int = 64
    richardson: int = 1
    tol: float | None = None
    max_steps: int = 16384

    def __post_init__(self):
        if self.richardson not in (0, 1):
            raise ValueError("richardson must be 0 or 1")
        if self.steps < 1 or self.max_steps < self.steps << self.richardson:
            raise ValueError("bad step counts")
        if self.tol is not None and not self.tol > 0:
            raise ValueError("tol must be positive")


DEFAULT_PLAN = TransportPlan()


# ---------------------------------------------------------------------------
# path pieces


def _pieces(loop: PLLoop, s: Fraction, t: Fraction):
    """Split [s, t] into per-segment pieces with exact endpoints."""
    k = loop.num_segments
    s = Fraction(s)
    t = Fraction(t)
    if not 0 <= s <= t <= 1:
        raise ValueError("need 0 <= s <= t <= 1")
    pieces = []
    i = int(s * k)
    if i == k:
        i = k - 1
    while Fraction(i, k) < t:
        lo = max(s, Fraction(i, k))
        hi = min(t, Fraction(i + 1, k))
        if lo < hi:
            pieces.append((i, lo, hi))
        i += 1
    return pieces


def _piece_floats(loop: PLLoop, piece):
    """Float geometry of one piece: start point, velocity, span.

    Read off the integer lift: every coordinate is one correctly rounded
    quotient of integers, so it is the float of the exact ``point_at`` and
    ``segment_velocity`` values without forming a ``Fraction``.
    """
    i, lo, hi = piece
    den_lo, start = loop.lift_point(lo)
    den, pts = loop.integer_lift()
    k_seg = len(pts) - 1
    vel = [k_seg * (b - a) / den for a, b in zip(pts[i], pts[i + 1])]
    return np.array([c / den_lo for c in start]), np.array(vel), float(hi - lo)


# ---------------------------------------------------------------------------
# plain transport (exact)


def _displacement(loop: PLLoop, s: Fraction, t: Fraction, wrap: bool = False) -> list[float]:
    """x(t) - x(s), or closure + x(t) - x(s) with wrap, as floats.

    x(s) and x(t) are integer points over their denominators
    (``PLLoop.lift_point``), so each coordinate is one correctly rounded
    quotient of integers.
    """
    den_s, x_s = loop.lift_point(s)
    den_t, x_t = loop.lift_point(t)
    if wrap:
        x_t = [b + c * den_t for b, c in zip(x_t, loop.closure)]
    return [(b * den_s - a * den_t) / (den_s * den_t) for a, b in zip(x_s, x_t)]


def transport(conn: FlatConnection, loop: PLLoop, s=Fraction(0), t=Fraction(1)) -> np.ndarray:
    """U(s, t) = exp(A(x(t) - x(s))): one exponential, exact up to rounding.

    The closed form of the ordered product of per-segment factors
    exp(A(delta x)) holds because the direction matrices of A commute,
    which the connection's constructor validates. s == t gives the
    identity exactly.
    """
    s = Fraction(s)
    t = Fraction(t)
    if not 0 <= s <= t <= 1:
        raise ValueError("need 0 <= s <= t <= 1")
    if conn.is_zero or s == t:
        return np.eye(conn.n, dtype=complex)
    return expm(conn.matrix_of(_displacement(loop, s, t)))


def wrap_transport(conn: FlatConnection, loop: PLLoop, s: Fraction, t: Fraction) -> np.ndarray:
    """U(s, 1) U(0, t) for t <= s: from s over the marked point to t.

    The same closed form as ``transport``, one exponential of the wrapped
    displacement closure + x(t) - x(s).
    """
    s = Fraction(s)
    t = Fraction(t)
    if not 0 <= t <= s <= 1:
        raise ValueError("need 0 <= t <= s <= 1")
    if conn.is_zero:
        return np.eye(conn.n, dtype=complex)
    return expm(conn.matrix_of(_displacement(loop, s, t, wrap=True)))


# ---------------------------------------------------------------------------
# insertion matrices

BLOCK = 128  # midpoints per block: bounds the (block, D, D) working arrays


def insertion_matrix(
    config: FieldConfig,
    pos: np.ndarray,
    vel: np.ndarray,
    leg_values: np.ndarray,
    n_legs: int,
    support: tuple[int, ...],
) -> np.ndarray:
    """M(t) at a block of midpoints: C's form slots fed one velocity and k-1 legs.

    pos and vel are the (b, d) arrays of midpoints and path velocities there,
    leg_values the (n_legs, b, d) variation values. Returns the
    (b, |S|, n, n) stack of component stacks on the support S, which must
    hold every mask M reaches (``_support``), N = n_theta + n_legs
    generators.
    """
    n_theta = config.n_theta
    n_gen = n_theta + n_legs
    b = len(pos)
    # w_ops[mu, j] is W^mu = sum_i w_i v_i^mu at midpoint j, acting by left
    # multiplication: the regular matrix of a 1 x 1 Grassmann matrix
    legs = np.zeros((leg_values.shape[-1], b, 1 << n_gen, 1, 1))
    for idx in range(n_legs):
        legs[:, :, 1 << (n_theta + idx), 0, 0] = leg_values[idx].T
    w_ops = regular(legs, tuple(range(1 << n_gen)))
    by_mask: dict[int, list] = {}
    for mask, field, mat in config.terms:
        by_mask.setdefault(mask, []).append((field, mat))
    comps = np.zeros((b, len(support), config.n, config.n), dtype=complex)
    for mask, terms in by_mask.items():
        bits = config.form_degree_bits(mask)
        if not bits:
            continue
        coeff = np.zeros((b, 1 << n_gen), dtype=complex)
        for a, mu in enumerate(bits):
            if not vel[:, mu].any():
                continue
            part = np.zeros((b, 1 << n_gen))
            part[:, config.theta_mask(mask)] = 1.0
            for other in reversed(bits[:a] + bits[a + 1 :]):
                part = np.einsum("jst,jt->js", w_ops[other], part)
            coeff += (-vel[:, mu, None] if a % 2 else vel[:, mu, None]) * part
        values = sum(field.evaluate(pos)[:, None, None] * mat for field, mat in terms)
        comps += coeff[:, list(support), None, None] * values[:, None]
    return comps


def _support(configs: Sequence[FieldConfig], n_legs: int) -> tuple[int, ...]:
    """The sorted masks that the step factors of the configs can reach.

    A form term of degree k >= 1 enters M with the masks theta_S | L, for
    every set L of k - 1 leg generators. Products of Grassmann monomials
    are nonzero only on disjoint masks, so every exponential, half step
    and product of the transport lives on the closure of those masks
    under disjoint union, with 0 for the body. The closure is exact for
    the terms and fixed per transport; data that happen to vanish only
    leave zeros on it.
    """
    reach = set()
    for config in configs:
        legs = [1 << (config.n_theta + idx) for idx in range(n_legs)]
        for mask, _, _ in config.terms:
            k = len(config.form_degree_bits(mask))
            for part in itertools.combinations(legs, k - 1) if k else ():
                reach.add(config.theta_mask(mask) | sum(part))
    closed, fresh = {0}, [0]
    while fresh:
        base = fresh.pop()
        for mask in reach:
            if not base & mask and base | mask not in closed:
                closed.add(base | mask)
                fresh.append(base | mask)
    return tuple(sorted(closed))


def _exp_series(m: np.ndarray, support: tuple[int, ...]) -> np.ndarray:
    """exp of each Grassmann matrix of the (b, |S|, n, n) stack m on the
    support S, summed directly.

    The Grassmann part is nilpotent and the body part arrives pre-scaled
    by a small step width, so the series is short. It is summed on the
    unit column of the block's regular matrices, built once,
    term_k = m term_{k-1} / k. The whole block stops after the first term
    that is, for every matrix, zero or below 1e-17 max(1, |sum|); the
    terms a matrix adds after its own such term are below its rounding.
    Returns the component stacks.
    """
    b, size, n, _ = m.shape
    reg = regular(m, support)
    term = np.zeros((b, size * n, n), dtype=complex)
    term[:, :n] = np.eye(n)
    acc = term.copy()
    for k in range(1, 60):
        term = (reg @ term) * (1.0 / k)
        acc += term
        norm = np.abs(term).max(axis=(1, 2))
        if (norm < 1e-17 * np.maximum(1.0, np.abs(acc).max(axis=(1, 2)))).all():
            break
    else:
        raise QuadratureError("insertion exponential failed to converge")
    return acc.reshape(b, size, n, n)


def _body_left(e: np.ndarray, g: np.ndarray) -> np.ndarray:
    """e g for (b, n, n) body matrices e and (b, 2^N, n, n) component stacks
    g: e multiplies every component, in one batched matmul over the block."""
    b, size, n, _ = g.shape
    rows = e @ g.transpose(0, 2, 1, 3).reshape(b, n, size * n)
    return rows.reshape(b, n, size, n).transpose(0, 2, 1, 3)


def _body_right(g: np.ndarray, e: np.ndarray) -> np.ndarray:
    """g e, likewise: one batched matmul on the unit columns of g."""
    b, size, n, _ = g.shape
    return (g.reshape(b, size * n, n) @ e).reshape(b, size, n, n)


def _times(left: np.ndarray, rights, support: tuple[int, ...]) -> list[np.ndarray]:
    """left times each stack of rights, from one regular matrix of left:
    the right factors stand side by side as the columns of one product."""
    n = left.shape[-1]
    both = product(left, np.concatenate(rights, axis=-1), support)
    return [both[..., k * n : (k + 1) * n] for k in range(len(rights))]


def _chain(factors: np.ndarray, support: tuple[int, ...], kernels: np.ndarray | None = None):
    """Ordered product F = factors[0] .. factors[-1] of a stack of component
    stacks on the support, multiplied pairwise.

    With kernels, also returns K = sum_j F_0 .. F_{j-1} K_j F_{j+1} .. F_last,
    from the pair rule (F1, K1)(F2, K2) = (F1 F2, F1 K2 + K1 F2); F1 K2 and
    F1 F2 share the one regular matrix of F1.
    """
    while len(factors) > 1:
        even = len(factors) // 2 * 2
        left, right = factors[0:even:2], factors[1:even:2]
        if kernels is None:
            paired = product(left, right, support)
        else:
            paired, k_left = _times(left, (right, kernels[1:even:2]), support)
            k_paired = k_left + product(kernels[0:even:2], right, support)
            kernels = np.concatenate([k_paired, kernels[even:]])
        factors = np.concatenate([paired, factors[even:]])
    return factors[0] if kernels is None else (factors[0], kernels[0])


# ---------------------------------------------------------------------------
# generalized transport


def _needs_stepping(config: FieldConfig | None) -> bool:
    return config is not None and any(
        len(config.form_degree_bits(m)) >= 1 for m, _, _ in config.terms
    )


def _midpoint_grid(
    conn: FlatConnection,
    loop: PLLoop,
    s: Fraction,
    t: Fraction,
    steps: int,
    variations: Sequence[VariationField],
    configs: Sequence[FieldConfig],
    support: tuple[int, ...],
):
    """Walk the midpoint grid of [s, t] once, sampling several fields.

    The grid holds ``steps`` midpoints per piece, in path order. Each
    piece's start, velocity, step width h, leg end values and half step
    E = exp(A(v) h/2) are computed once; the grid is then cut into blocks of
    at most BLOCK midpoints, which may span pieces. Yields (h, e_half, mats)
    per block: h is the (b, 1, 1, 1) array of step widths, e_half the
    (b, n, n) array of half steps, and mats[c] the (b, |S|, n, n)
    component stacks of M(t_j) of configs[c] on the support; every caller
    of this walk therefore samples the same nodes and leg values.
    """
    n_legs = len(variations)
    k_seg = loop.num_segments
    starts, vels, widths, u_starts, e_halves, leg_starts, leg_slopes = ([] for _ in range(7))
    for piece in _pieces(loop, s, t):
        i, lo, _ = piece
        start, vel, span = _piece_floats(loop, piece)
        h = span / steps
        starts.append(start)
        vels.append(vel)
        widths.append(h)
        u_starts.append(float(lo) * k_seg - i)  # local coordinate of the piece start
        e_halves.append(expm(conn.matrix_of(vel) * (h / 2)))
        # leg values are affine in the local coordinate u, a + u (b - a); a
        # tangent field is the piece velocity throughout
        ends = np.array(
            [
                [vel, vel] if var.is_tangent else [[float(c) for c in var.displacement(i + e)] for e in (0, 1)]
                for var in variations
            ]
        ).reshape(n_legs, 2, loop.space.d)
        leg_starts.append(ends[:, 0])
        leg_slopes.append(ends[:, 1] - ends[:, 0])
    starts, vels, widths, u_starts, e_halves, leg_starts, leg_slopes = map(
        np.array, (starts, vels, widths, u_starts, e_halves, leg_starts, leg_slopes)
    )
    total = len(widths) * steps
    for first in range(0, total, BLOCK):
        p, j = np.divmod(np.arange(first, min(first + BLOCK, total)), steps)
        mid = j + 0.5
        h = widths[p]
        pos = starts[p] + (mid * h)[:, None] * vels[p]
        u = u_starts[p] + mid * (h * k_seg)
        legs = (leg_starts[p] + u[:, None, None] * leg_slopes[p]).transpose(1, 0, 2)
        mats = [insertion_matrix(c, pos, vels[p], legs, n_legs, support) for c in configs]
        yield h[:, None, None, None], e_halves[p], mats


def _gen_transport_fixed(
    conn: FlatConnection,
    config: FieldConfig,
    loop: PLLoop,
    s: Fraction,
    t: Fraction,
    steps: int,
    variations: Sequence[VariationField],
) -> SuperMatrix:
    n_gen = config.n_theta + len(variations)
    support = _support((config,), len(variations))
    u_mat = SuperMatrix.identity(config.n, n_gen).components[list(support)]
    grid = _midpoint_grid(conn, loop, s, t, steps, variations, (config,), support)
    for h, e_half, (inserts,) in grid:
        factors = _body_right(_body_left(e_half, _exp_series(inserts * h, support)), e_half)
        u_mat = product(u_mat, _chain(factors, support), support)
    return SuperMatrix(config.n, n_gen, dict(zip(support, u_mat)))


def _with_richardson(evaluate, plan: TransportPlan):
    """Run ``evaluate(steps)`` under the plan's extrapolation/tolerance policy.

    Each step count is evaluated once: in tol mode a level's fine grid is
    the next level's coarse grid.
    """
    values = {}

    def at(steps):
        if steps not in values:
            values[steps] = evaluate(steps)
        return values[steps]

    def level(steps):
        if plan.richardson == 0:
            return at(steps)
        coarse = at(steps)
        fine = at(2 * steps)
        return fine * (4.0 / 3.0) - coarse * (1.0 / 3.0)

    steps = plan.steps
    value = level(steps)
    if plan.tol is None:
        return value
    while True:
        # the next level's finest grid is 2 * steps, doubled by Richardson
        if 2 * steps << plan.richardson > plan.max_steps:
            raise QuadratureError(
                f"no convergence to tol={plan.tol} within {plan.max_steps} steps/segment"
            )
        steps *= 2
        nxt = level(steps)
        if nxt.distance(value) <= plan.tol:
            return nxt
        value = nxt


def gen_transport(
    conn: FlatConnection,
    config: FieldConfig | None,
    loop: PLLoop,
    s=Fraction(0),
    t=Fraction(1),
    plan: TransportPlan = DEFAULT_PLAN,
    variations: Sequence[VariationField] = (),
) -> SuperMatrix:
    """Path-ordered transport with C-insertions resummed, on [s, t].

    The result lives in the Grassmann algebra on n_theta + len(variations)
    generators: thetas first, one leg generator per variation field after
    them.
    """
    if config is None:
        if variations:
            raise ValueError("variations require a field configuration")
        return SuperMatrix.from_body(transport(conn, loop, s, t), 0)
    if conn.n != config.n:
        raise ValueError("connection and field configuration sizes differ")
    if not _needs_stepping(config):
        body = transport(conn, loop, s, t)
        return SuperMatrix.from_body(body, config.n_theta + len(variations))
    return _with_richardson(
        lambda steps: _gen_transport_fixed(conn, config, loop, s, t, steps, variations),
        plan,
    )


def wilson(
    conn: FlatConnection,
    config: FieldConfig | None,
    loop: PLLoop,
    plan: TransportPlan = DEFAULT_PLAN,
    variations: Sequence[VariationField] = (),
) -> GradedCoefficient:
    """Trace of the full-loop generalized transport."""
    return gen_transport(conn, config, loop, Fraction(0), Fraction(1), plan, variations).trace()


def insertion_derivative(
    conn: FlatConnection,
    config: FieldConfig | None,
    loop: PLLoop,
    eta: FieldConfig,
    plan: TransportPlan = DEFAULT_PLAN,
    variations: Sequence[VariationField] = (),
) -> GradedCoefficient:
    """integral_0^1 tr[ U(0,tau) M_eta(tau) U(tau,1) ] dtau, one pass.

    U is the generalized transport of ``config``; the insertion field
    ``eta`` is paired exactly like C-terms (one velocity factor, legs for
    the remaining slots). Evaluated on the same midpoint grid as the
    transports themselves: per block, the step factors F_j and the
    sandwiches h Z_j = h (e_half g_j) M_eta(t_j) (g_j e_half) are multiplied
    into the block's product and kernel sum_j Q_j h Z_j Q'_j (Q_j, Q'_j the
    in-block prefix and suffix), and those combine across blocks by the
    same pair rule. Everything runs on the support that the terms of
    ``config`` and ``eta`` reach together.
    """
    if config is None:
        config = FieldConfig(eta.space, eta.n, eta.n_theta, ())
    if eta.n != config.n or eta.n_theta != config.n_theta:
        raise ValueError("insertion field shape differs from transport field")
    n_gen = config.n_theta + len(variations)
    support = _support((config, eta), len(variations))

    def fixed(steps: int) -> GradedCoefficient:
        # (prod, acc) is the pair product of the blocks so far: prod is the
        # transport, acc the sum of the sandwiches prefix . h Z_j . suffix
        prod = SuperMatrix.identity(config.n, n_gen).components[list(support)]
        acc = np.zeros_like(prod)
        grid = _midpoint_grid(
            conn, loop, Fraction(0), Fraction(1), steps, variations, (config, eta), support
        )
        for h, e_half, (m_cs, m_es) in grid:
            g_half = _exp_series(m_cs * (h / 2), support)
            first = _body_left(e_half, g_half)
            second = _body_right(g_half, e_half)
            factors, sandwiches = _times(first, (second, m_es * h), support)
            f_blk, k_blk = _chain(factors, support, product(sandwiches, second, support))
            prod_f, prod_k = _times(prod, (f_blk, k_blk), support)
            acc = product(acc, f_blk, support) + prod_k
            prod = prod_f
        return SuperMatrix(config.n, n_gen, dict(zip(support, acc))).trace()

    return _with_richardson(fixed, plan)


def extract_leg_coefficient(
    value: GradedCoefficient, n_theta: int, n_legs: int
) -> GradedCoefficient:
    """Coefficient of the full leg monomial w_1 .. w_m, legs-left convention.

    Values are stored in the canonical algebra (ascending generator order);
    the coefficient of the presentation  w_1 .. w_m theta_S c_S  picks up
    the sign of commuting the leg block past theta_S.
    """
    leg_mask = ((1 << n_legs) - 1) << n_theta
    comps: dict[int, object] = {}
    for mask, val in value.masks.items():
        if mask & leg_mask != leg_mask:
            continue
        theta_part = mask & ~leg_mask
        if theta_part >> n_theta:
            continue
        comps[theta_part] = merge_sign(leg_mask, theta_part) * val
    return GradedCoefficient.from_masks(comps, n_theta)
