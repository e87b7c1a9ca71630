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
components of the right one (``lierep.product``).

Within one transport every insertion matrix lies in a fixed slot basis
(``_Slots``), M(t) = sum_q c_q(t) B_q. A slot q is a term with one set L
of k - 1 legs; B_q = theta_{S | L} E is fixed, and only the scalar
c_q(t) moves along the path: f(x(t)) times the determinant of the
velocity and the leg values over the term's form bits. The slots and
their regular matrices R_q are built once per transport, beside the
support, and serve every grid that the Richardson levels walk. The
midpoint grid is walked in blocks of at most ``BLOCK`` midpoints, which
may span pieces; each piece's step width, velocity, leg end values and
half step E = exp(A v h/2) are computed once. A block's step
exponentials are one Taylor series on the unit columns of all its
midpoints side by side, an (|S| n, n b) term: each Taylor term is one
GEMM of the R_q side by side with the Q coefficient-weighted copies of
the term, and the term count is fixed before the loop from the norm
bound rho = max_j sum_q |c_q h| ||R_q||_inf, as the first K with
rho^K / K! < 1e-17 (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 2011,
choose the degree of the action of a matrix exponential the same way).
The half steps E act on every component, E G_S E, and the block's step
factors are multiplied pairwise into one component stack. The largest
arrays are the regular matrices of that product's first pair level,
BLOCK/2 (|S| n)^2 entries, and the weighted Taylor term, Q |S| n^2 BLOCK
entries, so the working memory does not grow with the steps the plan
takes. No dense stack of M(t) is formed while stepping. The running
product of the blocks stays on S, and the transport becomes a
``SuperMatrix`` over all 2^N masks only when it is returned.

``insertion_derivative`` steps the same way: the insertion of a second
field eta is the epsilon-part of the transport of C + epsilon eta, with
epsilon an even product of two extra generators, so there is one
stepping path for both.

The symmetric step makes the error expansion even in h, so one Richardson
level in h^2 is applied by default; with a tolerance set, steps double
until two successive extrapolated values agree, up to a hard cap per
segment on the finest grid evaluated (then ``QuadratureError``). A
level's fine grid is the next level's coarse grid, and each grid is
evaluated once. Midpoint nodes lie strictly inside segments, so the corner
discontinuities of PL velocities are never sampled.
"""

from __future__ import annotations

import functools
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
# insertion matrices in the slot basis

BLOCK = 256  # midpoints per block: one GEMM per Taylor term serves them all


def _support(config: FieldConfig, n_legs: int) -> tuple[int, ...]:
    """The sorted masks that the step factors of the config can reach.

    A form term of degree k >= 1 enters M with the masks theta_S | L, for
    every set L of k - 1 leg generators. Products of Grassmann monomials
    are nonzero only on disjoint masks, so every exponential, half step
    and product of the transport lives on the closure of those masks
    under disjoint union, with 0 for the body. The closure is exact for
    the terms and fixed per transport; data that happen to vanish only
    leave zeros on it.
    """
    reach = set()
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


def _det(rows: tuple[int, ...], cols: list[np.ndarray]) -> np.ndarray:
    """det[cols[c][:, rows[r]]] per midpoint, for (b, d) columns: the Laplace
    expansion along the first column, which is how M(t) sums its velocity
    slot; the minors are the products of the legs."""
    if not cols:
        return 1.0
    return sum(
        (-1) ** a * cols[0][:, mu] * _det(rows[:a] + rows[a + 1 :], cols[1:])
        for a, mu in enumerate(rows)
    )


class _Slots:
    """M(t) = sum_q c_q(t) B_q: a field configuration in its slot basis on a
    support.

    A slot q is a term f theta_S E of form degree k >= 1 with one sorted
    set L of k - 1 leg generators: B_q = theta_{S | L} E is fixed, and

        c_q(t) = sign(w_L theta_S) f(x(t)) det[v, v_{L_1}, .., v_{L_{k-1}}]

    over the rows mu_1 .. mu_k of the term's form bits, since the sum over
    the velocity slot in M(t) is the Laplace expansion of that determinant
    and the legs' products are its minors. The support must hold every slot
    mask (``_support``).
    """

    def __init__(self, config: FieldConfig, n_legs: int, support: tuple[int, ...]):
        self.n, self.n_gen, self.support = config.n, config.n_theta + n_legs, support
        self.terms, where, mats = [], [], []
        for mask, field, mat in config.terms:
            bits = config.form_degree_bits(mask)
            theta = config.theta_mask(mask)
            slots = []
            for legs in itertools.combinations(range(n_legs), len(bits) - 1) if bits else ():
                leg_mask = sum(1 << (config.n_theta + i) for i in legs)
                # w_L theta_S = (-1)^{|L| |S|} theta_{S | L}: the legs follow the thetas
                slots.append((legs, -1 if len(legs) * theta.bit_count() % 2 else 1))
                where.append(support.index(theta | leg_mask))
                mats.append(mat)
            if slots:
                self.terms.append((field, bits, slots))
        self.where = tuple(where)
        self.mats = np.array(mats, dtype=complex).reshape(len(mats), self.n, self.n)

    def coefficients(self, pos: np.ndarray, vel: np.ndarray, legs: np.ndarray) -> np.ndarray:
        """The (Q, b) coefficients c_q(t_j) at the (b, d) midpoints and
        velocities, with the (n_legs, b, d) leg values; each field is
        evaluated once."""
        out = np.empty((len(self.where), len(pos)), dtype=complex)
        dets, q = {}, 0
        for field, bits, slots in self.terms:
            values = field.evaluate(pos)
            for legs_of, sign in slots:
                if (bits, legs_of) not in dets:
                    dets[bits, legs_of] = _det(bits, [vel, *(legs[i] for i in legs_of)])
                out[q] = sign * values * dets[bits, legs_of]
                q += 1
        return out

    def dense(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_q coeffs[q, j] B_q as the (b, |S|, n, n) component stacks."""
        comps = np.zeros((coeffs.shape[1], len(self.support), self.n, self.n), dtype=complex)
        for c, at, mat in zip(coeffs, self.where, self.mats):
            comps[:, at] += c[:, None, None] * mat
        return comps

    @functools.cached_property
    def regulars(self) -> tuple[np.ndarray, np.ndarray]:
        """The regular matrices R_q = regular(B_q) side by side, an
        (|S| n, Q |S| n) matrix, and their norms ||R_q||_inf."""
        stacks = np.zeros((len(self.where), len(self.support), self.n, self.n), dtype=complex)
        stacks[np.arange(len(self.where)), self.where] = self.mats
        regs = regular(stacks, self.support)
        rows = len(self.support) * self.n
        return regs.transpose(1, 0, 2).reshape(rows, -1), np.abs(regs).sum(axis=2).max(axis=1, initial=0.0)

    def exp(self, coeffs: np.ndarray) -> np.ndarray:
        """exp(sum_q coeffs[q, j] B_q) for every midpoint j of a block, as
        the (b, |S|, n, n) component stacks.

        The Taylor series runs on the unit columns of all the block's
        matrices at once, side by side in one (|S| n, n b) term:
        term_k = sum_q R_q (coeffs[q] / k) term_{k-1} is one product of the
        side-by-side R_q with the Q coefficient-weighted copies of the term
        stacked. The term count K is fixed up front as the first with
        rho^K / K! < 1e-17, rho = max_j sum_q |coeffs[q, j]| ||R_q||_inf,
        which bounds every entry of term K; more than 59 terms raise.
        """
        stacked, norms = self.regulars
        q, b = coeffs.shape
        rows, n = stacked.shape[0], self.n
        rho = float((np.abs(coeffs) * norms[:, None]).sum(axis=0).max(initial=0.0))
        terms, bound = 1, rho
        while not bound < 1e-17:
            terms += 1
            if terms > 59:
                raise QuadratureError("insertion exponential failed to converge")
            bound *= rho / terms
        term = np.zeros((rows, n, b), dtype=complex)
        term[:n] = np.eye(n)[:, :, None]
        acc = term.copy()
        for k in range(1, terms + 1):
            weighted = term * (coeffs * (1.0 / k))[:, None, None, :]
            term = (stacked @ weighted.reshape(q * rows, n * b)).reshape(rows, n, b)
            acc += term
        return acc.reshape(len(self.support), n, n, b).transpose(3, 0, 1, 2)


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
    generators: the slot coefficients (``_Slots``) summed into their
    components.

    No stepping path calls it: the transports exponentiate in the slot
    basis. It is kept as the dense view of M(t) that tests compare with
    the symbolic oracle, and as a layer that the benchmark tracer names.
    """
    slots = _Slots(config, n_legs, support)
    return slots.dense(slots.coefficients(pos, vel, leg_values))


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


def _chain(factors: np.ndarray, support: tuple[int, ...]) -> np.ndarray:
    """Ordered product factors[0] .. factors[-1] of a stack of component
    stacks on the support, multiplied pairwise."""
    while len(factors) > 1:
        even = len(factors) // 2 * 2
        paired = product(factors[0:even:2], factors[1:even:2], support)
        factors = np.concatenate([paired, factors[even:]])
    return factors[0]


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
):
    """Walk the midpoint grid of [s, t] once.

    The grid holds ``steps`` midpoints per piece, in path order. Each
    piece's start, velocity, step width h, leg end values and half step
    E = exp(A(v) h/2) are computed once; the grid is then cut into blocks of
    at most BLOCK midpoints, which may span pieces. Yields
    (h, e_half, pos, vel, legs) per block: the (b,) step widths, the
    (b, n, n) half steps, the (b, d) midpoints and velocities and the
    (n_legs, b, d) leg values, which every field sampled on the block
    shares.
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
        yield h, e_halves[p], pos, vels[p], legs


def _gen_transport_fixed(
    conn: FlatConnection,
    slots: _Slots,
    loop: PLLoop,
    s: Fraction,
    t: Fraction,
    steps: int,
    variations: Sequence[VariationField],
) -> SuperMatrix:
    support = slots.support
    u_mat = SuperMatrix.identity(slots.n, slots.n_gen).components[list(support)]
    for h, e_half, pos, vel, legs in _midpoint_grid(conn, loop, s, t, steps, variations):
        exps = slots.exp(slots.coefficients(pos, vel, legs) * h)
        factors = _body_right(_body_left(e_half, exps), e_half)
        u_mat = product(u_mat, _chain(factors, support), support)
    return SuperMatrix(slots.n, slots.n_gen, dict(zip(support, u_mat)))


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
    slots = _Slots(config, len(variations), _support(config, len(variations)))
    return _with_richardson(
        lambda steps: _gen_transport_fixed(conn, slots, loop, s, t, steps, variations),
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
    """integral_0^1 tr[ U(0,tau) M_eta(tau) U(tau,1) ] dtau.

    U is the generalized transport of ``config``; the insertion field
    ``eta`` is paired exactly like C-terms (one velocity factor, legs for
    the remaining slots). The integral is the first-order variation of the
    Wilson loop of C in the direction eta, so it is the epsilon-coefficient
    of the Wilson loop of C + epsilon eta, where epsilon = theta_a theta_b
    is the product of two extra generators: even, so central, and
    epsilon^2 = 0 (the Grassmann form of Van Loan's block-triangular
    exponential, IEEE Trans. Autom. Control 23, 1978). The joint
    configuration orders its generators as the n_theta thetas, then a and
    b, then the legs; a and b are adjacent, so epsilon theta_S =
    +theta_{S | a | b}, and the epsilon-part is read off the masks that
    hold both. Each grid is one ``_gen_transport_fixed`` of the joint
    configuration, and the Richardson levels and the tolerance act on the
    extracted coefficient over n_theta + len(variations) generators.
    """
    if config is None:
        config = FieldConfig(eta.space, eta.n, eta.n_theta, ())
    if eta.n != config.n or eta.n_theta != config.n_theta:
        raise ValueError("insertion field shape differs from transport field")
    n_theta, n_legs = config.n_theta, len(variations)
    pair = 0b11 << n_theta
    joint = FieldConfig(
        config.space,
        config.n,
        n_theta + 2,
        [*config.terms, *((mask | pair << config.space.d, f, mat) for mask, f, mat in eta.terms)],
    )
    slots = _Slots(joint, n_legs, _support(joint, n_legs))
    thetas = (1 << n_theta) - 1

    def fixed(steps: int) -> GradedCoefficient:
        trace = _gen_transport_fixed(conn, slots, loop, Fraction(0), Fraction(1), steps, variations).trace()
        # theta_S theta_a theta_b w_L = epsilon theta_S w_L: drop a and b, and
        # move the legs down to follow the thetas
        part = {m & thetas | m >> (n_theta + 2) << n_theta: v for m, v in trace.masks.items() if m & pair == pair}
        return GradedCoefficient.from_masks(part, n_theta + n_legs)

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
