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
zero terms carry no dt factor and never enter the transport, so a
configuration of such terms alone takes the plain transport, exactly.

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
velocity and the leg values over the term's form bits. Two tables are
built once per transport and serve every grid that the Richardson levels
walk: the slots with the nonzero blocks of their regular matrices R_q,
and the walk table of the pieces (``_Walk``: span, start, velocity v,
A(v), leg start values and slopes). A grid then needs one batched
``expm`` for the half steps E = exp(A v h/2) of all its pieces.

The midpoint grid is walked in blocks of at most ``BLOCK`` midpoints,
which may span pieces. The fields of all the slots are evaluated in one
Fourier pass per block (``fields.FourierStack``). A block's step
exponentials are one Taylor series on the unit columns of all its
midpoints side by side, an (|S|, n, n, b) term. R_q is nonzero only in
the column blocks U that are disjoint from the slot's mask and whose
union with it is in S, and only those P blocks are kept, packed side by
side. Each Taylor term is one GEMM of the packed blocks with the gathered
components term[U_p], each weighted by c_{q_p} h / k. The term count is
fixed before the loop from the norm bound
rho = max_j sum_q |c_q h| ||R_q||_inf, as the first K with
rho^K / K! < 1e-17 (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 2011,
choose the degree of the action of a matrix exponential the same way).
The half steps act on every component, E G_S E. A run of midpoints on one
piece shares its E, so each run takes two wide GEMMs (``_half_steps``).
The block's step factors are then multiplied pairwise into one component
stack. The largest arrays are the regular matrices of that product's
first pair level, BLOCK/2 (|S| n)^2 entries, and the weighted Taylor
term, P n^2 BLOCK entries, so the working memory does not grow with the
steps the plan takes. No dense stack of M(t) is formed while stepping.
The running product of the blocks stays on S, and the transport becomes
a ``SuperMatrix`` over all 2^N masks only when it is returned.

``insertion_derivative`` steps the same way: the insertion of a second
field eta is the epsilon-part of the transport of C + epsilon eta, with
epsilon an even product of two extra generators, so there is one
stepping path for both.

The symmetric step makes the error expansion even in h, so every
generalized transport applies one Richardson level in h^2; with a
tolerance set, steps double until two successive extrapolated values
agree, up to a hard cap per segment on the finest grid evaluated (then
``QuadratureError``). A level's fine grid is the next level's coarse
grid, and each grid is evaluated once. Midpoint nodes lie strictly inside
segments, so the corner discontinuities of PL velocities are never
sampled.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from stringtop.fields import ConstantCommutingConnection, FieldConfig, FourierStack
from stringtop.geometry import PLLoop, VariationField, _rat
from stringtop.grassmann import GradedCoefficient, merge_sign
from stringtop.lierep import SuperMatrix, product, regular


class QuadratureError(RuntimeError):
    """Step doubling hit the cap before reaching the requested tolerance."""


# per-segment cap on the finest grid that any plan evaluates
MAX_STEPS = 16384


@dataclass(frozen=True)
class TransportPlan:
    """Discretization plan for generalized transports.

    Every plan applies one Richardson level: the values T_S and T_{2S} on
    grids of S and 2S sub-intervals per piece combine as
    (4 T_{2S} - T_S) / 3, valid because the scheme's error is even in h.

    steps: S, sub-intervals per covered segment piece on the coarse grid;
        the first level's fine grid, 2 S, must not exceed ``MAX_STEPS``.
    tol: if set, a positive distance: double steps until successive
        extrapolated values agree to it, with no grid finer than
        ``MAX_STEPS`` per segment (else ``QuadratureError``).
    """

    steps: int = 64
    tol: float | None = None

    def __post_init__(self):
        if self.steps < 1 or 2 * self.steps > MAX_STEPS:
            raise ValueError(f"bad step counts: steps must lie in 1..{MAX_STEPS // 2}")
        if self.tol is not None and not self.tol > 0:
            raise ValueError("tol must be positive")


DEFAULT_PLAN = TransportPlan()


# ---------------------------------------------------------------------------
# path pieces


def _pieces(loop: PLLoop, s: Fraction, t: Fraction):
    """Split [s, t] into per-segment pieces with exact endpoints."""
    k = loop.num_segments
    s = _rat(s)
    t = _rat(t)
    if not 0 <= s <= t <= 1:
        raise ValueError("need 0 <= s <= t <= 1")
    pieces = []
    i = int(s * k)
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
    quotient of integers, so the start is the float of the exact
    ``point_at`` value and the velocity that of K times the edge over den,
    without forming a ``Fraction``.
    """
    i, lo, hi = piece
    den_lo, start = loop.lift_point(lo)
    den, k_seg = loop.integer_lift()[0], loop.num_segments
    vel = [k_seg * e / den for e in loop.edge(i)]
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


def transport(conn: ConstantCommutingConnection, loop: PLLoop, s=Fraction(0), t=Fraction(1)) -> np.ndarray:
    """U(s, t) = exp(A(x(t) - x(s))): one exponential, exact up to rounding.

    The closed form of the ordered product of per-segment factors
    exp(A(delta x)) holds because the direction matrices of A commute,
    which the connection's constructor validates. s == t gives the
    identity exactly.
    """
    s = _rat(s)
    t = _rat(t)
    if not 0 <= s <= t <= 1:
        raise ValueError("need 0 <= s <= t <= 1")
    if s == t:
        return np.eye(conn.n, dtype=complex)
    return expm(conn.matrix_of(_displacement(loop, s, t)))


def wrap_transport(conn: ConstantCommutingConnection, loop: PLLoop, s: Fraction, t: Fraction) -> np.ndarray:
    """U(s, 1) U(0, t) for t <= s: from s over the marked point to t.

    The same closed form as ``transport``, one exponential of the wrapped
    displacement closure + x(t) - x(s).
    """
    s = _rat(s)
    t = _rat(t)
    if not 0 <= t <= s <= 1:
        raise ValueError("need 0 <= t <= s <= 1")
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

    The regular matrix R_q = regular(B_q) is nonzero in column block U of
    the support only when U is disjoint from the slot's mask and their
    union is in the support. ``block_slot`` and ``block_mask`` list those
    P blocks (q_p, U_p) by position, slot by slot and U ascending within a
    slot: the order of the columns of all R_q side by side, so the packed
    GEMM adds the nonzero products in the order the full one does.
    """

    def __init__(self, config: FieldConfig, n_legs: int, support: tuple[int, ...]):
        self.n, self.n_gen, self.support = config.n, config.n_theta + n_legs, support
        self.terms, where, mats, fields = [], [], [], []
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
                self.terms.append((bits, slots))
                fields.append(field)
        self.where = tuple(where)
        self.mats = np.array(mats, dtype=complex).reshape(len(mats), self.n, self.n)
        self.fields = FourierStack(config.space.d, fields)
        blocks = [
            (q, u)
            for q, at in enumerate(where)
            for u, mask in enumerate(support)
            if not mask & support[at] and mask | support[at] in support
        ]
        self.block_slot = np.array([q for q, _ in blocks], dtype=int)
        self.block_mask = np.array([u for _, u in blocks], dtype=int)

    def coefficients(self, pos: np.ndarray, vel: np.ndarray, legs: np.ndarray) -> np.ndarray:
        """The (Q, b) coefficients c_q(t_j) at the (b, d) midpoints and
        velocities, with the (n_legs, b, d) leg values; the fields are
        evaluated in one Fourier pass."""
        out = np.empty((len(self.where), len(pos)), dtype=complex)
        dets, q = {}, 0
        for values, (bits, slots) in zip(self.fields(pos), self.terms):
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
        """The nonzero column blocks of the regular matrices side by side, an
        (|S| n, P n) matrix whose column block p is column block U_p of
        R_{q_p}, and the norms ||R_q||_inf of the whole R_q."""
        q, size, n = len(self.where), len(self.support), self.n
        stacks = np.zeros((q, size, n, n), dtype=complex)
        stacks[np.arange(q), self.where] = self.mats
        regs = regular(stacks, self.support)
        blocks = regs.reshape(q, size * n, size, n)[self.block_slot, :, self.block_mask]
        return blocks.transpose(1, 0, 2).reshape(size * n, -1), np.abs(regs).sum(axis=2).max(axis=1, initial=0.0)

    def exp(self, coeffs: np.ndarray) -> np.ndarray:
        """exp(sum_q coeffs[q, j] B_q) for every midpoint j of a block, as
        the (b, |S|, n, n) component stacks.

        The Taylor series runs on the unit columns of all the block's
        matrices at once, side by side in one (|S|, n, n, b) term:
        term_k = sum_q R_q (coeffs[q] / k) term_{k-1} is one product of the
        packed nonzero blocks of the R_q with the gathered components
        term_{k-1}[U_p], each weighted by coeffs[q_p] / k. The term count K
        is fixed up front as the first with rho^K / K! < 1e-17,
        rho = max_j sum_q |coeffs[q, j]| ||R_q||_inf, which bounds every
        entry of term K; more than 59 terms raise.
        """
        packed, norms = self.regulars
        size, n, b = len(self.support), self.n, coeffs.shape[1]
        rho = float((np.abs(coeffs) * norms[:, None]).sum(axis=0).max(initial=0.0))
        terms, bound = 1, rho
        while not bound < 1e-17:
            terms += 1
            if terms > 59:
                raise QuadratureError("insertion exponential failed to converge")
            bound *= rho / terms
        term = np.zeros((size, n, n, b), dtype=complex)
        term[0] = np.eye(n)[:, :, None]
        acc = term.copy()
        weights = coeffs[self.block_slot]
        for k in range(1, terms + 1):
            weighted = term[self.block_mask]
            weighted *= (weights * (1.0 / k))[:, None, None, :]
            term = (packed @ weighted.reshape(-1, n * b)).reshape(size, n, n, b)
            acc += term
        return acc.transpose(3, 0, 1, 2)


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


def _half_steps(e_halves: np.ndarray, piece: np.ndarray, g: np.ndarray) -> np.ndarray:
    """E g E at every midpoint of a block: g holds the (b, |S|, n, n) step
    exponentials, piece the nondecreasing piece index of each midpoint and
    e_halves the (pieces, n, n) half steps.

    The midpoints of a run on one piece share its E, so a run takes two
    wide GEMMs: E times the run's components side by side, their rows
    gathered into one matrix, then those products stacked times E. The
    block is transposed once for each side, and each run's GEMM reads and
    writes its slice of the block in place.
    """
    b, size, n, _ = g.shape
    cuts = [0, *(np.flatnonzero(np.diff(piece)) + 1), b]
    runs = [(e_halves[piece[lo]], lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
    cols = g.transpose(2, 0, 1, 3).copy()  # (i, b, |S|, j): E acts on i
    left = np.empty_like(cols)
    for e, lo, hi in runs:
        np.matmul(e, cols[:, lo:hi].reshape(n, -1), out=left[:, lo:hi].reshape(n, -1))
    rows = left.transpose(1, 2, 0, 3).copy()  # (b, |S|, i, j): E acts on j
    out = cols.reshape(b, size, n, n)
    for e, lo, hi in runs:
        np.matmul(rows[lo:hi].reshape(-1, n), e, out=out[lo:hi].reshape(-1, n))
    return out


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


class _Walk:
    """The pieces of [s, t] and what every grid walk reads of them.

    Built once per transport, since none of it depends on the step count:
    each piece's span, start, velocity v, A(v), the local coordinate of
    its start and the start values and slopes of its legs. Leg values are
    affine in the local coordinate u, a + u (b - a), between the
    displacements of the segment's two vertices.
    """

    def __init__(
        self,
        conn: ConstantCommutingConnection,
        loop: PLLoop,
        s: Fraction,
        t: Fraction,
        variations: Sequence[VariationField],
    ):
        self.k_seg = loop.num_segments
        spans, starts, vels, u_starts, leg_ends = [], [], [], [], []
        for piece in _pieces(loop, s, t):
            i, lo, _ = piece
            start, vel, span = _piece_floats(loop, piece)
            spans.append(span)
            starts.append(start)
            vels.append(vel)
            u_starts.append(float(lo) * self.k_seg - i)
            leg_ends.append([[[float(c) for c in var.displacement(i + e)] for e in (0, 1)] for var in variations])
        count, d = len(spans), loop.space.d
        self.spans, self.u_starts = np.array(spans), np.array(u_starts)
        self.starts, self.vels = (np.array(a).reshape(count, d) for a in (starts, vels))
        self.a_vels = np.array([conn.matrix_of(v) for v in vels], dtype=complex).reshape(count, conn.n, conn.n)
        ends = np.array(leg_ends).reshape(count, len(variations), 2, d)
        self.leg_starts, self.leg_slopes = ends[:, :, 0], ends[:, :, 1] - ends[:, :, 0]

    def blocks(self, steps: int):
        """Walk the grid of ``steps`` midpoints per piece once, in path order.

        The half steps E = exp(A(v) h/2) of all pieces are one batched
        ``expm``; the grid is then cut into blocks of at most BLOCK
        midpoints, which may span pieces. Yields (e_halves, piece, h, pos,
        vel, legs) per block: the (pieces, n, n) half steps, the (b,) piece
        index and step width of each midpoint, the (b, d) midpoints and
        velocities and the (n_legs, b, d) leg values, which every field
        sampled on the block shares.
        """
        widths = self.spans / steps
        e_halves = expm(self.a_vels * (widths / 2)[:, None, None])
        total = len(widths) * steps
        for first in range(0, total, BLOCK):
            p, j = np.divmod(np.arange(first, min(first + BLOCK, total)), steps)
            mid = j + 0.5
            h = widths[p]
            pos = self.starts[p] + (mid * h)[:, None] * self.vels[p]
            u = self.u_starts[p] + mid * (h * self.k_seg)
            legs = (self.leg_starts[p] + u[:, None, None] * self.leg_slopes[p]).transpose(1, 0, 2)
            yield e_halves, p, h, pos, self.vels[p], legs


def _gen_transport_fixed(slots: _Slots, walk: _Walk, steps: int) -> SuperMatrix:
    support = slots.support
    u_mat = SuperMatrix.from_body(np.eye(slots.n), slots.n_gen).components[list(support)]
    for e_halves, piece, h, pos, vel, legs in walk.blocks(steps):
        exps = slots.exp(slots.coefficients(pos, vel, legs) * h)
        u_mat = product(u_mat, _chain(_half_steps(e_halves, piece, exps), support), support)
    return SuperMatrix(slots.n, slots.n_gen, dict(zip(support, u_mat)))


def _with_richardson(evaluate, plan: TransportPlan):
    """One Richardson level of ``evaluate(steps)``, refined under the plan's tolerance.

    A level evaluates its coarse grid, then its fine one. Each step count
    is evaluated once: in tol mode a level's fine grid is the next level's
    coarse grid.
    """
    values = {}

    def at(steps):
        if steps not in values:
            values[steps] = evaluate(steps)
        return values[steps]

    def level(steps):
        coarse = at(steps)
        fine = at(2 * steps)
        return fine * (4.0 / 3.0) - coarse * (1.0 / 3.0)

    steps = plan.steps
    value = level(steps)
    if plan.tol is None:
        return value
    while True:
        # the next level's fine grid is twice its coarse grid of 2 * steps
        if 4 * steps > MAX_STEPS:
            raise QuadratureError(
                f"no convergence to tol={plan.tol} within {MAX_STEPS} steps/segment"
            )
        steps *= 2
        nxt = level(steps)
        if nxt.distance(value) <= plan.tol:
            return nxt
        value = nxt


def gen_transport(
    conn: ConstantCommutingConnection,
    config: FieldConfig,
    loop: PLLoop,
    s=Fraction(0),
    t=Fraction(1),
    plan: TransportPlan = DEFAULT_PLAN,
    variations: Sequence[VariationField] = (),
) -> SuperMatrix:
    """Path-ordered transport with C-insertions resummed, on [s, t].

    The result lives in the Grassmann algebra on n_theta + len(variations)
    generators: thetas first, one leg generator per variation field after
    them. A config without terms of form degree >= 1 never enters M(t), so
    its transport is the plain one, exactly.
    """
    if conn.n != config.n:
        raise ValueError("connection and field configuration sizes differ")
    if not any(config.form_degree_bits(m) for m, _, _ in config.terms):
        return SuperMatrix.from_body(transport(conn, loop, s, t), config.n_theta + len(variations))
    slots = _Slots(config, len(variations), _support(config, len(variations)))
    walk = _Walk(conn, loop, s, t, variations)
    return _with_richardson(lambda steps: _gen_transport_fixed(slots, walk, steps), plan)


def wilson(
    conn: ConstantCommutingConnection,
    config: FieldConfig,
    loop: PLLoop,
    plan: TransportPlan = DEFAULT_PLAN,
    variations: Sequence[VariationField] = (),
) -> GradedCoefficient:
    """Trace of the full-loop generalized transport."""
    return gen_transport(conn, config, loop, Fraction(0), Fraction(1), plan, variations).trace()


def insertion_derivative(
    conn: ConstantCommutingConnection,
    config: FieldConfig,
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
    walk = _Walk(conn, loop, Fraction(0), Fraction(1), variations)
    thetas = (1 << n_theta) - 1

    def fixed(steps: int) -> GradedCoefficient:
        trace = _gen_transport_fixed(slots, walk, steps).trace()
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
