"""Parallel transport and generalized (insertion-decorated) transport.

Transports are path-ordered products along a PL loop, earliest factor
leftmost:  U(s, u) U(u, t) = U(s, t).

Plain transport is a property of the connection: ``transport`` hands the
span to ``ConstantCommutingConnection.transport``, which states its closed
form and keeps its exponentials.

Generalized transport inserts a matrix-valued Grassmann field C along the
path, resummed into an effective connection: the transport solves
U' = U K(t) with K(t) = A(v) + M(t), where v is the segment velocity and
M(t) is the pairing of C's degree-k terms with one velocity factor and
k-1 "leg" generators: substituting dx^mu -> gammadot^mu dt + W^mu into the
ascending form monomial and keeping the part linear in dt,

    M(t) = sum_terms f(gamma(t)) sum_a (-1)^{a-1} gammadot^{mu_a}
           W^{mu_1} .. (hat a) .. W^{mu_k} theta_S E,

with W^mu = sum_i w_i v_i^mu(t) built from the supplied variation fields
on extra Grassmann generators w_i placed after the thetas. Form degree
zero terms carry no dt factor and never enter the transport.

One step of width h from t is the fourth-order commutator-free Magnus
step (Celledoni, Marthinsen and Owren, Future Gener. Comput. Syst. 19,
2003; Blanes and Moan, Appl. Numer. Math. 56, 2006): with K_1, K_2 the
values of K at the Gauss nodes t + c_i h, c_{1,2} = 1/2 -+ sqrt(3)/6, and
the weights alpha_{1,2} = 1/4 +- sqrt(3)/6,

    U(t + h) = U(t) . exp(h(alpha_1 K_1 + alpha_2 K_2))
                    . exp(h(alpha_2 K_1 + alpha_1 K_2)).

The nodes lie strictly inside segments, so the corner discontinuities of
PL velocities are never sampled.

The stepping runs on component stacks over the support of the fields. A
Grassmann n x n matrix over the N = n_theta + len(variations) generators
has 2^N components, but a term of form degree k only reaches the masks
theta_S | L, L any k - 1 leg generators, and every factor of the
transport lives on the closure S of those masks under disjoint union
(``_support``, fixed by the terms, often half the algebra). So each
matrix is its (|S|, n, n) stack on S, and a product is one matmul of the
left-regular representation of the left factor on S with the stacked
components of the right one (``lierep.product``).

Within one transport K(t) lies in a fixed slot basis (``_Slots``),
K(t) = sum_q c_q(t) B_q. The connection gives two body slots: B_q = A_mu,
with the velocity component v^mu as coefficient. A field slot q is a term
with one set L of k - 1 legs; B_q = theta_{S | L} E is fixed, and only the
scalar c_q(t) moves along the path: f(x(t)) times the determinant of the
velocity and the leg values over the term's form bits. So each exponent
of a step is sum_q (h times a combination of the two node values of c_q)
B_q. Two tables are built once per transport and serve every grid that
the Richardson levels walk: the slots with the nonzero blocks of their
regular matrices R_q, and the walk table of the loop's segments
(``_Walk``: start, velocity, leg start values and slopes).

A generalized transport always runs around the whole loop [0, 1], as the
traces of the Wilson loops need it. Each grid is walked in blocks of at
most ``BLOCK`` step exponentials, two per step, which may span segments.
A lane is one grid of one loop, (walk, steps). Loops that share the
connection and the configuration share one slot basis, and all the lanes
that they and the plan ask for at once are walked in lockstep: one pass
takes the r-th block of every lane (``_gen_transports``). So the
Richardson grids of a loop are lanes of one walk, and so are those of
the two deformed loops of the fundamental identity (``wilsons``). The
fields of all the slots are evaluated at the pass's nodes in one Fourier
pass (``fields.FourierStack``). The pass's step exponentials are one
Taylor series on the unit columns of all of them side by side, an
(|S|, n, n, b) term. R_q is nonzero only in the column blocks U that are
disjoint from the slot's mask and whose union with it is in S, and only
those P blocks are kept, packed side by side. Each Taylor term is one
GEMM of the packed blocks with the gathered components term[U_p], each
weighted by the exponent's coefficient of q_p over k. Each block's term
count is fixed before the loop from its norm bound
rho = max_j sum_q |coefficient| ||R_q||_inf, as the first K with
rho^K / K! < 1e-17 (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 2011,
choose the degree of the action of a matrix exponential the same way).
Each block's exponentials are then multiplied pairwise into one
component stack, in the same pairs as the block alone. A pass holds at
most one block per lane: two per loop at a fixed plan, and three under a
tolerance. The Taylor series runs in two working arrays allocated once
per pass, the weighted gather of the packed column blocks, P n^2 entries
per column, and the GEMM output, |S| n^2 entries per column; every term
fills them in place. The largest arrays are these two, P n^2 BLOCK and
|S| n^2 BLOCK entries per block, and the regular matrices of the
product's first pair level, BLOCK/2 (|S| n)^2 entries per block, so the
working memory grows with the lanes of a pass but not with the steps the
plan takes. No dense stack of K(t) is formed while
stepping. The running product of each grid's blocks stays on S, and the
transport becomes a ``SuperMatrix`` over all 2^N masks only when it is
returned.

``insertion_derivative`` steps the same way: the insertion of a second
field eta is the epsilon-part of the transport of C + epsilon eta, with
epsilon an even product of two extra generators, so there is one
stepping path for both.

The step is symmetric, so its error expansion is even in h: every
generalized transport applies one Richardson level in h^4, which leaves
an error of order h^6; with a tolerance set, steps double until two
successive extrapolated values agree, up to a hard cap per segment on
the finest grid evaluated (then ``QuadratureError``). A level's fine grid
is the next level's coarse grid, and each grid is evaluated once; the
grids every plan needs, for every loop evaluated together, are stepped
in one walk.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from stringtop.fields import ConstantCommutingConnection, FieldConfig, FourierStack
from stringtop.geometry import PLLoop, VariationField, _integer
from stringtop.grassmann import GradedCoefficient, merge_sign
from stringtop.lierep import SuperMatrix, product, regular


class QuadratureError(RuntimeError):
    """Step doubling hit the cap before reaching the requested tolerance."""


# cap on the steps per segment of the finest grid that any plan evaluates
MAX_STEPS = 16384


@dataclass(frozen=True)
class TransportPlan:
    """Discretization plan for generalized transports.

    Every plan applies one Richardson level: the values T_S and T_{2S} on
    grids of S and 2S steps per segment combine as (16 T_{2S} - T_S) / 15,
    valid because the fourth-order step's error is even in h. Each step
    takes two step exponentials. The grids S and 2S, and under a tolerance
    4S if within ``MAX_STEPS``, are stepped together in one walk of the
    loop, along with the same grids of any loop evaluated with it
    (``wilsons``); each finer level steps, in one walk, the fine grid of
    every loop that has not converged. A loop converges, or raises, at the
    same level as it would alone.

    steps: S, steps per segment on the coarse grid; the first level's
        fine grid, 2 S, must not exceed ``MAX_STEPS``.
    tol: if set, a positive distance: double steps until successive
        extrapolated values agree to it, with no grid finer than
        ``MAX_STEPS`` per segment (else ``QuadratureError``).
    """

    steps: int = 16
    tol: float | None = None

    def __post_init__(self):
        _integer(self.steps, "steps")
        if self.steps < 1 or 2 * self.steps > MAX_STEPS:
            raise ValueError(f"bad step counts: steps must lie in 1..{MAX_STEPS // 2}")
        if self.tol is not None and not self.tol > 0:
            raise ValueError("tol must be positive")


DEFAULT_PLAN = TransportPlan()


# ---------------------------------------------------------------------------
# plain transport (exact)


def transport(conn: ConstantCommutingConnection, loop: PLLoop, s=Fraction(0), t=Fraction(1)) -> np.ndarray:
    """U(s, t), the plain transport of ``conn`` over a forward span of the
    loop's periodic lift: ``ConstantCommutingConnection.transport``."""
    return conn.transport(loop, s, t)


# ---------------------------------------------------------------------------
# insertion matrices in the slot basis

BLOCK = 256  # step exponentials per block of one grid, two per step: one GEMM per Taylor term serves a pass
PAIR_LEVELS = (BLOCK - 1).bit_length()  # pair levels that multiply BLOCK factors down to one


def _support(config: FieldConfig, n_legs: int) -> tuple[int, ...]:
    """The sorted masks that the step factors of the config can reach.

    A form term of degree k >= 1 enters M with the masks theta_S | L, for
    every set L of k - 1 leg generators. Products of Grassmann monomials
    are nonzero only on disjoint masks, so every exponential and product
    of the transport lives on the closure of those masks under disjoint
    union, with 0 for the body. The closure is exact for the terms and
    fixed per transport; data that happen to vanish only leave zeros on it.
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
    """det[cols[c][:, rows[r]]] per node, for (b, d) columns: the Laplace
    expansion along the first column, which is how M(t) sums its velocity
    slot; the minors are the products of the legs."""
    if not cols:
        return 1.0
    return sum(
        (-1) ** a * cols[0][:, mu] * _det(rows[:a] + rows[a + 1 :], cols[1:])
        for a, mu in enumerate(rows)
    )


class _Slots:
    """K(t) = A(v) + M(t) = sum_q c_q(t) B_q: a connection and a field
    configuration in their slot basis on a support.

    Slots 0 and 1 are the body slots of the connection, B_q = A_{q+1} with
    coefficient v^{q+1}. Every other slot q is a term f theta_S E of form
    degree k >= 1 with one sorted set L of k - 1 leg generators:
    B_q = theta_{S | L} E is fixed, and

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

    def __init__(
        self, conn: ConstantCommutingConnection, config: FieldConfig, n_legs: int, support: tuple[int, ...]
    ):
        if conn.n != config.n:
            raise ValueError("connection and field configuration sizes differ")
        self.n, self.n_gen, self.support = config.n, config.n_theta + n_legs, support
        self.terms, where, mats, fields = [], [0, 0], list(conn.mats), []
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
        """The (Q, b) coefficients c_q(t_j) at the (b, d) nodes and
        velocities, with the (n_legs, b, d) leg values; the fields are
        evaluated in one Fourier pass."""
        out = np.empty((len(self.where), len(pos)), dtype=complex)
        out[:2] = vel.T
        dets, q = {}, 2
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

    def exp(self, coeffs: np.ndarray, widths: Sequence[int] | None = None) -> np.ndarray:
        """exp(sum_q coeffs[q, j] B_q) for every column j, as the
        (b, |S|, n, n) component stacks; the columns are blocks of the
        given widths side by side, one block if None.

        The Taylor series runs on the unit columns of all the matrices at
        once, side by side in one (|S|, n, n, b) term:
        term_k = sum_q R_q (coeffs[q] / k) term_{k-1} is one product of the
        packed nonzero blocks of the R_q with the gathered components
        term_{k-1}[U_p], each weighted by coeffs[q_p] / k. The term count K
        is set per block, up front, as the first with rho^K / K! < 1e-17,
        rho = max_j sum_q |coeffs[q, j]| ||R_q||_inf over the block's
        columns, which bounds every entry of its term K; more than 59 terms
        raise. The blocks run in descending K, so term k is one product on
        the columns still live; they are reordered only when not already.
        The gathered term and the product are written in place into two
        arrays allocated once per call (``np.take`` and ``np.matmul`` with
        ``out``), whose views are rebuilt only when the live width shrinks.
        """
        packed, norms = self.regulars
        size, n, b = len(self.support), self.n, coeffs.shape[1]
        widths = [b] if widths is None else list(widths)
        starts = np.cumsum([0, *widths[:-1]])
        counts = []
        for rho in np.maximum.reduceat((np.abs(coeffs) * norms[:, None]).sum(axis=0), starts).tolist():
            terms, bound = 1, rho
            while not bound < 1e-17:
                terms += 1
                if terms > 59:
                    raise QuadratureError("insertion exponential failed to converge")
                bound *= rho / terms
            counts.append(terms)
        order = sorted(range(len(widths)), key=counts.__getitem__, reverse=True)
        cols = None
        if order != sorted(order):
            cols = np.concatenate([np.arange(starts[i], starts[i] + widths[i]) for i in order])
            coeffs = coeffs[:, cols]
        gathered = np.empty(len(self.block_slot) * n * n * b, dtype=complex)
        stacked = np.zeros(size * n * n * b, dtype=complex)
        term = stacked.reshape(size, n, n, b)
        term[0] = np.eye(n)[:, :, None]
        acc, width = term.copy(), 0
        weights = coeffs[self.block_slot]
        for k in range(1, counts[order[0]] + 1):
            live = sum(widths[i] for i in order if counts[i] >= k)
            if live != width:
                term, width = term[..., :live], live
                weighted = gathered[: gathered.size // b * live].reshape(-1, n, n, live)
                out = stacked[: stacked.size // b * live].reshape(size * n, n * live)
            np.take(term, self.block_mask, axis=0, out=weighted, mode="clip")
            weighted *= (weights[:, :live] * (1.0 / k))[:, None, None, :]
            term = np.matmul(packed, weighted.reshape(-1, n * live), out=out).reshape(size, n, n, live)
            acc[..., :live] += term
        return (acc if cols is None else acc[..., np.argsort(cols)]).transpose(3, 0, 1, 2)


def insertion_matrix(
    config: FieldConfig,
    pos: np.ndarray,
    vel: np.ndarray,
    leg_values: np.ndarray,
    n_legs: int,
    support: tuple[int, ...],
) -> np.ndarray:
    """M(t) at a block of points: C's form slots fed one velocity and k-1 legs.

    pos and vel are the (b, d) arrays of points and path velocities there,
    leg_values the (n_legs, b, d) variation values. Returns the
    (b, |S|, n, n) stack of component stacks on the support S, which must
    hold every mask M reaches (``_support``), N = n_theta + n_legs
    generators: the slot coefficients (``_Slots``) summed into their
    components.

    No stepping path calls it: the transports exponentiate in the slot
    basis. It is kept as the dense view of M(t) that tests compare with
    the symbolic oracle, and as a layer that the benchmark tracer names.
    The slots take a zero connection, so their body slots add nothing.
    """
    zero = ConstantCommutingConnection([np.zeros((config.n, config.n))] * 2)
    slots = _Slots(zero, config, n_legs, support)
    return slots.dense(slots.coefficients(pos, vel, leg_values))


def _chain(factors: np.ndarray, support: tuple[int, ...]) -> np.ndarray:
    """Ordered product factors[0] .. factors[-1] of a stack of at most
    ``BLOCK`` component stacks on the support, multiplied pairwise.

    Each pair level halves the stack, rounding up, so at most
    ``PAIR_LEVELS`` levels leave one factor; a stack that is longer after
    one more raises ``RuntimeError`` instead of looping on.
    """
    for _ in range(PAIR_LEVELS + 1):
        if len(factors) == 1:
            return factors[0]
        even = len(factors) // 2 * 2
        paired = product(factors[0:even:2], factors[1:even:2], support)
        factors = np.concatenate([paired, factors[even:]])
    raise RuntimeError(f"{len(factors)} factors left after {PAIR_LEVELS + 1} pair levels")


# ---------------------------------------------------------------------------
# generalized transport


# the Gauss nodes of a step, as fractions of its width, and the weights of
# the node values in its two exponentials: entry (i, f) weighs node i in
# exponential f, first (alpha_1, alpha_2), then (alpha_2, alpha_1)
_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3) / 6
_CF_WEIGHTS = 0.25 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * np.sqrt(3) / 6


class _Walk:
    """The segments of the loop and what every grid walk reads of them.

    Built once per transport, since none of it depends on the step count:
    with (den, P_0..P_K) the integer lift, segment i starts at P_i / den,
    moves with velocity K (P_{i+1} - P_i) / den and spans 1 / K of the
    parameter; every coordinate is one correctly rounded quotient of
    integers. Leg values are affine in the local coordinate u = K t - i,
    a + u (b - a), between the displacements a and b of the segment's two
    vertices, so each segment stores a and the slope b - a.
    """

    def __init__(self, loop: PLLoop, variations: Sequence[VariationField]):
        (den, pts), self.k_seg = loop.integer_lift(), loop.num_segments
        self.starts = np.array([[c / den for c in p] for p in pts[:-1]])
        self.vels = np.array([[self.k_seg * e / den for e in loop.edge(i)] for i in range(self.k_seg)])
        disp = [[[float(c) for c in var.displacement(i)] for var in variations] for i in range(self.k_seg + 1)]
        disp = np.array(disp).reshape(self.k_seg + 1, len(variations), loop.space.d)
        self.leg_starts, self.leg_slopes = disp[:-1], np.diff(disp, axis=0)

    def blocks(self, steps: int):
        """Walk the grid of ``steps`` steps per segment once, in path order.

        The grid is cut into blocks of BLOCK // 2 steps, at least one, which
        may span segments. Yields (h, pos, vel, legs) per block: the step
        width, and at the 2 b Gauss nodes of its b steps, two per step in
        path order, the (2 b, d) points and velocities and the
        (n_legs, 2 b, d) leg values, which every field sampled on the block
        shares.
        """
        h = 1 / self.k_seg / steps
        total, size = self.k_seg * steps, max(1, BLOCK // 2)
        for first in range(0, total, size):
            p, j = np.divmod(np.arange(first, min(first + size, total)), steps)
            p = np.repeat(p, 2)
            at = (j[:, None] + _NODES).ravel() * h
            pos = self.starts[p] + at[:, None] * self.vels[p]
            legs = (self.leg_starts[p] + (at * self.k_seg)[:, None, None] * self.leg_slopes[p]).transpose(1, 0, 2)
            yield h, pos, self.vels[p], legs


def _gen_transports(slots: _Slots, lanes: Sequence[tuple[_Walk, int]]) -> list[SuperMatrix]:
    """The transport of each lane (walk, steps), on its grid of ``steps``
    steps per segment of its walk's loop, all stepped in one walk.

    The lanes share the slot basis, so their blocks are walked in
    lockstep: pass r joins the r-th block of every lane that has one, in
    one Fourier pass, one Taylor series and one pairwise product, each
    block weighted by its own step width. Each block keeps the term count
    (``_Slots.exp``) and the pairing tree it has alone: the joined factors
    are paired only while every block's count is even, so no pair crosses
    blocks, and each block then finishes with ``_chain``.
    A block holds at most ``BLOCK`` factors, so both pairings stop within
    ``PAIR_LEVELS`` levels.
    """
    support = slots.support
    one = SuperMatrix.from_body(np.eye(slots.n), slots.n_gen).components[list(support)]
    u_mats = [one] * len(lanes)
    for blocks in itertools.zip_longest(*(walk.blocks(steps) for walk, steps in lanes)):
        live = [g for g, block in enumerate(blocks) if block is not None]
        hs, pos, vel, legs = zip(*(blocks[g] for g in live))
        widths = [len(p) for p in pos]
        nodes = slots.coefficients(np.concatenate(pos), np.concatenate(vel), np.concatenate(legs, axis=1))
        nodes = nodes.reshape(len(slots.where), -1, 2) @ _CF_WEIGHTS
        exps = slots.exp((nodes * np.repeat(hs, [w // 2 for w in widths])[:, None]).reshape(len(nodes), -1), widths)
        for _ in range(PAIR_LEVELS):
            if any(w % 2 for w in widths):
                break
            exps = product(exps[0::2], exps[1::2], support)
            widths = [w // 2 for w in widths]
        for g, factors in zip(live, np.split(exps, np.cumsum(widths)[:-1])):
            u_mats[g] = product(u_mats[g], _chain(factors, support), support)
    return [SuperMatrix(slots.n, slots.n_gen, dict(zip(support, u_mat))) for u_mat in u_mats]


def _with_richardson(evaluate, plan: TransportPlan, count: int = 1) -> list:
    """One Richardson level of each of ``count`` values, refined under the
    plan's tolerance: ``evaluate(lanes)`` returns, for each lane (i, s),
    value i on a grid of s steps per segment.

    The first call asks for every grid the plan needs, for every value:
    the level's coarse and fine grids, and under a tolerance the second
    level's fine grid too (unless it passes ``MAX_STEPS``), since a
    tolerance plan compares two levels before it can return. Each later
    level asks, in one call, for the fine grid of every value that has not
    converged: a level's fine grid is the next level's coarse grid, so
    each step count is evaluated once per value. Each value runs through
    the levels, and stops or raises ``QuadratureError``, as it would alone.
    """
    steps = plan.steps
    grids = [steps, 2 * steps]
    if plan.tol is not None and 4 * steps <= MAX_STEPS:
        grids.append(4 * steps)
    got = evaluate([(i, s) for i in range(count) for s in grids])
    # the unconverged values, each with its grids still to be used, coarse first
    pending = {i: got[i * len(grids) : (i + 1) * len(grids)] for i in range(count)}
    last, out = {}, [None] * count
    while pending:
        if len(next(iter(pending.values()))) < 2:
            for i, fine in zip(pending, evaluate([(i, 2 * steps) for i in pending])):
                pending[i].append(fine)
        for i in list(pending):
            coarse, fine = pending[i].pop(0), pending[i][0]
            nxt = fine * (16.0 / 15.0) - coarse * (1.0 / 15.0)
            if plan.tol is None or (i in last and nxt.distance(last[i]) <= plan.tol):
                out[i] = nxt
                del pending[i]
            last[i] = nxt
        # the next level's fine grid is twice its coarse grid of 2 * steps
        if pending and 4 * steps > MAX_STEPS:
            raise QuadratureError(
                f"no convergence to tol={plan.tol} within {MAX_STEPS} steps/segment"
            )
        steps *= 2
    return out


def _transports(
    conn: ConstantCommutingConnection,
    config: FieldConfig,
    loops: Sequence[PLLoop],
    plan: TransportPlan,
    variations: Sequence[VariationField] = (),
) -> list[SuperMatrix]:
    """The generalized transport around each loop, on one slot basis: each
    Richardson level steps the grids of all the loops in one walk."""
    slots = _Slots(conn, config, len(variations), _support(config, len(variations)))
    walks = [_Walk(loop, variations) for loop in loops]
    return _with_richardson(
        lambda lanes: _gen_transports(slots, [(walks[i], steps) for i, steps in lanes]), plan, len(walks)
    )


def gen_transport(
    conn: ConstantCommutingConnection,
    config: FieldConfig,
    loop: PLLoop,
    plan: TransportPlan = DEFAULT_PLAN,
    variations: Sequence[VariationField] = (),
) -> SuperMatrix:
    """Path-ordered transport around the whole loop, C-insertions resummed.

    The result lives in the Grassmann algebra on n_theta + len(variations)
    generators: thetas first, one leg generator per variation field after
    them. A config without terms of form degree >= 1 has only the
    connection's body slots on the support {0}: K is constant on each
    segment, so the steps multiply to the plain transport up to rounding.
    """
    return _transports(conn, config, [loop], plan, variations)[0]


def wilson(
    conn: ConstantCommutingConnection,
    config: FieldConfig,
    loop: PLLoop,
    plan: TransportPlan = DEFAULT_PLAN,
) -> GradedCoefficient:
    """Trace of the full-loop generalized transport."""
    return gen_transport(conn, config, loop, plan).trace()


def wilsons(
    conn: ConstantCommutingConnection,
    config: FieldConfig,
    loops: Sequence[PLLoop],
    plan: TransportPlan = DEFAULT_PLAN,
) -> list[GradedCoefficient]:
    """The Wilson loop of each loop, as ``wilson`` gives it.

    The loops share one slot basis, and each Richardson level steps all of
    their grids in one walk. Each loop keeps the grids, Taylor term counts
    and pairing trees it has alone, so the values are ``wilson``'s up to
    how the joined GEMMs round their columns, which can depend on what
    shares a GEMM (about 1e-16 relative).
    """
    return [u_mat.trace() for u_mat in _transports(conn, config, loops, plan)]


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
    hold both. The grids are stepped as generalized transports of the
    joint configuration (``_gen_transports``), and the Richardson levels
    and the tolerance act on the extracted coefficient over
    n_theta + len(variations) generators.
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
    slots = _Slots(conn, joint, n_legs, _support(joint, n_legs))
    walk = _Walk(loop, variations)
    thetas = (1 << n_theta) - 1

    def epsilon_part(u_mat: SuperMatrix) -> GradedCoefficient:
        # theta_S theta_a theta_b w_L = epsilon theta_S w_L: drop a and b, and
        # move the legs down to follow the thetas
        masks = u_mat.trace().masks
        part = {m & thetas | m >> (n_theta + 2) << n_theta: v for m, v in masks.items() if m & pair == pair}
        return GradedCoefficient(part, n_theta + n_legs)

    def evaluate(lanes):
        return [epsilon_part(u) for u in _gen_transports(slots, [(walk, steps) for _, steps in lanes])]

    return _with_richardson(evaluate, plan)[0]


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
    return GradedCoefficient(comps, n_theta)
