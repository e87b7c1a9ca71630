"""Transversal loop intersections, concatenation, and the surface bracket.

Everything here is exact. Crossings are found on integers by one
enumerator, ``_crossings``: both lifts are scaled to one common
denominator (``PLLoop.integer_lift``), each segment pair is tried against
the deck translations that bring the two closed segment boxes together,
one integer range per axis, and crossings are tested with integer cross
products. A crossing is yielded as integers: its segments, its local
coordinates over one denominator, its sign, its deck offset and its point.
One splice, ``_splice``, joins the two integer lifts at a crossing, as 2-D
integer rows over the least common denominator.

The bracket uses both directly, so a bracket output stays on integers
from its crossing to its stored term: ``string_bracket`` splices each
crossing that ``_crossings`` yields straight into the least rotation of
its rows, its normal form, with no ``Fraction`` and no
``IntersectionPoint``. Mod the unit, a splice's vertices are the
crossing point, twice, and each vertex of the two loops once, and the
bracket's loops are normal forms, whose vertex 0 is their least; so that
rotation starts at the crossing point or at vertex 0 of one loop
(``_rotation_start``), which needs of each loop only whether its vertex
0 is alone (``_alone``), and ``_splice`` reads its rows off the two lifts
in that order, in one pass. On a tie the rows come back plain, and
``geometry._least_lift`` scans them for their least token. A term stays
those integer rows until the sum keeps it: ``_combine`` sums the terms
by their rows and stores a ``PLLoop`` (``PLLoop._normal``) only for a
coefficient that survives, so a chain that cancels builds no loop.

The public ``intersections`` and ``concatenate`` wrap the same two
routines: ``intersections`` records each crossing as its two parameters
(``Fraction``), its sign and its deck offset, sorted, and ``concatenate``
reads such a record off both integer lifts (``PLLoop.lift_point``), checks
it and builds the splice into a validated ``PLLoop._from_lift``. Formal
cycles carry integer coefficients on rotation-normalized loops.
Non-transversal contact (overlapping segments, crossings at vertices or
marked points) raises ``TransversalityError`` instead of being perturbed
away silently.

``jacobi_residual`` does not search its outer brackets {{x;y};z} again.
Each inner term whose start the splice found records where it was
spliced, and its ``_alone``. Mod the lattice, its segments are those of x
and y, split at the crossing point, so its crossings with z are those of
x and y with z, moved to its segment indices (``_inherited``) and tested
by ``_crossings``' own test (``_contact``) in its order: the records, and
a degenerate contact such as z through the crossing point, are exactly
``_crossings``'. That oracle runs on such a term only when a parent pair
raises, so that its error names the term. A tied term records nothing,
and its crossings are searched as an input loop's are. The outer terms
of all three summands are summed in one combine, and on a chain that
cancels none of them becomes a loop.

The degree-0 bracket of two cycles on a surface sums, over transversal
intersection points p of their representatives, the loop concatenated at
p weighted by the orientation sign of the crossing frame. An independent
straight-line counting oracle for torus classes is provided for
cross-checking; it shares no code with the bracket path beyond integer
arithmetic.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from stringtop.geometry import PLLoop, Torus, _integer, _least_lift


class TransversalityError(ValueError):
    """Loops touch non-transversally; the caller must perturb and retry."""


@dataclass(frozen=True)
class IntersectionPoint:
    """One transversal crossing of two loops, by the four facts that fix it.

    s, s_bar: loop parameters of the crossing on each loop, so the point
    on the first loop's lift is ``loop.lift_point(s)``;
    sign: orientation of the (velocity, bar-velocity) frame, +1 or -1;
    offset: deck translation with gamma(s) = gammabar(s_bar) + offset.
    """

    s: Fraction
    s_bar: Fraction
    sign: int
    offset: tuple[int, ...]


def _segments(loop: PLLoop, scale: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per segment of the integer lift times ``scale``: (start and edge, closed box)."""
    out = []
    _, pts = loop.integer_lift()
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        x0, y0, x1, y1 = x0 * scale, y0 * scale, x1 * scale, y1 * scale
        out.append(((x0, y0, x1 - x0, y1 - y0), (min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1))))
    return out


def _crossings(loop: PLLoop, other: PLLoop):
    """Every transversal crossing of two lifts, as integers, in (i, j, lam) order.

    Yields (i, j, tn, rn, den, sign, offset, pden, x, y): segment i of the
    first lift meets the ``offset`` translate of segment j of the second at
    local coordinates tn/den and rn/den, with 0 < tn, rn < den; sign is the
    orientation of the frame; (x, y) / pden is the crossing point on the
    first lift. The first degenerate contact raises ``TransversalityError``,
    after the crossings that precede it.

    Both lifts are scaled to the unit u = lcm of their denominators. Segment
    i of the first lift, with closed box [alo, ahi] per axis, can meet the
    translate of segment j, box [blo, bhi], by lam only if every axis has
    ceil((alo - bhi)/u) <= lam <= floor((ahi - blo)/u). Every contact,
    degenerate or not, is a common point, so it lies in that range; the
    pairs are visited in the order (i, j, lam), so the first degenerate
    contact, and with it the ``TransversalityError`` text, is that of the
    enumeration over all deck translations of the whole lifts.
    """
    den1, den2 = loop.integer_lift()[0], other.integer_lift()[0]
    unit = math.lcm(den1, den2)
    others = _segments(other, unit // den2)
    for i, (a, (axlo, axhi, aylo, ayhi)) in enumerate(_segments(loop, unit // den1)):
        for j, (b, (bxlo, bxhi, bylo, byhi)) in enumerate(others):
            l1lo, l1hi = -((bxhi - axlo) // unit), (axhi - bxlo) // unit
            l2lo, l2hi = -((byhi - aylo) // unit), (ayhi - bylo) // unit
            if l1lo > l1hi or l2lo > l2hi:
                continue
            for l1 in range(l1lo, l1hi + 1):
                for l2 in range(l2lo, l2hi + 1):
                    found = _contact(i, a, j, b, l1, l2, unit)
                    if found is not None:
                        yield found


def _contact(i: int, a: tuple, j: int, b: tuple, l1: int, l2: int, unit: int):
    """The crossing record of segment i with the (l1, l2) translate of segment j, or None.

    a and b are the start and edge of each segment over one unit, as
    ``_segments`` gives them; the record is the one ``_crossings`` yields
    for them. Segments that do not touch give None, and a degenerate
    contact raises ``TransversalityError``. This is the one crossing test:
    ``_crossings`` runs it on every translate its boxes let through, and
    ``_inherited`` on each record it moves from a parent.
    """
    px, py, dpx, dpy = a
    qx, qy, dqx, dqy = b
    cross = dpx * dqy - dpy * dqx
    # the translate q + lam u against p + t dp, with t = tn/den, r = rn/den
    ex, ey = qx + l1 * unit - px, qy + l2 * unit - py
    if cross == 0:
        if ex * dpy - ey * dpx != 0:
            return None  # parallel and apart
        # collinear: do [lo, hi] and [0, e] overlap on an axis the first segment spans?
        lo, hi, e = (ex, ex + dqx, dpx) if dpx != 0 else (ey, ey + dqy, dpy)
        if min(lo, hi) <= max(0, e) and max(lo, hi) >= min(0, e):
            raise TransversalityError(f"collinear overlap between segments ({i}, {j})")
        return None
    den = abs(cross)
    tn, rn = ex * dqy - ey * dqx, ex * dpy - ey * dpx
    if cross < 0:
        tn, rn = -tn, -rn
    if tn < 0 or tn > den or rn < 0 or rn > den:
        return None
    if tn in (0, den) or rn in (0, den):
        raise TransversalityError(f"segments ({i}, {j}) cross at a vertex or marked point")
    sign = 1 if cross > 0 else -1
    return i, j, tn, rn, den, sign, (l1, l2), den * unit, px * den + tn * dpx, py * den + tn * dpy


def intersections(loop: PLLoop, other: PLLoop) -> list[IntersectionPoint]:
    """All transversal crossings of two loops, exact, sorted by (s, s_bar).

    The crossings of the quotient loops are enumerated as crossings of the
    first lift with every relevant deck translate of the second
    (``_crossings``); the translation is recorded in ``offset``, and the
    segment coordinates become the loop parameters s = (i + tn/den)/K1 and
    s_bar = (j + rn/den)/K2. Self-intersections of a single loop are not
    this function's business: passing the same geometric loop twice is a
    total overlap and raises.
    """
    k1, k2 = loop.num_segments, other.num_segments
    found = [
        IntersectionPoint(Fraction(i * den + tn, den * k1), Fraction(j * den + rn, den * k2), sign, offset)
        for i, j, tn, rn, den, sign, offset, *_ in _crossings(loop, other)
    ]
    found.sort(key=lambda p: (p.s, p.s_bar))
    return found


def _splice(
    loop: PLLoop, other: PLLoop, i: int, j: int, den: int, x0: int, y0: int, ox: int, oy: int, lows: tuple = ()
):
    """(unit, rows, start): the integer lift that runs around ``loop`` from a crossing, then around ``other``.

    The crossing is the point (x0, y0) / den, inside segment i of the first
    lift and inside segment j of the (ox, oy) translate of the second. The
    two lifts are spliced over unit = lcm(both denominators, the least
    denominator of the point). The rows hold every vertex of both lifts up
    to lattice translations, and the point, so unit is the lcm of their
    coordinates' denominators: gcd(unit, coordinates) = 1. The second lift
    is translated so the two circuits join, so the last row is the first
    plus unit times the sum of the two closures.

    Plain, the rows start at the crossing point, and start is None. Given
    ``lows``, the ``_alone`` of both loops, which must be normal forms,
    ``_rotation_start`` may find the start (r, sx, sy) of the rows' least
    rotation; then the rows are the ones ``geometry._least_lift`` gives for
    the plain rows, built in the same single pass. Mod the lattice, that
    rotation runs around one loop, X, from the crossing point or from X's
    vertex 0, then around the other, Y, so its rows are read off the two
    lifts in that order, with Y translated to meet X at the point. On a tie
    the rows stay plain and start is None.
    """
    (den1, pts1), (den2, pts2) = loop.integer_lift(), other.integer_lift()
    unit = math.lcm(den1, den2, den // math.gcd(den, x0, y0))
    x0, y0 = x0 * unit // den, y0 * unit // den
    start = _rotation_start(loop, other, i, j, unit, x0, y0, ox, oy, lows) if lows else None
    r = 0 if start is None else start[0]
    k1 = len(pts1) - 1
    # X's lift stays put; (px, py) is the point on it, and Y's lift is moved by tau
    if r == 0 or r == k1 - i:
        (px, py), (tx, ty) = (x0, y0), (unit * ox, unit * oy)
        lead, trail = (pts1, unit // den1, i, loop.closure), (pts2, unit // den2, j, other.closure)
    else:
        (px, py), (tx, ty) = (x0 - unit * ox, y0 - unit * oy), (-unit * ox, -unit * oy)
        lead, trail = (pts2, unit // den2, j, other.closure), (pts1, unit // den1, i, loop.closure)
    (pts, s, a, (mx, nx)), (qts, t, b, (my, ny)) = lead, trail
    wx, wy, zx, zy = unit * mx, unit * nx, unit * my, unit * ny
    if r and r != k1 + 1:
        # from X's vertex 0, which lies in [0, unit)^2: X up to the point, Y
        # around from the point, then the rest of X, past Y's closure
        vx, vy = tx + zx, ty + zy
        rows = [(x * s, y * s) for x, y in pts[: a + 1]]
        rows.append((px, py))
        rows += [(x * t + tx, y * t + ty) for x, y in qts[b + 1 :]]
        rows += [(x * t + vx, y * t + vy) for x, y in qts[1 : b + 1]]
        rows.append((px + zx, py + zy))
        rows += [(x * s + zx, y * s + zy) for x, y in pts[a + 1 :]]
        return unit, tuple(rows), start
    # from the point, moved into [0, unit)^2 for the normal form: X around
    # from the point, past its own closure, then Y around from the point
    ux, uy = (0, 0) if start is None else (px - px % unit, py - py % unit)
    px, py = px - ux, py - uy
    ex, ey = wx - ux, wy - uy
    tx, ty = tx + ex, ty + ey
    vx, vy = tx + zx, ty + zy
    rows = [(px, py)]
    rows += [(x * s - ux, y * s - uy) for x, y in pts[a + 1 :]]
    rows += [(x * s + ex, y * s + ey) for x, y in pts[1 : a + 1]]
    rows.append((px + wx, py + wy))
    rows += [(x * t + tx, y * t + ty) for x, y in qts[b + 1 :]]
    rows += [(x * t + vx, y * t + vy) for x, y in qts[1 : b + 1]]
    rows.append((px + wx + zx, py + wy + zy))
    return unit, tuple(rows), start


def concatenate(loop: PLLoop, other: PLLoop, p: IntersectionPoint) -> PLLoop:
    """The loop that runs around ``loop`` from p and then around ``other``.

    The marked point of the result is p = x0 / den = ``loop.lift_point(p.s)``,
    which must equal ``other.lift_point(p.s_bar)`` plus the offset, or the
    record is stale. Segment i = floor(s K) holds s, the last one s = 1.
    The rows are ``_splice``'s plain rows, which start at p (the bracket
    asks it for the normal form's instead); here they are built into a
    validated ``PLLoop._from_lift``, whose gcd and closure passes find them
    reduced and closing up.
    """
    den, (x0, y0) = loop.lift_point(p.s)
    dbar, (xb, yb) = other.lift_point(p.s_bar)
    ox, oy = p.offset
    if x0 * dbar != (xb + ox * dbar) * den or y0 * dbar != (yb + oy * dbar) * den:
        raise ValueError("stale intersection point: the loops do not meet at (s, s_bar, offset)")
    k1, k2 = loop.num_segments, other.num_segments
    i = min(p.s.numerator * k1 // p.s.denominator, k1 - 1)
    j = min(p.s_bar.numerator * k2 // p.s_bar.denominator, k2 - 1)
    unit, rows, _ = _splice(loop, other, i, j, den, x0, y0, ox, oy)
    return PLLoop._from_lift(loop.space, unit, rows)


# ---------------------------------------------------------------------------
# formal cycles


# the one space: ``Torus`` takes d = 2 only, so every loop lives on it
_TORUS = Torus(2)


def _combine(terms) -> tuple[tuple[int, PLLoop], ...]:
    """Sum (coefficient, closure, den, rows) terms per normal form; drop zeros; sort.

    Each term is a loop's normal form as integers, ``geometry._least_lift``'s
    (den, rows) with the loop's closure, and (den, rows) is the integer
    lift of the loop it stands for, which fixes its vertices and closure:
    the terms are summed keyed by it. Only a term whose coefficient
    survives becomes a ``PLLoop``, stored as it is (``PLLoop._normal``), so
    terms that cancel build no loop. The kept terms are sorted by their
    rows scaled to one common denominator (``_by_rows``). The first K rows
    are the vertices and the last is the first plus the closure times that
    denominator, so this is the order of (vertices, closure) unless one
    loop's vertices begin another's.
    """
    combined: dict[tuple, list] = {}
    for coeff, closure, den, rows in terms:
        entry = combined.setdefault((den, rows), [0, closure])
        entry[0] += coeff
    kept = sorted((item for item in combined.items() if item[1][0] != 0), key=lambda item: _by_rows(item[0]))
    return tuple((coeff, PLLoop._normal(_TORUS, closure, *lift)) for lift, (coeff, closure) in kept)


@functools.cmp_to_key
def _by_rows(x, y) -> int:
    """Order integer lifts by their rows scaled to one common denominator.

    Row entries a/dx and b/dy compare as a * dy and b * dx, so nothing is
    scaled beyond the first entry that differs.
    """
    (dx, px), (dy, py) = x, y
    for (a, b), (c, d) in zip(px, py):
        a, c = a * dy, c * dx
        if a != c:
            return -1 if a < c else 1
        b, d = b * dy, d * dx
        if b != d:
            return -1 if b < d else 1
    return len(px) - len(py)


class StringCycle:
    """Formal integer combination of loops, each stored rotation-normalized.

    A stored loop is its own normal form, so its integer lift is its key:
    only the constructor normalizes, and equality and hashing work on the
    stored keys. A sum or a multiple is built as a new cycle from the
    terms, ``StringCycle(a.terms + b.terms)``. Its loops live on the one
    torus. A coefficient is an int; any other type, bool included, raises
    ``TypeError``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, PLLoop]] = ()) -> None:
        normal = []
        for coeff, loop in terms:
            lift = _least_lift(*loop.integer_lift(), loop.closure)
            normal.append((_integer(coeff, "a coefficient"), loop.closure, *lift))
        self.terms = _combine(normal)

    @classmethod
    def _of(cls, terms) -> "StringCycle":
        """Cycle of (coefficient, closure, den, rows) terms that are normal forms already (``_combine``)."""
        cycle = cls.__new__(cls)
        cycle.terms = _combine(terms)
        return cycle

    @classmethod
    def from_loop(cls, loop: PLLoop) -> "StringCycle":
        return cls([(1, loop)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _keys(self) -> tuple:
        return tuple((c, l.integer_lift()) for c, l in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StringCycle):
            return NotImplemented
        return self._keys() == other._keys()

    def __hash__(self):
        return hash(self._keys())

    def class_reduction(self) -> dict[tuple[int, ...], int]:
        """Coefficients per free homotopy class."""
        out: dict[tuple[int, ...], int] = {}
        for coeff, loop in self.terms:
            out[loop.closure] = out.get(loop.closure, 0) + coeff
        return {k: v for k, v in out.items() if v != 0}

    def __repr__(self) -> str:
        return f"StringCycle(torus, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# the bracket


def degree_zero_prefactor(bar_degree: int, degree: int) -> int:
    """Bracket prefactor (-1)^{bar_degree (d + degree)} on the surface, d = 2;
    +1 at degree 0."""
    return -1 if (bar_degree * (2 + degree)) % 2 else 1


def jacobi_eta(parity_a: int, parity_c: int) -> int:
    """Cyclic-sum sign (-1)^{(|a|+d)(|c|+d)} on the surface, d = 2; +1 at
    degree 0."""
    return -1 if ((parity_a + 2) * (parity_c + 2)) % 2 else 1


def _alone(loop: PLLoop) -> bool:
    """Whether no other vertex of the loop's lift (den, P_0..P_K) reduces to P_0 mod den.

    A stored loop is a normal form, so P_0 is its least vertex mod den, in
    [0, den)^2, and this fails only on a tie.
    """
    den, pts = loop.integer_lift()
    return [(x % den, y % den) for x, y in pts[:-1]].count(pts[0]) == 1


def _rotation_start(loop: PLLoop, other: PLLoop, i: int, j: int, unit: int, x: int, y: int, ox: int, oy: int, lows):
    """(r, sx, sy): where the least rotation of a splice starts, or None on a tie.

    The splice is ``_splice``'s, at the crossing (x, y) / unit in segments
    i and j, with the second loop translated by (ox, oy). Both loops are
    normal forms, so each one's vertex 0 is its least vertex mod its
    denominator, in [0, den)^2; lows say whether it is alone there
    (``_alone``). r is the row of the plain rows that the least rotation
    starts at, and (sx, sy) the floor of that row over unit, the lattice
    vector the rotation subtracts. Both come from the loops' vertices,
    without the rows. Mod unit, the vertices of the plain rows are the
    crossing point, at rows 0 and K1 + 1, and each vertex of the two loops
    once, scaled by unit over its loop's denominator. So the least token
    (``geometry._least_lift``) sits at the least of the crossing point and
    the two loops' vertices 0, when one of them is strictly least:

    - the crossing point's two copies are ordered by their outgoing
      edges, which differ, since the crossing is transversal; row K1 + 1
      is row 0 plus unit times the first closure C1;
    - the first loop's vertex 0, when it is alone, is row K1 - i, which
      holds P_K1 s1 = P_0 s1 + unit C1;
    - the second loop's vertex 0 is row K1 + 1 + K2 - j, which holds
      Q_K2 s2 + unit (offset + C1) = Q_0 s2 + unit (offset + C1 + C2).

    Otherwise, on a tie between these points or inside a loop, only the
    token scan (``geometry._least_token``) can tell the row, and None is
    returned.
    """
    first, second = lows
    (den1, pts1), (den2, pts2) = loop.integer_lift(), other.integer_lift()
    s1, s2 = unit // den1, unit // den2
    k1 = len(pts1) - 1
    p = x % unit, y % unit
    (ax, ay), (bx, by) = pts1[0], pts2[0]
    a, b = (ax * s1, ay * s1), (bx * s2, by * s2)
    m1, n1 = loop.closure
    if p < a and p < b:
        (x1, y1), (x2, y2) = pts1[i + 1], pts2[j + 1]
        sx, sy = x // unit, y // unit
        # rows 1 and K1 + 2 less rows 0 and K1 + 1: the two outgoing edges
        if (x1 * s1 - x, y1 * s1 - y) < (x2 * s2 + unit * ox - x, y2 * s2 + unit * oy - y):
            return 0, sx, sy
        return k1 + 1, sx + m1, sy + n1
    if a < p and a < b and first:
        return k1 - i, m1, n1
    if b < p and b < a and second:
        m2, n2 = other.closure
        return k1 + len(pts2) - j, ox + m1 + m2, oy + n1 + n2
    return None


def _bracket_terms(a: StringCycle, abar: StringCycle, crossings=None, origins: dict | None = None):
    """The raw (coefficient, closure, unit, rows) terms of {a; abar}, one per crossing.

    Each crossing goes from ``_crossings`` to ``_splice`` on integers, and
    ``_splice`` returns the term's normal-form rows in one pass: a lift over
    its least denominator whose closure is the sum of the two closures,
    rotated to the start ``_rotation_start`` finds from the crossing and
    each loop's vertex 0, the least since the loops are normal forms, and
    whether it is alone (``_alone``, taken once per loop). On a tie (about
    6% of terms) the rows come back plain, and ``geometry._least_lift``
    finds their least rotation by the token scan. No loop is built here:
    (unit, rows) is the integer lift of the term's loop, the key
    ``_combine`` sums by, and the combine builds a loop only for a
    coefficient that survives.

    ``crossings(gamma, gammabar)``, when given, stands in for
    ``_crossings`` and must give the same records. ``origins``, when given,
    maps the (unit, rows) of a spliced term whose start the splice found to
    where it was spliced: (gamma, gammabar, i, j, ox, oy, r, sx, sy, alone),
    with r the row its least rotation starts at, (sx, sy) the lattice
    vector that rotation subtracts, and alone the term's ``_alone``, read
    off the splice. On a repeated key the first origin stands. A loop of
    ``a`` that ``origins`` holds is such a term: its crossings are
    inherited from its parents' records (``_inherited``), its ``_alone`` is
    read off its origin, and the terms it makes are not recorded. Every
    other loop of ``a``, a tied term included, is searched by
    ``crossings``, and the terms it makes are recorded.
    """
    pref = degree_zero_prefactor(0, 0)
    if crossings is None:
        crossings = _crossings
    lows = [_alone(gammabar) for _, gammabar in abar.terms]
    for m, gamma in a.terms:
        origin = None if origins is None else origins.get(gamma.integer_lift())
        low = _alone(gamma) if origin is None else origin[-1]
        record = origins is not None and origin is None
        k1 = gamma.num_segments
        for (mbar, gammabar), lowbar in zip(abar.terms, lows):
            closure = tuple(map(operator.add, gamma.closure, gammabar.closure))
            if origin is None:
                records = crossings(gamma, gammabar)
            else:
                records = _inherited(origins, crossings, gamma, gammabar)
            for i, j, _, _, _, sign, (ox, oy), den, x, y in records:
                unit, rows, start = _splice(gamma, gammabar, i, j, den, x, y, ox, oy, (low, lowbar))
                if start is None:
                    unit, rows = _least_lift(unit, rows, closure)
                elif record:
                    # row 0 is least; a loop's vertex 0 holds it alone, the crossing point twice
                    alone = start[0] not in (0, k1 + 1)
                    origins.setdefault((unit, rows), (gamma, gammabar, i, j, ox, oy, *start, alone))
                yield pref * m * mbar * sign, closure, unit, rows


def _inherited(origins: dict, pair, loop: PLLoop, other: PLLoop):
    """The records of ``_crossings(loop, other)`` for an inner-bracket term, from its parents' records.

    ``origins[loop.integer_lift()]`` says where the term was spliced
    (``_bracket_terms``), and ``pair(gamma, other)`` gives the records of a
    parent with ``other``. Mod the lattice, the term's segments are its
    parents', with segment i of gamma and segment j of gammabar each split
    at the crossing point p, in the order of ``_splice``'s plain rows, then
    rotated to start at row r:

    - segment q of gamma is splice row (q - i) mod K1, shifted by the first
      closure when q < i; segment i gives both halves, rows 0 and K1;
    - segment q of gammabar is row K1 + 1 + (q - j) mod K2, shifted by the
      crossing's offset plus the first closure, and by the second closure
      too when q < j; segment j gives rows K1 + 1 and K1 + 1 + K2;
    - row m is the term's segment m - r, shifted by -(sx, sy), or, when
      m < r, segment m - r + K1 + K2 + 2, shifted by the closure too.

    So a parent record (q, j', lam) gives the candidate (k, j', lam plus
    the shift) on each piece k of segment q. The candidates are tested in
    ``_crossings``' (i, j, lam) order by its own test, ``_contact``, on the
    term's segments, so the records come out as ``_crossings`` yields them:
    every contact of the term with ``other`` lies on a parent's record.
    A degenerate one either makes a parent pair raise, and the term is
    searched by ``_crossings`` so that the error names its segments, or
    lies at p, on a candidate of every half, where ``_contact`` raises
    as ``_crossings`` would.
    """
    gamma, gammabar, i, j, ox, oy, r, sx, sy, _ = origins[loop.integer_lift()]
    try:
        first, second = pair(gamma, other), pair(gammabar, other)
    except TransversalityError:
        return _crossings(loop, other)
    k1, k2 = gamma.num_segments, gammabar.num_segments
    (ax, ay), (bx, by) = gamma.closure, gammabar.closure
    size, wx, wy = k1 + k2 + 2, ax + bx - sx, ay + by - sy
    candidates = []
    # per parent: its records, its first splice row, its split segment and
    # length, and its lattice shift before and after its own wrap
    for records, base, split, k, tx, ty, cx, cy in (
        (first, 0, i, k1, 0, 0, ax, ay),
        (second, k1 + 1, j, k2, ox + ax, oy + ay, ox + ax + bx, oy + ay + by),
    ):
        for q, jz, _, _, _, _, (l1, l2), _, _, _ in records:
            if q > split:
                pieces = ((base + q - split, tx, ty),)
            elif q < split:
                pieces = ((base + q - split + k, cx, cy),)
            else:
                pieces = ((base, tx, ty), (base + k, cx, cy))
            for m, dx, dy in pieces:
                if m >= r:
                    candidates.append((m - r, jz, l1 + dx - sx, l2 + dy - sy))
                else:
                    candidates.append((m - r + size, jz, l1 + dx + wx, l2 + dy + wy))
    candidates.sort()
    (den1, pts), (den2, pts2) = loop.integer_lift(), other.integer_lift()
    unit = math.lcm(den1, den2)
    s1, s2 = unit // den1, unit // den2
    out = []
    for k, jz, l1, l2 in candidates:
        # the two segments' starts and edges over the unit, as ``_segments`` scales them
        (x0, y0), (x1, y1) = pts[k], pts[k + 1]
        (u0, v0), (u1, v1) = pts2[jz], pts2[jz + 1]
        a = x0 * s1, y0 * s1, (x1 - x0) * s1, (y1 - y0) * s1
        b = u0 * s2, v0 * s2, (u1 - u0) * s2, (v1 - v0) * s2
        found = _contact(k, a, jz, b, l1, l2, unit)
        if found is not None:
            out.append(found)
    return out


def string_bracket(a: StringCycle, abar: StringCycle) -> StringCycle:
    """Degree-0 bracket: signed concatenations over all crossings, bilinear.

    Each term is one crossing spliced into its normal form on the integers
    (``_bracket_terms``); no ``IntersectionPoint`` or ``Fraction`` is
    built. The terms are combined once, and each kept term is stored as
    one ``PLLoop``.
    """
    return StringCycle._of(_bracket_terms(a, abar))


def _jacobi_sums(a: StringCycle, b: StringCycle, c: StringCycle) -> tuple[StringCycle, list[int]]:
    """(residual, totals): ``jacobi_residual``, and the coefficient sum of
    each summand {{x;y};z}, before eta, in the order (a, b, c), (b, c, a),
    (c, a, b). On single loops every term of {{x;y};z} has closure x+y+z,
    so its total is Goldman's (x.y)((x+y).z), which outer brackets that
    lost their crossings would miss. Each summand's two brackets share one
    ``origins`` (``_bracket_terms``): every inner term whose start the
    splice found inherits its crossings with z, and a tied one is searched.
    """
    eta = jacobi_eta(0, 0)
    found = {}

    def pair(gamma: PLLoop, gammabar: PLLoop) -> list:
        """The crossing records of two loops, searched once; a pair that raises is not kept."""
        key = gamma, gammabar
        if key not in found:
            found[key] = list(_crossings(gamma, gammabar))
        return found[key]

    terms, totals = [], []
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        origins = {}
        inner = StringCycle._of(_bracket_terms(x, y, pair, origins))
        total = 0
        for k, closure, unit, rows in _bracket_terms(inner, z, pair, origins):
            total += k
            terms.append((eta * k, closure, unit, rows))
        totals.append(total)
    return StringCycle._of(terms), totals


def jacobi_residual(a: StringCycle, b: StringCycle, c: StringCycle) -> StringCycle:
    """Signed cyclic sum eta(x,z) {{x;y};z}, formed on chains.

    The inner brackets {x;y} are combined cycles; the raw terms of the
    three outer brackets are gathered as integer rows and combined once,
    which gives the cycle that summing the three outer cycles gives, and
    builds a loop only for a term the sum keeps.

    The crossing records of each pair of input loops are enumerated once
    per call, on first use. Every inner term whose start the splice found
    inherits its crossings with z from the records of its two parents with
    z (``_inherited``), and its ``_alone`` is read off its splice.
    ``_crossings`` is the oracle they must equal record for record and
    error for error (``tests/test_strings.py``); it runs on such a term
    only when a parent pair raises, so what raises is the plain bracket's.
    A tied inner term is searched with z as an input loop is.

    Its class reduction is zero (Goldman). The suite checks the stronger
    statement that the chain itself is zero, which held on every
    non-degenerate random triple tested (``tests/test_strings.py``), and
    that each summand's coefficient total is Goldman's (``_jacobi_sums``).
    """
    return _jacobi_sums(a, b, c)[0]


# ---------------------------------------------------------------------------
# independent torus oracle


def goldman_torus(c1: Sequence[int], c2: Sequence[int]) -> tuple[int, tuple[int, int]]:
    """Signed crossing count of straight torus lines of two classes.

    Counts solutions of b1 + t c1 = b2 + r c2 + lam over deck vectors lam
    with t, r in [0, 1), from the fixed generic base points b1 = 0 and
    b2 = (1/97, 1/89), summing frame signs. Returns (count, componentwise
    class sum). Everything is scaled by 97 * 89 * |det(c1, c2)|, so t and
    r are integers tn, rn and the test is 0 <= tn, rn < span; the deck
    range of a coordinate is then the integers m <= lam < M whose bounds
    m, M come from the classes alone.

    The class entries are ints; any other type, bool included, raises
    ``TypeError``.

    This is an oracle: it shares nothing with the bracket machinery and no
    bracket computation calls it; checks compare ``string_bracket`` class
    reductions against it, so it must stay independent of ``intersections``.
    """
    c1, c2 = (tuple(_integer(c, "a class entry") for c in cls) for cls in (c1, c2))
    total = (c1[0] + c2[0], c1[1] + c2[1])
    den = c1[0] * c2[1] - c1[1] * c2[0]
    if den == 0:
        # a zero class, or parallel classes: distinct parallel lines never cross
        return 0, total
    sign = 1 if den > 0 else -1
    span = 97 * 89 * abs(den)
    count = 0
    for l1 in range(min(0, c1[0]) - max(0, c2[0]), max(0, c1[0]) - min(0, c2[0])):
        x = 89 * (1 + 97 * l1)  # 97 * 89 * (b2 + lam), first coordinate
        for l2 in range(min(0, c1[1]) - max(0, c2[1]), max(0, c1[1]) - min(0, c2[1])):
            y = 97 * (1 + 89 * l2)
            tn = sign * (c2[1] * x - c2[0] * y)
            rn = sign * (c1[1] * x - c1[0] * y)
            if 0 <= tn < span and 0 <= rn < span:
                count += sign
    return count, total
