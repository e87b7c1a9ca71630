"""Transversal loop intersections, concatenation, and the surface bracket.

Everything here is exact. Crossings are found on integers: both lifts
are scaled to one common denominator (``PLLoop.integer_lift``), crossings
are tested with integer cross products, and a crossing found is recorded
as its two parameters (``Fraction``), its sign and its deck offset. Each
segment pair is tried against the deck translations that bring the two
closed segment boxes together, one integer range per axis. ``concatenate``
reads the crossing off both integer lifts (``PLLoop.lift_point``) and
splices them, as 2-D integer rows over one common denominator, into one
``PLLoop._from_lift``; ``PLLoop.canonical`` stores the least rotation of
those rows without validating them again. So a bracket output stays on
integers from its crossing to its stored term. Formal cycles carry integer
coefficients on rotation-normalized loops. Non-transversal contact
(overlapping segments, crossings at vertices or marked points) raises
``TransversalityError`` instead of being perturbed away silently.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from stringtop.geometry import PLLoop


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


def _segments(loop: PLLoop, scale: int) -> list[tuple[int, ...]]:
    """Per segment of the integer lift times ``scale``: start, edge, closed box."""
    out = []
    _, pts = loop.integer_lift()
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        x0, y0, x1, y1 = x0 * scale, y0 * scale, x1 * scale, y1 * scale
        out.append((x0, y0, x1 - x0, y1 - y0, min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1)))
    return out


def intersections(loop: PLLoop, other: PLLoop) -> list[IntersectionPoint]:
    """All transversal crossings of two loops, exact, sorted by (s, s_bar).

    The crossings of the quotient loops are enumerated as crossings of the
    first lift with every relevant deck translate of the second; the
    translation is recorded in ``offset``. Self-intersections of a single
    loop are not this function's business: passing the same geometric
    loop twice is a total overlap and raises.

    Both lifts are scaled to the unit u = lcm of their denominators. Segment
    i of the first lift, with closed box [alo, ahi] per axis, can meet the
    translate of segment j, box [blo, bhi], by lam only if every axis has
    ceil((alo - bhi)/u) <= lam <= floor((ahi - blo)/u). Every contact,
    degenerate or not, is a common point, so it lies in that range; the
    pairs are visited in the order (i, j, lam), so the first degenerate
    contact, and with it the ``TransversalityError`` text, is that of the
    enumeration over all deck translations of the whole lifts.
    """
    k1, k2 = loop.num_segments, other.num_segments
    den1, den2 = loop.integer_lift()[0], other.integer_lift()[0]
    unit = math.lcm(den1, den2)
    others = _segments(other, unit // den2)
    found = []
    for i, (px, py, dpx, dpy, axlo, axhi, aylo, ayhi) in enumerate(_segments(loop, unit // den1)):
        row = []  # crossings on segment i, at i/K1 < s < (i + 1)/K1
        for j, (qx, qy, dqx, dqy, bxlo, bxhi, bylo, byhi) in enumerate(others):
            l1lo, l1hi = -((bxhi - axlo) // unit), (axhi - bxlo) // unit
            l2lo, l2hi = -((byhi - aylo) // unit), (ayhi - bylo) // unit
            if l1lo > l1hi or l2lo > l2hi:
                continue
            cross = dpx * dqy - dpy * dqx
            den = abs(cross)
            for l1 in range(l1lo, l1hi + 1):
                for l2 in range(l2lo, l2hi + 1):
                    # the translate q + lam u against p + t dp, with t = tn/den, r = rn/den
                    ex, ey = qx + l1 * unit - px, qy + l2 * unit - py
                    if cross == 0:
                        if ex * dpy - ey * dpx != 0:
                            continue  # parallel and apart
                        # collinear: do [a, b] and [0, e] overlap on an axis the first segment spans?
                        a, b, e = (ex, ex + dqx, dpx) if dpx != 0 else (ey, ey + dqy, dpy)
                        if min(a, b) <= max(0, e) and max(a, b) >= min(0, e):
                            raise TransversalityError(f"collinear overlap between segments ({i}, {j})")
                        continue
                    tn, rn = ex * dqy - ey * dqx, ex * dpy - ey * dpx
                    if cross < 0:
                        tn, rn = -tn, -rn
                    if tn < 0 or tn > den or rn < 0 or rn > den:
                        continue
                    if tn in (0, den) or rn in (0, den):
                        raise TransversalityError(
                            f"segments ({i}, {j}) cross at a vertex or marked point"
                        )
                    row.append(
                        IntersectionPoint(
                            s=Fraction(i * den + tn, den * k1),
                            s_bar=Fraction(j * den + rn, den * k2),
                            sign=1 if cross > 0 else -1,
                            offset=(l1, l2),
                        )
                    )
        found += sorted(row, key=lambda p: (p.s, p.s_bar))
    return found


def concatenate(loop: PLLoop, other: PLLoop, p: IntersectionPoint) -> PLLoop:
    """The loop that runs around ``loop`` from p and then around ``other``.

    The marked point of the result is p = x0 / den = ``loop.lift_point(p.s)``,
    which must equal ``other.lift_point(p.s_bar)`` plus the offset, or the
    record is stale. Segment i = floor(s K) holds s, the last one s = 1.
    The two integer lifts are spliced over unit = lcm(both denominators,
    the least denominator of p), so unit is the least denominator of the
    result; the second lift is translated so the two circuits join, and the
    closure vectors add.
    """
    den, (x0, y0) = loop.lift_point(p.s)
    dbar, (xb, yb) = other.lift_point(p.s_bar)
    ox, oy = p.offset
    if x0 * dbar != (xb + ox * dbar) * den or y0 * dbar != (yb + oy * dbar) * den:
        raise ValueError("stale intersection point: the loops do not meet at (s, s_bar, offset)")
    k1, k2 = loop.num_segments, other.num_segments
    i = min(p.s.numerator * k1 // p.s.denominator, k1 - 1)
    j = min(p.s_bar.numerator * k2 // p.s_bar.denominator, k2 - 1)
    (den1, pts1), (den2, pts2) = loop.integer_lift(), other.integer_lift()
    (m1, n1), (m2, n2) = loop.closure, other.closure
    unit = math.lcm(den1, den2, den // math.gcd(den, x0, y0))
    s1, s2 = unit // den1, unit // den2
    x0, y0 = x0 * unit // den, y0 * unit // den
    # lift vertices i + 1 .. i + K1 of the first loop lead to p + closure (w);
    # the second lift is translated there, by tau = unit (offset + closure of
    # the first), and past its own wrap by tau plus unit times its closure (v)
    wx, wy = unit * m1, unit * n1
    tx, ty = unit * ox + wx, unit * oy + wy
    vx, vy = tx + unit * m2, ty + unit * n2
    rows = [(x0, y0)]
    rows += [(x * s1, y * s1) for x, y in pts1[i + 1 :]]
    rows += [(x * s1 + wx, y * s1 + wy) for x, y in pts1[1 : i + 1]]
    rows.append((x0 + wx, y0 + wy))
    rows += [(x * s2 + tx, y * s2 + ty) for x, y in pts2[j + 1 :]]
    rows += [(x * s2 + vx, y * s2 + vy) for x, y in pts2[1 : j + 1]]
    rows.append((x0 + wx + unit * m2, y0 + wy + unit * n2))
    return PLLoop._from_lift(loop.space, unit, tuple(rows))


# ---------------------------------------------------------------------------
# formal cycles


def _combine(terms) -> tuple[tuple[int, PLLoop], ...]:
    """Sum the coefficients of normal-form loops per loop; drop zeros; sort.

    A loop is keyed by its integer lift, which fixes its vertices and
    closure. The terms are sorted by their lift rows scaled to one common
    denominator (``_by_rows``). The first K rows are the vertices and the
    last is the first plus the closure times that denominator, so this is
    the order of (vertices, closure) unless one loop's vertices begin
    another's.
    """
    combined: dict[tuple, list] = {}
    for coeff, loop in terms:
        entry = combined.setdefault(loop.integer_lift(), [0, loop])
        entry[0] += int(coeff)
    kept = sorted((item for item in combined.items() if item[1][0] != 0), key=lambda item: _by_rows(item[0]))
    return tuple((coeff, loop) for _, (coeff, loop) in kept)


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
    only the constructor normalizes, and sums, scalings, equality and
    hashing work on the stored keys. The cycle has no space of its own:
    it lives where its loops do.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, PLLoop]] = ()) -> None:
        canonical = []
        for coeff, loop in terms:
            canonical.append((coeff, loop.canonical()))
        self.terms = _combine(canonical)

    @classmethod
    def _of(cls, terms) -> "StringCycle":
        """Cycle of terms whose loops are already normal forms."""
        cycle = cls.__new__(cls)
        cycle.terms = _combine(terms)
        return cycle

    @classmethod
    def from_loop(cls, loop: PLLoop) -> "StringCycle":
        return cls([(1, loop)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "StringCycle") -> "StringCycle":
        return StringCycle._of(self.terms + other.terms)

    def scale(self, k: int) -> "StringCycle":
        """k times the cycle; for k != 0 the stored terms keep their order."""
        if k == 0:
            return StringCycle()
        cycle = StringCycle.__new__(StringCycle)
        cycle.terms = tuple((k * c, loop) for c, loop in self.terms)
        return cycle

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


def string_bracket(a: StringCycle, abar: StringCycle) -> StringCycle:
    """Degree-0 bracket: signed concatenations over all crossings, bilinear."""
    pref = degree_zero_prefactor(0, 0)
    out = []
    for m, gamma in a.terms:
        for mbar, gammabar in abar.terms:
            for p in intersections(gamma, gammabar):
                out.append((pref * m * mbar * p.sign, concatenate(gamma, gammabar, p)))
    return StringCycle(out)


def jacobi_residual(a: StringCycle, b: StringCycle, c: StringCycle) -> StringCycle:
    """Signed cyclic sum eta(x,z) {{x;y};z}, formed on chains.

    Its class reduction is zero (Goldman). The suite checks the stronger
    statement that the chain itself is zero, which held on every
    non-degenerate random triple tested (``tests/test_strings.py``).
    """
    out = StringCycle()
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        out = out + string_bracket(string_bracket(x, y), z).scale(jacobi_eta(0, 0))
    return out


# ---------------------------------------------------------------------------
# independent torus oracle


def goldman_torus(c1: Sequence[int], c2: Sequence[int]) -> tuple[int, tuple[int, int]]:
    """Signed crossing count of straight torus lines of two classes.

    Counts solutions of b1 + t c1 = b2 + r c2 + lam over deck vectors lam
    with t, r in [0, 1), from fixed generic base points, summing frame
    signs. Returns (count, componentwise class sum).

    This is an oracle: it shares nothing with the bracket machinery and no
    bracket computation calls it; checks compare ``string_bracket`` class
    reductions against it, so it must stay independent of ``intersections``.
    """
    c1 = (int(c1[0]), int(c1[1]))
    c2 = (int(c2[0]), int(c2[1]))
    total = (c1[0] + c2[0], c1[1] + c2[1])
    if c1 == (0, 0) or c2 == (0, 0):
        return 0, total
    b2 = (Fraction(1, 97), Fraction(1, 89))
    den = c1[0] * c2[1] - c1[1] * c2[0]
    if den == 0:
        # parallel classes: distinct parallel lines never cross
        return 0, total
    count = 0
    l1_range = range(
        math.ceil(min(0, c1[0]) - max(0, c2[0]) - b2[0]),
        math.floor(max(0, c1[0]) - min(0, c2[0]) - b2[0]) + 1,
    )
    l2_range = range(
        math.ceil(min(0, c1[1]) - max(0, c2[1]) - b2[1]),
        math.floor(max(0, c1[1]) - min(0, c2[1]) - b2[1]) + 1,
    )
    for l1 in l1_range:
        for l2 in l2_range:
            rhs = (b2[0] + l1, b2[1] + l2)
            t = (c2[1] * rhs[0] - c2[0] * rhs[1]) / den
            r = (c1[1] * rhs[0] - c1[0] * rhs[1]) / den
            if 0 <= t < 1 and 0 <= r < 1:
                count += 1 if den > 0 else -1
    return count, total
