"""Transversal loop intersections, concatenation, and the surface bracket.

Everything here is exact. Crossings are found on integers: both lifts
are scaled to one common denominator (``PLLoop.integer_lift``), crossings
are tested with integer cross products, and ``Fraction`` values are built
only for the crossings found. On the torus each segment pair is tried
against the deck translations that bring the two closed segment boxes
together, one integer range per axis; on a chart a pair is tried only if
its boxes overlap. ``concatenate`` splices the two integer lifts over one
common denominator and builds the result from its lift, as
``PLLoop.canonical`` does, so a bracket output stays on integers from its
crossing to its stored term; its ``Fraction`` vertices are formed only on
demand. Formal cycles carry integer coefficients on rotation-normalized
loops. Non-transversal contact (overlapping segments, crossings at
vertices or marked points) raises ``TransversalityError`` instead of
being perturbed away silently.

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

from stringtop.geometry import PLLoop, Torus


class TransversalityError(ValueError):
    """Loops touch non-transversally; the caller must perturb and retry."""


@dataclass(frozen=True)
class IntersectionPoint:
    """One transversal crossing of two loops.

    s, s_bar: loop parameters of the crossing on each loop;
    point: crossing location on the first loop's lift;
    sign: orientation of the (velocity, bar-velocity) frame, +1 or -1;
    offset: deck translation with gamma(s) = gammabar(s_bar) + offset
    (zero on a chart).
    """

    s: Fraction
    s_bar: Fraction
    point: tuple[Fraction, ...]
    sign: int
    offset: tuple[int, ...]


def _cross(u, v) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


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

    On the torus the crossings of the quotient loops are enumerated as
    crossings of the first lift with every relevant deck translate of the
    second; the translation is recorded in ``offset``. Self-intersections
    of a single loop are not this function's business: passing the same
    geometric loop twice is a total overlap and raises.

    Both lifts are scaled to the unit u = lcm of their denominators. Segment
    i of the first lift, with closed box [alo, ahi] per axis, can meet the
    translate of segment j, box [blo, bhi], by lam only if every axis has
    ceil((alo - bhi)/u) <= lam <= floor((ahi - blo)/u). Every contact,
    degenerate or not, is a common point, so it lies in that range; the
    pairs are visited in the order (i, j, lam), so the first degenerate
    contact, and with it the ``TransversalityError`` text, is that of the
    enumeration over all deck translations of the whole lifts.
    """
    if loop.space != other.space:
        raise ValueError("loops live on different spaces")
    if loop.space.d != 2:
        raise ValueError("intersections are implemented for d = 2 only")
    k1, k2 = loop.num_segments, other.num_segments
    den1, den2 = loop.integer_lift()[0], other.integer_lift()[0]
    unit = math.lcm(den1, den2)
    torus = isinstance(loop.space, Torus)
    others = _segments(other, unit // den2)
    found = []
    for i, (px, py, dpx, dpy, axlo, axhi, aylo, ayhi) in enumerate(_segments(loop, unit // den1)):
        for j, (qx, qy, dqx, dqy, bxlo, bxhi, bylo, byhi) in enumerate(others):
            if torus:
                l1s = range(-((bxhi - axlo) // unit), (axhi - bxlo) // unit + 1)
                l2s = range(-((byhi - aylo) // unit), (ayhi - bylo) // unit + 1)
            elif axlo <= bxhi and bxlo <= axhi and aylo <= byhi and bylo <= ayhi:
                l1s = l2s = (0,)
            else:
                continue
            cross = dpx * dqy - dpy * dqx
            den = abs(cross)
            for l1 in l1s:
                for l2 in l2s:
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
                    found.append(
                        IntersectionPoint(
                            s=Fraction(i * den + tn, den * k1),
                            s_bar=Fraction(j * den + rn, den * k2),
                            point=(
                                Fraction(px * den + tn * dpx, unit * den),
                                Fraction(py * den + tn * dpy, unit * den),
                            ),
                            sign=1 if cross > 0 else -1,
                            offset=(l1, l2),
                        )
                    )
    found.sort(key=lambda p: (p.s, p.s_bar))
    return found


def _on_segment(loop: PLLoop, t, point, offset) -> int | None:
    """The segment index of t if ``point`` is loop(t) + offset, else None.

    The test is an exact cross-multiplication against the integer lift
    segment: with t at local coordinate u = un/ud of segment i over den,
    point * den * ud == P_i * ud + un * (P_{i+1} - P_i) + offset * den * ud.
    """
    i, u = loop.segment_of(t)
    den, pts = loop.integer_lift()
    un, ud = u.numerator, u.denominator
    for c, a, b, o in zip(point, pts[i], pts[i + 1], offset):
        if c.numerator * den * ud != c.denominator * (a * ud + un * (b - a) + o * den * ud):
            return None
    return i


def concatenate(loop: PLLoop, other: PLLoop, p: IntersectionPoint) -> PLLoop:
    """The loop that runs around ``loop`` from p and then around ``other``.

    The marked point of the result is p. The two integer lifts are spliced
    over unit = lcm(both denominators, the denominators of p.point), at
    the exact crossing parameters; on the torus the second lift is
    translated so the two circuits join, and the closure vectors add.
    """
    i = _on_segment(loop, p.s, p.point, (0,) * loop.space.d)
    if i is None:
        raise ValueError("stale intersection point: not on the first loop")
    j = _on_segment(other, p.s_bar, p.point, p.offset)
    if j is None:
        raise ValueError("stale intersection point: not on the second loop")
    (den1, pts1), (den2, pts2) = loop.integer_lift(), other.integer_lift()
    unit = math.lcm(den1, den2, *(c.denominator for c in p.point))
    s1, s2 = unit // den1, unit // den2
    start = tuple(c.numerator * (unit // c.denominator) for c in p.point)
    # lift vertices i + 1 .. i + K1 of the first loop lead to p + closure;
    # the second lift is translated there: tau = offset + closure of the first
    wrap1 = tuple(unit * m for m in loop.closure)
    wrap2 = tuple(den2 * m for m in other.closure)
    tau = tuple(unit * (o + m) for o, m in zip(p.offset, loop.closure))
    rows = [start]
    rows += [tuple(c * s1 for c in q) for q in pts1[i + 1 :]]
    rows += [tuple(c * s1 + w for c, w in zip(q, wrap1)) for q in pts1[1 : i + 1]]
    rows.append(tuple(a + w for a, w in zip(start, wrap1)))
    rows += [tuple(c * s2 + t for c, t in zip(q, tau)) for q in pts2[j + 1 :]]
    rows += [tuple((c + w) * s2 + t for c, w, t in zip(q, wrap2, tau)) for q in pts2[1 : j + 1]]
    rows.append(tuple(a + unit * (m + n) for a, m, n in zip(start, loop.closure, other.closure)))
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
    combined: dict[tuple, tuple[int, PLLoop]] = {}
    for coeff, loop in terms:
        key = loop.integer_lift()
        total = combined[key][0] if key in combined else 0
        combined[key] = (total + int(coeff), loop)
    keys = sorted((key for key, (coeff, _) in combined.items() if coeff != 0), key=_by_rows)
    return tuple(combined[key] for key in keys)


@functools.cmp_to_key
def _by_rows(x, y) -> int:
    """Order integer lifts by their rows scaled to one common denominator.

    Row entries a/dx and b/dy compare as a * dy and b * dx, so nothing is
    scaled beyond the first entry that differs.
    """
    (dx, px), (dy, py) = x, y
    for p, q in zip(px, py):
        for a, b in zip(p, q):
            a, b = a * dy, b * dx
            if a != b:
                return -1 if a < b else 1
    return len(px) - len(py)


class StringCycle:
    """Formal integer combination of loops, each stored rotation-normalized.

    A stored loop is its own normal form, so its integer lift is its key:
    only the constructor normalizes, and sums, scalings, equality and
    hashing work on the stored keys.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, terms: Iterable[tuple[int, PLLoop]] = ()) -> None:
        canonical = []
        for coeff, loop in terms:
            if loop.space != space:
                raise ValueError("cycle terms live on different spaces")
            canonical.append((coeff, loop.canonical()))
        self.space = space
        self.terms = _combine(canonical)

    @classmethod
    def _of(cls, space, terms) -> "StringCycle":
        """Cycle of terms whose loops are already normal forms."""
        cycle = cls.__new__(cls)
        cycle.space = space
        cycle.terms = _combine(terms)
        return cycle

    @classmethod
    def from_loop(cls, loop: PLLoop, coeff: int = 1) -> "StringCycle":
        return cls(loop.space, [(coeff, loop)])

    @classmethod
    def zero(cls, space) -> "StringCycle":
        return cls(space, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "StringCycle") -> "StringCycle":
        if self.space != other.space:
            raise ValueError("cycles live on different spaces")
        return StringCycle._of(self.space, self.terms + other.terms)

    def scale(self, k: int) -> "StringCycle":
        """k times the cycle; for k != 0 the stored terms keep their order."""
        if k == 0:
            return StringCycle.zero(self.space)
        cycle = StringCycle.__new__(StringCycle)
        cycle.space = self.space
        cycle.terms = tuple((k * c, loop) for c, loop in self.terms)
        return cycle

    def __neg__(self) -> "StringCycle":
        return self.scale(-1)

    def __sub__(self, other: "StringCycle") -> "StringCycle":
        return self + (-other)

    def _keys(self) -> tuple:
        return tuple((c, l.integer_lift()) for c, l in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StringCycle):
            return NotImplemented
        return self.space == other.space and self._keys() == other._keys()

    def __hash__(self):
        return hash((self.space, self._keys()))

    def class_reduction(self) -> dict[tuple[int, ...], int]:
        """Coefficients per free homotopy class; torus only."""
        if not isinstance(self.space, Torus):
            raise ValueError("class reduction is defined on the torus")
        out: dict[tuple[int, ...], int] = {}
        for coeff, loop in self.terms:
            cls = loop.lattice_class()
            out[cls] = out.get(cls, 0) + coeff
        return {k: v for k, v in out.items() if v != 0}

    def __repr__(self) -> str:
        return f"StringCycle({self.space.kind}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# the bracket


def degree_zero_prefactor(bar_degree: int, degree: int, d: int) -> int:
    """Bracket prefactor (-1)^{bar_degree (d + degree)}; +1 at degree 0."""
    return -1 if (bar_degree * (d + degree)) % 2 else 1


def jacobi_eta(parity_a: int, parity_c: int, d: int) -> int:
    """Cyclic-sum sign (-1)^{(|a|+d)(|c|+d)}; +1 at degree 0 in d = 2."""
    return -1 if ((parity_a + d) * (parity_c + d)) % 2 else 1


def string_bracket(a: StringCycle, abar: StringCycle) -> StringCycle:
    """Degree-0 bracket: signed concatenations over all crossings, bilinear."""
    if a.space != abar.space:
        raise ValueError("cycles live on different spaces")
    pref = degree_zero_prefactor(0, 0, a.space.d)
    out = []
    for m, gamma in a.terms:
        for mbar, gammabar in abar.terms:
            for p in intersections(gamma, gammabar):
                out.append((pref * m * mbar * p.sign, concatenate(gamma, gammabar, p)))
    return StringCycle(a.space, out)


def jacobi_residual(a: StringCycle, b: StringCycle, c: StringCycle) -> StringCycle:
    """Signed cyclic sum eta(x,z) {{x;y};z}; zero on classes, not on chains.

    The chain-level result depends on where concatenations happen, so only
    its class reduction is contractually zero; callers report both.
    """
    d = a.space.d
    out = StringCycle.zero(a.space)
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        out = out + string_bracket(string_bracket(x, y), z).scale(jacobi_eta(0, 0, d))
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
