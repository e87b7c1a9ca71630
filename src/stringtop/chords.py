"""Chord diagrams, their relations, and evaluation against holonomy data.

A diagram is a set of oriented circles labelled ``std:n``, the standard
representation of gl(n), with a perfect matching (arcs) on the endpoint
labels distributed over the circles. A realization maps each circle to a
loop and each endpoint to a loop parameter so that matched endpoints land
on the same point of the space. Evaluation inserts contracted basis
elements at the endpoints and multiplies the traces of the resulting
alternating products: one tensor contraction of the gl(n) Casimir tensor,
once per arc, with the transports between endpoints (``evaluate_diagram``).
The contraction runs as plain einsum steps compiled once per diagram shape
from numpy's greedy path (``_contraction_steps``); the Casimir tensor is
built on every call, so no cache holds representation data.
Each circle closes with one plain transport over its marked point, a
forward span of the loop's periodic lift; every plain transport is the
connection's own ``transport``.
Two circles joined by one arc at a crossing, summed over the crossings with
their signs, give the observable bracket ``brackets.wilson_field_bracket``.
"""

from __future__ import annotations

import functools
import string
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .geometry import PLLoop, _rat, least_rotation
from .lierep import LieBasis
from .holonomy import transport
from .strings import TransversalityError

__all__ = [
    "ChordDiagram",
    "Circle",
    "DiagramRealization",
    "evaluate_diagram",
    "four_t_combination",
    "gln_ideal_element",
]


class Circle(NamedTuple):
    rep: str
    endpoints: tuple[str, ...]


def parse_rep(label: str) -> int:
    """n of the label ``std:n``, spelled canonically: equal representations
    get equal labels, which ``gln_ideal_element`` compares."""
    size = label.partition(":")[2]
    n = int(size) if size.isdecimal() else 0
    if n < 1 or label != f"std:{n}":
        raise ValueError(f"unknown representation {label!r}")
    return n


def _rep_stack(n: int) -> np.ndarray:
    """R(E_a) for every matrix unit E_a of gl(n), as an (n^2, n, n) stack."""
    return np.eye(n * n, dtype=complex).reshape(n * n, n, n)


class ChordDiagram:
    """Circles with representation labels plus a perfect matching of arcs."""

    def __init__(
        self,
        circles: Iterable[tuple[str, Sequence[str]]],
        arcs: Iterable[Sequence[str]],
    ) -> None:
        cs = []
        for rep, endpoints in circles:
            parse_rep(rep)
            # a least rotation is unique as a sequence, so it keys the circle
            endpoints = tuple(endpoints)
            r = least_rotation(endpoints)
            cs.append(Circle(rep, endpoints[r:] + endpoints[:r]))
        self.circles = tuple(cs)
        seen: dict[str, int] = {}
        for idx, circle in enumerate(self.circles):
            for label in circle.endpoints:
                if label in seen:
                    raise ValueError(f"duplicate endpoint label {label!r}")
                seen[label] = idx
        self._circle_of = seen
        norm = []
        matched: set[str] = set()
        for pair in arcs:
            l1, l2 = pair
            if l1 == l2:
                raise ValueError(f"arc pairs {l1!r} with itself")
            for label in (l1, l2):
                if label not in seen:
                    raise ValueError(f"arc endpoint {label!r} is on no circle")
                if label in matched:
                    raise ValueError(f"endpoint {label!r} is in two arcs")
                matched.add(label)
            norm.append(tuple(sorted((l1, l2))))
        if matched != set(seen):
            missing = sorted(set(seen) - matched)
            raise ValueError(f"endpoints {missing} are not matched by any arc")
        self.arcs = tuple(sorted(norm))

    def circle_of(self, label: str) -> int:
        try:
            return self._circle_of[label]
        except KeyError:
            raise ValueError(f"unknown endpoint {label!r}") from None

    def arc_of(self, label: str) -> tuple[str, str]:
        for arc in self.arcs:
            if label in arc:
                return arc
        raise ValueError(f"unknown endpoint {label!r}")

    def _key(self):
        return (self.circles, self.arcs)

    def __eq__(self, other) -> bool:
        return isinstance(other, ChordDiagram) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        cs = "; ".join(f"{c.rep}({','.join(c.endpoints)})" for c in self.circles)
        return f"ChordDiagram[{cs} | {len(self.arcs)} arcs]"


def _cross(u, v) -> int:
    """The 2-D cross product u x v of two integer edges."""
    return u[0] * v[1] - u[1] * v[0]


class DiagramRealization:
    """A diagram with one loop per circle and a parameter per endpoint.

    Matched endpoints must land on the same point of the space; endpoint
    parameters must be cyclically sorted along each circle, where equal
    parameters are allowed (insertions at the same point) and their order
    is taken from the circle's endpoint sequence. Arcs are checked on the
    loops' integer lifts: the two lift points agree modulo Z^2, and the
    integer edges of the two segments they lie on are not parallel.
    """

    def __init__(
        self,
        diagram: ChordDiagram,
        loops: Sequence[PLLoop],
        params: Mapping[str, Fraction],
    ) -> None:
        if len(loops) != len(diagram.circles):
            raise ValueError("one loop per circle required")
        want = set(diagram._circle_of)
        if set(params) != want:
            raise ValueError("parameters must cover exactly the endpoint labels")
        clean = {}
        for label, s in params.items():
            s = _rat(s)
            if not 0 <= s < 1:
                raise ValueError(f"parameter of {label!r} outside [0, 1)")
            clean[label] = s
        self.diagram = diagram
        self.loops = tuple(loops)
        self.params = clean
        self._starts = tuple(
            self._check_cyclic(circle, idx) for idx, circle in enumerate(diagram.circles)
        )
        for arc in diagram.arcs:
            self._check_arc(arc)

    def _check_cyclic(self, circle: Circle, idx: int) -> int:
        labels = circle.endpoints
        if not labels:
            return 0
        vals = [self.params[l] for l in labels]
        k = len(vals)
        drops = [i for i in range(k) if vals[i] > vals[(i + 1) % k]]
        if len(drops) > 1:
            raise ValueError(
                f"endpoint parameters disagree with the cyclic order on circle {idx}"
            )
        return (drops[0] + 1) % k if drops else 0

    def _check_arc(self, arc: tuple[str, str]) -> None:
        (d1, x1, e1), (d2, x2, e2) = (self._lift_end(label) for label in arc)
        # x1/d1 - x2/d2 is a deck translation: cross-multiplied, in Z^2 d1 d2
        if any((a * d2 - b * d1) % (d1 * d2) for a, b in zip(x1, x2)):
            raise ValueError(f"arc {arc} endpoints meet at different points")
        # the velocities are positive multiples of the integer edges
        if _cross(e1, e2) == 0:
            raise TransversalityError(f"arc {arc} meets tangentially")

    def _lift_end(self, label: str):
        """(den, x, edge): the endpoint's lift point x / den and the integer
        edge P_{i+1} - P_i of the segment i it lies on (right-sided)."""
        loop = self.loops[self.diagram.circle_of(label)]
        t = self.params[label]
        den, x = loop.lift_point(t)
        return den, x, loop.edge(t.numerator * loop.num_segments // t.denominator)

    def ordered_endpoints(self, idx: int) -> tuple[str, ...]:
        """Endpoints of circle idx in traversal order from the marked point."""
        labels = self.diagram.circles[idx].endpoints
        start = self._starts[idx]
        return labels[start:] + labels[:start]

# -- evaluation ----------------------------------------------------------------


# einsum names each index with one letter, a-z or A-Z
_LETTERS = string.ascii_letters


@functools.lru_cache(maxsize=64)
def _contraction_steps(spec: str, shapes: tuple[tuple[int, ...], ...]) -> tuple:
    """numpy's greedy contraction order for spec, compiled to plain einsum steps.

    Returns one ``(positions, step)`` pair per step of
    ``np.einsum_path(spec, ..., optimize="greedy")``: the operand positions
    to pop, in descending order, and the subscripts that contract the
    popped operands, in that order. A step's result keeps only the indices
    that a later operand or the output still needs, and goes to the end
    of the operand list, as in numpy's own replay of the path. The greedy
    search reads only the shapes, so one diagram spec takes one entry per
    size n; the entry holds no operand values.
    """
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    path = np.einsum_path(spec, *operands, optimize="greedy")[0][1:]
    inputs, output = spec.split("->")
    subs = inputs.split(",")
    steps = []
    for step in path:
        positions = tuple(sorted(step, reverse=True))
        picked = [subs.pop(p) for p in positions]
        needed = set(output).union(*subs)
        result = "".join(sorted(set().union(*picked) & needed))
        subs.append(result)
        steps.append((positions, ",".join(picked) + "->" + result))
    return tuple(steps)


def evaluate_diagram(realization: DiagramRealization, conn) -> complex:
    """Product over circles of traces of transports and arc insertions.

    Each arc contributes a basis pair fully contracted with the inverse
    trace form; insertions follow the circles' traversal order, with a
    plain transport between consecutive endpoint parameters. The last hop
    runs from the last endpoint over the marked point to the first, the
    span (s_last, s_first + 1) on the loop's periodic lift. The hops are
    the connection's own ``transport``, so no discretization plan is
    involved.

    The whole value is one tensor contraction (Bar-Natan's gl(N) weight
    system): every arc (p, q) is one Casimir tensor, built once per call,
    sum_a R(E_a)[x, y] R(E_a*)[z, w], with E_a* the kappa-dual unit;
    endpoint m of a circle carries the index pair (in_m, out_m), the hop
    after it (out_m, in_{m+1}), and the last hop closes the trace at in_1.
    An empty circle is the trace of its full transport. Every endpoint
    takes two indices and every empty circle one, so a diagram needing
    more than 52 raises ``ValueError``.

    The contraction replays ``_contraction_steps``: numpy's greedy order,
    compiled once per subscripts and operand shapes into plain
    einsum calls, so no call parses a path. The values round as C einsum
    does, not as the greedy BLAS route, to about 1e-16 relative. Only the
    order is cached: the Casimir tensor is rebuilt on every call from
    ``LieBasis.dual`` and ``_rep_stack``, so a change to either (a mutant
    of the suite, say) reaches the next value.
    """
    spec, operands = _diagram_tensors(realization, conn)
    for positions, step in _contraction_steps(spec, tuple(op.shape for op in operands)):
        picked = [operands.pop(p) for p in positions]
        operands.append(np.einsum(step, *picked))
    return complex(operands[0])


def _diagram_tensors(realization: DiagramRealization, conn) -> tuple[str, list[np.ndarray]]:
    """The einsum subscripts (scalar output) and operands of ``evaluate_diagram``."""
    diag = realization.diagram
    for c in diag.circles:
        if parse_rep(c.rep) != conn.n:
            raise ValueError("representation size differs from the connection")
    n_index = sum(2 * len(c.endpoints) or 1 for c in diag.circles)
    if n_index > len(_LETTERS):
        raise ValueError(
            f"diagram needs {n_index} contraction indices, more than the {len(_LETTERS)} einsum has"
        )
    basis = LieBasis(conn.n)
    dual = [basis.dual(a) for a in range(basis.dim)]
    stack = _rep_stack(conn.n)
    casimir = np.einsum("axy,azw->xyzw", stack, stack[dual])

    letters = iter(_LETTERS)
    slot: dict[str, str] = {}  # endpoint label -> its (in, out) index pair
    terms: list[str] = []
    operands: list[np.ndarray] = []
    # transports between consecutive insertion parameters, one pass per circle
    for idx, loop in enumerate(realization.loops):
        labels = realization.ordered_endpoints(idx)
        if not labels:
            i = next(letters)
            terms.append(i + i)
            operands.append(transport(conn, loop))
            continue
        for label in labels:
            slot[label] = next(letters) + next(letters)
        ss = [realization.params[l] for l in labels]
        segs = [transport(conn, loop, s, t) for s, t in zip(ss, ss[1:])]
        segs.append(transport(conn, loop, ss[-1], ss[0] + 1))
        for pos, seg in enumerate(segs):
            terms.append(slot[labels[pos]][1] + slot[labels[(pos + 1) % len(labels)]][0])
            operands.append(seg)
    for p, q in diag.arcs:
        terms.append(slot[p] + slot[q])
        operands.append(casimir)
    return ",".join(terms) + "->", operands


# -- relations -------------------------------------------------------------------


def _reposition(diagram: ChordDiagram, x: str, target: str, after: bool) -> ChordDiagram:
    """Move endpoint x next to target (same circle as target), arcs unchanged."""
    circles = []
    for circle in diagram.circles:
        endpoints = tuple(l for l in circle.endpoints if l != x)
        if target in endpoints:
            at = endpoints.index(target) + (1 if after else 0)
            endpoints = endpoints[:at] + (x,) + endpoints[at:]
        circles.append((circle.rep, endpoints))
    return ChordDiagram(circles, diagram.arcs)


def four_t_combination(
    diagram: ChordDiagram, x: str, arc: Sequence[str]
) -> list[tuple[int, ChordDiagram]]:
    """Four-term relation at a crossing: the combination evaluates to zero.

    x is an endpoint of a second chord sitting right next to one end of
    ``arc``; the terms place x at the four adjacent slots [after p,
    before p, after q, before q] with signs (+, -, +, -). Evaluation
    kills the combination by invariance of the contracted basis pair.
    """
    arc = tuple(sorted(arc))
    if arc not in diagram.arcs:
        raise ValueError(f"{arc} is not an arc of the diagram")
    if x in arc:
        raise ValueError("site endpoint lies on the chord itself")
    partner_arc = diagram.arc_of(x)
    idx = diagram.circle_of(x)
    seq = diagram.circles[idx].endpoints
    pos = seq.index(x)
    neighbors = {seq[pos - 1], seq[(pos + 1) % len(seq)]} if len(seq) > 1 else set()
    if not neighbors & set(arc):
        raise ValueError("site endpoint is not adjacent to the chord")
    out = []
    for target in arc:
        for after, sign in ((True, 1), (False, -1)):
            out.append((sign, _reposition(diagram, x, target, after)))
    return out


def gln_ideal_element(
    diagram: ChordDiagram, arc: Sequence[str]
) -> list[tuple[int, ChordDiagram]]:
    """(chorded) - (smoothed): evaluates to zero in the standard rep.

    Smoothing reconnects the strands at the chord: a chord joining two
    circles merges them into one; a self-chord splits its circle in two.
    """
    arc = tuple(sorted(arc))
    if arc not in diagram.arcs:
        raise ValueError(f"{arc} is not an arc of the diagram")
    p, q = arc
    i1, i2 = diagram.circle_of(p), diagram.circle_of(q)
    rest = tuple(a for a in diagram.arcs if a != arc)
    circles = list(diagram.circles)
    if i1 != i2:
        c1, c2 = circles[i1], circles[i2]
        if c1.rep != c2.rep:
            raise ValueError("smoothing requires matching representations")
        r1 = c1.endpoints.index(p)
        r2 = c2.endpoints.index(q)
        body1 = c1.endpoints[r1 + 1 :] + c1.endpoints[:r1]
        body2 = c2.endpoints[r2 + 1 :] + c2.endpoints[:r2]
        merged = (c1.rep, body1 + body2)
        lo, hi = sorted((i1, i2))
        circles[lo] = merged
        del circles[hi]
    else:
        c = circles[i1]
        r1 = c.endpoints.index(p)
        rotated = c.endpoints[r1 + 1 :] + c.endpoints[:r1]
        r2 = rotated.index(q)
        circles[i1] = (c.rep, rotated[:r2])
        circles.insert(i1 + 1, (c.rep, rotated[r2 + 1 :]))
    return [(1, diagram), (-1, ChordDiagram(circles, rest))]

