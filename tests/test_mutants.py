"""Mutants that the default suite must catch.

Each mutant is a deliberate error, applied in process with ``monkeypatch``
(never by rewriting source), and names the checks of
``run_suite(SuiteConfig())`` that must FAIL under it; every other check
must still pass. A mutant that passes the suite shows a tolerance too
loose to see the error, or a check that cannot see it at all; such a
mutant goes in as a strict xfail naming the work meant to catch it, so
that the day it is caught the xfail fails and is promoted to a plain
entry. Every mutant below is caught.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from stringtop import brackets, chords, fields, holonomy, strings
from stringtop.harness import SuiteConfig, run_suite
from stringtop.lierep import LieBasis

from oracles import config_scale, config_sum


def swapped_exponentials(monkeypatch):
    """The two exponentials of each step in the wrong order: second order in h."""
    monkeypatch.setattr(holonomy, "_CF_WEIGHTS", holonomy._CF_WEIGHTS[:, ::-1])


def no_richardson(monkeypatch):
    """The Richardson level dropped: the fine grid alone."""
    monkeypatch.setattr(
        holonomy, "_with_richardson", lambda evaluate, plan, count=1: evaluate([(i, 2 * plan.steps) for i in range(count)])
    )


def truncated_exponential(monkeypatch):
    """Each step exponential cut to 1 + K h."""

    def first_order(slots, coeffs, widths=None):
        out = slots.dense(coeffs)
        out[:, 0] += np.eye(slots.n)
        return out

    monkeypatch.setattr(holonomy._Slots, "exp", first_order)


def negated_crossing_weight(monkeypatch):
    """Each crossing of the observable bracket weighted by -sign."""
    monkeypatch.setattr(brackets, "wilson_intersection_weight", lambda sign: -sign)


def pairing_sign_plus(monkeypatch):
    """The deformation/insertion pairing sign flipped to +1."""
    monkeypatch.setattr(brackets, "loop_form_pairing_sign", lambda: 1)


def obstruction_without_cc(monkeypatch):
    """B = dC + AC + CA without its C C term. B is quadratic in C, so its
    linear part is 2 B(C) - B(2 C) / 2 (exact: the scalings are powers of 2)."""
    obstruction = brackets.field_obstruction

    def linear(config, conn):
        doubled = obstruction(config_scale(config, 2.0), conn)
        return config_sum(config_scale(obstruction(config, conn), 2.0), config_scale(doubled, -0.5))

    monkeypatch.setattr(brackets, "field_obstruction", linear)


def displacement_from_zero(monkeypatch):
    """Plain transport reads x(s) at 0: U(s, t) becomes U(0, t)."""
    displacement = fields._displacement
    monkeypatch.setattr(
        fields, "_displacement", lambda loop, s, t: displacement(loop, Fraction(0), t)
    )


def casimir_without_dual(monkeypatch):
    """The Casimir pairs each basis element with itself, not its kappa-dual."""
    monkeypatch.setattr(LieBasis, "dual", lambda self, a: a)


def diagonal_pseudo_rep(monkeypatch):
    """The off-diagonal matrix units represented by zero: no representation of gl(n)."""
    rep_stack = chords._rep_stack

    def diagonal(n):
        stack = rep_stack(n)
        stack[[a for a in range(n * n) if a % (n + 1)]] = 0
        return stack

    monkeypatch.setattr(chords, "_rep_stack", diagonal)


def in_parameter_order(crossings):
    """``strings._crossings`` records sorted by (s, s_bar), the order of ``intersections``."""
    return sorted(crossings, key=lambda c: (Fraction(c[0] * c[4] + c[2], c[4]), Fraction(c[1] * c[4] + c[3], c[4])))


def first_crossing(monkeypatch):
    """The bracket splices at the pair's first crossing, whatever the crossing."""
    splice = strings._splice

    def first(loop, other, *crossing):
        i, j, _, _, _, _, (ox, oy), den, x, y = in_parameter_order(strings._crossings(loop, other))[0]
        return splice(loop, other, i, j, den, x, y, ox, oy)

    monkeypatch.setattr(strings, "_splice", first)


def paired_crossings_dropped(monkeypatch):
    """Every crossing list that holds both signs loses its last +1 and its last -1 crossing.

    ``intersections`` and the bracket both enumerate through
    ``strings._crossings``, so the bracket and ``wilson_field_bracket``
    lose the same crossings.
    """
    crossings = strings._crossings

    def dropped(loop, other):
        found = in_parameter_order(crossings(loop, other))
        last = {c[5]: k for k, c in enumerate(found)}
        if len(last) < 2:
            return found
        return [c for k, c in enumerate(found) if k not in last.values()]

    monkeypatch.setattr(strings, "_crossings", dropped)


MUTANTS = {
    "swapped-exponentials": (swapped_exponentials, {"fundamental", "transport-accuracy"}),
    # the fourth-order step alone is far inside fundamental's 2e-6, which
    # its central difference limits; only the integrator sees the level go
    "no-richardson": (no_richardson, {"transport-accuracy"}),
    "truncated-exponential": (truncated_exponential, {"fundamental", "transport-accuracy"}),
    "negated-crossing-weight": (negated_crossing_weight, {"main-theorem"}),
    "pairing-sign-plus": (pairing_sign_plus, {"fundamental"}),
    "obstruction-without-cc": (obstruction_without_cc, {"fundamental"}),
    "displacement-from-zero": (displacement_from_zero, {"holonomy", "main-theorem", "chord-ideal"}),
    "casimir-without-dual": (casimir_without_dual, {"chord-ideal"}),
    # the trace ideal is gl(n)-specific; the four-term relation is not
    "diagonal-pseudo-rep": (diagonal_pseudo_rep, {"chord-ideal"}),
    # every suite connection commutes, so each crossing of a main-theorem
    # pair fuses the same trace and only the chain-level Jacobi sees these
    "first-crossing": (first_crossing, {"jacobi"}),
    "paired-crossings-dropped": (paired_crossings_dropped, {"jacobi"}),
}


def failing_checks() -> set[str]:
    return {r.check for r in run_suite(SuiteConfig()).records if not r.passed}


def test_the_unmutated_suite_passes():
    assert failing_checks() == set()


@pytest.mark.parametrize("name", MUTANTS)
def test_the_suite_catches_the_mutant(monkeypatch, name):
    apply, caught_by = MUTANTS[name]
    apply(monkeypatch)
    assert failing_checks() == caught_by
