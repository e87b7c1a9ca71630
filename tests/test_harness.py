"""Tests for the suite runner: every check runs and passes on default settings."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from stringtop import harness
from stringtop.harness import CHECK_NAMES, SuiteConfig, _retrying, _run_one, run_suite, strip_runtime
from stringtop.lierep import SuperMatrix
from stringtop.strings import TransversalityError


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_every_check_passes_at_count_one(name):
    record = _run_one(SuiteConfig(counts={name: 1}), name)
    assert record.error is None
    assert record.instances == 1
    assert record.passed, record


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_main_theorem_draws_no_constant_lines(seed):
    # seeds whose draws include one-vertex lines, which need a nonzero class
    record = _run_one(SuiteConfig(seed=seed, counts={"main-theorem": 5}), "main-theorem")
    assert record.passed, record


def test_checks_run_in_sequence_without_a_workers_field():
    assert "workers" not in {f.name for f in dataclasses.fields(SuiteConfig)}
    assert "workers" not in SuiteConfig().echo()


def test_run_suite_validates_and_reruns_byte_identically():
    cfg = SuiteConfig(counts={name: 2 for name in CHECK_NAMES})
    first, again = (run_suite(cfg) for _ in range(2))
    first.validate()
    assert first.passed and [r.check for r in first.records] == list(CHECK_NAMES)
    assert all(r.instances == 2 for r in first.records)
    assert json.dumps(strip_runtime(first.to_json_obj()), sort_keys=True) == json.dumps(
        strip_runtime(again.to_json_obj()), sort_keys=True
    )


# sha256 of the default report without its runtimes and residuals: the
# counts, retries, statements, tolerances and verdicts, which do not move
# with float rounding across BLAS builds
DEFAULT_ACCOUNTING_SHA = "714d40d89f90a81eff21042a0cf0f2f84fe3478b14bd37fe177a30bebd87de56"


def test_the_default_suite_keeps_its_draw_accounting():
    report = strip_runtime(run_suite(SuiteConfig()).to_json_obj())
    for record in report["checks"]:
        del record["max_residual"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == DEFAULT_ACCOUNTING_SHA


def test_an_unexpected_error_becomes_a_fail_record(monkeypatch):
    def broken(rng, k):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(harness.CHECKS, "gln", dataclasses.replace(harness.CHECKS["gln"], instance=broken))
    report = run_suite(SuiteConfig(counts={"gln": 1, "holonomy": 1}), ["gln", "holonomy"])
    failed, fine = report.records
    assert (failed.passed, failed.error, failed.instances, failed.max_residual) == (
        False,
        "TypeError: unsupported operand",
        0,
        None,
    )
    assert fine.passed and fine.error is None
    assert not report.passed


def test_config_holds_only_seed_and_counts_and_records_keep_their_tolerance():
    assert {f.name for f in dataclasses.fields(SuiteConfig)} == {"seed", "counts"}
    echo = SuiteConfig(seed=3, counts={"gln": 2}).echo()
    assert set(echo) == {"seed", "counts"} and echo["counts"]["gln"] == 2
    assert _run_one(SuiteConfig(counts={"gln": 1}), "gln").tolerance == 1e-10
    # a check's position is its spawn key: reordering the table changes every draw
    assert [(name, c.count, c.tolerance) for name, c in harness.CHECKS.items()] == [
        ("gln", 150, 1e-10),
        ("holonomy", 12, 1e-8),
        ("gauge", 10, 1e-9),
        ("fundamental", 4, 2e-6),
        ("goldman", 40, 1e-12),
        ("main-theorem", 20, 1e-9),
        ("jacobi", 10, 1e-12),
        ("bracket-axioms", 30, 1e-12),
        ("chord-4t", 9, 1e-10),
        ("chord-ideal", 9, 1e-10),
        ("transport-accuracy", 2, 1.5e-9),
    ]
    assert CHECK_NAMES == tuple(harness.CHECKS)
    assert SuiteConfig().echo()["counts"] == {name: c.count for name, c in harness.CHECKS.items()}


MALFORMED_REPORTS = {
    "missing-count": lambda report: report["config"]["counts"].pop("gln"),
    "unknown-count": lambda report: report["config"]["counts"].update(glm=1),
    "zero-count": lambda report: report["config"]["counts"].update(gln=0),
    "fractional-count": lambda report: report["config"]["counts"].update(gln=1.5),
    "unknown-check": lambda report: report["checks"][0].update(check="glm"),
}


@pytest.mark.parametrize("malform", MALFORMED_REPORTS.values(), ids=MALFORMED_REPORTS)
def test_the_schema_names_each_check_once_and_rejects_malformed_reports(malform):
    schema = harness._report_schema()
    assert schema["$defs"]["check"]["enum"] == list(CHECK_NAMES)
    assert schema["properties"]["config"]["properties"]["counts"]["minProperties"] == len(CHECK_NAMES)
    report = run_suite(SuiteConfig(counts={"gln": 1}), ["gln"]).to_json_obj()
    jsonschema.validate(report, schema)
    malform(report)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, schema)


def test_a_fractional_seed_is_refused_at_construction():
    # run_suite would hand it to numpy's seeding and crash without a report
    with pytest.raises(TypeError, match="seed must be an int, not float"):
        SuiteConfig(seed=1.5)
    with pytest.raises(TypeError, match="seed must be an int, not bool"):
        SuiteConfig(seed=True)


def test_a_fractional_count_is_refused_rather_than_truncated():
    with pytest.raises(TypeError, match="count for 'gln' must be an int, not float"):
        SuiteConfig(counts={"gln": 2.5})
    with pytest.raises(TypeError, match="count for 'gln' must be an int, not bool"):
        SuiteConfig(counts={"gln": True})


def test_a_string_count_is_refused_with_the_check_named():
    with pytest.raises(TypeError, match="count for 'gln' must be an int, not str"):
        SuiteConfig(counts={"gln": "3"})


def test_a_degenerate_draw_is_redrawn_and_counted(monkeypatch):
    gln = harness.CHECKS["gln"]
    raised = []

    def once_degenerate(rng, k):
        if not raised:
            raised.append(k)
            raise TransversalityError("segments (0, 1) cross at a vertex or marked point")
        return gln.instance(rng, k)

    monkeypatch.setitem(harness.CHECKS, "gln", dataclasses.replace(gln, instance=once_degenerate))
    record = _run_one(SuiteConfig(counts={"gln": 3}), "gln")
    assert (record.passed, record.error, record.instances, record.retries) == (True, None, 3, 1)


def test_only_transversality_errors_are_redrawn():
    draws = []

    def collinear():
        draws.append(1)
        raise ValueError("collinear overlap")

    with pytest.raises(ValueError, match="collinear overlap"):
        _retrying(collinear)
    assert len(draws) == 1

    def always_degenerate():
        raise TransversalityError("collinear overlap between segments (0, 0)")

    with pytest.raises(harness.RetryCapError):
        _retrying(always_degenerate)


@pytest.mark.parametrize(
    "residuals",
    [(float("nan"), float("nan")), (3e-11, float("nan")), (0.0, float("inf"))],
    ids=["nan", "nan-after-finite", "inf"],
)
def test_a_non_finite_residual_fails_the_check_and_names_the_instance(monkeypatch, residuals):
    def instance(rng, k):
        return residuals[k]

    monkeypatch.setitem(harness.CHECKS, "gln", dataclasses.replace(harness.CHECKS["gln"], instance=instance))
    record = _run_one(SuiteConfig(counts={"gln": 2}), "gln")
    bad = next(k for k, res in enumerate(residuals) if not math.isfinite(res))
    assert not record.passed
    assert record.error == f"instance {bad}: residual is {residuals[bad]}"
    report = run_suite(SuiteConfig(counts={"gln": 2}), ["gln"])
    report.validate()
    assert not report.passed


def test_a_diverging_integration_stops_at_its_budget_and_fails_the_check(monkeypatch):
    # an insertion of 1e4 times the identity makes U grow as exp(1e4 t):
    # DOP853 would shrink its steps without end, so the budget ends it
    evaluations = []

    def diverging(config, pos, vel, leg_values, n_legs):
        evaluations.append(1)
        return SuperMatrix.from_body(1e4 * np.eye(config.n), config.n_theta + n_legs)

    monkeypatch.setattr(harness, "insertion_matrix_at", diverging)
    message = f"the integrator took more than {harness.ODE_MAX_RHS} right-hand-side evaluations"
    (record,) = run_suite(SuiteConfig(), ["transport-accuracy"]).records
    assert (record.passed, record.error, record.instances) == (False, f"QuadratureError: {message}", 0)
    assert len(evaluations) == harness.ODE_MAX_RHS


# importing the suite runner after the crossing layer broke, then running
# the default suite; prints each check's verdict and error
BROKEN_CROSSINGS = """
import json
from stringtop import strings

def broken(loop, other):
    raise RuntimeError("crossings broken")

strings._crossings = broken
from stringtop.harness import SuiteConfig, run_suite

print(json.dumps({r.check: [r.passed, r.error] for r in run_suite(SuiteConfig()).records}))
"""


def test_a_broken_crossing_layer_fails_its_checks_and_not_the_import():
    # the fixtures that call the crossing layer are built per instance, so
    # only the checks that use crossings fail, each with the error
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", BROKEN_CROSSINGS], cwd=src, capture_output=True, text=True, timeout=300, check=True
    )
    verdicts = json.loads(done.stdout.splitlines()[-1])
    failing = {"goldman", "main-theorem", "jacobi", "chord-ideal"}
    assert list(verdicts) == list(CHECK_NAMES)
    for name, (passed, error) in verdicts.items():
        if name in failing:
            assert (passed, error) == (False, "RuntimeError: crossings broken"), name
        else:
            assert (passed, error) == (True, None), name


# importing the suite runner while the loop constructor is broken, then
# running the default suite; prints each check's verdict and error
BROKEN_LOOPS = """
import json
from stringtop import geometry

def broken(self, *args, **kwargs):
    raise RuntimeError("loops broken")

geometry.PLLoop.__init__ = broken
from stringtop.harness import SuiteConfig, run_suite

print(json.dumps({r.check: [r.passed, r.error] for r in run_suite(SuiteConfig()).records}))
"""


def test_a_broken_loop_constructor_fails_checks_and_not_the_import():
    # no loop is built at import, so the suite still returns a report: the
    # checks that build a loop are FAIL records carrying the error, and the
    # two that build none pass
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", BROKEN_LOOPS], cwd=src, capture_output=True, text=True, timeout=300, check=True
    )
    verdicts = json.loads(done.stdout.splitlines()[-1])
    assert list(verdicts) == list(CHECK_NAMES)
    for name, (passed, error) in verdicts.items():
        if name in {"gln", "bracket-axioms"}:
            assert (passed, error) == (True, None), name
        else:
            assert (passed, error) == (False, "RuntimeError: loops broken"), name


# the gauge check with a pairwise product that returns as many factors as it
# was given, so no pair level shortens a stack; prints the check's verdict
UNSHORTENED_PRODUCT = """
import json
import numpy as np
from stringtop import holonomy

product = holonomy.product

def unshortened(a, b, support):
    out = product(a, b, support)
    return np.concatenate([out, out]) if out.ndim == 4 else out

holonomy.product = unshortened
from stringtop.harness import SuiteConfig, run_suite

print(json.dumps([[r.passed, r.error] for r in run_suite(SuiteConfig(), ["gauge"]).records]))
"""


def test_a_product_that_never_shortens_fails_the_check_and_does_not_hang():
    # each block holds at most BLOCK factors, so its pairings are bounded by
    # PAIR_LEVELS levels; a stack still longer after one more raises
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", UNSHORTENED_PRODUCT], cwd=src, capture_output=True, text=True, timeout=120, check=True
    )
    ((passed, error),) = json.loads(done.stdout.splitlines()[-1])
    assert not passed
    assert error.startswith("RuntimeError: ") and error.endswith(" factors left after 9 pair levels")
