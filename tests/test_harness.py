"""Tests for the suite runner: every check runs and passes on default settings."""

from __future__ import annotations

import dataclasses
import json

import pytest

from stringtop import harness
from stringtop.harness import CHECK_NAMES, SuiteConfig, _run_one, run_suite, strip_runtime


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
    cfg = SuiteConfig(counts={"gln": 1})
    first, again = (run_suite(cfg, ["gln"]) for _ in range(2))
    first.validate()
    assert first.passed and [r.check for r in first.records] == ["gln"]
    assert json.dumps(strip_runtime(first.to_json_obj()), sort_keys=True) == json.dumps(
        strip_runtime(again.to_json_obj()), sort_keys=True
    )


def test_an_unexpected_error_becomes_a_fail_record(monkeypatch):
    def broken(cfg, rng):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(harness._CHECKS, "gln", broken)
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
