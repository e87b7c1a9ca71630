"""Tests of the benchmark itself: inputs, workloads, tracing and output."""

from __future__ import annotations

import dataclasses
import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs, run, workloads
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _draws(seed: int) -> list:
    out = []
    for k in range(4):

        def rng(workload, *sub):
            return inputs.instance_rng(seed, workload, k, *sub, 0)

        out.append(inputs.draw_transport(rng("transport"), k))
        out.append(inputs.draw_gauge(rng("adaptive"), k))
        out.append(inputs.draw_nested(rng("nested"), k))
        out.append(inputs.draw_goldman(rng("oneshot", inputs.GOLDMAN)))
        out.append(inputs.draw_main_theorem(rng("oneshot", inputs.MAIN_THEOREM), k))
        out.append(inputs.draw_gln(rng("oneshot", inputs.GLN), k))
        out.append(inputs.draw_chord(rng("oneshot", inputs.CHORD_4T), k))
        out.append(inputs.draw_axioms(rng("oneshot", inputs.AXIOMS), k))
    return out


def test_same_seed_same_inputs_other_seed_other_inputs():
    first = [pickle.dumps(d) for d in _draws(inputs.DEFAULT_SEED)]
    again = [pickle.dumps(d) for d in _draws(inputs.DEFAULT_SEED)]
    other = [pickle.dumps(d) for d in _draws(inputs.HELD_OUT_SEED)]
    assert first == again
    assert all(a != b for a, b in zip(first, other))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_finishes_at_minimal_size(name):
    workload = workloads.WORKLOADS[name]
    stats = workloads.RunStats()
    ok = workloads.run_one(workload, stats, inputs.DEFAULT_SEED, 0, workload.fixtures())
    assert ok, stats.errors
    assert (stats.attempted, stats.failed, len(stats.times_s)) == (1, 0, 1)
    assert stats.resid_over_tol_max <= 1.0


def _traced_calls(name: str, count: int) -> dict:
    workload = workloads.WORKLOADS[name]
    fixtures = workload.fixtures()
    stats = workloads.RunStats()
    tracer = Tracer()
    with tracer:
        for k in range(count):
            workloads.run_one(workload, stats, inputs.DEFAULT_SEED, k, fixtures)
    assert stats.failed == 0, stats.errors
    return {key: value for key, value in tracer.aggregate().items() if not key.endswith("_s")}


@pytest.mark.parametrize(("name", "count"), [("oneshot", 3), ("nested", 2), ("adaptive", 1)])
def test_two_traced_runs_of_one_seed_count_the_same_calls(name, count):
    first = _traced_calls(name, count)
    assert first == _traced_calls(name, count)
    assert any(first.values())


def test_tracer_restores_every_binding():
    from stringtop import brackets, grassmann, holonomy, lierep

    before = (holonomy.wilson, brackets.wilson, lierep.merge_sign, grassmann.merge_sign, lierep.SuperMatrix.__matmul__)
    with Tracer():
        assert brackets.wilson is holonomy.wilson is not before[0]
        assert lierep.merge_sign is grassmann.merge_sign is not before[2]
    after = (holonomy.wilson, brackets.wilson, lierep.merge_sign, grassmann.merge_sign, lierep.SuperMatrix.__matmul__)
    assert after == before


@pytest.mark.parametrize(("trace", "section"), [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section, capsys, monkeypatch):
    small = dataclasses.replace(workloads.WORKLOADS["oneshot"], trace_instances=2)
    monkeypatch.setitem(workloads.WORKLOADS, "oneshot", small)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    argv = ["--workload", "oneshot", "--seed", "0", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in bench[section]]
    for spec in bench[section]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "oneshot", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
