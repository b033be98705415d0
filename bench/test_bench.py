"""Self-test of the benchmark at toy size.

    python3 -m pytest -q bench/test_bench.py

Runs every workload on toy-sized ops, untraced and traced, and checks that
every metric BENCHMARK.json names is reported with its unit; checks that a
deliberately wrong output is counted as a failure; and checks the
command-line contract, including the refusal to run without the sources.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import clock
import run
import workloads

SPEC = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _toy_ops(workload):
    return [op for rnd in workloads.make_rounds(workload, 1, 3, toy=True)
            for op in rnd]


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_has_its_unit(lib, workload):
    args = argparse.Namespace(workload=workload, seed=1, seconds=0.1)
    attempted, failed, metrics, info = run.run_timed(args, lib,
                                                     _toy_ops(workload))
    assert attempted >= run.MIN_SAMPLES and failed == 0
    assert info["above_p90"] >= 10
    assert {k: m["unit"] for k, m in metrics.items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_per_layer_metric_has_its_unit(lib, workload):
    args = argparse.Namespace(workload=workload, seed=1)
    attempted, failed, metrics, _ = run.run_traced(args, lib,
                                                   _toy_ops(workload))
    assert failed == 0 and attempted == 2 * len(_toy_ops(workload))
    assert {k: m["unit"] for k, m in metrics.items()} == _units("per_layer")


def test_traced_counts_repeat_exactly(lib):
    args = argparse.Namespace(workload="symbolic-order", seed=2)
    ops = _toy_ops("symbolic-order")
    exact = [k for k, u in _units("per_layer").items()
             if u in ("count", "bits", "degree", "ratio")]
    first = run.run_traced(args, lib, ops)[2]
    second = run.run_traced(args, lib, ops)[2]
    assert exact and all(first[k] == second[k] for k in exact)
    assert first["series.revert.calls"]["value"] > 0


def test_tracer_leaves_the_package_as_it_found_it(lib):
    from bosonorder.series import Series
    from tracing import Tracer
    before = Series.__dict__["revert"], lib.cli.main
    tracer = Tracer()
    tracer.install()
    assert Series.__dict__["revert"] is not before[0]
    tracer.uninstall()
    assert (Series.__dict__["revert"], lib.cli.main) == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_wrong_output_counts_as_a_failure(lib, workload):
    ops = _toy_ops(workload)
    loop = run.Loop(lib, ops, clock.Calibrator())
    loop.run_all()
    assert loop.failures()[0] == 0
    op = ops[0]
    first = loop.outputs[op]
    if isinstance(first, str):
        data = json.loads(first)
        _bump_first_coefficient(data)
        loop.outputs[op] = json.dumps(data)
    else:
        loop.outputs[op] = first + type(first).monomial(0, 0)
    failed, notes = loop.failures()
    assert failed == sum(1 for i, _, _ in loop.times if ops[i] == op)
    assert failed >= 1 and notes


def _bump_first_coefficient(node) -> bool:
    """Add 1 to the first rational-string coefficient list found."""
    if isinstance(node, dict):
        return any(_bump_first_coefficient(v) for v in node.values())
    if isinstance(node, list):
        if node and all(isinstance(c, str) for c in node):
            node[0] = str(Fraction(node[0]) + 1)
            return True
        return any(_bump_first_coefficient(v) for v in node)
    return False


def test_command_prints_one_result_line():
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "rewrite",
         "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(_units("end_to_end"))


def test_refuses_to_run_without_the_sources():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.BENCH.parent / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "rewrite",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        assert done.returncode != 0 and done.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_same_seed_same_inputs_and_profile():
    for w in workloads.WORKLOADS:
        a = workloads.make_rounds(w, 5, 4)
        assert a == workloads.make_rounds(w, 5, 4)
        assert a != workloads.make_rounds(w, 6, 4)
        prof = workloads.profile(op for rnd in a for op in rnd)
        assert abs(sum(prof["kind_share"].values()) - 1) < 1e-3
