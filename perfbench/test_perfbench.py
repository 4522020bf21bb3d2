"""Tests of the benchmark's own pieces: span arithmetic, seeded inputs, checks.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import phialg  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_nested_children():
    #        0: [0, 10]
    #   1: [1, 4]      3: [6, 7]
    #   2: [2, 3]
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # children [1, 5], [3, 8] and [2, 4] overlap; [9, 12] sticks out of the parent
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 5.0, 8.0, 4.0, 12.0]
    parent = [-1, 0, 0, 0, 0]
    own = spans.self_times(start, end, parent)
    # covered: [1, 8] and [9, 10]
    assert own[0] == pytest.approx(2.0)
    assert own[1:] == pytest.approx([4.0, 5.0, 2.0, 3.0])


def test_tail_leaves_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(30, 0, -1)])
    assert (value, beyond) == (20.0, 10)
    assert percentile == pytest.approx(100.0 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    def inputs(seed):
        return json.dumps(workloads.workload(name).generate(seed), sort_keys=True).encode()

    first, again, other = inputs(7), inputs(7), inputs(8)
    assert first == again
    assert first != other


def _fake_witness():
    return types.SimpleNamespace(case="A2_1", params=(0.3, -0.2),
                                 phi=types.SimpleNamespace(matrix=np.eye(2)))


def _corruptions(name, spec, result):
    """Results a wrong library could return in place of ``result``."""
    kind = spec["kind"]
    if name == "search":
        out = [[_fake_witness()]]
        if spec["expect_witness"]:
            out.append([])
        return out
    if name == "quadrature":
        if kind == "loop":
            return [dataclasses.replace(result, magnitudes=[1e-3] * 4, orders=[])]
        if kind == "run-all":
            return [[dataclasses.replace(result[0], passed=False), *result[1:]]]
        if kind == "picard":
            return [dataclasses.replace(result, values=result.values + 1e-6)]
        return [np.asarray(result) + 1e-6]
    if kind == "direct":
        first = [dict(r) for r in result[0]]
        first[0]["inverse"] = first[0]["inverse"] + 1e-6
        return [[first, *result[1:]], result[:-1]]
    first = result[0]
    return [[dict(first, code=1), *result[1:]],
            [dict(first, stdout="not json"), *result[1:]],
            [dict(first, stdout=first["stdout"].replace('"pass": true', '"pass": false')),
             *result[1:]],
            result[:-1]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_real_results_and_flag_corrupted_ones(name, tmp_path):
    wl = workloads.workload(name)
    deck = wl.generate(3)
    ctx = wl.context(deck, tmp_path)
    for spec in workloads.kinds(deck):
        result = wl.call(spec, ctx)
        assert wl.check(spec, result) is None, spec["id"]
        for bad in _corruptions(name, spec, result):
            assert wl.check(spec, bad), f"{spec['id']} ({spec['kind']}) missed a corrupted result"


def test_recorder_patches_every_binding_and_restores_them():
    original = phialg.calculus.cre_residual
    product = vars(phialg.Algebra)["product"]
    assert phialg.quadratic.cre_residual is original and phialg.cre_residual is original
    alg = phialg.complex_algebra()
    phi = phialg.SmoothMap.identity(2)
    f = phialg.phi_polynomial([alg.zero(), alg.zero(), alg.unit], phi, alg)
    rec = spans.Recorder()
    rec.install()
    try:
        for module in (phialg, phialg.calculus, phialg.quadratic, phialg.paper_examples):
            assert module.cre_residual is not original
        assert vars(phialg.Algebra)["product"] is not product
        rec.run_job(5, phialg.quadratic.cre_residual, f, phi, alg, np.array([0.3, 0.4]))
    finally:
        rec.uninstall()
    assert phialg.quadratic.cre_residual is original and phialg.cre_residual is original
    assert vars(phialg.Algebra)["product"] is product
    names = [spans.NAMES[i] for i in rec.name]
    assert names[:2] == ["job", "calculus.cre_residual"]
    assert set(rec.job) == {5}
    assert rec.parent[1] == 0
    # the jacobians and reps inside cre_residual hang off its span
    inner = [sid for sid, p in enumerate(rec.parent) if p == 1]
    assert {names[sid] for sid in inner} == {"maps.SmoothMap.jacobian", "algebra.rep"}
    metrics = spans.layer_metrics(rec, jobs=1)
    assert metrics["calculus.cre_residual.calls_per_job"][0] == 1
    assert metrics["calculus.cre_residual.self_ms_per_job"][0] > 0
