"""Fast self-test of the benchmark harness: every workload at tiny size.

    python3 -m pytest -q bench/test_bench.py
"""
import json

import pytest

import run
from workloads import WORKLOADS, EnsembleReplay, ExactCurves, PostselectCompare, RecordReplay

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_workloads():
    return [
        EnsembleReplay(count=200),
        PostselectCompare(count=20_000),
        ExactCurves(horizons=(0.5, 3.5)),
        RecordReplay(steps=500),
    ]


def measure(workload, trace, seed=3):
    return run.measure(workload, seed, seconds=0, trace=trace)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in tiny_workloads()]
    assert set(WORKLOADS) == {w.name for w in tiny_workloads()}
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", tiny_workloads(), ids=lambda w: w.name)
def test_every_metric_reported_and_no_check_fails(workload, trace):
    result, detail = measure(workload, trace)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0, detail["failed_checks"]
    assert result["correct"] is True
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("workload", tiny_workloads(), ids=lambda w: w.name)
def test_same_seed_same_digest(workload):
    first = measure(workload, trace=True)[1]["digest"]
    assert measure(workload, trace=True)[1]["digest"] == first
    assert measure(workload, trace=True, seed=4)[1]["digest"] != first


def layers(workload):
    metrics = measure(workload, trace=True)[0]["metrics"]
    return {k: v["value"] for k, v in metrics.items()}


def test_layer_split():
    ens, post, exact, record = (layers(w) for w in tiny_workloads())
    assert ens["sde.run_ensemble.busy_s"] + ens["bayes.reconstruct_batch.busy_s"] > 0.8 * ens["process.cpu_s"]
    assert ens["sde.noise_stream.calls"] == 200
    assert post["sde.polar_ensemble.busy_s"] + post["sde.polar_states.busy_s"] > 0.5 * post["cli.run.compare.busy_s"]
    assert post["sde.run_ensemble.busy_s"] == post["sde.noise_stream.calls"] == 0
    assert 0 < post["estimator.select.accept_ratio"] < 0.05
    mc = [k for k in exact if k.startswith(("sde.", "bayes.", "estimator."))]
    assert all(exact[k] == 0 for k in mc)
    for branch in ("calls.direct", "calls.resummed"):
        assert exact[f"analytic.correlator_cond.{branch}"] > 0
    for branch in ("calls.wrapped", "calls.fourier"):
        assert exact[f"fpe.two_sided_density.{branch}"] > 0
    assert record["sde.simulate_trajectory.busy_s"] + record["bayes.reconstruct.busy_s"] > 0.5 * record["process.cpu_s"]
