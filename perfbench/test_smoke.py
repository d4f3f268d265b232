"""Smoke test of the benchmark: every workload path at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py     # or: python3 perfbench/test_smoke.py

Checks that an untraced and a traced run emit exactly the metrics that
``BENCHMARK.json`` names, with their units, without a failed operation, and
that a corrupted program output is counted as a failure.
"""

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
from spikesparse import spiking  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Each workload shrunk to a few small samples; the architecture, dropout and
# phase mix stay those of the full workload, and a lower threshold keeps every
# layer spiking on the small inputs.
TINY = {
    "desk-train": dict(hw=16, t=6, b_init=0.02, train_per_class=4, test_per_class=2,
                       train_n=8, batch=4, eval_n=4, horizons=(2, 6), grad_n=2),
    "paper": dict(hw=32, t=8, b_init=0.005, train_per_class=1, train_n=4,
                  batch=4, eval_n=4, horizons=(2, 8), grad_n=1),
}


bench.STREAM_MIN_STEPS = 16   # a few streamed samples


def tiny_run(name, seed=3):
    return bench.Run(replace(bench.WORKLOADS[name], **TINY[name]), seed, 0.01,
                     log=lambda msg: None)


def expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def emitted(run, metrics):
    res = bench.result(run.ledger, metrics)
    return res, {k: v["unit"] for k, v in res["metrics"].items()}


def test_workload_names_match():
    assert sorted(bench.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_every_end_to_end_metric_with_its_unit():
    for name in bench.WORKLOADS:
        run = tiny_run(name)
        res, units = emitted(run, run.measure())
        assert units == expected("end_to_end"), name
        assert res["failed"] == 0 and res["correct"], (name, run.ledger.failures)
        assert all(v["value"] > 0 for v in res["metrics"].values()), name


def test_every_per_layer_metric_with_its_unit():
    for name in bench.WORKLOADS:
        run = tiny_run(name)
        res, units = emitted(run, run.profile()[0])
        assert units == expected("per_layer"), name
        assert res["failed"] == 0 and res["correct"], (name, run.ledger.failures)
        n_layers = len(run.model.layers)
        for i in range(n_layers):
            assert res["metrics"][f"spiking.conv{i}.spikes"]["value"] > 0
        assert res["metrics"]["spiking.lif_lazy_s"]["value"] > 0
        assert res["metrics"]["sparse.conv_grad_s"]["value"] > 0


def test_corrupted_output_raises_error_rate():
    original = spiking.network_forward

    def corrupted(model, grid, t_eval, start=0):
        logits, mean, counts = original(model, grid, t_eval, start)
        return logits + 1e-6, mean, counts

    spiking.network_forward = corrupted
    try:
        run = tiny_run("desk-train")
        res, _ = emitted(run, run.measure())
    finally:
        spiking.network_forward = original
    assert res["failed"] > 0 and not res["correct"]
    assert any("streamed logits" in f for f in run.ledger.failures)


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
