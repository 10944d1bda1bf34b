"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS, Request  # noqa: E402


def keys(wl, count):
    return [r.key() for r in itertools.islice(wl.requests(), count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_requests(name, tmp_path):
    a = WORKLOADS[name](7, str(tmp_path))
    b = WORKLOADS[name](7, str(tmp_path))
    assert keys(a, 25) == keys(b, 25)
    assert keys(a, 25) != keys(WORKLOADS[name](8, str(tmp_path)), 25)


def test_request_seeds_differ():
    wl = WORKLOADS["device-sweep"](3, ".")
    seeds = [r.seed for r in itertools.islice(wl.requests(), 200)]
    assert len(set(seeds)) == len(seeds)


SMALL = {
    "device-sweep": [("bench_noisy", {"n": 8}), ("bench_exact", {"n": 8}),
                     ("manifold_exact", {"side": 6}), ("manifold_sampled", {"side": 6})],
    "tomography": [("bell", {"mc_trials": 2}), ("mixed", {"n": 3}), ("glyph", {})],
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_outputs_identical(name, tmp_path):
    wl = WORKLOADS[name](5, str(tmp_path))
    reqs = [Request(i, kind, params, 1000 + i) for i, (kind, params) in enumerate(SMALL[name])]
    if name == "tomography":
        mle = next(r for r in wl.requests() if r.kind == "mle")
        reqs.append(mle)
    plain = [wl.check(r, wl.run(r)) for r in reqs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [wl.check(r, tracer.request_span(r.index, wl.run, r)) for r in reqs]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert not tracer.missing
    for site in ("rechip.chip.compose", "rechip.experiments.coincidence_probs",
                 "rechip.experiments.distinguishable_coincidence_probs",
                 "rechip.experiments.device_probs", "rechip.experiments.mle_reconstruct",
                 "rechip.experiments.apply_phase_noise", "rechip.experiments.mix_statistics",
                 "rechip.tomography.minimize", "rechip.kernels.mle_nll_grad",
                 "rechip.kernels.two_photon_amps"):
        assert site in tracer.sites()
    assert "rechip.experiments._minimize" not in tracer.sites()
    metrics, holes = tracing.layer_metrics(tracer.aggregate(), set(), name)
    assert holes == []
    if name == "tomography":
        assert metrics["tomography.mle_reconstruct.iterations"] > 0


def test_holes_and_missing_targets():
    stats = {"optics.compose": {"calls": 0, "self_s": 0.0}}
    metrics, holes = tracing.layer_metrics(stats, {"kernels.mle_nll_grad"}, "device-sweep")
    assert "optics.compose" in holes
    assert metrics["kernels.mle_nll_grad.calls"] is None
    assert "kernels.mle_nll_grad" not in holes


def run_bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_metric_names_match_spec(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = run_bench(str(tmp_path), "device-sweep", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_pace_sampler_samples_and_stops():
    import time
    import envinfo

    affinity = os.sched_getaffinity(0)
    try:
        sampler = envinfo.PaceSampler(interval=0.01)
        try:
            sampler.begin(-1.0)
            time.sleep(0.2)
            samples = sampler.end(-2.0)
        finally:
            sampler.stop()
        assert os.sched_getaffinity(0) == {sampler.cpu}
    finally:
        os.sched_setaffinity(0, affinity)
    assert not sampler._thread.is_alive()
    assert samples[0] == -1.0 and samples[-1] == -2.0 and len(samples) > 3
    assert all(0.0 < s < 1e3 for s in samples[1:-1])
