"""The benchmark's tracer finds, and its workloads call, every function it times.

``perfbench/tracing.py`` names each traced layer as a module and attribute.
A name that no longer resolves is reported as a null metric, and the run
still exits 0, so a rename or a deletion in ``rechip`` must fail here.  A
target that resolves but that its workload never calls fails the traced
run, so the first traced blocks of each in-process workload run here too.
The tracer patches a function wherever a module imports it by name, and the
call sites below are where the drivers look the timed layers up.
"""

import importlib
import importlib.util
import itertools
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
CALL_SITES = ("rechip.chip.compose", "rechip.experiments.coincidence_probs",
              "rechip.experiments.distinguishable_coincidence_probs", "rechip.experiments.device_probs",
              "rechip.experiments.apply_phase_noise", "rechip.experiments.mix_statistics",
              "rechip.tomography.minimize", "rechip.kernels.mle_nll_grad", "rechip.kernels.two_photon_amps")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", _tracing().TARGETS, ids=lambda t: t.name)
def test_traced_target_resolves(target):
    value = getattr(importlib.import_module(target.module), target.attr, None)
    assert callable(value), f"{target.module}.{target.attr} is not a callable in rechip"


@pytest.mark.parametrize("workload", ["device-sweep", "tomography"])
def test_traced_targets_are_called(workload, tmp_path, monkeypatch):
    """The first blocks of seed-1 requests that a traced run takes call every target declared for the workload."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports its siblings by name
    workloads, tracing = importlib.import_module("workloads"), importlib.import_module("tracing")
    wl = workloads.WORKLOADS[workload](1, str(tmp_path))
    requests = list(itertools.islice(wl.requests(), wl.min_trace_blocks * len(wl.block)))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for req in requests:
            tracer.request_span(req.index, wl.run, req)
    finally:
        tracer.uninstall()
    _, holes = tracing.layer_metrics(tracer.aggregate(), set(tracer.missing), wl.name)
    assert tracer.missing == []
    assert holes == [], f"targets never called on {workload}: {holes}"


def test_call_sites_are_patched():
    """Each driver-side call site of a timed layer is one the tracer patches."""
    importlib.import_module("rechip.cli")  # imports every module of the package
    tracer = _tracing().Tracer()
    tracer.install()
    tracer.uninstall()
    assert [site for site in CALL_SITES if site not in tracer.sites()] == []
    assert "rechip.experiments._minimize" not in tracer.sites()
