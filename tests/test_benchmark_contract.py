"""The benchmark's tracer finds, and its workloads call, every function it times.

``perfbench/tracing.py`` names each traced layer as a module and attribute.
A name that no longer resolves is reported as a null metric, and the run
still exits 0, so a rename or a deletion in ``rechip`` must fail here.  A
target that resolves but that its workload never calls fails the traced
run, so the first traced blocks of each in-process workload run here too.
The tracer patches a function wherever a module imports it by name, and the
call sites below are where the drivers look the timed layers up.  The
tracer patches only modules loaded when it installs, and ``cli_child.py``
installs it right after ``import rechip.cli``, so that import must load the
home module of every ``cli-cold`` target.
"""

import importlib
import importlib.util
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rechip

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
    for name in ("rechip.experiments", "rechip.tomography"):  # rechip.cli loads neither
        importlib.import_module(name)
    tracer = _tracing().Tracer()
    tracer.install()
    tracer.uninstall()
    assert [site for site in CALL_SITES if site not in tracer.sites()] == []
    assert "rechip.experiments._minimize" not in tracer.sites()


def test_cli_import_loads_every_cli_cold_target():
    """In a fresh interpreter, a tracer installed right after ``import rechip.cli`` patches every cli-cold target."""
    expected = [f"{t.module}.{t.attr}" for t in _tracing().TARGETS if "cli-cold" in t.workloads]
    script = ("import importlib.util, rechip.cli\n"
              f"spec = importlib.util.spec_from_file_location('perfbench_tracing', {str(TRACING)!r})\n"
              "tracing = importlib.util.module_from_spec(spec)\nspec.loader.exec_module(tracing)\n"
              "tracer = tracing.Tracer()\ntracer.install()\ntracer.uninstall()\nprint(*tracer.sites())")
    # the child imports the same rechip as this test, ahead of any other PYTHONPATH entry
    src = os.path.dirname(os.path.dirname(os.path.abspath(rechip.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert expected and [site for site in expected if site not in out.stdout.split()] == []
