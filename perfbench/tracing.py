"""Span tracing of rechip's layers from outside the package.

The tracer wraps public functions where their callers look them up: a
function imported by name into another module (``from .chip import
coincidence_probs``) is a separate attribute there, so every module of the
package holding the same function object is patched.  Spans are kept in
compact in-memory arrays and written out once, when the run ends.
"""

import functools
import importlib
import sys
import time
from array import array

import numpy as np

DEVICE = ("device-sweep",)
DEVICE_AND_TOMO = ("device-sweep", "tomography")
TOMO = ("tomography",)
CLI = ("cli-cold",)


class Target:
    """A traced function: metric prefix, home module, attribute and the
    workloads that must call it (zero calls there fail the traced run)."""

    def __init__(self, name, module, attr, workloads, home_only=False, stats=("calls", "self_s")):
        self.name = name
        self.module = module
        self.attr = attr
        self.workloads = workloads
        self.home_only = home_only
        self.stats = stats


TARGETS = [
    Target("optics.compose", "rechip.optics", "compose", DEVICE_AND_TOMO),
    Target("kernels.two_photon_amps", "rechip.kernels", "two_photon_amps", DEVICE_AND_TOMO),
    Target("kernels.distinguishable_probs", "rechip.kernels", "distinguishable_probs", DEVICE_AND_TOMO),
    Target("chip.two_qubit_unitary", "rechip.chip", "two_qubit_unitary", DEVICE),
    Target("chip.coincidence_probs", "rechip.chip", "coincidence_probs", DEVICE_AND_TOMO),
    Target("chip.distinguishable_coincidence_probs", "rechip.chip",
           "distinguishable_coincidence_probs", DEVICE_AND_TOMO),
    Target("noise.apply_phase_noise", "rechip.noise", "apply_phase_noise", DEVICE_AND_TOMO),
    Target("noise.mix_statistics", "rechip.noise", "mix_statistics", DEVICE_AND_TOMO),
    Target("experiments.device_probs", "rechip.experiments", "device_probs", DEVICE_AND_TOMO),
    Target("tomography.statistical_fidelity", "rechip.tomography", "statistical_fidelity", DEVICE),
    Target("experiments.random_config_benchmark", "rechip.experiments",
           "random_config_benchmark", DEVICE, stats=("self_s",)),
    Target("experiments.chsh_manifold", "rechip.experiments", "chsh_manifold", DEVICE, stats=("self_s",)),
    Target("experiments.chsh_extrema", "rechip.experiments", "chsh_extrema", DEVICE, stats=("self_s",)),
    Target("tomography.mle_reconstruct", "rechip.tomography", "mle_reconstruct", TOMO),
    # scipy's optimizer as rechip.tomography resolves it; experiments' own
    # Nelder-Mead import (chsh_extrema) is the same object and stays unwrapped
    Target("tomography.minimize", "rechip.tomography", "minimize", TOMO, home_only=True, stats=("self_s",)),
    Target("kernels.mle_nll_grad", "rechip.kernels", "mle_nll_grad", TOMO),
    Target("tomography.monte_carlo_error", "rechip.tomography", "monte_carlo_error", TOMO),
    Target("tomography.quantum_fidelity", "rechip.tomography", "quantum_fidelity", TOMO),
    Target("experiments.tomography_records", "rechip.experiments", "tomography_records", TOMO),
    Target("experiments.bell_state_suite", "rechip.experiments", "bell_state_suite", TOMO, stats=("self_s",)),
    Target("experiments.mixed_state_suite", "rechip.experiments", "mixed_state_suite", TOMO, stats=("self_s",)),
    Target("calibration.fit_fringe", "rechip.calibration", "fit_fringe", CLI),
    Target("calibration.read_fringe_csv", "rechip.calibration", "read_fringe_csv", CLI),
    Target("noise.read_count_records", "rechip.noise", "read_count_records", CLI),
]

MLE_TARGET = "tomography.mle_reconstruct"


class Tracer:
    """Records nested spans (name, start, end, parent, request id)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self._stack = []
        self._request_id = -1
        self._patches = None
        self.missing = []
        # per-fit MLE outcomes read from the returned MLEResult
        self.mle_iterations = 0
        self.mle_not_converged = 0

    def _id(self, name):
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_id):
        idx = len(self.start)
        self.name_id.append(name_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request_id)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def request_span(self, request_id, fn, *args):
        """Run fn(*args) inside a top-level span named "request"."""
        self._request_id = request_id
        idx = self.open(self._id("request"))
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self._request_id = -1

    def wrap(self, name, fn):
        name_id = self._id(name)
        on_mle = name == MLE_TARGET

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_mle:
                self.mle_iterations += int(result.iterations)
                self.mle_not_converged += not result.converged
            return result

        return traced

    def _find_patches(self):
        """(module, attribute, original, wrapper) for every call site of every target."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "rechip" or n.startswith("rechip."))]
        patches = []
        for target in TARGETS:
            try:
                home = importlib.import_module(target.module)
                original = getattr(home, target.attr)
            except (ImportError, AttributeError):
                self.missing.append(target.name)
                continue
            wrapped = self.wrap(target.name, original)
            for module in [home] if target.home_only else modules:
                patches += [(module, attr, original, wrapped)
                            for attr, value in vars(module).items() if value is original]
        return patches

    def install(self):
        """Patch every call site of every target; absent targets are recorded."""
        if self._patches is None:
            self._patches = self._find_patches()
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original, _ in reversed(self._patches or []):
            setattr(module, attr, original)

    def sites(self):
        """"module.attr" of every patched call site."""
        return sorted(f"{m.__name__}.{attr}" for m, attr, _, _ in self._patches or [])

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=np.float64) if len(self.end) else np.zeros(0)
        return (
            np.asarray(self.name_id, dtype=np.int64),
            start.copy(),
            end.copy(),
            np.asarray(self.parent, dtype=np.int64),
            np.asarray(self.request, dtype=np.int64),
        )

    def aggregate(self):
        """{name: {"calls": n, "self_s": s}} plus top-level request time."""
        name_id, start, end, parent, _ = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        calls = np.bincount(name_id, minlength=len(self.names))
        self_s = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        stats = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
        stats.setdefault("request", {"calls": 0, "self_s": 0.0})
        request_id = self._ids.get("request")
        top = (name_id == request_id) & ~nested if request_id is not None else np.zeros(0, bool)
        stats["request"]["dur_s"] = float(dur[top].sum())
        stats["mle"] = {"iterations": self.mle_iterations, "not_converged": self.mle_not_converged}
        return stats

    def save(self, path):
        name_id, start, end, parent, request = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, start=start, end=end,
                 parent=parent, request=request)


def merge_stats(total, part):
    """Add one aggregate (e.g. from a traced CLI child) into another."""
    for name, stats in part.items():
        into = total.setdefault(name, {})
        for key, value in stats.items():
            into[key] = into.get(key, 0) + value
    return total


def layer_metrics(stats, missing, workload):
    """Per-layer metric values from aggregated spans, and the holes found.

    A target that no longer exists reports None; one that exists but was
    never called on a workload declared to exercise it is a hole.
    """
    metrics, holes = {}, []
    for target in TARGETS:
        s = stats.get(target.name, {"calls": 0, "self_s": 0.0})
        for stat in target.stats:
            metrics[f"{target.name}.{stat}"] = None if target.name in missing else s[stat]
        if target.name not in missing and workload in target.workloads and s["calls"] == 0:
            holes.append(target.name)

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    mle = stats.get("mle", {"iterations": 0, "not_converged": 0})
    fits = metrics.get("tomography.mle_reconstruct.calls")
    metrics["chip.compose_per_device_eval"] = ratio(
        metrics.get("optics.compose.calls"), metrics.get("experiments.device_probs.calls"))
    metrics["tomography.mle_reconstruct.iterations"] = None if fits is None else mle["iterations"]
    metrics["tomography.iters_per_fit"] = ratio(mle["iterations"] if fits is not None else None, fits)
    metrics["tomography.nll_evals_per_fit"] = ratio(metrics.get("kernels.mle_nll_grad.calls"), fits)
    metrics["tomography.fits_not_converged"] = None if fits is None else mle["not_converged"]
    return metrics, holes
