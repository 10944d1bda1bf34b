"""The benchmark's three workloads: seeded request lists, execution and checks.

Every workload turns a seed into an endless, reproducible list of requests.
Two generators are derived from the seed: a *shape* stream (request kinds
and sizes) and a *data* stream (inputs and one generator seed per request),
so a change in how inputs are drawn leaves the kinds and sizes in place.

Sizes follow a randomised low-discrepancy sequence per request kind, which
keeps the size mix, and so the latency percentiles, nearly the same across
seeds.

Requests call rechip only through its public API (in-process workloads) or
its command line (``cli-cold``).  The timed part of a request is the call
alone; its output check and digest run afterwards.
"""

import hashlib
import json
import math
import os
import sys

import numpy as np

from rechip import experiments, tomography
from rechip.calibration import HeaterCurve, write_fringe_csv
from rechip.noise import CountRecord, NoiseModel, write_count_records

from proc import child_env, run_child

TSIRELSON = 2.0 * math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


class CheckFailed(Exception):
    """A request's output failed its correctness check."""


class Request:
    __slots__ = ("index", "kind", "params", "seed")

    def __init__(self, index, kind, params, seed):
        self.index = index
        self.kind = kind
        self.params = params
        self.seed = seed

    def key(self):
        """Everything that determines the request, for reproducibility tests."""
        return self.kind, json.dumps(self.params, sort_keys=True, default=repr), self.seed


class Spread:
    """Randomised golden-ratio (Weyl) sequence in [0, 1).

    Any run of consecutive draws is spread evenly over the interval (low
    discrepancy), from a seeded random start, so the mix of sizes, and with
    it the latency percentiles, barely changes from seed to seed.
    """

    STEP = (math.sqrt(5.0) - 1.0) / 2.0

    def __init__(self, rng):
        self.u = rng.random()

    def __call__(self):
        self.u = (self.u + self.STEP) % 1.0
        return self.u


def log_uniform(u, lo, hi):
    return lo * (hi / lo) ** u


def uniform_int(u, lo, hi):
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def digest(text):
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def _reject_constant(name):
    raise CheckFailed(f"non-finite value {name} in JSON output")


def strict_json(text):
    """Parse JSON, rejecting NaN and infinities."""
    return json.loads(text, parse_constant=_reject_constant)


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def require_finite(values, what):
    arr = np.asarray(values, dtype=float)
    require(np.all(np.isfinite(arr)), f"{what}: non-finite value")
    return arr


def check_suite(report):
    """Every reconstructed state is a valid density matrix; fidelities in [0, 1]."""
    for entry in report.entries:
        try:
            tomography.check_density(entry.rho)
        except ValueError as exc:
            raise CheckFailed(f"{report.experiment} {entry.label}: {exc}") from None
        require(0.0 <= entry.fidelity <= 1.0, f"{entry.label}: fidelity {entry.fidelity} outside [0, 1]")
        require(math.isfinite(entry.error) and entry.error >= 0.0, f"{entry.label}: bad error {entry.error}")
    return json.dumps(report.to_dict(), sort_keys=True)


class Workload:
    """Base: block-structured seeded request list."""

    name = ""
    block = ()             # request kinds in one block (permuted per block)
    block_seconds = 1.0    # nominal block cost, sizes the traced run
    min_trace_blocks = 1
    traced = False         # cli-cold: run commands under the tracing launcher
    above_tsirelson = 0    # sampled CHSH grid points with S > 2*sqrt(2), a known defect

    def __init__(self, seed, workdir):
        self.seed = seed % 2**64  # numpy seed sequences take non-negative entropy
        self.workdir = workdir

    def requests(self):
        shape = np.random.default_rng([self.seed, 0])
        data = np.random.default_rng([self.seed, 1])
        draws = {kind: Spread(shape) for kind in sorted(set(self.block))}
        index = 0
        while True:
            for k in shape.permutation(len(self.block)):
                kind = self.block[k]
                params = self.params(kind, draws[kind], data)
                yield Request(index, kind, params, int(data.integers(2**63)))
                index += 1

    def params(self, kind, draw, data):
        raise NotImplementedError

    def warm_up(self):
        """One untimed request of each kind, with inputs outside the timed list."""
        warm = np.random.default_rng([self.seed, 99])
        for kind in dict.fromkeys(self.block):
            req = Request(-1, kind, self.warm_params(kind, warm), int(warm.integers(2**63)))
            self.check(req, self.run(req))

    def warm_params(self, kind, rng):
        return self.params(kind, lambda: 0.0, rng)

    def run(self, req):
        return getattr(self, "run_" + req.kind.replace("-", "_"))(req)

    def check(self, req, out):
        """Validate a request's output; returns its canonical text for the digest."""
        return getattr(self, "check_" + req.kind.replace("-", "_"))(req, out)


# ---------------------------------------------------------------------------
# device-sweep: optics / chip / noise through the benchmark and CHSH drivers
# ---------------------------------------------------------------------------

class DeviceSweep(Workload):
    name = "device-sweep"
    block = ("bench_noisy",) * 4 + ("bench_exact",) * 4 + ("manifold_exact", "manifold_sampled")
    block_seconds = 2.4

    def params(self, kind, draw, data):
        if kind in ("bench_noisy", "bench_exact"):
            return {"n": int(round(log_uniform(draw(), 8, 995)))}
        if kind == "manifold_exact":
            return {"side": uniform_int(draw(), 6, 31)}
        return {"side": uniform_int(draw(), 6, 12)}

    @staticmethod
    def _step(side):
        return TWO_PI / (side - 1)

    def run_bench_noisy(self, req):
        return experiments.random_config_benchmark(
            req.params["n"], NoiseModel(), np.random.default_rng(req.seed))

    def run_bench_exact(self, req):
        return experiments.random_config_benchmark(
            req.params["n"], NoiseModel.noiseless(), np.random.default_rng(req.seed), exact=True)

    def run_manifold_exact(self, req):
        grid = experiments.chsh_manifold(self._step(req.params["side"]))
        return grid, experiments.chsh_extrema(grid)

    def run_manifold_sampled(self, req):
        return experiments.chsh_manifold(
            self._step(req.params["side"]), NoiseModel(), np.random.default_rng(req.seed), mc_trials=25)

    def _check_bench(self, req, report):
        f = require_finite(report.fidelities, "fidelities")
        require(f.size == req.params["n"], f"expected {req.params['n']} fidelities, got {f.size}")
        return f

    def check_bench_noisy(self, req, report):
        f = self._check_bench(req, report)
        require(np.all((f >= 0.0) & (f <= 1.0 + 1e-9)), "fidelity outside [0, 1]")
        return json.dumps(report.to_dict(), sort_keys=True)

    def check_bench_exact(self, req, report):
        f = self._check_bench(req, report)
        require(np.all(np.abs(f - 1.0) <= 1e-9), f"exact fidelity {f.min()!r} below 1 - 1e-9")
        return json.dumps(report.to_dict(), sort_keys=True)

    def check_manifold_exact(self, req, out):
        grid, (smin, smax) = out
        require(grid.s.shape == (req.params["side"],) * 2, f"grid shape {grid.s.shape}")
        require_finite(grid.s, "S")
        require(abs(smax - TSIRELSON) <= 1e-6, f"refined max S {smax!r} not within 1e-6 of 2*sqrt(2)")
        require(abs(smin + TSIRELSON) <= 1e-6, f"refined min S {smin!r} not within 1e-6 of -2*sqrt(2)")
        doc = grid.to_dict()
        doc["extrema"] = [smin, smax]
        return json.dumps(doc, sort_keys=True)

    def check_manifold_sampled(self, req, grid):
        s = require_finite(grid.s, "S")
        std = require_finite(grid.std, "std")
        require(np.all(std >= 0.0), "negative standard deviation")
        # the known per-setting jitter defect: counted, never a failure
        self.above_tsirelson += int(np.sum(s > TSIRELSON))
        return json.dumps(grid.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# tomography: MLE across dimension, purity, count level and resampling
# ---------------------------------------------------------------------------

class Tomography(Workload):
    name = "tomography"
    # direct MLE fits are three quarters and the glyph suites fill the 82nd to
    # 95th percentiles, so p50 and p90 fall inside dense clusters of latencies
    block = ("bell",) + ("glyph",) * 3 + ("mixed",) * 2 + ("mle",) * 18
    block_seconds = 2.6
    min_trace_blocks = 2  # two successive bell draws differ by 0.618, so one has mc_trials >= 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.settings = tomography.canonical_settings(2)
        self.glyph = experiments.load_psi_glyph()

    def params(self, kind, draw, data):
        if kind == "bell":
            return {"mc_trials": uniform_int(draw(), 0, 25)}
        if kind == "mixed":
            return {"n": int(round(log_uniform(draw(), 1, 119)))}
        if kind == "glyph":
            return {}
        pairs = float(log_uniform(draw(), 1e3, 1e6))
        rho = tomography.sample_hs_random(4, data)
        expected = tomography.simulate_counts(self.settings, rho, pairs)
        records = [CountRecord(r.setting, *(int(c) for c in data.poisson(r.counts())))
                   for r in expected]
        return {"pairs": pairs, "rho": rho, "records": records}

    def run_bell(self, req):
        return experiments.bell_state_suite(
            NoiseModel(), np.random.default_rng(req.seed), mc_trials=req.params["mc_trials"])

    def run_mixed(self, req):
        return experiments.mixed_state_suite(
            n=req.params["n"], noise=NoiseModel(), rng=np.random.default_rng(req.seed))

    def run_glyph(self, req):
        return experiments.mixed_state_suite(
            targets=self.glyph, noise=NoiseModel(), rng=np.random.default_rng(req.seed))

    def run_mle(self, req):
        return tomography.mle_reconstruct(self.settings, req.params["records"])

    def check_bell(self, req, report):
        require(len(report.entries) == 4, "expected four Bell states")
        return check_suite(report)

    def check_mixed(self, req, report):
        require(len(report.entries) == req.params["n"], "wrong number of suite entries")
        return check_suite(report)

    def check_glyph(self, req, report):
        require(len(report.entries) == len(self.glyph), "wrong number of glyph entries")
        return check_suite(report)

    def check_mle(self, req, result):
        try:
            tomography.check_density(result.rho)
        except ValueError as exc:
            raise CheckFailed(f"mle: {exc}") from None
        require(math.isfinite(result.log_likelihood), "non-finite log-likelihood")
        fidelity = tomography.quantum_fidelity(req.params["rho"], result.rho)
        require(0.0 <= fidelity <= 1.0, f"fidelity {fidelity} outside [0, 1]")
        return json.dumps({
            "rho": json.loads(tomography.rho_to_json(result.rho)),
            "log_likelihood": result.log_likelihood,
            "iterations": result.iterations,
            "converged": result.converged,
        }, sort_keys=True)


# ---------------------------------------------------------------------------
# cli-cold: one fresh interpreter per command
# ---------------------------------------------------------------------------

CLI_STEP = "1.2566370614359172"  # 2*pi/5: a 6 x 6 grid
CLI_TIMEOUT_S = 120.0
HERE = os.path.dirname(os.path.abspath(__file__))


class CliCold(Workload):
    name = "cli-cold"
    block = ("version", "verify-chip", "hom-dip", "fringe-fit", "tomo",
             "benchmark-random", "chsh-manifold", "mixed-suite")
    block_seconds = 9.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.env = child_env(os.path.dirname(HERE))
        self.peak_rss_mb = 0.0
        self.child_docs = []  # cli_child.py reports of the traced commands
        self.out_path = os.path.join(workdir, "out.json")
        self.stats_path = os.path.join(workdir, "stats.json")
        rng = np.random.default_rng([self.seed, 2])
        self.fringe_csv = os.path.join(workdir, "fringe.csv")
        curve = HeaterCurve(a0=rng.uniform(-0.4, 0.4), a2=rng.uniform(0.3, 0.5),
                            a3=rng.uniform(0.0, 0.02), a4=rng.uniform(-0.001, 0.0))
        scan = experiments.fringe_scan(int(rng.integers(1, 9)), np.linspace(0.0, 7.0, 120),
                                       curve, NoiseModel(), rng)
        write_fringe_csv(self.fringe_csv, scan.samples(0))
        self.counts_csv = os.path.join(workdir, "counts.csv")
        prep = experiments.PhaseConfig(list(experiments.BELL_PREPS["phi_plus"]) + [0.0] * 4)
        _, records = experiments.tomography_records(prep, NoiseModel(), rng, qubits=2)
        write_count_records(self.counts_csv, records)

    def params(self, kind, draw, data):
        return {}

    def warm_up(self):
        req = Request(-1, "verify-chip", {}, 0)
        self.check(req, self.run(req))

    def argv(self, req):
        if req.kind == "version":
            return ["--version"]
        seed = str(req.seed % 2**31)
        args = {
            "verify-chip": ["verify-chip"],
            "hom-dip": ["hom-dip", "--seed", seed],
            "fringe-fit": ["fringe-fit", self.fringe_csv],
            "tomo": ["tomo", self.counts_csv],
            "benchmark-random": ["benchmark-random", "--n", "12", "--seed", seed],
            "chsh-manifold": ["chsh-manifold", "--exact", "--step", CLI_STEP],
            "mixed-suite": ["mixed-suite", "--n", "8", "--seed", seed],
        }[req.kind]
        return args + ["--output", self.out_path]

    def run(self, req):
        for path in (self.out_path, self.stats_path):
            if os.path.exists(path):
                os.remove(path)
        if self.traced:
            prefix = [sys.executable, os.path.join(HERE, "cli_child.py"), self.stats_path]
        else:
            prefix = [sys.executable, "-m", "rechip.cli"]
        stdout = os.path.join(self.workdir, "stdout.txt")
        stderr = os.path.join(self.workdir, "stderr.txt")
        code, _, rss = run_child(prefix + self.argv(req), self.env, self.workdir, stdout, stderr,
                                 CLI_TIMEOUT_S)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if self.traced and os.path.exists(self.stats_path):
            with open(self.stats_path) as fh:
                self.child_docs.append(json.load(fh))
        with open(stdout) as fh:
            out = fh.read()
        with open(stderr) as fh:
            err = fh.read()
        return code, out, err

    def check(self, req, result):
        code, out, err = result
        tail = err.strip().splitlines()[-1:]
        require(code == 0, f"{req.kind}: exit {code} {tail}")
        if req.kind == "version":
            require(out.strip().startswith("rechip "), f"unexpected version output {out!r}")
            return out
        require(isinstance(strict_json(out), dict), "stdout is not a JSON object")
        with open(self.out_path, "rb") as fh:
            full = fh.read()
        doc = strict_json(full)
        if req.kind == "verify-chip":
            require(doc.get("passed") is True, "verify-chip did not pass")
        elif req.kind == "tomo":
            try:
                tomography.check_density(tomography.rho_from_json(json.dumps(doc["rho"])))
            except ValueError as exc:
                raise CheckFailed(f"tomo: {exc}") from None
        return full


WORKLOADS = {w.name: w for w in (DeviceSweep, Tomography, CliCold)}
