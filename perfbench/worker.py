"""One measured run of a workload, in the fresh interpreter that run.py starts.

    python worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up (imports, input generation, fixtures, one warm-up request per kind)
ends at the "ready" instant, which is reported so that run.py can time
set-up from the moment it started this interpreter, together with the
factor that scales it to the reference pace (see Log.scaled_ms).  Then:

* trace 0: a closed loop of requests, one at a time, for S seconds;
* trace 1: a fixed number of request blocks (set by S alone, so counts
  repeat exactly for a seed), each request run untraced and traced.

The result is printed as one JSON line.
"""

import argparse
import itertools
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import envinfo  # noqa: E402
import tracing  # noqa: E402
from proc import child_env, run_child  # noqa: E402
from workloads import WORKLOADS, CheckFailed, digest  # noqa: E402

COVERAGE_MIN = 0.9
PROBE_REPEATS = 3
PROBE_TIMEOUT_S = 60.0
CLI_KINDS = WORKLOADS["cli-cold"].block


def execute(wl, req, tracer=None):
    """Run one request and check it: (latency s, error message or None, digest)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(req) if tracer is None else tracer.request_span(req.index, wl.run, req)
    except Exception as exc:  # a failed request is counted, the loop goes on
        return time.perf_counter() - t0, f"{req.kind}#{req.index}: {type(exc).__name__}: {exc}", None
    latency = time.perf_counter() - t0
    try:
        text = wl.check(req, out)
    except CheckFailed as exc:
        return latency, f"{req.kind}#{req.index}: check failed: {exc}", None
    except Exception as exc:
        return latency, f"{req.kind}#{req.index}: check raised {type(exc).__name__}: {exc}", None
    return latency, None, digest(text)


class Log:
    """Per-request outcomes of one pass."""

    def __init__(self):
        self.kinds, self.latencies, self.failures = [], [], []
        self.paces = []     # machine pace around each request (timed runs only)
        self.requests = []  # [index, kind, latency ms, (pace ms, pace samples,) output sha256]

    def add(self, req, latency, error, sha):
        self.kinds.append(req.kind)
        self.latencies.append(latency)
        if error:
            self.failures.append(error)
        self.requests.append([req.index, req.kind, latency * 1e3, sha])

    def scaled_ms(self):
        """Latencies in ms at the reference pace: each one times the reference
        over the mean of the paces sampled around (and during) the request."""
        return np.asarray(self.latencies) * 1e3 * envinfo.REFERENCE_PROBE_MS / np.asarray(self.paces)

    def p50_ms(self, kind=None):
        lat = [t for k, t in zip(self.kinds, self.latencies) if kind is None or k == kind]
        return float(np.median(lat) * 1e3) if lat else 0.0


def timed_run(wl, requests, seconds):
    """Closed loop for ``seconds``, sampling the machine's pace between and
    during requests."""
    log = Log()
    sampler = envinfo.PaceSampler()
    deadline = time.perf_counter() + seconds
    pace = envinfo.pace_ms()
    try:
        for req in requests:
            if time.perf_counter() >= deadline:
                break
            sampler.begin(pace)
            log.add(req, *execute(wl, req))
            pace = envinfo.pace_ms()
            samples = sampler.end(pace)
            log.paces.append(float(np.mean(samples)))
            log.requests[-1][3:3] = [log.paces[-1], len(samples)]
    finally:
        sampler.stop()
    return log


def interleaved_pass(wl, requests, tracer):
    """Each request untraced and traced, back to back, alternating which runs
    first, so drift in machine speed and any input cache cancel in the
    overhead.  Returns both logs and the wall time of each side."""
    logs = {False: Log(), True: Log()}
    walls = {False: 0.0, True: 0.0}
    for i, req in enumerate(requests):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            wl.traced = traced
            t0 = time.perf_counter()
            try:
                logs[traced].add(req, *execute(wl, req, tracer if traced else None))
            finally:
                walls[traced] += time.perf_counter() - t0
                wl.traced = False
                tracer.uninstall()
    return logs[False], walls[False], logs[True], walls[True]


def probe_median(argv, workdir):
    """Median wall time (s) of a short child process, and any failure."""
    env = child_env(ROOT)
    out, err = os.path.join(workdir, "probe.out"), os.path.join(workdir, "probe.err")
    walls = []
    for _ in range(PROBE_REPEATS):
        code, wall, _ = run_child(argv, env, workdir, out, err, PROBE_TIMEOUT_S)
        if code != 0:
            return None, f"probe {argv[1:]} exited {code}"
        walls.append(wall)
    return float(np.median(walls)), None


def import_probe(workdir):
    """cli.import_s: median time of ``import rechip.cli`` in a fresh interpreter."""
    stats = os.path.join(workdir, "import.json")
    values = []
    env = child_env(ROOT)
    out, err = os.path.join(workdir, "probe.out"), os.path.join(workdir, "probe.err")
    for _ in range(PROBE_REPEATS):
        argv = [sys.executable, os.path.join(HERE, "cli_child.py"), stats, "--import-only"]
        code, _, _ = run_child(argv, env, workdir, out, err, PROBE_TIMEOUT_S)
        if code != 0:
            return None, f"import probe exited {code}"
        with open(stats) as fh:
            values.append(json.load(fh)["import_s"])
    return float(np.median(values)), None


def traced_run(wl, seconds, workdir):
    """Per-layer metrics from a fixed request list, traced and untraced."""
    blocks = max(wl.min_trace_blocks, round(seconds / 2.0 / wl.block_seconds))
    count = blocks * len(wl.block)
    requests = list(itertools.islice(wl.requests(), count))
    problems = []

    interpreter_s, problem = probe_median([sys.executable, "-c", "pass"], workdir)
    problems += [problem] if problem else []
    import_s, problem = import_probe(workdir)
    problems += [problem] if problem else []

    tracer = tracing.Tracer()
    untraced, untraced_s, traced, traced_s = interleaved_pass(wl, requests, tracer)

    stats = tracer.aggregate()
    missing = set(tracer.missing)
    for doc in getattr(wl, "child_docs", []):
        tracing.merge_stats(stats, doc["stats"])
        missing.update(doc["missing"])
    metrics, holes = tracing.layer_metrics(stats, missing, wl.name)
    # counted on both executions of each request; each sees the same grids
    metrics["experiments.chsh_s_above_tsirelson"] = wl.above_tsirelson // 2
    metrics["cli.interpreter_s"] = interpreter_s
    metrics["cli.import_s"] = import_s
    for kind in CLI_KINDS:
        metrics[f"cli.{kind}.p50_ms"] = untraced.p50_ms(kind) if wl.name == "cli-cold" else 0.0
    coverage = stats["request"]["dur_s"] / traced_s if traced_s > 0 else 0.0
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["trace.request_coverage"] = coverage

    if holes:
        problems.append(f"targets never called on {wl.name}: {', '.join(holes)}")
    if coverage < COVERAGE_MIN:
        problems.append(f"request spans cover {coverage:.1%} of traced wall time (< {COVERAGE_MIN:.0%})")
    tracer.save(os.path.join(ROOT, ".perfbench", f"trace-{wl.name}.npz"))
    detail = {
        "blocks": blocks,
        "requests_per_side": count,
        "patched_sites": tracer.sites(),
        "missing_targets": sorted(missing),
        "problems": problems,
        "failures": (untraced.failures + traced.failures)[:10],
        "requests": traced.requests,
    }
    failed = len(untraced.failures) + len(traced.failures)
    return {
        "attempted": 2 * count,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "metrics": metrics,
        "detail": detail,
    }


def untraced_result(wl, log):
    lat_ms = np.asarray(log.latencies) * 1e3
    scaled = log.scaled_ms()
    kinds = sorted(set(log.kinds))
    metrics = {
        "req_p50_ms": float(np.percentile(scaled, 50)),
        "req_p90_ms": float(np.percentile(scaled, 90)),
    }
    if wl.name == "cli-cold":
        metrics["peak_rss_mb"] = wl.peak_rss_mb
    attempted = len(log.latencies)
    detail = {
        "samples": attempted,
        "wall_p50_ms": float(np.percentile(lat_ms, 50)),
        "wall_p90_ms": float(np.percentile(lat_ms, 90)),
        "pace_quartiles_ms": [float(q) for q in np.percentile(log.paces, [25, 50, 75])],
        "fail_frac": len(log.failures) / attempted,
        "failures": log.failures[:10],
        "requests_by_kind": {k: log.kinds.count(k) for k in kinds},
        "p50_ms_by_kind": {k: log.p50_ms(k) for k in kinds},
        "chsh_s_above_tsirelson": wl.above_tsirelson,
        "requests": log.requests,
    }
    return {
        "attempted": attempted,
        "failed": len(log.failures),
        "correct": not log.failures,
        "metrics": metrics,
        "detail": detail,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    start_pace = envinfo.pace_ms()

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        requests = wl.requests()
        first = next(requests)
        wl.warm_up()
        ready = time.perf_counter()
        ready_scale = envinfo.REFERENCE_PROBE_MS / (0.5 * (start_pace + envinfo.pace_ms()))
        if args.setup_only:
            print(json.dumps({"ready": ready, "ready_scale": ready_scale}))
            return 0
        wl.above_tsirelson = 0
        probe_before = envinfo.speed_probe()
        if args.trace:
            result = traced_run(wl, args.seconds, workdir)
        else:
            result = untraced_result(wl, timed_run(wl, itertools.chain([first], requests), args.seconds))
        result["ready"] = ready
        result["ready_scale"] = ready_scale
        result["detail"]["speed_probe_ms"] = [probe_before, envinfo.speed_probe()]
        result["detail"]["environment"] = envinfo.environment(ROOT)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
