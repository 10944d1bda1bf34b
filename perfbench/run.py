"""rechip benchmark: device sweeps, tomography and cold CLI calls.

    python3 perfbench/run.py --workload device-sweep|tomography|cli-cold \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rechip is imported from ``src/``.
Each run starts a fresh worker interpreter (worker.py) that sets up, then
measures.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Human-readable lines
and one ``{"detail": ...}`` JSON line (environment, speed probe, fail_frac,
sample counts, output digests) come first; the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from proc import run_child  # noqa: E402

WORKLOADS = ("device-sweep", "tomography", "cli-cold")
SETUP_SAMPLES = 3       # set-up is timed in this many fresh interpreters; median reported
SETUP_TIMEOUT_S = 20.0
RUN_SLACK_S = 90.0      # worker time allowed beyond --seconds (set-up, last request, probes)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker(args, workdir, extra=(), timeout=SETUP_TIMEOUT_S):
    """Start a worker interpreter; returns (result dict, spawn instant, peak RSS MB)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            *extra]
    out, err = os.path.join(workdir, "worker.out"), os.path.join(workdir, "worker.err")
    spawned = time.perf_counter()
    code, _, rss = run_child(argv, dict(os.environ), ROOT, out, err, timeout)
    with open(err) as fh:
        sys.stderr.write(fh.read())
    with open(out) as fh:
        lines = fh.read().strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(argv[2:])} exited {code}")
    return json.loads(lines[-1]), spawned, rss


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rechip", "__init__.py")):
        print(f"error: no rechip sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=os.path.join(ROOT, ".perfbench")) as workdir:
        try:
            result, spawned, rss = worker(args, workdir, timeout=args.seconds + RUN_SLACK_S)
            metrics = result["metrics"]
            if not args.trace:
                setups = [(result["ready"] - spawned, result["ready_scale"])]
                for _ in range(SETUP_SAMPLES - 1):
                    probe, probe_spawned, _ = worker(args, workdir, ["--setup-only"])
                    setups.append((probe["ready"] - probe_spawned, probe["ready_scale"]))
                metrics["setup_s"] = statistics.median(wall * scale for wall, scale in setups)
                metrics.setdefault("peak_rss_mb", rss)  # cli-cold reports its children instead
                result["detail"]["setup_samples_s"] = [wall for wall, _ in setups]
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    unknown = sorted(set(metrics) - set(units))
    absent = sorted(set(units) - set(metrics))
    if unknown or absent:
        print(f"error: metrics not matching BENCHMARK.json: unknown {unknown}, absent {absent}",
              file=sys.stderr)
        return 1
    detail = result["detail"]
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"detail": detail}))
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]} {units[name]}")
    print(f"{args.workload} attempted = {result['attempted']}, failed = {result['failed']}, "
          f"correct = {result['correct']}")
    for problem in detail.get("problems", []) + detail.get("failures", []):
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if not detail.get("problems") else 1


if __name__ == "__main__":
    sys.exit(main())
