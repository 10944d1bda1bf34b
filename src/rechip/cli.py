"""Command-line front end.

One subcommand per experiment plus a device self-check, each taking only
the options it reads.  Every sampling command requires --seed; identical
command lines (including the seed) produce byte-identical outputs.  Each
handler returns its report and one writer emits it: the report's scalar
fields as JSON on stdout, and with --output the full report (JSON, or CSV
rows under --format csv).

Exit codes: 0 success, 1 missing/invalid input file, 2 validation failure
(bad arguments, a noise flag that contradicts --exact, --pairs that an
exact chsh-manifold would ignore, or a failed device check).  A rejected
argument value gets a one-line diagnostic on stderr.
"""

import argparse
import csv
import io
import json
import math
import sys
from collections import Counter

import numpy as np

# Only the modules that every subcommand shares; each handler imports the drivers it runs.
# calibration and noise hold the cli-cold targets of perfbench's tracer, which patches only
# the modules loaded by `import rechip.cli` (perfbench/cli_child.py), so they stay here.
from . import (
    DEFAULT_MANIFOLD_STEP,
    MAX_BENCHMARK_N,
    MAX_HOM_POINTS,
    MAX_MANIFOLD_SIDE,
    MAX_MC_TRIALS,
    MAX_SUITE_TARGETS,
    SCHEMA,
    __version__,
    calibration,
    noise,
)
from .chip import PhaseConfig, cnot_success_probs, default_netlist, verify_cnot
from .optics import netlist_from_json, netlist_to_json

# NoiseModel's first three fields by flag: (field, value in the ideal device of --exact, sampled default)
_NOISE_FLAGS = {
    "phase_sigma": ("phase_sigma", 0.0, noise.DEFAULT_PHASE_SIGMA),
    "visibility": ("indistinguishability", 1.0, noise.DEFAULT_INDISTINGUISHABILITY),
    "accidental": ("accidental_fraction", 0.0, 0.0),
}


def _check_noise_flag(name, field, value):
    """A ValueError naming the flag and its value unless value is finite and in the field's domain."""
    low, high, text = noise.FIELD_DOMAINS[field]
    if not math.isfinite(value):
        text = "must be finite"
    elif low <= value <= high:
        return
    raise ValueError(f"--{name.replace('_', '-')} {text}, got {value}")


def _noise_from_args(args):
    pairs = noise.DEFAULT_MEAN_PAIRS if args.pairs is None else args.pairs
    if not pairs > 0:
        raise ValueError(f"--pairs must be positive, got {pairs}")
    _check_noise_flag("pairs", "mean_pairs", pairs)
    values, conflicts = {"mean_pairs": pairs}, []
    for name, (field, ideal, default) in _NOISE_FLAGS.items():
        # None when not given; hom-dip takes no --phase-sigma or --accidental: the dip reads neither
        value = getattr(args, name, ideal)
        if args.exact and value not in (None, ideal):
            conflicts.append(f"--{name.replace('_', '-')} {value}")
        if not args.exact and value is not None:
            _check_noise_flag(name, field, value)
        values[field] = ideal if args.exact else default if value is None else value
    if args.exact and args.pairs is not None and args.command == "chsh-manifold":
        conflicts.append(f"--pairs {args.pairs}")  # exact S does not depend on the pair count
    if conflicts:
        raise ValueError(f"--exact runs the ideal device; drop {' '.join(conflicts)}")
    events = pairs * (1.0 + values["accidental_fraction"])
    if events > noise.MAX_MEAN_EVENTS:
        what = "--pairs" if events == pairs else "--pairs * (1 + --accidental)"
        raise ValueError(f"{what} must be at most {noise.MAX_MEAN_EVENTS:g}, got {events}")
    return noise.NoiseModel(**values)


def _mc_trials_from_args(args):
    trials = args.mc_trials
    if trials is None:  # bell-suite's default: 25 resamples of a sampled run, none of an exact one
        return 0 if args.exact else 25
    if trials == 1 or not 0 <= trials <= MAX_MC_TRIALS:
        raise ValueError(f"--mc-trials must be 0 (no error bars) or 2 to {MAX_MC_TRIALS}, got {trials}")
    if trials and args.exact:
        raise ValueError(f"--exact runs have no counts to resample; drop --mc-trials {trials} or --exact")
    return trials


def _rng_from_args(args):
    if args.exact:
        return None
    if args.seed is None:
        raise ValueError("--seed is required for sampled runs (or pass --exact)")
    return np.random.default_rng(args.seed)


class InputFileError(Exception):
    """An input file that cannot be read or holds malformed data (exit 1)."""


def _read_input(read, path):
    """read(path); an unreadable or malformed file raises InputFileError naming it.

    Pass the reader as a module attribute (``noise.read_count_records``) so
    the lookup happens at call time.
    """
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise InputFileError(exc) from None


def _read_netlist(path):
    with open(path) as fh:
        text = fh.read()
    try:
        return netlist_from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _emit(args, doc, table):
    """Write a handler's report: its scalar fields as JSON on stdout, and to --output
    the full document as sorted JSON, or under --format csv the (header, rows) table.
    A non-finite number in the JSON raises ValueError before anything is written."""
    if getattr(args, "format", "json") == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([table[0], *table[1]])
        text = buf.getvalue()
    else:
        text = json.dumps(doc, sort_keys=True, allow_nan=False)
    summary = {k: v for k, v in doc.items() if not isinstance(v, (list, dict))}
    summary_text = json.dumps(summary, sort_keys=True, allow_nan=False)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    print(summary_text)


def _add_options(sub, csv=False, sampling=False, jobs=False, device_noise=True):
    """--output and --config; --format for a CSV report; for a sampled run --seed, --exact,
    the noise flags (jitter and accidentals only with device_noise) and, with jobs, --jobs."""
    sub.add_argument("--output", default=None, help="write the full report to this path")
    sub.add_argument("--config", default=None, help="JSON file of default option values")
    if csv:
        sub.add_argument("--format", choices=("json", "csv"), default="json")
    if not sampling:
        return
    sub.add_argument("--seed", type=int, default=None, help="master RNG seed")
    if jobs:
        sub.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility (at least 1); changes nothing: runs are sequential")
    sub.add_argument("--exact", action="store_true",
                     help="probability-level run of the ideal device: no sampling, no noise model")
    if device_noise:
        sub.add_argument("--phase-sigma", type=float, default=None)
        sub.add_argument("--accidental", type=float, default=None)
    sub.add_argument("--visibility", type=float, default=None)
    sub.add_argument("--pairs", type=float, default=None,
                     help=f"expected coincidences per setting (default {noise.DEFAULT_MEAN_PAIRS:g}); "
                          f"with accidentals at most {noise.MAX_MEAN_EVENTS:g}")


_MC_TRIALS_HELP = f"resamples per error bar, 0 or 2 to {MAX_MC_TRIALS} (default 0)"


class _Parser(argparse.ArgumentParser):
    """An argument parser that rejects a value with one stderr line, without the usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="rechip", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rechip {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify-chip", help="postselected-CNOT self check")
    _add_options(p)
    p.add_argument("--netlist", default=None, help="alternative chip layout (netlist JSON)")
    p.add_argument("--threshold", type=float, default=1e-9, help="largest passing defect (positive)")

    p = subs.add_parser("benchmark-random", help="random-configuration fidelity benchmark")
    _add_options(p, csv=True, sampling=True, jobs=True)
    p.add_argument("--n", type=int, default=995,
                   help=f"configurations, 1 to {MAX_BENCHMARK_N}")

    p = subs.add_parser("bell-suite", help="prepare and tomograph the four Bell states")
    _add_options(p, sampling=True, jobs=True)
    p.add_argument("--mc-trials", type=int, default=None,
                   help=f"resamples per error bar, 0 or 2 to {MAX_MC_TRIALS} (default 25; none with --exact)")

    p = subs.add_parser("chsh-manifold", help="Bell-CHSH sum over the (alpha, beta) grid")
    _add_options(p, csv=True, sampling=True, jobs=True)
    p.add_argument("--step", type=float, default=DEFAULT_MANIFOLD_STEP,
                   help=f"grid spacing in rad; at least 2*pi/{MAX_MANIFOLD_SIDE - 1} "
                        f"({MAX_MANIFOLD_SIDE} points per axis)")
    p.add_argument("--mc-trials", type=int, default=0, help=_MC_TRIALS_HELP)

    p = subs.add_parser("mixed-suite", help="generate and tomograph mixed qubit-A states")
    _add_options(p, sampling=True, jobs=True)
    p.add_argument("--n", type=int, default=119,
                   help=f"random targets to draw, 1 to {MAX_SUITE_TARGETS}")
    p.add_argument("--targets", default=None,
                   help=f"Bloch-target CSV (header rx,ry,rz), at most {MAX_SUITE_TARGETS} rows")
    p.add_argument("--glyph", action="store_true", help="use the bundled psi-glyph targets")
    p.add_argument("--mc-trials", type=int, default=0, help=_MC_TRIALS_HELP)

    p = subs.add_parser("hom-dip", help="two-photon dip against optical delay")
    _add_options(p, csv=True, sampling=True, device_noise=False)
    p.add_argument("--delay-max", type=float, default=1600.0,
                   help="scan half-width in fs (positive and finite)")
    p.add_argument("--points", type=int, default=81, help=f"delays in the scan, 1 to {MAX_HOM_POINTS}")

    p = subs.add_parser("fringe-fit", help="fit a heater fringe CSV (voltage,counts)")
    _add_options(p)
    p.add_argument("input", help="fringe CSV file")

    p = subs.add_parser("tomo", help="reconstruct a density matrix from a counts CSV")
    _add_options(p)
    p.add_argument("input", help="counts CSV file (setting,n00,n01,n10,n11)")
    p.add_argument("--qubits", type=int, choices=(1, 2), default=None,
                   help="inferred from the setting labels when omitted")

    return parser


def _config_value(key, action, value):
    """A --config value checked as its flag's would be: a switch takes true or false, any
    other option a string (or a number, if it has a type) through its type and choices."""
    try:
        if isinstance(action, argparse._StoreTrueAction):
            if isinstance(value, bool):
                return value
        elif isinstance(value, str) or (action.type and type(value) in (int, float)):
            value = action.type(str(value)) if action.type else value
            if action.choices is None or value in action.choices:
                return value
        choices = f" (choose from {', '.join(map(str, action.choices))})" if action.choices else ""
        raise ValueError(f"invalid value {json.dumps(value)}{choices}")
    except ValueError as exc:
        raise ValueError(f"option {key!r}: {exc}") from None


def _apply_config_file(parser, argv):
    # --config supplies defaults, keyed by any subcommand's options; explicit flags win
    probe = _Parser(prog="rechip", add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config:
        subs = [sub for sub_action in parser._subparsers._group_actions
                for sub in sub_action.choices.values()]
        actions = [{a.dest: a for a in sub._actions if a.dest != "help"} for sub in subs]
        try:
            with open(known.config) as fh:
                defaults = json.load(fh)
            if not isinstance(defaults, dict):
                raise ValueError("expected an object of option values")
            unknown = sorted(set(defaults).difference(*actions))
            if unknown:
                raise ValueError(f"unknown option {', '.join(map(repr, unknown))}")
            values = [{k: _config_value(k, acts[k], v) for k, v in defaults.items() if k in acts}
                      for acts in actions]
        except (OSError, ValueError) as exc:
            what = "cannot read config file" if isinstance(exc, OSError) else "invalid config JSON"
            print(f"error: {what}: {exc}", file=sys.stderr)
            raise SystemExit(1)
        for sub, checked in zip(subs, values):
            sub.set_defaults(**checked)


def cmd_verify_chip(args):
    if not 0 < args.threshold < np.inf:
        raise ValueError(f"--threshold must be a positive finite number, got {args.threshold}")
    netlist = _read_input(_read_netlist, args.netlist) if args.netlist else None
    defect = verify_cnot(netlist)
    successes = cnot_success_probs(netlist)
    shown = netlist if netlist is not None else default_netlist(PhaseConfig.zeros())
    return {
        "schema": SCHEMA,
        "experiment": "verify-chip",
        "defect": defect,
        "success_probabilities": [float(s) for s in successes],
        "success_probability": float(successes.mean()),
        "threshold": args.threshold,
        "passed": bool(defect < args.threshold),
        "netlist": json.loads(netlist_to_json(shown)),
    }, None


def cmd_benchmark_random(args):
    from . import experiments

    rng = _rng_from_args(args)
    report = experiments.random_config_benchmark(
        n=args.n, noise=_noise_from_args(args), rng=rng, exact=args.exact
    )
    return report.to_dict(), (["index", "fidelity"], enumerate(report.fidelities.tolist()))


def cmd_bell_suite(args):
    from . import experiments

    rng = _rng_from_args(args)
    report = experiments.bell_state_suite(
        noise=_noise_from_args(args), rng=rng, mc_trials=_mc_trials_from_args(args)
    )
    return report.to_dict(), None


def cmd_chsh_manifold(args):
    from . import experiments

    rng = _rng_from_args(args)
    grid = experiments.chsh_manifold(
        step=args.step, noise=_noise_from_args(args), rng=rng,
        mc_trials=_mc_trials_from_args(args),
    )
    alphas, betas = np.meshgrid(grid.alphas, grid.betas, indexing="ij")
    rows = np.column_stack([alphas.ravel(), betas.ravel(), grid.s.ravel(), grid.std.ravel()]).tolist()
    return grid.to_dict(), (["alpha", "beta", "S", "std"], rows)


def cmd_mixed_suite(args):
    from . import experiments

    rng = _rng_from_args(args)
    targets = None
    if args.glyph:
        targets = experiments.load_psi_glyph()
    elif args.targets:
        targets = _read_input(experiments.read_bloch_targets, args.targets)
    if targets is None and rng is None:
        raise ValueError("--exact needs --targets or --glyph")
    report = experiments.mixed_state_suite(
        targets=targets, n=args.n, noise=_noise_from_args(args), rng=rng,
        mc_trials=_mc_trials_from_args(args),
    )
    return report.to_dict(include_states=False), None


def cmd_hom_dip(args):
    if not 0 < args.delay_max < np.inf:
        raise ValueError(f"--delay-max must be a positive finite number, got {args.delay_max}")
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    if args.points > MAX_HOM_POINTS:
        raise ValueError(f"--points must be at most {MAX_HOM_POINTS}, got {args.points}")
    from . import experiments

    rng = _rng_from_args(args)
    delays = np.linspace(-args.delay_max, args.delay_max, args.points)
    scan = experiments.hom_scan(delays, noise=_noise_from_args(args), rng=rng)
    rows = zip(scan.delays_fs.tolist(), scan.expected.tolist(), scan.counts.tolist())
    return scan.to_dict(), (["delay_fs", "expected", "counts"], rows)


def cmd_fringe_fit(args):
    fit = calibration.fit_fringe(_read_input(calibration.read_fringe_csv, args.input))
    return {"schema": SCHEMA, "experiment": "fringe-fit", "A": fit.amplitude, "C": fit.contrast,
            "rms": fit.rms_residual, "evaluations": fit.evaluations, "stop": fit.stop,
            **vars(fit.curve)}, None


def cmd_tomo(args):
    from . import tomography

    records = _read_input(noise.read_count_records, args.input)
    if not records:
        raise InputFileError(f"{args.input}: no count records")
    qubits = args.qubits or (2 if len(records[0].setting) == 2 else 1)
    settings = tomography.canonical_settings(qubits)
    labels = [s.label for s in settings]
    by_label = {r.setting: r for r in records}
    rejected = {
        f"unknown {qubits}-qubit settings": [r.setting for r in records if r.setting not in labels],
        "duplicate settings": [label for label, n in Counter(r.setting for r in records).items() if n > 1],
        "missing settings": [label for label in labels if label not in by_label],
        "n10/n11 counts in one-qubit settings": [r.setting for r in records if qubits == 1 and (r.n10 or r.n11)],
    }
    for problem, bad in rejected.items():
        if bad:
            raise InputFileError(f"{args.input}: {problem} {bad}")
    result = tomography.mle_reconstruct(settings, [by_label[label] for label in labels])
    return {
        "schema": SCHEMA,
        "experiment": "tomo",
        "qubits": qubits,
        "rho": tomography.rho_to_list(result.rho),
        "log_likelihood": result.log_likelihood,
        "iterations": result.iterations,
        "converged": result.converged,
        "message": result.message,
    }, None


_HANDLERS = {
    "verify-chip": cmd_verify_chip,
    "benchmark-random": cmd_benchmark_random,
    "bell-suite": cmd_bell_suite,
    "chsh-manifold": cmd_chsh_manifold,
    "mixed-suite": cmd_mixed_suite,
    "hom-dip": cmd_hom_dip,
    "fringe-fit": cmd_fringe_fit,
    "tomo": cmd_tomo,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    _apply_config_file(parser, argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        doc, table = _HANDLERS[args.command](args)
        _emit(args, doc, table)
    except InputFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, calibration.CalibrationError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    return 2 if doc.get("passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
