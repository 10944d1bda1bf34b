import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rechip.calibration import HeaterCurve, fringe_model, write_fringe_csv
from rechip.chip import PhaseConfig, default_netlist
from rechip.experiments import fringe_scan
import rechip
from rechip.cli import build_parser, main
from rechip.noise import NoiseModel, write_count_records
from rechip.optics import Coupler, Netlist, netlist_to_json
from rechip.tomography import canonical_settings, simulate_counts


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestVerifyChip:
    def test_default_passes(self, capsys):
        code, out = run(["verify-chip"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["defect"] < 1e-9
        assert doc["success_probability"] == pytest.approx(1 / 9, abs=1e-9)

    def test_sabotaged_netlist_fails(self, tmp_path, capsys):
        net = default_netlist(PhaseConfig.zeros())
        elements = [
            Coupler(e.i, e.j, 0.5) if isinstance(e, Coupler) and {e.i, e.j} == {2, 3} else e
            for e in net.elements
        ]
        path = tmp_path / "bad.json"
        path.write_text(netlist_to_json(Netlist(6, tuple(elements))))
        code, out = run(["verify-chip", "--netlist", str(path)], capsys)
        assert code == 2
        assert json.loads(out)["passed"] is False

    def test_missing_netlist_file(self, tmp_path, capsys):
        code = main(["verify-chip", "--netlist", str(tmp_path / "nope.json")])
        assert code == 1

    @pytest.mark.parametrize(
        "text",
        ["[]", '{"modes": 6, "elements": 5}', '{"modes": 6, "elements": [{"type": "phase"}]}'],
        ids=["list", "elements-not-a-list", "missing-field"],
    )
    def test_malformed_netlist_file(self, text, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(text)
        assert main(["verify-chip", "--netlist", str(path)]) == 1
        _one_error_line(capsys, f"{path}: ")


class TestSeedRequirement:
    @pytest.mark.parametrize(
        "argv",
        [
            ["benchmark-random", "--n", "2"],
            ["bell-suite"],
            ["chsh-manifold"],
            ["hom-dip"],
            ["mixed-suite", "--exact"],  # an exact suite has no random targets to draw
        ],
    )
    def test_sampling_commands_require_seed(self, argv, tmp_path, capsys):
        _assert_exit_2_with_one_line(argv, tmp_path, capsys)

    def test_exact_mode_needs_no_seed(self, capsys):
        code, out = run(
            ["benchmark-random", "--n", "3", "--exact", "--visibility", "1", "--phase-sigma", "0"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["mean"] == pytest.approx(1.0, abs=1e-9)

    def test_exact_mode_is_ideal_device(self, capsys):
        # --exact runs the ideal device: a noise flag that contradicts it is an error
        assert main(["benchmark-random", "--n", "3", "--exact", "--visibility", "0.5"]) == 2
        _one_error_line(capsys, "error: benchmark-random: --exact runs the ideal device; drop --visibility 0.5")

    @pytest.mark.parametrize(
        "argv, config, dropped",
        [
            (["chsh-manifold", "--visibility", "0.5", "--accidental", "0.5", "--phase-sigma", "0.3"], None,
             "--phase-sigma 0.3 --visibility 0.5 --accidental 0.5"),
            (["hom-dip", "--visibility", "0.9"], None, "--visibility 0.9"),
            (["bell-suite"], {"accidental": 0.1}, "--accidental 0.1"),
            # an exact manifold's S does not depend on the pair count; an exact dip's counts do
            (["chsh-manifold", "--pairs", "10"], None, "--pairs 10.0"),
            (["chsh-manifold"], {"pairs": 500.0}, "--pairs 500.0"),
        ],
        ids=["all-three", "hom-dip", "from-config", "manifold-pairs", "manifold-pairs-from-config"],
    )
    def test_exact_rejects_noise_flags(self, argv, config, dropped, tmp_path, capsys):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        out = tmp_path / "report.json"
        assert main(argv + ["--exact", "--output", str(out)]) == 2
        _one_error_line(capsys, f"--exact runs the ideal device; drop {dropped}")
        assert not out.exists()

    def test_exact_hom_dip_keeps_pairs(self, tmp_path, capsys):
        # an exact dip's expected counts scale with the pair count
        expected = []
        for pairs in ("10", "1e4"):
            out = tmp_path / f"hom-{pairs}.json"
            assert run(["hom-dip", "--exact", "--pairs", pairs, "--output", str(out)], capsys)[0] == 0
            expected.append(np.array(json.loads(out.read_text())["expected"]))
        assert np.allclose(expected[1], 1e3 * expected[0], rtol=1e-12, atol=0.0)

    def test_bell_suite_exact(self, capsys):
        code, out = run(["bell-suite", "--exact", "--mc-trials", "0"], capsys)
        assert code == 0
        assert json.loads(out)["mean"] > 0.999

    def test_bell_suite_exact_default_has_no_error_bars(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        code, _ = run(["bell-suite", "--exact", "--output", str(path)], capsys)
        assert code == 0
        assert [e["error"] for e in json.loads(path.read_text())["entries"]] == [0.0] * 4


class TestArgumentValidation:
    """Rejected values exit 2 with one line on stderr, never a traceback or NaN."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["benchmark-random", "--n", "0", "--seed", "1"],
            ["benchmark-random", "--n", "4", "--seed", "1", "--pairs", "-5"],
            ["benchmark-random", "--n", "4", "--seed", "1", "--visibility", "1.5"],
            ["chsh-manifold", "--exact", "--step", "0"],
            ["benchmark-random", "--n", "4", "--seed", "1", "--phase-sigma", "nan"],
            ["benchmark-random", "--n", "4", "--seed", "1", "--pairs", "0"],
            ["mixed-suite", "--n", "0", "--seed", "1"],
            ["bell-suite", "--seed", "2", "--mc-trials", "1"],
            ["bell-suite", "--seed", "2", "--mc-trials", "-3"],
            ["mixed-suite", "--n", "2", "--seed", "2", "--mc-trials", "1"],
            ["chsh-manifold", "--seed", "3", "--mc-trials", "1"],
            ["bell-suite", "--exact", "--mc-trials", "5"],
            ["chsh-manifold", "--exact", "--mc-trials", "25"],
            ["mixed-suite", "--exact", "--glyph", "--mc-trials", "5"],
            ["chsh-manifold", "--exact", "--step", "1e-3"],
            ["chsh-manifold", "--exact", "--step", "inf"],
            ["hom-dip", "--seed", "1", "--points", "1"],
            ["verify-chip", "--threshold", "nan"],
            ["verify-chip", "--threshold", "inf"],
            ["verify-chip", "--threshold", "0"],
            ["verify-chip", "--threshold=-1e-9"],
            ["hom-dip", "--seed", "1", "--delay-max", "nan"],
            ["hom-dip", "--seed", "1", "--delay-max=inf"],
            ["hom-dip", "--seed", "1", "--delay-max=-inf"],
            ["hom-dip", "--seed", "1", "--delay-max", "0"],
            ["hom-dip", "--seed", "1", "--delay-max=-1600"],
            ["hom-dip", "--seed", "1", "--delay-max", "1e-300"],
        ],
        ids=["n-zero", "pairs-negative", "visibility-above-one", "step-zero", "sigma-nan", "pairs-zero",
             "mixed-n-zero", "mc-trials-one", "mc-trials-negative", "mixed-mc-trials-one",
             "manifold-mc-trials-one", "bell-exact-mc-trials", "manifold-exact-mc-trials",
             "mixed-exact-mc-trials", "step-grid-too-large", "step-inf", "hom-no-zero-delay-point",
             "threshold-nan", "threshold-inf", "threshold-zero", "threshold-negative", "delay-max-nan",
             "delay-max-inf", "delay-max-minus-inf", "delay-max-zero", "delay-max-negative", "delay-max-tiny"],
    )
    def test_exit_2_with_one_line(self, argv, tmp_path, capsys):
        _assert_exit_2_with_one_line(argv, tmp_path, capsys)

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["benchmark-random", "--n", "4", "--seed", "1"],
            ["chsh-manifold", "--exact"],
            ["bell-suite", "--seed", "2"],
            ["mixed-suite", "--n", "2", "--seed", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_jobs_below_one(self, argv, jobs, tmp_path, capsys):
        _assert_exit_2_with_one_line(argv + ["--jobs", jobs], tmp_path, capsys)

    def test_huge_delay_max_scans_without_warnings(self, tmp_path, capsys):
        # the dip term is clipped where it is already 0, so delays of 1e300 fs cannot overflow
        code = main(["hom-dip", "--seed", "1", "--delay-max", "1e300", "--output", str(tmp_path / "out.json")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert 0.9 < json.loads(captured.out)["visibility"] <= 1.0

    def test_header_only_targets(self, tmp_path, capsys):
        path = tmp_path / "targets.csv"
        path.write_text("rx,ry,rz\n")
        _assert_exit_2_with_one_line(["mixed-suite", "--targets", str(path), "--seed", "1"], tmp_path, capsys)

    def test_value_of_the_wrong_type_gives_one_line(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["benchmark-random", "--n", "abc", "--seed", "1"])
        assert err.value.code == 2
        assert capsys.readouterr().err == "rechip benchmark-random: error: argument --n: invalid int value: 'abc'\n"


def _number_options():
    """(subcommand, option, samples) for every option that takes a number."""
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, a.option_strings[-1], "seed" in {b.dest for b in sub._actions})
            for name, sub in subs.choices.items() for a in sub._actions
            if a.option_strings and a.type in (int, float)]


FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300", "-0.0", "abc", "1.5")


@given(option=st.sampled_from(_number_options()), value=st.sampled_from(FUZZ_VALUES))
def test_fuzzed_number_option(option, value):
    """Any number option at an awkward value exits 0, 1 or 2 with no traceback, at most one stderr
    line on failure, and strict JSON on stdout.  No such value asks for a run above its default size:
    --n and --points parse only 0 and -1, and a --step this small is rejected."""
    command, flag, samples = option
    argv = [command, *([os.devnull] if command == "tomo" else []), f"{flag}={value}"]
    if samples and flag != "--seed":
        argv += ["--seed", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert len(err.getvalue().splitlines()) <= 1

    def reject(name):
        raise AssertionError(f"non-finite {name} on stdout")

    for line in out.getvalue().splitlines():
        json.loads(line, parse_constant=reject)


def _assert_exit_2_with_one_line(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(argv + ["--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert not out.exists()


def _one_error_line(capsys, text):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ")
    assert text in err


SMALL_RUNS = {
    "verify-chip": [],
    "benchmark-random": ["--n", "4", "--seed", "1"],
    "bell-suite": ["--seed", "2", "--mc-trials", "0"],
    "chsh-manifold": ["--exact", "--step", "2.0943951023931953"],
    "mixed-suite": ["--n", "2", "--seed", "2"],
    "hom-dip": ["--seed", "5", "--points", "11"],
    "fringe-fit": ["fringe.csv"],
    "tomo": ["counts.csv"],
}


def _small_run_argv(command, tmp_path):
    """argv of a small run of every subcommand, its input files written to tmp_path."""
    curve = HeaterCurve(0.2, 0.4, 0.005, -0.0005)
    volts = np.linspace(0, 7, 60)
    write_fringe_csv(tmp_path / "fringe.csv", list(zip(volts, fringe_model(5000.0, 0.97, curve, volts))))
    write_count_records(tmp_path / "counts.csv", simulate_counts(canonical_settings(1), np.eye(2) / 2, 1e3))
    return [command] + [str(tmp_path / a) if a.endswith(".csv") else a for a in SMALL_RUNS[command]]


class TestFreshProcess:
    """A new interpreter writes nothing to stderr beyond the diagnostic itself."""

    def _run(self, *argv):
        return self._run_python("-m", "rechip.cli", *argv)

    def _run_python(self, *argv):
        # the child imports the same rechip as this test, ahead of any other PYTHONPATH entry
        src = os.path.dirname(os.path.dirname(os.path.abspath(rechip.__file__)))
        paths = (src, os.environ.get("PYTHONPATH"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        return subprocess.run([sys.executable, *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_rejected_argument_gives_one_stderr_line(self):
        out = self._run("benchmark-random", "--n", "0", "--seed", "1")
        assert out.returncode == 2
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("error: benchmark-random: ")

    def test_version_writes_no_stderr(self):
        out = self._run("--version")
        assert out.returncode == 0
        assert out.stderr == ""

    def test_verify_chip_does_not_import_scipy(self, tmp_path):
        script = ("import sys; from rechip.cli import main; "
                  f"code = main(['verify-chip', '--output', {str(tmp_path / 'out.json')!r}]); "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(code)")
        out = self._run_python("-c", script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("argv", [["tomo"], ["bell-suite", "--seed", "2", "--mc-trials", "3"],
                                      ["mixed-suite", "--glyph", "--seed", "5"]], ids=lambda argv: argv[0])
    def test_tomography_does_not_import_scipy(self, argv, tmp_path):
        if argv == ["tomo"]:
            counts = tmp_path / "counts.csv"
            write_count_records(counts, simulate_counts(canonical_settings(2), np.eye(4) / 4, 1e3))
            argv = ["tomo", str(counts)]
        script = ("import sys; from rechip.cli import main; "
                  f"code = main({argv + ['--output', str(tmp_path / 'out.json')]!r}); "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(code)")
        out = self._run_python("-c", script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]"

    def test_chsh_extrema_does_not_import_scipy(self, tmp_path):
        script = ("import sys; from rechip.cli import main; from rechip.experiments import chsh_extrema; "
                  "smin, smax = chsh_extrema(); "
                  f"code = main(['chsh-manifold', '--exact', '--output', {str(tmp_path / 'out.json')!r}]); "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(code)")
        out = self._run_python("-c", script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("command", ["--version", *sorted(SMALL_RUNS)])
    def test_no_command_imports_scipy(self, command, tmp_path):
        if command == "--version":
            argv = ["--version"]
        else:
            argv = _small_run_argv(command, tmp_path) + ["--output", str(tmp_path / "out")]
        if command == "fringe-fit":
            # a measured-like scan: Poisson counts over about one fringe
            scan = fringe_scan(3, np.linspace(0.0, 7.0, 120), HeaterCurve(0.1, 0.12, 0.002, 0.0),
                               NoiseModel(), np.random.default_rng(19))
            write_fringe_csv(tmp_path / "fringe.csv", scan.samples(0))
        script = ("import sys\nfrom rechip.cli import main\n"
                  f"try:\n    code = main({argv!r})\nexcept SystemExit as exc:\n    code = exc.code\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\nsys.exit(code)")
        out = self._run_python("-c", script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]"


class TestBenchmarkCommand:
    def test_json_output(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out = run(
            ["benchmark-random", "--n", "10", "--seed", "1", "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["n"] == 10
        assert len(doc["fidelities"]) == 10
        summary = json.loads(out)
        assert "fidelities" not in summary

    def test_jobs_do_not_change_bytes(self, tmp_path, capsys):
        paths = []
        for jobs in ("1", "3"):
            p = tmp_path / f"b{jobs}.json"
            run(["benchmark-random", "--n", "8", "--seed", "5", "--jobs", jobs,
                 "--output", str(p)], capsys)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_csv_format(self, tmp_path, capsys):
        p = tmp_path / "b.csv"
        code, _ = run(["benchmark-random", "--n", "4", "--seed", "2", "--format", "csv",
                       "--output", str(p)], capsys)
        assert code == 0
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "index,fidelity"
        assert len(lines) == 5


class TestManifoldCommand:
    def test_exact_csv_grid(self, tmp_path, capsys):
        p = tmp_path / "grid.csv"
        code, _ = run(["chsh-manifold", "--exact", "--format", "csv", "--output", str(p)], capsys)
        assert code == 0
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "alpha,beta,S,std"
        assert len(lines) == 1 + 16 * 16
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(values) == pytest.approx(2 * np.sqrt(2) * np.sin(8 * np.pi / 15) ** 2, abs=1e-9)


class TestMixedSuiteCommand:
    def test_glyph(self, capsys):
        code, out = run(["mixed-suite", "--glyph", "--seed", "3", "--pairs", "2000"], capsys)
        assert code == 0
        assert json.loads(out)["mean"] > 0.9

    def test_target_file_error_lines(self, tmp_path, capsys):
        path = tmp_path / "targets.csv"
        path.write_text("rx,ry,rz\n0.1,bad,0.0\n")
        code = main(["mixed-suite", "--targets", str(path), "--seed", "1"])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_finite_target_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "targets.csv"
        path.write_text("rx,ry,rz\n0.1,0.0,0.2\n0.1,nan,0.0\n")
        assert main(["mixed-suite", "--targets", str(path), "--seed", "1"]) == 1
        _one_error_line(capsys, f"{path}: line 3: non-finite value")


class TestHomCommand:
    def test_summary(self, capsys):
        code, out = run(["hom-dip", "--seed", "11"], capsys)
        assert code == 0
        assert json.loads(out)["visibility"] == pytest.approx(0.978, abs=0.02)


class TestFringeFitCommand:
    def test_fit_file(self, tmp_path, capsys):
        curve = HeaterCurve(0.2, 0.4, 0.005, -0.0005)
        volts = np.linspace(0, 7, 120)
        counts = fringe_model(5000.0, 0.97, curve, volts)
        path = tmp_path / "fringe.csv"
        write_fringe_csv(path, list(zip(volts, counts)))
        code, out = run(["fringe-fit", str(path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["C"] == pytest.approx(0.97, rel=1e-5)
        assert doc["A"] == pytest.approx(5000.0, rel=1e-5)

    def test_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "fringe.csv"
        path.write_text("voltage,counts\n0.0,1\n1.0\n")
        code = main(["fringe-fit", str(path)])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["fringe-fit", str(tmp_path / "nope.csv")]) == 1

    def test_non_finite_sample_names_its_line(self, tmp_path, capsys):
        curve = HeaterCurve(0.2, 0.4, 0.005, -0.0005)
        volts = np.linspace(0, 7, 40)
        samples = list(zip(volts, fringe_model(5000.0, 0.97, curve, volts)))
        samples[5] = (volts[5], float("nan"))
        path = tmp_path / "fringe.csv"
        write_fringe_csv(path, samples)
        assert main(["fringe-fit", str(path)]) == 1
        _one_error_line(capsys, f"{path}: line 7: non-finite value")


class TestTomoCommand:
    def test_reconstruct_bell(self, tmp_path, capsys):
        bell = np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex) / 2
        settings = canonical_settings(2)
        records = simulate_counts(settings, bell, 1e5)
        path = tmp_path / "counts.csv"
        write_count_records(path, records)
        code, out = run(["tomo", str(path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["qubits"] == 2
        assert doc["converged"] is True

    def test_reports_optimizer_status(self, tmp_path, capsys, monkeypatch):
        # a fit stopped by the iteration limit: not converged, its iterations and the reason
        monkeypatch.setattr(rechip.tomography, "MAX_ITER", 3)
        path = tmp_path / "counts.csv"
        bell = np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex) / 2
        write_count_records(path, simulate_counts(canonical_settings(2), bell, 1e3))
        code, out = run(["tomo", str(path)], capsys)
        assert code == 0
        assert '"converged": false' in out
        doc = json.loads(out)
        assert (doc["iterations"], doc["message"]) == (3, "stopped: iteration limit MAX_ITER")

    def test_missing_setting(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("setting,n00,n01,n10,n11\nZZ,1,2,3,4\n")
        code = main(["tomo", str(path)])
        assert code == 1
        assert "missing settings" in capsys.readouterr().err

    @staticmethod
    def _bell_counts(path, extra_rows):
        bell = np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex) / 2
        write_count_records(path, simulate_counts(canonical_settings(2), bell, 1e3))
        with open(path, "a") as fh:
            fh.write(extra_rows)

    def test_duplicate_setting(self, tmp_path, capsys):
        # a second ZZ row would otherwise replace the first
        path = tmp_path / "counts.csv"
        self._bell_counts(path, "ZZ,1,2,3,4\n")
        assert main(["tomo", str(path)]) == 1
        _one_error_line(capsys, f"{path}: duplicate settings ['ZZ']")

    def test_unknown_setting(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        self._bell_counts(path, "ZZZ,1,2,3,4\nQ,5,6,7,8\n")
        assert main(["tomo", str(path)]) == 1
        _one_error_line(capsys, f"{path}: unknown 2-qubit settings ['ZZZ', 'Q']")

    def test_two_qubit_outcomes_in_one_qubit_file(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("setting,n00,n01,n10,n11\nZ,10,20,7,9\nX,15,15,0,0\nY,15,15,0,0\n")
        assert main(["tomo", str(path)]) == 1
        _one_error_line(capsys, f"{path}: n10/n11 counts in one-qubit settings ['Z']")


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 4, "seed": 9, "pairs": 500.0}))
        code, out = run(["benchmark-random", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 4
        code, out = run(["benchmark-random", "--config", str(cfg), "--n", "6"], capsys)
        assert json.loads(out)["n"] == 6

    def test_unreadable_config(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        with pytest.raises(SystemExit) as err:
            main(["benchmark-random", "--config", str(missing), "--seed", "1", "--n", "2"])
        assert err.value.code == 1
        _one_error_line(capsys, "error: cannot read config file: ")

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        with pytest.raises(SystemExit) as err:
            main(["benchmark-random", "--config", str(cfg), "--seed", "1", "--n", "2"])
        assert err.value.code == 1
        _one_error_line(capsys, "error: invalid config JSON: expected an object of option values")

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 4, "sead": 9}))
        with pytest.raises(SystemExit) as err:
            main(["benchmark-random", "--config", str(cfg), "--seed", "1"])
        assert err.value.code == 1
        _one_error_line(capsys, "error: invalid config JSON: unknown option 'sead'")

    def test_key_of_another_subcommand_is_allowed(self, tmp_path, capsys):
        # one file can serve several commands; verify-chip's threshold applies nowhere else
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 3, "seed": 9, "threshold": 1e-6}))
        code, out = run(["benchmark-random", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 3

    def test_invalid_config_json(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        with pytest.raises(SystemExit) as err:
            main(["benchmark-random", "--config", str(cfg), "--seed", "1", "--n", "2"])
        assert err.value.code == 1

    @pytest.mark.parametrize(
        "values, key",
        [
            ({"exact": "no"}, "exact"),
            ({"seed": [1]}, "seed"),
            ({"format": "xml"}, "format"),
            ({"seed": 1.5}, "seed"),
            ({"seed": 1, "pairs": None}, "pairs"),
        ],
        ids=["switch-not-bool", "seed-list", "format-not-a-choice", "seed-not-int", "pairs-null"],
    )
    def test_value_checked_like_its_flag(self, values, key, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 3, **values}))
        with pytest.raises(SystemExit) as err:
            main(["benchmark-random", "--config", str(cfg)])
        assert err.value.code == 1
        _one_error_line(capsys, f"error: invalid config JSON: option {key!r}: ")

    def test_threshold_from_config_checked_by_handler(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"threshold": "nan"}))
        assert main(["verify-chip", "--config", str(cfg)]) == 2
        _one_error_line(capsys, "error: verify-chip: --threshold must be a positive finite number, got nan")

    def test_valid_seed_runs(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 1}))
        code, out = run(["benchmark-random", "--n", "3", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 3


class TestSurface:
    """Each subcommand takes exactly the options its handler reads."""

    EXPECTED = {
        "verify-chip": {"--output", "--config", "--netlist", "--threshold"},
        "benchmark-random": {"--output", "--format", "--config", "--seed", "--jobs", "--exact",
                             "--phase-sigma", "--visibility", "--accidental", "--pairs", "--n"},
        "bell-suite": {"--output", "--config", "--seed", "--jobs", "--exact",
                       "--phase-sigma", "--visibility", "--accidental", "--pairs", "--mc-trials"},
        "chsh-manifold": {"--output", "--format", "--config", "--seed", "--jobs", "--exact",
                          "--phase-sigma", "--visibility", "--accidental", "--pairs", "--step",
                          "--mc-trials"},
        "mixed-suite": {"--output", "--config", "--seed", "--jobs", "--exact",
                        "--phase-sigma", "--visibility", "--accidental", "--pairs", "--n",
                        "--targets", "--glyph", "--mc-trials"},
        "hom-dip": {"--output", "--format", "--config", "--seed", "--exact", "--visibility", "--pairs",
                    "--delay-max", "--points"},
        "fringe-fit": {"--output", "--config", "input"},
        "tomo": {"--output", "--config", "input", "--qubits"},
    }

    def test_options_per_subcommand(self):
        subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            name: {a.option_strings[-1] if a.option_strings else a.dest
                   for a in sub._actions if a.dest != "help"}
            for name, sub in subs.choices.items()
        }
        assert got == self.EXPECTED

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-chip", "--seed", "1"],
            ["verify-chip", "--format", "csv"],
            ["fringe-fit", "f.csv", "--pairs", "100"],
            ["tomo", "f.csv", "--jobs", "2"],
            ["hom-dip", "--seed", "5", "--phase-sigma", "0.1"],
            ["hom-dip", "--seed", "5", "--jobs", "2"],
            ["bell-suite", "--seed", "2", "--format", "csv"],
            ["mixed-suite", "--seed", "2", "--format", "csv"],
        ],
        ids=" ".join,
    )
    def test_dropped_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestReportContract:
    """Every subcommand reports through one writer: one JSON summary line on stdout
    carrying schema and experiment, strict JSON (no NaN or Infinity) in --output, and
    plain numbers in every CSV data field."""

    CSV = ("benchmark-random", "chsh-manifold", "hom-dip")

    def _summary(self, out, command):
        lines = out.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert isinstance(doc, dict)
        assert (doc["schema"], doc["experiment"]) == (1, command)

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_json_report(self, command, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out = run(_small_run_argv(command, tmp_path) + ["--output", str(path)], capsys)
        assert code == 0
        self._summary(out, command)
        text = path.read_text()
        assert "np." not in text

        def reject(name):
            raise AssertionError(f"non-finite {name} in the report")

        doc = json.loads(text, parse_constant=reject)
        assert (doc["schema"], doc["experiment"]) == (1, command)

    @pytest.mark.parametrize("command", CSV)
    def test_csv_report(self, command, tmp_path, capsys):
        path = tmp_path / "report.csv"
        code, out = run(_small_run_argv(command, tmp_path) + ["--format", "csv", "--output", str(path)], capsys)
        assert code == 0
        self._summary(out, command)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows)
        for row in rows:
            for field in row:
                float(field)

    def test_non_finite_number_exits_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(rechip.cli, "verify_cnot", lambda netlist: float("nan"))
        _assert_exit_2_with_one_line(["verify-chip"], tmp_path, capsys)
