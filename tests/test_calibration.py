import json
from pathlib import Path

import numpy as np
import pytest

from rechip.calibration import (
    CalibrationError,
    HeaterCurve,
    fit_fringe,
    fringe_model,
    phase_of_voltage,
    read_fringe_csv,
    voltage_of_phase,
    write_fringe_csv,
)
from rechip.cli import main
from rechip.experiments import fringe_scan
from rechip.noise import NoiseModel

CURVE = HeaterCurve(a0=0.3, a2=0.35, a3=0.01, a4=-0.0008)


def synthetic_fringe(curve, amplitude, contrast, n=140):
    volts = np.linspace(0.0, 7.0, n)
    counts = fringe_model(amplitude, contrast, curve, volts)
    return np.column_stack([volts, counts])


class TestPhaseOfVoltage:
    def test_zero_curve(self):
        zero = HeaterCurve(0.0, 0.0)
        assert phase_of_voltage(zero, 3.3) == 0.0

    def test_polynomial_value(self):
        h = HeaterCurve(a0=0.1, a2=0.2)
        assert phase_of_voltage(h, 2.0) == pytest.approx(0.9)

    def test_at_zero_volts(self):
        assert phase_of_voltage(CURVE, 0.0) == CURVE.a0

    def test_range_checked(self):
        with pytest.raises(ValueError):
            phase_of_voltage(CURVE, 7.5)
        with pytest.raises(ValueError):
            phase_of_voltage(CURVE, -0.1)


class TestVoltageOfPhase:
    def test_roundtrip(self, rng):
        lo, hi = CURVE.phase(0.0), CURVE.phase(7.0)
        for target in rng.uniform(lo, hi, 100):
            v = voltage_of_phase(CURVE, target)
            assert abs(phase_of_voltage(CURVE, v) - target) < 1e-8

    def test_a0_maps_to_zero_volts(self):
        assert voltage_of_phase(CURVE, CURVE.a0) == pytest.approx(0.0, abs=1e-9)

    def test_matches_analytic_inverse(self, rng):
        h = HeaterCurve(a0=0.2, a2=0.4)
        for target in rng.uniform(h.phase(0), h.phase(7), 50):
            expect = np.sqrt((target - h.a0) / h.a2)
            assert voltage_of_phase(h, target) == pytest.approx(expect, abs=1e-8)

    def test_unreachable_target(self):
        with pytest.raises(ValueError):
            voltage_of_phase(CURVE, CURVE.phase(7.0) + 1.0)

    def test_non_monotone_rejected(self):
        bumpy = HeaterCurve(a0=0.0, a2=0.3, a3=-0.2, a4=0.0)
        assert not bumpy.is_monotone()
        with pytest.raises(CalibrationError):
            voltage_of_phase(bumpy, 0.5)


class TestFringeModel:
    def test_zero_contrast_constant(self):
        v = np.linspace(0, 7, 10)
        assert np.allclose(fringe_model(100.0, 0.0, CURVE, v), 100.0, atol=0)

    def test_zero_phase(self):
        flat = HeaterCurve(0.0, 0.0)
        assert fringe_model(100.0, 0.9, flat, 1.0) == pytest.approx(10.0)

    def test_pi_phase(self):
        h = HeaterCurve(a0=np.pi, a2=0.0)
        assert fringe_model(100.0, 0.9, h, 1.0) == pytest.approx(100.0)


class TestFitFringe:
    def test_noiseless_recovery(self):
        samples = synthetic_fringe(CURVE, amplitude=8000.0, contrast=0.93)
        fit = fit_fringe(samples)
        assert fit.amplitude == pytest.approx(8000.0, rel=1e-6)
        assert fit.contrast == pytest.approx(0.93, rel=1e-6)
        assert fit.curve.a0 == pytest.approx(CURVE.a0, abs=1e-4)
        assert fit.curve.a2 == pytest.approx(CURVE.a2, abs=1e-4)
        assert fit.curve.a3 == pytest.approx(CURVE.a3, abs=1e-4)
        assert fit.curve.a4 == pytest.approx(CURVE.a4, abs=1e-4)

    def test_residual_not_worse_than_truth(self):
        samples = synthetic_fringe(CURVE, 5000.0, 0.97)
        fit = fit_fringe(samples)
        truth_rms = np.sqrt(np.mean(
            (fringe_model(5000.0, 0.97, CURVE, samples[:, 0]) - samples[:, 1]) ** 2
        ))
        assert fit.rms_residual <= truth_rms + 1e-9

    def test_contrast_under_noise(self):
        rng = np.random.default_rng(31)
        misses = 0.0
        for _ in range(100):
            samples = synthetic_fringe(CURVE, 10000.0, 0.95)
            samples[:, 1] *= 1.0 + 0.01 * rng.normal(size=samples.shape[0])
            fit = fit_fringe(samples)
            misses = max(misses, abs(fit.contrast - 0.95))
        assert misses < 0.01

    def test_device_grade_mean_contrast(self):
        rng = np.random.default_rng(7)
        contrasts = []
        for heater in range(8):
            curve = HeaterCurve(
                a0=rng.uniform(-0.4, 0.4),
                a2=rng.uniform(0.3, 0.5),
                a3=rng.uniform(0.0, 0.02),
                a4=rng.uniform(-0.001, 0.0),
            )
            samples = synthetic_fringe(curve, 10000.0, 0.988)
            samples[:, 1] = rng.poisson(samples[:, 1])
            contrasts.append(fit_fringe(samples).contrast)
        assert np.mean(contrasts) == pytest.approx(0.988, abs=0.005)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_fringe(synthetic_fringe(CURVE, 100.0, 0.9, n=10))

    def test_monotone_enforced_on_fit(self):
        fit = fit_fringe(synthetic_fringe(CURVE, 1000.0, 0.9))
        assert fit.curve.is_monotone()
        assert 0.0 <= fit.contrast <= 1.0


REFERENCE_FITS = json.loads(
    (Path(__file__).parent / "data" / "fringe_reference_fits.json").read_text())["cases"]


@pytest.mark.parametrize("case", REFERENCE_FITS, ids=[c["label"] for c in REFERENCE_FITS])
def test_reference_fits(case):
    """The fit reaches the recorded winning start's optimum (see the file's "about").

    A and C match the polished optimum to 1e-6 and the parent's finite-difference
    fit to 1e-5.  The rms is no worse than the parent's, up to 1e-9 of it plus a
    rounding floor of 1e-15 A, where a noiseless fringe's rms sits.
    """
    counts = np.array(case["counts"])
    fit = fit_fringe(np.column_stack([np.linspace(*case["volts"]), counts]))
    assert fit.amplitude == pytest.approx(case["optimum"]["A"], rel=1e-6)
    assert fit.contrast == pytest.approx(case["optimum"]["C"], rel=1e-6)
    assert fit.amplitude == pytest.approx(case["A"], rel=1e-5)
    assert fit.contrast == pytest.approx(case["C"], rel=1e-5)
    assert fit.rms_residual <= case["rms"] * (1.0 + 1e-9) + 1e-15 * case["A"]


@pytest.mark.parametrize("seed", [2, 17, 19])
def test_one_fringe_scan_fit_is_short(seed):
    """Scans of about one fringe, which once ran a start to its evaluation cap: the winner converges in at most 200."""
    scan = fringe_scan(3, np.linspace(0.0, 7.0, 120), HeaterCurve(0.1, 0.12, 0.002, 0.0),
                       NoiseModel(), np.random.default_rng(seed))
    fit = fit_fringe(scan.samples(0))
    assert fit.stop.startswith("converged: ")
    assert fit.evaluations <= 200


def test_scan_with_a_noise_blip_fits():
    """A 1e3-pair scan whose Poisson blip once passed for a fringe maximum and failed the fit."""
    scan = fringe_scan(1, np.linspace(0.0, 7.0, 120), HeaterCurve(0.25, 0.5, 0.004, -0.0002),
                       NoiseModel(mean_pairs=1e3), np.random.default_rng([2, 0]))
    fit = fit_fringe(scan.samples(0))
    assert fit.stop.startswith("converged: ")
    assert fit.curve.is_monotone()
    assert fit.rms_residual <= 0.1 * fit.amplitude


def test_low_count_sweep_fails_at_most_once():
    """100 random monotone curves at 1e3 pairs: at most one valid scan raises CalibrationError."""
    rng = np.random.default_rng(12345)
    failures = 0
    for k in range(100):
        curve = HeaterCurve(rng.uniform(0, 1), rng.uniform(0.1, 0.5), rng.uniform(-0.01, 0.01),
                            rng.uniform(-5e-4, 5e-4))
        if not curve.is_monotone():
            continue
        scan = fringe_scan(1, np.linspace(0.0, 7.0, 120), curve, NoiseModel(mean_pairs=1e3),
                           np.random.default_rng([k, 2]))
        try:
            fit_fringe(scan.samples(0))
        except CalibrationError:
            failures += 1
    assert failures <= 1


class TestFringeFiles:
    def test_roundtrip(self, tmp_path):
        samples = [(0.0, 10.5), (1.0, 20.25)]
        path = tmp_path / "fringe.csv"
        write_fringe_csv(path, samples)
        assert read_fringe_csv(path) == samples

    def test_bad_line_reported(self, tmp_path):
        path = tmp_path / "fringe.csv"
        path.write_text("voltage,counts\n0.0,10\nbad-line\n")
        with pytest.raises(ValueError, match="line 3"):
            read_fringe_csv(path)

    def test_fit_json_fields(self, tmp_path, capsys):
        path, out = tmp_path / "fringe.csv", tmp_path / "fit.json"
        write_fringe_csv(path, synthetic_fringe(CURVE, 1000.0, 0.9))
        assert main(["fringe-fit", str(path), "--output", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert set(doc) == {"A", "C", "a0", "a2", "a3", "a4", "rms", "evaluations", "stop",
                            "experiment", "schema"}
        assert doc["stop"].startswith("converged: ")
