"""Seeded CLI outputs stay byte-identical.

The files under data/golden/ are the full --output reports of small seeded
device-model runs.  The exact-manifold JSON was recorded before the device
model was batched, the seeded benchmark file when it moved to one generator
per block of rows, and the exact-manifold CSV, HOM-dip and verify-chip files
before every report went through one writer.  The exact glyph suite was
recorded when the maximum-likelihood fit moved from BFGS to damped Newton
steps with the exact Hessian.  The sampled manifold, the seeded Bell and
glyph suites and the exact benchmark were recorded when every sampled task
came to draw from one child of Generator.spawn, and a benchmark without a
generator came to draw its configurations as a run given default_rng(0)
does.  A change that moves any byte of them changes seeded results and must
say so.  The last digits depend on the platform's floating-point kernels
(numpy's SIMD loops and BLAS), so a mismatch on a different machine is not
by itself a defect.
"""

from pathlib import Path

import pytest

from rechip.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
STEP = "1.2566370614359172"  # 2*pi/5: a 6 x 6 grid

CASES = {
    "benchmark_random_n40_seed1.json": ["benchmark-random", "--n", "40", "--seed", "1"],
    "benchmark_random_n40_exact.json": ["benchmark-random", "--n", "40", "--exact"],
    "chsh_manifold_exact_step5.json": ["chsh-manifold", "--exact", "--step", STEP],
    "chsh_manifold_seed3_mc5_step5.json": ["chsh-manifold", "--seed", "3", "--mc-trials", "5", "--step", STEP],
    "chsh_manifold_exact_step5.csv": ["chsh-manifold", "--exact", "--step", STEP, "--format", "csv"],
    "hom_dip_seed5.json": ["hom-dip", "--seed", "5"],
    "verify_chip.json": ["verify-chip"],
    "bell_suite_seed2_pairs1000_mc4.json": ["bell-suite", "--seed", "2", "--pairs", "1000", "--mc-trials", "4"],
    "mixed_suite_glyph_seed4_mc3.json": ["mixed-suite", "--glyph", "--seed", "4", "--mc-trials", "3"],
    "mixed_suite_glyph_exact.json": ["mixed-suite", "--glyph", "--exact"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(CASES[name] + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
