"""Seeded CLI outputs stay byte-identical.

The files under data/golden/ are the full --output reports of small seeded
device-model runs, recorded before the device model was batched.  A change
that moves any byte of them changes seeded results and must say so.  The
last digits depend on the platform's floating-point kernels (numpy's SIMD
loops and BLAS), so a mismatch on a different machine is not by itself a
defect.
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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(CASES[name] + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
