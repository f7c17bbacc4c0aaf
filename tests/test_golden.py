"""Golden outputs of the exact experiments.

Each ``tests/golden/<name>.cfg`` names its experiment; the CSV, the text
summary and the exit code of running it must equal the stored files byte for
byte.  These experiments use exact word and coefficient arithmetic only, so
their outputs do not depend on numpy or BLAS.
"""

from pathlib import Path

import pytest

from actrep.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.cfg"))


def test_golden_cases_present():
    assert CASES == [
        "blowup", "orbits", "orbits_many", "pingpong_degenerate", "pingpong_pass",
        "trace_S", "trace_noS", "trace_overflow",
    ]


@pytest.mark.parametrize("name", CASES)
def test_golden_output(tmp_path, name):
    cfg = GOLDEN / f"{name}.cfg"
    experiment = next(
        line.partition("=")[2].strip()
        for line in cfg.read_text().splitlines()
        if line.startswith("experiment")
    )
    out = tmp_path / f"{name}.csv"
    code = main([experiment, "--config", str(cfg), "--out", str(out)])
    assert code == int((GOLDEN / f"{name}.exit").read_text())
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert out.with_suffix(".txt").read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()
