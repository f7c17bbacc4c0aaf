"""Golden outputs of the exact experiments.

Each ``tests/golden/<name>.cfg`` names its experiment; the CSV, the text
summary and the exit code of running it must equal the stored files byte for
byte.  These experiments use exact word and coefficient arithmetic only, so
their outputs do not depend on numpy or BLAS.  ``orbits_torsion.svg`` pins
the chart that ``--svg`` writes for one of them.
"""

from pathlib import Path

import pytest

from actrep.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.cfg"))


def run_case(directory: Path, name: str, out: Path, *options: str) -> int:
    """Run ``<directory>/<name>.cfg`` through the CLI into ``out`` with
    ``options``; a ``<name>.seed`` file next to it passes ``--seed``.
    Returns the exit code."""
    cfg = directory / f"{name}.cfg"
    experiment = next(
        line.partition("=")[2].strip()
        for line in cfg.read_text().splitlines()
        if line.startswith("experiment")
    )
    seed = directory / f"{name}.seed"
    extra = ["--seed", seed.read_text().strip()] if seed.exists() else []
    return main([experiment, "--config", str(cfg), "--out", str(out), *extra, *options])


def assert_golden(directory: Path, name: str, out: Path, code: int) -> None:
    """The exit code, CSV, text summary and witness of a run into ``out``
    equal the stored ones; a case stores a witness only when it writes one."""
    stored = directory / name
    assert code == int(stored.with_suffix(".exit").read_text()), name
    assert out.read_bytes() == stored.with_suffix(".csv").read_bytes(), name
    assert out.with_suffix(".txt").read_bytes() == stored.with_suffix(".txt").read_bytes(), name
    witness, want = out.with_suffix(".witness.json"), stored.with_suffix(".witness.json")
    assert witness.exists() == want.exists(), name
    if want.exists():
        assert witness.read_bytes() == want.read_bytes(), name


def test_golden_cases_present():
    assert CASES == [
        "blowup", "orbits", "orbits_line", "orbits_many", "orbits_torsion",
        "pingpong_degenerate", "pingpong_pass", "trace_S", "trace_noS", "trace_overflow",
    ]


@pytest.mark.parametrize("name", CASES)
def test_golden_output(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert_golden(GOLDEN, name, out, run_case(GOLDEN, name, out))


def test_golden_chart(tmp_path):
    out = tmp_path / "orbits_torsion.csv"
    assert_golden(GOLDEN, "orbits_torsion", out, run_case(GOLDEN, "orbits_torsion", out, "--svg"))
    assert out.with_suffix(".svg").read_bytes() == (GOLDEN / "orbits_torsion.svg").read_bytes()
