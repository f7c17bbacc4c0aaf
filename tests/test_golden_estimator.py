"""Golden outputs of the norm-estimator experiments.

Unlike ``tests/golden/``, these files depend on floating point: every
estimate, residual and witness value comes out of a float64 power
iteration, so the bytes pin the estimator's arithmetic and its order of
operations, not only its exact word arithmetic.  Estimator outputs have
been found equal across numpy's SIMD dispatch levels and BLAS thread counts
on an x86-64 host, complex coefficients included (``average_complex``);
other platforms and numpy 1.x are untested.

Each ``tests/golden_estimator/<name>.cfg`` names its experiment, and a
``<name>.seed`` file passes ``--seed``, which pins the start-vector lookup.
The stored exit code, CSV and text summary must match byte for byte, and so
must ``<name>.witness.json`` for the runs that end FALSIFIED.  The criterion
2-5 configs are compared by ``test_criterion_9_determinism``, which runs them
anyway; this module runs the small ones.
"""

from pathlib import Path

import pytest

from test_golden import assert_golden, run_case

GOLDEN_ESTIMATOR = Path(__file__).parent / "golden_estimator"
CASES = sorted(p.stem for p in GOLDEN_ESTIMATOR.glob("*.cfg"))
CRITERION_9_CASES = ("c2_panalytic", "c3_average", "c4_ideal", "c5_panalytic_falsified")


def test_golden_estimator_cases_present():
    assert CASES == [
        "average_complex", "average_seeded", "c2_panalytic", "c3_average", "c4_ideal",
        "c5_panalytic_falsified", "ideal_ab", "norm_free", "panalytic_seeded_line",
        "torsion_seeded",
    ]
    seeded = sorted(p.stem for p in GOLDEN_ESTIMATOR.glob("*.seed"))
    assert seeded == ["average_seeded", "panalytic_seeded_line", "torsion_seeded"]


@pytest.mark.parametrize("name", [c for c in CASES if c not in CRITERION_9_CASES])
def test_golden_estimator_output(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert_golden(GOLDEN_ESTIMATOR, name, out, run_case(GOLDEN_ESTIMATOR, name, out))
