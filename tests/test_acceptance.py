"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Numerical criteria compare certified lower bounds
against closed-form envelopes; reference values for the free-case band were
frozen from the dense compression oracle in tests/oracles.py together with
the closed form 2 sqrt(J-1) / J.
"""

import math
import random
import time

from actrep.groups import INFINITE, free_group, free_product, reduce
from actrep.operators import (
    FormalOperator,
    NormBudget,
    StateVector,
    norm_lower_bound,
    op_apply,
    triangle_upper_bound,
)
from actrep.spaces import CayleySpace
from actrep.dynamics import (
    FALSIFIED,
    PASS,
    average_MJ,
    averaging_decay_report,
    canonical_trace,
    check_Wj_disjoint,
    finite_order_blowup,
    ideal_experiment,
    tracial_property_check,
    verify_panalytic,
)

from test_golden import GOLDEN, assert_golden, run_case
from test_golden_estimator import CRITERION_9_CASES, GOLDEN_ESTIMATOR

F2 = free_group(2)
A, B = F2.generators()
E = F2.identity()
F2_SPACE = CayleySpace(F2)

Z2Z3 = free_product([2, 3], names=("s", "t"))
S, T23 = Z2Z3.generators()
Z2Z3_SPACE = CayleySpace(Z2Z3)

Z3Z = free_product([3, INFINITE], names=("h", "g"))
H, G = Z3Z.generators()

# closed-form norms 2 sqrt(J-1) / J of the uniform conjugation averages in the
# free case, cross-checked by tests/oracles.py dense compressions
# {2: 0.9749279121818235, 3: 0.8907759486135514, 4: 0.7958353556126485}
FREE_CASE_REFERENCE = {
    2: 1.0,
    3: 0.9428090415820634,
    4: 0.8660254037844386,
}


def _report(number, description, limit, elapsed):
    status = "PASS"
    line = f"[{status}] criterion {number}: {description} ({elapsed:.1f}s < {limit:.0f}s)"
    print(line)
    assert elapsed < limit, f"criterion {number} exceeded its runtime limit"


def _random_element(rng, presentation, max_len):
    word = []
    for _ in range(rng.randrange(max_len + 1)):
        fi = rng.randrange(presentation.rank)
        m = presentation.factor_orders[fi]
        e = rng.choice([-2, -1, 1, 2]) if m == INFINITE else rng.randrange(1, m)
        word.append((fi, e))
    return reduce(presentation, word)


def test_criterion_1_unitarity_and_boundedness():
    t0 = time.perf_counter()
    rng = random.Random(1001)
    for space in (F2_SPACE, Z2Z3_SPACE):
        for _ in range(200):
            g = _random_element(rng, space.presentation, 8)
            coeffs = {
                _random_element(rng, space.presentation, 5): complex(
                    rng.uniform(-1, 1), rng.uniform(-1, 1)
                )
                for _ in range(6)
            }
            v = StateVector(space, coeffs)
            pi_g = FormalOperator(space.presentation, {g: 1})
            assert abs(op_apply(pi_g, v).norm() - v.norm()) <= 1e-12
    budget = NormBudget(max_iterations=10, support_cap=600)
    for _ in range(100):
        coeffs = {
            _random_element(rng, F2, 4): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(4)
        }
        T = FormalOperator(F2, coeffs)
        est = norm_lower_bound(T, F2_SPACE, budget)
        assert est.lower_bound <= triangle_upper_bound(T) + 1e-9
    _report(1, "unitarity and l1-boundedness", 10, time.perf_counter() - t0)


def test_criterion_2_panalytic_free_case():
    t0 = time.perf_counter()
    report = verify_panalytic(A, B, 8, C=2.0)
    assert report.verdict == PASS
    for row in report.rows:
        assert not row.falsified
        assert row.estimate.lower_bound <= 2.0 / math.sqrt(row.J) + 1e-9
    for J, ref in FREE_CASE_REFERENCE.items():
        est = report.rows[J - 1].estimate.lower_bound
        assert 0.85 * ref <= est <= 1.0 * ref + 1e-9, (J, est, ref)
    _report(2, "square-summable bound, free case", 120, time.perf_counter() - t0)


def test_criterion_3_averaging_decay():
    t0 = time.perf_counter()
    T = FormalOperator(F2, {E: 2.0, A: 1.0})
    for J in range(1, 65):
        assert average_MJ(T, B, J).identity_coefficient == 2.0
    report = averaging_decay_report(T, B, [1, 2, 4, 8], C=2.0)
    ests = []
    for row in report.rows:
        assert row.operator.identity_coefficient == 0j
        assert row.estimate.lower_bound <= 2.0 / math.sqrt(row.J) + 1e-9
        ests.append(row.estimate.lower_bound)
    for prev, cur in zip(ests, ests[1:]):
        assert cur <= prev
    _report(3, "averaging decay at rate C/sqrt(J)", 120, time.perf_counter() - t0)


def test_criterion_4_ideal_experiment_arithmetic():
    t0 = time.perf_counter()
    T = FormalOperator(F2, {E: 2.0, A: 1.0, B: 1.0})
    report = ideal_experiment(
        T, E, A * B, 17, C=2.0, budget=NormBudget(max_iterations=25, support_cap=1500)
    )
    assert report.success_J == 17
    assert report.verdict == PASS
    assert report.identity_coefficient == 2.0
    assert report.threshold == 1.0
    for row in report.rows:
        assert row.operator.identity_coefficient == 0j
        assert (row.bound < report.threshold) == (row.J == 17)
    _report(4, "ideal-experiment threshold closes at J=17", 60, time.perf_counter() - t0)


def test_criterion_5_finite_order_counterexample():
    t0 = time.perf_counter()
    for N in (1, 4, 9, 16):
        res = finite_order_blowup(T23, S, N)
        assert res.norm == math.sqrt(N)
        assert res.operator[res.collapsed_symbol] == math.sqrt(N)
    report = verify_panalytic(T23, S, 32, C=2.0, budget=NormBudget(max_iterations=60, support_cap=6000))
    assert report.verdict == FALSIFIED
    witnessed = [
        r
        for r in report.rows
        if r.falsified and r.estimate.lower_bound >= 0.4 and r.bound < 0.4
    ]
    assert witnessed, "expected a falsified row with estimate >= 0.4 and bound < 0.4"
    _report(5, "finite-order conjugates blow up the bound", 120, time.perf_counter() - t0)


def test_criterion_6_orbit_disjointness():
    t0 = time.perf_counter()
    for h, g in ((A, B), (H, G)):
        rep = check_Wj_disjoint(h, g, 5, 6)
        assert rep.disjoint, (h, g)
        assert not rep.collisions
    degenerate = check_Wj_disjoint(A, A, 5, 6)
    assert not degenerate.disjoint
    assert degenerate.collisions >= 1
    _report(6, "translate disjointness, exhaustive to length 6", 60, time.perf_counter() - t0)


def test_criterion_7_faithfulness():
    # every nontrivial word of the radius-6 ball moves the base point
    t0 = time.perf_counter()
    for space in (F2_SPACE, Z2Z3_SPACE):
        x = space.base_point
        for w in space.enumerate_ball(x, 6):
            assert (space.apply(w, x) != x) == (not w.is_identity), w
    _report(7, "every short word moves a point", 30, time.perf_counter() - t0)


def test_criterion_8_trace_properties():
    t0 = time.perf_counter()
    rng = random.Random(1008)
    for _ in range(100):
        s_coeffs = {
            _random_element(rng, F2, 4): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(5)
        }
        t_coeffs = {
            _random_element(rng, F2, 4): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(5)
        }
        Sop = FormalOperator(F2, s_coeffs)
        Top = FormalOperator(F2, t_coeffs)
        assert tracial_property_check(Sop, Top)
        pos = canonical_trace(Sop.adjoint() * Sop)
        assert pos.imag == 0.0 and pos.real >= 0.0
        for J in (1, 4, 16):
            assert canonical_trace(average_MJ(Top, A * B, J)) == canonical_trace(Top)
    _report(8, "trace symmetry, positivity, average-invariance", 30, time.perf_counter() - t0)


def test_criterion_9_determinism(tmp_path):
    # the criterion 2-5 experiments, rerun through the CLI with identical
    # configs: the first run must equal the stored goldens, the second the first
    t0 = time.perf_counter()
    cases = [(GOLDEN, "blowup")] + [(GOLDEN_ESTIMATOR, name) for name in CRITERION_9_CASES]
    for directory, name in cases:
        first = tmp_path / f"{name}.run1.csv"
        second = tmp_path / f"{name}.run2.csv"
        code1 = run_case(directory, name, first)
        assert_golden(directory, name, first, code1)
        assert run_case(directory, name, second) == code1, name
        assert first.read_bytes() == second.read_bytes(), name
    # end-to-end shape of the free-case run: 8 rows, estimates under bounds
    lines = (tmp_path / "c2_panalytic.run1.csv").read_text().splitlines()
    assert len(lines) == 9
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[4]) <= float(fields[3]) + 1e-9
    _report(9, "byte-identical CSV on repeated runs", 300, time.perf_counter() - t0)
