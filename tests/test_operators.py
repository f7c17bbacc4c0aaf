import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from actrep.groups import conjugate_sequence, free_group, free_product
from actrep.operators import (
    FormalOperator,
    NormBudget,
    StateVector,
    indicator_project,
    norm_lower_bound,
    op_apply,
    pi_apply,
    triangle_upper_bound,
)
from actrep import operators, spaces
from actrep.spaces import CayleySpace

from oracles import dense_compression_norm, reference_window, scatter_matvec

F2 = free_group(2)
A, B = F2.generators()
E = F2.identity()
SPACE = CayleySpace(F2)

Z2Z3 = free_product([2, 3], names=("s", "t"))
S23 = CayleySpace(Z2Z3)

Z3Z4 = free_product([3, 4], names=("p", "q"))
S34 = CayleySpace(Z3Z4)

# frozen from tests/oracles.py dense_compression_norm (depth 5, node cap 5000),
# committed before the estimator existed; values are certified lower bounds on
# the uniform conjugation averages (1/J) sum pi(b^-j a b^j)
ORACLE_UNIFORM_AVG = {
    2: 0.9749279121818235,
    3: 0.8907759486135514,
    4: 0.7958353556126485,
}
# closed-form norms of the same operators: 2 sqrt(J-1) / J for J >= 2
TRUE_UNIFORM_AVG = {J: 2.0 * math.sqrt(J - 1) / J for J in (2, 3, 4)}


def random_element(rng, presentation, max_len):
    from actrep.groups import reduce

    word = []
    for _ in range(rng.randrange(max_len + 1)):
        fi = rng.randrange(presentation.rank)
        m = presentation.factor_orders[fi]
        e = rng.choice([-2, -1, 1, 2]) if m == 0 else rng.randrange(1, m)
        word.append((fi, e))
    return reduce(presentation, word)


def random_vector(rng, space, n_points=6, max_len=5):
    coeffs = {}
    for _ in range(n_points):
        x = random_element(rng, space.presentation, max_len)
        coeffs[x] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return StateVector(space, coeffs)


def random_operator(rng, presentation, n_terms=4, max_len=4):
    coeffs = {}
    for _ in range(n_terms):
        g = random_element(rng, presentation, max_len)
        coeffs[g] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return FormalOperator(presentation, coeffs)


def test_state_vector_basics():
    v = StateVector(SPACE, {E: 3.0, A: -4.0, B: 0.0})
    assert len(v) == 2  # exact zeros are dropped
    assert v.norm() == 5.0
    assert v[B] == 0j
    assert StateVector.dirac(SPACE, A).support == {A}


def test_pi_apply_examples():
    v = random_vector(random.Random(1), SPACE)
    assert pi_apply(E, v) == v
    assert pi_apply(A, StateVector.dirac(SPACE, E)) == StateVector.dirac(SPACE, A)


def test_pi_apply_unitary():
    rng = random.Random(42)
    for space in (SPACE, S23):
        for _ in range(200):
            g = random_element(rng, space.presentation, 6)
            v = random_vector(rng, space)
            assert abs(pi_apply(g, v).norm() - v.norm()) <= 1e-12


def test_op_apply_examples():
    v = random_vector(random.Random(2), SPACE)
    one = FormalOperator.unit(F2)
    assert op_apply(one, v) == v
    assert op_apply(FormalOperator(F2, {E: 2.0, A: 0.0}), v) == v.scale(2.0)
    out = op_apply(FormalOperator(F2, {A: 1.0, A.inverse(): 1.0}), StateVector.dirac(SPACE, E))
    assert out == StateVector(SPACE, {A: 1.0, A.inverse(): 1.0})


def test_op_apply_exact_support():
    rng = random.Random(3)
    for _ in range(50):
        T = random_operator(rng, F2)
        v = random_vector(rng, SPACE)
        out = op_apply(T, v)
        allowed = {g * x for g in T.support for x in v.support}
        assert out.support <= allowed


def test_adjoint_examples():
    g = A * B
    assert FormalOperator(F2, {g: 1.0}).adjoint() == FormalOperator(F2, {g.inverse(): 1.0})
    c = 2 - 3j
    assert FormalOperator(F2, {E: c}).adjoint() == FormalOperator(F2, {E: c.conjugate()})
    rng = random.Random(4)
    for _ in range(100):
        T = random_operator(rng, F2)
        assert T.adjoint().adjoint() == T


def test_adjoint_pairing():
    rng = random.Random(5)
    for _ in range(100):
        T = random_operator(rng, F2)
        v = random_vector(rng, SPACE)
        w = random_vector(rng, SPACE)
        lhs = op_apply(T, v).inner(w)
        rhs = v.inner(op_apply(T.adjoint(), w))
        assert abs(lhs - rhs) <= 1e-10


def test_indicator_project():
    v = random_vector(random.Random(6), SPACE)
    assert indicator_project(v, lambda x: True) == v
    assert indicator_project(v, lambda x: False) == StateVector(SPACE, {})
    proj = indicator_project(v, lambda x: x.word_length() <= 2)
    assert proj == indicator_project(proj, lambda x: x.word_length() <= 2)
    assert proj.norm() <= v.norm()


def test_indicator_w0_example():
    # ab starts with an a-syllable, so it avoids the b-factor: in W_0 for g=b
    from actrep.groups import first_syllable_in

    v = StateVector(SPACE, {A * B: 1.0, B * A: 1.0})
    proj = indicator_project(v, lambda x: not first_syllable_in(x, 1))
    assert proj == StateVector(SPACE, {A * B: 1.0})


def test_projection_commutation_with_translation():
    # chi_{W_alpha} pi(g^j) = pi(g^j) chi_{W_{alpha-j}} exactly, for g = b
    from actrep.groups import first_syllable_in

    def in_w(alpha):
        return lambda x: not first_syllable_in((B ** (-alpha)) * x, 1)

    rng = random.Random(7)
    for _ in range(100):
        v = random_vector(rng, SPACE)
        alpha = rng.randrange(-3, 4)
        j = rng.randrange(-3, 4)
        lhs = indicator_project(pi_apply(B ** j, v), in_w(alpha))
        rhs = pi_apply(B ** j, indicator_project(v, in_w(alpha - j)))
        assert lhs == rhs


def test_triangle_upper_bound():
    assert triangle_upper_bound(FormalOperator(F2, {A: 1.0})) == 1.0
    assert triangle_upper_bound(FormalOperator(F2, {E: 2.0, A: -3j})) == 5.0
    assert triangle_upper_bound(FormalOperator(F2, {})) == 0.0


def test_operator_product_and_translate():
    T = FormalOperator(F2, {A: 2.0, B: 1.0})
    S = FormalOperator(F2, {A.inverse(): 1.0})
    assert T * S == FormalOperator(F2, {E: 2.0, B * A.inverse(): 1.0})
    assert T.translate_left(A.inverse()) == FormalOperator(
        F2, {E: 2.0, A.inverse() * B: 1.0}
    )


def test_norm_lower_bound_single_unitary():
    est = norm_lower_bound(FormalOperator(F2, {B: 1.0}), SPACE)
    assert est.lower_bound == 1.0
    assert est.converged


def test_norm_lower_bound_scalar():
    est = norm_lower_bound(FormalOperator(F2, {E: -2.5j}), SPACE)
    assert abs(est.lower_bound - 2.5) <= 1e-12
    assert est.converged


def test_norm_lower_bound_zero():
    est = norm_lower_bound(FormalOperator(F2, {}), SPACE)
    assert est.lower_bound == 0.0
    assert est.converged
    assert est.support_size == 0


def test_norm_lower_bound_two_unitary_example():
    u1 = B.inverse() * A * B
    u2 = (B.inverse() ** 2) * A * (B ** 2)
    T = FormalOperator(F2, {u1: 0.5, u2: 0.5})
    # dual route: dense eigensolve on the depth-5 iterated supports
    oracle = dense_compression_norm(dict(T.coefficients), E, depth=5)
    assert abs(oracle - 0.9749279121818235) <= 1e-9
    est = norm_lower_bound(T, SPACE)
    assert 0.95 <= est.lower_bound <= 1.0
    assert oracle <= 1.0


def test_norm_lower_bound_uniform_averages_vs_oracle():
    for J in (2, 3, 4):
        conj = conjugate_sequence(B, A, J)
        T = FormalOperator(F2, {c: 1.0 / J for c in conj})
        oracle = dense_compression_norm(dict(T.coefficients), E, depth=5)
        assert abs(oracle - ORACLE_UNIFORM_AVG[J]) <= 1e-9
        est = norm_lower_bound(T, SPACE)
        true = TRUE_UNIFORM_AVG[J]
        assert oracle <= true + 1e-9
        assert est.lower_bound <= true + 1e-9
        assert est.lower_bound >= 0.85 * true
        assert est.converged


def test_norm_lower_bound_soundness_and_witness():
    rng = random.Random(8)
    budget = NormBudget(max_iterations=12, support_cap=800)
    for _ in range(60):
        T = random_operator(rng, F2)
        est = norm_lower_bound(T, SPACE, budget)
        assert est.lower_bound <= triangle_upper_bound(T) + 1e-9
        if est.witness is not None:
            w = est.witness
            again = op_apply(T, w).norm() / w.norm()
            assert abs(again - est.lower_bound) <= 1e-9


def test_norm_lower_bound_unconverged_flag():
    conj = conjugate_sequence(B, A, 4)
    T = FormalOperator(F2, {c: 0.25 for c in conj})
    est = norm_lower_bound(T, SPACE, NormBudget(max_iterations=2, support_cap=500))
    assert not est.converged
    assert est.lower_bound <= TRUE_UNIFORM_AVG[4] + 1e-9


def test_norm_lower_bound_tiny_cap_still_sound():
    est = norm_lower_bound(
        FormalOperator(F2, {B: 1.0}), SPACE, NormBudget(max_iterations=3, support_cap=1)
    )
    # the window holds one point, but the reported ratio applies T exactly
    assert est.lower_bound == 1.0


@pytest.mark.parametrize("cap", [0, -3])
def test_norm_lower_bound_rejects_support_cap_below_one(cap):
    with pytest.raises(ValueError, match="support_cap must be >= 1"):
        norm_lower_bound(FormalOperator(F2, {B: 1.0}), SPACE, NormBudget(support_cap=cap))


def test_norm_lower_bound_rejects_coefficients_that_would_overflow():
    # at sum |a_g| = 2**250 every square of the iteration stays finite
    s = 2.0**249
    with np.errstate(over="raise", invalid="raise"):
        est = norm_lower_bound(
            FormalOperator(F2, {A: s, B: s}), SPACE, NormBudget(max_iterations=20, support_cap=500)
        )
    assert s < est.lower_bound <= 2 * s  # the exact norm is 2s (two free unitaries)
    for c in (2.0**250, 1e200):
        with pytest.raises(ValueError, match="coefficients too large"):
            norm_lower_bound(FormalOperator(F2, {A: c, B: c}), SPACE)


def test_norm_lower_bound_rejects_coefficients_that_would_underflow():
    # at sum |a_g| = 2**-250 the iteration runs as it does at sum 2**-200
    budget = NormBudget(max_iterations=20, support_cap=500)
    s = 2.0**-251
    est = norm_lower_bound(FormalOperator(F2, {A: s, B: s}), SPACE, budget)
    ref = norm_lower_bound(FormalOperator(F2, {A: 2.0**-201, B: 2.0**-201}), SPACE, budget)
    assert est.lower_bound == ref.lower_bound * 2.0**-50
    assert est.iterations == ref.iterations
    assert s < est.lower_bound <= 2 * s  # the exact norm is 2s (two free unitaries)
    for c in (s * (1 - 2.0**-53), 1e-170):
        with pytest.raises(ValueError, match="coefficients too small"):
            norm_lower_bound(FormalOperator(F2, {A: c, B: c}), SPACE)
    assert norm_lower_bound(FormalOperator(F2, {}), SPACE).lower_bound == 0.0


@pytest.mark.parametrize("scale", [2.0**600, 2.0**-600, 2.0**-1074])
def test_norm_lower_bound_start_vector_scale_is_exact(scale):
    # the start is scaled by a power of two before _norm squares its entries
    T = FormalOperator(F2, {A: 1.0, B: 0.5, A * B: 0.25})
    budget = NormBudget(max_iterations=20, support_cap=500)

    def estimate(c):
        start = StateVector(SPACE, {E: c})
        return norm_lower_bound(T, SPACE, replace(budget, start_vector=start)).lower_bound

    assert estimate(scale).hex() == estimate(1.0).hex()


def test_norm_lower_bound_start_vector():
    T = FormalOperator(F2, {B: 1.0})
    start = StateVector(SPACE, {E: 0.5, B: 0.5})
    est = norm_lower_bound(T, SPACE, NormBudget(start_vector=start))
    assert abs(est.lower_bound - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        norm_lower_bound(
            T,
            SPACE,
            NormBudget(start_vector=StateVector(SPACE, {A ** 99: 1.0}), support_cap=5),
        )


def test_norm_lower_bound_deterministic():
    conj = conjugate_sequence(B, A, 3)
    T = FormalOperator(F2, {c: 1.0 / 3 for c in conj})
    e1 = norm_lower_bound(T, SPACE, NormBudget(support_cap=2000))
    e2 = norm_lower_bound(T, SPACE, NormBudget(support_cap=2000))
    assert e1.lower_bound == e2.lower_bound
    assert e1.iterations == e2.iterations
    assert e1.witness == e2.witness


def _window_cases():
    """Random operators with long words and e, and caps, on three groups."""
    rng = random.Random(20)
    for space in (SPACE, S23, S34):
        pres = space.presentation
        for cap, max_iterations in ((1, 3), (2, 3), (37, 1), (37, 4), (400, 2)):
            for _ in range(3):
                T = random_operator(rng, pres, n_terms=rng.randrange(1, 6), max_len=12)
                T = T + FormalOperator(pres, {pres.identity(): complex(rng.uniform(-1, 1), 0.5)})
                yield T, space, NormBudget(max_iterations, cap)


def test_window_matches_reference_closure():
    # the integer window reproduces the dict-based breadth-first loop exactly
    cases = 0
    for T, space, budget in _window_cases():
        points, depths, targets = reference_window(T, space, budget)
        union, window = operators._window(T, space, budget)
        got = window.targets(np.arange(window.size))
        assert union == list(targets)
        assert window.points(range(window.size)) == points
        assert window.depth.tolist() == depths
        assert got.dtype == np.int32
        for u, g in enumerate(union):
            assert got[:, u].tolist() == targets[g]
        cases += 1
    assert cases == 45


def test_targets_resolved_on_demand_equal_the_whole_table():
    # rows resolved in a random order and in small chunks equal the rows
    # resolved all at once, and the dict-based closure's targets
    rng = np.random.default_rng(11)
    for T, space, budget in _window_cases():
        _, _, reference = reference_window(T, space, budget)
        union, whole = operators._window(T, CayleySpace(space.presentation), budget)
        _, window = operators._window(T, CayleySpace(space.presentation), budget)
        table = np.empty((window.size, len(union)), dtype=np.int32)
        order = rng.permutation(window.size)
        i = 0
        while i < window.size:
            chunk = order[i : i + int(rng.integers(1, 8))]
            table[chunk] = window.targets(chunk)
            i += len(chunk)
        assert np.array_equal(table, whole.targets(np.arange(whole.size)))
        for u, g in enumerate(union):
            assert table[:, u].tolist() == reference[g]


def test_full_window_resolves_only_the_rows_the_iterate_reaches():
    # the uniform J = 8 average fills the 30,000-point window, but its
    # iterate and witness reach only a few thousand of its points
    T = FormalOperator(F2, {c: 1.0 / 8 for c in conjugate_sequence(B, A, 8)})
    space = CayleySpace(F2)
    norm_lower_bound(T, space)
    window = space._last_window[1]
    assert window.size == NormBudget().support_cap
    assert np.count_nonzero(window._targets[:, 0] != spaces._UNRESOLVED) <= 6_000


def test_support_matvec_matches_scatter_add_over_the_window():
    # moving only the iterate's support gives the same nonzero entries, bit for bit
    rng = np.random.default_rng(6)
    for T, space, budget in _window_cases():
        # a fresh window, so that the first matvec resolves its rows itself
        union, window = operators._window(T, CayleySpace(space.presentation), budget)
        slot = {g: u for u, g in enumerate(union)}
        fwd = [(a, slot[g]) for g, a in T.coefficients.items()]
        bwd = [(a.conjugate(), slot[g.inverse()]) for g, a in T.coefficients.items()]
        for density in (0.05, 0.3, 1.0):
            v = rng.standard_normal(window.size) + 1j * rng.standard_normal(window.size)
            v[rng.random(window.size) >= density] = 0.0
            for terms in (fwd, bwd):
                got = operators._matvec(window, terms, v)
                want = scatter_matvec(window.targets(np.arange(window.size)), terms, v)
                assert np.array_equal(got != 0, want != 0)
                assert got[want != 0].tobytes() == want[want != 0].tobytes()


def test_norm_lower_bound_equals_exact_reapplication():
    # re-certification on window ids is bit-identical to op_apply on the witness
    for T, space, budget in _window_cases():
        est = norm_lower_bound(T, space, budget)
        w = est.witness
        assert est.lower_bound == op_apply(T, w).norm() / w.norm()


def test_window_exact_when_all_fingerprints_collide(monkeypatch):
    conj = conjugate_sequence(B, A, 3)
    T = FormalOperator(F2, {c: complex(1.0 / 3, 0.1 * i) for i, c in enumerate(conj)})
    # the cap leaves witness images outside the window, so their labelling collides too
    budget = NormBudget(max_iterations=6, support_cap=40)
    # a fresh space per call, so that no call reuses another's window
    union, window = operators._window(T, CayleySpace(F2), budget)
    targets = window.targets(np.arange(window.size))
    est = norm_lower_bound(T, CayleySpace(F2), budget)
    monkeypatch.setattr(spaces, "_fingerprint", lambda rows: np.zeros(len(rows), dtype=np.uint64))
    union2, window2 = operators._window(T, CayleySpace(F2), budget)
    targets2 = window2.targets(np.arange(window2.size))
    assert window2.points(range(window2.size)) == window.points(range(window.size))
    assert window2.depth.tolist() == window.depth.tolist()
    assert np.array_equal(targets2, targets)
    again = norm_lower_bound(T, CayleySpace(F2), budget)
    assert again.witness.coefficients == est.witness.coefficients
    assert again.lower_bound == est.lower_bound
    assert (again.iterations, again.residual) == (est.iterations, est.residual)


def test_norm_lower_bound_start_vector_ignores_points_outside_window():
    conj = conjugate_sequence(B, A, 3)
    T = FormalOperator(F2, {c: 1.0 / 3 for c in conj})
    budget = NormBudget(max_iterations=5, support_cap=60)
    inside = {E: 0.5, conj[0]: 0.25 - 0.5j}
    outside = {A ** 40: 3.0, B ** -40: 1j}

    def start(coefficients):
        return replace(budget, start_vector=StateVector(SPACE, coefficients))

    mixed = norm_lower_bound(T, SPACE, start({**inside, **outside}))
    only = norm_lower_bound(T, SPACE, start(inside))
    assert mixed.lower_bound == only.lower_bound
    assert mixed.witness == only.witness
    assert mixed.iterations == only.iterations
    with pytest.raises(ValueError, match="misses the explored window"):
        norm_lower_bound(T, SPACE, start(outside))


def test_window_takes_large_exponents_and_refuses_int64_overflow():
    # exponents far past 32 bits are exact; ones that could wrap int64 raise
    from actrep.groups import reduce

    T = FormalOperator(F2, {reduce(F2, [(0, 1 << 58)]): 0.5, B: 0.5j})
    budget = NormBudget(max_iterations=2, support_cap=50)
    points, _, _ = reference_window(T, SPACE, budget)
    _, window = operators._window(T, SPACE, budget)
    assert window.points(range(window.size)) == points
    est = norm_lower_bound(T, SPACE, budget)
    assert 0.5 < est.lower_bound <= 1.0  # the exact norm is 1 (two free unitaries)
    assert est.lower_bound == op_apply(T, est.witness).norm() / est.witness.norm()
    with pytest.raises(OverflowError):
        norm_lower_bound(FormalOperator(F2, {reduce(F2, [(0, 1 << 60)]): 1.0}), SPACE)


_THREADS_PROBE = """
from actrep.groups import conjugate_sequence, free_group
from actrep.operators import FormalOperator, norm_lower_bound
from actrep.spaces import CayleySpace
F2 = free_group(2)
a, b = F2.generators()
T = FormalOperator(F2, {c: 1.0 / 8 for c in conjugate_sequence(b, a, 8)})
est = norm_lower_bound(T, CayleySpace(F2))
print(est.lower_bound.hex(), est.residual.hex())
"""


def test_estimate_independent_of_blas_threads():
    src = str(Path(operators.__file__).resolve().parent.parent)
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", _THREADS_PROBE], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        out.append(run.stdout)
    assert out[0] == out[1]
