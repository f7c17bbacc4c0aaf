import gc
import math
import os
import random
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from actrep.dynamics import CoefficientSequence, build_Ta
from actrep.groups import conjugate_sequence, free_group, free_product
from actrep.operators import (
    FormalOperator,
    NormBudget,
    StateVector,
    norm_lower_bound,
    op_apply,
    triangle_upper_bound,
)
from actrep import operators, spaces
from actrep.spaces import CayleySpace, CayleyWindow

from oracles import (
    compression_matrix,
    dense_compression_norm,
    dense_norm,
    dense_norm_lower_bound,
    in_w0,
    inner,
    reference_window,
    scatter_matvec,
    top_eigenvalue,
)

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
    assert B not in v.coefficients
    assert set(StateVector(SPACE, {A: 1}).coefficients) == {A}


def _points(window, ids):
    """The group elements of the window points with the given ids."""
    return CayleyWindow.decode(window.presentation, *window.codes(ids))


def pi(g):
    """The unitary pi(g), as the one-term operator."""
    return FormalOperator(g.presentation, {g: 1})


def project(v, member):
    """The coordinate projection of v onto the points satisfying ``member``."""
    return StateVector(v.space, {x: c for x, c in v.coefficients.items() if member(x)})


def test_pi_apply_examples():
    v = random_vector(random.Random(1), SPACE)
    assert op_apply(pi(E), v) == v
    assert op_apply(pi(A), StateVector(SPACE, {E: 1})) == StateVector(SPACE, {A: 1})


def test_pi_apply_unitary():
    rng = random.Random(42)
    for space in (SPACE, S23):
        for _ in range(200):
            g = random_element(rng, space.presentation, 6)
            v = random_vector(rng, space)
            assert abs(op_apply(pi(g), v).norm() - v.norm()) <= 1e-12


def test_op_apply_examples():
    v = random_vector(random.Random(2), SPACE)
    one = FormalOperator(F2, {E: 1.0})
    assert op_apply(one, v) == v
    doubled = StateVector(SPACE, {x: 2.0 * c for x, c in v.coefficients.items()})
    assert op_apply(FormalOperator(F2, {E: 2.0, A: 0.0}), v) == doubled
    out = op_apply(FormalOperator(F2, {A: 1.0, A.inverse(): 1.0}), StateVector(SPACE, {E: 1}))
    assert out == StateVector(SPACE, {A: 1.0, A.inverse(): 1.0})


def test_op_apply_exact_support():
    rng = random.Random(3)
    for _ in range(50):
        T = random_operator(rng, F2)
        v = random_vector(rng, SPACE)
        out = op_apply(T, v)
        allowed = {g * x for g in T.coefficients for x in v.coefficients}
        assert set(out.coefficients) <= allowed


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
        lhs = inner(op_apply(T, v), w)
        rhs = inner(v, op_apply(T.adjoint(), w))
        assert abs(lhs - rhs) <= 1e-10


def test_indicator_w0_example():
    # ab starts with an a-syllable, so it avoids the b-factor: in W_0 for g=b
    v = StateVector(SPACE, {A * B: 1.0, B * A: 1.0})
    proj = project(v, lambda x: in_w0(x, 1))
    assert proj == StateVector(SPACE, {A * B: 1.0})


def test_projection_commutation_with_translation():
    # chi_{W_alpha} pi(g^j) = pi(g^j) chi_{W_{alpha-j}} exactly, for g = b
    def in_w(alpha):
        return lambda x: in_w0((B ** (-alpha)) * x, 1)

    rng = random.Random(7)
    for _ in range(100):
        v = random_vector(rng, SPACE)
        alpha = rng.randrange(-3, 4)
        j = rng.randrange(-3, 4)
        lhs = project(op_apply(pi(B ** j), v), in_w(alpha))
        rhs = op_apply(pi(B ** j), project(v, in_w(alpha - j)))
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
    assert est.witness is None


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


def test_compression_oracle_matches_the_dense_eigensolver():
    # the oracle's sparse top eigenvalue is that of the dense matrix, on the
    # J = 2 uniform average's compression
    T = FormalOperator(F2, {c: 0.5 for c in conjugate_sequence(B, A, 2)})
    mat = compression_matrix(dict(T.coefficients), E, depth=5)
    assert mat.shape == (485, 485)
    assert abs(top_eigenvalue(mat) - np.linalg.eigvalsh(mat.toarray())[-1]) <= 1e-12


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
        window.close()
        got = window.targets(np.arange(window.size))
        assert union == list(targets)
        assert union[: len(T)] == list(T.coefficients)
        assert _points(window, range(window.size)) == points
        assert window.depth.tolist() == depths
        assert got.dtype == np.int32
        for u, g in enumerate(union):
            assert got[:, u].tolist() == targets[g]
        cases += 1
    assert cases == 45


def _assert_composed_hashes_match_rows(window):
    """_compose equals _hash of the row _act builds, for every (point, symbol)
    pair of the window; returns each pair's cancelled and merged syllables."""
    U = len(window._sym)
    ids, u = np.repeat(np.arange(window.size), U), np.tile(np.arange(U), window.size)
    rows, lens = window._pair_rows(ids, u)
    assert np.array_equal(window._compose(ids, u), spaces._hash(rows))
    dropped = window._sym_len[u] + window._len[ids] - lens  # 2k + merge
    return dropped // 2, dropped % 2


def test_composed_hash_equals_hash_of_built_row():
    from actrep.groups import reduce

    merges = {}
    for T, space, budget in _window_cases():
        _, window = operators._window(T, CayleySpace(space.presentation), budget)
        window.close()
        assert not window._sym_len.all()  # the identity symbol, m = 0
        _, merged = _assert_composed_hashes_match_rows(window)
        merges[space] = merges.get(space, 0) + merged.sum()
    assert merges[S23] and merges[S34]
    # exponents near 2**59, whose merges wrap the hash but not the codes
    T = FormalOperator(F2, {reduce(F2, [(0, 1 << 58)]): 0.5, B: 0.5j})
    _, window = operators._window(T, CayleySpace(F2), NormBudget(max_iterations=2, support_cap=50))
    window.close()
    assert _assert_composed_hashes_match_rows(window)[1].any()
    # the ideal sweep's J = 17 conjugates, whose inverses share long prefixes,
    # so cancellations past the loop's columns are read off the sorted table
    conj = conjugate_sequence(A * B, A, 17) + conjugate_sequence(A * B, B, 17)
    T = FormalOperator(F2, {c: 1.0 / 17 for c in conj})
    budget = NormBudget(max_iterations=25, support_cap=1500)
    _, window = operators._window(T, CayleySpace(F2), budget)
    window.close()
    cancelled, _ = _assert_composed_hashes_match_rows(window)
    assert np.count_nonzero(cancelled > spaces._LOOP_COLUMNS) > 1000
    # a window of Z/3*Z/4 whose symbols' inverses share a prefix longer than
    # the loop's columns and then branch like a trie, so the common prefixes
    # of neighbours in sorted order go up and down; its pairs are composed a
    # block of _BLOCK_PAIRS at a time, as lookups do, so a point's pairs may
    # straddle two blocks while the table is built once
    s, t = S34.presentation.generators()
    stem = s * t * s * t * s
    tails = [t**e * s**f * t**g for e in (1, 2, 3) for f in (1, 2) for g in (0, 1, 3)]
    words = [(stem * tail).inverse() for tail in tails[::2]]
    T = FormalOperator(S34.presentation, {w: 1.0 for w in words})
    budget = NormBudget(max_iterations=4, support_cap=4000)
    _, window = operators._window(T, CayleySpace(S34.presentation), budget)
    window.close()
    U = len(window._sym)
    ids, u = np.repeat(np.arange(window.size), U), np.tile(np.arange(U), window.size)
    assert len(ids) > spaces._BLOCK_PAIRS and spaces._BLOCK_PAIRS % U
    step = spaces._BLOCK_PAIRS
    composed = np.concatenate(
        [window._compose(ids[i : i + step], u[i : i + step]) for i in range(0, len(ids), step)]
    )
    rows, lens = window._pair_rows(ids, u)
    assert np.array_equal(composed, spaces._hash(rows))
    dropped = window._sym_len[u] + window._len[ids] - lens  # 2k + merge
    assert np.count_nonzero(dropped > 2 * spaces._LOOP_COLUMNS) > 100


def test_long_conjugates_window_matches_reference_closure():
    # the ideal sweep's last operator: conjugates of a and b by (ab)^j, of up
    # to 69 letters, which cancel up to their whole length against points
    g = A * B
    conj = conjugate_sequence(g, A, 17) + conjugate_sequence(g, B, 17)
    T = FormalOperator(F2, {E: 2.0, **{c: 1.0 / 17 for c in conj}})
    budget = NormBudget(max_iterations=25, support_cap=1500)
    points, depths, targets = reference_window(T, SPACE, budget)
    union, window = operators._window(T, CayleySpace(F2), budget)
    window.close()
    assert _points(window, range(window.size)) == points
    assert window.depth.tolist() == depths
    got = window.targets(np.arange(window.size))
    for u, h in enumerate(union):
        assert got[:, u].tolist() == targets[h]
    cancelled, _ = _assert_composed_hashes_match_rows(window)
    assert cancelled.max() == window._sym_len.max() == 69


def test_targets_resolved_on_demand_equal_the_whole_table():
    # rows resolved in a random order and in small chunks equal the rows
    # resolved all at once, and the dict-based closure's targets
    rng = np.random.default_rng(11)
    for T, space, budget in _window_cases():
        _, _, reference = reference_window(T, space, budget)
        union, whole = operators._window(T, CayleySpace(space.presentation), budget)
        _, window = operators._window(T, CayleySpace(space.presentation), budget)
        whole.close()
        window.close()
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


@pytest.mark.parametrize("block", [spaces._BLOCK_ELEMENTS, 300])
def test_window_grown_on_demand_equals_the_eager_closure(monkeypatch, block):
    # targets asked for in random small chunks grow the window a level at a
    # time, only as far as those points; grown to its limits afterwards, it
    # equals a window closed at once, in ids, depths, rows and targets.
    # Smaller blocks split levels into more blocks
    monkeypatch.setattr(spaces, "_BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(29)
    conj = conjugate_sequence(A * B, A, 17) + conjugate_sequence(A * B, B, 17)
    ideal = FormalOperator(F2, {c: 1.0 / 17 for c in conj}), SPACE, NormBudget(25, 1500)
    for T, space, budget in [*_window_cases(), ideal]:
        _, eager = operators._window(T, CayleySpace(space.presentation), budget)
        eager.close()
        want = eager.targets(np.arange(eager.size))
        _, window = operators._window(T, CayleySpace(space.presentation), budget)
        while window.size < eager.size:
            chunk = rng.integers(0, window.size, int(rng.integers(1, 5)))
            if rng.random() < 0.5:
                chunk = np.append(chunk, window.size - 1)  # the newest point
            assert np.array_equal(window.targets(chunk), want[chunk])
        window.close()
        assert window.size == eager.size
        ids = np.arange(window.size)
        assert np.array_equal(window.depth, eager.depth)
        for got, expected in zip(window.codes(ids), eager.codes(ids)):
            assert np.array_equal(got, expected)
        assert np.array_equal(window.targets(ids), want)


def test_line_window_grows_only_as_far_as_the_iterate():
    # free-window's J = 1 rows: the line of the powers of b^-1 a b, whose
    # iterate holds only e or its image, needs no more than a few points
    T = FormalOperator(F2, {B.inverse() * A * B: 1.0})
    last = [None]
    est = norm_lower_bound(T, CayleySpace(F2), _last=last)
    assert est.lower_bound == 1.0
    assert last[0][1].size <= 5


def test_full_window_resolves_only_the_rows_the_iterate_reaches():
    # the uniform J = 8 average fills the 30,000-point window, but its
    # iterate and witness reach only a few thousand of its points
    T = FormalOperator(F2, {c: 1.0 / 8 for c in conjugate_sequence(B, A, 8)})
    last = [None]
    norm_lower_bound(T, SPACE, _last=last)
    window = last[0][1]
    assert window.size == NormBudget().support_cap
    assert np.count_nonzero(window._targets[:, 0] != spaces._UNRESOLVED) <= 6_000


def _terms(T, union):
    """The forward and backward terms of T, coefficients and window columns,
    as the estimator's matvecs pass them to ``operators._plan``."""
    slot = {g: u for u, g in enumerate(union)}
    a = np.array(list(T.coefficients.values()))
    fwd = a, np.array([slot[g] for g in T.coefficients])
    bwd = a.conj(), np.array([slot[g.inverse()] for g in T.coefficients])
    return fwd, bwd


def test_support_matvec_matches_scatter_add_over_the_window():
    # moving only the support, and summing each image from +0.0 in term
    # order, gives the scatter-add over the whole window bit for bit; the
    # result's ids are the images of the nonzero entries inside the window,
    # since no sum of these random values cancels to 0
    rng = np.random.default_rng(6)
    for T, space, budget in _window_cases():
        # a fresh window grown to its limits, so that the first matvec
        # resolves the rows of the points growth did not expand itself
        union, window = operators._window(T, CayleySpace(space.presentation), budget)
        window.close()
        everywhere = np.arange(window.size)
        # each plan is built once and applied to every vector
        plans = [(a, columns, operators._plan(a, window.targets(everywhere)[:, columns].T))
                 for a, columns in _terms(T, union)]
        for density in (0.05, 0.3, 1.0):
            v = rng.standard_normal(window.size) + 1j * rng.standard_normal(window.size)
            v[rng.random(window.size) >= density] = 0.0
            for a, columns, plan in plans:
                ids, w = operators._scatter(plan, v)
                got = np.zeros(window.size, dtype=np.complex128)
                got[ids] = w
                want = scatter_matvec(window.targets(everywhere), zip(a.tolist(), columns), v)
                assert got.tobytes() == want.tobytes()
                images = window.targets(np.flatnonzero(v))[:, columns]
                assert np.array_equal(ids, np.unique(images[images >= 0]))


def test_matvec_follows_python_complex_arithmetic():
    # numpy's SIMD kernels for complex products may fuse multiply-adds;
    # the matvec's products and sums are those of Python's complex type,
    # summed per image in term order, whichever kernels numpy dispatches to
    T = FormalOperator(F2, {A: 0.37 + 0.61j, B * A.inverse(): 0.13 - 0.89j, A * B: -0.71 + 0.29j})
    union, window = operators._window(T, SPACE, NormBudget(support_cap=500))
    window.close()
    everywhere = np.arange(window.size)
    targets = window.targets(everywhere)
    rng = np.random.default_rng(23)
    v = rng.standard_normal(window.size) + 1j * rng.standard_normal(window.size)
    for a, columns in _terms(T, union):
        ids, w = operators._scatter(operators._plan(a, window.targets(everywhere)[:, columns].T), v)
        want: dict[int, complex] = {}
        for c, u in zip(a.tolist(), columns.tolist()):
            for y, x in zip(targets[:, u].tolist(), v.tolist()):
                if y >= 0:
                    want[y] = want.get(y, 0j) + c * x
        assert dict(zip(ids.tolist(), w.tolist())) == want


def _assert_same_estimate(got, want):
    assert got.lower_bound.hex() == want.lower_bound.hex()
    assert got.residual.hex() == want.residual.hex()
    for name in ("iterations", "support_size", "radius_hint", "converged"):
        assert getattr(got, name) == getattr(want, name), name
    for got_part, want_part in zip(got._words[1:], want._words[1:]):  # rows, lens, values
        assert got_part.tobytes() == want_part.tobytes()


@pytest.mark.parametrize("prune", [0.0, 1e-8, 0.5])
def test_norm_lower_bound_matches_the_dense_loop(prune):
    # the iterate stored as its support gives the estimate of the loop over
    # whole-window vectors bit for bit, pruned or not
    for T, space, budget in _window_cases():
        budget = replace(budget, prune_threshold=prune)
        _assert_same_estimate(norm_lower_bound(T, space, budget), dense_norm_lower_bound(T, space, budget))
    conj = conjugate_sequence(B, A, 4)
    T = FormalOperator(F2, {c: complex(0.25, 0.05 * i) for i, c in enumerate(conj)})
    start = StateVector(SPACE, {E: 0.5, conj[0]: 0.25 - 0.5j, A ** 3: -1j, A ** 40: 3.0})
    for budget in (
        NormBudget(max_iterations=40, support_cap=3000, prune_threshold=prune),
        NormBudget(max_iterations=40, support_cap=3000, prune_threshold=prune, start_vector=start),
    ):
        _assert_same_estimate(norm_lower_bound(T, SPACE, budget), dense_norm_lower_bound(T, SPACE, budget))


def test_three_norms_per_iteration_when_nothing_is_pruned(monkeypatch):
    # a threshold below every entry prunes nothing, so the iterate is never
    # renormalised after the prune, whether its support fills the window
    # (cap 9) or not (cap 400): three norms per iteration, as in the dense loop
    s, t = Z2Z3.generators()
    T = FormalOperator(Z2Z3, {s: 0.5, t: 0.25, t * s: 0.25j})
    calls = []
    norm = operators._norm
    for cap in (9, 400):
        budget = NormBudget(max_iterations=30, support_cap=cap, prune_threshold=1e-150, residual_target=0.0)
        est = norm_lower_bound(T, S23, budget)
        _assert_same_estimate(est, dense_norm_lower_bound(T, S23, budget))
        _assert_same_estimate(est, norm_lower_bound(T, S23, replace(budget, prune_threshold=0.0)))
        assert est.iterations == 30 and (est.support_size == 9) == (cap == 9)
        with monkeypatch.context() as m:
            m.setattr(operators, "_norm", lambda *args: calls.append(cap) or norm(*args))
            norm_lower_bound(T, S23, budget)
        assert calls.count(cap) == 3 * est.iterations


def test_norm_lower_bound_matches_the_dense_loop_when_an_entry_cancels():
    # T = e + a from delta_e - delta_{a^-1}: T v = delta_a - delta_{a^-1},
    # and the image at e cancels to exactly 0 and leaves the matvec's output
    T = FormalOperator(F2, {E: 1.0, A: 1.0})
    budget = NormBudget(max_iterations=20, support_cap=200,
                        start_vector=StateVector(SPACE, {E: 1.0, A.inverse(): -1.0}))
    union, window = operators._window(T, SPACE, budget)
    ids = window.lookup([E, A.inverse()])
    a, columns = _terms(T, union)[0]
    out, w = operators._scatter(operators._plan(a, window.targets(ids)[:, columns].T), np.array([1.0, -1.0], dtype=complex))
    assert sorted(out.tolist()) == sorted(window.lookup([A, A.inverse()]).tolist())
    assert np.count_nonzero(w) == len(w) == 2
    _assert_same_estimate(norm_lower_bound(T, SPACE, budget), dense_norm_lower_bound(T, SPACE, budget))


def test_plan_rebuilt_when_the_support_changes_but_not_its_length():
    # the pruned iterate keeps its support's length while moving along the
    # words a b: a plan kept because the length matched, not the ids, would
    # apply the last support's images to the new values
    T = FormalOperator(F2, {A * B: 0.3125, A: -0.3125})
    budget = NormBudget(max_iterations=7, support_cap=200, prune_threshold=0.5, residual_target=0.0,
                        start_vector=StateVector(SPACE, {B.inverse(): -0.25, E: -0.125}))
    _assert_same_estimate(norm_lower_bound(T, SPACE, budget), dense_norm_lower_bound(T, SPACE, budget))


def test_plans_reused_while_the_support_stays_put(monkeypatch):
    # the J = 2 row of the Z/2*Z/3 panalytic sweep: the support settles
    # early, so far fewer plans are built than the 2 per iteration applied
    s, t = Z2Z3.generators()
    T = build_Ta(t, s, CoefficientSequence.uniform(2))
    budget = NormBudget(max_iterations=60, support_cap=6000)
    calls = []
    plan = operators._plan
    monkeypatch.setattr(operators, "_plan", lambda *args: calls.append(1) or plan(*args))
    est = norm_lower_bound(T, S23, budget)
    assert est.iterations == 37 and len(calls) <= 15
    _assert_same_estimate(est, dense_norm_lower_bound(T, S23, budget))


def test_norm_lower_bound_matches_the_dense_loop_when_entries_underflow():
    # an entry can round to exactly 0 when the start vector is scaled, or
    # when an iterate is divided by its norm; it leaves the support at once,
    # without a renormalisation, as the dense loop never sees it
    scale = 2.0**100
    T = FormalOperator(F2, {E: scale, A: scale * 2.0**-540, B: scale * 0.5, B * A: scale * 0.25j})
    budget = NormBudget(max_iterations=6, support_cap=3000, prune_threshold=0.0, residual_target=0.0)
    est = norm_lower_bound(T, SPACE, budget)
    _assert_same_estimate(est, dense_norm_lower_bound(T, SPACE, budget))
    assert np.all(est._words[3] != 0)
    rng = random.Random(5)
    T = FormalOperator(F2, {E: 0.5, A: 0.25, B: 0.5j, B * A: 0.25})
    words = [E, A, B, A * A, B * B, A * B, B * A, A.inverse(), B.inverse(), A * A * B, B.inverse() * A]
    for _ in range(40):
        start = {x: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** rng.choice([300, 299, -300, -310, 0])
                 for x in rng.sample(words, 9)}
        budget = NormBudget(max_iterations=1, support_cap=500, start_vector=StateVector(SPACE, start))
        _assert_same_estimate(norm_lower_bound(T, SPACE, budget), dense_norm_lower_bound(T, SPACE, budget))


def test_prune_compares_squares_formed_from_real_parts():
    # the prune keeps exactly the entries with re*re + im*im >= threshold**2,
    # at thresholds within an ulp of an entry's modulus, where numpy's
    # complex abs, whose rounding depends on its SIMD kernels, may disagree
    T = FormalOperator(F2, {E: 0.5, A: 0.25 + 0.1j, B: 0.5j, B * A: 0.25})
    budget = NormBudget(max_iterations=1, support_cap=500, prune_threshold=0.0)
    v = norm_lower_bound(T, SPACE, budget)._words[3]  # one step, unpruned
    sq = v.real * v.real + v.imag * v.imag
    for x in np.sqrt(sq).tolist():
        for t in (math.nextafter(x, 0), x, math.nextafter(x, 1)):
            est = norm_lower_bound(T, SPACE, replace(budget, prune_threshold=t))
            assert est.support_size == np.count_nonzero(sq >= t**2)


def test_support_norm_equals_the_whole_window_norm():
    # the support's interleaved squares, summed in id order, give the bits
    # of the norm of the whole-window vector over its nonzero entries
    rng = np.random.default_rng(8)
    for size in (1, 7, 20, 129, 1000, 6000):
        for k in sorted({0, 1, min(3, size), size // 2, size}):
            for ids in (np.sort(rng.choice(size, k, replace=False)), np.arange(size - k, size)):
                values = rng.standard_normal(k) + 1j * rng.standard_normal(k)
                values[rng.random(k) < 0.2] *= 1j  # some with a zero real part
                dense = np.zeros(size, dtype=np.complex128)
                dense[ids] = values
                assert operators._norm(values).hex() == dense_norm(dense).hex()


def test_estimate_independent_of_the_window_beyond_the_iterate():
    # two caps whose windows both hold every point within 2m of the base
    # point, all that m iterations reach, give the same estimate and witness
    s, t = Z2Z3.generators()
    T = FormalOperator(Z2Z3, {s: 0.5, t: 0.25, t * s: 0.25j, s * t * t: 0.1})
    for m in (3, 4, 5):
        budget = NormBudget(max_iterations=m, support_cap=10**6, residual_target=0.0)
        _, window = operators._window(T, S23, budget)
        window.close()
        inner_cap = int(np.count_nonzero(window.depth <= 2 * m))
        assert inner_cap < window.size
        small = norm_lower_bound(T, S23, replace(budget, support_cap=inner_cap))
        _assert_same_estimate(small, norm_lower_bound(T, S23, budget))
        assert small.iterations == m


def test_norm_lower_bound_equals_exact_reapplication():
    # re-certification on window ids is bit-identical to op_apply on the witness
    for T, space, budget in _window_cases():
        est = norm_lower_bound(T, space, budget)
        w = est.witness
        assert est.lower_bound == op_apply(T, w).norm() / w.norm()


def test_witness_decoded_only_when_read(monkeypatch):
    # no group element is built for the witness until it is read; it is then
    # the decode of its window rows in id order, and is kept
    conj = conjugate_sequence(B, A, 4)
    T = FormalOperator(F2, {c: complex(0.25, 0.05 * i) for i, c in enumerate(conj)})
    budget = NormBudget(max_iterations=8, support_cap=400)
    space = CayleySpace(F2)

    def refuse(*args):
        raise AssertionError("decoded before the witness was read")

    last = [None]
    with monkeypatch.context() as m:
        m.setattr(CayleyWindow, "decode", staticmethod(refuse))
        est = norm_lower_bound(T, space, budget, _last=last)
    window = last[0][1]
    w = est.witness
    assert w is est.witness
    assert est.support_size == len(w) > 1
    ids = window.lookup(list(w.coefficients))
    assert (np.diff(ids) > 0).all() and ids[0] >= 0
    assert _points(window, ids) == list(w.coefficients)
    assert est.lower_bound == op_apply(T, w).norm() / w.norm()
    again = norm_lower_bound(T, space, budget, _last=last)  # reuses the window
    assert again == est and again.witness.coefficients == w.coefficients


def test_unread_witness_keeps_no_window_alive():
    # an estimate outlives the window it was computed on, and decodes its
    # witness without it
    T = FormalOperator(F2, {c: 1.0 / 3 for c in conjugate_sequence(B, A, 3)})
    budget = NormBudget(max_iterations=6, support_cap=300)
    last = [None]
    est = norm_lower_bound(T, SPACE, budget, _last=last)
    ref = weakref.ref(last[0][1])
    last[0] = None
    gc.collect()
    assert ref() is None
    w = est.witness
    assert w.coefficients == norm_lower_bound(T, CayleySpace(F2), budget).witness.coefficients
    assert est.lower_bound == op_apply(T, w).norm() / w.norm()


def test_window_inverts_symbols_by_position(monkeypatch):
    # the inverse rows come from the symbol rows, and equal the encoded
    # inverses; an estimate inverts each symbol of T once
    from actrep.groups import GroupElement, reduce

    s, t = Z2Z3.generators()
    cases = [
        (FormalOperator(F2, {c: 0.5 for c in conjugate_sequence(B, A, 3)}), SPACE),
        (FormalOperator(Z2Z3, {s: 1.0, t: 0.5, t * s: 0.25}), S23),  # s is its own inverse
        (FormalOperator(F2, {A: 1.0, A.inverse(): 1.0}), SPACE),  # T = a + a^-1
        (FormalOperator(F2, {reduce(F2, [(0, 1 << 58)]): 0.5, E: 1.0}), SPACE),
    ]
    for T, space in cases:
        union, window = operators._window(T, CayleySpace(space.presentation), NormBudget(2, 20))
        assert len(union) == len(set(union))
        encoded, _ = window.encode(window.presentation, [g.inverse() for g in union])
        assert np.array_equal(window._sym_inv, encoded)
        assert [union[i] for i in window.inverse] == [g.inverse() for g in union]
    assert operators._window(cases[1][0], CayleySpace(Z2Z3), NormBudget(2, 20))[0].count(s) == 1
    assert len(operators._window(cases[2][0], CayleySpace(F2), NormBudget(2, 20))[0]) == 2
    calls = []
    inverse = GroupElement.inverse
    monkeypatch.setattr(GroupElement, "inverse", lambda g: calls.append(g) or inverse(g))
    for T, space in cases:
        calls.clear()
        norm_lower_bound(T, CayleySpace(space.presentation), NormBudget(2, 20))
        assert sorted(map(str, calls)) == sorted(map(str, T.coefficients))


def test_line_window_store_widens_geometrically(monkeypatch):
    # 2 e + c with c = a^-1 b a^2: the window is the line of powers of c, and
    # its longest word grows at every one of its 121 levels
    c = A.inverse() * B * A * A
    T = FormalOperator(F2, {E: 2.0, c: 1.0})
    budget = NormBudget(max_iterations=60, support_cap=500)
    stores = []
    append = CayleyWindow._append

    def spy(self, *args):
        append(self, *args)
        if not stores or stores[-1] is not self._rows:
            stores.append(self._rows)

    monkeypatch.setattr(CayleyWindow, "_append", spy)
    union, window = operators._window(T, CayleySpace(F2), budget)
    window.close()
    points, depths, targets = reference_window(T, SPACE, budget)
    assert _points(window, range(window.size)) == points
    assert window.depth.tolist() == depths
    got = window.targets(np.arange(window.size))
    for u, g in enumerate(union):
        assert got[:, u].tolist() == targets[g]
    assert max(depths) == 121
    assert window._width == window._len[: window.size].max() + 1 == 2 * 121 + 2
    assert window._rows.shape[1] <= 1.25 * window._width + 1
    assert len(stores) <= 30


@pytest.mark.parametrize("mask", [0, 3, 7])
def test_window_exact_when_all_fingerprints_collide(monkeypatch, mask):
    # mask 0 gives every word one hash; 3 and 7 leave some lookups without a
    # stored hash and others with runs of several stored words to compare
    conj = conjugate_sequence(B, A, 3)
    T = FormalOperator(F2, {c: complex(1.0 / 3, 0.1 * i) for i, c in enumerate(conj)})
    # the cap leaves witness images outside the window, so their labelling collides too
    budget = NormBudget(max_iterations=6, support_cap=40)
    # a fresh space per call, so that no call reuses another's window
    union, window = operators._window(T, CayleySpace(F2), budget)
    window.close()
    targets = window.targets(np.arange(window.size))
    est = norm_lower_bound(T, CayleySpace(F2), budget)
    hash_rows = spaces._hash
    monkeypatch.setattr(spaces, "_hash", lambda rows: hash_rows(rows) & np.uint64(mask))
    monkeypatch.setattr(
        CayleyWindow, "_compose", lambda self, ids, u: spaces._hash(self._pair_rows(ids, u)[0])
    )
    union2, window2 = operators._window(T, CayleySpace(F2), budget)
    window2.close()
    targets2 = window2.targets(np.arange(window2.size))
    assert _points(window2, range(window2.size)) == _points(window, range(window.size))
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
    window.close()
    assert _points(window, range(window.size)) == points
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
