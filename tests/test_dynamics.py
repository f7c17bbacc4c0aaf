import gc
import math
import random
import weakref
from dataclasses import replace

import pytest

from actrep import cli, dynamics, spaces
from actrep.groups import (
    INFINITE,
    DegenerateInputError,
    PresentationMismatchError,
    free_group,
    free_product,
)
from actrep.operators import FormalOperator, NormBudget, StateVector, norm_lower_bound, op_apply
from actrep.dynamics import (
    DEFAULT_SLACK,
    FALSIFIED,
    INCONCLUSIVE,
    PASS,
    CoefficientSequence,
    DomainError,
    average_MJ,
    averaging_decay_report,
    build_Ta,
    canonical_trace,
    check_Wj_disjoint,
    envelope_sweep,
    finite_order_blowup,
    ideal_experiment,
    pingpong_certificate,
    tracial_property_check,
    verify_panalytic,
    _abstract_pair,
    _pair_ball,
    _trace_of_product,
)
from actrep.spaces import CayleySpace, CayleyWindow

from oracles import (
    dense_compression_norm,
    evaluate_pair_word,
    reference_ball,
    reference_trivial_words,
    reference_Wj_collisions,
)

F2 = free_group(2)
A, B = F2.generators()
E = F2.identity()

Z2Z3 = free_product([2, 3], names=("s", "t"))
S, T23 = Z2Z3.generators()

Z3Z = free_product([3, INFINITE], names=("h", "g"))
H, G = Z3Z.generators()

LIGHT = NormBudget(max_iterations=60, support_cap=6000)

#: (h, g) pairs for the free-product probes: free, free on other generators,
#: degenerate, a relation of length 4 and one of length 6, Z/3 * Z, and two
#: involutions, whose pair ball Z/2 * Z/2 grows linearly.
PAIRS = [
    (A, B), (A * B, B), (A, A), (T23, S * T23), (T23, (S * T23) ** 2), (H, G),
    (S, T23 * S * T23.inverse()),
]


def random_operator(rng, presentation, n_terms, max_len):
    from actrep.groups import reduce

    coeffs = {}
    for _ in range(n_terms):
        word = []
        for _ in range(rng.randrange(max_len + 1)):
            fi = rng.randrange(presentation.rank)
            m = presentation.factor_orders[fi]
            e = rng.choice([-2, -1, 1, 2]) if m == INFINITE else rng.randrange(1, m)
            word.append((fi, e))
        g = reduce(presentation, word)
        coeffs[g] = coeffs.get(g, 0j) + complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return FormalOperator(presentation, coeffs)


# -- coefficient sequences and T_a -----------------------------------------


def test_coefficient_sequence():
    a = CoefficientSequence.uniform(4)
    assert a.max_index == 4
    assert a.entries == {j: 0.25 for j in range(1, 5)}
    assert CoefficientSequence({1: 1.0, 5: 0.0}).entries == {1: 1.0}
    with pytest.raises(ValueError):
        CoefficientSequence({0: 1.0})


def test_build_ta_single_weight():
    T = build_Ta(A, B, CoefficientSequence({1: 1.0}))
    assert T == FormalOperator(F2, {B.inverse() * A * B: 1.0})


def test_build_ta_periodic_collapse():
    # order-2 g: all weights at odd j pile onto the single conjugate s t s
    for N in (1, 4, 9, 16):
        a = CoefficientSequence({1 + 2 * k: 1.0 / math.sqrt(N) for k in range(N)})
        T = build_Ta(T23, S, a)
        assert set(T.coefficients) == {S * T23 * S}
        assert abs(T[S * T23 * S] - math.sqrt(N)) <= 1e-12


def test_build_ta_uniform_free():
    J = 5
    T = build_Ta(A, B, CoefficientSequence.uniform(J))
    assert len(T) == J
    assert all(abs(c - 1.0 / J) <= 1e-15 for c in T.coefficients.values())
    l2 = math.hypot(*(abs(c) for c in CoefficientSequence.uniform(J).entries.values()))
    assert abs(l2 - 1 / math.sqrt(J)) <= 1e-15


def test_build_ta_rejects_trivial_h():
    with pytest.raises(DegenerateInputError):
        build_Ta(E, B, CoefficientSequence.uniform(2))


# -- the averaging map -------------------------------------------------------


def test_average_scalar_fixed():
    for J in (1, 3, 7):
        T = FormalOperator(F2, {E: 2 - 1j})
        assert average_MJ(T, B, J) == T


def test_average_single_symbol():
    assert average_MJ(FormalOperator(F2, {A: 1.0}), B, 1) == FormalOperator(
        F2, {B.inverse() * A * B: 1.0}
    )


def test_average_expansion():
    J = 6
    T = FormalOperator(F2, {E: 2.0, A: 1.0})
    avg = average_MJ(T, B, J)
    assert len(avg) == J + 1
    assert avg.identity_coefficient == 2.0
    for j in range(1, J + 1):
        assert abs(avg[(B ** j).inverse() * A * (B ** j)] - 1.0 / J) <= 1e-15


def test_average_identity_coefficient_exact_for_awkward_floats():
    # 0.1 + 0.3j does not survive a divide-after-accumulate round trip at J=3;
    # the identity coefficient must be copied through symbolically
    c = 0.1 + 0.3j
    T = FormalOperator(F2, {E: c, A: 0.7})
    for J in range(1, 20):
        assert average_MJ(T, B, J).identity_coefficient == c


def test_average_trace_conservation():
    rng = random.Random(11)
    for _ in range(30):
        T = random_operator(rng, F2, 4, 3)
        g = B * A
        for J in (1, 2, 5, 16):
            assert canonical_trace(average_MJ(T, g, J)) == canonical_trace(T)


def test_trace_invariant_under_symbolic_conjugation():
    rng = random.Random(12)
    gj = (A * B) ** 2
    left = FormalOperator(F2, {gj.inverse(): 1.0})
    right = FormalOperator(F2, {gj: 1.0})
    for _ in range(30):
        T = random_operator(rng, F2, 4, 3)
        assert canonical_trace(left * T * right) == canonical_trace(T)


# -- trace -------------------------------------------------------------------


def test_canonical_trace_examples():
    assert canonical_trace(FormalOperator(F2, {E: 1.0})) == 1.0
    assert canonical_trace(FormalOperator(F2, {E: 3.0, A: 5.0})) == 3.0
    assert canonical_trace(FormalOperator(F2, {A: 1.0})) == 0j


def test_tracial_property_examples():
    assert tracial_property_check(
        FormalOperator(F2, {A: 1.0}), FormalOperator(F2, {A.inverse(): 1.0})
    )
    assert tracial_property_check(FormalOperator(F2, {A: 1.0}), FormalOperator(F2, {B: 1.0}))


def test_tracial_property_random():
    rng = random.Random(13)
    for pres in (F2, Z2Z3):
        for _ in range(100):
            s = random_operator(rng, pres, 5, 4)
            t = random_operator(rng, pres, 5, 4)
            assert tracial_property_check(s, t)


def _with_inverses(rng, op):
    """op plus random weights on the inverses of its support, so that many
    products of such operators land on the identity."""
    extra = {g.inverse(): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for g in op.coefficients}
    return op + FormalOperator(op.presentation, extra)


def test_trace_of_product_equals_full_product_bit_for_bit():
    # random_operator draws exponents -1 and -2, whose syllables hash alike,
    # so the pairing's dictionary lookups must resolve collisions exactly
    rng = random.Random(14)
    landed = 0
    for pres in (F2, Z2Z3):
        for k in range(150):
            s = random_operator(rng, pres, 6, 3)
            t = random_operator(rng, pres, 6, 3)
            if k % 2:
                s, t = _with_inverses(rng, s), _with_inverses(rng, t)
            for left, right in ((s, t), (t, s), (s.adjoint(), s)):
                fast, full = _trace_of_product(left, right), canonical_trace(left * right)
                assert (fast.real.hex(), fast.imag.hex()) == (full.real.hex(), full.imag.hex())
                landed += full != 0
    assert landed > 600  # most of the 900 traces have terms to pair


def test_tracial_property_rejects_mixed_presentations():
    XY = free_group(2, names=("x", "y"))
    x, _ = XY.generators()
    # no term pairs across presentations, so unchecked both traces would read 0
    s = FormalOperator(F2, {A: 1.0})
    t = FormalOperator(XY, {x.inverse(): 1.0})
    with pytest.raises(PresentationMismatchError):
        tracial_property_check(s, t)
    with pytest.raises(PresentationMismatchError):
        tracial_property_check(t, s)


def test_tracial_property_overflow_raises():
    # (1e200 + 1e200j)**2 has real part inf - inf = nan
    c = 1e200 + 1e200j
    s = FormalOperator(F2, {A.inverse(): c})
    t = FormalOperator(F2, {A: c})
    with pytest.raises(OverflowError):
        tracial_property_check(s, t)
    with pytest.raises(OverflowError):  # |c|**2 overflows in trace(S*S)
        tracial_property_check(s, FormalOperator(F2, {B: 1.0}))


# -- finite-order blow-up ----------------------------------------------------


def test_blowup_examples():
    for N, expected in ((1, 1.0), (4, 2.0), (9, 3.0)):
        res = finite_order_blowup(T23, S, N)
        assert res.norm == expected
        assert res.operator == FormalOperator(Z2Z3, {S * T23 * S: expected})


def test_blowup_exact_for_all_small_N():
    for N in range(1, 101):
        res = finite_order_blowup(T23, S, N)
        assert res.norm == math.sqrt(N)
        assert res.operator[res.collapsed_symbol] == math.sqrt(N)
        assert res.period == 2


def test_blowup_matches_build_ta():
    for N in (2, 5, 12):
        a = CoefficientSequence({1 + 2 * k: 1.0 / math.sqrt(N) for k in range(N)})
        via_ta = build_Ta(T23, S, a)
        direct = finite_order_blowup(T23, S, N)
        assert set(via_ta.coefficients) == set(direct.operator.coefficients)
        sym = direct.collapsed_symbol
        assert abs(via_ta[sym] - direct.operator[sym]) <= 1e-12


def test_blowup_other_torsion():
    res = finite_order_blowup(S, S * T23 * S, 4)  # g = sts has order 3
    assert res.period == 3
    assert res.norm == 2.0


def test_blowup_rejects_infinite_order():
    with pytest.raises(DomainError):
        finite_order_blowup(A, B, 4)
    with pytest.raises(DegenerateInputError):
        finite_order_blowup(Z2Z3.identity(), S, 4)


# -- the square-summable bound ----------------------------------------------


def test_panalytic_free_case_first_row():
    rep = verify_panalytic(A, B, 1, budget=LIGHT)
    row = rep.rows[0]
    assert row.estimate.lower_bound == 1.0
    assert row.bound == 2.0
    assert not row.falsified


def test_panalytic_free_case_band():
    rep = verify_panalytic(A, B, 4)
    assert rep.verdict == PASS
    for row in rep.rows[1:]:
        true = 2.0 * math.sqrt(row.J - 1) / row.J
        assert row.estimate.lower_bound <= true + 1e-9
        assert row.estimate.lower_bound >= 0.85 * true


def test_panalytic_free_family_nonincreasing():
    rep = verify_panalytic(A, B, 8, budget=NormBudget(max_iterations=120, support_cap=12000))
    assert rep.verdict == PASS
    ests = [r.estimate.lower_bound for r in rep.rows]
    for prev, cur in zip(ests, ests[1:]):
        assert cur <= prev + 1e-6


def test_panalytic_finite_order_falsified():
    rep = verify_panalytic(T23, S, 32, budget=LIGHT)
    assert rep.verdict == FALSIFIED
    bad = [r for r in rep.rows if r.falsified]
    assert bad
    # the averages collapse onto span{t, sts}: estimates stall near a
    # constant while the bound decays to zero
    for row in bad:
        assert row.estimate.lower_bound > row.bound + DEFAULT_SLACK
        w = row.estimate.witness
        T = build_Ta(T23, S, CoefficientSequence.uniform(row.J))
        assert abs(op_apply(T, w).norm() / w.norm() - row.estimate.lower_bound) <= 1e-9


def test_panalytic_falsification_survives_bigger_budgets():
    small = verify_panalytic(T23, S, 28, budget=NormBudget(max_iterations=20, support_cap=800))
    large = verify_panalytic(T23, S, 28, budget=NormBudget(max_iterations=80, support_cap=8000))
    assert small.verdict == FALSIFIED
    assert large.verdict == FALSIFIED


def test_panalytic_inconclusive_when_starved():
    rep = verify_panalytic(
        A, B, 4, budget=NormBudget(max_iterations=2, support_cap=400)
    )
    assert rep.verdict == INCONCLUSIVE


# -- window reuse within a sweep -------------------------------------------


def _record_closes(monkeypatch):
    """Patch CayleyWindow.__init__ to list every window built."""
    closed = []
    init = spaces.CayleyWindow.__init__

    def recording(window, *args):
        closed.append(window)
        return init(window, *args)

    monkeypatch.setattr(spaces.CayleyWindow, "__init__", recording)
    return closed


def test_torsion_sweep_rows_equal_fresh_estimates(monkeypatch):
    # the conjugates of t by s cycle, so every row from J = 2 on has the
    # symbols of row 2 and reuses its window
    budget = NormBudget(max_iterations=20, support_cap=300)
    closed = _record_closes(monkeypatch)
    rep = verify_panalytic(T23, S, 8, budget=budget)
    assert len(closed) == 2
    for row in rep.rows:
        got = row.estimate
        fresh = norm_lower_bound(row.operator, CayleySpace(Z2Z3), budget)
        assert got.lower_bound.hex() == fresh.lower_bound.hex()
        assert got.residual.hex() == fresh.residual.hex()
        assert (got.iterations, got.support_size, got.radius_hint, got.converged) == (
            fresh.iterations, fresh.support_size, fresh.radius_hint, fresh.converged
        )
        assert got.witness.coefficients == fresh.witness.coefficients


def test_window_reused_only_for_the_same_symbols_and_limits(monkeypatch):
    space = CayleySpace(Z2Z3)
    sts = S * T23 * S
    T = FormalOperator(Z2Z3, {T23: 0.5, sts: 0.5})
    base = NormBudget(max_iterations=10, support_cap=200)
    closed = _record_closes(monkeypatch)
    last = [None]
    norm_lower_bound(T, space, base, _last=last)
    # new coefficients or a start vector keep the window
    norm_lower_bound(T.scale(-1j), space, base, _last=last)
    start = StateVector(space, {space.base_point: 2.0, T23: 1j})
    norm_lower_bound(T, space, replace(base, start_vector=start), _last=last)
    assert len(closed) == 1
    assert last[0][1] is closed[0]
    changes = [
        (FormalOperator(Z2Z3, {sts: 0.5, T23: 0.5}), base),  # the symbols in another order
        (T, base),
        (T, replace(base, support_cap=201)),
        (T, replace(base, max_iterations=11)),
    ]
    for n, (op, budget) in enumerate(changes, start=2):
        norm_lower_bound(op, space, budget, _last=last)
        assert len(closed) == n
        assert last[0][1] is closed[-1]
    # without a holder, even the same call on the same space closes anew
    norm_lower_bound(T, space, replace(base, max_iterations=11))
    assert len(closed) == 6


def test_replaced_window_is_freed_before_the_next_closes(monkeypatch):
    space = CayleySpace(Z2Z3)
    T = FormalOperator(Z2Z3, {T23: 0.5, S * T23 * S: 0.5})
    budget = NormBudget(max_iterations=10, support_cap=200)
    last = [None]
    norm_lower_bound(T, space, budget, _last=last)
    old = weakref.ref(last[0][1])
    alive_when_closing = []
    init = spaces.CayleyWindow.__init__

    def watched(window, *args):
        alive_when_closing.append(old() is not None)
        return init(window, *args)

    monkeypatch.setattr(spaces.CayleyWindow, "__init__", watched)
    norm_lower_bound(T, space, replace(budget, support_cap=150), _last=last)
    assert alive_when_closing == [False]
    assert old() is None


def test_no_window_outlives_its_sweep_or_call(monkeypatch):
    # a sweep frees its last window when it returns, and a direct call keeps
    # none, so a space that outlives them pins no window
    alive = []
    init = spaces.CayleyWindow.__init__

    def watched(window, *args):
        alive.append(weakref.ref(window))
        return init(window, *args)

    monkeypatch.setattr(spaces.CayleyWindow, "__init__", watched)
    budget = NormBudget(max_iterations=10, support_cap=200)
    space = CayleySpace(Z2Z3)
    T = FormalOperator(Z2Z3, {T23: 0.5, S * T23 * S: 0.5})
    rep = envelope_sweep([1, 2, 3], lambda J: T, lambda J: 1.0, budget)
    assert len(alive) == 1 and len(rep.rows) == 3
    est = norm_lower_bound(T, space, budget)
    assert len(alive) == 2 and est.support_size > 0
    verify_panalytic(T23, S, 4, budget=budget)
    assert len(alive) == 4
    gc.collect()
    assert [ref() for ref in alive] == [None] * 4


def test_sweep_estimates_through_the_module_global(monkeypatch):
    # perfbench's tracer wraps dynamics.norm_lower_bound: every row of a
    # sweep must call it through that name
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return norm_lower_bound(*args, **kwargs)

    monkeypatch.setattr(dynamics, "norm_lower_bound", counting)
    rep = verify_panalytic(A, B, 3, budget=NormBudget(max_iterations=5, support_cap=100))
    assert calls == [row.operator for row in rep.rows] and len(calls) == 3


def test_cli_runs_share_no_window(tmp_path, monkeypatch, capsys):
    # the second run asks for the very window the first one closed last
    cfg = tmp_path / "norm.cfg"
    cfg.write_text(
        "presentation.orders = 2, 3\npresentation.names = s, t\nexperiment = norm\n"
        "operator.T = 0.5*t; 0.5*s t s\nbudgets.max_iterations = 60\nbudgets.support_cap = 1000\n"
    )
    closed = _record_closes(monkeypatch)
    for name in ("one.csv", "two.csv"):
        assert cli.main(["norm", "--config", str(cfg), "--out", str(tmp_path / name)]) == cli.EXIT_PASS
    assert len(closed) == 2
    assert (tmp_path / "one.csv").read_text() == (tmp_path / "two.csv").read_text()


def test_panalytic_rejects_trivial_h():
    with pytest.raises(DegenerateInputError):
        verify_panalytic(E, B, 4)


@pytest.mark.parametrize("slack", [-0.5, math.nan])
def test_panalytic_rejects_negative_slack(slack):
    # a negative slack would falsify rows whose estimate is under the envelope,
    # and a NaN one would falsify none
    with pytest.raises(ValueError, match="slack"):
        verify_panalytic(A, B, 4, budget=LIGHT, slack=slack)


# -- averaging decay ----------------------------------------------------------


def test_decay_scalar_trivial():
    rep = averaging_decay_report(FormalOperator(F2, {E: 5.0}), B, [1, 3, 9], budget=LIGHT)
    assert rep.verdict == PASS
    for row in rep.rows:
        assert row.operator == FormalOperator(F2, {})
        assert row.estimate.lower_bound == 0.0
        assert row.operator.identity_coefficient == 0j


def test_decay_single_h():
    T = FormalOperator(F2, {E: 2.0, A: 1.0})
    rep = averaging_decay_report(T, B, [4])
    row = rep.rows[0]
    assert row.bound == 1.0  # (2 / sqrt(4)) * 1
    assert row.operator.identity_coefficient == 0j
    # dual route: dense compression of the residual reaches the same value
    oracle = dense_compression_norm(dict(row.operator.coefficients), E, depth=5)
    assert abs(oracle - 0.7958353556126485) <= 1e-9
    assert oracle - 1e-3 <= row.estimate.lower_bound <= 2 * math.sqrt(3) / 4 + 1e-9
    assert not row.falsified


def test_decay_two_h():
    T = FormalOperator(F2, {E: 2.0, A: 1.0, B: 1.0})
    rep = averaging_decay_report(T, A * B, [4], budget=LIGHT)
    row = rep.rows[0]
    assert row.bound == 2.0  # (2 / 2) * (|1| + |1|)
    assert 0.5 < row.estimate.lower_bound < 2.0
    assert rep.verdict == PASS


def test_decay_residual_never_carries_identity():
    rng = random.Random(14)
    for _ in range(10):
        T = random_operator(rng, F2, 4, 3)
        rep = averaging_decay_report(
            T, B, [1, 2], budget=NormBudget(max_iterations=8, support_cap=500)
        )
        for row in rep.rows:
            assert row.operator.identity_coefficient == 0j


# -- the ideal experiment ------------------------------------------------------


def test_ideal_scalar_pivot():
    rep = ideal_experiment(FormalOperator(F2, {E: 2.0}), E, B, 3, budget=LIGHT)
    assert rep.success_J == 1
    assert rep.verdict == PASS
    assert rep.identity_coefficient == 2.0
    for row in rep.rows:
        assert row.operator.identity_coefficient == 0j
        assert row.operator == FormalOperator(F2, {})


def test_ideal_single_symbol_pivot():
    rep = ideal_experiment(FormalOperator(F2, {A: 1.0}), A, B, 4, budget=LIGHT)
    assert rep.success_J == 1
    assert rep.verdict == PASS
    assert rep.identity_coefficient == 1.0
    for row in rep.rows:
        assert row.operator.identity_coefficient == 0j
        assert row.estimate.lower_bound == 0.0


def test_ideal_threshold_crossing_arithmetic():
    T = FormalOperator(F2, {E: 2.0, A: 1.0, B: 1.0})
    rep = ideal_experiment(
        T, E, A * B, 18, budget=NormBudget(max_iterations=25, support_cap=1500)
    )
    assert rep.success_J == 17
    assert rep.identity_coefficient == 2.0
    assert rep.threshold == 1.0
    for row in rep.rows:
        assert row.operator.identity_coefficient == 0j
        assert (row.bound < rep.threshold) == (row.J >= 17)
        assert row.bound == pytest.approx(4.0 / math.sqrt(row.J), rel=1e-12)


def test_ideal_rejects_zero_pivot():
    with pytest.raises(DegenerateInputError):
        ideal_experiment(FormalOperator(F2, {A: 1.0}), B, B, 4)


# -- translate disjointness and ping-pong --------------------------------------


def test_wj_disjoint_free_case():
    rep = check_Wj_disjoint(A, B, 5, 6)
    assert rep.disjoint
    assert rep.words_tested == 729  # identity plus words starting with an a-power


def test_wj_disjoint_torsion_case():
    rep = check_Wj_disjoint(H, G, 5, 6)
    assert rep.disjoint
    assert not rep.collisions


def test_wj_degenerate_pair_collides():
    rep = check_Wj_disjoint(A, A, 5, 6)
    assert not rep.disjoint
    expected = reference_Wj_collisions(A, A, 5, 6)
    assert rep.collisions == len(expected)
    for j, _, k, _, _, witness in expected[:20]:
        assert j != k
        assert not witness.is_identity
        # the witness stabilizes the base point: in a free action it must be e
        assert evaluate_pair_word(witness, (A, A)) == E


def test_wj_collisions_match_direct_evaluation():
    # each W_0 word is evaluated once and its translates are labelled in a
    # window; the direct loop evaluates every translated word on its own
    for J, L in ((5, 6), (1, 5), (7, 3)):
        total = 0
        for h, g in PAIRS:
            rep = check_Wj_disjoint(h, g, J, L)
            expected = reference_Wj_collisions(h, g, J, L)
            assert type(rep.collisions) is int
            assert rep.collisions == len(expected), (h, g, J, L)
            assert rep.disjoint == (not expected)
            for *_, witness in expected:
                assert evaluate_pair_word(witness, (h, g)).is_identity
            total += rep.collisions
        assert total > 0


def test_wj_count_decodes_nothing(monkeypatch):
    # the collisions are counted on labels: no word or point is decoded
    ball = _pair_ball(T23, S * T23, 4)

    def refuse(*args):
        raise AssertionError("check_Wj_disjoint decoded rows")

    monkeypatch.setattr(CayleyWindow, "decode", refuse)
    assert check_Wj_disjoint(T23, S * T23, 4, 4, _ball=ball).collisions == 216


def test_pingpong_free_pair_passes():
    rep = pingpong_certificate(A, B, 6, 8, c_min=1.0)
    assert rep.verdict == PASS
    assert rep.injectivity_ok and rep.displacement_ok
    assert [r.displacement for r in rep.displacement_rows] == list(range(1, 9))


def test_pingpong_torsion_free_product_passes():
    rep = pingpong_certificate(H, G, 5, 6)
    assert rep.verdict == PASS


def test_pingpong_finite_order_g_fails_displacement():
    rep = pingpong_certificate(T23, S, 5, 6)
    assert rep.verdict == FALSIFIED
    assert not rep.displacement_ok
    assert max(r.displacement for r in rep.displacement_rows) <= 1


def test_pingpong_relation_caught_by_injectivity():
    # st * t^-1 = s, so (g h^-1)^2 evaluates to the identity: <t, st> is the
    # whole group, not a free product, and the length-4 relation is in budget
    rep = pingpong_certificate(T23, S * T23, 5, 6)
    assert rep.verdict == FALSIFIED
    assert not rep.injectivity_ok
    rendered = {str(w) for w in rep.trivial_words}
    assert "h g^-1 h g^-1" in rendered


def test_pingpong_relation_caught_by_disjointness():
    # <t, stst> is Z/3 * Z/3 on other generators; the shortest pair relation
    # has length 6, out of reach of the L=5 injectivity census, but the
    # translate probe composes longer words and still finds it
    rep = pingpong_certificate(T23, (S * T23) ** 2, 5, 6)
    assert rep.verdict == FALSIFIED
    assert rep.injectivity_ok
    assert not rep.disjointness.disjoint
    expected = reference_Wj_collisions(T23, (S * T23) ** 2, 6, 5)
    assert rep.disjointness.collisions == len(expected) == 348
    assert evaluate_pair_word(expected[0][-1], (T23, (S * T23) ** 2)).is_identity


def test_pingpong_displacement_is_word_length_of_powers():
    # t s t = t (s t^2) t^-1, yet |(t s t)^n| is not 2 + 2n: the outer t and
    # t^-1 merge into t^2 at every seam, so the powers grow by 2 from 3
    rep = pingpong_certificate(S, T23 * S * T23, 2, 5)
    assert [r.displacement for r in rep.displacement_rows] == [3, 5, 7, 9, 11]


def test_pingpong_trivial_words_match_ball_scan():
    # the action is free, so a word fixes the radius-R ball exactly when it
    # evaluates to the identity; at R = 0 the ball is the base point alone
    found = 0
    for h, g in PAIRS:
        got = pingpong_certificate(h, g, 5, 2).trivial_words
        for R in (0, 3):
            assert got == reference_trivial_words(h, g, 5, R), (h, g, R)
        found += len(got)
    assert found > 0


def test_pair_ball_images_match_direct_evaluation(monkeypatch):
    # each image is its breadth-first parent's image times one move, built as
    # rows a block at a time; the oracle substitutes every syllable of every
    # word afresh
    for block in (spaces._BLOCK_ELEMENTS, 64):
        monkeypatch.setattr(spaces, "_BLOCK_ELEMENTS", block)
        for h, g in PAIRS:
            abstract, rows, lens, image_rows, image_lens = _pair_ball(h, g, 6)
            assert abstract == _abstract_pair(h, g)
            words = CayleyWindow.decode(abstract, rows, lens)
            assert words == reference_ball(CayleySpace(abstract), abstract.identity(), 6)
            images = CayleyWindow.decode(h.presentation, image_rows, image_lens)
            assert images == [evaluate_pair_word(w, (h, g)) for w in words], (h, g, block)


def test_pingpong_enumerates_the_pair_ball_once(monkeypatch):
    calls = []
    ball_window = CayleySpace._ball_window

    def counted(self, radius):
        calls.append(radius)
        return ball_window(self, radius)

    monkeypatch.setattr(CayleySpace, "_ball_window", counted)
    rep = pingpong_certificate(T23, (S * T23) ** 2, 5, 6)
    assert calls == [5]
    assert not rep.disjointness.disjoint  # the translate check read that ball
