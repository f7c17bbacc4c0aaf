import random

import numpy as np
import pytest

from actrep import spaces
from actrep.groups import INFINITE, conjugate_sequence, free_group, free_product
from actrep.spaces import (
    BudgetExceededError,
    CayleySpace,
    CayleyWindow,
    orbit_decompose,
)
from oracles import reference_ball, reference_close, reference_orbit_decompose

F2 = free_group(2)
A, B = F2.generators()
E = F2.identity()

Z2Z3 = free_product([2, 3], names=("s", "t"))
Z3Z4 = free_product([3, 4])
ZZ3 = free_product([INFINITE, 3])
Z = free_product([INFINITE])
Z2Z2 = free_product([2, 2])
Z4 = free_product([4])
Z2Z7 = free_product([2, 7], names=("s", "t"))


def random_element(rng, presentation, max_len):
    from actrep.groups import reduce

    word = []
    for _ in range(rng.randrange(max_len + 1)):
        fi = rng.randrange(presentation.rank)
        m = presentation.factor_orders[fi]
        e = rng.choice([-2, -1, 1, 2]) if m == INFINITE else rng.randrange(1, m)
        word.append((fi, e))
    return reduce(presentation, word)


def distance(x, y):
    """The word metric d(x, y) = |x^-1 y|."""
    return (x.inverse() * y).word_length()


def test_apply_examples():
    space = CayleySpace(F2)
    x = A * B
    assert space.apply(E, x) == x
    assert space.apply(A, E) == A


def test_isometry_random():
    rng = random.Random(77)
    space = CayleySpace(F2)
    for _ in range(500):
        g = random_element(rng, F2, 6)
        x = random_element(rng, F2, 6)
        y = random_element(rng, F2, 6)
        assert distance(space.apply(g, x), space.apply(g, y)) == distance(x, y)


def test_metric_axioms_random():
    rng = random.Random(78)
    for pres in (F2, Z2Z3):
        space = CayleySpace(pres)
        for _ in range(500):
            x = random_element(rng, pres, 6)
            y = random_element(rng, pres, 6)
            z = random_element(rng, pres, 6)
            assert distance(x, y) == distance(y, x)
            assert distance(x, z) <= distance(x, y) + distance(y, z)
            assert (distance(x, y) == 0) == (x == y)


def test_ball_counts_free_group():
    space = CayleySpace(F2)
    assert space.enumerate_ball(E, 0) == [E]
    assert len(space.enumerate_ball(E, 1)) == 5
    assert len(space.enumerate_ball(E, 2)) == 17
    # 1 + 4 * (3^r - 1) / 2 points at radius r in a rank-2 free group
    for r in range(5):
        assert len(space.enumerate_ball(E, r)) == 1 + 2 * (3 ** r - 1)


def test_ball_monotone_and_exact():
    for pres in (F2, Z2Z3):
        space = CayleySpace(pres)
        e = pres.identity()
        prev: set = set()
        for r in range(7):
            ball = space.enumerate_ball(e, r)
            assert len(set(ball)) == len(ball)
            assert prev <= set(ball)
            for x in ball:
                assert distance(e, x) <= r
            prev = set(ball)


def test_ball_off_center():
    space = CayleySpace(F2)
    ball = space.enumerate_ball(A, 1)
    assert set(ball) == {A, A * A, E, A * B, A * B.inverse()}


def test_ball_cap():
    space = CayleySpace(F2, ball_cap=10)
    with pytest.raises(BudgetExceededError):
        space.enumerate_ball(E, 3)


@pytest.mark.parametrize(
    "pres", [F2, Z2Z3, Z3Z4, ZZ3, Z, Z2Z2], ids=["F2", "Z2Z3", "Z3Z4", "ZZ3", "Z", "Z2Z2"]
)
def test_ball_codes_decode_to_enumerate_ball(pres):
    # the inverted window rows are the ball's words, canonical and in the
    # order of the breadth-first search on group elements; enumerate_ball
    # translates them, so its order is that search's from any centre
    space = CayleySpace(pres)
    center = pres.generator(pres.rank - 1) * pres.generator(0)  # never the identity here
    for r in range(7):
        ball = reference_ball(space, space.base_point, r)
        assert CayleyWindow.decode(pres, *space.ball_codes(r)) == ball
        assert space.enumerate_ball(center, r) == reference_ball(space, center, r)
        # the cap binds exactly when the ball outgrows it, as in the search
        assert len(CayleySpace(pres, ball_cap=len(ball)).ball_codes(r)[1]) == len(ball)
        if len(ball) > 1:
            with pytest.raises(BudgetExceededError, match=f"cap of {len(ball) - 1} points"):
                CayleySpace(pres, ball_cap=len(ball) - 1).ball_codes(r)
            with pytest.raises(BudgetExceededError, match=f"cap of {len(ball) - 1} points"):
                CayleySpace(pres, ball_cap=len(ball) - 1).enumerate_ball(center, r)
    for enumerate_ in (space.ball_codes, lambda r: space.enumerate_ball(center, r)):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            enumerate_(-1)


def test_ball_deterministic_order():
    space = CayleySpace(F2)
    again = CayleySpace(F2)
    assert space.enumerate_ball(E, 4) == again.enumerate_ball(E, 4)


def test_orbit_decompose_whole_group():
    space = CayleySpace(F2)
    ball = space.enumerate_ball(E, 3)
    dec = orbit_decompose(space, [A, B], ball)
    assert dec.representatives == [E]
    assert set(dec.membership.values()) == {0}


def test_orbit_decompose_trivial_subgroup():
    space = CayleySpace(F2)
    ball = space.enumerate_ball(E, 2)
    dec = orbit_decompose(space, [], ball)
    assert dec.representatives == ball
    assert all(dec.membership[p] == i for i, p in enumerate(ball))


def test_orbit_decompose_cyclic_subgroup_matches_coset_oracle():
    # oracle: left-multiplication orbits of <a> are right cosets <a>x;
    # enumerate each coset piece inside the ball directly
    space = CayleySpace(F2)
    ball = space.enumerate_ball(E, 2)
    dec = orbit_decompose(space, [A], ball)
    in_ball = set(ball)

    def coset_piece(x):
        piece = {x}
        for sign in (1, -1):
            k = sign
            while (A ** k) * x in in_ball:
                piece.add((A ** k) * x)
                k += sign
        return piece

    for p in ball:
        expected = coset_piece(p)
        label = dec.membership[p]
        got = {q for q in ball if dec.membership[q] == label}
        assert got == expected
    # every labelled piece is claimed by its first enumerated point
    for i, rep in enumerate(dec.representatives):
        assert dec.membership[rep] == i
    # one label per <a>-coset meeting the ball: e, b, b^-1 head the big ones
    assert dec.representatives[:3] == [E, B, B.inverse()]


@pytest.mark.parametrize("pres", [F2, Z2Z3, Z3Z4], ids=["F2", "Z2Z3", "Z3Z4"])
def test_orbit_decompose_matches_bfs_oracle(pres):
    # random subgroups on balls around random centres, so the identity may
    # be missing from the ball or not come first; and the degenerate
    # generator lists
    rng = random.Random(4242)
    space = CayleySpace(pres)
    e = pres.identity()
    for trial in range(16):
        g, h = random_element(rng, pres, 3), random_element(rng, pres, 3)
        center = random_element(rng, pres, 2) if trial % 2 else e
        ball = space.enumerate_ball(center, rng.randrange(1, 4))
        for gens in ([g], [g, h], [h * g, g * g, h], [e], [g, g], [g, g.inverse()], [e, g], []):
            got = orbit_decompose(space, gens, ball)
            want = reference_orbit_decompose(space, gens, ball)
            assert got.representatives == want.representatives, (gens, center)
            assert got.membership == want.membership, (gens, center)


def test_orbit_decompose_repeated_points():
    # a point listed twice counts once, where it is first listed
    space = CayleySpace(F2)
    ball = [A, B, E, A, B * A]
    dec = orbit_decompose(space, [A], ball)
    assert dec == reference_orbit_decompose(space, [A], ball)
    assert dec.representatives == [A, B, B * A]
    assert dec.membership[E] == 0


def test_orbit_decompose_rejects_overflowing_generators():
    space = CayleySpace(F2)
    with pytest.raises(OverflowError, match="too large for the integer window"):
        orbit_decompose(space, [A ** (1 << 62)], space.enumerate_ball(E, 1))


def test_orbit_labels_invariant_under_generators():
    space = CayleySpace(F2)
    ball = space.enumerate_ball(E, 3)
    in_ball = set(ball)
    dec = orbit_decompose(space, [A * B], ball)
    for y in ball:
        for s in (A * B, (A * B).inverse()):
            im = space.apply(s, y)
            if im in in_ball:
                assert dec.membership[im] == dec.membership[y]


def _assert_free(space, word_radius, point_radius):
    # g x = x exactly when g = e: every nontrivial word of the first ball
    # moves every point of the second, so the action is faithful
    e = space.base_point
    points = space.enumerate_ball(e, point_radius)
    for w in space.enumerate_ball(e, word_radius)[1:]:
        assert all(space.apply(w, x) != x for x in points), w


def test_faithfulness_cayley_pass():
    _assert_free(CayleySpace(F2), 4, 2)


def test_faithfulness_z2z3_exhaustive():
    _assert_free(CayleySpace(Z2Z3), 6, 2)


# -- breadth-first closure ---------------------------------------------------


def _symbols(pres, words):
    """The words, then their inverses, each once: the estimator's symbol order."""
    union = list(dict.fromkeys([*words, *(w.inverse() for w in words)]))
    return pres, union, [union.index(g.inverse()) for g in union]


def _ball_symbols(pres):
    """The inverse moves, whose window closes on the inverses of a ball's words."""
    moves = CayleySpace(pres)._moves
    inverses = [m.inverse() for m in moves]
    return pres, inverses, [inverses.index(m) for m in moves]


S, T = Z2Z3.generators()
_S7, _T7 = Z2Z7.generators()
_ST3S = _S7 * _T7**3 * _S7  # of order 7: its line ends at level 3 with every power
_AB = A * B
_U, _V = Z3Z4.generators()
_UVU = _U * _V * _U  # its powers merge u u into u^2 at every seam
_IDEAL = [E, *conjugate_sequence(_AB, A, 17), *conjugate_sequence(_AB, B, 17)]

#: (symbols, max_depth, cap): lines of one element and its inverse, two
#: points per level, cut by depth, by a cap mid-level and at a level's end,
#: and by an element's finite order; exponential windows whose caps end
#: mid-level; torsion and relations; the identity alone
CLOSE_CASES = {
    "F2 line a": (_symbols(F2, [A]), 301, 10**6),
    "F2 line a, depth 1": (_symbols(F2, [A]), 1, 10**6),
    "Z4 t": (_symbols(Z4, Z4.generators()), 301, 10**6),
    "Z3*Z4 line u v u": (_symbols(Z3Z4, [_UVU]), 301, 10**6),
    "Z3*Z4 line 2e + u v u, cap mid-level": (_symbols(Z3Z4, [Z3Z4.identity(), _UVU]), 301, 150),
    "F2 line a b": (_symbols(F2, [_AB]), 301, 10**6),
    "F2 line a b, depth cuts a batch": (_symbols(F2, [_AB]), 40, 10**6),
    "F2 line a, cap mid-batch": (_symbols(F2, [A]), 301, 77),
    "2e + b a": (_symbols(F2, [E, B * A]), 301, 10**6),
    "conjugates J=2": (_symbols(F2, conjugate_sequence(B, A, 2)), 301, 3000),
    "conjugates J=2, cap mid-level": (_symbols(F2, conjugate_sequence(B, A, 2)), 301, 1000),
    "conjugates J=8, cap mid-batch": (_symbols(F2, conjugate_sequence(B, A, 8)), 301, 2000),
    "F2 ball": (_ball_symbols(F2), 6, 10**6),
    "Z ball": (_ball_symbols(Z), 400, 10**6),
    "Z2*Z2 ball": (_ball_symbols(Z2Z2), 300, 10**6),
    "Z2*Z3 t": (_symbols(Z2Z3, [T]), 301, 10**6),
    "Z2*Z3 s t s": (_symbols(Z2Z3, [S * T * S]), 301, 10**6),
    "Z2*Z7 line s t^3 s": (_symbols(Z2Z7, [_ST3S]), 301, 10**6),
    "Z2*Z7 line s t^3 s, cap at a level's end": (_symbols(Z2Z7, [_ST3S]), 301, 5),
    "Z2*Z7 line s t^3 s, cap mid-level": (_symbols(Z2Z7, [_ST3S]), 301, 6),
    "Z3*Z4 ball": (_ball_symbols(Z3Z4), 7, 10**6),
    "ideal c_j(a), c_j(b)": (_symbols(F2, _IDEAL), 51, 1500),
    "identity only": (_symbols(F2, [E]), 301, 10**6),
}


def _assert_closes_as_reference(symbols, max_depth, cap):
    words, depth, targets = reference_close(CayleyWindow(*symbols), max_depth, cap)
    window = CayleyWindow(*symbols, max_depth, cap)
    window.close()
    rows, lens = window.codes(range(window.size))
    assert [tuple(r[:n]) for r, n in zip(rows.tolist(), lens.tolist())] == words
    assert window.depth.tolist() == depth
    assert np.array_equal(window.targets(np.arange(window.size)), targets)
    points = CayleyWindow.decode(symbols[0], rows, lens)
    assert CayleyWindow.decode(symbols[0], *window.inverse_codes()) == [x.inverse() for x in points]


@pytest.mark.parametrize("block", [spaces._BLOCK_ELEMENTS, 4096, 300])
@pytest.mark.parametrize("case", list(CLOSE_CASES))
def test_close_matches_reference_close(monkeypatch, case, block):
    # blocks of a level give the ids, depths, words and targets of the
    # closure one level at a time; smaller blocks split levels in more places
    monkeypatch.setattr(spaces, "_BLOCK_ELEMENTS", block)
    _assert_closes_as_reference(*CLOSE_CASES[case])


@pytest.mark.parametrize("mask", [0, 3, 7])
def test_close_exact_when_fingerprints_collide(monkeypatch, mask):
    # mask 0 gives every word one hash; 3 and 7 leave runs of equal hashes
    # that hold distinct words
    hash_rows = spaces._hash
    monkeypatch.setattr(spaces, "_hash", lambda rows: hash_rows(rows) & np.uint64(mask))
    monkeypatch.setattr(
        CayleyWindow, "_compose", lambda self, ids, u: spaces._hash(self._pair_rows(ids, u)[0])
    )
    for case in ("F2 line a b", "2e + b a", "Z2*Z3 s t s", "Z2*Z2 ball", "identity only"):
        symbols, max_depth, _ = CLOSE_CASES[case]
        _assert_closes_as_reference(symbols, min(max_depth, 60), 10**6)
    for case in ("conjugates J=2, cap mid-level", "ideal c_j(a), c_j(b)", "Z3*Z4 ball"):
        symbols, max_depth, _ = CLOSE_CASES[case]
        _assert_closes_as_reference(symbols, max_depth, 150)


def test_stable_argsort_orders_ties_by_item():
    # the window's first-occurrence order rests on equal hashes keeping
    # their items' order, as numpy's stable sort leaves them
    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 7, 1000, 20000):
        for distinct in (1, 3, n // 2 + 1, 2**62):
            h = rng.integers(0, distinct, n, dtype=np.int64).view(np.uint64) * np.uint64(2**63 // distinct)
            assert np.array_equal(spaces._stable_argsort(h), np.argsort(h, kind="stable"))


def test_close_interning_calls(monkeypatch):
    # every interning call stays within the block's number of elements.
    # Only calls with room, which can add words, are counted; lookups have none
    sizes = []
    intern = CayleyWindow._intern

    def counted(self, h, rows_of, room=0, depth=0):
        if room > 0:
            sizes.append(rows_of(np.arange(len(h)))[0].size)
        return intern(self, h, rows_of, room, depth)

    monkeypatch.setattr(CayleyWindow, "_intern", counted)
    for case in CLOSE_CASES:
        sizes.clear()
        _assert_closes_as_reference(*CLOSE_CASES[case])
        assert max(sizes, default=0) <= spaces._BLOCK_ELEMENTS, case
