import random

import pytest

from actrep.groups import (
    INFINITE,
    DegenerateInputError,
    FreeProductPresentation,
    PresentationMismatchError,
    conjugate_sequence,
    element_order,
    free_group,
    free_product,
    reduce,
)

from oracles import in_w0

F2 = free_group(2)
A, B = F2.generators()
E = F2.identity()

Z3Z = free_product([3, INFINITE], names=("h", "g"))
H, G = Z3Z.generators()

Z2Z3 = free_product([2, 3], names=("s", "t"))
S, T = Z2Z3.generators()


def random_raw_word(rng, presentation, max_len):
    n = rng.randrange(max_len + 1)
    word = []
    for _ in range(n):
        fi = rng.randrange(presentation.rank)
        m = presentation.factor_orders[fi]
        e = rng.choice([-3, -2, -1, 1, 2, 3]) if m == INFINITE else rng.randrange(-m, m)
        word.append((fi, e))
    return word


def random_element(rng, presentation, max_len):
    return reduce(presentation, random_raw_word(rng, presentation, max_len))


def test_presentation_validation():
    with pytest.raises(ValueError):
        FreeProductPresentation((), ())
    with pytest.raises(ValueError):
        FreeProductPresentation((1,), ("a",))
    with pytest.raises(ValueError):
        FreeProductPresentation((2, 3), ("x",))
    with pytest.raises(ValueError):
        FreeProductPresentation((2,), ("e",))
    with pytest.raises(ValueError):
        FreeProductPresentation((2, 2), ("x", "x"))


def test_presentation_identity_is_structural():
    other = free_product([INFINITE, INFINITE], names=("a", "b"))
    assert other == F2
    assert other.generator(0) == A


def test_reduce_examples():
    assert reduce(F2, [(0, 1), (0, -1)]) == E
    assert reduce(Z3Z, [(0, 2), (0, 2)]) == H
    assert reduce(F2, [(1, -1), (0, 1), (0, -1), (1, 1)]) == E


def test_reduce_rejects_bad_factor_index():
    with pytest.raises(PresentationMismatchError):
        reduce(F2, [(2, 1)])


def test_multiply_examples():
    assert (A * B) * E == A * B
    assert (A * B) * B.inverse() == A
    assert (S * T) * T ** 2 == S


def test_multiply_presentation_mismatch():
    with pytest.raises(PresentationMismatchError):
        A * S


def test_invert_examples():
    assert E.inverse() == E
    assert (A * B.inverse()).inverse() == B * A.inverse()
    assert H.inverse() == H ** 2


def test_normal_form_uniqueness_random():
    rng = random.Random(20240317)
    for pres in (F2, Z3Z, Z2Z3):
        for _ in range(1000):
            raw = random_raw_word(rng, pres, 20)
            w = reduce(pres, raw)
            assert reduce(pres, w.syllables) == w  # idempotent
            if raw:
                # one legal insertion of x * x^-1 at a random position
                pos = rng.randrange(len(raw) + 1)
                fi = rng.randrange(pres.rank)
                m = pres.factor_orders[fi]
                e = rng.choice([1, 2]) if m == INFINITE else rng.randrange(1, m)
                einv = -e if m == INFINITE else m - e
                padded = raw[:pos] + [(fi, e), (fi, einv)] + raw[pos:]
                assert reduce(pres, padded) == w
                # one exponent shift by a factor order (finite factors only)
                idx = rng.randrange(len(raw))
                fi2, e2 = raw[idx]
                if pres.factor_orders[fi2] != INFINITE:
                    shifted = list(raw)
                    shifted[idx] = (fi2, e2 + pres.factor_orders[fi2])
                    assert reduce(pres, shifted) == w


def test_group_axioms_random():
    rng = random.Random(987)
    for pres in (F2, Z2Z3):
        for _ in range(1000):
            x = random_element(rng, pres, 8)
            y = random_element(rng, pres, 8)
            z = random_element(rng, pres, 8)
            assert (x * y) * z == x * (y * z)
            assert x.inverse().inverse() == x
            assert x.inverse() * x == pres.identity()
            assert x * pres.identity() == x


def test_conjugate_sequence_free_case():
    seq = conjugate_sequence(B, A, 1)
    assert seq == [B.inverse() * A * B]
    seq = conjugate_sequence(B, A, 10)
    for j, c in enumerate(seq, start=1):
        assert c.word_length() == 2 * j + 1


def test_conjugate_sequence_periodic_case():
    # g of order 2: conjugates alternate with period 2
    seq = conjugate_sequence(S, T, 4)
    assert seq[0] == S * T * S
    assert seq[1] == T
    assert seq[2] == seq[0]
    assert seq[3] == seq[1]


def test_conjugate_sequence_coherence():
    rng = random.Random(5)
    for pres in (F2, Z3Z):
        for _ in range(20):
            g = random_element(rng, pres, 4)
            h = random_element(rng, pres, 4)
            if h.is_identity:
                continue
            seq = conjugate_sequence(g, h, 6)
            for j in range(len(seq) - 1):
                assert seq[j + 1] == g.inverse() * seq[j] * g


def test_conjugate_sequence_rejects_trivial_h():
    with pytest.raises(DegenerateInputError):
        conjugate_sequence(B, E, 3)


def test_translate_partition_exhaustive():
    # every word of bounded length is g^j * w0 with w0 not starting in g,
    # for exactly one j
    from actrep.spaces import CayleySpace

    for pres, gfac in ((F2, 1), (Z3Z, 1)):
        space = CayleySpace(pres)
        g = pres.generator(gfac)
        for w in space.enumerate_ball(pres.identity(), 8):
            js = [
                j
                for j in range(-9, 10)
                if in_w0((g ** (-j)) * w, gfac)
            ]
            assert len(js) == 1


def test_word_length():
    assert (A * B).word_length() == 2
    assert (A ** 3).word_length() == 3
    assert (T ** 2).word_length() == 1  # t^2 = t^-1 costs one step
    assert (H ** 2 * G ** -2).word_length() == 3


def test_element_order():
    assert element_order(E) == 1
    assert element_order(A) == 0
    assert element_order(T) == 3
    assert element_order(T ** 2) == 3
    assert element_order(S) == 2
    assert element_order(S * T) == 0
    assert element_order(S * T * S) == 3  # conjugate of t
    assert element_order(A * B * A.inverse()) == 0


def test_render_forms():
    assert E.render() == "e"
    assert (A * B.inverse() * A).render() == "a b^-1 a"
    assert (H ** 2).render() == "h^2"
    assert str(S * T ** 2) == "s t^2"


def test_power_by_squaring_matches_repeated_multiplication():
    rng = random.Random(31)
    for pres in (F2, Z2Z3):
        for _ in range(40):
            x = reduce(pres, random_raw_word(rng, pres, 6))
            for n in range(-9, 10):
                step = x if n >= 0 else x.inverse()
                expected = pres.identity()
                for _ in range(abs(n)):
                    expected = expected * step
                assert x ** n == expected, (x, n)


def test_power_huge_exponent_is_logarithmic():
    assert A ** (1 << 50) == reduce(F2, [(0, 1 << 50)])
    conj = B.inverse() * A * B  # powers stay three syllables long
    assert conj ** -(1 << 50) == reduce(F2, [(1, -1), (0, -(1 << 50)), (1, 1)])
    assert T ** ((1 << 60) + 1) == T ** 2  # 2^60 + 1 = 2 mod 3
