"""Verification engines for conjugation averaging on action representations.

The quantitative story: for a pair (h, g) generating a free product inside
the acting group, the uniform averages (1/J) sum_j pi(g^-j h g^j) decay in
norm like C/sqrt(J) with C = 2, the averaging map M_J crushes every
non-identity coefficient while fixing the identity coefficient exactly, and
the coefficient-at-identity functional is the unique trace candidate.  When
g has finite order the conjugates are periodic, the averages collapse to a
fixed operator, and the decay bound fails; both regimes are exercised here.

All verdicts are falsification-style: estimates are certified lower bounds,
so an estimate above a claimed upper bound (plus slack) refutes the claim,
while staying below it is consistency within budgets, never a proof.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .groups import (
    DegenerateInputError,
    FreeProductPresentation,
    GroupElement,
    conjugate_sequence,
    element_order,
    free_product,
)
from .operators import (
    FormalOperator,
    NormBudget,
    NormEstimate,
    _fsum_complex,
    norm_lower_bound,
)
from .spaces import FALSIFIED, INCONCLUSIVE, PASS, CayleySpace, CayleyWindow

DEFAULT_SLACK = 1e-9

#: Ceiling on the abstract pair words the free-product probes enumerate.
_WORD_CAP = 2_000_000


class DomainError(ValueError):
    """An argument lies outside the operation's mathematical domain."""


# ---------------------------------------------------------------------------
# coefficient sequences and the basic constructions


@dataclass(frozen=True)
class CoefficientSequence:
    """Finitely supported map from positive integers to complex weights."""

    entries: dict[int, complex]

    def __post_init__(self) -> None:
        cleaned = {int(j): complex(c) for j, c in self.entries.items() if c != 0}
        for j in cleaned:
            if j < 1:
                raise ValueError("indices must be positive integers")
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def uniform(cls, J: int) -> "CoefficientSequence":
        if J < 1:
            raise ValueError("J must be >= 1")
        return cls({j: 1.0 / J for j in range(1, J + 1)})

    @property
    def max_index(self) -> int:
        return max(self.entries, default=0)


def build_Ta(h: GroupElement, g: GroupElement, a: CoefficientSequence) -> FormalOperator:
    """The formal sum over j of a_j (g^-j h g^j).

    When distinct j produce the same reduced conjugate (periodic conjugates,
    i.e. g of finite order) the coefficients add at that element.
    """
    if h.is_identity:
        raise DegenerateInputError("h must be nontrivial")
    J = a.max_index
    if J == 0:
        return FormalOperator(h.presentation, {})
    conjugates = conjugate_sequence(g, h, J)
    acc: dict[GroupElement, complex] = {}
    for j, c in sorted(a.entries.items()):
        elem = conjugates[j - 1]
        acc[elem] = acc.get(elem, 0j) + c
    return FormalOperator(h.presentation, acc)


def average_MJ(T: FormalOperator, g: GroupElement, J: int) -> FormalOperator:
    """Conjugation average (1/J) sum_j pi(g^-j) T pi(g^j), computed in the group algebra.

    Conjugation fixes the identity and is injective, so the identity
    coefficient is copied through unchanged; every other symbol accumulates
    its J conjugates and is divided by J once at the end.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    pres = T.presentation
    e = pres.identity()
    acc: dict[GroupElement, complex] = {}
    out: dict[GroupElement, complex] = {}
    for s, c in T.coefficients.items():
        if s == e:
            out[e] = c  # exact: conjugation fixes e and nothing else lands on it
            continue
        for conj in conjugate_sequence(g, s, J):
            acc[conj] = acc.get(conj, 0j) + c
    for s, c in acc.items():
        out[s] = out.get(s, 0j) + c / J
    return FormalOperator(pres, out)


def canonical_trace(T: FormalOperator) -> complex:
    """The coefficient-at-identity functional: linear, unital, tracial."""
    return T.identity_coefficient


def _trace_of_product(A: FormalOperator, B: FormalOperator) -> complex:
    """canonical_trace(A * B), read as sum_g a_g b_{g^-1} without forming A * B.

    The terms are exactly those of the identity bucket of A * B and fsum does
    not depend on their order, so the two agree bit for bit.  Raises
    OverflowError when a term is not finite.
    """
    A._check(B)
    get = B.coefficients.get
    parts = [a * b for g, a in A.coefficients.items() if (b := get(g.inverse())) is not None]
    if not all(cmath.isfinite(p) for p in parts):
        raise OverflowError("a coefficient product overflowed")
    return _fsum_complex(parts)


def tracial_property_check(S: FormalOperator, T: FormalOperator) -> bool:
    """Exact check of trace(ST) = trace(TS) and trace(S*S) >= 0 by pairing terms.

    Each trace is the exactly rounded sum of a_g b_{g^-1}; no product is
    formed.  With finite products the equality holds bit for bit, and
    trace(S*S) is a sum of |a_g|^2 with an exactly zero imaginary part.
    Raises OverflowError when a paired product is not finite.
    """
    if _trace_of_product(S, T) != _trace_of_product(T, S):
        return False
    positivity = _trace_of_product(S.adjoint(), S)
    return positivity.imag == 0.0 and positivity.real >= 0.0


@dataclass
class BlowupResult:
    operator: FormalOperator
    norm: float
    collapsed_symbol: GroupElement
    period: int


def finite_order_blowup(h: GroupElement, g: GroupElement, N: int) -> BlowupResult:
    """The periodic-conjugate counterexample: weights 1/sqrt(N) at j = 1 + k m.

    With g of finite order m the conjugates g^-(1+km) h g^(1+km) all reduce
    to the single element g^-1 h g, so the sum collapses to sqrt(N) times one
    unitary symbol, of exact norm sqrt(N).  The collapsed coefficient is the
    closed form of N equal summands, so the returned norm is exactly
    sqrt(N) rather than an accumulation of rounding.
    """
    if h.is_identity:
        raise DegenerateInputError("h must be nontrivial")
    if N < 1:
        raise ValueError("N must be >= 1")
    m = element_order(g)
    if m == 0:
        raise DomainError("g must have finite order in the presentation")
    base = g.inverse() * h * g
    for k in range(1, N):
        exponent = 1 + k * m
        conj = (g ** exponent).inverse() * h * (g ** exponent)
        if conj != base:
            raise DomainError("conjugates failed to collapse; g^m is not the identity")
    value = math.sqrt(N)
    return BlowupResult(
        operator=FormalOperator(h.presentation, {base: value}),
        norm=value,
        collapsed_symbol=base,
        period=m,
    )


# ---------------------------------------------------------------------------
# envelope sweeps


@dataclass
class EnvelopeRow:
    J: int
    operator: FormalOperator
    estimate: NormEstimate
    bound: float
    falsified: bool  # the certified estimate exceeds the bound plus slack
    verdict: str


@dataclass
class EnvelopeReport:
    """Per-J comparison of certified norm estimates against an envelope.

    The verdict is the worst row verdict (FALSIFIED, then INCONCLUSIVE, then
    PASS).  The averaging sweeps also record the identity coefficient that
    averaging preserves and the l1 mass off the identity that scales their
    envelope; the ideal sweep adds its threshold |a_k|/2 and success_J, the
    first J whose envelope drops below that threshold.
    """

    rows: list[EnvelopeRow]
    verdict: str
    identity_coefficient: complex | None = None
    off_identity_l1: float | None = None
    threshold: float | None = None
    success_J: int | None = None


_SEVERITY = (PASS, INCONCLUSIVE, FALSIFIED)


def envelope_sweep(
    J_values: Iterable[int],
    operator_for_J: Callable[[int], FormalOperator],
    envelope_for_J: Callable[[int], float],
    budget: NormBudget | None,
    slack: float = DEFAULT_SLACK,
    *,
    identity_falsifies: bool = False,
    require_convergence: bool = True,
) -> EnvelopeReport:
    """Estimate each operator's norm from below and compare it with its envelope.

    A row is FALSIFIED when its certified estimate exceeds the envelope plus
    slack, or, under ``identity_falsifies``, when its operator keeps an
    identity coefficient.  Otherwise it is PASS, unless
    ``require_convergence`` is set and the estimate failed to stabilize,
    which makes it INCONCLUSIVE.

    The sweep estimates every row on one :class:`CayleySpace`, of the first
    row's presentation, and owns the estimator's last window: it hands one
    holder to every :func:`norm_lower_bound` call, so a row whose symbols
    and budget limits match the previous window's reuses it instead of
    growing it again, and the window is freed when the sweep returns.
    """
    if not slack >= 0:  # a negative slack falsifies rows under their envelope; NaN, none
        raise ValueError(f"slack must be >= 0, got {slack}")
    rows: list[EnvelopeRow] = []
    last: list = [None]  # the last (key, window) built, see operators._window
    space = None
    for J in J_values:
        T = operator_for_J(J)
        space = space or CayleySpace(T.presentation)
        est = norm_lower_bound(T, space, budget, _last=last)
        bound = envelope_for_J(J)
        falsified = est.lower_bound > bound + slack
        if falsified or (identity_falsifies and T.identity_coefficient != 0j):
            verdict = FALSIFIED
        elif est.converged or not require_convergence:
            verdict = PASS
        else:
            verdict = INCONCLUSIVE
        rows.append(EnvelopeRow(J, T, est, bound, falsified, verdict))
    worst = max((r.verdict for r in rows), key=_SEVERITY.index, default=PASS)
    return EnvelopeReport(rows, worst)


def verify_panalytic(
    h: GroupElement,
    g: GroupElement,
    J_max: int,
    C: float = 2.0,
    budget: NormBudget | None = None,
    slack: float = DEFAULT_SLACK,
) -> EnvelopeReport:
    """Probe the square-summable bound on uniform conjugation averages.

    For each J up to J_max the operator (1/J) sum_j pi(g^-j h g^j) is built
    symbolically and its norm is estimated from below; the uniform weight
    sequence has l2 norm 1/sqrt(J), so the claimed upper bound is C/sqrt(J).
    INCONCLUSIVE when nothing falsified but some estimate failed to
    stabilize.
    """
    if h.is_identity:
        raise DegenerateInputError("h must be nontrivial")
    if J_max < 1:
        raise ValueError("J_max must be >= 1")
    if C <= 0:
        raise ValueError("C must be positive")
    return envelope_sweep(
        range(1, J_max + 1),
        lambda J: build_Ta(h, g, CoefficientSequence.uniform(J)),
        lambda J: C / math.sqrt(J),
        budget,
        slack,
    )


def _averaging_sweep(
    T: FormalOperator,
    g: GroupElement,
    J_values: Iterable[int],
    C: float,
    budget: NormBudget | None,
    slack: float,
    **rules: bool,
) -> EnvelopeReport:
    """Sweep the residuals M_J(T) - a_e e against (C/sqrt(J)) sum_{h != e} |a_h|."""
    if C <= 0:
        raise ValueError("C must be positive")
    pres = T.presentation
    e = pres.identity()
    a_e = T.identity_coefficient
    sum_f = math.fsum(abs(c) for s, c in T.coefficients.items() if s != e)
    unit_e = FormalOperator(pres, {e: a_e})
    rep = envelope_sweep(
        J_values,
        lambda J: average_MJ(T, g, J) - unit_e,
        lambda J: (C / math.sqrt(J)) * sum_f,
        budget,
        slack,
        **rules,
    )
    rep.identity_coefficient = a_e
    rep.off_identity_l1 = sum_f
    return rep


def averaging_decay_report(
    T: FormalOperator,
    g: GroupElement,
    J_list: list[int],
    C: float = 2.0,
    budget: NormBudget | None = None,
    slack: float = DEFAULT_SLACK,
) -> EnvelopeReport:
    """Check that averaging kills the off-identity part at rate C/sqrt(J).

    For each J the residual M_J(T) - a_e e is formed symbolically (its
    identity coefficient cancels exactly) and its norm estimate is compared
    against (C/sqrt(J)) times the l1 mass of T off the identity.  A residual
    that keeps an identity coefficient falsifies its row.  An empty
    ``J_list`` raises ValueError: a sweep of no rows would pass vacuously.
    """
    if not J_list:
        raise ValueError("J_list must not be empty")
    return _averaging_sweep(T, g, J_list, C, budget, slack, identity_falsifies=True)


def ideal_experiment(
    T: FormalOperator,
    k: GroupElement,
    g: GroupElement,
    J_max: int,
    C: float = 2.0,
    budget: NormBudget | None = None,
    slack: float = DEFAULT_SLACK,
) -> EnvelopeReport:
    """Translate T by the pivot, average, and find where the bound closes.

    This is the norm-perturbation bookkeeping behind the simplicity
    argument.  T is left-translated by the pivot inverse so the pivot
    coefficient a_k sits at the identity; averaging then preserves it
    exactly while the decay envelope (C/sqrt(J)) sum |a_h| eventually drops
    below |a_k|/2, the margin at which a perturbed average stays invertibly
    close to a_k times the identity.  success_J is the first J where that
    happens.

    The verdict certifies exact arithmetic: every residual must lose its
    identity coefficient and success_J must exist, or the report is
    INCONCLUSIVE.  Norm estimates are reported per row as diagnostics; a row
    only counts against the verdict if it falsifies the envelope outright.
    """
    a_k = T[k]
    if a_k == 0:
        raise DegenerateInputError("pivot coefficient must be nonzero")
    if J_max < 1:
        raise ValueError("J_max must be >= 1")
    T0 = T.translate_left(k.inverse())
    assert T0.identity_coefficient == a_k  # relocation moves, never recomputes
    rep = _averaging_sweep(
        T0, g, range(1, J_max + 1), C, budget, slack, require_convergence=False
    )
    rep.threshold = abs(a_k) / 2.0
    rep.success_J = next((r.J for r in rep.rows if r.bound < rep.threshold), None)
    pivots_exact = all(r.operator.identity_coefficient == 0j for r in rep.rows)
    if rep.verdict == PASS and (rep.success_J is None or not pivots_exact):
        rep.verdict = INCONCLUSIVE
    return rep


# ---------------------------------------------------------------------------
# free-product structure probes


def _abstract_pair(h: GroupElement, g: GroupElement) -> FreeProductPresentation:
    """The abstract free product <h> * <g> built from the element orders."""
    if h.is_identity or g.is_identity:
        raise DegenerateInputError("h and g must be nontrivial")
    return free_product([element_order(h), element_order(g)], names=("h", "g"))


#: The presentation <h> * <g>, rows and lengths of its words, and rows and
#: lengths of their images.
_PairBall = tuple[FreeProductPresentation, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _pair_ball(h: GroupElement, g: GroupElement, L: int) -> _PairBall:
    """The words of <h> * <g> of length <= L, breadth first, and their
    images in h's presentation, as rows of syllable codes
    (:meth:`CayleySpace.ball_images`); nothing is decoded."""
    abstract = _abstract_pair(h, g)
    return abstract, *CayleySpace(abstract, ball_cap=_WORD_CAP).ball_images(L, (h, g))


@dataclass
class WjDisjointReport:
    """|W_0| and the number of (j, u) whose point g^j u an earlier translate
    g^k v, k != j, already reached; the translates are disjoint when it is 0."""

    words_tested: int
    collisions: int
    disjoint: bool


def check_Wj_disjoint(
    h: GroupElement, g: GroupElement, J: int, L: int, *, _ball: _PairBall | None = None
) -> WjDisjointReport:
    """Exhaustive disjointness check of the translates g^j W_0 of the base point.

    W_0 holds the words of the abstract free product <h> * <g> of length at
    most L that do not begin with a g-power, the identity included: the rows
    of one ball of pair words (:func:`_pair_ball`) whose first factor is not
    g's.  The ball is built here unless ``_ball`` passes the caller's, and
    the images are translated by g^j for |j| <= J.  The base point is the
    identity, so the point of a word is its image.  A collision between
    distinct j exhibits a nontrivial abstract word v^-1 g^(j-k) u whose
    image is the identity.  The action is free, so the collisions would be
    the same at any other base point.

    The action is a homomorphism, so the point of g^j u is g^j times u's
    image.  The images are held in a window acted on by g^-J .. g^J, and
    the points of all (j, u), j-major, are labelled equal exactly when they
    are equal (:meth:`CayleyWindow.label`).  A (j, u) collides when the first
    (k, v) with its label has k != j; ``collisions`` counts them, and
    nothing is decoded.  ``tests/oracles.py::reference_Wj_collisions``
    lists the same collisions with their witnesses.
    """
    if J < 1 or L < 1:
        raise ValueError("J and L must be >= 1")
    abstract, words, _, images, image_lens = _pair_ball(h, g, L) if _ball is None else _ball
    w0 = np.flatnonzero(words[:, 0] % abstract.rank != 1)  # the identity's row reads 0
    n, pres = len(w0), h.presentation
    powers = [g ** j for j in range(-J, J + 1)]
    window, ids = CayleyWindow.holding(pres, powers, range(2 * J, -1, -1), images[w0], image_lens[w0])
    # item (j + J) * n + i is the point of g^j times word i
    label = window.label(np.repeat(np.arange(2 * J + 1), n), np.tile(ids, 2 * J + 1))
    first = np.unique(label, return_index=True)[1][label]  # the first item with each label
    collisions = int(np.count_nonzero(first // n != np.arange(len(label)) // n))
    return WjDisjointReport(words_tested=n, collisions=collisions, disjoint=not collisions)


@dataclass
class DisplacementRow:
    n: int
    displacement: int
    required: float


def _displacement(
    w: GroupElement, n_max: int, c_min: float
) -> tuple[list[DisplacementRow], bool]:
    """d(x0, w^n x0) for n up to n_max, and whether each is at least c_min * n.

    The base point is the identity, so d(x0, w^n x0) is the word length of w^n.
    """
    rows: list[DisplacementRow] = []
    current = w
    for n in range(1, n_max + 1):
        rows.append(DisplacementRow(n, current.word_length(), c_min * n))
        current = current * w
    return rows, not any(r.displacement < r.required for r in rows)


@dataclass
class PingPongReport:
    """Budgeted consistency certificate for the pair (h, g).

    PASS means no reduced pair word of length <= L evaluates to the
    identity, the translate family is disjoint at (J, L), and g displaces
    the base point linearly; all three are falsification checks inside the
    stated budgets, never proofs.  The first two read one evaluated ball.
    """

    trivial_words: list[GroupElement]
    injectivity_ok: bool
    disjointness: WjDisjointReport
    displacement_rows: list[DisplacementRow]
    displacement_ok: bool
    verdict: str


def pingpong_certificate(
    h: GroupElement,
    g: GroupElement,
    L: int,
    J: int,
    c_min: float = 0.5,
) -> PingPongReport:
    """Run the three free-product consistency probes for (h, g).

    The group acts freely on its Cayley graph, so a pair word acts trivially
    exactly when its image is the identity.  The pair words of length <= L
    are enumerated as rows and evaluated once, into rows (:func:`_pair_ball`),
    and the injectivity census, whose trivial words are those with an empty
    image row and are the only words it decodes, and
    :func:`check_Wj_disjoint` both read them.
    """
    if c_min <= 0:
        raise ValueError("c_min must be positive")
    ball = abstract, words, lens, _, image_lens = _pair_ball(h, g, L)
    hits = np.flatnonzero(image_lens[1:] == 0) + 1  # word 0 is the identity
    trivial = CayleyWindow.decode(abstract, words[hits], lens[hits])
    injectivity_ok = not trivial

    disjointness = check_Wj_disjoint(h, g, J, L, _ball=ball)

    displacement_rows, displacement_ok = _displacement(g, J, c_min)
    verdict = (
        PASS if (injectivity_ok and disjointness.disjoint and displacement_ok) else FALSIFIED
    )
    return PingPongReport(
        trivial_words=trivial,
        injectivity_ok=injectivity_ok,
        disjointness=disjointness,
        displacement_rows=displacement_rows,
        displacement_ok=displacement_ok,
        verdict=verdict,
    )
