"""Vectors, group-algebra operators, and certified norm lower bounds.

A :class:`StateVector` is a finitely supported function on space points; a
:class:`FormalOperator` is a finitely supported coefficient function on group
elements, i.e. an element of the group algebra acting through the action
representation.  Operator application is exact.  Norm estimation is
falsification-oriented: :func:`norm_lower_bound` only ever reports values
attained by an explicitly materialized vector, so every estimate is a true
lower bound on the operator norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .groups import FreeProductPresentation, GroupElement, PresentationMismatchError
from .spaces import CayleySpace, CayleyWindow, Point


def _fsum_complex(parts: list[complex]) -> complex:
    return complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))


class StateVector:
    """Finitely supported vector in l2 of the space; no zero coefficients stored."""

    __slots__ = ("space", "coefficients")

    def __init__(self, space: CayleySpace, coefficients: dict[Point, complex]):
        self.space = space
        self.coefficients = {x: complex(c) for x, c in coefficients.items() if c != 0}

    def norm(self) -> float:
        return math.sqrt(
            math.fsum(c.real * c.real + c.imag * c.imag for c in self.coefficients.values())
        )

    def __len__(self) -> int:
        return len(self.coefficients)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.space is other.space and self.coefficients == other.coefficients

    def __repr__(self) -> str:
        entries = ", ".join(f"{x}: {c}" for x, c in list(self.coefficients.items())[:4])
        more = "..." if len(self.coefficients) > 4 else ""
        return f"<StateVector {{{entries}{more}}}>"


class FormalOperator:
    """A finite formal sum of group elements with complex coefficients.

    Represents sum a_g pi(g) before closure; the coefficient at the identity
    is directly addressable.  Products are computed symbolically in the group
    algebra with exactly rounded coefficient sums, so algebraic identities
    such as the trace property can be checked with exact equality.
    """

    __slots__ = ("presentation", "coefficients")

    def __init__(
        self, presentation: FreeProductPresentation, coefficients: dict[GroupElement, complex]
    ):
        self.presentation = presentation
        self.coefficients = {g: complex(c) for g, c in coefficients.items() if c != 0}

    @classmethod
    def from_terms(
        cls,
        presentation: FreeProductPresentation,
        terms: Iterable[tuple[complex, GroupElement]],
    ) -> "FormalOperator":
        acc: dict[GroupElement, complex] = {}
        for c, g in terms:
            acc[g] = acc.get(g, 0j) + c
        return cls(presentation, acc)

    @property
    def identity_coefficient(self) -> complex:
        return self.coefficients.get(self.presentation.identity(), 0j)

    def __getitem__(self, g: GroupElement) -> complex:
        return self.coefficients.get(g, 0j)

    def __len__(self) -> int:
        return len(self.coefficients)

    def _check(self, other: "FormalOperator") -> None:
        if self.presentation is not other.presentation and self.presentation != other.presentation:
            raise PresentationMismatchError("operators over different presentations")

    def __add__(self, other: "FormalOperator") -> "FormalOperator":
        self._check(other)
        out = dict(self.coefficients)
        for g, c in other.coefficients.items():
            out[g] = out.get(g, 0j) + c
        return FormalOperator(self.presentation, out)

    def __sub__(self, other: "FormalOperator") -> "FormalOperator":
        return self + other.scale(-1)

    def scale(self, factor: complex) -> "FormalOperator":
        return FormalOperator(
            self.presentation, {g: factor * c for g, c in self.coefficients.items()}
        )

    def __mul__(self, other: "FormalOperator") -> "FormalOperator":
        """Symbolic group-algebra product.

        Each output coefficient is the exactly rounded sum of its term
        products (math.fsum), hence independent of term order.
        """
        self._check(other)
        buckets: dict[GroupElement, list[complex]] = {}
        for g, a in self.coefficients.items():
            for h, b in other.coefficients.items():
                buckets.setdefault(g * h, []).append(a * b)
        return FormalOperator(
            self.presentation, {g: _fsum_complex(parts) for g, parts in buckets.items()}
        )

    def translate_left(self, k: GroupElement) -> "FormalOperator":
        """Exact symbol relocation g -> k g, coefficients untouched."""
        return FormalOperator(
            self.presentation, {k * g: c for g, c in self.coefficients.items()}
        )

    def adjoint(self) -> "FormalOperator":
        """pi(g)* = pi(g^-1), since pi(g) is unitary."""
        return FormalOperator(
            self.presentation,
            {g.inverse(): c.conjugate() for g, c in self.coefficients.items()},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalOperator):
            return NotImplemented
        return self.presentation == other.presentation and self.coefficients == other.coefficients

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*{g}" for g, c in list(self.coefficients.items())[:4])
        more = " + ..." if len(self.coefficients) > 4 else ""
        return f"<FormalOperator {terms or '0'}{more}>"


# ---------------------------------------------------------------------------
# application and elementary bounds


def op_apply(T: FormalOperator, v: StateVector) -> StateVector:
    """Apply sum a_g pi(g) to v with no truncation."""
    space = v.space
    acc: dict[Point, complex] = {}
    for g, a in T.coefficients.items():
        for x, c in v.coefficients.items():
            y = space.apply(g, x)
            acc[y] = acc.get(y, 0j) + a * c
    return StateVector(space, acc)


def triangle_upper_bound(T: FormalOperator) -> float:
    """sum |a_g|: an upper bound for the operator norm, since each pi(g) has norm 1."""
    return math.fsum(abs(c) for c in T.coefficients.values())


# ---------------------------------------------------------------------------
# norm estimation


@dataclass(frozen=True)
class NormBudget:
    """Resource limits for :func:`norm_lower_bound`.

    ``start_vector`` lets a caller opt into a randomized restart; its support
    must meet the explored set.  After each step the iteration drops the
    entries of modulus below ``prune_threshold``, compared as squares,
    ``re*re + im*im < prune_threshold**2``; a threshold of 0 or less keeps
    every nonzero entry.  ``residual_target`` is an absolute tolerance on
    the change of successive Rayleigh values, not one relative to the
    operator's scale: an operator scaled by ``2**-20`` changes by less than
    the default ``1e-6`` at once and stops after 2 iterations.  Scale
    ``residual_target`` with the operator to keep the same stopping rule.
    """

    max_iterations: int = 150
    support_cap: int = 30_000
    prune_threshold: float = 1e-8
    residual_target: float = 1e-6
    start_vector: "StateVector | None" = None


@dataclass
class NormEstimate:
    """A certified lower bound on an operator norm, with diagnostics.

    ``lower_bound`` is ||T w|| / ||w|| for the explicitly stored ``witness``
    w, recomputed through exact application, so it never exceeds the true
    norm.  ``converged`` records only that successive Rayleigh values
    stagnated, changing by less than the residual target, before the
    iteration budget ran out; it does not say that ``lower_bound`` is close
    to the norm, since the iteration runs on a truncated window.  Hitting
    the support cap without stagnating leaves it False.

    The estimator stores the witness as ``_words``, ``(space, rows, lens,
    values)``: the rows of syllable codes of its points
    (:meth:`CayleyWindow.codes`), their lengths and its values, which keep
    no reference to the window.  Its group elements are built the first
    time ``witness`` is read; the same vector is returned from then on.
    ``support_size`` is its number of points.  Equality compares the
    diagnostics, not the witness.
    """

    lower_bound: float
    iterations: int
    residual: float
    support_size: int
    radius_hint: int
    converged: bool
    _words: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def witness(self) -> StateVector | None:
        if self._words is None:
            return None
        space, rows, lens, values = self._words
        points = CayleyWindow.decode(space.presentation, rows, lens)
        return StateVector(space, dict(zip(points, values.tolist())))


def _norm(values: np.ndarray) -> np.float64:
    """Euclidean norm of a vector stored as its support's ``values``, in id
    order: the squares of the real and imaginary parts, interleaved, are
    summed by numpy's pairwise ``np.add.reduce``, not by np.linalg.norm,
    which goes through BLAS, whose reduction order, and so the last bits,
    depend on its thread count.
    """
    x = values.view(np.float64)
    return np.sqrt(np.add.reduce(x * x))


def _window(T: FormalOperator, space: CayleySpace, budget: NormBudget, last: list | None = None):
    """The estimator's window: the identity, closed on demand under the
    symbols of T, then their inverses, up to depth ``2 * max_iterations +
    1`` and ``support_cap`` points.  Returns those symbols and the window,
    whose ``inverse`` gives the position of each symbol's inverse among
    them.  T's symbols come first, in T's order, so T's term k acts through
    window symbol k.  Each symbol of T is inverted once.

    ``last`` is a one-item list holding the last ``(key, window)`` built
    through it, or None.  Its window is handed back while the symbols, in
    order, and both limits stay the same, as far as it has grown and with
    every symbol target resolved so far; otherwise the list is emptied
    before the new window is built, and then holds it.  Without ``last`` a
    fresh window is built.
    """
    inv = {g: g.inverse() for g in T.coefficients}
    union = tuple(dict.fromkeys([*inv, *inv.values()]))
    max_depth = 2 * budget.max_iterations + 1
    key = (union, max_depth, budget.support_cap)
    last = [None] if last is None else last
    if last[0] is None or last[0][0] != key:
        last[0] = None  # free the old window before the new one grows
        slot = {g: u for u, g in enumerate(union)}
        inverse_of = {**{gi: g for g, gi in inv.items()}, **inv}
        inverse = [slot[inverse_of[g]] for g in union]
        last[0] = (key, CayleyWindow(space.presentation, union, inverse, max_depth, budget.support_cap))
    return list(union), last[0][1]


def _plan(a: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, ...]:
    """The part of the products ``a[k] * values[j]`` at images ``dst[k, j]``,
    -1 dropping one, that does not depend on the values: ``out, j, ar, ai,
    bins``, the sorted images reached and, per product in term-major order,
    its value position, coefficient parts and image position in ``out``.
    The bins are compact, so a sum is as long as the products, not the
    largest image id.  :func:`norm_lower_bound` rebuilds a plan only when
    the support changes and keeps it only for the call; a reused plan is
    exact, since targets once resolved are final and :func:`_scatter`'s sums
    keep their order.
    """
    k, j = np.nonzero(dst >= 0)  # term-major
    at = dst[k, j]
    seen = np.bincount(at) > 0
    bins = (np.cumsum(seen) - 1)[at]
    return np.flatnonzero(seen), j, a.real[k], a.imag[k], bins


def _scatter(plan: tuple[np.ndarray, ...], values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums of a :func:`_plan`'s products with ``values``: the sorted images
    reached whose sum is not exactly 0, and their sums, so a result never
    holds an exact zero.

    Each product is formed from real parts, ``ar*vr - ai*vi`` and
    ``ar*vi + ai*vr``, as Python's complex type forms it, so no SIMD kernel
    fuses a multiply-add into it.  Each image sums its products from +0.0 in
    term order (a term adds at most one, as left translation is injective
    per symbol), as a scatter-add over the window and :func:`op_apply` do.
    The compact bins only renumber the images, so applying a plan, built
    afresh or reused, gives every sum bit for bit.
    """
    out, j, ar, ai, bins = plan
    vr, vi = values.real[j], values.imag[j]
    w = np.empty(len(out), dtype=np.complex128)
    w.real = np.bincount(bins, ar * vr - ai * vi, minlength=len(out))  # in order: term by term
    w.imag = np.bincount(bins, ar * vi + ai * vr, minlength=len(out))
    keep = w != 0
    return out[keep], w[keep]


def norm_lower_bound(
    T: FormalOperator,
    space: CayleySpace,
    budget: NormBudget | None = None,
    *,
    _last: list | None = None,
) -> NormEstimate:
    """Certified lower bound on ||sum a_g pi(g)|| via compressed power iteration.

    The iteration v <- T* T v runs on a finite window of the space: the
    orbit of the base point (the identity) under the symbols of T and their
    inverses, grown breadth first on demand up to depth ``2 *
    max_iterations + 1`` and ``budget.support_cap`` points (:func:`_window`,
    :class:`CayleyWindow`).  It starts from the Dirac vector at the base
    point, or from ``budget.start_vector``, whose entries outside the full
    window are dropped and which is first scaled by a power of two, which is
    exact; a start with no entry in the window raises ValueError.  Group
    elements are built only for that lookup.

    After each step the prune drops the entries whose squared modulus is
    below ``prune_threshold**2`` (:class:`NormBudget`), a test on products
    of real parts that does not depend on how numpy's complex ``abs``
    rounds, and the iterate is renormalised only when a nonzero entry was
    dropped.  The iteration stops after ``max_iterations`` steps, when the
    iterate vanishes, or when the Rayleigh values ||T v|| of successive
    unit iterates change by less than ``budget.residual_target``.  Only the
    last sets ``converged``; it does not say that the estimate is close to
    the norm.  That target is absolute, so how many iterations run depends
    on the operator's scale: with the default budget, ``2**-20 * (a + b)``
    on F2 stops after 2 iterations at 0.913 of the exact norm, where
    ``a + b`` runs 29 and reaches 0.988.

    The reported bound is ||T w|| / ||w|| for the final iterate w, with T
    applied to w with no truncation, its images outside the window resolved
    exactly (:meth:`CayleyWindow.images`), so it is attained and sound
    however the iteration was capped or pruned.  It equals
    ``op_apply(T, witness).norm() / witness.norm()`` bit for bit; the tests
    use :func:`op_apply` as its oracle.  The iterate is stored as its
    support, and T and T* move only the support (:func:`_scatter`,
    :func:`_norm`); every value equals, bit for bit, that of the same loop
    run on vectors as long as the window, whose norms and prune skip the
    zero entries (``tests/oracles.py``).  The estimate keeps the witness as
    a copy of its window rows (:class:`NormEstimate`).

    Each matvec applies a plan of its images to the values (:func:`_plan`,
    :func:`_scatter`).  Each direction keeps its last support and plan, and
    rebuilds the plan only when the support changes.  That is exact: a
    resolved target is final, since the window is a prefix of its closure
    and a target is -1 only once the window is full or its point sits at
    ``max_depth``, and the sums keep their order.  Plans live only for the
    call.

    A call builds a fresh window and keeps none, unless the caller passes
    ``_last``, a one-item list that holds the last window built through it
    (:func:`_window`).  :func:`~actrep.dynamics.envelope_sweep` passes one
    list to every row of a sweep: a row with the same symbols in the same
    order (the union of T's symbols and their inverses), the same
    ``max_iterations`` and the same ``support_cap`` as the last window
    reuses it, as far as it has grown and with the images it has already
    looked up, as the rows of a torsion sweep do, whose conjugates cycle.
    Any other row frees the old window before building its own, and the
    last one is freed when the sweep returns.

    Nonzero operators with ``sum |a_g|`` above ``2**250`` or below
    ``2**-250`` raise ValueError: for a unit v the squares of the entries of
    T* T v scale as (sum |a_g|)^4, which the limits keep within ``2**±1000``,
    inside float64's normal range from ``2**-1022`` to ``2**1024``; below
    it they round to 0 and the iteration stops far under the norm.
    """
    budget = budget or NormBudget()
    if budget.max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if budget.support_cap < 1:
        raise ValueError("support_cap must be >= 1")
    l1 = triangle_upper_bound(T)
    if not l1 <= 2.0**250:
        raise ValueError("coefficients too large for the estimator: sum |a_g| exceeds 2**250")
    if not T.coefficients:
        return NormEstimate(0.0, 0, 0.0, 0, 0, True, None)
    if not l1 >= 2.0**-250:
        raise ValueError("coefficients too small for the estimator: sum |a_g| below 2**-250")

    _, window = _window(T, space, budget, _last)
    a = np.array(list(T.coefficients.values()), dtype=np.complex128)

    if budget.start_vector is not None:
        start = list(budget.start_vector.coefficients.items())
        found = window.lookup([x for x, _ in start])
        inside = np.flatnonzero(found >= 0)
        order = inside[np.argsort(found[inside])]
        ids = found[order]
        v = np.array([c for _, c in start], dtype=np.complex128)[order]
        # a power of two scales exactly, and keeps the squares of _norm in range
        v *= 2.0 ** min(-math.frexp(np.abs(v.view(np.float64)).max(initial=0.0))[1], 1023)
        nv = _norm(v[v != 0])
        if nv == 0:
            raise ValueError("start_vector support misses the explored window")
        v /= nv
        keep = v != 0  # entries far below the largest underflow to 0 when scaled
        ids, v = ids[keep], v[keep]
    else:
        ids, v = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128)

    def planner(coef: np.ndarray, columns):
        last: list = [None, None]  # one direction's last support, and its plan

        def plan(support: np.ndarray) -> tuple:
            if last[0] is None or not np.array_equal(last[0], support):
                last[:] = support, _plan(coef, window.targets(support)[:, columns].T)
            return last[1]
        return plan

    forward, backward = planner(a, slice(len(a))), planner(a.conj(), window.inverse[: len(a)])
    threshold = max(budget.prune_threshold, 0.0) ** 2
    ray: float | None = None  # the latest Rayleigh value
    residual = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, budget.max_iterations + 1):
        w_ids, w = _scatter(forward(ids), v)
        prev, ray = ray, float(_norm(w) / _norm(v))
        if prev is not None:
            residual = abs(ray - prev)
        if residual < budget.residual_target:
            converged = True
            break
        u_ids, u = _scatter(backward(w_ids), w)
        nu = _norm(u)
        if nu == 0.0:
            break
        ids, v = u_ids, u / nu
        # small entries, and entries the division underflowed to exactly 0
        small = v.real * v.real + v.imag * v.imag < threshold if threshold > 0 else v == 0
        if small.any():
            pruned = v[small].any()
            keep = ~small
            ids, v = ids[keep], v[keep]
            if pruned:  # a nonzero entry left the iterate
                nv = _norm(v)
                if nv == 0.0:
                    break
                v /= nv

    # the products and the exactly rounded sum of StateVector.norm
    wn = math.sqrt(math.fsum((v.real * v.real + v.imag * v.imag).tolist()))
    lower = 0.0
    if wn > 0:
        _, tw = _scatter(_plan(a, window.images(np.arange(len(a)), ids)), v)
        lower = math.sqrt(math.fsum((tw.real * tw.real + tw.imag * tw.imag).tolist())) / wn
    return NormEstimate(
        lower_bound=lower,
        iterations=iterations,
        residual=residual,
        support_size=len(ids),
        radius_hint=int(window.depth[ids].max(initial=0)),
        converged=converged,
        _words=(space, *window.codes(ids), v),
    )
