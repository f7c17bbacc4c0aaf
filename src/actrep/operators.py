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
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .groups import FreeProductPresentation, GroupElement, PresentationMismatchError
from .spaces import ActionSpace, Point


def _fsum_complex(parts: list[complex]) -> complex:
    return complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))


class StateVector:
    """Finitely supported vector in l2 of the space; no zero coefficients stored."""

    __slots__ = ("space", "coefficients")

    def __init__(self, space: ActionSpace, coefficients: dict[Point, complex]):
        self.space = space
        self.coefficients = {x: complex(c) for x, c in coefficients.items() if c != 0}

    @classmethod
    def dirac(cls, space: ActionSpace, x: Point) -> "StateVector":
        return cls(space, {x: 1.0})

    def norm(self) -> float:
        return math.sqrt(
            math.fsum(c.real * c.real + c.imag * c.imag for c in self.coefficients.values())
        )

    def inner(self, other: "StateVector") -> complex:
        parts = [
            c * other.coefficients[x].conjugate()
            for x, c in self.coefficients.items()
            if x in other.coefficients
        ]
        return _fsum_complex(parts)

    @property
    def support(self) -> set:
        return set(self.coefficients)

    def __getitem__(self, x: Point) -> complex:
        return self.coefficients.get(x, 0j)

    def __len__(self) -> int:
        return len(self.coefficients)

    def __add__(self, other: "StateVector") -> "StateVector":
        out = dict(self.coefficients)
        for x, c in other.coefficients.items():
            out[x] = out.get(x, 0j) + c
        return StateVector(self.space, out)

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + other.scale(-1)

    def scale(self, factor: complex) -> "StateVector":
        return StateVector(self.space, {x: factor * c for x, c in self.coefficients.items()})

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
    def unit(cls, presentation: FreeProductPresentation) -> "FormalOperator":
        return cls(presentation, {presentation.identity(): 1.0})

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

    @property
    def support(self) -> set:
        return set(self.coefficients)

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


def pi_apply(g: GroupElement, v: StateVector) -> StateVector:
    """Apply the unitary pi(g): relocate the support by the action, exactly."""
    space = v.space
    return StateVector(space, {space.apply(g, x): c for x, c in v.coefficients.items()})


def op_apply(T: FormalOperator, v: StateVector) -> StateVector:
    """Apply sum a_g pi(g) to v with no truncation."""
    space = v.space
    acc: dict[Point, complex] = {}
    for g, a in T.coefficients.items():
        for x, c in v.coefficients.items():
            y = space.apply(g, x)
            acc[y] = acc.get(y, 0j) + a * c
    return StateVector(space, acc)


def adjoint(T: FormalOperator) -> FormalOperator:
    """Adjoint of a formal operator; pi(g)* = pi(g^-1) since pi(g) is unitary."""
    return T.adjoint()


def indicator_project(v: StateVector, member: Callable[[Point], bool]) -> StateVector:
    """Coordinate projection onto the points satisfying the predicate."""
    return StateVector(v.space, {x: c for x, c in v.coefficients.items() if member(x)})


def triangle_upper_bound(T: FormalOperator) -> float:
    """sum |a_g|: an upper bound for the operator norm, since each pi(g) has norm 1."""
    return math.fsum(abs(c) for c in T.coefficients.values())


# ---------------------------------------------------------------------------
# norm estimation


@dataclass(frozen=True)
class NormBudget:
    """Resource limits for :func:`norm_lower_bound`.

    ``seed_point`` defaults to the space base point.  ``start_vector`` lets a
    caller opt into a randomized restart; its support must meet the explored
    set.
    """

    max_iterations: int = 150
    support_cap: int = 30_000
    prune_threshold: float = 1e-8
    seed_point: Point | None = None
    residual_target: float = 1e-6
    start_vector: "StateVector | None" = None


@dataclass
class NormEstimate:
    """A certified lower bound on an operator norm, with diagnostics.

    ``lower_bound`` is ||T w|| / ||w|| for the explicitly stored ``witness``
    w, recomputed through exact application, so it never exceeds the true
    norm.  ``converged`` records whether successive Rayleigh values
    stabilized below the residual target before the iteration budget ran
    out; hitting the support cap without stabilizing leaves it False.
    """

    lower_bound: float
    iterations: int
    residual: float
    support_size: int
    radius_hint: int
    converged: bool
    ratio_max: float = 0.0
    witness: StateVector | None = None


def _norm(v: np.ndarray) -> np.float64:
    """Euclidean norm summed by numpy itself; np.linalg.norm goes through BLAS,
    whose reduction order, and so the last bits, depend on its thread count."""
    x = v.view(np.float64)  # real and imaginary parts, interleaved
    return np.sqrt(np.sum(x * x))


def _zero_estimate() -> NormEstimate:
    return NormEstimate(0.0, 0, 0.0, 0, 0, True, 0.0, None)


def _window(T: FormalOperator, space: ActionSpace, budget: NormBudget):
    """The estimator's window: the seed closed under the symbols of T, then
    their inverses, up to depth ``2 * max_iterations + 1`` and
    ``support_cap`` points.  Returns those symbols, the window and its
    targets.
    """
    seed = budget.seed_point if budget.seed_point is not None else space.base_point
    union = list(dict.fromkeys([*T.coefficients, *(g.inverse() for g in T.coefficients)]))
    window = space.window(seed, union)
    return union, window, window.close(2 * budget.max_iterations + 1, budget.support_cap)


def _applied_norm(coefficients: list[complex], images: np.ndarray, wv: np.ndarray) -> float:
    """||T w||, bit for bit as op_apply computes it, for the vector w with
    values ``wv`` and ``images[k, j]`` the id of term k applied to point j.

    Each image's coefficient is summed over T's terms in order, from products
    formed as Python's complex multiplication forms them, and the norm is
    exactly rounded by math.fsum.
    """
    wr, wi = wv.real, wv.imag
    m = int(images.max()) + 1
    acc_r = np.zeros(m)
    acc_i = np.zeros(m)
    for at, a in zip(images, coefficients):
        acc_r += np.bincount(at, weights=a.real * wr - a.imag * wi, minlength=m)
        acc_i += np.bincount(at, weights=a.real * wi + a.imag * wr, minlength=m)
    return math.sqrt(math.fsum(acc_r * acc_r + acc_i * acc_i))


def norm_lower_bound(
    T: FormalOperator, space: ActionSpace, budget: NormBudget | None = None
) -> NormEstimate:
    """Certified lower bound on ||sum a_g pi(g)|| via compressed power iteration.

    The orbit of the seed point under the symbols of T and T* is enumerated
    breadth-first up to the support cap, and v <- T* T v is iterated on that
    finite window from the Dirac vector at the seed, pruning entries below
    the threshold.  The reported bound applies T to the final vector with no
    truncation, so it is attained and sound regardless of how aggressively
    the iteration itself was capped or pruned.

    The window is the space's integer-indexed :class:`CayleyWindow`: points
    are rows of syllable codes with consecutive ids, identity is decided
    exactly (a fingerprint match counts only when the rows are equal), and
    whole blocks of points are multiplied by the symbols at once.  It grows
    level by level in the same breadth-first order as a point-by-point
    loop: new points in first-occurrence order of the (point, symbol) scan,
    up to depth ``2 * max_iterations + 1``, truncated at ``support_cap``.
    Group elements are built only for the witness and the ``start_vector``
    lookup.  The bound ||T w|| / ||w|| is computed on window ids, with the
    images outside the window resolved exactly, and equals
    ``op_apply(T, witness).norm() / witness.norm()`` bit for bit; the tests
    use :func:`op_apply` as its oracle.  Norms in the iteration are summed
    by numpy rather than BLAS, so the result does not depend on the BLAS
    thread count.
    """
    budget = budget or NormBudget()
    if budget.max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if not T.coefficients:
        return _zero_estimate()

    symbols = list(T.coefficients.items())
    union_elems, window, targets = _window(T, space, budget)
    slot = {g: u for u, g in enumerate(union_elems)}
    n = len(targets)

    maps: dict[GroupElement, tuple[np.ndarray, np.ndarray]] = {}
    for g, u in slot.items():
        src = np.nonzero(targets[:, u] >= 0)[0]
        maps[g] = (src, targets[src, u])

    fwd = [(a, *maps[g]) for g, a in symbols]
    bwd = [(a.conjugate(), *maps[g.inverse()]) for g, a in symbols]

    def matvec(terms, v):
        w = np.zeros(n, dtype=np.complex128)
        for a, src, dst in terms:
            w[dst] += a * v[src]  # left translation is injective per symbol
        return w

    v = np.zeros(n, dtype=np.complex128)
    if budget.start_vector is not None:
        start = list(budget.start_vector.coefficients.items())
        for j, (_, c) in zip(window.lookup([x for x, _ in start]).tolist(), start):
            if j >= 0:
                v[j] = c
        nv = _norm(v)
        if nv == 0:
            raise ValueError("start_vector support misses the explored window")
        v /= nv
    else:
        v[0] = 1.0

    rays: list[float] = []
    residual = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, budget.max_iterations + 1):
        w = matvec(fwd, v)
        ray = float(_norm(w) / _norm(v))
        if rays:
            residual = abs(ray - rays[-1])
        rays.append(ray)
        if residual < budget.residual_target:
            converged = True
            break
        u = matvec(bwd, w)
        nu = _norm(u)
        if nu == 0.0:
            break
        v = u / nu
        if budget.prune_threshold > 0:
            small = np.abs(v) < budget.prune_threshold
            if small.any():
                v[small] = 0.0
                nv = _norm(v)
                if nv == 0.0:
                    break
                v /= nv

    nz = np.nonzero(v)[0]
    wv = v[nz]
    witness = StateVector(space, dict(zip(window.points(nz), wv.tolist())))
    wn = witness.norm()
    if wn > 0:
        images = window.images(np.array([slot[g] for g, _ in symbols]), nz)
        lower = _applied_norm([a for _, a in symbols], images, wv) / wn
    else:
        lower = 0.0
    radius = int(window.depth[nz].max(initial=0))
    return NormEstimate(
        lower_bound=lower,
        iterations=iterations,
        residual=residual,
        support_size=len(witness),
        radius_hint=radius,
        converged=converged,
        ratio_max=max([lower] + rays),
        witness=witness,
    )
