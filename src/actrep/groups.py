"""Reduced-word arithmetic in free products of cyclic groups.

Elements are alternating products of powers of the factor generators kept
in a unique normal form: adjacent syllables use distinct factors, exponents
of a finite factor of order ``m`` live in ``{1, ..., m-1}``, and the empty
word is the identity.  Free groups are the special case where every factor
is infinite cyclic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

#: Factor-order marker for an infinite cyclic factor.
INFINITE = 0

Syllable = tuple[int, int]


class PresentationMismatchError(ValueError):
    """Operands belong to different presentations, or a factor index is invalid."""


class DegenerateInputError(ValueError):
    """An argument violates a nontriviality precondition."""


@dataclass(frozen=True)
class FreeProductPresentation:
    """A free product of cyclic groups, one factor per entry of ``factor_orders``.

    An order of :data:`INFINITE` (the integer 0) marks an infinite cyclic
    factor; finite orders must be at least 2.  Identity of presentations is
    structural: two presentations are interchangeable exactly when their
    orders and generator names agree.
    """

    factor_orders: tuple[int, ...]
    factor_names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor_orders", tuple(self.factor_orders))
        object.__setattr__(self, "factor_names", tuple(self.factor_names))
        if not self.factor_orders:
            raise ValueError("a presentation needs at least one factor")
        if len(self.factor_orders) != len(self.factor_names):
            raise ValueError("factor_orders and factor_names must have equal length")
        for m in self.factor_orders:
            if m != INFINITE and m < 2:
                raise ValueError(f"finite factor orders must be >= 2, got {m}")
        for name in self.factor_names:
            if not name or name == "e" or any(ch.isspace() for ch in name) or "^" in name:
                raise ValueError(f"invalid generator name {name!r}")
        if len(set(self.factor_names)) != len(self.factor_names):
            raise ValueError("generator names must be distinct")

    @property
    def rank(self) -> int:
        return len(self.factor_orders)

    def identity(self) -> "GroupElement":
        return GroupElement(self, ())

    def generator(self, index: int) -> "GroupElement":
        if not 0 <= index < self.rank:
            raise PresentationMismatchError(f"factor index {index} out of range")
        return GroupElement(self, ((index, 1),))

    def generators(self) -> tuple["GroupElement", ...]:
        return tuple(self.generator(i) for i in range(self.rank))


def free_group(rank: int, names: Sequence[str] | None = None) -> FreeProductPresentation:
    """The free group of the given rank, as a free product of copies of Z."""
    if names is None:
        if rank > 26:
            raise ValueError("provide explicit names for rank > 26")
        names = tuple(chr(ord("a") + i) for i in range(rank))
    return FreeProductPresentation((INFINITE,) * rank, tuple(names))


def free_product(orders: Sequence[int], names: Sequence[str] | None = None) -> FreeProductPresentation:
    """Free product of cyclic groups with the given orders (0 = infinite)."""
    if names is None:
        names = tuple(chr(ord("a") + i) for i in range(len(orders)))
    return FreeProductPresentation(tuple(orders), tuple(names))


def _canon_exp(exp: int, order: int) -> int:
    return exp % order if order != INFINITE else exp


class GroupElement:
    """A reduced word over a :class:`FreeProductPresentation`.

    Instances are immutable values; construct them through the presentation,
    :func:`reduce`, or the arithmetic operators.  ``syllables`` is a tuple of
    ``(factor_index, exponent)`` pairs in normal form.

    The hash is the tuple hash of ``syllables``.  It collides more than it
    must (``hash(-1) == hash(-2)``, so a^-1 and a^-2 share it).
    """

    __slots__ = ("presentation", "syllables", "_hash")

    def __init__(self, presentation: FreeProductPresentation, syllables: tuple[Syllable, ...]):
        self.presentation = presentation
        self.syllables = syllables
        self._hash = hash(syllables)

    # -- value semantics -------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.syllables == other.syllables and (
            self.presentation is other.presentation or self.presentation == other.presentation
        )

    def __repr__(self) -> str:
        return f"<GroupElement {self.render()}>"

    def __str__(self) -> str:
        return self.render()

    # -- structure -------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def word_length(self) -> int:
        """Word length for the generating set made of all factor generators.

        Infinite factors contribute ``|exponent|``; a finite factor of order
        ``m`` contributes ``min(exponent, m - exponent)``.
        """
        orders = self.presentation.factor_orders
        total = 0
        for fi, e in self.syllables:
            m = orders[fi]
            total += abs(e) if m == INFINITE else min(e, m - e)
        return total

    def render(self) -> str:
        """Canonical text form: ``name`` or ``name^exp`` separated by spaces."""
        if not self.syllables:
            return "e"
        names = self.presentation.factor_names
        return " ".join(
            names[fi] if e == 1 else f"{names[fi]}^{e}" for fi, e in self.syllables
        )

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.presentation is not other.presentation and self.presentation != other.presentation:
            raise PresentationMismatchError("cannot multiply elements of different presentations")
        a, b = self.syllables, other.syllables
        if not a:
            return other
        if not b:
            return self
        orders = self.presentation.factor_orders
        i, j = len(a), 0
        seam: tuple[Syllable, ...] = ()
        while i > 0 and j < len(b):
            fi, e1 = a[i - 1]
            fj, e2 = b[j]
            if fi != fj:
                break
            e = _canon_exp(e1 + e2, orders[fi])
            i -= 1
            j += 1
            if e:
                seam = ((fi, e),)
                break
        return GroupElement(self.presentation, a[:i] + seam + b[j:])

    def inverse(self) -> "GroupElement":
        orders = self.presentation.factor_orders
        syl = tuple((fi, _canon_exp(-e, orders[fi])) for fi, e in reversed(self.syllables))
        return GroupElement(self.presentation, syl)

    def __pow__(self, n: int) -> "GroupElement":
        """Repeated squaring: O(log |n|) products, none for |n| = 1."""
        if n < 0:
            return self.inverse() ** -n
        if n <= 1:
            return self if n else self.presentation.identity()
        half = self ** (n // 2)
        return half * half * self if n & 1 else half * half


# ---------------------------------------------------------------------------
# module-level operation surface


def reduce(presentation: FreeProductPresentation, raw_word: Iterable[Syllable]) -> GroupElement:
    """Reduce a raw syllable list to its unique normal form.

    Exponents are folded modulo finite factor orders, vanishing syllables are
    dropped and adjacent syllables over the same factor are merged, cascading
    through any cancellation this uncovers.  Idempotent on reduced input.
    """
    orders = presentation.factor_orders
    rank = presentation.rank
    stack: list[Syllable] = []
    for fi, e in raw_word:
        if not 0 <= fi < rank:
            raise PresentationMismatchError(f"factor index {fi} out of range for presentation")
        e = _canon_exp(e, orders[fi])
        if e == 0:
            continue
        if stack and stack[-1][0] == fi:
            merged = _canon_exp(stack[-1][1] + e, orders[fi])
            stack.pop()
            if merged:
                stack.append((fi, merged))
        else:
            stack.append((fi, e))
    return GroupElement(presentation, tuple(stack))


def conjugate_sequence(g: GroupElement, h: GroupElement, J: int) -> list[GroupElement]:
    """The conjugates ``g^-j h g^j`` for ``j = 1..J``, each in normal form.

    Computed iteratively, so ``c[j+1] == g^-1 * c[j] * g`` holds exactly.
    """
    if h.is_identity:
        raise DegenerateInputError("h must be nontrivial")
    if J < 1:
        raise ValueError("J must be >= 1")
    ginv = g.inverse()
    out: list[GroupElement] = []
    current = h
    for _ in range(J):
        current = ginv * current * g
        out.append(current)
    return out


def element_order(x: GroupElement) -> int:
    """Order of ``x``; 0 means infinite order.

    Cyclically reduces first: torsion elements of a free product are exactly
    the conjugates of finite-factor powers.
    """
    syl = x.syllables
    pres = x.presentation
    while len(syl) >= 2 and syl[0][0] == syl[-1][0]:
        # rotate the leading syllable to the back and re-reduce the seam
        syl = reduce(pres, syl[1:] + (syl[0],)).syllables
    if not syl:
        return 1
    if len(syl) == 1:
        fi, e = syl[0]
        m = pres.factor_orders[fi]
        return 0 if m == INFINITE else m // math.gcd(e, m)
    return 0
