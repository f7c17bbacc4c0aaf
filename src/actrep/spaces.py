"""Countable metric spaces with isometric group actions.

The concrete space is the Cayley graph of a free product acting on itself by
left multiplication, with the word metric of the standard generating set.
Balls are enumerated lazily and deterministically; orbit decompositions and
faithfulness checks are budget-relative: they certify what a finite window
shows and never claim more.  The norm estimator's windows are
integer-indexed stores of reduced words (:class:`CayleyWindow`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .groups import (
    INFINITE,
    FreeProductPresentation,
    GroupElement,
    PresentationMismatchError,
)

#: Points of a Cayley space are reduced words; other spaces may use any
#: hashable value whose equality matches the intended point identity.
Point = GroupElement

#: Default ceiling on enumerated ball size, keeping worst-case memory near 1 GB.
DEFAULT_BALL_CAP = 5_000_000


class BudgetExceededError(RuntimeError):
    """An enumeration outgrew its configured cardinality cap."""


class ActionSpace(Protocol):
    """Structural contract for a countable metric space with a group action."""

    presentation: FreeProductPresentation
    base_point: Point

    def apply(self, g: GroupElement, x: Point) -> Point: ...

    def distance(self, x: Point, y: Point) -> int: ...

    def enumerate_ball(self, center: Point, radius: int) -> list[Point]: ...

    def window(self, seed: Point, symbols: Sequence[GroupElement]) -> "CayleyWindow": ...


class CayleySpace:
    """A free product acting on itself by left multiplication.

    The metric is the word metric of the generating set made of all factor
    generators; left multiplication is an isometry for it.  The base point is
    the identity.
    """

    def __init__(self, presentation: FreeProductPresentation, ball_cap: int = DEFAULT_BALL_CAP):
        self.presentation = presentation
        self.base_point: Point = presentation.identity()
        self.ball_cap = ball_cap
        self._moves = self._one_step_moves()

    def _one_step_moves(self) -> list[GroupElement]:
        # generator order, positive exponent before negative; for an order-2
        # factor the two coincide and are emitted once
        moves: list[GroupElement] = []
        for i, m in enumerate(self.presentation.factor_orders):
            moves.append(GroupElement(self.presentation, ((i, 1),)))
            if m != 2:
                inv = m - 1 if m != INFINITE else -1
                moves.append(GroupElement(self.presentation, ((i, inv),)))
        return moves

    def apply(self, g: GroupElement, x: Point) -> Point:
        if g.presentation is not self.presentation and g.presentation != self.presentation:
            raise PresentationMismatchError("element acts on a different presentation")
        return g * x

    def distance(self, x: Point, y: Point) -> int:
        return (x.inverse() * y).word_length()

    def window(self, seed: Point, symbols: Sequence[GroupElement]) -> "CayleyWindow":
        """An integer-indexed window holding ``seed``, acted on by ``symbols``."""
        return CayleyWindow(self.presentation, seed, symbols)

    def enumerate_ball(self, center: Point, radius: int) -> list[Point]:
        """All points at distance <= radius, in breadth-first discovery order."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        seen: dict[Point, None] = {center: None}
        frontier = [center]
        for _ in range(radius):
            nxt: list[Point] = []
            for x in frontier:
                for s in self._moves:
                    y = x * s
                    if y not in seen:
                        if len(seen) >= self.ball_cap:
                            raise BudgetExceededError(
                                f"ball enumeration exceeded cap of {self.ball_cap} points"
                            )
                        seen[y] = None
                        nxt.append(y)
            frontier = nxt
        return list(seen)


# ---------------------------------------------------------------------------
# integer-indexed windows

#: Elements of one transient (point, symbol, column) array while a window
#: grows; block sizes follow from it, the symbol count and the row width.
_BLOCK_ELEMENTS = 1 << 16

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser on a uint64 array; it maps 0 to 0."""
    x = x ^ (x >> np.uint64(30))
    x = x * _MIX1
    x = x ^ (x >> np.uint64(27))
    x = x * _MIX2
    return x ^ (x >> np.uint64(31))


def _fingerprint(rows: np.ndarray) -> np.ndarray:
    """64-bit fingerprint of each row of syllable codes.

    Zero padding contributes nothing, so a word's fingerprint does not depend
    on the row width.  A fingerprint only proposes candidates: every match is
    confirmed by comparing rows.
    """
    keys = _mix(np.arange(1, rows.shape[-1] + 1, dtype=np.uint64)) | np.uint64(1)
    x = rows.view(np.uint64) * keys
    x ^= x >> np.uint64(32)
    x *= _MIX2
    return _mix(x.sum(axis=-1, dtype=np.uint64))


def _max_exponent(rows: np.ndarray, rank: int) -> int:
    """Largest |exponent| among rows of syllable codes."""
    return int(np.abs(rows // rank).max(initial=0))


def _rows_equal(a: np.ndarray, alen: np.ndarray, b: np.ndarray, blen: np.ndarray) -> np.ndarray:
    """Row-wise word equality; each row keeps a zero column past its word."""
    w = min(a.shape[-1], b.shape[-1])
    return (alen == blen) & (a[..., :w] == b[..., :w]).all(axis=-1)


def _group(fp: np.ndarray, rows_of, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Group items exactly by their words, numbering the groups by first occurrence.

    ``rows_of(idx)`` returns the rows and lengths of the items ``idx`` and is
    called on at most ``step`` items at a time.  Items are grouped by
    fingerprint and every item is compared with its group's first item; a
    group that holds distinct words is split by the words' contents.  Returns
    the first item of every group and the group of every item.
    """
    _, first, group = np.unique(fp, return_index=True, return_inverse=True)
    rep = first[group]
    later = np.nonzero(rep != np.arange(len(fp)))[0]
    clash = np.zeros(len(fp), dtype=bool)
    for i in range(0, len(later), step):
        idx = later[i : i + step]
        clash[idx] = ~_rows_equal(*rows_of(idx), *rows_of(rep[idx]))
    if clash.any():
        members = np.nonzero(np.isin(group, group[clash]))[0]
        labels: dict[bytes, int] = {}
        group = group.copy()
        for i in range(0, len(members), step):
            idx = members[i : i + step]
            rows, lens = rows_of(idx)
            for j, row, n in zip(idx.tolist(), rows, lens.tolist()):
                group[j] = labels.setdefault(row[:n].tobytes(), len(first) + len(labels))
        _, first, group = np.unique(group, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[group]


class CayleyWindow:
    """A finite, integer-indexed set of points of a Cayley space.

    This is the one place that decides how the norm estimator represents
    points.  A reduced word is a row of int64 syllable codes
    ``exponent * rank + factor`` (never 0), zero-padded to the store width,
    which always keeps at least one zero column.  Points get consecutive ids
    in the order they join.  Identity is exact: a 64-bit fingerprint proposes
    a stored point, which counts only when its row equals the query's; a
    fingerprint shared by several stored points makes the query be compared
    with each of them.  ``symbols`` are the group elements the window is
    acted on by, addressed by their position.
    """

    def __init__(
        self,
        presentation: FreeProductPresentation,
        seed: Point,
        symbols: Sequence[GroupElement],
    ):
        self.presentation = presentation
        self._rank = presentation.rank
        self._orders = np.asarray(presentation.factor_orders, dtype=np.int64)
        self._sym, self._sym_len = self._pack([self._encode(g) for g in symbols])
        self._sym_inv, _ = self._pack([self._encode(g.inverse()) for g in symbols])
        self._rows, self._len = self._pack([self._encode(seed)])
        self._depth = np.zeros(1, dtype=np.int64)
        self.size = 1
        self._index_fp = _fingerprint(self._rows)
        self._index_id = np.zeros(1, dtype=np.int64)

    # -- encoding --------------------------------------------------------

    def _encode(self, x: GroupElement) -> list[int]:
        if x.presentation != self.presentation:
            raise PresentationMismatchError("point of a different presentation")
        return [e * self._rank + f for f, e in x.syllables]

    @staticmethod
    def _pack(codes: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
        lens = np.array([len(c) for c in codes], dtype=np.int64)
        rows = np.zeros((len(codes), int(lens.max(initial=0)) + 1), dtype=np.int64)
        for row, c in zip(rows, codes):
            row[: len(c)] = c
        return rows, lens

    @property
    def depth(self) -> np.ndarray:
        """Breadth-first depth of every point."""
        return self._depth[: self.size]

    def points(self, ids: Sequence[int]) -> list[GroupElement]:
        """The group elements with the given ids."""
        ids = np.asarray(ids, dtype=np.int64)
        R = self._rank
        return [
            GroupElement(self.presentation, tuple((c % R, c // R) for c in row[:n]))
            for row, n in zip(self._rows[ids].tolist(), self._len[ids].tolist())
        ]

    def lookup(self, points: Sequence[Point]) -> np.ndarray:
        """The id of each point, or -1 where it is not in the window."""
        ids = np.full(len(points), -1, dtype=np.int64)
        mine = [i for i, x in enumerate(points) if x.presentation == self.presentation]
        if mine:
            rows, lens = self._pack([self._encode(points[i]) for i in mine])
            ids[mine] = self._find(rows, lens, _fingerprint(rows))
        return ids

    # -- identity --------------------------------------------------------

    def _find(self, rows: np.ndarray, lens: np.ndarray, fp: np.ndarray) -> np.ndarray:
        index = self._index_fp
        order = np.argsort(fp)  # sorted needles make the binary searches cache-friendly
        lo = np.empty(len(fp), dtype=np.int64)
        lo[order] = np.minimum(np.searchsorted(index, fp[order]), len(index) - 1)
        hit = index[lo] == fp
        shared = hit & (index[np.minimum(lo + 1, len(index) - 1)] == fp) & (lo + 1 < len(index))
        ids = np.full(len(fp), -1, dtype=np.int64)
        one = np.nonzero(hit & ~shared)[0]
        cand = self._index_id[lo[one]]
        match = _rows_equal(rows[one], lens[one], self._rows[cand], self._len[cand])
        ids[one[match]] = cand[match]
        for q in np.nonzero(shared)[0].tolist():
            hi = np.searchsorted(index, fp[q], side="right")
            cands = self._index_id[lo[q] : hi]
            match = np.nonzero(_rows_equal(rows[q], lens[q], self._rows[cands], self._len[cands]))[0]
            if match.size:
                ids[q] = cands[match[0]]
        return ids

    def _intern(
        self, rows: np.ndarray, lens: np.ndarray, room: int, depth: int
    ) -> np.ndarray:
        """Ids of the given words; absent ones join in first-occurrence order
        while there is room, and the rest get -1."""
        fp = _fingerprint(rows)
        ids = self._find(rows, lens, fp)
        new = np.nonzero(ids < 0)[0]
        if new.size and room > 0:
            first, group = _group(fp[new], lambda idx: (rows[new[idx]], lens[new[idx]]), len(new))
            take = min(len(first), room)
            fresh = np.full(len(first), -1, dtype=np.int64)
            fresh[:take] = self.size + np.arange(take)
            ids[new] = fresh[group]
            keep = new[first[:take]]
            self._append(rows[keep], lens[keep], fp[keep], depth, self.size + room)
        return ids

    def _append(
        self, rows: np.ndarray, lens: np.ndarray, fp: np.ndarray, depth: int, limit: int
    ) -> None:
        """Store new points; the store never reserves room past ``limit`` points."""
        n, k = self.size, len(lens)
        width = max(self._rows.shape[1], int(lens.max()) + 1)
        if n + k > len(self._rows) or width > self._rows.shape[1]:
            capacity = len(self._rows)
            if n + k > capacity:
                capacity = max(n + k, min(2 * capacity, limit))
            grown = np.zeros((capacity, width), dtype=np.int64)
            grown[:n, : self._rows.shape[1]] = self._rows[:n]
            self._rows = grown
            self._len = np.resize(self._len, capacity)
            self._depth = np.resize(self._depth, capacity)
        w = min(width, rows.shape[1])
        self._rows[n : n + k, :w] = rows[:, :w]
        self._len[n : n + k] = lens
        self._depth[n : n + k] = depth
        self.size = n + k
        order = np.argsort(fp, kind="stable")
        at = np.searchsorted(self._index_fp, fp[order], side="right")
        self._index_fp = np.insert(self._index_fp, at, fp[order])
        self._index_id = np.insert(self._index_id, at, n + order)

    # -- the action ------------------------------------------------------

    def _act(self, X: np.ndarray, n: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows and lengths of symbol ``u[i, j]`` applied to the word in row ``X[i]``.

        ``X`` holds ``B`` rows of length ``n`` and ``u`` has shape (B, U) or
        (1, U); the result has shape (B, U, width).  Left multiplication
        cancels the longest prefix of the word that matches the symbol's
        inverse, merges the next two syllables when they share a factor, and
        shifts the rest of the word behind what is left of the symbol.
        """
        B, W = X.shape
        M = self._sym.shape[1]
        m = self._sym_len[u]
        c = min(W, M)
        same = X[:, None, :c] == self._sym_inv[u][..., :c]
        k = np.minimum(np.logical_and.accumulate(same, axis=-1).sum(axis=-1), m)
        a = self._sym[u, np.maximum(m - 1 - k, 0)]
        row = np.arange(B)[:, None]
        b = X[row, k]
        R = self._rank
        merge = (k < m) & (k < n[:, None]) & (a % R == b % R)
        p = m - k - merge  # syllables kept from the symbol, before the merged one
        lens = p + n[:, None] - k
        col = np.arange(int(lens.max()) + 1)
        src = col - (p - k)[..., None]
        np.clip(src, 0, W - 1, out=src)
        src += (row * W)[..., None]
        out = np.ascontiguousarray(X).reshape(-1)[src]
        np.copyto(out, self._sym[u[..., None], np.minimum(col, M - 1)], where=col < p[..., None])
        i, j = np.nonzero(merge)
        if i.size:
            f = a[i, j] % R
            e = a[i, j] // R + b[i, j] // R
            order = self._orders[f]
            e = np.where(order > 0, e % np.maximum(order, 1), e)
            out[i, j, p[i, j]] = e * R + f
        return out, lens

    def close(self, max_depth: int, cap: int) -> np.ndarray:
        """Grow the window breadth-first and return its symbol targets.

        Level by level, the images of each point under every symbol are
        taken in row-major (point, symbol) order.  An image not yet in the
        window joins it, one level deeper, while its point's depth is below
        ``max_depth`` and the window holds fewer than ``cap`` points.
        Entry ``[i, u]`` of the int32 result is the id of symbol ``u``
        applied to point ``i``, or -1 when that image lies outside the
        final window.  Blocks of points are processed in turn, so no
        transient array exceeds a fixed number of elements.

        Each multiplication grows a syllable exponent by at most the largest
        symbol exponent, and every level holds a point, so images are at
        most ``min(max_depth, cap) + 1`` multiplications from the seed; codes
        that could leave int64 on the way raise OverflowError up front.
        """
        R = self._rank
        steps = min(max_depth, cap) + 1
        reach = _max_exponent(self._rows, R) + steps * _max_exponent(self._sym, R)
        if (reach + 1) * R > np.iinfo(np.int64).max:
            raise OverflowError("syllable exponents too large for the integer window")
        U = len(self._sym)
        blocks: list[np.ndarray] = []
        lo = 0
        while lo < self.size:
            hi = self.size
            level = int(self._depth[lo])
            i = lo
            while i < hi:
                step = _BLOCK_ELEMENTS // (U * (self._rows.shape[1] + self._sym.shape[1]))
                j = min(hi, i + max(1, step))
                rows, lens = self._act(self._rows[i:j], self._len[i:j], np.arange(U)[None, :])
                room = cap - self.size if level < max_depth else 0
                ids = self._intern(rows.reshape(-1, rows.shape[-1]), lens.reshape(-1), room, level + 1)
                blocks.append(ids.reshape(j - i, U).astype(np.int32))
                i = j
            lo = hi
        self._targets = np.concatenate(blocks)
        return self._targets

    def images(self, u: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Exact ids of symbol ``u[k]`` applied to point ``ids[j]``, at [k, j].

        Images in the closed window have their window ids.  Equal images
        outside it share one id from ``size`` on; those are computed block
        by block and never stored, so they cost no more memory than the
        window itself.
        """
        out = self._targets[ids][:, u].T.astype(np.int64)
        outside = out < 0
        if outside.any():
            pairs = np.broadcast_to(u[:, None], out.shape)[outside], np.broadcast_to(ids, out.shape)[outside]
            out[outside] = self.size + self._label(*pairs)
        return out

    def _label(self, u: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Labels 0, 1, ... of the images of symbol ``u[i]`` applied to point
        ``ids[i]``, equal exactly when the images are equal."""
        step = max(1, _BLOCK_ELEMENTS // (self._rows.shape[1] + self._sym.shape[1]))

        def rows_of(idx):
            rows, lens = self._act(self._rows[ids[idx]], self._len[ids[idx]], u[idx, None])
            return rows[:, 0], lens[:, 0]

        fp = np.concatenate([
            _fingerprint(rows_of(np.arange(i, min(i + step, len(ids))))[0])
            for i in range(0, len(ids), step)
        ])
        return _group(fp, rows_of, step)[1]


@dataclass
class OrbitDecomposition:
    """Greedy orbit labelling of an enumerated ball.

    ``representatives[i]`` is the first enumerated point of the i-th orbit
    piece; ``membership`` labels every ball point with its piece index.
    Pieces are orbit intersections with the ball, connected through moves
    that stay inside the ball.
    """

    representatives: list[Point]
    membership: dict[Point, int]


def orbit_decompose(
    space: ActionSpace,
    subgroup_generators: Sequence[GroupElement],
    ball: Sequence[Point],
) -> OrbitDecomposition:
    """Decompose a ball into orbit pieces of the generated subgroup.

    Representatives are chosen greedily in enumeration order: the first point
    not yet claimed starts a new piece, whose membership is the closure of
    the representative under the generators and their inverses, intersected
    with the ball.
    """
    if not ball:
        raise ValueError("ball must be nonempty")
    moves: list[GroupElement] = []
    for g in subgroup_generators:
        for m in (g, g.inverse()):
            if m not in moves:
                moves.append(m)
    in_ball = set(ball)
    membership: dict[Point, int] = {}
    representatives: list[Point] = []
    for p in ball:
        if p in membership:
            continue
        label = len(representatives)
        representatives.append(p)
        membership[p] = label
        frontier = [p]
        while frontier:
            nxt: list[Point] = []
            for x in frontier:
                for s in moves:
                    y = space.apply(s, x)
                    if y in in_ball and y not in membership:
                        membership[y] = label
                        nxt.append(y)
            frontier = nxt
    return OrbitDecomposition(representatives, membership)


@dataclass
class FaithfulnessReport:
    """Outcome of the budgeted faithfulness probe.

    ``witnesses`` maps every nontrivial word of the census to a point it
    moves; ``failures`` lists words that fixed the whole tested ball.
    """

    witnesses: dict[GroupElement, Point]
    failures: list[GroupElement]
    words_checked: int
    ball_size: int
    verdict: str  # "PASS" | "FAIL"


def faithfulness_check(
    space: ActionSpace,
    word_length_budget: int,
    radius: int,
    word_cap: int = DEFAULT_BALL_CAP,
) -> FaithfulnessReport:
    """Search moved-point witnesses for every short nontrivial word.

    For each reduced word of length at most ``word_length_budget`` the
    radius-``radius`` ball around the base point is scanned for a point the
    word moves.  PASS means every word has a witness within the budget; a
    failure exhibits a word acting trivially on the whole tested window.
    """
    census_space = CayleySpace(space.presentation, ball_cap=word_cap)
    words = census_space.enumerate_ball(space.presentation.identity(), word_length_budget)
    ball = space.enumerate_ball(space.base_point, radius)
    witnesses: dict[GroupElement, Point] = {}
    failures: list[GroupElement] = []
    checked = 0
    for w in words:
        if w.is_identity:
            continue
        checked += 1
        for x in ball:
            if space.apply(w, x) != x:
                witnesses[w] = x
                break
        else:
            failures.append(w)
    verdict = "PASS" if not failures else "FAIL"
    return FaithfulnessReport(witnesses, failures, checked, len(ball), verdict)
