"""The Cayley graph of a free product, acted on by left multiplication.

The group acts on itself, freely and isometrically for the word metric of
the standard generating set.  Balls are enumerated once, breadth first, as
rows of integer codes (:meth:`CayleySpace.ball_codes`);
:meth:`CayleySpace.enumerate_ball` decodes those rows into group elements.
Orbit decompositions are budget-relative: they certify what a finite ball
shows and never claim more.  The action is free, so it is faithful by
construction and no check of it is needed.  Integer-indexed stores of
reduced words (:class:`CayleyWindow`) hold the norm estimator's windows,
the balls of the orbit decomposition and the translates of the W_j check;
the space keeps none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groups import (
    INFINITE,
    FreeProductPresentation,
    GroupElement,
    PresentationMismatchError,
)

#: Points of the Cayley space are reduced words.
Point = GroupElement

#: Default ceiling on enumerated ball size, keeping worst-case memory near 1 GB.
DEFAULT_BALL_CAP = 5_000_000

#: The one verdict vocabulary of every check and experiment.
PASS = "PASS"
FALSIFIED = "FALSIFIED"
INCONCLUSIVE = "INCONCLUSIVE"


class BudgetExceededError(RuntimeError):
    """An enumeration outgrew its configured cardinality cap."""


class CayleySpace:
    """A free product acting on itself by left multiplication.

    The metric is the word metric of the generating set made of all factor
    generators; left multiplication is an isometry for it.  The base point is
    the identity.  The space is only the presentation and its ball
    enumerator.
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

    def enumerate_ball(self, center: Point, radius: int) -> list[Point]:
        """All points at distance <= radius, in breadth-first discovery order.

        The rows of :meth:`ball_codes`, decoded and translated by ``center``;
        left multiplication commutes with the right moves, so the order is
        that of the breadth-first search from ``center``.
        """
        points = CayleyWindow.decode(self.presentation, *self.ball_codes(radius))
        return [center * x for x in points]

    def ball_codes(self, radius: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows of syllable codes and lengths of the points at distance <=
        radius from the base point, in breadth-first discovery order: level
        by level, point by point, the new products x s with the moves s.

        The rows are those of :meth:`_ball_window`, inverted as codes.
        """
        return self._ball_window(radius).inverse_codes()

    def ball_images(self, radius: int, images: Sequence[GroupElement]) -> tuple[np.ndarray, ...]:
        """The rows and lengths of :meth:`ball_codes`, and the rows and lengths
        of the words' images under the homomorphism that sends generator i to
        ``images[i]``, in the images' presentation.

        The ball's window holds the words' inverses (:meth:`_ball_window`):
        each point y = w^-1 one level below another, x, is y = s x for one of
        the window's symbols s, the inverse moves, so y's image is s's image
        times x's, a left action (:meth:`CayleyWindow._act`).  The images are
        computed so a level at a time, from the symbol targets of the points
        above the last level, and inverted once at the end.
        """
        ball = self._ball_window(radius)
        words, lens = ball.inverse_codes()
        symbols = [images[f] ** e for ((f, e),) in (m.inverse().syllables for m in self._moves)]
        acting = CayleyWindow(images[0].presentation, symbols, ball.inverse)
        depth = ball.depth
        inner = int(np.searchsorted(depth, radius))  # the points above the last level
        targets = ball.targets(np.arange(inner)).astype(np.int64)
        U = targets.shape[1]
        y = targets.reshape(-1)
        down = np.flatnonzero((y >= 0) & (depth[y] == np.repeat(depth[:inner], U) + 1))
        pair = down[np.unique(y[down], return_index=True)[1]]  # the first pair into each point
        parent, symbol = pair // U, pair % U  # of points 1, 2, ..., in id order
        rows = np.zeros((len(depth), 1), dtype=np.int64)
        n = np.zeros(len(depth), dtype=np.int64)
        starts = np.searchsorted(depth, np.arange(radius + 2))
        for a, b in zip(starts[1:-1].tolist(), starts[2:].tolist()):
            step = acting._pair_step(rows.shape[1])
            for i in range(a, b, step):
                j = min(b, i + step)
                x = parent[i - 1 : j - 1]
                out, m = acting._act(rows[x], n[x], symbol[i - 1 : j - 1, None])
                if out.shape[-1] > rows.shape[1]:  # widen geometrically, as the window's store does
                    rows = np.pad(rows, ((0, 0), (0, max(out.shape[-1], 2 * rows.shape[1]) - rows.shape[1])))
                rows[i:j, : out.shape[-1]] = out[:, 0]
                n[i:j] = m[:, 0]
        return words, lens, *acting._inverted(rows, n)

    def _ball_window(self, radius: int) -> "CayleyWindow":
        """The closed window of the inverses of the words of the radius ball.

        A window acted on by the inverse moves closes breadth first on the
        inverses of the ball's words: s^-1 x^-1 = (x s)^-1, so its ids are in
        the ball's breadth-first order.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        inverses = [m.inverse() for m in self._moves]
        moves = [inverses.index(m) for m in self._moves]
        window = CayleyWindow(self.presentation, inverses, moves, radius, self.ball_cap + 1)
        window.close()
        if window.size > self.ball_cap:
            raise BudgetExceededError(f"ball enumeration exceeded cap of {self.ball_cap} points")
        return window


# ---------------------------------------------------------------------------
# integer-indexed windows

#: Elements of one transient (point, symbol, column) array while a window
#: grows; block sizes follow from it, the symbol count and the row width.
_BLOCK_ELEMENTS = 1 << 16

#: (point, symbol) pairs whose images one block of a lookup fingerprints.
_BLOCK_PAIRS = 1 << 14

#: Columns :meth:`CayleyWindow._compose` compares one at a time before it
#: reads the rest of a cancellation off the symbols' sorted table.
_LOOP_COLUMNS = 4

#: Least share by which a window's store widens when a longer word joins it.
_WIDTH_GROWTH = 0.25

#: Symbol target of a point whose images have not been looked up yet.
_UNRESOLVED = -2

_INT64_MAX = int(np.iinfo(np.int64).max)
_OVERFLOW = "syllable exponents too large for the integer window"

#: Base of the polynomial word hash, odd so that it is invertible mod 2**64.
_B = 0x9E3779B97F4A7C15
_B_INV = pow(_B, -1, 1 << 64)


def _powers(n: int, base: int = _B) -> np.ndarray:
    """``base ** i`` mod 2**64 for i = 0 .. n-1, as uint64."""
    pw = np.full(n, base, dtype=np.uint64)
    pw[:1] = 1
    return np.multiply.accumulate(pw)


def _hash(rows: np.ndarray) -> np.ndarray:
    """Polynomial hash H(w) = sum c_i B**i mod 2**64 of each row of syllable codes.

    The codes are read as uint64.  Zero padding contributes nothing, so H does
    not depend on the row width, and H composes across concatenation:
    H(u v) = H(u) + B**len(u) H(v), which :meth:`CayleyWindow._compose` uses.
    H is a word's fingerprint: it only proposes candidates, and every match
    is confirmed by comparing rows.
    """
    return rows.view(np.uint64) @ _powers(rows.shape[-1])  # integer matmul wraps mod 2**64


def _prefix_hashes(rows: np.ndarray) -> np.ndarray:
    """Entry [i, j] is H of the first j codes of row i, for j below the row width."""
    out = np.zeros(rows.shape, dtype=np.uint64)
    terms = rows.view(np.uint64) * _powers(rows.shape[-1])
    np.cumsum(terms[:, :-1], axis=1, dtype=np.uint64, out=out[:, 1:])
    return out


def _rows_equal(a: np.ndarray, alen: np.ndarray, b: np.ndarray, blen: np.ndarray) -> np.ndarray:
    """Row-wise word equality; each row keeps a zero column past its word."""
    w = min(a.shape[-1], b.shape[-1])
    return (alen == blen) & (a[..., :w] == b[..., :w]).all(axis=-1)


def _insert(a: np.ndarray, at: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.insert(a, at, values)`` for nondecreasing positions ``at``, which
    needs no sort of the positions."""
    out = np.empty(len(a) + len(values), dtype=a.dtype)
    at = at + np.arange(len(values))
    old = np.ones(len(out), dtype=bool)
    old[at] = False
    out[at] = values
    out[old] = a
    return out


def _group(fp: np.ndarray, order: np.ndarray, rows_of, step: int) -> np.ndarray:
    """The least item holding the same word as each of the items ``order``.

    ``order`` lists items by increasing fingerprint ``fp``, and items of
    equal fingerprint by increasing index, as a stable argsort leaves them;
    so each run of equal fingerprints starts with its least item.  Every
    later item of a run is compared by rows with the run's first item, and a
    run that holds distinct words is split by the words' contents.
    ``rows_of(idx)`` returns the rows and lengths of the items ``idx`` and is
    called on at most ``step`` items at a time.  Returns the least item with
    the same word at every position of ``order``.
    """
    s = fp[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = s[1:] != s[:-1]
    run = np.cumsum(head) - 1
    first = order[head][run]
    later = np.flatnonzero(~head)
    clash = np.zeros(len(order), dtype=bool)
    for i in range(0, len(later), step):
        at = later[i : i + step]
        clash[at] = ~_rows_equal(*rows_of(order[at]), *rows_of(first[at]))
    if clash.any():
        members = np.flatnonzero(np.isin(run, run[clash]))
        labels: dict[bytes, int] = {}  # equal words share their run, so one dict serves all
        for i in range(0, len(members), step):
            at = members[i : i + step]
            rows, lens = rows_of(order[at])
            for j, item, row, n in zip(at.tolist(), order[at].tolist(), rows, lens.tolist()):
                first[j] = labels.setdefault(row[:n].tobytes(), item)
    return first


def _stable_argsort(h: np.ndarray) -> np.ndarray:
    """``np.argsort(h, kind="stable")``: numpy's faster unstable sort,
    after which each run of equal hashes is put in increasing order of item,
    by one sort of the runs' items alone."""
    n = len(h)
    order = np.argsort(h)
    s = h[order]
    later = np.zeros(n, dtype=bool)  # equal to the hash before it
    later[1:] = s[1:] == s[:-1]
    if later.any():
        tied = later.copy()
        tied[:-1] |= later[1:]
        at = np.flatnonzero(tied)
        run = np.cumsum(~later)[at]  # the run of each tied position, increasing
        order[at] = np.sort(run * n + order[at]) % n
    return order


def _prefix_lengths(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Length of the longest common prefix of each row of ``a`` and the row of
    ``b`` at the same position, rows of one width."""
    differ = a != b
    return np.where(differ.any(axis=1), differ.argmax(axis=1), a.shape[1])


def _first_ranks(first: np.ndarray, n: int) -> np.ndarray:
    """Rank of each of the items ``first`` among the distinct ones, in
    increasing order of item, out of ``n`` items: a mark and a cumulative sum
    over positions, so the distinct words are numbered by first occurrence."""
    mark = np.zeros(n, dtype=bool)
    mark[first] = True
    return (np.cumsum(mark) - 1)[first]


class CayleyWindow:
    """A finite, integer-indexed set of points of a Cayley space.

    This is the one place that decides how points are represented as
    integers, for the norm estimator, the orbit decomposition and the W_j
    check alike.  A reduced word is a row of int64 syllable codes
    ``exponent * rank + factor`` (never 0), zero-padded to the store width,
    which always keeps at least one zero column.  Points get consecutive ids
    in the order they join.  ``symbols`` are the group elements the window
    is acted on by, addressed by their position.  The window starts as the
    identity alone, with id 0, closed under the symbols up to depth
    ``max_depth`` and ``cap`` points on demand: :meth:`targets` and
    :meth:`lookup` grow it only as far as they need, :meth:`close` until it
    is full; or :meth:`holding` fills it with given words.  The symbols are
    closed under inversion: ``inverse[u]`` is the position of the inverse of
    symbol ``u``, so no symbol is inverted here.

    Identity is exact.  A word's fingerprint is its polynomial hash
    (:func:`_hash`); the stored points with a query's hash are its
    candidates, and one counts only when its row equals the query's.  Every
    point keeps its hash and the window keeps the
    prefix hashes of its symbols, so :meth:`_compose` forms the hash of an
    image s x without building its row.  :meth:`close` builds the rows of
    every image, since most of them join the window; :meth:`targets` and
    :meth:`images` build rows only for the images whose fingerprint matches
    a stored point or an earlier image.

    Every lookup and every insert is one :meth:`_intern` call, which sorts
    its hashes once: the lookup, the grouping of new words by first
    occurrence, their ids and the merge into the sorted index all read that
    one order.  :meth:`close` costs a fixed amount per block of images, so
    it keeps the blocks few.

    :meth:`_compose` finds a cancellation column by column for its first
    ``_LOOP_COLUMNS`` syllables; longer ones are read off a table of the
    symbols' inverses sorted as byte keys, built the first time one occurs
    (:meth:`_common_prefix`).
    """

    def __init__(
        self,
        presentation: FreeProductPresentation,
        symbols: Sequence[GroupElement],
        inverse: Sequence[int],
        max_depth: int = 0,
        cap: int = 1,
    ):
        self.presentation = presentation
        self._rank = presentation.rank
        self._orders = np.asarray(presentation.factor_orders, dtype=np.int64)
        self._sym, self._sym_len = self.encode(presentation, symbols)
        self.inverse = np.asarray(inverse, dtype=np.int64)
        self._sym_inv = self._sym[self.inverse]
        self._max_depth, self._cap = max_depth, cap
        # images are at most min(max_depth, cap) + 1 multiplications from e
        self._check_reach((min(max_depth, cap) + 1) * self._max_exponent(self._sym))
        self._sorted_inverses = None  # built by _common_prefix on first need
        self._sym_prefix = _prefix_hashes(self._sym)
        self._inv_prefix = _prefix_hashes(self._sym_inv)
        self._pow = _powers(self._sym.shape[1])
        self._pow_inv = _powers(self._sym.shape[1], _B_INV)
        self._rows, self._len = self.encode(presentation, [presentation.identity()])
        self._width = 1  # columns in use: the longest stored word and a zero
        self._hx = _hash(self._rows)
        self._depth = np.zeros(1, dtype=np.int64)
        self.size = 1
        self._index_fp = self._hx.copy()
        self._index_id = np.zeros(1, dtype=np.int64)
        self._expanded = 0  # points whose symbol targets growth has stored
        self._targets = np.empty((0, len(self._sym)), dtype=np.int32)

    # -- encoding --------------------------------------------------------

    @staticmethod
    def encode(
        presentation: FreeProductPresentation, points: Sequence[GroupElement]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows of syllable codes and lengths of the given group elements, as
        a window stores them; the inverse of :meth:`decode`."""
        R = presentation.rank
        sizes: list[int] = []
        codes: list[int] = []
        for x in points:
            if x.presentation is not presentation and x.presentation != presentation:
                raise PresentationMismatchError("point of a different presentation")
            sizes.append(len(x.syllables))
            codes += [e * R + f for f, e in x.syllables]
        if codes and max(max(codes), -min(codes)) > _INT64_MAX:
            raise OverflowError(_OVERFLOW)
        lens = np.array(sizes, dtype=np.int64)
        rows = np.zeros((len(sizes), int(lens.max(initial=0)) + 1), dtype=np.int64)
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        rows[np.repeat(np.arange(len(sizes)), lens), np.arange(len(codes)) - starts] = codes
        return rows, lens

    def _words(self, ids) -> np.ndarray:
        """Stored rows ``ids``, cut to the columns in use."""
        return self._rows[ids, : self._width]

    @property
    def depth(self) -> np.ndarray:
        """Breadth-first depth of every point."""
        return self._depth[: self.size]

    def codes(self, ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the rows of syllable codes of the points with the given
        ids, cut to the longest of their words, and the words' lengths."""
        ids = np.asarray(ids, dtype=np.int64)
        lens = self._len[ids]
        return self._rows[ids, : int(lens.max(initial=0))], lens

    @staticmethod
    def decode(
        presentation: FreeProductPresentation, rows: np.ndarray, lens: np.ndarray
    ) -> list[GroupElement]:
        """The group elements whose words are the given rows of syllable codes
        and lengths, as a window stores them; the one decoder of points."""
        R = presentation.rank
        return [
            GroupElement(presentation, tuple((c % R, c // R) for c in row[:n]))
            for row, n in zip(rows.tolist(), lens.tolist())
        ]

    @classmethod
    def holding(
        cls,
        presentation: FreeProductPresentation,
        symbols: Sequence[GroupElement],
        inverse: Sequence[int],
        rows: np.ndarray,
        lens: np.ndarray,
    ) -> tuple["CayleyWindow", np.ndarray]:
        """A full window acted on by ``symbols`` that holds the given words,
        and the id of each word.

        The identity keeps id 0 and the other words join in first-occurrence
        order.  Nothing is expanded, so :meth:`targets` resolves the symbol
        targets of every point on demand.  Each image merges one symbol
        exponent into one word exponent; codes that could leave int64 that
        way raise OverflowError.
        """
        window = cls(presentation, symbols, inverse)
        ids = window._intern(_hash(rows), lambda idx: (rows[idx], lens[idx]), len(lens))
        window._check_reach(window._max_exponent(window._sym) + window._max_exponent(rows))
        return window, ids

    def lookup(self, points: Sequence[Point]) -> np.ndarray:
        """The id of each point, or -1 where it is not in the window once
        full; the window grows a level at a time until every point is found
        or it is full."""
        ids = np.full(len(points), -1, dtype=np.int64)
        mine = np.flatnonzero([x.presentation == self.presentation for x in points])
        rows, lens = self.encode(self.presentation, [points[i] for i in mine.tolist()])
        while mine.size:
            ids[mine] = self._intern(_hash(rows), lambda idx: (rows[idx], lens[idx]))
            miss = ids[mine] < 0
            if not miss.any() or self._full():
                break
            mine, rows, lens = mine[miss], rows[miss], lens[miss]
            self.close(self._expanded + 1)
        return ids

    # -- identity --------------------------------------------------------

    def _intern(self, h: np.ndarray, rows_of, room: int = 0, depth: int = 0) -> np.ndarray:
        """Ids of the words with hashes ``h``, or -1 where they are not
        stored; with ``room``, absent ones join in first-occurrence order
        while it lasts, at ``depth``.

        ``rows_of(idx)`` returns the rows and lengths of the words ``idx``,
        which may repeat; the lookup asks it for words whose hash is stored, a
        block of :meth:`_pair_step` comparisons at a time.  The hashes are
        sorted once (stably with room, :func:`_stable_argsort`), which keeps
        the searches cache-friendly, and the rest reads that one order: each
        word is compared with the stored words of its hash, a run bounded by a
        search to each side (stored words are distinct, so at most one
        matches); the misses are grouped by their words (:func:`_group`),
        numbered by first occurrence (:func:`_first_ranks`) and merged into
        the index at the ends of their hashes' runs.
        """
        order = _stable_argsort(h) if room > 0 else np.argsort(h)
        needles = h[order]
        index = self._index_fp
        lo = np.searchsorted(index, needles)
        end = lo.copy()
        hit = index[np.minimum(lo, len(index) - 1)] == needles
        end[hit] = np.searchsorted(index, needles[hit], side="right")
        runs = end - lo
        query = np.repeat(order, runs)
        at = np.arange(len(query)) + np.repeat(lo - (np.cumsum(runs) - runs), runs)
        ids = np.full(len(order), -1, dtype=np.int64)
        step = self._pair_step()
        for i in range(0, len(query), step):
            q, cand = query[i : i + step], self._index_id[at[i : i + step]]
            match = _rows_equal(*rows_of(q), self._words(cand), self._len[cand])
            ids[q[match]] = cand[match]
        if room <= 0:
            return ids
        del needles, lo, hit, runs, query, at  # free the search's arrays before the inserts
        missed = np.flatnonzero(ids[order] < 0)
        miss = order[missed]  # still sorted, and stable within equal hashes
        if miss.size:
            first = _group(h, miss, rows_of, len(miss))
            rank = _first_ranks(first, len(h))
            ids[miss] = np.where(rank < room, self.size + rank, -1)
            keep = (first == miss) & (rank < room)  # each new word's first item, by hash
            items = np.empty(np.count_nonzero(keep), dtype=np.int64)
            items[rank[keep]] = miss[keep]  # the same items, in id order
            fresh, at = self.size + rank[keep], end[missed[keep]]
            self._append(*rows_of(items), h[items], depth, self.size + room)
            self._index_fp = _insert(self._index_fp, at, h[miss[keep]])
            self._index_id = _insert(self._index_id, at, fresh)
        return ids

    def _append(self, rows: np.ndarray, lens: np.ndarray, h: np.ndarray, depth: int, limit: int) -> None:
        """Store new points with their hashes ``h`` at ``depth``; the store never
        reserves room past ``limit`` points.  Its width grows by at least a
        ``_WIDTH_GROWTH`` share, so a window whose longest word grows at every
        level is copied a logarithmic number of times."""
        n, k = self.size, len(lens)
        used = self._width
        self._width = max(used, int(lens.max()) + 1)
        capacity, width = self._rows.shape
        if n + k > capacity:
            capacity = max(n + k, min(2 * capacity, limit))
            self._len, self._hx, self._depth = (
                np.concatenate([a, np.zeros(capacity - len(a), a.dtype)])
                for a in (self._len, self._hx, self._depth)
            )
        if self._width > width:
            width = max(self._width, width + int(width * _WIDTH_GROWTH))
        if (capacity, width) != self._rows.shape:
            grown = np.zeros((capacity, width), dtype=np.int64)
            grown[:n, :used] = self._rows[:n, :used]
            self._rows = grown
        w = min(self._width, rows.shape[1])
        self._rows[n : n + k, :w] = rows[:, :w]
        self._len[n : n + k] = lens
        self._hx[n : n + k] = h
        self._depth[n : n + k] = depth
        self.size = n + k

    # -- the action ------------------------------------------------------

    def _code(self, f: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Codes of the syllables of factors ``f`` and exponents ``e``, each
        exponent brought to its factor's canonical range."""
        order = self._orders[f]
        e = np.where(order > 0, e % np.maximum(order, 1), e)
        return e * self._rank + f

    def _merged(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Codes of the syllables that merge codes ``a`` and ``b`` of one factor."""
        R = self._rank
        return self._code(a % R, a // R + b // R)

    def inverse_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows and lengths of the inverses of all points, in id order
        (:meth:`_inverted`)."""
        return self._inverted(self._rows[: self.size], self._len[: self.size])

    def _inverted(self, rows: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows and lengths of the inverses of the words in ``rows``, of
        lengths ``lens``: each word is reversed and each exponent negated into
        its factor's range.  The rows are built a block at a time, so no
        transient array exceeds a block's number of elements."""
        R = self._rank
        out = np.zeros((len(lens), int(lens.max(initial=0)) + 1), dtype=np.int64)
        col = np.arange(out.shape[1] - 1)
        step = max(1, _BLOCK_ELEMENTS // out.shape[1])
        for i in range(0, len(lens), step):
            src = lens[i : i + step, None] - 1 - col  # reversed; negative past the word
            c = np.take_along_axis(rows[i : i + step], np.maximum(src, 0), axis=1)
            out[i : i + step, :-1] = np.where(src >= 0, self._code(c % R, -(c // R)), 0)
        return out, lens.copy()

    def _check_reach(self, reach: int) -> None:
        """Raise OverflowError unless syllable exponents up to ``reach`` in
        absolute value have int64 codes."""
        if (reach + 1) * self._rank > _INT64_MAX:
            raise OverflowError(_OVERFLOW)

    def _max_exponent(self, rows: np.ndarray) -> int:
        """The largest absolute syllable exponent in rows of codes."""
        return int(np.abs(rows // self._rank).max(initial=0))

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
        same = np.zeros((B, u.shape[1], c + 1), dtype=bool)  # a last False column ends every run
        np.equal(X[:, None, :c], self._sym_inv[u][..., :c], out=same[..., :c])
        k = np.minimum(same.argmin(axis=-1), m)  # the leading matches
        a = self._sym[u, np.maximum(m - 1 - k, 0)]
        row = np.arange(B)[:, None]
        b = X[row, k]
        R = self._rank
        merge = (k < m) & (k < n[:, None]) & (a % R == b % R)
        p = m - k - merge  # syllables kept from the symbol, before the merged one
        lens = p + n[:, None] - k
        col = np.arange(int(lens.max()) + 1)
        # M zero columns before each word, so that no shift reads before its row
        padded = np.zeros((B, M + W), dtype=np.int64)
        padded[:, M:] = X
        start = row * (M + W) + M  # flat index of each word's first syllable
        src = col + (start - (p - k))[..., None]
        np.minimum(src, (start + W - 1)[..., None], out=src)  # past the word: its zero column
        out = padded.reshape(-1)[src]
        P = int(p.max(initial=0))  # columns that keep syllables of a symbol
        np.copyto(out[..., :P], self._sym[u[..., None], col[:P]], where=col[:P] < p[..., None])
        i, j = np.nonzero(merge)
        if i.size:
            out[i, j, p[i, j]] = self._merged(a[i, j], b[i, j])
        return out, lens

    def _pair_rows(self, ids: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows and lengths of symbol ``u[i]`` applied to point ``ids[i]``."""
        rows, lens = self._act(self._words(ids), self._len[ids], u[:, None])
        return rows[:, 0], lens[:, 0]

    def _pair_step(self, width: int | None = None) -> int:
        """(point, symbol) pairs per block of :meth:`_pair_rows`, or of
        :meth:`_act` on rows of ``width`` columns."""
        return max(1, _BLOCK_ELEMENTS // ((self._width if width is None else width) + self._sym.shape[1]))

    def _compose(self, ids: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Hashes H(s x) of symbol s = ``u[i]`` applied to point x = ``ids[i]``,
        formed from the stored hashes without building the rows.

        s x cancels the first k syllables of x against the last k of s, and
        merges the next syllable of each into one when they share a factor
        (``merge`` is 1); it keeps the first p = m - k - merge syllables of
        s, which are followed by the merged syllable and by x past its first
        k + merge syllables.  So, with x[:j] the first j syllables of x,

            H(s x) = H(s[:p]) + merged B**p
                     + (H(x) - H(x[:k+merge])) B**-(k+merge) B**(p+merge).

        x[:k] is the first k syllables of s**-1, so every term but H(x) and
        the merged syllable comes from the symbols' prefix hashes.  k is found
        by comparing column after column the pairs that still cancel, for
        the first ``_LOOP_COLUMNS`` columns; a pair that still cancels after
        them takes k = min(m, the longest common prefix of x and s**-1) from
        the symbols' sorted table (:meth:`_common_prefix`).  So the work per
        pair is constant plus its cancelled columns up to that many.
        """
        X = self._rows
        n = self._len[ids]
        m = self._sym_len[u]
        k = np.zeros(len(ids), dtype=np.int64)
        live = np.arange(len(ids))
        col = 0
        while live.size and col < _LOOP_COLUMNS:
            live = live[(col < m[live]) & (X[ids[live], col] == self._sym_inv[u[live], col])]
            col += 1
            k[live] = col
        if live.size:
            k[live] = np.minimum(m[live], self._common_prefix(ids[live], u[live]))
        a = self._sym[u, np.maximum(m - 1 - k, 0)]
        b = X[ids, k]
        R = self._rank
        merge = (k < m) & (k < n) & (a % R == b % R)
        p = m - k - merge
        code = np.zeros(len(ids), dtype=np.int64)  # the merged syllable, 0 where none
        cut = np.zeros(len(ids), dtype=np.int64)  # the syllable of x it absorbs
        i = np.nonzero(merge)[0]
        if i.size:
            code[i] = self._merged(a[i], b[i])
            cut[i] = b[i]
        head = self._sym_prefix[u, p] + code.view(np.uint64) * self._pow[p]
        drop = self._inv_prefix[u, k] + cut.view(np.uint64) * self._pow[k]
        shift = self._pow_inv[k + merge] * self._pow[p + merge]
        return head + (self._hx[ids] - drop) * shift

    def _common_prefix(self, ids: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Length of the longest common prefix of the row of point ``ids[i]``
        and that of the inverse of symbol ``u[i]``, over the symbols' width.

        The inverses' rows are sorted once per window, as fixed-width byte
        keys: in a lexicographic order the common prefix of two rows is the
        least common prefix of neighbours between them, read off a sparse
        table of range minima.  Each distinct point is placed in that order
        by one binary search, and compared with its two neighbours there;
        each pair then costs O(1).
        """
        U, M = self._sym.shape
        keys_of = lambda rows: rows.view(f"S{8 * M}").ravel()  # noqa: E731
        if self._sorted_inverses is None:
            order = np.argsort(keys_of(self._sym_inv))
            rows = self._sym_inv[order]
            rank = np.empty(U, dtype=np.int64)
            rank[order] = np.arange(U)
            # entry [j, i] is the least of the neighbours' prefixes i .. i + 2**j - 1
            lcp = np.full((U.bit_length(), U), M, dtype=np.int64)
            lcp[0, :-1] = _prefix_lengths(rows[:-1], rows[1:])
            for j in range(1, len(lcp)):
                half = 1 << (j - 1)
                lcp[j, :-half] = np.minimum(lcp[j - 1, :-half], lcp[j - 1, half:])
            self._sorted_inverses = rows, keys_of(rows), rank, lcp
        rows, keys, rank, lcp = self._sorted_inverses
        points, run = np.unique(ids, return_inverse=True)
        x = np.zeros((len(points), M), dtype=np.int64)
        w = min(M, self._rows.shape[1])
        x[:, :w] = self._rows[points, :w]
        at = np.searchsorted(keys, keys_of(x))  # rows[at - 1] < x <= rows[at]
        left = _prefix_lengths(x, rows[np.maximum(at - 1, 0)])
        right = _prefix_lengths(x, rows[np.minimum(at, U - 1)])
        at, r = at[run], rank[u]
        after = r >= at
        # neighbours' prefixes from x's place to the inverse's: [lo, hi), none when empty
        lo = np.where(after, at, r)
        hi = np.where(after, r, at - 1)
        edge = np.where(after, right[run], left[run])
        span = hi - lo
        j = np.log2(np.maximum(span, 1)).astype(np.int64)  # two ranges of 2**j cover [lo, hi)
        inner = np.minimum(lcp[j, lo], lcp[j, np.maximum(hi - (1 << j), 0)])
        return np.where(span > 0, np.minimum(edge, inner), edge)

    def _full(self) -> bool:
        """Whether no point can join: all expanded, ``cap`` held, or the next at ``max_depth``."""
        i = self._expanded
        return i == self.size or self.size >= self._cap or self._depth[i] >= self._max_depth

    def close(self, need: int | None = None) -> None:
        """Grow the window breadth first, whole levels at a time, until its
        first ``need`` points are expanded, by default all, or it is full.

        Level by level, the images of each point under every symbol are
        taken in row-major (point, symbol) order.  An image not yet in the
        window joins it, one level deeper, while its point's depth is below
        ``max_depth`` and the window holds fewer than ``cap`` points.  The
        window so stays a prefix, in ids, depths and targets, of the full
        closure, and the symbol targets of the points never expanded are
        left for :meth:`targets` to resolve once it is full (:meth:`_full`).

        Blocks of points of one level are expanded in turn, so no transient
        array exceeds a fixed number of elements, and each block is interned
        with one sort (:meth:`_intern`).
        """
        U = len(self._sym)
        start = hi = self._expanded  # growth starts at the end of a level
        need = self._cap if need is None else need
        blocks: list[np.ndarray] = []
        while self._expanded < max(need, hi) and not self._full():
            i = self._expanded
            if i == hi:
                hi = self.size
            j = min(hi, i + max(1, self._pair_step() // U))
            rows, lens = self._act(self._words(slice(i, j)), self._len[i:j], np.arange(U)[None, :])
            rows, lens = rows.reshape(-1, rows.shape[-1]), lens.reshape(-1)
            rows_of = lambda idx: (rows[idx], lens[idx])  # noqa: E731
            ids = self._intern(_hash(rows), rows_of, self._cap - self.size, self._depth[i] + 1)
            blocks.append(ids.reshape(-1, U).astype(np.int32))
            self._expanded = j
        end = self.size if self._full() else self._expanded  # unexpanded rows once full
        if len(self._targets) < end:
            unresolved = np.full((end - self._expanded, U), _UNRESOLVED, dtype=np.int32)
            self._targets = np.concatenate([self._targets[:start], *blocks, unresolved])

    def targets(self, ids: np.ndarray) -> np.ndarray:
        """Rows ``ids`` of the int32 symbol targets of the closed window.

        Entry ``[k, u]`` is the id of symbol ``u`` applied to point
        ``ids[k]``, or -1 when that image lies outside the full window.  The
        window first grows until it has expanded every point ``ids`` or is
        full (:meth:`close`).  The other rows are resolved the first time
        they are asked for and kept: the window is full, so its points and
        ids are final and each image is only looked up, giving the same ids
        as expanding the point.  The lookup composes each image's
        fingerprint and builds the rows of only the images whose
        fingerprint is stored.
        """
        if len(self._targets) < self.size:
            self.close(int(ids.max(initial=-1)) + 1)
        rows = self._targets[ids]
        todo = ids[rows[:, 0] == _UNRESOLVED]
        if todo.size:
            U = len(self._sym)
            step = max(1, _BLOCK_PAIRS // U)
            for i in range(0, len(todo), step):
                block = todo[i : i + step]
                pid, u = np.repeat(block, U), np.tile(np.arange(U), len(block))
                found = self._intern(self._compose(pid, u), lambda idx: self._pair_rows(pid[idx], u[idx]))
                self._targets[block] = found.reshape(-1, U)
            rows = self._targets[ids]
        return rows

    def images(self, u: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Exact ids of symbol ``u[k]`` applied to point ``ids[j]``, at [k, j].

        Images in the closed window have their window ids.  Equal images
        outside it share one id from ``size`` on; those are computed block
        by block and never stored, so they cost no more memory than the
        window itself.
        """
        out = self.targets(ids)[:, u].T.astype(np.int64)
        outside = out < 0
        if outside.any():
            pairs = np.broadcast_to(u[:, None], out.shape)[outside], np.broadcast_to(ids, out.shape)[outside]
            out[outside] = self.size + self.label(*pairs)
        return out

    def label(self, u: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Labels 0, 1, ... of the images of symbol ``u[i]`` applied to point
        ``ids[i]``, equal exactly when the images are equal.  Fingerprints are
        composed a block of pairs at a time; rows are built only for images
        whose fingerprint an earlier image shares."""
        fp = np.concatenate([
            self._compose(ids[i : i + _BLOCK_PAIRS], u[i : i + _BLOCK_PAIRS])
            for i in range(0, len(ids), _BLOCK_PAIRS)
        ])
        order = _stable_argsort(fp)
        first = _group(fp, order, lambda idx: self._pair_rows(ids[idx], u[idx]), self._pair_step())
        label = np.empty(len(fp), dtype=np.int64)
        label[order] = _first_ranks(first, len(fp))
        return label


@dataclass
class OrbitDecomposition:
    """Orbit labelling of a finite set of points, such as a ball.

    ``representatives[i]`` is the first listed point of the i-th orbit
    piece; ``membership`` labels every point with its piece index.  Pieces
    are orbit intersections with the set, connected through moves that stay
    inside it; :func:`orbit_labels` finds them on integer rows.
    """

    representatives: list[Point]
    membership: dict[Point, int]


def orbit_labels(
    presentation: FreeProductPresentation,
    subgroup_generators: Sequence[GroupElement],
    rows: np.ndarray,
    lens: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Orbit pieces of the generated subgroup on distinct points, given as
    rows of syllable codes and lengths (:meth:`CayleyWindow.encode`).

    The points are held in a window acted on by the generators and their
    inverses, and two points are joined when a move maps one to the other.
    The pieces are the connected components, found by propagating the least
    index over the joins, with pointer jumping.  The least index of a piece
    is its first point, so a piece's representative is the one the greedy
    scan in listing order picks.  Returns the representatives' indices in
    increasing order, and the piece of every point.
    """
    n = len(lens)
    moves: list[GroupElement] = []
    for g in subgroup_generators:
        for m in (g, g.inverse()):
            if m not in moves:
                moves.append(m)
    if not moves:  # the trivial subgroup: no symbols, so no window targets
        return np.arange(n), np.arange(n)
    window, ids = CayleyWindow.holding(
        presentation, moves, [moves.index(m.inverse()) for m in moves], rows, lens
    )
    index = np.full(window.size + 1, -1, dtype=np.int64)  # a missing target, -1, maps to -1
    index[ids] = np.arange(n)
    joins = index[window.targets(ids)]
    del window
    outside = joins < 0
    label = np.arange(n)
    while True:
        new = np.minimum(label, np.where(outside, n, label[joins]).min(axis=1))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    first = label == np.arange(n)
    return np.flatnonzero(first), (np.cumsum(first) - 1)[label]


def orbit_decompose(
    space: CayleySpace,
    subgroup_generators: Sequence[GroupElement],
    ball: Sequence[Point],
) -> OrbitDecomposition:
    """Decompose a ball into orbit pieces of the generated subgroup.

    Representatives are chosen greedily in enumeration order: the first point
    not yet claimed starts a new piece, whose membership is the closure of
    the representative under the generators and their inverses, intersected
    with the ball.  The work is :func:`orbit_labels` on the ball's codes.
    """
    if not ball:
        raise ValueError("ball must be nonempty")
    points = list(dict.fromkeys(ball))
    rows, lens = CayleyWindow.encode(space.presentation, points)
    reps, piece = orbit_labels(space.presentation, subgroup_generators, rows, lens)
    return OrbitDecomposition([points[i] for i in reps.tolist()], dict(zip(points, piece.tolist())))
