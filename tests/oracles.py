"""Independent spectral oracles used to freeze expected values.

These are deliberately dumb: assemble the matrix of the compression of T*T
to a small iterated-support set, as a scipy sparse matrix, and hand it to
scipy's Hermitian Lanczos eigensolver (ARPACK).  The only code shared with the estimator under test is the
exact word arithmetic.  Compression by a projection never increases an
operator norm, so every value returned here is a certified lower bound on
the true norm.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from actrep.groups import GroupElement


def convolve(x: dict, y: dict) -> dict:
    """Group-algebra product of two coefficient dicts."""
    out: dict[GroupElement, complex] = {}
    for g, a in x.items():
        for h, b in y.items():
            k = g * h
            out[k] = out.get(k, 0j) + a * b
    return {k: v for k, v in out.items() if v != 0}


def inner(v, w) -> complex:
    """The l2 inner product <v, w> of two state vectors, linear in v."""
    return sum(c * w.coefficients.get(x, 0j).conjugate() for x, c in v.coefficients.items())


def in_w0(x: GroupElement, factor_index: int) -> bool:
    """True iff ``x`` lies in the base piece W_0: it does not start with a
    power of the given factor (the identity does not)."""
    return not x.syllables or x.syllables[0][0] != factor_index


def star(x: dict) -> dict:
    """Adjoint coefficients: conjugate at the inverse element."""
    return {g.inverse(): complex(a).conjugate() for g, a in x.items()}


def iterated_support(coeffs: dict, seed: GroupElement, depth: int, node_cap: int = 5000):
    """Layered closure of the seed under the symbols of T and T*.

    Stops after ``depth`` complete layers, or earlier at the last layer that
    still fits under ``node_cap`` (dense eigensolves above a few thousand
    nodes are pointless as oracles).
    """
    symbols = list(coeffs) + [g.inverse() for g in coeffs]
    points: dict[GroupElement, None] = {seed: None}
    frontier = [seed]
    for _ in range(depth):
        layer: list[GroupElement] = []
        for x in frontier:
            for s in symbols:
                y = s * x
                if y not in points:
                    points[y] = None
                    layer.append(y)
        if len(points) > node_cap:
            for y in layer:
                del points[y]
            break
        frontier = layer
    return list(points)


def compression_matrix(
    coeffs: dict, seed: GroupElement, depth: int = 5, node_cap: int = 5000
) -> scipy.sparse.csr_matrix:
    """P (T*T) P on the iterated-support set, as a sparse matrix, real when
    its imaginary parts are all close to 0.

    For the left-multiplication action the matrix entry
    <delta_x, T*T delta_y> is the T*T coefficient at x y^-1.
    """
    gram = convolve(star(coeffs), coeffs)
    points = iterated_support(coeffs, seed, depth, node_cap)
    n = len(points)
    index = {x: i for i, x in enumerate(points)}
    rows, cols, values = [], [], []
    for g, c in gram.items():
        for j in range(n):
            i = index.get(g * points[j])
            if i is not None:
                rows.append(i)
                cols.append(j)
                values.append(c)
    mat = scipy.sparse.csr_matrix((np.array(values, dtype=np.complex128), (rows, cols)), shape=(n, n))
    return mat.real if np.allclose(mat.data.imag, 0.0) else mat


def top_eigenvalue(mat: scipy.sparse.csr_matrix) -> float:
    """The largest eigenvalue of a Hermitian sparse matrix of at least 3
    rows, by ARPACK from the all-ones start, so that repeated calls agree."""
    return float(scipy.sparse.linalg.eigsh(mat, k=1, which="LA", v0=np.ones(mat.shape[0]))[0][0])


def dense_compression_norm(
    coeffs: dict, seed: GroupElement, depth: int = 5, node_cap: int = 5000
) -> float:
    """Lower bound on the operator norm of sum a_g pi(g) in the self-action:
    the square root of the largest eigenvalue of :func:`compression_matrix`."""
    if not coeffs:
        return 0.0
    return math.sqrt(max(top_eigenvalue(compression_matrix(coeffs, seed, depth, node_cap)), 0.0))


def reference_window(T, space, budget):
    """The estimator's window as a dict-based breadth-first loop on group elements.

    The base point is closed under the symbols of T followed by their
    inverses, point by point and symbol by symbol, up to depth
    ``2 * max_iterations + 1`` and ``support_cap`` points.
    Returns the points in discovery order, their depths, and for every symbol
    the id of its image of each point (-1 outside the window).
    """
    seed = space.base_point
    symbols = list(T.coefficients.items())
    union: dict[GroupElement, None] = {}
    for g, _ in symbols:
        union.setdefault(g)
    for g, _ in symbols:
        union.setdefault(g.inverse())
    union_elems = list(union)

    index: dict = {seed: 0}
    order: list = [seed]
    depth: list[int] = [0]
    raw_targets: dict[GroupElement, list[int]] = {g: [] for g in union_elems}
    max_depth = 2 * budget.max_iterations + 1
    i = 0
    while i < len(order):
        x = order[i]
        dx = depth[i]
        for g in union_elems:
            y = space.apply(g, x)
            j = index.get(y, -1)
            if j < 0 and dx < max_depth and len(order) < budget.support_cap:
                j = len(order)
                index[y] = j
                order.append(y)
                depth.append(dx + 1)
            raw_targets[g].append(j)
        i += 1
    return order, depth, raw_targets


def evaluate_pair_word(word, images):
    """Substitute ``images`` = (h, g) for the abstract generators of a pair
    word, one syllable power and one product at a time."""
    acc = images[0].presentation.identity()
    for fi, e in word.syllables:
        acc = acc * (images[fi] ** e)
    return acc


def reference_ball(space, center, radius):
    """All points of ``space`` at distance <= radius from ``center``, by the
    breadth-first search on group elements: each level multiplies, point by
    point, every point of the previous level on the right by the space's
    moves, and keeps the products not seen before.  Raises
    BudgetExceededError when a point would join past ``space.ball_cap``.
    """
    from actrep.spaces import BudgetExceededError

    if radius < 0:
        raise ValueError("radius must be >= 0")
    seen: dict = {center: None}
    frontier = [center]
    for _ in range(radius):
        nxt: list = []
        for x in frontier:
            for s in space._moves:
                y = x * s
                if y not in seen:
                    if len(seen) >= space.ball_cap:
                        raise BudgetExceededError(
                            f"ball enumeration exceeded cap of {space.ball_cap} points"
                        )
                    seen[y] = None
                    nxt.append(y)
        frontier = nxt
    return list(seen)


def reference_close(window, max_depth, cap):
    """The breadth-first closure of a fresh ``CayleyWindow``, one level at a
    time and one word at a time: level by level, every point's
    images under all symbols in row-major (point, symbol) order, each image
    joining one level deeper while its point's depth is below ``max_depth``
    and fewer than ``cap`` points are held.  Images come from
    ``window._act``; words are interned in a dict keyed by their codes, so
    no hash, sort or index of the window is used, and the window is left as
    it was.

    Returns the points' codes as tuples in id order, their depths, and the
    table of every point's symbol targets (-1 outside), which a closed window
    gives once all of them are resolved.
    """
    U = len(window._sym)

    def images(words):
        # codes of every symbol applied to each word, row-major, a level at a time
        out = []
        for i in range(0, len(words), 256):
            part = words[i : i + 256]
            X = np.zeros((len(part), max(map(len, part)) + 1), dtype=np.int64)
            for r, w in enumerate(part):
                X[r, : len(w)] = w
            n = np.array([len(w) for w in part], dtype=np.int64)
            rows, lens = window._act(X, n, np.arange(U)[None, :])
            rows, lens = rows.reshape(-1, rows.shape[-1]).tolist(), lens.reshape(-1).tolist()
            out += [tuple(row[:m]) for row, m in zip(rows, lens)]
        return out

    words, depth, index = [()], [0], {(): 0}
    i = 0
    while i < len(words) and len(words) < cap and depth[i] < max_depth:
        d, level = depth[i], words[i:]
        for image in images(level):
            if image not in index and len(words) < cap:
                index[image] = len(words)
                words.append(image)
                depth.append(d + 1)
        i += len(level)
    targets = np.array([index.get(x, -1) for x in images(words)], dtype=np.int64)
    return words, depth, targets.reshape(len(words), U)


def reference_Wj_collisions(h, g, J, L):
    """The translate-family collisions that ``check_Wj_disjoint`` counts,
    by the direct loop: every translated word g^j u is evaluated into the
    acting group on its own and pushed to the base point.

    Returns (j, u, k, v, point, witness_abstract) tuples in discovery order,
    one per (j, u) whose point an earlier translate g^k v reached; their
    number is ``check_Wj_disjoint(h, g, J, L).collisions``.  The witness
    v^-1 g^(j-k) u is a nontrivial pair word whose image is the identity.
    """
    from actrep.dynamics import _abstract_pair
    from actrep.spaces import CayleySpace

    space = CayleySpace(h.presentation)
    abstract = _abstract_pair(h, g)
    words = reference_ball(CayleySpace(abstract), abstract.identity(), L)
    w0 = [w for w in words if in_w0(w, 1)]
    gbar = abstract.generator(1)
    seen: dict = {}
    out = []
    for j in range(-J, J + 1):
        gj = gbar ** j
        for u in w0:
            point = space.apply(evaluate_pair_word(gj * u, (h, g)), space.base_point)
            prev = seen.setdefault(point, (j, u))
            if prev[0] != j:
                k, v = prev
                out.append((j, u, k, v, point, v.inverse() * (gbar ** (j - k)) * u))
    return out


def reference_trivial_words(h, g, L, R):
    """The pair words of length <= L that ``pingpong_certificate`` reports
    as acting trivially, by the direct scan: a nontrivial word counts when
    its image moves no point of the radius-R ball around the base point.
    """
    from actrep.dynamics import _WORD_CAP, _abstract_pair
    from actrep.spaces import CayleySpace

    space = CayleySpace(h.presentation)
    abstract = _abstract_pair(h, g)
    aspace = CayleySpace(abstract, ball_cap=_WORD_CAP)
    ball = reference_ball(space, space.base_point, R)

    trivial = []
    for wbar in reference_ball(aspace, abstract.identity(), L):
        if wbar.is_identity:
            continue
        w = evaluate_pair_word(wbar, (h, g))
        if not any(space.apply(w, x) != x for x in ball):
            trivial.append(wbar)
    return trivial


def reference_orbit_decompose(space, subgroup_generators, ball):
    """The orbit pieces of ``orbit_decompose`` by the greedy breadth-first
    scan on group elements: the first point not yet claimed starts a piece,
    which claims its closure under the moves inside the ball.
    """
    from actrep.spaces import OrbitDecomposition

    moves = []
    for g in subgroup_generators:
        for m in (g, g.inverse()):
            if m not in moves:
                moves.append(m)
    in_ball = set(ball)
    membership = {}
    representatives = []
    for p in ball:
        if p in membership:
            continue
        label = len(representatives)
        representatives.append(p)
        membership[p] = label
        frontier = [p]
        while frontier:
            nxt = []
            for x in frontier:
                for s in moves:
                    y = space.apply(s, x)
                    if y in in_ball and y not in membership:
                        membership[y] = label
                        nxt.append(y)
            frontier = nxt
    return OrbitDecomposition(representatives, membership)


def products(a, values):
    """``a * values`` for a Python complex ``a``, each product formed from
    real parts as Python's complex multiplication forms it, whichever SIMD
    kernels numpy dispatches to."""
    out = np.empty(len(values), dtype=np.complex128)
    out.real = a.real * values.real - a.imag * values.imag
    out.imag = a.real * values.imag + a.imag * values.real
    return out


def scatter_matvec(targets, terms, v):
    """The estimator's matvec as a scatter-add over the whole window.

    ``terms`` are (coefficient, symbol column) pairs; every window point is
    moved by every term, in order, and images outside the window dropped.
    """
    n = len(targets)
    maps = {}
    for u in range(targets.shape[1]):
        src = np.nonzero(targets[:, u] >= 0)[0]
        maps[u] = (src, targets[src, u])
    w = np.zeros(n, dtype=np.complex128)
    for a, u in terms:
        src, dst = maps[u]
        w[dst] += products(a, v[src])  # left translation is injective per symbol
    return w


def dense_norm(v):
    """Euclidean norm of a whole-window vector, summed by numpy over the
    interleaved real and imaginary parts of its nonzero entries in id order."""
    x = v[v != 0].view(np.float64)
    return np.sqrt(np.sum(x * x))


def dense_matvec(window, terms, v):
    """The estimator's matvec on a whole-window vector: the support of v is
    moved term by term, in order, and images outside the window dropped."""
    nz = np.flatnonzero(v)
    images, values = window.targets(nz), v[nz]
    w = np.zeros(len(v), dtype=np.complex128)
    for a, u in terms:
        dst = images[:, u]
        inside = dst >= 0
        w[dst[inside]] += products(a, values[inside])  # left translation is injective per symbol
    return w


def dense_norm_lower_bound(T, space, budget):
    """``norm_lower_bound`` with the iterate stored as a whole-window vector.

    The same window, grown to its limits first, start, iteration, pruning
    and re-certification, with every vector as long as the window: norms run over the nonzero entries,
    and the prune zeroes the nonzero entries whose squared modulus is below
    the threshold's square, renormalising only when it zeroed one.  The
    witness is re-certified by ``op_apply``.  Returns a NormEstimate.
    """
    from actrep.operators import NormEstimate, StateVector, _window, op_apply
    from actrep.spaces import CayleyWindow

    _, window = _window(T, space, budget)
    window.close()  # to its limits, so that every vector has its final length
    coefficients = list(T.coefficients.values())
    fwd = [(a, k) for k, a in enumerate(coefficients)]
    bwd = [(a.conjugate(), int(window.inverse[u])) for a, u in fwd]

    v = np.zeros(window.size, dtype=np.complex128)
    if budget.start_vector is not None:
        start = list(budget.start_vector.coefficients.items())
        for j, (_, c) in zip(window.lookup([x for x, _ in start]).tolist(), start):
            if j >= 0:
                v[j] = c
        v *= 2.0 ** min(-math.frexp(np.abs(v.view(np.float64)).max())[1], 1023)
        v /= dense_norm(v)
    else:
        v[0] = 1.0

    ray = None
    residual = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, budget.max_iterations + 1):
        w = dense_matvec(window, fwd, v)
        prev, ray = ray, float(dense_norm(w) / dense_norm(v))
        if prev is not None:
            residual = abs(ray - prev)
        if residual < budget.residual_target:
            converged = True
            break
        u = dense_matvec(window, bwd, w)
        nu = dense_norm(u)
        if nu == 0.0:
            break
        v = u / nu
        if budget.prune_threshold > 0:
            small = (v != 0) & (v.real**2 + v.imag**2 < budget.prune_threshold**2)
            if small.any():
                v[small] = 0.0
                nv = dense_norm(v)
                if nv == 0.0:
                    break
                v /= nv

    nz = np.nonzero(v)[0]
    rows, lens = window.codes(nz)
    vec = StateVector(space, dict(zip(CayleyWindow.decode(space.presentation, rows, lens), v[nz].tolist())))
    wn = vec.norm()
    lower = op_apply(T, vec).norm() / wn if wn > 0 else 0.0
    return NormEstimate(
        lower_bound=lower,
        iterations=iterations,
        residual=residual,
        support_size=len(nz),
        radius_hint=int(window.depth[nz].max(initial=0)),
        converged=converged,
        _words=(space, rows, lens, v[nz]),
    )
