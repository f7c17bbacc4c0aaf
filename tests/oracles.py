"""Independent spectral oracles used to freeze expected values.

These are deliberately dumb: assemble the dense matrix of the compression of
T*T to a small iterated-support set and hand it to numpy's Hermitian
eigensolver.  The only code shared with the estimator under test is the
exact word arithmetic.  Compression by a projection never increases an
operator norm, so every value returned here is a certified lower bound on
the true norm.
"""

from __future__ import annotations

import math

import numpy as np

from actrep.groups import GroupElement


def convolve(x: dict, y: dict) -> dict:
    """Group-algebra product of two coefficient dicts."""
    out: dict[GroupElement, complex] = {}
    for g, a in x.items():
        for h, b in y.items():
            k = g * h
            out[k] = out.get(k, 0j) + a * b
    return {k: v for k, v in out.items() if v != 0}


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


def dense_compression_norm(
    coeffs: dict, seed: GroupElement, depth: int = 5, node_cap: int = 5000
) -> float:
    """Lower bound on the operator norm of sum a_g pi(g) in the self-action.

    Builds P (T*T) P on the iterated-support set and returns the square root
    of its largest eigenvalue.  For the left-multiplication action the matrix
    entry <delta_x, T*T delta_y> is the T*T coefficient at x y^-1.
    """
    if not coeffs:
        return 0.0
    gram = convolve(star(coeffs), coeffs)
    points = iterated_support(coeffs, seed, depth, node_cap)
    n = len(points)
    index = {x: i for i, x in enumerate(points)}
    mat = np.zeros((n, n), dtype=np.complex128)
    for g, c in gram.items():
        for j in range(n):
            i = index.get(g * points[j])
            if i is not None:
                mat[i, j] = c
    if np.allclose(mat.imag, 0.0):
        mat = mat.real
    top = float(np.linalg.eigvalsh(mat)[-1])
    return math.sqrt(max(top, 0.0))


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


def reference_Wj_collisions(h, g, J, L):
    """The translate-family collisions of ``check_Wj_disjoint``, by the
    direct loop: every translated word g^j u is evaluated into the acting
    group on its own and pushed to the base point.

    Returns (j, u, k, v, point, witness_abstract) tuples in discovery order.
    """
    from actrep.dynamics import _abstract_pair
    from actrep.groups import first_syllable_in
    from actrep.spaces import CayleySpace

    space = CayleySpace(h.presentation)
    abstract = _abstract_pair(h, g)
    words = CayleySpace(abstract).enumerate_ball(abstract.identity(), L)
    w0 = [w for w in words if not first_syllable_in(w, 1)]
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
    ball = space.enumerate_ball(space.base_point, R)

    trivial = []
    for wbar in aspace.enumerate_ball(abstract.identity(), L):
        if wbar.is_identity:
            continue
        w = evaluate_pair_word(wbar, (h, g))
        if not any(space.apply(w, x) != x for x in ball):
            trivial.append(wbar)
    return trivial


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
        w[dst] += a * v[src]  # left translation is injective per symbol
    return w
