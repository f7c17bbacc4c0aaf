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

    The seed (``budget.seed_point`` or the base point) is closed under the
    symbols of T followed by their inverses, point by point and symbol by
    symbol, up to depth ``2 * max_iterations + 1`` and ``support_cap`` points.
    Returns the points in discovery order, their depths, and for every symbol
    the id of its image of each point (-1 outside the window).
    """
    seed = budget.seed_point if budget.seed_point is not None else space.base_point
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
