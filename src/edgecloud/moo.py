"""Minimum-norm point in the convex hull of objective gradients.

The solver returns simplex weights ``alpha`` such that
``combined = sum_i alpha_i g_i`` has minimal squared norm over the simplex,
for p in {2, 3} objectives (MGDA; Desideri 2012, Sener & Koltun 2018).
Beyond a few passes over the gradients (Gram matrices and the combination)
it works on p x p matrices only. Stepping along ``-combined`` never
increases any objective to first order: ``<combined, g_j> >= 0`` for
every j.
"""

from __future__ import annotations

import numpy as np

from .nncore import UsageError


def _min_norm_p3(grads: np.ndarray) -> np.ndarray:
    """Exact minimum-norm simplex weights of three gradients.

    The minimum lies on one of the simplex's 7 faces: a vertex, an edge
    interior or the triangle interior. Each face's own minimizer comes from
    Gram-matrix entries; the feasible one of least norm wins. The interior
    point is solved in reduced coordinates ``a = e3 + s(e1-e3) + t(e2-e3)``,
    whose Hessian is the Gram matrix of the differences ``D = g[:2] - g3``.
    That stays well conditioned when the gradients themselves are rank
    deficient (a zero inside a planar hull), where ``G^-1 1`` is not.
    """
    # row by row: BLAS takes a slow path for ``grads @ grads.T`` with 3 rows
    gram = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            gram[i, j] = gram[j, i] = grads[i] @ grads[j]
    candidates = list(np.eye(3))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        denom = gram[i, i] - 2.0 * gram[i, j] + gram[j, j]
        if denom > 0.0:
            a = (gram[j, j] - gram[i, j]) / denom
            if 0.0 < a < 1.0:
                point = np.zeros(3)
                point[i], point[j] = a, 1.0 - a
                candidates.append(point)
    d0, d1 = grads[:2] - grads[2]
    h00, h01, h11 = d0 @ d0, d0 @ d1, d1 @ d1
    b0, b1 = d0 @ grads[2], d1 @ grads[2]
    det = h00 * h11 - h01 * h01
    if det > 0.0:
        s = (h01 * b1 - h11 * b0) / det
        t = (h01 * b0 - h00 * b1) / det
        if s > 0.0 and t > 0.0 and s + t < 1.0:
            candidates.append(np.array([s, t, 1.0 - s - t]))
    points = np.array(candidates)
    norms2 = np.einsum("ij,jk,ik->i", points, gram, points)
    return points[int(np.argmin(norms2))]


def solve_min_norm(grads) -> tuple[np.ndarray, np.ndarray]:
    """Simplex weights minimizing ``||sum_i alpha_i g_i||^2`` plus the combination.

    ``grads`` holds one finite gradient per row, p in {2, 3} rows. p = 2 uses
    the closed form ``alpha_1 = clip(<g2-g1, g2> / ||g1-g2||^2, 0, 1)``; p = 3
    is solved exactly on the 3x3 Gram matrix (``_min_norm_p3``). An all-zero
    stack is already stationary and yields uniform weights and the zero
    vector.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2:
        raise UsageError(f"gradients must be a 2-D (p, d) array, got shape {grads.shape}")
    p, d = grads.shape
    if p not in (2, 3):
        raise UsageError(f"min-norm solver supports p in {{2, 3}}, got p={p}")
    if not np.isfinite(grads).all():
        raise UsageError("gradients contain non-finite entries")
    if not grads.any():
        return np.full(p, 1.0 / p), np.zeros(d)
    if p == 2:
        g1, g2 = grads
        diff = g1 - g2
        denom = float(diff @ diff)
        if denom == 0.0:
            a1 = 0.5
        else:
            a1 = float(np.clip(float((g2 - g1) @ g2) / denom, 0.0, 1.0))
        alpha = np.array([a1, 1.0 - a1])
    else:
        alpha = _min_norm_p3(grads)
    combined = alpha @ grads
    return alpha, combined
