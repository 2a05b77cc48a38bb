"""Power-iteration eigensolvers: the leading eigenvector of a nonnegative
operator and the top eigenpairs of a symmetric PSD matrix.
"""

from __future__ import annotations

import numpy as np

from . import ConvergenceError


def leading_eigenvector(
    matvec,
    n: int,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> tuple[np.ndarray, float]:
    """Nonnegative leading eigenvector (sum 1) of a nonnegative operator.

    Power iteration on the shifted operator x -> A x + x, which keeps
    convergence monotone on bipartite graphs. ``matvec`` applies A.
    Returns (vector, eigenvalue); raises ConvergenceError with the residual
    when the eigen-residual stays above ``tol``.
    """
    x = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(max_iter):
        ax = matvec(x)
        lam = float(x @ ax) / float(x @ x)
        residual = float(np.abs(ax - lam * x).sum())
        if residual < tol:
            x = x / x.sum()
            return x, lam
        y = ax + x
        x = y / y.sum()
    raise ConvergenceError("power iteration did not converge", residual)


def top_eigenpairs_sym(m: np.ndarray, k: int, tol: float = 1e-12, max_iter: int = 100_000):
    """Largest-k eigenpairs of a symmetric PSD matrix by power iteration + deflation.

    Eigenvector signs follow the convention that the largest-magnitude entry
    is positive. Returns (values, vectors) with vectors in columns.
    """
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    values = []
    vectors = []
    work = m.copy()
    for _ in range(k):
        # deterministic generic start direction
        x = 1.0 / np.arange(1.0, n + 1.0)
        x /= np.linalg.norm(x)
        lam = 0.0
        for _ in range(max_iter):
            y = work @ x
            ny = np.linalg.norm(y)
            if ny == 0.0:  # operator annihilates the start vector
                break
            y /= ny
            lam = float(y @ (work @ y))
            if np.linalg.norm(work @ y - lam * y) < tol * max(1.0, abs(lam)):
                x = y
                break
            x = y
        pivot = int(np.argmax(np.abs(x)))
        if x[pivot] < 0:
            x = -x
        values.append(lam)
        vectors.append(x)
        work = work - lam * np.outer(x, x)
    return np.array(values), np.column_stack(vectors)
