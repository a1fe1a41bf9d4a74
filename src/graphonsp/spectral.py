"""Symmetric eigensolver and the scaled-eigenvalue convergence diagnostics.

Eigenvalues are labeled from both ends of the spectrum: ``positive[i]`` is
the ``(i+1)``-th algebraically largest and ``negative[i]`` the ``(i+1)``-th
smallest, matching the two-sided indexing ``lambda_1 >= lambda_2 >= ... ``
and ``lambda_{-1} <= lambda_{-2} <= ...`` used throughout.

Dimensions up to ``DENSE_THRESHOLD`` go through LAPACK (a full ``eigh``);
above that ARPACK's implicitly restarted Lanczos (``scipy.sparse.linalg.eigsh``
with ``which='BE'``) extracts both spectrum ends in one call.  Either way the
residuals ``||A v - lambda v||`` are checked after the solve, and one DEBUG
record names the path, the dimension, both counts and the largest residual,
and for ARPACK the number of operator products it used.

The tolerance ``tol`` of :func:`eigensolve` is both ARPACK's stopping rule,
at ``tol / 100``, and the residual check.  Before ARPACK stopped there it
ran to machine precision; the eigenvalues of the ``eigsh`` path moved once,
in their last digits, with that change.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .core import Graph
from .errors import EigenConvergenceError, GraphonError
from .rng import substream

__all__ = [
    "EigenReport",
    "TrajectoryPoint",
    "FitReport",
    "eigensolve",
    "scaled_spectrum",
    "trajectory",
    "fit_models",
    "moving_scaled_averages",
]

DENSE_THRESHOLD = 256   # measured crossover: eigsh is faster from about n=250 up


@dataclass(frozen=True, eq=False)
class EigenReport:
    positive: np.ndarray          # descending, length k_pos
    negative: np.ndarray          # ascending, length k_neg
    residual_pos: np.ndarray
    residual_neg: np.ndarray
    vectors_pos: np.ndarray | None = None   # columns match `positive`
    vectors_neg: np.ndarray | None = None


@dataclass(frozen=True)
class TrajectoryPoint:
    n_index: int
    n_vertices: int
    n_edges: int
    eigenvalues: dict   # t -> lambda_t, t in Z \ {0}


@dataclass(frozen=True)
class FitReport:
    """Through-origin line fit ``y ~ slope * x`` (or a horizontal level)."""

    model: str
    slope: float
    mse: float
    n_points: int


def _as_matrix(obj):
    if isinstance(obj, Graph):
        return obj.adjacency()
    if sp.issparse(obj):
        return obj.tocsr()
    m = np.asarray(obj, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return m


def _check_symmetric(m) -> None:
    if sp.issparse(m):
        d = m - m.T
        if d.nnz and np.abs(d.data).max() > 1e-12:
            raise ValueError("matrix is not symmetric")
    elif not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
        raise ValueError("matrix is not symmetric")


def eigensolve(obj, k_pos: int = 1, k_neg: int = 1, tol: float = 1e-8,
               vectors: bool = False, seed: int = 0) -> EigenReport:
    """Extreme eigenpairs of a graph adjacency or symmetric kernel matrix.

    Returns the ``k_pos`` algebraically largest and ``k_neg`` smallest
    eigenvalues with residual guarantees ``||A v - lambda v|| <= tol * scale``,
    where ``scale`` is the largest returned ``|lambda|`` (at least 1).  ARPACK
    stops at ``tol / 100``, well inside that bound.
    """
    A = _as_matrix(obj)
    dim = A.shape[0]
    if k_pos < 0 or k_neg < 0 or k_pos + k_neg == 0:
        raise ValueError("need at least one eigenvalue from some end")
    if k_pos + k_neg > dim:
        raise ValueError("more eigenvalues requested than the dimension")
    if not isinstance(obj, Graph):
        _check_symmetric(A)

    log = logging.getLogger(__name__)
    products = 0
    k = 2 * max(k_pos, k_neg)   # 'BE' splits k evenly between the two ends
    dense = dim <= DENSE_THRESHOLD or k >= dim
    if dense:
        vals, vecs = scipy.linalg.eigh(A.toarray() if sp.issparse(A) else A)
    else:
        # imported here: loading ARPACK costs every command that never solves
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh
        v0 = substream(seed, 0xE16).standard_normal(dim)
        op = A
        if log.isEnabledFor(logging.DEBUG):   # count products only when logged
            def matvec(x):
                nonlocal products
                products += 1
                return A @ x
            op = LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
        try:
            # ARPACK stops once each Ritz residual is at most tol' |theta|;
            # tol' = tol / 100 stops well inside the residual check below
            vals, vecs = eigsh(op, k=k, which="BE", v0=v0, tol=tol / 100)
        except ArpackNoConvergence as exc:
            raise EigenConvergenceError(f"ARPACK eigsh did not converge: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    # descending top end, then ascending bottom end
    pick = np.r_[len(vals) - 1 - np.arange(k_pos), np.arange(k_neg)]
    vals, vecs = vals[pick], vecs[:, pick]
    res = np.linalg.norm(A @ vecs - vecs * vals, axis=0)
    thresh = tol * max(1.0, float(np.abs(vals).max()))
    worst = res.max()
    log.debug("eigensolve by %s on %d dimensions: k_pos %d, k_neg %d; largest residual "
              "%.3g against %.3g%s", "eigh" if dense else "eigsh", dim, k_pos, k_neg,
              worst, thresh, "" if dense else f"; {products} operator products")
    if worst > thresh:
        raise EigenConvergenceError(
            f"eigenpair residual {worst:.3g} exceeds {thresh:.3g}", residuals=res)
    return EigenReport(vals[:k_pos], vals[k_pos:], res[:k_pos], res[k_pos:],
                       vecs[:, :k_pos] if vectors else None,
                       vecs[:, k_pos:] if vectors else None)


def scaled_spectrum(g: Graph, t_range) -> dict:
    """Eigenvalues scaled by ``sqrt(2 |E|)``, for indices ``t`` in Z \\ {0}.

    Indices beyond the vertex count read ``0.0``, as in :func:`trajectory`.
    """
    if g.edge_count == 0:
        raise GraphonError("scaled spectrum needs at least one edge")
    scale = math.sqrt(2.0 * g.edge_count)
    return {t: lam / scale for t, lam in trajectory([g], t_range)[0].eigenvalues.items()}


def trajectory(graphs, t_set) -> list:
    """Tracked eigenvalues along a graph sequence."""
    t_set = [int(t) for t in t_set]
    if 0 in t_set:
        raise ValueError("t = 0 is not a valid eigenvalue index")
    k_pos = max([t for t in t_set if t > 0], default=0)
    k_neg = max([-t for t in t_set if t < 0], default=0)
    points = []
    for idx, g in enumerate(graphs):
        if g.n == 0:
            raise GraphonError(f"graph at step {idx} is empty")
        kp, kn = min(k_pos, g.n), min(k_neg, g.n)
        overlap = kp + kn > g.n
        if overlap:   # the two ends share eigenvalues: solve the whole spectrum
            kp, kn = g.n, 0
        try:
            rep = eigensolve(g, k_pos=kp, k_neg=kn)
        except EigenConvergenceError as exc:
            raise EigenConvergenceError(
                f"eigensolve failed at step {idx}: {exc}", exc.residuals) from exc
        neg = rep.positive[::-1] if overlap else rep.negative
        lams = {}
        for t in t_set:
            i = t - 1 if t > 0 else -t - 1
            side = rep.positive if t > 0 else neg
            lams[t] = float(side[i]) if i < len(side) else 0.0
        points.append(TrajectoryPoint(idx, g.n, g.edge_count, lams))
    return points


def _through_origin(x: np.ndarray, y: np.ndarray) -> tuple:
    sxx = float(x @ x)
    if sxx == 0.0:
        raise GraphonError("degenerate fit: all abscissae are zero")
    slope = float(x @ y) / sxx
    mse = float(np.mean((y - slope * x) ** 2))
    return slope, mse


def fit_models(traj, tail_from: int, t: int, edge_scale: str = "2E") -> dict:
    """Through-origin fits of ``lambda_t`` against three scaling hypotheses.

    ``generalized`` uses ``sqrt(2 |E|)`` (or ``sqrt(|E|)`` under
    ``edge_scale='E'``; the through-origin slope absorbs the constant, so MSE
    rankings do not change), ``classical`` uses ``|V|``, and ``graphing``
    fits a horizontal line.
    """
    if edge_scale not in ("E", "2E"):
        raise ValueError("edge_scale must be 'E' or '2E'")
    tail = list(traj[tail_from:])
    if tail_from < 0 or len(tail) < 2:
        raise GraphonError(f"tail_from must lie in [0, {len(traj) - 2}], got {tail_from}")
    y = np.array([p.eigenvalues[t] for p in tail])
    e = np.array([p.n_edges for p in tail], dtype=np.float64)
    v = np.array([p.n_vertices for p in tail], dtype=np.float64)
    xg = np.sqrt(2.0 * e) if edge_scale == "2E" else np.sqrt(e)
    out = {}
    slope, mse = _through_origin(xg, y)
    out["generalized"] = FitReport("generalized", slope, mse, len(tail))
    slope, mse = _through_origin(v, y)
    out["classical"] = FitReport("classical", slope, mse, len(tail))
    level = float(np.mean(y))
    out["graphing"] = FitReport("graphing", level, float(np.mean((y - level) ** 2)),
                                len(tail))
    return out


def moving_scaled_averages(traj, window: int = 5) -> dict:
    """Windowed means of ``lambda_t / |V|`` and ``lambda_t / sqrt(|E|)``.

    Returns ``{t: (a, b)}`` with ``a[n] = mean(lambda_t / |V|)`` and
    ``b[n] = mean(lambda_t / sqrt(|E|))`` over ``window`` consecutive steps.
    """
    traj = list(traj)
    if window < 1 or window > len(traj):
        raise GraphonError("window must fit inside the trajectory")
    if any(p.n_edges == 0 for p in traj):
        raise GraphonError("moving averages need every step to have edges")
    t_set = sorted(traj[0].eigenvalues.keys())
    out = {}
    n_out = len(traj) - window + 1
    for t in t_set:
        a = np.empty(n_out)
        b = np.empty(n_out)
        for i in range(n_out):
            chunk = traj[i: i + window]
            a[i] = np.mean([p.eigenvalues[t] / p.n_vertices for p in chunk])
            b[i] = np.mean([p.eigenvalues[t] / math.sqrt(p.n_edges) for p in chunk])
        out[t] = (a, b)
    return out
