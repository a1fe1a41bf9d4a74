"""Diffusion-signal synthesis and polynomial-filter regression on subgraphs.

Two scalings of the shift operator are compared throughout: ``classical``
fits a polynomial in ``A / m`` (``m`` the vertex count) and ``generalized``
one in ``A / sqrt(2 |E|)``.  Predictions agree between scalings (the design
columns span the same Krylov space); the coefficient trajectories differ,
and their tail behavior is the convergence diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import Graph, _nested_subgraphs
from .errors import EmptyGraphError, GraphonError, RankDeficientError
from .operators import PolynomialFilter
from .rng import substream

__all__ = [
    "DiffusionSpec",
    "DiffusionInstance",
    "FilterFitResult",
    "CoefficientTrajectory",
    "ConvergenceRatios",
    "synthesize_diffusion",
    "apply_adjacency_polynomial",
    "fit_filter",
    "coefficient_trajectory",
    "convergence_ratios",
    "signed_sqrt",
]

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class DiffusionSpec:
    """Degree, optional fixed coefficients, and the top-degree fraction."""

    degree: int
    coefficients: tuple | None = None
    top_degree_fraction: float = 0.10

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if not (0.0 < self.top_degree_fraction <= 1.0):
            raise ValueError("top_degree_fraction must lie in (0, 1]")
        if self.coefficients is not None:
            c = tuple(float(x) for x in self.coefficients)
            if len(c) != self.degree + 1:
                raise ValueError("need degree + 1 coefficients")
            object.__setattr__(self, "coefficients", c)


@dataclass(frozen=True, eq=False)
class DiffusionInstance:
    f: np.ndarray
    g_out: np.ndarray
    coefficients: tuple
    support: np.ndarray   # vertices carrying the random input signal


@dataclass(frozen=True)
class FilterFitResult:
    filter: PolynomialFilter
    scaling: str
    scale: float          # the divisor applied to A
    condition: float
    residual_norm: float

    def predict(self, graph: Graph, f: np.ndarray) -> np.ndarray:
        A = graph.adjacency()
        out = np.zeros_like(f, dtype=np.float64)
        term = f.astype(np.float64)
        for i, c in enumerate(self.filter.coefficients):
            if i > 0:
                term = (A @ term) / self.scale
            out = out + c * term
        return out


@dataclass
class CoefficientTrajectory:
    ks: list = field(default_factory=list)
    sizes: list = field(default_factory=list)
    edge_counts: list = field(default_factory=list)
    classical: list = field(default_factory=list)     # leading coefficients
    generalized: list = field(default_factory=list)
    errors: list = field(default_factory=list)        # (k, message)


@dataclass(frozen=True, eq=False)
class ConvergenceRatios:
    ratios: np.ndarray | None
    exact_convergence: bool
    tail_mean: float
    denominator: float


def _top_degree_support(g: Graph, fraction: float) -> np.ndarray:
    count = max(1, int(fraction * g.n))
    d = g.degrees()
    # ties at the degree cutoff break toward the lower vertex index
    order = np.lexsort((np.arange(g.n), -d))
    return np.sort(order[:count])


def apply_adjacency_polynomial(g: Graph, coefficients, f: np.ndarray) -> np.ndarray:
    """``sum_i c_i A^i f`` via iterated sparse matrix-vector products."""
    A = g.adjacency()
    f = np.asarray(f, dtype=np.float64)
    out = coefficients[0] * f
    term = f
    for c in coefficients[1:]:
        term = A @ term
        out = out + c * term
    return out


def synthesize_diffusion(g: Graph, spec: DiffusionSpec, seed: int = 0) -> DiffusionInstance:
    """Random input on the top-degree nodes, diffused by a random polynomial.

    ``f`` is i.i.d. uniform ``[0, 1]`` on the top ``top_degree_fraction`` of
    nodes by degree (zero elsewhere); ``g_out = sum c_i A^i f`` with uniform
    random coefficients unless ``spec.coefficients`` pins them.
    """
    if g.n == 0:
        raise EmptyGraphError("cannot synthesize a diffusion on the empty graph")
    support = _top_degree_support(g, spec.top_degree_fraction)
    rng = substream(seed, 0xD1F)
    f = np.zeros(g.n)
    f[support] = rng.random(support.size)
    if spec.coefficients is not None:
        coeffs = spec.coefficients
    else:
        coeffs = tuple(rng.random(spec.degree + 1))
    g_out = apply_adjacency_polynomial(g, coeffs, f)
    return DiffusionInstance(f, g_out, coeffs, support)


def _shift_scale(g: Graph, scaling: str) -> float:
    if scaling == "classical":
        return float(g.n)
    if scaling == "generalized":
        if g.edge_count == 0:
            raise RankDeficientError("generalized scaling needs at least one edge")
        return math.sqrt(2.0 * g.edge_count)
    raise ValueError(f"unknown scaling {scaling!r}")


def fit_filter(f: np.ndarray, g_out: np.ndarray, graph: Graph, d: int,
               scaling: str = "generalized") -> FilterFitResult:
    """Least-squares polynomial filter in the scaled shift ``S``.

    The design ``[f, S f, ..., S^d f]`` is column-norm equilibrated and
    solved by QR; a condition number above ``CONDITION_LIMIT`` (after
    equilibration) raises, recommending a lower degree.
    """
    return _fit(f, g_out, graph, d, [scaling])[0]


def _fit(f, g_out, graph: Graph, d: int, scalings) -> list:
    """:func:`fit_filter` in each of ``scalings``, from one adjacency of
    ``graph``; the first failing fit raises."""
    f = np.asarray(f, dtype=np.float64)
    g_out = np.asarray(g_out, dtype=np.float64)
    if d + 1 > graph.n:
        raise RankDeficientError("degree + 1 exceeds the number of nodes")
    A = graph.adjacency()
    fits = []
    for scaling in scalings:
        scale = _shift_scale(graph, scaling)
        cols = [f]
        for _ in range(d):
            cols.append((A @ cols[-1]) / scale)
        X = np.column_stack(cols)
        norms = np.linalg.norm(X, axis=0)
        if np.any(norms == 0.0):
            raise RankDeficientError(
                "design has a zero column (signal vanishes); lower the degree "
                "or check the input signal")
        Xe = X / norms
        Q, R = np.linalg.qr(Xe)
        condition = float(np.linalg.cond(R))
        if not np.isfinite(condition) or condition > CONDITION_LIMIT:
            raise RankDeficientError(
                f"design condition {condition:.3e} exceeds {CONDITION_LIMIT:.1e}; "
                f"use a lower degree than {d}")
        coef = scipy.linalg.solve_triangular(R, Q.T @ g_out)
        coef = coef / norms
        resid = float(np.linalg.norm(X @ coef - g_out))
        fits.append(FilterFitResult(PolynomialFilter(tuple(coef)), scaling, scale,
                                    condition, resid))
    return fits


def coefficient_trajectory(g: Graph, sizes, spec: DiffusionSpec,
                           d: int | None = None, seed: int = 0) -> CoefficientTrajectory:
    """Leading filter coefficients along nested random induced subgraphs.

    Nodes are randomly ordered once; ``G_{m_k}`` is induced by the first
    ``m_k`` of them, signals are inherited by vertex identity, and both
    scalings are fitted.  The last size must be ``g.n`` so the final entry
    is the ground truth.  Per-``k`` failures are recorded as gaps rather
    than aborting the sweep.
    """
    sizes = [int(m) for m in sizes]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise GraphonError("subgraph sizes must be strictly increasing")
    if sizes[-1] != g.n:
        raise GraphonError("the last size must equal the full graph order")
    if d is None:
        d = spec.degree
    inst = synthesize_diffusion(g, spec, seed=seed)
    order = substream(seed, 0x0D7).permutation(g.n)
    traj = CoefficientTrajectory()
    subgraphs = _nested_subgraphs(g, order, sizes)
    for k_idx, m_k in enumerate(sizes):
        # next(), not zip(): zip's reused result tuples keep two earlier
        # subgraphs alive while the next one is built
        sub, kept = next(subgraphs)
        f_k = inst.f[kept]
        y_k = inst.g_out[kept]
        try:
            fit_c, fit_g = _fit(f_k, y_k, sub, d, ["classical", "generalized"])
        except (RankDeficientError, GraphonError) as exc:
            traj.errors.append((k_idx, str(exc)))
            continue
        traj.ks.append(k_idx)
        traj.sizes.append(m_k)
        traj.edge_counts.append(sub.edge_count)
        traj.classical.append(fit_c.filter.coefficients[-1])
        traj.generalized.append(fit_g.filter.coefficients[-1])
    return traj


def signed_sqrt(values) -> np.ndarray:
    """``sign(c) sqrt(|c|)``: presentation scale for coefficient plots.

    Lets trajectories of very different magnitude share one axis; this is a
    display choice only, never used in fits or ratios.
    """
    c = np.asarray(values, dtype=np.float64)
    return np.sign(c) * np.sqrt(np.abs(c))


def convergence_ratios(values, tail_from: int) -> ConvergenceRatios:
    """Relative step sizes ``|c_{k+1} - c_k| / |c_last - mean(tail)|``.

    A denominator below ``1e-15`` means the trajectory already sits at its
    tail mean; that is flagged as exact convergence instead of dividing.
    """
    c = np.asarray(values, dtype=np.float64)
    if c.ndim != 1 or not 0 <= tail_from <= c.size - 2:
        raise GraphonError(f"tail_from must lie in [0, {c.size - 2}], got {tail_from}")
    tail_mean = float(np.mean(c[tail_from:]))
    denom = abs(float(c[-1]) - tail_mean)
    if denom < 1e-15:
        return ConvergenceRatios(None, True, tail_mean, denom)
    diffs = np.abs(np.diff(c[tail_from:]))
    return ConvergenceRatios(diffs / denom, False, tail_mean, denom)
