"""Integral operators of stretched graphons, polynomial and spectral filters.

A step kernel applied to a step signal is integrated exactly (no quadrature
error enters for step-times-step), and the output is constant on the
operator's own cells, so everything downstream stays in closed form.  The
rank-one exponential family keeps its closed-form action ``T f = g <g, f>``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import chebyshev as cheb

from . import core, spectral
from .core import (
    GraphonSpec,
    RankOneExp,
    StepGraphon,
    StepSignal,
    stretch,
)
from .errors import StepRequiredError, ZeroGraphonError

__all__ = [
    "GraphonOperator",
    "PolynomialFilter",
    "SpectralFilter",
    "apply",
    "apply_polynomial",
    "apply_spectral",
    "chebyshev_polynomial_apply",
    "operator_norm_bound",
]


def operator_norm_bound(w: GraphonSpec) -> float:
    """The bound ``||W||_2 / ||W||_1`` on the stretched operator norm.

    Dominates the Hilbert-Schmidt norm ``||W||_2 / sqrt(||W||_1)`` of the
    stretched kernel exactly when ``||W||_1 <= 1``, which covers every
    graph-embedding (canonical and normalized graphons have mass at most 1).
    Unchanged by zero-padding of the support since both norms are.
    """
    if w.l1_norm <= 0:
        raise ZeroGraphonError("operator norm bound needs a nonzero graphon")
    return w.l2_norm / w.l1_norm


def _cell_integrals(f: StepSignal, edges: np.ndarray) -> np.ndarray:
    """Exact integrals of ``f`` over the intervals defined by ``edges``.

    Works for arbitrary grids: each target interval is intersected with the
    signal's cells through the cumulative integral, so no resampling error
    occurs.
    """
    cum = np.concatenate([[0.0], np.cumsum(f.values) * f.cell_width])

    def F(x):
        x = np.clip(x, 0.0, f.t)
        i = core._cell_index(f, x)
        return cum[i] + (x - i * f.cell_width) * f.values[i]

    return F(edges[1:]) - F(edges[:-1])


class GraphonOperator:
    """The integral operator of the stretched form of a graphon."""

    def __init__(self, kernel: StepGraphon | RankOneExp, bound: float):
        self.kernel = kernel
        self.norm_bound = bound

    @classmethod
    def from_spec(cls, w: GraphonSpec) -> "GraphonOperator":
        """Build the operator of ``W^s``; ``W`` is stretched internally.

        A ``StepGraphon`` (a ``ConstantBox`` among them) gives its stretched
        step kernel exactly; ``RankOneExp`` keeps its closed-form rank-one
        action (use :func:`graphonsp.core.as_step` first when a step kernel
        is needed, e.g. for spectral filtering).
        """
        bound = operator_norm_bound(w)
        ws, _ = stretch(w)
        if not isinstance(ws, (StepGraphon, RankOneExp)):
            raise StepRequiredError(f"cannot build an operator from {type(w).__name__}")
        return cls(ws, bound)

    @property
    def is_step(self) -> bool:
        return isinstance(self.kernel, StepGraphon)

    def matrix(self) -> sp.csr_matrix:
        """Symmetric CSR matrix acting on cell-value vectors of the operator grid."""
        if not self.is_step:
            raise StepRequiredError("rank-one kernels have no finite matrix")
        return self.kernel.values * self.kernel.cell_width

    def __call__(self, f: StepSignal) -> StepSignal:
        return apply(self, f)


def apply(op: GraphonOperator, f: StepSignal) -> StepSignal:
    """``(T f)(x) = int W(x, y) f(y) dy``, exact for step kernels.

    The output lives on the operator grid (the kernel is constant in ``x``
    on each of its cells, so this is lossless).  For the rank-one kernel
    the output carries cell averages of ``g <g, f>`` on the signal's grid.
    """
    k = op.kernel
    if isinstance(k, RankOneExp):
        edges = f.edges()
        # <g, f> and cell averages of g, both in closed form
        seg = (k.c / k.lam) * (np.exp(-k.lam * edges[:-1]) - np.exp(-k.lam * edges[1:]))
        inner = float(seg @ f.values)
        avg_g = seg / np.diff(edges)
        return StepSignal(inner * avg_g, f.t)
    fint = _cell_integrals(f, core._edges(k))
    return StepSignal(k.values @ fint, k.t)


def _combine(a: StepSignal, ca: float, b: StepSignal, cb: float) -> StepSignal:
    """``ca * a + cb * b`` on the coarsest exact common uniform grid.

    The grids must share a uniform refinement (always true when one signal
    was produced by applying the operator to the other); the shorter support
    is zero-padded.
    """
    T = max(a.t, b.t)
    k = core._refinement(T, a, b)
    if k is None:
        raise StepRequiredError("signal grids share no uniform refinement")
    return StepSignal(ca * core._on_uniform(a, k, T) + cb * core._on_uniform(b, k, T), T)


def apply_polynomial(p: "PolynomialFilter", op: GraphonOperator,
                     f: StepSignal) -> StepSignal:
    """``P(T) f = c_0 f + c_1 T f + ... + c_d T^d f``, with ``d`` kernel
    applications (powers of ``T`` are never formed)."""
    coeffs = p.coefficients
    if p.degree == 0:
        return StepSignal(coeffs[0] * f.values, f.t)
    term = f
    acc = None
    for i in range(1, len(coeffs)):
        term = apply(op, term)
        acc = coeffs[i] * term.values if acc is None else acc + coeffs[i] * term.values
    tail = StepSignal(acc, term.t)
    if coeffs[0] == 0.0:
        return tail
    return _combine(tail, 1.0, f, coeffs[0])


@dataclass(frozen=True)
class PolynomialFilter:
    """``P(x) = c_0 + c_1 x + ... + c_d x^d``."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           tuple(float(c) for c in self.coefficients))
        if len(self.coefficients) == 0:
            raise ValueError("need at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def eval(self, x):
        acc = np.zeros_like(np.asarray(x, dtype=np.float64))
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc if acc.ndim else float(acc)


class SpectralFilter:
    """Scalar filter held as a Chebyshev series on ``[a, b]``, with
    ``h(0) = 0`` enforced by subtracting the series value at zero."""

    def __init__(self, coefficients, interval, tolerance: float = 1e-8):
        self.coefficients = np.asarray(coefficients, dtype=np.float64)
        a, b = float(interval[0]), float(interval[1])
        if not a < b:
            raise ValueError("interval must be nondegenerate")
        self.interval = (a, b)
        self.tolerance = float(tolerance)
        self._series = cheb.Chebyshev(self.coefficients, domain=self.interval)
        self.offset = float(self._series(0.0))  # subtracted so that h(0) = 0

    @classmethod
    def fit(cls, func, interval, degree: int, tolerance: float = 1e-8,
            probes: int = 1000) -> "SpectralFilter":
        """Interpolate ``func`` on the interval and verify the fit.

        Raises when the Chebyshev reconstruction misses ``func`` by more
        than ``tolerance`` at any of the probe points.
        """
        series = cheb.Chebyshev.interpolate(func, degree, domain=list(interval))
        xs = np.linspace(interval[0], interval[1], probes)
        err = float(np.abs(series(xs) - func(xs)).max())
        if err > tolerance:
            raise ValueError(
                f"Chebyshev fit of degree {degree} misses by {err:.3e} "
                f"(> {tolerance:.1e}); raise the degree")
        return cls(series.coef, interval, tolerance)

    def eval(self, x):
        out = self._series(np.asarray(x, dtype=np.float64)) - self.offset
        return out if out.ndim else float(out)

    def max_abs_on(self, lo: float, hi: float, probes: int = 1000) -> float:
        if hi < lo:
            return 0.0
        xs = np.linspace(lo, hi, probes)
        return float(np.abs(self.eval(xs)).max())


def apply_spectral(h: SpectralFilter, op: GraphonOperator, f: StepSignal,
                   k_eigs: int, tol: float = 1e-10,
                   seed: int = 0) -> tuple[StepSignal, float]:
    """``h(T) f`` through the eigendecomposition of the step kernel.

    ``k_eigs`` pairs are taken from each end of the spectrum (all of them
    when ``2 k_eigs >= k``).  Returns the filtered signal together with the
    tail-truncation bound ``max |h| over the discarded range * ||f||_2``,
    which is zero for a full decomposition.

    Because the kernel is constant on cells, components of ``f`` with zero
    cell means are annihilated by ``T``; with ``h(0) = 0`` projecting ``f``
    onto the operator grid first is therefore exact, not an approximation.
    """
    if not op.is_step:
        raise StepRequiredError("spectral filtering needs a step kernel; "
                                "restrict or discretize the graphon first")
    k = op.kernel
    if k_eigs < 1 or k_eigs > k.k:
        raise ValueError("k_eigs must lie in [1, grid size]")
    K = op.matrix()
    fbar = _cell_integrals(f, core._edges(k)) / k.cell_width   # cell means on the operator grid

    kn = min(k_eigs, k.k - k_eigs)   # the two ends never share an eigenvalue
    rep = spectral.eigensolve(K, k_pos=k_eigs, k_neg=kn, tol=tol, vectors=True, seed=seed)
    out = np.zeros(k.k)
    for vals, vecs in ((rep.positive, rep.vectors_pos), (rep.negative, rep.vectors_neg)):
        out += vecs @ (h.eval(vals) * (vecs.T @ fbar))
    tail = 0.0
    if k_eigs + kn < k.k:   # the discarded eigenvalues lie between the two ends
        tail = h.max_abs_on(float(rep.negative[-1]), float(rep.positive[-1])) * f.l2_norm
    return StepSignal(out, k.t), float(tail)


def chebyshev_polynomial_apply(h: SpectralFilter, op: GraphonOperator,
                               f: StepSignal) -> StepSignal:
    """``h(T) f`` through the Chebyshev recurrence in operator arithmetic.

    Evaluates the same series as :func:`apply_spectral` without any
    eigendecomposition: ``u(T) = (2 T - (a + b) I) / (b - a)`` and
    ``p_{j+1} = 2 u(T) p_j - p_{j-1}``.  The series offset at zero is
    subtracted at the end, matching ``h(0) = 0``.
    """
    if not op.is_step:
        raise StepRequiredError("operator Chebyshev evaluation needs a step kernel")
    k = op.kernel
    a, b = h.interval
    fbar = _cell_integrals(f, core._edges(k)) / k.cell_width
    K = op.matrix()

    def u(vec):
        return (2.0 * (K @ vec) - (a + b) * vec) / (b - a)

    c = h.coefficients
    p_prev = fbar
    out = c[0] * fbar if len(c) else np.zeros_like(fbar)
    if len(c) > 1:
        p_cur = u(fbar)
        out = out + c[1] * p_cur
        for j in range(2, len(c)):
            p_next = 2.0 * u(p_cur) - p_prev
            p_prev, p_cur = p_cur, p_next
            out = out + c[j] * p_cur
    out = out - h.offset * fbar
    return StepSignal(out, k.t)
