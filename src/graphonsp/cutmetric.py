"""Cut norm, cut distance over cell relabelings, and their stretched variants.

For step graphons the supremum over measurable rectangles reduces to a
maximum over unions of grid cells: the bilinear objective is linear in each
selector, so it attains its maximum at a vertex of the unit box.  Exact mode
enumerates row subsets (choosing the optimal column subset per row subset);
heuristic mode runs alternating maximization from random restarts and never
exceeds the exact value.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import core
from .core import (
    CelebrityLimit,
    ConstantBox,
    GraphonSpec,
    RankOneExp,
    SignedStepGraphon,
    StepGraphon,
    stretch,
)
from .errors import ResolutionTooLargeError, SupportMismatchError
from .rng import substream

__all__ = [
    "CutResult",
    "AlignmentResult",
    "cut_norm",
    "cut_distance_steps",
    "stretched_cut_distance",
]

EXACT_CUT_LIMIT = 22       # 2^k * k^2 stays near 1e9 elementary ops
EXACT_ALIGN_LIMIT = 8      # k! permutations


@dataclass(frozen=True)
class CutResult:
    """Cut-norm value with the rectangle (cell subsets) attaining it."""

    value: float
    witness_rows: tuple
    witness_cols: tuple
    exact: bool

    def recompute(self, w) -> float:
        """Re-evaluate the bilinear objective at the stored witnesses."""
        area = (w.t / w.k) ** 2
        return _evaluate(w.values[np.ix_(self.witness_rows, self.witness_cols)], area)


@dataclass(frozen=True)
class AlignmentResult:
    """Cut distance under the best relabeling found.

    ``permutation`` maps new index -> old index of the first argument; it is
    ``None`` when the comparison grid does not support cell permutations
    (nonuniform exact grids), in which case the identity alignment was used.
    """

    distance: float
    permutation: tuple | None
    exact: bool
    cut: CutResult


# ---------------------------------------------------------------------------
# bilinear maximization kernels (work on plain matrices, unit cell area)
# ---------------------------------------------------------------------------

def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """All 2^m subset sums of the given rows, in bit order."""
    m, k = rows.shape
    out = np.zeros((1, k))
    for i in range(m):
        out = np.vstack([out, out + rows[i]])
    return out


def _bits(idx: int, m: int) -> list:
    return [i for i in range(m) if (idx >> i) & 1]


def _bilinear_max_exact(M: np.ndarray):
    """Maximize |sum_{i in S, j in T} M[i, j]| over all subset pairs.

    For each row subset the optimal column subset is the set of positive
    (or negative) column sums, so only row subsets are enumerated.  Rows are
    split in halves so subset sums are formed incrementally.
    """
    k = M.shape[0]
    ka = k // 2
    SA = _subset_sums(M[:ka])
    SB = _subset_sums(M[ka:])
    best = -1.0
    best_pos = True
    best_a = best_b = 0
    for b in range(SB.shape[0]):
        vals = SA + SB[b]
        pos = np.where(vals > 0.0, vals, 0.0).sum(axis=1)
        neg = np.where(vals < 0.0, vals, 0.0).sum(axis=1)
        ia = int(np.argmax(pos))
        ib = int(np.argmin(neg))
        if pos[ia] > best:
            best, best_pos, best_a, best_b = float(pos[ia]), True, ia, b
        if -neg[ib] > best:
            best, best_pos, best_a, best_b = float(-neg[ib]), False, ib, b
    rows = _bits(best_a, ka) + [ka + i for i in _bits(best_b, k - ka)]
    col_sums = M[rows].sum(axis=0) if rows else np.zeros(k)
    if best_pos:
        cols = [j for j in range(k) if col_sums[j] > 0.0]
    else:
        cols = [j for j in range(k) if col_sums[j] < 0.0]
    return rows, cols


def _bilinear_max_heuristic(matmat, k: int, restarts: int, rng):
    """Alternating row/column maximization from random starts.

    ``matmat(X)`` returns ``M @ X`` for a symmetric ``k x k`` kernel ``M``
    and a ``k x c`` block ``X``.  Every restart runs once per sign; all
    ``2 * restarts`` runs advance together as the columns of one block
    (restart ``r`` in columns ``2r`` and ``2r + 1``), and a column freezes
    once its selection stops changing.  Cells with exactly zero marginal
    contribution are excluded, which makes the iteration deterministic
    given the seed.  The first column of largest value wins.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    T = np.repeat(rng.random((restarts, k)) < 0.5, 2, axis=0).T.copy()
    sign = np.tile([1.0, -1.0], restarts)
    S = np.zeros(T.shape, dtype=bool)
    MS = np.zeros(T.shape)
    active = np.arange(2 * restarts)
    for _ in range(100):
        if not active.size:
            break
        sg = sign[active]
        S[:, active] = sg * matmat(T[:, active].astype(np.float64)) > 0.0
        MS[:, active] = matmat(S[:, active].astype(np.float64))
        T_new = sg * MS[:, active] > 0.0
        moved = (T_new != T[:, active]).any(axis=0)
        T[:, active] = T_new
        active = active[moved]
    # s' M t == t' M s for symmetric M, and M s is at hand for every column
    best = int(np.argmax(np.abs((MS * T).sum(axis=0))))
    rows = [int(i) for i in np.nonzero(S[:, best])[0]]
    cols = [int(j) for j in np.nonzero(T[:, best])[0]]
    return rows, cols


def _evaluate(sub: np.ndarray, area: float) -> float:
    """Canonical witness evaluation: selected entries summed in sorted order.

    ``sub`` is the kernel restricted to the witness rows and columns.  On a
    symmetric kernel the pairs (S, T) and (T, S) select the same multiset of
    entries; sorting before summation makes the float result identical for
    both, so independent maximizers agree bit-for-bit.
    """
    if not sub.size:
        return 0.0
    return abs(area * float(np.sort(sub, axis=None).sum()))


def cut_norm(w, mode: str = "exact", restarts: int = 64, seed: int = 0) -> CutResult:
    """Cut norm of a (signed) step graphon.

    ``mode='exact'`` enumerates row subsets (``k <= 22``); ``mode='heuristic'``
    runs ``restarts`` alternating maximizations.  The returned value is always
    re-evaluated at the witness sets, so it is recomputable exactly.
    """
    M = w.values
    area = (w.t / w.k) ** 2
    if mode == "exact":
        if w.k > EXACT_CUT_LIMIT:
            raise ResolutionTooLargeError(
                f"exact cut norm is limited to k <= {EXACT_CUT_LIMIT}, got {w.k}")
        rows, cols = _bilinear_max_exact(M)
        exact = True
    elif mode == "heuristic":
        rng = substream(seed, 0xC07)
        rows, cols = _bilinear_max_heuristic(M.__matmul__, w.k, restarts, rng)
        exact = False
    else:
        raise ValueError(f"unknown mode {mode!r}")
    value = _evaluate(M[np.ix_(rows, cols)], area)
    return CutResult(value, tuple(rows), tuple(cols), exact)


class _UnionKernel:
    """Difference of two step kernels on their union grid, never formed.

    With union-cell widths ``w`` and, per input, the value matrix ``V`` (CSR)
    and the index map ``idx`` from union cells to the input's cells (``-1``
    outside its support), the kernel is ``M = Qa' Va Qa - Qb' Vb Qb``, where
    ``Q`` is the ``k x U`` selection matrix weighted by ``w``.  A product
    ``M @ X`` costs ``O(nnz + U)`` per column.
    """

    def __init__(self, widths, Va, idx_a, Vb, idx_b):
        self.widths = widths
        self.sides = []
        for V, idx in ((Va, idx_a), (Vb, idx_b)):
            inside = np.nonzero(idx >= 0)[0]
            Q = sp.csr_matrix((widths[inside], (idx[inside], inside)),
                              shape=(V.shape[0], idx.size))
            self.sides.append((V, idx, Q))

    def matmat(self, X: np.ndarray) -> np.ndarray:
        # a trailing zero row makes index -1 (outside the support) read zero
        pad = np.zeros((1, X.shape[1]))
        za, zb = (np.vstack([V @ (Q @ X), pad])[idx] for V, idx, Q in self.sides)
        return self.widths[:, None] * (za - zb)

    def block(self, rows, cols) -> np.ndarray:
        """Dense ``M[rows][:, cols]``, bit-identical to the materialized kernel."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        va, vb = (core._lookup(V, idx[rows], idx[cols]) for V, idx, _ in self.sides)
        return (va - vb) * np.outer(self.widths[rows], self.widths[cols])


def _union_cut(kernel: _UnionKernel, exact: bool, restarts: int, seed: int) -> CutResult:
    """Cut norm of a union-grid kernel: exact for tiny grids, else heuristic."""
    U = kernel.widths.size
    if exact:
        rows, cols = _bilinear_max_exact(kernel.block(np.arange(U), np.arange(U)))
    else:
        rng = substream(seed, 0xC07)
        rows, cols = _bilinear_max_heuristic(kernel.matmat, U, restarts, rng)
    value = _evaluate(kernel.block(rows, cols), 1.0)
    return CutResult(value, tuple(rows), tuple(cols), exact)


# ---------------------------------------------------------------------------
# cut distance between equal-support step graphons
# ---------------------------------------------------------------------------

def _permute(values: np.ndarray, perm) -> np.ndarray:
    p = np.asarray(perm)
    return values[np.ix_(p, p)]


def _degree_sort_perm(values: np.ndarray) -> np.ndarray:
    # stable sort on (-rowsum, index): deterministic tie handling
    return np.argsort(-values.sum(axis=1), kind="stable")


def cut_distance_steps(w1, w2, mode: str = "exact", iters: int = 2,
                       restarts: int = 64, seed: int = 0) -> AlignmentResult:
    """Cut distance between step graphons, minimized over cell relabelings.

    Modes: ``exact`` enumerates all ``k!`` permutations (``k <= 8``);
    ``degree_sort`` aligns cells by descending row sums; ``local_search``
    improves degree_sort with pairwise swaps for ``iters`` passes.  Every
    mode also evaluates the identity alignment, so the result never exceeds
    the unaligned cut norm.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    if w1.t != w2.t:
        raise SupportMismatchError(
            f"supports differ: {w1.t!r} vs {w2.t!r}; refine or pad first")
    k = core._refinement(w1.t, w1, w2)
    if k is None:
        raise ResolutionTooLargeError(
            f"common refinement of {w1.k} and {w2.k} cells is too large")
    va, vb = core._on_uniform(w1, k, w1.t), core._on_uniform(w2, k, w1.t)
    bound = w1.value_bound + w2.value_bound

    def diff(perm):
        return SignedStepGraphon(_permute(va, perm) - vb, w1.t,
                                 bound if bound > 0 else 1.0)

    if mode == "exact":
        if k > EXACT_ALIGN_LIMIT:
            raise ResolutionTooLargeError(
                f"exact alignment is limited to k <= {EXACT_ALIGN_LIMIT}, got {k}")
        best = None
        for perm in itertools.permutations(range(k)):
            cut = cut_norm(diff(perm), mode="exact")
            if best is None or cut.value < best[0].value:
                best = (cut, perm)
        cut, perm = best
        return AlignmentResult(cut.value, tuple(perm), True, cut)

    if mode not in ("degree_sort", "local_search"):
        raise ValueError(f"unknown mode {mode!r}")

    cut_mode = "exact" if k <= EXACT_CUT_LIMIT else "heuristic"

    def score(perm):
        return cut_norm(diff(perm), mode=cut_mode, restarts=restarts, seed=seed)

    identity = np.arange(k)
    p1 = _degree_sort_perm(va)
    p2 = _degree_sort_perm(vb)
    # align sorted orders: new frame is w2's; w1 cell order chased through w2's
    rank2 = np.empty(k, dtype=np.int64)
    rank2[p2] = np.arange(k)
    sorted_perm = p1[rank2]

    candidates = [(score(identity), identity), (score(sorted_perm), sorted_perm)]
    best_cut, best_perm = min(candidates, key=lambda cp: cp[0].value)

    if mode == "local_search":
        # Rounding bound m, with u = eps/2 and A = sum|va| + sum|vb|, which
        # bounds the |entries| of every trial kernel M.  A value is _evaluate
        # at a witness: a sum of <= k^2 terms, in any order, times area, so it
        # is within area*A*(k^2 + 1)*u of the witness's real value.  The
        # enumerator's column sums and their positive (negative) parts are
        # within 2k*u*A of the real ones, so its argmax row set loses <= 4k*u*A
        # of the unscaled cut norm, and the columns read off it another k*u*A.
        # The heuristic witness is real, so its value is below the cut norm:
        # trial >= lb - area*A*(2k^2 + 5k + 2)*u, and for k >= 2 the margin
        # m = 8k^2*u*area*A covers this and the higher-order terms.  A prune
        # (lb > current - m) thus implies trial > current - 2m, never an
        # accepted swap, and gains below 2m are rounding noise, not progress.
        area = (w1.t / k) ** 2
        m = 4 * k**2 * np.finfo(float).eps * area * (np.abs(va).sum() + np.abs(vb).sum())
        perm = best_perm.copy()
        current = best_cut
        pruned = evaluated = accepted = 0
        for passes in range(1, iters + 1):
            improved = False
            for i in range(k - 1):
                for j in range(i + 1, k):
                    perm[i], perm[j] = perm[j], perm[i]
                    d = diff(perm)
                    if cut_mode == "exact" and cut_norm(
                            d, mode="heuristic", restarts=restarts,
                            seed=seed).value > current.value - m:
                        pruned += 1
                    else:
                        evaluated += 1
                        trial = cut_norm(d, mode=cut_mode, restarts=restarts, seed=seed)
                        if trial.value < current.value - 2 * m:
                            current = trial
                            improved = True
                            accepted += 1
                            continue
                    perm[i], perm[j] = perm[j], perm[i]
            if not improved:
                break
        logging.getLogger(__name__).debug(
            "local search on %d cells: %d trials, %d pruned, %d %s evaluations, "
            "%d swaps accepted", k, passes * k * (k - 1) // 2, pruned, evaluated,
            cut_mode, accepted)
        best_cut, best_perm = current, perm

    return AlignmentResult(best_cut.value, tuple(int(i) for i in best_perm),
                           best_cut.exact, best_cut)


# ---------------------------------------------------------------------------
# stretched cut distance for general graphon specs
# ---------------------------------------------------------------------------

def stretched_cut_distance(w1: GraphonSpec, w2: GraphonSpec, mode: str = "degree_sort",
                           resolution: int | None = None, iters: int = 2,
                           restarts: int = 64, seed: int = 0) -> AlignmentResult:
    """Cut distance between the stretched versions of two graphons.

    Both inputs are stretched to unit 1-norm.  When their grids share a
    uniform refinement of ``[0, max(t1, t2)]`` (see ``core._refinement``),
    both are lifted onto it, zero beyond the shorter support, and compared
    with :func:`cut_distance_steps`.  Otherwise the difference is applied
    exactly, as an implicit operator, on the nonuniform union grid; there
    only the identity alignment and (outside exact mode) both inputs sorted
    by degree are evaluated, an upper bound on the relabeled distance, and
    the result is flagged ``exact=False``.
    """
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    s1, _ = stretch(_to_spec(w1))
    s2, _ = stretch(_to_spec(w2))
    a = core.as_step(s1, resolution=resolution)
    b = core.as_step(s2, resolution=resolution)

    T = max(a.t, b.t)
    k = core._refinement(T, a, b)
    if k is not None:
        pa, pb = (StepGraphon(core._on_uniform(w, k, T), T, w.value_bound)
                  for w in (a, b))
        try:
            return cut_distance_steps(pa, pb, mode=mode, iters=iters,
                                      restarts=restarts, seed=seed)
        except ResolutionTooLargeError:
            pass  # exact alignment needs k <= 8: fall through to the union grid

    # each input's own cells are equal-measure, so sorting them by row sum
    # is a valid relabeling even though the union grid is nonuniform
    widths, ia, ib = core.union_grid(a, b)
    Va, Vb = sp.csr_matrix(a.values), sp.csr_matrix(b.values)
    exact = mode == "exact" and widths.size <= EXACT_CUT_LIMIT
    candidates = [_union_cut(_UnionKernel(widths, Va, ia, Vb, ib),
                             exact, restarts, seed)]
    if mode != "exact":
        pa, pb = _degree_sort_perm(a.values), _degree_sort_perm(b.values)
        candidates.append(_union_cut(
            _UnionKernel(widths, Va, _relabel(ia, pa), Vb, _relabel(ib, pb)),
            exact, restarts, seed))
    cut = min(candidates, key=lambda c: c.value)
    return AlignmentResult(cut.value, None, False, cut)


def _relabel(idx: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Index map of the relabeled input whose cell ``i`` is old cell ``perm[i]``."""
    return np.where(idx >= 0, perm[idx], -1)


def _to_spec(w) -> GraphonSpec:
    if isinstance(w, (StepGraphon, ConstantBox, RankOneExp, CelebrityLimit)):
        return w
    raise TypeError(f"not a graphon spec: {type(w).__name__}")
