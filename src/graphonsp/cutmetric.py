"""Cut norm, cut distance over cell relabelings, and their stretched variants.

For step graphons the supremum over measurable rectangles reduces to a
maximum over unions of grid cells: the bilinear objective is linear in each
selector, so it attains its maximum at a vertex of the unit box.  Exact mode
enumerates row subsets (choosing the optimal column subset per row subset);
heuristic mode runs alternating maximization from random restarts and never
exceeds the exact value.

Both cut distances end in one comparison routine, ``_compare``: the grid
fixes only how a candidate relabeling's difference kernel is cut by the one
engine ``_cut``, and the candidates, winner, log and result are shared.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import core
from .core import (
    ConstantBox,
    GraphonSpec,
    RankOneExp,
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
    """Cut-norm value with the rectangle (cell subsets) attaining it.

    ``capped_runs`` counts the heuristic runs still moving when the
    iteration cap stopped them and ``products`` the kernel column-products
    the heuristic used (both always 0 in exact mode).
    """

    value: float
    witness_rows: tuple
    witness_cols: tuple
    exact: bool
    capped_runs: int = field(default=0, compare=False)
    products: int = field(default=0, compare=False)

    def recompute(self, w) -> float:
        """Re-evaluate the bilinear objective at the stored witnesses."""
        area = (w.t / w.k) ** 2
        return _evaluate(core._block(w.values, self.witness_rows, self.witness_cols), area)


@dataclass(frozen=True)
class AlignmentResult:
    """Cut distance under the best relabeling found.

    ``permutation`` maps new index -> old index of the first argument's
    cells on the comparison grid, in the second's frame; it is ``None`` on
    the union of two different grids, where no permutation relates them.
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
    split in halves so subset sums are formed incrementally, and the second
    half's subsets run in blocks of about 2^16 column sums.  The first
    maximum in the order (second-half subset, positive before negative,
    first-half subset) wins.
    """
    k = M.shape[0]
    ka = k // 2
    SA = _subset_sums(M[:ka])
    SB = _subset_sums(M[ka:])
    step = max(1, 2**16 // SA.size)
    best = -1.0
    for b0 in range(0, SB.shape[0], step):
        vals = SA + SB[b0:b0 + step, None]
        cand = np.stack([np.where(vals > 0.0, vals, 0.0).sum(axis=2),
                         -np.where(vals < 0.0, vals, 0.0).sum(axis=2)], axis=1)
        i = int(np.argmax(cand))
        if cand.flat[i] > best:
            best = float(cand.flat[i])
            b, sign, best_a = np.unravel_index(i, cand.shape)
            best_b, best_pos = b0 + int(b), sign == 0
    rows = _bits(int(best_a), ka) + [ka + i for i in _bits(best_b, k - ka)]
    col_sums = M[rows].sum(axis=0) if rows else np.zeros(k)
    if best_pos:
        cols = [j for j in range(k) if col_sums[j] > 0.0]
    else:
        cols = [j for j in range(k) if col_sums[j] < 0.0]
    return rows, cols


def _bilinear_max_heuristic(matmat, k: int, restarts: int, rng):
    """Alternating row/column maximization from random starts.

    ``matmat(X)`` returns ``M @ X`` for a symmetric ``k x k`` kernel ``M``
    and a C-contiguous ``k x c`` float block ``X``, each column on its own.
    Every restart runs once per sign; all ``2 * restarts`` runs advance
    together as the columns of one block (restart ``r`` in columns ``2r``
    and ``2r + 1``, which share the first product ``M t``), and a column
    freezes once its selection stops changing: when its new rows equal its
    previous rows (``M s``, hence the columns, are then known), or else its
    new columns equal its previous columns.  Cells with exactly zero
    marginal contribution are excluded, which makes the iteration
    deterministic given the seed.  The first column of largest value wins.
    Returns the witness rows and columns, the number of columns still
    active when the 100-round cap ended the loop, and the number of kernel
    column-products used.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    t0 = (rng.random((restarts, k)) < 0.5).T
    sign = np.tile([1.0, -1.0], restarts)
    S = sign * np.repeat(matmat(t0.astype(np.float64, order="C")), 2, axis=1) > 0.0
    T = np.repeat(t0, 2, axis=1)
    MS = matmat(S.astype(np.float64))
    products = 3 * restarts
    T_new = sign * MS > 0.0
    active = np.nonzero((T_new != T).any(axis=0))[0]
    T = T_new
    for _ in range(99):
        if not active.size:
            break
        sg = sign[active]
        S_new = sg * matmat(T[:, active].astype(np.float64, order="C")) > 0.0
        products += active.size
        moved = (S_new != S[:, active]).any(axis=0)
        active, sg, S_new = active[moved], sg[moved], S_new[:, moved]
        if not active.size:
            break
        S[:, active] = S_new
        MS[:, active] = MS_new = matmat(S_new.astype(np.float64, order="C"))
        products += active.size
        T_new = sg * MS_new > 0.0
        moved = (T_new != T[:, active]).any(axis=0)
        T[:, active] = T_new
        active = active[moved]
    # s' M t == t' M s for symmetric M, and M s is at hand for every column
    best = int(np.argmax(np.abs((MS * T).sum(axis=0))))
    rows = [int(i) for i in np.nonzero(S[:, best])[0]]
    cols = [int(j) for j in np.nonzero(T[:, best])[0]]
    return rows, cols, int(active.size), products


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


def _cut(block, matmat, k: int, exact: bool, restarts: int, seed: int,
         area: float = 1.0) -> CutResult:
    """Cut norm of a symmetric ``k x k`` kernel with cells of the given area.

    ``block(rows, cols)`` returns the dense sub-kernel and ``matmat(X)`` the
    product with a ``k x c`` block.  Exact mode enumerates the full kernel;
    heuristic mode runs on ``matmat`` with the ``0xC07`` substream of
    ``seed``.  The value is re-evaluated at the witness sets.
    """
    capped = products = 0
    if exact:
        rows, cols = _bilinear_max_exact(block(np.arange(k), np.arange(k)))
    else:
        rows, cols, capped, products = _bilinear_max_heuristic(
            matmat, k, restarts, substream(seed, 0xC07))
    value = _evaluate(block(rows, cols), area)
    return CutResult(value, tuple(rows), tuple(cols), exact, capped, products)


def cut_norm(w, mode: str = "exact", restarts: int = 64, seed: int = 0) -> CutResult:
    """Cut norm of a (signed) step graphon.

    ``mode='exact'`` enumerates row subsets (``k <= 22``); ``mode='heuristic'``
    runs ``restarts`` alternating maximizations.  The returned value is always
    re-evaluated at the witness sets, so it is recomputable exactly.
    """
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and w.k > EXACT_CUT_LIMIT:
        raise ResolutionTooLargeError(
            f"exact cut norm is limited to k <= {EXACT_CUT_LIMIT}, got {w.k}")
    M = w.values
    # a CSR product sums each column on its own, so the heuristic's witness
    # does not depend on how BLAS blocks a dense product
    return _cut(lambda r, c: core._block(M, r, c), sp.csr_matrix(M).__matmul__, w.k,
                mode == "exact", restarts, seed, (w.t / w.k) ** 2)


class _UnionKernel:
    """Difference of two step kernels on their union grid, never formed.

    With union-cell widths ``w`` and, per input, the value matrix ``V`` (CSR)
    and the index map ``idx`` from union cells to the input's cells (``-1``
    outside its support), the kernel is ``M = Qa' Va Qa - Qb' Vb Qb``, where
    ``Q`` is the ``k x U`` selection matrix weighted by ``w``.  A product
    ``M @ X`` costs ``O(nnz + U)`` per column.  The union grid runs along
    ``[0, T]``, so the cells outside a support come last.
    """

    def __init__(self, widths, Va, idx_a, Vb, idx_b):
        self.widths = widths
        self.sides = []
        for V, idx in ((Va, idx_a), (Vb, idx_b)):
            inside = np.nonzero(idx >= 0)[0]
            if inside.size and inside[-1] != inside.size - 1:
                raise ValueError("union cells outside a support must come last")
            Q = sp.csr_matrix((widths[inside], (idx[inside], inside)),
                              shape=(V.shape[0], idx.size))
            self.sides.append((V, idx, Q, idx[inside]))

    def matmat(self, X: np.ndarray) -> np.ndarray:
        # each column as widths * (za - zb); a union cell outside a support
        # reads zero, and z - 0.0 == z, so zb is subtracted inside b's only
        (Va, _, Qa, head_a), (Vb, _, Qb, head_b) = self.sides
        z = np.zeros((self.widths.size, X.shape[1]))
        # every index is valid: "clip" lets take write into z unbuffered
        np.take(Va @ (Qa @ X), head_a, axis=0, out=z[:head_a.size], mode="clip")
        z[:head_b.size] -= np.take(Vb @ (Qb @ X), head_b, axis=0)
        return np.multiply(self.widths[:, None], z, out=z)

    def block(self, rows, cols) -> np.ndarray:
        """Dense ``M[rows][:, cols]``, bit-identical to the materialized kernel."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        va, vb = (core._lookup(V, idx[rows], idx[cols]) for V, idx, _, _ in self.sides)
        return (va - vb) * np.outer(self.widths[rows], self.widths[cols])


# ---------------------------------------------------------------------------
# cut distance: one comparison routine on one grid
# ---------------------------------------------------------------------------

def _degree_sort_perm(values) -> np.ndarray:
    # stable sort on (-rowsum, index): deterministic tie handling; a sparse
    # matrix sums to an (n, 1) matrix
    return np.argsort(-np.asarray(values.sum(axis=1)).ravel(), kind="stable")


def _check_alignment_args(mode: str, iters: int, restarts: int) -> None:
    if mode not in ("exact", "degree_sort", "local_search"):
        raise ValueError(f"unknown mode {mode!r}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")


def cut_distance_steps(w1, w2, mode: str = "exact", iters: int = 2,
                       restarts: int = 64, seed: int = 0) -> AlignmentResult:
    """Cut distance between step graphons, minimized over cell relabelings.

    Modes: ``exact`` enumerates all ``k!`` permutations (``k <= 8``);
    ``degree_sort`` aligns cells by descending row sums; ``local_search``
    improves degree_sort with pairwise swaps for ``iters`` passes.  Every
    mode also evaluates the identity alignment, so the result never exceeds
    the unaligned cut norm.  Grids as in :func:`stretched_cut_distance`.
    """
    _check_alignment_args(mode, iters, restarts)
    if w1.t != w2.t:
        raise SupportMismatchError(
            f"supports differ: {w1.t!r} vs {w2.t!r}; refine or pad first")
    k = core._refinement(w1.t, w1, w2)
    if mode == "exact" and (k is None or k > EXACT_ALIGN_LIMIT):
        raise ResolutionTooLargeError(
            f"exact alignment is limited to a refinement of k <= {EXACT_ALIGN_LIMIT} cells")
    return _compare(w1, w2, w1.t, mode, iters, restarts, seed)


def _compare(a, b, T: float, mode: str, iters: int, restarts: int,
             seed: int) -> AlignmentResult:
    """Cut distance of step graphons ``a`` and ``b`` on ``[0, T]``.

    The grid is the coarsest common uniform refinement when its cut norms
    are exact (``k <= 22``; ``k <= 8`` for exact alignment), else the union
    grid (or the one grid both inputs share).  It fixes ``score(pa, pb,
    exact)``, the cut norm of the difference with ``a``'s cells relabeled by
    ``pa`` and ``b``'s by ``pb``.  The candidates are the identity and,
    outside exact mode, both inputs sorted by degree; on the uniform grid
    exact mode enumerates every relabeling instead, and ``local_search``
    improves the better candidate by swaps.  The first of least cut wins.
    """
    k = core._refinement(T, a, b)
    lift = k is not None and k <= (EXACT_ALIGN_LIMIT if mode == "exact" else EXACT_CUT_LIMIT)
    if lift:
        va, vb = core._on_uniform(a, k, T), core._on_uniform(b, k, T)
        area = (T / k) ** 2

        def score(pa, pb, exact):
            # every candidate keeps b in its own frame here: pb is the identity
            M = va[np.ix_(pa, pa)] - vb
            return _cut(lambda r, c: core._block(M, r, c), M.__matmul__, k, exact,
                        restarts, seed, area)

        shared, exact_cuts, da, db = True, True, va, vb
    else:
        # equal widths keep zero marginal sums exactly zero, as the tie rule needs
        shared = a.k == b.k and a.t == b.t
        widths, ia, ib = ((np.full(a.k, a.cell_width), np.arange(a.k), np.arange(a.k))
                          if shared else core.union_grid(a, b))
        k = widths.size
        Va, Vb = sp.csr_matrix(a.values), sp.csr_matrix(b.values)

        def score(pa, pb, exact):
            kern = _UnionKernel(widths, Va, _relabel(ia, pa), Vb, _relabel(ib, pb))
            return _cut(kern.block, kern.matmat, k, exact, restarts, seed)

        exact_cuts, da, db = mode == "exact" and k <= EXACT_CUT_LIMIT, a.values, b.values

    ident_b = np.arange(db.shape[0])
    if lift and mode == "exact":
        tried = [min((("exact", score(p, ident_b, True), p)
                      for p in itertools.permutations(range(k))), key=lambda c: c[1].value)]
    else:
        maps = [("identity", np.arange(da.shape[0]), ident_b)]
        if mode != "exact":
            # each input's own cells are equal-measure, so sorting them by row
            # sum is a valid relabeling even though the union grid is nonuniform
            pa, pb = _degree_sort_perm(da), _degree_sort_perm(db)
            if shared:  # chase a's sorted cells into b's frame
                pa, pb = pa[np.argsort(pb)], ident_b
            maps.append(("degree_sort", pa, pb))
        tried = [(name, score(pa, pb, exact_cuts), pa) for name, pa, pb in maps]
        if lift and mode == "local_search":
            _, cut, perm = min(tried, key=lambda c: c[1].value)
            m = 4 * k**2 * np.finfo(float).eps * area * (np.abs(va).sum() + np.abs(vb).sum())
            tried.append(("local_search", *_local_search(score, cut, perm, iters, m)))
    _, cut, perm = min(tried, key=lambda c: c[1].value)
    _log_candidates("uniform" if lift else "union", k, tried, cut)
    return AlignmentResult(cut.value, tuple(int(i) for i in perm) if shared else None,
                           lift, cut)


def _local_search(score, cut: CutResult, perm: np.ndarray, iters: int, m: float):
    """Pairwise label swaps of ``perm``, whose cut is ``cut``, for up to
    ``iters`` passes, scored by :func:`_compare`'s uniform-grid ``score``
    with rounding margin ``m``; returns the final cut and permutation."""
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
    k = perm.size
    ident = np.arange(k)
    perm = perm.copy()
    pruned = evaluated = accepted = 0
    for passes in range(1, iters + 1):
        improved = False
        for i in range(k - 1):
            for j in range(i + 1, k):
                perm[i], perm[j] = perm[j], perm[i]
                if score(perm, ident, False).value > cut.value - m:
                    pruned += 1
                else:
                    evaluated += 1
                    trial = score(perm, ident, True)
                    if trial.value < cut.value - 2 * m:
                        cut = trial
                        improved = True
                        accepted += 1
                        continue
                perm[i], perm[j] = perm[j], perm[i]
        if not improved:
            break
    logging.getLogger(__name__).debug(
        "local search on %d cells: %d trials, %d pruned, %d exact evaluations, "
        "%d swaps accepted", k, passes * k * (k - 1) // 2, pruned, evaluated, accepted)
    return cut, perm


# ---------------------------------------------------------------------------
# stretched cut distance for general graphon specs
# ---------------------------------------------------------------------------

def stretched_cut_distance(w1: GraphonSpec, w2: GraphonSpec, mode: str = "degree_sort",
                           resolution: int | None = None, iters: int = 2,
                           restarts: int = 64, seed: int = 0) -> AlignmentResult:
    """Cut distance between the stretched versions of two graphons.

    Both inputs are stretched to unit 1-norm and compared on
    ``[0, max(t1, t2)]`` by the routine both cut distances share.  When
    their grids have a uniform refinement (see ``core._refinement``) of at
    most 22 cells (8 in exact mode), both are lifted onto it, zero beyond
    the shorter support, and every alignment is scored by an exact cut norm.
    Otherwise the difference is applied exactly, as an implicit operator, on
    the (possibly nonuniform) union grid, where ``local_search`` evaluates
    the same two candidates as ``degree_sort``.  One DEBUG record names the
    grid, every candidate's cut value and the winner.
    """
    _check_alignment_args(mode, iters, restarts)
    s1, _ = stretch(_to_spec(w1))
    s2, _ = stretch(_to_spec(w2))
    a = core.as_step(s1, resolution=resolution)
    b = core.as_step(s2, resolution=resolution)
    return _compare(a, b, max(a.t, b.t), mode, iters, restarts, seed)


def _log_candidates(grid: str, cells: int, candidates, winner: CutResult) -> None:
    """One DEBUG record of ``(name, cut, permutation)`` candidates: the grid,
    every candidate's cut value, the winner, the heuristic runs the
    iteration cap stopped and the kernel column-products the heuristic
    used."""
    log = logging.getLogger(__name__)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("cut distance on the %s grid of %d cells: %s; %s won; "
                  "%d heuristic runs stopped at the iteration cap; "
                  "%d kernel column-products", grid, cells,
                  ", ".join(f"{name} {cut.value!r}" for name, cut, _ in candidates),
                  next(name for name, cut, _ in candidates if cut is winner),
                  sum(cut.capped_runs for _, cut, _ in candidates),
                  sum(cut.products for _, cut, _ in candidates))


def _relabel(idx: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Index map of the relabeled input whose cell ``i`` is old cell ``perm[i]``."""
    return np.where(idx >= 0, perm[idx], -1)


def _to_spec(w) -> GraphonSpec:
    if isinstance(w, (StepGraphon, ConstantBox, RankOneExp)):
        return w
    raise TypeError(f"not a graphon spec: {type(w).__name__}")
