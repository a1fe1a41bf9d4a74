"""Cut norm, cut distance over cell relabelings, and their stretched variants.

For step graphons the supremum over measurable rectangles reduces to a
maximum over unions of grid cells: the bilinear objective is linear in each
selector, so it attains its maximum at a vertex of the unit box.  Exact mode
enumerates row subsets (choosing the optimal column subset per row subset);
heuristic mode runs alternating maximization from random restarts and never
exceeds the exact value.  On a graph-sized kernel (more than
``EXACT_CUT_LIMIT`` cells: the union grid and ``cut_norm(mode="heuristic")``,
both read through CSR products that compute every column on its own) the
restarts are split into one contiguous range per CPU the process may run
on, the first on the calling thread and the rest on the package's one
thread pool (``_pool``, one worker per CPU, also used by :func:`_map`);
the first column of largest value, in the original order, wins, so the
result is bit-identical for any number of CPUs.  The lift's kernels (at
most ``EXACT_CUT_LIMIT`` cells, dense BLAS products) stay one serial block.

Both cut distances end in one comparison routine, ``_compare``: the grid
fixes only how a candidate relabeling's difference kernel is cut by the one
engine ``_cut``, which reads it through its product and a witness value
(summed over stored entries on the union grid, with no dense block), and
the candidates, winner, log and result are shared.
"""

from __future__ import annotations

import itertools
import logging
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import core
from .core import (
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

EXACT_CUT_LIMIT = 22       # 2^k * k stays near 1e8 elementary ops
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
        rows, cols = np.ix_(self.witness_rows, self.witness_cols)
        return _evaluate(w.values[rows, cols].toarray(), (w.t / w.k) ** 2)


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
    """All 2^m subset sums of the given rows, in bit order, as the columns
    of a ``k x 2^m`` array."""
    out = np.zeros((rows.shape[1], 1))
    for row in rows:
        out = np.hstack([out, out + row[:, None]])
    return out


def _bits(idx: int, m: int) -> list:
    return [i for i in range(m) if (idx >> i) & 1]


def _bilinear_max_exact(M: np.ndarray):
    """Maximize |sum_{i in S, j in T} M[i, j]| over all subset pairs.

    For a row subset with column sums ``c`` the best columns are the
    positive (or the negative) ones, and ``max(sum c+, sum c-) = (l1 +
    |tot|) / 2`` with ``l1 = sum_j |c_j|`` and ``tot = sum_j c_j``, so only
    row subsets are enumerated, each scored as ``l1 + |tot|``.  Rows are
    split in halves whose subset sums are stored transposed, ``k x 2^ka``
    and ``k x 2^kb``; the second half's subsets run in blocks of about 2^16
    (second, first) subset pairs, and ``l1`` accumulates over the columns
    in index order, one contiguous block row per column.  The first
    maximum in the order (second-half subset, first-half subset) wins; its
    positive columns are taken when ``tot >= 0``, else its negative ones.
    """
    k = M.shape[0]
    ka = k // 2
    SA, SB = _subset_sums(M[:ka]), _subset_sums(M[ka:])
    tA, tB = SA.sum(axis=0), SB.sum(axis=0)
    step = max(1, 2**16 // SA.shape[1])
    best = -1.0
    for b0 in range(0, SB.shape[1], step):
        sb = SB[:, b0:b0 + step, None]
        score = np.abs(tB[b0:b0 + step, None] + tA)
        l1 = np.zeros_like(score)
        col = np.empty_like(score)
        for j in range(k):
            np.abs(np.add(sb[j], SA[j], out=col), out=col)
            l1 += col
        score += l1
        i = int(np.argmax(score))
        if score.flat[i] > best:
            best = float(score.flat[i])
            b, best_a = divmod(i, SA.shape[1])
            best_b = b0 + b
    c = SA[:, best_a] + SB[:, best_b]
    rows = _bits(best_a, ka) + [ka + i for i in _bits(best_b, k - ka)]
    cols = np.nonzero(c > 0.0 if tA[best_a] + tB[best_b] >= 0.0 else c < 0.0)[0]
    return rows, cols.tolist()


def _bilinear_max_heuristic(matmat, t0: np.ndarray):
    """Alternating row/column maximization from the 0/1 start block ``t0``.

    ``matmat(X)`` returns ``M @ X`` for a symmetric ``k x k`` kernel ``M``
    and a C-contiguous ``k x c`` float block ``X``, each column on its own;
    ``t0`` is a ``k x r`` boolean block of starts.  Every start runs once
    per sign; all ``2r`` runs advance together as the columns of one block
    (start ``i`` in columns ``2i`` and ``2i + 1``, which share the first
    product ``M t``), and a column freezes once its selection stops
    changing: when its new rows equal its previous rows (``M s``, hence the
    columns, are then known), or else its new columns equal its previous
    columns.  Cells with exactly zero marginal contribution are excluded,
    which makes the iteration deterministic given the starts.  Returns the
    largest ``|s' M t|`` over the columns, the witness rows and columns of
    the first column attaining it, the number of columns still active when
    the 100-round cap ended the loop, and the number of kernel
    column-products used.
    """
    restarts = t0.shape[1]
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
    score = np.abs((MS * T).sum(axis=0))
    best = int(np.argmax(score))
    rows = [int(i) for i in np.nonzero(S[:, best])[0]]
    cols = [int(j) for j in np.nonzero(T[:, best])[0]]
    return float(score[best]), rows, cols, int(active.size), products


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _new_pool() -> None:
    """Make ``_pool``, the package's one thread pool: one worker per CPU,
    for the split heuristic's ranges and :func:`_map`'s calls.  No task on
    it waits on another.  It starts a thread only when a task finds none
    idle, so importing starts none."""
    global _pool
    _pool = ThreadPoolExecutor(_cpus())


_new_pool()
if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool but none of its threads
    os.register_at_fork(after_in_child=_new_pool)


def _map(fn, calls: list, costs) -> list:
    """``[fn(*args) for args in calls]``, run on the pool, submitted in
    decreasing order of ``costs``.  If calls raise, the first in ``calls``
    order that raised is re-raised, once no other call is running."""
    order = sorted(range(len(calls)), key=lambda c: -costs[c])
    futures = [None] * len(calls)
    for c in order:
        futures[c] = _pool.submit(fn, *calls[c])
    try:
        return [f.result() for f in futures]
    finally:
        for f in futures:
            f.cancel()
        wait(futures)


def _split_heuristic(matmat, t0: np.ndarray, ranges: int) -> list:
    """:func:`_bilinear_max_heuristic` on ``t0`` split by start into
    ``ranges`` contiguous ranges, the first on the calling thread and the
    others on the pool; returns the ranges' results in order.  Each range's
    columns run exactly as in the whole block when every product column is
    computed on its own."""
    blocks = np.array_split(t0, ranges, axis=1)
    rest = [_pool.submit(_bilinear_max_heuristic, matmat, b) for b in blocks[1:]]
    return [_bilinear_max_heuristic(matmat, blocks[0])] + [f.result() for f in rest]


def _evaluate(terms: np.ndarray, area: float) -> float:
    """Canonical witness value: the terms summed in sorted order, times ``area``.

    ``terms`` lists the kernel's contributions to a witness rectangle.  On a
    symmetric kernel the pairs (S, T) and (T, S) give the same multiset of
    terms; sorting before summation makes the float result identical for
    both, so independent maximizers agree bit-for-bit.
    """
    return abs(area * float(np.sort(terms, axis=None).sum()))


def _cut(matmat, value, k: int, exact: bool, restarts: int, seed: int) -> CutResult:
    """Cut norm of a symmetric ``k x k`` kernel read through two functions.

    ``matmat(X)`` returns the product with a ``k x c`` block and
    ``value(rows, cols)`` the canonical value (see :func:`_evaluate`) of a
    witness rectangle.  Exact mode enumerates the kernel ``matmat(eye(k))``;
    heuristic mode runs on ``matmat`` from ``restarts`` random starts, drawn
    as one ``k x restarts`` block from the ``0xC07`` substream of ``seed``.
    Above ``EXACT_CUT_LIMIT`` cells the kernel is graph-sized, its products
    are CSR products that compute every column on its own, and the block is
    split into one range per CPU, at most one per start
    (:func:`_split_heuristic`).  The first range of largest value holds the
    first column of largest value, which wins, and the capped runs and
    products are summed, so the result is the same for any number of CPUs.
    The value is re-evaluated at the witness sets.
    """
    capped = products = 0
    if exact:
        rows, cols = _bilinear_max_exact(matmat(np.eye(k)))
    else:
        if restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {restarts}")
        t0 = (substream(seed, 0xC07).random((restarts, k)) < 0.5).T
        runs = _split_heuristic(matmat, t0, min(_cpus(), restarts)
                                if k > EXACT_CUT_LIMIT else 1)
        _, rows, cols, _, _ = max(runs, key=lambda run: run[0])
        capped, products = sum(run[3] for run in runs), sum(run[4] for run in runs)
    return CutResult(value(rows, cols), tuple(rows), tuple(cols), exact, capped, products)


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
    M, area = w.values, (w.t / w.k) ** 2
    return _cut(M.__matmul__, lambda r, c: _evaluate(M[np.ix_(r, c)].toarray(), area),
                w.k, mode == "exact", restarts, seed)


class _Stored:
    """A kernel side held as its stored CSR values ``V``, whose products
    compute every column on its own."""

    def __init__(self, V):
        self.V, self.k = V, V.shape[0]

    def matmat(self, Y: np.ndarray) -> np.ndarray:
        return self.V @ Y

    def row_sums(self) -> np.ndarray:
        # a sparse matrix sums to an (n, 1) matrix
        return np.asarray(self.V.sum(axis=1)).ravel()

    def terms(self, rc: np.ndarray) -> np.ndarray:
        """The witness terms ``V_ij * (r_i * c_j)``, one per stored entry,
        for the witness widths ``r, c`` per cell, the columns of ``rc``."""
        (r, c), E = rc.T, self.V.tocoo()
        return E.data * (r[E.row] * c[E.col])


class _Factored:
    """A rank-one kernel side ``v v'`` held as its factor ``v``: a product
    costs ``O(k)`` per column and the witness is one term ``(v . r)(v . c)``.
    ``v'`` is a one-row CSR matrix, so every column's ``v' Y`` is reduced on
    its own, in index order, whatever the block width."""

    def __init__(self, v: np.ndarray):
        self.v, self.vt, self.k = v, sp.csr_matrix(v[None, :]), v.size

    def matmat(self, Y: np.ndarray) -> np.ndarray:
        return self.v[:, None] * (self.vt @ Y)

    def row_sums(self) -> np.ndarray:
        return self.v * self.v.sum()

    def terms(self, rc: np.ndarray) -> np.ndarray:
        (vr, vc), = self.vt @ rc
        return np.array([vr * vc])


def _side(w):
    """The kernel side of a step graphon: its factor if it has one."""
    return _Factored(w.factor) if isinstance(w, core._RankOneStep) else _Stored(w.values)


class _UnionKernel:
    """Difference of two step kernels on their union grid, never formed.

    With union-cell widths ``w`` and, per input, its side (:class:`_Stored`
    values ``V`` or a :class:`_Factored` ``v v'``) and the index map ``idx``
    from union cells to the input's cells (``-1`` outside its support), the
    kernel is ``M = Qa' Va Qa - Qb' Vb Qb``, where ``Q = core._select(idx,
    k, w)`` for an input of ``k`` cells.  A product ``M @ X`` costs ``O(U)``
    per column plus each side's own product, ``O(nnz)`` or ``O(k)``.  The
    union grid runs along ``[0, T]``, so the cells outside a support come
    last.
    """

    def __init__(self, widths, side_a, idx_a, side_b, idx_b):
        self.widths = widths
        self.sides = []
        for side, idx in ((side_a, idx_a), (side_b, idx_b)):
            inside = np.nonzero(idx >= 0)[0]
            if inside.size and inside[-1] != inside.size - 1:
                raise ValueError("union cells outside a support must come last")
            self.sides.append((side, core._select(idx, side.k, widths), idx[inside]))

    def matmat(self, X: np.ndarray) -> np.ndarray:
        # each column as widths * (za - zb); a union cell outside a support
        # reads zero, and z - 0.0 == z, so zb is subtracted inside b's only
        (a, Qa, head_a), (b, Qb, head_b) = self.sides
        z = np.zeros((self.widths.size, X.shape[1]))
        # every index is valid: "clip" lets take write into z unbuffered
        np.take(a.matmat(Qa @ X), head_a, axis=0, out=z[:head_a.size], mode="clip")
        z[:head_b.size] -= np.take(b.matmat(Qb @ X), head_b, axis=0)
        return np.multiply(self.widths[:, None], z, out=z)

    def value(self, rows, cols) -> float:
        """Value of the witness ``rows x cols`` in ``O(nnz + U)``: per input,
        ``r = Q @ 1_rows`` and ``c = Q @ 1_cols`` sum the witness widths per
        input cell, and its side gives the terms, a's positive and b's
        negated; those of ``(cols, rows)`` are the same terms."""
        sel = np.zeros((self.widths.size, 2))
        sel[rows, 0] = sel[cols, 1] = 1.0
        return _evaluate(np.concatenate([sign * side.terms(Q @ sel) for sign, (side, Q, _)
                                         in zip((1.0, -1.0), self.sides)]), 1.0)


# ---------------------------------------------------------------------------
# cut distance: one comparison routine on one grid
# ---------------------------------------------------------------------------

def _degree_sort_perm(row_sums: np.ndarray) -> np.ndarray:
    # stable sort on (-rowsum, index): deterministic tie handling
    return np.argsort(-row_sums, kind="stable")


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
        va, vb = core._on_uniform(a, k, T).toarray(), core._on_uniform(b, k, T).toarray()
        area = (T / k) ** 2

        def cut_of(M, exact):
            return _cut(M.__matmul__, lambda r, c: _evaluate(M[np.ix_(r, c)], area),
                        k, exact, restarts, seed)

        def score(pa, pb, exact):
            # every candidate keeps b in its own frame here: pb is the identity
            return cut_of(va[np.ix_(pa, pa)] - vb, exact)

        shared, exact_cuts, da, db = True, True, va.sum(axis=1), vb.sum(axis=1)
    else:
        # equal widths keep zero marginal sums exactly zero, as the tie rule needs
        shared = a.k == b.k and a.t == b.t
        widths, ia, ib = ((np.full(a.k, a.cell_width), np.arange(a.k), np.arange(a.k))
                          if shared else core.union_grid(a, b))
        k = widths.size
        sa, sb = _side(a), _side(b)

        def score(pa, pb, exact):
            kern = _UnionKernel(widths, sa, _relabel(ia, pa), sb, _relabel(ib, pb))
            return _cut(kern.matmat, kern.value, k, exact, restarts, seed)

        exact_cuts = mode == "exact" and k <= EXACT_CUT_LIMIT
        da, db = sa.row_sums(), sb.row_sums()

    ident_b = np.arange(db.size)
    if lift and mode == "exact":
        tried = [min((("exact", score(p, ident_b, True), p)
                      for p in itertools.permutations(range(k))), key=lambda c: c[1].value)]
    else:
        maps = [("identity", np.arange(da.size), ident_b)]
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
            tried.append(("local_search", *_local_search(va, vb, area, cut_of, cut,
                                                         perm, iters)))
    _, cut, perm = min(tried, key=lambda c: c[1].value)
    _log_candidates("uniform" if lift else "union", k, tried, cut)
    return AlignmentResult(cut.value, tuple(int(i) for i in perm) if shared else None,
                           lift, cut)


def _local_search(va, vb, area: float, cut_of, cut: CutResult, perm: np.ndarray,
                  iters: int):
    """Pairwise label swaps of ``perm``, whose cut is ``cut``, for up to
    ``iters`` passes on :func:`_compare`'s uniform grid of lifted values
    ``va`` and ``vb`` and cell area ``area``, where ``cut_of(M, exact)``
    cuts the trial kernel ``M = va[perm][:, perm] - vb``; returns the final
    cut and permutation.

    A trial is pruned when a cached witness rectangle (the incumbent's, and
    that of every heuristic and exact cut found so far) already shows its
    cut norm above the incumbent's less the rounding margin ``m``; else
    when the heuristic does; else its exact cut norm decides."""
    # Rounding bound m, with u = eps/2 and A = sum|va| + sum|vb|, which
    # bounds sum|M| for every trial kernel M.  A value is _evaluate at a
    # witness, or a cached rectangle scored on M by two matrix products: a
    # sum of <= k^2 terms, in any order, times area, so it is within
    # area*A*(k^2 + 1)*u of the rectangle's real value.  The enumerator adds
    # each column sum c_j from two half subset sums of <= k/2 adds each, so
    # the k column sums err by <= (k/2 + 1)*u*A in all; l1 = sum|c_j| and
    # tot = tA + tB take <= k adds more each, and the score l1 + |tot| one,
    # within (3k + 4)*u*A.  The score is twice the cut norm of its row set,
    # so the argmax row set loses <= (3k + 4)*u*A, about 4k*u*A, of the
    # unscaled cut norm; the columns read off it lose <= (k/2 + 1)*u*A to
    # misread signs of c_j and <= (3k/2 + 1)*u*A to a misread sign of tot.
    # A heuristic or cached rectangle is a witness of M too, so its real
    # value is below the cut norm: trial >= lb - area*A*(2k^2 + 5k + 8)*u,
    # and for k >= 2 the margin m = 8k^2*u*area*A covers this and the
    # higher-order terms.
    # A prune (lb > current - m) thus implies trial > current - 2m, never an
    # accepted swap, and gains below 2m are rounding noise, not progress.
    k = perm.size
    m = 4 * k**2 * np.finfo(float).eps * area * (np.abs(va).sum() + np.abs(vb).sum())
    perm = perm.copy()
    # the cached witnesses are the first n rows of S and T, which double
    # when full
    S, T, n = np.zeros((8, k)), np.zeros((8, k)), 0

    def remember(c: CutResult) -> CutResult:
        nonlocal S, T, n
        if n == len(S):
            S, T = np.vstack([S, np.zeros_like(S)]), np.vstack([T, np.zeros_like(T)])
        S[n, list(c.witness_rows)] = T[n, list(c.witness_cols)] = 1.0
        n += 1
        return c

    remember(cut)
    pruned = evaluated = accepted = cached = 0
    for passes in range(1, iters + 1):
        improved = False
        for i in range(k - 1):
            for j in range(i + 1, k):
                perm[i], perm[j] = perm[j], perm[i]
                M = va.take(perm, axis=0).take(perm, axis=1) - vb
                if area * np.abs(((S[:n] @ M) * T[:n]).sum(axis=1)).max() > cut.value - m:
                    cached += 1
                elif remember(cut_of(M, False)).value > cut.value - m:
                    pruned += 1
                else:
                    evaluated += 1
                    trial = remember(cut_of(M, True))
                    if trial.value < cut.value - 2 * m:
                        cut = trial
                        improved = True
                        accepted += 1
                        continue
                perm[i], perm[j] = perm[j], perm[i]
        if not improved:
            break
    trials = passes * k * (k - 1) // 2
    logging.getLogger(__name__).debug(
        "local search on %d cells: %d trials, %d pruned, %d exact evaluations, "
        "%d swaps accepted, %d pruned by a cached witness, %d heuristic runs",
        k, trials, pruned + cached, evaluated, accepted, cached, trials - cached)
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
    a, b = (core._rank_one_step(s, resolution) if isinstance(s, RankOneExp) else s
            for s in (s1, s2))
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
    # a _RankOneStep is a restriction of a RankOneExp, from extract_sparse_subsequence
    if isinstance(w, (StepGraphon, RankOneExp, core._RankOneStep)):
        return w
    raise TypeError(f"not a graphon spec: {type(w).__name__}")
