"""Shared oracles for the test suite.

These are deliberately independent of the library code paths they check:
brute-force enumerations, quadrature, and closed-form arithmetic only.
"""

import bisect
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from graphonsp import SignedStepGraphon, StepGraphon
from graphonsp.rng import substream


def random_step_graphon(seed, k=None, t=None, signed=False, kmax=12):
    rng = substream(seed, 0x7E57)
    if k is None:
        k = int(rng.integers(2, kmax + 1))
    if t is None:
        t = float(rng.uniform(0.2, 5.0))
    v = rng.uniform(-1.0 if signed else 0.0, 1.0, (k, k))
    v = (v + v.T) / 2.0
    cls = SignedStepGraphon if signed else StepGraphon
    return cls(v, t, 1.0)


def dense(values) -> np.ndarray:
    """Step values as an ndarray: a sparse matrix densified, an array as is."""
    return values.toarray() if sp.issparse(values) else np.asarray(values)


def brute_force_cut_norm(w) -> float:
    """Enumerate every (row subset, column subset) pair directly.

    Independent of the library's exact mode, which never enumerates column
    subsets (it derives the optimal columns per row subset).
    """
    M = dense(w.values)
    k = w.k
    area = (w.t / w.k) ** 2
    subsets = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.float64)
    row_sums = subsets @ M              # (2^k, k)
    objective = np.abs(row_sums @ subsets.T)  # (2^k row sets, 2^k col sets)
    flat = int(np.argmax(objective))
    si, ti = divmod(flat, 1 << k)
    rows = [i for i in range(k) if (si >> i) & 1]
    cols = [j for j in range(k) if (ti >> j) & 1]
    return sorted_cut_value(M, rows, cols, area)


def sorted_cut_value(M, rows, cols, area=1.0) -> float:
    """Canonical evaluation: sorted summation is orientation-invariant."""
    if len(rows) == 0 or len(cols) == 0:
        return 0.0
    return abs(area * float(np.sort(dense(M)[np.ix_(rows, cols)], axis=None).sum()))


def plain_local_search(va, vb, iters):
    """Pairwise-swap relabeling over brute-force cut norms, strict ``<``.

    Cells have unit area (support ``t = k``).  Starts from the better of the
    identity and the degree-sorted alignment (the identity on a tie), then
    tries every swap ``(i, j)``, ``i < j``, in order, for up to ``iters``
    passes, and keeps a swap only when it strictly lowers the cut norm.
    Returns ``(perm, distance)``; ``perm`` maps new index -> old index of
    ``va``.
    """
    k = va.shape[0]

    def dist(perm):
        M = va[np.ix_(perm, perm)] - vb
        return brute_force_cut_norm(SimpleNamespace(values=M, k=k, t=float(k)))

    sorted_perm = np.empty(k, dtype=np.int64)
    sorted_perm[np.argsort(-vb.sum(axis=1), kind="stable")] = \
        np.argsort(-va.sum(axis=1), kind="stable")
    perm = min([list(range(k)), [int(i) for i in sorted_perm]], key=dist)
    best = dist(perm)
    for _ in range(iters):
        improved = False
        for i, j in itertools.combinations(range(k), 2):
            trial = list(perm)
            trial[i], trial[j] = trial[j], trial[i]
            d = dist(trial)
            if d < best:
                perm, best, improved = trial, d, True
        if not improved:
            break
    return tuple(perm), best


def sequential_heuristic_cut(M, restarts, rng):
    """Alternating row/column maximization, one restart and sign at a time.

    A plain dense loop: each restart draws its start from ``rng``, runs the
    +1 then the -1 sign for at most 100 rounds, and the first strictly
    larger ``|s' M t|`` wins.  Returns ``(rows, cols)``.
    """
    k = M.shape[0]
    best = -1.0
    best_s = best_t = np.zeros(k, dtype=bool)
    for _ in range(max(1, restarts)):
        t0 = rng.random(k) < 0.5
        for sign in (1.0, -1.0):
            t = t0.copy()
            for _ in range(100):
                s = sign * (M @ t) > 0.0
                t_new = sign * (M.T @ s) > 0.0
                if np.array_equal(t_new, t):
                    break
                t = t_new
            val = abs(float(s @ M @ t))
            if val > best:
                best, best_s, best_t = val, s.copy(), t.copy()
    return list(np.nonzero(best_s)[0]), list(np.nonzero(best_t)[0])


def half_subset_sums(M):
    """All subset sums of the first ``k // 2`` rows of ``M`` and of the
    rest, in bit order, each row added in index order."""
    k = M.shape[0]
    halves = []
    for rows in (M[:k // 2], M[k // 2:]):
        out = np.zeros((1, k))
        for row in rows:
            out = np.vstack([out, out + row])
        halves.append(out)
    return halves


def rowwise_exact_cut(M):
    """Row subsets split in halves, one second-half subset at a time.

    Each row subset's column sums ``c`` are its first-half subset sum plus
    its second-half one, and its score is ``l1 + |tot|``: ``l1`` adds
    ``|c_j|`` over the columns in index order, and ``tot`` is the first
    half's total plus the second half's, each summed over its columns in
    index order.  The first strictly larger score wins, in the order
    (second-half subset, first-half subset); its columns are the positive
    ones when ``tot >= 0``, else the negative ones.  Returns ``(rows, cols)``.
    """
    k = M.shape[0]
    ka = k // 2
    SA, SB = half_subset_sums(M)
    tA, tB = np.zeros(SA.shape[0]), np.zeros(SB.shape[0])
    for j in range(k):
        tA, tB = tA + SA[:, j], tB + SB[:, j]
    best, best_a, best_b = -1.0, 0, 0
    for b in range(SB.shape[0]):
        vals = SA + SB[b]
        l1 = np.zeros(SA.shape[0])
        for j in range(k):
            l1 = l1 + np.abs(vals[:, j])
        score = l1 + np.abs(tA + tB[b])
        a = int(np.argmax(score))
        if score[a] > best:
            best, best_a, best_b = float(score[a]), a, b
    rows = ([i for i in range(ka) if (best_a >> i) & 1]
            + [ka + i for i in range(k - ka) if (best_b >> i) & 1])
    c = SA[best_a] + SB[best_b]
    pos = tA[best_a] + tB[best_b] >= 0.0
    cols = [j for j in range(k) if (c[j] > 0.0 if pos else c[j] < 0.0)]
    return rows, cols


def signed_parts_exact_value(M):
    """Exact cut norm of ``M`` scored by the rule before ``l1 + |tot|``:
    the largest sum of the positive, or of the negated negative, column
    sums over all row subsets, each accumulated in column order."""
    SA, SB = half_subset_sums(M)
    best = 0.0
    for sb in SB:
        vals = SA + sb
        pos = neg = np.zeros(SA.shape[0])
        for j in range(M.shape[0]):
            pos = pos + np.maximum(vals[:, j], 0.0)
            neg = neg - np.minimum(vals[:, j], 0.0)
        best = max(best, float(pos.max()), float(neg.max()))
    return best


def batched_heuristic_cut(matmat, k, restarts, rng):
    """Alternating row/column maximization, all restarts as one block.

    Every restart's start is drawn from ``rng`` and run once per sign, as
    columns ``2r`` and ``2r + 1``.  Each round takes two full products per
    active column, ``M t`` and then ``M s``, and a column freezes only when
    its new ``t`` equals its previous one.  The first column of largest
    ``|s' M t|`` wins.  Returns ``(rows, cols, capped)``, where ``capped``
    counts the columns still moving after 100 rounds.
    """
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
    best = int(np.argmax(np.abs((MS * T).sum(axis=0))))
    rows = [int(i) for i in np.nonzero(S[:, best])[0]]
    cols = [int(j) for j in np.nonzero(T[:, best])[0]]
    return rows, cols, int(active.size)


def reference_cell_index(t, k, x):
    """Cell of the ``k``-cell grid on ``[0, t]`` holding the float ``x``.

    Bisects the exact value of ``x`` among the exact values of the float
    breakpoints ``i * (t / k)``, ``0 < i < k``, so cell ``i`` is the
    half-open interval from breakpoint ``i`` to breakpoint ``i + 1``; the
    last cell also holds ``t``, and ``-1`` stands for a point outside
    ``[0, t]`` or NaN.
    """
    if math.isnan(x) or not 0.0 <= x <= t:
        return -1
    h = t / k
    return bisect.bisect_right([Fraction(i * h) for i in range(1, k)], Fraction(x))


def dense_sample_graph(w, xs, rng):
    """Edges of the model graph on the sorted points ``xs``, pair by pair.

    Probes every pair ``i < j`` in row-major order and keeps it when a
    uniform draw from ``rng`` falls below ``W(x_i, x_j)``: the ``O(n^2)``
    definition of the model, using no library code apart from ``w.eval``.
    Returns the sorted ``(m, 2)`` edge array.
    """
    i, j = np.triu_indices(xs.size, 1)
    p = np.asarray(w.eval(xs[i], xs[j]), dtype=np.float64)
    keep = rng.random(p.size) < p
    return np.column_stack([i[keep], j[keep]])


def values_at_cell_midpoints(widths, *ws):
    """Each graphon read with ``w.eval`` at the midpoints of cells of the
    given widths laid end to end from 0: one ``U x U`` matrix per input."""
    mids = np.cumsum(widths) - widths / 2.0
    return [np.asarray(w.eval(mids[:, None], mids[None, :])) for w in ws]


def quadrature_l1_between(w, func, n_grid=4000):
    """Midpoint quadrature of ``|w - func|`` over the union support."""
    T = w.support_length
    xs = (np.arange(n_grid) + 0.5) * (T / n_grid)
    diff = np.abs(np.asarray(w.eval(xs[:, None], xs[None, :]))
                  - func(xs[:, None], xs[None, :]))
    return float(diff.sum()) * (T / n_grid) ** 2


def dense_core_stretched_l1(k):
    """Exact l1 distance between the stretched k-clique and the unit square.

    The stretched clique has side ``ell = sqrt(k/(k-1))`` and k diagonal
    holes of side ``ell/k``; like the unit square it has area 1, so the
    distance is twice the hole area inside the unit square.  The first k-1
    holes lie inside and cover ``1/k``; the last spans
    ``[sqrt((k-1)/k), ell]`` and straddles the boundary, adding only its
    corner ``(1 - sqrt((k-1)/k))^2``.  The result is strictly below the
    bound ``2/(k-1)``, which counts the whole last hole.
    """
    return 2.0 / k + 2.0 * (1.0 - math.sqrt((k - 1) / k)) ** 2


def l1_against_exp_decay(values, edges, rate):
    """Exact l1 distance between a step signal and ``x -> exp(-rate x)``.

    Per-cell closed form with the crossing point of the decreasing target,
    plus the tail mass beyond the last edge.
    """
    a, b = edges[:-1], edges[1:]
    v = np.asarray(values, dtype=np.float64)
    x_star = np.where(v > 0, -np.log(np.clip(v, 1e-300, None)) / rate, b)
    x_c = np.clip(x_star, a, b)
    antider = lambda u: np.exp(-rate * u) / rate
    parts = ((antider(a) - antider(x_c)) - v * (x_c - a)) \
        + (v * (b - x_c) - (antider(x_c) - antider(b)))
    return float(np.abs(parts).sum() + antider(edges[-1]))


def reference_read_edge_list(path):
    """Per-line edge-list oracle: ``(n, sorted edges)``, or ``ValueError``.

    Lines are read one at a time.  Blank lines and lines starting with ``#``
    are skipped; the first other line may be the header ``n <count>``; every
    other line must hold two integers.  Then the graph rules: the vertex
    count is the header's or ``max id + 1``, lies in ``[0, isqrt(2^63 - 1)]``
    and bounds every id; self-loops are rejected; reversed and repeated
    edges collapse into one ``(i, j)`` with ``i < j``.
    """
    n = None
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                if parts[0] == "n" and len(parts) == 2 and n is None and not pairs:
                    n = int(parts[1])
                    continue
                if len(parts) != 2:
                    raise ValueError
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ValueError(f"malformed edge line: {line.strip()!r}") from None
    if n is None:
        n = max((max(p) for p in pairs), default=-1) + 1
    if not 0 <= n <= math.isqrt(2**63 - 1):
        raise ValueError(f"vertex count {n} out of range")
    edges = set()
    for i, j in pairs:
        if i == j:
            raise ValueError(f"self-loop at {i}")
        if min(i, j) < 0 or max(i, j) >= n:
            raise ValueError(f"edge {(i, j)} out of range")
        edges.add((min(i, j), max(i, j)))
    return n, sorted(edges)


def reference_adjacency(n, pairs):
    """Adjacency oracle in canonical CSR arrays ``(indptr, indices, data)``,
    from neighbour sets: each vertex's distinct neighbours, ascending, one
    row per vertex; every entry is 1.0."""
    neighbours = [set() for _ in range(n)]
    for i, j in pairs:
        neighbours[i].add(j)
        neighbours[j].add(i)
    rows = [sorted(s) for s in neighbours]
    indptr = [0]
    for row in rows:
        indptr.append(indptr[-1] + len(row))
    indices = [j for row in rows for j in row]
    return np.array(indptr), np.array(indices, dtype=np.int64), np.ones(len(indices))
