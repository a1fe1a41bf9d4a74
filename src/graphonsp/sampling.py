"""Samplers: double graph sequences, sparse subsequence extraction, signal
sampling, and the subgraph-growth procedure for real graphs.

Sample points are sorted ascending before edges are drawn so that canonical
graphons of samples converge without unknown relabelings; all randomness
flows through counter-based sub-streams keyed per grid cell, making every
cell individually reproducible and order-independent.

:func:`sample_graph` never probes all ``n (n - 1) / 2`` pairs.  It splits
the sorted points into blocks, runs on which ``W`` does not increase in
either coordinate: the kernel's own cells for a :class:`StepGraphon` (plus
one block beyond its support, so ``x <= s`` and ``x > s`` for the one-cell
:class:`ConstantBox`), and for :class:`RankOneExp` bins of width
``1 / (8 lam)`` up to the point ``x*`` where ``g(x*) = 1/n``, then one tail
block, so ``B = O(log n)`` blocks.  On each block pair ``W`` is largest at
its first pair, which gives an exact envelope ``q``.  A Poisson number of
uniform candidate pairs, with mean ``-N log(1 - q)`` for ``N`` pairs, hits
each pair with probability exactly ``q``; each distinct candidate is then
kept with probability ``W / q``, which is 1 for step graphons.  The
cost is ``O(n + B^2 + |E|)``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import core, cutmetric
from .core import (Graph, GraphonSpec, RankOneExp, StepGraphon, StepSignal,
                   canonical_graphon)
from .cutmetric import stretched_cut_distance
from .errors import ProbabilityRangeError, ScheduleError
from .rng import derive_key, substream

__all__ = [
    "SamplePoints",
    "SampledGraph",
    "GrowthSchedule",
    "GrowthStep",
    "SparseSubsequenceSpec",
    "sample_graph",
    "sample_double_sequence",
    "extract_sparse_subsequence",
    "sample_signal",
    "grow_subgraphs",
    "pair_density",
    "dense_core_graph",
    "core_periphery_graph",
]


@dataclass(frozen=True, eq=False)
class SamplePoints:
    """Sorted sample locations in ``[0, t_m]`` for one grid cell."""

    m_index: int
    t_m: float
    xs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        if xs.ndim != 1 or xs.size == 0:
            raise ValueError("xs must be a nonempty vector")
        if np.any(np.diff(xs) < 0):
            raise ValueError("sample points must be sorted ascending")
        if xs[0] < 0 or xs[-1] > self.t_m:
            raise ValueError("sample points outside [0, t_m]")
        object.__setattr__(self, "xs", xs)
        xs.setflags(write=False)

    @property
    def n(self) -> int:
        return self.xs.size


@dataclass(frozen=True)
class SampledGraph:
    graph: Graph
    points: SamplePoints
    seed: int

    def canonical(self) -> StepGraphon:
        return canonical_graphon(self.graph)


@dataclass(frozen=True)
class GrowthSchedule:
    """Nodes added per step, number of steps, isolated-vertex removal."""

    batch: int
    steps: int
    drop_isolated: bool = True

    def __post_init__(self):
        if self.batch < 1 or self.steps < 1:
            raise ScheduleError("batch and steps must be at least 1")


@dataclass(frozen=True, eq=False)
class GrowthStep:
    """One induced subgraph, with original vertex ids for signal transfer."""

    graph: Graph
    vertices: np.ndarray  # original id of each (renumbered) vertex


@dataclass
class SparseSubsequenceSpec:
    """Index map m -> phi(m) with per-row diagnostics and explicit gaps."""

    phi: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)   # (m, t_m, n, density, target, distance)
    gaps: list = field(default_factory=list)   # (m, reason)


def pair_density(g: Graph) -> float:
    """``2 |E| / (n (n - 1))``: unbiased for the restricted-box mean.

    This is the density that the subsequence-extraction checks compare
    against the limit ``||W_m||_1 / t_m^2``; unlike ``2 |E| / n^2`` it carries no
    ``(n-1)/n`` finite-size bias.
    """
    if g.n < 2:
        return 0.0
    return 2.0 * g.edge_count / (g.n * (g.n - 1))


def sample_graph(w: GraphonSpec, t_m: float, n: int, seed: int,
                 m_index: int = 0) -> SampledGraph:
    """Draw ``n`` uniform points on ``[0, t_m]``, sort them, and connect
    ``(i, j)`` independently with probability ``W(x_i, x_j)``.

    Deterministic given the seed.  Costs ``O(n + B^2 + |E|)`` for ``B``
    blocks (see the module docstring).  Raises
    :class:`ProbabilityRangeError` if ``W`` exceeds ``1 + 1e-12`` at some
    pair of points and ``TypeError`` for a kernel with no block rule, such
    as a :class:`SignedStepGraphon`.
    """
    if n < 1:
        raise ValueError("need at least one sample point")
    if not (t_m > 0):
        raise ValueError("t_m must be positive")
    rng = substream(seed, 0x5A, m_index, n)
    xs = np.sort(rng.uniform(0.0, t_m, size=n))
    graph = Graph(n, _sample_edges(w, xs, rng))
    return SampledGraph(graph, SamplePoints(m_index, t_m, xs), seed)


def _block_labels(w: GraphonSpec, xs: np.ndarray) -> np.ndarray:
    """A nondecreasing label per sorted point.

    On a run of equal labels ``W`` does not increase in either coordinate,
    and for a step graphon it is constant on every pair of runs.
    """
    if isinstance(w, StepGraphon):
        # the cell rule of _StepBase.eval, and label k beyond the support
        cell = core._cell_index(w, xs)
        return np.where(cell >= 0, cell, w.k)
    if isinstance(w, RankOneExp):
        # bins of width 1 / (8 lam) up to x* = log(c^2 n^2) / lam, where
        # g(x*) = 1/n, then one tail block: B = O(log n) for any t_m
        bins = math.ceil(16.0 * max(0.0, math.log(w.c) + math.log(xs.size)))
        return np.minimum(np.floor(xs * (8.0 * w.lam)), bins)
    raise TypeError(f"no sampler for {type(w).__name__}: edge probabilities "
                    "must come from a nonnegative graphon spec")


def _sample_edges(w: GraphonSpec, xs: np.ndarray, rng) -> np.ndarray:
    """Edges ``(i, j)``, ``i < j``, each present independently with
    probability ``W(x_i, x_j)``, for sorted points ``xs``.

    Candidate-sized arrays are built in place and dropped as soon as they
    are dead, so the peak holds about four of them (int32 block-pair ids)."""
    n = xs.size
    new = np.concatenate([[True], np.diff(_block_labels(w, xs)) != 0])
    blk = np.cumsum(new) - 1                 # block of each point
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=n)
    # block pairs a <= b in row-major order; pair (a, a) sits at first[a]
    width = starts.size - np.arange(starts.size)
    first = np.cumsum(width) - width
    a = np.repeat(np.arange(starts.size), width)
    b = np.arange(a.size) - first[a] + a
    diag = a == b
    npairs = np.where(diag, sizes[a] * (sizes[a] - 1) // 2, sizes[a] * sizes[b])
    # W is largest at the first pair of a block pair: its envelope q
    i0, j0 = starts[a], np.minimum(starts[b] + diag, n - 1)
    q = np.asarray(w.eval(xs[i0], xs[j0]), dtype=np.float64)
    bad = np.flatnonzero((q > 1.0 + 1e-12) & (npairs > 0))
    if bad.size:
        i, j = i0[bad[0]], j0[bad[0]]
        raise ProbabilityRangeError(
            f"W(x[{i}], x[{j}]) = W({float(xs[i])!r}, {float(xs[j])!r}) "
            f"= {float(q[bad[0]])!r} exceeds 1")
    q = np.minimum(q, 1.0)
    # Poisson(-log(1 - q)) arrivals per pair hit it with probability q,
    # independently across pairs; complete block pairs take every pair
    full = q == 1.0
    counts = rng.poisson(npairs * -np.log1p(-np.where(full, 0.0, q)))
    counts[full] = npairs[full]
    pid = np.repeat(np.arange(a.size, dtype=np.int32), counts)
    if full.any():
        off = np.arange(pid.size)
        off -= np.repeat(np.cumsum(counts) - counts, counts)
        draw = np.flatnonzero(~full[pid])
        off[draw] = rng.integers(0, npairs[pid[draw]])
        del draw
    else:
        off = rng.integers(0, npairs[pid])
    # candidate (i, j) as the key i * n + j, built in place
    lo, hi = np.divmod(off, sizes[b][pid])
    on = np.flatnonzero(diag[pid])
    lo[on], hi[on] = _triangle_pair(off[on])
    del off, on
    hi += starts[b][pid]
    lo += starts[a][pid]
    del pid
    lo *= n
    lo += hi
    del hi
    lo.sort()
    key = lo[np.diff(lo, prepend=-1) > 0]
    del lo
    # thinning: keep a candidate with probability W / q
    i, j = np.divmod(key, n)
    del key
    pid = first[blk[i]] + blk[j] - blk[i]
    keep = rng.random(i.size) * q[pid]
    del pid
    keep = keep < w.eval(xs[i], xs[j])
    logging.getLogger(__name__).debug(
        "sampled %d points in %d blocks, %d block pairs: %d candidates, "
        "%d edges kept", n, starts.size, a.size, i.size, int(keep.sum()))
    return np.column_stack([i[keep], j[keep]])


def _triangle_pair(idx: np.ndarray) -> tuple:
    """``(lo, hi)`` with ``lo < hi`` at row-major index ``hi (hi - 1) / 2 + lo``."""
    hi = np.floor((1.0 + np.sqrt(1.0 + 8.0 * idx)) / 2.0).astype(np.int64)
    hi -= hi * (hi - 1) // 2 > idx
    hi += (hi + 1) * hi // 2 <= idx
    return idx - hi * (hi - 1) // 2, hi


def sample_double_sequence(w: GraphonSpec, t_schedule, n_schedule,
                           seed: int) -> list:
    """Sample ``G_{m,n}`` for every pair of the two schedules.

    Both schedules must be strictly increasing.  Returns a list of rows
    (one per ``t_m``), each a list over ``n``.  Grid cells use independent
    derived sub-seeds, so any cell can be regenerated alone via its recorded
    seed, and the cells are sampled on the package's thread pool, largest
    expected edge count ``n^2 / t_m^2`` first.
    """
    t_schedule = [float(t) for t in t_schedule]
    n_schedule = [int(n) for n in n_schedule]
    for name, sched in (("t_schedule", t_schedule), ("n_schedule", n_schedule)):
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ScheduleError(f"{name} must be strictly increasing")
    cells = [(w, t_m, n, derive_key(seed, mi, nj), mi)
             for mi, t_m in enumerate(t_schedule) for nj, n in enumerate(n_schedule)]
    # a cell with t_m <= 0 raises in sample_graph, not here
    done = iter(cutmetric._map(sample_graph, cells,
                               [n * n / t_m**2 if t_m > 0 else 0.0
                                for _, t_m, n, _, _ in cells]))
    return [[next(done) for _ in n_schedule] for _ in t_schedule]


def extract_sparse_subsequence(grid, w: GraphonSpec, resolution: int = 256,
                               restarts: int = 16, seed: int = 0) -> SparseSubsequenceSpec:
    """Pick, per row ``m``, the smallest ``n`` meeting both closeness criteria.

    Criteria at tolerance ``1/m`` (1-based ``m``): the pair density is within
    ``1/m`` of ``||W_m||_1 / t_m^2``, and the heuristic stretched cut distance
    between the sample's canonical graphon and the restriction ``W_m`` is at
    most ``1/m``.  Rows with no qualifying ``n`` are reported as gaps.
    ``W_m`` is :func:`core.restrict` of ``W``, with a ``RankOneExp`` kept as
    its midpoint factor, so no ``resolution x resolution`` array is formed.

    The grid and ``restarts`` are checked first: an empty row, or one whose
    cells differ in ``t_m``, raises :class:`ScheduleError`.  Then each row's
    search is one task on the package's thread pool (``cutmetric._map``),
    where its cuts run unsplit; the rows are put together in row order, and
    the first failing row's error is raised.  Rows run concurrently, so the
    DEBUG records of different rows may interleave.
    """
    if not grid or not grid[0]:
        raise ScheduleError("empty sampling grid")
    for m, row in enumerate(grid, 1):
        if not row:
            raise ScheduleError(f"row {m} of the sampling grid is empty")
        if any(cell.points.t_m != row[0].points.t_m for cell in row):
            raise ScheduleError(f"the cells of row {m} of the sampling grid differ in t_m")
    # the rows' own check, made before any row runs or finds no cell to cut
    cutmetric._check_alignment_args("degree_sort", 2, restarts)
    picks = cutmetric._map(_pick_row, [(m, row, w, resolution, restarts, seed)
                                       for m, row in enumerate(grid, 1)],
                           [row[0].graph.edge_count for row in grid])
    out = SparseSubsequenceSpec()
    for m, (target, pick) in enumerate(picks, 1):
        if pick is None:
            out.gaps.append((m, f"no grid entry within 1/{m} of density "
                                f"{target!r} and distance tolerance"))
        else:
            out.phi[m] = pick[2]
            out.rows.append(pick)
    return out


def _pick_row(m: int, row, w: GraphonSpec, resolution: int, restarts: int,
              seed: int) -> tuple:
    """``(target, pick)`` for row ``m`` of :func:`extract_sparse_subsequence`:
    the density limit and the first cell meeting both criteria, as a row
    ``(m, t_m, n, density, target, distance)``, or ``None``."""
    tol = 1.0 / m
    t_m = row[0].points.t_m
    target = core.l1_restricted(w, t_m) / t_m**2
    wm = core._restrict(w, t_m, resolution)
    for cell in row:
        dens = pair_density(cell.graph)
        # a zero canonical graphon cannot be stretched
        if abs(dens - target) > tol or cell.graph.edge_count == 0:
            continue
        dist = stretched_cut_distance(cell.canonical(), wm, mode="degree_sort",
                                      restarts=restarts, seed=seed).distance
        if dist <= tol:
            return target, (m, t_m, cell.points.n, dens, target, dist)
    return target, None


def sample_signal(f, points: SamplePoints) -> StepSignal:
    """Canonical step function of a signal sampled at the given points.

    ``f`` may be a :class:`StepSignal` or any callable; the output lives on
    ``[0, 1]`` with ``n`` equal steps, step ``i`` carrying ``f(x_i)``.
    """
    if isinstance(f, StepSignal):
        return StepSignal(f.eval(points.xs), 1.0, f.bound)
    return StepSignal(f(points.xs), 1.0)


def grow_subgraphs(g: Graph, schedule: GrowthSchedule, seed: int) -> list:
    """Grow nested vertex subsets by uniform batches and take induced subgraphs.

    Vertex subsets are nested before isolation removal; with
    ``drop_isolated`` every step removes isolated vertices and renumbers
    consecutively, returning the old ids in each :class:`GrowthStep`.
    """
    total = schedule.batch * schedule.steps
    if total > g.n:
        raise ScheduleError(
            f"schedule needs {total} vertices but the graph has {g.n}")
    order = substream(seed, 0x60).permutation(g.n)
    sizes = schedule.batch * np.arange(1, schedule.steps + 1)
    return [GrowthStep(sub, kept) for sub, kept in
            core._nested_subgraphs(g, order, sizes, schedule.drop_isolated)]


def dense_core_graph(n: int, alpha: float) -> Graph:
    """Sparse benchmark graph: a clique on ``floor(n^((1+alpha)/2))``
    vertices, everything else isolated.

    The edge density decays like ``n^(alpha - 1)``, so the sequence is
    sparse for every ``alpha`` in ``(0, 1)`` while its stretched canonical
    graphon converges to the unit-square indicator.  It is
    :func:`core_periphery_graph` with ``p = 1``.
    """
    return core_periphery_graph(n, alpha, 1.0, 0)


def core_periphery_graph(n: int, alpha: float, p: float, seed: int) -> Graph:
    """Dense-core variant with Bernoulli(p) core edges instead of a clique.

    A complete core has minimal polynomial of degree 2, which makes filter
    designs of higher degree exactly singular; the Bernoulli core keeps the
    same sparsity profile with a generic spectrum.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    if n < 1:
        raise ValueError("n must be positive")
    k = max(1, int(math.floor(n ** ((1.0 + alpha) / 2.0))))
    if k < 2:
        return Graph(n, np.zeros((0, 2), dtype=np.int64))
    rng = substream(seed, 0xC0DE)
    iu = np.triu_indices(k, 1)
    keep = rng.random(iu[0].size) < p
    return Graph(n, np.column_stack([iu[0][keep], iu[1][keep]]).astype(np.int64))
