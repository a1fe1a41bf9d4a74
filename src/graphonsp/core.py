"""Core value types: graphs, step graphons, the analytic rank-one family, signals.

All objects are immutable after construction and safe to share across
threads.  Step graphons live on a uniform grid over ``[0, t]^2``, hold their
values as one read-only canonical CSR matrix and carry exact 1- and 2-norms;
the analytic family carries closed-form norms and pointwise evaluation so
that discretization error never enters silently.
"""

from __future__ import annotations

import io
import math
import numbers
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Union

import numpy as np
import scipy.sparse as sp

from .errors import (
    EmptyGraphError,
    IsolatedVertexError,
    StepRequiredError,
    SupportMismatchError,
    ZeroGraphonError,
)

__all__ = [
    "Graph",
    "StepGraphon",
    "SignedStepGraphon",
    "ConstantBox",
    "RankOneExp",
    "CelebrityLimit",
    "GraphonSpec",
    "StepSignal",
    "StretchTag",
    "canonical_graphon",
    "normalized_graphon",
    "stretch",
    "unstretch_step",
    "stretch_signal",
    "restrict",
    "as_step",
    "l1_restricted",
    "step_difference",
    "l1_distance",
    "union_grid",
    "read_edge_list",
    "write_edge_list",
]

# Largest grid accepted as an exact common refinement; it bounds the sparse
# lift of a dense input onto the refinement at k^2 stored entries.
_MAX_REFINE_CELLS = 4096

# Largest vertex count n whose edge keys lo * n + hi < n^2 fit in int64.
_MAX_VERTICES = math.isqrt(2**63 - 1)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

class Graph:
    """Sparse undirected simple graph.

    Edges are stored as a deduplicated ``(m, 2)`` integer array with
    ``i < j`` per row, sorted lexicographically.  Construction accepts any
    iterable of vertex pairs (either orientation) or such an array.
    """

    __slots__ = ("n", "edge_array")

    def __init__(self, n: int, edges: Union[Iterable, np.ndarray]):
        n = int(n)
        if not 0 <= n <= _MAX_VERTICES:
            raise ValueError(f"vertex count must lie in [0, {_MAX_VERTICES}], got {n}")
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if arr.dtype.kind in "iu":
            arr = arr.astype(np.int64, copy=False)
        else:
            with np.errstate(invalid="ignore"):
                ints = arr.astype(np.int64)
            if not np.array_equal(ints, arr):
                raise ValueError("edge endpoints must be integers")
            arr = ints
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be pairs of vertex indices")
        if np.any(arr[:, 0] == arr[:, 1]):
            raise ValueError("self-loops are not allowed")
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("edge endpoint out of range")
        # one int64 key per edge orders rows as (lo, hi) lexicographically;
        # rows already in that order, without repeats, need no sort
        key = np.minimum(arr[:, 0], arr[:, 1]) * n + np.maximum(arr[:, 0], arr[:, 1])
        if np.any(key[1:] <= key[:-1]):
            key = np.sort(key)
            key = key[np.diff(key, prepend=-1) > 0]
        self.n = n
        self.edge_array = np.empty((key.size, 2), dtype=np.int64)
        np.divmod(key, n, out=(self.edge_array[:, 0], self.edge_array[:, 1]))
        self.edge_array.setflags(write=False)

    @property
    def edges(self) -> set:
        """Edge set as unordered pairs ``(i, j)`` with ``i < j``."""
        return {(int(i), int(j)) for i, j in self.edge_array}

    @property
    def edge_count(self) -> int:
        return self.edge_array.shape[0]

    @property
    def edge_density(self) -> float:
        """|E| / n^2, the sparsity measure driving the whole theory."""
        if self.n == 0:
            return 0.0
        return self.edge_count / self.n**2

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.n)

    def adjacency(self) -> sp.csr_matrix:
        """Adjacency matrix in canonical CSR form (sorted indices, no duplicates)."""
        n, e = self.n, self.edge_array
        # the canonical rows (i, j), i < j, are the upper triangle in CSR
        # order; adding its transpose, a counting sort, takes O(n + |E|)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(e[:, 0], minlength=n))])
        upper = sp.csr_matrix((np.ones(e.shape[0]), e[:, 1], indptr), shape=(n, n))
        return upper + upper.T

    def induced_subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns the relabeled graph together with the array of original
        vertex ids, ordered so that new index ``i`` is ``kept[i]``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and (vertices.min() < 0 or vertices.max() >= self.n):
            raise ValueError("vertex id out of range")
        mask = np.zeros(self.n, dtype=bool)
        mask[vertices] = True
        e = self.edge_array
        return _relabel(np.compress(mask[e[:, 0]] & mask[e[:, 1]], e, axis=0), mask)

    def drop_isolated(self) -> tuple["Graph", np.ndarray]:
        """Remove isolated vertices; returns (graph, original ids kept)."""
        return _relabel(self.edge_array.copy(), self.degrees() > 0)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.edge_array, other.edge_array))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _relabel(edges: np.ndarray, mask: np.ndarray) -> tuple[Graph, np.ndarray]:
    """The graph on the vertices in ``mask``, renumbered in id order, with
    the canonical ``edges`` among them, and the old ids.  The renumbering is
    increasing, so the rows stay canonical and :class:`Graph` skips its sort.
    ``edges`` is renumbered in place, so no second copy outlives this call.
    """
    kept = np.flatnonzero(mask)
    np.take(np.cumsum(mask) - 1, edges, out=edges)
    return Graph(kept.size, edges), kept


def _nested_subgraphs(g: Graph, order: np.ndarray, sizes, drop_isolated: bool = False):
    """Yield ``(graph, kept)`` of ``g.induced_subgraph(order[:m])`` for each
    ``m`` in ``sizes``, then ``drop_isolated()`` if asked, from one pass over
    the edges.

    An edge belongs to every prefix from its birth ``max(rank[i], rank[j])``
    on, where ``rank`` is a vertex's position in ``order``; a vertex enters
    at its rank, or under ``drop_isolated`` with its first edge.  Steps are
    made one at a time, so only the current one is held.
    """
    rank = np.full(g.n, g.n, dtype=np.int64)
    rank[order] = np.arange(len(order))
    e = g.edge_array
    birth = np.maximum(rank[e[:, 0]], rank[e[:, 1]])
    entry = rank
    if drop_isolated:
        entry = np.full(g.n, g.n, dtype=np.int64)
        np.minimum.at(entry, e[:, 0], birth)
        np.minimum.at(entry, e[:, 1], birth)
    for m in sizes:
        # np.compress is faster than e[birth < m]
        yield _relabel(np.compress(birth < m, e, axis=0), entry < m)


# ---------------------------------------------------------------------------
# step graphons
# ---------------------------------------------------------------------------

class _StepBase:
    """Values on a ``k x k`` grid, whatever the input (an ndarray, a nested
    list or a sparse matrix): a read-only ``csr_matrix`` in canonical form
    (float64, duplicates summed, explicit zeros dropped, indices sorted)."""

    __slots__ = ("k", "t", "values", "value_bound")

    def __init__(self, values, t: float, value_bound: float):
        shape = np.shape(values)
        if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
            raise ValueError("values must be a nonempty square matrix")
        values = sp.csr_matrix(values, dtype=np.float64, copy=True)
        values.sum_duplicates()  # also sorts the indices
        values.eliminate_zeros()
        # sparse == would warn (it is true on every implicit zero); != is not
        if (values != values.T).nnz:
            raise ValueError("values must be symmetric")
        self._set(values, _check_length(t, "support length t"), value_bound)
        self._check_bound()

    def _set(self, values: sp.csr_matrix, t: float, value_bound: float) -> None:
        self.k, self.t, self.values = values.shape[0], float(t), values
        for a in (values.data, values.indices, values.indptr):
            a.setflags(write=False)
        self.value_bound = float(value_bound)

    @classmethod
    def _trusted(cls, values: sp.csr_matrix, t: float, value_bound: float):
        """An instance on ``values`` as they are, with none of the
        constructor's checks: the caller guarantees a canonical float64 CSR
        matrix, symmetric and within the class's sign and ``value_bound``,
        and a valid ``t``, and gives it up (its arrays are made read-only)."""
        out = object.__new__(cls)
        out._set(values, t, value_bound)
        return out

    def _check_bound(self):
        raise NotImplementedError

    def _with_support(self, t: float):
        """The same validated, read-only values on ``[0, t]^2``, not re-checked."""
        return self._trusted(self.values, _check_length(t, "support length t"),
                             self.value_bound)

    @property
    def cell_width(self) -> float:
        return self.t / self.k

    @property
    def l1_norm(self) -> float:
        return self.cell_width**2 * float(np.abs(self.values.data).sum())

    @property
    def l2_norm(self) -> float:
        return self.cell_width * math.sqrt(float((self.values.data ** 2).sum()))

    @property
    def support_length(self) -> float:
        return self.t

    def eval(self, x, y):
        """Pointwise evaluation; zero outside ``[0, t]^2``."""
        i, j = _cell_index(self, x), _cell_index(self, y)
        out = np.where((i >= 0) & (j >= 0), _at(self.values, i, j), 0.0)
        return out if out.ndim else float(out)

    def __repr__(self):
        return f"{type(self).__name__}(k={self.k}, t={self.t!r})"


class StepGraphon(_StepBase):
    """Piecewise-constant symmetric nonnegative function on ``[0, t]^2``."""

    @property
    def l1_norm(self) -> float:
        # values are nonnegative: same sum as |values|, without a copy of the data
        return self.cell_width**2 * float(self.values.data.sum())

    def _check_bound(self):
        # initial=0 counts the implicit zeros (and reads no stored value
        # when there is none)
        v = self.values.data
        if v.min(initial=0.0) < 0:
            raise ValueError("step graphon values must be nonnegative")
        if v.max(initial=0.0) > self.value_bound:
            raise ValueError("value exceeds the stated bound")


class ConstantBox(StepGraphon):
    """``p`` on ``[0, s]^2`` and zero elsewhere: the one-cell step graphon.

    Equal to, and hashed as, any box with the same ``p`` and ``s``."""

    def __init__(self, p: float, s: float):
        if not (0.0 <= p <= 1.0):
            raise ValueError("p must lie in [0, 1]")
        if not (s > 0):
            raise ValueError("side length must be positive")
        super().__init__([[p]], s, p if p > 0 else 1.0)

    @property
    def p(self) -> float:
        return float(self.values.sum())

    @property
    def s(self) -> float:
        return self.t

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.s) == (other.p, other.s)

    def __hash__(self):
        return hash((self.p, self.s))

    def __repr__(self):
        return f"ConstantBox(p={self.p!r}, s={self.s!r})"


class SignedStepGraphon(_StepBase):
    """Step graphon allowed to take negative values (differences W1 - W2)."""

    def _check_bound(self):
        if np.abs(self.values.data).max(initial=0.0) > self.value_bound:
            raise ValueError("absolute value exceeds the stated bound")


class _RankOneStep:
    """The rank-one step graphon ``v v'`` on ``k`` equal cells of ``[0, t]^2``,
    held as its read-only factor ``v``: the midpoint sample of a
    :class:`RankOneExp`, with ``O(k)`` storage where a :class:`StepGraphon`
    stores ``k^2`` values.  :meth:`to_step` forms those values, bit for bit
    the products ``v_i * v_j``; the checks are :class:`StepGraphon`'s on
    them: ``v >= 0`` and ``max_i v_i^2 <= value_bound``."""

    __slots__ = ("k", "t", "factor", "value_bound")

    def __init__(self, factor: np.ndarray, t: float, value_bound: float):
        factor = np.array(factor, dtype=np.float64)
        if factor.ndim != 1 or not factor.size:
            raise ValueError("the factor must be a nonempty vector")
        if factor.min() < 0:
            raise ValueError("step graphon values must be nonnegative")
        if factor.max() ** 2 > value_bound:
            raise ValueError("value exceeds the stated bound")
        factor.setflags(write=False)
        self.k, self.t = factor.size, float(_check_length(t, "support length t"))
        self.factor, self.value_bound = factor, float(value_bound)

    @property
    def cell_width(self) -> float:
        return self.t / self.k

    @property
    def l1_norm(self) -> float:
        return (self.cell_width * float(self.factor.sum())) ** 2

    def _with_support(self, t: float) -> "_RankOneStep":
        return _RankOneStep(self.factor, t, self.value_bound)

    def to_step(self) -> StepGraphon:
        return StepGraphon(np.outer(self.factor, self.factor), self.t, self.value_bound)


# ---------------------------------------------------------------------------
# analytic families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankOneExp:
    """Separable exponential kernel ``g(x) g(y)`` with ``g(x) = c exp(-lam x)``.

    Closed forms: 1-norm ``(c / lam)^2``, 2-norm ``c^2 / (2 lam)``.
    """

    c: float
    lam: float

    def __post_init__(self):
        if not (self.c > 0 and self.lam > 0):
            raise ValueError("amplitude and decay rate must be positive")

    @property
    def l1_norm(self) -> float:
        return (self.c / self.lam) ** 2

    @property
    def l2_norm(self) -> float:
        return self.c**2 / (2.0 * self.lam)

    @property
    def value_bound(self) -> float:
        return self.c**2

    @property
    def support_length(self) -> float:
        return math.inf

    def profile(self, x):
        """The factor ``g(x) = c exp(-lam x)``."""
        return self.c * np.exp(-self.lam * np.asarray(x, dtype=np.float64))

    def eval(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        out = np.where((x >= 0) & (y >= 0), self.profile(x) * self.profile(y), 0.0)
        return out if out.ndim else float(out)

    def l1_restricted(self, t_m: float) -> float:
        return (self.c * (1.0 - math.exp(-self.lam * t_m)) / self.lam) ** 2


def CelebrityLimit() -> ConstantBox:
    """Indicator of the unit square, the limit of dense-core sequences."""
    return ConstantBox(1.0, 1.0)


GraphonSpec = Union[StepGraphon, RankOneExp]


def l1_restricted(w: GraphonSpec, t_m: float) -> float:
    """1-norm of ``W`` restricted to ``[0, t_m]^2`` (exact for every variant)."""
    if not (t_m > 0):
        raise ValueError("t_m must be positive")
    if isinstance(w, _StepBase):
        if t_m >= w.t:
            return w.l1_norm
        c = np.clip(t_m - _edges(w)[:-1], 0.0, w.cell_width)  # widths inside [0, t_m]
        return float(c @ (abs(w.values) @ c))
    return w.l1_restricted(t_m)


# ---------------------------------------------------------------------------
# signals
# ---------------------------------------------------------------------------

class StepSignal:
    """Piecewise-constant function on ``[0, t]`` with ``k`` equal steps."""

    __slots__ = ("k", "t", "values", "bound")

    def __init__(self, values: np.ndarray, t: float, bound: float | None = None):
        values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty vector")
        _check_length(t, "support length t")
        if bound is None:
            bound = float(np.abs(values).max())
        elif np.abs(values).max() > bound:
            raise ValueError("signal value exceeds the stated bound")
        self.k = values.size
        self.t = float(t)
        self.values = values
        self.values.setflags(write=False)
        self.bound = float(bound)

    @property
    def cell_width(self) -> float:
        return self.t / self.k

    @property
    def l1_norm(self) -> float:
        return self.cell_width * float(np.abs(self.values).sum())

    @property
    def l2_norm(self) -> float:
        return math.sqrt(self.cell_width * float((self.values**2).sum()))

    def eval(self, x):
        i = _cell_index(self, x)
        out = np.where(i >= 0, self.values[i], 0.0)
        return out if out.ndim else float(out)

    def edges(self) -> np.ndarray:
        """Cell boundary positions, length ``k + 1``."""
        return _edges(self)

    def __repr__(self):
        return f"StepSignal(k={self.k}, t={self.t!r})"


# ---------------------------------------------------------------------------
# stretch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StretchTag:
    """Record of a stretch: factor ``r`` plus the original support length.

    Keeping the original support lets ``unstretch_step`` undo the rescale
    bit-exactly, which a floating-point multiply by ``r`` cannot guarantee.
    """

    factor: float
    original_support: float | None = None

    def __post_init__(self):
        if not (self.factor > 0):
            raise ValueError("stretch factor must be positive")


def stretch(w: GraphonSpec) -> tuple[GraphonSpec, StretchTag]:
    """Stretch ``W`` by ``r = sqrt(||W||_1)`` so the result has unit 1-norm.

    The domain rescales ``W^s(x, y) = W(r x, r y)``; values are untouched.
    """
    l1 = w.l1_norm
    if l1 <= 0.0:
        raise ZeroGraphonError("cannot stretch a graphon with zero 1-norm")
    r = math.sqrt(l1)
    if isinstance(w, (_StepBase, _RankOneStep)):
        return w._with_support(w.t / r), StretchTag(r, w.t)
    if isinstance(w, RankOneExp):
        # g(r x) = c exp(-(lam r) x): same family, faster decay.
        return RankOneExp(w.c, w.lam * r), StretchTag(r, None)
    raise TypeError(f"not a graphon spec: {type(w).__name__}")


def unstretch_step(w: _StepBase, tag: StretchTag) -> _StepBase:
    """Undo a stretch on a step graphon, restoring the original support."""
    if tag.original_support is None:
        raise ValueError("tag does not record the original support")
    return w._with_support(tag.original_support)


def stretch_signal(f: StepSignal, r: float) -> StepSignal:
    """Rescale the domain of ``f`` by ``r``: ``f^r(x) = f(r x)``."""
    if not (r > 0):
        raise ValueError("stretch factor must be positive")
    return StepSignal(f.values, f.t / r, f.bound)


# ---------------------------------------------------------------------------
# canonical constructions
# ---------------------------------------------------------------------------

def canonical_graphon(g: Graph) -> StepGraphon:
    """Step-function embedding of the adjacency structure into ``[0, 1]^2``.

    Its 1-norm is ``2 |E| / n^2``, twice the edge density.
    """
    if g.n == 0:
        raise EmptyGraphError("canonical graphon of the empty graph is undefined")
    # a fresh adjacency is canonical, symmetric and 0/1: nothing to check
    return StepGraphon._trusted(g.adjacency(), 1.0, 1.0)


def normalized_graphon(g: Graph) -> StepGraphon:
    """Degree-normalized embedding: ``1 / (d_i d_j)`` on edge cells."""
    if g.n == 0:
        raise EmptyGraphError("normalized graphon of the empty graph is undefined")
    d = g.degrees()
    bad = np.nonzero(d == 0)[0]
    if bad.size:
        raise IsolatedVertexError(f"vertex {int(bad[0])} is isolated")
    values = g.adjacency()
    rows = np.repeat(np.arange(g.n), np.diff(values.indptr))
    # symmetric, as the product commutes, and in (0, 1]
    values.data = 1.0 / (d[rows] * d[values.indices])
    return StepGraphon._trusted(values, 1.0, 1.0)


# ---------------------------------------------------------------------------
# restriction / discretization
# ---------------------------------------------------------------------------

def restrict(w: GraphonSpec, t_m: float, resolution: int | None = None) -> StepGraphon:
    """Restrict ``W`` to ``[0, t_m]^2`` and rescale onto ``[0, 1]^2``.

    For step inputs (a ``ConstantBox`` among them) whose grid is exactly
    commensurable with ``t_m`` the result is an exact sub-grid extraction;
    ``RankOneExp`` (and other step inputs) are midpoint-sampled on a
    ``resolution``-cell grid, which must then be supplied explicitly.
    """
    out = _restrict(w, t_m, resolution)
    return out.to_step() if isinstance(out, _RankOneStep) else out


def _restrict(w: GraphonSpec, t_m: float, resolution: int | None):
    """:func:`restrict`, with a ``RankOneExp`` kept as a :class:`_RankOneStep`."""
    _check_length(t_m, "t_m")
    if isinstance(w, _StepBase):
        k = _refinement(t_m, w)
        if k is not None:  # exact sub-grid extraction
            return StepGraphon(_on_uniform(w, k, t_m), 1.0, w.value_bound)
        # fall through to midpoint sampling
    if resolution is None:
        raise ValueError("a discretization resolution is required for this input")
    mids = _midpoints(t_m, resolution)
    if isinstance(w, RankOneExp):
        return _RankOneStep(w.profile(mids), 1.0, w.value_bound)
    return StepGraphon(w.eval(mids[:, None], mids[None, :]), 1.0, w.value_bound)


def as_step(w: GraphonSpec, resolution: int | None = None,
            support: float | None = None) -> StepGraphon:
    """Exact step representation where one exists, else a midpoint sample.

    A ``StepGraphon`` (a ``ConstantBox`` among them) is returned as it is;
    ``RankOneExp`` needs ``resolution`` and a support cutoff (default
    ``40 / lam``, beyond which the mass is far below double precision).
    """
    if isinstance(w, StepGraphon):
        return w
    if isinstance(w, SignedStepGraphon):
        raise TypeError("signed step graphons are already step representations")
    if isinstance(w, RankOneExp):
        return _rank_one_step(w, resolution, support).to_step()
    raise TypeError(f"not a graphon spec: {type(w).__name__}")


def _rank_one_step(w: RankOneExp, resolution: int | None,
                   support: float | None = None) -> _RankOneStep:
    """:func:`as_step` of a ``RankOneExp``, kept as its factor."""
    if resolution is None:
        raise StepRequiredError("RankOneExp has no exact step form; pass a resolution")
    t_cut = _check_length(support, "support") if support is not None else 40.0 / w.lam
    return _RankOneStep(w.profile(_midpoints(t_cut, resolution)), t_cut, w.value_bound)


def _check_length(x: float, name: str) -> float:
    """``x``, a support length, if it is positive and finite; else a
    ``ValueError`` naming it."""
    if not (0 < x < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {x!r}")
    return x


def _midpoints(span: float, resolution) -> np.ndarray:
    """Midpoints of ``resolution`` equal cells of ``[0, span]``; the
    resolution must pass :func:`_check_resolution`."""
    resolution = _check_resolution(resolution)
    return (np.arange(resolution) + 0.5) * (span / resolution)


def _check_resolution(resolution):
    """``resolution``, a cell count, if it is an integer (not a ``bool``) of
    at least 1; else a ``TypeError`` or ``ValueError`` naming it."""
    if isinstance(resolution, bool) or not isinstance(resolution, numbers.Integral):
        raise TypeError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution!r}")
    return resolution


# ---------------------------------------------------------------------------
# exact arithmetic on pairs of step graphons
# ---------------------------------------------------------------------------

def union_grid(a: _StepBase, b: _StepBase):
    """Exact common (possibly nonuniform) grid for two step graphons.

    Returns ``(widths, idx_a, idx_b)``: cell widths of the union grid
    covering ``[0, max(ta, tb)]`` and, per input, the input's own cell under
    each union cell (``-1`` outside its support).  No resampling occurs.
    """
    T = max(a.t, b.t)
    bp = np.unique(np.concatenate([_edges(a), _edges(b)]))
    # merge breakpoints closer than the float noise of their own magnitude
    # so widths stay positive, and a short support keeps its cells
    keep = np.concatenate([[True], np.diff(bp) > 1e-12 * np.maximum(1.0, bp[1:])])
    bp = bp[keep]
    if bp[-1] < T:
        bp = np.append(bp, T)
    mids = (bp[:-1] + bp[1:]) / 2.0
    return np.diff(bp), _cell_index(a, mids), _cell_index(b, mids)


def _refinement(span: float, *grids) -> int | None:
    """Cells of the coarsest uniform grid on ``[0, span]`` refining every grid.

    Each grid is a step object (support ``t``, ``k`` cells).  The new cell
    width is the exact gcd of ``span`` and every ``Fraction(t) / k``, with
    no tolerance; ``None`` when it needs over ``_MAX_REFINE_CELLS`` cells.
    """
    widths = [Fraction(span)] + [Fraction(g.t) / g.k for g in grids]
    den = math.lcm(*(w.denominator for w in widths))
    nums = [w.numerator * (den // w.denominator) for w in widths]
    k = nums[0] // math.gcd(*nums)
    return k if k <= _MAX_REFINE_CELLS else None


def _on_uniform(w, k: int, span: float):
    """Values of a step graphon or signal on the ``k``-cell grid over ``[0, span]``.

    Each new cell reads the cell of ``w`` under its midpoint (zero beyond
    ``w``'s support), which is exact when the new grid refines ``w``'s.  A
    graphon comes back sparse (its own ``values`` on its own grid, else its
    :func:`_lift`), a signal as a dense vector.  A :class:`_RankOneStep` is
    formed first, so read one only onto a grid that refines it: it then has
    at most ``k`` cells.
    """
    if isinstance(w, _RankOneStep):
        w = w.to_step()
    if w.k == k and w.t == span:
        return w.values
    idx = _cell_index(w, (np.arange(k) + 0.5) * (span / k))
    if w.values.ndim == 1:
        return np.where(idx >= 0, w.values[idx], 0.0)
    return _lift(w, idx)


def _select(idx: np.ndarray, cells: int, weights=None) -> sp.csr_matrix:
    """The ``cells x idx.size`` selection matrix with ``weights[u]`` (1 by
    default) at ``(idx[u], u)`` wherever ``idx[u] >= 0``."""
    inside = np.nonzero(idx >= 0)[0]
    data = np.ones(inside.size) if weights is None else weights[inside]
    return sp.csr_matrix((data, (idx[inside], inside)), shape=(cells, idx.size))


def _lift(w: _StepBase, idx: np.ndarray, weights=None) -> sp.spmatrix:
    """``Q' V Q`` for the values ``V`` of ``w`` and ``Q = _select(idx, w.k,
    weights)``, never dense: entry ``(u, v)`` is the one stored value
    ``V[idx[u], idx[v]]`` times ``weights[u] * weights[v]``, zero at an index -1."""
    Q = _select(idx, w.k, weights)
    return Q.T @ w.values @ Q


def _edges(w) -> np.ndarray:
    """Cell boundaries of a step graphon or signal: ``i * (t / k)`` for
    ``i < k``, then exactly ``t``."""
    return np.append(np.arange(w.k) * w.cell_width, w.t)


def _cell_index(w, x) -> np.ndarray:
    """Cell of a step graphon or signal holding each position: ``floor(x / h)``
    for ``h = t / k``, the last cell at ``x = t``, and ``-1`` outside
    ``[0, t]`` or at NaN.

    The floor is read off the breakpoints of :func:`_edges`, so cell ``i``
    is exactly ``[e_i, e_{i+1})``; a rounded quotient ``x / h`` puts about
    one breakpoint ``e_i`` in twenty into cell ``i - 1``.  No float is cast
    to an integer, so no position, however far out, can overflow one.
    """
    x = np.asarray(x, dtype=np.float64)
    cell = np.searchsorted(_edges(w)[1:-1], x, side="right")
    return np.where((x >= 0) & (x <= w.t), cell, -1)


def _at(values: sp.csr_matrix, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Elementwise ``values[i, j]`` for broadcastable index arrays."""
    i, j = np.broadcast_arrays(i, j)
    out = values[i.ravel(), j.ravel()]
    # a (1, m) np.matrix, or a sparse (1, 0) matrix when no index is given
    return np.asarray(out.toarray() if sp.issparse(out) else out).reshape(i.shape)


def step_difference(a: _StepBase, b: _StepBase,
                    resolution: int | None = None) -> SignedStepGraphon:
    """Difference ``a - b`` as a signed step graphon on a uniform grid.

    Exact when the two grids share a uniform refinement (see
    :func:`_refinement`); otherwise midpoint-resampled at ``resolution``
    cells, which must then be supplied, an integer of at least 1.
    """
    T = max(a.t, b.t)
    k = _refinement(T, a, b)
    if k is None:
        if resolution is None:
            raise SupportMismatchError(
                "grids share no uniform refinement; pass a resolution to resample")
        k = _check_resolution(resolution)
    bound = a.value_bound + b.value_bound
    return SignedStepGraphon(_on_uniform(a, k, T) - _on_uniform(b, k, T), T,
                             bound if bound > 0 else 1.0)


def l1_distance(a: _StepBase, b: _StepBase) -> float:
    """Exact ``||a - b||_1`` for two step graphons on arbitrary grids."""
    widths, ia, ib = union_grid(a, b)
    return float(abs(_lift(a, ia, widths) - _lift(b, ib, widths)).sum())


# ---------------------------------------------------------------------------
# edge-list files
# ---------------------------------------------------------------------------

# a line holding more than whitespace and a comment, from its first token on
_DATA_LINE = re.compile(r"^[^\S\n]*([^\s#].*)$", re.M)
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def read_edge_list(path) -> Graph:
    """Read a whitespace-separated edge list of decimal vertex id pairs.

    ``#`` starts a comment.  A first line ``n <count>`` fixes the vertex
    count; otherwise it is ``max id + 1``.  Duplicate and reversed edges
    are deduplicated; a malformed line raises ``ValueError`` naming it.
    """
    text = Path(path).read_text(encoding="utf-8")
    first = _DATA_LINE.search(text)
    head = first.group(1).split("#", 1)[0].split() if first else []
    n = None
    if len(head) == 2 and head[0] == "n" and _DECIMAL.fullmatch(head[1]):
        n, text = int(head[1]), text[first.end():]
    if not _DATA_LINE.search(text):  # no edges, on which loadtxt would warn
        return Graph(n or 0, [])
    try:
        with warnings.catch_warnings():  # older numpy parses "1.5" via a float and warns
            warnings.simplefilter("error", DeprecationWarning)
            arr = np.loadtxt(io.StringIO(text), dtype=np.int64, comments="#", ndmin=2)
        if arr.shape[1] != 2:
            raise ValueError("edge lines must hold two vertex ids")
    except ValueError:
        # failure path only: name the first line that is not two int64 ids
        for line in text.split("\n"):
            tokens = line.split("#", 1)[0].split()
            if tokens and not (len(tokens) == 2 and all(
                    _DECIMAL.fullmatch(t) and -2**63 <= int(t) < 2**63 for t in tokens)):
                raise ValueError(f"malformed edge line: {line.strip()!r}") from None
        raise
    return Graph(int(arr.max()) + 1 if n is None else n, arr)


_WRITE_ROWS = 1 << 16   # edge rows formatted per write


def write_edge_list(g: Graph, path) -> None:
    """Write a graph in the edge-list format, with an ``n`` header line.

    Rows are formatted ``_WRITE_ROWS`` at a time, so the memory it takes
    does not grow with the edge count."""
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(f"n {g.n}\n".encode("ascii"))
        for start in range(0, g.edge_count, _WRITE_ROWS):
            fh.write(_edge_lines(g.edge_array[start:start + _WRITE_ROWS]))


def _edge_lines(edges: np.ndarray) -> bytes:
    """``b"i j\\n"`` for every row of a nonnegative ``m x 2`` integer array.

    The decimal digits of all endpoints are written into one byte buffer at
    once, so the cost is a few array passes rather than one Python-level
    write per edge.  Every number gets every digit place, from the most
    significant down, with one integer division per place; a number shorter
    than the place writes a leading zero before its first digit, on a byte
    of an earlier number that a later place or the separators, written
    last, rewrite (the first number's land on padding).
    """
    flat = edges.ravel()
    if not flat.size:
        return b""
    places = len(str(int(flat.max())))
    ndigits = np.ones(flat.size, dtype=np.int64)
    for d in range(1, places):
        ndigits += flat >= 10**d
    at = np.cumsum(ndigits + 1)        # every number ends in a separator
    del ndigits
    buf = np.empty(places - 1 + int(at[-1]), dtype=np.uint8)
    # after places - 1 bytes of padding, each number's most significant place
    at -= 2
    high = np.zeros_like(flat)                   # flat // 10**(d + 1)
    for d in range(places - 1, -1, -1):
        q = flat // 10**d
        high *= 10
        buf[at] = np.subtract(q, high, out=high)  # the digit at place d
        high = q
        at += 1
    buf += ord("0")
    buf[at] = np.tile(np.frombuffer(b" \n", dtype=np.uint8), edges.shape[0])
    return buf[places - 1:].tobytes()
