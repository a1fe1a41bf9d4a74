import itertools
import logging
import multiprocessing
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import graphonsp as gsp
from graphonsp import core, cutmetric
from graphonsp.core import union_grid
from graphonsp.cutmetric import _degree_sort_perm, _relabel, _Stored, _UnionKernel
from graphonsp.errors import ResolutionTooLargeError, SupportMismatchError
from graphonsp.rng import substream

from helpers import (batched_heuristic_cut, brute_force_cut_norm,
                     dense_core_stretched_l1,
                     plain_local_search, quadrature_l1_between,
                     random_step_graphon, rowwise_exact_cut,
                     sequential_heuristic_cut, signed_parts_exact_value,
                     sorted_cut_value, values_at_cell_midpoints)


def stretched_clique(k):
    iu = np.triu_indices(k, 1)
    ws, _ = gsp.stretch(gsp.canonical_graphon(gsp.Graph(k, np.column_stack(iu))))
    return ws


def heuristic(matmat, k, restarts, rng):
    """The library heuristic from ``restarts`` starts on ``k`` cells drawn
    from ``rng`` as ``_cut`` draws them."""
    return cutmetric._bilinear_max_heuristic(matmat, (rng.random((restarts, k)) < 0.5).T)


def two_block_adjacency(rng, n, m_in, m_out):
    """0/1 adjacency with ``m_in`` edges inside and ``m_out`` across two
    blocks of ``n // 2`` and ``n - n // 2`` vertices, labels shuffled."""
    iu = np.triu_indices(n, 1)
    inside = (iu[0] < n // 2) == (iu[1] < n // 2)
    pick = np.concatenate([
        rng.choice(np.flatnonzero(inside), size=m_in, replace=False),
        rng.choice(np.flatnonzero(~inside), size=m_out, replace=False)])
    labels = rng.permutation(n)
    A = np.zeros((n, n))
    A[labels[iu[0][pick]], labels[iu[1][pick]]] = 1.0
    return A + A.T


def scrambled_dense_core(n=2000):
    """Dense-core graph with isolated vertices kept and labels scrambled."""
    g = gsp.dense_core_graph(n, 0.5)
    perm = substream(8, 1).permutation(g.n)
    return gsp.Graph(g.n, np.column_stack([perm[g.edge_array[:, 0]],
                                           perm[g.edge_array[:, 1]]]))


def shuffled_clique_core(n, seed):
    """A clique on ``floor(n^(3/4))`` of ``n`` vertices, labels shuffled."""
    k = int(np.floor(n ** 0.75))
    iu = np.triu_indices(k, 1)
    labels = substream(seed, 0xC1).permutation(n)
    return gsp.Graph(n, np.column_stack([labels[iu[0]], labels[iu[1]]]))


def permuted(w, perm):
    return type(w)(w.values[np.ix_(perm, perm)], w.t, w.value_bound)


def equal_count_pair(seed, n, m):
    """Canonical graphons of two random graphs with ``n`` vertices and ``m``
    edges each: one grid, and one support once stretched."""
    rng = substream(seed, 0x6A1D)
    iu = np.column_stack(np.triu_indices(n, 1))
    return [gsp.canonical_graphon(gsp.Graph(n, iu[rng.choice(len(iu), m, replace=False)]))
            for _ in range(2)]


def dense_union_kernel(a, b):
    """The materialized union-grid kernel ``(va - vb) * w w'``, read with ``eval``."""
    widths = union_grid(a, b)[0]
    va, vb = values_at_cell_midpoints(widths, a, b)
    return (va - vb) * np.outer(widths, widths)


def union_value_bound(a, b, rows, cols) -> float:
    """Bound ``c * eps * mass`` on how far the union kernel's witness value
    may lie from the same rectangle summed over :func:`dense_union_kernel`.

    Here ``mass`` sums ``(|va| + |vb|) w_u w_v`` over ``rows x cols``, and
    ``u = eps / 2``.  The library sums ``N`` terms ``v * (r_i * c_j)``, one
    per stored entry of either input, where ``r_i`` and ``c_j`` each add at
    most ``U`` union widths: every term lies within ``(2U + 2) u`` of its real
    value, and a sum of ``N`` terms in any order adds ``(N - 1) u`` times the
    sum of their magnitudes, which is ``mass``.  The dense entries
    ``(va - vb) * (w_u * w_v)`` lie within ``3u`` of theirs, and their sum
    over ``|S| |T|`` cells adds ``(|S| |T| - 1) u`` of ``mass``.  So the two
    differ by at most ``(2U + N + |S| |T| + 3) u mass`` to first order, and
    ``c = 2U + N + |S| |T| + 4``, twice that in units of ``u``, covers the
    higher-order terms too.
    """
    widths = union_grid(a, b)[0]
    va, vb = values_at_cell_midpoints(widths, a, b)
    mass = ((np.abs(va) + np.abs(vb)) * np.outer(widths, widths))[np.ix_(rows, cols)].sum()
    c = 2 * widths.size + a.values.nnz + b.values.nnz + len(rows) * len(cols) + 4
    return c * np.finfo(float).eps * mass


class TestCutNorm:
    def test_constant_box_attains_l1(self):
        w = gsp.StepGraphon(np.full((4, 4), 0.3), 1.0, 1.0)
        res = gsp.cut_norm(w, mode="exact")
        assert res.value == pytest.approx(0.3, abs=1e-15)
        assert set(res.witness_rows) == set(range(4))
        assert set(res.witness_cols) == set(range(4))

    def test_signed_two_by_two(self):
        w = gsp.SignedStepGraphon(np.array([[1.0, -1.0], [-1.0, 1.0]]), 1.0, 1.0)
        res = gsp.cut_norm(w, mode="exact")
        assert res.value == pytest.approx(0.25, abs=1e-15)
        assert len(res.witness_rows) == 1 and len(res.witness_cols) == 1

    def test_zero_graphon(self):
        w = gsp.StepGraphon(np.zeros((3, 3)), 1.0, 1.0)
        assert gsp.cut_norm(w, mode="exact").value == 0.0

    def test_exact_matches_brute_force(self):
        for seed in range(50):
            w = random_step_graphon(seed, signed=True, kmax=8)
            res = gsp.cut_norm(w, mode="exact")
            assert res.value == brute_force_cut_norm(w)

    def test_witness_recompute(self):
        for seed in range(10):
            w = random_step_graphon(seed, signed=True, kmax=8)
            res = gsp.cut_norm(w, mode="exact")
            assert res.recompute(w) == res.value

    def test_heuristic_never_exceeds_exact(self):
        for seed in range(30):
            w = random_step_graphon(seed, signed=True, kmax=10)
            exact = gsp.cut_norm(w, mode="exact").value
            heur = gsp.cut_norm(w, mode="heuristic", restarts=16, seed=seed).value
            assert heur <= exact + 1e-12

    def test_heuristic_deterministic(self):
        w = random_step_graphon(3, signed=True, k=9)
        a = gsp.cut_norm(w, mode="heuristic", restarts=8, seed=5)
        b = gsp.cut_norm(w, mode="heuristic", restarts=8, seed=5)
        assert a == b

    def test_dominated_by_l1(self):
        for seed in range(30):
            w = random_step_graphon(seed, signed=True, kmax=8)
            assert gsp.cut_norm(w, mode="exact").value <= w.l1_norm + 1e-12

    def test_exact_size_limit(self):
        w = gsp.StepGraphon(np.zeros((23, 23)), 1.0, 1.0)
        with pytest.raises(ResolutionTooLargeError):
            gsp.cut_norm(w, mode="exact")

    def test_heuristic_matches_sequential_dense_loop(self):
        # the batched restarts reproduce the one-at-a-time loop; symmetric
        # pairs tie exactly, so the witness may come back as (T, S)
        # few restarts often stop short of the maximum, so the value also
        # depends on drawing the same starts in the same order
        for seed in range(30):
            w = random_step_graphon(seed, k=12, signed=True)
            restarts = (1, 2, 16)[seed % 3]
            res = gsp.cut_norm(w, mode="heuristic", restarts=restarts, seed=seed)
            rows, cols = sequential_heuristic_cut(w.values.toarray(), restarts,
                                                  substream(seed, 0xC07))
            area = (w.t / w.k) ** 2
            assert res.value == sorted_cut_value(w.values, rows, cols, area)
            assert (res.witness_rows, res.witness_cols) in (
                (tuple(rows), tuple(cols)), (tuple(cols), tuple(rows)))

    def test_blocked_enumeration_matches_rowwise_loop(self):
        # random, integer (many exact ties) and zero kernels up to 16 cells,
        # so the blocks of second-half subsets span 1 to 4096 rows
        rng = substream(11, 0xB1)
        for trial in range(400):
            k = int(rng.integers(1, 17))
            M = [rng.uniform(-1.0, 1.0, (k, k)),
                 rng.integers(-2, 3, (k, k)).astype(np.float64),
                 np.zeros((k, k)),
                 rng.integers(0, 2, (k, k)) - 0.5][trial % 4]
            M = (M + M.T) / 2.0
            assert cutmetric._bilinear_max_exact(M) == rowwise_exact_cut(M)

    @pytest.mark.parametrize("k, kind", [(17, "integer"), (18, "uniform"),
                                         (19, "zero row"), (21, "integer"),
                                         (22, "uniform")])
    def test_enumeration_at_the_top_of_the_exact_range(self, k, kind):
        # 2 to 64 blocks of second-half subsets; the integer kernels have
        # many exact ties, where the witness may differ from the old rule's,
        # and a zero last row ties every subset with its copy in a later block
        rng = substream(k, 0xB2)
        M = (rng.uniform(-1.0, 1.0, (k, k)) if kind == "uniform"
             else rng.integers(-2, 3, (k, k)).astype(np.float64))
        if kind == "zero row":
            M[-1] = M[:, -1] = 0.0
        M = (M + M.T) / 2.0
        assert cutmetric._bilinear_max_exact(M) == rowwise_exact_cut(M)
        w = gsp.SignedStepGraphon(M, float(k), 2.0)   # unit cells: area 1
        value = gsp.cut_norm(w).value
        assert value >= gsp.cut_norm(w, mode="heuristic", restarts=16, seed=k).value
        # scoring either way loses at most about 5k*u*A (A = sum|M|, u =
        # eps/2) and a witness value k^2*u*A more: the local search's
        # margin m = 8k^2*u*A at area 1 covers both rules
        assert abs(value - signed_parts_exact_value(M)) <= (
            4 * k**2 * np.finfo(float).eps * np.abs(M).sum())

    def test_enumeration_memory_is_linear_in_the_half_subsets(self):
        # at k = 22 the transposed half subset sums take 2 * 22 * 2^11 floats
        # and a block 2^16 per array; every column sum at once takes 738 MB
        M = substream(22, 0xB3).uniform(-1.0, 1.0, (22, 22))
        M = (M + M.T) / 2.0
        tracemalloc.start()
        try:
            cutmetric._bilinear_max_exact(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_l1_gap_dominated_by_cut_norm(self):
        # |l1(w1) - l1(w2)| <= cutnorm(w1 - w2) for nonnegative pairs
        for seed in range(30):
            w1 = random_step_graphon(seed, k=5, t=1.0)
            w2 = random_step_graphon(seed + 1000, k=5, t=1.0)
            d = gsp.step_difference(w1, w2)
            cn = gsp.cut_norm(d, mode="exact").value
            assert abs(w1.l1_norm - w2.l1_norm) <= cn + 1e-12


class TestCutDistance:
    def test_self_distance_zero_under_relabeling(self):
        w = random_step_graphon(5, k=5, t=1.0)
        perm = substream(1, 9).permutation(5)
        shuffled = gsp.StepGraphon(w.values[np.ix_(perm, perm)], w.t, w.value_bound)
        res = gsp.cut_distance_steps(shuffled, w, mode="exact")
        assert res.distance == pytest.approx(0.0, abs=1e-14)
        assert res.exact

    def test_k3_vs_p3(self):
        # frozen from brute force over all 6 permutations x 4096 subset pairs
        a = gsp.canonical_graphon(gsp.Graph(3, [(0, 1), (0, 2), (1, 2)]))
        b = gsp.canonical_graphon(gsp.Graph(3, [(0, 1), (1, 2)]))
        res = gsp.cut_distance_steps(a, b, mode="exact")
        assert res.distance == pytest.approx(2 / 9, abs=1e-15)

    def test_constant_boxes(self):
        a = gsp.StepGraphon(np.full((4, 4), 0.8), 1.0, 1.0)
        b = gsp.StepGraphon(np.full((4, 4), 0.3), 1.0, 1.0)
        res = gsp.cut_distance_steps(a, b, mode="exact")
        assert res.distance == pytest.approx(0.5, abs=1e-14)

    def test_common_refinement_of_unequal_resolutions(self):
        a = random_step_graphon(1, k=2, t=1.0)
        b = random_step_graphon(2, k=4, t=1.0)
        res = gsp.cut_distance_steps(a, b, mode="exact")
        assert res.distance >= 0

    def test_support_mismatch_errors(self):
        a = random_step_graphon(1, k=2, t=1.0)
        b = random_step_graphon(2, k=2, t=2.0)
        with pytest.raises(SupportMismatchError):
            gsp.cut_distance_steps(a, b)

    def test_float_close_supports_are_a_mismatch(self):
        # the same values on supports 5e-13 apart are 5e-13 apart in l1
        v = np.array([[1.0, 0.5], [0.5, 0.0]])
        a = gsp.StepGraphon(v, 1.0, 1.0)
        b = gsp.StepGraphon(v, 1.0 + 5e-13, 1.0)
        assert gsp.l1_distance(a, b) > 0.0
        with pytest.raises(SupportMismatchError):
            gsp.cut_distance_steps(a, b, mode="exact")

    def test_exact_size_limit(self):
        a = random_step_graphon(1, k=9, t=1.0)
        b = random_step_graphon(2, k=9, t=1.0)
        with pytest.raises(ResolutionTooLargeError):
            gsp.cut_distance_steps(a, b, mode="exact")

    def test_heuristics_bounded_by_identity_cut_norm(self):
        for seed in range(10):
            a = random_step_graphon(seed, k=6, t=1.0)
            b = random_step_graphon(seed + 500, k=6, t=1.0)
            ident = gsp.cut_norm(gsp.step_difference(a, b), mode="exact").value
            for mode in ("degree_sort", "local_search"):
                res = gsp.cut_distance_steps(a, b, mode=mode, iters=1, seed=seed)
                assert res.distance <= ident + 1e-12

    def test_local_search_not_worse_than_degree_sort(self):
        for seed in range(5):
            a = random_step_graphon(seed, k=6, t=1.0)
            b = random_step_graphon(seed + 99, k=6, t=1.0)
            ds = gsp.cut_distance_steps(a, b, mode="degree_sort", seed=seed)
            ls = gsp.cut_distance_steps(a, b, mode="local_search", iters=2, seed=seed)
            assert ls.distance <= ds.distance + 1e-12

    def test_local_search_matches_plain_swap_loop(self):
        # 0/1 values on unit cells: every cut value is an exact integer, so
        # the oracle's strict "<" and the library's rounding margin agree
        for seed in range(20):
            rng = substream(seed, 0x10CA1)
            k = int(rng.integers(4, 9))
            inside = (k // 2) * (k // 2 - 1) // 2 + (k - k // 2) * (k - k // 2 - 1) // 2
            va, vb = (two_block_adjacency(rng, k, inside - 1, 2) for _ in range(2))
            iters = 1 + seed % 2
            res = gsp.cut_distance_steps(gsp.StepGraphon(va, float(k), 1.0),
                                         gsp.StepGraphon(vb, float(k), 1.0),
                                         mode="local_search", iters=iters,
                                         restarts=(1, 4, 64)[seed % 3], seed=seed)
            assert (res.permutation, res.distance) == plain_local_search(va, vb, iters)

    def test_local_search_prunes_exact_cut_norms(self, monkeypatch):
        # a pair shaped like the benchmark's: 14 vertices, 38 + 7 edges
        rng = substream(5, 0x10CA1)
        ga, gb = (gsp.Graph(14, np.column_stack(np.nonzero(np.triu(
            two_block_adjacency(rng, 14, 38, 7))))) for _ in range(2))
        exact = cutmetric._bilinear_max_exact
        heuristic = cutmetric._bilinear_max_heuristic
        counts = []
        for cpus in (1, 3):   # the lift's cuts are never split across threads
            calls, runs = [], []
            monkeypatch.setattr(cutmetric, "_cpus", lambda: cpus)
            monkeypatch.setattr(cutmetric, "_bilinear_max_exact",
                                lambda M: calls.append(1) or exact(M))
            monkeypatch.setattr(cutmetric, "_bilinear_max_heuristic",
                                lambda *args: runs.append(1) or heuristic(*args))
            res = gsp.stretched_cut_distance(gsp.canonical_graphon(ga),
                                             gsp.canonical_graphon(gb),
                                             mode="local_search", seed=5)
            assert res.exact and res.permutation is not None
            assert len(calls) <= 40   # every swap trial enumerated: 184 calls
            assert len(runs) <= 30    # a heuristic run on every trial: 182 runs
            counts.append((len(calls), len(runs)))
        assert counts[0] == counts[1]

    def test_local_search_logs_its_counts(self, caplog):
        caplog.set_level(logging.DEBUG, logger="graphonsp")
        a = random_step_graphon(3, k=6, t=1.0)
        b = random_step_graphon(4, k=6, t=1.0)
        gsp.cut_distance_steps(a, b, mode="local_search", iters=2, seed=3)
        (rec,) = [r for r in caplog.records if r.name == "graphonsp.cutmetric"
                  and r.getMessage().startswith("local search")]
        k, trials, pruned, evaluated, accepted, cached, runs = rec.args
        assert k == 6 and trials in (15, 30)
        assert pruned + evaluated == trials
        assert accepted <= evaluated
        assert cached <= pruned
        assert runs == trials - cached

    def test_heuristic_counts_runs_stopped_by_the_cap(self):
        # a kernel whose products are fresh noise never lets a run settle
        noise = np.random.default_rng(2)
        _, rows, cols, capped, products = heuristic(
            lambda X: noise.standard_normal(X.shape), 30, 3, substream(0, 1))
        assert capped == 6
        # one shared first product per restart, then two per run and round
        assert products == 3 + 6 + 99 * 2 * 6
        w = random_step_graphon(5, k=30, t=1.0, signed=True)
        assert gsp.cut_norm(w, mode="heuristic", restarts=4).capped_runs == 0

    def test_nonpositive_restarts_rejected(self):
        a = random_step_graphon(1, k=4, t=1.0)
        b = random_step_graphon(2, k=4, t=1.0)
        for restarts in (0, -1):
            with pytest.raises(ValueError, match="restarts must be at least 1"):
                gsp.cut_norm(a, mode="heuristic", restarts=restarts)
            with pytest.raises(ValueError, match="restarts must be at least 1"):
                gsp.cut_distance_steps(a, b, mode="local_search", restarts=restarts)

    @pytest.mark.parametrize("mode, restarts, message", [
        ("bogus", 64, "unknown mode 'bogus'"),
        ("heuristic", 64, "unknown mode 'heuristic'"),
        ("exact", 0, "restarts must be at least 1, got 0"),
    ], ids=["unknown-mode", "cut-norm-mode", "exact-without-restarts"])
    def test_bad_alignment_args_rejected_on_every_path(self, mode, restarts, message):
        a = random_step_graphon(1, k=4, t=1.0)
        b = random_step_graphon(2, k=4, t=1.0)
        c = random_step_graphon(3, k=5, t=1.0 / 3.0)
        with pytest.raises(ValueError, match=message):
            gsp.cut_distance_steps(a, b, mode=mode, restarts=restarts)
        # stretched, a meets itself on a uniform grid and c on the union grid
        for other in (a, c):
            with pytest.raises(ValueError, match=message):
                gsp.stretched_cut_distance(a, other, mode=mode, restarts=restarts)

    def test_nonpositive_iters_rejected(self):
        a = random_step_graphon(1, k=4, t=1.0)
        b = random_step_graphon(2, k=4, t=1.0)
        c = random_step_graphon(3, k=5, t=1.0 / 3.0)
        for iters in (0, -5):
            message = f"iters must be at least 1, got {iters}"
            with pytest.raises(ValueError, match=message):
                gsp.cut_distance_steps(a, b, mode="local_search", iters=iters)
            # stretched, a meets itself on a uniform grid and c on the union grid
            for other in (a, c):
                with pytest.raises(ValueError, match=message):
                    gsp.stretched_cut_distance(a, other, iters=iters)

    def test_symmetry_and_triangle_inequality(self):
        for seed in range(8):
            ws = [random_step_graphon(seed * 10 + i, k=4, t=1.0) for i in range(3)]
            d = {}
            for i in range(3):
                for j in range(3):
                    if i != j:
                        d[i, j] = gsp.cut_distance_steps(ws[i], ws[j],
                                                         mode="exact").distance
            assert d[0, 1] == pytest.approx(d[1, 0], abs=1e-12)
            assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-12


class TestStretchContinuity:
    def test_l1_converges_along_factor_sequence(self):
        w = random_step_graphon(9, k=4, t=2.0)
        r = 1.3
        base = gsp.StepGraphon(w.values, w.t / r, w.value_bound)
        errs = []
        for i in range(1, 7):
            rn = r * (1.0 + 2.0**-i)
            wn = gsp.StepGraphon(w.values, w.t / rn, w.value_bound)
            errs.append(gsp.l1_distance(wn, base))
        assert all(b < a for a, b in zip(errs, errs[1:]))


class TestStretchedCutDistance:
    def test_identical_inputs(self):
        w = random_step_graphon(4, k=5, t=1.0)
        res = gsp.stretched_cut_distance(w, w, mode="degree_sort")
        assert res.distance == pytest.approx(0.0, abs=1e-14)

    def test_box_pair_frozen_oracle_value(self):
        # stretch rescales domains only: 0.5 on [0, sqrt(2)]^2 vs 0.125 on
        # [0, 2 sqrt(2)]^2; best rectangle is the smaller box, giving
        # (0.5 - 0.125) * 2 = 0.75 under either of the two cell permutations
        res = gsp.stretched_cut_distance(gsp.ConstantBox(0.5, 1.0),
                                         gsp.ConstantBox(0.125, 2.0),
                                         mode="exact")
        assert res.distance == pytest.approx(0.75, abs=1e-12)
        assert res.exact

    def test_exact_multiples_take_the_uniform_path(self):
        # unit 1-norm, so stretching keeps both supports; the 0.5 box is not a
        # whole number of cells of [0, 0.75], yet both refine to 3 quarters
        a = gsp.StepGraphon(np.array([[4.0]]), 0.5, 4.0)
        b = gsp.StepGraphon(np.array([[4.0, 2.0, 0.0], [2.0, 4.0, 0.0],
                                      [0.0, 0.0, 4.0]]), 0.75, 4.0)
        res = gsp.stretched_cut_distance(a, b, mode="exact")
        assert res.exact and res.permutation is not None
        lifted = np.array([[4.0, 4.0, 0.0], [4.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
        oracle = min(brute_force_cut_norm(gsp.SignedStepGraphon(
            lifted[np.ix_(p, p)] - b.values.toarray(), 0.75, 8.0))
            for p in itertools.permutations(range(3)))
        assert res.distance == pytest.approx(oracle, abs=1e-15)

    def test_zero_graphon_errors(self):
        from graphonsp.errors import ZeroGraphonError
        with pytest.raises(ZeroGraphonError):
            gsp.stretched_cut_distance(
                gsp.StepGraphon(np.zeros((2, 2)), 1.0, 1.0), gsp.CelebrityLimit())

    def test_dense_core_approaches_celebrity_limit(self):
        # n = 10^4, core size 1000: distance below the closed-form bound
        g = gsp.dense_core_graph(10_000, 0.5)
        core_graph, _ = g.drop_isolated()
        assert core_graph.n == 1000
        w = gsp.canonical_graphon(core_graph)
        bound = 2.0 / (core_graph.n - 1)
        res = gsp.stretched_cut_distance(w, gsp.CelebrityLimit(),
                                         mode="degree_sort", restarts=8)
        assert res.distance <= bound
        assert res.permutation is None  # incommensurable grids: identity path

    def test_scrambled_labels_recovered_by_degree_alignment(self):
        # isolated vertices kept and labels scrambled: the clique cells
        # scatter across the canonical graphon, and the degree alignment in
        # the incommensurable-grid path must reassemble the block
        k = 299
        res = gsp.stretched_cut_distance(gsp.canonical_graphon(scrambled_dense_core()),
                                         gsp.CelebrityLimit(),
                                         mode="degree_sort", restarts=8)
        assert res.permutation is None
        assert res.distance <= 2.0 / (k - 1)

    def test_union_cut_value_matches_dense_kernel_at_witnesses(self):
        # the value summed from the inputs' stored entries agrees with the
        # one recomputed from the dense union-grid matrices of the winning
        # (degree-sorted) candidate, up to rounding: a's and b's terms now
        # cancel in the sum, not cell by cell
        w = gsp.canonical_graphon(scrambled_dense_core())
        res = gsp.stretched_cut_distance(w, gsp.CelebrityLimit(),
                                         mode="degree_sort", restarts=8)
        a, _ = gsp.stretch(w)
        a = permuted(a, _degree_sort_perm(_Stored(a.values).row_sums()))
        b = gsp.as_step(gsp.CelebrityLimit())
        rows, cols = res.cut.witness_rows, res.cut.witness_cols
        want = sorted_cut_value(dense_union_kernel(a, b), rows, cols)
        assert abs(res.cut.value - want) <= union_value_bound(a, b, rows, cols)

    def test_union_path_never_materializes_the_union_kernel(self):
        # one dense float U x U matrix takes 8 U^2 bytes; the implicit kernel
        # and the batched restarts stay below it
        w = gsp.canonical_graphon(scrambled_dense_core())
        U = union_grid(gsp.stretch(w)[0], gsp.as_step(gsp.CelebrityLimit()))[0].size
        tracemalloc.start()
        try:
            gsp.stretched_cut_distance(w, gsp.CelebrityLimit())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * U**2

    def test_graph_against_graph_stays_below_n_squared_bytes(self):
        # two independent sparse samples: the winning witness covers most
        # of the union grid, so its value must be summed from stored
        # entries; a dense |S| x |T| block of it takes about 800 MB, and a
        # dense U x U read of both inputs for the l1 distance about 2 GB
        n = 4000
        a, b = (gsp.sample_graph(gsp.ConstantBox(0.004, 1), 1, n, seed).canonical()
                for seed in (1, 2))
        sa, sb = gsp.stretch(a)[0], gsp.stretch(b)[0]
        tracemalloc.start()
        try:
            res = gsp.stretched_cut_distance(a, b, restarts=8)
            cut_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            l1 = gsp.l1_distance(sa, sb)
            l1_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.permutation is None and 0.0 < res.distance < 1.0
        # the identity alignment is a candidate, and its cut norm is at most
        # the l1 norm of the same difference
        assert res.distance <= l1 <= 2.0
        assert cut_peak < n**2 and l1_peak < n**2

    def test_union_degree_sort_never_exceeds_exact(self):
        # on a tiny union grid exact mode maximizes exactly over the
        # identity alignment, which degree_sort also evaluates
        for seed in range(10):
            a = random_step_graphon(seed, k=7, t=1.3)
            b = random_step_graphon(seed + 300, k=5, t=2.1)
            U = union_grid(gsp.stretch(a)[0], gsp.stretch(b)[0])[0].size
            assert U <= 22
            ex = gsp.stretched_cut_distance(a, b, mode="exact")
            ds = gsp.stretched_cut_distance(a, b, mode="degree_sort", seed=seed)
            assert ex.permutation is None and ex.cut.exact
            assert ds.distance <= ex.distance + 1e-12


    def test_exact_l1_closed_form_for_dense_core(self):
        # the straddling diagonal hole makes the exact l1 smaller than the
        # triangle-route bound 2/(k-1); closed form checked to 1e-12
        for k in (89, 252):
            d = gsp.l1_distance(stretched_clique(k),
                                gsp.as_step(gsp.CelebrityLimit()))
            assert d == pytest.approx(dense_core_stretched_l1(k), abs=1e-12)
            assert d < 2.0 / (k - 1)

    def test_dense_core_l1_closed_form_matches_quadrature(self):
        # midpoint quadrature, independent of l1_distance, settles the
        # exact value against the conventional constant 2/(k-1)
        def unit_square(x, y):
            return ((x <= 1.0) & (y <= 1.0)).astype(np.float64)

        for k in (5, 8, 13):
            q = quadrature_l1_between(stretched_clique(k), unit_square)
            assert q == pytest.approx(dense_core_stretched_l1(k), abs=1e-3)
            assert abs(q - 2.0 / (k - 1)) > 5e-3


class TestStretchedDistanceLog:
    @staticmethod
    def record(caplog, *args, **kwargs):
        caplog.set_level(logging.DEBUG, logger="graphonsp")
        res = gsp.stretched_cut_distance(*args, **kwargs)
        (rec,) = [r for r in caplog.records if r.name == "graphonsp.cutmetric"
                  and r.getMessage().startswith("cut distance on the")]
        return res, rec.args

    def test_union_path_names_candidates_and_winner(self, caplog, monkeypatch):
        columns = []
        matmat = _UnionKernel.matmat
        monkeypatch.setattr(_UnionKernel, "matmat",
                            lambda kern, X: columns.append(X.shape[1]) or matmat(kern, X))
        w = gsp.canonical_graphon(scrambled_dense_core(400))
        res, (grid, cells, values, winner, capped, products, computed) = self.record(
            caplog, w, gsp.CelebrityLimit(), restarts=8)
        U = union_grid(gsp.stretch(w)[0], gsp.as_step(gsp.CelebrityLimit()))[0].size
        assert (grid, cells) == ("union", U)
        assert values.startswith("identity ") and ", degree_sort " in values
        assert winner == "degree_sort" and f"degree_sort {res.distance!r}" in values
        assert capped == 0
        # both candidates' products; each asks for at least 3 per restart,
        # and only the distinct columns of a block reach the kernel
        assert products >= 2 * 3 * 8 and 0 < computed == sum(columns) <= products
        assert 3 * 8 <= res.cut.products < products
        assert res.cut.computed <= res.cut.products

    def test_uniform_path_names_candidates_and_winner(self, caplog):
        # equal edge counts: one stretched support
        rng = np.random.default_rng(4)
        a, b = (gsp.StepGraphon(two_block_adjacency(rng, 8, 10, 3), 1.0, 1.0)
                for _ in range(2))
        res, (grid, cells, values, winner, capped, products, computed) = self.record(
            caplog, a, b, mode="local_search", seed=3)
        assert (grid, cells) == ("uniform", 8)
        names = [item.split(" ")[0] for item in values.split(", ")]
        assert names == ["identity", "degree_sort", "local_search"]
        assert winner in names and f"{winner} {res.distance!r}" in values
        assert capped == products == computed == 0  # exact cut norms only


class TestGridRule:
    DISTANCES = [gsp.cut_distance_steps, gsp.stretched_cut_distance]

    @pytest.fixture
    def lifts(self, monkeypatch, caplog):
        """Cell counts of every lift onto a uniform grid, and the grid of
        every cut distance from its DEBUG record."""
        caplog.set_level(logging.DEBUG, logger="graphonsp")
        calls = []
        lift = core._on_uniform
        monkeypatch.setattr(core, "_on_uniform",
                            lambda w, k, span: calls.append(k) or lift(w, k, span))
        return calls, lambda: [r.args[:2] for r in caplog.records
                               if r.getMessage().startswith("cut distance on the")]

    @pytest.mark.parametrize("distance", DISTANCES)
    def test_equal_edge_counts_take_the_union_grid(self, distance, lifts):
        calls, grids = lifts
        a, b = equal_count_pair(1, 60, 200)
        ds = distance(a, b, mode="degree_sort", restarts=8, seed=1)
        ls = distance(a, b, mode="local_search", restarts=8, seed=1)
        assert calls == [] and grids() == [("union", 60)] * 2
        assert ds.permutation is not None and sorted(ds.permutation) == list(range(60))
        assert ls == ds

    @pytest.mark.parametrize("n, grid", [(22, "uniform"), (23, "union")])
    def test_only_exact_cut_grids_are_lifted(self, n, grid, lifts):
        calls, grids = lifts
        a, b = equal_count_pair(2, n, 40)
        for distance in self.DISTANCES:
            res = distance(a, b, mode="degree_sort", restarts=8)
            assert res.exact == (grid == "uniform") and res.permutation is not None
        assert calls == ([n] * 4 if grid == "uniform" else [])
        assert grids() == [(grid, n)] * 2

    def test_exact_alignment_above_eight_cells(self, lifts):
        # cut_distance_steps refuses; stretched, the identity alone is cut
        # exactly on the union grid, as long as that has at most 22 cells
        calls, grids = lifts
        for n in (9, 22, 23):
            a, b = equal_count_pair(3, n, 30)
            with pytest.raises(ResolutionTooLargeError):
                gsp.cut_distance_steps(a, b, mode="exact")
            res = gsp.stretched_cut_distance(a, b, mode="exact")
            assert not res.exact and res.cut.exact == (n <= 22)
            assert res.permutation == tuple(range(n))
        assert calls == [] and grids() == [("union", n) for n in (9, 22, 23)]

    def test_graph_against_its_relabeled_copy_stays_sparse(self):
        # one support and n cells: lifted, both n x n value arrays alone
        # would take 8 n^2 bytes each
        n = 3000
        g = gsp.core_periphery_graph(n, 0.5, 0.5, 1)
        perm = substream(5, 1).permutation(n)
        a, b = (gsp.canonical_graphon(h) for h in (g, gsp.Graph(n, perm[g.edge_array])))
        tracemalloc.start()
        try:
            res = gsp.stretched_cut_distance(a, b, restarts=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.permutation is not None and peak < 8 * n**2 / 4

    def test_union_permutation_and_witness_index_the_second_input(self):
        # b is a relabeled with one edge moved: degree sort wins, and its
        # permutation and witness give the cut value on b's own cells, as a
        # uniform-grid result's do
        a, _ = equal_count_pair(4, 60, 200)
        perm = substream(4, 0x9E).permutation(60)
        B = a.values.toarray()[np.ix_(perm, perm)]
        (i, j), (u, v) = np.argwhere(np.triu(B) > 0)[0], np.argwhere(np.triu(B == 0, 1))[0]
        B[i, j] = B[j, i] = 0.0
        B[u, v] = B[v, u] = 1.0
        b = gsp.StepGraphon(sp.csr_matrix(B), 1.0, 1.0)
        res = gsp.cut_distance_steps(a, b, mode="degree_sort", restarts=8)
        assert res.permutation != tuple(range(60)) and res.distance > 0.0
        p = list(res.permutation)
        M = (a.values.toarray()[np.ix_(p, p)] - B) * (a.cell_width * a.cell_width)
        assert res.cut.value == sorted_cut_value(M, res.cut.witness_rows,
                                                 res.cut.witness_cols)


class TestUnionKernel:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_union_kernel(self, seed):
        # k=7 on [0, 1.3] against k=5 on [0, 2.1]: incommensurable grids,
        # and the union cells beyond 1.3 lie outside the first support
        a = random_step_graphon(seed, k=7, t=1.3, signed=True)
        b = random_step_graphon(seed + 100, k=5, t=2.1)
        widths, ia, ib = union_grid(a, b)
        assert np.any(ia < 0) and not np.any(ib < 0)
        X = substream(seed, 0x0B).standard_normal((widths.size, 5))
        Va, Vb = _Stored(sp.csr_matrix(a.values)), _Stored(sp.csr_matrix(b.values))
        pa, pb = _degree_sort_perm(Va.row_sums()), _degree_sort_perm(Vb.row_sums())
        rng = substream(seed, 0x5E1)
        for kernel, relabeled in (
                (_UnionKernel(widths, Va, ia, Vb, ib), (a, b)),
                (_UnionKernel(widths, Va, _relabel(ia, pa), Vb, _relabel(ib, pb)),
                 (permuted(a, pa), permuted(b, pb)))):
            M = dense_union_kernel(*relabeled)
            want = M @ X
            got = kernel.matmat(X)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            for _ in range(4):
                rows, cols = (np.flatnonzero(rng.random(widths.size) < 0.5).tolist()
                              for _ in range(2))
                value = kernel.value(rows, cols)
                assert value == kernel.value(cols, rows)
                assert abs(value - sorted_cut_value(M, rows, cols)) <= union_value_bound(
                    *relabeled, rows, cols)

    def test_cells_outside_a_support_come_last(self):
        # matmat reads each input on the union cells before its first -1
        V = _Stored(sp.csr_matrix(np.ones((2, 2))))
        with pytest.raises(ValueError, match="must come last"):
            _UnionKernel(np.full(3, 0.5), V, np.array([0, -1, 1]), V, np.array([0, 1, 1]))


class TestHeuristicStopRule:
    """The heuristic shares each restart's first product between its signs
    and stops a run once its rows repeat; the plain batched loop, two
    products per run and round, must pick the same witness and cap count."""

    @staticmethod
    def assert_agrees(matmat, k, restarts, seed):
        got = heuristic(matmat, k, restarts, substream(seed, 0xC07))
        assert got[1:4] == batched_heuristic_cut(matmat, k, restarts,
                                                 substream(seed, 0xC07))

    @pytest.fixture
    def kernels(self, monkeypatch):
        """``(matmat, cells, restarts, seed)`` of every heuristic cut."""
        calls = []
        cut = cutmetric._cut
        monkeypatch.setattr(cutmetric, "_cut", lambda matmat, value, k, exact, restarts,
                            seed: calls.append((matmat, k, restarts, seed))
                            or cut(matmat, value, k, exact, restarts, seed))
        return calls

    @pytest.mark.parametrize("seed", range(32))
    def test_dense_signed_kernels(self, seed):
        # the dense product local search prunes with, on 2 to 12 cells
        w = random_step_graphon(seed, signed=True)
        for restarts in (1, 2, 16, 64):
            self.assert_agrees(w.values.__matmul__, w.k, restarts, seed)

    @pytest.mark.parametrize("seed", range(32))
    def test_dense_signed_kernels_columnwise(self, seed):
        # up to 30 cells, a BLAS product can round a column differently
        # with the width of its block, and the two loops form different
        # blocks; a CSR product computes every column on its own, and the
        # public cut_norm multiplies through one
        w = random_step_graphon(seed, signed=True, kmax=30)
        csr = sp.csr_matrix(w.values).__matmul__
        for restarts in (1, 2, 16, 64):
            self.assert_agrees(csr, w.k, restarts, seed)
            res = gsp.cut_norm(w, mode="heuristic", restarts=restarts, seed=seed)
            rows, cols, capped = batched_heuristic_cut(csr, w.k, restarts,
                                                       substream(seed, 0xC07))
            assert (list(res.witness_rows), list(res.witness_cols),
                    res.capped_runs) == (rows, cols, capped)

    @staticmethod
    def union_pair(case):
        if case == "celebrity":
            return gsp.canonical_graphon(scrambled_dense_core(400)), gsp.CelebrityLimit()
        if case == "unequal edge counts":
            return [gsp.canonical_graphon(gsp.core_periphery_graph(300, 0.5, 0.5, s))
                    for s in (1, 2)]
        g = gsp.core_periphery_graph(300, 0.5, 0.5, 4)
        perm = substream(4, 1).permutation(g.n)
        return [gsp.canonical_graphon(h) for h in (g, gsp.Graph(g.n, perm[g.edge_array]))]

    @pytest.mark.parametrize("case, one_grid", [("celebrity", False),
                                                ("unequal edge counts", False),
                                                ("relabeled copy", True)])
    def test_union_kernels(self, case, one_grid, kernels):
        res = gsp.stretched_cut_distance(*self.union_pair(case), restarts=16, seed=2)
        assert (res.permutation is not None) == one_grid and len(kernels) == 2
        for call in kernels:
            self.assert_agrees(*call)

    def test_clique_core_product_count(self, caplog):
        # the plain loop takes 2 candidates x 64 restarts x 2 signs x 2
        # rounds x 2 products = 1024 column-products on this input
        caplog.set_level(logging.DEBUG, logger="graphonsp")
        w = gsp.canonical_graphon(shuffled_clique_core(3000, 1))
        res = gsp.stretched_cut_distance(w, gsp.CelebrityLimit(), restarts=64)
        (rec,) = [r for r in caplog.records
                  if r.getMessage().startswith("cut distance on the")]
        assert rec.args[0] == "union" and rec.args[5] <= 720
        assert res.distance <= 2.0 / (int(np.floor(3000 ** 0.75)) - 1)


class TestSplitHeuristic:
    """Above 22 cells the heuristic's starts are split into one contiguous
    range per CPU, and each distinct column of a product block is computed
    once; every product column is computed on its own, so the result must
    depend on neither the number of ranges nor the repeats."""

    @staticmethod
    def results(monkeypatch, cut):
        """``cut()``'s result and its heuristic's range count, at 1, 2 and
        3 CPUs."""
        heuristic = cutmetric._bilinear_max_heuristic
        out = []
        for cpus in (1, 2, 3):
            ranges = []
            monkeypatch.setattr(cutmetric, "_cpus", lambda: cpus)
            monkeypatch.setattr(cutmetric, "_bilinear_max_heuristic",
                                lambda *args: ranges.append(1) or heuristic(*args))
            res = cut()
            res = res.cut if isinstance(res, cutmetric.AlignmentResult) else res
            out.append(((res.value, res.witness_rows, res.witness_cols, res.exact,
                         res.capped_runs, res.products), len(ranges)))
        return out

    @staticmethod
    def two_samples():
        return [gsp.canonical_graphon(gsp.sample_graph(gsp.ConstantBox(0.05, 1), 1, 600,
                                                       seed).graph)
                for seed in (1, 2)]

    @pytest.mark.parametrize("restarts", [5, 16])
    def test_union_kernel_of_two_samples(self, monkeypatch, restarts):
        a, b = self.two_samples()
        out = self.results(monkeypatch, lambda: gsp.stretched_cut_distance(
            a, b, restarts=restarts, seed=3))
        # two candidates, each split into min(cpus, restarts) ranges
        assert [n for _, n in out] == [2, 4, 6]
        assert out[0][0] == out[1][0] == out[2][0]
        assert out[0][0][5] > 0   # the winner's cut counts its products

    # on the first two kernels, ranges tie at different witnesses (runs that
    # end at (S, T) and at (T, S)), and the first range must win; a kernel
    # in the exact range is never split
    @pytest.mark.parametrize("seed, k, restarts", [(0, 40, 16), (1, 24, 16), (7, 40, 3),
                                                   (7, 40, 5), (7, 22, 16)])
    def test_heuristic_cut_norm(self, monkeypatch, seed, k, restarts):
        w = random_step_graphon(seed, k=k, t=1.0, signed=True)
        out = self.results(monkeypatch, lambda: gsp.cut_norm(
            w, mode="heuristic", restarts=restarts, seed=4))
        assert [n for _, n in out] == ([1, 2, 3] if k > 22 else [1, 1, 1])
        assert out[0][0] == out[1][0] == out[2][0]

    @pytest.mark.parametrize("case", ["two samples", "clique core", "signed kernel"])
    def test_distinct_columns_change_no_result(self, monkeypatch, case):
        cut = {
            "two samples": lambda: gsp.stretched_cut_distance(
                *self.two_samples(), restarts=16, seed=3),
            "clique core": lambda: gsp.stretched_cut_distance(
                gsp.canonical_graphon(shuffled_clique_core(1000, 2)),
                gsp.CelebrityLimit(), restarts=16, seed=5),
            "signed kernel": lambda: gsp.cut_norm(
                random_step_graphon(7, k=40, t=1.0, signed=True), mode="heuristic",
                restarts=16, seed=4),
        }[case]
        distinct = self.results(monkeypatch, cut)
        # the plain product in the wrapper's place, every column computed
        monkeypatch.setattr(cutmetric, "_distinct_columns", lambda matmat, k, computed:
                            lambda X: computed.append(X.shape[1]) or matmat(X))
        assert distinct == self.results(monkeypatch, cut)
        assert distinct[0][0] == distinct[1][0] == distinct[2][0]

    def test_clique_core_computes_each_distinct_column_once(self, caplog, monkeypatch):
        # runs that reach the same selection ask for the same column; about
        # half the columns asked for on this input are distinct
        columns = []
        matmat = _UnionKernel.matmat
        monkeypatch.setattr(_UnionKernel, "matmat",
                            lambda kern, X: columns.append(X.shape[1]) or matmat(kern, X))
        caplog.set_level(logging.DEBUG, logger="graphonsp")
        w = gsp.canonical_graphon(shuffled_clique_core(3000, 1))
        gsp.stretched_cut_distance(w, gsp.CelebrityLimit(), restarts=64)
        (rec,) = [r for r in caplog.records
                  if r.getMessage().startswith("cut distance on the")]
        products = rec.args[5]
        assert sum(columns) <= 0.6 * products
        assert rec.args[6] == sum(columns)

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_child_forked_after_a_split_cut_completes_its_own(self, monkeypatch):
        # the pool's threads do not survive a fork; a child that reused the
        # parent's pool would wait forever on work no thread runs
        monkeypatch.setattr(cutmetric, "_cpus", lambda: 2)
        w = random_step_graphon(7, k=40, t=1.0, signed=True)
        expected = gsp.cut_norm(w, mode="heuristic", restarts=8, seed=4)
        assert cutmetric._pool is not None

        def cut_in_child():
            sys.exit(gsp.cut_norm(w, mode="heuristic", restarts=8, seed=4) != expected)

        child = multiprocessing.get_context("fork").Process(target=cut_in_child)
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the forked child's cut did not finish within 60 s")
        assert child.exitcode == 0

    def test_rank_one_kernel(self, monkeypatch):
        # the factored side's products reduce each column on its own too
        a = gsp.canonical_graphon(gsp.sample_graph(gsp.RankOneExp(1, 1), 8.0, 600, 1).graph)
        out = self.results(monkeypatch, lambda: gsp.stretched_cut_distance(
            a, gsp.RankOneExp(1, 1), resolution=256, restarts=5, seed=3))
        assert [n for _, n in out] == [2, 4, 6]
        assert out[0][0] == out[1][0] == out[2][0]


def formed(w):
    """``w``, with a factored rank-one kernel formed into its StepGraphon."""
    return w.to_step() if isinstance(w, core._RankOneStep) else w


class TestFactoredKernel:
    """A ``RankOneExp``, and ``extract_sparse_subsequence``'s restriction
    ``W_m`` of one, is compared through its midpoint factor.  The reference
    forms that factor into the CSR values ``restrict`` and ``as_step``
    return (bit for bit the products ``v_i * v_j``), which is how every
    comparison read ``W`` before; both must make the same choices."""

    @staticmethod
    def comparisons(monkeypatch, run, csr: bool):
        """``run()``'s result and, per comparison, its two inputs, its
        degree-sort permutations, its grid, its candidates ``(name, cut)``
        and its winner; with ``csr``, every factor is formed where it is
        built.  Comparisons may run on pool threads at once, so each thread
        fills its own current record; the records are sorted by the ``t_m``
        of the restriction built last on their thread (0 if none was)."""
        calls, current = [], threading.local()
        compare, perm, log, restrict = (cutmetric._compare, cutmetric._degree_sort_perm,
                                        cutmetric._log_candidates, core._restrict)

        def recorded_restrict(w, t_m, resolution):
            current.t_m = t_m
            return restrict(w, t_m, resolution)

        def recorded_compare(a, b, *args):
            current.call = {"t_m": getattr(current, "t_m", 0.0), "inputs": (a, b),
                            "perms": []}
            calls.append(current.call)
            return compare(a, b, *args)

        def recorded_perm(row_sums):
            current.call["perms"].append(perm(row_sums))
            return current.call["perms"][-1]

        def recorded_log(grid, cells, candidates, winner):
            current.call.update(grid=grid,
                                candidates=[(name, cut) for name, cut, _ in candidates],
                                winner=next(name for name, cut, _ in candidates
                                            if cut is winner))
            log(grid, cells, candidates, winner)

        with monkeypatch.context() as m:
            m.setattr(core, "_restrict", recorded_restrict)
            if csr:
                for name in ("_restrict", "_rank_one_step"):
                    build = getattr(core, name)
                    m.setattr(core, name, lambda *args, build=build: formed(build(*args)))
            m.setattr(cutmetric, "_compare", recorded_compare)
            m.setattr(cutmetric, "_degree_sort_perm", recorded_perm)
            m.setattr(cutmetric, "_log_candidates", recorded_log)
            result = run()
        return result, sorted(calls, key=lambda call: call["t_m"])

    @staticmethod
    def value_bound(fact, ref, rows, cols) -> float:
        """Bound on the distance between the two paths' values of the
        witness ``rows x cols``, for the inputs ``fact`` (the graph ``a``
        and the factored ``W``) and ``ref`` (``a`` and ``W`` formed).

        The union grids have the same cells (asserted), with widths ``w``
        (reference) and ``w'`` (factored); ``W_m``'s stretch reads its l1
        norm from the factor, ``h^2 (sum v)^2``, not from the stored values,
        so its support, and the widths, may differ in the last bits.  With
        ``top`` bounding both kernels' values, which are nonnegative, every
        ``|A - W| <= top`` and ``mass = 2 top |S|_w |T|_w`` bounds the sum of
        ``(|A| + W) w_u w_v`` over the witness.  With ``u = eps / 2``:
        the reference sums ``N`` terms (one per stored entry of ``A`` and
        ``W``), each ``v * (r_i * c_j)`` with ``r_i`` and ``c_j`` sums of at
        most ``U`` widths and ``v`` the rounded product ``v_i v_j``, so
        within ``(2U + 2) u`` of its real value, and the sum adds ``(N - 1)
        u mass``.  The factored path sums ``A``'s terms and one term ``(v .
        r)(v . c)``, where ``v . r`` sums ``k`` products of ``r_i`` (within
        ``(U - 1) u``) and ``v_i``, so lies within ``(U + k) u`` of its real
        value, and the term within ``(2U + 2k + 1) u``; the sum adds
        ``nnz(A) u mass``.  The real values at ``w`` and at ``w'`` differ by
        at most ``top * sum |w'_u w'_v - w_u w_v| <= top * sum|w' - w| *
        (sum w' + sum w)``.  Twice each rounding term, in units of ``eps``,
        covers the higher-order terms.
        """
        (a, wf), (a_ref, wr) = fact, ref
        assert a.t == a_ref.t and wf.k == wr.k
        (wd_f, ia_f, ib_f), (wd_r, ia_r, ib_r) = union_grid(a, wf), union_grid(a_ref, wr)
        assert np.array_equal(ia_f, ia_r) and np.array_equal(ib_f, ib_r)
        U, k, nnz = wd_f.size, wf.k, a.values.nnz
        top = max(a.values.max(), wr.values.max())

        def mass(w):
            return 2 * top * w[list(rows)].sum() * w[list(cols)].sum()

        eps = np.finfo(float).eps
        return ((2 * U + nnz + wr.values.nnz + 4) * eps * mass(wd_r)
                + (2 * U + 2 * k + nnz + 4) * eps * mass(wd_f)
                + top * np.abs(wd_f - wd_r).sum() * (wd_f.sum() + wd_r.sum()))

    def assert_same_choices(self, fact, ref):
        assert len(fact) == len(ref) > 0
        for f, r in zip(fact, ref):
            (a, wf), (_, wr) = f["inputs"], r["inputs"]
            assert isinstance(wf, core._RankOneStep) and isinstance(wr, gsp.StepGraphon)
            assert f["grid"] == r["grid"] == "union" and f["winner"] == r["winner"]
            assert len(f["perms"]) == len(r["perms"]) == 2
            assert all(np.array_equal(p, q) for p, q in zip(f["perms"], r["perms"]))
            for (name, cf), (name_r, cr) in zip(f["candidates"], r["candidates"]):
                assert (name, cf.witness_rows, cf.witness_cols, cf.products,
                        cf.capped_runs) == (name_r, cr.witness_rows, cr.witness_cols,
                                            cr.products, cr.capped_runs)
                assert abs(cf.value - cr.value) <= self.value_bound(
                    (a, wf), (a, wr), cf.witness_rows, cf.witness_cols)

    @pytest.fixture(scope="class")
    def grid(self):
        # the sample-r1e workload's grid
        return gsp.sample_double_sequence(gsp.RankOneExp(1, 1), [4, 8, 16],
                                          [1000, 2000, 4000], 12345)

    def test_subsequence_rows_match_the_csr_path(self, monkeypatch, grid):
        W = gsp.RankOneExp(1, 1)
        (fact, fact_calls), (ref, ref_calls) = (self.comparisons(
            monkeypatch, lambda: gsp.extract_sparse_subsequence(grid, W), csr)
            for csr in (False, True))
        # the reference reproduces the distances of the CSR-only code
        assert [row[5] for row in ref.rows] == [0.038348495841709906, 0.05987661581649828,
                                                0.08634620253503411]
        assert len(fact_calls) == 3 and fact.phi == ref.phi and fact.gaps == ref.gaps
        assert [row[:5] for row in fact.rows] == [row[:5] for row in ref.rows]
        self.assert_same_choices(fact_calls, ref_calls)

    def test_subsequence_does_not_depend_on_the_cpu_count(self, monkeypatch, grid):
        # each row runs on the pool and its cuts unsplit on their worker, so
        # a pool of one worker finishes too, where a split would wait on the
        # pool's only thread
        W = gsp.RankOneExp(1, 1)
        monkeypatch.setattr(cutmetric, "_pool", cutmetric._pool)   # restored after
        out = []
        for workers, cpus in ((1, 1), (2, 2), (3, 3), (1, 3)):
            monkeypatch.setattr(cutmetric, "_cpus", lambda: workers)
            cutmetric._new_pool()
            monkeypatch.setattr(cutmetric, "_cpus", lambda: cpus)
            done = []
            run = threading.Thread(target=lambda: done.append(self.comparisons(
                monkeypatch, lambda: gsp.extract_sparse_subsequence(grid, W), False)),
                daemon=True)
            run.start()
            run.join(timeout=120)
            if run.is_alive():
                pytest.fail(f"the extraction on {workers} workers and {cpus} CPUs "
                            "did not finish within 120 s")
            cutmetric._pool.shutdown()
            spec, calls = done[0]
            out.append((spec.rows, spec.phi, spec.gaps,
                        [[(name, cut.value, cut.witness_rows, cut.witness_cols,
                           cut.products, cut.computed, cut.capped_runs)
                          for name, cut in call["candidates"]] for call in calls]))
        assert len(out[0][3]) == 3
        assert out[0] == out[1] == out[2] == out[3]

    def test_graph_against_w_matches_the_csr_path(self, monkeypatch, grid):
        G = grid[1][1].canonical()
        (fact, fact_calls), (ref, ref_calls) = (self.comparisons(
            monkeypatch, lambda: gsp.stretched_cut_distance(
                G, gsp.RankOneExp(1, 1), resolution=256, restarts=16, seed=5), csr)
            for csr in (False, True))
        assert ref.distance == 0.051353324943494094
        self.assert_same_choices(fact_calls, ref_calls)

    def test_lift_forms_the_factor(self, monkeypatch):
        # stretched, both kernels have 4 cells, on [0, 40] and [0, 80]: the
        # lift onto 8 cells reads the formed values, so nothing moves
        (fact, fact_calls), (ref, _) = (self.comparisons(
            monkeypatch, lambda: gsp.stretched_cut_distance(
                gsp.RankOneExp(1, 1), gsp.RankOneExp(0.5, 1), resolution=4), csr)
            for csr in (False, True))
        assert all(isinstance(w, core._RankOneStep) for w in fact_calls[0]["inputs"])
        assert fact_calls[0]["grid"] == "uniform" and fact.exact
        assert fact == ref and fact.cut.products == ref.cut.products

    def test_memory_at_resolution_4096_is_linear(self):
        # formed, W would store 4096^2 values (672 MiB traced).  The
        # heuristic holds a few U x 2r float blocks (U <= n + resolution
        # union cells, r = 16 restarts), and a witness value a few arrays
        # over the graph's 2|E| stored entries
        g, _ = gsp.sample_graph(gsp.RankOneExp(1, 1), 8.0, 4000, 7).graph.drop_isolated()
        G = gsp.canonical_graphon(g)
        tracemalloc.start()
        try:
            res = gsp.stretched_cut_distance(G, gsp.RankOneExp(1, 1), resolution=4096,
                                             restarts=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < res.distance < 1.0
        assert peak < 8 * (8 * 2 * 16 * (g.n + 4096) + 32 * g.edge_count)
