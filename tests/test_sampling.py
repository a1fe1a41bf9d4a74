import hashlib
import math
import multiprocessing
import re
import sys
import tracemalloc

import numpy as np
import pytest

import graphonsp as gsp
from graphonsp import cutmetric
from graphonsp.errors import ProbabilityRangeError, ScheduleError
from graphonsp.rng import derive_key, substream
from graphonsp.sampling import _block_labels, _sample_edges

from helpers import dense_sample_graph, random_step_graphon, reference_cell_index


class TestSampleGraph:
    def test_deterministic_given_seed(self):
        a = gsp.sample_graph(gsp.RankOneExp(1.0, 1.0), 4.0, 200, seed=11)
        b = gsp.sample_graph(gsp.RankOneExp(1.0, 1.0), 4.0, 200, seed=11)
        assert np.array_equal(a.points.xs, b.points.xs)
        assert np.array_equal(a.graph.edge_array, b.graph.edge_array)
        c = gsp.sample_graph(gsp.RankOneExp(1.0, 1.0), 4.0, 200, seed=12)
        assert not np.array_equal(a.graph.edge_array, c.graph.edge_array)

    def test_draws_are_pinned(self):
        # one sha256 over the vertex counts and edge arrays of these samples,
        # computed before the sampler's arrays were made leaner; the two
        # ConstantBox(1, 1) and the StepGraphon's 1.0 cells have complete
        # block pairs (q = 1)
        kernels = [gsp.RankOneExp(1.0, 1.0), gsp.RankOneExp(0.9, 0.5),
                   gsp.ConstantBox(1.0, 1.0), gsp.ConstantBox(0.3, 2.0),
                   gsp.StepGraphon([[1.0, 0.5, 0.0], [0.5, 1.0, 0.25],
                                    [0.0, 0.25, 0.1]], 2.0, 1.0)]
        digest = hashlib.sha256()
        for w in kernels:
            for t, n, seed in ((1.0, 1, 0), (2.0, 150, 3), (4.0, 700, 11),
                               (8.0, 1200, 2024)):
                g = gsp.sample_graph(w, t, n, seed, m_index=1).graph
                digest.update(np.int64(g.n).tobytes())
                digest.update(np.ascontiguousarray(g.edge_array, dtype="<i8").tobytes())
        assert digest.hexdigest() == (
            "94f8220e833b3d26e8879ea5d0fe3707b8f7ba07b92ffb7d4042b8835f33d1d7")

    def test_sampler_memory_is_bounded(self):
        # at most 6x the bytes of the edge array it returns; with every
        # candidate-sized array kept to the end it was 9.6x
        tracemalloc.start()
        try:
            sg = gsp.sample_graph(gsp.RankOneExp(1.0, 1.0), 4.0, 4000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sg.graph.edge_count > 450_000
        assert peak <= 6 * sg.graph.edge_array.nbytes

    def test_zero_graphon_gives_empty_graph(self):
        sg = gsp.sample_graph(gsp.ConstantBox(0.0, 1.0), 1.0, 50, seed=0)
        assert sg.graph.edge_count == 0

    def test_unit_box_gives_complete_graph(self):
        sg = gsp.sample_graph(gsp.ConstantBox(1.0, 1.0), 1.0, 30, seed=0)
        assert sg.graph.edge_count == 30 * 29 // 2

    def test_points_sorted_in_range(self):
        sg = gsp.sample_graph(gsp.CelebrityLimit(), 2.0, 100, seed=5)
        xs = sg.points.xs
        assert np.all(np.diff(xs) >= 0) and xs[0] >= 0 and xs[-1] <= 2.0

    def test_probability_range_error_names_the_point(self):
        with pytest.raises(ProbabilityRangeError, match="exceeds 1"):
            gsp.sample_graph(gsp.RankOneExp(2.0, 1.0), 1.0, 20, seed=0)

    def test_range_check_tolerates_rounding_above_one(self):
        w = gsp.RankOneExp(1.0 + 4e-13, 1.0)
        gsp.sample_graph(w, 1.0, 2000, seed=0)
        # W(0, 0) = c^2 lies within 1e-12 of 1: those pairs are certain
        xs = np.array([0.0, 0.0, 0.0, 0.5, 2.0])
        edges = _sample_edges(w, xs, substream(0, 1))
        assert {(0, 1), (0, 2), (1, 2)} <= set(map(tuple, edges.tolist()))

    def test_range_check_raises_exactly_when_a_pair_exceeds_one(self):
        # W(x, y) = 1.0201 exp(-x - y) exceeds 1 iff x + y < log(1.0201);
        # the check must agree with a scan of every pair i < j
        w = gsp.RankOneExp(1.01, 1.0)
        raised = 0
        for seed in range(40):
            xs = np.sort(substream(seed, 0xE4).uniform(0.0, 0.04, 6))
            i, j = np.triu_indices(6, 1)
            over = np.asarray(w.eval(xs[i], xs[j])).max() > 1.0 + 1e-12
            if not over:
                _sample_edges(w, xs, substream(seed, 1))
                continue
            raised += 1
            with pytest.raises(ProbabilityRangeError) as info:
                _sample_edges(w, xs, substream(seed, 1))
            found = re.search(r"W\(x\[(\d+)\], x\[(\d+)\]\) = W\((\S+), (\S+)\) "
                              r"= (\S+) exceeds 1", str(info.value))
            a, b = int(found[1]), int(found[2])
            assert a < b and float(found[3]) == xs[a] and float(found[4]) == xs[b]
            assert float(found[5]) == w.eval(xs[a], xs[b]) > 1.0 + 1e-12
        assert 5 <= raised <= 35
        with pytest.raises(ProbabilityRangeError, match=r"W\(x\[\d+\], x\[\d+\]\)"):
            gsp.sample_graph(w, 1.0, 2000, seed=0)

    @pytest.mark.parametrize("w", [gsp.RankOneExp(2.0, 1.0), gsp.ConstantBox(1.0, 1.0),
                                   gsp.CelebrityLimit(),
                                   gsp.StepGraphon([[1.0]], 1.0, 1.0)])
    def test_single_point_never_raises(self, w):
        assert gsp.sample_graph(w, 1.0, 1, seed=0).graph.edge_count == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_step_kernel_blocks_are_its_cells(self, seed):
        # label k past the support; the points include every breakpoint
        # i * h (with t) and its float neighbours
        w = random_step_graphon(seed)
        bps = [i * (w.t / w.k) for i in range(w.k)] + [w.t]
        near = [math.nextafter(e, d) for e in bps[1:] for d in (-math.inf, math.inf)]
        xs = np.sort(np.concatenate(
            [bps, near, substream(seed, 0xB1).uniform(0.0, 1.5 * w.t, 200)]))
        cells = [reference_cell_index(w.t, w.k, x) for x in xs]
        assert _block_labels(w, xs).tolist() == [w.k if c < 0 else c for c in cells]

    def test_unit_box_gives_complete_graph_on_its_points(self):
        sg = gsp.sample_graph(gsp.ConstantBox(1.0, 0.7), 2.0, 300, seed=4)
        k = int((sg.points.xs <= 0.7).sum())
        assert 60 < k < 150
        assert np.array_equal(sg.graph.edge_array, np.column_stack(np.triu_indices(k, 1)))

    def test_signed_step_graphon_is_rejected(self):
        w = gsp.SignedStepGraphon([[-0.5, 0.5], [0.5, 0.2]], 1.0, 1.0)
        with pytest.raises(TypeError, match="SignedStepGraphon"):
            gsp.sample_graph(w, 1.0, 50, seed=0)

    def test_celebrity_edge_count_matches_binomial_prediction(self):
        # |E| = C(K, 2) with K ~ Bin(n, 1/2); exact mean and variance from
        # binomial moments: E = C(n,2)/4, Var via E[K^3], E[K^4]
        n, t, seeds = 100, 2.0, 200
        p = 0.5
        mu = n * p
        s2 = n * p * (1 - p)
        ek2 = s2 + mu**2
        ek3 = mu**3 + 3 * mu * s2 + n * p * (1 - p) * (1 - 2 * p)
        mu4c = n * p * (1 - p) * (1 + 3 * (n - 2) * p * (1 - p))
        ek4 = mu4c + 4 * mu * (n * p * (1 - p) * (1 - 2 * p)) + 6 * mu**2 * s2 + mu**4
        mean_e = (ek2 - mu) / 2
        var_e = (ek4 - 2 * ek3 + ek2) / 4 - mean_e**2
        assert mean_e == pytest.approx(math.comb(n, 2) / 4)
        counts = [gsp.sample_graph(gsp.CelebrityLimit(), t, n, seed=s).graph.edge_count
                  for s in range(seeds)]
        se_mean = math.sqrt(var_e / seeds)
        assert abs(np.mean(counts) - mean_e) <= 3 * se_mean


def _oracle_cases():
    """(name, kernel, points) for every family, with points on every cell
    boundary and a step support shorter than the sampled range."""
    n = 240
    step = gsp.StepGraphon(np.array([[0.9, 0.2, 0.0, 0.5],
                                     [0.2, 0.0, 0.0, 1.0],
                                     [0.0, 0.0, 0.3, 0.05],
                                     [0.5, 1.0, 0.05, 0.7]]), 1.5, 1.0)
    cases = [("step", step, 2.0, [0.0, 0.375, 0.75, 1.125, 1.5]),
             ("box", gsp.ConstantBox(0.3, 1.1), 2.0, [1.1]),
             ("celebrity", gsp.CelebrityLimit(), 3.0, [1.0]),
             # x* = log(n^2) ~ 11 < 12: the tail block holds about 8% of the points
             ("rank_one", gsp.RankOneExp(1.0, 1.0), 12.0, [0.0, 0.125])]
    out = []
    for k, (name, w, t, fixed) in enumerate(cases):
        xs = substream(k, 0x0AC1E).uniform(0.0, t, n - len(fixed))
        out.append((name, w, np.sort(np.concatenate([xs, fixed]))))
    return out


class TestBlockSamplerAgainstDenseOracle:
    """The block sampler and the pair-by-pair oracle on the same points.

    Given the points, each pair is an independent Bernoulli(W(x_i, x_j)), so
    every count below has an exact mean and variance.  Over ``SEEDS``
    independent graphs per sampler, a correct sampler gives z-scores that
    are close to standard normal wherever the summed variance is at least
    5.  The bounds are 5 for the ~2100 per-vertex and block-pair z-scores
    and 4.5 for the 32 histogram comparisons, so all checks together
    false-alarm with probability below 2e-3, and the seeds are fixed.
    """

    SEEDS = 50

    @classmethod
    def _runs(cls, w, xs):
        return ([_sample_edges(w, xs, substream(s, 0xB10C)) for s in range(cls.SEEDS)],
                [dense_sample_graph(w, xs, substream(s, 0xDE45)) for s in range(cls.SEEDS)])

    @staticmethod
    def _z(total, mean, var, seeds):
        # counts of variance 0 are exact; below a summed variance of 5 the
        # normal approximation fails, and the block-pair counts cover them
        exact = var == 0
        assert np.array_equal(total[exact], seeds * mean[exact])
        use = seeds * var >= 5.0
        return (total[use] - seeds * mean[use]) / np.sqrt(seeds * var[use])

    @pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
    def test_block_pair_counts_and_degrees_match_binomial(self, case):
        _, w, xs = case
        n, seeds = xs.size, self.SEEDS
        p = np.triu(np.asarray(w.eval(xs[:, None], xs[None, :])), 1)
        group = np.arange(n) * 6 // n          # six blocks of consecutive points
        gi, gj = np.meshgrid(group, group, indexing="ij")
        cell = gi * 6 + gj
        mean_g = np.bincount(cell.ravel(), p.ravel(), 36)
        var_g = np.bincount(cell.ravel(), (p * (1 - p)).ravel(), 36)
        sym = p + p.T
        mean_d, var_d = sym.sum(axis=1), (sym * (1 - sym)).sum(axis=1)
        for runs in self._runs(w, xs):
            tot_g = sum(np.bincount(group[e[:, 0]] * 6 + group[e[:, 1]], minlength=36)
                        for e in runs)
            tot_d = sum(np.bincount(e.ravel(), minlength=n) for e in runs)
            assert np.abs(self._z(tot_g, mean_g, var_g, seeds)).max(initial=0) <= 5.0
            assert np.abs(self._z(tot_d, mean_d, var_d, seeds)).max(initial=0) <= 5.0

    @pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
    def test_degree_histograms_match_the_oracle(self, case):
        # per graph: how many vertices fall in each of 8 degree bins (pooled
        # quantiles); graphs are independent, so a Welch z per bin applies
        _, w, xs = case
        block, dense = self._runs(w, xs)
        deg = [[np.bincount(e.ravel(), minlength=xs.size) for e in runs]
               for runs in (block, dense)]
        cuts = np.unique(np.quantile(np.concatenate(deg[0] + deg[1]),
                                     np.linspace(0, 1, 9)[1:-1]))
        hist = [np.array([np.bincount(np.searchsorted(cuts, d, side="right"),
                                      minlength=cuts.size + 1) for d in runs])
                for runs in deg]
        se = np.sqrt((hist[0].var(axis=0, ddof=1) + hist[1].var(axis=0, ddof=1))
                     / self.SEEDS)
        diff = hist[0].mean(axis=0) - hist[1].mean(axis=0)
        assert np.all(diff[se == 0] == 0)
        assert np.abs(diff[se > 0] / se[se > 0]).max(initial=0) <= 4.5

    def test_million_points_sample_in_sparse_memory(self):
        # edge count against its exact mean given the points; separable
        # kernel: sum_{i<j} g_i g_j = ((sum g)^2 - sum g^2) / 2
        w = gsp.RankOneExp(1.0, 1.0)
        tracemalloc.start()
        try:
            sg = gsp.sample_graph(w, 2000.0, 10**6, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20
        g = w.profile(sg.points.xs)
        mu = (g.sum() ** 2 - (g**2).sum()) / 2.0
        assert abs(sg.graph.edge_count - mu) <= 6.0 * math.sqrt(mu)


class TestDoubleSequence:
    def test_single_cell_reduces_to_sample_graph(self):
        grid = gsp.sample_double_sequence(gsp.CelebrityLimit(), [2.0], [50], seed=9)
        cell = grid[0][0]
        again = gsp.sample_graph(gsp.CelebrityLimit(), 2.0, 50, cell.seed, m_index=0)
        assert np.array_equal(cell.graph.edge_array, again.graph.edge_array)

    def test_non_increasing_schedule_errors(self):
        with pytest.raises(ScheduleError):
            gsp.sample_double_sequence(gsp.CelebrityLimit(), [2.0, 2.0], [10], seed=0)

    @pytest.mark.parametrize("ns", [[3000, 3000], [50, 40]], ids=["repeated", "decreasing"])
    def test_non_increasing_n_schedule_errors(self, ns):
        # two cells with one n would write one edge-list file twice
        with pytest.raises(ScheduleError, match="n_schedule must be strictly increasing"):
            gsp.sample_double_sequence(gsp.RankOneExp(1.0, 1.0), [4.0], ns, seed=7)

    def test_cells_do_not_depend_on_the_cpu_count(self, monkeypatch):
        # each cell is sampled on the pool from its own substream; more
        # workers than cores and a short switch interval shuffle the order
        w = gsp.RankOneExp(1.0, 1.0)
        ts, ns = [2.0, 4.0, 8.0], [300, 600, 1200]
        expected = [[gsp.sample_graph(w, t, n, derive_key(5, mi, nj), m_index=mi)
                     for nj, n in enumerate(ns)] for mi, t in enumerate(ts)]
        monkeypatch.setattr(cutmetric, "_pool", cutmetric._pool)   # restored after
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 3):
                monkeypatch.setattr(cutmetric, "_cpus", lambda: cpus)
                cutmetric._new_pool()
                grid = gsp.sample_double_sequence(w, ts, ns, seed=5)
                cutmetric._pool.shutdown()
                assert [[c.seed for c in row] for row in grid] == [
                    [c.seed for c in row] for row in expected]
                for row, want in zip(grid, expected):
                    for cell, ref in zip(row, want):
                        assert cell.points.m_index == ref.points.m_index
                        assert np.array_equal(cell.points.xs, ref.points.xs)
                        assert np.array_equal(cell.graph.edge_array,
                                              ref.graph.edge_array)
        finally:
            sys.setswitchinterval(interval)

    def test_first_failing_cell_in_row_order_raises(self):
        # n = 1 never raises, so every other cell fails; cell (0, 1) is the
        # first in row order, and the message names its points, as a serial
        # loop would, though the larger cells (0, 2) and (1, 2) start first
        w = gsp.RankOneExp(2.0, 1.0)
        with pytest.raises(ProbabilityRangeError) as err:
            gsp.sample_double_sequence(w, [1.0, 2.0], [1, 50, 400], seed=4)
        with pytest.raises(ProbabilityRangeError) as first:
            gsp.sample_graph(w, 1.0, 50, derive_key(4, 0, 1), m_index=0)
        assert str(err.value) == str(first.value)

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_child_forked_after_sampling_completes_its_own(self):
        # the pool's threads do not survive a fork; a child that reused the
        # parent's pool would wait forever on cells no thread samples
        def edges():
            grid = gsp.sample_double_sequence(gsp.RankOneExp(1.0, 1.0), [2.0, 4.0],
                                              [200, 400], seed=3)
            return [cell.graph.edge_array.tobytes() for row in grid for cell in row]

        expected = edges()

        def sample_in_child():
            sys.exit(edges() != expected)

        child = multiprocessing.get_context("fork").Process(target=sample_in_child)
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the forked child's sampling did not finish within 60 s")
        assert child.exitcode == 0

    def test_rank_one_densities_decrease_toward_closed_form_limits(self):
        # closed-form limits (1 - e^{-t})^2 / t^2
        w = gsp.RankOneExp(1.0, 1.0)
        limits = [(1 - math.exp(-t)) ** 2 / t**2 for t in (2.0, 4.0, 8.0)]
        assert limits[0] == pytest.approx(0.18691, abs=1e-5)
        assert limits[1] == pytest.approx(0.06023, abs=1e-5)
        assert limits[2] == pytest.approx(0.01561, abs=1e-5)
        n = 1200
        dens = []
        for mi, t in enumerate((2.0, 4.0, 8.0)):
            vals = [gsp.pair_density(
                gsp.sample_graph(w, t, n, seed=s, m_index=mi).graph)
                for s in range(3)]
            dens.append(float(np.mean(vals)))
        assert dens[0] > dens[1] > dens[2]
        for d, lim in zip(dens, limits):
            assert d == pytest.approx(lim, rel=0.15)

    def test_celebrity_density_limits_by_area_fraction(self):
        w = gsp.CelebrityLimit()
        for t, lim in ((1.0, 1.0), (2.0, 0.25), (4.0, 1 / 16)):
            assert gsp.l1_restricted(w, t) / t**2 == pytest.approx(lim, abs=1e-15)


class TestExtractSparseSubsequence:
    def test_tolerance_one_accepts_first_entry(self):
        grid = gsp.sample_double_sequence(gsp.CelebrityLimit(), [2.0], [20, 40],
                                          seed=4)
        spec = gsp.extract_sparse_subsequence(grid, gsp.CelebrityLimit(),
                                              resolution=64)
        assert spec.phi[1] == 20
        assert not spec.gaps

    def test_scan_finds_smallest_qualifying_n(self):
        w = gsp.CelebrityLimit()
        grid = gsp.sample_double_sequence(w, [1.0, 2.0], [10, 100, 400], seed=8)
        spec = gsp.extract_sparse_subsequence(grid, w, resolution=64)
        # row m=2 has tolerance 1/2 on density |d - 1/4|; all sizes qualify on
        # density, so the cut-distance criterion drives the selection
        assert set(spec.phi).issubset({1, 2})
        for m, _, n, dens, target, dist in spec.rows:
            assert abs(dens - target) <= 1.0 / m + 1e-12
            assert dist <= 1.0 / m + 1e-12

    def test_gap_reported_when_nothing_qualifies(self):
        # tiny samples of a dense target at a tight tolerance leave a gap
        w = gsp.CelebrityLimit()
        grid = gsp.sample_double_sequence(w, [1.0, 2.0, 3.0], [3], seed=2)
        spec = gsp.extract_sparse_subsequence(grid, w, resolution=32)
        assert len(spec.phi) + len(spec.gaps) == 3

    def test_empty_grid_errors(self):
        with pytest.raises(ScheduleError):
            gsp.extract_sparse_subsequence([], gsp.CelebrityLimit())

    @pytest.fixture(scope="class")
    def grid(self):
        return gsp.sample_double_sequence(gsp.CelebrityLimit(), [1.0, 2.0], [10, 20], seed=8)

    def test_empty_later_row_errors(self, grid):
        with pytest.raises(ScheduleError, match="row 2 of the sampling grid is empty"):
            gsp.extract_sparse_subsequence([grid[0], []], gsp.CelebrityLimit())

    def test_row_of_mixed_t_m_errors(self, grid):
        with pytest.raises(ScheduleError, match="row 2 of the sampling grid differ in t_m"):
            gsp.extract_sparse_subsequence([grid[0], [grid[1][0], grid[0][1]]],
                                           gsp.CelebrityLimit())

    def test_restarts_below_one_errors(self):
        # even where no cut runs: a one-point sample has no edges to stretch
        lone = gsp.sample_graph(gsp.CelebrityLimit(), 1.0, 1, seed=0)
        with pytest.raises(ValueError, match="restarts must be at least 1, got 0"):
            gsp.extract_sparse_subsequence([[lone]], gsp.CelebrityLimit(), restarts=0)


class TestSampleSignal:
    def test_constant_profile(self):
        pts = gsp.SamplePoints(0, 2.0, np.array([0.1, 0.5, 1.5]))
        f = gsp.sample_signal(lambda x: np.full_like(x, 3.0), pts)
        assert np.all(f.values == 3.0) and f.t == 1.0 and f.k == 3

    def test_linear_profile_at_given_points(self):
        pts = gsp.SamplePoints(0, 2.0, np.array([0.5, 1.0, 1.5]))
        f = gsp.sample_signal(lambda x: x, pts)
        assert np.array_equal(f.values, [0.5, 1.0, 1.5])

    def test_step_signal_input_inherits_bound(self):
        base = gsp.StepSignal(np.array([1.0, -2.0]), 2.0)
        pts = gsp.SamplePoints(0, 2.0, np.array([0.25, 1.75]))
        f = gsp.sample_signal(base, pts)
        assert np.array_equal(f.values, [1.0, -2.0])
        assert f.bound == base.bound

    def test_values_within_sampled_range(self):
        rng = substream(3, 1)
        pts = gsp.SamplePoints(0, 8.0, np.sort(rng.uniform(0, 8, 500)))
        f = gsp.sample_signal(lambda x: np.exp(-x), pts)
        assert f.values.min() >= math.exp(-8.0) - 1e-15
        assert f.values.max() <= 1.0 + 1e-15

    def test_signal_error_decreases_with_n(self):
        # stretched sampled signal approaches e^{-x} in 1-norm as n grows;
        # full box => complete graph => deterministic stretch factor
        from helpers import l1_against_exp_decay

        def err(n, seed):
            sg = gsp.sample_graph(gsp.ConstantBox(1.0, 8.0), 8.0, n, seed=seed)
            assert sg.graph.edge_count == n * (n - 1) // 2
            f_mn = gsp.sample_signal(lambda x: np.exp(-x), sg.points)
            r = math.sqrt(gsp.canonical_graphon(sg.graph).l1_norm)
            f_s = gsp.stretch_signal(f_mn, r)
            return l1_against_exp_decay(f_s.values, f_s.edges(), 8.0)

        errs_small = [err(200, s) for s in range(5)]
        errs_big = [err(1600, s) for s in range(5)]
        assert np.mean(errs_big) < np.mean(errs_small)


class TestSampledGraphonConvergence:
    def test_stretched_distance_decreases_along_doubling_schedule(self):
        # heuristic upper bound on the distance between the sample's
        # canonical graphon and the restricted target shrinks as (t, n) double
        w = gsp.CelebrityLimit()
        schedule = [(1.0, 200), (2.0, 800), (4.0, 3200)]
        monotone = 0
        for seed in range(10):
            dists = []
            for mi, (t, n) in enumerate(schedule):
                g = gsp.sample_graph(w, t, n, seed=seed, m_index=mi).graph
                wm = gsp.restrict(w, t, resolution=64)
                dists.append(gsp.stretched_cut_distance(
                    gsp.canonical_graphon(g), wm, mode="degree_sort",
                    restarts=4, seed=seed).distance)
            monotone += dists[0] > dists[1] > dists[2]
        assert monotone >= 9


class TestGrowSubgraphs:
    def test_full_batch_returns_whole_graph(self):
        g = gsp.Graph(5, [(0, 1), (2, 3), (3, 4)])
        steps = gsp.grow_subgraphs(g, gsp.GrowthSchedule(5, 1, drop_isolated=False),
                                   seed=0)
        assert steps[0].graph == g

    def test_induced_subgraph_sizes(self):
        g = gsp.Graph(3, [(0, 1), (0, 2), (1, 2)])
        steps = gsp.grow_subgraphs(g, gsp.GrowthSchedule(1, 2, drop_isolated=False),
                                   seed=1)
        assert [s.graph.n for s in steps] == [1, 2]
        assert steps[1].graph.edge_count == 1  # any K3 pair is an edge

    def test_nested_before_isolation_removal(self):
        g = gsp.dense_core_graph(200, 0.5)
        steps = gsp.grow_subgraphs(g, gsp.GrowthSchedule(40, 5, drop_isolated=False),
                                   seed=3)
        prev = set()
        for s in steps:
            cur = set(s.vertices.tolist())
            assert prev <= cur
            prev = cur

    def test_isolation_removal_renumbers_and_maps(self):
        g = gsp.Graph(4, [(1, 3)])
        steps = gsp.grow_subgraphs(g, gsp.GrowthSchedule(4, 1, drop_isolated=True),
                                   seed=0)
        s = steps[0]
        assert s.graph.n == 2 and s.graph.edges == {(0, 1)}
        assert list(s.vertices) == [1, 3]

    def test_schedule_exceeding_graph_errors(self):
        with pytest.raises(ScheduleError):
            gsp.grow_subgraphs(gsp.Graph(3, []), gsp.GrowthSchedule(2, 2), seed=0)

    def test_dense_core_growth_density_concentrates(self):
        # densities of growing induced samples concentrate near
        # (|V'|/n)^2 / 2: flat in the step index, not decreasing
        n, alpha = 2000, 0.5
        g = gsp.dense_core_graph(n, alpha)
        q = math.floor(n**0.75) / n
        target = q * q / 2.0
        ok = 0
        for seed in range(50):
            steps = gsp.grow_subgraphs(g, gsp.GrowthSchedule(200, 10,
                                                             drop_isolated=False),
                                       seed=seed)
            dens = [s.graph.edge_density for s in steps[1:]]
            ok += all(abs(d - target) <= 0.5 * target for d in dens)
        assert ok >= 45


class TestDenseCoreGraph:
    def test_core_size_and_edges(self):
        g = gsp.dense_core_graph(400, 0.5)
        k = math.floor(400**0.75)
        assert k == 89
        assert g.n == 400
        assert g.edge_count == k * (k - 1) // 2
        core, kept = g.drop_isolated()
        assert core.n == k

    def test_sparse_in_n(self):
        d1 = gsp.dense_core_graph(400, 0.5).edge_density
        d2 = gsp.dense_core_graph(6400, 0.5).edge_density
        assert d2 < d1

    def test_is_core_periphery_graph_at_p_one(self):
        for n in (1, 7, 400, 3000):
            for seed in (0, 11):
                assert gsp.dense_core_graph(n, 0.5) == gsp.core_periphery_graph(
                    n, 0.5, 1.0, seed)

    @pytest.mark.parametrize("n", [0, -5])
    def test_nonpositive_n_rejected(self, n):
        with pytest.raises(ValueError, match="n must be positive"):
            gsp.dense_core_graph(n, 0.5)
        with pytest.raises(ValueError, match="n must be positive"):
            gsp.core_periphery_graph(n, 0.5, 0.6, seed=1)


class TestSubstreams:
    def test_independent_paths(self):
        a = substream(1, 2, 3).random(4)
        b = substream(1, 2, 4).random(4)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, substream(1, 2, 3).random(4))

    def test_derive_key_stable(self):
        assert derive_key(7, 1, 2) == derive_key(7, 1, 2)
        assert derive_key(7, 1, 2) != derive_key(7, 2, 1)
