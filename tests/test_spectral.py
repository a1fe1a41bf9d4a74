import logging
import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import graphonsp as gsp
from graphonsp import spectral
from graphonsp.errors import EigenConvergenceError, GraphonError
from graphonsp.rng import substream


def complete_graph(n):
    iu = np.triu_indices(n, 1)
    return gsp.Graph(n, np.column_stack(iu))


def star_graph(leaves):
    return gsp.Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_sparse_symmetric(seed, dim, density=0.05):
    rng = substream(seed, 0x5E)
    m = max(dim, int(density * dim * dim / 2))
    r = rng.integers(0, dim, m)
    c = rng.integers(0, dim, m)
    v = rng.standard_normal(m)
    a = sp.coo_matrix((v, (r, c)), shape=(dim, dim))
    a = (a + a.T).tocsr()
    a.setdiag(0.0)
    return a


class TestEigensolve:
    @pytest.fixture
    def iterative(self, monkeypatch):
        """Every solve narrower than its dimension goes through ``eigsh``."""
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 0)

    def test_complete_graph_spectrum(self):
        rep = gsp.eigensolve(complete_graph(4), k_pos=1, k_neg=3)
        assert rep.positive[0] == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(rep.negative, [-1.0, -1.0, -1.0], atol=1e-12)

    def test_star_spectrum(self):
        rep = gsp.eigensolve(star_graph(4), k_pos=2, k_neg=1)
        assert rep.positive[0] == pytest.approx(2.0, abs=1e-12)
        assert rep.positive[1] == pytest.approx(0.0, abs=1e-12)
        assert rep.negative[0] == pytest.approx(-2.0, abs=1e-12)

    def test_zero_matrix(self):
        rep = gsp.eigensolve(np.zeros((4, 4)), k_pos=2, k_neg=2)
        assert np.all(rep.positive == 0.0) and np.all(rep.negative == 0.0)

    def test_residual_contract(self, iterative):
        a = random_sparse_symmetric(1, 300)
        rep = gsp.eigensolve(a, k_pos=3, k_neg=3, tol=1e-8, vectors=True)
        scale = max(abs(rep.positive).max(), abs(rep.negative).max())
        assert rep.residual_pos.max() <= 1e-8 * max(1.0, scale)
        assert rep.residual_neg.max() <= 1e-8 * max(1.0, scale)

    def test_lanczos_matches_dense_oracle(self, iterative):
        # 100 random sparse symmetric matrices, extreme 3 from each end
        for seed in range(100):
            dim = 60 + (seed * 7) % 440
            a = random_sparse_symmetric(seed, dim)
            dense_vals = scipy.linalg.eigh(a.toarray(), eigvals_only=True)
            rep = gsp.eigensolve(a, k_pos=3, k_neg=3, tol=1e-10, seed=seed)
            scale = max(1.0, abs(dense_vals).max())
            assert np.allclose(rep.positive, dense_vals[::-1][:3],
                               atol=1e-8 * scale)
            assert np.allclose(rep.negative, dense_vals[:3], atol=1e-8 * scale)

    def test_lanczos_handles_disconnected_components(self, iterative):
        # two cliques: degenerate extreme eigenvalues need the restart path
        g1 = complete_graph(30)
        edges = np.vstack([g1.edge_array, g1.edge_array + 30])
        g = gsp.Graph(60, edges)
        rep = gsp.eigensolve(g, k_pos=2, k_neg=2, tol=1e-9)
        assert np.allclose(rep.positive, [29.0, 29.0], atol=1e-6)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            gsp.eigensolve(np.zeros((3, 3)), k_pos=2, k_neg=2)
        with pytest.raises(ValueError):
            gsp.eigensolve(np.zeros((3, 3)), k_pos=0, k_neg=0)

    @pytest.mark.parametrize("k_pos, k_neg", [(3, 0), (0, 2), (1, 4)])
    def test_uneven_ends_on_iterative_path(self, k_pos, k_neg):
        dim = 400
        assert dim > spectral.DENSE_THRESHOLD
        a = random_sparse_symmetric(7, dim)
        dense_vals = scipy.linalg.eigh(a.toarray(), eigvals_only=True)
        rep = gsp.eigensolve(a, k_pos=k_pos, k_neg=k_neg, vectors=True, seed=3)
        assert rep.positive.shape == rep.residual_pos.shape == (k_pos,)
        assert rep.negative.shape == rep.residual_neg.shape == (k_neg,)
        assert rep.vectors_pos.shape == (dim, k_pos)
        assert rep.vectors_neg.shape == (dim, k_neg)
        scale = abs(dense_vals).max()
        assert np.allclose(rep.positive, dense_vals[::-1][:k_pos], atol=1e-10 * scale)
        assert np.allclose(rep.negative, dense_vals[:k_neg], atol=1e-10 * scale)

    @pytest.mark.parametrize("dim, k_pos, k_neg", [(5, 3, 0), (4, 2, 2), (6, 1, 3)])
    def test_request_wider_than_arpack_falls_back_to_dense(self, monkeypatch, iterative,
                                                          dim, k_pos, k_neg):
        # eigsh needs k = 2 max(k_pos, k_neg) < dim; wider requests go dense
        def no_eigsh(*args, **kwargs):
            raise AssertionError("eigsh called for k >= dim")

        monkeypatch.setattr(spla, "eigsh", no_eigsh)
        a = random_sparse_symmetric(dim, dim, density=0.5).toarray()
        vals = np.linalg.eigvalsh(a)
        rep = gsp.eigensolve(a, k_pos=k_pos, k_neg=k_neg)
        assert np.allclose(rep.positive, vals[::-1][:k_pos], atol=1e-12)
        assert np.allclose(rep.negative, vals[:k_neg], atol=1e-12)

    @pytest.mark.parametrize("dim, threshold", [(50, 256), (300, 0)],
                             ids=["dense", "iterative"])
    def test_unreachable_tolerance_reports_residuals(self, monkeypatch, dim, threshold):
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", threshold)
        a = random_sparse_symmetric(11, dim)
        with pytest.raises(EigenConvergenceError) as info:
            gsp.eigensolve(a, k_pos=2, k_neg=1, tol=0.0)
        res = info.value.residuals
        assert res.shape == (3,) and np.all(res > 0.0)

    def test_arpack_failure_becomes_convergence_error(self, monkeypatch, iterative):
        def stalled(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.zeros(0),
                                           np.zeros((0, 0)))

        monkeypatch.setattr(spla, "eigsh", stalled)
        with pytest.raises(EigenConvergenceError, match="ARPACK"):
            gsp.eigensolve(random_sparse_symmetric(2, 100))

    def test_iterative_path_is_bit_identical_per_seed(self):
        a = random_sparse_symmetric(5, 500)
        reps = [gsp.eigensolve(a, k_pos=3, k_neg=3, seed=9) for _ in range(2)]
        assert np.array_equal(reps[0].positive, reps[1].positive)
        assert np.array_equal(reps[0].negative, reps[1].negative)

    def test_arpack_stops_at_a_hundredth_of_tol(self, caplog):
        # ARPACK stops at tol / 100, not at machine precision; the extreme
        # eigenvalues still match LAPACK, far inside the residual check
        g, _ = gsp.sample_graph(gsp.RankOneExp(1, 1), 8.0, 1200, seed=4).graph.drop_isolated()
        assert g.n > spectral.DENSE_THRESHOLD
        a = g.adjacency()
        dense_vals = scipy.linalg.eigh(a.toarray(), eigvals_only=True)
        with caplog.at_level(logging.DEBUG, logger="graphonsp"):
            rep = gsp.eigensolve(g, k_pos=3, k_neg=3, seed=1)
        assert np.allclose(rep.positive, dense_vals[::-1][:3], rtol=1e-12, atol=0.0)
        assert np.allclose(rep.negative, dense_vals[:3], rtol=1e-12, atol=0.0)
        thresh = 1e-8 * abs(dense_vals).max()
        assert max(rep.residual_pos.max(), rep.residual_neg.max()) <= 1e-2 * thresh
        (record,) = [r.getMessage() for r in caplog.records if r.name == "graphonsp.spectral"]
        products = int(re.search(r"; (\d+) operator products$", record).group(1))
        # the same solve at eigsh's default tol = 0, machine precision
        count = [0]

        def matvec(x):
            count[0] += 1
            return a @ x

        spla.eigsh(spla.LinearOperator(a.shape, matvec=matvec, dtype=a.dtype), k=6,
                   which="BE", v0=substream(1, 0xE16).standard_normal(g.n))
        assert 0 < products < count[0]


class TestScaledSpectrum:
    def test_complete_graph_ratio(self):
        out = gsp.scaled_spectrum(complete_graph(4), [1])
        assert out[1] == pytest.approx(math.sqrt(3) / 2, rel=1e-12)
        assert out[1] == pytest.approx(0.8660, abs=1e-4)

    def test_star_ratio(self):
        out = gsp.scaled_spectrum(star_graph(8), [1, -1])
        assert out[1] == pytest.approx(math.sqrt(8) / 4, rel=1e-12)
        assert out[1] == pytest.approx(0.7071, abs=1e-4)
        assert out[-1] == pytest.approx(-0.7071, abs=1e-4)

    def test_single_edge(self):
        out = gsp.scaled_spectrum(gsp.Graph(2, [(0, 1)]), [1])
        assert out[1] == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_empty_edge_set_errors(self):
        with pytest.raises(GraphonError):
            gsp.scaled_spectrum(gsp.Graph(3, []), [1])

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            gsp.scaled_spectrum(complete_graph(3), [0, 1])

    @pytest.mark.parametrize("t_range", [[1, 2, 3, -1, -2, -3], [4]])
    def test_graph_smaller_than_both_ends(self, t_range):
        g = complete_graph(3)
        out = gsp.scaled_spectrum(g, t_range)
        vals = np.linalg.eigvalsh(g.adjacency().toarray()) / math.sqrt(6.0)
        for t in t_range:
            expect = 0.0 if abs(t) > 3 else (vals[-t] if t > 0 else vals[-t - 1])
            assert out[t] == pytest.approx(expect, abs=1e-12)


class TestTrajectory:
    def test_constant_sequence(self):
        g = complete_graph(5)
        traj = gsp.trajectory([g, g, g], [1, -1])
        vals = [p.eigenvalues[1] for p in traj]
        assert vals[0] == vals[1] == vals[2]

    def test_growing_cliques(self):
        traj = gsp.trajectory([complete_graph(n) for n in range(2, 21)], [1])
        for p, n in zip(traj, range(2, 21)):
            assert p.eigenvalues[1] == pytest.approx(n - 1, abs=1e-10)
            assert p.n_edges == n * (n - 1) // 2

    def test_dense_core_scaled_ratio_near_one(self):
        # clique of size >= 500: lambda_1 / sqrt(2 |E|) = sqrt(1 - 1/k)
        g = gsp.dense_core_graph(6000, 0.5)
        steps = gsp.grow_subgraphs(g, gsp.GrowthSchedule(1500, 4), seed=2)
        traj = gsp.trajectory([s.graph for s in steps], [1])
        last = traj[-1]
        assert last.n_vertices >= 500
        ratio = last.eigenvalues[1] / math.sqrt(2 * last.n_edges)
        assert abs(ratio - 1.0) <= 0.02

    def test_empty_graph_errors(self):
        with pytest.raises(GraphonError):
            gsp.trajectory([gsp.Graph(0, [])], [1])

    @pytest.mark.parametrize("t_set", [[0, 1], [0, 1, -1]])
    def test_t_zero_rejected(self, t_set):
        with pytest.raises(ValueError, match="t = 0 is not a valid eigenvalue index"):
            gsp.trajectory([complete_graph(3)], t_set)

    @pytest.mark.parametrize("g", [complete_graph(3),
                                   gsp.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])],
                             ids=["K3", "four-vertex"])
    def test_graph_smaller_than_both_ends(self, g):
        # the ends overlap: each t-th eigenvalue from its end, 0 beyond n
        t_set = [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]
        lams = gsp.trajectory([g], t_set)[0].eigenvalues
        vals = np.linalg.eigvalsh(g.adjacency().toarray())
        for t in t_set:
            if abs(t) > g.n:
                assert lams[t] == 0.0
            else:
                expect = vals[-t] if t > 0 else vals[-t - 1]
                assert lams[t] == pytest.approx(expect, abs=1e-12)


class TestFitModels:
    def test_exact_line(self):
        pts = [gsp.TrajectoryPoint(i, 10, (3 * (i + 1)) ** 2 // 2, {1: 0.0})
               for i in range(3)]
        # construct y = 3 x for the generalized model via x = sqrt(2E)
        pts = []
        for i, e in enumerate([2, 8, 18]):
            x = math.sqrt(2 * e)
            pts.append(gsp.TrajectoryPoint(i, 10, e, {1: 3.0 * x}))
        fits = gsp.fit_models(pts, 0, 1)
        assert fits["generalized"].slope == pytest.approx(3.0, rel=1e-12)
        assert fits["generalized"].mse == pytest.approx(0.0, abs=1e-20)

    def test_hand_checked_least_squares(self):
        # y = (2, 4.3, 6) at x = (1, 2, 3): slope = 28.6 / 14
        pts = [gsp.TrajectoryPoint(i, x, 1, {1: y})
               for i, (x, y) in enumerate(zip([1, 2, 3], [2.0, 4.3, 6.0]))]
        fits = gsp.fit_models(pts, 0, 1)
        slope = fits["classical"].slope
        assert slope == pytest.approx(28.6 / 14.0, rel=1e-12)
        resid = np.array([2.0, 4.3, 6.0]) - slope * np.array([1.0, 2.0, 3.0])
        assert fits["classical"].mse == pytest.approx(float((resid**2).mean()),
                                                      rel=1e-12)

    def test_horizontal_model_on_constant_data(self):
        pts = [gsp.TrajectoryPoint(i, 5, 4, {1: 7.0}) for i in range(4)]
        fits = gsp.fit_models(pts, 0, 1)
        assert fits["graphing"].slope == 7.0
        assert fits["graphing"].mse == 0.0

    def test_edge_scale_invariance_of_mse(self):
        pts = [gsp.TrajectoryPoint(i, v, e, {1: y}) for i, (v, e, y) in
               enumerate([(10, 20, 4.0), (20, 45, 6.5), (30, 80, 8.1)])]
        m1 = gsp.fit_models(pts, 0, 1, edge_scale="2E")
        m2 = gsp.fit_models(pts, 0, 1, edge_scale="E")
        assert m1["generalized"].mse == pytest.approx(m2["generalized"].mse,
                                                      rel=1e-12)
        assert m1["generalized"].slope == pytest.approx(
            m2["generalized"].slope / math.sqrt(2.0), rel=1e-12)

    def test_short_tail_errors(self):
        pts = [gsp.TrajectoryPoint(0, 5, 4, {1: 7.0})]
        with pytest.raises(GraphonError):
            gsp.fit_models(pts, 0, 1)

    def test_direction_on_dense_core_growth(self):
        # generalized MSE below classical and graphing for t = 1
        wins = 0
        for seed in range(20):
            g = gsp.dense_core_graph(2000, 0.5)
            steps = gsp.grow_subgraphs(g, gsp.GrowthSchedule(200, 10), seed=seed)
            traj = gsp.trajectory([s.graph for s in steps], [1])
            fits = gsp.fit_models(traj, 5, 1)
            wins += (fits["generalized"].mse < fits["classical"].mse
                     and fits["generalized"].mse < fits["graphing"].mse)
        assert wins >= 18


class TestMovingScaledAverages:
    def test_constant_trajectory(self):
        pts = [gsp.TrajectoryPoint(i, 4, 8, {1: 2.0, -1: -1.0}) for i in range(6)]
        out = gsp.moving_scaled_averages(pts, window=3)
        a, b = out[1]
        assert np.allclose(a, 0.5) and np.allclose(b, 2.0 / math.sqrt(8))

    def test_growing_cliques_classical_average(self):
        graphs = [complete_graph(n) for n in range(10, 20)]
        traj = gsp.trajectory(graphs, [1])
        out = gsp.moving_scaled_averages(traj, window=5)
        a, b = out[1]
        expect_a0 = np.mean([(n - 1) / n for n in range(10, 15)])
        assert a[0] == pytest.approx(expect_a0, rel=1e-12)
        assert a[-1] > a[0]  # K_n ratio increases toward 1

    def test_dense_core_generalized_average_near_sqrt2(self):
        # isolated vertices kept: classical scaling stays small while the
        # edge scaling stabilizes at sqrt(2) sqrt(1 - 1/k) for the core
        g = gsp.dense_core_graph(3000, 0.5)
        steps = gsp.grow_subgraphs(g, gsp.GrowthSchedule(300, 10,
                                                         drop_isolated=False),
                                   seed=4)
        traj = gsp.trajectory([s.graph for s in steps], [1])
        out = gsp.moving_scaled_averages(traj, window=5)
        a, b = out[1]
        assert b[-1] == pytest.approx(math.sqrt(2.0), rel=0.02)
        assert a[-1] < 0.2

    def test_window_validation(self):
        pts = [gsp.TrajectoryPoint(0, 4, 8, {1: 2.0})]
        with pytest.raises(GraphonError):
            gsp.moving_scaled_averages(pts, window=2)
