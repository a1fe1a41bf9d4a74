import math

import numpy as np
import pytest

import graphonsp as gsp
from graphonsp.errors import EmptyGraphError, GraphonError, RankDeficientError
from graphonsp.filterfit import apply_adjacency_polynomial
from graphonsp.rng import substream


def complete_graph(n):
    iu = np.triu_indices(n, 1)
    return gsp.Graph(n, np.column_stack(iu))


def er_graph(n, p, seed):
    return gsp.sample_graph(gsp.ConstantBox(p, 1.0), 1.0, n, seed=seed).graph


class TestSynthesizeDiffusion:
    def test_degree_zero_scales_input(self):
        g = er_graph(40, 0.2, seed=1)
        spec = gsp.DiffusionSpec(0, coefficients=(2.5,))
        inst = gsp.synthesize_diffusion(g, spec, seed=2)
        assert np.allclose(inst.g_out, 2.5 * inst.f)

    def test_single_matvec_returns_adjacency_column(self):
        g = complete_graph(4)
        f = np.zeros(4)
        f[1] = 1.0
        out = apply_adjacency_polynomial(g, (0.0, 1.0), f)
        assert np.allclose(out, g.adjacency().toarray()[:, 1])

    def test_k4_hand_computation(self):
        # A(K4)^2 = 3I + 2A, so (I + A + A^2) e0 = (4, 3, 3, 3)
        g = complete_graph(4)
        f = np.array([1.0, 0.0, 0.0, 0.0])
        out = apply_adjacency_polynomial(g, (1.0, 1.0, 1.0), f)
        assert np.allclose(out, [4.0, 3.0, 3.0, 3.0])

    def test_support_is_top_degree_with_index_ties(self):
        g = gsp.Graph(5, [(0, 1), (0, 2), (3, 4)])  # degrees 2,1,1,1,1
        spec = gsp.DiffusionSpec(1, top_degree_fraction=0.4)
        inst = gsp.synthesize_diffusion(g, spec, seed=0)
        assert list(inst.support) == [0, 1]  # tie at degree 1 -> lowest index
        assert np.all(inst.f[[2, 3, 4]] == 0.0)

    def test_empty_graph_errors(self):
        with pytest.raises(EmptyGraphError):
            gsp.synthesize_diffusion(gsp.Graph(0, []), gsp.DiffusionSpec(1), 0)

    def test_deterministic(self):
        g = er_graph(30, 0.3, seed=5)
        a = gsp.synthesize_diffusion(g, gsp.DiffusionSpec(2), seed=7)
        b = gsp.synthesize_diffusion(g, gsp.DiffusionSpec(2), seed=7)
        assert np.array_equal(a.f, b.f) and a.coefficients == b.coefficients


class TestFitFilter:
    def test_exact_recovery_both_scalings(self):
        g = er_graph(120, 0.15, seed=3)
        rng = substream(4, 1)
        f = np.zeros(120)
        top = np.argsort(-g.degrees())[:12]
        f[top] = rng.random(12)
        truth = (0.7, -0.4, 0.9, 0.2)
        for scaling in ("classical", "generalized"):
            scale = 120.0 if scaling == "classical" else math.sqrt(2 * g.edge_count)
            A = g.adjacency()
            y = np.zeros(120)
            term = f.copy()
            for i, c in enumerate(truth):
                if i > 0:
                    term = (A @ term) / scale
                y += c * term
            fit = gsp.fit_filter(f, y, g, d=3, scaling=scaling)
            assert np.allclose(fit.filter.coefficients, truth, rtol=1e-8)
            assert fit.condition < 1e6

    def test_degree_zero_is_scalar_projection(self):
        g = er_graph(25, 0.3, seed=6)
        rng = substream(5, 2)
        f = rng.random(25)
        y = rng.random(25)
        fit = gsp.fit_filter(f, y, g, d=0)
        assert fit.filter.coefficients[0] == pytest.approx(
            float(f @ y) / float(f @ f), rel=1e-12)

    def test_zero_signal_errors(self):
        g = er_graph(25, 0.3, seed=6)
        with pytest.raises(RankDeficientError):
            gsp.fit_filter(np.zeros(25), np.ones(25), g, d=1)

    def test_condition_limit_raises_with_advice(self):
        g = complete_graph(30)  # A^2 = (k-2)A + (k-1)I: degree-2 design singular
        f = np.zeros(30)
        f[0] = 1.0
        y = apply_adjacency_polynomial(g, (0.1, 0.2, 0.3), f)
        with pytest.raises(RankDeficientError, match="lower degree"):
            gsp.fit_filter(f, y, g, d=2)

    def test_prediction_equivalence_between_scalings(self):
        # same Krylov span -> identical predictions regardless of scaling
        g = er_graph(150, 0.1, seed=9)
        inst = gsp.synthesize_diffusion(g, gsp.DiffusionSpec(3), seed=10)
        fits = [gsp.fit_filter(inst.f, inst.g_out, g, d=3, scaling=s)
                for s in ("classical", "generalized")]
        preds = [fit.predict(g, inst.f) for fit in fits]
        rel = (np.linalg.norm(preds[0] - preds[1])
               / max(np.linalg.norm(preds[0]), 1e-300))
        assert rel < 1e-8


class TestCoefficientTrajectory:
    def test_full_graph_entry_is_ground_truth(self):
        g = er_graph(80, 0.2, seed=11)
        spec = gsp.DiffusionSpec(2)
        traj = gsp.coefficient_trajectory(g, [80], spec, seed=12)
        inst = gsp.synthesize_diffusion(g, spec, seed=12)
        assert len(traj.ks) == 1
        assert traj.generalized[0] == pytest.approx(
            inst.coefficients[-1] * (math.sqrt(2 * g.edge_count)) ** 2, rel=1e-6)

    def test_basis_change_ratio_on_exact_recovery(self):
        # leading coefficients differ by (sqrt(2 E_k) / m_k)^d across scalings
        g = er_graph(100, 0.2, seed=13)
        spec = gsp.DiffusionSpec(2)
        traj = gsp.coefficient_trajectory(g, [60, 100], spec, seed=14)
        for i in range(len(traj.ks)):
            m_k = traj.sizes[i]
            e_k = traj.edge_counts[i]
            ratio = (math.sqrt(2 * e_k) / m_k) ** 2
            assert traj.generalized[i] == pytest.approx(
                traj.classical[i] * ratio, rel=1e-8)

    def test_gap_recorded_when_signal_vanishes(self):
        g = gsp.Graph(30, [(0, i) for i in range(1, 20)]
                      + [(20 + i, 20 + (i + 1) % 10) for i in range(10)])
        spec = gsp.DiffusionSpec(1, top_degree_fraction=0.05)
        traj = gsp.coefficient_trajectory(g, [3, 10, 30], spec, seed=0)
        assert traj.errors
        assert len(traj.ks) + len(traj.errors) == 3

    def test_size_validation(self):
        g = er_graph(30, 0.3, seed=1)
        with pytest.raises(GraphonError):
            gsp.coefficient_trajectory(g, [10, 10, 30], gsp.DiffusionSpec(1), 0)
        with pytest.raises(GraphonError):
            gsp.coefficient_trajectory(g, [10, 20], gsp.DiffusionSpec(1), 0)

    def test_generalized_tail_steadier_on_sparse_sequences(self):
        wins = total = 0
        for seed in range(25):
            g = gsp.core_periphery_graph(800, 0.5, 0.5, seed=seed)
            sizes = list(np.linspace(80, 800, 10).astype(int))
            sizes[-1] = 800
            traj = gsp.coefficient_trajectory(g, sizes, gsp.DiffusionSpec(2),
                                              seed=seed)
            if len(traj.ks) < 8:
                continue
            total += 1
            wins += (np.var(traj.generalized[-5:]) < np.var(traj.classical[-5:]))
        assert total >= 20
        assert wins / total >= 0.8


class TestConvergenceRatios:
    def test_constant_trajectory_flags_exact_convergence(self):
        out = gsp.convergence_ratios([2.0, 2.0, 2.0], tail_from=0)
        assert out.exact_convergence and out.ratios is None

    def test_hand_checked_values(self):
        out = gsp.convergence_ratios([1.0, 2.0, 4.0], tail_from=0)
        assert out.tail_mean == pytest.approx(7 / 3, rel=1e-15)
        assert np.allclose(out.ratios, [0.6, 1.2])

    def test_geometric_approach_gives_decreasing_ratios(self):
        c = [5.0 - 2.0**-k for k in range(10)]
        out = gsp.convergence_ratios(c, tail_from=2)
        assert np.all(np.diff(out.ratios) < 0)

    def test_short_tail_errors(self):
        with pytest.raises(GraphonError):
            gsp.convergence_ratios([1.0, 2.0], tail_from=1)


class TestPredictHelper:
    def test_predict_matches_design(self):
        g = er_graph(40, 0.25, seed=15)
        rng = substream(6, 3)
        f = rng.random(40)
        y = rng.random(40)
        fit = gsp.fit_filter(f, y, g, d=2, scaling="generalized")
        pred = fit.predict(g, f)
        A = g.adjacency().toarray()
        S = A / fit.scale
        c = fit.filter.coefficients
        expect = c[0] * f + c[1] * (S @ f) + c[2] * (S @ S @ f)
        assert np.allclose(pred, expect, atol=1e-12)
