import math

import numpy as np
import pytest

import graphonsp as gsp
from graphonsp.core import union_grid
from graphonsp.errors import StepRequiredError, ZeroGraphonError
from graphonsp.operators import chebyshev_polynomial_apply
from graphonsp.rng import substream

from helpers import values_at_cell_midpoints


def graph_like_graphon(seed, k=None):
    """Random step graphon with mass at most 1 (the graph-embedding regime)."""
    rng = substream(seed, 0xAB)
    if k is None:
        k = int(rng.integers(2, 13))
    v = rng.uniform(0.0, 1.0, (k, k))
    v = (v + v.T) / 2.0
    w = gsp.StepGraphon(v, 1.0, 1.0)
    return w


def random_signal(seed, k=None, t=1.0):
    rng = substream(seed, 0xF0)
    if k is None:
        k = int(rng.integers(2, 17))
    return gsp.StepSignal(rng.uniform(-1, 1, k), t)


class TestApply:
    def test_celebrity_indicator_is_fixed_point(self):
        op = gsp.GraphonOperator.from_spec(gsp.CelebrityLimit())
        f = gsp.StepSignal(np.ones(1), 1.0)
        out = gsp.apply(op, f)
        assert out.t == 1.0
        assert np.allclose(out.values, 1.0, atol=1e-15)

    def test_rank_one_action(self):
        op = gsp.GraphonOperator.from_spec(gsp.RankOneExp(1.0, 1.0))
        k, t = 4096, 16.0
        xs = (np.arange(k) + 0.5) * (t / k)
        f = gsp.StepSignal(np.exp(-xs), t)
        out = gsp.apply(op, f)
        target = 0.5 * np.exp(-xs)
        err = math.sqrt((t / k) * ((out.values - target) ** 2).sum())
        assert err < 1e-3

    def test_zero_signal_maps_to_zero(self):
        op = gsp.GraphonOperator.from_spec(graph_like_graphon(1, k=6))
        f = gsp.StepSignal(np.zeros(6), op.kernel.t)
        assert np.all(gsp.apply(op, f).values == 0.0)

    def test_output_on_operator_grid(self):
        op = gsp.GraphonOperator.from_spec(graph_like_graphon(2, k=5))
        f = random_signal(3, k=7, t=op.kernel.t / 2)  # different grid
        out = gsp.apply(op, f)
        assert out.k == op.kernel.k and out.t == op.kernel.t

    def test_matches_dense_matrix_on_shared_grid(self):
        w = graph_like_graphon(4, k=8)
        op = gsp.GraphonOperator.from_spec(w)
        f = random_signal(5, k=8, t=op.kernel.t)
        out = gsp.apply(op, f)
        assert np.allclose(out.values, op.matrix() @ f.values, atol=1e-14)

    def test_linearity(self):
        op = gsp.GraphonOperator.from_spec(graph_like_graphon(6, k=7))
        t = op.kernel.t
        f = random_signal(7, k=7, t=t)
        g = random_signal(8, k=7, t=t)
        lhs = gsp.apply(op, gsp.StepSignal(2.5 * f.values - 1.5 * g.values, t))
        rhs = 2.5 * gsp.apply(op, f).values - 1.5 * gsp.apply(op, g).values
        assert np.allclose(lhs.values, rhs, atol=1e-12)

    def test_self_adjointness(self):
        for seed in range(20):
            w = graph_like_graphon(seed)
            op = gsp.GraphonOperator.from_spec(w)
            k, t = op.kernel.k, op.kernel.t
            f = random_signal(seed + 100, k=k, t=t)
            g = random_signal(seed + 200, k=k, t=t)
            h = t / k
            tf = gsp.apply(op, f).values
            tg = gsp.apply(op, g).values
            lhs = h * float(tf @ g.values)
            rhs = h * float(f.values @ tg)
            assert abs(lhs - rhs) <= 1e-10


class TestOperatorNormBound:
    def test_constant_box_bound_and_true_norm(self):
        w = gsp.ConstantBox(0.5, 1.0)
        bound = gsp.operator_norm_bound(w)
        assert bound == pytest.approx(1.0, abs=1e-15)
        # rank-one kernel c * 1x1 box: true norm c * ||1_[0,L]||_2^2 = p L
        # with L = 1/sqrt(p); the dense eigensolve agrees
        op = gsp.GraphonOperator.from_spec(w)
        vals = np.linalg.eigvalsh(op.matrix().toarray())
        true_norm = max(abs(vals))
        assert true_norm == pytest.approx(0.5 * math.sqrt(2.0), rel=1e-12)
        assert true_norm == pytest.approx(w.l2_norm / math.sqrt(w.l1_norm), rel=1e-12)
        assert true_norm <= bound

    def test_triangle_bound_dominates_true_norm(self):
        w = gsp.canonical_graphon(gsp.Graph(3, [(0, 1), (0, 2), (1, 2)]))
        bound = gsp.operator_norm_bound(w)
        assert bound == pytest.approx(math.sqrt(6) / 3 / (2 / 3), rel=1e-12)
        assert bound == pytest.approx(1.224744871, abs=1e-9)
        op = gsp.GraphonOperator.from_spec(w)
        lam1 = max(abs(np.linalg.eigvalsh(op.matrix().toarray())))
        assert lam1 == pytest.approx(2 / math.sqrt(6), rel=1e-12)
        assert lam1 <= bound

    def test_zero_padding_leaves_bound_unchanged(self):
        w = graph_like_graphon(3, k=4)
        v = np.zeros((6, 6))
        v[:4, :4] = w.values.toarray()
        padded = gsp.StepGraphon(v, w.t * 6 / 4, w.value_bound)
        assert gsp.operator_norm_bound(padded) == pytest.approx(
            gsp.operator_norm_bound(w), rel=1e-12)

    def test_zero_graphon_errors(self):
        with pytest.raises(ZeroGraphonError):
            gsp.operator_norm_bound(gsp.StepGraphon(np.zeros((2, 2)), 1.0, 1.0))

    def test_bound_holds_on_graph_like_pairs(self):
        # ||T f||_2 <= (||W||_2 / ||W||_1) ||f||_2 whenever ||W||_1 <= 1
        worst = 0.0
        for seed in range(100):
            w = graph_like_graphon(seed)
            assert w.l1_norm <= 1.0
            op = gsp.GraphonOperator.from_spec(w)
            f = random_signal(seed + 1, t=op.kernel.t * (0.5 + (seed % 3) / 2))
            out = gsp.apply(op, f)
            slack = gsp.operator_norm_bound(w) * f.l2_norm - out.l2_norm
            worst = min(worst, slack)
        assert worst >= -1e-10


class TestPolynomialFilter:
    def test_linear_reduces_to_apply(self):
        op = gsp.GraphonOperator.from_spec(graph_like_graphon(1, k=5))
        f = random_signal(2, k=5, t=op.kernel.t)
        p = gsp.PolynomialFilter((0.0, 1.0))
        assert np.allclose(gsp.apply_polynomial(p, op, f).values,
                           gsp.apply(op, f).values, atol=1e-15)

    def test_square_on_celebrity_is_identity(self):
        op = gsp.GraphonOperator.from_spec(gsp.CelebrityLimit())
        f = gsp.StepSignal(np.ones(1), 1.0)
        p = gsp.PolynomialFilter((0.0, 0.0, 1.0))
        out = gsp.apply_polynomial(p, op, f)
        assert np.allclose(out.values, 1.0, atol=1e-14)

    def test_affine_filter_matches_dense_computation(self):
        w = gsp.canonical_graphon(gsp.Graph(3, [(0, 1), (0, 2), (1, 2)]))
        op = gsp.GraphonOperator.from_spec(w)
        f = gsp.StepSignal(np.ones(3), op.kernel.t)
        p = gsp.PolynomialFilter((1.0, 2.0))
        out = gsp.apply_polynomial(p, op, f)
        K = op.matrix()
        assert np.allclose(out.values, np.ones(3) + 2.0 * (K @ np.ones(3)),
                           atol=1e-14)

    def test_constant_term_on_a_half_support_signal(self):
        # thirds and halves of the operator support refine to sixths; the
        # signal is zero beyond its own support
        w = gsp.canonical_graphon(gsp.Graph(3, [(0, 1), (0, 2), (1, 2)]))
        op = gsp.GraphonOperator.from_spec(w)
        f = gsp.StepSignal(np.ones(1), op.kernel.t / 2)
        out = gsp.apply_polynomial(gsp.PolynomialFilter((1.0, 2.0)), op, f)
        assert out.k == 6 and out.t == op.kernel.t
        tail = np.repeat(2.0 * gsp.apply(op, f).values, 2)
        assert np.array_equal(out.values, tail + np.repeat([1.0, 0.0], 3))

    def test_incommensurable_signal_grid_is_rejected(self):
        w = gsp.canonical_graphon(gsp.Graph(3, [(0, 1), (0, 2), (1, 2)]))
        op = gsp.GraphonOperator.from_spec(w)
        f = gsp.StepSignal(np.ones(1), op.kernel.t / math.pi)
        with pytest.raises(StepRequiredError):
            gsp.apply_polynomial(gsp.PolynomialFilter((1.0, 0.0)), op, f)

    def test_degree_and_eval(self):
        p = gsp.PolynomialFilter((1.0, 0.0, 3.0))
        assert p.degree == 2
        assert p.eval(2.0) == 13.0

    def test_matches_matrix_polynomial(self):
        w = graph_like_graphon(9, k=6)
        op = gsp.GraphonOperator.from_spec(w)
        f = random_signal(10, k=6, t=op.kernel.t)
        p = gsp.PolynomialFilter((0.5, -1.0, 2.0, 0.25))
        out = gsp.apply_polynomial(p, op, f)
        K = op.matrix()
        expect = (0.5 * f.values - 1.0 * K @ f.values
                  + 2.0 * K @ K @ f.values + 0.25 * K @ K @ K @ f.values)
        assert np.allclose(out.values, expect, atol=1e-12)


class TestSpectralFilter:
    def test_fit_enforces_zero_at_origin(self):
        h = gsp.SpectralFilter.fit(lambda x: x * np.exp(x) + 2.0, (-1.0, 1.0),
                                   degree=24)
        assert h.eval(0.0) == pytest.approx(0.0, abs=1e-14)

    def test_fit_rejects_bad_degree(self):
        with pytest.raises(ValueError, match="raise the degree"):
            gsp.SpectralFilter.fit(np.abs, (-1.0, 1.0), degree=3, tolerance=1e-8)

    def test_identity_filter_matches_apply(self):
        w = graph_like_graphon(11, k=16)
        op = gsp.GraphonOperator.from_spec(w)
        b = op.norm_bound
        h = gsp.SpectralFilter.fit(lambda x: x, (-b, b), degree=3)
        f = random_signal(12, k=16, t=op.kernel.t)
        out, tail = gsp.apply_spectral(h, op, f, k_eigs=16)
        assert tail == 0.0
        rel = (np.linalg.norm(out.values - gsp.apply(op, f).values)
               / np.linalg.norm(gsp.apply(op, f).values))
        assert rel < 1e-8

    def test_square_filter_matches_polynomial_route(self):
        w = graph_like_graphon(13, k=12)
        op = gsp.GraphonOperator.from_spec(w)
        b = op.norm_bound
        h = gsp.SpectralFilter.fit(lambda x: x**2, (-b, b), degree=6)
        f = random_signal(14, k=12, t=op.kernel.t)
        out, _ = gsp.apply_spectral(h, op, f, k_eigs=12)
        poly = gsp.apply_polynomial(gsp.PolynomialFilter((0.0, 0.0, 1.0)), op, f)
        rel = np.linalg.norm(out.values - poly.values) / np.linalg.norm(poly.values)
        assert rel < 1e-8

    def test_two_path_agreement(self):
        w = graph_like_graphon(15, k=64)
        op = gsp.GraphonOperator.from_spec(w)
        b = op.norm_bound
        h = gsp.SpectralFilter.fit(lambda x: x * np.exp(x), (-b, b), degree=30,
                                   tolerance=1e-10)
        for seed in range(5):
            f = random_signal(seed + 50, k=64, t=op.kernel.t)
            s1, _ = gsp.apply_spectral(h, op, f, k_eigs=64)
            s2 = chebyshev_polynomial_apply(h, op, f)
            rel = np.linalg.norm(s1.values - s2.values) / np.linalg.norm(s1.values)
            assert rel < 1e-6

    def test_truncation_reports_tail_bound(self):
        w = graph_like_graphon(16, k=32)
        op = gsp.GraphonOperator.from_spec(w)
        b = op.norm_bound
        h = gsp.SpectralFilter.fit(lambda x: x**3, (-b, b), degree=7)
        f = random_signal(17, k=32, t=op.kernel.t)
        full, _ = gsp.apply_spectral(h, op, f, k_eigs=32)
        part, tail = gsp.apply_spectral(h, op, f, k_eigs=4)
        assert tail > 0.0
        assert np.linalg.norm(part.values - full.values) * math.sqrt(
            op.kernel.cell_width) <= tail + 1e-12

    def test_requires_step_kernel(self):
        op = gsp.GraphonOperator.from_spec(gsp.RankOneExp(1.0, 1.0))
        h = gsp.SpectralFilter.fit(lambda x: x, (-1, 1), degree=2)
        with pytest.raises(StepRequiredError):
            gsp.apply_spectral(h, op, gsp.StepSignal(np.ones(2), 1.0), k_eigs=2)


class TestOperatorConvergence:
    def _power_norm(self, S, iters=200, seed=0):
        rng = substream(seed, 0x90)
        v = rng.standard_normal(S.shape[0])
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            u = S @ (S @ v)
            nu = np.linalg.norm(u)
            if nu == 0:
                return 0.0
            v = u / nu
            lam = nu
        return math.sqrt(lam)

    def test_operator_gap_shrinks_with_cut_distance(self):
        # W_i = W + eps_i P -> gap estimate decreases (10% tolerance)
        rng = substream(21, 0x7)
        k = 24
        base = rng.uniform(0.3, 0.7, (k, k))
        base = (base + base.T) / 2
        pert = rng.uniform(-1, 1, (k, k))
        pert = (pert + pert.T) / 2
        w = gsp.StepGraphon(base, 1.0, 1.0)
        gaps = []
        for i in range(1, 6):
            eps = 2.0**-i
            wi = gsp.StepGraphon(base + eps * pert * 0.25, 1.0, 1.0)
            ws, _ = gsp.stretch(w)
            wis, _ = gsp.stretch(wi)
            widths = union_grid(wis, ws)[0]
            va, vb = values_at_cell_midpoints(widths, wis, ws)
            S = np.sqrt(widths)[:, None] * (va - vb) * np.sqrt(widths)[None, :]
            gaps.append(self._power_norm(S, seed=i))
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a * 1.10

    def test_joint_convergence_of_operator_and_signal(self):
        # ||T_{W_i^s} f_i - T_{W^s} f||_2 -> 0 along shrinking perturbations
        rng = substream(22, 0x8)
        k = 16
        base = rng.uniform(0.3, 0.7, (k, k))
        base = (base + base.T) / 2
        pert = rng.uniform(-1, 1, (k, k))
        pert = (pert + pert.T) / 2
        w = gsp.StepGraphon(base, 1.0, 1.0)
        op = gsp.GraphonOperator.from_spec(w)
        fv = rng.uniform(-1, 1, k)
        noise = rng.uniform(-1, 1, k)
        f = gsp.StepSignal(fv, op.kernel.t)
        ref = gsp.apply(op, f)
        errs = []
        for i in range(1, 6):
            eps = 2.0**-i
            wi = gsp.StepGraphon(base + eps * pert * 0.25, 1.0, 1.0)
            opi = gsp.GraphonOperator.from_spec(wi)
            fi = gsp.StepSignal(fv + eps * noise, opi.kernel.t)
            out = gsp.apply(opi, fi)
            # both outputs live on nearly identical grids; compare on ref grid
            diff = out.values - ref.values * (ref.t / out.t) ** 0  # same k
            errs.append(math.sqrt(out.cell_width * float((diff**2).sum())))
        assert errs[-1] < 0.1 * errs[0]
        for a, b in zip(errs, errs[1:]):
            assert b <= a * 1.10
