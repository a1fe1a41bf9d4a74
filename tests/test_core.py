import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate

import graphonsp as gsp
from graphonsp import core
from graphonsp.errors import (
    EmptyGraphError,
    IsolatedVertexError,
    StepRequiredError,
    SupportMismatchError,
    ZeroGraphonError,
)
from graphonsp.rng import substream

from helpers import dense, random_step_graphon


def k3():
    return gsp.Graph(3, [(0, 1), (0, 2), (1, 2)])


class TestGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            gsp.Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gsp.Graph(3, [(0, 3)])

    def test_rejects_fractional_endpoints(self):
        with pytest.raises(ValueError, match="integers"):
            gsp.Graph(3, [(0.7, 2.2)])
        with pytest.raises(ValueError, match="integers"):
            gsp.Graph(3, np.array([[0.0, np.nan]]))
        # integral floats are the same edges as integers
        assert gsp.Graph(3, [(0.0, 2.0)]) == gsp.Graph(3, [(0, 2)])

    def test_dedupes_reversed_edges(self):
        g = gsp.Graph(4, [(1, 0), (0, 1), (2, 3)])
        assert g.edge_count == 2
        assert g.edges == {(0, 1), (2, 3)}

    def test_vertex_count_bound(self):
        # the largest n whose edge keys lo * n + hi < n^2 fit in int64
        top = math.isqrt(2**63 - 1)
        g = gsp.Graph(top, [(top - 1, 0), (top - 2, top - 1), (0, top - 1)])
        assert g.edge_array.tolist() == [[0, top - 1], [top - 2, top - 1]]
        for n in (top + 1, -1):
            with pytest.raises(ValueError) as info:
                gsp.Graph(n, [])
            assert str(info.value) == f"vertex count must lie in [0, {top}], got {n}"

    def test_edge_density(self):
        g = k3()
        assert g.edge_density == 3 / 9

    def test_degrees_and_induced(self):
        g = gsp.Graph(4, [(0, 1), (1, 2)])
        assert list(g.degrees()) == [1, 2, 1, 0]
        sub, kept = g.induced_subgraph(np.array([1, 2, 3]))
        assert sub.n == 3 and sub.edges == {(0, 1)}
        assert list(kept) == [1, 2, 3]
        iso, kept2 = g.drop_isolated()
        assert iso.n == 3 and list(kept2) == [0, 1, 2]

    def test_edge_order_and_repeats_do_not_matter(self):
        rng = np.random.default_rng(3)
        iu = np.column_stack(np.triu_indices(30, 1))
        e = iu[rng.random(len(iu)) < 0.3]
        forms = {"sorted": e, "reversed": e[::-1], "shuffled": rng.permutation(e),
                 "flipped": e[:, ::-1], "repeated": np.vstack([e, e[::3, ::-1]]),
                 "sorted with a repeat": np.insert(e, 5, e[5], axis=0)}
        for name, edges in forms.items():
            assert gsp.Graph(30, edges).edge_array.tolist() == e.tolist(), name

    def test_induced_subgraph_ids(self):
        g = gsp.Graph(4, [(0, 1), (1, 2), (2, 3)])
        for bad in (-1, 4):
            with pytest.raises(ValueError, match="vertex id out of range"):
                g.induced_subgraph(np.array([0, bad]))
        sub, kept = g.induced_subgraph(np.array([2, 1, 2, 1]))
        assert sub.n == 2 and sub.edges == {(0, 1)} and kept.tolist() == [1, 2]


class TestCanonicalGraphon:
    def test_triangle_l1_is_twice_edge_density(self):
        w = gsp.canonical_graphon(k3())
        assert w.l1_norm == pytest.approx(2 / 3, abs=1e-15)

    def test_single_vertex_zero(self):
        w = gsp.canonical_graphon(gsp.Graph(1, []))
        assert w.l1_norm == 0.0

    def test_star_by_cell_enumeration(self):
        # star: center 0, leaves 1..3; count unit cells directly
        g = gsp.Graph(4, [(0, 1), (0, 2), (0, 3)])
        w = gsp.canonical_graphon(g)
        cells = int(w.values.sum())
        assert cells == 2 * g.edge_count
        assert w.l1_norm == pytest.approx(cells / 16, abs=1e-15)
        assert w.l1_norm == pytest.approx(0.375, abs=1e-15)

    def test_empty_graph_errors(self):
        with pytest.raises(EmptyGraphError):
            gsp.canonical_graphon(gsp.Graph(0, []))

    def test_values_match_adjacency(self):
        g = gsp.Graph(5, [(0, 4), (2, 3)])
        w = gsp.canonical_graphon(g)
        assert np.array_equal(w.values.toarray(), g.adjacency().toarray())


class TestNormalizedGraphon:
    def test_triangle_cells(self):
        w = gsp.normalized_graphon(k3())
        off = w.values[w.values > 0]
        assert np.all(off == 0.25)

    def test_single_edge(self):
        w = gsp.normalized_graphon(gsp.Graph(2, [(0, 1)]))
        assert w.values[0, 1] == 1.0

    def test_path_degrees(self):
        w = gsp.normalized_graphon(gsp.Graph(3, [(0, 1), (1, 2)]))
        assert w.values[0, 1] == 0.5
        assert w.values[1, 2] == 0.5
        assert w.values[0, 2] == 0.0

    def test_isolated_vertex_named(self):
        with pytest.raises(IsolatedVertexError, match="2"):
            gsp.normalized_graphon(gsp.Graph(3, [(0, 1)]))


class TestNorms:
    def test_step_norms_match_direct_summation(self):
        for seed in range(10):
            w = random_step_graphon(seed)
            h = w.t / w.k
            v = w.values.toarray()
            assert w.l1_norm == pytest.approx(h * h * v.sum(), rel=1e-14)
            assert w.l2_norm == pytest.approx(
                h * math.sqrt((v**2).sum()), rel=1e-14)

    def test_constant_box_closed_forms(self):
        w = gsp.ConstantBox(0.3, 2.0)
        assert w.l1_norm == pytest.approx(0.3 * 4.0, abs=1e-15)
        assert w.l2_norm == pytest.approx(0.3 * 2.0, abs=1e-15)

    def test_rank_one_closed_forms_vs_quadrature(self):
        w = gsp.RankOneExp(1.5, 0.7)
        g = lambda x: 1.5 * np.exp(-0.7 * x)
        i1, _ = scipy.integrate.quad(g, 0, np.inf)
        i2, _ = scipy.integrate.quad(lambda x: g(x) ** 2, 0, np.inf)
        assert w.l1_norm == pytest.approx(i1**2, rel=1e-10)
        assert w.l2_norm == pytest.approx(i2, rel=1e-10)

    def test_celebrity_norms(self):
        w = gsp.CelebrityLimit()
        assert w.l1_norm == 1.0 and w.l2_norm == 1.0
        assert w == gsp.ConstantBox(1.0, 1.0)

    def test_eval_symmetry_and_support(self):
        for w in (gsp.ConstantBox(0.5, 1.5), gsp.RankOneExp(1.0, 2.0),
                  gsp.CelebrityLimit(), random_step_graphon(3)):
            xs = substream(1, 2).uniform(0, 3, 20)
            ys = substream(1, 3).uniform(0, 3, 20)
            a = np.asarray(w.eval(xs, ys))
            b = np.asarray(w.eval(ys, xs))
            assert np.allclose(a, b, atol=0)
        assert gsp.ConstantBox(0.5, 1.0).eval(1.2, 0.5) == 0.0
        assert gsp.CelebrityLimit().eval(0.5, 1.7) == 0.0


class TestStretch:
    def test_unit_box_is_fixed_point(self):
        w, tag = gsp.stretch(gsp.ConstantBox(1.0, 1.0))
        assert tag.factor == 1.0
        assert w.l1_norm == 1.0

    def test_triangle_stretch(self):
        w, tag = gsp.stretch(gsp.canonical_graphon(k3()))
        assert tag.factor == pytest.approx(math.sqrt(2 / 3), rel=1e-15)
        assert w.t == pytest.approx(math.sqrt(3 / 2), rel=1e-15)
        assert w.l1_norm == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_unit_norm_is_fixed_point(self):
        w, tag = gsp.stretch(gsp.RankOneExp(1.0, 1.0))
        assert tag.factor == pytest.approx(1.0, abs=1e-15)
        assert w == gsp.RankOneExp(1.0, 1.0)

    def test_stretched_l1_is_one(self):
        for seed in range(20):
            w = random_step_graphon(seed)
            if w.l1_norm == 0:
                continue
            ws, _ = gsp.stretch(w)
            assert ws.l1_norm == pytest.approx(1.0, abs=1e-12)
        for spec in (gsp.ConstantBox(0.7, 3.0), gsp.RankOneExp(2.0, 1.3)):
            ws, _ = gsp.stretch(spec)
            assert ws.l1_norm == pytest.approx(1.0, abs=1e-6)

    def test_roundtrip_bit_identical(self):
        for seed in range(20):
            w = random_step_graphon(seed)
            ws, tag = gsp.stretch(w)
            back = gsp.unstretch_step(ws, tag)
            assert back.t == w.t
            assert np.array_equal(back.values.toarray(), w.values.toarray())

    def test_l2_scaling_identity(self):
        # ||W^s||_2^2 = int W(rx, ry)^2 = ||W||_2^2 / r^2 with r^2 = ||W||_1
        for seed in range(10):
            w = random_step_graphon(seed)
            ws, _ = gsp.stretch(w)
            assert ws.l2_norm == pytest.approx(
                w.l2_norm / math.sqrt(w.l1_norm), rel=1e-12)

    def test_l2_scaling_identity_quadrature_oracle(self):
        w = random_step_graphon(4, k=3, t=2.0)
        ws, _ = gsp.stretch(w)
        n = 3000
        xs = (np.arange(n) + 0.5) * (ws.t / n)
        quad = np.asarray(ws.eval(xs[:, None], xs[None, :]) ** 2).sum() * (ws.t / n) ** 2
        assert math.sqrt(quad) == pytest.approx(ws.l2_norm, rel=1e-9)

    def test_zero_graphon_errors(self):
        with pytest.raises(ZeroGraphonError):
            gsp.stretch(gsp.StepGraphon(np.zeros((2, 2)), 1.0, 1.0))

    def test_symmetry_preserved(self):
        for seed in range(5):
            w = random_step_graphon(seed, signed=True)
            ws, _ = gsp.stretch(w) if w.l1_norm > 0 else (w, None)
            assert np.array_equal(ws.values.toarray(), ws.values.T.toarray())

    def test_stretch_reuses_validated_values(self, monkeypatch):
        kernels = [random_step_graphon(3, signed=signed) for signed in (False, True)]

        def recheck(*args):
            raise AssertionError("validated values checked again")

        monkeypatch.setattr(core.sp, "csr_matrix", recheck)
        for w in kernels:
            monkeypatch.setattr(type(w), "_check_bound", recheck)
            ws, tag = gsp.stretch(w)
            assert type(ws) is type(w)
            assert ws.values is w.values and not ws.values.data.flags.writeable
            assert ws.value_bound == w.value_bound
            back = gsp.unstretch_step(ws, tag)
            assert back.values is w.values and back.t == w.t

    def test_construction_still_validates(self):
        asym = np.array([[0.0, 0.5], [0.25, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            gsp.StepGraphon(asym, 1.0, 1.0)
        with pytest.raises(ValueError, match="symmetric"):
            gsp.SignedStepGraphon(asym, 1.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            gsp.StepGraphon(np.array([[-0.1]]), 1.0, 1.0)
        with pytest.raises(ValueError, match="bound"):
            gsp.StepGraphon(np.array([[0.9]]), 1.0, 0.5)
        with pytest.raises(ValueError, match="bound"):
            gsp.SignedStepGraphon(np.array([[-0.9]]), 1.0, 0.5)
        with pytest.raises(ValueError, match="positive"):
            gsp.StepGraphon(np.array([[0.5]]), 0.0, 1.0)

    def test_empty_values_rejected(self):
        for cls in (gsp.StepGraphon, gsp.SignedStepGraphon):
            with pytest.raises(ValueError, match="nonempty"):
                cls(np.zeros((0, 0)), 1.0, 1.0)


class TestStretchSignal:
    def test_identity(self):
        f = gsp.StepSignal(np.array([1.0, 2.0]), 2.0)
        g = gsp.stretch_signal(f, 1.0)
        assert g.t == f.t and np.array_equal(g.values, f.values)

    def test_halved_support(self):
        f = gsp.StepSignal(np.ones(4), 1.0)
        g = gsp.stretch_signal(f, 2.0)
        assert g.t == 0.5
        assert g.l1_norm == pytest.approx(0.5, abs=1e-15)

    def test_expansion_doubles_l1(self):
        f = gsp.StepSignal(np.array([1.0, 2.0]), 2.0)
        g = gsp.stretch_signal(f, 0.5)
        assert g.t == 4.0
        assert g.l1_norm == pytest.approx(2 * f.l1_norm, rel=1e-15)
        assert g.l2_norm == pytest.approx(math.sqrt(2) * f.l2_norm, rel=1e-15)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            gsp.stretch_signal(gsp.StepSignal(np.ones(2), 1.0), 0.0)


class TestRestrict:
    def test_box_restricted_beyond_support(self):
        w = gsp.restrict(gsp.ConstantBox(0.6, 1.0), 2.0, resolution=8)
        assert w.t == 1.0
        assert w.l1_norm == pytest.approx(0.6 / 4, abs=1e-15)
        # the one-cell box is read exactly: one cell of the 2-cell grid is on it
        assert np.array_equal(w.values.toarray(), [[0.6, 0.0], [0.0, 0.0]])

    def test_box_restricted_to_support(self):
        w = gsp.restrict(gsp.ConstantBox(0.6, 1.0), 1.0, resolution=4)
        assert np.all(w.values.toarray() == 0.6)

    def test_rank_one_midpoint_accuracy(self):
        w = gsp.restrict(gsp.RankOneExp(1.0, 1.0), 8.0, resolution=512)
        # mass of the restriction on its original scale is l1(W_m') * t_m^2
        target = (1.0 - math.exp(-8.0)) ** 2
        assert abs(w.l1_norm * 64.0 - target) < 1e-3

    def test_step_subgrid_extraction_exact(self):
        w = gsp.canonical_graphon(gsp.Graph(4, [(0, 1), (2, 3)]))
        r = gsp.restrict(w, 0.5)  # first two cells
        assert r.k == 2
        assert np.array_equal(r.values.toarray(), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_requires_resolution_for_analytic(self):
        with pytest.raises(ValueError):
            gsp.restrict(gsp.RankOneExp(1.0, 1.0), 4.0)

    def test_l1_restricted_matches_quadrature(self):
        w = random_step_graphon(7, k=5, t=2.0)
        t_m = 1.3
        exact = gsp.l1_restricted(w, t_m)
        n = 2000
        xs = (np.arange(n) + 0.5) * (t_m / n)
        quad = np.asarray(w.eval(xs[:, None], xs[None, :])).sum() * (t_m / n) ** 2
        assert exact == pytest.approx(quad, rel=1e-3)
        assert gsp.l1_restricted(w, 10.0) == pytest.approx(w.l1_norm, rel=1e-14)
        assert gsp.l1_restricted(gsp.RankOneExp(1, 1), 8.0) == pytest.approx(
            (1 - math.exp(-8)) ** 2, rel=1e-12)


@pytest.mark.parametrize("p, s", [(0.0, 1.0), (0.3, 2.0), (1.0, 1.0), (0.05, 0.5)])
class TestConstantBoxIsOneCellStep:
    """A box behaves as the one-cell step graphon with the same value."""

    @staticmethod
    def pair(p, s):
        return gsp.ConstantBox(p, s), gsp.StepGraphon([[p]], s, p if p > 0 else 1.0)

    def test_is_a_step_graphon_with_box_identity(self, p, s):
        box, _ = self.pair(p, s)
        assert isinstance(box, gsp.StepGraphon) and box.k == 1
        assert (box.p, box.s) == (p, s)
        assert box == gsp.ConstantBox(p, s) and hash(box) == hash((p, s))
        assert box != gsp.ConstantBox(p, 2 * s)
        assert box != gsp.StepGraphon([[p]], s, 1.0)
        assert repr(box) == f"ConstantBox(p={p!r}, s={s!r})"

    def test_sample_graph_draws_the_same_edges(self, p, s):
        box, step = self.pair(p, s)
        for t_m, n, seed in ((s, 200, 0), (3.0 * s, 500, 4)):
            a = gsp.sample_graph(box, t_m, n, seed).graph.edge_array
            b = gsp.sample_graph(step, t_m, n, seed).graph.edge_array
            assert np.array_equal(a, b)

    def test_stretch_keeps_the_box(self, p, s):
        box, step = self.pair(p, s)
        if p == 0:
            for w in (box, step):
                with pytest.raises(ZeroGraphonError):
                    gsp.stretch(w)
            return
        (bs, btag), (ss, stag) = gsp.stretch(box), gsp.stretch(step)
        assert type(bs) is gsp.ConstantBox and btag == stag
        assert (bs.t, bs.l1_norm) == (ss.t, ss.l1_norm)
        assert (bs.p, bs.s) == (p, ss.t)

    def test_cut_distance_and_operator_match(self, p, s):
        box, step = self.pair(p, s)
        g = gsp.sample_graph(gsp.ConstantBox(0.4, 1.0), 1.0, 300, 5).canonical()
        if p == 0:
            for w in (box, step):
                with pytest.raises(ZeroGraphonError):
                    gsp.stretched_cut_distance(g, w, restarts=4)
                with pytest.raises(ZeroGraphonError):
                    gsp.GraphonOperator.from_spec(w)
            return
        assert gsp.stretched_cut_distance(g, box, restarts=4) == \
            gsp.stretched_cut_distance(g, step, restarts=4)
        a = gsp.GraphonOperator.from_spec(box).matrix()
        b = gsp.GraphonOperator.from_spec(step).matrix()
        assert np.array_equal(a.toarray(), b.toarray())


class TestStepSignal:
    def test_norms(self):
        f = gsp.StepSignal(np.array([1.0, -2.0, 3.0]), 3.0)
        assert f.l1_norm == pytest.approx(6.0, abs=1e-15)
        assert f.l2_norm == pytest.approx(math.sqrt(14.0), rel=1e-15)

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            gsp.StepSignal(np.array([2.0]), 1.0, bound=1.0)

    def test_eval(self):
        f = gsp.StepSignal(np.array([1.0, 2.0]), 2.0)
        assert f.eval(0.5) == 1.0
        assert f.eval(1.5) == 2.0
        assert f.eval(2.5) == 0.0


_CYCLE5_CHORD = gsp.Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])


class TestCellRule:
    @pytest.mark.parametrize("w", [random_step_graphon(7),
                                   gsp.stretch(gsp.canonical_graphon(_CYCLE5_CHORD))[0],
                                   gsp.StepSignal(np.arange(1.0, 8.0), 2.7)],
                             ids=["dense", "csr", "signal"])
    def test_eval_outside_the_support_and_at_its_end(self, w):
        # zero outside [0, t], the last cell at t, and no warning for any float
        xs = np.array([-1.0, 0.0, w.t, w.t * (1 + 1e-7), 1e300, np.inf, -np.inf, np.nan])
        cells = [None, 0, w.k - 1, None, None, None, None, None]
        v = dense(w.values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(w, gsp.StepSignal):
                got = w.eval(xs)
                want = [0.0 if c is None else v[c] for c in cells]
            else:
                got = w.eval(xs[:, None], xs[None, :])
                want = [[0.0 if None in (a, b) else v[a, b] for b in cells] for a in cells]
        assert np.array_equal(got, want)

    def test_union_of_a_grid_with_itself_is_that_grid(self):
        # stretched graph embeddings, where k * (t / k) often rounds below t:
        # a grid that ended there and not at t grew a sliver cell
        rng = substream(0, 0x511)
        for n in range(2, 200):
            for _ in range(5):
                edges = np.argwhere(np.triu(rng.random((n, n)) < rng.random(), 1))
                g = gsp.Graph(n, edges if edges.size else [(0, 1)])
                a = gsp.stretch(gsp.canonical_graphon(g))[0]
                widths, ia, ib = core.union_grid(a, a)
                assert widths.size == a.k, f"n={n}"
                assert np.array_equal(ia, np.arange(a.k)) and np.array_equal(ib, ia)


class TestSignedDifference:
    def test_same_grid(self):
        a = random_step_graphon(1, k=4, t=1.0)
        b = random_step_graphon(2, k=4, t=1.0)
        d = gsp.step_difference(a, b)
        assert np.allclose(d.values.toarray(), a.values.toarray() - b.values.toarray())

    def test_rational_refinement(self):
        a = random_step_graphon(1, k=2, t=1.0)
        b = random_step_graphon(2, k=3, t=1.0)
        d = gsp.step_difference(a, b)
        assert d.k == 6
        mids = (np.arange(6) + 0.5) / 6
        expect = (np.asarray(a.eval(mids[:, None], mids[None, :]))
                  - np.asarray(b.eval(mids[:, None], mids[None, :])))
        assert np.allclose(d.values.toarray(), expect)

    def test_l1_distance_exact_on_incommensurable_supports(self):
        # one-cell boxes with irrational support ratio; closed-form overlap
        a = gsp.StepGraphon(np.array([[1.0]]), math.sqrt(2.0), 1.0)
        b = gsp.StepGraphon(np.array([[1.0]]), 1.0, 1.0)
        d = gsp.l1_distance(a, b)
        assert d == pytest.approx(2.0 - 1.0, rel=1e-12)  # area difference

    def test_near_equal_supports_need_a_resolution(self):
        # 0.999 * (1 + 4e-10) is no exact multiple of a 1/1000 grid on [0, 1]
        a = gsp.StepGraphon(np.array([[1.0]]), 1.0, 1.0)
        b = gsp.StepGraphon(np.array([[1.0]]), 0.999 * (1 + 4e-10), 1.0)
        with pytest.raises(SupportMismatchError):
            gsp.step_difference(a, b)
        assert gsp.step_difference(a, b, resolution=1000).k == 1000

    def test_refinement_of_exact_multiples(self):
        # 0.75 is not a whole number of half cells, but both grids refine to
        # quarters of [0, 1]
        a = gsp.StepGraphon(np.ones((2, 2)), 1.0, 1.0)
        b = gsp.StepGraphon(np.ones((1, 1)), 0.75, 1.0)
        assert core._refinement(1.0, a, b) == 4
        d = gsp.step_difference(a, b)
        assert d.k == 4
        assert np.array_equal(d.values.toarray(), np.pad(np.zeros((3, 3)), (0, 1),
                                                         constant_values=1.0))

    def test_l1_distance_matches_direct(self):
        a = random_step_graphon(11, k=3, t=1.5)
        b = random_step_graphon(12, k=5, t=1.5)
        d = gsp.l1_distance(a, b)
        direct = gsp.step_difference(a, b).l1_norm
        assert d == pytest.approx(direct, rel=1e-12)

    def test_supports_far_apart_raise_no_warning(self):
        # stretched, a spans about 1e96 cells of b: no cell number may
        # overflow int64 on the way to the masked index maps
        a = gsp.StepGraphon([[2.9e-192]], 1.0, 1.0)
        b = gsp.StepGraphon(np.full((4, 4), 0.5), 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sa, sb = gsp.stretch(a)[0], gsp.stretch(b)[0]
            assert gsp.l1_distance(sa, sb) == pytest.approx(2.0)
            assert math.isfinite(gsp.stretched_cut_distance(a, b).distance)


class TestEdgeList:
    def test_roundtrip(self, tmp_path):
        g = gsp.Graph(5, [(0, 1), (3, 4), (1, 2)])
        p = tmp_path / "g.txt"
        gsp.write_edge_list(g, p)
        h = gsp.read_edge_list(p)
        assert h == g

    @pytest.mark.parametrize("n", [1, 2, 10, 11, 1000, 123457])
    def test_bytes_match_per_line_format(self, tmp_path, n):
        rng = np.random.default_rng(n)
        e = rng.integers(0, n, size=(300, 2))
        g = gsp.Graph(n, e[e[:, 0] != e[:, 1]])
        p = tmp_path / "g.txt"
        gsp.write_edge_list(g, p)
        lines = [f"n {n}\n"] + [f"{i} {j}\n" for i, j in g.edge_array.tolist()]
        assert p.read_bytes() == "".join(lines).encode("ascii")
        assert gsp.read_edge_list(p) == g

    def test_writer_memory_is_bounded(self, tmp_path):
        # 466k edges, seven write blocks; at one pass over all rows the
        # writer's traced peak was 41 MB
        g = gsp.sample_graph(gsp.RankOneExp(1.0, 1.0), 4.0, 4000, seed=7).graph
        assert g.edge_count > 7 * core._WRITE_ROWS
        p = tmp_path / "g.txt"
        tracemalloc.start()
        try:
            gsp.write_edge_list(g, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        lines = [f"n {g.n}\n"] + [f"{i} {j}\n" for i, j in g.edge_array.tolist()]
        assert p.read_bytes() == "".join(lines).encode("ascii")

    def test_comments_dedupe_and_maxid(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# a comment\n1 0\n0 1\n2 4\n", encoding="utf-8")
        g = gsp.read_edge_list(p)
        assert g.n == 5
        assert g.edges == {(0, 1), (2, 4)}

    def test_header_sets_vertex_count(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("n 10\n0 1\n", encoding="utf-8")
        assert gsp.read_edge_list(p).n == 10

    @pytest.mark.parametrize("text, expected", [
        ("0 1\n1 2 3\n", "malformed edge line: '1 2 3'"),
        ("0 1\n  4\t\n", "malformed edge line: '4'"),
        ("x 2\n", "malformed edge line: 'x 2'"),
        ("0 1\n1.5 2\n", "malformed edge line: '1.5 2'"),
        ("n 7\n0 1\nn 7\n", "malformed edge line: 'n 7'"),
        ("n x\n0 1\n", "malformed edge line: 'n x'"),
        ("5\n6\n", "malformed edge line: '5'"),
        ("0 99999999999999999999\n", "malformed edge line: '0 99999999999999999999'"),
        ("n 99999999999999999999\n",
         "vertex count must lie in [0, 3037000499], got 99999999999999999999"),
        ("n 3\n0 3\n", "edge endpoint out of range"),
        ("-1 2\n", "edge endpoint out of range"),
        ("2 2\n", "self-loops are not allowed"),
        # ids must be ASCII decimals, although Python's int() takes these
        ("1_0 2\n", "malformed edge line: '1_0 2'"),
        ("\u0661 2\n", "malformed edge line: '\u0661 2'"),
    ], ids=["three-tokens", "one-token", "word", "float", "late-header", "word-header",
            "one-column", "beyond-int64", "huge-header", "beyond-header", "negative",
            "self-loop", "underscore", "non-ascii-digit"])
    def test_malformed_files_name_the_fault(self, tmp_path, text, expected):
        p = tmp_path / "g.txt"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            gsp.read_edge_list(p)
        assert str(info.value) == expected

    @pytest.mark.parametrize("data, n, edges", [
        (b"n 4\r\n0 1\r\n3 2\r\n", 4, [(0, 1), (2, 3)]),
        (b"\n  # indented\n\t#tab\n 0 1\n\n\t# last\n", 2, [(0, 1)]),
        (b"# a\nn 5\n", 5, []),
        (b"n 5\n", 5, []),
        (b"", 0, []),
        (b"  \n# only comments\n", 0, []),
        # a comment may follow an edge or the header
        (b"n 6 # vertices\n0 5 # an edge\n", 6, [(0, 5)]),
    ], ids=["crlf", "blank-and-comment-lines", "comment-then-header", "header-only",
            "empty", "comments-only", "trailing-comments"])
    def test_well_formed_files(self, tmp_path, data, n, edges):
        p = tmp_path / "g.txt"
        p.write_bytes(data)
        g = gsp.read_edge_list(p)
        assert g.n == n and g.edge_array.tolist() == [list(e) for e in edges]

    _FLOAT_LIKE = [("1.5 2\n", "malformed edge line: '1.5 2'"),
                   ("1e3 2\n", "malformed edge line: '1e3 2'"),
                   ("0 99999999999999999999\n",
                    "malformed edge line: '0 99999999999999999999'")]

    @staticmethod
    def _float_casting_loadtxt(fname, dtype, comments, ndmin):
        """``np.loadtxt`` as numpy releases before the float-parse expiry act.

        A token that is not an int64 but parses as a float only raises
        ``DeprecationWarning`` and is then cast; loadtxt turns the warning
        into ``ValueError`` only when a filter makes it an error.
        """
        rows = []
        for line in fname.read().splitlines():
            row = []
            for token in line.split(comments, 1)[0].split():
                try:
                    value = int(token)
                    if not -2**63 <= value < 2**63:
                        raise ValueError
                except ValueError:
                    value = float(token)
                    try:
                        warnings.warn("Parsing an integer via a float is deprecated.",
                                      DeprecationWarning)
                    except DeprecationWarning as exc:
                        raise ValueError(f"could not convert string {token!r}") from exc
                    value = np.float64(value).astype(dtype)
                row.append(value)
            if row:
                rows.append(row)
        return np.array(rows, dtype=dtype, ndmin=ndmin)

    @pytest.mark.filterwarnings("default")
    @pytest.mark.parametrize("emulate_float_cast", [False, True],
                             ids=["installed-numpy", "float-casting-numpy"])
    @pytest.mark.parametrize("text, expected", _FLOAT_LIKE,
                             ids=["float", "exponent", "beyond-int64"])
    def test_float_like_ids_rejected_without_warning_filters(
            self, tmp_path, monkeypatch, emulate_float_cast, text, expected):
        # the reader may not depend on the caller's filters to reject these
        if emulate_float_cast:
            monkeypatch.setattr(np, "loadtxt", self._float_casting_loadtxt)
        p = tmp_path / "g.txt"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            gsp.read_edge_list(p)
        assert str(info.value) == expected


class TestAsStep:
    def test_exact_variants(self):
        s = gsp.as_step(gsp.ConstantBox(0.25, 2.0))
        assert s.k == 1 and s.t == 2.0 and s.values[0, 0] == 0.25
        c = gsp.as_step(gsp.CelebrityLimit())
        assert c.l1_norm == 1.0

    def test_rank_one_requires_resolution(self):
        with pytest.raises(StepRequiredError):
            gsp.as_step(gsp.RankOneExp(1.0, 1.0))
        s = gsp.as_step(gsp.RankOneExp(1.0, 1.0), resolution=256, support=20.0)
        assert s.l1_norm == pytest.approx(1.0, abs=1e-3)


W_EXP = gsp.RankOneExp(1.0, 1.0)


class TestDiscretizationArguments:
    """A midpoint sample takes an integer resolution of at least 1, and a
    support length must be positive and finite."""

    @staticmethod
    def samples(resolution):
        """Every public way to midpoint-sample ``RankOneExp(1, 1)``."""
        return [lambda: gsp.restrict(W_EXP, 4.0, resolution=resolution),
                lambda: gsp.as_step(W_EXP, resolution=resolution),
                lambda: gsp.stretched_cut_distance(gsp.ConstantBox(0.5, 1.0), W_EXP,
                                                   resolution=resolution)]

    @pytest.mark.parametrize("resolution", [2.5, 4.0, True])
    def test_resolution_must_be_an_integer(self, resolution):
        # 2.5 gave 3 cells spaced t_m / 2.5 apart, and True one cell
        for sample in self.samples(resolution):
            with pytest.raises(TypeError, match=re.escape(
                    f"resolution must be an integer, got {resolution!r}")):
                sample()
        int_sample, numpy_sample = (gsp.restrict(W_EXP, 4.0, resolution=r)
                                    for r in (4, np.int64(4)))
        assert (numpy_sample.values != int_sample.values).nnz == 0

    @pytest.mark.parametrize("resolution", [0, -3])
    def test_resolution_below_one_is_named(self, resolution):
        for sample in self.samples(resolution):
            with pytest.raises(ValueError, match=re.escape(
                    f"resolution must be at least 1, got {resolution}")):
                sample()

    @pytest.mark.parametrize("make", [
        lambda: gsp.restrict(W_EXP, math.inf, resolution=4),
        lambda: gsp.as_step(W_EXP, resolution=4, support=math.inf),
        lambda: gsp.restrict(gsp.ConstantBox(0.5, 1.0), math.inf),
        lambda: gsp.unstretch_step(gsp.ConstantBox(0.5, 1.0), gsp.StretchTag(1.0, math.inf)),
    ], ids=["restrict-rank-one", "as-step-support", "restrict-step", "with-support"])
    def test_non_finite_support_rejected(self, make):
        # the first two gave all-zero graphons, the third an OverflowError
        # from Fraction(inf), the last a graphon on [0, inf]^2
        with pytest.raises(ValueError, match="must be positive and finite, got inf"):
            make()
