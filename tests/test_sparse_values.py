"""Every step graphon holds its values as one read-only canonical CSR matrix.

Whatever the input (an ndarray, a nested list or a sparse matrix), the
stored matrix is the same, and every reader must give the same answer, to
the bit, for a graphon built from a dense array as for one built from a CSR
matrix of the same values.  Values here are 0/1 (or small dyadic numbers),
so every sum is exact in any order.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import graphonsp as gsp
from graphonsp.operators import chebyshev_polynomial_apply
from graphonsp.rng import substream


def random_graph(seed, n, m):
    rng = substream(seed, 0x5A5)
    iu = np.column_stack(np.triu_indices(n, 1))
    return gsp.Graph(n, iu[rng.choice(len(iu), size=m, replace=False)])


def pair(seed, n, m, t=1.0):
    """The same random adjacency as a graphon built from a CSR matrix and one
    built from a dense array."""
    A = random_graph(seed, n, m).adjacency()
    return gsp.StepGraphon(A, t, 1.0), gsp.StepGraphon(A.toarray(), t, 1.0)


def ring_with_chords(n):
    """A cycle plus random chords: no isolated vertex, about ``2 n`` edges."""
    rng = substream(3, 0xC1C)
    ring = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    chords = rng.integers(0, n, (n, 2))
    return gsp.Graph(n, np.vstack([ring, chords[chords[:, 0] != chords[:, 1]]]))


SEEDS = range(6)


def assert_canonical(w):
    """``w.values`` is a float64 canonical CSR matrix with read-only arrays."""
    V = w.values
    assert isinstance(V, sp.csr_matrix) and V.dtype == np.float64
    assert V.has_canonical_format and np.all(V.data != 0.0)
    for a in (V.data, V.indices, V.indptr):
        assert not a.flags.writeable


_SYM = np.array([[0.0, 0.5, -0.25], [0.5, 1.0, 0.0], [-0.25, 0.0, 0.0]])
_CYCLE = gsp.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

CONSTRUCTORS = {
    "step-ndarray": lambda: gsp.StepGraphon(np.abs(_SYM), 1.0, 1.0),
    "step-list": lambda: gsp.StepGraphon(np.abs(_SYM).tolist(), 1.0, 1.0),
    "step-csr": lambda: gsp.StepGraphon(sp.csr_matrix(np.abs(_SYM)), 1.0, 1.0),
    "signed-ndarray": lambda: gsp.SignedStepGraphon(_SYM, 1.0, 1.0),
    "signed-list": lambda: gsp.SignedStepGraphon(_SYM.tolist(), 1.0, 1.0),
    "signed-csr": lambda: gsp.SignedStepGraphon(sp.csr_matrix(_SYM), 1.0, 1.0),
    "restrict-step": lambda: gsp.restrict(gsp.canonical_graphon(_CYCLE), 0.5),
    "restrict-analytic": lambda: gsp.restrict(gsp.RankOneExp(1.0, 1.0), 4.0, resolution=8),
    "as_step-box": lambda: gsp.as_step(gsp.ConstantBox(0.5, 2.0)),
    "as_step-empty-box": lambda: gsp.as_step(gsp.ConstantBox(0.0, 2.0)),
    "as_step-r1e": lambda: gsp.as_step(gsp.RankOneExp(1.0, 2.0), resolution=6),
    "step_difference": lambda: gsp.step_difference(
        gsp.canonical_graphon(_CYCLE), gsp.as_step(gsp.ConstantBox(0.5, 0.5))),
    "canonical_graphon": lambda: gsp.canonical_graphon(random_graph(0, 30, 60)),
    "normalized_graphon": lambda: gsp.normalized_graphon(_CYCLE),
}


class TestCanonicalForm:
    def test_embeddings_store_csr(self):
        g = random_graph(0, 30, 60)
        for w in (gsp.canonical_graphon(g), gsp.normalized_graphon(
                gsp.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))):
            assert isinstance(w.values, sp.csr_matrix)

    @pytest.mark.parametrize("name", list(CONSTRUCTORS))
    def test_every_constructor_stores_canonical_csr(self, name):
        assert_canonical(CONSTRUCTORS[name]())

    @pytest.mark.parametrize("cls, values", [(gsp.StepGraphon, np.abs(_SYM)),
                                             (gsp.SignedStepGraphon, _SYM)])
    def test_dense_list_and_csr_inputs_store_equal_arrays(self, cls, values):
        stored = [cls(v, 1.0, 1.0).values for v in (values, values.tolist(),
                                                    sp.csr_matrix(values),
                                                    sp.coo_matrix(values))]
        for V in stored[1:]:
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(V, name), getattr(stored[0], name))
        assert np.array_equal(stored[0].toarray(), values)

    def test_normalized_values_match_dense_construction(self):
        g = random_graph(1, 12, 40)
        g, _ = g.drop_isolated()
        d = g.degrees()
        dense = np.zeros((g.n, g.n))
        for i, j in g.edges:
            dense[i, j] = dense[j, i] = 1.0 / (d[i] * d[j])
        assert np.array_equal(gsp.normalized_graphon(g).values.toarray(), dense)

    def test_input_is_copied_into_canonical_read_only_csr(self):
        # duplicate (0, 1) entries, unsorted columns and an explicit zero
        raw = sp.csr_matrix((np.array([0.25, 0.0, 0.25, 0.5]),
                             np.array([1, 2, 1, 0]), np.array([0, 3, 4, 4])),
                            shape=(3, 3))
        before = raw.data.copy()
        w = gsp.StepGraphon(raw, 1.0, 1.0)
        V = w.values
        assert isinstance(V, sp.csr_matrix) and V.dtype == np.float64
        assert V.has_canonical_format and V.nnz == 2
        assert np.array_equal(V.toarray(), [[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]])
        for a in (V.data, V.indices, V.indptr):
            assert not a.flags.writeable
        assert np.array_equal(raw.data, before) and raw.data.flags.writeable

    def test_all_zero_graph_has_zero_norms(self):
        w = gsp.canonical_graphon(gsp.Graph(1, []))
        assert w.values.nnz == 0
        assert (w.l1_norm, w.l2_norm) == (0.0, 0.0)
        assert w.eval(0.5, 0.5) == 0.0


class TestAdjacency:
    @staticmethod
    def oracle(g):
        e = g.edge_array
        r, c = np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]])
        return sp.coo_matrix((np.ones(r.size), (r, c)), shape=(g.n, g.n)).tocsr()

    def assert_matches_oracle(self, g):
        A, want = g.adjacency(), self.oracle(g)
        assert isinstance(A, sp.csr_matrix) and A.shape == (g.n, g.n)
        assert A.has_canonical_format
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(A, name), getattr(want, name))
        assert np.array_equal(A.toarray(), want.toarray())

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_graphs_match_coo_oracle(self, seed):
        rng = substream(seed, 0xAD1)
        n = int(rng.integers(2, 60))
        pairs = rng.integers(0, n, (int(rng.integers(0, 3 * n)), 2))
        self.assert_matches_oracle(gsp.Graph(n, pairs[pairs[:, 0] != pairs[:, 1]]))

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_graphs_without_edges(self, n):
        g = gsp.Graph(n, [])
        self.assert_matches_oracle(g)
        assert g.adjacency().nnz == 0


class TestRejections:
    CASES = [
        (np.ones((2, 3)), 1.0, "nonempty square"),
        (np.zeros((0, 0)), 1.0, "nonempty square"),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, "symmetric"),
        (np.array([[-1.0, 0.0], [0.0, 0.0]]), 1.0, "nonnegative"),
        (np.array([[0.0, 2.0], [2.0, 0.0]]), 1.0, "bound"),
        (np.zeros((2, 2)), -1.0, "bound"),
    ]

    @pytest.mark.parametrize("dense,bound,match", CASES)
    def test_step_graphon_messages_match_dense(self, dense, bound, match):
        with pytest.raises(ValueError, match=match) as from_dense:
            gsp.StepGraphon(dense, 1.0, bound)
        with pytest.raises(ValueError) as from_csr:
            gsp.StepGraphon(sp.csr_matrix(dense), 1.0, bound)
        assert str(from_csr.value) == str(from_dense.value)

    def test_signed_bound_message_matches_dense(self):
        dense = np.array([[0.0, -3.0], [-3.0, 0.0]])
        msgs = []
        for v in (dense, sp.csr_matrix(dense)):
            with pytest.raises(ValueError, match="absolute value") as exc:
                gsp.SignedStepGraphon(v, 1.0, 2.0)
            msgs.append(str(exc.value))
        assert msgs[0] == msgs[1]
        w = gsp.SignedStepGraphon(sp.csr_matrix(dense), 1.0, 3.0)
        assert w.l1_norm == gsp.SignedStepGraphon(dense, 1.0, 3.0).l1_norm


class TestReadersAgree:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_norms(self, seed):
        s, d = pair(seed, 17, 40, t=1.7)
        assert s.l1_norm == d.l1_norm
        # a matrix power V @ V would sum to a different number
        assert s.l2_norm == d.l2_norm
        assert s.l2_norm == s.cell_width * math.sqrt(80)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_eval_on_a_grid(self, seed):
        s, d = pair(seed, 17, 40, t=1.7)
        xs = np.linspace(-0.2, 1.9, 37)
        assert np.array_equal(s.eval(xs[:, None], xs[None, :]),
                              d.eval(xs[:, None], xs[None, :]))
        assert s.eval(0.3, 1.1) == d.eval(0.3, 1.1)
        assert s.eval(np.zeros(0), np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_l1_restricted(self, seed):
        s, d = pair(seed, 16, 40)
        for t_m in (0.01, 0.0625, 0.3, 0.5, 0.77, 1.0, 2.0):
            assert gsp.l1_restricted(s, t_m) == gsp.l1_restricted(d, t_m)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_restrict(self, seed):
        s, d = pair(seed, 16, 40)
        for t_m in (0.25, 0.5, 1.0):
            rs, rd = gsp.restrict(s, t_m), gsp.restrict(d, t_m)
            assert (rs.k, rs.t) == (rd.k, rd.t)
            assert np.array_equal(rs.values.toarray(), rd.values.toarray())

    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_cut_norm(self, seed):
        s, d = pair(seed, 8, 12)
        cs, cd = gsp.cut_norm(s, mode="exact"), gsp.cut_norm(d, mode="exact")
        assert cs == cd
        assert cs.recompute(s) == cd.recompute(d) == cs.value

    @pytest.mark.parametrize("seed", SEEDS)
    def test_heuristic_cut_norm(self, seed):
        s, d = pair(seed, 40, 200)
        cs = gsp.cut_norm(s, mode="heuristic", restarts=8, seed=seed)
        cd = gsp.cut_norm(d, mode="heuristic", restarts=8, seed=seed)
        assert cs == cd
        assert cs.recompute(s) == cd.recompute(d) == cs.value

    @pytest.mark.parametrize("seed", SEEDS)
    def test_operator_matrix_and_apply(self, seed):
        # cells of width 1/8 and integer signal values keep every sum exact
        s, d = pair(seed, 24, 70, t=3.0)
        ops, opd = (gsp.GraphonOperator(w, 1.0) for w in (s, d))
        assert isinstance(ops.matrix(), sp.csr_matrix)
        assert np.array_equal(ops.matrix().toarray(), opd.matrix().toarray())
        f = gsp.StepSignal(substream(seed, 0xF).integers(-4, 5, 24).astype(float), 3.0)
        fs, fd = gsp.apply(ops, f), gsp.apply(opd, f)
        assert (fs.k, fs.t) == (fd.k, fd.t)
        assert np.array_equal(fs.values, fd.values)

    @pytest.mark.parametrize("mode", ["exact", "degree_sort", "local_search"])
    def test_stretched_distance_on_the_uniform_grid(self, mode):
        # equal vertex and edge counts: one stretched support, k = 6 cells
        for seed in range(3):
            (sa, da), (sb, db) = pair(seed, 6, 7), pair(seed + 10, 6, 7)
            rs = gsp.stretched_cut_distance(sa, sb, mode=mode, seed=seed)
            rd = gsp.stretched_cut_distance(da, db, mode=mode, seed=seed)
            assert rs == rd
            assert rs.exact and rs.permutation is not None

    @pytest.mark.parametrize("mode", ["exact", "degree_sort"])
    def test_stretched_distance_on_the_union_grid(self, mode):
        for seed in range(3):
            n = 6 if mode == "exact" else 60
            s, d = pair(seed, n, 2 * n)
            rs = gsp.stretched_cut_distance(s, gsp.CelebrityLimit(), mode=mode,
                                            restarts=8, seed=seed)
            rd = gsp.stretched_cut_distance(d, gsp.CelebrityLimit(), mode=mode,
                                            restarts=8, seed=seed)
            assert rs == rd
            assert rs.permutation is None


class TestFiltersOnStoredValues:
    # n = 40 takes LAPACK's full decomposition, n = 400 ARPACK's two ends
    @pytest.mark.parametrize("n, k_eigs", [(40, 40), (400, 8)])
    def test_csr_and_dense_kernels_agree_on_both_routes(self, n, k_eigs):
        s, d = pair(n, n, 3 * n)
        ops, opd = (gsp.GraphonOperator.from_spec(w) for w in (s, d))
        assert isinstance(ops.kernel.values, sp.csr_matrix)
        b = ops.norm_bound
        h = gsp.SpectralFilter.fit(lambda x: x * np.exp(x / b), (-b, b), degree=30,
                                   tolerance=1e-10)
        f = gsp.StepSignal(substream(n, 0xF17).standard_normal(n), ops.kernel.t)
        for route in (lambda op: gsp.apply_spectral(h, op, f, k_eigs=k_eigs)[0],
                      lambda op: chebyshev_polynomial_apply(h, op, f)):
            got, want = route(ops).values, route(opd).values
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestSparseMemory:
    def test_embeddings_never_allocate_n_squared(self):
        n = 20000
        g = ring_with_chords(n)
        for embed in (gsp.canonical_graphon, gsp.normalized_graphon):
            tracemalloc.start()
            try:
                w = embed(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert w.k == n and w.values.nnz == 2 * g.edge_count
            assert peak < 8 * n**2 / 100

    def test_chebyshev_filter_never_allocates_n_squared(self):
        n = 20000
        op = gsp.GraphonOperator.from_spec(gsp.canonical_graphon(ring_with_chords(n)))
        b = op.norm_bound
        h = gsp.SpectralFilter.fit(lambda x: np.sin(x / b), (-b, b), degree=20)
        f = gsp.StepSignal(substream(4, 0xC1C).standard_normal(n), op.kernel.t)
        tracemalloc.start()
        try:
            out = chebyshev_polynomial_apply(h, op, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.k == n and np.all(np.isfinite(out.values))
        assert peak < 8 * n**2 / 100

    def test_exact_restriction_and_difference_never_allocate_n_squared(self):
        n = 4000
        w = gsp.canonical_graphon(ring_with_chords(n))
        for make, want in ((lambda: gsp.restrict(w, 0.5), w.values[: n // 2, : n // 2]),
                           (lambda: gsp.step_difference(w, w), sp.csr_matrix((n, n)))):
            tracemalloc.start()
            try:
                out = make()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * n**2 / 100
            assert out.k == want.shape[0] and (out.values != want).nnz == 0

    def test_stretched_distance_of_a_large_sparse_graph(self):
        # 10^5 vertices, a shuffled clique core of about 10^6 edges; the
        # dense n x n embedding alone would need 8 n^2 = 80 GB
        n = 10**5
        core = gsp.dense_core_graph(n, 0.26)
        perm = substream(11, 0x1E5).permutation(n)
        g = gsp.Graph(n, perm[core.edge_array])
        assert 9 * 10**5 < g.edge_count < 11 * 10**5
        tracemalloc.start()
        try:
            w = gsp.canonical_graphon(g)
            res = gsp.stretched_cut_distance(w, gsp.CelebrityLimit(), restarts=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20
        assert math.isfinite(res.distance) and 0.0 <= res.distance <= 2.0
