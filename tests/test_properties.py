"""Property tests of the cut norm, exact grid refinement, stretching, graph
canonical form and edge-list reading."""

import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import graphonsp as gsp  # noqa: E402
from graphonsp import core  # noqa: E402

from helpers import brute_force_cut_norm, reference_read_edge_list  # noqa: E402

# derandomized and without an example database: tier-1 stays reproducible
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def signed_step_kernels(draw, kmax=8):
    k = draw(st.integers(1, kmax))
    t = draw(st.floats(0.2, 5.0))
    upper = draw(st.lists(st.floats(-1.0, 1.0), min_size=k * (k + 1) // 2,
                          max_size=k * (k + 1) // 2))
    v = np.zeros((k, k))
    v[np.triu_indices(k)] = upper
    v = np.triu(v, 1).T + v
    return gsp.SignedStepGraphon(v, t, 1.0)


def close_or_below(a, b):
    return a <= b + 1e-12 * max(1.0, abs(b))


@PROPERTY
@given(w=signed_step_kernels(), seed=st.integers(0, 2**16))
def test_heuristic_never_exceeds_exact(w, seed):
    exact = gsp.cut_norm(w, mode="exact").value
    heur = gsp.cut_norm(w, mode="heuristic", restarts=4, seed=seed).value
    assert close_or_below(heur, exact)


@PROPERTY
@given(w=signed_step_kernels())
def test_exact_matches_brute_force(w):
    assert gsp.cut_norm(w, mode="exact").value == pytest.approx(
        brute_force_cut_norm(w), rel=1e-12, abs=1e-15)


@PROPERTY
@given(w=signed_step_kernels())
def test_cut_norm_below_l1(w):
    assert close_or_below(gsp.cut_norm(w, mode="exact").value, w.l1_norm)


@st.composite
def dyadic_step_graphons(draw, kmax=6):
    """Nonnegative step graphons on supports m / 8, so any two share a
    uniform refinement of at most 2 * 8 * kmax^2 cells."""
    k = draw(st.integers(1, kmax))
    t = draw(st.integers(1, 16)) / 8
    upper = draw(st.lists(st.floats(0.0, 1.0), min_size=k * (k + 1) // 2,
                          max_size=k * (k + 1) // 2))
    v = np.zeros((k, k))
    v[np.triu_indices(k)] = upper
    v = np.triu(v, 1).T + v
    return gsp.StepGraphon(v, t, 1.0)


@PROPERTY
@given(a=dyadic_step_graphons(), b=dyadic_step_graphons())
def test_uniform_refinement_l1_matches_union_grid(a, b):
    # two independent exact routes: one uniform refinement, one union grid
    assert gsp.step_difference(a, b).l1_norm == pytest.approx(
        gsp.l1_distance(a, b), rel=1e-12, abs=1e-15)


@PROPERTY
@given(k1=st.integers(1, 8), k2=st.integers(1, 8), t=st.floats(0.2, 5.0))
def test_equal_supports_refine_to_lcm(k1, k2, t):
    a = gsp.StepGraphon(np.zeros((k1, k1)), t, 1.0)
    b = gsp.StepGraphon(np.zeros((k2, k2)), t, 1.0)
    assert core._refinement(t, a, b) == math.lcm(k1, k2)


@PROPERTY
@given(w=dyadic_step_graphons(), z=dyadic_step_graphons(), j=st.integers(-3, 3),
       mode=st.sampled_from(["degree_sort", "exact"]))
def test_stretched_cut_distance_ignores_domain_rescaling(w, z, j, mode):
    # W(r x, r y) on [0, t/r] stretches to the same graphon as W; a dyadic r
    # keeps every support bit-identical, so the results agree exactly
    assume(w.l1_norm > 0 and z.l1_norm > 0)
    rescaled = gsp.StepGraphon(w.values, w.t / 2.0**j, w.value_bound)
    assert (gsp.stretched_cut_distance(rescaled, z, mode=mode, restarts=4)
            == gsp.stretched_cut_distance(w, z, mode=mode, restarts=4))


@PROPERTY
@given(data=st.data(), n=st.integers(2, 12),
       form=st.sampled_from(["int array", "float array", "tuples"]))
def test_graph_edges_are_sorted_unique_pairs(data, n, form):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] != p[1]), max_size=40))
    if pairs:  # repeat some pairs reversed
        pairs += [(j, i) for i, j in data.draw(st.lists(st.sampled_from(pairs),
                                                        max_size=8))]
    edges = {"int array": np.array(pairs, dtype=np.int64).reshape(-1, 2),
             "float array": np.array(pairs, dtype=float).reshape(-1, 2),
             "tuples": pairs}[form]
    g = gsp.Graph(n, edges)
    expected = sorted({(min(p), max(p)) for p in pairs})
    assert g.edge_array.dtype == np.int64
    assert [tuple(e) for e in g.edge_array.tolist()] == expected
    ends = Counter(v for e in expected for v in e)
    assert g.degrees().tolist() == [ends[v] for v in range(n)]


_PAD = st.text(alphabet=" \t", max_size=2)
_SEP = st.text(alphabet=" \t", min_size=1, max_size=3)
_BAD_LINES = ["4", "1 2 3", "x 2", "1.5 2", "n", "n x", "n 3 4", "2 y"]
# small ids, and ids at and beyond the vertex-count and int64 limits
_ANY_ID = st.one_of(st.integers(-2, 12), st.sampled_from(
    [3037000499, 3037000500, 2**63 - 1, 2**63, -2**63 - 1, 10**20]))


@st.composite
def _edge_list_texts(draw):
    """Edge-list files of spaces, tabs and LF or CRLF line ends.  Half are
    valid; the other half may hold bad lines, late headers, self-loops and
    ids out of range."""
    faulty = draw(st.booleans())

    def line(body):
        return (draw(_PAD) + body + draw(_PAD)
                + draw(st.sampled_from(["\n", "\r\n"])))

    def vertex(ids):
        i = draw(ids)
        return (draw(st.sampled_from(["", "+", "0"])) if i >= 0 else "") + str(i)

    def header(ids):
        return line("n" + draw(_SEP) + vertex(ids))

    def edge():
        if faulty:
            return line(vertex(_ANY_ID) + draw(_SEP) + vertex(_ANY_ID))
        i, j = draw(st.lists(st.integers(0, 12), min_size=2, max_size=2, unique=True))
        return line(f"{i}{draw(_SEP)}{j}")

    def other(kind):
        if kind == "comment":
            return line("#" + draw(st.text(alphabet="ab #\t1", max_size=5)))
        if kind == "blank":
            return line("")
        if kind == "header":
            return header(_ANY_ID)
        return line(draw(st.sampled_from(_BAD_LINES)))

    kinds = ["comment", "blank"] + (["header", "bad"] if faulty else [])
    text = "".join(other(k) for k in draw(st.lists(st.sampled_from(kinds), max_size=2)))
    if draw(st.booleans()):
        text += header(_ANY_ID if faulty else st.integers(13, 20))
    for kind in draw(st.lists(st.sampled_from(["edge"] * 4 + kinds), max_size=12)):
        text += edge() if kind == "edge" else other(kind)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@PROPERTY
@given(text=_edge_list_texts())
def test_reader_matches_per_line_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_bytes(text.encode("ascii"))
        try:
            n, edges = reference_read_edge_list(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                gsp.read_edge_list(path)
            if str(exc).startswith("malformed edge line"):
                assert str(info.value).startswith("malformed edge line")
        else:
            g = gsp.read_edge_list(path)
            assert g.n == n
            assert [tuple(e) for e in g.edge_array.tolist()] == edges
