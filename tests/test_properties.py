"""Property tests of the cut norm, exact grid refinement, stretching, graph
canonical form, edge-list reading and CLI configs."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import graphonsp as gsp  # noqa: E402
from graphonsp import core  # noqa: E402
from graphonsp.cli import RunConfig, main  # noqa: E402

from helpers import (brute_force_cut_norm, random_step_graphon,  # noqa: E402
                     reference_cell_index, reference_read_edge_list,
                     values_at_cell_midpoints)

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
    # one uniform refinement against one union grid; both read the inputs
    # through core._lift, which the next test checks against a dense oracle
    assert gsp.step_difference(a, b).l1_norm == pytest.approx(
        gsp.l1_distance(a, b), rel=1e-12, abs=1e-15)


@PROPERTY
@given(seed=st.integers(0, 2**16), signed_a=st.booleans(), signed_b=st.booleans())
def test_l1_distance_matches_dense_union_grid_oracle(seed, signed_a, signed_b):
    # random supports share no uniform refinement, so the union grid is the
    # only exact route; the oracle reads both inputs densely on it
    a = random_step_graphon(seed, signed=signed_a)
    b = random_step_graphon(seed + 2**17, signed=signed_b)
    assert core._refinement(max(a.t, b.t), a, b) is None
    widths = core.union_grid(a, b)[0]
    va, vb = values_at_cell_midpoints(widths, a, b)
    assert gsp.l1_distance(a, b) == pytest.approx(
        widths @ np.abs(va - vb) @ widths, rel=1e-12, abs=1e-15)


@PROPERTY
@given(k1=st.integers(1, 8), k2=st.integers(1, 8), t=st.floats(0.2, 5.0))
def test_equal_supports_refine_to_lcm(k1, k2, t):
    a = gsp.StepGraphon(np.zeros((k1, k1)), t, 1.0)
    b = gsp.StepGraphon(np.zeros((k2, k2)), t, 1.0)
    assert core._refinement(t, a, b) == math.lcm(k1, k2)


@PROPERTY
@given(k=st.integers(1, 64), t=st.floats(1e-3, 1e3),
       us=st.lists(st.floats(-0.5, 1.5), max_size=20), raw=st.lists(st.floats(), max_size=5))
def test_cell_index_matches_bisection(k, t, us, raw):
    # points spread over the support and past it, any float at all, and
    # every breakpoint i * h (with t) flanked by its two float neighbours
    bps = [i * (t / k) for i in range(k)] + [t]
    near = [math.nextafter(e, d) for e in bps for d in (-math.inf, math.inf)]
    points = [u * t for u in us] + raw + bps + near
    got = core._cell_index(gsp.StepSignal(np.zeros(k), t), np.array(points))
    assert got.tolist() == [reference_cell_index(t, k, x) for x in points]


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


@st.composite
def graphs_with_an_edge(draw, nmax=60):
    n = draw(st.integers(2, nmax))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), min_size=1, max_size=2 * n))
    return gsp.Graph(n, pairs)


# the largest grid lifted onto a uniform refinement, and the smallest that is not
@settings(PROPERTY, max_examples=30)
@given(g=graphs_with_an_edge(), mode=st.sampled_from(["degree_sort", "local_search"]))
@example(g=gsp.Graph(22, [(0, 1), (1, 2)]), mode="local_search")
@example(g=gsp.Graph(23, [(0, 1), (1, 2)]), mode="local_search")
def test_self_distance_is_zero_with_a_permutation(g, mode):
    w = gsp.canonical_graphon(g)
    for distance in (gsp.stretched_cut_distance, gsp.cut_distance_steps):
        res = distance(w, w, mode=mode, restarts=4)
        assert res.distance == 0.0 and res.permutation is not None


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


@st.composite
def _graphs_with_orders(draw):
    """A graph on 0-12 vertices, a vertex order and increasing prefix sizes."""
    n = draw(st.integers(0, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=30)) if n > 1 else []
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return gsp.Graph(n, pairs), order, sorted(draw(st.sets(st.integers(0, n))))


@PROPERTY
@given(case=_graphs_with_orders(), drop=st.booleans())
@example(case=(gsp.Graph(6, [(0, 1), (1, 2)]), np.array([5, 0, 3, 1, 4, 2]), [1, 3, 6]),
         drop=True)
@example(case=(gsp.Graph(5, []), np.arange(5)[::-1], [0, 2, 5]), drop=True)
@example(case=(gsp.Graph(4, [(0, 3)]), np.array([3, 1, 2, 0]), [4]), drop=False)
def test_nested_subgraphs_match_induced_subgraphs(case, drop):
    g, order, sizes = case
    steps = list(core._nested_subgraphs(g, order, sizes, drop))
    assert len(steps) == len(sizes)
    for m, (sub, kept) in zip(sizes, steps):
        want, want_kept = g.induced_subgraph(order[:m])
        if drop:
            want, local = want.drop_isolated()
            want_kept = want_kept[local]
        assert sub.n == want.n == kept.size
        assert np.array_equal(sub.edge_array, want.edge_array)
        assert np.array_equal(kept, want_kept)
        # and by vertex sets alone: the kept edges, renumbered in id order
        chosen = set(order[:m].tolist())
        edges = [e for e in g.edges if chosen.issuperset(e)]
        ids = sorted({v for e in edges for v in e} if drop else chosen)
        new = {v: i for i, v in enumerate(ids)}
        assert kept.tolist() == ids
        assert sub.edges == {(new[i], new[j]) for i, j in edges}


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


_ALIGN_MODES = ("exact", "degree_sort", "local_search")


def _config_values(key, default):
    """Strategies of ``(value, ok)`` for one config field: well-typed values,
    and wrong-typed or out-of-range ones.  ``ok`` means well-typed and, for
    the two fields that ``cutdist`` range-checks, in range."""
    if isinstance(default, bool):
        good, bad = st.booleans(), [0, 1, "true", None, [1], {"a": 1}]
    elif isinstance(default, int):
        good, bad = st.integers(-5, 2**65), [1.5, True, math.nan, "7", None, [1]]
    elif isinstance(default, float):
        good = st.floats(-2.0, 2.0) | st.integers(-2, 2)
        bad = [math.nan, math.inf, True, "0.5", None, [1]]
    elif isinstance(default, str):
        good, bad = st.text(alphabet="ab_E2", max_size=4), [3, None, [default], {"a": 1}]
    else:
        item = st.floats(-2.0, 2.0) if isinstance(default[0], float) else st.integers(-3, 3)
        good, bad = st.lists(item, max_size=3), [["a"], [None], [True], 1.0, None]
    good = good.map(lambda v: (v, True))
    if key == "cut_restarts":  # small, and out of range below 1
        good = st.integers(-3, 3).map(lambda v: (v, v >= 1))
    if key == "cut_mode":  # unknown modes too, the cut-norm mode among them
        good = st.sampled_from(_ALIGN_MODES + ("heuristic", "bogus", "", "EXACT")).map(
            lambda v: (v, v in _ALIGN_MODES))
    return good, st.sampled_from(bad).map(lambda v: (v, False))


@st.composite
def _run_configs(draw):
    """A config dict with any subset of the fields, at most two of them
    wrong-typed or out of range, and whether every value is ok."""
    fields = {f.name: getattr(RunConfig(), f.name) for f in dataclasses.fields(RunConfig)}
    keys = draw(st.sets(st.sampled_from(sorted(fields))))
    spoiled = draw(st.sets(st.sampled_from(sorted(keys)), max_size=2)) if keys else set()
    data, ok = {}, True
    for key in sorted(keys):
        good, bad = _config_values(key, fields[key])
        data[key], fine = draw(bad if key in spoiled else good)
        ok = ok and fine
    return data, ok


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn=_run_configs(), against_self=st.booleans())
def test_cutdist_config_fuzz_exits_cleanly(drawn, against_self):
    data, ok = drawn
    with tempfile.TemporaryDirectory() as tmp:
        graph, cfg, out = Path(tmp) / "g.txt", Path(tmp) / "c.json", Path(tmp) / "out"
        gsp.write_edge_list(gsp.dense_core_graph(9, 0.5), graph)
        cfg.write_text(json.dumps(data), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["cutdist", str(graph), str(graph) if against_self else "celebrity",
                       "--out", str(out), "--config", str(cfg)])
        if rc == 0:
            assert err.getvalue() == ""
            assert (out / "manifest.json").is_file() and (out / "cutdist.json").is_file()
        else:
            assert rc == 1
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error", "message"}
    if data.get("cut_mode", RunConfig.cut_mode) not in _ALIGN_MODES:
        assert rc == 1
    if ok:
        assert rc == 0
