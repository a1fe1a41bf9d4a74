"""Property tests of the cut norm, exact grid refinement and stretching."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import graphonsp as gsp  # noqa: E402
from graphonsp import core  # noqa: E402

from helpers import brute_force_cut_norm  # noqa: E402

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
