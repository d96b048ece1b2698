"""Differential test: ``build_csr`` against the plain stable-argsort builder.

``build_csr`` sorts unweighted keys in place and recovers the endpoints
with ``divmod``; :mod:`tests.graph.reference_csr` keeps the form it
replaced.  Random edge lists with duplicates and self-loops, with and
without weights and dedup, must give identical arrays and dtypes, and
out-of-range input must raise the same :class:`GraphError`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GraphError, build_csr

from .reference_csr import reference_build_csr


@st.composite
def edge_lists(draw):
    n = draw(st.integers(0, 64))
    if n == 0:
        edges = []
    else:
        vertex = st.integers(0, n - 1)
        # Draw from a small pool of pairs so duplicates are common.
        pool = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=12))
        edges = draw(st.lists(st.sampled_from(pool), max_size=200))
        # Self-loops on purpose, not just by chance.
        loops = draw(st.lists(vertex, max_size=4))
        edges += [(v, v) for v in loops]
        edges = draw(st.permutations(edges))
    weighted = draw(st.booleans())
    weights = (
        draw(st.lists(st.integers(1, 255), min_size=len(edges), max_size=len(edges)))
        if weighted
        else None
    )
    return n, edges, weights, draw(st.booleans())


def _assert_same_graph(got, want):
    for field in ("offsets", "neighbors"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field
    if want.weights is None:
        assert got.weights is None
    else:
        assert got.weights.dtype == want.weights.dtype
        assert np.array_equal(got.weights, want.weights)
    assert got.name == want.name


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_matches_reference_builder(case):
    n, edges, weights, dedup = case
    edge_array = np.array(edges, dtype=np.int64).reshape(-1, 2)
    got = build_csr(n, edge_array, weights=weights, dedup=dedup, name="g")
    want = reference_build_csr(n, edge_array, weights=weights, dedup=dedup, name="g")
    _assert_same_graph(got, want)


def test_does_not_mutate_caller_arrays():
    edges = np.array([[2, 1], [0, 1], [2, 0], [0, 1]], dtype=np.int64)
    weights = np.array([4, 3, 2, 1], dtype=np.int32)
    before = edges.copy(), weights.copy()
    build_csr(3, edges, weights=weights, dedup=True)
    build_csr(3, edges, dedup=True)
    assert np.array_equal(edges, before[0])
    assert np.array_equal(weights, before[1])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 64),
    st.lists(st.tuples(st.integers(-3, 70), st.integers(-3, 70)), min_size=1, max_size=20),
    st.booleans(),
)
def test_same_error_on_out_of_range(n, edges, dedup):
    edge_array = np.array(edges, dtype=np.int64)
    if edge_array.min() >= 0 and edge_array.max() < n:
        edge_array[0, 0] = n  # force one endpoint out of range
    errors = []
    for builder in (build_csr, reference_build_csr):
        with pytest.raises(GraphError) as info:
            builder(n, edge_array, dedup=dedup)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
