"""A deliberately plain CSR builder, kept as the oracle for ``build_csr``.

The production :func:`repro.graph.build_csr` sorts its ``src * n + dst``
keys in place and recovers the endpoints arithmetically.  This builder is
the straightforward form it replaced: one stable argsort over the keys,
gathers of the ``(E, 2)`` edge rows, and a row-wise duplicate mask.  It
imports nothing from the builder it checks (only ``CSRGraph`` and
``GraphError``), so the differential test compares two independent
constructions.
"""

from __future__ import annotations

import numpy as np

from repro.graph import CSRGraph, GraphError

__all__ = ["reference_build_csr"]


def reference_build_csr(
    num_vertices: int,
    edge_array,
    weights=None,
    dedup: bool = False,
    name: str = "unnamed",
) -> CSRGraph:
    """Stable-argsort CSR construction (first weight wins on dedup)."""
    if num_vertices < 0:
        raise GraphError("num_vertices must be non-negative")
    edge_array = np.asarray(edge_array, dtype=np.int64).reshape(-1, 2)
    if len(edge_array) and (
        edge_array.min() < 0 or edge_array.max() >= num_vertices
    ):
        raise GraphError("edge endpoints out of range")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.int32)
        if len(weights) != len(edge_array):
            raise GraphError("weights must be parallel to edges")

    if len(edge_array):
        key = edge_array[:, 0] * num_vertices + edge_array[:, 1]
        order = np.argsort(key, kind="stable")
        edge_array = edge_array[order]
        if weights is not None:
            weights = weights[order]
        if dedup:
            keep = np.ones(len(edge_array), dtype=bool)
            keep[1:] = np.any(edge_array[1:] != edge_array[:-1], axis=1)
            edge_array = edge_array[keep]
            if weights is not None:
                weights = weights[keep]

    counts = np.bincount(edge_array[:, 0], minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    neighbors = edge_array[:, 1].astype(np.int32)
    return CSRGraph(offsets, neighbors, weights, name=name)
