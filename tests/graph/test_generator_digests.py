"""Pin the exact bytes of every generated dataset.

The generators and :func:`build_csr` are free to get faster, but the
graphs they produce must not change: traces, goldens and cached results
all key on them.  Each digest is a SHA-256 over the dtype and raw bytes
of ``offsets``, ``neighbors`` and ``weights`` (``b"none"`` for an
unweighted graph), recorded from the stable-argsort builder these
generators started from.  A mismatch means the graph changed; it is not
a digest to re-record unless the change to the graph is intended.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.graph.generators import DATASET_NAMES, make_dataset


def graph_digest(g) -> str:
    h = hashlib.sha256()
    for arr in (g.offsets, g.neighbors, g.weights):
        if arr is None:
            h.update(b"none")
        else:
            h.update(arr.dtype.str.encode())
            h.update(arr.tobytes())
    return h.hexdigest()


#: (dataset, weighted) -> digest at ``scale_shift`` -4, default seed.
SMALL_DIGESTS = {
    ("kron", False): "2a20730c52f729c380fbea192873d3fdec5578eb645da2532148b9568a57e323",
    ("kron", True): "4c6a05ebb50b5a58aa96eb643da79785b8753151ed5f7b2f38efba595d00751c",
    ("urand", False): "8aa50081a678a20bc5296fd431d8d6d2da92acc6d3b7bbc1d4b5012a830895ed",
    ("urand", True): "a04ff36e371ce13be45d16be6b5fde8f40c002489662cd565da2f9ab2e1f04d4",
    ("orkut", False): "8189551962fcd377722eccde429403a671cbc03c4f730e8fafc6b39d3f61f022",
    ("orkut", True): "683d0c3f5ab2dff90d72557ec140789744ffaf800049bfdeb1e7350b871849cb",
    ("livejournal", False): "1c094c32988e44adeff1f16643c9f498e918b69717c254be2e8d71f96abd2e46",
    ("livejournal", True): "d86be74f432c43e9d00ded7ec6bffd354dbc8a90953d1b0ab42ec029300f83e3",
    ("road", False): "d3bc4262737ac0e715cf06df92647f57627b2f04b9bbb1a1363a77643e89f23a",
    ("road", True): "515f5cd81b77c6033d0145ce6d3d0053caa54300dc45a745fbff8ce9c2303f3a",
    ("mesh", False): "655a4ec582c77cc5f1770e3984c91bfcc119031eb7e7ab3345fa0ff25bb05ccc",
    ("mesh", True): "4518da6122e87005b438334dbdb768cd1d2cbfbc89fe9a75b7e6df0c1a501741",
}

#: (dataset, seed) -> digest at ``scale_shift`` 0, unweighted: the
#: paper-scale graphs the end-to-end benchmark builds.
PAPER_SCALE_DIGESTS = {
    ("kron", 1): "0a85e6ecf072203118fcf016ad7ba3fc513564398ee5d929f15bd494af8a042c",
    ("kron", 7919): "ac535a9d29d66a4e06dcb39886ed570db0252a3fe407109e4e76e44ea17f0692",
    ("urand", 1): "c470e37aa76b41a6eb0d9bdf8c7201a96ac8fa881aee5656a9e793a067fa0779",
    ("urand", 7919): "a9b1422f97dfeabaa7105820cbfb20fbec31c21746261cdbc32d2860d25dfa2f",
}


def test_every_dataset_is_pinned():
    assert {name for name, _ in SMALL_DIGESTS} == set(DATASET_NAMES)


@pytest.mark.parametrize(
    "name,weighted", sorted(SMALL_DIGESTS), ids=lambda v: str(v)
)
def test_small_dataset_digest(name, weighted):
    g = make_dataset(name, scale_shift=-4, weighted=weighted)
    assert graph_digest(g) == SMALL_DIGESTS[(name, weighted)]


@pytest.mark.parametrize(
    "name,seed", sorted(PAPER_SCALE_DIGESTS), ids=lambda v: str(v)
)
def test_paper_scale_digest(name, seed):
    g = make_dataset(name, scale_shift=0, seed=seed)
    assert graph_digest(g) == PAPER_SCALE_DIGESTS[(name, seed)]
