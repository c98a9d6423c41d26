"""The exact oracle's kernel against its reference copy.

``tests/support.py`` keeps the earlier set-up, DSATUR pass and search, whose
masks index ``core.vertices`` and which walk the list of vertices in search
order.  The library labels each core vertex by its search position instead.
On every core it must give the same bounds, the same DSATUR coloring once
mapped back to ``core.vertices``, and the same verdict at every k from one
below the lower bound up to the DSATUR count, and its search order must be
degree descending, then token.
"""

from __future__ import annotations

from hypothesis import given, settings

from efl.generators import gen_dense
from efl.instance import CoreGraph, core_subgraph
from efl.oracle import _dsatur, _k_colorable, _search_setup
from support import (
    instances,
    reference_dsatur,
    reference_k_colorable,
    reference_search_setup,
)
from test_oracle_digests import _random_cores


def _assert_same_kernel(core: CoreGraph) -> None:
    count = len(core.vertices)
    order, adj, bounds = _search_setup(core, count)
    ref_adj, by_degree, ref_bounds = reference_search_setup(core, count)
    assert bounds == ref_bounds

    degree = {v: len(ns) for v, ns in core.adjacency().items()}
    tokens = [core.vertices[i] for i in order]
    assert tokens == sorted(core.vertices, key=lambda v: (-degree[v], v))
    assert order == by_degree

    colors = dict(zip(tokens, _dsatur(adj)))
    ref_colors = reference_dsatur(ref_adj, by_degree)
    assert colors == dict(zip(core.vertices, ref_colors))

    upper = max(ref_colors, default=0)
    for k in range(max(1, max(bounds, default=0) - 1), upper + 1):
        assert _k_colorable(adj, k) == reference_k_colorable(ref_adj, by_degree, k), k


def test_digest_cores():
    for core in _random_cores():
        _assert_same_kernel(core)


def test_dense_cores():
    for n in range(3, 9):
        _assert_same_kernel(core_subgraph(gen_dense(n)))


@settings(max_examples=80, deadline=None)
@given(inst=instances(max_n=7))
def test_instances(inst):
    # at most 21 core vertices: dense(7), or 21 merges on 7 cliques
    _assert_same_kernel(core_subgraph(inst))
