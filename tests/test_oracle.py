from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from efl.errors import CoreSizeLimitError, IncompleteColoringError
from efl.export import export_dot
from efl.generators import gen_dense, gen_disjoint, gen_random
from efl.instance import CoreGraph, Instance, core_subgraph, degree_profile, parse_instance
from efl.matrix_engine import run_matrix_method
from efl import oracle
from efl.oracle import (
    CheckRow,
    VerifyReport,
    chromatic_number_exact,
    corollary_bound_check,
    _certified_count,
    _dsatur,
    _search_setup,
    is_n_colorable,
    theorem_identity,
    verify_proper,
)
from support import (
    brute_chromatic,
    brute_is_proper,
    instances,
    reference_chromatic,
    reference_verify_proper,
)
from test_oracle_digests import _random_cores


class TestVerifyProper:
    def test_example_engine_coloring(self, example):
        result = run_matrix_method(example)
        report = verify_proper(example, result.coloring)
        assert report.proper
        assert report.colors_used == 6
        assert report.max_color == 6
        assert report.conflicts == ()

    def test_constant_coloring(self, example):
        report = verify_proper(example, {v: 1 for v in example.vertices})
        assert not report.proper
        # every clique contributes all its pairs
        assert len(report.conflicts) == 6 * math.comb(6, 2)
        assert report.colors_used == 1

    def test_injective_coloring(self, example):
        coloring = {v: i + 1 for i, v in enumerate(example.vertices)}
        assert verify_proper(example, coloring).proper

    def test_missing_vertex(self, example):
        coloring = {v: 1 for v in example.vertices if v != "v9"}
        with pytest.raises(IncompleteColoringError):
            verify_proper(example, coloring)

    def test_missing_vertices_named_by_least_token(self, example):
        # 'v2' comes first in clique order, 'v10' first in token order
        gone = {"v9", "v27", "v10", "v2"}
        coloring = {v: 1 for v in example.vertices if v not in gone}
        with pytest.raises(IncompleteColoringError) as err:
            verify_proper(example, coloring)
        assert str(err.value) == "coloring is missing 4 vertices, e.g. 'v10'"

    @pytest.mark.parametrize(
        "coloring, message",
        [
            # proper, with max_color 2 <= n, yet three colors on dense(2)
            ({"b1_2": 0, "p1": 1, "p2": 2}, "vertex 'b1_2' has color 0, below 1"),
            ({"b1_2": 1, "p1": -1, "p2": 0}, "vertex 'p1' has color -1, below 1"),
        ],
        ids=["zero", "negative"],
    )
    def test_color_below_one_refused(self, coloring, message):
        inst = gen_dense(2)
        with pytest.raises(ValueError) as refused:
            verify_proper(inst, coloring)
        assert str(refused.value) == message
        with pytest.raises(ValueError, match="below 1"):
            export_dot(inst, coloring)

    @pytest.mark.parametrize("n", [1, 3])
    def test_cover_without_vertices(self, n):
        # a permissive instance whose cliques are all empty: nothing to color
        inst = Instance(n, [()] * n)
        report = verify_proper(inst, {})
        assert report == VerifyReport(conflicts=(), colors_used=0, max_color=0)
        assert report.proper
        assert report == reference_verify_proper(inst, {})

    def test_conflict_structure(self):
        inst = gen_disjoint(2)
        coloring = {"v1_1": 1, "v1_2": 1, "v2_1": 1, "v2_2": 2}
        report = verify_proper(inst, coloring)
        assert report.conflicts == ((1, "v1_1", "v1_2", 1),)

    @pytest.mark.parametrize(
        "colors, conflicts",
        [
            ({"a": 1, "b": 2, "c": 1, "d": 2, "e": 3, "f": 2, "h": 3}, ()),
            (
                {"a": 1, "b": 1, "c": 1, "d": 2, "e": 3, "f": 2, "h": 3},
                ((1, "a", "b", 1),),
            ),
        ],
    )
    def test_repeated_token_is_no_self_conflict(self, colors, conflicts):
        # a permissive instance may list a token twice in one clique; that
        # token is one vertex and cannot conflict with itself
        inst = Instance(3, [("a", "b", "a"), ("c", "d", "e"), ("a", "f", "h")])
        report = verify_proper(inst, colors)
        assert report.conflicts == conflicts
        assert report == reference_verify_proper(inst, colors)

    @settings(max_examples=60)
    @given(inst=instances(max_n=6), data=st.data())
    def test_agrees_with_pairwise_scan(self, inst, data):
        colors = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=inst.n),
                min_size=len(inst.vertices),
                max_size=len(inst.vertices),
            )
        )
        coloring = dict(zip(inst.vertices, colors))
        assert verify_proper(inst, coloring).proper == brute_is_proper(inst, coloring)

    @settings(max_examples=80, deadline=None)
    @given(
        inst=instances(max_n=9),
        seed=st.integers(min_value=0, max_value=2**32),
        changes=st.integers(min_value=0, max_value=6),
        palette=st.integers(min_value=1, max_value=12),
    )
    def test_matches_reference(self, inst, seed, changes, palette):
        # start from the engine's coloring (proper) or from random colors, then
        # overwrite a few vertices, so proper and improper cliques both occur
        rng = random.Random(seed)
        result = run_matrix_method(inst)
        if result.ok and rng.random() < 0.7:
            coloring = dict(result.coloring)
        else:
            coloring = {v: rng.randint(1, palette) for v in inst.vertices}
        for v in rng.sample(inst.vertices, min(changes, len(inst.vertices))):
            coloring[v] = rng.randint(1, palette)
        assert verify_proper(inst, coloring) == reference_verify_proper(inst, coloring)


class TestChromaticNumberExact:
    def test_search_too_deep_is_a_size_error(self):
        # dense(50) has a 1225-vertex core, deeper than the recursion limit
        inst = gen_dense(50)
        message = (
            "core has 1225 vertices, too many to search within the "
            "interpreter's recursion limit"
        )
        with pytest.raises(CoreSizeLimitError) as err:
            chromatic_number_exact(core_subgraph(inst), vertex_limit=2000)
        assert str(err.value) == message
        with pytest.raises(CoreSizeLimitError) as err:
            is_n_colorable(inst, vertex_limit=2000)
        assert str(err.value) == message

    def test_example_core_needs_four(self, example):
        core = core_subgraph(example)
        assert chromatic_number_exact(core) == 4
        assert brute_chromatic(list(core.vertices), core.adjacency()) == 4

    def test_dense4_core(self):
        core = core_subgraph(gen_dense(4))
        assert chromatic_number_exact(core) == 3
        assert brute_chromatic(list(core.vertices), core.adjacency()) == 3

    def test_dense5_core(self):
        core = core_subgraph(gen_dense(5))
        assert chromatic_number_exact(core) == 5
        assert brute_chromatic(list(core.vertices), core.adjacency()) == 5

    def test_empty_core(self):
        assert chromatic_number_exact(core_subgraph(gen_disjoint(3))) == 0

    def test_limit_enforced(self):
        core = core_subgraph(gen_dense(8))  # 28 core vertices
        with pytest.raises(CoreSizeLimitError):
            chromatic_number_exact(core, vertex_limit=10)

    def test_refused_before_edges_built(self, monkeypatch):
        # the search reads the clique lists only, so the edge list is never built
        def unread(core):
            raise AssertionError("the core's edge list was read")

        monkeypatch.setattr(CoreGraph, "edges", property(unread))
        core = core_subgraph(gen_dense(8))
        with pytest.raises(CoreSizeLimitError):
            chromatic_number_exact(core, vertex_limit=27)
        assert chromatic_number_exact(core, vertex_limit=28) == 7

    def test_deterministic(self):
        core = core_subgraph(gen_dense(6))
        assert chromatic_number_exact(core) == chromatic_number_exact(core)

    @settings(max_examples=40, deadline=None)
    @given(inst=instances(max_n=6))
    def test_agrees_with_plain_enumeration(self, inst):
        core = core_subgraph(inst)
        if len(core.vertices) > 12:
            return
        expected = brute_chromatic(list(core.vertices), core.adjacency())
        assert chromatic_number_exact(core) == expected

    # Cores above 28 vertices are skipped: near-dense n = 9 cores of 29..35
    # vertices take the set-based reference seconds to minutes each.
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=10),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        extension=st.integers(min_value=0, max_value=100),
    )
    def test_matches_reference(self, n, data, seed, extension):
        merges = data.draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
        core = core_subgraph(gen_random(n, merges, seed, extension))
        assume(len(core.vertices) <= 28)
        assert chromatic_number_exact(core) == reference_chromatic(core)


class TestLowerBounds:
    """The three bounds the search starts from: greedy clique, row, packing."""

    @settings(max_examples=60, deadline=None)
    @given(inst=instances(max_n=6))
    def test_each_bound_at_most_chi(self, inst):
        core = core_subgraph(inst)
        assume(len(core.vertices) <= 12)
        _, _, bounds = _search_setup(core, vertex_limit=12)
        chi = brute_chromatic(list(core.vertices), core.adjacency())
        assert len(bounds) == (3 if core.vertices else 0)
        assert all(bound <= chi for bound in bounds)

    def test_packing_bound_is_dense_chi(self):
        # the dense core is the line graph of K_n: chi = n - [n even]
        for n in range(3, 13):
            core = core_subgraph(gen_dense(n))
            _, _, (clique, row, packing) = _search_setup(core, len(core.vertices))
            assert packing == n - (n % 2 == 0)
            assert row == n - 1
            assert clique <= packing


def _check_witness(core, chi: int) -> None:
    """The DSATUR coloring is proper on ``core.edges``, uses exactly U colors,
    and the lower bound L and U bracket ``chi``."""
    order, adj, bounds = _search_setup(core, len(core.vertices))
    colors = _dsatur(adj)
    upper = _certified_count(adj, colors)
    color_of = dict(zip((core.vertices[i] for i in order), colors))
    assert all(color_of[u] != color_of[v] for u, v in core.edges)
    assert set(colors) == set(range(1, upper + 1))
    assert max(bounds, default=0) <= chi <= upper


class TestDsaturWitness:
    """The certified DSATUR coloring that gives the upper bound U."""

    @settings(max_examples=60, deadline=None)
    @given(inst=instances(max_n=6))
    def test_brackets_enumerated_chi(self, inst):
        core = core_subgraph(inst)
        assume(len(core.vertices) <= 12)
        _check_witness(core, brute_chromatic(list(core.vertices), core.adjacency()))

    def test_dense_cores(self):
        for n in range(3, 9):
            _check_witness(core_subgraph(gen_dense(n)), n - (n % 2 == 0))

    def test_digest_cores(self):
        for core in _random_cores():
            _check_witness(core, chromatic_number_exact(core))

    @pytest.mark.parametrize(
        "broken, message", [("same-color", "not proper"), ("uncolored", "uncolored")]
    )
    def test_improper_coloring_raises(self, broken, message):
        _, adj, _ = _search_setup(core_subgraph(gen_dense(4)), 6)
        colors = _dsatur(adj)
        if broken == "same-color":
            colors = [1] * len(colors)
        else:
            colors[-1] = 0
        with pytest.raises(RuntimeError, match=message):
            _certified_count(adj, colors)


class TestSearchCalls:
    """Search runs only for k in the gap between the lower bound and U."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        search = oracle._k_colorable

        def counted(adj, k):
            made.append(k)
            return search(adj, k)

        monkeypatch.setattr(oracle, "_k_colorable", counted)
        return made

    def test_dense8_needs_no_search(self, calls):
        # L = U = 7
        assert chromatic_number_exact(core_subgraph(gen_dense(8))) == 7
        assert is_n_colorable(gen_dense(8))
        assert calls == []

    def test_dense7_searches_the_gap(self, calls):
        # L = 7, U = 8: the one search at k = 7 succeeds
        assert chromatic_number_exact(core_subgraph(gen_dense(7))) == 7
        assert calls == [7]
        assert is_n_colorable(gen_dense(7))
        assert calls == [7, 7]

    def test_digest_cores_decided_without_search(self, calls):
        # 474 of the 576 random digest cores have L = U
        decided = 0
        for core in _random_cores():
            before = len(calls)
            chromatic_number_exact(core)
            decided += len(calls) == before
        assert decided == 474


class TestIsNColorable:
    def test_example(self, example):
        assert is_n_colorable(example)

    def test_dense7(self):
        assert is_n_colorable(gen_dense(7))

    def test_disjoint(self):
        assert is_n_colorable(gen_disjoint(6))

    def test_limit_enforced(self):
        with pytest.raises(CoreSizeLimitError):
            is_n_colorable(gen_dense(8), vertex_limit=27)
        assert is_n_colorable(gen_dense(8), vertex_limit=28)

    @pytest.mark.parametrize("inst", [gen_disjoint(3), gen_dense(4)], ids=["empty", "dense4"])
    def test_negative_limit_rejected(self, inst):
        with pytest.raises(ValueError, match="vertex_limit must be at least 0"):
            chromatic_number_exact(core_subgraph(inst), vertex_limit=-1)
        with pytest.raises(ValueError, match="vertex_limit must be at least 0"):
            is_n_colorable(inst, vertex_limit=-1)

    def test_agrees_with_chromatic_number(self, corpus500, gap_n8_file):
        gap = parse_instance(gap_n8_file.read_text(encoding="utf-8"))
        for inst in [*corpus500, gap]:
            chi = chromatic_number_exact(core_subgraph(inst))
            assert is_n_colorable(inst) == (chi <= inst.n)


class TestTheoremIdentity:
    def test_dense6(self):
        result = theorem_identity(gen_dense(6))
        assert result == (15, 15, True)

    def test_example(self, example):
        result = theorem_identity(example)
        assert result.lhs == 13
        assert result.rhs == 13
        assert not result.all_pairs_intersect

    def test_disjoint(self):
        result = theorem_identity(gen_disjoint(4))
        assert result.lhs == 0 and result.rhs == 0
        assert not result.all_pairs_intersect

    @settings(max_examples=80)
    @given(inst=instances())
    def test_identity_holds_everywhere(self, inst):
        result = theorem_identity(inst)
        assert result.lhs == result.rhs


class TestCorollaryBound:
    def test_example_rows(self, example):
        report = corollary_bound_check(example)
        assert report.ok
        by_m = {r.m: r for r in report.rows}
        assert by_m[4].count == 1 and by_m[4].weighted == 6 and by_m[4].bound == 15
        assert by_m[2].count == 4 and by_m[2].weighted == 4

    def test_dense_equality_case(self):
        for n in (3, 6, 10):
            report = corollary_bound_check(gen_dense(n))
            assert report.ok
            (row,) = report.rows
            assert row.m == 2 and row.weighted == row.bound

    def test_disjoint_vacuous(self):
        report = corollary_bound_check(gen_disjoint(4))
        assert report.ok
        assert report.rows == ()

    @settings(max_examples=80)
    @given(inst=instances())
    def test_bound_holds_everywhere(self, inst):
        assert corollary_bound_check(inst).ok


def _rows_from_degree_profile(inst: Instance) -> tuple[CheckRow, ...]:
    profile = degree_profile(inst)
    n_pairs = math.comb(inst.n, 2)
    return tuple(
        CheckRow(m, profile.histogram.get(m, 0), n_pairs)
        for m in range(2, profile.max_degree + 1)
    )


class TestCorollaryRowsFromDegreeProfile:
    """The bound check counts the core's degrees itself; its rows are those
    read off :func:`degree_profile`'s histogram."""

    def test_corpus(self, corpus500):
        for inst in corpus500:
            assert corollary_bound_check(inst).rows == _rows_from_degree_profile(inst)

    def test_dense(self):
        for n in range(2, 51):
            inst = gen_dense(n)
            assert corollary_bound_check(inst).rows == _rows_from_degree_profile(inst)

    @settings(max_examples=80)
    @given(inst=instances())
    def test_generated_covers(self, inst):
        assert corollary_bound_check(inst).rows == _rows_from_degree_profile(inst)
