from __future__ import annotations

import math

import pytest
from hypothesis import given, settings

from efl.errors import InvalidInstanceError, ParseError, UnknownVertexError
from efl.export import serialize_instance
from efl.generators import gen_dense, gen_disjoint
from efl.greedy import check_sy1, check_sy2
from efl.instance import (
    Instance,
    clique_degree,
    core_subgraph,
    degree_profile,
    incidence,
    intersecting_pair_count,
    parse_instance,
    shared_vertex,
    validate,
)
from efl.oracle import theorem_identity
from support import (
    brute_check_sy1,
    brute_check_sy2,
    brute_core_edges,
    brute_core_split,
    brute_core_subgraph,
    brute_degree_profile,
    brute_theorem_identity,
    instances,
    permissive_instances,
    reference_intersecting_pair_count,
    reference_shown,
    reference_token_ok,
    reference_validate,
)


class TestParse:
    def test_smallest_nondegenerate(self):
        inst = parse_instance("2\na b\nb c\n")
        assert inst.n == 2
        assert inst.cliques == (("a", "b"), ("b", "c"))

    def test_example_file_round(self, example, example_file):
        assert parse_instance(example_file.read_text()) == example

    def test_crlf_and_comments(self):
        inst = parse_instance("# heading\r\n2\r\n\r\na b\r\nb c\r\n")
        assert inst.cliques == (("a", "b"), ("b", "c"))

    def test_linearity_violation_rejected(self):
        with pytest.raises(ParseError, match=r"cliques 1,2 share 2 vertices"):
            parse_instance("2\na b\na b\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_instance("x\na b\n")

    @pytest.mark.parametrize("header", ["\u0662", "1_0", "+2", "-1"])
    def test_header_takes_ascii_digits_only(self, header):
        # int() accepts each of these (but "-1" would then fail as not positive)
        with pytest.raises(ParseError, match="line 1: expected a decimal clique count"):
            parse_instance(f"{header}\na b\nb c\n")

    def test_zero_cliques_rejected(self):
        with pytest.raises(ParseError, match="positive"):
            parse_instance("0\n")

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n  # and another\r\n"])
    def test_no_header_line(self, text):
        with pytest.raises(ParseError) as raised:
            parse_instance(text)
        assert str(raised.value) == "empty input: expected a clique count line"

    def test_single_clique_accepted(self):
        inst = parse_instance("1\nonly\n")
        assert inst.vertices == ("only",)

    def test_wrong_clique_count(self):
        with pytest.raises(ParseError, match="expected 3 clique lines, found 2"):
            parse_instance("3\na b c\nd e f\n")

    def test_wrong_clique_size(self):
        with pytest.raises(ParseError, match="clique 2 has 2 tokens, expected 3"):
            parse_instance("3\na b c\nd e\nf g h\n")

    def test_duplicate_token_in_clique(self):
        with pytest.raises(ParseError, match="duplicate token 'a'"):
            parse_instance("2\na a\nb c\n")

    def test_invalid_token(self):
        with pytest.raises(ParseError, match="invalid token"):
            parse_instance("2\na \x01\nb c\n")

    def test_token_rule_on_every_code_point(self):
        # the writer refuses exactly the pieces the parser refuses, with the
        # parser's message
        for cp in range(0x110000):
            for piece in ("a" + chr(cp) + "b").split():
                rule = (
                    None
                    if reference_token_ok(piece)
                    else f"invalid token '{reference_shown(piece)}' in clique 1"
                )
                try:
                    serialize_instance(Instance(1, [(piece,)]))
                    refused = None
                except ValueError as err:
                    refused = str(err)
                try:
                    parse_instance(f"1\n{piece}\n", require_validity=False)
                    read = None
                except ParseError as err:
                    read = str(err).removeprefix("line 2: ")
                assert refused == read == rule, hex(cp)

    def test_permissive_mode_keeps_violations(self):
        inst = parse_instance("2\na b\na b\n", require_validity=False)
        report = validate(inst)
        assert not report.ok


class TestConstruction:
    """README promises ``ValueError`` for a clique count below 1 or unlike
    the number of cliques."""

    def test_clique_count_below_one(self):
        with pytest.raises(ValueError) as raised:
            Instance(0, [])
        assert str(raised.value) == "clique count must be positive, got 0"

    def test_clique_count_unlike_the_cliques(self):
        with pytest.raises(ValueError) as raised:
            Instance(2, [("a", "b")])
        assert str(raised.value) == "expected 2 cliques, got 1"

    def test_equal_instances_hash_alike(self):
        built = Instance(2, [["a", "b"], ("b", "c")])
        parsed = parse_instance("2\na b\nb c\n")
        assert built == parsed and built is not parsed
        assert hash(built) == hash(parsed) == hash((2, (("a", "b"), ("b", "c"))))


class TestValidate:
    def test_example_is_valid(self, example):
        assert validate(example).ok

    def test_disjoint_is_valid(self):
        assert validate(gen_disjoint(4)).ok

    def test_pair_sharing_two_vertices(self):
        inst = Instance(2, [("x", "y"), ("x", "y")])
        report = validate(inst)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert kinds == {"shared-pair"}
        (violation,) = report.violations
        assert violation.cliques == (1, 2)
        assert violation.tokens == ("x", "y")

    def test_degree_three_and_degree_two_vertex_share_a_pair(self):
        # x lies in cliques 1, 2 and 3, y in 1 and 2 only: the pair (1, 2)
        # comes once from x's three pairs and once from y's own tuple
        inst = Instance(3, [("x", "y", "a"), ("x", "y", "b"), ("x", "c", "d")])
        assert inst.core_incidence == {"x": (1, 2, 3), "y": (1, 2)}
        report = validate(inst)
        (violation,) = report.violations
        assert violation.kind == "shared-pair"
        assert violation.cliques == (1, 2)
        assert violation.tokens == ("x", "y")
        assert report == reference_validate(inst)

    def test_all_violations_reported(self):
        inst = Instance(3, [("a", "a", "b"), ("a", "b", "c"), ("a", "b", "d")])
        report = validate(inst)
        kinds = sorted(v.kind for v in report.violations)
        assert "clique-size" in kinds
        assert "duplicate-vertex" in kinds
        # every offending pair appears, not just the first
        pair_violations = [v for v in report.violations if v.kind == "shared-pair"]
        assert {v.cliques for v in pair_violations} == {(1, 2), (1, 3), (2, 3)}


class TestQueries:
    def test_clique_degrees(self, example):
        assert clique_degree(example, "v1") == 4
        assert clique_degree(example, "v16") == 3
        assert clique_degree(example, "v2") == 1

    def test_unknown_vertex(self, example):
        with pytest.raises(UnknownVertexError):
            clique_degree(example, "nope")
        with pytest.raises(UnknownVertexError):
            incidence(example, "nope")

    def test_unknown_vertex_text(self, example):
        # clique_degree raises the error of incidence, word for word
        message = "^vertex 'nope' does not occur in the instance$"
        for query in (clique_degree, incidence):
            with pytest.raises(UnknownVertexError, match=message):
                query(example, "nope")

    def test_incidence(self, example):
        assert incidence(example, "v16") == [3, 5, 6]
        assert incidence(example, "v19") == [4, 6]
        assert incidence(example, "v2") == [1]

    def test_shared_vertex(self, example):
        assert shared_vertex(example, 1, 6) is None
        assert shared_vertex(example, 3, 5) == "v16"
        assert shared_vertex(example, 1, 2) == "v1"
        assert shared_vertex(example, 6, 1) is None

    def test_shared_vertex_errors(self, example):
        with pytest.raises(ValueError):
            shared_vertex(example, 2, 2)
        with pytest.raises(IndexError):
            shared_vertex(example, 0, 3)
        with pytest.raises(IndexError):
            shared_vertex(example, 1, 7)

    def test_shared_vertex_on_illegal_cover(self):
        inst = Instance(2, [("x", "y"), ("x", "y")])
        with pytest.raises(InvalidInstanceError):
            shared_vertex(inst, 1, 2)


class TestCoreSubgraph:
    def test_example_core(self, example):
        core = core_subgraph(example)
        assert core.vertices == ("v1", "v16", "v19", "v6", "v7", "v9")
        assert core.incidence["v16"] == (3, 5, 6)

    def test_disjoint_core_empty(self):
        core = core_subgraph(gen_disjoint(4))
        assert core.vertices == ()
        assert core.edges == ()

    def test_dense3_core_is_triangle(self):
        core = core_subgraph(gen_dense(3))
        assert set(core.vertices) == {"b1_2", "b1_3", "b2_3"}
        assert set(core.edges) == brute_core_edges(gen_dense(3))
        assert len(core.edges) == 3

    def test_invalid_instance_rejected(self):
        inst = Instance(2, [("x", "y"), ("x", "y")])
        with pytest.raises(InvalidInstanceError):
            core_subgraph(inst)

    @settings(max_examples=60)
    @given(inst=instances(max_n=8))
    def test_edges_match_pairwise_incidence_scan(self, inst):
        core = core_subgraph(inst)
        assert set(core.edges) == brute_core_edges(inst)


class TestDegreeProfile:
    def test_example_histogram(self, example):
        profile = degree_profile(example)
        assert profile.histogram == {1: 21, 2: 4, 3: 1, 4: 1}
        assert profile.max_degree == 4
        assert sum(profile.histogram.values()) == len(example.vertices)

    def test_dense_histogram(self):
        assert degree_profile(gen_dense(4)).histogram == {1: 4, 2: 6}

    def test_disjoint_histogram(self):
        assert degree_profile(gen_disjoint(3)).histogram == {1: 9}

    @settings(max_examples=60)
    @given(inst=instances())
    def test_profile_consistent_with_queries(self, inst):
        profile = degree_profile(inst)
        for v in inst.vertices:
            assert profile.degree_of[v] == clique_degree(inst, v)
        assert sum(profile.histogram.values()) == len(inst.vertices)

    @settings(max_examples=60)
    @given(inst=instances())
    def test_vertex_count_formula(self, inst):
        profile = degree_profile(inst)
        slack = sum(d - 1 for d in profile.degree_of.values())
        assert len(inst.vertices) == inst.n * inst.n - slack


class TestIntersectingPairs:
    def test_example(self, example):
        assert intersecting_pair_count(example) == 13

    def test_dense(self):
        for n in (2, 5, 9):
            assert intersecting_pair_count(gen_dense(n)) == math.comb(n, 2)

    def test_disjoint(self):
        assert intersecting_pair_count(gen_disjoint(5)) == 0

    @settings(max_examples=80, deadline=None)
    @given(inst=instances(max_n=9))
    def test_matches_reference_on_generated_covers(self, inst):
        assert intersecting_pair_count(inst) == reference_intersecting_pair_count(inst)

    def test_matches_reference_on_pinned_covers(
        self, corpus500, gap_n8_file, sy2_statement_n6_file
    ):
        covers = [
            *corpus500,
            parse_instance(gap_n8_file.read_text()),
            parse_instance(sy2_statement_n6_file.read_text()),
            *(gen_dense(n) for n in range(2, 26)),
            *(gen_disjoint(n) for n in range(1, 9)),
        ]
        for inst in covers:
            assert intersecting_pair_count(inst) == reference_intersecting_pair_count(inst)


def _assert_split_matches_brute(inst: Instance) -> None:
    core, private = brute_core_split(inst)
    # same keys in the same order, with the same tuples
    assert list(inst.core_incidence.items()) == list(core.items())
    assert inst.private_members == private


def _assert_core_layers_match_brute(inst: Instance) -> None:
    assert check_sy1(inst) == brute_check_sy1(inst)
    for d in range(2, inst.n + 1):
        for rule in ("statement", "proof"):
            assert check_sy2(inst, d, rule) == brute_check_sy2(inst, d, rule)
    profile, brute = degree_profile(inst), brute_degree_profile(inst)
    assert profile == brute
    assert list(profile.degree_of.items()) == list(brute.degree_of.items())
    assert list(profile.histogram.items()) == list(brute.histogram.items())
    assert theorem_identity(inst) == brute_theorem_identity(inst)
    assert core_subgraph(inst) == brute_core_subgraph(inst)


class TestCoreSplit:
    """``core_incidence`` and ``private_members`` against a filter of the
    whole incidence map, and every layer that reads only them against its
    brute version over the whole map."""

    def test_example(self, example):
        assert list(example.core_incidence) == ["v1", "v6", "v7", "v9", "v16", "v19"]
        assert example.core_incidence["v16"] == (3, 5, 6)
        assert [len(p) for p in example.private_members] == [4, 3, 4, 4, 3, 3]
        # token order, not input order: clique 2 lists v8 before v10
        assert example.private_members[1] == ("v10", "v11", "v8")

    def test_disjoint_and_single_clique(self):
        assert gen_disjoint(3).core_incidence == {}
        assert gen_disjoint(3).private_members[1] == ("v2_1", "v2_2", "v2_3")
        only = Instance(1, [("x",)])
        assert only.core_incidence == {}
        assert only.private_members == (("x",),)
        _assert_core_layers_match_brute(only)

    def test_token_repeated_in_a_clique(self):
        inst = Instance(3, [("b", "a", "a"), ("a", "c", "d"), ("e", "f", "g")])
        assert inst.core_incidence == {"a": (1, 2)}
        assert inst.private_members == (("b",), ("c", "d"), ("e", "f", "g"))
        _assert_split_matches_brute(inst)

    def test_clique_of_wrong_size(self):
        inst = Instance(2, [("z", "x", "y"), ("x",)])
        assert inst.core_incidence == {"x": (1, 2)}
        assert inst.private_members == (("y", "z"), ())
        _assert_split_matches_brute(inst)

    @settings(max_examples=80, deadline=None)
    @given(inst=instances(max_n=9))
    def test_generated_covers(self, inst):
        _assert_split_matches_brute(inst)
        _assert_core_layers_match_brute(inst)

    def test_random_corpus(self, corpus500):
        for inst in corpus500:
            _assert_split_matches_brute(inst)
            _assert_core_layers_match_brute(inst)

    @settings(max_examples=120, deadline=None)
    @given(inst=permissive_instances(max_n=8))
    def test_vertices_on_permissive_covers(self, inst):
        # tokens repeat inside and across cliques; each is one vertex
        assert inst.vertices == tuple(sorted({t for c in inst.cliques for t in c}))

    @settings(max_examples=120, deadline=None)
    @given(inst=permissive_instances(max_n=8))
    def test_permissive_covers(self, inst):
        _assert_split_matches_brute(inst)
        assert validate(inst) == reference_validate(inst)
        assert not inst.is_valid
        for layer in (check_sy1, degree_profile, theorem_identity, core_subgraph):
            with pytest.raises(InvalidInstanceError):
                layer(inst)
        with pytest.raises(InvalidInstanceError):
            check_sy2(inst, 2)
