from __future__ import annotations

import pytest
from hypothesis import given, settings

from efl.export import serialize_instance
from efl.generators import gen_dense, gen_disjoint, gen_random
from efl.greedy import check_sy1, check_sy2, check_sy2_all, run_greedy
from efl.instance import Instance, core_subgraph, intersecting_pair_count, parse_instance
from efl.matrix_engine import run_matrix_method
from efl.oracle import chromatic_number_exact, is_n_colorable, verify_proper
from support import brute_check_sy2, clique_pairs_cover, instances


class TestRunGreedy:
    def test_example(self, example):
        result = run_greedy(example)
        assert result.ok
        report = verify_proper(example, result.coloring)
        assert report.proper
        assert report.colors_used == 6
        assert is_n_colorable(example)

    def test_dense4(self):
        inst = gen_dense(4)
        result = run_greedy(inst)
        assert result.ok
        assert verify_proper(inst, result.coloring).proper
        # the core (line graph of the 4-point complete graph) only needs 3 colors
        core_colors = {
            c for v, c in result.coloring.items() if not v.startswith("p")
        }
        assert core_colors == {1, 2, 3}

    def test_dense5_blocks(self):
        result = run_greedy(gen_dense(5))
        assert not result.ok
        assert result.reason == "no-color-available"

    def test_disjoint(self):
        result = run_greedy(gen_disjoint(4))
        assert result.ok
        assert verify_proper(gen_disjoint(4), result.coloring).proper

    def test_deterministic(self, example):
        assert run_greedy(example).coloring == run_greedy(example).coloring


class TestCheckSy1:
    def test_example_fails(self, example):
        report = check_sy1(example)
        assert not report.holds
        rows = {r.clique: r for r in report.per_clique}
        assert rows[2].count == 3 and rows[2].bound == 2 and not rows[2].ok
        assert [rows[i].count for i in range(1, 7)] == [2, 3, 2, 2, 3, 3]

    def test_dense9_fails(self):
        report = check_sy1(gen_dense(9))
        assert not report.holds
        assert all(r.count == 8 and r.bound == 3 for r in report.per_clique)

    def test_disjoint_holds(self):
        report = check_sy1(gen_disjoint(5))
        assert report.holds
        assert all(r.count == 0 for r in report.per_clique)

    def test_integer_exact_bounds(self):
        assert check_sy1(gen_dense(3)).per_clique[0].bound == 1
        # perfect square: the bound is exactly the root, no float rounding
        assert check_sy1(gen_disjoint(4)).per_clique[0].bound == 2


class TestSy1AtTheBound:
    """SY1 at n = 4, where sqrt(n) = 2 exactly."""

    def test_four_cycle_holds_at_the_bound(self):
        # cliques 1-2-3-4-1 meet in a cycle, so each holds two shared vertices
        inst = Instance(
            4,
            [
                ("s41", "s12", "p1", "q1"),
                ("s12", "s23", "p2", "q2"),
                ("s23", "s34", "p3", "q3"),
                ("s34", "s41", "p4", "q4"),
            ],
        )
        report = check_sy1(inst)
        assert [(r.count, r.bound) for r in report.per_clique] == [(2, 2)] * 4
        assert report.holds
        assert run_greedy(inst).ok

    def test_dense4_fails_one_past(self):
        report = check_sy1(gen_dense(4))
        assert [(r.count, r.bound) for r in report.per_clique] == [(3, 2)] * 4
        assert not report.holds


class TestSy2AtTheBounds:
    """Seeded random covers whose largest count at d = 3 sits exactly at a
    bound or one past it: ceil((n+2)/3) for the statement rule, ceil(n/3)
    for the proof rule.  Specs are (n, merges, seed, extension percent)."""

    @pytest.mark.parametrize(
        "spec, rule, bound, holds",
        [
            ((6, 15, 2, 20), "proof", 2, True),
            ((9, 36, 3, 50), "statement", 4, True),
            ((9, 36, 3, 50), "proof", 3, False),
            ((13, 78, 6, 50), "statement", 5, False),
        ],
    )
    def test_d3(self, spec, rule, bound, holds):
        n, merges, seed, percent = spec
        inst = gen_random(n, merges, seed, extension_percent=percent)
        report = check_sy2(inst, 3, rule)
        assert report == brute_check_sy2(inst, 3, rule)
        assert {r.bound for r in report.per_clique} == {bound}
        assert max(r.count for r in report.per_clique) == (bound if holds else bound + 1)
        assert report.holds == holds


class TestCheckSy2:
    def test_example_d2(self, example):
        report = check_sy2(example, 2)
        assert report.holds
        assert [r.count for r in report.per_clique] == [2, 3, 2, 2, 3, 3]
        assert all(r.bound == 4 for r in report.per_clique)

    def test_example_d4(self, example):
        report = check_sy2(example, 4)
        assert report.holds
        assert [r.count for r in report.per_clique] == [1, 1, 1, 1, 0, 0]
        assert all(r.bound == 3 for r in report.per_clique)

    def test_d_out_of_range(self, example):
        with pytest.raises(ValueError):
            check_sy2(example, 1)
        with pytest.raises(ValueError):
            check_sy2(example, 7)

    def test_proof_bound_variant(self, example):
        statement = check_sy2(example, 4)
        proof = check_sy2(example, 4, bound_rule="proof")
        assert statement.per_clique[0].bound == 3  # ceil((6+3)/4)
        assert proof.per_clique[0].bound == 2  # ceil(6/4)

    def test_unknown_bound_rule(self, example):
        with pytest.raises(ValueError):
            check_sy2(example, 2, bound_rule="other")


class TestCountRecomputation:
    def test_counts_match_degree_profile(self, example):
        from efl.instance import degree_profile

        profile = degree_profile(example)
        for d in range(2, 7):
            report = check_sy2(example, d)
            for row in report.per_clique:
                members = example.clique(row.clique)
                expected = sum(1 for v in members if profile.degree_of[v] >= d)
                assert row.count == expected

    def test_sy1_counts_are_sy2_counts_at_two(self, corpus500):
        for inst in corpus500:
            sy1 = [r.count for r in check_sy1(inst).per_clique]
            assert sy1 == [r.count for r in check_sy2(inst, 2).per_clique]

    def test_one_immutable_table_per_instance(self, example):
        check_sy1(example)
        table = vars(example)["_degree_table"]
        assert isinstance(table, tuple) and all(isinstance(row, tuple) for row in table)
        check_sy2_all(example)
        check_sy2(example, 3, "proof")
        assert vars(example)["_degree_table"] is table


class TestCheckSy2All:
    def test_disjoint_holds(self):
        assert check_sy2_all(gen_disjoint(5)).holds

    def test_dense9_fails_at_two(self):
        report = check_sy2_all(gen_dense(9))
        assert not report.holds
        assert report.first_failing_d == 2
        assert report.per_clique[0].count == 8
        assert report.per_clique[0].bound == 5

    def test_example_holds(self, example):
        report = check_sy2_all(example)
        assert report.holds
        assert report.first_failing_d is None

    def test_unknown_bound_rule_raises_for_every_n(self):
        # n = 1 has no d in 2..n, and the rule was once checked only per d
        messages = []
        for inst in (Instance(1, [("a",)]), gen_dense(3)):
            with pytest.raises(ValueError) as raised:
                check_sy2_all(inst, "bogus")
            messages.append(str(raised.value))
        assert messages == ["unknown bound_rule 'bogus'"] * 2


class TestBehavioralClaims:
    # derandomized: a roaming counterexample to the sufficient conditions would
    # be a finding worth pinning, not a flake
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(inst=instances(max_n=8))
    def test_sy_conditions_guarantee_greedy_success(self, inst):
        # SY1, or SY2 under the proof rule ceil(n/d); the statement rule is
        # not enough (see TestStatementRuleGap)
        sy1 = check_sy1(inst)
        sy2 = check_sy2_all(inst, "proof")
        if sy1.holds or sy2.holds:
            result = run_greedy(inst)
            assert result.ok
            report = verify_proper(inst, result.coloring)
            assert report.proper and report.max_color <= inst.n

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(inst=instances(max_n=8))
    def test_statement_rule_guarantees_engine_success(self, inst):
        if check_sy2_all(inst).holds:
            result = run_matrix_method(inst)
            assert result.ok
            report = verify_proper(inst, result.coloring)
            assert report.proper and report.max_color <= inst.n
            assert is_n_colorable(inst)


class TestStatementRuleGap:
    """SY2 under the statement rule ceil((n+d-1)/d) holds, and greedy fails.

    On ``clique_pairs_cover(n, n/2 + 2)`` each of the first n/2 + 2 cliques
    holds n/2 + 1 degree-2 vertices: the statement bound at d = 2, one above
    the proof bound.  The paper's claim, n-colorability, stands: the engine
    colors every member.  What fails is reading the statement rule as a
    guarantee for the greedy.
    """

    def test_n6_fixture(self, sy2_statement_n6_file):
        inst = parse_instance(sy2_statement_n6_file.read_text())
        assert serialize_instance(inst) == serialize_instance(clique_pairs_cover(6, 5))
        assert check_sy2_all(inst).holds
        proof = check_sy2_all(inst, "proof")
        assert proof.first_failing_d == 2
        assert [(r.count, r.bound) for r in proof.per_clique] == [(4, 3)] * 5 + [(0, 3)]
        assert not check_sy1(inst).holds
        assert run_greedy(inst).reason == "no-color-available"
        result = run_matrix_method(inst)
        assert result.ok
        report = verify_proper(inst, result.coloring)
        assert report.proper and report.max_color <= inst.n
        assert chromatic_number_exact(core_subgraph(inst)) == 5

    # χ of the core L(K_m) from the closed form: m for odd m; the n = 14 core
    # is the dense(9) core, too slow for the exact search
    @pytest.mark.parametrize("n, chi", [(6, 5), (14, 9), (30, 17)])
    def test_family(self, n, chi):
        m = n // 2 + 2
        inst = clique_pairs_cover(n, m)
        assert inst.is_valid
        assert intersecting_pair_count(inst) == m * (m - 1) // 2
        assert check_sy2_all(inst).holds
        proof = check_sy2_all(inst, "proof")
        assert proof.first_failing_d == 2
        assert proof.per_clique[0].count == m - 1 == proof.per_clique[0].bound + 1
        assert not check_sy1(inst).holds
        assert run_greedy(inst).reason == "no-color-available"
        result = run_matrix_method(inst)
        assert result.ok
        report = verify_proper(inst, result.coloring)
        assert report.proper and report.max_color <= n
        core = core_subgraph(inst)
        assert len(core.vertices) == m * (m - 1) // 2
        assert chi == (m if m % 2 else m - 1) <= n
        assert is_n_colorable(inst, vertex_limit=len(core.vertices))
