from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efl.errors import ParseError
from efl.export import export_coloring, export_dot, serialize_instance
from efl.generators import gen_disjoint
from efl.instance import Instance, parse_instance
from efl.matrix_engine import EngineConfig, run_matrix_method
from support import instances, reference_token_ok


@st.composite
def token_covers(draw) -> Instance:
    """n cliques of n distinct tokens each, the tokens drawn from letters and
    characters that ``.efl`` text cannot carry everywhere."""
    n = draw(st.integers(1, 3))
    token = st.text(alphabet="ab# \t\x7f\u00e9", max_size=3)
    return Instance(
        n, [draw(st.lists(token, min_size=n, max_size=n, unique=True)) for _ in range(n)]
    )


@st.composite
def sized_covers(draw) -> Instance:
    """n cliques of n - 1, n or n + 1 tokens each, repeats allowed, the tokens
    drawn from letters, ``#`` and characters that are not visible ASCII.  No
    token is empty or holds whitespace, so a clique's tokens joined on spaces
    read back as that clique unless the line is blank or starts with ``#``."""
    n = draw(st.integers(1, 3))
    token = st.text(alphabet="ab#\x7f\u00e9", min_size=1, max_size=2)
    return Instance(
        n, [draw(st.lists(token, min_size=n - 1, max_size=n + 1)) for _ in range(n)]
    )


class TestSerialize:
    def test_round_trip_example(self, example):
        assert parse_instance(serialize_instance(example)) == example

    def test_format(self):
        text = serialize_instance(gen_disjoint(2))
        assert text == "2\nv1_1 v1_2\nv2_1 v2_2\n"

    @settings(max_examples=80)
    @given(inst=instances())
    def test_round_trip_property(self, inst):
        assert parse_instance(serialize_instance(inst)) == inst

    def test_round_trip_over_corpus(self, corpus500):
        for inst in corpus500:
            assert parse_instance(serialize_instance(inst)) == inst

    @pytest.mark.parametrize(
        "cliques, message",
        [
            ([("#a", "b"), ("c", "d")], "first token '#a' in clique 1 starts a comment"),
            ([("a", "b"), ("c d", "e")], "invalid token 'c d' in clique 2"),
            ([("a", "b"), ("c", "")], "invalid token '' in clique 2"),
            ([("a", "\u00e9"), ("c", "d")], r"invalid token '\xe9' in clique 1"),
            ([("a", "b"), ("c\td", "e")], r"invalid token 'c\td' in clique 2"),
            ([("a", "b\x7f"), ("c", "d")], r"invalid token 'b\x7f' in clique 1"),
        ],
        ids=["hash-first", "space", "empty-token", "non-ascii", "tab", "delete"],
    )
    def test_unwritable_token_refused(self, cliques, message):
        # each of these would parse as something else or not at all; the
        # first one is a valid cover whose first line would read as a comment
        inst = Instance(2, cliques)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            serialize_instance(inst)

    @pytest.mark.parametrize(
        "n, cliques, idx", [(1, [()], 1), (2, [("a", "b"), ()], 2), (2, [(), ("a", "")], 1)]
    )
    def test_empty_clique_refused(self, n, cliques, idx):
        # its line would be blank, and parsing skips blank lines
        with pytest.raises(ValueError, match=f"^clique {idx} has 0 tokens, expected {n}$"):
            serialize_instance(Instance(n, cliques))

    def test_hash_inside_or_later_is_written(self):
        inst = Instance(2, [("a#", "#b"), ("c", "d")])
        assert serialize_instance(inst) == "2\na# #b\nc d\n"
        assert parse_instance(serialize_instance(inst)) == inst

    @settings(max_examples=300, deadline=None)
    @given(inst=token_covers())
    def test_written_text_reads_back(self, inst):
        tokens = [t for c in inst.cliques for t in c]
        writable = all(map(reference_token_ok, tokens)) and not any(
            c[0].startswith("#") for c in inst.cliques
        )
        if not writable:
            with pytest.raises(ValueError):
                serialize_instance(inst)
            return
        assert parse_instance(serialize_instance(inst), require_validity=False) == inst

    @settings(max_examples=300, deadline=None)
    @given(inst=sized_covers())
    def test_writer_refuses_what_the_reader_refuses(self, inst):
        try:
            written, refused = serialize_instance(inst), None
        except ValueError as err:
            written, refused = None, str(err)
        if any(not c or c[0].startswith("#") for c in inst.cliques):
            # the naive line would be blank or a comment, which parsing skips
            assert refused is not None
            return
        naive = "\n".join([str(inst.n), *map(" ".join, inst.cliques)]) + "\n"
        try:
            read = parse_instance(naive, require_validity=False)
        except ParseError as err:
            assert refused == re.sub(r"^line \d+: ", "", str(err))
        else:
            assert refused is None and written == naive and read == inst


class TestExportColoring:
    def test_example_coloring_lines(self, example):
        result = run_matrix_method(example)
        text = export_coloring(result.coloring, example.n)
        lines = text.split("\n")
        assert lines[0] == "6"
        assert "v1 1" in lines
        assert "v16 2" in lines
        assert text.endswith("\n")
        body = lines[1:-1]
        assert body == sorted(body, key=lambda s: s.split()[0])

    def test_each_color_printed_as_given(self):
        # 7 and 7.0, or 1 and True, are equal colors that print differently
        coloring = {"d": 7.0, "c": 7, "b": True, "a": 1, 'q"': 2, "s\\": 2.0}
        assert export_coloring(coloring, 2) == '2\na 1\nb True\nc 7\nd 7.0\nq" 2\ns\\ 2.0\n'


class TestExportDot:
    def test_disjoint_two(self):
        text = export_dot(gen_disjoint(2))
        lines = text.strip().split("\n")
        vertex_lines = [l for l in lines if l.endswith(";") and "--" not in l]
        edge_lines = [l for l in lines if "--" in l]
        assert len(vertex_lines) == 4
        assert len(edge_lines) == 2  # one edge per 2-clique

    def test_color_names(self, example):
        result = run_matrix_method(example)
        text = export_dot(example, result.coloring)
        assert 'color="maroon"' in text
        assert 'color="tan"' in text
        assert 'color="cyan"' in text

    def test_numeric_fallback_beyond_six(self):
        inst = gen_disjoint(7)
        coloring = {}
        for i in range(1, 8):
            for j, v in enumerate(inst.clique(i)):
                coloring[v] = j + 1
        text = export_dot(inst, coloring)
        assert 'color="7"' in text

    def test_rejects_improper(self, example):
        constant = {v: 1 for v in example.vertices}
        with pytest.raises(ValueError, match="improper"):
            export_dot(example, constant)

    def test_quote_and_backslash_escaped(self):
        inst = parse_instance('2\na"b c\nd e\\\n')
        assert export_dot(inst).split("\n") == [
            "graph cover {",
            '  "a\\"b";',
            '  "c";',
            '  "d";',
            '  "e\\\\";',
            '  "a\\"b" -- "c";',
            '  "d" -- "e\\\\";',
            "}",
            "",
        ]
        colored = export_dot(inst, {'a"b': 1, "c": 2, "d": 1, "e\\": 2})
        assert '  "a\\"b" [color="maroon", style=filled];\n' in colored
        assert '  "e\\\\" [color="tan", style=filled];\n' in colored
        for text in (export_dot(inst), colored):
            # every quote outside a quoted ID opens one that closes before the
            # line ends, and what is left holds no quote
            for line in text.split("\n"):
                assert '"' not in re.sub(r'"(?:[^"\\]|\\.)*"', "", line)

    def test_deterministic(self, example):
        result = run_matrix_method(example)
        assert export_dot(example, result.coloring) == export_dot(example, result.coloring)


def test_engine_trace_not_needed_for_serialization(example):
    # serialization is independent of whether the run kept a trace
    with_trace = run_matrix_method(example, EngineConfig(trace_enabled=True))
    without = run_matrix_method(example)
    assert with_trace.coloring == without.coloring
