"""Parsing, validation and the SY2 conjunction against their reference copies.

``tests/support.py`` keeps the parser that checked every token on its own, the
validator that intersected all C(n, 2) clique pairs, and the SY2 loop that
recounted each d.  The library must give the same instances, the same
``ParseError`` texts, and equal ``ValidationReport``s and ``HypothesisReport``s,
on permissive covers as well as legal ones.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efl.errors import EflError, ParseError
from efl.generators import gen_dense, gen_disjoint
from efl.greedy import check_sy2_all
from efl.instance import Instance, parse_instance, validate
from support import (
    instances,
    reference_check_sy2_all,
    reference_parse_instance,
    reference_validate,
)


def _outcome(fn, *args, **kwargs):
    """The value, or the type and text of the error raised."""
    try:
        return ("value", fn(*args, **kwargs))
    except (EflError, ValueError) as err:
        return ("error", type(err).__name__, str(err))


@st.composite
def raw_covers(draw, max_n: int = 6) -> Instance:
    """n cliques of any size over a small alphabet: wrong sizes, repeated
    tokens, and pairs sharing two or more vertices are all common."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    alphabet = [f"t{k}" for k in range(draw(st.integers(min_value=1, max_value=2 * n + 2)))]
    cliques = draw(
        st.lists(
            st.lists(st.sampled_from(alphabet), min_size=0, max_size=n + 2),
            min_size=n,
            max_size=n,
        )
    )
    return Instance(n, cliques)


@st.composite
def mutated_covers(draw, max_n: int = 7) -> Instance:
    """A legal cover with a few edits: a token dropped, a token repeated, or
    one or two tokens of one clique copied over tokens of another."""
    inst = draw(instances(max_n=max_n))
    cliques = [list(c) for c in inst.cliques]
    n = inst.n
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "copy", "copy"]))
        if edit == "drop" and cliques[a]:
            del cliques[a][draw(st.integers(min_value=0, max_value=len(cliques[a]) - 1))]
        elif edit == "repeat" and cliques[a]:
            cliques[a].append(draw(st.sampled_from(cliques[a])))
        elif edit == "copy" and n > 1:
            b = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != a))
            k = draw(st.integers(min_value=1, max_value=2))
            for t in cliques[a][:k]:
                if cliques[b] and t not in cliques[b]:
                    pos = draw(st.integers(min_value=0, max_value=len(cliques[b]) - 1))
                    cliques[b][pos] = t
    return Instance(n, cliques)


# visible ASCII, non-ASCII (printable or not), and ASCII control tokens
_TOKENS = ["a", "b", "c", "v1", "ok~", "\u00e9", "\u0662", "a\x01", "\x7f", "x\x00y", "\u200b"]


@st.composite
def efl_texts(draw, max_n: int = 4) -> str:
    """.efl text whose clique lines mix good, non-ASCII, non-printable and
    repeated tokens; now and then a line has the wrong token count."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    token = st.one_of(
        st.sampled_from(_TOKENS[:5]),
        st.sampled_from(_TOKENS),
        st.text(min_size=1, max_size=3),
    )
    lines = [str(n)]
    for _ in range(n):
        k = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
        lines.append(" ".join(draw(st.lists(token, min_size=k, max_size=k))))
    return "\n".join(lines) + "\n"


class TestValidateReference:
    @settings(max_examples=300, deadline=None)
    @given(inst=raw_covers())
    @example(inst=Instance(3, [("a", "b"), ("a", "b", "c", "d"), ("e", "f", "g")]))
    @example(inst=Instance(3, [("a", "a", "b"), ("c", "c", "c"), ("d", "e", "f")]))
    @example(inst=Instance(3, [("a", "b", "c"), ("a", "b", "c"), ("a", "b", "d")]))
    def test_raw_covers(self, inst):
        assert validate(inst) == reference_validate(inst)

    @settings(max_examples=300, deadline=None)
    @given(inst=mutated_covers())
    def test_mutated_legal_covers(self, inst):
        assert validate(inst) == reference_validate(inst)

    @settings(max_examples=60, deadline=None)
    @given(inst=instances(max_n=10))
    def test_legal_covers(self, inst):
        report = validate(inst)
        assert report.ok
        assert report == reference_validate(inst)


class TestParseReference:
    @pytest.mark.parametrize(
        "line",
        [
            "a a \x01",
            "\x01 a a",
            "a a \u00e9",
            "\u00e9 a a",
            "\u00e9 \u00e9 a",
            "a \x7f \x7f",
        ],
    )
    def test_bad_and_repeated_tokens_in_either_order(self, line):
        text = f"3\n{line}\nb c d\ne f g\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        with pytest.raises(ParseError) as ref:
            reference_parse_instance(text)
        assert str(err.value) == str(ref.value)

    @settings(max_examples=400, deadline=None)
    @given(text=efl_texts(), require_validity=st.booleans())
    def test_generated_texts(self, text, require_validity):
        assert _outcome(parse_instance, text, require_validity=require_validity) == _outcome(
            reference_parse_instance, text, require_validity=require_validity
        )

    @settings(max_examples=200, deadline=None)
    @given(inst=st.one_of(raw_covers(), mutated_covers()))
    def test_serialized_permissive_covers(self, inst):
        # every token is visible ASCII, so the grammar passes exactly when
        # each clique has n distinct tokens, and validity decides the rest
        text = f"{inst.n}\n" + "".join(" ".join(c) + "\n" for c in inst.cliques)
        assert _outcome(parse_instance, text) == _outcome(reference_parse_instance, text)


class TestSy2AllReference:
    @pytest.mark.parametrize("rule", ["statement", "proof", "unknown"])
    def test_corpus(self, corpus500, rule):
        for inst in corpus500[:200] + [gen_dense(n) for n in range(2, 12)]:
            assert _outcome(check_sy2_all, inst, rule) == _outcome(
                reference_check_sy2_all, inst, rule
            )

    @settings(max_examples=100, deadline=None)
    @given(inst=instances(max_n=10), rule=st.sampled_from(["statement", "proof", "unknown"]))
    def test_generated_covers(self, inst, rule):
        assert _outcome(check_sy2_all, inst, rule) == _outcome(
            reference_check_sy2_all, inst, rule
        )

    def test_unknown_rule_at_one_clique_raises(self):
        # n = 1 has no d in 2..n; the rule is checked before the first d
        outcome = _outcome(check_sy2_all, gen_disjoint(1), "unknown")
        assert outcome == _outcome(reference_check_sy2_all, gen_disjoint(1), "unknown")
        assert outcome == ("error", "ValueError", "unknown bound_rule 'unknown'")

    def test_invalid_cover_rejected_alike(self):
        inst = Instance(1, [("a", "a")])
        assert _outcome(check_sy2_all, inst) == _outcome(reference_check_sy2_all, inst)
        assert _outcome(check_sy2_all, inst)[1] == "InvalidInstanceError"
