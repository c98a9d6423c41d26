"""Serialization and export: ``.efl`` text, coloring listings, DOT graphs."""

from __future__ import annotations

from typing import Mapping, Optional

from .instance import Instance, _clique_error, require_valid
from .oracle import verify_proper

# DOT palette for the first six colors; higher colors fall back to their index.
DOT_COLOR_NAMES = {1: "maroon", 2: "tan", 3: "green", 4: "red", 5: "blue", 6: "cyan"}

_VISIBLE = bytes(range(0x21, 0x7F))  # the visible ASCII characters, space excluded


def serialize_instance(inst: Instance) -> str:
    """Inverse of parsing: header line, then one clique per line, LF only.

    Raises ``ValueError`` with the message of the clique-line rule
    (:func:`efl.instance._clique_error`), naming the first clique and token
    that break it, exactly when :func:`parse_instance` could not read the
    text back.  A few C-level checks on the joined lines let a cover
    through; only when one of them fails are the cliques put to the rule.
    """
    n = inst.n
    cliques = inst.cliques
    lines = [str(n)]
    lines.extend(" ".join(c) for c in cliques)
    # the header and the lines joined on single spaces.  When every clique
    # holds n distinct tokens, each has n tokens or more, one separating
    # space per token, so deleting the visible characters leaves n * n
    # spaces exactly when each clique has n tokens and no token holds a
    # space or an invisible character; an empty token then shows as two
    # spaces in a row or a trailing one.  Any "#" sends the cover to the rule.
    spaced = " ".join(lines)
    if not (
        spaced.isascii()
        and spaced.encode().translate(None, _VISIBLE) == b" " * (n * n)
        and set(map(len, map(set, cliques))) == {n}
        and "  " not in spaced
        and not spaced.endswith(" ")
        and "#" not in spaced
    ):
        for idx, members in enumerate(cliques, start=1):
            if (problem := _clique_error(members, n, idx)) is not None:
                raise ValueError(problem)
    return "\n".join(lines) + "\n"


def export_coloring(coloring: Mapping[str, int], n: int) -> str:
    """Stable text form: first line n, then 'vertex color' sorted by token."""
    lines = [str(n)]
    lines.extend(f"{v} {coloring[v]}" for v in sorted(coloring))
    return "\n".join(lines) + "\n"


def _dot_color(color: int) -> str:
    return DOT_COLOR_NAMES.get(color, str(color))


def _dot_id(token: str) -> str:
    """A token as a quoted DOT ID.

    Inside the quotes ``\\"`` is an escaped quote and ``\\\\`` keeps a backslash
    from escaping the closing quote, so backslashes are doubled first and
    quotes escaped next; a token with neither is only quoted.  So any
    visible ASCII token gives a well-formed ID.
    """
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(inst: Instance, coloring: Optional[Mapping[str, int]] = None) -> str:
    """DOT text: every vertex once, every clique as its full edge set.

    With a coloring each node carries a ``color`` attribute (named for colors
    1..6, numeric beyond).  The coloring must be total and proper.  The text
    is gathered as pieces in one list and joined once: the node lines,
    themselves joined once into one piece, and for each run of edges from one
    vertex its head, the edges joined on ``";\\n" + head``, and the closing
    ``";\\n"``.
    """
    require_valid(inst)
    if coloring is not None:
        report = verify_proper(inst, coloring)
        if not report.proper:
            first = report.conflicts[0]
            raise ValueError(
                f"refusing to export an improper coloring: clique {first[0]} "
                f"has '{first[1]}' and '{first[2]}' both colored {first[3]}"
            )
    quoted = {v: _dot_id(v) for v in inst.vertices}
    if coloring is None:
        nodes = [f"  {q};\n" for q in quoted.values()]
    else:
        nodes = [
            f"  {q} [color=\"{_dot_color(coloring[v])}\", style=filled];\n"
            for v, q in quoted.items()
        ]
    parts = ["graph cover {\n", "".join(nodes)]
    # a valid cover is linear and repeats no token, so each vertex pair lies
    # in at most one clique and no edge is written twice; the edges from one
    # vertex to the later members of its clique form one run of lines
    for members in inst.cliques:
        group = list(map(quoted.__getitem__, sorted(members)))
        for a in range(len(group) - 1):
            head = f"  {group[a]} -- "
            parts += (head, (";\n" + head).join(group[a + 1 :]), ";\n")
    parts.append("}\n")
    return "".join(parts)
