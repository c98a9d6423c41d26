"""Serialization and export: ``.efl`` text, coloring listings, DOT graphs."""

from __future__ import annotations

from typing import Mapping, Optional

from .instance import Instance, require_valid
from .oracle import verify_proper

# DOT palette for the first six colors; higher colors fall back to their index.
DOT_COLOR_NAMES = {1: "maroon", 2: "tan", 3: "green", 4: "red", 5: "blue", 6: "cyan"}

_VISIBLE = bytes(range(0x21, 0x7F))  # the visible ASCII characters, space excluded


def _unwritable_token(cliques: tuple[tuple[str, ...], ...]) -> Optional[str]:
    """The message naming the first empty clique or token that ``.efl`` text
    cannot carry, or None when every clique can be written."""
    for idx, members in enumerate(cliques, start=1):
        if not members:
            return f"clique {idx} is empty, which .efl text cannot hold"
        for pos, t in enumerate(members):
            if not t:
                return f"clique {idx} has an empty token, which .efl text cannot hold"
            if not (t.isascii() and t.isprintable()) or " " in t:
                return f"clique {idx}: token {t!r} is not visible ASCII"
            if pos == 0 and t.startswith("#"):
                return (
                    f"clique {idx}: first token {t!r} starts with '#'"
                    " and would read as a comment"
                )
    return None


def serialize_instance(inst: Instance) -> str:
    """Inverse of parsing: header line, then one clique per line, LF only.

    Raises ``ValueError`` naming the clique and token when :func:`parse_instance`
    could not read the text back: an empty clique (its blank line would be
    skipped), a token that is empty or not visible ASCII (a space would split
    it), or a line's first token starting with ``#`` (the line would read as a
    comment).  A few C-level checks on the joined lines let a cover through;
    only when one of them fails is each token looked at, to name the first
    one that cannot be written.
    """
    cliques = inst.cliques
    lines = [str(inst.n)]
    lines.extend(" ".join(c) for c in cliques)
    # the header and the lines joined on single spaces.  No token holds a
    # space or an invisible character exactly when deleting the visible ones
    # leaves one space per token; an empty token or clique then shows as two
    # spaces in a row or a trailing one.  Any "#" sends the cover to the token
    # walk.
    spaced = " ".join(lines)
    if (
        not spaced.isascii()
        or spaced.encode().translate(None, _VISIBLE) != b" " * sum(map(len, cliques))
        or "  " in spaced
        or spaced.endswith(" ")
        or "#" in spaced
    ) and (problem := _unwritable_token(cliques)) is not None:
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
    is gathered as pieces in one list and joined once: a node line each, and
    for each run of edges from one vertex its head, the edges joined on
    ``";\\n" + head``, and the closing ``";\\n"``.
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
    parts = ["graph cover {\n"]
    if coloring is None:
        parts.extend(f"  {q};\n" for q in quoted.values())
    else:
        parts.extend(
            f"  {q} [color=\"{_dot_color(coloring[v])}\", style=filled];\n"
            for v, q in quoted.items()
        )
    # a valid cover is linear and repeats no token, so each vertex pair lies
    # in at most one clique and no edge is written twice; the edges from one
    # vertex to the later members of its clique form one run of lines
    for members in inst.cliques:
        group = [quoted[v] for v in sorted(members)]
        for a in range(len(group) - 1):
            head = f"  {group[a]} -- "
            parts += (head, (";\n" + head).join(group[a + 1 :]), ";\n")
    parts.append("}\n")
    return "".join(parts)
