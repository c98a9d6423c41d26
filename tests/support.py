"""Shared test machinery: independent oracles, the seeded corpus, strategies.

The oracles here deliberately ignore the library's own data paths: core edges
come from a direct pairwise incidence scan, properness from an all-pairs scan,
and chromatic numbers from plain fixed-order backtracking with no ordering
heuristics, bounds, or symmetry breaking beyond feasibility.  The random
generator's reference builds every candidate list in full before each draw
and draws from ``ReferenceSplitMix64``, the earlier stream that mixes one
output per call, not the library's blocks of lanes; the exact-χ reference is
the earlier set-based saturation search, and the properness reference is the
earlier sort-and-group :func:`verify_proper`.
``reference_search_setup``, ``reference_dsatur`` and
``reference_k_colorable`` are the exact oracle's earlier kernel, whose masks
index ``core.vertices`` and which walk the list of vertices in search order
to pick the next vertex.
``reference_token_ok`` is the parser's earlier per-character token rule,
``reference_shown`` the escaping of a refused header or token by code point,
``reference_parse_instance`` and ``reference_validate`` the parser and the
validator that checked every token and intersected every clique pair,
``reference_intersecting_pair_count`` the pair count that tested every clique
pair, and ``reference_check_sy2_all`` the SY2 conjunction that recounted each
d.
``clique_pairs_cover`` builds the covers on which the SY2 statement rule holds
and the greedy still fails.
``blocked_colors`` is the paper's "appears at least k-1 times in the row"
rule, read off a matrix, ``reference_block_matrix`` and
``reference_replay_trace`` the matrix builders that wrote each vertex's or
event's block through one block-write call, ``reference_owns_colors`` the fan plan's earlier
check over every colored core vertex, and ``reference_fan_path_plan`` the fan
plan with every guard it once carried.  ``reference_color_cover`` is the
coloring loop that tested every free color through a helper call, and
``reference_export_dot`` the DOT writer that built each node line and each
edge run as a line.
The engine references keep the earlier row form, one dict per clique from
each color owned there to its owner, written through ``reference_recolor``,
the earlier ``_recolor``; ``dict_rows`` turns the library's color-indexed
list rows into that form wherever a test compares the two.
``brute_core_split``, ``brute_degree_profile``, ``brute_check_sy1``,
``brute_check_sy2``, ``brute_theorem_identity`` and ``brute_core_subgraph``
read every entry of the incidence map, where the library reads the cached
split of an instance into core and private vertices.
``permissive_instances`` breaks valid covers by repeating a token inside a
clique or by giving a clique the wrong size.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from hypothesis import strategies as st

from efl.generators import (
    GenSpec,
    RandomBuildResult,
    build_random,
    gen_dense,
    gen_disjoint,
    gen_random,
)
from efl.errors import CoreSizeLimitError, IncompleteColoringError, ParseError
from efl.greedy import CliqueCount, HypothesisReport, check_sy2
from efl.instance import (
    CoreGraph,
    DegreeProfile,
    Instance,
    ValidationReport,
    VertexId,
    Violation,
    require_valid,
)
from efl.matrix_engine import (
    DISJOINT,
    REASON_BUDGET_EXHAUSTED,
    REASON_INTERNAL_VERIFICATION,
    REASON_NO_COLOR_AVAILABLE,
    REASON_STUCK_NO_REPAIR,
    UNASSIGNED,
    Assigned,
    BudgetExhausted,
    ColorMatrix,
    ColoringResult,
    RepairRecolored,
    RepairSkipped,
    TraceEvent,
    _bits,
    _least,
)
from efl.export import _dot_color
from efl.oracle import IdentityResult, VerifyReport, verify_proper


def brute_core_edges(inst: Instance) -> set[tuple[str, str]]:
    """Edges of the core graph straight from the definition."""
    inc = inst.incidence_map
    core = sorted(v for v, ix in inc.items() if len(ix) > 1)
    edges = set()
    for a in range(len(core)):
        for b in range(a + 1, len(core)):
            u, v = core[a], core[b]
            if set(inc[u]) & set(inc[v]):
                edges.add((u, v))
    return edges


def brute_core_split(
    inst: Instance,
) -> tuple[dict[str, tuple[int, ...]], tuple[tuple[str, ...], ...]]:
    """The core's incidence entries in map order, and each clique's
    degree-1 tokens in token order, from every entry of the incidence map."""
    inc = inst.incidence_map
    core = {}
    private: list[list[str]] = [[] for _ in range(inst.n)]
    for v in inc:
        if len(inc[v]) >= 2:
            core[v] = inc[v]
        else:
            private[inc[v][0] - 1].append(v)
    return core, tuple(tuple(sorted(p)) for p in private)


def brute_core_subgraph(inst: Instance) -> CoreGraph:
    """The core graph's vertices and incidence lists, filtered from the whole map."""
    require_valid(inst)
    inc = inst.incidence_map
    core = sorted(v for v in inc if len(inc[v]) >= 2)
    return CoreGraph(vertices=tuple(core), incidence={v: inc[v] for v in core})


def brute_degree_profile(inst: Instance) -> DegreeProfile:
    """Every vertex's clique degree and the histogram, counted one by one."""
    require_valid(inst)
    degree_of = {v: len(ix) for v, ix in inst.incidence_map.items()}
    histogram: dict[int, int] = {}
    for d in degree_of.values():
        histogram[d] = histogram.get(d, 0) + 1
    return DegreeProfile(
        degree_of=degree_of,
        histogram=dict(sorted(histogram.items())),
        max_degree=max(degree_of.values()),
    )


def _brute_per_clique(
    inst: Instance, min_degree: int, bound: int, parameter: str
) -> HypothesisReport:
    counts = [0] * inst.n
    for ix in inst.incidence_map.values():
        if len(ix) >= min_degree:
            for i in ix:
                counts[i - 1] += 1
    rows = tuple(CliqueCount(i, c, bound) for i, c in enumerate(counts, start=1))
    return HypothesisReport(per_clique=rows, parameter=parameter)


def brute_check_sy1(inst: Instance) -> HypothesisReport:
    """SY1 over every vertex: at most floor(sqrt(n)) of clique degree >= 2 per clique."""
    require_valid(inst)
    return _brute_per_clique(inst, 2, math.isqrt(inst.n), "sy1")


def brute_check_sy2(inst: Instance, d: int, bound_rule: str = "statement") -> HypothesisReport:
    """SY2 at d over every vertex, with the bound ceil((n+d-1)/d) or ceil(n/d)."""
    require_valid(inst)
    n = inst.n
    bound = math.ceil((n + d - 1) / d) if bound_rule == "statement" else math.ceil(n / d)
    return _brute_per_clique(inst, d, bound, f"sy2 d={d} ({bound_rule})")


def brute_theorem_identity(inst: Instance) -> IdentityResult:
    """C(d, 2) summed over every vertex, against the pairs of cliques that meet."""
    require_valid(inst)
    lhs = sum(math.comb(len(ix), 2) for ix in inst.incidence_map.values())
    rhs = reference_intersecting_pair_count(inst)
    return IdentityResult(lhs, rhs, rhs == math.comb(inst.n, 2))


def reference_token_ok(token: str) -> bool:
    """The earlier token rule of ``parse_instance``: non-empty, every
    character visible ASCII (0x21..0x7E)."""
    return len(token) > 0 and all(0x21 <= ord(ch) <= 0x7E for ch in token)


def reference_shown(text: str) -> str:
    """A header or token as the parser's messages quote it: printable ASCII
    (0x20..0x7E) as it is, tab, newline and carriage return as ``\\t``,
    ``\\n`` and ``\\r``, and every other character as ``\\x``, ``\\u`` or
    ``\\U`` and its code point in 2, 4 or 8 lower-case hex digits."""
    out = []
    for ch in text:
        cp = ord(ch)
        if 0x20 <= cp <= 0x7E:
            out.append(ch)
        elif ch in "\t\n\r":
            out.append("\\" + "tnr"["\t\n\r".index(ch)])
        elif cp < 0x100:
            out.append(f"\\x{cp:02x}")
        elif cp < 0x10000:
            out.append(f"\\u{cp:04x}")
        else:
            out.append(f"\\U{cp:08x}")
    return "".join(out)


def reference_validate(inst: Instance) -> ValidationReport:
    """:func:`efl.instance.validate` counting every token of every clique and
    intersecting all C(n, 2) clique pairs."""
    violations: list[Violation] = []
    n = inst.n
    for i, members in enumerate(inst.cliques, start=1):
        seen: dict[VertexId, int] = {}
        for t in members:
            seen[t] = seen.get(t, 0) + 1
        if len(seen) != n:
            violations.append(
                Violation(
                    kind="clique-size",
                    cliques=(i,),
                    message=f"clique {i} has {len(seen)} distinct vertices, expected {n}",
                )
            )
        for t, count in seen.items():
            if count > 1:
                violations.append(
                    Violation(
                        kind="duplicate-vertex",
                        cliques=(i,),
                        tokens=(t,),
                        message=f"clique {i} lists vertex '{t}' {count} times",
                    )
                )
    sets = tuple(frozenset(c) for c in inst.cliques)
    for i in range(n):
        for j in range(i + 1, n):
            shared = sets[i] & sets[j]
            if len(shared) >= 2:
                toks = tuple(sorted(shared))
                violations.append(
                    Violation(
                        kind="shared-pair",
                        cliques=(i + 1, j + 1),
                        tokens=toks,
                        message=(
                            f"cliques {i + 1},{j + 1} share {len(shared)} vertices "
                            f"({', '.join(toks)})"
                        ),
                    )
                )
    return ValidationReport(violations=tuple(violations))


def reference_intersecting_pair_count(inst: Instance) -> int:
    """:func:`efl.instance.intersecting_pair_count` testing all C(n, 2) clique
    pairs for a common vertex."""
    require_valid(inst)
    sets = tuple(frozenset(c) for c in inst.cliques)
    return sum(
        1
        for i in range(inst.n)
        for j in range(i + 1, inst.n)
        if not sets[i].isdisjoint(sets[j])
    )


def reference_parse_instance(text: str, *, require_validity: bool = True) -> Instance:
    """:func:`efl.instance.parse_instance` checking each token on its own, then
    validating with :func:`reference_validate`."""
    content: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r").strip()
        if not line or line.startswith("#"):
            continue
        content.append((lineno, line))

    if not content:
        raise ParseError("empty input: expected a clique count line")
    header_line, header = content[0]
    if not (header.isascii() and header.isdigit()):
        raise ParseError(
            f"line {header_line}: expected a decimal clique count, "
            f"got '{reference_shown(header)}'"
        )
    n = int(header)
    if n < 1:
        raise ParseError(f"line {header_line}: clique count must be positive, got {n}")

    body = content[1:]
    if len(body) != n:
        raise ParseError(f"expected {n} clique lines, found {len(body)}")

    cliques: list[tuple[str, ...]] = []
    for idx, (lineno, line) in enumerate(body, start=1):
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError(
                f"line {lineno}: clique {idx} has {len(tokens)} tokens, expected {n}"
            )
        seen: set[str] = set()
        for t in tokens:
            if not (t.isascii() and t.isprintable()):
                raise ParseError(
                    f"line {lineno}: invalid token '{reference_shown(t)}' in clique {idx}"
                )
            if t in seen:
                raise ParseError(f"line {lineno}: duplicate token '{t}' in clique {idx}")
            seen.add(t)
        cliques.append(tuple(tokens))

    inst = Instance(n, cliques)
    if require_validity:
        report = reference_validate(inst)
        if not report.ok:
            raise ParseError("; ".join(v.message for v in report.violations))
    return inst


def reference_check_sy2_all(inst: Instance, bound_rule: str = "statement") -> HypothesisReport:
    """:func:`efl.greedy.check_sy2_all` running :func:`efl.greedy.check_sy2`
    for each d = 2..n until one fails; an unknown rule raises for every n."""
    require_valid(inst)
    if bound_rule not in ("statement", "proof"):
        raise ValueError(f"unknown bound_rule '{bound_rule}'")
    parameter = f"sy2 all d in 2..{inst.n} ({bound_rule})"
    for d in range(2, inst.n + 1):
        report = check_sy2(inst, d, bound_rule)
        if not report.holds:
            return HypothesisReport(report.per_clique, parameter, first_failing_d=d)
    return HypothesisReport(per_clique=(), parameter=parameter)


def brute_is_proper(inst: Instance, coloring: dict[str, int]) -> bool:
    """All-pairs scan over every clique."""
    for members in inst.cliques:
        group = sorted(set(members))
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                if coloring[group[a]] == coloring[group[b]]:
                    return False
    return True


def blocked_colors(matrix: ColorMatrix, i: int, threshold: int) -> set[int]:
    """The paper's rule: the colors appearing at least ``threshold`` times in row i."""
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    counts: dict[int, int] = {}
    for x in matrix.row(i):
        if x > 0:
            counts[x] = counts.get(x, 0) + 1
    return {color for color, c in counts.items() if c >= threshold}


def reference_block_matrix(inst: Instance, core: dict[str, int]) -> ColorMatrix:
    """The earlier ``_block_matrix``: DISJOINT but for each shared vertex's
    block, written whole with its core color, or UNASSIGNED without one."""
    n = inst.n
    matrix = ColorMatrix(n, [[DISJOINT] * n for _ in range(n)])
    for v, ix in inst.core_incidence.items():
        matrix.set_block(ix, core.get(v, UNASSIGNED))
    return matrix


def reference_replay_trace(
    inst: Instance, events: Sequence[TraceEvent], start: ColorMatrix
) -> ColorMatrix:
    """The earlier :func:`efl.matrix_engine.replay_trace` on a trace the
    engine wrote: each write event's whole block, one event at a time."""
    matrix = start.copy()
    inc = inst.incidence_map
    for ev in events:
        if isinstance(ev, Assigned):
            matrix.set_block(inc[ev.vertex], ev.color)
        elif isinstance(ev, RepairRecolored):
            matrix.set_block(inc[ev.vertex], ev.new_color)
    return matrix


def dict_rows(rows: list[list[Optional[str]]]) -> list[dict[int, str]]:
    """The library's color-indexed list rows in the references' dict form:
    each row maps the colors it owns to their owners."""
    return [{c: w for c, w in enumerate(row) if w is not None} for row in rows]


def reference_recolor(
    rows: list[dict[int, str]],
    used: list[int],
    color: dict[str, int],
    inc: dict[str, tuple[int, ...]],
    v: str,
    x: int,
) -> None:
    """Give core vertex v color x in every row it meets.

    A row entry is dropped only while v still owns it: inside a path swap the
    vertex written just before v may already have taken over v's old color in
    the row they share.  ``used[i]`` keeps bit c set exactly while c is owned
    in row i.
    """
    old = color.get(v)
    for i in inc[v]:
        row = rows[i]
        if row.get(old) == v:
            del row[old]
            used[i] &= ~(1 << old)
        row[x] = v
        used[i] |= 1 << x
    color[v] = x


def reference_owns_colors(
    rows: list[dict[int, str]], color: dict[str, int], inc: dict[str, tuple[int, ...]]
) -> bool:
    """The fan plan's earlier closing check, over every colored core vertex:
    each still owns its color in each of its rows."""
    return all(rows[i].get(x) == v for v, x in color.items() for i in inc[v])


def reference_fan_path_plan(
    rows: list[dict[int, str]],
    used: list[int],
    color: dict[str, int],
    inc: dict[str, tuple[int, ...]],
    u: str,
    n: int,
) -> Optional[list[tuple[str, int]]]:
    """The fan-and-path plan as it stood with every guard in place.

    The library's plan must return exactly this plan, or None where this
    returns None, on every state whose row masks mirror its rows.
    """
    row_a, row_b = inc[u]
    work = [dict(r) for r in rows]
    work_used = list(used)
    work_color = dict(color)
    writes: list[tuple[str, int]] = []
    touched: list[str] = []
    full = ((1 << n) - 1) << 1

    def free(r: int) -> int:
        return full & ~work_used[r]

    def across(w: str, r: int) -> int:
        return inc[w][0] if inc[w][1] == r else inc[w][1]

    def write(v: str, x: int) -> None:
        # v and every vertex that owned x in one of v's rows before the write
        touched.append(v)
        touched.extend(work[i][x] for i in inc[v] if x in work[i])
        reference_recolor(work, work_used, work_color, inc, v, x)
        writes.append((v, x))

    # maximal fan from row_b: each next row is reached through a 2-clique
    # vertex of row_a (its spoke) whose color is free at the previous fan row
    fan = [row_b]
    spokes: list[str] = []
    while True:
        for cand in _bits(free(fan[-1])):
            w = work[row_a].get(cand)
            if w is None or len(inc[w]) != 2 or across(w, row_a) in fan:
                continue
            fan.append(across(w, row_a))
            spokes.append(w)
            break
        else:
            break

    free_a = free(row_a)
    free_last = free(fan[-1])
    if not free_a or not free_last:
        return None
    c = _least(free_a)
    d = _least(free_last)

    if not free_a >> d & 1:
        # read-only walk of the maximal c/d-alternating path from row_a,
        # then swap the two colors along it
        path: list[tuple[str, int]] = []
        r, expect = row_a, d
        while (w := work[r].get(expect)) is not None:
            if len(inc[w]) != 2 or len(path) > n:
                return None
            path.append((w, expect))
            r = across(w, r)
            expect = c if expect == d else d
        for w, had in path:
            write(w, c if had == d else d)

    target = next((idx for idx, f in enumerate(fan) if free(f) >> d & 1), None)
    if target is None:
        return None
    if target >= 1:
        members = spokes[:target]
        olds = [work_color[w] for w in members]
        # rotate the fan prefix in reverse so every intermediate state is proper
        if d in work[fan[target]] or d in work[row_a]:
            return None
        write(members[-1], d)
        for idx in range(target - 1, 0, -1):
            shifted = olds[idx]
            if shifted in work[fan[idx]] or shifted in work[row_a]:
                return None
            write(members[idx - 1], shifted)

    if not free(row_a) & free(row_b):
        return None
    # each vertex written or overwritten still owns its color in its rows
    if not all(work[i].get(work_color[v]) == v for v in touched for i in inc[v]):
        return None
    return writes


def _reference_free_mask(used: list[int], ix: Sequence[int], full: int) -> int:
    """Colors of ``full`` owned in none of the rows ``ix``, as a mask (bit c for color c)."""
    taken = 0
    for i in ix:
        taken |= used[i]
    return full & ~taken


def reference_color_cover(
    inst: Instance, repair_budget: Optional[int], trace: Optional[list[TraceEvent]]
) -> ColoringResult:
    """:func:`efl.matrix_engine.color_cover` testing each vertex's free colors
    through :func:`_reference_free_mask`, assigning through
    :func:`reference_recolor` and escalating through
    :func:`reference_fan_path_plan`, all on dict rows.

    The library loop must return the same colors, reason and trace events.
    """
    require_valid(inst)
    n = inst.n
    full = ((1 << n) - 1) << 1  # every color 1..n
    inc = {v: ix for v, ix in inst.incidence_map.items() if len(ix) > 1}
    rows: list[dict[int, str]] = [{} for _ in range(n + 1)]  # 1-based cliques
    used = [0] * (n + 1)  # used[i]: the colors owned in row i, as a mask
    by_rank = sorted(inc, key=inc.__getitem__)
    bit = {v: 1 << r for r, v in enumerate(by_rank)}
    members = [0] * (n + 1)  # members[i]: the ranks colored in row i, as a mask
    core: dict[str, int] = {}
    budget_used = 0
    tracing = trace is not None

    for u in sorted(inc, key=lambda v: (-len(inc[v]), inc[v])):
        ix_u = inc[u]
        neighbors = None
        while not (free_u := _reference_free_mask(used, ix_u, full)):
            if repair_budget is None:
                return ColoringResult(inst, core, REASON_NO_COLOR_AVAILABLE, trace)
            if neighbors is None:
                neighbors = 0
                for i in ix_u:
                    neighbors |= members[i]
                tried = blocked = 0
            plan = None
            below = -1  # the ranks below the chosen one; all while none is chosen
            todo = neighbors & ~(tried | blocked)
            while todo:
                low = todo & -todo
                v = by_rank[low.bit_length() - 1]
                free_v = _reference_free_mask(used, inc[v], full)
                if free_v:
                    tried |= low
                    plan = [(v, _least(free_v))]
                    below = low - 1
                    break
                blocked |= low
                todo ^= low
            if tracing:
                trace.extend(RepairSkipped(by_rank[r]) for r in _bits(blocked & below))
            if plan is None and len(ix_u) == 2:
                plan = reference_fan_path_plan(rows, used, core, inc, u, n)
            if not plan:
                return ColoringResult(inst, core, REASON_STUCK_NO_REPAIR, trace)
            if budget_used + len(plan) > repair_budget:
                if tracing:
                    trace.append(BudgetExhausted())
                return ColoringResult(inst, core, REASON_BUDGET_EXHAUSTED, trace)
            for v, x in plan:
                if tracing:
                    trace.append(RepairRecolored(v, core[v], x))
                reference_recolor(rows, used, core, inc, v, x)
                for i in inc[v]:
                    blocked &= ~members[i]
            budget_used += len(plan)
        x = _least(free_u)
        reference_recolor(rows, used, core, inc, u, x)
        for i in ix_u:
            members[i] |= bit[u]
        if tracing:
            trace.append(Assigned(u, x))

    total = dict(core)
    for i, clique in enumerate(inst.cliques, start=1):
        privates = sorted(v for v in clique if v not in inc)
        total.update(zip(privates, _bits(full & ~used[i])))
    report = verify_proper(inst, total)
    if not report.proper or report.max_color > n:
        return ColoringResult(inst, core, REASON_INTERNAL_VERIFICATION, trace)
    return ColoringResult(inst, total, None, trace)


def reference_export_dot(inst: Instance, coloring: Optional[Mapping[str, int]] = None) -> str:
    """:func:`efl.export.export_dot` building each node line and each edge
    run as one line and joining the lines; a token is quoted by escaping its
    quotes and backslashes one character at a time."""
    require_valid(inst)
    if coloring is not None:
        report = verify_proper(inst, dict(coloring))
        if not report.proper:
            first = report.conflicts[0]
            raise ValueError(
                f"refusing to export an improper coloring: clique {first[0]} "
                f"has '{first[1]}' and '{first[2]}' both colored {first[3]}"
            )
    quoted = {
        v: '"' + "".join("\\" + ch if ch in '"\\' else ch for ch in v) + '"'
        for v in inst.vertices
    }
    lines = ["graph cover {"]
    if coloring is None:
        lines.extend(f"  {q};" for q in quoted.values())
    else:
        lines.extend(
            f"  {q} [color=\"{_dot_color(coloring[v])}\", style=filled];"
            for v, q in quoted.items()
        )
    for clique in inst.cliques:
        group = [quoted[v] for v in sorted(clique)]
        for a in range(len(group) - 1):
            head = f"  {group[a]} -- "
            lines.append(head + (";\n" + head).join(group[a + 1 :]) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_verify_proper(inst: Instance, coloring: dict[str, int]) -> VerifyReport:
    """:func:`efl.oracle.verify_proper` sorting and grouping every clique.

    Conflicts list, clique by clique, every same-colored pair as
    (clique, u, v, color), by ascending color and then token.
    """
    missing = [v for v in inst.vertices if v not in coloring]
    if missing:
        raise IncompleteColoringError(
            f"coloring is missing {len(missing)} vertices, e.g. '{missing[0]}'"
        )
    conflicts: list[tuple[int, str, str, int]] = []
    for i, members in enumerate((frozenset(c) for c in inst.cliques), start=1):
        by_color: dict[int, list[str]] = {}
        for v in sorted(members):
            by_color.setdefault(coloring[v], []).append(v)
        for color, group in sorted(by_color.items()):
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    conflicts.append((i, group[a], group[b], color))
    used = {coloring[v] for v in inst.vertices}
    return VerifyReport(
        conflicts=tuple(conflicts),
        colors_used=len(used),
        max_color=max(used, default=0),
    )


def brute_k_colorable(order: list[str], adj: dict[str, set[str]], k: int) -> bool:
    """Fixed-order backtracking; tries every color 1..k at every vertex."""

    colors: dict[str, int] = {}

    def place(idx: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        for c in range(1, k + 1):
            if any(colors.get(u) == c for u in adj[v]):
                continue
            colors[v] = c
            if place(idx + 1):
                return True
            del colors[v]
        return False

    return place(0)


def brute_chromatic(order: list[str], adj: dict[str, set[str]]) -> int:
    """Least k admitting a proper coloring, found by ascending enumeration."""
    if not order:
        return 0
    for k in range(1, len(order) + 1):
        if brute_k_colorable(order, adj, k):
            return k
    raise AssertionError("unreachable: |V| colors always suffice")


def reference_chromatic(core: CoreGraph) -> int:
    """:func:`efl.oracle.chromatic_number_exact` on sets, without a vertex limit.

    k starts at a greedy clique's size and rises until a saturation-ordered
    search (saturation, then degree, then token; least color first; at most
    one fresh color per step) finds a proper k-coloring.
    """
    order = list(core.vertices)
    if not order:
        return 0
    adj = core.adjacency()
    clique: list[str] = []
    for v in sorted(order, key=lambda v: (-len(adj[v]), v)):
        if all(v in adj[u] for u in clique):
            clique.append(v)

    def k_colorable(k: int) -> bool:
        neighbor_colors: dict[str, set[int]] = {v: set() for v in order}
        uncolored = set(order)

        def step(used: int) -> bool:
            if not uncolored:
                return True
            v = min(
                uncolored,
                key=lambda u: (-len(neighbor_colors[u]), -len(adj[u]), u),
            )
            for c in range(1, min(k, used + 1) + 1):
                if c in neighbor_colors[v]:
                    continue
                uncolored.discard(v)
                touched = []
                for u in adj[v]:
                    if u in uncolored and c not in neighbor_colors[u]:
                        neighbor_colors[u].add(c)
                        touched.append(u)
                if step(max(used, c)):
                    return True
                for u in touched:
                    neighbor_colors[u].discard(c)
                uncolored.add(v)
            return False

        return step(0)

    k = len(clique)
    while not k_colorable(k):
        k += 1
    return k


def _reference_core_masks(core: CoreGraph) -> tuple[list[int], list[int]]:
    rows: dict[int, int] = {}
    for i, v in enumerate(core.vertices):
        for c in core.incidence[v]:
            rows[c] = rows.get(c, 0) | 1 << i
    adj = []
    for i, v in enumerate(core.vertices):
        mask = 0
        for c in core.incidence[v]:
            mask |= rows[c]
        adj.append(mask & ~(1 << i))
    return list(rows.values()), adj


def reference_search_setup(
    core: CoreGraph, vertex_limit: int
) -> tuple[list[int], list[int], tuple[int, ...]]:
    """The earlier set-up: masks with bit i for ``core.vertices[i]``, the
    search order ``by_degree`` (degree descending, then token) as indices,
    and the greedy clique, largest row and packing bounds."""
    if vertex_limit < 0:
        raise ValueError("vertex_limit must be at least 0")
    count = len(core.vertices)
    if count > vertex_limit:
        raise CoreSizeLimitError(
            f"core has {count} vertices, above the limit {vertex_limit}"
        )
    if not count:
        return [], [], ()
    rows, adj = _reference_core_masks(core)
    by_degree = sorted(range(count), key=lambda v: -adj[v].bit_count())
    clique = 0
    for v in by_degree:
        if adj[v] & clique == clique:
            clique |= 1 << v
    alpha = total = 0
    for d in sorted(len(core.incidence[v]) for v in core.vertices):
        total += d
        if total > len(rows):
            break
        alpha += 1
    bounds = (
        clique.bit_count(),
        max(row.bit_count() for row in rows),
        -(-count // alpha),
    )
    return adj, by_degree, bounds


def reference_dsatur(adj: list[int], by_degree: list[int]) -> list[int]:
    """The earlier DSATUR pass, which walked and shrank the list ``by_degree``
    to find the first vertex of the highest saturation level."""
    colors = [0] * len(adj)
    near = [0, 0]
    level = [0] * (len(adj) + 1)
    level[0] = uncolored = (1 << len(adj)) - 1
    order = list(by_degree)
    top = 0
    while order:
        while not level[top]:
            top -= 1
        for v in order:
            if level[top] >> v & 1:
                break
        order.remove(v)
        level[top] ^= 1 << v
        uncolored ^= 1 << v
        c = 1
        while near[c] >> v & 1:
            c += 1
        if c == len(near) - 1:
            near.append(0)
        colors[v] = c
        newly = adj[v] & uncolored & ~near[c]
        near[c] |= adj[v]
        s = top
        while newly:
            moved = level[s] & newly
            level[s] ^= moved
            level[s + 1] |= moved
            newly ^= moved
            s -= 1
        if level[top + 1]:
            top += 1
    return colors


def reference_k_colorable(adj: list[int], by_degree: list[int], k: int) -> bool:
    """The earlier search, which scanned all of ``by_degree`` for the next
    vertex and kept each vertex's neighbour colors as a mask and a count."""
    seen = [0] * len(adj)
    saturation = [0] * len(adj)

    def step(uncolored: int, used: int) -> bool:
        if not uncolored:
            return True
        best = -1
        v = 0
        for u in by_degree:
            if uncolored >> u & 1 and saturation[u] > best:
                v, best = u, saturation[u]
        uncolored ^= 1 << v
        free = ~seen[v] & ((2 << min(k, used + 1)) - 2)
        while free:
            bit = free & -free
            free ^= bit
            touched = []
            rest = adj[v] & uncolored
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                if not seen[u] & bit:
                    seen[u] |= bit
                    saturation[u] += 1
                    touched.append(u)
            if step(uncolored, max(used, bit.bit_length() - 1)):
                return True
            for u in touched:
                seen[u] ^= bit
                saturation[u] -= 1
        return False

    return step((1 << len(adj)) - 1, 0)


_MASK64 = (1 << 64) - 1


class ReferenceSplitMix64:
    """SplitMix64 stream; the 64-bit seed is the entire generator state.

    ``below`` is the one mixing routine, so a draw in a hot loop is a single
    call; ``next_u64`` is ``below(2**64)``, the raw 64-bit output.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            # masking to 64 bits would alias the seed with one in range
            raise ValueError(f"seed must lie in 0..2^64-1, got {seed}")
        self._state = seed

    def next_u64(self) -> int:
        return self.below(1 << 64)

    def below(self, bound: int) -> int:
        """Advance and return the next output mod bound; modulo bias is irrelevant."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        self._state = z = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) % bound


def reference_build_random(spec: GenSpec) -> RandomBuildResult:
    """:func:`efl.generators.build_random` with every candidate list built in full.

    Merge candidates are the clique pairs (i, j), i < j, both with a private
    vertex, that do not meet; extension candidates are the pairs (v, c), v a
    shared vertex in sorted order, c a clique with a private vertex that meets
    none of v's cliques.  Each draw indexes the list, so the library must pick
    the same move from the same SplitMix64 stream, here the scalar
    :class:`ReferenceSplitMix64`.
    """
    n = spec.n
    rng = ReferenceSplitMix64(spec.seed)
    cliques = [[f"v{i}_{j}" for j in range(1, n + 1)] for i in range(1, n + 1)]
    private: list[list[str]] = [[]] + [sorted(members) for members in cliques]
    meets: list[set[int]] = [set() for _ in range(n + 1)]
    incidence: dict[str, set[int]] = {}  # shared vertices only

    def put(c: int, old: str, new: str) -> None:
        members = cliques[c - 1]
        members[members.index(old)] = new
        private[c].remove(old)
        owners = incidence.setdefault(new, set())
        for k in owners:
            meets[k].add(c)
            meets[c].add(k)
        owners.add(c)

    merges_done = 0
    extensions_done = 0
    while merges_done < spec.merges:
        candidates = [
            (i, j)
            for i in range(1, n + 1)
            if private[i]
            for j in range(i + 1, n + 1)
            if private[j] and j not in meets[i]
        ]
        if not candidates:
            break
        i, j = candidates[rng.below(len(candidates))]
        a = private[i][rng.below(len(private[i]))]
        b = private[j][rng.below(len(private[j]))]
        merges_done += 1
        fresh = f"m{merges_done}"
        put(i, a, fresh)
        put(j, b, fresh)

        if rng.below(100) < spec.extension_percent:
            ext_candidates = [
                (v, c)
                for v in sorted(incidence)
                for c in range(1, n + 1)
                if private[c] and incidence[v].isdisjoint(meets[c])
            ]
            if ext_candidates:
                v, c = ext_candidates[rng.below(len(ext_candidates))]
                put(c, private[c][rng.below(len(private[c]))], v)
                extensions_done += 1

    return RandomBuildResult(
        instance=Instance(n, [tuple(c) for c in cliques]),
        merges_done=merges_done,
        extensions_done=extensions_done,
    )


def clique_pairs_cover(n: int, m: int) -> Instance:
    """n cliques of order n where each pair of the first m meets in its own
    degree-2 vertex ``b<i>_<j>``; every other vertex is private, ``p<i>_<k>``.

    The core is the line graph of K_m, so χ = m for odd m and m - 1 for even
    m.  With m = n/2 + 2 and n even, the SY2 statement rule holds at its d = 2
    bound n/2 + 1 and the proof rule, bound n/2, fails; the greedy fails at
    n = 6, 14 and 30.
    """
    cliques = []
    for i in range(1, n + 1):
        members = [f"b{min(i, j)}_{max(i, j)}" for j in range(1, m + 1) if j != i and i <= m]
        members += [f"p{i}_{k}" for k in range(1, n - len(members) + 1)]
        cliques.append(tuple(members))
    return Instance(n, cliques)


def corpus_specs(count: int = 500) -> list[GenSpec]:
    """Generator parameters of the seeded corpus: n in 3..10, extension 20 %."""
    out = []
    for i in range(count):
        n = 3 + i % 8
        merges = (7 * i + 3) % (n * (n - 1) // 2 + 1)
        out.append(GenSpec(kind="random", n=n, seed=100000 + i, merges=merges))
    return out


def random_corpus(count: int = 500) -> list[Instance]:
    """The seeded 500-instance corpus used across the suite."""
    return [build_random(spec).instance for spec in corpus_specs(count)]


@st.composite
def instances(draw, max_n: int = 8) -> Instance:
    """Arbitrary valid instances: disjoint, dense, or seeded random covers."""
    kind = draw(st.sampled_from(["disjoint", "dense", "random", "random"]))
    if kind == "disjoint":
        return gen_disjoint(draw(st.integers(min_value=1, max_value=max_n)))
    n = draw(st.integers(min_value=2, max_value=max_n))
    if kind == "dense":
        return gen_dense(n)
    merges = draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    percent = draw(st.sampled_from([0, 20, 50]))
    return gen_random(n, merges, seed, extension_percent=percent)


@st.composite
def permissive_instances(draw, max_n: int = 8) -> Instance:
    """A valid cover broken in one clique: a member replaced by a repeat of
    another, a member dropped, or a token added, fresh or already in the
    cover.  Each leaves that clique with a repeated token or the wrong
    number of distinct tokens, so the result never validates."""
    inst = draw(instances(max_n))
    cliques = [list(c) for c in inst.cliques]
    i = draw(st.integers(min_value=0, max_value=inst.n - 1))
    members = cliques[i]
    kinds = ["drop", "add"] + (["repeat"] if len(members) >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "repeat":
        positions = st.integers(0, len(members) - 1)
        a, b = draw(st.lists(positions, min_size=2, max_size=2, unique=True))
        members[a] = members[b]
    elif kind == "drop":
        del members[draw(st.integers(0, len(members) - 1))]
    else:
        token = draw(st.sampled_from(["fresh", *inst.vertices]))
        members.insert(draw(st.integers(0, len(members))), token)
    return Instance(inst.n, cliques)
