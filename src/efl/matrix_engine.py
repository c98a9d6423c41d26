"""The intersection-matrix coloring method.

The method's picture is a symmetric n-by-n matrix over clique pairs: a cell is
DISJOINT when the two cliques miss each other (and on the diagonal), UNASSIGNED
while their shared vertex has no color yet, and otherwise carries that color.
Core vertices are processed in non-increasing clique degree; a degree-k vertex
receives the least color that does not already appear at least k-1 times in any
of its incident rows, written into every cell of its block.

The engine keeps that matrix implicitly as per-row color ownership:
``rows[i]`` is a list of n+1 slots indexed by color, ``rows[i][c]`` the core
vertex colored c in clique i or None (slot 0 is always None), and the int
mask ``used[i]`` has bit c set exactly while color c is owned in row i.  The
colors free for a vertex are ``full & ~(used[a] | used[b] | ...)`` over its
rows, and the least of them is the lowest set bit.  Every core vertex meets
at least two rows, so each incidence tuple is split once per instance
(``Instance._core_order``) into its first two rows a, b and the rest, empty
for a vertex in two cliques, and every free-color test ORs
``used[a] | used[b]`` and then the rest only when there is one.  A colored
vertex w of clique degree d fills d-1 cells of each of its rows, and under
the non-increasing order every colored vertex has degree at least k when a
degree-k vertex is placed.  So every color present in a row already appears
at least k-1 times there, and the paper's threshold test equals "color owned
in the row".  The tests keep the paper's form as a reference to compare
against, and a result's final matrix is derived from its coloring on each
read.

When all n colors are blocked, a repair pass recolors previously placed
vertices to free one.  Plain one-vertex recolors alone provably cannot finish
tight instances (on the dense family the deterministic least-color choice ends
up flipping a single vertex back and forth), so the repair escalates: first the
scan of single legal recolors, then, for a stuck vertex shared by exactly two
cliques, a fan-and-alternating-path recoloring in the style of the constructive
proof of Vizing's theorem, planned on a copy of the row state and kept only
when every row stays conflict-free.  Each stage only plans a list of writes;
one commit step charges every write against a budget, records it and
applies it through ``_recolor``, which releases a row slot only while the
written vertex still owns it and through which the fan plan also writes its
scratch copy.  The scan is memoized per stuck episode: an owner found fully
blocked is not tested again until a commit writes into one of its rows, and
its ``SKIP`` events are still those of a scan restarted after every commit.
Trace events are built only when a trace is asked for.  Runs that exhaust the
budget, or that find no applicable repair, fail loudly with their trace.

One loop, :func:`color_cover`, places and repairs, and a vertex's
free-color test is also its stuck test: with repair on, each failed test
runs one repair stage and tests the vertex again.  The degree-ordered greedy
of :mod:`efl.greedy` is the same loop with repair off, ending at the first
failed test.

Once the core is colored, the private (degree-1) vertices of each clique i,
in token order, take the colors free in its row mask ``used[i]``, ascending;
``verify_proper`` certifies that total coloring, with at most n colors, for
each result that returns it.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import InconsistentBlockError, UnknownVertexError
from .instance import Instance, require_valid
from .oracle import verify_proper

DISJOINT = 0
UNASSIGNED = -1
# the cells written as a symbol; a color c >= 1 is written str(c)
_SYMBOLS = {DISJOINT: ".", UNASSIGNED: "?"}

STATUS_SUCCESS = "success"
STATUS_FAILED = "failed"

REASON_BUDGET_EXHAUSTED = "budget-exhausted"
REASON_STUCK_NO_REPAIR = "stuck-no-repair"
REASON_INTERNAL_VERIFICATION = "internal-verification"
REASON_NO_COLOR_AVAILABLE = "no-color-available"


class ColorMatrix:
    """Symmetric color matrix with 1-based clique indices.

    ``rows`` must be n rows of n cells each; any other shape raises
    ``ValueError``.
    """

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, rows: Sequence[Sequence[int]]):
        self.n = n
        self._rows = [list(r) for r in rows]
        if len(self._rows) != n or any(len(r) != n for r in self._rows):
            raise ValueError(f"a matrix of order {n} needs {n} rows of {n} cells each")

    @classmethod
    def from_text(cls, text: str) -> "ColorMatrix":
        """Parse exactly what :meth:`render` writes: '.', '?' or a color.

        Text that is not square raises ``ValueError`` first.  A color is
        written in decimal from 1 without leading zeros, in ASCII digits only,
        as ``int`` would also take a sign, ``_`` separators and other scripts'
        digits; any other token, ``0``, ``01`` among them, raises
        ``ValueError`` naming its 1-based row and column.
        """
        cells = {symbol: x for x, symbol in _SYMBOLS.items()}
        rows = [line.split() for line in text.strip().split("\n")]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix text is not square")
        for i, row in enumerate(rows, start=1):
            for j, tok in enumerate(row, start=1):
                if tok in cells:
                    row[j - 1] = cells[tok]
                elif tok.isascii() and tok.isdigit() and tok[0] != "0":
                    row[j - 1] = int(tok)
                else:
                    raise ValueError(f"row {i}, column {j}: {tok!r} is not '.', '?' or a color")
        return cls(n, rows)

    def get(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"cell ({i},{j}) out of range 1..{self.n}")
        return self._rows[i - 1][j - 1]

    def row(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.n:
            raise IndexError(f"row {i} out of range 1..{self.n}")
        return tuple(self._rows[i - 1])

    def set_block(self, indices: Sequence[int], color: int) -> None:
        """Write one color into every off-diagonal cell over the given cliques.

        Every index is checked against 1..n before the first write, so a
        refused block leaves the matrix unchanged.
        """
        for a in indices:
            if not 1 <= a <= self.n:
                raise IndexError(f"clique index {a} out of range 1..{self.n}")
        # once each: a repeated index is no second clique
        _write_blocks(self._rows, (tuple(set(indices)),), (color,))

    def copy(self) -> "ColorMatrix":
        return ColorMatrix(self.n, self._rows)

    def render(self) -> str:
        return "\n".join(" ".join(_SYMBOLS.get(x) or str(x) for x in row) for row in self._rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ColorMatrix)
            and self.n == other.n
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"ColorMatrix(n={self.n})"


def _write_blocks(
    rows: list[list[int]], blocks: Iterable[tuple[int, ...]], colors: Iterable[int]
) -> None:
    """Write each color into every off-diagonal cell of its block.

    ``blocks`` and ``colors`` run in parallel; a block is a tuple of distinct
    1-based clique indices within the rows, unchecked.  The block of a
    vertex in two cliques a, b is the two cells (a, b) and (b, a), written
    without the general double loop; a one-clique block writes nothing.
    """
    for ix, x in zip(blocks, colors):
        if len(ix) == 2:
            a, b = ix
            rows[a - 1][b - 1] = rows[b - 1][a - 1] = x
        else:
            for a in ix:
                row = rows[a - 1]
                for b in ix:
                    if a != b:
                        row[b - 1] = x


def _block_matrix(inst: Instance, core: dict[str, int]) -> ColorMatrix:
    """DISJOINT but for the blocks over shared vertices, which hold the core
    color, or UNASSIGNED for a vertex without one, written by
    :func:`_write_blocks`."""
    n = inst.n
    # one shared row n times: __init__ copies each row into its own list
    matrix = ColorMatrix(n, [[DISJOINT] * n] * n)
    inc = inst.core_incidence
    _write_blocks(matrix._rows, inc.values(), map(core.get, inc, repeat(UNASSIGNED)))
    return matrix


def initial_matrix(inst: Instance) -> ColorMatrix:
    """The intersection matrix: DISJOINT exactly on the diagonal and empty pairs."""
    require_valid(inst)
    return _block_matrix(inst, {})


class _EngineConfigFields(NamedTuple):
    repair_budget: Optional[int] = None
    trace_enabled: bool = False


class EngineConfig(_EngineConfigFields):
    """Run parameters; ``repair_budget`` defaults to n^2 at run time."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.repair_budget is not None and self.repair_budget < 1:
            raise ValueError("repair_budget must be at least 1")
        return self

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``; route it through the check
        return cls(*iterable)


class Assigned(NamedTuple):
    vertex: str
    color: int


class RepairRecolored(NamedTuple):
    vertex: str
    old_color: int
    new_color: int


class RepairSkipped(NamedTuple):
    vertex: str


class BudgetExhausted(NamedTuple):
    pass


TraceEvent = Union[Assigned, RepairRecolored, RepairSkipped, BudgetExhausted]
# _new(Assigned, (u, x)) is Assigned(u, x): what a record's generated
# __new__ does, without its Python frame
_new = tuple.__new__
# each event class and the tag its trace line starts with
_TAGS = {Assigned: "ASSIGN", RepairRecolored: "REPAIR",
         RepairSkipped: "SKIP", BudgetExhausted: "BUDGET"}


def _tag(ev: TraceEvent) -> str:
    """The event's tag; an object whose exact class has none raises ``TypeError``."""
    if (tag := _TAGS.get(type(ev))) is None:
        raise TypeError(f"unknown trace event {ev!r}")
    return tag


def render_trace(events: Sequence[TraceEvent]) -> str:
    """One line per event: its tag (ASSIGN / REPAIR / SKIP / BUDGET), then its fields."""
    return "\n".join(" ".join((_tag(ev), *map(str, ev))) for ev in events)


def replay_trace(
    inst: Instance, events: Sequence[TraceEvent], start: ColorMatrix
) -> ColorMatrix:
    """Fold the write events over a starting matrix of the instance's order.

    The blocks are the instance's own incidence tuples, which lie in 1..n,
    so once the orders match and every event is checked they are written
    by :func:`_write_blocks` without a range check; a private vertex's
    block writes nothing.  An event naming a vertex outside the instance
    raises :class:`UnknownVertexError`, and one writing a color below 1,
    which the matrix would read as a cell state, raises ``ValueError``, as
    in :func:`efl.oracle.verify_proper`.  ``RepairSkipped``, which names a
    vertex too, and ``BudgetExhausted`` write nothing; any other object
    raises ``TypeError``, as in :func:`render_trace`, even a plain tuple
    that compares equal to an event.
    """
    if start.n != inst.n:
        raise ValueError(f"matrix order {start.n} does not match instance n={inst.n}")
    inc = inst.incidence_map
    blocks: list[tuple[int, ...]] = []
    colors: list[int] = []
    try:
        for ev in events:
            if type(ev) is Assigned:
                color = ev.color
            elif type(ev) is RepairRecolored:
                color = ev.new_color
            elif type(ev) is RepairSkipped:
                inc[ev.vertex]  # writes nothing, but names a vertex
                continue
            else:
                _tag(ev)  # the budget event; any other object raises
                continue
            if color < 1:
                raise ValueError(f"vertex '{ev.vertex}' has color {color}, below 1")
            blocks.append(inc[ev.vertex])
            colors.append(color)
    except KeyError as err:
        raise UnknownVertexError(
            f"vertex '{err.args[0]}' does not occur in the instance"
        ) from None
    matrix = start.copy()
    _write_blocks(matrix._rows, blocks, colors)
    return matrix


class ColoringResult(NamedTuple):
    """A run's outcome; ``reason`` is None exactly on success.

    ``colors`` is the verified total coloring on success and the partial core
    coloring on failure.  The rest is derived: ``final_matrix`` is built from
    ``colors`` on each read, and as a private vertex's block over its one
    clique writes no cell, only the core colors show in it.  Nothing is
    cached, as no caller reads it twice, so a run whose matrix is never read,
    such as ``efl color``, builds none.
    """

    instance: Instance
    colors: dict[str, int]
    reason: Optional[str]
    trace: Optional[list[TraceEvent]]

    @property
    def ok(self) -> bool:
        return self.reason is None

    @property
    def status(self) -> str:
        return STATUS_SUCCESS if self.ok else STATUS_FAILED

    @property
    def coloring(self) -> Optional[dict[str, int]]:
        """The total coloring, or None when the run failed."""
        return self.colors if self.ok else None

    @property
    def final_matrix(self) -> ColorMatrix:
        return _block_matrix(self.instance, self.colors)


def _least(mask: int) -> int:
    """The least color of a non-empty color mask."""
    return (mask & -mask).bit_length() - 1


def _bits(mask: int) -> list[int]:
    """The set bits of a mask (colors, or ranks), ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _recolor(
    rows: list[list[Optional[str]]],
    used: list[int],
    color: dict[str, int],
    inc: dict[str, tuple[int, ...]],
    v: str,
    x: int,
) -> None:
    """Give core vertex v color x in every row it meets.

    A row slot is released, by writing None, only while v still owns it:
    inside a path swap the vertex written just before v may already have
    taken over v's old color in the row they share.  ``used[i]`` keeps bit c
    set exactly while c is owned in row i.  An uncolored v is accepted and
    releases nothing: its old color reads as 0, and slot 0 of every row,
    which no color indexes, stays None.  Every recolor goes through it: the
    engine's commit loop, the fan plan on its scratch copy and the tests
    building their states.  The engine places an uncolored vertex inline, as
    that releases nothing.
    """
    old = color.get(v, 0)
    for i in inc[v]:
        row = rows[i]
        if row[old] == v:
            row[old] = None
            used[i] &= ~(1 << old)
        row[x] = v
        used[i] |= 1 << x
    color[v] = x


def _fan_path_plan(
    rows: list[list[Optional[str]]],
    used: list[int],
    color: dict[str, int],
    inc: dict[str, tuple[int, ...]],
    u: str,
    n: int,
) -> Optional[list[tuple[str, int]]]:
    """Plan a recolor sequence freeing a common color for a stuck 2-clique vertex.

    Read the rows as nodes and each 2-clique core vertex as an edge between
    its two rows, colored by its color.  On a scratch copy of the row state
    the plan takes the steps of the fan argument for Vizing's theorem
    (Misra and Gries 1992):

    1. Grow a maximal fan from row_b.  Spoke s_j is a 2-clique vertex of
       row_a whose color e_j is free at fan row j-1; it leads to fan row j.
    2. Let c be the least color free at row_a and d the least free at the
       last fan row.  Walk the c/d-alternating path from row_a, then swap c
       and d along it.
    3. At the first fan row ``target`` with d free, shift the fan prefix:
       spoke s_j takes e_(j+1) for j < target, and s_target takes d.

    The plan aborts on a path vertex in more than two cliques, the only exit
    seen to fire, and at the path bound and ``target is None`` exit below.
    It returns the writes only if every vertex they wrote or overwrote still
    owns its color in each of its rows.  On a conflict-free start whose masks
    mirror the rows nothing else can fail, so there is no other check:

    - c and d exist: a clique meets each other clique at most once, so a row
      holds at most n-1 shared vertices and keeps a free color.
    - The walk needs no branch for d free at row_a: it is then empty.
    - ``len(path) > n`` only bounds the walk: each row owns c and d at most
      once and row_a lacks c, so the path never revisits a row.  On states
      that break the mask invariant c can equal d, and the walk then cycles
      until this bound ends it.
    - ``target is None`` cannot hold: with d free at row_a the path is empty
      and d stays free at the last fan row.  Otherwise the maximal fan makes
      d the color of a spoke s_j, so d is free at fan rows j-1 and last; the
      path ends at one of them at most.  States that break the mask
      invariant do reach this exit.
    - The rotation needs no checks: d is free at fan row ``target`` and, after
      the swap, at row_a.  The color s_(i+1) leaves in row_a is free at fan
      row i: it is e_(i+1), untouched by the swap, or, when s_(i+1) was the
      path's first edge, c, freed at row i by the path ending there.  A
      write that overwrote an owner all the same fails the closing check.
    - With target 0 the rotation writes nothing, so it needs no branch.
    - No closing "free in both rows" check: with i = 0 the argument above
      is the color the rotation frees in both of u's rows, and the main loop
      re-tests u's free colors after every commit anyway.
    - The ownership check looks only at ``touched``: a write changes only its
      vertex's rows, and there only the entries of its old and new color, so
      a vertex neither written nor overwritten keeps its ownership.
    """
    row_a, row_b = inc[u]
    work = [row[:] for row in rows]
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
        touched.extend(w for i in inc[v] if (w := work[i][x]) is not None)
        _recolor(work, work_used, work_color, inc, v, x)
        writes.append((v, x))

    fan = [row_b]
    spokes: list[str] = []
    while True:
        for cand in _bits(free(fan[-1])):
            w = work[row_a][cand]
            if w is None or len(inc[w]) != 2 or across(w, row_a) in fan:
                continue
            fan.append(across(w, row_a))
            spokes.append(w)
            break
        else:
            break

    c = _least(free(row_a))
    d = _least(free(fan[-1]))
    path: list[tuple[str, int]] = []  # (vertex, new color), read-only walk
    r, x = row_a, d
    while (w := work[r][x]) is not None:
        if len(inc[w]) != 2 or len(path) > n:
            return None
        x = c if x == d else d
        path.append((w, x))
        r = across(w, r)
    for w, x in path:
        write(w, x)

    target = next((j for j, f in enumerate(fan) if free(f) >> d & 1), None)
    if target is None:
        return None
    shifted = [work_color[w] for w in spokes[1:target]] + [d]
    # from the far end, so each spoke takes a color its successor has left
    for j in reversed(range(target)):
        write(spokes[j], shifted[j])
    return writes if _owns_colors(work, work_color, inc, touched) else None


def _owns_colors(
    rows: list[list[Optional[str]]],
    color: dict[str, int],
    inc: dict[str, tuple[int, ...]],
    vertices: Sequence[str],
) -> bool:
    """Whether each of ``vertices`` owns its color in every row it meets."""
    return all(rows[i][color[v]] == v for v in vertices for i in inc[v])


def color_cover(
    inst: Instance, repair_budget: Optional[int], trace: Optional[list[TraceEvent]]
) -> ColoringResult:
    """The coloring loop of both methods: the greedy at ``repair_budget=None``.

    Core vertices are placed in non-increasing clique degree, ties broken on
    the lexicographically smallest incidence tuple.  The set-up is the
    instance's cached ``_core_order``, derived once per cover for both
    methods: the core sorted by incidence tuple, each tuple split into
    ``split[r] = (a, b, rest)``, and the placement order.  In a valid cover
    no two core vertices have the same incidence tuple, as their two shared
    cliques would then share two vertices; so the ranks, the positions in
    incidence order, are a strict order, and a stable sort of the ranks by
    descending clique degree keeps that order among equal degrees.  That is
    exactly the placement order ``order`` of a sort by ``(-degree,
    incidence tuple)``, and a vertex's rank bit is ``1 << rank``.
    ``members[i]`` holds the rank bits of the colored vertices of row i.
    The run state lives in one call, and nothing is written to ``inst``.

    The loop walks ``order`` from the start.  Each step tests the vertex's
    free colors; with one, the vertex takes the least, and as it owns no
    color yet its color, row owners, row masks and row member bits are
    written in one loop over its rows.  With none, the greedy fails with
    ``no-color-available``; with repair on, one repair stage plans a list of
    ``(vertex, color)`` writes, one commit loop charges the budget, records
    each write and applies it, and the loop tests the same vertex again.
    Every plan, the scan's or the fan's, goes through that commit loop, which
    writes each recolor through ``_recolor`` (a row slot is released only
    while the vertex still owns it) and unblocks the ranks colored in each
    of its rows.  The first stage scans the owners in the stuck
    vertex's rows in incidence order and plans the least free color of the
    first one that is neither fully blocked nor already tried in this stuck
    episode.  When the scan runs dry the fan-and-path plan takes over for a
    vertex in two cliques.  Once the core is colored, the private vertices
    of each clique (:attr:`Instance.private_members`) take the colors free
    in its row.  On
    success the result's ``colors`` is that total coloring, the very dict
    ``verify_proper`` certified proper with at most n colors (a coloring it
    refuses fails with ``internal-verification``); on failure it is the
    partial core coloring, with ``reason`` set.

    The scan is memoized.  A stuck episode starts at the vertex's first
    failed test, and within it ``tried`` and ``blocked`` are rank masks; a
    vertex found fully blocked stays in ``blocked`` until a commit writes a
    vertex sharing one of its rows, as only such a write can change the
    colors owned in its rows.  Each scan therefore tests only the ranks in
    neither mask, ascending, and looks up the token ``by_rank[r]`` only for
    the rank it picks.  As the row masks hold no color outside 1..n, a rank
    is fully blocked exactly when its rows' masks OR to ``full``, and the
    ranks a scan passed over join ``blocked`` at once when it ends.  The
    blocked ranks below the chosen one (all of them when the scan runs dry)
    are exactly the vertices a scan restarted from the lowest rank would
    test and pass over, so the ``SKIP`` events equal those of re-testing
    every owner after each commit.

    Trace events are built only when ``trace`` is a list, through
    ``tuple.__new__`` and each scan's ``SKIP`` events by one ``map``.
    """
    require_valid(inst)
    repair = repair_budget is not None
    tracing = trace is not None
    n = inst.n
    inc = inst.core_incidence
    full = ((1 << n) - 1) << 1  # every color 1..n
    # rows[i][c]: the owner of color c in clique i, or None; slot 0 stays None
    rows: list[list[Optional[str]]] = [[None] * (n + 1) for _ in range(n + 1)]
    used = [0] * (n + 1)  # used[i]: the colors owned in row i, as a mask
    members = [0] * (n + 1)  # members[i]: the ranks colored in row i, as a mask
    core: dict[str, int] = {}
    by_rank, rank_ix, split, order = inst._core_order
    budget_used = 0

    for rank in order:
        a, b, rest = split[rank]
        neighbors = None
        while True:
            taken = used[a] | used[b]
            if rest:
                for i in rest:
                    taken |= used[i]
            if free := full & ~taken:
                break
            if not repair:
                return ColoringResult(inst, core, REASON_NO_COLOR_AVAILABLE, trace)
            if neighbors is None:
                # a recolor never moves a vertex out of a row, so u's colored
                # neighbors stay the same for the whole stuck episode
                neighbors = 0
                for i in rank_ix[rank]:
                    neighbors |= members[i]
                tried = blocked = 0
            plan = None
            below = -1  # the ranks below the chosen one; all while none is chosen
            todo = untested = neighbors & ~(tried | blocked)
            while todo:
                low = todo & -todo
                r = low.bit_length() - 1
                va, vb, vrest = split[r]
                taken = used[va] | used[vb]
                if vrest:
                    for i in vrest:
                        taken |= used[i]
                # the row masks hold colors 1..n only: taken == full is fully blocked
                if taken != full:
                    free_v = full & ~taken
                    tried |= low
                    plan = [(by_rank[r], (free_v & -free_v).bit_length() - 1)]
                    below = low - 1
                    break
                todo ^= low
            # the ranks tested and passed over, all fully blocked
            blocked |= untested & below
            if tracing:
                skipped = map(by_rank.__getitem__, _bits(blocked & below))
                trace.extend(map(_new, repeat(RepairSkipped), zip(skipped)))
            if plan is None and not rest:
                plan = _fan_path_plan(rows, used, core, inc, by_rank[rank], n)
            if not plan:
                return ColoringResult(inst, core, REASON_STUCK_NO_REPAIR, trace)
            if budget_used + len(plan) > repair_budget:
                if tracing:
                    trace.append(BudgetExhausted())
                return ColoringResult(inst, core, REASON_BUDGET_EXHAUSTED, trace)
            for v, x in plan:
                if tracing:
                    trace.append(_new(RepairRecolored, (v, core[v], x)))
                _recolor(rows, used, core, inc, v, x)
                # a write can free colors in v's rows only: unblock their ranks
                for i in inc[v]:
                    blocked &= ~members[i]
            budget_used += len(plan)
        u = by_rank[rank]
        x = (free & -free).bit_length() - 1
        color_bit = 1 << x
        rank_bit = 1 << rank
        for i in rank_ix[rank]:
            rows[i][x] = u
            used[i] |= color_bit
            members[i] |= rank_bit
        core[u] = x
        if tracing:
            trace.append(_new(Assigned, (u, x)))

    total = dict(core)
    for i, private in enumerate(inst.private_members, start=1):
        total.update(zip(private, _bits(full & ~used[i])))
    report = verify_proper(inst, total)
    if not report.proper or report.max_color > n:
        return ColoringResult(inst, core, REASON_INTERNAL_VERIFICATION, trace)
    return ColoringResult(inst, total, None, trace)


def run_matrix_method(inst: Instance, config: Optional[EngineConfig] = None) -> ColoringResult:
    """Color the core by the matrix method with repair, then extend to a total coloring.

    All free choices are pinned for determinism.
    """
    cfg = config or EngineConfig()
    budget = cfg.repair_budget if cfg.repair_budget is not None else inst.n * inst.n
    return color_cover(inst, budget, [] if cfg.trace_enabled else None)


def matrix_to_coloring(inst: Instance, matrix: ColorMatrix) -> dict[str, int]:
    """Read the partial core coloring off a matrix.

    Every colored core vertex maps to the color of its cell block; blocks still
    fully unassigned are simply absent.  A block holding two different values
    means the matrix was not produced by a correct engine run.
    """
    if matrix.n != inst.n:
        raise ValueError(f"matrix order {matrix.n} does not match instance n={inst.n}")
    coloring: dict[str, int] = {}
    for v, ix in inst.core_incidence.items():
        values = {
            matrix.get(a, b) for a in ix for b in ix if a != b
        }
        if values == {UNASSIGNED}:
            continue
        if len(values) != 1 or min(values) < 1:
            raise InconsistentBlockError(
                f"vertex '{v}' block over cliques {ix} holds {sorted(values)}"
            )
        coloring[v] = values.pop()
    return coloring
