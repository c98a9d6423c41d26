"""Instance constructions: canonical families, the bundled example, seeded random covers.

The random generator is driven by SplitMix64, a widely documented 64-bit
pseudorandom generator whose seed is its full state.  Identical generator
parameters therefore reproduce identical instances on any platform, which the
test corpora rely on.  SplitMix64 mixes a plain counter, so its outputs are
mixed ``_LANES`` at a time in one int, a lane per 128-bit slot, and each draw
takes the next output from an iterator without a Python call.  The random
generator holds its clique sets as int masks (bit c for clique c) and picks
each move as the k-th set bit over them, never building the list of
candidate moves that the draw indexes.  It keeps, per clique i, the count of
cliques above i that i does not meet yet, so a merge draw subtracts stored
counts row by row and builds the partner mask only for the row it lands in.
It keeps each clique's private vertices as slot positions in its member
list, so a move writes its token straight into the drawn slot.  Its
extension scan walks a ``live`` list of shared vertices and drops, for good,
each vertex whose cliques already meet every clique: clique sets and owner
lists only grow, so such a vertex never becomes extendable again.
Everything a build starts from depends on n alone: the clique tokens
``v<i>_<j>``, the slot positions in token order and the fresh names
``m<k>``.  ``_template`` makes them once per n and keeps them in a
``functools.lru_cache`` bounded to eight sizes.  It holds tuples of str and
int only, and a build copies the lists it mutates, so no build can change
what a later one starts from: the output never depends on what the process
built before.
"""

from __future__ import annotations

import struct
from bisect import insort
from functools import lru_cache
from itertools import chain, count
from typing import NamedTuple

from .instance import Instance

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # the step of the SplitMix64 counter

# A block holds _LANES outputs: lane i sits in bits 128*i .. 128*i+63 of one
# int, and the upper half of each 128-bit slot takes a 64x64-bit product whole.
_LANES = 32
_LOW = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")  # the low halves
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")  # 1 in every lane
_STEPS = int.from_bytes(  # (i+1)*gamma mod 2^64 in lane i
    b"".join(
        ((i + 1) * _GAMMA & _MASK64).to_bytes(8, "little") + bytes(8) for i in range(_LANES)
    ),
    "little",
)
_UNPACK = struct.Struct(f"<{2 * _LANES}Q").unpack


def _mix_block(state: int) -> tuple[int, ...]:
    """The _LANES outputs that follow counter ``state``, taken mod 2^64.

    The three rounds run on every lane at once.  The first two shifts are
    masked back to the low halves, so no bits cross into a product; the last
    one's stray bits land in upper halves, which the unpacking drops.
    """
    z = ((state & _MASK64) * _ONES + _STEPS) & _LOW
    z = ((z ^ ((z >> 30) & _LOW)) * 0xBF58476D1CE4E5B9) & _LOW
    z = ((z ^ ((z >> 27) & _LOW)) * 0x94D049BB133111EB) & _LOW
    return _UNPACK((z ^ (z >> 31)).to_bytes(16 * _LANES, "little"))[::2]


class SplitMix64:
    """SplitMix64 stream; the 64-bit seed is the entire generator state.

    Output k mixes the counter ``seed + k*gamma mod 2^64``, so the stream is
    the chain of the blocks :func:`_mix_block` mixes ``_LANES`` counters
    apart.  ``next_u64()`` is the C-level ``__next__`` of that chain and
    returns the raw 64-bit output without a Python frame; ``below(bound)``
    is ``next_u64() % bound``.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            # masking to 64 bits would alias the seed with one in range
            raise ValueError(f"seed must lie in 0..2^64-1, got {seed}")
        blocks = map(_mix_block, count(seed, _LANES * _GAMMA))
        self.next_u64 = chain.from_iterable(blocks).__next__

    def below(self, bound: int) -> int:
        """Advance and return the next output mod bound; modulo bias is irrelevant."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound


class _GenSpecFields(NamedTuple):
    kind: str  # "random", the one kind that takes parameters
    n: int
    seed: int = 0
    merges: int = 0
    extension_percent: int = 20


class GenSpec(_GenSpecFields):
    """Parameters of one seeded random cover; the other families take only n."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind != "random":
            raise ValueError(f"GenSpec takes kind 'random' only, got '{self.kind}'")
        if self.n < 2:
            raise ValueError(f"n={self.n} too small for a random cover")
        if self.merges < 0 or self.merges > self.n * (self.n - 1) // 2:
            raise ValueError(
                f"merges must lie in 0..C(n,2)={self.n * (self.n - 1) // 2}, got {self.merges}"
            )
        if not 0 <= self.extension_percent <= 100:
            raise ValueError("extension_percent must lie in 0..100")
        if not 0 <= self.seed <= _MASK64:
            # SplitMix64 refuses it too, but only once build_random runs
            raise ValueError(f"seed must lie in 0..2^64-1, got {self.seed}")
        return self

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``; route it through the checks
        return cls(*iterable)


class RandomBuildResult(NamedTuple):
    instance: Instance
    merges_done: int
    extensions_done: int


def gen_disjoint(n: int) -> Instance:
    """n pairwise-disjoint cliques: n^2 vertices, empty core."""
    if n < 1:
        raise ValueError("n must be positive")
    return Instance(
        n, [tuple(f"v{i}_{j}" for j in range(1, n + 1)) for i in range(1, n + 1)]
    )


def gen_dense(n: int) -> Instance:
    """The dense cover: every clique pair meets in its own degree-2 vertex.

    Clique i lists the shared vertices b{k}_{i} for k < i, ascending, then
    b{i}_{j} for j > i, ascending, then its single private vertex p{i}; the
    core is the line graph of the complete graph on n points.  Each shared
    token b{i}_{j} (i < j) is formatted once and appended to both cliques.
    Raises ``ValueError`` for n < 2.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    cliques: list[list[str]] = [[] for _ in range(n)]
    for i, members in enumerate(cliques, start=1):
        # the cliques below i have already appended b{k}_{i} here
        for j, other in enumerate(cliques[i:], start=i + 1):
            token = f"b{i}_{j}"
            members.append(token)
            other.append(token)
        members.append(f"p{i}")
    return Instance(n, cliques)


def _nth_bit(mask: int, k: int) -> int:
    """Index of the k-th (0-based) set bit of mask, counting from the lowest."""
    for _ in range(k):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


@lru_cache(maxsize=8)
def _template(n: int) -> tuple[tuple[tuple[str, ...], ...], tuple[int, ...], tuple[str, ...]]:
    """Clique i's starting tokens ``v<i>_<j>``, the slot positions 0..n-1 in
    token order, and the fresh names ``m0``..``m<C(n,2)>``, merge k taking
    name k (``m0`` is never used; no build makes more than C(n,2) merges).
    Eight sizes cover the four or five that one corpus cycles through."""
    suffixes = [str(j) for j in range(1, n + 1)]
    tokens = tuple(tuple(f"v{i}_{s}" for s in suffixes) for i in range(1, n + 1))
    order = tuple(sorted(range(n), key=suffixes.__getitem__))
    names = tuple(f"m{k}" for k in range(n * (n - 1) // 2 + 1))
    return tokens, order, names


def build_random(spec: GenSpec) -> RandomBuildResult:
    """Grow a random linear cover from disjoint cliques by identifying vertices.

    Each merge picks a disjoint clique pair and fuses one private vertex of
    each into a fresh vertex ``m<k>``, k counting the merges.  After a merge,
    with probability ``extension_percent``/100 an existing shared vertex is
    pushed into one more clique that currently misses all of its cliques,
    raising its clique degree.  Generation stops after ``merges`` merges or
    when no legal move remains; the result always validates.

    Every move replaces a private vertex, so a clique's private slots only
    dwindle, two cliques that meet never stop meeting, and the shared
    vertices are exactly the ``m<k>``.  A clique meets each other clique in
    at most one vertex, so at most n-1 of its n vertices are shared and every
    clique keeps a private vertex.  The state is therefore updated in place,
    never rebuilt.  It starts from ``_template(n)``, cached per n (eight
    sizes at most) and made only of tuples of str and int: ``cliques`` and
    ``private`` are list copies of its tokens and slot order, and merge k
    takes its name ``m<k>`` at index k, so a build's bytes do not depend on
    what was built before it.
    ``private[c]`` holds the positions in clique c's member list of its
    still-private slots, in token order (``v<c>_<j>`` sits at j-1 and sorts by
    ``str(j)``); a move draws an index into it, pops that position and writes
    its token there.  Both moves are spelled out in the loop, as a function
    call per move is a visible share of a small cover's build: a merge draws
    slot i, then slot j, writes the fresh token into both and records its one
    new meeting pair {i, j}, i < j; an extension writes its vertex into the
    target's slot and records a pair with each of the vertex's cliques.
    Clique sets are int masks with bit c for clique c
    (1-based): ``meets[c]`` holds the cliques c meets.  The merge candidates
    of row i are the cliques above i missing from ``meets[i]``; ``open_[i]``
    counts them.  It starts at n-i, and each new meeting pair {k, c} lowers
    ``open_[min(k, c)]`` by one, so the rows sum to C(n, 2) minus the meeting
    pairs, which ``meeting`` counts to bound the merge draw.  ``owners[v]``
    lists the cliques of shared vertex v, and its extension candidates are
    the cliques met by none of them.  ``live`` holds the shared vertices in
    sorted order, less those a scan found with no candidate: masks in
    ``meets`` and owner lists only grow, so the cliques a vertex's owners
    meet only grow and a vertex with no candidate never gains one.  A merge draw walks the
    rows in ascending order, subtracting the stored counts, and builds the
    partner mask only for the row it lands in, taking its k-th set bit; an
    extension draw walks the live vertices in sorted order the same way,
    counting each one's targets with ``int.bit_count()``.  A dropped vertex
    would count zero, so every draw picks the move that a full candidate
    list would hold at the same index, and no such list is built.  Every
    draw is ``draw() % bound``, ``draw`` being the bound
    ``SplitMix64.next_u64``, so it makes no Python call.  The stream is read
    in the same order: for a merge the pair, slot a, slot b and the
    extension roll; for an extension the target, then its slot.
    """
    n = spec.n
    draw = SplitMix64(spec.seed).next_u64
    tokens, order, names = _template(n)
    cliques = list(map(list, tokens))
    private: list[list[int]] = [[]] + [list(order) for _ in range(n)]
    full = ((1 << n) - 1) << 1  # every clique
    meets = [0] * (n + 1)
    open_ = [0] + [n - i for i in range(1, n + 1)]  # cliques above i not met by i
    meeting = 0  # clique pairs that meet
    owners: dict[str, list[int]] = {}  # shared vertices only
    live: list[str] = []  # shared vertices that may still extend, sorted

    merges_done = 0
    extensions_done = 0
    while merges_done < spec.merges:
        total = n * (n - 1) // 2 - meeting
        if not total:
            break
        k = draw() % total
        i = 1
        while k >= (count := open_[i]):
            k -= count
            i += 1
        # the partner mask: the cliques after row i that i does not meet
        j = _nth_bit((full >> (i + 1) << (i + 1)) & ~meets[i], k)
        merges_done += 1
        fresh = names[merges_done]
        slots = private[i]
        cliques[i - 1][slots.pop(draw() % len(slots))] = fresh
        slots = private[j]
        cliques[j - 1][slots.pop(draw() % len(slots))] = fresh
        owners[fresh] = [i, j]
        insort(live, fresh)
        meets[i] |= 1 << j
        meets[j] |= 1 << i
        open_[i] -= 1  # i < j
        meeting += 1

        if draw() % 100 < spec.extension_percent:
            # a clique holding v meets v's other cliques, so it never qualifies
            kept = []
            targets = []
            total = 0
            for v in live:
                met = 0
                for o in owners[v]:
                    met |= meets[o]
                if missed := full & ~met:
                    kept.append(v)
                    targets.append(missed)
                    total += missed.bit_count()
            live = kept
            if total:
                k = draw() % total
                t = 0
                while k >= (count := targets[t].bit_count()):
                    k -= count
                    t += 1
                c = _nth_bit(targets[t], k)
                v = live[t]
                slots = private[c]
                cliques[c - 1][slots.pop(draw() % len(slots))] = v
                # c misses every clique holding v, so each pair it joins is new
                holders = owners[v]
                for o in holders:
                    meets[o] |= 1 << c
                    meets[c] |= 1 << o
                    open_[min(o, c)] -= 1
                meeting += len(holders)
                holders.append(c)
                extensions_done += 1

    return RandomBuildResult(
        instance=Instance(n, [tuple(c) for c in cliques]),
        merges_done=merges_done,
        extensions_done=extensions_done,
    )


def gen_random(n: int, merges: int, seed: int, extension_percent: int = 20) -> Instance:
    """Seeded random linear cover; see :func:`build_random` for the moves."""
    spec = GenSpec(
        kind="random", n=n, seed=seed, merges=merges, extension_percent=extension_percent
    )
    return build_random(spec).instance


def example_instance() -> Instance:
    """The bundled 27-vertex, 6-clique example used by the golden trace."""
    return Instance(
        6,
        [
            ("v1", "v2", "v3", "v4", "v5", "v6"),
            ("v1", "v7", "v8", "v9", "v10", "v11"),
            ("v1", "v12", "v13", "v14", "v15", "v16"),
            ("v1", "v17", "v18", "v19", "v20", "v21"),
            ("v6", "v7", "v16", "v22", "v23", "v24"),
            ("v9", "v16", "v19", "v25", "v26", "v27"),
        ],
    )


# What the matrix method must produce on example_instance(): the assignment
# order with colors, and the final matrix it reaches.  The trace-example CLI
# subcommand and the golden tests diff against these.
EXAMPLE_ASSIGNMENTS: tuple[tuple[str, int], ...] = (
    ("v1", 1),
    ("v16", 2),
    ("v6", 3),
    ("v7", 4),
    ("v9", 3),
    ("v19", 4),
)

EXAMPLE_FINAL_MATRIX = "\n".join(
    (
        ". 1 1 1 3 .",
        "1 . 1 1 4 3",
        "1 1 . 1 2 2",
        "1 1 1 . . 4",
        "3 4 2 . . 2",
        ". 3 2 4 2 .",
    )
)
