"""Immutable small graphs (up to 64 vertices) with bitmask adjacency and graph6 I/O."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64
GRAPH6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 text."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_rows(n: int, adj: tuple[int, ...]) -> None:
    """Vertex count in range, one row per vertex, no loops, no index >= n."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    if len(adj) != n:
        raise ValueError("adjacency row count does not match vertex count")
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            raise ValueError(f"vertex {v} has a neighbour index >= n")
        if row >> v & 1:
            raise ValueError(f"loop at vertex {v}")


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1; adj[v] holds N(v) as a bitmask.

    Values are immutable: every operation returns a new Graph. Symmetry and
    irreflexivity are enforced at construction time; graphs derived from
    valid graphs (subgraphs, complements, relabellings, unions, inflations
    and decomposition quotients) are valid by construction and skip the check.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_rows(self.n, self.adj)
        for v in range(self.n):
            for u in _bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge {v}-{u}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Return the graph with vertex v renamed to perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"relabelling is not a permutation of 0..{self.n - 1}")
        rows = [0] * self.n
        for v in range(self.n):
            row = 0
            for u in _bits(self.adj[v]):
                row |= 1 << perm[u]
            rows[perm[v]] = row
        return _derived(self.n, tuple(rows))

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return _derived(self.n, tuple((full ^ row ^ (1 << v)) for v, row in enumerate(self.adj)))

    def induced_subgraph(self, xs: Iterable[int]) -> "Graph":
        """Induced subgraph on xs, relabelled 0..|xs|-1 in increasing vertex order."""
        keep = sorted(set(xs))
        for v in keep:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        index = {v: i for i, v in enumerate(keep)}
        rows = []
        for v in keep:
            row = 0
            for u in _bits(self.adj[v]):
                if u in index:
                    row |= 1 << index[u]
            rows.append(row)
        return _derived(len(keep), tuple(rows))

    def delete_vertex(self, v: int) -> "Graph":
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        return self.induced_subgraph(u for u in range(self.n) if u != v)

    def components(self, flip: int = 0) -> list[list[int]]:
        """Connected components as vertex lists, ordered by smallest contained
        vertex; with flip the full vertex mask, those of the complement."""
        out: list[list[int]] = []
        rest = (1 << self.n) - 1
        while rest:
            comp = self._reach((rest & -rest).bit_length() - 1, flip)
            rest &= ~comp
            out.append(list(_bits(comp)))
        return out

    def is_connected(self) -> bool:
        return not self.n or self._reach(0, 0) == (1 << self.n) - 1

    def is_co_connected(self) -> bool:
        """Whether the complement is connected, without building it."""
        full = (1 << self.n) - 1
        return not self.n or self._reach(0, full) == full

    def _reach(self, v: int, flip: int) -> int:
        """The mask of vertices one search from v reaches along the rows xor
        flip; a row's own bit that flip sets is already reached."""
        reached = frontier = 1 << v
        while frontier:
            grow = 0
            for u in _bits(frontier):
                grow |= self.adj[u] ^ flip
            frontier = grow & ~reached
            reached |= frontier
        return reached

    def to_graph6(self) -> str:
        return bits_to_graph6(self.n, _triangle_bits(self.adj, range(self.n)))


def _derived(n: int, adj: tuple[int, ...]) -> Graph:
    """A Graph built without validation, for rows that are valid by construction:
    derived from valid graphs (inflations and quotients too), or decoded from graph6."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    n = sum(p.n for p in parts)
    if n > MAX_VERTICES:
        raise ValueError("union exceeds 64 vertices")
    rows: list[int] = []
    offset = 0
    for p in parts:
        rows.extend(row << offset for row in p.adj)
        offset += p.n
    return _derived(n, tuple(rows))


# -- graph6 encoding ---------------------------------------------------------
#
# Length byte(s): n+63 for n <= 62, else '~' followed by three 6-bit digits.
# Body: the upper triangle in column-major order x(0,1), x(0,2), x(1,2),
# x(0,3), ..., packed 6 bits per byte (MSB first), each byte offset by 63,
# zero-padded to a byte boundary.


def _triangle_bits(adj: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """The graph6 body bits of the graph with vertex order[i] renamed to i."""
    bits = []
    for j in range(1, len(order)):
        col = adj[order[j]]
        for i in range(j):
            bits.append(col >> order[i] & 1)
    return tuple(bits)


def bits_to_graph6(n: int, bits: Sequence[int]) -> str:
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    out = [head]
    for i in range(0, len(bits), 6):
        chunk = bits[i : i + 6]
        value = 0
        for b in chunk:
            value = value << 1 | b
        value <<= 6 - len(chunk)
        out.append(chr(value + 63))
    return "".join(out)


def _check_char(ch: str) -> int:
    value = ord(ch) - 63
    if not 0 <= value <= 63:
        raise Graph6Error(f"character {ch!r} outside graph6 range")
    return value


# graph6 body character -> its six bits as text; other characters stay one
# character long
_SIX_BITS = {63 + v: format(v, "06b") for v in range(64)}


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string (optionally carrying the standard header)."""
    if text.startswith(GRAPH6_HEADER):
        text = text[len(GRAPH6_HEADER) :]
    if not text:
        raise Graph6Error("empty graph6 string")
    if text[0] == "~":
        if len(text) >= 2 and text[1] == "~":
            raise Graph6Error("8-byte length form implies more than 64 vertices")
        if len(text) < 4:
            raise Graph6Error("truncated long-form length field")
        n = 0
        for ch in text[1:4]:
            n = n << 6 | _check_char(ch)
        body = text[4:]
    else:
        n = _check_char(text[0])
        body = text[1:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"{n} vertices exceeds the 64-vertex limit")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6Error("graph6 body shorter than the triangle requires")
    if len(body) > need:
        raise Graph6Error("trailing bytes after graph6 body")
    # the body's bits, reversed into one int, so that body bit idx is bit
    # idx of x: column j's bits x(0, j), ..., x(j - 1, j) are row j's lower
    # neighbours, in vertex order
    sixes = body.translate(_SIX_BITS)
    if len(sixes) != 6 * len(body):
        for ch in body:
            _check_char(ch)
    x = int(sixes[::-1], 2) if sixes else 0
    if x >> nbits:
        raise Graph6Error("nonzero padding bits")
    rows = [0] * n
    start = 0
    for j in range(1, n):
        col = x >> start & ((1 << j) - 1)
        start += j
        rows[j] = col
        bit = 1 << j
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= bit
            col ^= low
    # the rows are symmetric by construction; the other checks still run
    adj = tuple(rows)
    _check_rows(n, adj)
    return _derived(n, adj)
