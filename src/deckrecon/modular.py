"""Modules (intervals), indecomposability, modular decomposition and inflation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graphs import MAX_VERTICES, Graph, _bits, _derived


class CapabilityError(ValueError):
    """Input exceeds a documented size bound for an exact operation."""


class Kind(str, Enum):
    INDECOMPOSABLE = "indecomposable"
    PARALLEL = "degenerate-parallel"
    SERIES = "degenerate-series"
    PRIME = "prime"


@dataclass(frozen=True, slots=True)
class ModularDecomposition:
    """Top-level modular decomposition of a graph: its skeleton, the one
    indecomposable quotient, inflated by its parts.

    The skeleton is the graph itself (INDECOMPOSABLE, no parts), K2BAR with
    the components as parts (PARALLEL), K2 with the co-components (SERIES),
    or the prime quotient on >= 4 vertices: the subgraph on the parts' lowest
    vertices in part order, with the interval at skeleton vertex i as parts[i]
    (PRIME). Only PRIME's parts are the unique intervals of the skeleton.
    """

    kind: Kind
    skeleton: Graph
    parts: tuple[Graph, ...] = ()


# the one graph of every singleton interval; the series and parallel quotients
SINGLETON = Graph(1, (0,))
K2 = Graph(2, (2, 1))
K2BAR = Graph(2, (0, 0))


def _closure(g: Graph, mask: int) -> int:
    """The smallest module containing mask: each splitter (an outside vertex
    that sees some, but not all, of the set) joins it as soon as it is found,
    until a full scan adds none (Ehrenfeucht, Gabow, McConnell & Sullivan 1994).
    It serves `is_module` and the tests' reference for the maximal modules."""
    outside = [v for v in range(g.n) if not mask >> v & 1]
    while True:
        rest = []
        for v in outside:
            hit = g.adj[v] & mask
            if hit and hit != mask:
                mask |= 1 << v
            else:
                rest.append(v)
        if len(rest) == len(outside):
            return mask
        outside = rest


def is_module(g: Graph, mask: int) -> bool:
    """True iff every vertex outside mask sees all of mask or none of it."""
    return _closure(g, mask) == mask


def is_indecomposable(g: Graph) -> bool:
    """No proper module; graphs on at most 2 vertices count as indecomposable."""
    return g.n <= 2 or len(maximal_proper_module_masks(g)) == g.n


def indecomposable_masks(g: Graph) -> list[bool]:
    """Table indexed by vertex-set mask: does the induced subgraph lack proper modules?

    Subsets of size <= 2 are indecomposable by convention. Built in one sweep
    over (module, host) mask pairs, so the whole table costs O(3^n).
    """
    if g.n > 16:
        raise CapabilityError("submask table limited to 16 vertices")
    full = (1 << g.n) - 1
    indec = [True] * (1 << g.n)
    for m in range(3, 1 << g.n):
        if m.bit_count() < 2:
            continue
        distinguishers = 0
        for v in range(g.n):
            if m >> v & 1:
                continue
            hit = g.adj[v] & m
            if hit and hit != m:
                distinguishers |= 1 << v
        free = full & ~m & ~distinguishers
        # every superset m | s (s nonempty, s subset of free) has m as a proper module
        s = free
        while s:
            indec[m | s] = False
            s = (s - 1) & free
    return indec


def _forced(g: Graph, reps: int, start: int, backward: bool = False) -> int:
    """The parts of P(g, 0) that start reaches in the forcing digraph, or that
    reach it if backward, each named by its representative's bit in reps.

    y -> z iff z sees exactly one of 0 and y: then the closure of {0} and y
    holds z. A forward row is one word, adj[0] ^ adj[y]; so is a reverse row,
    adj[z], complemented when z sees 0.
    """
    adj, a0 = g.adj, g.adj[0]
    reached = todo = start
    while todo:
        b = todo & -todo
        todo ^= b
        r = b.bit_length() - 1
        row = adj[r] ^ (-(a0 >> r & 1) if backward else a0)
        new = row & reps & ~reached
        reached |= new
        todo |= new
    return reached


def maximal_proper_module_masks(g: Graph) -> list[int]:
    """The maximal proper modules, by lowest vertex; singletons included.

    Refining V - {0} until no vertex splits a part without it gives P(g, 0):
    no module avoiding 0 is ever split, so the parts are the maximal ones.
    Each part is a module, so the closure of {0} and a part y is 0 with every
    part that y reaches in the forcing digraph, where y -> z iff z sees
    exactly one of 0 and y. The far parts, whose closure with 0 is V, are
    those that reach every part; a walk finds them with a forward and a
    reverse search per step, one step on a prime graph. Every other part
    joins 0's module. If g is connected and co-connected the far parts are
    the other maximal proper modules; on any other g only the count means
    anything: for n >= 3 there are n masks iff g is indecomposable.
    """
    adj = g.adj
    full = (1 << g.n) - 1
    parts = [full - 1] if g.n > 1 else []
    done = []  # singletons: they cannot split, so they leave the working list
    pending = 1
    while pending and parts:
        x = (pending & -pending).bit_length() - 1
        pending ^= 1 << x
        refined = []
        for y in parts:
            inside = adj[x] & y
            if y >> x & 1 or inside in (0, y):
                refined.append(y)
            else:  # every vertex of y now misses a part it may split
                pending |= y
                for piece in (inside, y ^ inside):
                    (refined if piece & (piece - 1) else done).append(piece)
        parts = refined
    parts += done
    reps = sum(y & -y for y in parts)
    # Every far part reaches the current part. If that one reaches every part,
    # the far parts are those that reach it; if not, any far part reaches it
    # and is not reached from it, and each step to such a part reaches more.
    far = 0
    at = reps & -reps
    while at:
        ahead = _forced(g, reps, at)
        behind = _forced(g, reps, at, backward=True)
        if ahead == reps:
            far = behind
            break
        at = behind & ~ahead
        at &= -at
    far_parts = sorted((y for y in parts if y & -y & far), key=lambda m: m & -m)
    return [full ^ sum(far_parts) | 1] + far_parts


def decompose(g: Graph) -> ModularDecomposition:
    """Top-level modular decomposition: the unique skeleton and the parts that inflate it."""
    if g.n < 1:
        raise ValueError("decomposition needs at least one vertex")
    if g.n <= 2:
        return ModularDecomposition(Kind.INDECOMPOSABLE, g)
    if not g.is_connected():
        return ModularDecomposition(
            Kind.PARALLEL, K2BAR, tuple(g.induced_subgraph(c) for c in g.components())
        )
    if not g.is_co_connected():
        cocomps = g.components((1 << g.n) - 1)
        return ModularDecomposition(
            Kind.SERIES, K2, tuple(g.induced_subgraph(c) for c in cocomps)
        )
    part_masks = maximal_proper_module_masks(g)
    if len(part_masks) == g.n:
        return ModularDecomposition(Kind.INDECOMPOSABLE, g)
    # The maximal proper modules partition V, and each is a module: checked
    # rather than assumed, once per vertex against its part's representative.
    # So the quotient is the subgraph on the parts' lowest vertices, in order.
    covered = 0
    reps = []
    for m in part_masks:
        if m & covered:
            raise RuntimeError("maximal modules of a prime-quotient graph overlap")
        covered |= m
        r = (m & -m).bit_length() - 1
        seen = g.adj[r] & ~m
        if any(g.adj[u] & ~m != seen for u in _bits(m)):
            raise RuntimeError("module boundary violated between quotient parts")
        reps.append(r)
    skeleton = g.induced_subgraph(reps)
    if len(reps) < 4 or not is_indecomposable(skeleton):
        raise RuntimeError("prime quotient is not an indecomposable graph on >= 4 vertices")
    intervals = tuple(
        g.induced_subgraph(_bits(m)) if m & (m - 1) else SINGLETON for m in part_masks
    )
    return ModularDecomposition(Kind.PRIME, skeleton, intervals)


def inflate(k: Graph, parts: list[Graph] | tuple[Graph, ...]) -> Graph:
    """Replace vertex i of k by parts[i]; each part becomes a module of the result."""
    if len(parts) != k.n:
        raise ValueError("need one part per skeleton vertex")
    if any(p.n == 0 for p in parts):
        raise ValueError("empty inflation part")
    if sum(p.n for p in parts) > MAX_VERTICES:
        raise ValueError("inflation exceeds 64 vertices")
    blocks, offset = [], 0
    for p in parts:
        blocks.append(((1 << p.n) - 1) << offset)
        offset += p.n
    # a row is its part's row shifted into the block, plus every neighbour block
    rows: list[int] = []
    for p, nbrs in zip(parts, k.adj):
        outside = 0
        for j in _bits(nbrs):
            outside |= blocks[j]
        base = len(rows)
        rows.extend(row << base | outside for row in p.adj)
    return _derived(len(rows), tuple(rows))


def critically_indecomposable(n: int, complemented: bool = False) -> Graph:
    """The n-vertex half-graph (A_i adjacent to B_1..B_i), or its complement.

    This is the single infinite family of indecomposable graphs, up to
    complementation, none of whose one-vertex-deleted subgraphs are
    indecomposable.
    """
    if n < 4 or n % 2:
        raise ValueError("half-graphs exist for even n >= 4 only")
    m = n // 2
    edges = [(i, m + j) for i in range(m) for j in range(i + 1)]
    g = Graph.from_edges(n, edges)
    return g.complement() if complemented else g


def is_critically_indecomposable(g: Graph) -> bool:
    """Indecomposable with no indecomposable one-vertex-deleted subgraph."""
    if not is_indecomposable(g):
        return False
    return not any(is_indecomposable(g.delete_vertex(v)) for v in range(g.n))
