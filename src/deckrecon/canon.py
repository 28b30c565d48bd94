"""Canonical labelling, isomorphism testing, automorphism orbits, containment.

Canonicalisation is one search: equitable degree-partition refinement, then
backtracking over cell orderings for the lexicographically smallest adjacency
bit-string. Refinement splits every cell by neighbour counts toward the
first cell, in cell order, that splits some cell, and never re-tests a cell
that provably splits nothing, so its cells, and every code, are those of a
full rescan. Automorphisms prune the search: those discovered as leaf
collisions, and the swaps of twins (vertices with one open or one closed
neighbourhood, as the two vertices of every size-two module are), which
the root puts in before any leaf is found, so a twin costs no second
branch. Each branch node keeps one union-find of the orbits of the
automorphisms fixing its prefix and joins each new one once. A leaf equal
to the first leaf also sends the search back to the level where its path
parts from the first path (McKay, "Practical graph isomorphism", 1981;
McKay & Piperno, "Practical graph isomorphism, II", 2014). `_symmetry`
returns the canonical order and the orbit partition of that one search,
and `canonical_labeling` and `automorphism_orbits` are its projections.

Exact up to the 64-vertex graph cap. On the empty graph the twin swaps
leave one path of n nodes. The worst case stays exponential where
refinement splits nothing and no automorphism prunes, as on rigid strongly
regular graphs; README's "Size limits" gives measured times.

Reconstruction asks about the same small graphs again and again, within a
deck and across decks, so `canonical_form` memoises the code string of each
graph on at most `MEMO_ORDER_LIMIT` (8) vertices, keyed on its adjacency
rows, and keeps the `MEMO_SIZE` (2048) most recently used, about 0.7 MB
when full; both constants are fixed. `canonical_code`, which the catalog
build calls on graphs that never repeat, and `_symmetry` always search
afresh.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .graphs import Graph, _triangle_bits, bits_to_graph6

MEMO_ORDER_LIMIT = 8
MEMO_SIZE = 2048


def _refine(adj: tuple[int, ...], cells: list[list[int]], start: int = 0) -> list[list[int]]:
    """Equitable refinement: split every cell by neighbour counts toward the
    first cell, in cell order, that splits some cell, until none does.

    The scan for that splitter begins at `start`, which `_search` sets to the
    cell it individualised: the cells before it belong to the parent's
    equitable partition and split nothing. After a split the scan resumes at
    the first changed cell or just past the splitter, whichever comes first:
    each cell before that point either split nothing when tested, which no
    later split can change, or is the splitter, toward which every cell is
    now uniform."""
    cells = [c for c in cells if c]
    wide = [i for i, c in enumerate(cells) if len(c) > 1]
    s = start
    while wide and s < len(cells):
        smask = 0
        for v in cells[s]:
            smask |= 1 << v
        for i in wide:  # the first cell that cell s splits, if any
            cell = cells[i]
            k = (adj[cell[0]] & smask).bit_count()
            for v in cell:
                if (adj[v] & smask).bit_count() != k:
                    break
            else:
                continue
            break
        else:
            s += 1
            continue
        new = cells[:i]
        for cell in cells[i:]:
            if len(cell) > 1:
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                if len(groups) > 1:
                    new.extend(groups[key] for key in sorted(groups))
                    continue
            new.append(cell)
        cells = new
        wide = [j for j, c in enumerate(cells) if len(c) > 1]
        s = min(i, s + 1)
    return cells


def _find(parent: list[int], x: int) -> int:
    """Root of x in a union-find over vertices (path halving)."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _join(parent: list[int], a: tuple[int, ...]) -> None:
    """Merge every vertex with its image under the automorphism a."""
    for x, y in enumerate(a):
        if x != y:
            rx, ry = _find(parent, x), _find(parent, y)
            if rx != ry:
                parent[rx] = ry


def _twin_swaps(n: int, adj: tuple[int, ...], cells: list[list[int]]) -> list[tuple[int, ...]]:
    """Transpositions of twins within one cell, automorphisms known without a
    search: each vertex swapped with the previous vertex, in vertex order, of
    its cell with the same open (false twins) or closed (true twins)
    neighbourhood. One dict holds both keys: N(v) = N(w) + w would put w in
    N(v), so v in N(w), and v in N(v). Chained, not paired with the first
    twin, so every swap past the first vertex the search individualises in
    a class still fixes it."""
    swaps = []
    for cell in cells:
        last: dict[int, int] = {}
        for v in sorted(cell):
            for key in (adj[v], adj[v] | 1 << v):
                u = last.get(key)
                last[key] = v
                if u is not None:
                    a = list(range(n))
                    a[u], a[v] = v, u
                    swaps.append(tuple(a))
    return swaps


def _search(n: int, adj: tuple[int, ...], cells: list[list[int]]):
    """Return (best labelling order, canonical bits, discovered automorphisms)."""
    best_bits: tuple[int, ...] | None = None
    best_order: list[int] | None = None
    first_bits: tuple[int, ...] | None = None
    first_order: list[int] | None = None
    first_fixed: list[int] = []
    auts: list[tuple[int, ...]] = []
    aut_seen: set[tuple[int, ...]] = set()
    identity = tuple(range(n))

    def record(order: list[int], ref: list[int]) -> None:
        a = [0] * n
        for pos in range(n):
            a[order[pos]] = ref[pos]
        t = tuple(a)
        if t != identity and t not in aut_seen:
            aut_seen.add(t)
            auts.append(t)

    def search(cells: list[list[int]], fixed: list[int], start: int) -> int:
        """Search below the node that individualised fixed, whose last
        vertex became cell start; return the depth to resume at, so that
        every node deeper than it returns at once."""
        nonlocal best_bits, best_order, first_bits, first_order, first_fixed
        depth = len(fixed)
        cells = _refine(adj, cells, start)
        if best_bits is not None:
            prefix = []
            for c in cells:
                if len(c) == 1:
                    prefix.append(c[0])
                else:
                    break
            plen = len(prefix) * (len(prefix) - 1) // 2
            if plen and _triangle_bits(adj, prefix) > best_bits[:plen]:
                return depth
        target = -1
        size = n + 1
        for i, c in enumerate(cells):
            if 1 < len(c) < size:
                target = i
                size = len(c)
        if target < 0:
            order = [c[0] for c in cells]
            bits = _triangle_bits(adj, order)
            resume = depth
            if first_bits is None:
                first_bits, first_order, first_fixed = bits, order, fixed
            elif bits == first_bits:
                record(order, first_order)
                # The automorphism fixes the prefix this path shares with the
                # first one and maps the first path's subtree below it onto
                # this one's, so the rest of this subtree holds only images
                # of explored leaves: resume where the two paths part.
                resume = 0
                while first_fixed[resume] == fixed[resume]:
                    resume += 1
            if best_bits is None or bits < best_bits:
                best_bits, best_order = bits, order
            elif bits == best_bits and order != best_order:
                record(order, best_order)
            return resume
        if not fixed:
            # the root branches: its twin swaps prune as leaf collisions do
            auts.extend(_twin_swaps(n, adj, cells))
            aut_seen.update(auts)
        # Orbits of the known automorphisms fixing the individualised prefix
        # pointwise; each one found since the last sibling is joined once.
        parent = list(range(n))
        joined = 0
        tried: list[int] = []
        for v in sorted(cells[target]):
            if tried:
                for a in auts[joined:]:
                    # joining every automorphism instead keeps all 274,668
                    # classes on 9 vertices and their codes, yet only one that
                    # fixes the prefix maps a child's subtree onto a sibling's
                    if all(a[x] == x for x in fixed):
                        _join(parent, a)
                joined = len(auts)
                # skip branches mapped to an explored one
                rv = _find(parent, v)
                if any(_find(parent, u) == rv for u in tried):
                    continue
            rest = [u for u in cells[target] if u != v]
            resume = search(
                cells[:target] + [[v], rest] + cells[target + 1 :], fixed + [v], target
            )
            if resume < depth:
                return resume
            tried.append(v)
        return depth

    search(cells, [], 0)
    assert best_order is not None
    return best_order, best_bits, auts


def canonical_code(n: int, adj: tuple[int, ...]) -> str:
    _, bits, _ = _search(n, adj, [list(range(n))])
    return bits_to_graph6(n, bits)


@lru_cache(maxsize=MEMO_SIZE)
def _small_code(adj: tuple[int, ...]) -> str:
    return canonical_code(len(adj), adj)


def canonical_form(g: Graph) -> str:
    """Canonical graph6 code: equal codes iff isomorphic graphs."""
    if g.n <= MEMO_ORDER_LIMIT:
        return _small_code(g.adj)
    return canonical_code(g.n, g.adj)


def _symmetry(g: Graph) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """(canonical order, orbits) from one search: order[pos] is the vertex at
    canonical position pos; the orbits are those of the full automorphism
    group, each sorted, listed by smallest vertex."""
    order, _, auts = _search(g.n, g.adj, [list(range(g.n))])
    parent = list(range(g.n))
    for a in auts:
        _join(parent, a)
    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(_find(parent, v), []).append(v)
    return tuple(order), list(map(tuple, classes.values()))


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Permutation lab with lab[v] = canonical position of v."""
    lab = [0] * g.n
    for pos, v in enumerate(_symmetry(g)[0]):
        lab[v] = pos
    return tuple(lab)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    return canonical_form(g) == canonical_form(h)


def automorphism_orbits(g: Graph) -> list[tuple[int, ...]]:
    """Exact orbit partition of the full automorphism group, from the same
    search as canonical_form and at the same cost."""
    return _symmetry(g)[1]


def orbit_index(orbits: list[tuple[int, ...]]) -> dict[int, int]:
    return {v: i for i, orb in enumerate(orbits) for v in orb}


def has_induced_subgraph(g: Graph, h: Graph) -> bool:
    """True iff some vertex subset of g induces a graph isomorphic to h."""
    if h.n > g.n:
        raise ValueError("pattern larger than host")
    target = canonical_form(h)
    he = h.edge_count()
    for xs in combinations(range(g.n), h.n):
        sub = g.induced_subgraph(xs)
        if sub.edge_count() == he and canonical_form(sub) == target:
            return True
    return False
