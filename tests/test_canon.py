import itertools
import random
from collections import Counter

import pytest

from deckrecon import canon
from deckrecon import (
    Graph,
    automorphism_orbits,
    canonical_form,
    canonical_labeling,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    has_induced_subgraph,
    inflate,
    is_isomorphic,
    orbit_index,
    path_graph,
)
from deckrecon.canon import (
    MEMO_ORDER_LIMIT,
    MEMO_SIZE,
    _refine,
    _search,
    _small_code,
    _symmetry,
    canonical_code,
)
from deckrecon.oracle import _build_catalog, catalog_graphs, enumerate_graphs
from deckrecon.graphs import _triangle_bits, bits_to_graph6, from_graph6
from deckrecon.modular import Kind, decompose
from deckrecon.deck import make_deck
from deckrecon.reconstruct import _small_card, reconstruct

from test_graphs import random_graph
from test_oracle import full_mask_catalog


def matching(n):
    return Graph.from_edges(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


# vertex-transitive graphs whose search trees prune by automorphisms
SYMMETRIC = [
    empty_graph(10),
    matching(12),
    matching(14),
    *(disjoint_union([cycle_graph(5)] * k) for k in (2, 3, 4)),
    petersen(),
]


def symmetric_relabellings():
    """(graph, relabelled copy) for three seeded relabellings of each graph."""
    rng = random.Random(21)
    for g in SYMMETRIC:
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            yield g, g.relabel(perm)


def test_canonical_form_is_relabel_invariant():
    rng = random.Random(42)
    for n in range(1, 10):
        for _ in range(120):
            g = random_graph(n, rng, rng.random())
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(g.relabel(perm))
    for g, h in symmetric_relabellings():
        assert canonical_form(h) == canonical_form(g)


def test_canonical_form_separates_nonisomorphic():
    # all isomorphism classes at n = 6 get pairwise distinct codes
    codes = enumerate_graphs(6)
    assert len(set(codes)) == 156


def test_canonical_code_decodes_to_isomorphic_graph():
    rng = random.Random(5)
    for _ in range(100):
        g = random_graph(rng.randrange(1, 9), rng)
        assert is_isomorphic(from_graph6(canonical_form(g)), g)


def test_canonical_labeling_maps_onto_canonical_graph():
    rng = random.Random(9)
    for _ in range(100):
        g = random_graph(rng.randrange(1, 10), rng)
        lab = canonical_labeling(g)
        assert g.relabel(lab) == from_graph6(canonical_form(g))
        # the one search's bits are those the code encodes
        assert bits_to_graph6(g.n, _symmetry(g)[2]) == canonical_form(g)
    for _, h in symmetric_relabellings():
        assert h.relabel(canonical_labeling(h)) == from_graph6(canonical_form(h))


def srg_16_6_2_2():
    """The 4x4 rook's graph and the Shrikhande graph, Cayley graphs on Z4 x Z4.

    Both are strongly regular with parameters (16, 6, 2, 2), so refinement
    splits no cell of either, yet they are not isomorphic.
    """

    def cayley(steps):
        pairs = itertools.combinations(range(16), 2)
        return Graph.from_edges(
            16, [(a, b) for a, b in pairs if ((a // 4 - b // 4) % 4, (a - b) % 4) in steps]
        )

    rook = cayley({(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)})
    shrikhande = cayley({(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)})
    return rook, shrikhande


def test_strongly_regular_pair_gets_one_code_each():
    rng = random.Random(16)
    pair = srg_16_6_2_2()
    for graphs in (pair, [g.complement() for g in pair]):
        codes = []
        for g in graphs:
            seen = set()
            for _ in range(20):
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = g.relabel(perm)
                code = canonical_form(h)
                assert h.relabel(canonical_labeling(h)) == from_graph6(code)
                seen.add(code)
            assert len(seen) == 1
            codes.append(seen.pop())
        assert codes[0] != codes[1]


LATIN_SQUARE_7 = ("1265340", "6502134", "3641052", "0356421", "2430615", "5014263", "4123506")


def latin_square_graph(square):
    """Cells of a Latin square, adjacent when they share a row, a column or
    a symbol. For LATIN_SQUARE_7 this is a rigid SRG(49, 18, 7, 6): refinement
    splits nothing and no automorphism prunes the search."""
    n = len(square)
    cells = [(r, c, square[r][c]) for r in range(n) for c in range(n)]
    pairs = itertools.combinations(enumerate(cells), 2)
    return Graph.from_edges(
        n * n, [(i, j) for (i, a), (j, b) in pairs if any(x == y for x, y in zip(a, b))]
    )


def random_latin_square(n, rng):
    """A Latin square filled cell by cell with shuffled symbols, backtracking."""
    square = [[-1] * n for _ in range(n)]

    def fill(k):
        if k == n * n:
            return True
        r, c = divmod(k, n)
        free = [s for s in range(n) if s not in square[r] and all(row[c] != s for row in square)]
        rng.shuffle(free)
        for s in free:
            square[r][c] = s
            if fill(k + 1):
                return True
        square[r][c] = -1
        return False

    fill(0)
    return square


def test_rigid_latin_square_graphs_get_one_code_each():
    rng = random.Random(49)
    for g in (latin_square_graph(LATIN_SQUARE_7), latin_square_graph(random_latin_square(8, rng))):
        codes = set()
        for _ in range(3):
            h = relabelled(g, rng)
            code = canonical_form(h)
            assert h.relabel(canonical_labeling(h)) == from_graph6(code)
            codes.add(code)
        assert len(codes) == 1, g.n


def test_is_isomorphic_basic():
    assert is_isomorphic(path_graph(4), path_graph(4).relabel([3, 1, 0, 2]))
    assert not is_isomorphic(path_graph(4), cycle_graph(4))
    assert not is_isomorphic(path_graph(4), path_graph(3))


def unpruned_code(g):
    """The smallest leaf of canon's search tree, by a search that branches on
    every vertex of the target cell (the first smallest non-singleton cell,
    as canon picks it): no automorphism or prefix pruning."""
    best = None

    def walk(cells):
        nonlocal best
        cells = _refine(g.adj, cells)
        if all(len(c) == 1 for c in cells):
            bits = _triangle_bits(g.adj, [c[0] for c in cells])
            best = bits if best is None else min(best, bits)
            return
        t = min((i for i, c in enumerate(cells) if len(c) > 1), key=lambda i: len(cells[i]))
        for v in cells[t]:
            walk(cells[:t] + [[v], [u for u in cells[t] if u != v]] + cells[t + 1 :])

    walk([list(range(g.n))])
    return bits_to_graph6(g.n, best)


def circulant(n, steps):
    return Graph.from_edges(n, [(v, (v + s) % n) for v in range(n) for s in steps])


def largest_twin_class(g):
    """The most vertices sharing one open (false twins) or closed (true
    twins) neighbourhood."""
    sizes = Counter()
    for v in range(g.n):
        sizes[g.adj[v]] += 1
        sizes[g.adj[v] | 1 << v] += 1
    return max(sizes.values())


def join(g, h):
    return disjoint_union([g.complement(), h.complement()]).complement()


def twin_rich_graphs():
    """Graphs on at most 9 vertices built from twins, whose searches canon
    seeds with twin swaps: complete multipartite graphs, threshold graphs,
    cographs, and P4 and C5 with vertices inflated to K2, its complement and
    K3. No twin class exceeds four vertices, so the unpruned search, with
    one leaf per ordering of each class, stays small."""
    rng = random.Random(24)
    K1 = empty_graph(1)
    graphs = [
        disjoint_union([complete_graph(s) for s in sizes]).complement()
        for sizes in ((1, 2), (2, 2), (1, 2, 3), (2, 2, 2), (3, 3), (2, 3, 4), (3, 3, 3), (1, 1, 3, 4))
    ]
    for _ in range(12):  # threshold: each new vertex isolated or dominating
        g = K1
        for _ in range(rng.randrange(4, 9)):
            g = join(g, K1) if rng.random() < 0.5 else disjoint_union([g, K1])
        graphs.append(g)

    def cograph(n):
        if n == 1:
            return K1
        a = rng.randrange(1, n)
        g, h = cograph(a), cograph(n - a)
        return join(g, h) if rng.random() < 0.5 else disjoint_union([g, h])

    graphs += [cograph(rng.randrange(4, 10)) for _ in range(20)]
    parts = (K1, complete_graph(2), empty_graph(2), complete_graph(3))
    for k in (path_graph(4), cycle_graph(5)):
        for _ in range(10):
            chosen = [rng.choice(parts) for _ in range(k.n)]
            if sum(p.n for p in chosen) <= 9:
                graphs.append(inflate(k, chosen))
    return [g for g in graphs if largest_twin_class(g) <= 4]


def test_pruned_search_finds_the_unpruned_minimum():
    # the catalogs to 7 vertices, every circulant on 7-10 vertices but the
    # empty and complete ones (n! leaves unpruned), and twin-rich graphs,
    # under seeded relabellings; the canonical order (`_symmetry`'s, which
    # `canonical_labeling` projects) maps each relabelling onto its code
    graphs = [from_graph6(code) for n in range(2, 8) for code in enumerate_graphs(n)]
    for n in range(7, 11):
        steps = range(1, n // 2 + 1)
        for k in range(1, len(steps)):
            graphs += [circulant(n, chosen) for chosen in itertools.combinations(steps, k)]
    graphs += twin_rich_graphs()
    rng = random.Random(31)
    for g in graphs:
        want = unpruned_code(g)
        for _ in range(3):
            h = relabelled(g, rng)
            assert canonical_code(h.n, h.adj) == want, g.to_graph6()
            assert h.relabel(canonical_labeling(h)) == from_graph6(want), g.to_graph6()


def brute_orbits(g):
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for perm in itertools.permutations(range(g.n)):
        if g.relabel(perm) == g:
            for v in range(g.n):
                a, b = find(v), find(perm[v])
                if a != b:
                    parent[a] = b
    groups = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(c)) for c in groups.values())


def test_orbits_match_brute_force_on_all_small_classes():
    for n in range(1, 7):
        for code in enumerate_graphs(n):
            g = from_graph6(code)
            assert automorphism_orbits(g) == brute_orbits(g), code


def test_orbits_match_brute_force_on_random_labelled_graphs():
    rng = random.Random(77)
    for _ in range(150):
        g = random_graph(rng.randrange(2, 8), rng, rng.random())
        assert automorphism_orbits(g) == brute_orbits(g)
    # twin-rich graphs, whose twin swaps join orbits before any leaf; past 7
    # vertices the brute force takes seconds a graph
    small = [g for g in twin_rich_graphs() if g.n <= 7]
    assert len(small) > 20
    for g in small:
        h = relabelled(g, rng)
        assert automorphism_orbits(h) == brute_orbits(h), g.to_graph6()


def test_orbits_of_symmetric_graphs():
    assert automorphism_orbits(complete_graph(12)) == [tuple(range(12))]
    assert automorphism_orbits(cycle_graph(11)) == [tuple(range(11))]
    star = Graph.from_edges(7, [(0, v) for v in range(1, 7)])
    assert automorphism_orbits(star) == [(0,), (1, 2, 3, 4, 5, 6)]
    assert automorphism_orbits(cycle_graph(13)) == [tuple(range(13))]
    assert automorphism_orbits(path_graph(13)) == [(v, 12 - v) for v in range(6)] + [(6,)]
    for g, h in symmetric_relabellings():
        assert automorphism_orbits(h) == [tuple(range(g.n))]


def test_recorded_automorphisms_preserve_adjacency():
    # the catalog build skips extensions by the automorphisms the search
    # records, so each must be a true one
    graphs = [g for n in range(8) for g in catalog_graphs(n)]
    graphs += [empty_graph(n) for n in range(10, 16)]
    graphs += [matching(n) for n in range(10, 16, 2)]
    graphs += [disjoint_union([cycle_graph(5)] * k) for k in (2, 3)]
    for g in graphs:
        for a in _search(g.n, g.adj, [list(range(g.n))])[2]:
            assert sorted(a) == list(range(g.n)), g.to_graph6()
            assert g.relabel(a) == g, (g.to_graph6(), a)


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def search_nodes(monkeypatch, g):
    """Nodes of canon's search of g, counted as refinements (one per node)."""
    calls = 0

    def counted(adj, cells, start=0):
        nonlocal calls
        calls += 1
        return _refine(adj, cells, start)

    monkeypatch.setattr(canon, "_refine", counted)
    canonical_code(g.n, g.adj)
    monkeypatch.undo()
    return calls


def full_rescan_refine(adj, cells):
    """`_refine` before it skipped splitters that cannot split, kept as its
    oracle: after every split it rescans every cell against every cell."""
    cells = [list(c) for c in cells]
    while True:
        split = False
        for s in range(len(cells)):
            smask = 0
            for v in cells[s]:
                smask |= 1 << v
            new: list[list[int]] = []
            for cell in cells:
                if len(cell) == 1:
                    new.append(cell)
                    continue
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                if len(groups) == 1:
                    new.append(cell)
                else:
                    split = True
                    for key in sorted(groups):
                        new.append(groups[key])
            if split:
                cells = new
                break
        if not split:
            return cells


def test_refinement_matches_the_full_rescan(monkeypatch):
    # Every refinement canon runs, with the start _search gives it, returns
    # the cells the full rescan returns, so the search tree cannot move.
    calls = 0

    def checked(adj, cells, start=0):
        nonlocal calls
        calls += 1
        got = _refine(adj, cells, start)
        assert got == full_rescan_refine(adj, cells), (adj, cells, start)
        return got

    # the catalogs are read before the patch and the builds are chained, so
    # the count does not depend on which tests filled the catalog memo first
    catalogs = [enumerate_graphs(n) for n in range(8)]
    monkeypatch.setattr(canon, "_refine", checked)
    assert _search(0, (), [[]])[0] == []
    classes = catalogs[0]
    for n in range(1, 8):
        classes = _build_catalog(n, classes)
        assert classes == catalogs[n]
    # every one-vertex extension on at most 6 vertices, not only those the
    # catalog build canonicalises
    for n in range(1, 7):
        assert full_mask_catalog(n, catalogs[n - 1]) == catalogs[n]
    rng = random.Random(23)
    graphs = [random_graph(n, rng) for n in range(12, 41, 4)]
    graphs += [empty_graph(20), matching(24), latin_square_graph(LATIN_SQUARE_7)]
    graphs += [disjoint_union([cycle_graph(5)] * k) for k in (2, 3, 4)]
    for g in graphs:
        h = relabelled(g, rng)
        canonical_code(h.n, h.adj)
    assert calls > 10_000


def test_backjumping_bounds_the_search_on_symmetric_graphs(monkeypatch):
    # A leaf equal to the first leaf sends the search back to the level where
    # the two paths part. Without that, the empty graph on 20 vertices takes
    # 1,350 nodes and the perfect matching on 24 takes 600-650.
    rng = random.Random(41)
    for g, bound in ((empty_graph(20), 210), (matching(24), 110)):
        for _ in range(5):
            assert search_nodes(monkeypatch, relabelled(g, rng)) <= bound, g.n


def test_twin_swaps_bound_the_search_on_the_empty_graph(monkeypatch):
    # Every swap of consecutive twins past the individualised prefix fixes
    # it, so each node prunes all its siblings: one path of 64 nodes.
    # Backjumping alone takes 64 * 65 / 2 = 2,080.
    rng = random.Random(64)
    g = empty_graph(64)
    codes = set()
    for _ in range(3):
        h = relabelled(g, rng)
        assert search_nodes(monkeypatch, h) <= 64
        codes.add(canonical_code(h.n, h.adj))
    assert codes == {canonical_form(g)}


def rooted_orbits(g):
    """The orbit partition by rooted codes: u and v share an orbit iff the
    search from the partition [[u], rest] and from [[v], rest] ends in the
    same canonical bits."""
    classes = {}
    for u in range(g.n):
        bits = _search(g.n, g.adj, [[u], [v for v in range(g.n) if v != u]])[1]
        classes.setdefault(bits, []).append(u)
    return sorted(tuple(c) for c in classes.values())


def orbit_test_graphs(rng):
    """Graphs on 10-20 vertices, past brute-force size, with and without
    symmetry: inflations with twin vertices, circulants, unions of cycles
    and paths, the Petersen graph and G(n, 1/2)."""
    parts = [empty_graph(2), complete_graph(2), empty_graph(3), path_graph(3), cycle_graph(4)]
    for _ in range(3):
        yield inflate(cycle_graph(5), [rng.choice(parts) for _ in range(5)])
        yield inflate(path_graph(4), [rng.choice(parts[2:]) for _ in range(4)])
        yield inflate(petersen(), [rng.choice(parts) for _ in range(3)] + [empty_graph(1)] * 7)
    for n in (10, 13, 16):
        steps = range(1, n // 2 + 1)
        yield circulant(n, rng.sample(steps, 2))
    yield disjoint_union([cycle_graph(5), cycle_graph(5), path_graph(4), path_graph(3)])
    yield disjoint_union([matching(6), cycle_graph(4), cycle_graph(4)])
    yield petersen()
    for n in range(10, 21, 2):
        yield random_graph(n, rng)


def test_orbits_match_rooted_codes_past_brute_force_size():
    rng = random.Random(43)
    for g in orbit_test_graphs(rng):
        assert 10 <= g.n <= 20
        h = relabelled(g, rng)
        assert automorphism_orbits(h) == rooted_orbits(h), g.to_graph6()


def test_orbit_index():
    orbits = automorphism_orbits(path_graph(4))
    idx = orbit_index(orbits)
    assert idx[0] == idx[3] and idx[1] == idx[2] and idx[0] != idx[1]


def test_induced_subgraph_search():
    house = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert has_induced_subgraph(house, cycle_graph(4))
    assert has_induced_subgraph(house, complete_graph(3))
    assert not has_induced_subgraph(house, empty_graph(3))
    with pytest.raises(ValueError):
        has_induced_subgraph(path_graph(3), path_graph(4))


def test_disconnected_and_edge_cases():
    # 0 and 1 vertices go through the one search, with no case of their own
    assert canonical_form(empty_graph(0)) == canonical_code(0, ()) == "?"
    assert canonical_form(empty_graph(1)) == canonical_code(1, (0,)) == "@"
    assert _symmetry(empty_graph(0)) == ((), [], ())
    assert _symmetry(empty_graph(1)) == ((0,), [(0,)], ())
    assert canonical_labeling(empty_graph(1)) == (0,)
    g = disjoint_union([complete_graph(3), path_graph(3)])
    perm = [5, 3, 1, 4, 2, 0]
    assert canonical_form(g) == canonical_form(g.relabel(perm))


# -- the memo of small-graph codes ----------------------------------------------


def test_memoised_codes_match_the_search():
    # cold and warm lookups both give the uncached search's code, on every
    # catalog graph and on relabelled copies of it
    rng = random.Random(11)
    _small_code.cache_clear()
    for n in range(MEMO_ORDER_LIMIT):
        for g in catalog_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            for x in (g, h, g, h):
                assert canonical_form(x) == canonical_code(x.n, x.adj), x
    assert _small_code.cache_info().hits > 0


def test_memo_stays_within_its_bound():
    rng = random.Random(12)
    _small_code.cache_clear()
    seen = set()
    while len(seen) <= MEMO_SIZE + 100:
        g = random_graph(MEMO_ORDER_LIMIT, rng)
        seen.add(g.adj)
        canonical_form(g)
    info = _small_code.cache_info()
    assert info.maxsize == MEMO_SIZE
    assert info.currsize <= MEMO_SIZE


def test_graphs_past_the_order_cap_leave_the_memo_untouched():
    rng = random.Random(13)
    canonical_form(path_graph(4))
    before = _small_code.cache_info()
    for n in (9, 10, 12, 16):
        g = random_graph(n, rng)
        assert canonical_form(g) == canonical_code(n, g.adj)
        assert canonical_form(g) == canonical_form(g)
    assert _small_code.cache_info() == before


def _outcome(res):
    graph = canonical_form(res.graph) if res.graph is not None else None
    return res.status, res.provenance, res.reason, graph


def test_reconstruct_is_the_same_with_a_cold_and_a_warm_memo():
    rng = random.Random(14)
    decks = []
    for n in range(4, 8):
        graphs = catalog_graphs(n)
        for g in rng.sample(graphs, min(60, len(graphs))):
            if decompose(g).kind is not Kind.INDECOMPOSABLE:
                decks.append(make_deck(g))
    cold = []
    for d in decks:
        _small_code.cache_clear()
        _small_card.cache_clear()
        cold.append(_outcome(reconstruct(d)))
    warm = [_outcome(reconstruct(d)) for d in decks]
    assert cold == warm
    assert {status for status, *_ in cold} == {"reconstructed", "unsupported"}
