import importlib
import itertools
import random

import pytest

from deckrecon import (
    Graph,
    Kind,
    canonical_form,
    complete_graph,
    critically_indecomposable,
    cycle_graph,
    decompose,
    disjoint_union,
    empty_graph,
    inflate,
    is_critically_indecomposable,
    is_indecomposable,
    is_isomorphic,
    path_graph,
)
from deckrecon.graphs import from_graph6
from deckrecon.modular import (
    ModularDecomposition,
    _bits,
    _closure,
    indecomposable_masks,
    is_module,
    maximal_proper_module_masks,
)
from deckrecon.oracle import enumerate_graphs

from test_graphs import random_graph

modular = importlib.import_module("deckrecon.modular")


def mask(vs):
    out = 0
    for v in vs:
        out |= 1 << v
    return out


def modules(g):
    """Every nonempty module as a sorted vertex tuple (singletons and V
    included), by testing each vertex subset against the definition: every
    outside vertex sees all of the set or none of it."""
    found = []
    for m in range(1, 1 << g.n):
        if all(g.adj[v] & m in (0, m) for v in range(g.n) if not m >> v & 1):
            found.append(tuple(v for v in range(g.n) if m >> v & 1))
    found.sort(key=lambda t: (len(t), t))
    return found


def pair_scan_is_indecomposable(g):
    """Reference: every pair of vertices closes to all of V."""
    full = (1 << g.n) - 1
    return all(
        _closure(g, 1 << u | 1 << v) == full
        for v in range(g.n)
        for u in range(v + 1, g.n)
    )


def pair_scan_maximal_modules(g):
    """Reference for connected, co-connected g: grow each vertex's module by
    every later vertex whose closure with it falls short of V, since two
    proper modules that share a vertex then have a proper union."""
    full = (1 << g.n) - 1
    out = []
    covered = 0
    for v in range(g.n):
        if covered >> v & 1:
            continue
        m = 1 << v
        # an earlier vertex lies in an earlier maximal module, disjoint from v's
        for u in range(v + 1, g.n):
            if not m >> u & 1:
                c = _closure(g, m | 1 << u)
                if c != full:
                    m = c
        out.append(m)
        covered |= m
    return out


def _vertex_partition(g):
    """P(g, 0): V - {0} refined by every vertex until no part is split."""
    full = (1 << g.n) - 1
    parts = [full - 1] if g.n > 1 else []
    pending = 1
    while pending:
        x = (pending & -pending).bit_length() - 1
        pending ^= 1 << x
        refined = []
        for y in parts:
            inside = g.adj[x] & y
            if y >> x & 1 or inside in (0, y):
                refined.append(y)
            else:
                refined += (inside, y ^ inside)
                pending |= y
        parts = refined
    return parts


def closure_maximal_modules(g):
    """The maximal-module search before the forcing walk, as the reference:
    every part of P(g, 0) whose closure with 0 falls short of V joins 0's
    module, one closure per part."""
    full = (1 << g.n) - 1
    parts = _vertex_partition(g)
    near = [y for y in parts if _closure(g, 1 | y & -y) != full]
    far = sorted((y for y in parts if y not in near), key=lambda m: m & -m)
    return [sum(near, 1)] + far


def _near_part_count(g):
    full = (1 << g.n) - 1
    return sum(_closure(g, 1 | y & -y) != full for y in _vertex_partition(g))


def test_is_module_examples(p4, bull):
    # in P4 = 0-1-2-3 the middle pair {1,2} is not a module, the whole set is
    assert not is_module(p4, mask([1, 2]))
    assert is_module(p4, mask([0, 1, 2, 3]))
    assert is_module(p4, mask([2]))
    # in the bull, the two horn-free degree-2 base... the pair {0, 3} of horn tips
    assert is_module(bull, mask([0, 3])) is False
    g = disjoint_union([complete_graph(2), empty_graph(1)])
    assert is_module(g, mask([0, 1]))


def test_modules_listing():
    g = complete_graph(3)
    assert modules(g) == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    found = modules(path_graph(4))
    assert found == [(0,), (1,), (2,), (3,), (0, 1, 2, 3)]


def test_indecomposable_small_convention():
    for g in (empty_graph(0), empty_graph(1), empty_graph(2), complete_graph(2)):
        assert is_indecomposable(g)
    assert not is_indecomposable(complete_graph(3))
    assert not is_indecomposable(empty_graph(3))


def test_indecomposable_examples(p4, c5, house, bull):
    for g in (p4, c5, house, bull, path_graph(5)):
        assert is_indecomposable(g)
    assert not is_indecomposable(cycle_graph(4))
    assert not is_indecomposable(complete_graph(4))


def test_indecomposable_counts_small():
    # 0, 1 and 4 indecomposable classes on 3, 4 and 5 vertices
    counts = {3: 0, 4: 1, 5: 4}
    for n, want in counts.items():
        got = [
            code
            for code in enumerate_graphs(n)
            if is_indecomposable(from_graph6(code))
        ]
        assert len(got) == want


def test_five_vertex_indecomposables_are_the_known_four(c5, house, bull):
    got = {
        code
        for code in enumerate_graphs(5)
        if is_indecomposable(from_graph6(code))
    }
    want = {canonical_form(g) for g in (path_graph(5), c5, house, bull)}
    assert got == want


def test_indecomposability_complement_invariant():
    rng = random.Random(21)
    for _ in range(200):
        g = random_graph(rng.randrange(3, 8), rng)
        assert is_indecomposable(g) == is_indecomposable(g.complement())


def test_indecomposable_masks_table_agrees_with_direct_check():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng.randrange(1, 8), rng)
        table = indecomposable_masks(g)
        for m in range(1 << g.n):
            vs = [v for v in range(g.n) if m >> v & 1]
            assert table[m] == is_indecomposable(g.induced_subgraph(vs)), (g, m)


def test_decompose_kinds(p4):
    parallel = decompose(disjoint_union([path_graph(2), path_graph(3)]))
    assert parallel.kind is Kind.PARALLEL and parallel.skeleton is modular.K2BAR
    series = decompose(complete_graph(4))
    assert series.kind is Kind.SERIES and series.skeleton is modular.K2
    # an indecomposable graph is its own skeleton, with no parts
    for g in (p4, empty_graph(1), empty_graph(2), complete_graph(2)):
        dec = decompose(g)
        assert dec.kind is Kind.INDECOMPOSABLE and dec.skeleton is g and dec.parts == ()
    with pytest.raises(ValueError):
        decompose(empty_graph(0))
    # past 20 vertices, up to the 64-vertex graph cap
    assert decompose(empty_graph(21)).kind is Kind.PARALLEL
    big = inflate(cycle_graph(5), [path_graph(60)] + [empty_graph(1)] * 4)
    dec = decompose(big)
    assert dec.kind is Kind.PRIME and dec.parts[0] == path_graph(60)


def test_decompose_prime_example(c5):
    g = inflate(c5, [complete_graph(2)] + [empty_graph(1)] * 4)
    dec = decompose(g)
    assert dec.kind is Kind.PRIME
    assert is_isomorphic(dec.skeleton, c5)
    sizes = sorted(p.n for p in dec.parts)
    assert sizes == [1, 1, 1, 1, 2]


def test_decompose_parts_cover_graph():
    g = disjoint_union([complete_graph(3), complete_graph(3), path_graph(2)])
    dec = decompose(g)
    assert dec.kind is Kind.PARALLEL
    assert sorted(p.n for p in dec.parts) == [2, 3, 3]
    dec2 = decompose(g.complement())
    assert dec2.kind is Kind.SERIES
    assert sorted(p.n for p in dec2.parts) == [2, 3, 3]


def row_built_quotient(g, part_masks):
    """Reference: the prime quotient built row by row, each part's
    neighbourhood mapped bit by bit to part indices, and validated."""
    reps = [(m & -m).bit_length() - 1 for m in part_masks]
    part_of = {r: i for i, r in enumerate(reps)}
    rows = []
    for m, r in zip(part_masks, reps):
        row = 0
        for v in _bits(g.adj[r] & ~m):
            if v in part_of:
                row |= 1 << part_of[v]
        rows.append(row)
    return Graph(len(rows), tuple(rows))


def _check_prime_round_trip(g):
    """On prime g: the skeleton is the row-built quotient, and inflating it
    by the parts gives back g vertex for vertex once block i is laid onto
    part i's vertices in increasing order; the trusted rows pass validation."""
    dec = decompose(g)
    assert dec.kind is Kind.PRIME, g.to_graph6()
    part_masks = maximal_proper_module_masks(g)
    assert dec.skeleton.adj == row_built_quotient(g, part_masks).adj, g.to_graph6()
    rebuilt = inflate(dec.skeleton, dec.parts)
    assert Graph(rebuilt.n, rebuilt.adj) == rebuilt
    perm = [v for m in part_masks for v in _bits(m)]
    assert rebuilt.relabel(perm) == g, g.to_graph6()


def test_inflate_round_trips_decomposition():
    # unique decomposition: inflating the skeleton by the intervals returns
    # the graph vertex for vertex, for prime graphs up to 8 vertices and the
    # relabelled inflations on 9-64 vertices and their complements
    rng = random.Random(8)
    checked = 0
    for n in range(4, 9):
        codes = list(enumerate_graphs(n))
        rng.shuffle(codes)
        for code in codes[:120]:
            g = from_graph6(code)
            if decompose(g).kind is Kind.PRIME:
                _check_prime_round_trip(g)
                checked += 1
    assert checked > 40
    for h in relabelled_inflations(rng):
        if decompose(h).kind is Kind.PRIME:
            _check_prime_round_trip(h)
            checked += 1
    assert checked > 200


def test_inflate_validates():
    with pytest.raises(ValueError):
        inflate(path_graph(3), [empty_graph(1)] * 2)
    with pytest.raises(ValueError):
        inflate(path_graph(2), [empty_graph(0), empty_graph(1)])
    # inflate checks the 64-vertex cap itself: its rows skip validation
    assert inflate(path_graph(2), [empty_graph(32)] * 2).n == 64
    for n in (65, 66):
        with pytest.raises(ValueError, match="exceeds 64 vertices"):
            inflate(path_graph(2), [empty_graph(n - 32), empty_graph(32)])


def test_skeleton_values(p4, c5):
    assert decompose(p4).skeleton == p4
    assert decompose(disjoint_union([p4, p4])).skeleton == empty_graph(2)
    assert decompose(complete_graph(5)).skeleton == complete_graph(2)
    g = inflate(c5, [complete_graph(3)] + [empty_graph(1)] * 4)
    assert is_isomorphic(decompose(g).skeleton, c5)


def test_maximal_modules_partition_prime_graphs():
    rng = random.Random(17)
    for _ in range(300):
        g = random_graph(rng.randrange(4, 9), rng)
        dec = decompose(g)
        if dec.kind is not Kind.PRIME:
            continue
        masks = maximal_proper_module_masks(g)
        seen = 0
        for m in masks:
            assert not seen & m
            seen |= m
        assert seen == (1 << g.n) - 1


def pairwise_decompose(g):
    """The decomposition with component lists up front and the module check
    per part pair and per vertex: the reference for `decompose`."""
    if g.n <= 2:
        return ModularDecomposition(Kind.INDECOMPOSABLE, g)
    comps = g.components()
    if len(comps) > 1:
        return ModularDecomposition(
            Kind.PARALLEL, empty_graph(2), tuple(g.induced_subgraph(c) for c in comps)
        )
    cocomps = g.complement().components()
    if len(cocomps) > 1:
        return ModularDecomposition(
            Kind.SERIES, complete_graph(2), tuple(g.induced_subgraph(c) for c in cocomps)
        )
    part_masks = modular.maximal_proper_module_masks(g)
    if len(part_masks) == g.n:
        return ModularDecomposition(Kind.INDECOMPOSABLE, g)
    k = len(part_masks)
    reps = [(m & -m).bit_length() - 1 for m in part_masks]
    rows = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if g.adj[reps[i]] & part_masks[j] == part_masks[j]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            for u in _bits(part_masks[i]):
                cross = g.adj[u] & part_masks[j]
                if cross not in (0, part_masks[j]):
                    raise RuntimeError("module boundary violated between quotient parts")
    intervals = tuple(g.induced_subgraph(_bits(m)) for m in part_masks)
    return ModularDecomposition(Kind.PRIME, Graph(k, tuple(rows)), intervals)


def _rows(dec):
    skeleton = (dec.skeleton.n, dec.skeleton.adj)
    parts = [(p.n, p.adj) for p in dec.parts]
    return dec.kind, skeleton, parts


def test_decompose_matches_the_pairwise_check():
    # kind, skeleton rows and part rows, in order, at every kind: every catalog
    # graph up to 7 vertices, then seeded inflations and unions at 12-20
    for n in range(1, 8):
        for code in enumerate_graphs(n):
            g = from_graph6(code)
            assert _rows(decompose(g)) == _rows(pairwise_decompose(g)), code
    rng = random.Random(29)
    kinds = set()
    for _ in range(150):
        n = rng.randrange(12, 21)
        k = rng.randrange(4, 9)
        host = rng.choice([path_graph(k), cycle_graph(max(k, 5)), random_graph(k, rng)])
        sizes = [1] * host.n
        for _ in range(n - host.n):
            sizes[rng.randrange(host.n)] += 1
        g = inflate(host, [random_graph(s, rng, rng.random()) for s in sizes])
        g = g.relabel(rng.sample(range(g.n), g.n))
        others = (g.complement(), disjoint_union([g.delete_vertex(0), path_graph(2)]))
        for h in (g, *others, random_graph(n, rng)):
            dec = decompose(h)
            kinds.add(dec.kind)
            assert _rows(dec) == _rows(pairwise_decompose(h)), h.to_graph6()
    assert kinds == set(Kind)


def test_decompose_rejects_a_part_that_is_no_module(monkeypatch, p4):
    # P4 split as {0, 1}, {2}, {3}, in two orders: 2 sees 1 but not 0. The
    # pairwise check tests a part only against vertices of earlier parts, so
    # it misses the first order; the check against each part's
    # representative catches both
    for masks in ([0b0011, 0b0100, 0b1000], [0b0100, 0b0011, 0b1000]):
        monkeypatch.setattr(modular, "maximal_proper_module_masks", lambda g: masks)
        with pytest.raises(RuntimeError, match="module boundary violated"):
            decompose(p4)
    with pytest.raises(RuntimeError, match="module boundary violated"):
        pairwise_decompose(p4)


def test_singleton_intervals_share_one_graph():
    g = inflate(cycle_graph(5), [complete_graph(2)] + [empty_graph(1)] * 4)
    singles = [p for p in decompose(g).parts if p.n == 1]
    assert len(singles) == 4 and all(p is modular.SINGLETON for p in singles)
    assert modular.SINGLETON == empty_graph(1)


def _check_modules(g, indecomposable, maximal):
    """Compare with a reference's primality and, on connected and co-connected
    g, with its maximal proper modules by lowest vertex, from maximal()."""
    assert is_indecomposable(g) == indecomposable, g
    if g.n < 3 or len(g.components()) > 1 or len(g.complement().components()) > 1:
        return
    masks = maximal()
    assert maximal_proper_module_masks(g) == masks, g
    dec = decompose(g)
    if len(masks) == g.n:
        assert dec.kind is Kind.INDECOMPOSABLE
        return
    # PRIME intervals are the maximal modules, listed by lowest vertex
    assert dec.kind is Kind.PRIME
    parts = [g.induced_subgraph([v for v in range(g.n) if m >> v & 1]) for m in masks]
    assert list(dec.parts) == parts, g


def _check_against_module_oracle(g):
    # the subset-scan oracle lists every module, V and singletons included
    proper = [mask(t) for t in modules(g) if len(t) < g.n]

    def maximal():
        out = [m for m in proper if not any(m != o and m & o == m for o in proper)]
        return sorted(out, key=lambda m: m & -m)

    _check_modules(g, all(m.bit_count() == 1 for m in proper), maximal)


def test_module_closure_agrees_with_subset_scan_on_catalogs():
    for n in range(0, 9):
        for code in enumerate_graphs(n):
            _check_against_module_oracle(from_graph6(code))


def test_module_closure_agrees_with_subset_scan_past_eight_vertices():
    rng = random.Random(41)
    for i in range(200):
        n = rng.randrange(9, 17)
        if i % 2:
            g = random_graph(n, rng)
        else:
            k = rng.randrange(4, 8)
            sizes = [1] * k
            for _ in range(n - k):
                sizes[rng.randrange(k)] += 1
            g = inflate(path_graph(k), [random_graph(s, rng) for s in sizes])
        _check_against_module_oracle(g)


def _check_against_pair_scan(g):
    _check_modules(g, pair_scan_is_indecomposable(g), lambda: pair_scan_maximal_modules(g))


def test_modules_agree_with_pair_scan_past_sixteen_vertices():
    # past the subset scan, the closure of every vertex pair is the reference
    rng = random.Random(43)

    def shuffled(g):
        return g.relabel(rng.sample(range(g.n), g.n))

    def inflated(host, n):
        sizes = [1] * host.n
        for _ in range(n - host.n):
            sizes[rng.randrange(host.n)] += 1
        return shuffled(inflate(host, [random_graph(s, rng, rng.random()) for s in sizes]))

    for _ in range(12):
        n = rng.randrange(17, 65)
        g = random_graph(n, rng)
        _check_against_pair_scan(g)
        rest = random_graph(rng.randrange(1, 66 - n), rng) if n < 64 else empty_graph(1)
        _check_against_pair_scan(disjoint_union([g.delete_vertex(0), rest]))
        _check_against_pair_scan(inflated(path_graph(rng.randrange(4, 9)), n))
        _check_against_pair_scan(inflated(cycle_graph(rng.randrange(5, 9)), n))
    for n in (18, 32, 64):
        for complemented in (False, True):
            g = critically_indecomposable(n, complemented)
            _check_against_pair_scan(g)
            _check_against_pair_scan(shuffled(g))


def _check_against_closures(g):
    """Same masks as one closure per part on connected, co-connected g, and
    the same primality verdict on every g."""
    masks, want = maximal_proper_module_masks(g), closure_maximal_modules(g)
    assert is_indecomposable(g) == (g.n <= 2 or len(want) == g.n), g.to_graph6()
    if g.is_connected() and g.is_co_connected():
        assert masks == want, g.to_graph6()


def relabelled_inflations(rng):
    """120 inflations on 9-64 vertices, each relabelled twice, and the
    complement of each: vertex 0 once inside a non-singleton interval, where
    the forcing walk may start at a near part, and once in a singleton one."""
    for i in range(120):
        n = rng.randrange(9, 65)
        k = rng.randrange(4, min(n, 12))
        host = [path_graph(k), cycle_graph(max(k, 5)), random_graph(k, rng)][i % 3]
        sizes = [1] * host.n
        for _ in range(n - host.n):
            sizes[rng.randrange(host.n - 1)] += 1
        g = inflate(host, [random_graph(s, rng, rng.random()) for s in sizes])
        blocks = [range(sum(sizes[:j]), sum(sizes[: j + 1])) for j in range(host.n)]
        for size in (lambda s: s > 1, lambda s: s == 1):
            u = rng.choice([v for b, s in zip(blocks, sizes) if size(s) for v in b])
            perm = rng.sample(range(g.n), g.n)
            w = perm.index(0)
            perm[u], perm[w] = 0, perm[u]
            yield g.relabel(perm)
            yield g.relabel(perm).complement()


def test_forcing_walk_matches_one_closure_per_part(monkeypatch):
    rng = random.Random(53)
    for n in range(1, 9):
        for code in enumerate_graphs(n):
            g = from_graph6(code)
            _check_against_closures(g)
            _check_against_closures(g.relabel(rng.sample(range(n), n)))
    calls = _count_forcing_searches(monkeypatch)
    longest = 0
    for h in relabelled_inflations(rng):
        calls.clear()
        _check_against_closures(h)
        longest = max(longest, len({start for start, _ in calls}))
    assert longest >= 3
    for n in range(4, 65, 2):
        for complemented in (False, True):
            _check_against_closures(critically_indecomposable(n, complemented))


def _count_forcing_searches(monkeypatch):
    """Record (start, backward) of every forcing search, and fail on any
    closure asked by the maximal-module search."""
    calls = []
    forced = modular._forced

    def counting(g, reps, start, backward=False):
        calls.append((start, backward))
        return forced(g, reps, start, backward)

    def no_closure(g, mask):
        raise AssertionError("maximal_proper_module_masks asked a closure")

    monkeypatch.setattr(modular, "_forced", counting)
    monkeypatch.setattr(modular, "_closure", no_closure)
    return calls


def test_modules_ask_two_forcing_searches_per_walk_step(monkeypatch):
    calls = _count_forcing_searches(monkeypatch)
    # prime: the walk's first part reaches every part, one step
    assert is_indecomposable(critically_indecomposable(20))
    assert len(calls) == 2
    calls.clear()
    # vertex 0 inside the K3 interval: the walk starts at the near part {1, 2}
    # and steps once to a far part (4 searches); the prime quotient takes 2
    g = inflate(cycle_graph(16), [complete_graph(3), empty_graph(4)] + [complete_graph(4)] * 14)
    assert g.n == 63 and decompose(g).kind is Kind.PRIME
    assert calls == [(2, False), (2, True), (8, False), (8, True), (2, False), (2, True)]
    # in general: a forward and a reverse search per step, from a new part each
    # time, and every step but the last leaves a near part
    monkeypatch.undo()
    rng = random.Random(47)
    for _ in range(300):
        g = random_graph(rng.randrange(3, 20), rng, rng.random())
        near = _near_part_count(g)
        calls = _count_forcing_searches(monkeypatch)
        maximal_proper_module_masks(g)
        monkeypatch.undo()
        starts = calls[::2]
        assert calls == [c for s, _ in starts for c in ((s, False), (s, True))]
        assert len(set(starts)) == len(starts) <= near + 1, g.to_graph6()


def test_half_graphs():
    for n in (4, 6, 8, 10):
        g = critically_indecomposable(n)
        assert g.n == n and is_indecomposable(g)
        assert is_indecomposable(g.complement())
    assert is_isomorphic(critically_indecomposable(4), path_graph(4))
    with pytest.raises(ValueError):
        critically_indecomposable(5)
    with pytest.raises(ValueError):
        critically_indecomposable(2)
    # the Graph it builds enforces the 64-vertex cap
    assert critically_indecomposable(64).n == 64
    for n in (65, 66):
        with pytest.raises(ValueError):
            critically_indecomposable(n)


def test_critically_indecomposable_predicate(p4, c5, bull):
    assert is_critically_indecomposable(p4)
    assert is_critically_indecomposable(critically_indecomposable(6))
    assert is_critically_indecomposable(critically_indecomposable(6, True))
    assert not is_critically_indecomposable(c5)
    assert not is_critically_indecomposable(bull)
    assert not is_critically_indecomposable(complete_graph(4))
    # past 12 vertices as well
    for n in (14, 20):
        for complemented in (False, True):
            assert is_critically_indecomposable(critically_indecomposable(n, complemented))


def test_critically_indecomposable_census():
    # on 4..8 vertices exactly the half-graphs and complements qualify,
    # and the two 4-vertex versions coincide (P4 is self-complementary)
    got = {
        n: sorted(
            code
            for code in enumerate_graphs(n)
            if is_critically_indecomposable(from_graph6(code))
        )
        for n in range(4, 9)
    }
    assert len(got[4]) == 1
    assert len(got[5]) == 0 and len(got[7]) == 0
    assert len(got[6]) == 2
    assert len(got[8]) == 2
    assert got[6] == sorted(
        canonical_form(critically_indecomposable(6, c)) for c in (False, True)
    )
