import itertools
import random

import pytest

from deckrecon import (
    Graph,
    Graph6Error,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_graph6,
    path_graph,
)
from deckrecon.graphs import GRAPH6_HEADER, MAX_VERTICES, _check_char, _check_rows, _derived


def random_graph(n, rng, p=0.5):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_construction_validates_symmetry():
    with pytest.raises(ValueError):
        Graph(2, (2, 0))
    with pytest.raises(ValueError):
        Graph(2, (1, 2))  # loop at 0
    with pytest.raises(ValueError):
        Graph(1, (2,))  # neighbour out of range


def test_from_edges_and_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g == path_graph(4)
    assert g.degree(1) == 2
    assert g.edge_count() == 3
    assert g.adj == (0b0010, 0b0101, 0b1010, 0b0100)


def test_from_edges_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


def test_complement_involution():
    rng = random.Random(7)
    for n in range(0, 9):
        g = random_graph(n, rng)
        assert g.complement().complement() == g
    assert complete_graph(5).complement() == empty_graph(5)


def test_relabel_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(1, 9)
        g = random_graph(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        inverse = [0] * n
        for v, p in enumerate(perm):
            inverse[p] = v
        assert g.relabel(perm).relabel(inverse) == g


def test_induced_subgraph_and_delete():
    g = cycle_graph(5)
    assert g.delete_vertex(0) == path_graph(4)
    sub = g.induced_subgraph([1, 2, 4])
    assert sub.adj == (0b010, 0b001, 0b000)
    with pytest.raises(ValueError):
        g.induced_subgraph([7])


def test_components_and_connectivity():
    g = disjoint_union([path_graph(3), complete_graph(2), empty_graph(1)])
    assert g.components() == [[0, 1, 2], [3, 4], [5]]
    assert not g.is_connected()
    assert cycle_graph(4).is_connected()
    assert empty_graph(0).is_connected()
    assert empty_graph(1).is_connected()
    # one search each, against the breadth-first oracle on the graph and its complement
    rng = random.Random(3)
    for _ in range(300):
        h = random_graph(rng.randrange(0, 20), rng, rng.random())
        comps, cocomps = bfs_components(h), bfs_components(h.complement())
        assert h.components() == comps
        assert h.components((1 << h.n) - 1) == cocomps
        assert h.is_connected() == (len(comps) <= 1)
        assert h.is_co_connected() == (len(cocomps) <= 1)


def bfs_components(g):
    """Connected components by one breadth-first search per component: the
    oracle for the one reachability search behind components."""
    seen = 0
    out = []
    for start in range(g.n):
        if seen >> start & 1:
            continue
        comp = frontier = 1 << start
        while frontier:
            grow = 0
            for v in range(g.n):
                if frontier >> v & 1:
                    grow |= g.adj[v]
            frontier = grow & ~comp
            comp |= grow
        seen |= comp
        out.append([v for v in range(g.n) if comp >> v & 1])
    return out


# -- graph6 --------------------------------------------------------------------


def test_graph6_known_values():
    # documented encoding: 5 vertices, edges 02 04 13 34 encode as DQc
    g = Graph.from_edges(5, [(0, 2), (0, 4), (1, 3), (3, 4)])
    assert g.to_graph6() == "DQc"
    assert from_graph6("DQc") == g
    assert empty_graph(0).to_graph6() == "?"
    assert complete_graph(2).to_graph6() == "A_"
    assert empty_graph(2).to_graph6() == "A?"


def test_graph6_round_trip_random():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(0, 16)
        g = random_graph(n, rng, rng.random())
        assert from_graph6(g.to_graph6()) == g


def test_graph6_header_accepted_on_input():
    assert from_graph6(">>graph6<<A_") == complete_graph(2)
    assert not complete_graph(2).to_graph6().startswith(">>")


def test_graph6_long_form_length():
    g = empty_graph(63)
    code = g.to_graph6()
    assert code.startswith("~") and from_graph6(code) == g
    g64 = complete_graph(64)
    assert from_graph6(g64.to_graph6()) == g64


def bitlist_from_graph6(text):
    """The decoder that unpacks the body into a list of bits and visits every
    vertex pair: the reference for `from_graph6`."""
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
    bits = []
    for ch in body:
        value = _check_char(ch)
        bits.extend(value >> s & 1 for s in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits")
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    adj = tuple(rows)
    _check_rows(n, adj)
    return _derived(n, adj)


def _decoded(decode, text):
    try:
        g = decode(text)
    except Graph6Error as exc:
        return "error", str(exc)
    return g.n, g.adj


def test_graph6_decoder_matches_the_bit_list_reference():
    # seeded graphs on 0-64 vertices, in the short form (up to 62) and the
    # long form (any order), then single-character damage to each code:
    # equal graphs, or the same error
    rng = random.Random(23)
    for n in range(MAX_VERTICES + 1):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            g = random_graph(n, rng, p)
            short = g.to_graph6()
            body = short[1:] if n <= 62 else short[4:]
            long = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0)) + body
            for code in {short, long, GRAPH6_HEADER + short}:
                assert from_graph6(code) == bitlist_from_graph6(code) == g, code
                i = rng.randrange(len(code))
                for damaged in (
                    code[:i] + chr(rng.randrange(32, 130)) + code[i + 1 :],
                    code[:i],
                    code + chr(rng.randrange(32, 130)),
                ):
                    want = _decoded(bitlist_from_graph6, damaged)
                    assert _decoded(from_graph6, damaged) == want, damaged


def test_graph6_errors():
    with pytest.raises(Graph6Error):
        from_graph6("")
    with pytest.raises(Graph6Error):
        from_graph6("B")  # truncated body
    with pytest.raises(Graph6Error):
        from_graph6("A_X")  # trailing bytes
    with pytest.raises(Graph6Error):
        from_graph6("A" + chr(62))  # out-of-range body character
    with pytest.raises(Graph6Error):
        from_graph6("AO")  # nonzero padding bits
    with pytest.raises(Graph6Error):
        from_graph6("~~" + "?" * 10)  # 8-byte length form
    with pytest.raises(Graph6Error):
        from_graph6("~?")  # truncated long-form length field
    with pytest.raises(Graph6Error):
        from_graph6("~" + chr(63 + 1) + "??")  # n = 4096 > 64


def test_vertex_cap():
    with pytest.raises(ValueError):
        empty_graph(65)


def _validated(g):
    # the same graph built through the validating constructor
    return Graph(g.n, g.adj)


def test_derived_graphs_pass_the_validating_constructor():
    from deckrecon.oracle import catalog_graphs

    rng = random.Random(21)
    for n in range(8):
        others = catalog_graphs(max(n - 3, 0))
        for g in catalog_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            keep = [v for v in range(n) if rng.random() < 0.5]
            derived = [
                g.relabel(perm),
                g.complement(),
                g.induced_subgraph(keep),
                disjoint_union([g, rng.choice(others)]),
                from_graph6(g.to_graph6()),
            ]
            derived += [g.delete_vertex(v) for v in range(n)]
            for h in derived:
                assert h == _validated(h), (g, h)


def test_relabel_rejects_a_non_permutation():
    g = path_graph(3)
    for perm in ([0, 0, 1], [0, 1], [1, 2, 3], [0, 1, 2, 3]):
        with pytest.raises(ValueError):
            g.relabel(perm)
