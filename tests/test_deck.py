import random

import pytest

from deckrecon import canon
from deckrecon import (
    Deck,
    DeckError,
    DeckIntegrityError,
    canonical_form,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_count_from_deck,
    empty_graph,
    inflate,
    is_isomorphic,
    load_deck,
    make_deck,
    parse_deck_text,
    path_graph,
    reconstruct,
)
from deckrecon.graphs import from_graph6
from deckrecon.oracle import enumerate_graphs

from test_canon import circulant, matching, relabelled
from test_graphs import random_graph


def test_make_deck_c5(c5):
    d = make_deck(c5)
    assert d.n == 5
    assert d.cards == (canonical_form(path_graph(4)),) * 5


def test_deck_validation():
    with pytest.raises(DeckError):
        Deck(0, ())
    with pytest.raises(DeckError):
        Deck(2, ("@",))  # wrong card count
    p4 = canonical_form(path_graph(4))
    with pytest.raises(DeckError):
        Deck(4, (p4,) * 4)  # card order 4 != n-1
    with pytest.raises(DeckError):
        Deck(65, (empty_graph(64).to_graph6(),) * 65)  # past the 64-vertex graph cap
    a, b = sorted([canonical_form(empty_graph(2)), canonical_form(complete_graph(2))])
    assert Deck(3, (b, a, a)).cards == (a, a, b)  # cards are sorted


def test_deck_canonicalises_relabelled_cards():
    # C5 with one vertex inflated to K2; DJs is its card DJk relabelled
    g = inflate(cycle_graph(5), [complete_graph(2)] + [empty_graph(1)] * 4)
    d = make_deck(g)
    assert d.cards == ("DJk", "DJk", "DK[", "DK[", "DLo", "DLo")
    relabelled = Deck(6, ("DJk", "DJs", "DK[", "DK[", "DLo", "DLo"))
    assert relabelled == d
    res = reconstruct(relabelled)
    assert res.reconstructed and is_isomorphic(res.graph, g)


def test_deck_equal_and_cards():
    d1 = make_deck(cycle_graph(4))
    d2 = make_deck(cycle_graph(4).relabel([2, 0, 3, 1]))
    assert d1 == d2
    assert d1 != make_deck(path_graph(4))


def test_decks_of_one_vertex_and_none():
    assert make_deck(empty_graph(1)) == Deck(1, ("?",))
    with pytest.raises(ValueError):
        make_deck(empty_graph(0))


def per_vertex_cards(g):
    """The deck's cards by one search per vertex: the oracle for make_deck's
    route of one search per orbit."""
    return tuple(sorted(canonical_form(g.delete_vertex(v)) for v in range(g.n)))


def test_orbit_route_deck_matches_the_per_vertex_deck():
    rng = random.Random(17)
    parts = [empty_graph(2), complete_graph(2), empty_graph(3), path_graph(3)]
    graphs = [empty_graph(n) for n in (10, 13, 20)]
    graphs += [matching(n) for n in (10, 16, 24)]
    graphs += [disjoint_union([cycle_graph(5)] * k) for k in (2, 3, 4)]
    graphs += [circulant(n, rng.sample(range(1, n // 2 + 1), 2)) for n in (10, 14, 19)]
    graphs += [inflate(cycle_graph(5), [rng.choice(parts) for _ in range(5)]) for _ in range(4)]
    graphs += [inflate(path_graph(4), [rng.choice(parts) for _ in range(4)]) for _ in range(4)]
    graphs += [random_graph(n, rng) for n in range(9, 25)]
    # every catalog graph on 1-7 vertices, and symmetric graphs on 9-16
    graphs += [from_graph6(code) for n in range(1, 8) for code in enumerate_graphs(n)]
    for n in range(9, 17):
        graphs += [empty_graph(n), matching(n), circulant(n, rng.sample(range(1, n // 2 + 1), 2))]
        graphs.append(disjoint_union([cycle_graph(5)] * (n // 5) + [empty_graph(n % 5)]))
    for g in graphs:
        for _ in range(2):
            h = relabelled(g, rng)
            assert make_deck(h).cards == per_vertex_cards(h), g.to_graph6()


def test_symmetric_decks_at_the_graph_cap_take_one_search_per_orbit(monkeypatch):
    # The empty graph, a perfect matching and twelve disjoint C5s are one
    # orbit each: make_deck searches the graph once and one card once.
    search = canon._search
    searches = []

    def counted(n, adj, cells):
        searches.append(n)
        return search(n, adj, cells)

    empty63 = empty_graph(63).to_graph6()  # every labelling of it is canonical
    monkeypatch.setattr(canon, "_search", counted)
    assert Deck(64, (empty63,) * 64).cards == (empty63,) * 64
    assert searches == [63]
    rng = random.Random(64)
    for g in (empty_graph(64), matching(64), disjoint_union([cycle_graph(5)] * 12)):
        searches.clear()
        h = relabelled(g, rng)
        d = make_deck(h)
        assert len(searches) <= 2
        assert d.n == g.n and len(set(d.cards)) == 1
        assert edge_count_from_deck(d) == g.edge_count()


def test_edge_count_identity_random():
    rng = random.Random(4)
    for _ in range(80):
        g = random_graph(rng.randrange(3, 9), rng, rng.random())
        assert edge_count_from_deck(make_deck(g)) == g.edge_count()


def test_edge_count_rejects_inconsistent_deck():
    k3 = canonical_form(complete_graph(3))
    e3 = canonical_form(empty_graph(3))
    cards = tuple(sorted([k3, e3, e3, e3]))  # edge sum 3 is odd, n - 2 = 2
    with pytest.raises(DeckIntegrityError):
        edge_count_from_deck(Deck(4, cards))
    with pytest.raises(ValueError):
        edge_count_from_deck(make_deck(complete_graph(2)))


def test_parse_deck_text_and_files(tmp_path, c5):
    d = make_deck(c5)
    text = "# a comment\n\n" + "\n".join(d.cards) + "\n"
    assert parse_deck_text(text) == d
    path = tmp_path / "deck.g6"
    path.write_text(text)
    assert load_deck(path) == d


def test_parse_deck_text_canonicalises_cards():
    g = path_graph(4)
    raw = "\n".join(g.delete_vertex(v).to_graph6() for v in range(4))
    assert parse_deck_text(raw) == make_deck(g)


def test_parse_deck_text_rejects_bad_input():
    with pytest.raises(DeckError):
        parse_deck_text("# only comments\n")
    with pytest.raises(DeckError):
        parse_deck_text("A_\nB?\n")  # mixed card orders
