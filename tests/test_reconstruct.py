import importlib
import random
import weakref
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from deckrecon import (
    Deck,
    DeckIntegrityError,
    Graph,
    automorphism_orbits,
    canonical_form,
    complete_graph,
    critically_indecomposable,
    cycle_graph,
    decompose,
    disjoint_union,
    empty_graph,
    in_family_G,
    inflate,
    interval_single_large,
    interval_single_pair,
    intervals_multi,
    is_critically_indecomposable,
    is_indecomposable,
    is_isomorphic,
    make_deck,
    orbit_index,
    path_graph,
    reconstruct,
    reconstruct_degenerate,
    relaxed_skeleton_condition,
    singleton_count,
    skeleton_from_deck,
)
from deckrecon.graphs import from_graph6
from deckrecon.modular import Kind
from deckrecon.oracle import _open_case, enumerate_graphs, oracle_preimages

from test_canon import circulant, matching, relabelled
from test_graphs import random_graph

# the package re-exports a function under the module's name
rc = importlib.import_module("deckrecon.reconstruct")

K2 = complete_graph(2)
K1 = empty_graph(1)

# catalog members that reconstruction provably cannot settle from the deck alone
HEREDITARY_WITNESS = "E?No"  # P4 skeleton, two edge intervals sharing hereditary orbit sets
UNIDENTIFIABLE_WITNESS = "D@s"  # P4 skeleton (critically indecomposable) with one edge interval


def c5_with_edge_interval(c5):
    return inflate(c5, [K2, K1, K1, K1, K1])


# -- skeleton and singleton count ------------------------------------------------


def test_skeleton_from_deck(c5):
    g = c5_with_edge_interval(c5)
    d = make_deck(g)
    k = skeleton_from_deck(d)
    assert is_isomorphic(k, c5)
    # on a pair deck the skeleton is the card itself, as decoded
    assert k.to_graph6() in d.cards


def test_skeleton_from_deck_needs_prime_cards():
    with pytest.raises(DeckIntegrityError):
        skeleton_from_deck(make_deck(complete_graph(5)))


def test_skeleton_from_deck_on_decks_of_one_to_four_cards(monkeypatch):
    # no card of such a deck has four vertices, so no card is read
    def refuse(_):
        raise AssertionError("a card was decomposed")

    monkeypatch.setattr(rc, "decompose", refuse)
    rc._small_card.cache_clear()
    decks = [Deck(1, ("?",))]
    decks += [make_deck(from_graph6(code)) for n in range(2, 5) for code in enumerate_graphs(n)]
    for d in decks:
        rc._cards.cache_clear()
        with pytest.raises(DeckIntegrityError, match="no card has a skeleton on four or more"):
            skeleton_from_deck(d)
    rc._cards.cache_clear()


def test_singleton_count(c5):
    g = c5_with_edge_interval(c5)
    d = make_deck(g)
    assert singleton_count(d, c5) == 4
    h = inflate(c5, [K2, complete_graph(3), K1, K1, K1])
    assert singleton_count(make_deck(h), c5) == 3


# -- interval recovery -------------------------------------------------------------


def test_intervals_multi_two_intervals(c5):
    g = inflate(c5, [K2, empty_graph(2), K1, K1, K1])
    got = intervals_multi(make_deck(g), c5)
    assert sorted(canonical_form(p) for _, p in got) == sorted(
        [canonical_form(K2), canonical_form(empty_graph(2))]
    )
    # C5 is vertex-transitive, so both carry the single orbit tag
    assert {t for t, _ in got} == {0}


def test_intervals_multi_orbit_tags(bull):
    # bull: horn tips 0, 3 form one orbit; inflate a tip and a base vertex
    oix = orbit_index(automorphism_orbits(bull))
    g = inflate(bull, [complete_graph(3), K2, K1, K1, K1])
    got = intervals_multi(make_deck(g), bull)
    want = {(oix[0], canonical_form(complete_graph(3))), (oix[1], canonical_form(K2))}
    assert {(t, canonical_form(p)) for t, p in got} == want


def test_intervals_multi_rejects_single_interval(c5):
    g = c5_with_edge_interval(c5)
    with pytest.raises(ValueError):
        intervals_multi(make_deck(g), c5)


def lone_interval_inflation(k, pos, part, rng):
    g = inflate(k, [part if i == pos else K1 for i in range(k.n)])
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def prime_interval(n, rng):
    """A seeded random graph on n vertices, connected and co-connected."""
    while True:
        g = random_graph(n, rng)
        if g.is_connected() and g.complement().is_connected():
            return g


def large_interval_cases(c5, bull):
    """(graph, skeleton, interval) with one non-singleton interval of size >= 3.

    Past the first, the skeleton is P4 or the bull with its interval at the
    nose, so every skeleton-changing card is degenerate, with the interval
    under one or two lone-vertex layers; and the interval has 9-12 vertices.
    """
    p4 = path_graph(4)
    cases = [(inflate(c5, [path_graph(3), K1, K1, K1, K1]), c5, path_graph(3))]
    rng = random.Random(17)
    for pos, n in enumerate(range(9, 13)):
        part = prime_interval(n, rng)
        cases.append((lone_interval_inflation(p4, pos, part, rng), p4, part))
        part = prime_interval(n, rng)
        cases.append((lone_interval_inflation(bull, 4, part, rng), bull, part))
    g = from_graph6("LgPAD~JPqQXxXx")  # P4 with a 10-vertex interval at an inner vertex
    cases.append((g, p4, max(decompose(g).parts, key=lambda p: p.n)))
    return cases


def test_interval_single_large(c5, bull):
    for g, k, part in large_interval_cases(c5, bull):
        got = interval_single_large(make_deck(g), k)
        assert is_isomorphic(got, part)
        assert_reconstructs(g, "single large interval splice")


def test_interval_single_large_degenerate_interval(c5):
    part = disjoint_union([K2, K1])
    g = inflate(c5, [part, K1, K1, K1, K1])
    got = interval_single_large(make_deck(g), c5)
    assert is_isomorphic(got, part)


def indecomposable(n, rng):
    """A seeded random indecomposable graph on n >= 4 vertices."""
    while True:
        g = random_graph(n, rng)
        if is_indecomposable(g):
            return g


# each interval shape, and the fewest vertices it can have
INTERVAL_SHAPES = {"parallel": 3, "series": 3, "prime": 5, "indecomposable": 4}


def interval_of_shape(shape, n, rng):
    """A seeded interval on n vertices: disconnected, co-disconnected,
    connected and co-connected with a prime quotient, or indecomposable."""
    if shape == "parallel":
        return disjoint_union([prime_interval(n - 1, rng) if n > 4 else path_graph(n - 1), K1])
    if shape == "series":
        return interval_of_shape("parallel", n, rng).complement()
    if shape == "prime":
        return inflate(path_graph(4), [random_graph(n - 3, rng), K1, K1, K1])
    return indecomposable(n, rng)


def deep_card_cases():
    """(graph, skeleton, interval) with one interval on 3-12 vertices in a
    half-graph, its complement or a seeded prime skeleton on 6-10 vertices, at
    one vertex of each orbit: the interval can sit two or more levels down the
    decomposition trees of the skeleton-changing cards."""
    rng = random.Random(18)
    skeletons = [critically_indecomposable(n, flip) for n in (6, 8) for flip in (False, True)]
    skeletons += [indecomposable(n, rng) for n in (6, 8, 10)]
    spots = [(k, orbit[0]) for k in skeletons for orbit in automorphism_orbits(k)]
    for i, (k, v) in enumerate(spots):
        shape = list(INTERVAL_SHAPES)[i % 4]
        part = interval_of_shape(shape, max(INTERVAL_SHAPES[shape], 3 + i % 10), rng)
        yield lone_interval_inflation(k, v, part, rng), k, part
    for code in ("LhCG???~wF?K?G", "K?CG?F~^p}Bw"):  # H8 with P6, and with P3 + K2
        g = from_graph6(code)
        dec = decompose(g)
        yield g, dec.skeleton, max(dec.parts, key=lambda p: p.n)


def test_interval_single_large_in_deep_cards():
    for g, k, part in deep_card_cases():
        got = interval_single_large(make_deck(g), k)
        assert is_isomorphic(got, part), g.to_graph6()
        assert_reconstructs(g, "single large interval splice")


def test_interval_single_pair_vertex_transitive(c5):
    g = c5_with_edge_interval(c5)
    part, positions = interval_single_pair(make_deck(g), c5)
    assert is_isomorphic(part, K2)
    # every position of the transitive skeleton is consistent with the evidence
    assert positions == (0, 1, 2, 3, 4)


def orbit_of(k, v):
    return next(orbit for orbit in automorphism_orbits(k) if v in orbit)


def test_interval_single_pair_empty_pair(bull):
    g = inflate(bull, [K1, K1, empty_graph(2), K1, K1])
    part, positions = interval_single_pair(make_deck(g), bull)
    assert is_isomorphic(part, empty_graph(2))
    assert positions == orbit_of(bull, 2) == (1, 2)


def test_interval_single_pair_critical_skeleton():
    half6 = critically_indecomposable(6)
    for pos in range(6):
        for part in (K2, empty_graph(2)):
            parts = [part if i == pos else K1 for i in range(6)]
            g = inflate(half6, parts)
            got, positions = interval_single_pair(make_deck(g), half6)
            assert is_isomorphic(got, part)
            assert positions == orbit_of(half6, pos)


def pair_graphs_up_to_seven_vertices():
    """(graph, decomposition) for each catalog graph on 4-7 vertices whose
    one non-singleton maximal interval has two vertices."""
    for n in range(4, 8):
        for code in enumerate_graphs(n):
            g = from_graph6(code)
            dec = decompose(g)
            if dec.kind is Kind.PRIME and sorted(p.n for p in dec.parts)[-2:] == [1, 2]:
                yield g, dec


def test_interval_single_pair_on_every_pair_deck():
    # given each graph's own skeleton, the positions are exactly the orbit
    # of the interval's position
    seen = 0
    for g, dec in pair_graphs_up_to_seven_vertices():
        [(pos, part)] = [(pos, p) for pos, p in enumerate(dec.parts) if p.n == 2]
        got, positions = interval_single_pair(make_deck(g), dec.skeleton)
        assert is_isomorphic(got, part), g.to_graph6()
        assert positions == orbit_of(dec.skeleton, pos), g.to_graph6()
        seen += 1
    assert seen == 228


def test_pair_decks_build_few_splice_decks(monkeypatch):
    # a splice whose degree sequence is not the deck's never has its deck built
    built = []

    def building(g):
        built.append(g)
        return make_deck(g)

    decks = [make_deck(g) for g, _ in pair_graphs_up_to_seven_vertices()]
    monkeypatch.setattr(rc, "make_deck", building)
    rc._cards.cache_clear()
    for d in decks:
        reconstruct(d)
    assert len(decks) == 228
    assert len(built) == 282


# -- families ------------------------------------------------------------------


def test_family_predicates_on_small_graphs(c5):
    assert in_family_G(c5)  # one orbit, and it lifts from every card


def test_relaxed_condition_examples(c5, p4, bull):
    assert relaxed_skeleton_condition(c5)
    assert relaxed_skeleton_condition(bull)
    assert not relaxed_skeleton_condition(p4)  # critically indecomposable
    half6 = critically_indecomposable(6)
    assert not relaxed_skeleton_condition(half6)
    with pytest.raises(ValueError):
        relaxed_skeleton_condition(complete_graph(4))


def test_family_G_implies_relaxed():
    for n in (5, 6, 7):
        for code in enumerate_graphs(n):
            g = from_graph6(code)
            if not is_indecomposable(g):
                continue
            if in_family_G(g):
                assert relaxed_skeleton_condition(g), code


def per_vertex_lifting(g):
    """The lifting vertices by one card code and one lift test per vertex:
    the oracle for the test of one vertex per orbit."""
    oix = orbit_index(automorphism_orbits(g))
    cards = [canonical_form(g.delete_vertex(v)) for v in range(g.n)]
    out = []
    for w in range(g.n):
        if any(cards[x] == cards[w] and oix[x] != oix[w] for x in range(g.n)):
            continue
        back = [x for x in range(g.n) if x != w]
        if all(
            len({oix[back[i]] for i in orb}) == 1
            for orb in automorphism_orbits(g.delete_vertex(w))
        ):
            out.append(w)
    return out


def test_lifting_per_orbit_matches_the_per_vertex_test():
    # every catalog graph on 1-7 vertices, relabelled, and seeded symmetric
    # graphs on 9-16 vertices, some with a vertex inflated to break the symmetry
    rng = random.Random(26)
    graphs = [from_graph6(code) for n in range(1, 8) for code in enumerate_graphs(n)]
    for n in range(9, 17):
        c = circulant(n, rng.sample(range(1, n // 2 + 1), 2))
        c5s = disjoint_union([cycle_graph(5)] * (n // 5) + [empty_graph(n % 5)])
        graphs += [empty_graph(n), matching(n), c5s, c]
        graphs.append(inflate(c.delete_vertex(0), [K2] + [K1] * (n - 2)))
    for g in graphs:
        h = relabelled(g, rng)
        assert rc._lifting_vertices(h) == per_vertex_lifting(h), g.to_graph6()


# -- degenerate graphs -----------------------------------------------------------


def test_reconstruct_degenerate_parallel():
    g = disjoint_union([complete_graph(3), path_graph(3), K1])
    got = reconstruct_degenerate(make_deck(g))
    assert is_isomorphic(got, g)


def test_reconstruct_degenerate_series():
    g = disjoint_union([complete_graph(3), path_graph(3), K1]).complement()
    got = reconstruct_degenerate(make_deck(g))
    assert is_isomorphic(got, g)


def test_reconstruct_degenerate_equal_components():
    g = disjoint_union([path_graph(3)] * 2)
    assert is_isomorphic(reconstruct_degenerate(make_deck(g)), g)


def test_reconstruct_degenerate_rejects_connected_input(c5):
    with pytest.raises(DeckIntegrityError):
        reconstruct_degenerate(make_deck(c5))


def complemented(d):
    return Deck(d.n, tuple(from_graph6(code).complement().to_graph6() for code in d.cards))


def test_reconstruct_degenerate_rejects_a_forged_deck_past_attribution():
    # the components attribute to 3K1 + K2 (D?C), whose deck is two 4K1 and
    # three 2K1 + K2 where this one is three 4K1, one 2K1 + K2 and one 2K2:
    # the union is checked card by card, so no graph with another deck comes back
    forged = Deck(5, ("C?", "C?", "C?", "C@", "CK"))
    assert oracle_preimages(forged) == []
    for d in (forged, complemented(forged)):
        with pytest.raises(DeckIntegrityError):
            reconstruct_degenerate(d)
        res = reconstruct(d)
        assert (res.status, res.reason) == ("unsupported", rc.NOT_DECOMPOSABLE)


def checked_with_make_deck(d, flip):
    """The degenerate outcome of d, its cards complemented with flip, from
    the attributed components checked with the deck of their union."""
    graphs = [from_graph6(code) for code in d.cards]
    graphs = [g.complement() for g in graphs] if flip else graphs
    items = [item for g in graphs for item in rc._component_keys(g)]
    try:
        parts = [p for _, p in rc._largest_first(items, d.n)[0]]
    except DeckIntegrityError as exc:
        return "unsupported", None, str(exc), None
    if sum(p.n for p in parts) != d.n or len(parts) < 2:
        return "unsupported", None, "components do not assemble to the right order", None
    g = disjoint_union(sorted(parts, key=lambda p: p.n))
    g = g.complement() if flip else g
    if make_deck(g) != d:
        return "unsupported", None, rc.NOT_DECOMPOSABLE, None
    return "reconstructed", "degenerate components", None, g.to_graph6()


@pytest.mark.parametrize("flip", [False, True], ids=["parallel", "series"])
def test_degenerate_check_matches_the_deck_of_the_union(flip):
    # every multiset of disconnected cards on 4 and 5 vertices, and with flip
    # every card complemented: the card-by-card check on component codes
    # answers as the deck of the rebuilt union does
    seen = Counter()
    for n in (5, 6):
        disconnected = [c for c in enumerate_graphs(n - 1) if not from_graph6(c).is_connected()]
        for cards in combinations_with_replacement(disconnected, n):
            d = Deck(n, cards)
            d = complemented(d) if flip else d
            want = checked_with_make_deck(d, flip)
            res = reconstruct(d)
            got = res.status, res.provenance, res.reason, res.graph and res.graph.to_graph6()
            assert got == want, d
            seen[want[2] or want[0]] += 1
    rc._cards.cache_clear()
    assert sum(seen.values()) == 126 + 18564
    assert seen["reconstructed"] == 30 and seen[rc.NOT_DECOMPOSABLE] == 32, seen


# -- largest-first attribution ---------------------------------------------------


def code_pooled_largest_first(pool, total, keys_of, what):
    """Attribution over a pool of (tag, code) keys, each code decoded afresh;
    returns the recovered keys sorted, one per interval or component."""
    pool = Counter(pool)
    recovered = Counter()
    while pool:
        key = max(pool, key=lambda item: (from_graph6(item[1]).n, item))
        part = from_graph6(key[1])
        denom = total - part.n
        count = pool.pop(key)
        if denom <= 0 or count % denom:
            raise DeckIntegrityError(f"{what} attribution failed")
        cnt = count // denom
        recovered[key] += cnt
        for v in range(part.n):
            for sub_key, _ in keys_of(key[0], part.delete_vertex(v)):
                pool[sub_key] -= cnt
                if pool[sub_key] < 0:
                    raise DeckIntegrityError(f"{what} attribution failed")
                if pool[sub_key] == 0:
                    del pool[sub_key]
    return [key for key, q in sorted(recovered.items()) for _ in range(q)]


def interval_keys(t, sub):
    return [((t, canonical_form(sub)), sub)] if sub.n >= 2 else []


def tagged_component_keys(_, g):
    return [((0, code), p) for code, p in rc._component_keys(g)]


def component_codes(g):
    return [code for code, _ in rc._component_keys(g)]


def multi_interval_decks():
    """(code, deck, skeleton) of every graph on 4-8 vertices with two or more
    non-singleton intervals: multi, vertex-transitive and hereditary."""
    for n in range(4, 9):
        for code in enumerate_graphs(n):
            g = from_graph6(code)
            dec = decompose(g)
            if dec.kind is Kind.PRIME and len(rc._nonsingletons(dec)) >= 2:
                d = make_deck(g)
                yield code, d, skeleton_from_deck(d)


def test_intervals_multi_matches_largest_first_attribution():
    # the survivor's intervals are those that Kelly-style attribution over the
    # skeleton-preserving cards' orbit-tagged intervals recovers, as (tag,
    # code) multisets: each largest pooled interval on p vertices survives in
    # n - s - p cards, and its vertex deletions are subtracted
    decks = 0
    for code, d, k in multi_interval_decks():
        cards = rc._cards(d)
        dk, non = cards.split(k)
        tagged = rc._orbit_tagger(cards, k)
        pooled = (tp for c in dk for tp in tagged(cards.prime(c)))
        pool = [key for t, p in pooled for key, _ in interval_keys(t, p)]
        want = code_pooled_largest_first(pool, d.n - len(non), interval_keys, "interval")
        got = sorted((t, canonical_form(p)) for t, p in intervals_multi(d, k))
        assert got == want, code
        decks += 1
    rc._cards.cache_clear()
    assert decks == 1810


def component_pools():
    """The per-card (code, component) items of every degenerate deck on 4-8
    vertices: a parallel deck pools components, a series deck co-components,
    of g's cards, which carry the deck's codes."""
    for n in range(4, 9):
        for code in enumerate_graphs(n):
            g = from_graph6(code)
            dec = decompose(g)
            if dec.kind in (Kind.PARALLEL, Kind.SERIES):
                flip = dec.kind is Kind.SERIES
                cards = [g.delete_vertex(v) for v in range(n)]
                yield [rc._component_keys(h.complement() if flip else h) for h in cards], n


def test_graph_pool_matches_the_code_pool():
    # keeping the first graph of each code recovers the components that
    # decoding each recovered code did, and fails where it failed, with the
    # same message; the cut holds, for each distinct recovered component, the
    # codes of each of its vertex deletions' components, as coding them
    # afresh gives them
    def attributed(fn, items, *args):
        try:
            return fn(items, *args)
        except DeckIntegrityError as exc:
            return str(exc)

    kinds = Counter()
    for i, (per_card, total) in enumerate(component_pools()):
        kinds["component"] += 1
        left_out = i % len(per_card)
        for pooled in (per_card, per_card[:left_out] + per_card[left_out + 1 :]):
            items = [item for card_items in pooled for item in card_items]
            pool = [(0, code) for code, _ in items]
            want = attributed(
                code_pooled_largest_first, pool, total, tagged_component_keys, "component"
            )
            got = attributed(rc._largest_first, items, total)
            if isinstance(got, tuple):
                parts, cut = got
                # each part is a graph that was pooled, not a decoded code
                assert {id(p) for _, p in parts} <= {id(h) for _, h in items}
                assert all(code == canonical_form(p) for code, p in parts)
                fresh = {
                    code: [component_codes(p.delete_vertex(v)) for v in range(p.n)]
                    for code, p in parts
                }
                assert cut == fresh, (per_card, left_out)
                kinds["component cut"] += 1
                got = [(0, code) for code, _ in parts]
            assert got == want, (per_card, left_out)
    assert kinds["component"] > 1000 and kinds["component cut"] > 2000, kinds


# -- full reconstruction -----------------------------------------------------------


def assert_reconstructs(g, provenance=None):
    res = reconstruct(make_deck(g))
    assert res.reconstructed, res.reason
    assert is_isomorphic(res.graph, g)
    if provenance is not None:
        assert res.provenance == provenance
    return res


def branch_examples(c5, bull):
    """One graph per reconstruction branch, with the provenance it earns."""
    return [
        (disjoint_union([complete_graph(3), path_graph(3)]), "degenerate components"),
        (inflate(bull, [complete_graph(3), K2, K1, K1, K1]), "multi-interval splice"),
        (inflate(c5, [path_graph(3), K1, K1, K1, K1]), "single large interval splice"),
        (c5_with_edge_interval(c5), "size-two interval, orbit identified"),
        (inflate(c5, [K2, K2, K1, K1, K1]), "vertex-transitive skeleton"),
    ]


def test_reconstruct_examples(c5, bull):
    for g, provenance in branch_examples(c5, bull):
        assert_reconstructs(g, provenance)


# Catalog graphs with one large interval on a P4 or bull skeleton, whose
# skeleton-changing cards show it only under lone-vertex layers (G?Cj|{ under
# two), and P4 with an 8-vertex interval.
LAYERED_INTERVAL_GRAPHS = (
    "F@T~o FCHJw G?Cj|{ G?Dj~w G?LR~w G?LZ~w G?Lr~w G?_RJ{ G@LZ~w G@Oz~w "
    "G@Tb~w G@Tj~w GC?iR{ GC?iZ{ GO?Yr{ GOCYZ{ GOD?z{ G_Chb{ G_Chj{ J}tE?@@SAk_"
).split()


def test_reconstruct_never_touches_the_oracle_by_default(monkeypatch):
    oracle = importlib.import_module("deckrecon.oracle")

    def refuse(*_):
        raise AssertionError("reconstruct reached the oracle")

    monkeypatch.setattr(oracle, "oracle_preimages", refuse)
    monkeypatch.setattr(oracle, "enumerate_graphs", refuse)
    for code in LAYERED_INTERVAL_GRAPHS:
        assert_reconstructs(from_graph6(code), "single large interval splice")


def test_reconstruct_decomposes_each_card_once(monkeypatch, c5, bull):
    # every card is decomposed once, and no code is decoded twice nor a deck
    # built twice for one labelled graph in a call, the final check included;
    # a degenerate answer is checked on its components, with no deck built
    dk = importlib.import_module("deckrecon.deck")
    decomposed = []
    decoded = []
    built = []

    def recording(g):
        decomposed.append(canonical_form(g))
        return decompose(g)

    def decoding(code):
        decoded.append(code)
        return from_graph6(code)

    def building(g):
        built.append((g.n, g.adj))
        return make_deck(g)

    monkeypatch.setattr(rc, "decompose", recording)
    monkeypatch.setattr(rc, "from_graph6", decoding)
    monkeypatch.setattr(dk, "from_graph6", decoding)
    monkeypatch.setattr(rc, "make_deck", building)
    # P4 + K1: a connected card is its own single component
    p4_k1 = (disjoint_union([path_graph(4), K1]), "degenerate components")
    for g, provenance in branch_examples(c5, bull) + [p4_k1]:
        d = make_deck(g)
        rc._cards.cache_clear()
        rc._small_card.cache_clear()
        for calls in (decomposed, decoded, built):
            calls.clear()
        assert_reconstructs(g, provenance)
        assert decoded, provenance
        assert bool(built) == (provenance != "degenerate components"), provenance
        again = [code for code, q in Counter(decomposed).items() if q > 1 and code in d.cards]
        assert not again, (provenance, again)
        for calls in (decoded, built):
            again = [call for call, q in Counter(calls).items() if q > 1]
            assert not again, (provenance, again)
        # no memo key holds the deck or the table: no question hashes the
        # deck, and dropping the table frees it at once
        table = rc._cards(d)
        held = [
            key for key in table._answers if any(isinstance(x, (Deck, rc._CardTable)) for x in key)
        ]
        assert not held, (provenance, held)
        table = weakref.ref(table)
        rc._cards.cache_clear()
        assert table() is None, provenance


def decomposable_decks_up_to_seven_vertices():
    for n in range(4, 8):
        for code in enumerate_graphs(n):
            g = from_graph6(code)
            if decompose(g).kind is not Kind.INDECOMPOSABLE:
                yield make_deck(g)


def test_reconstruct_decodes_only_cards(monkeypatch, c5, bull):
    # an interval's, a component's or the skeleton's code is only compared:
    # the graphs behind them are the cards' own, so no other code is decoded
    decoded = []

    def decoding(code):
        decoded.append(code)
        return from_graph6(code)

    graphs = [g for g, _ in branch_examples(c5, bull)] + list(past_twelve_shapes().values())
    graphs.append(inflate(path_graph(4), [complete_graph(3), K1, K1, K1]))
    decks = [make_deck(g) for g in graphs] + list(decomposable_decks_up_to_seven_vertices())
    monkeypatch.setattr(rc, "from_graph6", decoding)
    for d in decks:
        rc._cards.cache_clear()
        rc._small_card.cache_clear()
        decoded.clear()
        reconstruct(d)
        assert decoded, d
        assert set(decoded) <= set(d.cards), (d, set(decoded) - set(d.cards))
    rc._cards.cache_clear()
    rc._small_card.cache_clear()


def test_reconstruct_searches_each_graph_once_per_deck(monkeypatch, c5, bull):
    # canon's symmetry search (labelling and orbits at once), the criticality
    # test and the deck's edge count go through the card table, so none
    # repeats its arguments in one deck
    calls = []

    def recording(search):
        def wrapper(*args):
            calls.append((search.__name__, *(tuple(a) if isinstance(a, list) else a for a in args)))
            return search(*args)

        return wrapper

    for search in (rc._symmetry, is_critically_indecomposable, rc._edge_count):
        monkeypatch.setattr(rc, search.__name__, recording(search))
    examples = [make_deck(g) for g, _ in branch_examples(c5, bull)]
    total = Counter()
    for i, d in enumerate(examples + list(decomposable_decks_up_to_seven_vertices())):
        rc._cards.cache_clear()
        calls.clear()
        reconstruct(d)
        again = [call for call, q in Counter(calls).items() if q > 1]
        assert not again, (d, again)
        if i >= len(examples):
            total.update(name for name, *_ in calls)
    assert total["_symmetry"] <= 1405
    assert total["is_critically_indecomposable"] == 228
    # one edge count per deck that reaches a splice check: 228 pair, 70
    # single-large, 112 multi, 6 vertex-transitive and 32 hereditary decks
    assert total["_edge_count"] == 448


def test_lifting_test_searches_each_card_once(monkeypatch):
    # one symmetry search of each card of K gives its orbits and its
    # canonical bits, which tell isomorphic cards apart: no card the lifting
    # test examines is searched again, for its code, in the same call
    canon = importlib.import_module("deckrecon.canon")
    searched = Counter()
    skeletons = []

    def searching(n, adj, cells):
        if cells == [list(range(n))]:
            searched[n, adj] += 1
        return search(n, adj, cells)

    def lifting(g, *args):
        skeletons.append(g)
        return lift(g, *args)

    search, lift = canon._search, rc._lifting_vertices
    monkeypatch.setattr(canon, "_search", searching)
    monkeypatch.setattr(rc, "_lifting_vertices", lifting)
    decks = examined = 0
    for d in decomposable_decks_up_to_seven_vertices():
        canon._small_code.cache_clear()
        rc._small_card.cache_clear()
        rc._cards.cache_clear()
        searched.clear()
        skeletons.clear()
        reconstruct(d)
        cards = {
            (k.n - 1, k.delete_vertex(orbit[0]).adj)
            for k in skeletons
            for orbit in automorphism_orbits(k)
        }
        again = [card for card in cards if searched[card] > 1]
        assert not again, (d, again)
        decks += bool(skeletons)
        examined += len(cards)
    assert (decks, examined) == (202, 914)
    canon._small_code.cache_clear()
    rc._small_card.cache_clear()
    rc._cards.cache_clear()


def test_reconstruct_outcome_histogram_up_to_seven_vertices():
    got = Counter()
    for n in range(4, 8):
        for code in enumerate_graphs(n):
            g = from_graph6(code)
            if decompose(g).kind is Kind.INDECOMPOSABLE:
                continue
            res = reconstruct(make_deck(g))
            got[(res.status, res.provenance or res.reason)] += 1
    assert got == {
        ("reconstructed", "degenerate components"): 506,
        ("reconstructed", "multi-interval splice"): 112,
        ("reconstructed", "single large interval splice"): 70,
        ("reconstructed", "size-two interval, orbit identified (relaxed)"): 56,
        ("reconstructed", "size-two interval, orbit identified"): 14,
        ("reconstructed", "size-two interval at unique position"): 10,
        ("reconstructed", "vertex-transitive skeleton"): 6,
        ("unsupported", "size-two interval with unidentifiable orbit"): 148,
        ("unsupported", "hereditary orbits"): 32,
    }


def test_reconstruct_tests_criticality_once_per_pair_deck(monkeypatch):
    calls = []

    def counting(k):
        calls.append(k)
        return is_critically_indecomposable(k)

    monkeypatch.setattr(rc, "is_critically_indecomposable", counting)
    rc._cards.cache_clear()
    for d in decomposable_decks_up_to_seven_vertices():
        reconstruct(d)
    assert len(calls) == sum(1 for _ in pair_graphs_up_to_seven_vertices()) == 228


def test_splice_branches_build_one_deck_each(monkeypatch):
    # the multi, vertex-transitive and single-large branches build the deck
    # of their answer and no other deck of the graph's order; hereditary
    # orbit sets are reported past the survivor rule, which on two of them
    # builds the deck of a second class past the degree filter, and
    # degenerate answers are checked on their components. The splices each outcome makes pin each
    # branch's position rule, which the degree filter can hide from the
    # deck builds
    built = []
    spliced = []

    def building(g):
        built.append(g.n)
        return make_deck(g)

    def splicing(k, parts):
        spliced.append(k.n)
        return inflate(k, parts)

    decks = list(decomposable_decks_up_to_seven_vertices())
    monkeypatch.setattr(rc, "make_deck", building)
    monkeypatch.setattr(rc, "inflate", splicing)
    rc._cards.cache_clear()
    decks_of = Counter()
    builds_of = Counter()
    splices_of = Counter()
    for d in decks:
        built.clear()
        spliced.clear()
        res = reconstruct(d)
        outcome = res.provenance or res.reason
        decks_of[outcome] += 1
        builds_of[outcome] += built.count(d.n)
        splices_of[outcome] += len(spliced)
    branches = (
        "multi-interval splice",
        "vertex-transitive skeleton",
        "single large interval splice",
        "hereditary orbits",
        "degenerate components",
    )
    assert {b: decks_of[b] for b in branches} == dict(zip(branches, (112, 6, 70, 32, 506)))
    assert {b: builds_of[b] for b in branches} == dict(zip(branches, (112, 6, 70, 34, 0)))
    assert {b: splices_of[b] for b in branches} == dict(zip(branches, (257, 32, 82, 96, 0)))
    pairs = (
        "size-two interval at unique position",
        "size-two interval, orbit identified",
        "size-two interval, orbit identified (relaxed)",
        "size-two interval with unidentifiable orbit",
    )
    assert {p: splices_of[p] for p in pairs} == dict(zip(pairs, (92, 44, 408, 1464)))
    assert sum(splices_of.values()) == 257 + 32 + 82 + 96 + 92 + 44 + 408 + 1464


def test_degenerate_decks_delete_each_distinct_part_once(monkeypatch):
    # attribution deletes each vertex of each distinct recovered part once,
    # and the card-by-card check reads what it cut: no vertex is deleted twice
    deleted_from = []
    delete_vertex = Graph.delete_vertex

    def deleting(g, v):
        deleted_from.append(g.n)
        return delete_vertex(g, v)

    degenerate = []
    for n in range(4, 8):
        for code in enumerate_graphs(n):
            g = from_graph6(code)
            dec = decompose(g)
            if dec.kind in (Kind.PARALLEL, Kind.SERIES):
                orders = {canonical_form(p): p.n for p in dec.parts}.values()
                degenerate.append((make_deck(g), sorted(k for k in orders for _ in range(k))))
    monkeypatch.setattr(Graph, "delete_vertex", deleting)
    for d, want in degenerate:
        rc._cards.cache_clear()
        deleted_from.clear()
        assert reconstruct(d).provenance == "degenerate components"
        assert sorted(deleted_from) == want, d
    rc._cards.cache_clear()
    assert len(degenerate) == 506
    assert sum(len(want) for _, want in degenerate) == 3140


def test_reconstruct_validates_no_graph_it_builds(monkeypatch):
    # every graph reconstruct builds is a card's induced subgraph, relabelling
    # or inflation, valid by construction: none goes through Graph's check
    decks = list(decomposable_decks_up_to_seven_vertices())
    decks += [make_deck(g) for g in past_twelve_shapes().values()]
    validated = []
    post_init = Graph.__post_init__

    def validating(g):
        validated.append(g.n)
        post_init(g)

    monkeypatch.setattr(Graph, "__post_init__", validating)
    rc._small_card.cache_clear()
    for d in decks:
        rc._cards.cache_clear()
        reconstruct(d)
    rc._cards.cache_clear()
    rc._small_card.cache_clear()
    assert len(decks) == 954 + 5
    assert validated == []


def test_every_prime_answer_is_the_survivors_splice(monkeypatch):
    # each prime branch answers with the graph the survivor rule returned,
    # not a second build of it: the host with the surviving part at its
    # position, which the public interval steps hand back
    survivor = rc._survivor
    survivors = []

    def recording(*args):
        survivors.append((args[1], survivor(*args)))
        return survivors[-1][1]

    monkeypatch.setattr(rc, "_survivor", recording)
    prime = Counter()
    for d in decomposable_decks_up_to_seven_vertices():
        rc._cards.cache_clear()
        survivors.clear()
        res = reconstruct(d)
        if res.reconstructed and res.provenance != "degenerate components":
            assert len(survivors) == 1, d
            host, (pos, part, g) = survivors[0]
            assert res.graph is g, d
            parts = list(host.parts)
            parts[pos] = part
            assert g == inflate(host.skeleton, parts), d
            k = skeleton_from_deck(d)
            if res.provenance == "single large interval splice":
                assert interval_single_large(d, k) is part, d
            elif res.provenance.startswith("size-two"):
                got, positions = interval_single_pair(d, k)
                assert got is part and pos in positions, d
                assert positions in automorphism_orbits(k), d
            prime[res.provenance] += 1
    rc._cards.cache_clear()
    assert sum(prime.values()) == 112 + 6 + 70 + 56 + 14 + 10


def test_a_second_class_with_the_deck_refuses_it(monkeypatch):
    # with every graph of the deck's order taken to have the deck, each
    # prime branch meets a second isomorphism class past the degree filter
    # and refuses the deck instead of keeping its first survivor
    decks = {
        "G?DcBs": "multi-interval splice",
        "G?K}f?": "vertex-transitive skeleton",
        "L@{o?CA?GC?T~P": "single large interval splice",
        "F?LDg": "size-two interval, orbit identified (relaxed)",
    }
    for code, provenance in decks.items():
        assert_reconstructs(from_graph6(code), provenance)
    for code in decks:
        d = make_deck(from_graph6(code))
        monkeypatch.setattr(rc, "make_deck", lambda g: d if g.n == d.n else make_deck(g))
        rc._cards.cache_clear()
        res = reconstruct(d)
        assert (res.status, res.reason) == ("unsupported", rc.NOT_DECOMPOSABLE), code
    rc._cards.cache_clear()


def test_every_skeleton_preserving_card_grows_back_the_graph():
    # the multi branch grows back one card: every skeleton-preserving card of
    # a graph with two or more non-singleton intervals (multi-interval,
    # vertex-transitive or hereditary), grown at each position to the pooled
    # intervals of its orbit one vertex larger, has the graph among its splices
    decks = cards_seen = 0
    for n in range(4, 8):
        for code in enumerate_graphs(n):
            g = from_graph6(code)
            dec = decompose(g)
            if dec.kind is not Kind.PRIME or sum(p.n >= 2 for p in dec.parts) < 2:
                continue
            d = make_deck(g)
            k = skeleton_from_deck(d)
            cards = rc._cards(d)
            dk = cards.split(k)[0]
            tagged = rc._orbit_tagger(cards, k)
            pooled = {
                (t, canonical_form(p)): p for c in dk for t, p in tagged(cards.prime(c)) if p.n >= 2
            }
            for card in dict.fromkeys(dk):
                host = cards.prime(card)
                grown = set()
                for pos, (t, part) in enumerate(tagged(host)):
                    for (tag, _), interval in pooled.items():
                        if tag == t and interval.n == part.n + 1:
                            parts = list(host.parts)
                            parts[pos] = interval
                            grown.add(canonical_form(inflate(host.skeleton, parts)))
                assert canonical_form(g) in grown, (code, card)
                cards_seen += 1
            decks += 1
    rc._cards.cache_clear()
    assert decks == 112 + 6 + 32
    assert cards_seen == 320


def test_reconstruct_canonicalises_each_large_graph_once_per_deck(monkeypatch):
    # an 11-vertex skeleton takes the relaxed pair branch: the card
    # skeletons on its order and the skeleton's deletions are past canon's
    # memo, so their codes are read through the card table; the survivor
    # rule codes the surviving splice and the one later splice with the
    # deck's degrees; no 10-vertex card skeleton is coded
    canon = importlib.import_module("deckrecon.canon")
    d = make_deck(from_graph6("K??BgqLZZ~^j"))
    calls = []

    def counting(g):
        if g.n > 8:
            calls.append((g.n, g.adj))
        return canonical_form(g)

    monkeypatch.setattr(rc, "canonical_form", counting)
    monkeypatch.setattr(canon, "canonical_form", counting)
    rc._cards.cache_clear()
    res = reconstruct(d)
    assert res.provenance == "size-two interval, orbit identified (relaxed)"
    assert len(calls) == len(set(calls)) <= 14


def test_card_skeletons_are_coded_only_on_the_compared_order(monkeypatch):
    # a skeleton on another order than the deck's largest one never has the
    # compared code, so no such skeleton is canonicalised
    skeletons = {}
    coded = []
    card_dec = rc._Card.dec.fget

    def recording_dec(card):
        dec = card_dec(card)
        skeletons[id(dec.skeleton)] = dec.skeleton
        return dec

    def recording(g):
        coded.append(g)
        return canonical_form(g)

    monkeypatch.setattr(rc._Card, "dec", property(recording_dec))
    monkeypatch.setattr(rc, "canonical_form", recording)
    compared = lower = 0
    for d in decomposable_decks_up_to_seven_vertices():
        rc._cards.cache_clear()
        rc._small_card.cache_clear()
        skeletons.clear()
        coded.clear()
        reconstruct(d)
        top = max((k.n for k in skeletons.values()), default=0)
        assert all(g.n == top for g in coded if id(g) in skeletons), d
        compared += any(id(g) in skeletons for g in coded)
        lower += any(k.n < top for k in skeletons.values())
    # the 448 decks that compare skeletons each hold one on a smaller order
    assert compared == lower == 448


def test_small_cards_are_read_once_per_process(monkeypatch):
    # after one pass over the decomposable decks on 4-7 vertices, no card is
    # decomposed again; a reverse pass from a cold memo gives the same
    # results, and the memo keeps within its bound
    decks = list(decomposable_decks_up_to_seven_vertices())
    rc._small_card.cache_clear()
    forward = [reconstruct(d) for d in decks]
    cards_decomposed = []

    def recording(g):
        cards_decomposed.append(g.to_graph6())
        return decompose(g)

    monkeypatch.setattr(rc, "decompose", recording)
    for d, first in zip(decks, forward):
        cards_decomposed.clear()
        assert reconstruct(d) == first
        assert not set(cards_decomposed) & set(d.cards), d
    rc._small_card.cache_clear()
    assert [reconstruct(d) for d in reversed(decks)] == forward[::-1]
    info = rc._small_card.cache_info()
    assert info.maxsize == rc.MEMO_SIZE
    assert 0 < info.currsize <= rc.MEMO_SIZE


def test_decks_past_the_memo_order_leave_the_card_memo_untouched():
    # a 13-vertex deck of test_reconstruct_past_twelve_vertices: its
    # 12-vertex cards are read once per deck, not through the shared memo
    g = inflate(path_graph(13), [K2, K1, K2] + [K1] * 10)
    before = rc._small_card.cache_info()
    assert reconstruct(make_deck(g)).reason == "hereditary orbits"
    assert rc._small_card.cache_info() == before


def paley_graph(q: int) -> Graph:
    """Vertices Z_q (q prime, q = 1 mod 4), adjacent when they differ by a nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(
        q, [(i, j) for i in range(q) for j in range(i + 1, q) if j - i in squares]
    )


def past_twelve_shapes():
    """Graphs with 11- and 13-vertex skeletons, by name."""
    p13 = path_graph(13)
    return {
        "P13, one K2": inflate(p13, [K2] + [K1] * 12),
        "P13, K2 K1 K2": inflate(p13, [K2, K1, K2] + [K1] * 10),
        "P11, one K2": inflate(path_graph(11), [K2] + [K1] * 10),
        "C13, one K2": inflate(cycle_graph(13), [K2] + [K1] * 12),
        "Paley(13), one K2": inflate(paley_graph(13), [K2] + [K1] * 12),
    }


def test_reconstruct_past_twelve_vertices():
    # 11- and 13-vertex skeletons: each deck reconstructs, or is one the
    # theory leaves open, for the same reasons as at desk scale
    got = {}
    for name, g in past_twelve_shapes().items():
        res = reconstruct(make_deck(g))
        if res.reconstructed:
            assert is_isomorphic(res.graph, g), name
        else:
            assert res.status == "unsupported", name
            assert _open_case(decompose(g)), (name, res.reason)
        got[name] = res.provenance or res.reason
    assert got == {
        "P13, one K2": "size-two interval with unidentifiable orbit",
        "P13, K2 K1 K2": "hereditary orbits",
        "P11, one K2": "size-two interval with unidentifiable orbit",
        "C13, one K2": "size-two interval, orbit identified",
        "Paley(13), one K2": "size-two interval, orbit identified",
    }


def prime_circulants(lo: int, hi: int) -> list[Graph]:
    """One graph per isomorphism class of indecomposable circulants on lo..hi vertices."""
    found = {}
    for n in range(lo, hi + 1):
        steps = range(1, n // 2 + 1)
        for mask in range(1, 1 << len(steps)):
            jumps = [s for i, s in enumerate(steps) if mask >> i & 1]
            edges = {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in jumps}
            g = Graph.from_edges(n, edges)
            if is_indecomposable(g):
                found.setdefault(canonical_form(g), g)
    return list(found.values())


PETERSEN = Graph.from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


def test_reconstruct_vertex_transitive_skeletons_past_eight_vertices():
    # two vertices of a vertex-transitive skeleton inflated: two edges leave
    # the one orbit's interval set hereditary, while a triangle's deletion is
    # no interval of that orbit, so Theorem 4.1's splice applies
    skeletons = prime_circulants(5, 10)
    assert len(skeletons) == 23
    inflations = (
        ((K2, K2), "vertex-transitive skeleton"),
        ((complete_graph(3), empty_graph(2)), "multi-interval splice"),
    )
    for k in skeletons + [PETERSEN]:
        assert len(automorphism_orbits(k)) == 1
        for pair, provenance in inflations:
            assert_reconstructs(inflate(k, [*pair] + [K1] * (k.n - 2)), provenance)
    # the two Petersen decks the console entry point reconstructs
    petersen = [inflate(PETERSEN, [*pair] + [K1] * 8) for pair, _ in inflations]
    assert list(map(canonical_form, petersen)) == [
        canonical_form(from_graph6(code)) for code in ("K~KMM?oAOJ?U", "L~wWNF_E?H?U?U")
    ]


def test_reconstruct_a_24_vertex_graph():
    g = inflate(cycle_graph(5), [path_graph(20)] + [K1] * 4)
    res = reconstruct(make_deck(g))
    assert res.reconstructed and g.n == 24
    assert is_isomorphic(res.graph, g)


def test_reconstruct_open_cases():
    for code, reason in (
        (HEREDITARY_WITNESS, "hereditary orbits"),
        (UNIDENTIFIABLE_WITNESS, "size-two interval with unidentifiable orbit"),
    ):
        g = from_graph6(code)
        res = reconstruct(make_deck(g))
        assert res.status == "unsupported"
        assert res.reason == reason
        # the oracle settles both at this scale
        res2 = reconstruct(make_deck(g), oracle_fallback=True)
        assert res2.reconstructed and res2.provenance == "oracle"
        assert is_isomorphic(res2.graph, g)


# Indecomposable graphs whose decks pass the skeleton checks of a branch the
# theory leaves open; no decomposable graph has any of their decks.
PAST_THE_SKELETON_CHECKS = "DBg DLs E@Ug EK]w F?U`w FHU}w G?CaKS G?CilO GLY]~[ GL]}~[".split()


def test_reconstruct_indecomposable_decks_past_the_skeleton_checks():
    # no splice of the pair or multi branch has their deck, so none is taken
    # for an open case
    got = {}
    for code in PAST_THE_SKELETON_CHECKS:
        g = from_graph6(code)
        assert decompose(g).kind is Kind.INDECOMPOSABLE, code
        res = reconstruct(make_deck(g))
        assert res.status == "unsupported", code
        got[code] = res.reason
        res = reconstruct(make_deck(g), oracle_fallback=True)
        assert res.reconstructed and res.provenance == "oracle", code
        assert is_isomorphic(res.graph, g), code
    assert got == dict.fromkeys(PAST_THE_SKELETON_CHECKS, rc.NOT_DECOMPOSABLE)


def test_forged_decks_stop_at_the_branch_guards():
    # cards of no graph that pass the skeleton and singleton checks: a
    # skeleton-preserving card with its interval not one vertex smaller, and
    # multi-interval cards that no splice of the first one gives back
    single_large = Deck(8, "F?K~_ F?K~_ F?K~_ F?K~w F?Nvo F@o~g F@o~g F@o~g".split())
    multi = Deck(7, "E?Lw E@]w E@]w E@]w E@]w EB^w EB^w".split())
    for d in (single_large, multi):
        assert reconstruct(d) == rc._unsupported(rc.NOT_DECOMPOSABLE)
    k = skeleton_from_deck(single_large)
    with pytest.raises(DeckIntegrityError, match="must shrink the interval by one"):
        rc._single_large(rc._cards(single_large), k)
    with pytest.raises(DeckIntegrityError, match="must shrink the interval by one"):
        interval_single_large(single_large, k)
    k = skeleton_from_deck(multi)
    with pytest.raises(DeckIntegrityError, match="no one isomorphism class of splices"):
        rc._reconstruct_multi(rc._cards(multi), k)
    rc._cards.cache_clear()


def test_reconstruct_rejects_indecomposable_deck(c5):
    res = reconstruct(make_deck(c5))
    assert res.status == "unsupported"
    assert "decomposable" in res.reason
    res2 = reconstruct(make_deck(c5), oracle_fallback=True)
    assert res2.reconstructed and res2.provenance == "oracle"
    assert is_isomorphic(res2.graph, c5)


def test_reconstruct_fabricated_deck_has_no_preimage():
    # all cards equal to a triangle-with-tail: no 5-vertex graph has this deck
    card = canonical_form(Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]))
    d = Deck(5, (card,) * 5)
    res = reconstruct(d, oracle_fallback=True)
    assert res.status == "unsupported"


def test_oracle_fallback_past_the_catalogs_keeps_the_default_result(monkeypatch):
    # an open case past the catalogs' order limit: the fallback returns the
    # theory's answer and never asks the catalog oracle
    oracle = importlib.import_module("deckrecon.oracle")
    monkeypatch.setattr(oracle, "oracle_preimages", lambda d: pytest.fail("oracle asked"))
    d = make_deck(inflate(path_graph(13), [K2] + [K1] * 12))
    assert d.n > oracle.ENUMERATION_LIMIT
    res = reconstruct(d)
    assert res.status == "unsupported"
    assert reconstruct(d, oracle_fallback=True) == res


def test_reconstruct_random_decomposable_graphs():
    rng = random.Random(99)
    done = 0
    while done < 60:
        g = random_graph(rng.randrange(4, 9), rng, rng.random())
        if decompose(g).kind is Kind.INDECOMPOSABLE:
            continue
        res = reconstruct(make_deck(g))
        if res.reconstructed:
            assert is_isomorphic(res.graph, g)
        else:
            assert res.status == "unsupported"
        done += 1


def test_reconstruct_tiny_decks():
    res = reconstruct(make_deck(complete_graph(2)))
    assert res == rc._unsupported("decks with fewer than three cards are ambiguous in general")
    # K2 and its complement share the deck of two one-vertex cards, so the
    # oracle lists both and keeps the default result's reason
    assert make_deck(complete_graph(2)) == Deck(2, ("@", "@"))
    assert reconstruct(Deck(2, ("@", "@")), oracle_fallback=True) == rc.ReconstructionResult(
        "ambiguous", candidates=("A?", "A_"), reason=res.reason
    )
