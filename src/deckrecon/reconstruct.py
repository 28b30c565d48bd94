"""Reconstruction of decomposable graphs from their decks.

A degenerate deck (of a disconnected graph or the complement of one) is
answered by attributing the cards' components, largest first (Kelly), the
one use of attribution. Attribution codes each vertex deletion of each
distinct part once; the answer's cards are read off those codes, each with
the other parts' codes, and checked against the deck's: two disjoint unions
are isomorphic exactly when their components' codes agree, so no deck of the
answer is built. Otherwise
the pipeline recovers the skeleton and the singleton count from the deck, then
splits on the shape of the non-singleton maximal intervals: at least two of
them, one of size >= 3, or one of size exactly 2. Each prime branch names
(position, interval) candidates in a host, a card's decomposition or the
skeleton with singleton parts, and one rule splices each into the host and
keeps the one isomorphism class whose deck is the input deck, turning a splice
down on its degree sequence before its deck is built; every prime answer is
its survivor's splice, built once, and checked on the survivor's deck, and
the theory names its provenance from the survivor's intervals. Outcomes the
theory leaves open (hereditary orbit sets; a size-2 interval whose target
orbit the theory cannot pin down) surface as first-class Unsupported results.
Every answer about one deck lives in one memo, its card table: card decodes
and decompositions (each carrying its card's skeleton), the skeleton codes,
the skeleton split, the deck's degree sequence, the multi, single-large and
size-2 survivors with their splices, canon's searches (the lifting test's one
per card among them), and the code and deck of each candidate graph. Each is
computed on first use and dropped with the table, so no question repeats
within a deck and no deck is built twice. The one exception is a card on at
most MEMO_ORDER_LIMIT (8) vertices: its decode and decomposition depend on its
code alone, so every deck reads them from one process-wide memo of the
MEMO_SIZE (2048) most recently used codes (about 1,200 entries and 0.45 MB
after one pass over the desk-sweep decks), and a card that recurs across decks
is decoded and decomposed once per process. The public steps take the deck
and look its table up once; every private step takes the table itself, with
the deck at cards.deck. Only card codes are decoded; any other code is only
compared.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Any, Callable, Iterable

from .canon import (
    MEMO_ORDER_LIMIT,
    MEMO_SIZE,
    _symmetry,
    canonical_form,
    orbit_index,
)
from .deck import Deck, DeckIntegrityError, _edge_count, make_deck
from .graphs import Graph, disjoint_union, from_graph6
from .modular import (
    K2,
    K2BAR,
    SINGLETON,
    Kind,
    ModularDecomposition,
    decompose,
    inflate,
    is_critically_indecomposable,
    is_indecomposable,
)

NOT_DECOMPOSABLE = (
    "deck not recognised as that of a decomposable graph; "
    "reconstruction assumes decomposable input"
)


class UnsupportedCase(Exception):
    """A case the theory leaves open; the message is the reason."""


@dataclass(frozen=True, slots=True)
class ReconstructionResult:
    """Either a reconstructed graph with provenance, or an open/ambiguous outcome."""

    status: str  # "reconstructed" | "unsupported" | "ambiguous"
    graph: Graph | None = None
    provenance: str | None = None
    reason: str | None = None
    candidates: tuple[str, ...] = ()

    @property
    def reconstructed(self) -> bool:
        return self.status == "reconstructed"


# -- the card table: one memo of every answer about a deck ---------------------


class _Card:
    """One card: its graph, and its decomposition once asked for, which the
    degenerate branch never does. The card's skeleton is dec.skeleton, coded
    only where it is compared, on the compared order."""

    __slots__ = ("graph", "_dec")

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._dec: ModularDecomposition | None = None

    @property
    def dec(self) -> ModularDecomposition:
        if self._dec is None:
            self._dec = decompose(self.graph)
        return self._dec


class _CardTable:
    """What reconstruction reads off the cards of one deck, in one memo.

    ask(fn, *args) computes fn(*args) on first use and keeps it for the
    deck: canon's searches and the decks of candidate graphs alike.
    know(fact, *args) does the same for a fact about the deck,
    fact(table, *args): the split, each prime branch's survivor. Both key on
    (fn, *args), so no key holds the deck or the table: no question hashes
    the deck and no table is a reference cycle.

    card(code) is the one decode, and only of the deck's own cards. A card
    on at most MEMO_ORDER_LIMIT vertices is read from the process-wide memo
    _small_card, keyed on the code alone and shared by every deck. Larger
    cards seldom recur across decks and are read once per table.
    """

    def __init__(self, d: Deck) -> None:
        self.deck = d
        self._answers: dict[tuple, Any] = {}
        self._shared = d.n - 1 <= MEMO_ORDER_LIMIT

    def ask(self, fn: Callable[..., Any], *args: Any) -> Any:
        key = (fn, *args)
        answer = self._answers.get(key)  # no question asked of a table answers None
        if answer is None:
            answer = self._answers[key] = fn(*args)
        return answer

    def know(self, fact: Callable[..., Any], *args: Any) -> Any:
        key = (fact, *args)
        answer = self._answers.get(key)
        if answer is None:
            answer = self._answers[key] = fact(self, *args)
        return answer

    def card(self, code: str) -> _Card:
        return _small_card(code) if self._shared else self.ask(_read_card, code)

    def graphs(self) -> list[Graph]:
        return [self.card(code).graph for code in self.deck.cards]

    def split(self, k: Graph) -> tuple[list[str], list[str]]:
        """Cards whose skeleton matches k, and the rest, in deck order; shared, never changed."""
        return self.know(_split, k)

    def prime(self, code: str) -> ModularDecomposition:
        dec = self.card(code).dec
        if dec.kind is not Kind.PRIME:
            raise DeckIntegrityError("card expected to carry a prime decomposition")
        return dec


def _read_card(code: str) -> _Card:
    return _Card(from_graph6(code))


# a code fixes the labelled graph, and with it the decomposition, so the
# cards on at most MEMO_ORDER_LIMIT vertices are read once for every deck
_small_card = lru_cache(maxsize=MEMO_SIZE)(_read_card)


def _split(cards: _CardTable, k: Graph) -> tuple[list[str], list[str]]:
    target = cards.ask(canonical_form, k)
    dk: list[str] = []
    non: list[str] = []
    for code in cards.deck.cards:
        sk = cards.card(code).dec.skeleton
        (dk if sk.n == k.n and cards.ask(canonical_form, sk) == target else non).append(code)
    return dk, non


@lru_cache(maxsize=1)
def _cards(d: Deck) -> _CardTable:
    """The card table of d; only the most recent deck's table is kept."""
    return _CardTable(d)


def _degrees(cards: _CardTable) -> list[int]:
    """The sorted degree sequence the deck gives (Kelly): |E| less each card's edges."""
    graphs = cards.graphs()
    total_edges = _edge_count(cards.deck.n, graphs)
    return sorted(total_edges - g.edge_count() for g in graphs)


def _survivor(
    cards: _CardTable, host: ModularDecomposition, grown: Iterable[tuple[int, Graph]]
) -> tuple[int, Graph, Graph]:
    """The (pos, part, splice) of the first splice of the one isomorphism
    class whose deck is the table's deck; each grown (pos, part) splices
    part into the host in place of parts[pos], and every prime answer is
    its survivor's splice. A splice whose degree sequence is not the deck's,
    or (once a survivor exists) whose code is the survivor's, is turned down
    before its deck is built; two classes or none raise."""
    parts = host.parts
    found: list[tuple[int, Graph, Graph]] = []
    for pos, part in grown:
        g = inflate(host.skeleton, parts[:pos] + (part,) + parts[pos + 1 :])
        if sorted(map(g.degree, range(g.n))) != cards.know(_degrees):
            continue
        if found and cards.ask(canonical_form, g) == cards.ask(canonical_form, found[0][2]):
            continue
        if cards.ask(make_deck, g) == cards.deck:
            found.append((pos, part, g))
            if len(found) > 1:
                break
    if len(found) != 1:
        raise DeckIntegrityError("no one isomorphism class of splices gives back the deck")
    return found[0]


def _nonsingletons(dec: ModularDecomposition) -> list[tuple[int, Graph]]:
    """The (skeleton vertex, interval) pairs of a prime decomposition on 2+ vertices."""
    return [(pos, p) for pos, p in enumerate(dec.parts) if p.n >= 2]


# -- deck-level skeleton and singleton statistics -----------------------------


def skeleton_from_deck(d: Deck) -> Graph:
    """The unique largest card skeleton on >= 4 vertices: the first in deck
    order, labelled like its card's quotient (a pair deck's is the card)."""
    cards = _cards(d)
    # no card of a deck of fewer than five cards has four vertices
    skeletons = [cards.card(c).dec.skeleton for c in dict.fromkeys(d.cards)] if d.n > 4 else []
    top_n = max((k.n for k in skeletons), default=0)
    if top_n < 4:
        raise DeckIntegrityError("no card has a skeleton on four or more vertices")
    top = [k for k in skeletons if k.n == top_n]
    if len({cards.ask(canonical_form, k) for k in top}) > 1:
        raise DeckIntegrityError("largest card skeletons disagree")
    return top[0]


def singleton_count(d: Deck, k: Graph) -> int:
    """Number of cards whose skeleton differs from k (= singleton intervals)."""
    _, non = _cards(d).split(k)
    s = len(non)
    if s > k.n:
        raise DeckIntegrityError("more skeleton-changing cards than skeleton vertices")
    return s


# -- interval recovery: at least two non-singleton maximal intervals ----------


def intervals_multi(d: Deck, k: Graph) -> list[tuple[int, Graph]]:
    """Non-singleton maximal intervals tagged with the skeleton orbit they
    inflate, in position order.

    Every interval is whole in the card that deletes a vertex of another, so
    the candidates are the orbit-tagged intervals of the skeleton-preserving
    cards, pooled one per (tag, code). Each is spliced into one such card in
    place of a part of its orbit one vertex smaller, and the intervals are
    the parts of the one class whose splice has the deck.
    """
    return [(t, p) for t, p in _cards(d).know(_multi, k)[1] if p.n >= 2]


def _multi(cards: _CardTable, k: Graph) -> tuple[Graph, list[tuple[int, Graph]]]:
    """The survivor's splice and its orbit-tagged parts, singletons included."""
    dk, non = cards.split(k)
    if k.n - len(non) < 2:
        raise ValueError("needs at least two non-singleton maximal intervals")
    tagged = _orbit_tagger(cards, k)
    pooled: dict[tuple[int, str], Graph] = {}
    for code in dict.fromkeys(dk):
        for t, part in tagged(cards.prime(code)):
            if part.n >= 2:
                pooled.setdefault((t, canonical_form(part)), part)
    # the host shows one interval shrunk by a vertex: each position grows
    # back to the pooled intervals of its orbit one vertex larger
    host = cards.prime(min(dk))
    parts = tagged(host)
    candidates = sorted(pooled.items())
    grown = (
        (pos, big)
        for pos, (t, part) in enumerate(parts)
        for (tag, _), big in candidates
        if tag == t and big.n == part.n + 1
    )
    pos, part, g = _survivor(cards, host, grown)
    parts[pos] = (parts[pos][0], part)
    return g, parts


def _orbit_tagger(
    cards: _CardTable, k: Graph
) -> Callable[[ModularDecomposition], list[tuple[int, Graph]]]:
    """For a card whose quotient is k: each of its intervals, in position
    order, tagged with the k-orbit of its position."""
    order_k, orbs, _ = cards.ask(_symmetry, k)
    oix = orbit_index(orbs)

    def tagged(dec: ModularDecomposition) -> list[tuple[int, Graph]]:
        # equal canonical positions map the card's quotient onto k
        to_k = dict(zip(cards.ask(_symmetry, dec.skeleton)[0], order_k))
        return [(oix[to_k[pos]], part) for pos, part in enumerate(dec.parts)]

    return tagged


# -- interval recovery: a single non-singleton interval of size >= 3 ----------


def _modules_of_order(dec: ModularDecomposition, size: int) -> list[Graph]:
    """The strong modules on size vertices below the root of a decomposition
    tree, in depth-first order; only nodes on more than size vertices are
    decomposed further, and an indecomposable node has no parts."""
    out: list[Graph] = []
    for child in dec.parts:
        if child.n == size:
            out.append(child)
        elif child.n > size:
            out += _modules_of_order(decompose(child), size)
    return out


def interval_single_large(d: Deck, k: Graph) -> Graph:
    """Recover the unique non-singleton maximal interval when it has >= 3 vertices.

    The interval is a module of every skeleton-changing card, and a strong
    one in some of them, so its candidates are the cards' strong modules on
    its order, each spliced into the first skeleton-preserving card; the one
    whose splice is the one class with the deck survives.
    """
    return _cards(d).know(_single_large, k)[1]


def _single_large(cards: _CardTable, k: Graph) -> tuple[int, Graph, Graph]:
    """The survivor's (pos, interval, splice) of the single large interval."""
    dk, non = cards.split(k)
    size = cards.deck.n - len(non)
    if k.n - len(non) != 1 or size < 3:
        raise ValueError("expects exactly one non-singleton maximal interval of size >= 3")
    # each skeleton-preserving card deletes one vertex of the interval
    for code in dk:
        nons = _nonsingletons(cards.prime(code))
        if len(nons) != 1 or nons[0][1].n != size - 1:
            raise DeckIntegrityError("skeleton-preserving cards must shrink the interval by one")

    candidates: dict[str, Graph] = {}
    for code in sorted(set(non)):
        for cand in _modules_of_order(cards.card(code).dec, size):
            candidates.setdefault(canonical_form(cand), cand)
    host = cards.prime(min(dk))
    [(pos, _)] = _nonsingletons(host)
    return _survivor(cards, host, ((pos, c) for _, c in sorted(candidates.items())))


# -- interval recovery: a single non-singleton interval of size 2 -------------


def interval_single_pair(d: Deck, k: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Recover the unique size-2 maximal interval plus the skeleton vertices
    where splicing it into k gives back the deck.

    The candidates are K2 and its complement at one vertex of each orbit of
    k. Splices at two orbits, or of two intervals, are two isomorphism
    classes, so the one class whose deck is d names one interval and one
    orbit, and the positions are that orbit.
    """
    cards = _cards(d)
    pos, part, _ = cards.know(_pair_splices, k)
    return part, next(orb for orb in cards.ask(_symmetry, k)[1] if pos in orb)


def _pair_splices(cards: _CardTable, k: Graph) -> tuple[int, Graph, Graph]:
    """The survivor's (pos, interval, splice) of the size-2 interval: k with
    singleton parts is the host, grown at one vertex of each orbit."""
    if cards.deck.n != k.n + 1:
        raise ValueError("expects a skeleton one vertex smaller than the graph")
    if len(cards.split(k)[0]) != 2:
        raise DeckIntegrityError("expected exactly two cards isomorphic to the skeleton")
    host = ModularDecomposition(Kind.PRIME, k, (SINGLETON,) * k.n)
    orbs = cards.ask(_symmetry, k)[1]
    return _survivor(cards, host, ((orb[0], part) for orb in orbs for part in (K2, K2BAR)))


# -- family predicates ---------------------------------------------------------


def _afresh(fn: Callable[..., Any], *args: Any) -> Any:
    """fn(*args): the ask of a caller that keeps no answers."""
    return fn(*args)


def _lifting_vertices(g: Graph, ask: Callable[..., Any] = _afresh) -> list[int]:
    """Vertices w such that no vertex outside w's orbit has w's card, and the
    orbits of w's card lift back to orbits of g. Both hold for a whole orbit
    or for none of it, so each orbit is tested at its smallest vertex, on one
    symmetry search of its card whose canonical bits tell isomorphic cards
    apart; ask(fn, *args) runs each search."""
    orbits = ask(_symmetry, g)[1]
    oix = orbit_index(orbits)
    cards = [ask(_symmetry, g.delete_vertex(orbit[0])) for orbit in orbits]
    repeats = Counter(bits for _, _, bits in cards)
    out: list[int] = []
    for orbit, (_, card_orbits, bits) in zip(orbits, cards):
        if repeats[bits] > 1:
            continue
        back = [x for x in range(g.n) if x != orbit[0]]
        if all(len({oix[back[i]] for i in orb}) == 1 for orb in card_orbits):
            out += orbit
    return sorted(out)


def in_family_G(g: Graph) -> bool:
    """No pseudo-similar vertices, and orbits of every card lift to orbits of g."""
    return len(_lifting_vertices(g)) == g.n


def _relaxed_witnesses(k: Graph, lifting: list[int]) -> list[int]:
    return [w for w in lifting if is_indecomposable(k.delete_vertex(w))]


def relaxed_skeleton_condition(k: Graph) -> bool:
    """Some vertex deletion keeps k indecomposable, similar deletions stay in
    one orbit, and the card's orbits lift back to k."""
    if not is_indecomposable(k):
        raise ValueError("the relaxed condition applies to indecomposable graphs")
    return bool(_relaxed_witnesses(k, _lifting_vertices(k)))


# -- degenerate graphs ---------------------------------------------------------


def _component_keys(g: Graph) -> list[tuple[str, Graph]]:
    parts = (g.induced_subgraph(comp) for comp in g.components())
    return [(canonical_form(p), p) for p in parts]


def _largest_first(
    items: list[tuple[str, Graph]], total: int
) -> tuple[list[tuple[str, Graph]], dict[str, list[list[str]]]]:
    """Kelly's attribution of pooled (code, component) items.

    A largest pooled component on p vertices of a total-vertex graph
    survives in exactly total - p cards, so its pooled count divided by
    total - p is its multiplicity. The components of its one-vertex-deleted
    subgraphs are subtracted, and the next largest is taken. Codes are only
    compared. Returns (parts, cut): the recovered (code, part) pairs sorted
    by code, each part the first graph pooled under its code, and for each
    recovered code the codes cut from each vertex deletion of its part.
    """
    pool = Counter(code for code, _ in items)
    kept = dict(reversed(items))  # the first graph pooled under each code
    recovered: Counter[str] = Counter()
    cut: dict[str, list[list[str]]] = {}
    while pool:
        code = max(pool, key=lambda item: (kept[item].n, item))
        part = kept[code]
        denom = total - part.n
        count = pool.pop(code)
        if denom <= 0 or count % denom:
            raise DeckIntegrityError("component attribution failed")
        cnt = count // denom
        recovered[code] += cnt
        cut[code] = [[c for c, _ in _component_keys(part.delete_vertex(v))] for v in range(part.n)]
        for sub in (c for subs in cut[code] for c in subs):
            pool[sub] -= cnt
            if pool[sub] < 0:
                raise DeckIntegrityError("component attribution failed")
            if pool[sub] == 0:
                del pool[sub]
    return [(code, kept[code]) for code, q in sorted(recovered.items()) for _ in range(q)], cut


def _rebuild_from_components(n: int, graphs: list[Graph]) -> Graph:
    """The disjoint union of the components attributed to graphs, the cards
    of a deck, checked against them card by card: two disjoint unions are
    isomorphic exactly when their components' codes agree (Kelly), so the
    union has the deck exactly when its cards' sorted component codes are,
    as a multiset, those of graphs. A card of the union is the other parts'
    codes and attribution's cut of one vertex deletion, once per copy."""
    per_card = [_component_keys(g) for g in graphs]
    items = [item for keys in per_card for item in keys]
    parts, cut = _largest_first(items, n)
    if sum(p.n for _, p in parts) != n or len(parts) < 2:
        raise DeckIntegrityError("components do not assemble to the right order")
    held = Counter(code for code, _ in parts)
    union: Counter[tuple] = Counter()
    for code, deletions in cut.items():
        others = list((held - Counter([code])).elements())
        for subs in deletions:
            union[tuple(sorted(others + subs))] += held[code]
    if union != Counter(tuple(sorted(code for code, _ in keys)) for keys in per_card):
        raise DeckIntegrityError(NOT_DECOMPOSABLE)
    # parts arrive sorted by code; a stable sort by order keeps that within an order
    return disjoint_union(sorted((p for _, p in parts), key=lambda p: p.n))


def _degenerate_rebuild(cards: _CardTable) -> Graph | None:
    """The degenerate graph with the table's deck, or None when more than one
    card is connected and more than one is co-connected, which no deck of a
    degenerate graph allows.

    Pools components across the cards and repeatedly removes the largest
    one together with the components attributable to it, then checks the
    union card by card on component codes (Kelly), with no deck built; the
    series case does both on the complemented cards. A deck that attributes
    but is no graph's deck raises DeckIntegrityError(NOT_DECOMPOSABLE).
    """
    n, graphs = cards.deck.n, cards.graphs()
    if _at_most_one(g.is_connected() for g in graphs):
        return _rebuild_from_components(n, graphs)
    if _at_most_one(g.is_co_connected() for g in graphs):
        flipped = [g.complement() for g in graphs]
        return _rebuild_from_components(n, flipped).complement()
    return None


def _at_most_one(tests: Iterable[bool]) -> bool:
    """Whether at most one test holds; it stops at the second that does."""
    return len(list(islice(filter(None, tests), 2))) < 2


def reconstruct_degenerate(d: Deck) -> Graph:
    """The unique graph with deck d, for decks of degenerate graphs.

    The answer is checked against d card by card on its components' codes
    (Kelly), so a deck whose components attribute but that no graph has
    raises DeckIntegrityError, as any other deck without a degenerate graph.
    """
    if d.n < 3:
        raise ValueError("degenerate reconstruction needs at least three cards")
    cards = _cards(d)
    g = _degenerate_rebuild(cards)
    if g is None:
        raise DeckIntegrityError("deck does not come from a degenerate graph")
    return g


# -- full reconstruction dispatch ----------------------------------------------


def _splice_condition(tagged: list[tuple[int, Graph]]) -> bool:
    """Theorem 4.1's hypothesis on orbit-tagged intervals, singletons
    included: some interval has a one-vertex-deleted subgraph that is not an
    interval of its own orbit."""
    codes = {(t, canonical_form(p)): p for t, p in tagged}
    by_orbit: dict[int, set[str]] = {}
    for t, code in codes:
        by_orbit.setdefault(t, set()).add(code)
    return any(
        canonical_form(p.delete_vertex(u)) not in by_orbit[t]
        for (t, _), p in codes.items()
        if p.n >= 2
        for u in range(p.n)
    )


def _reconstruct_multi(cards: _CardTable, k: Graph) -> tuple[Graph, str]:
    # the splice check comes before the theory's choice, so a deck that no
    # splice gives back is not taken for an open case
    g, tagged = cards.know(_multi, k)
    held = _splice_condition(tagged)
    if not held and len(cards.ask(_symmetry, k)[1]) > 1:
        raise UnsupportedCase("hereditary orbits")
    return g, "multi-interval splice" if held else "vertex-transitive skeleton"


def _reconstruct_single_pair(cards: _CardTable, k: Graph) -> tuple[Graph, str]:
    # the splice check comes before the theory's choice, so a deck that no
    # splice gives back is not taken for an open case
    g = cards.know(_pair_splices, k)[2]
    if is_critically_indecomposable(k):
        raise UnsupportedCase("size-two interval with unidentifiable orbit")
    # with no card keeping a prime quotient on |K| - 1 vertices, the one
    # vertex whose deletion leaves K indecomposable is the inflated one
    order1 = (cards.card(code) for code in set(cards.split(k)[1]))
    if not any(c.dec.skeleton.n == k.n - 1 for c in order1):
        provenance = "size-two interval at unique position"
    else:
        # the lifting test decides family G (every vertex passes) and the
        # relaxed condition (some passing vertex deletion stays indecomposable)
        lifting = _lifting_vertices(k, cards.ask)
        if len(lifting) == k.n:
            provenance = "size-two interval, orbit identified"
        elif _relaxed_witnesses(k, lifting):
            provenance = "size-two interval, orbit identified (relaxed)"
        else:
            raise UnsupportedCase("size-two interval with unidentifiable orbit")
    return g, provenance


def _unsupported(reason: str) -> ReconstructionResult:
    return ReconstructionResult("unsupported", reason=reason)


def _reconstruct_core(d: Deck) -> ReconstructionResult:
    if d.n < 3:
        return _unsupported("decks with fewer than three cards are ambiguous in general")
    cards = _cards(d)
    try:
        g = _degenerate_rebuild(cards)
    except DeckIntegrityError as exc:
        return _unsupported(str(exc))
    if g is not None:
        # a degenerate answer is checked by the rebuild, card by card on
        # component codes (Kelly), with no deck of it built
        return ReconstructionResult("reconstructed", graph=g, provenance="degenerate components")
    try:
        k = skeleton_from_deck(d)
        s = singleton_count(d, k)
        m = k.n - s
        if m >= 2:
            g, provenance = _reconstruct_multi(cards, k)
        elif m == 1 and d.n - s >= 3:
            g, provenance = cards.know(_single_large, k)[2], "single large interval splice"
        elif m == 1 and d.n - s == 2:
            g, provenance = _reconstruct_single_pair(cards, k)
        else:
            return _unsupported(NOT_DECOMPOSABLE)
    except UnsupportedCase as exc:
        return _unsupported(str(exc))
    except DeckIntegrityError:
        return _unsupported(NOT_DECOMPOSABLE)
    # every prime answer is its survivor's splice, checked on the survivor's
    # deck, which the survivor rule has built already
    if cards.ask(make_deck, g) != d:
        return _unsupported(NOT_DECOMPOSABLE)
    return ReconstructionResult("reconstructed", graph=g, provenance=provenance)


def reconstruct(d: Deck, *, oracle_fallback: bool = False) -> ReconstructionResult:
    """Reconstruct the graph behind a deck, or report why the theory cannot.

    With oracle_fallback, open cases within the catalogs' order limit are
    settled by the exhaustive catalog instead; provenance then reads "oracle".
    """
    result = _reconstruct_core(d)
    if result.status == "reconstructed" or not oracle_fallback:
        return result
    from .oracle import ENUMERATION_LIMIT, oracle_preimages

    if d.n > ENUMERATION_LIMIT:
        return result
    preimages = oracle_preimages(d)
    if len(preimages) == 1:
        return ReconstructionResult("reconstructed", graph=preimages[0], provenance="oracle")
    if not preimages:
        return _unsupported("no graph on this many vertices has this deck")
    return ReconstructionResult(
        "ambiguous",
        candidates=tuple(sorted(canonical_form(g) for g in preimages)),
        reason=result.reason,
    )
