"""Exhaustive small-graph catalogs and brute-force cross-checks.

Catalogs of isomorphism classes (as canonical graph6 codes) are built by
augmentation from the previous order: every n-vertex graph is a one-vertex
extension of one of its own cards. Three rules cut the extensions that are
canonicalised:
- only extensions whose new vertex has the largest degree, since every
  graph is such an extension of the card that deletes a vertex of largest
  degree (canonical deletion, McKay 1998);
- one extension per orbit of the parent's automorphisms, because masks in
  one orbit give isomorphic extensions;
- only graphs with at most half of the C(n, 2) possible edges, whose
  complements are then added.
None can change a code: every class is still reached, and a class's
code is what canon's search gives for any of its labellings.

Each order is built once per process and kept in memory; nothing is read
from or written to disk. Class counts are checked against the known
sequence 1, 1, 2, 4, 11, 34, 156, 1044, 12346 before a catalog is
returned. On top of the catalogs sit a brute-force deck preimage oracle and
a registry of named claims, all checked by one loop (`_sweep`) over the
catalog graphs, deck classes, orders or half-graphs in each claim's range.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations

from .canon import (
    _find,
    _join,
    _search,
    automorphism_orbits,
    canonical_code,
    canonical_form,
    has_induced_subgraph,
    is_isomorphic,
    orbit_index,
)
from .deck import Deck, edge_count_from_deck, make_deck
from .graphs import Graph, from_graph6
from .modular import (
    CapabilityError,
    Kind,
    ModularDecomposition,
    critically_indecomposable,
    decompose,
    indecomposable_masks,
    is_indecomposable,
)
from .reconstruct import (
    _nonsingletons,
    _splice_condition,
    in_family_G,
    interval_single_large,
    interval_single_pair,
    intervals_multi,
    reconstruct,
    relaxed_skeleton_condition,
    singleton_count,
    skeleton_from_deck,
)

ENUMERATION_LIMIT = 8
KNOWN_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


class UnknownClaimError(ValueError):
    """No claim registered under that name."""


class ClaimRangeError(ValueError):
    """max_n is below every order a claim examines, so it would test nothing."""


def _mask_images(k: int, a: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation of the 2^k vertex masks that the vertex permutation a
    of 0..k-1 induces."""
    images = [0] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        images[mask] = images[mask ^ low] | 1 << a[low.bit_length() - 1]
    return tuple(images)


def _build_catalog(n: int, prev: tuple[str, ...]) -> tuple[str, ...]:
    """The sorted codes of all n-vertex graphs, from the (n-1)-vertex catalog.

    Vertex n-1 is joined to the parent's vertices in a mask. Three rules cut
    the masks that are canonicalised. None loses a class or changes a code,
    since a class's code does not depend on which labelling is canonicalised:
    - The new vertex has the largest degree, ties allowed. With s = |mask|,
      top the parent's largest degree and tops its vertices of that degree,
      a mask fails exactly when s < top, or s == top and it meets tops,
      which lifts a top vertex to s + 1; a parent with room for fewer than
      top more edges (third rule) has no such mask. A graph G has a vertex v
      of largest degree, and its card G - v is in the parent catalog under
      some labelling, so some mask gives G back with the new vertex as v.
    - One mask per orbit of the parent's automorphisms, since masks in one
      orbit give isomorphic graphs; degrees are invariant under them, so the
      first rule keeps or drops whole orbits. The automorphisms are those
      canon's search records, each a swap of twins or a leaf collision with
      equal bits, and so a true one (missing some only splits orbits, and
      skips fewer masks).
    - At most floor(m/2) of the m = C(n, 2) edges: such a G extends G - v,
      which has e - deg(v) edges and so room for deg(v) more. Every other
      class is the complement of one with fewer than m/2 edges.
    """
    k = n - 1
    m = n * k // 2
    found: dict[str, tuple[int, ...]] = {}
    for code in prev:
        g = from_graph6(code)
        room = m // 2 - g.edge_count()
        top = max((r.bit_count() for r in g.adj), default=0)
        if room < top:
            continue
        tops = sum(1 << v for v, r in enumerate(g.adj) if r.bit_count() == top)
        orbit = list(range(1 << k))
        for a in _search(k, g.adj, [list(range(k))])[2]:
            _join(orbit, _mask_images(k, a))
        done: set[int] = set()
        for mask in range(1 << k):
            s = mask.bit_count()
            if s > room or s < top or (s == top and mask & tops):
                continue
            root = _find(orbit, mask)
            if root in done:
                continue
            done.add(root)
            rows = tuple(g.adj[v] | (mask >> v & 1) << k for v in range(k)) + (mask,)
            found.setdefault(canonical_code(n, rows), rows)
    full = (1 << n) - 1
    classes = set(found)
    for rows in found.values():
        if sum(r.bit_count() for r in rows) < m:  # twice the edge count
            classes.add(canonical_code(n, tuple(full ^ 1 << v ^ r for v, r in enumerate(rows))))
    return tuple(sorted(classes))


@lru_cache(maxsize=None)
def enumerate_graphs(n: int) -> tuple[str, ...]:
    """The sorted canonical codes of all graphs on n vertices (n <= 8)."""
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise CapabilityError(f"enumeration limited to {ENUMERATION_LIMIT} vertices")
    if n == 0:
        classes = (canonical_form(Graph(0, ())),)
    else:
        classes = _build_catalog(n, enumerate_graphs(n - 1))
    if len(classes) != KNOWN_COUNTS[n]:
        raise RuntimeError(
            f"catalog at n={n} has {len(classes)} classes, expected {KNOWN_COUNTS[n]}"
        )
    return classes


def catalog_graphs(n: int) -> list[Graph]:
    return [from_graph6(code) for code in enumerate_graphs(n)]


@lru_cache(maxsize=None)
def _deck_index(n: int) -> dict[tuple[str, ...], list[str]]:
    index: dict[tuple[str, ...], list[str]] = defaultdict(list)
    for code in enumerate_graphs(n):
        index[make_deck(from_graph6(code)).cards].append(code)
    return dict(index)


def oracle_preimages(d: Deck) -> list[Graph]:
    """Every graph (up to isomorphism) whose deck equals d, by exhaustion."""
    if d.n > ENUMERATION_LIMIT:
        raise CapabilityError(f"oracle limited to {ENUMERATION_LIMIT} vertices")
    return [from_graph6(code) for code in _deck_index(d.n).get(d.cards, [])]


# -- claim registry ------------------------------------------------------------


@dataclass(frozen=True)
class ClaimReport:
    claim: str
    max_n: int  # the requested max_n, capped at the claim's own largest order
    tested: int
    passed: int
    failed: int
    witnesses: tuple[str, ...]
    seconds: float

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {**asdict(self), "witnesses": list(self.witnesses)}


def _catalog(n: int):
    """(code, graph) for every catalog graph on n vertices."""
    return ((code, from_graph6(code)) for code in enumerate_graphs(n))


def _sweep(lo: int, cases, hi: int | None = None, over=_catalog):
    """The CLAIMS entry (lo, hi, claim): this one loop checks every claim.

    claim(top) runs cases(item) on each (name, item) of over(n), n = lo..top.
    Each (label, ok) it yields is one test, and a failing one's witness is
    name + label. With no hi the claim sweeps the catalogs, so a top past
    them is refused before any graph is examined.
    """

    def claim(top: int):
        if hi is None and top > ENUMERATION_LIMIT:
            raise CapabilityError(f"enumeration limited to {ENUMERATION_LIMIT} vertices")
        tested, witnesses = 0, []
        for n in range(lo, top + 1):
            for name, item in over(n):
                for label, ok in cases(item):
                    tested += 1
                    if not ok:
                        witnesses.append(name + label)
        return tested, witnesses

    return lo, hi, claim


def _on_prime(cases):
    """Restrict cases(g, dec, nons) to graphs with a prime quotient: dec is
    the decomposition and nons its (position, interval) pairs on 2+ vertices."""

    def prime_cases(g: Graph):
        dec = decompose(g)
        if dec.kind is Kind.PRIME:
            yield from cases(g, dec, _nonsingletons(dec))

    return prime_cases


def _holds(test) -> bool:
    """test(), with a raised ValueError counted as a failure."""
    try:
        return test()
    except ValueError:
        return False


def _deleted_indecomposable(g: Graph) -> tuple[list[int], list[int]]:
    """Vertex masks of the indecomposable induced subgraphs of g on n-1
    vertices, and those on n-2 vertices."""
    table = indecomposable_masks(g)
    full = (1 << g.n) - 1
    one = [full ^ (1 << v) for v in range(g.n)]
    two = [full ^ (1 << u) ^ (1 << v) for u, v in combinations(range(g.n), 2)]
    return [m for m in one if table[m]], [m for m in two if table[m]]


def _fig1_counts(n: int):
    # Figure 1: no indecomposable graph on 3 vertices, one on 4, four on 5
    got, want = sum(map(is_indecomposable, catalog_graphs(n))), (0, 1, 4)[n - 3]
    yield f": counted {got}, expected {want}", got == want


def _half_graphs(n: int):
    """(graph6, graph) for the half-graph on n vertices and its complement."""
    halves = [critically_indecomposable(n, c) for c in (False, True)] if n % 2 == 0 else []
    return [(g.to_graph6(), g) for g in halves]


def _fig2_criticality(g: Graph):
    # indecomposable, with no indecomposable card but one on n - 2 vertices
    one, two = _deleted_indecomposable(g)
    yield "", is_indecomposable(g) and not one and bool(two)


def _thm_2_2(g: Graph):
    # every indecomposable graph keeps an indecomposable subgraph on n-1 or n-2
    if is_indecomposable(g):
        one, two = _deleted_indecomposable(g)
        yield "", bool(one or two)


def _lem_2_3(g: Graph):
    # an indecomposable subgraph on 3..n-2 vertices extends by two vertices
    if not is_indecomposable(g):
        return
    table = indecomposable_masks(g)
    for mask in range(1 << g.n):
        if not 3 <= mask.bit_count() <= g.n - 2 or not table[mask]:
            continue
        outside = [v for v in range(g.n) if not mask >> v & 1]
        yield f" subset={bin(mask)}", any(
            table[mask | (1 << u) | (1 << v)] for u, v in combinations(outside, 2)
        )


def _cor_2_5(g: Graph):
    # every vertex of an indecomposable graph (n >= 6) sits inside an
    # indecomposable subgraph on n-1 or n-2 vertices
    if not is_indecomposable(g):
        return
    one, two = _deleted_indecomposable(g)
    covered = 0
    for m in one + two:
        covered |= m
    for v in range(g.n):
        yield f" vertex={v}", bool(covered >> v & 1)


@_on_prime
def _lem_3_1(g: Graph, dec, nons):
    # each card's skeleton embeds in the skeleton of the whole graph
    for v in range(g.n):
        card = decompose(g.delete_vertex(v))
        yield f" vertex={v}", has_induced_subgraph(dec.skeleton, card.skeleton)


@_on_prime
def _thm_3_2(g: Graph, dec, nons):
    # the skeleton is the unique largest card skeleton, and the number of
    # cards with a different skeleton equals the number of singleton intervals
    d = make_deck(g)

    def recovered():
        k = skeleton_from_deck(d)
        singles = len(dec.parts) - len(nons)
        return is_isomorphic(k, dec.skeleton) and singleton_count(d, k) == singles

    yield "", _holds(recovered)


def _orbit_tagged(dec) -> list[tuple[int, Graph]]:
    """(skeleton orbit, interval) at every position of the true decomposition."""
    oix = orbit_index(automorphism_orbits(dec.skeleton))
    return [(oix[pos], p) for pos, p in enumerate(dec.parts)]


@_on_prime
def _lem_3_4(g: Graph, dec, nons):
    if len(nons) < 2:
        return

    def recovered():
        got = intervals_multi(make_deck(g), dec.skeleton)
        return Counter((t, canonical_form(p)) for t, p in got) == Counter(
            (t, canonical_form(p)) for t, p in _orbit_tagged(dec) if p.n >= 2
        )

    yield "", _holds(recovered)


@_on_prime
def _lem_3_5(g: Graph, dec, nons):
    if len(nons) == 1 and nons[0][1].n >= 3:
        part = nons[0][1]
        yield "", _holds(
            lambda: is_isomorphic(interval_single_large(make_deck(g), dec.skeleton), part)
        )


@_on_prime
def _lem_3_6(g: Graph, dec, nons):
    if len(nons) != 1 or nons[0][1].n != 2:
        return
    pos, part = nons[0]
    orbit = next(orb for orb in automorphism_orbits(dec.skeleton) if pos in orb)

    def recovered():
        got, positions = interval_single_pair(make_deck(g), dec.skeleton)
        return is_isomorphic(got, part) and positions == orbit

    yield "", _holds(recovered)


def _splice_condition_holds(dec) -> bool:
    """Theorem 4.1's hypothesis on the true decomposition's intervals."""
    return _splice_condition(_orbit_tagged(dec))


def _reconstructs(g: Graph) -> bool:
    res = reconstruct(make_deck(g))
    return res.reconstructed and is_isomorphic(res.graph, g)


@_on_prime
def _thm_4_1(g: Graph, dec, nons):
    if len(nons) >= 2 and _splice_condition_holds(dec):
        yield "", _reconstructs(g)


@_on_prime
def _cor_4_2(g: Graph, dec, nons):
    if len(nons) >= 2 and all(len(o) == 1 for o in automorphism_orbits(dec.skeleton)):
        yield "", _reconstructs(g)


def _cor_4_3(g: Graph):
    dec = decompose(g)
    if dec.kind is Kind.INDECOMPOSABLE:
        return
    if dec.kind is Kind.PRIME:
        if len(_nonsingletons(dec)) < 2 or len(automorphism_orbits(dec.skeleton)) != 1:
            return
    yield "", _reconstructs(g)


@_on_prime
def _thm_4_6(g: Graph, dec, nons):
    if len(nons) == 1 and nons[0][1].n == 2 and in_family_G(dec.skeleton):
        yield "", _reconstructs(g)


def _deck_classes(n: int):
    """(codes joined by spaces, codes) for each deck of the n-vertex graphs."""
    return [(" ".join(codes), codes) for codes in _deck_index(n).values()]


def _recognition(codes: list[str]):
    # indecomposability is decided by the deck: deck-equal graphs agree on it
    yield "", len({is_indecomposable(from_graph6(code)) for code in codes}) == 1


def _rc_exhaustive(codes: list[str]):
    # decks determine graphs for 3 <= n <= 8; at n = 2 both graphs share a deck
    yield "", len(codes) == (2 if from_graph6(codes[0]).n == 2 else 1)


def _kelly(g: Graph):
    yield "", edge_count_from_deck(make_deck(g)) == g.edge_count()


def _open_case(dec: ModularDecomposition) -> bool:
    """Ground-truth check that the graph decomposed as dec sits in a case the
    theory leaves open."""
    if dec.kind is not Kind.PRIME:
        return False
    k = dec.skeleton
    nons = _nonsingletons(dec)
    if len(nons) >= 2:
        return not _splice_condition_holds(dec) and len(automorphism_orbits(k)) > 1
    if len(nons) == 1 and nons[0][1].n == 2:
        return not in_family_G(k) and not relaxed_skeleton_condition(k)
    return False


def _reconstruction(g: Graph):
    # soundness over every decomposable graph: reconstruct the original or
    # report Unsupported only inside the open cases
    dec = decompose(g)
    if dec.kind is Kind.INDECOMPOSABLE:
        return
    res = reconstruct(make_deck(g))
    if res.reconstructed:
        yield f" -> {canonical_form(res.graph)}", is_isomorphic(res.graph, g)
    elif res.status == "unsupported":
        yield f" unsupported: {res.reason}", _open_case(dec)
    else:
        yield f" {res.status}", False


# claim id -> (smallest order the claim examines, largest order it examines
# or None for the requested max_n, check up to a given order)
CLAIMS = {
    "fig1-counts": _sweep(3, _fig1_counts, hi=5, over=lambda n: [(f"n={n}", n)]),
    "fig2-criticality": _sweep(4, _fig2_criticality, hi=10, over=_half_graphs),
    "thm-2.2": _sweep(4, _thm_2_2),
    "lem-2.3": _sweep(5, _lem_2_3),
    "cor-2.5": _sweep(6, _cor_2_5),
    "lem-3.1": _sweep(4, _lem_3_1),
    "thm-3.2": _sweep(4, _thm_3_2),
    "lem-3.4": _sweep(4, _lem_3_4),
    "lem-3.5": _sweep(4, _lem_3_5),
    "lem-3.6": _sweep(4, _lem_3_6),
    "thm-4.1": _sweep(5, _thm_4_1),
    "cor-4.2": _sweep(5, _cor_4_2),
    "cor-4.3": _sweep(4, _cor_4_3),
    "thm-4.6": _sweep(5, _thm_4_6),
    "recognition": _sweep(3, _recognition, hi=8, over=_deck_classes),
    "rc-exhaustive": _sweep(2, _rc_exhaustive, hi=8, over=_deck_classes),
    "kelly": _sweep(3, _kelly, hi=7),
    "reconstruction": _sweep(4, _reconstruction),
}


def check_claim(name: str, max_n: int) -> ClaimReport:
    """Exhaustively verify a registered claim up to max_n vertices, or up to
    its own largest order if that is smaller; the report gives the order used."""
    if name not in CLAIMS:
        raise UnknownClaimError(f"unknown claim {name!r}; known: {sorted(CLAIMS)}")
    lo, hi, claim = CLAIMS[name]
    if max_n < lo:
        raise ClaimRangeError(f"claim {name} starts at n={lo}; max_n={max_n} tests nothing")
    top = max_n if hi is None else min(max_n, hi)
    start = time.perf_counter()
    tested, witnesses = claim(top)
    seconds = time.perf_counter() - start
    return ClaimReport(
        claim=name,
        max_n=top,
        tested=tested,
        passed=tested - len(witnesses),
        failed=len(witnesses),
        witnesses=tuple(witnesses[:50]),
        seconds=round(seconds, 3),
    )
