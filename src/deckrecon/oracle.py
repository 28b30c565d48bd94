"""Exhaustive small-graph catalogs and brute-force cross-checks.

Catalogs of isomorphism classes (as canonical graph6 codes) are built by
augmentation from the previous order and cached on disk; class counts are
checked against the known sequence 1, 1, 2, 4, 11, 34, 156, 1044, 12346
before a catalog is trusted. On top of the catalogs sit a brute-force deck
preimage oracle and a registry of named claims, each verified exhaustively
over the relevant catalog range.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from pathlib import Path

from .canon import (
    CapabilityError,
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
    Kind,
    critically_indecomposable,
    decompose,
    indecomposable_masks,
    is_indecomposable,
    skeleton,
)
from .reconstruct import (
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
CACHE_ENV = "DECKRECON_CACHE"


class UnknownClaimError(ValueError):
    """No claim registered under that name."""


class ClaimRangeError(ValueError):
    """max_n is below every order a claim examines, so it would test nothing."""


@dataclass(frozen=True)
class GraphCatalog:
    """All isomorphism classes of n-vertex graphs as sorted canonical codes."""

    n: int
    classes: tuple[str, ...]


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "deckrecon"


def _build_catalog(n: int, prev: tuple[str, ...]) -> tuple[str, ...]:
    seen: set[str] = set()
    for code in prev:
        g = from_graph6(code)
        for mask in range(1 << (n - 1)):
            rows = [g.adj[v] | ((mask >> v & 1) << (n - 1)) for v in range(n - 1)]
            rows.append(mask)
            seen.add(canonical_code(n, tuple(rows)))
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def enumerate_graphs(n: int) -> GraphCatalog:
    """Catalog of all graphs on n vertices (n <= 8), cached on disk."""
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise CapabilityError(f"enumeration limited to {ENUMERATION_LIMIT} vertices")
    path = _cache_dir() / f"catalog-{n}.g6"
    if path.is_file():
        classes = tuple(path.read_text().split())
        if len(classes) == KNOWN_COUNTS[n]:
            return GraphCatalog(n, classes)
    if n == 0:
        classes = (canonical_form(Graph(0, ())),)
    else:
        classes = _build_catalog(n, enumerate_graphs(n - 1).classes)
    if len(classes) != KNOWN_COUNTS[n]:
        raise RuntimeError(
            f"catalog at n={n} has {len(classes)} classes, expected {KNOWN_COUNTS[n]}"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(code + "\n" for code in classes))
    return GraphCatalog(n, classes)


def catalog_graphs(n: int) -> list[Graph]:
    return [from_graph6(code) for code in enumerate_graphs(n).classes]


@lru_cache(maxsize=None)
def _deck_index(n: int) -> dict[tuple[str, ...], list[str]]:
    index: dict[tuple[str, ...], list[str]] = defaultdict(list)
    for code in enumerate_graphs(n).classes:
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
    max_n: int
    tested: int
    passed: int
    failed: int
    witnesses: tuple[str, ...]
    seconds: float

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "max_n": self.max_n,
            "tested": self.tested,
            "passed": self.passed,
            "failed": self.failed,
            "witnesses": list(self.witnesses),
            "seconds": self.seconds,
        }


def _catalog_range(lo: int, hi: int):
    for n in range(lo, hi + 1):
        for code in enumerate_graphs(n).classes:
            yield code, from_graph6(code)


def _claim_fig1_counts(max_n: int):
    expected = {3: 0, 4: 1, 5: 4}
    tested, witnesses = 0, []
    for n, want in expected.items():
        if n > max_n:
            continue
        tested += 1
        got = sum(1 for _, g in _catalog_range(n, n) if is_indecomposable(g))
        if got != want:
            witnesses.append(f"n={n}: counted {got}, expected {want}")
    return tested, witnesses


def _claim_fig2_criticality(max_n: int):
    tested, witnesses = 0, []
    for n in (4, 6, 8, 10):
        if n > max_n:
            continue
        for complemented in (False, True):
            g = critically_indecomposable(n, complemented)
            tested += 1
            table = indecomposable_masks(g)
            full = (1 << n) - 1
            ok = (
                is_indecomposable(g)
                and not any(table[full ^ (1 << v)] for v in range(n))
                and any(
                    table[full ^ (1 << u) ^ (1 << v)]
                    for u, v in combinations(range(n), 2)
                )
            )
            if not ok:
                witnesses.append(g.to_graph6())
    return tested, witnesses


def _claim_thm_2_2(max_n: int):
    # every indecomposable graph keeps an indecomposable subgraph on n-1 or n-2
    tested, witnesses = 0, []
    for code, g in _catalog_range(4, max_n):
        if not is_indecomposable(g):
            continue
        tested += 1
        table = indecomposable_masks(g)
        full = (1 << g.n) - 1
        if not (
            any(table[full ^ (1 << v)] for v in range(g.n))
            or any(
                table[full ^ (1 << u) ^ (1 << v)]
                for u, v in combinations(range(g.n), 2)
            )
        ):
            witnesses.append(code)
    return tested, witnesses


def _claim_lem_2_3(max_n: int):
    # an indecomposable subgraph on 3..n-2 vertices extends by two vertices
    tested, witnesses = 0, []
    for code, g in _catalog_range(5, max_n):
        if not is_indecomposable(g):
            continue
        table = indecomposable_masks(g)
        full = (1 << g.n) - 1
        for mask in range(1 << g.n):
            size = mask.bit_count()
            if not 3 <= size <= g.n - 2 or not table[mask]:
                continue
            tested += 1
            outside = [v for v in range(g.n) if not mask >> v & 1]
            if not any(
                table[mask | (1 << u) | (1 << v)]
                for u, v in combinations(outside, 2)
            ):
                witnesses.append(f"{code} subset={bin(mask)}")
    return tested, witnesses


def _claim_cor_2_5(max_n: int):
    # every vertex of an indecomposable graph (n >= 6) sits inside an
    # indecomposable subgraph on n-1 or n-2 vertices
    tested, witnesses = 0, []
    for code, g in _catalog_range(6, max_n):
        if not is_indecomposable(g):
            continue
        table = indecomposable_masks(g)
        full = (1 << g.n) - 1
        for v in range(g.n):
            tested += 1
            ok = any(table[full ^ (1 << u)] for u in range(g.n) if u != v) or any(
                table[full ^ (1 << a) ^ (1 << b)]
                for a, b in combinations((u for u in range(g.n) if u != v), 2)
            )
            if not ok:
                witnesses.append(f"{code} vertex={v}")
    return tested, witnesses


def _claim_lem_3_1(max_n: int):
    # each card's skeleton embeds in the skeleton of the whole graph
    tested, witnesses = 0, []
    for code, g in _catalog_range(4, max_n):
        if decompose(g).kind is not Kind.PRIME:
            continue
        k = skeleton(g)
        for v in range(g.n):
            tested += 1
            if not has_induced_subgraph(k, skeleton(g.delete_vertex(v))):
                witnesses.append(f"{code} vertex={v}")
    return tested, witnesses


def _claim_thm_3_2(max_n: int):
    # the skeleton is the unique largest card skeleton, and the number of
    # cards with a different skeleton equals the number of singleton intervals
    tested, witnesses = 0, []
    for code, g in _catalog_range(4, max_n):
        dec = decompose(g)
        if dec.kind is not Kind.PRIME:
            continue
        tested += 1
        d = make_deck(g)
        try:
            k = skeleton_from_deck(d)
            singles = sum(1 for _, p in dec.intervals if p.n == 1)
            ok = is_isomorphic(k, dec.skeleton) and singleton_count(d, k) == singles
        except ValueError:
            ok = False
        if not ok:
            witnesses.append(code)
    return tested, witnesses


def _true_tagged_intervals(dec) -> Counter:
    oix = orbit_index(automorphism_orbits(dec.skeleton))
    return Counter(
        (oix[pos], canonical_form(p)) for pos, p in dec.intervals if p.n >= 2
    )


def _claim_lem_3_4(max_n: int):
    tested, witnesses = 0, []
    for code, g in _catalog_range(4, max_n):
        dec = decompose(g)
        if dec.kind is not Kind.PRIME:
            continue
        if sum(1 for _, p in dec.intervals if p.n >= 2) < 2:
            continue
        tested += 1
        try:
            got = Counter(
                (t, canonical_form(p))
                for t, p in intervals_multi(make_deck(g), dec.skeleton)
            )
            ok = got == _true_tagged_intervals(dec)
        except ValueError:
            ok = False
        if not ok:
            witnesses.append(code)
    return tested, witnesses


def _claim_lem_3_5(max_n: int):
    tested, witnesses = 0, []
    for code, g in _catalog_range(4, max_n):
        dec = decompose(g)
        if dec.kind is not Kind.PRIME:
            continue
        nons = [p for _, p in dec.intervals if p.n >= 2]
        if len(nons) != 1 or nons[0].n < 3:
            continue
        tested += 1
        try:
            got = interval_single_large(make_deck(g), dec.skeleton)
            ok = is_isomorphic(got, nons[0])
        except ValueError:
            ok = False
        if not ok:
            witnesses.append(code)
    return tested, witnesses


def _claim_lem_3_6(max_n: int):
    tested, witnesses = 0, []
    for code, g in _catalog_range(4, max_n):
        dec = decompose(g)
        if dec.kind is not Kind.PRIME:
            continue
        nons = [(pos, p) for pos, p in dec.intervals if p.n >= 2]
        if len(nons) != 1 or nons[0][1].n != 2:
            continue
        tested += 1
        try:
            got, positions = interval_single_pair(make_deck(g), dec.skeleton)
            ok = is_isomorphic(got, nons[0][1]) and nons[0][0] in positions
        except ValueError:
            ok = False
        if not ok:
            witnesses.append(code)
    return tested, witnesses


def _splice_condition_holds(dec) -> bool:
    """Some interval has a one-vertex-deleted subgraph missing from the
    interval multiset of its orbit (singletons included)."""
    oix = orbit_index(automorphism_orbits(dec.skeleton))
    by_orbit: dict[int, set[str]] = defaultdict(set)
    for pos, p in dec.intervals:
        by_orbit[oix[pos]].add(canonical_form(p))
    for pos, p in dec.intervals:
        if p.n < 2:
            continue
        t = oix[pos]
        for u in range(p.n):
            if canonical_form(p.delete_vertex(u)) not in by_orbit[t]:
                return True
    return False


def _reconstructs(g: Graph) -> bool:
    res = reconstruct(make_deck(g))
    return res.reconstructed and is_isomorphic(res.graph, g)


def _claim_thm_4_1(max_n: int):
    tested, witnesses = 0, []
    for code, g in _catalog_range(5, max_n):
        dec = decompose(g)
        if dec.kind is not Kind.PRIME:
            continue
        if sum(1 for _, p in dec.intervals if p.n >= 2) < 2:
            continue
        if not _splice_condition_holds(dec):
            continue
        tested += 1
        if not _reconstructs(g):
            witnesses.append(code)
    return tested, witnesses


def _claim_cor_4_2(max_n: int):
    tested, witnesses = 0, []
    for code, g in _catalog_range(5, max_n):
        dec = decompose(g)
        if dec.kind is not Kind.PRIME:
            continue
        if sum(1 for _, p in dec.intervals if p.n >= 2) < 2:
            continue
        if any(len(o) > 1 for o in automorphism_orbits(dec.skeleton)):
            continue
        tested += 1
        if not _reconstructs(g):
            witnesses.append(code)
    return tested, witnesses


def _claim_cor_4_3(max_n: int):
    tested, witnesses = 0, []
    for code, g in _catalog_range(4, max_n):
        dec = decompose(g)
        if dec.kind is Kind.INDECOMPOSABLE:
            continue
        if dec.kind is Kind.PRIME:
            if sum(1 for _, p in dec.intervals if p.n >= 2) < 2:
                continue
            if len(automorphism_orbits(dec.skeleton)) != 1:
                continue
        tested += 1
        if not _reconstructs(g):
            witnesses.append(code)
    return tested, witnesses


def _claim_thm_4_6(max_n: int):
    tested, witnesses = 0, []
    for code, g in _catalog_range(5, max_n):
        dec = decompose(g)
        if dec.kind is not Kind.PRIME:
            continue
        nons = [p for _, p in dec.intervals if p.n >= 2]
        if len(nons) != 1 or nons[0].n != 2:
            continue
        if not in_family_G(dec.skeleton):
            continue
        tested += 1
        if not _reconstructs(g):
            witnesses.append(code)
    return tested, witnesses


def _claim_recognition(max_n: int):
    # indecomposability is decided by the deck: deck-equal graphs agree on it
    tested, witnesses = 0, []
    for n in range(3, min(max_n, 6) + 1):
        groups: dict[tuple[str, ...], set[bool]] = defaultdict(set)
        names: dict[tuple[str, ...], list[str]] = defaultdict(list)
        for code, g in _catalog_range(n, n):
            cards = make_deck(g).cards
            groups[cards].add(is_indecomposable(g))
            names[cards].append(code)
        for cards, flags in groups.items():
            tested += 1
            if len(flags) > 1:
                witnesses.append(" ".join(names[cards]))
    return tested, witnesses


def _claim_rc_exhaustive(max_n: int):
    # decks determine graphs for 3 <= n <= 7; at n = 2 both graphs share a deck
    tested, witnesses = 0, []
    for n in range(3, min(max_n, 7) + 1):
        groups: dict[tuple[str, ...], list[str]] = defaultdict(list)
        for code, g in _catalog_range(n, n):
            groups[make_deck(g).cards].append(code)
        for cards, codes in groups.items():
            tested += 1
            if len(codes) != 1:
                witnesses.append(" ".join(sorted(codes)))
    if max_n >= 2:
        tested += 1
        two = {make_deck(from_graph6(code)).cards for code in enumerate_graphs(2).classes}
        if len(two) != 1:
            witnesses.append("n=2 decks unexpectedly distinguish the two graphs")
    return tested, witnesses


def _claim_kelly(max_n: int):
    tested, witnesses = 0, []
    for code, g in _catalog_range(3, min(max_n, 7)):
        tested += 1
        if edge_count_from_deck(make_deck(g)) != g.edge_count():
            witnesses.append(code)
    return tested, witnesses


def _open_case(g: Graph) -> bool:
    """Ground-truth check that g sits in a case the theory leaves open."""
    dec = decompose(g)
    if dec.kind is not Kind.PRIME:
        return False
    k = dec.skeleton
    nons = [p for _, p in dec.intervals if p.n >= 2]
    if len(nons) >= 2:
        return not _splice_condition_holds(dec) and len(automorphism_orbits(k)) > 1
    if len(nons) == 1 and nons[0].n == 2:
        return not in_family_G(k) and not relaxed_skeleton_condition(k)
    return False


def _claim_reconstruction(max_n: int):
    # soundness over every decomposable graph: reconstruct the original or
    # report Unsupported only inside the open cases
    tested, witnesses = 0, []
    for code, g in _catalog_range(4, max_n):
        dec = decompose(g)
        if dec.kind is Kind.INDECOMPOSABLE:
            continue
        tested += 1
        res = reconstruct(make_deck(g))
        if res.reconstructed:
            if not is_isomorphic(res.graph, g):
                witnesses.append(f"{code} -> {canonical_form(res.graph)}")
        elif res.status == "unsupported":
            if not _open_case(g):
                witnesses.append(f"{code} unsupported: {res.reason}")
        else:
            witnesses.append(f"{code} {res.status}")
    return tested, witnesses


# claim id -> (smallest order the claim examines, check up to max_n)
CLAIMS = {
    "fig1-counts": (3, _claim_fig1_counts),
    "fig2-criticality": (4, _claim_fig2_criticality),
    "thm-2.2": (4, _claim_thm_2_2),
    "lem-2.3": (5, _claim_lem_2_3),
    "cor-2.5": (6, _claim_cor_2_5),
    "lem-3.1": (4, _claim_lem_3_1),
    "thm-3.2": (4, _claim_thm_3_2),
    "lem-3.4": (4, _claim_lem_3_4),
    "lem-3.5": (4, _claim_lem_3_5),
    "lem-3.6": (4, _claim_lem_3_6),
    "thm-4.1": (5, _claim_thm_4_1),
    "cor-4.2": (5, _claim_cor_4_2),
    "cor-4.3": (4, _claim_cor_4_3),
    "thm-4.6": (5, _claim_thm_4_6),
    "recognition": (3, _claim_recognition),
    "rc-exhaustive": (2, _claim_rc_exhaustive),
    "kelly": (3, _claim_kelly),
    "reconstruction": (4, _claim_reconstruction),
}


def check_claim(name: str, max_n: int) -> ClaimReport:
    """Exhaustively verify a registered claim up to max_n vertices."""
    if name not in CLAIMS:
        raise UnknownClaimError(f"unknown claim {name!r}; known: {sorted(CLAIMS)}")
    lo, claim = CLAIMS[name]
    if max_n < lo:
        raise ClaimRangeError(f"claim {name} starts at n={lo}; max_n={max_n} tests nothing")
    start = time.perf_counter()
    tested, witnesses = claim(max_n)
    seconds = time.perf_counter() - start
    return ClaimReport(
        claim=name,
        max_n=max_n,
        tested=tested,
        passed=tested - len(witnesses),
        failed=len(witnesses),
        witnesses=tuple(witnesses[:50]),
        seconds=round(seconds, 3),
    )
