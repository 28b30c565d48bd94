"""Decks of vertex-deleted subgraphs, stored as sorted multisets of canonical codes."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .canon import _symmetry, canonical_form
from .graphs import MAX_VERTICES, Graph, from_graph6
from .modular import decompose


class DeckError(ValueError):
    """Structurally invalid deck input."""


class DeckIntegrityError(ValueError):
    """A deck failed an exact consistency identity it must satisfy."""


@dataclass(frozen=True, slots=True)
class Deck:
    """The multiset of n one-vertex-deleted subgraphs of an n-vertex graph.

    Cards may be given as any graph6 codes of the right order; they are
    stored canonicalised and sorted, so multiset equality is plain tuple
    equality.
    """

    n: int
    cards: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise DeckError(f"deck size {self.n} outside 1..{MAX_VERTICES}")
        if len(self.cards) != self.n:
            raise DeckError(f"expected {self.n} cards, got {len(self.cards)}")
        canon: dict[str, str] = {}
        for code in dict.fromkeys(self.cards):
            card = from_graph6(code)
            if card.n != self.n - 1:
                raise DeckError("card order does not match deck size")
            canon[code] = canonical_form(card)
        object.__setattr__(self, "cards", tuple(sorted(canon[code] for code in self.cards)))


def _trusted_deck(n: int, cards: tuple[str, ...]) -> Deck:
    """A Deck built without validation, for cards that are canonical codes on
    n - 1 vertices and sorted by construction."""
    d = object.__new__(Deck)
    object.__setattr__(d, "n", n)
    object.__setattr__(d, "cards", cards)
    return d


def make_deck(g: Graph) -> Deck:
    """The deck of g: its n one-vertex-deleted subgraphs, as sorted codes,
    from one symmetry search of g. Cards of vertices in one automorphism
    orbit are equal, so the card of the orbit's smallest vertex is coded for
    all of it."""
    if g.n < 1:
        raise ValueError("graphs with no vertices have no deck")
    cards: list[str] = []
    for orbit in _symmetry(g)[1]:
        cards += [canonical_form(g.delete_vertex(orbit[0]))] * len(orbit)
    return _trusted_deck(g.n, tuple(sorted(cards)))


def edge_count_from_deck(d: Deck) -> int:
    """|E(G)| recovered from the deck: sum of card edge counts over n-2."""
    return _edge_count(d.n, [from_graph6(code) for code in d.cards])


def _edge_count(n: int, cards: list[Graph]) -> int:
    """The edge-sum identity over the n decoded cards of a deck."""
    if n < 3:
        raise ValueError("edge recovery needs at least three cards")
    total = sum(card.edge_count() for card in cards)
    if total % (n - 2):
        raise DeckIntegrityError("card edge counts violate the edge-sum identity")
    return total // (n - 2)


def skeleton_code(code: str) -> str:
    """Canonical code of the skeleton of the graph a card encodes."""
    return canonical_form(decompose(from_graph6(code)).skeleton)


# -- deck files: one graph6 card per line, '#' comments, blank lines ignored --


def parse_deck_text(text: str) -> Deck:
    codes = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        codes.append(line)
    if not codes:
        raise DeckError("deck file contains no cards")
    return Deck(len(codes), tuple(codes))


def load_deck(path: str | Path) -> Deck:
    return parse_deck_text(Path(path).read_text())
