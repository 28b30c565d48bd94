"""Decks of vertex-deleted subgraphs, stored as sorted multisets of canonical codes."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .canon import canonical_form
from .graphs import Graph, from_graph6
from .modular import skeleton


class DeckError(ValueError):
    """Structurally invalid deck input."""


class DeckIntegrityError(ValueError):
    """A deck failed an exact consistency identity it must satisfy."""


@dataclass(frozen=True)
class Deck:
    """The multiset of n one-vertex-deleted subgraphs of an n-vertex graph.

    Cards are canonical graph6 codes kept sorted, so multiset equality is
    plain tuple equality.
    """

    n: int
    cards: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DeckError("deck needs at least one card")
        if len(self.cards) != self.n:
            raise DeckError(f"expected {self.n} cards, got {len(self.cards)}")
        if list(self.cards) != sorted(self.cards):
            raise DeckError("cards must be sorted")
        for code in self.cards:
            if from_graph6(code).n != self.n - 1:
                raise DeckError("card order does not match deck size")


def make_deck(g: Graph) -> Deck:
    if g.n < 1:
        raise ValueError("graphs with no vertices have no deck")
    cards = sorted(canonical_form(g.delete_vertex(v)) for v in range(g.n))
    return Deck(g.n, tuple(cards))


def deck_equal(a: Deck, b: Deck) -> bool:
    return a.n == b.n and a.cards == b.cards


def card_graphs(d: Deck) -> list[Graph]:
    return [from_graph6(code) for code in d.cards]


def edge_count_from_deck(d: Deck) -> int:
    """|E(G)| recovered from the deck: sum of card edge counts over n-2."""
    if d.n < 3:
        raise ValueError("edge recovery needs at least three cards")
    total = sum(from_graph6(code).edge_count() for code in d.cards)
    if total % (d.n - 2):
        raise DeckIntegrityError("card edge counts violate the edge-sum identity")
    return total // (d.n - 2)


def skeleton_code(code: str) -> str:
    """Canonical code of the skeleton of the graph a card encodes."""
    return canonical_form(skeleton(from_graph6(code)))


# -- deck files: one graph6 card per line, '#' comments, blank lines ignored --


def parse_deck_text(text: str) -> Deck:
    codes = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        codes.append(canonical_form(from_graph6(line)))
    if not codes:
        raise DeckError("deck file contains no cards")
    orders = {from_graph6(c).n for c in codes}
    if len(orders) != 1:
        raise DeckError("cards of mixed orders in deck file")
    return Deck(len(codes), tuple(sorted(codes)))


def load_deck(path: str | Path) -> Deck:
    return parse_deck_text(Path(path).read_text())


def save_deck(d: Deck, path: str | Path) -> None:
    Path(path).write_text("".join(code + "\n" for code in d.cards))
