"""The outcome dump: reconstruct every catalog deck on 3-8 vertices and a
fixed seeded list of decomposable decks on 9-14 vertices, write one line per
deck, and check the SHA-256 of the text against the pin below.

Each line holds the graph6 code of the graph behind the deck, then the
status, provenance, reason, candidates and the canonical code of the
returned graph. A change that keeps every answer keeps the pin; one that
moves it must say which decks moved and why.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/outcome_dump.py [DUMP_PATH]

It exits 1 if the hash differs from the pin, and writes the text to
DUMP_PATH when one is given, so that two dumps can be compared line by line.
"""

from __future__ import annotations

import hashlib
import random
import sys
from itertools import combinations

from deckrecon import (
    Graph,
    canonical_form,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_graph6,
    inflate,
    is_indecomposable,
    make_deck,
    reconstruct,
)
from deckrecon.oracle import enumerate_graphs

PIN = "3216d5640f912b3f86a7ca95ddbb81a8eb17cba6bedff83a42ec50b5c30feba9"

PAST_EIGHT = 240

K1 = empty_graph(1)


def random_graph(n: int, rng: random.Random, p: float) -> Graph:
    return Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def random_indecomposable(n: int, rng: random.Random) -> Graph:
    while True:
        g = random_graph(n, rng, 0.5)
        if is_indecomposable(g):
            return g


def past_eight_graph(i: int, rng: random.Random) -> Graph:
    """A seeded decomposable graph on 9-14 vertices, randomly relabelled,
    by i mod 4: a disjoint union, its complement, a random prime skeleton on
    4-8 vertices with one to three non-singleton intervals, or a random prime
    skeleton or a cycle on 8-13 vertices with one size-two interval."""
    n = rng.randrange(9, 15)
    if i % 4 < 2:
        cuts = sorted(rng.sample(range(1, n), rng.randrange(1, 4)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        g = disjoint_union([random_graph(s, rng, rng.random()) for s in sizes])
        if i % 4:
            g = g.complement()
    elif i % 4 == 2:
        k = random_indecomposable(rng.randrange(4, 9), rng)
        spots = rng.sample(range(k.n), min(rng.randrange(1, 4), n - k.n))
        sizes = [1] * k.n
        for _ in range(n - k.n):
            sizes[rng.choice(spots)] += 1
        g = inflate(k, [random_graph(s, rng, rng.random()) for s in sizes])
    else:
        k = random_indecomposable(n - 1, rng) if i % 8 == 3 else cycle_graph(n - 1)
        spot, pair = rng.randrange(k.n), random_graph(2, rng, 0.5)
        g = inflate(k, [pair if v == spot else K1 for v in range(k.n)])
    perm = list(range(n))
    rng.shuffle(perm)
    return g.relabel(perm)


def dump_graphs() -> list[Graph]:
    graphs = [from_graph6(code) for n in range(3, 9) for code in enumerate_graphs(n)]
    rng = random.Random(10)
    return graphs + [past_eight_graph(i, rng) for i in range(PAST_EIGHT)]


def dump_line(g: Graph) -> str:
    res = reconstruct(make_deck(g))
    fields = (
        g.to_graph6(),
        res.status,
        res.provenance or "-",
        res.reason or "-",
        ",".join(res.candidates) or "-",
        canonical_form(res.graph) if res.graph is not None else "-",
    )
    return "\t".join(fields)


def main(argv: list[str]) -> int:
    text = "".join(dump_line(g) + "\n" for g in dump_graphs())
    if len(argv) > 1:
        with open(argv[1], "w") as f:
            f.write(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"{text.count(chr(10))} decks, sha256 {digest}")
    if digest != PIN:
        print(f"outcome dump differs from the pin {PIN}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
