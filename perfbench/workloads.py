"""The three workloads: what each op is, how its inputs are made, how it is checked.

Each workload is made in two steps. `plan` draws every input from the seed
with this directory's own code (`graphgen`), its own data (`desk_graphs.g6`)
and seeded `random`, so one seed gives the same inputs on every commit.
`build` turns the plan into the program's own values (decks or graphs); that
part is the program's set-up work and is what `setup_s` times.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import graphgen as gg

# Every decomposable graph on 4-8 vertices, one graph6 code a line, in a fixed
# order (ascending n). The desk-sweep corpus is drawn from this list, not from
# the program's catalog, whose codes and order depend on `canon`.
DESK_GRAPHS = Path(__file__).resolve().parent / "desk_graphs.g6"
DESK_GRAPH_COUNTS = {4: 10, 5: 30, 6: 130, 7: 784, 8: 7676}

# reconstruct() provenances and unsupported reasons, as the program words them.
PROVENANCE_SLUGS = {
    "degenerate components": "degenerate",
    "multi-interval splice": "multi",
    "single large interval splice": "single-large",
    "size-two interval, orbit identified": "pair-orbit",
    "size-two interval, orbit identified (relaxed)": "pair-relaxed",
    "size-two interval at unique position": "pair-unique",
    "vertex-transitive skeleton": "vertex-transitive",
}
UNSUPPORTED_SLUGS = {
    "hereditary orbits": "unsupported-hereditary",
    "size-two interval with unidentifiable orbit": "unsupported-pair-orbit",
    "deck not recognised as that of a decomposable graph; "
    "reconstruction assumes decomposable input": "unsupported-not-decomposable",
}
RECONSTRUCTED_SLUGS = (*PROVENANCE_SLUGS.values(), "reconstructed-other")
FAILURE_SLUGS = ("refused-capability", "error", "time-limit", "wrong")
OUTCOME_SLUGS = (
    *RECONSTRUCTED_SLUGS,
    *UNSUPPORTED_SLUGS.values(),
    "unsupported-other",
    "ambiguous",
    *FAILURE_SLUGS,
)


@dataclass
class Item:
    label: str
    rows: gg.Rows
    twin: gg.Rows | None = None  # a second relabelled copy, for deck checks
    arg: Any = None  # the op's argument, made by `build`


@dataclass
class Plan:
    items: list[Item]
    # Inputs on which the program fails at seed; run after the measured phase.
    probes: list[Item] = field(default_factory=list)


class Workload:
    name = ""
    limit = 30.0  # per-op time limit, seconds
    tail_pct = 90
    block = 1  # the measured phase ends on a multiple of this many ops
    setup_repeats = 3  # builds of the op arguments; set-up counts their median
    trace_ops = 0  # ops in a traced run
    reconstructs = True

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny
        import deckrecon

        self.dr = deckrecon

    def prepare(self) -> None:
        """Program set-up that comes before any input exists."""

    def plan(self, seed: int, seconds: float) -> Plan:
        raise NotImplementedError

    def build(self, plan: Plan) -> None:
        for item in plan.items + plan.probes:
            item.arg = self.dr.make_deck(self.dr.Graph(len(item.rows), item.rows))

    def op(self, item: Item):
        return self.dr.reconstruct(item.arg)

    def outcome(self, record) -> str:
        """Slug for an op's outcome; a slug in FAILURE_SLUGS marks a failed op."""
        if record.timed_out:
            return "time-limit"
        if record.error is not None:
            if isinstance(record.error, self.dr.CapabilityError):
                return "refused-capability"
            return "error"
        return self.check(record.item, record.result)

    def check(self, item: Item, result) -> str:
        dr = self.dr
        status = str(getattr(result.status, "value", result.status))
        if status == "reconstructed":
            want = dr.canonical_form(dr.Graph(len(item.rows), item.rows))
            if dr.canonical_form(result.graph) != want:
                return "wrong"
            return PROVENANCE_SLUGS.get(result.provenance, "reconstructed-other")
        if status == "unsupported":
            return UNSUPPORTED_SLUGS.get(result.reason, "unsupported-other")
        return "ambiguous"


class DeskSweep(Workload):
    """Decks of every decomposable graph on 4-7 vertices and an eighth of those on 8."""

    name = "desk-sweep"
    limit = 10.0
    trace_ops = 300
    STRIDE = 8

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        self.max_n = 6 if tiny else 8

    def prepare(self) -> None:
        from deckrecon.oracle import enumerate_graphs

        # Cold: the cache directory is fresh, so every order is built. The
        # catalogs are set-up work only; the inputs come from DESK_GRAPHS.
        enumerate_graphs(self.max_n)

    def plan(self, seed: int, seconds: float) -> Plan:
        rng = random.Random(seed)
        by_order: dict[int, list[gg.Rows]] = {}
        for code in DESK_GRAPHS.read_text().split():
            rows = gg.graph6_rows(code)
            by_order.setdefault(len(rows), []).append(rows)
        if {n: len(g) for n, g in by_order.items()} != DESK_GRAPH_COUNTS:
            raise ValueError(f"{DESK_GRAPHS.name} does not hold the expected graphs")
        strata = []
        for n in range(4, self.max_n + 1):
            graphs = by_order[n]
            if n == self.max_n:
                # A fixed stride through the list, wrapping round, from a
                # seeded offset; the stride is near len/phi, so the chosen
                # eighth is spread evenly rather than one residue mod 8.
                order = gg.spread_order(rng, len(graphs))
                graphs = [graphs[i] for i in sorted(order[: len(graphs) // self.STRIDE])]
            for degenerate in (True, False):
                group = [rows for rows in graphs if gg.is_degenerate(rows) == degenerate]
                label = f"n{n}-{'degenerate' if degenerate else 'prime-quotient'}"
                strata.append([Item(label, group[i]) for i in gg.spread_order(rng, len(group))])
        return Plan(gg.interleave(rng, [s for s in strata if s]))


class Cycled(Workload):
    """Inputs drawn as repeated cycles of fixed shapes, in a seeded order.

    The measured phase runs whole cycles, so every run sees the same mix of
    shapes however fast the program is; only edges and labels vary by seed.
    """

    CYCLE: tuple = ()
    TINY_CYCLE: tuple = ()
    PROBES: tuple = ()
    # Cycles generated per second of measurement: enough distinct inputs
    # that no op repeats within a run, with room for a faster program.
    cycles_per_second = 0.6

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        self.cycle = self.TINY_CYCLE if tiny else self.CYCLE
        self.block = self.trace_ops = len(self.cycle)

    def plan(self, seed: int, seconds: float) -> Plan:
        rng = random.Random(seed)
        cycles = 2 if self.tiny else max(4, math.ceil(seconds * self.cycles_per_second))
        items = []
        for _ in range(cycles):
            shapes = list(self.cycle)
            rng.shuffle(shapes)
            items.extend(self.make_item(rng, *shape) for shape in shapes)
        probes = [] if self.tiny else [self.make_item(rng, *shape) for shape in self.PROBES]
        return Plan(items, probes)

    @staticmethod
    def make_item(rng: random.Random, *shape) -> Item:
        raise NotImplementedError


# Large-n: one cycle of (shape, n, skeleton order k, non-singleton interval
# sizes). A degenerate graph's sizes are its (co-)components. The mix is
# weighted towards n = 12; with whole cycles, p50 falls among the n = 12
# decks and p75 among the n = 14 ones, not in the gap between two orders.
LARGE_N_CYCLE = (
    ("parallel", 12, 2, (6, 6)),
    ("series", 12, 2, (5, 7)),
    ("series", 13, 3, (4, 4, 5)),
    ("parallel", 14, 3, (4, 5, 5)),
    ("parallel", 15, 2, (7, 8)),
    ("series", 16, 3, (5, 5, 6)),
    ("multi", 12, 10, (2, 2)),
    ("multi", 12, 9, (2, 3)),
    ("multi", 12, 9, (2, 2, 2)),
    ("large", 12, 10, (3,)),
    ("large", 12, 8, (5,)),
    ("pair", 12, 11, (2,)),
    ("multi", 14, 11, (2, 3)),
    ("multi", 14, 12, (2, 2)),
    ("multi", 14, 10, (3, 3)),
    ("large", 14, 10, (5,)),
    ("large", 14, 12, (3,)),
    ("large", 14, 9, (6,)),
    ("large", 16, 11, (6,)),
)
LARGE_N_TINY_CYCLE = tuple(LARGE_N_CYCLE[i] for i in (0, 6, 9, 11))
# Decks whose skeleton has 13 vertices: reconstruct() raises CapabilityError
# on them (orbit cap 12 in the multi branch, criticality cap 12 in the pair
# branch), although they are well-formed decks of decomposable graphs.
LARGE_N_PROBES = (("pair", 14, 13, (2,)), ("multi", 15, 13, (2, 2)))


def _large_item(rng: random.Random, shape: str, n: int, k: int, sizes: tuple) -> Item:
    if shape in ("parallel", "series"):  # disconnected or co-disconnected
        rows = gg.disjoint_union([gg.random_connected(rng, s) for s in sizes])
        if shape == "series":
            rows = gg.complement(rows)
    else:
        parts = [gg.random_rows(rng, s) for s in sizes] + [(0,)] * (k - len(sizes))
        rng.shuffle(parts)
        rows = gg.inflate(gg.random_prime(rng, k), parts)
    assert len(rows) == n
    return Item(f"{shape}-n{n}-k{k}", gg.shuffled(rng, rows))


class LargeN(Cycled):
    """Seeded random decomposable graphs on 12-16 vertices, one deck each."""

    name = "large-n"
    limit = 30.0
    tail_pct = 75
    CYCLE = LARGE_N_CYCLE
    TINY_CYCLE = LARGE_N_TINY_CYCLE
    PROBES = LARGE_N_PROBES
    make_item = staticmethod(_large_item)


# Deck-build: one cycle of (family, n). G(n, 1/2) is asymmetric and cheap;
# the symmetric families make canonical labelling search deep trees. Every
# size appears in every cycle, and the costliest symmetric inputs are kept
# near 5% of ops, so that p50 and p90 fall where op costs are dense rather
# than in a gap between families.
DECK_BUILD_CYCLE = (
    *(("gnp", 12 + 28 * j // 50) for j in range(51)),
    ("empty", 8), ("empty", 9), ("empty", 10),
    ("matching", 10), ("matching", 12), ("matching", 14),
    ("c5s", 10), ("c5s", 15), ("c5s", 20),
)
DECK_BUILD_TINY_CYCLE = (("gnp", 12), ("gnp", 16), ("empty", 6), ("matching", 6), ("c5s", 10))
# Symmetric inputs at n = 32-64 that the current canonical labelling cannot
# finish within the per-op limit; each is expected to take minutes or more.
DECK_BUILD_PROBES = (("empty", 32), ("matching", 48), ("c5s", 60))


class DeckBuild(Cycled):
    """make_deck on randomly relabelled graphs, asymmetric and symmetric."""

    name = "deck-build"
    limit = 1.5
    reconstructs = False
    setup_repeats = 15  # one build takes only about 0.1 s
    cycles_per_second = 2.0
    CYCLE = DECK_BUILD_CYCLE
    TINY_CYCLE = DECK_BUILD_TINY_CYCLE
    PROBES = DECK_BUILD_PROBES

    @staticmethod
    def make_item(rng: random.Random, family: str, n: int) -> Item:
        if family == "gnp":
            rows = gg.random_rows(rng, n)
        elif family == "empty":
            rows = gg.empty(n)
        elif family == "matching":
            rows = gg.matching(n)
        else:
            rows = gg.disjoint_union([gg.cycle(5)] * (n // 5))
        return Item(f"{family}-n{n}", gg.shuffled(rng, rows), twin=gg.shuffled(rng, rows))

    def build(self, plan: Plan) -> None:
        for item in plan.items + plan.probes:
            item.arg = self.dr.Graph(len(item.rows), item.rows)

    def op(self, item: Item):
        return self.dr.make_deck(item.arg)

    def check(self, item: Item, deck) -> str:
        """Checks that hold whichever canonical code the program picks."""
        n = len(item.rows)
        cards = list(deck.cards)
        shape = [gg.graph6_order_and_edges(c) for c in cards]
        edges = sum(row.bit_count() for row in item.rows) // 2
        ok = (
            deck.n == n
            and len(cards) == n
            and cards == sorted(cards)
            and all(order == n - 1 for order, _ in shape)
            # Kelly: each edge survives on the n - 2 cards that keep both ends.
            and sum(e for _, e in shape) == (n - 2) * edges
            and self.dr.make_deck(self.dr.Graph(n, item.twin)).cards == deck.cards
        )
        return "deck" if ok else "wrong"


WORKLOADS = {w.name: w for w in (DeskSweep, LargeN, DeckBuild)}
