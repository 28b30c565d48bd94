"""Error-contract fuzz: seeded, stdlib-only.

Garbage graph6 and deck text, perturbed decks and relabelled graphs on 3-8
vertices. Only the documented input errors (`Graph6Error`, `DeckError`) may
leave the library on these inputs, `reconstruct` never raises on a
well-formed deck, the public reconstruction steps raise nothing but a
`ValueError` on any deck and skeleton, the CLI answers with an exit code,
and no result depends on how the input graph is labelled.
"""

import random
from collections import Counter

import pytest

from deckrecon import (
    Deck,
    DeckError,
    Graph,
    Graph6Error,
    automorphism_orbits,
    canonical_form,
    canonical_labeling,
    decompose,
    from_graph6,
    inflate,
    interval_single_large,
    interval_single_pair,
    intervals_multi,
    is_indecomposable,
    make_deck,
    parse_deck_text,
    path_graph,
    reconstruct,
    reconstruct_degenerate,
    singleton_count,
    skeleton_from_deck,
)
from deckrecon.cli import main
from deckrecon.modular import Kind
from deckrecon.oracle import enumerate_graphs

from test_graphs import random_graph

G6_CHARS = [chr(c) for c in range(63, 127)]


def _small_code(rng, lo=1, hi=8):
    return random_graph(rng.randrange(lo, hi + 1), rng, rng.random()).to_graph6()


def _garbage_graph6(rng):
    """A mangled small graph6 code, or a short random string."""
    text = _small_code(rng)
    roll = rng.randrange(6)
    if roll == 0:
        return "".join(rng.choice(G6_CHARS) for _ in range(rng.randrange(0, 10)))
    if roll == 1:
        return text[: rng.randrange(len(text) + 1)]
    if roll == 2:
        return text + "".join(rng.choice(G6_CHARS) for _ in range(rng.randrange(1, 3)))
    i = rng.randrange(len(text))
    ch = rng.choice(G6_CHARS + [" ", "\t", "~", "!", "\x7f", "é", "\x00"])
    if roll == 3:
        return text[:i] + ch + text[i + 1 :]
    if roll == 4:
        return text[:i] + ch + text[i:]
    return ">>graph6<<" + text[:i] + ch + text[i + 1 :]


def _garbage_deck_text(rng):
    """A deck file with mangled, foreign, blank and comment lines mixed in."""
    g = random_graph(rng.randrange(3, 9), rng, rng.random())
    lines = list(make_deck(g).cards)
    for _ in range(rng.randrange(4)):
        roll = rng.randrange(5)
        i = rng.randrange(len(lines) + 1)
        if roll == 0:
            lines.insert(i, _garbage_graph6(rng))
        elif roll == 1:
            lines.insert(i, _small_code(rng))
        elif roll == 2:
            lines.insert(i, rng.choice(["", "   ", "# comment", "  # indented"]))
        elif roll == 3 and lines:
            del lines[rng.randrange(len(lines))]
        else:
            rng.shuffle(lines)
    return "\n".join(lines)


def _perturbed_deck(rng):
    """Deck(n, cards) for a deck with one card swapped, dropped, added or moved."""
    n = rng.randrange(3, 9)
    cards = list(make_deck(random_graph(n, rng, rng.random())).cards)
    roll = rng.randrange(6)
    if roll == 0:
        cards[rng.randrange(n)] = canonical_form(random_graph(n - 1, rng, rng.random()))
    elif roll == 1:
        other = make_deck(random_graph(n, rng, rng.random())).cards
        k = rng.randrange(1, n + 1)
        cards = cards[k:] + list(other[:k])
    elif roll == 2:
        del cards[rng.randrange(n)]
    elif roll == 3:
        cards.append(rng.choice(cards))
    elif roll == 4:
        cards[rng.randrange(n)] = _small_code(rng, lo=0)
    if roll != 5:
        cards.sort()
    else:
        rng.shuffle(cards)
    return Deck(n, tuple(cards))


def _check_result(d, res):
    assert res.status in ("reconstructed", "unsupported")
    if res.reconstructed:
        assert make_deck(res.graph) == d
    else:
        assert res.graph is None and res.reason


def test_garbage_graph6_raises_only_graph6_error():
    rng = random.Random(31)
    decoded = 0
    for _ in range(3000):
        text = _garbage_graph6(rng)
        try:
            g = from_graph6(text)
        except Graph6Error:
            continue
        decoded += 1
        assert g == Graph(g.n, g.adj)
        assert g.to_graph6() == text.removeprefix(">>graph6<<")
    assert 0 < decoded < 3000


def test_garbage_deck_text_raises_only_documented_errors():
    rng = random.Random(32)
    parsed = 0
    for _ in range(400):
        try:
            d = parse_deck_text(_garbage_deck_text(rng))
        except (Graph6Error, DeckError):
            continue
        parsed += 1
        _check_result(d, reconstruct(d))
    assert 0 < parsed < 400


def test_perturbed_decks_raise_only_deck_errors_and_reconstruct_soundly():
    rng = random.Random(33)
    statuses = Counter()
    for _ in range(3000):
        try:
            d = _perturbed_deck(rng)
        except DeckError:
            statuses["rejected"] += 1
            continue
        res = reconstruct(d)
        _check_result(d, res)
        statuses[res.status] += 1
    assert set(statuses) == {"rejected", "reconstructed", "unsupported"}


def _step_graph(n, rng):
    """A random graph on n vertices, or when n >= 4 a random inflation of P4
    whose added vertices mostly join one interval."""
    if n < 4 or rng.random() < 0.5:
        return random_graph(n, rng, rng.random())
    sizes = [1] * 4
    big = rng.randrange(4)
    for _ in range(n - 4):
        sizes[big if rng.random() < 0.7 else rng.randrange(4)] += 1
    return inflate(path_graph(4), [random_graph(m, rng, rng.random()) for m in sizes])


def _step_deck(rng):
    """A deck on 1-9 vertices: a random multiset of catalog cards, or the
    cards of one to three random graphs, mixed."""
    n = rng.randrange(1, 10)
    if rng.random() < 0.3:
        return Deck(n, tuple(rng.choices(enumerate_graphs(n - 1), k=n)))
    graphs = [_step_graph(n, rng) for _ in range(rng.randrange(1, 4))]
    return Deck(n, tuple(rng.choice(graphs).delete_vertex(v).to_graph6() for v in range(n)))


def test_public_steps_raise_only_value_errors():
    # each step, on any deck and any skeleton, answers or raises a ValueError
    # (DeckIntegrityError, CapabilityError or a bare precondition); k is the
    # deck's own skeleton where it has one, else a random catalog graph
    rng = random.Random(36)
    answered = Counter()
    for _ in range(400):
        d = _step_deck(rng)
        try:
            k = skeleton_from_deck(d)
            answered["skeleton_from_deck"] += 1
        except ValueError:
            k = None
        if k is None or rng.random() < 0.3:
            k = from_graph6(rng.choice(enumerate_graphs(rng.randrange(1, 9))))
        steps = (singleton_count, intervals_multi, interval_single_large, interval_single_pair)
        for step in steps:
            try:
                step(d, k)
                answered[step.__name__] += 1
            except ValueError:
                pass
        try:
            reconstruct_degenerate(d)
            answered["reconstruct_degenerate"] += 1
        except ValueError:
            pass
    assert len(answered) == 6, answered


def test_cli_answers_garbage_with_an_exit_code(capsys, tmp_path):
    rng = random.Random(34)
    path = tmp_path / "deck.g6"
    for _ in range(150):
        text = _garbage_graph6(rng)
        assert main(["deck", text]) in (0, 2)
        assert main(["decompose", text]) in (0, 2)
        path.write_text(_garbage_deck_text(rng))
        assert main(["reconstruct", str(path)]) in (0, 1, 2)
    capsys.readouterr()


def _outcome(res):
    return (res.status, res.provenance, res.reason, res.graph and canonical_form(res.graph))


def _labelling_free(g):
    dec = decompose(g)
    skel = canonical_form(dec.skeleton) if dec.kind is Kind.PRIME else None
    res = reconstruct(make_deck(g)) if dec.kind is not Kind.INDECOMPOSABLE else None
    outcome = _outcome(res) if res else None
    return (
        canonical_form(g),
        g.relabel(canonical_labeling(g)),
        make_deck(g),
        sorted(len(o) for o in automorphism_orbits(g)),
        is_indecomposable(g),
        dec.kind,
        skel,
        sorted(canonical_form(p) for p in dec.parts or ()),
        outcome,
    )


def _relabelled_deck(g, rng):
    """Deck(n, cards) from g's cards, each relabelled at random, in random order."""
    cards = []
    for v in range(g.n):
        card = g.delete_vertex(v)
        perm = list(range(card.n))
        rng.shuffle(perm)
        cards.append(card.relabel(perm).to_graph6())
    rng.shuffle(cards)
    return Deck(g.n, tuple(cards))


@pytest.mark.parametrize("n", range(3, 9))
def test_results_do_not_depend_on_the_labelling(n):
    rng = random.Random(35 + n)
    deck_rng = random.Random(135 + n)
    for _ in range(40):
        g = random_graph(n, rng, rng.random())
        want = _labelling_free(g)
        for _ in range(2):
            perm = list(range(n))
            rng.shuffle(perm)
            assert _labelling_free(g.relabel(perm)) == want, (g, perm)
        d = _relabelled_deck(g, deck_rng)
        assert d == make_deck(g), g
        assert _outcome(reconstruct(d)) == _outcome(reconstruct(make_deck(g))), g
