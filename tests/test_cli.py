import json

import pytest

from deckrecon import canonical_form, cycle_graph, inflate, make_deck
from deckrecon.cli import main
from deckrecon.graphs import complete_graph, empty_graph, path_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def deck_file(capsys, tmp_path, g):
    """The deck of g, written to a file as `deckrecon deck` prints it."""
    code, out, _ = run(capsys, "deck", g.to_graph6())
    assert code == 0
    path = tmp_path / "deck.g6"
    path.write_text(out)
    return path


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", canonical_form(cycle_graph(5)))
    assert code == 0
    assert out.strip() == "kind: indecomposable"


def test_decompose_json_prime(capsys, c5):
    g = inflate(c5, [complete_graph(2)] + [empty_graph(1)] * 4)
    code, out, _ = run(capsys, "decompose", g.to_graph6(), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "prime"
    assert payload["skeleton"] == canonical_form(c5)
    assert len(payload["intervals"]) == 5


def test_decompose_degenerate_json(capsys):
    code, out, _ = run(capsys, "decompose", empty_graph(3).to_graph6(), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "degenerate-parallel"
    assert payload["parts"] == ["@", "@", "@"]


# the exact text and JSON of `deckrecon decompose` at every kind: P4
# (indecomposable), three isolated vertices (parallel), K3 (series), and C5
# with one vertex inflated to K2 (prime, its intervals listed by vertex)
DECOMPOSE_OUTPUT = [
    (path_graph(4), "kind: indecomposable\n", '{"kind": "indecomposable", "n": 4}\n'),
    (
        empty_graph(3),
        "kind: degenerate-parallel\npart: @\npart: @\npart: @\n",
        '{"kind": "degenerate-parallel", "n": 3, "parts": ["@", "@", "@"]}\n',
    ),
    (
        complete_graph(3),
        "kind: degenerate-series\npart: @\npart: @\npart: @\n",
        '{"kind": "degenerate-series", "n": 3, "parts": ["@", "@", "@"]}\n',
    ),
    (
        inflate(cycle_graph(5), [complete_graph(2)] + [empty_graph(1)] * 4),
        "kind: prime\nskeleton: DLo\ninterval at vertex 0: A_\n"
        + "".join(f"interval at vertex {v}: @\n" for v in range(1, 5)),
        '{"intervals": [{"graph6": "A_", "vertex": 0}, {"graph6": "@", "vertex": 1}, '
        '{"graph6": "@", "vertex": 2}, {"graph6": "@", "vertex": 3}, '
        '{"graph6": "@", "vertex": 4}], "kind": "prime", "n": 6, "skeleton": "DLo"}\n',
    ),
]


@pytest.mark.parametrize("g, text, payload", DECOMPOSE_OUTPUT)
def test_decompose_output_at_every_kind(capsys, g, text, payload):
    assert run(capsys, "decompose", g.to_graph6()) == (0, text, "")
    assert run(capsys, "decompose", g.to_graph6(), "--json") == (0, payload, "")


def test_a_lone_at_sign_is_the_one_vertex_graph(capsys, tmp_path):
    # "@" is the graph6 literal of K1, not a file reference: no path is empty
    assert run(capsys, "decompose", "@") == (0, "kind: indecomposable\n", "")
    assert run(capsys, "deck", "@") == (0, "?\n", "")
    code, _, err = run(capsys, "decompose", f"@{tmp_path / 'absent.g6'}")
    assert code == 2 and err.startswith("error: cannot read")


def test_deck_output(capsys, c5):
    code, out, _ = run(capsys, "deck", canonical_form(c5))
    assert code == 0
    assert out.split() == list(make_deck(c5).cards)


def test_graph_from_file(capsys, tmp_path, c5):
    path = tmp_path / "graph.g6"
    for text in ("# comment\n", "  # indented comment\n"):
        path.write_text(text + canonical_form(c5) + "\n")
        code, out, _ = run(capsys, "deck", f"@{path}")
        assert code == 0
        assert out.split() == list(make_deck(c5).cards)


def test_reconstruct_roundtrip(capsys, tmp_path, c5):
    g = inflate(c5, [complete_graph(2)] + [empty_graph(1)] * 4)
    path = deck_file(capsys, tmp_path, g)
    code, out, _ = run(capsys, "reconstruct", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "reconstructed"
    assert payload["graph6"] == canonical_form(g)
    assert payload["provenance"] == "size-two interval, orbit identified"


def test_reconstruct_unsupported_exit_code(capsys, tmp_path, c5):
    path = deck_file(capsys, tmp_path, c5)
    code, out, _ = run(capsys, "reconstruct", str(path))
    assert code == 1
    assert out.startswith("unsupported:")


def test_reconstruct_a_13_vertex_skeleton_exits_0(capsys, tmp_path):
    g = inflate(cycle_graph(13), [complete_graph(2)] + [empty_graph(1)] * 12)
    path = deck_file(capsys, tmp_path, g)
    code, out, _ = run(capsys, "reconstruct", str(path))
    assert code == 0
    assert out.splitlines() == [
        canonical_form(g), "provenance: size-two interval, orbit identified"
    ]


def test_reconstruct_oracle_fallback(capsys, tmp_path, c5):
    path = deck_file(capsys, tmp_path, c5)
    code, out, _ = run(capsys, "reconstruct", str(path), "--oracle-fallback", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["provenance"] == "oracle"
    assert payload["graph6"] == canonical_form(c5)


def test_reconstruct_an_ambiguous_deck(capsys, tmp_path):
    # two one-vertex cards: K2 and its complement both have this deck, and
    # the oracle lists both codes
    path = tmp_path / "two.deck"
    path.write_text("@\n@\n")
    argv = ("reconstruct", "--oracle-fallback", str(path))
    assert run(capsys, *argv) == (1, "ambiguous: 2 candidates\nA?\nA_\n", "")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out) == {
        "candidates": ["A?", "A_"],
        "reason": "decks with fewer than three cards are ambiguous in general",
        "status": "ambiguous",
    }


def test_verify_claim(capsys):
    code, out, _ = run(capsys, "verify", "fig1-counts", "--max-n", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0 and payload["tested"] == 3


def test_verify_reports_the_orders_it_examined(capsys):
    # kelly stops at 7 and recognition at 8, whatever larger --max-n is given
    code, out, _ = run(capsys, "verify", "kelly", "--max-n", "9")
    assert code == 0 and out.startswith("claim kelly up to n=7: ")
    code, out, _ = run(capsys, "verify", "recognition", "--max-n", "9", "--json")
    assert code == 0 and json.loads(out)["max_n"] == 8


def test_verify_a_range_that_tests_nothing_exits_2(capsys):
    for max_n in ("-1", "3"):
        code, out, err = run(capsys, "verify", "thm-2.2", "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert "tests nothing" in err
    code, out, _ = run(capsys, "verify", "thm-2.2", "--max-n", "4")
    assert code == 0 and "1/1 passed" in out


def test_bad_graph6_exits_2(capsys):
    code, _, err = run(capsys, "decompose", "not-a-graph~~~")
    assert code == 2
    assert "error:" in err


def test_missing_deck_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "reconstruct", str(tmp_path / "absent.g6"))
    assert code == 2


def test_non_utf8_files_exit_2(capsys, tmp_path):
    path = tmp_path / "bin"
    path.write_bytes(b"\xff\xfe\x00D\x00L\x00o\n")
    for argv in (("reconstruct", str(path)), ("decompose", f"@{path}")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: cannot read"), argv


def test_unknown_claim_exits_2(capsys):
    code, _, err = run(capsys, "verify", "no-such-claim")
    assert code == 2
    assert "unknown claim" in err


def test_oversized_graph_exits_2(capsys):
    # the long-form header of a 65-vertex graph
    code, _, err = run(capsys, "decompose", "~?@@")
    assert code == 2


def test_oversized_deck_exits_2(capsys, tmp_path):
    # 65 cards on 64 vertices: the deck of a graph past the 64-vertex cap
    path = tmp_path / "big.deck"
    path.write_text((empty_graph(64).to_graph6() + "\n") * 65)
    code, _, err = run(capsys, "reconstruct", str(path))
    assert code == 2
    assert "error:" in err


def test_decompose_of_the_empty_graph_exits_2(capsys):
    code, _, err = run(capsys, "decompose", "?")
    assert code == 2
    assert "error:" in err


def test_deck_of_the_empty_graph_exits_2(capsys):
    code, out, err = run(capsys, "deck", "?")
    assert (code, out) == (2, "")
    assert err == "error: graphs with no vertices have no deck\n"


def test_graph_file_of_two_lines_exits_2(capsys, tmp_path, c5):
    path = tmp_path / "two.g6"
    path.write_text(canonical_form(c5) + "\n" + canonical_form(c5) + "\n")
    code, out, err = run(capsys, "decompose", f"@{path}")
    assert (code, out) == (2, "")
    assert err == "error: graph file must contain exactly one graph6 line\n"


def test_internal_value_error_exits_3(capsys, monkeypatch, c5):
    def broken(g):
        raise ValueError("precondition violated")

    monkeypatch.setattr("deckrecon.cli.decompose", broken)
    code, _, err = run(capsys, "decompose", canonical_form(c5))
    assert code == 3
    assert "precondition violated" in err
