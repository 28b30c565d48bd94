import hashlib

import pytest

from deckrecon import (
    CapabilityError,
    Deck,
    Graph,
    ReconstructionResult,
    canonical_form,
    complete_graph,
    cycle_graph,
    empty_graph,
    is_isomorphic,
    make_deck,
    path_graph,
)
from deckrecon import oracle
from deckrecon.canon import canonical_code
from deckrecon.graphs import from_graph6
from deckrecon.oracle import (
    CLAIMS,
    ENUMERATION_LIMIT,
    KNOWN_COUNTS,
    ClaimRangeError,
    ClaimReport,
    UnknownClaimError,
    catalog_graphs,
    check_claim,
    enumerate_graphs,
    oracle_preimages,
)


def test_catalog_counts():
    for n in range(0, 8):
        assert len(enumerate_graphs(n)) == KNOWN_COUNTS[n]


def test_catalog_entries_are_canonical_and_distinct():
    for n in range(8):
        codes = enumerate_graphs(n)
        assert list(codes) == sorted(set(codes))
        for code in codes:
            assert canonical_form(from_graph6(code)) == code


def test_fresh_catalog_build_pins_the_canonical_codes():
    # Every process builds its catalogs with the canon under test; pinning
    # the n = 7 text catches a canon that picks different codes.
    classes = (canonical_form(Graph(0, ())),)
    for n in range(1, 8):
        classes = oracle._build_catalog(n, classes)
        assert len(classes) == KNOWN_COUNTS[n]
    text = "".join(code + "\n" for code in classes)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4013d256b7784bd47aa92592394bf9bbc758e520d14692c5fd901165ba9f4948"
    )


def full_mask_catalog(n, prev):
    """The reference build: every one-vertex extension of every parent."""
    seen = set()
    for code in prev:
        g = from_graph6(code)
        for mask in range(1 << (n - 1)):
            rows = [g.adj[v] | ((mask >> v & 1) << (n - 1)) for v in range(n - 1)]
            rows.append(mask)
            seen.add(canonical_code(n, tuple(rows)))
    return tuple(sorted(seen))


def test_catalog_build_matches_the_full_mask_build():
    for n in range(1, 8):
        prev = enumerate_graphs(n - 1)
        assert oracle._build_catalog(n, prev) == full_mask_catalog(n, prev), n


def test_catalog_build_canonicalises_only_extensions_whose_new_vertex_has_the_largest_degree(
    monkeypatch,
):
    # 9,984 extensions of the 156 six-vertex graphs. Keeping those whose new
    # vertex has the largest degree, one per orbit of the parent's
    # automorphisms and with at most 10 of the 21 edges, plus one complement
    # per class with at most 10 edges, leaves 1,209; at n = 8, 15,646 of the
    # 133,632 extensions of the 1,044 seven-vertex graphs
    parents = {n: enumerate_graphs(n - 1) for n in (7, 8)}
    calls = []

    def counted(n, adj):
        calls.append(n)
        return canonical_code(n, adj)

    monkeypatch.setattr(oracle, "canonical_code", counted)
    for n, want in ((7, 1209), (8, 15646)):
        calls.clear()
        assert len(oracle._build_catalog(n, parents[n])) == KNOWN_COUNTS[n]
        assert len(calls) == want, n


def test_catalog_closed_under_complement():
    codes = set(enumerate_graphs(7))
    for code in codes:
        assert canonical_form(from_graph6(code).complement()) in codes


def test_catalog_contains_named_graphs():
    codes = set(enumerate_graphs(5))
    for g in (cycle_graph(5), path_graph(5), complete_graph(5), empty_graph(5)):
        assert canonical_form(g) in codes


def test_catalog_files_on_disk_are_ignored(monkeypatch, tmp_path):
    # files with the right line count but the wrong codes, where catalogs
    # were once cached, are not read; __wrapped__ builds outside the
    # process's memo, so no other test has to rebuild its catalogs
    poisoned = canonical_form(empty_graph(5)) + "\n"
    for directory in (tmp_path / "cache", tmp_path / "home" / ".cache" / "deckrecon"):
        directory.mkdir(parents=True)
        (directory / "catalog-5.g6").write_text(poisoned * KNOWN_COUNTS[5])
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    want = full_mask_catalog(5, enumerate_graphs(4))
    monkeypatch.setenv("DECKRECON_CACHE", str(tmp_path / "cache"))
    assert enumerate_graphs.__wrapped__(5) == want
    monkeypatch.delenv("DECKRECON_CACHE")
    assert enumerate_graphs.__wrapped__(5) == want


def test_enumeration_limit():
    with pytest.raises(CapabilityError):
        enumerate_graphs(9)
    with pytest.raises(CapabilityError):
        enumerate_graphs(-1)


def test_catalog_graphs_helper():
    graphs = catalog_graphs(3)
    assert sorted(g.edge_count() for g in graphs) == [0, 1, 2, 3]


def test_oracle_preimages_unique_small():
    for g in (cycle_graph(5), path_graph(4), complete_graph(3)):
        pre = oracle_preimages(make_deck(g))
        assert len(pre) == 1 and is_isomorphic(pre[0], g)


def test_oracle_preimages_n2_collision():
    # both 2-vertex graphs have the same deck: two single vertices
    d = make_deck(complete_graph(2))
    assert d.cards == make_deck(empty_graph(2)).cards
    pre = oracle_preimages(d)
    assert len(pre) == 2


def test_oracle_preimages_none():
    # edge sum 9 is odd, so Kelly's identity already rules out any preimage
    k3 = canonical_form(complete_graph(3))
    e3 = canonical_form(empty_graph(3))
    d = Deck(4, tuple(sorted([k3, k3, k3, e3])))
    assert oracle_preimages(d) == []


def test_check_claim_report_shape():
    report = check_claim("fig1-counts", 5)
    assert isinstance(report, ClaimReport)
    assert report.ok and report.failed == 0 and report.tested == 3
    payload = report.to_dict()
    assert payload["claim"] == "fig1-counts"
    assert payload["witnesses"] == []
    assert payload["seconds"] >= 0


def test_check_claim_unknown():
    with pytest.raises(UnknownClaimError):
        check_claim("no-such-claim", 5)


def test_check_claim_rejects_a_range_below_the_claim():
    for name, (lo, _, claim) in CLAIMS.items():
        # lo is the smallest order the claim examines: below it nothing is tested
        assert claim(lo - 1) == (0, []), name
        with pytest.raises(ClaimRangeError):
            check_claim(name, lo - 1)
        with pytest.raises(ClaimRangeError):
            check_claim(name, -1)


def test_reports_give_the_highest_order_examined():
    # a claim with its own largest order stops there and reports it, not the
    # larger max_n it was given
    tops = {name: hi for name, (_, hi, _) in CLAIMS.items() if hi is not None}
    assert tops == {
        "fig1-counts": 5,
        "fig2-criticality": 10,
        "recognition": 8,
        "rc-exhaustive": 8,
        "kelly": 7,
    }
    for name, hi in tops.items():
        report = check_claim(name, hi + 2)
        assert report.max_n == hi, name
        assert report.tested == check_claim(name, hi).tested, name
        assert check_claim(name, hi - 1).max_n == hi - 1, name


def test_check_claim_respects_max_n():
    small = check_claim("kelly", 4)
    larger = check_claim("kelly", 6)
    assert small.tested < larger.tested


def test_claims_pass_at_reduced_scale():
    # each registered claim holds over a cheap range; the acceptance tests
    # re-run the expensive ones at full scale
    for name, max_n in [
        ("fig2-criticality", 6),
        ("thm-2.2", 6),
        ("lem-2.3", 6),
        ("cor-2.5", 6),
        ("lem-3.1", 6),
        ("thm-3.2", 6),
        ("lem-3.4", 6),
        ("lem-3.5", 6),
        ("lem-3.6", 6),
        ("thm-4.1", 6),
        ("cor-4.3", 6),
        ("thm-4.6", 6),
        ("recognition", 5),
        ("rc-exhaustive", 5),
        ("reconstruction", 6),
    ]:
        report = check_claim(name, max_n)
        assert report.ok, (name, report.witnesses[:3])
        assert report.tested > 0


def test_cor_4_2_vacuous_below_eight_vertices():
    # asymmetric indecomposable skeletons need 6 vertices, plus two maximal
    # intervals of size >= 2, so the first instances live on 8 vertices
    assert check_claim("cor-4.2", 7).tested == 0
    report = check_claim("cor-4.2", 8)
    assert report.ok and report.tested > 0


def test_claims_past_the_catalogs_fail_before_examining_a_graph(monkeypatch):
    # claims that cap their own range stop there; every other claim sweeps
    # the catalogs and must refuse a larger max_n up front
    capped = {"fig1-counts", "fig2-criticality", "recognition", "rc-exhaustive", "kelly"}
    sweeping = sorted(set(CLAIMS) - capped)
    assert len(sweeping) == 13
    examined = []
    monkeypatch.setattr(oracle, "enumerate_graphs", examined.append)
    monkeypatch.setattr(oracle, "from_graph6", examined.append)
    for name in sweeping:
        with pytest.raises(CapabilityError, match="enumeration limited to 8 vertices"):
            check_claim(name, ENUMERATION_LIMIT + 1)
    assert examined == []


def test_witness_formats(monkeypatch):
    # no claim fails on the catalogs, so one check per kind is made to fail

    # a per-graph claim names the graph
    c5_deck = make_deck(cycle_graph(5))
    edge_count = oracle.edge_count_from_deck
    monkeypatch.setattr(
        oracle,
        "edge_count_from_deck",
        lambda d: edge_count(d) + 1 if d == c5_deck else edge_count(d),
    )
    assert check_claim("kelly", 5).witnesses == (canonical_form(cycle_graph(5)),)

    # a per-vertex claim names the graph and the vertex
    p6 = from_graph6(canonical_form(path_graph(6)))
    table = oracle.indecomposable_masks
    monkeypatch.setattr(
        oracle,
        "indecomposable_masks",
        lambda g: [False] * (1 << g.n) if g == p6 else table(g),
    )
    report = check_claim("cor-2.5", 6)
    assert report.witnesses == tuple(f"{p6.to_graph6()} vertex={v}" for v in range(6))

    # reconstruction names the graph and why it was left unsupported
    c4_deck = make_deck(cycle_graph(4))
    rebuild = oracle.reconstruct
    monkeypatch.setattr(
        oracle,
        "reconstruct",
        lambda d: ReconstructionResult("unsupported", reason="stub") if d == c4_deck else rebuild(d),
    )
    c4 = canonical_form(cycle_graph(4))
    assert check_claim("reconstruction", 4).witnesses == (f"{c4} unsupported: stub",)

    # a deck-class claim names the class's codes; at n = 2 the two graphs
    # must share one deck, and decks that tell them apart fail by code
    p4 = canonical_form(path_graph(4))
    e2, k2 = canonical_form(empty_graph(2)), canonical_form(complete_graph(2))
    index = oracle._deck_index
    forged = {2: {("x",): [e2], ("y",): [k2]}, 4: {("x",): [p4, c4]}}
    monkeypatch.setattr(oracle, "_deck_index", lambda n: forged.get(n) or index(n))
    assert check_claim("recognition", 5).witnesses == (f"{p4} {c4}",)
    assert check_claim("rc-exhaustive", 5).witnesses == (e2, k2, f"{p4} {c4}")

    # fig1-counts names the order and both counts; fig2-criticality the
    # half-graph's graph6
    indecomposable = oracle.is_indecomposable
    monkeypatch.setattr(
        oracle, "is_indecomposable", lambda g: g.n != 4 and indecomposable(g)
    )
    assert check_claim("fig1-counts", 5).witnesses == ("n=4: counted 0, expected 1",)
    halves = [oracle.critically_indecomposable(4, c).to_graph6() for c in (False, True)]
    assert check_claim("fig2-criticality", 6).witnesses == tuple(halves)
