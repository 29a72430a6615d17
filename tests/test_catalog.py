"""Catalog generators: pinned counts, dedup soundness, spec-driven assembly."""

import hashlib
import itertools
import json

import pytest

from edgeideals import catalog
from edgeideals.catalog import (
    cm_poset_graphs,
    connected_graphs_on,
    ferrers_graphs,
    generate_catalog,
    graphs_on,
    named_graph,
    partitions_in_box,
    posets_on,
    unmixed_blowups,
)
from edgeideals.unmixed import is_cm_bipartite
from edgeideals.graphs import (
    complete_bipartite_graph,
    is_chordal,
    is_cochordal,
    is_ferrers,
    path_graph,
)
from edgeideals.unmixed import is_unmixed_bipartite
from test_graphs import reference_isomorphic

# unlabeled simple graphs / connected ones / finite posets, by element count
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
POSET_COUNTS = {0: 1, 1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}
CHORDAL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 10, 5: 27, 6: 94}


def test_graph_counts():
    for n, want in GRAPH_COUNTS.items():
        assert len(graphs_on(n)) == want
    for n, want in CONNECTED_COUNTS.items():
        assert len(connected_graphs_on(n)) == want
        assert all(len(g.components()) == 1 for g in connected_graphs_on(n))


def brute_canonical(g):
    """Least edge bitstring over all n! labellings; a complete invariant for small n."""
    n, edges = g.n, g.edges()
    return (n, min(
        sum(1 << (min(p[u], p[v]) * n + max(p[u], p[v])) for u, v in edges)
        for p in itertools.permutations(range(n))
    ))


def test_graphs_pairwise_distinct():
    # brute force over all n! labellings, independent of canonical_form
    for n in range(1, 7):
        pool = graphs_on(n)
        assert len({brute_canonical(g) for g in pool}) == len(pool)


def digest(pool):
    """Digest of the labels and edges of each graph, in catalog order."""
    data = json.dumps([[g.labels, g.edges()] for g in pool], separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()[:16]


# catalog order is part of every campaign report, so each list is pinned
# graph by graph, as generated before every catalog deduped on canonical_form
CATALOG_DIGESTS = {
    "all/1": "595aa9e11884ae96",
    "all/2": "773c65cab6392c70",
    "all/3": "cbee9799ae951951",
    "all/4": "304220aac52d0a4a",
    "all/5": "697b57ad609596db",
    "all/6": "4790238602934282",
    "all/7": "a6da3ec279a594b9",
    "connected/1": "595aa9e11884ae96",
    "connected/2": "f18ce25e6ad79942",
    "connected/3": "673d69f1d8e30d59",
    "connected/4": "286285c3a4eaad95",
    "connected/5": "a5d7933330b2f76b",
    "connected/6": "7ed2f2e65dcc4951",
    "chordal/1": "595aa9e11884ae96",
    "chordal/2": "773c65cab6392c70",
    "chordal/3": "cbee9799ae951951",
    "chordal/4": "ed55249a48e69658",
    "chordal/5": "18aaffca8c2de60e",
    "chordal/6": "3f32d33126146459",
    "cochordal/1": "595aa9e11884ae96",
    "cochordal/2": "773c65cab6392c70",
    "cochordal/3": "cbee9799ae951951",
    "cochordal/4": "428491a456e05775",
    "cochordal/5": "6e8bbea3c735ada4",
    "cochordal/6": "73cae881b0226791",
    "unmixed_blowups/3/3/12": "ff157119b8213972",
    "ferrers/4/4": "a6766226b5ff28d7",
    "cm_posets/4": "caa1928323039521",
}


def test_catalog_order_is_pinned():
    got = {}
    for n in range(1, 8):
        got[f"all/{n}"] = digest(graphs_on(n))
    for n in range(1, 7):
        got[f"connected/{n}"] = digest(connected_graphs_on(n))
        got[f"chordal/{n}"] = digest([g for g in graphs_on(n) if is_chordal(g)])
        got[f"cochordal/{n}"] = digest([g for g in graphs_on(n) if is_cochordal(g)])
    got["unmixed_blowups/3/3/12"] = digest(unmixed_blowups(3, 3, 12))
    got["ferrers/4/4"] = digest(ferrers_graphs(4, 4))
    got["cm_posets/4"] = digest(cm_poset_graphs(4))
    assert got == CATALOG_DIGESTS


def test_poset_counts():
    for k, want in POSET_COUNTS.items():
        pool = posets_on(k)
        assert len(pool) == want
        assert len({p.canonical_key() for p in pool}) == want


def test_chordal_cochordal_filters():
    for n in range(1, 7):
        chordal = [g for g in graphs_on(n) if is_chordal(g)]
        cochordal = [g for g in graphs_on(n) if is_cochordal(g)]
        assert len(chordal) == CHORDAL_COUNTS[n]
        # complementation is a bijection between the two classes
        assert len(cochordal) == len(chordal)
        assert all(is_chordal(g.complement()) for g in cochordal)


def test_unmixed_blowup_catalog():
    pool = unmixed_blowups(3, 3, 12)
    assert len(pool) == 54
    for g in pool:
        assert g.n <= 12
        assert is_unmixed_bipartite(g)
    for i, g in enumerate(pool):
        for h in pool[i + 1 :]:
            assert not reference_isomorphic(g, h)


def test_cm_poset_graph_catalog():
    pool = cm_poset_graphs(4)
    assert len(pool) == 19
    assert all(is_cm_bipartite(g) for g in pool)


def test_partitions_in_box():
    got = sorted(partitions_in_box(3, 3))
    brute = set()
    for a in range(1, 4):
        brute.add((a,))
        for b in range(1, a + 1):
            brute.add((a, b))
            for c in range(1, b + 1):
                brute.add((a, b, c))
    assert got == sorted(brute)


def test_ferrers_catalog():
    pool = ferrers_graphs(4, 4)
    assert all(is_ferrers(g) for g in pool)
    for i, g in enumerate(pool):
        for h in pool[i + 1 :]:
            assert not reference_isomorphic(g, h)
    # conjugate partitions give the same graph, nothing else collides
    classes = set()
    for lam in partitions_in_box(4, 4):
        conj = tuple(sum(1 for p in lam if p > c) for c in range(lam[0]))
        classes.add(min(lam, conj))
    assert len(pool) == len(classes)


def test_named_graphs():
    assert named_graph("path_4") == path_graph(4)
    assert named_graph("cycle_5").edge_count() == 5
    assert named_graph("complete_4").edge_count() == 6
    assert named_graph("complete_bipartite_2_3") == complete_bipartite_graph(2, 3)
    assert named_graph("ferrers_2_2").edge_count() == 4
    with pytest.raises(ValueError):
        named_graph("petersen")
    with pytest.raises(ValueError):
        named_graph("ferrers_1_2")


def test_generate_catalog_ids_and_errors():
    entries = generate_catalog({"class": "all", "max_n": 4})
    assert len(entries) == 1 + 2 + 4 + 11
    assert entries[0][0] == "all/1/0"
    assert all(gid.startswith("all/") for gid, _ in entries)

    exact = generate_catalog({"class": "connected", "n": 5})
    assert len(exact) == 21

    named = generate_catalog({"class": "named", "names": ["cycle_4", "path_3"]})
    assert [gid for gid, _ in named] == ["named/cycle_4", "named/path_3"]

    with pytest.raises(ValueError):
        generate_catalog({"max_n": 3})
    with pytest.raises(ValueError):
        generate_catalog({"class": "all"})
    with pytest.raises(ValueError):
        generate_catalog({"class": "mystery", "max_n": 3})


def test_generate_catalog_files(tmp_path):
    g = complete_bipartite_graph(2, 2)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json()))
    entries = generate_catalog({"class": "files", "files": [str(path)]})
    assert len(entries) == 1 and entries[0][1] == g


def test_unmixed_blowups_skip_what_max_vertices_leaves_no_room_for(monkeypatch):
    original = catalog.posets_on

    def guarded(k):
        if k > 4:
            raise AssertionError(f"built the posets on {k} elements")
        return original(k)

    monkeypatch.setattr(catalog, "posets_on", guarded)
    # 5 classes need 10 vertices, and no class can have more than 4 columns
    assert unmixed_blowups(7, 3, 8) == unmixed_blowups(4, 3, 8)
    assert unmixed_blowups(2, 10**9, 8) == unmixed_blowups(2, 4, 8)


def test_unmixed_blowup_sizes_are_the_sizes_built():
    for e, z, v in (
        (3, 3, 12), (1, 1, 2), (1, 3, 12), (2, 2, 8), (3, 1, 8),
        (2, 4, 9), (4, 2, 7), (0, 3, 12), (2, 0, 12), (3, 3, 1),
    ):
        spec = {"class": "unmixed_blowups", "max_elements": e, "max_zeta": z, "max_vertices": v}
        built = {g.n for _, g in generate_catalog(spec)}
        assert catalog.catalog_sizes(spec) == sorted(built), spec


@pytest.mark.parametrize(
    "spec",
    [
        {"class": "all", "n": "5"},
        {"class": "cm_posets", "max_elements": 2.0},
        {"class": "unmixed_blowups", "max_zeta": True},
        {"class": "unmixed_blowups", "max_vertices": -2},
        {"class": "ferrers", "max_rows": [1]},
        {"class": "ferrers", "max_cols": -1},
        {"class": "named"},
        {"class": "named", "names": [5]},
        {"class": "named", "names": "path_3"},
        {"class": "files", "files": "g.txt"},
    ],
)
def test_malformed_catalog_specs_raise_value_error(spec):
    with pytest.raises(ValueError):
        generate_catalog(spec)
