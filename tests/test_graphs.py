"""Graph structure, invariants, and serialization against brute-force oracles."""

import itertools
import json
import random

import pytest

from edgeideals.catalog import connected_graphs_on, graphs_on
from edgeideals.graphs import (
    SimpleGraph,
    bipartition,
    c_number,
    canonical_form,
    complement_components,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    ferrers_graph,
    are_isomorphic,
    bit_list,
    is_chordal,
    is_cochordal,
    is_complete_bipartite,
    is_ferrers,
    iter_bits,
    path_graph,
)
from edgeideals.witness import a_number, is_three_disjoint


def brute_three_disjoint(g, e1, e2):
    ends = set(e1) | set(e2)
    if len(ends) != 4:
        return False
    induced = sum(1 for u, v in itertools.combinations(sorted(ends), 2) if g.has_edge(u, v))
    return induced == 2


def brute_a_number(g):
    edges = g.edges()
    for k in range(len(edges), 0, -1):
        for combo in itertools.combinations(edges, k):
            if all(
                brute_three_disjoint(g, e1, e2)
                for e1, e2 in itertools.combinations(combo, 2)
            ):
                return k
    return 0


def brute_complement_components(g):
    comp = g.complement()
    seen = set()
    count = 0
    for s in range(g.n):
        if s in seen:
            continue
        count += 1
        stack = [s]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(w for w in range(g.n) if comp.has_edge(u, w))
    return count


def brute_chordal(g):
    """No induced cycle of length four or more."""
    for size in range(4, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            mask = sum(1 << v for v in combo)
            h = g.induced_subgraph(mask)
            if h.edge_count() == size and all(h.degree(v) == 2 for v in range(size)):
                if h.is_connected():
                    return False
    return True


def small_graphs(max_n=5):
    for n in range(1, max_n + 1):
        yield from graphs_on(n)


def test_construction_and_basic_queries():
    g = SimpleGraph(4, [(0, 1), (1, 2)])
    assert g.edge_count() == 2
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.degree(1) == 2 and g.degree(3) == 0
    assert g.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        g.add_edge(2, 2)
    with pytest.raises(ValueError):
        g.add_edge(0, 1)
    with pytest.raises(ValueError):
        g.add_edge(0, 4)


def test_induced_subgraph_and_complement():
    g = cycle_graph(5)
    h = g.induced_subgraph(0b10111)
    assert h.n == 4
    assert h.edge_count() == 3
    comp = complete_graph(4).complement()
    assert comp.edge_count() == 0
    assert path_graph(2).complement().edge_count() == 0


def test_components():
    g = disjoint_union(path_graph(3), cycle_graph(3))
    assert len(g.components()) == 2
    assert not g.is_connected()
    assert cycle_graph(4).is_connected()


def test_text_round_trip_and_validation():
    text = "# comment\n4\n0 1\n2 3  # tail\n"
    g = SimpleGraph.from_text(text)
    assert g.edges() == [(0, 1), (2, 3)]
    with pytest.raises(ValueError):
        SimpleGraph.from_text("3\n0 1\n0 1\n")
    with pytest.raises(ValueError):
        SimpleGraph.from_text("3\n2 2\n")
    with pytest.raises(ValueError):
        SimpleGraph.from_text("\n")
    with pytest.raises(ValueError):
        SimpleGraph.from_text("3\n0 1 2\n")


def test_malformed_json_raises_value_error():
    for obj in (
        [],
        {"edges": 5},
        {"edges": [[0]]},
        {"edges": [[0, 1.5]]},
        {"edges": [["a", "b"]]},
        {"labels": "ab", "edges": []},
        {"labels": ["a", "b"], "edges": [["a", "z"]]},
    ):
        with pytest.raises(ValueError):
            SimpleGraph.from_json(obj)


def test_json_round_trip(tmp_path):
    g = SimpleGraph(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
    h = SimpleGraph.from_json(json.dumps(g.to_json()))
    assert h == g and h.labels == ["a", "b", "c"]
    assert SimpleGraph.from_json({"edges": [["a", "b"]], "labels": ["a", "b"]}).edge_count() == 1
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json()))
    assert SimpleGraph.load(str(path)) == g
    path2 = tmp_path / "g.txt"
    path2.write_text("3\n0 1\n1 2\n")
    assert SimpleGraph.load(str(path2)).edge_count() == 2


def test_three_disjoint_matches_brute_force():
    for g in small_graphs(5):
        edges = g.edges()
        for e1, e2 in itertools.combinations(edges, 2):
            assert is_three_disjoint(g, e1, e2) == brute_three_disjoint(g, e1, e2)


def test_three_disjoint_rejects_non_edges():
    g = path_graph(4)
    with pytest.raises(ValueError):
        is_three_disjoint(g, (0, 2), (1, 3))


def test_a_number_against_brute_force():
    for g in small_graphs(5):
        assert a_number(g) == brute_a_number(g)
    for g in connected_graphs_on(6):
        assert a_number(g) == brute_a_number(g)


def test_a_number_known_values():
    assert a_number(cycle_graph(4)) == 1
    assert a_number(cycle_graph(6)) == 2
    assert a_number(path_graph(6)) == 2
    assert a_number(complete_bipartite_graph(3, 3)) == 1


def test_c_number_is_complement_component_count():
    for g in small_graphs(5):
        assert c_number(g) == brute_complement_components(g)
    assert c_number(complete_bipartite_graph(2, 3)) == 2
    assert c_number(complete_graph(1)) == 1
    assert c_number(path_graph(4)) == 1


def brute_complete_bipartite(g, sigma):
    """Every split of sigma into two nonempty parts with exactly the cross edges."""
    verts = [v for v in range(g.n) if sigma >> v & 1]
    for bits in range(1, 1 << len(verts)):
        left = sum(1 << v for k, v in enumerate(verts) if bits >> k & 1)
        right = sigma & ~left
        if right and left & 1 << verts[0] and all(
            g.has_edge(u, w) == ((left >> u & 1) != (left >> w & 1))
            for u, w in itertools.combinations(verts, 2)
        ):
            return left, right
    return None


def reference_bits(mask):
    """The set bits of mask in increasing order, one low bit at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_iter_bits_matches_the_low_bit_loop():
    rng = random.Random(16)
    # every mask across the table edge at 2**10, then wide masks up to 64 bits
    masks = list(range(4096)) + [rng.getrandbits(rng.randint(1, 64)) for _ in range(200)]
    for mask in masks:
        expected = reference_bits(mask)
        assert list(iter_bits(mask)) == bit_list(mask) == expected, mask
        assert max(iter_bits(mask), default=-1) == (expected[-1] if expected else -1)


def test_mask_helpers_match_induced_subgraphs():
    for g in small_graphs(5):
        for sigma in range(1, 1 << g.n):
            h = g.induced_subgraph(sigma)
            assert complement_components(g, sigma) == brute_complement_components(h)
            assert is_complete_bipartite(g, sigma) == brute_complete_bipartite(g, sigma)
        assert complement_components(g, 0) == 0
        assert is_complete_bipartite(g, 0) is None


def test_bipartition_and_complete_bipartite():
    parts = bipartition(cycle_graph(6))
    assert parts is not None and parts[0] | parts[1] == 0b111111
    assert bipartition(cycle_graph(5)) is None
    got = is_complete_bipartite(complete_bipartite_graph(2, 3))
    assert got is not None and {got[0].bit_count(), got[1].bit_count()} == {2, 3}
    assert is_complete_bipartite(path_graph(4)) is None
    assert is_complete_bipartite(cycle_graph(4)) is not None


def test_chordal_against_brute_force():
    for g in small_graphs(5):
        assert is_chordal(g) == brute_chordal(g)
    for g in connected_graphs_on(6):
        assert is_chordal(g) == brute_chordal(g)


def test_cochordal_is_complement_chordality():
    for g in small_graphs(5):
        assert is_cochordal(g) == brute_chordal(g.complement())


def test_canonical_form_is_permutation_invariant():
    rng = random.Random(7)
    for g in connected_graphs_on(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = SimpleGraph(g.n)
        for u, v in g.edges():
            h.add_edge(perm[u], perm[v])
        assert canonical_form(g) == canonical_form(h)


def brute_isomorphic(g, h):
    if (g.n, g.edge_count()) != (h.n, h.edge_count()):
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(h.has_edge(perm[u], perm[v]) for u, v in g.edges()):
            return True
    return False


def test_are_isomorphic_against_brute_force():
    rng = random.Random(11)
    pool = list(graphs_on(5))
    for _ in range(60):
        g, h = rng.choice(pool), rng.choice(pool)
        assert are_isomorphic(g, h) == brute_isomorphic(g, h)


def test_are_isomorphic_on_symmetric_blowups():
    k66 = complete_bipartite_graph(6, 6)
    two_k33 = disjoint_union(
        complete_bipartite_graph(3, 3), complete_bipartite_graph(3, 3)
    )
    assert not are_isomorphic(k66, two_k33)
    assert are_isomorphic(k66, complete_bipartite_graph(6, 6))


def test_ferrers_constructor_and_recognizer():
    g = ferrers_graph((2, 2))
    assert are_isomorphic(g, cycle_graph(4))
    assert is_ferrers(g)
    assert is_ferrers(ferrers_graph((3, 2, 1)))
    assert is_ferrers(complete_bipartite_graph(2, 3))
    assert not is_ferrers(path_graph(5))
    assert not is_ferrers(cycle_graph(6))
    with pytest.raises(ValueError):
        ferrers_graph((1, 2))


def test_is_ferrers_matches_structural_characterization():
    # connected bipartite with an edge and no induced two-edge matching
    for g in small_graphs(5):
        expect = (
            g.is_connected()
            and g.edge_count() >= 1
            and bipartition(g) is not None
            and a_number(g) <= 1
        )
        assert is_ferrers(g) == expect
