"""Graph structure, invariants, and serialization against brute-force oracles."""

import itertools
import json
import random
import time

import pytest

from edgeideals.catalog import connected_graphs_on, graphs_on, unmixed_blowups
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
                if len(h.components()) == 1:
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
    assert len(cycle_graph(4).components()) == 1


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


def relabelled(g, rng):
    """g with its vertices renamed by a random permutation drawn from rng."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def brute_isomorphic(g, h):
    if (g.n, g.edge_count()) != (h.n, h.edge_count()):
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(h.has_edge(perm[u], perm[v]) for u, v in g.edges()):
            return True
    return False


def _wl_colors(n, adj):
    """1-WL colour classes: split by the multiset of neighbour colours until stable."""
    colors = [a.bit_count() for a in adj]
    while True:
        sig = [(colors[v], tuple(sorted(colors[w] for w in iter_bits(adj[v])))) for v in range(n)]
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranks[sig[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def reference_isomorphic(g, h):
    """Backtracking isomorphism test with joint colour refinement, independent of
    canonical_form: colours are refined on the disjoint union so classes align
    across the two graphs, and one colour-preserving bijection is searched for."""
    n = g.n
    if n != h.n or g.edge_count() != h.edge_count():
        return False
    colors = _wl_colors(2 * n, list(g.adj) + [m << n for m in h.adj])
    gcol, hcol = colors[:n], colors[n:]
    if sorted(gcol) != sorted(hcol):
        return False
    # map g-vertices in order of ascending candidate count
    order = sorted(range(n), key=lambda v: (hcol.count(gcol[v]), v))
    mapped_to = [-1] * n

    def place(k, used):
        if k == n:
            return True
        v = order[k]
        for w in range(n):
            if used >> w & 1 or hcol[w] != gcol[v]:
                continue
            if all(g.has_edge(v, order[j]) == h.has_edge(w, mapped_to[order[j]]) for j in range(k)):
                mapped_to[v] = w
                if place(k + 1, used | 1 << w):
                    return True
        return False

    return place(0, 0)


def test_canonical_form_is_permutation_invariant():
    rng = random.Random(7)
    for g in small_graphs(6):
        assert canonical_form(g) == canonical_form(relabelled(g, rng))


def test_are_isomorphic_against_brute_force():
    rng = random.Random(11)
    pool = list(graphs_on(5))
    for _ in range(60):
        g, h = rng.choice(pool), relabelled(rng.choice(pool), rng)
        want = brute_isomorphic(g, h)
        assert are_isomorphic(g, h) == want
        assert reference_isomorphic(g, h) == want


@pytest.mark.parametrize("pool", ["graphs_on(6)", "unmixed_blowups(3, 3, 12)"])
def test_are_isomorphic_against_the_reference(pool):
    rng = random.Random(13)
    graphs = list(graphs_on(6)) if pool == "graphs_on(6)" else unmixed_blowups(3, 3, 12)
    same = 0
    for _ in range(200):
        g = rng.choice(graphs)
        # every other pair is a relabelled copy; the rest share g's vertex count
        other = g if rng.random() < 0.5 else rng.choice([x for x in graphs if x.n == g.n])
        h = relabelled(other, rng)
        want = reference_isomorphic(g, h)
        assert are_isomorphic(g, h) == want
        same += want
    assert 50 < same < 150


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SimpleGraph(10, outer + spokes + inner)


def rook_graph(k):
    """K_k box K_k: cells of a k-by-k board, adjacent when they share a row or column."""
    return SimpleGraph(k * k, [
        (a, b) for a in range(k * k) for b in range(a + 1, k * k) if a // k == b // k or a % k == b % k
    ])


def hypercube_graph(d):
    return SimpleGraph(1 << d, [(a, a | 1 << i) for a in range(1 << d) for i in range(d) if not a >> i & 1])


def matching_graph(m):
    return SimpleGraph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


def two_triangles():
    return disjoint_union(complete_graph(3), complete_graph(3))


def prism_graph():
    return SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


# (graph, per-call budget in seconds): permuting inside every 1-WL class takes
# seconds on the first four and never ends on 6K_2 (one class of 12 vertices);
# the last two are regular, so one 1-WL class holds vertices of two orbits
SYMMETRIC = {
    "C_9": (lambda: cycle_graph(9), 0.1),
    "C_10": (lambda: cycle_graph(10), 0.1),
    "Petersen": (petersen_graph, 0.1),
    "rook_3x3": (lambda: rook_graph(3), 0.1),
    "K_6,6": (lambda: complete_bipartite_graph(6, 6), 0.1),
    "2K_3,3": (lambda: disjoint_union(complete_bipartite_graph(3, 3), complete_bipartite_graph(3, 3)), 0.1),
    "6K_2": (lambda: matching_graph(6), 0.5),
    "Q_4": (lambda: hypercube_graph(4), 0.5),
    "C_6+2K_3": (lambda: disjoint_union(cycle_graph(6), two_triangles()), 0.1),
    "K_3,3+prism": (lambda: disjoint_union(complete_bipartite_graph(3, 3), prism_graph()), 0.1),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_canonical_form_on_symmetric_and_twin_heavy_graphs(name):
    build, budget = SYMMETRIC[name]
    g = build()
    rng = random.Random(17)
    key = canonical_form(g)
    fastest = float("inf")
    for _ in range(5):
        h = relabelled(g, rng)
        start = time.perf_counter()
        assert canonical_form(h) == key
        fastest = min(fastest, time.perf_counter() - start)
    assert fastest < budget, f"{name}: {fastest:.3f} s per call"


@pytest.mark.parametrize(
    "g, h",
    [
        # both 2-regular on 6 vertices, and both 3-regular on 6 vertices:
        # colour refinement alone leaves each in one class
        (cycle_graph(6), two_triangles()),
        (complete_bipartite_graph(3, 3), prism_graph()),
    ],
)
def test_canonical_form_separates_what_colour_refinement_cannot(g, h):
    assert (g.n, g.edge_count()) == (h.n, h.edge_count())
    assert canonical_form(g) != canonical_form(h)
    assert not are_isomorphic(g, h)
    assert not reference_isomorphic(g, h)
    rng = random.Random(19)
    assert are_isomorphic(g, relabelled(g, rng)) and are_isomorphic(h, relabelled(h, rng))


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
            len(g.components()) == 1
            and g.edge_count() >= 1
            and bipartition(g) is not None
            and a_number(g) <= 1
        )
        assert is_ferrers(g) == expect
