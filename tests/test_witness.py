"""Complete bipartite blocks, disjoint families, and witness searches."""

import itertools
import random

import pytest

from edgeideals.catalog import graphs_on
from edgeideals.graphs import (
    SimpleGraph,
    complete_bipartite_graph,
    cycle_graph,
    complement_components,
    disjoint_union,
    is_cochordal,
    iter_bits,
    path_graph,
)
from edgeideals.hochster import graph_betti_table
from edgeideals.linalg import GF2
from edgeideals.witness import (
    CompleteBipartiteSub,
    DisjointFamily,
    _extend,
    all_blocks,
    bouquet_family,
    cochordal_pd,
    find_representatives,
    is_block,
    is_three_disjoint,
    is_valid_family,
    max_pd_witness,
    valid_representatives,
    witness_for,
)
from test_campaigns import disjoint_families


def test_block_normalization_and_validation():
    b = CompleteBipartiteSub(0b1000, 0b0011)
    assert b.left == 0b0011 and b.right == 0b1000
    assert b.size == 3 and b.type() == (1, 2)
    with pytest.raises(ValueError):
        CompleteBipartiteSub(0, 0b10)
    with pytest.raises(ValueError):
        CompleteBipartiteSub(0b11, 0b10)


def test_family_accounting_and_serialization():
    g = cycle_graph(4)
    fam = DisjointFamily([CompleteBipartiteSub(0b0101, 0b1010)], [(0, 1)])
    assert fam.r == 1 and fam.sigma == 0b1111 and fam.value == 3
    obj = fam.to_json(g)
    assert obj["blocks"] == [{"left": ["x1", "x3"], "right": ["x2", "x4"]}]
    again = DisjointFamily.from_json(g, obj)
    assert again.blocks == fam.blocks and again.representatives == fam.representatives
    by_index = DisjointFamily.from_json(
        g, {"blocks": [{"left": [0, 2], "right": [1, 3]}], "representatives": [[1, 0]]}
    )
    assert by_index.blocks == fam.blocks and by_index.representatives == [(0, 1)]
    with pytest.raises(ValueError):
        DisjointFamily([CompleteBipartiteSub(1, 2)], [])


def brute_blocks(g):
    out = set()
    verts = list(range(g.n))
    for k in range(2, g.n + 1):
        for combo in itertools.combinations(verts, k):
            for rsize in range(1, k):
                for rset in itertools.combinations(combo, rsize):
                    left = sum(1 << v for v in combo if v not in rset)
                    right = sum(1 << v for v in rset)
                    if all(
                        g.has_edge(u, v)
                        for u in combo
                        if left >> u & 1
                        for v in rset
                    ):
                        b = CompleteBipartiteSub(left, right)
                        out.add((b.left, b.right))
    return out


def test_all_blocks_matches_brute_force():
    for g in graphs_on(4):
        got = {(b.left, b.right) for b in all_blocks(g)}
        assert got == brute_blocks(g)
    g = cycle_graph(5)
    got = {(b.left, b.right) for b in all_blocks(g)}
    assert got == brute_blocks(g)


def test_all_blocks_respects_caps_and_window():
    g = complete_bipartite_graph(3, 3)
    capped = all_blocks(g, max_vertices=3)
    assert capped and all(b.size <= 3 for b in capped)
    window = 0b001011
    inside = all_blocks(g, within=window)
    assert inside and all(b.vertices & ~window == 0 for b in inside)


def test_find_representatives_pairwise_three_disjoint():
    g = disjoint_union(path_graph(2), path_graph(2))
    blocks = [CompleteBipartiteSub(1, 2), CompleteBipartiteSub(4, 8)]
    reps = find_representatives(g, blocks)
    assert reps is not None and is_three_disjoint(g, reps[0], reps[1])
    # middle edge joins the two candidate representatives: no assignment
    p4 = path_graph(4)
    blocks = [CompleteBipartiteSub(1, 2), CompleteBipartiteSub(4, 8)]
    assert find_representatives(p4, blocks) is None


def pairwise_three_disjoint(g, e1, e2):
    """The induced subgraph on the four ends is exactly the two edges."""
    ends = set(e1) | set(e2)
    return len(ends) == 4 and not any(g.has_edge(x, y) for x in e1 for y in e2)


def cross_edges(g, b):
    return [(min(u, v), max(u, v)) for u in range(g.n) if b.left >> u & 1 for v in range(g.n) if b.right >> v & 1]


def pairwise_representatives(g, blocks):
    """The reference search: one cross edge per block, blocks fewest cross
    edges first, backtracking on pairwise 3-disjointness; the first
    assignment found, or None."""
    per_block = [cross_edges(g, b) for b in blocks]
    order = sorted(range(len(blocks)), key=lambda k: len(per_block[k]))
    chosen = [None] * len(blocks)

    def place(pos):
        if pos == len(order):
            return True
        k = order[pos]
        for e in per_block[k]:
            if all(pairwise_three_disjoint(g, e, chosen[order[q]]) for q in range(pos)):
                chosen[k] = e
                if place(pos + 1):
                    return True
        chosen[k] = None
        return False

    return list(chosen) if place(0) else None


def gnp(n, p, seed):
    rng = random.Random(seed)
    return SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def reference_corpus():
    """Every graph on at most 6 vertices with all its blocks, then seeded
    G(n, p) for n = 7..11 with blocks of at most 3 vertices."""
    for n in range(2, 7):
        for g in graphs_on(n):
            yield g, all_blocks(g)
    for k in range(10):
        g = gnp(7 + k % 5, (0.3, 0.45, 0.6)[k % 3], 100 + k)
        yield g, all_blocks(g, max_vertices=3)


def test_find_representatives_is_the_pairwise_reference():
    compared = found = 0
    for g, blocks in reference_corpus():
        for fam in disjoint_families(blocks, 3):
            if len(fam) > 1:
                want = pairwise_representatives(g, fam)
                assert find_representatives(g, fam) == want
                compared += 1
                found += want is not None
    assert compared > 10000 and 0 < found < compared


def test_valid_representatives_folds_the_pairwise_rule():
    rng = random.Random(5)
    for g, blocks in reference_corpus():
        for fam in disjoint_families(blocks, 3):
            reps = [rng.choice(cross_edges(g, b)) for b in fam]
            want = all(pairwise_three_disjoint(g, e, f) for e, f in itertools.combinations(reps, 2))
            assert is_valid_family(g, DisjointFamily(fam, reps)) == want


def extend_valid_representatives(g, fam):
    """The reference validation: genuine vertex-disjoint blocks inside G, then
    each carried representative, a cross edge of its block, joins through
    ``_extend`` as the block cut down to its two ends."""
    used = 0
    for b in fam.blocks:
        if b.vertices & used or b.vertices & ~g.vertex_mask() or not is_block(g, b):
            return None
        used |= b.vertices
    if not fam.blocks:
        return None
    if fam.representatives is None:
        return find_representatives(g, fam.blocks)
    assignments = [(0, ())]
    for (u, v), b in zip(fam.representatives, fam.blocks):
        ends = 1 << u | 1 << v
        if not (b.left & ends and b.right & ends):
            return None
        assignments = list(_extend(g, assignments, CompleteBipartiteSub(b.left & ends, b.right & ends)))
        if not assignments:
            return None
    return fam.representatives


def test_valid_representatives_matches_the_extend_reference():
    rng = random.Random(11)
    seen = dict.fromkeys(("valid", "overlap", "not a block", "not a cross edge", "not 3-disjoint", "searched"), 0)
    for g, blocks in reference_corpus():
        for _ in range(20 if blocks else 0):
            chosen, used = [], 0
            for _ in range(rng.randint(1, 3)):
                roll = rng.random()
                if roll < 0.1:
                    # any two disjoint nonempty parts, a genuine block or not
                    verts = rng.sample(range(g.n), rng.randint(2, g.n))
                    cut = rng.randint(1, len(verts) - 1)
                    b = CompleteBipartiteSub(sum(1 << v for v in verts[:cut]), sum(1 << v for v in verts[cut:]))
                else:
                    # mostly a block disjoint from those chosen, sometimes any block
                    pool = blocks if roll < 0.2 else [b for b in blocks if not b.vertices & used]
                    if not pool:
                        break
                    b = rng.choice(pool)
                chosen.append(b)
                used |= b.vertices
            reps = [
                rng.choice(cross_edges(g, b)) if rng.random() < 0.85 else tuple(rng.sample(range(g.n), 2))
                for b in chosen
            ]
            fam = DisjointFamily(chosen, None if rng.random() < 0.1 else reps)
            want = extend_valid_representatives(g, fam)
            assert valid_representatives(g, fam) == want
            if any(a.vertices & b.vertices for a, b in itertools.combinations(chosen, 2)):
                seen["overlap"] += 1
            elif not all(is_block(g, b) for b in chosen):
                seen["not a block"] += 1
            elif fam.representatives is None:
                seen["searched"] += 1
            elif not all(e in cross_edges(g, b) for e, b in zip(fam.representatives, chosen)):
                seen["not a cross edge"] += 1
            else:
                seen["valid" if want is not None else "not 3-disjoint"] += 1
    assert min(seen.values()) > 100, seen


def reference_families(g, blocks):
    """Every valid disjoint family, by the reference."""
    return [fam for fam in disjoint_families(blocks, len(blocks)) if pairwise_representatives(g, fam) is not None]


def test_max_pd_witness_is_the_brute_force_maximum():
    for n in range(2, 7):
        for g in graphs_on(n):
            best = max((DisjointFamily(fam).value for fam in reference_families(g, all_blocks(g))), default=0)
            wit = max_pd_witness(g)
            assert wit.value == best
            if best:
                assert wit.family.value == best
                assert wit.family.representatives == pairwise_representatives(g, wit.family.blocks)


def test_witness_for_is_none_exactly_without_a_covering_family():
    for n in range(2, 6):
        for g in graphs_on(n):
            covered = {(DisjointFamily(fam).sigma, len(fam)) for fam in reference_families(g, all_blocks(g))}
            for sigma in range(1, 1 << n):
                size = sigma.bit_count()
                for r in range(1, size + 1):
                    fam = witness_for(g, size - r, sigma)
                    assert (fam is not None) == ((sigma, r) in covered)
                    if fam is not None:
                        assert (fam.sigma, fam.r) == (sigma, r)
                        assert fam.representatives == pairwise_representatives(g, fam.blocks)


def test_is_valid_family_rejections():
    g = cycle_graph(4)
    good = DisjointFamily([CompleteBipartiteSub(0b0101, 0b1010)], [(0, 1)])
    assert is_valid_family(g, good)
    not_a_block = DisjointFamily([CompleteBipartiteSub(0b0001, 0b0100)], [(0, 2)])
    assert not is_valid_family(g, not_a_block)
    overlapping = DisjointFamily(
        [CompleteBipartiteSub(1, 2), CompleteBipartiteSub(2, 4)], [(0, 1), (1, 2)]
    )
    assert not is_valid_family(g, overlapping)
    bad_rep = DisjointFamily([CompleteBipartiteSub(0b0101, 0b1010)], [(0, 2)])
    assert not is_valid_family(g, bad_rep)


def test_max_pd_witness_is_sound():
    for n in range(2, 6):
        for g in graphs_on(n):
            if g.edge_count() == 0:
                continue
            wit = max_pd_witness(g)
            assert wit.family is not None
            assert is_valid_family(g, wit.family)
            assert wit.family.value == wit.value
            table = graph_betti_table(g, GF2)
            assert table.entry(wit.value, wit.family.sigma) >= 1
            assert wit.value <= table.pd()


def test_max_pd_witness_known_values(k33_minus_edge):
    assert max_pd_witness(complete_bipartite_graph(3, 3)).value == 5
    assert max_pd_witness(cycle_graph(4)).value == 3
    wit = max_pd_witness(k33_minus_edge)
    assert wit.value == 4
    blocks = wit.family.blocks
    assert len(blocks) == 1 and blocks[0].type() == (2, 3)
    assert blocks[0].vertices in (0b011111, 0b111110)


def test_witness_for_matches_requests():
    g = cycle_graph(4)
    fam = witness_for(g, 3, 0b1111)
    assert fam is not None and fam.value == 3 and fam.sigma == 0b1111
    assert witness_for(g, 2, 0b0111) is not None
    assert witness_for(g, 3, 0b0111) is None
    for n in range(2, 6):
        for g in graphs_on(n):
            for i, s, _ in graph_betti_table(g, GF2).nonzero():
                fam = witness_for(g, i, s)
                if fam is not None:
                    assert is_valid_family(g, fam)
                    assert fam.value == i and fam.sigma == s


def spanning_family_by_all_blocks(g, sigma):
    """witness_for's route for r = 1 through every block of G[sigma]: the
    first block of all_blocks(g, within=sigma) on all of sigma, in the
    order of the blocks holding sigma's lowest vertex."""
    low = (sigma & -sigma).bit_length() - 1
    for b in all_blocks(g, within=sigma):
        if (b.vertices & -b.vertices).bit_length() - 1 == low and b.vertices == sigma:
            return DisjointFamily([b], find_representatives(g, [b]))
    return None


def test_witness_for_one_block_matches_the_all_blocks_route():
    queries = found = 0
    for n in range(1, 7):
        for g in graphs_on(n):
            for sigma in range(1, 1 << n):
                if sigma.bit_count() < 2:
                    continue
                fam = witness_for(g, sigma.bit_count() - 1, sigma)
                ref = spanning_family_by_all_blocks(g, sigma)
                assert (fam is None) == (ref is None)
                if fam is not None:
                    assert fam.blocks == ref.blocks
                    assert fam.representatives == ref.representatives
                    found += 1
                queries += 1
    assert queries == 9915 and 0 < found < queries


def test_bouquet_family_on_star_unions():
    g = disjoint_union(complete_bipartite_graph(1, 3), path_graph(3))
    sigma = (1 << g.n) - 1
    fam = bouquet_family(g, sigma)
    assert fam is not None and fam.r == 2 and fam.sigma == sigma
    assert is_valid_family(g, fam)
    assert bouquet_family(path_graph(4), 0b1111) is None
    assert bouquet_family(cycle_graph(4), 0b1111) is None
    assert bouquet_family(path_graph(2), 0b01) is None


def bouquet_family_by_components(g, sigma):
    """Reference star-forest test: walk G_sigma's components, require each to
    be a tree with a vertex adjacent to all the others, and centre it on the
    lowest such vertex."""
    if sigma == 0:
        return None
    blocks = []
    for comp in g.components(within=sigma):
        k = comp.bit_count()
        if k < 2:
            return None
        if sum((g.adj[v] & comp).bit_count() for v in iter_bits(comp)) != 2 * (k - 1):
            return None
        center = next((v for v in iter_bits(comp) if g.adj[v] & comp == comp ^ (1 << v)), None)
        if center is None:
            return None
        blocks.append(CompleteBipartiteSub(1 << center, comp ^ (1 << center)))
    reps = find_representatives(g, blocks)
    return None if reps is None else DisjointFamily(blocks, reps)


def test_bouquet_family_matches_the_component_walk():
    pairs = found = 0
    for n in range(1, 7):
        for g in graphs_on(n):
            for sigma in range(1, 1 << n):
                fam, ref = bouquet_family(g, sigma), bouquet_family_by_components(g, sigma)
                assert (fam is None) == (ref is None)
                if fam is not None:
                    assert fam.blocks == ref.blocks
                    assert fam.representatives == ref.representatives
                    found += 1
                pairs += 1
    assert pairs == 11082 and 0 < found < pairs


def test_bouquet_family_checks_a_centre_reached_from_a_leaf():
    # sigma's lowest vertex 0 is a leaf of centre 4, whose other neighbours 1
    # and 3 are adjacent to each other: G_sigma is a triangle with a pendant
    g = SimpleGraph(5, [(0, 2), (0, 4), (1, 3), (1, 4), (2, 4), (3, 4)])
    sigma = 1 << 0 | 1 << 1 | 1 << 3 | 1 << 4
    assert bouquet_family(g, sigma) is None
    assert bouquet_family_by_components(g, sigma) is None


def test_linear_strand_betti_equals_table():
    # P5.1: beta_{|sigma|-1, sigma} is one less than the number of
    # components of the complement of G_sigma
    for g in graphs_on(4):
        table = graph_betti_table(g, GF2)
        for sigma in range(1, 1 << g.n):
            i = sigma.bit_count() - 1
            assert complement_components(g, sigma) - 1 == table.entry(i, sigma)


def test_cochordal_pd_agrees_with_table():
    checked = edgeless = 0
    for n in range(1, 7):
        for g in graphs_on(n):
            if not is_cochordal(g):
                continue
            assert cochordal_pd(g) == graph_betti_table(g, GF2).pd()
            checked += 1
            edgeless += g.edge_count() == 0
    assert checked > 100 and edgeless == 6
    with pytest.raises(ValueError):
        cochordal_pd(cycle_graph(5))


def test_cochordal_pd_is_the_largest_block_size_less_one():
    checked = 0
    for n in range(1, 8):
        for g in graphs_on(n):
            if is_cochordal(g):
                assert cochordal_pd(g) == max((b.size - 1 for b in all_blocks(g)), default=0), g.edges()
                checked += 1
    assert checked == 531
