"""Poset-graph correspondence, dual-ideal free bases, and family extraction."""

import itertools
import random

import pytest

from edgeideals.catalog import cm_poset_graphs, graphs_on, posets_on, unmixed_blowups
from edgeideals.cm_bipartite import (
    FreeBasis,
    Poset,
    extract_family,
    free_bases,
    graph_from_poset,
    hg_generators,
    maximal_boolean_bases,
)
from edgeideals.graphs import (
    SimpleGraph,
    are_isomorphic,
    bipartition,
    bit_list,
    bits_of,
    complete_bipartite_graph,
    cycle_graph,
    iter_bits,
    path_graph,
)
from edgeideals.hochster import betti_table, graph_betti_table
from edgeideals.ideals import cover_ideal, is_unmixed
from edgeideals.linalg import GF2, RATIONALS
from edgeideals.unmixed import (
    _linear_extension,
    _relation_arcs,
    acyclic_reduction,
    cm_pd,
    is_cm_bipartite,
    is_unmixed_bipartite,
    lift_family,
)
from edgeideals.witness import is_valid_family


def chain(n):
    return Poset.from_relations(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n):
    return Poset.from_relations(n, [])


def test_poset_relations_and_ideals():
    p = chain(3)
    assert p.leq(0, 2) and not p.leq(2, 0)
    assert len(p.ideals()) == 4
    assert len(antichain(3).ideals()) == 8
    assert p.maximal_of(0b011) == 0b010
    assert antichain(3).maximal_of(0b101) == 0b101
    v = Poset.from_relations(3, [(0, 1), (0, 2)])
    assert sorted(v.ideals()) == sorted([0, 0b001, 0b011, 0b101, 0b111])


def test_poset_canonical_key_permutation_invariant():
    p = Poset.from_relations(3, [(0, 1), (0, 2)])
    q = Poset.from_relations(3, [(2, 0), (2, 1)])
    assert p.canonical_key() == q.canonical_key()
    assert p.canonical_key() != chain(3).canonical_key()
    # V and Lambda, alone and beside a 2-chain, have isomorphic poset graphs,
    # because a component of a bipartite graph can flip sides on its own
    wedge = Poset.from_relations(3, [(0, 2), (1, 2)])
    v_chain = Poset.from_relations(5, [(0, 1), (0, 2), (3, 4)])
    wedge_chain = Poset.from_relations(5, [(0, 2), (1, 2), (3, 4)])
    for a, b in ((p, wedge), (v_chain, wedge_chain)):
        assert are_isomorphic(graph_from_poset(a), graph_from_poset(b))
        assert reference_poset_key(a) != reference_poset_key(b)
        assert a.canonical_key() != b.canonical_key()


def reference_poset_key(p):
    """Least relation bitstring over all k! relabellings: a complete isomorphism
    invariant of the poset, independent of canonical_form."""
    return (p.n, min(
        sum(1 << (perm[i] * p.n + perm[j]) for i in range(p.n) for j in iter_bits(p.up[i]))
        for perm in itertools.permutations(range(p.n))
    ))


def relabelled_poset(p, perm):
    up = [0] * p.n
    for i in range(p.n):
        for j in iter_bits(p.up[i]):
            up[perm[i]] |= 1 << perm[j]
    return Poset(p.n, up)


def poset_candidates(k):
    """Every poset posets_on(k) considers, before one per class is kept: each
    poset of posets_on(k - 1) with a new maximal element above each down-set."""
    out = []
    for base in posets_on(k - 1):
        for down in base.ideals():
            up = [m | (1 << (k - 1) if down >> i & 1 else 0) for i, m in enumerate(base.up)]
            out.append(Poset(k, up + [1 << (k - 1)]))
    return out


def test_poset_canonical_key_against_the_reference():
    rng = random.Random(19)
    for k in range(1, 6):
        pool = poset_candidates(k)
        keys = [p.canonical_key() for p in pool]
        refs = [reference_poset_key(p) for p in pool]
        for a, b in itertools.combinations(range(len(pool)), 2):
            assert (keys[a] == keys[b]) == (refs[a] == refs[b]), (pool[a], pool[b])
        assert len(set(refs)) == len(posets_on(k))
        for p, key in zip(pool, keys):
            perm = list(range(k))
            rng.shuffle(perm)
            assert relabelled_poset(p, perm).canonical_key() == key


def test_unmixed_bipartite_graph_is_cm_iff_no_two_vertices_share_a_neighbourhood():
    # the reduction reads the first perfect matching: a cycle i -> j -> i
    # in it makes x_i and x_j twins, and a graph without twins has none
    pool = [g for n in range(1, 8) for g in graphs_on(n)] + unmixed_blowups(3, 3, 12)
    cm = other = 0
    for g in pool:
        if bipartition(g) is None or any(g.degree(v) == 0 for v in range(g.n)):
            continue
        if not is_unmixed(g):
            continue
        twin_free = len(set(g.adj)) == g.n
        assert is_cm_bipartite(g) == twin_free, g.edges()
        cm += twin_free
        other += not twin_free
    assert cm > 10 and other > 10


def test_labeling_existence_matches_cm_characterization():
    # bipartite G with all degrees positive is CM iff unmixed and pd = n/2
    for n in (2, 4, 6):
        for g in graphs_on(n):
            if bipartition(g) is None or any(g.degree(v) == 0 for v in range(g.n)):
                continue
            expect = is_unmixed(g) and graph_betti_table(g, GF2).pd() == n // 2
            assert is_cm_bipartite(g) == expect, g.edges()


def test_labeling_edge_cases():
    with pytest.raises(ValueError):
        acyclic_reduction(cycle_graph(5))
    assert not is_cm_bipartite(cycle_graph(5))
    assert not is_cm_bipartite(cycle_graph(4))
    assert not is_cm_bipartite(complete_bipartite_graph(2, 3))
    assert not is_cm_bipartite(SimpleGraph(0))
    red = acyclic_reduction(path_graph(2))
    assert red.is_cm and red.t == 1
    with pytest.raises(ValueError):
        cm_pd(cycle_graph(4))  # unmixed, but its one class has two columns


def test_labeling_columns_follow_a_linear_extension():
    for p in posets_on(3):
        q = acyclic_reduction(graph_from_poset(p)).poset
        # column order is a linear extension: i < j in the poset forces i < j
        for i in range(q.n):
            for j in iter_bits(q.up[i] & ~(1 << i)):
                assert i < j


def test_poset_graph_round_trip():
    for k in range(1, 5):
        for p in posets_on(k):
            g = graph_from_poset(p)
            assert is_cm_bipartite(g)
            assert acyclic_reduction(g).poset.canonical_key() == p.canonical_key()


def _antisymmetric(arcs) -> bool:
    return all(
        not (arcs[j] >> i & 1)
        for i in range(len(arcs))
        for j in iter_bits(arcs[i])
        if i != j
    )


def perfect_matchings(g, xs, ycand):
    """Every perfect matching of xs onto ycand, as the partners of xs, in
    the depth-first order that tries ycand in turn for each x."""
    if not xs:
        yield []
        return
    for y in ycand:
        if g.has_edge(xs[0], y):
            rest = [c for c in ycand if c != y]
            for tail in perfect_matchings(g, xs[1:], rest):
                yield [y] + tail


def relation_is_transitive(g, xs, ys):
    """Villarreal's condition: x_i y_j and x_j y_k edges force x_i y_k."""
    cols = range(len(xs))
    return all(
        g.has_edge(xs[i], ys[k])
        for i in cols for j in cols for k in cols
        if g.has_edge(xs[i], ys[j]) and g.has_edge(xs[j], ys[k])
    )


def reference_labeling(g):
    """Reference: the labelling a search over every perfect matching finds.
    Per component, the first side of the bipartition is tried as x before
    the other, and the first matching in depth-first order whose relation is
    transitive is kept; None if some component has none."""
    parts = bipartition(g)
    xs, ys = [], []
    for comp in g.components():
        found = None
        for left, right in (parts, parts[::-1]):
            xcand, ycand = bit_list(left & comp), bit_list(right & comp)
            if len(xcand) != len(ycand):
                continue
            found = next(
                ((xcand, m) for m in perfect_matchings(g, xcand, ycand)
                 if relation_is_transitive(g, xcand, m)),
                None,
            )
            if found is not None:
                break
        if found is None:
            return None
        xs += found[0]
        ys += found[1]
    return xs, ys


def bipartite_without_isolated_vertices(pool):
    return [
        g for g in pool
        if bipartition(g) is not None and all(g.degree(v) for v in range(g.n))
    ]


def test_first_perfect_matching_decides_unmixedness():
    # an unmixed graph has every perfect matching transitive, on either
    # side, so the reduction's first matching is the one the search over
    # every matching keeps; seeded relabellings vary which matching is first
    rng = random.Random(25)
    pool = bipartite_without_isolated_vertices(
        [g for n in range(2, 9) for g in graphs_on(n)] + unmixed_blowups(3, 3, 12)
    )
    unmixed = several = 0
    for g0 in pool:
        perm = list(range(g0.n))
        rng.shuffle(perm)
        for g in (g0, SimpleGraph(g0.n, [(perm[u], perm[v]) for u, v in g0.edges()])):
            ref = reference_labeling(g)
            assert is_unmixed_bipartite(g) == is_unmixed(g) == (ref is not None), g.edges()
            if ref is None:
                continue
            unmixed += 1
            red = acyclic_reduction(g)
            assert (red.xs, red.ys) == ref, g.edges()
            parts = bipartition(g)
            for comp in g.components():
                for left, right in (parts, parts[::-1]):
                    xcand, ycand = bit_list(left & comp), bit_list(right & comp)
                    matchings = list(perfect_matchings(g, xcand, ycand))
                    several += len(matchings) > 1
                    assert all(relation_is_transitive(g, xcand, m) for m in matchings), g.edges()
    assert len(pool) == 302 + 54 and unmixed == 2 * (35 + 54) and several > 100


def cm_labeling(g):
    """Reference: the first transitive labelling when it is antisymmetric,
    with columns sorted along a linear extension; None if G is bipartite
    without isolated vertices but admits none."""
    got = reference_labeling(g)
    if got is None:
        return None
    xs, ys = got
    arcs = _relation_arcs(g, xs, ys)
    if not _antisymmetric(arcs):
        return None
    order = _linear_extension(arcs)
    return [xs[i] for i in order], [ys[i] for i in order]


def poset_of_graph(g, lab):
    arcs = _relation_arcs(g, *lab)
    return Poset(len(arcs), [arc | 1 << i for i, arc in enumerate(arcs)])


def direct_extraction(g, lab, basis):
    """Reference: the blocks and representatives of a maximal basis carved in
    G itself through a CM labelling, with no reduction."""
    xs, ys = lab
    n = len(xs)
    support = 0
    for q in iter_bits(basis.degree & (1 << n) - 1):
        support |= 1 << xs[q]
    for q in iter_bits(basis.degree >> n):
        support |= 1 << ys[q]
    blocks, reps, claimed = [], [], 0
    for l in iter_bits(basis.ideal & basis.tset):
        cx, cy = xs[l], ys[l]
        members = 0
        for v in iter_bits(support & ~claimed):
            if v in (cx, cy) or g.has_edge(v, cx) or g.has_edge(v, cy):
                members |= 1 << v
        claimed |= members
        blocks.append((members & bits_of(xs), members & bits_of(ys)))
        reps.append((cx, cy))
    return blocks, reps


def test_reduction_reads_cm_graphs_as_the_reference_labelling_does():
    pool = [g for n in range(2, 8) for g in graphs_on(n)]
    pool += cm_poset_graphs(5) + unmixed_blowups(3, 3, 12)
    cm = 0
    for g in pool:
        if bipartition(g) is None or any(g.degree(v) == 0 for v in range(g.n)):
            continue
        lab = cm_labeling(g)
        assert is_cm_bipartite(g) == (lab is not None), g.edges()
        if not is_unmixed_bipartite(g):
            continue
        red = acyclic_reduction(g)
        assert red.is_cm == all(z == 1 for z in red.zeta) == (lab is not None)
        if lab is None:
            continue
        cm += 1
        p = poset_of_graph(g, lab)
        assert red.poset.up == p.up, g.edges()
        cols = [cls.bit_length() - 1 for cls in red.classes]
        assert ([red.xs[i] for i in cols], [red.ys[i] for i in cols]) == lab
        maximal = maximal_boolean_bases(p)
        assert cm_pd(g) == red.t == max(b.degree.bit_count() - b.i for b in maximal)
        for basis in maximal:
            fam = lift_family(red, extract_family(red.ghat, basis, maximal))
            blocks = [(b.left, b.right) for b in fam.blocks]
            assert (blocks, fam.representatives) == direct_extraction(g, lab, basis)
    assert cm > 60


def test_dual_ideal_equals_cover_ideal():
    for k in range(1, 5):
        for p in posets_on(k):
            g = graph_from_poset(p)
            assert hg_generators(p).same_generators(cover_ideal(g))
            assert len(p.ideals()) == len(hg_generators(p).generators)


def test_free_bases_enumerate_dual_resolution():
    # counts and multidegrees of e(I, T) match the dual ideal's Betti table,
    # every multiplicity being one
    for k in range(1, 5):
        for p in posets_on(k):
            table = betti_table(hg_generators(p), GF2, subject="ideal")
            by_entry = {}
            for b in free_bases(p):
                key = (b.i, b.degree)
                by_entry[key] = by_entry.get(key, 0) + 1
            assert by_entry == {(i, s): v for i, s, v in table.nonzero()}
            assert all(v == 1 for v in by_entry.values())
            rat = betti_table(hg_generators(p), RATIONALS, subject="ideal")
            assert {(i, s): v for i, s, v in rat.nonzero()} == by_entry


def antichain_criterion(p, basis):
    """Maximality of the Boolean interval, straight from first principles:
    T must pick out every maximal element of I, and every minimal element of
    the complement must sit above some maximal element of I."""
    if basis.ideal & basis.tset != p.maximal_of(basis.ideal):
        return False
    maxima = p.maximal_of(basis.ideal)
    full = (1 << p.n) - 1
    for q in iter_bits(full & ~basis.ideal):
        below = p.down_mask(q) & ~(1 << q)
        if below & ~basis.ideal:
            continue
        if not any(p.leq(m, q) for m in iter_bits(maxima)):
            return False
    return True


def test_maximal_boolean_matches_antichain_criterion():
    for k in range(1, 5):
        for p in posets_on(k):
            maxes = maximal_boolean_bases(p)
            for b in free_bases(p):
                assert (b in maxes) == antichain_criterion(p, b), (p.up, b)


def test_extract_family_on_poset_graphs():
    for g in cm_poset_graphs(3):
        red = acyclic_reduction(g)
        p = red.poset
        table = graph_betti_table(g, GF2)
        maximal = maximal_boolean_bases(p)
        for basis in maximal:
            fam_hat = extract_family(red.ghat, basis, maximal)
            assert is_valid_family(red.ghat, fam_hat)
            assert fam_hat.sigma == basis.degree
            fam = lift_family(red, fam_hat)
            assert is_valid_family(g, fam)
            # i blocks on n+i vertices: the witnessed degree is always n = pd
            assert fam.r == basis.i
            assert fam.value == p.n
            # the family's multidegree is the basis multidegree moved to G
            expect = 0
            for q in iter_bits(basis.degree & ((1 << p.n) - 1)):
                expect |= 1 << red.xs[bit_list(red.classes[q])[0]]
            for q in iter_bits(basis.degree >> p.n):
                expect |= 1 << red.ys[bit_list(red.classes[q])[0]]
            assert fam.sigma == expect
            assert table.entry(fam.value, fam.sigma) >= 1


def test_extract_family_rejects_non_maximal_basis():
    p = chain(2)
    maximal = maximal_boolean_bases(p)
    non_maximal = next(b for b in free_bases(p) if b not in maximal)
    with pytest.raises(ValueError):
        extract_family(graph_from_poset(p), non_maximal, maximal)


def test_cm_pd_formula_against_table():
    for g in cm_poset_graphs(4):
        assert cm_pd(g) == graph_betti_table(g, GF2).pd()
    assert cm_pd(path_graph(2)) == 1
