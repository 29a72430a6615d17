"""Poset-graph correspondence, dual-ideal free bases, and family extraction."""

import itertools
import random

import pytest

from edgeideals.catalog import cm_poset_graphs, graphs_on, posets_on, unmixed_blowups
from edgeideals.cm_bipartite import (
    CMGraphLabeling,
    FreeBasis,
    Poset,
    cm_labeling,
    cm_pd,
    extract_family,
    free_bases,
    graph_from_poset,
    hg_generators,
    is_cm_bipartite,
    maximal_boolean_bases,
    poset_of_graph,
)
from edgeideals.graphs import (
    are_isomorphic,
    bipartition,
    complete_bipartite_graph,
    cycle_graph,
    iter_bits,
    path_graph,
)
from edgeideals.hochster import betti_table, graph_betti_table
from edgeideals.ideals import cover_ideal, is_unmixed
from edgeideals.linalg import GF2, RATIONALS
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
    # cm_labeling stops at the first transitive labelling: a cycle i -> j -> i
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
        cm_labeling(cycle_graph(5))
    assert not is_cm_bipartite(cycle_graph(5))
    assert not is_cm_bipartite(cycle_graph(4))
    assert not is_cm_bipartite(complete_bipartite_graph(2, 3))
    lab = cm_labeling(path_graph(2))
    assert lab is not None and lab.n == 1


def test_labeling_columns_follow_a_linear_extension():
    for p in posets_on(3):
        g = graph_from_poset(p)
        lab = cm_labeling(g)
        assert lab is not None
        q = poset_of_graph(g, lab)
        # column order is a linear extension: i < j in the poset forces i < j
        for i in range(q.n):
            for j in iter_bits(q.up[i] & ~(1 << i)):
                assert i < j


def test_poset_graph_round_trip():
    for k in range(1, 5):
        for p in posets_on(k):
            g = graph_from_poset(p)
            assert is_cm_bipartite(g)
            lab = cm_labeling(g)
            q = poset_of_graph(g, lab)
            assert q.canonical_key() == p.canonical_key()


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
        lab = cm_labeling(g)
        p = poset_of_graph(g, lab)
        table = graph_betti_table(g, GF2)
        for basis in maximal_boolean_bases(p):
            fam = extract_family(g, lab, basis)
            assert is_valid_family(g, fam)
            # i blocks on n+i vertices: the witnessed degree is always n = pd
            assert fam.r == basis.i
            assert fam.value == p.n
            # the family's multidegree is the basis multidegree moved to G
            expect = 0
            for q in iter_bits(basis.degree & ((1 << p.n) - 1)):
                expect |= 1 << lab.xs[q]
            for q in iter_bits(basis.degree >> p.n):
                expect |= 1 << lab.ys[q]
            assert fam.sigma == expect
            assert table.entry(fam.value, fam.sigma) >= 1


def test_extract_family_rejects_non_maximal_basis():
    p = chain(2)
    g = graph_from_poset(p)
    lab = cm_labeling(g)
    non_maximal = next(
        b for b in free_bases(p) if b not in maximal_boolean_bases(p)
    )
    with pytest.raises(ValueError):
        extract_family(g, lab, non_maximal)


def test_cm_pd_formula_against_table():
    for g in cm_poset_graphs(4):
        assert cm_pd(g) == graph_betti_table(g, GF2).pd()
    assert cm_pd(path_graph(2)) == 1
