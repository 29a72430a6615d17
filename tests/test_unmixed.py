"""Villarreal labelings, acyclic reductions, blow-ups, and the weighted formula."""

import random

import pytest

from edgeideals.catalog import posets_on, graphs_on, unmixed_blowups
from edgeideals.cm_bipartite import (
    Poset,
    free_bases,
    graph_from_poset,
    maximal_boolean_bases,
)
from edgeideals.errors import NoLabelingError
from edgeideals.graphs import (
    SimpleGraph,
    bipartition,
    complete_bipartite_graph,
    cycle_graph,
    path_graph,
)
from edgeideals.graphs import bit_list, bits_of
from edgeideals.hochster import cover_betti_table, graph_betti_table
from edgeideals.ideals import is_unmixed
from edgeideals.linalg import GF2, RATIONALS, FieldSpec
from edgeideals.lyubeznik import main_theorem_certificate
from edgeideals.unmixed import (
    _first_matching,
    acyclic_reduction,
    blow_up,
    is_cm_bipartite,
    is_unmixed_bipartite,
    lift_family,
    unmixed_pd_witness,
)
from edgeideals.witness import is_valid_family


def test_labeling_equivalent_to_unmixedness():
    for n in range(2, 7):
        for g in graphs_on(n):
            if bipartition(g) is None or any(g.degree(v) == 0 for v in range(g.n)):
                continue
            assert is_unmixed_bipartite(g) == is_unmixed(g), g.edges()


def test_labeling_known_cases():
    assert is_unmixed_bipartite(cycle_graph(4))
    assert is_unmixed_bipartite(complete_bipartite_graph(3, 3))
    assert not is_unmixed_bipartite(path_graph(6))
    assert not is_unmixed_bipartite(path_graph(5))
    assert not is_unmixed_bipartite(cycle_graph(5))
    assert not is_unmixed_bipartite(complete_bipartite_graph(2, 3))


def test_reduction_arcs_of_the_four_cycle():
    arcs = acyclic_reduction(cycle_graph(4)).arcs
    assert arcs == [2, 1]  # the two columns point at each other


def reference_first_matching(g, xs, ycand):
    """Reference: the depth-first search over the candidates that
    ``_first_matching`` replaced, exponential when it backtracks far."""
    if len(xs) != len(ycand):
        return None
    # stack[k] iterates the candidates for xs[k], and acc holds the partners
    # chosen for xs[:k]
    acc = []
    used = 0
    stack = [iter(ycand)]
    while stack:
        x = xs[len(acc)]
        for y in stack[-1]:
            if not used >> y & 1 and g.has_edge(x, y):
                break
        else:
            stack.pop()
            if acc:
                used ^= 1 << acc.pop()
            continue
        acc.append(y)
        used |= 1 << y
        if len(acc) == len(xs):
            return acc
        stack.append(iter(ycand))
    return None


def test_first_matching_is_the_depth_first_one():
    # seeded bipartite graphs of every density, the xs listed in random
    # order and the ys placed at random, so the first matching is rarely the
    # identity
    rng = random.Random(26)
    found = missing = 0
    for _ in range(3000):
        a, b = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.7:
            b = a
        p = rng.random()
        perm = list(range(a + b))
        rng.shuffle(perm)
        xs, ycand = perm[:a], sorted(perm[a:])
        edges = [(x, y) for x in xs for y in ycand if rng.random() < p]
        g = SimpleGraph(a + b, edges)
        want = reference_first_matching(g, xs, ycand)
        assert _first_matching(g, xs, bits_of(ycand)) == want, (edges, xs)
        found += want is not None and a > 2
        missing += want is None and a == b
    assert found > 300 and missing > 300


def cut_down_complete_bipartite(n):
    """K_{n,n} with x_{n-1} and x_n cut down to the one neighbour y_1: no
    perfect matching, found out only at the last two xs."""
    return SimpleGraph(2 * n, [(i, n + j) for i in range(n) for j in range(n) if i < n - 2 or j == 0])


def test_a_matching_that_fails_at_the_last_xs_is_refused_without_backtracking():
    # the depth-first search tried every injection of the first n - 2 xs here
    for n in (3, 6, 12, 32):
        with pytest.raises(NoLabelingError, match="no unmixed labeling"):
            acyclic_reduction(cut_down_complete_bipartite(n))


def test_blow_up_validation_and_shape():
    p = Poset.from_relations(2, [(0, 1)])
    with pytest.raises(ValueError):
        blow_up(p, (1,))
    with pytest.raises(ValueError):
        blow_up(p, (0, 1))
    g = blow_up(p, (2, 1))
    assert g.n == 6 and g.edge_count() == 7
    assert is_unmixed_bipartite(g)
    # weight one everywhere is exactly the poset graph
    assert blow_up(p, (1, 1)).edge_count() == 3


def test_acyclic_reduction_inverts_blow_up():
    for k in range(1, 4):
        for p in posets_on(k):
            for zeta in _weight_vectors(k, 3):
                g = blow_up(p, zeta)
                red = acyclic_reduction(g)
                assert red.poset.canonical_key() == p.canonical_key()
                assert sorted(red.zeta) == sorted(zeta)
                assert is_cm_bipartite(red.ghat)
                # classes partition the original columns
                union = 0
                for cls in red.classes:
                    assert cls and not (cls & union)
                    union |= cls
                assert union == (1 << (g.n // 2)) - 1
                assert red.t == len(red.classes) == p.n
                full_hat = (1 << (2 * red.t)) - 1
                assert red.sigma_zeta(full_hat) == 2 * sum(red.zeta)


def _weight_vectors(k, cap):
    if k == 0:
        yield ()
        return
    for first in range(1, cap + 1):
        for rest in _weight_vectors(k - 1, cap):
            yield (first,) + rest


def test_reduction_rejects_mixed_graphs():
    with pytest.raises(ValueError):
        acyclic_reduction(path_graph(5))
    with pytest.raises(ValueError):
        acyclic_reduction(cycle_graph(5))
    # a reduction on no columns would have the unit ideal as its dual ideal
    with pytest.raises(ValueError, match="no vertices"):
        acyclic_reduction(SimpleGraph(0))


def test_kummini_pd_against_table():
    assert unmixed_pd_witness(complete_bipartite_graph(3, 3)).value == 5
    assert unmixed_pd_witness(cycle_graph(4)).value == 3
    for g in unmixed_blowups(2, 2, 8):
        assert unmixed_pd_witness(g).value == graph_betti_table(g, GF2).pd(), g.edges()


def test_pd_witness_structure():
    for g in unmixed_blowups(2, 3, 10):
        wit = unmixed_pd_witness(g)
        assert wit.value == graph_betti_table(g, GF2).pd()
        assert is_valid_family(g, wit.family)
        assert wit.family.value == wit.value
        assert main_theorem_certificate(g, wit.family) == (wit.value, wit.family.sigma)
        assert wit.maximizers and wit.entry in wit.maximizers


def test_lift_family_expands_classes():
    p = Poset.from_relations(1, [])
    g = blow_up(p, (3,))  # complete bipartite 3,3
    red = acyclic_reduction(g)
    hat_wit = unmixed_pd_witness(red.ghat)
    lifted = lift_family(red, hat_wit.family)
    assert lifted.sigma == (1 << 6) - 1
    assert lifted.value == 5
    assert is_valid_family(g, lifted)


def test_free_bases_are_the_dual_table_of_the_poset_graph():
    # the weighted formula reads the free bases in place of this table
    for k in range(1, 6):
        for p in posets_on(k):
            g = graph_from_poset(p)
            bases = {(b.i, b.degree): 1 for b in free_bases(p)}
            maximal = sorted((b.i, b.degree) for b in maximal_boolean_bases(p))
            for field in (GF2, FieldSpec.parse("gf3"), RATIONALS):
                table = cover_betti_table(g, graph_betti_table(g, field))
                assert table.entries == bases, (p, field)
                assert table.extremal() == maximal, (p, field)


def _table_formula(g):
    """Value, entry and maximizers of the weighted formula read off the dual
    Betti table of ghat over GF(2), choosing by the table's extremal entries."""
    red = acyclic_reduction(g)
    table = cover_betti_table(red.ghat, graph_betti_table(red.ghat, GF2))
    scored = [(red.sigma_zeta(s) - r, r, s) for r, s, _ in table.nonzero()]
    best = max(v for v, _, _ in scored)
    maximizers = sorted(((r, s) for v, r, s in scored if v == best), key=lambda e: (bit_list(e[1]), e[0]))
    extremal = set(table.extremal())
    return best, next(e for e in maximizers if e in extremal), maximizers


def test_witness_agrees_with_the_dual_table_formula():
    graphs = [g for n in range(2, 8) for g in graphs_on(n) if is_unmixed_bipartite(g)]
    graphs += unmixed_blowups(3, 3, 12)
    for g in graphs:
        wit = unmixed_pd_witness(g)
        assert (wit.value, wit.entry, wit.maximizers) == _table_formula(g), g.edges()
