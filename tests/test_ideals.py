"""Monomials, squarefree ideals, complexes, covers, and Alexander duality."""

import itertools
import json
import random

import pytest

from edgeideals.graphs import SimpleGraph, complete_graph, cycle_graph, path_graph
from edgeideals.ideals import (
    Monomial,
    MonomialIdeal,
    alexander_dual,
    cover_ideal,
    edge_ideal,
    is_unmixed,
    maximal_independent_sets,
    minimal_vertex_covers,
    lcm_of,
)
from edgeideals.hochster import build_strand
from conftest import brute_independent_sets


def test_monomial_arithmetic():
    x, y = Monomial((1, 0)), Monomial((0, 2))
    assert x.degree() == 1 and y.degree() == 2
    assert x.mul(y).exps == (1, 2)
    assert x.lcm(y).exps == (1, 2)
    assert x.divides(x.mul(y)) and not y.divides(x)
    assert x.mul(y).quotient(y) == x
    assert Monomial.one(2).is_one()
    assert x.is_squarefree() and not y.is_squarefree()
    assert Monomial.from_support(0b101, 3).exps == (1, 0, 1)
    assert Monomial((2, 0, 1)).support() == 0b101
    assert Monomial((1, 2)).pretty(["x", "y"]) == "x*y^2"


def test_monomial_arithmetic_matches_reference_comprehensions():
    rng = random.Random(16)
    pairs = [(Monomial.one(0), Monomial.one(0))]
    for _ in range(500):
        nvars = rng.randint(0, 6)
        a, b = ([rng.randint(0, 3) for _ in range(nvars)] for _ in range(2))
        pairs.append((Monomial(a), Monomial(b)))
    for x, y in pairs:
        assert x.lcm(y).exps == tuple(max(a, b) for a, b in zip(x.exps, y.exps))
        assert x.mul(y).exps == tuple(a + b for a, b in zip(x.exps, y.exps))
        divides = all(a <= b for a, b in zip(x.exps, y.exps))
        assert x.divides(y) == divides
        assert x.is_one() == all(a == 0 for a in x.exps)
        lcm = x.lcm(y)
        assert lcm.quotient(x).exps == tuple(c - a for a, c in zip(x.exps, lcm.exps))
        if divides:
            assert y.quotient(x).exps == tuple(b - a for a, b in zip(x.exps, y.exps))
        else:
            with pytest.raises(ValueError, match="inexact"):
                y.quotient(x)
    assert Monomial.one(0).exps == () and Monomial.one(0).is_one()
    for exps in ((-1,), (0, 2, -3)):
        with pytest.raises(ValueError, match="negative exponent"):
            Monomial(exps)


def test_ideal_validation_and_reorder():
    with pytest.raises(ValueError):
        MonomialIdeal(["x", "y"], [Monomial((1, 0)), Monomial((1, 1))])
    with pytest.raises(ValueError):
        MonomialIdeal(["x"], [Monomial((1, 0))])
    ideal = edge_ideal(path_graph(3))
    swapped = ideal.reordered((1, 0))
    assert swapped.generators[0] == ideal.generators[1]
    assert ideal.same_generators(swapped)
    assert ideal != swapped


def random_exponent_lists(rng, nvars, ngens, max_exp=3):
    """Random non-unit exponent vectors, minimal or not."""
    out = []
    while len(out) < ngens:
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        if any(exps):
            out.append(exps)
    return out


def test_minimality_check_matches_exponent_division():
    rng = random.Random(43)
    accepted = rejected = 0
    for _ in range(300):
        nvars = rng.randint(1, 4)
        gens = random_exponent_lists(rng, nvars, rng.randint(1, 5))
        variables = [f"x{i + 1}" for i in range(nvars)]
        divides = any(
            i != j and all(a <= b for a, b in zip(gi, gj))
            for i, gi in enumerate(gens)
            for j, gj in enumerate(gens)
        )
        if divides:
            with pytest.raises(ValueError, match="not minimal"):
                MonomialIdeal(variables, gens)
            rejected += 1
            continue
        ideal = MonomialIdeal(variables, gens)
        accepted += 1
        masks, mons = ideal.masks, ideal.generators
        assert ideal.supports() == [m.support() for m in mons]
        # the masks embed the lcm lattice: subsets share an lcm iff they share an OR
        by_lcm, by_or = {}, {}
        for size in range(1, ideal.ngens + 1):
            for sym in itertools.combinations(range(ideal.ngens), size):
                lcm = lcm_of([mons[k] for k in sym], nvars)
                joined = 0
                for k in sym:
                    joined |= masks[k]
                by_lcm.setdefault(lcm, set()).add(sym)
                by_or.setdefault(joined, set()).add(sym)
                for q in range(ideal.ngens):
                    assert mons[q].divides(lcm) == (masks[q] & ~joined == 0)
        assert sorted(map(sorted, by_lcm.values())) == sorted(map(sorted, by_or.values()))
    assert accepted > 50 and rejected > 50


def pairwise_minimality_error(gens):
    """The error of the pairwise minimality loop on exponent vectors: the
    first (i, j) in row-major order with i != j and gens[i] dividing gens[j]."""
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            if i != j and all(a <= b for a, b in zip(gi, gj)):
                return f"generators not minimal: #{i} divides #{j}"
    return None


def test_minimality_refuses_the_first_dividing_pair_as_the_pairwise_loop():
    rng = random.Random(47)
    outcomes = {}
    for trial in range(2400):
        kind = ("equal degree", "mixed degrees", "not squarefree")[trial % 3]
        nvars = rng.randint(2, 6)
        ngens = rng.randint(1, 9)
        if kind == "not squarefree":
            gens = random_exponent_lists(rng, nvars, ngens)
        else:
            k = rng.randint(1, nvars)
            gens = []
            for _ in range(ngens):
                size = k if kind == "equal degree" else rng.randint(1, nvars)
                support = rng.sample(range(nvars), size)
                gens.append(tuple(int(v in support) for v in range(nvars)))
        if rng.random() < 0.2:
            # a duplicate, anywhere
            gens.insert(rng.randint(0, len(gens)), rng.choice(gens))
        want = pairwise_minimality_error(gens)
        try:
            MonomialIdeal([f"x{i + 1}" for i in range(nvars)], gens)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, gens
        key = (kind, want is None)
        outcomes[key] = outcomes.get(key, 0) + 1
    # every kind is both accepted and refused, often
    assert len(outcomes) == 6 and min(outcomes.values()) > 50, outcomes


def test_reordered_permutes_masks():
    rng = random.Random(47)
    checked = 0
    while checked < 30:
        nvars = rng.randint(1, 5)
        gens = random_exponent_lists(rng, nvars, rng.randint(1, 6))
        try:
            ideal = MonomialIdeal([f"x{i + 1}" for i in range(nvars)], gens)
        except ValueError:
            continue
        order = list(range(ideal.ngens))
        rng.shuffle(order)
        again = ideal.reordered(order)
        assert again.masks == tuple(ideal.masks[i] for i in order)
        assert again.masks == MonomialIdeal(ideal.variables, again.generators).masks
        checked += 1


def test_squarefree_masks_are_supports():
    for g in (cycle_graph(5), path_graph(4), complete_graph(4)):
        for ideal in (edge_ideal(g), cover_ideal(g)):
            assert list(ideal.masks) == [m.support() for m in ideal.generators]


def test_ideal_json_round_trip(tmp_path):
    ideal = edge_ideal(cycle_graph(4))
    again = MonomialIdeal.from_json(json.dumps(ideal.to_json()))
    assert again == ideal
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(ideal.to_json()))
    assert MonomialIdeal.load(str(path)) == ideal


def test_ideal_malformed_json_raises_value_error():
    for obj in (
        [],
        {"variables": ["a"], "generators": 5},
        {"variables": "ab", "generators": [[1, 1]]},
        {"variables": ["a", "b"], "generators": [["1", 1]]},
    ):
        with pytest.raises(ValueError):
            MonomialIdeal.from_json(obj)
    # a missing key is named, not raised as a bare KeyError
    for obj, key in (({"generators": [[1]]}, "'variables'"), ({"variables": ["a"]}, "'generators'")):
        with pytest.raises(ValueError, match=f"needs {key}$"):
            MonomialIdeal.from_json(obj)


def test_edge_ideal_generators_are_edges():
    g = cycle_graph(5)
    ideal = edge_ideal(g)
    assert ideal.nvars == 5 and ideal.ngens == 5
    assert ideal.is_squarefree()
    got = {m.support() for m in ideal.generators}
    assert got == {1 << u | 1 << v for u, v in g.edges()}


def brute_maximal_independent(g):
    sets = brute_independent_sets(g)
    pool = set(sets)
    out = []
    for s in sets:
        if not any(t != s and t & s == s for t in pool):
            out.append(s)
    return sorted(out)


def test_maximal_independent_sets_brute_force():
    for n in range(1, 6):
        for edges in itertools.combinations(list(itertools.combinations(range(n), 2)), 2):
            g = SimpleGraph(n, edges)
            assert sorted(maximal_independent_sets(g)) == brute_maximal_independent(g)
    g = cycle_graph(6)
    assert sorted(maximal_independent_sets(g)) == brute_maximal_independent(g)


def test_independence_complex_faces():
    # the independence complex of G is the Stanley-Reisner complex of I(G)
    g = cycle_graph(4)
    faces = build_strand(edge_ideal(g), 0b1111).faces
    flat = [f for by in faces.values() for f in by]
    assert sorted(flat) == brute_independent_sets(g)
    assert 0b0101 in flat and 0b0011 not in flat
    assert faces[-1] == [0]


def test_stanley_reisner_round_trip():
    # the facets of the Stanley-Reisner complex of I(G) are the maximal
    # independent sets of G, i.e. the facets of its independence complex
    for g in (cycle_graph(5), path_graph(4), complete_graph(4)):
        faces = [f for by in build_strand(edge_ideal(g), (1 << g.n) - 1).faces.values() for f in by]
        facets = [f for f in faces if not any(f != h and f & ~h == 0 for h in faces)]
        assert sorted(facets) == sorted(maximal_independent_sets(g))


def test_minimal_covers_are_complements_of_maximal_independents():
    for g in (cycle_graph(4), cycle_graph(5), path_graph(5), complete_graph(4)):
        full = (1 << g.n) - 1
        expect = sorted(full & ~s for s in brute_maximal_independent(g))
        assert sorted(minimal_vertex_covers(g)) == expect


def test_is_unmixed():
    assert is_unmixed(cycle_graph(4))
    assert is_unmixed(complete_graph(4))
    assert not is_unmixed(path_graph(3))
    assert is_unmixed(cycle_graph(5))


def test_cover_ideal_and_dual():
    # the cover ideal comes from maximal independent sets, the dual from the
    # facets of the Stanley-Reisner complex of I(G)
    for g in (cycle_graph(4), cycle_graph(5), path_graph(4), complete_graph(4)):
        assert cover_ideal(g) == alexander_dual(edge_ideal(g))
    with pytest.raises(ValueError):
        cover_ideal(SimpleGraph(3))


def random_squarefree_ideal(rng, nvars, ngens):
    """Up to ngens incomparable squarefree monomials; fewer when rejection stalls."""
    seen = set()
    for _ in range(200):
        if len(seen) == ngens:
            break
        mask = rng.randrange(1, 1 << nvars)
        if any(m & mask in (m, mask) for m in seen):
            continue
        seen.add(mask)
    variables = [f"x{i + 1}" for i in range(nvars)]
    return MonomialIdeal(variables, [Monomial.from_support(m, nvars) for m in sorted(seen)])


def test_alexander_dual_is_an_involution():
    rng = random.Random(3)
    for _ in range(40):
        ideal = random_squarefree_ideal(rng, rng.randint(2, 6), rng.randint(1, 5))
        assert alexander_dual(alexander_dual(ideal)).same_generators(ideal)
    for g in (cycle_graph(5), path_graph(4)):
        ideal = edge_ideal(g)
        assert alexander_dual(alexander_dual(ideal)).same_generators(ideal)


def test_alexander_dual_generators_are_minimal_transversals():
    # dual generators = minimal hitting sets of the generator supports
    ideal = edge_ideal(cycle_graph(5))
    dual = alexander_dual(ideal)
    supports = ideal.supports()
    for m in dual.generators:
        s = m.support()
        assert all(s & t for t in supports)
        for v in range(ideal.nvars):
            if s >> v & 1:
                reduced = s & ~(1 << v)
                assert not all(reduced & t for t in supports)
