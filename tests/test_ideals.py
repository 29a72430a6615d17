"""Monomials, squarefree ideals, complexes, covers, and Alexander duality."""

import itertools
import json
import random
from pathlib import Path

import pytest

from edgeideals.catalog import posets_on
from edgeideals.cm_bipartite import hg_generators
from edgeideals.graphs import (
    SimpleGraph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
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
from edgeideals.hochster import betti_table, build_strand, cover_betti_table, graph_betti_table
from edgeideals.linalg import GF2, RATIONALS, FieldSpec
from edgeideals.lyubeznik import bipartite_cycle, lyubeznik_betti_table, main_theorem_certificate
from edgeideals.witness import max_pd_witness
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


FIELDS = (GF2, FieldSpec.parse("gf3"), RATIONALS)


def seeded_graph(rng, n, p):
    return SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_ideal_refuses_generators_that_are_not_integers_in_range():
    # the Python API refuses the exponents that from_json refuses, and masks
    # that are no nonempty set of the variables
    rng = random.Random(37)
    bad_exponents = (1.5, 1.0, True, False)
    for _ in range(100):
        nvars = rng.randint(1, 5)
        variables = [f"x{i + 1}" for i in range(nvars)]
        gens = [list(e) for e in random_exponent_lists(rng, nvars, rng.randint(1, 4))]
        rng.choice(gens)[rng.randrange(nvars)] = rng.choice(bad_exponents)
        with pytest.raises(ValueError, match="exponents must be integers"):
            MonomialIdeal(variables, gens)
        with pytest.raises(ValueError, match="exponents must be integers"):
            MonomialIdeal(variables, [Monomial(e) if rng.random() < 0.5 else e for e in gens])
        with pytest.raises(ValueError):
            MonomialIdeal.from_json({"variables": variables, "generators": gens})
        masks = [rng.randrange(1, 1 << nvars) for _ in range(rng.randint(1, 4))]
        too_wide = rng.randrange(1 << nvars, 1 << nvars + 3)
        bad_mask = rng.choice((0, -rng.randint(1, 9), True, False, too_wide))
        masks.insert(rng.randint(0, len(masks)), bad_mask)
        with pytest.raises(ValueError, match="support mask"):
            MonomialIdeal(variables, masks)
    with pytest.raises(ValueError, match="exponents must be integers"):
        MonomialIdeal(["x"], [(1.5,)])
    with pytest.raises(ValueError, match="exponents must be integers"):
        MonomialIdeal(["x"], [(True,)])
    with pytest.raises(ValueError, match="mix"):
        MonomialIdeal(["x", "y"], [(1, 0), 0b10])


def exponent_twin(ideal):
    """The same squarefree ideal, given by exponent vectors instead of masks."""
    n = ideal.nvars
    exps = [tuple(m >> v & 1 for v in range(n)) for m in ideal.masks]
    return MonomialIdeal(ideal.variables, exps)


def assert_same_ideal(by_mask, by_exps, rng, lyubeznik=True):
    """The two ideals agree on everything an ideal answers, and on every table."""
    order = list(range(by_mask.ngens))
    rng.shuffle(order)
    # one copy reordered before the lazy generators are built, one after
    before = by_mask.reordered(order)
    assert by_mask.masks == by_exps.masks
    assert by_mask.is_squarefree() and by_exps.is_squarefree()
    assert by_mask == by_exps and by_exps == by_mask and hash(by_mask) == hash(by_exps)
    assert by_mask.same_generators(by_exps) and by_exps.same_generators(by_mask)
    assert repr(by_mask) == repr(by_exps)
    assert by_mask.generators == by_exps.generators
    after = by_mask.reordered(order)
    want = tuple(by_exps.generators[i] for i in order)
    assert by_exps.reordered(order).generators == want
    for got in (before, after):
        assert got == by_exps.reordered(order) and got.generators == want
        assert got.masks == tuple(by_mask.masks[i] for i in order)
    assert by_mask.to_json() == by_exps.to_json()
    probes = [rng.randrange(1 << by_mask.nvars) for _ in range(20)] + list(by_mask.masks)
    for mask in probes:
        assert by_mask.first_divisor(mask) == by_exps.first_divisor(mask)
    for field in FIELDS:
        tables = [betti_table(by_mask, field), betti_table(by_exps, field)]
        if lyubeznik:
            tables += [lyubeznik_betti_table(ideal, field) for ideal in (by_mask, by_exps)]
        for a, b in zip(tables[::2], tables[1::2]):
            assert a.variables == b.variables
            assert list(a.entries.items()) == list(b.entries.items())


def test_ideals_from_masks_and_from_exponent_vectors_agree():
    rng = random.Random(59)
    ideals = []
    for _ in range(8):
        g = seeded_graph(rng, rng.randint(3, 7), rng.uniform(0.25, 0.6))
        if g.edge_count():
            ideals += [edge_ideal(g), cover_ideal(g), alexander_dual(edge_ideal(g))]
    for _ in range(6):
        ideal = random_squarefree_ideal(rng, rng.randint(2, 6), rng.randint(1, 5))
        ideals.append(alexander_dual(ideal))
    ideals += [bipartite_cycle(m, n)[0] for m in (1, 2, 3) for n in (1, 2, 3)]
    ideals += [hg_generators(p) for k in range(1, 5) for p in posets_on(k)]
    for ideal in ideals:
        assert_same_ideal(ideal, exponent_twin(ideal), rng, lyubeznik=ideal.ngens <= 12)
    # an ideal file stays on the exponent path, and its masks rebuild it
    with open(Path(__file__).resolve().parent / "data" / "rp2_ideal.json") as fh:
        rp2 = MonomialIdeal.from_json(json.load(fh))
    assert_same_ideal(MonomialIdeal(rp2.variables, list(rp2.masks)), rp2, rng)


def test_squarefreeness_of_exponent_vectors_is_read_off_the_exponents():
    # polarization gives x^2 the mask of x, but not its squarefreeness
    square = MonomialIdeal(["x", "y"], [(2, 0), (0, 1)])
    plain = MonomialIdeal(["x", "y"], [0b01, 0b10])
    assert square.masks == plain.masks
    assert not square.is_squarefree() and plain.is_squarefree()
    assert not square.reordered((1, 0)).is_squarefree()
    assert square != plain and plain != square
    assert not square.same_generators(plain)
    assert square == MonomialIdeal(["x", "y"], [Monomial((2, 0)), (0, 1)])
    with pytest.raises(ValueError, match="squarefree"):
        betti_table(square)
    with pytest.raises(ValueError, match="squarefree"):
        alexander_dual(square)


def test_edge_ideal_tables_build_no_monomial(monkeypatch):
    built = []
    init = Monomial.__init__

    def counting_init(self, exps):
        built.append(exps)
        init(self, exps)

    monkeypatch.setattr(Monomial, "__init__", counting_init)
    rng = random.Random(61)
    graphs = [seeded_graph(rng, rng.randint(4, 9), 0.35) for _ in range(8)]
    graphs = [g for g in graphs if g.edge_count()]
    assert len(graphs) >= 6
    for g in graphs:
        for field in FIELDS:
            cover_betti_table(g, graph_betti_table(g, field))
            lyubeznik_betti_table(edge_ideal(g), field)
    assert built == []
    # the certificate path still divides Monomials in its Taylor boundaries
    divided = []
    divides = Monomial.divides

    def counting_divides(self, other):
        divided.append(other)
        return divides(self, other)

    monkeypatch.setattr(Monomial, "divides", counting_divides)
    g = complete_bipartite_graph(2, 3)
    assert main_theorem_certificate(g, max_pd_witness(g).family) == (4, 0b11111)
    assert built and divided
