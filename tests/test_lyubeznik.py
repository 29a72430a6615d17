"""Ordered Taylor complexes: boundaries, admissibility, strands, certificates."""

import gc
import itertools
import math
import random
import re
from types import FunctionType

import pytest

from edgeideals.catalog import generate_catalog, graphs_on
from edgeideals.errors import ResourceLimitError
from edgeideals.graphs import SimpleGraph, complete_bipartite_graph, cycle_graph, path_graph
from edgeideals.hochster import graph_betti_table, betti_table
from edgeideals.ideals import Monomial, MonomialIdeal, cover_ideal, edge_ideal, lcm_of
from edgeideals.linalg import GF2, RATIONALS, FieldSpec
from edgeideals.lyubeznik import (
    Cycle,
    _connector_order,
    _maximal_edge_symbol,
    admissible_symbols,
    barile_certificate,
    bipartite_cycle,
    check_cycle_certificate,
    is_admissible,
    is_maximal_admissible,
    lyubeznik_betti_table,
    main_theorem_certificate,
    product_cycle,
    symbol_degree,
    taylor_boundary,
)
from edgeideals.witness import CompleteBipartiteSub, DisjointFamily, find_representatives, max_pd_witness


def random_ideal(rng, nvars, ngens, max_exp=2):
    """Antichain of random monomials, not necessarily squarefree."""
    gens = []
    for _ in range(200):
        if len(gens) == ngens:
            break
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        m = Monomial(exps)
        if m.is_one() or any(a.divides(m) or m.divides(a) for a in gens):
            continue
        gens.append(m)
    return MonomialIdeal([f"x{i + 1}" for i in range(nvars)], gens)


def random_squarefree(rng, nvars, ngens):
    gens = []
    for _ in range(200):
        if len(gens) == ngens:
            break
        m = Monomial.from_support(rng.randrange(1, 1 << nvars), nvars)
        if any(a.divides(m) or m.divides(a) for a in gens):
            continue
        gens.append(m)
    return MonomialIdeal([f"x{i + 1}" for i in range(nvars)], gens)


def boundary_squares_to_zero(ideal, sym):
    acc = {}
    for sub, sign, cof in taylor_boundary(ideal, sym):
        for sub2, sign2, cof2 in taylor_boundary(ideal, sub):
            key = (sub2, cof.mul(cof2))
            acc[key] = acc.get(key, 0) + sign * sign2
    return all(v == 0 for v in acc.values())


def test_symbol_validation():
    ideal = edge_ideal(cycle_graph(4))
    with pytest.raises(ValueError):
        taylor_boundary(ideal, (1, 0))
    with pytest.raises(ValueError):
        taylor_boundary(ideal, (0, 9))
    assert symbol_degree(ideal, (0, 2)).pretty(ideal.variables) == "x1*x2*x3"


def test_taylor_boundary_squares_to_zero_random():
    rng = random.Random(5)
    for _ in range(30):
        ideal = random_ideal(rng, rng.randint(2, 5), rng.randint(2, 6))
        u = ideal.ngens
        for size in range(2, u + 1):
            for sym in itertools.combinations(range(u), size):
                assert boundary_squares_to_zero(ideal, sym)


def test_admissibility_downward_closed_random():
    rng = random.Random(13)
    for _ in range(25):
        ideal = random_ideal(rng, rng.randint(2, 6), rng.randint(2, 8))
        u = ideal.ngens
        admissible = set()
        for size in range(0, u + 1):
            for sym in itertools.combinations(range(u), size):
                if is_admissible(ideal, sym):
                    admissible.add(sym)
        for sym in admissible:
            for t in range(len(sym)):
                assert sym[:t] + sym[t + 1 :] in admissible
        # the DFS enumerator agrees with the brute filter
        assert set(admissible_symbols(ideal)) == {s for s in admissible if s}


def reference_admissible(ideal, sym):
    """Admissibility from the definition, on exponent vectors."""
    gens = ideal.generators
    for t in range(len(sym) - 1):
        lcm = lcm_of([gens[i] for i in sym[t:]], ideal.nvars)
        if any(gens[q].divides(lcm) for q in range(sym[t])):
            return False
    return True


def test_is_admissible_raises_the_symbol_errors_of_taylor_boundary():
    # the order and range checks ride on the admissibility walk; a bad symbol
    # must raise even when a later suffix already made it inadmissible
    ideal = edge_ideal(cycle_graph(5))
    u = ideal.ngens
    raised = inadmissible = 0
    for size in range(4):
        for sym in itertools.product(range(-2, u + 2), repeat=size):
            try:
                taylor_boundary(ideal, sym)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    is_admissible(ideal, sym)
                raised += 1
                continue
            verdict = is_admissible(ideal, sym)
            assert verdict == reference_admissible(ideal, sym)
            inadmissible += not verdict
    assert raised > 500 and inadmissible > 0
    assert not is_admissible(ideal, (1, 2))
    with pytest.raises(ValueError, match="strictly increase"):
        is_admissible(ideal, (3, 0, 1, 2))
    with pytest.raises(ValueError, match="out of range"):
        is_admissible(ideal, (-1, 1, 2))


def test_admissibility_on_masks_matches_exponent_vectors():
    rng = random.Random(37)
    for _ in range(40):
        ideal = random_ideal(rng, rng.randint(1, 5), rng.randint(1, 7), max_exp=3)
        u = ideal.ngens
        order = list(range(u))
        rng.shuffle(order)
        shuffled = MonomialIdeal(ideal.variables, [ideal.generators[i] for i in order])
        reordered = ideal.reordered(order)
        for size in range(u + 1):
            for sym in itertools.combinations(range(u), size):
                assert is_admissible(ideal, sym) == reference_admissible(ideal, sym)
                assert is_admissible(reordered, sym) == reference_admissible(shuffled, sym)


def polarization(ideal):
    """The squarefree ideal whose generator supports are the polarized masks."""
    width = max(m.bit_length() for m in ideal.masks)
    return MonomialIdeal(
        [f"p{k}" for k in range(width)],
        [Monomial.from_support(m, width) for m in ideal.masks],
    )


def test_huge_exponent_costs_one_bit():
    big = 10**9
    ideal = MonomialIdeal.from_json(
        {
            "variables": ["x", "y", "z"],
            "generators": [[big, 1, 0], [1, big, 0], [0, 1, big], [2, 0, 1]],
        }
    )
    bound = ideal.nvars * ideal.ngens
    assert all(m.bit_length() <= bound for m in ideal.masks)
    # only the order of each variable's exponents matters
    small = MonomialIdeal(ideal.variables, [(3, 1, 0), (1, 3, 0), (0, 1, 3), (2, 0, 1)])
    assert small.masks == ideal.masks
    symbols = admissible_symbols(ideal)
    assert symbols == admissible_symbols(small)
    assert set(symbols) == {
        sym
        for size in range(1, ideal.ngens + 1)
        for sym in itertools.combinations(range(ideal.ngens), size)
        if reference_admissible(ideal, sym)
    }
    polar = polarization(ideal)
    table = lyubeznik_betti_table(polar, field=RATIONALS)
    assert all(sigma.bit_length() <= bound for _, sigma, _ in table.nonzero())
    want = betti_table(polar, RATIONALS)
    assert {(i, s): v for i, s, v in table.nonzero()} == {
        (i, s): v for i, s, v in want.nonzero()
    }


def test_admissible_symbols_four_cycle():
    ideal = edge_ideal(cycle_graph(4))
    assert set(admissible_symbols(ideal, s=2)) == {
        (0, 1), (0, 2), (0, 3), (1, 3), (2, 3)
    }
    assert admissible_symbols(ideal, s=5) == []


def test_admissible_symbol_generator_cap():
    n = 25
    ideal = MonomialIdeal(
        [f"x{i + 1}" for i in range(n)],
        [Monomial.from_support(1 << i, n) for i in range(n)],
    )
    with pytest.raises(ResourceLimitError):
        admissible_symbols(ideal)


def reference_maximal_admissible(ideal, indices):
    """Reference: no admissible proper superset, found by walking every
    superset rather than the single-element extensions."""
    members = set(indices)
    outside = [k for k in range(ideal.ngens) if k not in members]
    # (extra generators, first position of outside that may join them),
    # popped in depth-first preorder
    stack = [((), 0)]
    while stack:
        extra, start = stack.pop()
        if extra and is_admissible(ideal, tuple(sorted(members.union(extra)))):
            return False
        stack.extend((extra + (outside[j],), j + 1) for j in reversed(range(start, len(outside))))
    return True


def test_maximal_admissible_paranoid_agreement():
    for n in range(2, 5):
        for g in graphs_on(n):
            ideal = edge_ideal(g)
            if ideal.ngens == 0:
                continue
            for sym in admissible_symbols(ideal):
                assert is_maximal_admissible(ideal, sym) == reference_maximal_admissible(ideal, sym)
    ideal = edge_ideal(cycle_graph(4))
    with pytest.raises(ValueError):
        is_maximal_admissible(ideal, (1, 2))


def shuffled_edge_ideals(seed, count, max_n):
    """count seeded edge ideals of G(n, p) with 4 <= n <= max_n, each in a
    random generator order."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, max_n)
        p = rng.choice((0.3, 0.5, 0.7))
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
        if len(edges) < 2:
            continue
        ideal = edge_ideal(SimpleGraph(n, edges))
        order = list(range(ideal.ngens))
        rng.shuffle(order)
        out.append(ideal.reordered(order))
    return out


def test_edge_join_pair_rule_matches_is_admissible():
    # a pair is refused exactly when it is not admissible
    counts = {True: 0, False: 0}
    for ideal in shuffled_edge_ideals(61, 60, 9):
        for pair in itertools.combinations(range(ideal.ngens), 2):
            admissible = is_admissible(ideal, pair)
            if admissible:
                _maximal_edge_symbol(ideal.masks, pair)
            else:
                with pytest.raises(ValueError, match="symbol is not admissible"):
                    _maximal_edge_symbol(ideal.masks, pair)
            counts[admissible] += 1
    assert min(counts.values()) > 1000, counts


def test_edge_join_maximality_matches_is_maximal_admissible():
    counts = {True: 0, False: 0}
    for ideal in shuffled_edge_ideals(67, 24, 9):
        if ideal.ngens > 18:
            continue
        for sym in admissible_symbols(ideal):
            maximal = is_maximal_admissible(ideal, sym)
            got = _maximal_edge_symbol(ideal.masks, sym)
            assert got == (symbol_degree(ideal, sym).support() if maximal else None)
            counts[maximal] += 1
    assert min(counts.values()) > 100, counts


def test_strand_table_matches_hochster_on_graphs():
    rng = random.Random(23)
    for n in range(2, 6):
        for g in graphs_on(n):
            if g.edge_count() == 0:
                continue
            want = {(i, s): v for i, s, v in graph_betti_table(g, GF2).nonzero()}
            got = {(i, s): v for i, s, v in lyubeznik_betti_table(edge_ideal(g), field=GF2).nonzero()}
            assert got == want, f"edges={g.edges()}"
            # any generator order resolves, so any order gives the same table
            order = list(range(g.edge_count()))
            rng.shuffle(order)
            shuffled = lyubeznik_betti_table(edge_ideal(g).reordered(order), field=GF2)
            assert {(i, s): v for i, s, v in shuffled.nonzero()} == want


def test_strand_table_matches_hochster_on_random_ideals():
    # up to eight variables, so that some strands have ranks that depend on
    # the boundary signs
    rng = random.Random(29)
    for _ in range(60):
        ideal = random_squarefree(rng, rng.randint(2, 8), rng.randint(1, 8))
        field = rng.choice((GF2, FieldSpec.parse("gf3"), RATIONALS))
        want = {(i, s): v for i, s, v in betti_table(ideal, field).nonzero()}
        order = list(range(ideal.ngens))
        rng.shuffle(order)
        got = {
            (i, s): v
            for i, s, v in lyubeznik_betti_table(ideal.reordered(order), field=field).nonzero()
        }
        assert got == want


def test_strand_table_matches_hochster_on_cover_ideals():
    rng = random.Random(41)
    for field in (GF2, FieldSpec.parse("gf3"), RATIONALS):
        checked = 0
        while checked < 6:
            n = rng.randint(5, 8)
            g = SimpleGraph(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            )
            if g.edge_count() == 0:
                continue
            ideal = cover_ideal(g)
            order = list(range(ideal.ngens))
            rng.shuffle(order)
            want = {(i, s): v for i, s, v in betti_table(ideal, field).nonzero()}
            got = lyubeznik_betti_table(ideal.reordered(order), field=field)
            assert {(i, s): v for i, s, v in got.nonzero()} == want, f"edges={g.edges()}"
            checked += 1


def test_strand_table_matches_hochster_on_random_graphs_in_every_field():
    # the unshuffled table fills the base ideal's first-divisor memo before
    # each shuffled table reorders it, so a memo that followed the copy
    # would hand the shuffled walk positions of the other order
    rng = random.Random(43)
    fields = (GF2, FieldSpec.parse("gf3"), RATIONALS)
    for n in range(4, 10):
        for _ in range(3):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
            g = SimpleGraph(n, edges)
            ideal = edge_ideal(g)
            for field in fields:
                want = {(i, s): v for i, s, v in graph_betti_table(g, field).nonzero()}
                tables = [lyubeznik_betti_table(ideal, field=field)]
                for _ in range(2):
                    order = list(range(ideal.ngens))
                    rng.shuffle(order)
                    tables.append(lyubeznik_betti_table(ideal.reordered(order), field=field))
                for table in tables:
                    assert {(i, s): v for i, s, v in table.nonzero()} == want, f"n={n} edges={edges}"


def reference_boundary(ideal, sym):
    """The Taylor boundary from the definition: one lcm_of per facet."""
    gens = ideal.generators
    full = lcm_of([gens[i] for i in sym], ideal.nvars)
    out = []
    for t in range(len(sym)):
        sub = sym[:t] + sym[t + 1 :]
        rest = lcm_of([gens[i] for i in sub], ideal.nvars)
        out.append((sub, (-1) ** t, full.quotient(rest)))
    return out


def test_taylor_boundary_matches_the_quadratic_definition():
    rng = random.Random(47)
    checked = 0
    for _ in range(40):
        ideal = random_ideal(rng, rng.randint(1, 5), rng.randint(1, 7), max_exp=3)
        u = ideal.ngens
        order = list(range(u))
        rng.shuffle(order)
        shuffled = ideal.reordered(order)
        for size in range(u + 1):
            for sym in itertools.combinations(range(u), size):
                want = reference_boundary(ideal, sym)
                got = taylor_boundary(ideal, sym)
                assert got == want and [type(c) for _, _, c in got] == [Monomial] * size
                assert taylor_boundary(shuffled, sym) == reference_boundary(shuffled, sym)
                checked += size
    assert checked > 1000


def test_is_admissible_matches_the_definition_with_live_memos():
    # the base ideal and its reordered copy are asked in turn, so each
    # memo is filled while the other is in use
    rng = random.Random(53)
    for _ in range(30):
        ideal = random_ideal(rng, rng.randint(1, 5), rng.randint(1, 8), max_exp=2)
        u = ideal.ngens
        order = list(range(u))
        rng.shuffle(order)
        shuffled = ideal.reordered(order)
        assert shuffled.first_divisors == {} and shuffled.first_divisors is not ideal.first_divisors
        for size in range(u + 1):
            for sym in itertools.combinations(range(u), size):
                assert is_admissible(ideal, sym) == reference_admissible(ideal, sym)
                assert is_admissible(shuffled, sym) == reference_admissible(shuffled, sym)
        for copy in (ideal, shuffled):
            assert copy.first_divisors or u < 2
            for mask, k in copy.first_divisors.items():
                inside = [q for q, m in enumerate(copy.masks) if m & ~mask == 0]
                assert k == (inside[0] if inside else u)


# module-level is_admissible calls that admissible_symbols makes, one per
# candidate that passes the pair filter, and the symbols they yield; the
# tracer's admissible_checks and admissible_yield count these calls.  On an
# edge ideal the pair lemma makes every candidate a symbol, so the two agree
PINNED_CHECKS = {
    "C5": (cycle_graph(5), 23, 23),
    "P6": (path_graph(6), 31, 31),
    "K33": (complete_bipartite_graph(3, 3), 103, 103),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHECKS))
def test_admissible_symbols_check_count_is_pinned(monkeypatch, name):
    g, checks, symbols = PINNED_CHECKS[name]
    calls = counting_admissible_calls(monkeypatch)
    got = admissible_symbols(edge_ideal(g))
    assert (len(calls), len(got)) == (checks, symbols)
    # one call per candidate, and every symbol is a candidate that passed
    assert len(set(calls)) == len(calls) and set(got) <= set(calls)


def counting_admissible_calls(monkeypatch):
    """Patch the module-level is_admissible to record each symbol it is asked about."""
    import edgeideals.lyubeznik as lyu

    calls = []

    def counted(ideal, sym):
        calls.append(sym)
        return is_admissible(ideal, sym)

    monkeypatch.setattr(lyu, "is_admissible", counted)
    return calls


def test_pair_lemma_one_check_per_symbol_on_every_small_edge_ideal(monkeypatch):
    # every generator of an edge ideal has two bits, so a candidate whose
    # pairs are all admissible is admissible, in any generator order
    calls = counting_admissible_calls(monkeypatch)
    rng = random.Random(29)
    seen = 0
    for n in range(2, 8):
        for g in graphs_on(n):
            ideal = edge_ideal(g)
            order = list(range(ideal.ngens))
            rng.shuffle(order)
            for copy in (ideal, ideal.reordered(order)):
                calls.clear()
                got = admissible_symbols(copy)
                assert calls == got
                seen += len(got)
    assert seen > 400_000


def reference_symbols(ideal, s=None, prefix=()):
    """Admissible symbols by the plain depth-first search: each admissible
    prefix tries every later generator in turn, and each candidate is checked
    by the definition."""
    out = []
    for j in range(prefix[-1] + 1 if prefix else 0, ideal.ngens):
        cand = prefix + (j,)
        if reference_admissible(ideal, cand):
            if s is None or len(cand) == s:
                out.append(cand)
            if s is None or len(cand) < s:
                out += reference_symbols(ideal, s, cand)
    return out


def test_pair_filter_keeps_every_symbol_in_preorder_on_non_squarefree_ideals():
    rng = random.Random(41)
    checked = 0
    while checked < 400:
        ideal = random_ideal(rng, rng.randint(2, 5), rng.randint(2, 9), max_exp=3)
        if ideal.is_squarefree():
            continue
        for s in (None, 0, 1, 2, 3, 4):
            assert admissible_symbols(ideal, s=s) == reference_symbols(ideal, s), (ideal.generators, s)
        checked += 1


def test_lyubeznik_rejects_non_squarefree():
    bad = MonomialIdeal(["x", "y"], [Monomial((2, 0)), Monomial((0, 1))])
    with pytest.raises(ValueError):
        lyubeznik_betti_table(bad)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
def test_bipartite_cycle_certified(m, n):
    ideal, cycle = bipartite_cycle(m, n)
    assert ideal.same_generators(edge_ideal(complete_bipartite_graph(m, n)))
    assert len(cycle.terms) == math.comb(m + n - 2, n - 1)
    assert cycle.terms[cycle.leading] == 1
    res = check_cycle_certificate(ideal, cycle)
    assert res is not None
    s, degree = res
    assert s == m + n - 1
    assert degree.support() == (1 << (m + n)) - 1


def test_cycle_certificate_negative_controls():
    ideal, cycle = bipartite_cycle(2, 2)
    flipped = dict(cycle.terms)
    victim = next(k for k in flipped if k != cycle.leading)
    flipped[victim] = -flipped[victim]
    assert check_cycle_certificate(ideal, Cycle(flipped, cycle.leading)) is None
    with pytest.raises(ValueError):
        check_cycle_certificate(ideal, Cycle({(0, 1): 1, (0,): 1}, (0, 1)))


def check_cycle_certificate_by_monomials(ideal, cycle):
    """Reference cycle check that compares every term's ``symbol_degree``."""
    degrees = set()
    for sym in cycle.terms:
        if not is_admissible(ideal, sym):
            raise ValueError(f"cycle term {sym} is not admissible")
        degrees.add(symbol_degree(ideal, sym))
    if len(degrees) != 1:
        raise ValueError("cycle terms have mixed multidegrees")
    image = {}
    for sym, coeff in cycle.terms.items():
        for sub, sign, cof in taylor_boundary(ideal, sym):
            if cof.is_one():
                image[sub] = image.get(sub, 0) + coeff * sign
    if any(image.values()) or not is_maximal_admissible(ideal, cycle.leading):
        return None
    return cycle.s, next(iter(degrees))


def outcome(check, ideal, cycle):
    try:
        return check(ideal, cycle)
    except ValueError as exc:
        return str(exc)


def test_cycle_certificate_matches_the_monomial_degree_check():
    corpus = [bipartite_cycle(m, n) for m in range(1, 5) for n in range(1, 5)]
    ideal, cycle = bipartite_cycle(2, 3)
    corpus.append((ideal, product_cycle([(6, cycle)])))
    flipped = {k: -v if k != cycle.leading else v for k, v in cycle.terms.items()}
    corpus.append((ideal, Cycle(flipped, cycle.leading)))
    # same support, different exponents: only the polarized masks tell them apart
    corpus.append((MonomialIdeal(["x", "y"], [Monomial((2, 1)), Monomial((1, 2))]), Cycle({(0,): 1, (1,): 1}, (0,))))
    # random same-length terms, and same-degree terms, on non-squarefree ideals
    rng = random.Random(61)
    for _ in range(60):
        ideal = random_ideal(rng, rng.randint(2, 4), rng.randint(2, 6), max_exp=2)
        s = rng.randint(1, ideal.ngens)
        syms = list(itertools.combinations(range(ideal.ngens), s))
        terms = rng.sample(syms, min(len(syms), rng.randint(1, 3)))
        corpus.append((ideal, Cycle({t: rng.choice((1, -1)) if t != terms[0] else 1 for t in terms}, terms[0])))
        by_degree = {}
        for sym in admissible_symbols(ideal, s=s):
            by_degree.setdefault(symbol_degree(ideal, sym), []).append(sym)
        for group in by_degree.values():
            corpus.append((ideal, Cycle({t: rng.choice((1, -1)) if t != group[0] else 1 for t in group}, group[0])))
    results = []
    for ideal, cycle in corpus:
        got = outcome(check_cycle_certificate, ideal, cycle)
        assert got == outcome(check_cycle_certificate_by_monomials, ideal, cycle)
        results.append(got if isinstance(got, str) else got is not None)
    assert results.count(True) > 20 and results.count(False) > 5
    assert "cycle terms have mixed multidegrees" in results


def test_barile_certificate_soundness():
    rng = random.Random(31)
    fired = 0
    for _ in range(60):
        ideal = random_squarefree(rng, rng.randint(2, 6), rng.randint(1, 6))
        table = betti_table(ideal, GF2)
        for sym in admissible_symbols(ideal):
            res = barile_certificate(ideal, sym)
            if res is None:
                continue
            fired += 1
            s, degree = res
            assert table.entry(s, degree.support()) >= 1
    assert fired > 5


def test_main_theorem_certificate_on_catalog_families():
    cat = dict(generate_catalog({"class": "connected", "max_n": 5}))
    checked = 0
    for g in cat.values():
        table = graph_betti_table(g, GF2)
        for u, v in g.edges():
            fam = DisjointFamily([CompleteBipartiteSub(1 << u, 1 << v)], [(u, v)])
            s, sigma = main_theorem_certificate(g, fam)
            assert s == 1 and sigma == 1 << u | 1 << v
            assert table.entry(s, sigma) >= 1
            checked += 1
    assert checked > 50


def test_certificate_regression_swapped_representative_parts():
    # two-block family whose representative has its smaller endpoint in the
    # right part; the run builder must keep endpoint and part assignments in sync
    g = SimpleGraph(6, [(0, 3), (0, 4), (0, 5), (1, 4), (2, 5), (3, 5)])
    b1 = CompleteBipartiteSub((1 << 0) | (1 << 5), 1 << 3)
    b2 = CompleteBipartiteSub(1 << 1, 1 << 4)
    reps = find_representatives(g, [b1, b2])
    assert reps == [(3, 5), (1, 4)]
    fam = DisjointFamily([b1, b2], reps)
    s, sigma = main_theorem_certificate(g, fam)
    assert (s, sigma) == (3, 0b111011)
    assert graph_betti_table(g, GF2).entry(s, sigma) >= 1


def test_certificate_rejects_invalid_family():
    g = cycle_graph(4)
    bogus = DisjointFamily([CompleteBipartiteSub(1 << 0, 1 << 2)], [(0, 2)])
    with pytest.raises(ValueError):
        main_theorem_certificate(g, bogus)


def test_lyubeznik_and_witness_searches_leave_no_reference_cycles():
    # a recursive nested closure refers to itself, so each call of a search
    # written with one leaves a reference cycle for the collector
    closures = {
        "admissible_symbols.<locals>.grow",
        "is_maximal_admissible.<locals>.any_admissible_superset",
        "max_pd_witness.<locals>.descend",
    }
    g = cycle_graph(6)
    ideal = edge_ideal(g)
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        symbols = admissible_symbols(ideal)
        maximal = [sym for sym in symbols if is_maximal_admissible(ideal, sym)]
        witness = max_pd_witness(g)
        gc.collect()
        leaked = {obj.__qualname__ for obj in gc.garbage if isinstance(obj, FunctionType)}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert maximal and witness.family is not None and witness.value <= graph_betti_table(g).pd()
    assert not leaked & closures, sorted(leaked & closures)


# symbols the strand table enumerates in its connector order, and in the
# given order (every subset of a path's edges is admissible in path order)
CONNECTOR_SYMBOLS = {
    "P12": (path_graph(12), 671, 2047),
    "C11": (cycle_graph(11), 671, 1535),
    "P6": (path_graph(6), 19, 31),
    "C5": (cycle_graph(5), 19, 23),
    "K33": (complete_bipartite_graph(3, 3), 103, 103),
}


@pytest.mark.parametrize("name", sorted(CONNECTOR_SYMBOLS))
def test_strand_table_symbol_count_is_pinned(monkeypatch, name):
    import edgeideals.lyubeznik as lyu

    g, table_symbols, given_symbols = CONNECTOR_SYMBOLS[name]
    ideal = edge_ideal(g)
    seen = []

    def counted(ideal, s=None):
        got = admissible_symbols(ideal, s)
        seen.append(len(got))
        return got

    monkeypatch.setattr(lyu, "admissible_symbols", counted)
    table = lyubeznik_betti_table(ideal)
    assert seen == [table_symbols]
    assert len(admissible_symbols(ideal)) == given_symbols
    assert table.entries == graph_betti_table(g).entries


def reference_connector_order(masks):
    """The greedy order by its definition: pairs as tuples, every score
    counted afresh at every step."""
    u = len(masks)
    alive = {(a, b) for a in range(u) for b in range(a + 1, u)}
    left = list(range(u))
    order = []
    while left:

        def covered(q):
            return {(a, b) for a, b in alive if q not in (a, b) and masks[q] & ~(masks[a] | masks[b]) == 0}

        q = max(left, key=lambda q: len(covered(q)))
        alive -= covered(q)
        alive = {(a, b) for a, b in alive if q not in (a, b)}
        left.remove(q)
        order.append(q)
    return order


def test_connector_order_matches_its_definition():
    rng = random.Random(53)
    ideals = [MonomialIdeal(["x", "y", "z"], [gen]) for gen in ((1, 0, 0), (2, 1, 0), (1, 1, 1))]
    ideals += [edge_ideal(g) for n in range(2, 6) for g in graphs_on(n) if g.edge_count()]
    # wide (non-edge) supports, and polarized masks of non-squarefree generators
    ideals += [random_squarefree(rng, rng.randint(3, 8), rng.randint(1, 12)) for _ in range(60)]
    ideals += [random_ideal(rng, rng.randint(2, 5), rng.randint(1, 9), max_exp=3) for _ in range(60)]
    assert any(not ideal.is_squarefree() for ideal in ideals)
    assert any(max(ideal.masks).bit_count() > 2 for ideal in ideals)
    for ideal in ideals:
        order = _connector_order(ideal.masks)
        assert sorted(order) == list(range(ideal.ngens))
        assert order == reference_connector_order(ideal.masks), ideal.generators


def test_strand_table_is_the_same_in_the_given_order(monkeypatch):
    # the connector order changes which symbols are enumerated, never the table
    import edgeideals.lyubeznik as lyu

    rng = random.Random(59)
    fields = (GF2, FieldSpec.parse("gf3"), RATIONALS)
    cases = []
    for _ in range(40):
        n = rng.randint(4, 9)
        g = SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        if g.edge_count():
            cases.append((edge_ideal(g), rng.choice(fields)))
    for _ in range(40):
        ideal = random_squarefree(rng, rng.randint(2, 8), rng.randint(1, 9))
        cases.append((ideal, rng.choice(fields)))
    connector = [lyubeznik_betti_table(ideal, field=field).entries for ideal, field in cases]
    monkeypatch.setattr(lyu, "_connector_order", lambda masks: list(range(len(masks))))
    given = [lyubeznik_betti_table(ideal, field=field).entries for ideal, field in cases]
    assert connector == given


def test_strand_table_keeps_the_projective_plane_torsion():
    from test_hochster import rp2_ideal

    ideal = rp2_ideal()
    tables = {}
    for name in ("gf2", "gf3", "rat"):
        field = FieldSpec.parse(name)
        tables[name] = lyubeznik_betti_table(ideal, field=field).entries
        assert tables[name] == betti_table(ideal, field).entries, name
    # beta_{3,[6]} and beta_{4,[6]} are 2-torsion: over GF(2) only
    full = (1 << 6) - 1
    assert tables["gf2"][(3, full)] == tables["gf2"][(4, full)] == 1
    assert (3, full) not in tables["rat"] and (4, full) not in tables["rat"]
    assert tables["gf3"] == tables["rat"]


def test_strand_table_refuses_past_the_cap_before_ordering(monkeypatch):
    import edgeideals.lyubeznik as lyu

    def no_order(masks):
        raise AssertionError("the generator cap is checked before any order work")

    monkeypatch.setattr(lyu, "_connector_order", no_order)
    n = 25
    ideal = MonomialIdeal(
        [f"x{i + 1}" for i in range(n)],
        [Monomial.from_support(1 << i, n) for i in range(n)],
    )
    with pytest.raises(ResourceLimitError):
        lyubeznik_betti_table(ideal)
