"""Hochster-formula tables against an independent dense-matrix homology route."""

import math
import random

import pytest

from edgeideals.catalog import graphs_on
from edgeideals.errors import ResourceLimitError
from edgeideals.graphs import (
    SimpleGraph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from edgeideals import hochster
from edgeideals.hochster import (
    StrandComplex,
    _SupportEngine,
    betti_table,
    build_strand,
    cover_betti_table,
    graph_betti_table,
)
from edgeideals.ideals import Monomial, MonomialIdeal, cover_ideal, edge_ideal
from edgeideals.linalg import GF2, RATIONALS, FieldSpec, rank_over
from conftest import reference_entries, reference_homology

GF3 = FieldSpec.parse("gf3")
FIELDS = ((GF2, 2), (GF3, 3), (RATIONALS, 0))

# minimal 6-vertex triangulation of the real projective plane
RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 6), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def table_entries(table):
    return {(i, s): v for i, s, v in table.nonzero()}


def test_four_cycle_table_exact():
    for field in (GF2, RATIONALS):
        t = graph_betti_table(cycle_graph(4), field)
        assert table_entries(t) == {
            (0, 0): 1,
            (1, 0b0011): 1,
            (1, 0b0110): 1,
            (1, 0b1001): 1,
            (1, 0b1100): 1,
            (2, 0b0111): 1,
            (2, 0b1011): 1,
            (2, 0b1101): 1,
            (2, 0b1110): 1,
            (3, 0b1111): 1,
        }
        assert t.graded() == {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1}
        assert t.pd() == 3 and t.reg() == 1


def test_complete_graph_linear_resolution():
    # beta_{i,i+1} = i * C(n, i+1)
    for n in range(2, 9):
        expect = {(0, 0): 1}
        for i in range(1, n):
            expect[(i, i + 1)] = i * math.comb(n, i + 1)
        for field, _ in FIELDS:
            t = graph_betti_table(complete_graph(n), field)
            assert t.graded() == expect, (n, field)
            assert t.reg() == 1 and t.pd() == n - 1


def test_complete_bipartite_graded_table():
    # beta_{i,i+1} = sum over a + b = i + 1, a, b >= 1, of C(m, a) * C(n, b)
    for m in range(1, 5):
        for n in range(m, 10 - m):
            expect = {(0, 0): 1}
            for i in range(1, m + n):
                expect[(i, i + 1)] = sum(
                    math.comb(m, a) * math.comb(n, i + 1 - a) for a in range(1, i + 1)
                )
            for field, _ in FIELDS:
                t = graph_betti_table(complete_bipartite_graph(m, n), field)
                assert t.graded() == expect, (m, n, field)
                assert t.pd() == m + n - 1


def test_tables_match_reference_route_small():
    for n in range(1, 5):
        for g in graphs_on(n):
            for field, char in ((GF2, 2), (RATIONALS, 0), (GF3, 3)):
                assert table_entries(graph_betti_table(g, field)) == reference_entries(
                    g, char
                ), f"n={n} edges={g.edges()} field={field!r}"


def test_tables_match_reference_route_five_vertices():
    for g in graphs_on(5):
        assert table_entries(graph_betti_table(g, GF2)) == reference_entries(g, 2)


def test_tables_match_reference_route_sampled_six():
    rng = random.Random(19)
    pool = list(graphs_on(6))
    for g in rng.sample(pool, 8):
        assert table_entries(graph_betti_table(g, RATIONALS)) == reference_entries(g, 0)


def test_characteristic_independence_at_desk_scale():
    for n in range(1, 6):
        for g in graphs_on(n):
            assert table_entries(graph_betti_table(g, GF2)) == table_entries(
                graph_betti_table(g, RATIONALS)
            )


def rp2_ideal():
    """Stanley-Reisner ideal of RP^2_6: its ten non-face triangles."""
    facets = {sum(1 << (v - 1) for v in f) for f in RP2_FACETS}
    triangles = [m for m in range(1 << 6) if m.bit_count() == 3 and m not in facets]
    return MonomialIdeal(
        [f"v{i}" for i in range(1, 7)], [Monomial.from_support(m, 6) for m in triangles]
    )


def test_strand_homology_sees_torsion():
    # minimal 6-vertex projective plane: its middle homology is 2-torsion,
    # so GF(2) and the rationals genuinely disagree
    full = (1 << 6) - 1
    strand = build_strand(rp2_ideal(), full)
    faces = [m for by in strand.faces.values() for m in by]
    facets = [m for m in faces if not any(m != h and m & ~h == 0 for h in faces)]
    assert sorted(facets) == sorted(sum(1 << (v - 1) for v in f) for f in RP2_FACETS)
    assert strand.homology(GF2) == {1: 1, 2: 1}
    assert strand.homology(RATIONALS) == {}
    assert reference_homology(faces, 1, 2) == 1
    assert reference_homology(faces, 1, 0) == 0


def test_ideal_subject_is_shifted_quotient():
    ideal = edge_ideal(cycle_graph(5))
    q = betti_table(ideal, GF2, subject="quotient")
    i_table = betti_table(ideal, GF2, subject="ideal")
    expect = {(i - 1, s): v for (i, s), v in table_entries(q).items() if i >= 1}
    assert table_entries(i_table) == expect
    assert i_table.pd() == q.pd() - 1


def test_grading_consistency():
    for g in graphs_on(5):
        t = graph_betti_table(g, GF2)
        regrouped = {}
        for i, s, v in t.nonzero():
            key = (i, s.bit_count())
            regrouped[key] = regrouped.get(key, 0) + v
        assert regrouped == t.graded()
        assert t.linear_strand() == {
            (i, s): v for (i, s), v in table_entries(t).items() if s.bit_count() == i + 1
        }


def brute_extremal(entries):
    out = []
    for (i, s), _ in entries.items():
        j = s.bit_count()
        dominated = any(
            (ii, ss) != (i, s)
            and ss & s == s
            and ii >= i
            and ss.bit_count() - ii >= j - i
            for (ii, ss) in entries
        )
        if not dominated:
            out.append((i, s))
    return sorted(out)


def test_extremal_matches_dominance_definition():
    for g in graphs_on(5):
        t = graph_betti_table(g, GF2)
        assert t.extremal() == brute_extremal(table_entries(t))


def test_duality_reports_hold_small():
    for n in range(2, 6):
        for g in graphs_on(n):
            if g.edge_count() == 0:
                continue
            quotient = graph_betti_table(g, GF2)
            cover = cover_betti_table(g, quotient)
            # Bayer-Charalambous-Popescu: extremal entries agree
            for r, sigma in cover.extremal():
                assert cover.entry(r, sigma) == quotient.entry(sigma.bit_count() - r, sigma)
            # Eagon-Reiner: pd and reg swap
            assert (cover.reg(), cover.pd()) == (quotient.pd(), quotient.reg())


def test_diagram_text_layout():
    text = graph_betti_table(cycle_graph(4), GF2).diagram_text()
    lines = text.splitlines()
    assert lines[0].split() == ["j\\i", "0", "1", "2", "3"]
    assert lines[1].split() == ["0", "1"]
    assert lines[2].split() == ["1", "4", "4", "1"]


def test_table_json_shape():
    t = graph_betti_table(path_graph(3), GF2)
    obj = t.to_json()
    assert obj["subject"] == "quotient" and obj["field"] == "gf2"
    assert obj["pd"] == t.pd() and obj["reg"] == t.reg()
    assert {(e["i"], tuple(e["sigma"])) for e in obj["entries"]} == {
        (i, tuple(v for v in range(6) if s >> v & 1)) for i, s, _ in t.nonzero()
    }


def test_a_misspelt_subject_is_refused_before_any_walk(monkeypatch):
    def no_engine(*args):
        raise AssertionError("the engine was built")

    monkeypatch.setattr(hochster, "_SupportEngine", no_engine)
    for subject in ("quotent", "Ideal", ""):
        with pytest.raises(ValueError, match="'quotient' or 'ideal'"):
            graph_betti_table(cycle_graph(14), GF2, subject=subject)


def test_input_validation():
    with pytest.raises(ValueError):
        betti_table(MonomialIdeal(["x"], [Monomial((2,))]), GF2)
    big = path_graph(17)
    with pytest.raises(ResourceLimitError):
        graph_betti_table(big, GF2)
    assert graph_betti_table(big, GF2, max_vars=17).pd() > 0


def reference_ideal_entries(ideal, char):
    """All nonzero beta_{i,sigma}(S/I) from brute-force Stanley-Reisner faces."""
    supports = ideal.supports()
    faces = [f for f in range(1 << ideal.nvars) if all(s & ~f for s in supports)]
    entries = {}
    for sigma in range(1 << ideal.nvars):
        restricted = [f for f in faces if f & ~sigma == 0]
        for i in range(sigma.bit_count() + 1):
            v = reference_homology(restricted, sigma.bit_count() - i - 1, char)
            if v:
                entries[(i, sigma)] = v
    return entries


def random_graph(rng, n, p):
    return SimpleGraph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def permute_mask(mask, perm):
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


def test_relabeling_permutes_the_multigraded_table():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(3, 10)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        perm = list(range(n))
        rng.shuffle(perm)
        h = SimpleGraph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        for field, _ in FIELDS:
            moved = {
                (i, permute_mask(s, perm)): v
                for (i, s), v in table_entries(graph_betti_table(g, field)).items()
            }
            assert table_entries(graph_betti_table(h, field)) == moved, f"edges={g.edges()} perm={perm}"


def test_disjoint_union_table_is_the_product_of_tables():
    # beta_{i, s1 u s2}(G1 + G2) = sum over a + b = i of beta_{a, s1}(G1) * beta_{b, s2}(G2)
    rng = random.Random(37)
    for _ in range(12):
        g1 = random_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.8))
        g2 = random_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.8))
        union = disjoint_union(g1, g2)
        for field, _ in FIELDS:
            product = {}
            for (a, s1), v1 in table_entries(graph_betti_table(g1, field)).items():
                for (b, s2), v2 in table_entries(graph_betti_table(g2, field)).items():
                    key = (a + b, s1 | s2 << g1.n)
                    product[key] = product.get(key, 0) + v1 * v2
            assert table_entries(graph_betti_table(union, field)) == product, (
                f"edges={g1.edges()} + {g2.edges()}"
            )


def test_cover_ideal_tables_match_reference_route():
    rng = random.Random(23)
    checked = 0
    while checked < 8:
        g = random_graph(rng, rng.randint(3, 7), rng.uniform(0.2, 0.7))
        if g.edge_count() == 0:
            continue
        ideal = cover_ideal(g)
        for field, char in FIELDS:
            assert table_entries(betti_table(ideal, field)) == reference_ideal_entries(
                ideal, char
            ), f"edges={g.edges()} field={field!r}"
        checked += 1


def test_cover_tables_read_off_the_quotient_match_the_direct_route():
    # the direct route builds the cover ideal from the minimal vertex covers
    # and walks it on its own, so it is an independent cross-check of the
    # dual-formula re-indexing, insertion order included
    rng = random.Random(41)
    checked = 0
    while checked < 150:
        n = rng.randint(3, 10)
        g = random_graph(rng, n, rng.uniform(0.15, 0.75))
        if g.edge_count() == 0:
            continue
        if checked % 4 == 0:
            g = SimpleGraph(n + 1, g.edges())
        for field, _ in FIELDS:
            got = cover_betti_table(g, graph_betti_table(g, field))
            want = betti_table(cover_ideal(g), field, subject="ideal")
            assert (got.subject, got.field, got.variables) == ("ideal", field, want.variables)
            assert list(got.entries.items()) == list(want.entries.items()), (
                f"edges={g.edges()} n={g.n} field={field!r}"
            )
        checked += 1


def test_cover_table_needs_edges_and_the_graphs_quotient_table():
    with pytest.raises(ValueError, match="edgeless graph"):
        cover_betti_table(SimpleGraph(3), graph_betti_table(SimpleGraph(3)))
    c4 = cycle_graph(4)
    with pytest.raises(ValueError, match="quotient table"):
        cover_betti_table(c4, graph_betti_table(c4, subject="ideal"))
    with pytest.raises(ValueError, match="variables"):
        cover_betti_table(c4, graph_betti_table(path_graph(5)))
    relabelled = SimpleGraph(4, c4.edges(), labels=["a", "b", "c", "d"])
    with pytest.raises(ValueError, match="variables"):
        cover_betti_table(c4, graph_betti_table(relabelled))


def test_projective_plane_ideal_keeps_torsion():
    ideal = rp2_ideal()
    tables = {}
    for field, char in FIELDS:
        tables[char] = table_entries(betti_table(ideal, field))
        assert tables[char] == reference_ideal_entries(ideal, char), repr(field)
    full = (1 << 6) - 1
    # H~_1 and H~_2 are Z/2-torsion: beta_{4,[6]} and beta_{3,[6]} over GF(2) only
    assert tables[2][(3, full)] == tables[2][(4, full)] == 1
    assert (3, full) not in tables[0] and (4, full) not in tables[0]
    assert tables[3] == tables[0]


def top_vector(g, field):
    """{i: beta_{i,[n]}} of S/I(G)."""
    full = (1 << g.n) - 1
    return {i: v for (i, s), v in table_entries(graph_betti_table(g, field)).items() if s == full}


def test_kozlov_cycle_spheres():
    # Ind(C_n) is a wedge of two (k-1)-spheres for n = 3k and one for n = 3k +- 1,
    # so the only top-degree entry is beta_{n-k,[n]}
    for n in range(3, 15):
        k = round(n / 3)
        expect = {n - k: 2 if n % 3 == 0 else 1}
        for field, _ in FIELDS:
            assert top_vector(cycle_graph(n), field) == expect, (n, field)


def test_kozlov_path_spheres():
    # Ind(P_n) is a (k-1)-sphere for n in {3k-1, 3k} and contractible for n = 3k+1
    for n in range(1, 15):
        if n % 3 == 1:
            expect = {}
        else:
            k = (n + 1) // 3
            expect = {n - k: 1}
        for field, _ in FIELDS:
            assert top_vector(path_graph(n), field) == expect, (n, field)


def kozlov_vector(mk, n):
    """Reduced homology of Ind(C_n) or Ind(P_n), by Kozlov's spheres."""
    if mk is cycle_graph:
        k = round(n / 3)
        return {k - 1: 2 if n % 3 == 0 else 1}
    return {} if n % 3 == 1 else {(n + 1) // 3 - 1: 1}


def test_kozlov_spheres_beyond_the_table_cap(monkeypatch):
    # the same spheres on the whole independence complex for n = 15..64, past
    # MAX_TABLE_VARS: the engine splits every core at a vertex and builds no
    # chain complex
    built = []
    with monkeypatch.context() as m:
        m.setattr(hochster, "StrandComplex", lambda sigma, inside: built.append(sigma))
        for n in range(15, 65):
            full = (1 << n) - 1
            for mk in (cycle_graph, path_graph):
                for field, _ in FIELDS:
                    got = _SupportEngine(edge_ideal(mk(n)), field).vector(full)
                    assert got == kozlov_vector(mk, n), (mk.__name__, n, field)
    assert built == []
    # the unreduced route for n = 15..20; Ind(C_20) has 15,127 faces
    for n in range(15, 21):
        full = (1 << n) - 1
        for mk in (cycle_graph, path_graph):
            strand = build_strand(edge_ideal(mk(n)), full)
            for field, _ in FIELDS:
                assert strand.homology(field) == kozlov_vector(mk, n), (mk.__name__, n, field)


def strand_corpus():
    """Thirty seeded squarefree ideals on at most 8 variables, among them
    singleton generators and variables that lie in no generator."""
    rng = random.Random(53)
    out = []
    while len(out) < 30:
        n = rng.randint(1, 8)
        masks = set()
        for _ in range(rng.randint(1, 2 * n)):
            size = min(rng.choice((1, 2, 2, 3, 3, 4)), n)
            masks.add(sum(1 << v for v in rng.sample(range(n), size)))
        minimal = sorted(m for m in masks if not any(o != m and o & ~m == 0 for o in masks))
        out.append(MonomialIdeal([f"x{i}" for i in range(n)], [Monomial.from_support(m, n) for m in minimal]))
    return out


def test_build_strand_matches_brute_force_faces_and_reference_homology():
    corpus = strand_corpus()
    singles = sum(any(s.bit_count() == 1 for s in ideal.supports()) for ideal in corpus)
    free = 0
    for ideal in corpus:
        used = 0
        for s in ideal.supports():
            used |= s
        free += used != (1 << ideal.nvars) - 1
    assert singles >= 5 and free >= 5, (singles, free)
    rng = random.Random(59)
    for ideal in corpus:
        supports = ideal.supports()
        full = (1 << ideal.nvars) - 1
        for sigma in (full, rng.randrange(1 << ideal.nvars)):
            strand = build_strand(ideal, sigma)
            brute = [
                f for f in range(1 << ideal.nvars)
                if f & ~sigma == 0 and all(s & ~f for s in supports)
            ]
            assert all(f.bit_count() - 1 == d for d, by in strand.faces.items() for f in by)
            assert sorted(f for by in strand.faces.values() for f in by) == brute, supports
            for field, char in FIELDS:
                expect = {}
                for d in range(-1, sigma.bit_count()):
                    h = reference_homology(brute, d, char)
                    if h:
                        expect[d] = h
                assert strand.homology(field) == expect, (supports, sigma, field)


def test_build_strand_input_validation():
    with pytest.raises(ValueError, match="squarefree"):
        build_strand(MonomialIdeal(["x", "y"], [Monomial((2, 0)), Monomial((0, 1))]), 0b11)
    with pytest.raises(ValueError, match="not a subset"):
        build_strand(edge_ideal(path_graph(3)), 0b1000)


def walk_corpus():
    """Seeded squarefree ideals for the walk: edge ideals, cover ideals, and
    antichains with two or more singleton generators and variables that lie
    in no generator."""
    rng = random.Random(41)
    out = []
    while len(out) < 15:
        n = rng.randint(3, 7)
        g = random_graph(rng, n, rng.uniform(0.25, 0.7))
        if g.edge_count():
            out.append(edge_ideal(g) if len(out) % 2 else cover_ideal(g))
    while len(out) < 24:
        n = rng.randint(5, 8)
        free = rng.randrange(n)
        singles = rng.sample([v for v in range(n) if v != free], 2)
        others = [v for v in range(n) if v != free and v not in singles]
        masks = {1 << v for v in singles}
        for _ in range(rng.randint(1, 2 * n)):
            masks.add(sum(1 << v for v in rng.sample(others, min(rng.randint(2, 3), len(others)))))
        minimal = [m for m in masks if not any(o != m and o & ~m == 0 for o in masks)]
        out.append(MonomialIdeal([f"x{i}" for i in range(n)], [Monomial.from_support(m, n) for m in minimal]))
    return out


def test_walk_visits_every_union_of_supports_once_submasks_first():
    for ideal in walk_corpus():
        engine = _SupportEngine(ideal, GF2)
        supports = engine.supports
        unions = set()
        for mask in range(1 << ideal.nvars):
            covered = 0
            for s in supports:
                if s & ~mask == 0:
                    covered |= s
            if covered == mask:
                unions.add(mask)
        visited = engine.walk()
        assert len(visited) == len(set(visited)) and set(visited) == unions, ideal.supports()
        seen = set()
        for active in visited:
            assert not any(s != active and s & ~active == 0 for s in unions - seen), active
            seen.add(active)


def test_equal_vectors_share_one_dict_after_a_full_walk():
    # a fold stores its target's dict under sigma, and only new results are
    # shared by content, so the memo holds one dict per distinct vector
    for ideal in walk_corpus():
        for field, _ in FIELDS:
            engine = _SupportEngine(ideal, field)
            engine.walk()
            vectors = list(engine._memo.values())
            distinct = {tuple(sorted(v.items())) for v in vectors}
            assert len({id(v) for v in vectors}) == len(distinct), (ideal.supports(), field)


def test_walk_tables_match_reference_route():
    corpus = walk_corpus()
    assert sum(sum(s.bit_count() == 1 for s in ideal.supports()) >= 2 for ideal in corpus) >= 9
    for ideal in corpus:
        for field, char in FIELDS:
            assert table_entries(betti_table(ideal, field)) == reference_ideal_entries(
                ideal, char
            ), f"supports={ideal.supports()} field={field!r}"


def dense_walk_corpus():
    """Seeded dense edge ideals of G(n, p), n = 8..11 and p = .5-.8, where a
    quarter to two thirds of the walk sets fold through a witness inherited
    from their parent; the walk corpus ideals with supports of three or more
    vertices; and antichains of pairs, triples and quadruples on 6..8
    variables, where a witness meets wide supports through w and survives
    some of them."""
    rng = random.Random(89)
    out = [edge_ideal(random_graph(rng, n, rng.uniform(0.5, 0.8))) for n in (8, 8, 9, 9, 10, 11)]
    out += [ideal for ideal in walk_corpus() if any(s.bit_count() > 2 for s in ideal.supports())]
    rng = random.Random(97)
    while len(out) < 25:
        n = rng.randint(6, 8)
        masks = set()
        for _ in range(rng.randint(n, 3 * n)):
            masks.add(sum(1 << v for v in rng.sample(range(n), rng.choice((2, 2, 3, 3, 4)))))
        minimal = [m for m in masks if not any(o != m and o & ~m == 0 for o in masks)]
        if any(m.bit_count() > 2 for m in minimal):
            gens = [Monomial.from_support(m, n) for m in minimal]
            out.append(MonomialIdeal([f"x{i}" for i in range(n)], gens))
    return out


def test_inherited_fold_witnesses_keep_every_walk_vector():
    # a witness (x, w) survives a new top vertex v unless v ~ w and v !~ x,
    # or a new wide support through w and v leaves x out of its domination
    # mask; every walk set, folded by an inherited witness or not, must still
    # carry the chain complex's homology
    corpus = dense_walk_corpus()
    assert sum(any(s.bit_count() > 2 for s in ideal.supports()) for ideal in corpus) >= 19
    inherited = 0
    for ideal in corpus:
        for field, char in FIELDS:
            engine = _SupportEngine(ideal, field)
            searched = []
            search = engine._fold
            engine._fold = lambda sigma: searched.append(sigma) or search(sigma)
            walked = engine.walk()
            inherited += len(walked) - len(searched)
            for sigma in walked:
                inside = [s for s in engine.supports if s & ~sigma == 0]
                expect = StrandComplex(sigma, inside).homology(field)
                assert engine._memo[sigma] == expect, (ideal.supports(), sigma, field)
            assert table_entries(betti_table(ideal, field)) == reference_ideal_entries(
                ideal, char
            ), f"supports={ideal.supports()} field={field!r}"
    assert inherited > 0


def complement_components(adj, sigma):
    """Number of connected components of the complement of G[sigma]."""
    count = 0
    left = sigma
    while left:
        comp = frontier = left & -left
        while frontier and comp != left:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = left & ~adj[v] & ~comp
            comp |= new
            frontier |= new
        left &= ~comp
        count += 1
    return count


def test_full_tables_past_the_cap_obey_euler_and_the_top_strand():
    # on every sigma: sum_i (-1)^i beta_{i,sigma} = (-1)^|sigma| I(G[sigma]; -1),
    # I the independence polynomial, since the reduced Euler characteristic of
    # Ind G[sigma] is -I(G[sigma]; -1); and beta_{|sigma|-1,sigma} = dim H~_0,
    # one less than the number of components of the 1-skeleton, which is the
    # complement of G[sigma]
    for g in (cycle_graph(18), path_graph(18), cycle_graph(20)):
        table = graph_betti_table(g, RATIONALS, max_vars=g.n)
        euler = {}
        for (i, s), v in table.entries.items():
            euler[s] = euler.get(s, 0) + (v if i % 2 == 0 else -v)
        closed = [g.adj[v] | 1 << v for v in range(g.n)]
        indep = [1] * (1 << g.n)
        for s in range(1, 1 << g.n):
            low = s & -s
            indep[s] = indep[s ^ low] - indep[s & ~closed[low.bit_length() - 1]]
            size = s.bit_count()
            assert euler.get(s, 0) == (-indep[s] if size & 1 else indep[s]), (g.n, s)
            assert table.entry(size - 1, s) == complement_components(g.adj, s) - 1, (g.n, s)


# Ind of this graph is acyclic, yet at both vertices the split tries (1 and
# 2, degree 3) the deletion and the link share a nonzero degree, so the
# engine falls back to the chain complex on the whole vertex set
OVERLAP_GRAPH = SimpleGraph(
    8, [(0, 3), (0, 4), (1, 2), (1, 3), (1, 7), (2, 4), (2, 5), (3, 4), (5, 6), (6, 7)]
)


def split_corpus():
    """Seeded squarefree ideals for the link/deletion split: edge ideals of
    G(n, p), the overlap graph above, the strand corpus (cubic supports,
    singleton generators, free variables) and the RP^2 ideal."""
    rng = random.Random(67)
    out = [edge_ideal(random_graph(rng, rng.randint(4, 9), rng.uniform(0.2, 0.7))) for _ in range(40)]
    return out + [edge_ideal(OVERLAP_GRAPH), rp2_ideal()] + strand_corpus()


def test_split_engine_matches_the_chain_complex_and_reference_homology():
    # the engine answers edge-ideal cores by the split, so the unreduced
    # chain complex on every walk set and the dense reference on a few sigma
    # are what still cross-check it
    rng = random.Random(71)
    for ideal in split_corpus():
        supports = ideal.supports()
        full = (1 << ideal.nvars) - 1
        faces = [f for f in range(full + 1) if all(s & ~f for s in supports)]
        queries = {full, rng.randrange(full + 1), rng.randrange(full + 1)}
        for field, char in FIELDS:
            for sigma in queries:
                expect = {}
                for d in range(-1, sigma.bit_count()):
                    h = reference_homology([f for f in faces if f & ~sigma == 0], d, char)
                    if h:
                        expect[d] = h
                got = _SupportEngine(ideal, field).vector(sigma)
                assert got == expect, (supports, sigma, field)
                # in increasing degree, as the chain complex lists it
                assert list(got) == sorted(got), (supports, sigma, field)
            engine = _SupportEngine(ideal, field)
            for sigma in engine.walk():
                got = engine._memo[sigma]
                inside = [s for s in supports if s & ~sigma == 0]
                assert got == StrandComplex(sigma, inside).homology(field), (supports, sigma, field)
            # a table lists each sigma's entries in decreasing i, the order of
            # the chain complex's increasing degrees
            keys = list(betti_table(ideal, field).entries)
            assert keys == sorted(keys, key=lambda k: (k[1], -k[0])), (supports, field)


def test_split_falls_back_to_the_chain_complex_when_two_tries_overlap(monkeypatch):
    built = []
    passed = []

    class Recording(StrandComplex):
        __slots__ = ()

        def __init__(self, sigma, inside):
            super().__init__(sigma, inside)
            built.append(self)

    def recording_rank(field, rows):
        passed.append(rows)
        return rank_over(field, rows)

    monkeypatch.setattr(hochster, "StrandComplex", Recording)
    monkeypatch.setattr(hochster, "rank_over", recording_rank)
    full = (1 << OVERLAP_GRAPH.n) - 1
    for field, _ in FIELDS:
        built.clear()
        passed.clear()
        assert _SupportEngine(edge_ideal(OVERLAP_GRAPH), field).vector(full) == {}
        assert [strand.faces[-1] for strand in built] == [[0]] and len(built[0].faces[0]) == 8
        assert [id(rows) for rows in passed] == [id(rows) for rows in built[0].boundary.values()]
