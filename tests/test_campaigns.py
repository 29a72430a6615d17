"""Campaign engine: registry, determinism, caps, statuses, report formats."""

import concurrent.futures
import gc
import hashlib
import json
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path
from types import FunctionType

import pytest

from edgeideals import campaigns, catalog, lyubeznik
from edgeideals.campaigns import (
    REGISTRY,
    Campaign,
    _bouquets,
    _certified,
    _Ctx,
    _valid_families,
    run_campaign,
)
from edgeideals.catalog import generate_catalog, graphs_on
from edgeideals.graphs import SimpleGraph, iter_bits, path_graph
from edgeideals.hochster import BettiTable, cover_betti_table, graph_betti_table
from edgeideals.ideals import Monomial, MonomialIdeal
from edgeideals.linalg import FieldSpec
from edgeideals.lyubeznik import (
    Cycle,
    _block_order_certificate,
    bipartite_cycle,
    check_cycle_certificate,
    main_theorem_certificate,
    product_cycle,
)
from edgeideals.witness import (
    CompleteBipartiteSub,
    DisjointFamily,
    all_blocks,
    bouquet_family,
    is_valid_family,
    valid_representatives,
    witness_for,
)
from test_lyubeznik import check_cycle_certificate_by_monomials

EXPECTED_TAGS = {
    "T1.1", "T2.2", "T2.3", "T2.4", "T2.5",
    "P5.1", "C5.2", "C5.4", "T5.8",
    "T6.1", "T6.2",
    "P6.6", "C6.7", "C6.8",
    "P7.2", "T7.1",
}


def small_campaign(**overrides):
    obj = {
        "name": "smoke",
        "graphs": {"class": "connected", "max_n": 4},
        "fields": ["gf2"],
        "assertions": ["T2.2", "P5.1", "T6.1", "T6.2"],
    }
    obj.update(overrides)
    return Campaign.from_json(obj)


def test_registry_tags():
    assert set(REGISTRY) == EXPECTED_TAGS


def test_campaign_validation():
    with pytest.raises(ValueError, match="unknown assertion"):
        small_campaign(assertions=["T2.2", "T9.9"])
    with pytest.raises(ValueError):
        small_campaign(fields=["gf4"])  # not a prime power we accept
    c = Campaign.from_json({"graphs": {"class": "named", "names": ["cycle_4"]},
                            "assertions": ["T2.2"]})
    assert c.name == "campaign" and c.fields == ["gf2"] and c.seed == 0


def test_campaign_load(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "name": "fromfile",
        "graphs": {"class": "named", "names": ["path_3"]},
        "assertions": ["P5.1"],
    }))
    c = Campaign.load(path)
    report = run_campaign(c)
    assert report.ok and len(report.results) == 1


def test_deterministic_across_runs_and_workers():
    c = small_campaign()
    serial_a = run_campaign(c, workers=1).to_json()
    serial_b = run_campaign(c, workers=1).to_json()
    parallel = run_campaign(c, workers=2).to_json()
    blob = lambda r: json.dumps(r, sort_keys=True)
    assert blob(serial_a) == blob(serial_b) == blob(parallel)
    assert serial_a["schema"] == "edgeideals-report/1"
    # 10 connected graphs on <= 4 vertices, 1 field, 4 assertions
    assert len(serial_a["results"]) == 10 * 4


def test_statuses_and_summary():
    c = Campaign.from_json({
        "graphs": {"class": "named", "names": ["cycle_5"]},
        "fields": ["gf2", "rat"],
        "assertions": ["T2.2", "C6.7"],  # C6.7 skips: C5 is not CM bipartite
    })
    report = run_campaign(c)
    assert report.ok
    statuses = {(r["field"], r["assertion"]): r["status"] for r in report.results}
    assert statuses[("gf2", "T2.2")] == "ok"
    assert statuses[("gf2", "C6.7")] == "skipped"
    assert report.summary() == {"ok": 2, "violation": 0, "skipped": 2}


def test_vertex_cap_enforced():
    c = Campaign.from_json({
        "graphs": {"class": "named", "names": ["path_9"]},
        "assertions": ["P5.1"],
    })
    with pytest.raises(ValueError, match="vertex cap"):
        run_campaign(c)
    c2 = Campaign.from_json({
        "graphs": {"class": "named", "names": ["path_9"]},
        "assertions": ["P5.1"],
        "caps": {"max_n": 9},
    })
    assert run_campaign(c2).ok
    # 17 vertices is past hochster.MAX_TABLE_VARS; caps.max_n consents to it
    c3 = Campaign.from_json({
        "graphs": {"class": "named", "names": ["path_17"]},
        "assertions": ["P5.1", "T2.2"],
        "caps": {"max_n": 17},
    })
    assert run_campaign(c3).summary() == {"ok": 2, "violation": 0, "skipped": 0}


def test_violation_reporting():
    REGISTRY["X0.0"] = lambda g, field, caps, ctx: [{"check": "always-fires"}]
    try:
        c = Campaign.from_json({
            "graphs": {"class": "named", "names": ["path_2"]},
            "assertions": ["X0.0", "T2.2"],
        })
        report = run_campaign(c, workers=1)
    finally:
        del REGISTRY["X0.0"]
    assert not report.ok
    assert report.summary() == {"ok": 1, "violation": 1, "skipped": 0}
    human = report.human()
    assert "VIOLATION" in human and "always-fires" in human
    assert human.rstrip().endswith("FAIL")
    bad = [r for r in report.results if r["status"] == "violation"]
    assert bad[0]["violations"] == [{"check": "always-fires"}]


def test_report_formats():
    report = run_campaign(small_campaign(graphs={"class": "named", "names": ["cycle_4"]}))
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "graph,n,field,assertion,status,violations"
    assert len(lines) == 1 + len(report.results)
    assert lines[1].startswith("named/cycle_4,4,gf2,")
    human = report.human()
    assert human.rstrip().endswith("PASS")
    assert f"{len(report.results)} checks" in human


def test_timing_block():
    report = run_campaign(
        small_campaign(graphs={"class": "named", "names": ["path_3"]}),
        timing=True,
    )
    # no worker count means one worker
    assert report.timing and report.timing["workers"] == 1
    assert all("elapsed_ms" in r for r in report.results)
    assert "timing" in report.to_json()


def test_full_registry_on_tiny_corpus():
    c = Campaign.from_json({
        "name": "tiny-all",
        "graphs": {"class": "all", "max_n": 3},
        "fields": ["gf2", "rat"],
        "assertions": sorted(EXPECTED_TAGS),
    })
    report = run_campaign(c, workers=2)
    assert report.ok
    assert len(report.results) == (1 + 2 + 4) * 2 * 16


def disjoint_families(blocks, max_r):
    """Index-increasing tuples of pairwise vertex-disjoint blocks, valid or not,
    in depth-first preorder."""
    acc = []

    def rec(start, mask):
        if acc:
            yield list(acc)
        if len(acc) == max_r:
            return
        for idx in range(start, len(blocks)):
            b = blocks[idx]
            if b.vertices & mask:
                continue
            acc.append(b)
            yield from rec(idx + 1, mask | b.vertices)
            acc.pop()

    yield from rec(0, 0)


def campaign_families(g):
    """Every disjoint family T1.1 (with its default caps) considers, valid or
    not, and the families T2.5 hands to the certificate."""
    for blocks in disjoint_families(all_blocks(g, max_vertices=5), 2):
        yield DisjointFamily(blocks)
    full = g.vertex_mask()
    sigma = full
    while sigma:
        fam = bouquet_family(g, sigma)
        if fam is not None:
            yield fam
        sigma = (sigma - 1) & full


def block_order_supports(shapes, rows):
    """The ordered generator supports a certificate key (shapes, rows) names,
    with each block's generator count: a block (m, n) holds the next m
    positions, then the next n; its cross edges come row-major, then its
    edges inside a part, then after all blocks every edge between blocks,
    each run in increasing position pairs."""

    def edge(a, b):
        return rows[a] >> b & 1 and rows[b] >> a & 1

    spans, supports, counts = [], [], []
    start = 0
    for m, n in shapes:
        us, vs = range(start, start + m), range(start + m, start + m + n)
        assert all(edge(a, b) for a in us for b in vs)
        run = [(a, b) for b in vs for a in us]
        run += [(a, b) for part in (us, vs) for a, b in combinations(part, 2) if edge(a, b)]
        supports += run
        counts.append(len(run))
        spans.append(range(start, start + m + n))
        start += m + n
    assert start == len(rows)
    home = {a: k for k, span in enumerate(spans) for a in span}
    supports += [(a, b) for a, b in combinations(range(start), 2) if home[a] != home[b] and edge(a, b)]
    return [1 << a | 1 << b for a, b in supports], counts


def sigma_order_certificate(g, fam, memo):
    """The certificate built on sigma's vertices in increasing label order: per
    block the cross edges row-major, the representative's ends last in their
    parts, then the block's other induced edges in increasing label pairs,
    then every remaining edge of G[sigma].  memo is keyed by the ordered
    supports and the (m, n, run length) shapes; returns the verdict and key."""
    reps = valid_representatives(g, fam)
    verts = [v for v in range(g.n) if fam.sigma >> v & 1]
    bit = {w: 1 << i for i, w in enumerate(verts)}
    supports, shapes = [], []
    for block, (u, v) in zip(fam.blocks, reps):
        left, right = (block.left, block.right) if block.left >> u & 1 else (block.right, block.left)
        lefts = [w for w in verts if left >> w & 1 and w != u] + [u]
        rights = [w for w in verts if right >> w & 1 and w != v] + [v]
        run = [bit[a] | bit[b] for b in rights for a in lefts]
        run += [
            bit[a] | bit[b]
            for a, b in combinations(verts, 2)
            if g.adj[a] >> b & 1 and any(part >> a & part >> b & 1 for part in (left, right))
        ]
        supports += run
        shapes.append((len(lefts), len(rights), len(run)))
    supports += [
        bit[a] | bit[b]
        for a, b in combinations(verts, 2)
        if g.adj[a] >> b & 1 and bit[a] | bit[b] not in supports
    ]
    key = (tuple(supports), tuple(shapes))
    if key not in memo:
        ideal = MonomialIdeal(
            [g.labels[w] for w in verts], [Monomial.from_support(s, len(verts)) for s in supports]
        )
        cycle = product_cycle([(k, bipartite_cycle(m, n)[1]) for m, n, k in shapes])
        memo[key] = check_cycle_certificate(ideal, cycle)
    res = memo[key]
    ok = res is not None and res[0] == fam.value and res[1].support() == (1 << len(verts)) - 1
    return ok, key


def verdicts(memo):
    """The (shapes, rows) verdicts of a certificate memo, without the verdicts
    of block shapes (m, n) that it also keeps; a shape key starts with an
    int, a (shapes, rows) key with a tuple."""
    return {key: res for key, res in memo.items() if isinstance(key[0], tuple)}


def shape_entries(memo):
    """The block shape (m, n) verdicts of a certificate memo."""
    return {key: res for key, res in memo.items() if isinstance(key[0], int)}


def product_cycle_check(shapes, rows, check=check_cycle_certificate):
    """The full cycle check of the key (shapes, rows): the product of the
    blocks' threshold cycles on the ideal of ``block_order_supports``, as
    the memo keeps it: (s, degree mask), or None."""
    supports, counts = block_order_supports(shapes, rows)
    nvars = len(rows)
    ideal = MonomialIdeal(
        [f"x{i}" for i in range(nvars)],
        [Monomial.from_support(s, nvars) for s in supports],
    )
    cycle = product_cycle([(k, bipartite_cycle(m, n)[1]) for (m, n), k in zip(shapes, counts)])
    res = check(ideal, cycle)
    return None if res is None else (res[0], res[1].support())


def test_certificate_memo_never_changes_a_verdict():
    calls = keys = rejected = 0
    for _, g in generate_catalog({"class": "all", "max_n": 5}):
        memo = {}
        for fam in campaign_families(g):
            verdict = _certified(g, fam, memo)
            assert verdict == _certified(g, fam)
            assert verdict[0] == is_valid_family(g, fam)
            calls += 1
            rejected += not verdict[0]
        keys += len(verdicts(memo))
        # each verdict is the cycle check on exactly what its key names: the
        # (m, n) block shapes and the block-ordered adjacency rows of G[sigma]
        for (shapes, rows), result in verdicts(memo).items():
            assert product_cycle_check(shapes, rows) == result
            assert product_cycle_check(shapes, rows, check_cycle_certificate_by_monomials) == result
    assert calls - rejected > 2 * keys > 0 and rejected > 0


def test_block_order_certificate_matches_the_sigma_order_construction():
    checked = 0
    reference: dict = {}
    for _, g in generate_catalog({"class": "all", "max_n": 6}):
        ctx = _Ctx(g, {})
        families = [fam for _, _, fam in ctx.of(_valid_families, 5, 2)]
        families += [fam for _, fam in _bouquets(g)]
        for fam in families:
            assert _certified(g, fam, ctx.certificates)[0] == sigma_order_certificate(g, fam, reference)[0]
            checked += 1
    assert checked > 10000 and len(reference) > 0


def test_relabelled_copies_share_certificate_memo_entries():
    # two stars K_{1,2}; the copy interleaves their vertices in label order
    edges = [(0, 1), (0, 2), (3, 4), (3, 5)]
    image = {0: 0, 1: 2, 2: 4, 3: 1, 4: 3, 5: 5}
    g = SimpleGraph(6, edges)
    h = SimpleGraph(6, [(image[a], image[b]) for a, b in edges])
    memo, reference = {}, {}

    def certify_families(graph):
        for _, _, fam in _valid_families(graph, 5, 2):
            assert _certified(graph, fam, memo) == (True, "")
            assert sigma_order_certificate(graph, fam, reference)[0]

    certify_families(g)
    entries, sigma_order_entries = len(memo), len(reference)
    certify_families(h)
    assert len(memo) == entries > 0
    # keyed in sigma's label order, the interleaved copy would miss
    assert len(reference) > sigma_order_entries


def test_certificate_memo_keeps_rejecting_invalid_families():
    g = path_graph(6)
    blocks = [CompleteBipartiteSub(1 << 1, 1 << 0 | 1 << 2), CompleteBipartiteSub(1 << 4, 1 << 3 | 1 << 5)]
    memo = {}
    assert _certified(g, DisjointFamily(blocks, [(0, 1), (4, 5)]), memo) == (True, "")
    assert len(verdicts(memo)) == 1
    before = dict(memo)
    # same blocks and sigma, but the representatives share the edge 2-3
    bad = DisjointFamily(blocks, [(1, 2), (3, 4)])
    expected = (False, "ValueError: family is not valid for this graph")
    assert _certified(g, bad, memo) == _certified(g, bad) == expected
    assert memo == before


def test_shape_entries_hold_the_leading_symbol_of_each_block_cycle(monkeypatch):
    seen = spy_contexts(monkeypatch)
    specs = [
        {"class": "all", "max_n": 6},
        {"class": "unmixed_blowups", "max_elements": 2, "max_zeta": 2, "max_vertices": 8},
    ]
    for spec in specs:
        campaign = Campaign("shapes", spec, ["gf2"], ["T1.1", "T2.5", "T7.1"], caps={"max_n": 8})
        assert run_campaign(campaign, workers=1).ok
    memo = {}
    for _, certificates in seen:
        memo.update(certificates)
    keys, shapes_of = verdicts(memo), shape_entries(memo)
    # the memo holds the two kinds of entries and nothing else
    assert len(keys) + len(shapes_of) == len(memo)
    # one entry per block shape of a key: the leading symbol of its threshold cycle
    assert set(shapes_of) == {b for shapes, _ in keys for b in shapes}
    for (m, n), leading in shapes_of.items():
        assert leading == bipartite_cycle(m, n)[1].leading
    for (shapes, rows), result in keys.items():
        full = product_cycle_check(shapes, rows)
        assert full == product_cycle_check(shapes, rows, check_cycle_certificate_by_monomials) == result
        assert result is not None
        # with every shape entry warm
        assert _block_order_certificate(shapes, rows, memo) == full
    assert len(keys) > 300 and len({shapes for shapes, _ in keys}) > 30 and len(shapes_of) > 5


def test_a_shape_verdict_is_read_only_under_its_own_block_shape():
    g = path_graph(6)
    star, other = CompleteBipartiteSub(1 << 1, 1 << 0 | 1 << 2), CompleteBipartiteSub(1 << 4, 1 << 3 | 1 << 5)
    alone = DisjointFamily([star], [(0, 1)])
    both = DisjointFamily([star, other], [(0, 1), (4, 5)])
    assert certificate_key(g, alone)[0] == ((2, 1),)
    assert certificate_key(g, both)[0] == ((2, 1), (1, 2))
    # a refused (1, 2) refuses the two-block family, but not the (2, 1) block alone
    memo = {(1, 2): None}
    with pytest.raises(RuntimeError, match="certificate construction failed"):
        main_theorem_certificate(g, both, memo)
    assert main_theorem_certificate(g, alone, memo) == (2, 0b111)
    assert main_theorem_certificate(g, both) == (4, 0b111111)


def block_order_key(g, blocks, reps):
    """The certificate memo key of blocks in order with representatives (u, v),
    built as main_theorem_certificate builds it but without checking that the
    family is valid."""
    order, shapes = [], []
    for block, (u, v) in zip(blocks, reps):
        upart, vpart = (block.left, block.right) if block.left >> u & 1 else (block.right, block.left)
        for part, end in ((upart, u), (vpart, v)):
            order += [w for w in iter_bits(part) if w != end] + [end]
        shapes.append((upart.bit_count(), vpart.bit_count()))
    bit = {w: 1 << i for i, w in enumerate(order)}
    rows = tuple(sum(bit[x] for x in order if g.adj[w] >> x & 1) for w in order)
    return tuple(shapes), rows


def certifies(key, memo):
    """Whether the cycle check of key lands in main_theorem_certificate's
    strand: homological degree |sigma| - r, multidegree all of sigma."""
    if key not in memo:
        shapes, rows = key
        res = _block_order_certificate(shapes, rows, {})
        memo[key] = res is not None and res[0] == len(rows) - len(shapes) and res[1] == (1 << len(rows)) - 1
    return memo[key]


def test_only_the_full_certificate_sees_three_disjoint_representatives():
    # every two disjoint blocks of at most 5 vertices, with every pair of
    # cross edges as representatives, valid (3-disjoint) or not
    full, single = {}, {}
    counts = {True: 0, False: 0}
    for n in range(2, 7):
        for g in graphs_on(n):
            for b1, b2 in combinations(all_blocks(g, max_vertices=5), 2):
                if b1.vertices & b2.vertices:
                    continue
                cross = ([(u, v) for u in iter_bits(b.left) for v in iter_bits(b.right)] for b in (b1, b2))
                for reps in product(*cross):
                    fam = DisjointFamily([b1, b2], reps)
                    valid = is_valid_family(g, fam)
                    key = block_order_key(g, fam.blocks, fam.representatives)
                    assert certifies(key, full) == valid
                    if valid:
                        assert key == certificate_key(g, fam)
                    # each block alone, its rows masked to its own positions,
                    # certifies whether or not the representatives are 3-disjoint
                    shapes, rows = key
                    cut = sum(shapes[0])
                    assert certifies((shapes[:1], tuple(r & (1 << cut) - 1 for r in rows[:cut])), single)
                    assert certifies((shapes[1:], tuple(r >> cut for r in rows[cut:])), single)
                    counts[valid] += 1
    assert counts == {True: 1036, False: 17706}


def random_block_key(rng, shapes, p):
    """A certificate key (shapes, rows) whose blocks are complete across their
    parts, every other pair of positions an edge with probability p."""
    cross, start = set(), 0
    for m, n in shapes:
        cross |= {(a, b) for a in range(start, start + m) for b in range(start + m, start + m + n)}
        start += m + n
    rows = [0] * start
    for a, b in combinations(range(start), 2):
        if (a, b) in cross or rng.random() < p:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return tuple(shapes), tuple(rows)


@lru_cache(maxsize=None)
def block_order_corpus():
    """Distinct certificate keys, valid or not: every key of one, two or three
    blocks of at most 5 vertices in graphs_on(2..6), with every cross edge of
    each block as its representative, and 300 seeded keys of one to three
    blocks up to K_{3,3} with random edges, at densities from 0 to 0.6,
    inside parts and between blocks."""
    keys = set()
    for n in range(2, 7):
        for g in graphs_on(n):
            for blocks in disjoint_families(all_blocks(g, max_vertices=5), 3):
                cross = ([(u, v) for u in iter_bits(b.left) for v in iter_bits(b.right)] for b in blocks)
                for reps in product(*cross):
                    keys.add(block_order_key(g, blocks, reps))
    rng = random.Random(5)
    sizes = [(m, n) for m in range(1, 4) for n in range(1, 4)]
    for _ in range(300):
        shapes = [rng.choice(sizes) for _ in range(rng.randint(1, 3))]
        keys.add(random_block_key(rng, shapes, rng.choice((0, 0.1, 0.3, 0.6))))
    return sorted(keys)


def test_block_order_verdicts_match_the_product_cycle_check():
    warm: dict = {}
    counts = Counter()
    for shapes, rows in block_order_corpus():
        full = product_cycle_check(shapes, rows)
        assert _block_order_certificate(shapes, rows, {}) == full
        assert _block_order_certificate(shapes, rows, warm) == full
        counts[len(shapes), full is not None] += 1
    # one block alone always certifies; two and three blocks go both ways
    assert counts[1, False] == 0 and counts[1, True] >= 20, counts
    assert all(counts[r, ok] >= 20 for r in (2, 3) for ok in (True, False)), counts
    assert set(shape_entries(warm)) >= {(m, n) for m in range(1, 4) for n in range(1, 4)}


def test_t11_keys_on_nine_vertex_graphs_match_the_product_cycle_check():
    # 30 seeded G(9, .5) graphs: every key T1.1's families reach, checked
    # on masks, against the full product cycle on Monomials
    rng = random.Random(9)
    keys = {}
    for _ in range(30):
        g = SimpleGraph(9, [(u, v) for u, v in combinations(range(9), 2) if rng.random() < 0.5])
        ctx = _Ctx(g, {})
        for _, _, fam in ctx.of(_valid_families, 5, 2):
            ctx.certified(fam)
        keys.update(verdicts(ctx.certificates))
    for (shapes, rows), result in keys.items():
        assert product_cycle_check(shapes, rows) == result
    assert len(keys) > 7000 and sum(len(shapes) == 1 for shapes, _ in keys) > 100


def test_a_flipped_sign_in_one_block_cycle_refuses_every_key_of_its_shape(monkeypatch):
    original = lyubeznik.bipartite_cycle

    def flipped(m, n):
        ideal, cycle = original(m, n)
        if (m, n) == (2, 2):
            terms = dict(cycle.terms)
            sym = next(t for t in terms if t != cycle.leading)
            terms[sym] = -terms[sym]
            cycle = Cycle(terms, cycle.leading)
        return ideal, cycle

    before = {key: _block_order_certificate(*key, {}) for key in block_order_corpus()}
    monkeypatch.setattr(lyubeznik, "bipartite_cycle", flipped)
    warm: dict = {}
    refused = 0
    for (shapes, rows), verdict in before.items():
        expected = None if (2, 2) in shapes else verdict
        assert _block_order_certificate(shapes, rows, {}) == expected
        assert _block_order_certificate(shapes, rows, warm) == expected
        refused += verdict is not None and expected is None
    assert refused > 20 and warm[2, 2] is None and warm[2, 1] is not None


def certificate_key(g, fam):
    """The certificate memo key of one family."""
    memo = {}
    main_theorem_certificate(g, fam, memo)
    (key,) = verdicts(memo)
    return key


# a single edge, and K_{2,2} on a diamond (a 4-cycle 0-1-2-3 with chord 1-3),
# whose sigma also carries the stars centred on 1 and on 3
EDGE_KEY = certificate_key(path_graph(2), DisjointFamily([CompleteBipartiteSub(1, 2)], [(0, 1)]))
DIAMOND_KEY = certificate_key(
    SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]),
    DisjointFamily([CompleteBipartiteSub(0b0101, 0b1010)], [(0, 1)]),
)


@pytest.mark.parametrize(
    "spec",
    [{"class": "all", "max_n": 5}, {"class": "unmixed_blowups", "max_elements": 2, "max_zeta": 2, "max_vertices": 6}],
)
@pytest.mark.parametrize("failing", [EDGE_KEY, DIAMOND_KEY])
def test_shared_verdicts_report_a_failing_certificate_as_each_family_does(monkeypatch, spec, failing):
    original = lyubeznik._block_order_certificate
    monkeypatch.setattr(
        lyubeznik,
        "_block_order_certificate",
        lambda shapes, rows, memo: None if (shapes, rows) == failing else original(shapes, rows, memo),
    )
    tags = ["T1.1", "T2.5", "T7.1"]

    def certificate_rows():
        report = run_campaign(Campaign("verdicts", spec, ["gf2"], tags), workers=1)
        return rows_by_key(report), {
            tag: sum(v["check"] == "certificate" for r in report.results if r["assertion"] == tag for v in r["violations"])
            for tag in tags
        }

    shared, failures = certificate_rows()
    monkeypatch.setattr(_Ctx, "certified", lambda self, fam: _certified(self.g, fam, self.certificates))
    assert certificate_rows() == (shared, failures)
    if failing == EDGE_KEY:
        assert all(failures.values()), failures
    elif spec["class"] == "all":
        assert failures["T1.1"], failures


def test_duality_tags_on_shared_tables_match_fresh_verification():
    graphs = dict(generate_catalog({"class": "all", "max_n": 5}))
    fields = ["gf2", "gf3"]
    c = Campaign("duality", {"class": "all", "max_n": 5}, fields, ["T6.1", "T6.2"])
    rows = {(r["graph"], r["field"], r["assertion"]): r for r in run_campaign(c, workers=1).results}
    assert len(rows) == len(graphs) * len(fields) * 2
    for gid, g in graphs.items():
        ctx = _Ctx(g, {})
        for fname in fields:
            field = FieldSpec.parse(fname)
            if g.edge_count() == 0:
                assert rows[(gid, fname, "T6.1")]["status"] == rows[(gid, fname, "T6.2")]["status"] == "ok"
                continue
            quotient = graph_betti_table(g, field)
            cover = cover_betti_table(g, quotient)
            # the shared tables are the fresh ones
            for shared, fresh in ((ctx.table(field), quotient), (ctx.cover_table(field), cover)):
                assert (shared.subject, shared.field, shared.variables) == (fresh.subject, fresh.field, fresh.variables)
                assert list(shared.entries.items()) == list(fresh.entries.items())
            bcp = all(
                cover.entry(r, sigma) == quotient.entry(sigma.bit_count() - r, sigma) for r, sigma in cover.extremal()
            )
            eagon_reiner = (cover.reg(), cover.pd()) == (quotient.pd(), quotient.reg())
            for tag, holds in (("T6.1", bcp), ("T6.2", eagon_reiner)):
                assert rows[(gid, fname, tag)]["status"] == ("ok" if holds else "violation")


def test_duality_violation_rows_name_what_differs(monkeypatch):
    spec = {"graphs": {"class": "named", "names": ["cycle_4"]}, "fields": ["gf2"], "assertions": ["T6.1", "T6.2"]}
    [(_, g)] = generate_catalog(spec["graphs"])
    quotient = graph_betti_table(g, FieldSpec.parse("gf2"))
    cover = cover_betti_table(g, quotient)
    shared = _Ctx.cover_table

    def violations(extra):
        """Rows by tag when every cover table has ``extra`` added to its entries."""

        def patched(self, field):
            table = shared(self, field)
            entries = dict(table.entries)
            for key, v in extra.items():
                entries[key] = entries.get(key, 0) + v
            return BettiTable(table.subject, table.field, table.variables, entries)

        monkeypatch.setattr(_Ctx, "cover_table", patched)
        rows = run_campaign(Campaign.from_json(spec), workers=1).results
        return {row["assertion"]: row["violations"] for row in rows}

    # one extremal entry bumped: pd and reg stay, one T6.1 entry differs
    r, sigma = max(cover.extremal())
    assert violations({(r, sigma): 1}) == {
        "T6.1": [
            {
                "check": "extremal-duality",
                "r": r,
                "sigma": g.label_set(sigma),
                "dual": cover.entry(r, sigma) + 1,
                "quotient": quotient.entry(sigma.bit_count() - r, sigma),
            }
        ],
        "T6.2": [],
    }
    # an entry past pd(dual) on the full set: a new extremal entry, and
    # pd(dual) no longer equals reg(quotient) while reg(dual) stays
    full = (1 << g.n) - 1
    past = cover.pd() + 1
    assert g.n - past < cover.reg()
    assert violations({(past, full): 1}) == {
        "T6.1": [
            {
                "check": "extremal-duality",
                "r": past,
                "sigma": g.label_set(full),
                "dual": 1,
                "quotient": quotient.entry(g.n - past, full),
            }
        ],
        "T6.2": [
            {"check": "dual-pd-reg-swap", "lhs": "pd(dual)", "left": past, "rhs": "reg(quotient)", "right": quotient.reg()}
        ],
    }


def test_valid_families_are_the_valid_disjoint_families():
    checked = 0
    for _, g in generate_catalog({"class": "all", "max_n": 6}):
        for max_vertices, max_r in ((3, 3), (5, 2), (6, 1)):
            blocks = all_blocks(g, max_vertices=max_vertices)
            got = _valid_families(g, max_vertices, max_r)
            want = [fam for fam in disjoint_families(blocks, max_r) if is_valid_family(g, DisjointFamily(fam))]
            assert [fam.blocks for _, _, fam in got] == want
            for i, sigma, fam in got:
                assert (i, sigma) == (fam.value, fam.sigma)
                # the representatives found along the way are themselves valid
                assert valid_representatives(g, fam) == fam.representatives
            checked += len(got)
    assert checked > 1000


def test_star_walk_on_sigma_matches_the_induced_subgraph():
    # T2.4 reads r off bouquet_family(G, sigma) in place of G[sigma]'s own walk
    for g in graphs_on(5):
        for sigma in range(1, 1 << g.n):
            h = g.induced_subgraph(sigma)
            fam, sub = bouquet_family(g, sigma), bouquet_family(h, h.vertex_mask())
            assert (fam is None) == (sub is None)
            if fam is not None:
                assert fam.sigma == sigma and fam.r == sub.r


def rows_by_key(report):
    return {(r["graph"], r["field"], r["assertion"]): r for r in report.to_json()["results"]}


def test_field_free_results_belong_to_one_graph():
    spec = {"class": "all", "max_n": 4}
    fields, tags = ["gf2", "gf3"], sorted(EXPECTED_TAGS)
    report = run_campaign(Campaign("all", spec, fields, tags), workers=1)
    assert report.ok
    together = rows_by_key(report)
    assert len(together) == (1 + 2 + 4 + 11) * 2 * 16
    # a fresh context per graph, as a campaign of that graph alone would have
    for gid, g in generate_catalog(spec):
        ctx = _Ctx(g, {})
        for fname in fields:
            field = FieldSpec.parse(fname)
            for tag in tags:
                got = REGISTRY[tag](g, field, {}, ctx)
                row = together[(gid, fname, tag)]
                assert row["violations"] == (got or [])
                assert row["status"] == ("skipped" if got is None else ("ok" if not got else "violation"))


def test_field_free_work_runs_once_per_graph(monkeypatch):
    calls = {"bouquet_family": 0, "witness_for": 0, "main_theorem_certificate": 0, "_witness": 0}

    def counted(name):
        original = getattr(campaigns, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(campaigns, name, wrapper)

    for name in calls:
        counted(name)
    def run(fields, names, tags):
        for name in calls:
            calls[name] = 0
        c = Campaign("once", {"class": "named", "names": names}, fields, tags)
        report = run_campaign(c, workers=1)
        assert report.ok and len(report.results) == len(fields) * len(names) * len(tags)
        return dict(calls)

    k23 = (["complete_bipartite_2_3"], ["T1.1", "T2.4", "T2.5", "C5.2"])
    three = run(["gf2", "gf3", "rat"], *k23)
    # one walk over the 31 nonempty subsets serves T2.4 and T2.5 on all fields
    assert three["bouquet_family"] == 31
    assert three["witness_for"] > 0 and three["main_theorem_certificate"] > 0
    assert three == run(["gf2"], *k23)
    # P7.2 and T7.1 read one lifted witness per unmixed graph
    unmixed = (["cycle_4", "path_4", "complete_bipartite_3_3"], ["P7.2", "T7.1"])
    three = run(["gf2", "gf3", "rat"], *unmixed)
    assert three["_witness"] == 3 and three["main_theorem_certificate"] > 0
    assert three == run(["gf2"], *unmixed)


def spy_contexts(monkeypatch):
    """(graph, certificate memo) of every context a campaign builds, in order."""
    seen = []
    original = _Ctx.__init__

    def spy(self, g, certificates):
        seen.append((g, certificates))
        original(self, g, certificates)

    monkeypatch.setattr(_Ctx, "__init__", spy)
    return seen


def test_one_certificate_memo_per_run(monkeypatch):
    seen = spy_contexts(monkeypatch)
    c = small_campaign(assertions=["T1.1", "T2.5"])
    first = run_campaign(c, workers=1)
    memo = seen[0][1]
    assert len(seen) == 10 and all(m is memo for _, m in seen) and memo
    seen.clear()
    second = run_campaign(c, workers=1)
    assert seen[0][1] is not memo and all(m is seen[0][1] for _, m in seen)
    assert first.to_json() == second.to_json()


@pytest.mark.parametrize("workers", [2, 3])
def test_each_share_runs_its_graphs_with_one_memo(monkeypatch, workers):
    # threads in place of processes, so the spy sees the contexts of every share;
    # run_campaign looks the pool class up in concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
    seen = spy_contexts(monkeypatch)
    c = small_campaign(assertions=["T1.1", "T2.5"])
    serial = run_campaign(c, workers=1).to_json()
    seen.clear()
    shared = run_campaign(c, workers=workers).to_json()
    edges = lambda graphs: sorted((g.n, g.edges()) for g in graphs)
    catalog = [g for _, g in generate_catalog(c.graphs)]
    assert len(catalog) == 10
    assert edges(g for g, _ in seen) == edges(catalog)
    memos = {id(m): m for _, m in seen}
    assert len(memos) == workers and all(memos.values())
    assert shared == serial


def test_more_workers_than_graphs():
    c = small_campaign(graphs={"class": "named", "names": ["path_3", "cycle_4"]})
    serial = run_campaign(c, workers=1).to_json()
    assert len(serial["results"]) == 2 * 4
    assert run_campaign(c, workers=4).to_json() == serial


def test_campaign_searches_leave_no_reference_cycles():
    # a recursive nested closure refers to itself, so each call of a search
    # written with one leaves a reference cycle for the collector; no function
    # of the package may be among what it finds, whatever the catalog class
    specs = (
        {"class": "all", "max_n": 4},
        {"class": "unmixed_blowups", "max_elements": 2, "max_zeta": 2, "max_vertices": 6},
        {"class": "ferrers", "max_rows": 3, "max_cols": 3},
        {"class": "cm_posets", "max_elements": 3},
    )
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        # regenerate the catalogs so that their dedup runs under the collector
        catalog.graphs_on.cache_clear()
        catalog.posets_on.cache_clear()
        reports = [
            run_campaign(
                Campaign.from_json({
                    "name": spec["class"],
                    "graphs": spec,
                    "fields": ["gf2"],
                    "assertions": sorted(EXPECTED_TAGS),
                }),
                workers=1,
            )
            for spec in specs
        ]
        # campaigns ask witness_for for one block only; two disjoint edges
        # take its search over several blocks
        two_edges = SimpleGraph(4, [(0, 1), (2, 3)])
        assert witness_for(two_edges, 2, 0b1111) is not None
        gc.collect()
        leaked = sorted({
            f"{obj.__module__}.{obj.__qualname__}"
            for obj in gc.garbage
            if isinstance(obj, FunctionType) and (obj.__module__ or "").split(".")[0] == "edgeideals"
        })
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert all(report.ok and report.summary()["ok"] for report in reports)
    assert leaked == []


@pytest.mark.parametrize(
    "field, value",
    [
        ("graphs", 5),
        ("graphs", "all"),
        ("assertions", "T1.1"),
        ("assertions", [1]),
        ("fields", "gf2"),
        ("fields", [2]),
        ("caps", [1]),
        ("caps", {"family_size": 0}),
        ("caps", {"family_size": -1}),
        ("caps", {"max_n": 0}),
        ("caps", {"max_n": 7.5}),
        ("caps", {"max_n": True}),
        ("caps", {"block_vertices": "x"}),
        ("caps", {"block_vertices": 1}),
        ("seed", [1]),
        # an empty list would check nothing and pass
        ("fields", []),
        ("assertions", []),
        # a seed is an int, not a float, a bool or a string
        ("seed", 1.9),
        ("seed", True),
        ("seed", "3"),
    ],
)
def test_malformed_campaign_fields_raise_value_error(field, value):
    obj = {"graphs": {"class": "named", "names": ["path_3"]}, "assertions": ["T1.1"], field: value}
    with pytest.raises(ValueError):
        Campaign.from_json(obj)


def test_missing_campaign_fields_raise_value_error():
    with pytest.raises(ValueError, match="needs 'graphs'"):
        Campaign.from_json({"assertions": ["T1.1"]})
    with pytest.raises(ValueError, match="needs 'assertions'"):
        Campaign.from_json({"graphs": {"class": "all", "n": 2}})


def test_over_cap_catalogs_are_rejected_before_generation(monkeypatch):
    original = catalog.graphs_on

    def guarded(n):
        if n > 7:
            raise AssertionError(f"generated graphs on {n} vertices")
        return original(n)

    def refuse(*args):
        raise AssertionError("generated an over-cap catalog")

    monkeypatch.setattr(catalog, "graphs_on", guarded)
    monkeypatch.setattr(catalog, "cm_poset_graphs", refuse)
    monkeypatch.setattr(catalog, "ferrers_graphs", refuse)
    for spec, caps in (
        ({"class": "all", "n": 8}, {}),
        ({"class": "connected", "max_n": 9}, {}),
        ({"class": "chordal", "n": 8}, {"max_n": 7}),
        ({"class": "cochordal", "max_n": 5}, {"max_n": 4}),
        ({"class": "cm_posets", "max_elements": 4}, {}),  # 8 vertices
        ({"class": "cm_posets", "max_elements": 5}, {"max_n": 9}),
        ({"class": "ferrers", "max_rows": 4, "max_cols": 4}, {}),  # K_{4,4}
        ({"class": "ferrers", "max_rows": 2, "max_cols": 3}, {"max_n": 4}),
    ):
        c = Campaign("big", spec, ["gf2"], ["T2.2"], caps=caps)
        with pytest.raises(ValueError, match="vertex cap"):
            run_campaign(c, workers=1)
    # within the cap the same classes still run
    assert run_campaign(Campaign("ok", {"class": "cochordal", "max_n": 3}, ["gf2"], ["T2.2"])).ok


def test_over_cap_blowups_are_rejected_before_posets_are_built(monkeypatch):
    def refuse(k):
        raise AssertionError(f"built the posets on {k} elements")

    monkeypatch.setattr(catalog, "posets_on", refuse)
    for spec, caps in (
        ({"class": "unmixed_blowups", "max_elements": 6, "max_vertices": 12}, {}),
        ({"class": "unmixed_blowups", "max_elements": 2, "max_zeta": 2, "max_vertices": 12}, {"max_n": 6}),
        ({"class": "unmixed_blowups"}, {}),
    ):
        c = Campaign("big", spec, ["gf2"], ["T2.2"], caps=caps)
        with pytest.raises(ValueError, match="vertex cap"):
            run_campaign(c, workers=1)


def test_readme_smoke_campaign_is_the_checked_in_file():
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    checked_in = json.loads((root / "tests" / "data" / "smoke_campaign.json").read_text(encoding="utf-8"))
    assert json.loads(block) == checked_in
    Campaign.from_json(checked_in)


def test_n8_slice_campaign_runs_every_tag_with_no_violation(monkeypatch):
    # every 1,000th graph of graphs_on(8), named by paths from the repository root
    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)
    campaign = Campaign.load("tests/data/n8_slice_campaign.json")
    assert set(campaign.assertions) == EXPECTED_TAGS and len(campaign.graphs["files"]) == 13
    report = run_campaign(campaign, workers=1)
    assert report.summary() == {"ok": 99, "violation": 0, "skipped": 109}


# sha256 of json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n" for
# each checked-in campaign at one worker: a change meant to keep reports
# byte-identical must leave these as they are
REPORT_DIGESTS = {
    "smoke": "3205f830499bbf3f794bd3d87b922ea662127e27b821f99ef8f280dbe9166860",
    "n8_slice": "a1b1b36fba30a2361577cc947c8b9541cf6b1793af6b16e4ea1e93ed9349b09c",
    "unmixed_blowups": "e73caf7be70ee74d7aed1c5977f5d579b6499084faefa4d6d3babba41ad74e16",
    "ferrers": "27f952f44b3fbab77bdb780d28cba15a8c258bccbf12f411f6cf0e3acbcb09b2",
    "cm_posets": "dfb7dfb807a2b5f1d7c4d75a5c256d56b528a173143fd276aeb089bf1059745b",
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_checked_in_campaign_reports_keep_their_bytes(monkeypatch, name):
    # the n = 8 slice names its graph files by paths from the repository root
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    report = run_campaign(Campaign.load(f"tests/data/{name}_campaign.json"), workers=1)
    text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_DIGESTS[name]


@pytest.mark.parametrize(
    "spec",
    [
        {"class": "named", "names": []},
        {"class": "files", "files": []},
        {"class": "ferrers", "max_rows": 0},
        {"class": "cm_posets", "max_elements": 0},
        {"class": "all", "max_n": 0},
    ],
)
def test_a_catalog_with_no_graph_is_refused(spec):
    # generate_catalog may return no graph, but a campaign over it would check nothing and pass
    assert generate_catalog(spec) == []
    with pytest.raises(ValueError, match="^the campaign's catalog holds no graph") as exc:
        run_campaign(Campaign("empty", spec, ["gf2"], ["T2.2"]), workers=1)
    assert "\n" not in str(exc.value)


def test_a_field_named_twice_is_refused():
    # "GF2" parses to the same field as "gf2", so its rows would repeat
    with pytest.raises(ValueError, match="^campaign 'fields' names gf2 twice: 'gf2' and 'GF2'$"):
        small_campaign(fields=["gf2", "GF2", "gf2"])
    with pytest.raises(ValueError, match="names rat twice"):
        small_campaign(fields=["rat", "gf3", "q"])
    assert small_campaign(fields=["gf2", "gf3", "rat"]).fields == ["gf2", "gf3", "rat"]


def test_a_repeated_tag_is_refused():
    with pytest.raises(ValueError, match=r"^campaign 'assertions' repeat tags: \['T2\.2'\]$"):
        small_campaign(assertions=["T2.2", "P5.1", "T2.2"])
    with pytest.raises(ValueError, match=r"repeat tags: \['P5\.1', 'T2\.2'\]"):
        small_campaign(assertions=["T2.2", "P5.1", "T2.2", "P5.1"])
