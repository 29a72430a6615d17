"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _plain(ops):
    return [(op.name, op.kind, op.graph, op.field, op.spec) for op in ops]


def _op(name, kind, graph=None, field=None, spec=None):
    return workloads.Op(name, kind, graph, field, spec)


C5 = (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K23 = (5, [(u, v) for u in range(2) for v in range(2, 5)])
P4 = (4, [(0, 1), (1, 2), (2, 3)])
SMALL = [
    _op("C5/gf2", "betti", C5, "gf2"),
    _op("K2,3/rat", "betti", K23, "rat"),
    _op("P4/gf3", "betti", P4, "gf3"),
    _op("C5/lyu", "lyubeznik", C5, "rat"),
    _op("K2,3/lyu", "lyubeznik", K23, "gf2"),
    _op("all/4", "campaign", spec={"class": "all", "n": 4}),
]


def _inputs(op):
    from edgeideals.graphs import SimpleGraph
    from edgeideals.linalg import FieldSpec

    if op.kind == "campaign":
        return run.prepare_campaign(op.spec)
    return SimpleGraph(*op.graph), FieldSpec.parse(op.field)


def test_gnp_follows_the_roadmap_definition():
    n, p, s = 9, 0.45, 1234
    rng = random.Random(s)
    want = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                want.append((u, v))
    assert workloads.gnp_edges(n, p, s) == want
    assert workloads.gnp_edges(n, p, s + 1) != want


def test_same_seed_same_inputs_other_seed_other_graphs():
    for w in workloads.WORKLOADS:
        assert _plain(workloads.build(w, 5)) == _plain(workloads.build(w, 5))
    for w in ("betti-dense-gf2", "betti-sparse-exact", "lyubeznik-tables"):
        a = [op.graph for op in workloads.build(w, 5) if op.name.startswith("G(")]
        b = [op.graph for op in workloads.build(w, 6) if op.name.startswith("G(")]
        assert a and a != b


def test_stored_seeds_are_fully_covered():
    expected = checks.load_expected()
    for w in ("betti-dense-gf2", "betti-sparse-exact", "lyubeznik-tables"):
        for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED):
            for op in workloads.build(w, seed):
                assert op.field in expected["graphs"][checks.graph_key(op.graph)]
    for spec in workloads.campaign_specs():
        assert checks.campaign_key(spec) in expected["campaigns"]


def test_euler_and_independence_oracle_on_known_tables():
    from edgeideals import graph_betti_table
    from edgeideals.graphs import SimpleGraph
    from edgeideals.linalg import RATIONALS

    for graph in (C5, K23, P4, (6, workloads.gnp_edges(6, 0.5, 3))):
        entries = graph_betti_table(SimpleGraph(*graph), RATIONALS).entries
        assert checks.Oracle(graph, None).check_table(entries, "rat") == []
    # I(C_5; x) = 1 + 5x + 5x^2, I(P_4; x) = 1 + 4x + 3x^2
    assert checks.independence_at_minus_one(C5)[31] == 1
    assert checks.independence_at_minus_one(P4)[15] == 0
    assert checks.complement_components(P4)[15] == 1
    assert checks.complement_components(K23)[31] == 2
    # sum over a+b = i+1 of C(2,a) C(3,b)
    assert checks.kmn_linear_strand(2, 3) == {1: 6, 2: 9, 3: 5, 4: 1}


def test_reference_table_equals_engine_tables():
    from edgeideals import graph_betti_table
    from edgeideals.graphs import SimpleGraph
    from edgeideals.linalg import FieldSpec

    for graph in (C5, K23, P4, (7, workloads.gnp_edges(7, 0.4, 11))):
        for field in ("gf2", "gf3", "rat"):
            entries = graph_betti_table(SimpleGraph(*graph), FieldSpec.parse(field)).entries
            assert checks.hochster_table(graph, field) == entries


def test_corruption_that_cancels_in_euler_is_caught_without_stored_values():
    from edgeideals import graph_betti_table
    from edgeideals.graphs import SimpleGraph
    from edgeideals.linalg import RATIONALS

    graph = (7, workloads.gnp_edges(7, 0.4, 11))
    assert checks.graph_key(graph) not in checks.load_expected()["graphs"]
    entries = dict(graph_betti_table(SimpleGraph(*graph), RATIONALS).entries)
    # +1 at beta_{1,sigma} and beta_{2,sigma}: cancels in the Euler sum, off the top strand
    sigma = (1 << graph[0]) - 1
    for i in (1, 2):
        entries[(i, sigma)] = entries.get((i, sigma), 0) + 1
    errors = checks.Oracle(graph, None).check_table(entries, "rat")
    assert errors == ["table differs from the one computed by Hochster's formula here"]


def test_corrupted_table_fails_euler_and_counts_as_failed(monkeypatch):
    ops = [_op("C5/gf2", "betti", C5, "gf2"), _op("P4/rat", "betti", P4, "rat")]
    items = [(op, _inputs(op)) for op in ops]
    real_execute = run.execute

    def corrupting(op, inp):
        out = real_execute(op, inp)
        if op.name == "C5/gf2":
            key = next(k for k in sorted(out.entries) if k[0] == 2)
            out.entries[key] += 1
        return out

    monkeypatch.setattr(run, "execute", corrupting)
    monkeypatch.setattr(run, "prepare", lambda w, s: items)
    monkeypatch.setattr(run, "measure_setup", lambda w, s: (1.0, run.REF_S))
    checker = run.Checker(checks.load_expected())
    metrics, attempted, failed, _ = run.measure("betti-dense-gf2", 1, 0, checker)
    # the corrupted operation fails in every pass
    assert (attempted, failed) == (2 * run.MIN_PASSES, run.MIN_PASSES)
    assert any("Euler identity fails" in e for e in checker.errors)
    assert all(e.startswith("C5/gf2") for e in checker.errors)


def test_output_differing_between_passes_fails():
    op = SMALL[0]
    checker = run.Checker(checks.load_expected())
    out = run.execute(op, _inputs(op))
    fp = run.fingerprint(op, out)
    assert checker.check(0, op, fp)
    changed = tuple((k, v + 1 if k == (0, 0) else v) for k, v in fp)
    assert not checker.check(0, op, changed)


def test_wrappers_leave_every_result_unchanged():
    from edgeideals import hochster, ideals, linalg

    originals = (linalg.rank_over, hochster.rank_over, hochster.betti_table, ideals.Monomial.__dict__["divides"])
    items = [(op, _inputs(op)) for op in SMALL]
    plain = []
    for op, inp in items:
        run.before(op)
        plain.append(run.fingerprint(op, run.execute(op, inp)))
    tr = tracer.Tracer()
    tr.install()
    try:
        assert hochster.rank_over is not originals[1]
        traced = []
        for idx, (op, inp) in enumerate(items):
            run.before(op)
            traced.append(run.fingerprint(op, tr.op(idx, op.name, lambda: run.execute(op, inp))))
    finally:
        tr.uninstall()
    assert traced == plain
    assert originals == (linalg.rank_over, hochster.rank_over, hochster.betti_table, ideals.Monomial.__dict__["divides"])
    names = {s[0] for s in tr.spans}
    assert {"op", "linalg.rank", "hochster.table", "lyubeznik.table", "lyubeznik.certificate", "campaigns.run"} <= names
    for name, start, end, parent, op_id in tr.spans:
        assert start <= end
        if parent >= 0:
            p = tr.spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == op_id
        else:
            assert name == "op"
    assert tr.counts["ideals.divides"] > 0 and tr.counts["lyubeznik.admissible_checks"] > 0


def test_admissible_checks_count_only_inside_symbol_enumeration():
    from edgeideals import ideals, lyubeznik
    from edgeideals.graphs import SimpleGraph

    ideal = ideals.edge_ideal(SimpleGraph(*C5))
    tr = tracer.Tracer()
    tr.install()
    try:
        symbols = tr.op(0, "symbols", lambda: lyubeznik.admissible_symbols(ideal))
        checks_in_table = tr.counts["lyubeznik.admissible_checks"]
        tr.op(1, "direct", lambda: lyubeznik.is_admissible(ideal, symbols[0]))
    finally:
        tr.uninstall()
    assert tr.counts["lyubeznik.symbols"] == len(symbols) <= checks_in_table
    assert tr.counts["lyubeznik.admissible_checks"] == checks_in_table
    assert tr.counts["lyubeznik.certificate_checks"] == 1


def test_self_time_subtracts_direct_children():
    tr = tracer.Tracer()
    tr.spans[:] = [
        ["op", 0.0, 10.0, -1, 0],
        ["hochster.table", 1.0, 9.0, 0, 0],
        ["linalg.rank", 2.0, 3.0, 1, 0],
        ["linalg.rank", 4.0, 6.0, 1, 0],
    ]
    selfs = tr.self_times()
    assert selfs["op"] == 2.0
    assert selfs["hochster.table"] == 5.0
    assert selfs["linalg.rank"] == 3.0


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "betti-dense-gf2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
