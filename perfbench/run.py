"""Benchmark runner for edgeideals.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ./src.  One
client runs one operation at a time (a closed loop) in this process, with
``workers=1`` for campaigns.

``--trace 0`` repeats the workload's fixed operation list until ``--seconds``
have passed and reports the end-to-end metrics: wall_s (median time of one
pass over the list), op_s_p50 / op_s_p90 (percentiles over every timed
operation of the run, all passes together), setup_s (median of several fresh
interpreters that import edgeideals and build the inputs), peak_rss_mb.
Times are scaled to a reference CPU speed (see REF_S), so they are reference
seconds (unit ``ref_s``; setup_s is scaled the same way but keeps the unit
``s`` that the benchmark format fixes for it).  The program's own seconds
(raw_wall_s, raw_setup_s) are printed on the first line of the output.
``--trace 1`` runs one pass in which every operation runs untraced and then
traced, reports the per-layer metrics (raw times) and writes every span to
perfbench/out/.  Every output is checked outside the timed regions (see
checks.py); an output that raises, fails a check, or differs between passes
counts as a failed operation.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every output
is correct; it is 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# With 25 operations a pass, four passes put at least ten samples beyond op_s_p90.
MIN_PASSES = 4
# Nominal time of reference_kernel().  Every end-to-end time is scaled by
# REF_S / (median of the reference times measured just around it), so it
# reads as seconds on a machine where the kernel takes REF_S.
# On a shared 2-core host whose speed drifted by up to 15% between 5-second
# windows, the scaled engine times drifted a half to a third as much.
REF_S = 0.002
CAMPAIGN_TAGS = (
    "T1.1", "T2.2", "T2.3", "T2.4", "T2.5", "P5.1", "C5.2", "C5.4",
    "T5.8", "T6.1", "T6.2", "P6.6", "C6.7", "C6.8", "P7.2", "T7.1",
)
END_TO_END = (
    ("wall_s", "ref_s"), ("op_s_p50", "ref_s"), ("op_s_p90", "ref_s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


# -- inputs and operations ---------------------------------------------------


def prepare(workload: str, seed: int):
    """Import edgeideals and build the program inputs: [(op, input)]."""
    from edgeideals.graphs import SimpleGraph
    from edgeideals.linalg import FieldSpec

    out = []
    for op in workloads.build(workload, seed):
        if op.kind == "campaign":
            inp = prepare_campaign(op.spec)
        else:
            n, edges = op.graph
            inp = (SimpleGraph(n, edges), FieldSpec.parse(op.field))
        out.append((op, inp))
    return out


def prepare_campaign(spec: dict):
    """A gf2 campaign over the catalog spec with every registered tag."""
    from edgeideals.campaigns import Campaign

    return Campaign(json.dumps(spec, sort_keys=True), spec, ["gf2"], list(CAMPAIGN_TAGS), caps={"max_n": 8})


def execute(op, inp):
    """Run one operation through the public API, looking each name up at call time."""
    from edgeideals import campaigns, hochster, ideals, lyubeznik, witness

    if op.kind == "betti":
        return hochster.graph_betti_table(*inp)
    if op.kind == "lyubeznik":
        g, field = inp
        table = lyubeznik.lyubeznik_betti_table(ideals.edge_ideal(g), field=field)
        wit = witness.max_pd_witness(g)
        cert = lyubeznik.main_theorem_certificate(g, wit.family)
        return table, wit, cert
    return campaigns.run_campaign(inp, workers=1, timing=True)


def before(op):
    """Untimed step before an operation: a campaign starts with cold catalog caches."""
    if op.kind == "campaign":
        from edgeideals import catalog

        catalog.graphs_on.cache_clear()
        catalog.posets_on.cache_clear()


def fingerprint(op, out):
    """Plain, comparable data for an operation's output."""
    if op.kind == "betti":
        return tuple(sorted(out.entries.items()))
    if op.kind == "lyubeznik":
        table, wit, cert = out
        return tuple(sorted(table.entries.items())), wit.value, wit.family.sigma, tuple(cert)
    rows = [{k: v for k, v in row.items() if k != "elapsed_ms"} for row in out.results]
    return json.dumps({"summary": out.summary(), "rows": rows}, sort_keys=True)


class Checker:
    """Checks each operation's first output; later outputs must equal it."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.seen: dict[int, tuple] = {}  # op index -> (first output, its verdict)
        self.errors: list[str] = []
        self.oracles: dict[str, checks.Oracle] = {}

    def prepare(self, items):
        """Build the oracles before any timing starts, with the full reference
        table of every graph and field that has no stored values."""
        for op, _ in items:
            if op.kind != "campaign":
                oracle = self.oracle(op.graph)
                if op.field not in oracle.expected:
                    oracle.full_table(op.field)

    def oracle(self, graph) -> checks.Oracle:
        key = checks.graph_key(graph)
        if key not in self.oracles:
            self.oracles[key] = checks.Oracle(graph, self.expected["graphs"].get(key))
        return self.oracles[key]

    def check(self, idx, op, fp) -> bool:
        if idx in self.seen:
            first, ok = self.seen[idx]
            if fp != first:
                return self._fail(op, ["output differs from the first pass"])
            return ok  # the same output gets the same verdict
        ok = self._fail(op, self.first_errors(op, fp))
        self.seen[idx] = (fp, ok)
        return ok

    def first_errors(self, op, fp) -> list[str]:
        if op.kind == "campaign":
            summary = json.loads(fp)["summary"]
            return checks.check_campaign(summary, self.expected["campaigns"].get(checks.campaign_key(op.spec)))
        oracle = self.oracle(op.graph)
        errors = oracle.check_table(dict(fp if op.kind == "betti" else fp[0]), op.field)
        if op.kind == "lyubeznik":
            entries, value, sigma, cert = fp
            errors += oracle.check_certificate(dict(entries), value, sigma, cert)
        return errors

    def _fail(self, op, errors) -> bool:
        self.errors += [f"{op.name}: {e}" for e in errors]
        return not errors


def run_op(idx, op, inp, checker, run=None):
    """(seconds, ok, output) for one operation; checking is not timed.

    `run(idx, name, fn)`, when given, calls fn on the benchmark's behalf (the tracer does).
    """
    before(op)
    call = (lambda: execute(op, inp)) if run is None else (lambda: run(idx, op.name, lambda: execute(op, inp)))
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # a raising operation is a failed operation, not a crash
        checker.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, False, None
    dt = time.perf_counter() - t0
    return dt, checker.check(idx, op, fingerprint(op, out)), out


# -- measurement ---------------------------------------------------------------


REF_GRAPHS = ((12, workloads.gnp_edges(12, 0.3, 5)), (10, workloads.gnp_edges(10, 0.3, 5)))


def reference_kernel():
    """Fixed pure-Python work that gauges CPU speed: the benchmark's own oracles on fixed graphs.

    It runs no edgeideals code, so a change to the package cannot move it.  Of
    the loops tried (bit operations, dicts, tuples, big integers, these
    oracles), this one tracked the engines' speed most closely as the host's
    speed drifted.
    """
    checks.independence_at_minus_one(REF_GRAPHS[0])
    checks.complement_components(REF_GRAPHS[1])


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time of fresh interpreters that import edgeideals and build the inputs,
    and the median reference-kernel time measured between them."""
    code = (
        f"import sys; sys.path[:0] = {[BENCH_DIR, SRC]!r}; "
        f"import run; run.prepare({workload!r}, {seed})"
    )
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, check=True, cwd=ROOT)  # writes bytecode caches; not timed
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs.append(time_reference())
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        refs.append(time_reference())
    return statistics.median(times), statistics.median(refs)


def measure(workload: str, seed: int, seconds: float, checker: Checker):
    """End-to-end metrics, in reference seconds (see REF_S)."""
    setup_raw, setup_ref = measure_setup(workload, seed)
    items = prepare(workload, seed)
    checker.prepare(items)
    op_s, passes, raw_passes, all_refs, attempted, failed = [], [], [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        times, refs = [], []
        for idx, (op, inp) in enumerate(items):
            refs.append(time_reference())
            dt, ok, _ = run_op(idx, op, inp, checker)
            times.append(dt)
            attempted += 1
            failed += not ok
        refs.append(time_reference())
        all_refs += refs
        # each operation is scaled by the median of the reference times around it
        scaled = [t * REF_S / statistics.median(refs[max(0, i - 1) : i + 2]) for i, t in enumerate(times)]
        op_s += scaled
        passes.append(sum(scaled))
        raw_passes.append(sum(times))
    p90 = statistics.quantiles(op_s, n=10, method="inclusive")[8] if len(op_s) > 1 else op_s[0]
    metrics = {
        "wall_s": statistics.median(passes),
        "op_s_p50": statistics.median(op_s),
        "op_s_p90": p90,
        "setup_s": setup_raw * REF_S / setup_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "passes": len(passes),
        "samples": attempted,
        "ops_per_pass": len(items),
        "raw_wall_s": round(statistics.median(raw_passes), 4),
        "raw_setup_s": round(setup_raw, 4),
        "speed": round(REF_S / statistics.median(all_refs), 3),
    }
    return {k: (metrics[k], unit) for k, unit in END_TO_END}, attempted, failed, info


def measure_traced(workload: str, seed: int, checker: Checker):
    """One pass in which each operation runs untraced and then traced."""
    from tracer import Tracer

    items = prepare(workload, seed)
    checker.prepare(items)
    tracer = Tracer()
    attempted = failed = 0
    untraced_s = traced_s = 0.0
    reports = []
    for idx, (op, inp) in enumerate(items):
        dt, ok, _ = run_op(idx, op, inp, checker)
        untraced_s += dt
        tracer.install()
        try:
            dt_traced, ok_traced, out = run_op(idx, op, inp, checker, run=tracer.op)
        finally:
            tracer.uninstall()
        if op.kind == "campaign" and ok_traced:
            reports.append(out)
        traced_s += dt_traced
        attempted += 2
        failed += (not ok) + (not ok_traced)
    metrics = layer_metrics(tracer, reports, traced_s, untraced_s)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}.trace.json")
    tracer.write(path, {"workload": workload, "seed": seed, "ops": [op.name for op, _ in items], "metrics": metrics})
    return metrics, attempted, failed, {"trace_file": os.path.relpath(path, ROOT), "spans": len(tracer.spans)}


def layer_metrics(tracer, reports, traced_s, untraced_s) -> dict:
    c = tracer.counts
    totals = tracer.span_totals()
    selfs = tracer.self_times()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    tables = calls("hochster.table")
    tag_s = dict.fromkeys(CAMPAIGN_TAGS, 0.0)
    rows = 0
    for report in reports:
        for row in report.results:
            tag_s[row["assertion"]] += row["elapsed_ms"] / 1000
            rows += 1
    m = {
        "linalg.rank_calls": (calls("linalg.rank"), "count"),
        "linalg.rank_s": (secs("linalg.rank"), "s"),
        "linalg.rank_cells": (c["linalg.rank_cells"], "count"),
        "linalg.rank_share": (ratio(secs("linalg.rank"), traced_s), "fraction"),
        "hochster.tables": (tables, "count"),
        "hochster.table_s": (secs("hochster.table"), "s"),
        "hochster.self_s": (selfs.get("hochster.table", 0.0), "s"),
        "hochster.subsets": (c["hochster.subsets"], "count"),
        "hochster.entries": (c["hochster.entries"], "count"),
        "ideals.monomials": (c["ideals.monomials"], "count"),
        "ideals.divides": (c["ideals.divides"], "count"),
        "ideals.lcm": (c["ideals.lcm"], "count"),
        "ideals.ideal_inits": (c["ideals.ideal_inits"], "count"),
        "ideals.ideal_init_s": (c["ideals.ideal_init_s"], "s"),
        "lyubeznik.tables": (calls("lyubeznik.table"), "count"),
        "lyubeznik.table_s": (secs("lyubeznik.table"), "s"),
        "lyubeznik.symbols": (c["lyubeznik.symbols"], "count"),
        "lyubeznik.admissible_checks": (c["lyubeznik.admissible_checks"], "count"),
        "lyubeznik.admissible_yield": (ratio(c["lyubeznik.symbols"], c["lyubeznik.admissible_checks"]), "fraction"),
        "lyubeznik.certificate_checks": (c["lyubeznik.certificate_checks"], "count"),
        "lyubeznik.certificates": (calls("lyubeznik.certificate"), "count"),
        "lyubeznik.certificate_s": (secs("lyubeznik.certificate"), "s"),
        "witness.searches": (calls("witness.search"), "count"),
        "witness.search_s": (secs("witness.search"), "s"),
        "witness.blocks": (c["witness.blocks"], "count"),
        "witness.rep_searches": (c["witness.rep_searches"], "count"),
        "witness.valid_checks": (c["witness.valid_checks"], "count"),
        "graphs.canonical_forms": (c["graphs.canonical_forms"], "count"),
        "graphs.canonical_form_s": (c["graphs.canonical_form_s"], "s"),
        "graphs.iso_tests": (c["graphs.iso_tests"], "count"),
        "catalog.generate_s": (secs("catalog.generate"), "s"),
        "catalog.graphs": (c["catalog.graphs"], "count"),
    }
    m.update({f"campaigns.tag_s.{tag}": (tag_s[tag], "s") for tag in CAMPAIGN_TAGS})
    m["campaigns.rows"] = (rows, "count")
    m["campaigns.table_reuse"] = (ratio(len(tracer.table_keys), tables), "fraction")
    m["trace.overhead_frac"] = (ratio(traced_s, untraced_s) - 1, "fraction")
    return m


# -- entry point -----------------------------------------------------------------


def report(workload, seed, metrics, attempted, failed, info, errors) -> dict:
    print(f"workload {workload} seed {seed} " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for e in errors[:20]:
        print(f"  FAILED {e}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        code = max(code, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "edgeideals", "__init__.py")):
        print(f"error: package sources not found at {SRC}/edgeideals; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    checker = Checker(checks.load_expected())
    if args.trace:
        metrics, attempted, failed, info = measure_traced(args.workload, args.seed, checker)
    else:
        metrics, attempted, failed, info = measure(args.workload, args.seed, args.seconds, checker)
    result = report(args.workload, args.seed, metrics, attempted, failed, info, checker.errors)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
