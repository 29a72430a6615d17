"""Record the stored expectations in expected.json.

    python3 perfbench/record.py

Covers every fixed graph, the random graphs of the default and held-out
seeds, and every campaign spec.  Each Hochster table must pass the
independent checks in checks.py, equal the table that checks.py computes by
Hochster's formula and, where the generator count allows, equal the
Lyubeznik table over the same field; Lyubeznik-workload graphs also get
their maximum witness value and a checked certificate.  Re-record only when
a workload's operation list changes, never to make a failing output pass.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# the admissible-symbol cap of the Lyubeznik engine
CROSS_CHECK_MAX_GENS = 24


def record_graphs() -> dict:
    from edgeideals import hochster, ideals, lyubeznik, witness
    from edgeideals.graphs import SimpleGraph
    from edgeideals.linalg import FieldSpec

    wanted: dict[str, dict] = {}
    for workload in ("betti-dense-gf2", "betti-sparse-exact", "lyubeznik-tables"):
        for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED):
            for op in workloads.build(workload, seed):
                slot = wanted.setdefault(checks.graph_key(op.graph), {"graph": op.graph, "fields": set(), "lyu": False})
                slot["fields"].add(op.field)
                slot["lyu"] |= op.kind == "lyubeznik"
    out = {}
    for key, slot in sorted(wanted.items()):
        graph = slot["graph"]
        g = SimpleGraph(*graph)
        oracle = checks.Oracle(graph, None)
        rec = {}
        for fname in sorted(slot["fields"]):
            field = FieldSpec.parse(fname)
            entries = hochster.graph_betti_table(g, field).entries
            errors = oracle.check_table(entries, fname)
            ideal = ideals.edge_ideal(g)
            if slot["lyu"] or ideal.ngens <= CROSS_CHECK_MAX_GENS:
                if lyubeznik.lyubeznik_betti_table(ideal, field=field).entries != entries:
                    errors.append("Hochster and Lyubeznik tables differ")
            if errors:
                raise SystemExit(f"{key} over {fname}: {errors}")
            rec[fname] = checks.summarize(entries)
        if slot["lyu"]:
            wit = witness.max_pd_witness(g)
            cert = lyubeznik.main_theorem_certificate(g, wit.family)
            errors = oracle.check_certificate(entries, wit.value, wit.family.sigma, tuple(cert))
            if errors:
                raise SystemExit(f"{key} certificate: {errors}")
            rec["witness"] = wit.value
        out[key] = rec
        print(f"recorded {key}", flush=True)
    return out


def record_campaigns() -> dict:
    out = {}
    for spec in workloads.campaign_specs():
        op = workloads.Op("record", "campaign", spec=spec)
        inp = run.prepare_campaign(spec)
        run.before(op)
        summary = run.execute(op, inp).summary()
        if summary["violation"]:
            raise SystemExit(f"campaign {spec}: {summary}")
        out[checks.campaign_key(spec)] = summary
        print(f"recorded campaign {spec}: {summary}", flush=True)
    return out


def main():
    data = {
        "seeds": [workloads.DEFAULT_SEED, workloads.HELDOUT_SEED],
        "graphs": record_graphs(),
        "campaigns": record_campaigns(),
    }
    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
