"""tools/pairs.py: alternating benchmark pairs written to a BENCH_*.json file."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_an_a_a_pair_writes_every_key(tmp_path):
    probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip("needs a git checkout to export HEAD")
    out = tmp_path / "BENCH_aa.json"
    cmd = [sys.executable, "tools/pairs.py", "HEAD", "--workload", "betti-sparse-exact", "--seed", "1",
           "--pairs", "1", "--seconds", "1", "--out", str(out), "--claim", "A/A control"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert set(doc) == {"claim", "rule", "command", "host", "revisions", "workloads"}
    assert doc["claim"] == "A/A control"
    assert set(doc["host"]) == {"nproc", "python", "cpu"}
    assert doc["revisions"]["parent"] == probe.stdout.strip()
    [row] = doc["workloads"]
    assert (row["workload"], row["seed"]) == ("betti-sparse-exact", 1)
    [pair] = row["pairs"]
    assert set(pair) == {"pair", "first", "parent", "change", "parent_failed", "change_failed", "correct"}
    assert pair["first"] == "parent" and pair["correct"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert set(pair["parent"]) == set(pair["change"]) == names == set(row["summary"])
    for summary in row["summary"].values():
        assert set(summary) == {
            "unit", "parent_median", "parent_q1", "parent_q3", "change_median", "change_q1", "change_q3",
            "change_vs_parent", "bound", "change_wins", "change_losses", "pairs", "gap_exceeds_parent_iqr",
        }
        assert summary["pairs"] == 1 and summary["change_wins"] + summary["change_losses"] <= 1
