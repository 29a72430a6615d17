"""Alternating pairs of benchmark runs, parent revision against this checkout.

    python3 tools/pairs.py PARENT --workload W --seed S --pairs N --seconds T --out BENCH_slug.json

Run from anywhere inside a git checkout.  PARENT is any revision git can
resolve.  The script exports it with ``git archive`` into a temporary
directory, copies the working tree of this checkout (the change: its tracked
and untracked files, less what ``.gitignore`` lists) into another, and runs
the unmodified ``perfbench/run.py`` of each side from that side's copy.  Both
copies sit side by side, since a run from the checkout itself read about
0.2 MB less peak RSS than the same code run from an export.  Each pair runs
both sides once, with ``--trace 0`` and the same seed and run length; even
pairs run the parent first, odd pairs the change.

The output file holds every pair's end-to-end metrics, and for each metric
both sides' medians and inclusive quartiles, the relative change of the
medians, the bound from ``BENCHMARK.json``, the pairs each side won (ties
count for neither) and whether the medians differ by more than the parent's
interquartile range.  When the file already exists and names the same
parent, the new workload and seed replace any row with the same workload
and seed, and the other rows stay, so one file can gather several runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

RULE = (
    "change wins >= 9/10 of pairs (ties count for neither) and "
    "|median(change) - median(parent)| > IQR of parent runs"
)


def git(root: str, *args: str, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, stdout=subprocess.PIPE, text=True, env=env
    ).stdout.strip()


def export(root: str, rev: str, dest: str) -> None:
    """Write the files of rev into dest, as ``git archive`` lists them."""
    data = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=root, check=True, stdout=subprocess.PIPE
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        # the data filter refuses links and paths that leave dest
        kw = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **kw)


def copy_worktree(root: str, dest: str) -> None:
    """Copy the working tree's files that git does not ignore into dest."""
    names = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = os.path.join(root, name)
        # a tracked file deleted in the working tree is not part of the change
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def src_tree(root: str) -> str:
    """The git tree object of the working tree's src/, built in a scratch index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git(root, "read-tree", "HEAD", env=env)
        git(root, "add", "-A", "src", env=env)
        return git(root, "write-tree", "--prefix=src/", env=env)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One unmodified perfbench run from tree: its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"pairs: error: {' '.join(cmd)} in {tree} exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name = m["name"]
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        sign = 1 if m["better"] == "lower" else -1
        pq = quartiles(par)
        cq = quartiles(chg)
        out[name] = {
            "unit": m["unit"],
            "parent_median": pq[1],
            "parent_q1": pq[0],
            "parent_q3": pq[2],
            "change_median": cq[1],
            "change_q1": cq[0],
            "change_q3": cq[2],
            "change_vs_parent": cq[1] / pq[1] - 1 if pq[1] else 0.0,
            "bound": m["bound"],
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(par, chg)),
            "change_losses": sum(sign * (c - p) > 0 for p, c in zip(par, chg)),
            "pairs": len(pairs),
            "gap_exceeds_parent_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
        }
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the revision to compare against, e.g. HEAD~1")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    ap.add_argument("--claim", help="the claim the file records (kept from an existing file when omitted)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    parent = git(root, "rev-parse", "--verify", args.parent + "^{commit}")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("revisions", {}).get("parent") != parent:
            raise SystemExit(f"pairs: error: {args.out} records another parent; pass a new --out")
    doc["claim"] = args.claim or doc.get("claim", "")
    doc["rule"] = RULE
    doc["command"] = f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}"
    doc["host"] = {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu_model()}
    head = git(root, "rev-parse", "HEAD")
    doc["revisions"] = {
        "parent": parent,
        "change": f"the working tree on {head}; its src/ tree is git object {src_tree(root)}",
    }

    pairs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        export(root, parent, trees["parent"])
        copy_worktree(root, trees["change"])
        for k in range(args.pairs):
            sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            res = {side: run_once(trees[side], args.workload, args.seed, args.seconds) for side in sides}
            row = {"pair": k, "first": sides[0]}
            for side in ("parent", "change"):
                row[side] = {m["name"]: res[side]["metrics"][m["name"]]["value"] for m in metrics}
            for side in ("parent", "change"):
                row[f"{side}_failed"] = f"{res[side]['failed']}/{res[side]['attempted']}"
            row["correct"] = res["parent"]["correct"] and res["change"]["correct"]
            pairs.append(row)
            print(f"{args.workload} seed {args.seed} pair {k}: "
                  f"parent wall_s {row['parent']['wall_s']:.4g}, change {row['change']['wall_s']:.4g}",
                  flush=True)

    entry = {"workload": args.workload, "seed": args.seed, "pairs": pairs, "summary": summarize(pairs, metrics)}
    rows = [w for w in doc.get("workloads", []) if (w["workload"], w["seed"]) != (args.workload, args.seed)]
    doc["workloads"] = rows + [entry]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0 if all(p["correct"] for p in pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
