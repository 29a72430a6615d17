"""End-to-end command-line checks driven through main(argv)."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from edgeideals import hochster
from edgeideals.cli import main
from edgeideals.graphs import SimpleGraph, path_graph
from edgeideals.ideals import edge_ideal
from edgeideals.witness import max_pd_witness
from edgeideals.catalog import generate_catalog, named_graph


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_betti_c4(capsys):
    rc, out, _ = run(capsys, "betti", "cycle_4")
    assert rc == 0
    assert "pd  = 3" in out and "reg = 1" in out
    rows = [line.split() for line in out.splitlines()]
    assert ["0", "1"] in rows and ["1", "4", "4", "1"] in rows


def test_betti_multigraded_and_json(capsys, tmp_path):
    dest = tmp_path / "t.json"
    rc, out, _ = run(capsys, "betti", "cycle_4", "--multigraded", "--json", str(dest))
    assert rc == 0
    assert "beta_3,{x1,x2,x3,x4} = 1" in out
    obj = json.loads(dest.read_text())
    assert obj["pd"] == 3 and obj["reg"] == 1 and obj["field"] == "gf2"


def test_pd_reg_field(capsys):
    assert run(capsys, "pd", "cycle_4")[1].strip() == "3"
    assert run(capsys, "reg", "cycle_5")[1].strip() == "2"
    assert run(capsys, "pd", "complete_bipartite_2_3", "--field", "rat")[1].strip() == "4"
    with pytest.raises(SystemExit, match="must be prime"):
        run(capsys, "pd", "cycle_4", "--field", "gf4")


def test_vertex_cap(capsys):
    with pytest.raises(SystemExit, match="over the cap"):
        run(capsys, "pd", "path_15")
    rc, out, err = run(capsys, "pd", "path_16", "--max-n", "16")
    assert rc == 0 and out.strip() == "10"
    assert "cost estimate" in err


def test_dual(capsys, tmp_path):
    dest = tmp_path / "dual.json"
    rc, out, _ = run(capsys, "dual", "cycle_4", "--json", str(dest))
    assert rc == 0
    assert "x1*x3" in out and "x2*x4" in out
    obj = json.loads(dest.read_text())
    assert len(obj["generators"]) == 2
    with pytest.raises(SystemExit, match="edgeideals: error"):
        run(capsys, "dual", "path_1")


def test_witness_max_and_target(capsys):
    rc, out, _ = run(capsys, "witness", "cycle_4")
    assert rc == 0 and "max family value (pd lower bound): 3" in out
    rc, out, _ = run(capsys, "witness", "cycle_4", "--target", "1,x1,x2")
    assert rc == 0 and ">= 1 via:" in out
    rc, out, _ = run(capsys, "witness", "cycle_4", "--target", "1,x1,x3")
    assert rc == 1 and "no disjoint family" in out
    with pytest.raises(SystemExit, match="homological degree"):
        run(capsys, "witness", "cycle_4", "--target", "x1,x2")
    with pytest.raises(SystemExit, match="unknown vertex label"):
        run(capsys, "witness", "cycle_4", "--target", "1,z9")
    rc, out, _ = run(capsys, "witness", "cycle_4", "--max")
    assert rc == 0 and "max family value (pd lower bound): 3" in out


def test_witness_max_and_target_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "witness", "cycle_4", "--max", "--target", "1,x1,x2")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        "edgeideals witness: error: argument --target: not allowed with argument --max"
    ]


def test_lyubeznik_table_symbols_order(capsys):
    rc, out, _ = run(capsys, "lyubeznik", "cycle_4")
    assert rc == 0 and "ordered-subset resolution" in out and "pd  = 3" in out
    rc, out, _ = run(capsys, "lyubeznik", "cycle_4", "--symbols", "2")
    assert rc == 0
    syms = {tuple(d["indices"]) for d in json.loads(out)}
    assert syms == {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
    with pytest.raises(SystemExit, match="permutation"):
        run(capsys, "lyubeznik", "cycle_4", "--order", "0,1,2")


def test_malformed_order_and_field_fail_in_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "lyubeznik", "cycle_5", "--order", "a,b")
    assert str(exc.value) == (
        "edgeideals: error: --order takes comma-separated 0-based generator positions, got 'a,b'"
    )
    with pytest.raises(SystemExit) as exc:
        run(capsys, "pd", "cycle_4", "--field", "gfx")
    assert str(exc.value) == "edgeideals: error: cannot parse field 'gfx'; use gf<p> or rat"
    # the analyses parse the field before they print anything, and before
    # they decide that the graph is not CM (P3) or not unmixed (P5)
    for command, graph in (("cm", "path_2"), ("unmixed", "path_2"), ("cm", "path_3"), ("unmixed", "path_5")):
        with pytest.raises(SystemExit) as exc:
            run(capsys, command, "analyze", graph, "--field", "gf4")
        assert str(exc.value) == "edgeideals: error: GF order must be prime, got 4"
        assert capsys.readouterr().out == ""


def test_lyubeznik_parses_the_field_before_symbols_or_a_certificate(capsys, tmp_path):
    g = named_graph("path_3")
    family = tmp_path / "fam.json"
    family.write_text(json.dumps(max_pd_witness(g).family.to_json(g)))
    for extra in (["--symbols", "1"], ["--certify", str(family)]):
        assert run(capsys, "lyubeznik", "path_3", *extra)[0] == 0
        with pytest.raises(SystemExit) as exc:
            run(capsys, "lyubeznik", "path_3", *extra, "--field", "gf4")
        assert str(exc.value) == "edgeideals: error: GF order must be prime, got 4"
        assert capsys.readouterr().out == ""


def test_malformed_family_file_fails_in_one_line(capsys, tmp_path):
    family = tmp_path / "fam.json"
    for text in ('{"blocks": 3}', '{"blocks": [{"left": ["zz"], "right": [1]}]}', "{"):
        family.write_text(text)
        with pytest.raises(SystemExit, match="edgeideals: error: cannot load family"):
            run(capsys, "lyubeznik", "cycle_4", "--certify", str(family))
    with pytest.raises(SystemExit, match="edgeideals: error: cannot load family"):
        run(capsys, "lyubeznik", "cycle_4", "--certify", str(tmp_path / "missing.json"))


LABELLED_P3 = {"labels": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"]]}


@pytest.mark.parametrize(
    "family, message",
    [
        # int() once read 0.9 as 0 and true as 1, and certified beta_1,{a,b}
        (
            {"blocks": [{"left": [0.9], "right": [True]}], "representatives": [[0.2, 1.7]]},
            "family vertex 0.9 is neither a label nor an index in 0..3",
        ),
        ({"blocks": [{"left": [0], "right": [True]}]}, "family vertex True is neither"),
        ({"blocks": [{"left": [-1], "right": [1]}]}, "family vertex -1 is neither"),
        ({"blocks": [{"left": [0], "right": [4]}]}, "family vertex 4 is neither"),
        ({"blocks": [{"left": ["a"], "right": ["b"]}], "representatives": [["a", 1.0]]}, "family vertex 1.0"),
        ({"representatives": [["a", "b"]]}, "family JSON needs 'blocks', a list"),
        ({"blocks": {"left": ["a"], "right": ["b"]}}, "family JSON needs 'blocks', a list"),
        ({"blocks": [{"left": ["a"]}]}, "family block 'right' must be a list of vertices"),
        ({"blocks": [{"left": "a", "right": ["b"]}]}, "family block 'left' must be a list of vertices"),
        (
            {"blocks": [{"left": ["a"], "right": ["b"]}], "representatives": [["a"]]},
            "family 'representatives' must be a list of [u, v] pairs",
        ),
        (
            {"blocks": [{"left": ["a"], "right": ["b"]}], "representatives": ["ab"]},
            "family 'representatives' must be a list of [u, v] pairs",
        ),
    ],
)
def test_malformed_family_vertices_fail_in_one_line_that_names_them(capsys, tmp_path, family, message):
    graph, path = tmp_path / "g.json", tmp_path / "fam.json"
    graph.write_text(json.dumps(LABELLED_P3))
    path.write_text(json.dumps(family))
    with pytest.raises(SystemExit) as exc:
        run(capsys, "lyubeznik", str(graph), "--certify", str(path))
    msg = str(exc.value)
    assert msg.startswith(f"edgeideals: error: cannot load family {str(path)!r}: ") and "\n" not in msg
    assert message in msg


def test_lyubeznik_certify(capsys, tmp_path):
    g = named_graph("cycle_4")
    fam = max_pd_witness(g).family
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam.to_json(g)))
    rc, out, _ = run(capsys, "lyubeznik", "cycle_4", "--certify", str(path))
    assert rc == 0 and "certified: beta_3,{x1,x2,x3,x4}" in out
    # same family against the wrong graph must fail loudly, not crash
    rc, out, _ = run(capsys, "lyubeznik", "path_4", "--certify", str(path))
    assert rc == 1 and "certificate FAILED" in out


def test_cm_analyze(capsys, tmp_path):
    g = SimpleGraph(4, edges=[(0, 2), (0, 3), (1, 3)], labels=["x1", "x2", "y1", "y2"])
    path = tmp_path / "cm.json"
    path.write_text(json.dumps(g.to_json()))
    rc, out, _ = run(capsys, "cm", "analyze", str(path))
    assert rc == 0
    assert "matched pairs" in out and "1 < 2" in out
    assert "pd: formula 2, Betti table 2  [OK]" in out
    rc, out, _ = run(capsys, "cm", "analyze", "cycle_5")
    assert rc == 1 and "not CM bipartite" in out
    rc, out, _ = run(capsys, "cm", "analyze", "cycle_4")
    assert rc == 1 and "no order-compatible perfect matching" in out
    rc, out, _ = run(capsys, "cm", "analyze", "path_3")
    assert rc == 1 and out == "graph admits no order-compatible perfect matching: not CM bipartite\n"
    rc, out, err = run(capsys, "cm", "analyze", "path_0")
    assert rc == 1 and out == "not CM bipartite: graph has no vertices\n" and err == ""


def source_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_closed_stdout_ends_without_a_traceback():
    # K_{1,13} has over 300 kB of multigraded rows, far more than a pipe
    # holds, so the command is still writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "edgeideals.cli", "betti", "complete_bipartite_1_13", "--multigraded"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=source_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) != 0
    assert first.startswith(b"Betti table of S/I(G)")
    assert b"Traceback" not in err and err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "cycle_5", "--json"],
        ["dual", "cycle_5", "--json"],
        ["witness", "cycle_5", "--json"],
        ["verify", "tests/data/smoke_campaign.json", "--json"],
        ["verify", "tests/data/smoke_campaign.json", "--csv"],
    ],
)
@pytest.mark.parametrize("kind", ["missing directory", "directory"])
def test_an_unwritable_out_fails_in_one_line(tmp_path, argv, kind):
    dest = tmp_path / "missing" / "out" if kind == "missing directory" else tmp_path
    proc = subprocess.run(
        [sys.executable, "-m", "edgeideals.cli", *argv, str(dest)],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parents[1],
        env=source_env(),
        timeout=120,
    )
    assert proc.returncode != 0
    # refused before any computation: nothing was printed
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line]
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"edgeideals: error: cannot write {str(dest)!r}: ")


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # only a run with a second worker starts a pool; a fresh import of the
    # CLI must not pay for multiprocessing
    code = (
        "import sys, edgeideals.cli; "
        "print(*[m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=source_env(), timeout=60
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.split() == []


def test_unmixed_analyze(capsys):
    rc, out, _ = run(capsys, "unmixed", "analyze", "complete_bipartite_3_3")
    assert rc == 0
    assert "zeta=3" in out
    assert "pd: formula 5, witness 5, Betti table 5  [OK]" in out
    rc, out, _ = run(capsys, "unmixed", "analyze", "path_5")
    assert rc == 1 and "not unmixed bipartite" in out
    rc, out, err = run(capsys, "unmixed", "analyze", "path_0")
    assert rc == 1 and out == "not unmixed bipartite: graph has no vertices\n" and err == ""


def test_unmixed_analyze_builds_only_the_graph_table(capsys, monkeypatch):
    g = named_graph("complete_bipartite_3_3")
    seen = []
    original = hochster.betti_table

    def counting(ideal, *args, **kwargs):
        seen.append(ideal)
        return original(ideal, *args, **kwargs)

    monkeypatch.setattr(hochster, "betti_table", counting)
    rc, out, _ = run(capsys, "unmixed", "analyze", "complete_bipartite_3_3")
    assert rc == 0 and "[OK]" in out
    # the reduction's dual table is read off its poset's free bases, so the
    # one Hochster table is the graph's own, for the cross-check
    assert seen == [edge_ideal(g)]


def test_cm_analyze_counts_the_free_bases_of_each_degree(capsys, tmp_path):
    from collections import Counter

    from edgeideals.catalog import cm_poset_graphs
    from edgeideals.cm_bipartite import free_bases
    from edgeideals.unmixed import acyclic_reduction

    graphs = cm_poset_graphs(4)
    for k, g in enumerate(graphs):
        path = tmp_path / f"g{k}.json"
        path.write_text(json.dumps(g.to_json()))
        rc, out, _ = run(capsys, "cm", "analyze", str(path))
        assert rc == 0
        lines = out.split("free basis counts by homological degree:\n", 1)[1]
        lines = lines.split("maximal Boolean bases and extracted families:\n", 1)[0]
        counts = sorted(Counter(b.i for b in free_bases(acyclic_reduction(g).poset)).items())
        assert lines == "".join(f"  i={i}: {cnt}\n" for i, cnt in counts)
    assert len(graphs) == 19


def test_verify_roundtrip(capsys, tmp_path):
    spec = {
        "name": "cli-smoke",
        "graphs": {"class": "named", "names": ["cycle_4", "path_3"]},
        "fields": ["gf2", "rat"],
        "assertions": ["T2.2", "P5.1", "T6.1"],
    }
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(spec))
    jout, cout = tmp_path / "r.json", tmp_path / "r.csv"
    rc, out, _ = run(capsys, "verify", str(cpath), "--json", str(jout), "--csv", str(cout))
    assert rc == 0 and out.rstrip().endswith("PASS")
    blob = json.loads(jout.read_text())
    assert blob["schema"] == "edgeideals-report/1"
    assert blob["summary"] == {"ok": 12, "violation": 0, "skipped": 0}
    assert cout.read_text().startswith("graph,n,field,assertion,status,violations")


def test_streamed_report_json_is_the_indented_text(capsys, tmp_path):
    spec = {
        "name": "cli-json",
        "graphs": {"class": "connected", "max_n": 4},
        "fields": ["gf2"],
        "assertions": ["T1.1", "P5.1"],
    }
    cpath, jout = tmp_path / "c.json", tmp_path / "r.json"
    cpath.write_text(json.dumps(spec))
    rc, _, _ = run(capsys, "verify", str(cpath), "--json", str(jout))
    text = jout.read_text()
    assert rc == 0 and text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    rc, out, err = run(capsys, "verify", str(cpath), "--json", "-")
    assert rc == 0 and out == text and err.endswith("PASS\n\n")


@pytest.mark.parametrize("argv", [
    ("betti", "cycle_4", "--multigraded"),
    ("verify", "tests/data/smoke_campaign.json"),
])
def test_json_on_stdout_is_the_document_alone(capsys, tmp_path, argv):
    dest = tmp_path / "out.json"
    rc, text, _ = run(capsys, *argv, "--json", str(dest))
    assert rc == 0
    rc, out, err = run(capsys, *argv, "--json", "-")
    assert rc == 0 and json.loads(out) == json.loads(dest.read_text())
    assert out == dest.read_text() and err == text


def test_csv_on_stdout_is_the_file_bytes(capsys, tmp_path):
    dest = tmp_path / "out.csv"
    rc, text, _ = run(capsys, "verify", "tests/data/smoke_campaign.json", "--csv", str(dest))
    assert rc == 0
    rc, out, err = run(capsys, "verify", "tests/data/smoke_campaign.json", "--csv", "-")
    assert rc == 0 and out.encode() == dest.read_bytes() and err == text


def test_csv_rows_keep_six_fields_when_a_graph_path_holds_a_comma_and_a_quote(capsys, tmp_path):
    graph = tmp_path / 'p,"3".json'
    graph.write_text(json.dumps(path_graph(3).to_json()))
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"graphs": {"class": "files", "files": [str(graph)]}, "assertions": ["P5.1", "T2.2"]}))
    rc, out, err = run(capsys, "verify", str(campaign), "--csv", "-")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["graph", "n", "field", "assertion", "status", "violations"]
    assert rows[1:] == [[f"file/{graph}", "3", "gf2", tag, "ok", "0"] for tag in ("P5.1", "T2.2")]


def test_a_campaign_past_the_table_cap_exits_zero_with_nothing_on_stderr(capsys, tmp_path):
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({
        "graphs": {"class": "named", "names": ["path_17"]},
        "assertions": ["P5.1", "T2.2"],
        "caps": {"max_n": 17},
    }))
    rc, out, err = run(capsys, "verify", str(campaign))
    assert rc == 0 and err == ""
    assert out.endswith("ok=2 skipped=0 violations=0\nPASS\n\n")


def test_json_and_csv_cannot_share_stdout(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "tests/data/smoke_campaign.json", "--json", "-", "--csv", "-")
    assert str(exc.value) == "edgeideals: error: --json - and --csv - cannot both take stdout"
    assert capsys.readouterr() == ("", "")


def test_verify_error_paths(capsys, tmp_path):
    with pytest.raises(SystemExit, match="cannot load campaign"):
        run(capsys, "verify", str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"graphs": {"class": "named", "names": ["path_9"]},
                               "assertions": ["P5.1"]}))
    with pytest.raises(SystemExit, match="vertex cap"):
        run(capsys, "verify", str(bad))
    rc, out, err = run(capsys, "verify", str(bad), "--max-n", "9")
    assert rc == 0 and "cost estimate" in err


def test_malformed_graph_file_fails_in_one_line(capsys, tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"edges": 5}))
    with pytest.raises(SystemExit, match="edgeideals: error: cannot parse graph file"):
        run(capsys, "betti", str(graph))
    with pytest.raises(SystemExit, match="edgeideals: error: cannot parse input file"):
        run(capsys, "lyubeznik", str(graph))


@pytest.mark.parametrize("command", ["betti", "lyubeznik", "witness"])
def test_directory_argument_fails_in_one_line(capsys, tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        run(capsys, command, str(tmp_path))
    msg = str(exc.value)
    assert msg.startswith("edgeideals: error: cannot read ") and repr(str(tmp_path)) in msg
    assert "\n" not in msg


@pytest.mark.parametrize("command, kind", [("betti", "graph"), ("lyubeznik", "input")])
def test_non_utf8_file_fails_in_one_line(capsys, tmp_path, command, kind):
    graph = tmp_path / "g.txt"
    graph.write_bytes(b"3\n0 1\n# \xff\xfe\n")
    with pytest.raises(SystemExit) as exc:
        run(capsys, command, str(graph))
    msg = str(exc.value)
    assert msg.startswith(f"edgeideals: error: cannot parse {kind} file {str(graph)!r}: ")
    assert "\n" not in msg


def test_malformed_ideal_file_fails_in_one_line(capsys, tmp_path):
    ideal = tmp_path / "i.json"
    ideal.write_text(json.dumps({"variables": ["a", "b"], "generators": [[1, -1]]}))
    with pytest.raises(SystemExit, match="edgeideals: error: .*negative exponent"):
        run(capsys, "lyubeznik", str(ideal))


def test_non_object_campaign_fails_in_one_line(capsys, tmp_path):
    campaign = tmp_path / "c.json"
    campaign.write_text("[]")
    with pytest.raises(SystemExit, match="edgeideals: error: cannot load campaign"):
        run(capsys, "verify", str(campaign))


def test_unknown_graph_and_command(capsys):
    with pytest.raises(SystemExit, match="neither a readable file nor a catalog name"):
        run(capsys, "pd", "petersen")
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# the first '{' of a JSON graph file on its third line
BLANK_LINES_JSON = '\n\n  {"labels": [1,}'
JSON_AT_LINE_3 = "Expecting value: line 3 column 17 (char 18)"


@pytest.mark.parametrize(
    "argv, message",
    [
        # an empty option value is a value, and is checked as one
        (["witness", "path_4", "--target="], "--target must start with the homological degree, got ''"),
        (
            ["lyubeznik", "path_4", "--order="],
            "--order must be a permutation of 0..2 (0-based generator positions), got []",
        ),
        # a catalog name that builds no graph says why
        (["betti", "cycle_2"], "named graph 'cycle_2': cycle needs at least 3 vertices"),
        (["betti", "path_100"], "named graph 'path_100': vertex count 100 outside 0..64"),
        (["pd", "path_-1"], "named graph 'path_-1': vertex count -1 outside 0..64"),
        (["lyubeznik", "ferrers_1_2"], "named graph 'ferrers_1_2': not a partition: [1, 2]"),
        (
            ["verify", {"class": "named", "names": ["cycle_2"]}],
            "named graph 'cycle_2': cycle needs at least 3 vertices",
        ),
        # a JSON error names its line in the file as read
        (["betti", BLANK_LINES_JSON], "cannot parse graph file {path!r}: " + JSON_AT_LINE_3),
        (
            ["verify", {"class": "files", "files": [BLANK_LINES_JSON]}],
            "cannot load graph file {path!r}: " + JSON_AT_LINE_3,
        ),
    ],
)
def test_refused_inputs_end_in_their_own_line(capsys, tmp_path, argv, message):
    """A graph text is written to a file, and a catalog spec to a campaign on it."""
    command, arg, *options = argv
    path = str(tmp_path / "g.json")
    if isinstance(arg, dict):
        if arg["class"] == "files":
            Path(path).write_text(arg["files"][0])
            arg = dict(arg, files=[path])
        campaign = tmp_path / "c.json"
        campaign.write_text(json.dumps({"graphs": arg, "assertions": ["T2.2"]}))
        arg = str(campaign)
    elif arg == BLANK_LINES_JSON:
        Path(path).write_text(arg)
        arg = path
    with pytest.raises(SystemExit) as exc:
        main([command, arg, *options])
    # a string exit code leaves the process with status 1
    assert exc.value.code == "edgeideals: error: " + message.format(path=path)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "error, line",
    [
        ("ValueError('a value')", "edgeideals: error: a value"),
        ("ResourceLimitError('over a cap')", "edgeideals: error: over a cap"),
        ("OSError('no disk')", "edgeideals: error: no disk"),
        # stdout closed early: nothing to say, and nowhere to say it
        ("BrokenPipeError()", None),
    ],
)
def test_main_turns_each_refusal_into_one_stderr_line(error, line):
    code = (
        "import sys\n"
        "from edgeideals import cli\n"
        "from edgeideals.errors import ResourceLimitError\n"
        "def refuse(args):\n"
        f"    raise {error}\n"
        "cli.cmd_betti = refuse\n"
        "sys.exit(cli.main(['betti', 'cycle_4']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=source_env(), timeout=60
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("" if line is None else line + "\n")


@pytest.mark.parametrize(
    "field, value",
    [
        ("graphs", 5),
        ("caps", [1]),
        ("assertions", "T1.1"),
        ("fields", "gf2"),
        ("caps", {"family_size": 0}),
        ("caps", {"family_size": -1}),
        ("caps", {"block_vertices": "x"}),
        # an empty list would check nothing and pass
        ("assertions", []),
        ("fields", []),
        # a seed is an int, not a float, a bool or a string
        ("seed", 1.9),
        ("seed", True),
        ("seed", "3"),
    ],
)
def test_malformed_campaign_fields_fail_in_one_line(capsys, tmp_path, field, value):
    spec = {"graphs": {"class": "named", "names": ["path_3"]}, "assertions": ["T1.1"], field: value}
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", str(campaign))
    msg = str(exc.value)
    assert msg.startswith("edgeideals: error: cannot load campaign") and "\n" not in msg
    assert repr(field) in msg or f"caps.{next(iter(value))}" in msg


@pytest.mark.parametrize(
    "graphs",
    [
        {"class": "named"},
        {"class": "named", "names": [5]},
        {"class": "ferrers", "max_rows": [1]},
        {"class": "ferrers", "max_rows": 4, "max_cols": 4},
        {"class": "cm_posets", "max_elements": 4},
        {"class": "cm_posets", "max_elements": "2"},
        {"class": "unmixed_blowups", "max_elements": 1, "max_zeta": -1},
        {"class": "files", "files": ["no/such/graph.txt"]},
    ],
)
def test_malformed_catalog_specs_fail_in_one_line(capsys, tmp_path, graphs):
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"graphs": graphs, "assertions": ["T2.2"]}))
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", str(campaign))
    msg = str(exc.value)
    assert msg.startswith("edgeideals: error: ") and "\n" not in msg


@pytest.mark.parametrize(
    "graphs, message",
    [
        ({"class": "named", "names": ["path_5", "path_5"]}, "catalog 'names' repeats 'path_5'"),
        ({"class": "all", "n": 3, "max_n": 2}, "catalog class 'all' takes 'n' or 'max_n', not both"),
        ({"class": "named", "names": ["complete_bipartite_a_b"]}, "unknown named graph: 'complete_bipartite_a_b'"),
    ],
)
def test_catalog_refusals_name_the_entry_before_any_report(capsys, tmp_path, graphs, message):
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"graphs": graphs, "assertions": ["T2.2"]}))
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(campaign)])
    assert str(exc.value) == f"edgeideals: error: {message}"
    assert capsys.readouterr().out == ""


def bad_graph_file(tmp_path, kind):
    """A path that SimpleGraph.load cannot read or parse, and the error class it raises."""
    if kind == "directory":
        return tmp_path, OSError
    if kind == "non-utf8":
        path = tmp_path / "g.txt"
        path.write_bytes(b"3\n0 1\n# \xff\xfe\n")
    else:
        path = tmp_path / "g.json"
        path.write_text('{"edges": [[0, 1], ')
    return path, ValueError


@pytest.mark.parametrize("kind", ["directory", "non-utf8", "malformed json"])
def test_bad_graph_file_in_a_files_catalog_is_named(capsys, tmp_path, kind):
    path, error = bad_graph_file(tmp_path, kind)
    spec = {"class": "files", "files": [str(path)]}
    with pytest.raises(error, match=f"^cannot load graph file {re.escape(repr(str(path)))}: "):
        generate_catalog(spec)
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"graphs": spec, "assertions": ["T2.2"]}))
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", str(campaign))
    msg = str(exc.value)
    assert msg.startswith(f"edgeideals: error: cannot load graph file {str(path)!r}: ") and "\n" not in msg
    assert "Traceback" not in capsys.readouterr().err


VALID_CATALOG_SPECS = [
    {"class": "all", "n": 3},
    {"class": "connected", "max_n": 3},
    {"class": "chordal", "n": 3},
    {"class": "cochordal", "max_n": 3},
    {"class": "cm_posets", "max_elements": 2},
    {"class": "unmixed_blowups", "max_elements": 1, "max_zeta": 2, "max_vertices": 6},
    {"class": "ferrers", "max_rows": 2, "max_cols": 2},
    {"class": "named", "names": ["path_3"]},
]
CAMPAIGN = {"graphs": {"class": "all", "n": 3}, "assertions": ["T2.2"]}
# certified before family JSON rejected unknown keys: both misspellings were ignored
FAMILY_P3 = {"blocks": [{"left": [0], "right": [1], "extra": 1}], "reps": [[0, 1]]}


@pytest.mark.parametrize(
    "command, obj, where",
    [
        ("betti", {"n": 3, "edges": [[0, 1], [1, 5]]}, "'n' in graph JSON"),
        ("lyubeznik", {"variables": ["a", "b"], "generators": [[1, 1]], "extra": 1}, "'extra' in ideal JSON"),
        ("verify", {"graphs": CAMPAIGN["graphs"], "asertions": ["T2.2"]}, "'asertions' in campaign"),
        ("verify", dict(CAMPAIGN, caps={"maxn": 3}), "'maxn' in campaign caps"),
        ("verify", dict(CAMPAIGN, graphs={"class": "all", "maxn": 3}), "'maxn' in catalog class 'all'"),
    ]
    + [
        ("verify", dict(CAMPAIGN, graphs=dict(spec, extra=1)), f"'extra' in catalog class {spec['class']!r}")
        for spec in VALID_CATALOG_SPECS + [{"class": "files", "files": ["no/such/graph.txt"]}]
    ]
    + [
        # a family file's keys; the command's words come before the file
        ("lyubeznik path_3 --certify", FAMILY_P3, "'reps' in family JSON"),
        ("lyubeznik path_3 --certify", dict(FAMILY_P3, blocks=[{"left": [0], "right": [1]}]), "'reps' in family JSON"),
        (
            "lyubeznik path_3 --certify",
            {"blocks": FAMILY_P3["blocks"], "representatives": [[0, 1]]},
            "'extra' in family block",
        ),
    ],
)
def test_unknown_json_keys_fail_in_one_line(capsys, tmp_path, command, obj, where):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SystemExit) as exc:
        run(capsys, *command.split(), str(path))
    msg = str(exc.value)
    assert msg.startswith("edgeideals: error: ") and "\n" not in msg
    assert f"unknown key {where}" in msg


@pytest.mark.parametrize("spec", VALID_CATALOG_SPECS)
def test_every_key_a_catalog_class_reads_is_accepted(capsys, tmp_path, spec):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"name": "keys", "graphs": spec, "fields": ["gf2"], "assertions": ["T2.2"],
                                "caps": {"max_n": 7, "family_size": 2, "block_vertices": 5}, "seed": 1}))
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0 and out.rstrip().endswith("PASS")


def test_over_cap_catalog_fails_before_generating(capsys, tmp_path):
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"graphs": {"class": "all", "n": 9}, "assertions": ["T2.2"]}))
    with pytest.raises(SystemExit, match="edgeideals: error: graphs exceed the vertex cap 7"):
        run(capsys, "verify", str(campaign))
    with pytest.raises(SystemExit, match="edgeideals: error: --max-n must be at least 1"):
        run(capsys, "verify", str(campaign), "--max-n", "0")


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_verify_with_fewer_than_one_worker_fails_in_one_line(capsys, tmp_path, workers):
    campaign = tmp_path / "c.json"
    campaign.write_text(json.dumps({"graphs": {"class": "all", "n": 3}, "assertions": ["T2.2"]}))
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", str(campaign), "--workers", workers)
    assert str(exc.value) == f"edgeideals: error: workers must be at least 1, got {workers}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("betti", "cycle_5", "--max-n", "-3"), "--max-n must be at least 1, got -3"),
        (("pd", "cycle_5", "--max-n", "0"), "--max-n must be at least 1, got 0"),
        (("lyubeznik", "cycle_5", "--max-n", "0"), "--max-n must be at least 1, got 0"),
        (("lyubeznik", "cycle_4", "--symbols", "-1"), "--symbols takes a symbol size of at least 0, got -1"),
        (("witness", "cycle_4", "--target", "1,x1,x1"), "vertex 'x1' is listed twice"),
        (("witness", "cycle_4", "--target", "1,0,x1"), "vertex 'x1' is listed twice"),
    ],
)
def test_bad_numbers_and_repeated_vertices_fail_in_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert str(exc.value) == f"edgeideals: error: {message}"


@pytest.mark.parametrize("extra", [(), ("--symbols", "2")])
def test_lyubeznik_over_the_generator_cap_fails_in_one_line(capsys, extra):
    # K_8 has 28 edges, over the admissible-symbol cap of 24 generators
    with pytest.raises(SystemExit) as exc:
        run(capsys, "lyubeznik", "complete_8", *extra)
    assert str(exc.value) == (
        "edgeideals: error: 28 generators exceeds the admissible-symbol cap of 24"
    )


def test_lyubeznik_table_of_a_non_squarefree_ideal_fails_in_one_line(capsys, tmp_path):
    ideal = tmp_path / "i.json"
    ideal.write_text(json.dumps({"variables": ["a", "b"], "generators": [[2, 0], [0, 1]]}))
    with pytest.raises(SystemExit) as exc:
        run(capsys, "lyubeznik", str(ideal))
    assert str(exc.value) == "edgeideals: error: Betti tables here are for squarefree ideals"


def test_pd_and_reg_honour_max_n_above_the_table_cap(capsys):
    # P_17 is past the library's 16-variable table cap; --max-n lifts both caps
    rc, out, err = run(capsys, "pd", "path_17", "--max-n", "17")
    assert rc == 0 and out.strip() == "11" and "cost estimate" in err
    rc, out, _ = run(capsys, "reg", "path_17", "--max-n", "17")
    assert rc == 0 and out.strip() == "6"


@pytest.mark.parametrize("command", ["dual", "witness"])
def test_commands_without_a_betti_table_print_no_cost_estimate(capsys, command):
    # neither builds a Hochster table, so the subset-strand bill does not apply
    rc, out, err = run(capsys, command, "path_15", "--max-n", "15")
    assert rc == 0 and out and "cost estimate" not in err
