"""The package namespace: lazy names that stay live, and cold starts that
compile only the modules they run."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgeideals
from edgeideals import hochster

ROOT = Path(__file__).resolve().parents[1]


def loaded_after(code: str) -> list[str]:
    """The edgeideals modules a fresh interpreter holds after running code."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = f"{code}\nimport sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'edgeideals'))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=ROOT, timeout=60
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_every_public_name_is_its_submodules_object():
    assert len(edgeideals.__all__) == len(set(edgeideals.__all__)) == 45
    listed = dir(edgeideals)
    for name in edgeideals.__all__:
        source = importlib.import_module(f"edgeideals.{edgeideals._SOURCES[name]}")
        assert getattr(edgeideals, name) is getattr(source, name), name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        edgeideals.no_such_name
    with pytest.raises(ImportError):
        from edgeideals import no_such_name  # noqa: F401


def test_a_star_import_gives_every_public_name():
    namespace = {}
    exec("from edgeideals import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(edgeideals.__all__)


def test_a_patched_function_is_seen_through_the_package_and_then_undone(monkeypatch):
    original = hochster.graph_betti_table

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(hochster, "graph_betti_table", patched)
    assert edgeideals.graph_betti_table is patched
    monkeypatch.undo()
    assert edgeideals.graph_betti_table is original
    # the lookup left nothing behind in the package's own namespace
    assert "graph_betti_table" not in vars(edgeideals)


def test_a_submodule_imports_by_name_from_the_package():
    namespace = {}
    exec("from edgeideals import campaigns, hochster", namespace)
    assert namespace["campaigns"] is sys.modules["edgeideals.campaigns"]
    assert namespace["hochster"] is hochster


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import edgeideals") == ["edgeideals"]


def test_importing_graphs_loads_no_other_module():
    assert loaded_after("import edgeideals.graphs") == ["edgeideals", "edgeideals.graphs"]


def test_importing_the_cli_leaves_campaigns_and_lyubeznik_unloaded():
    loaded = loaded_after("import edgeideals.cli")
    assert "edgeideals.cli" in loaded
    assert "edgeideals.campaigns" not in loaded and "edgeideals.lyubeznik" not in loaded


def test_betti_on_a_file_graph_loads_only_the_table_path():
    loaded = loaded_after(
        "import contextlib, io\n"
        "from edgeideals.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['betti', 'tests/data/n8_slice/graph_12000.json']) == 0"
    )
    assert loaded == [
        "edgeideals",
        "edgeideals.cli",
        "edgeideals.errors",
        "edgeideals.graphs",
        "edgeideals.hochster",
        "edgeideals.ideals",
        "edgeideals.linalg",
    ]
