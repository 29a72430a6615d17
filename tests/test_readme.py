"""The README's examples run as written and print what it says they print."""

import ast
import re
from pathlib import Path

from edgeideals.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading, lang):
    """The first ```lang block after the given markdown heading."""
    section = README[README.index(heading):]
    match = re.search(rf"```{lang}\n(.*?)```", section, re.S)
    return match.group(1)


def expected_value(comment):
    """The value a result comment starts with: the whole comment, or the
    longest part before a ':' that is a Python literal."""
    text = comment.strip()
    while True:
        try:
            return ast.literal_eval(text)
        except (ValueError, SyntaxError):
            if ":" not in text:
                raise
            text = text.rsplit(":", 1)[0]


def test_library_block_results():
    source = fenced_block("## Library", "python")
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec")
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        last = lines[stmt.end_lineno - 1]
        after = lines[stmt.end_lineno] if stmt.end_lineno < len(lines) else ""
        if "#" in last[stmt.end_col_offset:]:
            comment = last[stmt.end_col_offset:].split("#", 1)[1]
        else:
            assert after.lstrip().startswith("#"), f"no result comment for {last!r}"
            comment = after.split("#", 1)[1]
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert value == expected_value(comment), last
        checked += 1
    assert checked == 2


def test_command_line_block_matches_the_cli(capsys):
    transcripts = {}
    for chunk in fenced_block("## Command line", "text").split("$ edgeideals ")[1:]:
        command, _, output = chunk.partition("\n")
        transcripts[command] = output.strip("\n")
    for command in ("betti cycle_4", "dual cycle_4"):
        assert main(command.split()) == 0
        printed = capsys.readouterr().out
        assert [line.rstrip() for line in printed.strip("\n").splitlines()] == transcripts[
            command
        ].splitlines(), command
