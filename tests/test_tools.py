"""The code-line counter and same-bytes comparison that refactors report with, and the smoke script CI runs."""
import importlib.util
import re
import subprocess
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _tool("code_lines")
same_bytes = _tool("same_bytes")

# every kind of line the counter tells apart; the comment after each counted line numbers it
SOURCE = '''"""Module docstring,
over two lines."""
# a comment line

import os  # 1: a trailing comment does not hide the code before it
"""A bare string after the first statement is no docstring."""  # 2


class Box:  # 3
    """Class docstring."""

    size = 3  # 4


def area(width,  # 5
         height):  # 6
    """Function docstring
    on two lines.
    """
    # a comment inside a function
    label = """a string literal
    over two lines"""  # 7, 8
    total = (width  # 9
             * height)  # 10
    return total, label  # 11
'''


def test_code_lines_counts_only_code(tmp_path, capsys):
    assert code_lines.code_lines(SOURCE) == 11
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("# only a comment\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "    11  a.py\n     0  b.py\n    11  total\n"


def test_smoke_script_is_what_the_package_smoke_job_runs():
    root = Path(__file__).resolve().parent.parent
    subprocess.run(["bash", "-n", str(root / "tools" / "smoke.sh")], check=True)
    # the job is the workflow's lines from "  package-smoke:" up to the next job, comments left out
    lines = (root / ".github" / "workflows" / "tier1.yml").read_text().splitlines()
    start = lines.index("  package-smoke:") + 1
    end = next((k for k in range(start, len(lines)) if re.match(r"  [^ #]", lines[k])), len(lines))
    job = [line.strip() for line in lines[start:end] if not line.strip().startswith("#")]
    assert "run: bash tools/smoke.sh" in job
    # the recipes live in the script alone, so they cannot drift back into the workflow
    assert not [line for line in job if "scatdecay" in line]


def test_same_bytes_lists_changed_and_one_sided_files(tmp_path):
    parent, child = tmp_path / "parent", tmp_path / "child"
    for top in (parent, child):
        (top / "tree").mkdir(parents=True)
        (top / "tree" / "same.csv").write_text("0.1\n")
    (parent / "tree" / "profile.csv").write_text("n,energy\n0,0.1\n")
    (child / "tree" / "profile.csv").write_text("n,energy\n0,0.10000000000000001\n")
    (parent / "err_old.txt").write_text("error: gone\n")
    (child / "tree" / "new.json").write_text("{}\n")
    assert same_bytes.compare(parent, child) == [
        "only in the parent: err_old.txt",
        "only in ./src: tree/new.json",
        "differs: tree/profile.csv",
    ]
    assert same_bytes.compare(parent, parent) == []
