"""The code-line counter that refactors report their size change with."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

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


_REPLAY_PATH = Path(__file__).resolve().parent.parent / "tools" / "replay_smoke.py"
_REPLAY_SPEC = importlib.util.spec_from_file_location("replay_smoke", _REPLAY_PATH)
replay_smoke = importlib.util.module_from_spec(_REPLAY_SPEC)
_REPLAY_SPEC.loader.exec_module(replay_smoke)

WORKFLOW = '''name: demo
jobs:
  tests:
    steps:
      - name: other job
        run: echo no
  smoke:
    # a comment before the steps
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout@v4
      - name: Install
        run: |
          pip install -e .
      - name: first
        working-directory: ${{ runner.temp }}
        env:
          PYTHONWARNINGS: error
        run: |
          echo '{"a": 1}' > a.json
          # a shell comment, then a blank line

            indented: kept relative
      - name: second
        run: |
          test -f a.json

  after:
    steps:
      - name: not smoke
        run: echo no
'''


def test_replay_reads_the_job_run_blocks():
    steps = replay_smoke.job_steps(WORKFLOW, "smoke")
    assert [step.get("name") for step in steps] == [None, "Install", "first", "second"]
    assert [step.get("run") for step in steps] == [
        None,
        "pip install -e .\n",
        "echo '{\"a\": 1}' > a.json\n# a shell comment, then a blank line\n\n  indented: kept relative\n",
        "test -f a.json\n",
    ]
    assert [step["env"] for step in steps] == [{}, {}, {"PYTHONWARNINGS": "error"}, {}]
    # the repository's own smoke job: the Install step and five recipe steps
    real = replay_smoke.job_steps((_REPLAY_PATH.parent.parent / ".github/workflows/tier1.yml").read_text(),
                                  "package-smoke")
    assert [step.get("name") for step in real] == [
        None, None, "Install", "bank check", "scatter run", "decay verify", "stationary run", "demo modulus-shift"]
    assert all(step["env"] == {"PYTHONWARNINGS": "error"} for step in real[3:])
