"""Replay the package-smoke job of the Tier-1 workflow against src/, without installing.

Each step's literal ``run: |`` block runs, in the job's order, under
``bash -e -o pipefail``, the shell a GitHub runner gives ``run:``, in one
temporary directory that stands for ``${{ runner.temp }}``.  Each step's
``env:`` entries are set, and ``scatdecay`` is a shim on PATH that calls
``scatdecay.cli:main``, the console script's entry point, with src/ first
on PYTHONPATH.  The Install step, which pip-installs the package, is
skipped.  The workflow is read line by line, not by a YAML parser, so only
the layout the file uses is understood: ``key: value`` scalars, ``env:``
maps and ``run: |`` literal blocks inside the job's step items.

    python3 tools/replay_smoke.py [workflow [job]]

prints each step's exit code and wall time, and stops at the first step
that fails, exiting with its code.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def _literal(lines: list[str], k: int, key_indent: int) -> tuple[str, int]:
    """The ``|`` block that starts at ``lines[k]``, dedented, and the index after it."""
    block = []
    while k < len(lines) and (not lines[k].strip() or _indent(lines[k]) > key_indent):
        block.append(lines[k])
        k += 1
    while block and not block[-1].strip():
        block.pop()
    cut = min(_indent(line) for line in block if line.strip())
    return "".join(line[cut:] + "\n" for line in block), k


def job_steps(text: str, job: str) -> list[dict]:
    """The steps of ``job``: each its scalar keys, its ``env`` map and, if it has one, its ``run`` block."""
    lines = text.splitlines()
    start = lines.index(f"  {job}:") + 1
    end = next((k for k in range(start, len(lines)) if lines[k].strip() and _indent(lines[k]) <= 2), len(lines))
    body, steps, k = lines[start:end], [], 0
    while k < len(body):
        line = body[k]
        if line.lstrip().startswith("- "):
            steps.append({"env": {}})
            line = " " * (_indent(line) + 2) + line.lstrip()[2:]
        key, _, value = line.strip().partition(":")
        value = value.strip()
        k += 1
        if not steps or not key or key.startswith("#"):
            continue
        if key == "run" and value == "|":
            steps[-1]["run"], k = _literal(body, k, _indent(line))
        elif key == "env" and not value:
            while k < len(body) and (not body[k].strip() or _indent(body[k]) > _indent(line)):
                name, _, setting = body[k].strip().partition(":")
                if name:
                    steps[-1]["env"][name] = setting.strip()
                k += 1
        else:
            steps[-1][key] = value
    return steps


def replay(workflow: Path, job: str) -> int:
    steps = [step for step in job_steps(workflow.read_text(), job) if "run" in step and step.get("name") != "Install"]
    with tempfile.TemporaryDirectory() as tmp:
        shim = Path(tmp) / "bin" / "scatdecay"
        shim.parent.mkdir()
        entry = "import sys; from scatdecay.cli import main; sys.exit(main())"
        shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -c "{entry}" "$@"\n')
        shim.chmod(0o755)
        work = Path(tmp) / "work"
        work.mkdir()
        env = {**os.environ, "PATH": f"{shim.parent}{os.pathsep}{os.environ['PATH']}",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        for step in steps:
            began = time.perf_counter()
            code = subprocess.run(["bash", "--noprofile", "--norc", "-e", "-o", "pipefail", "-c", step["run"]],
                                  cwd=work, env={**env, **step["env"]}).returncode
            print(f"{step.get('name', '(unnamed)')}: exit {code} in {time.perf_counter() - began:.1f} s")
            if code:
                return code
    return 0


def main(argv: list[str]) -> int:
    workflow = Path(argv[0]) if argv else ROOT / ".github" / "workflows" / "tier1.yml"
    return replay(workflow, argv[1] if len(argv) > 1 else "package-smoke")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
