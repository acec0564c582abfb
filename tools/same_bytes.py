"""Compare every file tools/smoke.sh writes under a parent source tree and under ./src.

Usage, from the repository root:

    python3 tools/same_bytes.py PARENT_SRC

PARENT_SRC is the ``src`` directory of another checkout, such as the parent
commit's, unpacked with ``git archive`` or ``git worktree add``:

    git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
    python3 tools/same_bytes.py /tmp/parent/src

This checkout's ``tools/smoke.sh`` runs once with PARENT_SRC and once with
``./src`` on ``PYTHONPATH``, ``tools/bin`` on ``PATH``, each into its own kept
directory, and the two runs go side by side.  That happens under NumPy's
default kernels and again under ``NPY_ENABLE_CPU_FEATURES=X86_V3`` (the AVX2
family).  The script prints each side's exit code and every file that differs
or exists on one side only, and exits 1 on any such difference or differing
exit code, 0 when there is none.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = {"default": None, "x86_v3": "X86_V3"}


def _files(top: Path) -> set[Path]:
    return {p.relative_to(top) for p in top.rglob("*") if p.is_file()}


def compare(parent: Path, child: Path) -> list[str]:
    """One line per file under either directory that differs, or exists under one only, by relative path."""
    ours, theirs = _files(child), _files(parent)
    lines = [f"only in the parent: {p}" for p in sorted(theirs - ours)]
    lines += [f"only in ./src: {p}" for p in sorted(ours - theirs)]
    lines += [f"differs: {p}" for p in sorted(ours & theirs) if (parent / p).read_bytes() != (child / p).read_bytes()]
    return lines


def _smoke(src: Path, work: Path, cpu: str | None) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src), PATH=f"{ROOT / 'tools' / 'bin'}{os.pathsep}{os.environ['PATH']}")
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    if cpu:
        env["NPY_ENABLE_CPU_FEATURES"] = cpu
    # the smoke's own output holds timings and peak RSS, so it is kept beside the tree, not in it
    with open(work.with_suffix(".log"), "w") as log:
        return subprocess.Popen(["bash", str(ROOT / "tools" / "smoke.sh"), str(work)], env=env, stdout=log,
                                stderr=subprocess.STDOUT)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: python3 tools/same_bytes.py PARENT_SRC, the parent checkout's src directory", file=sys.stderr)
        return 2
    sides = {"parent": Path(argv[0]).resolve(), "child": ROOT / "src"}
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        for kernels, cpu in KERNELS.items():
            work = {side: Path(tmp) / f"{kernels}-{side}" for side in sides}
            runs = {side: _smoke(src, work[side], cpu) for side, src in sides.items()}
            codes = {side: run.wait() for side, run in runs.items()}
            for side, code in codes.items():
                if code:
                    print(work[side].with_suffix(".log").read_text()[-2000:])
            lines = compare(work["parent"], work["child"])
            print(f"{kernels} kernels: smoke.sh exit {codes['parent']} under the parent and {codes['child']} under "
                  f"./src; {len(_files(work['child']))} files written under ./src, {len(lines)} differences")
            for line in lines:
                print(f"{kernels} kernels: {line}")
            differs = differs or bool(lines) or codes["parent"] != codes["child"]
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
