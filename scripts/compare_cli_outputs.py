"""Run the same CLI invocations on two source trees and diff everything they produce.

Usage::

    python3 scripts/compare_cli_outputs.py OLD_TREE NEW_TREE [WORK_DIR]

Each tree is a checkout whose ``src/`` holds the package.  Every case runs
``python -m nmrteleport`` in a fresh directory with ``PYTHONPATH=<tree>/src``
and writes into the relative directory ``out``; exit code, stdout, stderr and
every output file must match byte for byte.  Prints one line per differing
case and exits 1 if there is any.  Outputs go to WORK_DIR if given (it must
not hold earlier results), else to a temporary directory removed afterwards.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

CHANNELS = (
    "identity",
    "dephasing(inf,0.3)",
    "dephasing(0.2,0.3)",
    "depolarizing(0)",
    "depolarizing(0.3)",
    "depolarizing(1)",
    "relaxation(0,5,3)",
    "relaxation(0.5,5,3)",
    "relaxation(inf,5,3)",
    "relaxation(1.3,25,0.4)",
    "teleport(0.5)",
    "control(0.3)",
)


def cases() -> list[list[str]]:
    runs = []
    for engine in ("gate", "pulse"):
        for command in ("teleport", "control", "compare"):
            for extra in ([], ["--no-noise"], ["--delays", "0,0.3,inf"]):
                runs.append([command, "--engine", engine, *extra])
        for channel in CHANNELS:
            runs.append(["tomo", "--engine", engine, "--channel", channel])
    for args in (
        ["tomo", "--channel", "teleport(nan)"],
        ["tomo", "--channel", "bogus(1)"],
        ["tomo", "--channel", "dephasing(0.3,nan)"],
        ["teleport", "--delays", "0,nan"],
        ["compare", "--delays", "0,0.5"],
    ):
        runs.append(args)
    return runs


def run(tree: Path, args: list[str], work: Path) -> dict[str, bytes]:
    work.mkdir(parents=True)
    env = {"PYTHONPATH": str(tree / "src"), "PATH": "/usr/bin:/bin"}
    command = [sys.executable, "-m", "nmrteleport", *args, "--out", "out"]
    proc = subprocess.run(command, cwd=work, env=env, capture_output=True)
    produced = {"exit": str(proc.returncode).encode(), "stdout": proc.stdout, "stderr": proc.stderr}
    for path in sorted((work / "out").glob("*")) if (work / "out").is_dir() else []:
        produced[path.name] = path.read_bytes()
    return produced


def main(argv: list[str]) -> int:
    old, new = Path(argv[1]).resolve(), Path(argv[2]).resolve()
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(argv[3]) if len(argv) > 3 else Path(tmp)
        for i, args in enumerate(cases()):
            a, b = run(old, args, root / f"{i}-old"), run(new, args, root / f"{i}-new")
            if a != b:
                differing += 1
                keys = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
                print(f"DIFF {' '.join(args)}: {', '.join(keys)}")
    print(f"{len(cases())} cases, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
