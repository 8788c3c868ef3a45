"""Check that a test trips every ``raise`` in the package, by mutation.

Usage::

    python3 scripts/mutate_checks.py [--files MODULE ...]

A site is a ``raise <exception>`` statement in ``src/nmrteleport/*.py`` (a bare
``raise`` passes on an exception already raised, and is not a check of its own).
For each site, a temporary copy of the repository gets that one statement
replaced by ``pass``, and the tier-1 suite runs on the copy with ``-x`` (two
copies run at once).  The site is killed when the suite then fails, or runs ten
times longer than it does unmutated, and survived when the suite still passes:
no test depends on the check.  Prints one line per site, then the total; exits
1 if a site survived, and 2 without mutating anything if the unmutated suite
fails.

``--files`` limits the survey to the modules given, by file name or path.  The
survey runs the suite once per site, several minutes in all, so CI does not run
it.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/nmrteleport")
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider")
LEFT_BEHIND = (".git", "__pycache__", ".hypothesis", ".pytest_cache", "results")
WORKERS = 2


@dataclass(frozen=True)
class Site:
    """One ``raise`` statement: its file (relative to the repository), line, and byte span."""

    path: Path
    line: int
    start: int
    end: int
    text: str  # the statement's first line

    def mutant(self, source: bytes) -> bytes:
        return source[: self.start] + b"pass" + source[self.end :]


def sites(path: Path) -> list[Site]:
    """The sites of one module, in source order.  ``ast`` counts columns in
    UTF-8 bytes, so the spans are taken on the file's bytes."""
    source = (ROOT / path).read_bytes()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            start = starts[node.lineno - 1] + node.col_offset
            end = starts[node.end_lineno - 1] + node.end_col_offset
            found.append(Site(path, node.lineno, start, end, source[start:end].decode().splitlines()[0]))
    return sorted(found, key=lambda site: site.start)


def passes(tree: Path, timeout: float | None) -> bool | None:
    """Whether tier-1 passes in ``tree``; ``None`` when it runs past ``timeout`` seconds."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        proc = subprocess.run(
            [sys.executable, *TIER1], cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None
    finally:  # no example that hypothesis saved in one run is replayed in the next
        shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    return proc.returncode == 0


def main(argv: list[str]) -> int:
    modules = sorted(path.name for path in (ROOT / PACKAGE).glob("*.py"))
    parser = argparse.ArgumentParser(description="Replace each raise in the package by pass, one at a time, and run tier-1.")
    parser.add_argument("--files", nargs="+", metavar="MODULE", help=f"modules to mutate (default: all of {PACKAGE})")
    opts = parser.parse_args(argv[1:])
    chosen = sorted({Path(name).name for name in opts.files}) if opts.files else modules
    unknown = [name for name in chosen if name not in modules]
    if unknown:
        parser.error(f"not a module of {PACKAGE}: {', '.join(unknown)}")
    survey = [site for name in chosen for site in sites(PACKAGE / name)]

    with tempfile.TemporaryDirectory(prefix="mutate-checks-") as tmp:
        copies = [Path(tmp) / str(i) for i in range(min(WORKERS, max(len(survey), 1)))]
        trees: queue.Queue[Path] = queue.Queue()
        for tree in copies:
            shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*LEFT_BEHIND))
            trees.put(tree)
        started = time.monotonic()
        if not passes(copies[0], None):
            print("the unmutated tier-1 suite fails; no site can be judged", file=sys.stderr)
            return 2
        timeout = 10.0 * (time.monotonic() - started)

        def judge(site: Site) -> bool | None:
            tree = trees.get()
            target = tree / site.path
            source = target.read_bytes()
            try:
                target.write_bytes(site.mutant(source))
                return passes(tree, timeout)
            finally:
                target.write_bytes(source)
                trees.put(tree)

        survived = 0
        with ThreadPoolExecutor(len(copies)) as pool:
            for site, passed in zip(survey, pool.map(judge, survey)):
                survived += passed is True
                verdict = {True: "SURVIVED", False: "killed", None: "killed (timeout)"}[passed]
                print(f"{verdict:<16} {site.path}:{site.line}  {site.text}", flush=True)
    print(f"{len(survey) - survived} of {len(survey)} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
