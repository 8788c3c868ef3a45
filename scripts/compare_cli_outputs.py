"""Run the same CLI invocations on two source trees and diff everything they produce.

Usage::

    python3 scripts/compare_cli_outputs.py OLD_TREE NEW_TREE [WORK_DIR]
        [--old-env KEY=VALUE ...] [--new-env KEY=VALUE ...]

Each tree is a checkout whose ``src/`` holds the package.  Every case runs
``python -m nmrteleport`` in a fresh directory with ``PYTHONPATH=<tree>/src``
and ``PATH=/usr/bin:/bin`` as its whole environment, and writes into the
relative directory ``out``; a case with a config file first writes it as
``config.yaml`` in that directory and passes ``--config config.yaml``.  Exit
code, stdout, stderr and every output file must match byte for byte.  Prints
one line per differing case, naming what differs, and exits 1 if there is
any.  Outputs go to WORK_DIR if given (it must not hold earlier results),
else to a temporary directory removed afterwards.

``--old-env`` and ``--new-env`` (each repeatable) add a variable to the
environment of the old or the new tree's runs only.  Given the same tree
twice, they compare the program with itself under two settings, e.g. two
OpenBLAS kernels::

    python3 scripts/compare_cli_outputs.py . . \
        --old-env OPENBLAS_CORETYPE=Sandybridge --new-env OPENBLAS_CORETYPE=Haswell
"""

from __future__ import annotations

import argparse
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


def molecule(extra_spin: str = "", c1_h: str = "201.0", c1_c2: bool = True) -> str:
    """A TCE-like molecule section, with an extra spin line or without the C1-C2 coupling if asked."""
    lines = [
        "molecule:",
        "  spins:",
        "    - {name: C2, larmor_hz: 125771669.0, t1: 25.0, t2: 0.3}",
        "    - {name: C1, larmor_hz: 125772580.0, t1: 25.0, t2: 0.4}",
        "    - {name: H, larmor_hz: 500133491.0, t1: 5.0, t2: 3.0}",
        *([f"    - {extra_spin}"] if extra_spin else []),
        "  couplings:",
        f"    - {{pair: [C1, H], j_hz: {c1_h}}}",
        *(["    - {pair: [C1, C2], j_hz: 103.0}"] if c1_c2 else []),
    ]
    return "\n".join(lines) + "\n"


# (arguments, config file): molecules the circuits or the pulse engine cannot
# run, and files whose values, or whose bytes, cannot be read as a config.
FOUR_SPINS = molecule(extra_spin="{name: F, larmor_hz: 470000000.0, t1: 2.0, t2: 1.0}")
CONFIG_CASES = (
    (["teleport", "--engine", "gate"], FOUR_SPINS),
    (["teleport", "--engine", "pulse"], FOUR_SPINS),
    (["compare", "--engine", "pulse"], molecule(c1_c2=False)),
    (["control", "--engine", "pulse"], molecule(c1_c2=False)),
    (["teleport", "--engine", "pulse"], molecule(c1_h="1.0e-310")),
    (["teleport", "--engine", "pulse"], "noise:\n  rf_miscalibration: 1.0e308\n"),
    (["teleport"], f"experiment:\n  delays: [0, 1{'0' * 399}]\n"),
    (["teleport"], b"experiment:\n  engine: \xff\xfe\n"),
    (["teleport"], "experiment:\n  delays: " + "[" * 3000 + "]" * 3000 + "\n"),
)


def cases() -> list[tuple[list[str], str | bytes | None]]:
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
    # Fits over an infinite delay, listed last so that earlier cases keep their numbers.
    to_inf = [
        ([command, "--engine", engine, "--delays", "0,0.3,0.6,0.9,inf"], None)
        for engine in ("gate", "pulse")
        for command in ("teleport", "compare")
    ]
    return [(args, None) for args in runs] + list(CONFIG_CASES) + to_inf


def run(
    tree: Path, args: list[str], config: str | bytes | None, work: Path, extra_env: dict[str, str]
) -> dict[str, bytes]:
    work.mkdir(parents=True)
    if config is not None:
        (work / "config.yaml").write_bytes(config.encode() if isinstance(config, str) else config)
        args = [*args, "--config", "config.yaml"]
    env = {"PYTHONPATH": str(tree / "src"), "PATH": "/usr/bin:/bin", **extra_env}
    command = [sys.executable, "-m", "nmrteleport", *args, "--out", "out"]
    proc = subprocess.run(command, cwd=work, env=env, capture_output=True)
    produced = {"exit": str(proc.returncode).encode(), "stdout": proc.stdout, "stderr": proc.stderr}
    for path in sorted((work / "out").glob("*")) if (work / "out").is_dir() else []:
        produced[path.name] = path.read_bytes()
    return produced


def assignment(text: str) -> tuple[str, str]:
    """``KEY=VALUE`` as a pair; the key must not be empty."""
    key, equals, value = text.partition("=")
    if not key or not equals:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key, value


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Diff the CLI outputs of two source trees.")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("work", type=Path, nargs="?")
    parser.add_argument("--old-env", type=assignment, action="append", default=[], metavar="KEY=VALUE")
    parser.add_argument("--new-env", type=assignment, action="append", default=[], metavar="KEY=VALUE")
    opts = parser.parse_args(argv[1:])
    old, new = opts.old.resolve(), opts.new.resolve()
    old_env, new_env = dict(opts.old_env), dict(opts.new_env)
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = opts.work or Path(tmp)
        for i, (args, config) in enumerate(cases()):
            a = run(old, args, config, root / f"{i}-old", old_env)
            b = run(new, args, config, root / f"{i}-new", new_env)
            if a != b:
                differing += 1
                keys = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
                label = " ".join(args) + (f" --config <case {i}>" if config is not None else "")
                print(f"DIFF {label}: {', '.join(keys)}")
    print(f"{len(cases())} cases, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
