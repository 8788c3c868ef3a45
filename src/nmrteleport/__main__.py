"""The command line (``python -m nmrteleport``; the script runs ``entry``), the only code that changes process state."""

import gc
import os
import sys

# Matrices of at most 8x8 gain nothing from BLAS threads, whose idle workers spin.
# This must run before numpy loads (``import nmrteleport`` loads no module); a
# user's value wins, and the library never sets it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# The imports' objects live as long as the process: paused, the collector skips the
# ~33 collections the imports would run, and frozen, no later collection scans them.
gc.disable()
from .cli import EXIT_OK, main  # noqa: E402

gc.freeze()
gc.enable()


def entry() -> None:
    try:
        code = main()
    except BrokenPipeError:  # at main's last step, the summary echo: every file is written
        code = EXIT_OK
    finally:  # argparse's SystemExit (--help, a rejected option) passes here too
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except BrokenPipeError:  # its reader has gone; the flush at shutdown must not fail
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
