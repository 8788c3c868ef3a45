"""The command line: ``python -m nmrteleport`` and the ``nmrteleport`` script (``entry``)."""

import gc
import os
import sys

# Matrices of at most 8x8 gain nothing from BLAS threads, whose idle workers spin.
# This must run before numpy loads (``import nmrteleport`` loads no module); a
# user's value wins, and the library never sets it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402


def entry() -> None:
    try:
        code = main()
    finally:
        # Shutdown would run full collections over every object numpy made, all about
        # to die with the process; frozen, the collector skips them.  ``finally`` also
        # covers argparse's SystemExit (--help, a rejected option).  atexit handlers
        # and the flush of stdio still run.
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
