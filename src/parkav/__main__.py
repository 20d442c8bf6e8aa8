"""The process entry of the CLI: ``python -m parkav`` and the ``parkav`` script.

``run`` makes one ``cli.main()`` call, flushes stdout, freezes the garbage
collector and returns main's exit code for the launcher to exit with.
``gc.freeze()`` moves every object the call left alive (the modules,
functions and cached tables of parkav's import graph) into the collector's
permanent generation, so the full collections of interpreter finalization
skip them.  Streams are still flushed and atexit handlers still run.

If the reader of stdout has gone (``parkav sequence ... | head -1``), the
call ends quietly with ``cli.EXIT_PIPE``: nothing on stderr, and stdout is
pointed at ``os.devnull`` so the interpreter's last flush cannot raise again
(the recipe in the documentation of Python's ``signal`` module).

``cli.main`` is the in-process API: it neither freezes nor touches a file
descriptor, so a process that calls it many times (the test suite, the
benchmark's tracer) keeps a collector that frees its cycles.
"""

import gc
import os
import sys

from . import cli


def run() -> int:
    code = cli.main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = cli.EXIT_PIPE
    if code == cli.EXIT_PIPE:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
