"""Run one ``lattice-wigner`` command with every layer traced.

Usage: python3 bench/cli_child.py SPANS_JSON <lattice-wigner arguments...>

The benchmark starts this in place of ``python3 -m lattice_wigner.cli`` for
traced ops.  It installs the layer tracer, calls ``lattice_wigner.cli.main``
with the remaining arguments, writes the spans to SPANS_JSON together with
``ready`` (the clock reading when the CLI entry point was about to start) and
exits with the CLI's exit code.  ``src`` must be on PYTHONPATH.
"""

import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import lattice_wigner.cli

    tracer = Tracer()
    tracer.install()
    ready = perf_counter()
    code = 1
    try:
        code = lattice_wigner.cli.main(argv)
    finally:
        tracer.write(spans_path, ready=ready, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
