"""Run one ``kcod`` command with stage (and optionally layer) timing installed.

    python3 perfbench/child.py SPANS_DIR TRACE -- <kcod arguments>

Imports kcod from ``src/`` of the checkout this file sits in, wraps the
stage functions (and with TRACE=1 the layer functions too), runs
``kcod.cli.main`` and writes the timings to SPANS_DIR, never next to the
command's own outputs. The exit code is the command's.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: list[str]) -> int:
    spans_dir, trace, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: child.py SPANS_DIR TRACE -- <kcod arguments>")
    sys.path.insert(0, SRC)
    import kcod.cli
    from layers import LAYERS, STAGES, Tracer

    if not os.path.abspath(kcod.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"kcod was imported from {kcod.__file__}, not from {SRC}")
    traced = trace == "1"
    tracer = Tracer(spans_dir, notes=traced)
    tracer.install(STAGES + (LAYERS if traced else ()))
    code = kcod.cli.main(command)
    tracer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
