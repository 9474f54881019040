"""Traced server launcher: ``python3 perfbench/traced_serve.py serve ...``.

Installs the span timers of :func:`perfbench.spans.install_server`, then runs
the ``repro`` CLI entry with the same arguments as ``python -m repro``.  The
spans are written when the server has drained after SIGTERM.  Requires
``src`` and the checkout root on ``PYTHONPATH`` (the benchmark sets both).
"""

from __future__ import annotations

import sys

from perfbench.spans import Recorder, install_server


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    recorder = Recorder("server")
    install_server(recorder)
    try:
        return repro_main(argv)
    finally:
        recorder.dump()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
