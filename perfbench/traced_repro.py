"""Run the ``repro`` command line with the benchmark's layer tracing installed.

Usage: ``python traced_repro.py SPAN_FILE <repro arguments...>``, for example
``python traced_repro.py spans.json serve --port 0``.  The spans recorded in
this process are written to ``SPAN_FILE`` when the command returns (for
``serve``: after the ``shutdown`` op has drained it).  ``src`` must be on
``PYTHONPATH``, as for ``python -m repro``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, dump_rows  # noqa: E402


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv)
    finally:
        dump_rows(tracer.export(), span_file)


if __name__ == "__main__":
    sys.exit(main())
