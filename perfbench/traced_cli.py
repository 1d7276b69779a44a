"""Run one vigrating command with span tracing in a fresh interpreter.

    python3 perfbench/traced_cli.py SPANS_JSON COMMAND [ARGS...]

Behaves like the ``vigrating`` console script (same exit code) and writes
the recorded spans, the functions it could not wrap and whether scipy was
imported to SPANS_JSON.
"""

import json
import sys
from pathlib import Path

from spans import Tracer


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    import vigrating.cli

    tracer = Tracer()
    tracer.install()
    code = vigrating.cli.main(argv)
    out.write_text(json.dumps({
        "spans": tracer.take(),
        "missing": sorted(tracer.missing),
        "scipy_loaded": "scipy" in sys.modules,
    }), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
