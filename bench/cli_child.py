"""Traced stand-in for ``python -m donor_halo.cli``.

    python3 bench/cli_child.py SPANS.json <donor-halo arguments>

Wraps the traced functions, runs the CLI once and writes the spans to
SPANS.json before exiting with the CLI's own exit code.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer

import donor_halo.cli


def main(argv: list[str]) -> int:
    spans_path, args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = donor_halo.cli.main(args)
    finally:
        tracer.uninstall()
        spans_path.write_text(json.dumps(tracer.store.to_json()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
