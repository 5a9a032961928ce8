"""Traced ``repro serve``: install the layer wrappers, then run the server.

    python3 perfbench/serve.py LEDGER.json serve --port 0 --cache-dir DIR

Calls the same ``repro.cli.main`` entry point ``python -m repro`` does,
so the server is the stock one with timed layers. When it stops (SIGTERM
drains it), the per-layer totals are written to ``LEDGER.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    ledger_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(SRC))
    from layers import Ledger, install

    ledger = Ledger()
    install(ledger)
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        Path(ledger_path).write_text(json.dumps(ledger.totals()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
