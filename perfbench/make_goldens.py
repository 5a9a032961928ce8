#!/usr/bin/env python3
"""Regenerate ``perfbench/goldens.json``: the result digest of every cell
any workload of ``run.py`` can run, for the default seed 0 and the
held-out seed.

    python3 perfbench/make_goldens.py

Runs in-process through the same :func:`worker.run_shard` the grid
workloads use; api-cold results must match these digests too, which pins
the service path to the in-process one. Regenerate only when the
simulated results are meant to change.
"""

from __future__ import annotations

import json
import sys

from run import COOLINGS, GOLDENS, SRC, WORKLOADS
from worker import run_shard


def shard_specs() -> list:
    specs = []
    for name in ("grid-ldbc", "grid-road"):
        p = WORKLOADS[name]
        workloads = [w for shard in p["shards"] for w in shard]
        specs.append({
            "dataset": p["dataset"], "workloads": workloads,
            "coolings": COOLINGS, "sim_seed": p["sim_seed"],
            "cells": [[w, pol, c] for c in COOLINGS for w in workloads
                      for pol in p["policies"]],
        })
    p = WORKLOADS["api-cold"]
    for seed in p["sim_seeds"]:
        specs.append({
            "dataset": p["dataset"], "workloads": p["workloads"],
            "coolings": [p["cooling"]], "sim_seed": seed,
            "cells": [[w, pol, p["cooling"]] for w in p["workloads"]
                      for pol in p["policies"]],
        })
    return specs


def main() -> int:
    sys.path.insert(0, str(SRC))
    goldens = {}
    for spec in shard_specs():
        for cell in run_shard(spec)["cells"]:
            if goldens.setdefault(cell["key"], cell["digest"]) != cell["digest"]:
                raise SystemExit(f"non-deterministic result for {cell['key']}")
        print(f"{spec['dataset']} seed {spec['sim_seed']}: "
              f"{len(spec['cells'])} cells", file=sys.stderr)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} digests to {GOLDENS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
