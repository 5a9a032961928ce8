"""Performance-trend gate: compare ``BENCH_*.json`` against baselines.

The benchmark suite emits machine-readable artifacts (e.g.
``BENCH_simulator.json`` from :mod:`benchmarks.test_simulator_bench`);
``benchmarks/baselines.json`` commits the expected numbers with
per-metric tolerance bands. ``repro bench-trend`` joins the two,
renders a trend report, and — with ``--check`` — exits non-zero on
regression, making CI the first consumer of the bench trajectory
instead of a human reading artifact diffs.

Baselines schema (``repro.bench-baselines/1``)::

    {
      "schema": "repro.bench-baselines/1",
      "benchmarks": {
        "<benchmark name>": {
          "source": "BENCH_simulator.json",
          "mode": "full",
          "metrics": {
            "aggregate_speedup": {"baseline": 9.33, "min_ratio": 0.4},
            "policies.coolpim-hw.macro_s":
                {"baseline": 0.085, "max_ratio": 3.0}
          }
        }
      }
    }

Metric paths are dotted lookups into the bench document. Tolerance is a
ratio band around the baseline: ``min_ratio`` guards higher-is-better
metrics (fail when ``current < baseline * min_ratio``), ``max_ratio``
guards lower-is-better ones (fail when ``current > baseline *
max_ratio``); a metric may declare both. Bands are deliberately wide —
CI machines vary — so only real regressions (an engine falling off its
fast path) trip the gate, not scheduler noise.

Every artifact records the ``mode`` it was measured in (``quick`` smoke
scale or ``full`` scale), the host's CPU count and the git revision (see
:func:`artifact_provenance`). Every baseline declares its ``mode`` and
only accepts artifacts of that mode: a quick-scale ratio checked against
a full-scale baseline is a structural error, not a pass.

Exit codes: 0 all within band, 1 regression (or missing bench source),
2 structural error (missing/invalid baselines or bench JSON, or an
artifact measured in another mode than its baseline).
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

BASELINES_SCHEMA_ID = "repro.bench-baselines/1"

#: Default committed baselines location, relative to the repo root.
DEFAULT_BASELINES = Path("benchmarks") / "baselines.json"

#: Scales a bench artifact can be measured at.
MODES = ("quick", "full")


def artifact_provenance(quick: bool) -> Dict[str, Any]:
    """Fields every ``BENCH_*.json`` carries: measurement mode, host CPU
    count, and the git revision of the working tree (``-dirty`` when it
    has uncommitted changes; ``unknown`` outside a checkout)."""
    try:
        revision = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {
        "mode": "quick" if quick else "full",
        "cpu_count": os.cpu_count(),
        "git_revision": revision,
    }


@dataclass
class TrendRow:
    """One (benchmark, metric) comparison."""

    benchmark: str
    metric: str
    baseline: float
    current: Optional[float]
    #: "ok" | "regression" | "missing"
    status: str
    note: str = ""

    @property
    def ratio(self) -> Optional[float]:
        if self.current is None or self.baseline == 0:
            return None
        return self.current / self.baseline


class TrendError(ValueError):
    """Structural problem: unreadable/invalid baselines or bench file."""


def load_baselines(path: Path) -> Dict[str, Any]:
    """Read + validate the committed baselines document."""
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise TrendError(f"baselines file not found: {path}")
    except json.JSONDecodeError as exc:
        raise TrendError(f"baselines file is not valid JSON: {exc}")
    if doc.get("schema") != BASELINES_SCHEMA_ID:
        raise TrendError(
            f"unsupported baselines schema: {doc.get('schema')!r} "
            f"(expected {BASELINES_SCHEMA_ID})"
        )
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, dict) or not benchmarks:
        raise TrendError("baselines must define a non-empty 'benchmarks' map")
    for name, entry in benchmarks.items():
        if "source" not in entry or not isinstance(entry.get("metrics"), dict):
            raise TrendError(
                f"benchmark {name!r} needs 'source' and a 'metrics' map"
            )
        for metric, spec in entry["metrics"].items():
            if "baseline" not in spec:
                raise TrendError(
                    f"{name}.{metric} is missing its 'baseline' value"
                )
            if "min_ratio" not in spec and "max_ratio" not in spec:
                raise TrendError(
                    f"{name}.{metric} needs min_ratio and/or max_ratio"
                )
        if entry.get("mode") not in MODES:
            raise TrendError(
                f"benchmark {name!r} has mode {entry.get('mode')!r}; "
                f"expected one of {MODES}"
            )
    return doc


def resolve_metric(doc: Mapping[str, Any], path: str) -> Optional[float]:
    """Dotted lookup into a bench document; None when absent/non-numeric."""
    node: Any = doc
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def _compare(
    benchmark: str, metric: str, spec: Mapping[str, Any],
    current: Optional[float],
) -> TrendRow:
    baseline = float(spec["baseline"])
    if current is None:
        return TrendRow(benchmark, metric, baseline, None, "missing",
                        "metric absent from bench document")
    min_ratio = spec.get("min_ratio")
    max_ratio = spec.get("max_ratio")
    if min_ratio is not None and current < baseline * float(min_ratio):
        return TrendRow(
            benchmark, metric, baseline, current, "regression",
            f"below {float(min_ratio):g}x baseline floor",
        )
    if max_ratio is not None and current > baseline * float(max_ratio):
        return TrendRow(
            benchmark, metric, baseline, current, "regression",
            f"above {float(max_ratio):g}x baseline ceiling",
        )
    return TrendRow(benchmark, metric, baseline, current, "ok")


def evaluate(
    baselines: Mapping[str, Any], bench_dir: Path
) -> List[TrendRow]:
    """Compare every baselined metric against its bench artifact."""
    rows: List[TrendRow] = []
    for name, entry in baselines["benchmarks"].items():
        source = Path(bench_dir) / entry["source"]
        try:
            doc = json.loads(source.read_text())
        except FileNotFoundError:
            for metric, spec in entry["metrics"].items():
                rows.append(TrendRow(
                    name, metric, float(spec["baseline"]), None, "missing",
                    f"bench artifact not found: {source}",
                ))
            continue
        except json.JSONDecodeError as exc:
            raise TrendError(f"bench artifact {source} is not valid JSON: {exc}")
        if doc.get("mode") != entry["mode"]:
            raise TrendError(
                f"bench artifact {source} was measured in mode "
                f"{doc.get('mode')!r} but baseline {name!r} is "
                f"{entry['mode']!r}; regenerate it at that scale"
            )
        for metric, spec in entry["metrics"].items():
            rows.append(_compare(name, metric, spec,
                                 resolve_metric(doc, metric)))
    return rows


def render_trend_report(rows: List[TrendRow]) -> str:
    """Aligned text table plus a one-line verdict."""
    header = ("benchmark", "metric", "baseline", "current", "ratio", "status")
    table: List[Tuple[str, ...]] = [header]
    for row in rows:
        current = "-" if row.current is None else f"{row.current:.4g}"
        ratio = "-" if row.ratio is None else f"{row.ratio:.2f}x"
        status = row.status + (f" ({row.note})" if row.note else "")
        table.append((row.benchmark, row.metric, f"{row.baseline:.4g}",
                      current, ratio, status))
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip()
        for r in table
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    bad = sum(1 for r in rows if r.status != "ok")
    verdict = (
        f"{len(rows)} metric(s) checked, all within tolerance"
        if bad == 0
        else f"{bad} of {len(rows)} metric(s) out of tolerance"
    )
    return "\n".join(lines) + f"\n\n{verdict}\n"


def run_trend(
    bench_dir: Path,
    baselines_path: Path,
    report_path: Optional[Path] = None,
    check: bool = False,
) -> Tuple[int, str]:
    """Full harness run → (exit code, rendered report).

    Exit code 0 when every metric is in band, 1 on any regression or
    missing metric/artifact, 2 on structural errors. Without ``check``
    the report is still rendered but regressions do not gate (code 0) —
    the informational mode for local trend watching.
    """
    try:
        baselines = load_baselines(baselines_path)
        rows = evaluate(baselines, bench_dir)
    except TrendError as exc:
        return 2, f"bench-trend error: {exc}\n"
    report = render_trend_report(rows)
    if report_path is not None:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        Path(report_path).write_text(report)
    failed = any(r.status != "ok" for r in rows)
    return (1 if failed and check else 0), report
