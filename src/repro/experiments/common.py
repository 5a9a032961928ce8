"""Shared experiment utilities: table formatting and run configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width ASCII table (numbers rendered to 3 significant places)."""

    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.3g}" if abs(cell) < 1000 else f"{cell:.0f}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


@dataclass(frozen=True)
class RunScale:
    """Evaluation scale: 'full' matches the calibrated figure runs; 'quick'
    shrinks the graph and query counts for CI-speed smoke runs.

    ``seed`` rides along so one value reproduces an entire sweep: every
    experiment that instantiates workloads through :func:`scaled_workload`
    inherits it, and the job-service cache key (repro.service) hashes the
    scale, so runs at different seeds never collide in the result store.
    """

    dataset: str
    workload_scale: float  # multiplier on query/iteration counts
    seed: int = 0

    @classmethod
    def full(cls, seed: int = 0) -> "RunScale":
        return cls(dataset="ldbc", workload_scale=1.0, seed=seed)

    @classmethod
    def quick(cls, seed: int = 0) -> "RunScale":
        return cls(dataset="ldbc-small", workload_scale=0.25, seed=seed)

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "workload_scale": self.workload_scale,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunScale":
        return cls(
            dataset=d["dataset"],
            workload_scale=d["workload_scale"],
            seed=d.get("seed", 0),
        )


def apply_workload_scale(workload, factor: float):
    """Scale a workload's run-length knobs (sources/repeats/iterations)
    in place by ``factor``; returns the workload for chaining."""
    from repro.workloads.base import RUN_LENGTH_ATTRS

    if factor != 1.0:
        for attr in RUN_LENGTH_ATTRS:
            if hasattr(workload, attr):
                value = getattr(workload, attr)
                setattr(workload, attr, max(1, int(round(value * factor))))
    return workload


def scaled_workload(name: str, scale: RunScale, seed: int | None = None):
    """Instantiate a benchmark with its run length scaled.

    ``seed`` defaults to the scale's own seed so sweeps stay reproducible
    end to end without threading an extra argument through every figure.
    """
    from repro.workloads import get_workload

    w = get_workload(name, seed=scale.seed if seed is None else seed)
    return apply_workload_scale(w, scale.workload_scale)


def run_with_first_warning(
    run: Callable[[Any], Any], policy
) -> Tuple[Any, Optional[float]]:
    """Call ``run(policy)``; return its result and the simulated instant
    (s) of the first thermal warning delivered to ``policy``, or ``None``
    if it never warned.

    The instant is that of the first ``on_thermal_warning`` call, which
    the stepped and macro engines both make at the sensor sample that
    raises the warning. Reading it off the run's timeline instead misses
    warnings whose temperature peak falls between timeline points.
    ``policy`` may be a policy name.
    """
    from repro.core.policies import make_policy

    if isinstance(policy, str):
        policy = make_policy(policy)
    first: List[float] = []
    handler = policy.on_thermal_warning

    def on_warning(now_s: float, temp_c: Optional[float] = None) -> None:
        if not first:
            first.append(now_s)
        handler(now_s, temp_c)

    policy.on_thermal_warning = on_warning
    try:
        result = run(policy)
    finally:
        del policy.on_thermal_warning
    return result, (first[0] if first else None)
