"""Per-run statistics: counters, histograms, and time-weighted averages.

Simulators in this repo register their statistics in a
:class:`StatRegistry`, which supports hierarchical naming
(``"sim.control_steps"``) and structured snapshots. Counters and
histograms are the :mod:`repro.telemetry.registry` primitives, so a run
snapshot and the ``GET /metrics`` exposition read the same classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.telemetry.registry import Counter, Histogram


class TimeWeightedStat:
    """Time-weighted average of a piecewise-constant signal.

    Used for quantities like "PIM-enabled warp count over time", where the
    mean must weight each level by how long it was held.
    """

    def __init__(self, name: str = "", initial: float = 0.0, start_time: float = 0.0):
        self.name = name
        self.initial = initial
        self._value = initial
        self._last_time = start_time
        self._weighted_sum = 0.0
        self._elapsed = 0.0
        self.min = initial
        self.max = initial

    @property
    def value(self) -> float:
        return self._value

    def update(self, value: float, now: float) -> None:
        """Record that the signal changed to ``value`` at time ``now``."""
        if now < self._last_time:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        dt = now - self._last_time
        self._weighted_sum += self._value * dt
        self._elapsed += dt
        self._last_time = now
        self._value = value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def mean(self, now: Optional[float] = None) -> float:
        """Time-weighted mean up to ``now`` (defaults to last update)."""
        ws, el = self._weighted_sum, self._elapsed
        if now is not None:
            if now < self._last_time:
                raise ValueError(f"time went backwards: {now} < {self._last_time}")
            dt = now - self._last_time
            ws += self._value * dt
            el += dt
        return ws / el if el > 0 else self._value

    @property
    def elapsed(self) -> float:
        """Total signal-holding time accumulated so far."""
        return self._elapsed

    def reset(self, initial: Optional[float] = None, start_time: float = 0.0) -> None:
        """Restart accumulation, optionally at a new level/origin.

        Needed when the same registry outlives one simulation run: the
        next run restarts its clock at zero, which :meth:`update` would
        otherwise reject as time going backwards.
        """
        if initial is not None:
            self.initial = initial
        self._value = self.initial
        self._last_time = start_time
        self._weighted_sum = 0.0
        self._elapsed = 0.0
        self.min = self.initial
        self.max = self.initial


@dataclass
class StatRegistry:
    """Hierarchical registry of named statistics.

    Names are dot-separated; :meth:`scoped` returns a child view that
    prefixes all names, so components can register stats without knowing
    where they sit in the hierarchy.
    """

    prefix: str = ""
    _stats: Dict[str, object] = field(default_factory=dict)

    def _full(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def scoped(self, prefix: str) -> "StatRegistry":
        """Child registry sharing storage, with ``prefix`` prepended."""
        return StatRegistry(prefix=self._full(prefix), _stats=self._stats)

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def time_weighted(self, name: str, initial: float = 0.0) -> TimeWeightedStat:
        full = self._full(name)
        stat = self._stats.get(full)
        if stat is None:
            stat = TimeWeightedStat(full, initial=initial)
            self._stats[full] = stat
        if not isinstance(stat, TimeWeightedStat):
            raise TypeError(f"stat {full!r} already registered as {type(stat).__name__}")
        if stat.initial != initial:
            raise ValueError(
                f"stat {full!r} already registered with initial="
                f"{stat.initial}, conflicting with initial={initial}"
            )
        return stat

    def histogram(self, name: str, lo: float, hi: float, nbins: int) -> Histogram:
        """Histogram with ``nbins`` equal-width buckets over ``[lo, hi]``.

        Its bounds are the ``nbins + 1`` edges from ``lo`` to ``hi``, so
        samples ``<= lo`` land in the first bucket (underflow) and samples
        ``> hi`` in the ``+Inf`` bucket (overflow).
        """
        if hi <= lo:
            raise ValueError(f"hi must exceed lo: [{lo}, {hi}]")
        if nbins <= 0:
            raise ValueError(f"nbins must be positive, got {nbins}")
        bounds = tuple(lo + (hi - lo) * i / nbins for i in range(nbins)) + (hi,)
        full = self._full(name)
        stat = self._stats.get(full)
        if stat is None:
            stat = Histogram(full, bounds=bounds)
            self._stats[full] = stat
        if not isinstance(stat, Histogram):
            raise TypeError(f"stat {full!r} already registered as {type(stat).__name__}")
        if stat.bounds != bounds:
            raise ValueError(
                f"stat {full!r} already registered with bins "
                f"[{stat.bounds[0]}, {stat.bounds[-1]}]x{len(stat.bounds) - 1}, "
                f"conflicting with [{lo}, {hi}]x{nbins}"
            )
        return stat

    def _get_or_create(self, name: str, cls):
        full = self._full(name)
        stat = self._stats.get(full)
        if stat is None:
            stat = cls(full)
            self._stats[full] = stat
        if not isinstance(stat, cls):
            raise TypeError(f"stat {full!r} already registered as {type(stat).__name__}")
        return stat

    def get(self, name: str) -> object:
        return self._stats[self._full(name)]

    def items(self) -> Iterator[Tuple[str, object]]:
        pre = self.prefix + "." if self.prefix else ""
        for k, v in sorted(self._stats.items()):
            if k.startswith(pre):
                yield k, v

    def snapshot(self, structured: bool = False) -> Dict[str, object]:
        """Snapshot every registered stat.

        Flat mode (default): one scalar per stat. Structured mode: one
        JSON-serializable dict per stat, typed by a ``"type"`` field —
        the contract consumed by :func:`repro.obs.metrics.export_metrics`.
        """
        if not structured:
            out: Dict[str, object] = {}
            for k, v in self.items():
                if isinstance(v, Counter):
                    out[k] = v.value
                elif isinstance(v, TimeWeightedStat):
                    out[k] = v.mean()
                elif isinstance(v, Histogram):
                    out[k] = v.mean
            return out
        return {k: _describe(v) for k, v in self.items()}


def _describe(stat: object) -> Dict[str, object]:
    """One stat → JSON-serializable typed dict (see ``snapshot``)."""
    if isinstance(stat, Counter):
        return {"type": "counter", "value": stat.value}
    if isinstance(stat, TimeWeightedStat):
        return {
            "type": "time_weighted",
            "mean": stat.mean(),
            "value": stat.value,
            "min": stat.min,
            "max": stat.max,
            "elapsed": stat.elapsed,
        }
    if isinstance(stat, Histogram):
        # percentile() is None-safe on empty histograms, so degenerate
        # series describe as n=0 with null quantiles instead of raising.
        return {
            "type": "histogram",
            "count": stat.count,
            "mean": stat.mean,
            "lo": stat.bounds[0],
            "hi": stat.bounds[-1],
            "underflow": stat.counts[0],
            "overflow": stat.counts[-1],
            "p50": stat.percentile(50),
            "p90": stat.percentile(90),
            "p99": stat.percentile(99),
        }
    raise TypeError(f"unknown stat type: {type(stat).__name__}")
