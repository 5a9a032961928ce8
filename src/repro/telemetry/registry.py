"""Label-aware time-series metric registry.

The fleet-level counterpart of :class:`repro.sim.stats.StatRegistry`:
where the sim registry describes *one run* and is reset per run, this
registry accumulates **process-wide** series — submissions per tenant,
job latency histograms, simulator run counters — and renders them in
Prometheus text exposition (:mod:`repro.telemetry.exposition`) for the
``GET /metrics`` scrape surface.

Design constraints, in the spirit of the tracer's NULL_SPAN fast path
(:mod:`repro.obs.tracer`):

- **Lock-light.** A single registry lock guards family/child *creation*
  only; recording (``inc``/``set``/``observe``) touches plain attributes
  under the GIL. Metrics are recorded at run/job boundaries — never
  inside the control loop — so contention is negligible by construction.
- **Near-zero when unobserved.** Handles are resolved once and cached by
  callers (``family.labels(...)`` memoizes children); recording is a few
  attribute writes. Nothing is formatted, serialized, or copied until a
  collector actually scrapes.
- **Delta-flushable.** Forked pool workers accumulate into their own
  (inherited) registry and ship compact deltas back through the job
  result pipe (:meth:`TelemetryRegistry.flush_deltas`); the parent folds
  them into its own series (:meth:`TelemetryRegistry.merge`), so
  ``/metrics`` covers the whole worker fleet.

:class:`Counter` and :class:`Histogram` are also the per-run primitives
of :class:`repro.sim.stats.StatRegistry`, so the run snapshot and the
Prometheus encoder read the same objects.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Schema identifier stamped on flushed delta documents.
DELTA_SCHEMA_ID = "repro.telemetry-delta/1"

#: Default histogram bucket upper bounds (seconds-flavoured, like
#: Prometheus' own defaults; callers override for other units).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _label_items(
    labelnames: Tuple[str, ...], labels: Mapping[str, Any]
) -> Tuple[Tuple[str, str], ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared "
            f"labelnames {sorted(labelnames)}"
        )
    return tuple((name, str(labels[name])) for name in labelnames)


class Counter:
    """Monotonic counter (one labelled child)."""

    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._flushed = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0: {amount}")
        self.value += amount

    def reset(self) -> None:
        """Back to zero (per-run registries reuse one counter per run)."""
        self.value = 0.0
        self._flushed = 0.0

    def _delta(self) -> float:
        delta = self.value - self._flushed
        self._flushed = self.value
        return delta


class Gauge:
    """Last-value-wins instantaneous measurement."""

    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram.

    ``bounds`` are the inclusive upper edges of the finite buckets (the
    Prometheus ``le`` rule: a sample equal to a bound counts in that
    bound's bucket); one implicit ``+Inf`` bucket catches the overflow.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...] = (),
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be sorted and non-empty: {bounds}")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        # Per-bucket (non-cumulative) counts; exposition cumulates them.
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._flushed_counts = [0] * (len(self.bounds) + 1)
        self._flushed_sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values) -> None:
        """Observe every sample of ``values`` (one vectorized fill).

        Bucket counts equal a loop of :meth:`observe`; ``sum`` is a
        vectorized sum, so its rounding may differ by ULPs. The macro
        engine records thousands of control steps per burst this way.
        """
        import numpy as np

        xs = np.asarray(values, dtype=float)
        if xs.size == 0:
            return
        idx = np.searchsorted(self.bounds, xs, side="left")
        filled = np.bincount(idx, minlength=len(self.counts))
        for i in np.flatnonzero(filled):
            self.counts[i] += int(filled[i])
        self.sum += float(xs.sum())
        self.count += int(xs.size)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def reset(self) -> None:
        self.counts = [0] * len(self.counts)
        self.sum = 0.0
        self.count = 0
        self._flushed_counts = [0] * len(self.counts)
        self._flushed_sum = 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-th percentile (``0 <= q <= 100``).

        Walks the cumulative bucket counts and interpolates linearly
        inside the containing bucket. Samples at or below the first
        bound count as sitting on it, samples above the last bound as
        sitting on that one, so the estimate is clamped to the bounds.
        Returns ``None`` for an empty histogram (degenerate series render
        as ``n=0``, they never raise); raises :class:`ValueError` only for
        ``q`` out of range.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of [0, 100]: {q}")
        if self.count == 0:
            return None
        target = q / 100.0 * self.count
        cum = self.counts[0]
        if target <= cum:
            return self.bounds[0]
        for i in range(1, len(self.bounds)):
            n = self.counts[i]
            if n and target <= cum + n:
                lo, hi = self.bounds[i - 1], self.bounds[i]
                return lo + (target - cum) / n * (hi - lo)
            cum += n
        return self.bounds[-1]

    def cumulative_counts(self) -> List[int]:
        """Prometheus ``le`` buckets: running totals incl. ``+Inf``."""
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def _delta(self) -> Optional[Dict[str, Any]]:
        counts = [c - f for c, f in zip(self.counts, self._flushed_counts)]
        if not any(counts):
            return None
        delta = {
            "bounds": list(self.bounds),
            "counts": counts,
            "sum": self.sum - self._flushed_sum,
        }
        self._flushed_counts = list(self.counts)
        self._flushed_sum = self.sum
        return delta

    def _merge(self, delta: Mapping[str, Any]) -> None:
        if tuple(delta["bounds"]) != self.bounds:
            raise ValueError(
                f"histogram {self.name!r} bucket bounds mismatch on merge"
            )
        for i, c in enumerate(delta["counts"]):
            self.counts[i] += int(c)
        self.sum += float(delta["sum"])
        self.count += int(sum(delta["counts"]))


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its per-label-set children."""

    def __init__(
        self,
        registry: "TelemetryRegistry",
        kind: str,
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        **child_kwargs: Any,
    ):
        self.registry = registry
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._child_kwargs = child_kwargs
        self._children: Dict[Tuple[Tuple[str, str], ...], Any] = {}
        self._default = None if labelnames else self._make(())

    def _make(self, items: Tuple[Tuple[str, str], ...]):
        child = _CHILD_TYPES[self.kind](self.name, items, **self._child_kwargs)
        self._children[items] = child
        return child

    def labels(self, **labels: Any):
        """The child bound to this label set (created on first use)."""
        items = _label_items(self.labelnames, labels)
        child = self._children.get(items)
        if child is None:
            with self.registry._lock:
                child = self._children.get(items) or self._make(items)
        return child

    def children(self) -> List[Any]:
        return list(self._children.values())

    # Unlabelled families act as their own single child.
    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def set(self, value: float) -> None:
        self._default.set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default.dec(amount)

    def observe(self, value: float) -> None:
        self._default.observe(value)

    def percentile(self, q: float) -> Optional[float]:
        return self._default.percentile(q)

    @property
    def value(self) -> float:
        return self._default.value


class TelemetryRegistry:
    """Process-wide collection of metric families."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: Dict[str, MetricFamily] = {}

    def _family(self, kind: str, name: str, help: str,
                labelnames: Iterable[str], **kwargs: Any) -> MetricFamily:
        labelnames = tuple(labelnames)
        with self._lock:
            fam = self._families.get(name)
            if fam is not None:
                if fam.kind != kind or fam.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as {fam.kind} "
                        f"with labels {fam.labelnames}"
                    )
                return fam
            fam = MetricFamily(self, kind, name, help, labelnames, **kwargs)
            self._families[name] = fam
            return fam

    def counter(self, name: str, help: str = "",
                labelnames: Iterable[str] = ()) -> MetricFamily:
        return self._family("counter", name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Iterable[str] = ()) -> MetricFamily:
        return self._family("gauge", name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._family(
            "histogram", name, help, labelnames, bounds=tuple(buckets),
        )

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def clear(self) -> None:
        """Drop every family (test isolation)."""
        with self._lock:
            self._families.clear()

    # -- worker → parent delta pipe ---------------------------------------

    def flush_deltas(self) -> Optional[Dict[str, Any]]:
        """Changes since the previous flush, or None when quiescent.

        Counters/histograms ship increments (mergeable), gauges ship
        their current value (last-writer-wins). Advances the per-child
        flush watermarks, so repeated flushes never double-count.
        """
        counters: List[List[Any]] = []
        gauges: List[List[Any]] = []
        histograms: List[List[Any]] = []
        for fam in self.families():
            for child in fam.children():
                items = [list(kv) for kv in child.labels]
                if fam.kind == "counter":
                    delta = child._delta()
                    if delta:
                        counters.append([fam.name, items, delta])
                elif fam.kind == "gauge":
                    gauges.append([fam.name, items, child.value])
                else:
                    delta = child._delta()
                    if delta is not None:
                        histograms.append([fam.name, items, delta])
        if not (counters or gauges or histograms):
            return None
        return {
            "schema": DELTA_SCHEMA_ID,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge(self, deltas: Mapping[str, Any]) -> None:
        """Fold a :meth:`flush_deltas` document into this registry."""
        if deltas.get("schema") != DELTA_SCHEMA_ID:
            raise ValueError(
                f"unsupported telemetry delta schema: {deltas.get('schema')!r}"
            )
        for name, items, delta in deltas.get("counters", ()):
            labelnames = tuple(k for k, _ in items)
            fam = self.counter(name, labelnames=labelnames)
            child = fam.labels(**dict(items)) if items else fam._default
            child.value += float(delta)
            child._flushed += float(delta)
        for name, items, value in deltas.get("gauges", ()):
            labelnames = tuple(k for k, _ in items)
            fam = self.gauge(name, labelnames=labelnames)
            child = fam.labels(**dict(items)) if items else fam._default
            child.set(float(value))
        for name, items, delta in deltas.get("histograms", ()):
            labelnames = tuple(k for k, _ in items)
            fam = self.histogram(
                name, labelnames=labelnames, buckets=tuple(delta["bounds"])
            )
            child = fam.labels(**dict(items)) if items else fam._default
            child._merge(delta)
            child._flushed_counts = list(child.counts)
            child._flushed_sum = child.sum


#: Process-wide default registry (the one ``GET /metrics`` renders).
_DEFAULT_REGISTRY = TelemetryRegistry()


def get_registry() -> TelemetryRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY


def set_registry(registry: TelemetryRegistry) -> TelemetryRegistry:
    """Swap the default registry (tests); returns the previous one."""
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous
