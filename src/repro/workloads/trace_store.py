"""Process-wide content-addressed store of workload epoch traces.

The evaluation replays one workload's epoch trace under every offloading
policy (and cooling), and generating that trace is most of a cold
simulation job. :func:`get_trace_store` hands every run its
:class:`~repro.gpu.kernel.KernelLaunch` from one shared store, so a trace
is generated once per process (or once per cache directory) however the
runs that replay it are submitted.

**Key.** Workload class, name and seed, the run-length knobs
(:data:`~repro.workloads.base.RUN_LENGTH_ATTRS`), a content digest of the
graph's CSR arrays (:meth:`~repro.graph.csr.CSRGraph.content_digest`)
and the GPU config. Rescaled workloads, reseeded ones, and same-shaped
graphs with different edges therefore never share a trace.

**Memory tier.** An LRU of :data:`MAX_ENTRIES` immutable traces (a tuple
of :class:`~repro.sim.trace.OpBatch`). Every lookup returns a launch with
its *own* :class:`~repro.sim.trace.TraceCursor`: cursors are positional
state the macro engine seeks, so concurrent runs never share one.
Lookups are single-flight per key: threads that miss on the same key
wait on one build lock while the first generates the trace.

**Disk tier.** Inside :func:`disk_tier` (the job scheduler enters it
wherever it has a :class:`~repro.service.store.ResultStore`), traces are
also kept as ``<store root>/traces/<key>.npz``. The file key includes the
store's code fingerprint; writes are atomic (tmp file + ``os.replace``);
each archive carries a SHA-256 over its contents that is checked on
read. A missing, truncated, corrupted or stale file is a miss that
regenerates the trace: the store never serves a trace it cannot verify.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.gpu.config import GPU_DEFAULT, GpuConfig
from repro.gpu.kernel import KernelLaunch
from repro.graph.csr import CSRGraph
from repro.obs.tracer import get_tracer
from repro.sim.trace import (
    OpBatch,
    TraceCursor,
    batch_columns,
    batches_from_columns,
)
from repro.workloads.base import RUN_LENGTH_ATTRS, GraphWorkload

#: Traces kept in memory. A full-scale Fig. 10 matrix needs ten; the
#: largest (road traversals, ~13.5k epochs) hold a few MB each.
MAX_ENTRIES = 16


@dataclass(frozen=True)
class StoredTrace:
    """One generated trace plus the launch geometry it was built with."""

    name: str
    batches: Tuple[OpBatch, ...]
    total_threads: int
    config: GpuConfig

    def launch(self) -> KernelLaunch:
        """A launch over this trace with a fresh cursor of its own."""
        return KernelLaunch(
            name=self.name,
            trace=TraceCursor(self.batches),
            total_threads=self.total_threads,
            config=self.config,
        )


def trace_key(
    workload: GraphWorkload, graph: CSRGraph, gpu: GpuConfig
) -> tuple:
    """Memory-tier key of ``workload``'s trace on ``graph``."""
    return (
        type(workload), workload.name, workload.seed,
        tuple(getattr(workload, a, None) for a in RUN_LENGTH_ATTRS),
        graph.content_digest(), gpu,
    )


# -- disk tier -----------------------------------------------------------------


class TraceDir:
    """Checksummed ``.npz`` traces under one directory.

    Files written by another code fingerprint are *stale*: they are never
    read for a lookup (the fingerprint is part of the file key) and
    :meth:`prune_stale` removes them.
    """

    def __init__(self, root, fingerprint: str) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint

    @classmethod
    def for_store(cls, store) -> "TraceDir":
        """The ``traces/`` directory of a result store."""
        return cls(store.root / "traces", store.fingerprint)

    def file_key(self, key: tuple) -> str:
        cls, *fields = key
        ident = (self.fingerprint, f"{cls.__module__}.{cls.__qualname__}",
                 *fields)
        return hashlib.sha256(repr(ident).encode()).hexdigest()

    def path_for(self, file_key: str) -> Path:
        return self.root / f"{file_key}.npz"

    def load(self, key: tuple) -> Optional[StoredTrace]:
        """The verified trace for ``key``, or ``None`` (miss).

        An unreadable or unverifiable file is deleted so the next writer
        replaces it.
        """
        file_key = self.file_key(key)
        path = self.path_for(file_key)
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = {name: data[name] for name in data.files}
            if (
                str(arrays.pop("checksum")) != _checksum(arrays)
                or str(arrays["fingerprint"]) != self.fingerprint
                or str(arrays["key"]) != file_key
            ):
                raise ValueError(f"{path} does not verify")
            return StoredTrace(
                name=str(arrays["name"]),
                batches=tuple(batches_from_columns(arrays)),
                total_threads=int(arrays["total_threads"]),
                config=key[-1],
            )
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 — any damage is a miss
            # Truncation, bit flips, a tampered or object-dtype column:
            # the archive and zip layers raise many types; all recompute.
            path.unlink(missing_ok=True)
            return None

    def save(self, key: tuple, trace: StoredTrace) -> None:
        """Atomically write ``trace`` (best effort: a failed write is only
        a lost cache entry)."""
        file_key = self.file_key(key)
        arrays = batch_columns(trace.batches)
        arrays["name"] = np.asarray(trace.name, dtype="U")
        arrays["total_threads"] = np.asarray(trace.total_threads, np.int64)
        arrays["fingerprint"] = np.asarray(self.fingerprint, dtype="U")
        arrays["key"] = np.asarray(file_key, dtype="U")
        arrays["checksum"] = np.asarray(_checksum(arrays), dtype="U")
        tmp = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.root, prefix=f".{file_key[:8]}-", suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as f:
                np.savez_compressed(f, **arrays)
            os.replace(tmp, self.path_for(file_key))
        except OSError:
            if tmp is not None:
                Path(tmp).unlink(missing_ok=True)

    # -- maintenance -------------------------------------------------------

    def _files(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return iter(())
        return self.root.glob("*.npz")

    def _fingerprint_of(self, path: Path) -> Optional[str]:
        try:
            with np.load(path, allow_pickle=False) as data:
                return str(data["fingerprint"])
        except Exception:  # noqa: BLE001 — unreadable counts as stale
            return None

    def stats(self) -> Dict[str, int]:
        entries = stale = total = 0
        for path in self._files():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
            if self._fingerprint_of(path) != self.fingerprint:
                stale += 1
        return {"entries": entries, "stale_entries": stale,
                "total_bytes": total}

    def clear(self) -> int:
        """Remove every trace file (and leftover tmp files)."""
        count = 0
        for path in self._files():
            path.unlink(missing_ok=True)
            count += 1
        if self.root.is_dir():
            for tmp in self.root.glob(".*.tmp"):
                tmp.unlink(missing_ok=True)
        return count

    def prune_stale(self) -> int:
        """Remove trace files of another code fingerprint (or unreadable)."""
        count = 0
        for path in self._files():
            if self._fingerprint_of(path) != self.fingerprint:
                path.unlink(missing_ok=True)
                count += 1
        return count


def _checksum(arrays: Dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


#: Disk tier of the current context; set by :func:`disk_tier` (serial
#: jobs) or :func:`set_disk_tier` (pool-worker initializer).
_DISK: ContextVar[Optional[TraceDir]] = ContextVar("trace_dir", default=None)


def set_disk_tier(trace_dir: Optional[TraceDir]) -> None:
    """Use ``trace_dir`` for the rest of this thread's context."""
    _DISK.set(trace_dir)


@contextmanager
def disk_tier(trace_dir: Optional[TraceDir]):
    """Back the store with ``trace_dir`` inside the ``with`` block."""
    token = _DISK.set(trace_dir)
    try:
        yield
    finally:
        _DISK.reset(token)


# -- the store -----------------------------------------------------------------


class TraceStore:
    """Bounded LRU of traces, single-flight per key, over the disk tier."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[tuple, StoredTrace]" = OrderedDict()
        self._guard = threading.Lock()
        self._build_locks: Dict[tuple, threading.Lock] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def launch(
        self,
        workload: GraphWorkload,
        graph: CSRGraph,
        gpu: GpuConfig = GPU_DEFAULT,
    ) -> KernelLaunch:
        """``workload``'s launch on ``graph``, generating its trace at
        most once per key."""
        key = trace_key(workload, graph, gpu)
        trace = self._cached(key)
        if trace is None:
            with self._guard:
                lock = self._build_locks.setdefault(key, threading.Lock())
            try:
                with lock:
                    # A thread that waited on the lock finds its leader's
                    # trace instead of generating it again.
                    trace = self._cached(key) or self._fill(
                        key, workload, graph, gpu
                    )
            finally:
                with self._guard:
                    if self._build_locks.get(key) is lock:
                        del self._build_locks[key]
        return trace.launch()

    def _fill(
        self, key: tuple, workload: GraphWorkload, graph: CSRGraph,
        gpu: GpuConfig,
    ) -> StoredTrace:
        """Load ``key`` from the disk tier or generate it; cache it."""
        with get_tracer().span("workload.trace", cat="workload") as span:
            trace_dir = _DISK.get()
            trace = trace_dir.load(key) if trace_dir is not None else None
            _record("disk" if trace is not None else None)
            tier = "disk" if trace is not None else "generated"
            if trace is None:
                launch = workload.launch(graph, gpu)
                trace = StoredTrace(
                    name=launch.name, batches=tuple(launch.trace),
                    total_threads=launch.total_threads, config=launch.config,
                )
                if trace_dir is not None:
                    trace_dir.save(key, trace)
            span.set(tier=tier, epochs=len(trace.batches))
        with self._guard:
            self._entries[key] = trace
            while len(self._entries) > MAX_ENTRIES:
                self._entries.popitem(last=False)
        return trace

    def _cached(self, key: tuple) -> Optional[StoredTrace]:
        with self._guard:
            trace = self._entries.get(key)
            if trace is not None:
                self._entries.move_to_end(key)
        if trace is not None:
            _record("memory")
        return trace

    def clear(self) -> None:
        """Drop every in-memory trace (the disk tier is untouched)."""
        with self._guard:
            self._entries.clear()


def _record(tier: Optional[str]) -> None:
    """Count one lookup: served by ``tier`` (``memory``/``disk``), or
    ``None`` when it generated the trace."""
    from repro.telemetry import get_registry

    reg = get_registry()
    if tier is None:
        reg.counter(
            "repro_trace_store_misses_total",
            "Trace-store lookups that generated the trace",
        ).inc()
    else:
        reg.counter(
            "repro_trace_store_hits_total",
            "Trace-store lookups served without generating, by tier",
            ("tier",),
        ).labels(tier=tier).inc()


_STORE = TraceStore()


def get_trace_store() -> TraceStore:
    """The process-wide trace store."""
    return _STORE
