"""Workload base: algorithm execution → epoch traffic translation.

Each workload *executes its algorithm for real* on a CSR graph (vectorized
NumPy), yielding per-epoch :class:`EpochCounts` — actual frontier sizes,
edges inspected, and atomic operations performed. A per-variant
:class:`TrafficCoefficients` block translates those counts into memory
traffic (:class:`repro.sim.trace.OpBatch`): warp-centric kernels fetch
adjacency lists coalesced (few lines per edge), thread-centric ones pay
scattered accesses and heavy divergence.

The traversal workloads (BFS, SSSP) run a stream of independent queries;
:func:`query_block_epochs` splits a run's sources into contiguous query
blocks, one per CPU, and runs their kernels concurrently (NumPy gathers
and SciPy's sparse products release the GIL).

The coefficients are the calibration surface of the reproduction: they are
chosen per benchmark so the simulated baseline bandwidth, naive PIM rates,
and speedup pattern land on the paper's evaluation (DESIGN.md §5).
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.gpu.caches import CacheModel
from repro.gpu.config import GPU_DEFAULT, GpuConfig
from repro.gpu.kernel import KernelLaunch
from repro.graph.csr import CSRGraph
from repro.sim.trace import OpBatch, TraceCursor


@dataclass(frozen=True)
class EpochCounts:
    """Raw algorithmic work of one epoch (level / iteration / pass)."""

    label: str
    frontier_vertices: int = 0     # vertices actively processed
    scanned_vertices: int = 0      # vertices touched by topological scans
    edges_inspected: int = 0       # adjacency entries examined
    atomics: int = 0               # atomic RMW operations actually issued
    updated_vertices: int = 0      # vertices whose property was written

    def __post_init__(self) -> None:
        if min(self.frontier_vertices, self.scanned_vertices,
               self.edges_inspected, self.atomics, self.updated_vertices) < 0:
            raise ValueError(f"negative counts: {self}")


@dataclass(frozen=True)
class TrafficCoefficients:
    """Counts → traffic translation for one kernel variant.

    Attributes
    ----------
    lines_per_edge:
        64 B read lines per inspected edge (adjacency + property loads,
        post warp-coalescing).
    write_lines_per_edge:
        64 B write lines per inspected edge (frontier enqueues, visited
        bitmaps, output buffers). Balancing the request/response lanes is
        what lets a kernel reach the link-saturated operating points of
        Figs. 4/5.
    lines_per_scan_vertex:
        Read lines per scanned vertex (topological kernels stream the
        status array; fully coalesced ≈ 1/16 line per 4 B entry).
    writes_per_update:
        Write lines per updated vertex.
    instrs_per_edge:
        Thread instructions per inspected edge (compute floor).
    divergence:
        Divergent-warp ratio of the kernel (Eq. (1) input).
    read_hit_rate / write_hit_rate:
        Cache profile for ordinary loads/stores.
    atomic_coalescing:
        Fraction of host-executed atomics that cost a full DRAM RMW
        (L2 ROP merge absorbs the rest).
    return_fraction:
        Fraction of atomics whose old value the kernel consumes
        (PIM-with-return packets, Table I).
    """

    lines_per_edge: float
    write_lines_per_edge: float = 0.0
    lines_per_scan_vertex: float = 1.0 / 16.0
    writes_per_update: float = 1.0 / 8.0
    instrs_per_edge: float = 12.0
    divergence: float = 0.1
    read_hit_rate: float = 0.5
    write_hit_rate: float = 0.5
    atomic_coalescing: float = 0.6
    return_fraction: float = 0.0

    def __post_init__(self) -> None:
        for name in ("lines_per_edge", "write_lines_per_edge",
                     "lines_per_scan_vertex", "writes_per_update",
                     "instrs_per_edge"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        for name in ("divergence", "read_hit_rate", "write_hit_rate",
                     "atomic_coalescing", "return_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")


#: Upper bound on the (query, vertex) pairs — or candidate edges — one
#: step of a traversal kernel materializes at once; larger levels are
#: split into ranges under it. At 2^17 the batched BFS kernel's peak RSS
#: on ``ldbc`` stays at the per-source kernel's; 2^19 added ~7 MB and
#: 2^20 ~14 MB for no measurable speed.
PAIR_BUDGET = 1 << 17


def budget_ranges(pairs: np.ndarray, budget: int) -> Iterator[tuple]:
    """Consecutive ranges ``[lo, hi)`` whose ``pairs`` sum to at most
    ``budget`` (a single entry may exceed it alone)."""
    ends = np.cumsum(pairs)
    lo = 0
    while lo < pairs.size:
        start = int(ends[lo - 1]) if lo else 0
        hi = int(np.searchsorted(ends, start + budget, side="right"))
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


# -- query blocks --------------------------------------------------------------

#: A traversal kernel: a block of query sources → int64 counts
#: ``[step, query, (frontier, edges, atomics, updated)]``, where a
#: query's rows are zero from the step after its last one.
BlockKernel = Callable[[np.ndarray], np.ndarray]

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def query_blocks(sources: np.ndarray) -> List[np.ndarray]:
    """A run's sources as contiguous blocks, one per CPU this process may
    run on. A worker of the process scheduler gets one block: its
    siblings already fill the cores."""
    count = 1 if multiprocessing.parent_process() is not None \
        else _usable_cpus()
    return np.array_split(sources, max(1, min(count, sources.size)))


def _block_pool() -> ThreadPoolExecutor:
    """The process-wide pool that runs query blocks after the first."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(1, _usable_cpus() - 1),
                thread_name_prefix="query-block",
            )
        return _pool


def _forget_pool_in_child() -> None:
    # A forked child has none of the parent's pool threads.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def run_query_blocks(
    kernel: BlockKernel, blocks: List[np.ndarray]
) -> List[np.ndarray]:
    """``kernel`` over every block: the first on the calling thread (one
    block never starts a thread), the rest on the block pool."""
    futures = [_block_pool().submit(kernel, b) for b in blocks[1:]]
    try:
        counts = [kernel(blocks[0])]
    finally:
        wait(futures)
    return counts + [f.result() for f in futures]


def query_block_epochs(
    kernel: BlockKernel, sources: np.ndarray, step: str, scanned: int = 0
) -> Iterator[EpochCounts]:
    """Epochs of one traversal per source, query-major, labelled
    ``q{query}-{step}{i}`` with the query's index in ``sources``."""
    q = 0
    for counts in run_query_blocks(kernel, query_blocks(sources)):
        for steps in counts.swapaxes(0, 1):
            for i, (frontier, edges, atomics, updated) in enumerate(
                steps.tolist()
            ):
                if frontier == 0:
                    break
                yield EpochCounts(
                    label=f"q{q}-{step}{i}",
                    frontier_vertices=frontier,
                    scanned_vertices=scanned,
                    edges_inspected=edges,
                    atomics=atomics,
                    updated_vertices=updated,
                )
            q += 1


#: Instance knobs that set how long a workload runs (query count, passes,
#: iterations); rescaling a workload rewrites them, changing its trace.
RUN_LENGTH_ATTRS = ("num_sources", "repeats", "iterations")


class GraphWorkload(abc.ABC):
    """A GraphBIG kernel: algorithm + traffic coefficients."""

    #: Benchmark name as it appears in the paper's figures.
    name: str = "workload"
    coeffs: TrafficCoefficients = TrafficCoefficients(lines_per_edge=0.5)

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # -- algorithm ------------------------------------------------------------

    @abc.abstractmethod
    def epochs(self, graph: CSRGraph) -> Iterator[EpochCounts]:
        """Execute the algorithm, yielding per-epoch work counts."""

    @abc.abstractmethod
    def reference(self, graph: CSRGraph) -> np.ndarray:
        """The algorithm's result (for correctness tests)."""

    # -- translation ----------------------------------------------------------

    def batch_for(self, counts: EpochCounts, warp_size: int = 32) -> OpBatch:
        """Translate epoch counts into an operation batch."""
        c = self.coeffs
        reads = int(round(
            counts.edges_inspected * c.lines_per_edge
            + counts.scanned_vertices * c.lines_per_scan_vertex
            + counts.frontier_vertices * c.lines_per_scan_vertex
        ))
        writes = int(round(
            counts.edges_inspected * c.write_lines_per_edge
            + counts.updated_vertices * c.writes_per_update
        ))
        atomics = counts.atomics
        with_ret = int(round(atomics * c.return_fraction))
        # Concurrent memory streams the epoch can keep in flight: one per
        # active/scanned vertex plus the adjacency streams (a coalesced
        # 64 B line covers ~8 edges' worth of data). This is what the
        # simulator's memory-level-parallelism cap consumes — big social
        # frontiers saturate the links, shallow road frontiers cannot.
        threads = max(
            1,
            int(counts.frontier_vertices
                + counts.scanned_vertices / 8
                + counts.edges_inspected / 8),
        )
        compute = int(round(counts.edges_inspected * c.instrs_per_edge / warp_size))
        return OpBatch(
            reads=reads,
            writes=writes,
            atomics=atomics,
            atomics_with_return=with_ret,
            compute_cycles=compute,
            threads=threads,
            divergent_warp_ratio=c.divergence,
            label=counts.label,
        )

    def trace(self, graph: CSRGraph) -> TraceCursor:
        """Full epoch trace for a run on ``graph``."""
        return TraceCursor(self.batch_for(c) for c in self.epochs(graph))

    def cache_model(self, gpu: GpuConfig = GPU_DEFAULT) -> CacheModel:
        """Cache model matching this kernel's locality profile."""
        c = self.coeffs
        return CacheModel(
            gpu,
            read_hit_rate=c.read_hit_rate,
            write_hit_rate=c.write_hit_rate,
            host_atomic_coalescing=c.atomic_coalescing,
        )

    def launch(
        self, graph: CSRGraph, gpu: GpuConfig = GPU_DEFAULT
    ) -> KernelLaunch:
        """Kernel launch (one thread per vertex, GraphBIG-style)."""
        return KernelLaunch(
            name=self.name,
            trace=self.trace(graph),
            total_threads=max(graph.num_vertices, gpu.threads_per_block),
            config=gpu,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
